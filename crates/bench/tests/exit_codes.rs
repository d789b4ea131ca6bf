//! The `tables` shard runner's exit-code triage: a supervising
//! coordinator sees nothing but an exit status, so corrupt snapshot
//! bytes (never worth a retry) must die with a different code than
//! transient I/O trouble (always worth one). The mapping itself lives in
//! `dapc_serve::exit`; these tests pin the shard runner to it, both at
//! the library layer and through the real binary.

use dapc_bench::shard::{read_shard_file, SHARD_FILE_MAGIC};
use dapc_serve::exit;
use std::process::{Command, Stdio};

const TABLES: &str = env!("CARGO_BIN_EXE_tables");

#[test]
fn shard_file_failures_classify_by_retryability() {
    // Corrupt bytes behind a valid magic: InvalidData, not retryable.
    let mut corrupt = SHARD_FILE_MAGIC.to_vec();
    corrupt.extend_from_slice(b"garbage follows the magic");
    let err = read_shard_file(corrupt.as_slice()).expect_err("corrupt shard file must not load");
    assert_eq!(exit::classify(&err), exit::EXIT_BAD_SNAPSHOT, "{err}");
    assert!(!exit::is_retryable(Some(exit::classify(&err))));

    // A file of the previous format version (whole-shard reports inside)
    // fails as a wrong version at the header, before any nested loader.
    let mut stale = SHARD_FILE_MAGIC.to_vec();
    stale[7] -= 1;
    stale.extend_from_slice(b"an older shard-report payload");
    let err = read_shard_file(stale.as_slice()).expect_err("an old shard file must not load");
    assert!(err.to_string().contains("version"), "{err}");
    assert_eq!(exit::classify(&err), exit::EXIT_BAD_SNAPSHOT, "{err}");

    // Truncation is corruption under the all-or-nothing discipline.
    let err = read_shard_file(&b"DAPCSHF"[..]).expect_err("truncated magic must not load");
    assert_eq!(exit::classify(&err), exit::EXIT_BAD_SNAPSHOT, "{err}");

    // A missing file is the filesystem's problem, not the bytes' —
    // retryable.
    let err =
        std::fs::File::open("/definitely/no/such/shard.bin").expect_err("the file must not exist");
    assert_eq!(exit::classify(&err), exit::EXIT_IO, "{err}");
    assert!(exit::is_retryable(Some(exit::EXIT_IO)));
}

#[test]
fn merging_a_missing_shard_file_exits_with_the_io_code() {
    let status = Command::new(TABLES)
        .args(["--quick", "--merge-shards", "/definitely/no/such/shard.bin"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("run tables");
    assert_eq!(status.code(), Some(exit::EXIT_IO), "{status:?}");
}

#[test]
fn merging_a_corrupt_shard_file_exits_with_the_bad_snapshot_code() {
    let dir = std::env::temp_dir();
    let torn = dir.join(format!("tables-torn-{}.bin", std::process::id()));
    // A valid magic followed by garbage: the loader must reject it and
    // the binary must die with the corrupt-input code, not the I/O one.
    let mut bytes = SHARD_FILE_MAGIC.to_vec();
    bytes.extend_from_slice(b"garbage");
    std::fs::write(&torn, bytes).expect("write torn shard file");
    let status = Command::new(TABLES)
        .arg("--quick")
        .arg("--merge-shards")
        .arg(&torn)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("run tables");
    assert_eq!(status.code(), Some(exit::EXIT_BAD_SNAPSHOT), "{status:?}");
    std::fs::remove_file(&torn).ok();
}

#[test]
fn emitting_to_an_impossible_path_exits_with_the_io_code() {
    let status = Command::new(TABLES)
        .args([
            "--quick",
            "--shard",
            "0/2",
            "--emit-shard",
            "/definitely/no/such/dir/shard.bin",
            "e9", // not a batch experiment: no solving before the create fails
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("run tables");
    assert_eq!(status.code(), Some(exit::EXIT_IO), "{status:?}");
}
