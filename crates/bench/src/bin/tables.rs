//! Regenerates the experiment tables (E1–E10) of the reproduction of the
//! paper summarised in `PAPER.md`.
//!
//! Usage: `tables [--quick|--full] [--jobs N] [--prep-workers N]
//! [--metrics PATH] [e1 e2 …]` — defaults to `--full`, one concurrent
//! job, unsharded preparations, and all experiments. (`quick`/`full`
//! without dashes are accepted for backwards compatibility.) `--jobs`
//! and `--prep-workers` are honoured in both profiles; neither changes a
//! table — batching is byte-identical to sequential execution.
//!
//! `--metrics PATH` turns the `dapc-obs` registry on for the run and
//! writes its JSON-lines snapshot to `PATH` on success. Like the
//! parallelism knobs, it never changes a table byte — the observability
//! identity is diff-checked in CI.
//!
//! Multi-process sharding splits the batch experiments (E3–E6, E10)
//! across N cooperating invocations, byte-identically to one process:
//!
//! ```sh
//! tables --quick --shard 0/2 --emit-shard shard0.bin   # process 0
//! tables --quick --shard 1/2 --emit-shard shard1.bin   # process 1
//! tables --quick --merge-shards shard0.bin shard1.bin  # render tables
//! ```
//!
//! `--shard i/n --emit-shard PATH` solves only shard `i`'s contiguous
//! job range (`Corpus::shard_range`) of every batch corpus through
//! `dapc_runtime::solve_range` and writes the mergeable `PartReport`
//! snapshots to `PATH` (non-batch experiments are skipped — they run
//! inline at merge time). `--merge-shards PATHS..` (every following
//! argument is a path) runs no batch jobs: it merges the recorded
//! parts, verifies they all belong to the same profile/experiment
//! selection and that every shard 0..n is present exactly once, and
//! prints the same tables the unsharded invocation would.
//!
//! `--orchestrate N` drives the whole protocol itself: it spawns the N
//! shard workers as supervised child processes (the `dapc-serve`
//! supervisor — crashed workers are re-spawned, a loadable shard file on
//! disk is the ground truth of completion), then merges and renders.
//! `--inject-kill` arms a fault drill: the first worker aborts mid-run
//! and the supervisor's retry must still produce byte-identical tables.
//! `--shard-dir DIR` pins where the shard files live (default: a
//! process-unique directory under the system temp dir).
//!
//! `--chaos-seed S` arms the deterministic fault plan (`dapc-chaos`)
//! for this process *and* — via the inherited environment — every shard
//! worker it spawns: checkpoint writes tear, loads flip bits, workers
//! stall and abort, all on a schedule that is a pure function of the
//! seed. Retried workers get the attempt number as their chaos salt, so
//! a fault cannot replay itself against every retry. The contract the
//! CI chaos drill enforces: a seeded run either fails loudly with the
//! triage exit code below or renders byte-identical tables.
//!
//! Exit codes follow `dapc_serve::exit`: 0 ok, 3 transient I/O, 4 a
//! corrupt or truncated shard file, 5 a panicking solve — so a
//! supervising coordinator can tell retryable deaths from fatal ones.

use dapc_bench::shard::{read_shard_file, write_shard_file, Runner};
use dapc_bench::{run_experiment, Profile, ALL_EXPERIMENTS, BATCH_EXPERIMENTS};
use dapc_runtime::RuntimeConfig;
use dapc_serve::{exit, Supervisor, Verdict};
use std::fs::File;
use std::io::{self, BufReader, BufWriter};
use std::path::PathBuf;
use std::process::{Command, Stdio};

fn parse_count(flag: &str, value: &str) -> usize {
    value
        .parse()
        .unwrap_or_else(|_| panic!("bad {flag} value {value:?}"))
}

/// Parses `i/n` (e.g. `0/2`) into `(shard, shards)`.
fn parse_shard(value: &str) -> (usize, usize) {
    let parse = || {
        let (i, n) = value.split_once('/')?;
        let i = i.parse::<usize>().ok()?;
        let n = n.parse::<usize>().ok()?;
        (n > 0 && i < n).then_some((i, n))
    };
    parse().unwrap_or_else(|| panic!("bad --shard value {value:?} (expected i/n with i < n)"))
}

/// Reports an I/O failure and exits with its triage code
/// ([`exit::EXIT_BAD_SNAPSHOT`] for corrupt/truncated snapshot bytes,
/// [`exit::EXIT_IO`] for transient filesystem trouble).
fn die(e: &io::Error, ctx: &str) -> ! {
    eprintln!("tables: {ctx}: {e}");
    std::process::exit(exit::classify(e));
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut profile = Profile::Full;
    let mut rt = RuntimeConfig::new();
    let mut ids: Vec<String> = Vec::new();
    let mut shard: Option<(usize, usize)> = None;
    let mut emit_path: Option<String> = None;
    let mut merge_paths: Vec<String> = Vec::new();
    let mut orchestrate_workers: Option<usize> = None;
    let mut inject_kill = false;
    let mut self_destruct = false;
    let mut shard_dir: Option<PathBuf> = None;
    let mut metrics_path: Option<PathBuf> = None;
    let mut chaos_seed: Option<u64> = None;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "quick" | "--quick" => profile = Profile::Quick,
            "full" | "--full" => profile = Profile::Full,
            "--jobs" => {
                let n = it.next().expect("--jobs needs a worker count");
                rt.jobs = parse_count("--jobs", &n);
            }
            "--prep-workers" => {
                let n = it.next().expect("--prep-workers needs a worker count");
                rt.prep_workers = parse_count("--prep-workers", &n);
            }
            "--shard" => {
                let v = it.next().expect("--shard needs i/n");
                shard = Some(parse_shard(&v));
            }
            "--emit-shard" => {
                emit_path = Some(it.next().expect("--emit-shard needs a path"));
            }
            "--merge-shards" => {
                // Everything after --merge-shards is a shard file path.
                merge_paths.extend(it.by_ref());
                assert!(
                    !merge_paths.is_empty(),
                    "--merge-shards needs at least one path"
                );
            }
            "--orchestrate" => {
                let n = it.next().expect("--orchestrate needs a worker count");
                orchestrate_workers = Some(parse_count("--orchestrate", &n));
            }
            "--inject-kill" => inject_kill = true,
            "--self-destruct" => self_destruct = true,
            "--shard-dir" => {
                shard_dir = Some(PathBuf::from(it.next().expect("--shard-dir needs a path")));
            }
            "--metrics" => {
                metrics_path = Some(PathBuf::from(it.next().expect("--metrics needs a path")));
            }
            "--chaos-seed" => {
                let v = it.next().expect("--chaos-seed needs a u64 seed");
                chaos_seed = Some(
                    v.parse()
                        .unwrap_or_else(|_| panic!("bad --chaos-seed {v:?}")),
                );
            }
            other => {
                if let Some(n) = other.strip_prefix("--jobs=") {
                    rt.jobs = parse_count("--jobs", n);
                } else if let Some(n) = other.strip_prefix("--prep-workers=") {
                    rt.prep_workers = parse_count("--prep-workers", n);
                } else if let Some(v) = other.strip_prefix("--shard=") {
                    shard = Some(parse_shard(v));
                } else if let Some(p) = other.strip_prefix("--emit-shard=") {
                    emit_path = Some(p.to_string());
                } else if let Some(p) = other.strip_prefix("--merge-shards=") {
                    // Equals-form: comma-separated paths.
                    merge_paths.extend(p.split(',').map(str::to_string));
                } else if let Some(n) = other.strip_prefix("--orchestrate=") {
                    orchestrate_workers = Some(parse_count("--orchestrate", n));
                } else if let Some(p) = other.strip_prefix("--shard-dir=") {
                    shard_dir = Some(PathBuf::from(p));
                } else if let Some(p) = other.strip_prefix("--metrics=") {
                    metrics_path = Some(PathBuf::from(p));
                } else if let Some(v) = other.strip_prefix("--chaos-seed=") {
                    chaos_seed = Some(
                        v.parse()
                            .unwrap_or_else(|_| panic!("bad --chaos-seed {v:?}")),
                    );
                } else if other.starts_with("--") {
                    panic!("unknown flag {other:?}");
                } else {
                    ids.push(other.to_string());
                }
            }
        }
    }
    if ids.is_empty() {
        ids = ALL_EXPERIMENTS.iter().map(|s| s.to_string()).collect();
    }
    assert!(
        shard.is_some() == emit_path.is_some(),
        "--shard and --emit-shard go together"
    );
    assert!(
        merge_paths.is_empty() || shard.is_none(),
        "--merge-shards conflicts with --shard/--emit-shard"
    );
    assert!(
        orchestrate_workers.is_none() || (shard.is_none() && merge_paths.is_empty()),
        "--orchestrate conflicts with --shard/--emit-shard/--merge-shards"
    );

    // Observability goes live before any solve so the snapshot covers
    // the whole run; it is diff-checked in CI to never change a table.
    if metrics_path.is_some() {
        dapc_obs::set_enabled(true);
    }

    // The fault plan arms before any I/O, and exports itself through the
    // environment so spawned shard workers run under the same seed.
    if let Some(seed) = chaos_seed {
        dapc_chaos::arm(seed, 0);
    }

    if let Some(workers) = orchestrate_workers {
        orchestrate(profile, &rt, &ids, workers, inject_kill, shard_dir);
    } else if let (Some((shard, shards)), Some(path)) = (shard, emit_path) {
        emit(profile, rt, &ids, shard, shards, &path, self_destruct);
    } else if !merge_paths.is_empty() {
        merge(profile, rt, &ids, &merge_paths);
    } else {
        let runner = Runner::single(rt);
        render(profile, &ids, &runner);
        runner.assert_drained();
    }

    if let Some(path) = metrics_path {
        dapc_obs::write_snapshot(&path)
            .unwrap_or_else(|e| die(&e, &format!("write metrics snapshot {}", path.display())));
        eprintln!("[metrics snapshot written to {}]", path.display());
    }
}

/// Renders every selected experiment to stdout.
fn render(profile: Profile, ids: &[String], runner: &Runner) {
    for id in ids {
        #[expect(
            clippy::disallowed_methods,
            reason = "stderr progress timing; stdout tables carry no timing column"
        )]
        let start = std::time::Instant::now();
        let table = run_experiment(id, profile, runner);
        println!("{table}");
        eprintln!("[{id} finished in {:.1?}]", start.elapsed());
    }
}

/// `--shard i/n --emit-shard PATH`: solve this shard's slice of every
/// selected batch experiment and write the snapshots.
fn emit(
    profile: Profile,
    rt: RuntimeConfig,
    ids: &[String],
    shard: usize,
    shards: usize,
    path: &str,
    self_destruct: bool,
) {
    let runner = Runner::emit(rt, shard, shards);
    let mut fuse = self_destruct;
    for id in ids {
        if !BATCH_EXPERIMENTS.contains(&id.as_str()) {
            eprintln!("[{id} does not batch; it runs inline at merge time]");
            continue;
        }
        #[expect(
            clippy::disallowed_methods,
            reason = "stderr progress timing; stdout tables carry no timing column"
        )]
        let start = std::time::Instant::now();
        // A panicking solve is deterministic in its inputs — die with
        // the code that tells the coordinator not to bother retrying.
        let solved = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_experiment(id, profile, &runner)
        }));
        let table = solved.unwrap_or_else(|_| {
            eprintln!("tables: solve of {id} panicked");
            std::process::exit(exit::EXIT_SOLVE_PANIC);
        });
        assert!(table.is_empty(), "emit mode must not render");
        eprintln!(
            "[{id} shard {shard}/{shards} solved in {:.1?}]",
            start.elapsed()
        );
        if std::mem::take(&mut fuse) {
            // The fault drill: die after real work but before anything
            // reaches disk — no unwinding, no shard file, exactly like a
            // SIGKILL mid-sweep. The supervisor must salvage.
            eprintln!("[injected kill: aborting shard {shard}/{shards} after {id}]");
            std::process::abort();
        }
    }
    let reports = runner.into_emitted();
    let file = File::create(path).unwrap_or_else(|e| die(&e, &format!("create {path:?}")));
    write_shard_file(
        BufWriter::new(file),
        profile,
        &ids.join(","),
        shard,
        shards,
        &reports,
    )
    .unwrap_or_else(|e| die(&e, &format!("write {path:?}")));
    eprintln!(
        "[shard {shard}/{shards}: {} batch snapshots written to {path}]",
        reports.len()
    );
}

/// `--merge-shards PATHS..`: verify the shard files belong together,
/// merge their snapshots, and render every selected experiment.
fn merge(profile: Profile, rt: RuntimeConfig, ids: &[String], paths: &[String]) {
    let expected_ids = ids.join(",");
    let mut queues = Vec::new();
    let mut seen_shards = Vec::new();
    let mut split = None;
    for path in paths {
        let file = File::open(path).unwrap_or_else(|e| die(&e, &format!("open {path:?}")));
        let shard_file = read_shard_file(BufReader::new(file))
            .unwrap_or_else(|e| die(&e, &format!("read {path:?}")));
        assert!(
            shard_file.profile == profile,
            "{path}: emitted with a different profile"
        );
        assert!(
            shard_file.ids == expected_ids,
            "{path}: emitted with experiments [{}], merging [{expected_ids}]",
            shard_file.ids
        );
        let shards = *split.get_or_insert(shard_file.shards);
        assert!(
            shard_file.shards == shards,
            "{path}: a {}-shard file in a {shards}-shard merge",
            shard_file.shards
        );
        assert!(
            !seen_shards.contains(&shard_file.shard),
            "{path}: shard {} supplied twice",
            shard_file.shard
        );
        seen_shards.push(shard_file.shard);
        queues.push(shard_file.reports);
    }
    let shards = split.expect("at least one shard file");
    assert!(
        seen_shards.len() == shards,
        "merge needs all {shards} shards, got {:?}",
        seen_shards
    );
    let runner = Runner::merge(rt, queues);
    render(profile, ids, &runner);
    runner.assert_drained();
}

/// `--orchestrate N`: run the whole emit → supervise → merge protocol in
/// one invocation. Shard workers are this same binary in `--shard i/n
/// --emit-shard` mode, supervised by the `dapc-serve` process pool: a
/// worker that crashes (or is killed by the `--inject-kill` drill)
/// leaves no loadable shard file, so the judge re-spawns its shard;
/// deterministic deaths (corrupt input, a panicking solve) abort the run
/// instead of retrying into the same wall.
fn orchestrate(
    profile: Profile,
    rt: &RuntimeConfig,
    ids: &[String],
    workers: usize,
    inject_kill: bool,
    shard_dir: Option<PathBuf>,
) {
    assert!(workers > 0, "--orchestrate needs at least one worker");
    let dir = shard_dir.unwrap_or_else(|| {
        std::env::temp_dir().join(format!("tables-orchestrate-{}", std::process::id()))
    });
    std::fs::create_dir_all(&dir).unwrap_or_else(|e| die(&e, &format!("create {}", dir.display())));
    let exe = std::env::current_exe().unwrap_or_else(|e| die(&e, "locate the tables binary"));
    let profile_flag = match profile {
        Profile::Quick => "--quick",
        Profile::Full => "--full",
    };
    let shard_path = |i: usize| dir.join(format!("shard{i}.bin"));

    // The drill arms exactly one spawn: the first worker aborts mid-run,
    // every retry (and every other worker) runs clean.
    let mut armed = inject_kill;
    let supervisor = Supervisor {
        slots: workers,
        max_attempts: 3,
        timeout: None,
    };
    let stats = supervisor
        .run(
            (0..workers).collect(),
            |&i, attempt| {
                let mut cmd = Command::new(&exe);
                // A fresh chaos salt per (shard, attempt): a seeded
                // fault cannot replay itself against every retry, nor
                // fire in lockstep across sibling shard workers.
                cmd.env(
                    dapc_chaos::SALT_ENV,
                    (attempt as u64 * 0x1_0000 + i as u64).to_string(),
                );
                cmd.arg(profile_flag)
                    .arg("--jobs")
                    .arg(rt.jobs.to_string())
                    .arg("--prep-workers")
                    .arg(rt.prep_workers.to_string())
                    .arg("--shard")
                    .arg(format!("{i}/{workers}"))
                    .arg("--emit-shard")
                    .arg(shard_path(i))
                    .args(ids)
                    .stdout(Stdio::null())
                    .stderr(Stdio::inherit());
                if std::mem::take(&mut armed) {
                    cmd.arg("--self-destruct");
                }
                cmd.spawn()
            },
            |&i, exit_status| {
                // The shard file on disk is the ground truth of what the
                // attempt achieved, whatever the exit status claims.
                let loadable = File::open(shard_path(i))
                    .map(BufReader::new)
                    .and_then(read_shard_file)
                    .map(|f| f.shard == i && f.shards == workers)
                    .unwrap_or(false);
                if loadable {
                    return Ok(Verdict::Done);
                }
                // Torn or foreign: as if the worker never finished.
                std::fs::remove_file(shard_path(i)).ok();
                if !exit_status.timed_out
                    && exit_status.code != Some(exit::EXIT_OK)
                    && !exit::is_retryable(exit_status.code)
                {
                    return Ok(Verdict::Fatal(format!(
                        "shard {i}/{workers} failed deterministically (exit {:?})",
                        exit_status.code
                    )));
                }
                Ok(Verdict::Requeue {
                    tasks: vec![i],
                    progress: false,
                })
            },
        )
        .unwrap_or_else(|e| die(&e, "supervising shard workers"));
    eprintln!(
        "[orchestrated {workers} shard workers: {} spawns, {} retries, {} timeouts]",
        stats.spawns, stats.retries, stats.timeouts
    );
    let paths: Vec<String> = (0..workers)
        .map(|i| shard_path(i).to_string_lossy().into_owned())
        .collect();
    merge(profile, rt.clone(), ids, &paths);
}
