//! The shard-mode `Runner` protocol, in-process: emitting two shards,
//! shipping them through the shard-file byte format, and merging must
//! reproduce the single-process aggregation bit for bit (timings aside)
//! — the same protocol CI exercises across real processes via
//! `tables --shard i/n --emit-shard` / `--merge-shards`.

use dapc_bench::shard::{read_shard_file, write_shard_file, Runner};
use dapc_bench::Profile;
use dapc_graph::gen;
use dapc_ilp::problems;
use dapc_runtime::{Corpus, GroupSummary, PrepCache, RuntimeConfig};

/// The two corpora of a miniature "experiment" — every shard process
/// must issue the same solve calls in the same order.
fn corpora() -> [Corpus; 2] {
    [
        Corpus::builder()
            .instance(
                "MIS/cycle12",
                problems::max_independent_set_unweighted(&gen::cycle(12)),
            )
            .instance(
                "VC/cycle10",
                problems::min_vertex_cover_unweighted(&gen::cycle(10)),
            )
            .backend("three-phase")
            .backend("greedy")
            .eps(0.3)
            .seeds(0..3)
            .build(),
        Corpus::builder()
            .instance(
                "DS/cycle9",
                problems::min_dominating_set_unweighted(&gen::cycle(9)),
            )
            .backend("bnb")
            .eps(0.2)
            .seeds(0..2)
            .build(),
    ]
}

fn sans_micros(groups: &[GroupSummary]) -> Vec<GroupSummary> {
    groups
        .iter()
        .cloned()
        .map(|mut g| {
            g.micros = 0;
            g
        })
        .collect()
}

#[test]
fn emit_ship_merge_equals_single_process() {
    let rt = RuntimeConfig::new().jobs(2);

    // The reference: one process, the Single runner.
    let single = Runner::single(rt.clone());
    assert!(single.rendering());
    let reference: Vec<_> = corpora()
        .iter()
        .map(|c| single.solve(c).expect("single mode returns reports"))
        .collect();

    // Two cooperating "processes" emit their shard files (through the
    // real byte format, as CI does across actual processes).
    let mut files = Vec::new();
    for shard in 0..2 {
        let runner = Runner::emit(rt.clone(), shard, 2);
        assert!(!runner.rendering());
        for corpus in &corpora() {
            assert!(runner.solve(corpus).is_none(), "emit mode must not render");
        }
        let mut bytes = Vec::new();
        write_shard_file(
            &mut bytes,
            Profile::Quick,
            "mini",
            shard,
            2,
            &runner.into_emitted(),
        )
        .expect("write to a Vec");
        files.push(bytes);
    }

    // The merging invocation: verify headers, merge, compare.
    let mut queues = Vec::new();
    for (shard, bytes) in files.iter().enumerate() {
        let file = read_shard_file(bytes.as_slice()).expect("read back");
        assert_eq!(file.profile, Profile::Quick);
        assert_eq!(file.ids, "mini");
        assert_eq!((file.shard, file.shards), (shard, 2));
        assert_eq!(file.reports.len(), corpora().len());
        // Every recorded part covers exactly this shard's range.
        for (part, corpus) in file.reports.iter().zip(&corpora()) {
            assert_eq!(part.corpus_jobs, corpus.len());
            let range = corpus.shard_range(shard, 2);
            let want = if range.is_empty() {
                vec![]
            } else {
                vec![range]
            };
            assert_eq!(part.covered(), want);
        }
        queues.push(file.reports);
    }
    let merged_runner = Runner::merge(rt, queues);
    assert!(merged_runner.rendering());
    for (corpus, reference) in corpora().iter().zip(&reference) {
        let merged = merged_runner
            .solve(corpus)
            .expect("merge mode returns reports");
        assert_eq!(merged.jobs, reference.jobs);
        assert_eq!(
            sans_micros(&merged.groups),
            sans_micros(&reference.groups),
            "merged aggregation diverged from the single process"
        );
    }
    merged_runner.assert_drained();
}

#[test]
fn emit_mode_supports_warm_caches_across_corpora() {
    // E10's pattern: several corpora of one family share a cache; the
    // emit path must accept it exactly like the single path.
    let rt = RuntimeConfig::new();
    let cache = PrepCache::new();
    let runner = Runner::emit(rt, 0, 2);
    for corpus in &corpora() {
        assert!(runner.solve_with_cache(corpus, &cache).is_none());
    }
    assert_eq!(runner.into_emitted().len(), 2);
    assert!(cache.stats().misses > 0, "the shard populated the cache");
}

#[test]
#[should_panic(expected = "ran out of reports")]
fn merging_short_shard_files_is_caught() {
    let rt = RuntimeConfig::new();
    let runner = Runner::emit(rt.clone(), 0, 1);
    let [first, _] = corpora();
    runner.solve(&first); // only one of the two expected calls
    let merged = Runner::merge(rt, vec![runner.into_emitted()]);
    let [a, b] = corpora();
    let _ = merged.solve(&a);
    let _ = merged.solve(&b); // the file has nothing left
}

#[test]
#[should_panic(expected = "different corpus")]
fn merging_misaligned_corpora_is_caught() {
    let rt = RuntimeConfig::new();
    let runner = Runner::emit(rt.clone(), 0, 1);
    let [first, second] = corpora();
    runner.solve(&first);
    let merged = Runner::merge(rt, vec![runner.into_emitted()]);
    let _ = merged.solve(&second); // recorded for `first`
}

#[test]
fn truncated_shard_files_error_cleanly() {
    let rt = RuntimeConfig::new();
    let runner = Runner::emit(rt, 0, 1);
    let [first, _] = corpora();
    runner.solve(&first);
    let mut bytes = Vec::new();
    write_shard_file(
        &mut bytes,
        Profile::Full,
        "e3",
        0,
        1,
        &runner.into_emitted(),
    )
    .expect("write to a Vec");
    for cut in 0..bytes.len() {
        assert!(
            read_shard_file(&bytes[..cut]).is_err(),
            "prefix of {cut} bytes must not load"
        );
    }
    assert!(read_shard_file(bytes.as_slice()).is_ok());
    // Appended garbage (e.g. concatenated shard files) is corruption too.
    let mut appended = bytes.clone();
    appended.push(0xAA);
    let err = read_shard_file(appended.as_slice()).expect_err("must reject trailing bytes");
    assert!(err.to_string().contains("trailing"), "{err}");
}
