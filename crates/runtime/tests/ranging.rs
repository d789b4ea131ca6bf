//! Guarantees of the one distribution path, `solve_range` + `PartReport`:
//! any disjoint cover of a corpus by contiguous job ranges — a balanced
//! i-of-n split from `Corpus::shard_range`, or whatever uneven pieces
//! crash-driven reassignment carved — merges back to the unsharded
//! aggregation (timings aside); part snapshots round-trip byte for byte;
//! prep snapshots ship warm starts between cooperating processes; and
//! every loader rejects truncated or corrupt input with an `Err` — never
//! a panic, never a half-load.

use dapc_core::engine::{SolveConfig, SolveReport};
use dapc_graph::gen;
use dapc_ilp::problems;
use dapc_runtime::{
    solve_many, solve_range, BackendSummary, BatchAggregator, Corpus, GroupSummary, JobKey,
    PartReport, PrepCache, RuntimeConfig,
};
use proptest::prelude::*;
use std::ops::Range;

fn small_corpus(instances: usize, backends: &[&str], seeds: u64) -> Corpus {
    let pool = [
        (
            "MIS/cycle12",
            problems::max_independent_set_unweighted(&gen::cycle(12)),
        ),
        (
            "VC/cycle10",
            problems::min_vertex_cover_unweighted(&gen::cycle(10)),
        ),
        (
            "DS/cycle9",
            problems::min_dominating_set_unweighted(&gen::cycle(9)),
        ),
        (
            "MIS/gnp12",
            problems::max_independent_set_unweighted(&gen::gnp(12, 0.15, &mut gen::seeded_rng(1))),
        ),
    ];
    let mut b = Corpus::builder()
        .backends(backends.iter().copied())
        .eps(0.3)
        .seeds(0..seeds)
        .base_config(SolveConfig::new().ensemble_runs(2));
    for (name, ilp) in pool.into_iter().take(instances) {
        b = b.instance(name, ilp);
    }
    b.build()
}

fn sans_micros_groups(groups: &[GroupSummary]) -> Vec<GroupSummary> {
    groups
        .iter()
        .cloned()
        .map(|mut g| {
            g.micros = 0;
            g
        })
        .collect()
}

fn sans_micros_backends(backends: &[BackendSummary]) -> Vec<BackendSummary> {
    backends
        .iter()
        .cloned()
        .map(|mut b| {
            b.micros = 0;
            b
        })
        .collect()
}

/// Solves `range` with a fresh cache, discarding the per-job results.
fn part(corpus: &Corpus, range: Range<usize>, rt: &RuntimeConfig) -> PartReport {
    solve_range(corpus, range, rt, &PrepCache::new(), |_r| {})
}

/// [`part`] against a caller-owned cache.
fn part_with_cache(
    corpus: &Corpus,
    range: Range<usize>,
    rt: &RuntimeConfig,
    cache: &PrepCache,
) -> PartReport {
    solve_range(corpus, range, rt, cache, |_r| {})
}

fn saved(part: &PartReport) -> Vec<u8> {
    let mut bytes = Vec::new();
    part.save_to(&mut bytes).expect("write to a Vec");
    bytes
}

/// Carves `0..len` into contiguous pieces at pseudo-random cut points
/// derived from `salt`, deterministic per input.
fn carve(len: usize, pieces: usize, salt: u64) -> Vec<Range<usize>> {
    let mut cuts: Vec<usize> = (1..pieces)
        .map(|i| {
            let h = dapc_ilp::hash::fnv1a_u64(dapc_ilp::hash::FNV_OFFSET, salt ^ i as u64);
            (h as usize) % (len + 1)
        })
        .collect();
    cuts.push(0);
    cuts.push(len);
    cuts.sort_unstable();
    cuts.dedup();
    cuts.windows(2).map(|w| w[0]..w[1]).collect()
}

/// Solves every range of the balanced `shards`-way split
/// (`Corpus::shard_range`) and merges the parts in a configurable order
/// (rotated start, optionally reversed) — merge must be commutative, so
/// every order has to agree.
fn solve_split(
    corpus: &Corpus,
    shards: usize,
    rt: &RuntimeConfig,
    rotate: usize,
    reverse: bool,
) -> PartReport {
    let mut order: Vec<usize> = (0..shards).map(|i| (i + rotate) % shards).collect();
    if reverse {
        order.reverse();
    }
    let mut parts = order
        .into_iter()
        .map(|i| part(corpus, corpus.shard_range(i, shards), rt));
    let mut merged = parts.next().expect("at least one shard");
    for p in parts {
        merged.merge(p);
    }
    merged
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Over random corpora, splitting into 1–4 balanced shards, solving
    /// each shard's range independently and merging the parts (in a
    /// random order) equals the unsharded `BatchReport` aggregation,
    /// modulo timings.
    #[test]
    fn shard_merge_equals_unsharded_batch_on_random_partitions(
        instances in 1usize..=4,
        backend_mask in 1usize..8,
        seeds in 1u64..4,
        shards in 1usize..=4,
        jobs in 1usize..4,
        rotate in 0usize..4,
        reverse in 0usize..2,
    ) {
        let reverse = reverse == 1;
        let all = ["three-phase", "greedy", "bnb"];
        let backends: Vec<&str> = all
            .iter()
            .enumerate()
            .filter(|(i, _)| backend_mask >> i & 1 == 1)
            .map(|(_, b)| *b)
            .collect();
        let corpus = small_corpus(instances, &backends, seeds);
        let rt = RuntimeConfig::new().jobs(jobs);
        let reference = solve_many(&corpus, &rt);
        let merged = solve_split(&corpus, shards, &rt, rotate % shards, reverse);
        prop_assert_eq!(merged.jobs, corpus.len());
        // The audited reorder-buffer bound holds inside every shard too.
        prop_assert!(merged.peak_buffered <= (2 * jobs).max(16));
        let stream = merged.finish();
        prop_assert_eq!(stream.jobs, reference.results.len());
        prop_assert_eq!(
            sans_micros_groups(&reference.groups),
            sans_micros_groups(&stream.groups)
        );
        prop_assert_eq!(
            sans_micros_backends(&reference.backends),
            sans_micros_backends(&stream.backends)
        );
    }

    /// The orchestrator's core property: an *uneven* disjoint cover of
    /// the corpus by contiguous ranges — the shape crashes and
    /// reassignment produce — solved independently and merged in a
    /// rotated order equals the unsharded batch, modulo timings.
    #[test]
    fn uneven_range_covers_merge_to_the_unsharded_batch(
        instances in 1usize..=3,
        seeds in 1u64..4,
        pieces in 1usize..=5,
        salt in 0u64..1000,
        rotate in 0usize..5,
        jobs in 1usize..3,
    ) {
        let corpus = small_corpus(instances, &["greedy", "three-phase"], seeds);
        let rt = RuntimeConfig::new().jobs(jobs);
        let reference = solve_many(&corpus, &rt);
        let ranges = carve(corpus.len(), pieces, salt);
        let n = ranges.len();
        let mut parts = (0..n).map(|i| part(&corpus, ranges[(i + rotate) % n].clone(), &rt));
        let mut merged = parts.next().expect("at least one range");
        for p in parts {
            merged.merge(p);
        }
        prop_assert_eq!(merged.jobs, corpus.len());
        prop_assert_eq!(merged.covered(), vec![0..corpus.len()]);
        let stream = merged.finish();
        prop_assert_eq!(
            sans_micros_groups(&reference.groups),
            sans_micros_groups(&stream.groups)
        );
        prop_assert_eq!(
            sans_micros_backends(&reference.backends),
            sans_micros_backends(&stream.backends)
        );
    }
}

/// More shards than jobs: the surplus shard ranges are empty, solve
/// cleanly, and merge as no-ops.
#[test]
fn empty_shards_solve_and_merge_cleanly() {
    let corpus = small_corpus(1, &["greedy"], 2); // 2 jobs
    let shards = 4;
    let empty_shard = (0..shards)
        .find(|&i| corpus.shard_range(i, shards).is_empty())
        .expect("4 shards of 2 jobs leave empty shards");
    let empty = part(
        &corpus,
        corpus.shard_range(empty_shard, shards),
        &RuntimeConfig::new(),
    );
    assert_eq!(empty.jobs, 0);
    assert_eq!(empty.aggregator.jobs(), 0);
    let merged = solve_split(&corpus, shards, &RuntimeConfig::new(), 0, false);
    let reference = solve_many(&corpus, &RuntimeConfig::new());
    assert_eq!(
        sans_micros_groups(&reference.groups),
        sans_micros_groups(&merged.finish().groups)
    );
}

/// The finest split: one job per shard still recombines exactly — every
/// cell is reassembled purely from single-job fragments.
#[test]
fn single_job_shards_recombine_exactly() {
    let corpus = small_corpus(2, &["greedy", "bnb"], 2);
    let shards = corpus.len();
    let reference = solve_many(&corpus, &RuntimeConfig::new());
    let merged = solve_split(&corpus, shards, &RuntimeConfig::new(), 3, true);
    let stream = merged.finish();
    assert_eq!(
        sans_micros_groups(&reference.groups),
        sans_micros_groups(&stream.groups)
    );
    assert_eq!(
        sans_micros_backends(&reference.backends),
        sans_micros_backends(&stream.backends)
    );
}

/// An interrupted range (solved only up to a checkpoint) plus the
/// reassigned remainder reproduce the whole — the salvage path after a
/// worker kill.
#[test]
fn checkpoint_prefix_plus_reassigned_remainder_reproduce_the_whole() {
    let corpus = small_corpus(2, &["greedy", "bnb"], 2); // 8 jobs
    let rt = RuntimeConfig::new();
    let reference = solve_many(&corpus, &rt);
    // Worker owned 0..6, died after checkpointing 0..4.
    let salvaged = part(&corpus, 0..4, &rt);
    assert_eq!(salvaged.covered(), vec![0..4]);
    // The coordinator reassigns 4..6 and 6..8 to other workers.
    let mut merged = part(&corpus, 6..8, &rt);
    assert_eq!(merged.covered(), vec![6..8]);
    merged.merge(salvaged);
    assert_eq!(merged.covered(), vec![0..4, 6..8], "gap still open");
    merged.merge(part(&corpus, 4..6, &rt));
    let stream = merged.finish();
    assert_eq!(
        sans_micros_groups(&reference.groups),
        sans_micros_groups(&stream.groups)
    );
}

/// Snapshots are canonical: save → load → save reproduces the identical
/// byte stream, for both the aggregator and the full part report.
#[test]
fn part_snapshots_round_trip_byte_for_byte() {
    let corpus = small_corpus(2, &["three-phase"], 2);
    let part = part(&corpus, 1..3, &RuntimeConfig::new());
    let bytes = saved(&part);
    let loaded = PartReport::load_from(bytes.as_slice()).expect("read back");
    assert_eq!(loaded.corpus_jobs, part.corpus_jobs);
    assert_eq!(loaded.start, part.start);
    assert_eq!(loaded.jobs, part.jobs);
    assert_eq!(loaded.cache, part.cache);
    assert_eq!(loaded.covered(), part.covered());
    // Wall time is persisted at microsecond precision.
    assert_eq!(loaded.wall.as_micros(), part.wall.as_micros());
    assert_eq!(bytes, saved(&loaded), "snapshot is not canonical");

    let mut agg_bytes = Vec::new();
    part.aggregator.save_to(&mut agg_bytes).expect("to Vec");
    let agg = BatchAggregator::load_from(agg_bytes.as_slice()).expect("read back");
    assert_eq!(agg.jobs(), part.aggregator.jobs());
    let mut agg_reserialised = Vec::new();
    agg.save_to(&mut agg_reserialised).expect("to Vec");
    assert_eq!(agg_bytes, agg_reserialised);
}

/// The shipped protocol through bytes: ranges serialised, re-loaded,
/// merged and finished equal the single-process aggregation.
#[test]
fn merged_part_snapshots_equal_single_process_aggregation() {
    let corpus = small_corpus(2, &["greedy", "bnb"], 2); // 8 jobs
    let rt = RuntimeConfig::new().jobs(2);
    let reference = solve_many(&corpus, &rt);
    let shipped: Vec<Vec<u8>> = [0..3, 3..4, 4..8]
        .into_iter()
        .map(|range| saved(&part(&corpus, range, &rt)))
        .collect();
    let mut merged = PartReport::load_from(shipped[2].as_slice()).expect("part 2");
    merged.merge(PartReport::load_from(shipped[0].as_slice()).expect("part 0"));
    merged.merge(PartReport::load_from(shipped[1].as_slice()).expect("part 1"));
    let stream = merged.finish();
    assert_eq!(
        sans_micros_groups(&reference.groups),
        sans_micros_groups(&stream.groups)
    );
    assert_eq!(
        sans_micros_backends(&reference.backends),
        sans_micros_backends(&stream.backends)
    );
}

/// Canonical bytes across histories: an aggregator that pushed a whole
/// run and one merged from shard fragments of the *same* results (split
/// mid-cell, so boundary fragments must coalesce) serialise to
/// identical snapshots.
#[test]
fn merged_and_pushed_aggregators_serialise_identically() {
    let corpus = small_corpus(2, &["greedy"], 2); // 4 jobs, 2 cells
    let rt = RuntimeConfig::new().reference_optima(false);
    let results = solve_many(&corpus, &rt).results;

    let mut whole = BatchAggregator::new();
    for r in &results {
        whole.push(r);
    }
    // Split at index 1 — inside the first cell's seed run.
    let mut left = BatchAggregator::new();
    left.push(&results[0]);
    let mut right = BatchAggregator::with_optima_at(std::collections::BTreeMap::new(), 1);
    for r in &results[1..] {
        right.push(r);
    }
    let mut merged = right;
    merged.merge(left);

    let bytes = |a: &BatchAggregator| {
        let mut v = Vec::new();
        a.save_to(&mut v).expect("write to a Vec");
        v
    };
    assert_eq!(
        bytes(&whole),
        bytes(&merged),
        "the same aggregation must serialise identically, whatever its history"
    );
}

/// A checkpoint of a still-empty shard aggregator keeps its canonical
/// start offset: resumed pushes land at the right indices, so the merge
/// with the other shard neither overlaps nor gaps.
#[test]
fn empty_shard_checkpoint_resumes_at_its_offset() {
    let corpus = small_corpus(2, &["greedy"], 2); // 4 jobs
    let rt = RuntimeConfig::new().reference_optima(false);
    let batch = solve_many(&corpus, &rt);

    let fresh = BatchAggregator::with_optima_at(std::collections::BTreeMap::new(), 2);
    let mut bytes = Vec::new();
    fresh.save_to(&mut bytes).expect("write to a Vec");
    let mut resumed = BatchAggregator::load_from(bytes.as_slice()).expect("read back");
    assert_eq!(resumed.jobs(), 0);
    for r in &batch.results[2..] {
        resumed.push(r);
    }
    let mut shard0 = BatchAggregator::new();
    for r in &batch.results[..2] {
        shard0.push(r);
    }
    resumed.merge(shard0); // start 0 after a lost offset would overlap here
    let (groups, _) = resumed.finish();
    assert_eq!(groups, batch.groups);
}

/// Warm-start shipping between cooperating shards: shard 0's prep
/// snapshot (`PrepCache::save_to`) seeds shard 1's cache
/// (`PrepCache::load_into`), flipping cold misses into hits without
/// moving a single aggregate.
#[test]
fn prep_snapshot_ships_warm_start_between_shards() {
    // One instance family swept over seeds: both shards share all their
    // subset solves, the best case for shipping prep work.
    let corpus = Corpus::builder()
        .instance(
            "MIS/cycle12",
            problems::max_independent_set_unweighted(&gen::cycle(12)),
        )
        .backend("three-phase")
        .eps(0.3)
        .seeds(0..6)
        .build();
    let rt = RuntimeConfig::new();
    let reference = solve_many(&corpus, &rt);

    let cold_cache = PrepCache::new();
    let first = part_with_cache(&corpus, corpus.shard_range(0, 2), &rt, &cold_cache);
    assert!(first.cache.misses > 0, "cold shard must solve something");
    let mut snapshot = Vec::new();
    cold_cache.save_to(&mut snapshot).expect("write to a Vec");

    // A cold control run of shard 1, for the counter comparison.
    let control = part(&corpus, corpus.shard_range(1, 2), &rt);

    let warm_cache = PrepCache::new();
    let seeded = warm_cache
        .load_into(snapshot.as_slice())
        .expect("load the snapshot");
    assert!(seeded > 0, "shard 0 shipped a non-empty memo");
    let second = part_with_cache(&corpus, corpus.shard_range(1, 2), &rt, &warm_cache);
    assert!(
        second.cache.misses < control.cache.misses,
        "warm start must save exact solves ({} vs {})",
        second.cache.misses,
        control.cache.misses
    );

    let mut merged = first;
    merged.merge(second);
    assert_eq!(
        sans_micros_groups(&reference.groups),
        sans_micros_groups(&merged.finish().groups),
        "warm start moved an aggregate"
    );
}

/// A snapshot of an empty cache warms nothing and is not an error.
#[test]
fn empty_prep_snapshot_warms_nothing() {
    let mut snapshot = Vec::new();
    PrepCache::new()
        .save_to(&mut snapshot)
        .expect("write to a Vec");
    let cache = PrepCache::new();
    assert_eq!(cache.load_into(snapshot.as_slice()).expect("no-op"), 0);
    assert_eq!(cache.stats().entries, 0);
}

/// Snapshots of one solved shard: the part report, its aggregator, and
/// the prep cache it filled.
fn shard_snapshots() -> [(&'static str, Vec<u8>); 3] {
    let corpus = small_corpus(2, &["three-phase"], 2);
    let cache = PrepCache::new();
    let part = part_with_cache(
        &corpus,
        corpus.shard_range(0, 2),
        &RuntimeConfig::new(),
        &cache,
    );
    let mut aggregator = Vec::new();
    part.aggregator.save_to(&mut aggregator).expect("to Vec");
    let mut prep = Vec::new();
    cache.save_to(&mut prep).expect("to Vec");
    [
        ("part", saved(&part)),
        ("aggregator", aggregator),
        ("prep cache", prep),
    ]
}

/// Runs the loader of the format named `what` over `bytes`.
fn load(what: &str, bytes: &[u8]) -> std::io::Result<()> {
    match what {
        "part" => PartReport::load_from(bytes).map(drop),
        "aggregator" => BatchAggregator::load_from(bytes).map(drop),
        "prep cache" => PrepCache::new().load_into(bytes).map(drop),
        _ => unreachable!("unknown format {what}"),
    }
}

/// Loader hardening, exhaustively: truncating any snapshot format at
/// *any* byte — which covers every field boundary — is an `Err`, never a
/// panic. (Every field of every format is mandatory, so no strict prefix
/// is a valid stream.)
#[test]
fn truncated_snapshots_error_at_every_byte() {
    for (what, bytes) in shard_snapshots() {
        assert!(load(what, &bytes).is_ok(), "{what}: intact bytes load");
        for cut in 0..bytes.len() {
            assert!(
                load(what, &bytes[..cut]).is_err(),
                "{what} prefix of {cut} bytes must not load"
            );
        }
    }
}

/// Wrong-version headers fail with a version-specific `InvalidData` (not
/// a generic bad-magic error, and certainly not a silent
/// misinterpretation), for every runtime snapshot format.
#[test]
fn wrong_version_headers_are_rejected() {
    for (what, mut bytes) in shard_snapshots() {
        bytes[7] = 0x7f; // the version byte of every runtime format
        let err = load(what, &bytes).expect_err("future version must fail");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{what}");
        assert!(err.to_string().contains("version"), "{what}: {err}");
    }
}

/// The self-delimiting formats reject appended garbage (e.g. a botched
/// transfer or concatenated files) as `InvalidData`, not a silent
/// partial load. (The aggregator is only ever read as a length-prefixed
/// block of a part, whose loader rejects trailing bytes inside the
/// block.)
#[test]
fn trailing_bytes_are_rejected_by_every_loader() {
    for (what, mut bytes) in shard_snapshots() {
        if what == "aggregator" {
            continue;
        }
        bytes.push(0xAA);
        let err = load(what, &bytes).expect_err("must reject");
        assert!(err.to_string().contains("trailing"), "{what}: {err}");
    }
    // Nothing may half-load from a rejected prep snapshot.
    let [_, _, (_, mut prep)] = shard_snapshots();
    prep.push(0xAA);
    let target = PrepCache::new();
    assert!(target.load_into(prep.as_slice()).is_err());
    assert_eq!(target.stats().entries, 0, "nothing may half-load");
}

/// A corrupt prep-cache snapshot must not half-warm the cache: the first
/// family is well-formed, the stream dies inside the second, and nothing
/// may be loaded.
#[test]
fn corrupt_prep_snapshot_never_half_loads() {
    let corpus = small_corpus(2, &["three-phase"], 1);
    let cache = PrepCache::new();
    let _ = part_with_cache(&corpus, 0..corpus.len(), &RuntimeConfig::new(), &cache);
    assert!(cache.stats().families >= 2, "need two families to corrupt");
    let mut bytes = Vec::new();
    cache.save_to(&mut bytes).expect("write to a Vec");
    let truncated = &bytes[..bytes.len() - 3];
    let target = PrepCache::new();
    assert!(target.load_into(truncated).is_err());
    assert_eq!(
        target.stats().entries,
        0,
        "a failed load half-warmed the cache"
    );
    // The intact snapshot loads in full.
    assert!(target.load_into(bytes.as_slice()).expect("intact") > 0);
    assert_eq!(target.stats().entries, cache.stats().entries);
}

/// A header whose job count disagrees with the embedded aggregator is
/// corruption, not a trusted field.
#[test]
fn inconsistent_part_header_is_rejected() {
    let corpus = small_corpus(1, &["greedy"], 2);
    let mut bytes = saved(&part(&corpus, 0..2, &RuntimeConfig::new()));
    // The jobs field is the third u64 after the 8-byte magic.
    bytes[8 + 16..8 + 24].copy_from_slice(&1u64.to_le_bytes());
    let err = PartReport::load_from(bytes.as_slice()).expect_err("must reject");
    assert!(err.to_string().contains("aggregator folded"), "{err}");
}

/// The hook sees every job of the range exactly once, in canonical
/// order, with the same `(key, report)` the whole sweep produces.
#[test]
fn range_hook_streams_the_range_in_canonical_order() {
    let corpus = small_corpus(2, &["greedy", "bnb"], 2); // 8 jobs
    let rt = RuntimeConfig::new().jobs(2);
    let reference = solve_many(&corpus, &rt);
    let sink = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
    let hook = std::sync::Arc::clone(&sink);
    let part = solve_range(&corpus, 3..7, &rt, &PrepCache::new(), move |r| {
        hook.lock().expect("sink").push(r);
    });
    assert_eq!(part.covered(), vec![3..7]);
    let streamed = sink.lock().expect("sink");
    let got: Vec<(&JobKey, &SolveReport)> = streamed.iter().map(|r| (&r.key, &r.report)).collect();
    assert_eq!(got, reference.outcomes()[3..7].to_vec());
}

/// Merging overlapping ranges is caught by the aggregator's span guard.
#[test]
#[should_panic(expected = "overlap")]
fn merging_overlapping_ranges_panics() {
    let corpus = small_corpus(1, &["greedy"], 4);
    let rt = RuntimeConfig::new();
    let mut merged = part(&corpus, 0..3, &rt);
    merged.merge(part(&corpus, 2..4, &rt));
}

/// Merging the same shard range twice is caught by the overlap guard.
#[test]
#[should_panic(expected = "overlap")]
fn merging_the_same_shard_twice_panics() {
    let corpus = small_corpus(1, &["greedy"], 2);
    let rt = RuntimeConfig::new();
    let mut merged = part(&corpus, corpus.shard_range(0, 2), &rt);
    merged.merge(part(&corpus, corpus.shard_range(0, 2), &rt));
}

/// Finishing with a job range still owed panics instead of rendering a
/// silently partial table.
#[test]
#[should_panic(expected = "a range is missing")]
fn finishing_with_a_missing_range_panics() {
    let corpus = small_corpus(1, &["greedy"], 4);
    let rt = RuntimeConfig::new();
    let mut merged = part(&corpus, 0..1, &rt);
    merged.merge(part(&corpus, 2..4, &rt));
    let _ = merged.finish();
}

/// Ranges beyond the corpus are a caller bug, caught loudly.
#[test]
#[should_panic(expected = "beyond")]
fn out_of_bounds_range_panics() {
    let corpus = small_corpus(1, &["greedy"], 2);
    let _ = corpus.range_jobs(0..corpus.len() + 1);
}
