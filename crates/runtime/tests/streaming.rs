//! Guarantees of the streaming pipeline and the shared executor:
//! canonical in-order delivery, aggregate parity with the in-memory
//! [`BatchReport`], byte-identity under oversubscribed
//! `jobs × prep_workers` combinations on a pinned-size pool, and
//! warm-start persistence that moves counters but never a report.

use dapc_core::engine::SolveConfig;
use dapc_exec::{with_executor, Executor};
use dapc_graph::gen;
use dapc_ilp::problems;
use dapc_runtime::{
    solve_many, solve_many_streaming_with_cache, BackendSummary, BatchAggregator, Corpus,
    GroupSummary, JobResult, PrepCache, RuntimeConfig,
};
use proptest::prelude::*;
use std::sync::{Arc, Mutex};

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
            "MIS/gnp12",
            problems::max_independent_set_unweighted(&gen::gnp(12, 0.15, &mut gen::seeded_rng(1))),
        ),
        (
            "DS/cycle9",
            problems::min_dominating_set_unweighted(&gen::cycle(9)),
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

fn collect_streaming_with_cache(
    corpus: &Corpus,
    rt: &RuntimeConfig,
    cache: &PrepCache,
) -> (Vec<JobResult>, dapc_runtime::StreamReport) {
    let sink: Arc<Mutex<Vec<JobResult>>> = Arc::default();
    let hook_sink = Arc::clone(&sink);
    let stream = solve_many_streaming_with_cache(corpus, rt, cache, move |r| {
        hook_sink.lock().expect("sink").push(r);
    });
    let results = Arc::try_unwrap(sink)
        .expect("hook dropped")
        .into_inner()
        .expect("sink");
    (results, stream)
}

fn collect_streaming(
    corpus: &Corpus,
    rt: &RuntimeConfig,
) -> (Vec<JobResult>, dapc_runtime::StreamReport) {
    collect_streaming_with_cache(corpus, rt, &PrepCache::new())
}

fn outcomes(
    results: &[JobResult],
) -> Vec<(&dapc_runtime::JobKey, &dapc_core::engine::SolveReport)> {
    results.iter().map(|r| (&r.key, &r.report)).collect()
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

/// The ISSUE acceptance case: `jobs × prep_workers = 4 × 4` on a pool of
/// only 2 workers must neither deadlock nor move a byte relative to fully
/// sequential execution.
#[test]
fn oversubscription_on_a_two_worker_pool_is_byte_identical() {
    let corpus = small_corpus(3, &["three-phase", "bnb"], 2);
    let reference = solve_many(&corpus, &RuntimeConfig::new());
    let pinned = Executor::new(2);
    let oversubscribed = with_executor(&pinned, || {
        solve_many(&corpus, &RuntimeConfig::new().jobs(4).prep_workers(4))
    });
    assert_eq!(reference.outcomes(), oversubscribed.outcomes());
    assert_eq!(
        sans_micros_groups(&reference.groups),
        sans_micros_groups(&oversubscribed.groups)
    );
}

/// The degenerate pool: every task of an 8 × 4 fan-out funnels through a
/// single worker (plus inline help) and still terminates byte-identically.
#[test]
fn oversubscription_on_a_single_worker_pool_terminates() {
    let corpus = small_corpus(2, &["three-phase"], 3);
    let reference = solve_many(&corpus, &RuntimeConfig::new());
    let pinned = Executor::new(1);
    let run = with_executor(&pinned, || {
        solve_many(&corpus, &RuntimeConfig::new().jobs(8).prep_workers(4))
    });
    assert_eq!(reference.outcomes(), run.outcomes());
}

/// The hook observes every job exactly once, in canonical corpus order,
/// and the reorder buffer honours its documented bound: `peak_buffered`
/// may *reach* `max(2·pumps, 16)` (the admission check parks a result
/// only while the buffer is strictly below capacity, so the bound is
/// inclusive) but never exceed it. This assertion pins the audited
/// off-by-one contract.
#[test]
fn streaming_delivery_is_canonical_and_bounded() {
    let corpus = small_corpus(3, &["greedy", "bnb"], 3);
    let expected: Vec<String> = corpus.jobs().iter().map(|j| j.key.to_string()).collect();
    for jobs in [1usize, 2, 4, 16] {
        let (results, stream) = collect_streaming(&corpus, &RuntimeConfig::new().jobs(jobs));
        let seen: Vec<String> = results.iter().map(|r| r.key.to_string()).collect();
        assert_eq!(seen, expected, "delivery order broke at {jobs} jobs");
        assert_eq!(stream.jobs, expected.len());
        let capacity = (2 * jobs.min(expected.len())).max(16);
        assert!(
            stream.peak_buffered <= capacity,
            "{} parked results exceed the bound {capacity}",
            stream.peak_buffered
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Streaming and collecting are the same computation: identical
    /// per-job outcomes and identical aggregates (timings aside) on
    /// random corpora at random worker counts.
    #[test]
    fn streaming_aggregates_match_batch_report_on_random_corpora(
        instances in 1usize..=4,
        backend_mask in 1usize..8,
        seeds in 1u64..4,
        jobs in 1usize..6,
        prep_workers in 1usize..4,
    ) {
        let all = ["three-phase", "greedy", "bnb"];
        let backends: Vec<&str> = all
            .iter()
            .enumerate()
            .filter(|(i, _)| backend_mask >> i & 1 == 1)
            .map(|(_, b)| *b)
            .collect();
        let corpus = small_corpus(instances, &backends, seeds);
        let rt = RuntimeConfig::new().jobs(jobs).prep_workers(prep_workers);
        let batch = solve_many(&corpus, &rt);
        let (results, stream) = collect_streaming(&corpus, &rt);
        prop_assert_eq!(batch.results.len(), results.len());
        for (a, b) in batch.results.iter().zip(&results) {
            prop_assert_eq!(&a.key, &b.key);
            prop_assert_eq!(&a.report, &b.report);
        }
        prop_assert_eq!(
            sans_micros_groups(&batch.groups),
            sans_micros_groups(&stream.groups)
        );
        prop_assert_eq!(
            sans_micros_backends(&batch.backends),
            sans_micros_backends(&stream.backends)
        );
    }
}

/// The aggregator's canonical-order guard: re-opening a closed cell (the
/// telltale of out-of-order delivery) panics instead of corrupting the
/// summaries.
#[test]
#[should_panic(expected = "out of canonical order")]
fn aggregator_rejects_out_of_order_delivery() {
    let corpus = small_corpus(2, &["greedy"], 1);
    let (results, _) = collect_streaming(&corpus, &RuntimeConfig::new());
    assert_eq!(results.len(), 2, "two groups with one job each");
    let mut agg = BatchAggregator::new();
    agg.push(&results[0]);
    agg.push(&results[1]);
    agg.push(&results[0]); // re-opens the first cell
}

/// Warm-start persistence at the batch level: a snapshot saved from a
/// cold batch and loaded into a fresh cache turns every miss into a hit
/// without moving a report byte.
#[test]
fn warm_started_batch_changes_counters_never_reports() {
    let corpus = small_corpus(1, &["three-phase"], 3);
    let ilp = problems::max_independent_set_unweighted(&gen::cycle(12));
    let budget = SolveConfig::new().budget;

    let cold = PrepCache::new();
    let (first, _) = collect_streaming_with_cache(&corpus, &RuntimeConfig::new(), &cold);
    let cold_stats = cold.stats();
    assert!(cold_stats.misses > 0, "cold batch must solve something");

    let mut snapshot = Vec::new();
    cold.save_family(&ilp, &budget, &mut snapshot)
        .expect("write to a Vec");

    let warm = PrepCache::new();
    let loaded = warm
        .warm_family(&ilp, &budget, snapshot.as_slice())
        .expect("read back");
    assert_eq!(loaded, cold_stats.entries, "snapshot holds the whole memo");
    assert_eq!(warm.stats().hits, 0, "loading counts nothing");

    let (second, _) = collect_streaming_with_cache(&corpus, &RuntimeConfig::new(), &warm);
    assert_eq!(
        outcomes(&first),
        outcomes(&second),
        "warm start moved a report"
    );
    let warm_stats = warm.stats();
    assert_eq!(warm_stats.misses, 0, "every lookup is answered warm");
    assert!(warm_stats.hits > 0);
    assert_ne!(
        (warm_stats.hits, warm_stats.misses),
        (cold_stats.hits, cold_stats.misses),
        "the warm start must be visible in the counters"
    );
}

/// A job that dies mid-batch fails the whole call with the original
/// panic — after every in-flight job winds down — rather than hanging
/// the reorder pipeline or being silently dropped.
#[test]
fn panicking_jobs_fail_the_batch_with_the_original_panic() {
    // `SolveConfig::n_tilde()` guards its range, but the field is public:
    // a size hint of 0.5 makes every three-phase parametrisation assert —
    // a stand-in for any backend panicking mid-sweep.
    let mut base = SolveConfig::new();
    base.n_tilde = Some(0.5);
    let corpus = Corpus::builder()
        .instance(
            "MIS/cycle12",
            problems::max_independent_set_unweighted(&gen::cycle(12)),
        )
        .backend("three-phase")
        .backend("bnb")
        .eps(0.3)
        .seeds(0..10)
        .base_config(base)
        .build();
    let outcome = std::panic::catch_unwind(|| {
        solve_many(
            &corpus,
            &RuntimeConfig::new().jobs(4).reference_optima(false),
        )
    });
    let payload = outcome.expect_err("the job panic must surface");
    let message = payload
        .downcast_ref::<&str>()
        .copied()
        .map(str::to_owned)
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_default();
    assert!(
        message.contains("n_tilde"),
        "expected the original assertion, got {message:?}"
    );
}

/// Streaming composes with a warm caller-owned cache exactly like the
/// collecting path.
#[test]
fn streaming_with_cache_stays_warm_across_batches() {
    let corpus = small_corpus(2, &["three-phase"], 2);
    let cache = PrepCache::new();
    let rt = RuntimeConfig::new().jobs(2);
    let (first, _) = collect_streaming_with_cache(&corpus, &rt, &cache);
    let after_first = cache.stats();
    let (second, _) = collect_streaming_with_cache(&corpus, &rt, &cache);
    let after_second = cache.stats();
    for (a, b) in first.iter().zip(&second) {
        assert_eq!(a.key, b.key);
        assert_eq!(a.report, b.report);
    }
    assert!(
        after_second.hits > after_first.hits,
        "warm replay earns hits"
    );
    assert_eq!(
        after_second.misses, after_first.misses,
        "an identical batch adds no new subset solves"
    );
}
