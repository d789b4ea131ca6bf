//! Wall-clock benches for the `dapc-runtime` batch path, plus three
//! explicit acceptance measurements:
//!
//! 1. sequential-vs-batch: the same corpus solved the PR-1 way (one job
//!    at a time, no shared prep) and through `solve_many` at 4 concurrent
//!    jobs with the per-instance-family prep cache;
//! 2. streaming smoke: `solve_many_streaming_with_cache` delivers the
//!    identical results in canonical order with a bounded reorder buffer;
//! 3. observability tax: on a corpus of many *small* preps, the batch
//!    wall clock with the `dapc-obs` registry off and on (interleaved
//!    min-of-N pairs). The `obs_*` fields of `BENCH_exec.json` at the
//!    repo root were recorded from this line;
//! 4. shard-merge: the same sweep as a 2-way `Corpus::shard_range` split
//!    through `solve_range` — per-shard walls, part snapshot sizes,
//!    serialise+merge overhead (asserted identical to the single-process
//!    aggregation), and the warm-start shipping win when shard 0's
//!    `PrepCache::save_to` snapshot seeds shard 1's cache. The measured
//!    line is committed as `BENCH_shard.json` at the repo root.
//!
//! Run quick (CI smoke): `cargo bench -p dapc-bench --bench bench_batch -- --quick`

use criterion::{criterion_group, criterion_main, Criterion};
use dapc_core::engine::SolveConfig;
use dapc_graph::gen;
use dapc_ilp::problems;
use dapc_runtime::{
    solve_many, solve_many_streaming_with_cache, solve_range, Corpus, JobResult, PartReport,
    PrepCache, RuntimeConfig, StreamReport,
};
use std::sync::{Arc, Mutex};
use std::time::Instant;

fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// An E3/E5-style sweep: mixed packing/covering instances × ε grid × seed
/// range, three-phase throughout. Every `(instance, budget)` family
/// recurs `|ε grid| × |seeds|` times, which is exactly the reuse the prep
/// cache is built to exploit.
fn sweep_corpus() -> Corpus {
    let (eps, seeds): (&[f64], _) = if quick_mode() {
        (&[0.3], 0..3)
    } else {
        (&[0.2, 0.3], 0..8)
    };
    Corpus::builder()
        .instance(
            "MIS/gnp40",
            problems::max_independent_set_unweighted(&gen::gnp(40, 0.08, &mut gen::seeded_rng(1))),
        )
        .instance(
            "MIS/cycle48",
            problems::max_independent_set_unweighted(&gen::cycle(48)),
        )
        .instance(
            "VC/cycle40",
            problems::min_vertex_cover_unweighted(&gen::cycle(40)),
        )
        .instance(
            "DS/cycle33",
            problems::min_dominating_set_unweighted(&gen::cycle(33)),
        )
        .backend("three-phase")
        .eps_grid(eps.iter().copied())
        .seeds(seeds)
        .base_config(SolveConfig::new())
        .build()
}

/// Many small instances, one seed sweep: every solve's preparation is
/// tiny, so fixed per-solve costs — such as the instrumentation sites'
/// clock reads — are a visible fraction of each job.
fn small_prep_corpus() -> Corpus {
    let (count, seeds) = if quick_mode() { (6, 0..2) } else { (10, 0..4) };
    let mut b = Corpus::builder()
        .backend("three-phase")
        .eps(0.3)
        .seeds(seeds)
        .base_config(SolveConfig::new());
    for i in 0..count {
        let n = 14 + 2 * i;
        b = b.instance(
            format!("MIS/gnp{n}-{i}"),
            problems::max_independent_set_unweighted(&gen::gnp(
                n,
                0.12,
                &mut gen::seeded_rng(100 + i as u64),
            )),
        );
    }
    b.build()
}

fn sequential_config() -> RuntimeConfig {
    RuntimeConfig::new()
        .jobs(1)
        .prep_cache(false)
        .reference_optima(false)
}

fn batch_config() -> RuntimeConfig {
    RuntimeConfig::new()
        .jobs(4)
        .prep_cache(true)
        .reference_optima(false)
}

fn bench_batch_paths(c: &mut Criterion) {
    let corpus = sweep_corpus();
    let mut group = c.benchmark_group("batch");
    group.sample_size(if quick_mode() { 2 } else { 3 });
    group.bench_function("sequential_no_cache", |b| {
        b.iter(|| solve_many(&corpus, &sequential_config()))
    });
    group.bench_function("solve_many_4workers_cached", |b| {
        b.iter(|| solve_many(&corpus, &batch_config()))
    });
    group.finish();
}

/// One timed head-to-head run, printing the numbers the ISSUE acceptance
/// criteria name: ≥ 2× wall-clock at 4 workers with a positive prep-cache
/// hit rate, and bit-identical results either way.
fn report_speedup(_c: &mut Criterion) {
    let corpus = sweep_corpus();
    let sequential = solve_many(&corpus, &sequential_config());
    let batch = solve_many(&corpus, &batch_config());
    assert_eq!(
        sequential.outcomes(),
        batch.outcomes(),
        "batch execution must be bit-identical to the sequential path"
    );
    let speedup = sequential.wall.as_secs_f64() / batch.wall.as_secs_f64();
    println!(
        "batch/speedup: {} jobs, sequential {:.2?} vs 4 workers + prep cache {:.2?} => {speedup:.2}x \
         (cache: {} hits / {} misses, rate {:.2})",
        corpus.len(),
        sequential.wall,
        batch.wall,
        batch.cache.hits,
        batch.cache.misses,
        batch.cache.hit_rate(),
    );
    assert!(
        batch.cache.hits > 0,
        "the sweep must reuse prep work across seeds"
    );
}

/// Streams `corpus` with a fresh cache, discarding the per-job results.
fn stream(corpus: &Corpus, rt: &RuntimeConfig) -> StreamReport {
    solve_many_streaming_with_cache(corpus, rt, &PrepCache::new(), |_r| {})
}

/// Solves one range of a 2-way split with `cache`.
fn shard(corpus: &Corpus, i: usize, rt: &RuntimeConfig, cache: &PrepCache) -> PartReport {
    solve_range(corpus, corpus.shard_range(i, 2), rt, cache, |_r| {})
}

/// Streaming smoke: `solve_many_streaming_with_cache` hands over the identical
/// `(key, report)` sequence in canonical order, with the reorder buffer
/// staying inside its bound — the CI `--quick` step runs this.
fn report_streaming_smoke(_c: &mut Criterion) {
    let corpus = sweep_corpus();
    let batch = solve_many(&corpus, &batch_config());
    let sink: Arc<Mutex<Vec<JobResult>>> = Arc::default();
    let hook = Arc::clone(&sink);
    let stream =
        solve_many_streaming_with_cache(&corpus, &batch_config(), &PrepCache::new(), move |r| {
            hook.lock().expect("stream sink").push(r);
        });
    let streamed = Arc::try_unwrap(sink)
        .expect("hook dropped")
        .into_inner()
        .expect("stream sink");
    assert_eq!(batch.results.len(), streamed.len());
    for (a, b) in batch.results.iter().zip(&streamed) {
        assert_eq!(a.key, b.key, "streaming broke the canonical order");
        assert_eq!(a.report, b.report, "streaming moved a report byte");
    }
    println!(
        "batch/streaming: {} jobs in canonical order, peak reorder buffer {} (workers {})",
        stream.jobs, stream.peak_buffered, stream.workers,
    );
}

/// The observability tax: the identical small-prep batch with the
/// dapc-obs registry armed, so every executor/cache/runtime
/// instrumentation site takes its hot path (clock reads + atomic bumps)
/// instead of the single relaxed gate load. Prints one `BENCH_exec` JSON
/// line with the host's core count.
fn report_obs_overhead(_c: &mut Criterion) {
    let corpus = small_prep_corpus();
    let rt = RuntimeConfig::new()
        .jobs(2)
        .prep_workers(4)
        .reference_optima(false);
    let quick = quick_mode();
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());

    // The batch is ms-scale, so a single on/off pair is all scheduler
    // noise: the comparison interleaves off/on pairs and takes the min of
    // each side, which cancels machine-wide drift. The gate is restored to
    // off before returning so later report fns stay unmetered. One batch
    // is too short to time against scheduler jitter, so each timed sample
    // is `reps` back-to-back batches.
    let (pairs, reps) = if quick { (3, 2) } else { (10, 8) };
    let (mut plain_wall, mut obs_wall) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..pairs {
        dapc_obs::set_enabled(false);
        let start = Instant::now();
        for _ in 0..reps {
            assert_eq!(stream(&corpus, &rt).jobs, corpus.len());
        }
        plain_wall = plain_wall.min(start.elapsed().as_secs_f64() / reps as f64);

        dapc_obs::set_enabled(true);
        let start = Instant::now();
        for _ in 0..reps {
            assert_eq!(stream(&corpus, &rt).jobs, corpus.len());
        }
        obs_wall = obs_wall.min(start.elapsed().as_secs_f64() / reps as f64);
    }
    dapc_obs::set_enabled(false);
    let obs_overhead = obs_wall / plain_wall - 1.0;

    println!(
        "BENCH_exec {{\"corpus\":{{\"jobs\":{},\"shape\":\"small-prep\"}},\"quick\":{quick},\
         \"cores\":{cores},\"rt\":{{\"jobs\":2,\"prep_workers\":4}},\
         \"wall_seconds\":{{\"obs_baseline_batch\":{plain_wall:.4},\"obs_enabled_batch\":{obs_wall:.4}}},\
         \"obs_overhead\":{obs_overhead:.3}}}",
        corpus.len(),
    );
}

/// The shard-merge measurement: the E3-style sweep as a 2-shard split.
/// Prints one `BENCH_shard` JSON line recording (a) the per-shard walls
/// and the serialise → load → merge → finish overhead beside the
/// single-process streaming wall, with the merged aggregation asserted
/// identical (timings aside); and (b) the warm-start shipping win — a
/// single-family seed sweep split in two, shard 1 solved cold vs seeded
/// from shard 0's prep snapshot.
fn report_shard_merge(_c: &mut Criterion) {
    let corpus = sweep_corpus();
    let rt = batch_config();
    let single = stream(&corpus, &rt);

    let start = Instant::now();
    let shard0 = shard(&corpus, 0, &rt, &PrepCache::new());
    let shard1 = shard(&corpus, 1, &rt, &PrepCache::new());
    let shard_wall = [shard0.wall.as_secs_f64(), shard1.wall.as_secs_f64()];
    let solve_wall = start.elapsed().as_secs_f64();

    // The merge protocol through bytes, as cooperating processes run it.
    let start = Instant::now();
    let mut shipped = Vec::new();
    for report in [shard0, shard1] {
        let mut bytes = Vec::new();
        report.save_to(&mut bytes).expect("write to a Vec");
        shipped.push(bytes);
    }
    let snapshot_bytes: usize = shipped.iter().map(Vec::len).sum();
    let mut merged = PartReport::load_from(shipped[0].as_slice()).expect("shard 0");
    merged.merge(PartReport::load_from(shipped[1].as_slice()).expect("shard 1"));
    let stream = merged.finish();
    let merge_wall = start.elapsed().as_secs_f64();
    assert_eq!(stream.jobs, single.jobs);
    for (a, b) in stream.groups.iter().zip(&single.groups) {
        let (mut a, mut b) = (a.clone(), b.clone());
        a.micros = 0;
        b.micros = 0;
        assert_eq!(a, b, "shard merge moved an aggregate");
    }

    // Warm-start shipping: one instance family swept over seeds, split
    // in two — every subset solve shard 1 needs, shard 0 already did.
    let seeds = if quick_mode() { 0..6 } else { 0..12 };
    let family = Corpus::builder()
        .instance(
            "MIS/gnp40",
            problems::max_independent_set_unweighted(&gen::gnp(40, 0.08, &mut gen::seeded_rng(1))),
        )
        .backend("three-phase")
        .eps(0.3)
        .seeds(seeds)
        .base_config(SolveConfig::new())
        .build();
    // Reference optima on: the whole-instance exact solve both shards
    // need is the single most expensive shareable entry.
    let srt = RuntimeConfig::new();
    let cold_cache = PrepCache::new();
    shard(&family, 0, &srt, &cold_cache);
    let mut prep = Vec::new();
    cold_cache.save_to(&mut prep).expect("write to a Vec");

    let start = Instant::now();
    let cold = shard(&family, 1, &srt, &PrepCache::new());
    let cold_wall = start.elapsed().as_secs_f64();

    let warm_cache = PrepCache::new();
    let start = Instant::now();
    let seeded = warm_cache
        .load_into(prep.as_slice())
        .expect("load the snapshot");
    let warm = shard(&family, 1, &srt, &warm_cache);
    let warm_wall = start.elapsed().as_secs_f64();
    assert!(
        warm.cache.misses <= cold.cache.misses,
        "a warm start cannot add misses"
    );

    println!(
        "BENCH_shard {{\"corpus\":{{\"jobs\":{},\"shape\":\"E3-style sweep\"}},\"quick\":{},\
         \"shards\":2,\"wall_seconds\":{{\"single_process\":{:.4},\"shard_solves\":{solve_wall:.4},\
         \"per_shard\":[{:.4},{:.4}],\"serialise_load_merge_finish\":{merge_wall:.4}}},\
         \"snapshot_bytes\":{snapshot_bytes},\
         \"merge_overhead_over_single\":{:.5},\
         \"warm_start_shipping\":{{\"family_jobs\":{},\"shipped_entries\":{seeded},\
         \"shard1_misses\":{{\"cold\":{},\"warm\":{}}},\
         \"shard1_wall_seconds\":{{\"cold\":{cold_wall:.4},\"warm\":{warm_wall:.4}}}}},\
         \"identity\":\"merged groups asserted equal to single-process (timings aside)\"}}",
        corpus.len(),
        quick_mode(),
        single.wall.as_secs_f64(),
        shard_wall[0],
        shard_wall[1],
        merge_wall / single.wall.as_secs_f64(),
        family.len(),
        cold.cache.misses,
        warm.cache.misses,
    );
}

criterion_group!(
    benches,
    bench_batch_paths,
    report_speedup,
    report_streaming_smoke,
    report_obs_overhead,
    report_shard_merge
);
criterion_main!(benches);
