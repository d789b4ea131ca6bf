//! End-to-end and per-layer benchmark of the dapc workspace.
//!
//! Three closed-loop workloads drive the workspace through its public
//! functions only and time every call from the outside:
//!
//! - [`ldd`] — `ldd-trials`: E1-shaped low-diameter decompositions,
//!   each followed by `max_weak_diameter` and `validate`;
//! - [`batch`] — `batch-cold`: E3/E4/E5-shaped corpora through
//!   `solve_many_streaming_with_cache` with a fresh `PrepCache` per sweep;
//! - [`daemon`] — `daemon-mixed`: one client connection sending `Sweep`
//!   requests to a resident in-process `dapc-serve` daemon, mostly warm
//!   repeats plus a fixed share of fresh G(n,p) instances.
//!
//! An untraced run reports the [`END_TO_END`] metrics. A traced run
//! alternates untraced and traced blocks over the same inputs: traced
//! blocks time each layer call, enable `dapc-obs` and read its counters
//! and spans as snapshot deltas, and the untraced ones give the tracing
//! overhead. It reports the [`PER_LAYER`] metrics.

pub mod batch;
pub mod daemon;
pub mod ldd;
pub mod measure;
pub mod record;

use measure::{Better, Metric, SpanLog};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// The workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["ldd-trials", "batch-cold", "daemon-mixed"];

/// The seed used while the benchmark and later claims are written.
pub const DEFAULT_SEED: u64 = 1;

/// A seed kept back from tuning, on which claims are rechecked.
pub const HOLDOUT_SEED: u64 = 9001;

/// `(name, unit, better)` of every end-to-end metric; each workload
/// reports all of them.
pub const END_TO_END: [(&str, &str, Better); 8] = [
    ("setup_s", "s", Better::Lower),
    ("items_per_s", "1/s", Better::Higher),
    ("item_p50_ms", "ms", Better::Lower),
    ("item_p90_ms", "ms", Better::Lower),
    ("peak_rss_mb", "MiB", Better::Lower),
    ("guarantee_met_frac", "ratio", Better::Higher),
    ("approx_ratio_min", "ratio", Better::Higher),
    ("rounds_mean", "rounds", Better::Lower),
];

/// `(name, unit, better)` of every per-layer metric. A workload that
/// does not exercise a layer reports `0` and names the reason in the
/// run record's `absent` map.
pub const PER_LAYER: [(&str, &str, Better); 46] = [
    ("graph.gen_s", "s", Better::Lower),
    ("decomp.three_phase_s", "s", Better::Lower),
    ("decomp.elkin_neiman_s", "s", Better::Lower),
    ("decomp.validate_s", "s", Better::Lower),
    ("decomp.validate_sources", "count", Better::Lower),
    ("decomp.clusters", "count", Better::Lower),
    ("decomp.deleted", "count", Better::Lower),
    ("ilp.optimum_s", "s", Better::Lower),
    ("ilp.optimum_exact_frac", "ratio", Better::Higher),
    ("ilp.optimum_attempts", "count", Better::Lower),
    ("core.solve_s", "s", Better::Lower),
    ("core.decompose_s", "s", Better::Lower),
    ("core.annotate_s", "s", Better::Lower),
    ("core.subset_solve_s", "s", Better::Lower),
    ("core.annotate_other_s", "s", Better::Lower),
    ("core.final_solve_s", "s", Better::Lower),
    ("core.verify_s", "s", Better::Lower),
    ("core.subset_solves", "count", Better::Lower),
    ("core.cache_hit_rate", "ratio", Better::Higher),
    ("core.cache_lookups", "count", Better::Lower),
    ("core.cache_bytes_per_entry", "B", Better::Lower),
    ("core.cache_evictions", "count", Better::Lower),
    ("runtime.sweep_s", "s", Better::Lower),
    ("runtime.pump_busy_frac", "ratio", Better::Higher),
    ("runtime.peak_buffered", "count", Better::Lower),
    ("exec.task_wait_s", "s", Better::Lower),
    ("exec.steals", "count", Better::Lower),
    ("exec.steal_attempts", "count", Better::Lower),
    ("exec.steal_success_frac", "ratio", Better::Higher),
    ("exec.parks", "count", Better::Lower),
    ("exec.yields", "count", Better::Lower),
    ("serve.request_warm_p50_ms", "ms", Better::Lower),
    ("serve.request_cold_p50_ms", "ms", Better::Lower),
    ("serve.first_frame_ms", "ms", Better::Lower),
    ("serve.overhead_ms", "ms", Better::Lower),
    ("serve.proto_s", "s", Better::Lower),
    ("serve.cache_hit_rate_warm", "ratio", Better::Higher),
    ("serve.cache_hit_rate_cold", "ratio", Better::Higher),
    ("serve.busy", "count", Better::Lower),
    ("serve.errors", "count", Better::Lower),
    ("trace.items", "count", Better::Higher),
    ("trace.wall_s", "s", Better::Lower),
    ("unattributed_frac", "ratio", Better::Lower),
    ("obs.trace_overhead_frac", "ratio", Better::Lower),
    ("obs.items_per_s_untraced", "1/s", Better::Higher),
    ("obs.items_per_s_traced", "1/s", Better::Higher),
];

/// How large a run's inputs are.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark proper.
    Full,
    /// Minimal inputs for the smoke tests.
    Tiny,
}

/// One run's settings.
#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    /// Workload seed: every input derives from it.
    pub seed: u64,
    /// Length of the timed region.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    /// Input size.
    pub scale: Scale,
}

/// Everything one run produced.
#[derive(Default)]
pub struct Outcome {
    /// Items attempted in the timed region.
    pub attempted: u64,
    /// Items that errored, were refused or failed their output check.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// Metric values by name (end-to-end or per-layer, per the run).
    pub values: BTreeMap<&'static str, f64>,
    /// Per-layer metrics this workload cannot measure, with the reason.
    pub absent: BTreeMap<&'static str, String>,
    /// Extra run-record fields: key → JSON value.
    pub record: BTreeMap<String, String>,
    /// Spans recorded in traced blocks.
    pub spans: SpanLog,
}

impl Outcome {
    /// Counts one failed item, keeping its message if among the first.
    pub fn fail(&mut self, msg: impl Into<String>) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(msg.into());
        }
    }

    /// Sets a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Marks a per-layer metric as not exercised by this workload.
    pub fn absent(&mut self, names: &[&'static str], why: &str) {
        for &n in names {
            self.absent.insert(n, why.to_string());
        }
    }

    /// Adds a run-record field whose value is already JSON.
    pub fn note(&mut self, key: impl Into<String>, json: impl Into<String>) {
        self.record.insert(key.into(), json.into());
    }

    /// The metrics of this run, in catalogue order: every end-to-end
    /// metric for an untraced run, every per-layer one for a traced run.
    /// Absent per-layer metrics read `0`.
    pub fn metrics(&self, trace: bool) -> Vec<Metric> {
        let catalogue: &[(&'static str, &'static str, Better)] =
            if trace { &PER_LAYER } else { &END_TO_END };
        catalogue
            .iter()
            .map(|&(name, unit, better)| Metric {
                name,
                unit,
                better,
                value: self.values.get(name).copied().unwrap_or(0.0),
            })
            .collect()
    }
}

/// Quality of a fixed set of items, for the deterministic end-to-end
/// metrics: the share meeting the paper's guarantee, the worst ε's mean
/// quality ratio, and the mean charged LOCAL rounds.
#[derive(Default)]
pub struct Quality {
    items: usize,
    rounds: f64,
    judged: usize,
    met: usize,
    /// Per ε (by bit pattern): items judged and their summed ratio.
    by_eps: BTreeMap<u64, (usize, f64)>,
}

impl Quality {
    /// Counts one item and its charged rounds.
    pub fn item(&mut self, rounds: f64) {
        self.items += 1;
        self.rounds += rounds;
    }

    /// Judges one item against its guarantee at `eps`, with its quality
    /// ratio (higher is better, 1 is ideal).
    pub fn judge(&mut self, eps: f64, met: bool, ratio: f64) {
        self.judged += 1;
        self.met += usize::from(met);
        let e = self.by_eps.entry(eps.to_bits()).or_default();
        e.0 += 1;
        e.1 += ratio;
    }

    /// Sets `guarantee_met_frac`, `approx_ratio_min` and `rounds_mean`,
    /// or fails the run when no item was judged. The ratio is the smallest
    /// per-ε mean: a minimum over single items would rest on one draw and
    /// swing from seed to seed.
    pub fn report(&self, out: &mut Outcome) {
        if self.judged == 0 {
            out.fail("no item of the quality set was judged");
            return;
        }
        let worst = self
            .by_eps
            .values()
            .map(|&(n, sum)| sum / n as f64)
            .fold(f64::INFINITY, f64::min);
        out.set("guarantee_met_frac", self.met as f64 / self.judged as f64);
        out.set("approx_ratio_min", worst);
        out.set("rounds_mean", self.rounds / self.items.max(1) as f64);
        out.note("quality_items", self.items.to_string());
        out.note("quality_judged", self.judged.to_string());
    }
}

/// Item latencies of the untraced blocks, grouped by block.
///
/// `item_p50_ms` and `item_p90_ms` are medians over windows of
/// consecutive blocks holding at least [`Latency::WINDOW`] samples each,
/// of each window's own percentile: a slow stretch of the host then moves
/// the windows it covers, not the result, as long as it covers fewer than
/// half of them.
#[derive(Default)]
pub struct Latency {
    blocks: BTreeMap<usize, measure::Samples>,
}

impl Latency {
    /// Samples per window: the 90th percentile has ten beyond it.
    pub const WINDOW: usize = 100;

    /// Records one item's latency in milliseconds, in block `block`.
    pub fn push(&mut self, block: usize, ms: f64) {
        self.blocks.entry(block).or_default().push(ms);
    }

    /// Sets `item_p50_ms` and `item_p90_ms` and records the sample and
    /// window counts, and the fewest samples beyond p90 in any window.
    pub fn report(&self, out: &mut Outcome) {
        let mut windows: Vec<measure::Samples> = Vec::new();
        let mut current = measure::Samples::default();
        for s in self.blocks.values() {
            current.extend(s);
            if current.len() >= Self::WINDOW {
                windows.push(std::mem::take(&mut current));
            }
        }
        // A short tail joins the last window rather than standing alone.
        match windows.last_mut() {
            Some(last) => last.extend(&current),
            None => windows.push(current),
        }
        let median_of = |pct: f64| {
            let mut m = measure::Samples::default();
            for w in &windows {
                m.push(w.percentile(pct));
            }
            m.median()
        };
        let samples: usize = windows.iter().map(measure::Samples::len).sum();
        let min_beyond = windows.iter().map(|w| w.beyond(90.0)).min().unwrap_or(0);
        out.set("item_p50_ms", median_of(50.0));
        out.set("item_p90_ms", median_of(90.0));
        out.note("latency_samples", samples.to_string());
        out.note("latency_windows", windows.len().to_string());
        out.note("p90_samples_beyond", min_beyond.to_string());
    }
}

/// One block of a run's closed loop: a grid pass, a corpus sweep or a
/// request cycle.
#[derive(Clone, Copy, Debug)]
pub struct Block {
    /// Whether the block ran traced.
    pub traced: bool,
    /// Items the block completed.
    pub items: u64,
    /// The block's wall time.
    pub wall: Duration,
}

/// Runs blocks back to back until `cfg.seconds` have passed and at least
/// `min_blocks` ran. Untraced runs never trace; traced runs alternate
/// untraced and traced blocks, starting untraced, and always run one of
/// each. `block(i, traced)` returns the items it completed.
pub fn drive(
    cfg: &RunConfig,
    min_blocks: usize,
    mut block: impl FnMut(usize, bool) -> u64,
) -> Vec<Block> {
    let start = Instant::now();
    let min_blocks = if cfg.trace {
        min_blocks.max(2)
    } else {
        min_blocks.max(1)
    };
    let mut blocks = Vec::new();
    loop {
        let i = blocks.len();
        if i >= min_blocks && start.elapsed().as_secs_f64() >= cfg.seconds {
            break;
        }
        let traced = cfg.trace && i % 2 == 1;
        let t = Instant::now();
        let items = block(i, traced);
        blocks.push(Block {
            traced,
            items,
            wall: t.elapsed(),
        });
    }
    blocks
}

/// Median over untraced blocks of items per second; each block's rate
/// goes into the run record.
pub fn untraced_rate(out: &mut Outcome, blocks: &[Block]) -> f64 {
    let rates: Vec<f64> = blocks
        .iter()
        .filter(|b| !b.traced)
        .map(|b| b.items as f64 / b.wall.as_secs_f64())
        .collect();
    let shown: Vec<String> = rates.iter().map(|r| format!("{r:.3}")).collect();
    out.note("block_items_per_s", format!("[{}]", shown.join(",")));
    let mut s = measure::Samples::default();
    for r in rates {
        s.push(r);
    }
    s.median()
}

/// Records the tracing overhead of a traced run: throughput of traced
/// against untraced blocks, and the traced segment's size.
pub fn trace_overhead(out: &mut Outcome, blocks: &[Block]) {
    let rate = |traced: bool| {
        let (items, wall) = blocks
            .iter()
            .filter(|b| b.traced == traced)
            .fold((0u64, 0f64), |(i, w), b| {
                (i + b.items, w + b.wall.as_secs_f64())
            });
        (
            items,
            wall,
            if wall > 0.0 { items as f64 / wall } else { 0.0 },
        )
    };
    let (_, _, plain) = rate(false);
    let (items, wall, traced) = rate(true);
    out.set("obs.items_per_s_untraced", plain);
    out.set("obs.items_per_s_traced", traced);
    out.set(
        "obs.trace_overhead_frac",
        if plain > 0.0 {
            1.0 - traced / plain
        } else {
            0.0
        },
    );
    out.set("trace.items", items as f64);
    out.set("trace.wall_s", wall);
}

/// What the caller measured around the engine in traced blocks.
pub struct EngineWork {
    /// Wall time of the sweeps, as the caller timed them.
    pub sweep_s: f64,
    /// Reference-optimum subset solves among the root `span.subset_solve`
    /// observations (one per instance whose optimum was computed).
    pub optima_solves: u64,
    /// Concurrent jobs (pump tasks) per sweep.
    pub pumps: usize,
    /// The reorder buffer's high-water mark, where observable.
    pub peak_buffered: Option<usize>,
    /// Prep-cache bytes per resident entry.
    pub bytes_per_entry: f64,
}

/// Sets the core, runtime and exec layer metrics from the `dapc-obs`
/// deltas of traced blocks, and returns `(claimed, capacity)` seconds.
///
/// Reference optima run sequentially before a sweep's pumps start; each
/// is one root `span.subset_solve`, as are annotation subset solves
/// sharded onto workers outside any solve. So the pre-stream phase
/// (sweep wall minus `runtime.stream.wall_micros`) is charged to the
/// optima and the rest of the root subset solves to annotation. A
/// sweep's capacity is its pre-stream phase plus `pumps ×` its stream
/// phase; the layers claim the pre-stream phase and every engine solve
/// (`span.solve`, whose annotate span covers its sharded subset solves).
pub fn engine_layers(out: &mut Outcome, obs: &measure::ObsTotals, w: &EngineWork) -> (f64, f64) {
    let stream_s = obs.hist_secs("runtime.stream.wall_micros");
    let pre_stream = (w.sweep_s - stream_s).max(0.0);
    let nested = obs.hist_secs("span.solve.annotate.subset_solve");
    let sharded = (obs.hist_secs("span.subset_solve") - pre_stream).max(0.0);
    let solve = obs.hist_secs("span.solve");
    let annotate = obs.hist_secs("span.solve.annotate");
    let hits = obs.counter("core.subset_cache.hits");
    let lookups = hits + obs.counter("core.subset_cache.misses");
    let steals = obs.counter("exec.steals");
    let attempts = steals + obs.counter("exec.steal_failures");
    let pumps = w.pumps.max(1) as f64;
    out.set("core.solve_s", solve);
    out.set("core.decompose_s", obs.hist_secs("span.solve.decompose"));
    out.set("core.annotate_s", annotate);
    out.set("core.subset_solve_s", nested + sharded);
    out.set(
        "core.annotate_other_s",
        (annotate - nested - sharded).max(0.0),
    );
    out.set(
        "core.final_solve_s",
        obs.hist_secs("span.solve.subset_solve"),
    );
    out.set("core.verify_s", obs.hist_secs("span.solve.verify"));
    out.set(
        "core.subset_solves",
        (obs.hist_count("span.solve.annotate.subset_solve") + obs.hist_count("span.subset_solve"))
            .saturating_sub(w.optima_solves) as f64,
    );
    out.set("core.cache_hit_rate", hits as f64 / lookups.max(1) as f64);
    out.set("core.cache_lookups", lookups as f64);
    out.set("core.cache_bytes_per_entry", w.bytes_per_entry);
    out.set(
        "core.cache_evictions",
        obs.counter("core.subset_cache.evictions") as f64,
    );
    out.set("runtime.sweep_s", w.sweep_s);
    out.set(
        "runtime.pump_busy_frac",
        obs.hist_secs("runtime.stream.pump_busy_micros") / (stream_s * pumps).max(1e-9),
    );
    if let Some(peak) = w.peak_buffered {
        out.set("runtime.peak_buffered", peak as f64);
    }
    out.set("exec.task_wait_s", obs.hist_secs("exec.task.wait_micros"));
    out.set("exec.steals", steals as f64);
    out.set("exec.steal_attempts", attempts as f64);
    out.set(
        "exec.steal_success_frac",
        steals as f64 / attempts.max(1) as f64,
    );
    out.set("exec.parks", obs.counter("exec.parks") as f64);
    out.set("exec.yields", obs.counter("exec.yields") as f64);
    (pre_stream + solve, pre_stream + stream_s * pumps)
}

/// Runs `setup` `reps` times and returns the last result with the
/// median set-up time in seconds. Each set-up is dropped, outside the
/// timing, before the next starts, so resources such as a daemon's
/// socket are free again.
pub fn median_setup<T>(reps: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = measure::Samples::default();
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let (v, d) = measure::timed(&mut setup);
        times.push(d.as_secs_f64());
        last = Some(v);
    }
    (last.expect("at least one set-up"), times.median())
}

/// Runs one workload by name; `None` for an unknown name.
pub fn run_workload(name: &str, cfg: &RunConfig) -> Option<Outcome> {
    let mut out = match name {
        "ldd-trials" => ldd::run(cfg),
        "batch-cold" => batch::run(cfg),
        "daemon-mixed" => daemon::run(cfg),
        _ => return None,
    };
    if !cfg.trace && !out.values.contains_key("peak_rss_mb") {
        out.set("peak_rss_mb", measure::peak_rss_mib().unwrap_or(0.0));
    }
    Some(out)
}
