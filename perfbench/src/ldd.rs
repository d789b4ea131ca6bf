//! `ldd-trials`: an E1-shaped grid of `three_phase_ldd` and
//! `elkin_neiman` trials on E1's G(n,p), grid and random 4-regular graphs
//! at two sizes and three ε values. Each trial is followed by
//! `Decomposition::max_weak_diameter` and `validate`; one item is one
//! trial.
//!
//! The trials of a pass share one sequential RNG stream derived from the
//! workload seed and the pass, so the workload is single-threaded. Every
//! trial must validate. Small-graph cells run three trials for every two
//! large-graph ones, so the median falls inside the slowest small family
//! and the 90th percentile inside the large trials, away from the
//! boundaries between classes.

use crate::measure::{secs, ObsTotals, SpanLog};
use crate::{
    drive, median_setup, trace_overhead, untraced_rate, Latency, Outcome, Quality, RunConfig, Scale,
};
use dapc_decomp::elkin_neiman::{elkin_neiman, EnParams};
use dapc_decomp::three_phase::{three_phase_ldd, LddParams};
use dapc_decomp::Decomposition;
use dapc_graph::{gen, Graph};
use dapc_ilp::hash::{fnv1a_u64, FNV_OFFSET};
use dapc_local::RoundCost;
use std::time::{Duration, Instant};

const EPS: [f64; 3] = [0.1, 0.2, 0.4];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Algo {
    ThreePhase,
    ElkinNeiman,
}

/// One grid cell: a graph, an ε, an algorithm and its trial count.
struct Cell {
    graph: usize,
    eps: f64,
    algo: Algo,
    trials: usize,
}

struct Inputs {
    graphs: Vec<Graph>,
    cells: Vec<Cell>,
    gen_s: f64,
}

/// What one trial produced.
struct Trial {
    digest: u64,
    valid: Result<(), String>,
    guarantee: bool,
    kept_frac: f64,
    rounds: usize,
    /// Start and end of the decomposition call.
    decompose: (Instant, Instant),
    /// Start and end of `max_weak_diameter` plus `validate`.
    validate: (Instant, Instant),
    /// Cluster vertices, i.e. BFS sources of the weak-diameter check.
    sources: u64,
    clusters: u64,
    deleted: u64,
}

/// Per-layer totals over traced trials.
#[derive(Default)]
struct Layers {
    three_phase: Duration,
    elkin_neiman: Duration,
    validate: Duration,
    sources: u64,
    clusters: u64,
    deleted: u64,
}

fn families(n: usize, seed: u64) -> Vec<Graph> {
    let side = (n as f64).sqrt() as usize;
    vec![
        gen::gnp(n, 6.0 / n as f64, &mut gen::seeded_rng(seed)),
        gen::grid(side, side),
        gen::random_regular(n - n % 2, 4, &mut gen::seeded_rng(seed.wrapping_add(1))),
    ]
}

fn setup(cfg: &RunConfig) -> Inputs {
    let sizes: [(usize, usize); 2] = match cfg.scale {
        Scale::Full => [(512, 3), (1024, 2)],
        Scale::Tiny => [(64, 3), (144, 2)],
    };
    let mut graphs = Vec::new();
    let mut cells = Vec::new();
    let t = Instant::now();
    for (n, trials) in sizes {
        // E1's graphs: fixed, so the seed drives only the trials' stream.
        for g in families(n, 11) {
            graphs.push(g);
            for eps in EPS {
                for algo in [Algo::ThreePhase, Algo::ElkinNeiman] {
                    cells.push(Cell {
                        graph: graphs.len() - 1,
                        eps,
                        algo,
                        trials,
                    });
                }
            }
        }
    }
    Inputs {
        graphs,
        cells,
        gen_s: secs(t.elapsed()),
    }
}

fn digest(d: &Decomposition, diam: u32) -> u64 {
    let mut h = fnv1a_u64(FNV_OFFSET, u64::from(diam));
    for c in &d.cluster_of {
        h = fnv1a_u64(h, c.map_or(u64::MAX, u64::from));
    }
    h
}

fn trial(g: &Graph, cell: &Cell, rng: &mut rand::rngs::StdRng) -> Trial {
    let n = g.n() as f64;
    let t0 = Instant::now();
    let (d, bound) = match cell.algo {
        Algo::ThreePhase => {
            let params = LddParams::scaled(cell.eps, n, 0.05);
            let out = three_phase_ldd(g, &params, rng, None);
            (out.decomposition, params.diameter_bound() as f64)
        }
        Algo::ElkinNeiman => {
            let params = EnParams::new(cell.eps, n);
            (elkin_neiman(g, &params, rng, None), params.diameter_bound())
        }
    };
    let t1 = Instant::now();
    let diam = d.max_weak_diameter(g);
    let valid = d.validate(g, None);
    let t2 = Instant::now();
    let frac = d.deleted_fraction();
    Trial {
        digest: digest(&d, diam),
        valid,
        guarantee: frac <= cell.eps + 1e-12 && f64::from(diam) <= bound,
        kept_frac: 1.0 - frac,
        rounds: d.rounds(),
        decompose: (t0, t1),
        validate: (t1, t2),
        sources: d.clusters.iter().map(|c| c.len() as u64).sum(),
        clusters: d.clusters.len() as u64,
        deleted: d.deleted_count() as u64,
    }
}

impl Layers {
    /// Adds a traced trial's layer times and counts, and its spans.
    fn add(&mut self, t: &Trial, algo: Algo, item: u64, spans: &mut SpanLog) {
        let parent = spans.record("ldd.trial", item, None, t.decompose.0, t.validate.1);
        let (name, total) = match algo {
            Algo::ThreePhase => ("decomp.three_phase", &mut self.three_phase),
            Algo::ElkinNeiman => ("decomp.elkin_neiman", &mut self.elkin_neiman),
        };
        *total += t.decompose.1 - t.decompose.0;
        spans.record(name, item, Some(parent), t.decompose.0, t.decompose.1);
        self.validate += t.validate.1 - t.validate.0;
        spans.record(
            "decomp.validate",
            item,
            Some(parent),
            t.validate.0,
            t.validate.1,
        );
        self.sources += t.sources;
        self.clusters += t.clusters;
        self.deleted += t.deleted;
    }
}

/// Passes whose trials feed the quality metrics. Every untraced run
/// completes them, so the figures are a function of the seed alone.
const QUALITY_PASSES: usize = 5;

/// Runs the workload.
///
/// Untraced, pass `p` draws its trials from stream `p`, so each pass adds
/// fresh trials. Traced, each traced pass replays the stream of the
/// untraced pass before it, whose per-trial digests it must reproduce.
pub fn run(cfg: &RunConfig) -> Outcome {
    let (inputs, setup_s) = median_setup(5, || setup(cfg));
    let mut out = Outcome::default();
    let mut latency = Latency::default();
    let mut untraced_digests: Vec<u64> = Vec::new();
    let mut quality = Quality::default();
    let mut layers = Layers::default();
    let mut obs = ObsTotals::default();

    let blocks = drive(
        cfg,
        if cfg.trace { 2 } else { QUALITY_PASSES },
        |pass, traced| {
            let stream = if cfg.trace { pass / 2 } else { pass } as u64;
            let mut run_pass = |out: &mut Outcome| {
                let mut rng = gen::seeded_rng(fnv1a_u64(fnv1a_u64(FNV_OFFSET, cfg.seed), stream));
                if !traced {
                    untraced_digests.clear();
                }
                let mut k = 0usize;
                for cell in &inputs.cells {
                    let g = &inputs.graphs[cell.graph];
                    for _ in 0..cell.trials {
                        let t = trial(g, cell, &mut rng);
                        out.attempted += 1;
                        if let Err(e) = &t.valid {
                            out.fail(format!("pass {pass} trial {k}: invalid decomposition: {e}"));
                        } else if traced {
                            layers.add(&t, cell.algo, out.attempted, &mut out.spans);
                            if untraced_digests.get(k) != Some(&t.digest) {
                                out.fail(format!(
                                    "pass {pass} trial {k}: traced digest differs from untraced"
                                ));
                            }
                        } else {
                            latency.push(pass, secs(t.validate.1 - t.decompose.0) * 1e3);
                            untraced_digests.push(t.digest);
                            if !cfg.trace && pass < QUALITY_PASSES {
                                quality.item(t.rounds as f64);
                                quality.judge(cell.eps, t.guarantee, t.kept_frac);
                            }
                        }
                        k += 1;
                    }
                }
                k as u64
            };
            if traced {
                obs.traced(|| run_pass(&mut out))
            } else {
                run_pass(&mut out)
            }
        },
    );

    out.note("passes", blocks.len().to_string());
    out.note(
        "trials_per_pass",
        inputs
            .cells
            .iter()
            .map(|c| c.trials)
            .sum::<usize>()
            .to_string(),
    );
    if cfg.trace {
        trace_overhead(&mut out, &blocks);
        let traced_wall: f64 = blocks
            .iter()
            .filter(|b| b.traced)
            .map(|b| secs(b.wall))
            .sum();
        let claimed = secs(layers.three_phase + layers.elkin_neiman + layers.validate);
        out.set("graph.gen_s", inputs.gen_s);
        out.set("decomp.three_phase_s", secs(layers.three_phase));
        out.set("decomp.elkin_neiman_s", secs(layers.elkin_neiman));
        out.set("decomp.validate_s", secs(layers.validate));
        out.set("decomp.validate_sources", layers.sources as f64);
        out.set("decomp.clusters", layers.clusters as f64);
        out.set("decomp.deleted", layers.deleted as f64);
        out.set("unattributed_frac", (1.0 - claimed / traced_wall).max(0.0));
        out.set("exec.task_wait_s", obs.hist_secs("exec.task.wait_micros"));
        out.set("exec.steals", obs.counter("exec.steals") as f64);
        out.set("exec.parks", obs.counter("exec.parks") as f64);
        out.set("exec.yields", obs.counter("exec.yields") as f64);
        out.absent(
            &[
                "ilp.optimum_s",
                "ilp.optimum_exact_frac",
                "ilp.optimum_attempts",
                "core.solve_s",
                "core.decompose_s",
                "core.annotate_s",
                "core.subset_solve_s",
                "core.annotate_other_s",
                "core.final_solve_s",
                "core.verify_s",
                "core.subset_solves",
                "core.cache_hit_rate",
                "core.cache_lookups",
                "core.cache_bytes_per_entry",
                "core.cache_evictions",
                "runtime.sweep_s",
                "runtime.pump_busy_frac",
                "runtime.peak_buffered",
                "exec.steal_attempts",
                "exec.steal_success_frac",
            ],
            "ldd-trials calls no ILP, core, runtime or executor code",
        );
        out.absent(&crate::daemon::SERVE_LAYER, "ldd-trials runs no daemon");
    } else {
        out.set("setup_s", setup_s);
        let rate = untraced_rate(&mut out, &blocks);
        out.set("items_per_s", rate);
        latency.report(&mut out);
        quality.report(&mut out);
    }
    out
}
