//! `batch-cold`: E3/E4/E5-shaped corpora through
//! `dapc_runtime::solve_many_streaming_with_cache` — MIS, matching,
//! vertex cover and dominating set on the E3 families under the
//! `three-phase` and `gkm` backends over an ε grid and seeds, plus the
//! long-cycle carving instances. Every sweep gets a fresh `PrepCache`,
//! runs `jobs = prep_workers = nproc`, and the small corpus computes
//! reference optima, so annotation, subset solves, the executor and the
//! reorder buffer all run under load with a cold cache — what `tables`
//! pays on every run. One item is one job.
//!
//! Checks: every job's report is feasible, every sweep's
//! `(key, value, rounds)` stream equals the first sweep's, and the
//! runtime's exact reference optima equal `verify::optimum`'s. Quality
//! is judged against exact optima from `verify::optimum` (the long
//! cycles' optimum `n/2` is known in closed form).

use crate::measure::{secs, timed, ObsTotals};
use crate::record::nproc;
use crate::{
    drive, engine_layers, median_setup, trace_overhead, untraced_rate, EngineWork, Latency,
    Outcome, Quality, RunConfig, Scale,
};
use dapc_core::engine::SolveConfig;
use dapc_core::params::ScaleKnobs;
use dapc_graph::{gen, Graph};
use dapc_ilp::hash::{fnv1a, fnv1a_u64, FNV_OFFSET};
use dapc_ilp::{problems, verify, IlpInstance, Sense, SolverBudget};
use dapc_runtime::{
    solve_many_streaming_with_cache, Corpus, JobResult, PrepCache, RuntimeConfig, StreamReport,
};
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One corpus of a sweep round and whether it computes reference optima.
struct Sweep {
    corpus: Corpus,
    optima: bool,
}

/// An instance whose optimum is known in closed form: `(name, OPT, sense)`.
type KnownOptimum = (String, u64, Sense);

/// Reference optimum per instance name: `(value, proven exact, sense)`.
type Reference = BTreeMap<String, (u64, bool, Sense)>;

struct Inputs {
    sweeps: Vec<Sweep>,
    reference: Reference,
    gen_s: f64,
    optimum_s: f64,
    optimum_attempts: usize,
    optimum_exact: usize,
}

/// The streamed outcome of one job.
struct JobOut {
    key: String,
    eps: f64,
    instance: String,
    value: u64,
    rounds: usize,
    feasible: bool,
    /// Time from the sweep's start to the job's in-order delivery.
    delivered: Duration,
}

/// The E3/E4/E5 instances, with the experiments' own generator seeds:
/// the workload seed drives the jobs' seeds, not the graphs.
fn graph_instances(scale: Scale) -> Vec<(String, IlpInstance)> {
    let rng = gen::seeded_rng;
    if scale == Scale::Tiny {
        return vec![
            (
                "MIS/cycle".into(),
                problems::max_independent_set_unweighted(&gen::cycle(12)),
            ),
            (
                "VC/grid".into(),
                problems::min_vertex_cover_unweighted(&gen::grid(3, 4)),
            ),
        ];
    }
    let mis: Vec<(&str, Graph)> = vec![
        ("cycle", gen::cycle(40)),
        ("grid", gen::grid(6, 7)),
        ("gnp", gen::gnp(44, 0.07, &mut rng(1))),
        ("tree", gen::random_tree(42, &mut rng(2))),
        ("reg4", gen::random_regular(40, 4, &mut rng(3))),
    ];
    let matching: Vec<(&str, Graph)> = vec![
        ("cycle", gen::cycle(36)),
        ("path", gen::path(40)),
        ("gnp", gen::gnp(36, 0.08, &mut rng(6))),
        ("reg3", gen::random_regular(36, 3, &mut rng(7))),
        ("grid", gen::grid(5, 7)),
    ];
    let mut out: Vec<(String, IlpInstance)> = Vec::new();
    for (name, g) in &mis {
        out.push((
            format!("MIS/{name}"),
            problems::max_independent_set_unweighted(g),
        ));
    }
    for (name, g) in &matching {
        out.push((format!("MM/{name}"), problems::max_matching(g).ilp));
    }
    out.push((
        "VC/cycle".into(),
        problems::min_vertex_cover_unweighted(&gen::cycle(36)),
    ));
    out.push((
        "VC/gnp".into(),
        problems::min_vertex_cover_unweighted(&gen::gnp(32, 0.1, &mut rng(8))),
    ));
    out.push((
        "DS/cycle".into(),
        problems::min_dominating_set_unweighted(&gen::cycle(33)),
    ));
    out.push((
        "DS/grid".into(),
        problems::min_dominating_set_unweighted(&gen::grid(5, 6)),
    ));
    out
}

/// The long-cycle carving corpora: the carve radius sits below the
/// diameter, so the phases genuinely delete. `OPT = n/2`.
fn long_cycles(scale: Scale, seeds: Range<u64>) -> Vec<(Corpus, KnownOptimum)> {
    let n = if scale == Scale::Tiny { 120 } else { 1500 };
    let knobs = |r_scale| {
        SolveConfig::new().knobs(ScaleKnobs {
            r_scale,
            ..ScaleKnobs::default()
        })
    };
    let mis = format!("MIS/cycle{n}");
    let vc = format!("VC/cycle{n}");
    vec![
        (
            Corpus::builder()
                .instance(
                    &mis,
                    problems::max_independent_set_unweighted(&gen::cycle(n)),
                )
                .backend("three-phase")
                .eps_grid([0.2, 0.3])
                .seeds(seeds.clone())
                .base_config(knobs(0.1))
                .build(),
            (mis, (n / 2) as u64, Sense::Packing),
        ),
        (
            Corpus::builder()
                .instance(&vc, problems::min_vertex_cover_unweighted(&gen::cycle(n)))
                .backend("three-phase")
                .eps_grid([0.3, 0.4])
                .seeds(seeds)
                .base_config(knobs(0.3))
                .build(),
            (vc, (n / 2) as u64, Sense::Covering),
        ),
    ]
}

fn setup(cfg: &RunConfig) -> Inputs {
    let (job_seeds, eps): (u64, &[f64]) = match cfg.scale {
        Scale::Full => (4, &[0.1, 0.2, 0.3]),
        Scale::Tiny => (1, &[0.3]),
    };
    // Consecutive seed ranges per workload seed, so distinct workload
    // seeds never share a job.
    let first = (cfg.seed % 1_000_000_000) * job_seeds;
    let ((instances, long), gen_t) = timed(|| {
        (
            graph_instances(cfg.scale),
            long_cycles(cfg.scale, first..first + job_seeds.min(2)),
        )
    });
    let budget = SolverBudget::default();
    let mut reference = Reference::new();
    let (mut optimum_t, mut exact) = (Duration::ZERO, 0usize);
    for (name, ilp) in &instances {
        let ((opt, is_exact), t) = timed(|| verify::optimum(ilp, &budget));
        optimum_t += t;
        exact += usize::from(is_exact);
        reference.insert(name.clone(), (opt, is_exact, ilp.sense()));
    }
    let attempts = instances.len();
    let mut b = Corpus::builder()
        .backends(["three-phase", "gkm"])
        .eps_grid(eps.iter().copied())
        .seeds(first..first + job_seeds);
    for (name, ilp) in instances {
        b = b.instance(name, ilp);
    }
    let mut sweeps = vec![Sweep {
        corpus: b.build(),
        optima: true,
    }];
    for (corpus, (name, opt, sense)) in long {
        reference.insert(name, (opt, true, sense));
        sweeps.push(Sweep {
            corpus,
            optima: false,
        });
    }
    Inputs {
        sweeps,
        reference,
        gen_s: secs(gen_t),
        optimum_s: secs(optimum_t),
        optimum_attempts: attempts,
        optimum_exact: exact,
    }
}

/// Runs one corpus with a fresh cache, returning its jobs in canonical
/// order and the runtime's report.
fn sweep(s: &Sweep, workers: usize, start: Instant) -> (Vec<JobOut>, StreamReport) {
    let sink: Arc<Mutex<Vec<JobOut>>> = Arc::new(Mutex::new(Vec::with_capacity(s.corpus.len())));
    let hook_sink = Arc::clone(&sink);
    let rt = RuntimeConfig::new()
        .jobs(workers)
        .prep_workers(workers)
        .reference_optima(s.optima);
    let report =
        solve_many_streaming_with_cache(&s.corpus, &rt, &PrepCache::new(), move |r: JobResult| {
            let out = JobOut {
                key: r.key.to_string(),
                eps: r.key.eps,
                instance: r.key.instance.clone(),
                value: r.report.value,
                rounds: dapc_local::RoundCost::rounds(&r.report),
                feasible: r.report.feasible(),
                delivered: start.elapsed(),
            };
            hook_sink.lock().expect("job sink poisoned").push(out);
        });
    let jobs = std::mem::take(&mut *sink.lock().expect("job sink poisoned"));
    (jobs, report)
}

/// Per-layer figures gathered from traced sweeps.
#[derive(Default)]
struct Layers {
    sweep: Duration,
    optima_solves: u64,
    pumps: usize,
    peak_buffered: usize,
    cache_bytes: usize,
    cache_entries: usize,
}

/// Runs the workload.
pub fn run(cfg: &RunConfig) -> Outcome {
    let (inputs, setup_s) = median_setup(5, || setup(cfg));
    let workers = nproc();
    let mut out = Outcome::default();
    let mut latency = Latency::default();
    let mut first: Vec<u64> = Vec::new();
    let mut quality = Quality::default();
    let mut layers = Layers::default();
    let mut obs = ObsTotals::default();

    let blocks = drive(cfg, 2, |round, traced| {
        let mut run_round = |out: &mut Outcome| {
            let mut items = 0u64;
            for (si, s) in inputs.sweeps.iter().enumerate() {
                let start = Instant::now();
                let (jobs, report) = sweep(s, workers, start);
                let end = Instant::now();
                if traced {
                    layers.sweep += end - start;
                    layers.pumps = report.workers;
                    layers.peak_buffered = layers.peak_buffered.max(report.peak_buffered);
                    layers.cache_bytes += report.cache.bytes;
                    layers.cache_entries += report.cache.entries;
                    if s.optima {
                        layers.optima_solves += s.corpus.instance_names().len() as u64;
                    }
                    out.spans
                        .record("runtime.sweep", si as u64, None, start, end);
                }
                if s.optima && round == 0 {
                    check_runtime_optima(out, &report, &inputs.reference);
                }
                if jobs.len() != s.corpus.len() {
                    out.fail(format!(
                        "round {round} sweep {si}: {} of {} jobs delivered",
                        jobs.len(),
                        s.corpus.len()
                    ));
                }
                for (k, j) in jobs.iter().enumerate() {
                    out.attempted += 1;
                    items += 1;
                    if !traced {
                        latency.push(round, secs(j.delivered) * 1e3);
                    }
                    let d = fnv1a_u64(
                        fnv1a_u64(fnv1a(FNV_OFFSET, j.key.as_bytes()), j.value),
                        j.rounds as u64,
                    );
                    if round == 0 {
                        first.push(d);
                    }
                    if !j.feasible {
                        out.fail(format!("round {round}: {} infeasible", j.key));
                    } else if round == 0 {
                        quality.item(j.rounds as f64);
                        if let Some(&(opt, true, sense)) = inputs.reference.get(&j.instance) {
                            let (met, ratio) = judge(j.value, opt, sense, j.eps);
                            quality.judge(j.eps, met, ratio);
                        }
                    } else if first.get(items as usize - 1) != Some(&d) {
                        out.fail(format!(
                            "round {round}: {} differs from round 0 (job {k})",
                            j.key
                        ));
                    }
                }
            }
            items
        };
        if traced {
            obs.traced(|| run_round(&mut out))
        } else {
            run_round(&mut out)
        }
    });

    let jobs_per_round: usize = inputs.sweeps.iter().map(|s| s.corpus.len()).sum();
    out.note("rounds", blocks.len().to_string());
    out.note("jobs_per_round", jobs_per_round.to_string());
    out.note("workers", workers.to_string());
    out.note(
        "item_latency",
        "\"time from the sweep's start to the job's in-order delivery\"",
    );
    if cfg.trace {
        trace_overhead(&mut out, &blocks);
        layer_metrics(&mut out, &obs, &layers, &inputs);
    } else {
        out.set("setup_s", setup_s);
        let rate = untraced_rate(&mut out, &blocks);
        out.set("items_per_s", rate);
        latency.report(&mut out);
    }
    quality.report(&mut out);
    out
}

/// Whether a job met the paper's guarantee against an exact optimum, and
/// its quality ratio: ALG/OPT for packing, OPT/ALG for covering.
pub(crate) fn judge(value: u64, opt: u64, sense: Sense, eps: f64) -> (bool, f64) {
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            1.0
        } else {
            num as f64 / den as f64
        }
    };
    match sense {
        Sense::Packing => {
            let r = ratio(value, opt);
            (r + 1e-9 >= 1.0 - eps, r)
        }
        Sense::Covering => (ratio(value, opt) <= 1.0 + eps + 1e-9, ratio(opt, value)),
    }
}

/// Fails the run when a reference optimum the runtime proved exact
/// differs from `verify::optimum`'s exact value.
fn check_runtime_optima(out: &mut Outcome, report: &StreamReport, reference: &Reference) {
    for g in &report.groups {
        let (Some(opt), true) = (g.opt, g.opt_exact) else {
            continue;
        };
        match reference.get(&g.instance) {
            Some(&(want, true, _)) if want != opt => out.fail(format!(
                "{}: runtime reference optimum {opt} != verify::optimum {want}",
                g.instance
            )),
            None => out.fail(format!("{}: no reference optimum computed", g.instance)),
            _ => {}
        }
    }
}

/// The per-layer metrics of the traced sweeps; what the layers do not
/// claim of the sweeps' capacity (pump idleness, reorder and delivery)
/// is `unattributed_frac`.
fn layer_metrics(out: &mut Outcome, obs: &ObsTotals, l: &Layers, inputs: &Inputs) {
    out.set("graph.gen_s", inputs.gen_s);
    out.set("ilp.optimum_s", inputs.optimum_s);
    out.set("ilp.optimum_attempts", inputs.optimum_attempts as f64);
    out.set(
        "ilp.optimum_exact_frac",
        inputs.optimum_exact as f64 / inputs.optimum_attempts.max(1) as f64,
    );
    let (claimed, capacity) = engine_layers(
        out,
        obs,
        &EngineWork {
            sweep_s: secs(l.sweep),
            optima_solves: l.optima_solves,
            pumps: l.pumps,
            peak_buffered: Some(l.peak_buffered),
            bytes_per_entry: l.cache_bytes as f64 / l.cache_entries.max(1) as f64,
        },
    );
    out.set(
        "unattributed_frac",
        (1.0 - claimed / capacity.max(1e-9)).max(0.0),
    );
    out.absent(
        &[
            "decomp.three_phase_s",
            "decomp.elkin_neiman_s",
            "decomp.validate_s",
            "decomp.validate_sources",
            "decomp.clusters",
            "decomp.deleted",
        ],
        "batch-cold decomposes only inside the engine (see core.decompose_s) and never validates",
    );
    out.absent(&crate::daemon::SERVE_LAYER, "batch-cold runs no daemon");
}
