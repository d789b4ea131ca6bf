//! `daemon-mixed`: a resident in-process `dapc-serve` daemon with
//! `threads = nproc`, and one client connection sending `Sweep`
//! requests (`jobs = nproc`) back to back. Each cycle of eight requests
//! holds six repeats of three hot `CorpusSpec`s on fixed graphs (warm
//! cache: reads) and two fresh `gnp:N:P:SEED` graphs drawn from the
//! workload seed (cold: writes and cache growth). A 25% cold share keeps the median
//! inside the warm requests and the 90th percentile inside the cold ones.
//! One item is one request.
//!
//! This is the only workload that reuses the `PrepCache` across
//! requests, so it isolates annotation's non-solve work and the serve
//! framing: a change that helps `batch-cold` but slows warm lookups
//! shows here, and the reverse too.
//!
//! Checks: every `Job` frame's `(key, value, feasible, rounds)` equals
//! an in-process solve of the same job through the runtime, against a
//! cache of its own. Hot specs are solved during set-up and checked as
//! their frames arrive; the fresh instances, whose number depends on the
//! run's speed, are solved after the timed region. Every `Busy`, `Error`,
//! timeout or mismatch fails its request.

use crate::measure::{peak_rss_mib, secs, timed, ObsTotals, Samples};
use crate::record::nproc;
use crate::{
    drive, engine_layers, median_setup, trace_overhead, untraced_rate, EngineWork, Latency,
    Outcome, Quality, RunConfig, Scale,
};
use dapc_graph::{gen, Graph};
use dapc_ilp::hash::{fnv1a, fnv1a_u64, FNV_OFFSET};
use dapc_ilp::{problems, verify, IlpInstance, Sense, SolverBudget};
use dapc_runtime::{solve_many, RuntimeConfig};
use dapc_serve::proto::{read_frame, write_frame, Request, Response};
use dapc_serve::{client, CorpusSpec, Daemon, DaemonConfig, GraphSpec, Problem};
use rand::prelude::*;
use std::collections::BTreeMap;
use std::io;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The serve-layer metrics, absent on the workloads without a daemon.
pub const SERVE_LAYER: [&str; 9] = [
    "serve.request_warm_p50_ms",
    "serve.request_cold_p50_ms",
    "serve.first_frame_ms",
    "serve.overhead_ms",
    "serve.proto_s",
    "serve.cache_hit_rate_warm",
    "serve.cache_hit_rate_cold",
    "serve.busy",
    "serve.errors",
];

/// Requests per schedule cycle, and the cold ones among them.
const CYCLE: usize = 8;
const COLD_PER_CYCLE: usize = 2;

/// Requests per block of the closed loop (four cycles).
const BLOCK: usize = 4 * CYCLE;

/// Blocks whose jobs feed the quality metrics: the first of the
/// schedule, which every run completes, so the figures repeat exactly.
const QUALITY_BLOCKS: usize = 2;

/// Blocks after which `peak_rss_mb` is read.
const MEMORY_BLOCKS: usize = 10;

/// One job's checked outcome: `(key, value, feasible, rounds)`.
type Expected = (String, u64, bool, u64);

/// A hot spec with its expected frames and per-instance exact optima.
struct Hot {
    spec: CorpusSpec,
    expected: Vec<Expected>,
    optima: Optima,
}

/// A running in-process daemon; shut down and joined on drop.
struct Running {
    socket: PathBuf,
    thread: Option<JoinHandle<io::Result<()>>>,
}

impl Running {
    fn start(socket: &Path, threads: usize) -> io::Result<Self> {
        let daemon = Daemon::bind_with(
            socket,
            DaemonConfig {
                threads,
                queue: 16,
                deadline: Some(Duration::from_secs(60)),
            },
        )?;
        let thread = std::thread::Builder::new()
            .name("perfbench-daemon".into())
            .spawn(move || daemon.run())?;
        Ok(Running {
            socket: socket.to_path_buf(),
            thread: Some(thread),
        })
    }

    /// Asks the daemon to exit and joins it.
    fn stop(&mut self) -> io::Result<()> {
        let Some(thread) = self.thread.take() else {
            return Ok(());
        };
        let asked = client::shutdown(&self.socket);
        let joined = thread
            .join()
            .map_err(|_| io::Error::other("daemon thread panicked"))?;
        asked.and(joined)
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        let _ = self.stop();
    }
}

struct Inputs {
    hot: Vec<Hot>,
    daemon: Running,
    /// Daemon cache `(hits, misses)` after the warm-up.
    warm_cache: (u64, u64),
    gen_s: f64,
    optimum_s: f64,
    optimum_attempts: usize,
    optimum_exact: usize,
}

fn graph_of(spec: &GraphSpec) -> Graph {
    match *spec {
        GraphSpec::Path(n) => gen::path(n),
        GraphSpec::Cycle(n) => gen::cycle(n),
        GraphSpec::Complete(n) => gen::complete(n),
        GraphSpec::Star(n) => gen::star(n),
        GraphSpec::Grid(r, c) => gen::grid(r, c),
        GraphSpec::Gnp { n, p, seed } => gen::gnp(n, p, &mut gen::seeded_rng(seed)),
    }
}

fn ilp_of(problem: Problem, g: &Graph) -> IlpInstance {
    match problem {
        Problem::Mis => problems::max_independent_set_unweighted(g),
        Problem::Vc => problems::min_vertex_cover_unweighted(g),
        Problem::Ds => problems::min_dominating_set_unweighted(g),
    }
}

/// Expected frames of `spec`: every job solved in-process, in canonical
/// order, against a fresh cache of its own and with no
/// reference optima (caching never changes a report).
fn expected_frames(spec: &CorpusSpec) -> Vec<Expected> {
    let rt = RuntimeConfig::new().jobs(nproc()).reference_optima(false);
    solve_many(&spec.build(), &rt)
        .results
        .iter()
        .map(|r| {
            (
                r.key.to_string(),
                r.report.value,
                r.report.feasible(),
                dapc_local::RoundCost::rounds(&r.report) as u64,
            )
        })
        .collect()
}

/// Exact reference optima of a spec's instances (`None` where the budget
/// ran out), with the time spent generating and solving.
#[derive(Default)]
struct Optima {
    by_instance: BTreeMap<String, Option<(u64, Sense)>>,
    gen: Duration,
    solve: Duration,
}

fn optima_of(spec: &CorpusSpec) -> Optima {
    let mut o = Optima::default();
    for inst in &spec.instances {
        let (ilp, t) = timed(|| ilp_of(inst.problem, &graph_of(&inst.graph)));
        o.gen += t;
        let ((opt, exact), t) = timed(|| verify::optimum(&ilp, &SolverBudget::default()));
        o.solve += t;
        o.by_instance
            .insert(inst.name.clone(), exact.then_some((opt, ilp.sense())));
    }
    o
}

fn spec(tokens: &[String]) -> CorpusSpec {
    CorpusSpec::parse_args(tokens).expect("benchmark specs are valid")
}

/// The hot specs: each poses all three problems on one fixed G(n,p)
/// graph of the cold ones' size, so warm requests cost about the same
/// whichever spec they repeat; the workload seed picks their job seeds.
/// Four job seeds (48 jobs) keep a warm request's compute well above its
/// fixed framing and thread hand-off costs.
fn hot_specs(seed: u64, scale: Scale) -> Vec<CorpusSpec> {
    (1..=3)
        .map(|k| graph_spec(k, &format!("h{k}"), seed, 4, scale))
        .collect()
}

/// The fresh G(n,p) graph of cold request number `i`.
fn cold_spec(seed: u64, i: u64, scale: Scale) -> CorpusSpec {
    let graph_seed = fnv1a_u64(fnv1a_u64(FNV_OFFSET, seed), i);
    graph_spec(graph_seed, &format!("c{i}"), seed, 2, scale)
}

/// MIS, vertex cover and dominating set on one G(n,p) graph, under both
/// distributed backends, over ε and `job_seeds` job seeds.
fn graph_spec(graph_seed: u64, tag: &str, seed: u64, job_seeds: u64, scale: Scale) -> CorpusSpec {
    let (n, grid): (usize, &[&str]) = match scale {
        Scale::Full => (30, &["@backends=three-phase,gkm", "@eps=0.2,0.3"]),
        Scale::Tiny => (12, &["@backends=three-phase", "@eps=0.3"]),
    };
    let p = 4.0 / n as f64;
    let mut tokens: Vec<String> = ["mis", "vc", "ds"]
        .iter()
        .map(|prob| format!("{prob}-{tag}={prob}:gnp:{n}:{p}:{graph_seed}"))
        .collect();
    tokens.extend(grid.iter().map(|t| t.to_string()));
    let first = (seed % 1_000_000_000) * job_seeds;
    tokens.push(format!("@seeds={first}..{}", first + job_seeds));
    spec(&tokens)
}

/// Whether request `r` of the schedule is cold, and which hot spec a
/// warm one repeats.
fn schedule(seed: u64, r: usize, hot: usize) -> (bool, usize) {
    let cycle = (r / CYCLE) as u64;
    let mut rng = gen::seeded_rng(seed ^ cycle.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let mut slots: Vec<usize> = (0..CYCLE).collect();
    slots.shuffle(&mut rng);
    let pos = r % CYCLE;
    let cold = slots[..COLD_PER_CYCLE].contains(&pos);
    let pick = rng.random_range(0..hot.max(1) as u64) as usize;
    (cold, pick)
}

fn socket_path(seed: u64) -> PathBuf {
    PathBuf::from(".perfbench-out").join(format!("daemon-{}-{seed}.sock", std::process::id()))
}

fn setup(cfg: &RunConfig) -> io::Result<Inputs> {
    let (specs, mut gen_t) = timed(|| hot_specs(cfg.seed, cfg.scale));
    let mut hot = Vec::new();
    let (mut opt_t, mut attempts, mut exact) = (Duration::ZERO, 0, 0);
    for spec in specs {
        let optima = optima_of(&spec);
        gen_t += optima.gen;
        opt_t += optima.solve;
        attempts += optima.by_instance.len();
        exact += optima.by_instance.values().filter(|o| o.is_some()).count();
        let expected = expected_frames(&spec);
        hot.push(Hot {
            spec,
            expected,
            optima,
        });
    }
    let socket = socket_path(cfg.seed);
    std::fs::create_dir_all(socket.parent().expect("socket has a directory"))?;
    let daemon = Running::start(&socket, nproc())?;
    wait_ready(&socket)?;
    // Warm-up: every hot spec once, so the timed requests read a warm cache.
    let mut conn = Conn::open(&socket)?;
    let mut warm_cache = (0, 0);
    for h in &hot {
        let frames = conn.sweep(&h.spec, None)?;
        if let Some(e) = mismatch(&frames.jobs, &h.expected) {
            return Err(io::Error::other(format!("warm-up: {e}")));
        }
        warm_cache = (frames.cache_hits, frames.cache_misses);
    }
    Ok(Inputs {
        hot,
        daemon,
        warm_cache,
        gen_s: secs(gen_t),
        optimum_s: secs(opt_t),
        optimum_attempts: attempts,
        optimum_exact: exact,
    })
}

fn wait_ready(socket: &Path) -> io::Result<()> {
    let start = Instant::now();
    loop {
        match client::ping(socket) {
            Ok(_) => return Ok(()),
            Err(e) if start.elapsed() > Duration::from_secs(10) => return Err(e),
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

/// What the client saw of one sweep request.
struct Frames {
    jobs: Vec<Expected>,
    start: Instant,
    first_frame: Option<Duration>,
    latency: Duration,
    /// The daemon's lifetime cache counters after the request.
    cache_hits: u64,
    cache_misses: u64,
    /// The daemon's own wall time for the request (`Summary`).
    wall: Duration,
}

/// One client connection to the daemon.
struct Conn {
    stream: UnixStream,
}

impl Conn {
    fn open(socket: &Path) -> io::Result<Self> {
        let stream = UnixStream::connect(socket)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn { stream })
    }

    /// Sends one `Sweep` and drains its stream. With a timer, also adds
    /// the time spent encoding the request, decoding each response and
    /// re-encoding it, which must reproduce the received bytes.
    fn sweep(&mut self, spec: &CorpusSpec, mut proto: Option<&mut Duration>) -> io::Result<Frames> {
        let start = Instant::now();
        let req = Request::Sweep {
            spec: spec.clone(),
            jobs: nproc() as u64,
        };
        let (bytes, t) = timed(|| req.to_bytes());
        if let Some(p) = proto.as_deref_mut() {
            *p += t;
        }
        write_frame(&mut self.stream, &bytes)?;
        let mut jobs = Vec::new();
        let mut first_frame = None;
        loop {
            let body = read_frame(&mut self.stream)?.ok_or_else(|| {
                io::Error::new(io::ErrorKind::UnexpectedEof, "daemon closed mid-stream")
            })?;
            let (resp, t) = timed(|| Response::from_bytes(&body));
            let resp = resp?;
            if let Some(p) = proto.as_deref_mut() {
                let (again, t2) = timed(|| resp.to_bytes());
                *p += t + t2;
                if again != body {
                    return Err(io::Error::other("response does not re-encode to its bytes"));
                }
            }
            match resp {
                Response::Job {
                    key,
                    value,
                    feasible,
                    rounds,
                    ..
                } => {
                    first_frame.get_or_insert_with(|| start.elapsed());
                    jobs.push((key, value, feasible, rounds));
                }
                Response::Summary {
                    cache_hits,
                    cache_misses,
                    wall_micros,
                    ..
                } => {
                    return Ok(Frames {
                        jobs,
                        start,
                        first_frame,
                        latency: start.elapsed(),
                        cache_hits,
                        cache_misses,
                        wall: Duration::from_micros(wall_micros),
                    });
                }
                Response::Busy => {
                    return Err(io::Error::new(io::ErrorKind::WouldBlock, "daemon busy"))
                }
                Response::Error { message } => {
                    return Err(io::Error::other(format!("daemon error: {message}")))
                }
                other => return Err(io::Error::other(format!("unexpected response {other:?}"))),
            }
        }
    }
}

/// The first difference between received and expected frames, if any.
fn mismatch(got: &[Expected], want: &[Expected]) -> Option<String> {
    if got.len() != want.len() {
        return Some(format!("{} frames, expected {}", got.len(), want.len()));
    }
    got.iter()
        .zip(want)
        .find(|(g, w)| g != w)
        .map(|(g, w)| format!("frame {g:?} != in-process {w:?}"))
}

/// One completed request.
struct Done {
    index: usize,
    cold: bool,
    traced: bool,
    latency: Duration,
    first_frame: Option<Duration>,
    /// The daemon's own wall time for the request.
    wall: Duration,
    hits_delta: u64,
    lookups_delta: u64,
    /// Digest of the received frames; cold requests are checked against
    /// it after the timed region.
    digest: u64,
    /// The frames, kept only inside the quality window.
    jobs: Option<Vec<Expected>>,
    /// The hot spec a warm request repeated.
    spec_id: usize,
}

fn frames_digest(jobs: &[Expected]) -> u64 {
    jobs.iter()
        .fold(FNV_OFFSET, |h, (key, value, feasible, rounds)| {
            let h = fnv1a_u64(fnv1a(h, key.as_bytes()), *value);
            fnv1a_u64(fnv1a_u64(h, u64::from(*feasible)), *rounds)
        })
}

/// Runs the workload.
pub fn run(cfg: &RunConfig) -> Outcome {
    let mut out = Outcome::default();
    let mut failed_setup = None;
    let (inputs, setup_s) = median_setup(3, || match setup(cfg) {
        Ok(inputs) => Some(inputs),
        Err(e) => {
            failed_setup.get_or_insert(e.to_string());
            None
        }
    });
    if let Some(e) = failed_setup {
        out.fail(format!("set-up failed: {e}"));
        return out;
    }
    let mut inputs = inputs.expect("every set-up succeeded");
    let quality_requests = QUALITY_BLOCKS * BLOCK;
    let mut conn = match Conn::open(&inputs.daemon.socket) {
        Ok(c) => Some(c),
        Err(e) => {
            out.fail(format!("connect: {e}"));
            None
        }
    };
    let mut done: Vec<Done> = Vec::new();
    let mut cold_specs: BTreeMap<usize, CorpusSpec> = BTreeMap::new();
    let mut latency = Latency::default();
    let mut proto = Duration::ZERO;
    let mut obs = ObsTotals::default();
    let mut last_cache = inputs.warm_cache;
    let (mut busy, mut errors) = (0u64, 0u64);
    let mut next = 0usize;
    let mut memory = None;

    let blocks = drive(cfg, QUALITY_BLOCKS, |block, traced| {
        let mut requests = |out: &mut Outcome| {
            for _ in 0..BLOCK {
                let r = next;
                next += 1;
                let (cold, pick) = schedule(cfg.seed, r, inputs.hot.len());
                let spec = if cold {
                    let s = cold_spec(cfg.seed, cold_specs.len() as u64, cfg.scale);
                    cold_specs.insert(r, s.clone());
                    s
                } else {
                    inputs.hot[pick].spec.clone()
                };
                out.attempted += 1;
                let Some(c) = conn.as_mut() else {
                    out.fail(format!("request {r}: no connection"));
                    continue;
                };
                let frames = match c.sweep(&spec, traced.then_some(&mut proto)) {
                    Ok(frames) => frames,
                    Err(e) => {
                        if e.kind() == io::ErrorKind::WouldBlock {
                            busy += 1;
                        } else {
                            errors += 1;
                        }
                        out.fail(format!("request {r}: {e}"));
                        conn = Conn::open(&inputs.daemon.socket).ok();
                        continue;
                    }
                };
                if !cold {
                    if let Some(e) = mismatch(&frames.jobs, &inputs.hot[pick].expected) {
                        out.fail(format!("request {r}: {e}"));
                    }
                }
                if traced {
                    let end = frames.start + frames.latency;
                    let parent =
                        out.spans
                            .record("serve.request", r as u64, None, frames.start, end);
                    if let Some(f) = frames.first_frame {
                        let first = frames.start + f;
                        out.spans.record(
                            "serve.first_frame",
                            r as u64,
                            Some(parent),
                            frames.start,
                            first,
                        );
                    }
                } else {
                    latency.push(block, secs(frames.latency) * 1e3);
                }
                // The summary's counters are the daemon's lifetime totals;
                // with one client, consecutive differences are this
                // request's own.
                let now = (frames.cache_hits, frames.cache_misses);
                let hits_delta = now.0.saturating_sub(last_cache.0);
                let lookups_delta = (now.0 + now.1).saturating_sub(last_cache.0 + last_cache.1);
                last_cache = now;
                done.push(Done {
                    index: r,
                    cold,
                    traced,
                    latency: frames.latency,
                    first_frame: frames.first_frame,
                    wall: frames.wall,
                    hits_delta,
                    lookups_delta,
                    digest: frames_digest(&frames.jobs),
                    jobs: (r < quality_requests).then_some(frames.jobs),
                    spec_id: pick,
                });
            }
            if block + 1 == MEMORY_BLOCKS {
                memory = peak_rss_mib();
            }
            BLOCK as u64
        };
        if traced {
            obs.traced(|| requests(&mut out))
        } else {
            requests(&mut out)
        }
    });
    drop(conn);

    // Cold frames against in-process solves made now; the quality window
    // against exact optima.
    let mut quality = Quality::default();
    let mut post_check = Duration::ZERO;
    for d in &done {
        let cold_optima;
        let optima = if d.cold {
            let spec = &cold_specs[&d.index];
            let (expected, t) = timed(|| expected_frames(spec));
            post_check += t;
            if frames_digest(&expected) != d.digest {
                out.fail(format!(
                    "request {}: frames differ from the in-process solve",
                    d.index
                ));
                continue;
            }
            cold_optima = d.jobs.as_ref().map(|_| optima_of(spec));
            cold_optima.as_ref()
        } else {
            Some(&inputs.hot[d.spec_id].optima)
        };
        let (Some(jobs), Some(optima)) = (&d.jobs, optima) else {
            continue;
        };
        for (key, value, _, rounds) in jobs {
            quality.item(*rounds as f64);
            let Some((instance, eps)) = parse_key(key) else {
                continue;
            };
            if let Some(Some((opt, sense))) = optima.by_instance.get(instance) {
                let (met, ratio) = crate::batch::judge(*value, *opt, *sense, eps);
                quality.judge(eps, met, ratio);
            }
        }
    }
    if done.iter().filter(|d| d.jobs.is_some()).count() < quality_requests {
        out.fail("the quality window of the schedule did not complete");
    }

    let class_p50 = |cold: bool| {
        let mut s = Samples::default();
        for d in done
            .iter()
            .filter(|d| d.traced == cfg.trace && d.cold == cold)
        {
            s.push(secs(d.latency) * 1e3);
        }
        s.median()
    };
    out.note("requests", next.to_string());
    out.note("cold_requests", cold_specs.len().to_string());
    out.note("cold_post_check_s", format!("{:?}", secs(post_check)));
    if cfg.trace {
        trace_overhead(&mut out, &blocks);
        let traced: Vec<&Done> = done.iter().filter(|d| d.traced).collect();
        let class_rate = |cold: bool| {
            let (h, l) = traced
                .iter()
                .filter(|d| d.cold == cold)
                .fold((0u64, 0u64), |(h, l), d| {
                    (h + d.hits_delta, l + d.lookups_delta)
                });
            h as f64 / l.max(1) as f64
        };
        let mut first = Samples::default();
        let mut overhead = Samples::default();
        let (mut client_s, mut wall_s) = (0f64, 0f64);
        for d in &traced {
            client_s += secs(d.latency);
            wall_s += secs(d.wall);
            overhead.push((secs(d.latency) - secs(d.wall)) * 1e3);
            if let Some(f) = d.first_frame {
                first.push(secs(f) * 1e3);
            }
        }
        out.set("graph.gen_s", inputs.gen_s);
        out.set("ilp.optimum_s", inputs.optimum_s);
        out.set("ilp.optimum_attempts", inputs.optimum_attempts as f64);
        out.set(
            "ilp.optimum_exact_frac",
            inputs.optimum_exact as f64 / inputs.optimum_attempts.max(1) as f64,
        );
        out.set("serve.request_warm_p50_ms", class_p50(false));
        out.set("serve.request_cold_p50_ms", class_p50(true));
        out.set("serve.first_frame_ms", first.median());
        out.set("serve.overhead_ms", overhead.median());
        out.set("serve.proto_s", secs(proto));
        out.set("serve.cache_hit_rate_warm", class_rate(false));
        out.set("serve.cache_hit_rate_cold", class_rate(true));
        out.set("serve.busy", busy as f64);
        out.set("serve.errors", errors as f64);
        // Each cold instance misses the cache once for its reference
        // optimum; warm requests' optima are cache hits.
        let cold_instances: u64 = traced
            .iter()
            .filter(|d| d.cold)
            .map(|d| cold_specs[&d.index].instances.len() as u64)
            .sum();
        let entries = obs.counter("core.subset_cache.misses") as f64
            - obs.counter("core.subset_cache.evictions") as f64;
        engine_layers(
            &mut out,
            &obs,
            &EngineWork {
                sweep_s: wall_s,
                optima_solves: cold_instances,
                pumps: nproc(),
                peak_buffered: None,
                bytes_per_entry: obs.gauge_change("core.subset_cache.bytes") / entries.max(1.0),
            },
        );
        out.set(
            "unattributed_frac",
            (1.0 - (wall_s + secs(proto)) / client_s.max(1e-9)).max(0.0),
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
            "daemon-mixed decomposes only inside the engine (see core.decompose_s) and never validates",
        );
        out.absent(
            &["runtime.peak_buffered"],
            "the daemon protocol does not expose the reorder buffer's high-water mark",
        );
    } else {
        out.set("setup_s", setup_s);
        let rate = untraced_rate(&mut out, &blocks);
        out.set("items_per_s", rate);
        latency.report(&mut out);
        out.note("warm_p50_ms", format!("{:?}", class_p50(false)));
        out.note("cold_p50_ms", format!("{:?}", class_p50(true)));
        // Read after a fixed number of requests, so the figure covers a
        // fixed amount of cache growth, not however much a run's speed
        // allows; the final figure stands in for runs that end sooner.
        let at = if memory.is_some() {
            MEMORY_BLOCKS * BLOCK
        } else {
            next
        };
        if let Some(mib) = memory.or_else(peak_rss_mib) {
            out.set("peak_rss_mb", mib);
        }
        out.note("peak_rss_after_requests", at.to_string());
    }
    quality.report(&mut out);
    if let Err(e) = inputs.daemon.stop() {
        out.fail(format!("daemon shutdown: {e}"));
    }
    out
}

/// Splits a job key `instance/backend/eps<ε>/seed<s>` into the instance
/// name and ε.
fn parse_key(key: &str) -> Option<(&str, f64)> {
    let mut parts = key.rsplitn(4, '/');
    let _seed = parts.next()?;
    let eps = parts.next()?.strip_prefix("eps")?.parse().ok()?;
    let _backend = parts.next()?;
    Some((parts.next()?, eps))
}
