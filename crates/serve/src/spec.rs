//! Declarative, serialisable sweep descriptions.
//!
//! A [`CorpusSpec`] is the unit of agreement between the three parties of
//! an orchestrated sweep: the CLI that states what to solve, the
//! checkpoint manifest that pins a directory to one sweep, and the
//! daemon that receives work over a socket. It names what a
//! [`dapc_runtime::Corpus`] holds by value — generated instances,
//! backends, the ε grid, seeds — in a form that can be parsed from
//! command-line tokens, shipped as versioned bytes, and rebuilt into the
//! identical corpus in any process.
//!
//! Unlike [`dapc_runtime::CorpusBuilder`], whose `build` asserts,
//! [`CorpusSpec::validate`] returns errors: specs arrive from sockets
//! and untrusted checkpoint directories, where malformed input must be
//! an `Err` for the caller, never a panic in the server.

use dapc_core::engine;
use dapc_graph::{gen, Graph};
use dapc_ilp::{problems, IlpInstance};
use dapc_runtime::{snap, Corpus};
use std::io;
use std::ops::Range;

/// Magic + version prefix of the spec's binary form (see
/// [`CorpusSpec::save_to`]).
pub const SPEC_MAGIC: &[u8; 8] = dapc_core::snapmagic::SPEC.bytes;

/// Caps applied by [`CorpusSpec::validate`] so a hostile spec cannot
/// talk a server into unbounded work: instances per corpus, vertices per
/// generated graph, backends, ε values, and seeds per sweep.
pub const SPEC_LIMITS: SpecLimits = SpecLimits {
    instances: 64,
    vertices: 4096,
    backends: 16,
    eps: 16,
    seeds: 4096,
};

/// The caps of [`SPEC_LIMITS`], named.
#[derive(Clone, Copy, Debug)]
pub struct SpecLimits {
    /// Maximum instances per corpus.
    pub instances: usize,
    /// Maximum vertices per generated graph.
    pub vertices: usize,
    /// Maximum backends per corpus.
    pub backends: usize,
    /// Maximum ε values per corpus.
    pub eps: usize,
    /// Maximum seeds per corpus.
    pub seeds: usize,
}

/// The covering/packing problem an instance poses on its graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Problem {
    /// Maximum independent set (packing).
    Mis,
    /// Minimum vertex cover (covering).
    Vc,
    /// Minimum dominating set (covering).
    Ds,
}

impl Problem {
    fn token(self) -> &'static str {
        match self {
            Problem::Mis => "mis",
            Problem::Vc => "vc",
            Problem::Ds => "ds",
        }
    }

    fn from_token(t: &str) -> Option<Self> {
        match t {
            "mis" => Some(Problem::Mis),
            "vc" => Some(Problem::Vc),
            "ds" => Some(Problem::Ds),
            _ => None,
        }
    }

    fn pose(self, g: &Graph) -> IlpInstance {
        match self {
            Problem::Mis => problems::max_independent_set_unweighted(g),
            Problem::Vc => problems::min_vertex_cover_unweighted(g),
            Problem::Ds => problems::min_dominating_set_unweighted(g),
        }
    }
}

impl std::fmt::Display for Problem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.token())
    }
}

impl std::fmt::Display for InstanceSpec {
    /// The parseable token form: `name=problem:graph`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}={}:{}", self.name, self.problem, self.graph)
    }
}

/// A generated graph, named by family and parameters. Generation is
/// deterministic (G(n,p) takes its RNG seed from the spec), so every
/// process rebuilding the spec solves bit-identical instances.
#[derive(Clone, Debug, PartialEq)]
pub enum GraphSpec {
    /// Path on `n` vertices.
    Path(usize),
    /// Cycle on `n` vertices.
    Cycle(usize),
    /// Complete graph on `n` vertices.
    Complete(usize),
    /// Star with `n - 1` leaves.
    Star(usize),
    /// Grid of `rows × cols` vertices.
    Grid(usize, usize),
    /// Erdős–Rényi G(n, p) drawn from the seeded generator RNG.
    Gnp {
        /// Vertices.
        n: usize,
        /// Edge probability.
        p: f64,
        /// Generator RNG seed.
        seed: u64,
    },
}

impl GraphSpec {
    fn vertices(&self) -> usize {
        match *self {
            GraphSpec::Path(n)
            | GraphSpec::Cycle(n)
            | GraphSpec::Complete(n)
            | GraphSpec::Star(n)
            | GraphSpec::Gnp { n, .. } => n,
            GraphSpec::Grid(r, c) => r.saturating_mul(c),
        }
    }

    fn generate(&self) -> Graph {
        match *self {
            GraphSpec::Path(n) => gen::path(n),
            GraphSpec::Cycle(n) => gen::cycle(n),
            GraphSpec::Complete(n) => gen::complete(n),
            GraphSpec::Star(n) => gen::star(n),
            GraphSpec::Grid(r, c) => gen::grid(r, c),
            GraphSpec::Gnp { n, p, seed } => gen::gnp(n, p, &mut gen::seeded_rng(seed)),
        }
    }
}

impl std::fmt::Display for GraphSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            GraphSpec::Path(n) => write!(f, "path:{n}"),
            GraphSpec::Cycle(n) => write!(f, "cycle:{n}"),
            GraphSpec::Complete(n) => write!(f, "complete:{n}"),
            GraphSpec::Star(n) => write!(f, "star:{n}"),
            GraphSpec::Grid(r, c) => write!(f, "grid:{r}x{c}"),
            GraphSpec::Gnp { n, p, seed } => write!(f, "gnp:{n}:{p}:{seed}"),
        }
    }
}

/// One named instance of the sweep: a problem posed on a generated
/// graph.
#[derive(Clone, Debug, PartialEq)]
pub struct InstanceSpec {
    /// Corpus-unique instance name.
    pub name: String,
    /// Which ILP to pose.
    pub problem: Problem,
    /// Which graph to pose it on.
    pub graph: GraphSpec,
}

/// A complete sweep description; build the runnable corpus with
/// [`CorpusSpec::build`].
///
/// # Examples
///
/// ```
/// use dapc_serve::CorpusSpec;
///
/// let spec = CorpusSpec::parse_args([
///     "ring=mis:cycle:12",
///     "cover=vc:grid:3x4",
///     "@backends=greedy,bnb",
///     "@eps=0.3",
///     "@seeds=0..2",
/// ])
/// .unwrap();
/// assert_eq!(spec.build().len(), 2 * 2 * 1 * 2);
///
/// // The binary form round-trips and is canonical.
/// let mut bytes = Vec::new();
/// spec.save_to(&mut bytes).unwrap();
/// assert_eq!(CorpusSpec::load_from(bytes.as_slice()).unwrap(), spec);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct CorpusSpec {
    /// The named instances, in canonical (insertion) order.
    pub instances: Vec<InstanceSpec>,
    /// Engine registry keys of the backends to run.
    pub backends: Vec<String>,
    /// The ε grid.
    pub eps_grid: Vec<f64>,
    /// The seed range.
    pub seeds: Range<u64>,
    /// Ensemble runs per job (`0` = the engine default).
    pub ensemble_runs: usize,
}

impl CorpusSpec {
    /// Parses command-line tokens: each positional token is an instance
    /// `name=problem:graph` (problems `mis`/`vc`/`ds`; graphs `path:N`,
    /// `cycle:N`, `complete:N`, `star:N`, `grid:RxC`, `gnp:N:P:SEED`),
    /// and `@`-tokens set the grid — `@backends=a,b`, `@eps=0.2,0.3`,
    /// `@seeds=A..B`, `@ensemble=N`. The parsed spec is validated.
    ///
    /// # Errors
    ///
    /// Fails with [`io::ErrorKind::InvalidData`] on any malformed token
    /// or a spec rejected by [`CorpusSpec::validate`].
    pub fn parse_args<I, S>(tokens: I) -> io::Result<Self>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut spec = CorpusSpec {
            instances: Vec::new(),
            backends: Vec::new(),
            eps_grid: Vec::new(),
            seeds: 0..1,
            ensemble_runs: 0,
        };
        for token in tokens {
            let token = token.as_ref();
            if let Some(rest) = token.strip_prefix('@') {
                let (key, value) = rest
                    .split_once('=')
                    .ok_or_else(|| snap::invalid(format!("expected @key=value, got {token:?}")))?;
                match key {
                    "backends" => {
                        spec.backends = value.split(',').map(str::to_string).collect();
                    }
                    "eps" => {
                        spec.eps_grid = value
                            .split(',')
                            .map(|e| {
                                e.parse::<f64>()
                                    .map_err(|_| snap::invalid(format!("bad eps value {e:?}")))
                            })
                            .collect::<io::Result<_>>()?;
                    }
                    "seeds" => {
                        let (a, b) = value.split_once("..").ok_or_else(|| {
                            snap::invalid(format!("expected @seeds=A..B, got {value:?}"))
                        })?;
                        let parse = |s: &str| {
                            s.parse::<u64>()
                                .map_err(|_| snap::invalid(format!("bad seed bound {s:?}")))
                        };
                        spec.seeds = parse(a)?..parse(b)?;
                    }
                    "ensemble" => {
                        spec.ensemble_runs = value
                            .parse::<usize>()
                            .map_err(|_| snap::invalid(format!("bad ensemble count {value:?}")))?;
                    }
                    _ => return Err(snap::invalid(format!("unknown spec key @{key}"))),
                }
            } else {
                spec.instances.push(parse_instance(token)?);
            }
        }
        if spec.backends.is_empty() {
            spec.backends = engine::BACKENDS.iter().map(|s| s.to_string()).collect();
        }
        if spec.eps_grid.is_empty() {
            spec.eps_grid.push(0.3);
        }
        spec.validate()?;
        Ok(spec)
    }

    /// Checks everything [`CorpusSpec::build`] would otherwise panic on,
    /// plus the [`SPEC_LIMITS`] resource caps, as errors — the contract
    /// that makes specs safe to accept from sockets and on-disk
    /// manifests.
    ///
    /// # Errors
    ///
    /// Fails with [`io::ErrorKind::InvalidData`] naming the offending
    /// field: empty or duplicate instances/backends/ε values, unknown
    /// backend keys, ε outside `(0, 1)`, an empty seed range, zero-vertex
    /// graphs, or any cap exceeded.
    pub fn validate(&self) -> io::Result<()> {
        let l = SPEC_LIMITS;
        if self.instances.is_empty() {
            return Err(snap::invalid("spec has no instances"));
        }
        if self.instances.len() > l.instances {
            return Err(snap::invalid(format!(
                "{} instances exceed the cap of {}",
                self.instances.len(),
                l.instances
            )));
        }
        for (i, inst) in self.instances.iter().enumerate() {
            if inst.name.is_empty() || inst.name.len() > 128 {
                return Err(snap::invalid(format!(
                    "instance name {:?} is empty or too long",
                    inst.name
                )));
            }
            if self.instances[..i].iter().any(|p| p.name == inst.name) {
                return Err(snap::invalid(format!(
                    "duplicate instance name {:?}",
                    inst.name
                )));
            }
            let n = inst.graph.vertices();
            if n == 0 {
                return Err(snap::invalid(format!(
                    "instance {:?} has no vertices",
                    inst.name
                )));
            }
            if n > l.vertices {
                return Err(snap::invalid(format!(
                    "instance {:?} has {n} vertices, cap is {}",
                    inst.name, l.vertices
                )));
            }
            if let GraphSpec::Gnp { p, .. } = inst.graph {
                if !(0.0..=1.0).contains(&p) {
                    return Err(snap::invalid(format!(
                        "instance {:?} has edge probability {p} outside [0, 1]",
                        inst.name
                    )));
                }
            }
        }
        if self.backends.is_empty() || self.backends.len() > l.backends {
            return Err(snap::invalid(format!(
                "{} backends (need 1..={})",
                self.backends.len(),
                l.backends
            )));
        }
        for (i, b) in self.backends.iter().enumerate() {
            if engine::backend(b).is_none() {
                return Err(snap::invalid(format!("unknown backend {b:?}")));
            }
            if self.backends[..i].contains(b) {
                return Err(snap::invalid(format!("duplicate backend {b:?}")));
            }
        }
        if self.eps_grid.is_empty() || self.eps_grid.len() > l.eps {
            return Err(snap::invalid(format!(
                "{} eps values (need 1..={})",
                self.eps_grid.len(),
                l.eps
            )));
        }
        for (i, &e) in self.eps_grid.iter().enumerate() {
            if !(e > 0.0 && e < 1.0) {
                return Err(snap::invalid(format!("eps {e} outside (0, 1)")));
            }
            if self.eps_grid[..i]
                .iter()
                .any(|p| p.to_bits() == e.to_bits())
            {
                return Err(snap::invalid(format!("duplicate eps {e}")));
            }
        }
        if self.seeds.is_empty() {
            return Err(snap::invalid("empty seed range"));
        }
        let span = self.seeds.end - self.seeds.start;
        if span > l.seeds as u64 {
            return Err(snap::invalid(format!(
                "{span} seeds exceed the cap of {}",
                l.seeds
            )));
        }
        if self.ensemble_runs > 64 {
            return Err(snap::invalid(format!(
                "{} ensemble runs exceed the cap of 64",
                self.ensemble_runs
            )));
        }
        Ok(())
    }

    /// Generates every instance and freezes the runnable corpus. Call
    /// [`CorpusSpec::validate`] first on untrusted specs — `build`
    /// delegates to [`Corpus::builder`], which panics on invalid input
    /// (every such input is caught by `validate`).
    pub fn build(&self) -> Corpus {
        let mut b = Corpus::builder()
            .backends(self.backends.iter().cloned())
            .eps_grid(self.eps_grid.iter().copied())
            .seeds(self.seeds.clone());
        if self.ensemble_runs > 0 {
            b = b.base_config(
                dapc_core::engine::SolveConfig::new().ensemble_runs(self.ensemble_runs),
            );
        }
        for inst in &self.instances {
            b = b.instance(&inst.name, inst.problem.pose(&inst.graph.generate()));
        }
        b.build()
    }

    /// Writes the spec's canonical binary form (magic [`SPEC_MAGIC`],
    /// then instances, backends, ε bits, seeds and ensemble count, all
    /// length-prefixed little-endian).
    ///
    /// # Errors
    ///
    /// Propagates writer errors.
    pub fn save_to<W: io::Write>(&self, mut w: W) -> io::Result<()> {
        w.write_all(SPEC_MAGIC)?;
        snap::write_u64(&mut w, self.instances.len() as u64)?;
        for inst in &self.instances {
            snap::write_str(&mut w, &inst.name)?;
            let problem = match inst.problem {
                Problem::Mis => 0u8,
                Problem::Vc => 1,
                Problem::Ds => 2,
            };
            w.write_all(&[problem])?;
            match inst.graph {
                GraphSpec::Path(n) => {
                    w.write_all(&[0])?;
                    snap::write_u64(&mut w, n as u64)?;
                }
                GraphSpec::Cycle(n) => {
                    w.write_all(&[1])?;
                    snap::write_u64(&mut w, n as u64)?;
                }
                GraphSpec::Complete(n) => {
                    w.write_all(&[2])?;
                    snap::write_u64(&mut w, n as u64)?;
                }
                GraphSpec::Star(n) => {
                    w.write_all(&[3])?;
                    snap::write_u64(&mut w, n as u64)?;
                }
                GraphSpec::Grid(r, c) => {
                    w.write_all(&[4])?;
                    snap::write_u64(&mut w, r as u64)?;
                    snap::write_u64(&mut w, c as u64)?;
                }
                GraphSpec::Gnp { n, p, seed } => {
                    w.write_all(&[5])?;
                    snap::write_u64(&mut w, n as u64)?;
                    snap::write_u64(&mut w, p.to_bits())?;
                    snap::write_u64(&mut w, seed)?;
                }
            }
        }
        snap::write_u64(&mut w, self.backends.len() as u64)?;
        for b in &self.backends {
            snap::write_str(&mut w, b)?;
        }
        snap::write_u64(&mut w, self.eps_grid.len() as u64)?;
        for &e in &self.eps_grid {
            snap::write_u64(&mut w, e.to_bits())?;
        }
        snap::write_u64(&mut w, self.seeds.start)?;
        snap::write_u64(&mut w, self.seeds.end)?;
        snap::write_u64(&mut w, self.ensemble_runs as u64)?;
        Ok(())
    }

    /// Reads a spec written by [`CorpusSpec::save_to`] and validates it.
    /// All-or-nothing: no count field drives an allocation beyond the
    /// [`SPEC_LIMITS`] caps, truncation at any byte is an `Err`, and the
    /// loaded spec passes [`CorpusSpec::validate`] before being returned.
    ///
    /// # Errors
    ///
    /// Fails with [`io::ErrorKind::InvalidData`] on a bad magic or
    /// version, an out-of-range tag or count, or a spec `validate`
    /// rejects; with [`io::ErrorKind::UnexpectedEof`] on truncation.
    pub fn load_from<R: io::Read>(mut r: R) -> io::Result<Self> {
        snap::check_magic(&mut r, SPEC_MAGIC, "corpus-spec")?;
        let l = SPEC_LIMITS;
        let instances = read_count(&mut r, l.instances, "instances")?;
        let instances = (0..instances)
            .map(|_| {
                let name = snap::read_str(&mut r, "instance name")?;
                let problem = match snap::read_u8(&mut r)? {
                    0 => Problem::Mis,
                    1 => Problem::Vc,
                    2 => Problem::Ds,
                    t => return Err(snap::invalid(format!("unknown problem tag {t}"))),
                };
                let graph = match snap::read_u8(&mut r)? {
                    0 => GraphSpec::Path(snap::read_u64(&mut r)? as usize),
                    1 => GraphSpec::Cycle(snap::read_u64(&mut r)? as usize),
                    2 => GraphSpec::Complete(snap::read_u64(&mut r)? as usize),
                    3 => GraphSpec::Star(snap::read_u64(&mut r)? as usize),
                    4 => GraphSpec::Grid(
                        snap::read_u64(&mut r)? as usize,
                        snap::read_u64(&mut r)? as usize,
                    ),
                    5 => GraphSpec::Gnp {
                        n: snap::read_u64(&mut r)? as usize,
                        p: f64::from_bits(snap::read_u64(&mut r)?),
                        seed: snap::read_u64(&mut r)?,
                    },
                    t => return Err(snap::invalid(format!("unknown graph tag {t}"))),
                };
                Ok(InstanceSpec {
                    name,
                    problem,
                    graph,
                })
            })
            .collect::<io::Result<Vec<_>>>()?;
        let backends = read_count(&mut r, l.backends, "backends")?;
        let backends = (0..backends)
            .map(|_| snap::read_str(&mut r, "backend name"))
            .collect::<io::Result<Vec<_>>>()?;
        let eps = read_count(&mut r, l.eps, "eps values")?;
        let eps_grid = (0..eps)
            .map(|_| Ok(f64::from_bits(snap::read_u64(&mut r)?)))
            .collect::<io::Result<Vec<_>>>()?;
        let seeds = snap::read_u64(&mut r)?..snap::read_u64(&mut r)?;
        let ensemble_runs = snap::read_u64(&mut r)? as usize;
        let spec = CorpusSpec {
            instances,
            backends,
            eps_grid,
            seeds,
            ensemble_runs,
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Jobs in the corpus this spec describes (`instances × backends ×
    /// ε values × seeds`) — without generating any graph, so manifests
    /// can be cross-checked cheaply.
    pub fn grid_len(&self) -> usize {
        self.instances.len()
            * self.backends.len()
            * self.eps_grid.len()
            * (self.seeds.end - self.seeds.start) as usize
    }

    /// The spec's canonical bytes (a `Vec`-backed [`CorpusSpec::save_to`]).
    #[expect(clippy::expect_used, reason = "writing to a Vec cannot fail")]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut bytes = Vec::new();
        self.save_to(&mut bytes)
            .expect("writing a spec to a Vec cannot fail");
        bytes
    }
}

/// Reads a count field and refuses anything beyond `cap` *before* any
/// element is parsed — count fields never drive allocations.
fn read_count<R: io::Read>(r: &mut R, cap: usize, what: &str) -> io::Result<usize> {
    let n = snap::read_u64(r)?;
    if n > cap as u64 {
        return Err(snap::invalid(format!("{n} {what} exceed the cap of {cap}")));
    }
    Ok(n as usize)
}

fn parse_instance(token: &str) -> io::Result<InstanceSpec> {
    let (name, rest) = token
        .split_once('=')
        .ok_or_else(|| snap::invalid(format!("expected name=problem:graph, got {token:?}")))?;
    let mut parts = rest.split(':');
    let problem = parts
        .next()
        .and_then(Problem::from_token)
        .ok_or_else(|| snap::invalid(format!("unknown problem in {token:?} (mis/vc/ds)")))?;
    let family = parts
        .next()
        .ok_or_else(|| snap::invalid(format!("missing graph family in {token:?}")))?;
    let mut num = |what: &str| -> io::Result<usize> {
        parts
            .next()
            .and_then(|s| s.parse::<usize>().ok())
            .ok_or_else(|| snap::invalid(format!("bad or missing {what} in {token:?}")))
    };
    let graph = match family {
        "path" => GraphSpec::Path(num("size")?),
        "cycle" => GraphSpec::Cycle(num("size")?),
        "complete" => GraphSpec::Complete(num("size")?),
        "star" => GraphSpec::Star(num("size")?),
        "grid" => {
            let dims = parts
                .next()
                .ok_or_else(|| snap::invalid(format!("missing RxC dims in {token:?}")))?;
            let (r, c) = dims
                .split_once('x')
                .and_then(|(r, c)| Some((r.parse::<usize>().ok()?, c.parse::<usize>().ok()?)))
                .ok_or_else(|| snap::invalid(format!("bad grid dims in {token:?}")))?;
            GraphSpec::Grid(r, c)
        }
        "gnp" => {
            let n = num("size")?;
            let p = parts
                .next()
                .and_then(|s| s.parse::<f64>().ok())
                .ok_or_else(|| snap::invalid(format!("bad edge probability in {token:?}")))?;
            let seed = parts
                .next()
                .and_then(|s| s.parse::<u64>().ok())
                .ok_or_else(|| snap::invalid(format!("bad generator seed in {token:?}")))?;
            GraphSpec::Gnp { n, p, seed }
        }
        other => {
            return Err(snap::invalid(format!(
                "unknown graph family {other:?} in {token:?}"
            )))
        }
    };
    if parts.next().is_some() {
        return Err(snap::invalid(format!("trailing fields in {token:?}")));
    }
    Ok(InstanceSpec {
        name: name.to_string(),
        problem,
        graph,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> CorpusSpec {
        CorpusSpec::parse_args([
            "ring=mis:cycle:12",
            "cover=vc:grid:3x4",
            "dom=ds:gnp:10:0.3:7",
            "@backends=greedy,bnb",
            "@eps=0.2,0.3",
            "@seeds=0..3",
            "@ensemble=2",
        ])
        .expect("demo spec parses")
    }

    #[test]
    fn parses_and_builds_the_full_grid() {
        let spec = demo();
        let corpus = spec.build();
        assert_eq!(corpus.len(), 3 * 2 * 2 * 3);
        assert_eq!(corpus.instance_names(), vec!["ring", "cover", "dom"]);
    }

    #[test]
    fn defaults_fill_backends_and_eps() {
        let spec = CorpusSpec::parse_args(["a=mis:cycle:6"]).unwrap();
        assert_eq!(spec.backends.len(), engine::BACKENDS.len());
        assert_eq!(spec.eps_grid, vec![0.3]);
        assert_eq!(spec.seeds, 0..1);
    }

    #[test]
    fn rejects_malformed_tokens() {
        for bad in [
            "noequals",
            "a=unknown:cycle:6",
            "a=mis:blob:6",
            "a=mis:cycle:notanum",
            "a=mis:grid:3y4",
            "a=mis:cycle:6:extra",
            "@seeds=5",
            "@seeds=a..b",
            "@eps=nope",
            "@mystery=1",
        ] {
            let err = CorpusSpec::parse_args(["ok=mis:cycle:6", bad])
                .expect_err(&format!("{bad:?} must be rejected"));
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{bad:?}: {err}");
        }
    }

    #[test]
    fn validate_rejects_what_build_would_panic_on() {
        for (tweak, needle) in [
            (
                Box::new(|s: &mut CorpusSpec| s.instances.clear()) as Box<dyn Fn(&mut CorpusSpec)>,
                "no instances",
            ),
            (
                Box::new(|s: &mut CorpusSpec| {
                    let dup = s.instances[0].clone();
                    s.instances.push(dup);
                }),
                "duplicate instance",
            ),
            (
                Box::new(|s: &mut CorpusSpec| s.backends.push("greedy".into())),
                "duplicate backend",
            ),
            (
                Box::new(|s: &mut CorpusSpec| s.backends.push("no-such".into())),
                "unknown backend",
            ),
            (
                Box::new(|s: &mut CorpusSpec| s.eps_grid.push(0.2)),
                "duplicate eps",
            ),
            (
                Box::new(|s: &mut CorpusSpec| s.eps_grid.push(1.5)),
                "outside (0, 1)",
            ),
            (
                Box::new(|s: &mut CorpusSpec| s.seeds = 3..3),
                "empty seed range",
            ),
            (
                Box::new(|s: &mut CorpusSpec| s.seeds = 0..u64::MAX),
                "exceed the cap",
            ),
            (
                Box::new(|s: &mut CorpusSpec| s.instances[0].graph = GraphSpec::Cycle(1 << 20)),
                "cap is",
            ),
            (
                Box::new(|s: &mut CorpusSpec| s.ensemble_runs = 1000),
                "ensemble runs",
            ),
        ] {
            let mut spec = demo();
            tweak(&mut spec);
            let err = spec.validate().expect_err(needle);
            assert!(err.to_string().contains(needle), "{err}");
        }
    }

    #[test]
    fn binary_form_round_trips_and_is_canonical() {
        let spec = demo();
        let bytes = spec.to_bytes();
        let loaded = CorpusSpec::load_from(bytes.as_slice()).expect("round trip");
        assert_eq!(loaded, spec);
        assert_eq!(loaded.to_bytes(), bytes, "spec bytes are not canonical");
    }

    #[test]
    fn truncated_spec_bytes_error_at_every_cut() {
        let bytes = demo().to_bytes();
        for cut in 0..bytes.len() {
            assert!(
                CorpusSpec::load_from(&bytes[..cut]).is_err(),
                "spec prefix of {cut} bytes must not load"
            );
        }
    }

    #[test]
    fn hostile_counts_do_not_allocate() {
        let mut bytes = demo().to_bytes();
        // Instance count is the first u64 after the magic.
        bytes[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        let err = CorpusSpec::load_from(bytes.as_slice()).expect_err("must reject");
        assert!(err.to_string().contains("exceed the cap"), "{err}");
    }

    #[test]
    fn loaded_specs_are_validated() {
        let mut spec = demo();
        spec.backends = vec!["no-such".into()];
        let mut bytes = Vec::new();
        spec.save_to(&mut bytes).unwrap();
        let err = CorpusSpec::load_from(bytes.as_slice()).expect_err("must reject");
        assert!(err.to_string().contains("unknown backend"), "{err}");
    }

    #[test]
    fn spec_corpus_matches_hand_built_corpus() {
        use dapc_core::engine::SolveConfig;
        let spec = CorpusSpec::parse_args([
            "ring=mis:cycle:12",
            "@backends=greedy",
            "@eps=0.3",
            "@seeds=0..2",
            "@ensemble=2",
        ])
        .unwrap();
        let by_hand = Corpus::builder()
            .instance(
                "ring",
                problems::max_independent_set_unweighted(&gen::cycle(12)),
            )
            .backend("greedy")
            .eps(0.3)
            .seeds(0..2)
            .base_config(SolveConfig::new().ensemble_runs(2))
            .build();
        let a = dapc_runtime::solve_many(&spec.build(), &dapc_runtime::RuntimeConfig::new());
        let b = dapc_runtime::solve_many(&by_hand, &dapc_runtime::RuntimeConfig::new());
        for (x, y) in a.results.iter().zip(&b.results) {
            assert_eq!(x.key, y.key);
            assert_eq!(x.report.value, y.report.value);
        }
    }
}
