//! Corpora: named batches of `(instance × backend × ε × seed)` jobs.

use dapc_core::engine::{self, SolveConfig};
use dapc_ilp::IlpInstance;
use std::ops::Range;
use std::sync::Arc;

/// The identity of one batch job. The full key — not just the seed —
/// derives the job's RNG stream, so two jobs differing in any coordinate
/// draw decorrelated randomness, and results never depend on which worker
/// ran the job or in what order.
#[derive(Clone, Debug, PartialEq)]
pub struct JobKey {
    /// Name of the instance in the corpus.
    pub instance: String,
    /// Engine registry key of the backend.
    pub backend: String,
    /// Approximation parameter `ε`.
    pub eps: f64,
    /// User-level seed (the last coordinate of the sweep).
    pub seed: u64,
}

impl JobKey {
    /// The deterministic RNG seed of this job: FNV-1a over every
    /// coordinate (with `ε` taken bit-exactly).
    pub fn rng_seed(&self) -> u64 {
        use dapc_ilp::hash::{fnv1a, fnv1a_u64, FNV_OFFSET};
        let mut h = fnv1a(FNV_OFFSET, self.instance.as_bytes());
        h = fnv1a(h, &[0xff]);
        h = fnv1a(h, self.backend.as_bytes());
        h = fnv1a(h, &[0xff]);
        h = fnv1a_u64(h, self.eps.to_bits());
        fnv1a_u64(h, self.seed)
    }
}

impl std::fmt::Display for JobKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}/{}/eps{}/seed{}",
            self.instance, self.backend, self.eps, self.seed
        )
    }
}

/// One materialised job: its key plus everything needed to run it.
#[derive(Clone)]
pub struct Job {
    /// Position in the corpus's canonical job order.
    pub index: usize,
    /// Identity of the job.
    pub key: JobKey,
    pub(crate) ilp: Arc<IlpInstance>,
    /// Per-job configuration: the corpus base with this job's `ε` and the
    /// key-derived RNG seed baked in.
    pub(crate) cfg: SolveConfig,
}

pub(crate) struct CorpusInstance {
    pub(crate) name: String,
    pub(crate) ilp: Arc<IlpInstance>,
}

/// An immutable batch description: instances × backends × ε grid × seed
/// range, plus the shared base [`SolveConfig`]. Built with
/// [`Corpus::builder`], consumed by [`crate::solve_many`].
pub struct Corpus {
    pub(crate) instances: Vec<CorpusInstance>,
    pub(crate) backends: Vec<String>,
    pub(crate) eps_grid: Vec<f64>,
    pub(crate) seeds: Range<u64>,
    pub(crate) base: SolveConfig,
}

impl Corpus {
    /// Starts an empty builder.
    pub fn builder() -> CorpusBuilder {
        CorpusBuilder::default()
    }

    /// Number of jobs (`instances × backends × ε values × seeds`).
    pub fn len(&self) -> usize {
        self.instances.len()
            * self.backends.len()
            * self.eps_grid.len()
            * (self.seeds.end - self.seeds.start) as usize
    }

    /// Whether the corpus has no jobs.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The shared base configuration.
    pub fn base(&self) -> &SolveConfig {
        &self.base
    }

    /// Named instances, in insertion order.
    pub fn instance_names(&self) -> Vec<&str> {
        self.instances.iter().map(|i| i.name.as_str()).collect()
    }

    /// The canonical index range shard `shard` of `shards` owns: the
    /// balanced contiguous partition `[shard·len/shards,
    /// (shard+1)·len/shards)`, so shard sizes differ by at most one and
    /// the union over all shards covers every job exactly once. Shards
    /// beyond the corpus length come back empty.
    ///
    /// The partition is a pure function of `(len, shard, shards)` —
    /// **jobs keep their global [`JobKey`] (and with it their derived RNG
    /// stream)**, so a job's `(key, report)` outcome is byte-identical
    /// whether it runs in the unsharded sweep or in any shard of any
    /// split.
    ///
    /// # Panics
    ///
    /// Panics when `shards` is 0 or `shard >= shards`.
    pub fn shard_range(&self, shard: usize, shards: usize) -> Range<usize> {
        assert!(shards > 0, "a corpus splits into at least one shard");
        assert!(
            shard < shards,
            "shard index {shard} out of range for {shards} shards"
        );
        let len = self.len();
        (shard * len / shards)..((shard + 1) * len / shards)
    }

    /// Materialises the jobs of an **arbitrary** contiguous slice of the
    /// canonical order — the work unit of partial-shard scheduling: a
    /// coordinator that reassigns a crashed worker's remaining jobs hands
    /// the replacement exactly this range. Jobs keep their global indices
    /// and [`JobKey`]s (and with them their derived RNG streams), so a
    /// range job's `(key, report)` outcome is byte-identical to the same
    /// job in the unsharded sweep.
    ///
    /// # Panics
    ///
    /// Panics when `range` reaches beyond the corpus.
    pub fn range_jobs(&self, range: Range<usize>) -> Vec<Job> {
        assert!(
            range.end <= self.len(),
            "job range {range:?} reaches beyond the {}-job corpus",
            self.len()
        );
        range.map(|i| self.job_at(i)).collect()
    }

    /// The instances owning at least one job of `range`: jobs are
    /// instance-major, so that is one contiguous run of the instance
    /// list, found without materialising a job.
    pub(crate) fn instances_in(&self, range: &Range<usize>) -> &[CorpusInstance] {
        if range.is_empty() {
            return &[];
        }
        let per_instance = self.len() / self.instances.len();
        &self.instances[range.start / per_instance..=(range.end - 1) / per_instance]
    }

    /// Materialises every job in canonical order: instance-major, then
    /// backend, then `ε`, then seed. This order is the definition of "the
    /// sequential path" — `solve_many` returns results in exactly this
    /// order at any worker count.
    pub fn jobs(&self) -> Vec<Job> {
        (0..self.len()).map(|i| self.job_at(i)).collect()
    }

    /// The job at canonical index `index`: the inverse of the
    /// instance-major, then backend, then `ε`, then seed ordering.
    fn job_at(&self, index: usize) -> Job {
        let seeds = (self.seeds.end - self.seeds.start) as usize;
        let mut rest = index;
        let seed = self.seeds.start + (rest % seeds) as u64;
        rest /= seeds;
        let eps = self.eps_grid[rest % self.eps_grid.len()];
        rest /= self.eps_grid.len();
        let backend = &self.backends[rest % self.backends.len()];
        rest /= self.backends.len();
        let inst = &self.instances[rest];
        let key = JobKey {
            instance: inst.name.clone(),
            backend: backend.clone(),
            eps,
            seed,
        };
        let cfg = self.base.clone().eps(eps).seed(key.rng_seed());
        Job {
            index,
            key,
            ilp: Arc::clone(&inst.ilp),
            cfg,
        }
    }
}

/// Builder for [`Corpus`].
///
/// # Examples
///
/// ```
/// use dapc_graph::gen;
/// use dapc_ilp::problems;
/// use dapc_runtime::Corpus;
///
/// let corpus = Corpus::builder()
///     .instance(
///         "MIS/cycle18",
///         problems::max_independent_set_unweighted(&gen::cycle(18)),
///     )
///     .backend("three-phase")
///     .backend("greedy")
///     .eps_grid([0.2, 0.3])
///     .seeds(0..4)
///     .build();
/// assert_eq!(corpus.len(), 1 * 2 * 2 * 4);
/// ```
#[derive(Default)]
pub struct CorpusBuilder {
    instances: Vec<CorpusInstance>,
    backends: Vec<String>,
    eps_grid: Vec<f64>,
    seeds: Option<Range<u64>>,
    base: Option<SolveConfig>,
}

impl CorpusBuilder {
    /// Adds a named instance.
    pub fn instance(self, name: impl Into<String>, ilp: IlpInstance) -> Self {
        self.shared_instance(name, Arc::new(ilp))
    }

    /// Adds a named instance without cloning it (useful when the caller
    /// keeps a handle for its own bookkeeping).
    pub fn shared_instance(mut self, name: impl Into<String>, ilp: Arc<IlpInstance>) -> Self {
        self.instances.push(CorpusInstance {
            name: name.into(),
            ilp,
        });
        self
    }

    /// Adds one backend by engine registry key.
    pub fn backend(mut self, name: impl Into<String>) -> Self {
        self.backends.push(name.into());
        self
    }

    /// Adds several backends by registry key.
    pub fn backends<I, S>(mut self, names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.backends.extend(names.into_iter().map(Into::into));
        self
    }

    /// Adds every registered backend, in canonical order.
    pub fn all_backends(self) -> Self {
        self.backends(engine::BACKENDS)
    }

    /// Adds one `ε` value to the grid.
    pub fn eps(mut self, eps: f64) -> Self {
        self.eps_grid.push(eps);
        self
    }

    /// Adds several `ε` values to the grid.
    pub fn eps_grid(mut self, grid: impl IntoIterator<Item = f64>) -> Self {
        self.eps_grid.extend(grid);
        self
    }

    /// Sets the seed range (default `0..1`).
    pub fn seeds(mut self, seeds: Range<u64>) -> Self {
        self.seeds = Some(seeds);
        self
    }

    /// Sets the shared base configuration (knobs, budget, ensemble runs,
    /// …). Its `eps` and `seed` are overridden per job.
    pub fn base_config(mut self, base: SolveConfig) -> Self {
        self.base = Some(base);
        self
    }

    /// Validates and freezes the corpus.
    ///
    /// # Panics
    ///
    /// Panics on an empty instance list, a duplicate instance name,
    /// backend key or (bit-exact) `ε` value — duplicates would run
    /// identical jobs and collide in the group summaries — an unknown
    /// backend key, an `ε` outside `(0, 1)`, or an empty seed range.
    /// Backends default to the full registry and the `ε` grid to the
    /// base config's `eps` when left unset.
    pub fn build(self) -> Corpus {
        let base = self.base.unwrap_or_default();
        assert!(!self.instances.is_empty(), "corpus needs an instance");
        for (i, a) in self.instances.iter().enumerate() {
            for b in &self.instances[..i] {
                assert!(a.name != b.name, "duplicate instance name {:?}", a.name);
            }
        }
        let backends = if self.backends.is_empty() {
            engine::BACKENDS.iter().map(|s| s.to_string()).collect()
        } else {
            self.backends
        };
        for (i, b) in backends.iter().enumerate() {
            assert!(engine::backend(b).is_some(), "unknown backend {b:?}");
            assert!(
                !backends[..i].contains(b),
                "duplicate backend {b:?} would run identical jobs"
            );
        }
        let eps_grid = if self.eps_grid.is_empty() {
            vec![base.eps]
        } else {
            self.eps_grid
        };
        for (i, &e) in eps_grid.iter().enumerate() {
            assert!(e > 0.0 && e < 1.0, "eps must be in (0, 1), got {e}");
            assert!(
                !eps_grid[..i].iter().any(|p| p.to_bits() == e.to_bits()),
                "duplicate eps {e} would run identical jobs"
            );
        }
        let seeds = self.seeds.unwrap_or(0..1);
        assert!(!seeds.is_empty(), "corpus needs at least one seed");
        Corpus {
            instances: self.instances,
            backends,
            eps_grid,
            seeds,
            base,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dapc_graph::gen;
    use dapc_ilp::problems;

    fn mis(n: usize) -> IlpInstance {
        problems::max_independent_set_unweighted(&gen::cycle(n))
    }

    #[test]
    fn canonical_order_is_instance_major() {
        let corpus = Corpus::builder()
            .instance("a", mis(6))
            .instance("b", mis(8))
            .backend("greedy")
            .backend("bnb")
            .eps_grid([0.2, 0.4])
            .seeds(0..2)
            .build();
        let jobs = corpus.jobs();
        assert_eq!(jobs.len(), corpus.len());
        assert_eq!(jobs.len(), 2 * 2 * 2 * 2);
        assert_eq!(jobs[0].key.to_string(), "a/greedy/eps0.2/seed0");
        assert_eq!(jobs[1].key.to_string(), "a/greedy/eps0.2/seed1");
        assert_eq!(jobs[2].key.to_string(), "a/greedy/eps0.4/seed0");
        assert_eq!(jobs[4].key.to_string(), "a/bnb/eps0.2/seed0");
        assert_eq!(jobs[8].key.to_string(), "b/greedy/eps0.2/seed0");
        for (i, j) in jobs.iter().enumerate() {
            assert_eq!(j.index, i);
        }
    }

    #[test]
    fn shards_partition_the_canonical_order() {
        let corpus = Corpus::builder()
            .instance("a", mis(6))
            .instance("b", mis(8))
            .backend("greedy")
            .eps_grid([0.2, 0.4])
            .seeds(0..2)
            .build();
        let all = corpus.jobs();
        for shards in 1..=all.len() + 2 {
            let mut seen = Vec::new();
            for shard in 0..shards {
                let range = corpus.shard_range(shard, shards);
                let jobs = corpus.range_jobs(range.clone());
                assert_eq!(jobs.len(), range.len());
                for (job, index) in jobs.iter().zip(range.clone()) {
                    assert_eq!(job.index, index, "shards must keep global indices");
                    assert_eq!(job.key, all[index].key, "shards must keep global keys");
                }
                seen.extend(range);
            }
            assert_eq!(
                seen,
                (0..all.len()).collect::<Vec<_>>(),
                "{shards} shards must partition the corpus"
            );
        }
        // Balanced: sizes differ by at most one.
        for shards in 1..=4 {
            let sizes: Vec<usize> = (0..shards)
                .map(|s| corpus.shard_range(s, shards).len())
                .collect();
            let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
            assert!(max - min <= 1, "unbalanced split {sizes:?}");
        }
    }

    #[test]
    fn instances_in_matches_the_materialised_jobs() {
        let corpus = Corpus::builder()
            .instance("a", mis(6))
            .instance("b", mis(8))
            .instance("c", mis(10))
            .backend("greedy")
            .seeds(0..3)
            .build();
        for start in 0..=corpus.len() {
            for end in start..=corpus.len() {
                let mut want: Vec<String> = corpus
                    .range_jobs(start..end)
                    .into_iter()
                    .map(|j| j.key.instance)
                    .collect();
                want.dedup();
                let got: Vec<&str> = corpus
                    .instances_in(&(start..end))
                    .iter()
                    .map(|i| i.name.as_str())
                    .collect();
                assert_eq!(got, want, "range {start}..{end}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn shard_index_must_be_in_range() {
        let corpus = Corpus::builder().instance("a", mis(6)).build();
        let _ = corpus.shard_range(2, 2);
    }

    #[test]
    fn rng_seed_depends_on_every_coordinate() {
        let base = JobKey {
            instance: "a".into(),
            backend: "greedy".into(),
            eps: 0.3,
            seed: 0,
        };
        let mut variants = vec![base.clone()];
        variants.push(JobKey {
            instance: "b".into(),
            ..base.clone()
        });
        variants.push(JobKey {
            backend: "bnb".into(),
            ..base.clone()
        });
        variants.push(JobKey {
            eps: 0.2,
            ..base.clone()
        });
        variants.push(JobKey { seed: 1, ..base });
        let seeds: Vec<u64> = variants.iter().map(JobKey::rng_seed).collect();
        for i in 0..seeds.len() {
            for j in 0..i {
                assert_ne!(seeds[i], seeds[j], "{} vs {}", variants[i], variants[j]);
            }
        }
    }

    #[test]
    fn defaults_fill_backends_and_eps() {
        let corpus = Corpus::builder().instance("a", mis(6)).build();
        assert_eq!(corpus.backends.len(), engine::BACKENDS.len());
        assert_eq!(corpus.eps_grid, vec![corpus.base.eps]);
        assert_eq!(corpus.len(), engine::BACKENDS.len());
    }

    #[test]
    #[should_panic(expected = "unknown backend")]
    fn unknown_backend_rejected() {
        let _ = Corpus::builder()
            .instance("a", mis(6))
            .backend("no-such")
            .build();
    }

    #[test]
    #[should_panic(expected = "duplicate instance name")]
    fn duplicate_names_rejected() {
        let _ = Corpus::builder()
            .instance("a", mis(6))
            .instance("a", mis(8))
            .build();
    }

    #[test]
    #[should_panic(expected = "duplicate backend")]
    fn duplicate_backends_rejected() {
        let _ = Corpus::builder()
            .instance("a", mis(6))
            .backend("greedy")
            .all_backends()
            .build();
    }

    #[test]
    #[should_panic(expected = "duplicate eps")]
    fn duplicate_eps_rejected() {
        let _ = Corpus::builder()
            .instance("a", mis(6))
            .backend("greedy")
            .eps_grid([0.2, 0.2])
            .build();
    }
}
