//! The one configuration type every backend consumes.

use crate::gkm::GkmParams;
use crate::params::{PcParams, ScaleKnobs};
use crate::prep::SharedSubsetCache;
use dapc_ilp::SolverBudget;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Unified solver configuration, absorbing the previously scattered
/// `ScaleKnobs`, `PcParams` constructor arguments, `GkmParams` and
/// `SolverBudget` into one builder.
///
/// Defaults match the laptop-scale constants the examples and tests have
/// always used ([`ScaleKnobs::default`]); [`SolveConfig::paper`] switches
/// to the constants printed in the paper ([`ScaleKnobs::paper`]).
///
/// # Examples
///
/// ```
/// use dapc_core::engine::SolveConfig;
///
/// let cfg = SolveConfig::new().eps(0.2).seed(7).ensemble_runs(8);
/// assert_eq!(cfg.eps, 0.2);
/// assert_eq!(cfg.seed, 7);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct SolveConfig {
    /// Approximation parameter `ε` (default `0.3`).
    pub eps: f64,
    /// Size hint `ñ`; when `None`, each solve uses the instance size.
    pub n_tilde: Option<f64>,
    /// Seed for the deterministic RNG used by [`SolveConfig::rng`] and the
    /// registry-level [`crate::engine::solve`] (default `0`).
    pub seed: u64,
    /// Scaling knobs for the paper's leading constants.
    pub knobs: ScaleKnobs,
    /// Budget for every exact local solve.
    pub budget: SolverBudget,
    /// `k = ⌈k_scale·ln ñ/ε⌉` for the GKM baseline (default `0.2`).
    pub gkm_k_scale: f64,
    /// Number of ensemble candidate runs; `None` = the paper's
    /// `⌈ln ñ/ε²⌉` capped at 48.
    pub ensemble_runs: Option<usize>,
    /// Overrides the preparation-decomposition count of
    /// [`PcParams`] (`None` = derive it from the knobs' `prep_scale`).
    pub prep_count: Option<usize>,
    /// Optional cross-run subset-solve cache for this instance family
    /// (attached by `dapc-runtime`'s `PrepCache`; solver outputs are
    /// identical with or without it).
    pub prep_cache: Option<SharedSubsetCache>,
    /// Concurrency cap for the preparation step's exact subset solves
    /// inside *one* solve (default `1` = sequential). Above one, the
    /// distinct solves fan out over the process-wide `dapc_exec` pool —
    /// at most `prep_workers` in flight, and never on a child pool, so
    /// the setting composes gracefully with across-job parallelism.
    /// Purely an execution knob: reports are byte-identical at every
    /// worker count, because subset solves are deterministic functions
    /// of their key and the RNG is consumed only by the sequential
    /// decomposition pass (see [`crate::prep::prepare`]).
    pub prep_workers: usize,
}

impl Default for SolveConfig {
    fn default() -> Self {
        SolveConfig {
            eps: 0.3,
            n_tilde: None,
            seed: 0,
            knobs: ScaleKnobs::default(),
            budget: SolverBudget::default(),
            gkm_k_scale: 0.2,
            ensemble_runs: None,
            prep_count: None,
            prep_cache: None,
            prep_workers: 1,
        }
    }
}

impl SolveConfig {
    /// Starts a builder with the laptop-scale defaults.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the approximation parameter `ε`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < eps < 1`.
    pub fn eps(mut self, eps: f64) -> Self {
        assert!(eps > 0.0 && eps < 1.0, "eps must be in (0, 1)");
        self.eps = eps;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the size hint `ñ` (otherwise the instance size is used).
    ///
    /// # Panics
    ///
    /// Panics unless `n_tilde > e` — the covering parametrisation needs
    /// `ln ln ñ > 0`, and one config must mean the same thing for both
    /// senses.
    pub fn n_tilde(mut self, n_tilde: f64) -> Self {
        assert!(
            n_tilde > std::f64::consts::E,
            "n_tilde must exceed e (covering needs ln ln ñ > 0)"
        );
        self.n_tilde = Some(n_tilde);
        self
    }

    /// Replaces the scaling knobs wholesale.
    pub fn knobs(mut self, knobs: ScaleKnobs) -> Self {
        self.knobs = knobs;
        self
    }

    /// Uses the paper's printed constants ([`ScaleKnobs::paper`]).
    pub fn paper(self) -> Self {
        self.knobs(ScaleKnobs::paper())
    }

    /// Replaces the exact-solver budget.
    pub fn budget(mut self, budget: SolverBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Caps every exact local solve at `node_limit` branch & bound nodes.
    pub fn node_limit(mut self, node_limit: u64) -> Self {
        self.budget.node_limit = node_limit;
        self
    }

    /// Sets the cooperative-yield period of long exact solves: every
    /// `yield_every` search nodes the solver offers its executor worker
    /// one of the worker's own queued subtasks (`0` disables the check).
    /// Purely a scheduling knob — solve results are byte-identical at
    /// any setting.
    pub fn yield_every(mut self, yield_every: u64) -> Self {
        self.budget.yield_every = yield_every;
        self
    }

    /// Sets the GKM carving-radius scale.
    pub fn gkm_k_scale(mut self, k_scale: f64) -> Self {
        assert!(k_scale > 0.0, "k_scale must be positive");
        self.gkm_k_scale = k_scale;
        self
    }

    /// Fixes the number of ensemble candidate runs.
    pub fn ensemble_runs(mut self, runs: usize) -> Self {
        assert!(runs > 0, "ensemble needs at least one run");
        self.ensemble_runs = Some(runs);
        self
    }

    /// Overrides the preparation-decomposition count (the E10 ablation
    /// knob; the paper's value is `⌈16·ln ñ⌉`).
    pub fn prep_count(mut self, count: usize) -> Self {
        assert!(count > 0, "need at least one preparation decomposition");
        self.prep_count = Some(count);
        self
    }

    /// Attaches a cross-run subset-solve cache for this instance family.
    /// Reports are bit-identical with or without a cache; only the exact
    /// local computation is shared across runs.
    pub fn prep_cache(mut self, cache: SharedSubsetCache) -> Self {
        self.prep_cache = Some(cache);
        self
    }

    /// Shards the preparation step's exact subset solves inside one
    /// solve: at most `workers` of them run concurrently on the
    /// process-wide executor. Reports are bit-identical at every worker
    /// count; only the wall-clock time of a large instance's preparation
    /// changes.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    pub fn prep_workers(mut self, workers: usize) -> Self {
        assert!(workers > 0, "need at least one preparation worker");
        self.prep_workers = workers;
        self
    }

    /// The effective size hint for an `n`-variable instance.
    pub fn effective_n_tilde(&self, n: usize) -> f64 {
        self.n_tilde.unwrap_or((n.max(3)) as f64)
    }

    /// Theorem 1.2 parameters for an `n`-variable packing instance.
    pub fn packing_params(&self, n: usize) -> PcParams {
        let mut p = self
            .knobs
            .packing_params_for(self.eps, self.effective_n_tilde(n));
        p.budget = self.budget;
        if let Some(c) = self.prep_count {
            p.prep_count = c;
        }
        p.prep_workers = self.prep_workers;
        p
    }

    /// Theorem 1.3 parameters for an `n`-variable covering instance.
    pub fn covering_params(&self, n: usize) -> PcParams {
        let mut p = self
            .knobs
            .covering_params_for(self.eps, self.effective_n_tilde(n));
        p.budget = self.budget;
        if let Some(c) = self.prep_count {
            p.prep_count = c;
        }
        p.prep_workers = self.prep_workers;
        p
    }

    /// GKM17 parameters for an `n`-variable instance.
    pub fn gkm_params(&self, n: usize) -> GkmParams {
        let mut p = GkmParams::new(self.eps, self.effective_n_tilde(n), self.gkm_k_scale);
        p.budget = self.budget;
        p
    }

    /// The deterministic RNG this configuration seeds.
    #[expect(
        clippy::disallowed_methods,
        reason = "the key-derivation site: every solver stream derives from the config seed here"
    )]
    pub fn rng(&self) -> StdRng {
        StdRng::seed_from_u64(self.seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_legacy_scale_knobs() {
        let cfg = SolveConfig::new();
        let legacy = ScaleKnobs::default();
        assert_eq!(cfg.knobs, legacy);
        assert_eq!(cfg.packing_params(40), legacy.packing_params(0.3, 40));
        assert_eq!(cfg.covering_params(40), legacy.covering_params(0.3, 40));
    }

    #[test]
    fn builder_propagates_everything() {
        let cfg = SolveConfig::new()
            .eps(0.2)
            .seed(9)
            .n_tilde(512.0)
            .paper()
            .node_limit(1234)
            .yield_every(4096)
            .gkm_k_scale(0.5)
            .ensemble_runs(6)
            .prep_workers(3);
        assert_eq!(cfg.knobs, ScaleKnobs::paper());
        let p = cfg.packing_params(10);
        assert_eq!(p.eps, 0.2);
        assert_eq!(p.n_tilde, 512.0);
        assert_eq!(p.budget.node_limit, 1234);
        assert_eq!(p.budget.yield_every, 4096);
        assert_eq!(p.prep_workers, 3);
        assert_eq!(cfg.covering_params(10).prep_workers, 3);
        let g = cfg.gkm_params(10);
        assert_eq!(g.budget.node_limit, 1234);
        assert_eq!(g.budget.yield_every, 4096);
        assert_eq!(cfg.ensemble_runs, Some(6));
    }

    #[test]
    fn rng_is_deterministic_per_seed() {
        use rand::Rng;
        let cfg = SolveConfig::new().seed(42);
        let a: u64 = cfg.rng().random();
        let b: u64 = cfg.rng().random();
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic]
    fn rejects_out_of_range_eps() {
        let _ = SolveConfig::new().eps(1.5);
    }
}
