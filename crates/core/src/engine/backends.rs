//! The five engine backends.

use super::config::SolveConfig;
use super::report::{BackendStats, SolveReport};
use super::Solver;
use crate::covering::approximate_covering_cached;
use crate::ensemble::packing_ensemble_cached;
use crate::gkm::gkm_solve_cached;
use crate::packing::approximate_packing_cached;
use crate::prep::SubsetSolver;
use dapc_graph::Vertex;
use dapc_ilp::instance::{IlpInstance, Sense};
use dapc_ilp::restrict::{covering_restriction, packing_restriction};
use dapc_ilp::solvers::greedy;
use dapc_local::RoundLedger;
use rand::rngs::StdRng;

/// The paper's headline algorithms: Theorem 1.2 for packing instances,
/// Theorem 1.3 for covering instances (both `Õ(log n/ε)` rounds, whp).
#[derive(Clone, Copy, Debug, Default)]
pub struct ThreePhase;

impl Solver for ThreePhase {
    fn name(&self) -> &'static str {
        "three-phase"
    }

    fn solve(&self, ilp: &IlpInstance, cfg: &SolveConfig, rng: &mut StdRng) -> SolveReport {
        let cache = cfg.prep_cache.as_ref();
        match ilp.sense() {
            Sense::Packing => {
                let out = approximate_packing_cached(ilp, &cfg.packing_params(ilp.n()), rng, cache);
                SolveReport::from_packing(ilp, self.name(), out)
            }
            Sense::Covering => {
                let out =
                    approximate_covering_cached(ilp, &cfg.covering_params(ilp.n()), rng, cache);
                SolveReport::from_covering(ilp, self.name(), out)
            }
        }
    }
}

/// The Ghaffari–Kuhn–Maus `O(log³ n/ε)` baseline (§1.2) — handles both
/// senses.
#[derive(Clone, Copy, Debug, Default)]
pub struct Gkm;

impl Solver for Gkm {
    fn name(&self) -> &'static str {
        "gkm"
    }

    fn solve(&self, ilp: &IlpInstance, cfg: &SolveConfig, rng: &mut StdRng) -> SolveReport {
        let out = gkm_solve_cached(ilp, &cfg.gkm_params(ilp.n()), rng, cfg.prep_cache.as_ref());
        SolveReport::from_gkm(ilp, self.name(), out)
    }
}

/// The §4.2 "alternative approach" ensemble. Packing-only in the paper;
/// on covering instances this backend delegates to the Theorem 1.3
/// three-phase solver (documented substitution), so it stays usable on a
/// mixed corpus.
#[derive(Clone, Copy, Debug, Default)]
pub struct Ensemble;

impl Solver for Ensemble {
    fn name(&self) -> &'static str {
        "ensemble"
    }

    fn solve(&self, ilp: &IlpInstance, cfg: &SolveConfig, rng: &mut StdRng) -> SolveReport {
        let cache = cfg.prep_cache.as_ref();
        match ilp.sense() {
            Sense::Packing => {
                let out = packing_ensemble_cached(
                    ilp,
                    &cfg.packing_params(ilp.n()),
                    cfg.ensemble_runs,
                    rng,
                    cache,
                );
                SolveReport::from_ensemble(ilp, self.name(), out)
            }
            Sense::Covering => {
                let out =
                    approximate_covering_cached(ilp, &cfg.covering_params(ilp.n()), rng, cache);
                SolveReport::from_covering(ilp, self.name(), out)
            }
        }
    }
}

/// Ledger for the centralised reference backends: one gather of the whole
/// instance (`n` rounds bounds any diameter) plus the answer broadcast.
fn centralised_ledger(label: &str, n: usize) -> RoundLedger {
    let mut ledger = RoundLedger::new();
    ledger.begin_phase(format!("{label}: gather instance (diameter ≤ n)"));
    ledger.charge_gather(n);
    ledger.charge_additive(n); // broadcast the decision back
    ledger.end_phase();
    ledger
}

/// Centralised greedy heuristic — the quality floor every distributed
/// backend must beat. Never exact; always feasible.
#[derive(Clone, Copy, Debug, Default)]
pub struct Greedy;

impl Solver for Greedy {
    fn name(&self) -> &'static str {
        "greedy"
    }

    fn solve(&self, ilp: &IlpInstance, _cfg: &SolveConfig, _rng: &mut StdRng) -> SolveReport {
        let all: Vec<Vertex> = (0..ilp.n() as Vertex).collect();
        let assignment = match ilp.sense() {
            Sense::Packing => greedy::greedy_packing(&packing_restriction(ilp, &all)),
            Sense::Covering => greedy::greedy_covering(&covering_restriction(ilp, &all)),
        };
        let verdict = dapc_ilp::verify::check(ilp, &assignment);
        SolveReport {
            backend: self.name(),
            sense: ilp.sense(),
            value: verdict.value,
            ledger: centralised_ledger("greedy", ilp.n()),
            stats: BackendStats::Centralised { exact: false },
            assignment,
            verdict,
        }
    }
}

/// Centralised exact reference: the structure-detecting dispatch of
/// `dapc_ilp::solvers::solve` (conflict-graph MIS, blossom, VC-via-MIS,
/// branch & bound) on the whole instance, under the configured budget.
#[derive(Clone, Copy, Debug, Default)]
pub struct BranchAndBound;

impl Solver for BranchAndBound {
    fn name(&self) -> &'static str {
        "bnb"
    }

    fn solve(&self, ilp: &IlpInstance, cfg: &SolveConfig, _rng: &mut StdRng) -> SolveReport {
        // The full-instance solve goes through the subset memoiser so a
        // batch runtime's shared cache also covers this backend; with no
        // cache attached the result is identical to a direct solve.
        let all: Vec<Vertex> = (0..ilp.n() as Vertex).collect();
        let mut solver = match &cfg.prep_cache {
            Some(c) => SubsetSolver::with_shared(ilp, cfg.budget, c.clone()),
            None => SubsetSolver::new(ilp, cfg.budget),
        };
        let entry = solver.solve(&all, None);
        let exact = entry.exact;
        let mut assignment = vec![false; ilp.n()];
        for v in entry.ones(&all) {
            assignment[v as usize] = true;
        }
        let verdict = dapc_ilp::verify::check(ilp, &assignment);
        SolveReport {
            backend: self.name(),
            sense: ilp.sense(),
            value: verdict.value,
            ledger: centralised_ledger("bnb", ilp.n()),
            stats: BackendStats::Centralised { exact },
            assignment,
            verdict,
        }
    }
}
