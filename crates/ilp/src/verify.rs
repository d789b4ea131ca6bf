//! Global solution verification and approximation-ratio reporting.

use crate::instance::{IlpInstance, Sense};
use crate::restrict::{covering_restriction, packing_restriction};
use crate::solvers::{self, SolverBudget};
use dapc_graph::Vertex;

/// A verified global solution with its quality relative to a reference
/// optimum.
#[derive(Clone, Debug, PartialEq)]
pub struct Verdict {
    /// Whether every constraint is satisfied.
    pub feasible: bool,
    /// Objective value of the solution.
    pub value: u64,
    /// Reference optimum (exact if `opt_exact`).
    pub opt: u64,
    /// Whether the reference optimum was proven optimal.
    pub opt_exact: bool,
    /// `value / opt` for packing, `value / opt` for covering (so packing
    /// ratios are ≤ 1 and covering ratios ≥ 1 when `opt > 0`).
    pub ratio: f64,
}

impl Verdict {
    /// Whether the solution is within the `(1 − ε)` packing guarantee.
    pub fn within_packing(&self, eps: f64) -> bool {
        self.feasible && self.value as f64 >= (1.0 - eps) * self.opt as f64 - 1e-9
    }

    /// Whether the solution is within the `(1 + ε)` covering guarantee.
    pub fn within_covering(&self, eps: f64) -> bool {
        self.feasible && self.value as f64 <= (1.0 + eps) * self.opt as f64 + 1e-9
    }
}

/// A cheap feasibility-only verdict: no reference optimum is computed, so
/// this is safe to embed in every solver run (unlike [`verdict`], whose
/// exact reference solve can dwarf the solver being verified).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FeasibilityReport {
    /// Whether every constraint is satisfied.
    pub feasible: bool,
    /// Objective value of the solution.
    pub value: u64,
    /// Ids of violated constraints (empty iff feasible).
    pub violated: Vec<usize>,
}

/// Checks a solution against the instance without solving for the optimum.
///
/// # Examples
///
/// ```
/// use dapc_graph::gen;
/// use dapc_ilp::{problems, verify};
///
/// let ilp = problems::min_vertex_cover_unweighted(&gen::path(3));
/// let r = verify::check(&ilp, &[false, true, false]);
/// assert!(r.feasible);
/// assert_eq!(r.value, 1);
/// assert!(verify::check(&ilp, &[false, false, false]).violated.len() == 2);
/// ```
pub fn check(ilp: &IlpInstance, x: &[bool]) -> FeasibilityReport {
    let violated = ilp.violated_constraints(x);
    FeasibilityReport {
        feasible: violated.is_empty(),
        value: ilp.value(x),
        violated,
    }
}

/// Computes the exact (budgeted) optimum of a whole instance by treating it
/// as one big local sub-instance.
pub fn optimum(ilp: &IlpInstance, budget: &SolverBudget) -> (u64, bool) {
    let all: Vec<Vertex> = (0..ilp.n() as Vertex).collect();
    let sub = match ilp.sense() {
        Sense::Packing => packing_restriction(ilp, &all),
        Sense::Covering => covering_restriction(ilp, &all),
    };
    let sol = solvers::solve(&sub, budget);
    (sol.value, sol.exact)
}

/// Verifies a solution against the instance and a freshly computed
/// reference optimum.
pub fn verdict(ilp: &IlpInstance, x: &[bool], budget: &SolverBudget) -> Verdict {
    let (opt, opt_exact) = optimum(ilp, budget);
    verdict_against(ilp, x, opt, opt_exact)
}

/// Verifies a solution against a known reference optimum.
pub fn verdict_against(ilp: &IlpInstance, x: &[bool], opt: u64, opt_exact: bool) -> Verdict {
    let feasible = ilp.is_feasible(x);
    let value = ilp.value(x);
    let ratio = if opt == 0 {
        if value == 0 {
            1.0
        } else {
            f64::INFINITY
        }
    } else {
        value as f64 / opt as f64
    };
    Verdict {
        feasible,
        value,
        opt,
        opt_exact,
        ratio,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problems;
    use dapc_graph::gen;

    #[test]
    fn optimum_of_known_instances() {
        let g = gen::cycle(10);
        let mis = problems::max_independent_set_unweighted(&g);
        assert_eq!(optimum(&mis, &SolverBudget::default()), (5, true));
        let vc = problems::min_vertex_cover_unweighted(&g);
        assert_eq!(optimum(&vc, &SolverBudget::default()), (5, true));
        let ds = problems::min_dominating_set_unweighted(&g);
        assert_eq!(optimum(&ds, &SolverBudget::default()), (4, true));
    }

    #[test]
    fn verdict_flags_ratios() {
        let g = gen::cycle(8);
        let mis = problems::max_independent_set_unweighted(&g);
        // A 3-vertex independent set in C8 (opt 4): ratio 0.75.
        let x = [true, false, true, false, true, false, false, false];
        let v = verdict(&mis, &x, &SolverBudget::default());
        assert!(v.feasible);
        assert_eq!(v.opt, 4);
        assert!((v.ratio - 0.75).abs() < 1e-12);
        assert!(v.within_packing(0.3));
        assert!(!v.within_packing(0.1));
    }

    #[test]
    fn verdict_detects_infeasible() {
        let g = gen::path(3);
        let vc = problems::min_vertex_cover_unweighted(&g);
        let v = verdict(&vc, &[false, false, false], &SolverBudget::default());
        assert!(!v.feasible);
        assert!(!v.within_covering(10.0));
    }

    #[test]
    fn covering_ratio_direction() {
        let g = gen::star(6);
        let ds = problems::min_dominating_set_unweighted(&g);
        // Taking hub + one leaf: value 2, opt 1 -> ratio 2.
        let mut x = vec![false; 6];
        x[0] = true;
        x[1] = true;
        let v = verdict(&ds, &x, &SolverBudget::default());
        assert_eq!(v.opt, 1);
        assert!((v.ratio - 2.0).abs() < 1e-12);
        assert!(v.within_covering(1.0));
        assert!(!v.within_covering(0.5));
    }

    #[test]
    fn zero_opt_edge_case() {
        let ilp = crate::instance::IlpInstance::covering(2, vec![1, 1], vec![]);
        let v = verdict(&ilp, &[false, false], &SolverBudget::default());
        assert_eq!(v.opt, 0);
        assert_eq!(v.ratio, 1.0);
        let v2 = verdict(&ilp, &[true, false], &SolverBudget::default());
        assert_eq!(v2.ratio, f64::INFINITY);
    }
}
