//! Local sub-instances `P^local_S` and `Q^local_S` (Observations 2.1–2.2).
//!
//! *Packing* (§2.2): the local problem on `S` keeps **all** constraints,
//! with the variables outside `S` set to zero — because coefficients are
//! non-negative, this is exactly the restriction of each constraint to its
//! `S`-support with an unchanged bound, and any local solution extends to a
//! globally feasible one by zero-filling.
//!
//! *Covering* (§2.3): the local problem on `S` keeps only the constraints
//! whose support lies **entirely inside** `S` — inter-cluster constraints
//! are someone else's responsibility (the sparse cover guarantees each is
//! fully inside at least one cluster).
//!
//! Both restrictions take `S` as a strictly ascending member list and
//! walk the members' incidence lists in the instance hypergraph (one
//! hyperedge per constraint support) instead of scanning all `m`
//! constraints. The `(constraint, member position)` incidences are
//! sorted, so the touched constraints come in id order, each with its
//! `S`-members in variable order: the kept constraints, their
//! coefficient order and every float bound come out exactly as a full
//! scan in id order would produce them. For `I` incidences of `S` the
//! cost is `O(|S| + I log I)` plus the coefficients of the touched
//! constraints, rather than `O(n + nnz)`.

use crate::instance::{Constraint, IlpInstance, Sense};
use dapc_graph::Vertex;

/// A reindexed sub-instance with its mapping back to global variables.
#[derive(Clone, Debug)]
pub struct SubInstance {
    /// Packing or covering (inherited from the parent instance).
    pub sense: Sense,
    /// Global variable ids, sorted; local variable `i` is `vars[i]`.
    pub vars: Vec<Vertex>,
    /// Local weights (same order as `vars`).
    pub weights: Vec<u64>,
    /// Constraints over *local* indices.
    pub constraints: Vec<Constraint>,
}

impl SubInstance {
    /// Number of local variables.
    pub fn n(&self) -> usize {
        self.vars.len()
    }

    /// Number of local constraints.
    pub fn m(&self) -> usize {
        self.constraints.len()
    }

    /// Total local weight.
    pub fn total_weight(&self) -> u64 {
        self.weights.iter().sum()
    }

    /// Objective value of a local assignment.
    ///
    /// # Panics
    ///
    /// Panics if the assignment length mismatches.
    pub fn value(&self, x: &[bool]) -> u64 {
        assert_eq!(x.len(), self.n());
        x.iter()
            .zip(&self.weights)
            .filter(|(&xi, _)| xi)
            .map(|(_, &w)| w)
            .sum()
    }

    /// Whether a local assignment satisfies all local constraints.
    pub fn is_feasible(&self, x: &[bool]) -> bool {
        assert_eq!(x.len(), self.n());
        self.constraints.iter().all(|c| match self.sense {
            Sense::Packing => c.lhs(x) <= c.bound() + crate::instance::FEASIBILITY_EPS,
            Sense::Covering => c.lhs(x) + crate::instance::FEASIBILITY_EPS >= c.bound(),
        })
    }

    /// Writes a local assignment into a global one (only touches the
    /// sub-instance's variables).
    pub fn lift_into(&self, local: &[bool], global: &mut [bool]) {
        assert_eq!(local.len(), self.n());
        for (i, &v) in self.vars.iter().enumerate() {
            global[v as usize] = local[i];
        }
    }
}

/// Builds `P^local_S` for a packing instance: every constraint touching `S`
/// is kept, restricted to its `S`-support, bound unchanged (Observation
/// 2.1). Constraints whose restricted support is empty are dropped (they
/// are vacuous for variables in `S`).
///
/// `members` is `S` as a strictly ascending vertex list; local variable `i`
/// is `members[i]`.
///
/// # Panics
///
/// Panics if the instance is not packing or a member is out of range.
pub fn packing_restriction(ilp: &IlpInstance, members: &[Vertex]) -> SubInstance {
    assert_eq!(ilp.sense(), Sense::Packing, "expected a packing instance");
    debug_assert!(is_ascending(members), "members must be strictly ascending");
    let weights = members.iter().map(|&v| ilp.weight(v)).collect();
    let mut constraints = Vec::new();
    for run in incidences(ilp, members).chunk_by(same_constraint) {
        let c = constraint_of(ilp, run);
        // Both the coefficients and the run's positions ascend in the
        // variable, so one merge pass picks out the S-support.
        let mut coeffs: Vec<(Vertex, f64)> = Vec::with_capacity(run.len());
        let mut positions = run.iter().map(|&key| position(key)).peekable();
        for &(v, a) in c.coeffs() {
            if let Some(&i) = positions.peek() {
                if members[i as usize] == v {
                    coeffs.push((i, a));
                    positions.next();
                }
            }
        }
        constraints.push(Constraint::new(coeffs, c.bound()));
    }
    SubInstance {
        sense: Sense::Packing,
        vars: members.to_vec(),
        weights,
        constraints,
    }
}

/// Builds `Q^local_S` for a covering instance: only constraints fully
/// inside `S` are kept (Observation 2.2). `members` is `S`, strictly
/// ascending.
///
/// # Panics
///
/// Panics if the instance is not covering or a member is out of range.
pub fn covering_restriction(ilp: &IlpInstance, members: &[Vertex]) -> SubInstance {
    covering_restriction_with_fixed(ilp, members, None)
}

/// Builds `Q^local_S` while honouring variables already **fixed to one** by
/// earlier carving steps (§5.1.2 "fixing assignment"): fixed variables are
/// removed from the sub-instance and their contribution is subtracted from
/// each bound, so the local solver pays nothing for them. `members` is
/// `S`, strictly ascending; `fixed_ones` is read only at the members.
///
/// # Panics
///
/// Panics if the instance is not covering, the overlay length mismatches
/// or a member is out of range.
pub fn covering_restriction_with_fixed(
    ilp: &IlpInstance,
    members: &[Vertex],
    fixed_ones: Option<&[bool]>,
) -> SubInstance {
    assert_eq!(ilp.sense(), Sense::Covering, "expected a covering instance");
    debug_assert!(is_ascending(members), "members must be strictly ascending");
    if let Some(f) = fixed_ones {
        assert_eq!(f.len(), ilp.n());
    }
    let is_fixed = |v: Vertex| fixed_ones.is_some_and(|f| f[v as usize]);
    // `var_of[i]`: local id of the i-th member when it is free.
    let mut vars: Vec<Vertex> = Vec::with_capacity(members.len());
    let mut var_of: Vec<Vertex> = Vec::with_capacity(members.len());
    for &v in members {
        var_of.push(vars.len() as Vertex);
        if !is_fixed(v) {
            vars.push(v);
        }
    }
    let weights = vars.iter().map(|&v| ilp.weight(v)).collect();
    let mut constraints = Vec::new();
    for run in incidences(ilp, members).chunk_by(same_constraint) {
        let c = constraint_of(ilp, run);
        if run.len() != c.coeffs().len() {
            continue; // not fully inside S
        }
        // Fully inside: the t-th coefficient's variable is the member at
        // the run's t-th position.
        let fixed_contribution: f64 = c
            .coeffs()
            .iter()
            .filter(|&&(v, _)| is_fixed(v))
            .map(|&(_, a)| a)
            .sum();
        let bound = (c.bound() - fixed_contribution).max(0.0);
        if bound <= crate::instance::FEASIBILITY_EPS {
            continue; // already satisfied by fixed variables
        }
        let coeffs: Vec<(Vertex, f64)> = c
            .coeffs()
            .iter()
            .zip(run)
            .filter(|&(&(v, _), _)| !is_fixed(v))
            .map(|(&(_, a), &key)| (var_of[position(key) as usize], a))
            .collect();
        constraints.push(Constraint::new(coeffs, bound));
    }
    SubInstance {
        sense: Sense::Covering,
        vars,
        weights,
        constraints,
    }
}

/// Every incidence of `members` as `constraint id << 32 | position in
/// members`, sorted. Constraint `j` is hyperedge `j` of the instance
/// hypergraph (its support), so walking the members' incidence lists
/// finds exactly the constraints touching `S` at a cost of the
/// incidences, not `m`. After the sort the touched constraints come in
/// id order, one run each ([`same_constraint`]), and a run lists its
/// S-members' positions ascending; a run as long as its constraint's
/// support lies fully inside `S`.
fn incidences(ilp: &IlpInstance, members: &[Vertex]) -> Vec<u64> {
    let h = ilp.hypergraph();
    let mut keys: Vec<u64> = Vec::new();
    for (i, &v) in members.iter().enumerate() {
        keys.extend(
            h.incident_edges(v)
                .iter()
                .map(|&j| u64::from(j) << 32 | i as u64),
        );
    }
    keys.sort_unstable();
    keys
}

fn same_constraint(a: &u64, b: &u64) -> bool {
    a >> 32 == b >> 32
}

fn constraint_of<'a>(ilp: &'a IlpInstance, run: &[u64]) -> &'a Constraint {
    &ilp.constraints()[(run[0] >> 32) as usize]
}

fn position(key: u64) -> Vertex {
    key as Vertex
}

fn is_ascending(members: &[Vertex]) -> bool {
    members.windows(2).all(|w| w[0] < w[1])
}

/// Builds a membership mask from a vertex list.
pub fn mask_of(n: usize, vertices: &[Vertex]) -> Vec<bool> {
    let mut mask = vec![false; n];
    for &v in vertices {
        mask[v as usize] = true;
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problems;
    use dapc_graph::gen;

    #[test]
    fn packing_restriction_keeps_cross_constraints() {
        // P4: edges (0,1), (1,2), (2,3); restrict to S = {1, 2}.
        let g = gen::path(4);
        let ilp = problems::max_independent_set_unweighted(&g);
        let sub = packing_restriction(&ilp, &[1, 2]);
        assert_eq!(sub.vars, vec![1, 2]);
        // Edge (0,1) restricted to {1}: "x1 <= 1" — kept but vacuous; edge
        // (1,2) restricted fully; edge (2,3) restricted to {2}.
        assert_eq!(sub.m(), 3);
        assert!(sub.is_feasible(&[true, false]));
        assert!(!sub.is_feasible(&[true, true]));
    }

    #[test]
    fn packing_local_solution_lifts_to_global_feasible() {
        let g = gen::cycle(6);
        let ilp = problems::max_independent_set_unweighted(&g);
        let sub = packing_restriction(&ilp, &[0, 1, 2]);
        let local = vec![true, false, true];
        assert!(sub.is_feasible(&local));
        let mut global = vec![false; 6];
        sub.lift_into(&local, &mut global);
        assert!(
            ilp.is_feasible(&global),
            "Observation 2.1 zero-fill property"
        );
    }

    #[test]
    fn covering_restriction_drops_cross_constraints() {
        let g = gen::path(4);
        let ilp = problems::min_vertex_cover_unweighted(&g);
        let sub = covering_restriction(&ilp, &[1, 2]);
        // Only edge (1,2) lies fully inside.
        assert_eq!(sub.m(), 1);
        assert!(sub.is_feasible(&[true, false]));
        assert!(!sub.is_feasible(&[false, false]));
    }

    #[test]
    fn covering_fixed_vars_reduce_bounds() {
        let g = gen::path(3); // edges (0,1), (1,2)
        let ilp = problems::min_vertex_cover_unweighted(&g);
        let fixed = mask_of(3, &[1]);
        let sub = covering_restriction_with_fixed(&ilp, &[0, 1, 2], Some(&fixed));
        // Vertex 1 is fixed to one: both edges are already covered, no
        // constraints remain, and variable 1 is absent.
        assert_eq!(sub.m(), 0);
        assert_eq!(sub.vars, vec![0, 2]);
        assert!(sub.is_feasible(&[false, false]));
    }

    #[test]
    fn covering_fixed_vars_partial_bound() {
        // One constraint x0 + x1 + x2 >= 2 with x2 fixed.
        let ilp = crate::instance::IlpInstance::covering(
            3,
            vec![1, 1, 1],
            vec![crate::instance::Constraint::new(
                vec![(0, 1.0), (1, 1.0), (2, 1.0)],
                2.0,
            )],
        );
        let sub = covering_restriction_with_fixed(&ilp, &[0, 1, 2], Some(&[false, false, true]));
        assert_eq!(sub.m(), 1);
        assert_eq!(sub.constraints[0].bound(), 1.0);
        assert!(sub.is_feasible(&[true, false]));
        assert!(!sub.is_feasible(&[false, false]));
    }

    #[test]
    fn empty_subset_yields_empty_subinstance() {
        let g = gen::cycle(4);
        let ilp = problems::max_independent_set_unweighted(&g);
        let sub = packing_restriction(&ilp, &[]);
        assert_eq!(sub.n(), 0);
        assert_eq!(sub.m(), 0);
        assert!(sub.is_feasible(&[]));
    }
}
