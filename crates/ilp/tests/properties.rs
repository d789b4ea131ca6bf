//! Property-based tests for the ILP substrate.

use dapc_graph::{gen, Graph, Vertex};
use dapc_ilp::instance::{Constraint, IlpInstance, FEASIBILITY_EPS};
use dapc_ilp::restrict::{
    covering_restriction, covering_restriction_with_fixed, packing_restriction, SubInstance,
};
use dapc_ilp::solvers::{self, SolverBudget};
use dapc_ilp::{problems, Sense};
use proptest::prelude::*;
use rand::RngExt;

fn arb_graph(max_n: usize) -> impl Strategy<Value = Graph> {
    (3usize..max_n).prop_flat_map(|n| {
        proptest::collection::vec((0..n as Vertex, 0..n as Vertex), 0..(2 * n))
            .prop_map(move |edges| Graph::from_edges(n, &edges))
    })
}

/// Every variable of an `n`-variable instance, ascending.
fn all(n: usize) -> Vec<Vertex> {
    (0..n as Vertex).collect()
}

/// The ascending member list of a membership mask.
fn members(mask: &[bool]) -> Vec<Vertex> {
    (0..mask.len() as Vertex)
        .filter(|&v| mask[v as usize])
        .collect()
}

/// The full-scan `P^local_S` that the incidence walk replaced, kept as its
/// oracle: every constraint of the instance is visited in id order and
/// restricted through an `n`-length local-id map.
fn packing_restriction_oracle(ilp: &IlpInstance, subset: &[bool]) -> SubInstance {
    let (vars, local_id) = collect_vars(subset);
    let weights = vars.iter().map(|&v| ilp.weight(v)).collect();
    let mut constraints = Vec::new();
    for c in ilp.constraints() {
        let coeffs: Vec<(Vertex, f64)> = c
            .coeffs()
            .iter()
            .filter(|&&(v, _)| subset[v as usize])
            .map(|&(v, a)| (local_id[v as usize], a))
            .collect();
        if !coeffs.is_empty() {
            constraints.push(Constraint::new(coeffs, c.bound()));
        }
    }
    SubInstance {
        sense: Sense::Packing,
        vars,
        weights,
        constraints,
    }
}

/// The full-scan `Q^local_S` with a fixed-ones overlay (the oracle of
/// [`covering_restriction_with_fixed`]).
fn covering_restriction_oracle(
    ilp: &IlpInstance,
    subset: &[bool],
    fixed_ones: Option<&[bool]>,
) -> SubInstance {
    let is_fixed = |v: Vertex| fixed_ones.is_some_and(|f| f[v as usize]);
    let free: Vec<bool> = (0..ilp.n())
        .map(|v| subset[v] && !is_fixed(v as Vertex))
        .collect();
    let (vars, local_id) = collect_vars(&free);
    let weights = vars.iter().map(|&v| ilp.weight(v)).collect();
    let mut constraints = Vec::new();
    for c in ilp.constraints() {
        if !c.coeffs().iter().all(|&(v, _)| subset[v as usize]) {
            continue;
        }
        let fixed_contribution: f64 = c
            .coeffs()
            .iter()
            .filter(|&&(v, _)| is_fixed(v))
            .map(|&(_, a)| a)
            .sum();
        let bound = (c.bound() - fixed_contribution).max(0.0);
        if bound <= FEASIBILITY_EPS {
            continue;
        }
        let coeffs: Vec<(Vertex, f64)> = c
            .coeffs()
            .iter()
            .filter(|&&(v, _)| !is_fixed(v))
            .map(|&(v, a)| (local_id[v as usize], a))
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

fn collect_vars(subset: &[bool]) -> (Vec<Vertex>, Vec<Vertex>) {
    let mut vars = Vec::new();
    let mut local_id = vec![u32::MAX; subset.len()];
    for (v, &inside) in subset.iter().enumerate() {
        if inside {
            local_id[v] = vars.len() as Vertex;
            vars.push(v as Vertex);
        }
    }
    (vars, local_id)
}

/// A sub-instance with every float replaced by its bit pattern, so
/// equality is bit-for-bit (`-0.0 != 0.0`, no epsilon).
type Bits = (Sense, Vec<Vertex>, Vec<u64>, Vec<(Vec<(Vertex, u64)>, u64)>);

fn bits(sub: &SubInstance) -> Bits {
    let constraints = sub
        .constraints
        .iter()
        .map(|c| {
            let coeffs = c.coeffs().iter().map(|&(v, a)| (v, a.to_bits())).collect();
            (coeffs, c.bound().to_bits())
        })
        .collect();
    (
        sub.sense,
        sub.vars.clone(),
        sub.weights.clone(),
        constraints,
    )
}

/// Random packing, covering and dominating-set (hypergraph) instances.
fn instance(kind: u8, n: usize, m: usize, rng: &mut rand::rngs::StdRng) -> IlpInstance {
    match kind {
        0 => problems::random_packing(n, m, 3.min(n), rng),
        1 => problems::random_covering(n, m, 4.min(n), rng),
        _ => problems::min_dominating_set_unweighted(&gen::gnp(n, 0.2, rng)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Observation 2.1, first inequality: W(P*, S) <= W(P^local_S, S).
    #[test]
    fn observation_2_1_lower(g in arb_graph(12), seed in 0u64..20) {
        let ilp = problems::max_independent_set_unweighted(&g);
        let n = ilp.n();
        let full = all(n);
        let opt = solvers::solve(&packing_restriction(&ilp, &full), &SolverBudget::unlimited());
        prop_assert!(opt.exact);
        // Random subset S.
        let mut rng = gen::seeded_rng(seed);
        let subset: Vec<bool> = (0..n).map(|_| rng.random::<f64>() < 0.5).collect();
        let local = solvers::solve(&packing_restriction(&ilp, &members(&subset)), &SolverBudget::unlimited());
        prop_assert!(local.exact);
        // W(P*, S): restrict the global optimum's assignment to S.
        let mut global = vec![false; n];
        packing_restriction(&ilp, &full).lift_into(&opt.assignment, &mut global);
        let w_opt_on_s = ilp.value_on(&global, &subset);
        prop_assert!(w_opt_on_s <= local.value,
            "W(P*, S) = {} must be <= W(P^local_S, S) = {}", w_opt_on_s, local.value);
    }

    /// Observation 2.2: W(Q^local_S, S) <= W(Q*, S) <= W(Q*, V).
    #[test]
    fn observation_2_2(g in arb_graph(10), seed in 0u64..20) {
        let ilp = problems::min_vertex_cover_unweighted(&g);
        let n = ilp.n();
        let full = all(n);
        let opt = solvers::solve(&covering_restriction(&ilp, &full), &SolverBudget::unlimited());
        prop_assert!(opt.exact);
        let mut rng = gen::seeded_rng(seed);
        let subset: Vec<bool> = (0..n).map(|_| rng.random::<f64>() < 0.6).collect();
        let local = solvers::solve(&covering_restriction(&ilp, &members(&subset)), &SolverBudget::unlimited());
        prop_assert!(local.exact);
        let mut global = vec![false; n];
        covering_restriction(&ilp, &full).lift_into(&opt.assignment, &mut global);
        let w_opt_on_s = ilp.value_on(&global, &subset);
        prop_assert!(local.value <= w_opt_on_s,
            "W(Q^local_S, S) = {} must be <= W(Q*, S) = {}", local.value, w_opt_on_s);
        prop_assert!(w_opt_on_s <= opt.value);
    }

    /// Zero-filled local packing solutions are globally feasible.
    #[test]
    fn packing_zero_fill_feasible(g in arb_graph(14), keep_mod in 2usize..4) {
        let ilp = problems::max_independent_set_unweighted(&g);
        let n = ilp.n();
        let keep: Vec<Vertex> = (0..n as Vertex).filter(|v| (*v as usize).is_multiple_of(keep_mod)).collect();
        let sub = packing_restriction(&ilp, &keep);
        let sol = solvers::solve(&sub, &SolverBudget::unlimited());
        let mut global = vec![false; n];
        sub.lift_into(&sol.assignment, &mut global);
        prop_assert!(ilp.is_feasible(&global));
    }

    /// The solver never returns an infeasible assignment, on any sense.
    #[test]
    fn solver_always_feasible(n in 4usize..12, m in 1usize..10, seed in 0u64..30) {
        let mut rng = gen::seeded_rng(seed);
        for sense in [Sense::Packing, Sense::Covering] {
            let ilp = match sense {
                Sense::Packing => problems::random_packing(n, m, 3.min(n), &mut rng),
                Sense::Covering => problems::random_covering(n, m, 3.min(n), &mut rng),
            };
            let sub = match sense {
                Sense::Packing => packing_restriction(&ilp, &all(n)),
                Sense::Covering => covering_restriction(&ilp, &all(n)),
            };
            let sol = solvers::solve(&sub, &SolverBudget::unlimited());
            prop_assert!(sub.is_feasible(&sol.assignment));
            prop_assert_eq!(sol.value, sub.value(&sol.assignment));
        }
    }

    /// Matching ILP optimum equals the blossom matching size.
    #[test]
    fn matching_ilp_equals_blossom(g in arb_graph(10)) {
        let m = problems::max_matching(&g);
        if m.ilp.n() == 0 { return Ok(()); }
        let sub = packing_restriction(&m.ilp, &all(m.ilp.n()));
        let sol = solvers::solve(&sub, &SolverBudget::unlimited());
        let blossom = dapc_ilp::solvers::blossom::max_matching(&g);
        prop_assert!(sol.exact);
        prop_assert_eq!(sol.value as usize, blossom.size());
    }

    /// Vertex cover + independent set = n on every graph (König-free
    /// complement identity, holds pointwise for optima).
    #[test]
    fn vc_plus_mis_is_n(g in arb_graph(12)) {
        let n = g.n();
        let mis = problems::max_independent_set_unweighted(&g);
        let vc = problems::min_vertex_cover_unweighted(&g);
        let a = solvers::solve(&packing_restriction(&mis, &all(n)), &SolverBudget::unlimited());
        let b = solvers::solve(&covering_restriction(&vc, &all(n)), &SolverBudget::unlimited());
        prop_assert!(a.exact && b.exact);
        prop_assert_eq!(a.value + b.value, n as u64);
    }

    /// The incidence-walk restrictions equal the full scan bit for bit —
    /// variables, weights, constraint order, coefficients and bounds — on
    /// random subsets (empty ones included) of packing, covering and
    /// hypergraph dominating-set instances, for covering with no overlay,
    /// an empty overlay and a random fixed-ones overlay.
    #[test]
    fn incidence_restriction_equals_full_scan(
        kind in 0u8..3,
        n in 1usize..24,
        m in 1usize..30,
        density in 0u8..4,
        seed in 0u64..1000,
    ) {
        let mut rng = gen::seeded_rng(seed);
        let ilp = instance(kind, n, m, &mut rng);
        let p = [0.0, 0.3, 0.7, 1.0][density as usize];
        let subset: Vec<bool> = (0..n).map(|_| rng.random::<f64>() < p).collect();
        let s = members(&subset);
        match ilp.sense() {
            Sense::Packing => prop_assert_eq!(
                bits(&packing_restriction(&ilp, &s)),
                bits(&packing_restriction_oracle(&ilp, &subset))
            ),
            Sense::Covering => {
                let empty = vec![false; n];
                let fixed: Vec<bool> = (0..n).map(|_| rng.random::<f64>() < 0.3).collect();
                for overlay in [None, Some(empty.as_slice()), Some(fixed.as_slice())] {
                    prop_assert_eq!(
                        bits(&covering_restriction_with_fixed(&ilp, &s, overlay)),
                        bits(&covering_restriction_oracle(&ilp, &subset, overlay))
                    );
                }
            }
        }
    }
}
