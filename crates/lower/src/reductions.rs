//! The reduction maps of Appendix B: pulling solutions back through the
//! subdivision `G_x` (Theorems B.3 and B.7) and the dominating-set gadget
//! `G*` (Theorem B.5).

use dapc_graph::subdivide::Subdivision;
use dapc_graph::{Graph, Vertex};
use rand::rngs::StdRng;
use rand::RngExt;

/// Theorem B.3's choice of subdivision parameter:
/// `x = ⌊(0.08·ε⁻¹ − 1)/18⌋` (zero for large ε, `Θ(1/ε)` for small ε).
pub fn theorem_b3_x(eps: f64) -> usize {
    assert!(eps > 0.0, "eps must be positive");
    let x = (0.08 / eps - 1.0) / 18.0;
    if x <= 0.0 {
        0
    } else {
        x.floor() as usize
    }
}

/// Theorem B.7's choice: `x = ⌊(0.001·ε⁻¹ − 1)/2⌋`.
pub fn theorem_b7_x(eps: f64) -> usize {
    assert!(eps > 0.0, "eps must be positive");
    let x = (0.001 / eps - 1.0) / 2.0;
    if x <= 0.0 {
        0
    } else {
        x.floor() as usize
    }
}

/// Extracts an independent set of the original graph `G` from an
/// independent set of the subdivision `G_x`, exactly as in the proof of
/// Theorem B.3: keep an original vertex `v ∈ I⋄` unless some neighbour
/// `u ∈ I⋄` has a smaller random identifier.
///
/// The output is always an independent set of `G`, and the proof
/// guarantees `|I| ≥ |I⋄| − 9x·|V|` for 18-regular graphs (more generally
/// `|I⋄| − (d/2)·x·|V|`).
///
/// # Panics
///
/// Panics if `is_gx` is not the size of the subdivided vertex set.
pub fn extract_is_from_subdivision(
    sub: &Subdivision,
    is_gx: &[bool],
    rng: &mut StdRng,
) -> Vec<bool> {
    assert_eq!(is_gx.len(), sub.graph.n(), "assignment length mismatch");
    let n = sub.original_n;
    // Random distinct identifiers via a random permutation.
    let mut ids: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        let j = rng.random_range(0..=i);
        ids.swap(i, j);
    }
    let mut out = vec![false; n];
    for v in 0..n {
        if !is_gx[v] {
            continue;
        }
        let keep = sub.original_edges.iter().all(|&(a, b)| {
            let u = if a as usize == v {
                Some(b)
            } else if b as usize == v {
                Some(a)
            } else {
                None
            };
            match u {
                Some(u) => !is_gx[u as usize] || ids[v] < ids[u as usize],
                None => true,
            }
        });
        if keep {
            out[v] = true;
        }
    }
    out
}

/// Extracts a cut of the original graph from a cut of the subdivision
/// (proof of Theorem B.7): original edge `e` joins the extracted cut iff an
/// **odd** number of the `2x + 1` path edges of `P_e` lie in the
/// subdivision's cut.
///
/// `cut_gx` is a predicate over subdivided edges in canonical order.
pub fn extract_cut_from_subdivision(
    sub: &Subdivision,
    cut_gx: &dyn Fn(Vertex, Vertex) -> bool,
) -> Vec<bool> {
    let mut out = vec![false; sub.original_edges.len()];
    for (e, &(u, v)) in sub.original_edges.iter().enumerate() {
        let mut path: Vec<Vertex> = Vec::with_capacity(2 * sub.x + 2);
        path.push(u);
        path.extend(sub.interior_of_edge(e));
        path.push(v);
        let k = path.windows(2).filter(|w| cut_gx(w[0], w[1])).count();
        out[e] = k % 2 == 1;
    }
    out
}

/// Converts a dominating set of the gadget graph `G*` into a vertex cover
/// of `G` of no larger size (proof of Theorem B.5): any selected gadget
/// vertex `w_e` is replaced by one endpoint of its edge.
///
/// # Panics
///
/// Panics if `ds` is not sized for `G*` (`g.n() + edges.len()`).
pub fn vc_from_gadget_dominating_set(
    g: &Graph,
    gadget_edges: &[(Vertex, Vertex)],
    ds: &[bool],
) -> Vec<bool> {
    assert_eq!(ds.len(), g.n() + gadget_edges.len(), "gadget size mismatch");
    let mut cover: Vec<bool> = ds[..g.n()].to_vec();
    for (e, &(u, _v)) in gadget_edges.iter().enumerate() {
        if ds[g.n() + e] {
            cover[u as usize] = true;
        }
    }
    cover
}

#[cfg(test)]
mod tests {
    use super::*;
    use dapc_graph::subdivide::{dominating_set_gadget, subdivide};
    use dapc_graph::{gen, Graph};
    use dapc_ilp::problems;
    use dapc_ilp::restrict::packing_restriction;
    use dapc_ilp::solvers::{self, SolverBudget};

    /// Every variable of an `n`-variable instance, ascending.
    fn all(n: usize) -> Vec<dapc_graph::Vertex> {
        (0..n as dapc_graph::Vertex).collect()
    }

    #[test]
    fn b3_and_b7_parameters() {
        assert_eq!(theorem_b3_x(0.04), 0); // 0.08/0.04 = 2 -> (2−1)/18 < 1
        assert!(theorem_b3_x(0.001) >= 4);
        assert_eq!(theorem_b7_x(0.001), 0); // boundary: (1−1)/2
        assert!(theorem_b7_x(0.0001) >= 4);
        // Theorem B.3's constraint ε·(18x+1) ≤ 0.08 holds.
        for eps in [0.04, 0.01, 0.001, 0.0003] {
            let x = theorem_b3_x(eps);
            assert!(eps * (18.0 * x as f64 + 1.0) <= 0.08 + 1e-12, "eps {eps}");
        }
    }

    #[test]
    fn extracted_is_is_independent() {
        let mut rng = gen::seeded_rng(11);
        let g = gen::complete_bipartite(5, 5);
        let sub = subdivide(&g, 2);
        // Exact IS on the subdivision.
        let ilp = problems::max_independent_set_unweighted(&sub.graph);
        let sol = solvers::solve(
            &packing_restriction(&ilp, &all(sub.graph.n())),
            &SolverBudget::default(),
        );
        let extracted = extract_is_from_subdivision(&sub, &sol.assignment, &mut rng);
        for (u, v) in g.edges() {
            assert!(!(extracted[u as usize] && extracted[v as usize]));
        }
        // The B.3 counting: |I| >= |I⋄| − (d/2)·x·|V| with d = 5 here.
        let kept = extracted.iter().filter(|&&b| b).count();
        let original_in_gx = (0..g.n()).filter(|&v| sol.assignment[v]).count();
        assert!(kept + 1 >= original_in_gx.saturating_sub(0), "kept {kept}");
    }

    #[test]
    fn subdivision_is_size_identity_on_bipartite_graphs() {
        // α(G_x) = α(G) + x·m for bipartite G (both sides of each path
        // alternate freely): verify on K_{3,3}.
        let g = gen::complete_bipartite(3, 3);
        let x = 1;
        let sub = subdivide(&g, x);
        let budget = SolverBudget::default();
        let alpha_g = {
            let ilp = problems::max_independent_set_unweighted(&g);
            dapc_ilp::verify::optimum(&ilp, &budget).0
        };
        let alpha_gx = {
            let ilp = problems::max_independent_set_unweighted(&sub.graph);
            dapc_ilp::verify::optimum(&ilp, &budget).0
        };
        assert_eq!(alpha_gx, alpha_g + (x * g.m()) as u64);
    }

    #[test]
    fn extracted_cut_parity() {
        let g = gen::cycle(4);
        let sub = subdivide(&g, 1);
        // A proper 2-colouring of the (bipartite) subdivision induces a
        // full cut; its pull-back must be a full cut of C4.
        let side = sub
            .graph
            .bipartition()
            .expect("subdivision of C4 bipartite");
        let cut = extract_cut_from_subdivision(&sub, &|u, v| side[u as usize] != side[v as usize]);
        assert!(
            cut.iter().all(|&c| c),
            "full cut must pull back to full cut"
        );
    }

    #[test]
    fn empty_cut_pulls_back_empty() {
        let g = gen::cycle(5);
        let sub = subdivide(&g, 2);
        let cut = extract_cut_from_subdivision(&sub, &|_, _| false);
        assert!(cut.iter().all(|&c| !c));
    }

    #[test]
    fn gadget_ds_converts_to_vc() {
        let g = gen::cycle(6);
        let (gstar, edges) = dominating_set_gadget(&g);
        // Exact minimum dominating set of G*.
        let ilp = problems::min_dominating_set_unweighted(&gstar);
        let budget = SolverBudget::default();
        let sub = dapc_ilp::restrict::covering_restriction(&ilp, &all(gstar.n()));
        let sol = solvers::solve(&sub, &budget);
        let cover = vc_from_gadget_dominating_set(&g, &edges, &sol.assignment);
        // It must be a vertex cover of G of size <= |DS|.
        for (u, v) in g.edges() {
            assert!(cover[u as usize] || cover[v as usize]);
        }
        let cover_size = cover.iter().filter(|&&b| b).count() as u64;
        assert!(cover_size <= sol.value);
        // And Theorem B.5's identity γ(G*) = τ(G): check against exact VC.
        let vc = problems::min_vertex_cover_unweighted(&g);
        let tau = dapc_ilp::verify::optimum(&vc, &budget).0;
        assert_eq!(sol.value, tau);
    }

    #[test]
    fn gadget_identity_on_random_graphs() {
        let mut rng = gen::seeded_rng(13);
        let budget = SolverBudget::default();
        for _ in 0..5 {
            let g = gen::gnp(10, 0.35, &mut rng);
            if g.m() == 0 {
                continue;
            }
            let (gstar, _) = dominating_set_gadget(&g);
            let ds = problems::min_dominating_set_unweighted(&gstar);
            let vc = problems::min_vertex_cover_unweighted(&g);
            let gamma = dapc_ilp::verify::optimum(&ds, &budget).0;
            let tau = dapc_ilp::verify::optimum(&vc, &budget).0;
            // Theorem B.5 assumes no isolated vertices; each isolated
            // vertex must self-dominate in G* but never needs covering,
            // so the identity shifts by exactly their count.
            let isolated = g.vertices().filter(|&v| g.degree(v) == 0).count() as u64;
            assert_eq!(gamma, tau + isolated, "γ(G*) = τ(G) + iso failed on {g}");
        }
    }

    #[test]
    fn extraction_loss_is_bounded_on_subdivided_regular_graphs() {
        // Quantitative B.3 check on the 4-regular circulant C12(1,2).
        let mut edges = Vec::new();
        for i in 0..12u32 {
            edges.push((i, (i + 1) % 12));
            edges.push((i, (i + 2) % 12));
        }
        let g = Graph::from_edges(12, &edges);
        let x = 1;
        let sub = subdivide(&g, x);
        let ilp = problems::max_independent_set_unweighted(&sub.graph);
        let sol = solvers::solve(
            &packing_restriction(&ilp, &all(sub.graph.n())),
            &SolverBudget::default(),
        );
        let extracted =
            extract_is_from_subdivision(&sub, &sol.assignment, &mut gen::seeded_rng(14));
        let kept = extracted.iter().filter(|&&b| b).count();
        // |I| >= |I⋄| − (d/2)·x·n = |I⋄| − 2·1·12.
        assert!(kept as i64 >= sol.value as i64 - 24);
    }
}
