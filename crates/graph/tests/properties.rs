//! Property-based tests for the graph substrate.

use dapc_graph::{gen, girth, power, subdivide, traversal, Graph, Hypergraph, Vertex};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SliceRandom};

/// Strategy: a random edge list over `n` vertices.
fn arb_graph(max_n: usize) -> impl Strategy<Value = Graph> {
    (2usize..max_n).prop_flat_map(|n| {
        proptest::collection::vec((0..n as Vertex, 0..n as Vertex), 0..(3 * n))
            .prop_map(move |edges| Graph::from_edges(n, &edges))
    })
}

/// The weak diameter as it was computed before the bit-parallel sweep:
/// one full-graph BFS per listed vertex, every pair checked.
fn weak_diameter_oracle(g: &Graph, s: &[Vertex]) -> Option<u32> {
    let mut best = 0u32;
    for &u in s {
        let dist = traversal::bfs_distances(g, u);
        for &v in s {
            let d = dist[v as usize];
            if d == traversal::UNREACHABLE {
                return None;
            }
            best = best.max(d);
        }
    }
    Some(best)
}

/// The hypergraph weak diameter as it was computed before it went
/// through the primal graph: one primal-metric BFS per listed vertex.
fn hypergraph_weak_diameter_oracle(h: &Hypergraph, s: &[Vertex]) -> Option<u32> {
    let mut best = 0u32;
    for &u in s {
        let dist = h.distances(&[u], None, None);
        for &v in s {
            let d = dist[v as usize];
            if d == traversal::UNREACHABLE {
                return None;
            }
            best = best.max(d);
        }
    }
    Some(best)
}

/// `a` and `b` side by side, `b`'s vertices shifted past `a`'s.
fn disjoint_union(a: &Graph, b: &Graph) -> Graph {
    let off = a.n() as Vertex;
    let edges: Vec<(Vertex, Vertex)> = a
        .edges()
        .chain(b.edges().map(|(u, v)| (u + off, v + off)))
        .collect();
    Graph::from_edges(a.n() + b.n(), &edges)
}

/// The weak-diameter test graphs for `n ≥ 130`, each on at least 130
/// vertices so every set of [`diameter_sets`] fits: G(n,p) above, near
/// and below the connectivity threshold, grid, random 3- and 4-regular,
/// cycle, path, and a disjoint union of a grid and a cycle. Balls in the
/// sparse tree-like graphs are where the centre search most often ends
/// one short of the diameter, so they exercise the stop rule's boundary.
fn diameter_graphs(n: usize, rng: &mut StdRng) -> Vec<Graph> {
    vec![
        gen::gnp(n, 8.0 / n as f64, rng),
        gen::gnp(n, 3.0 / n as f64, rng),
        gen::gnp(n, 1.5 / n as f64, rng),
        gen::grid(n / 10, 10),
        gen::random_regular(n - n % 2, 3, rng),
        gen::random_regular(n - n % 2, 4, rng),
        gen::cycle(n),
        gen::path(n),
        disjoint_union(&gen::grid(8, n / 16 + 1), &gen::cycle(n / 2)),
    ]
}

/// The weak-diameter test sets of `g` (at least 130 vertices): empty,
/// singleton, duplicated vertices, 63/64/65/130 distinct vertices (one
/// partial, one full, a full plus a partial, and three batches of 64
/// sources), the whole vertex set, and the cluster shapes of
/// [`cluster_sets`].
fn diameter_sets(g: &Graph, rng: &mut StdRng) -> Vec<Vec<Vertex>> {
    let mut all: Vec<Vertex> = g.vertices().collect();
    all.shuffle(rng);
    let mut dup: Vec<Vertex> = all[..40].iter().chain(&all[..25]).copied().collect();
    dup.shuffle(rng);
    let mut sets = vec![Vec::new(), vec![all[0]], dup];
    sets.extend([63, 64, 65, 130].map(|k| all[..k].to_vec()));
    sets.extend(cluster_sets(g, all[0], rng));
    sets.push(all);
    sets
}

/// Cluster-shaped sets around random centres of `g`: a BFS ball of each
/// radius 2–6, the same balls without their centre (so the best centre
/// of the set is not a member), and the union of a ball around `a` with
/// one around a vertex farthest from `a`, whose far half alone can fill
/// more than one batch of 64 sources.
fn cluster_sets(g: &Graph, a: Vertex, rng: &mut StdRng) -> Vec<Vec<Vertex>> {
    let ball =
        |c: Vertex, r: usize| -> Vec<Vertex> { traversal::ball(g, &[c], r, None).iter().collect() };
    let mut sets = Vec::new();
    for r in 2..=6 {
        let c = rng.random_range(0..g.n() as Vertex);
        let b = ball(c, r);
        sets.push(b[1..].to_vec());
        sets.push(b);
    }
    let d = traversal::bfs_distances(g, a);
    let b = g
        .vertices()
        .filter(|&v| d[v as usize] != traversal::UNREACHABLE)
        .max_by_key(|&v| d[v as usize])
        .unwrap_or(a);
    let r = rng.random_range(2..7);
    sets.push(ball(a, r).into_iter().chain(ball(b, r)).collect());
    sets
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn weak_diameter_equals_the_per_vertex_oracle(n in 130usize..260, seed in 0u64..1_000_000) {
        let mut rng = gen::seeded_rng(seed);
        for g in diameter_graphs(n, &mut rng) {
            for s in diameter_sets(&g, &mut rng) {
                prop_assert_eq!(
                    traversal::weak_diameter(&g, &s),
                    weak_diameter_oracle(&g, &s),
                    "n={} |S|={}", g.n(), s.len()
                );
            }
        }
    }

    #[test]
    fn weak_diameter_of_a_set_across_components_is_none(
        n in 130usize..260,
        seed in 0u64..1_000_000,
        left in 1usize..100,
        right in 1usize..100,
    ) {
        let mut rng = gen::seeded_rng(seed);
        let a = gen::random_regular(n - n % 2, 4, &mut rng);
        let b = gen::grid(n / 10, 10);
        let g = disjoint_union(&a, &b);
        let (mut lo, mut hi): (Vec<Vertex>, Vec<Vertex>) =
            g.vertices().partition(|&v| (v as usize) < a.n());
        lo.shuffle(&mut rng);
        hi.shuffle(&mut rng);
        let mut s: Vec<Vertex> = lo[..left].iter().chain(&hi[..right]).copied().collect();
        s.shuffle(&mut rng);
        prop_assert_eq!(traversal::weak_diameter(&g, &s), None);
        prop_assert_eq!(weak_diameter_oracle(&g, &s), None);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random hypergraphs of 2–5-vertex hyperedges, from too few to
    /// connect the vertex set to many, and sets from a single vertex to
    /// more than one batch of 64 sources.
    #[test]
    fn hypergraph_weak_diameter_equals_the_per_vertex_oracle(
        n in 2usize..160,
        density in 0.1f64..1.5,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = gen::seeded_rng(seed);
        let edges: Vec<Vec<Vertex>> = (0..(density * n as f64) as usize)
            .map(|_| {
                let rank = rng.random_range(2..6usize);
                (0..rank).map(|_| rng.random_range(0..n as Vertex)).collect()
            })
            .collect();
        let h = Hypergraph::new(n, edges);
        let mut all: Vec<Vertex> = (0..n as Vertex).collect();
        all.shuffle(&mut rng);
        for k in [1, 2, n / 3, n / 2, n] {
            let s = &all[..k.max(1)];
            prop_assert_eq!(
                h.weak_diameter(s),
                hypergraph_weak_diameter_oracle(&h, s),
                "n={} m={} |S|={}", n, h.m(), s.len()
            );
        }
    }
}

proptest! {
    #[test]
    fn csr_degree_sum_is_twice_m(g in arb_graph(60)) {
        prop_assert_eq!(g.degree_sum(), 2 * g.m());
    }

    #[test]
    fn adjacency_is_symmetric(g in arb_graph(40)) {
        for (u, v) in g.edges() {
            prop_assert!(g.has_edge(u, v));
            prop_assert!(g.has_edge(v, u));
            prop_assert!(g.neighbors(v).contains(&u));
        }
    }

    #[test]
    fn bfs_distances_satisfy_triangle_on_edges(g in arb_graph(40)) {
        // For every edge (u,v) and source s: |d(s,u) − d(s,v)| <= 1.
        let d = traversal::bfs_distances(&g, 0);
        for (u, v) in g.edges() {
            let du = d[u as usize];
            let dv = d[v as usize];
            if du != traversal::UNREACHABLE && dv != traversal::UNREACHABLE {
                prop_assert!(du.abs_diff(dv) <= 1);
            } else {
                prop_assert_eq!(du, dv); // both unreachable
            }
        }
    }

    #[test]
    fn ball_levels_match_bfs_distances(g in arb_graph(40), r in 0usize..6) {
        let b = traversal::ball(&g, &[0], r, None);
        let d = traversal::bfs_distances(&g, 0);
        for (lvl, vs) in b.levels.iter().enumerate() {
            for &v in vs {
                prop_assert_eq!(d[v as usize] as usize, lvl);
            }
        }
        let in_ball = b.len();
        let expected = d.iter().filter(|&&x| x != traversal::UNREACHABLE && x as usize <= r).count();
        prop_assert_eq!(in_ball, expected);
    }

    #[test]
    fn components_partition_vertices(g in arb_graph(50)) {
        let (comp, k) = g.connected_components();
        prop_assert!(comp.iter().all(|&c| (c as usize) < k));
        for (u, v) in g.edges() {
            prop_assert_eq!(comp[u as usize], comp[v as usize]);
        }
    }

    #[test]
    fn induced_subgraph_preserves_edges(g in arb_graph(30)) {
        let keep: Vec<Vertex> = g.vertices().filter(|v| v % 2 == 0).collect();
        let (sub, back) = g.induced_subgraph(&keep);
        for (a, b) in sub.edges() {
            prop_assert!(g.has_edge(back[a as usize], back[b as usize]));
        }
        // Count edges of g with both endpoints kept.
        let kept: std::collections::HashSet<_> = keep.iter().copied().collect();
        let expected = g.edges().filter(|(u, v)| kept.contains(u) && kept.contains(v)).count();
        prop_assert_eq!(sub.m(), expected);
    }

    #[test]
    fn power_graph_edges_iff_distance_at_most_k(g in arb_graph(25), k in 0usize..4) {
        let gk = power::power_graph(&g, k);
        for u in g.vertices() {
            let d = traversal::bfs_distances(&g, u);
            for v in g.vertices() {
                if v <= u { continue; }
                let close = d[v as usize] != traversal::UNREACHABLE && (d[v as usize] as usize) <= k && d[v as usize] >= 1;
                prop_assert_eq!(gk.has_edge(u, v), close, "u={} v={} k={}", u, v, k);
            }
        }
    }

    #[test]
    fn subdivision_distance_scales(g in arb_graph(20), x in 1usize..3) {
        let s = subdivide::subdivide(&g, x);
        let scale = (2 * x + 1) as u32;
        for u in g.vertices() {
            let d0 = traversal::bfs_distances(&g, u);
            let d1 = traversal::bfs_distances(&s.graph, u);
            for v in g.vertices() {
                if d0[v as usize] != traversal::UNREACHABLE {
                    prop_assert_eq!(d1[v as usize], d0[v as usize] * scale);
                }
            }
        }
    }

    #[test]
    fn subdivision_girth_scales(n in 3usize..9) {
        let g = gen::cycle(n);
        let s = subdivide::subdivide(&g, 2);
        prop_assert_eq!(girth::girth(&s.graph), Some(5 * n as u32));
    }

    #[test]
    fn hypergraph_primal_distance_matches_graph(g in arb_graph(30)) {
        let h = Hypergraph::from_graph(&g);
        let hd = h.distances(&[0], None, None);
        let gd = traversal::bfs_distances(&g, 0);
        prop_assert_eq!(hd, gd);
    }

    #[test]
    fn gnp_is_simple(n in 2usize..60, seed in 0u64..50) {
        let g = gen::gnp(n, 0.2, &mut gen::seeded_rng(seed));
        for v in g.vertices() {
            prop_assert!(!g.has_edge(v, v));
            let nb = g.neighbors(v);
            for w in nb.windows(2) {
                prop_assert!(w[0] < w[1], "adjacency not strictly sorted");
            }
        }
    }

    #[test]
    fn random_regular_degree(seed in 0u64..20) {
        let g = gen::random_regular(30, 3, &mut gen::seeded_rng(seed));
        prop_assert!(g.is_regular(3));
    }

    #[test]
    fn random_tree_is_connected_acyclic(n in 1usize..80, seed in 0u64..20) {
        let t = gen::random_tree(n, &mut gen::seeded_rng(seed));
        prop_assert_eq!(t.m(), n - 1);
        let (_, k) = t.connected_components();
        prop_assert_eq!(k, 1);
        prop_assert_eq!(girth::girth(&t), None);
    }
}
