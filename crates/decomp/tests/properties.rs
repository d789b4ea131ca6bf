//! Property-based tests on the Definition 1.4 invariants of every
//! decomposition algorithm, and on the shift-propagation engine they share
//! against its best-first heap oracle.

use dapc_decomp::blackbox::{blackbox_ldd, BlackboxParams};
use dapc_decomp::elkin_neiman::{elkin_neiman, EnParams};
use dapc_decomp::mpx::mpx;
use dapc_decomp::network_decomposition::network_decomposition;
use dapc_decomp::shift::{draw_shifts, propagate, propagate_hypergraph, Keep, Label};
use dapc_decomp::sparse_cover::sparse_cover;
use dapc_decomp::three_phase::{three_phase_ldd, LddParams};
use dapc_graph::{gen, Graph, Hypergraph, Vertex};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

fn arb_graph(max_n: usize) -> impl Strategy<Value = Graph> {
    (4usize..max_n).prop_flat_map(|n| {
        proptest::collection::vec((0..n as Vertex, 0..n as Vertex), 0..(2 * n))
            .prop_map(move |edges| Graph::from_edges(n, &edges))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Elkin–Neiman always emits a valid Definition 1.4 decomposition with
    /// clusters within the diameter bound.
    #[test]
    fn elkin_neiman_invariants(g in arb_graph(60), seed in 0u64..50, lam in 1usize..8) {
        let lambda = lam as f64 / 10.0;
        let params = EnParams::new(lambda, g.n().max(2) as f64);
        let d = elkin_neiman(&g, &params, &mut gen::seeded_rng(seed), None);
        prop_assert!(d.validate(&g, None).is_ok());
        if !d.clusters.is_empty() {
            let diam = d.max_strong_diameter(&g);
            prop_assert!(diam.is_some(), "clusters must be connected");
            prop_assert!(f64::from(diam.unwrap()) <= params.diameter_bound());
        }
    }

    /// The three-phase LDD maintains the same invariants on arbitrary
    /// graphs, masks included.
    #[test]
    fn three_phase_invariants(g in arb_graph(50), seed in 0u64..20) {
        let params = LddParams::scaled(0.3, g.n() as f64, 0.02);
        let out = three_phase_ldd(&g, &params, &mut gen::seeded_rng(seed), None);
        prop_assert!(out.decomposition.validate(&g, None).is_ok());
        // Phase accounting is consistent.
        let s = &out.stats;
        prop_assert_eq!(
            s.deleted_phase1 + s.deleted_phase2 + s.deleted_phase3,
            out.decomposition.deleted_count()
        );
    }

    /// Masked three-phase runs never label dead vertices.
    #[test]
    fn three_phase_mask_safety(g in arb_graph(40), seed in 0u64..10, modulus in 2usize..5) {
        let alive: Vec<bool> = (0..g.n()).map(|v| v % modulus != 0).collect();
        let params = LddParams::scaled(0.25, g.n() as f64, 0.02);
        let out = three_phase_ldd(&g, &params, &mut gen::seeded_rng(seed), Some(&alive));
        prop_assert!(out.decomposition.validate(&g, Some(&alive)).is_ok());
        for (v, &live) in alive.iter().enumerate() {
            if !live {
                prop_assert!(out.decomposition.cluster_of[v].is_none());
                prop_assert!(!out.decomposition.deleted[v]);
            }
        }
    }

    /// MPX assigns every vertex a centre in its own component, and cut
    /// edges are exactly the inter-cluster edges.
    #[test]
    fn mpx_invariants(g in arb_graph(50), seed in 0u64..20) {
        let c = mpx(&g, 0.3, g.n().max(2) as f64, &mut gen::seeded_rng(seed));
        let (comp, _) = g.connected_components();
        for v in 0..g.n() {
            let ctr = c.center_of[v];
            prop_assert_eq!(comp[v], comp[ctr as usize], "centre in same component");
        }
        for &(u, v) in &c.cut_edges {
            prop_assert_ne!(c.center_of[u as usize], c.center_of[v as usize]);
        }
    }

    /// Sparse covers cover every hyperedge and every vertex.
    #[test]
    fn sparse_cover_invariants(g in arb_graph(40), seed in 0u64..20) {
        let h = Hypergraph::from_graph(&g);
        let cover = sparse_cover(&h, 0.4, g.n().max(2) as f64, &mut gen::seeded_rng(seed), None, None);
        prop_assert!(cover.uncovered_edges(&h, None, None).is_empty());
        for v in 0..g.n() as Vertex {
            prop_assert!(cover.multiplicity(v) >= 1);
        }
        // Membership lists agree with cluster lists.
        for (id, cluster) in cover.clusters.iter().enumerate() {
            for &v in cluster {
                prop_assert!(cover.membership[v as usize].contains(&(id as u32)));
            }
        }
    }

    /// Network decompositions are proper colourings of valid clusterings.
    #[test]
    fn network_decomposition_invariants(g in arb_graph(40), seed in 0u64..20) {
        let nd = network_decomposition(&g, g.n().max(2) as f64, &mut gen::seeded_rng(seed));
        prop_assert!(nd.validate(&g).is_ok());
        prop_assert!(nd.colors >= 1);
    }

    /// The blackbox construction obeys Definition 1.4 too.
    #[test]
    fn blackbox_invariants(g in arb_graph(40), seed in 0u64..10) {
        let params = BlackboxParams::new(0.3, g.n() as f64, 0.02);
        let d = blackbox_ldd(&g, &params, &mut gen::seeded_rng(seed));
        prop_assert!(d.validate(&g, None).is_ok());
    }
}

/// One entry of the oracle's heap.
#[derive(Clone, Copy, Debug, PartialEq)]
struct HeapEntry {
    value: f64,
    source: Vertex,
    vertex: Vertex,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap on value; tie-break on (source, vertex) for determinism.
        self.value
            .partial_cmp(&other.value)
            .expect("shift values are finite")
            .then_with(|| other.source.cmp(&self.source))
            .then_with(|| other.vertex.cmp(&self.vertex))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The shift propagation as it ran before the two-queue engine: one
/// best-first max-heap on value, then source ascending, then vertex
/// ascending. `neighbours(v)` lists the vertices one hop from `v`.
fn propagate_oracle(
    shifts: &[f64],
    keep: Keep,
    alive: Option<&[bool]>,
    neighbours: impl Fn(Vertex) -> Vec<Vertex>,
) -> Vec<Vec<Label>> {
    let n = shifts.len();
    let is_alive = |v: Vertex| alive.is_none_or(|a| a[v as usize]);
    let mut labels: Vec<Vec<Label>> = vec![Vec::new(); n];
    let mut heap: BinaryHeap<HeapEntry> = (0..n as Vertex)
        .filter(|&v| is_alive(v))
        .map(|v| HeapEntry {
            value: shifts[v as usize],
            source: v,
            vertex: v,
        })
        .collect();
    while let Some(HeapEntry {
        value,
        source,
        vertex,
    }) = heap.pop()
    {
        let kept = &mut labels[vertex as usize];
        let admissible = match keep {
            Keep::Top(k) => kept.len() < k,
            Keep::WithinSlackOfBest(slack) => {
                kept.first().is_none_or(|best| value >= best.value - slack)
            }
        };
        if !admissible || kept.iter().any(|l| l.source == source) {
            continue;
        }
        kept.push(Label { source, value });
        for w in neighbours(vertex) {
            if is_alive(w) {
                heap.push(HeapEntry {
                    value: value - 1.0,
                    source,
                    vertex: w,
                });
            }
        }
    }
    labels
}

fn graph_oracle(g: &Graph, shifts: &[f64], keep: Keep, alive: Option<&[bool]>) -> Vec<Vec<Label>> {
    propagate_oracle(shifts, keep, alive, |v| g.neighbors(v).to_vec())
}

fn hypergraph_oracle(
    h: &Hypergraph,
    shifts: &[f64],
    keep: Keep,
    alive_vertices: Option<&[bool]>,
    alive_edges: Option<&[bool]>,
) -> Vec<Vec<Label>> {
    propagate_oracle(shifts, keep, alive_vertices, |v| {
        h.incident_edges(v)
            .iter()
            .filter(|&&e| alive_edges.is_none_or(|a| a[e as usize]))
            .flat_map(|&e| h.edge(e).iter().copied().filter(|&w| w != v))
            .collect()
    })
}

/// Labels as `(source, value bits)`, so equality means equal bits.
fn bits(labels: &[Vec<Label>]) -> Vec<Vec<(Vertex, u64)>> {
    labels
        .iter()
        .map(|ls| ls.iter().map(|l| (l.source, l.value.to_bits())).collect())
        .collect()
}

/// Every keep policy the decompositions use, plus a wider top-k.
const KEEPS: [Keep; 4] = [
    Keep::Top(1),
    Keep::Top(2),
    Keep::Top(3),
    Keep::WithinSlackOfBest(1.0),
];

/// G(n,p) near the giant-component threshold, a 5-wide grid, a random
/// 3-regular graph, a random tree or a clique, on about `n` vertices.
fn oracle_graph(family: usize, n: usize, rng: &mut StdRng) -> Graph {
    match family {
        0 => gen::gnp(n, 2.0 / n as f64, rng),
        1 => gen::grid(n.div_ceil(5), 5),
        2 => gen::random_regular(n - n % 2, 3, rng),
        3 => gen::random_tree(n, rng),
        _ => gen::complete(n.min(24)),
    }
}

/// Capped shifts at rate `lambda`, with `ñ` either tiny (most shifts
/// reset to 0.0) or `n`, and optionally floored so that equal values
/// from different sources are everywhere.
fn oracle_shifts(
    n: usize,
    lambda: f64,
    tiny: bool,
    floored: bool,
    rng: &mut StdRng,
    alive: Option<&[bool]>,
) -> Vec<f64> {
    let n_tilde = if tiny {
        rng.random_range(1.1..2.0)
    } else {
        n.max(2) as f64
    };
    let shifts = draw_shifts(n, lambda, n_tilde, rng, alive);
    if floored {
        shifts.into_iter().map(f64::floor).collect()
    } else {
        shifts
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The two-queue engine returns the heap oracle's labels, bit for
    /// bit, on every graph family and keep policy, with and without a mask.
    /// `flags` picks a tiny `ñ`, floored shifts and an alive mask.
    #[test]
    fn propagate_equals_the_heap_oracle(
        family in 0usize..5,
        n in 4usize..70,
        lam in 1usize..30,
        flags in 0u8..8,
        seed in 0u64..1_000_000,
    ) {
        let (tiny, floored, masked) = (flags & 1 != 0, flags & 2 != 0, flags & 4 != 0);
        let mut rng = gen::seeded_rng(seed);
        let g = oracle_graph(family, n, &mut rng);
        let alive: Option<Vec<bool>> =
            masked.then(|| (0..g.n()).map(|_| rng.random_bool(0.75)).collect());
        let alive = alive.as_deref();
        let lambda = lam as f64 / 10.0;
        let shifts = oracle_shifts(g.n(), lambda, tiny, floored, &mut rng, alive);
        for keep in KEEPS {
            prop_assert_eq!(
                bits(&propagate(&g, &shifts, keep, alive)),
                bits(&graph_oracle(&g, &shifts, keep, alive)),
                "family={} n={} keep={:?}", family, g.n(), keep
            );
        }
    }

    /// The same in the primal metric of random hypergraphs of 2–5-vertex
    /// hyperedges, some of them dead.
    #[test]
    fn hypergraph_propagate_equals_the_heap_oracle(
        n in 2usize..60,
        density in 0.2f64..1.5,
        lam in 1usize..30,
        flags in 0u8..8,
        seed in 0u64..1_000_000,
    ) {
        let (tiny, floored, masked) = (flags & 1 != 0, flags & 2 != 0, flags & 4 != 0);
        let mut rng = gen::seeded_rng(seed);
        let edges: Vec<Vec<Vertex>> = (0..(density * n as f64) as usize)
            .map(|_| {
                let rank = rng.random_range(2..6usize);
                (0..rank).map(|_| rng.random_range(0..n as Vertex)).collect()
            })
            .collect();
        let h = Hypergraph::new(n, edges);
        let alive_e: Vec<bool> = (0..h.m()).map(|_| rng.random_bool(0.7)).collect();
        let alive_v: Option<Vec<bool>> =
            masked.then(|| (0..n).map(|_| rng.random_bool(0.75)).collect());
        let alive_v = alive_v.as_deref();
        let lambda = lam as f64 / 10.0;
        let shifts = oracle_shifts(n, lambda, tiny, floored, &mut rng, alive_v);
        for keep in KEEPS {
            prop_assert_eq!(
                bits(&propagate_hypergraph(&h, &shifts, keep, alive_v, Some(&alive_e))),
                bits(&hypergraph_oracle(&h, &shifts, keep, alive_v, Some(&alive_e))),
                "n={} m={} keep={:?}", n, h.m(), keep
            );
        }
    }
}

/// Two different shifts whose relays round to the same value: `2e-20 − 1`
/// and `1e-20 − 1` are both `-1.0`. The larger shift belongs to the larger
/// source, so its relay is queued first, yet the tie must go to the
/// smaller source, as in the heap.
#[test]
fn rounding_collision_ties_go_to_the_smaller_source() {
    let g = Graph::from_edges(3, &[(0, 2), (1, 2)]);
    let shifts = [1e-20, 2e-20, -5.0];
    assert_eq!(1e-20 - 1.0, 2e-20 - 1.0);
    for keep in KEEPS {
        let got = propagate(&g, &shifts, keep, None);
        assert_eq!(
            bits(&got),
            bits(&graph_oracle(&g, &shifts, keep, None)),
            "{keep:?}"
        );
        assert_eq!(
            got[2][0],
            Label {
                source: 0,
                value: -1.0
            },
            "{keep:?}"
        );
    }
}

/// −0.0 and 0.0 are one value, so their ties go by source: vertex 0 keeps
/// its own −0.0 seed over source 1's relayed 0.0, although the seed order
/// of `total_cmp` would put the 0.0 seed of source 2 first.
#[test]
fn signed_zeros_tie_as_one_value() {
    let g = Graph::from_edges(3, &[(0, 1)]);
    let shifts = [-0.0, 1.0, 0.0];
    for keep in KEEPS {
        let got = propagate(&g, &shifts, keep, None);
        assert_eq!(
            bits(&got),
            bits(&graph_oracle(&g, &shifts, keep, None)),
            "{keep:?}"
        );
        assert_eq!(got[0][0].source, 0, "{keep:?}");
    }
}

/// From 2^53 up a hop may not lower a label (`value − 1 == value`), and
/// just above 2^53 a larger parent can round onto a saturated value: the
/// relay of `2^53 + 6` is `2^53 + 4`, which is also the relay of
/// `2^53 + 4` itself. Ties are then settled by source alone.
#[test]
fn saturated_values_still_follow_the_heap_order() {
    let base = 2f64.powi(53);
    assert_eq!(base + 4.0 - 1.0, base + 4.0);
    assert_eq!(base + 6.0 - 1.0, base + 4.0);
    let mut rng = gen::seeded_rng(3);
    for g in [gen::path(6), gen::cycle(7), gen::gnp(30, 0.1, &mut rng)] {
        let steps: Vec<f64> = (0..g.n()).map(|v| (v % 5) as f64).collect();
        for shifts in [
            steps
                .iter()
                .map(|&k| base * (1.0 + k))
                .collect::<Vec<f64>>(),
            steps.iter().map(|&k| base + 2.0 * k).collect(),
        ] {
            for keep in KEEPS {
                assert_eq!(
                    bits(&propagate(&g, &shifts, keep, None)),
                    bits(&graph_oracle(&g, &shifts, keep, None)),
                    "n={} {keep:?}",
                    g.n()
                );
            }
        }
    }
    // Vertex 0 hears source 2 first, at the value source 1 starts from.
    let g = Graph::from_edges(3, &[(0, 1), (0, 2)]);
    let labels = propagate(&g, &[0.0, base + 4.0, base + 6.0], Keep::Top(1), None);
    assert_eq!(labels[0][0].source, 1);
}
