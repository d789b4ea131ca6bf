//! Exponential-shift label propagation — the engine shared by the
//! Elkin–Neiman decomposition (Lemma C.1), the Miller–Peng–Xu clustering
//! and the hyperedge sparse cover (Lemma C.2).
//!
//! Every vertex draws `T_v ~ Exponential(λ)` (capped per Lemma C.1) and
//! conceptually broadcasts it `⌊T_v⌋` hops; vertex `v` ranks sources by
//! `m_u(v) = T_u − dist(u, v)`. The different algorithms differ only in how
//! many top labels per vertex they need:
//!
//! * Miller–Peng–Xu: the top **1** label (join its cluster);
//! * Elkin–Neiman: the top **2** labels (delete if they are within 1);
//! * sparse cover: **all** labels within 1 of the maximum (join all).
//!
//! All three are one multi-source propagation that visits
//! `(value, source, vertex)` entries in non-increasing value order, equal
//! values source-ascending. A vertex admits a source at most once, so its
//! first entry of a source carries that source's true `m` value there, and
//! per-vertex pruning is safe: a label dominated at `v` stays dominated
//! downstream of `v`.
//!
//! A label loses exactly 1 per hop, so that order needs no priority queue.
//! As in the shifted-start BFS of Miller, Peng and Xu ("Parallel graph
//! decompositions using random shifts", arXiv 1307.3692), entries come
//! from two queues: the **seeds**, one per alive vertex sorted once by
//! `(shift desc, source asc)`, and a FIFO of **relays** `(value − 1,
//! source, neighbour)`. Each step takes whichever head comes first. The
//! FIFO stays in order by induction: entries leave in order, so the
//! relays they push are non-increasing in value, and pops of one value
//! leave source-ascending, so the relays of one value are pushed
//! source-ascending too. The order of vertices within one `(value,
//! source)` class changes no label, because every vertex admits a source
//! at most once.
//!
//! Floating point bends this induction in two places, both handled:
//!
//! * two *different* parent values can round to the same `value − 1`
//!   (e.g. `1e-20 − 1 == 2e-20 − 1`), so one run of equal-valued relays
//!   can hold its sources out of order. A run is complete by the time it
//!   holds the largest value left; it is then checked and, only if
//!   unsorted, stable-sorted by source;
//! * above `2^53` in magnitude `value − 1 == value`: a relay keeps the
//!   key of the entry that pushed it, so it goes to the *front* of the
//!   FIFO, where that key belongs.
//!
//! Label values are computed by the same `value − 1.0` steps as a
//! best-first heap would, so they keep their bits.

use dapc_conc::dist::Exponential;
use dapc_graph::{Graph, Hypergraph, Vertex};
use rand::rngs::StdRng;
use std::collections::VecDeque;

/// A label: source `u` reaching some vertex with value `m_u = T_u − dist`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Label {
    /// The originating centre.
    pub source: Vertex,
    /// `T_source − dist(source, here)`.
    pub value: f64,
}

/// How many labels each vertex retains.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Keep {
    /// Keep the top `k` labels from distinct sources.
    Top(usize),
    /// Keep every label within `slack` of the per-vertex maximum.
    WithinSlackOfBest(f64),
}

impl Keep {
    /// Whether a vertex holding `kept` (best first) admits `source`'s
    /// label of `value`: the policy has room and the source is new there.
    fn admits(self, kept: &[Label], source: Vertex, value: f64) -> bool {
        let room = match self {
            Keep::Top(k) => kept.len() < k,
            Keep::WithinSlackOfBest(slack) => {
                kept.first().is_none_or(|best| value >= best.value - slack)
            }
        };
        room && kept.iter().all(|l| l.source != source)
    }
}

/// Draws the capped exponential shifts of Lemma C.1: `T_v ~ Exp(λ)` with
/// values `≥ 4·ln ñ / λ` reset to zero. Dead vertices get 0.
///
/// # Panics
///
/// Panics unless `lambda` is positive and finite and `n_tilde > 1` (at
/// `ñ ≤ 1` the cap is not positive and every shift would reset to 0).
pub fn draw_shifts(
    n: usize,
    lambda: f64,
    n_tilde: f64,
    rng: &mut StdRng,
    alive: Option<&[bool]>,
) -> Vec<f64> {
    assert!(n_tilde > 1.0, "n_tilde must exceed 1");
    let exp = Exponential::new(lambda);
    let cap = 4.0 * n_tilde.ln() / lambda;
    (0..n)
        .map(|v| {
            if alive.is_none_or(|a| a[v]) {
                exp.sample_reset_at(rng, cap)
            } else {
                0.0
            }
        })
        .collect()
}

/// Propagates shifted labels over `g` (restricted to `alive`) and returns,
/// per vertex, the retained labels in decreasing value order.
///
/// Only alive vertices seed labels or relay them. Each retained label is
/// relayed to neighbours with value − 1; labels that fall outside the keep
/// policy at a vertex are pruned there (and, by the monotonicity argument
/// in the module docs, everywhere downstream).
///
/// # Panics
///
/// Panics if `shifts.len() != g.n()` or an alive vertex's shift is not
/// finite.
pub fn propagate(g: &Graph, shifts: &[f64], keep: Keep, alive: Option<&[bool]>) -> Vec<Vec<Label>> {
    assert_eq!(shifts.len(), g.n());
    propagate_by(shifts, keep, alive, |v| g.neighbors(v).iter().copied())
}

/// [`propagate`] in the primal metric of `h`: a label hops from a vertex
/// to every other member of its alive incident hyperedges. Dead vertices
/// neither seed nor relay, and dead hyperedges carry nothing.
///
/// # Panics
///
/// Panics if `shifts.len() != h.n()` or an alive vertex's shift is not
/// finite.
pub fn propagate_hypergraph(
    h: &Hypergraph,
    shifts: &[f64],
    keep: Keep,
    alive_vertices: Option<&[bool]>,
    alive_edges: Option<&[bool]>,
) -> Vec<Vec<Label>> {
    assert_eq!(shifts.len(), h.n());
    propagate_by(shifts, keep, alive_vertices, |v| {
        h.incident_edges(v)
            .iter()
            .filter(move |&&e| alive_edges.is_none_or(|a| a[e as usize]))
            .flat_map(move |&e| h.edge(e).iter().copied().filter(move |&w| w != v))
    })
}

/// One queued entry: `source`'s label reaching `vertex` with `value`.
#[derive(Clone, Copy, Debug)]
struct Entry {
    value: f64,
    source: Vertex,
    vertex: Vertex,
}

/// The two-queue engine behind [`propagate`] and [`propagate_hypergraph`];
/// `neighbours(v)` lists the vertices one hop from `v`, dead ones included.
fn propagate_by<I: Iterator<Item = Vertex>>(
    shifts: &[f64],
    keep: Keep,
    alive: Option<&[bool]>,
    neighbours: impl Fn(Vertex) -> I,
) -> Vec<Vec<Label>> {
    let n = shifts.len();
    let is_alive = |v: Vertex| alive.is_none_or(|a| a[v as usize]);
    let mut seeds: Vec<Entry> = (0..n as Vertex)
        .filter(|&v| is_alive(v))
        .map(|v| Entry {
            value: shifts[v as usize],
            source: v,
            vertex: v,
        })
        .collect();
    assert!(
        seeds.iter().all(|s| s.value.is_finite()),
        "shift values must be finite"
    );
    // `partial_cmp`, not `total_cmp`: −0.0 and 0.0 are one value.
    seeds.sort_unstable_by(|a, b| {
        b.value
            .partial_cmp(&a.value)
            .expect("shift values are finite")
            .then(a.source.cmp(&b.source))
    });
    let mut labels: Vec<Vec<Label>> = vec![Vec::new(); n];
    let mut relays: VecDeque<Entry> = VecDeque::new();
    let mut next_seed = 0;
    // The value of the front relay run last put in source order.
    let mut settled = f64::NAN;
    loop {
        let seed = seeds.get(next_seed);
        let relay_first = match relays.front().map(|r| r.value) {
            None => false,
            Some(value) if seed.is_some_and(|s| s.value > value) => false,
            Some(value) => {
                // No entry left exceeds `value`, so every relay of this
                // value is already queued: the run is complete.
                if value != settled {
                    settle_front_run(&mut relays);
                    settled = value;
                }
                seed.is_none_or(|s| value > s.value || relays[0].source <= s.source)
            }
        };
        let entry = if relay_first {
            relays.pop_front()
        } else {
            next_seed += 1;
            seed.copied()
        };
        let Some(Entry {
            value,
            source,
            vertex,
        }) = entry
        else {
            break;
        };
        if !keep.admits(&labels[vertex as usize], source, value) {
            continue;
        }
        labels[vertex as usize].push(Label { source, value });
        // Relay, skipping neighbours that already refuse the label: a
        // vertex that refuses a label refuses it for good.
        let next = value - 1.0;
        for w in neighbours(vertex)
            .filter(|&w| is_alive(w) && keep.admits(&labels[w as usize], source, next))
        {
            let relay = Entry {
                value: next,
                source,
                vertex: w,
            };
            if next == value {
                relays.push_front(relay);
            } else {
                relays.push_back(relay);
            }
        }
    }
    labels
}

/// Stable-sorts the run of equal-valued relays at the front of `relays`
/// by source, if it is not in source order already.
fn settle_front_run(relays: &mut VecDeque<Entry>) {
    let Some(&Entry { value, .. }) = relays.front() else {
        return;
    };
    let run = relays.iter().take_while(|r| r.value == value).count();
    if !relays.range(..run).is_sorted_by_key(|r| r.source) {
        relays.make_contiguous()[..run].sort_by_key(|r| r.source);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dapc_graph::{gen, Hypergraph};

    /// Labels on a path with hand-picked shifts.
    #[test]
    fn values_are_shift_minus_distance() {
        let g = gen::path(5);
        // Only vertex 0 has a large shift; everyone hears it.
        let shifts = vec![10.0, 0.0, 0.0, 0.0, 0.0];
        let labels = propagate(&g, &shifts, Keep::Top(1), None);
        for (v, label) in labels.iter().enumerate() {
            assert_eq!(label[0].source, 0);
            assert!((label[0].value - (10.0 - v as f64)).abs() < 1e-9);
        }
    }

    #[test]
    fn top2_keeps_distinct_sources_in_order() {
        let g = gen::path(5);
        let shifts = vec![10.0, 0.0, 0.0, 0.0, 9.0];
        let labels = propagate(&g, &shifts, Keep::Top(2), None);
        // Middle vertex 2: m_0 = 8, m_4 = 7.
        assert_eq!(labels[2].len(), 2);
        assert_eq!(labels[2][0].source, 0);
        assert!((labels[2][0].value - 8.0).abs() < 1e-9);
        assert_eq!(labels[2][1].source, 4);
        assert!((labels[2][1].value - 7.0).abs() < 1e-9);
    }

    #[test]
    fn top2_matches_brute_force() {
        let mut rng = gen::seeded_rng(5);
        for _ in 0..20 {
            let g = gen::gnp(25, 0.12, &mut rng);
            let shifts = draw_shifts(25, 0.5, 25.0, &mut rng, None);
            let labels = propagate(&g, &shifts, Keep::Top(2), None);
            // Brute force: all m values per vertex.
            for v in g.vertices() {
                let dist = dapc_graph::traversal::bfs_distances(&g, v);
                let mut ms: Vec<(f64, Vertex)> = g
                    .vertices()
                    .filter(|&u| dist[u as usize] != dapc_graph::traversal::UNREACHABLE)
                    .map(|u| (shifts[u as usize] - dist[u as usize] as f64, u))
                    .collect();
                ms.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());
                let got = &labels[v as usize];
                assert!((got[0].value - ms[0].0).abs() < 1e-9, "best at {v}");
                if ms.len() > 1 {
                    assert!((got[1].value - ms[1].0).abs() < 1e-9, "second at {v}");
                }
            }
        }
    }

    #[test]
    fn slack_keep_returns_all_near_best() {
        let g = gen::path(3);
        let shifts = vec![5.0, 4.5, 5.2];
        // At vertex 1: m_0 = 4, m_1 = 4.5, m_2 = 4.2 — all within 1 of 4.5.
        let labels = propagate(&g, &shifts, Keep::WithinSlackOfBest(1.0), None);
        assert_eq!(labels[1].len(), 3);
        assert_eq!(labels[1][0].source, 1);
        // At vertex 0: m_0 = 5, m_1 = 3.5 (pruned), m_2 = 3.2 (pruned).
        assert_eq!(labels[0].len(), 1);
    }

    #[test]
    fn dead_vertices_neither_seed_nor_relay() {
        let g = gen::path(3);
        let alive = vec![true, false, true];
        let shifts = vec![10.0, 99.0, 1.0];
        let labels = propagate(&g, &shifts, Keep::Top(2), Some(&alive));
        // Vertex 2 cannot hear vertex 0 through the dead vertex 1.
        assert_eq!(labels[2].len(), 1);
        assert_eq!(labels[2][0].source, 2);
        assert!(labels[1].is_empty());
    }

    #[test]
    #[should_panic(expected = "shift values must be finite")]
    fn propagate_rejects_a_nan_shift() {
        propagate(&gen::path(3), &[0.0, f64::NAN, 1.0], Keep::Top(1), None);
    }

    #[test]
    #[should_panic(expected = "shift values must be finite")]
    fn propagate_hypergraph_rejects_an_infinite_shift() {
        let h = Hypergraph::new(3, vec![vec![0, 1, 2]]);
        let shifts = [f64::INFINITY, 0.0, 0.0];
        propagate_hypergraph(&h, &shifts, Keep::WithinSlackOfBest(1.0), None, None);
    }

    #[test]
    fn dead_vertices_may_carry_any_shift() {
        let alive = [true, false, true];
        let labels = propagate(
            &gen::path(3),
            &[1.0, f64::NAN, 0.0],
            Keep::Top(2),
            Some(&alive),
        );
        assert!(labels[1].is_empty());
        assert_eq!(
            labels[0],
            [Label {
                source: 0,
                value: 1.0
            }]
        );
    }

    #[test]
    #[should_panic(expected = "n_tilde must exceed 1")]
    fn draw_shifts_rejects_n_tilde_at_most_one() {
        draw_shifts(5, 1.0, 1.0, &mut gen::seeded_rng(1), None);
    }

    #[test]
    fn shifts_respect_cap() {
        let mut rng = gen::seeded_rng(1);
        let shifts = draw_shifts(10_000, 0.5, 100.0, &mut rng, None);
        let cap = 4.0 * 100f64.ln() / 0.5;
        assert!(shifts.iter().all(|&t| t < cap));
        assert!(shifts.iter().any(|&t| t > 0.0));
    }
}
