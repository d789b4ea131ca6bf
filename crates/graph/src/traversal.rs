//! Breadth-first traversal, distances and ball extraction.
//!
//! The decomposition algorithms of the paper are phrased entirely in terms
//! of radius-`r` neighbourhoods `N^r(v)` and per-distance level sets `S_j`
//! (Algorithm 1 of the paper, "Grow-and-Carve"). This module provides those
//! primitives, in both plain and *masked* (residual-graph) form — the
//! three-phase algorithms repeatedly delete and remove vertices, and all
//! subsequent distance computations must respect the residual graph.
//!
//! It also measures what the decompositions promise. [`weak_diameter`]
//! (Definition 1.4) is a bit-parallel multi-source BFS in the shape of
//! Then et al., "The More the Merrier: Efficient Multi-Source Graph
//! Traversal" (VLDB 2014): members of the set are swept in batches of 64,
//! one bit per source in a `u64` word per vertex.
//!
//! Cost model. A *sweep* runs as many levels as the eccentricity of its
//! sources within the set (the largest distance from one of them to a
//! member, at most the weak diameter) and stops there, once every member
//! holds every source's bit; only a disconnected set runs on until the
//! frontier dies out. Each level picks its direction from the frontier
//! size, as in Beamer et al., "Direction-Optimizing Breadth-First Search"
//! (SC 2012). A frontier of at most n/4 vertices is walked top-down: the
//! adjacency of the vertices that gained a bit at the level before, so
//! those levels cost `Σ deg(v)` word operations over the frontier. A
//! larger frontier runs bottom-up: every vertex still missing bits ORs
//! its neighbours' frontier words and stops scanning once it holds every
//! bit of the batch, so a dense level costs at most `n + m` and usually
//! far less.
//!
//! A set of at most 64 members is one sweep. A larger set is first
//! bounded, in the style of iFUB (Crescenzi et al., "On computing the
//! diameter of real-world undirected graphs", TCS 2013): a few scalar
//! BFS, each stopping once it has reached every member, find extremal
//! members, a centre `u` and a lower bound `lb` (the largest member
//! eccentricity seen). Every pair of members within distance `k` of `u`
//! is within `2k` of each other, so the members are swept in decreasing
//! distance from `u` and the sweeps stop once `lb ≥ 2k` for the next
//! unswept member; if already `lb ≥ 2·ecc(u)` no sweep runs at all.
//! ⌈|S|/64⌉ sweeps is the worst case, reached when the eccentricities of
//! the set are all close to its radius (an expander); on a grid-shaped
//! cluster one sweep or none is the rule. The per-member method this
//! replaced ran |S| full-graph BFS, `O(|S| · (n + m))`.

use crate::graph::{Graph, Vertex};
use std::collections::VecDeque;

/// Sentinel distance for unreachable vertices.
pub const UNREACHABLE: u32 = u32::MAX;

/// A radius-`r` ball around a set of sources, grouped by exact distance.
///
/// `levels[j]` is the set `S_j` of vertices at distance exactly `j` from the
/// source set (so `levels[0]` is the source set itself, intersected with the
/// alive mask). The flattened ball `N^r(S)` is the concatenation of all
/// levels.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Ball {
    /// Vertices grouped by exact distance from the source set.
    pub levels: Vec<Vec<Vertex>>,
}

impl Ball {
    /// Total number of vertices in the ball.
    pub fn len(&self) -> usize {
        self.levels.iter().map(Vec::len).sum()
    }

    /// Whether the ball contains no vertices.
    pub fn is_empty(&self) -> bool {
        self.levels.iter().all(Vec::is_empty)
    }

    /// Radius actually reached (may be smaller than requested if the
    /// component was exhausted).
    pub fn radius(&self) -> usize {
        self.levels.len().saturating_sub(1)
    }

    /// Iterates over every vertex in the ball.
    pub fn iter(&self) -> impl Iterator<Item = Vertex> + '_ {
        self.levels.iter().flatten().copied()
    }

    /// All vertices with distance `<= r` from the sources.
    pub fn within(&self, r: usize) -> impl Iterator<Item = Vertex> + '_ {
        self.levels.iter().take(r + 1).flatten().copied()
    }

    /// The level set `S_j` (empty slice if `j` exceeds the reached radius).
    pub fn level(&self, j: usize) -> &[Vertex] {
        self.levels.get(j).map(Vec::as_slice).unwrap_or(&[])
    }
}

/// BFS distances from a single source. Unreachable vertices get
/// [`UNREACHABLE`].
///
/// ```
/// use dapc_graph::{Graph, traversal};
/// let g = Graph::from_edges(4, &[(0, 1), (1, 2)]);
/// let d = traversal::bfs_distances(&g, 0);
/// assert_eq!(d, vec![0, 1, 2, traversal::UNREACHABLE]);
/// ```
pub fn bfs_distances(g: &Graph, source: Vertex) -> Vec<u32> {
    bfs_distances_multi(g, std::slice::from_ref(&source))
}

/// BFS distances from a set of sources (distance to the nearest source).
pub fn bfs_distances_multi(g: &Graph, sources: &[Vertex]) -> Vec<u32> {
    let mut dist = vec![UNREACHABLE; g.n()];
    let mut queue = VecDeque::new();
    for &s in sources {
        if dist[s as usize] == UNREACHABLE {
            dist[s as usize] = 0;
            queue.push_back(s);
        }
    }
    while let Some(u) = queue.pop_front() {
        let du = dist[u as usize];
        for &w in g.neighbors(u) {
            if dist[w as usize] == UNREACHABLE {
                dist[w as usize] = du + 1;
                queue.push_back(w);
            }
        }
    }
    dist
}

/// Masked multi-source BFS distances: traversal only passes through vertices
/// with `alive[v] == true`; dead vertices keep [`UNREACHABLE`]. Sources that
/// are dead are ignored.
///
/// # Panics
///
/// Panics if `alive.len() != g.n()`.
pub fn bfs_distances_masked(g: &Graph, sources: &[Vertex], alive: &[bool]) -> Vec<u32> {
    assert_eq!(alive.len(), g.n(), "alive mask length mismatch");
    let mut dist = vec![UNREACHABLE; g.n()];
    let mut queue = VecDeque::new();
    for &s in sources {
        if alive[s as usize] && dist[s as usize] == UNREACHABLE {
            dist[s as usize] = 0;
            queue.push_back(s);
        }
    }
    while let Some(u) = queue.pop_front() {
        let du = dist[u as usize];
        for &w in g.neighbors(u) {
            if alive[w as usize] && dist[w as usize] == UNREACHABLE {
                dist[w as usize] = du + 1;
                queue.push_back(w);
            }
        }
    }
    dist
}

/// Reusable BFS scratch for [`ball`]-family traversals (graph and
/// hypergraph alike).
///
/// The ball extractions sit on the hottest path of the solvers — the
/// preparation step and every carving iteration call them once per
/// cluster — and each call used to allocate fresh `vec![false; n]`
/// visited masks. A `BallScratch` amortises those: the marker vectors are
/// grown once and *self-cleaning* (each traversal clears exactly the
/// entries it set before returning), so a scratch can be reused across
/// any sequence of calls on graphs of any size.
///
/// Invariant: between calls every entry of `seen_v` / `seen_e` is `false`
/// and `touched_e` is empty; the traversals restore this on every exit
/// path in `O(|ball|)` time.
#[derive(Debug, Default)]
pub struct BallScratch {
    pub(crate) seen_v: Vec<bool>,
    pub(crate) seen_e: Vec<bool>,
    pub(crate) touched_e: Vec<u32>,
}

impl BallScratch {
    /// Creates an empty scratch; marker storage grows on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Grows the vertex markers to cover `n` vertices.
    pub(crate) fn ensure_vertices(&mut self, n: usize) {
        if self.seen_v.len() < n {
            self.seen_v.resize(n, false);
        }
    }

    /// Grows the edge markers to cover `m` hyperedges.
    pub(crate) fn ensure_edges(&mut self, m: usize) {
        if self.seen_e.len() < m {
            self.seen_e.resize(m, false);
        }
    }
}

/// Extracts the radius-`r` ball `N^r(sources)` with per-distance levels,
/// restricted to the `alive` mask. Pass `None` for an unmasked traversal.
///
/// This is the "gather the topology of its b-radius neighbourhood" step of
/// Grow-and-Carve (Algorithm 1 in the paper).
pub fn ball(g: &Graph, sources: &[Vertex], r: usize, alive: Option<&[bool]>) -> Ball {
    ball_with_scratch(g, sources, r, alive, &mut BallScratch::new())
}

/// [`ball`] against a caller-owned [`BallScratch`], so repeated
/// extractions (one per cluster, per iteration) stop allocating visited
/// masks. Output is identical to [`ball`].
pub fn ball_with_scratch(
    g: &Graph,
    sources: &[Vertex],
    r: usize,
    alive: Option<&[bool]>,
    scratch: &mut BallScratch,
) -> Ball {
    if let Some(a) = alive {
        assert_eq!(a.len(), g.n(), "alive mask length mismatch");
    }
    let is_alive = |v: Vertex| alive.is_none_or(|a| a[v as usize]);
    scratch.ensure_vertices(g.n());
    let seen = &mut scratch.seen_v;
    let mut levels: Vec<Vec<Vertex>> = Vec::new();
    let mut frontier: Vec<Vertex> = Vec::new();
    for &s in sources {
        if is_alive(s) && !seen[s as usize] {
            seen[s as usize] = true;
            frontier.push(s);
        }
    }
    if frontier.is_empty() {
        return Ball { levels };
    }
    levels.push(frontier);
    for _depth in 1..=r {
        let mut next: Vec<Vertex> = Vec::new();
        for &u in levels.last().expect("frontier level pushed above") {
            for &w in g.neighbors(u) {
                if is_alive(w) && !seen[w as usize] {
                    seen[w as usize] = true;
                    next.push(w);
                }
            }
        }
        if next.is_empty() {
            break;
        }
        levels.push(next);
    }
    // Restore the scratch invariant: clear exactly the marks we set.
    for level in &levels {
        for &v in level {
            seen[v as usize] = false;
        }
    }
    Ball { levels }
}

/// Size of `N^r(v)` in the residual graph, without materialising the ball.
pub fn ball_size(g: &Graph, source: Vertex, r: usize, alive: Option<&[bool]>) -> usize {
    ball(g, &[source], r, alive).len()
}

/// Eccentricity of `v` within its connected component.
pub fn eccentricity(g: &Graph, v: Vertex) -> u32 {
    bfs_distances(g, v)
        .into_iter()
        .filter(|&d| d != UNREACHABLE)
        .max()
        .unwrap_or(0)
}

/// Exact diameter (max eccentricity over all vertices; `0` for empty or
/// edgeless graphs, ignoring unreachable pairs).
///
/// Runs a BFS per vertex — `O(n·m)`; fine for the graph sizes used in tests
/// and experiments.
pub fn diameter(g: &Graph) -> u32 {
    g.vertices().map(|v| eccentricity(g, v)).max().unwrap_or(0)
}

/// Reusable buffers for [`weak_diameter_with_scratch`]: the per-vertex
/// bit-parallel BFS words, scalar BFS distances, membership marks and the
/// sparse lists that walk them: 29 bytes per vertex in words and marks,
/// up to 16 more in vertex lists, and 20 per member of the largest set
/// measured.
///
/// Like [`BallScratch`] it grows once to the largest graph it meets and
/// is *self-cleaning*: every call, the disconnected early exit included,
/// restores the all-zero state in time proportional to the vertices it
/// touched, so one scratch serves any sequence of sets on graphs of any
/// size.
#[derive(Debug, Default)]
pub struct DiameterScratch {
    /// Bit `i`: the batch's `i`-th source has reached the vertex.
    seen: Vec<u64>,
    /// Bits that reached the vertex at the current level.
    frontier: Vec<u64>,
    /// Bits reaching the vertex at the next level.
    next: Vec<u64>,
    /// Scalar BFS distance from the current source, or [`UNREACHABLE`].
    dist: Vec<u32>,
    /// Whether the vertex belongs to the measured set.
    member: Vec<bool>,
    /// The distinct members: in order of first appearance, and for a set
    /// of more than 64 in decreasing distance from the centre once it is
    /// chosen.
    members: Vec<Vertex>,
    /// Vertices with a nonzero `frontier` word.
    frontier_list: Vec<Vertex>,
    /// Vertices with a nonzero `next` word.
    next_list: Vec<Vertex>,
    /// Vertices with a nonzero `seen` word.
    touched: Vec<Vertex>,
    /// The scalar BFS queue: every vertex with a finite `dist`.
    queue: Vec<Vertex>,
    /// Per member: its distance from the last scalar BFS source.
    reach: Vec<u32>,
    /// Per member: its largest distance to an extremal member.
    far: Vec<u32>,
    /// Per member: its distance from the best centre so far, and itself.
    centre: Vec<(u32, Vertex)>,
}

/// Rounds of the centre search for a set of more than 64 members. Each is
/// a double sweep from an extremal member, then a BFS from the candidate
/// centre: the member whose largest distance to an extremal member found
/// so far is smallest.
const CENTRE_ROUNDS: usize = 2;

impl DiameterScratch {
    /// Creates an empty scratch; its storage grows on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Grows the per-vertex words and marks to cover `n` vertices.
    fn ensure_vertices(&mut self, n: usize) {
        if self.seen.len() < n {
            self.seen.resize(n, 0);
            self.frontier.resize(n, 0);
            self.next.resize(n, 0);
            self.dist.resize(n, UNREACHABLE);
            self.member.resize(n, false);
        }
    }

    /// One bit-parallel BFS from `self.members[batch]` (at most 64
    /// sources). Returns the largest distance from a source to a member,
    /// or `None` if the frontier dies out before every member has been
    /// reached from every source. Leaves the words it set zeroed.
    fn sweep(&mut self, g: &Graph, batch: std::ops::Range<usize>) -> Option<u32> {
        let full = u64::MAX >> (64 - batch.len());
        let mut complete = 0;
        for (i, &v) in self.members[batch].iter().enumerate() {
            let bit = 1u64 << i;
            self.seen[v as usize] = bit;
            self.frontier[v as usize] = bit;
            self.touched.push(v);
            self.frontier_list.push(v);
            // A lone source already holds the batch's only bit.
            if bit == full {
                complete += 1;
            }
        }
        let (mut level, mut last_gain) = (0u32, 0u32);
        let result = loop {
            if complete == self.members.len() {
                break Some(last_gain);
            }
            if self.frontier_list.is_empty() {
                break None;
            }
            level += 1;
            let frontier_list = std::mem::take(&mut self.frontier_list);
            // The bits `new`, none of them in `seen[w]` yet, reach `w`.
            let mut gain = |s: &mut Self, w: usize, new: u64| {
                if s.seen[w] == 0 {
                    s.touched.push(w as Vertex);
                }
                s.seen[w] |= new;
                if s.next[w] == 0 {
                    s.next_list.push(w as Vertex);
                }
                s.next[w] |= new;
                if s.member[w] {
                    last_gain = level;
                    if s.seen[w] == full {
                        complete += 1;
                    }
                }
            };
            if frontier_list.len() > g.n() / 4 {
                // Bottom-up: every vertex still missing bits pulls them
                // from its neighbours' frontier words.
                for v in 0..g.n() {
                    let seen = self.seen[v];
                    if seen == full {
                        continue;
                    }
                    let mut bits = 0;
                    for &w in g.neighbors(v as Vertex) {
                        bits |= self.frontier[w as usize];
                        if seen | bits == full {
                            break;
                        }
                    }
                    let new = bits & !seen;
                    if new != 0 {
                        gain(self, v, new);
                    }
                }
                for &u in &frontier_list {
                    self.frontier[u as usize] = 0;
                }
            } else {
                // Top-down: the sparse frontier pushes its bits out.
                for &u in &frontier_list {
                    let bits = std::mem::take(&mut self.frontier[u as usize]);
                    for &w in g.neighbors(u) {
                        let new = bits & !self.seen[w as usize];
                        if new != 0 {
                            gain(self, w as usize, new);
                        }
                    }
                }
            }
            // Every frontier word is zero again, so the old frontier
            // array becomes the next level's accumulator.
            self.frontier_list = frontier_list;
            self.frontier_list.clear();
            std::mem::swap(&mut self.frontier, &mut self.next);
            std::mem::swap(&mut self.frontier_list, &mut self.next_list);
        };
        for &v in &self.frontier_list {
            self.frontier[v as usize] = 0;
        }
        self.frontier_list.clear();
        for &v in &self.touched {
            self.seen[v as usize] = 0;
        }
        self.touched.clear();
        result
    }

    /// Scalar BFS from `source` that stops once it has reached every
    /// member. Fills `reach` with each member's distance from `source` and
    /// returns the largest (the eccentricity of `source` within the set),
    /// or `None` if the search dies out first.
    fn member_distances(&mut self, g: &Graph, source: Vertex) -> Option<u32> {
        self.dist[source as usize] = 0;
        self.queue.push(source);
        let mut reached = usize::from(self.member[source as usize]);
        let (mut ecc, mut head) = (0, 0);
        while reached < self.members.len() && head < self.queue.len() {
            let u = self.queue[head];
            head += 1;
            let du = self.dist[u as usize];
            for &w in g.neighbors(u) {
                if self.dist[w as usize] == UNREACHABLE {
                    self.dist[w as usize] = du + 1;
                    self.queue.push(w);
                    if self.member[w as usize] {
                        reached += 1;
                        ecc = du + 1;
                    }
                }
            }
        }
        self.reach.clear();
        self.reach
            .extend(self.members.iter().map(|&v| self.dist[v as usize]));
        for &v in &self.queue {
            self.dist[v as usize] = UNREACHABLE;
        }
        self.queue.clear();
        (reached == self.members.len()).then_some(ecc)
    }

    /// Exact weak diameter of a set of more than 64 members, the
    /// centre-bounded search of the [module docs](self). Leaves `reach`,
    /// `far` and `centre` for the caller to clear.
    fn bounded(&mut self, g: &Graph) -> Option<u32> {
        // The first search also settles connectivity: once it reaches
        // every member, so does every later one.
        let mut lb = self.member_distances(g, self.members[0])?;
        let mut extremal = index_of_max(&self.reach);
        self.far.resize(self.members.len(), 0);
        let mut best = UNREACHABLE;
        for _ in 0..CENTRE_ROUNDS {
            // A double sweep: the extremal member, then the member
            // farthest from it.
            for _ in 0..2 {
                lb = lb.max(self.member_distances(g, self.members[extremal])?);
                for (f, &d) in self.far.iter_mut().zip(&self.reach) {
                    *f = (*f).max(d);
                }
                extremal = index_of_max(&self.reach);
            }
            let centre = self.far.iter().enumerate().min_by_key(|&(_, &f)| f)?.0;
            let ecc = self.member_distances(g, self.members[centre])?;
            lb = lb.max(ecc);
            if ecc < best {
                best = ecc;
                self.centre.clear();
                self.centre
                    .extend(self.reach.iter().copied().zip(self.members.iter().copied()));
            }
            if lb >= 2 * best {
                return Some(lb);
            }
            extremal = index_of_max(&self.reach);
        }
        self.centre
            .sort_unstable_by_key(|&(d, v)| (std::cmp::Reverse(d), v));
        for (m, &(_, v)) in self.members.iter_mut().zip(&self.centre) {
            *m = v;
        }
        let len = self.members.len();
        for start in (0..len).step_by(64) {
            // Every unswept member is within `centre[start].0` of the
            // centre, so no two of them are farther apart than twice that.
            if lb >= 2 * self.centre[start].0 {
                break;
            }
            lb = lb.max(self.sweep(g, start..len.min(start + 64))?);
        }
        Some(lb)
    }
}

/// Index of the first largest entry (`0` for an empty slice).
fn index_of_max(d: &[u32]) -> usize {
    let max = d.iter().max();
    d.iter().position(|x| Some(x) == max).unwrap_or(0)
}

/// Weak diameter of a vertex subset: `max_{u,v ∈ S} dist_G(u, v)` where the
/// distance is measured in the *whole* graph `g` (Definition 1.4 of the
/// paper). Returns `None` if some pair of `S` is disconnected in `g`;
/// duplicates in `s` are ignored and the empty set has diameter `0`.
///
/// Exact, by bit-parallel multi-source BFS: a sweep from up to 64 sources
/// stops at the level where every member holds every source's bit, and
/// its answer is the last level at which any member gained one. A set of
/// at most 64 distinct members is one sweep; a larger one first bounds
/// its diameter from a centre found by a few early-stopping scalar BFS
/// and sweeps only the members far enough from that centre to matter —
/// at most ⌈|S|/64⌉ sweeps (see the [module docs](self) for the full cost
/// model). Allocates a fresh [`DiameterScratch`]; use
/// [`weak_diameter_with_scratch`] to measure many sets.
///
/// ```
/// use dapc_graph::{gen, traversal};
/// let g = gen::cycle(6);
/// assert_eq!(traversal::weak_diameter(&g, &[0, 2, 3]), Some(3));
/// ```
pub fn weak_diameter(g: &Graph, s: &[Vertex]) -> Option<u32> {
    weak_diameter_with_scratch(g, s, &mut DiameterScratch::new())
}

/// [`weak_diameter`] against a caller-owned [`DiameterScratch`], so
/// measuring every cluster of a decomposition allocates once. Output is
/// identical to [`weak_diameter`].
pub fn weak_diameter_with_scratch(
    g: &Graph,
    s: &[Vertex],
    scratch: &mut DiameterScratch,
) -> Option<u32> {
    scratch.ensure_vertices(g.n());
    for &v in s {
        if !scratch.member[v as usize] {
            scratch.member[v as usize] = true;
            scratch.members.push(v);
        }
    }
    let diameter = match scratch.members.len() {
        0 => Some(0),
        len @ 1..=64 => scratch.sweep(g, 0..len),
        _ => scratch.bounded(g),
    };
    for &v in &scratch.members {
        scratch.member[v as usize] = false;
    }
    scratch.members.clear();
    scratch.reach.clear();
    scratch.far.clear();
    scratch.centre.clear();
    diameter
}

/// Strong diameter of a vertex subset: the diameter of the induced subgraph
/// `G[S]`. Returns `None` if `G[S]` is disconnected.
pub fn strong_diameter(g: &Graph, s: &[Vertex]) -> Option<u32> {
    let (sub, _) = g.induced_subgraph(s);
    let mut best = 0u32;
    for v in sub.vertices() {
        let dist = bfs_distances(&sub, v);
        for d in dist {
            if d == UNREACHABLE {
                return None;
            }
            best = best.max(d);
        }
    }
    Some(best)
}

/// Distance between two vertex sets: `min_{u ∈ a, v ∈ b} dist(u, v)`, or
/// `None` if unreachable.
pub fn set_distance(g: &Graph, a: &[Vertex], b: &[Vertex]) -> Option<u32> {
    if a.is_empty() || b.is_empty() {
        return None;
    }
    let dist = bfs_distances_multi(g, a);
    b.iter()
        .map(|&v| dist[v as usize])
        .min()
        .filter(|&d| d != UNREACHABLE)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    /// The per-member weak diameter [`weak_diameter`] replaced: one
    /// full-graph BFS per listed vertex. Kept as the test oracle.
    fn weak_diameter_oracle(g: &Graph, s: &[Vertex]) -> Option<u32> {
        let mut best = 0u32;
        for &u in s {
            let dist = bfs_distances(g, u);
            for &v in s {
                let d = dist[v as usize];
                if d == UNREACHABLE {
                    return None;
                }
                best = best.max(d);
            }
        }
        Some(best)
    }

    #[test]
    fn single_source_distances_on_path() {
        let g = gen::path(5);
        assert_eq!(bfs_distances(&g, 0), vec![0, 1, 2, 3, 4]);
        assert_eq!(bfs_distances(&g, 2), vec![2, 1, 0, 1, 2]);
    }

    #[test]
    fn multi_source_takes_nearest() {
        let g = gen::path(5);
        let d = bfs_distances_multi(&g, &[0, 4]);
        assert_eq!(d, vec![0, 1, 2, 1, 0]);
    }

    #[test]
    fn multi_source_ignores_duplicated_sources() {
        let g = gen::path(6);
        let d = bfs_distances_multi(&g, &[5, 1, 5, 1, 1]);
        assert_eq!(d, vec![1, 0, 1, 2, 1, 0]);
        assert_eq!(d, bfs_distances_multi(&g, &[5, 1]));
    }

    #[test]
    fn masked_bfs_respects_mask() {
        let g = gen::path(5);
        let alive = vec![true, true, false, true, true];
        let d = bfs_distances_masked(&g, &[0], &alive);
        assert_eq!(d[1], 1);
        assert_eq!(d[2], UNREACHABLE);
        assert_eq!(d[3], UNREACHABLE);
    }

    #[test]
    fn ball_levels_are_exact_distances() {
        let g = gen::cycle(8);
        let b = ball(&g, &[0], 3, None);
        assert_eq!(b.level(0), &[0]);
        assert_eq!(b.level(1).len(), 2);
        assert_eq!(b.level(2).len(), 2);
        assert_eq!(b.level(3).len(), 2);
        assert_eq!(b.len(), 7);
        assert_eq!(b.radius(), 3);
    }

    #[test]
    fn ball_stops_early_when_exhausted() {
        let g = gen::path(3);
        let b = ball(&g, &[1], 10, None);
        assert_eq!(b.radius(), 1);
        assert_eq!(b.len(), 3);
    }

    #[test]
    fn ball_from_dead_source_is_empty() {
        let g = gen::path(3);
        let alive = vec![false, true, true];
        let b = ball(&g, &[0], 2, Some(&alive));
        assert!(b.is_empty());
    }

    #[test]
    fn ball_within_truncates() {
        let g = gen::path(7);
        let b = ball(&g, &[3], 3, None);
        let within1: Vec<_> = b.within(1).collect();
        assert_eq!(within1.len(), 3);
    }

    #[test]
    fn diameter_of_cycle() {
        assert_eq!(diameter(&gen::cycle(8)), 4);
        assert_eq!(diameter(&gen::cycle(9)), 4);
        assert_eq!(diameter(&gen::path(6)), 5);
    }

    #[test]
    fn weak_vs_strong_diameter() {
        // C6 with S = two antipodal-ish vertices plus their midpoint on one
        // side only: weak diameter uses the full cycle, strong uses G[S].
        let g = gen::cycle(6);
        // S = {0, 2}: dist in G is 2, but G[S] is disconnected.
        assert_eq!(weak_diameter(&g, &[0, 2]), Some(2));
        assert_eq!(strong_diameter(&g, &[0, 2]), None);
        // S = {0, 1, 2}: path inside the cycle.
        assert_eq!(strong_diameter(&g, &[0, 1, 2]), Some(2));
    }

    /// The self-cleaning invariant of [`DiameterScratch`]: every word
    /// and mark zero, every list empty.
    fn is_clean(s: &DiameterScratch) -> bool {
        s.seen.iter().all(|&w| w == 0)
            && s.frontier.iter().all(|&w| w == 0)
            && s.next.iter().all(|&w| w == 0)
            && s.dist.iter().all(|&d| d == UNREACHABLE)
            && s.member.iter().all(|&m| !m)
            && s.members.is_empty()
            && s.frontier_list.is_empty()
            && s.next_list.is_empty()
            && s.touched.is_empty()
            && s.queue.is_empty()
            && s.reach.is_empty()
            && s.far.is_empty()
            && s.centre.is_empty()
    }

    #[test]
    fn weak_diameter_matches_the_oracle_across_batch_boundaries() {
        let g = gen::grid(12, 12);
        for k in [1usize, 2, 63, 64, 65, 128, 130, 144] {
            let s: Vec<Vertex> = (0..k as Vertex).map(|i| (i * 37) % 144).collect();
            assert_eq!(
                weak_diameter(&g, &s),
                weak_diameter_oracle(&g, &s),
                "k = {k}"
            );
        }
        assert_eq!(weak_diameter(&g, &[]), Some(0));
        assert_eq!(weak_diameter(&g, &[5, 5, 5]), Some(0));
    }

    #[test]
    fn diameter_scratch_is_clean_after_every_call_and_reusable() {
        let grid = gen::grid(10, 10);
        let cycle = gen::cycle(300); // larger: the scratch must regrow
        let split = Graph::from_edges(5, &[(0, 1), (1, 2), (3, 4)]);
        // Two cycles of 100: a set of more than 64 across both takes the
        // `None` exit of the first scalar BFS.
        let halves: Vec<(Vertex, Vertex)> = (0..200)
            .map(|v| (v, if v % 100 == 99 { v - 99 } else { v + 1 }))
            .collect();
        let halves = Graph::from_edges(200, &halves);
        let all_grid: Vec<Vertex> = grid.vertices().collect();
        let all_cycle: Vec<Vertex> = cycle.vertices().collect();
        // 75 members, settled by the centre bound before any sweep.
        let diamond: Vec<Vertex> = ball(&grid, &[55], 6, None).iter().collect();
        let cases: [(&Graph, Vec<Vertex>); 10] = [
            (&grid, all_grid.clone()),
            (&cycle, all_cycle),
            (&split, vec![0, 2, 4]),
            (&halves, (0..150).collect()),
            (&grid, vec![7, 7, 93]),
            (&cycle, (0..100).map(|i| i * 3).collect()),
            (&split, vec![3, 4, 0]),
            (&grid, diamond),
            (&halves, (50..180).rev().collect()),
            (&grid, all_grid),
        ];
        let mut scratch = DiameterScratch::new();
        let mut disconnected = 0;
        for (g, s) in &cases {
            let got = weak_diameter_with_scratch(g, s, &mut scratch);
            assert_eq!(got, weak_diameter(g, s), "{s:?}");
            assert_eq!(got, weak_diameter_oracle(g, s), "{s:?}");
            assert!(is_clean(&scratch), "scratch left dirty by {s:?}");
            disconnected += usize::from(got.is_none());
        }
        assert_eq!(disconnected, 4, "the `split` and `halves` sets are `None`");
    }

    #[test]
    fn set_distance_basic() {
        let g = gen::path(6);
        assert_eq!(set_distance(&g, &[0, 1], &[4, 5]), Some(3));
        assert_eq!(set_distance(&g, &[], &[1]), None);
    }

    #[test]
    fn scratch_reuse_matches_fresh_calls() {
        let g = gen::grid(6, 6);
        let h = gen::cycle(50); // different size: scratch must regrow
        let mut scratch = BallScratch::new();
        for r in 0..6 {
            assert_eq!(
                ball_with_scratch(&g, &[7], r, None, &mut scratch),
                ball(&g, &[7], r, None)
            );
            assert_eq!(
                ball_with_scratch(&h, &[3, 40], r, None, &mut scratch),
                ball(&h, &[3, 40], r, None)
            );
        }
        let alive: Vec<bool> = (0..g.n()).map(|v| v % 3 != 0).collect();
        for r in 0..6 {
            assert_eq!(
                ball_with_scratch(&g, &[8], r, Some(&alive), &mut scratch),
                ball(&g, &[8], r, Some(&alive))
            );
        }
        // Self-cleaning invariant: no marks survive a traversal.
        assert!(scratch.seen_v.iter().all(|&s| !s));
    }

    #[test]
    fn ball_size_matches_ball() {
        let g = gen::grid(5, 5);
        for r in 0..5 {
            assert_eq!(ball_size(&g, 12, r, None), ball(&g, &[12], r, None).len());
        }
    }
}
