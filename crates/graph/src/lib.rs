//! # dapc-graph
//!
//! Graph and hypergraph substrate for the `dapc` workspace — the
//! reproduction of Chang & Li, *"The Complexity of Distributed
//! Approximation of Packing and Covering Integer Linear Programs"*
//! (PODC 2023).
//!
//! Everything here is implemented from scratch:
//!
//! * [`Graph`] — CSR undirected graphs with sorted adjacency;
//! * [`GraphBuilder`] — incremental, deduplicating construction;
//! * [`traversal`] — BFS distances, per-level balls `N^r(v)` (plain and
//!   residual-masked), weak/strong diameters — the vocabulary of the
//!   paper's Grow-and-Carve procedures;
//! * [`girth`] — shortest-cycle computation for the Appendix B lower
//!   bounds;
//! * [`power`] — power graphs `G^k` for the GKM17 baseline;
//! * [`subdivide`] — the `G_x` and `G*` reductions of Appendix B;
//! * [`gen`] — deterministic and random generators, including the
//!   Appendix C counterexample families;
//! * [`lps`] — Lubotzky–Phillips–Sarnak Ramanujan graphs `X^{p,q}`
//!   (Theorem B.1), built via quaternions over `PGL₂(𝔽_q)`;
//! * [`Hypergraph`] — the Definition 1.3 communication hypergraph with
//!   masked primal-metric traversal.
//!
//! # Quickstart
//!
//! ```
//! use dapc_graph::{gen, traversal, Hypergraph};
//!
//! let g = gen::grid(8, 8);
//! let ball = traversal::ball(&g, &[0], 3, None);
//! assert_eq!(ball.level(1).len(), 2);
//!
//! let h = Hypergraph::from_graph(&g);
//! assert_eq!(h.m(), g.m());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod gen;
pub mod girth;
pub mod graph;
pub mod hypergraph;
pub mod lps;
pub mod power;
pub mod subdivide;
pub mod traversal;

pub use builder::GraphBuilder;
pub use graph::{Graph, Vertex};
pub use hypergraph::{EdgeId, Hypergraph};
pub use traversal::{Ball, BallScratch, DiameterScratch};
