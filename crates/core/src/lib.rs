//! # dapc-core
//!
//! The primary contribution of Chang & Li (PODC 2023), reproduced in full,
//! behind one unified solver engine:
//!
//! * [`engine`] — the [`engine::Solver`] trait, the [`engine::SolveConfig`]
//!   builder, the [`engine::SolveReport`] result and the string-keyed
//!   backend registry (`three-phase`, `gkm`, `ensemble`, `greedy`, `bnb`);
//! * [`adapters`] — the [`adapters::GraphProblem`] builder mapping MIS,
//!   matching, vertex cover and (k-distance) dominating set onto the
//!   engine;
//! * [`packing`] — **Theorem 1.2**: `(1 − ε)`-approximate solutions for
//!   arbitrary packing ILPs in `Õ(log n/ε)` LOCAL rounds, whp;
//! * [`covering`] — **Theorem 1.3**: `(1 + ε)`-approximate solutions for
//!   arbitrary covering ILPs in `Õ(log n/ε)` LOCAL rounds, whp;
//! * [`gkm`] — the Ghaffari–Kuhn–Maus `O(log³ n/ε)` baseline the paper
//!   improves upon (§1.2);
//! * [`ensemble`] — the §4.2 alternative packing algorithm;
//! * [`params`] — the paper's constants plus the documented scaling knobs;
//! * [`prep`] — the shared preparation step (§4.1.1/§5.1.1) and the
//!   memoising exact subset solver.
//!
//! ```
//! use dapc_core::adapters::GraphProblem;
//! use dapc_core::engine::ThreePhase;
//! use dapc_graph::gen;
//!
//! let g = gen::cycle(12);
//! let r = GraphProblem::min_vertex_cover(&g).eps(0.3).seed(0).solve_with(&ThreePhase);
//! assert!(r.weight <= 7); // τ(C12) = 6, (1+ε)·6 = 7.8
//! ```

pub mod adapters;
pub mod covering;
pub mod engine;
pub mod ensemble;
pub mod gkm;
pub mod packing;
pub mod params;
pub mod prep;
pub mod snapmagic;

pub use adapters::{GraphProblem, GraphSolveResult};
pub use covering::{approximate_covering, CoveringOutcome};
pub use engine::{SolveConfig, SolveReport, Solver};
pub use packing::{approximate_packing, PackingOutcome};
pub use params::{PcParams, ScaleKnobs};
