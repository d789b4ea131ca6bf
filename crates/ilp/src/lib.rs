//! # dapc-ilp
//!
//! ILP substrate for the `dapc` workspace: packing and covering integer
//! linear programs (Definitions 1.1–1.3 of Chang & Li, PODC 2023), their
//! hypergraph modelling, local sub-instances (Observations 2.1–2.2) and
//! exact solvers for the "free local computation" the LOCAL model grants.
//!
//! * [`instance`] — `IlpInstance`, constraints, feasibility, `W(P, S)`;
//! * [`problems`] — MIS, matching, vertex cover, (k-)dominating set, set
//!   cover, random general instances;
//! * [`restrict`] — `P^local_S` / `Q^local_S` with fixed-variable support;
//! * [`solvers`] — structure-detecting exact solvers (conflict-graph MIS,
//!   Edmonds blossom, VC-via-MIS, general branch & bound, greedy
//!   fallbacks);
//! * [`verify`] — global feasibility checks and approximation verdicts.
//!
//! ```
//! use dapc_graph::gen;
//! use dapc_ilp::{problems, verify, solvers::SolverBudget};
//!
//! let g = gen::cycle(9);
//! let ilp = problems::max_independent_set_unweighted(&g);
//! let (opt, exact) = verify::optimum(&ilp, &SolverBudget::default());
//! assert_eq!((opt, exact), (4, true));
//! ```

pub mod hash;
pub mod instance;
pub mod problems;
pub mod restrict;
pub mod solvers;
pub mod verify;

pub use instance::{Constraint, IlpInstance, Sense};
pub use restrict::SubInstance;
pub use solvers::{Solution, SolverBudget};
pub use verify::{FeasibilityReport, Verdict};
