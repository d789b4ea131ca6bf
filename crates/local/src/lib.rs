//! # dapc-local
//!
//! LOCAL model runtime for the `dapc` workspace.
//!
//! Two complementary layers:
//!
//! * [`network`] — a faithful synchronous message-passing simulator: one
//!   [`network::NodeProgram`] per vertex, arbitrary message sizes, exact
//!   round and message accounting. Used for small-radius algorithms and to
//!   *validate* the second layer.
//! * [`charge`] — charged round accounting for the paper's large-radius
//!   algorithms (`R = Θ(t ln ñ / ε)` gathers): balls are computed
//!   centrally, and the [`charge::RoundLedger`] charges exactly the rounds
//!   a flooding implementation would spend (max gather radius per parallel
//!   phase, summed over sequential phases).
//!
//! The bridge between the layers is [`gather`]: the gathering primitive is
//! implemented as a real message-passing program and tested to deliver
//! exactly `N^r(v)` after `r` rounds, which is the classical equivalence
//! ("an r-round LOCAL algorithm is a function of r-balls") the charged
//! accounting relies on.

pub mod charge;
pub mod gather;
pub mod network;

pub use charge::{RoundCost, RoundLedger};
pub use network::{Network, NodeCtx, NodeProgram, Outbox, RunStats};
