//! # dapc-conc
//!
//! Probability substrate for the `dapc` workspace: the samplers the
//! paper's randomised algorithms draw from, the Appendix A concentration
//! bounds as numeric certificates, and empirical tail estimators for the
//! "with high probability" experiments.
//!
//! ```
//! use dapc_conc::{bounds, dist::Exponential};
//! use rand::SeedableRng;
//!
//! // The Elkin–Neiman shift of Lemma C.1 at λ = ε/10.
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let shift = Exponential::new(0.02).sample(&mut rng);
//! assert!(shift >= 0.0);
//!
//! // And the Chernoff certificate the analysis leans on.
//! let tail = bounds::chernoff_upper(16.0 * 1000f64.ln(), 1.0);
//! assert!(tail < 1e-10);
//! ```

pub mod bounds;
pub mod dist;
pub mod empirical;

pub use dist::{Exponential, Geometric};
pub use empirical::{FailureCounter, TailEstimator};
