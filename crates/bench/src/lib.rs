//! # dapc-bench
//!
//! The experiment harness regenerating every experiment table: one
//! function per experiment id (E1–E10, listed in [`ALL_EXPERIMENTS`]),
//! each returning a rendered markdown table. The `tables` binary drives
//! them (its module docs list every flag):
//!
//! ```sh
//! cargo run -p dapc-bench --release --bin tables             # all
//! cargo run -p dapc-bench --release --bin tables -- e1 e6    # selected
//! cargo run -p dapc-bench --release --bin tables -- --quick  # reduced trials
//! cargo run -p dapc-bench --release --bin tables -- --jobs 4 # 4 concurrent jobs
//! cargo run -p dapc-bench --release --bin tables -- --prep-workers 4 # shard preps
//! ```
//!
//! The ILP experiments (E3–E6, E10) batch through `dapc-runtime`, so
//! `--jobs N` runs up to `N` of their jobs concurrently (shared prep
//! caching included) and `--prep-workers M` additionally shards each
//! job's preparation step — both on the one process-wide executor, in
//! `--quick` mode and `--full` mode alike.
//!
//! Since the shard-merge refactor the same tables can be produced by N
//! cooperating **processes**: each runs `tables --shard i/n --emit-shard
//! PATH` (solving only its contiguous slice of every corpus and
//! recording mergeable aggregator snapshots), then one invocation of
//! `tables --merge-shards PATH..` reassembles them — byte-identical to
//! the single-process output. Criterion wall-clock benches for the
//! substrate live in `benches/`.

pub mod exp_ilp;
pub mod exp_ldd;
pub mod exp_lower;
pub mod shard;
pub mod table;

use shard::Runner;

/// Trial-count profile for the experiments.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Profile {
    /// Reduced trial counts (~seconds per experiment).
    Quick,
    /// Full trial counts (the `tables` default).
    Full,
}

impl Profile {
    /// Trials for distribution-tail experiments.
    pub fn tail_trials(self) -> usize {
        match self {
            Profile::Quick => 200,
            Profile::Full => 2000,
        }
    }

    /// Trials for quality experiments.
    pub fn quality_trials(self) -> usize {
        match self {
            Profile::Quick => 5,
            Profile::Full => 20,
        }
    }

    /// Seeds for solver experiments.
    pub fn solver_seeds(self) -> u64 {
        match self {
            Profile::Quick => 3,
            Profile::Full => 10,
        }
    }

    /// Trials for the indistinguishability profiling.
    pub fn profile_trials(self) -> usize {
        match self {
            Profile::Quick => 30,
            Profile::Full => 120,
        }
    }
}

/// Runs one experiment by id (`"e1"`…`"e10"`), returning its table(s).
///
/// `run` executes the experiments that batch through `dapc-runtime`
/// (E3–E6, E10, the [`BATCH_EXPERIMENTS`]): its [`RuntimeConfig`] caps
/// across-corpus concurrency (`jobs`) and intra-solve prep sharding
/// (`prep_workers`) on the shared executor, and its mode decides whether
/// the sweeps run whole ([`Runner::single`]), as one shard of a
/// multi-process split ([`Runner::emit`] — the experiment then returns
/// an empty string, its part reports are collected on the runner), or
/// from pre-recorded shard files ([`Runner::merge`]). The remaining
/// experiments run inline. No runner choice changes a rendered table —
/// batching *and sharding* are byte-identical to sequential execution.
///
/// # Panics
///
/// Panics on an unknown id.
pub fn run_experiment(id: &str, profile: Profile, run: &Runner) -> String {
    match id {
        "e1" => exp_ldd::e1(profile.quality_trials()),
        "e2" => exp_ldd::e2(profile.tail_trials()),
        "e3" => exp_ilp::e3(profile.solver_seeds(), run),
        "e4" => exp_ilp::e4(profile.solver_seeds(), run),
        "e5" => exp_ilp::e5(profile.solver_seeds(), run),
        "e6" => exp_ilp::e6(run),
        "e7" => {
            let mut s = exp_lower::e7_lps_structure();
            s.push_str(&exp_lower::e7_indistinguishability(
                profile.profile_trials(),
            ));
            s.push_str(&exp_lower::e7_subdivision_tradeoff(
                profile.profile_trials(),
            ));
            s.push_str(&exp_lower::e7_registry_gap(profile.profile_trials()));
            s
        }
        "e8" => exp_ldd::e8(profile.quality_trials()),
        "e9" => exp_ldd::e9(profile.quality_trials()),
        "e10" => exp_ilp::e10(profile.solver_seeds(), run),
        other => panic!("unknown experiment id {other:?} (expected e1..e10)"),
    }
}

/// All experiment ids in order.
pub const ALL_EXPERIMENTS: [&str; 10] =
    ["e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10"];

/// The experiments that batch through `dapc-runtime` and therefore shard
/// across processes; the rest run inline at merge (or single) time.
pub const BATCH_EXPERIMENTS: [&str; 5] = ["e3", "e4", "e5", "e6", "e10"];
