//! # dapc-chaos
//!
//! Deterministic fault injection for the serve layer: a seeded
//! [`FaultPlan`] that injection *sites* (named I/O and process
//! boundaries — checkpoint writes, snapshot loads, socket frames,
//! worker lifecycles) consult before doing their real work. The plan is
//! derived from a `u64` seed with the workspace's FNV-1a folds and is
//! completely separate from the solvers' key-derived RNG streams, so an
//! armed plan can *never* change what a surviving run computes — only
//! which I/O operations fail, stall, or corrupt on the way.
//!
//! Determinism and convergence are the two design rules:
//!
//! 1. **Decisions are pure.** Whether the `n`-th consultation of site
//!    `s` injects a fault is a pure function of `(seed, salt, s, n)` —
//!    replaying a process with the same plan and the same (single-
//!    threaded) call sequence replays the same faults. The salt
//!    (`DAPC_CHAOS_SALT`, conventionally the supervisor's attempt
//!    number) gives retried worker processes a *different* fault
//!    schedule, so a retry is not doomed to trip over the same wire.
//! 2. **Budgets are bounded.** Every site stops firing after a small
//!    per-process budget of injected faults, so any retry loop that
//!    survives bounded failures (the supervisor, the daemon client's
//!    backoff) converges to a clean pass instead of flaking forever.
//!
//! The plan is process-global and armed at most once — from the
//! `DAPC_CHAOS` environment variable (a decimal `u64` seed) on first
//! consultation, or programmatically via [`arm`]. Unarmed, every site
//! check is one relaxed atomic load and injects nothing.

use dapc_ilp::hash::{fnv1a, fnv1a_u64, FNV_OFFSET};
use std::collections::BTreeMap;
use std::io::{self, Read};
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

/// Environment variable holding the decimal `u64` fault-plan seed; when
/// set, the plan arms itself on the first site consultation.
pub const CHAOS_ENV: &str = "DAPC_CHAOS";

/// Environment variable holding the decimal `u64` plan salt (default 0).
/// Supervisors set it to the attempt number of each spawned worker so
/// retries draw a fresh fault schedule from the same seed.
pub const SALT_ENV: &str = "DAPC_CHAOS_SALT";

/// Per-site injection policy: fire roughly one consultation in `rate`,
/// at most `budget` times per process. Sites whose faults are fatal to
/// a whole attempt (signal death, dropped connections) get low budgets;
/// harmless delay sites can fire more often.
const fn site_policy(site: &str) -> (u64, u64) {
    // (rate, budget) — matched on the site name's first bytes because
    // const fns cannot match on &str directly.
    match site.as_bytes() {
        b"part.write" => (6, 2),
        b"part.load" => (10, 2),
        b"shard.write" => (4, 2),
        b"manifest.load" => (16, 1),
        b"worker.stall" => (4, 4),
        b"worker.abort" => (10, 1),
        b"spawn.delay" => (3, 4),
        b"proto.write" => (10, 2),
        b"proto.read" => (6, 4),
        b"daemon.accept" => (8, 2),
        _ => (8, 2),
    }
}

/// A seeded, deterministic fault plan. Most callers use the process
/// globals ([`roll`], [`stall`], [`corrupt_reader`]); owning a plan
/// directly is for tests that need several plans in one process.
#[derive(Clone, Copy, Debug)]
pub struct FaultPlan {
    root: u64,
}

impl FaultPlan {
    /// Derives a plan from `seed` and `salt`: the root state is
    /// `fnv1a_u64(fnv1a_u64(FNV_OFFSET, seed), salt)`, and every site
    /// folds its name on top — disjoint from every solver RNG stream,
    /// which seed from job keys, not from this chain.
    pub fn new(seed: u64, salt: u64) -> Self {
        FaultPlan {
            root: fnv1a_u64(fnv1a_u64(FNV_OFFSET, seed), salt),
        }
    }

    /// Whether the `hit`-th consultation of `site` injects a fault
    /// (ignoring budgets, which are process state, not plan state).
    /// Pure: same `(seed, salt, site, hit)` → same answer, with a
    /// [`Roll`] whose picks are equally reproducible.
    pub fn decide(&self, site: &str, hit: u64) -> Option<Roll> {
        let stream = fnv1a(self.root, site.as_bytes());
        let draw = fnv1a_u64(stream, hit);
        let (rate, _budget) = site_policy(site);
        draw.is_multiple_of(rate).then_some(Roll { state: draw })
    }
}

/// One injected fault's variant selector: a deterministic stream of
/// small picks (which failure mode, which byte offset, how long a
/// stall) drawn from the decision that fired.
#[derive(Clone, Copy, Debug)]
pub struct Roll {
    state: u64,
}

impl Roll {
    /// Draws the next pick in `0..n` (`n` must be nonzero). Successive
    /// picks advance the roll's own FNV chain, so one fault can make
    /// several independent choices.
    pub fn pick(&mut self, n: usize) -> usize {
        self.state = fnv1a_u64(self.state, 0x9e37_79b9_7f4a_7c15);
        (self.state % n.max(1) as u64) as usize
    }
}

/// The armed plan, or `None`. Arm-once: the first writer wins, whether
/// that's [`arm`] or the lazy environment read below.
static PLAN: OnceLock<Option<FaultPlan>> = OnceLock::new();

fn plan() -> Option<&'static FaultPlan> {
    PLAN.get_or_init(|| {
        let seed: u64 = std::env::var(CHAOS_ENV).ok()?.trim().parse().ok()?;
        let salt: u64 = std::env::var(SALT_ENV)
            .ok()
            .and_then(|s| s.trim().parse().ok())
            .unwrap_or(0);
        Some(FaultPlan::new(seed, salt))
    })
    .as_ref()
}

/// Per-site `(hits, fires)` counters — process state that makes budgets
/// and hit numbering work across threads.
fn counters() -> &'static Mutex<BTreeMap<String, (u64, u64)>> {
    static C: OnceLock<Mutex<BTreeMap<String, (u64, u64)>>> = OnceLock::new();
    C.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// Arms the process-global plan programmatically (e.g. from a
/// `--chaos-seed` flag). Also exports the seed and salt into this
/// process's environment so spawned children inherit the plan. Returns
/// `false` when the arm lost — a plan was consulted (and armed, or
/// resolved to "unarmed") before this call; the first resolution wins.
pub fn arm(seed: u64, salt: u64) -> bool {
    if std::env::var(CHAOS_ENV).is_err() {
        std::env::set_var(CHAOS_ENV, seed.to_string());
    }
    if std::env::var(SALT_ENV).is_err() {
        std::env::set_var(SALT_ENV, salt.to_string());
    }
    PLAN.set(Some(FaultPlan::new(seed, salt))).is_ok()
}

/// Whether a fault plan is armed in this process. One lazy lookup, then
/// cheap — unarmed processes pay a single atomic load per site check.
pub fn enabled() -> bool {
    plan().is_some()
}

/// Consults the plan at `site`: `Some(roll)` means *inject a fault
/// here*, with the roll choosing the variant. Counts the site's hit
/// (for decision numbering) and enforces its fire budget; records
/// `serve.chaos.*` counters when observability is on.
pub fn roll(site: &str) -> Option<Roll> {
    let plan = plan()?;
    let (_rate, budget) = site_policy(site);
    let decision = {
        let mut map = counters().lock().expect("chaos counters");
        let (hits, fires) = map.entry(site.to_string()).or_insert((0, 0));
        let hit = *hits;
        *hits += 1;
        if *fires >= budget {
            return None;
        }
        let decision = plan.decide(site, hit);
        if decision.is_some() {
            *fires += 1;
        }
        decision
    };
    if decision.is_some() && dapc_obs::enabled() {
        dapc_obs::counter("serve.chaos.injected").inc();
        dapc_obs::counter(&format!("serve.chaos.{site}")).inc();
    }
    decision
}

/// Sleeps a plan-chosen duration up to `max_millis` when `site` fires —
/// the "stalled read" / "delayed spawn" / "straggler" family of faults.
/// Stalls never change any result; they exercise timeouts and deadline
/// paths.
pub fn stall(site: &str, max_millis: u64) {
    if let Some(mut roll) = roll(site) {
        let millis = roll.pick(max_millis.max(1) as usize + 1) as u64;
        std::thread::sleep(Duration::from_millis(millis));
    }
}

/// The read-side fault of one [`corrupt_reader`].
#[derive(Clone, Copy, Debug)]
enum ReadFault {
    /// Flip one bit of the byte at stream offset `at` (no-op when the
    /// stream is shorter — the injection is then harmless).
    Flip { at: u64, bit: u8 },
    /// Report end-of-stream from offset `at` on — a truncated snapshot.
    Truncate { at: u64 },
}

/// A reader that corrupts the stream it wraps according to the plan:
/// either one flipped bit or an early EOF, at a deterministic offset.
/// Built by [`corrupt_reader`]; passes bytes through untouched when the
/// site did not fire.
pub struct ChaosRead<R> {
    inner: R,
    offset: u64,
    fault: Option<ReadFault>,
}

impl<R: Read> Read for ChaosRead<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self.fault {
            None => self.inner.read(buf),
            Some(ReadFault::Truncate { at }) => {
                if self.offset >= at {
                    return Ok(0);
                }
                let cap = usize::try_from(at - self.offset)
                    .unwrap_or(usize::MAX)
                    .min(buf.len());
                let n = self.inner.read(&mut buf[..cap])?;
                self.offset += n as u64;
                Ok(n)
            }
            Some(ReadFault::Flip { at, bit }) => {
                let n = self.inner.read(buf)?;
                let start = self.offset;
                self.offset += n as u64;
                if at >= start && at < start + n as u64 {
                    buf[(at - start) as usize] ^= 1 << bit;
                }
                Ok(n)
            }
        }
    }
}

/// Wraps `inner` in a [`ChaosRead`] that — when `site` fires — either
/// flips one bit or truncates the stream at a plan-chosen offset in the
/// first 4 KiB. Loaders behind a wrapped reader must surface every such
/// corruption as an `Err` (the sealed-snapshot envelope guarantees it);
/// the chaos drills prove they do.
pub fn corrupt_reader<R: Read>(site: &str, inner: R) -> ChaosRead<R> {
    let fault = roll(site).map(|mut roll| {
        if roll.pick(2) == 0 {
            ReadFault::Flip {
                at: roll.pick(4096) as u64,
                bit: roll.pick(8) as u8,
            }
        } else {
            ReadFault::Truncate {
                at: roll.pick(4096) as u64,
            }
        }
    });
    ChaosRead {
        inner,
        offset: 0,
        fault,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_pure_functions_of_seed_salt_site_hit() {
        let a = FaultPlan::new(42, 0);
        let b = FaultPlan::new(42, 0);
        for site in ["part.write", "proto.read", "made.up"] {
            for hit in 0..200 {
                assert_eq!(a.decide(site, hit).is_some(), b.decide(site, hit).is_some());
            }
        }
    }

    #[test]
    fn seed_salt_and_site_all_matter() {
        let fires = |plan: FaultPlan, site: &str| -> Vec<u64> {
            (0..400)
                .filter(|&h| plan.decide(site, h).is_some())
                .collect()
        };
        let base = fires(FaultPlan::new(7, 0), "part.write");
        assert!(!base.is_empty(), "rate 1/6 over 400 hits must fire");
        assert_ne!(base, fires(FaultPlan::new(8, 0), "part.write"), "seed");
        assert_ne!(base, fires(FaultPlan::new(7, 1), "part.write"), "salt");
        assert_ne!(base, fires(FaultPlan::new(7, 0), "part.load"), "site");
    }

    #[test]
    fn rolls_replay_their_picks() {
        let plan = FaultPlan::new(99, 3);
        let hit = (0..500)
            .find(|&h| plan.decide("shard.write", h).is_some())
            .expect("some hit fires");
        let mut a = plan.decide("shard.write", hit).unwrap();
        let mut b = plan.decide("shard.write", hit).unwrap();
        for n in [2usize, 3, 4096, 8, 17] {
            assert_eq!(a.pick(n), b.pick(n));
        }
    }

    #[test]
    fn flip_reader_flips_exactly_one_bit() {
        let data: Vec<u8> = (0..64).collect();
        let mut r = ChaosRead {
            inner: data.as_slice(),
            offset: 0,
            fault: Some(ReadFault::Flip { at: 10, bit: 3 }),
        };
        let mut out = Vec::new();
        r.read_to_end(&mut out).unwrap();
        assert_eq!(out.len(), data.len());
        let diff: Vec<usize> = (0..out.len()).filter(|&i| out[i] != data[i]).collect();
        assert_eq!(diff, vec![10]);
        assert_eq!(out[10], data[10] ^ (1 << 3));
    }

    #[test]
    fn truncate_reader_ends_the_stream_early() {
        let data = vec![0xABu8; 64];
        let mut r = ChaosRead {
            inner: data.as_slice(),
            offset: 0,
            fault: Some(ReadFault::Truncate { at: 20 }),
        };
        let mut out = Vec::new();
        r.read_to_end(&mut out).unwrap();
        assert_eq!(out, vec![0xABu8; 20]);
    }

    #[test]
    fn flip_beyond_the_stream_is_a_no_op() {
        let data = vec![1u8, 2, 3];
        let mut r = ChaosRead {
            inner: data.as_slice(),
            offset: 0,
            fault: Some(ReadFault::Flip { at: 4000, bit: 0 }),
        };
        let mut out = Vec::new();
        r.read_to_end(&mut out).unwrap();
        assert_eq!(out, data);
    }
}
