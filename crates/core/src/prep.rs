//! The preparation step shared by the packing and covering solvers
//! (§4.1.1 / §5.1.1): `prep_count` independent decompositions of the
//! instance hypergraph whose clusters drive the sampling, each annotated
//! with its local optimum `W(OPT^local_C, C)` and the neighbourhood
//! estimate `W(OPT^local_{S_C}, S_C)`, `S_C = N^{8tR}(C)`.
//!
//! The preparation is the dominant cost of one solve — one exact subset
//! solve per cluster plus one per `S_C` ball — so [`prepare`] splits it
//! into a sequential RNG-driven decomposition pass and a deterministic
//! annotation pass, and (when [`crate::params::PcParams::prep_workers`]
//! exceeds one) shards the distinct exact subset solves of the annotation
//! pass across the process-wide `dapc_exec` executor. A preparation that
//! runs *inside* a batch job submits its shards to the same pool the job
//! runs on — never a child pool — so `jobs × prep_workers` degrades
//! gracefully instead of oversubscribing the machine. The output is
//! byte-identical to sequential execution: subset solves are
//! deterministic functions of their key, the RNG is consumed only by the
//! decomposition pass, and clusters are re-emitted in canonical order.
//!
//! # Annotation in `O(|C|)`
//!
//! Every subset solve takes its subset as a strictly ascending member
//! list, keys it by an FNV-1a-128 fold over those members (see
//! [`SubsetKey`]) and restricts the instance through the members'
//! incidence lists (`dapc_ilp::restrict`), so its cost follows the subset
//! and the constraints it touches, never `n` or `m`.
//!
//! The `S_C` balls are where that would still fail: at the radii the
//! solvers use, `N^{8tR}(C)` is very often C's whole connected component,
//! and a BFS would walk all of it for every cluster. So [`prepare`] first
//! builds a whole-component certificate from the primal graph, once per
//! call: component labels, each component's ascending members and its
//! key, and BFS distances from up to four farthest-first pivots per
//! component. For a cluster C inside one component K, `N^r(C) = K` holds
//! when
//!
//! - `|K| ≤ r + 1`, since a connected graph on `|K|` vertices has
//!   diameter at most `|K| − 1`; or
//! - `ecc(x) + dist(x, c) ≤ r` for some member `c` and pivot `x`, since
//!   then every `u ∈ K` has `dist(c, u) ≤ dist(c, x) + dist(x, u) ≤ r`
//!   by the triangle inequality.
//!
//! A certified cluster costs `O(|C|)` and reuses the component's
//! precomputed key and member list. Otherwise, and for clusters that span
//! several components, the BFS ball runs as before. Either way the subset
//! — and so its key, its solve and the annotation — is the same.
//!
//! Memoised entries ([`SubsetEntry`]) hold the value, the exactness flag
//! and the assignment over the subset's members only; callers lift it
//! over the member list they already hold.

use crate::params::PcParams;
use crate::snapmagic::{seal, SealingReader};
use dapc_graph::{BallScratch, Graph, Hypergraph, Vertex};
use dapc_ilp::hash::{fnv1a_128_u32, FNV128_OFFSET};
use dapc_ilp::instance::{IlpInstance, Sense};
use dapc_ilp::restrict::{covering_restriction_with_fixed, packing_restriction};
use dapc_ilp::solvers::{self, SolverBudget};
use rand::rngs::StdRng;
use std::collections::hash_map::Entry;
#[expect(
    clippy::disallowed_types,
    reason = "digest-keyed lookup caches and dedup sets only; every snapshot path sorts keys before writing bytes"
)]
use std::collections::{BTreeMap, HashMap, HashSet};
use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Cached registry handles for the cache's process-wide totals. The
/// per-family breakdown stays on [`SharedSubsetCache`]'s own counters
/// (and `CacheStats` in `dapc-runtime`); the registry carries the
/// unified sums across every family so one snapshot shows cache health
/// without unbounded metric cardinality. Each site gates on
/// [`dapc_obs::enabled`].
mod metrics {
    use dapc_obs::{Counter, Gauge};
    use std::sync::OnceLock;

    /// Lookups answered from any family's shared map.
    pub fn hits() -> &'static Counter {
        static C: OnceLock<Counter> = OnceLock::new();
        C.get_or_init(|| dapc_obs::counter("core.subset_cache.hits"))
    }

    /// Lookups that had to run the exact solver.
    pub fn misses() -> &'static Counter {
        static C: OnceLock<Counter> = OnceLock::new();
        C.get_or_init(|| dapc_obs::counter("core.subset_cache.misses"))
    }

    /// Entries dropped by LRU eviction across all families.
    pub fn evictions() -> &'static Counter {
        static C: OnceLock<Counter> = OnceLock::new();
        C.get_or_init(|| dapc_obs::counter("core.subset_cache.evictions"))
    }

    /// Approximate bytes resident across all families (tracked as
    /// deltas, so it is exact only for inserts made while enabled).
    pub fn bytes() -> &'static Gauge {
        static G: OnceLock<Gauge> = OnceLock::new();
        G.get_or_init(|| dapc_obs::gauge("core.subset_cache.bytes"))
    }

    /// `S_C` balls answered by the whole-component certificate.
    pub fn sc_certified() -> &'static Counter {
        static C: OnceLock<Counter> = OnceLock::new();
        C.get_or_init(|| dapc_obs::counter("core.prep.sc_certified"))
    }

    /// `S_C` balls that needed a BFS.
    pub fn sc_bfs() -> &'static Counter {
        static C: OnceLock<Counter> = OnceLock::new();
        C.get_or_init(|| dapc_obs::counter("core.prep.sc_bfs"))
    }
}

/// One memoised exact subset solve: the local optimum's value, whether
/// the solver proved it optimal, and its assignment over the subset's
/// members only — bit `i` is the value of the `i`-th member in ascending
/// order. Callers lift it over the member list they already hold
/// ([`SubsetEntry::ones`]), so an entry costs `|S|/8` bytes, not `n`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SubsetEntry {
    /// `W(OPT^local_S, S)` (for covering, net of the fixed-ones overlay).
    pub value: u64,
    /// Whether the exact solver proved optimality within its budget.
    pub exact: bool,
    /// Number of members the assignment covers.
    len: usize,
    /// `len` bits, LSB-first within each byte; padding bits are zero.
    bits: Box<[u8]>,
}

impl SubsetEntry {
    /// Packs the local solution `local` over `vars` into bits over
    /// `members`. Both lists ascend and `vars ⊆ members`; members missing
    /// from `vars` (covering's fixed ones) get a zero bit.
    fn from_local(
        value: u64,
        exact: bool,
        members: &[Vertex],
        vars: &[Vertex],
        local: &[bool],
    ) -> Self {
        let mut bits = vec![0u8; members.len().div_ceil(8)];
        let mut j = 0;
        for (i, &v) in members.iter().enumerate() {
            if vars.get(j) == Some(&v) {
                bits[i / 8] |= u8::from(local[j]) << (i % 8);
                j += 1;
            }
        }
        debug_assert_eq!(
            j,
            vars.len(),
            "sub-instance variables lie outside the members"
        );
        SubsetEntry {
            value,
            exact,
            len: members.len(),
            bits: bits.into_boxed_slice(),
        }
    }

    /// The members the solution sets to one, ascending.
    ///
    /// # Panics
    ///
    /// Panics if `members` has a different length from the member list
    /// the entry was solved for.
    pub fn ones<'a>(&'a self, members: &'a [Vertex]) -> impl Iterator<Item = Vertex> + 'a {
        assert_eq!(members.len(), self.len, "entry belongs to another subset");
        members
            .iter()
            .enumerate()
            .filter(|&(i, _)| self.bits[i / 8] >> (i % 8) & 1 == 1)
            .map(|(_, &v)| v)
    }
}

/// One sharded annotation result: the entry plus whether a warm family
/// cache already held it (drives counter parity with sequential runs).
type ShardSlot = Option<(SubsetEntry, bool)>;

/// The identity of one subset solve: a 128-bit FNV-1a digest of the
/// subset (plus the fixed-variable overlay for covering sub-instances).
///
/// A lookup costs one fold over the ascending members and no allocation,
/// and the digest is stable across runs and platforms (persisted
/// warm-start formats rely on it). At 128 bits, a collision within one
/// `(instance, budget)` family is out of reach for any realisable
/// workload.
pub type SubsetKey = u128;

/// Folds a strictly ascending member list (and optional fixed-ones
/// overlay, read at the members) into its [`SubsetKey`]: the members in
/// order, then — with an overlay — a `u32::MAX` separator and the fixed
/// members in order. The separator distinguishes "no overlay" from "empty
/// overlay", mirroring the restriction functions' semantics.
fn member_key(members: &[Vertex], fixed_ones: Option<&[bool]>) -> SubsetKey {
    debug_assert!(
        members.windows(2).all(|w| w[0] < w[1]),
        "members must be strictly ascending"
    );
    let mut h = FNV128_OFFSET;
    for &v in members {
        h = fnv1a_128_u32(h, v);
    }
    if let Some(f) = fixed_ones {
        h = fnv1a_128_u32(h, u32::MAX); // separator
        for &v in members {
            if f[v as usize] {
                h = fnv1a_128_u32(h, v);
            }
        }
    }
    h
}

/// Number of independently locked shards of a [`SharedSubsetCache`].
/// Subset keys spread uniformly (they are FNV digests), so with 16
/// stripes the per-lookup lock is contended only 1/16th as often as the
/// former single global mutex when many workers share one family.
const STRIPE_COUNT: usize = 16;

/// A shareable memo of exact subset solves for one `(instance, budget)`
/// family.
///
/// Every entry is a deterministic function of the subset key alone (the
/// exact solvers draw no randomness), so sharing a cache across runs,
/// seeds, `ε` values and threads never changes any solver's output — it
/// only skips recomputation. This is the hook `dapc-runtime` uses to hoist
/// the [`SubsetSolver`] memoisation from per-run to per-instance-family,
/// and the hook [`prepare`] uses to shard one large instance's subset
/// solves across workers.
///
/// Internally the map is split into [`STRIPE_COUNT`] independently locked
/// stripes selected by key bits, and each stripe can enforce a byte
/// budget with least-recently-used eviction (see
/// [`SharedSubsetCache::with_capacity`]). Eviction is *transparent*: a
/// victim is simply recomputed on its next lookup, so no capacity choice
/// can change a [`crate::engine::SolveReport`].
///
/// Cloning is shallow: clones address the same underlying map and
/// counters. Equality is identity (two handles are equal iff they share
/// storage), which keeps `SolveConfig: PartialEq` meaningful.
#[derive(Clone, Default)]
pub struct SharedSubsetCache {
    inner: Arc<CacheInner>,
}

struct CacheInner {
    stripes: Vec<Mutex<Stripe>>,
    /// Total byte budget across all stripes (`None` = unbounded).
    capacity: Option<usize>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl Default for CacheInner {
    fn default() -> Self {
        CacheInner {
            stripes: (0..STRIPE_COUNT).map(|_| Mutex::default()).collect(),
            capacity: None,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }
}

#[derive(Default)]
struct Stripe {
    #[expect(
        clippy::disallowed_types,
        reason = "hot digest-keyed lookups; the save path iterates the BTreeMap recency index, never this map"
    )]
    map: HashMap<SubsetKey, Slot>,
    /// Recency index: `last_used tick → key`. Ticks are unique within a
    /// stripe, so the first entry is always the LRU victim — eviction is
    /// `O(log n)` instead of a full scan under the stripe lock.
    order: BTreeMap<u64, SubsetKey>,
    /// Approximate bytes held by this stripe's entries.
    bytes: usize,
    /// Monotone use counter driving the LRU order.
    tick: u64,
}

struct Slot {
    entry: SubsetEntry,
    last_used: u64,
}

/// Approximate heap footprint of one memoised entry: the packed
/// assignment plus fixed map/key overhead.
fn entry_bytes(entry: &SubsetEntry) -> usize {
    entry.bits.len() + std::mem::size_of::<SubsetKey>() + std::mem::size_of::<Slot>()
}

impl SharedSubsetCache {
    /// Creates an unbounded cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a cache that holds at most ~`capacity` bytes of memoised
    /// entries, evicting least-recently-used entries when a stripe
    /// overflows its share. Eviction never changes any solver output —
    /// an evicted subset solve is recomputed on its next lookup.
    pub fn with_capacity(capacity: usize) -> Self {
        SharedSubsetCache {
            inner: Arc::new(CacheInner {
                capacity: Some(capacity),
                ..CacheInner::default()
            }),
        }
    }

    /// The configured byte budget (`None` = unbounded).
    pub fn capacity(&self) -> Option<usize> {
        self.inner.capacity
    }

    /// Lookups answered from the shared map (across all attached solvers).
    pub fn hits(&self) -> u64 {
        // ordering: Relaxed — monotonic telemetry counter; nothing synchronises on it
        self.inner.hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to run the exact solver.
    pub fn misses(&self) -> u64 {
        // ordering: Relaxed — monotonic telemetry counter; nothing synchronises on it
        self.inner.misses.load(Ordering::Relaxed)
    }

    /// Entries dropped by the LRU policy since creation.
    pub fn evictions(&self) -> u64 {
        // ordering: Relaxed — monotonic telemetry counter; nothing synchronises on it
        self.inner.evictions.load(Ordering::Relaxed)
    }

    /// Number of memoised subset solves.
    pub fn len(&self) -> usize {
        self.inner
            .stripes
            .iter()
            .map(|s| s.lock().expect("cache stripe lock").map.len())
            .sum()
    }

    /// Approximate bytes held across all stripes.
    pub fn bytes(&self) -> usize {
        self.inner
            .stripes
            .iter()
            .map(|s| s.lock().expect("cache stripe lock").bytes)
            .sum()
    }

    /// Whether no subset solve has been memoised yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn stripe(&self, key: SubsetKey) -> &Mutex<Stripe> {
        &self.inner.stripes[(key as usize) & (STRIPE_COUNT - 1)]
    }

    fn get(&self, key: SubsetKey) -> Option<SubsetEntry> {
        let hit = self.get_uncounted(key);
        match hit {
            Some(_) => self.record_hit(),
            None => self.record_miss(),
        }
        hit
    }

    /// [`SharedSubsetCache::get`] without touching the hit/miss counters
    /// (recency is still updated). The sharded annotation workers probe
    /// with this so the hit rate keeps measuring genuine cross-run reuse,
    /// not the sharding handshake; the owning solve records one counted
    /// event per distinct solve afterwards, matching what a sequential
    /// run would have recorded.
    fn get_uncounted(&self, key: SubsetKey) -> Option<SubsetEntry> {
        let mut stripe = self.stripe(key).lock().expect("cache stripe lock");
        stripe.tick += 1;
        let tick = stripe.tick;
        let Stripe { map, order, .. } = &mut *stripe;
        map.get_mut(&key).map(|slot| {
            // One lookup does it all: bump recency and clone the entry.
            order.remove(&slot.last_used);
            slot.last_used = tick;
            order.insert(tick, key);
            slot.entry.clone()
        })
    }

    /// Counts one lookup answered from the cache.
    fn record_hit(&self) {
        // ordering: Relaxed — monotonic telemetry counter; nothing synchronises on it
        self.inner.hits.fetch_add(1, Ordering::Relaxed);
        if dapc_obs::enabled() {
            metrics::hits().inc();
        }
    }

    /// Counts one lookup that had to run the exact solver.
    fn record_miss(&self) {
        // ordering: Relaxed — monotonic telemetry counter; nothing synchronises on it
        self.inner.misses.fetch_add(1, Ordering::Relaxed);
        if dapc_obs::enabled() {
            metrics::misses().inc();
        }
    }

    fn insert(&self, key: SubsetKey, entry: SubsetEntry) {
        let budget = self.inner.capacity.map(|c| c / STRIPE_COUNT);
        let mut evicted = 0u64;
        let mut freed = 0usize;
        let added;
        {
            let mut stripe = self.stripe(key).lock().expect("cache stripe lock");
            stripe.tick += 1;
            let tick = stripe.tick;
            added = entry_bytes(&entry);
            if let Some(old) = stripe.map.insert(
                key,
                Slot {
                    entry,
                    last_used: tick,
                },
            ) {
                let old_bytes = entry_bytes(&old.entry);
                stripe.bytes -= old_bytes;
                freed += old_bytes;
                stripe.order.remove(&old.last_used);
            }
            stripe.order.insert(tick, key);
            stripe.bytes += added;
            // Size-aware LRU: shed the coldest entries until back under
            // the stripe's share, always keeping the entry just inserted
            // (it holds the newest tick, so it is last in the index).
            if let Some(budget) = budget {
                while stripe.bytes > budget && stripe.map.len() > 1 {
                    let (_, victim) = stripe
                        .order
                        .pop_first()
                        .expect("non-empty map has a recency index");
                    let old = stripe.map.remove(&victim).expect("victim present");
                    let old_bytes = entry_bytes(&old.entry);
                    stripe.bytes -= old_bytes;
                    freed += old_bytes;
                    evicted += 1;
                }
            }
        }
        if evicted > 0 {
            // ordering: Relaxed — monotonic telemetry counter; nothing synchronises on it
            self.inner.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
        if dapc_obs::enabled() {
            metrics::bytes().add(added as u64);
            metrics::bytes().sub(freed as u64);
            if evicted > 0 {
                metrics::evictions().add(evicted);
            }
        }
    }

    /// Writes a snapshot of every memoised entry to `w` in the versioned
    /// binary warm-start format (see [`SNAPSHOT_MAGIC`]): entries sorted
    /// by [`SubsetKey`], each as `key · value · exact · member count ·
    /// member-local assignment` with the assignment bit-packed, then a
    /// seal over every byte. The keys are stable 128-bit FNV-1a digests,
    /// so a snapshot is valid across runs and platforms for the same
    /// `(instance, budget)` family.
    ///
    /// Counters and capacity are *not* persisted — they describe a run,
    /// not the memo.
    pub fn save_to<W: Write>(&self, mut w: W) -> io::Result<()> {
        let mut entries: Vec<(SubsetKey, SubsetEntry)> = Vec::with_capacity(self.len());
        for stripe in &self.inner.stripes {
            let stripe = stripe.lock().expect("cache stripe lock");
            entries.extend(stripe.map.iter().map(|(k, s)| (*k, s.entry.clone())));
        }
        // Canonical byte stream: identical caches serialise identically
        // regardless of insertion order or stripe iteration order.
        entries.sort_unstable_by_key(|(k, _)| *k);
        let mut buf = Vec::new();
        buf.extend_from_slice(SNAPSHOT_MAGIC);
        buf.extend_from_slice(&(entries.len() as u64).to_le_bytes());
        for (key, entry) in &entries {
            buf.extend_from_slice(&key.to_le_bytes());
            buf.extend_from_slice(&entry.value.to_le_bytes());
            buf.push(u8::from(entry.exact));
            buf.extend_from_slice(&(entry.len as u64).to_le_bytes());
            buf.extend_from_slice(&entry.bits);
        }
        seal(&mut buf);
        w.write_all(&buf)
    }

    /// Merges a warm-start snapshot written by
    /// [`SharedSubsetCache::save_to`] into this cache, returning the
    /// number of entries read. Loading only seeds the memo: it touches no
    /// hit/miss counter, and a capacity-bounded cache applies its normal
    /// transparent LRU policy to the loaded entries — so a warm start can
    /// change counters and work done, but never a solver report.
    ///
    /// Loading is **all-or-nothing**: the stream is fully parsed and its
    /// seal checked before the first entry is inserted, so a snapshot
    /// that turns out to be truncated or corrupt partway through leaves
    /// the cache exactly as it was — an `Err` never half-loads.
    ///
    /// # Errors
    ///
    /// Fails with [`io::ErrorKind::InvalidData`] on a bad magic, an
    /// unsupported format version (version 1 snapshots held `n`-length
    /// assignments and are not read), a corrupt field or a seal mismatch,
    /// and with [`io::ErrorKind::UnexpectedEof`] on a stream truncated at
    /// any field boundary, besides propagating reader errors.
    pub fn load_into<R: Read>(&self, r: R) -> io::Result<usize> {
        let mut r = SealingReader::new(r);
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)?;
        if magic[..7] != SNAPSHOT_MAGIC[..7] {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "not a dapc subset-cache snapshot (bad magic)",
            ));
        }
        if magic[7] != SNAPSHOT_MAGIC[7] {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "unsupported subset-cache snapshot version {} (expected {})",
                    magic[7], SNAPSHOT_MAGIC[7]
                ),
            ));
        }
        let count = read_u64(&mut r)? as usize;
        // Parse everything before touching the cache, so a stream that
        // dies at entry k of n cannot leave entries 0..k silently loaded
        // behind the returned error.
        let mut entries: Vec<(SubsetKey, SubsetEntry)> = Vec::new();
        for _ in 0..count {
            let mut key = [0u8; 16];
            r.read_exact(&mut key)?;
            let key = SubsetKey::from_le_bytes(key);
            let value = read_u64(&mut r)?;
            let mut exact = [0u8; 1];
            r.read_exact(&mut exact)?;
            let exact = match exact[0] {
                0 => false,
                1 => true,
                b => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("bad exactness flag {b}"),
                    ))
                }
            };
            let len = read_u64(&mut r)? as usize;
            // Never trust a length field with an up-front allocation: a
            // corrupt header would otherwise drive a huge `Vec` request
            // (aborting the process) before the read could fail. Reading
            // to-end under `take` grows with the bytes actually present,
            // so truncation surfaces as the documented error instead.
            let byte_len = len.div_ceil(8) as u64;
            let mut packed = Vec::new();
            r.by_ref().take(byte_len).read_to_end(&mut packed)?;
            if packed.len() as u64 != byte_len {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    format!("truncated assignment: {} of {byte_len} bytes", packed.len()),
                ));
            }
            if !len.is_multiple_of(8) && packed.last().is_some_and(|&b| b >> (len % 8) != 0) {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "nonzero padding bits in an assignment",
                ));
            }
            let entry = SubsetEntry {
                value,
                exact,
                len,
                bits: packed.into_boxed_slice(),
            };
            entries.push((key, entry));
        }
        r.verify_seal("subset-cache")?;
        for (key, entry) in entries {
            self.insert(key, entry);
        }
        Ok(count)
    }

    /// Reads a snapshot written by [`SharedSubsetCache::save_to`] into a
    /// fresh unbounded cache.
    ///
    /// # Errors
    ///
    /// See [`SharedSubsetCache::load_into`].
    pub fn load_from<R: Read>(r: R) -> io::Result<Self> {
        let cache = SharedSubsetCache::new();
        cache.load_into(r)?;
        Ok(cache)
    }
}

/// Magic + version prefix of the persisted warm-start format: seven
/// identifying bytes and a format version byte. The version 2 body is
/// `entry count: u64` followed by sorted entries of
/// `key: u128 · value: u64 · exact: u8 · member count: u64 · packed
/// member-local assignment (LSB-first, zero padding)`, all integers
/// little-endian, and a 16-byte FNV-1a-128 seal over every preceding
/// byte.
pub const SNAPSHOT_MAGIC: &[u8; 8] = crate::snapmagic::SUBSET_CACHE.bytes;

fn read_u64<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    Ok(u64::from_le_bytes(buf))
}

impl PartialEq for SharedSubsetCache {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }
}

impl std::fmt::Debug for SharedSubsetCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedSubsetCache")
            .field("entries", &self.len())
            .field("bytes", &self.bytes())
            .field("capacity", &self.capacity())
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .field("evictions", &self.evictions())
            .finish()
    }
}

/// One sampling cluster from the preparation step.
#[derive(Clone, Debug)]
pub struct PrepCluster {
    /// Members (sorted).
    pub members: Vec<Vertex>,
    /// `W(OPT^local_C, C)`.
    pub w_local: u64,
    /// `W(OPT^local_{S_C}, S_C)` with `S_C = N^{8tR}(C)`.
    pub w_neighborhood: u64,
}

/// The full preparation output.
#[derive(Clone, Debug)]
pub struct Preparation {
    /// All clusters across the independent runs.
    pub clusters: Vec<PrepCluster>,
    /// Whether every local solve proved optimality.
    pub all_exact: bool,
}

/// A memoising exact solver over vertex subsets of one instance — many
/// clusters share their `S_C` (often the whole component), so the paper's
/// "free local computation" stays affordable in simulation.
pub struct SubsetSolver<'a> {
    ilp: &'a IlpInstance,
    budget: SolverBudget,
    #[expect(
        clippy::disallowed_types,
        reason = "hot digest-keyed memo, lookup-only — never iterated"
    )]
    cache: HashMap<SubsetKey, SubsetEntry>,
    shared: Option<SharedSubsetCache>,
    /// Whether every solve so far was exact.
    pub all_exact: bool,
}

impl<'a> SubsetSolver<'a> {
    /// Creates a solver for `ilp` with the given budget.
    pub fn new(ilp: &'a IlpInstance, budget: SolverBudget) -> Self {
        SubsetSolver {
            ilp,
            budget,
            #[expect(clippy::disallowed_types, reason = "lookup-only memo (see field)")]
            cache: HashMap::new(),
            shared: None,
            all_exact: true,
        }
    }

    /// Like [`SubsetSolver::new`], but consulting `shared` behind the
    /// per-run memo. The shared cache must belong to the same
    /// `(instance, budget)` family; results are identical with or without
    /// it (subset solves are deterministic), only the work is shared.
    pub fn with_shared(
        ilp: &'a IlpInstance,
        budget: SolverBudget,
        shared: SharedSubsetCache,
    ) -> Self {
        SubsetSolver {
            shared: Some(shared),
            ..SubsetSolver::new(ilp, budget)
        }
    }

    /// Seeds the per-run memo with an already-computed entry (the sharded
    /// annotation pass hands worker results over with this), feeding
    /// `all_exact` exactly as a first compute would.
    fn preload(&mut self, key: SubsetKey, entry: SubsetEntry) {
        if !entry.exact {
            self.all_exact = false;
        }
        self.cache.insert(key, entry);
    }

    /// Value of a solve [`SubsetSolver::preload`]ed earlier — the sharded
    /// re-emit path reads cluster weights with this instead of rebuilding
    /// balls and keys.
    ///
    /// # Panics
    ///
    /// Panics if `key` was never preloaded or solved in this run.
    fn preloaded_value(&self, key: SubsetKey) -> u64 {
        self.cache
            .get(&key)
            .expect("sharded annotation preloaded every cluster key")
            .value
    }

    /// The optimal local solution on the subset `members` (strictly
    /// ascending). For packing this is `P^local` (all constraints, zeros
    /// outside); for covering `Q^local` (inside constraints only),
    /// honouring `fixed_ones` at zero cost. The entry's assignment is over
    /// `members`; lift it with [`SubsetEntry::ones`].
    pub fn solve(&mut self, members: &[Vertex], fixed_ones: Option<&[bool]>) -> &SubsetEntry {
        self.solve_keyed(member_key(members, fixed_ones), members, fixed_ones)
    }

    /// [`SubsetSolver::solve`] with the key already folded — the
    /// preparation's whole-component `S_C` reuses its component's key.
    fn solve_keyed(
        &mut self,
        key: SubsetKey,
        members: &[Vertex],
        fixed_ones: Option<&[bool]>,
    ) -> &SubsetEntry {
        let SubsetSolver {
            ilp,
            budget,
            cache,
            shared,
            all_exact,
        } = self;
        match cache.entry(key) {
            Entry::Occupied(hit) => hit.into_mut(),
            Entry::Vacant(slot) => {
                // Per-run miss: try the cross-run family cache before
                // solving. Shared hits must still feed `all_exact` — the
                // inexact miss that populated the entry may have happened
                // in a different run.
                let entry = match shared.as_ref().and_then(|s| s.get(key)) {
                    Some(hit) => hit,
                    None => {
                        let out = solve_subset(ilp, budget, members, fixed_ones);
                        if let Some(shared) = shared {
                            shared.insert(key, out.clone());
                        }
                        out
                    }
                };
                if !entry.exact {
                    *all_exact = false;
                }
                slot.insert(entry)
            }
        }
    }
}

/// The memo-free core of one exact subset solve: restrict through the
/// members' incidences, dispatch to the exact solvers, pack the answer
/// over the members. A pure function of its arguments (the exact solvers
/// draw no randomness) — both the memoising [`SubsetSolver::solve`] and
/// the sharded annotation workers bottom out here.
fn solve_subset(
    ilp: &IlpInstance,
    budget: &SolverBudget,
    members: &[Vertex],
    fixed_ones: Option<&[bool]>,
) -> SubsetEntry {
    // Every memoising caller bottoms out here, so this one span covers
    // exact subset solves wherever they run. On a sharded annotation
    // worker the thread's span stack is empty and the cost records as a
    // root `span.subset_solve`; sequentially it nests under the solve.
    let _span = dapc_obs::span("subset_solve");
    let sub = match ilp.sense() {
        Sense::Packing => packing_restriction(ilp, members),
        Sense::Covering => covering_restriction_with_fixed(ilp, members, fixed_ones),
    };
    let sol = solvers::solve(&sub, budget);
    SubsetEntry::from_local(sol.value, sol.exact, members, &sub.vars, &sol.assignment)
}

/// Up to this many farthest-first pivots per component back the
/// whole-component certificate.
const PIVOTS: usize = 4;

/// The whole-component certificate for `S_C = N^r(C)` (see the module
/// docs): built once per [`prepare`] call from the primal graph, it
/// answers "is `N^r(C)` all of C's component?" in `O(|C|)` and hands back
/// that component's ascending members and precomputed key.
struct ComponentCertificate {
    radius: usize,
    /// Component id per vertex.
    comp: Vec<u32>,
    /// Vertices grouped by component, ascending within each; component
    /// `k` is `order[start[k]..start[k + 1]]`.
    order: Vec<Vertex>,
    start: Vec<usize>,
    /// [`SubsetKey`] of each component's member list.
    keys: Vec<SubsetKey>,
    /// Per vertex: distance from each pivot of its component.
    dist: Vec<[u32; PIVOTS]>,
    /// Per component: each pivot's eccentricity (`u32::MAX` = no pivot;
    /// components with at most `radius + 1` vertices need none).
    ecc: Vec<[u32; PIVOTS]>,
}

impl ComponentCertificate {
    fn new(primal: &Graph, radius: usize) -> Self {
        let n = primal.n();
        let (comp, k) = primal.connected_components();
        let mut start = vec![0usize; k + 1];
        for &c in &comp {
            start[c as usize + 1] += 1;
        }
        for c in 0..k {
            start[c + 1] += start[c];
        }
        // Counting sort over ascending vertex ids keeps each component's
        // slice ascending.
        let mut order = vec![0 as Vertex; n];
        let mut fill = start.clone();
        for (v, &c) in comp.iter().enumerate() {
            order[fill[c as usize]] = v as Vertex;
            fill[c as usize] += 1;
        }
        let keys = (0..k)
            .map(|c| member_key(&order[start[c]..start[c + 1]], None))
            .collect();
        let mut dist = vec![[u32::MAX; PIVOTS]; n];
        let mut ecc = vec![[u32::MAX; PIVOTS]; k];
        let mut queue: Vec<Vertex> = Vec::new();
        for c in 0..k {
            let members = &order[start[c]..start[c + 1]];
            if members.len() - 1 <= radius {
                continue;
            }
            // Farthest-first: the first pivot is the smallest member, each
            // next one the member farthest from all pivots so far.
            let mut pivot = members[0];
            for p in 0..PIVOTS {
                if p > 0 {
                    pivot = *members
                        .iter()
                        .max_by_key(|&&v| dist[v as usize][..p].iter().min().copied())
                        .expect("component is non-empty");
                }
                ecc[c][p] = bfs_slot(primal, pivot, p, &mut dist, &mut queue);
            }
        }
        ComponentCertificate {
            radius,
            comp,
            order,
            start,
            keys,
            dist,
            ecc,
        }
    }

    /// The component `N^radius(members)` equals, when the certificate
    /// proves it.
    fn whole_component(&self, members: &[Vertex]) -> Option<usize> {
        let c = self.comp[*members.first()? as usize];
        if members.iter().any(|&v| self.comp[v as usize] != c) {
            return None;
        }
        let c = c as usize;
        if self.start[c + 1] - self.start[c] - 1 <= self.radius {
            return Some(c);
        }
        let certified = (0..PIVOTS).any(|p| {
            let ecc = self.ecc[c][p] as usize;
            members
                .iter()
                .any(|&v| ecc + self.dist[v as usize][p] as usize <= self.radius)
        });
        certified.then_some(c)
    }

    /// `S_C = N^radius(members)` as its key and ascending member list:
    /// the certified whole component, or a BFS ball sorted into `buf`.
    fn sc_ball<'s>(
        &'s self,
        h: &Hypergraph,
        members: &[Vertex],
        scratch: &mut BallScratch,
        buf: &'s mut Vec<Vertex>,
    ) -> (SubsetKey, &'s [Vertex]) {
        if let Some(c) = self.whole_component(members) {
            if dapc_obs::enabled() {
                metrics::sc_certified().inc();
            }
            return (self.keys[c], &self.order[self.start[c]..self.start[c + 1]]);
        }
        if dapc_obs::enabled() {
            metrics::sc_bfs().inc();
        }
        let ball = h.ball_with_scratch(members, self.radius, None, None, scratch);
        collect_sorted(buf, ball.iter());
        (member_key(buf, None), buf)
    }
}

/// Refills `buf` with `vertices` in ascending order — the member-list
/// form every subset solve takes.
pub(crate) fn collect_sorted(buf: &mut Vec<Vertex>, vertices: impl Iterator<Item = Vertex>) {
    buf.clear();
    buf.extend(vertices);
    buf.sort_unstable();
}

/// BFS from `source` over its component, writing distances into slot
/// `slot` of `dist`; returns the source's eccentricity.
fn bfs_slot(
    g: &Graph,
    source: Vertex,
    slot: usize,
    dist: &mut [[u32; PIVOTS]],
    queue: &mut Vec<Vertex>,
) -> u32 {
    queue.clear();
    queue.push(source);
    dist[source as usize][slot] = 0;
    let mut head = 0;
    let mut ecc = 0;
    while let Some(&u) = queue.get(head) {
        head += 1;
        let du = dist[u as usize][slot];
        ecc = du;
        for &w in g.neighbors(u) {
            if dist[w as usize][slot] == u32::MAX {
                dist[w as usize][slot] = du + 1;
                queue.push(w);
            }
        }
    }
    ecc
}

/// Runs the preparation step: `prep_count` independent decompositions
/// (Elkin–Neiman at `prep_lambda` for packing; sparse cover at
/// `prep_lambda` for covering), annotating every cluster with its sampling
/// weights.
///
/// The step runs in two passes. Pass 1 consumes the RNG: it runs the
/// decompositions sequentially and records the non-empty clusters in
/// canonical order (run by run, cluster by cluster) together with their
/// `S_C = N^{8tR}(C)` balls. Pass 2 is RNG-free: it annotates every
/// cluster with its two exact subset solves. With
/// `params.prep_workers > 1` the *distinct* subset solves of pass 2 —
/// exactly the set the sequential memo would compute — are fanned out
/// over the ambient `dapc_exec` pool (at most `prep_workers` at a time)
/// through the solver's family cache, then the clusters are re-emitted
/// in canonical order from cache hits. Either
/// way the output is byte-identical: solves are deterministic functions
/// of their key, and the worker count changes only wall-clock time.
///
/// `primal` must be the primal graph of `h`: the whole-component
/// certificate for the `S_C` balls is read from it.
pub fn prepare(
    ilp: &IlpInstance,
    h: &Hypergraph,
    primal: &dapc_graph::Graph,
    params: &PcParams,
    rng: &mut StdRng,
    solver: &mut SubsetSolver<'_>,
) -> Preparation {
    // Pass 1 (sequential, RNG-driven): decompositions → canonical
    // (cluster, S_C) work items.
    let decompose_span = dapc_obs::span("decompose");
    let mut members_list: Vec<Vec<Vertex>> = Vec::new();
    for _run in 0..params.prep_count {
        let run_clusters: Vec<Vec<Vertex>> = match ilp.sense() {
            Sense::Packing => {
                let en = dapc_decomp::elkin_neiman::elkin_neiman(
                    primal,
                    &dapc_decomp::elkin_neiman::EnParams::new(params.prep_lambda, params.n_tilde),
                    rng,
                    None,
                );
                en.clusters
            }
            Sense::Covering => {
                let cover = dapc_decomp::sparse_cover::sparse_cover(
                    h,
                    params.prep_lambda,
                    params.n_tilde,
                    rng,
                    None,
                    None,
                );
                cover.clusters
            }
        };
        members_list.extend(run_clusters.into_iter().filter(|m| !m.is_empty()));
    }

    drop(decompose_span);

    // Pass 2 (deterministic): annotate. Sharded, the fan-out seeds the
    // solver's memo and hands back each cluster's two subset keys, so the
    // canonical re-emit is pure memo reads — no ball is recomputed.
    // Sequential, the annotation streams: each `S_C` is certified or
    // grown, solved and dropped, so peak memory stays one ball.
    let _annotate_span = dapc_obs::span("annotate");
    debug_assert_eq!(primal.n(), h.n(), "primal must be h's primal graph");
    let cert = ComponentCertificate::new(primal, params.sc_radius);
    let mut clusters: Vec<PrepCluster> = Vec::with_capacity(members_list.len());
    if params.prep_workers > 1 {
        let cluster_keys = shard_subset_solves(ilp, h, &cert, params, solver, &members_list);
        for (members, (local_key, sc_key)) in members_list.into_iter().zip(cluster_keys) {
            clusters.push(PrepCluster {
                members,
                w_local: solver.preloaded_value(local_key),
                w_neighborhood: solver.preloaded_value(sc_key),
            });
        }
    } else {
        let mut scratch = BallScratch::new();
        let mut ball = Vec::new();
        for members in members_list {
            let w_local = solver.solve(&members, None).value;
            let (sc_key, sc) = cert.sc_ball(h, &members, &mut scratch, &mut ball);
            let w_neighborhood = solver.solve_keyed(sc_key, sc, None).value;
            clusters.push(PrepCluster {
                members,
                w_local,
                w_neighborhood,
            });
        }
    }
    Preparation {
        clusters,
        all_exact: solver.all_exact,
    }
}

/// Fans the distinct subset solves of the annotation pass out over the
/// process-wide executor, seeds the solver's per-run memo with the results
/// (exactness flags feeding `all_exact` exactly as a sequential first
/// compute would), and returns each cluster's `(local, S_C)` key pair so
/// the caller's canonical re-emit is pure memo reads — no ball or key is
/// recomputed.
///
/// Work items are deduplicated by [`SubsetKey`] first, so the sharded
/// pass performs exactly the set of exact solves the sequential memo
/// would — parallelism changes wall-clock time, never the work done. The
/// worklist stores ascending member lists, so fan-out memory is
/// proportional to the distinct subsets themselves. Solves run under the
/// solver's own budget — the one every sequential lookup would use.
///
/// If a family cache is attached, workers probe it *uncounted* for warm
/// entries and the hand-over loop records exactly one hit or miss per
/// distinct solve (and deposits computed entries). For an unbounded cache
/// this is the same counter trace a sequential run leaves, so hit rates
/// keep measuring genuine cross-run reuse rather than the sharding
/// handshake; a capacity-bounded cache under eviction churn can drift by
/// a few hits/misses (worker probes all precede the deposits), which
/// affects telemetry only, never a report. Without a family cache nothing
/// extra is allocated or retained.
fn shard_subset_solves(
    ilp: &IlpInstance,
    h: &Hypergraph,
    cert: &ComponentCertificate,
    params: &PcParams,
    solver: &mut SubsetSolver<'_>,
    members_list: &[Vec<Vertex>],
) -> Vec<(SubsetKey, SubsetKey)> {
    #[expect(
        clippy::disallowed_types,
        reason = "membership-test dedup only; the output order follows the deterministic worklist, not the set"
    )]
    let mut seen: HashSet<SubsetKey> = HashSet::new();
    let mut worklist: Vec<(SubsetKey, Vec<Vertex>)> = Vec::new();
    let mut cluster_keys: Vec<(SubsetKey, SubsetKey)> = Vec::with_capacity(members_list.len());
    let mut scratch = BallScratch::new();
    let mut ball = Vec::new();
    for members in members_list {
        let local_key = member_key(members, None);
        if seen.insert(local_key) {
            worklist.push((local_key, members.clone()));
        }
        let (sc_key, sc) = cert.sc_ball(h, members, &mut scratch, &mut ball);
        if seen.insert(sc_key) {
            worklist.push((sc_key, sc.to_vec()));
        }
        cluster_keys.push((local_key, sc_key));
    }
    // Tasks want 'static data; one shallow instance clone per *prepare
    // call* (not per lookup) buys it. The fan-out runs `pumps` tasks on
    // the ambient `dapc_exec` pool — the pool the enclosing batch job
    // already runs on, or the process-wide one — each draining the next
    // unclaimed work item, so concurrency is capped at `prep_workers`
    // with dynamic load balancing and no child pool is ever spawned.
    let owned: Arc<IlpInstance> = Arc::new(ilp.clone());
    let budget = solver.budget;
    let shared = solver.shared.clone();
    let worklist = Arc::new(worklist);
    let slots: Arc<Mutex<Vec<ShardSlot>>> =
        Arc::new(Mutex::new((0..worklist.len()).map(|_| None).collect()));
    let next = Arc::new(AtomicUsize::new(0));
    let pumps = params.prep_workers.min(worklist.len()).max(1);
    dapc_exec::scope(|s| {
        for _ in 0..pumps {
            let owned = Arc::clone(&owned);
            let shared = shared.clone();
            let worklist = Arc::clone(&worklist);
            let slots = Arc::clone(&slots);
            let next = Arc::clone(&next);
            s.spawn(move || loop {
                // ordering: Relaxed — fetch_add only claims unique worklist indices; no data rides on it
                let index = next.fetch_add(1, Ordering::Relaxed);
                let Some((key, members)) = worklist.get(index) else {
                    break;
                };
                let result = match shared.as_ref().and_then(|c| c.get_uncounted(*key)) {
                    Some(entry) => (entry, true),
                    None => (solve_subset(&owned, &budget, members, None), false),
                };
                slots.lock().expect("prep result slots")[index] = Some(result);
            });
        }
    });
    let worklist = Arc::try_unwrap(worklist)
        .expect("scope joined, no pump holds the worklist")
        .into_iter()
        .map(|(k, _)| k);
    let slots = Arc::try_unwrap(slots)
        .expect("scope joined, no pump holds the slots")
        .into_inner()
        .expect("prep result slots");
    for (key, slot) in worklist.zip(slots) {
        let (entry, was_warm) = slot.expect("every work item filled its slot");
        if let Some(shared) = &solver.shared {
            if was_warm {
                shared.record_hit();
            } else {
                shared.record_miss();
                shared.insert(key, entry.clone());
            }
        }
        solver.preload(key, entry);
    }
    cluster_keys
}

#[cfg(test)]
mod tests {
    use super::*;
    use dapc_graph::gen;
    use dapc_ilp::problems;

    /// `0..n` as a member list.
    fn prefix(n: usize) -> Vec<Vertex> {
        (0..n as Vertex).collect()
    }

    /// The mask fold the member key replaced, kept as its oracle: one
    /// pass over the whole `n`-length mask.
    fn subset_key_oracle(mask: &[bool], fixed_ones: Option<&[bool]>) -> SubsetKey {
        let mut h = FNV128_OFFSET;
        for (v, &m) in mask.iter().enumerate() {
            if m {
                h = fnv1a_128_u32(h, v as u32);
            }
        }
        if let Some(f) = fixed_ones {
            h = fnv1a_128_u32(h, u32::MAX); // separator
            for (v, (&fv, &m)) in f.iter().zip(mask.iter()).enumerate() {
                if fv && m {
                    h = fnv1a_128_u32(h, v as u32);
                }
            }
        }
        h
    }

    proptest::proptest! {
        /// The member key is the mask key, so digests and persisted keys
        /// do not move: with no overlay, an empty overlay and a random
        /// one, on random subsets (empty ones included).
        #[test]
        fn member_key_equals_mask_key(
            bits in proptest::collection::vec(0u8..2, 0..40),
            fixed_seed in 0u64..1000,
        ) {
            use rand::RngExt;
            let mask: Vec<bool> = bits.iter().map(|&b| b == 1).collect();
            let n = mask.len();
            let members: Vec<Vertex> = (0..n as Vertex).filter(|&v| mask[v as usize]).collect();
            let mut rng = gen::seeded_rng(fixed_seed);
            let fixed: Vec<bool> = (0..n).map(|_| rng.random::<f64>() < 0.4).collect();
            let empty = vec![false; n];
            proptest::prop_assert_eq!(member_key(&members, None), subset_key_oracle(&mask, None));
            proptest::prop_assert_eq!(
                member_key(&members, Some(&empty)),
                subset_key_oracle(&mask, Some(&empty))
            );
            proptest::prop_assert_eq!(
                member_key(&members, Some(&fixed)),
                subset_key_oracle(&mask, Some(&fixed))
            );
        }
    }

    /// Whenever the certificate fires, its component is exactly the BFS
    /// ball `N^r(C)`, and `sc_ball` always returns the sorted BFS ball and
    /// its key — on cycles, paths, grids, trees, sparse G(n, p) with
    /// isolated vertices and a dominating-set hypergraph, at radii below,
    /// around and above the diameters, for every singleton cluster and
    /// for random ones.
    #[test]
    fn certificate_matches_the_bfs_ball() {
        use rand::RngExt;
        let mut rng = gen::seeded_rng(17);
        let graphs = [
            gen::cycle(40),
            gen::cycle(9),
            gen::path(31),
            gen::path(12),
            gen::grid(7, 9),
            gen::random_tree(45, &mut rng),
            gen::complete_tree(3, 3),
            gen::gnp(60, 0.03, &mut rng),
            gen::gnp(50, 0.06, &mut rng),
        ];
        let mut instances: Vec<IlpInstance> = graphs
            .iter()
            .map(problems::max_independent_set_unweighted)
            .collect();
        instances.push(problems::min_dominating_set_unweighted(&gen::gnp(
            40, 0.05, &mut rng,
        )));
        let (mut fired, mut fell_back) = (0usize, 0usize);
        let mut scratch = BallScratch::new();
        let mut buf = Vec::new();
        for ilp in &instances {
            let h = ilp.hypergraph();
            let primal = h.primal_graph();
            let n = h.n();
            for radius in [0usize, 1, 3, 6, 10, 15, 22, 40, 80] {
                let cert = ComponentCertificate::new(&primal, radius);
                for trial in 0..n + 30 {
                    // Every singleton, then small clusters around one
                    // vertex (one component) and random sparse subsets
                    // (often several components).
                    let cluster: Vec<Vertex> = if trial < n {
                        vec![trial as Vertex]
                    } else if trial % 2 == 0 {
                        let centre = rng.random_range(0..n) as Vertex;
                        let ball = h.ball(&[centre], trial % 3, None, None);
                        let mut c: Vec<Vertex> = ball.iter().collect();
                        c.sort_unstable();
                        c
                    } else {
                        (0..n as Vertex)
                            .filter(|_| rng.random::<f64>() < 0.05)
                            .collect()
                    };
                    if cluster.is_empty() {
                        continue;
                    }
                    let mut expect: Vec<Vertex> =
                        h.ball(&cluster, radius, None, None).iter().collect();
                    expect.sort_unstable();
                    match cert.whole_component(&cluster) {
                        Some(c) => {
                            fired += 1;
                            assert_eq!(
                                &cert.order[cert.start[c]..cert.start[c + 1]],
                                expect.as_slice(),
                                "certified a ball that is not the component (r = {radius})"
                            );
                        }
                        None => fell_back += 1,
                    }
                    let (key, sc) = cert.sc_ball(h, &cluster, &mut scratch, &mut buf);
                    assert_eq!(sc, expect.as_slice());
                    assert_eq!(key, member_key(&expect, None));
                }
            }
        }
        assert!(fired > 100, "the certificate must fire: {fired}");
        assert!(fell_back > 100, "the BFS fallback must run: {fell_back}");
    }

    /// A cluster with members in two components is never certified, even
    /// when both components are tiny against the radius: it falls back to
    /// the BFS, which returns the union of both components.
    #[test]
    fn clusters_spanning_two_components_fall_back_to_bfs() {
        // Two disjoint cycles: 0..10 and 10..25.
        let mut edges: Vec<(Vertex, Vertex)> = (0..10).map(|v| (v, (v + 1) % 10)).collect();
        edges.extend((0..15).map(|v| (10 + v, 10 + (v + 1) % 15)));
        let g = dapc_graph::Graph::from_edges(25, &edges);
        let ilp = problems::max_independent_set_unweighted(&g);
        let h = ilp.hypergraph();
        let cert = ComponentCertificate::new(&h.primal_graph(), 100);
        assert_eq!(cert.whole_component(&[3]), Some(0));
        assert_eq!(cert.whole_component(&[12, 20]), Some(1));
        assert_eq!(cert.whole_component(&[3, 12]), None);
        let (mut scratch, mut buf) = (BallScratch::new(), Vec::new());
        let (key, sc) = cert.sc_ball(h, &[3, 12], &mut scratch, &mut buf);
        assert_eq!(sc, prefix(25).as_slice());
        assert_eq!(key, member_key(&prefix(25), None));
    }

    #[test]
    fn subset_solver_caches() {
        let g = gen::cycle(10);
        let ilp = problems::max_independent_set_unweighted(&g);
        let mut solver = SubsetSolver::new(&ilp, SolverBudget::default());
        let all = prefix(10);
        let first = solver.solve(&all, None).clone();
        let second = solver.solve(&all, None).clone();
        assert_eq!(first.value, 5);
        assert_eq!(first, second);
        assert!(first.exact);
        assert_eq!(first.ones(&all).count(), 5);
        assert_eq!(solver.cache.len(), 1);
    }

    /// Member-local entries lift to a feasible global solution, and
    /// covering's fixed members come back unset (they are paid for
    /// elsewhere).
    #[test]
    fn entries_lift_over_their_members() {
        let g = gen::path(6);
        let cover = problems::min_vertex_cover_unweighted(&g);
        let mut solver = SubsetSolver::new(&cover, SolverBudget::default());
        let members: Vec<Vertex> = vec![1, 2, 3, 4];
        let mut fixed = vec![false; 6];
        fixed[2] = true;
        let entry = solver.solve(&members, Some(&fixed)).clone();
        // Edges {1,2} and {2,3} are covered by the fixed 2; {3,4} needs one
        // more vertex.
        assert_eq!(entry.value, 1);
        let ones: Vec<Vertex> = entry.ones(&members).collect();
        assert_eq!(ones.len(), 1);
        assert!(ones[0] == 3 || ones[0] == 4, "{ones:?}");
        assert!(!ones.contains(&2), "fixed members are not re-chosen");
    }

    #[test]
    fn subset_keys_distinguish_fixed_overlays() {
        let members: Vec<Vertex> = vec![0, 1, 3];
        let none_fixed = member_key(&members, None);
        let empty_fixed = member_key(&members, Some(&[false, false, false, false]));
        let some_fixed = member_key(&members, Some(&[true, false, false, false]));
        let outside_fixed = member_key(&members, Some(&[false, false, true, false]));
        assert_ne!(none_fixed, empty_fixed, "separator must mark the overlay");
        assert_ne!(empty_fixed, some_fixed);
        // Fixed vertices outside the subset are irrelevant to the
        // restriction and must not move the key.
        assert_eq!(empty_fixed, outside_fixed);
    }

    #[test]
    fn shared_cache_spans_solvers() {
        let g = gen::cycle(10);
        let ilp = problems::max_independent_set_unweighted(&g);
        let shared = SharedSubsetCache::new();
        let all = prefix(10);
        let mut a = SubsetSolver::with_shared(&ilp, SolverBudget::default(), shared.clone());
        let v1 = a.solve(&all, None).value;
        assert_eq!((shared.hits(), shared.misses()), (0, 1));
        let mut b = SubsetSolver::with_shared(&ilp, SolverBudget::default(), shared.clone());
        let v2 = b.solve(&all, None).value;
        assert_eq!(v1, v2);
        assert_eq!((shared.hits(), shared.misses()), (1, 1));
        // Per-run re-lookups are served by the local memo, not the shared
        // map, so hit counts measure genuine cross-run reuse.
        let v3 = b.solve(&all, None).value;
        assert_eq!(v2, v3);
        assert_eq!((shared.hits(), shared.misses()), (1, 1));
        assert_eq!(shared.len(), 1);
    }

    #[test]
    fn lru_eviction_respects_capacity_and_recomputes() {
        let n = 20usize;
        let g = gen::cycle(n);
        let ilp = problems::max_independent_set_unweighted(&g);
        // A budget of one byte per stripe: every stripe keeps at most the
        // entry just inserted, and with more prefixes than stripes the
        // pigeonhole principle forces at least one eviction.
        let tiny = SharedSubsetCache::with_capacity(16);
        let mut solver = SubsetSolver::new(&ilp, SolverBudget::default());
        let mut values = Vec::new();
        for k in 1..=n {
            let mut s = SubsetSolver::with_shared(&ilp, SolverBudget::default(), tiny.clone());
            values.push(s.solve(&prefix(k), None).clone());
        }
        assert!(
            tiny.evictions() > 0,
            "a 16-byte budget must evict: {tiny:?}"
        );
        assert!(tiny.len() <= 16, "one entry per stripe at most: {tiny:?}");
        // Transparency: every value matches the uncached reference solver.
        for (k, cached) in values.iter().enumerate() {
            assert_eq!(solver.solve(&prefix(k + 1), None), cached, "prefix {k}");
        }
    }

    #[test]
    fn unbounded_cache_never_evicts() {
        let g = gen::path(9);
        let ilp = problems::max_independent_set_unweighted(&g);
        let cache = SharedSubsetCache::new();
        for k in 1..=9usize {
            let mut s = SubsetSolver::with_shared(&ilp, SolverBudget::default(), cache.clone());
            s.solve(&prefix(k), None);
        }
        assert_eq!(cache.evictions(), 0);
        assert_eq!(cache.len(), 9);
        assert_eq!(cache.capacity(), None);
        assert!(cache.bytes() > 0);
    }

    #[test]
    fn snapshot_round_trips_byte_for_byte() {
        let g = gen::gnp(18, 0.15, &mut gen::seeded_rng(44));
        let ilp = problems::max_independent_set_unweighted(&g);
        let cache = SharedSubsetCache::new();
        for k in 1..=18usize {
            let mut s = SubsetSolver::with_shared(&ilp, SolverBudget::default(), cache.clone());
            s.solve(&prefix(k), None);
        }
        let mut bytes = Vec::new();
        cache.save_to(&mut bytes).expect("write to a Vec");
        let loaded = SharedSubsetCache::load_from(bytes.as_slice()).expect("read back");
        assert_eq!(loaded.len(), cache.len());
        assert_eq!(
            (loaded.hits(), loaded.misses()),
            (0, 0),
            "loading counts nothing"
        );
        // Entry-for-entry equality, via the canonical serialisation.
        let mut reserialised = Vec::new();
        loaded.save_to(&mut reserialised).expect("write to a Vec");
        assert_eq!(bytes, reserialised);
    }

    /// The satellite contract: warm-loading a persisted cache changes the
    /// counters (cold misses become warm hits) but never a report — here
    /// at the preparation level, where every weight comes from the cache.
    #[test]
    fn warm_loaded_cache_changes_counters_never_outputs() {
        let ilp =
            problems::max_independent_set_unweighted(&gen::gnp(26, 0.11, &mut gen::seeded_rng(13)));
        let h = ilp.hypergraph().clone();
        let primal = h.primal_graph();
        let params = PcParams::packing_scaled(0.3, 26.0, 0.05, 0.5);
        let run = |cache: &SharedSubsetCache| {
            let mut rng = gen::seeded_rng(4);
            let mut solver = SubsetSolver::with_shared(&ilp, params.budget, cache.clone());
            let prep = prepare(&ilp, &h, &primal, &params, &mut rng, &mut solver);
            prep.clusters
                .iter()
                .map(|c| (c.members.clone(), c.w_local, c.w_neighborhood))
                .collect::<Vec<_>>()
        };
        let cold = SharedSubsetCache::new();
        let cold_clusters = run(&cold);
        assert!(cold.misses() > 0);
        assert_eq!(cold.hits(), 0);

        let mut snapshot = Vec::new();
        cold.save_to(&mut snapshot).expect("write to a Vec");
        let warm = SharedSubsetCache::load_from(snapshot.as_slice()).expect("read back");
        let warm_clusters = run(&warm);
        assert_eq!(warm_clusters, cold_clusters, "warm start moved an output");
        assert_eq!(warm.misses(), 0, "every lookup is answered warm");
        assert_eq!(warm.hits(), cold.misses(), "one hit per former miss");
    }

    #[test]
    fn loading_garbage_is_an_invalid_data_error() {
        let err = SharedSubsetCache::load_from(&b"not a snapshot!!"[..])
            .expect_err("bad magic must fail");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        // A truncated but well-prefixed stream fails too (UnexpectedEof).
        let mut bytes = Vec::new();
        let cache = SharedSubsetCache::new();
        let g = gen::cycle(6);
        let ilp = problems::max_independent_set_unweighted(&g);
        let mut s = SubsetSolver::with_shared(&ilp, SolverBudget::default(), cache.clone());
        s.solve(&prefix(6), None);
        cache.save_to(&mut bytes).expect("write to a Vec");
        bytes.truncate(bytes.len() - 3);
        assert!(SharedSubsetCache::load_from(bytes.as_slice()).is_err());
    }

    /// A snapshot with ≥ 2 entries, plus the byte offset of every field
    /// boundary in its layout (`magic · count · (key · value · exact ·
    /// len · packed)* · seal`), for the truncation sweep below.
    fn two_entry_snapshot() -> (Vec<u8>, Vec<usize>, usize) {
        let cache = SharedSubsetCache::new();
        let g = gen::cycle(6);
        let ilp = problems::max_independent_set_unweighted(&g);
        let mut s = SubsetSolver::with_shared(&ilp, SolverBudget::default(), cache.clone());
        s.solve(&prefix(6), None);
        s.solve(&prefix(3), None);
        assert!(cache.len() >= 2, "need at least two entries");
        let mut bytes = Vec::new();
        cache.save_to(&mut bytes).expect("write to a Vec");
        let mut boundaries = vec![8, 16]; // after magic, after count
        let mut at = 16;
        for _ in 0..cache.len() {
            for field in [16usize, 8, 1, 8] {
                at += field;
                boundaries.push(at);
            }
            at += 1; // one packed byte per ≤ 8-member assignment
            boundaries.push(at);
        }
        at += 16; // the seal
        assert_eq!(at, bytes.len(), "layout walk must cover the snapshot");
        let count = cache.len();
        (bytes, boundaries, count)
    }

    /// Hardened loading: truncating the stream at (and inside) every
    /// field boundary is an `Err`, and — the half-load guard — a failed
    /// `load_into` leaves the target cache untouched, even when the
    /// stream dies *between* two well-formed entries or inside the seal.
    #[test]
    fn truncation_at_every_field_boundary_errors_without_half_loading() {
        let (bytes, boundaries, count) = two_entry_snapshot();
        for cut in boundaries.into_iter().filter(|&c| c < bytes.len()) {
            for cut in [cut.saturating_sub(1), cut, cut + 1] {
                let target = SharedSubsetCache::new();
                let err = target
                    .load_into(&bytes[..cut])
                    .expect_err("truncated snapshot must fail");
                assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof, "cut {cut}");
                assert_eq!(
                    target.len(),
                    0,
                    "a failed load at byte {cut} half-loaded entries"
                );
            }
        }
        // The untruncated stream still loads in full.
        let target = SharedSubsetCache::new();
        assert_eq!(target.load_into(bytes.as_slice()).expect("intact"), count);
        assert_eq!(target.len(), count);
    }

    /// A wrong version byte after the right magic prefix is rejected
    /// with a version-specific message, and a corrupt exactness flag is
    /// `InvalidData` — in both cases without half-loading.
    #[test]
    fn wrong_version_and_corrupt_flags_are_rejected_atomically() {
        let (bytes, _, _) = two_entry_snapshot();
        let mut wrong_version = bytes.clone();
        wrong_version[7] = 0x7f;
        let target = SharedSubsetCache::new();
        let err = target
            .load_into(wrong_version.as_slice())
            .expect_err("future version must fail");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("version"), "{err}");
        assert_eq!(target.len(), 0);

        // Corrupt the *second* entry's exactness flag: the first entry is
        // perfectly well-formed, and must still not be loaded.
        let mut bad_flag = bytes;
        let second_exact_at = 16 + (16 + 8) + 1 + 8 + 1 + (16 + 8);
        assert!(matches!(bad_flag[second_exact_at], 0 | 1));
        bad_flag[second_exact_at] = 9;
        let target = SharedSubsetCache::new();
        let err = target
            .load_into(bad_flag.as_slice())
            .expect_err("corrupt flag must fail");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert_eq!(target.len(), 0, "the well-formed first entry leaked in");
    }

    /// Version 1 snapshots stored `n`-length global assignments; they
    /// are rejected with the "unsupported … version" error, never read
    /// as member-local entries.
    #[test]
    fn version_1_snapshots_are_rejected() {
        let mut v1 = SNAPSHOT_MAGIC.to_vec();
        v1[7] = 1;
        v1.extend_from_slice(&1u64.to_le_bytes()); // one entry
        v1.extend_from_slice(&member_key(&prefix(6), None).to_le_bytes());
        v1.extend_from_slice(&3u64.to_le_bytes()); // value
        v1.push(1); // exact
        v1.extend_from_slice(&6u64.to_le_bytes()); // n-length assignment
        v1.push(0b01_0101);
        let target = SharedSubsetCache::new();
        let err = target
            .load_into(v1.as_slice())
            .expect_err("a v1 stream must not load");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert_eq!(
            err.to_string(),
            "unsupported subset-cache snapshot version 1 (expected 2)"
        );
        assert_eq!(target.len(), 0);
    }

    /// The seal catches a flipped assignment bit that every field check
    /// accepts, and nonzero padding bits are rejected on their own.
    #[test]
    fn flipped_bits_fail_the_seal_or_the_padding_check() {
        let (bytes, _, _) = two_entry_snapshot();
        let first_packed_at = 16 + 16 + 8 + 1 + 8;
        for (bit, what) in [(0u8, "seal"), (7, "padding")] {
            let mut corrupt = bytes.clone();
            corrupt[first_packed_at] ^= 1 << bit;
            let target = SharedSubsetCache::new();
            let err = target
                .load_into(corrupt.as_slice())
                .expect_err("a flipped bit must not load");
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
            assert!(err.to_string().contains(what), "{what}: {err}");
            assert_eq!(target.len(), 0);
        }
    }

    /// A corrupt length field must surface as a read error, not as a
    /// multi-exabyte allocation request: the loader only allocates in
    /// proportion to bytes actually present in the stream.
    #[test]
    fn loading_rejects_absurd_length_fields() {
        let cache = SharedSubsetCache::new();
        let g = gen::cycle(6);
        let ilp = problems::max_independent_set_unweighted(&g);
        let mut s = SubsetSolver::with_shared(&ilp, SolverBudget::default(), cache.clone());
        s.solve(&prefix(6), None);
        let mut bytes = Vec::new();
        cache.save_to(&mut bytes).expect("write to a Vec");
        // The member count of the single entry sits after
        // magic(8) + count(8) + key(16) + value(8) + exact(1).
        let bits_at = 8 + 8 + 16 + 8 + 1;
        bytes[bits_at..bits_at + 8].copy_from_slice(&(u64::MAX / 2).to_le_bytes());
        let err = SharedSubsetCache::load_from(bytes.as_slice()).expect_err("must not allocate");
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn prep_clusters_have_sane_weights() {
        let g = gen::grid(6, 6);
        let ilp = problems::max_independent_set_unweighted(&g);
        let h = ilp.hypergraph().clone();
        let primal = h.primal_graph();
        let params = PcParams::packing_scaled(0.3, 36.0, 0.05, 0.5);
        let mut rng = gen::seeded_rng(71);
        let mut solver = SubsetSolver::new(&ilp, params.budget);
        let prep = prepare(&ilp, &h, &primal, &params, &mut rng, &mut solver);
        assert!(prep.all_exact);
        assert!(!prep.clusters.is_empty());
        for c in &prep.clusters {
            // Observation 2.1: W(P^local_C, C) <= W(P^local_{S_C}, S_C)
            // whenever C ⊆ S_C (monotone in the subset for packing).
            assert!(c.w_local <= c.w_neighborhood, "{c:?}");
            assert!(!c.members.is_empty());
        }
    }

    #[test]
    fn prep_covering_uses_sparse_cover() {
        let g = gen::cycle(12);
        let ilp = problems::min_vertex_cover_unweighted(&g);
        let h = ilp.hypergraph().clone();
        let primal = h.primal_graph();
        let params = PcParams::covering_scaled(0.3, 12.0, 0.05, 0.3, 1.0);
        let mut rng = gen::seeded_rng(72);
        let mut solver = SubsetSolver::new(&ilp, params.budget);
        let prep = prepare(&ilp, &h, &primal, &params, &mut rng, &mut solver);
        // Sparse covers keep every vertex, so cluster weights are positive
        // for any cluster containing an edge.
        assert!(!prep.clusters.is_empty());
        for c in &prep.clusters {
            assert!(c.w_local <= c.w_neighborhood);
        }
    }

    /// The sharded workers must solve under the *solver's* budget, not
    /// `params.budget` — byte-identity has to survive a caller that
    /// builds its `SubsetSolver` with a different budget than the params
    /// it hands to `prepare`.
    #[test]
    fn sharded_prepare_honours_the_solver_budget() {
        let ilp =
            problems::max_independent_set_unweighted(&gen::gnp(32, 0.12, &mut gen::seeded_rng(33)));
        let h = ilp.hypergraph().clone();
        let primal = h.primal_graph();
        let mut params = PcParams::packing_scaled(0.3, 32.0, 0.05, 0.5);
        // A budget tight enough that some whole-component solve is inexact
        // — the divergence a budget mix-up would surface through
        // `all_exact` and the weights.
        let tight = SolverBudget {
            node_limit: 4,
            ..Default::default()
        };
        let run = |params: &PcParams| {
            let mut rng = gen::seeded_rng(8);
            let mut solver = SubsetSolver::new(&ilp, tight);
            let prep = prepare(&ilp, &h, &primal, params, &mut rng, &mut solver);
            (
                prep.all_exact,
                prep.clusters
                    .iter()
                    .map(|c| (c.w_local, c.w_neighborhood))
                    .collect::<Vec<_>>(),
            )
        };
        let sequential = run(&params);
        assert!(!sequential.0, "node_limit 4 should leave inexact solves");
        params.prep_workers = 4;
        assert_eq!(run(&params), sequential);
    }

    /// Counter parity: a sharded preparation leaves the same family-cache
    /// hit/miss trace a sequential one would — the telemetry measures
    /// cross-run reuse, not the sharding handshake.
    #[test]
    fn sharded_prepare_preserves_cache_counters() {
        let ilp =
            problems::max_independent_set_unweighted(&gen::gnp(28, 0.1, &mut gen::seeded_rng(21)));
        let h = ilp.hypergraph().clone();
        let primal = h.primal_graph();
        let mut params = PcParams::packing_scaled(0.3, 28.0, 0.05, 0.5);
        let mut counters = Vec::new();
        for workers in [1usize, 4] {
            params.prep_workers = workers;
            let cold = SharedSubsetCache::new();
            let mut rng = gen::seeded_rng(6);
            let mut solver = SubsetSolver::with_shared(&ilp, params.budget, cold.clone());
            let _ = prepare(&ilp, &h, &primal, &params, &mut rng, &mut solver);
            let after_cold = (cold.hits(), cold.misses());
            // Warm replay against the same family cache.
            let mut rng = gen::seeded_rng(6);
            let mut solver = SubsetSolver::with_shared(&ilp, params.budget, cold.clone());
            let _ = prepare(&ilp, &h, &primal, &params, &mut rng, &mut solver);
            counters.push((after_cold, (cold.hits(), cold.misses())));
        }
        assert_eq!(
            counters[0], counters[1],
            "sequential vs sharded counter traces diverge"
        );
        let ((_, cold_misses), (warm_hits, warm_misses)) = counters[0];
        assert!(cold_misses > 0, "cold prep must record misses");
        assert!(warm_hits > 0, "warm replay must record hits");
        assert_eq!(warm_misses, cold_misses, "warm replay adds no solves");
    }

    /// The tentpole invariant at the unit level: for both senses, the
    /// clusters and `all_exact` flag emitted by a sharded preparation are
    /// byte-identical to the sequential ones at every worker count.
    #[test]
    fn sharded_prepare_is_byte_identical() {
        let pack =
            problems::max_independent_set_unweighted(&gen::gnp(30, 0.1, &mut gen::seeded_rng(9)));
        let cover = problems::min_vertex_cover_unweighted(&gen::cycle(26));
        for ilp in [&pack, &cover] {
            let h = ilp.hypergraph().clone();
            let primal = h.primal_graph();
            let mut params = match ilp.sense() {
                Sense::Packing => PcParams::packing_scaled(0.3, 30.0, 0.05, 0.5),
                Sense::Covering => PcParams::covering_scaled(0.3, 26.0, 0.05, 0.5, 1.0),
            };
            let run = |params: &PcParams| {
                let mut rng = gen::seeded_rng(5);
                let mut solver = SubsetSolver::new(ilp, params.budget);
                let prep = prepare(ilp, &h, &primal, params, &mut rng, &mut solver);
                (
                    prep.all_exact,
                    prep.clusters
                        .iter()
                        .map(|c| (c.members.clone(), c.w_local, c.w_neighborhood))
                        .collect::<Vec<_>>(),
                )
            };
            let sequential = run(&params);
            for workers in [2usize, 4] {
                params.prep_workers = workers;
                assert_eq!(
                    run(&params),
                    sequential,
                    "{:?} prep at {workers} workers drifted",
                    ilp.sense()
                );
            }
        }
    }
}
