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

use crate::params::PcParams;
use dapc_graph::{BallScratch, Hypergraph, Vertex};
use dapc_ilp::hash::{fnv1a_128_u32, FNV128_OFFSET};
use dapc_ilp::instance::{IlpInstance, Sense};
use dapc_ilp::restrict::packing_restriction;
use dapc_ilp::solvers::{self, SolverBudget};
use rand::rngs::StdRng;
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
}

/// One memoised exact subset solve: `(value, global assignment, exact)`.
type SubsetEntry = (u64, Vec<bool>, bool);

/// One sharded annotation result: the entry plus whether a warm family
/// cache already held it (drives counter parity with sequential runs).
type ShardSlot = Option<(SubsetEntry, bool)>;

/// The identity of one subset solve: a 128-bit FNV-1a digest of the
/// subset (plus the fixed-variable overlay for covering sub-instances).
///
/// Replaces the former `Vec<Vertex>` keys — a lookup now costs one fold
/// over the mask and no allocation, and the digest is stable across runs
/// and platforms (persisted warm-start formats can rely on it). At 128
/// bits, a collision within one `(instance, budget)` family is out of
/// reach for any realisable workload.
pub type SubsetKey = u128;

/// Folds a subset mask (and optional fixed-ones overlay) into its
/// [`SubsetKey`]. The separator distinguishes "no overlay" from "empty
/// overlay", mirroring the restriction functions' semantics.
fn subset_key(mask: &[bool], fixed_ones: Option<&[bool]>) -> SubsetKey {
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

/// Approximate heap footprint of one memoised entry: the assignment mask
/// plus fixed map/key overhead.
fn entry_bytes(entry: &SubsetEntry) -> usize {
    entry.1.len() + std::mem::size_of::<SubsetKey>() + std::mem::size_of::<Slot>()
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
    /// binary warm-start format (see the module docs of
    /// [`SNAPSHOT_MAGIC`]): entries sorted by [`SubsetKey`], each as
    /// `key · value · exact · assignment` with the assignment bit-packed.
    /// The keys are stable 128-bit FNV-1a digests, so a snapshot is valid
    /// across runs and platforms for the same `(instance, budget)`
    /// family.
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
        w.write_all(SNAPSHOT_MAGIC)?;
        w.write_all(&(entries.len() as u64).to_le_bytes())?;
        for (key, (value, assignment, exact)) in &entries {
            w.write_all(&key.to_le_bytes())?;
            w.write_all(&value.to_le_bytes())?;
            w.write_all(&[u8::from(*exact)])?;
            w.write_all(&(assignment.len() as u64).to_le_bytes())?;
            for chunk in assignment.chunks(8) {
                let mut byte = 0u8;
                for (bit, &set) in chunk.iter().enumerate() {
                    byte |= u8::from(set) << bit;
                }
                w.write_all(&[byte])?;
            }
        }
        Ok(())
    }

    /// Merges a warm-start snapshot written by
    /// [`SharedSubsetCache::save_to`] into this cache, returning the
    /// number of entries read. Loading only seeds the memo: it touches no
    /// hit/miss counter, and a capacity-bounded cache applies its normal
    /// transparent LRU policy to the loaded entries — so a warm start can
    /// change counters and work done, but never a solver report.
    ///
    /// Loading is **all-or-nothing**: the stream is fully parsed and
    /// validated before the first entry is inserted, so a snapshot that
    /// turns out to be truncated or corrupt partway through leaves the
    /// cache exactly as it was — an `Err` never half-loads.
    ///
    /// # Errors
    ///
    /// Fails with [`io::ErrorKind::InvalidData`] on a bad magic, an
    /// unsupported format version or a corrupt field, and with
    /// [`io::ErrorKind::UnexpectedEof`] on a stream truncated at any
    /// field boundary, besides propagating reader errors.
    pub fn load_into<R: Read>(&self, mut r: R) -> io::Result<usize> {
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
            let bits = read_u64(&mut r)? as usize;
            // Never trust a length field with an up-front allocation: a
            // corrupt header would otherwise drive a huge `Vec` request
            // (aborting the process) before the read could fail. Reading
            // to-end under `take` grows with the bytes actually present,
            // so truncation surfaces as the documented error instead.
            let byte_len = bits.div_ceil(8) as u64;
            let mut packed = Vec::new();
            r.by_ref().take(byte_len).read_to_end(&mut packed)?;
            if packed.len() as u64 != byte_len {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    format!("truncated assignment: {} of {byte_len} bytes", packed.len()),
                ));
            }
            // `bits <= 8 * packed.len()` now, so this allocation is
            // bounded by the snapshot's real size.
            let mut assignment = Vec::with_capacity(bits);
            for bit in 0..bits {
                assignment.push(packed[bit / 8] >> (bit % 8) & 1 == 1);
            }
            entries.push((key, (value, assignment, exact)));
        }
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
/// identifying bytes and a format version byte. The body is
/// `entry count: u64` followed by sorted entries of
/// `key: u128 · value: u64 · exact: u8 · assignment bits: u64 · packed
/// assignment bytes (LSB-first)`, all integers little-endian.
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
    /// Reusable mask buffer for [`SubsetSolver::value_of`].
    mask_buf: Vec<bool>,
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
            mask_buf: Vec::new(),
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
            ilp,
            budget,
            #[expect(clippy::disallowed_types, reason = "lookup-only memo (see field)")]
            cache: HashMap::new(),
            shared: Some(shared),
            mask_buf: Vec::new(),
            all_exact: true,
        }
    }

    /// Seeds the per-run memo with an already-computed entry (the sharded
    /// annotation pass hands worker results over with this), feeding
    /// `all_exact` exactly as a first compute would.
    fn preload(&mut self, key: SubsetKey, entry: SubsetEntry) {
        if !entry.2 {
            self.all_exact = false;
        }
        self.cache.insert(key, entry);
    }

    /// Value of a solve [`SubsetSolver::preload`]ed earlier — the sharded
    /// re-emit path reads cluster weights with this instead of rebuilding
    /// masks and keys.
    ///
    /// # Panics
    ///
    /// Panics if `key` was never preloaded or solved in this run.
    fn preloaded_value(&self, key: SubsetKey) -> u64 {
        self.cache
            .get(&key)
            .expect("sharded annotation preloaded every cluster key")
            .0
    }

    /// Optimal local value and assignment on the subset (mask form). For
    /// packing this is `P^local` (all constraints, zeros outside); for
    /// covering `Q^local` (inside constraints only), honouring `fixed_ones`
    /// at zero cost.
    pub fn solve_mask(
        &mut self,
        mask: &[bool],
        fixed_ones: Option<&[bool]>,
    ) -> (u64, Vec<bool>, bool) {
        let key = subset_key(mask, fixed_ones);
        if let Some(hit) = self.cache.get(&key) {
            return hit.clone();
        }
        // Per-run miss: try the cross-run family cache before solving.
        // Shared hits must still feed `all_exact` — the inexact miss that
        // populated the entry may have happened in a different run.
        if let Some(hit) = self.shared.as_ref().and_then(|s| s.get(key)) {
            if !hit.2 {
                self.all_exact = false;
            }
            self.cache.insert(key, hit.clone());
            return hit;
        }
        let out = solve_subset(self.ilp, &self.budget, mask, fixed_ones);
        if !out.2 {
            self.all_exact = false;
        }
        if let Some(shared) = &self.shared {
            shared.insert(key, out.clone());
        }
        self.cache.insert(key, out.clone());
        out
    }

    /// Convenience: optimal local value on a vertex list. Reuses an
    /// internal mask buffer, so repeated calls allocate nothing.
    pub fn value_of(&mut self, vertices: &[Vertex]) -> u64 {
        let mut mask = std::mem::take(&mut self.mask_buf);
        mask.clear();
        mask.resize(self.ilp.n(), false);
        for &v in vertices {
            mask[v as usize] = true;
        }
        let value = self.solve_mask(&mask, None).0;
        self.mask_buf = mask;
        value
    }
}

/// The memo-free core of one exact subset solve: restrict, dispatch to
/// the exact solvers, lift back to a global assignment. A pure function
/// of its arguments (the exact solvers draw no randomness) — both the
/// memoising [`SubsetSolver::solve_mask`] and the sharded annotation
/// workers bottom out here.
fn solve_subset(
    ilp: &IlpInstance,
    budget: &SolverBudget,
    mask: &[bool],
    fixed_ones: Option<&[bool]>,
) -> SubsetEntry {
    // Every memoising caller bottoms out here, so this one span covers
    // exact subset solves wherever they run. On a sharded annotation
    // worker the thread's span stack is empty and the cost records as a
    // root `span.subset_solve`; sequentially it nests under the solve.
    let _span = dapc_obs::span("subset_solve");
    let sub = match ilp.sense() {
        Sense::Packing => packing_restriction(ilp, mask),
        Sense::Covering => {
            dapc_ilp::restrict::covering_restriction_with_fixed(ilp, mask, fixed_ones)
        }
    };
    let sol = solvers::solve(&sub, budget);
    let mut global = vec![false; ilp.n()];
    sub.lift_into(&sol.assignment, &mut global);
    (sol.value, global, sol.exact)
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
    // Sequential, the annotation streams: each `S_C` ball is computed,
    // masked, solved and dropped, so peak memory stays one ball.
    let _annotate_span = dapc_obs::span("annotate");
    let mut clusters: Vec<PrepCluster> = Vec::with_capacity(members_list.len());
    if params.prep_workers > 1 {
        let cluster_keys = shard_subset_solves(ilp, h, params, solver, &members_list);
        for (members, (local_key, sc_key)) in members_list.into_iter().zip(cluster_keys) {
            clusters.push(PrepCluster {
                members,
                w_local: solver.preloaded_value(local_key),
                w_neighborhood: solver.preloaded_value(sc_key),
            });
        }
    } else {
        let n = h.n();
        let mut scratch = BallScratch::new();
        let mut mask = vec![false; n];
        for members in members_list {
            let w_local = solver.value_of(&members);
            let sc = h.ball_with_scratch(&members, params.sc_radius, None, None, &mut scratch);
            for v in sc.iter() {
                mask[v as usize] = true;
            }
            let (w_neighborhood, _, _) = solver.solve_mask(&mask, None);
            for v in sc.iter() {
                mask[v as usize] = false;
            }
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
/// worklist stores vertex lists (ball-sized), not `n`-length masks, so
/// fan-out memory is proportional to the balls themselves; each worker
/// expands into its own transient mask. Solves run under the solver's
/// own budget — the one every sequential lookup would use.
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
    params: &PcParams,
    solver: &mut SubsetSolver<'_>,
    members_list: &[Vec<Vertex>],
) -> Vec<(SubsetKey, SubsetKey)> {
    let n = ilp.n();
    #[expect(
        clippy::disallowed_types,
        reason = "membership-test dedup only; the output order follows the deterministic worklist, not the set"
    )]
    let mut seen: HashSet<SubsetKey> = HashSet::new();
    let mut worklist: Vec<(SubsetKey, Vec<Vertex>)> = Vec::new();
    let mut cluster_keys: Vec<(SubsetKey, SubsetKey)> = Vec::with_capacity(members_list.len());
    let mut scratch = BallScratch::new();
    let mut mask = vec![false; n];
    for members in members_list {
        for &v in members {
            mask[v as usize] = true;
        }
        let local_key = subset_key(&mask, None);
        if seen.insert(local_key) {
            worklist.push((local_key, members.clone()));
        }
        for &v in members {
            mask[v as usize] = false;
        }
        let ball = h.ball_with_scratch(members, params.sc_radius, None, None, &mut scratch);
        for v in ball.iter() {
            mask[v as usize] = true;
        }
        let sc_key = subset_key(&mask, None);
        if seen.insert(sc_key) {
            worklist.push((sc_key, ball.iter().collect()));
        }
        for v in ball.iter() {
            mask[v as usize] = false;
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
            s.spawn(move || {
                let mut mask: Vec<bool> = Vec::new();
                loop {
                    // ordering: Relaxed — fetch_add only claims unique worklist indices; no data rides on it
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    let Some((key, vertices)) = worklist.get(index) else {
                        break;
                    };
                    let result = match shared.as_ref().and_then(|c| c.get_uncounted(*key)) {
                        Some(entry) => (entry, true),
                        None => {
                            mask.clear();
                            mask.resize(owned.n(), false);
                            for &v in vertices {
                                mask[v as usize] = true;
                            }
                            (solve_subset(&owned, &budget, &mask, None), false)
                        }
                    };
                    slots.lock().expect("prep result slots")[index] = Some(result);
                }
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

    #[test]
    fn subset_solver_caches() {
        let g = gen::cycle(10);
        let ilp = problems::max_independent_set_unweighted(&g);
        let mut solver = SubsetSolver::new(&ilp, SolverBudget::default());
        let mask = vec![true; 10];
        let (v1, _, e1) = solver.solve_mask(&mask, None);
        let (v2, _, _) = solver.solve_mask(&mask, None);
        assert_eq!(v1, 5);
        assert_eq!(v1, v2);
        assert!(e1);
        assert_eq!(solver.cache.len(), 1);
    }

    #[test]
    fn subset_keys_distinguish_fixed_overlays() {
        let mask = vec![true, true, false, true];
        let none_fixed = subset_key(&mask, None);
        let empty_fixed = subset_key(&mask, Some(&[false, false, false, false]));
        let some_fixed = subset_key(&mask, Some(&[true, false, false, false]));
        let outside_fixed = subset_key(&mask, Some(&[false, false, true, false]));
        assert_ne!(none_fixed, empty_fixed, "separator must mark the overlay");
        assert_ne!(empty_fixed, some_fixed);
        // Fixed vertices outside the mask are irrelevant to the
        // restriction and must not move the key.
        assert_eq!(empty_fixed, outside_fixed);
    }

    #[test]
    fn shared_cache_spans_solvers() {
        let g = gen::cycle(10);
        let ilp = problems::max_independent_set_unweighted(&g);
        let shared = SharedSubsetCache::new();
        let mask = vec![true; 10];
        let mut a = SubsetSolver::with_shared(&ilp, SolverBudget::default(), shared.clone());
        let (v1, _, _) = a.solve_mask(&mask, None);
        assert_eq!((shared.hits(), shared.misses()), (0, 1));
        let mut b = SubsetSolver::with_shared(&ilp, SolverBudget::default(), shared.clone());
        let (v2, _, _) = b.solve_mask(&mask, None);
        assert_eq!(v1, v2);
        assert_eq!((shared.hits(), shared.misses()), (1, 1));
        // Per-run re-lookups are served by the local memo, not the shared
        // map, so hit counts measure genuine cross-run reuse.
        let (v3, _, _) = b.solve_mask(&mask, None);
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
            let mask: Vec<bool> = (0..n).map(|v| v < k).collect();
            let mut s = SubsetSolver::with_shared(&ilp, SolverBudget::default(), tiny.clone());
            values.push(s.solve_mask(&mask, None));
        }
        assert!(
            tiny.evictions() > 0,
            "a 16-byte budget must evict: {tiny:?}"
        );
        assert!(tiny.len() <= 16, "one entry per stripe at most: {tiny:?}");
        // Transparency: every value matches the uncached reference solver.
        for (k, cached) in values.iter().enumerate() {
            let mask: Vec<bool> = (0..n).map(|v| v <= k).collect();
            assert_eq!(&solver.solve_mask(&mask, None), cached, "prefix {k}");
        }
    }

    #[test]
    fn unbounded_cache_never_evicts() {
        let g = gen::path(9);
        let ilp = problems::max_independent_set_unweighted(&g);
        let cache = SharedSubsetCache::new();
        for k in 1..=9usize {
            let mask: Vec<bool> = (0..9).map(|v| v < k).collect();
            let mut s = SubsetSolver::with_shared(&ilp, SolverBudget::default(), cache.clone());
            s.solve_mask(&mask, None);
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
            let mask: Vec<bool> = (0..18).map(|v| v < k).collect();
            let mut s = SubsetSolver::with_shared(&ilp, SolverBudget::default(), cache.clone());
            s.solve_mask(&mask, None);
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
        s.solve_mask(&[true; 6], None);
        cache.save_to(&mut bytes).expect("write to a Vec");
        bytes.truncate(bytes.len() - 3);
        assert!(SharedSubsetCache::load_from(bytes.as_slice()).is_err());
    }

    /// A snapshot with ≥ 2 entries, plus the byte offset of every field
    /// boundary in its layout (`magic · count · (key · value · exact ·
    /// bits · packed)*`), for the truncation sweep below.
    fn two_entry_snapshot() -> (Vec<u8>, Vec<usize>, usize) {
        let cache = SharedSubsetCache::new();
        let g = gen::cycle(6);
        let ilp = problems::max_independent_set_unweighted(&g);
        let mut s = SubsetSolver::with_shared(&ilp, SolverBudget::default(), cache.clone());
        s.solve_mask(&[true; 6], None);
        s.solve_mask(&[true, true, true, false, false, false], None);
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
            at += 1; // one packed byte per 6-bit assignment
            boundaries.push(at);
        }
        assert_eq!(at, bytes.len(), "layout walk must cover the snapshot");
        let count = cache.len();
        (bytes, boundaries, count)
    }

    /// Hardened loading: truncating the stream at (and inside) every
    /// field boundary is an `Err`, and — the half-load guard — a failed
    /// `load_into` leaves the target cache untouched, even when the
    /// stream dies *between* two well-formed entries.
    #[test]
    fn truncation_at_every_field_boundary_errors_without_half_loading() {
        let (bytes, boundaries, count) = two_entry_snapshot();
        for cut in boundaries.into_iter().filter(|&c| c < bytes.len()) {
            for cut in [cut.saturating_sub(1), cut] {
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

    /// A corrupt length field must surface as a read error, not as a
    /// multi-exabyte allocation request: the loader only allocates in
    /// proportion to bytes actually present in the stream.
    #[test]
    fn loading_rejects_absurd_length_fields() {
        let cache = SharedSubsetCache::new();
        let g = gen::cycle(6);
        let ilp = problems::max_independent_set_unweighted(&g);
        let mut s = SubsetSolver::with_shared(&ilp, SolverBudget::default(), cache.clone());
        s.solve_mask(&[true; 6], None);
        let mut bytes = Vec::new();
        cache.save_to(&mut bytes).expect("write to a Vec");
        // The assignment bit count of the single entry sits after
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
