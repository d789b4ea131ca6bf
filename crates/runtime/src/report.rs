//! Batch results: per-job reports plus the per-group and per-backend
//! aggregation that used to be hand-rolled in `dapc-bench`.
//!
//! Aggregation is *online* since the streaming refactor: a
//! [`BatchAggregator`] consumes [`JobResult`]s one at a time in the
//! corpus's canonical order and folds the per-`(instance, backend, ε)`
//! and per-backend summaries incrementally, so
//! [`crate::solve_range`] never has to hold the full result vector —
//! [`crate::solve_many`] is a thin wrapper that still collects one.
//!
//! Since the shard-merge refactor the aggregator is also *mergeable*:
//! every per-cell accumulator is kept in an exactly-mergeable form —
//! integer `(sum, count)` pairs for the means, min/max for the extrema,
//! per-shard maxima for the worst-seed phase counters — grouped into
//! **spans** of consecutive canonical job indices. N cooperating
//! processes each fold their contiguous slice of the corpus (see
//! [`crate::solve_range`]), ship a versioned binary snapshot
//! ([`BatchAggregator::save_to`] / [`BatchAggregator::load_from`]), and
//! [`BatchAggregator::merge`] reassembles them into the *identical*
//! aggregation a single process would have produced: sums and extrema are
//! associative over the integers (no float fold depends on the shard
//! split — ratios and means are derived from the integer accumulators
//! only at [`BatchAggregator::finish`] time), and the one order-sensitive
//! column (`rounds_last`) follows the span with the later canonical
//! index. Merging is associative and commutative over disjoint job sets.

use crate::cache::CacheStats;
use crate::corpus::JobKey;
use crate::snap;
use dapc_core::engine::{BackendStats, SolveReport};
use dapc_ilp::Sense;
use dapc_local::RoundCost;
use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::time::Duration;

/// One job's outcome: its key, the engine report, and how long the job
/// took on its worker.
///
/// The `(key, report)` pair is a pure function of the corpus — it is
/// byte-identical across worker counts and cache configurations. The
/// timing is not, which is why it lives beside the report instead of
/// inside it.
#[derive(Clone, Debug)]
pub struct JobResult {
    /// Identity of the job.
    pub key: JobKey,
    /// The unified engine report.
    pub report: SolveReport,
    /// Wall-clock microseconds spent solving this job.
    pub micros: u64,
}

/// Worst-seed phase counters of one group, folded online so the
/// experiment tables never need the per-job result vector: each field is
/// the **maximum over the group's seeds** of the corresponding
/// [`BackendStats`] counter (packing and covering fill disjoint fields;
/// the reference backends touch none).
///
/// Maxima are associative and commutative, so shard merging reproduces
/// the single-process values exactly.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GroupStats {
    /// Packing: variables deleted by carving + the Phase 3 decomposition
    /// (worst seed).
    pub deleted: usize,
    /// Packing: final components solved (worst seed).
    pub components: usize,
    /// Covering: weight fixed to one during carving (worst seed).
    pub fixed_weight: u64,
    /// Covering: hyperedges deleted by carving (worst seed).
    pub deleted_edges: usize,
}

impl GroupStats {
    fn fold(&mut self, stats: &BackendStats) {
        match stats {
            BackendStats::Packing(s) => {
                self.deleted = self.deleted.max(s.deleted_carving + s.deleted_phase3);
                self.components = self.components.max(s.components);
            }
            BackendStats::Covering(s) => {
                self.fixed_weight = self.fixed_weight.max(s.fixed_weight);
                self.deleted_edges = self.deleted_edges.max(s.deleted_edges);
            }
            BackendStats::Gkm { .. }
            | BackendStats::Ensemble { .. }
            | BackendStats::Centralised { .. } => {}
        }
    }

    fn absorb(&mut self, other: &GroupStats) {
        self.deleted = self.deleted.max(other.deleted);
        self.components = self.components.max(other.components);
        self.fixed_weight = self.fixed_weight.max(other.fixed_weight);
        self.deleted_edges = self.deleted_edges.max(other.deleted_edges);
    }
}

/// Aggregation over the seed sweep of one `(instance, backend, ε)` cell.
#[derive(Clone, Debug, PartialEq)]
pub struct GroupSummary {
    /// Instance name.
    pub instance: String,
    /// Backend registry key.
    pub backend: String,
    /// Approximation parameter `ε`.
    pub eps: f64,
    /// Whether the instance packs or covers.
    pub sense: Sense,
    /// Number of variables of the instance.
    pub vars: usize,
    /// Number of seeds aggregated.
    pub jobs: usize,
    /// Whether every seed produced a feasible assignment.
    pub feasible: bool,
    /// Reference optimum, when the runtime computed one.
    pub opt: Option<u64>,
    /// Whether the reference optimum was proven optimal.
    pub opt_exact: bool,
    /// Smallest objective value across seeds.
    pub min_value: u64,
    /// Largest objective value across seeds.
    pub max_value: u64,
    /// Mean objective value across seeds.
    pub mean_value: f64,
    /// `min value / opt` (packing's worst seed; needs a reference).
    pub min_ratio: Option<f64>,
    /// `max value / opt` (covering's worst seed; needs a reference).
    pub max_ratio: Option<f64>,
    /// Mean of `value / opt` across seeds.
    pub mean_ratio: Option<f64>,
    /// Charged LOCAL rounds of the last seed (the legacy table column).
    pub rounds_last: usize,
    /// Mean charged LOCAL rounds across seeds.
    pub mean_rounds: f64,
    /// Total wall-clock microseconds across the group's jobs.
    pub micros: u64,
    /// Worst-seed phase counters of the group's backend.
    pub stats: GroupStats,
}

impl GroupSummary {
    /// Whether the worst seed met the paper's guarantee: `≥ 1 − ε` of the
    /// optimum for packing, `≤ 1 + ε` of it for covering. `false` when no
    /// reference optimum is available.
    pub fn meets_guarantee(&self) -> bool {
        match self.sense {
            Sense::Packing => self.min_ratio.is_some_and(|r| r + 1e-9 >= 1.0 - self.eps),
            Sense::Covering => self.max_ratio.is_some_and(|r| r <= 1.0 + self.eps + 1e-9),
        }
    }
}

/// Roll-up of every group of one backend.
#[derive(Clone, Debug, PartialEq)]
pub struct BackendSummary {
    /// Backend registry key.
    pub backend: String,
    /// Total jobs run by this backend.
    pub jobs: usize,
    /// Whether every job was feasible.
    pub feasible: bool,
    /// Worst packing seed across groups (`min value/opt`).
    pub min_ratio: Option<f64>,
    /// Worst covering seed across groups (`max value/opt`).
    pub max_ratio: Option<f64>,
    /// Job-weighted mean of `value / opt`.
    pub mean_ratio: Option<f64>,
    /// Job-weighted mean charged LOCAL rounds.
    pub mean_rounds: f64,
    /// Total wall-clock microseconds across the backend's jobs.
    pub micros: u64,
}

/// Everything [`crate::solve_many`] returns.
#[derive(Clone, Debug)]
pub struct BatchReport {
    /// Per-job results in the corpus's canonical order — byte-identical
    /// across worker counts and cache configurations (timings aside).
    pub results: Vec<JobResult>,
    /// One summary per `(instance, backend, ε)` cell, in job order.
    pub groups: Vec<GroupSummary>,
    /// One roll-up per backend, in corpus backend order.
    pub backends: Vec<BackendSummary>,
    /// Aggregate prep-cache counters for the run.
    pub cache: CacheStats,
    /// Concurrent jobs (pump tasks) the batch actually ran with:
    /// `min(RuntimeConfig::jobs, corpus length)`.
    pub workers: usize,
    /// End-to-end wall-clock time of the batch.
    pub wall: Duration,
}

impl BatchReport {
    /// The deterministic payload: every `(key, report)` pair in canonical
    /// order. Two batches over the same corpus are interchangeable iff
    /// their outcomes are equal, regardless of workers or caching.
    pub fn outcomes(&self) -> Vec<(&JobKey, &SolveReport)> {
        self.results.iter().map(|r| (&r.key, &r.report)).collect()
    }

    /// Looks a group up by cell coordinates (`eps` compared bit-exactly).
    pub fn group(&self, instance: &str, backend: &str, eps: f64) -> Option<&GroupSummary> {
        find_group(&self.groups, instance, backend, eps)
    }

    /// A compact text rendering (one line per group plus cache totals).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<24} {:>12} {:>5} {:>6} {:>7} {:>7} {:>7} {:>8} {:>9}\n",
            "instance", "backend", "eps", "OPT", "worst r", "mean r", "ok", "rounds", "ms"
        ));
        for g in &self.groups {
            let worst = match g.sense {
                Sense::Packing => g.min_ratio,
                Sense::Covering => g.max_ratio,
            };
            out.push_str(&format!(
                "{:<24} {:>12} {:>5} {:>6} {:>7} {:>7} {:>7} {:>8} {:>9.1}\n",
                g.instance,
                g.backend,
                g.eps,
                g.opt
                    .map(|o| if g.opt_exact {
                        o.to_string()
                    } else {
                        format!("{o}*")
                    })
                    .unwrap_or_else(|| "-".into()),
                worst
                    .map(|r| format!("{r:.3}"))
                    .unwrap_or_else(|| "-".into()),
                g.mean_ratio
                    .map(|r| format!("{r:.3}"))
                    .unwrap_or_else(|| "-".into()),
                g.meets_guarantee(),
                g.rounds_last,
                g.micros as f64 / 1000.0,
            ));
        }
        out.push_str(&format!(
            "workers {} | wall {:.1?} | prep cache: {} families, {} entries, {} hits / {} misses (rate {:.2})\n",
            self.workers,
            self.wall,
            self.cache.families,
            self.cache.entries,
            self.cache.hits,
            self.cache.misses,
            self.cache.hit_rate(),
        ));
        out
    }
}

/// Everything [`crate::solve_many_streaming_with_cache`] returns: the
/// aggregation of a batch *without* its per-job result vector — jobs were
/// handed to the `on_result` hook in canonical order and dropped, so a
/// corpus no longer has to fit its full report vector in memory.
#[derive(Clone, Debug)]
pub struct StreamReport {
    /// Number of jobs solved (and delivered to the hook).
    pub jobs: usize,
    /// One summary per `(instance, backend, ε)` cell, in job order.
    pub groups: Vec<GroupSummary>,
    /// One roll-up per backend, in corpus backend order.
    pub backends: Vec<BackendSummary>,
    /// Aggregate prep-cache counters for the run.
    pub cache: CacheStats,
    /// Concurrent jobs (pump tasks) the batch actually ran with:
    /// `min(RuntimeConfig::jobs, corpus length)`.
    pub workers: usize,
    /// High-water mark of the reorder buffer: the most out-of-order
    /// results parked at once while waiting for an earlier job. At most
    /// the runtime's reorder capacity, `max(2·pumps, 16)` (the bound is
    /// inclusive — the admission check parks a result only while the
    /// buffer is *below* capacity); `0` on the sequential path. Note the
    /// buffer is not the whole streaming footprint: up to `pumps − 1`
    /// further finished results can be held in-hand by submitters blocked
    /// on a full buffer.
    pub peak_buffered: usize,
    /// End-to-end wall-clock time of the batch.
    pub wall: Duration,
}

impl StreamReport {
    /// Looks a group up by cell coordinates (`eps` compared bit-exactly).
    pub fn group(&self, instance: &str, backend: &str, eps: f64) -> Option<&GroupSummary> {
        find_group(&self.groups, instance, backend, eps)
    }
}

fn find_group<'a>(
    groups: &'a [GroupSummary],
    instance: &str,
    backend: &str,
    eps: f64,
) -> Option<&'a GroupSummary> {
    groups.iter().find(|g| {
        g.instance == instance && g.backend == backend && g.eps.to_bits() == eps.to_bits()
    })
}

/// The exactly-mergeable accumulator of one `(instance, backend, ε)`
/// cell: integer sums and extrema only, so folding is associative — any
/// split of a cell's seed run into consecutive fragments recombines to
/// the same accumulator. Ratios and means are *derived* from these
/// integers at finish time; no float is folded per job.
#[derive(Clone, Debug, PartialEq)]
struct GroupAcc {
    instance: String,
    backend: String,
    eps: f64,
    sense: Sense,
    vars: usize,
    jobs: usize,
    feasible: bool,
    opt: Option<u64>,
    opt_exact: bool,
    min_value: u64,
    max_value: u64,
    /// Σ objective values (u128: immune to overflow on huge sweeps).
    value_sum: u128,
    /// Σ charged LOCAL rounds.
    rounds_sum: u64,
    /// Rounds of the group's last seed *in canonical order* — the one
    /// order-sensitive column; [`BatchAggregator::finish`] takes it from
    /// the fragment with the later canonical index.
    rounds_last: usize,
    micros: u64,
    stats: GroupStats,
}

impl GroupAcc {
    fn open(r: &JobResult, opt: Option<u64>, opt_exact: bool) -> Self {
        GroupAcc {
            instance: r.key.instance.clone(),
            backend: r.key.backend.clone(),
            eps: r.key.eps,
            sense: r.report.sense,
            vars: r.report.assignment.len(),
            jobs: 0,
            feasible: true,
            opt,
            opt_exact,
            min_value: u64::MAX,
            max_value: 0,
            value_sum: 0,
            rounds_sum: 0,
            rounds_last: 0,
            micros: 0,
            stats: GroupStats::default(),
        }
    }

    fn fold(&mut self, r: &JobResult) {
        self.jobs += 1;
        self.feasible &= r.report.feasible();
        self.min_value = self.min_value.min(r.report.value);
        self.max_value = self.max_value.max(r.report.value);
        self.value_sum += u128::from(r.report.value);
        self.rounds_sum += r.report.rounds() as u64;
        self.rounds_last = r.report.rounds();
        self.micros += r.micros;
        self.stats.fold(&r.report.stats);
    }

    fn cell(&self) -> (&str, &str, u64) {
        (&self.instance, &self.backend, self.eps.to_bits())
    }

    /// Folds `later` — the same cell's fragment from the next span in
    /// canonical order — into this accumulator.
    fn absorb(&mut self, later: GroupAcc) {
        debug_assert_eq!(self.cell(), later.cell());
        assert_eq!(
            (self.sense, self.vars, self.opt, self.opt_exact),
            (later.sense, later.vars, later.opt, later.opt_exact),
            "shards disagree on cell {}/{}/eps{}",
            self.instance,
            self.backend,
            self.eps,
        );
        self.jobs += later.jobs;
        self.feasible &= later.feasible;
        self.min_value = self.min_value.min(later.min_value);
        self.max_value = self.max_value.max(later.max_value);
        self.value_sum += later.value_sum;
        self.rounds_sum += later.rounds_sum;
        self.rounds_last = later.rounds_last;
        self.micros += later.micros;
        self.stats.absorb(&later.stats);
    }

    fn finish(self) -> GroupSummary {
        let jobs = self.jobs as f64;
        let (min_ratio, max_ratio, mean_ratio) = match self.opt {
            // Ratios derive from the integer accumulators only here, so
            // they are independent of how the seed run was sharded.
            // `min(vᵢ)/opt = min(vᵢ/opt)` exactly: correctly-rounded
            // division by a positive constant is monotone.
            Some(opt) => {
                let opt = opt.max(1) as f64;
                (
                    Some(self.min_value as f64 / opt),
                    Some(self.max_value as f64 / opt),
                    Some(self.value_sum as f64 / opt / jobs),
                )
            }
            None => (None, None, None),
        };
        GroupSummary {
            instance: self.instance,
            backend: self.backend,
            eps: self.eps,
            sense: self.sense,
            vars: self.vars,
            jobs: self.jobs,
            feasible: self.feasible,
            opt: self.opt,
            opt_exact: self.opt_exact,
            min_value: self.min_value,
            max_value: self.max_value,
            mean_value: self.value_sum as f64 / jobs,
            min_ratio,
            max_ratio,
            mean_ratio,
            rounds_last: self.rounds_last,
            mean_rounds: self.rounds_sum as f64 / jobs,
            micros: self.micros,
            stats: self.stats,
        }
    }
}

/// One run of consecutive canonical job indices and its per-cell
/// accumulators, in delivery order.
#[derive(Clone, Debug, PartialEq)]
struct Span {
    /// Canonical index of the span's first job.
    start: usize,
    /// Jobs folded into the span.
    len: usize,
    groups: Vec<GroupAcc>,
}

impl Span {
    fn end(&self) -> usize {
        self.start + self.len
    }

    fn overlaps(&self, other: &Span) -> bool {
        self.len > 0 && other.len > 0 && self.start < other.end() && other.start < self.end()
    }
}

/// Online aggregation of [`JobResult`]s in canonical corpus order: the
/// incremental form of the summary tables [`BatchReport`] carries — and
/// the unit that multi-process sharding snapshots, ships, and merges.
///
/// Feed every result exactly once via [`BatchAggregator::push`] —
/// **in canonical order** (the order [`crate::Corpus::jobs`] defines;
/// [`crate::solve_range`]'s reorder buffer guarantees it) — then
/// call [`BatchAggregator::finish`]. A shard aggregator starts at its
/// slice's first canonical index ([`BatchAggregator::with_optima_at`])
/// and is recombined with [`BatchAggregator::merge`]; because every
/// accumulator is integer-exact and order-insensitive (see the module
/// docs), the merged aggregation equals the single-process one bit for
/// bit, timings aside.
#[derive(Debug)]
pub struct BatchAggregator {
    optima: BTreeMap<String, (u64, bool)>,
    /// Disjoint spans of consecutive canonical indices. The span at
    /// index 0 is the *live* span [`BatchAggregator::push`] extends;
    /// merged-in spans follow in arrival order and are sorted at finish,
    /// which is what makes [`BatchAggregator::merge`] commutative.
    spans: Vec<Span>,
    /// Cells already closed in the live span, for the out-of-order
    /// guard — a set lookup per new cell, so huge streamed corpora stay
    /// O(cells), not O(cells²).
    seen_cells: BTreeSet<(String, String, u64)>,
}

/// Magic + version prefix of the aggregator snapshot format: seven
/// identifying bytes and a format version byte. The body is the optima
/// table (`count · (name · optimum · exact)*`, names sorted), the
/// `start: u64` canonical index the aggregation begins at (meaningful
/// for still-empty shard aggregators, whose offset must survive a
/// checkpoint), and the spans (`count · (start · len · group count ·
/// groups)*`) in **normal form** — sorted by start, empty spans
/// omitted, adjacent spans coalesced — every integer little-endian and
/// every string length-prefixed UTF-8. The normal form is what makes
/// the stream canonical: aggregators holding the same aggregation
/// serialise identically, whatever their push/merge history.
pub const AGGREGATOR_MAGIC: &[u8; 8] = dapc_core::snapmagic::AGGREGATOR.bytes;

impl Default for BatchAggregator {
    fn default() -> Self {
        Self::with_optima_at(BTreeMap::new(), 0)
    }
}

impl BatchAggregator {
    /// An aggregator with no reference optima (all ratio columns stay
    /// `None`), starting at canonical index 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// An aggregator with per-instance reference optima
    /// (`name → (optimum, proven exact)`), enabling the ratio columns;
    /// starts at canonical index 0.
    pub fn with_optima(optima: BTreeMap<String, (u64, bool)>) -> Self {
        Self::with_optima_at(optima, 0)
    }

    /// A **shard** aggregator: like [`BatchAggregator::with_optima`], but
    /// the first pushed result is declared to be the job at canonical
    /// index `start` — the information [`BatchAggregator::merge`] needs
    /// to stitch shards back together in corpus order.
    pub fn with_optima_at(optima: BTreeMap<String, (u64, bool)>, start: usize) -> Self {
        BatchAggregator {
            optima,
            spans: vec![Span {
                start,
                len: 0,
                groups: Vec::new(),
            }],
            seen_cells: BTreeSet::new(),
        }
    }

    /// Results consumed so far (across every span).
    pub fn jobs(&self) -> usize {
        self.spans.iter().map(|s| s.len).sum()
    }

    /// The canonical job ranges this aggregation covers, in normal form:
    /// sorted, disjoint, non-empty, adjacent runs coalesced. One entry
    /// per *gap-separated* run — a coordinator resuming a sweep from
    /// checkpoints subtracts these from the corpus range to find the
    /// jobs still owed.
    pub fn covered(&self) -> Vec<std::ops::Range<usize>> {
        Self::coalesced(self.spans.clone())
            .into_iter()
            .map(|s| s.start..s.end())
            .collect()
    }

    /// Folds one result into its `(instance, backend, ε)` group.
    ///
    /// # Panics
    ///
    /// Panics if `r` re-opens a cell that was already closed — the
    /// telltale of out-of-order delivery — or if results were merged in
    /// since construction (a merged aggregator only finishes or merges
    /// further; it no longer consumes).
    pub fn push(&mut self, r: &JobResult) {
        assert!(
            self.spans.len() == 1,
            "push on a merged aggregator: merge after streaming, not during"
        );
        let span = &mut self.spans[0];
        span.len += 1;
        let cell = (&r.key.instance, &r.key.backend, r.key.eps.to_bits());
        let matches = |g: &GroupAcc| (&g.instance, &g.backend, g.eps.to_bits()) == cell;
        if !span.groups.last().is_some_and(matches) {
            assert!(
                self.seen_cells.insert((
                    r.key.instance.clone(),
                    r.key.backend.clone(),
                    r.key.eps.to_bits()
                )),
                "result for {} delivered out of canonical order",
                r.key
            );
            let (opt, opt_exact) = match self.optima.get(&r.key.instance) {
                Some(&(o, e)) => (Some(o), e),
                None => (None, false),
            };
            span.groups.push(GroupAcc::open(r, opt, opt_exact));
        }
        #[expect(
            clippy::expect_used,
            reason = "the accumulator was pushed by the branch directly above"
        )]
        let group = span.groups.last_mut().expect("group just ensured");
        group.fold(r);
    }

    /// Merges another aggregator — typically a shard's, loaded with
    /// [`BatchAggregator::load_from`] — into this one.
    ///
    /// Merging is **associative and commutative over disjoint job
    /// sets**: shards may arrive in any order and any grouping, and the
    /// finished aggregation equals what one process pushing the whole
    /// corpus would produce (timing columns aside), because every
    /// accumulator is integer-exact and spans are reassembled in
    /// canonical order at [`BatchAggregator::finish`] time.
    ///
    /// ```
    /// use dapc_graph::gen;
    /// use dapc_ilp::problems;
    /// use dapc_runtime::{solve_many, solve_range, Corpus, PrepCache, RuntimeConfig};
    ///
    /// let corpus = Corpus::builder()
    ///     .instance(
    ///         "MIS/cycle16",
    ///         problems::max_independent_set_unweighted(&gen::cycle(16)),
    ///     )
    ///     .backend("greedy")
    ///     .eps(0.3)
    ///     .seeds(0..6)
    ///     .build();
    /// let rt = RuntimeConfig::new();
    /// let shard = |i| {
    ///     let range = corpus.shard_range(i, 2);
    ///     solve_range(&corpus, range, &rt, &PrepCache::new(), |_r| {})
    /// };
    /// // Two cooperating processes, one shard each — merged in reverse
    /// // order, merge is commutative.
    /// let first = shard(0);
    /// let second = shard(1);
    /// let mut merged = second.aggregator;
    /// merged.merge(first.aggregator);
    /// let (groups, _) = merged.finish();
    /// let single = solve_many(&corpus, &rt);
    /// assert_eq!(groups.len(), single.groups.len());
    /// assert_eq!(groups[0].jobs, 6);
    /// assert_eq!(groups[0].min_value, single.groups[0].min_value);
    /// assert_eq!(groups[0].mean_value, single.groups[0].mean_value);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if the two aggregators cover overlapping canonical job
    /// ranges (the same shard merged twice) or disagree on an instance's
    /// reference optimum.
    pub fn merge(&mut self, other: BatchAggregator) {
        use std::collections::btree_map::Entry;
        for (name, val) in other.optima {
            match self.optima.entry(name) {
                Entry::Occupied(e) => assert_eq!(
                    *e.get(),
                    val,
                    "shards disagree on the reference optimum of {:?}",
                    e.key()
                ),
                Entry::Vacant(e) => {
                    e.insert(val);
                }
            }
        }
        for span in other.spans {
            if span.len == 0 {
                continue;
            }
            for own in &self.spans {
                assert!(
                    !own.overlaps(&span),
                    "shard job ranges overlap: [{}, {}) vs [{}, {}) — was a shard merged twice?",
                    own.start,
                    own.end(),
                    span.start,
                    span.end(),
                );
            }
            self.spans.push(span);
        }
    }

    /// Sorts spans into canonical order and folds every *adjacent* pair
    /// into one (absorbing the boundary fragments of a cell split across
    /// two shards) — the normal form both [`BatchAggregator::finish`]
    /// and [`BatchAggregator::save_to`] work on. Any set of spans
    /// covering the same jobs coalesces to the same normal form,
    /// whatever the push/merge history; gaps survive as separate spans.
    fn coalesced(spans: Vec<Span>) -> Vec<Span> {
        let mut spans: Vec<Span> = spans.into_iter().filter(|s| s.len > 0).collect();
        spans.sort_unstable_by_key(|s| s.start);
        let mut out: Vec<Span> = Vec::new();
        for span in spans {
            match out.last_mut() {
                Some(prev) if prev.end() == span.start => {
                    prev.len += span.len;
                    let mut groups = span.groups.into_iter();
                    if let Some(first) = groups.next() {
                        match prev.groups.last_mut() {
                            Some(last) if last.cell() == first.cell() => last.absorb(first),
                            _ => prev.groups.push(first),
                        }
                        prev.groups.extend(groups);
                    }
                }
                _ => out.push(span),
            }
        }
        out
    }

    /// Finalises the accumulators into [`GroupSummary`]s (means and
    /// ratios derived from the integer sums) and rolls the groups up per
    /// backend.
    ///
    /// # Panics
    ///
    /// Panics if the merged spans leave an **interior** gap of canonical
    /// indices — a middle shard of the corpus was never merged in. The
    /// aggregator does not know the corpus size, so a missing *first or
    /// last* shard cannot be detected here; merge at the
    /// [`crate::PartReport`] level, whose [`crate::PartReport::finish`]
    /// checks full coverage against the corpus job count.
    #[expect(
        clippy::panic,
        reason = "the documented merge-gap contract of finish (see # Panics)"
    )]
    pub fn finish(self) -> (Vec<GroupSummary>, Vec<BackendSummary>) {
        let spans = Self::coalesced(self.spans);
        if let [first, second, ..] = &spans[..] {
            panic!(
                "merged shards leave a gap: jobs [{}, {}) are missing",
                first.end(),
                second.start,
            );
        }
        let groups: Vec<GroupSummary> = spans
            .into_iter()
            .flat_map(|s| s.groups)
            .map(GroupAcc::finish)
            .collect();

        let mut backends: Vec<BackendSummary> = Vec::new();
        for g in &groups {
            if !backends.iter().any(|b| b.backend == g.backend) {
                backends.push(BackendSummary {
                    backend: g.backend.clone(),
                    jobs: 0,
                    feasible: true,
                    min_ratio: None,
                    max_ratio: None,
                    mean_ratio: None,
                    mean_rounds: 0.0,
                    micros: 0,
                });
            }
            #[expect(
                clippy::expect_used,
                reason = "the accumulator was pushed by the branch directly above"
            )]
            let b = backends
                .iter_mut()
                .find(|b| b.backend == g.backend)
                .expect("backend just ensured");
            b.jobs += g.jobs;
            b.feasible &= g.feasible;
            if let Some(r) = g.min_ratio {
                b.min_ratio = Some(b.min_ratio.map_or(r, |m: f64| m.min(r)));
            }
            if let Some(r) = g.max_ratio {
                b.max_ratio = Some(b.max_ratio.map_or(r, |m: f64| m.max(r)));
            }
            if let Some(r) = g.mean_ratio {
                b.mean_ratio = Some(b.mean_ratio.unwrap_or(0.0) + r * g.jobs as f64);
            }
            b.mean_rounds += g.mean_rounds * g.jobs as f64;
            b.micros += g.micros;
        }
        for b in &mut backends {
            let jobs = b.jobs as f64;
            b.mean_rounds /= jobs;
            if let Some(sum) = b.mean_ratio {
                b.mean_ratio = Some(sum / jobs);
            }
        }
        (groups, backends)
    }

    /// Writes this aggregator in the versioned binary snapshot format
    /// (see [`AGGREGATOR_MAGIC`]). The byte stream is canonical: spans
    /// are written in their coalesced normal form, so two aggregators
    /// holding the same aggregation — one that pushed the whole run,
    /// one merged from shard fragments — serialise identically.
    ///
    /// # Errors
    ///
    /// Propagates writer errors.
    pub fn save_to<W: io::Write>(&self, mut w: W) -> io::Result<()> {
        w.write_all(AGGREGATOR_MAGIC)?;
        let mut optima: Vec<_> = self.optima.iter().collect();
        optima.sort();
        snap::write_u64(&mut w, optima.len() as u64)?;
        for (name, &(opt, exact)) in optima {
            snap::write_str(&mut w, name)?;
            snap::write_u64(&mut w, opt)?;
            snap::write_bool(&mut w, exact)?;
        }
        let spans = Self::coalesced(self.spans.clone());
        // The canonical index the aggregation begins at: for an empty
        // (still unconsumed) shard aggregator this is the live span's
        // offset, which a checkpoint must preserve for the resumed
        // pushes to land at the right indices.
        let start = spans
            .first()
            .map_or(self.spans[0].start, |first| first.start);
        snap::write_u64(&mut w, start as u64)?;
        snap::write_u64(&mut w, spans.len() as u64)?;
        for span in spans {
            snap::write_u64(&mut w, span.start as u64)?;
            snap::write_u64(&mut w, span.len as u64)?;
            snap::write_u64(&mut w, span.groups.len() as u64)?;
            for g in &span.groups {
                snap::write_str(&mut w, &g.instance)?;
                snap::write_str(&mut w, &g.backend)?;
                snap::write_u64(&mut w, g.eps.to_bits())?;
                w.write_all(&[match g.sense {
                    Sense::Packing => 0,
                    Sense::Covering => 1,
                }])?;
                snap::write_u64(&mut w, g.vars as u64)?;
                snap::write_u64(&mut w, g.jobs as u64)?;
                snap::write_bool(&mut w, g.feasible)?;
                snap::write_bool(&mut w, g.opt.is_some())?;
                snap::write_u64(&mut w, g.opt.unwrap_or(0))?;
                snap::write_bool(&mut w, g.opt_exact)?;
                snap::write_u64(&mut w, g.min_value)?;
                snap::write_u64(&mut w, g.max_value)?;
                snap::write_u128(&mut w, g.value_sum)?;
                snap::write_u64(&mut w, g.rounds_sum)?;
                snap::write_u64(&mut w, g.rounds_last as u64)?;
                snap::write_u64(&mut w, g.micros)?;
                snap::write_u64(&mut w, g.stats.deleted as u64)?;
                snap::write_u64(&mut w, g.stats.components as u64)?;
                snap::write_u64(&mut w, g.stats.fixed_weight)?;
                snap::write_u64(&mut w, g.stats.deleted_edges as u64)?;
            }
        }
        Ok(())
    }

    /// Reads a snapshot written by [`BatchAggregator::save_to`] into a
    /// fresh aggregator. Loading is all-or-nothing: the stream is fully
    /// parsed and validated first, so an error never yields a
    /// half-populated aggregator.
    ///
    /// # Errors
    ///
    /// Fails with [`io::ErrorKind::InvalidData`] on a bad magic, an
    /// unsupported version, or any inconsistent field (an unknown sense
    /// byte, a non-boolean flag, a span whose group job counts do not sum
    /// to its length, overlapping or duplicated spans/cells), and with
    /// [`io::ErrorKind::UnexpectedEof`] on truncation at any field
    /// boundary, besides propagating reader errors. It never panics on
    /// untrusted input.
    pub fn load_from<R: io::Read>(mut r: R) -> io::Result<Self> {
        snap::check_magic(&mut r, AGGREGATOR_MAGIC, "batch-aggregator")?;
        let optima_count = snap::read_u64(&mut r)?;
        let mut optima = BTreeMap::new();
        for _ in 0..optima_count {
            let name = snap::read_str(&mut r, "instance name")?;
            let opt = snap::read_u64(&mut r)?;
            let exact = snap::read_bool(&mut r, "optimum exactness")?;
            if optima.insert(name, (opt, exact)).is_some() {
                return Err(snap::invalid("duplicate instance in the optima table"));
            }
        }
        let start = snap::read_u64(&mut r)? as usize;
        let span_count = snap::read_u64(&mut r)?;
        let mut spans: Vec<Span> = Vec::new();
        for _ in 0..span_count {
            let start = snap::read_u64(&mut r)? as usize;
            let len = snap::read_u64(&mut r)? as usize;
            if len == 0 {
                return Err(snap::invalid("empty span in snapshot"));
            }
            let group_count = snap::read_u64(&mut r)?;
            let mut groups: Vec<GroupAcc> = Vec::new();
            let mut cells = BTreeSet::new();
            let mut jobs_total = 0usize;
            for _ in 0..group_count {
                let instance = snap::read_str(&mut r, "instance name")?;
                let backend = snap::read_str(&mut r, "backend name")?;
                let eps = f64::from_bits(snap::read_u64(&mut r)?);
                let sense = match snap::read_u8(&mut r)? {
                    0 => Sense::Packing,
                    1 => Sense::Covering,
                    b => return Err(snap::invalid(format!("bad sense byte {b}"))),
                };
                let vars = snap::read_u64(&mut r)? as usize;
                let jobs = snap::read_u64(&mut r)? as usize;
                if jobs == 0 {
                    return Err(snap::invalid("group with zero jobs"));
                }
                let feasible = snap::read_bool(&mut r, "feasibility")?;
                let has_opt = snap::read_bool(&mut r, "optimum presence")?;
                let opt_value = snap::read_u64(&mut r)?;
                let opt = has_opt.then_some(opt_value);
                let opt_exact = snap::read_bool(&mut r, "optimum exactness")?;
                let min_value = snap::read_u64(&mut r)?;
                let max_value = snap::read_u64(&mut r)?;
                let value_sum = snap::read_u128(&mut r)?;
                let rounds_sum = snap::read_u64(&mut r)?;
                let rounds_last = snap::read_u64(&mut r)? as usize;
                let micros = snap::read_u64(&mut r)?;
                let stats = GroupStats {
                    deleted: snap::read_u64(&mut r)? as usize,
                    components: snap::read_u64(&mut r)? as usize,
                    fixed_weight: snap::read_u64(&mut r)?,
                    deleted_edges: snap::read_u64(&mut r)? as usize,
                };
                if !cells.insert((instance.clone(), backend.clone(), eps.to_bits())) {
                    return Err(snap::invalid(format!(
                        "cell {instance}/{backend}/eps{eps} appears twice in one span"
                    )));
                }
                jobs_total += jobs;
                groups.push(GroupAcc {
                    instance,
                    backend,
                    eps,
                    sense,
                    vars,
                    jobs,
                    feasible,
                    opt,
                    opt_exact,
                    min_value,
                    max_value,
                    value_sum,
                    rounds_sum,
                    rounds_last,
                    micros,
                    stats,
                });
            }
            if jobs_total != len {
                return Err(snap::invalid(format!(
                    "span claims {len} jobs but its groups sum to {jobs_total}"
                )));
            }
            let span = Span { start, len, groups };
            if spans.iter().any(|s| s.overlaps(&span)) {
                return Err(snap::invalid("overlapping spans in snapshot"));
            }
            spans.push(span);
        }
        // A snapshot of a single contiguous span stays resumable: pushes
        // continue where the aggregation stopped, guarded by its cell
        // set. An empty snapshot resumes at the persisted start index.
        let seen_cells = match &spans[..] {
            [only] => only
                .groups
                .iter()
                .map(|g| (g.instance.clone(), g.backend.clone(), g.eps.to_bits()))
                .collect(),
            _ => BTreeSet::new(),
        };
        if spans.is_empty() {
            spans.push(Span {
                start,
                len: 0,
                groups: Vec::new(),
            });
        } else if spans.iter().map(|s| s.start).min() != Some(start) {
            return Err(snap::invalid(format!(
                "snapshot start {start} disagrees with its earliest span"
            )));
        }
        Ok(BatchAggregator {
            optima,
            spans,
            seen_cells,
        })
    }
}
