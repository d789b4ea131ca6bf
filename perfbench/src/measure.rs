//! Shared measurement vocabulary: metric values with their units and
//! better direction, nearest-rank percentiles, `dapc-obs` snapshot
//! deltas, and the in-memory span log of a traced run.

use dapc_obs::{MetricsSnapshot, SnapshotEntry};
use std::time::{Duration, Instant};

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (latency, memory, set-up time).
    Lower,
    /// Larger is better (throughput, quality).
    Higher,
}

impl Better {
    /// The token `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One measured value, as printed in the result line.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name (`[A-Za-z0-9][A-Za-z0-9_.-]*`).
    pub name: &'static str,
    /// Unit (`s`, `ms`, `1/s`, `MiB`, `ratio`, `rounds`, `count`).
    pub unit: &'static str,
    /// Which way the metric improves.
    pub better: Better,
    /// The measured value.
    pub value: f64,
}

/// Whether `name` is a valid metric name: a letter or digit first, then
/// at most 63 letters, digits, `_`, `.` or `-`.
pub fn valid_name(name: &str) -> bool {
    let b = name.as_bytes();
    !b.is_empty()
        && b.len() <= 64
        && b[0].is_ascii_alphanumeric()
        && b.iter()
            .all(|&c| c.is_ascii_alphanumeric() || matches!(c, b'_' | b'.' | b'-'))
}

/// Whether `unit` is a valid unit: 1 to 16 letters, digits, `_`, `/`,
/// `%`, `.` or `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .bytes()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, b'_' | b'/' | b'%' | b'.' | b'-'))
}

/// A sample of latencies with nearest-rank percentiles.
#[derive(Clone, Debug, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    /// Adds one observation.
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    /// Appends every observation of `other`.
    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether no observation was recorded.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Nearest-rank `pct`-th percentile (`0` when empty).
    pub fn percentile(&self, pct: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        v[nearest_rank(v.len(), pct) - 1]
    }

    /// Observations strictly above the nearest-rank `pct`-th percentile's
    /// position — the tail a percentile must rest on (at least ten).
    pub fn beyond(&self, pct: f64) -> usize {
        self.0.len() - nearest_rank(self.0.len(), pct).min(self.0.len())
    }

    /// Median of the sample (`0` when empty).
    pub fn median(&self) -> f64 {
        self.percentile(50.0)
    }
}

/// 1-based nearest rank `ceil(n · pct / 100)`, at least 1.
fn nearest_rank(n: usize, pct: f64) -> usize {
    ((n as f64 * pct / 100.0).ceil() as usize).clamp(1, n.max(1))
}

/// Seconds as `f64`.
pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Peak resident set of this process (`VmHWM`) in MiB, or `None` where
/// `/proc` is unavailable.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The difference between two `dapc-obs` snapshots.
struct ObsDelta {
    before: MetricsSnapshot,
    after: MetricsSnapshot,
}

impl ObsDelta {
    fn counter_in(s: &MetricsSnapshot, name: &str) -> u64 {
        match s.get(name) {
            Some(SnapshotEntry::Counter { value, .. } | SnapshotEntry::Gauge { value, .. }) => {
                *value
            }
            _ => 0,
        }
    }

    fn hist_in(s: &MetricsSnapshot, name: &str) -> (u64, u64) {
        match s.get(name) {
            Some(SnapshotEntry::Histogram { count, sum, .. }) => (*count, *sum),
            _ => (0, 0),
        }
    }

    /// Counter increase between the snapshots.
    fn counter(&self, name: &str) -> u64 {
        Self::counter_in(&self.after, name).saturating_sub(Self::counter_in(&self.before, name))
    }

    /// Gauge change between the snapshots (may be negative).
    fn gauge_change(&self, name: &str) -> f64 {
        Self::counter_in(&self.after, name) as f64 - Self::counter_in(&self.before, name) as f64
    }

    /// Histogram observations recorded between the snapshots.
    fn hist_count(&self, name: &str) -> u64 {
        Self::hist_in(&self.after, name)
            .0
            .saturating_sub(Self::hist_in(&self.before, name).0)
    }

    /// Histogram sum accrued between the snapshots, read as microseconds
    /// and returned in seconds.
    fn hist_secs(&self, name: &str) -> f64 {
        let us = Self::hist_in(&self.after, name)
            .1
            .saturating_sub(Self::hist_in(&self.before, name).1);
        us as f64 / 1e6
    }
}

/// Accumulates [`ObsDelta`]s over the traced blocks of a run.
#[derive(Default)]
pub struct ObsTotals {
    deltas: Vec<ObsDelta>,
}

impl ObsTotals {
    /// Runs `f` with `dapc-obs` enabled and records the delta it caused.
    pub fn traced<T>(&mut self, f: impl FnOnce() -> T) -> T {
        dapc_obs::set_enabled(true);
        let before = MetricsSnapshot::capture();
        let out = f();
        let after = MetricsSnapshot::capture();
        dapc_obs::set_enabled(false);
        self.deltas.push(ObsDelta { before, after });
        out
    }

    /// Summed counter increase.
    pub fn counter(&self, name: &str) -> u64 {
        self.deltas.iter().map(|d| d.counter(name)).sum()
    }

    /// Summed gauge change.
    pub fn gauge_change(&self, name: &str) -> f64 {
        self.deltas.iter().map(|d| d.gauge_change(name)).sum()
    }

    /// Summed histogram observation count.
    pub fn hist_count(&self, name: &str) -> u64 {
        self.deltas.iter().map(|d| d.hist_count(name)).sum()
    }

    /// Summed histogram total, in seconds.
    pub fn hist_secs(&self, name: &str) -> f64 {
        self.deltas.iter().map(|d| d.hist_secs(name)).sum()
    }
}

/// One span the benchmark recorded around a call into a layer.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    /// Layer call, e.g. `decomp.validate`.
    pub name: &'static str,
    /// The item the span belongs to (shared by all spans of one item).
    pub item: u64,
    /// Index of the enclosing span in the log, if any.
    pub parent: Option<usize>,
    /// Start, microseconds since the run began.
    pub start_us: u64,
    /// End, microseconds since the run began.
    pub end_us: u64,
}

/// In-memory span log of a traced run, written out once at the end.
pub struct SpanLog {
    origin: Instant,
    spans: Vec<SpanRecord>,
}

impl SpanLog {
    /// An empty log whose clock starts now.
    pub fn new() -> Self {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn micros(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_micros() as u64
    }

    /// Records a finished span and returns its index (for children).
    pub fn record(
        &mut self,
        name: &'static str,
        item: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let rec = SpanRecord {
            name,
            item,
            parent,
            start_us: self.micros(start),
            end_us: self.micros(end),
        };
        self.spans.push(rec);
        self.spans.len() - 1
    }

    /// JSON-lines rendering, one span per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"item\":{},\"parent\":{parent},\"start_us\":{},\"end_us\":{}}}\n",
                s.name, s.item, s.start_us, s.end_us
            ));
        }
        out
    }
}

impl Default for SpanLog {
    fn default() -> Self {
        Self::new()
    }
}

/// Times `f`, returning its output and elapsed wall time.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed())
}
