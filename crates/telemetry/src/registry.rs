//! The lock-free sharded metrics registry.
//!
//! Recording never takes a lock: counter handles write to one of
//! `SHARDS` cache-line-padded atomic cells chosen by a per-thread shard
//! index, so concurrent workers don't bounce a shared line. Registration
//! (cold) goes through a `Mutex`-guarded name table; handles are cheap
//! `Arc` clones that stay valid for the registry's lifetime.
//!
//! A [`Histo`] keeps one atomic cell per bucket of the log-linear
//! [`Histogram`] and snapshots into one; its record path never allocates.
//!
//! Snapshots read every cell with relaxed loads. Each cell is monotonic,
//! so per-field deltas between two snapshots of the same registry never go
//! negative even when recording races the reader; cross-field exactness
//! (e.g. `count` vs the bucket sum) is intentionally not promised —
//! derived statistics use the bucket vector alone so they stay internally
//! consistent.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Mutex};

use crate::histogram::{bucket_index, Histogram, BUCKETS};
use crate::json::JsonValue;

/// Concurrency shards per counter (power of two).
pub(crate) const SHARDS: usize = 8;

fn shard_index() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SHARD: usize = NEXT.fetch_add(1, Relaxed) & (SHARDS - 1);
    }
    SHARD.with(|s| *s)
}

/// One cache line per shard so concurrent recorders don't false-share.
#[repr(align(64))]
#[derive(Default)]
struct PaddedCell(AtomicU64);

#[derive(Default)]
struct CounterCells {
    shards: [PaddedCell; SHARDS],
}

/// Handle to a registered counter; cloning shares the cells.
#[derive(Clone)]
pub struct Counter {
    cells: Arc<CounterCells>,
}

impl Counter {
    fn new() -> Self {
        Self { cells: Arc::new(CounterCells::default()) }
    }

    /// Add `n` to the counter (lock-free, relaxed).
    #[inline]
    pub fn add(&self, n: u64) {
        self.cells.shards[shard_index()].0.fetch_add(n, Relaxed);
    }

    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current total across shards.
    pub fn value(&self) -> u64 {
        self.cells.shards.iter().map(|c| c.0.load(Relaxed)).sum()
    }
}

/// Handle to a registered gauge: a last-write-wins `f64`.
#[derive(Clone)]
pub struct Gauge {
    bits: Arc<AtomicU64>,
}

impl Gauge {
    fn new() -> Self {
        Self { bits: Arc::new(AtomicU64::new(0f64.to_bits())) }
    }

    /// Set the gauge.
    #[inline]
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Relaxed);
    }

    /// Current value.
    pub fn value(&self) -> f64 {
        f64::from_bits(self.bits.load(Relaxed))
    }
}

struct HistoCells {
    buckets: Vec<AtomicU64>, // BUCKETS entries
    sum: AtomicU64,
    max: AtomicU64,
}

impl HistoCells {
    fn new() -> Self {
        Self {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// Handle to a registered log-linear histogram.
#[derive(Clone)]
pub struct Histo {
    cells: Arc<HistoCells>,
}

impl Histo {
    fn new() -> Self {
        Self { cells: Arc::new(HistoCells::new()) }
    }

    /// Record one sample (lock-free, relaxed).
    #[inline]
    pub fn record(&self, v: u64) {
        self.cells.buckets[bucket_index(v)].fetch_add(1, Relaxed);
        self.cells.sum.fetch_add(v, Relaxed);
        self.cells.max.fetch_max(v, Relaxed);
    }

    /// Record a microsecond duration, as [`Histogram::record_us`] does.
    #[inline]
    pub fn record_us(&self, us: f64) {
        self.record(us as u64);
    }
}

enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histo(Histo),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histo(_) => "histogram",
        }
    }
}

/// The process-wide metric table: named counters, gauges and histograms.
///
/// Registration is `Mutex`-guarded (cold, once per site); the returned
/// handles record lock-free. [`MetricsRegistry::snapshot`] reads every
/// metric without stopping recorders.
#[derive(Default)]
pub struct MetricsRegistry {
    table: Mutex<BTreeMap<String, Metric>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register (or look up) the counter `name`.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different metric kind —
    /// a static-site registration bug, not a runtime condition.
    pub fn counter(&self, name: &str) -> Counter {
        let mut table = self.table.lock().expect("metrics registry poisoned");
        match table.entry(name.to_string()).or_insert_with(|| Metric::Counter(Counter::new())) {
            Metric::Counter(c) => c.clone(),
            other => panic!("metric {name:?} already registered as a {}", other.kind()),
        }
    }

    /// Register (or look up) the gauge `name`.
    ///
    /// # Panics
    /// Panics on a metric-kind conflict (see [`MetricsRegistry::counter`]).
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut table = self.table.lock().expect("metrics registry poisoned");
        match table.entry(name.to_string()).or_insert_with(|| Metric::Gauge(Gauge::new())) {
            Metric::Gauge(g) => g.clone(),
            other => panic!("metric {name:?} already registered as a {}", other.kind()),
        }
    }

    /// Register (or look up) the histogram `name`.
    ///
    /// # Panics
    /// Panics on a metric-kind conflict (see [`MetricsRegistry::counter`]).
    pub fn histogram(&self, name: &str) -> Histo {
        let mut table = self.table.lock().expect("metrics registry poisoned");
        match table.entry(name.to_string()).or_insert_with(|| Metric::Histo(Histo::new())) {
            Metric::Histo(h) => h.clone(),
            other => panic!("metric {name:?} already registered as a {}", other.kind()),
        }
    }

    /// Read every metric. Concurrent recording keeps running; each cell is
    /// read with a relaxed load, so all values are monotonic across
    /// successive snapshots of the same registry.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let table = self.table.lock().expect("metrics registry poisoned");
        let metrics = table
            .iter()
            .map(|(name, m)| {
                let value = match m {
                    Metric::Counter(c) => MetricValue::Counter(c.value()),
                    Metric::Gauge(g) => MetricValue::Gauge(g.value()),
                    Metric::Histo(h) => MetricValue::Histogram(Histogram::from_parts(
                        h.cells.sum.load(Relaxed),
                        h.cells.max.load(Relaxed),
                        h.cells.buckets.iter().map(|c| c.load(Relaxed)).collect(),
                    )),
                };
                (name.clone(), value)
            })
            .collect();
        MetricsSnapshot { metrics }
    }

    /// Fold a JSON report (any `to_json()` output in the workspace) into
    /// registry metrics under `prefix`:
    ///
    /// * non-negative integers become counter adds (`prefix_key`),
    /// * floats and booleans become gauges,
    /// * nested objects recurse with `prefix_key_` prepended,
    /// * arrays contribute an element-count counter (`prefix_key_count`),
    /// * strings and nulls are skipped (identity, not measurement).
    ///
    /// This is how crates that record nothing typed (salvage reports,
    /// failure reports, hw-model stats) land their reports in the registry;
    /// the telemetry families record themselves (`TurboCounters::record`).
    pub fn absorb(&self, prefix: &str, v: &JsonValue) {
        let JsonValue::Object(fields) = v else { return };
        for (key, val) in fields {
            let name = format!("{prefix}_{key}");
            match val {
                JsonValue::Int(i) if *i >= 0 => self.counter(&name).add(*i as u64),
                JsonValue::UInt(u) => self.counter(&name).add(*u),
                JsonValue::Int(i) => self.gauge(&name).set(*i as f64),
                JsonValue::Float(f) => self.gauge(&name).set(*f),
                JsonValue::Bool(b) => self.gauge(&name).set(f64::from(*b)),
                JsonValue::Object(_) => self.absorb(&name, val),
                JsonValue::Array(items) => {
                    self.counter(&format!("{name}_count")).add(items.len() as u64);
                }
                JsonValue::Null | JsonValue::Str(_) => {}
            }
        }
    }
}

/// One metric's value inside a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Monotonic counter total.
    Counter(u64),
    /// Last-write-wins gauge.
    Gauge(f64),
    /// Histogram state.
    Histogram(Histogram),
}

/// A point-in-time reading of every registered metric, sorted by name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// `(name, value)` rows, ascending by name.
    pub metrics: Vec<(String, MetricValue)>,
}

impl MetricsSnapshot {
    /// Look up one metric.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.metrics
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| &self.metrics[i].1)
    }

    /// Counter total for `name` (0 when absent or not a counter).
    pub fn counter(&self, name: &str) -> u64 {
        match self.get(name) {
            Some(MetricValue::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// Merge another snapshot (e.g. from a different process or run) into
    /// this one: counters add, gauges last-write-win, histograms merge.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        let mut table: BTreeMap<String, MetricValue> =
            self.metrics.drain(..).collect::<Vec<_>>().into_iter().collect();
        for (name, value) in &other.metrics {
            match (table.get_mut(name), value) {
                (Some(MetricValue::Counter(a)), MetricValue::Counter(b)) => {
                    *a = a.saturating_add(*b);
                }
                (Some(MetricValue::Gauge(a)), MetricValue::Gauge(b)) => *a = *b,
                (Some(MetricValue::Histogram(a)), MetricValue::Histogram(b)) => a.merge(b),
                (Some(_), _) => {} // kind conflict: keep ours
                (None, v) => {
                    table.insert(name.clone(), v.clone());
                }
            }
        }
        self.metrics = table.into_iter().collect();
    }

    /// Per-metric `self - earlier`, saturating at zero, for rate
    /// computation between periodic snapshots. Gauges keep their current
    /// value; metrics absent from `earlier` keep their full value.
    pub fn delta(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let old: BTreeMap<&str, &MetricValue> =
            earlier.metrics.iter().map(|(n, v)| (n.as_str(), v)).collect();
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value)| {
                let value = match (value, old.get(name.as_str())) {
                    (MetricValue::Counter(a), Some(MetricValue::Counter(b))) => {
                        MetricValue::Counter(a.saturating_sub(*b))
                    }
                    (MetricValue::Histogram(a), Some(MetricValue::Histogram(b))) => {
                        MetricValue::Histogram(a.delta(b))
                    }
                    (v, _) => (*v).clone(),
                };
                (name.clone(), value)
            })
            .collect();
        MetricsSnapshot { metrics }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::obj;

    #[test]
    fn counters_and_gauges_register_once_and_accumulate() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("frames_total");
        let b = reg.counter("frames_total");
        a.add(2);
        b.inc();
        assert_eq!(a.value(), 3);
        let g = reg.gauge("ratio");
        g.set(2.5);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("frames_total"), 3);
        assert_eq!(snap.get("ratio"), Some(&MetricValue::Gauge(2.5)));
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_conflicts_panic() {
        let reg = MetricsRegistry::new();
        reg.counter("x");
        reg.gauge("x");
    }

    #[test]
    fn histogram_snapshot_quantiles_and_counts() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("lat");
        for v in 1..=100u64 {
            h.record(v);
        }
        let snap = reg.snapshot();
        let Some(MetricValue::Histogram(hs)) = snap.get("lat") else { panic!("missing") };
        assert_eq!(hs.count(), 100);
        assert_eq!(hs.sum, 5050);
        assert_eq!(hs.max, 100);
        let p50 = hs.quantile(0.5);
        assert!(bucket_index(p50) == bucket_index(50), "p50 bucket: {p50}");
        let p99 = hs.quantile(0.99);
        assert!(bucket_index(p99) == bucket_index(99), "p99 bucket: {p99}");
    }

    #[test]
    fn snapshot_delta_saturates_and_merge_adds() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("n");
        let h = reg.histogram("h");
        c.add(5);
        h.record(10);
        let first = reg.snapshot();
        c.add(7);
        h.record(10);
        h.record(1000);
        let second = reg.snapshot();
        let d = second.delta(&first);
        assert_eq!(d.counter("n"), 7);
        let Some(MetricValue::Histogram(dh)) = d.get("h") else { panic!("missing") };
        assert_eq!(dh.count(), 2);

        let mut merged = first.clone();
        merged.merge(&d);
        assert_eq!(merged.counter("n"), 12);
        let Some(MetricValue::Histogram(mh)) = merged.get("h") else { panic!("missing") };
        assert_eq!(mh.count(), 3);
    }

    #[test]
    fn absorb_folds_nested_reports_into_counters() {
        let reg = MetricsRegistry::new();
        let report = obj([
            ("frames_recovered", 3u64.into()),
            ("intact", false.into()),
            (
                "lost",
                JsonValue::Array(vec![
                    JsonValue::Object(Vec::new()),
                    JsonValue::Object(Vec::new()),
                ]),
            ),
            ("trailer", obj([("frames", 9u64.into())])),
            ("name", "ignored".into()),
        ]);
        reg.absorb("salvage", &report);
        reg.absorb("salvage", &report);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("salvage_frames_recovered"), 6);
        assert_eq!(snap.counter("salvage_lost_count"), 4);
        assert_eq!(snap.counter("salvage_trailer_frames"), 18);
        assert_eq!(snap.get("salvage_intact"), Some(&MetricValue::Gauge(0.0)));
        assert!(snap.get("salvage_name").is_none());
    }

    /// Record `samples` into a fresh histogram and snapshot it.
    fn snap_of(samples: &[u64]) -> Histogram {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("h");
        for &v in samples {
            h.record(v);
        }
        let snap = reg.snapshot();
        let Some(MetricValue::Histogram(hs)) = snap.get("h") else { panic!("missing histogram") };
        hs.clone()
    }

    /// Deterministic LCG sample set spanning many octaves (shift keeps the
    /// magnitudes spread without overflowing the sum cell).
    fn lcg_samples(seed: u64, n: usize) -> Vec<u64> {
        let mut x = seed;
        (0..n)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (x >> 32) >> (x % 30)
            })
            .collect()
    }

    #[test]
    fn histogram_merge_is_associative_and_commutative() {
        let (a, b, c) = (lcg_samples(1, 500), lcg_samples(2, 500), lcg_samples(3, 500));
        let (sa, sb, sc) = (snap_of(&a), snap_of(&b), snap_of(&c));

        // Commutative: a+b == b+a.
        let mut ab = sa.clone();
        ab.merge(&sb);
        let mut ba = sb.clone();
        ba.merge(&sa);
        assert_eq!(ab, ba);

        // Associative: (a+b)+c == a+(b+c).
        let mut ab_c = ab.clone();
        ab_c.merge(&sc);
        let mut bc = sb.clone();
        bc.merge(&sc);
        let mut a_bc = sa.clone();
        a_bc.merge(&bc);
        assert_eq!(ab_c, a_bc);

        // And both equal recording every sample into one histogram.
        let all: Vec<u64> = a.into_iter().chain(b).chain(c).collect();
        assert_eq!(ab_c, snap_of(&all));
    }

    #[test]
    fn concurrent_recording_keeps_snapshots_monotone() {
        use std::sync::atomic::AtomicBool;
        let reg = Arc::new(MetricsRegistry::new());
        let stop = Arc::new(AtomicBool::new(false));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let c = reg.counter("events");
            let h = reg.histogram("lat");
            let stop = stop.clone();
            handles.push(std::thread::spawn(move || {
                let mut v = 1u64;
                while !stop.load(Relaxed) {
                    c.inc();
                    h.record(v % 5000);
                    v = v.wrapping_mul(6364136223846793005).wrapping_add(1);
                }
            }));
        }
        let mut last = reg.snapshot();
        for _ in 0..50 {
            let now = reg.snapshot();
            let d = now.delta(&last);
            // Every per-metric, per-bucket delta is non-negative by
            // construction; assert the headline counters advance sanely.
            assert!(now.counter("events") >= last.counter("events"));
            let Some(MetricValue::Histogram(dh)) = d.get("lat") else { panic!("missing") };
            assert!(dh.buckets().all(|(_, n)| n < u64::MAX / 2), "wrapped delta");
            last = now;
        }
        stop.store(true, Relaxed);
        for h in handles {
            h.join().unwrap();
        }
    }
}
