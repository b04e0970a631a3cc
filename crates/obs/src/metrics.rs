//! Metrics: named atomic counters, gauges, and log-linear-bucket latency
//! histograms, collected into point-in-time snapshots.
//!
//! Registration is lock-protected but recording is lock-free: looking up
//! a metric by name takes a read lock and a `BTreeMap` walk, and hands
//! back a `&'static` reference to its atomics. A registry never drops an
//! entry ([`MetricsRegistry::reset`] zeroes in place), so a handle stays
//! valid for the life of the process. The [`counter!`](crate::counter),
//! [`gauge!`](crate::gauge), [`histogram!`](crate::histogram) and
//! [`span!`](crate::span!) macros resolve
//! their metric in the [`global`] registry once per call site and keep
//! the handle in a site-local `static`: steady state is one atomic load
//! of that cell, then plain atomic ops. Only names built at run time
//! pay the by-name lookup on every call.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{OnceLock, RwLock};

use crate::json::Json;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `delta`.
    pub fn add(&self, delta: u64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Adds one.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a signed value that can move both ways.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Sets the value.
    pub fn set(&self, value: i64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Linear sub-buckets per power of two: a bucket spans at most an
/// eighth of its smallest value.
const SUB: u64 = 8;

/// Number of histogram buckets: values below [`SUB`] have one bucket
/// each, and every power-of-two range `[2^b, 2^(b+1))` from `b = 3` up to
/// `b = 63` is cut into [`SUB`] equal sub-buckets (HDR-style log-linear
/// layout; 496 × 8 B ≈ 3.9 KiB of counters per histogram).
pub const BUCKETS: usize = (SUB as usize) * (u64::BITS as usize - 2);

/// A fixed-bucket latency histogram over `u64` values (nanoseconds by
/// convention). Buckets are log-linear — the top four bits of a value
/// pick its bucket, so `leading_zeros`, a shift and a mask give the index
/// in a handful of cycles, no configuration is needed for values
/// spanning 100 ns to minutes, and a percentile read off a bucket bound
/// is at most 12.5 % above the value it stands for.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    fn bucket_index(value: u64) -> usize {
        if value < SUB {
            return value as usize;
        }
        // The value's top four bits: a leading one and a 3-bit sub-bucket.
        let shift = u64::BITS - 4 - value.leading_zeros();
        ((shift as usize + 1) << 3) | ((value >> shift) & (SUB - 1)) as usize
    }

    /// The largest value bucket `index` holds, used as its representative
    /// value in percentile estimates and in exported bucket tables: at
    /// most 12.5 % above any value in the bucket, exact below 16.
    pub fn bucket_bound(index: usize) -> u64 {
        let index = index.min(BUCKETS - 1);
        if index < SUB as usize {
            return index as u64;
        }
        let shift = (index >> 3) - 1;
        let low = (SUB | (index as u64 & (SUB - 1))) << shift;
        low + ((1u64 << shift) - 1)
    }

    /// Records one observation.
    pub fn record(&self, value: u64) {
        self.buckets[Self::bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A consistent-enough copy for reporting (individual loads are
    /// relaxed; exactness across concurrent writers is not required).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; BUCKETS];
        for (slot, bucket) in buckets.iter_mut().zip(&self.buckets) {
            *slot = bucket.load(Ordering::Relaxed);
        }
        let count: u64 = buckets.iter().sum();
        let sum = self.sum.load(Ordering::Relaxed);
        let percentile = |q: f64| -> u64 {
            if count == 0 {
                return 0;
            }
            let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
            let mut seen = 0u64;
            for (i, &c) in buckets.iter().enumerate() {
                seen += c;
                if seen >= rank {
                    return Self::bucket_bound(i);
                }
            }
            Self::bucket_bound(BUCKETS - 1)
        };
        HistogramSnapshot {
            count,
            sum,
            mean: if count == 0 {
                0.0
            } else {
                sum as f64 / count as f64
            },
            max: self.max.load(Ordering::Relaxed),
            p50: percentile(0.50),
            p95: percentile(0.95),
            p99: percentile(0.99),
            buckets,
        }
    }
}

/// A point-in-time view of one histogram.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Sum of all observations.
    pub sum: u64,
    /// Mean observation.
    pub mean: f64,
    /// Largest observation.
    pub max: u64,
    /// Median (nearest rank), as the upper bound of its bucket.
    pub p50: u64,
    /// 95th percentile, as the upper bound of its bucket.
    pub p95: u64,
    /// 99th percentile, as the upper bound of its bucket.
    pub p99: u64,
    /// Raw per-bucket observation counts (`buckets[i]` covers the values
    /// up to [`Histogram::bucket_bound`]`(i)` above the previous bucket's);
    /// the full latency distribution, not just its summary — audit and
    /// bench consumers export these as breakdowns.
    pub buckets: [u64; BUCKETS],
}

impl HistogramSnapshot {
    /// Non-empty buckets as `(upper_bound, count)` pairs, low to high —
    /// the sparse form used in JSON exports.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (Histogram::bucket_bound(i), c))
    }

    /// The summary plus sparse buckets as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("count", Json::from(self.count)),
            ("sum_ns", Json::from(self.sum)),
            ("mean_ns", Json::Num(self.mean)),
            ("max_ns", Json::from(self.max)),
            ("p50_ns", Json::from(self.p50)),
            ("p95_ns", Json::from(self.p95)),
            ("p99_ns", Json::from(self.p99)),
            (
                "buckets",
                Json::Arr(
                    self.nonzero_buckets()
                        .map(|(bound, count)| Json::Arr(vec![Json::from(bound), Json::from(count)]))
                        .collect(),
                ),
            ),
        ])
    }
}

/// Holds every registered metric. One global instance (see [`global`])
/// serves the whole pipeline; separate instances are useful in tests.
///
/// Entries are leaked on creation and never freed, which is what lets
/// lookups hand out `&'static` handles: a registry is meant to live as
/// long as the process (the global one does; test-local ones register a
/// handful of names).
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: RwLock<BTreeMap<String, &'static Counter>>,
    gauges: RwLock<BTreeMap<String, &'static Gauge>>,
    histograms: RwLock<BTreeMap<String, &'static Histogram>>,
}

/// `std` locks poison on panic; metrics must survive a panicking test
/// thread, so recover the guard (parking_lot semantics).
macro_rules! lock {
    ($guard:expr) => {
        $guard.unwrap_or_else(|e| e.into_inner())
    };
}

/// The entry named `name` in `map`, created (and leaked) on first use.
fn entry<T: Default + Sync>(map: &RwLock<BTreeMap<String, &'static T>>, name: &str) -> &'static T {
    if let Some(&m) = lock!(map.read()).get(name) {
        return m;
    }
    let mut map = lock!(map.write());
    map.entry(name.to_string())
        .or_insert_with(|| Box::leak(Box::default()))
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter named `name`, created on first use. Every call pays
    /// the by-name lookup; a fixed name belongs in
    /// [`counter!`](crate::counter), which pays it once per call site.
    pub fn counter(&self, name: &str) -> &'static Counter {
        entry(&self.counters, name)
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> &'static Gauge {
        entry(&self.gauges, name)
    }

    /// The histogram named `name`, created on first use.
    pub fn histogram(&self, name: &str) -> &'static Histogram {
        entry(&self.histograms, name)
    }

    /// Point-in-time copy of every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: lock!(self.counters.read())
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: lock!(self.gauges.read())
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: lock!(self.histograms.read())
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }

    /// Zeroes every metric (keeps registrations). Intended for tests and
    /// between-run resets in long-lived processes.
    pub fn reset(&self) {
        // In place: handles cached at call sites keep recording into
        // what the next snapshot reports.
        for c in lock!(self.counters.read()).values() {
            c.0.store(0, Ordering::Relaxed);
        }
        for g in lock!(self.gauges.read()).values() {
            g.0.store(0, Ordering::Relaxed);
        }
        for h in lock!(self.histograms.read()).values() {
            for b in &h.buckets {
                b.store(0, Ordering::Relaxed);
            }
            h.count.store(0, Ordering::Relaxed);
            h.sum.store(0, Ordering::Relaxed);
            h.max.store(0, Ordering::Relaxed);
        }
    }
}

/// A point-in-time copy of a whole registry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram summaries by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Counter value, or 0 if never registered.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Histogram summary, if that histogram exists.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// The snapshot as a JSON value (for machine consumers).
    pub fn to_json(&self) -> Json {
        let counters = Json::Obj(
            self.counters
                .iter()
                .map(|(k, v)| (k.clone(), Json::from(*v)))
                .collect(),
        );
        let gauges = Json::Obj(
            self.gauges
                .iter()
                .map(|(k, v)| (k.clone(), Json::Int(*v)))
                .collect(),
        );
        let histograms = Json::Obj(
            self.histograms
                .iter()
                .map(|(k, h)| (k.clone(), h.to_json()))
                .collect(),
        );
        Json::obj([
            ("counters", counters),
            ("gauges", gauges),
            ("histograms", histograms),
        ])
    }

    /// A plain-text rendering for terminals.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for (name, value) in &self.counters {
                let _ = writeln!(out, "  {name:<32} {value:>12}");
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges:\n");
            for (name, value) in &self.gauges {
                let _ = writeln!(out, "  {name:<32} {value:>12}");
            }
        }
        if !self.histograms.is_empty() {
            out.push_str(
                "histograms (ns):                        count         mean          p50          p95          p99\n",
            );
            for (name, h) in &self.histograms {
                let _ = writeln!(
                    out,
                    "  {name:<32} {:>10} {:>12.0} {:>12} {:>12} {:>12}",
                    h.count, h.mean, h.p50, h.p95, h.p99
                );
            }
        }
        out
    }
}

static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();

/// The process-wide registry. Lower pipeline layers record here so
/// callers don't have to thread a registry through every API.
pub fn global() -> &'static MetricsRegistry {
    GLOBAL.get_or_init(MetricsRegistry::new)
}

/// Resolves a [`global`] metric once per call site: `$lookup` is the
/// registry method, `$ty` its handle type. `$name` must be a constant
/// expression (a literal or a `const`), so a cached handle can never
/// stand for a name that changes between calls.
#[doc(hidden)]
#[macro_export]
macro_rules! __site {
    ($lookup:ident, $ty:ty, $name:expr) => {{
        const SITE_NAME: &str = $name;
        static SITE: ::std::sync::OnceLock<&'static $ty> = ::std::sync::OnceLock::new();
        *SITE.get_or_init(|| $crate::global().$lookup(SITE_NAME))
    }};
}

/// The [`global`] counter `name` as a `&'static Counter`, looked up once
/// per call site and cached there: `hka_obs::counter!("ts.requests").incr()`.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {
        $crate::__site!(counter, $crate::Counter, $name)
    };
}

/// The [`global`] gauge `name` as a `&'static Gauge`, looked up once per
/// call site and cached there.
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {
        $crate::__site!(gauge, $crate::Gauge, $name)
    };
}

/// The [`global`] histogram `name` as a `&'static Histogram`, looked up
/// once per call site and cached there.
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {
        $crate::__site!(histogram, $crate::Histogram, $name)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_accumulate() {
        let r = MetricsRegistry::new();
        r.counter("req").add(3);
        r.counter("req").incr();
        r.gauge("depth").set(7);
        r.gauge("depth").add(-2);
        let snap = r.snapshot();
        assert_eq!(snap.counter("req"), 4);
        assert_eq!(snap.gauges["depth"], 5);
        assert_eq!(snap.counter("never"), 0);
    }

    #[test]
    fn histogram_buckets_are_log_linear() {
        for v in 0..16u64 {
            assert_eq!(Histogram::bucket_index(v), v as usize, "exact below 16");
        }
        // 16..32 in steps of 2, 32..64 in steps of 4, …
        assert_eq!(Histogram::bucket_index(17), 16);
        assert_eq!(Histogram::bucket_index(18), 17);
        assert_eq!(Histogram::bucket_index(32), 24);
        assert_eq!(Histogram::bucket_index(1024), 64);
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(u64::MAX), BUCKETS - 1);
        assert_eq!(Histogram::bucket_bound(BUCKETS - 1), u64::MAX);
        assert!(std::mem::size_of::<Histogram>() <= 4096);
    }

    #[test]
    fn bucket_bounds_are_monotone_and_hold_their_bucket() {
        let mut last = None;
        for i in 0..BUCKETS {
            let bound = Histogram::bucket_bound(i);
            assert!(last.is_none_or(|l| bound > l), "bucket {i}");
            assert_eq!(
                Histogram::bucket_index(bound),
                i,
                "bucket {i} holds its bound"
            );
            if let Some(l) = last {
                // The smallest value of the bucket lands in it too, and
                // the bound is within an eighth of it.
                assert_eq!(Histogram::bucket_index(l + 1), i);
                assert!(bound - (l + 1) <= (l + 1) / 8, "bucket {i}");
            }
            last = Some(bound);
        }
    }

    #[test]
    fn histogram_percentiles_are_within_an_eighth_above_nearest_rank() {
        // Uniform, and a long-tailed mix of 1 µs-ish and 100 µs-ish spans.
        let uniform: Vec<u64> = (1..=1000).collect();
        let mut tailed: Vec<u64> = (0..10_000u64).map(|i| 900 + (i * 7919) % 400).collect();
        tailed.extend((0..300u64).map(|i| 60_000 + (i * 104_729) % 90_000));
        tailed.sort_unstable();
        for data in [uniform, tailed] {
            let h = Histogram::default();
            for &v in &data {
                h.record(v);
            }
            let s = h.snapshot();
            assert_eq!(s.count, data.len() as u64);
            assert_eq!(s.sum, data.iter().sum::<u64>());
            assert_eq!(s.max, *data.last().unwrap());
            for (q, got) in [(0.50, s.p50), (0.95, s.p95), (0.99, s.p99)] {
                let rank = (q * data.len() as f64).ceil() as usize;
                let exact = data[rank - 1];
                assert!(
                    got >= exact && got - exact <= exact / 8,
                    "q={q}: {got} vs {exact}"
                );
            }
        }
    }

    #[test]
    fn empty_histogram_snapshot_is_zero() {
        let h = Histogram::default();
        let s = h.snapshot();
        assert_eq!((s.count, s.sum, s.mean, s.p50, s.p99), (0, 0, 0.0, 0, 0));
    }

    #[test]
    fn reset_zeroes_but_keeps_names() {
        let r = MetricsRegistry::new();
        r.counter("a").add(9);
        r.histogram("h").record(100);
        r.reset();
        let snap = r.snapshot();
        assert_eq!(snap.counter("a"), 0);
        assert_eq!(snap.histogram("h").unwrap().count, 0);
    }

    #[test]
    fn snapshot_exposes_raw_buckets_consistent_with_count() {
        let h = Histogram::default();
        for v in [0u64, 1, 3, 3, 700, 700, 700] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.buckets.iter().sum::<u64>(), s.count);
        assert_eq!(s.buckets[0], 1, "zero lands in bucket 0");
        assert_eq!(s.buckets[1], 1);
        assert_eq!(s.buckets[3], 2);
        // 700 = 0b1010111100: top four bits 1010, shifted by 6.
        assert_eq!(s.buckets[58], 3);
        let sparse: Vec<(u64, u64)> = s.nonzero_buckets().collect();
        assert_eq!(sparse, vec![(0, 1), (1, 1), (3, 2), (703, 3)]);
    }

    #[test]
    fn snapshot_serializes_to_json() {
        let r = MetricsRegistry::new();
        r.counter("x").incr();
        r.histogram("lat").record(2048);
        let json = r.snapshot().to_json();
        assert_eq!(
            json.get("counters").unwrap().get("x").unwrap().as_int(),
            Some(1)
        );
        let lat = json.get("histograms").unwrap().get("lat").unwrap();
        assert_eq!(lat.get("count").unwrap().as_int(), Some(1));
    }

    #[test]
    fn global_registry_is_shared() {
        global().counter("obs.test.global").incr();
        assert!(global().snapshot().counter("obs.test.global") >= 1);
    }
}
