//! Lock-free metrics: counters, gauges, log2 histograms, and snapshots.
//!
//! Handles are `Arc`s resolved once from the process-global [`Registry`]
//! (allocating, done at construction time) and then recorded through
//! with single atomic RMWs (never allocating) — the discipline that
//! keeps the instrumented batched-call wire path at zero allocations
//! per call. A snapshot sums each name's shared counter and the
//! counters owners keep of their own ([`counters!`](crate::counters)).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{fence, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Number of histogram buckets. Bucket `0` counts zero-valued samples;
/// bucket `i >= 1` counts samples in `[2^(i-1), 2^i)`; the last bucket
/// absorbs everything larger.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A monotonically increasing atomic counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Add `n` with a load and a store instead of a read-modify-write,
    /// for an owner's own counter whose adds a lock the owner holds
    /// anyway already serializes. Adds that race each other here can
    /// be lost; a reader still sees a whole value.
    #[inline]
    pub fn add_exclusive(&self, n: u64) {
        let total = self.0.load(Ordering::Relaxed).wrapping_add(n);
        self.0.store(total, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An atomic signed gauge (a level, not a rate).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Overwrite the level.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adjust the level by `delta` (may be negative).
    pub fn adjust(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current level.
    #[must_use]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket log2 histogram: 64 power-of-two buckets plus a running
/// sum. `observe` is two relaxed atomic adds; the count is the buckets'
/// sum, so a snapshot's count always agrees with its buckets.
#[derive(Debug)]
pub struct Histogram {
    sum: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

/// Bucket index for a sample: 0 for 0, else bit length clamped to the
/// last bucket.
fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        ((64 - v.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
    }
}

/// Inclusive upper bound of bucket `i` (the value reported for
/// percentiles falling in that bucket).
fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            sum: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl Histogram {
    /// Record one sample.
    pub fn observe(&self, v: u64) {
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Samples recorded so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    fn snap(&self) -> HistogramSnapshot {
        let buckets = self.buckets.iter().map(|b| b.load(Ordering::Relaxed));
        HistogramSnapshot::new(self.sum.load(Ordering::Relaxed), buckets.collect())
    }
}

/// Point-in-time copy of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Total samples: the sum of `buckets`.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Per-bucket counts ([`HISTOGRAM_BUCKETS`] entries).
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// A snapshot of `buckets` whose count is theirs.
    fn new(sum: u64, buckets: Vec<u64>) -> HistogramSnapshot {
        let count = buckets.iter().sum();
        HistogramSnapshot {
            count,
            sum,
            buckets,
        }
    }

    /// Mean sample value (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            {
                self.sum as f64 / self.count as f64
            }
        }
    }

    /// The median and 99th percentile every report prints, each as the
    /// upper bound of the bucket holding it; 0 when empty. Log2 buckets
    /// make these exact to within a factor of two, which is what a
    /// tripwire needs.
    #[must_use]
    pub fn p50_p99(&self) -> (u64, u64) {
        (self.percentile(0.50), self.percentile(0.99))
    }

    /// Upper bound of the bucket holding quantile `p` (`0.0 ..= 1.0`).
    fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        #[allow(
            clippy::cast_precision_loss,
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss
        )]
        let rank = ((self.count as f64) * p.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                return bucket_upper(i);
            }
        }
        bucket_upper(HISTOGRAM_BUCKETS - 1)
    }

    fn delta(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let zero = vec![0u64; HISTOGRAM_BUCKETS];
        let before = if earlier.buckets.len() == self.buckets.len() {
            &earlier.buckets
        } else {
            &zero
        };
        let buckets = self
            .buckets
            .iter()
            .zip(before)
            .map(|(a, b)| a.saturating_sub(*b));
        HistogramSnapshot::new(self.sum.saturating_sub(earlier.sum), buckets.collect())
    }
}

enum Metric {
    Counter(CounterFamily),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// A name's shared counter, which dropped instances fold into, and its live ones.
#[derive(Default)]
struct CounterFamily {
    shared: Arc<Counter>,
    instances: Vec<Arc<Counter>>,
}

impl CounterFamily {
    /// Fold the instances only we still hold into `shared`; the total.
    fn fold(&mut self) -> u64 {
        let shared = &self.shared;
        self.instances.retain(|c| {
            Arc::strong_count(c) > 1 || {
                fence(Ordering::Acquire); // the owner's last adds are in
                shared.add(c.get());
                false
            }
        });
        shared.get() + self.instances.iter().map(|c| c.get()).sum::<u64>()
    }
}

/// A named collection of metrics. Normally accessed through the
/// process-global [`registry`]; separate instances exist for tests.
#[derive(Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl Registry {
    /// A fresh, empty registry.
    #[must_use]
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Get or create the counter named `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric
    /// kind — instrumentation names are a static catalog (DESIGN.md §7)
    /// and a kind clash is a programming error.
    #[must_use]
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.family(name, |f| Arc::clone(&f.shared))
    }

    /// A new counter of one owner's own, in `name`'s total also after it
    /// is dropped (folded into the shared counter when `name` registers
    /// or the registry is snapshotted). Panics as [`Registry::counter`].
    pub fn instance(&self, name: &str) -> Arc<Counter> {
        self.family(name, |f| {
            f.fold();
            f.instances.push(Arc::default());
            Arc::clone(&f.instances[f.instances.len() - 1])
        })
    }

    /// Instances the registry holds under `name`: the live ones and those
    /// dropped since `name` last registered or the registry was
    /// snapshotted.
    #[must_use]
    pub fn instances(&self, name: &str) -> usize {
        self.family(name, |f| f.instances.len())
    }

    fn family<T>(&self, name: &str, get: impl FnOnce(&mut CounterFamily) -> T) -> T {
        let new = || Metric::Counter(CounterFamily::default());
        self.metric(name, new, |m| match m {
            Metric::Counter(f) => Some(get(f)),
            _ => None,
        })
    }

    /// Get or create the metric `name` (made by `new`) and read it with
    /// `get`, which returns `None` on a kind clash. The key is allocated
    /// only when `name` is new.
    fn metric<T>(
        &self,
        name: &str,
        new: impl FnOnce() -> Metric,
        get: impl FnOnce(&mut Metric) -> Option<T>,
    ) -> T {
        let mut m = self.metrics.lock().unwrap_or_else(|e| e.into_inner());
        let got = match m.get_mut(name) {
            Some(metric) => get(metric),
            None => get(m.entry(name.to_string()).or_insert_with(new)),
        };
        got.unwrap_or_else(|| panic!("metric {name:?} already registered with a different kind"))
    }

    /// Get or create the gauge named `name`.
    ///
    /// # Panics
    ///
    /// Panics on a metric-kind clash, as for [`Registry::counter`].
    #[must_use]
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let new = || Metric::Gauge(Arc::default());
        self.metric(name, new, |m| match m {
            Metric::Gauge(g) => Some(Arc::clone(g)),
            _ => None,
        })
    }

    /// Get or create the histogram named `name`.
    ///
    /// # Panics
    ///
    /// Panics on a metric-kind clash, as for [`Registry::counter`].
    #[must_use]
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let new = || Metric::Histogram(Arc::default());
        self.metric(name, new, |m| match m {
            Metric::Histogram(h) => Some(Arc::clone(h)),
            _ => None,
        })
    }

    /// A consistent point-in-time copy of every registered metric.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut m = self.metrics.lock().unwrap_or_else(|e| e.into_inner());
        MetricsSnapshot {
            values: m
                .iter_mut()
                .map(|(name, metric)| {
                    let v = match metric {
                        Metric::Counter(f) => MetricValue::Counter(f.fold()),
                        Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                        Metric::Histogram(h) => MetricValue::Histogram(h.snap()),
                    };
                    (name.clone(), v)
                })
                .collect(),
        }
    }
}

/// One metric's value inside a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricValue {
    /// Counter value.
    Counter(u64),
    /// Gauge level.
    Gauge(i64),
    /// Histogram copy.
    Histogram(HistogramSnapshot),
}

/// Point-in-time values of every metric, ordered by name.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    values: BTreeMap<String, MetricValue>,
}

impl MetricsSnapshot {
    /// These counter values: an owner's reading, or a prediction of one.
    pub fn from_counters<'a>(counters: impl IntoIterator<Item = (&'a str, u64)>) -> Self {
        let counter = |(n, v): (&str, u64)| (n.to_string(), MetricValue::Counter(v));
        let values = counters.into_iter().map(counter).collect();
        MetricsSnapshot { values }
    }

    /// Counter value, or 0 when absent.
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        match self.values.get(name) {
            Some(MetricValue::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// Gauge level, or 0 when absent.
    #[must_use]
    pub fn gauge(&self, name: &str) -> i64 {
        match self.values.get(name) {
            Some(MetricValue::Gauge(v)) => *v,
            _ => 0,
        }
    }

    /// Histogram copy, when present.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        match self.values.get(name) {
            Some(MetricValue::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// Iterate `(name, value)` in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &MetricValue)> {
        self.values.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// `self − earlier`: what happened between two snapshots. Counters
    /// and histograms subtract (saturating); gauges keep the later
    /// level, since a level has no meaningful difference over time for
    /// the assertions tests make. Metrics absent from `earlier` pass
    /// through unchanged.
    #[must_use]
    pub fn delta(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            values: self
                .values
                .iter()
                .map(|(name, v)| {
                    let dv = match (v, earlier.values.get(name)) {
                        (MetricValue::Counter(a), Some(MetricValue::Counter(b))) => {
                            MetricValue::Counter(a.saturating_sub(*b))
                        }
                        (MetricValue::Histogram(a), Some(MetricValue::Histogram(b))) => {
                            MetricValue::Histogram(a.delta(b))
                        }
                        (other, _) => other.clone(),
                    };
                    (name.clone(), dv)
                })
                .collect(),
        }
    }

    /// Render as one JSON object: counters and gauges as numbers,
    /// histograms as `{"count":..,"sum":..,"p50":..,"p99":..}`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, v)) in self.values.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{:?}:", name);
            match v {
                MetricValue::Counter(c) => {
                    let _ = write!(out, "{c}");
                }
                MetricValue::Gauge(g) => {
                    let _ = write!(out, "{g}");
                }
                MetricValue::Histogram(h) => {
                    let (p50, p99) = h.p50_p99();
                    let _ = write!(
                        out,
                        "{{\"count\":{},\"sum\":{},\"mean\":{:.1},\"p50\":{p50},\"p99\":{p99}}}",
                        h.count,
                        h.sum,
                        h.mean(),
                    );
                }
            }
        }
        out.push('}');
        out
    }
}

/// The process-global registry all instrumentation points use.
pub fn registry() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// Get or create a counter in the global registry.
#[must_use]
pub fn counter(name: &str) -> Arc<Counter> {
    registry().counter(name)
}

/// Declare an owner's own counters: a struct of [`Registry::instance`]s
/// with `register()` to make a set and `metrics()` to read it by name.
#[macro_export]
macro_rules! counters {
    ($(#[$m:meta])* struct $name:ident
        { $($(#[$fm:meta])* $field:ident: $metric:literal),* $(,)? }) => {
        $(#[$m])*
        struct $name { $($(#[$fm])* $field: ::std::sync::Arc<$crate::Counter>,)* }
        impl $name {
            fn register() -> $name {
                $name { $($field: $crate::registry().instance($metric),)* }
            }
            fn metrics(&self) -> $crate::MetricsSnapshot {
                $crate::MetricsSnapshot::from_counters([$(($metric, self.$field.get())),*])
            }
        }
    };
}

/// Declare process-wide metric handles: each `fn f() -> &'static Ty`
/// resolves the global registry's metric once, so counting on a hot path
/// neither allocates nor takes the registry's lock.
#[macro_export]
macro_rules! handles {
    ($($(#[$m:meta])* $vis:vis fn $f:ident() -> $ty:ident = $make:ident($name:literal);)*) => {$(
        $(#[$m])*
        $vis fn $f() -> &'static $crate::$ty {
            static H: ::std::sync::OnceLock<::std::sync::Arc<$crate::$ty>> =
                ::std::sync::OnceLock::new();
            H.get_or_init(|| $crate::$make($name))
        }
    )*};
}

/// Get or create a gauge in the global registry.
#[must_use]
pub fn gauge(name: &str) -> Arc<Gauge> {
    registry().gauge(name)
}

/// Get or create a histogram in the global registry.
#[must_use]
pub fn histogram(name: &str) -> Arc<Histogram> {
    registry().histogram(name)
}

/// Snapshot the global registry.
#[must_use]
pub fn snapshot() -> MetricsSnapshot {
    registry().snapshot()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_record() {
        let r = Registry::new();
        let c = r.counter("test.count");
        c.inc();
        c.add(4);
        let g = r.gauge("test.level");
        g.set(10);
        g.adjust(-3);
        let snap = r.snapshot();
        assert_eq!(snap.counter("test.count"), 5);
        assert_eq!(snap.gauge("test.level"), 7);
        assert_eq!(snap.counter("missing"), 0);
    }

    #[test]
    fn handles_alias_the_same_metric() {
        let r = Registry::new();
        r.counter("shared").inc();
        r.counter("shared").inc();
        assert_eq!(r.snapshot().counter("shared"), 2);
    }

    #[test]
    fn instances_sum_into_the_snapshot_and_outlive_their_owner() {
        let r = Registry::new();
        r.counter("i.count").add(1);
        let a = r.instance("i.count");
        let b = r.instance("i.count");
        a.add(10);
        b.add(100);
        assert_eq!((a.get(), b.get()), (10, 100), "each reads its own");
        assert_eq!(r.snapshot().counter("i.count"), 111);
        let before = r.snapshot();
        drop(a);
        b.inc();
        assert_eq!(r.snapshot().counter("i.count"), 112, "a's count stays");
        assert_eq!(r.snapshot().delta(&before).counter("i.count"), 1);
    }

    /// Instances the registry holds under `name`.
    fn held(r: &Registry, name: &str) -> usize {
        r.family(name, |f| f.instances.len())
    }

    #[test]
    fn the_registry_holds_only_live_instances() {
        let r = Registry::new();
        let live: Vec<_> = (0..3).map(|_| r.instance("i.live")).collect();
        for _ in 0..10_000 {
            r.instance("i.live").add(2);
            assert!(held(&r, "i.live") <= live.len() + 1);
        }
        live.iter().for_each(|c| c.inc());
        assert_eq!(r.snapshot().counter("i.live"), 20_003);
        assert_eq!(held(&r, "i.live"), live.len());
    }

    #[test]
    fn snapshots_never_decrease_while_instances_come_and_go() {
        const THREADS: u64 = 4;
        const ROUNDS: u64 = 2_000;
        let r = Arc::new(Registry::new());
        let workers: Vec<_> = (0..THREADS)
            .map(|_| {
                let r = Arc::clone(&r);
                std::thread::spawn(move || {
                    for i in 0..ROUNDS {
                        let c = r.instance("i.churn");
                        c.add(i % 7 + 1);
                    }
                })
            })
            .collect();
        let mut last = 0;
        while workers.iter().any(|w| !w.is_finished()) {
            let now = r.snapshot().counter("i.churn");
            assert!(now >= last, "snapshot went from {last} to {now}");
            last = now;
        }
        workers.into_iter().for_each(|w| w.join().unwrap());
        let total: u64 = (0..ROUNDS).map(|i| i % 7 + 1).sum::<u64>() * THREADS;
        assert_eq!(r.snapshot().counter("i.churn"), total);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_clash_panics() {
        let r = Registry::new();
        let _c = r.counter("clash");
        let _g = r.gauge("clash");
    }

    #[test]
    fn histogram_buckets_are_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);

        let r = Registry::new();
        let h = r.histogram("test.hist");
        for v in [0, 1, 2, 3, 100, 1000] {
            h.observe(v);
        }
        let snap = r.snapshot();
        let hs = snap.histogram("test.hist").unwrap();
        assert_eq!(hs.count, 6);
        assert_eq!(hs.sum, 1106);
        assert_eq!(hs.buckets.iter().sum::<u64>(), 6);
    }

    #[test]
    fn a_histogram_snapshot_counts_what_its_buckets_hold() {
        let r = Registry::new();
        let h = r.histogram("race");
        let done = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut v = 0u64;
                while !done.load(Ordering::Relaxed) {
                    h.observe(v % 1000);
                    v += 1;
                }
            });
            let observers: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        (0..20_000)
                            .filter(|_| {
                                let snap = r.snapshot();
                                let hs = snap.histogram("race").expect("registered");
                                hs.count != hs.buckets.iter().sum::<u64>()
                            })
                            .count()
                    })
                })
                .collect();
            let torn: Vec<usize> = observers.into_iter().map(|o| o.join().unwrap()).collect();
            done.store(true, Ordering::Relaxed);
            assert_eq!(
                torn,
                [0, 0],
                "snapshots whose count is not their buckets' sum"
            );
        });
        assert_eq!(h.count(), r.snapshot().histogram("race").unwrap().count);
    }

    #[test]
    fn percentiles_land_in_the_right_bucket() {
        let r = Registry::new();
        let h = r.histogram("p");
        for _ in 0..99 {
            h.observe(10); // bucket [8, 16)
        }
        h.observe(1_000_000); // the outlier
        let snap = r.snapshot();
        let hs = snap.histogram("p").unwrap();
        assert_eq!(hs.percentile(0.50), 15);
        assert!(hs.percentile(0.995) >= 1_000_000);
        assert_eq!(hs.percentile(0.0), 15); // rank clamps to the first sample
    }

    #[test]
    fn delta_subtracts_counters_and_histograms() {
        let r = Registry::new();
        let c = r.counter("d.count");
        let h = r.histogram("d.hist");
        c.add(10);
        h.observe(5);
        let before = r.snapshot();
        c.add(7);
        h.observe(50);
        h.observe(50);
        let after = r.snapshot();
        let d = after.delta(&before);
        assert_eq!(d.counter("d.count"), 7);
        let dh = d.histogram("d.hist").unwrap();
        assert_eq!(dh.count, 2);
        assert_eq!(dh.sum, 100);
    }

    #[test]
    fn json_is_well_formed_enough() {
        let r = Registry::new();
        r.counter("a").inc();
        r.gauge("b").set(-2);
        r.histogram("c").observe(9);
        let json = r.snapshot().to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"a\":1"));
        assert!(json.contains("\"b\":-2"));
        assert!(json.contains("\"count\":1"));
    }
}
