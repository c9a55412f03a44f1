//! Lock-free metrics: [`Counter`]s, [`Gauge`]s, log-bucketed [`Histogram`]s
//! and the [`Registry`] that names, snapshots and renders them.
//!
//! # Design
//!
//! Recording never takes a lock and never panics: every handle is an
//! `Arc`-shared bundle of atomics, so a metrics bug can never take down a
//! serving worker.  The registry itself holds its name→handle maps behind
//! `RwLock`s, but those are touched only on *registration* (first lookup of
//! a name) and on snapshot/render — instrument a hot path by resolving the
//! handle once and recording through it.
//!
//! # Determinism contract
//!
//! Metrics split into two spaces:
//!
//! * **counter-space** — counters and value-valued histograms (batch sizes,
//!   node counts, SAT conflicts).  These are *bit-identical* across
//!   `ELF_THREADS=1/4` for the same workload: counts, sums and per-bucket
//!   totals all match.  [`Snapshot::counter_space_diff`] enforces this.
//! * **wall-clock-space** — histograms whose family name ends in `_us`
//!   carry microsecond samples.  Their *counts* are still deterministic
//!   (one sample per event), but sums and bucket placement follow the
//!   clock and are excluded from the bit-equality contract.
//!
//! Gauges are instantaneous readings (queue depth, cache entries) and take
//! no part in the equality contract.
//!
//! # Examples
//!
//! ```
//! use elf_obs::metrics::Registry;
//!
//! let registry = Registry::new();
//! registry.counter("elf_jobs_served_total").inc();
//! let latency = registry.histogram("elf_job_service_us");
//! latency.record(120);
//! latency.record(95_000);
//! let snap = registry.snapshot();
//! assert_eq!(snap.counters["elf_jobs_served_total"], 1);
//! assert_eq!(snap.histograms["elf_job_service_us"].count, 2);
//! assert!(registry.render_text().contains("elf_jobs_served_total 1"));
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Duration;

/// A monotonically increasing `u64`, shared by cloning.
#[derive(Clone, Debug, Default)]
pub struct Counter {
    value: Arc<AtomicU64>,
}

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// An instantaneous signed reading (queue depth, cache entries), shared by
/// cloning.  Gauges are excluded from the counter-space equality contract.
#[derive(Clone, Debug, Default)]
pub struct Gauge {
    value: Arc<AtomicI64>,
}

impl Gauge {
    /// Overwrites the reading.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adjusts the reading by `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current reading.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Sub-bucket resolution of the histogram: each power-of-two octave splits
/// into `2^SUB_BITS` linear sub-buckets, bounding the quantile error at
/// `2^-SUB_BITS` (12.5 %) of the reported value.
pub const SUB_BITS: u32 = 3;

const SUB_COUNT: usize = 1 << SUB_BITS;

/// Total bucket count: identity buckets for values `< 2^SUB_BITS`, then
/// `SUB_COUNT` sub-buckets for each of the `64 - SUB_BITS` octaves with
/// exponent `SUB_BITS ..= 63` (`8 + 61 * 8 = 496`;
/// `bucket_index(u64::MAX)` is `495`).
pub const NUM_BUCKETS: usize = SUB_COUNT + (64 - SUB_BITS as usize) * SUB_COUNT;

/// The bucket a value lands in: the value itself below `2^SUB_BITS`,
/// otherwise an HDR-style (octave, top-`SUB_BITS`-mantissa-bits) pair.
pub fn bucket_index(value: u64) -> usize {
    if value < SUB_COUNT as u64 {
        value as usize
    } else {
        let exp = 63 - value.leading_zeros();
        let sub = ((value >> (exp - SUB_BITS)) & (SUB_COUNT as u64 - 1)) as usize;
        (exp - SUB_BITS + 1) as usize * SUB_COUNT + sub
    }
}

/// Smallest value that lands in bucket `index` (the value quantiles report).
pub fn bucket_lower_bound(index: usize) -> u64 {
    if index < SUB_COUNT {
        index as u64
    } else {
        let exp = (index / SUB_COUNT) as u32 + SUB_BITS - 1;
        let sub = (index % SUB_COUNT) as u64;
        (1u64 << exp) | (sub << (exp - SUB_BITS))
    }
}

#[derive(Debug)]
struct HistogramInner {
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    buckets: Vec<AtomicU64>,
}

/// A lock-free log-bucketed histogram with exact count/sum/max and
/// 12.5 %-accurate quantiles, shared by cloning.
///
/// # Examples
///
/// ```
/// use elf_obs::metrics::Histogram;
///
/// let h = Histogram::new();
/// for v in [1u64, 2, 3, 1000] {
///     h.record(v);
/// }
/// let snap = h.snapshot("x".to_string());
/// assert_eq!(snap.count, 4);
/// assert_eq!(snap.sum, 1006);
/// assert_eq!(snap.max, 1000);
/// assert_eq!(snap.quantile(0.5), 2);
/// ```
#[derive(Clone, Debug)]
pub struct Histogram {
    inner: Arc<HistogramInner>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            inner: Arc::new(HistogramInner {
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
                max: AtomicU64::new(0),
                buckets: (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            }),
        }
    }

    /// Records one sample.  Lock-free, panic-free, ~4 relaxed atomic ops.
    pub fn record(&self, value: u64) {
        let inner = &self.inner;
        if let Some(bucket) = inner.buckets.get(bucket_index(value)) {
            bucket.fetch_add(1, Ordering::Relaxed);
        }
        inner.sum.fetch_add(value, Ordering::Relaxed);
        inner.count.fetch_add(1, Ordering::Relaxed);
        inner.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Records a wall-clock duration in microseconds (the unit every
    /// `*_us` histogram family carries).
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_micros().min(u64::MAX as u128) as u64);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.inner.count.load(Ordering::Relaxed)
    }

    /// A point-in-time copy named `name` (concurrent recording may make the
    /// copy internally torn by a sample or two; after all writers quiesce it
    /// is exact).
    pub fn snapshot(&self, name: String) -> HistogramSnapshot {
        let inner = &self.inner;
        HistogramSnapshot {
            name,
            count: inner.count.load(Ordering::Relaxed),
            sum: inner.sum.load(Ordering::Relaxed),
            max: inner.max.load(Ordering::Relaxed),
            buckets: inner
                .buckets
                .iter()
                .enumerate()
                .filter_map(|(i, b)| {
                    let n = b.load(Ordering::Relaxed);
                    (n > 0).then(|| (bucket_lower_bound(i), n))
                })
                .collect(),
        }
    }
}

/// A point-in-time copy of one [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Registry name (may carry `{label="…"}` pairs).
    pub name: String,
    /// Total samples.
    pub count: u64,
    /// Sum of all samples (wrapping beyond `u64::MAX`).
    pub sum: u64,
    /// Largest sample, exact.
    pub max: u64,
    /// Non-empty buckets as `(lower_bound, count)` in ascending order.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// The `q`-quantile (`0.0 ..= 1.0`) as the lower bound of the bucket
    /// holding the rank-`⌈q·count⌉` sample, capped at the exact maximum.
    /// Returns 0 on an empty histogram.  Monotone in `q`.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        if rank == self.count {
            return self.max;
        }
        let mut seen = 0u64;
        for &(lower, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return lower.min(self.max);
            }
        }
        self.max
    }

    /// Median sample (bucket-resolution).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// The metric family: the name with any `{label…}` suffix stripped.
    pub fn family(&self) -> &str {
        family_of(&self.name)
    }

    /// Whether this histogram carries wall-clock samples (family ends in
    /// `_us`) and is therefore excluded from sum/bucket bit-equality.
    pub fn is_wall_clock(&self) -> bool {
        self.family().ends_with("_us")
    }
}

fn family_of(name: &str) -> &str {
    name.split('{').next().unwrap_or(name)
}

#[derive(Debug, Default)]
struct RegistryInner {
    counters: RwLock<BTreeMap<String, Counter>>,
    gauges: RwLock<BTreeMap<String, Gauge>>,
    histograms: RwLock<BTreeMap<String, Histogram>>,
}

/// The named-metric registry: resolves handles, snapshots, and renders a
/// Prometheus-style text dump.  Cloning shares the underlying store; use
/// [`Registry::global`] for the process-wide default or [`Registry::new`]
/// for an isolated instance (one per [`ElfService`], one per test).
///
/// [`ElfService`]: https://docs.rs/elf-serve
#[derive(Clone, Debug, Default)]
pub struct Registry {
    inner: Arc<RegistryInner>,
}

fn read_or_recover<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

fn write_or_recover<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(PoisonError::into_inner)
}

fn resolve<M: Clone + Default>(map: &RwLock<BTreeMap<String, M>>, name: &str) -> M {
    if let Some(found) = read_or_recover(map).get(name) {
        return found.clone();
    }
    write_or_recover(map)
        .entry(name.to_string())
        .or_default()
        .clone()
}

/// Formats `name{k="v",…}` (or just `name` without labels) — the key the
/// registry stores a labeled metric under.
pub fn labeled(name: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let mut out = String::with_capacity(name.len() + 16 * labels.len());
    out.push_str(name);
    out.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{k}=\"{v}\"");
    }
    out.push('}');
    out
}

impl Registry {
    /// A fresh, isolated registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// The process-wide default registry (what unattached flows record
    /// into).  Tests that assert exact values should use isolated
    /// [`Registry::new`] instances instead.
    pub fn global() -> Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::new).clone()
    }

    /// The counter registered under `name`, creating it at zero on first
    /// use.  Resolve once, record through the returned handle.
    pub fn counter(&self, name: &str) -> Counter {
        resolve(&self.inner.counters, name)
    }

    /// The counter `name{labels…}`.
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        self.counter(&labeled(name, labels))
    }

    /// The gauge registered under `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        resolve(&self.inner.gauges, name)
    }

    /// The histogram registered under `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        resolve(&self.inner.histograms, name)
    }

    /// The histogram `name{labels…}`.
    pub fn histogram_with(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        self.histogram(&labeled(name, labels))
    }

    /// A point-in-time copy of every registered metric, names sorted.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            counters: read_or_recover(&self.inner.counters)
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: read_or_recover(&self.inner.gauges)
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: read_or_recover(&self.inner.histograms)
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot(k.clone())))
                .collect(),
        }
    }

    /// Prometheus-style text exposition of the whole registry — the string
    /// `ElfService::metrics_text()` serves to a scraper.
    pub fn render_text(&self) -> String {
        self.snapshot().render_text()
    }
}

/// A point-in-time copy of a whole [`Registry`], in name order.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge readings by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram copies by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl Snapshot {
    /// Renders the Prometheus-style text exposition: one `# TYPE` line per
    /// metric family, `_bucket{le=…}`/`_sum`/`_count`/`_max` series per
    /// histogram.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let mut last_family = String::new();
        let mut type_line = |out: &mut String, name: &str, kind: &str| {
            let family = family_of(name);
            if family != last_family {
                let _ = writeln!(out, "# TYPE {family} {kind}");
                last_family = family.to_string();
            }
        };
        for (name, value) in &self.counters {
            type_line(&mut out, name, "counter");
            let _ = writeln!(out, "{name} {value}");
        }
        for (name, value) in &self.gauges {
            type_line(&mut out, name, "gauge");
            let _ = writeln!(out, "{name} {value}");
        }
        for (name, h) in &self.histograms {
            type_line(&mut out, name, "histogram");
            let (base, labels) = match name.split_once('{') {
                Some((base, rest)) => (base, rest.trim_end_matches('}')),
                None => (name.as_str(), ""),
            };
            let with_le = |le: &str| {
                if labels.is_empty() {
                    format!("{base}_bucket{{le=\"{le}\"}}")
                } else {
                    format!("{base}_bucket{{{labels},le=\"{le}\"}}")
                }
            };
            let mut cumulative = 0u64;
            for &(lower, n) in &h.buckets {
                cumulative += n;
                let upper = {
                    let idx = bucket_index(lower);
                    if idx + 1 < NUM_BUCKETS {
                        bucket_lower_bound(idx + 1) - 1
                    } else {
                        u64::MAX
                    }
                };
                let _ = writeln!(out, "{} {cumulative}", with_le(&upper.to_string()));
            }
            let _ = writeln!(out, "{} {}", with_le("+Inf"), h.count);
            let suffixed = |suffix: &str| {
                if labels.is_empty() {
                    format!("{base}_{suffix}")
                } else {
                    format!("{base}_{suffix}{{{labels}}}")
                }
            };
            let _ = writeln!(out, "{} {}", suffixed("sum"), h.sum);
            let _ = writeln!(out, "{} {}", suffixed("count"), h.count);
            let _ = writeln!(out, "{} {}", suffixed("max"), h.max);
        }
        out
    }

    /// Differences between two snapshots in **counter-space**: counters
    /// must match exactly; value-valued histograms must match in count,
    /// sum and every bucket; wall-clock (`_us`) histograms must match in
    /// count only.  Gauges are instantaneous and ignored.  An empty result
    /// means the snapshots are counter-space identical — the property the
    /// `ELF_THREADS=1/4` twin test pins.
    pub fn counter_space_diff(&self, other: &Snapshot) -> Vec<String> {
        let mut diffs = Vec::new();
        let names: std::collections::BTreeSet<&String> =
            self.counters.keys().chain(other.counters.keys()).collect();
        for name in names {
            let a = self.counters.get(name);
            let b = other.counters.get(name);
            if a != b {
                diffs.push(format!("counter {name}: {a:?} != {b:?}"));
            }
        }
        let names: std::collections::BTreeSet<&String> = self
            .histograms
            .keys()
            .chain(other.histograms.keys())
            .collect();
        for name in names {
            match (self.histograms.get(name), other.histograms.get(name)) {
                (Some(a), Some(b)) => {
                    if a.count != b.count {
                        diffs.push(format!(
                            "histogram {name}: count {} != {}",
                            a.count, b.count
                        ));
                    } else if !a.is_wall_clock() && (a.sum != b.sum || a.buckets != b.buckets) {
                        diffs.push(format!(
                            "histogram {name}: sum/buckets {}/{:?} != {}/{:?}",
                            a.sum, a.buckets, b.sum, b.buckets
                        ));
                    }
                }
                (a, b) => diffs.push(format!(
                    "histogram {name}: present {} != {}",
                    a.is_some(),
                    b.is_some()
                )),
            }
        }
        diffs
    }

    /// `true` when [`Snapshot::counter_space_diff`] is empty.
    pub fn counter_space_eq(&self, other: &Snapshot) -> bool {
        self.counter_space_diff(other).is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_buckets_below_sub_count() {
        for v in 0..SUB_COUNT as u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_lower_bound(v as usize), v);
        }
    }

    #[test]
    fn lower_bounds_invert_bucket_index() {
        for index in 0..NUM_BUCKETS {
            let lower = bucket_lower_bound(index);
            assert_eq!(bucket_index(lower), index, "index {index} lower {lower}");
        }
    }

    #[test]
    fn extremes_land_in_first_and_last_bucket() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
    }

    #[test]
    fn labeled_formats_prometheus_style() {
        assert_eq!(labeled("x", &[]), "x");
        assert_eq!(
            labeled("x", &[("stage", "rf"), ("model", "v1")]),
            "x{stage=\"rf\",model=\"v1\"}"
        );
    }

    #[test]
    fn registry_resolves_one_handle_per_name() {
        let r = Registry::new();
        r.counter("a").inc();
        r.counter("a").add(2);
        assert_eq!(r.counter("a").get(), 3);
        r.gauge("g").set(-5);
        assert_eq!(r.gauge("g").get(), -5);
    }

    #[test]
    fn counter_space_diff_flags_exact_mismatches_only() {
        let a = Registry::new();
        let b = Registry::new();
        a.counter("c").add(2);
        b.counter("c").add(2);
        a.histogram("elf_nodes").record(7);
        b.histogram("elf_nodes").record(7);
        // Wall-clock samples may differ as long as counts agree.
        a.histogram("elf_t_us").record(10);
        b.histogram("elf_t_us").record(99);
        assert!(a.snapshot().counter_space_eq(&b.snapshot()));
        b.histogram("elf_nodes").record(7);
        let diff = a.snapshot().counter_space_diff(&b.snapshot());
        assert_eq!(diff.len(), 1);
        assert!(diff[0].contains("elf_nodes"));
    }

    #[test]
    fn render_text_emits_type_lines_and_histogram_series() {
        let r = Registry::new();
        r.counter("elf_jobs_total").add(3);
        r.gauge("elf_queue_depth").set(2);
        let h = r.histogram_with("elf_wait_us", &[("policy", "block")]);
        h.record(100);
        let text = r.render_text();
        assert!(text.contains("# TYPE elf_jobs_total counter"));
        assert!(text.contains("elf_jobs_total 3"));
        assert!(text.contains("# TYPE elf_queue_depth gauge"));
        assert!(text.contains("# TYPE elf_wait_us histogram"));
        assert!(text.contains("elf_wait_us_bucket{policy=\"block\",le=\"+Inf\"} 1"));
        assert!(text.contains("elf_wait_us_count{policy=\"block\"} 1"));
        assert!(text.contains("elf_wait_us_sum{policy=\"block\"} 100"));
    }
}
