//! Continuous-telemetry registry: named atomic counters, gauges and
//! histogram families that live for the whole process.
//!
//! The span machinery in the crate root is *post-mortem*: events are
//! buffered and rendered after the run ends. A long-lived evaluation —
//! the `--updates` churn loop, or the future `faure serve` daemon —
//! needs counters that can be scraped *while it runs*. [`Registry`] is
//! that surface: engine boundaries (stratum, prune, update apply)
//! publish their counters into it, and the [`crate::prom`] module
//! renders a [`Snapshot`] as Prometheus text exposition or a JSONL
//! line without stopping the pipeline.
//!
//! Publication is observationally transparent by construction: handles
//! are plain atomics (histograms a mutex around a `Copy` struct), so
//! publishing can never change evaluation results — only the counters.
//!
//! Counters are cumulative since process start, Prometheus-style; a
//! scraper that wants rates takes two [`Snapshot`]s and calls
//! [`Snapshot::since`]. The registry is process-global by design
//! (see [`global`]); tests that assert on counter movement must
//! snapshot first and assert on the delta, exactly like the condition
//! pool's counters.

use crate::hist::Histogram;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// A metric's identity: its name plus any label pairs, both ordered,
/// so `BTreeMap` iteration (and therefore every rendered exposition)
/// is deterministic.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Key {
    /// Metric name, e.g. `faure_probes_total`.
    pub name: &'static str,
    /// Label pairs, e.g. `[("mode", "counting")]`. Empty for plain
    /// (unlabeled) metrics.
    pub labels: Vec<(&'static str, String)>,
}

impl Key {
    fn plain(name: &'static str) -> Self {
        Key {
            name,
            labels: Vec::new(),
        }
    }

    fn labeled(name: &'static str, labels: &[(&'static str, &str)]) -> Self {
        Key {
            name,
            labels: labels.iter().map(|(k, v)| (*k, (*v).to_owned())).collect(),
        }
    }
}

/// A monotonically-increasing counter handle. Cloning shares the
/// underlying atomic; handles stay valid for the registry's lifetime.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds `n` (saturating at `u64::MAX` is not needed for a 64-bit
    /// counter at any realistic rate; plain wrapping add matches
    /// Prometheus client conventions).
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Raises the counter to `v` if it is currently lower. This mirrors
    /// an *external* monotonic counter (the condition pool's global
    /// hit/miss atomics) into the registry without double counting.
    pub fn sync_to(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge handle: a value that can go up and down.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `n` (may be negative).
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A histogram handle (mutex around the crate's power-of-two
/// [`Histogram`]; observation cost is one uncontended lock).
#[derive(Clone, Debug, Default)]
pub struct HistogramHandle(Arc<Mutex<Histogram>>);

impl HistogramHandle {
    /// Records one nanosecond sample.
    pub fn observe_ns(&self, ns: u64) {
        self.0
            .lock()
            .expect("telemetry histogram poisoned")
            .record(ns);
    }

    /// Folds a whole pre-aggregated histogram in (e.g. a run's solver
    /// latency histogram at the apply boundary).
    pub fn merge(&self, h: &Histogram) {
        self.0
            .lock()
            .expect("telemetry histogram poisoned")
            .merge(h);
    }

    /// Copy of the current contents.
    pub fn get(&self) -> Histogram {
        *self.0.lock().expect("telemetry histogram poisoned")
    }
}

/// Thread-safe registry of named counters, gauges and histograms.
///
/// Lookup interns the handle on first use; every later lookup of the
/// same `(name, labels)` key returns a clone of the same handle, so
/// hot paths may either cache the handle or re-look it up at boundary
/// frequency (one mutex + `BTreeMap` probe).
#[derive(Debug)]
pub struct Registry {
    start: Instant,
    counters: Mutex<BTreeMap<Key, Counter>>,
    gauges: Mutex<BTreeMap<Key, Gauge>>,
    hists: Mutex<BTreeMap<Key, HistogramHandle>>,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

/// The handle stored under `key`, created on first use.
fn intern<H: Clone + Default>(map: &Mutex<BTreeMap<Key, H>>, key: Key) -> H {
    map.lock()
        .expect("telemetry registry poisoned")
        .entry(key)
        .or_default()
        .clone()
}

/// A copy of every metric in `map`, as `read` reads its handle.
fn copy<H, V>(map: &Mutex<BTreeMap<Key, H>>, read: impl Fn(&H) -> V) -> Vec<(Key, V)> {
    let map = map.lock().expect("telemetry registry poisoned");
    map.iter().map(|(k, h)| (k.clone(), read(h))).collect()
}

impl Registry {
    /// An empty registry whose uptime starts now.
    pub fn new() -> Self {
        Registry {
            start: Instant::now(),
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            hists: Mutex::new(BTreeMap::new()),
        }
    }

    /// The unlabeled counter `name`, created on first use.
    pub fn counter(&self, name: &'static str) -> Counter {
        intern(&self.counters, Key::plain(name))
    }

    /// One member of the labeled counter family `name`.
    pub fn counter_with(&self, name: &'static str, labels: &[(&'static str, &str)]) -> Counter {
        intern(&self.counters, Key::labeled(name, labels))
    }

    /// The unlabeled gauge `name`, created on first use.
    pub fn gauge(&self, name: &'static str) -> Gauge {
        intern(&self.gauges, Key::plain(name))
    }

    /// The unlabeled histogram `name`, created on first use.
    pub fn histogram(&self, name: &'static str) -> HistogramHandle {
        intern(&self.hists, Key::plain(name))
    }

    /// Time since the registry was created.
    pub fn uptime(&self) -> Duration {
        self.start.elapsed()
    }

    /// A point-in-time copy of every metric, plus the process gauges
    /// (`faure_process_uptime_seconds`, and on Linux the
    /// `/proc/self/status` RSS / peak-RSS / thread-count readings —
    /// the same reader the bench harness's `peak_rss_kb` column uses).
    pub fn snapshot(&self) -> Snapshot {
        let counters = copy(&self.counters, Counter::get);
        let mut gauges = copy(&self.gauges, |g| g.get() as f64);
        let hists = copy(&self.hists, HistogramHandle::get);

        gauges.push((
            Key::plain("faure_process_uptime_seconds"),
            self.uptime().as_secs_f64(),
        ));
        if let Some(kb) = proc_status_field("VmRSS:") {
            gauges.push((Key::plain("faure_process_rss_kb"), kb as f64));
        }
        if let Some(kb) = proc_status_field("VmHWM:") {
            gauges.push((Key::plain("faure_process_peak_rss_kb"), kb as f64));
        }
        if let Some(n) = proc_status_field("Threads:") {
            gauges.push((Key::plain("faure_process_threads"), n as f64));
        }
        gauges.sort_by(|a, b| a.0.cmp(&b.0));

        Snapshot {
            uptime: self.uptime(),
            counters,
            gauges,
            hists,
        }
    }
}

/// A point-in-time copy of a [`Registry`]'s metrics, ordered by key.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// Registry uptime at snapshot time.
    pub uptime: Duration,
    /// Cumulative counters.
    pub counters: Vec<(Key, u64)>,
    /// Instantaneous gauges (process gauges included).
    pub gauges: Vec<(Key, f64)>,
    /// Histograms.
    pub hists: Vec<(Key, Histogram)>,
}

impl Snapshot {
    /// Counter/histogram movement since `earlier` (an older snapshot of
    /// the same registry): counters and histogram buckets subtract,
    /// gauges keep their current (instantaneous) values. Metrics that
    /// did not exist at `earlier` keep their full value.
    pub fn since(&self, earlier: &Snapshot) -> Snapshot {
        let base_c: BTreeMap<&Key, u64> = earlier.counters.iter().map(|(k, v)| (k, *v)).collect();
        let base_h: BTreeMap<&Key, &Histogram> =
            earlier.hists.iter().map(|(k, h)| (k, h)).collect();
        Snapshot {
            uptime: self.uptime,
            counters: self
                .counters
                .iter()
                .map(|(k, v)| {
                    (
                        k.clone(),
                        v.saturating_sub(base_c.get(k).copied().unwrap_or(0)),
                    )
                })
                .collect(),
            gauges: self.gauges.clone(),
            hists: self
                .hists
                .iter()
                .map(|(k, h)| {
                    let d = match base_h.get(k) {
                        Some(b) => h.since(b),
                        None => *h,
                    };
                    (k.clone(), d)
                })
                .collect(),
        }
    }

    /// Total of counter `name` across all label sets (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(k, _)| k.name == name)
            .map(|(_, v)| v)
            .sum()
    }

    /// Value of the unlabeled gauge `name`, when present.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges
            .iter()
            .find(|(k, _)| k.name == name && k.labels.is_empty())
            .map(|(_, v)| *v)
    }
}

/// Reads one `kB`/count field out of `/proc/self/status` (e.g.
/// `VmRSS:`, `VmHWM:`, `Threads:`). Returns `None` off Linux or when
/// the field is absent — process gauges simply disappear from the
/// exposition rather than reporting zeros.
pub fn proc_status_field(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find(|l| l.starts_with(field))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
}

/// Peak resident set size in kB (`VmHWM` from `/proc/self/status`),
/// `None` when unavailable. The bench harness's `peak_rss_kb` column
/// reads through this.
pub fn peak_rss_kb() -> Option<u64> {
    proc_status_field("VmHWM:")
}

/// The process-global registry every pipeline boundary publishes into.
/// Global on purpose: the scrape endpoint and the JSONL writer must
/// see counters from *every* evaluation in the process, exactly like
/// the condition pool's hit/miss counters. Created on first use;
/// uptime is measured from that first use.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_share_handles() {
        let reg = Registry::new();
        let a = reg.counter("x_total");
        let b = reg.counter("x_total");
        a.add(3);
        b.inc();
        assert_eq!(reg.counter("x_total").get(), 4);
        assert_eq!(reg.snapshot().counter("x_total"), 4);
    }

    #[test]
    fn labeled_families_are_distinct_members() {
        let reg = Registry::new();
        reg.counter_with("y_total", &[("mode", "append")]).add(2);
        reg.counter_with("y_total", &[("mode", "counting")]).add(5);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("y_total"), 7);
        let member = snap
            .counters
            .iter()
            .find(|(k, _)| k.labels == vec![("mode", "counting".to_owned())])
            .unwrap();
        assert_eq!(member.1, 5);
    }

    #[test]
    fn sync_to_mirrors_external_monotonic_counters() {
        let reg = Registry::new();
        let c = reg.counter("pool_total");
        c.sync_to(10);
        c.sync_to(7); // stale mirror write must not regress
        assert_eq!(c.get(), 10);
        c.sync_to(12);
        assert_eq!(c.get(), 12);
    }

    #[test]
    fn snapshot_since_subtracts_counters_and_hists() {
        let reg = Registry::new();
        reg.counter("c_total").add(5);
        reg.histogram("h_ns").observe_ns(100);
        let s1 = reg.snapshot();
        reg.counter("c_total").add(2);
        reg.histogram("h_ns").observe_ns(100);
        reg.gauge("g").set(9);
        let s2 = reg.snapshot();
        let d = s2.since(&s1);
        assert_eq!(d.counter("c_total"), 2);
        assert_eq!(d.gauge("g"), Some(9.0));
        let h = &d.hists.iter().find(|(k, _)| k.name == "h_ns").unwrap().1;
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn snapshot_carries_process_gauges() {
        let reg = Registry::new();
        let snap = reg.snapshot();
        assert!(snap.gauge("faure_process_uptime_seconds").is_some());
        // On Linux the /proc reader must agree with itself.
        if let Some(kb) = snap.gauge("faure_process_peak_rss_kb") {
            assert!(kb > 0.0);
            assert!(peak_rss_kb().is_some());
        }
    }

    #[test]
    fn gauges_move_both_ways() {
        let reg = Registry::new();
        let g = reg.gauge("depth");
        g.set(4);
        g.add(-6);
        assert_eq!(g.get(), -2);
    }
}
