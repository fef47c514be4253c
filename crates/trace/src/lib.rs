//! # faure-trace — structured tracing for the evaluation pipeline
//!
//! The paper's evaluation (§4, Table 4) hinges on knowing *where*
//! c-table evaluation spends time: join fan-out vs. condition growth
//! vs. solver calls. This crate is the dependency-free span/counter
//! layer the engine, storage executor, and solver emit into.
//!
//! ## Design constraints
//!
//! * **No globals.** A [`Tracer`] is an explicit handle constructed
//!   from an injected [`Clock`] and [`TraceSink`]; everything that
//!   wants to emit events is handed one. Tests inject a [`ManualClock`]
//!   for byte-stable traces.
//! * **~Zero cost when disabled.** [`Tracer::disabled`] is an `Option`
//!   that is `None`: every emission site is one branch, and argument
//!   vectors are built inside closures that are never called.
//! * **Deterministic event order.** The driver thread emits directly
//!   into the sink in program order; parallel workers buffer their
//!   events locally and the engine [submits](Tracer::submit) the
//!   buffers in chunk order after the join — the recorded stream is
//!   identical at any thread count (timestamps aside), mirroring the
//!   engine's chunk-order result merge.
//!
//! ## Outputs
//!
//! * [`chrome::trace_json`] renders events in Chrome `trace_event`
//!   format (loadable in `chrome://tracing` / Perfetto);
//! * [`metrics`] rolls spans up by `(category, name)` or by an argument
//!   key into stable aggregate records for the `--metrics` schema;
//! * [`Histogram`] is the power-of-two latency histogram the solver
//!   session records per-check solve times into;
//! * [`stat`] is the table every statistics struct declares its
//!   counters in (JSON key, Prometheus family, kind, help) and the views
//!   derived from it; [`json`] is the workspace's one JSON writer.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chrome;
pub mod flight;
pub mod hist;
pub mod json;
pub mod metrics;
pub mod prom;
pub mod stat;
pub mod telemetry;

pub use flight::{FlightRecorder, Tee};
pub use hist::Histogram;
pub use json::json_escape;

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

// ---------------------------------------------------------------------------
// clocks
// ---------------------------------------------------------------------------

/// A monotonic nanosecond clock. Injected into the [`Tracer`] at
/// construction — nothing in this crate reads ambient time.
pub trait Clock: Send + Sync + fmt::Debug {
    /// Nanoseconds since the clock's origin.
    fn now_ns(&self) -> u64;
}

/// Wall clock: nanoseconds since the instant the clock was created.
#[derive(Debug)]
pub struct MonotonicClock(Instant);

impl MonotonicClock {
    /// A clock whose origin is now.
    pub fn starting_now() -> Self {
        MonotonicClock(Instant::now())
    }
}

impl Clock for MonotonicClock {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// A hand-advanced clock for deterministic tests: `now_ns` returns
/// whatever the test last [`set`](ManualClock::set) or accumulated via
/// [`advance`](ManualClock::advance).
#[derive(Debug, Default)]
pub struct ManualClock(AtomicU64);

impl ManualClock {
    /// A clock stuck at 0 until advanced.
    pub fn new() -> Self {
        Self::default()
    }

    /// Moves the clock forward by `ns`.
    pub fn advance(&self, ns: u64) {
        self.0.fetch_add(ns, Ordering::Relaxed);
    }

    /// Sets the clock to an absolute value.
    pub fn set(&self, ns: u64) {
        self.0.store(ns, Ordering::Relaxed);
    }
}

impl Clock for ManualClock {
    fn now_ns(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------------
// events
// ---------------------------------------------------------------------------

/// A typed event argument.
#[derive(Clone, Debug, PartialEq)]
pub enum ArgValue {
    /// Unsigned counter (row counts, sizes, indices).
    UInt(u64),
    /// Signed integer.
    Int(i64),
    /// Floating-point (rates, ratios).
    Float(f64),
    /// Free-form label (predicate names, file labels).
    Str(String),
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> Self {
        ArgValue::UInt(v)
    }
}

impl From<usize> for ArgValue {
    fn from(v: usize) -> Self {
        ArgValue::UInt(v as u64)
    }
}

impl From<u32> for ArgValue {
    fn from(v: u32) -> Self {
        ArgValue::UInt(u64::from(v))
    }
}

impl From<i64> for ArgValue {
    fn from(v: i64) -> Self {
        ArgValue::Int(v)
    }
}

impl From<f64> for ArgValue {
    fn from(v: f64) -> Self {
        ArgValue::Float(v)
    }
}

impl From<&str> for ArgValue {
    fn from(v: &str) -> Self {
        ArgValue::Str(v.to_owned())
    }
}

impl From<String> for ArgValue {
    fn from(v: String) -> Self {
        ArgValue::Str(v)
    }
}

/// One recorded span (or instant, when `dur_ns == 0`).
///
/// `cat`/`name` are static so that emission never allocates for the
/// identity of an event; variable payload goes in `args`.
#[derive(Clone, Debug, PartialEq)]
pub struct Event {
    /// Category — the pipeline layer: `prepare`, `eval`, `fixpoint`,
    /// `worker`, `solver`, `cli`.
    pub cat: &'static str,
    /// Event name within the category (e.g. `rule-pass`, `stratum`).
    pub name: &'static str,
    /// Start timestamp, nanoseconds on the tracer's clock.
    pub start_ns: u64,
    /// Duration in nanoseconds (0 for instant/counter events).
    pub dur_ns: u64,
    /// Logical track: 0 is the driver thread, `1..` are parallel
    /// workers (chunk index + 1, not OS thread ids — deterministic).
    pub track: u32,
    /// Typed payload.
    pub args: Vec<(&'static str, ArgValue)>,
}

impl Event {
    /// Looks up an unsigned argument by name (accepting `Int` ≥ 0).
    pub fn arg_u64(&self, name: &str) -> Option<u64> {
        self.args
            .iter()
            .find(|(n, _)| *n == name)
            .and_then(|(_, v)| match v {
                ArgValue::UInt(u) => Some(*u),
                ArgValue::Int(i) => u64::try_from(*i).ok(),
                _ => None,
            })
    }

    /// Looks up a string argument by name.
    pub fn arg_str(&self, name: &str) -> Option<&str> {
        self.args
            .iter()
            .find(|(n, _)| *n == name)
            .and_then(|(_, v)| match v {
                ArgValue::Str(s) => Some(s.as_str()),
                _ => None,
            })
    }
}

// ---------------------------------------------------------------------------
// sinks
// ---------------------------------------------------------------------------

/// Where emitted events go. Implementations must tolerate concurrent
/// `record` calls (the trait is `Sync`); the shipped [`Recorder`]
/// appends to a mutex-guarded vector.
pub trait TraceSink: Send + Sync + fmt::Debug {
    /// Records one event.
    fn record(&self, event: Event);

    /// Records a batch in order (single lock acquisition where the
    /// implementation allows).
    fn record_batch(&self, events: Vec<Event>) {
        for e in events {
            self.record(e);
        }
    }
}

/// The standard in-memory sink: an append-only event log the caller
/// drains after (or between) runs.
#[derive(Debug, Default)]
pub struct Recorder {
    events: Mutex<Vec<Event>>,
}

impl Recorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drains and returns everything recorded so far, in emission
    /// order. Used by the CLI to slice a multi-database run into
    /// per-database event groups.
    pub fn take(&self) -> Vec<Event> {
        std::mem::take(&mut *self.events.lock().expect("recorder poisoned"))
    }

    /// A copy of everything recorded so far, leaving the log intact.
    pub fn snapshot(&self) -> Vec<Event> {
        self.events.lock().expect("recorder poisoned").clone()
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.lock().expect("recorder poisoned").len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl TraceSink for Recorder {
    fn record(&self, event: Event) {
        self.events.lock().expect("recorder poisoned").push(event);
    }

    fn record_batch(&self, mut events: Vec<Event>) {
        self.events
            .lock()
            .expect("recorder poisoned")
            .append(&mut events);
    }
}

// ---------------------------------------------------------------------------
// tracer
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct TracerInner {
    clock: Arc<dyn Clock>,
    sink: Arc<dyn TraceSink>,
}

/// The handle instrumentation sites hold: either disabled (`None`
/// inside — every operation is one branch) or an injected clock + sink
/// pair. Cloning is cheap (`Arc`), and clones share the sink, so the
/// engine can hand the same tracer to every worker thread.
#[derive(Clone, Debug, Default)]
pub struct Tracer {
    inner: Option<Arc<TracerInner>>,
}

impl Tracer {
    /// A tracer that records nothing and costs one branch per site.
    pub fn disabled() -> Self {
        Tracer { inner: None }
    }

    /// An enabled tracer over `sink`, timestamped by a
    /// [`MonotonicClock`] whose origin is now.
    pub fn new(sink: Arc<dyn TraceSink>) -> Self {
        Self::with_clock(sink, Arc::new(MonotonicClock::starting_now()))
    }

    /// An enabled tracer with an explicitly injected clock.
    pub fn with_clock(sink: Arc<dyn TraceSink>, clock: Arc<dyn Clock>) -> Self {
        Tracer {
            inner: Some(Arc::new(TracerInner { clock, sink })),
        }
    }

    /// Whether events are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Current clock value; 0 when disabled (span starts taken while
    /// disabled produce no events, so the value is never observed).
    pub fn now_ns(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner.clock.now_ns(),
            None => 0,
        }
    }

    /// Emits a completed span on `track` that started at `start_ns`
    /// (as returned by [`now_ns`](Tracer::now_ns)). `args` is only
    /// invoked when the tracer is enabled, so argument construction is
    /// free on the disabled path.
    pub fn emit_span(
        &self,
        cat: &'static str,
        name: &'static str,
        start_ns: u64,
        track: u32,
        args: impl FnOnce() -> Vec<(&'static str, ArgValue)>,
    ) {
        if let Some(inner) = &self.inner {
            let end = inner.clock.now_ns();
            inner.sink.record(Event {
                cat,
                name,
                start_ns,
                dur_ns: end.saturating_sub(start_ns),
                track,
                args: args(),
            });
        }
    }

    /// Emits an instant (zero-duration) event at the current time —
    /// used for end-of-run counter summaries.
    pub fn emit_instant(
        &self,
        cat: &'static str,
        name: &'static str,
        track: u32,
        args: impl FnOnce() -> Vec<(&'static str, ArgValue)>,
    ) {
        if let Some(inner) = &self.inner {
            let now = inner.clock.now_ns();
            inner.sink.record(Event {
                cat,
                name,
                start_ns: now,
                dur_ns: 0,
                track,
                args: args(),
            });
        }
    }

    /// Submits a batch of pre-built events (a worker's local buffer).
    /// Callers submit buffers in chunk order so the recorded stream is
    /// deterministic; a disabled tracer drops the batch.
    pub fn submit(&self, events: Vec<Event>) {
        if let Some(inner) = &self.inner {
            if !events.is_empty() {
                inner.sink.record_batch(events);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manual_tracer() -> (Tracer, Arc<Recorder>, Arc<ManualClock>) {
        let rec = Arc::new(Recorder::new());
        let clock = Arc::new(ManualClock::new());
        let tracer = Tracer::with_clock(rec.clone(), clock.clone());
        (tracer, rec, clock)
    }

    #[test]
    fn disabled_tracer_records_nothing_and_skips_args() {
        let t = Tracer::disabled();
        assert!(!t.is_enabled());
        assert_eq!(t.now_ns(), 0);
        let start = t.now_ns();
        t.emit_span("eval", "stratum", start, 0, || {
            panic!("args closure must not run when disabled")
        });
        t.emit_instant("solver", "session", 0, || {
            panic!("args closure must not run when disabled")
        });
        t.submit(vec![]);
    }

    #[test]
    fn spans_carry_clock_time_and_args() {
        let (t, rec, clock) = manual_tracer();
        let start = t.now_ns();
        clock.advance(1500);
        t.emit_span("fixpoint", "rule-pass", start, 0, || {
            vec![("rule", 3usize.into()), ("head", "R".into())]
        });
        let events = rec.take();
        assert_eq!(events.len(), 1);
        let e = &events[0];
        assert_eq!((e.cat, e.name), ("fixpoint", "rule-pass"));
        assert_eq!(e.start_ns, 0);
        assert_eq!(e.dur_ns, 1500);
        assert_eq!(e.arg_u64("rule"), Some(3));
        assert_eq!(e.arg_str("head"), Some("R"));
        assert_eq!(e.arg_u64("missing"), None);
    }

    #[test]
    fn submit_preserves_batch_order() {
        let (t, rec, _clock) = manual_tracer();
        let mk = |i: u64| Event {
            cat: "worker",
            name: "chunk",
            start_ns: 0,
            dur_ns: 0,
            track: i as u32 + 1,
            args: vec![("chunk", i.into())],
        };
        t.emit_instant("eval", "setup", 0, Vec::new);
        t.submit(vec![mk(0), mk(1)]);
        t.submit(vec![mk(2)]);
        let order: Vec<Option<u64>> = rec.take().iter().map(|e| e.arg_u64("chunk")).collect();
        assert_eq!(order, vec![None, Some(0), Some(1), Some(2)]);
    }

    #[test]
    fn recorder_snapshot_keeps_log_take_drains() {
        let (t, rec, _clock) = manual_tracer();
        t.emit_instant("cli", "database", 0, Vec::new);
        assert_eq!(rec.snapshot().len(), 1);
        assert_eq!(rec.len(), 1);
        assert!(!rec.is_empty());
        assert_eq!(rec.take().len(), 1);
        assert!(rec.is_empty());
    }

    #[test]
    fn manual_clock_set_and_advance() {
        let c = ManualClock::new();
        assert_eq!(c.now_ns(), 0);
        c.advance(10);
        c.advance(5);
        assert_eq!(c.now_ns(), 15);
        c.set(7);
        assert_eq!(c.now_ns(), 7);
    }

    #[test]
    fn monotonic_clock_is_monotone() {
        let c = MonotonicClock::starting_now();
        let a = c.now_ns();
        let b = c.now_ns();
        assert!(b >= a);
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("l1\nl2\t"), "l1\\nl2\\t");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn tracer_clones_share_the_sink() {
        let (t, rec, _clock) = manual_tracer();
        let t2 = t.clone();
        t.emit_instant("eval", "run", 0, Vec::new);
        t2.emit_instant("eval", "run", 1, Vec::new);
        assert_eq!(rec.len(), 2);
    }
}
