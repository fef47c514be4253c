//! What every workload's run shares: its configuration, its result,
//! and the set-up and bookkeeping helpers.

use crate::catalogue::{self, OPS_PER_S, OP_P50_MS, PEAK_RSS_MB, PER_LAYER, SETUP_S};
use crate::stats;
use faure_trace::{Event, Recorder, Tracer};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Input sizes. The measured sizes are part of the benchmark's
/// definition; the smoke sizes drive the same code end to end in tests.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    pub batch_prefixes: usize,
    pub deep_prefixes: usize,
    pub deep_path_len: usize,
    pub churn_prefixes: usize,
    /// Updates every churn run applies before it may stop; the exact
    /// counts of `churn_stream` cover exactly these.
    pub churn_pinned_updates: usize,
    /// Rounds of the five verify requests run as warm-up in set-up.
    pub verify_warmup_rounds: usize,
    /// Rounds every verify run completes before it may stop.
    pub verify_min_rounds: usize,
    pub as_count: usize,
    /// Samples per replayed layer function.
    pub replay_samples: usize,
    /// Rows of captured output the per-row replays walk.
    pub replay_rows: usize,
}

impl Sizes {
    pub const MEASURED: Sizes = Sizes {
        batch_prefixes: 3000,
        deep_prefixes: 200,
        deep_path_len: 16,
        churn_prefixes: 1000,
        churn_pinned_updates: 100,
        verify_warmup_rounds: 100,
        verify_min_rounds: 20,
        as_count: 512,
        replay_samples: 2000,
        replay_rows: 30_000,
    };

    pub const SMOKE: Sizes = Sizes {
        batch_prefixes: 30,
        deep_prefixes: 30,
        deep_path_len: 6,
        churn_prefixes: 30,
        churn_pinned_updates: 20,
        verify_warmup_rounds: 2,
        verify_min_rounds: 20,
        as_count: 128,
        replay_samples: 50,
        replay_rows: 500,
    };
}

#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    pub seed: u64,
    /// The measured loop stops at the first operation boundary past
    /// this many seconds.
    pub seconds: f64,
    pub trace: bool,
    pub sizes: Sizes,
}

/// Named values of one run.
#[derive(Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            catalogue::end_to_end(name).is_some() || catalogue::layer(name).is_some(),
            "metric `{name}` is not in the catalogue"
        );
        let previous = self.0.insert(name, value);
        debug_assert!(previous.is_none(), "metric `{name}` set twice");
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.0.iter().map(|(k, v)| (*k, *v))
    }
}

/// The result of one run of one workload in this process.
pub struct RunOutput {
    pub attempted: u64,
    pub failed: u64,
    /// Failed output checks, in words. Empty when the run is correct.
    pub problems: Vec<String>,
    pub end_to_end: Metrics,
    /// An untraced run records the exact counts only; a traced run
    /// records every per-layer metric (zero where the workload never
    /// enters the layer).
    pub per_layer: Metrics,
    /// Everything the tracer recorded, for the Perfetto file.
    pub events: Vec<Event>,
}

impl RunOutput {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// Closes a measured loop. An output that fails a check counts as
    /// a failure of every operation that produced it.
    pub fn from_loop(
        l: Loop,
        end_to_end: Metrics,
        per_layer: Metrics,
        events: Vec<Event>,
    ) -> RunOutput {
        RunOutput {
            attempted: l.attempted,
            failed: if l.problems.is_empty() {
                l.failed
            } else {
                l.attempted
            },
            problems: l.problems,
            end_to_end,
            per_layer,
            events,
        }
    }

    /// The result of a run whose operations all failed: no metric has
    /// a value, every operation counts as failed.
    pub fn nothing_measured(mut l: Loop, events: Vec<Event>) -> RunOutput {
        l.attempted = l.attempted.max(1);
        l.problem("no operation succeeded".to_owned());
        RunOutput::from_loop(l, Metrics::default(), Metrics::default(), events)
    }
}

/// Timing and exact-count bookkeeping of a measured loop.
#[derive(Default)]
pub struct Loop {
    /// Operation walls in seconds, untraced operations only.
    pub plain: Vec<f64>,
    /// Operation walls in seconds of the traced operations.
    pub traced: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Loop {
    pub fn problem(&mut self, text: String) {
        if self.problems.len() < 8 {
            self.problems.push(text);
        }
    }
}

/// Fills the end-to-end metrics every workload reports the same way.
///
/// `cycle` is the length of one cycle of the workload's operation mix
/// (one query; ten updates, of which one withdraws; five verify
/// requests). The rate is taken at the median wall of a cycle, not as
/// operations over total time: this box slows by a fifth for seconds
/// at a stretch, and a median shrugs that off as long as fewer than
/// half the cycles fall inside such a stretch, where a mean does not.
pub fn end_to_end(setup_s: &[f64], op_walls_s: &[f64], cycle: usize, peak_rss_kb: u64) -> Metrics {
    let mut m = Metrics::default();
    let mut cycles: Vec<f64> = op_walls_s
        .chunks_exact(cycle)
        .map(|c| c.iter().sum())
        .collect();
    if cycles.is_empty() {
        // Too few operations for one whole cycle: scale what there is.
        cycles.push(op_walls_s.iter().sum::<f64>() * cycle as f64 / op_walls_s.len() as f64);
    }
    m.set(SETUP_S, stats::median_of(setup_s));
    m.set(OP_P50_MS, stats::median_of(op_walls_s) * 1e3);
    m.set(OPS_PER_S, cycle as f64 / stats::median_of(&cycles));
    m.set(PEAK_RSS_MB, peak_rss_kb as f64 / 1024.0);
    m
}

/// What stands behind `op_p50_ms`: the sample count, the tail, and the
/// cores of the host the run had.
pub fn op_context(m: &mut Metrics, op_walls_s: &[f64]) {
    let walls = stats::sorted(op_walls_s.to_vec());
    m.set("host.cores", host_cores() as f64);
    m.set("op.samples", walls.len() as f64);
    if let Some((pct, value)) = stats::tail(&walls) {
        m.set("op.tail_ms", value * 1e3);
        m.set("op.tail_pct", pct);
    }
}

/// Gives every per-layer metric the run did not measure the value 0:
/// the workload spends nothing in that layer.
pub fn fill_missing_layers(m: &mut Metrics) {
    for layer in PER_LAYER {
        if m.get(layer.name).is_none() {
            m.set(layer.name, 0.0);
        }
    }
}

/// Runs `setup` until three repetitions are done and either nine are
/// or a second has gone by — cheap set-ups repeat more, so their median
/// is as steady as an expensive one's. Returns the walls in seconds and
/// the last repetition's state.
pub fn repeat_setup<T>(mut setup: impl FnMut() -> T) -> (Vec<f64>, T) {
    let started = Instant::now();
    let mut walls = Vec::new();
    loop {
        let t = Instant::now();
        let state = setup();
        walls.push(t.elapsed().as_secs_f64());
        if walls.len() >= 9 || (walls.len() >= 3 && started.elapsed().as_secs_f64() >= 1.0) {
            return (walls, state);
        }
        drop(state);
    }
}

/// Times `f` and, when `tracer` is on, records it as a benchmark span
/// carrying the operation's id. Returns the value and the wall in
/// seconds.
pub fn spanned<T>(tracer: &Tracer, name: &'static str, op: u64, f: impl FnOnce() -> T) -> (T, f64) {
    let start_ns = tracer.now_ns();
    let t = Instant::now();
    let value = f();
    let secs = t.elapsed().as_secs_f64();
    tracer.emit_span(crate::spans::BENCH, name, start_ns, 0, || {
        vec![("op", op.into())]
    });
    (value, secs)
}

/// `VmHWM` in kB; 0 where `/proc` is unavailable.
pub fn peak_rss_kb() -> u64 {
    faure_trace::telemetry::peak_rss_kb().unwrap_or(0)
}

/// `VmRSS` in kB; 0 where `/proc` is unavailable.
pub fn rss_kb() -> u64 {
    faure_trace::telemetry::proc_status_field("VmRSS:").unwrap_or(0)
}

pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// A tracer over an in-memory recorder, or a disabled one.
pub struct Tracing {
    pub tracer: Tracer,
    pub off: Tracer,
    recorder: Option<Arc<Recorder>>,
}

impl Tracing {
    pub fn new(enabled: bool) -> Tracing {
        let recorder = enabled.then(|| Arc::new(Recorder::new()));
        Tracing {
            tracer: recorder
                .as_ref()
                .map_or_else(Tracer::disabled, |r| Tracer::new(r.clone())),
            off: Tracer::disabled(),
            recorder,
        }
    }

    /// The tracer for operation `i` of a loop that alternates untraced
    /// and traced operations, so both walls come from one process and
    /// their ratio is the tracing overhead.
    pub fn for_op(&self, i: u64) -> &Tracer {
        if i % 2 == 1 {
            &self.tracer
        } else {
            &self.off
        }
    }

    /// Drains the recorded events.
    pub fn take(&self) -> Vec<Event> {
        self.recorder.as_ref().map_or_else(Vec::new, |r| r.take())
    }
}

/// Tracing cost: traced over untraced median wall, and the extra time
/// per recorded event.
pub fn trace_overhead(m: &mut Metrics, l: &Loop, events: usize) {
    m.set("trace.events", events as f64);
    if l.plain.is_empty() || l.traced.is_empty() {
        return;
    }
    let plain = stats::median_of(&l.plain);
    let traced = stats::median_of(&l.traced);
    m.set("trace.overhead_pct", (traced / plain - 1.0) * 100.0);
    if events > 0 {
        let extra_s = (traced - plain).max(0.0) * l.traced.len() as f64;
        m.set("trace.ns_per_event", extra_s * 1e9 / events as f64);
    }
}
