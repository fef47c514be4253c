//! Observability surface of the CLI: batch `eval` with `--trace` /
//! `--metrics`, and the `faure profile` text report.
//!
//! All three outputs come from the same recorded span stream
//! ([`faure_trace::Recorder`]) plus the engine's [`PhaseStats`]:
//!
//! * `--trace` renders the raw spans in Chrome `trace_event` JSON
//!   (loadable in `chrome://tracing` / Perfetto);
//! * `--metrics` rolls them up into the stable aggregated-metrics
//!   schema documented in DESIGN.md (`faure_metrics_version: 1`);
//! * `faure profile` renders a rustc-style text report (top rules by
//!   time, iteration table, solver memo hit rate).
//!
//! Batch `eval` prepares the program **once** (`Engine::prepare`) and
//! runs it against every database, with per-database spans grouped in
//! one trace. Preparation reads the program alone, never a database:
//! the same plans serve every database of the batch and every state an
//! `--updates` stream moves through.

use crate::{err, load_database, render_relation, CliError, EngineKnobs};
use faure_core::{
    parse_program, Applies, DeletePattern, Delta, DeltaReport, Engine, EvalOptions, PrunePolicy,
};
use faure_ctable::pool::pool_stats;
use faure_ctable::{Const, PoolStats};
use faure_storage::PhaseStats;
use faure_trace::json::{self, Arr, Obj, Str};
use faure_trace::metrics::{rollup_by_arg, rollup_spans, Rollup};
use faure_trace::stat::{write_fields, Kind, Stat};
use faure_trace::{
    chrome, prom, telemetry, Clock, Event, FlightRecorder, MonotonicClock, Recorder, Tee,
    TraceSink, Tracer,
};
use std::fmt::Write as _;
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Observability switches for `faure eval`: which artifacts to build
/// (`--trace` / `--metrics`), the always-on flight-recorder ring to
/// tee span events into, and whether `--updates` streams a live
/// per-update progress line to stderr.
#[derive(Debug, Default)]
pub struct ObsOptions {
    /// Build the Chrome trace JSON (`--trace`).
    pub want_trace: bool,
    /// Build the aggregated-metrics JSON (`--metrics`).
    pub want_metrics: bool,
    /// Flight-recorder ring receiving every span event (teed alongside
    /// the per-run recorder); `None` disables the tee.
    pub flight: Option<Arc<FlightRecorder>>,
    /// Emit a per-update progress line on stderr during `--updates`.
    pub progress: bool,
}

impl ObsOptions {
    /// Switches for a plain programmatic run: no artifacts, no flight
    /// ring, no progress stream.
    pub fn none() -> Self {
        Self::default()
    }

    /// Switches for a run that builds the named artifacts and nothing
    /// else: no flight ring, no progress stream.
    pub fn artifacts(want_trace: bool, want_metrics: bool) -> Self {
        ObsOptions {
            want_trace,
            want_metrics,
            ..Self::default()
        }
    }
}

/// Builds the run's tracer: the per-run [`Recorder`] when trace or
/// metrics artifacts are wanted, teed with the flight ring when one is
/// installed, disabled when neither is present (the zero-overhead
/// path — evaluation output is bit-identical either way).
fn build_tracer(recorder: &Arc<Recorder>, obs: &ObsOptions) -> Tracer {
    let mut sinks: Vec<Arc<dyn TraceSink>> = Vec::new();
    if obs.want_trace || obs.want_metrics {
        sinks.push(Arc::clone(recorder) as Arc<dyn TraceSink>);
    }
    if let Some(flight) = &obs.flight {
        sinks.push(Arc::clone(flight) as Arc<dyn TraceSink>);
    }
    match sinks.len() {
        0 => Tracer::disabled(),
        1 => Tracer::new(sinks.pop().expect("one sink")),
        _ => Tracer::new(Arc::new(Tee::new(sinks))),
    }
}

/// Output of a (possibly batch) `faure eval` run.
#[derive(Debug)]
pub struct EvalReport {
    /// Human-readable relation listing + stats lines (stdout).
    pub rendered: String,
    /// Chrome `trace_event` JSON, when `--trace` was requested.
    pub trace_json: Option<String>,
    /// Aggregated-metrics JSON, when `--metrics` was requested.
    pub metrics_json: Option<String>,
}

/// One database's worth of recorded evaluation, used to build the
/// metrics document: the run's statistics and spans, and the
/// process-wide condition pool as it stood when the run ended.
struct DbRun {
    label: String,
    stats: PhaseStats,
    pool: PoolStats,
    events: Vec<Event>,
}

/// `faure eval` implementation over one or more databases. The program
/// is prepared once; each database is a separate
/// [`run`](faure_core::PreparedProgram::run) over the same compiled
/// plans. With `want_trace` / `want_metrics`, the pipeline is recorded
/// and the corresponding JSON documents are returned in the report
/// (tracing never changes evaluation results).
#[allow(clippy::too_many_arguments)]
pub fn cmd_eval_batch(
    dbs: &[(String, String)],
    program_label: &str,
    program_text: &str,
    prune: PrunePolicy,
    only_relation: Option<&str>,
    knobs: &EngineKnobs,
    obs: &ObsOptions,
) -> Result<EvalReport, CliError> {
    if dbs.is_empty() {
        return Err(err("eval needs at least one database file"));
    }
    let program = parse_program(program_text).map_err(|e| err(e.to_string()))?;
    let mut opts = EvalOptions {
        prune,
        ..Default::default()
    };
    knobs.configure(&mut opts);

    let recorder = Arc::new(Recorder::new());
    let tracer = build_tracer(&recorder, obs);

    let mut prepared = Engine::with_options(opts)
        .prepare_traced(&program, &tracer)
        .map_err(|e| err(e.to_string()))?;
    prepared
        .set_shard_keys(knobs.shard_keys.iter().map(|(p, c)| (p.as_str(), *c)))
        .map_err(|e| err(e.to_string()))?;
    let prepare_events = recorder.take();

    let mut rendered = String::new();
    let mut all_events = prepare_events.clone();
    let mut runs: Vec<DbRun> = Vec::new();

    for (label, text) in dbs {
        let db = load_database(text).map_err(|e| err(format!("{label}: {e}")))?;
        let out = prepared
            .run_traced(&db, &tracer)
            .map_err(|e| err(format!("{label}: {e}")))?;
        let pool = pool_stats();
        let events = recorder.take();

        if dbs.len() > 1 {
            writeln!(rendered, "== {label} ==").map_err(|e| err(e.to_string()))?;
        }
        match only_relation {
            Some(r) => render_relation(r, &out.database, &mut rendered)?,
            None => {
                for p in program.idb_predicates() {
                    render_relation(p, &out.database, &mut rendered)?;
                }
            }
        }
        writeln!(
            rendered,
            "-- {} tuples, relational {:?}, solver {:?}",
            out.stats.tuples, out.stats.relational, out.stats.solver
        )
        .map_err(|e| err(e.to_string()))?;

        all_events.extend(events.iter().cloned());
        runs.push(DbRun {
            label: label.clone(),
            stats: out.stats,
            pool,
            events,
        });
    }

    let trace_json = obs.want_trace.then(|| chrome::trace_json(&all_events));
    let metrics_json = obs
        .want_metrics
        .then(|| metrics_document(program_label, &program, &prepare_events, &runs, &[]));
    Ok(EvalReport {
        rendered,
        trace_json,
        metrics_json,
    })
}

/// One applied update from an `--updates` stream, with its source line
/// and the engine's [`DeltaReport`] — feeds both the rendered summary
/// and the metrics document's `updates` array.
struct UpdateRun {
    line: usize,
    text: String,
    report: DeltaReport,
}

/// Parses an update-stream file: one update per line, `+R(c, ...)` to
/// insert a fact and `-R(c, ...)` to delete the exact tuple (mapped to
/// [`DeletePattern::exact`]). Constants are integers, quoted strings,
/// or bare symbols; `%` starts a comment; blank lines are skipped; a
/// trailing `.` is allowed. Returns `(line_number, source_text, delta)`
/// triples — one delta per line, applied in file order.
fn parse_update_stream(text: &str) -> Result<Vec<(usize, String, Delta)>, CliError> {
    let mut updates = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('%').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let (lineno, shown) = (lineno + 1, line.to_owned());
        let bad = |m: &str| err(format!("updates line {lineno}: {m} in `{shown}`"));
        let (is_insert, rest) = match line.as_bytes()[0] {
            b'+' => (true, &line[1..]),
            b'-' => (false, &line[1..]),
            _ => return Err(bad("update lines start with `+` or `-`")),
        };
        let rest = rest.trim();
        let rest = rest.strip_suffix('.').unwrap_or(rest).trim_end();
        let (pred, args) = rest
            .split_once('(')
            .ok_or_else(|| bad("expected `Pred(const, ...)`"))?;
        let pred = pred.trim();
        if pred.is_empty() {
            return Err(bad("missing predicate name"));
        }
        let args = args
            .strip_suffix(')')
            .ok_or_else(|| bad("expected closing `)`"))?;
        let mut row: Vec<Const> = Vec::new();
        for item in args.split(',') {
            let item = item.trim();
            if item.is_empty() {
                if args.trim().is_empty() {
                    break; // zero-arity tuple `R()`
                }
                return Err(bad("empty argument"));
            }
            if let Ok(n) = item.parse::<i64>() {
                row.push(Const::Int(n));
            } else if let Some(q) = item.strip_prefix('"').and_then(|s| s.strip_suffix('"')) {
                row.push(Const::sym(q));
            } else {
                row.push(Const::sym(item));
            }
        }
        let mut delta = Delta::new();
        if is_insert {
            delta.push_insert_fact(pred, row);
        } else {
            delta.push_delete(pred, DeletePattern::exact(row));
        }
        updates.push((lineno, shown, delta));
    }
    Ok(updates)
}

/// `faure eval --updates stream.fdl` implementation: materializes the
/// program's fixpoint over the database once, then applies each update
/// line as its own [`Delta`] through the incremental maintenance path,
/// reporting per-update latency. The rendered output lists every
/// applied update with its change counts and wall time, then the final
/// relations; `--metrics` adds a per-update `updates` array (schema
/// `faure_metrics_version: 1`) with `per_update_wall_ns` per entry.
#[allow(clippy::too_many_arguments)]
pub fn cmd_eval_updates(
    db_label: &str,
    db_text: &str,
    program_label: &str,
    program_text: &str,
    updates_label: &str,
    updates_text: &str,
    prune: PrunePolicy,
    only_relation: Option<&str>,
    knobs: &EngineKnobs,
    obs: &ObsOptions,
) -> Result<EvalReport, CliError> {
    let program = parse_program(program_text).map_err(|e| err(e.to_string()))?;
    let mut opts = EvalOptions {
        prune,
        ..Default::default()
    };
    knobs.configure(&mut opts);
    let updates = parse_update_stream(updates_text)?;

    let recorder = Arc::new(Recorder::new());
    let tracer = build_tracer(&recorder, obs);

    let db = load_database(db_text).map_err(|e| err(format!("{db_label}: {e}")))?;
    let mut prepared = Engine::with_options(opts)
        .prepare_traced(&program, &tracer)
        .map_err(|e| err(e.to_string()))?;
    prepared
        .set_shard_keys(knobs.shard_keys.iter().map(|(p, c)| (p.as_str(), *c)))
        .map_err(|e| err(e.to_string()))?;
    let prepare_events = recorder.take();

    // Initial fixpoint: the batch evaluation, run through the standing
    // materialized state that the per-update applies then maintain.
    let t0 = std::time::Instant::now();
    let mut state = prepared
        .materialize_with(&db, &opts, &tracer)
        .map_err(|e| err(format!("{db_label}: {e}")))?;
    let materialize_wall = t0.elapsed();
    let runs = [DbRun {
        label: db_label.to_owned(),
        stats: state.stats().clone(),
        pool: pool_stats(),
        events: recorder.take(),
    }];

    let mut rendered = String::new();
    let mut all_events = prepare_events.clone();
    all_events.extend(runs[0].events.iter().cloned());
    writeln!(
        rendered,
        "-- materialized {} in {}",
        db_label,
        fmt_ns(materialize_wall.as_nanos() as u64)
    )
    .map_err(|e| err(e.to_string()))?;

    let total_updates = updates.len();
    let mut applied: Vec<UpdateRun> = Vec::new();
    for (idx, (line, text, delta)) in updates.into_iter().enumerate() {
        let report = prepared
            .apply(&mut state, delta)
            .map_err(|e| err(format!("{updates_label}:{line}: {e}")))?;
        all_events.extend(recorder.take());
        if obs.progress {
            // Live churn progress on stderr: one line per applied
            // update, flushed immediately so a watcher (or a human
            // tailing the run) sees maintenance latency as it happens.
            // stdout carries only the final report, so piping results
            // stays clean.
            let sv = &report.stats.solver_stats;
            eprintln!(
                "update {}/{total_updates} line {line}: +{} -{} edb, {} rederived, {} overdeleted in {} (memo {:.1}%)",
                idx + 1,
                report.inserted,
                report.deleted,
                report.rederived,
                report.overdeleted,
                fmt_ns(report.wall.as_nanos() as u64),
                sv.memo_hit_rate() * 100.0
            );
        }
        writeln!(
            rendered,
            "-- update {line} `{text}`: +{} / -{} edb, {} rederived, {} overdeleted, {} pruned ({})",
            report.inserted,
            report.deleted,
            report.rederived,
            report.overdeleted,
            report.pruned,
            fmt_ns(report.wall.as_nanos() as u64)
        )
        .map_err(|e| err(e.to_string()))?;
        applied.push(UpdateRun { line, text, report });
    }

    match only_relation {
        Some(r) => render_state_relation(r, &state, &mut rendered)?,
        None => {
            for p in program.idb_predicates() {
                render_state_relation(p, &state, &mut rendered)?;
            }
        }
    }
    let (total_ns, mean_ns, max_ns) = wall_summary(&applied);
    writeln!(
        rendered,
        "-- {} updates applied: per-update mean {}, max {}, total {}",
        applied.len(),
        fmt_ns(mean_ns),
        fmt_ns(max_ns),
        fmt_ns(total_ns)
    )
    .map_err(|e| err(e.to_string()))?;

    let trace_json = obs.want_trace.then(|| chrome::trace_json(&all_events));
    let metrics_json = obs
        .want_metrics
        .then(|| metrics_document(program_label, &program, &prepare_events, &runs, &applied));
    Ok(EvalReport {
        rendered,
        trace_json,
        metrics_json,
    })
}

/// Total, mean and worst apply wall of an update stream, in
/// nanoseconds (what the rendered footer and `updates_summary` report).
fn wall_summary(updates: &[UpdateRun]) -> (u64, u64, u64) {
    let walls = updates.iter().map(|u| u.report.wall.as_nanos() as u64);
    let total: u64 = walls.clone().sum();
    let mean = total / updates.len().max(1) as u64;
    (total, mean, walls.max().unwrap_or(0))
}

/// Renders a predicate's current contents out of the standing
/// materialized state (EDB or derived, reflecting every applied delta).
fn render_state_relation(
    name: &str,
    state: &faure_core::MaterializedState,
    out: &mut String,
) -> Result<(), CliError> {
    let Some(rel) = state.relation(name) else {
        return Err(err(format!("no relation named {name}")));
    };
    writeln!(out, "{}({}):", rel.schema.name, rel.schema.attrs.join(", "))
        .map_err(|e| err(e.to_string()))?;
    for t in rel.iter() {
        writeln!(out, "  {}", t.display(&state.database().cvars))
            .map_err(|e| err(e.to_string()))?;
    }
    Ok(())
}

/// Whether a stat belongs in `totals`: the registry carries it, and
/// folding the per-apply records reproduces the registry's value
/// (counts do; `relational_ns` is re-measured when a run is exported).
fn in_totals<S>(stat: &Stat<S>) -> bool {
    stat.published() && stat.kind != Kind::Nanos
}

/// Builds the `faure_metrics_version: 1` JSON document. Every counter
/// in it is written from its struct's stat table; README "Metrics
/// schema" documents the layout and CI asserts it.
fn metrics_document(
    program_label: &str,
    program: &faure_core::Program,
    prepare_events: &[Event],
    runs: &[DbRun],
    updates: &[UpdateRun],
) -> String {
    json::object(|doc| {
        doc.field("faure_metrics_version", 1)
            .field("program", Str(program_label));
        // Prepare-phase rollup (safety / stratify / plan-compile).
        doc.array("prepare", |a| {
            push_rollups(a, &rollup_spans(prepare_events))
        });
        doc.array("databases", |a| {
            for run in runs {
                a.object(|o| push_db_metrics(o, program, run));
            }
        });

        // Per-delta maintenance latency (`eval --updates`): one entry
        // per applied update line, in order. Empty for plain batch eval.
        doc.array("updates", |a| {
            for (seq, u) in updates.iter().enumerate() {
                a.object(|o| {
                    o.field("seq", seq)
                        .field("line", u.line)
                        .field("update", Str(&u.text));
                    write_fields(o, &u.report, |_| true);
                    o.field("per_update_wall_ns", u.report.wall.as_nanos());
                });
            }
        });
        if !updates.is_empty() {
            let (total, mean, max) = wall_summary(updates);
            doc.object("updates_summary", |o| {
                o.field("count", updates.len())
                    .field("total_wall_ns", total)
                    .field("mean_wall_ns", mean)
                    .field("max_wall_ns", max);
            });
        }

        // Whole-process totals: every apply (initial materializations
        // plus per-update maintenance) folded together. These are the
        // same increments the live telemetry registry accumulates at
        // apply boundaries, so a final `--telemetry-jsonl` snapshot (or
        // a last `/metrics` scrape) agrees with this block
        // counter-for-counter. `idb_tuples` is the absolute row count
        // after the last apply — a gauge, not a sum.
        let applied = runs
            .iter()
            .map(|r| &r.stats)
            .chain(updates.iter().map(|u| &u.report.stats));
        let applies = Applies {
            runs: runs.len() as u64,
            updates_applied: updates.len() as u64,
            idb_tuples: applied.clone().last().map_or(0, |s| s.tuples),
        };
        let mut tot = PhaseStats::new();
        applied.for_each(|s| tot.absorb(s));
        doc.object("totals", |o| {
            write_fields(o, &applies, in_totals);
            write_fields(o, &tot.ops, in_totals);
            write_fields(o, &tot.solver_stats, in_totals);
            write_fields(o, &tot, in_totals);
        });
    })
}

fn push_rollups(a: &mut Arr<'_>, rollups: &[Rollup]) {
    for r in rollups {
        a.object(|o| {
            o.field("cat", Str(r.cat))
                .field("name", Str(r.name))
                .field("count", r.count)
                .field("wall_ns", r.wall_ns);
        });
    }
}

fn push_db_metrics(o: &mut Obj<'_>, program: &faure_core::Program, run: &DbRun) {
    let st = &run.stats;
    o.field("label", Str(&run.label));
    write_fields(o, st, |s| !s.key.starts_with("plan_cache_"));
    st.write_blocks(o, &run.pool);
    o.array("delta_sizes", |a| {
        a.items(&st.delta_sizes);
    });

    // Sharded-fixpoint counters (all-zero with `count` 0 and
    // `imbalance` null when the run was not sharded).
    o.object("shards", |b| {
        write_fields(b, &st.shard, |_| true);
        let imbalance = st.shard.imbalance();
        b.field(
            "imbalance",
            imbalance.map_or("null".to_owned(), |r| format!("{r:.4}")),
        );
    });

    o.array("phases", |a| push_rollups(a, &rollup_spans(&run.events)));
    o.array("rules", |a| {
        for (ri, r) in rollup_by_arg(&run.events, "fixpoint", "rule-pass", "rule") {
            let head = r.label("head").map(str::to_owned).unwrap_or_else(|| {
                let rule = program.rules.get(ri as usize);
                rule.map(|rule| rule.head.pred.clone()).unwrap_or_default()
            });
            a.object(|o| {
                o.field("rule", ri)
                    .field("head", Str(&head))
                    .field("passes", r.count)
                    .field("wall_ns", r.wall_ns)
                    .field("matches", r.sum("matches"))
                    .field("rows_out", r.sum("rows_out"))
                    .field("cond_size", r.sum("cond_size"));
            });
        }
    });
}

/// Formats nanoseconds human-readably (ns → µs → ms → s).
fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// `faure profile <prog.fl> <db.fdb>` implementation: runs the program
/// with tracing enabled and renders a rustc-style text report — phase
/// breakdown, per-iteration delta sizes, top rules by time, and the
/// solver memo / latency summary.
pub fn cmd_profile(
    program_label: &str,
    program_text: &str,
    db_label: &str,
    db_text: &str,
    knobs: &EngineKnobs,
) -> Result<String, CliError> {
    cmd_profile_with_clock(
        program_label,
        program_text,
        db_label,
        db_text,
        knobs,
        Arc::new(MonotonicClock::starting_now()),
    )
}

/// [`cmd_profile`] with an injected trace clock — the golden-output
/// test drives this with a [`faure_trace::ManualClock`] so every span
/// duration in the report is deterministic.
pub fn cmd_profile_with_clock(
    program_label: &str,
    program_text: &str,
    db_label: &str,
    db_text: &str,
    knobs: &EngineKnobs,
    clock: Arc<dyn Clock>,
) -> Result<String, CliError> {
    let program = parse_program(program_text).map_err(|e| err(e.to_string()))?;
    let db = load_database(db_text)?;
    let mut opts = EvalOptions::default();
    knobs.configure(&mut opts);

    let recorder = Arc::new(Recorder::new());
    let tracer = Tracer::with_clock(Arc::clone(&recorder) as Arc<dyn TraceSink>, clock);
    let mut prepared = Engine::with_options(opts)
        .prepare_traced(&program, &tracer)
        .map_err(|e| err(e.to_string()))?;
    prepared
        .set_shard_keys(knobs.shard_keys.iter().map(|(p, c)| (p.as_str(), *c)))
        .map_err(|e| err(e.to_string()))?;
    let out = prepared
        .run_traced(&db, &tracer)
        .map_err(|e| err(e.to_string()))?;
    let events = recorder.take();
    let st = &out.stats;
    let sv = &st.solver_stats;

    let mut s = String::new();
    let w = &mut s;
    let _ = writeln!(w, "profile: {program_label} on {db_label}");
    let _ = writeln!(
        w,
        "  total {}  (relational {}, solver {})",
        fmt_ns((st.relational + st.solver).as_nanos() as u64),
        fmt_ns(st.relational.as_nanos() as u64),
        fmt_ns(st.solver.as_nanos() as u64),
    );
    let _ = writeln!(
        w,
        "  tuples {}  pruned {}  plan cache {} hits / {} compiled",
        st.tuples, st.pruned, st.plan_cache_hits, st.plan_cache_misses
    );
    let _ = writeln!(
        w,
        "  solver: {} sat calls ({} sat), memo hit rate {:.1}% ({} hits / {} misses, {} cross-run)",
        sv.sat_calls,
        sv.sat_true,
        sv.memo_hit_rate() * 100.0,
        sv.memo_hits,
        sv.memo_misses,
        sv.cross_run_hits
    );
    if sv.latency.count() > 0 {
        let _ = writeln!(
            w,
            "  solver latency: {} checks, mean {}  p50 ≤ {}  p99 ≤ {}",
            sv.latency.count(),
            fmt_ns(sv.latency.mean_ns()),
            fmt_ns(sv.latency.quantile(0.5)),
            fmt_ns(sv.latency.quantile(0.99)),
        );
    }

    // Phase breakdown from the span rollup.
    let _ = writeln!(w, "\nphases:");
    let _ = writeln!(w, "  {:<22} {:>7} {:>12}", "phase", "count", "wall");
    for r in rollup_spans(&events) {
        // `run` nests everything else; listing it would double-count.
        if r.cat == "eval" && r.name == "run" {
            continue;
        }
        let _ = writeln!(
            w,
            "  {:<22} {:>7} {:>12}",
            format!("{}/{}", r.cat, r.name),
            r.count,
            fmt_ns(r.wall_ns)
        );
    }

    // Prune-phase breakdown: one row per recorded prune span (per
    // predicate, in execution order), plus the wall-clock total the
    // driver thread spent in the prune phase. `wall` here is elapsed
    // driver time; the solver line above is per-worker CPU summed, so
    // under `--threads N` the prune wall shrinking while solver time
    // stays flat is the parallel prune paying off.
    let prunes: Vec<&Event> = events
        .iter()
        .filter(|e| e.cat == "eval" && e.name == "prune")
        .collect();
    if !prunes.is_empty() {
        let _ = writeln!(
            w,
            "\nprune: {} removed in {} wall",
            st.pruned,
            fmt_ns(st.prune_wall.as_nanos() as u64)
        );
        let _ = writeln!(
            w,
            "  {:<16} {:>8} {:>8} {:>8} {:>12}",
            "pred", "rows", "removed", "threads", "wall"
        );
        for e in prunes {
            let _ = writeln!(
                w,
                "  {:<16} {:>8} {:>8} {:>8} {:>12}",
                e.arg_str("pred").unwrap_or("?"),
                e.arg_u64("rows").unwrap_or(0),
                e.arg_u64("removed").unwrap_or(0),
                e.arg_u64("threads").unwrap_or(1),
                fmt_ns(e.dur_ns)
            );
        }
    }

    // Iteration table (semi-naive delta sizes, in execution order).
    let iters: Vec<&Event> = events
        .iter()
        .filter(|e| e.cat == "fixpoint" && e.name == "iteration")
        .collect();
    if !iters.is_empty() {
        let _ = writeln!(w, "\niterations:");
        let _ = writeln!(w, "  {:>5} {:>11} {:>12}", "iter", "delta rows", "wall");
        for e in iters {
            let _ = writeln!(
                w,
                "  {:>5} {:>11} {:>12}",
                e.arg_u64("iteration").unwrap_or(0),
                e.arg_u64("delta_rows").unwrap_or(0),
                fmt_ns(e.dur_ns)
            );
        }
    }

    // Per-shard breakdown (only when the partitioned fixpoint ran, so
    // serial profiles — and the golden file — are unchanged).
    let sh = &st.shard;
    if sh.passes > 0 {
        let _ = writeln!(
            w,
            "\nshards: {} workers, {} delta passes, {} batches exchanged",
            sh.shards, sh.passes, sh.exchanged_batches
        );
        let _ = writeln!(
            w,
            "  rows routed {} (broadcast {})",
            sh.routed_rows, sh.broadcast_rows
        );
        if let Some(r) = sh.imbalance() {
            let _ = writeln!(w, "  imbalance (max/mean shard wall): {r:.2}");
        }
        let _ = writeln!(w, "  {:>5} {:>12}", "shard", "wall");
        for (i, wall) in sh.shard_wall.iter().enumerate() {
            let _ = writeln!(w, "  {:>5} {:>12}", i, fmt_ns(wall.as_nanos() as u64));
        }
    }

    // Top rules by time.
    let mut per_rule = rollup_by_arg(&events, "fixpoint", "rule-pass", "rule");
    per_rule.sort_by_key(|r| std::cmp::Reverse(r.1.wall_ns));
    let _ = writeln!(w, "\ntop rules by time:");
    let _ = writeln!(
        w,
        "  {:>12} {:>6} {:>9} {:>9}  rule",
        "wall", "passes", "matches", "rows"
    );
    for (ri, r) in per_rule.iter().take(10) {
        let rule_text = program
            .rules
            .get(*ri as usize)
            .map(|rule| rule.to_string())
            .unwrap_or_else(|| format!("#{ri}"));
        let _ = writeln!(
            w,
            "  {:>12} {:>6} {:>9} {:>9}  {}",
            fmt_ns(r.wall_ns),
            r.count,
            r.sum("matches"),
            r.sum("rows_out"),
            rule_text
        );
    }
    Ok(s)
}

/// Handle to the background `--telemetry-jsonl` writer. The thread
/// snapshots the process-global telemetry registry every interval and
/// appends one JSON object per line; [`finish`](Self::finish) stops it
/// and forces a final snapshot line, so the file always ends with the
/// post-run counter totals.
#[derive(Debug)]
pub struct TelemetryJsonl {
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<std::io::Result<()>>,
    path: String,
}

impl TelemetryJsonl {
    /// Signals the writer to stop, waits for the final snapshot line,
    /// and surfaces any deferred I/O error as a CLI error naming the
    /// output path.
    pub fn finish(self) -> Result<(), CliError> {
        self.stop.store(true, Ordering::Release);
        match self.handle.join() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(err(format!("{}: {e}", self.path))),
            Err(_) => Err(err(format!(
                "{}: telemetry writer thread panicked",
                self.path
            ))),
        }
    }
}

/// Starts the `--telemetry-jsonl` background writer: one snapshot of
/// the global registry per `interval_ms`, rendered by
/// [`faure_trace::prom::render_jsonl`], one line each. The file is
/// created eagerly so a bad path fails the command up front instead of
/// silently producing nothing.
pub fn spawn_telemetry_jsonl(path: &str, interval_ms: u64) -> Result<TelemetryJsonl, CliError> {
    let file = std::fs::File::create(path).map_err(|e| err(format!("{path}: {e}")))?;
    let stop = Arc::new(AtomicBool::new(false));
    let stop_flag = Arc::clone(&stop);
    let registry = telemetry::global();
    let interval = std::time::Duration::from_millis(interval_ms.max(1));
    let handle = std::thread::Builder::new()
        .name("faure-telemetry-jsonl".to_owned())
        .spawn(move || -> std::io::Result<()> {
            let mut out = std::io::BufWriter::new(file);
            loop {
                // Read the flag *before* snapshotting: when `finish`
                // raises it, the snapshot taken here is at least as
                // fresh as the last published counters, so the final
                // line reflects the completed run.
                let stopping = stop_flag.load(Ordering::Acquire);
                out.write_all(prom::render_jsonl(&registry.snapshot()).as_bytes())?;
                out.write_all(b"\n")?;
                out.flush()?;
                if stopping {
                    return Ok(());
                }
                // Sleep in short steps so `finish` returns promptly
                // even under a long `--telemetry-interval-ms`.
                let step = std::time::Duration::from_millis(20);
                let mut slept = std::time::Duration::ZERO;
                while slept < interval && !stop_flag.load(Ordering::Acquire) {
                    let nap = step.min(interval - slept);
                    std::thread::sleep(nap);
                    slept += nap;
                }
            }
        })
        .map_err(|e| err(format!("{path}: failed to spawn telemetry writer: {e}")))?;
    Ok(TelemetryJsonl {
        stop,
        handle,
        path: path.to_owned(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIG1: &str = "\
@cvar x in {0, 1}
@cvar y in {0, 1}
@cvar z in {0, 1}
@schema F(f, n1, n2)
F(1, 1, 2) :- $x = 1.
F(1, 1, 3) :- $x = 0.
F(1, 2, 3) :- $y = 1.
F(1, 2, 4) :- $y = 0.
F(1, 3, 5) :- $z = 1.
F(1, 3, 4) :- $z = 0.
F(1, 4, 5).
";

    const REACH: &str = "\
R(f, a, b) :- F(f, a, b).
R(f, a, b) :- F(f, a, c), R(f, c, b).
";

    fn one_db(label: &str) -> Vec<(String, String)> {
        vec![(label.to_owned(), FIG1.to_owned())]
    }

    #[test]
    fn batch_eval_single_db_matches_plain_eval() {
        let report = cmd_eval_batch(
            &one_db("fig1.fdb"),
            "reach.fl",
            REACH,
            PrunePolicy::EndOfStratum,
            Some("R"),
            &EngineKnobs::default(),
            &ObsOptions::none(),
        )
        .unwrap();
        let plain =
            crate::cmd_eval(FIG1, REACH, PrunePolicy::EndOfStratum, Some("R"), None).unwrap();
        let strip = |s: &str| {
            s.lines()
                .filter(|l| !l.starts_with("--"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(strip(&report.rendered), strip(&plain));
        assert!(report.trace_json.is_none());
        assert!(report.metrics_json.is_none());
    }

    #[test]
    fn batch_eval_renders_per_db_sections_and_shares_plans() {
        let dbs = vec![
            ("a.fdb".to_owned(), FIG1.to_owned()),
            ("b.fdb".to_owned(), FIG1.to_owned()),
        ];
        let report = cmd_eval_batch(
            &dbs,
            "reach.fl",
            REACH,
            PrunePolicy::EndOfStratum,
            Some("R"),
            &EngineKnobs::default(),
            &ObsOptions::artifacts(false, true),
        )
        .unwrap();
        assert!(report.rendered.contains("== a.fdb =="));
        assert!(report.rendered.contains("== b.fdb =="));
        let metrics = report.metrics_json.unwrap();
        assert!(metrics.contains("\"faure_metrics_version\":1"));
        assert!(metrics.contains("\"label\":\"a.fdb\""));
        assert!(metrics.contains("\"label\":\"b.fdb\""));
        // Both runs report identical plan-cache counters: plans were
        // compiled once, at prepare time, then reused per database.
        let caches: Vec<&str> = metrics
            .match_indices("\"plan_cache\":{")
            .map(|(i, _)| {
                let rest = &metrics[i..];
                &rest[..=rest.find('}').unwrap()]
            })
            .collect();
        assert_eq!(caches.len(), 2, "{metrics}");
        assert_eq!(caches[0], caches[1], "{metrics}");
    }

    #[test]
    fn batch_second_db_reuses_memo_across_runs() {
        // Both databases share the same c-variable registry
        // (fingerprint), so the prepared program's memo carries over:
        // the second run must report cross-run memo hits, the first
        // (cold) run none.
        let dbs = vec![
            ("a.fdb".to_owned(), FIG1.to_owned()),
            ("b.fdb".to_owned(), FIG1.to_owned()),
        ];
        let report = cmd_eval_batch(
            &dbs,
            "reach.fl",
            REACH,
            PrunePolicy::EndOfStratum,
            Some("R"),
            &EngineKnobs::default(),
            &ObsOptions::artifacts(false, true),
        )
        .unwrap();
        let metrics = report.metrics_json.unwrap();
        let hits: Vec<u64> = metrics
            .match_indices("\"cross_run_hits\":")
            .map(|(i, key)| {
                let rest = &metrics[i + key.len()..];
                let end = rest.find(',').unwrap();
                rest[..end].parse().unwrap()
            })
            .collect();
        // Two per-database entries plus the whole-process totals block.
        assert_eq!(hits.len(), 3, "{metrics}");
        assert_eq!(hits[0], 0, "cold run saw cross-run hits: {metrics}");
        assert!(hits[1] > 0, "warm run reused no memo entries: {metrics}");
        assert_eq!(hits[2], hits[0] + hits[1], "{metrics}");
        assert!(
            metrics.contains("\"memo_cross_run_hit_rate\":0.0000"),
            "{metrics}"
        );
    }

    #[test]
    fn each_database_reports_the_pool_as_its_run_left_it() {
        // The second database derives a conjunction over constants no
        // other test uses, so its run interns at least one node the
        // first run's snapshot cannot hold.
        let second = FIG1
            .replace("@cvar x in {0, 1}", "@cvar x in {0, 1, 7001}")
            .replace("@cvar y in {0, 1}", "@cvar y in {0, 1, 7002}")
            + "F(1, 8, 9) :- $x = 7001.\nF(1, 9, 10) :- $y = 7002.\n";
        let dbs = vec![
            ("a.fdb".to_owned(), FIG1.to_owned()),
            ("b.fdb".to_owned(), second),
        ];
        let report = cmd_eval_batch(
            &dbs,
            "reach.fl",
            REACH,
            PrunePolicy::EndOfStratum,
            Some("R"),
            &EngineKnobs::default(),
            &ObsOptions::artifacts(false, true),
        )
        .unwrap();
        let metrics = report.metrics_json.unwrap();
        let sizes: Vec<u64> = metrics
            .match_indices("\"pool_size\":")
            .map(|(i, key)| {
                let rest = &metrics[i + key.len()..];
                rest[..rest.find(',').unwrap()].parse().unwrap()
            })
            .collect();
        assert_eq!(sizes.len(), 2, "{metrics}");
        assert!(sizes[0] < sizes[1], "pool sizes {sizes:?} in {metrics}");
    }

    #[test]
    fn trace_output_is_chrome_trace_json() {
        let report = cmd_eval_batch(
            &one_db("fig1.fdb"),
            "reach.fl",
            REACH,
            PrunePolicy::EndOfStratum,
            None,
            &EngineKnobs::default(),
            &ObsOptions::artifacts(true, false),
        )
        .unwrap();
        let trace = report.trace_json.unwrap();
        assert!(trace.starts_with("{\"traceEvents\":["));
        assert!(trace.contains("\"ph\":\"X\""));
        assert!(trace.contains("\"name\":\"rule-pass\""));
        assert!(trace.contains("\"name\":\"plan-compile\""));
    }

    #[test]
    fn metrics_document_has_schema_keys() {
        let report = cmd_eval_batch(
            &one_db("fig1.fdb"),
            "reach.fl",
            REACH,
            PrunePolicy::EndOfStratum,
            None,
            &EngineKnobs::default(),
            &ObsOptions::artifacts(false, true),
        )
        .unwrap();
        let m = report.metrics_json.unwrap();
        for key in [
            "\"faure_metrics_version\":1",
            "\"program\":\"reach.fl\"",
            "\"prepare\":[",
            "\"databases\":[",
            "\"relational_ns\":",
            "\"solver_ns\":",
            "\"prune_wall_ns\":",
            "\"tuples\":",
            "\"pruned\":",
            "\"rows_encoded\":",
            "\"ops\":{\"probes\":",
            "\"solver\":{\"sat_calls\":",
            "\"cross_run_hits\":",
            "\"memo_hit_rate\":",
            "\"memo_cross_run_hit_rate\":",
            "\"latency_ns\":[",
            "\"plan_cache\":{\"hits\":",
            "\"pool\":{\"pool_hits\":",
            "\"pool_size\":",
            "\"delta_sizes\":[",
            "\"phases\":[",
            "\"rules\":[",
            "\"head\":\"R\"",
            "\"totals\":{\"runs\":1,\"updates_applied\":0,\"idb_tuples\":",
        ] {
            assert!(m.contains(key), "missing {key} in {m}");
        }
    }

    #[test]
    fn tracing_does_not_change_rendered_results() {
        let base = cmd_eval_batch(
            &one_db("fig1.fdb"),
            "reach.fl",
            REACH,
            PrunePolicy::EndOfStratum,
            Some("R"),
            &EngineKnobs::default(),
            &ObsOptions::none(),
        )
        .unwrap();
        let traced = cmd_eval_batch(
            &one_db("fig1.fdb"),
            "reach.fl",
            REACH,
            PrunePolicy::EndOfStratum,
            Some("R"),
            &EngineKnobs::default(),
            &ObsOptions::artifacts(true, true),
        )
        .unwrap();
        let strip = |s: &str| {
            s.lines()
                .filter(|l| !l.starts_with("--"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(strip(&base.rendered), strip(&traced.rendered));
    }

    #[test]
    fn update_stream_parses_signs_consts_and_comments() {
        let stream = "\
% churn stream
+F(1, 4, 6).
-F(1, 4, 5)
+Lbl(\"R&D\", core1, 7)  % inline comment

";
        let updates = parse_update_stream(stream).unwrap();
        assert_eq!(updates.len(), 3);
        assert_eq!(updates[0].0, 2);
        assert_eq!(updates[0].1, "+F(1, 4, 6).");
        assert_eq!(updates[0].2.insert.len(), 1);
        assert!(updates[0].2.delete.is_empty());
        assert_eq!(updates[1].2.delete.len(), 1);
        assert_eq!(
            updates[1].2.delete[0].1.cols,
            vec![
                Some(Const::Int(1)),
                Some(Const::Int(4)),
                Some(Const::Int(5))
            ]
        );
        let (rel, tuple) = &updates[2].2.insert[0];
        assert_eq!(rel, "Lbl");
        assert_eq!(tuple.terms.len(), 3);
        for bad in ["F(1, 2)", "+F 1 2", "+F(1,", "+(1)"] {
            assert!(parse_update_stream(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn eval_updates_reports_per_update_latency() {
        let stream = "+F(1, 4, 6).\n-F(1, 4, 5).\n";
        let report = cmd_eval_updates(
            "fig1.fdb",
            FIG1,
            "reach.fl",
            REACH,
            "stream.fdl",
            stream,
            PrunePolicy::EndOfStratum,
            Some("R"),
            &EngineKnobs::default(),
            &ObsOptions::artifacts(false, true),
        )
        .unwrap();
        assert!(report.rendered.contains("-- materialized fig1.fdb"));
        assert!(
            report.rendered.contains("-- update 1 `+F(1, 4, 6).`:"),
            "{}",
            report.rendered
        );
        assert!(
            report.rendered.contains("-- 2 updates applied:"),
            "{}",
            report.rendered
        );
        let m = report.metrics_json.unwrap();
        for key in [
            "\"faure_metrics_version\":1",
            "\"updates\":[{\"seq\":0,\"line\":1,\"update\":\"+F(1, 4, 6).\"",
            "\"per_update_wall_ns\":",
            "\"rederived\":",
            "\"overdeleted\":",
            "\"updates_summary\":{\"count\":2,",
        ] {
            assert!(m.contains(key), "missing {key} in {m}");
        }
    }

    #[test]
    fn eval_updates_final_state_matches_batch_reeval() {
        // Applying the stream incrementally must land on the same
        // relation a from-scratch evaluation over the edited database
        // computes (rows compared as sets; FIG1 cells are ground, so
        // the order-safe fast path keeps conditions bit-identical).
        let stream = "-F(1, 4, 5).\n+F(1, 4, 6).\n+F(1, 6, 7).\n";
        let incr = cmd_eval_updates(
            "fig1.fdb",
            FIG1,
            "reach.fl",
            REACH,
            "stream.fdl",
            stream,
            PrunePolicy::EndOfStratum,
            Some("R"),
            &EngineKnobs::default(),
            &ObsOptions::none(),
        )
        .unwrap();
        let edited = FIG1.replace("F(1, 4, 5).\n", "F(1, 4, 6).\nF(1, 6, 7).\n");
        let full =
            crate::cmd_eval(&edited, REACH, PrunePolicy::EndOfStratum, Some("R"), None).unwrap();
        let rows = |s: &str| {
            let mut v: Vec<String> = s
                .lines()
                .filter(|l| l.starts_with("  "))
                .map(|l| l.trim().to_owned())
                .collect();
            v.sort_unstable();
            v
        };
        assert_eq!(rows(&incr.rendered), rows(&full), "{}", incr.rendered);
    }

    #[test]
    fn profile_renders_report_sections() {
        let report =
            cmd_profile("reach.fl", REACH, "fig1.fdb", FIG1, &EngineKnobs::default()).unwrap();
        assert!(report.contains("profile: reach.fl on fig1.fdb"), "{report}");
        assert!(report.contains("memo hit rate"), "{report}");
        assert!(report.contains("phases:"), "{report}");
        assert!(report.contains("fixpoint/rule-pass"), "{report}");
        assert!(report.contains("prune:"), "{report}");
        assert!(report.contains("cross-run"), "{report}");
        assert!(report.contains("iterations:"), "{report}");
        assert!(report.contains("top rules by time:"), "{report}");
        assert!(report.contains("R(f, a, b)"), "{report}");
    }

    /// Threads and shards pinned to one: the defaults read
    /// `FAURE_THREADS` / `FAURE_SHARDS`, which a serial shape must not
    /// inherit.
    fn serial_knobs() -> EngineKnobs {
        EngineKnobs {
            threads: Some(1),
            shards: Some(1),
            ..EngineKnobs::default()
        }
    }

    #[test]
    fn profile_serial_run_omits_shard_section() {
        let report = cmd_profile("reach.fl", REACH, "fig1.fdb", FIG1, &serial_knobs()).unwrap();
        assert!(!report.contains("\nshards:"), "{report}");
    }

    #[test]
    fn profile_sharded_run_renders_shard_breakdown() {
        let knobs = EngineKnobs {
            shards: Some(2),
            ..EngineKnobs::default()
        };
        let report = cmd_profile("reach.fl", REACH, "fig1.fdb", FIG1, &knobs).unwrap();
        assert!(
            report.contains("shards: 2 workers,"),
            "missing shard section: {report}"
        );
        assert!(report.contains("rows routed "), "{report}");
        assert!(
            report.contains("imbalance (max/mean shard wall):"),
            "{report}"
        );
        assert!(report.contains("shard         wall"), "{report}");
    }

    #[test]
    fn sharded_batch_eval_matches_serial_rows() {
        // Ground database: every derived condition is `true`, so the
        // rendered rows are directly comparable as sorted sets.
        let ground = "\
@schema E(a, b)
E(1, 2).
E(2, 3).
E(3, 4).
E(4, 5).
";
        let tc = "R(a, b) :- E(a, b).\nR(a, b) :- E(a, c), R(c, b).\n";
        let run = |knobs: &EngineKnobs| {
            let report = cmd_eval_batch(
                &[("g.fdb".to_owned(), ground.to_owned())],
                "tc.fl",
                tc,
                PrunePolicy::EndOfStratum,
                Some("R"),
                knobs,
                &ObsOptions::artifacts(false, true),
            )
            .unwrap();
            let mut rows: Vec<String> = report
                .rendered
                .lines()
                .filter(|l| l.starts_with("  "))
                .map(|l| l.trim().to_owned())
                .collect();
            rows.sort_unstable();
            (rows, report.metrics_json.unwrap())
        };
        let (serial_rows, serial_metrics) = run(&serial_knobs());
        let (sharded_rows, sharded_metrics) = run(&EngineKnobs {
            shards: Some(4),
            ..EngineKnobs::default()
        });
        assert_eq!(serial_rows, sharded_rows);
        assert!(
            serial_metrics.contains("\"shards\":{\"count\":0,"),
            "{serial_metrics}"
        );
        assert!(
            sharded_metrics.contains("\"shards\":{\"count\":4,"),
            "{sharded_metrics}"
        );
        assert!(
            sharded_metrics.contains("\"routed_rows\":"),
            "{sharded_metrics}"
        );
    }

    #[test]
    fn shard_key_overrides_validate_against_program() {
        let knobs = EngineKnobs {
            shards: Some(2),
            shard_keys: vec![("NoSuch".to_owned(), 0)],
            ..EngineKnobs::default()
        };
        let e = cmd_eval_batch(
            &one_db("fig1.fdb"),
            "reach.fl",
            REACH,
            PrunePolicy::EndOfStratum,
            Some("R"),
            &knobs,
            &ObsOptions::none(),
        )
        .unwrap_err();
        assert!(e.to_string().contains("invalid shard key"), "{e}");
        // A valid override is accepted and still derives the same rows.
        let ok = EngineKnobs {
            shards: Some(2),
            shard_keys: vec![("R".to_owned(), 2)],
            ..EngineKnobs::default()
        };
        let report = cmd_eval_batch(
            &one_db("fig1.fdb"),
            "reach.fl",
            REACH,
            PrunePolicy::EndOfStratum,
            Some("R"),
            &ok,
            &ObsOptions::none(),
        )
        .unwrap();
        assert!(report.rendered.contains("R("), "{}", report.rendered);
    }

    #[test]
    fn fmt_ns_scales_units() {
        assert_eq!(fmt_ns(500), "500ns");
        assert_eq!(fmt_ns(1_500), "1.5µs");
        assert_eq!(fmt_ns(2_500_000), "2.50ms");
        assert_eq!(fmt_ns(3_000_000_000), "3.00s");
    }
}
