//! Differential testing of the tracing layer.
//!
//! Tracing is observational: recording the pipeline must never change
//! what the pipeline computes. On the shared random corpus (the same
//! distribution the plan-differential and engine-parallel suites draw
//! from) this pins down two properties:
//!
//! * evaluation results are **bit-identical** with tracing on vs. off
//!   — same tuples, same derived conditions, same order — serially and
//!   in parallel;
//! * the **deterministic aggregated counters** — both the `PhaseStats`
//!   counters and the counter arguments rolled up from the recorded
//!   spans — are identical at 1, 2, and 4 worker threads. Only timings
//!   (and the racy memo hit/miss *split* under the shared parallel
//!   memo) may differ between runs.

use faure_core::engine::canonicalize;
use faure_core::{evaluate_with, Engine, EvalOptions, EvalOutput, Program};
use faure_ctable::{Condition, Database, Term};
use faure_tests::corpus::{arb_db, arb_program};
use faure_trace::metrics::{rollup_by_arg, rollup_spans};
use faure_trace::{Event, FlightRecorder, Recorder, Tee, TraceSink, Tracer};
use proptest::prelude::*;
use std::sync::Arc;

/// Every derived row of every IDB relation, in stored order, with the
/// condition both raw and canonicalized (to make failures readable).
fn derived_rows(
    out: &EvalOutput,
    program: &Program,
) -> Vec<(String, Vec<Term>, Condition, Condition)> {
    let mut rows = Vec::new();
    for pred in program.idb_predicates() {
        for row in out.relation(pred).expect("IDB relation exists").iter() {
            rows.push((
                pred.to_owned(),
                row.terms.clone(),
                row.cond.clone(),
                canonicalize(row.cond.clone()),
            ));
        }
    }
    rows
}

fn eval_plain(program: &Program, db: &Database, threads: usize) -> EvalOutput {
    let opts = EvalOptions {
        threads,
        ..EvalOptions::default()
    };
    evaluate_with(program, db, &opts).expect("evaluation succeeds")
}

fn eval_traced(program: &Program, db: &Database, threads: usize) -> (EvalOutput, Vec<Event>) {
    let opts = EvalOptions {
        threads,
        ..EvalOptions::default()
    };
    let recorder = Arc::new(Recorder::new());
    let tracer = Tracer::new(Arc::clone(&recorder) as Arc<dyn TraceSink>);
    let out = Engine::with_options(opts)
        .prepare_traced(program, &tracer)
        .and_then(|prepared| prepared.run_traced(db, &tracer))
        .expect("evaluation succeeds");
    (out, recorder.take())
}

/// Evaluation with the CLI's full telemetry path enabled: the span
/// stream teed into a bounded flight ring alongside the recorder
/// (exactly what `faure eval` installs), on top of the engine's
/// always-on registry publication.
fn eval_telemetry(
    program: &Program,
    db: &Database,
    threads: usize,
) -> (EvalOutput, Arc<FlightRecorder>) {
    let opts = EvalOptions {
        threads,
        ..EvalOptions::default()
    };
    let recorder = Arc::new(Recorder::new());
    let flight = Arc::new(FlightRecorder::new(64));
    let tracer = Tracer::new(Arc::new(Tee::new(vec![
        Arc::clone(&recorder) as Arc<dyn TraceSink>,
        Arc::clone(&flight) as Arc<dyn TraceSink>,
    ])));
    let out = Engine::with_options(opts)
        .prepare_traced(program, &tracer)
        .and_then(|prepared| prepared.run_traced(db, &tracer))
        .expect("evaluation succeeds");
    (out, flight)
}

/// The deterministic counter subset of the evaluation: `PhaseStats`
/// counters that must not depend on thread count or tracing, plus the
/// counter arguments aggregated from the recorded spans. Excludes all
/// timings and the memo hit/miss *split* (racy under the lock-sharded
/// parallel memo — only the total number of memoisable queries is
/// deterministic).
#[derive(Debug, PartialEq, Eq)]
struct CounterFingerprint {
    tuples: usize,
    pruned: usize,
    delta_sizes: Vec<usize>,
    probes: u64,
    rows_matched: u64,
    conds_conjoined: u64,
    cmp_pruned: u64,
    neg_checks: u64,
    sat_calls: u64,
    sat_true: u64,
    simplify_calls: u64,
    memo_total: u64,
    plan_cache_hits: u64,
    plan_cache_misses: u64,
    /// Per-rule `(rule, matches, rows_out, cond_size, passes)` from the
    /// `fixpoint`/`rule-pass` span rollup.
    rules: Vec<(u64, u64, u64, u64, u64)>,
    /// Per-iteration delta rows from the `fixpoint`/`iteration` spans.
    iteration_deltas: Vec<u64>,
    /// Summed depth-0 matches and derived rows over all worker-chunk
    /// spans (the chunk *count* legitimately varies with threads).
    chunk_matches: u64,
    chunk_rows_out: u64,
}

fn fingerprint(out: &EvalOutput, events: &[Event]) -> CounterFingerprint {
    let st = &out.stats;
    let rules = rollup_by_arg(events, "fixpoint", "rule-pass", "rule")
        .into_iter()
        .map(|(ri, r)| {
            (
                ri,
                r.sum("matches"),
                r.sum("rows_out"),
                r.sum("cond_size"),
                r.count,
            )
        })
        .collect();
    let iteration_deltas = events
        .iter()
        .filter(|e| e.cat == "fixpoint" && e.name == "iteration")
        .filter_map(|e| e.arg_u64("delta_rows"))
        .collect();
    let chunks = rollup_spans(events)
        .into_iter()
        .find(|r| r.cat == "worker" && r.name == "chunk");
    CounterFingerprint {
        tuples: st.tuples,
        pruned: st.pruned,
        delta_sizes: st.delta_sizes.clone(),
        probes: st.ops.probes,
        rows_matched: st.ops.rows_matched,
        conds_conjoined: st.ops.conds_conjoined,
        cmp_pruned: st.ops.cmp_pruned,
        neg_checks: st.ops.neg_checks,
        sat_calls: st.solver_stats.sat_calls,
        sat_true: st.solver_stats.sat_true,
        simplify_calls: st.solver_stats.simplify_calls,
        memo_total: st.solver_stats.memo_hits + st.solver_stats.memo_misses,
        plan_cache_hits: st.plan_cache_hits,
        plan_cache_misses: st.plan_cache_misses,
        rules,
        iteration_deltas,
        chunk_matches: chunks.as_ref().map(|r| r.sum("matches")).unwrap_or(0),
        chunk_rows_out: chunks.as_ref().map(|r| r.sum("rows_out")).unwrap_or(0),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Tracing never perturbs evaluation: recorded runs are
    /// bit-identical to unrecorded ones, serially and in parallel.
    #[test]
    fn tracing_is_observationally_transparent(db in arb_db(), program in arb_program()) {
        for threads in [1usize, 4] {
            let plain = derived_rows(&eval_plain(&program, &db, threads), &program);
            let (out, _) = eval_traced(&program, &db, threads);
            let traced = derived_rows(&out, &program);
            prop_assert_eq!(
                &plain,
                &traced,
                "threads={}: tracing changed the results\nprogram:\n{}",
                threads,
                &program
            );
        }
    }

    /// The full telemetry path — registry publication plus the flight
    /// ring teed next to the recorder, the exact sink stack `faure
    /// eval` installs — never perturbs evaluation either: results stay
    /// bit-identical to an untraced run, and the ring respects its
    /// bound while actually capturing the span stream.
    #[test]
    fn telemetry_and_flight_recording_are_observationally_transparent(
        db in arb_db(), program in arb_program()
    ) {
        for threads in [1usize, 4] {
            let plain = derived_rows(&eval_plain(&program, &db, threads), &program);
            let (out, flight) = eval_telemetry(&program, &db, threads);
            let teed = derived_rows(&out, &program);
            prop_assert_eq!(
                &plain,
                &teed,
                "threads={}: telemetry changed the results\nprogram:\n{}",
                threads,
                &program
            );
            let kept = flight.snapshot();
            prop_assert!(!kept.is_empty(), "flight ring captured nothing");
            prop_assert!(kept.len() <= 64);
            if flight.dropped() > 0 {
                // Evictions only start once the ring is full.
                prop_assert_eq!(kept.len(), 64, "dropped {} from a non-full ring", flight.dropped());
            }
        }
    }

    /// The deterministic aggregated counters — stats and span rollups —
    /// are identical at every thread count; only timings may differ.
    #[test]
    fn aggregated_counters_are_thread_invariant(db in arb_db(), program in arb_program()) {
        let (out1, ev1) = eval_traced(&program, &db, 1);
        let base = fingerprint(&out1, &ev1);
        // Serial runs take the single-partition path: no chunk spans.
        prop_assert_eq!(base.chunk_matches, 0);
        for threads in [2usize, 4] {
            let (out, ev) = eval_traced(&program, &db, threads);
            let mut fp = fingerprint(&out, &ev);
            // Parallel runs chunk each rule pass; summed over chunks the
            // work must equal the serial totals. Splitting a pass into
            // chunks only happens when there are >= 2 depth-0 matches,
            // so compare against the per-rule totals, then normalise the
            // chunk sums away for the full-structure comparison.
            if fp.chunk_matches > 0 {
                let rule_matches: u64 = fp.rules.iter().map(|r| r.1).sum();
                let rule_rows: u64 = fp.rules.iter().map(|r| r.2).sum();
                prop_assert!(fp.chunk_matches <= rule_matches);
                prop_assert!(fp.chunk_rows_out <= rule_rows);
            }
            fp.chunk_matches = 0;
            fp.chunk_rows_out = 0;
            prop_assert_eq!(
                &base,
                &fp,
                "threads={}: counters diverged\nprogram:\n{}",
                threads,
                &program
            );
        }
    }
}
