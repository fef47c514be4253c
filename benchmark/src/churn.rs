//! `churn_stream`: a standing q4-q5 materialization absorbs a stream of
//! single-tuple updates, nine announces to each withdraw — the shape
//! of BGP churn. One operation is one `apply`. The two kinds differ
//! 400-fold, so their latencies are kept apart: the median over all
//! operations is an announce, the rate is withdraw time.

use crate::api::{self, Delta, DeltaReport, EvalError, MaterializedState, PreparedProgram};
use crate::check::{self, SplitMix64, SAMPLED_PREFIXES};
use crate::layers::{self, ExactCounts};
use crate::replay;
use crate::run::{
    self, end_to_end, fill_missing_layers, op_context, peak_rss_kb, repeat_setup, rss_kb, spanned,
    Loop, Metrics, RunConfig, RunOutput, Tracing,
};
use crate::spans::{rollup, rollup_where, SpanTree};
use crate::stats;
use faure_ctable::{CVarId, Const, Database, Relation};
use faure_net::{queries, rib};
use faure_trace::Tracer;
use std::collections::BTreeSet;
use std::time::Instant;

/// Updates per cycle of the stream: nine announces, then a withdraw.
const CYCLE: usize = 10;

/// Fresh next-hop node of announce `i`: above every generated AS number.
const FRESH_NODE_BASE: i64 = 600_000;

struct Case {
    prepared: PreparedProgram,
    state: MaterializedState,
    /// The distinct ground rows of the original `F`, in table order:
    /// the stream's raw material.
    f_rows: Vec<[i64; 3]>,
    monitored: [CVarId; 3],
    prefixes: usize,
    generate_s: f64,
    parse_s: f64,
    materialize_s: f64,
}

fn setup(cfg: &RunConfig, tracer: &Tracer) -> Result<Case, EvalError> {
    let prefixes = cfg.sizes.churn_prefixes;
    let (w, generate_s) = spanned(tracer, "generate", 0, || {
        rib::generate(&rib::RibParams {
            prefixes,
            paths_per_prefix: 5,
            as_count: cfg.sizes.as_count,
            path_len: 3,
            seed: cfg.seed,
        })
    });
    let mut seen = BTreeSet::new();
    let f_rows: Vec<[i64; 3]> =
        w.db.relation("F")
            .into_iter()
            .flat_map(Relation::iter)
            .filter_map(|t| {
                let mut row = [0i64; 3];
                for (slot, term) in row.iter_mut().zip(&t.terms) {
                    *slot = term.as_const().and_then(Const::as_int)?;
                }
                Some(row)
            })
            .filter(|row| seen.insert(*row))
            .collect();
    let (program, parse_s) = spanned(tracer, "parse", 0, queries::reachability_program);
    let opts = api::options(1, 1);
    let prepared = api::prepare(&program, opts, tracer)?;
    let (state, materialize_s) = spanned(tracer, "materialize", 0, || {
        api::materialize(&prepared, &w.db, opts, tracer)
    });
    Ok(Case {
        prepared,
        state: state?,
        f_rows,
        monitored: w.monitored,
        prefixes,
        generate_s,
        parse_s,
        materialize_s,
    })
}

/// How many updates the stream has before a withdraw would name a row
/// an earlier one already removed: update `i` withdraws row `7i mod n`,
/// which visits every row once while `i < n` unless 7 divides `n`.
fn stream_len(rows: usize) -> usize {
    if rows.is_multiple_of(7) {
        rows / 7
    } else {
        rows
    }
}

/// Update `i` of the stream: every tenth withdraws an original row, the
/// rest announce a hop from an original row's end to a fresh node.
fn update(f_rows: &[[i64; 3]], i: usize) -> (Delta, bool) {
    let mut delta = Delta::new();
    let withdraw = i % CYCLE == CYCLE - 1;
    if withdraw {
        let [p, a, b] = f_rows[(i * 7) % f_rows.len()];
        delta.push_delete_exact("F", [Const::Int(p), Const::Int(a), Const::Int(b)]);
    } else {
        let [p, _, b] = f_rows[i % f_rows.len()];
        let fresh = FRESH_NODE_BASE + i as i64;
        delta.push_insert_fact("F", [Const::Int(p), Const::Int(b), Const::Int(fresh)]);
    }
    (delta, withdraw)
}

/// What the reports of a window of updates add up to.
#[derive(Default, Debug, PartialEq)]
struct Tally {
    announces: usize,
    withdraws: usize,
    rederived: usize,
    overdeleted: usize,
    counting_strata: usize,
    rederive_strata: usize,
}

impl Tally {
    fn add(&mut self, withdraw: bool, report: &DeltaReport) {
        if withdraw {
            self.withdraws += 1;
            self.overdeleted += report.overdeleted;
        } else {
            self.announces += 1;
            self.rederived += report.rederived;
        }
        self.counting_strata += report.counting_strata;
        self.rederive_strata += report.rederive_strata;
    }
}

/// Applies update `i` to `state`, timed, as a benchmark span on `tracer`.
fn timed_apply(
    prepared: &PreparedProgram,
    state: &mut MaterializedState,
    delta: Delta,
    tracer: &Tracer,
    i: usize,
) -> (Result<DeltaReport, EvalError>, f64) {
    spanned(tracer, "apply", i as u64, || {
        api::apply(prepared, state, delta)
    })
}

fn latency(m: &mut Metrics, prefix: [&'static str; 3], walls_s: Vec<f64>) {
    let walls = stats::sorted(walls_s);
    if walls.is_empty() {
        return;
    }
    m.set(prefix[0], stats::median(&walls) * 1e3);
    if let Some((pct, value)) = stats::tail(&walls) {
        m.set(prefix[1], value * 1e3);
        m.set(prefix[2], pct);
    }
}

/// One run of `churn_stream`.
pub fn run(cfg: &RunConfig) -> Result<RunOutput, EvalError> {
    let tracing = Tracing::new(cfg.trace);
    let (setup_s, case) = repeat_setup(|| setup(cfg, &tracing.tracer));
    let Case {
        prepared,
        mut state,
        f_rows,
        monitored,
        prefixes,
        generate_s,
        parse_s,
        materialize_s,
    } = case?;
    if f_rows.is_empty() {
        return Err(EvalError::InvalidDelta(
            "the generated RIB has no ground F row to stream from".to_owned(),
        ));
    }
    let materialize_stats = state.stats().clone();
    let materialize_events = tracing.take();
    // A traced run keeps an untraced twin of the state and applies
    // every update to both, so tracing overhead is a ratio of walls
    // measured on the same updates in the same process.
    let mut twin = match cfg.trace {
        true => Some(api::materialize(
            &prepared,
            state.database(),
            api::options(1, 1),
            &tracing.off,
        )?),
        false => None,
    };

    let mut l = Loop::default();
    let pinned = cfg.sizes.churn_pinned_updates;
    let mut pinned_tally = Tally::default();
    let (mut announce_s, mut withdraw_s) = (Vec::new(), Vec::new());
    let (mut announce_relational_s, mut withdraw_prune_s) = (0.0f64, 0.0f64);
    let rss_before = rss_kb();
    let started = Instant::now();
    let mut i = 0usize;
    let stream_len = stream_len(f_rows.len());
    while i < stream_len && (i < pinned || started.elapsed().as_secs_f64() < cfg.seconds) {
        let (delta, withdraw) = update(&f_rows, i);
        let tracer = if cfg.trace {
            &tracing.tracer
        } else {
            &tracing.off
        };
        let mut twin_wall = None;
        let (report, wall) = match &mut twin {
            None => timed_apply(&prepared, &mut state, delta, tracer, i),
            Some(twin) => {
                // Whichever state sees an update first interns its
                // conditions for the other, so the two take turns.
                let twin_first = i.is_multiple_of(2);
                let early = twin_first
                    .then(|| timed_apply(&prepared, twin, delta.clone(), &tracing.off, i));
                let main = timed_apply(&prepared, &mut state, delta.clone(), tracer, i);
                let (twin_report, wall) =
                    early.unwrap_or_else(|| timed_apply(&prepared, twin, delta, &tracing.off, i));
                if let Err(e) = twin_report {
                    l.problem(format!("untraced update {i} failed: {e}"));
                }
                twin_wall = Some(wall);
                main
            }
        };
        l.attempted += 1;
        match report {
            Ok(report) => {
                // Latencies always come from an untraced apply.
                let wall = match twin_wall {
                    Some(untraced) => {
                        l.traced.push(wall);
                        untraced
                    }
                    None => wall,
                };
                l.plain.push(wall);
                let changed = if withdraw {
                    report.deleted
                } else {
                    report.inserted
                };
                if changed == 0 {
                    l.failed += 1;
                    l.problem(format!("update {i} changed nothing"));
                }
                if withdraw {
                    withdraw_s.push(wall);
                    withdraw_prune_s += report.stats.prune_wall.as_secs_f64();
                } else {
                    announce_s.push(wall);
                    announce_relational_s += report.stats.relational.as_secs_f64();
                }
                if i < pinned {
                    pinned_tally.add(withdraw, &report);
                }
            }
            Err(e) => {
                l.failed += 1;
                l.problem(format!("update {i} failed: {e}"));
            }
        }
        i += 1;
    }
    let rss_after = rss_kb();
    let peak_kb = peak_rss_kb();
    if l.plain.is_empty() {
        return Ok(RunOutput::nothing_measured(l, tracing.take()));
    }
    drop(twin);

    // ---- output checks, outside every timed region -------------------
    // The maintained R must be what a batch run over the final F gives.
    let (maintained, export_s) = spanned(&tracing.tracer, "export", 0, || state.relation("R"));
    let maintained = maintained.expect("R is maintained");
    let mut final_db = Database::new();
    final_db.cvars = state.database().cvars.clone();
    final_db.set_relation(state.relation("F").expect("F is maintained"));
    let (batch, reeval_s) = spanned(&tracing.tracer, "full-reeval", 0, || {
        api::run(&prepared, &final_db, &tracing.off)
    });
    let batch = batch?;
    let digest = check::digest([&maintained]);
    if Some(digest) != batch.relation("R").map(|r| check::digest([r])) {
        l.problem("the maintained R differs from a batch run over the final F".to_owned());
    }
    let mut rng = SplitMix64::for_checks(cfg.seed);
    let sampled = check::sample_distinct(&mut rng, prefixes, SAMPLED_PREFIXES);
    let mut maintained_db = Database::new();
    maintained_db.set_relation(maintained);
    if let Err(e) = check::reference_check(
        &final_db,
        monitored,
        prepared.program(),
        &maintained_db,
        &["R"],
        &sampled,
    ) {
        l.problem(e);
    }

    let mut per_layer = Metrics::default();
    ExactCounts::of(&materialize_stats).record(&mut per_layer);
    per_layer.set("net.f_tuples", f_rows.len() as f64);
    let per = |sum: usize, n: usize| sum as f64 / n.max(1) as f64;
    per_layer.set(
        "maintain.rederived_per_insert",
        per(pinned_tally.rederived, pinned_tally.announces),
    );
    per_layer.set(
        "maintain.overdeleted_per_delete",
        per(pinned_tally.overdeleted, pinned_tally.withdraws),
    );
    per_layer.set(
        "maintain.counting_strata",
        pinned_tally.counting_strata as f64,
    );
    per_layer.set(
        "maintain.rederive_strata",
        pinned_tally.rederive_strata as f64,
    );

    let end_to_end = end_to_end(&setup_s, &l.plain, CYCLE, peak_kb);
    let mut events = materialize_events;
    if cfg.trace {
        let m = &mut per_layer;
        op_context(m, &l.plain);
        m.set("net.generate_s", generate_s);
        m.set("parser.parse_us", parse_s * 1e6);
        m.set("maintain.materialize_s", materialize_s);
        m.set("engine.run_s", materialize_s);
        m.set("engine.cold_run_s", materialize_s);
        layers::phase_stats(m, &materialize_stats, materialize_s);
        layers::engine_spans(m, &events, "materialize");

        let withdraw_total: f64 = withdraw_s.iter().sum();
        let announce_total: f64 = announce_s.iter().sum();
        let share = |part: f64, whole: f64| if whole > 0.0 { part / whole } else { 0.0 };
        m.set(
            "maintain.insert_relational_share",
            share(announce_relational_s, announce_total),
        );
        m.set(
            "maintain.delete_prune_share",
            share(withdraw_prune_s, withdraw_total),
        );
        m.set("maintain.full_reeval_s", reeval_s);
        m.set("maintain.export_s", export_s);
        if !withdraw_s.is_empty() {
            let p50 = stats::median_of(&withdraw_s);
            m.set("maintain.delete_to_reeval_ratio", p50 / reeval_s);
        }
        m.set(
            "maintain.rss_growth_kb_per_1k_updates",
            rss_after.saturating_sub(rss_before) as f64 * 1e3 / i as f64,
        );
        latency(
            m,
            [
                "maintain.insert_p50_ms",
                "maintain.insert_tail_ms",
                "maintain.insert_tail_pct",
            ],
            announce_s,
        );
        latency(
            m,
            [
                "maintain.delete_p50_ms",
                "maintain.delete_tail_ms",
                "maintain.delete_tail_pct",
            ],
            withdraw_s,
        );

        // The stream's own spans, per update.
        let stream = tracing.take();
        let driver: Vec<_> = stream.iter().filter(|e| e.track == 0).cloned().collect();
        let tree = SpanTree::build(&driver);
        let per_update = |ns: u64| ns as f64 / 1e9 / i as f64;
        let strata = rollup(&driver, &tree, "maintain", "stratum");
        let recomputed = rollup_where(&driver, &tree, "maintain", "stratum", |e| {
            e.arg_str("mode") == Some("recompute")
        });
        m.set(
            "maintain.recompute_share",
            share(recomputed.count as f64, strata.count as f64),
        );
        m.set("maintain.stratum_self_s", per_update(strata.self_ns));
        m.set(
            "maintain.delta_self_s",
            per_update(rollup(&driver, &tree, "maintain", "delta").self_ns),
        );
        m.set(
            "maintain.rederive_self_s",
            per_update(rollup(&driver, &tree, "maintain", "rederive").self_ns),
        );
        run::trace_overhead(m, &l, stream.len());
        events.extend(stream);

        let maintained = maintained_db.relation("R").expect("set above");
        replay::storage_layers(
            m,
            maintained,
            &final_db.cvars,
            &mut rng,
            cfg.sizes.replay_samples,
            cfg.sizes.replay_rows,
        );
        fill_missing_layers(m);
    }

    Ok(RunOutput::from_loop(l, end_to_end, per_layer, events))
}
