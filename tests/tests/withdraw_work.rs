//! How much a single-tuple withdraw does.
//!
//! `apply` over-deletes the rows a withdrawn tuple can reach and
//! re-derives exactly those keys through head-bound plans; row removal
//! patches the indexes of the rows it takes. So the work of a withdraw
//! — probes issued, rows matched, and nothing proportional to the
//! materialization — follows the rows it over-deleted. This pins that
//! on the Table 4 reachability query over a 300-prefix RIB, thirty
//! withdraws spread over `F`, each over-deleting 3 or 4 rows of `R`:
//!
//! | per withdraw | parent (full iteration-0 re-run) | head-bound |
//! |---|---|---|
//! | `probes` | 4 461 – 4 491 | 15 – 25 |
//! | `rows_matched` | 13 959 – 14 092 | 13 – 25 |
//!
//! (the parent's numbers are this file's `println!`s on commit
//! `0d393a1`, where every withdraw re-joined all of `F` with all of `R`
//! and the budget below fails at the first one). The
//! second test pins *which path* such a stream takes: never the
//! recompute fallback, whose gate names its reason when it does fire.

use faure_core::{parse_program, DeletePattern, Delta, Engine, EvalOptions};
use faure_ctable::{CTuple, Condition, Const, Database, Domain, Relation, Schema, Term};
use faure_net::{queries, rib};
use faure_trace::{Event, Recorder, TraceSink, Tracer};
use std::sync::Arc;

fn workload() -> rib::RibWorkload {
    rib::generate(&rib::RibParams {
        prefixes: 300,
        paths_per_prefix: 5,
        as_count: 256,
        path_len: 3,
        seed: 20210610,
    })
}

/// The distinct ground rows of `F`, in relation order.
fn ground_rows(db: &Database) -> Vec<Vec<Const>> {
    let mut rows: Vec<Vec<Const>> = db
        .relation("F")
        .into_iter()
        .flat_map(Relation::iter)
        .filter_map(|t| t.terms.iter().map(|t| t.as_const().cloned()).collect())
        .collect();
    let mut seen = std::collections::BTreeSet::new();
    rows.retain(|row| seen.insert(row.clone()));
    rows
}

fn withdraw(row: &[Const]) -> Delta {
    let mut delta = Delta::new();
    delta.push_delete_exact("F", row.iter().cloned());
    delta
}

#[test]
fn a_withdraw_probes_what_it_overdeleted_not_the_materialization() {
    let w = workload();
    let prepared = Engine::with_options(EvalOptions::default())
        .prepare(&queries::reachability_program())
        .unwrap();
    let mut state = prepared.materialize(&w.db).unwrap();
    let materialized = state.stats().tuples;
    assert!(materialized > 5_000, "a real run: {materialized}");
    let rows = ground_rows(&w.db);
    let (mut most_probes, mut most_matched) = (0u64, 0u64);
    for i in 0..30 {
        let report = prepared
            .apply(&mut state, withdraw(&rows[(i * 149) % rows.len()]))
            .unwrap();
        let ops = &report.stats.ops;
        // Shown under `--nocapture`, for the table above.
        println!(
            "withdraw {i}: overdeleted {} rederived {} probes {} rows_matched {}",
            report.overdeleted, report.rederived, ops.probes, ops.rows_matched
        );
        assert_eq!(report.deleted, 1);
        assert!(report.overdeleted >= 1, "R holds the withdrawn hop");
        // Per over-deleted row: the taint probe that reached it, the
        // probes of the two head-bound plans, and what its survivors'
        // delta passes probe. The parent paid ~4 500 / ~14 000 flat.
        let budget = 12 * report.overdeleted as u64;
        assert!(
            ops.probes <= budget && ops.rows_matched <= budget,
            "withdraw {i}: {} probes, {} rows matched for {} over-deleted rows",
            ops.probes,
            ops.rows_matched,
            report.overdeleted
        );
        most_probes = most_probes.max(ops.probes);
        most_matched = most_matched.max(ops.rows_matched);
    }
    // Whatever the budget's constant: nowhere near the materialization.
    assert!(most_probes * 50 < materialized as u64, "{most_probes}");
    assert!(most_matched * 50 < materialized as u64, "{most_matched}");
}

/// The `maintain/stratum` spans of one traced `apply` stream.
fn stratum_spans(events: &[Event]) -> Vec<&Event> {
    events
        .iter()
        .filter(|e| e.cat == "maintain" && e.name == "stratum")
        .collect()
}

#[test]
fn the_ground_stream_never_recomputes_and_a_var_cell_table_says_why() {
    // The benchmark's stream shape over ground rows: announces and
    // withdraws take the in-place paths only, so a recompute share of
    // zero is what happened, not a span that was never emitted.
    let w = workload();
    let recorder = Arc::new(Recorder::new());
    let tracer = Tracer::new(Arc::clone(&recorder) as Arc<dyn TraceSink>);
    let opts = EvalOptions::default();
    let prepared = Engine::with_options(opts)
        .prepare(&queries::reachability_program())
        .unwrap();
    let mut state = prepared.materialize_with(&w.db, &opts, &tracer).unwrap();
    recorder.take();
    let rows = ground_rows(&w.db);
    for i in 0..40usize {
        let row = &rows[(i * 7) % rows.len()];
        let delta = if i % 10 == 9 {
            withdraw(row)
        } else {
            let mut delta = Delta::new();
            let fresh = Const::Int(600_000 + i as i64);
            delta.push_insert_fact("F", [row[0].clone(), row[2].clone(), fresh]);
            delta
        };
        prepared.apply(&mut state, delta).unwrap();
    }
    let events = recorder.take();
    let spans = stratum_spans(&events);
    assert_eq!(spans.len(), 40, "one touched stratum per update");
    let modes: Vec<&str> = spans.iter().filter_map(|e| e.arg_str("mode")).collect();
    assert_eq!(modes.iter().filter(|m| **m == "append").count(), 36);
    assert_eq!(modes.iter().filter(|m| **m == "rederive").count(), 4);
    assert!(spans.iter().all(|e| e.arg_str("reason").is_none()));
    // Every withdraw's re-derivation says how many keys it was handed
    // and how many came back.
    let rederives: Vec<&Event> = events
        .iter()
        .filter(|e| e.cat == "maintain" && e.name == "rederive")
        .collect();
    assert_eq!(rederives.len(), 4);
    for e in rederives {
        let (keys, back) = (e.arg_u64("keys").unwrap(), e.arg_u64("rederived").unwrap());
        assert_eq!(Some(keys), e.arg_u64("overdeleted"));
        assert!(keys >= 1 && back <= keys, "{keys} keys, {back} back");
    }

    // A c-variable *cell* in a table the stratum reads: join order would
    // show in the conditions, so the stratum is recomputed — and says so.
    let mut db = Database::new();
    let x = db.fresh_cvar("x", Domain::Bool01);
    db.create_relation(Schema::new("E", &["a", "b"])).unwrap();
    db.insert("E", CTuple::new([Term::int(1), Term::int(2)]))
        .unwrap();
    db.insert(
        "E",
        CTuple::with_cond(
            [Term::int(2), Term::Var(x)],
            Condition::eq(Term::Var(x), Term::int(1)),
        ),
    )
    .unwrap();
    let program = parse_program("S(a) :- E(a, _b).\n").unwrap();
    let prepared = Engine::with_options(opts).prepare(&program).unwrap();
    let mut state = prepared.materialize_with(&db, &opts, &tracer).unwrap();
    recorder.take();
    let mut announce = Delta::new();
    announce.push_insert_fact("E", [Const::Int(0), Const::Int(1)]);
    prepared.apply(&mut state, announce).unwrap();
    // Deleting `E(_, 1)` takes the c-variable row with it (`x̄ = 1 ∧
    // x̄ ≠ 1`): no var cell is left in `E`, `S` never had one, but the
    // deleted row's old version is not ground.
    let mut retract = Delta::new();
    retract.push_delete(
        "E",
        DeletePattern {
            cols: vec![None, Some(Const::Int(1))],
        },
    );
    prepared.apply(&mut state, retract).unwrap();
    // From here on the stratum is ground and maintained in place.
    let mut ground = Delta::new();
    ground.push_delete_exact("E", [Const::Int(1), Const::Int(2)]);
    prepared.apply(&mut state, ground).unwrap();
    assert!(state.relation("S").unwrap().is_empty());
    let events = recorder.take();
    let seen: Vec<(Option<&str>, Option<&str>)> = stratum_spans(&events)
        .iter()
        .map(|e| (e.arg_str("mode"), e.arg_str("reason")))
        .collect();
    assert_eq!(
        seen,
        [
            (Some("recompute"), Some("var_cells")),
            (Some("recompute"), Some("deleted_var_row")),
            (Some("counting"), None),
        ]
    );
}
