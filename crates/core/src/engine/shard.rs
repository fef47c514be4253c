//! Sharding: what [`fixpoint::semi_naive`] adds to a delta pass when
//! its delta has more than one partition.
//!
//! The loop, its seed, the merge and the iteration barrier are the
//! single-partition ones. Two things live here: **which partition owns
//! a changed row** ([`key_column`], [`route`]) and **how a pass runs on
//! one worker per partition** ([`pass`]). Every partition holds, per
//! predicate, the list the single-partition loop would hold, cut down
//! to the rows whose [`ShardPlan`] key hashes to it: row ids of the
//! shared standing table, each with the condition the delta carries for
//! it. Its worker scans that list against the shared standing tables,
//! which no one writes while the workers run, and the changed rows it
//! derives are *routed* to the partition that owns them — not
//! recomputed there.
//!
//! ## Delta exchange
//!
//! Workers stream their derived rows to the driver through one bounded
//! [`sync_channel`] in fixed-size [`Batch`]es (`(producer, seq)`
//! stamped), so a fast worker blocks on a slow consumer instead of
//! buffering unboundedly. The driver drains the channel while the
//! workers run, then — at the pass barrier — replays the batches in
//! **`(producer, seq)` order** through [`fixpoint::merge`], which
//! writes the shared standing table and records the id of each row it
//! changed. That replay order is fixed by the shard plan, not by thread
//! scheduling, which is the sharded analogue of
//! [`Table::absorb_partitions`]' chunk-order merge. When the iteration
//! ends, the recorded ids are cut among the partitions that own them,
//! oldest change first, so each partition's list is the single-partition
//! list with the rows it does not own left out.
//!
//! ## Determinism
//!
//! Routing is a pure function of the row's key constant
//! ([`faure_storage::shard::route_term`] — a stable FNV-1a hash), so a
//! fixed partition count always partitions the same rows the same way,
//! and the barrier merge order above is schedule-independent. Derived
//! rows and their *canonicalized* conditions are identical to the
//! one-partition run at every count; stored-condition spelling and row
//! order may differ (the merge interleaves producers differently than
//! one serial scan), as may delta-size and solver counters when
//! broadcasts duplicate work — all of it deterministic for a fixed
//! count. The `shard_differential` suite pins this down at 1/2/4/8
//! shards on the shared corpus, composed with incremental `apply`.
//!
//! ## Broadcast, and rows without a key
//!
//! A changed row whose key cell holds a **c-variable** has no ground
//! value to hash, so no single partition can own it: its id goes on
//! *every* partition's list, with the same condition. The duplicate
//! downstream derivations this causes are absorbed by the table's
//! dedup-by-terms insert and the idempotent condition merge, so results
//! are unaffected. A predicate with no columns (`panic`) has no key
//! cell at all: partition 0 owns its row.
//!
//! Negation needs no special handling: stratification guarantees
//! negated predicates are complete before this stratum runs, and the
//! accumulated tables workers read are only mutated at pass barriers.

use super::fixpoint::{self, Driver, Next, Partitions, Tracker};
use super::rule::{DeltaRows, Pass};
use super::{Ctx, EvalError};
use crate::ast::Rule;
use crate::plan::ShardPlan;
use faure_storage::shard::{route_term, Route};
use faure_storage::table::Cell;
use faure_storage::{OpStats, PreparedRow, Table};
use faure_trace::Tracer;
use std::collections::HashMap;
use std::sync::mpsc::sync_channel;
use std::sync::Arc;
use std::time::Instant;

/// Rows per exchanged batch. Small enough that the bounded channel
/// exerts real backpressure on skewed passes, large enough that the
/// per-batch overhead (one channel rendezvous) stays negligible.
const BATCH_ROWS: usize = 2048;

/// One delta exchange message: `rows` derived by partition `producer`'s
/// worker, `seq`-numbered so the barrier merge can replay batches in a
/// schedule-independent order.
struct Batch {
    producer: usize,
    seq: u64,
    rows: Vec<PreparedRow>,
}

/// The column the changed rows of `pred` are routed on; `None` when
/// they all have one owner — there is one partition, or the predicate
/// has no columns.
pub(super) fn key_column(
    plan: &ShardPlan,
    pred: &str,
    arity: usize,
    partitions: usize,
) -> Option<usize> {
    if partitions < 2 || arity == 0 {
        return None;
    }
    // An out-of-range key cannot come through `set_shard_keys`, which
    // validates: fall back to column 0.
    let key = plan.key_for(pred);
    Some(if key < arity { key } else { 0 })
}

/// Where a changed row goes, given its cell under its predicate's
/// [`key_column`] (`None`: there is none).
pub(super) fn route(key_cell: Option<Cell>, partitions: usize) -> Route {
    match key_cell {
        Some(cell) => route_term(&cell.decode(), partitions),
        None => Route::To(0),
    }
}

/// One `(rule, position)` delta pass over a partitioned delta: every
/// partition holding rows of the body predicate at `pos` evaluates the
/// rule against them on its own thread, streaming derived rows back in
/// bounded batches; at the barrier the driver replays the batches in
/// `(producer, seq)` order into the standing table and records the
/// changed rows in `next`.
pub(super) fn pass(
    d: &mut Driver<'_>,
    ri: usize,
    rule: &Rule,
    pos: usize,
    delta: &Partitions,
    next: &mut Next,
    tracker: &mut Tracker<'_>,
) -> Result<(), EvalError> {
    let n = delta.len();
    let delta_pred = rule.body[pos].atom().pred.as_str();
    let live = |s: usize| delta[s].get(delta_pred).filter(|rows| !rows.is_empty());
    if (0..n).all(|s| live(s).is_none()) {
        return Ok(());
    }
    // Workers must not emit trace events (event order would depend on
    // scheduling) nor re-partition their pass (they *are* the
    // partitioning): a disabled tracer, and one thread each.
    let wctx = Ctx {
        tracer: Tracer::disabled(),
        ..d.ctx.clone()
    };
    let t_pass = d.ctx.tracer.now_ns();
    let plan = d.plans.get_or_compile(ri, rule, Some(pos));
    fixpoint::ensure_indexes(d.tables, rule, plan);
    let tables: &HashMap<String, Arc<Table>> = d.tables;
    let mut batches: Vec<Batch> = Vec::new();
    let mut worker_errs: Vec<Option<EvalError>> = Vec::new();

    std::thread::scope(|scope| {
        // Capacity n: every live worker can have one batch in flight
        // before the producer of the next one blocks — bounded memory,
        // real backpressure.
        let (tx, rx) = sync_channel::<Batch>(n);
        let mut handles = Vec::with_capacity(n);
        for s in 0..n {
            let Some(rows) = live(s) else {
                handles.push(None);
                continue;
            };
            let tx = tx.clone();
            let wctx = &wctx;
            handles.push(Some(scope.spawn(move || {
                let wall = Instant::now();
                let mut wops = OpStats::default();
                let rows = Some(DeltaRows::Listed(rows));
                let out = Pass::new(wctx, rule, plan, tables, rows).run(ri, 1, &mut wops);
                let err = match out {
                    Ok(partitions) => {
                        let mut seq = 0u64;
                        let mut rows = Vec::with_capacity(BATCH_ROWS.min(64));
                        for prow in partitions.into_iter().flatten() {
                            rows.push(prow);
                            if rows.len() >= BATCH_ROWS {
                                let full = std::mem::take(&mut rows);
                                if tx
                                    .send(Batch {
                                        producer: s,
                                        seq,
                                        rows: full,
                                    })
                                    .is_err()
                                {
                                    break;
                                }
                                seq += 1;
                            }
                        }
                        if !rows.is_empty() {
                            let _ = tx.send(Batch {
                                producer: s,
                                seq,
                                rows,
                            });
                        }
                        None
                    }
                    Err(e) => Some(e),
                };
                (wops, wall.elapsed(), err)
            })));
        }
        drop(tx);
        // Drain while workers run — this is what lets the bounded
        // channel block producers without deadlocking the barrier.
        for batch in rx {
            batches.push(batch);
        }
        for (s, handle) in handles.into_iter().enumerate() {
            let Some(handle) = handle else {
                worker_errs.push(None);
                continue;
            };
            let (wops, wall, err) = handle.join().expect("shard worker panicked");
            d.stats.ops.absorb(&wops);
            d.stats.shard.record_wall(s, wall);
            worker_errs.push(err);
        }
    });
    // First error by lowest partition index, mirroring the parallel
    // rule pass's lowest-chunk rule.
    if let Some(e) = worker_errs.into_iter().flatten().next() {
        return Err(e);
    }

    batches.sort_by_key(|b| (b.producer, b.seq));
    let batch_count = batches.len();
    d.stats.shard.exchanged_batches += batch_count as u64;
    d.stats.shard.passes += 1;
    let head = rule.head.pred.as_str();
    let routed_before = d.stats.shard.routed_rows;
    let broadcast_before = d.stats.shard.broadcast_rows;
    let mut rows_out = 0usize;
    for batch in batches {
        rows_out += batch.rows.len();
        let producer = Some(batch.producer);
        fixpoint::merge(d, head, producer, vec![batch.rows], next, tracker)?;
    }
    let routed = d.stats.shard.routed_rows - routed_before;
    let broadcast = d.stats.shard.broadcast_rows - broadcast_before;
    super::publish::publish_shard_pass(rows_out, routed);
    d.ctx
        .tracer
        .emit_span("fixpoint", "shard-pass", t_pass, 0, || {
            vec![
                ("rule", ri.into()),
                ("head", head.into()),
                ("delta_pred", delta_pred.into()),
                ("shards", n.into()),
                ("batches", batch_count.into()),
                ("rows_out", rows_out.into()),
                ("routed", routed.into()),
                ("broadcast", broadcast.into()),
            ]
        });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::super::{canonicalize, evaluate_with, EvalOptions, EvalOutput};
    use crate::parser::parse_program;
    use faure_ctable::{CTuple, Database, Domain, Schema, Term};
    use std::collections::BTreeSet;

    const TC: &str = "R(a, b) :- E(a, b).\nR(a, c) :- E(a, b), R(b, c).\n";

    fn snapshot(out: &EvalOutput, pred: &str) -> BTreeSet<String> {
        out.relation(pred)
            .expect("relation exists")
            .iter()
            .map(|t| format!("{:?} | {:?}", t.terms, canonicalize(t.cond.clone())))
            .collect()
    }

    fn eval_at(db: &Database, src: &str, shards: usize) -> EvalOutput {
        let program = parse_program(src).unwrap();
        let opts = EvalOptions {
            shards,
            ..EvalOptions::default()
        };
        evaluate_with(&program, db, &opts).expect("evaluation succeeds")
    }

    fn chain_db(n: i64) -> Database {
        let mut db = Database::new();
        db.create_relation(Schema::new("E", &["a", "b"])).unwrap();
        for i in 0..n {
            db.insert("E", CTuple::new([Term::int(i), Term::int(i + 1)]))
                .unwrap();
        }
        db
    }

    /// Shards with no delta rows must neither stall the barrier nor
    /// change results: more shards than chain nodes leaves most shards
    /// permanently empty.
    #[test]
    fn empty_shards_are_harmless() {
        let db = chain_db(3);
        let serial = snapshot(&eval_at(&db, TC, 1), "R");
        let sharded = eval_at(&db, TC, 8);
        assert_eq!(serial, snapshot(&sharded, "R"));
        assert_eq!(sharded.stats.shard.shards, 8);
    }

    /// Every delta row hashing to one shard (a single source vertex, so
    /// every derived `R` row has the same key constant) degenerates to
    /// a serial run on one worker — and must still converge and agree.
    #[test]
    fn single_hot_shard_converges() {
        let mut db = Database::new();
        db.create_relation(Schema::new("E", &["a", "b"])).unwrap();
        // Star from 0: all R rows have key column 0 = 0.
        for i in 1..6 {
            db.insert("E", CTuple::new([Term::int(0), Term::int(i)]))
                .unwrap();
        }
        // One chain hop so the fixpoint actually iterates.
        db.insert("E", CTuple::new([Term::int(1), Term::int(7)]))
            .unwrap();
        let serial = snapshot(&eval_at(&db, TC, 1), "R");
        let sharded = eval_at(&db, TC, 4);
        assert_eq!(serial, snapshot(&sharded, "R"));
        // Key constant 0 owns every non-broadcast row: whichever shard
        // that is, the row volume must not have been split.
        assert!(sharded.stats.shard.passes > 0, "sharded passes ran");
    }

    /// Regression: a c-variable in the partition-key column cannot be
    /// hashed and must fall back to broadcast routing — every shard
    /// sees the row, and results still match the single-space engine.
    #[test]
    fn cvar_key_cells_broadcast() {
        let mut db = Database::new();
        let x = db.fresh_cvar("x", Domain::Ints(vec![0, 1, 2]));
        db.create_relation(Schema::new("E", &["a", "b"])).unwrap();
        // Key column 0 of the derived R rows inherits E's first column:
        // make it a c-variable so seed routing must broadcast.
        db.insert("E", CTuple::new([Term::Var(x), Term::int(1)]))
            .unwrap();
        db.insert("E", CTuple::new([Term::int(1), Term::int(2)]))
            .unwrap();
        db.insert("E", CTuple::new([Term::int(2), Term::int(0)]))
            .unwrap();
        let serial = snapshot(&eval_at(&db, TC, 1), "R");
        let sharded = eval_at(&db, TC, 4);
        assert_eq!(serial, snapshot(&sharded, "R"));
        assert!(
            sharded.stats.shard.broadcast_rows > 0,
            "c-var key rows must take the broadcast fallback, got {:?}",
            sharded.stats.shard
        );
        // And the broadcast copies count as routed to non-producers.
        assert!(sharded.stats.shard.routed_rows >= sharded.stats.shard.broadcast_rows);
    }

    /// Regression: a 0-ary head (`panic`) has no key cell to hash — its
    /// row has one owner, partition 0 — and its c-variable condition
    /// must come out the same at every partition count.
    #[test]
    fn zero_ary_heads_have_one_owner() {
        let mut db = Database::new();
        let x = db.fresh_cvar("x", Domain::Ints(vec![0, 1, 2]));
        db.create_relation(Schema::new("E", &["a", "b"])).unwrap();
        db.insert("E", CTuple::new([Term::Var(x), Term::int(1)]))
            .unwrap();
        db.insert("E", CTuple::new([Term::int(1), Term::int(2)]))
            .unwrap();
        // `panic` and `alarm` are mutually recursive, so the 0-ary rows
        // also travel as a delta through a partitioned pass.
        let src = format!("{TC}panic :- R(2, b).\npanic :- alarm.\nalarm :- panic.\n");
        let serial = eval_at(&db, &src, 1);
        assert_eq!(snapshot(&serial, "panic").len(), 1);
        for shards in [2, 4] {
            let sharded = eval_at(&db, &src, shards);
            for pred in ["R", "panic", "alarm"] {
                assert_eq!(
                    snapshot(&serial, pred),
                    snapshot(&sharded, pred),
                    "{pred} at {shards} shards"
                );
            }
        }
    }

    /// A ground-keyed run routes without broadcasting.
    #[test]
    fn ground_keys_never_broadcast() {
        let db = chain_db(6);
        let sharded = eval_at(&db, TC, 4);
        assert_eq!(sharded.stats.shard.broadcast_rows, 0);
        assert!(
            sharded.stats.shard.routed_rows > 0,
            "a chain fixpoint must route rows across shards, got {:?}",
            sharded.stats.shard
        );
        assert!(sharded.stats.shard.exchanged_batches > 0);
    }
}
