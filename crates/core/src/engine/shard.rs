//! Sharded semi-naive fixpoint: partitioned deltas with routed
//! exchange.
//!
//! The single-space driver ([`super::fixpoint`]) runs every delta pass
//! on one thread (parallelising only *inside* a pass) and keeps one
//! delta table per predicate. This driver partitions each predicate's
//! delta across `opts.shards` **worker shards** on the
//! [`ShardPlan`](crate::plan::ShardPlan) key column: every shard owns a
//! real columnar [`Table`] per predicate holding exactly the delta rows
//! whose key hashes to it, runs the pass locally against the shared
//! accumulated tables, and the changed rows it derives are *routed* to
//! the shard that owns them — not recomputed there.
//!
//! ## Delta exchange
//!
//! Workers stream their derived rows to the driver through one bounded
//! [`sync_channel`] in fixed-size [`Batch`]es (`(producer, seq)`
//! stamped), so a fast shard blocks on a slow consumer instead of
//! buffering unboundedly. The driver drains the channel while the
//! workers run, then — at the pass barrier — replays the batches in
//! **`(producer, seq)` order** into the accumulated table and the next
//! delta partitions. That replay order is fixed by the shard plan, not
//! by thread scheduling, which is the sharded analogue of
//! [`Table::absorb_partitions`]' chunk-order merge.
//!
//! ## Determinism
//!
//! Routing is a pure function of the row's key constant
//! ([`faure_storage::shard::route_term`] — a stable FNV-1a hash), so a
//! fixed shard count always partitions the same rows the same way, and
//! the barrier merge order above is schedule-independent. Derived rows
//! and their *canonicalized* conditions are identical to the
//! single-space run at every shard count; stored-condition spelling and
//! row order may differ (the merge interleaves producers differently
//! than one serial scan), as may delta-size and solver counters when
//! broadcasts duplicate work — all of it deterministic for a fixed
//! shard count. The `shard_differential` suite pins this down at
//! 1/2/4/8 shards on the shared corpus, composed with incremental
//! `apply`.
//!
//! ## Broadcast fallback
//!
//! A changed row whose key cell holds a **c-variable** has no ground
//! value to hash, so no single shard can own it: it is appended to
//! *every* shard's partition. The duplicate downstream derivations this
//! causes are absorbed by the table's dedup-by-terms insert and the
//! idempotent condition merge, so results are unaffected.
//!
//! Negation needs no special handling: stratification guarantees
//! negated predicates are complete before this stratum runs, and the
//! accumulated tables workers read are only mutated at pass barriers.

use super::rule::eval_rule;
use super::{Ctx, EvalError, EvalOptions, PrunePolicy};
use crate::ast::Rule;
use crate::plan::PlanCache;
use faure_solver::Session;
use faure_storage::shard::{route_term, Route};
use faure_storage::{OpStats, PhaseStats, PreparedRow, Table};
use faure_trace::Tracer;
use std::collections::{BTreeSet, HashMap};
use std::sync::mpsc::sync_channel;
use std::sync::Arc;
use std::time::Instant;

/// Rows per exchanged batch. Small enough that the bounded channel
/// exerts real backpressure on skewed passes, large enough that the
/// per-batch overhead (one channel rendezvous) stays negligible.
const BATCH_ROWS: usize = 2048;

/// One delta exchange message: `rows` derived by shard `producer`,
/// `seq`-numbered so the barrier merge can replay batches in a
/// schedule-independent order.
struct Batch {
    producer: usize,
    seq: u64,
    rows: Vec<PreparedRow>,
}

/// Per-shard delta partitions: `parts[s][pred]` holds the delta rows
/// shard `s` owns for `pred`.
type Partitions = Vec<HashMap<String, Table>>;

#[allow(clippy::too_many_arguments)]
pub(super) fn eval_stratum_sharded<'a>(
    ctx: &Ctx<'a>,
    rules: &[(usize, &Rule)],
    stratum_preds: &BTreeSet<&str>,
    tables: &mut HashMap<String, Table>,
    plans: &mut PlanCache,
    session: &mut Session,
    opts: &EvalOptions,
    stats: &mut PhaseStats,
) -> Result<(), EvalError> {
    let n = opts.shards;
    debug_assert!(n > 1);
    stats.shard.shards = stats.shard.shards.max(n);
    // Workers must not re-partition their pass (they *are* the
    // partitioning) nor emit trace events (event order would depend on
    // scheduling); each gets a disabled tracer and a serial option set.
    let wopts = EvalOptions {
        threads: 1,
        ..*opts
    };
    let shard_ctxs: Vec<Ctx<'a>> = (0..n)
        .map(|_| Ctx {
            tracer: Tracer::disabled(),
            ..ctx.clone()
        })
        .collect();

    // Iteration 0: exactly the single-space seed pass (every rule over
    // the full tables, driver session, in-pass parallelism per
    // `opts.threads`) — only the changed rows are routed into per-shard
    // partitions instead of one delta map.
    let t_iter = ctx.tracer.now_ns();
    let mut parts: Partitions = (0..n).map(|_| HashMap::new()).collect();
    for &(ri, rule) in rules {
        let plan = plans.get_or_compile(ri, rule, None);
        let derived = eval_rule(
            ctx,
            ri,
            rule,
            plan,
            tables,
            None,
            session,
            opts,
            &mut stats.ops,
        )?;
        let head = rule.head.pred.as_str();
        merge_routed(ctx, head, None, derived, tables, &mut parts, stats)?;
    }
    let delta_rows = record_delta_size(&parts, stats);
    super::publish::publish_iteration(delta_rows);
    ctx.tracer
        .emit_span("fixpoint", "iteration", t_iter, 0, || {
            vec![
                ("iteration", 0usize.into()),
                ("delta_rows", delta_rows.into()),
                ("shards", n.into()),
            ]
        });

    let mut iterations = 0usize;
    while parts.iter().any(|m| !m.is_empty()) {
        iterations += 1;
        if iterations > opts.max_iterations {
            return Err(EvalError::IterationLimit {
                limit: opts.max_iterations,
            });
        }
        let t_iter = ctx.tracer.now_ns();
        if opts.prune == PrunePolicy::EveryIteration {
            // Deterministic sweep order: predicate (BTreeSet), then
            // shard 0..n; one span for the whole sweep, like the
            // single-space driver.
            let t_prune = ctx.tracer.now_ns();
            let wall = Instant::now();
            let mut removed = 0usize;
            let mut rows = 0usize;
            for p in stratum_preds {
                for m in parts.iter_mut() {
                    let Some(t) = m.get_mut(*p) else { continue };
                    rows += t.len();
                    removed += t.prune(ctx.reg, session)?;
                }
            }
            stats.prune_wall += wall.elapsed();
            super::publish::publish_prune(rows, removed);
            ctx.tracer.emit_span("eval", "prune", t_prune, 0, || {
                vec![
                    ("pred", "(delta)".into()),
                    ("rows", rows.into()),
                    ("removed", removed.into()),
                    ("threads", 1usize.into()),
                ]
            });
            for m in parts.iter_mut() {
                m.retain(|_, t| !t.is_empty());
            }
            if parts.iter().all(HashMap::is_empty) {
                break;
            }
        }
        let mut next: Partitions = (0..n).map(|_| HashMap::new()).collect();
        for &(ri, rule) in rules {
            for (pos, lit) in rule.body.iter().enumerate() {
                if lit.is_negative() {
                    continue;
                }
                let p = lit.atom().pred.as_str();
                if !stratum_preds.contains(p) {
                    continue;
                }
                if parts.iter().all(|m| m.get(p).is_none_or(Table::is_empty)) {
                    continue;
                }
                let plan = plans.get_or_compile(ri, rule, Some(pos));
                run_sharded_pass(
                    ctx,
                    &shard_ctxs,
                    ri,
                    rule,
                    plan,
                    p,
                    tables,
                    &parts,
                    &mut next,
                    session,
                    &wopts,
                    stats,
                )?;
            }
        }
        parts = next;
        let delta_rows = record_delta_size(&parts, stats);
        super::publish::publish_iteration(delta_rows);
        let iteration = iterations;
        ctx.tracer
            .emit_span("fixpoint", "iteration", t_iter, 0, || {
                vec![
                    ("iteration", iteration.into()),
                    ("delta_rows", delta_rows.into()),
                    ("shards", n.into()),
                ]
            });
    }
    Ok(())
}

/// One sharded `(rule, delta slot)` pass: every shard with a non-empty
/// delta partition for `delta_pred` evaluates the rule against it on
/// its own thread, streaming derived rows back in bounded batches; at
/// the barrier the driver replays the batches in `(producer, seq)`
/// order into the accumulated table and routes the changed rows into
/// `next`.
#[allow(clippy::too_many_arguments)]
fn run_sharded_pass<'a>(
    ctx: &Ctx<'a>,
    shard_ctxs: &[Ctx<'a>],
    ri: usize,
    rule: &Rule,
    plan: &crate::plan::RulePlan,
    delta_pred: &str,
    tables: &mut HashMap<String, Table>,
    parts: &Partitions,
    next: &mut Partitions,
    session: &mut Session,
    wopts: &EvalOptions,
    stats: &mut PhaseStats,
) -> Result<(), EvalError> {
    let n = shard_ctxs.len();
    let t_pass = ctx.tracer.now_ns();
    let mut batches: Vec<Batch> = Vec::new();
    let mut worker_errs: Vec<Option<EvalError>> = Vec::new();
    let tables_ref: &HashMap<String, Table> = tables;

    std::thread::scope(|scope| {
        // Capacity n: every live worker can have one batch in flight
        // before the producer of the next one blocks — bounded memory,
        // real backpressure.
        let (tx, rx) = sync_channel::<Batch>(n);
        let mut handles = Vec::with_capacity(n);
        for (s, wctx) in shard_ctxs.iter().enumerate() {
            let Some(delta) = parts[s].get(delta_pred).filter(|t| !t.is_empty()) else {
                handles.push(None);
                continue;
            };
            let tx = tx.clone();
            handles.push(Some(scope.spawn(move || {
                let wall = Instant::now();
                let mut wsession = Session::with_shared(Arc::clone(&wctx.shared_memo));
                wsession.set_shard_tag(u8::try_from(s + 1).unwrap_or(u8::MAX));
                let mut wops = OpStats::default();
                let out = eval_rule(
                    wctx,
                    ri,
                    rule,
                    plan,
                    tables_ref,
                    Some(delta),
                    &mut wsession,
                    wopts,
                    &mut wops,
                );
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
                (wsession.stats(), wops, wall.elapsed(), err)
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
            let (wstats, wops, wall, err) = handle.join().expect("shard worker panicked");
            // Shard-order absorption keeps the stats merge order
            // deterministic even though completion order is not.
            session.absorb_stats(&wstats);
            stats.ops.absorb(&wops);
            stats.shard.record_wall(s, wall);
            worker_errs.push(err);
        }
    });
    // First error by lowest shard index, mirroring the parallel rule
    // pass's lowest-chunk rule.
    if let Some(e) = worker_errs.into_iter().flatten().next() {
        return Err(e);
    }

    batches.sort_by_key(|b| (b.producer, b.seq));
    stats.shard.exchanged_batches += batches.len() as u64;
    stats.shard.passes += 1;
    let head = rule.head.pred.as_str();
    let routed_before = stats.shard.routed_rows;
    let broadcast_before = stats.shard.broadcast_rows;
    let batch_count = batches.len();
    let mut rows_out = 0usize;
    for batch in batches {
        rows_out += batch.rows.len();
        let producer = batch.producer;
        merge_routed(
            ctx,
            head,
            Some(producer),
            vec![batch.rows],
            tables,
            next,
            stats,
        )?;
    }
    let routed = stats.shard.routed_rows - routed_before;
    let broadcast = stats.shard.broadcast_rows - broadcast_before;
    super::publish::publish_shard_pass(n, batch_count as u64, rows_out, routed, broadcast);
    ctx.tracer
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

/// Merges derived partitions into the accumulated table in partition
/// order and routes each *changed* row (new terms or new disjunct) into
/// the delta partition of the shard that owns its key — or into every
/// partition when the key cell is a c-variable (broadcast). `producer`
/// is the shard that derived the rows (`None` for the seed pass, which
/// the driver runs itself); only copies landing on a different shard
/// count as routed.
fn merge_routed(
    ctx: &Ctx<'_>,
    pred: &str,
    producer: Option<usize>,
    derived: Vec<Vec<PreparedRow>>,
    tables: &mut HashMap<String, Table>,
    parts: &mut Partitions,
    stats: &mut PhaseStats,
) -> Result<(), EvalError> {
    if derived.iter().all(Vec::is_empty) {
        return Ok(());
    }
    let n = parts.len();
    let key = ctx.shard_plan.key_for(pred);
    let table = tables.get_mut(pred).expect("table created in setup");
    let schema = table.schema.clone();
    // Guard against an out-of-range key (cannot happen through
    // `set_shard_keys`, which validates): fall back to column 0.
    let key = if key < schema.arity() { key } else { 0 };
    let mut routed = 0u64;
    let mut broadcast = 0u64;
    let route = |prow: &PreparedRow| route_term(&prow.cells()[key].decode(), n);
    table.absorb_partitions(derived, |prow| match route(prow) {
        Route::To(owner) => {
            parts[owner]
                .entry(pred.to_owned())
                .or_insert_with(|| Table::new(schema.clone()))
                .insert_prepared(prow)
                .expect("delta schema matches the full table");
            if producer != Some(owner) {
                routed += 1;
            }
        }
        Route::Broadcast => {
            broadcast += 1;
            for (s, part) in parts.iter_mut().enumerate() {
                part.entry(pred.to_owned())
                    .or_insert_with(|| Table::new(schema.clone()))
                    .insert_prepared(prow)
                    .expect("delta schema matches the full table");
                if producer != Some(s) {
                    routed += 1;
                }
            }
        }
    })?;
    stats.shard.routed_rows += routed;
    stats.shard.broadcast_rows += broadcast;
    Ok(())
}

/// Records the total delta size of a just-finished iteration across
/// all shard partitions (broadcast rows count once per partition; the
/// sum is deterministic for a fixed shard count). The terminating
/// empty delta is not recorded, like the single-space driver.
fn record_delta_size(parts: &Partitions, stats: &mut PhaseStats) -> usize {
    let total: usize = parts.iter().flat_map(|m| m.values().map(Table::len)).sum();
    if total > 0 {
        stats.delta_sizes.push(total);
    }
    total
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
