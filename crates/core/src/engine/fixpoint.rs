//! The stratum fixpoint: one semi-naive loop, and the naive loop it is
//! tested against.
//!
//! Every stratum evaluation — a batch run, a sharded batch run, the
//! in-place propagation of [`PreparedProgram::apply`] — is
//! [`semi_naive`] with three inputs:
//!
//! * **a partition count**, the length of the delta it is handed. The
//!   delta of an iteration is one `HashMap<String, Table>` per
//!   partition. With one partition a `(rule, position)` pass runs inline
//!   on the driver ([`Driver::pass`]) and every changed row goes to
//!   partition 0; with more, the pass runs on one worker per partition
//!   ([`shard::pass`]) and [`merge`] sends each changed row to the
//!   partition that owns its key.
//! * **a seed**: what iteration 0 runs, merged into an initial delta.
//!   A batch stratum runs every rule's full plan over an empty delta.
//!   `apply` hands over a [`Seed`] and the pending insertions: a head
//!   that lost rows runs its rules' head-bound plans over the lost keys
//!   (work proportional to those keys), a head behind a changed negated
//!   predicate runs its rules' full plans, every other rule runs
//!   nothing.
//! * **an optional change tracker** ([`Changes`]), offered every row a
//!   merge is about to touch and every row it changed.
//!
//! A pass yields its rows as ordered partitions (one per worker chunk
//! under `threads > 1`, one serially) and [`merge`] replays them through
//! [`Table::absorb_partitions`] in order, so the merged table — and
//! every later iteration — is independent of the thread count.
//!
//! [`PreparedProgram::apply`]: super::PreparedProgram::apply

use super::maintain::{ChangeLog, Changes};
use super::rule::Pass;
use super::{shard, Ctx, EvalError, EvalOptions};
use crate::ast::Rule;
use crate::plan::{PlanCache, RulePlan};
use faure_ctable::CVarRegistry;
use faure_solver::{Session, SolverError};
use faure_storage::shard::Route;
use faure_storage::{PhaseStats, PreparedRow, Table};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use std::time::Instant;

/// A delta cut into partitions: `parts[s][pred]` holds the delta rows
/// of `pred` that partition `s` owns.
pub(super) type Partitions = Vec<HashMap<String, Table>>;

/// What iteration 0 of an `apply` stratum runs; a batch stratum has no
/// seed and runs every rule's full plan.
#[derive(Default)]
pub(super) struct Seed {
    /// Heads whose rules run their full plans: a changed negated
    /// predicate can unlock rows that never existed, which no set of
    /// lost keys names.
    pub(super) full: BTreeSet<String>,
    /// Per head that only lost rows: the lost keys, every condition
    /// `True`. Its rules run their head-bound plans
    /// ([`head_bound_rules`](crate::plan::head_bound_rules))
    /// with this table as the delta, so only those keys are re-derived.
    pub(super) lost: HashMap<String, Table>,
}

/// What a stratum is evaluated with: the run's context, the standing
/// tables and plan cache it writes, and the driver thread's solver
/// session, options and statistics. A table may be shared (an input
/// relation's twin): every write goes through `Arc::make_mut`.
pub(super) struct Driver<'a> {
    pub(super) ctx: Ctx<'a>,
    pub(super) tables: &'a mut HashMap<String, Arc<Table>>,
    pub(super) plans: &'a mut PlanCache,
    pub(super) session: Session,
    pub(super) opts: EvalOptions,
    pub(super) stats: PhaseStats,
}

impl Driver<'_> {
    /// One rule pass on the driver thread, with the driver's tracer and
    /// `threads`: over the full tables, or with `delta`
    /// standing in at body position `pos`. The plan for each
    /// `(rule, position)` is compiled on first use — later passes are
    /// cache hits that only execute — and the indexes its probes look
    /// their keys up in are built on first use too.
    pub(super) fn pass(
        &mut self,
        ri: usize,
        rule: &Rule,
        delta: Option<(usize, &Table)>,
    ) -> Result<Vec<Vec<PreparedRow>>, EvalError> {
        let plan = self
            .plans
            .get_or_compile(ri, rule, delta.map(|(pos, _)| pos));
        ensure_indexes(self.tables, rule, plan);
        let delta = delta.map(|(_, table)| table);
        Pass::new(&self.ctx, rule, plan, self.tables, delta).run(
            ri,
            self.opts.threads,
            &mut self.stats.ops,
        )
    }
}

/// Gives every standing table a step of `plan` probes the index that
/// step's key is looked up in ([`JoinStep::index`](crate::plan::JoinStep::index)).
/// A table keeps an index once built, so from the second pass of a plan
/// on this is a few column-list comparisons; a shared twin is written
/// (copied) only when it lacks the index — a plan `apply` compiled
/// after the twin was loaded.
pub(super) fn ensure_indexes(
    tables: &mut HashMap<String, Arc<Table>>,
    rule: &Rule,
    plan: &RulePlan,
) {
    for step in plan.steps.iter().filter(|step| !step.index.is_empty()) {
        let table = tables
            .get_mut(&rule.body[step.lit_pos].atom().pred)
            .expect("table created in setup");
        if !table.has_index(&step.index) {
            Arc::make_mut(table).ensure_index(&step.index);
        }
    }
}

/// Runs one solver prune over `rows` rows of `pred` — the only place a
/// prune is timed into `prune_wall`, published and traced. Returns the
/// number of rows `prune` removed.
pub(super) fn timed_prune(
    ctx: &Ctx<'_>,
    session: &mut Session,
    stats: &mut PhaseStats,
    pred: &str,
    rows: usize,
    prune: impl FnOnce(&CVarRegistry, &mut Session) -> Result<usize, SolverError>,
) -> Result<usize, EvalError> {
    let t_prune = ctx.tracer.now_ns();
    let wall = Instant::now();
    let removed = prune(ctx.reg, session)?;
    stats.prune_wall += wall.elapsed();
    super::publish::publish_prune(rows, removed);
    ctx.tracer.emit_span("eval", "prune", t_prune, 0, || {
        vec![
            ("pred", pred.into()),
            ("rows", rows.into()),
            ("removed", removed.into()),
            ("threads", 1usize.into()),
        ]
    });
    Ok(removed)
}

/// Brings the stratum `rules` to its fixpoint (see the module docs).
///
/// Iteration 0 runs what `seed` says (`None`: every rule's full plan) —
/// recursive rules see the current, possibly empty, contents of the
/// stratum's own tables — and merges what changed into `delta`, whose
/// length is the partition count. Each later iteration runs one pass
/// per positive body position whose predicate has delta rows; a batch
/// delta only ever holds the stratum's own heads, `apply`'s also EDB
/// and lower-stratum predicates.
pub(super) fn semi_naive(
    d: &mut Driver<'_>,
    rules: &[(usize, &Rule)],
    seed: Option<&Seed>,
    mut delta: Partitions,
    mut tracker: Option<&mut Changes>,
) -> Result<(), EvalError> {
    let n = delta.len();
    if n > 1 {
        d.stats.shard.shards = d.stats.shard.shards.max(n);
    }
    let (positions, head_bound) = (d.ctx.delta_positions, d.ctx.head_bound);
    for iteration in 0usize.. {
        if iteration > d.opts.max_iterations {
            return Err(EvalError::IterationLimit {
                limit: d.opts.max_iterations,
            });
        }
        let t_iter = d.ctx.tracer.now_ns();
        let mut next: Partitions;
        if iteration == 0 {
            next = std::mem::take(&mut delta);
            for &(ri, rule) in rules {
                let head = rule.head.pred.as_str();
                let derived = match seed {
                    Some(seed) if !seed.full.contains(head) => {
                        let Some(keys) = seed.lost.get(head) else {
                            continue;
                        };
                        d.pass(ri, &head_bound[ri], Some((rule.body.len(), keys)))?
                    }
                    _ => d.pass(ri, rule, None)?,
                };
                merge(d, head, None, derived, &mut next, tracker.as_deref_mut())?;
            }
        } else {
            next = (0..n).map(|_| HashMap::new()).collect();
            for &(ri, rule) in rules {
                for &pos in &positions[ri] {
                    let tracker = tracker.as_deref_mut();
                    match delta.as_slice() {
                        // One partition: the pass runs inline.
                        [only] => {
                            let p = rule.body[pos].atom().pred.as_str();
                            let Some(table) = only.get(p).filter(|t| !t.is_empty()) else {
                                continue;
                            };
                            let derived = d.pass(ri, rule, Some((pos, table)))?;
                            merge(d, &rule.head.pred, None, derived, &mut next, tracker)?;
                        }
                        parts => shard::pass(d, ri, rule, pos, parts, &mut next, tracker)?,
                    }
                }
            }
        }
        delta = next;
        // The empty delta that ends the loop is not recorded.
        let delta_rows: usize = delta.iter().flat_map(|m| m.values()).map(Table::len).sum();
        if delta_rows > 0 {
            d.stats.delta_sizes.push(delta_rows);
        }
        super::publish::publish_iteration(delta_rows);
        d.ctx
            .tracer
            .emit_span("fixpoint", "iteration", t_iter, 0, || {
                let mut args = vec![
                    ("iteration", iteration.into()),
                    ("delta_rows", delta_rows.into()),
                ];
                if n > 1 {
                    args.push(("shards", n.into()));
                }
                args
            });
        if delta_rows == 0 {
            break;
        }
    }
    Ok(())
}

/// Merges the rows one pass derived for `pred` into its accumulated
/// table, in partition order, and sends each *changed* row (new terms
/// or a new disjunct) to the partition of `next` that owns it: the
/// only one; or the one its key constant hashes to; or, when the key
/// cell is a c-variable, every one (see [`shard`]). The delta copy
/// carries only the new disjunct — `insert_prepared` reuses the
/// already-normalised condition, so the write costs a hash lookup, not
/// a second DNF pass.
///
/// `producer` is the partition whose worker derived the rows (`None`:
/// the driver did); with more than one partition, only copies landing
/// on another partition count as routed.
pub(super) fn merge(
    d: &mut Driver<'_>,
    pred: &str,
    producer: Option<usize>,
    derived: Vec<Vec<PreparedRow>>,
    next: &mut Partitions,
    tracker: Option<&mut Changes>,
) -> Result<(), EvalError> {
    if derived.iter().all(Vec::is_empty) {
        return Ok(());
    }
    let n = next.len();
    let table = Arc::make_mut(d.tables.get_mut(pred).expect("table created in setup"));
    let schema = table.schema.clone();
    let mut log = tracker.map(|changes| ChangeLog::observe(changes, pred, table, &derived));
    let key = shard::key_column(d.ctx.shard_plan, pred, schema.arity(), n);
    let (mut routed, mut broadcast) = (0u64, 0u64);
    // `pred`'s delta of each partition, out of its map for the merge:
    // writing a row is then no lookup by name.
    let mut deltas: Vec<Option<Table>> = next.iter_mut().map(|part| part.remove(pred)).collect();
    let merged = table.absorb_partitions(derived, |prow| {
        if let Some(log) = &mut log {
            log.record(prow);
        }
        let owners = match shard::route(prow, key, n) {
            Route::To(owner) => owner..owner + 1,
            Route::Broadcast => {
                broadcast += 1;
                0..n
            }
        };
        for s in owners {
            deltas[s]
                .get_or_insert_with(|| Table::new(schema.clone()))
                .insert_prepared(prow)
                .expect("delta schema matches the full table");
            if n > 1 && producer != Some(s) {
                routed += 1;
            }
        }
    });
    for (part, delta) in next.iter_mut().zip(deltas) {
        if let Some(delta) = delta {
            part.insert(pred.to_owned(), delta);
        }
    }
    merged?;
    d.stats.shard.routed_rows += routed;
    d.stats.shard.broadcast_rows += broadcast;
    Ok(())
}

/// The reference the semi-naive loop is tested against
/// (`naive_matches_semi_naive`): every rule over the full tables until
/// nothing changes.
pub(super) fn naive(d: &mut Driver<'_>, rules: &[(usize, &Rule)]) -> Result<(), EvalError> {
    let mut iterations = 0usize;
    loop {
        iterations += 1;
        if iterations > d.opts.max_iterations {
            return Err(EvalError::IterationLimit {
                limit: d.opts.max_iterations,
            });
        }
        let t_iter = d.ctx.tracer.now_ns();
        let mut changed = false;
        for &(ri, rule) in rules {
            let derived = d.pass(ri, rule, None)?;
            let table = d
                .tables
                .get_mut(rule.head.pred.as_str())
                .expect("table created in setup");
            Arc::make_mut(table).absorb_partitions(derived, |_| changed = true)?;
        }
        let iteration = iterations - 1;
        super::publish::publish_iteration(0);
        d.ctx
            .tracer
            .emit_span("fixpoint", "iteration", t_iter, 0, || {
                vec![
                    ("iteration", iteration.into()),
                    ("changed", u64::from(changed).into()),
                ]
            });
        if !changed {
            return Ok(());
        }
    }
}
