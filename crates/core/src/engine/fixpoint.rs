//! The stratum fixpoint: one semi-naive loop, and the naive loop it is
//! tested against.
//!
//! Every stratum evaluation — a batch run, a sharded batch run, the
//! in-place propagation of [`PreparedProgram::apply`] — is
//! [`semi_naive`] with three inputs:
//!
//! * **a partition count.** An iteration's delta is, per predicate and
//!   partition, a list of rows of the predicate's standing table, each
//!   with the condition the delta carries for it ([`Partitions`]). With
//!   one partition a `(rule, position)` pass runs inline on the driver
//!   ([`Driver::pass`]); with more, the pass runs on one worker per
//!   partition ([`shard::pass`]), each over its own list, and the rows
//!   an iteration changed are cut among the partitions that own their
//!   keys when it ends.
//! * **a seed**: what iteration 0 runs. A batch stratum runs every
//!   rule's full plan. `apply` hands over a [`Seed`]: a head that lost
//!   rows runs its rules' head-bound plans over the lost keys (work
//!   proportional to those keys), a head behind a changed negated
//!   predicate runs its rules' full plans, every other rule runs
//!   nothing; and the pending insertions join iteration 0's delta.
//! * **an optional change tracker** ([`Changes`]), offered every row a
//!   merge is about to touch and every row it changed.
//!
//! A pass yields its rows as ordered partitions (one per worker chunk
//! under `threads > 1`, one serially) and [`merge`] replays them through
//! [`Table::absorb_partitions`] in order, so the merged table — and
//! every later iteration — is independent of the thread count. The
//! merge writes the standing table and nothing else: a changed row
//! enters the delta as its index ([`Changed`]), found again through
//! the standing table's [`Mark`], not as a copy of its cells.
//!
//! [`PreparedProgram::apply`]: super::PreparedProgram::apply

use super::maintain::{ChangeLog, Changes};
use super::rule::{DeltaRows, Pass};
use super::{shard, Ctx, EvalError, EvalOptions};
use crate::ast::Rule;
use crate::plan::{PlanCache, RulePlan};
use faure_ctable::pool::CondId;
use faure_ctable::CVarRegistry;
use faure_solver::{Session, SolverError};
use faure_storage::shard::Route;
use faure_storage::{Changed, Mark, PhaseStats, PreparedRow, Table};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use std::time::Instant;

/// A delta cut into partitions: `parts[s][pred]` lists the rows of
/// `pred`'s standing table that partition `s` owns, each with the
/// condition the delta carries for it.
pub(super) type Partitions = Vec<HashMap<String, Vec<(u32, CondId)>>>;

/// What one iteration's merges changed, by predicate, and how many
/// partitions the next iteration reads it in.
pub(super) struct Next {
    parts: usize,
    changed: HashMap<String, Changed>,
}

impl Next {
    fn new(parts: usize) -> Self {
        Next {
            parts,
            changed: HashMap::new(),
        }
    }

    /// The delta the next iteration reads: each predicate's changed
    /// rows, oldest change first, cut among the partitions that own
    /// them — the one its key constant hashes to, or every one when the
    /// key cell is a c-variable (see [`shard`]).
    fn into_partitions(self, d: &Driver<'_>) -> Partitions {
        let n = self.parts;
        if n == 1 {
            let only = self.changed.into_iter().map(|(p, c)| (p, c.into_rows()));
            return vec![only.collect()];
        }
        let mut parts: Partitions = (0..n).map(|_| HashMap::new()).collect();
        for (pred, changed) in self.changed {
            let table = &d.tables[&pred];
            let key = shard::key_column(d.ctx.shard_plan, &pred, table.schema.arity(), n);
            let mut lists = vec![Vec::new(); n];
            for &(row, cond) in changed.rows() {
                match shard::route(key.map(|k| table.cell(row as usize, k)), n) {
                    Route::To(owner) => lists[owner].push((row, cond)),
                    Route::Broadcast => lists.iter_mut().for_each(|l| l.push((row, cond))),
                }
            }
            for (part, list) in parts.iter_mut().zip(lists) {
                if !list.is_empty() {
                    part.insert(pred.clone(), list);
                }
            }
        }
        parts
    }
}

/// What iteration 0 of an `apply` stratum runs, and what joins its
/// delta; a batch stratum has no seed and runs every rule's full plan.
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
    /// The pending insertions on every predicate some rule reads
    /// positively, each row carrying its new disjuncts: part of
    /// iteration 0's delta, so iteration 1 runs the delta passes over
    /// them.
    pub(super) pending: HashMap<String, Table>,
}

/// What a stratum is evaluated with: the run's context, the standing
/// tables, their merge marks, plan cache and solver session it writes
/// (the evaluation's own, borrowed for one run or apply), and the driver
/// thread's options and statistics. A table may be shared (an input
/// relation's twin): every write goes through `Arc::make_mut`.
pub(super) struct Driver<'a> {
    pub(super) ctx: Ctx<'a>,
    pub(super) tables: &'a mut HashMap<String, Arc<Table>>,
    /// Per predicate a merge wrote, its standing table's [`Mark`]: kept
    /// with the tables, so an `apply` does not size one afresh.
    pub(super) marks: &'a mut HashMap<String, Mark>,
    pub(super) plans: &'a mut PlanCache,
    pub(super) session: &'a mut Session,
    pub(super) opts: EvalOptions,
    pub(super) stats: PhaseStats,
}

impl Driver<'_> {
    /// One rule pass on the driver thread, with the driver's tracer and
    /// `threads`: over the full tables, or with `delta`'s rows standing
    /// in at its body position. The plan for each
    /// `(rule, position)` is compiled on first use — later passes are
    /// cache hits that only execute — and the indexes its probes look
    /// their keys up in are built on first use too.
    pub(super) fn pass(
        &mut self,
        ri: usize,
        rule: &Rule,
        delta: Option<(usize, DeltaRows<'_>)>,
    ) -> Result<Vec<Vec<PreparedRow>>, EvalError> {
        let plan = self
            .plans
            .get_or_compile(ri, rule, delta.map(|(pos, _)| pos));
        ensure_indexes(self.tables, rule, plan);
        let delta = delta.map(|(_, rows)| rows);
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
/// stratum's own tables — and merges what changed into the delta, which
/// the seed's pending insertions join. Each later iteration runs one
/// pass per positive body position whose predicate has delta rows, in
/// `partitions` partitions; a batch delta only ever holds the stratum's
/// own heads, `apply`'s also EDB and lower-stratum predicates.
pub(super) fn semi_naive(
    d: &mut Driver<'_>,
    rules: &[(usize, &Rule)],
    seed: Option<&Seed>,
    partitions: usize,
    mut tracker: Option<&mut Changes>,
) -> Result<(), EvalError> {
    let n = partitions.max(1);
    if n > 1 {
        d.stats.shard.shards = d.stats.shard.shards.max(n);
    }
    let (positions, head_bound) = (d.ctx.delta_positions, d.ctx.head_bound);
    let no_pending = HashMap::new();
    let pending = seed.map_or(&no_pending, |seed| &seed.pending);
    let mut delta = Partitions::new();
    for iteration in 0usize.. {
        if iteration > d.opts.max_iterations {
            return Err(EvalError::IterationLimit {
                limit: d.opts.max_iterations,
            });
        }
        let t_iter = d.ctx.tracer.now_ns();
        let mut next = Next::new(n);
        if iteration == 0 {
            for &(ri, rule) in rules {
                let head = rule.head.pred.as_str();
                let derived = match seed {
                    Some(seed) if !seed.full.contains(head) => {
                        let Some(keys) = seed.lost.get(head) else {
                            continue;
                        };
                        let keys = DeltaRows::Table(keys);
                        d.pass(ri, &head_bound[ri], Some((rule.body.len(), keys)))?
                    }
                    _ => d.pass(ri, rule, None)?,
                };
                merge(d, head, None, derived, &mut next, tracker.as_deref_mut())?;
            }
        } else {
            for &(ri, rule) in rules {
                let head = rule.head.pred.as_str();
                for &pos in &positions[ri] {
                    let p = rule.body[pos].atom().pred.as_str();
                    // The pending insertions are iteration 0's delta too:
                    // tables of their own, read by iteration 1 alone.
                    if iteration == 1 {
                        if let Some(table) = pending.get(p).filter(|t| !t.is_empty()) {
                            let rows = DeltaRows::Table(table);
                            let derived = d.pass(ri, rule, Some((pos, rows)))?;
                            merge(d, head, None, derived, &mut next, tracker.as_deref_mut())?;
                        }
                    }
                    let tracker = tracker.as_deref_mut();
                    match delta.as_slice() {
                        // One partition: the pass runs inline.
                        [only] => {
                            let Some(rows) = only.get(p).filter(|rows| !rows.is_empty()) else {
                                continue;
                            };
                            let rows = DeltaRows::Listed(rows);
                            let derived = d.pass(ri, rule, Some((pos, rows)))?;
                            merge(d, head, None, derived, &mut next, tracker)?;
                        }
                        _ => shard::pass(d, ri, rule, pos, &delta, &mut next, tracker)?,
                    }
                }
            }
        }
        delta = next.into_partitions(d);
        // The empty delta that ends the loop is not recorded.
        let mut delta_rows: usize = delta.iter().flat_map(|m| m.values()).map(Vec::len).sum();
        if iteration == 0 {
            delta_rows += pending.values().map(Table::len).sum::<usize>();
        }
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

/// Merges the rows one pass derived for `pred` into its standing table,
/// in partition order, and records each *changed* row (new terms or a
/// new disjunct) in `next` by its index, with the disjunct that changed
/// it: a row that changes again in the same iteration is found through
/// the table's [`Mark`] and merges the new disjunct into what the delta
/// carries. Nothing is written but the standing table; no cell of a
/// changed row is hashed or copied a second time.
///
/// With more than one partition, each change also counts the copies an
/// exchange carries to the partitions that own the row and did not
/// derive it: `producer` is the partition whose worker derived the rows
/// (`None`: the driver did), and a row whose key cell is a c-variable
/// is owned by every partition (see [`shard`]).
pub(super) fn merge(
    d: &mut Driver<'_>,
    pred: &str,
    producer: Option<usize>,
    derived: Vec<Vec<PreparedRow>>,
    next: &mut Next,
    tracker: Option<&mut Changes>,
) -> Result<(), EvalError> {
    if derived.iter().all(Vec::is_empty) {
        return Ok(());
    }
    let n = next.parts;
    let table = Arc::make_mut(d.tables.get_mut(pred).expect("table created in setup"));
    let mut log = tracker.map(|changes| ChangeLog::observe(changes, pred, table, &derived));
    let key = shard::key_column(d.ctx.shard_plan, pred, table.schema.arity(), n);
    let (mark, changed) = (entry(d.marks, pred), entry(&mut next.changed, pred));
    let (mut routed, mut broadcast) = (0u64, 0u64);
    table.absorb_partitions(derived, |(row, prow)| {
        if let Some(log) = &mut log {
            log.record(prow);
        }
        changed.record(mark, row, prow);
        if n > 1 {
            match shard::route(key.map(|k| prow.cells()[k]), n) {
                Route::To(owner) => routed += u64::from(producer != Some(owner)),
                Route::Broadcast => {
                    broadcast += 1;
                    routed += (0..n).filter(|&s| producer != Some(s)).count() as u64;
                }
            }
        }
    })?;
    d.stats.shard.routed_rows += routed;
    d.stats.shard.broadcast_rows += broadcast;
    Ok(())
}

/// `map[key]`, made on first use: only then is the key copied.
fn entry<'m, T: Default>(map: &'m mut HashMap<String, T>, key: &str) -> &'m mut T {
    if !map.contains_key(key) {
        map.insert(key.to_owned(), T::default());
    }
    map.get_mut(key).expect("inserted above")
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

#[cfg(test)]
mod tests {
    use super::super::{canonicalize, evaluate_with, EvalOptions, EvalOutput};
    use crate::parser::parse_program;
    use faure_ctable::{CTuple, Condition, Database, Domain, Schema, Term};
    use std::collections::BTreeSet;

    /// `T` reads `R` before either rule of `R` has run, so its row comes
    /// from iteration 1's pass over `R`'s delta alone. Iteration 0
    /// changes `R`'s one row twice, under `x̄ = 1` and then `ȳ = 1`; `R`
    /// reads `T` back so that all three rules share one stratum.
    const TWICE: &str = "T(a) :- R(a).\nR(a) :- A(a).\nR(a) :- B(a).\nR(a) :- T(a).\n";

    /// `A(k) :- x̄ = 1.` and `B(k) :- ȳ = 1.`, with the key cell `k`
    /// that `key` makes.
    fn twice_db(key: impl FnOnce(&mut Database) -> Term) -> Database {
        let mut db = Database::new();
        let x = db.fresh_cvar("x", Domain::Bool01);
        let y = db.fresh_cvar("y", Domain::Bool01);
        let k = key(&mut db);
        for (name, v) in [("A", x), ("B", y)] {
            db.create_relation(Schema::new(name, &["a"])).unwrap();
            let cond = Condition::eq(Term::Var(v), Term::int(1));
            db.insert(name, CTuple::with_cond([k.clone()], cond))
                .unwrap();
        }
        db
    }

    fn eval(db: &Database, shards: usize, semi_naive: bool) -> EvalOutput {
        let opts = EvalOptions {
            shards,
            semi_naive,
            ..EvalOptions::default()
        };
        evaluate_with(&parse_program(TWICE).unwrap(), db, &opts).expect("evaluation succeeds")
    }

    fn snapshot(out: &EvalOutput, pred: &str) -> BTreeSet<String> {
        out.relation(pred)
            .expect("relation exists")
            .iter()
            .map(|t| format!("{:?} | {:?}", t.terms, canonicalize(t.cond.clone())))
            .collect()
    }

    /// One row changed twice in one iteration is one delta row per
    /// partition that owns it, and the delta carries both disjuncts: `T`
    /// reads them, and the output is the naive loop's.
    fn changed_twice_is_one_delta_row(db: &Database, shards: usize) -> EvalOutput {
        let out = eval(db, shards, true);
        assert_eq!(
            out.stats.delta_sizes.first(),
            Some(&shards),
            "{shards} shards"
        );
        let cond = |pred: &str| {
            let rel = out.relation(pred).expect("relation exists");
            assert_eq!(rel.len(), 1, "{pred} has one row");
            canonicalize(rel.tuples[0].cond.clone())
        };
        assert_eq!(cond("R").cvars().len(), 2, "R's row merged both disjuncts");
        assert_eq!(cond("T"), cond("R"), "the delta T read carried both");
        let naive = eval(db, 1, false);
        for pred in ["R", "T"] {
            assert_eq!(snapshot(&out, pred), snapshot(&naive, pred), "{pred}");
        }
        out
    }

    #[test]
    fn a_row_changed_twice_is_one_delta_row() {
        changed_twice_is_one_delta_row(&twice_db(|_| Term::int(1)), 1);
    }

    /// At two partitions, a c-variable key cell is owned by both: the
    /// row is on both lists, each once, with the merged condition.
    #[test]
    fn a_broadcast_row_changed_twice_is_one_delta_row_per_partition() {
        let db = twice_db(|db| Term::Var(db.fresh_cvar("k", Domain::Ints(vec![1, 2]))));
        let out = changed_twice_is_one_delta_row(&db, 2);
        assert!(out.stats.shard.broadcast_rows > 0, "{:?}", out.stats.shard);
    }
}
