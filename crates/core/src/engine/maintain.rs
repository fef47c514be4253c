//! Incremental maintenance of materialized c-table fixpoints.
//!
//! The paper's target workload is route churn: a standing analysis
//! absorbing a stream of RIB updates, not a batch re-evaluation per
//! snapshot. This module turns [`PreparedProgram`] from a run-once
//! evaluator into a maintainable view system:
//!
//! * [`MaterializedState`] holds everything a run used to rebuild from
//!   scratch — the per-predicate [`Table`]s (IDB *and* EDB), the
//!   resolved c-variable map, and the solver session whose memo holds
//!   every verdict the evaluation reached — so it can outlive a single
//!   evaluation;
//! * [`Delta`] is a batch of EDB changes (`+tuple` inserts and
//!   [`DeletePattern`] deletes, mirroring the §5 Levy–Sagiv update
//!   semantics of [`crate::update`]);
//! * [`PreparedProgram::apply`] propagates a delta through the
//!   standing tables and returns a [`DeltaReport`].
//!
//! Batch evaluation is "one big insertion into empty state":
//! [`PreparedProgram::run`] materializes empty tables for the derived
//! predicates, borrows each input relation's twin
//! ([`Table::twin`]: loaded by the first run over the database, copied
//! only on a first write) and runs each stratum through the one
//! fixpoint loop ([`fixpoint::semi_naive`]), seeded with every rule and
//! an empty delta of `opts.shards` partitions.
//!
//! ## Propagation strategy, per stratum
//!
//! Strata are revisited in order; each reads the pending change sets
//! produced below it and decides a mode:
//!
//! * **skip** — no rule reads a changed predicate: untouched.
//! * **append** (insertions only, no negation over changed
//!   predicates) — the same loop, one partition, seeded with no rule
//!   and the pending insertions as its initial delta: passes pinned to
//!   *any* positive body position whose predicate changed (EDB and
//!   lower-stratum slots included; their delta plans compile lazily
//!   through the shared [`PlanCache`]). Standing rows already carry
//!   every old derivation, and the antichain condition representation
//!   absorbs the new disjuncts exactly, as a from-scratch run would.
//! * **over-delete and re-derive** (deletions or negation involved) —
//!   suspect rows (head rows with a derivation reachable from a deleted
//!   or changed row) are found by the same loop merging nothing, its
//!   delta passes run against the *old* tables — the old versions of
//!   deleted rows overlaid on their tables for the duration, see
//!   [`Table::overlay`] — and removed wholesale; survivors are exact,
//!   because every one of their derivations avoided the changed rows.
//!   The loop is then seeded with the keys each head lost: iteration 0
//!   runs every rule's *head-bound* plan ([`head_bound_rules`]), every
//!   body literal a key-bound probe, so re-derivation costs what the
//!   lost rows' own derivations cost and a withdraw what it
//!   over-deleted, not what is materialized. Telemetry and
//!   [`DeltaReport`] label a non-recursive stratum `counting` (its
//!   frontier empties after one round) and a recursive one `rederive`.
//!   No per-row derivation count is kept or consulted.
//!
//! A changed negated predicate can strengthen *or* weaken downstream
//! conditions without touching any term — and unlock rows that never
//! existed, which no set of lost keys names — so rules negating a
//! changed predicate over-delete their whole head and re-run their full
//! plans.
//!
//! A stratum whose tables hold a c-variable *cell*, or that reads a
//! deleted row with one, is not maintained in place at all: it is
//! recomputed through the batch loop (mode `recompute`, with the reason
//! — `var_cells` / `deleted_var_row` — on its span and in telemetry;
//! see the gate comment in [`PreparedProgram::apply`]).
//!
//! ## Upward propagation and certification
//!
//! An apply tracks a changed row by its index in its standing table;
//! the merge reports the row's condition from before the write
//! ([`Table::absorb_partitions`]), and a stratum-wide
//! [`ChangeLog`](fixpoint::ChangeLog) keeps it beside the disjuncts
//! that changed the row. A stratum settles by pruning its changed rows
//! in place ([`Table::prune_rows`]) and *certifying* each: a merged row
//! whose condition is still its minimal-DNF antichain and was left
//! untouched by the prune propagates as just its new disjuncts (upper
//! antichains self-correct by subsumption); any other as
//! delete-old-version + insert-new-version, pushing the upper stratum
//! onto the DRed path; a dead row as its old version's deletion, before
//! it is swap-removed ([`Table::remove_rows`]). Results hold the rows of
//! a full re-evaluation under conditions with the same worlds, not
//! always in the same form: a re-derivation that joins a row the prune
//! already simplified can differ from batch, which joins it unpruned.
//!
//! ## Scope
//!
//! Deltas may only touch *EDB-only* relations (not rule heads): a
//! predicate that is both fact-seeded and derived stores its facts
//! and derivations merged in one table, so a table-level delete would
//! diverge from the update oracle. [`EvalError::InvalidDelta`] rejects
//! such deltas explicitly.

use super::fixpoint::{self, timed_prune, Changes, Driver, Seed, Suspects, Tracker};
use super::rule::LeafMemo;
use super::{resolve_cvars, Ctx, EvalError, EvalOptions, EvalOutput, PreparedProgram, PrunePolicy};
use crate::analysis::Finding;
use crate::ast::{Literal, Rule};
use crate::plan::{head_bound_rules, PlanCache};
use crate::update::{DeletePattern, Update};
use faure_ctable::pool::{self, CondId};
use faure_ctable::{CTuple, CVarId, Const, Database, Relation, Schema, Term};
use faure_solver::Session;
use faure_storage::{Mark, PhaseStats, PreparedRow, Table};
use faure_trace::Tracer;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A batch of EDB changes: tuples to insert and patterns to delete.
///
/// Deletions apply first, then insertions — the order
/// [`crate::update::apply_to_database`] uses, so a `Delta` built
/// [from an update](Delta::from_update) has identical semantics. A
/// deletion from a relation absent from the database is skipped, as
/// there. The two part at an insertion into a relation the database
/// lacks: if the program reads the relation, `apply` creates it with
/// the schema of its table (what a batch evaluation of the edited
/// database derives from), while `apply_to_database`, which knows no
/// program and is unchanged, skips it. An entry naming a predicate the
/// program never mentions is skipped.
#[derive(Clone, Debug, Default)]
pub struct Delta {
    /// Tuples to insert (conditions allowed), in order.
    pub insert: Vec<(String, CTuple)>,
    /// Deletion patterns (per-column constants; `None` = wildcard).
    pub delete: Vec<(String, DeletePattern)>,
}

impl Delta {
    /// An empty delta.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether the delta carries no changes.
    pub fn is_empty(&self) -> bool {
        self.insert.is_empty() && self.delete.is_empty()
    }

    /// Queues a tuple insertion.
    pub fn push_insert(&mut self, relation: impl Into<String>, tuple: CTuple) {
        self.insert.push((relation.into(), tuple));
    }

    /// Queues an unconditional fact insertion.
    pub fn push_insert_fact(
        &mut self,
        relation: impl Into<String>,
        row: impl IntoIterator<Item = Const>,
    ) {
        let terms: Vec<Term> = row.into_iter().map(Term::Const).collect();
        self.insert.push((relation.into(), CTuple::new(terms)));
    }

    /// Queues a pattern deletion.
    pub fn push_delete(&mut self, relation: impl Into<String>, pattern: DeletePattern) {
        self.delete.push((relation.into(), pattern));
    }

    /// Queues an exact-tuple deletion.
    pub fn push_delete_exact(
        &mut self,
        relation: impl Into<String>,
        row: impl IntoIterator<Item = Const>,
    ) {
        self.delete
            .push((relation.into(), DeletePattern::exact(row)));
    }

    /// The delta equivalent of one §5 [`Update`]: its deletions
    /// followed by its insertions, on the update's relation.
    pub fn from_update(update: &Update) -> Self {
        let mut delta = Delta::new();
        for d in &update.deletions {
            delta.push_delete(update.relation.clone(), d.clone());
        }
        for row in &update.insertions {
            delta.push_insert_fact(update.relation.clone(), row.iter().cloned());
        }
        delta
    }
}

/// What one [`PreparedProgram::apply`] call did.
#[derive(Clone, Debug, Default)]
pub struct DeltaReport {
    /// EDB insertions that changed state (new row or new disjunct).
    pub inserted: usize,
    /// EDB rows removed or weakened by the delta's deletions.
    pub deleted: usize,
    /// Derived rows removed during DRed over-deletion.
    pub overdeleted: usize,
    /// Derived rows (re)derived or strengthened by propagation.
    pub rederived: usize,
    /// Rows removed by the end-of-stratum prune over changed rows.
    pub pruned: usize,
    /// Strata that did any work.
    pub strata_touched: usize,
    /// Non-recursive strata that over-deleted and re-derived.
    pub counting_strata: usize,
    /// Recursive strata that over-deleted and re-derived, plus strata
    /// recomputed behind the order-safety gate.
    pub rederive_strata: usize,
    /// Wall-clock time of the whole apply.
    pub wall: Duration,
    /// Full phase statistics for this apply (solver, plans, ops, and
    /// `delta_sizes`: delta rows after each propagation iteration).
    pub stats: PhaseStats,
}

faure_trace::stats!(DeltaReport {
    inserted: Counter, "inserted", "faure_rows_inserted_total", "EDB insertions that changed state.";
    deleted: Counter, "deleted", "faure_rows_deleted_total", "EDB rows removed or weakened by deletions.";
    overdeleted: Counter, "overdeleted", "faure_rows_overdeleted_total", "Derived rows removed during over-deletion.";
    rederived: Counter, "rederived", "faure_rows_rederived_total", "Derived rows (re)derived or strengthened by propagation.";
    pruned: Counter, "pruned", "", "Changed rows the settle prune removed (published with the phase's pruned rows).";
    strata_touched: Counter, "strata_touched", "faure_strata_touched_total", "Strata that did any work.";
    counting_strata: Counter, "counting_strata", "", "Non-recursive strata that over-deleted (published by mode).";
    rederive_strata: Counter, "rederive_strata", "", "Recursive or recomputed strata (published by mode).";
});

/// A standing evaluation: per-predicate tables, resolved c-variables,
/// and the solver session, kept alive between [`Delta`] applications.
/// Built by [`PreparedProgram::materialize`]. The session's memo is the
/// state's own: it starts empty, answers every later apply with what
/// earlier ones decided, and goes when the state does.
///
/// An input predicate's table starts as its relation's twin, shared
/// with the caller's database; `apply` writes through `Arc::make_mut`,
/// so the first write copies it while the caller still holds it.
pub struct MaterializedState {
    /// The caller's database with its twin slots emptied: the twins
    /// are held by `tables`, and a slot here would make the first
    /// `apply` copy a twin nobody else reads.
    pub(super) database: Database,
    pub(super) cvmap: HashMap<String, CVarId>,
    pub(super) session: Session,
    pub(super) tables: HashMap<String, Arc<Table>>,
    /// The merge's [`Mark`]s of every table it wrote (see
    /// [`Driver::marks`]).
    pub(super) marks: HashMap<String, (Mark, Mark)>,
    pub(super) plans: PlanCache,
    pub(super) warnings: Vec<Finding>,
    pub(super) tracer: Tracer,
    pub(super) opts: EvalOptions,
    pub(super) started: Instant,
    pub(super) stats: PhaseStats,
}

impl MaterializedState {
    /// Lint findings from materialization.
    pub fn warnings(&self) -> &[Finding] {
        &self.warnings
    }

    /// The standing database (original EDB relations plus registry;
    /// derived relations live in the tables until exported).
    pub fn database(&self) -> &Database {
        &self.database
    }

    /// The current contents of a predicate's table as a relation
    /// (EDB or derived), reflecting every delta applied so far.
    pub fn relation(&self, name: &str) -> Option<Relation> {
        self.tables.get(name).map(|t| t.to_relation())
    }

    /// Statistics of the most recent apply.
    pub fn stats(&self) -> &PhaseStats {
        &self.stats
    }

    /// Consumes the state into the classic [`EvalOutput`]: the input
    /// database extended with every derived relation.
    pub(super) fn into_output(mut self, idb: &BTreeSet<String>) -> EvalOutput {
        let t_export = self.tracer.now_ns();
        self.tables.retain(|name, _| idb.contains(name));
        let mut derived_tuples = 0usize;
        for p in idb {
            let t = self.tables.remove(p).expect("table created in setup");
            derived_tuples += t.len();
            // Still shared only when it is an input relation's twin
            // that no rule wrote to.
            let relation = match Arc::try_unwrap(t) {
                Ok(t) => t.into_relation(),
                Err(shared) => shared.to_relation(),
            };
            self.database.set_relation(relation);
        }
        self.tracer.emit_span("eval", "export", t_export, 0, || {
            vec![("rows", derived_tuples.into())]
        });
        let total = self.started.elapsed();
        self.stats.relational = total.saturating_sub(self.stats.solver);
        self.stats.tuples = derived_tuples;
        EvalOutput {
            database: self.database,
            stats: self.stats,
            warnings: self.warnings,
        }
    }
}

/// The change sets flowing upward through the strata of one apply.
#[derive(Default)]
struct Pending {
    /// Per predicate, rows of its standing table and the condition each
    /// carries upward: a new or rewritten row's own, a certified row's
    /// new disjuncts.
    ins: BTreeMap<String, Vec<(u32, CondId)>>,
    /// Per predicate, the old versions of the rows removed or rewritten:
    /// no longer in their table.
    del: BTreeMap<String, Vec<CTuple>>,
}

impl Pending {
    /// Whether `pred` has a pending change.
    fn changed(&self, pred: &str) -> bool {
        self.ins.contains_key(pred) || self.del.contains_key(pred)
    }

    fn queue(&mut self, pred: &str, ins: Vec<(u32, CondId)>, del: Vec<CTuple>) {
        if !ins.is_empty() {
            self.ins.entry(pred.to_owned()).or_default().extend(ins);
        }
        if !del.is_empty() {
            self.del.entry(pred.to_owned()).or_default().extend(del);
        }
    }
}

impl PreparedProgram {
    /// Builds a [`MaterializedState`] for `db` and brings it to the
    /// program's fixpoint (the batch evaluation). Subsequent [`apply`]
    /// calls maintain the fixpoint incrementally.
    ///
    /// [`apply`]: PreparedProgram::apply
    pub fn materialize(&self, db: &Database) -> Result<MaterializedState, EvalError> {
        self.materialize_with(db, &self.opts, &Tracer::disabled())
    }

    /// [`materialize`](PreparedProgram::materialize) with explicit
    /// options and tracing.
    pub fn materialize_with(
        &self,
        db: &Database,
        opts: &EvalOptions,
        tracer: &Tracer,
    ) -> Result<MaterializedState, EvalError> {
        let mut state = self.materialize_empty(db, opts, tracer)?;
        self.run_batch(&mut state, db)?;
        Ok(state)
    }

    /// The batch evaluation over freshly set-up state: every relation
    /// of `db` becomes its twin — loaded by the first run over `db`,
    /// borrowed by every later one — then every stratum runs to its
    /// fixpoint.
    fn run_batch(&self, state: &mut MaterializedState, db: &Database) -> Result<(), EvalError> {
        let wall = Instant::now();
        let mut report = DeltaReport::default();
        let t_load = state.tracer.now_ns();
        // Every column set a prepared plan probes, by predicate: the
        // indexes asked of each twin, so a run over a warm database
        // builds none.
        let mut probed: Vec<(&str, &[usize])> = self
            .plans
            .iter()
            .flat_map(|(ri, plan)| {
                let body = &self.program.rules[ri].body;
                plan.steps
                    .iter()
                    .filter(|step| !step.index.is_empty())
                    .map(|step| (body[step.lit_pos].atom().pred.as_str(), &step.index[..]))
            })
            .collect();
        probed.sort_unstable();
        probed.dedup();
        let (mut relations, mut rows_encoded) = (0usize, 0usize);
        for name in db.relation_names() {
            let indexes: Vec<&[usize]> = probed
                .iter()
                .filter(|(pred, _)| *pred == name)
                .map(|&(_, cols)| cols)
                .collect();
            let Some(twin) = Table::twin(db, name, &indexes)? else {
                continue;
            };
            relations += 1;
            rows_encoded += twin.encoded;
            report.inserted += twin.changed;
            state.tables.insert(name.to_owned(), twin.table);
        }
        state.tracer.emit_span("eval", "load", t_load, 0, || {
            vec![
                ("relations", relations.into()),
                ("rows_encoded", rows_encoded.into()),
            ]
        });
        let leaves = LeafMemo::default();
        let mut d = self.driver(state, &leaves, &[]);
        d.stats.rows_encoded = rows_encoded;
        for (si, stratum) in self.strat.strata.iter().enumerate() {
            run_one_stratum(&mut d, si, &self.rules_of(stratum))?;
        }
        let Driver { stats, .. } = d;
        finalize_apply(self, state, stats, &mut report, wall);
        report.rederived = report.stats.tuples;
        report.pruned = report.stats.pruned;
        report.strata_touched = self.strat.strata.len();
        super::publish::publish_apply(&report, true);
        Ok(())
    }

    /// The rules of one stratum, by index into the program.
    fn rules_of(&self, stratum: &[usize]) -> Vec<(usize, &Rule)> {
        stratum
            .iter()
            .map(|&i| (i, &self.program.rules[i]))
            .collect()
    }

    /// A driver over `state`'s tables, plans and solver session with
    /// zeroed statistics; the plan cache's and the session's counters
    /// restart, so what they read afterwards is this apply's own
    /// traffic.
    fn driver<'a>(
        &'a self,
        state: &'a mut MaterializedState,
        leaves: &'a LeafMemo,
        head_bound: &'a [Rule],
    ) -> Driver<'a> {
        state.plans.hits = 0;
        state.plans.misses = 0;
        state.session.take_stats();
        Driver {
            ctx: Ctx {
                cvmap: &state.cvmap,
                reg: &state.database.cvars,
                tracer: state.tracer.clone(),
                shard_plan: &self.shard_plan,
                delta_positions: &self.maint.delta_positions,
                head_bound,
                leaves,
            },
            tables: &mut state.tables,
            marks: &mut state.marks,
            plans: &mut state.plans,
            session: &mut state.session,
            opts: state.opts,
            stats: PhaseStats::new(),
        }
    }

    /// The setup phase: lint, c-variable resolution, and *empty* table
    /// creation (the caller puts the EDB twins in place).
    pub(super) fn materialize_empty(
        &self,
        db: &Database,
        opts: &EvalOptions,
        tracer: &Tracer,
    ) -> Result<MaterializedState, EvalError> {
        let program = &self.program;
        let t_lint = tracer.now_ns();
        // Diagnostic pre-pass: collect lint warnings without affecting
        // evaluation. Findings are database-dependent (shadowed inputs,
        // arity against actual relations), so this runs per
        // materialization, not at prepare time.
        let warnings: Vec<Finding> = crate::analysis::analyze(program, Some(db))
            .into_iter()
            .filter(|f| !f.is_error())
            .collect();
        tracer.emit_span("eval", "lint", t_lint, 0, || {
            vec![("warnings", warnings.len().into())]
        });

        let t_setup = tracer.now_ns();
        let mut database = db.clone();
        database.clear_twins();
        let cvmap = resolve_cvars(program, &mut database);
        let started = Instant::now();

        // Empty tables for the predicates mentioned but absent from the
        // database, with inferred schemas. A database relation keeps its
        // declared schema and gets its twin from the caller.
        let mut tables: HashMap<String, Arc<Table>> = HashMap::new();
        for rule in &program.rules {
            for atom in std::iter::once(&rule.head).chain(rule.body.iter().map(Literal::atom)) {
                let arity = atom.args.len();
                let schema = match database.relation(&atom.pred) {
                    Some(rel) => Some(&rel.schema),
                    None => tables.get(&atom.pred).map(|t| &t.schema),
                };
                match schema {
                    Some(schema) if schema.arity() != arity => {
                        return Err(EvalError::ArityMismatch {
                            pred: atom.pred.clone(),
                            expected: schema.arity(),
                            got: arity,
                        });
                    }
                    Some(_) => {}
                    None => {
                        let attrs: Vec<String> = (0..arity).map(|i| format!("c{i}")).collect();
                        let schema = Schema {
                            name: atom.pred.clone(),
                            attrs,
                        };
                        tables.insert(atom.pred.clone(), Arc::new(Table::new(schema)));
                    }
                }
            }
        }
        tracer.emit_span("eval", "setup", t_setup, 0, || {
            let relations = database.relation_names().count();
            vec![("tables", (tables.len() + relations).into())]
        });

        Ok(MaterializedState {
            database,
            cvmap,
            session: Session::new(),
            tables,
            marks: HashMap::new(),
            plans: self.plans.fresh_counters(),
            warnings,
            tracer: tracer.clone(),
            opts: *opts,
            started,
            stats: PhaseStats::new(),
        })
    }

    /// Applies one delta to the standing state, maintaining every
    /// derived table at the program's fixpoint by propagating the
    /// change as described in the module docs.
    ///
    /// The whole delta is checked before anything is written: an
    /// [`EvalError::InvalidDelta`] or [`EvalError::ArityMismatch`]
    /// leaves the state as it was. An error in the middle of the
    /// propagation ([`EvalError::IterationLimit`], [`EvalError::Solver`])
    /// does not yet: the state is then neither the old fixpoint nor the
    /// new one.
    pub fn apply(
        &self,
        state: &mut MaterializedState,
        delta: Delta,
    ) -> Result<DeltaReport, EvalError> {
        let tracer = state.tracer.clone();
        let t_delta = tracer.now_ns();
        let wall = Instant::now();
        let mut report = DeltaReport::default();

        // --- phase A: apply the delta to the EDB tables ---------------
        self.check(state, &delta)?;
        let mut pend = Pending::default();
        for (rel_name, pattern) in &delta.delete {
            // Mirror `update::apply_to_database`: absent relation = no-op.
            if state.database.relation(rel_name).is_none() {
                continue;
            }
            let table = state
                .tables
                .get_mut(rel_name)
                .expect("every database relation has a table");
            let eff = Arc::make_mut(table).delete_where(&pattern.cols);
            report.deleted += eff.removed.len() + eff.weakened.len();
            pend.queue(rel_name, Vec::new(), [eff.removed, eff.weakened].concat());
        }
        // Every relation the program mentions has a table; one the
        // database lacks is created with the table's schema.
        for (rel, _) in &delta.insert {
            if let (None, Some(table)) = (state.database.relation(rel), state.tables.get(rel)) {
                let created = state.database.create_relation(table.schema.clone());
                created.expect("checked absent");
            }
        }
        let leaves = LeafMemo::default();
        let head_bound = self
            .head_bound
            .get_or_init(|| head_bound_rules(&self.program));
        let mut d = self.driver(state, &leaves, head_bound);
        let (mut inserted, mut next) = (Changes::new(), fixpoint::Next::new(1));
        for (rel, tuple) in &delta.insert {
            if d.tables.contains_key(rel) {
                let row = vec![vec![PreparedRow::from_tuple(tuple)]];
                let log = &mut Tracker::Log(&mut inserted);
                report.inserted += fixpoint::merge(&mut d, rel, None, row, &mut next, log)?;
            }
        }
        settle(&mut d, &mut report, &inserted, false, &mut pend)?;

        // --- incremental path -----------------------------------------
        for (si, stratum) in self.strat.strata.iter().enumerate() {
            let rules = self.rules_of(stratum);
            if !reads(&rules, None, |p| pend.changed(p)) {
                continue;
            }
            report.strata_touched += 1;
            let t_stratum = tracer.now_ns();
            // Bit-identity gate: in-place delta propagation derives
            // rows through join orders batch evaluation never runs
            // (its plans pin the delta literal first), and condition
            // atoms record the *binding chain* — `a` bound to a
            // c-variable cell then matched against `2` yields `v̄ = 2`,
            // while the reverse order yields ground atoms that fold.
            // Over var-free cells every match condition is ground, so
            // the derived rows are order-independent and the fast path
            // is exact. Any c-variable cell in the stratum's tables or
            // in a deleted row forces recomputation of the whole
            // stratum through the batch loop, which is bit-identical
            // by construction.
            let hazard = order_hazard(&rules, d.tables, &pend.del);
            let recursive = self.maint.recursive_strata[si];
            let (mode, changed_rows) = match hazard {
                Some(_) => recompute_stratum(&mut d, si, &rules, &mut report, &mut pend)?,
                None => maintain_stratum(&mut d, si, &rules, recursive, &mut report, &mut pend)?,
            };
            super::publish::publish_maintain_stratum(mode, hazard, changed_rows);
            tracer.emit_span("maintain", "stratum", t_stratum, 0, || {
                let mut args = vec![("stratum", si.into()), ("mode", mode.into())];
                args.extend(hazard.map(|reason| ("reason", reason.into())));
                args.push(("changed", changed_rows.into()));
                args
            });
        }

        let Driver { stats, .. } = d;
        finalize_apply(self, state, stats, &mut report, wall);
        super::publish::publish_apply(&report, false);
        tracer.emit_span("maintain", "delta", t_delta, 0, || {
            let wall_ns = u64::try_from(report.wall.as_nanos()).unwrap_or(u64::MAX);
            vec![
                ("inserted", report.inserted.into()),
                ("deleted", report.deleted.into()),
                ("overdeleted", report.overdeleted.into()),
                ("rederived", report.rederived.into()),
                ("wall_ns", wall_ns.into()),
            ]
        });
        Ok(report)
    }

    /// Every check [`apply`](PreparedProgram::apply) makes of `delta`,
    /// over the whole delta and before its first write: no entry names a
    /// derived predicate, and on a relation the state holds every
    /// deletion pattern and inserted tuple has its arity and no pattern
    /// is unconstrained. A deletion from a relation the database lacks is
    /// skipped, so nothing of it is checked.
    fn check(&self, state: &MaterializedState, delta: &Delta) -> Result<(), EvalError> {
        let deletes = delta.delete.iter().map(|(rel, p)| {
            let cols = Some(&p.cols[..]);
            (rel, "delete from", cols, p.cols.len())
        });
        let inserts = delta
            .insert
            .iter()
            .map(|(rel, t)| (rel, "insert into", None, t.terms.len()));
        for (rel, verb, pattern, got) in deletes.chain(inserts) {
            let invalid = |msg| Err(EvalError::InvalidDelta(msg));
            if self.idb.contains(rel) {
                return invalid(format!(
                    "cannot {verb} `{rel}`: it is derived by rules \
                     (facts and derivations share one table)"
                ));
            }
            let table = match state.tables.get(rel) {
                Some(t) if pattern.is_none() || state.database.relation(rel).is_some() => t,
                _ => continue,
            };
            let expected = table.schema.arity();
            if got != expected {
                let pred = rel.clone();
                return Err(EvalError::ArityMismatch {
                    pred,
                    expected,
                    got,
                });
            }
            if pattern.is_some_and(|cols| cols.iter().all(Option::is_none)) {
                return invalid(format!("unconstrained deletion pattern on `{rel}`"));
            }
        }
        Ok(())
    }
}

/// Whether some rule reads a predicate `changed` names: under negation
/// (`Some(true)`), positively (`Some(false)`) or either way (`None`).
fn reads(rules: &[(usize, &Rule)], negative: Option<bool>, changed: impl Fn(&str) -> bool) -> bool {
    rules.iter().any(|(_, r)| {
        r.body.iter().any(|l| {
            negative.is_none_or(|neg| l.is_negative() == neg) && changed(l.atom().pred.as_str())
        })
    })
}

/// One stratum maintained in place (see the module docs): over-delete
/// and re-derive when it reads a deleted row or negates a changed
/// predicate, then propagate to the fixpoint and settle. Returns the
/// stratum's mode and the number of rows it changed.
fn maintain_stratum(
    d: &mut Driver<'_>,
    si: usize,
    rules: &[(usize, &Rule)],
    recursive: bool,
    report: &mut DeltaReport,
    pend: &mut Pending,
) -> Result<(&'static str, usize), EvalError> {
    let mut seed = Seed::default();
    // The open `maintain/rederive` span: start and round count.
    let mut rederive_span = None;
    let negates = |lit: &Literal| lit.is_negative() && pend.changed(lit.atom().pred.as_str());
    let mode = if !reads(rules, Some(false), |p| pend.del.contains_key(p))
        && !rules.iter().any(|(_, r)| r.body.iter().any(negates))
    {
        "append"
    } else {
        let t_od = d.ctx.tracer.now_ns();
        // 1. The over-delete frontier, rows of standing tables: every
        // row of a head behind a changed negated predicate, and every
        // deleted row some rule reads. A derivation can use a deleted row
        // at *two* join positions, only one of them the delta slot, so
        // the old versions are overlaid on their tables for the rounds
        // and taken off again, whether or not the rounds succeed
        // ([`Table::overlay`]).
        let mut suspects = Suspects::new();
        let mut frontier: BTreeMap<&str, Vec<(u32, CondId)>> = BTreeMap::new();
        for (_, rule) in rules.iter().filter(|(_, r)| r.body.iter().any(negates)) {
            let h = rule.head.pred.as_str();
            // Negation can also *unlock* brand-new rows, so these rules
            // always re-run their full plans.
            if seed.full.insert(h.to_owned()) {
                let (ht, all) = (&d.tables[h], 0..d.tables[h].len());
                suspects.insert(h.to_owned(), all.clone().collect());
                frontier.insert(h, all.map(|i| (i as u32, ht.cond_id(i))).collect());
            }
        }
        let mut overlays = Vec::new();
        for (p, old_rows) in &pend.del {
            if reads(rules, Some(false), |read| read == p) {
                let t = Arc::make_mut(d.tables.get_mut(p).expect("table exists"));
                let overlay = t.overlay(old_rows).expect("old rows match their schema");
                frontier.entry(p).or_default().extend(overlay.rows());
                overlays.push((p.as_str(), overlay));
            }
        }
        // 2. Over-delete rounds: the fixpoint loop, merging nothing —
        // each head row a frontier row derives is a suspect, and the
        // next round's frontier. Taint is decided by terms: like every
        // rule pass, the rounds never ask the solver.
        let pending = frontier.iter().map(|(p, rows)| (*p, &rows[..])).collect();
        let frontier = Seed {
            pending,
            ..Seed::default()
        };
        let collect = &mut Tracker::Collect(&mut suspects);
        let rounds = fixpoint::semi_naive(d, rules, Some(&frontier), 1, collect);
        for (p, overlay) in overlays {
            let t = d.tables.get_mut(p).expect("table exists");
            Arc::make_mut(t).remove_overlay(overlay);
        }
        rederive_span = Some((t_od, rounds?));

        // 3. Physically remove every suspect: its old version flows
        // upward as a deletion, and the keys a head lost are what its
        // head-bound plans re-derive.
        for (p, idxs) in suspects.iter().filter(|(_, idxs)| !idxs.is_empty()) {
            let t = Arc::make_mut(d.tables.get_mut(p.as_str()).expect("table exists"));
            let idxs: Vec<usize> = idxs.iter().copied().collect();
            let old_rows: Vec<CTuple> = idxs.iter().map(|&i| t.row(i)).collect();
            if !seed.full.contains(p) {
                let mut keys = Table::new(t.schema.clone());
                for &i in &idxs {
                    keys.insert(CTuple::new(t.terms(i))).expect("same schema");
                }
                seed.lost.insert(p.clone(), keys);
            }
            t.remove_rows(&idxs);
            report.overdeleted += old_rows.len();
            pend.queue(p, Vec::new(), old_rows);
        }
        if recursive {
            report.rederive_strata += 1;
            "rederive"
        } else {
            report.counting_strata += 1;
            "counting"
        }
    };

    // 4. Propagate to fixpoint, in place: the seed's iteration 0 (lost
    // keys through head-bound plans, negation-affected heads in full),
    // then delta passes pinned to every changed body position —
    // iteration 1's over the pending insertions on every predicate some
    // rule reads positively — in one partition, every changed row logged.
    for (_, rule) in rules {
        for lit in rule.body.iter().filter(|l| !l.is_negative()) {
            if let Some((p, rows)) = pend.ins.get_key_value(lit.atom().pred.as_str()) {
                seed.pending.insert(p, rows);
            }
        }
    }
    let mut changes = Changes::new();
    fixpoint::semi_naive(d, rules, Some(&seed), 1, &mut Tracker::Log(&mut changes))?;
    if let Some((t_od, rounds)) = rederive_span {
        d.ctx.tracer.emit_span("maintain", "rederive", t_od, 0, || {
            let keys: usize = seed.lost.values().map(Table::len).sum();
            let found = |(p, keys): (&String, &Table)| {
                let t = &d.tables[p];
                keys.iter()
                    .filter(|k| t.find_row(&k.terms).is_some())
                    .count()
            };
            let rederived: usize = seed.lost.iter().map(found).sum();
            vec![
                ("stratum", si.into()),
                ("rounds", rounds.into()),
                ("overdeleted", report.overdeleted.into()),
                ("keys", keys.into()),
                ("rederived", rederived.into()),
            ]
        });
    }

    // 5. Settle: prune changed rows, certify, and queue the upward
    // change sets.
    let changed_rows = settle(d, report, &changes, true, pend)?;
    report.rederived += changed_rows;
    Ok((mode, changed_rows))
}

/// One stratum of the batch evaluation: the fixpoint loop (or the naive
/// reference), then whole-table pruning in deterministic predicate
/// order. This is the unit shared by the fresh-materialize path and the
/// maintenance recomputation fallback, so both produce bit-identical
/// tables and trace spans for the same inputs.
fn run_one_stratum(
    d: &mut Driver<'_>,
    stratum_idx: usize,
    rules: &[(usize, &Rule)],
) -> Result<(), EvalError> {
    let t_stratum = d.ctx.tracer.now_ns();
    if d.opts.semi_naive {
        // Every rule seeds; the delta is cut into one partition per
        // shard.
        fixpoint::semi_naive(d, rules, None, d.opts.shards, &mut Tracker::None)?;
    } else {
        fixpoint::naive(d, rules)?;
    }

    if d.opts.prune == PrunePolicy::EndOfStratum {
        // A BTreeSet, so prune order — and therefore the trace event
        // stream — is deterministic.
        let heads: BTreeSet<&str> = rules.iter().map(|(_, r)| r.head.pred.as_str()).collect();
        for p in heads {
            let t = Arc::make_mut(d.tables.get_mut(p).expect("table created in setup"));
            let rows = t.len();
            let removed = timed_prune(&d.ctx, d.session, &mut d.stats, p, rows, |reg, s| {
                t.prune(reg, s)
            })?;
            d.stats.pruned += removed;
        }
    }
    let rule_count = rules.len();
    d.ctx.tracer.emit_span("eval", "stratum", t_stratum, 0, || {
        vec![
            ("stratum", stratum_idx.into()),
            ("rules", rule_count.into()),
        ]
    });
    Ok(())
}

/// Why a stratum's in-place delta passes could derive something batch
/// evaluation would not, or `None` when they cannot: every table the
/// stratum touches (head and body predicates) is free of c-variable
/// *cells* and every pending deleted row has ground terms, so the
/// derived rows and conditions do not depend on the join order (see the
/// gate comment in [`PreparedProgram::apply`]). The reason labels the
/// recomputed stratum in its span and in telemetry.
fn order_hazard(
    rules: &[(usize, &Rule)],
    tables: &HashMap<String, Arc<Table>>,
    pend_del: &BTreeMap<String, Vec<CTuple>>,
) -> Option<&'static str> {
    let mut preds: BTreeSet<&str> = BTreeSet::new();
    for (_, rule) in rules {
        preds.insert(rule.head.pred.as_str());
        for lit in &rule.body {
            preds.insert(lit.atom().pred.as_str());
        }
    }
    if preds
        .iter()
        .any(|p| tables.get(*p).is_some_and(|t| t.has_var_cells()))
    {
        return Some("var_cells");
    }
    let ground = |row: &CTuple| row.terms.iter().all(|t| matches!(t, Term::Const(_)));
    preds
        .iter()
        .any(|p| {
            pend_del
                .get(*p)
                .is_some_and(|rows| !rows.iter().all(ground))
        })
        .then_some("deleted_var_row")
}

/// Maintenance fallback for order-sensitive strata: drains the head
/// tables, re-runs the batch stratum loop on the (already updated)
/// inputs, and diffs old against new to queue the upward change sets.
/// Inputs are bit-identical to what a from-scratch batch run would see
/// at this stratum, so the recomputed tables are too. Returns the mode
/// and the number of rows that differ.
fn recompute_stratum(
    d: &mut Driver<'_>,
    si: usize,
    rules: &[(usize, &Rule)],
    report: &mut DeltaReport,
    pend: &mut Pending,
) -> Result<(&'static str, usize), EvalError> {
    report.rederive_strata += 1;
    let head_preds: BTreeSet<&str> = rules.iter().map(|(_, r)| r.head.pred.as_str()).collect();
    let mut old: BTreeMap<&str, Arc<Table>> = BTreeMap::new();
    for p in head_preds {
        let t = d.tables.get_mut(p).expect("table created in setup");
        let empty = Arc::new(Table::new(t.schema.clone()));
        old.insert(p, std::mem::replace(t, empty));
    }
    run_one_stratum(d, si, rules)?;

    let mut changed_rows = 0usize;
    for (p, old_t) in old {
        let new_t = &d.tables[p];
        report.rederived += new_t.len();
        let (mut ins, mut del) = (Vec::new(), Vec::new());
        for i in 0..old_t.len() {
            let j = new_t.find_row(&old_t.terms(i));
            // Unchanged: pooled ids are hash-consed, so equal ids mean
            // equal conditions.
            if j.is_some_and(|j| new_t.cond_id(j) == old_t.cond_id(i)) {
                continue;
            }
            del.push(old_t.row(i));
            match j {
                Some(j) => ins.push((j as u32, new_t.cond_id(j))),
                None => report.overdeleted += 1,
            }
        }
        for j in 0..new_t.len() {
            if old_t.find_row(&new_t.terms(j)).is_none() {
                ins.push((j as u32, new_t.cond_id(j)));
            }
        }
        changed_rows += ins.len() + del.len();
        pend.queue(p, ins, del);
    }
    Ok(("recompute", changed_rows))
}

/// Settles and certifies the rows `changes` logged (see the module
/// docs), each read by index while its cells are in place; with `prune`,
/// the end-of-stratum prune decides their fates first. Then the dead
/// rows go, and the pending rows that moved follow. Returns the number
/// of logged rows.
fn settle(
    d: &mut Driver<'_>,
    report: &mut DeltaReport,
    changes: &Changes,
    prune: bool,
    pend: &mut Pending,
) -> Result<usize, EvalError> {
    let mut changed_rows = 0usize;
    for (p, log) in changes {
        let rows = log.changed.rows();
        changed_rows += rows.len();
        let table = Arc::make_mut(d.tables.get_mut(p).expect("table created in setup"));
        let pre: Vec<CondId> = rows
            .iter()
            .map(|&(row, _)| table.cond_id(row as usize))
            .collect();
        let mut dead = Vec::new();
        if prune && d.opts.prune == PrunePolicy::EndOfStratum {
            let idxs = rows.iter().map(|&(row, _)| row as usize);
            let removed = timed_prune(&d.ctx, d.session, &mut d.stats, p, rows.len(), |reg, s| {
                dead = table.prune_rows(reg, s, idxs)?;
                Ok(dead.len())
            })?;
            d.stats.pruned += removed;
            report.pruned += removed;
            dead.sort_unstable();
        }
        let (mut ins, mut del) = (Vec::new(), Vec::new());
        for ((&(row, carried), &old), pre) in rows.iter().zip(&log.old).zip(pre) {
            let idx = row as usize;
            // `Table::row` reads only the row's condition id.
            let old_version = || {
                old.map(|old| CTuple {
                    terms: table.terms(idx),
                    cond: pool::resolve(old),
                })
            };
            if dead.binary_search(&idx).is_ok() {
                del.extend(old_version());
            } else if old.is_some() && table.has_sets_repr(idx) && table.cond_id(idx) == pre {
                ins.push((row, carried));
            } else {
                del.extend(old_version());
                ins.push((row, table.cond_id(idx)));
            }
        }
        if !dead.is_empty() {
            let moved = table.remove_rows(&dead);
            for (row, _) in &mut ins {
                if let Some(&to) = moved.get(&(*row as usize)) {
                    *row = to as u32;
                }
            }
        }
        pend.queue(p, ins, del);
    }
    Ok(changed_rows)
}

/// Shared tail of every apply: solver/plan statistics and report
/// totals.
fn finalize_apply(
    prepared: &PreparedProgram,
    state: &mut MaterializedState,
    mut stats: PhaseStats,
    report: &mut DeltaReport,
    wall: Instant,
) {
    let total = wall.elapsed();
    stats.solver_stats = state.session.take_stats();
    stats.solver = stats.solver_stats.time;
    stats.relational = total.saturating_sub(stats.solver);
    stats.plan_cache_hits = state.plans.hits;
    stats.plan_cache_misses = prepared.compiled + state.plans.misses;
    stats.tuples = prepared
        .idb
        .iter()
        .filter_map(|p| state.tables.get(p))
        .map(|t| t.len())
        .sum();
    report.wall = total;
    report.stats = stats.clone();
    state.stats = stats;
}

#[cfg(test)]
mod tests {
    use super::super::{canonicalize, Engine, EvalError};
    use super::*;
    use crate::parser::parse_program;
    use faure_ctable::{Condition, Domain};
    use std::collections::BTreeSet;

    /// Reorients symmetric comparisons (`=`, `≠`) into one canonical
    /// operand order. The storage layer's pooled DNF representation may
    /// flip `x̄ = 1` into `1 = x̄` relative to a raw input condition;
    /// both sides of the differential get the same orientation here.
    fn orient(c: Condition) -> Condition {
        match c {
            Condition::Atom(a)
                if matches!(a.op, faure_ctable::CmpOp::Eq | faure_ctable::CmpOp::Ne)
                    && format!("{:?}", a.lhs) > format!("{:?}", a.rhs) =>
            {
                Condition::Atom(faure_ctable::Atom {
                    lhs: a.rhs,
                    op: a.op,
                    rhs: a.lhs,
                })
            }
            Condition::Not(inner) => Condition::Not(Arc::new(orient((*inner).clone()))),
            Condition::And(cs) => {
                Condition::And(Arc::new(cs.iter().cloned().map(orient).collect()))
            }
            Condition::Or(cs) => Condition::Or(Arc::new(cs.iter().cloned().map(orient).collect())),
            other => other,
        }
    }

    /// Set snapshot of a relation: terms plus canonicalized condition.
    /// Incremental maintenance may store rows in a different order than
    /// a from-scratch run (re-derived rows append at the end), so
    /// comparisons are set-based; canonicalization (plus symmetric-atom
    /// reorientation) washes the tree-shape differences the same
    /// condition can be built with.
    fn snapshot(rel: &Relation) -> BTreeSet<String> {
        rel.iter()
            .map(|t| {
                format!(
                    "{:?} | {:?}",
                    t.terms,
                    canonicalize(orient(canonicalize(t.cond.clone())))
                )
            })
            .collect()
    }

    /// Applies every delta through `apply` on a standing state AND
    /// through the §5 oracle (update + full re-eval), asserting the
    /// maintained tables match the re-evaluation after every step — at
    /// one and two delta partitions.
    fn check_differential(program_src: &str, db: &Database, deltas: Vec<Delta>, preds: &[&str]) {
        for shards in [1, 2] {
            let opts = EvalOptions {
                shards,
                ..EvalOptions::default()
            };
            check_differential_with(opts, program_src, db, None, deltas.clone(), preds);
        }
    }

    /// A delta `apply` rejects, and the check its error must pass.
    type Rejected = (Delta, fn(&EvalError) -> bool);

    /// Every relation name of the state's database and every table's
    /// rows, in stored order, with their condition ids.
    fn state_snapshot(state: &MaterializedState) -> (Vec<String>, BTreeMap<String, String>) {
        let names = state.database.relation_names().map(str::to_owned).collect();
        let tables = state
            .tables
            .iter()
            .map(|(p, t)| {
                let rows: Vec<_> = (0..t.len()).map(|i| (t.row(i), t.cond_id(i))).collect();
                (p.clone(), format!("{rows:?}"))
            })
            .collect();
        (names, tables)
    }

    /// [`check_differential`] at `opts`; with `rejected`, that delta is
    /// applied first, and its error must leave the state as it was.
    fn check_differential_with(
        opts: EvalOptions,
        program_src: &str,
        db: &Database,
        rejected: Option<Rejected>,
        deltas: Vec<Delta>,
        preds: &[&str],
    ) {
        let program = parse_program(program_src).unwrap();
        let prepared = Engine::with_options(opts).prepare(&program).unwrap();
        let mut state = prepared.materialize(db).unwrap();
        if let Some((bad, expected)) = rejected {
            let before = state_snapshot(&state);
            let err = prepared
                .apply(&mut state, bad)
                .expect_err("the delta is rejected");
            assert!(expected(&err), "{err:?}");
            assert!(state_snapshot(&state) == before, "a rejected delta wrote");
        }
        let mut oracle_db = db.clone();
        for (step, delta) in deltas.into_iter().enumerate() {
            let update_by_rel = {
                let mut m: Vec<(String, Update)> = Vec::new();
                for (rel, pat) in &delta.delete {
                    match m.iter_mut().find(|(r, _)| r == rel) {
                        Some((_, u)) => u.deletions.push(pat.clone()),
                        None => m.push((
                            rel.clone(),
                            Update {
                                relation: rel.clone(),
                                insertions: vec![],
                                deletions: vec![pat.clone()],
                            },
                        )),
                    }
                }
                for (rel, tuple) in &delta.insert {
                    let row: Vec<Const> = tuple
                        .terms
                        .iter()
                        .map(|t| t.as_const().unwrap().clone())
                        .collect();
                    match m.iter_mut().find(|(r, _)| r == rel) {
                        Some((_, u)) => u.insertions.push(row),
                        None => m.push((
                            rel.clone(),
                            Update {
                                relation: rel.clone(),
                                insertions: vec![row],
                                deletions: vec![],
                            },
                        )),
                    }
                }
                m
            };
            prepared.apply(&mut state, delta).unwrap();
            for (_, u) in &update_by_rel {
                crate::update::apply_to_database(u, &mut oracle_db).unwrap();
            }
            let full = prepared.run(&oracle_db).unwrap();
            for p in preds {
                let maintained = state
                    .relation(p)
                    .unwrap_or_else(|| panic!("predicate {p} missing from maintained state"));
                let reeval = full.relation(p).unwrap();
                assert_eq!(
                    snapshot(&maintained),
                    snapshot(reeval),
                    "step {step}: maintained `{p}` diverged from full re-eval under {opts:?}"
                );
            }
        }
    }

    fn chain_db(n: i64) -> Database {
        let mut db = Database::new();
        db.create_relation(Schema::new("E", &["a", "b"])).unwrap();
        for i in 1..n {
            db.insert("E", CTuple::new([Term::int(i), Term::int(i + 1)]))
                .unwrap();
        }
        db
    }

    const TC: &str = "R(a, b) :- E(a, b).\nR(a, b) :- E(a, c), R(c, b).\n";

    #[test]
    fn materialize_matches_run() {
        let db = chain_db(6);
        let program = parse_program(TC).unwrap();
        let prepared = Engine::new().prepare(&program).unwrap();
        let state = prepared.materialize(&db).unwrap();
        let full = prepared.run(&db).unwrap();
        assert_eq!(
            snapshot(&state.relation("R").unwrap()),
            snapshot(full.relation("R").unwrap())
        );
        assert_eq!(state.relation("R").unwrap().len(), 15);
    }

    #[test]
    fn insert_extends_transitive_closure() {
        let db = chain_db(4); // 1→2→3→4
        let mut d = Delta::new();
        d.push_insert_fact("E", [Const::Int(4), Const::Int(5)]);
        check_differential(TC, &db, vec![d], &["R", "E"]);
    }

    #[test]
    fn insert_report_counts_propagation() {
        let db = chain_db(4);
        let program = parse_program(TC).unwrap();
        let prepared = Engine::new().prepare(&program).unwrap();
        let mut state = prepared.materialize(&db).unwrap();
        let mut d = Delta::new();
        d.push_insert_fact("E", [Const::Int(4), Const::Int(5)]);
        let report = prepared.apply(&mut state, d).unwrap();
        assert_eq!(report.inserted, 1);
        assert_eq!(report.deleted, 0);
        assert_eq!(report.overdeleted, 0);
        // New paths: 4→5, 3→5, 2→5, 1→5.
        assert_eq!(report.rederived, 4);
        assert_eq!(report.strata_touched, 1);
        assert_eq!(state.relation("R").unwrap().len(), 10);
    }

    #[test]
    fn delete_shrinks_transitive_closure() {
        let db = chain_db(6);
        let mut d = Delta::new();
        d.push_delete_exact("E", [Const::Int(3), Const::Int(4)]);
        check_differential(TC, &db, vec![d], &["R", "E"]);
    }

    #[test]
    fn delete_on_cycle_rederives_surviving_paths() {
        let mut db = Database::new();
        db.create_relation(Schema::new("E", &["a", "b"])).unwrap();
        for (a, b) in [(1, 2), (2, 3), (3, 1), (2, 4), (4, 3)] {
            db.insert("E", CTuple::new([Term::int(a), Term::int(b)]))
                .unwrap();
        }
        let mut d = Delta::new();
        d.push_delete_exact("E", [Const::Int(2), Const::Int(3)]);
        // 2→3 survives via 2→4→3; the cycle must be re-derived, not lost.
        check_differential(TC, &db, vec![d], &["R"]);
    }

    #[test]
    fn delete_and_reinsert_of_one_tuple_leaves_it_standing() {
        // The withdrawn row is back in `E` by the time its old version
        // is overlaid for taint detection: the overlay finds it there
        // unchanged and must leave it there.
        let db = chain_db(5);
        let mut d = Delta::new();
        d.push_delete_exact("E", [Const::Int(2), Const::Int(3)]);
        d.push_insert_fact("E", [Const::Int(2), Const::Int(3)]);
        check_differential(TC, &db, vec![d], &["R", "E"]);
    }

    #[test]
    fn one_row_named_by_two_patterns_is_deleted_once() {
        let db = chain_db(5);
        let by_source = DeletePattern {
            cols: vec![Some(Const::Int(2)), None],
        };
        let by_target = DeletePattern {
            cols: vec![None, Some(Const::Int(3))],
        };
        // Both patterns match E(2, 3); with and without announcing it
        // again in the same delta.
        let mut d1 = Delta::new();
        d1.push_delete("E", by_source.clone());
        d1.push_delete("E", by_target.clone());
        d1.push_insert_fact("E", [Const::Int(2), Const::Int(3)]);
        let mut d2 = Delta::new();
        d2.push_delete("E", by_source);
        d2.push_delete("E", by_target);
        check_differential(TC, &db, vec![d1, d2], &["R", "E"]);
    }

    #[test]
    fn diamond_row_survives_a_withdraw_with_a_narrower_condition() {
        let mut db = Database::new();
        let x = db.fresh_cvar("x", Domain::Bool01);
        let y = db.fresh_cvar("y", Domain::Bool01);
        for name in ["A", "B", "Zed"] {
            db.create_relation(Schema::new(name, &["a"])).unwrap();
        }
        for (rel, var) in [("A", x), ("B", y)] {
            db.insert(
                rel,
                CTuple::with_cond([Term::int(1)], Condition::eq(Term::Var(var), Term::int(1))),
            )
            .unwrap();
        }
        db.insert("A", CTuple::new([Term::int(2)])).unwrap();
        // P(1) holds under x̄ = 1 ∨ ȳ = 1 and must come back as ȳ = 1.
        // S reads P from the stratum above: it sees the old P(1) overlaid
        // on the narrowed one, and P must be the narrowed one afterwards.
        let program = "P(a) :- A(a).\n\
                       P(a) :- B(a).\n\
                       Z(a) :- Zed(a).\n\
                       S(a) :- P(a), !Z(a).\n";
        let mut d1 = Delta::new();
        d1.push_delete_exact("A", [Const::Int(1)]);
        let mut d2 = Delta::new();
        d2.push_delete_exact("B", [Const::Int(1)]);
        check_differential(program, &db, vec![d1, d2], &["P", "S"]);
    }

    #[test]
    fn mutually_supporting_rows_are_not_resurrected() {
        let mut db = Database::new();
        db.create_relation(Schema::new("Src", &["a"])).unwrap();
        db.create_relation(Schema::new("Link", &["a", "b"]))
            .unwrap();
        db.insert("Src", CTuple::new([Term::int(1)])).unwrap();
        for (a, b) in [(1, 2), (2, 1), (3, 1)] {
            db.insert("Link", CTuple::new([Term::int(a), Term::int(b)]))
                .unwrap();
        }
        let program = "P(a) :- Src(a).\nP(a) :- Link(a, b), P(b).\n";
        // P(1) and P(2) derive each other through the Link cycle; once
        // Src(1) goes neither has support from outside it.
        let mut d1 = Delta::new();
        d1.push_delete_exact("Src", [Const::Int(1)]);
        let mut d2 = Delta::new();
        d2.push_insert_fact("Src", [Const::Int(2)]);
        // P(2) is over-deleted through the cycle and comes back from
        // Src(2); P(1) and P(3) do not.
        let mut d3 = Delta::new();
        d3.push_delete_exact("Link", [Const::Int(1), Const::Int(2)]);
        check_differential(program, &db, vec![d1, d2, d3], &["P"]);

        let prepared = Engine::new()
            .prepare(&parse_program(program).unwrap())
            .unwrap();
        let mut state = prepared.materialize(&db).unwrap();
        let mut d = Delta::new();
        d.push_delete_exact("Src", [Const::Int(1)]);
        let report = prepared.apply(&mut state, d).unwrap();
        assert_eq!((report.overdeleted, report.rederived), (3, 0));
        assert!(state.relation("P").unwrap().is_empty());
    }

    #[test]
    fn mixed_stream_of_deltas_stays_synchronized() {
        let db = chain_db(5);
        let mut d1 = Delta::new();
        d1.push_insert_fact("E", [Const::Int(5), Const::Int(1)]); // close the cycle
        let mut d2 = Delta::new();
        d2.push_delete_exact("E", [Const::Int(2), Const::Int(3)]);
        d2.push_insert_fact("E", [Const::Int(2), Const::Int(5)]);
        let mut d3 = Delta::new();
        d3.push_delete_exact("E", [Const::Int(5), Const::Int(1)]);
        check_differential(TC, &db, vec![d1, d2, d3], &["R", "E"]);
    }

    #[test]
    fn conditional_rows_propagate_and_retract() {
        let mut db = Database::new();
        let x = db.fresh_cvar("x", Domain::Bool01);
        db.create_relation(Schema::new("E", &["a", "b"])).unwrap();
        db.insert("E", CTuple::new([Term::int(1), Term::int(2)]))
            .unwrap();
        db.insert(
            "E",
            CTuple::with_cond(
                [Term::int(2), Term::int(3)],
                Condition::eq(Term::Var(x), Term::int(1)),
            ),
        )
        .unwrap();
        let mut d1 = Delta::new();
        d1.push_insert_fact("E", [Const::Int(3), Const::Int(4)]);
        // Pattern deletion hitting the c-variable row: weakens its
        // condition (Levy–Sagiv ψ ∧ ¬μ) instead of dropping it.
        let mut d2 = Delta::new();
        d2.push_delete(
            "E",
            DeletePattern {
                cols: vec![None, Some(Const::Int(3))],
            },
        );
        check_differential(TC, &db, vec![d1, d2], &["R", "E"]);
    }

    #[test]
    fn negation_over_changed_predicate_rederives_head() {
        let mut db = Database::new();
        db.create_relation(Schema::new("N", &["a"])).unwrap();
        db.create_relation(Schema::new("Block", &["a"])).unwrap();
        db.insert("N", CTuple::new([Term::int(1)])).unwrap();
        db.insert("N", CTuple::new([Term::int(2)])).unwrap();
        db.insert("Block", CTuple::new([Term::int(1)])).unwrap();
        let program = "Open(a) :- N(a), !Block(a).\n";
        // Unblocking 1 must *create* Open(1); blocking 2 must kill Open(2).
        let mut d1 = Delta::new();
        d1.push_delete_exact("Block", [Const::Int(1)]);
        let mut d2 = Delta::new();
        d2.push_insert_fact("Block", [Const::Int(2)]);
        check_differential(program, &db, vec![d1, d2], &["Open"]);
    }

    #[test]
    fn multi_stratum_propagation_crosses_negation() {
        let mut db = Database::new();
        db.create_relation(Schema::new("E", &["a", "b"])).unwrap();
        db.create_relation(Schema::new("V", &["a"])).unwrap();
        for (a, b) in [(1, 2), (2, 3)] {
            db.insert("E", CTuple::new([Term::int(a), Term::int(b)]))
                .unwrap();
        }
        for v in 1..=4 {
            db.insert("V", CTuple::new([Term::int(v)])).unwrap();
        }
        let program = "R(a, b) :- E(a, b).\n\
                       R(a, b) :- E(a, c), R(c, b).\n\
                       Reach(b) :- R(1, b).\n\
                       Unreach(a) :- V(a), !Reach(a).\n";
        let mut d1 = Delta::new();
        d1.push_insert_fact("E", [Const::Int(3), Const::Int(4)]);
        let mut d2 = Delta::new();
        d2.push_delete_exact("E", [Const::Int(1), Const::Int(2)]);
        check_differential(program, &db, vec![d1, d2], &["R", "Reach", "Unreach"]);
    }

    #[test]
    fn delta_on_derived_predicate_is_rejected() {
        let db = chain_db(4);
        let program = parse_program(TC).unwrap();
        let prepared = Engine::new().prepare(&program).unwrap();
        let mut state = prepared.materialize(&db).unwrap();
        let mut d = Delta::new();
        d.push_insert_fact("R", [Const::Int(9), Const::Int(9)]);
        assert!(matches!(
            prepared.apply(&mut state, d),
            Err(EvalError::InvalidDelta(_))
        ));
        let mut d = Delta::new();
        d.push_delete_exact("R", [Const::Int(1), Const::Int(2)]);
        assert!(matches!(
            prepared.apply(&mut state, d),
            Err(EvalError::InvalidDelta(_))
        ));
    }

    #[test]
    fn unconstrained_deletion_is_rejected() {
        let db = chain_db(4);
        let program = parse_program(TC).unwrap();
        let prepared = Engine::new().prepare(&program).unwrap();
        let mut state = prepared.materialize(&db).unwrap();
        let mut d = Delta::new();
        d.push_delete(
            "E",
            DeletePattern {
                cols: vec![None, None],
            },
        );
        assert!(matches!(
            prepared.apply(&mut state, d),
            Err(EvalError::InvalidDelta(_))
        ));
    }

    /// `R` is `E`'s closure, `S` reads `B` and `G`, which the database
    /// lacks (an insertion into it creates it).
    const GUARDED: &str = "R(a, b) :- E(a, b).\n\
                           R(a, b) :- E(a, c), R(c, b).\n\
                           S(a) :- B(a).\n\
                           S(a) :- G(a).\n";

    /// Each delta first withdraws `E(1, 2)`, which `R(1, 2)`, `R(1, 3)`
    /// and `R(1, 4)` rest on, then fails a check: `apply` must reject it
    /// before that first write, and a valid delta afterwards must still
    /// match batch.
    fn check_rejected(bad: impl FnOnce(&mut Delta), expected: fn(&EvalError) -> bool) {
        let mut db = chain_db(4);
        db.create_relation(Schema::new("B", &["a"])).unwrap();
        db.insert("B", CTuple::new([Term::int(1)])).unwrap();
        let mut delta = Delta::new();
        delta.push_delete_exact("E", [Const::Int(1), Const::Int(2)]);
        bad(&mut delta);
        let mut valid = Delta::new();
        valid.push_delete_exact("E", [Const::Int(2), Const::Int(3)]);
        valid.push_insert_fact("B", [Const::Int(2)]);
        for shards in [1, 2] {
            let opts = EvalOptions {
                shards,
                ..EvalOptions::default()
            };
            let rejected = Some((delta.clone(), expected));
            let preds = ["R", "S", "E", "B"];
            check_differential_with(opts, GUARDED, &db, rejected, vec![valid.clone()], &preds);
        }
    }

    fn invalid(e: &EvalError) -> bool {
        matches!(e, EvalError::InvalidDelta(_))
    }

    fn arity(e: &EvalError) -> bool {
        matches!(e, EvalError::ArityMismatch { .. })
    }

    #[test]
    fn a_deletion_from_a_derived_predicate_writes_nothing() {
        check_rejected(
            |d| d.push_delete_exact("R", [Const::Int(1), Const::Int(3)]),
            invalid,
        );
    }

    #[test]
    fn an_insertion_into_a_derived_predicate_writes_nothing() {
        check_rejected(
            |d| {
                d.push_insert_fact("E", [Const::Int(9), Const::Int(9)]);
                d.push_insert_fact("R", [Const::Int(9), Const::Int(9)]);
            },
            invalid,
        );
    }

    #[test]
    fn a_deletion_pattern_of_the_wrong_arity_writes_nothing() {
        check_rejected(
            |d| d.push_delete_exact("B", [Const::Int(1), Const::Int(2)]),
            arity,
        );
    }

    #[test]
    fn an_unconstrained_deletion_pattern_writes_nothing() {
        let pattern = DeletePattern { cols: vec![None] };
        check_rejected(|d| d.push_delete("B", pattern), invalid);
    }

    #[test]
    fn an_insertion_of_the_wrong_arity_writes_nothing() {
        // `G(7)` alone would create `G`: nothing is created either.
        check_rejected(
            |d| {
                d.push_insert_fact("G", [Const::Int(7)]);
                d.push_insert_fact("E", [Const::Int(1), Const::Int(2), Const::Int(3)]);
            },
            arity,
        );
    }

    /// The settle prune kills a changed row of `P`, and the swap-remove
    /// moves another changed row of `P` into its slot: the stratum above
    /// reads `P`'s pending rows by index, so they must follow the move.
    #[test]
    fn a_changed_row_the_prune_kills_moves_another_into_its_slot() {
        use faure_ctable::{CmpOp, LinExpr};
        let mut db = Database::new();
        let x = db.fresh_cvar("x", Domain::Bool01);
        let y = db.fresh_cvar("y", Domain::Bool01);
        db.create_relation(Schema::new("E", &["a"])).unwrap();
        db.create_relation(Schema::new("N", &["a"])).unwrap();
        db.insert("E", CTuple::new([Term::int(5)])).unwrap();
        let eq = |v, c| Condition::eq(Term::Var(v), Term::int(c));
        db.insert("E", CTuple::with_cond([Term::int(2)], eq(x, 1)))
            .unwrap();
        // `Q` negates the derived `M`, so it sits a stratum above `P`.
        let program = "P(a) :- E(a).\nM(a) :- N(a).\nQ(a) :- P(a), !M(a).\n";
        let prepared = Engine::new()
            .prepare(&parse_program(program).unwrap())
            .unwrap();
        let mut state = prepared.materialize(&db).unwrap();
        // `P(1)` lands in row 2 and dies in the prune (2ȳ = 3 has no
        // solution); `P(2)` gains a disjunct in row 1; `P(3)` lands in
        // row 3 and moves into row 2.
        let unsat = Condition::cmp(
            LinExpr::var(y).plus_var(1, y),
            CmpOp::Eq,
            LinExpr::constant(3),
        );
        let rows = [
            CTuple::with_cond([Term::int(1)], unsat),
            CTuple::with_cond([Term::int(2)], eq(y, 1)),
            CTuple::new([Term::int(3)]),
        ];
        let mut delta = Delta::new();
        for row in &rows {
            delta.push_insert("E", row.clone());
            db.insert("E", row.clone()).unwrap();
        }
        let report = prepared.apply(&mut state, delta).unwrap();
        let counts = (report.strata_touched, report.pruned, report.rederived);
        assert_eq!(counts, (2, 1, 5), "{report:?}");
        assert_eq!(state.tables["P"].find_row(&[Term::int(3)]), Some(2));
        let batch = prepared.run(&db).unwrap();
        for p in ["P", "Q"] {
            let maintained = snapshot(&state.relation(p).unwrap());
            assert_eq!(maintained, snapshot(batch.relation(p).unwrap()), "{p}");
        }
    }

    /// A rewritten row's old version carries the condition it had before
    /// the merge: `P(1)` widens from `x̄ = 0` to `x̄ = 0 ∨ x̄ = 1`, which
    /// the prune turns into `True`, so `P(1)` flows upward as
    /// delete-old + insert-new. Joined with `C(1)` under `x̄ = 1`, the old
    /// version `x̄ = 0` derives nothing, so `Q(1)` is not over-deleted.
    #[test]
    fn an_old_version_carries_its_condition_from_before_the_merge() {
        let mut db = Database::new();
        let x = db.fresh_cvar("x", Domain::Bool01);
        let eq = |c| Condition::eq(Term::Var(x), Term::int(c));
        for name in ["E", "C", "D", "N"] {
            db.create_relation(Schema::new(name, &["a"])).unwrap();
        }
        db.insert("E", CTuple::with_cond([Term::int(1)], eq(0)))
            .unwrap();
        db.insert("C", CTuple::with_cond([Term::int(1)], eq(1)))
            .unwrap();
        db.insert("D", CTuple::new([Term::int(1)])).unwrap();
        let program = "P(a) :- E(a).\n\
                       M(a) :- N(a).\n\
                       Q(a) :- P(a), C(a), !M(a).\n\
                       Q(a) :- D(a).\n";
        let prepared = Engine::new()
            .prepare(&parse_program(program).unwrap())
            .unwrap();
        let mut state = prepared.materialize(&db).unwrap();
        let widen = CTuple::with_cond([Term::int(1)], eq(1));
        let mut delta = Delta::new();
        delta.push_insert("E", widen.clone());
        db.insert("E", widen).unwrap();
        let report = prepared.apply(&mut state, delta).unwrap();
        let counts = (report.counting_strata, report.overdeleted, report.rederived);
        assert_eq!(counts, (1, 0, 1), "{report:?}");
        let batch = prepared.run(&db).unwrap();
        for p in ["P", "Q"] {
            let maintained = snapshot(&state.relation(p).unwrap());
            assert_eq!(maintained, snapshot(batch.relation(p).unwrap()), "{p}");
        }
    }

    /// A changed negated predicate makes its head's whole table the
    /// over-delete frontier; here the head is recursive, so the frontier
    /// is also what the rounds read.
    #[test]
    fn a_negated_heads_whole_table_is_the_frontier() {
        let mut db = chain_db(5);
        db.create_relation(Schema::new("Block", &["a"])).unwrap();
        let program = "R(a, b) :- E(a, b), !Block(a).\n\
                       R(a, b) :- R(a, c), E(c, b), !Block(c).\n";
        let mut block = Delta::new();
        block.push_insert_fact("Block", [Const::Int(3)]);
        let mut unblock = Delta::new();
        unblock.push_delete_exact("Block", [Const::Int(3)]);
        check_differential(program, &db, vec![block.clone(), unblock], &["R"]);

        let prepared = Engine::new()
            .prepare(&parse_program(program).unwrap())
            .unwrap();
        let mut state = prepared.materialize(&db).unwrap();
        let rows = state.tables["R"].len();
        let report = prepared.apply(&mut state, block).unwrap();
        assert_eq!((rows, report.overdeleted), (10, 10), "{report:?}");
        assert_eq!(report.rederive_strata, 1);
    }

    #[test]
    fn delta_on_unknown_relation_is_skipped() {
        let db = chain_db(4);
        let program = parse_program(TC).unwrap();
        let prepared = Engine::new().prepare(&program).unwrap();
        let mut state = prepared.materialize(&db).unwrap();
        let mut d = Delta::new();
        d.push_insert_fact("Nope", [Const::Int(1)]);
        d.push_delete_exact("Nope", [Const::Int(1)]);
        let report = prepared.apply(&mut state, d).unwrap();
        assert_eq!(report.inserted, 0);
        assert_eq!(report.deleted, 0);
    }

    /// A table holds the indexes the plans that ran probe, and no other:
    /// the reachability query probes `F` on `(f, n3)` and `R` on
    /// `(f, n1)`; an announce runs delta plans that probe the same; the
    /// first withdraw re-derives through the head-bound companion of
    /// `R(f, n1, n2) :- F(f, n1, n3), R(f, n3, n2)`, which probes `F` on
    /// `(f, n1)` and looks `R` up by its whole key. (That no delta
    /// table carries an index is asserted where every pass starts,
    /// `Pass::new`.)
    #[test]
    fn indexes_follow_plans() {
        let mut db = Database::new();
        db.create_relation(Schema::new("F", &["f", "n1", "n2"]))
            .unwrap();
        for (f, a, b) in [(1, 1, 2), (1, 2, 3), (1, 3, 4), (2, 1, 3), (2, 3, 4)] {
            db.insert("F", CTuple::new([Term::int(f), Term::int(a), Term::int(b)]))
                .unwrap();
        }
        let program = parse_program(
            "R(f, n1, n2) :- F(f, n1, n2).\n\
             R(f, n1, n2) :- F(f, n1, n3), R(f, n3, n2).\n",
        )
        .unwrap();
        let prepared = Engine::new().prepare(&program).unwrap();
        let mut state = prepared.materialize(&db).unwrap();
        let indexes = |state: &MaterializedState, pred: &str| -> Vec<Vec<usize>> {
            state.tables[pred]
                .indexed_columns()
                .map(<[usize]>::to_vec)
                .collect()
        };
        assert_eq!(indexes(&state, "F"), [vec![0, 2]]);
        assert_eq!(indexes(&state, "R"), [vec![0, 1]]);

        let mut announce = Delta::new();
        announce.push_insert_fact("F", [Const::Int(1), Const::Int(4), Const::Int(5)]);
        prepared.apply(&mut state, announce).unwrap();
        assert_eq!(indexes(&state, "F"), [vec![0, 2]]);
        assert_eq!(indexes(&state, "R"), [vec![0, 1]]);

        let mut withdraw = Delta::new();
        withdraw.push_delete_exact("F", [Const::Int(1), Const::Int(2), Const::Int(3)]);
        let report = prepared.apply(&mut state, withdraw).unwrap();
        assert!(report.overdeleted > 0, "{report:?}");
        assert_eq!(indexes(&state, "F"), [vec![0, 2], vec![0, 1]]);
        assert_eq!(indexes(&state, "R"), [vec![0, 1]]);
    }

    #[test]
    fn noop_delta_touches_nothing() {
        let db = chain_db(6);
        let program = parse_program(TC).unwrap();
        let prepared = Engine::new().prepare(&program).unwrap();
        let mut state = prepared.materialize(&db).unwrap();
        let before = snapshot(&state.relation("R").unwrap());
        // Re-inserting an existing fact changes nothing, so no stratum
        // should be touched at all.
        let mut d = Delta::new();
        d.push_insert_fact("E", [Const::Int(1), Const::Int(2)]);
        let report = prepared.apply(&mut state, d).unwrap();
        assert_eq!(report.inserted, 0);
        assert_eq!(report.strata_touched, 0);
        assert_eq!(report.rederived, 0);
        assert_eq!(before, snapshot(&state.relation("R").unwrap()));
    }

    #[test]
    fn from_update_roundtrips_order() {
        let u = Update {
            relation: "E".into(),
            insertions: vec![vec![Const::Int(7), Const::Int(8)]],
            deletions: vec![DeletePattern::exact([Const::Int(1), Const::Int(2)])],
        };
        let d = Delta::from_update(&u);
        assert_eq!(d.insert.len(), 1);
        assert_eq!(d.delete.len(), 1);
        let db = chain_db(5);
        check_differential(TC, &db, vec![d], &["R", "E"]);
    }

    #[test]
    fn incremental_is_bit_identical_across_thread_counts() {
        let db = chain_db(7);
        let program = parse_program(TC).unwrap();
        let mut snaps = Vec::new();
        for threads in [1usize, 2] {
            let engine = Engine::with_options(EvalOptions {
                threads,
                ..Default::default()
            });
            let prepared = engine.prepare(&program).unwrap();
            let mut state = prepared.materialize(&db).unwrap();
            let mut d = Delta::new();
            d.push_delete_exact("E", [Const::Int(4), Const::Int(5)]);
            d.push_insert_fact("E", [Const::Int(7), Const::Int(1)]);
            prepared.apply(&mut state, d).unwrap();
            snaps.push(snapshot(&state.relation("R").unwrap()));
        }
        assert_eq!(snaps[0], snaps[1]);
    }
}
