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
//!   through the shared [`PlanCache`]). No iteration-0 pass: standing
//!   rows already carry every old derivation, and the antichain
//!   condition representation absorbs the new disjuncts exactly —
//!   subsumed old disjuncts are evicted on merge, which is what a
//!   from-scratch run would have produced.
//! * **over-delete and re-derive** (deletions or negation involved) —
//!   suspect rows (head rows with a derivation reachable from a deleted
//!   or changed row, found by running the delta plans for taint
//!   detection against the *old* tables — the old versions of deleted
//!   rows overlaid on their tables for the duration, see
//!   [`Table::overlay`]) are removed wholesale; survivors are exact,
//!   because every one of their derivations avoided the changed rows.
//!   The loop is then seeded with the keys each head lost: iteration 0
//!   runs every rule's *head-bound* plan ([`head_bound_rules`]) — the
//!   rule restricted to those keys, every body literal a key-bound
//!   probe — so re-derivation costs what the lost rows' own derivations
//!   cost, and the keys that come back propagate as an ordinary append
//!   delta until the stratum is at its fixpoint. Removal itself
//!   ([`Table::remove_rows`], [`Table::delete_where`]) patches the
//!   indexes of the rows it takes. A withdraw therefore costs what it
//!   over-deleted, not what is materialized. The code is the same for
//!   every stratum; telemetry and [`DeltaReport`] label a non-recursive
//!   one `counting` (its over-delete frontier empties after one round,
//!   since no rule reads an in-stratum predicate) and a recursive one
//!   `rederive` (the frontier is chased to its transitive closure).
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
//! After a stratum settles (changed rows pruned through
//! [`Table::prune_rows`]), each changed row is *certified* before
//! flowing upward: a merged row whose condition is still the
//! minimal-DNF antichain representation and was left untouched by the
//! prune propagates as just its new disjuncts (the cheap path — upper
//! antichains self-correct by subsumption). Anything else — opaque
//! conditions, prune-simplified conditions, removed rows — propagates
//! as delete-old-version + insert-new-version, pushing the upper
//! stratum onto the DRed path. This is what keeps incremental results
//! bit-identical (rows and canonicalized conditions) to a full
//! re-evaluation.
//!
//! ## Scope
//!
//! Deltas may only touch *EDB-only* relations (not rule heads): a
//! predicate that is both fact-seeded and derived stores its facts
//! and derivations merged in one table, so a table-level delete would
//! diverge from the update oracle. [`EvalError::InvalidDelta`] rejects
//! such deltas explicitly.

use super::fixpoint::{self, timed_prune, Driver, Seed};
use super::rule::{DeltaRows, LeafMemo};
use super::{resolve_cvars, Ctx, EvalError, EvalOptions, EvalOutput, PreparedProgram, PrunePolicy};
use crate::analysis::Finding;
use crate::ast::{Literal, Rule};
use crate::plan::{head_bound_rules, PlanCache};
use crate::update::{DeletePattern, Update};
use faure_ctable::{CTuple, CVarId, Const, Database, Relation, Schema, Term};
use faure_solver::Session;
use faure_storage::table::Cell;
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
    /// The merge's [`Mark`] of every table it wrote (see
    /// [`Driver::marks`]).
    pub(super) marks: HashMap<String, Mark>,
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

/// One predicate's changes across one stratum's propagation.
pub(super) struct ChangeLog {
    /// Old row version at first sight this apply (`None` = the row did
    /// not exist), keyed by encoded terms. Captured *before* any merge.
    old: HashMap<Box<[Cell]>, Option<CTuple>>,
    /// Terms whose row actually changed (new row or new disjunct).
    dirty: BTreeSet<Vec<Term>>,
    /// The changed rows, carrying only their new disjuncts.
    new_disjuncts: Table,
}

/// The change tracker [`fixpoint::merge`] reports to, by predicate.
pub(super) type Changes = BTreeMap<String, ChangeLog>;

impl ChangeLog {
    /// Before `derived` is merged into `table`: captures the current
    /// version of every row the merge may touch, and returns the log the
    /// merge records its changed rows in.
    pub(super) fn observe<'c>(
        changes: &'c mut Changes,
        pred: &str,
        table: &Table,
        derived: &[Vec<PreparedRow>],
    ) -> &'c mut ChangeLog {
        let log = changes.entry(pred.to_owned()).or_insert_with(|| ChangeLog {
            old: HashMap::new(),
            dirty: BTreeSet::new(),
            new_disjuncts: Table::new(table.schema.clone()),
        });
        for prow in derived.iter().flatten() {
            if !log.old.contains_key(prow.cells()) {
                let old = table.find_row_cells(prow.cells()).map(|i| table.row(i));
                log.old.insert(prow.cells().into(), old);
            }
        }
        log
    }

    /// A row the merge changed (`insert_prepared` reuses the normalised
    /// condition).
    pub(super) fn record(&mut self, prow: &PreparedRow) {
        self.dirty.insert(prow.terms());
        self.new_disjuncts
            .insert_prepared(prow)
            .expect("rows of one predicate share its schema");
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
    pub fn apply(
        &self,
        state: &mut MaterializedState,
        delta: Delta,
    ) -> Result<DeltaReport, EvalError> {
        let tracer = state.tracer.clone();
        let t_delta = tracer.now_ns();
        let wall = Instant::now();
        let mut report = DeltaReport::default();

        let idb = &self.idb;

        // --- phase A: apply the delta to the EDB tables ---------------
        // Pending change sets flowing upward through the strata: new
        // disjuncts / new rows per predicate, and old versions of
        // removed or rewritten rows.
        let mut pend_ins: BTreeMap<String, Table> = BTreeMap::new();
        let mut pend_del: BTreeMap<String, Vec<CTuple>> = BTreeMap::new();

        for (rel_name, pattern) in &delta.delete {
            if idb.contains(rel_name) {
                return Err(EvalError::InvalidDelta(format!(
                    "cannot delete from `{rel_name}`: it is derived by rules \
                     (facts and derivations share one table)"
                )));
            }
            // Mirror `update::apply_to_database`: absent relation = no-op.
            if state.database.relation(rel_name).is_none() {
                continue;
            }
            let table = state
                .tables
                .get_mut(rel_name)
                .expect("every database relation has a table");
            if pattern.cols.len() != table.schema.arity() {
                return Err(EvalError::ArityMismatch {
                    pred: rel_name.clone(),
                    expected: table.schema.arity(),
                    got: pattern.cols.len(),
                });
            }
            if pattern.cols.iter().all(Option::is_none) {
                return Err(EvalError::InvalidDelta(format!(
                    "unconstrained deletion pattern on `{rel_name}`"
                )));
            }
            let eff = Arc::make_mut(table).delete_where(&pattern.cols);
            report.deleted += eff.removed.len() + eff.weakened.len();
            if !eff.is_empty() {
                let e = pend_del.entry(rel_name.clone()).or_default();
                e.extend(eff.removed);
                e.extend(eff.weakened);
            }
        }
        for (rel_name, tuple) in &delta.insert {
            if idb.contains(rel_name) {
                return Err(EvalError::InvalidDelta(format!(
                    "cannot insert into `{rel_name}`: it is derived by rules \
                     (facts and derivations share one table)"
                )));
            }
            // Every relation the program mentions has a table; one the
            // database lacks is created with the table's schema.
            let Some(table) = state.tables.get_mut(rel_name) else {
                continue;
            };
            if state.database.relation(rel_name).is_none() {
                state
                    .database
                    .create_relation(table.schema.clone())
                    .expect("the relation was checked absent");
            }
            let prow = PreparedRow::from_tuple(tuple);
            let old = table.find_row_cells(prow.cells()).map(|i| table.row(i));
            if let Some(idx) = Arc::make_mut(table).insert_prepared(&prow)? {
                report.inserted += 1;
                let schema = table.schema.clone();
                match old {
                    // Merged into an antichain: the tuple's own
                    // condition is exactly the new disjunct set.
                    Some(_) if table.has_sets_repr(idx) => {
                        push_ins(&mut pend_ins, rel_name, &schema, tuple.clone());
                    }
                    // Opaque merge: propagate delete-old + insert-new.
                    Some(old_row) => {
                        pend_del.entry(rel_name.clone()).or_default().push(old_row);
                        push_ins(&mut pend_ins, rel_name, &schema, table.row(idx));
                    }
                    // New row: its stored (normalised) version.
                    None => push_ins(&mut pend_ins, rel_name, &schema, table.row(idx)),
                }
            }
        }

        // --- incremental path -----------------------------------------
        let mut changed_preds: BTreeSet<String> =
            pend_ins.keys().chain(pend_del.keys()).cloned().collect();

        let leaves = LeafMemo::default();
        let head_bound = self
            .head_bound
            .get_or_init(|| head_bound_rules(&self.program));
        let mut d = self.driver(state, &leaves, head_bound);

        for (si, stratum) in self.strat.strata.iter().enumerate() {
            let rules = self.rules_of(stratum);
            let reads_changed = rules.iter().any(|(_, r)| {
                r.body
                    .iter()
                    .any(|l| changed_preds.contains(l.atom().pred.as_str()))
            });
            if !reads_changed {
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
            if let Some(reason) = order_hazard(&rules, d.tables, &pend_del) {
                report.rederive_strata += 1;
                let changed_rows = recompute_stratum(
                    &mut d,
                    si,
                    &rules,
                    &mut report,
                    &mut pend_ins,
                    &mut pend_del,
                    &mut changed_preds,
                )?;
                super::publish::publish_maintain_stratum("recompute", Some(reason), changed_rows);
                tracer.emit_span("maintain", "stratum", t_stratum, 0, || {
                    vec![
                        ("stratum", si.into()),
                        ("mode", "recompute".into()),
                        ("reason", reason.into()),
                        ("changed", changed_rows.into()),
                    ]
                });
                continue;
            }

            let del_relevant = rules.iter().any(|(_, r)| {
                r.body
                    .iter()
                    .any(|l| !l.is_negative() && pend_del.contains_key(l.atom().pred.as_str()))
            });
            let neg_involved = rules.iter().any(|(_, r)| {
                r.body
                    .iter()
                    .any(|l| l.is_negative() && changed_preds.contains(l.atom().pred.as_str()))
            });

            let mut changes = Changes::new();
            let mut removed_old: BTreeMap<String, Vec<CTuple>> = BTreeMap::new();

            let mode;
            let mut seed = Seed::default();
            // The initial propagation delta: pending insertions on
            // every predicate some rule reads positively.
            for (_, rule) in &rules {
                for lit in &rule.body {
                    if lit.is_negative() {
                        continue;
                    }
                    let p = lit.atom().pred.as_str();
                    if !seed.pending.contains_key(p) {
                        if let Some(t) = pend_ins.get(p) {
                            seed.pending.insert(p.to_owned(), t.clone());
                        }
                    }
                }
            }
            // The open `maintain/rederive` span: start and round count.
            let mut rederive_span = None;
            if del_relevant || neg_involved {
                if self.maint.recursive_strata[si] {
                    mode = "rederive";
                    report.rederive_strata += 1;
                } else {
                    mode = "counting";
                    report.counting_strata += 1;
                }
                let t_od = tracer.now_ns();

                // 1. Suspects: rows of negation-affected heads, plus
                // everything derivation-reachable from deleted rows.
                let mut suspects: BTreeMap<String, BTreeSet<usize>> = BTreeMap::new();
                let mut frontier: HashMap<String, Table> = HashMap::new();
                for (_, rule) in &rules {
                    let negated = rule
                        .body
                        .iter()
                        .any(|l| l.is_negative() && changed_preds.contains(l.atom().pred.as_str()));
                    if negated {
                        let h = rule.head.pred.as_str();
                        // Negation can also *unlock* brand-new rows, so
                        // these rules always re-run their full plans.
                        seed.full.insert(h.to_owned());
                        let ht = d.tables.get(h).expect("table created in setup");
                        let set = suspects.entry(h.to_owned()).or_default();
                        let f = frontier
                            .entry(h.to_owned())
                            .or_insert_with(|| Table::new(ht.schema.clone()));
                        for i in 0..ht.len() {
                            if set.insert(i) {
                                f.insert(ht.row(i)).expect("same schema");
                            }
                        }
                    }
                }
                for (p, old_rows) in &pend_del {
                    let read = rules.iter().any(|(_, r)| {
                        r.body
                            .iter()
                            .any(|l| !l.is_negative() && l.atom().pred.as_str() == p.as_str())
                    });
                    if !read {
                        continue;
                    }
                    let t = d.tables.get(p.as_str()).expect("table exists");
                    let schema = t.schema.clone();
                    let f = frontier
                        .entry(p.clone())
                        .or_insert_with(|| Table::new(schema));
                    for row in old_rows {
                        f.insert(row.clone()).expect("old rows match their schema");
                    }
                }

                // 2. Over-delete rounds: taint detection by terms, run
                // against the *old* (pre-removal) tables. Deleted rows
                // were already removed or rewritten in their tables, but
                // a derivation can use the same deleted row at *two*
                // join positions (only one of which is the delta slot),
                // so the old versions are overlaid on their tables for
                // the rounds and taken off again — whether or not the
                // rounds succeed, and leaving each table exactly as it
                // was (see [`Table::overlay`]).
                let mut overlays = Vec::new();
                for (p, old_rows) in &pend_del {
                    if frontier.contains_key(p) {
                        let t = d.tables.get_mut(p.as_str()).expect("table exists");
                        let overlay = Arc::make_mut(t)
                            .overlay(old_rows)
                            .expect("old rows match their schema");
                        overlays.push((p.as_str(), overlay));
                    }
                }
                let rounds = over_delete(&mut d, &rules, frontier, &mut suspects);
                for (p, overlay) in overlays {
                    let t = d.tables.get_mut(p).expect("table exists");
                    Arc::make_mut(t).remove_overlay(overlay);
                }
                rederive_span = Some((t_od, rounds?));

                // 3. Physically remove every suspect. The keys a head
                // lost are what its head-bound plans re-derive.
                for (p, idxs) in &suspects {
                    if idxs.is_empty() {
                        continue;
                    }
                    let t = Arc::make_mut(d.tables.get_mut(p.as_str()).expect("table exists"));
                    let sorted: Vec<usize> = idxs.iter().copied().collect();
                    let old_rows = t.remove_rows(&sorted);
                    report.overdeleted += old_rows.len();
                    if !seed.full.contains(p) {
                        let mut keys = Table::new(t.schema.clone());
                        for row in &old_rows {
                            keys.insert(CTuple::new(row.terms.iter().cloned()))
                                .expect("same schema");
                        }
                        seed.lost.insert(p.clone(), keys);
                    }
                    removed_old.insert(p.clone(), old_rows);
                }
            } else {
                mode = "append";
            }

            // 4. Propagate to fixpoint, in place: the seed's iteration 0
            // (lost keys through head-bound plans, negation-affected
            // heads in full), then delta passes pinned to every changed
            // body position — one partition, tracked.
            fixpoint::semi_naive(&mut d, &rules, Some(&seed), 1, Some(&mut changes))?;
            if let Some((t_od, rounds)) = rederive_span {
                let overdeleted = report.overdeleted;
                tracer.emit_span("maintain", "rederive", t_od, 0, || {
                    let keys: usize = seed.lost.values().map(Table::len).sum();
                    let rederived: usize = seed
                        .lost
                        .iter()
                        .map(|(p, keys)| {
                            let t = d.tables.get(p).expect("table exists");
                            keys.iter()
                                .filter(|key| t.find_row(&key.terms).is_some())
                                .count()
                        })
                        .sum();
                    vec![
                        ("stratum", si.into()),
                        ("rounds", rounds.into()),
                        ("overdeleted", overdeleted.into()),
                        ("keys", keys.into()),
                        ("rederived", rederived.into()),
                    ]
                });
            }

            // 5. Settle: prune changed rows, certify, and queue the
            // upward change sets.
            settle_stratum(
                &mut d,
                &mut report,
                &changes,
                &removed_old,
                &mut pend_ins,
                &mut pend_del,
                &mut changed_preds,
            )?;

            let changed_rows: usize = changes.values().map(|l| l.dirty.len()).sum();
            super::publish::publish_maintain_stratum(mode, None, changed_rows);
            tracer.emit_span("maintain", "stratum", t_stratum, 0, || {
                vec![
                    ("stratum", si.into()),
                    ("mode", mode.into()),
                    ("changed", changed_rows.into()),
                ]
            });
        }

        let Driver { stats, .. } = d;
        finalize_apply(self, state, stats, &mut report, wall);
        let (ins, del, od, rd) = (
            report.inserted,
            report.deleted,
            report.overdeleted,
            report.rederived,
        );
        let wall_ns = u64::try_from(report.wall.as_nanos()).unwrap_or(u64::MAX);
        super::publish::publish_apply(&report, false);
        tracer.emit_span("maintain", "delta", t_delta, 0, || {
            vec![
                ("inserted", ins.into()),
                ("deleted", del.into()),
                ("overdeleted", od.into()),
                ("rederived", rd.into()),
                ("wall_ns", wall_ns.into()),
            ]
        });
        Ok(report)
    }
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
        fixpoint::semi_naive(d, rules, None, d.opts.shards, None)?;
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

/// The over-delete rounds of one stratum: runs the delta plans over the
/// `frontier` (deleted and tainted rows) until no new head row is
/// reached, collecting the row indices reached in `suspects`. Returns
/// the number of rounds. Taint is decided by terms: like every rule
/// pass, the rounds never ask the solver.
fn over_delete(
    d: &mut Driver<'_>,
    rules: &[(usize, &Rule)],
    mut frontier: HashMap<String, Table>,
    suspects: &mut BTreeMap<String, BTreeSet<usize>>,
) -> Result<usize, EvalError> {
    let positions = d.ctx.delta_positions;
    let mut rounds = 0usize;
    while !frontier.is_empty() {
        rounds += 1;
        if rounds > d.opts.max_iterations {
            return Err(EvalError::IterationLimit {
                limit: d.opts.max_iterations,
            });
        }
        let mut next: HashMap<String, Table> = HashMap::new();
        for &(ri, rule) in rules {
            for &pos in &positions[ri] {
                let p = rule.body[pos].atom().pred.as_str();
                let Some(f) = frontier.get(p).filter(|f| !f.is_empty()) else {
                    continue;
                };
                let derived = d.pass(ri, rule, Some((pos, DeltaRows::Table(f))))?;
                let h = rule.head.pred.as_str();
                let ht = d.tables.get(h).expect("table created in setup");
                let set = suspects.entry(h.to_owned()).or_default();
                for prow in derived.iter().flatten() {
                    if let Some(idx) = ht.find_row_cells(prow.cells()) {
                        if set.insert(idx) {
                            next.entry(h.to_owned())
                                .or_insert_with(|| Table::new(ht.schema.clone()))
                                .insert(ht.row(idx))
                                .expect("same schema");
                        }
                    }
                }
            }
        }
        frontier = next;
    }
    Ok(rounds)
}

/// Maintenance fallback for order-sensitive strata: drains the head
/// tables, re-runs the batch stratum loop on the (already updated)
/// inputs, and diffs old against new to queue the upward change sets.
/// Inputs are bit-identical to what a from-scratch batch run would see
/// at this stratum, so the recomputed tables are too. Returns the
/// number of rows that differ.
fn recompute_stratum(
    d: &mut Driver<'_>,
    si: usize,
    rules: &[(usize, &Rule)],
    report: &mut DeltaReport,
    pend_ins: &mut BTreeMap<String, Table>,
    pend_del: &mut BTreeMap<String, Vec<CTuple>>,
    changed_preds: &mut BTreeSet<String>,
) -> Result<usize, EvalError> {
    let head_preds: BTreeSet<&str> = rules.iter().map(|(_, r)| r.head.pred.as_str()).collect();
    let mut old: BTreeMap<String, Arc<Table>> = BTreeMap::new();
    for p in &head_preds {
        let t = d.tables.get_mut(*p).expect("table created in setup");
        let empty = Arc::new(Table::new(t.schema.clone()));
        old.insert((*p).to_owned(), std::mem::replace(t, empty));
    }
    run_one_stratum(d, si, rules)?;

    let mut changed_rows = 0usize;
    for (p, old_t) in &old {
        let new_t = d.tables.get(p.as_str()).expect("table created in setup");
        let schema = new_t.schema.clone();
        report.rederived += new_t.len();
        let mut ins: Vec<CTuple> = Vec::new();
        let mut del: Vec<CTuple> = Vec::new();
        for i in 0..old_t.len() {
            let row = old_t.row(i);
            match new_t.find_row(&row.terms) {
                // Unchanged: pooled ids are hash-consed, so equal ids
                // mean equal conditions.
                Some(j) if new_t.cond_id(j) == old_t.cond_id(i) => {}
                Some(j) => {
                    del.push(row);
                    ins.push(new_t.row(j));
                }
                None => {
                    report.overdeleted += 1;
                    del.push(row);
                }
            }
        }
        for j in 0..new_t.len() {
            let row = new_t.row(j);
            if old_t.find_row(&row.terms).is_none() {
                ins.push(row);
            }
        }
        changed_rows += ins.len() + del.len();
        if !ins.is_empty() || !del.is_empty() {
            changed_preds.insert(p.clone());
        }
        for row in ins {
            push_ins(pend_ins, p, &schema, row);
        }
        if !del.is_empty() {
            pend_del.entry(p.clone()).or_default().extend(del);
        }
    }
    Ok(changed_rows)
}

/// Appends a row to a pending-insertion table, creating it on demand.
fn push_ins(pend_ins: &mut BTreeMap<String, Table>, pred: &str, schema: &Schema, row: CTuple) {
    pend_ins
        .entry(pred.to_owned())
        .or_insert_with(|| Table::new(schema.clone()))
        .insert(row)
        .expect("pending rows match their table's schema");
}

/// End-of-stratum settlement: prune the changed rows, then certify
/// each one and queue the upward change sets (see the module docs).
fn settle_stratum(
    d: &mut Driver<'_>,
    report: &mut DeltaReport,
    changes: &Changes,
    removed_old: &BTreeMap<String, Vec<CTuple>>,
    pend_ins: &mut BTreeMap<String, Table>,
    pend_del: &mut BTreeMap<String, Vec<CTuple>>,
    changed_preds: &mut BTreeSet<String>,
) -> Result<(), EvalError> {
    // Old versions of removed rows always flow upward as deletions
    // (re-derived replacements flow as insertions below).
    for (p, old_rows) in removed_old {
        if old_rows.is_empty() {
            continue;
        }
        pend_del
            .entry(p.clone())
            .or_default()
            .extend(old_rows.iter().cloned());
        changed_preds.insert(p.clone());
    }

    for (p, log) in changes {
        if log.dirty.is_empty() {
            continue;
        }
        report.rederived += log.dirty.len();
        let table = d
            .tables
            .get_mut(p.as_str())
            .expect("table created in setup");
        let table = Arc::make_mut(table);
        let schema = table.schema.clone();

        // Pre-prune condition ids per changed row: certification
        // requires the prune to have left the condition untouched.
        let mut pre_ids: HashMap<&Vec<Term>, faure_ctable::CondId> = HashMap::new();
        let mut idxs: Vec<usize> = Vec::with_capacity(log.dirty.len());
        for terms in &log.dirty {
            if let Some(idx) = table.find_row(terms) {
                pre_ids.insert(terms, table.cond_id(idx));
                idxs.push(idx);
            }
        }
        if d.opts.prune == PrunePolicy::EndOfStratum && !idxs.is_empty() {
            let removed = timed_prune(
                &d.ctx,
                d.session,
                &mut d.stats,
                p,
                idxs.len(),
                |reg, session| table.prune_rows(reg, session, &idxs),
            )?;
            d.stats.pruned += removed;
            report.pruned += removed;
        }

        let mut cells: Vec<Cell> = Vec::new();
        for terms in &log.dirty {
            cells.clear();
            cells.extend(terms.iter().map(Cell::encode));
            let old = log.old.get(cells.as_slice()).cloned().flatten();
            match table.find_row(terms) {
                None => {
                    // Died (pruned away). If it existed before this
                    // apply, upper strata must forget its old version.
                    if let Some(old_row) = old {
                        pend_del.entry(p.clone()).or_default().push(old_row);
                        changed_preds.insert(p.clone());
                    }
                }
                Some(idx) => {
                    changed_preds.insert(p.clone());
                    match old {
                        None => {
                            // New row: final (pruned) version upward.
                            push_ins(pend_ins, p, &schema, table.row(idx));
                        }
                        Some(old_row) => {
                            let certified = table.has_sets_repr(idx)
                                && pre_ids.get(terms).copied() == Some(table.cond_id(idx));
                            if certified {
                                // Pure antichain append: only the new
                                // disjuncts travel upward.
                                let new = &log.new_disjuncts;
                                let idx = new.find_row(terms).expect("recorded with `dirty`");
                                push_ins(pend_ins, p, &schema, new.row(idx));
                            } else {
                                pend_del.entry(p.clone()).or_default().push(old_row);
                                push_ins(pend_ins, p, &schema, table.row(idx));
                            }
                        }
                    }
                }
            }
        }
    }
    Ok(())
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
            check_differential_with(opts, program_src, db, deltas.clone(), preds);
        }
    }

    fn check_differential_with(
        opts: EvalOptions,
        program_src: &str,
        db: &Database,
        deltas: Vec<Delta>,
        preds: &[&str],
    ) {
        let program = parse_program(program_src).unwrap();
        let prepared = Engine::with_options(opts).prepare(&program).unwrap();
        let mut state = prepared.materialize(db).unwrap();
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
