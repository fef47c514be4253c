//! The fauré-log evaluation engine: reusable prepared programs and
//! (optionally parallel) stratified fixpoint execution.
//!
//! Evaluation is an explicit two-step lifecycle:
//!
//! 1. [`Engine::prepare`] runs everything that depends only on the
//!    *program* — safety checking, stratification, and compilation of
//!    every [`RulePlan`](crate::plan::RulePlan) semi-naive evaluation
//!    will request (the full
//!    plan per rule plus one delta plan per stratum-recursive body
//!    literal). The result is a [`PreparedProgram`].
//! 2. [`PreparedProgram::run`] executes the prepared program against a
//!    [`Database`]. Repeated queries over changing databases — the
//!    paper's network-monitoring loop — skip analysis and planning
//!    entirely: every plan lookup during a run is a cache hit.
//!
//! The one-shot [`evaluate`] / [`evaluate_with`] entry points are
//! prepare-then-run in one call.
//!
//! ## Layout
//!
//! * [`mod@self`] — options, errors, the prepare/run lifecycle;
//! * [`fixpoint`] (private) — the one semi-naive stratum loop every
//!   evaluation runs (batch, sharded, incremental), its merge, and the
//!   naive reference loop;
//! * [`shard`] (private) — what more than one delta partition adds to
//!   that loop: the key lookup and the one-worker-per-partition pass;
//! * [`maintain`] (private) — materialized state, batch evaluation as
//!   the first apply, and incremental [`Delta`] propagation;
//! * [`rule`] (private) — compiled-plan execution: the c-valuation as
//!   one join step over a shared `Pass` and a per-thread `Frame`,
//!   comparison pushdown, negation, head instantiation;
//! * [`parallel`] (private) — the data-parallel inner loop (see below);
//! * [`publish`] (private) — the bridge from per-run statistics to the
//!   process-global telemetry registry.
//!
//! ## Parallel fixpoint execution
//!
//! With [`EvalOptions::threads`] > 1, each rule pass cuts the matches
//! of its first join step into fine contiguous chunks which
//! `std::thread::scope` workers pull from a shared atomic cursor (work
//! stealing — see [`parallel`]), when there are enough matches to pay
//! for the threads. Each worker owns a frame — substitution, condition
//! accumulator, operator counters, derived rows — and runs the serial
//! path's join step over it. Worker outputs are replayed in chunk index
//! order through [`faure_storage::Table::absorb_partitions`] — the
//! insert sequence equals the serial enumeration order, so parallel
//! results (conditions included) are **bit-identical** to a serial run.
//!
//! ## The solver has one caller
//!
//! The paper's pipeline is data, condition, then one solver pass that
//! deletes contradictory rows. Here that pass is the end-of-stratum
//! prune ([`PrunePolicy::EndOfStratum`]; incrementally, the settle
//! prune over the changed rows): [`faure_storage::Table::prune`] asks
//! the solver once per distinct condition, on the driver thread, through
//! the driver's one [`faure_solver::Session`]. No rule pass reaches the
//! solver, so no worker — parallel chunk or shard — has a session, and
//! under [`PrunePolicy::Never`] a run's solver statistics are all zero.
//!
//! ## Cross-run memo reuse
//!
//! A [`PreparedProgram`] pools the driver session's [`SharedMemo`] across
//! `run()` calls. The memo is keyed by the c-variable registry's
//! structural fingerprint (count + per-variable name/domain): batch
//! evaluation over databases that share a registry shape — the
//! network-monitoring loop re-checking snapshots — starts every run
//! with the previous runs' solver verdicts warm, surfaced as
//! `cross_run_hits` in [`faure_solver::SolverStats`]. A database whose
//! registry signature differs invalidates the pooled memo instead of
//! serving stale verdicts.
//!
//! ## Input relations are loaded once
//!
//! Every input relation of a [`Database`] has a columnar twin
//! ([`faure_storage::Table::twin`]): an immutable `Arc<Table>` kept in
//! the database, built by the first run that reads the relation and
//! carrying the probe indexes that run's prepared plans ask for. Later
//! runs — of the same program or another — borrow it and encode no row;
//! a program probing a column set the twin lacks extends a copy once.
//! Evaluation tables are `Arc<Table>`s and every write goes through
//! `Arc::make_mut`, so the first write to a borrowed twin (a head that
//! also has input facts, an `apply` to a standing state whose caller
//! still holds the database) writes to a private copy; the caller's
//! database never changes. Any `&mut` access to a relation drops its
//! twin.

mod fixpoint;
mod maintain;
mod parallel;
mod publish;
mod rule;
mod shard;

pub use maintain::{Delta, DeltaReport, MaterializedState};
pub use publish::Applies;
pub use rule::canonicalize;

use crate::analysis::{check_safety, stratify, AnalysisError, Stratification};
use crate::ast::{Program, Rule};
use crate::plan::{maintenance_meta, MaintenanceMeta, PlanCache, ShardPlan};
use faure_ctable::{CVarId, CVarRegistry, Database, Domain, Relation};
use faure_solver::{SharedMemo, SolverError};
use faure_storage::{ArityError, PhaseStats};
use faure_trace::Tracer;
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::sync::{Arc, Mutex, OnceLock};

/// When the solver phase (the paper's "Z3 step") runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PrunePolicy {
    /// Never call the solver; rows may carry contradictory conditions.
    Never,
    /// Prune each derived relation once its stratum converges
    /// (default; matches the paper's batch use of Z3).
    EndOfStratum,
}

/// Evaluation options.
#[derive(Clone, Copy, Debug)]
pub struct EvalOptions {
    /// Solver phase policy.
    pub prune: PrunePolicy,
    /// Semi-naive (true, default) or naive (false) fixpoint — the
    /// latter exists for the ablation benchmark.
    pub semi_naive: bool,
    /// Safety valve on fixpoint iterations per stratum.
    pub max_iterations: usize,
    /// Worker threads for rule evaluation. `1` (the default) runs
    /// serially; larger values partition each rule pass that has
    /// enough depth-0 matches to pay for them across
    /// `std::thread::scope` workers. Results are bit-identical to the
    /// serial run at any thread count. Defaults to the `FAURE_THREADS`
    /// environment variable when set.
    pub threads: usize,
    /// Delta partitions of the semi-naive fixpoint. `1` (the default)
    /// runs every delta pass inline on the driver; larger values
    /// partition each stratum's delta on the [`ShardPlan`] key and run
    /// the delta passes on one worker thread per partition, exchanging
    /// cross-shard rows through bounded channels at iteration barriers.
    /// Derived rows and canonicalized conditions are identical to the
    /// one-partition run at any shard count. Defaults to the
    /// `FAURE_SHARDS` environment variable when set.
    pub shards: usize,
}

impl Default for EvalOptions {
    fn default() -> Self {
        EvalOptions {
            prune: PrunePolicy::EndOfStratum,
            semi_naive: true,
            max_iterations: 100_000,
            threads: parse_threads(std::env::var("FAURE_THREADS").ok().as_deref()),
            shards: parse_threads(std::env::var("FAURE_SHARDS").ok().as_deref()),
        }
    }
}

/// Parses a `FAURE_THREADS` / `FAURE_SHARDS`-style value; anything
/// absent, unparsable, or zero means "serial" / "unsharded".
fn parse_threads(var: Option<&str>) -> usize {
    var.and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(1)
}

/// Evaluation errors.
#[derive(Debug)]
pub enum EvalError {
    /// Static analysis rejected the program.
    Analysis(AnalysisError),
    /// The solver rejected a condition (outside supported fragment or
    /// budget exceeded).
    Solver(SolverError),
    /// An atom's arity disagrees with its relation.
    ArityMismatch {
        /// Predicate name.
        pred: String,
        /// Arity in the database / earlier use.
        expected: usize,
        /// Arity at this use.
        got: usize,
    },
    /// The fixpoint did not converge within `max_iterations`.
    IterationLimit {
        /// The configured limit.
        limit: usize,
    },
    /// A rule variable was unbound when needed (safety should prevent
    /// this; kept as a defensive error).
    UnboundVariable(String),
    /// A [`Delta`] was rejected by incremental maintenance: it targets
    /// a derived predicate, or carries an unconstrained deletion.
    InvalidDelta(String),
    /// A `--shard-key` override names an unknown predicate or a column
    /// outside its arity.
    InvalidShardKey(String),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::Analysis(e) => write!(f, "{e}"),
            EvalError::Solver(e) => write!(f, "{e}"),
            EvalError::ArityMismatch {
                pred,
                expected,
                got,
            } => write!(
                f,
                "predicate {pred} used with arity {got}, expected {expected}"
            ),
            EvalError::IterationLimit { limit } => {
                write!(f, "fixpoint did not converge within {limit} iterations")
            }
            EvalError::UnboundVariable(v) => write!(f, "unbound rule variable `{v}`"),
            EvalError::InvalidDelta(msg) => write!(f, "invalid delta: {msg}"),
            EvalError::InvalidShardKey(msg) => write!(f, "invalid shard key: {msg}"),
        }
    }
}

impl std::error::Error for EvalError {}

impl From<AnalysisError> for EvalError {
    fn from(e: AnalysisError) -> Self {
        EvalError::Analysis(e)
    }
}

impl From<SolverError> for EvalError {
    fn from(e: SolverError) -> Self {
        EvalError::Solver(e)
    }
}

impl From<ArityError> for EvalError {
    fn from(e: ArityError) -> Self {
        EvalError::ArityMismatch {
            pred: e.table,
            expected: e.expected,
            got: e.got,
        }
    }
}

/// Result of evaluating a program.
pub struct EvalOutput {
    /// The input database extended with all derived relations (and any
    /// c-variables auto-registered during resolution).
    pub database: Database,
    /// Per-phase statistics (the paper's `sql` / `Z3` / `#tuples`
    /// columns).
    pub stats: PhaseStats,
    /// Lint warnings from the pre-evaluation analysis pass (dead
    /// rules, shadowed inputs, singleton variables, …). Warnings never
    /// change evaluation results; callers may surface or ignore them.
    pub warnings: Vec<crate::analysis::Finding>,
}

impl EvalOutput {
    /// A derived (or input) relation by name.
    pub fn relation(&self, name: &str) -> Option<&Relation> {
        self.database.relation(name)
    }

    /// Whether the 0-ary predicate `name` (e.g. `panic`) was derived
    /// with a satisfiable condition. Requires the evaluation to have
    /// run with a pruning policy other than `Never`, or the caller can
    /// inspect conditions directly.
    pub fn derived(&self, name: &str) -> bool {
        self.relation(name).is_some_and(|r| !r.is_empty())
    }
}

/// The evaluation engine: a factory for [`PreparedProgram`]s.
///
/// The engine itself only holds the default [`EvalOptions`] its
/// prepared programs run with; preparation is per-program.
#[derive(Clone, Copy, Debug, Default)]
pub struct Engine {
    opts: EvalOptions,
}

impl Engine {
    /// An engine with default options.
    pub fn new() -> Self {
        Self::default()
    }

    /// An engine with explicit options.
    pub fn with_options(opts: EvalOptions) -> Self {
        Engine { opts }
    }

    /// The engine's options.
    pub fn options(&self) -> &EvalOptions {
        &self.opts
    }

    /// Runs the program-only analyses (safety, stratification) and
    /// compiles every rule plan semi-naive evaluation will request,
    /// yielding a [`PreparedProgram`] that can be
    /// [run](PreparedProgram::run) against many databases.
    pub fn prepare(&self, program: &Program) -> Result<PreparedProgram, EvalError> {
        self.prepare_traced(program, &Tracer::disabled())
    }

    /// [`prepare`](Engine::prepare) with the analysis and planning
    /// phases recorded as `prepare` spans on `tracer`.
    pub fn prepare_traced(
        &self,
        program: &Program,
        tracer: &Tracer,
    ) -> Result<PreparedProgram, EvalError> {
        let t_safety = tracer.now_ns();
        check_safety(program)?;
        tracer.emit_span("prepare", "safety", t_safety, 0, || {
            vec![("rules", program.rules.len().into())]
        });
        let t_strat = tracer.now_ns();
        let strat = stratify(program)?;
        tracer.emit_span("prepare", "stratify", t_strat, 0, || {
            vec![("strata", strat.strata.len().into())]
        });
        let t_plan = tracer.now_ns();
        let mut plans = PlanCache::new();
        for stratum_rules in &strat.strata {
            let stratum_preds: BTreeSet<&str> = stratum_rules
                .iter()
                .map(|&ri| program.rules[ri].head.pred.as_str())
                .collect();
            for &ri in stratum_rules {
                let rule = &program.rules[ri];
                plans.get_or_compile(ri, rule, None);
                // Exactly the delta plans the semi-naive driver looks
                // up: one per positive body literal whose predicate is
                // defined in this stratum.
                for (pos, lit) in rule.body.iter().enumerate() {
                    if lit.is_negative() || !stratum_preds.contains(lit.atom().pred.as_str()) {
                        continue;
                    }
                    plans.get_or_compile(ri, rule, Some(pos));
                }
            }
        }
        let compiled = plans.misses;
        tracer.emit_span("prepare", "plan-compile", t_plan, 0, || {
            vec![("plans", compiled.into())]
        });
        let maint = maintenance_meta(program, &strat.strata);
        let shard_plan = ShardPlan::build(program, &strat.strata);
        let idb = program
            .idb_predicates()
            .into_iter()
            .map(str::to_owned)
            .collect();
        Ok(PreparedProgram {
            program: program.clone(),
            idb,
            strat,
            plans,
            compiled,
            opts: self.opts,
            memo_pool: Arc::new(Mutex::new(None)),
            maint,
            head_bound: OnceLock::new(),
            shard_plan,
        })
    }
}

/// A program with its analysis and planning work done once, ready to
/// execute against any number of databases. Built by [`Engine::prepare`].
#[derive(Clone, Debug)]
pub struct PreparedProgram {
    program: Program,
    /// The predicates some rule derives: what a delta may not touch,
    /// what `stats.tuples` counts, what an [`EvalOutput`] exports.
    idb: BTreeSet<String>,
    strat: Stratification,
    /// Fully precompiled plan cache; runs clone it with zeroed counters
    /// so per-run hit statistics stay meaningful.
    plans: PlanCache,
    /// Plans compiled at prepare time — reported as each run's
    /// `plan_cache_misses` so the "compiled exactly once" accounting
    /// survives the prepare/run split.
    compiled: u64,
    opts: EvalOptions,
    /// The solver memo carried across `run()` calls (batch mode). Each
    /// run checks the pooled memo's registry fingerprint: a match reuses
    /// it — repeated conditions become *cross-run* memo hits instead of
    /// fresh solver work — while a mismatch (different c-variables or
    /// domains) replaces it. Clones of a prepared program share the
    /// pool, like they share the compiled plans.
    memo_pool: Arc<Mutex<Option<Arc<SharedMemo>>>>,
    /// Per-rule delta positions (read by every fixpoint) and
    /// per-stratum recursion flags (the label incremental maintenance
    /// reports a stratum under).
    maint: MaintenanceMeta,
    /// Per rule, its head-bound companion
    /// ([`crate::plan::head_bound_rules`]), built at the first `apply`:
    /// a program that is only ever run never pays for them.
    head_bound: OnceLock<Vec<Rule>>,
    /// Partition keys for sharded evaluation, compiled at prepare time
    /// (first bound head column per predicate; overridable via
    /// [`set_shard_keys`](PreparedProgram::set_shard_keys)).
    shard_plan: ShardPlan,
}

impl PreparedProgram {
    /// The prepared program's AST.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Its stratification.
    pub fn stratification(&self) -> &Stratification {
        &self.strat
    }

    /// Number of rule plans compiled at prepare time.
    pub fn plan_count(&self) -> usize {
        self.compiled as usize
    }

    /// The compiled shard plan (partition key per derived predicate).
    pub fn shard_plan(&self) -> &ShardPlan {
        &self.shard_plan
    }

    /// Overrides shard partition keys (`--shard-key pred=col`). A key
    /// outside the predicate's arity, or naming a predicate no rule
    /// derives, is rejected so a typo cannot silently route every row
    /// to column-0 hashing.
    pub fn set_shard_keys<'k>(
        &mut self,
        overrides: impl IntoIterator<Item = (&'k str, usize)>,
    ) -> Result<(), EvalError> {
        for (pred, col) in overrides {
            let Some(rule) = self.program.rules.iter().find(|r| r.head.pred == pred) else {
                return Err(EvalError::InvalidShardKey(format!(
                    "`{pred}` is not a derived predicate"
                )));
            };
            let arity = rule.head.args.len();
            if col >= arity {
                return Err(EvalError::InvalidShardKey(format!(
                    "column {col} out of range for `{pred}` (arity {arity})"
                )));
            }
            self.shard_plan.set_key(pred, col);
        }
        Ok(())
    }

    /// Executes against `db` with the options the engine was built
    /// with.
    pub fn run(&self, db: &Database) -> Result<EvalOutput, EvalError> {
        self.run_traced(db, &Tracer::disabled())
    }

    /// [`run`](PreparedProgram::run) with the pipeline recorded on
    /// `tracer`: per-stratum fixpoint iterations, per-rule plan
    /// execution, parallel worker chunks, end-of-stratum pruning, and a
    /// solver-session summary.
    pub fn run_traced(&self, db: &Database, tracer: &Tracer) -> Result<EvalOutput, EvalError> {
        let t_run = tracer.now_ns();
        publish::publish_run(self.opts.threads);
        let state = self.materialize_with(db, &self.opts, tracer)?;
        let output = state.into_output(&self.idb);

        tracer.emit_instant("solver", "session", 0, || {
            faure_trace::stat::args(&output.stats.solver_stats)
        });
        let tuples = output.stats.tuples;
        let pruned = output.stats.pruned;
        tracer.emit_span("eval", "run", t_run, 0, || {
            vec![("tuples", tuples.into()), ("pruned", pruned.into())]
        });
        Ok(output)
    }
}

/// Evaluates `program` on `db` with default options.
pub fn evaluate(program: &Program, db: &Database) -> Result<EvalOutput, EvalError> {
    evaluate_with(program, db, &EvalOptions::default())
}

/// Evaluates `program` on `db` with explicit options (prepare-then-run
/// in one call).
pub fn evaluate_with(
    program: &Program,
    db: &Database,
    opts: &EvalOptions,
) -> Result<EvalOutput, EvalError> {
    Engine::with_options(*opts).prepare(program)?.run(db)
}

/// Runs `f` with process-global telemetry publication suppressed on
/// the current thread, restoring the previous state afterwards.
///
/// Auxiliary evaluations drive the full engine without being pipeline
/// work — loading a database file's conditional facts, or the §5
/// containment oracle's run over a canonical database. Publishing
/// their counters would inflate `faure_runs_total` /
/// `faure_materializations_total` and break the invariant that the
/// `/metrics` registry agrees with an eval's final `--metrics` totals,
/// so such callers wrap the evaluation in this guard. Results are
/// unaffected; only registry publication is skipped.
pub fn without_telemetry<R>(f: impl FnOnce() -> R) -> R {
    publish::with_publication_suppressed(f)
}

/// Resolves c-variable names to ids, auto-registering unknown names
/// with an open domain (batched — the registry vector grows once).
fn resolve_cvars(program: &Program, db: &mut Database) -> HashMap<String, CVarId> {
    let mut map = HashMap::new();
    let mut missing: Vec<&str> = Vec::new();
    for name in program.cvar_names() {
        match db.cvars.by_name(name) {
            Some(id) => {
                map.insert(name.to_owned(), id);
            }
            None => missing.push(name),
        }
    }
    let ids = db.fresh_cvars(missing.iter().map(|&n| (n.to_owned(), Domain::Open)));
    for (name, id) in missing.into_iter().zip(ids) {
        map.insert(name.to_owned(), id);
    }
    map
}

/// Per-run context shared by every rule pass (and, under parallel
/// evaluation, every worker thread). Cloning it copies references.
#[derive(Clone)]
pub(crate) struct Ctx<'a> {
    pub(crate) cvmap: &'a HashMap<String, CVarId>,
    /// The standing database's registry, as resolution left it (it is
    /// not mutated during evaluation). Borrowed, never copied: at a
    /// thousand prefixes a deep clone is four thousand `String`s.
    pub(crate) reg: &'a CVarRegistry,
    /// The run's tracer (disabled unless the caller opted in). Workers
    /// buffer events locally and the driver submits them in chunk
    /// order, so tracing never perturbs results.
    pub(crate) tracer: Tracer,
    /// Partition keys of a delta cut into more than one partition
    /// (unused when `opts.shards <= 1`).
    pub(crate) shard_plan: &'a ShardPlan,
    /// Per rule, the body positions a delta pass can be pinned to
    /// ([`MaintenanceMeta::delta_positions`]).
    pub(crate) delta_positions: &'a [Vec<usize>],
    /// Per rule, its head-bound companion
    /// ([`crate::plan::head_bound_rules`]); empty for a batch run, which
    /// seeds with full plans only.
    pub(crate) head_bound: &'a [Rule],
    /// The run's join-leaf memo: born with the run, dropped with it.
    pub(crate) leaves: &'a rule::LeafMemo,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;
    use faure_ctable::examples::table2_path_db;
    use faure_ctable::{CTuple, Condition, Schema, Term};

    /// q1/q2 of the paper: cost of 1.2.3.4's path.
    #[test]
    fn table2_cost_query() {
        let (db, vars) = table2_path_db();
        let program = parse_program(r#"Cost(c) :- P("1.2.3.4", p), C(p, c)."#).unwrap();
        let out = evaluate(&program, &db).unwrap();
        let rel = out.relation("Cost").unwrap();
        // Depending on x̄, the cost is 3 ([ABC]) or 4 ([ADEC]).
        assert_eq!(rel.len(), 2);
        let mut costs: Vec<i64> = rel
            .iter()
            .map(|t| t.terms[0].as_const().unwrap().as_int().unwrap())
            .collect();
        costs.sort_unstable();
        assert_eq!(costs, vec![3, 4]);
        // Each row's condition must mention x̄.
        for t in rel.iter() {
            assert!(t.cond.cvars().contains(&vars.x));
        }
    }

    /// q3: implicit pattern matching — P(1.2.3.5, y) matches the
    /// c-variable row (ȳ, [ABE]).
    #[test]
    fn table2_q3_pattern_match() {
        let (db, _) = table2_path_db();
        let program = parse_program(r#"Q3(c) :- P("1.2.3.5", p), C(p, c)."#).unwrap();
        let out = evaluate(&program, &db).unwrap();
        let rel = out.relation("Q3").unwrap();
        // The answer 3 is conditional on ȳ = 1.2.3.5 (consistent with
        // ȳ ≠ 1.2.3.4), so exactly one row.
        assert_eq!(rel.len(), 1);
        assert_eq!(rel.tuples[0].terms[0], Term::int(3));
        assert_ne!(rel.tuples[0].cond, Condition::True);
    }

    /// The diagnostic pre-pass surfaces lints without changing results.
    #[test]
    fn warnings_surface_without_changing_results() {
        let (db, _) = table2_path_db();
        // `u` is a singleton (likely-typo) variable; the query result
        // must be identical to the clean formulation.
        let program = parse_program(r#"Cost(c) :- P("1.2.3.4", p), C(p, c), D(u)."#).unwrap();
        let mut db2 = db.clone();
        db2.create_relation(faure_ctable::Schema::new("D", &["a"]))
            .unwrap();
        db2.insert("D", faure_ctable::CTuple::new([Term::int(0)]))
            .unwrap();
        let out = evaluate(&program, &db2).unwrap();
        assert_eq!(out.relation("Cost").unwrap().len(), 2);
        assert!(out
            .warnings
            .iter()
            .any(|w| matches!(w, crate::analysis::Finding::SingletonVariable { variable, .. } if variable == "u")));
        assert!(out.warnings.iter().all(|w| !w.is_error()));

        // A clean program yields no warnings.
        let clean = parse_program(r#"Cost(c) :- P("1.2.3.4", p), C(p, c)."#).unwrap();
        let out = evaluate(&clean, &db).unwrap();
        assert_eq!(out.warnings, Vec::new());
    }

    #[test]
    fn facts_evaluate() {
        let db = Database::new();
        let program = parse_program("Lb(Mkt, CS).\nLb(\"R&D\", GS).\n").unwrap();
        let out = evaluate(&program, &db).unwrap();
        assert_eq!(out.relation("Lb").unwrap().len(), 2);
    }

    #[test]
    fn recursion_transitive_closure_ground() {
        let mut db = Database::new();
        db.create_relation(Schema::new("E", &["a", "b"])).unwrap();
        for (a, b) in [(1, 2), (2, 3), (3, 4)] {
            db.insert("E", CTuple::new([Term::int(a), Term::int(b)]))
                .unwrap();
        }
        let program = parse_program(
            "R(a, b) :- E(a, b).\n\
             R(a, b) :- E(a, c), R(c, b).\n",
        )
        .unwrap();
        let out = evaluate(&program, &db).unwrap();
        // 1→2,1→3,1→4,2→3,2→4,3→4
        assert_eq!(out.relation("R").unwrap().len(), 6);
    }

    #[test]
    fn naive_matches_semi_naive() {
        let mut db = Database::new();
        db.create_relation(Schema::new("E", &["a", "b"])).unwrap();
        for (a, b) in [(1, 2), (2, 3), (3, 1), (3, 4)] {
            db.insert("E", CTuple::new([Term::int(a), Term::int(b)]))
                .unwrap();
        }
        let program = parse_program(
            "R(a, b) :- E(a, b).\n\
             R(a, b) :- E(a, c), R(c, b).\n",
        )
        .unwrap();
        let semi = evaluate(&program, &db).unwrap();
        let naive = evaluate_with(
            &program,
            &db,
            &EvalOptions {
                semi_naive: false,
                ..Default::default()
            },
        )
        .unwrap();
        let mut a: Vec<Vec<Term>> = semi
            .relation("R")
            .unwrap()
            .iter()
            .map(|t| t.terms.clone())
            .collect();
        let mut b: Vec<Vec<Term>> = naive
            .relation("R")
            .unwrap()
            .iter()
            .map(|t| t.terms.clone())
            .collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn recursion_with_conditions_terminates_on_cycles() {
        // A 2-cycle where each link is protected by a c-variable; the
        // reachability conditions must converge (conjunction dedup).
        let mut db = Database::new();
        let x = db.fresh_cvar("x", Domain::Bool01);
        let y = db.fresh_cvar("y", Domain::Bool01);
        db.create_relation(Schema::new("F", &["a", "b"])).unwrap();
        db.insert(
            "F",
            CTuple::with_cond(
                [Term::int(1), Term::int(2)],
                Condition::eq(Term::Var(x), Term::int(1)),
            ),
        )
        .unwrap();
        db.insert(
            "F",
            CTuple::with_cond(
                [Term::int(2), Term::int(1)],
                Condition::eq(Term::Var(y), Term::int(1)),
            ),
        )
        .unwrap();
        let program = parse_program(
            "R(a, b) :- F(a, b).\n\
             R(a, b) :- F(a, c), R(c, b).\n",
        )
        .unwrap();
        let out = evaluate(&program, &db).unwrap();
        let r = out.relation("R").unwrap();
        // R(1,2), R(2,1), R(1,1), R(2,2)
        assert_eq!(r.len(), 4);
        // R(1,1) requires both links: condition ≡ x̄=1 ∧ ȳ=1.
        let r11 = r
            .iter()
            .find(|t| t.terms == vec![Term::int(1), Term::int(1)])
            .unwrap();
        let expected = Condition::eq(Term::Var(x), Term::int(1))
            .and(Condition::eq(Term::Var(y), Term::int(1)));
        assert!(faure_solver::equivalent(&out.database.cvars, &r11.cond, &expected).unwrap());
    }

    #[test]
    fn negation_not_derivable() {
        let mut db = Database::new();
        let x = db.fresh_cvar("x", Domain::Bool01);
        db.create_relation(Schema::new("N", &["a"])).unwrap();
        db.insert("N", CTuple::new([Term::int(1)])).unwrap();
        db.insert("N", CTuple::new([Term::int(2)])).unwrap();
        db.create_relation(Schema::new("Block", &["a"])).unwrap();
        db.insert(
            "Block",
            CTuple::with_cond([Term::int(1)], Condition::eq(Term::Var(x), Term::int(1))),
        )
        .unwrap();
        let program = parse_program("Open(a) :- N(a), !Block(a).\n").unwrap();
        let out = evaluate(&program, &db).unwrap();
        let open = out.relation("Open").unwrap();
        assert_eq!(open.len(), 2);
        let o1 = open.iter().find(|t| t.terms == vec![Term::int(1)]).unwrap();
        // Open(1) iff NOT (x̄ = 1), i.e. x̄ ≠ 1.
        assert!(faure_solver::equivalent(
            &out.database.cvars,
            &o1.cond,
            &Condition::ne(Term::Var(x), Term::int(1))
        )
        .unwrap());
        let o2 = open.iter().find(|t| t.terms == vec![Term::int(2)]).unwrap();
        assert_eq!(o2.cond, Condition::True);
    }

    #[test]
    fn comparisons_filter_and_annotate() {
        let mut db = Database::new();
        let p = db.fresh_cvar("p", Domain::Ints(vec![80, 344, 7000]));
        db.create_relation(Schema::new("R", &["subnet", "port"]))
            .unwrap();
        db.insert("R", CTuple::new([Term::sym("Mkt"), Term::Var(p)]))
            .unwrap();
        db.insert("R", CTuple::new([Term::sym("R&D"), Term::int(80)]))
            .unwrap();
        let program = parse_program("V(s) :- R(s, q), q != 80.\n").unwrap();
        let out = evaluate(&program, &db).unwrap();
        let v = out.relation("V").unwrap();
        // R&D row: 80 != 80 is ground-false → dropped. Mkt row: condition p̄ ≠ 80.
        assert_eq!(v.len(), 1);
        assert_eq!(v.tuples[0].terms, vec![Term::sym("Mkt")]);
        assert!(faure_solver::equivalent(
            &out.database.cvars,
            &v.tuples[0].cond,
            &Condition::ne(Term::Var(p), Term::int(80))
        )
        .unwrap());
    }

    #[test]
    fn zero_ary_panic_queries() {
        let mut db = Database::new();
        db.create_relation(Schema::new("R", &["s", "d"])).unwrap();
        db.insert("R", CTuple::new([Term::sym("Mkt"), Term::sym("CS")]))
            .unwrap();
        db.create_relation(Schema::new("Fw", &["s", "d"])).unwrap();
        // No firewall: panic must fire unconditionally.
        let program = parse_program("panic :- R(Mkt, CS), !Fw(Mkt, CS).\n").unwrap();
        let out = evaluate(&program, &db).unwrap();
        assert!(out.derived("panic"));
        // Deploy the firewall: panic no longer derivable.
        let mut db2 = db.clone();
        db2.insert("Fw", CTuple::new([Term::sym("Mkt"), Term::sym("CS")]))
            .unwrap();
        let out2 = evaluate(&program, &db2).unwrap();
        assert!(!out2.derived("panic"));
    }

    #[test]
    fn repeated_variable_in_atom() {
        let mut db = Database::new();
        let x = db.fresh_cvar("x", Domain::Ints(vec![1, 2]));
        db.create_relation(Schema::new("E", &["a", "b"])).unwrap();
        db.insert("E", CTuple::new([Term::int(1), Term::int(1)]))
            .unwrap();
        db.insert("E", CTuple::new([Term::int(1), Term::int(2)]))
            .unwrap();
        db.insert("E", CTuple::new([Term::int(2), Term::Var(x)]))
            .unwrap();
        let program = parse_program("Diag(a) :- E(a, a).\n").unwrap();
        let out = evaluate(&program, &db).unwrap();
        let diag = out.relation("Diag").unwrap();
        // E(1,1) → Diag(1) unconditionally; E(2, x̄) → Diag(2) iff x̄ = 2.
        assert_eq!(diag.len(), 2);
        let d2 = diag.iter().find(|t| t.terms == vec![Term::int(2)]).unwrap();
        assert!(faure_solver::equivalent(
            &out.database.cvars,
            &d2.cond,
            &Condition::eq(Term::Var(x), Term::int(2))
        )
        .unwrap());
    }

    #[test]
    fn arity_mismatch_detected() {
        let mut db = Database::new();
        db.create_relation(Schema::new("F", &["a", "b"])).unwrap();
        let program = parse_program("R(a) :- F(a).\n").unwrap();
        assert!(matches!(
            evaluate(&program, &db),
            Err(EvalError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn plans_compile_once_and_hit_cache_across_iterations() {
        // A 6-node chain: transitive closure takes several semi-naive
        // iterations, each of which must reuse the compiled delta plan.
        let mut db = Database::new();
        db.create_relation(Schema::new("E", &["a", "b"])).unwrap();
        for i in 1..6 {
            db.insert("E", CTuple::new([Term::int(i), Term::int(i + 1)]))
                .unwrap();
        }
        let program = parse_program(
            "R(a, b) :- E(a, b).\n\
             R(a, b) :- E(a, c), R(c, b).\n",
        )
        .unwrap();
        let out = evaluate(&program, &db).unwrap();
        assert_eq!(out.relation("R").unwrap().len(), 15);
        // Plans: (rule1, None), (rule2, None), (rule2, Δ@1) — compiled
        // exactly once each (at prepare time); every lookup during the
        // run is a cache hit.
        assert_eq!(out.stats.plan_cache_misses, 3);
        assert!(
            out.stats.plan_cache_hits > 0,
            "fixpoint iterations must reuse compiled plans, stats: {:?}",
            out.stats
        );
        // Semi-naive deltas shrink down the chain: iteration 0 seeds
        // the 5 edges plus the 4 length-2 paths (rule 2 already sees
        // rule 1's output), then 3, 2, 1 longer paths.
        assert_eq!(out.stats.delta_sizes, vec![9, 3, 2, 1]);
        // Operator counters observed the probes.
        assert!(out.stats.ops.probes > 0);
        assert!(out.stats.ops.rows_matched as usize >= 15);
    }

    #[test]
    fn pushed_comparisons_prune_branches_early() {
        let mut db = Database::new();
        db.create_relation(Schema::new("E", &["a", "b"])).unwrap();
        for i in 0..10 {
            db.insert("E", CTuple::new([Term::int(i), Term::int(i + 1)]))
                .unwrap();
        }
        let program = parse_program("Q(a, c) :- E(a, b), E(b, c), a < 3.\n").unwrap();
        let out = evaluate(&program, &db).unwrap();
        assert_eq!(out.relation("Q").unwrap().len(), 3);
        // `a < 3` is bound after the first literal; the 6+ failing
        // bindings must be cut before the second join, not after.
        assert!(out.stats.ops.cmp_pruned >= 6, "stats: {:?}", out.stats.ops);
    }

    #[test]
    fn canonicalize_merges_reordered_conjunctions() {
        let mut db = Database::new();
        let x = db.fresh_cvar("x", Domain::Bool01);
        let y = db.fresh_cvar("y", Domain::Bool01);
        let a = Condition::eq(Term::Var(x), Term::int(1));
        let b = Condition::eq(Term::Var(y), Term::int(1));
        let ab = canonicalize(a.clone().and(b.clone()));
        let ba = canonicalize(b.and(a));
        assert_eq!(ab, ba);
    }

    /// Tracing records the pipeline without changing results; a
    /// disabled tracer records nothing.
    #[test]
    fn traced_run_records_pipeline_without_changing_results() {
        use faure_trace::{ManualClock, Recorder};

        let mut db = Database::new();
        db.create_relation(Schema::new("E", &["a", "b"])).unwrap();
        for i in 1..5 {
            db.insert("E", CTuple::new([Term::int(i), Term::int(i + 1)]))
                .unwrap();
        }
        let program = crate::parser::parse_program(
            "R(a, b) :- E(a, b).\n\
             R(a, b) :- E(a, c), R(c, b).\n",
        )
        .unwrap();

        let plain = evaluate(&program, &db).unwrap();

        let rec = Arc::new(Recorder::new());
        let tracer = Tracer::with_clock(rec.clone(), Arc::new(ManualClock::new()));
        let traced = Engine::new()
            .prepare_traced(&program, &tracer)
            .unwrap()
            .run_traced(&db, &tracer)
            .unwrap();

        // Bit-identical results and counters.
        assert_eq!(
            plain.relation("R").unwrap().tuples,
            traced.relation("R").unwrap().tuples
        );
        assert_eq!(plain.stats.tuples, traced.stats.tuples);
        assert_eq!(plain.stats.delta_sizes, traced.stats.delta_sizes);

        // The recorded stream covers every pipeline layer.
        let events = rec.take();
        let has = |cat: &str, name: &str| events.iter().any(|e| e.cat == cat && e.name == name);
        assert!(has("prepare", "safety"));
        assert!(has("prepare", "stratify"));
        assert!(has("prepare", "plan-compile"));
        assert!(has("eval", "setup"));
        assert!(has("eval", "load"));
        assert!(has("eval", "export"));
        assert!(has("eval", "stratum"));
        assert!(has("eval", "prune"));
        assert!(has("eval", "run"));
        assert!(has("fixpoint", "iteration"));
        assert!(has("fixpoint", "rule-pass"));
        assert!(has("solver", "session"));

        // rule-pass spans carry the per-rule payload.
        let pass = events
            .iter()
            .find(|e| e.name == "rule-pass" && e.arg_u64("rule") == Some(0))
            .expect("rule 0 pass recorded");
        assert_eq!(pass.arg_str("head"), Some("R"));
        assert!(pass.arg_u64("matches").unwrap() >= 4);
        assert!(pass.arg_u64("rows_out").is_some());
        assert!(pass.arg_u64("cond_size").is_some());

        // The iteration spans mirror the delta-size counters.
        let delta_rows: Vec<u64> = events
            .iter()
            .filter(|e| e.name == "iteration")
            .filter_map(|e| e.arg_u64("delta_rows"))
            .filter(|&n| n > 0)
            .collect();
        let expected: Vec<u64> = traced.stats.delta_sizes.iter().map(|&n| n as u64).collect();
        assert_eq!(delta_rows, expected);
    }

    /// Parallel traced runs buffer worker spans and stay bit-identical.
    #[test]
    fn parallel_traced_run_emits_worker_chunks() {
        use faure_trace::Recorder;

        // 400 disjoint three-hop chains: every pass over `E` has enough
        // depth-0 matches to be split.
        let mut db = Database::new();
        db.create_relation(Schema::new("E", &["a", "b"])).unwrap();
        for chain in 0..400 {
            for hop in 0..3 {
                let a = chain * 10 + hop;
                db.insert("E", CTuple::new([Term::int(a), Term::int(a + 1)]))
                    .unwrap();
            }
        }
        let program = crate::parser::parse_program(
            "R(a, b) :- E(a, b).\n\
             R(a, b) :- E(a, c), R(c, b).\n",
        )
        .unwrap();
        let opts = EvalOptions {
            threads: 4,
            ..Default::default()
        };
        let serial = evaluate(&program, &db).unwrap();

        let rec = Arc::new(Recorder::new());
        let tracer = Tracer::new(rec.clone());
        let traced = Engine::with_options(opts)
            .prepare_traced(&program, &tracer)
            .unwrap()
            .run_traced(&db, &tracer)
            .unwrap();
        assert_eq!(
            serial.relation("R").unwrap().tuples,
            traced.relation("R").unwrap().tuples
        );
        let events = rec.take();
        let chunks: Vec<_> = events
            .iter()
            .filter(|e| e.cat == "worker" && e.name == "chunk")
            .collect();
        assert!(!chunks.is_empty(), "worker chunk spans recorded");
        // Tracks are chunk indices + 1, and chunk args count up from 0
        // within each rule pass (deterministic submission order).
        for c in &chunks {
            assert_eq!(u64::from(c.track), c.arg_u64("chunk").unwrap() + 1);
            assert!(c.arg_u64("matches").is_some());
        }
    }

    #[test]
    fn parse_threads_accepts_positive_integers_only() {
        assert_eq!(parse_threads(None), 1);
        assert_eq!(parse_threads(Some("")), 1);
        assert_eq!(parse_threads(Some("0")), 1);
        assert_eq!(parse_threads(Some("four")), 1);
        assert_eq!(parse_threads(Some("-2")), 1);
        assert_eq!(parse_threads(Some("4")), 4);
        assert_eq!(parse_threads(Some(" 8 ")), 8);
    }

    #[test]
    fn prepared_program_reruns_skip_planning() {
        let program = parse_program(
            "R(a, b) :- E(a, b).\n\
             R(a, b) :- E(a, c), R(c, b).\n",
        )
        .unwrap();
        let prepared = Engine::new().prepare(&program).unwrap();
        assert_eq!(prepared.plan_count(), 3);

        // Two different databases through the same prepared program.
        let mut outputs = Vec::new();
        for n in [4i64, 6] {
            let mut db = Database::new();
            db.create_relation(Schema::new("E", &["a", "b"])).unwrap();
            for i in 1..n {
                db.insert("E", CTuple::new([Term::int(i), Term::int(i + 1)]))
                    .unwrap();
            }
            outputs.push(prepared.run(&db).unwrap());
        }
        assert_eq!(outputs[0].relation("R").unwrap().len(), 6);
        assert_eq!(outputs[1].relation("R").unwrap().len(), 15);
        for out in &outputs {
            assert_eq!(out.stats.plan_cache_misses, 3);
            assert!(out.stats.plan_cache_hits > 0);
        }
    }

    #[test]
    fn prepared_program_reuses_memo_across_runs() {
        let build_db = |dom: Domain| {
            let mut db = Database::new();
            let x = db.fresh_cvar("x", dom.clone());
            let y = db.fresh_cvar("y", dom);
            db.create_relation(Schema::new("F", &["a", "b"])).unwrap();
            db.insert(
                "F",
                CTuple::with_cond(
                    [Term::int(1), Term::int(2)],
                    Condition::eq(Term::Var(x), Term::int(1)),
                ),
            )
            .unwrap();
            db.insert(
                "F",
                CTuple::with_cond(
                    [Term::int(2), Term::int(1)],
                    Condition::eq(Term::Var(y), Term::int(1)),
                ),
            )
            .unwrap();
            db
        };
        let program = parse_program(
            "R(a, b) :- F(a, b).\n\
             R(a, b) :- F(a, c), R(c, b).\n",
        )
        .unwrap();
        let prepared = Engine::new().prepare(&program).unwrap();

        let db = build_db(Domain::Bool01);
        let first = prepared.run(&db).unwrap();
        assert_eq!(first.stats.solver_stats.cross_run_hits, 0);

        // Second run over the same registry: the pooled memo answers
        // the repeated conditions across the run boundary, and results
        // stay bit-identical.
        let second = prepared.run(&db).unwrap();
        assert!(
            second.stats.solver_stats.cross_run_hits > 0,
            "stats: {:?}",
            second.stats.solver_stats
        );
        assert!(second.stats.solver_stats.memo_cross_run_hit_rate() > 0.0);
        assert_eq!(
            first.relation("R").unwrap().tuples,
            second.relation("R").unwrap().tuples
        );

        // A different registry signature (same names, wider domain)
        // invalidates the pooled memo instead of serving stale verdicts.
        let other = build_db(Domain::Ints(vec![0, 1, 2]));
        let third = prepared.run(&other).unwrap();
        assert_eq!(third.stats.solver_stats.cross_run_hits, 0);
    }

    #[test]
    fn prepare_rejects_unsafe_and_unstratifiable_programs() {
        let engine = Engine::new();
        let unsafe_p = parse_program("P(a, b) :- N(a).\n").unwrap();
        assert!(matches!(
            engine.prepare(&unsafe_p),
            Err(EvalError::Analysis(_))
        ));
        let unstrat = parse_program("P(a) :- N(a), !Q(a).\nQ(a) :- N(a), !P(a).\n").unwrap();
        assert!(matches!(
            engine.prepare(&unstrat),
            Err(EvalError::Analysis(_))
        ));
    }

    /// Parallel evaluation must produce bit-identical results to serial
    /// — rows, row order, and derived conditions included.
    #[test]
    fn parallel_matches_serial_bit_for_bit() {
        let mut db = Database::new();
        let x = db.fresh_cvar("x", Domain::Bool01);
        let y = db.fresh_cvar("y", Domain::Bool01);
        db.create_relation(Schema::new("E", &["a", "b"])).unwrap();
        for (a, b) in [(1, 2), (2, 3), (3, 4), (4, 2), (2, 5), (5, 1)] {
            db.insert("E", CTuple::new([Term::int(a), Term::int(b)]))
                .unwrap();
        }
        db.insert(
            "E",
            CTuple::with_cond(
                [Term::int(4), Term::int(6)],
                Condition::eq(Term::Var(x), Term::int(1)),
            ),
        )
        .unwrap();
        db.insert(
            "E",
            CTuple::with_cond(
                [Term::int(6), Term::int(1)],
                Condition::eq(Term::Var(y), Term::int(1)),
            ),
        )
        .unwrap();
        // Bulk: 600 disjoint two-hop chains, so the passes over `E` and
        // the first deltas have enough depth-0 matches to be split.
        for chain in 100..700 {
            for hop in 0..2 {
                let a = chain * 10 + hop;
                db.insert("E", CTuple::new([Term::int(a), Term::int(a + 1)]))
                    .unwrap();
            }
        }
        let program = parse_program(
            "R(a, b) :- E(a, b).\n\
             R(a, b) :- E(a, c), R(c, b).\n\
             Q(a) :- R(a, a), !Bad(a).\n",
        )
        .unwrap();
        let serial = evaluate(&program, &db).unwrap();
        for threads in [2, 4, 8] {
            let par = evaluate_with(
                &program,
                &db,
                &EvalOptions {
                    threads,
                    ..Default::default()
                },
            )
            .unwrap();
            for name in ["R", "Q"] {
                let a = serial.relation(name).unwrap();
                let b = par.relation(name).unwrap();
                assert_eq!(a.tuples, b.tuples, "{name} differs at threads={threads}");
            }
        }
    }
}
