//! Compiled rule plans — the query-planning layer between fauré-log
//! rules and c-table storage.
//!
//! Interpreting a rule used to mean re-deriving its join order and
//! re-scanning its comparison list on every fixpoint iteration. This
//! module compiles each `(rule, delta slot)` pair into a [`RulePlan`]
//! **once** (cached in a [`PlanCache`] for the whole evaluation) and
//! the engine then executes the plan every iteration:
//!
//! * **join order** — positive body literals are greedily reordered by
//!   *bound-variable selectivity*: at each step the literal with the
//!   most bound argument columns (constants, c-variables, and rule
//!   variables bound by earlier steps) is joined next, so it can be
//!   probed through the storage layer's column indexes instead of
//!   scanned;
//! * **delta slot** — for semi-naive evaluation, the literal reading
//!   the iteration delta is forced to the front (the delta is the small
//!   side; everything downstream becomes an indexed probe on bound
//!   columns);
//! * **comparison pushdown** — each rule comparison is attached to the
//!   earliest join step after which all its variables are bound;
//!   ground-false comparisons then cut join branches before the
//!   remaining literals are joined, instead of after the full join;
//! * **negation** — negated literals stay after all positive joins
//!   (they need the full binding; stratification already guarantees
//!   their tables are complete).
//!
//! * **slot program** — each rule variable becomes a dense *slot* of
//!   the executing frame, and every argument of every step, comparison,
//!   negated literal and the head is compiled to an [`Arg`]: a constant
//!   cell, a c-variable, a slot an earlier step bound, or a slot this
//!   step binds. The join then reads and writes cells by position and
//!   never looks a name up; each step also names the columns an index
//!   must cover for its probe to look up exactly its bound key
//!   ([`JoinStep::index`]).
//!
//! Plans hold body-literal indices and comparison indices into the
//! rule, not table references, so they are compiled without a database
//! and rendered by `faure explain`. A plan is a function of the rule
//! text alone — no data statistics and no analyzer facts — so it stays
//! valid for every database a prepared program runs or maintains, and
//! `explain` shows exactly what runs.

use crate::analysis::{check_safety, stratify, AnalysisError};
use crate::ast::{ArgTerm, CompExpr, Literal, Program, Rule};
use faure_ctable::CmpOp;
use faure_storage::table::Cell;
use faure_trace::json::{self, Arr, Str};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;

/// One positive join step of a compiled plan.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JoinStep {
    /// Index of the positive literal in the rule body.
    pub lit_pos: usize,
    /// Whether this step reads the iteration delta instead of the full
    /// table (at most one step per plan; always step 0 when present).
    pub is_delta: bool,
    /// How many of the literal's argument columns are bound when this
    /// step runs (constants, c-variables, previously bound rule
    /// variables) — the selectivity score that ordered it.
    pub bound_cols: usize,
    /// Indices into `rule.comparisons` evaluated right after this step
    /// (pushdown: all their variables are bound here and not earlier).
    pub comparisons: Vec<usize>,
    /// Per argument column, what the probe keys it on (`Const`, `CVar`,
    /// `Bound`) or what the bind writes (`Bind`).
    pub args: Vec<Arg>,
    /// The columns, ascending, of the index this step's probe looks its
    /// key up in: those under a constant or an earlier-bound variable,
    /// when they are some but not all of the columns. Empty when the
    /// probe needs none: it binds no column (a scan), every column (the
    /// table's dedup index serves it), or it reads the iteration delta,
    /// which is scanned. A c-variable argument is not among them: it
    /// matches every constant conditionally.
    pub index: Vec<usize>,
}

/// Where one argument of a join step, comparison, negated literal or
/// head reads its cell, or what a join step writes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Arg {
    /// A constant, encoded.
    Const(Cell),
    /// A c-variable, by position in [`RulePlan::cvars`]. Its id belongs
    /// to the database a run loads, so a pass resolves it.
    CVar(usize),
    /// A rule variable an earlier step bound: the slot holding its
    /// cell. (Reading a slot nothing bound — in the head, a negation or
    /// a comparison of an unsafe rule — is an unbound-variable error.)
    Bound(usize),
    /// A rule variable this step binds. A second occurrence in the same
    /// literal finds the slot set and compares.
    Bind(usize),
}

/// One side of a compiled comparison.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Side {
    /// A single argument.
    Arg(Arg),
    /// `Σ coef·$v + constant`, each c-variable by position in
    /// [`RulePlan::cvars`].
    Lin {
        /// Coefficient / c-variable pairs.
        terms: Vec<(i64, usize)>,
        /// Additive constant.
        constant: i64,
    },
}

/// A rule comparison over slots.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Compare {
    /// Left side.
    pub lhs: Side,
    /// Operator.
    pub op: CmpOp,
    /// Right side.
    pub rhs: Side,
}

/// A compiled evaluation plan for one rule under one delta slot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RulePlan {
    /// Body position of the delta literal, if this is a semi-naive
    /// delta pass.
    pub delta_pos: Option<usize>,
    /// Positive join steps, in execution order.
    pub steps: Vec<JoinStep>,
    /// Indices into `rule.comparisons` with no rule variables (ground
    /// or c-variable-only), evaluated before any join step.
    pub initial_comparisons: Vec<usize>,
    /// Body positions of negated literals, evaluated after all joins.
    pub negations: Vec<usize>,
    /// How many slots the frame has: one per rule variable, numbered in
    /// the order the steps bind them; a variable no step binds comes
    /// after those.
    pub slots: usize,
    /// The c-variables the rule names, by [`Arg::CVar`] position.
    pub cvars: Vec<String>,
    /// Per rule comparison (the index into `rule.comparisons`), its
    /// compiled sides.
    pub compare: Vec<Compare>,
    /// Per negated literal, in `negations` order, its arguments.
    pub negated: Vec<Vec<Arg>>,
    /// The head's arguments.
    pub head: Vec<Arg>,
}

/// Slot and c-variable numbering while a plan of one rule compiles.
/// Slots are numbered as the steps bind them, so between two steps
/// `slots` is exactly the set of bound variables.
#[derive(Default)]
struct Names<'r> {
    slots: Vec<&'r str>,
    cvars: Vec<String>,
}

impl<'r> Names<'r> {
    fn slot(&mut self, var: &'r str) -> usize {
        self.slots
            .iter()
            .position(|&v| v == var)
            .unwrap_or_else(|| {
                self.slots.push(var);
                self.slots.len() - 1
            })
    }

    fn cvar(&mut self, name: &str) -> usize {
        self.cvars
            .iter()
            .position(|v| v == name)
            .unwrap_or_else(|| {
                self.cvars.push(name.to_owned());
                self.cvars.len() - 1
            })
    }

    /// `arg` read where the first `bound` slots hold cells; any other
    /// variable is bound where it is read (`Bind`).
    fn arg(&mut self, arg: &'r ArgTerm, bound: usize) -> Arg {
        match arg {
            ArgTerm::Cst(c) => Arg::Const(Cell::encode_const(c)),
            ArgTerm::CVar(name) => Arg::CVar(self.cvar(name)),
            ArgTerm::Var(v) if self.slots[..bound].contains(&v.as_str()) => {
                Arg::Bound(self.slot(v))
            }
            ArgTerm::Var(v) => Arg::Bind(self.slot(v)),
        }
    }

    /// `arg` read after the join: every variable is read from its slot.
    fn read(&mut self, arg: &'r ArgTerm) -> Arg {
        match arg {
            ArgTerm::Var(v) => Arg::Bound(self.slot(v)),
            other => self.arg(other, 0),
        }
    }

    fn side(&mut self, e: &'r CompExpr) -> Side {
        match e {
            CompExpr::Arg(a) => Side::Arg(self.read(a)),
            CompExpr::Lin { terms, constant } => Side::Lin {
                terms: terms
                    .iter()
                    .map(|(coef, name)| (*coef, self.cvar(name)))
                    .collect(),
                constant: *constant,
            },
        }
    }
}

/// The rule variables `step` binds first, in argument order (what
/// `explain` lists).
fn binds<'r>(rule: &'r Rule, step: &JoinStep) -> Vec<&'r str> {
    let mut slots = Vec::new();
    let atom = rule.body[step.lit_pos].atom();
    atom.args
        .iter()
        .zip(&step.args)
        .filter_map(|(term, arg)| match arg {
            Arg::Bind(s) if !slots.contains(s) => {
                slots.push(*s);
                term.as_var()
            }
            _ => None,
        })
        .collect()
}

fn arg_is_bound(arg: &ArgTerm, bound: &[&str]) -> bool {
    match arg {
        ArgTerm::Cst(_) | ArgTerm::CVar(_) => true,
        ArgTerm::Var(v) => bound.contains(&v.as_str()),
    }
}

fn bound_cols(rule: &Rule, lit_pos: usize, bound: &[&str]) -> usize {
    rule.body[lit_pos]
        .atom()
        .args
        .iter()
        .filter(|a| arg_is_bound(a, bound))
        .count()
}

/// Compiles the plan for `rule` with an optional forced delta literal.
///
/// The join order is chosen greedily: the delta literal (if any) goes
/// first; afterwards, among the remaining positive literals, the one
/// with the most bound columns wins, ties broken by fewer *unbound*
/// columns (a fully-bound binary atom beats a half-bound ternary one),
/// then by body position (stable for `explain` output).
pub fn compile_rule(rule: &Rule, delta_pos: Option<usize>) -> RulePlan {
    let mut remaining: Vec<usize> = rule
        .body
        .iter()
        .enumerate()
        .filter(|(_, l)| !l.is_negative())
        .map(|(i, _)| i)
        .collect();
    let negations: Vec<usize> = rule
        .body
        .iter()
        .enumerate()
        .filter(|(_, l)| l.is_negative())
        .map(|(i, _)| i)
        .collect();

    let mut pending_cmp: Vec<usize> = (0..rule.comparisons.len()).collect();
    let mut initial_comparisons = Vec::new();
    pending_cmp.retain(|&ci| {
        if rule.comparisons[ci].variables().is_empty() {
            initial_comparisons.push(ci);
            false
        } else {
            true
        }
    });

    let mut names = Names::default();
    let mut steps = Vec::with_capacity(remaining.len());
    while !remaining.is_empty() {
        let pick = if let Some(dp) = delta_pos.filter(|_| steps.is_empty()) {
            remaining
                .iter()
                .position(|&p| p == dp)
                .expect("delta position must be a positive body literal")
        } else {
            // Max bound columns; then min unbound; then body order.
            let key = |p: usize| {
                let bc = bound_cols(rule, p, &names.slots);
                let unbound = rule.body[p].atom().args.len() - bc;
                (bc, usize::MAX - unbound, usize::MAX - p)
            };
            (0..remaining.len())
                .max_by_key(|&i| key(remaining[i]))
                .expect("loop runs only while literals remain")
        };
        let lit_pos = remaining.swap_remove(pick);
        let bc = bound_cols(rule, lit_pos, &names.slots);
        let is_delta = delta_pos == Some(lit_pos);
        let bound = names.slots.len();
        let args: Vec<Arg> = rule.body[lit_pos]
            .atom()
            .args
            .iter()
            .map(|a| names.arg(a, bound))
            .collect();
        let keyed = |c: &usize| matches!(args[*c], Arg::Const(_) | Arg::Bound(_));
        let index = match (0..args.len()).filter(keyed).count() {
            n if is_delta || n == args.len() => Vec::new(),
            _ => (0..args.len()).filter(keyed).collect(),
        };
        let mut comparisons = Vec::new();
        pending_cmp.retain(|&ci| {
            let vars = rule.comparisons[ci].variables();
            if vars.iter().all(|v| names.slots.contains(v)) {
                comparisons.push(ci);
                false
            } else {
                true
            }
        });
        steps.push(JoinStep {
            lit_pos,
            is_delta,
            bound_cols: bc,
            comparisons,
            args,
            index,
        });
    }
    debug_assert!(
        pending_cmp.is_empty(),
        "safety guarantees every comparison variable is bound by a positive literal"
    );

    let negated = negations
        .iter()
        .map(|&np| {
            rule.body[np]
                .atom()
                .args
                .iter()
                .map(|a| names.read(a))
                .collect()
        })
        .collect();
    let head = rule.head.args.iter().map(|a| names.read(a)).collect();
    let compare = rule
        .comparisons
        .iter()
        .map(|c| Compare {
            lhs: names.side(&c.lhs),
            op: c.op,
            rhs: names.side(&c.rhs),
        })
        .collect();
    RulePlan {
        delta_pos,
        steps,
        initial_comparisons,
        negations,
        slots: names.slots.len(),
        cvars: names.cvars,
        compare,
        negated,
        head,
    }
}

/// Renders a plan against its rule, one numbered operator per line.
pub fn render_plan(rule: &Rule, plan: &RulePlan, out: &mut String) {
    use fmt::Write;
    let mut n = 0usize;
    let mut op = |out: &mut String| {
        n += 1;
        let _ = write!(out, "      {n}. ");
    };
    for &ci in &plan.initial_comparisons {
        op(out);
        let _ = writeln!(out, "filter {}", rule.comparisons[ci]);
    }
    for step in &plan.steps {
        op(out);
        let atom = rule.body[step.lit_pos].atom();
        let kind = if step.is_delta {
            "scan Δ"
        } else if step.bound_cols > 0 {
            "probe"
        } else {
            "scan"
        };
        let _ = write!(out, "{kind} {atom}");
        if step.bound_cols > 0 {
            let _ = write!(out, "   [{} bound col(s)]", step.bound_cols);
        }
        let binds = binds(rule, step);
        if !binds.is_empty() {
            let _ = write!(out, "   binds {}", binds.join(", "));
        }
        let _ = writeln!(out);
        for &ci in &step.comparisons {
            op(out);
            let _ = writeln!(out, "filter {}   (pushed down)", rule.comparisons[ci]);
        }
    }
    for &np in &plan.negations {
        op(out);
        let _ = writeln!(out, "negate {}", rule.body[np]);
    }
    op(out);
    let _ = writeln!(out, "emit {}", rule.head);
}

/// Per-evaluation plan cache, keyed by `(rule index, delta slot)`.
///
/// The first request for a key compiles the plan (a miss); every later
/// request — one per fixpoint iteration — returns the cached plan (a
/// hit). The hit/miss counters surface in
/// [`faure_storage::PhaseStats`] so callers can assert that plans are
/// compiled once and reused.
#[derive(Clone, Debug, Default)]
pub struct PlanCache {
    plans: HashMap<(usize, Option<usize>), RulePlan>,
    /// Requests served from the cache.
    pub hits: u64,
    /// Requests that compiled a new plan.
    pub misses: u64,
}

impl PlanCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// A copy of this cache with its hit/miss counters reset — used by
    /// prepared-program runs, which start from a fully compiled cache
    /// but report per-run statistics.
    pub fn fresh_counters(&self) -> PlanCache {
        PlanCache {
            plans: self.plans.clone(),
            hits: 0,
            misses: 0,
        }
    }

    /// Returns the plan for `(rule_idx, delta_pos)`, compiling it on
    /// first use.
    pub fn get_or_compile(
        &mut self,
        rule_idx: usize,
        rule: &Rule,
        delta_pos: Option<usize>,
    ) -> &RulePlan {
        let key = (rule_idx, delta_pos);
        if self.plans.contains_key(&key) {
            self.hits += 1;
        } else {
            self.misses += 1;
            self.plans.insert(key, compile_rule(rule, delta_pos));
        }
        self.plans.get(&key).expect("inserted above")
    }

    /// Every cached plan with the index of its rule, in no set order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &RulePlan)> {
        self.plans
            .iter()
            .map(|(&(rule_idx, _), plan)| (rule_idx, plan))
    }
}

/// Per-program fixpoint metadata: which body positions can carry a
/// delta, and which strata are recursive. Compiled once at prepare
/// time (like the rule plans) from the program's structure alone.
#[derive(Clone, Debug, Default)]
pub struct MaintenanceMeta {
    /// For each rule (by index into `Program::rules`): the body
    /// positions of its positive literals — every slot a delta pass
    /// can be pinned to. A batch delta only ever holds the stratum's
    /// own heads, and the prepare-time plan set covers exactly those
    /// slots; maintenance deltas arrive on EDB and lower-stratum
    /// predicates too, and the plans for those slots compile lazily
    /// through the same [`PlanCache`].
    pub delta_positions: Vec<Vec<usize>>,
    /// Per stratum: whether some rule reads an in-stratum predicate
    /// positively (the stratum needs fixpoint iteration). Incremental
    /// maintenance over-deletes and re-derives the same way either way;
    /// the flag only picks the label a stratum is reported under
    /// (`rederive` when set, `counting` when not — a non-recursive
    /// stratum's over-delete frontier empties after one round).
    pub recursive_strata: Vec<bool>,
}

/// Partition keys for sharded evaluation: one key column per derived
/// predicate. The sharded fixpoint driver routes each changed row of a
/// predicate by hashing the constant in its key column (c-variable
/// cells broadcast — see `faure_storage::shard`).
///
/// The default key is the predicate's first *bound* head column: the
/// first head argument that is a rule variable occurring in some
/// positive body literal, i.e. a column a join actually constrains.
/// Head columns carrying constants or c-variables make poor partition
/// keys (all rows collide, or every row broadcasts), so they are
/// skipped; if no column qualifies the key falls back to column 0.
/// When several rules derive the same predicate the first rule in
/// program order decides, keeping the choice deterministic.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShardPlan {
    /// Key column index per derived predicate.
    pub keys: BTreeMap<String, usize>,
}

impl ShardPlan {
    /// Compiles the default plan for `program` under `strata` (rule
    /// indices per stratum, as produced by `analysis::stratify`).
    pub fn build(program: &Program, strata: &[Vec<usize>]) -> ShardPlan {
        let mut keys = BTreeMap::new();
        for stratum_rules in strata {
            for &ri in stratum_rules {
                let rule = &program.rules[ri];
                let pred = rule.head.pred.as_str();
                if keys.contains_key(pred) {
                    continue;
                }
                let bound = rule.head.args.iter().position(|arg| match arg {
                    ArgTerm::Var(v) => rule.body.iter().any(|lit| {
                        !lit.is_negative()
                            && lit
                                .atom()
                                .args
                                .iter()
                                .any(|a| matches!(a, ArgTerm::Var(w) if w == v))
                    }),
                    ArgTerm::CVar(_) | ArgTerm::Cst(_) => false,
                });
                keys.insert(pred.to_owned(), bound.unwrap_or(0));
            }
        }
        ShardPlan { keys }
    }

    /// The key column for `pred` (column 0 for predicates the plan
    /// never saw, e.g. EDB relations).
    pub fn key_for(&self, pred: &str) -> usize {
        self.keys.get(pred).copied().unwrap_or(0)
    }

    /// Overrides the key column for one predicate (`--shard-key`).
    pub fn set_key(&mut self, pred: &str, col: usize) {
        self.keys.insert(pred.to_owned(), col);
    }
}

/// Compiles the fixpoint metadata for `program` under `strata` (rule
/// indices per stratum, as produced by `analysis::stratify`).
pub fn maintenance_meta(program: &Program, strata: &[Vec<usize>]) -> MaintenanceMeta {
    let delta_positions: Vec<Vec<usize>> = program
        .rules
        .iter()
        .map(|rule| {
            rule.body
                .iter()
                .enumerate()
                .filter(|(_, l)| !l.is_negative())
                .map(|(i, _)| i)
                .collect()
        })
        .collect();
    let recursive_strata = strata
        .iter()
        .map(|stratum_rules| {
            let heads: BTreeSet<&str> = stratum_rules
                .iter()
                .map(|&ri| program.rules[ri].head.pred.as_str())
                .collect();
            stratum_rules.iter().any(|&ri| {
                program.rules[ri]
                    .body
                    .iter()
                    .any(|l| !l.is_negative() && heads.contains(l.atom().pred.as_str()))
            })
        })
        .collect();
    MaintenanceMeta {
        delta_positions,
        recursive_strata,
    }
}

/// For each rule `H(args) :- body`, its *head-bound* companion
/// `H(args) :- body, H(args)`: the same rule restricted to a given set
/// of head keys. Incremental maintenance re-derives the rows a withdraw
/// over-deleted by running the companion as a delta pass whose delta —
/// the lost keys, every condition `True` — is pinned to the appended
/// literal: that scan binds every head variable, so the planner's
/// bound-column greedy order turns each body literal into a key-bound
/// probe, and the pass costs what the lost keys' own derivations cost,
/// not the rule's whole join. The appended literal sits at body
/// position `rule.body.len()`, which no delta plan of the rule itself
/// is pinned to, so the companion's plan shares the rule's
/// [`PlanCache`] under `(rule, position)` like any other delta plan.
///
/// Only `apply` needs them: a prepared program builds them at its
/// first delta, so preparing and running a program once — all that
/// verification does — pays nothing for them.
pub fn head_bound_rules(program: &Program) -> Vec<Rule> {
    program
        .rules
        .iter()
        .map(|rule| {
            let mut bound = rule.clone();
            bound.body.push(Literal::Pos(rule.head.clone()));
            bound
        })
        .collect()
}

/// Renders the compiled plans for a whole program, stratum by stratum:
/// for each rule, the full-evaluation plan plus one delta-pass plan per
/// recursive body literal (the plans semi-naive evaluation actually
/// runs). This is the engine behind `faure explain`.
pub fn explain_program(program: &Program) -> Result<String, AnalysisError> {
    use fmt::Write;
    check_safety(program)?;
    let strat = stratify(program)?;
    let mut out = String::new();
    for (si, stratum_rules) in strat.strata.iter().enumerate() {
        let stratum_preds: BTreeSet<&str> = stratum_rules
            .iter()
            .map(|&ri| program.rules[ri].head.pred.as_str())
            .collect();
        let _ = writeln!(out, "stratum {si}:");
        for &ri in stratum_rules {
            let rule = &program.rules[ri];
            let _ = writeln!(out, "  rule {}: {}", ri + 1, rule);
            if rule.body.iter().all(|l| l.is_negative()) && rule.body.is_empty() {
                // Facts have no joins; the emit line still shows.
            }
            let _ = writeln!(out, "    plan [full]:");
            render_plan(rule, &compile_rule(rule, None), &mut out);
            for (pos, lit) in rule.body.iter().enumerate() {
                if lit.is_negative() || !stratum_preds.contains(lit.atom().pred.as_str()) {
                    continue;
                }
                let _ = writeln!(out, "    plan [Δ {} @ body {}]:", lit.atom().pred, pos + 1);
                render_plan(rule, &compile_rule(rule, Some(pos)), &mut out);
            }
        }
    }
    Ok(out)
}

/// Writes one plan as operator objects, mirroring the numbered lines
/// of [`render_plan`].
fn plan_ops(ops: &mut Arr<'_>, rule: &Rule, plan: &RulePlan) {
    let filter = |ops: &mut Arr<'_>, ci: usize, pushed: bool| {
        ops.object(|o| {
            o.field("op", Str("filter"))
                .field("expr", Str(&rule.comparisons[ci]))
                .field("pushed", pushed);
        });
    };
    for &ci in &plan.initial_comparisons {
        filter(ops, ci, false);
    }
    for step in &plan.steps {
        let kind = if step.is_delta {
            "scan-delta"
        } else if step.bound_cols > 0 {
            "probe"
        } else {
            "scan"
        };
        ops.object(|o| {
            o.field("op", Str(kind))
                .field("atom", Str(rule.body[step.lit_pos].atom()))
                .field("bound_cols", step.bound_cols);
            o.array("binds", |b| {
                b.items(binds(rule, step).into_iter().map(Str));
            });
        });
        for &ci in &step.comparisons {
            filter(ops, ci, true);
        }
    }
    for &np in &plan.negations {
        ops.object(|o| {
            o.field("op", Str("negate"))
                .field("literal", Str(&rule.body[np]));
        });
    }
    ops.object(|o| {
        o.field("op", Str("emit")).field("atom", Str(&rule.head));
    });
}

/// The JSON form of [`explain_program`]: a JSON array with one object
/// per rule (`stratum`, `rule` index, rule `text`, and its compiled
/// `plans` — the full plan plus one delta plan per recursive body
/// literal). Powers `faure explain --format json` for editor and CI
/// integration, mirroring `faure check --format json`.
pub fn explain_program_json(program: &Program) -> Result<String, AnalysisError> {
    check_safety(program)?;
    let strat = stratify(program)?;
    let mut out = json::array(|rules| {
        for (si, stratum_rules) in strat.strata.iter().enumerate() {
            let stratum_preds: BTreeSet<&str> = stratum_rules
                .iter()
                .map(|&ri| program.rules[ri].head.pred.as_str())
                .collect();
            for &ri in stratum_rules {
                let rule = &program.rules[ri];
                rules.object(|o| {
                    o.field("stratum", si)
                        .field("rule", ri + 1)
                        .field("text", Str(rule));
                    o.array("plans", |plans| {
                        plans.object(|p| {
                            p.field("delta", "null");
                            p.array("ops", |ops| plan_ops(ops, rule, &compile_rule(rule, None)));
                        });
                        for (pos, lit) in rule.body.iter().enumerate() {
                            let pred = lit.atom().pred.as_str();
                            if lit.is_negative() || !stratum_preds.contains(pred) {
                                continue;
                            }
                            plans.object(|p| {
                                p.object("delta", |d| {
                                    d.field("pred", Str(pred)).field("body", pos + 1);
                                });
                                let plan = compile_rule(rule, Some(pos));
                                p.array("ops", |ops| plan_ops(ops, rule, &plan));
                            });
                        }
                    });
                });
            }
        }
    });
    out.push('\n');
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    #[test]
    fn constants_pull_literal_forward() {
        // C(p, c) has 0 bound columns; P("1.2.3.4", p) has 1 — the plan
        // must reorder to probe P first even though C is written first.
        let program = parse_program(r#"Cost(c) :- C(p, c), P("1.2.3.4", p)."#).unwrap();
        let plan = compile_rule(&program.rules[0], None);
        assert_eq!(plan.steps.len(), 2);
        assert_eq!(plan.steps[0].lit_pos, 1, "P literal first");
        assert_eq!(plan.steps[0].bound_cols, 1);
        assert_eq!(plan.steps[1].lit_pos, 0);
        assert_eq!(plan.steps[1].bound_cols, 1, "p is bound by step 1");
    }

    #[test]
    fn delta_literal_is_forced_first() {
        let program = parse_program("R(a, b) :- E(a, c), R(c, b).").unwrap();
        let plan = compile_rule(&program.rules[0], Some(1));
        assert_eq!(plan.steps[0].lit_pos, 1);
        assert!(plan.steps[0].is_delta);
        // E(a, c) then probes with c bound.
        assert_eq!(plan.steps[1].lit_pos, 0);
        assert_eq!(plan.steps[1].bound_cols, 1);
    }

    #[test]
    fn comparisons_push_to_earliest_step() {
        let program = parse_program("Q(a) :- E(a, c), F(c, d), a != 0, d < 9, 1 < 2.").unwrap();
        let plan = compile_rule(&program.rules[0], None);
        // `1 < 2` has no variables: initial. `a != 0` binds at step 0
        // (E binds a, c); `d < 9` waits for F.
        assert_eq!(plan.initial_comparisons, vec![2]);
        assert_eq!(plan.steps[0].comparisons, vec![0]);
        assert_eq!(plan.steps[1].comparisons, vec![1]);
    }

    #[test]
    fn negations_follow_joins() {
        let program = parse_program("Open(a) :- N(a), !Block(a).").unwrap();
        let plan = compile_rule(&program.rules[0], None);
        assert_eq!(plan.steps.len(), 1);
        assert_eq!(plan.negations, vec![1]);
    }

    #[test]
    fn shard_plan_picks_first_bound_column() {
        // R's first head column `a` is bound by E(a, b): key 0.
        let program = parse_program("R(a, b) :- E(a, b).\nR(a, c) :- E(a, b), R(b, c).\n").unwrap();
        let strata = stratify(&program).unwrap().strata;
        let plan = ShardPlan::build(&program, &strata);
        assert_eq!(plan.key_for("R"), 0);
        // Unknown (EDB) predicates default to column 0.
        assert_eq!(plan.key_for("E"), 0);
    }

    #[test]
    fn shard_plan_skips_unbound_head_columns() {
        // Head column 0 is a constant, column 1 a c-variable; column 2
        // is the first rule variable bound by a body literal.
        let program = parse_program("Q(7, $x, a) :- E(a, b).").unwrap();
        let strata = stratify(&program).unwrap().strata;
        let plan = ShardPlan::build(&program, &strata);
        assert_eq!(plan.key_for("Q"), 2);
    }

    #[test]
    fn shard_plan_falls_back_to_column_zero() {
        // A fact rule binds nothing: fall back to column 0.
        let program = parse_program("F(1, 2).").unwrap();
        let strata = stratify(&program).unwrap().strata;
        let plan = ShardPlan::build(&program, &strata);
        assert_eq!(plan.key_for("F"), 0);
    }

    #[test]
    fn shard_plan_overrides_stick() {
        let program = parse_program("R(a, b) :- E(a, b).\nR(a, c) :- E(a, b), R(b, c).\n").unwrap();
        let strata = stratify(&program).unwrap().strata;
        let mut plan = ShardPlan::build(&program, &strata);
        plan.set_key("R", 1);
        assert_eq!(plan.key_for("R"), 1);
    }

    #[test]
    fn cache_hits_on_reuse() {
        let program = parse_program("R(a, b) :- E(a, c), R(c, b).").unwrap();
        let mut cache = PlanCache::new();
        let rule = &program.rules[0];
        cache.get_or_compile(0, rule, Some(1));
        cache.get_or_compile(0, rule, Some(1));
        cache.get_or_compile(0, rule, None);
        assert_eq!(cache.misses, 2);
        assert_eq!(cache.hits, 1);
    }

    #[test]
    fn explain_renders_all_example_shapes() {
        let program = parse_program(
            "R(a, b) :- E(a, b).\n\
             R(a, b) :- E(a, c), R(c, b).\n\
             Open(a) :- R(a, b), !Block(b), a != 0.\n",
        )
        .unwrap();
        let text = explain_program(&program).unwrap();
        assert!(text.contains("stratum 0"), "{text}");
        assert!(text.contains("plan [full]"), "{text}");
        assert!(text.contains("plan [Δ R @ body 2]"), "{text}");
        assert!(text.contains("scan Δ R(c, b)"), "{text}");
        assert!(text.contains("negate !Block(b)"), "{text}");
        assert!(text.contains("pushed down"), "{text}");
    }

    #[test]
    fn explain_json_mirrors_text_form() {
        let program = parse_program(
            "R(a, b) :- E(a, b).\n\
             R(a, b) :- E(a, c), R(c, b).\n\
             Open(a) :- R(a, b), !Block(b), a != 0.\n",
        )
        .unwrap();
        let json = explain_program_json(&program).unwrap();
        assert!(json.starts_with('['), "{json}");
        assert!(json.trim_end().ends_with(']'), "{json}");
        assert!(json.contains(r#""stratum":0"#), "{json}");
        assert!(json.contains(r#""delta":null"#), "{json}");
        assert!(json.contains(r#""delta":{"pred":"R","body":2}"#), "{json}");
        assert!(json.contains(r#""op":"scan-delta""#), "{json}");
        assert!(
            json.contains(r#""op":"negate","literal":"!Block(b)""#),
            "{json}"
        );
        assert!(
            json.contains(r#""op":"filter","expr":"a != 0","pushed":true"#),
            "{json}"
        );
        assert!(json.contains(r#""op":"emit""#), "{json}");
        // Quotes inside rule text are escaped.
        let q = parse_program(r#"Cost(c) :- P("1.2.3.4", p), C(p, c)."#).unwrap();
        let json = explain_program_json(&q).unwrap();
        assert!(json.contains(r#"P(\"1.2.3.4\", p)"#), "{json}");
    }

    #[test]
    fn explain_json_rejects_unsafe_programs() {
        let program = parse_program("R(a, b) :- E(a).\n").unwrap();
        assert!(explain_program_json(&program).is_err());
    }
}
