//! Single-rule plan execution — the c-valuation.
//!
//! A compiled [`RulePlan`] is executed as a nested-loop join over
//! c-tables. A [`Pass`] holds what one rule pass reads — shared,
//! immutable, the same for every thread — and a [`Frame`] what one
//! thread of it writes: its slots, condition stack, probe buffers,
//! counters and derived rows. The join is one function, [`Pass::join`]:
//! it takes the matches of one step and, per match, conjoins, binds,
//! compares, descends into the next step (or finishes the head row) and
//! undoes.
//!
//! The plan's slot program does the name work ahead of time: a rule
//! variable is a slot of the frame, and every argument says which cell
//! it reads or writes ([`Arg`]). The join reads and writes `Copy`
//! [`Cell`]s; a probe looks up exactly the key its bound columns form;
//! cells are decoded to terms only where a comparison needs a tree.
//!
//! The driver ([`Pass::run`]) probes the plan's first step once — its
//! key never depends on the slots, which are empty at depth 0 — and
//! joins the matches itself, or cuts the list into contiguous chunks
//! and hands each to a worker that joins it into a frame of its own
//! (see [`super::parallel`]).

use super::{Ctx, EvalError};
use crate::ast::{ArgTerm, CompExpr, Rule};
use crate::plan::{Arg, RulePlan, Side};
use faure_ctable::pool::{self, CondId};
use faure_ctable::{Atom, CVarId, Condition, Expr, LinExpr};
use faure_storage::table::Cell;
use faure_storage::{exec, CondAcc, OpStats, PreparedRow, StoredCond, Table};
use std::collections::{BTreeSet, HashMap};
use std::sync::{Arc, Mutex};

/// What the join leaf made of each stack of condition ids it has seen:
/// `ids ↦` what a table stores for `intern(canonicalize(simplify(⋀
/// ids)))` — `None` when that is `False` and the leaf derives nothing.
///
/// The conjunction, its structural simplification, its canonical form
/// and that form's normal form are pure functions of the trees the ids
/// name, so the result is a pure function of the id stack. A stack seen
/// before is a lookup; a new one goes through the tree functions and is
/// remembered. Either way the leaf holds what the tree path would have
/// computed — bit-identical by construction.
///
/// One memo per run, shared by every worker of the run (a lock held for
/// one hash probe per leaf); being keyed by tuples of ids it would only
/// grow if it outlived the run, so it does not.
#[derive(Default)]
pub(crate) struct LeafMemo {
    seen: Mutex<HashMap<Box<[CondId]>, Option<StoredCond>>>,
}

impl LeafMemo {
    /// What a table stores for `canonicalize(simplify(acc.materialize()))`,
    /// or `None` when that is `False`.
    fn conjoin(&self, acc: &CondAcc) -> Option<StoredCond> {
        let stack = acc.ids();
        if let Some(&stored) = self.seen.lock().expect("leaf memo poisoned").get(stack) {
            return stored;
        }
        // Computed with the lock released: workers racing on one stack
        // compute the same value.
        let id = conjoin_trees(acc);
        let stored = (!id.is_false()).then(|| StoredCond::of(id));
        self.seen
            .lock()
            .expect("leaf memo poisoned")
            .insert(stack.into(), stored);
        stored
    }
}

/// The error of reading `var`, which no positive literal bound (safety
/// rules that out; kept as a defensive error).
fn unbound(var: Option<&str>) -> EvalError {
    EvalError::UnboundVariable(var.unwrap_or_default().to_owned())
}

/// The tree path of the join leaf.
fn conjoin_trees(acc: &CondAcc) -> CondId {
    pool::intern(&canonicalize(faure_solver::simplify(&acc.materialize())))
}

/// The iteration delta a delta pass scans at its plan's delta slot.
#[derive(Clone, Copy, Debug)]
pub(super) enum DeltaRows<'a> {
    /// A table of its own, every row with its own condition: the keys a
    /// withdraw's heads lost, which are no longer in the head's table.
    Table(&'a Table),
    /// Rows of the delta literal's standing table, each with the
    /// condition the delta carries for it: what a merge recorded
    /// ([`faure_storage::Changed`]), `apply`'s pending insertions, the
    /// over-delete frontier.
    Listed(&'a [(u32, CondId)]),
}

/// What a join step reads: rows of `table`, each with a condition.
#[derive(Clone, Copy)]
struct Source<'a> {
    table: &'a Table,
    /// An iteration delta's rows and the condition it carries for each
    /// ([`DeltaRows::Listed`]); `None`: every row, with its own.
    listed: Option<&'a [(u32, CondId)]>,
}

impl Source<'_> {
    /// The row a match of this step names — a row of the table, or a
    /// place in the delta's list — and the condition it joins with.
    fn row(&self, m: u32) -> (u32, CondId) {
        match self.listed {
            Some(rows) => rows[m as usize],
            None => (m, self.table.cond_id(m as usize)),
        }
    }
}

/// What one rule pass reads: the run's context, the rule and its
/// compiled plan, and — resolved once here, not per match — the rows
/// behind every join step, the table behind every negated literal and
/// the id of every c-variable the rule names. Shared by every thread of
/// the pass.
pub(super) struct Pass<'a> {
    pub(super) ctx: &'a Ctx<'a>,
    rule: &'a Rule,
    plan: &'a RulePlan,
    /// Per join step, what it reads: the iteration delta for the plan's
    /// delta slot, the standing table otherwise.
    sources: Vec<Source<'a>>,
    /// Per negated literal, in plan order, the table it negates.
    negated: Vec<&'a Table>,
    /// The id of each of the plan's c-variables.
    cvars: Vec<CVarId>,
}

/// What one thread of a pass writes. [`Pass::join`] leaves the slots
/// and the condition stack as it found them, so one frame serves every
/// match its thread evaluates.
pub(super) struct Frame {
    /// The cell each slot holds; `None` until a step binds it.
    theta: Vec<Option<Cell>>,
    /// The bound slots in binding order: a step undoes its own
    /// bindings by popping back to where it started.
    trail: Vec<usize>,
    acc: CondAcc,
    /// Per depth, the buffer its probe fills: taken out while that
    /// depth's matches are joined and put back after, so the probes of
    /// a pass allocate only while the buffers grow. (Depth 0's matches
    /// are the driver's, shared with the workers.)
    bufs: Vec<Vec<(u32, CondId)>>,
    /// The key of the probe being built.
    key: Vec<Option<Cell>>,
    pub(super) ops: OpStats,
    pub(super) out: Vec<PreparedRow>,
}

impl Frame {
    /// An empty frame for passes of `plan`.
    pub(super) fn new(plan: &RulePlan) -> Self {
        Self::sized(plan.slots, plan.steps.len())
    }

    fn sized(slots: usize, depths: usize) -> Self {
        Frame {
            theta: vec![None; slots],
            trail: Vec::new(),
            acc: CondAcc::new(),
            bufs: vec![Vec::new(); depths],
            key: Vec::new(),
            ops: OpStats::default(),
            out: Vec::new(),
        }
    }

    /// A worker's frame at depth 0 of the pass `driver` started: no
    /// slot is bound there, and the condition stack holds what the
    /// pass's initial comparisons pushed.
    pub(super) fn at_depth_zero(driver: &Frame) -> Self {
        Frame {
            acc: driver.acc.clone(),
            ..Self::sized(driver.theta.len(), driver.bufs.len())
        }
    }

    /// Binds the `Bind` slots of a step with arguments `args` to the
    /// cells of row `row` of `table`, pushing an explicit equality for
    /// a variable repeated *within* the literal (one bound before the
    /// step was in the probe key). Only the cells under variables are
    /// read. Returns `false` when a binding is contradictory.
    fn bind(&mut self, args: &[Arg], table: &Table, row: u32) -> bool {
        for (col, arg) in args.iter().enumerate() {
            let Arg::Bind(s) = *arg else { continue };
            let cell = table.cell(row as usize, col);
            match self.theta[s] {
                None => {
                    self.theta[s] = Some(cell);
                    self.trail.push(s);
                }
                Some(prev) if prev != cell => {
                    if prev.as_var().is_none() && cell.as_var().is_none() {
                        return false;
                    }
                    let eq = Condition::eq(prev.decode(), cell.decode());
                    if !self.acc.push(eq, &mut self.ops) {
                        return false;
                    }
                }
                Some(_) => {}
            }
        }
        true
    }
}

impl<'a> Pass<'a> {
    /// A pass of `rule` under `plan` over `tables`. When the plan has a
    /// delta slot, `delta` supplies the iteration delta it reads.
    pub(super) fn new(
        ctx: &'a Ctx<'a>,
        rule: &'a Rule,
        plan: &'a RulePlan,
        tables: &'a HashMap<String, Arc<Table>>,
        delta: Option<DeltaRows<'a>>,
    ) -> Self {
        debug_assert_eq!(plan.delta_pos.is_some(), delta.is_some());
        // A delta is scanned, never looked up by key: its step asks for
        // no index, and a delta table of its own has none.
        debug_assert!(plan.steps.iter().all(|s| !s.is_delta || s.index.is_empty()));
        debug_assert!(
            !matches!(delta, Some(DeltaRows::Table(t)) if t.indexed_columns().next().is_some())
        );
        let table = |pos: usize| -> &'a Table {
            tables
                .get(&rule.body[pos].atom().pred)
                .expect("table created in setup")
        };
        let sources = plan
            .steps
            .iter()
            .map(|step| match (step.is_delta, delta) {
                (true, Some(DeltaRows::Table(table))) => Source {
                    table,
                    listed: None,
                },
                (true, Some(DeltaRows::Listed(rows))) => Source {
                    table: table(step.lit_pos),
                    listed: Some(rows),
                },
                (true, None) => unreachable!("delta plan executed without a delta"),
                (false, _) => Source {
                    table: table(step.lit_pos),
                    listed: None,
                },
            })
            .collect();
        Pass {
            ctx,
            rule,
            plan,
            sources,
            negated: plan.negations.iter().map(|&np| table(np)).collect(),
            cvars: plan.cvars.iter().map(|name| ctx.cvmap[name]).collect(),
        }
    }

    /// Executes the pass on up to `threads` threads, folding its
    /// operator counters into `ops`.
    ///
    /// Returns the derived head rows (conditions structurally simplified
    /// and DNF-normalised, `False` filtered out) as **ordered
    /// partitions**: one partition per worker chunk under parallel
    /// evaluation, a single partition serially. Concatenated in order,
    /// the partitions equal the serial enumeration order exactly.
    ///
    /// Each pass is recorded as one `fixpoint`/`rule-pass` span carrying
    /// the rule index `ri`, depth-0 match count, rows derived, and the
    /// summed structural size of the derived conditions as a table
    /// stores them.
    pub(super) fn run(
        &self,
        ri: usize,
        threads: usize,
        ops: &mut OpStats,
    ) -> Result<Vec<Vec<PreparedRow>>, EvalError> {
        let t_pass = self.ctx.tracer.now_ns();
        let mut frame = Frame::new(self.plan);
        let mut matches_in = 0usize;
        let partitions = self.partitions(threads, &mut frame, &mut matches_in);
        ops.absorb(&frame.ops);
        let partitions = partitions?;
        self.ctx
            .tracer
            .emit_span("fixpoint", "rule-pass", t_pass, 0, || {
                let rows_out: usize = partitions.iter().map(Vec::len).sum();
                let cond_size: usize = partitions
                    .iter()
                    .flatten()
                    .map(|r| pool::resolve(r.cond_id()).size())
                    .sum();
                let mut args = vec![
                    ("rule", ri.into()),
                    ("head", self.rule.head.pred.as_str().into()),
                    ("matches", matches_in.into()),
                    ("rows_out", rows_out.into()),
                    ("cond_size", cond_size.into()),
                ];
                if let Some(dp) = self.plan.delta_pos {
                    args.push(("delta_pos", dp.into()));
                }
                args
            });
        Ok(partitions)
    }

    fn partitions(
        &self,
        threads: usize,
        f: &mut Frame,
        matches_in: &mut usize,
    ) -> Result<Vec<Vec<PreparedRow>>, EvalError> {
        // Comparisons with no rule variables gate the whole rule pass.
        for &ci in &self.plan.initial_comparisons {
            if !self.compare(ci, f)? {
                return Ok(Vec::new());
            }
        }
        if self.plan.steps.is_empty() {
            // Fact rule: a single (possibly negation-gated) head row.
            self.finish(f)?;
        } else {
            // Probe the first step once, in the driver: its key binds
            // no slot, so every worker would compute the same match
            // list anyway.
            let mut matches = Vec::new();
            self.probe(0, f, &mut matches);
            *matches_in = matches.len();
            let workers = super::parallel::workers(threads, matches.len());
            if workers > 1 {
                return super::parallel::join_chunks(self, workers, &matches, f);
            }
            self.join(0, &matches, f)?;
        }
        Ok(vec![std::mem::take(&mut f.out)])
    }

    /// Appends to `out` the matches of step `depth`'s source — rows of
    /// its table, or places in its delta's list — that match its literal
    /// under the frame's slots, each with its match condition `μ`.
    fn probe(&self, depth: usize, f: &mut Frame, out: &mut Vec<(u32, CondId)>) {
        f.key.clear();
        f.key
            .extend(self.plan.steps[depth].args.iter().map(|&arg| match arg {
                Arg::Const(c) => Some(c),
                Arg::CVar(i) => Some(Cell::Var(self.cvars[i])),
                Arg::Bound(s) => f.theta[s],
                Arg::Bind(_) => None,
            }));
        let src = self.sources[depth];
        match src.listed {
            None => exec::probe_key(src.table, self.ctx.reg, &f.key, out, &mut f.ops),
            Some(rows) => {
                exec::probe_listed(src.table, self.ctx.reg, &f.key, rows, out, &mut f.ops)
            }
        }
    }

    /// The join step: for each of `matches` — rows of step `depth`'s
    /// source ([`Source::row`]) — conjoins the row's condition and `μ`,
    /// binds the step's slots, applies its pushed-down comparisons,
    /// descends into the remaining steps (or, past the last one, emits
    /// the head row into `f.out`), and undoes the bindings and the
    /// conjunction.
    pub(super) fn join(
        &self,
        depth: usize,
        matches: &[(u32, CondId)],
        f: &mut Frame,
    ) -> Result<(), EvalError> {
        let src = self.sources[depth];
        let step = &self.plan.steps[depth];
        for &(m, mu) in matches {
            let (row, cond) = src.row(m);
            let (mark, start) = (f.acc.mark(), f.trail.len());
            let mut ok = f.acc.push_id(cond, &mut f.ops)
                && f.acc.push_id(mu, &mut f.ops)
                && f.bind(&step.args, src.table, row);
            // Pushed-down comparisons: every variable they mention is
            // bound by now, so ground-false ones cut the branch here
            // instead of after the remaining joins.
            for &ci in &step.comparisons {
                ok = ok && self.compare(ci, f)?;
            }
            if ok && depth + 1 < self.sources.len() {
                let mut next = std::mem::take(&mut f.bufs[depth + 1]);
                next.clear();
                self.probe(depth + 1, f, &mut next);
                let joined = self.join(depth + 1, &next, f);
                f.bufs[depth + 1] = next;
                joined?;
            } else if ok {
                self.finish(f)?;
            }
            f.acc.truncate(mark);
            for s in f.trail.drain(start..) {
                f.theta[s] = None;
            }
        }
        Ok(())
    }

    /// The cell `arg` reads under the frame's slots; `None` for a slot
    /// nothing bound.
    fn cell(&self, arg: Arg, f: &Frame) -> Option<Cell> {
        match arg {
            Arg::Const(c) => Some(c),
            Arg::CVar(i) => Some(Cell::Var(self.cvars[i])),
            Arg::Bound(s) | Arg::Bind(s) => f.theta[s],
        }
    }

    /// The cells `args`, compiled from `terms`, read under the frame's
    /// slots.
    fn cells(&self, args: &[Arg], terms: &[ArgTerm], f: &Frame) -> Result<Box<[Cell]>, EvalError> {
        args.iter()
            .zip(terms)
            .map(|(&arg, term)| self.cell(arg, f).ok_or_else(|| unbound(term.as_var())))
            .collect()
    }

    /// Evaluates comparison `ci` of the rule under the frame's slots:
    /// either the branch dies (ground-false; `false`), or a condition
    /// fragment (possibly `True`) joins the accumulator.
    fn compare(&self, ci: usize, f: &mut Frame) -> Result<bool, EvalError> {
        let (cmp, source) = (&self.plan.compare[ci], &self.rule.comparisons[ci]);
        let side = |side: &Side, source: &CompExpr| -> Result<Expr, EvalError> {
            match side {
                Side::Arg(arg) => match self.cell(*arg, f) {
                    Some(cell) => Ok(Expr::Term(cell.decode())),
                    None => Err(unbound(match source {
                        CompExpr::Arg(term) => term.as_var(),
                        CompExpr::Lin { .. } => None,
                    })),
                },
                Side::Lin { terms, constant } => Ok(Expr::Lin(
                    terms
                        .iter()
                        .fold(LinExpr::constant(*constant), |lin, &(coef, v)| {
                            lin.plus_var(coef, self.cvars[v])
                        }),
                )),
            }
        };
        let atom = Atom {
            lhs: side(&cmp.lhs, &source.lhs)?,
            op: cmp.op,
            rhs: side(&cmp.rhs, &source.rhs)?,
        };
        let mut vars = BTreeSet::new();
        atom.cvars(&mut vars);
        let alive = if vars.is_empty() {
            // Ground: decide now. A false (or undefined) comparison cuts
            // the branch before any further literal is joined.
            atom.eval(&|_| unreachable!("ground atom")) == Some(true)
        } else {
            f.acc.push(Condition::Atom(atom), &mut f.ops)
        };
        if !alive {
            f.ops.cmp_pruned += 1;
        }
        Ok(alive)
    }

    /// Applies negated literals, then emits the head row.
    fn finish(&self, f: &mut Frame) -> Result<(), EvalError> {
        let stored = if self.plan.negations.is_empty() {
            match self.ctx.leaves.conjoin(&f.acc) {
                Some(stored) => stored,
                None => return Ok(()),
            }
        } else {
            // Negation: "not derivable from the c-table". What it conjoins
            // depends on the negated tables, not on the stack alone, so
            // these leaves build their tree every time.
            let mut cond = f.acc.materialize();
            for ((args, &np), table) in self
                .plan
                .negated
                .iter()
                .zip(&self.plan.negations)
                .zip(&self.negated)
            {
                let cells = self.cells(args, &self.rule.body[np].atom().args, f)?;
                f.ops.neg_checks += 1;
                cond = cond.and(table.negation_condition_cells(self.ctx.reg, &cells));
                if cond == Condition::False {
                    return Ok(());
                }
            }
            let id = pool::intern(&canonicalize(faure_solver::simplify(&cond)));
            if id.is_false() {
                return Ok(());
            }
            // Looking the condition's normal form up here keeps that
            // work inside the worker thread; the serial merge is then
            // hash lookups.
            StoredCond::of(id)
        };
        let cells = self.cells(&self.plan.head, &self.rule.head.args, f)?;
        f.out.push(PreparedRow::with_stored(cells, stored));
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// condition canonicalisation
// ---------------------------------------------------------------------------

/// Sorts the children of `And` / `Or` nodes by the **total structural
/// order** on [`Condition`] so that logically identical conjunctions
/// built in different orders become structurally identical — the
/// delta-dedup in [`Table::insert`] then recognises them, which both
/// shrinks conditions and guarantees fixpoint termination.
///
/// The sort key used to be a 64-bit `DefaultHasher` value; two distinct
/// children with colliding hashes then got an arbitrary relative order,
/// so the "canonical" form was not collision-proof. Sorting by
/// `Condition`'s derived `Ord` is total and collision-free.
pub fn canonicalize(c: Condition) -> Condition {
    match c {
        Condition::And(cs) => {
            let mut cs: Vec<Condition> = Condition::take_children(cs)
                .into_iter()
                .map(canonicalize)
                .collect();
            cs.sort_unstable();
            cs.dedup();
            match cs.len() {
                0 => Condition::True,
                1 => cs.pop().expect("len checked"),
                _ => Condition::conj(cs),
            }
        }
        Condition::Or(cs) => {
            let mut cs: Vec<Condition> = Condition::take_children(cs)
                .into_iter()
                .map(canonicalize)
                .collect();
            cs.sort_unstable();
            cs.dedup();
            match cs.len() {
                0 => Condition::False,
                1 => cs.pop().expect("len checked"),
                _ => Condition::disj(cs),
            }
        }
        Condition::Not(inner) => canonicalize(Condition::take_inner(inner)).negate(),
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Program;
    use crate::parser::parse_program;
    use crate::plan::{compile_rule, head_bound_rules, ShardPlan};
    use faure_ctable::{CTuple, CVarId, CmpOp, Database, Domain, Schema, Term};
    use faure_trace::{Recorder, Tracer};
    use proptest::prelude::*;
    use std::sync::Arc;

    fn arb_fragment() -> impl Strategy<Value = Condition> {
        let atom = (0u32..4, 0i64..3, any::<bool>()).prop_map(|(v, k, eq)| {
            let op = if eq { CmpOp::Eq } else { CmpOp::Ne };
            Condition::cmp(Term::Var(CVarId(v)), op, Term::int(k))
        });
        let leaf = prop_oneof![
            atom,
            // Ground atoms, which `simplify` folds either way.
            (0i64..2).prop_map(|k| Condition::eq(Term::int(k), Term::int(1))),
        ];
        leaf.prop_recursive(2, 6, 3, |inner| {
            prop_oneof![
                prop::collection::vec(inner.clone(), 1..3).prop_map(Condition::conj),
                prop::collection::vec(inner, 1..3).prop_map(Condition::disj),
            ]
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// A memo miss, the hit that follows it and the tree path over
        /// the fragments as trees all store one condition (none when it
        /// is `False`); the memo starts empty and keeps one entry per
        /// distinct stack.
        #[test]
        fn leaf_hit_equals_miss_equals_tree_path(
            parts in prop::collection::vec(arb_fragment(), 0..4),
        ) {
            let mut ops = OpStats::default();
            let mut acc = CondAcc::new();
            for part in &parts {
                acc.push(part.clone(), &mut ops);
            }
            let tree = match parts.len() {
                0 => Condition::True,
                1 => parts[0].clone(),
                _ => Condition::conj(parts.clone()),
            };
            let expected = canonicalize(faure_solver::simplify(&tree));
            let memo = LeafMemo::default();
            prop_assert!(memo.seen.lock().unwrap().is_empty());
            let miss = memo.conjoin(&acc);
            let hit = memo.conjoin(&acc);
            let id = conjoin_trees(&acc);
            prop_assert_eq!(pool::resolve(id), expected);
            prop_assert_eq!(hit, miss);
            prop_assert_eq!((!id.is_false()).then(|| StoredCond::of(id)), miss);
            prop_assert_eq!(memo.seen.lock().unwrap().len(), 1);
        }
    }

    /// Two links per hop, each guarded by a `{0,1}` variable, one hop
    /// blocked conditionally.
    fn guarded_db() -> Database {
        let mut db = Database::new();
        db.create_relation(Schema::new("F", &["a", "b"])).unwrap();
        db.create_relation(Schema::new("Block", &["a"])).unwrap();
        let vars: Vec<CVarId> = (0..3)
            .map(|i| db.fresh_cvar(format!("l{i}"), Domain::Bool01))
            .collect();
        // Three guards over six links: conditions, and so id stacks,
        // repeat within one rule pass.
        for (i, (a, b)) in [(1, 2), (2, 3), (3, 1), (1, 3), (3, 4), (2, 4)]
            .into_iter()
            .enumerate()
        {
            db.insert(
                "F",
                CTuple::with_cond(
                    [Term::int(a), Term::int(b)],
                    Condition::eq(Term::Var(vars[i % 3]), Term::int(1)),
                ),
            )
            .unwrap();
        }
        db.insert(
            "Block",
            CTuple::with_cond(
                [Term::int(4)],
                Condition::eq(Term::Var(vars[0]), Term::int(0)),
            ),
        )
        .unwrap();
        db
    }

    /// One pass of rule `ri` of `program` over `tables`, as sorted
    /// `(terms, stored condition id)` pairs.
    fn rule_pass(
        program: &Program,
        ri: usize,
        db: &Database,
        tables: &HashMap<String, Arc<Table>>,
        leaves: &LeafMemo,
    ) -> Vec<(Vec<Term>, CondId)> {
        let cvmap = HashMap::new();
        let shard_plan = ShardPlan::default();
        let ctx = Ctx {
            cvmap: &cvmap,
            reg: &db.cvars,
            tracer: Tracer::disabled(),
            shard_plan: &shard_plan,
            delta_positions: &[],
            head_bound: &[],
            leaves,
        };
        let rule = &program.rules[ri];
        let plan = compile_rule(rule, None);
        let mut rows: Vec<(Vec<Term>, CondId)> = Pass::new(&ctx, rule, &plan, tables, None)
            .run(ri, 1, &mut OpStats::default())
            .unwrap()
            .into_iter()
            .flatten()
            .map(|row| (row.terms(), row.cond_id()))
            .collect();
        rows.sort();
        rows
    }

    /// What a table stores for `terms` under the tree `cond`.
    fn stored(terms: Vec<Term>, cond: Condition) -> (Vec<Term>, CondId) {
        let tree = canonicalize(faure_solver::simplify(&cond));
        (
            terms.clone(),
            PreparedRow::new(CTuple { terms, cond: tree }).cond_id(),
        )
    }

    /// Rule passes through the memo — all misses, then all hits — give
    /// the rows of the same joins written out over condition trees,
    /// with negation too; and a rule with a negated literal never
    /// touches the memo.
    #[test]
    fn rule_passes_match_hand_joined_trees() {
        let db = guarded_db();
        let program = parse_program(
            "Two(a, b) :- F(a, c), F(c, b).\n\
             Open(a, b) :- F(a, b), !Block(b).\n",
        )
        .unwrap();
        let tables: HashMap<String, Arc<Table>> = db
            .relations()
            .map(|rel| (rel.schema.name.clone(), Arc::new(Table::from_relation(rel))))
            .collect();
        let (f, block) = (&tables["F"], &tables["Block"]);

        let mut two = Vec::new();
        let mut open = Vec::new();
        for r1 in f.iter() {
            for r2 in f.iter().filter(|r2| r2.terms[0] == r1.terms[1]) {
                let cond = Condition::conj(vec![r1.cond.clone(), r2.cond.clone()]);
                two.push(stored(vec![r1.terms[0].clone(), r2.terms[1].clone()], cond));
            }
            let unblocked = block.negation_condition(&db.cvars, &r1.terms[1..]);
            open.push(stored(r1.terms.clone(), r1.cond.clone().and(unblocked)));
        }
        two.retain(|(_, id)| !id.is_false());
        open.retain(|(_, id)| !id.is_false());
        two.sort();
        open.sort();
        assert!(two.len() >= 6 && open.len() == 6);

        let leaves = LeafMemo::default();
        let misses = rule_pass(&program, 0, &db, &tables, &leaves);
        let entries = leaves.seen.lock().unwrap().len();
        assert!(0 < entries && entries < two.len(), "stacks repeat");
        let hits = rule_pass(&program, 0, &db, &tables, &leaves);
        assert_eq!(leaves.seen.lock().unwrap().len(), entries);
        assert_eq!(misses, two);
        assert_eq!(hits, two);

        let leaves = LeafMemo::default();
        assert_eq!(rule_pass(&program, 1, &db, &tables, &leaves), open);
        assert!(leaves.seen.lock().unwrap().is_empty());
    }

    // -----------------------------------------------------------------
    // worker chunks against the serial join
    // -----------------------------------------------------------------

    /// Two cell codes and a condition code, decoded as the differential
    /// corpus (`faure_tests::corpus`) decodes them: cells 0–2 are
    /// constants, 3 and 4 the c-variables `v0` and `v1`; condition 0 is
    /// `True`, the rest constrain `v0` and `v1`.
    type RowCode = (usize, usize, usize);

    fn arb_rows(max: usize) -> impl Strategy<Value = Vec<RowCode>> {
        prop::collection::vec((0usize..5, 0usize..5, 0usize..5), 1..max)
    }

    fn decode((a, b, c): RowCode) -> CTuple {
        let (v0, v1) = (Term::Var(CVarId(0)), Term::Var(CVarId(1)));
        let cell = |code: usize| match code {
            0..=2 => Term::int(code as i64),
            3 => v0.clone(),
            _ => v1.clone(),
        };
        let cond = match c {
            0 => Condition::True,
            1 => Condition::eq(v0.clone(), Term::int(1)),
            2 => Condition::ne(v0.clone(), Term::int(0)),
            3 => Condition::eq(v1.clone(), Term::int(1)),
            _ => {
                Condition::eq(v0.clone(), Term::int(1)).and(Condition::ne(v1.clone(), Term::int(0)))
            }
        };
        CTuple::with_cond([cell(a), cell(b)], cond)
    }

    /// Which plan of a rule a pass runs, as `Driver::pass` is asked for
    /// it: the full plan, a delta plan, or the head-bound companion
    /// with the delta pinned to its appended literal.
    #[derive(Clone, Copy, Debug)]
    enum Shape {
        Full,
        Delta(usize),
        HeadBound,
    }

    /// One rule per feature of the join step; the last one fails at
    /// every leaf it reaches (`z` is never bound).
    const PASSES: [(&str, Shape); 9] = [
        // The constant-bearing literal is planned first.
        ("Q(a, c) :- E(a, b), E(b, c), E(1, a).", Shape::Full),
        // Pushed-down comparisons, ground-false on some branches.
        ("Q(a, c) :- E(a, b), E(b, c), a != 1, c < 2.", Shape::Full),
        // Negation: the leaf builds its tree, no memo.
        ("Q(a) :- E(a, b), R(b, c), !E(b, a), a != 0.", Shape::Full),
        // C-variable-only comparison: pushed before depth 0, so every
        // worker must start from the driver's condition stack.
        ("Q(a) :- E(a, b), $v0 + $v1 < 3.", Shape::Full),
        // A variable repeated within one literal; c-variables as
        // literal and head arguments.
        ("Q(a, $v1) :- E(a, a), R(a, $v0).", Shape::Full),
        // Semi-naive delta passes, linear and non-linear.
        ("R(a, c) :- E(a, b), R(b, c).", Shape::Delta(1)),
        ("R(a, c) :- R(a, b), R(b, c).", Shape::Delta(0)),
        // A withdraw's re-derivation over the lost keys.
        ("R(a, c) :- E(a, b), R(b, c).", Shape::HeadBound),
        ("Q(a, z) :- E(a, b), !R(a, a).", Shape::Full),
    ];

    /// What a pass derived, in order, and what it counted.
    type Joined = (Vec<(Vec<Term>, CondId)>, OpStats);

    /// Depth 0 of `pass` as [`Pass::partitions`] runs it — initial
    /// comparisons, one probe — then the join of the matches: in this
    /// thread, or cut into chunks for `workers` threads whatever
    /// `parallel::workers` would have said of so short a list.
    fn join_depth_zero(pass: &Pass<'_>, workers: Option<usize>) -> Result<Joined, String> {
        let mut f = Frame::new(pass.plan);
        for &ci in &pass.plan.initial_comparisons {
            assert!(pass.compare(ci, &mut f).unwrap(), "never ground-false");
        }
        let mut matches = Vec::new();
        pass.probe(0, &mut f, &mut matches);
        let partitions = match workers {
            None => pass
                .join(0, &matches, &mut f)
                .map(|()| vec![std::mem::take(&mut f.out)]),
            Some(w) => {
                let partitions = super::super::parallel::join_chunks(pass, w, &matches, &mut f);
                if let Ok(parts) = &partitions {
                    assert!(parts.len() >= w.min(matches.len()), "really split");
                    assert!(f.out.is_empty());
                }
                partitions
            }
        };
        let rows = partitions.map_err(|e| format!("{e:?}"))?;
        let rows = rows.into_iter().flatten();
        Ok((rows.map(|r| (r.terms(), r.cond_id())).collect(), f.ops))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The chunks of a pass, joined on 2–4 worker threads and
        /// concatenated in chunk order, are the serial join: the same
        /// rows and condition ids in the same order, the same operator
        /// counters, the same error; and the buffered chunk spans come
        /// out in chunk order, one per partition.
        #[test]
        fn worker_chunks_equal_the_serial_join(
            e in arb_rows(40),
            r in arb_rows(12),
            delta in arb_rows(24),
            which in 0usize..PASSES.len(),
        ) {
            let mut db = Database::new();
            db.fresh_cvar("v0", Domain::Ints(vec![0, 1, 2]));
            db.fresh_cvar("v1", Domain::Ints(vec![0, 1, 2]));
            for (name, rows) in [("E", &e), ("R", &r)] {
                db.create_relation(Schema::new(name, &["a", "b"])).unwrap();
                for &row in rows {
                    db.insert(name, decode(row)).unwrap();
                }
            }
            let (src, shape) = PASSES[which];
            let program = parse_program(src).unwrap();
            let cvmap = super::super::resolve_cvars(&program, &mut db);
            let tables: HashMap<String, Arc<Table>> = db
                .relations()
                .map(|rel| (rel.schema.name.clone(), Arc::new(Table::from_relation(rel))))
                .collect();
            let companions = head_bound_rules(&program);
            let (rule, delta_pos) = match shape {
                Shape::Full => (&program.rules[0], None),
                Shape::Delta(pos) => (&program.rules[0], Some(pos)),
                Shape::HeadBound => (&companions[0], Some(program.rules[0].body.len())),
            };
            let mut delta_table = Table::new(Schema::new("R", &["a", "b"]));
            for (a, b, c) in delta {
                // Lost keys carry the condition `True`.
                let c = if matches!(shape, Shape::HeadBound) { 0 } else { c };
                delta_table.insert(decode((a, b, c))).unwrap();
            }
            let plan = compile_rule(rule, delta_pos);
            let shard_plan = ShardPlan::default();
            let run = |workers: Option<usize>, tracer: Tracer| {
                // A memo per run: the workers' leaves are misses they
                // race on, not hits the serial run left behind.
                let ctx = Ctx {
                    cvmap: &cvmap,
                    reg: &db.cvars,
                    tracer,
                    shard_plan: &shard_plan,
                    delta_positions: &[],
                    head_bound: &[],
                    leaves: &LeafMemo::default(),
                };
                let delta = delta_pos.map(|_| DeltaRows::Table(&delta_table));
                join_depth_zero(&Pass::new(&ctx, rule, &plan, &tables, delta), workers)
            };

            let serial = run(None, Tracer::disabled());
            if let Err(e) = &serial {
                prop_assert!(which == PASSES.len() - 1 && e.contains("\"z\""), "{}", e);
            }
            for workers in 2..=4 {
                let rec = Arc::new(Recorder::new());
                let chunked = run(Some(workers), Tracer::new(rec.clone()));
                match (&serial, &chunked) {
                    (Ok(_), Ok(_)) => prop_assert_eq!(&serial, &chunked, "workers={}\n{}", workers, src),
                    // Serial stops at its first failing leaf, the
                    // workers drain the other chunks: counters differ.
                    _ => prop_assert_eq!(serial.as_ref().err(), chunked.as_ref().err()),
                }
                let spans = rec.take();
                let spans: Vec<_> = spans.iter().filter(|s| s.name == "chunk").collect();
                for (i, span) in spans.iter().enumerate() {
                    prop_assert_eq!(span.arg_u64("chunk"), Some(i as u64));
                }
                if let Ok((rows, ops)) = &chunked {
                    let sum = |key| spans.iter().filter_map(|s| s.arg_u64(key)).sum::<u64>();
                    prop_assert_eq!(sum("rows_out"), rows.len() as u64);
                    // Depth 0 was one probe, of exactly the matches.
                    prop_assert!(sum("matches") <= ops.rows_matched);
                    prop_assert!(spans.len() >= workers.min(sum("matches") as usize));
                }
            }
        }
    }
}
