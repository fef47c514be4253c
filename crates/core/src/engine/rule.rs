//! Single-rule plan execution — the c-valuation.
//!
//! A compiled [`RulePlan`] is executed as a nested-loop join over
//! c-tables. A [`Pass`] holds what one rule pass reads — shared,
//! immutable, the same for every thread — and a [`Frame`] what one
//! thread of it writes: its substitution, condition stack, counters and
//! derived rows. The join is one function, [`Pass::join`]: it takes the
//! matches of one step and, per match, conjoins, binds, compares,
//! descends into the next step (or finishes the head row) and undoes.
//!
//! The driver ([`Pass::run`]) probes the plan's first step once — those
//! patterns never depend on the substitution, which is empty at depth 0
//! — and joins the matches itself, or cuts the list into contiguous
//! chunks and hands each to a worker that joins it into a frame of its
//! own (see [`super::parallel`]).

use super::{Ctx, EvalError};
use crate::ast::{ArgTerm, CompExpr, Comparison, Rule, RuleAtom};
use crate::plan::RulePlan;
use faure_ctable::pool::{self, CondId};
use faure_ctable::{Atom, Condition, Expr, LinExpr, Term};
use faure_storage::table::Cell;
use faure_storage::{exec, CondAcc, OpStats, Pattern, PreparedRow, Table};
use std::collections::{BTreeSet, HashMap};
use std::sync::Mutex;

/// What the join leaf made of each stack of condition ids it has seen:
/// `ids ↦ intern(canonicalize(simplify(⋀ ids)))`.
///
/// The conjunction, its structural simplification and its canonical
/// form are pure functions of the trees the ids name, so the id of the
/// result is a pure function of the id stack. A stack seen before is a
/// lookup; a new one goes through the tree functions and is remembered.
/// Either way the leaf holds the id the tree path would have interned —
/// bit-identical by construction.
///
/// One memo per run, shared by every worker of the run (a lock held for
/// one hash probe per leaf); being keyed by tuples of ids it would only
/// grow if it outlived the run, so it does not.
#[derive(Default)]
pub(crate) struct LeafMemo {
    seen: Mutex<HashMap<Box<[CondId]>, CondId>>,
}

impl LeafMemo {
    /// The id of `canonicalize(simplify(acc.materialize()))`.
    fn conjoin(&self, acc: &CondAcc) -> CondId {
        let stack = acc.ids();
        if let Some(&id) = self.seen.lock().expect("leaf memo poisoned").get(stack) {
            return id;
        }
        // Computed with the lock released: workers racing on one stack
        // intern the same tree.
        let id = conjoin_trees(acc);
        self.seen
            .lock()
            .expect("leaf memo poisoned")
            .insert(stack.into(), id);
        id
    }
}

/// The tree path of the join leaf.
fn conjoin_trees(acc: &CondAcc) -> CondId {
    pool::intern(&canonicalize(faure_solver::simplify(&acc.materialize())))
}

/// What one rule pass reads: the run's context, the rule and its
/// compiled plan, the standing tables, and — resolved once here, not
/// per match — the literal and table behind every join step. Shared by
/// every thread of the pass.
pub(super) struct Pass<'a> {
    pub(super) ctx: &'a Ctx<'a>,
    rule: &'a Rule,
    plan: &'a RulePlan,
    tables: &'a HashMap<String, Table>,
    /// Per join step, the body literal it matches and the table it
    /// matches it against: the iteration delta for the plan's delta
    /// slot, the accumulated table otherwise.
    sources: Vec<(&'a RuleAtom, &'a Table)>,
}

/// What one thread of a pass writes. [`Pass::join`] leaves the
/// substitution and the condition stack as it found them, so one frame
/// serves every match its thread evaluates.
#[derive(Default)]
pub(super) struct Frame<'a> {
    theta: HashMap<&'a str, Term>,
    /// The bound variables in binding order: a step undoes its own
    /// bindings by popping back to where it started.
    trail: Vec<&'a str>,
    acc: CondAcc,
    pub(super) ops: OpStats,
    pub(super) out: Vec<PreparedRow>,
}

impl<'a> Frame<'a> {
    /// A worker's frame at depth 0 of the pass `driver` started: no
    /// variable is bound there, and the condition stack holds what the
    /// pass's initial comparisons pushed.
    pub(super) fn at_depth_zero(driver: &Frame<'_>) -> Self {
        Frame {
            acc: driver.acc.clone(),
            ..Frame::default()
        }
    }

    /// Binds `atom`'s variables against row `row_idx` of `table`,
    /// pushing explicit equalities for variables repeated *within* the
    /// atom — those bound since `start` (pre-bound variables were
    /// already covered by the probe pattern). Only the cells under
    /// variable arguments are decoded out of the columnar store —
    /// constant arguments never touch the row. Returns `false` when a
    /// binding is contradictory.
    fn bind(&mut self, atom: &'a RuleAtom, table: &Table, row_idx: usize, start: usize) -> bool {
        for (col, arg) in atom.args.iter().enumerate() {
            let ArgTerm::Var(v) = arg else { continue };
            let cell = table.term(row_idx, col);
            match self.theta.get(v.as_str()) {
                None => {
                    self.theta.insert(v.as_str(), cell);
                    self.trail.push(v.as_str());
                }
                Some(prev) if self.trail[start..].contains(&v.as_str()) => match (prev, &cell) {
                    (Term::Const(a), Term::Const(b)) if a != b => return false,
                    (a, b) if a != b => {
                        let eq = Condition::eq(a.clone(), b.clone());
                        if !self.acc.push(eq, &mut self.ops) {
                            return false;
                        }
                    }
                    _ => {}
                },
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
        tables: &'a HashMap<String, Table>,
        delta: Option<&'a Table>,
    ) -> Self {
        debug_assert_eq!(plan.delta_pos.is_some(), delta.is_some());
        let sources = plan
            .steps
            .iter()
            .map(|step| {
                let atom = rule.body[step.lit_pos].atom();
                let table = if step.is_delta {
                    delta.expect("delta plan executed with a delta table")
                } else {
                    tables.get(&atom.pred).expect("table created in setup")
                };
                (atom, table)
            })
            .collect();
        Pass {
            ctx,
            rule,
            plan,
            tables,
            sources,
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
        let mut frame = Frame::default();
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
        f: &mut Frame<'a>,
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
            // Probe the first step once, in the driver: depth-0 patterns
            // are substitution-independent, so every worker would
            // compute the same match list anyway.
            let matches = self.probe(0, f);
            *matches_in = matches.len();
            let workers = super::parallel::workers(threads, matches.len());
            if workers > 1 {
                return super::parallel::join_chunks(self, workers, &matches, f);
            }
            self.join(0, matches, f)?;
        }
        Ok(vec![std::mem::take(&mut f.out)])
    }

    /// The rows of step `depth`'s table that match its literal under
    /// the frame's substitution, each with its match condition `μ`.
    fn probe(&self, depth: usize, f: &mut Frame<'a>) -> Vec<(usize, Condition)> {
        let (atom, table) = self.sources[depth];
        let patterns: Vec<Pattern> = atom
            .args
            .iter()
            .map(|arg| match arg {
                ArgTerm::Cst(c) => Pattern::Exact(Term::Const(c.clone())),
                ArgTerm::CVar(name) => Pattern::Exact(Term::Var(self.ctx.cvmap[name])),
                ArgTerm::Var(v) => match f.theta.get(v.as_str()) {
                    Some(t) => Pattern::Exact(t.clone()),
                    None => Pattern::Any,
                },
            })
            .collect();
        exec::probe(table, self.ctx.reg, &patterns, &mut f.ops)
    }

    /// The join step: for each of `matches` — rows of step `depth`'s
    /// table — conjoins the row's condition and `μ`, binds the step's
    /// variables, applies its pushed-down comparisons, descends into
    /// the remaining steps (or, past the last one, emits the head row
    /// into `f.out`), and undoes the bindings and the conjunction. The
    /// matches are consumed: only a worker, joining a slice of the
    /// shared depth-0 list, clones them.
    pub(super) fn join(
        &self,
        depth: usize,
        matches: impl IntoIterator<Item = (usize, Condition)>,
        f: &mut Frame<'a>,
    ) -> Result<(), EvalError> {
        let (atom, table) = self.sources[depth];
        for (row_idx, mu) in matches {
            let (mark, start) = (f.acc.mark(), f.trail.len());
            let mut ok = f.acc.push_id(table.cond_id(row_idx), &mut f.ops)
                && f.acc.push(mu, &mut f.ops)
                && f.bind(atom, table, row_idx, start);
            // Pushed-down comparisons: every variable they mention is
            // bound by now, so ground-false ones cut the branch here
            // instead of after the remaining joins.
            for &ci in &self.plan.steps[depth].comparisons {
                ok = ok && self.compare(ci, f)?;
            }
            if ok && depth + 1 < self.sources.len() {
                let next = self.probe(depth + 1, f);
                self.join(depth + 1, next, f)?;
            } else if ok {
                self.finish(f)?;
            }
            f.acc.truncate(mark);
            for v in f.trail.drain(start..) {
                f.theta.remove(v);
            }
        }
        Ok(())
    }

    /// Evaluates comparison `ci` of the rule under the frame's
    /// substitution: either the branch dies (ground-false; `false`), or
    /// a condition fragment (possibly `True`) joins the accumulator.
    fn compare(&self, ci: usize, f: &mut Frame<'a>) -> Result<bool, EvalError> {
        let atom = comparison_atom(self.ctx, &self.rule.comparisons[ci], &f.theta)?;
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
    fn finish(&self, f: &mut Frame<'a>) -> Result<(), EvalError> {
        let cond_id = if self.plan.negations.is_empty() {
            self.ctx.leaves.conjoin(&f.acc)
        } else {
            // Negation: "not derivable from the c-table". What it conjoins
            // depends on the negated tables, not on the stack alone, so
            // these leaves build their tree every time.
            let mut cond = f.acc.materialize();
            for &np in &self.plan.negations {
                let atom = self.rule.body[np].atom();
                let terms = instantiate_args(self.ctx, &atom.args, &f.theta)?;
                let table = self.tables.get(&atom.pred).expect("table created in setup");
                f.ops.neg_checks += 1;
                cond = cond.and(table.negation_condition(self.ctx.reg, &terms));
                if cond == Condition::False {
                    return Ok(());
                }
            }
            pool::intern(&canonicalize(faure_solver::simplify(&cond)))
        };
        if cond_id.is_false() {
            return Ok(());
        }
        // Looking the condition's normal form up here keeps that work
        // inside the worker thread; the serial merge is then hash lookups.
        let cells = instantiate_cells(self.ctx, &self.rule.head.args, &f.theta)?;
        f.out.push(PreparedRow::from_id(cells, cond_id));
        Ok(())
    }
}

/// [`instantiate_args`] straight to storage cells: no term is cloned.
fn instantiate_cells(
    ctx: &Ctx<'_>,
    args: &[ArgTerm],
    theta: &HashMap<&str, Term>,
) -> Result<Box<[Cell]>, EvalError> {
    args.iter()
        .map(|a| match a {
            ArgTerm::Cst(c) => Ok(Cell::encode_const(c)),
            ArgTerm::CVar(name) => Ok(Cell::Var(ctx.cvmap[name])),
            ArgTerm::Var(v) => theta
                .get(v.as_str())
                .map(Cell::encode)
                .ok_or_else(|| EvalError::UnboundVariable(v.clone())),
        })
        .collect()
}

fn instantiate_args(
    ctx: &Ctx<'_>,
    args: &[ArgTerm],
    theta: &HashMap<&str, Term>,
) -> Result<Vec<Term>, EvalError> {
    args.iter()
        .map(|a| match a {
            ArgTerm::Cst(c) => Ok(Term::Const(c.clone())),
            ArgTerm::CVar(name) => Ok(Term::Var(ctx.cvmap[name])),
            ArgTerm::Var(v) => theta
                .get(v.as_str())
                .cloned()
                .ok_or_else(|| EvalError::UnboundVariable(v.clone())),
        })
        .collect()
}

/// Converts an AST comparison into a condition atom under the current
/// substitution.
fn comparison_atom(
    ctx: &Ctx<'_>,
    cmp: &Comparison,
    theta: &HashMap<&str, Term>,
) -> Result<Atom, EvalError> {
    let side = |e: &CompExpr| -> Result<Expr, EvalError> {
        match e {
            CompExpr::Arg(ArgTerm::Cst(c)) => Ok(Expr::Term(Term::Const(c.clone()))),
            CompExpr::Arg(ArgTerm::CVar(name)) => Ok(Expr::Term(Term::Var(ctx.cvmap[name]))),
            CompExpr::Arg(ArgTerm::Var(v)) => theta
                .get(v.as_str())
                .cloned()
                .map(Expr::Term)
                .ok_or_else(|| EvalError::UnboundVariable(v.clone())),
            CompExpr::Lin { terms, constant } => {
                let mut lin = LinExpr::constant(*constant);
                for (coef, name) in terms {
                    lin = lin.plus_var(*coef, ctx.cvmap[name]);
                }
                Ok(Expr::Lin(lin))
            }
        }
    };
    Ok(Atom {
        lhs: side(&cmp.lhs)?,
        op: cmp.op,
        rhs: side(&cmp.rhs)?,
    })
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
    use faure_ctable::{CTuple, CVarId, CmpOp, Database, Domain, Schema};
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
        /// the fragments as trees all name one condition; the memo
        /// starts empty and keeps one entry per distinct stack.
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
            prop_assert_eq!(pool::resolve(miss), expected);
            prop_assert_eq!(hit, miss);
            prop_assert_eq!(conjoin_trees(&acc), miss);
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
        tables: &HashMap<String, Table>,
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
        let tables: HashMap<String, Table> = db
            .relations()
            .map(|rel| (rel.schema.name.clone(), Table::from_relation(rel)))
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
        let mut f = Frame::default();
        for &ci in &pass.plan.initial_comparisons {
            assert!(pass.compare(ci, &mut f).unwrap(), "never ground-false");
        }
        let matches = pass.probe(0, &mut f);
        let partitions = match workers {
            None => pass
                .join(0, matches, &mut f)
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
            let tables: HashMap<String, Table> = db
                .relations()
                .map(|rel| (rel.schema.name.clone(), Table::from_relation(rel)))
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
                let delta = delta_pos.map(|_| &delta_table);
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
