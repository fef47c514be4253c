//! Condition simplification — the paper's evaluation phase 3.
//!
//! [`simplify`] performs two layers of cleanup:
//!
//! 1. **structural**: constant folding, flattening, deduplication of
//!    identical children, ground-atom evaluation;
//! 2. **solver-backed** (optional, via [`simplify_pruned`]): removal of
//!    unsatisfiable `Or` branches and detection of globally
//!    valid/contradictory conditions.
//!
//! Structural simplification never calls the solver and is safe to run
//! eagerly during evaluation; the solver-backed pass is what the paper
//! describes as "invoking Z3 to remove tuples with contradictory
//! conditions" (plus a validity check that turns always-true conditions
//! into the empty condition).
//!
//! The engine's prune reaches [`simplify_pruned`] only for conditions
//! without a [mask form](crate::mask): a condition whose atoms all range
//! over small finite domains is decided with word operations first, to
//! the same result (see [`crate::Session::prune_by_mask`]).

use crate::error::SolverError;
use crate::search::satisfiable;
use faure_ctable::{CVarRegistry, Condition};
use std::collections::BTreeSet;

/// Structurally simplifies a condition (no solver calls).
///
/// Guarantees: the result is logically equivalent and no larger (by
/// [`Condition::size`]) than the input, modulo flattening.
pub fn simplify(cond: &Condition) -> Condition {
    match cond {
        Condition::True | Condition::False => cond.clone(),
        Condition::Atom(a) => {
            let mut vars = BTreeSet::new();
            a.cvars(&mut vars);
            if vars.is_empty() {
                match a.eval(&|_| unreachable!("ground atom")) {
                    Some(true) => Condition::True,
                    Some(false) | None => Condition::False,
                }
            } else {
                cond.clone()
            }
        }
        Condition::Not(inner) => simplify(inner).negate(),
        Condition::And(cs) => {
            let mut out: Vec<Condition> = Vec::with_capacity(cs.len());
            for c in cs.iter() {
                match simplify(c) {
                    Condition::True => {}
                    Condition::False => return Condition::False,
                    Condition::And(nested) => {
                        for n in Condition::take_children(nested) {
                            if !out.contains(&n) {
                                out.push(n);
                            }
                        }
                    }
                    other => {
                        if !out.contains(&other) {
                            out.push(other);
                        }
                    }
                }
            }
            match out.len() {
                0 => Condition::True,
                1 => out.pop().expect("len checked"),
                _ => Condition::conj(out),
            }
        }
        Condition::Or(cs) => {
            let mut out: Vec<Condition> = Vec::with_capacity(cs.len());
            for c in cs.iter() {
                match simplify(c) {
                    Condition::False => {}
                    Condition::True => return Condition::True,
                    Condition::Or(nested) => {
                        for n in Condition::take_children(nested) {
                            if !out.contains(&n) {
                                out.push(n);
                            }
                        }
                    }
                    other => {
                        if !out.contains(&other) {
                            out.push(other);
                        }
                    }
                }
            }
            match out.len() {
                0 => Condition::False,
                1 => out.pop().expect("len checked"),
                _ => Condition::disj(out),
            }
        }
    }
}

/// Conditions larger than this skip the validity check and the
/// per-branch pruning in [`simplify_pruned`]: checking *validity*
/// negates the condition, which turns a wide disjunction into a wide
/// conjunction whose DNF exploration is exponential. Satisfiability of
/// the condition itself stays cheap (first satisfiable branch wins).
pub const VALIDITY_SIZE_LIMIT: usize = 128;

/// Solver-backed simplification: structural cleanup, then
///
/// * `False` if the whole condition is unsatisfiable;
/// * `True` if its negation is unsatisfiable (the condition is valid);
/// * otherwise, the condition with unsatisfiable top-level `Or`
///   branches removed.
///
/// Best-effort on oversized inputs: conditions above
/// [`VALIDITY_SIZE_LIMIT`] only get the (cheap) satisfiability check,
/// and a search-budget overrun on any check degrades to returning the
/// structurally simplified condition — always sound, since keeping a
/// row with an unverified condition never loses answers.
pub fn simplify_pruned(reg: &CVarRegistry, cond: &Condition) -> Result<Condition, SolverError> {
    let s = simplify(cond);
    match &s {
        Condition::True | Condition::False => return Ok(s),
        _ => {}
    }
    match satisfiable(reg, &s) {
        Ok(true) => {}
        Ok(false) => return Ok(Condition::False),
        Err(SolverError::BudgetExceeded { .. }) => return Ok(s),
        Err(e) => return Err(e),
    }
    if s.size() > VALIDITY_SIZE_LIMIT {
        return Ok(s);
    }
    match satisfiable(reg, &s.clone().negate()) {
        Ok(true) => {}
        Ok(false) => return Ok(Condition::True),
        Err(SolverError::BudgetExceeded { .. }) => return Ok(s),
        Err(e) => return Err(e),
    }
    if let Condition::Or(branches) = &s {
        let mut kept = Vec::with_capacity(branches.len());
        for b in branches.iter() {
            if satisfiable(reg, b)? {
                kept.push(b.clone());
            }
        }
        if kept.len() == 1 {
            return Ok(kept.pop().expect("len checked"));
        }
        if kept.len() != branches.len() {
            return Ok(Condition::disj(kept));
        }
    }
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use faure_ctable::{CmpOp, Condition, Domain, LinExpr, Term};

    #[test]
    fn folds_ground_atoms() {
        assert_eq!(
            simplify(&Condition::eq(Term::int(1), Term::int(1))),
            Condition::True
        );
        assert_eq!(
            simplify(&Condition::eq(Term::sym("a"), Term::sym("b"))),
            Condition::False
        );
    }

    #[test]
    fn dedupes_and_flattens() {
        let mut reg = CVarRegistry::new();
        let x = reg.fresh("x", Domain::Bool01);
        let a = Condition::eq(Term::Var(x), Term::int(1));
        let c = Condition::conj(vec![
            a.clone(),
            Condition::conj(vec![a.clone(), Condition::True]),
        ]);
        assert_eq!(simplify(&c), a);
    }

    #[test]
    fn and_false_collapses() {
        let mut reg = CVarRegistry::new();
        let x = reg.fresh("x", Domain::Bool01);
        let c = Condition::eq(Term::Var(x), Term::int(1))
            .and(Condition::eq(Term::int(0), Term::int(1)));
        assert_eq!(simplify(&c), Condition::False);
    }

    #[test]
    fn pruned_detects_unsat() {
        let mut reg = CVarRegistry::new();
        let x = reg.fresh("x", Domain::Bool01);
        let c = Condition::eq(Term::Var(x), Term::int(0))
            .and(Condition::eq(Term::Var(x), Term::int(1)));
        assert_eq!(simplify_pruned(&reg, &c).unwrap(), Condition::False);
    }

    #[test]
    fn pruned_detects_valid() {
        let mut reg = CVarRegistry::new();
        let x = reg.fresh("x", Domain::Bool01);
        // x̄ = 0 ∨ x̄ = 1 over {0,1} is valid.
        let c =
            Condition::eq(Term::Var(x), Term::int(0)).or(Condition::eq(Term::Var(x), Term::int(1)));
        assert_eq!(simplify_pruned(&reg, &c).unwrap(), Condition::True);
    }

    #[test]
    fn pruned_drops_unsat_branches() {
        let mut reg = CVarRegistry::new();
        let x = reg.fresh("x", Domain::Bool01);
        let y = reg.fresh("y", Domain::Bool01);
        let live = Condition::eq(Term::Var(x), Term::int(1));
        let dead = Condition::cmp(LinExpr::sum([x, y]), CmpOp::Gt, LinExpr::constant(2));
        // live ∨ dead — but `dead ∨ live` isn't valid, so branches stay split.
        let c = live
            .clone()
            .or(dead)
            .and(Condition::eq(Term::Var(y), Term::int(0)));
        // Note: top level is And; simplification keeps it; just check sat-ness.
        let got = simplify_pruned(&reg, &c).unwrap();
        assert_ne!(got, Condition::False);
        // A pure Or with a dead branch gets pruned down to the live one —
        // unless the live one alone is valid; pick one that is not.
        let or_case = Condition::eq(Term::Var(x), Term::int(1)).or(Condition::cmp(
            LinExpr::sum([x, y]),
            CmpOp::Gt,
            LinExpr::constant(2),
        ));
        assert_eq!(
            simplify_pruned(&reg, &or_case).unwrap(),
            Condition::eq(Term::Var(x), Term::int(1))
        );
    }

    #[test]
    fn simplify_preserves_equivalence() {
        let mut reg = CVarRegistry::new();
        let x = reg.fresh("x", Domain::Bool01);
        let y = reg.fresh("y", Domain::Bool01);
        let c = Condition::eq(Term::Var(x), Term::int(1))
            .and(Condition::eq(Term::int(2), Term::int(2)))
            .or(Condition::eq(Term::Var(y), Term::int(0)).and(Condition::False));
        let s = simplify(&c);
        assert!(crate::equivalent(&reg, &c, &s).unwrap());
    }
}
