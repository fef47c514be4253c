//! # faure-solver — decision procedure for c-table conditions
//!
//! The Fauré paper's practical implementation (§6) invokes **Z3** as
//! its third evaluation phase, "to remove tuples with contradictory
//! conditions". This crate is the repo's Z3 substitute: a sound and
//! complete decision procedure for the condition fragment that fauré
//! actually generates —
//!
//! * boolean combinations (`∧`, `∨`, `¬`) of atoms;
//! * atoms that are (dis)equalities / orderings between **terms**
//!   (constants and c-variables), e.g. `x̄ = [ABC]`, `ȳ ≠ 1.2.3.4`;
//! * atoms that compare **integer linear expressions** over
//!   finite-domain c-variables, e.g. `x̄ + ȳ + z̄ = 1`, `ȳ + z̄ < 2`.
//!
//! ## Architecture
//!
//! A condition is converted to negation normal form ([`nnf`]), then a
//! depth-first search over the `∨`-structure enumerates candidate
//! conjunctions of atoms ([`search`]); each candidate conjunction is
//! decided by a small constraint solver ([`theory`]) that combines a
//! union-find equality engine with finite-domain backtracking search.
//!
//! Before any search, the prune reads a condition whose atoms all range
//! over small finite domains off bit masks ([`mask`]): one `u64` truth
//! table per atom, decided with word operations. The search runs only
//! for conditions without that form.
//!
//! ## Completeness contract
//!
//! The procedure is complete when:
//!
//! * every c-variable occurring in an **order or linear** atom has a
//!   *finite* domain (link states, ports, subnets — all the paper's
//!   uses); otherwise [`SolverError::OpenDomainArith`] is returned
//!   rather than a wrong answer;
//! * c-variables with an open domain occur only in equality /
//!   disequality atoms — for those, the infinite-domain argument makes
//!   the equality engine complete (a fresh value distinct from all
//!   mentioned constants always exists).
//!
//! ## Entry points
//!
//! * [`satisfiable`] / [`find_model`] — SAT check and model extraction;
//! * [`implies`] / [`equivalent`] — entailment and equivalence;
//! * [`fn@simplify`] — structural simplification plus solver-backed
//!   pruning of unsatisfiable branches (the paper's phase 3);
//! * [`Session`] — a stats-collecting wrapper used by the evaluation
//!   pipeline to report the "Z3 time" column of Table 4.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod mask;
mod memo;
pub mod nnf;
pub mod search;
pub mod session;
pub mod simplify;
pub mod theory;

pub use error::SolverError;
pub use faure_trace::Histogram;
pub use search::{all_models, find_model, satisfiable};
pub use session::{Session, SolverStats};
pub use simplify::simplify;

use faure_ctable::{CVarRegistry, Condition};

/// Does `premise` entail `conclusion` (i.e. is `premise ∧ ¬conclusion`
/// unsatisfiable)?
pub fn implies(
    reg: &CVarRegistry,
    premise: &Condition,
    conclusion: &Condition,
) -> Result<bool, SolverError> {
    let counterexample = premise.clone().and(conclusion.clone().negate());
    Ok(!satisfiable(reg, &counterexample)?)
}

/// Are the two conditions equivalent (mutual implication)?
pub fn equivalent(reg: &CVarRegistry, a: &Condition, b: &Condition) -> Result<bool, SolverError> {
    Ok(implies(reg, a, b)? && implies(reg, b, a)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use faure_ctable::{CmpOp, Condition, Domain, LinExpr, Term};

    #[test]
    fn implication_basics() {
        let mut reg = CVarRegistry::new();
        let x = reg.fresh("x", Domain::Bool01);
        let y = reg.fresh("y", Domain::Bool01);
        let x_is_1 = Condition::eq(Term::Var(x), Term::int(1));
        let sum_is_2 = Condition::cmp(LinExpr::sum([x, y]), CmpOp::Eq, LinExpr::constant(2));
        // x̄+ȳ=2 (over {0,1}) forces x̄=1.
        assert!(implies(&reg, &sum_is_2, &x_is_1).unwrap());
        assert!(!implies(&reg, &x_is_1, &sum_is_2).unwrap());
    }

    #[test]
    fn equivalence_of_reformulations() {
        let mut reg = CVarRegistry::new();
        let x = reg.fresh("x", Domain::Bool01);
        // Over {0,1}: x̄ ≠ 0 ≡ x̄ = 1.
        let a = Condition::ne(Term::Var(x), Term::int(0));
        let b = Condition::eq(Term::Var(x), Term::int(1));
        assert!(equivalent(&reg, &a, &b).unwrap());
        assert!(!equivalent(&reg, &a, &Condition::True).unwrap());
    }
}
