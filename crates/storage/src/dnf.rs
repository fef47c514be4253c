//! Minimal-DNF condition representation.
//!
//! Fixpoint evaluation over cyclic forwarding graphs re-derives the
//! same tuple along many walks; each walk contributes a conjunction of
//! link conditions, and a walk that uses a *superset* of another
//! walk's links contributes a strictly weaker disjunct. Keeping every
//! such disjunct makes row conditions — and the fixpoint itself —
//! explode combinatorially.
//!
//! The classical remedy (minimal witnesses / irredundant DNF) is
//! implemented here: a condition is normalised to a **set of atom
//! sets** (disjunction of conjunctions) kept as an *antichain* under
//! set inclusion, with two cheap local reductions applied per set:
//!
//! * ground atoms are folded (true → dropped, false → set removed);
//! * directly contradictory pairs over one c-variable (`v̄ = a ∧ v̄ = b`
//!   with `a ≠ b`, or `v̄ = a ∧ v̄ ≠ a`) remove the set — these arise
//!   whenever conditions of *different backup paths* of the same
//!   prefix are conjoined, so catching them locally keeps the engine
//!   polynomial on the RIB workload.
//!
//! Conversion distributes `∧` over `∨` and can therefore blow up on
//! adversarial inputs; [`to_min_dnf`] gives up beyond a set budget and
//! the caller falls back to the opaque structural representation.

use faure_ctable::pool::{self, CondId};
use faure_ctable::{Atom, CmpOp, Condition, Expr, Term};
use std::collections::{BTreeSet, HashMap};
use std::sync::{Arc, OnceLock, RwLock};

/// One conjunction of (normalised) atoms.
pub type AtomSet = BTreeSet<Atom>;

/// Budget for [`to_min_dnf`]: conversions that would exceed this many
/// sets (at any intermediate step) abort.
pub const DEFAULT_SET_BUDGET: usize = 256;

/// Result of folding a single atom.
enum FoldedAtom {
    True,
    False,
    Keep(Atom),
}

fn fold_atom(atom: &Atom) -> FoldedAtom {
    let mut vars = BTreeSet::new();
    atom.cvars(&mut vars);
    if vars.is_empty() {
        match atom.eval(&|_| unreachable!("ground atom")) {
            Some(true) => FoldedAtom::True,
            Some(false) | None => FoldedAtom::False,
        }
    } else {
        FoldedAtom::Keep(atom.clone().normalized())
    }
}

/// Extracts `(v̄, const)` from a var-vs-const atom in either
/// orientation, if the atom has that shape.
fn var_const_sides(a: &Atom) -> Option<(faure_ctable::CVarId, &faure_ctable::Const)> {
    match (&a.lhs, &a.rhs) {
        (Expr::Term(Term::Var(v)), Expr::Term(Term::Const(c)))
        | (Expr::Term(Term::Const(c)), Expr::Term(Term::Var(v))) => Some((*v, c)),
        _ => None,
    }
}

/// Does the set contain a directly visible contradiction over a single
/// c-variable? (Complete contradiction detection is the solver's job;
/// this is the cheap filter applied during construction.)
fn set_contradictory(set: &AtomSet) -> bool {
    // Collect `v̄ = const` bindings, then check each binding against
    // every other eq/ne atom on the same variable.
    let mut bound: Vec<(faure_ctable::CVarId, &faure_ctable::Const)> = Vec::new();
    for a in set {
        if a.op == CmpOp::Eq {
            if let Some(pair) = var_const_sides(a) {
                bound.push(pair);
            }
        }
    }
    if bound.is_empty() {
        return false;
    }
    for a in set {
        let Some((v, c)) = var_const_sides(a) else {
            continue;
        };
        match a.op {
            CmpOp::Eq if bound.iter().any(|&(bv, bc)| bv == v && bc != c) => {
                return true;
            }
            CmpOp::Ne if bound.iter().any(|&(bv, bc)| bv == v && bc == c) => {
                return true;
            }
            _ => {}
        }
    }
    false
}

/// Whether some set of the antichain is a subset of `new`, so that
/// inserting `new` would change nothing.
pub fn subsumed(sets: &[AtomSet], new: &AtomSet) -> bool {
    sets.iter().any(|existing| existing.is_subset(new))
}

/// Inserts `new` into the antichain `sets`: skipped if some existing
/// set is a subset of `new` (subsumes it); existing supersets of `new`
/// are removed. Returns whether the antichain changed.
pub fn antichain_insert(sets: &mut Vec<AtomSet>, new: AtomSet) -> bool {
    if subsumed(sets, &new) {
        return false;
    }
    sets.retain(|existing| !new.is_subset(existing));
    sets.push(new);
    true
}

/// Converts `cond` to a minimal DNF within `budget` sets.
///
/// Returns `None` if the conversion would exceed the budget (caller
/// keeps the structural form). `Some(vec![])` means *false*;
/// `Some(vec![{}])` means *true*.
pub fn to_min_dnf(cond: &Condition, budget: usize) -> Option<Vec<AtomSet>> {
    // Fast path: derived-row conditions are overwhelmingly flat
    // conjunctions of atoms; build their single atom-set directly
    // instead of running the general distribute-and-minimise product.
    if let Some(sets) = conjunction_fast_path(cond) {
        return Some(sets);
    }
    convert(cond, false, budget)
}

/// Collects the atoms of a pure conjunction (`True`, an atom, or `And`
/// nests thereof), folding ground atoms. Returns `false` on any other
/// shape, or when a ground-false atom makes the conjunction false
/// (flagged via the `dead` out-parameter).
fn collect_conj_atoms(cond: &Condition, set: &mut AtomSet, dead: &mut bool) -> bool {
    match cond {
        Condition::True => true,
        Condition::Atom(a) => {
            match fold_atom(a) {
                FoldedAtom::True => {}
                FoldedAtom::False => *dead = true,
                FoldedAtom::Keep(a) => {
                    set.insert(a);
                }
            }
            true
        }
        Condition::And(cs) => cs.iter().all(|c| *dead || collect_conj_atoms(c, set, dead)),
        _ => false,
    }
}

/// The single-set DNF of a pure conjunction, or `None` when `cond` is
/// not one. Matches `convert` exactly: ground atoms fold, and a
/// directly contradictory set means *false*.
fn conjunction_fast_path(cond: &Condition) -> Option<Vec<AtomSet>> {
    if matches!(cond, Condition::Atom(_) | Condition::True) {
        // Tiny shapes: let the general code handle them (no product
        // machinery is involved anyway).
    } else if !matches!(cond, Condition::And(_)) {
        return None;
    }
    let mut set = AtomSet::new();
    let mut dead = false;
    if !collect_conj_atoms(cond, &mut set, &mut dead) {
        return None;
    }
    if dead || set_contradictory(&set) {
        return Some(Vec::new());
    }
    Some(vec![set])
}

fn convert(cond: &Condition, negate: bool, budget: usize) -> Option<Vec<AtomSet>> {
    match (cond, negate) {
        (Condition::True, false) | (Condition::False, true) => Some(vec![AtomSet::new()]),
        (Condition::True, true) | (Condition::False, false) => Some(Vec::new()),
        (Condition::Atom(a), neg) => {
            let atom = if neg {
                Atom {
                    lhs: a.lhs.clone(),
                    op: a.op.negated(),
                    rhs: a.rhs.clone(),
                }
            } else {
                a.clone()
            };
            match fold_atom(&atom) {
                FoldedAtom::True => Some(vec![AtomSet::new()]),
                FoldedAtom::False => Some(Vec::new()),
                FoldedAtom::Keep(a) => Some(vec![std::iter::once(a).collect()]),
            }
        }
        (Condition::Not(inner), neg) => convert(inner, !neg, budget),
        (Condition::And(cs), false) | (Condition::Or(cs), true) => {
            // Product of the children's DNFs.
            let mut acc: Vec<AtomSet> = vec![AtomSet::new()];
            for c in cs.iter() {
                let child = convert(c, negate, budget)?;
                let mut next: Vec<AtomSet> = Vec::new();
                for a in &acc {
                    for b in &child {
                        let mut merged = a.clone();
                        merged.extend(b.iter().cloned());
                        if set_contradictory(&merged) {
                            continue;
                        }
                        antichain_insert(&mut next, merged);
                        if next.len() > budget {
                            return None;
                        }
                    }
                }
                acc = next;
                if acc.is_empty() {
                    break; // the whole conjunction is false
                }
            }
            Some(acc)
        }
        (Condition::Or(cs), false) | (Condition::And(cs), true) => {
            let mut acc: Vec<AtomSet> = Vec::new();
            for c in cs.iter() {
                for set in convert(c, negate, budget)? {
                    antichain_insert(&mut acc, set);
                    if acc.len() > budget {
                        return None;
                    }
                }
            }
            Some(acc)
        }
    }
}

/// Rebuilds a [`Condition`] from an antichain (disjunction of
/// conjunctions; empty = false, one empty set = true).
pub fn condition_of(sets: &[AtomSet]) -> Condition {
    if sets.is_empty() {
        return Condition::False;
    }
    let mut disjuncts = Vec::with_capacity(sets.len());
    for set in sets {
        if set.is_empty() {
            return Condition::True;
        }
        let conj: Vec<Condition> = set.iter().cloned().map(Condition::Atom).collect();
        disjuncts.push(if conj.len() == 1 {
            conj.into_iter().next().expect("len checked")
        } else {
            Condition::conj(conj)
        });
    }
    if disjuncts.len() == 1 {
        disjuncts.pop().expect("len checked")
    } else {
        Condition::disj(disjuncts)
    }
}

// ---------------------------------------------------------------------------
// Normal forms, keyed by condition id
// ---------------------------------------------------------------------------

/// What the table stores for a condition: a pure function of its
/// [`CondId`], computed once per distinct condition and shared by
/// reference from then on.
#[derive(Debug, PartialEq, Eq)]
pub struct NormalForm {
    /// The minimal-DNF antichain of the condition, or `None` when the
    /// conversion runs over [`DEFAULT_SET_BUDGET`] (the table then keeps
    /// the condition opaque). The empty antichain means *false*.
    pub sets: Option<Vec<AtomSet>>,
    /// The id a fresh insert of the condition stores:
    /// `intern(condition_of(sets))`, or the condition's own id when it
    /// is over budget. A fixed point: the normal form of `stored` is
    /// this same normal form.
    pub stored: CondId,
}

/// One entry per condition ever normalised. Like the pool it indexes,
/// the table lives for the process and only grows; it never holds more
/// entries than the pool has nodes.
fn normal_forms() -> &'static RwLock<HashMap<CondId, Arc<NormalForm>>> {
    static FORMS: OnceLock<RwLock<HashMap<CondId, Arc<NormalForm>>>> = OnceLock::new();
    FORMS.get_or_init(|| RwLock::new(HashMap::new()))
}

/// The normal form of an interned condition: a table lookup once the
/// condition has been seen, [`to_min_dnf`] plus one interning of the
/// result the first time.
pub fn normal_form(id: CondId) -> Arc<NormalForm> {
    if let Some(form) = normal_forms()
        .read()
        .expect("normal-form table poisoned")
        .get(&id)
    {
        return Arc::clone(form);
    }
    // Computed with no lock held; racing threads compute equal forms
    // and the first one in wins.
    let sets = to_min_dnf(&pool::resolve(id), DEFAULT_SET_BUDGET);
    let stored = match &sets {
        Some(sets) => pool::intern(&condition_of(sets)),
        None => id,
    };
    // `stored` is entered below under this same form, unasked: it has
    // to normalise to this antichain on its own account.
    debug_assert!(
        stored == id || to_min_dnf(&pool::resolve(stored), DEFAULT_SET_BUDGET) == sets,
        "the stored condition is not a fixed point of normalisation"
    );
    let form = Arc::new(NormalForm { sets, stored });
    let mut forms = normal_forms().write().expect("normal-form table poisoned");
    forms.entry(stored).or_insert_with(|| Arc::clone(&form));
    Arc::clone(forms.entry(id).or_insert(form))
}

/// Records `sets` as the normal form of the condition they spell,
/// `id == intern(condition_of(sets))`: an antichain the table has just
/// built by merging is its own normal form, so normalising that id
/// again would only rebuild what the caller already holds. The caller
/// keeps `sets` within [`DEFAULT_SET_BUDGET`]; a wider antichain is not
/// what [`to_min_dnf`] answers for its condition.
pub(crate) fn record_normal_form(id: CondId, sets: Vec<AtomSet>) {
    debug_assert!(sets.len() <= DEFAULT_SET_BUDGET);
    debug_assert_eq!(
        to_min_dnf(&pool::resolve(id), DEFAULT_SET_BUDGET).as_ref(),
        Some(&sets),
        "a merged antichain is the normal form of its own condition"
    );
    debug_assert_eq!(pool::intern(&condition_of(&sets)), id);
    let known = normal_forms()
        .read()
        .expect("normal-form table poisoned")
        .contains_key(&id);
    if !known {
        normal_forms()
            .write()
            .expect("normal-form table poisoned")
            .entry(id)
            .or_insert_with(|| {
                Arc::new(NormalForm {
                    sets: Some(sets),
                    stored: id,
                })
            });
    }
}

/// Number of conditions whose normal form is on record.
#[cfg(test)]
fn normal_form_count() -> usize {
    normal_forms()
        .read()
        .expect("normal-form table poisoned")
        .len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use faure_ctable::{CVarRegistry, Domain};

    fn vars() -> (CVarRegistry, faure_ctable::CVarId, faure_ctable::CVarId) {
        let mut reg = CVarRegistry::new();
        let x = reg.fresh("x", Domain::Bool01);
        let y = reg.fresh("y", Domain::Bool01);
        (reg, x, y)
    }

    fn eq(v: faure_ctable::CVarId, k: i64) -> Condition {
        Condition::eq(Term::Var(v), Term::int(k))
    }

    #[test]
    fn constants() {
        assert_eq!(to_min_dnf(&Condition::True, 8), Some(vec![AtomSet::new()]));
        assert_eq!(to_min_dnf(&Condition::False, 8), Some(vec![]));
    }

    #[test]
    fn subset_disjunct_subsumes_superset() {
        let (_, x, y) = vars();
        // (x=1) ∨ (x=1 ∧ y=1) minimises to just (x=1).
        let c = eq(x, 1).or(eq(x, 1).and(eq(y, 1)));
        let sets = to_min_dnf(&c, 8).unwrap();
        assert_eq!(sets.len(), 1);
        assert_eq!(sets[0].len(), 1);
    }

    #[test]
    fn product_distributes_and_prunes() {
        let (_, x, y) = vars();
        // (x=1 ∨ y=1) ∧ x=1 → {x=1} (the {x=1,y=1} branch is subsumed).
        let c = eq(x, 1).or(eq(y, 1)).and(eq(x, 1));
        let sets = to_min_dnf(&c, 8).unwrap();
        assert_eq!(sets.len(), 1);
        assert_eq!(sets[0].len(), 1);
    }

    #[test]
    fn local_contradictions_removed() {
        let (_, x, y) = vars();
        // (x=1 ∧ x=0) ∨ (y=1 ∧ y≠1) is false.
        let c = eq(x, 1)
            .and(eq(x, 0))
            .or(eq(y, 1).and(Condition::ne(Term::Var(y), Term::int(1))));
        assert_eq!(to_min_dnf(&c, 8), Some(vec![]));
    }

    #[test]
    fn cross_path_conjunction_dies_locally() {
        let (_, g, b1) = vars();
        // Path conditions c0 = {g=1} and c1 = {g=0, b1=1} conjoined:
        // contradictory on g.
        let c0 = eq(g, 1);
        let c1 = eq(g, 0).and(eq(b1, 1));
        assert_eq!(to_min_dnf(&c0.and(c1), 8), Some(vec![]));
    }

    #[test]
    fn ground_atoms_fold() {
        let (_, x, _) = vars();
        let c = Condition::eq(Term::int(1), Term::int(1)).and(eq(x, 1));
        let sets = to_min_dnf(&c, 8).unwrap();
        assert_eq!(sets.len(), 1);
        assert_eq!(sets[0].len(), 1);
        let c2 = Condition::eq(Term::int(1), Term::int(2)).and(eq(x, 1));
        assert_eq!(to_min_dnf(&c2, 8), Some(vec![]));
    }

    #[test]
    fn negation_pushes_through() {
        let (_, x, y) = vars();
        // ¬(x=1 ∧ y=1) = x≠1 ∨ y≠1.
        let c = eq(x, 1).and(eq(y, 1)).negate();
        let sets = to_min_dnf(&c, 8).unwrap();
        assert_eq!(sets.len(), 2);
        assert!(sets.iter().all(|s| s.len() == 1));
    }

    #[test]
    fn budget_aborts() {
        // Product of k binary disjunctions over disjoint vars needs 2^k sets.
        let mut reg = CVarRegistry::new();
        let mut c = Condition::True;
        for i in 0..10 {
            let a = reg.fresh(format!("a{i}"), Domain::Bool01);
            let b = reg.fresh(format!("b{i}"), Domain::Bool01);
            c = c.and(eq(a, 1).or(eq(b, 1)));
        }
        assert_eq!(to_min_dnf(&c, 64), None);
        assert!(to_min_dnf(&c, 2048).is_some());
    }

    #[test]
    fn condition_round_trip_equivalent() {
        let (reg, x, y) = vars();
        let c = eq(x, 1)
            .and(eq(y, 0).or(eq(x, 1)))
            .or(eq(y, 1).and(eq(x, 0)));
        let sets = to_min_dnf(&c, 64).unwrap();
        let back = condition_of(&sets);
        assert!(faure_solver::equivalent(&reg, &c, &back).unwrap());
    }

    #[test]
    fn normal_forms_never_outnumber_pool_nodes() {
        // Fresh variables every round: nothing an earlier round
        // normalised can be reused, so the table has to grow — by at
        // most the pool nodes the round interned.
        let mut reg = CVarRegistry::new();
        for round in 0..8 {
            let vs: Vec<_> = (0..4)
                .map(|i| reg.fresh(format!("nf{round}_{i}"), Domain::Bool01))
                .collect();
            for w in vs.windows(2) {
                let c = eq(w[0], 1).and(eq(w[1], 0)).or(eq(w[1], 1));
                let form = normal_form(pool::intern(&c));
                assert_eq!(normal_form(form.stored).stored, form.stored);
            }
            assert!(normal_form_count() <= pool::pool_stats().size);
        }
    }

    #[test]
    fn antichain_insert_maintains_minimality() {
        let (_, x, y) = vars();
        let a1: AtomSet = [Atom::new(Term::Var(x), CmpOp::Eq, Term::int(1))]
            .into_iter()
            .collect();
        let a12: AtomSet = [
            Atom::new(Term::Var(x), CmpOp::Eq, Term::int(1)),
            Atom::new(Term::Var(y), CmpOp::Eq, Term::int(1)),
        ]
        .into_iter()
        .collect();
        let mut sets = Vec::new();
        assert!(antichain_insert(&mut sets, a12.clone()));
        // Adding the smaller set evicts the superset.
        assert!(antichain_insert(&mut sets, a1.clone()));
        assert_eq!(sets, vec![a1.clone()]);
        // Re-adding the superset is a no-op.
        assert!(!antichain_insert(&mut sets, a12));
        assert_eq!(sets.len(), 1);
    }
}
