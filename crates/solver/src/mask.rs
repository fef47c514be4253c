//! Finite-domain conditions decided with word operations.
//!
//! Every atom the RIB workloads produce is `x̄ = c` over `{0,1}`, or a
//! linear pattern over three `{0,1}` c-variables. Such an atom is a
//! truth table: evaluate it once on each assignment of its c-variables
//! and keep one bit per assignment. Satisfiability and validity of a
//! disjunct — and validity of a small antichain of them — are then
//! questions about those bits, and no search runs.
//!
//! * An atom over one c-variable is a **mask**: bit `i` is set iff the
//!   atom holds when the variable takes its domain's `i`-th member. A
//!   disjunct ANDs the masks of each variable; `x̄ = c` with `c` outside
//!   the domain is the empty mask.
//! * An atom over several c-variables is a **table** over the joint
//!   space of their domains (the first variable varying fastest):
//!   `x̄ + ȳ + z̄ = 1` over `{0,1}³` sets 3 bits of 8.
//! * An atom has a form only when every c-variable it mentions has a
//!   finite, non-empty domain and the joint space fits in a `u64`
//!   ([`TABLE_LIMIT`]); a variable in a linear expression must range
//!   over integers. A disjunct has a form only when every atom does,
//!   and an antichain only when every disjunct does. Anything else —
//!   an open domain, a wider space, a disjunct whose tables share
//!   variables over more than [`ENUM_LIMIT`] assignments — has no form,
//!   and the search ([`crate::search`]) decides it. In particular, no
//!   form ever exists where the search would report a
//!   [`SolverError`](crate::SolverError).
//!
//! A disjunct is satisfiable iff no mask is empty and every group of
//! tables that share variables has an assignment their bits and the
//! masks all allow (a group of one table is its bits filtered through
//! the masks; a wider group enumerates the union of its variables). A
//! disjunct is valid iff every atom is, i.e. every mask and table is
//! full. Several disjuncts are valid together iff no assignment of
//! every variable they mention falsifies them all; that space is
//! enumerated when it has at most [`ENUM_LIMIT`] assignments.
//!
//! These are exactly the search's answers: the search decides a
//! conjunction over the domain members of its variables, and its
//! validity check is the satisfiability of the negation, whose DNF
//! branches pick one falsified atom per disjunct. Both readings agree
//! because every domain with a form is non-empty.
//!
//! A form borrows the registry and lives for one question: nothing is
//! cached, so no answer outlives the domains it was computed against.

use faure_ctable::{Atom, CVarId, CVarRegistry, Const, Domain, Expr, Term};
use std::collections::BTreeSet;

/// Most assignments one atom's truth table covers: one bit each.
pub const TABLE_LIMIT: usize = 64;

/// Most assignments enumerated to decide tables that share a
/// c-variable, or the validity of several disjuncts together.
pub const ENUM_LIMIT: usize = 1 << 12;

/// A c-variable of a form: its domain has `1..=TABLE_LIMIT` members.
struct Var<'r> {
    id: CVarId,
    domain: &'r Domain,
    size: usize,
}

impl Var<'_> {
    /// The domain's `i`-th member, as the search enumerates it.
    fn member(&self, i: usize) -> Const {
        match self.domain {
            Domain::Bool01 => Const::Int(i as i64),
            Domain::Ints(vs) => Const::Int(vs[i]),
            Domain::Consts(cs) => cs[i].clone(),
            Domain::Open => unreachable!("an open c-variable has no form"),
        }
    }

    /// The domain's `i`-th member if it is an integer.
    fn int_member(&self, i: usize) -> Option<i64> {
        match self.domain {
            Domain::Bool01 => Some(i as i64),
            Domain::Ints(vs) => Some(vs[i]),
            Domain::Consts(cs) => cs[i].as_int(),
            Domain::Open => unreachable!("an open c-variable has no form"),
        }
    }
}

/// An atom over several c-variables (indices into the form's
/// variables): bit `i` is set iff the atom holds under the assignment
/// numbered `i`, the first variable varying fastest.
struct Table {
    vars: Vec<usize>,
    bits: u64,
}

impl Table {
    /// The bit of this table that `assign` (a member index per form
    /// variable) selects.
    fn holds(&self, vars: &[Var], assign: &[usize]) -> bool {
        let mut index = 0;
        for &v in self.vars.iter().rev() {
            index = index * vars[v].size + assign[v];
        }
        self.bits >> index & 1 == 1
    }
}

/// One disjunct (a conjunction of atoms) in mask form.
struct Conj {
    /// One mask per c-variable that single-variable atoms constrain,
    /// the AND of those atoms' masks.
    masks: Vec<(usize, u64)>,
    tables: Vec<Table>,
    /// A ground atom of the disjunct is false.
    dead: bool,
    sat: bool,
    /// Every atom holds under every assignment.
    valid: bool,
}

impl Conj {
    /// The members of form variable `v` the disjunct's masks allow.
    fn mask(&self, v: usize) -> u64 {
        self.masks
            .iter()
            .find(|&&(w, _)| w == v)
            .map_or(u64::MAX, |&(_, mask)| mask)
    }

    /// Does the disjunct hold under `assign`?
    fn holds(&self, vars: &[Var], assign: &[usize]) -> bool {
        !self.dead
            && self
                .masks
                .iter()
                .all(|&(v, mask)| mask >> assign[v] & 1 == 1)
            && self.tables.iter().all(|t| t.holds(vars, assign))
    }
}

/// The mask form of an antichain of disjuncts: see the module docs.
pub struct Form<'r> {
    vars: Vec<Var<'r>>,
    conjs: Vec<Conj>,
}

/// All bits of a space of `size` assignments.
fn full(size: usize) -> u64 {
    if size >= 64 {
        u64::MAX
    } else {
        (1 << size) - 1
    }
}

/// `(c̄, constant, whether the variable is on the left)` of a
/// variable-against-constant atom.
fn var_const(atom: &Atom) -> Option<(CVarId, &Const, bool)> {
    match (&atom.lhs, &atom.rhs) {
        (Expr::Term(Term::Var(v)), Expr::Term(Term::Const(c))) => Some((*v, c, true)),
        (Expr::Term(Term::Const(c)), Expr::Term(Term::Var(v))) => Some((*v, c, false)),
        _ => None,
    }
}

/// Calls `found` on every assignment of the form variables `over` (a
/// member index per form variable; the others stay 0) until it
/// answers `true`. Returns whether it did.
fn any_assignment(vars: &[Var], over: &[usize], mut found: impl FnMut(&[usize]) -> bool) -> bool {
    let mut assign = vec![0; vars.len()];
    loop {
        if found(&assign) {
            return true;
        }
        let mut k = 0;
        loop {
            let Some(&v) = over.get(k) else {
                return false;
            };
            assign[v] += 1;
            if assign[v] < vars[v].size {
                break;
            }
            assign[v] = 0;
            k += 1;
        }
    }
}

/// The number of assignments of the form variables `over`, or `None`
/// above `limit`.
fn space(vars: &[Var], over: &[usize], limit: usize) -> Option<usize> {
    over.iter().try_fold(1usize, |acc, &v| {
        acc.checked_mul(vars[v].size).filter(|&n| n <= limit)
    })
}

impl<'r> Form<'r> {
    /// The mask form of the antichain `sets` (each set a conjunction of
    /// atoms) over `reg`'s domains, or `None` when some atom, disjunct
    /// or group of shared tables has none.
    pub fn of(reg: &'r CVarRegistry, sets: &[BTreeSet<Atom>]) -> Option<Form<'r>> {
        let mut form = Form {
            vars: Vec::with_capacity(8),
            conjs: Vec::with_capacity(sets.len()),
        };
        for set in sets {
            let conj = form.conj(reg, set)?;
            form.conjs.push(conj);
        }
        Some(form)
    }

    /// Number of disjuncts.
    pub fn len(&self) -> usize {
        self.conjs.len()
    }

    /// Whether the antichain has no disjunct (the condition is false).
    pub fn is_empty(&self) -> bool {
        self.conjs.is_empty()
    }

    /// Is disjunct `i` satisfiable?
    pub fn satisfiable(&self, i: usize) -> bool {
        self.conjs[i].sat
    }

    /// Is the disjunction of the disjuncts `live` valid? `None` when
    /// several disjuncts mention more than [`ENUM_LIMIT`] assignments:
    /// ask the search.
    pub fn valid(&self, live: &[usize]) -> Option<bool> {
        if let [i] = live {
            return Some(self.conjs[*i].valid);
        }
        let mut over: Vec<usize> = Vec::new();
        for &i in live {
            let conj = &self.conjs[i];
            over.extend(conj.masks.iter().map(|&(v, _)| v));
            over.extend(conj.tables.iter().flat_map(|t| t.vars.iter().copied()));
        }
        over.sort_unstable();
        over.dedup();
        space(&self.vars, &over, ENUM_LIMIT)?;
        let falsified = any_assignment(&self.vars, &over, |assign| {
            !live
                .iter()
                .any(|&i| self.conjs[i].holds(&self.vars, assign))
        });
        Some(!falsified)
    }

    /// The form variable of `id`, registered on first sight; `None`
    /// when its domain is open, empty or wider than a mask, or not all
    /// integers when the atom is `linear` (the search refuses a
    /// non-integer domain inside a linear expression).
    fn var(&mut self, reg: &'r CVarRegistry, id: CVarId, linear: bool) -> Option<usize> {
        if linear && !reg.domain(id).is_numeric() {
            return None;
        }
        if let Some(at) = self.vars.iter().position(|v| v.id == id) {
            return Some(at);
        }
        let domain = reg.domain(id);
        let size = domain.size().filter(|n| (1..=TABLE_LIMIT).contains(n))?;
        self.vars.push(Var { id, domain, size });
        Some(self.vars.len() - 1)
    }

    /// The mask form of one disjunct, decided.
    fn conj(&mut self, reg: &'r CVarRegistry, set: &BTreeSet<Atom>) -> Option<Conj> {
        let mut conj = Conj {
            masks: Vec::with_capacity(set.len()),
            tables: Vec::new(),
            dead: false,
            sat: false,
            valid: true,
        };
        for atom in set {
            if let Some((id, c, var_left)) = var_const(atom) {
                let v = self.var(reg, id, false)?;
                let var = &self.vars[v];
                let mask = (0..var.size)
                    .filter(|&i| {
                        let m = var.member(i);
                        atom.op.eval(if var_left { m.cmp(c) } else { c.cmp(&m) })
                    })
                    .fold(0u64, |mask, i| mask | 1 << i);
                self.constrain(&mut conj, v, mask);
            } else {
                self.table(reg, &mut conj, atom)?;
            }
        }
        conj.sat = !conj.dead && self.satisfiable_conj(&conj)?;
        Some(conj)
    }

    /// ANDs `mask` into the disjunct's mask of form variable `v`.
    fn constrain(&self, conj: &mut Conj, v: usize, mask: u64) {
        conj.valid &= mask == full(self.vars[v].size);
        match conj.masks.iter_mut().find(|(w, _)| *w == v) {
            Some((_, m)) => *m &= mask,
            None => conj.masks.push((v, mask)),
        }
    }

    /// Adds the truth table of a general atom to the disjunct: a mask
    /// when it mentions one c-variable, a ground fact when none.
    fn table(&mut self, reg: &'r CVarRegistry, conj: &mut Conj, atom: &Atom) -> Option<()> {
        let linear = matches!(atom.lhs, Expr::Lin(_)) || matches!(atom.rhs, Expr::Lin(_));
        let mut vars = Vec::new();
        for side in [&atom.lhs, &atom.rhs] {
            match side {
                Expr::Term(Term::Var(v)) => vars.push(self.var(reg, *v, linear)?),
                Expr::Term(Term::Const(_)) => {}
                Expr::Lin(l) => {
                    for &(_, v) in &l.terms {
                        vars.push(self.var(reg, v, linear)?);
                    }
                }
            }
        }
        vars.sort_unstable();
        vars.dedup();
        let size = space(&self.vars, &vars, TABLE_LIMIT)?;
        let mut bits = 0u64;
        for index in 0..size {
            // Assignment `index`, the first variable its lowest digit.
            let digit = |id: CVarId| {
                let mut rest = index;
                for &v in &vars {
                    let var = &self.vars[v];
                    if var.id == id {
                        return Some((var, rest % var.size));
                    }
                    rest /= var.size;
                }
                None
            };
            // Integer sides compare as their `Const::Int`s do; anything
            // else is evaluated as the search evaluates it.
            let int = |side: &Expr| match side {
                Expr::Lin(l) => l.terms.iter().try_fold(l.constant, |acc, &(coef, id)| {
                    let (var, i) = digit(id)?;
                    Some(acc + coef * var.int_member(i)?)
                }),
                Expr::Term(Term::Var(id)) => digit(*id).and_then(|(var, i)| var.int_member(i)),
                Expr::Term(Term::Const(c)) => c.as_int(),
            };
            let holds = match (int(&atom.lhs), int(&atom.rhs)) {
                (Some(l), Some(r)) => Some(atom.op.eval(l.cmp(&r))),
                _ => atom.eval(&|id| digit(id).map(|(var, i)| var.member(i))),
            };
            match holds {
                Some(true) => bits |= 1 << index,
                Some(false) => {}
                // Only a non-integer value in a linear expression
                // evaluates to nothing, and that was refused above.
                None => unreachable!("atom over numeric members evaluates"),
            }
        }
        match vars.as_slice() {
            [] => {
                conj.dead |= bits == 0;
                conj.valid &= bits == 1;
            }
            [v] => self.constrain(conj, *v, bits),
            _ => {
                conj.valid &= bits == full(size);
                conj.tables.push(Table { vars, bits });
            }
        }
        Some(())
    }

    /// Satisfiability of a disjunct with no false ground atom: every
    /// mask non-empty, and every group of tables that share variables
    /// satisfiable together with the masks. `None` when a group spans
    /// more than [`ENUM_LIMIT`] assignments.
    fn satisfiable_conj(&self, conj: &Conj) -> Option<bool> {
        if conj.masks.iter().any(|&(_, mask)| mask == 0) {
            return Some(false);
        }
        if let [table] = conj.tables.as_slice() {
            return Some(self.filtered(conj, table) != 0);
        }
        // Group the tables: two tables are in one group when they
        // share a variable, directly or through other tables.
        let mut groups: Vec<(Vec<usize>, Vec<&Table>)> = Vec::new();
        for table in &conj.tables {
            let mut vars = table.vars.clone();
            let mut tables = vec![table];
            let mut k = 0;
            while k < groups.len() {
                if groups[k].0.iter().any(|v| vars.contains(v)) {
                    let (gv, gt) = groups.swap_remove(k);
                    vars.extend(gv);
                    tables.extend(gt);
                } else {
                    k += 1;
                }
            }
            vars.sort_unstable();
            vars.dedup();
            groups.push((vars, tables));
        }
        for (vars, tables) in &groups {
            space(&self.vars, vars, ENUM_LIMIT)?;
            if !self.exists(conj, vars, tables) {
                return Some(false);
            }
        }
        Some(true)
    }

    /// The entries of `table` the disjunct's masks allow.
    fn filtered(&self, conj: &Conj, table: &Table) -> u64 {
        let mut bits = table.bits;
        let mut stride = 1;
        for &v in &table.vars {
            let size = self.vars[v].size;
            let mask = conj.mask(v);
            let mut rest = bits;
            while rest != 0 {
                let entry = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                if mask >> (entry / stride % size) & 1 == 0 {
                    bits &= !(1 << entry);
                }
            }
            stride *= size;
        }
        bits
    }

    /// Does some assignment of the form variables `over` satisfy the
    /// disjunct's masks on them and every table of `tables`?
    fn exists(&self, conj: &Conj, over: &[usize], tables: &[&Table]) -> bool {
        let allowed: Vec<u64> = over.iter().map(|&v| conj.mask(v)).collect();
        any_assignment(&self.vars, over, |assign| {
            over.iter()
                .zip(&allowed)
                .all(|(&v, mask)| mask >> assign[v] & 1 == 1)
                && tables.iter().all(|t| t.holds(&self.vars, assign))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::satisfiable;
    use faure_ctable::{CmpOp, Condition, LinExpr};
    use proptest::prelude::*;

    fn atom(lhs: impl Into<Expr>, op: CmpOp, rhs: impl Into<Expr>) -> Atom {
        Atom::new(lhs, op, rhs)
    }

    fn set(atoms: impl IntoIterator<Item = Atom>) -> BTreeSet<Atom> {
        atoms.into_iter().collect()
    }

    #[test]
    fn a_bool_atom_is_a_mask() {
        let mut reg = CVarRegistry::new();
        let x = reg.fresh("x", Domain::Bool01);
        let eq1 = atom(Term::int(1), CmpOp::Eq, Term::Var(x));
        let form = Form::of(&reg, &[set([eq1.clone()])]).unwrap();
        assert!(form.satisfiable(0));
        assert_eq!(form.valid(&[0]), Some(false));
        // x̄ = 1 ∧ x̄ = 0 is the empty mask.
        let eq0 = atom(Term::Var(x), CmpOp::Eq, Term::int(0));
        let form = Form::of(&reg, &[set([eq1.clone(), eq0.clone()])]).unwrap();
        assert!(!form.satisfiable(0));
        // x̄ = 1 ∨ x̄ = 0 is valid; x̄ ≠ 7 alone is too.
        let form = Form::of(&reg, &[set([eq1]), set([eq0])]).unwrap();
        assert_eq!(form.valid(&[0, 1]), Some(true));
        let ne7 = atom(Term::Var(x), CmpOp::Ne, Term::int(7));
        let form = Form::of(&reg, &[set([ne7])]).unwrap();
        assert_eq!(form.valid(&[0]), Some(true));
    }

    #[test]
    fn an_out_of_domain_constant_is_unsatisfiable() {
        let mut reg = CVarRegistry::new();
        let x = reg.fresh("x", Domain::Bool01);
        let form = Form::of(&reg, &[set([atom(Term::Var(x), CmpOp::Eq, Term::int(2))])]).unwrap();
        assert!(!form.satisfiable(0));
    }

    #[test]
    fn a_linear_pattern_is_a_table() {
        let mut reg = CVarRegistry::new();
        let [x, y, z] = ["x", "y", "z"].map(|n| reg.fresh(n, Domain::Bool01));
        let one_up = atom(LinExpr::sum([x, y, z]), CmpOp::Eq, LinExpr::constant(1));
        let form = Form::of(&reg, &[set([one_up.clone()])]).unwrap();
        assert_eq!(form.conjs[0].tables[0].bits.count_ones(), 3);
        // ... and shares ȳ, z̄ with ȳ + z̄ = 2: jointly unsatisfiable,
        // though each table alone is not empty.
        let both = atom(LinExpr::sum([y, z]), CmpOp::Eq, LinExpr::constant(2));
        let form = Form::of(&reg, &[set([one_up, both])]).unwrap();
        assert!(!form.satisfiable(0));
    }

    #[test]
    fn an_open_or_wide_domain_has_no_form() {
        let mut reg = CVarRegistry::new();
        let o = reg.fresh("o", Domain::Open);
        let wide = reg.fresh("w", Domain::Ints((0..65).collect()));
        let empty = reg.fresh("e", Domain::Ints(Vec::new()));
        for v in [o, wide, empty] {
            let a = atom(Term::Var(v), CmpOp::Eq, Term::int(1));
            assert!(Form::of(&reg, &[set([a])]).is_none());
        }
    }

    // ---- the property: masks answer as the search does ------------------

    /// The proptest registry: three `{0,1}` variables, two small integer
    /// domains, a symbolic one and an open one.
    fn registry() -> (CVarRegistry, Vec<CVarId>) {
        let mut reg = CVarRegistry::new();
        let vars = vec![
            reg.fresh("b0", Domain::Bool01),
            reg.fresh("b1", Domain::Bool01),
            reg.fresh("b2", Domain::Bool01),
            reg.fresh("i0", Domain::Ints(vec![0, 1, 2, 3, 4])),
            reg.fresh("i1", Domain::Ints(vec![1, 3, 7])),
            reg.fresh(
                "c0",
                Domain::Consts(vec![Const::sym("a"), Const::sym("b"), Const::Int(2)]),
            ),
            reg.fresh("o0", Domain::Open),
        ];
        (reg, vars)
    }

    /// A deterministic stream of choices drawn from one seed.
    struct Draw(u64);

    impl Draw {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((self.0 >> 33) % n as u64) as usize
        }
    }

    /// Constants inside and outside every domain above.
    fn constant(d: &mut Draw) -> Const {
        match d.below(9) {
            k @ 0..=4 => Const::Int(k as i64),
            5 => Const::Int(7),
            6 => Const::Int(9),
            7 => Const::sym("a"),
            _ => Const::sym("z"),
        }
    }

    fn op(d: &mut Draw) -> CmpOp {
        [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ][d.below(6)]
    }

    /// A linear expression over 2–3 of the variables, mostly numeric.
    fn linear(d: &mut Draw, vars: &[CVarId], shared: Option<CVarId>) -> LinExpr {
        let n = 2 + d.below(2);
        let mut e = LinExpr::constant(0);
        if let Some(v) = shared {
            e = e.plus_var(1, v);
        }
        for _ in 0..n {
            // Mostly numeric variables; now and then the symbolic or the
            // open one, which the search refuses and the form must too.
            let v = match d.below(24) {
                22 => vars[5],
                23 => vars[6],
                k => vars[k % 5],
            };
            e = e.plus_var(1 + d.below(2) as i64, v);
        }
        e
    }

    /// One atom of the shapes the mask form covers or refuses.
    fn random_atoms(d: &mut Draw, vars: &[CVarId]) -> Vec<Atom> {
        // The open variable now and then: its atoms have no form.
        let pick = |d: &mut Draw| match d.below(16) {
            15 => vars[6],
            k => vars[k % 6],
        };
        let (v, w) = (pick(d), pick(d));
        let a = match d.below(6) {
            0 => atom(Term::Var(v), CmpOp::Eq, Term::Const(constant(d))),
            1 => atom(Term::Var(v), CmpOp::Ne, Term::Const(constant(d))),
            2 => atom(Term::Const(constant(d)), op(d), Term::Var(v)),
            3 => atom(
                Term::Var(v),
                [CmpOp::Eq, CmpOp::Ne][d.below(2)],
                Term::Var(w),
            ),
            4 => {
                let op = [CmpOp::Eq, CmpOp::Lt, CmpOp::Ge][d.below(3)];
                atom(
                    linear(d, vars, None),
                    op,
                    LinExpr::constant(d.below(5) as i64),
                )
            }
            _ => {
                // Two linear atoms sharing a variable.
                let shared = vars[d.below(5)];
                let first = atom(
                    linear(d, vars, Some(shared)),
                    CmpOp::Eq,
                    LinExpr::constant(d.below(4) as i64),
                );
                let second = atom(
                    linear(d, vars, Some(shared)),
                    [CmpOp::Lt, CmpOp::Ge][d.below(2)],
                    LinExpr::constant(d.below(5) as i64),
                );
                return vec![first, second];
            }
        };
        vec![if d.below(2) == 0 { a.normalized() } else { a }]
    }

    /// 1–4 disjuncts of 1–5 atoms each.
    fn antichain(seed: u64, vars: &[CVarId]) -> Vec<BTreeSet<Atom>> {
        let mut d = Draw(seed);
        let disjuncts = 1 + d.below(4);
        (0..disjuncts)
            .map(|_| {
                let atoms = 1 + d.below(5);
                let mut set = BTreeSet::new();
                while set.len() < atoms {
                    set.extend(random_atoms(&mut d, vars));
                }
                set
            })
            .collect()
    }

    fn conjunction(set: &BTreeSet<Atom>) -> Condition {
        Condition::all(set.iter().cloned().map(Condition::Atom))
    }

    /// Masks and search agree on one random antichain.
    fn agree(seed: u64) {
        let (reg, vars) = registry();
        let sets = antichain(seed, &vars);
        let open = sets.iter().flatten().any(|a| {
            let mut ids = BTreeSet::new();
            a.cvars(&mut ids);
            ids.contains(&vars[6])
        });
        let Some(form) = Form::of(&reg, &sets) else {
            return;
        };
        assert!(!open, "an open variable has no form: {sets:?}");
        assert_eq!(form.len(), sets.len());
        for (i, set) in sets.iter().enumerate() {
            let c = conjunction(set);
            let sat = satisfiable(&reg, &c);
            assert_eq!(sat, Ok(form.satisfiable(i)), "satisfiable {set:?}");
            let valid = satisfiable(&reg, &c.negate()).map(|s| !s);
            assert_eq!(valid, Ok(form.valid(&[i]).unwrap()), "valid {set:?}");
        }
        let all: Vec<usize> = (0..sets.len()).collect();
        if let Some(valid) = form.valid(&all) {
            let disjunction = Condition::any(sets.iter().map(conjunction));
            let searched = satisfiable(&reg, &disjunction.negate()).map(|s| !s);
            assert_eq!(searched, Ok(valid), "valid {sets:?}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        #[test]
        fn masks_decide_like_the_search(seed in any::<u64>()) {
            agree(seed);
        }
    }
}
