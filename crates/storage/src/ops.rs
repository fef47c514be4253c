//! Relational-algebra operators over c-tables.
//!
//! These implement the "straightforward extension of SQL" the paper
//! recalls from the incomplete-database literature: each operator
//! manipulates both the data part (terms) and the condition part. The
//! fauré-log evaluation engine in `faure-core` drives its work through
//! [`Table::find_matches`] directly; the standalone operators are used
//! by the SQL front end ([`crate::sql`]) and by
//! `tests/tests/ops_semantics.rs` only — and they document the c-table
//! algebra in executable form.

use crate::table::{Pattern, Table};
use faure_ctable::{CTuple, CVarRegistry, Schema};

/// Selection: rows matching the per-column patterns; each kept row's
/// condition is conjoined with its match condition `μ`.
pub fn select(reg: &CVarRegistry, table: &Table, pats: &[Pattern]) -> Table {
    let mut out = Table::new(table.schema.clone());
    for (idx, mu) in table.find_matches(reg, pats) {
        let row = table.row(idx);
        out.insert(CTuple {
            terms: row.terms.clone(),
            cond: row.cond.clone().and(mu),
        })
        .expect("selection preserves the input schema");
    }
    out
}

/// Projection onto the given column indices (duplicates merge their
/// conditions disjunctively, as c-table projection requires).
pub fn project(table: &Table, cols: &[usize], new_name: &str) -> Table {
    let schema = Schema {
        name: new_name.to_owned(),
        attrs: cols
            .iter()
            .map(|&c| table.schema.attrs[c].clone())
            .collect(),
    };
    let mut out = Table::new(schema);
    for row in table.iter() {
        out.insert(CTuple {
            terms: cols.iter().map(|&c| row.terms[c].clone()).collect(),
            cond: row.cond.clone(),
        })
        .expect("projection schema is built from the projected columns");
    }
    out
}

/// Natural-style join on explicit column pairs: concatenates each pair
/// of rows `t₁ ∈ a, t₂ ∈ b` with condition `φ₁ ∧ φ₂ ∧ φ(t₁,t₂)`, where
/// `φ(t₁,t₂)` equates the join attributes (exactly the paper's §3
/// description of the c-table join).
pub fn join(
    reg: &CVarRegistry,
    a: &Table,
    b: &Table,
    on: &[(usize, usize)],
    new_name: &str,
) -> Table {
    let mut attrs: Vec<String> = a.schema.attrs.clone();
    attrs.extend(b.schema.attrs.iter().cloned());
    let schema = Schema {
        name: new_name.to_owned(),
        attrs,
    };
    let mut out = Table::new(schema);
    for left in a.iter() {
        // Build a pattern for `b` fixing the join columns to the left
        // row's values — this exploits b's indexes.
        let mut pats = vec![Pattern::Any; b.schema.arity()];
        for &(la, lb) in on {
            pats[lb] = Pattern::Exact(left.terms[la].clone());
        }
        for (ridx, mu) in b.find_matches(reg, &pats) {
            let right = b.row(ridx);
            let mut terms = left.terms.clone();
            terms.extend(right.terms.iter().cloned());
            out.insert(CTuple {
                terms,
                cond: left.cond.clone().and(right.cond.clone()).and(mu),
            })
            .expect("join schema concatenates both input schemas");
        }
    }
    out
}

/// Union of two same-arity tables (conditions of equal-term rows merge
/// disjunctively via the table's dedup insert).
pub fn union(a: &Table, b: &Table, new_name: &str) -> Table {
    let schema = Schema {
        name: new_name.to_owned(),
        attrs: a.schema.attrs.clone(),
    };
    assert_eq!(a.schema.arity(), b.schema.arity(), "union arity mismatch");
    let mut out = Table::new(schema);
    for row in a.iter().chain(b.iter()) {
        out.insert(row.clone())
            .expect("union inputs were checked for equal arity");
    }
    out
}

/// C-table difference `a \ b`: every row of `a` survives with its
/// condition conjoined with `b`'s negation condition for its terms
/// ("present in `a` and not derivable from `b`").
pub fn difference(reg: &CVarRegistry, a: &Table, b: &Table, new_name: &str) -> Table {
    let schema = Schema {
        name: new_name.to_owned(),
        attrs: a.schema.attrs.clone(),
    };
    let mut out = Table::new(schema);
    for row in a.iter() {
        let not_in_b = b.negation_condition(reg, &row.terms);
        let cond = row.cond.clone().and(not_in_b);
        if cond != faure_ctable::Condition::False {
            out.insert(CTuple {
                terms: row.terms.clone(),
                cond,
            })
            .expect("difference preserves the left schema");
        }
    }
    out
}

/// Renames a table (schema name only).
pub fn rename(table: &Table, new_name: &str) -> Table {
    let mut out = table.clone();
    out.schema.name = new_name.to_owned();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use faure_ctable::{Condition, Const, Database, Domain, Term};

    fn setup() -> (CVarRegistry, faure_ctable::CVarId) {
        let mut db = Database::new();
        let x = db.fresh_cvar(
            "x",
            Domain::Consts(vec![Const::sym("1.2.3.4"), Const::sym("1.2.3.5")]),
        );
        (db.cvars, x)
    }

    fn table_p(reg_x: faure_ctable::CVarId) -> Table {
        // P(dest, path) like Table 2, simplified.
        let mut t = Table::new(Schema::new("P", &["dest", "path"]));
        t.insert(CTuple::new([Term::sym("1.2.3.4"), Term::sym("[ABC]")]))
            .unwrap();
        t.insert(CTuple::with_cond(
            [Term::Var(reg_x), Term::sym("[ABE]")],
            Condition::ne(Term::Var(reg_x), Term::sym("1.2.3.4")),
        ))
        .unwrap();
        t
    }

    fn table_c() -> Table {
        let mut t = Table::new(Schema::new("C", &["path", "cost"]));
        t.insert(CTuple::new([Term::sym("[ABC]"), Term::int(3)]))
            .unwrap();
        t.insert(CTuple::new([Term::sym("[ABE]"), Term::int(3)]))
            .unwrap();
        t
    }

    #[test]
    fn select_conjoins_match_condition() {
        let (reg, x) = setup();
        let t = table_p(x);
        let s = select(
            &reg,
            &t,
            &[Pattern::Exact(Term::sym("1.2.3.5")), Pattern::Any],
        );
        assert_eq!(s.len(), 1);
        // Row condition: (x̄ ≠ 1.2.3.4) ∧ (x̄ = 1.2.3.5)
        let expected = Condition::ne(Term::Var(x), Term::sym("1.2.3.4"))
            .and(Condition::eq(Term::Var(x), Term::sym("1.2.3.5")));
        assert!(faure_solver::equivalent(&reg, &s.row(0).cond, &expected).unwrap());
    }

    #[test]
    fn project_merges_duplicates() {
        let (_, _) = setup();
        let mut t = Table::new(Schema::new("T", &["a", "b"]));
        t.insert(CTuple::new([Term::int(1), Term::int(10)]))
            .unwrap();
        t.insert(CTuple::new([Term::int(1), Term::int(20)]))
            .unwrap();
        let p = project(&t, &[0], "Pa");
        assert_eq!(p.len(), 1);
        assert_eq!(p.schema.attrs, vec!["a".to_owned()]);
    }

    #[test]
    fn join_equates_join_attributes() {
        let (reg, x) = setup();
        let p = table_p(x);
        let c = table_c();
        // Join P.path = C.path (column 1 of P with column 0 of C).
        let j = join(&reg, &p, &c, &[(1, 0)], "PC");
        assert_eq!(j.schema.arity(), 4);
        // (1.2.3.4,[ABC]) joins ([ABC],3); (x̄,[ABE]) joins ([ABE],3).
        assert_eq!(j.len(), 2);
        for row in j.iter() {
            assert_eq!(row.terms[1], row.terms[2]); // equal constants here
        }
    }

    #[test]
    fn union_merges_conditions() {
        let (_, x) = setup();
        let mut a = Table::new(Schema::new("A", &["v"]));
        a.insert(CTuple::with_cond(
            [Term::int(1)],
            Condition::eq(Term::Var(x), Term::sym("1.2.3.4")),
        ))
        .unwrap();
        let mut b = Table::new(Schema::new("B", &["v"]));
        b.insert(CTuple::with_cond(
            [Term::int(1)],
            Condition::eq(Term::Var(x), Term::sym("1.2.3.5")),
        ))
        .unwrap();
        let u = union(&a, &b, "U");
        assert_eq!(u.len(), 1);
        assert!(matches!(u.row(0).cond, Condition::Or(_)));
    }

    #[test]
    fn difference_uses_negation_condition() {
        let (reg, x) = setup();
        let mut a = Table::new(Schema::new("A", &["v"]));
        a.insert(CTuple::new([Term::sym("1.2.3.4")])).unwrap();
        a.insert(CTuple::new([Term::sym("1.2.3.5")])).unwrap();
        let mut b = Table::new(Schema::new("B", &["v"]));
        b.insert(CTuple::new([Term::sym("1.2.3.4")])).unwrap(); // unconditional
        b.insert(CTuple::with_cond(
            [Term::Var(x)],
            Condition::eq(Term::Var(x), Term::sym("1.2.3.5")),
        ))
        .unwrap();
        let d = difference(&reg, &a, &b, "D");
        // 1.2.3.4 is unconditionally in b → dropped.
        // 1.2.3.5 matches b's var row under (x̄=1.2.3.5 ∧ x̄=1.2.3.5) →
        // survives with ¬(x̄=1.2.3.5 ∧ x̄=1.2.3.5).
        assert_eq!(d.len(), 1);
        assert_eq!(d.row(0).terms, vec![Term::sym("1.2.3.5")]);
        assert_ne!(d.row(0).cond, Condition::True);
    }

    #[test]
    fn rename_changes_only_name() {
        let (_, x) = setup();
        let t = table_p(x);
        let r = rename(&t, "Q");
        assert_eq!(r.schema.name, "Q");
        assert_eq!(r.len(), t.len());
    }
}
