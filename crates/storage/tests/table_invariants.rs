//! Table invariants under adversarial insert sequences.
//!
//! Random streams of inserts (duplicate terms, merged conditions,
//! contradictions, conditions too big to normalise) must preserve:
//!
//! * term-uniqueness: one row per distinct term vector;
//! * no `False` row conditions;
//! * index/scan agreement for every probe;
//! * semantic growth: the set of worlds in which a tuple is present
//!   never shrinks across inserts (conditions only widen);
//! * prune is semantically invisible.
//!
//! And the two per-row operations the engine's rule pass is built from
//! commute with possible-world instantiation on random c-tables: a
//! match `μ` of [`Table::find_matches`] conjoined onto its row's
//! condition keeps exactly the rows the pattern selects in each world,
//! and [`Table::negation_condition`] (a negated body literal) keeps
//! exactly the rows absent from the negated table in each world.

use faure_ctable::worlds::WorldIter;
use faure_ctable::{
    CTuple, CVarId, CVarRegistry, Condition, Const, Database, Domain, Schema, Term,
};
use faure_storage::{Pattern, Table};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn registry() -> CVarRegistry {
    let mut reg = CVarRegistry::new();
    reg.fresh("a", Domain::Bool01);
    reg.fresh("b", Domain::Bool01);
    reg.fresh("c", Domain::Ints(vec![0, 1, 2]));
    reg
}

const NVARS: u32 = 3;

fn all_assignments(reg: &CVarRegistry) -> Vec<faure_ctable::Assignment> {
    let domains: Vec<Vec<Const>> = (0..NVARS)
        .map(|i| reg.domain(CVarId(i)).members().unwrap())
        .collect();
    let mut out = vec![faure_ctable::Assignment::new()];
    for (i, dom) in domains.iter().enumerate() {
        let mut next = Vec::new();
        for a in &out {
            for v in dom {
                let mut a2 = a.clone();
                a2.set(CVarId(i as u32), v.clone());
                next.push(a2);
            }
        }
        out = next;
    }
    out
}

fn arb_term() -> impl Strategy<Value = Term> {
    prop_oneof![
        (0i64..3).prop_map(Term::int),
        (0u32..NVARS).prop_map(|i| Term::Var(CVarId(i))),
    ]
}

fn arb_cond() -> impl Strategy<Value = Condition> {
    let atom = (0u32..NVARS, 0i64..3, any::<bool>()).prop_map(|(v, k, eq)| {
        if eq {
            Condition::eq(Term::Var(CVarId(v)), Term::int(k))
        } else {
            Condition::ne(Term::Var(CVarId(v)), Term::int(k))
        }
    });
    let leaf = prop_oneof![Just(Condition::True), atom];
    leaf.prop_recursive(2, 8, 3, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 1..3).prop_map(Condition::conj),
            prop::collection::vec(inner, 1..3).prop_map(Condition::disj),
        ]
    })
}

fn arb_tuple() -> impl Strategy<Value = CTuple> {
    (prop::collection::vec(arb_term(), 2), arb_cond())
        .prop_map(|(terms, cond)| CTuple::with_cond(terms, cond))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn insert_stream_invariants(tuples in prop::collection::vec(arb_tuple(), 1..20)) {
        let reg = registry();
        let mut table = Table::new(Schema::new("T", &["x", "y"]));
        let assignments = all_assignments(&reg);
        // Per-world presence sets, tracked incrementally.
        let mut presence: Vec<BTreeSet<Vec<Const>>> =
            vec![BTreeSet::new(); assignments.len()];

        for t in &tuples {
            // Semantic reference update.
            for (w, a) in assignments.iter().enumerate() {
                let lookup = a.lookup();
                if t.cond.eval(&lookup) == Some(true) {
                    presence[w].insert(
                        t.terms.iter().map(|x| x.instantiate(&lookup).expect("bound")).collect(),
                    );
                }
            }
            table.insert(t.clone()).unwrap();

            // Invariant: distinct terms.
            let mut seen = BTreeSet::new();
            for row in table.iter() {
                prop_assert!(seen.insert(row.terms.clone()), "duplicate terms");
                prop_assert_ne!(&row.cond, &Condition::False);
            }
            // Invariant: per-world contents equal the reference.
            for (w, a) in assignments.iter().enumerate() {
                let lookup = a.lookup();
                let got: BTreeSet<Vec<Const>> = table
                    .iter()
                    .filter(|row| row.cond.eval(&lookup) == Some(true))
                    .map(|row| row.terms.iter().map(|x| x.instantiate(&lookup).expect("bound")).collect())
                    .collect();
                prop_assert_eq!(&got, &presence[w], "world {}", w);
            }
        }

        // Index/scan agreement on a few probes.
        for probe in [
            [Pattern::Exact(Term::int(0)), Pattern::Any],
            [Pattern::Exact(Term::int(2)), Pattern::Exact(Term::int(1))],
            [Pattern::Any, Pattern::Exact(Term::Var(CVarId(1)))],
        ] {
            let mut via_index: Vec<usize> = table
                .find_matches(&reg, &probe)
                .into_iter()
                .map(|(i, _)| i)
                .collect();
            via_index.sort_unstable();
            let mut via_scan: Vec<usize> = (0..table.len())
                .filter(|&i| Table::match_row(&reg, &table.row(i), &probe).is_some())
                .collect();
            via_scan.sort_unstable();
            prop_assert_eq!(via_index, via_scan);
        }

        // Prune is semantically invisible.
        let mut pruned = table.clone();
        let mut session = faure_solver::Session::new();
        pruned.prune(&reg, &mut session).unwrap();
        for (w, a) in assignments.iter().enumerate() {
            let lookup = a.lookup();
            let got: BTreeSet<Vec<Const>> = pruned
                .iter()
                .filter(|row| row.cond.eval(&lookup) == Some(true))
                .map(|row| row.terms.iter().map(|x| x.instantiate(&lookup).expect("bound")).collect())
                .collect();
            prop_assert_eq!(&got, &presence[w], "world {} after prune", w);
        }
    }
}

type GroundRows = BTreeSet<Vec<Const>>;

/// The rows present in one world, instantiated.
fn ground(
    rows: impl IntoIterator<Item = CTuple>,
    lookup: &impl Fn(CVarId) -> Option<Const>,
) -> GroundRows {
    rows.into_iter()
        .filter(|row| row.cond.eval(lookup) == Some(true))
        .map(|row| {
            row.terms
                .iter()
                .map(|t| t.instantiate(lookup).expect("world binds every c-variable"))
                .collect()
        })
        .collect()
}

/// A database with two small c-tables A(a,b), B(b,c) over two
/// three-valued c-variables.
fn arb_db() -> impl Strategy<Value = Database> {
    let cell = 0usize..5;
    let cond = 0usize..4;
    (
        prop::collection::vec((cell.clone(), cell.clone(), cond.clone()), 1..5),
        prop::collection::vec((cell.clone(), cell, cond), 1..5),
    )
        .prop_map(|(rows_a, rows_b)| {
            let mut db = Database::new();
            let u = db.fresh_cvar("u", Domain::Ints(vec![0, 1, 2]));
            let v = db.fresh_cvar("v", Domain::Ints(vec![0, 1, 2]));
            let mk_cell = |code: usize| match code {
                0..=2 => Term::Const(Const::Int(code as i64)),
                3 => Term::Var(u),
                _ => Term::Var(v),
            };
            let mk_cond = |code: usize| match code {
                0 => Condition::True,
                1 => Condition::eq(Term::Var(u), Term::int(1)),
                2 => Condition::ne(Term::Var(v), Term::int(2)),
                _ => Condition::eq(Term::Var(u), Term::int(0))
                    .and(Condition::eq(Term::Var(v), Term::int(1))),
            };
            db.create_relation(Schema::new("A", &["a", "b"])).unwrap();
            db.create_relation(Schema::new("B", &["b", "c"])).unwrap();
            for (x, y, c) in rows_a {
                db.insert("A", CTuple::with_cond([mk_cell(x), mk_cell(y)], mk_cond(c)))
                    .unwrap();
            }
            for (x, y, c) in rows_b {
                db.insert("B", CTuple::with_cond([mk_cell(x), mk_cell(y)], mk_cond(c)))
                    .unwrap();
            }
            // Make sure both c-variables occur.
            db.insert("A", CTuple::new([Term::Var(u), Term::Var(v)]))
                .unwrap();
            db
        })
}

fn tables(db: &Database) -> (Table, Table) {
    (
        Table::from_relation(db.relation("A").unwrap()),
        Table::from_relation(db.relation("B").unwrap()),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Each match of a constant pattern, kept under `cond ∧ μ`, is
    /// per-world filtering on that column.
    #[test]
    fn find_matches_commutes_with_instantiation(db in arb_db(), k in 0i64..3) {
        let (a, _) = tables(&db);
        let matched: Vec<CTuple> = a
            .find_matches(&db.cvars, &[Pattern::Exact(Term::int(k)), Pattern::Any])
            .into_iter()
            .map(|(idx, mu)| {
                let row = a.row(idx);
                CTuple::with_cond(row.terms, row.cond.and(mu))
            })
            .collect();
        for world in WorldIter::new(&db, None).unwrap() {
            let lookup = world.assignment.lookup();
            let expect: GroundRows = ground(a.iter(), &lookup)
                .into_iter()
                .filter(|row| row[0] == Const::Int(k))
                .collect();
            prop_assert_eq!(ground(matched.iter().cloned(), &lookup), expect);
        }
    }

    /// A row of `A` kept under `cond ∧ B.negation_condition(terms)` is
    /// per-world set difference `A \ B`.
    #[test]
    fn negation_condition_commutes_with_instantiation(db in arb_db()) {
        let (a, b) = tables(&db);
        let kept: Vec<CTuple> = a
            .iter()
            .map(|row| {
                let not_in_b = b.negation_condition(&db.cvars, &row.terms);
                CTuple::with_cond(row.terms, row.cond.and(not_in_b))
            })
            .collect();
        for world in WorldIter::new(&db, None).unwrap() {
            let lookup = world.assignment.lookup();
            let gb = ground(b.iter(), &lookup);
            let expect: GroundRows = ground(a.iter(), &lookup)
                .into_iter()
                .filter(|row| !gb.contains(row))
                .collect();
            prop_assert_eq!(ground(kept.iter().cloned(), &lookup), expect);
        }
    }

    /// Table::prune never changes per-world contents (it only removes
    /// dead rows / simplifies conditions).
    #[test]
    fn prune_is_semantically_invisible(db in arb_db()) {
        let (a, _) = tables(&db);
        let mut pruned = a.clone();
        let mut session = faure_solver::Session::new();
        pruned.prune(&db.cvars, &mut session).unwrap();
        for world in WorldIter::new(&db, None).unwrap() {
            let lookup = world.assignment.lookup();
            prop_assert_eq!(ground(a.iter(), &lookup), ground(pruned.iter(), &lookup));
        }
    }
}
