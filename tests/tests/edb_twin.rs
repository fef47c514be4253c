//! Input-relation twins: a `Database` is loaded once.
//!
//! Every run over a database borrows each input relation's columnar
//! twin (`Table::twin`), which the first run built and which any `&mut`
//! access to the relation drops. Two properties pin that down:
//!
//! * **coherence** — after any interleaving of runs of two programs that
//!   probe different columns of one relation, writes through every
//!   `&mut` method of `Database`, clones that are then written, and
//!   `materialize` + `apply` with the caller's database kept alive, a
//!   run over the database equals a run over a copy rebuilt from its
//!   rows (no twin): the same rows in the same order, the same
//!   conditions, the same counters — serially and at two threads and
//!   two shards;
//! * **loaded once** — a second run encodes no row and builds no index,
//!   a write makes the next run encode exactly the written relation,
//!   `apply` never writes to the caller's twin, and a relation that
//!   fails to load caches nothing.

use faure_core::{
    parse_program, DeletePattern, Delta, Engine, EvalError, EvalOptions, EvalOutput,
    MaterializedState, PreparedProgram,
};
use faure_ctable::{CTuple, Condition, Const, Database, Domain, Relation, Schema, Term};
use faure_storage::{PhaseStats, Table};
use faure_trace::stat::{Kind, Stats};
use proptest::prelude::*;
use std::sync::Arc;

/// The input relations and their arities. `A` probes `E` on columns
/// 0, (0, 2) and 2 (through `H`), `B` on columns 1 and 2; `H` is both
/// an input relation and a head of `A`. A twin `B` loaded first lists
/// its index on column 2 before `A`'s on column 0, so `A`'s (0, 2) key
/// finds its candidates through its own index only because the index
/// over exactly its columns wins.
const RELATIONS: [(&str, usize); 4] = [("E", 3), ("S", 1), ("T", 1), ("H", 1)];

const PROGRAM_A: &str = "A(a, c) :- S(a), E(a, b, c).\n\
                         A(a, d) :- A(a, c), E(c, b, d).\n\
                         A(b, a) :- S(a), E(a, b, a).\n\
                         H(b) :- E(a, b, 2), S(a).\n";
const PROGRAM_B: &str = "B(a, c) :- T(b), E(a, c, b).\n\
                         B(a, c) :- E(a, 1, c), !S(c).\n";

/// Three cell codes (0–2 constants, 3 and 4 the c-variables `v0` and
/// `v1`) and a condition code; a row uses as many cells as its arity.
type RowCode = ([usize; 3], usize);

fn arb_row() -> impl Strategy<Value = RowCode> {
    ((0usize..5, 0usize..5, 0usize..5), 0usize..5).prop_map(|((a, b, c), cond)| ([a, b, c], cond))
}

fn term(code: usize) -> Term {
    match code {
        0..=2 => Term::int(code as i64),
        3 => Term::Var(faure_ctable::CVarId(0)),
        _ => Term::Var(faure_ctable::CVarId(1)),
    }
}

fn row(arity: usize, (cells, cond): RowCode) -> CTuple {
    let (v0, v1) = (term(3), term(4));
    let cond = match cond {
        0 => Condition::True,
        1 => Condition::eq(v0.clone(), Term::int(1)),
        2 => Condition::ne(v0.clone(), Term::int(0)),
        3 => Condition::eq(v1.clone(), Term::int(1)),
        _ => Condition::eq(v0, Term::int(1)).and(Condition::ne(v1, Term::int(0))),
    };
    CTuple::with_cond(cells[..arity].iter().map(|&c| term(c)), cond)
}

fn schema(rel: usize) -> Schema {
    let (name, arity) = RELATIONS[rel];
    Schema::new(name, &["a", "b", "c"][..arity])
}

/// A database over [`RELATIONS`] with c-variable cells, where the first
/// `E` row comes again under another condition (the two merge).
fn arb_db() -> impl Strategy<Value = Database> {
    let rows = |n: std::ops::Range<usize>| prop::collection::vec(arb_row(), n);
    (rows(1..8), rows(0..4), rows(0..4), rows(0..3)).prop_map(|(e, s, t, h)| {
        let mut db = Database::new();
        db.fresh_cvar("v0", Domain::Ints(vec![0, 1, 2]));
        db.fresh_cvar("v1", Domain::Ints(vec![0, 1, 2]));
        for (rel, codes) in [&e, &s, &t, &h].into_iter().enumerate() {
            db.create_relation(schema(rel)).unwrap();
            for &code in codes {
                db.insert(RELATIONS[rel].0, row(RELATIONS[rel].1, code))
                    .unwrap();
            }
        }
        let ([a, b, c], cond) = e[0];
        db.insert("E", row(3, ([a, b, c], (cond + 1) % 5))).unwrap();
        db
    })
}

/// What one step does to the database before programs run over it.
#[derive(Clone, Debug)]
enum Action {
    /// Only the run that follows every step.
    Run,
    /// `relation_mut(..).tuples.push(..)`.
    Push,
    /// `relation_mut(..).tuples.pop()`.
    Pop,
    /// `insert`.
    Insert,
    /// `set_relation` with the step's rows.
    Replace,
    /// `remove_relation`.
    Remove,
    /// `create_relation` (when the relation is absent).
    Create,
    /// A clone, then an `insert` into the clone.
    CloneAndInsert,
    /// `materialize` over the database, then one `apply`.
    Maintain,
}

#[derive(Clone, Debug)]
struct Step {
    action: Action,
    rel: usize,
    rows: Vec<RowCode>,
    /// Which program the step runs: 0 is `A`, 1 is `B`.
    program: usize,
    /// `Maintain`: insert the first row, or delete this pattern (code 3
    /// is a free column).
    insert: bool,
    pattern: [usize; 3],
}

fn arb_step() -> impl Strategy<Value = Step> {
    let actions = [
        Action::Run,
        Action::Push,
        Action::Pop,
        Action::Insert,
        Action::Replace,
        Action::Remove,
        Action::Create,
        Action::CloneAndInsert,
        Action::Maintain,
    ];
    (
        0usize..actions.len(),
        0usize..RELATIONS.len(),
        prop::collection::vec(arb_row(), 1..4),
        0usize..2,
        any::<bool>(),
        (0usize..4, 0usize..4, 0usize..4),
    )
        .prop_map(move |(a, rel, rows, program, insert, (p0, p1, p2))| Step {
            action: actions[a].clone(),
            rel,
            rows,
            program,
            insert,
            pattern: [p0, p1, p2],
        })
}

/// A copy of `db` with the same registry and rows and no twin.
fn rebuilt(db: &Database) -> Database {
    let mut fresh = Database::new();
    fresh.cvars = db.cvars.clone();
    for rel in db.relations() {
        fresh.set_relation(rel.clone());
    }
    fresh
}

/// Every scalar counter of a run that does not depend on what earlier
/// runs left behind: all of `PhaseStats`' tables but the times and
/// `rows_encoded` (what this property is about). The solver memo's
/// hit/miss split is in: a memo lives and dies with its run.
fn counters(st: &PhaseStats) -> Vec<(&'static str, u64)> {
    fn table<S: Stats>(s: &S) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        S::STATS
            .iter()
            .filter(|stat| stat.kind != Kind::Nanos)
            .map(move |stat| (stat.key, (stat.get)(s)))
    }
    table(st)
        .filter(|(key, _)| *key != "rows_encoded")
        .chain(table(&st.ops))
        .chain(table(&st.shard))
        .chain(table(&st.solver_stats))
        .chain(st.delta_sizes.iter().map(|&n| ("delta_size", n as u64)))
        .collect()
}

/// Every relation of an output, in name order, rows in stored order.
fn relations(out: &EvalOutput) -> Vec<Relation> {
    out.database.relations().cloned().collect()
}

/// The relations a standing state holds for the predicates of both
/// programs.
fn standing(state: &MaterializedState) -> Vec<(&'static str, Option<Relation>)> {
    ["A", "B", "E", "H", "S", "T"]
        .into_iter()
        .map(|p| (p, state.relation(p)))
        .collect()
}

/// Runs `prepared` over `db` and over its rebuilt copy: both fail alike
/// or agree on rows, conditions and counters. Returns the run's
/// `rows_encoded`.
fn check_run(prepared: &PreparedProgram, db: &Database, what: &str) -> usize {
    let fresh = rebuilt(db);
    match (prepared.run(db), prepared.run(&fresh)) {
        (Ok(got), Ok(want)) => {
            assert_eq!(relations(&got), relations(&want), "{what}: rows");
            assert_eq!(
                counters(&got.stats),
                counters(&want.stats),
                "{what}: counters"
            );
            let encoded = got.stats.rows_encoded;
            assert_eq!(want.stats.rows_encoded, fresh.total_tuples(), "{what}");
            assert!(encoded <= want.stats.rows_encoded, "{what}: {encoded}");
            encoded
        }
        (got, want) => {
            assert_eq!(
                format!("{:?}", got.err()),
                format!("{:?}", want.err()),
                "{what}"
            );
            0
        }
    }
}

/// The `apply` of a `Maintain` step.
fn delta(step: &Step) -> Delta {
    // `H` is derived by `A`: a delta on it is refused, so it targets `E`.
    let rel = if step.rel == 3 { 0 } else { step.rel };
    let (name, arity) = RELATIONS[rel];
    let mut delta = Delta::new();
    if step.insert {
        delta.push_insert(name, row(arity, step.rows[0]));
    } else {
        let mut cols: Vec<Option<Const>> = step.pattern[..arity]
            .iter()
            .map(|&code| (code < 3).then_some(Const::Int(code as i64)))
            .collect();
        if cols.iter().all(Option::is_none) {
            cols[0] = Some(Const::Int(0));
        }
        delta.push_delete(name, DeletePattern { cols });
    }
    delta
}

/// `materialize` + `apply` over `db` (kept alive throughout) and over
/// its rebuilt copy agree on the report, its counters and every standing
/// relation.
fn check_maintain(prepared: &PreparedProgram, db: &Database, delta: Delta, what: &str) {
    let fresh = rebuilt(db);
    let (mut got, mut want) = match (prepared.materialize(db), prepared.materialize(&fresh)) {
        (Ok(got), Ok(want)) => (got, want),
        (got, want) => {
            let err = |r: Result<MaterializedState, EvalError>| format!("{:?}", r.err());
            return assert_eq!(err(got), err(want), "{what}");
        }
    };
    let (a, b) = (
        prepared.apply(&mut got, delta.clone()),
        prepared.apply(&mut want, delta),
    );
    match (a, b) {
        (Ok(a), Ok(b)) => {
            let report = |r: &faure_core::DeltaReport| {
                let fields = faure_core::DeltaReport::STATS.iter();
                let fields: Vec<u64> = fields.map(|stat| (stat.get)(r)).collect();
                (fields, counters(&r.stats))
            };
            assert_eq!(report(&a), report(&b), "{what}: report");
            assert_eq!(
                standing(&got),
                standing(&want),
                "{what}: standing relations"
            );
        }
        (a, b) => assert_eq!(format!("{:?}", a.err()), format!("{:?}", b.err()), "{what}"),
    }
}

/// Applies `step`'s write to `db`.
fn write(db: &mut Database, step: &Step) {
    let (name, arity) = RELATIONS[step.rel];
    let first = row(arity, step.rows[0]);
    match step.action {
        Action::Push => {
            if let Some(rel) = db.relation_mut(name) {
                rel.tuples.push(first);
            }
        }
        Action::Pop => {
            if let Some(rel) = db.relation_mut(name) {
                rel.tuples.pop();
            }
        }
        Action::Insert => {
            let _ = db.insert(name, first);
        }
        Action::Replace => {
            let mut rel = Relation::empty(schema(step.rel));
            for &code in &step.rows {
                rel.push(row(arity, code)).unwrap();
            }
            db.set_relation(rel);
        }
        Action::Remove => {
            db.remove_relation(name);
        }
        Action::Create => {
            let _ = db.create_relation(schema(step.rel));
        }
        Action::Run | Action::CloneAndInsert | Action::Maintain => {}
    }
}

fn prepare(src: &str, opts: EvalOptions) -> PreparedProgram {
    Engine::with_options(opts)
        .prepare(&parse_program(src).unwrap())
        .unwrap()
}

fn options(threads: usize, shards: usize) -> EvalOptions {
    EvalOptions {
        threads,
        shards,
        ..EvalOptions::default()
    }
}

proptest! {
    // 128 cases pass a build whose probes let a shared twin's other
    // indexes win a candidate tie; 256 catch it.
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// After every step, runs over the database equal runs over a copy
    /// rebuilt from its rows, for whichever program the step names,
    /// serially and at two threads and two shards.
    #[test]
    fn twins_stay_coherent_with_their_relations(
        db in arb_db(),
        steps in prop::collection::vec(arb_step(), 1..10),
    ) {
        let mut db = db;
        let programs: Vec<[PreparedProgram; 2]> = [options(1, 1), options(2, 2)]
            .into_iter()
            .map(|opts| [prepare(PROGRAM_A, opts), prepare(PROGRAM_B, opts)])
            .collect();
        for (i, step) in steps.iter().enumerate() {
            let what = format!("step {i} {step:?}");
            write(&mut db, step);
            for [a, b] in &programs {
                let prepared = [a, b][step.program];
                match step.action {
                    Action::CloneAndInsert => {
                        let mut copy = db.clone();
                        let (name, arity) = RELATIONS[step.rel];
                        let _ = copy.insert(name, row(arity, step.rows[0]));
                        check_run(prepared, &copy, &format!("{what} (clone)"));
                    }
                    Action::Maintain => check_maintain(prepared, &db, delta(step), &what),
                    _ => {}
                }
                check_run(prepared, &db, &what);
            }
        }
    }
}

const REACH: &str = "R(f, n1, n2) :- F(f, n1, n2).\n\
                     R(f, n1, n2) :- F(f, n1, n3), R(f, n3, n2).\n";

/// Three flows over a chain, one hop conditional.
fn forwarding() -> Database {
    let mut db = Database::new();
    let x = db.fresh_cvar("x", Domain::Bool01);
    db.create_relation(Schema::new("F", &["f", "n1", "n2"]))
        .unwrap();
    for f in 1..=3 {
        for n in 1..=4 {
            db.insert(
                "F",
                CTuple::new([Term::int(f), Term::int(n), Term::int(n + 1)]),
            )
            .unwrap();
        }
    }
    db.insert(
        "F",
        CTuple::with_cond(
            [Term::int(1), Term::int(5), Term::int(6)],
            Condition::eq(Term::Var(x), Term::int(1)),
        ),
    )
    .unwrap();
    db
}

/// A second run over a database encodes no row and builds no index: it
/// borrows the twin the first run left, which carries exactly the index
/// the reachability plans probe `F` on. A write drops the twin, and the
/// next run encodes the written relation again.
#[test]
fn a_database_is_loaded_once() {
    let mut db = forwarding();
    let prepared = prepare(REACH, options(1, 1));
    let first = prepared.run(&db).unwrap();
    assert_eq!(first.stats.rows_encoded, db.total_tuples());
    let twin = Table::cached_twin(&db, "F").expect("the run left a twin");
    let second = prepared.run(&db).unwrap();
    assert_eq!(second.stats.rows_encoded, 0);
    let again = Table::cached_twin(&db, "F").unwrap();
    assert!(Arc::ptr_eq(&twin, &again));
    let indexes: Vec<&[usize]> = again.indexed_columns().collect();
    assert_eq!(indexes, [[0, 2]]);
    assert_eq!(relations(&first), relations(&second));
    // A clone shares the twins; a program probing other columns extends
    // a copy of `F`'s and encodes nothing either.
    assert_eq!(prepared.run(&db.clone()).unwrap().stats.rows_encoded, 0);
    let other = prepare("Q(a) :- F(1, a, b).\n", options(1, 1));
    assert_eq!(other.run(&db).unwrap().stats.rows_encoded, 0);
    let extended = Table::cached_twin(&db, "F").unwrap();
    let indexes: Vec<&[usize]> = extended.indexed_columns().collect();
    assert_eq!(indexes, [&[0, 2][..], &[0]]);
    assert_eq!(prepared.run(&db).unwrap().stats.rows_encoded, 0);
    assert!(Arc::ptr_eq(
        &extended,
        &Table::cached_twin(&db, "F").unwrap()
    ));

    db.insert("F", CTuple::new([Term::int(3), Term::int(5), Term::int(1)]))
        .unwrap();
    assert!(Table::cached_twin(&db, "F").is_none());
    let third = prepared.run(&db).unwrap();
    assert_eq!(third.stats.rows_encoded, db.relation("F").unwrap().len());
    assert_eq!(
        relations(&third),
        relations(&prepared.run(&rebuilt(&db)).unwrap())
    );
}

/// A standing state borrows the caller's twin and writes to a copy: a
/// withdraw leaves the caller's twin the same `Arc`, and a run over the
/// caller's database still equals one over a rebuilt copy.
#[test]
fn apply_never_writes_to_the_callers_twin() {
    let db = forwarding();
    let prepared = prepare(REACH, options(1, 1));
    let mut state = prepared.materialize(&db).unwrap();
    let twin = Table::cached_twin(&db, "F").expect("materialize left a twin");
    let mut withdraw = Delta::new();
    withdraw.push_delete_exact("F", [Const::Int(1), Const::Int(2), Const::Int(3)]);
    let report = prepared.apply(&mut state, withdraw).unwrap();
    assert!(report.overdeleted > 0, "{report:?}");
    assert!(Arc::ptr_eq(&twin, &Table::cached_twin(&db, "F").unwrap()));
    assert_eq!(twin.len(), db.relation("F").unwrap().len());
    let out = prepared.run(&db).unwrap();
    assert_eq!(out.stats.rows_encoded, 0);
    assert_eq!(
        relations(&out),
        relations(&prepared.run(&rebuilt(&db)).unwrap())
    );
}

/// A row of the wrong arity, pushed past `Relation::push`'s check, fails
/// every run with a typed error, and no twin is cached for it.
#[test]
fn a_failed_load_is_not_cached() {
    let mut db = forwarding();
    let prepared = prepare(REACH, options(1, 1));
    prepared.run(&db).unwrap();
    db.relation_mut("F")
        .unwrap()
        .tuples
        .push(CTuple::new([Term::int(1)]));
    for _ in 0..2 {
        assert!(matches!(
            prepared.run(&db),
            Err(EvalError::ArityMismatch { .. })
        ));
        assert!(Table::cached_twin(&db, "F").is_none());
    }
}
