//! Differential testing of `Table::prune_parallel` against the serial
//! solver-phase prune.
//!
//! `Table::prune_parallel` once split a table's rows across scoped
//! workers; since the prune decides each distinct condition once it is
//! `Table::prune` under the old signature. What callers were promised
//! still has to hold at every thread count: *bit-identical* to the
//! serial walk — same kept rows, same simplified conditions, in the
//! same stored order — with the deterministic solver counters
//! (`sat_calls`, `sat_true`, `simplify_calls`, and the hit+miss total)
//! matching too.
//!
//! The tables are built from the shared random corpus databases, with
//! extra rows whose conditions only the solver can refute (linear
//! arithmetic over the corpus c-variables), so the prune actually
//! removes and simplifies rows rather than passing everything through.

use faure_core::eval::canonicalize;
use faure_ctable::{CTuple, CmpOp, Condition, Database, LinExpr, Term};
use faure_solver::{Session, SharedMemo, SolverStats};
use faure_storage::Table;
use faure_tests::corpus::arb_db;
use proptest::prelude::*;

/// The corpus database's relations as prune-ready tables, with three
/// appended rows per table that force real solver work: a
/// solver-only-unsat linear condition (`v̄0 + v̄1 = 5` over `{0,1,2}²`),
/// a tight-but-satisfiable one (`v̄0 + v̄1 = 4`), and a valid
/// disjunction that simplifies to `True`.
fn tables_of(db: &Database) -> Vec<Table> {
    let v0 = db.cvars.by_name("v0").expect("corpus c-variable v0");
    let v1 = db.cvars.by_name("v1").expect("corpus c-variable v1");
    let lin = |k: i64| {
        Condition::cmp(
            LinExpr::var(v0).plus_var(1, v1),
            CmpOp::Eq,
            LinExpr::constant(k),
        )
    };
    let valid =
        Condition::eq(Term::Var(v0), Term::int(0)).or(Condition::ne(Term::Var(v0), Term::int(0)));
    db.relations()
        .map(|rel| {
            let mut t = Table::from_relation(rel);
            for (i, cond) in [lin(5), lin(4), valid.clone()].into_iter().enumerate() {
                let terms: Vec<Term> = (0..t.schema.arity())
                    .map(|_| Term::int(90 + i as i64))
                    .collect();
                t.insert(CTuple::with_cond(terms, cond)).unwrap();
            }
            t
        })
        .collect()
}

/// Stored rows after pruning: terms, raw condition, and the condition
/// canonicalized (so a mismatch distinguishes "different condition"
/// from "same condition, different spelling").
fn rows_of(t: &Table) -> Vec<(Vec<Term>, Condition, Condition)> {
    (0..t.len())
        .map(|i| {
            let row = t.row(i);
            (
                row.terms.clone(),
                row.cond.clone(),
                canonicalize(row.cond.clone()),
            )
        })
        .collect()
}

/// The schedule-independent projection of the solver counters.
fn deterministic_counters(s: &SolverStats) -> (u64, u64, u64, u64) {
    (
        s.sat_calls,
        s.sat_true,
        s.simplify_calls,
        s.memo_hits + s.memo_misses,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Parallel prune is bit-identical to serial at every thread count,
    /// with matching removal counts and deterministic solver counters.
    #[test]
    fn parallel_prune_is_bit_identical_to_serial(db in arb_db()) {
        let reg = db.cvars.clone();
        let mut serial_tables = tables_of(&db);
        let mut serial_session = Session::new();
        let mut serial_removed = Vec::new();
        for t in &mut serial_tables {
            serial_removed.push(t.prune(&reg, &mut serial_session).unwrap());
        }
        let serial_rows: Vec<_> = serial_tables.iter().map(rows_of).collect();

        for threads in [1usize, 2, 4] {
            let mut tables = tables_of(&db);
            let memo = std::sync::Arc::new(SharedMemo::for_registry(&reg));
            let mut session = Session::new();
            let mut removed = Vec::new();
            for t in &mut tables {
                removed.push(t.prune_parallel(&reg, &mut session, &memo, threads).unwrap());
            }
            prop_assert_eq!(&removed, &serial_removed, "removed counts, threads={}", threads);
            let rows: Vec<_> = tables.iter().map(rows_of).collect();
            prop_assert_eq!(&rows, &serial_rows, "kept rows diverged, threads={}", threads);
            prop_assert_eq!(
                deterministic_counters(&session.stats()),
                deterministic_counters(&serial_session.stats()),
                "solver counters diverged, threads={}",
                threads
            );
        }
    }
}
