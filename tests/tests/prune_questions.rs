//! The solver phase asks one question per condition.
//!
//! `Table::prune` decides every distinct condition of a table once. A
//! condition of one disjunct (or an opaque one) is only simplified:
//! `Session::simplify_pruned_id` decides its satisfiability on the way.
//! It used to be asked `satisfiable_id` first and simplified after, two
//! questions whose first answer the second repeats. A wider antichain
//! asks each disjunct's satisfiability, then simplifies the disjunction
//! of the live ones.
//!
//! Before any of these questions, a condition whose atoms all range
//! over small finite domains is decided from its mask form
//! (`faure_solver::mask`), and the search never runs for it. Without a
//! form, a wider antichain's survivor is asked `Session::valid_id`, not
//! simplified: its disjuncts are already known to be satisfiable.
//!
//! This suite pins that neither change moved an answer. On the
//! conditions `net::rib` (q4–q8), `net::frr`, `net::interdomain` and the
//! shared random corpus produce *before* the solver phase (every row of
//! an evaluation run with `PrunePolicy::Never`), the prune keeps exactly
//! the rows two searched references keep, each with the same `CondId`:
//! the two-question path, and the one-question path as it runs for a
//! condition without a mask form — the arm the mask path is held to.
//! And it asks exactly one question per single-disjunct or opaque
//! condition, with or without a mask form.

use faure_core::{Engine, EvalOptions, Program, PrunePolicy};
use faure_ctable::pool::{self, CondId};
use faure_ctable::{CTuple, CVarRegistry, Database, Schema, Term};
use faure_net::{frr, interdomain, queries, rib};
use faure_solver::{Session, SolverError};
use faure_storage::{dnf, Table};
use faure_tests::corpus::{arb_db, arb_program};
use proptest::prelude::*;
use rand::SeedableRng;
use std::collections::BTreeSet;

/// At most this many distinct conditions are checked per source, so a
/// RIB workload stays a sample and the suite stays quick.
const SAMPLE: usize = 600;

/// The pre-solver condition of every row `program` derives over `db`,
/// and of every input row: distinct, in first-seen order, with the
/// registry they are over (the program may declare c-variables).
fn unpruned_conditions(program: &Program, db: &Database) -> (CVarRegistry, Vec<CondId>) {
    let opts = EvalOptions {
        prune: PrunePolicy::Never,
        ..EvalOptions::default()
    };
    let out = Engine::with_options(opts)
        .prepare(program)
        .and_then(|prepared| prepared.run(db));
    let Ok(out) = out else {
        return (db.cvars.clone(), Vec::new());
    };
    let mut seen = BTreeSet::new();
    let conds = out
        .database
        .relations()
        .flat_map(|rel| rel.iter())
        .map(|row| pool::intern(&row.cond))
        .filter(|&id| seen.insert(id))
        .take(SAMPLE)
        .collect();
    (out.database.cvars, conds)
}

/// The solver phase as it was, on a row outside the side list whose
/// stored condition is `cond`: every disjunct asked whether it is
/// satisfiable (a lone disjunct being the condition itself), then the
/// survivor simplified when it is small enough for the validity check.
fn two_questions(
    reg: &CVarRegistry,
    session: &mut Session,
    cond: CondId,
) -> Result<CondId, SolverError> {
    let form = dnf::normal_form(cond);
    let Some(sets) = form.sets.as_deref() else {
        return session.simplify_pruned_id(reg, cond);
    };
    let mut live = Vec::new();
    for set in sets {
        let conj = match sets.len() {
            1 => cond,
            _ => pool::intern(&dnf::condition_of(std::slice::from_ref(set))),
        };
        if session.satisfiable_id(reg, conj)? {
            live.push(set.clone());
        }
    }
    if live.is_empty() {
        return Ok(CondId::FALSE);
    }
    let survivor = match live.len() == sets.len() {
        true => cond,
        false => pool::intern(&dnf::condition_of(&live)),
    };
    if pool::resolve(survivor).size() <= 128 {
        session.simplify_pruned_id(reg, survivor)
    } else {
        Ok(survivor)
    }
}

/// The prune's search path on a row outside the side list whose stored
/// condition is `cond`: a condition of at most one disjunct (or none
/// known) simplified; a wider antichain's disjuncts asked whether they
/// are satisfiable, then the survivor whether it is valid.
fn searched(
    reg: &CVarRegistry,
    session: &mut Session,
    cond: CondId,
) -> Result<CondId, SolverError> {
    let form = dnf::normal_form(cond);
    let sets = match form.sets.as_deref() {
        Some(sets) if sets.len() > 1 => sets,
        _ => return session.simplify_pruned_id(reg, cond),
    };
    let mut live = Vec::new();
    for set in sets {
        let conj = pool::intern(&dnf::condition_of(std::slice::from_ref(set)));
        if session.satisfiable_id(reg, conj)? {
            live.push(set.clone());
        }
    }
    if live.is_empty() {
        return Ok(CondId::FALSE);
    }
    let survivor = match live.len() == sets.len() {
        true => cond,
        false => pool::intern(&dnf::condition_of(&live)),
    };
    if pool::resolve(survivor).size() <= 128 && session.valid_id(reg, survivor)? {
        Ok(CondId::TRUE)
    } else {
        Ok(survivor)
    }
}

/// What a row whose condition simplified to `simplified` stores, or
/// `None` when it goes.
fn stored(simplified: CondId) -> Option<CondId> {
    let form = dnf::normal_form(simplified);
    (!form.stored.is_false()).then_some(form.stored)
}

/// How many sampled conditions took each path.
#[derive(Debug, Default)]
struct Paths {
    /// At most one disjunct, or none known: one question.
    single: usize,
    /// Wider antichains.
    wider: usize,
    /// Decided from the mask form, with no search.
    masked: usize,
}

/// For each condition in `conds`: a one-row table pruned with a fresh
/// session keeps or drops its row exactly as the two-question path and
/// the one-question search path decide, with the same id, and asks one
/// question when the condition has at most one disjunct or none known.
fn assert_one_question_per_condition(reg: &CVarRegistry, conds: &[CondId], source: &str) -> Paths {
    let schema = Schema::new("T", &["k"]);
    let mut paths = Paths::default();
    for &id in conds {
        let mut t = Table::new(schema.clone());
        t.insert(CTuple::with_cond([Term::int(0)], pool::resolve(id)))
            .expect("one column");
        if t.is_empty() {
            // Insertion already saw the condition is false.
            continue;
        }
        let cond = t.cond_id(0);
        let want = two_questions(reg, &mut Session::new(), cond).map(stored);
        let search = searched(reg, &mut Session::new(), cond).map(stored);
        let mut session = Session::new();
        let got = t
            .prune(reg, &mut session)
            .map(|removed| (removed == 0).then(|| t.cond_id(0)));
        assert_eq!(
            got,
            want,
            "{source}: {:?} decided differently",
            pool::resolve(cond)
        );
        assert_eq!(
            got,
            search,
            "{source}: {:?} decided differently by the search path",
            pool::resolve(cond)
        );
        if session.stats().mask_decided > 0 {
            paths.masked += 1;
        }
        let disjuncts = dnf::normal_form(cond).sets.as_ref().map(Vec::len);
        if disjuncts.is_some_and(|n| n > 1) {
            paths.wider += 1;
        } else {
            paths.single += 1;
            let st = session.stats();
            assert_eq!(
                (st.sat_calls, st.simplify_calls),
                (0, 1),
                "{source}: {:?} took more than one question",
                pool::resolve(cond)
            );
        }
    }
    paths
}

#[test]
fn rib_queries_q4_to_q8() {
    let w = rib::generate(&rib::RibParams {
        prefixes: 60,
        ..rib::RibParams::default()
    });
    let (src, dst) = rib::frequent_pair(&w).unwrap_or((1, 2));
    for (name, program) in [
        ("q4-q5", queries::reachability_program()),
        ("q4-q8", queries::listing2_program(src, dst, dst)),
    ] {
        let (reg, conds) = unpruned_conditions(&program, &w.db);
        let paths = assert_one_question_per_condition(&reg, &conds, name);
        assert!(paths.single > 100, "{name}: {paths:?}");
        // Every atom ranges over {0,1}: every condition has a mask form.
        assert_eq!(
            paths.masked,
            paths.single + paths.wider,
            "{name}: {paths:?}"
        );
    }
}

#[test]
fn frr_reachability() {
    let (db, _) = frr::figure1_database();
    let (reg, conds) = unpruned_conditions(&queries::reachability_program(), &db);
    let paths = assert_one_question_per_condition(&reg, &conds, "figure 1");
    assert!(paths.wider > 0, "figure 1 merged no disjuncts");
    assert!(paths.masked > 0, "figure 1: {paths:?}");
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    for n in [6, 9] {
        let (db, _) = frr::random_config(n, n - 2, &mut rng).build_database(1);
        let (reg, conds) = unpruned_conditions(&queries::reachability_program(), &db);
        assert_one_question_per_condition(&reg, &conds, "random FRR");
    }
}

#[test]
fn interdomain_reachability() {
    let s = interdomain::Internet::new()
        .known(1, &[2, 4])
        .opaque(2, &[3, 8])
        .opaque(3, &[9, 8])
        .opaque(4, &[3, 9])
        .known(8, &[9])
        .build();
    let (reg, conds) = unpruned_conditions(&interdomain::reach_program(), &s.db);
    let paths = assert_one_question_per_condition(&reg, &conds, "interdomain");
    assert!(
        paths.single + paths.wider > 0,
        "interdomain derived nothing"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn corpus_programs(db in arb_db(), program in arb_program()) {
        let (reg, conds) = unpruned_conditions(&program, &db);
        assert_one_question_per_condition(&reg, &conds, "corpus");
    }
}
