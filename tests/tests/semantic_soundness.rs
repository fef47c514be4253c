//! Soundness of the abstract interpreter.
//!
//! `faure_analyze::infer` claims an over-approximation: every value a
//! column can hold in any evaluation lies inside the inferred abstract
//! domain for that column, a predicate it infers empty derives nothing,
//! and a rule it proves infeasible contributes nothing. Its diagnostics
//! (F0009–F0014) and `faure explain`'s inferred domains rest on these
//! claims; the planner does not read them. They are checked here on the
//! shared random corpus (recursive, non-linear-recursive, and negated
//! programs over random c-table databases):
//!
//! 1. **Domain soundness**: in every possible world, every cell of
//!    every instantiated derived tuple is contained in the inferred
//!    per-column domain. (The check is per-world because a row's
//!    condition can exclude part of a c-variable's domain — e.g. a
//!    cell `$v` guarded by `$v != 1` never instantiates to 1, and the
//!    abstract domain is allowed to know that.)
//! 2. **Emptiness and infeasibility**: predicates inferred empty hold
//!    no row, and dropping every rule proven infeasible leaves every
//!    derived relation unchanged.

use faure_analyze::{infer, Inference};
use faure_core::engine::canonicalize;
use faure_core::{Engine, EvalOutput, Program};
use faure_ctable::worlds::WorldIter;
use faure_ctable::{Condition, Database, Term};
use faure_tests::corpus::{arb_db, arb_program};
use faure_tests::instantiate_derived;
use proptest::prelude::*;

/// Every derived row of every IDB relation, in stored order, with the
/// condition both raw and canonicalized (so a mismatch distinguishes
/// "different condition" from "same condition, different spelling").
fn derived_rows(
    out: &EvalOutput,
    program: &Program,
) -> Vec<(String, Vec<Term>, Condition, Condition)> {
    let mut rows = Vec::new();
    for pred in program.idb_predicates() {
        for row in out.relation(pred).expect("IDB relation exists").iter() {
            rows.push((
                pred.to_owned(),
                row.terms.clone(),
                row.cond.clone(),
                canonicalize(row.cond.clone()),
            ));
        }
    }
    rows
}

/// Asserts that in every possible world of `db`, every instantiated
/// derived tuple lies cell-wise inside the inferred column domains,
/// and that predicates inferred empty really instantiate to nothing.
fn assert_output_within_domains(
    out: &EvalOutput,
    program: &Program,
    inference: &Inference,
    db: &Database,
) {
    let worlds: Vec<_> = WorldIter::new(db, None)
        .expect("corpus domains are finite")
        .collect();
    for world in &worlds {
        let instantiated = instantiate_derived(out, program, &world.assignment);
        for (pred, tuples) in &instantiated {
            if !tuples.is_empty() {
                prop_assert!(
                    inference.nonempty.contains(pred.as_str()),
                    "{} derived rows in world {:?} but was inferred empty",
                    pred,
                    world.assignment
                );
            }
            let cols = inference
                .columns
                .get(pred)
                .expect("inferred columns exist for every IDB predicate");
            for tuple in tuples {
                prop_assert_eq!(tuple.len(), cols.len(), "arity mismatch for {}", pred);
                for (i, c) in tuple.iter().enumerate() {
                    prop_assert!(
                        cols[i].contains(c),
                        "derived {}[{}] = {:?} escapes inferred domain {} (world {:?})",
                        pred,
                        i,
                        c,
                        cols[i],
                        world.assignment
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every tuple `PreparedProgram::run` derives is contained in the
    /// inferred per-column abstract domains (soundness of `infer`).
    #[test]
    fn inferred_domains_contain_every_derived_tuple(db in arb_db(), program in arb_program()) {
        let inference = infer(&program, Some(&db));
        let out = Engine::new()
            .prepare(&program)
            .expect("prepare succeeds")
            .run(&db)
            .expect("evaluation succeeds");
        assert_output_within_domains(&out, &program, &inference, &db);
    }

    /// Program-only inference (no database) must also over-approximate
    /// any run: with no EDB facts to narrow them, domains may only be
    /// wider, never wrong.
    #[test]
    fn program_only_domains_still_contain_every_tuple(db in arb_db(), program in arb_program()) {
        let inference = infer(&program, None);
        let out = Engine::new()
            .prepare(&program)
            .expect("prepare succeeds")
            .run(&db)
            .expect("evaluation succeeds");
        assert_output_within_domains(&out, &program, &inference, &db);
    }

    /// The facts behind F0010/F0011 are sound: a predicate inferred
    /// empty derives no rows, and a rule proven infeasible contributes
    /// nothing (checked indirectly — dropping it leaves results
    /// unchanged).
    #[test]
    fn inference_claims_are_sound(db in arb_db(), program in arb_program()) {
        let inference = infer(&program, Some(&db));
        let out = Engine::new()
            .prepare(&program)
            .expect("prepare succeeds")
            .run(&db)
            .expect("evaluation succeeds");
        for pred in program.idb_predicates() {
            if !inference.nonempty.contains(pred) {
                let rel = out.relation(pred).expect("IDB relation exists");
                prop_assert!(
                    rel.is_empty(),
                    "{} inferred empty but derived {} rows",
                    pred,
                    rel.len()
                );
            }
        }
        let infeasible = |ri: usize| inference.rules[ri].infeasible.is_some();
        if (0..program.rules.len()).any(infeasible) {
            let kept: Vec<_> = program
                .rules
                .iter()
                .enumerate()
                .filter(|&(ri, _)| !infeasible(ri))
                .map(|(_, r)| r.clone())
                .collect();
            let trimmed = Program { rules: kept };
            // Dropping every infeasible rule must not lose tuples
            // in any IDB relation the trimmed program still defines.
            let trimmed_out = Engine::new()
                .prepare(&trimmed)
                .expect("trimmed prepare succeeds")
                .run(&db)
                .expect("trimmed evaluation succeeds");
            let mut full = derived_rows(&out, &trimmed);
            let mut cut = derived_rows(&trimmed_out, &trimmed);
            full.sort();
            cut.sort();
            prop_assert_eq!(full, cut, "a rule proven infeasible contributed tuples");
        }
    }
}
