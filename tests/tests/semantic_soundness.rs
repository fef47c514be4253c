//! Soundness of the abstract interpreter and the planner-hint channel.
//!
//! `faure_analyze::infer` claims an over-approximation: every value a
//! column can hold in any evaluation lies inside the inferred abstract
//! domain for that column. `faure_analyze::plan_hints` feeds those
//! domains to the planner, which may only use them to *reorder* joins
//! and to cut rule bodies that are provably empty — never to change
//! what is derived. Both contracts are checked here on the shared
//! random corpus (recursive, non-linear-recursive, and negated
//! programs over random c-table databases):
//!
//! 1. **Domain soundness**: in every possible world, every cell of
//!    every instantiated derived tuple is contained in the inferred
//!    per-column domain. (The check is per-world because a row's
//!    condition can exclude part of a c-variable's domain — e.g. a
//!    cell `$v` guarded by `$v != 1` never instantiates to 1, and the
//!    abstract domain is allowed to know that.)
//! 2. **Hint transparency**: evaluation prepared with
//!    [`Engine::prepare_traced_with_hints`] is bit-identical (rows,
//!    conditions raw and canonicalized, row order) to the unhinted
//!    run, and hinted predicates/rules marked empty/infeasible really
//!    derive nothing.

use faure_analyze::{infer, plan_hints, Inference};
use faure_core::engine::canonicalize;
use faure_core::{Engine, EvalOutput, Program};
use faure_ctable::worlds::WorldIter;
use faure_ctable::{Condition, Database, Term};
use faure_tests::corpus::{arb_db, arb_program};
use faure_tests::instantiate_derived;
use faure_trace::Tracer;
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

    /// Planner-hinted evaluation is bit-identical to unhinted
    /// evaluation: same rows, same conditions (raw and canonicalized),
    /// same order. Hints may change join order and cut provably-empty
    /// branches, never results.
    #[test]
    fn hinted_evaluation_is_bit_identical(db in arb_db(), program in arb_program()) {
        let plain = Engine::new()
            .prepare(&program)
            .expect("prepare succeeds")
            .run(&db)
            .expect("evaluation succeeds");
        let hints = plan_hints(&program, Some(&db));
        let hinted = Engine::new()
            .prepare_traced_with_hints(&program, hints, &Tracer::disabled())
            .expect("hinted prepare succeeds")
            .run(&db)
            .expect("hinted evaluation succeeds");
        prop_assert_eq!(
            derived_rows(&plain, &program),
            derived_rows(&hinted, &program),
            "hints changed evaluation results"
        );
    }

    /// The hints themselves are sound: a predicate in `empty_preds`
    /// derives no rows, and an infeasible rule contributes nothing
    /// (checked indirectly — dropping it leaves results unchanged).
    #[test]
    fn hint_claims_are_sound(db in arb_db(), program in arb_program()) {
        let hints = plan_hints(&program, Some(&db));
        let out = Engine::new()
            .prepare(&program)
            .expect("prepare succeeds")
            .run(&db)
            .expect("evaluation succeeds");
        for pred in program.idb_predicates() {
            if hints.empty_preds.contains(pred) {
                let rel = out.relation(pred).expect("IDB relation exists");
                prop_assert!(
                    rel.is_empty(),
                    "{} hinted empty but derived {} rows",
                    pred,
                    rel.len()
                );
            }
        }
        if !hints.infeasible_rules.is_empty() {
            let kept: Vec<_> = program
                .rules
                .iter()
                .enumerate()
                .filter(|(i, _)| !hints.infeasible_rules.contains(i))
                .map(|(_, r)| r.clone())
                .collect();
            let trimmed = Program { rules: kept };
            // Dropping every hinted-infeasible rule must not lose tuples
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
            prop_assert_eq!(full, cut, "an infeasible-hinted rule contributed tuples");
        }
    }
}
