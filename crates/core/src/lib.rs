//! # faure-core — fauré-log, a Datalog extension over c-tables
//!
//! This crate is the primary contribution of
//! [Fauré (HotNets '21)](https://doi.org/10.1145/3484266.3487391): a
//! deductive query language for **partial network states** represented
//! as conditional tables, together with the static-analysis machinery
//! that powers relative-complete verification.
//!
//! ## Modules
//!
//! * [`ast`] / [`parser`] — rules, programs, and their textual syntax
//!   (`R(f, n1, n2) :- F(f, n1, n3), R(f, n3, n2).`);
//! * [`analysis`] — safety (range restriction) and stratification;
//! * [`engine`] — evaluation with the **c-valuation** `v^C` (§3):
//!   variables range over the c-domain, constants match c-variable
//!   cells conditionally, and derived rows carry the conjunction of
//!   their provenance conditions; recursion by stratified semi-naive
//!   fixpoint, negation as *not derivable from the c-table*. Programs
//!   can be [prepared](engine::Engine::prepare) once and
//!   [run](engine::PreparedProgram::run) against many databases, and
//!   the fixpoint inner loop parallelises across threads
//!   ([`EvalOptions::threads`]) with bit-identical results;
//! * [`mod@reference`] — an independent pure-datalog evaluator over single
//!   possible worlds, the ground truth for **loss-less modeling** (§4);
//! * [`containment`] — constraint subsumption by the paper's reduction
//!   of program containment to fauré-log evaluation (§5, category (i));
//! * [`update`] — the insert/delete constraint rewrite (§5 Listing 4,
//!   category (ii)).
//!
//! ## Quick start
//!
//! ```
//! use faure_core::{parse_program, evaluate};
//! use faure_ctable::examples::table2_path_db;
//!
//! // Table 2's PATH' database: P is a c-table, C a regular table.
//! let (db, _) = table2_path_db();
//! // q2/q3 of the paper: what does it cost to reach 1.2.3.4?
//! let program = parse_program(r#"Cost(c) :- P("1.2.3.4", p), C(p, c)."#).unwrap();
//! let out = evaluate(&program, &db).unwrap();
//! // Two conditional answers: 3 if x̄ = [ABC], 4 if x̄ = [ADEC].
//! assert_eq!(out.relation("Cost").unwrap().len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod ast;
pub mod containment;
pub mod engine;
pub mod parser;
pub mod plan;
pub mod reference;
pub mod update;

pub use analysis::{analyze, check_safety, stratify, AnalysisError, Finding, Stratification};
pub use ast::{ArgTerm, CompExpr, Comparison, Literal, Program, Rule, RuleAtom};
pub use containment::{subsumes, ContainmentError, Subsumption, GOAL};
pub use engine::{
    evaluate, evaluate_with, without_telemetry, Applies, Delta, DeltaReport, Engine, EvalError,
    EvalOptions, EvalOutput, MaterializedState, PreparedProgram, PrunePolicy,
};
pub use parser::{
    parse_program, parse_program_spanned, parse_rule, AtomSpans, ParseError, RuleSpans, Span,
    SpannedProgram,
};
pub use plan::{
    compile_rule, explain_program, explain_program_json, maintenance_meta, JoinStep,
    MaintenanceMeta, PlanCache, RulePlan,
};
pub use update::{
    apply_to_database, expand_constraint, rewrite_constraint, DeletePattern, Update, UpdateError,
};

/// Parses and evaluates `src` against `db` in one call (default
/// options). Convenience for examples and tests.
pub fn run(
    src: &str,
    db: &faure_ctable::Database,
) -> Result<EvalOutput, Box<dyn std::error::Error>> {
    let program = parse_program(src)?;
    Ok(evaluate(&program, db)?)
}
