//! The one file that calls into the engine and the verifier.
//!
//! Every workload reaches `faure-core` and `faure-verify` through the
//! functions here, and only through their long-lived entry points
//! (`Engine::with_options().prepare`, `run`, `run_traced`,
//! `materialize_with`, `apply`, `verify`), so a change that collapses
//! the engine's API costs the benchmark an edit to this file alone.
//! The per-layer replays in `replay.rs` are the deliberate exception:
//! they time one layer's own public function.

pub use faure_core::{
    Delta, DeltaReport, EvalError, EvalOptions, EvalOutput, MaterializedState, PreparedProgram,
    Program,
};
pub use faure_verify::{Constraint, Level, Report, VerifyError};

use faure_core::{Engine, PrunePolicy, Update};
use faure_ctable::{CVarRegistry, Database};
use faure_trace::Tracer;

/// Evaluation options with every field pinned: `EvalOptions::default()`
/// reads `FAURE_THREADS` / `FAURE_SHARDS`, which must not reach a
/// measurement.
pub fn options(threads: usize, shards: usize) -> EvalOptions {
    EvalOptions {
        prune: PrunePolicy::EndOfStratum,
        semi_naive: true,
        max_iterations: 100_000,
        threads,
        shards,
    }
}

/// Removes the variables `EvalOptions::default()` reads from this
/// process's environment. `verify` builds default options internally,
/// so pinning [`options`] alone would leave it exposed.
pub fn scrub_environment() {
    std::env::remove_var("FAURE_THREADS");
    std::env::remove_var("FAURE_SHARDS");
}

/// Analysis and planning; the `prepare/*` spans go to `tracer`.
pub fn prepare(
    program: &Program,
    opts: EvalOptions,
    tracer: &Tracer,
) -> Result<PreparedProgram, EvalError> {
    Engine::with_options(opts).prepare_traced(program, tracer)
}

/// One batch evaluation; the `eval/*` and `fixpoint/*` spans go to
/// `tracer`.
pub fn run(
    prepared: &PreparedProgram,
    db: &Database,
    tracer: &Tracer,
) -> Result<EvalOutput, EvalError> {
    prepared.run_traced(db, tracer)
}

/// A standing evaluation; every later [`apply`] reports its
/// `maintain/*` spans to `tracer`.
pub fn materialize(
    prepared: &PreparedProgram,
    db: &Database,
    opts: EvalOptions,
    tracer: &Tracer,
) -> Result<MaterializedState, EvalError> {
    prepared.materialize_with(db, &opts, tracer)
}

/// One incremental update.
pub fn apply(
    prepared: &PreparedProgram,
    state: &mut MaterializedState,
    delta: Delta,
) -> Result<DeltaReport, EvalError> {
    prepared.apply(state, delta)
}

/// One request to the section 5 verification ladder.
pub fn verify(
    known: &[Constraint],
    target: &Constraint,
    update: Option<&Update>,
    post_state: Option<&Database>,
    reg: &CVarRegistry,
) -> Result<Report, VerifyError> {
    faure_verify::verify(known, target, update, post_state, reg)
}
