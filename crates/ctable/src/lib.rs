//! # faure-ctable — the c-table data model
//!
//! This crate implements the relational structure at the heart of
//! [Fauré (HotNets '21)](https://doi.org/10.1145/3484266.3487391):
//! **conditional tables** (c-tables), the classic representation system
//! for incomplete information from Imieliński & Lipski (JACM '84).
//!
//! A c-table is a relation whose cells may contain *c-variables*
//! (unknown-but-named values) in addition to ordinary constants, and
//! whose rows each carry a *condition* — a boolean formula over the
//! c-variables. A single c-table `T` denotes a **set of possible
//! worlds**: one ordinary relation per assignment of the c-variables,
//! containing exactly the rows whose conditions are satisfied by the
//! assignment.
//!
//! The crate provides:
//!
//! * [`Symbol`] / [`intern`] — a global string interner so symbolic
//!   constants are cheap to copy, hash, and compare.
//! * [`Const`] — constants of the attribute domain: integers, interned
//!   symbols, and lists (used for paths like `[A,B,C]`).
//! * [`CVarId`] / [`CVarRegistry`] / [`Domain`] — c-variables with
//!   optional finite domains (e.g. link-state variables ranging over
//!   `{0,1}`).
//! * [`Term`] — a cell value: a constant or a c-variable. The set of
//!   terms is the paper's **c-domain** `dom^C`.
//! * [`Condition`] / [`Atom`] / [`LinExpr`] — the condition language:
//!   boolean combinations of (dis)equalities over terms and linear
//!   integer constraints over c-variables (e.g. `x̄ + ȳ + z̄ = 1`).
//! * [`CTuple`], [`Relation`], [`Schema`], [`Database`] — c-tables and
//!   databases of c-tables.
//! * [`worlds`] — exhaustive possible-world enumeration, the ground
//!   truth against which *loss-less modeling* is tested.
//!
//! Satisfiability of conditions is deliberately **not** implemented
//! here; see the `faure-solver` crate (the repo's Z3 substitute).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod condition;
pub mod cvar;
pub mod database;
pub mod error;
pub mod examples;
pub mod pool;
pub mod relation;
pub mod symbol;
pub mod term;
pub mod value;
pub mod worlds;

pub use condition::{Atom, CmpOp, Condition, Expr, LinExpr};
pub use cvar::{CVarId, CVarRegistry, Domain};
pub use database::{Database, TwinSlot};
pub use error::CtableError;
pub use pool::{CondId, ListId, PoolStats};
pub use relation::{CTuple, Relation, Schema};
pub use symbol::{intern, resolve, Symbol};
pub use term::Term;
pub use value::Const;
pub use worlds::{Assignment, GroundDatabase, GroundRelation, GroundTuple, WorldIter};

// Thread-safety audit: parallel evaluation shares these types across
// `std::thread::scope` workers by reference. Conditions are Arc-backed
// (never Rc), symbols intern to `&'static str` behind a global RwLock,
// and registries are plain vectors — all Send + Sync. The assertions
// below turn any future regression (e.g. an Rc or RefCell slipping into
// a cell type) into a compile error instead of a runtime surprise.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Condition>();
    assert_send_sync::<CondId>();
    assert_send_sync::<ListId>();
    assert_send_sync::<PoolStats>();
    assert_send_sync::<Atom>();
    assert_send_sync::<Term>();
    assert_send_sync::<Const>();
    assert_send_sync::<Symbol>();
    assert_send_sync::<CVarRegistry>();
    assert_send_sync::<CTuple>();
    assert_send_sync::<Relation>();
    assert_send_sync::<Database>();
};
