//! Shared helpers for the Fauré integration test suites.
//!
//! The central helper is [`assert_lossless`], which checks the paper's
//! defining semantic property (§4): *fauré-log query evaluation on a
//! c-table database is equivalent to iterating pure datalog over every
//! possible world*. The left side runs the production engine
//! (`faure-core::engine`); the right side runs the independent ground
//! evaluator (`faure-core::reference`); the two share no evaluation
//! code.

use faure_core::reference::evaluate_ground;
use faure_core::{evaluate, Program};
use faure_ctable::worlds::WorldIter;
use faure_ctable::{Const, Database, GroundTuple};
use std::collections::{BTreeMap, BTreeSet};

pub mod corpus;

/// Instantiates the engine's derived relations in one world.
pub fn instantiate_derived(
    out: &faure_core::EvalOutput,
    program: &Program,
    assignment: &faure_ctable::Assignment,
) -> BTreeMap<String, BTreeSet<GroundTuple>> {
    let lookup = assignment.lookup();
    let mut res: BTreeMap<String, BTreeSet<GroundTuple>> = BTreeMap::new();
    for pred in program.idb_predicates() {
        let rel = out.relation(pred).expect("IDB relation exists");
        let mut set = BTreeSet::new();
        for row in rel.iter() {
            if row.cond.eval(&lookup) == Some(true) {
                set.insert(
                    row.terms
                        .iter()
                        .map(|t| {
                            t.instantiate(&lookup)
                                .expect("world assignment binds every c-variable")
                        })
                        .collect::<Vec<Const>>(),
                );
            }
        }
        res.insert(pred.to_owned(), set);
    }
    res
}

/// Asserts loss-lessness of `program` over `db`: for every possible
/// world, the instantiated fauré-log answer equals the pure-datalog
/// answer computed in that world. Returns the number of worlds checked.
///
/// The per-world checks are independent (each world gets its own ground
/// evaluation and instantiation), so they are fanned out across
/// `std::thread::scope` workers — the oracle dominates proptest
/// wall-clock, and the world count (domain-size ^ c-variables) is the
/// embarrassingly parallel axis. A failing world's assertion panic is
/// re-raised on the caller's thread with its message intact.
///
/// Requires every c-variable the program mentions to occur in `db` (so
/// world enumeration covers it) and all domains to be finite.
pub fn assert_lossless(program: &Program, db: &Database) -> usize {
    let out = evaluate(program, db).expect("fauré-log evaluation succeeds");
    let worlds: Vec<_> = WorldIter::new(db, None).expect("finite domains").collect();
    let threads = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .min(worlds.len());
    let check = |world: &faure_ctable::GroundDatabase| {
        let expected =
            evaluate_ground(program, &db.cvars, world).expect("reference evaluation succeeds");
        let got = instantiate_derived(&out, program, &world.assignment);
        assert_eq!(
            expected, got,
            "loss-lessness violated in world {:?}\nprogram:\n{program}",
            world.assignment
        );
    };
    if threads <= 1 {
        for world in &worlds {
            check(world);
        }
        return worlds.len();
    }
    // Contiguous balanced split; workers only read shared state.
    let base = worlds.len() / threads;
    let extra = worlds.len() % threads;
    std::thread::scope(|s| {
        let mut handles = Vec::with_capacity(threads);
        let mut rest: &[faure_ctable::GroundDatabase] = &worlds;
        for w in 0..threads {
            let take = base + usize::from(w < extra);
            let (chunk, tail) = rest.split_at(take);
            rest = tail;
            let check = &check;
            handles.push(s.spawn(move || {
                for world in chunk {
                    check(world);
                }
            }));
        }
        for h in handles {
            // Re-raise a worker's assertion panic with its original
            // message (join erases it into a Box<dyn Any>).
            if let Err(payload) = h.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
    worlds.len()
}
