//! Shared, lock-sharded solver memo for parallel evaluation.
//!
//! A [`crate::Session`] memoises satisfiability and simplification
//! results keyed by the pooled [`CondId`] of the (canonical) condition
//! — interning is injective on structure, so an id key is exactly as
//! precise as the old whole-tree key while hashing a single `u32`.
//! Entries are `(CondId, generation)`-stamped. Under parallel fixpoint
//! evaluation each worker thread runs its own session; without sharing,
//! every worker would re-solve the conditions its siblings already
//! decided and the ~87 % memo hit rate the fixpoint relies on would
//! fall with the thread count. [`SharedMemo`] is the shared backing
//! store: a fixed set of mutex-protected shards, each holding a slice
//! of the condition space selected by hash.
//!
//! Sharding keeps contention low (two workers only collide when their
//! condition ids land in the same shard — the shard is just
//! `id % SHARDS`, no hashing at all) while staying dependency-free —
//! plain `std::sync::Mutex`, no lock-free machinery.
//!
//! ## Soundness under races
//!
//! The memo caches *ground truth*: `satisfiable` and `simplify_pruned`
//! are deterministic functions of the condition (given the append-only
//! registry of the run). If two workers race on the same uncached
//! condition, both compute the same answer and the second `put` is a
//! no-op overwrite — results never depend on interleaving, only the
//! hit/miss statistics do.
//!
//! ## Cross-run reuse
//!
//! Conditions reference c-variables only by [`CVarId`](faure_ctable::CVarId)
//! — a registry index — so a cached verdict is meaningful for *any*
//! registry that assigns the same `(name, domain)` sequence. A memo
//! built with [`SharedMemo::for_registry`] records the registry's
//! structural [fingerprint](faure_ctable::CVarRegistry::fingerprint);
//! callers that want to carry the memo across evaluation runs (batch
//! mode) check [`matches_registry`](SharedMemo::matches_registry) and
//! discard the memo when the signature changed.
//!
//! Each entry is additionally stamped with the run *generation* current
//! at insert time. [`begin_run`](SharedMemo::begin_run) bumps the
//! generation; a lookup that finds an entry stamped by an earlier
//! generation reports it as a **cross-run** hit, which sessions surface
//! as [`SolverStats::cross_run_hits`](crate::SolverStats::cross_run_hits)
//! so batch-mode reuse is observable in metrics.

use faure_ctable::pool::{self, CondId};
use faure_ctable::{CVarRegistry, Condition};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;

/// Number of independently locked shards. A small power of two is
/// plenty: with the engine's worker counts (single digits) the
/// collision probability per access is `workers / SHARDS`.
const SHARDS: usize = 16;

/// Upper bound on entries per shard per kind, so the whole memo stays
/// within the same budget as a local session memo
/// (`MEMO_CAP = 1 << 16` entries total per kind).
const SHARD_CAP: usize = super::session::MEMO_CAP / SHARDS;

/// One memo entry: the cached value, the run generation that wrote
/// it, and the writer's shard tag (0 = untagged / single-space).
type Entry<V> = (V, u32, u8);

/// A satisfiability/simplification memo shareable across worker
/// sessions and, when fingerprinted, across evaluation runs (see
/// module docs).
///
/// Entries carry the run generation that produced them; lookups report
/// whether the hit crossed a [`begin_run`](SharedMemo::begin_run)
/// boundary.
#[derive(Debug, Default)]
pub struct SharedMemo {
    sat: Vec<Mutex<HashMap<CondId, Entry<bool>>>>,
    simplify: Vec<Mutex<HashMap<CondId, Entry<CondId>>>>,
    /// Current run generation; entries written during run `g` are
    /// cross-run hits for every run `> g`.
    generation: AtomicU32,
    /// Structural fingerprint of the registry this memo was built for,
    /// or `None` for an anonymous single-run memo.
    fingerprint: Option<u64>,
}

impl SharedMemo {
    /// An empty, anonymous memo (no registry fingerprint — valid for a
    /// single evaluation run only).
    pub fn new() -> Self {
        Self::with_fingerprint(None)
    }

    /// An empty memo keyed to `reg`'s structural fingerprint, eligible
    /// for reuse across runs whose registry
    /// [`matches_registry`](SharedMemo::matches_registry).
    pub fn for_registry(reg: &CVarRegistry) -> Self {
        Self::with_fingerprint(Some(reg.fingerprint()))
    }

    fn with_fingerprint(fingerprint: Option<u64>) -> Self {
        SharedMemo {
            sat: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            simplify: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            generation: AtomicU32::new(0),
            fingerprint,
        }
    }

    /// Whether this memo's cached verdicts are valid for `reg`: true
    /// exactly when the memo was built with
    /// [`for_registry`](SharedMemo::for_registry) over a registry with
    /// the same structural fingerprint. Anonymous memos never match.
    pub fn matches_registry(&self, reg: &CVarRegistry) -> bool {
        self.fingerprint == Some(reg.fingerprint())
    }

    /// Marks the start of a new evaluation run: entries cached before
    /// this call are reported as cross-run hits by subsequent lookups.
    /// Returns the new generation (for diagnostics).
    pub fn begin_run(&self) -> u32 {
        self.generation.fetch_add(1, Ordering::Relaxed) + 1
    }

    fn current_generation(&self) -> u32 {
        self.generation.load(Ordering::Relaxed)
    }

    fn shard(cond: CondId) -> usize {
        cond.index() as usize % SHARDS
    }
}

/// Whether a memo hit crossed evaluation-shard boundaries: both the
/// reader and the entry's writer are tagged (non-zero) and differ.
/// Untagged traffic (the serial driver, tag `0`) never counts.
fn cross_shard(writer: u8, reader: u8) -> bool {
    writer != 0 && reader != 0 && writer != reader
}

impl SharedMemo {
    /// Cached satisfiability verdict for `cond`, if any, paired with
    /// whether the entry predates the current run generation
    /// (`(verdict, cross_run)`).
    pub fn sat_get(&self, cond: CondId) -> Option<(bool, bool)> {
        self.sat_get_from(cond, 0)
            .map(|(sat, cross_run, _)| (sat, cross_run))
    }

    /// [`sat_get`](SharedMemo::sat_get) from evaluation-shard `reader`
    /// (see [`Session::set_shard_tag`](crate::Session::set_shard_tag)):
    /// additionally reports whether the entry was written by a
    /// *different* tagged shard (`(verdict, cross_run, cross_shard)`).
    pub fn sat_get_from(&self, cond: CondId, reader: u8) -> Option<(bool, bool, bool)> {
        let gen = self.current_generation();
        self.sat[Self::shard(cond)]
            .lock()
            .expect("memo shard poisoned")
            .get(&cond)
            .map(|&(sat, entry_gen, writer)| (sat, entry_gen < gen, cross_shard(writer, reader)))
    }

    /// Caches a satisfiability verdict stamped with the current run
    /// generation (dropped once the shard is at capacity, bounding
    /// memory on adversarial workloads).
    pub fn sat_put(&self, cond: CondId, sat: bool) {
        self.sat_put_from(cond, sat, 0);
    }

    /// [`sat_put`](SharedMemo::sat_put) tagged with the writing
    /// evaluation shard (`0` = untagged driver session).
    pub fn sat_put_from(&self, cond: CondId, sat: bool, writer: u8) {
        let gen = self.current_generation();
        let mut shard = self.sat[Self::shard(cond)]
            .lock()
            .expect("memo shard poisoned");
        if shard.len() < SHARD_CAP || shard.contains_key(&cond) {
            shard.insert(cond, (sat, gen, writer));
        }
    }

    /// Cached simplification of `cond`, if any, paired with whether the
    /// entry predates the current run generation.
    pub fn simplify_get(&self, cond: CondId) -> Option<(Condition, bool)> {
        self.simplify_get_from(cond, 0)
            .map(|(id, cross_run, _)| (pool::resolve(id), cross_run))
    }

    /// [`simplify_get`](SharedMemo::simplify_get) from evaluation-shard
    /// `reader`, reporting cross-shard reuse like
    /// [`sat_get_from`](SharedMemo::sat_get_from). The simplification
    /// comes back as the id it is cached under; nothing is resolved.
    pub fn simplify_get_from(&self, cond: CondId, reader: u8) -> Option<(CondId, bool, bool)> {
        let gen = self.current_generation();
        self.simplify[Self::shard(cond)]
            .lock()
            .expect("memo shard poisoned")
            .get(&cond)
            .map(|&(simplified, entry_gen, writer)| {
                (simplified, entry_gen < gen, cross_shard(writer, reader))
            })
    }

    /// Caches a simplification result (capacity-bounded like
    /// [`sat_put`](SharedMemo::sat_put)).
    pub fn simplify_put(&self, cond: CondId, simplified: &Condition) {
        self.simplify_put_from(cond, pool::intern(simplified), 0);
    }

    /// [`simplify_put`](SharedMemo::simplify_put) of an already interned
    /// result, tagged with the writing evaluation shard.
    pub fn simplify_put_from(&self, cond: CondId, simplified: CondId, writer: u8) {
        let gen = self.current_generation();
        let mut shard = self.simplify[Self::shard(cond)]
            .lock()
            .expect("memo shard poisoned");
        if shard.len() < SHARD_CAP || shard.contains_key(&cond) {
            shard.insert(cond, (simplified, gen, writer));
        }
    }

    /// Total cached entries (both kinds), for diagnostics.
    pub fn len(&self) -> usize {
        self.sat
            .iter()
            .map(|s| s.lock().expect("memo shard poisoned").len())
            .sum::<usize>()
            + self
                .simplify
                .iter()
                .map(|s| s.lock().expect("memo shard poisoned").len())
                .sum::<usize>()
    }

    /// Whether no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faure_ctable::{Domain, Term};
    use std::sync::Arc;

    #[test]
    fn put_get_round_trip() {
        let memo = SharedMemo::new();
        let c = pool::intern(&Condition::eq(Term::int(1), Term::int(1)));
        assert_eq!(memo.sat_get(c), None);
        memo.sat_put(c, true);
        assert_eq!(memo.sat_get(c), Some((true, false)));
        let s = pool::intern(&Condition::eq(Term::int(1), Term::int(2)));
        memo.simplify_put(s, &Condition::False);
        assert_eq!(memo.simplify_get(s), Some((Condition::False, false)));
        assert_eq!(memo.len(), 2);
    }

    #[test]
    fn concurrent_access_is_consistent() {
        let memo = Arc::new(SharedMemo::new());
        let conds: Vec<CondId> = (0..64)
            .map(|i| pool::intern(&Condition::eq(Term::int(i), Term::int(i % 3))))
            .collect();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let memo = Arc::clone(&memo);
                let conds = &conds;
                s.spawn(move || {
                    for &c in conds {
                        memo.sat_put(c, true);
                        assert_eq!(memo.sat_get(c), Some((true, false)));
                    }
                });
            }
        });
        assert_eq!(memo.len(), 64);
    }

    #[test]
    fn generations_mark_cross_run_hits() {
        let memo = SharedMemo::new();
        memo.begin_run();
        let c = pool::intern(&Condition::eq(Term::int(1), Term::int(1)));
        memo.sat_put(c, true);
        memo.simplify_put(c, &Condition::True);
        // Same run: not cross-run.
        assert_eq!(memo.sat_get(c), Some((true, false)));
        assert_eq!(memo.simplify_get(c), Some((Condition::True, false)));
        // Next run: the entries now cross the boundary.
        memo.begin_run();
        assert_eq!(memo.sat_get(c), Some((true, true)));
        assert_eq!(memo.simplify_get(c), Some((Condition::True, true)));
        // A fresh put in the new run is in-run again.
        let d = pool::intern(&Condition::eq(Term::int(2), Term::int(2)));
        memo.sat_put(d, true);
        assert_eq!(memo.sat_get(d), Some((true, false)));
    }

    #[test]
    fn fingerprint_gates_reuse() {
        let mut reg = CVarRegistry::new();
        reg.fresh("x", Domain::Bool01);
        let memo = SharedMemo::for_registry(&reg);
        assert!(memo.matches_registry(&reg));

        // Same structure, different registry instance: still matches.
        let mut twin = CVarRegistry::new();
        twin.fresh("x", Domain::Bool01);
        assert!(memo.matches_registry(&twin));

        // Different structure: invalidated.
        let mut other = CVarRegistry::new();
        other.fresh("x", Domain::Bool01);
        other.fresh("y", Domain::Open);
        assert!(!memo.matches_registry(&other));

        // Anonymous memos never claim cross-run validity.
        assert!(!SharedMemo::new().matches_registry(&reg));
    }
}
