//! The solver memo a [`crate::Session`] can hand on: to the next run
//! of the same program, and to another session on another thread.
//!
//! A [`crate::Session`] memoises satisfiability and simplification
//! results keyed by the pooled [`CondId`] of the (canonical) condition
//! — interning is injective on structure, so an id key is exactly as
//! precise as the old whole-tree key while hashing a single `u32`.
//! A session's private maps die with it; [`SharedMemo`] is the same two
//! maps behind an `Arc`, each under one mutex, so they can outlive the
//! session that filled them. The engine has one session per evaluation
//! — the solver's only caller is the driver thread's prune — so the
//! locks are uncontended there; they exist so that a memo may be shared
//! between threads at all.
//!
//! ## Soundness under races
//!
//! The memo caches *ground truth*: `satisfiable` and `simplify_pruned`
//! are deterministic functions of the condition (given the append-only
//! registry of the run). If two sessions race on the same uncached
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

use super::session::MEMO_CAP;
use faure_ctable::pool::CondId;
use faure_ctable::CVarRegistry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;

/// One kind's entries: the cached value and the run generation that
/// wrote it.
type Entries<V> = Mutex<HashMap<CondId, (V, u32)>>;

/// A satisfiability/simplification memo shareable across sessions and,
/// when fingerprinted, across evaluation runs (see module docs).
///
/// Entries carry the run generation that produced them; lookups report
/// whether the hit crossed a [`begin_run`](SharedMemo::begin_run)
/// boundary.
#[derive(Debug, Default)]
pub struct SharedMemo {
    sat: Entries<bool>,
    simplify: Entries<CondId>,
    /// Current run generation; entries written during run `g` are
    /// cross-run hits for every run `> g`.
    generation: AtomicU32,
    /// Structural fingerprint of the registry this memo was built for,
    /// or `None` for an anonymous single-run memo.
    fingerprint: Option<u64>,
}

/// The entry under `cond`, paired with whether it predates generation
/// `gen`.
fn get<V: Copy>(entries: &Entries<V>, cond: CondId, gen: u32) -> Option<(V, bool)> {
    entries
        .lock()
        .expect("memo poisoned")
        .get(&cond)
        .map(|&(value, entry_gen)| (value, entry_gen < gen))
}

/// Stamps `value` with `gen` under `cond` — dropped once the map holds
/// [`MEMO_CAP`] entries, bounding memory on adversarial workloads.
fn put<V>(entries: &Entries<V>, cond: CondId, value: V, gen: u32) {
    let mut entries = entries.lock().expect("memo poisoned");
    if entries.len() < MEMO_CAP || entries.contains_key(&cond) {
        entries.insert(cond, (value, gen));
    }
}

impl SharedMemo {
    /// An empty, anonymous memo (no registry fingerprint — valid for a
    /// single evaluation run only).
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty memo keyed to `reg`'s structural fingerprint, eligible
    /// for reuse across runs whose registry
    /// [`matches_registry`](SharedMemo::matches_registry).
    pub fn for_registry(reg: &CVarRegistry) -> Self {
        SharedMemo {
            fingerprint: Some(reg.fingerprint()),
            ..Self::default()
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

    /// Cached satisfiability verdict for `cond`, if any, paired with
    /// whether the entry predates the current run generation
    /// (`(verdict, cross_run)`).
    pub fn sat_get(&self, cond: CondId) -> Option<(bool, bool)> {
        get(&self.sat, cond, self.current_generation())
    }

    /// Caches a satisfiability verdict stamped with the current run
    /// generation.
    pub fn sat_put(&self, cond: CondId, sat: bool) {
        put(&self.sat, cond, sat, self.current_generation());
    }

    /// Cached simplification of `cond`, if any — as the id it is cached
    /// under; nothing is resolved — paired with whether the entry
    /// predates the current run generation.
    pub fn simplify_get(&self, cond: CondId) -> Option<(CondId, bool)> {
        get(&self.simplify, cond, self.current_generation())
    }

    /// Caches an already interned simplification result
    /// (capacity-bounded like [`sat_put`](SharedMemo::sat_put)).
    pub fn simplify_put(&self, cond: CondId, simplified: CondId) {
        put(&self.simplify, cond, simplified, self.current_generation());
    }

    /// Total cached entries (both kinds), for diagnostics.
    pub fn len(&self) -> usize {
        self.sat.lock().expect("memo poisoned").len()
            + self.simplify.lock().expect("memo poisoned").len()
    }

    /// Whether no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faure_ctable::{pool, Condition, Domain, Term};
    use std::sync::Arc;

    #[test]
    fn put_get_round_trip() {
        let memo = SharedMemo::new();
        let c = pool::intern(&Condition::eq(Term::int(1), Term::int(1)));
        assert_eq!(memo.sat_get(c), None);
        memo.sat_put(c, true);
        assert_eq!(memo.sat_get(c), Some((true, false)));
        let s = pool::intern(&Condition::eq(Term::int(1), Term::int(2)));
        memo.simplify_put(s, CondId::FALSE);
        assert_eq!(memo.simplify_get(s), Some((CondId::FALSE, false)));
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
        memo.simplify_put(c, CondId::TRUE);
        // Same run: not cross-run.
        assert_eq!(memo.sat_get(c), Some((true, false)));
        assert_eq!(memo.simplify_get(c), Some((CondId::TRUE, false)));
        // Next run: the entries now cross the boundary.
        memo.begin_run();
        assert_eq!(memo.sat_get(c), Some((true, true)));
        assert_eq!(memo.simplify_get(c), Some((CondId::TRUE, true)));
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
