//! What a [`crate::Session`] has decided, so it decides nothing twice.
//!
//! Entries are keyed by the pooled [`CondId`] of the (canonical)
//! condition — interning is injective on structure, so an id key is
//! exactly as precise as a whole-tree key while hashing a single `u32`.
//!
//! A memo belongs to one session and dies with it. The engine keeps one
//! session per evaluation — a batch run, or a standing evaluation across
//! its updates — so no verdict is carried into an evaluation over
//! another c-variable registry.

use faure_ctable::pool::CondId;
use std::collections::HashMap;

/// Upper bound on memo entries (per kind). Past this the session keeps
/// answering queries but stops caching new conditions, bounding memory
/// on adversarial workloads.
const MEMO_CAP: usize = 1 << 16;

/// A session's satisfiability and validity verdicts and
/// simplifications, by condition id.
#[derive(Debug, Default)]
pub(crate) struct Memo {
    sat: HashMap<CondId, bool>,
    simplify: HashMap<CondId, CondId>,
    valid: HashMap<CondId, bool>,
}

/// Caches `value` under `cond` unless the map is full.
fn put<V>(map: &mut HashMap<CondId, V>, cond: CondId, value: V) {
    if map.len() < MEMO_CAP {
        map.insert(cond, value);
    }
}

impl Memo {
    /// The cached satisfiability verdict for `cond`, if any.
    pub(crate) fn sat(&self, cond: CondId) -> Option<bool> {
        self.sat.get(&cond).copied()
    }

    /// Caches a satisfiability verdict.
    pub(crate) fn put_sat(&mut self, cond: CondId, sat: bool) {
        put(&mut self.sat, cond, sat);
    }

    /// The cached simplification of `cond`, if any, as the id it is
    /// cached under; nothing is resolved.
    pub(crate) fn simplified(&self, cond: CondId) -> Option<CondId> {
        self.simplify.get(&cond).copied()
    }

    /// Caches an already interned simplification result.
    pub(crate) fn put_simplified(&mut self, cond: CondId, simplified: CondId) {
        put(&mut self.simplify, cond, simplified);
    }

    /// The cached validity verdict for `cond`, if any.
    pub(crate) fn valid(&self, cond: CondId) -> Option<bool> {
        self.valid.get(&cond).copied()
    }

    /// Caches a validity verdict.
    pub(crate) fn put_valid(&mut self, cond: CondId, valid: bool) {
        put(&mut self.valid, cond, valid);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faure_ctable::{pool, Condition, Term};

    #[test]
    fn put_get_round_trip() {
        let mut memo = Memo::default();
        let c = pool::intern(&Condition::eq(Term::int(1), Term::int(1)));
        assert_eq!(memo.sat(c), None);
        memo.put_sat(c, true);
        assert_eq!(memo.sat(c), Some(true));
        let s = pool::intern(&Condition::eq(Term::int(1), Term::int(2)));
        memo.put_simplified(s, CondId::FALSE);
        assert_eq!(memo.simplified(s), Some(CondId::FALSE));
        assert_eq!(memo.simplified(c), None);
        assert_eq!(memo.sat.len() + memo.simplify.len(), 2);
    }
}
