//! Stats-collecting solver session.
//!
//! The Table 4 reproduction reports the time spent in the solver phase
//! separately from the relational ("SQL") phase, mirroring the paper's
//! `sql` / `Z3` columns. [`Session`] wraps the solver entry points and
//! accumulates call counts and wall-clock time.
//!
//! The session also memoises solver results keyed by the pooled
//! [`CondId`] of the (canonical) condition — interning is structural,
//! so the id key is exactly as precise as the old whole-tree key while
//! costing one `u32` hash per probe. Fixpoint evaluation re-derives the
//! same tuples — and
//! therefore the same conditions — across iterations; phase-3 pruning
//! would otherwise re-solve each of them from scratch every round. The
//! memo is sound because c-variable registries are append-only within a
//! session: a condition only mentions variables that existed when it
//! was built, so growing the registry never changes its status. A
//! session must not be reused across *distinct* registries (the engine
//! keeps one session per evaluation: a batch run, or a standing
//! evaluation across its updates).
//!
//! The memo lives and dies with its session: nothing a session decided
//! reaches another one.
//!
//! The prune asks its questions about an antichain condition through
//! [`prune_by_mask`](Session::prune_by_mask) first: a condition whose
//! atoms all range over small finite domains is read off its
//! [mask form](crate::mask) with word operations and never reaches the
//! search. The search entry points — the tree edges
//! [`satisfiable`](Session::satisfiable) and
//! [`simplify_pruned`](Session::simplify_pruned),
//! [`simplify_pruned_id`](Session::simplify_pruned_id) and
//! [`valid_id`](Session::valid_id) — stay search-only, so each is a
//! reference the mask path can be tested against. Mask decisions are
//! timed like searches: [`SolverStats::time`] is the whole solver phase.

use crate::error::SolverError;
use crate::mask;
use crate::memo::Memo;
use crate::search;
use crate::simplify::{self, VALIDITY_SIZE_LIMIT};
use faure_ctable::pool::{self, CondId};
use faure_ctable::{Assignment, Atom, CVarRegistry, Condition};
use faure_trace::Histogram;
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

/// Accumulated solver statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Number of satisfiability queries issued.
    pub sat_calls: u64,
    /// How many of them came back satisfiable.
    pub sat_true: u64,
    /// Number of `simplify_pruned` invocations.
    pub simplify_calls: u64,
    /// Queries answered from the session memo (no solver work).
    pub memo_hits: u64,
    /// Always `0`: shard workers have no solver session, so no memo hit
    /// crosses shards. Kept as a declared stat for the benchmark's
    /// reader (`shard.cross_shard_hits`).
    pub cross_shard_hits: u64,
    /// Queries that missed the memo and ran the solver.
    pub memo_misses: u64,
    /// Conditions the prune decided from their [mask form](crate::mask),
    /// without search.
    pub mask_decided: u64,
    /// Total wall-clock time inside the solver; summed when several
    /// sessions' records are [absorbed](SolverStats::absorb) into one.
    pub time: Duration,
    /// Per-check solve latency. Records **memo misses only** — hits
    /// never enter the solver and are deliberately excluded, so the
    /// quantiles measure solver cost per *solved* condition.
    /// Power-of-two nanosecond buckets; merged by
    /// [`absorb`](SolverStats::absorb).
    pub latency: Histogram,
}

faure_trace::stats!(SolverStats {
    sat_calls: Counter, "sat_calls", "faure_sat_calls_total", "Satisfiability queries issued.";
    sat_true: Counter, "sat_true", "faure_sat_true_total", "Satisfiability queries that came back satisfiable.";
    simplify_calls: Counter, "simplify_calls", "faure_simplify_calls_total", "Solver-backed simplifications requested.";
    memo_hits: Counter, "memo_hits", "faure_memo_hits_total", "Solver queries answered from the memo.";
    cross_shard_hits: Counter, "cross_shard_hits", "faure_memo_cross_shard_hits_total", "Always 0: shard workers ask the solver nothing.";
    memo_misses: Counter, "memo_misses", "faure_memo_misses_total", "Solver queries that missed the memo and ran the solver.";
    mask_decided: Counter, "mask_decided", "faure_mask_decided_total", "Conditions decided from their mask form, without search.";
    time: Nanos, "time_ns", "faure_solver_ns_total", "Time inside the solver, summed over workers.";
});

impl SolverStats {
    /// Fraction of memoisable queries answered from the memo, in
    /// `[0, 1]`; `0.0` when no queries were issued.
    pub fn memo_hit_rate(&self) -> f64 {
        let total = self.memo_hits + self.memo_misses;
        if total == 0 {
            0.0
        } else {
            self.memo_hits as f64 / total as f64
        }
    }

    /// Always `0.0`: a memo dies with its evaluation, so no query is
    /// answered by an entry an earlier run cached. Kept for the
    /// benchmark's reader (`solver.cross_run_hit_rate`).
    pub fn memo_cross_run_hit_rate(&self) -> f64 {
        0.0
    }

    /// Folds another stats record into this one (every declared stat,
    /// saturating, plus the latency histogram).
    pub fn absorb(&mut self, other: &SolverStats) {
        faure_trace::stat::absorb(self, other);
        self.latency.merge(&other.latency);
    }
}

/// A solver session: entry points plus accumulated statistics and a
/// condition-keyed memo (see module docs for the soundness argument).
///
/// Sessions are cheap; the evaluation pipeline creates one per
/// evaluation and copies its stats into the run report.
#[derive(Debug, Default)]
pub struct Session {
    stats: SolverStats,
    memo: Memo,
}

impl Session {
    /// A fresh session with zeroed stats and an empty memo.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current statistics snapshot.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// The statistics so far, restarting them from zero; the memo
    /// stays. A standing evaluation reports each update's own solver
    /// work this way.
    pub fn take_stats(&mut self) -> SolverStats {
        std::mem::take(&mut self.stats)
    }

    /// Accounts one solver invocation (a memo miss): total time plus
    /// the per-check latency histogram.
    fn note_solve(&mut self, elapsed: Duration) {
        self.stats.time += elapsed;
        self.stats
            .latency
            .record(u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Resets statistics to zero and clears the memo (required before
    /// reusing a session with a different registry).
    pub fn reset(&mut self) {
        *self = Session::default();
    }

    /// Satisfiability with stats accounting and memoisation: the tree
    /// edge over [`satisfiable_id`](Session::satisfiable_id).
    pub fn satisfiable(
        &mut self,
        reg: &CVarRegistry,
        cond: &Condition,
    ) -> Result<bool, SolverError> {
        self.satisfiable_id(reg, pool::intern(cond))
    }

    /// [`satisfiable`](Session::satisfiable) of an interned condition.
    /// The id is the memo key as it stands, so a caller that already
    /// holds one pays no interning; the tree is resolved only when the
    /// memo misses and the solver has to run.
    pub fn satisfiable_id(&mut self, reg: &CVarRegistry, key: CondId) -> Result<bool, SolverError> {
        self.stats.sat_calls += 1;
        if let Some(hit) = self.memo.sat(key) {
            self.stats.memo_hits += 1;
            if hit {
                self.stats.sat_true += 1;
            }
            return Ok(hit);
        }
        self.stats.memo_misses += 1;
        let start = Instant::now();
        let out = search::satisfiable(reg, &pool::resolve(key));
        self.note_solve(start.elapsed());
        if let Ok(sat) = out {
            if sat {
                self.stats.sat_true += 1;
            }
            self.memo.put_sat(key, sat);
        }
        out
    }

    /// Model search with stats accounting (not memoised: models are
    /// only requested for explanation paths, not hot loops).
    pub fn find_model(
        &mut self,
        reg: &CVarRegistry,
        cond: &Condition,
    ) -> Result<Option<Assignment>, SolverError> {
        let start = Instant::now();
        let out = search::find_model(reg, cond);
        self.note_solve(start.elapsed());
        self.stats.sat_calls += 1;
        if let Ok(Some(_)) = out {
            self.stats.sat_true += 1;
        }
        out
    }

    /// Solver-backed simplification with stats accounting and
    /// memoisation: the tree edge over
    /// [`simplify_pruned_id`](Session::simplify_pruned_id).
    pub fn simplify_pruned(
        &mut self,
        reg: &CVarRegistry,
        cond: &Condition,
    ) -> Result<Condition, SolverError> {
        self.simplify_pruned_id(reg, pool::intern(cond))
            .map(pool::resolve)
    }

    /// [`simplify_pruned`](Session::simplify_pruned) from id to id: a
    /// memo hit touches no tree at all. An unsatisfiable condition
    /// simplifies to [`CondId::FALSE`] (short of a search-budget
    /// overrun, which keeps the condition, structurally simplified), so
    /// a caller that simplifies asks no satisfiability query first.
    pub fn simplify_pruned_id(
        &mut self,
        reg: &CVarRegistry,
        key: CondId,
    ) -> Result<CondId, SolverError> {
        self.stats.simplify_calls += 1;
        if let Some(hit) = self.memo.simplified(key) {
            self.stats.memo_hits += 1;
            return Ok(hit);
        }
        self.stats.memo_misses += 1;
        let start = Instant::now();
        let out = simplify::simplify_pruned(reg, &pool::resolve(key));
        self.note_solve(start.elapsed());
        let simplified = pool::intern(&out?);
        self.memo.put_simplified(key, simplified);
        Ok(simplified)
    }

    /// Is the interned condition valid (true under every assignment)?
    /// Search-based and memoised: the satisfiability of its negation,
    /// counted as a satisfiability query. A search over its budget
    /// answers `false`, the condition is kept as it is — what
    /// [`simplify_pruned`](Session::simplify_pruned) does then.
    ///
    /// The prune asks this of the survivor of a wider antichain, whose
    /// disjuncts it has already found satisfiable; simplifying it would
    /// ask that again.
    pub fn valid_id(&mut self, reg: &CVarRegistry, key: CondId) -> Result<bool, SolverError> {
        self.stats.sat_calls += 1;
        let valid = match self.memo.valid(key) {
            Some(hit) => {
                self.stats.memo_hits += 1;
                hit
            }
            None => {
                self.stats.memo_misses += 1;
                let start = Instant::now();
                let out = search::satisfiable(reg, &pool::resolve(key).negate());
                self.note_solve(start.elapsed());
                let valid = match out {
                    Ok(falsifiable) => !falsifiable,
                    Err(SolverError::BudgetExceeded { .. }) => false,
                    Err(e) => return Err(e),
                };
                self.memo.put_valid(key, valid);
                valid
            }
        };
        if !valid {
            self.stats.sat_true += 1;
        }
        Ok(valid)
    }

    /// The prune's answer for `cond`, whose minimal-DNF antichain is
    /// `sets` (`cond` is the id of the condition they spell), read off
    /// the antichain's [mask form](crate::mask); `None` when it has no
    /// form, and then nothing was asked. The answer is the id the
    /// search path gives:
    ///
    /// * one disjunct: [`CondId::FALSE`] if it is unsatisfiable,
    ///   [`CondId::TRUE`] if it is valid and small enough for the
    ///   validity check, else `cond` — what
    ///   [`simplify_pruned_id`](Session::simplify_pruned_id) answers,
    ///   memoised under `cond` as it memoises;
    /// * several: `FALSE` if no disjunct is satisfiable; else the
    ///   survivor (`cond` when every disjunct is live, `survivor(live)`
    ///   otherwise), or `TRUE` when the survivor is small enough and
    ///   valid. A validity the form cannot enumerate is asked of
    ///   [`valid_id`](Session::valid_id). These answers cost less than
    ///   interning the disjuncts a memo key would need, and are not
    ///   memoised.
    ///
    /// Counted as the search path counts its questions; a condition
    /// decided without search also counts in
    /// [`SolverStats::mask_decided`].
    pub fn prune_by_mask(
        &mut self,
        reg: &CVarRegistry,
        cond: CondId,
        sets: &[BTreeSet<Atom>],
        survivor: impl FnOnce(&[&BTreeSet<Atom>]) -> CondId,
    ) -> Result<Option<CondId>, SolverError> {
        if sets.len() <= 1 {
            if let Some(hit) = self.memo.simplified(cond) {
                self.stats.simplify_calls += 1;
                self.stats.memo_hits += 1;
                return Ok(Some(hit));
            }
        }
        let start = Instant::now();
        let Some(form) = mask::Form::of(reg, sets) else {
            return Ok(None);
        };
        if sets.len() <= 1 {
            self.stats.simplify_calls += 1;
            self.stats.memo_misses += 1;
            let out = if form.is_empty() || !form.satisfiable(0) {
                CondId::FALSE
            } else if spelled_size(sets.iter()) <= VALIDITY_SIZE_LIMIT
                && form.valid(&[0]) == Some(true)
            {
                CondId::TRUE
            } else {
                cond
            };
            self.memo.put_simplified(cond, out);
            self.stats.mask_decided += 1;
            self.note_solve(start.elapsed());
            return Ok(Some(out));
        }
        let live: Vec<usize> = (0..form.len()).filter(|&i| form.satisfiable(i)).collect();
        self.stats.sat_calls += sets.len() as u64;
        self.stats.sat_true += live.len() as u64;
        let live_sets: Vec<&BTreeSet<Atom>> = live.iter().map(|&i| &sets[i]).collect();
        let mut searched = false;
        let out = if live.is_empty() {
            CondId::FALSE
        } else {
            let kept = if live.len() == sets.len() {
                cond
            } else {
                survivor(&live_sets)
            };
            if spelled_size(live_sets.iter().copied()) > VALIDITY_SIZE_LIMIT {
                kept
            } else {
                let valid = match form.valid(&live) {
                    Some(valid) => {
                        self.stats.sat_calls += 1;
                        self.stats.sat_true += u64::from(!valid);
                        valid
                    }
                    None => {
                        searched = true;
                        self.valid_id(reg, kept)?
                    }
                };
                if valid {
                    CondId::TRUE
                } else {
                    kept
                }
            }
        };
        if !searched {
            self.stats.mask_decided += 1;
            self.note_solve(start.elapsed());
        }
        Ok(Some(out))
    }

    /// Merges another session's stats into this one (memo entries are
    /// not transferred — they may come from a different registry).
    pub fn absorb(&mut self, other: &Session) {
        self.stats.absorb(&other.stats);
    }
}

/// [`Condition::size`] of the condition an antichain spells: a
/// disjunction (one node, when of several) of conjunctions (one node,
/// when of several atoms) of atoms; an empty conjunction spells `True`.
fn spelled_size<'a>(sets: impl Iterator<Item = &'a BTreeSet<Atom>>) -> usize {
    let mut disjuncts = 0;
    let mut size = 0;
    for set in sets {
        if set.is_empty() {
            return 1;
        }
        disjuncts += 1;
        size += if set.len() == 1 { 1 } else { 1 + set.len() };
    }
    if disjuncts == 1 {
        size
    } else {
        1 + size
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faure_ctable::{Domain, Term};

    #[test]
    fn stats_accumulate() {
        let mut reg = CVarRegistry::new();
        let x = reg.fresh("x", Domain::Bool01);
        let mut s = Session::new();
        let sat = Condition::eq(Term::Var(x), Term::int(1));
        let unsat = sat.clone().and(Condition::eq(Term::Var(x), Term::int(0)));
        assert!(s.satisfiable(&reg, &sat).unwrap());
        assert!(!s.satisfiable(&reg, &unsat).unwrap());
        let st = s.stats();
        assert_eq!(st.sat_calls, 2);
        assert_eq!(st.sat_true, 1);
        s.reset();
        assert_eq!(s.stats(), SolverStats::default());
    }

    #[test]
    fn absorb_merges() {
        let mut reg = CVarRegistry::new();
        let x = reg.fresh("x", Domain::Bool01);
        let mut a = Session::new();
        let mut b = Session::new();
        let c = Condition::eq(Term::Var(x), Term::int(1));
        a.satisfiable(&reg, &c).unwrap();
        b.satisfiable(&reg, &c).unwrap();
        a.absorb(&b);
        assert_eq!(a.stats().sat_calls, 2);
    }

    #[test]
    fn solver_stats_absorb_sums_fields() {
        let mut lat_a = Histogram::new();
        lat_a.record(100);
        let mut lat_b = Histogram::new();
        lat_b.record(5_000);
        let mut a = SolverStats {
            sat_calls: 1,
            sat_true: 1,
            simplify_calls: 2,
            memo_hits: 3,
            cross_shard_hits: 2,
            memo_misses: 4,
            mask_decided: 5,
            time: Duration::from_millis(5),
            latency: lat_a,
        };
        a.absorb(&SolverStats {
            sat_calls: 10,
            sat_true: 10,
            simplify_calls: 20,
            memo_hits: 30,
            cross_shard_hits: 20,
            memo_misses: 40,
            mask_decided: 50,
            time: Duration::from_millis(50),
            latency: lat_b,
        });
        assert_eq!(a.sat_calls, 11);
        assert_eq!(a.sat_true, 11);
        assert_eq!(a.simplify_calls, 22);
        assert_eq!(a.memo_hits, 33);
        assert_eq!(a.cross_shard_hits, 22);
        assert_eq!(a.memo_misses, 44);
        assert_eq!(a.mask_decided, 55);
        assert_eq!(a.time, Duration::from_millis(55));
        assert_eq!(a.latency.count(), 2);
        assert_eq!(a.latency.sum_ns(), 5_100);
    }

    #[test]
    fn latency_histogram_counts_misses_only() {
        let mut reg = CVarRegistry::new();
        let x = reg.fresh("x", Domain::Bool01);
        let mut s = Session::new();
        let c = Condition::eq(Term::Var(x), Term::int(1));
        s.satisfiable(&reg, &c).unwrap();
        s.satisfiable(&reg, &c).unwrap(); // memo hit: no solver entry
        let st = s.stats();
        assert_eq!(st.memo_misses, 1);
        assert_eq!(st.latency.count(), 1);
        assert_eq!(st.latency.sum_ns(), st.time.as_nanos() as u64);
    }

    #[test]
    fn memo_hits_repeat_queries() {
        let mut reg = CVarRegistry::new();
        let x = reg.fresh("x", Domain::Bool01);
        let mut s = Session::new();
        let c = Condition::eq(Term::Var(x), Term::int(1));
        assert!(s.satisfiable(&reg, &c).unwrap());
        assert!(s.satisfiable(&reg, &c).unwrap());
        assert!(s.satisfiable(&reg, &c).unwrap());
        let st = s.stats();
        assert_eq!(st.sat_calls, 3);
        assert_eq!(st.sat_true, 3);
        assert_eq!(st.memo_misses, 1);
        assert_eq!(st.memo_hits, 2);
        assert!(st.memo_hit_rate() > 0.6);
    }

    #[test]
    fn memo_hits_repeat_simplify() {
        let mut reg = CVarRegistry::new();
        let x = reg.fresh("x", Domain::Bool01);
        let mut s = Session::new();
        let c = Condition::eq(Term::Var(x), Term::int(0))
            .and(Condition::eq(Term::Var(x), Term::int(1)));
        let first = s.simplify_pruned(&reg, &c).unwrap();
        let second = s.simplify_pruned(&reg, &c).unwrap();
        assert_eq!(first, Condition::False);
        assert_eq!(first, second);
        let st = s.stats();
        assert_eq!(st.simplify_calls, 2);
        assert!(st.memo_hits >= 1);
    }

    #[test]
    fn reset_clears_memo() {
        let mut reg = CVarRegistry::new();
        let x = reg.fresh("x", Domain::Bool01);
        let mut s = Session::new();
        let c = Condition::eq(Term::Var(x), Term::int(1));
        s.satisfiable(&reg, &c).unwrap();
        s.reset();
        s.satisfiable(&reg, &c).unwrap();
        assert_eq!(s.stats().memo_hits, 0);
        assert_eq!(s.stats().memo_misses, 1);
    }

    #[test]
    fn a_memo_dies_with_its_session() {
        let mut reg = CVarRegistry::new();
        let x = reg.fresh("x", Domain::Bool01);
        let c = Condition::eq(Term::Var(x), Term::int(1));

        // Within a session: a miss, then a hit.
        let mut s1 = Session::new();
        s1.satisfiable(&reg, &c).unwrap();
        s1.satisfiable(&reg, &c).unwrap();
        assert_eq!(s1.stats().memo_hits, 1);

        // A second session over the same registry decides the
        // condition afresh: nothing the first one cached reaches it.
        let mut s2 = Session::new();
        s2.satisfiable(&reg, &c).unwrap();
        let st = s2.stats();
        assert_eq!(st.memo_hits, 0);
        assert_eq!(st.memo_misses, 1);
        assert_eq!(st.latency.count(), 1);
        assert_eq!(st.memo_cross_run_hit_rate(), 0.0);
    }

    #[test]
    fn take_stats_restarts_the_counters_and_keeps_the_memo() {
        let mut reg = CVarRegistry::new();
        let x = reg.fresh("x", Domain::Bool01);
        let c = Condition::eq(Term::Var(x), Term::int(1));
        let mut s = Session::new();
        s.simplify_pruned(&reg, &c).unwrap();
        let first = s.take_stats();
        assert_eq!((first.simplify_calls, first.memo_misses), (1, 1));
        assert_eq!(s.stats(), SolverStats::default());
        s.simplify_pruned(&reg, &c).unwrap();
        let second = s.take_stats();
        assert_eq!((second.simplify_calls, second.memo_hits), (1, 1));
        assert_eq!(second.memo_misses, 0);
    }
}
