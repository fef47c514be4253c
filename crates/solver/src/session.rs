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
//! session must not be reused across *distinct* registries (the
//! pipeline creates one session per evaluation run).
//!
//! A session's memo lives in one of two places: **local** (a private
//! `HashMap`, the default — no synchronisation cost) or **shared** (an
//! [`Arc<SharedMemo>`] handed to [`Session::with_shared`]). The shared
//! backend is how verdicts outlive a session: the engine's one session
//! per evaluation — on the driver thread, the solver's only caller —
//! is backed by the memo its prepared program keeps, so the next run
//! over the same registry starts with this run's verdicts.

use crate::error::SolverError;
use crate::memo::SharedMemo;
use crate::search;
use crate::simplify;
use faure_ctable::pool::{self, CondId};
use faure_ctable::{Assignment, CVarRegistry, Condition};
use faure_trace::Histogram;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Upper bound on memo entries (per kind). Past this the session keeps
/// answering queries but stops caching new conditions, bounding memory
/// on adversarial workloads.
pub(crate) const MEMO_CAP: usize = 1 << 16;

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
    /// The subset of `memo_hits` answered by an entry cached during an
    /// *earlier* run of the same shared memo (batch-mode reuse; always
    /// `0` for local memos and single-run shared memos).
    pub cross_run_hits: u64,
    /// Always `0`: shard workers have no solver session, so no memo hit
    /// crosses shards. Kept as a declared stat for the benchmark's
    /// reader (`shard.cross_shard_hits`).
    pub cross_shard_hits: u64,
    /// Queries that missed the memo and ran the solver.
    pub memo_misses: u64,
    /// Total wall-clock time inside the solver; summed when several
    /// sessions' records are [absorbed](SolverStats::absorb) into one.
    pub time: Duration,
    /// Per-check solve latency. Records **memo misses only** — hits,
    /// including cross-run hits in batch mode, never enter the solver
    /// and are deliberately excluded so the quantiles measure solver
    /// cost per *solved* condition and stay comparable between a cold
    /// first run and warm reruns. Power-of-two nanosecond buckets;
    /// merged by [`absorb`](SolverStats::absorb).
    pub latency: Histogram,
}

faure_trace::stats!(SolverStats {
    sat_calls: Counter, "sat_calls", "faure_sat_calls_total", "Satisfiability queries issued.";
    sat_true: Counter, "sat_true", "faure_sat_true_total", "Satisfiability queries that came back satisfiable.";
    simplify_calls: Counter, "simplify_calls", "faure_simplify_calls_total", "Solver-backed simplifications requested.";
    memo_hits: Counter, "memo_hits", "faure_memo_hits_total", "Solver queries answered from the memo.";
    cross_run_hits: Counter, "cross_run_hits", "faure_memo_cross_run_hits_total", "Memo hits on an entry cached by an earlier run.";
    cross_shard_hits: Counter, "cross_shard_hits", "faure_memo_cross_shard_hits_total", "Always 0: shard workers ask the solver nothing.";
    memo_misses: Counter, "memo_misses", "faure_memo_misses_total", "Solver queries that missed the memo and ran the solver.";
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

    /// Fraction of memoisable queries answered by an entry carried over
    /// from a previous run, in `[0, 1]`; `0.0` when no queries were
    /// issued. Non-zero only in batch mode, where a prepared program
    /// reuses its [`SharedMemo`] across `run()` calls.
    pub fn memo_cross_run_hit_rate(&self) -> f64 {
        let total = self.memo_hits + self.memo_misses;
        if total == 0 {
            0.0
        } else {
            self.cross_run_hits as f64 / total as f64
        }
    }

    /// Folds another stats record into this one (every declared stat,
    /// saturating, plus the latency histogram).
    pub fn absorb(&mut self, other: &SolverStats) {
        faure_trace::stat::absorb(self, other);
        self.latency.merge(&other.latency);
    }
}

/// Where a session's memo entries live.
#[derive(Debug)]
enum MemoBackend {
    /// Private maps — the default, no synchronisation.
    Local {
        sat: HashMap<CondId, bool>,
        simplify: HashMap<CondId, CondId>,
    },
    /// A memo that outlives the session (and may be shared with
    /// sessions on other threads).
    Shared(Arc<SharedMemo>),
}

impl Default for MemoBackend {
    fn default() -> Self {
        MemoBackend::Local {
            sat: HashMap::new(),
            simplify: HashMap::new(),
        }
    }
}

/// A solver session: entry points plus accumulated statistics and a
/// condition-keyed memo (see module docs for the soundness argument).
///
/// Sessions are cheap; the evaluation pipeline creates one per query
/// run and copies its stats into the run report.
#[derive(Debug, Default)]
pub struct Session {
    stats: SolverStats,
    memo: MemoBackend,
}

impl Session {
    /// A fresh session with zeroed stats and an empty local memo.
    pub fn new() -> Self {
        Self::default()
    }

    /// A fresh session whose memo reads and writes `memo`, so what it
    /// decides is there for whoever holds `memo` next.
    pub fn with_shared(memo: Arc<SharedMemo>) -> Self {
        Session {
            stats: SolverStats::default(),
            memo: MemoBackend::Shared(memo),
        }
    }

    /// Current statistics snapshot.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// Accounts one memo hit and where its entry came from.
    fn note_hit(&mut self, cross_run: bool) {
        self.stats.memo_hits += 1;
        self.stats.cross_run_hits += u64::from(cross_run);
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
    /// reusing a session with a different registry). A shared-memo
    /// session reverts to a fresh local memo: the shared store may be
    /// in use by sibling sessions and cannot be cleared unilaterally.
    pub fn reset(&mut self) {
        self.stats = SolverStats::default();
        self.memo = MemoBackend::default();
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
        let hit = match &self.memo {
            MemoBackend::Local { sat, .. } => sat.get(&key).map(|&v| (v, false)),
            MemoBackend::Shared(memo) => memo.sat_get(key),
        };
        if let Some((hit, cross_run)) = hit {
            self.note_hit(cross_run);
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
            match &mut self.memo {
                MemoBackend::Local { sat: map, .. } => {
                    if map.len() < MEMO_CAP {
                        map.insert(key, sat);
                    }
                }
                MemoBackend::Shared(memo) => memo.sat_put(key, sat),
            }
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
    /// memo hit touches no tree at all.
    pub fn simplify_pruned_id(
        &mut self,
        reg: &CVarRegistry,
        key: CondId,
    ) -> Result<CondId, SolverError> {
        self.stats.simplify_calls += 1;
        let hit = match &self.memo {
            MemoBackend::Local { simplify, .. } => simplify.get(&key).map(|&v| (v, false)),
            MemoBackend::Shared(memo) => memo.simplify_get(key),
        };
        if let Some((hit, cross_run)) = hit {
            self.note_hit(cross_run);
            return Ok(hit);
        }
        self.stats.memo_misses += 1;
        let start = Instant::now();
        let out = simplify::simplify_pruned(reg, &pool::resolve(key));
        self.note_solve(start.elapsed());
        let simplified = pool::intern(&out?);
        match &mut self.memo {
            MemoBackend::Local { simplify: map, .. } => {
                if map.len() < MEMO_CAP {
                    map.insert(key, simplified);
                }
            }
            MemoBackend::Shared(memo) => memo.simplify_put(key, simplified),
        }
        Ok(simplified)
    }

    /// Merges another session's stats into this one (memo entries are
    /// not transferred — they may come from a different registry).
    pub fn absorb(&mut self, other: &Session) {
        self.stats.absorb(&other.stats);
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
            cross_run_hits: 1,
            cross_shard_hits: 2,
            memo_misses: 4,
            time: Duration::from_millis(5),
            latency: lat_a,
        };
        a.absorb(&SolverStats {
            sat_calls: 10,
            sat_true: 10,
            simplify_calls: 20,
            memo_hits: 30,
            cross_run_hits: 10,
            cross_shard_hits: 20,
            memo_misses: 40,
            time: Duration::from_millis(50),
            latency: lat_b,
        });
        assert_eq!(a.sat_calls, 11);
        assert_eq!(a.sat_true, 11);
        assert_eq!(a.simplify_calls, 22);
        assert_eq!(a.memo_hits, 33);
        assert_eq!(a.cross_run_hits, 11);
        assert_eq!(a.cross_shard_hits, 22);
        assert_eq!(a.memo_misses, 44);
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
    fn shared_memo_hits_across_sessions() {
        let mut reg = CVarRegistry::new();
        let x = reg.fresh("x", Domain::Bool01);
        let memo = Arc::new(SharedMemo::new());
        let c = Condition::eq(Term::Var(x), Term::int(1));

        let mut a = Session::with_shared(Arc::clone(&memo));
        assert!(a.satisfiable(&reg, &c).unwrap());
        assert_eq!(a.stats().memo_misses, 1);

        // A sibling session sees the cached verdict without solving.
        let mut b = Session::with_shared(Arc::clone(&memo));
        assert!(b.satisfiable(&reg, &c).unwrap());
        assert_eq!(b.stats().memo_hits, 1);
        assert_eq!(b.stats().memo_misses, 0);

        // Simplification shares too.
        let contradiction = c.clone().and(Condition::eq(Term::Var(x), Term::int(0)));
        assert_eq!(
            a.simplify_pruned(&reg, &contradiction).unwrap(),
            Condition::False
        );
        assert_eq!(
            b.simplify_pruned(&reg, &contradiction).unwrap(),
            Condition::False
        );
        assert_eq!(b.stats().memo_hits, 2);
    }

    #[test]
    fn cross_run_hits_count_only_prior_generation_entries() {
        let mut reg = CVarRegistry::new();
        let x = reg.fresh("x", Domain::Bool01);
        let memo = Arc::new(SharedMemo::for_registry(&reg));
        let c = Condition::eq(Term::Var(x), Term::int(1));

        // Run 1: miss, then an in-run hit — no cross-run hits.
        memo.begin_run();
        let mut s1 = Session::with_shared(Arc::clone(&memo));
        s1.satisfiable(&reg, &c).unwrap();
        s1.satisfiable(&reg, &c).unwrap();
        assert_eq!(s1.stats().memo_hits, 1);
        assert_eq!(s1.stats().cross_run_hits, 0);

        // Run 2 over the same memo: the hit crosses the run boundary
        // and stays out of the latency histogram (misses only).
        memo.begin_run();
        let mut s2 = Session::with_shared(Arc::clone(&memo));
        s2.satisfiable(&reg, &c).unwrap();
        let st = s2.stats();
        assert_eq!(st.memo_hits, 1);
        assert_eq!(st.cross_run_hits, 1);
        assert_eq!(st.memo_misses, 0);
        assert_eq!(st.latency.count(), 0);
        assert!(st.memo_cross_run_hit_rate() > 0.99);
    }
}
