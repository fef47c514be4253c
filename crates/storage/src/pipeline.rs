//! Per-phase timing, mirroring the paper's evaluation pipeline.
//!
//! Table 4 of the paper reports, for each query, the time spent in the
//! SQL phases (data generation + condition updates) and the time spent
//! in Z3 (pruning contradictory rows) separately. [`PhaseStats`] is the
//! accumulator threaded through evaluation so the bench harness can
//! print the same columns, plus per-operator, solver, plan-cache and
//! shard counters and per-iteration delta sizes. Its scalars are
//! declared in a stat table, like those of the structs it nests.

use crate::exec::OpStats;
use crate::shard::ShardStats;
use faure_ctable::PoolStats;
use faure_solver::session::SolverStats;
use faure_trace::json::Obj;
use faure_trace::stat::{write_fields, Kind, Stats};
use std::time::Duration;

/// Accumulated per-phase statistics for one query evaluation.
#[derive(Clone, Debug, Default)]
pub struct PhaseStats {
    /// Time in the relational phases: pattern matching, joins, and
    /// condition construction (the paper's "sql" column).
    pub relational: Duration,
    /// Time in the solver phase: satisfiability pruning and
    /// simplification (the paper's "Z3" column).
    pub solver: Duration,
    /// Number of tuples produced (the paper's "#tuples" column).
    pub tuples: usize,
    /// Number of tuples removed by the solver phase.
    pub pruned: usize,
    /// Elapsed wall-clock time of the prune phase alone. Unlike
    /// `solver` (which sums per-worker CPU time under parallel
    /// evaluation), this is measured around each `Table::prune` call
    /// on the driver thread.
    pub prune_wall: Duration,
    /// Fine-grained solver counters.
    pub solver_stats: SolverStats,
    /// Per-operator execution counters (probes, matches, conjoined
    /// conditions, comparison-pruned branches, negation checks).
    pub ops: OpStats,
    /// Total delta rows after each semi-naive fixpoint iteration,
    /// summed over the stratum's predicates. Iteration 0 is the seed
    /// pass over the full tables; the list ends with the emptying
    /// iteration omitted (a fixpoint is reached when the delta is
    /// empty).
    pub delta_sizes: Vec<usize>,
    /// Rule plans served from the per-evaluation plan cache (compiled
    /// once per `(rule, delta slot)`, executed every iteration).
    pub plan_cache_hits: u64,
    /// Rule plans compiled because no cached plan existed.
    pub plan_cache_misses: u64,
    /// Input rows encoded into columnar tables: every row of an input
    /// relation whose twin was loaded, 0 for a relation whose twin a
    /// previous run left cached ([`Table::twin`](crate::Table::twin)).
    pub rows_encoded: usize,
    /// Sharded-evaluation counters (all zero when the run never
    /// dispatched to the sharded driver).
    pub shard: ShardStats,
}

faure_trace::stats!(PhaseStats {
    relational: Nanos, "relational_ns", "faure_relational_ns_total", "Time in the relational phases.";
    solver: Nanos, "solver_ns", "", "Time in the solver phase (published as the solver's own time).";
    prune_wall: Nanos, "prune_wall_ns", "faure_prune_wall_ns_total", "Driver wall-clock of the prune phase.";
    tuples: Counter, "tuples", "", "Tuples produced (the standing count is published per apply).";
    pruned: Counter, "pruned", "faure_pruned_rows_total", "Tuples removed by the solver phase.";
    plan_cache_hits: Counter, "plan_cache_hits", "faure_plan_cache_hits_total", "Rule plans served from the plan cache.";
    plan_cache_misses: Counter, "plan_cache_misses", "faure_plan_cache_misses_total", "Rule plans compiled.";
    rows_encoded: Counter, "rows_encoded", "faure_edb_rows_encoded_total", "Input rows encoded into columnar tables (0 when every input relation's twin was cached).";
});

impl PhaseStats {
    /// Zeroed stats.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds another stats record into this one.
    pub fn absorb(&mut self, other: &PhaseStats) {
        faure_trace::stat::absorb(self, other);
        self.solver_stats.absorb(&other.solver_stats);
        self.ops.absorb(&other.ops);
        self.delta_sizes.extend_from_slice(&other.delta_sizes);
        self.shard.absorb(&other.shard);
    }

    /// Total wall-clock time (relational + solver).
    pub fn total(&self) -> Duration {
        self.relational + self.solver
    }

    /// Writes the four blocks every per-run JSON view carries (a
    /// `--metrics` `databases[]` entry, a bench row's `metrics`):
    /// `ops`, `solver`, `plan_cache`, and `pool` — the process-wide
    /// condition pool as it stood when the run ended.
    pub fn write_blocks(&self, o: &mut Obj<'_>, pool: &PoolStats) {
        let sv = &self.solver_stats;
        let rate = |r: f64| format!("{r:.4}");
        o.object("ops", |b| write_fields(b, &self.ops, |_| true));
        o.object("solver", |b| {
            write_fields(b, sv, |s| s.kind != Kind::Nanos);
            b.field("memo_hit_rate", rate(sv.memo_hit_rate()));
            b.field(
                "memo_cross_run_hit_rate",
                rate(sv.memo_cross_run_hit_rate()),
            );
            write_fields(b, sv, |s| s.kind == Kind::Nanos);
            b.field("latency_ns", sv.latency.to_json());
        });
        o.object("plan_cache", |b| {
            for stat in Self::STATS {
                if let Some(key) = stat.key.strip_prefix("plan_cache_") {
                    b.field(key, (stat.get)(self));
                }
            }
        });
        o.object("pool", |b| {
            write_fields(b, pool, |_| true);
            b.field("hit_rate", rate(pool.hit_rate()));
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_sums_fields() {
        let mut a = PhaseStats {
            relational: Duration::from_millis(10),
            solver: Duration::from_millis(5),
            tuples: 3,
            pruned: 1,
            prune_wall: Duration::from_millis(2),
            delta_sizes: vec![4],
            plan_cache_hits: 2,
            plan_cache_misses: 1,
            ..PhaseStats::default()
        };
        let b = PhaseStats {
            relational: Duration::from_millis(20),
            solver: Duration::from_millis(15),
            tuples: 7,
            pruned: 2,
            prune_wall: Duration::from_millis(3),
            delta_sizes: vec![9, 1],
            plan_cache_hits: 3,
            plan_cache_misses: 1,
            ..PhaseStats::default()
        };
        a.absorb(&b);
        assert_eq!(a.relational, Duration::from_millis(30));
        assert_eq!(a.solver, Duration::from_millis(20));
        assert_eq!(a.tuples, 10);
        assert_eq!(a.pruned, 3);
        assert_eq!(a.prune_wall, Duration::from_millis(5));
        assert_eq!(a.total(), Duration::from_millis(50));
        assert_eq!(a.delta_sizes, vec![4, 9, 1]);
        assert_eq!(a.plan_cache_hits, 5);
        assert_eq!(a.plan_cache_misses, 2);
    }
}
