//! Per-layer metrics read from what the engine already hands back:
//! the statistics a call returns (source **R**) and the spans it emits
//! when given a tracer (source **T**).

use crate::run::Metrics;
use crate::spans::{rollup, SpanTree, BENCH};
use faure_ctable::pool::{pool_stats_since, PoolStats};
use faure_storage::PhaseStats;
use faure_trace::Event;

/// The counts of one batch evaluation that a seed fixes exactly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExactCounts {
    pub derived_tuples: usize,
    pub iterations: usize,
    pub delta_rows: usize,
    pub probes: u64,
    pub rows_matched: u64,
    pub conds_conjoined: u64,
    pub cmp_pruned: u64,
    pub pruned_rows: usize,
    pub routed_rows: u64,
    pub broadcast_rows: u64,
    pub exchanged_batches: u64,
    pub shard_passes: u64,
}

impl ExactCounts {
    pub fn of(stats: &PhaseStats) -> ExactCounts {
        ExactCounts {
            derived_tuples: stats.tuples,
            iterations: stats.delta_sizes.len(),
            delta_rows: stats.delta_sizes.iter().sum(),
            probes: stats.ops.probes,
            rows_matched: stats.ops.rows_matched,
            conds_conjoined: stats.ops.conds_conjoined,
            cmp_pruned: stats.ops.cmp_pruned,
            pruned_rows: stats.pruned,
            routed_rows: stats.shard.routed_rows,
            broadcast_rows: stats.shard.broadcast_rows,
            exchanged_batches: stats.shard.exchanged_batches,
            shard_passes: stats.shard.passes,
        }
    }

    pub fn record(&self, m: &mut Metrics) {
        m.set("engine.derived_tuples", self.derived_tuples as f64);
        m.set("engine.iterations", self.iterations as f64);
        m.set("engine.delta_rows", self.delta_rows as f64);
        m.set("exec.probes", self.probes as f64);
        m.set("exec.rows_matched", self.rows_matched as f64);
        m.set("exec.conds_conjoined", self.conds_conjoined as f64);
        m.set("exec.cmp_pruned", self.cmp_pruned as f64);
        m.set("table.pruned_rows", self.pruned_rows as f64);
        m.set("shard.routed_rows", self.routed_rows as f64);
        m.set("shard.broadcast_rows", self.broadcast_rows as f64);
        m.set("shard.exchanged_batches", self.exchanged_batches as f64);
        m.set("shard.passes", self.shard_passes as f64);
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The timing half of one evaluation's [`PhaseStats`], plus the ratios
/// that follow from it. `run_s` is the benchmark's own wall around the
/// call.
pub fn phase_stats(m: &mut Metrics, stats: &PhaseStats, run_s: f64) {
    let counts = ExactCounts::of(stats);
    let solver = &stats.solver_stats;
    m.set("engine.relational_s", stats.relational.as_secs_f64());
    m.set("engine.prune_wall_s", stats.prune_wall.as_secs_f64());
    m.set("engine.solver_cpu_s", stats.solver.as_secs_f64());
    m.set(
        "engine.us_per_derived_tuple",
        ratio(run_s * 1e6, counts.derived_tuples as f64),
    );
    m.set(
        "engine.plan_cache_hit_rate",
        ratio(
            stats.plan_cache_hits as f64,
            (stats.plan_cache_hits + stats.plan_cache_misses) as f64,
        ),
    );
    m.set(
        "exec.rows_per_probe",
        ratio(counts.rows_matched as f64, counts.probes as f64),
    );
    m.set(
        "table.insert_changed_share",
        ratio(counts.delta_rows as f64, counts.rows_matched as f64),
    );
    m.set("solver.sat_calls", solver.sat_calls as f64);
    m.set("solver.simplify_calls", solver.simplify_calls as f64);
    m.set("solver.memo_hit_rate", solver.memo_hit_rate());
    m.set(
        "solver.cross_run_hit_rate",
        solver.memo_cross_run_hit_rate(),
    );
    m.set("solver.latency_p50_ns", solver.latency.quantile(0.5) as f64);
    m.set(
        "solver.latency_p99_ns",
        solver.latency.quantile(0.99) as f64,
    );
    m.set(
        "solver.share_of_prune",
        ratio(stats.solver.as_secs_f64(), stats.prune_wall.as_secs_f64()),
    );
    m.set("shard.cross_shard_hits", solver.cross_shard_hits as f64);
    m.set("shard.imbalance", stats.shard.imbalance().unwrap_or(0.0));
    m.set(
        "shard.wall_s",
        stats
            .shard
            .shard_wall
            .iter()
            .max()
            .map_or(0.0, |d| d.as_secs_f64()),
    );
}

/// Condition-pool movement since `before`.
pub fn pool_delta(m: &mut Metrics, before: &PoolStats) {
    let delta = pool_stats_since(before);
    m.set(
        "pool.size_delta",
        delta.size.saturating_sub(before.size) as f64,
    );
    m.set("pool.hit_rate", delta.hit_rate());
}

/// Self-time roll-ups of the `prepare/*`, `eval/*` and `fixpoint/*`
/// spans of the traced evaluations, each reported per evaluation.
/// `run_span` names the benchmark span that wraps one evaluation call;
/// what neither it nor `eval/run` hands to a named child is the share
/// of the run that cannot be attributed from outside.
///
/// Worker-track events are left out of the tree: a `worker/chunk` runs
/// inside the `rule-pass` that waits for it, and that wait is the rule
/// pass's own time on the driver.
pub fn engine_spans(m: &mut Metrics, events: &[Event], run_span: &'static str) {
    let driver: Vec<Event> = events.iter().filter(|e| e.track == 0).cloned().collect();
    let tree = SpanTree::build(&driver);
    let wrapper = rollup(&driver, &tree, BENCH, run_span);
    let per_op = |ns: u64| ns as f64 / wrapper.count.max(1) as f64;
    let self_s = |cat, name| per_op(rollup(&driver, &tree, cat, name).self_ns) / 1e9;
    let dur_us = |cat, name| per_op(rollup(&driver, &tree, cat, name).dur_ns) / 1e3;

    m.set("prepare.safety_us", dur_us("prepare", "safety"));
    m.set("prepare.stratify_us", dur_us("prepare", "stratify"));
    m.set("prepare.plan_compile_us", dur_us("prepare", "plan-compile"));
    m.set("engine.lint_self_s", self_s("eval", "lint"));
    m.set("engine.setup_self_s", self_s("eval", "setup"));
    m.set("engine.stratum_self_s", self_s("eval", "stratum"));
    m.set("engine.iteration_self_s", self_s("fixpoint", "iteration"));
    m.set("engine.rule_pass_self_s", self_s("fixpoint", "rule-pass"));
    m.set("engine.prune_self_s", self_s("eval", "prune"));
    m.set("shard.shard_pass_self_s", self_s("fixpoint", "shard-pass"));

    let inner = rollup(&driver, &tree, "eval", "run");
    m.set(
        "engine.unattributed_share",
        ratio(
            (wrapper.self_ns + inner.self_ns) as f64,
            wrapper.dur_ns as f64,
        ),
    );
}
