//! Telemetry publication: the bridge from the engine's per-run
//! statistics structs to the process-global
//! [`faure_trace::telemetry`] registry.
//!
//! Every counter here is published at a *boundary* — end of a fixpoint
//! iteration, end of a prune pass, end of a delta apply — never inside
//! the per-row hot loops, so the cost is a handful of atomic adds per
//! boundary. Publication only touches atomics and can therefore never
//! change evaluation results; the `trace_determinism` suite pins that
//! down.
//!
//! Counter names follow Prometheus conventions (`faure_` prefix,
//! `_total` suffix for cumulative counters, `_ns` for nanosecond
//! histograms). The JSON↔Prometheus mapping is documented in the
//! README's metrics-schema table; keep the two in sync.

use super::maintain::DeltaReport;
use faure_storage::PhaseStats;
use faure_trace::telemetry::{global, Registry};
use std::cell::Cell;

thread_local! {
    /// Set while an auxiliary evaluation runs on this thread. Database
    /// loading and the §5 containment oracle drive the full engine, but
    /// they are not pipeline work: publishing their counters would
    /// inflate `faure_runs_total` / `faure_materializations_total` and
    /// break the invariant that the registry agrees with the final
    /// `--metrics` totals. All publication sites sit on the
    /// coordinating thread (workers fold stats back before any
    /// boundary), so a thread-local covers the whole evaluation.
    static SUPPRESSED: Cell<bool> = const { Cell::new(false) };
}

/// True while publication is suppressed on this thread.
fn suppressed() -> bool {
    SUPPRESSED.with(Cell::get)
}

/// Runs `f` with registry publication suppressed on this thread,
/// restoring the previous state afterwards (also on panic).
pub(crate) fn with_publication_suppressed<R>(f: impl FnOnce() -> R) -> R {
    struct Reset(bool);
    impl Drop for Reset {
        fn drop(&mut self) {
            SUPPRESSED.with(|s| s.set(self.0));
        }
    }
    let _reset = Reset(SUPPRESSED.with(|s| s.replace(true)));
    f()
}

/// Publishes one finished delta apply (the fresh materialization or an
/// incremental update) into the registry: the apply's [`PhaseStats`]
/// operator/solver/plan-cache counters, the [`DeltaReport`] row
/// movement, the solver latency histogram, and a mirror of the
/// process-global condition-pool counters.
pub(crate) fn publish_apply(stats: &PhaseStats, report: &DeltaReport, fresh: bool) {
    if suppressed() {
        return;
    }
    let reg = global();
    if fresh {
        reg.counter("faure_materializations_total").inc();
        reg.histogram("faure_materialize_ns")
            .observe_ns(u64::try_from(report.wall.as_nanos()).unwrap_or(u64::MAX));
    } else {
        reg.counter("faure_updates_applied_total").inc();
        reg.histogram("faure_update_apply_ns")
            .observe_ns(u64::try_from(report.wall.as_nanos()).unwrap_or(u64::MAX));
    }

    let ops = &stats.ops;
    reg.counter("faure_probes_total").add(ops.probes);
    reg.counter("faure_rows_matched_total")
        .add(ops.rows_matched);
    reg.counter("faure_conds_conjoined_total")
        .add(ops.conds_conjoined);
    reg.counter("faure_cmp_pruned_total").add(ops.cmp_pruned);
    reg.counter("faure_neg_checks_total").add(ops.neg_checks);
    reg.counter("faure_static_cut_total").add(ops.static_cut);

    let sv = &stats.solver_stats;
    reg.counter("faure_sat_calls_total").add(sv.sat_calls);
    reg.counter("faure_sat_true_total").add(sv.sat_true);
    reg.counter("faure_simplify_calls_total")
        .add(sv.simplify_calls);
    reg.counter("faure_memo_hits_total").add(sv.memo_hits);
    reg.counter("faure_memo_cross_run_hits_total")
        .add(sv.cross_run_hits);
    reg.counter("faure_memo_misses_total").add(sv.memo_misses);
    reg.counter("faure_solver_ns_total")
        .add(u64::try_from(sv.time.as_nanos()).unwrap_or(u64::MAX));
    reg.histogram("faure_solver_latency_ns").merge(&sv.latency);

    reg.counter("faure_relational_ns_total")
        .add(u64::try_from(stats.relational.as_nanos()).unwrap_or(u64::MAX));
    reg.counter("faure_prune_wall_ns_total")
        .add(u64::try_from(stats.prune_wall.as_nanos()).unwrap_or(u64::MAX));
    reg.counter("faure_pruned_rows_total")
        .add(stats.pruned as u64);
    reg.counter("faure_plan_cache_hits_total")
        .add(stats.plan_cache_hits);
    reg.counter("faure_plan_cache_misses_total")
        .add(stats.plan_cache_misses);
    // Absolute, not a per-apply increment: the standing IDB row count.
    reg.gauge("faure_idb_tuples").set(stats.tuples as i64);

    reg.counter("faure_rows_inserted_total")
        .add(report.inserted as u64);
    reg.counter("faure_rows_deleted_total")
        .add(report.deleted as u64);
    reg.counter("faure_rows_overdeleted_total")
        .add(report.overdeleted as u64);
    reg.counter("faure_rows_rederived_total")
        .add(report.rederived as u64);
    reg.counter("faure_strata_touched_total")
        .add(report.strata_touched as u64);

    sync_pool(reg);
}

/// Mirrors the condition pool's process-global hit/miss counters and
/// size into the registry. `sync_to` (a `fetch_max`) rather than an
/// add: the pool counters are already cumulative, so mirroring must
/// not double count when several applies race.
pub(crate) fn sync_pool(reg: &Registry) {
    let pool = faure_ctable::pool::pool_stats();
    reg.counter("faure_pool_hits_total").sync_to(pool.hits);
    reg.counter("faure_pool_misses_total").sync_to(pool.misses);
    reg.gauge("faure_pool_size").set(pool.size as i64);
}

/// Publishes one maintenance stratum pass, labeled by its propagation
/// mode (`append` / `counting` / `rederive` / `recompute`) and, for a
/// recomputed stratum, by why the order-safety gate fired (`var_cells`
/// / `deleted_var_row`).
pub(crate) fn publish_maintain_stratum(mode: &str, reason: Option<&str>, changed_rows: usize) {
    if suppressed() {
        return;
    }
    let reg = global();
    let strata = match reason {
        Some(reason) => reg.counter_with(
            "faure_maintain_strata_total",
            &[("mode", mode), ("reason", reason)],
        ),
        None => reg.counter_with("faure_maintain_strata_total", &[("mode", mode)]),
    };
    strata.inc();
    reg.counter("faure_maintain_changed_rows_total")
        .add(changed_rows as u64);
}

/// Publishes one finished fixpoint iteration and its delta size.
pub(crate) fn publish_iteration(delta_rows: usize) {
    if suppressed() {
        return;
    }
    let reg = global();
    reg.counter("faure_fixpoint_iterations_total").inc();
    reg.counter("faure_delta_rows_total").add(delta_rows as u64);
}

/// Publishes one prune pass (whole-table or delta sweep).
pub(crate) fn publish_prune(rows: usize, removed: usize) {
    if suppressed() {
        return;
    }
    let reg = global();
    reg.counter("faure_prune_passes_total").inc();
    reg.counter("faure_prune_rows_seen_total").add(rows as u64);
    reg.counter("faure_prune_rows_removed_total")
        .add(removed as u64);
}

/// Publishes one sharded delta pass: the shard count, the delta
/// batches exchanged through the bounded channels, the rows they
/// carried, and how many changed rows were routed to a non-producing
/// shard (broadcast copies included) or broadcast outright.
pub(crate) fn publish_shard_pass(
    shards: usize,
    batches: u64,
    rows: usize,
    routed: u64,
    broadcast: u64,
) {
    if suppressed() {
        return;
    }
    let reg = global();
    reg.counter("faure_shard_passes_total").inc();
    reg.counter("faure_shard_batches_total").add(batches);
    reg.counter("faure_shard_rows_exchanged_total")
        .add(rows as u64);
    reg.counter("faure_shard_routed_rows_total").add(routed);
    reg.counter("faure_shard_broadcast_rows_total")
        .add(broadcast);
    reg.gauge("faure_shards").set(shards as i64);
    // Standing view of the most recent pass's routed volume.
    reg.gauge("faure_shard_routed_delta_rows")
        .set(i64::try_from(routed).unwrap_or(i64::MAX));
}

/// Publishes one data-parallel rule pass: how many chunks the match
/// list was cut into, and on how many worker threads.
pub(crate) fn publish_parallel(workers: usize, chunks: usize) {
    if suppressed() {
        return;
    }
    let reg = global();
    reg.counter("faure_parallel_rule_passes_total").inc();
    reg.counter("faure_parallel_chunks_total")
        .add(chunks as u64);
    reg.gauge("faure_parallel_workers").set(workers as i64);
}

/// Publishes the start of an evaluation run (batch `run()` or a fresh
/// materialization) and its configured thread count.
pub(crate) fn publish_run(threads: usize) {
    if suppressed() {
        return;
    }
    let reg = global();
    reg.counter("faure_runs_total").inc();
    reg.gauge("faure_threads").set(threads as i64);
}
