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
//! The per-apply counters are not named here: each statistics struct
//! declares its own families in its stat table
//! ([`faure_trace::stats!`]), and [`publish_apply`] pushes whole
//! structs through [`faure_trace::stat::publish`], whose handles are
//! resolved once per process. What this file names itself are the
//! families no struct carries: the run / iteration / prune / pass
//! events and the latency histograms. The README's mapping table lists
//! every family against its JSON key.

use super::maintain::DeltaReport;
use faure_trace::stat::{mirror, publish};
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

/// The global registry, unless publication is suppressed on this
/// thread.
fn registry() -> Option<&'static Registry> {
    (!SUPPRESSED.with(Cell::get)).then(global)
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

/// Process-level apply accounting — what the `--metrics` document's
/// `totals` block opens with. One finished apply publishes one of
/// these: a fresh materialization counts as a run, anything else as an
/// applied update.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Applies {
    /// Fresh materializations (batch runs).
    pub runs: u64,
    /// Incremental deltas applied.
    pub updates_applied: u64,
    /// Derived rows standing after the last apply — absolute, not a
    /// per-apply increment.
    pub idb_tuples: usize,
}

faure_trace::stats!(Applies {
    runs: Counter, "runs", "faure_materializations_total", "Fresh materializations (batch runs).";
    updates_applied: Counter, "updates_applied", "faure_updates_applied_total", "Incremental deltas applied.";
    idb_tuples: Gauge, "idb_tuples", "faure_idb_tuples", "Derived rows standing after the last apply.";
});

/// Publishes one finished delta apply (the fresh materialization or an
/// incremental update) into the registry: every declared stat of the
/// report and of its [`PhaseStats`](faure_storage::PhaseStats) tree,
/// the apply and solver latency histograms, and a mirror of the
/// process-global condition pool.
pub(crate) fn publish_apply(report: &DeltaReport, fresh: bool) {
    let Some(reg) = registry() else { return };
    let stats = &report.stats;
    publish(&Applies {
        runs: u64::from(fresh),
        updates_applied: u64::from(!fresh),
        idb_tuples: stats.tuples,
    });
    let wall = if fresh {
        "faure_materialize_ns"
    } else {
        "faure_update_apply_ns"
    };
    reg.histogram(wall)
        .observe_ns(u64::try_from(report.wall.as_nanos()).unwrap_or(u64::MAX));
    publish(stats);
    publish(&stats.ops);
    publish(&stats.solver_stats);
    reg.histogram("faure_solver_latency_ns")
        .merge(&stats.solver_stats.latency);
    publish(&stats.shard);
    publish(report);
    sync_pool();
}

/// Mirrors the condition pool's process-global, already cumulative
/// counters and size into the registry — raised to, not added, so
/// mirroring cannot double count when several applies race.
fn sync_pool() {
    mirror(&faure_ctable::pool::pool_stats());
}

/// Publishes one maintenance stratum pass, labeled by its propagation
/// mode (`append` / `counting` / `rederive` / `recompute`) and, for a
/// recomputed stratum, by why the order-safety gate fired (`var_cells`
/// / `deleted_var_row`).
pub(crate) fn publish_maintain_stratum(mode: &str, reason: Option<&str>, changed_rows: usize) {
    let Some(reg) = registry() else { return };
    let mut labels = vec![("mode", mode)];
    labels.extend(reason.map(|reason| ("reason", reason)));
    reg.counter_with("faure_maintain_strata_total", &labels)
        .inc();
    reg.counter("faure_maintain_changed_rows_total")
        .add(changed_rows as u64);
}

/// Publishes one finished fixpoint iteration and its delta size.
pub(crate) fn publish_iteration(delta_rows: usize) {
    let Some(reg) = registry() else { return };
    reg.counter("faure_fixpoint_iterations_total").inc();
    reg.counter("faure_delta_rows_total").add(delta_rows as u64);
}

/// Publishes one prune pass (whole-table or delta sweep).
pub(crate) fn publish_prune(rows: usize, removed: usize) {
    let Some(reg) = registry() else { return };
    reg.counter("faure_prune_passes_total").inc();
    reg.counter("faure_prune_rows_seen_total").add(rows as u64);
    reg.counter("faure_prune_rows_removed_total")
        .add(removed as u64);
}

/// Publishes one sharded delta pass: the rows its batches carried and,
/// as a standing view, how many of its changed rows went to a shard
/// other than their producer. (The pass, batch, routed and broadcast
/// counts ride [`ShardStats`] to the end of the apply.)
pub(crate) fn publish_shard_pass(rows: usize, routed: u64) {
    let Some(reg) = registry() else { return };
    reg.counter("faure_shard_rows_exchanged_total")
        .add(rows as u64);
    reg.gauge("faure_shard_routed_delta_rows")
        .set(i64::try_from(routed).unwrap_or(i64::MAX));
}

/// Publishes one data-parallel rule pass: how many chunks the match
/// list was cut into, and on how many worker threads.
pub(crate) fn publish_parallel(workers: usize, chunks: usize) {
    let Some(reg) = registry() else { return };
    reg.counter("faure_parallel_rule_passes_total").inc();
    reg.counter("faure_parallel_chunks_total")
        .add(chunks as u64);
    reg.gauge("faure_parallel_workers").set(workers as i64);
}

/// Publishes the start of an evaluation run (batch `run()` or a fresh
/// materialization) and its configured thread count.
pub(crate) fn publish_run(threads: usize) {
    let Some(reg) = registry() else { return };
    reg.counter("faure_runs_total").inc();
    reg.gauge("faure_threads").set(threads as i64);
}
