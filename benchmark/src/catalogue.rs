//! The benchmark's catalogue: workloads, end-to-end metrics, per-layer
//! metrics. `BENCHMARK.json` at the repository root is rendered from
//! this file (`--emit-benchmark-json`) and a test keeps the two equal,
//! so a metric is declared in exactly one place.

use crate::jsonl::number;
use faure_trace::json_escape;
use std::fmt::Write as _;

/// Seconds one run measures for; `run_seconds` of `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 10;

/// Default workload seed: the date of the paper's RIB snapshot.
pub const DEFAULT_SEED: u64 = 20_210_610;

pub struct Workload {
    pub name: &'static str,
    /// Input and measured operation, for the README table.
    pub operation: &'static str,
    pub why: &'static str,
}

pub const REACH_BATCH: &str = "reach_batch";
pub const REACH_DEEP: &str = "reach_deep";
pub const REACH_SHARDED: &str = "reach_sharded";
pub const FAILURE_FILTERS: &str = "failure_filters";
pub const CHURN_STREAM: &str = "churn_stream";
pub const VERIFY_LADDER: &str = "verify_ladder";

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: REACH_BATCH,
        operation: "RIB of 3000 prefixes, path length 3; op = prepare + run of q4-q5, threads=1, shards=1",
        why: "Table 4 q4-q5: wide, shallow recursion (3 iterations, big deltas); wall is probe, condition conjoin and insert/dedup",
    },
    Workload {
        name: REACH_DEEP,
        operation: "RIB of 200 prefixes, path length 16; op = prepare + run of q4-q5, threads=1, shards=1",
        why: "Same layers as reach_batch used differently: 16 iterations of shrinking deltas, so per-iteration fixed costs show here only",
    },
    Workload {
        name: REACH_SHARDED,
        operation: "reach_batch's input and program; op = prepare + run with threads=2, shards=2",
        why: "The only workload on engine::parallel, engine::shard, storage::shard and SharedMemo; output must equal reach_batch's",
    },
    Workload {
        name: FAILURE_FILTERS,
        operation: "setup derives R from reach_batch's input into a slim database; op = prepare + run of q6, q7 and q8 over it",
        why: "Table 4 q6-q8: non-recursive pass over a large input; Relation-to-Table load and end-of-stratum prune dominate, most memory",
    },
    Workload {
        name: CHURN_STREAM,
        operation: "setup materializes q4-q5 at 1000 prefixes; op = one single-tuple apply, nine announces to each withdraw",
        why: "The incremental layer engine::maintain: an announce and a withdraw differ 400-fold, so latency is kept per operation type",
    },
    Workload {
        name: VERIFY_LADDER,
        operation: "section 5 enterprise fixtures; op = one verify request (parse, category i, ii, direct), five request kinds in rotation",
        why: "The paper's second component: tiny programs where per-evaluation fixed cost is the whole wall, the guard against set-up creep",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
    pub meaning: &'static str,
}

pub const SETUP_S: &str = "setup_s";
pub const OP_P50_MS: &str = "op_p50_ms";
pub const OPS_PER_S: &str = "ops_per_s";
pub const PEAK_RSS_MB: &str = "peak_rss_mb";

/// Every workload reports every one of these, so each is defined for
/// the workload's own operation (see [`Workload::operation`]).
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: OP_P50_MS,
        unit: "ms",
        better: "lower",
        bound: 0.25,
        meaning: "median wall of one operation: time-to-answer of a batch query, of an announce, of a verify request",
    },
    EndToEnd {
        name: OPS_PER_S,
        unit: "1/s",
        better: "higher",
        bound: 0.25,
        meaning: "operations per second at the median wall of one cycle of the operation mix (one query; nine announces and a withdraw; five requests); on churn_stream this is 95% withdraw time",
    },
    EndToEnd {
        name: PEAK_RSS_MB,
        unit: "MB",
        better: "lower",
        bound: 0.1,
        meaning: "VmHWM of the process when the measured loop ends, before any output check runs",
    },
    EndToEnd {
        name: SETUP_S,
        unit: "s",
        better: "lower",
        bound: 0.25,
        meaning: "median of three to nine set-ups: generating inputs and reaching the measured start state",
    },
];

/// Where a per-layer number comes from.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Benchmark span around a public call.
    S,
    /// Value the call already returns.
    R,
    /// Self-time roll-up of spans the program emits when handed a tracer.
    T,
    /// Replay of the layer's public function on captured output.
    P,
    /// Ratio or estimate computed from other metrics.
    D,
}

impl Source {
    pub fn letter(self) -> &'static str {
        match self {
            Source::S => "S",
            Source::R => "R",
            Source::T => "T",
            Source::P => "P",
            Source::D => "D",
        }
    }
}

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub layer: &'static str,
    pub source: Source,
    /// Deterministic for a seed: equal across iterations, repetitions
    /// and the traced and untraced passes, or the run fails.
    pub exact: bool,
    /// End-to-end metric and workload this number is predicted to move.
    pub moves: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    layer: &'static str,
    source: Source,
    moves: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        better,
        layer,
        source,
        exact: false,
        moves,
    }
}

const fn exact(
    name: &'static str,
    layer: &'static str,
    source: Source,
    moves: &'static str,
) -> Layer {
    Layer {
        name,
        unit: "count",
        better: "lower",
        layer,
        source,
        exact: true,
        moves,
    }
}

use Source::{D, P, R, S, T};

const RIB: &str = "setup_s on the RIB workloads";
const VERDICT: &str = "op_p50_ms on verify_ladder";
const QUERY_ALL: &str = "op_p50_ms on reach_* and failure_filters";
const QUERY_REACH: &str =
    "op_p50_ms on reach_batch, reach_deep; announce op_p50_ms on churn_stream";
const QUERY_FILTERS: &str = "op_p50_ms on failure_filters first, reach_* second";
const SHARDED: &str = "op_p50_ms on reach_sharded only";
const WITHDRAW: &str = "ops_per_s on churn_stream (withdraw path)";
const ANNOUNCE: &str = "op_p50_ms on churn_stream (announce path)";
const RSS: &str = "peak_rss_mb on reach_batch, failure_filters";
const NONE: &str = "none (context)";

pub const PER_LAYER: &[Layer] = &[
    // net
    m("net.generate_s", "s", "lower", "net", S, RIB),
    exact("net.f_tuples", "net", R, NONE),
    // core::parser
    m("parser.parse_us", "us", "lower", "core::parser", S, VERDICT),
    // core::engine prepare / core::plan
    m(
        "prepare.wall_us",
        "us",
        "lower",
        "core::engine prepare",
        S,
        VERDICT,
    ),
    m(
        "prepare.safety_us",
        "us",
        "lower",
        "core::analysis",
        T,
        VERDICT,
    ),
    m(
        "prepare.stratify_us",
        "us",
        "lower",
        "core::analysis",
        T,
        VERDICT,
    ),
    m(
        "prepare.plan_compile_us",
        "us",
        "lower",
        "core::plan",
        T,
        VERDICT,
    ),
    m(
        "engine.plan_cache_hit_rate",
        "ratio",
        "higher",
        "core::plan",
        R,
        NONE,
    ),
    // core::engine batch fixpoint
    m("engine.run_s", "s", "lower", "core::engine", S, QUERY_ALL),
    m(
        "engine.cold_run_s",
        "s",
        "lower",
        "core::engine",
        S,
        "first run of the process: what a one-shot `faure eval` pays",
    ),
    m(
        "engine.relational_s",
        "s",
        "lower",
        "core::engine",
        R,
        QUERY_ALL,
    ),
    m(
        "engine.prune_wall_s",
        "s",
        "lower",
        "core::engine",
        R,
        QUERY_FILTERS,
    ),
    m(
        "engine.solver_cpu_s",
        "s",
        "lower",
        "solver",
        R,
        QUERY_FILTERS,
    ),
    exact(
        "engine.iterations",
        "core::engine",
        R,
        "op_p50_ms on reach_deep",
    ),
    exact("engine.delta_rows", "core::engine", R, NONE),
    exact("engine.derived_tuples", "core::engine", R, NONE),
    m(
        "engine.us_per_derived_tuple",
        "us",
        "lower",
        "core::engine",
        D,
        QUERY_ALL,
    ),
    m(
        "engine.setup_self_s",
        "s",
        "lower",
        "core::engine",
        T,
        "op_p50_ms on failure_filters (load)",
    ),
    m(
        "engine.lint_self_s",
        "s",
        "lower",
        "core::analysis",
        T,
        VERDICT,
    ),
    m(
        "engine.stratum_self_s",
        "s",
        "lower",
        "core::engine",
        T,
        "op_p50_ms on failure_filters (export)",
    ),
    m(
        "engine.iteration_self_s",
        "s",
        "lower",
        "core::engine",
        T,
        "op_p50_ms on reach_deep",
    ),
    m(
        "engine.rule_pass_self_s",
        "s",
        "lower",
        "core::engine",
        T,
        "op_p50_ms on reach_batch",
    ),
    m(
        "engine.prune_self_s",
        "s",
        "lower",
        "core::engine",
        T,
        QUERY_FILTERS,
    ),
    m(
        "engine.unattributed_share",
        "ratio",
        "lower",
        "core::engine",
        T,
        NONE,
    ),
    // storage::exec
    exact("exec.probes", "storage::exec", R, QUERY_REACH),
    exact("exec.rows_matched", "storage::exec", R, QUERY_REACH),
    exact("exec.conds_conjoined", "storage::exec", R, QUERY_REACH),
    exact("exec.cmp_pruned", "storage::exec", R, NONE),
    m(
        "exec.rows_per_probe",
        "count",
        "lower",
        "storage::exec",
        D,
        NONE,
    ),
    m(
        "exec.probe_ns",
        "ns",
        "lower",
        "storage::exec",
        P,
        QUERY_REACH,
    ),
    m(
        "exec.probe_ns_per_row",
        "ns",
        "lower",
        "storage::exec",
        P,
        QUERY_REACH,
    ),
    m(
        "exec.condacc_ns",
        "ns",
        "lower",
        "storage::exec",
        P,
        QUERY_REACH,
    ),
    m(
        "exec.est_probe_share",
        "ratio",
        "lower",
        "storage::exec",
        D,
        QUERY_REACH,
    ),
    // storage::table
    m(
        "table.load_ns_per_row",
        "ns",
        "lower",
        "storage::table",
        P,
        "op_p50_ms on failure_filters",
    ),
    m(
        "table.insert_new_ns_per_row",
        "ns",
        "lower",
        "storage::table",
        P,
        QUERY_REACH,
    ),
    m(
        "table.insert_dup_ns_per_row",
        "ns",
        "lower",
        "storage::table",
        P,
        QUERY_REACH,
    ),
    m(
        "table.insert_changed_share",
        "ratio",
        "higher",
        "storage::table",
        D,
        NONE,
    ),
    m(
        "table.absorb_ns_per_row",
        "ns",
        "lower",
        "storage::table",
        P,
        SHARDED,
    ),
    m(
        "table.export_ns_per_row",
        "ns",
        "lower",
        "storage::table",
        P,
        "op_p50_ms on failure_filters",
    ),
    m(
        "table.prune_ns_per_row",
        "ns",
        "lower",
        "storage::table",
        P,
        QUERY_FILTERS,
    ),
    exact("table.pruned_rows", "storage::table", R, NONE),
    m(
        "table.bytes_per_row",
        "B",
        "lower",
        "storage::table",
        P,
        RSS,
    ),
    // storage::dnf
    m(
        "dnf.to_min_dnf_ns",
        "ns",
        "lower",
        "storage::dnf",
        P,
        QUERY_FILTERS,
    ),
    m(
        "dnf.disjuncts_mean",
        "count",
        "lower",
        "storage::dnf",
        P,
        NONE,
    ),
    exact("dnf.over_budget", "storage::dnf", P, NONE),
    m(
        "dnf.est_share_of_prune",
        "ratio",
        "lower",
        "storage::dnf",
        D,
        QUERY_FILTERS,
    ),
    // ctable::pool
    m("pool.size_delta", "count", "lower", "ctable::pool", R, RSS),
    m(
        "pool.hit_rate",
        "ratio",
        "higher",
        "ctable::pool",
        R,
        QUERY_REACH,
    ),
    m(
        "pool.intern_hit_ns",
        "ns",
        "lower",
        "ctable::pool",
        P,
        QUERY_REACH,
    ),
    m(
        "pool.intern_miss_ns",
        "ns",
        "lower",
        "ctable::pool",
        P,
        VERDICT,
    ),
    m(
        "pool.conj_ns",
        "ns",
        "lower",
        "ctable::pool",
        P,
        QUERY_REACH,
    ),
    m(
        "pool.resolve_ns",
        "ns",
        "lower",
        "ctable::pool",
        P,
        QUERY_REACH,
    ),
    // solver
    m(
        "solver.sat_calls",
        "count",
        "lower",
        "solver",
        R,
        QUERY_FILTERS,
    ),
    m(
        "solver.simplify_calls",
        "count",
        "lower",
        "solver",
        R,
        QUERY_FILTERS,
    ),
    m(
        "solver.memo_hit_rate",
        "ratio",
        "higher",
        "solver::memo",
        R,
        QUERY_FILTERS,
    ),
    m(
        "solver.cross_run_hit_rate",
        "ratio",
        "higher",
        "solver::memo",
        R,
        WITHDRAW,
    ),
    m(
        "solver.latency_p50_ns",
        "ns",
        "lower",
        "solver",
        R,
        QUERY_FILTERS,
    ),
    m(
        "solver.latency_p99_ns",
        "ns",
        "lower",
        "solver",
        R,
        QUERY_FILTERS,
    ),
    m(
        "solver.sat_miss_ns",
        "ns",
        "lower",
        "solver",
        P,
        QUERY_FILTERS,
    ),
    m(
        "solver.sat_hit_ns",
        "ns",
        "lower",
        "solver::memo",
        P,
        QUERY_FILTERS,
    ),
    m(
        "solver.simplify_ns",
        "ns",
        "lower",
        "solver",
        P,
        QUERY_FILTERS,
    ),
    m("solver.implies_ns", "ns", "lower", "solver", P, VERDICT),
    m(
        "solver.share_of_prune",
        "ratio",
        "lower",
        "solver",
        D,
        QUERY_FILTERS,
    ),
    // core::engine::{parallel,shard} + storage::shard
    exact("shard.routed_rows", "core::engine::shard", R, SHARDED),
    exact("shard.broadcast_rows", "core::engine::shard", R, SHARDED),
    exact("shard.exchanged_batches", "core::engine::shard", R, SHARDED),
    exact("shard.passes", "core::engine::shard", R, SHARDED),
    m(
        "shard.cross_shard_hits",
        "count",
        "higher",
        "solver::memo",
        R,
        SHARDED,
    ),
    m(
        "shard.imbalance",
        "ratio",
        "lower",
        "core::engine::shard",
        R,
        SHARDED,
    ),
    m(
        "shard.wall_s",
        "s",
        "lower",
        "core::engine::shard",
        R,
        SHARDED,
    ),
    m(
        "shard.shard_pass_self_s",
        "s",
        "lower",
        "core::engine::shard",
        T,
        SHARDED,
    ),
    m(
        "shard.route_ns",
        "ns",
        "lower",
        "storage::shard",
        P,
        SHARDED,
    ),
    m(
        "shard.speedup_vs_batch",
        "ratio",
        "higher",
        "core::engine::shard",
        D,
        SHARDED,
    ),
    // core::engine::maintain
    m(
        "maintain.materialize_s",
        "s",
        "lower",
        "core::engine::maintain",
        S,
        "setup_s on churn_stream",
    ),
    m(
        "maintain.full_reeval_s",
        "s",
        "lower",
        "core::engine",
        S,
        NONE,
    ),
    m(
        "maintain.delete_to_reeval_ratio",
        "ratio",
        "lower",
        "core::engine::maintain",
        D,
        WITHDRAW,
    ),
    exact(
        "maintain.rederived_per_insert",
        "core::engine::maintain",
        R,
        ANNOUNCE,
    ),
    exact(
        "maintain.overdeleted_per_delete",
        "core::engine::maintain",
        R,
        WITHDRAW,
    ),
    exact(
        "maintain.counting_strata",
        "core::engine::maintain",
        R,
        NONE,
    ),
    exact(
        "maintain.rederive_strata",
        "core::engine::maintain",
        R,
        WITHDRAW,
    ),
    m(
        "maintain.recompute_share",
        "ratio",
        "lower",
        "core::engine::maintain",
        T,
        WITHDRAW,
    ),
    m(
        "maintain.insert_relational_share",
        "ratio",
        "lower",
        "core::engine::maintain",
        R,
        ANNOUNCE,
    ),
    m(
        "maintain.delete_prune_share",
        "ratio",
        "lower",
        "core::engine::maintain",
        R,
        WITHDRAW,
    ),
    m(
        "maintain.delta_self_s",
        "s",
        "lower",
        "core::engine::maintain",
        T,
        ANNOUNCE,
    ),
    m(
        "maintain.rederive_self_s",
        "s",
        "lower",
        "core::engine::maintain",
        T,
        WITHDRAW,
    ),
    m(
        "maintain.stratum_self_s",
        "s",
        "lower",
        "core::engine::maintain",
        T,
        WITHDRAW,
    ),
    m("maintain.export_s", "s", "lower", "storage::table", S, NONE),
    m(
        "maintain.rss_growth_kb_per_1k_updates",
        "kB",
        "lower",
        "core::engine::maintain",
        D,
        "peak_rss_mb on churn_stream",
    ),
    m(
        "maintain.insert_p50_ms",
        "ms",
        "lower",
        "core::engine::maintain",
        S,
        ANNOUNCE,
    ),
    m(
        "maintain.insert_tail_ms",
        "ms",
        "lower",
        "core::engine::maintain",
        S,
        ANNOUNCE,
    ),
    m(
        "maintain.insert_tail_pct",
        "%",
        "higher",
        "core::engine::maintain",
        D,
        NONE,
    ),
    m(
        "maintain.delete_p50_ms",
        "ms",
        "lower",
        "core::engine::maintain",
        S,
        WITHDRAW,
    ),
    m(
        "maintain.delete_tail_ms",
        "ms",
        "lower",
        "core::engine::maintain",
        S,
        WITHDRAW,
    ),
    m(
        "maintain.delete_tail_pct",
        "%",
        "higher",
        "core::engine::maintain",
        D,
        NONE,
    ),
    // verify, core::containment, core::update
    m("verify.category_i_us", "us", "lower", "verify", S, VERDICT),
    m("verify.category_ii_us", "us", "lower", "verify", S, VERDICT),
    m("verify.direct_us", "us", "lower", "verify", S, VERDICT),
    m(
        "containment.subsumes_us",
        "us",
        "lower",
        "core::containment",
        S,
        VERDICT,
    ),
    m(
        "update.expand_constraint_us",
        "us",
        "lower",
        "core::update",
        S,
        VERDICT,
    ),
    m(
        "update.apply_to_database_us",
        "us",
        "lower",
        "core::update",
        S,
        "setup_s on verify_ladder",
    ),
    m(
        "verify.pool_growth_per_1k",
        "count",
        "lower",
        "ctable::pool",
        D,
        "peak_rss_mb on verify_ladder",
    ),
    m(
        "verify.rss_growth_kb_per_1k",
        "kB",
        "lower",
        "verify",
        D,
        "peak_rss_mb on verify_ladder",
    ),
    // trace
    m(
        "trace.overhead_pct",
        "%",
        "lower",
        "trace",
        D,
        "none (guard: keep below 5)",
    ),
    m("trace.events", "count", "lower", "trace", R, NONE),
    m("trace.ns_per_event", "ns", "lower", "trace", D, NONE),
    // the run itself
    m("op.samples", "count", "higher", "benchmark", R, NONE),
    m(
        "op.tail_ms",
        "ms",
        "lower",
        "benchmark",
        S,
        "the tail behind op_p50_ms, at op.tail_pct",
    ),
    m("op.tail_pct", "%", "higher", "benchmark", D, NONE),
    exact(
        "out.digest32",
        "benchmark",
        R,
        "low 32 bits of the batch output's digest: equal on reach_batch and reach_sharded",
    ),
    m("host.cores", "count", "higher", "benchmark", R, NONE),
];

/// How the metrics interact: predictions recorded before measuring.
pub const PREDICTIONS: &[&str] = &[
    "Nothing contends on the serial workloads, so a layer saves at most its self-time share: halving solver.sat_miss_ns moves op_p50_ms on reach_batch by less than 3%; the part of engine.prune_wall_s that is not solver (table.prune_ns_per_row minus sat, dnf.*, row rebuild) is the larger lever, on failure_filters first.",
    "exec.probe_ns_per_row and table.insert_new_ns_per_row move op_p50_ms on reach_batch and reach_deep roughly 1:1 with their share, and the announce op_p50_ms on churn_stream; they barely move verify_ladder.",
    "Per-iteration fixed cost times engine.iterations separates reach_deep (16) from reach_batch (3): work moved from per-row to per-iteration helps the second and may hurt the first.",
    "engine.setup_self_s (Relation-to-Table load) is paid per evaluation: a large share on failure_filters, the whole cost of small-output queries such as q7, invisible on reach_*.",
    "reach_sharded waits for the slower of two shards at every barrier: shard.imbalance and shard.exchanged_batches bound shard.speedup_vs_batch (about 1.0 today); a serial-only gain moves reach_batch and reach_sharded together, a barrier or exchange change only the latter.",
    "ops_per_s on churn_stream is about 95% withdraw time, so it tracks maintain.delete_p50_ms and maintain.recompute_share, never the announce path; an announce optimisation is claimed on op_p50_ms.",
    "Per-evaluation set-up added for bulk speed (eager indexes, large pre-allocation, pool warm-up) shows as an op_p50_ms and ops_per_s regression on verify_ladder while reach_* improve.",
    "table.bytes_per_row and pool.size_delta move peak_rss_mb; read, write and space trade off, so op_p50_ms on reach_batch, op_p50_ms on churn_stream and peak_rss_mb are reported together for any storage change.",
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub fn layer(name: &str) -> Option<&'static Layer> {
    PER_LAYER.iter().find(|l| l.name == name)
}

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|e| e.name == name)
}

/// Unit of a metric of either kind.
pub fn unit(name: &str) -> &'static str {
    end_to_end(name)
        .map(|e| e.unit)
        .or_else(|| layer(name).map(|l| l.unit))
        .unwrap_or_else(|| panic!("metric `{name}` is not in the catalogue"))
}

/// Renders `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}",
            w.name,
            json_escape(w.why)
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, e) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}",
            e.name,
            e.unit,
            e.better,
            number(e.bound)
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, l) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}",
            l.name, l.unit, l.better
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// The catalogue as the README's Markdown tables.
pub fn describe() -> String {
    let mut out = String::from("| workload | input and operation | why |\n|---|---|---|\n");
    for w in WORKLOADS {
        let _ = writeln!(out, "| `{}` | {} | {} |", w.name, w.operation, w.why);
    }
    out.push_str(
        "\n| end-to-end metric | unit | better | bound | meaning |\n|---|---|---|---|---|\n",
    );
    for e in END_TO_END {
        let _ = writeln!(
            out,
            "| `{}` | {} | {} | {}% | {} |",
            e.name,
            e.unit,
            e.better,
            e.bound * 100.0,
            e.meaning
        );
    }
    out.push_str("\n| per-layer metric | unit | layer | source | exact | moves |\n|---|---|---|---|---|---|\n");
    for l in PER_LAYER {
        let _ = writeln!(
            out,
            "| `{}` | {} | `{}` | {} | {} | {} |",
            l.name,
            l.unit,
            l.layer,
            l.source.letter(),
            if l.exact { "yes" } else { "" },
            l.moves
        );
    }
    out.push_str("\nPredictions:\n\n");
    for (i, p) in PREDICTIONS.iter().enumerate() {
        let _ = writeln!(out, "{}. {p}", i + 1);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn well_formed(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_units_and_counts_meet_the_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut seen = BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|e| e.name))
            .chain(PER_LAYER.iter().map(|l| l.name));
        for name in names {
            assert!(well_formed(name), "bad name `{name}`");
            assert!(seen.insert(name), "name `{name}` used twice");
        }
        let units = END_TO_END
            .iter()
            .map(|e| e.unit)
            .chain(PER_LAYER.iter().map(|l| l.unit));
        for unit in units {
            assert!(!unit.is_empty() && unit.len() <= 16, "bad unit `{unit}`");
            assert!(
                unit.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit `{unit}`"
            );
        }
        for w in WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for e in END_TO_END {
            assert!(e.bound > 0.0 && e.bound <= 0.25, "{}", e.name);
            assert!(matches!(e.better, "lower" | "higher"));
        }
        for l in PER_LAYER {
            assert!(matches!(l.better, "lower" | "higher"));
        }
        let setup = end_to_end(SETUP_S).expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|e| e.bound <= setup.bound));
        assert_eq!(PREDICTIONS.len(), 8);
    }

    #[test]
    fn benchmark_json_in_the_tree_is_the_rendered_catalogue() {
        let on_disk = include_str!("../../BENCHMARK.json");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with `--emit-benchmark-json > BENCHMARK.json`"
        );
        assert!(on_disk.len() <= 64 * 1024);
    }
}
