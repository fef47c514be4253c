//! # faure-bench — benchmark harness for the paper's Table 4
//!
//! Table 4 of the paper reports, per input size (1 000 / 10 000 /
//! 100 000 / 922 067 prefixes) and per query (q4–q5 recursion, q6, q7,
//! q8), the SQL-phase time, the Z3 time, and the number of tuples
//! produced. This crate regenerates that table on the synthetic RIB
//! workload:
//!
//! * [`run_table4_row`] evaluates the whole Listing 2 pipeline for one
//!   prefix count and collects the per-query [`QueryStats`];
//! * the `table4` binary sweeps the sizes and prints the table (plus a
//!   machine-readable JSON dump for EXPERIMENTS.md);
//! * the Criterion benches (`benches/`) track per-query latency at
//!   fixed sizes, solver micro-costs, and the design ablations
//!   (semi-naive vs naive fixpoint, solver pruning policies).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use faure_core::{evaluate_with, Delta, Engine, EvalError, EvalOptions, EvalOutput, PrunePolicy};
use faure_ctable::{Const, PoolStats};
use faure_net::{queries, rib};
use faure_storage::PhaseStats;
use faure_trace::json::{self, Obj, Str};

/// Timing + size numbers for one query (one cell group of Table 4).
#[derive(Clone, Debug, Default)]
pub struct QueryStats {
    /// The evaluation's statistics as the engine returned them: the
    /// paper's "sql" (`relational`), "Z3" (`solver`) and "#tuples"
    /// columns, the convergence profile (`delta_sizes`) and every
    /// counter of the `metrics` block.
    pub phase: PhaseStats,
    /// Condition-pool counters snapshotted when the query finished
    /// (the pool is process-global, so these are cumulative: `size`
    /// is the number of distinct condition nodes ever interned and
    /// `hits` the dedup lookups answered by an existing node).
    pub pool: PoolStats,
}

impl QueryStats {
    fn from_phase(stats: &PhaseStats) -> Self {
        QueryStats {
            phase: stats.clone(),
            pool: faure_ctable::pool::pool_stats(),
        }
    }

    /// Relational-phase time ("sql" column), seconds.
    pub fn sql(&self) -> f64 {
        self.phase.relational.as_secs_f64()
    }

    /// Solver-phase time ("Z3" column), seconds.
    pub fn solver(&self) -> f64 {
        self.phase.solver.as_secs_f64()
    }

    /// The fields of this cell group. The `metrics` block is the CLI's
    /// `--metrics` per-database blocks (ops, solver, plan-cache and
    /// pool counters, solve-latency histogram), from the same writer.
    fn write(&self, o: &mut Obj<'_>) {
        let sv = &self.phase.solver_stats;
        o.field("sql", self.sql())
            .field("solver", self.solver())
            .field("prune_wall", self.phase.prune_wall.as_secs_f64())
            .field("tuples", self.phase.tuples)
            .field("memo_hit_rate", format_args!("{:.4}", sv.memo_hit_rate()));
        o.array("delta_sizes", |a| {
            a.items(&self.phase.delta_sizes);
        });
        o.object("metrics", |m| self.phase.write_blocks(m, &self.pool));
    }
}

/// One row of Table 4.
#[derive(Clone, Debug)]
pub struct Table4Row {
    /// Input size (number of prefixes).
    pub prefixes: usize,
    /// RNG seed used for the workload.
    pub seed: u64,
    /// Worker threads the row was evaluated with (1 = serial).
    pub threads: usize,
    /// Worker shards of the partitioned fixpoint (1 = single-space).
    pub shards: usize,
    /// q4–q5 wall-clock (sql+solver) of the serial row divided by this
    /// row's — filled by the `table4` binary when it ran a serial
    /// baseline for the same size, `None` otherwise.
    pub speedup_q45: Option<f64>,
    /// Whether `speedup_q45` is a meaningful signal on this machine:
    /// `false` on single-core runners, where a 1-vs-N comparison
    /// measures scheduler noise, not parallel speedup. The `table4`
    /// binary derives it from the row's recorded `host_cores` field,
    /// so re-reading a dump never re-probes the current machine.
    pub speedup_valid: bool,
    /// Logical cores available to this process
    /// (`std::thread::available_parallelism()`), recorded so a
    /// `speedup_valid`/`speedup_q45` pair can be judged against the
    /// machine that produced it.
    pub host_cores: usize,
    /// q4–q5 prune-phase wall-clock of the serial row divided by this
    /// row's (the solver-phase counterpart of `speedup_q45`) — filled
    /// by the `table4` binary under the same conditions and gated on
    /// `speedup_valid` the same way.
    pub prune_speedup: Option<f64>,
    /// Size of the generated forwarding c-table.
    pub f_tuples: usize,
    /// q4–q5: all-pairs reachability (recursive).
    pub q45: QueryStats,
    /// q6: reachability under 2-link failure.
    pub q6: QueryStats,
    /// q7: point-to-point reachability under ȳ-failure.
    pub q7: QueryStats,
    /// q8: reachability with ≥ 1 of ȳ/z̄ failed.
    pub q8: QueryStats,
    /// Total wall-clock for the row, seconds.
    pub total: f64,
    /// Peak resident set size (`VmHWM` from `/proc/self/status`) in
    /// kB, sampled when the row finished. Process-wide high-water
    /// mark, so within one `table4` run it is monotone across rows;
    /// the first (largest-impact) row per size is the comparable
    /// number. `0` when the kernel interface is unavailable.
    pub peak_rss_kb: u64,
}

impl Table4Row {
    /// JSON object for this row. Tagged `"bench":"table4"` so readers
    /// (and the CI jq asserts) can tell Table 4 rows from churn rows
    /// when both share one array.
    pub fn to_json(&self) -> String {
        let ratio = |v: Option<f64>| v.map_or("null".to_owned(), |v| format!("{v:.3}"));
        json::object(|o| {
            o.field("bench", Str("table4"))
                .field("prefixes", self.prefixes)
                .field("seed", self.seed)
                .field("threads", self.threads)
                .field("shards", self.shards)
                .field("routed_deltas", self.routed_deltas())
                .field("shard_imbalance", ratio(self.shard_imbalance()))
                .field("speedup_q45", ratio(self.speedup_q45))
                .field("speedup_valid", self.speedup_valid)
                .field("host_cores", self.host_cores)
                .field("prune_wall", self.prune_wall())
                .field("prune_speedup", ratio(self.prune_speedup))
                .field("f_tuples", self.f_tuples);
            for (key, q) in [
                ("q45", &self.q45),
                ("q6", &self.q6),
                ("q7", &self.q7),
                ("q8", &self.q8),
            ] {
                o.object(key, |cell| q.write(cell));
            }
            o.field("total", self.total)
                .field("peak_rss_kb", self.peak_rss_kb);
        })
    }

    /// q4–q5 delta rows routed to a non-producing shard (0 for
    /// single-space rows) — the cross-shard communication volume of
    /// the one stage sharding targets (q6–q8 are non-recursive).
    pub fn routed_deltas(&self) -> u64 {
        self.q45.phase.shard.routed_rows
    }

    /// Max/mean per-shard wall ratio of the q4–q5 sharded passes
    /// (`None` for single-space rows): 1.0 is perfect balance.
    pub fn shard_imbalance(&self) -> Option<f64> {
        self.q45.phase.shard.imbalance()
    }

    /// q4–q5 wall-clock (the relational and solver phases together),
    /// seconds — the quantity `speedup_q45` compares across thread
    /// counts.
    pub fn q45_wall(&self) -> f64 {
        self.q45.sql() + self.q45.solver()
    }

    /// q4–q5 prune-phase wall-clock, seconds — the quantity
    /// `prune_speedup` compares across thread counts.
    pub fn prune_wall(&self) -> f64 {
        self.q45.phase.prune_wall.as_secs_f64()
    }
}

/// Harness options.
#[derive(Clone, Copy, Debug)]
pub struct HarnessOptions {
    /// Workload seed.
    pub seed: u64,
    /// Evaluation options (prune policy, fixpoint strategy).
    pub eval: EvalOptions,
}

impl Default for HarnessOptions {
    fn default() -> Self {
        HarnessOptions {
            seed: rib::RibParams::default().seed,
            eval: EvalOptions {
                prune: PrunePolicy::EndOfStratum,
                ..Default::default()
            },
        }
    }
}

/// Builds the workload for `prefixes` prefixes (paper parameters: 5
/// paths per prefix).
pub fn workload(prefixes: usize, seed: u64) -> rib::RibWorkload {
    rib::generate(&rib::RibParams {
        prefixes,
        seed,
        ..Default::default()
    })
}

/// Evaluates the recursive q4–q5 stage over a fresh workload and opens
/// the row with it: q6–q8 zeroed, `total` and `peak_rss_kb` as of the
/// end of this stage. Also hands back the stage's output and the
/// workload's most frequent node pair, which q6–q8 read.
fn q45_stage(
    prefixes: usize,
    opts: &HarnessOptions,
) -> Result<(Table4Row, EvalOutput, (i64, i64)), EvalError> {
    let started = std::time::Instant::now();
    let w = workload(prefixes, opts.seed);
    let f_tuples = w.db.relation("F").map(|r| r.len()).unwrap_or(0);
    let pair = rib::frequent_pair(&w).unwrap_or((0, 1));
    let out_r = evaluate_with(&queries::reachability_program(), &w.db, &opts.eval)?;
    drop(w);
    let row = Table4Row {
        prefixes,
        seed: opts.seed,
        threads: opts.eval.threads,
        shards: opts.eval.shards.max(1),
        speedup_q45: None,
        speedup_valid: false,
        host_cores: host_cores(),
        prune_speedup: None,
        f_tuples,
        q45: QueryStats::from_phase(&out_r.stats),
        q6: QueryStats::default(),
        q7: QueryStats::default(),
        q8: QueryStats::default(),
        total: started.elapsed().as_secs_f64(),
        peak_rss_kb: peak_rss_kb(),
    };
    Ok((row, out_r, pair))
}

/// Runs the full Listing 2 pipeline for one input size and returns the
/// Table 4 row.
pub fn run_table4_row(prefixes: usize, opts: &HarnessOptions) -> Result<Table4Row, EvalError> {
    let started = std::time::Instant::now();
    // q4–q5: recursion over the whole workload. The stage order and
    // explicit drops below keep at most two R-sized databases alive at
    // once — the 100 000-prefix row otherwise exhausts a 16 GB machine.
    let (mut row, mut out_r, pair) = q45_stage(prefixes, opts)?;

    // The downstream queries read only R: strip F and move R into a
    // slim database.
    let mut r_db = faure_ctable::Database::new();
    r_db.cvars = out_r.database.cvars.clone();
    r_db.set_relation(
        out_r
            .database
            .remove_relation("R")
            .expect("q4-q5 derived R"),
    );
    drop(out_r);

    // q8 reads R (run before q6 so only one derived stage is alive).
    let out8 = evaluate_with(&queries::q8_reach_with_failure(pair.0), &r_db, &opts.eval)?;
    row.q8 = QueryStats::from_phase(&out8.stats);
    drop(out8);

    // q6 reads R.
    let mut out6 = evaluate_with(&queries::q6_two_link_failure(), &r_db, &opts.eval)?;
    row.q6 = QueryStats::from_phase(&out6.stats);
    drop(r_db);

    // q7 reads T1 (nested query): strip everything else.
    let mut t1_db = faure_ctable::Database::new();
    t1_db.cvars = out6.database.cvars.clone();
    t1_db.set_relation(out6.database.remove_relation("T1").expect("q6 derived T1"));
    drop(out6);
    let out7 = evaluate_with(
        &queries::q7_pair_under_y_failure(pair.0, pair.1),
        &t1_db,
        &opts.eval,
    )?;
    row.q7 = QueryStats::from_phase(&out7.stats);

    row.total = started.elapsed().as_secs_f64();
    row.peak_rss_kb = peak_rss_kb();
    Ok(row)
}

/// Like [`run_table4_row`] but evaluates only the recursive q4–q5
/// stage, leaving the q6–q8 cells zeroed. This is the path for the
/// paper's largest input (922 067 prefixes): the reachability fixpoint
/// alone derives ~28 M R-tuples, and the downstream q6 filter would
/// materialize another R-sized stage on top — q4–q5-only keeps the
/// peak at one derived database so the row completes (and records
/// `peak_rss_kb`) on hardware that the full row would exhaust.
pub fn run_table4_q45_row(prefixes: usize, opts: &HarnessOptions) -> Result<Table4Row, EvalError> {
    Ok(q45_stage(prefixes, opts)?.0)
}

/// One row of the `churn` benchmark: a standing Table 4 materialization
/// absorbs an announce-heavy stream of single-tuple deltas (~9:1
/// insert:withdraw, the BGP churn shape from ROADMAP item 2), and the
/// mean per-update incremental wall is compared against one full
/// re-evaluation of the final database through the same compiled plans.
#[derive(Clone, Debug)]
pub struct ChurnRow {
    /// Input size (number of prefixes in the standing workload).
    pub prefixes: usize,
    /// RNG seed used for the workload.
    pub seed: u64,
    /// Worker threads (1 = serial).
    pub threads: usize,
    /// Logical cores available to this process, recorded next to
    /// `speedup` so the incremental-vs-reeval ratio can be judged
    /// against the machine that produced it.
    pub host_cores: usize,
    /// Updates applied (each a single-tuple delta).
    pub updates: usize,
    /// How many of them were insertions (route announcements).
    pub inserts: usize,
    /// How many were exact-tuple deletions (withdrawals).
    pub deletes: usize,
    /// Size of the standing forwarding c-table before the stream.
    pub f_tuples: usize,
    /// Derived R tuples after the whole stream.
    pub r_tuples: usize,
    /// Wall-clock of the initial materialization (the batch fixpoint).
    pub materialize_wall_ns: u64,
    /// Sum of per-update apply wall-clocks.
    pub total_update_wall_ns: u64,
    /// Mean per-update apply wall-clock — the headline number.
    pub per_update_wall_ns: u64,
    /// Worst single update.
    pub max_update_wall_ns: u64,
    /// One full re-evaluation of the final database over the same
    /// prepared plans (what every update would cost without
    /// incremental maintenance).
    pub full_reeval_wall_ns: u64,
    /// `full_reeval_wall_ns / per_update_wall_ns`.
    pub speedup: f64,
    /// Derived rows (re)derived across the stream.
    pub rederived: usize,
    /// Derived rows removed during DRed over-deletion.
    pub overdeleted: usize,
}

impl ChurnRow {
    /// JSON object for this row. Tagged `"bench":"churn"` so readers
    /// (and the CI jq asserts) can tell churn rows from Table 4 rows
    /// when both share one array.
    pub fn to_json(&self) -> String {
        json::object(|o| {
            o.field("bench", Str("churn"))
                .field("prefixes", self.prefixes)
                .field("seed", self.seed)
                .field("threads", self.threads)
                .field("host_cores", self.host_cores)
                .field("updates", self.updates)
                .field("inserts", self.inserts)
                .field("deletes", self.deletes)
                .field("f_tuples", self.f_tuples)
                .field("r_tuples", self.r_tuples)
                .field("materialize_wall_ns", self.materialize_wall_ns)
                .field("total_update_wall_ns", self.total_update_wall_ns)
                .field("per_update_wall_ns", self.per_update_wall_ns)
                .field("max_update_wall_ns", self.max_update_wall_ns)
                .field("full_reeval_wall_ns", self.full_reeval_wall_ns)
                .field("speedup", format_args!("{:.2}", self.speedup))
                .field("rederived", self.rederived)
                .field("overdeleted", self.overdeleted);
        })
    }
}

/// Runs the `churn` benchmark for one input size: materialize the
/// reachability fixpoint (q4–q5) over the RIB workload once, stream
/// `updates` single-tuple deltas through
/// [`PreparedProgram::apply`](faure_core::PreparedProgram::apply), then
/// time one full re-evaluation of the final database as the baseline.
///
/// The stream is deterministic in `(seed, updates)`: update `i` is a
/// withdrawal of the `(7i)`-th original forwarding tuple when
/// `i % 10 == 9`, otherwise an announcement extending the `i`-th
/// tuple's path by one hop to a fresh node — so inserts join into the
/// standing reachability relation (recursive rederivation) rather than
/// forming disconnected edges, and deletes exercise the DRed path.
pub fn run_churn_row(
    prefixes: usize,
    updates: usize,
    opts: &HarnessOptions,
) -> Result<ChurnRow, EvalError> {
    let w = workload(prefixes, opts.seed);
    let program = queries::reachability_program();

    // Ground term triples of the standing F table, stream fodder.
    let f_rows: Vec<[i64; 3]> =
        w.db.relation("F")
            .map(|rel| {
                rel.iter()
                    .filter_map(|t| {
                        let mut row = [0i64; 3];
                        for (slot, term) in row.iter_mut().zip(&t.terms) {
                            *slot = term.as_const().and_then(|c| c.as_int())?;
                        }
                        Some(row)
                    })
                    .collect()
            })
            .unwrap_or_default();
    let f_tuples = f_rows.len();
    assert!(f_tuples > 0, "workload generated no ground F tuples");

    let prepared = Engine::with_options(opts.eval).prepare(&program)?;
    let t0 = std::time::Instant::now();
    let mut state = prepared.materialize(&w.db)?;
    let materialize_wall_ns = t0.elapsed().as_nanos() as u64;
    drop(w);

    let (mut inserts, mut deletes) = (0usize, 0usize);
    let (mut total_ns, mut max_ns) = (0u64, 0u64);
    let (mut rederived, mut overdeleted) = (0usize, 0usize);
    for i in 0..updates {
        let mut delta = Delta::new();
        if i % 10 == 9 {
            let [p, a, b] = f_rows[(i * 7) % f_tuples];
            delta.push_delete_exact("F", [Const::Int(p), Const::Int(a), Const::Int(b)]);
            deletes += 1;
        } else {
            let [p, _, b] = f_rows[i % f_tuples];
            delta.push_insert_fact(
                "F",
                [Const::Int(p), Const::Int(b), Const::Int(600_000 + i as i64)],
            );
            inserts += 1;
        }
        let report = prepared.apply(&mut state, delta)?;
        let ns = report.wall.as_nanos() as u64;
        total_ns += ns;
        max_ns = max_ns.max(ns);
        rederived += report.rederived;
        overdeleted += report.overdeleted;
    }

    // Baseline: one full batch re-evaluation of the final database,
    // through the same prepared plans (prepare cost excluded — this is
    // what a non-incremental engine would pay per update).
    let mut final_db = faure_ctable::Database::new();
    final_db.cvars = state.database().cvars.clone();
    final_db.set_relation(state.relation("F").expect("F is maintained"));
    let t1 = std::time::Instant::now();
    let out = prepared.run(&final_db)?;
    let full_reeval_wall_ns = t1.elapsed().as_nanos() as u64;
    let r_tuples = out.database.relation("R").map(|r| r.len()).unwrap_or(0);

    let per_update_wall_ns = total_ns / updates.max(1) as u64;
    Ok(ChurnRow {
        prefixes,
        seed: opts.seed,
        threads: opts.eval.threads,
        host_cores: host_cores(),
        updates,
        inserts,
        deletes,
        f_tuples,
        r_tuples,
        materialize_wall_ns,
        total_update_wall_ns: total_ns,
        per_update_wall_ns,
        max_update_wall_ns: max_ns,
        full_reeval_wall_ns,
        speedup: full_reeval_wall_ns as f64 / per_update_wall_ns.max(1) as f64,
        rederived,
        overdeleted,
    })
}

/// JSON array over pre-encoded row objects, one per line (the `--json`
/// dump format of the `table4` binary) — lets it mix [`Table4Row`] and
/// [`ChurnRow`] dumps in one file.
pub fn mixed_rows_to_json(rows: &[String]) -> String {
    let body: Vec<String> = rows.iter().map(|r| format!("  {r}")).collect();
    format!("[\n{}\n]\n", body.join(",\n"))
}

fn fmt_secs(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.2}")
    } else if s >= 1e-3 {
        format!("{:.2}m", s * 1e3)
    } else {
        format!("{:.0}u", s * 1e6)
    }
}

/// Prints rows in the paper's Table 4 layout.
pub fn print_table(rows: &[Table4Row]) {
    println!(
        "{:>9} | {:>8} | {:>8} {:>8} {:>9} | {:>8} {:>8} {:>7} | {:>8} {:>8} {:>8}",
        "", "q4-q5", "q6", "", "", "q7", "", "", "q8", "", ""
    );
    println!(
        "{:>9} | {:>8} | {:>8} {:>8} {:>9} | {:>8} {:>8} {:>7} | {:>8} {:>8} {:>8}",
        "#prefix",
        "sql+slv",
        "sql",
        "solver",
        "#tuples",
        "sql",
        "solver",
        "#tuples",
        "sql",
        "solver",
        "#tuples"
    );
    for r in rows {
        println!(
            "{:>9} | {:>8} | {:>8} {:>8} {:>9} | {:>8} {:>8} {:>7} | {:>8} {:>8} {:>8}",
            r.prefixes,
            fmt_secs(r.q45_wall()),
            fmt_secs(r.q6.sql()),
            fmt_secs(r.q6.solver()),
            r.q6.phase.tuples,
            fmt_secs(r.q7.sql()),
            fmt_secs(r.q7.solver()),
            r.q7.phase.tuples,
            fmt_secs(r.q8.sql()),
            fmt_secs(r.q8.solver()),
            r.q8.phase.tuples,
        );
    }
}

/// Logical cores available to this process — the `host_cores` column
/// every benchmark row carries next to its speedup figures.
pub fn host_cores() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Peak resident set size of this process in kB (`VmHWM` from
/// `/proc/self/status`), or 0 when the interface is unavailable
/// (non-Linux hosts, restricted /proc). Delegates to the shared
/// `/proc/self/status` reader in `faure-trace`.
pub fn peak_rss_kb() -> u64 {
    faure_trace::telemetry::peak_rss_kb().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_small_row_runs() {
        let row = run_table4_row(
            25,
            &HarnessOptions {
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(row.prefixes, 25);
        assert!(row.f_tuples > 0);
        assert!(row.q45.phase.tuples >= row.f_tuples);
        assert!(row.total > 0.0);
        // q6 filters R: never more tuples than R.
        assert!(row.q6.phase.tuples <= row.q45.phase.tuples);
        // The recursive q4-q5 stage iterates: its convergence profile
        // must be present and strictly decreasing after the seed pass.
        assert!(
            row.q45.phase.delta_sizes.len() >= 2,
            "{:?}",
            row.q45.phase.delta_sizes
        );
        assert!((0.0..=1.0).contains(&row.q45.phase.solver_stats.memo_hit_rate()));
    }

    #[test]
    fn rows_serialize_to_json() {
        // Pin threads/shards so the assertions hold under FAURE_THREADS
        // and FAURE_SHARDS.
        let mut opts = HarnessOptions::default();
        opts.eval.threads = 1;
        opts.eval.shards = 1;
        let mut row = run_table4_row(10, &opts).unwrap();
        let json = mixed_rows_to_json(&[row.to_json()]);
        assert!(json.contains("\"bench\":\"table4\""));
        assert!(json.contains("\"prefixes\":10"));
        assert!(json.contains("\"threads\":1"));
        assert!(json.contains("\"shards\":1"));
        assert!(json.contains("\"routed_deltas\":0"));
        assert!(json.contains("\"shard_imbalance\":null"));
        assert!(json.contains("\"speedup_q45\":null"));
        assert!(json.contains("\"speedup_valid\":false"));
        assert!(json.contains("\"host_cores\":"));
        assert!(row.host_cores >= 1);
        assert!(json.contains("\"prune_wall\":"));
        assert!(json.contains("\"prune_speedup\":null"));
        assert!(json.contains("\"q6\""));
        assert!(json.contains("\"memo_hit_rate\""));
        assert!(json.contains("\"delta_sizes\":["));
        // The aggregated-metrics block mirrors the CLI --metrics schema.
        assert!(json.contains("\"metrics\":{\"ops\":{\"probes\":"));
        assert!(json.contains("\"solver\":{\"sat_calls\":"));
        assert!(json.contains("\"latency_ns\":["));
        assert!(json.contains("\"plan_cache\":{\"hits\":"));
        // The condition-pool block: q4-q5 interned at least the
        // pinned True/False nodes, so size is non-zero.
        assert!(json.contains("\"pool\":{\"pool_hits\":"));
        assert!(json.contains("\"pool_size\":"));
        assert!(row.q45.pool.size >= 2);
        // Peak RSS comes from /proc (always present on the Linux CI
        // hosts this suite runs on).
        assert!(json.contains("\"peak_rss_kb\":"));
        assert!(row.peak_rss_kb > 0);
        assert!(json.trim_start().starts_with('[') && json.trim_end().ends_with(']'));
        row.speedup_q45 = Some(1.5);
        row.speedup_valid = true;
        row.prune_speedup = Some(2.0);
        assert!(row.to_json().contains("\"speedup_q45\":1.500"));
        assert!(row.to_json().contains("\"speedup_valid\":true"));
        assert!(row.to_json().contains("\"prune_speedup\":2.000"));
    }

    #[test]
    fn parallel_row_matches_serial_tuples() {
        let mut serial_opts = HarnessOptions::default();
        serial_opts.eval.threads = 1;
        let serial = run_table4_row(10, &serial_opts).unwrap();
        let mut opts = HarnessOptions::default();
        opts.eval.threads = 4;
        let parallel = run_table4_row(10, &opts).unwrap();
        assert_eq!(parallel.threads, 4);
        assert_eq!(serial.q45.phase.tuples, parallel.q45.phase.tuples);
        assert_eq!(serial.q6.phase.tuples, parallel.q6.phase.tuples);
        assert_eq!(serial.q7.phase.tuples, parallel.q7.phase.tuples);
        assert_eq!(serial.q8.phase.tuples, parallel.q8.phase.tuples);
        assert_eq!(serial.q45.phase.delta_sizes, parallel.q45.phase.delta_sizes);
    }

    #[test]
    fn sharded_row_matches_serial_tuples() {
        let mut serial_opts = HarnessOptions::default();
        serial_opts.eval.threads = 1;
        serial_opts.eval.shards = 1;
        let serial = run_table4_row(10, &serial_opts).unwrap();
        let mut opts = HarnessOptions::default();
        opts.eval.threads = 1;
        opts.eval.shards = 4;
        let sharded = run_table4_row(10, &opts).unwrap();
        assert_eq!(sharded.shards, 4);
        assert_eq!(serial.q45.phase.tuples, sharded.q45.phase.tuples);
        assert_eq!(serial.q6.phase.tuples, sharded.q6.phase.tuples);
        assert_eq!(serial.q7.phase.tuples, sharded.q7.phase.tuples);
        assert_eq!(serial.q8.phase.tuples, sharded.q8.phase.tuples);
        // The recursive stage exchanged rows across shards and its
        // balance figure is recorded for the JSON dump.
        assert!(sharded.routed_deltas() > 0, "{sharded:?}");
        assert!(sharded.shard_imbalance().is_some(), "{sharded:?}");
        let json = sharded.to_json();
        assert!(json.contains("\"shards\":4"), "{json}");
        assert!(json.contains("\"routed_deltas\":"), "{json}");
        assert!(!json.contains("\"shard_imbalance\":null"), "{json}");
    }

    #[test]
    fn churn_row_runs_and_serializes() {
        let mut opts = HarnessOptions::default();
        opts.eval.threads = 1;
        let row = run_churn_row(10, 30, &opts).unwrap();
        assert_eq!(row.updates, 30);
        assert_eq!(row.inserts, 27);
        assert_eq!(row.deletes, 3);
        assert!(row.f_tuples > 0);
        assert!(row.r_tuples > 0);
        assert!(row.per_update_wall_ns > 0);
        assert!(row.max_update_wall_ns >= row.per_update_wall_ns);
        assert!(row.full_reeval_wall_ns > 0);
        // The announcements extend standing paths, so propagation must
        // actually derive new reachability rows.
        assert!(row.rederived > 0, "{row:?}");
        // Withdrawals of ground tuples must exercise DRed.
        assert!(row.overdeleted > 0, "{row:?}");
        assert!(row.host_cores >= 1);
        let json = row.to_json();
        for key in [
            "\"bench\":\"churn\"",
            "\"prefixes\":10",
            "\"host_cores\":",
            "\"updates\":30",
            "\"per_update_wall_ns\":",
            "\"full_reeval_wall_ns\":",
            "\"speedup\":",
            "\"materialize_wall_ns\":",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        let mixed = mixed_rows_to_json(&[json]);
        assert!(mixed.trim_start().starts_with('['));
    }

    #[test]
    fn churn_final_state_matches_full_reeval_tuples() {
        // The r_tuples field comes from the full re-evaluation of the
        // final database; the maintained state must agree. Re-run the
        // small stream by hand and compare counts.
        let mut opts = HarnessOptions::default();
        opts.eval.threads = 1;
        let w = workload(10, opts.seed);
        let program = queries::reachability_program();
        let prepared = Engine::with_options(opts.eval).prepare(&program).unwrap();
        let mut state = prepared.materialize(&w.db).unwrap();
        let f_rows: Vec<Vec<faure_ctable::Term>> =
            w.db.relation("F")
                .unwrap()
                .iter()
                .map(|t| t.terms.clone())
                .collect();
        for i in 0..30usize {
            let mut delta = Delta::new();
            if i % 10 == 9 {
                let row = &f_rows[(i * 7) % f_rows.len()];
                delta.push_delete_exact(
                    "F",
                    row.iter()
                        .map(|t| t.as_const().unwrap().clone())
                        .collect::<Vec<_>>(),
                );
            } else {
                let row = &f_rows[i % f_rows.len()];
                let p = row[0].as_const().unwrap().as_int().unwrap();
                let b = row[2].as_const().unwrap().as_int().unwrap();
                delta.push_insert_fact(
                    "F",
                    [Const::Int(p), Const::Int(b), Const::Int(600_000 + i as i64)],
                );
            }
            prepared.apply(&mut state, delta).unwrap();
        }
        let mut final_db = faure_ctable::Database::new();
        final_db.cvars = state.database().cvars.clone();
        final_db.set_relation(state.relation("F").unwrap());
        let out = prepared.run(&final_db).unwrap();
        assert_eq!(
            state.relation("R").unwrap().len(),
            out.database.relation("R").unwrap().len()
        );
    }

    #[test]
    fn print_table_does_not_panic() {
        let row = run_table4_row(10, &HarnessOptions::default()).unwrap();
        print_table(&[row]);
    }
}
