//! Per-layer replays (source **P**): each times one layer's own public
//! function on data captured from the workload's output. From outside
//! the program this is the only way to price a probe, an insert or a
//! memo hit on the rows and conditions the workload really produced.
//! Runs in the traced pass only, after every end-to-end number is taken.

use crate::check::SplitMix64;
use crate::run::{rss_kb, Metrics};
use faure_ctable::{pool, CVarId, CVarRegistry, Condition, Relation, Term};
use faure_solver::Session;
use faure_storage::dnf::{to_min_dnf, DEFAULT_SET_BUDGET};
use faure_storage::exec::{probe, CondAcc, OpStats};
use faure_storage::shard::route_term;
use faure_storage::{Pattern, PreparedRow, Table};
use std::collections::BTreeSet;
use std::hint::black_box;
use std::sync::atomic::{AtomicI64, Ordering};
use std::time::Instant;

/// Next constant for a condition the pool has never seen.
static NOVEL_CONSTANT: AtomicI64 = AtomicI64::new(7_000_000_000);

/// Wall of `f` in nanoseconds, divided by `per`.
fn ns_per(per: usize, f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_nanos() as f64 / per.max(1) as f64
}

/// Replays the storage, pool, solver and routing functions on `rel`
/// (the workload's largest derived relation). `samples` bounds the
/// sampled loops, `max_rows` the per-row ones.
pub fn storage_layers(
    m: &mut Metrics,
    rel: &Relation,
    reg: &CVarRegistry,
    rng: &mut SplitMix64,
    samples: usize,
    max_rows: usize,
) {
    if rel.is_empty() {
        return;
    }
    let rows = rel.len();

    // storage::table — load, with the resident-set growth it causes.
    let rss_before = rss_kb();
    let t = Instant::now();
    let table = Table::from_relation(rel);
    m.set(
        "table.load_ns_per_row",
        t.elapsed().as_nanos() as f64 / rows as f64,
    );
    let rss_after = rss_kb();
    m.set(
        "table.bytes_per_row",
        rss_after.saturating_sub(rss_before) as f64 * 1024.0 / table.len().max(1) as f64,
    );

    // storage::exec — the recursive rule's lookup `R(f, n3, _)`: two
    // bound columns taken from sampled rows of the table itself.
    let sampled: Vec<usize> = (0..samples).map(|_| rng.below(rows)).collect();
    let keys: Vec<[Pattern; 3]> = sampled
        .iter()
        .filter(|&&i| rel.tuples[i].terms.len() == 3)
        .map(|&i| {
            let t = &rel.tuples[i].terms;
            [
                Pattern::Exact(t[0].clone()),
                Pattern::Exact(t[1].clone()),
                Pattern::Any,
            ]
        })
        .collect();
    if !keys.is_empty() && table.schema.arity() == 3 {
        let mut ops = OpStats::default();
        let t = Instant::now();
        for pats in &keys {
            black_box(probe(&table, reg, black_box(pats), &mut ops));
        }
        let total = t.elapsed().as_nanos() as f64;
        m.set("exec.probe_ns", total / keys.len() as f64);
        m.set(
            "exec.probe_ns_per_row",
            total / ops.rows_matched.max(1) as f64,
        );
    }

    // storage::exec — the conjoining join's leaf: two row conditions
    // pushed, one conjunction materialised.
    let conds: Vec<&Condition> = sampled.iter().map(|&i| &rel.tuples[i].cond).collect();
    let mut ops = OpStats::default();
    let mut acc = CondAcc::new();
    m.set(
        "exec.condacc_ns",
        ns_per(conds.len(), || {
            for pair in conds.windows(2) {
                let mark = acc.mark();
                acc.push(pair[0].clone(), &mut ops);
                acc.push(pair[1].clone(), &mut ops);
                black_box(acc.materialize());
                acc.truncate(mark);
            }
        }),
    );

    // storage::dnf — over the distinct conditions of the output.
    let distinct: Vec<&Condition> = rel
        .iter()
        .map(|t| &t.cond)
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    let (mut disjuncts, mut over_budget) = (0usize, 0usize);
    m.set(
        "dnf.to_min_dnf_ns",
        ns_per(distinct.len(), || {
            for c in &distinct {
                match black_box(to_min_dnf(c, DEFAULT_SET_BUDGET)) {
                    Some(sets) => disjuncts += sets.len(),
                    None => over_budget += 1,
                }
            }
        }),
    );
    m.set(
        "dnf.disjuncts_mean",
        disjuncts as f64 / (distinct.len() - over_budget).max(1) as f64,
    );
    m.set("dnf.over_budget", over_budget as f64);

    // storage::table — insert (fresh rows, then the same rows again),
    // partition absorb, prune and export, on the first `max_rows` rows.
    let prepared: Vec<PreparedRow> = rel
        .iter()
        .take(max_rows)
        .cloned()
        .map(PreparedRow::new)
        .collect();
    let n = prepared.len();
    let mut fresh = Table::new(rel.schema.clone());
    m.set(
        "table.insert_new_ns_per_row",
        ns_per(n, || {
            for row in &prepared {
                black_box(fresh.insert_prepared(row)).expect("arity of the source relation");
            }
        }),
    );
    m.set(
        "table.insert_dup_ns_per_row",
        ns_per(n, || {
            for row in &prepared {
                black_box(fresh.insert_prepared(row)).expect("arity of the source relation");
            }
        }),
    );
    let mut absorbed = Table::new(rel.schema.clone());
    let partitions = vec![prepared.clone()];
    m.set(
        "table.absorb_ns_per_row",
        ns_per(n, || {
            absorbed
                .absorb_partitions(partitions, |row| {
                    black_box(row);
                })
                .expect("arity of the source relation");
        }),
    );
    drop(absorbed);
    let mut session = Session::new();
    m.set(
        "table.prune_ns_per_row",
        ns_per(fresh.len(), || {
            black_box(fresh.prune(reg, &mut session)).expect("conditions the engine accepted");
        }),
    );
    let kept = fresh.len();
    m.set(
        "table.export_ns_per_row",
        ns_per(kept, || {
            black_box(fresh.into_relation());
        }),
    );

    // ctable::pool — hit: conditions the run interned; miss: atoms over
    // constants no workload uses, unique within this process.
    let ids: Vec<pool::CondId> = conds.iter().map(|c| pool::intern(c)).collect();
    m.set(
        "pool.intern_hit_ns",
        ns_per(conds.len(), || {
            for c in &conds {
                black_box(pool::intern(c));
            }
        }),
    );
    let first_novel = NOVEL_CONSTANT.fetch_add(samples as i64, Ordering::Relaxed);
    let novel: Vec<Condition> = (0..samples as i64)
        .map(|i| Condition::eq(Term::Var(CVarId(0)), Term::int(first_novel + i)))
        .collect();
    m.set(
        "pool.intern_miss_ns",
        ns_per(novel.len(), || {
            for c in &novel {
                black_box(pool::intern(c));
            }
        }),
    );
    m.set(
        "pool.conj_ns",
        ns_per(ids.len(), || {
            for pair in ids.windows(2) {
                black_box(pool::conj(pair[0], pair[1]));
            }
        }),
    );
    m.set(
        "pool.resolve_ns",
        ns_per(ids.len(), || {
            for id in &ids {
                black_box(pool::resolve(*id));
            }
        }),
    );

    // solver — a fresh session, so the first pass over the sampled
    // distinct conditions misses its memo and the second hits it.
    let solved: Vec<&Condition> = distinct.iter().take(samples).copied().collect();
    let mut session = Session::new();
    let sat_pass = |session: &mut Session| {
        ns_per(solved.len(), || {
            for c in &solved {
                black_box(session.satisfiable(reg, c)).expect("conditions the engine accepted");
            }
        })
    };
    m.set("solver.sat_miss_ns", sat_pass(&mut session));
    m.set("solver.sat_hit_ns", sat_pass(&mut session));
    let mut session = Session::new();
    m.set(
        "solver.simplify_ns",
        ns_per(solved.len(), || {
            for c in &solved {
                black_box(session.simplify_pruned(reg, c)).expect("conditions the engine accepted");
            }
        }),
    );

    // storage::shard — routing the partition-key cell of sampled rows.
    let terms: Vec<&Term> = sampled.iter().map(|&i| &rel.tuples[i].terms[0]).collect();
    m.set(
        "shard.route_ns",
        ns_per(terms.len(), || {
            for t in &terms {
                black_box(route_term(t, 2));
            }
        }),
    );
}
