//! How often one evaluation goes to the condition pool.
//!
//! A row's condition stays a `CondId` from the table it is read from to
//! the table it is inserted into; trees are interned only where one is
//! born (a new conjunction at a join leaf, a merged disjunction, the
//! load of the input). This pins the consequence: the dedup lookups of
//! `pool::intern` per derived tuple of the Table 4 reachability query
//! stay in single digits. Before conditions stayed interned the same
//! run made 36 per tuple — every derivation, insert, delta write and
//! prune re-interned its tree node by node.
//!
//! The pool counters are process-global, so this is the only test of
//! its binary: nothing else moves them while it measures.

use faure_core::{Engine, EvalOptions, PrunePolicy};
use faure_ctable::pool::{pool_stats, pool_stats_since};
use faure_net::{queries, rib};

#[test]
fn pool_lookups_per_derived_tuple_stay_in_single_digits() {
    let workload = rib::generate(&rib::RibParams {
        prefixes: 300,
        paths_per_prefix: 5,
        as_count: 256,
        path_len: 3,
        seed: 20210610,
    });
    let opts = EvalOptions {
        prune: PrunePolicy::EndOfStratum,
        semi_naive: true,
        max_iterations: 100_000,
        threads: 1,
        shards: 1,
    };
    let prepared = Engine::with_options(opts)
        .prepare(&queries::reachability_program())
        .unwrap();
    // Cold (every condition new to the pool), then warm.
    for (run, budget) in [("cold", 8.0), ("warm", 6.0)] {
        let before = pool_stats();
        let out = prepared.run(&workload.db).unwrap();
        let traffic = pool_stats_since(&before);
        let per_tuple = (traffic.hits + traffic.misses) as f64 / out.stats.tuples as f64;
        // Shown under `--nocapture`, for EXPERIMENTS.md.
        println!(
            "{run}: {per_tuple:.2} pool lookups per derived tuple ({} tuples)",
            out.stats.tuples
        );
        assert!(out.stats.tuples > 5_000, "a real run: {}", out.stats.tuples);
        assert!(
            per_tuple <= budget,
            "{per_tuple:.2} pool lookups per derived tuple (budget {budget})"
        );
    }
}
