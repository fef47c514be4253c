//! What a probe examines.
//!
//! The join looks each key up in an index over exactly the columns it
//! binds — the table's dedup index when it binds them all — and scans
//! only an iteration delta or a literal that binds nothing. On the
//! Table 4 reachability query over a RIB, whose cells are constants,
//! every row a probe examines is therefore a match: serially, with
//! worker threads, and with a partitioned delta. (Before indexes
//! followed plans, a probe filtered the shortest single-column posting
//! list: on `reach_deep` 6 552 236 rows examined for 337 620 matches.)

use faure_core::{Engine, EvalOptions};
use faure_net::{queries, rib};

#[test]
fn every_row_a_probe_examines_matches() {
    // The benchmark's smoke sizes: `reach_batch` and `reach_deep`.
    for path_len in [3, 6] {
        let w = rib::generate(&rib::RibParams {
            prefixes: 30,
            paths_per_prefix: 5,
            as_count: 128,
            path_len,
            seed: 20210610,
        });
        for (threads, shards) in [(1, 1), (2, 1), (1, 2)] {
            let opts = EvalOptions {
                threads,
                shards,
                ..EvalOptions::default()
            };
            let out = Engine::with_options(opts)
                .prepare(&queries::reachability_program())
                .unwrap()
                .run(&w.db)
                .unwrap();
            let ops = &out.stats.ops;
            assert!(ops.rows_matched > 1_000, "a real run: {ops:?}");
            assert_eq!(
                ops.rows_examined, ops.rows_matched,
                "path length {path_len}, threads {threads}, shards {shards}"
            );
        }
    }
}
