//! End-to-end tests: every workload driven in-process at the smoke
//! sizes, through the same code the measured sizes run.

use super::*;
use std::collections::BTreeSet;

fn smoke(trace: bool) -> RunConfig {
    RunConfig {
        seed: DEFAULT_SEED,
        seconds: 0.05,
        trace,
        sizes: Sizes::SMOKE,
    }
}

fn run_smoke(name: &str, trace: bool) -> RunOutput {
    let out = run_workload(name, &smoke(trace)).expect("the workload runs");
    assert!(out.correct(), "{name}: {:?}", out.problems);
    assert!(out.attempted >= 1 && out.failed == 0);
    out
}

fn names(m: &run::Metrics) -> BTreeSet<&'static str> {
    m.iter().map(|(name, _)| name).collect()
}

#[test]
fn every_workload_reports_exactly_the_catalogue() {
    let end_to_end: BTreeSet<&str> = END_TO_END.iter().map(|e| e.name).collect();
    let per_layer: BTreeSet<&str> = PER_LAYER.iter().map(|l| l.name).collect();
    let exact: BTreeSet<&str> = PER_LAYER
        .iter()
        .filter(|l| l.exact)
        .map(|l| l.name)
        .collect();

    for w in WORKLOADS {
        let plain = run_smoke(w.name, false);
        let traced = run_smoke(w.name, true);

        // Untraced: every end-to-end metric, none of them zero, and of
        // the per-layer metrics only exact counts.
        assert_eq!(names(&plain.end_to_end), end_to_end, "{}", w.name);
        for (name, value) in plain.end_to_end.iter() {
            assert!(
                value > 0.0 && value.is_finite(),
                "{}: {name} = {value}",
                w.name
            );
        }
        assert!(names(&plain.per_layer).is_subset(&exact), "{}", w.name);
        assert!(plain.events.is_empty());

        // Traced: every per-layer metric, nothing unlisted.
        assert_eq!(names(&traced.per_layer), per_layer, "{}", w.name);
        assert!(!traced.events.is_empty(), "{}", w.name);
        for (name, value) in traced.per_layer.iter() {
            assert!(value.is_finite(), "{}: {name} = {value}", w.name);
        }

        // Exact counts agree between the two passes.
        for (name, value) in plain.per_layer.iter() {
            assert_eq!(
                traced.per_layer.get(name),
                Some(value),
                "{}: {name}",
                w.name
            );
        }

        // The last line names each metric of its kind exactly once.
        for (out, is_traced, expected) in
            [(&plain, false, &end_to_end), (&traced, true, &per_layer)]
        {
            let line = result_line(out, is_traced);
            assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
            for name in expected {
                assert_eq!(
                    line.matches(&format!("\"{name}\": {{")).count(),
                    1,
                    "{name}"
                );
            }
            assert_eq!(line.matches("\"unit\"").count(), expected.len());
            assert!(!line.contains('\n'));
        }

        // Every value survives the flat record format.
        for record in records(w.name, 3, &traced) {
            assert_eq!(Record::from_line(&record.to_line()), Some(record));
        }
    }
}

#[test]
fn workloads_exercise_the_layers_they_exist_for() {
    let value = |out: &RunOutput, name: &str| out.per_layer.get(name).expect("traced run");
    let batch = run_smoke(REACH_BATCH, true);
    let deep = run_smoke(REACH_DEEP, true);
    let sharded = run_smoke(REACH_SHARDED, true);
    let filters = run_smoke(FAILURE_FILTERS, true);
    let churn = run_smoke(CHURN_STREAM, true);
    let ladder = run_smoke(VERIFY_LADDER, true);

    // One fixpoint with or without routing.
    assert_eq!(
        value(&batch, "out.digest32"),
        value(&sharded, "out.digest32")
    );
    assert_eq!(
        value(&batch, "engine.derived_tuples"),
        value(&sharded, "engine.derived_tuples")
    );
    // Only the sharded workload routes rows.
    assert!(value(&sharded, "shard.passes") > 0.0 && value(&sharded, "shard.routed_rows") > 0.0);
    assert_eq!(value(&batch, "shard.passes"), 0.0);
    // Deep recursion iterates more on fewer prefixes.
    assert!(value(&deep, "engine.iterations") > value(&batch, "engine.iterations"));
    // The filters are one non-recursive pass.
    assert_eq!(value(&filters, "engine.iterations"), 1.0);
    // Churn maintains; the others never enter maintenance.
    assert!(value(&churn, "maintain.insert_p50_ms") > 0.0);
    assert!(value(&churn, "maintain.rederived_per_insert") > 0.0);
    assert_eq!(value(&batch, "maintain.insert_p50_ms"), 0.0);
    // The ladder verifies and never runs a RIB fixpoint.
    assert!(value(&ladder, "verify.category_ii_us") > 0.0);
    assert_eq!(value(&ladder, "engine.derived_tuples"), 0.0);
    // Spans nest: attributed plus unattributed is the whole run.
    for out in [&batch, &deep, &sharded, &filters, &churn] {
        let share = value(out, "engine.unattributed_share");
        assert!((0.0..=1.0).contains(&share), "unattributed share {share}");
    }
}

#[test]
fn a_wrong_answer_fails_the_reference_check() {
    use faure_net::{queries, rib};
    let w = rib::generate(&rib::RibParams {
        prefixes: 6,
        paths_per_prefix: 5,
        as_count: 64,
        path_len: 3,
        seed: 7,
    });
    let program = queries::reachability_program();
    let out = api::prepare(
        &program,
        api::options(1, 1),
        &faure_trace::Tracer::disabled(),
    )
    .and_then(|p| p.run(&w.db))
    .expect("evaluation succeeds");
    let prefixes: Vec<usize> = (0..6).collect();
    let check = |db| check::reference_check(&w.db, w.monitored, &program, db, &["R"], &prefixes);
    // 7 c-variables per prefix: 128 worlds each.
    assert_eq!(check(&out.database), Ok(6 * 128));

    // Drop one derived row: some world now misses a reachable pair.
    let mut missing = out.database.clone();
    missing.relation_mut("R").expect("derived").tuples.pop();
    assert!(check(&missing).is_err());

    // Make a conditional row unconditional: some world gains a pair.
    let mut extra = out.database.clone();
    let r = extra.relation_mut("R").expect("derived");
    let conditional = r
        .tuples
        .iter_mut()
        .find(|t| t.cond != faure_ctable::Condition::True)
        .expect("the RIB is conditional");
    conditional.cond = faure_ctable::Condition::True;
    assert!(check(&extra).is_err());
}

#[test]
fn arguments_parse_as_the_driver_sends_them() {
    let raw: Vec<String> = "--workload reach_deep --seed 42 --seconds 3 --trace 1"
        .split(' ')
        .map(str::to_owned)
        .collect();
    let args = parse_args(&raw).expect("well-formed");
    let cfg = args.config().expect("in range");
    assert_eq!(
        args.flags.get("--workload").map(String::as_str),
        Some(REACH_DEEP)
    );
    assert_eq!((cfg.seed, cfg.seconds, cfg.trace), (42, 3.0, true));
    assert_eq!(cfg.sizes.batch_prefixes, Sizes::MEASURED.batch_prefixes);

    let defaults = parse_args(&[])
        .expect("empty is the whole set")
        .config()
        .expect("defaults");
    assert_eq!(defaults.seed, DEFAULT_SEED);
    assert_eq!(defaults.seconds, RUN_SECONDS as f64);
    assert!(!defaults.trace);

    let bad = |text: &str| {
        let raw: Vec<String> = text.split(' ').map(str::to_owned).collect();
        parse_args(&raw)
            .and_then(|a| a.config().map(|_| ()))
            .is_err()
    };
    assert!(bad("--seed"));
    assert!(bad("--seed x"));
    assert!(bad("--trace 2"));
    assert!(bad("--seconds 0"));
    assert!(bad("stray"));
    assert!(bad("--compare only-one"));
}
