//! The four batch-query workloads over the generated RIB:
//! `reach_batch`, `reach_deep`, `reach_sharded`, `failure_filters`.
//! One operation is `prepare` + `run` of the workload's program: the
//! time-to-answer of a batch query at the stated size.

use crate::api::{self, EvalError, EvalOptions, EvalOutput, Program};
use crate::check::{self, SplitMix64, SAMPLED_PREFIXES};
use crate::layers::{self, ExactCounts};
use crate::replay;
use crate::run::{
    self, end_to_end, fill_missing_layers, op_context, peak_rss_kb, repeat_setup, spanned, Loop,
    Metrics, RunConfig, RunOutput, Tracing,
};
use crate::stats;
use faure_ctable::pool::pool_stats;
use faure_ctable::{Database, Relation};
use faure_net::{queries, rib};
use faure_trace::Tracer;
use std::time::Instant;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    ReachBatch,
    ReachDeep,
    ReachSharded,
    FailureFilters,
}

/// A workload's inputs at its measured start state.
struct Case {
    /// The generated forwarding table `F` and its monitored variables.
    rib: rib::RibWorkload,
    /// `failure_filters` only: `R` alone, derived from `rib` in set-up.
    slim: Option<Database>,
    /// What one operation prepares and runs.
    program: Program,
    /// Derives the checked predicates from `F` alone, for the reference.
    reference: Program,
    /// Predicates the operation derives, largest first.
    preds: &'static [&'static str],
    opts: EvalOptions,
    prefixes: usize,
    generate_s: f64,
    parse_s: f64,
}

impl Case {
    fn input(&self) -> &Database {
        self.slim.as_ref().unwrap_or(&self.rib.db)
    }
}

fn setup(cfg: &RunConfig, kind: Kind, tracer: &Tracer) -> Result<Case, EvalError> {
    let sizes = &cfg.sizes;
    let (prefixes, path_len) = match kind {
        Kind::ReachDeep => (sizes.deep_prefixes, sizes.deep_path_len),
        _ => (sizes.batch_prefixes, 3),
    };
    let (rib, generate_s) = spanned(tracer, "generate", 0, || {
        rib::generate(&rib::RibParams {
            prefixes,
            paths_per_prefix: 5,
            as_count: sizes.as_count,
            path_len,
            seed: cfg.seed,
        })
    });
    let serial = api::options(1, 1);
    let opts = match kind {
        Kind::ReachSharded => api::options(2, 2),
        _ => serial,
    };
    if kind != Kind::FailureFilters {
        let (program, parse_s) = spanned(tracer, "parse", 0, queries::reachability_program);
        return Ok(Case {
            rib,
            slim: None,
            reference: program.clone(),
            program,
            preds: &["R"],
            opts,
            prefixes,
            generate_s,
            parse_s,
        });
    }

    let pair = rib::frequent_pair(&rib).unwrap_or((0, 1));
    let ((program, reference), parse_s) = spanned(tracer, "parse", 0, || {
        let mut filters = queries::q6_two_link_failure();
        filters.extend(queries::q7_pair_under_y_failure(pair.0, pair.1));
        filters.extend(queries::q8_reach_with_failure(pair.0));
        (filters, queries::listing2_program(pair.0, pair.1, pair.0))
    });
    // The filters read only R: derive it and move it, alone, into a
    // slim database, as the Table 4 pipeline does between its stages.
    let (derived, _) = spanned(tracer, "derive-input", 0, || {
        api::prepare(
            &queries::reachability_program(),
            serial,
            &Tracer::disabled(),
        )?
        .run(&rib.db)
    });
    let mut derived = derived?;
    let mut slim = Database::new();
    slim.cvars = derived.database.cvars.clone();
    slim.set_relation(
        derived
            .database
            .remove_relation("R")
            .expect("the reachability program derives R"),
    );
    Ok(Case {
        rib,
        slim: Some(slim),
        program,
        reference,
        preds: &["T1", "T3", "T2"],
        opts,
        prefixes,
        generate_s,
        parse_s,
    })
}

fn derived_relations<'a>(out: &'a EvalOutput, preds: &[&str]) -> Vec<&'a Relation> {
    preds.iter().filter_map(|p| out.relation(p)).collect()
}

/// One run of one batch-query workload.
pub fn run(cfg: &RunConfig, kind: Kind) -> Result<RunOutput, EvalError> {
    let tracing = Tracing::new(cfg.trace);
    let (setup_s, case) = repeat_setup(|| setup(cfg, kind, &tracing.tracer));
    let case = case?;
    let input = case.input();

    let mut l = Loop::default();
    let mut first: Option<ExactCounts> = None;
    let mut prepare_s = Vec::new();
    let mut run_s = Vec::new();
    let mut last: Option<EvalOutput> = None;
    let mut pool_before;
    let started = Instant::now();
    loop {
        // A caller holds one answer at a time; so does the loop, or the
        // peak resident set would count two.
        drop(last.take());
        let op = l.attempted;
        let tracer = tracing.for_op(op);
        l.attempted += 1;
        pool_before = pool_stats();
        let (result, wall) = spanned(tracer, "query", op, || {
            let (prepared, p_s) = spanned(tracer, "prepare", op, || {
                api::prepare(&case.program, case.opts, tracer)
            });
            let (out, r_s) = spanned(tracer, "run", op, || api::run(&prepared?, input, tracer));
            out.map(|out| (out, p_s, r_s))
        });
        match result {
            Ok((out, p_s, r_s)) => {
                if tracer.is_enabled() {
                    l.traced.push(wall);
                } else {
                    l.plain.push(wall);
                    prepare_s.push(p_s);
                    run_s.push(r_s);
                }
                let counts = ExactCounts::of(&out.stats);
                match &first {
                    Some(first) if *first != counts => {
                        l.failed += 1;
                        l.problem(format!("exact counts changed: {first:?} then {counts:?}"));
                    }
                    Some(_) => {}
                    None => first = Some(counts),
                }
                last = Some(out);
            }
            Err(e) => {
                l.failed += 1;
                l.problem(format!("operation {op} failed: {e}"));
            }
        }
        let both_kinds = !cfg.trace || l.attempted >= 2;
        if started.elapsed().as_secs_f64() >= cfg.seconds && both_kinds {
            break;
        }
    }
    let peak_kb = peak_rss_kb();

    let (Some(out), false) = (last, l.plain.is_empty()) else {
        return Ok(RunOutput::nothing_measured(l, tracing.take()));
    };

    // ---- output checks, outside every timed region -------------------
    let mut per_layer = Metrics::default();
    let counts = first.expect("an operation succeeded");
    counts.record(&mut per_layer);
    per_layer.set(
        "net.f_tuples",
        case.rib.db.relation("F").map_or(0, Relation::len) as f64,
    );
    let digest = check::digest(derived_relations(&out, case.preds));
    per_layer.set("out.digest32", (digest & 0xffff_ffff) as f64);

    let mut rng = SplitMix64::for_checks(cfg.seed);
    let sampled = check::sample_distinct(&mut rng, case.prefixes, SAMPLED_PREFIXES);
    if let Err(e) = check::reference_check(
        &case.rib.db,
        case.rib.monitored,
        &case.reference,
        &out.database,
        case.preds,
        &sampled,
    ) {
        l.problem(e);
    }

    // The sharded answer must be the serial answer: the same fixpoint
    // plus routing, nothing else.
    let mut serial_run_s = None;
    if kind == Kind::ReachSharded {
        let t = Instant::now();
        let serial = api::prepare(&case.program, api::options(1, 1), &tracing.off)?.run(input)?;
        serial_run_s = Some(t.elapsed().as_secs_f64());
        if check::digest(derived_relations(&serial, case.preds)) != digest {
            l.problem("the sharded output differs from the serial output".to_owned());
        }
    }

    let end_to_end = end_to_end(&setup_s, &l.plain, 1, peak_kb);
    let events = tracing.take();
    if cfg.trace {
        let m = &mut per_layer;
        let run_median = stats::median_of(&run_s);
        op_context(m, &l.plain);
        m.set("net.generate_s", case.generate_s);
        m.set("parser.parse_us", case.parse_s * 1e6);
        m.set("prepare.wall_us", stats::median_of(&prepare_s) * 1e6);
        m.set("engine.run_s", run_median);
        m.set("engine.cold_run_s", run_s[0]);
        layers::phase_stats(m, &out.stats, run_median);
        layers::pool_delta(m, &pool_before);
        layers::engine_spans(m, &events, "run");
        run::trace_overhead(m, &l, events.len());
        if let Some(serial_s) = serial_run_s {
            m.set("shard.speedup_vs_batch", serial_s / run_median);
        }

        let largest = out
            .relation(case.preds[0])
            .expect("the program derives its first predicate");
        replay::storage_layers(
            m,
            largest,
            &out.database.cvars,
            &mut rng,
            cfg.sizes.replay_samples,
            cfg.sizes.replay_rows,
        );
        let get = |m: &Metrics, name| m.get(name).unwrap_or(0.0);
        let probe_share = get(m, "exec.probes") * get(m, "exec.probe_ns") / 1e9 / run_median;
        m.set("exec.est_probe_share", probe_share);
        let prune_wall = get(m, "engine.prune_wall_s");
        if prune_wall > 0.0 {
            let dnf_s = get(m, "dnf.to_min_dnf_ns") * counts.derived_tuples as f64 / 1e9;
            m.set("dnf.est_share_of_prune", dnf_s / prune_wall);
        }
        fill_missing_layers(m);
    }

    Ok(RunOutput::from_loop(l, end_to_end, per_layer, events))
}
