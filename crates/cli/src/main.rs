//! The `faure` binary — see the crate docs for the file formats.

use faure_cli::{
    cmd_check, cmd_eval_batch, cmd_eval_updates, cmd_explain, cmd_explain_json, cmd_lint,
    cmd_lint_json, cmd_profile, cmd_scenarios, cmd_subsume, cmd_worlds, load_database, parse_prune,
    parse_shard_key, spawn_telemetry_jsonl, CliError, EngineKnobs, ObsOptions,
};
use faure_core::PrunePolicy;
use faure_trace::{flight, prom, telemetry, FlightRecorder};
use std::sync::Arc;

const USAGE: &str = "\
faure — partial network analysis (HotNets '21 reproduction)

USAGE:
  faure eval <db.fdb>... <program.fl> [--prune never|stratum] [--relation R]
            [--threads N] [--shards N] [--shard-key pred=col]
            [--trace out.trace.json] [--metrics out.json]
            [--updates stream.fdl] [--flight-recorder out.trace.json]
            [--flight-capacity N] [--telemetry-addr 127.0.0.1:9090]
            [--telemetry-jsonl out.jsonl] [--telemetry-interval-ms MS]
  faure profile <program.fl> <db.fdb> [--threads N] [--shards N]
  faure explain <program.fl> [--format text|json]
  faure check <program.fl> [--domains db.fdb] [--format text|json] [--deny warnings]
  faure check --explain F00xx
  faure check <db.fdb> <constraint.fl>
  faure scenarios <db.fdb> <constraint.fl> [--limit N]
  faure subsume <target.fl> <known.fl>... [--domains db.fdb]
  faure worlds <db.fdb> [--limit N]
  faure help

Database files (.fdb) hold `@cvar name in {..}` / `@cvar name open` /
`@schema Name(attr, ...)` directives plus conditional facts like
`F(1, 2) :- $x = 1.`; program files (.fl) hold fauré-log rules.

`eval --threads N` partitions the fixpoint inner loop across N worker
threads; results are bit-identical to a serial run at any thread
count. The `FAURE_THREADS` environment variable sets the default.

`eval --shards N` runs the partitioned fixpoint: each recursive
predicate's delta is sharded on a key column (first bound head column
by default, `--shard-key pred=col` overrides) across N worker shards
that exchange cross-shard rows at iteration barriers. Derived rows and
conditions are identical to a single-space run at any shard count; the
`FAURE_SHARDS` environment variable sets the default. `--shards` and
`--threads` compose (threads parallelize within each shard's pass).

`eval` accepts several databases: the program is prepared (analysed,
stratified, plan-compiled) once and run against each, so the compiled
plans are shared across queries. `--trace` writes the whole pipeline
as Chrome trace_event JSON (load in chrome://tracing or Perfetto);
`--metrics` writes aggregated per-database metrics JSON (schema
`faure_metrics_version: 1`, see DESIGN.md). Tracing never changes
evaluation results.

`eval --updates stream.fdl` (one database only) materializes the
fixpoint once, then applies each update line incrementally: `+R(c, ...)`
inserts a fact, `-R(c, ...)` deletes the exact tuple; `%` comments and
blank lines are skipped. Each line is one delta; the output reports
per-update change counts and wall time, and `--metrics` adds a
per-update `updates` array (`per_update_wall_ns` per entry) to the
metrics document. A live progress line per applied update streams to
stderr (stdout stays clean for piping).

Live telemetry: `--telemetry-addr HOST:PORT` serves the process-global
metric registry as Prometheus text format on `/metrics` (plus
`/healthz`) from a background thread while the evaluation runs;
`--telemetry-jsonl out.jsonl` appends one JSON snapshot line per
`--telemetry-interval-ms` (default 500) and a final line with the
post-run totals. `eval` always records the last spans into an
in-memory flight ring (`--flight-capacity N` events, default 4096); on
panic the ring is dumped as Chrome trace JSON, and
`--flight-recorder out.trace.json` also writes it on normal exit.
Telemetry never changes evaluation results.

`profile` evaluates once with tracing on and prints a text report:
phase breakdown, per-iteration delta sizes, top rules by time, and
the solver memo hit rate and latency quantiles.

`explain` prints the compiled rule plans: the join order chosen by
bound-column selectivity, semi-naive delta slots, pushed-down
comparisons, and trailing negations — per stratum, exactly the plans
the evaluator caches and executes. `--format json` emits the plans as
a JSON array instead.

The one-argument `check` form is the static analyzer: it reports every
diagnostic (stable codes F0000–F0014) with source snippets, and exits
1 only when an error-severity diagnostic is present — or, with
`--deny warnings`, when any diagnostic is present at all (for CI).
`--format json` emits the diagnostics as a JSON array instead. With
`--domains db.fdb` the semantic passes also check the program against
the database's actual contents and c-variable domains. `faure check
--explain F0010` prints the long-form explanation of a code.
";

fn read(path: &str) -> Result<String, CliError> {
    std::fs::read_to_string(path).map_err(|e| CliError(format!("{path}: {e}")))
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum LintFormat {
    Text,
    Json,
}

fn run() -> Result<String, CliError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut positional: Vec<&str> = Vec::new();
    let mut prune = PrunePolicy::EndOfStratum;
    let mut relation: Option<String> = None;
    let mut limit = 64usize;
    let mut domains: Option<String> = None;
    let mut format = LintFormat::Text;
    let mut threads: Option<usize> = None;
    let mut shards: Option<usize> = None;
    let mut shard_keys: Vec<(String, usize)> = Vec::new();
    let mut trace_path: Option<String> = None;
    let mut metrics_path: Option<String> = None;
    let mut updates_path: Option<String> = None;
    let mut flight_path: Option<String> = None;
    let mut flight_capacity: usize = flight::DEFAULT_CAPACITY;
    let mut telemetry_addr: Option<String> = None;
    let mut telemetry_jsonl: Option<String> = None;
    let mut telemetry_interval_ms: u64 = 500;
    let mut deny_warnings = false;
    let mut explain_code: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--deny" => {
                i += 1;
                match args.get(i).map(String::as_str) {
                    Some("warnings") => deny_warnings = true,
                    other => {
                        return Err(CliError(format!("--deny takes `warnings`, got {other:?}")))
                    }
                }
            }
            "--explain" => {
                i += 1;
                explain_code = Some(
                    args.get(i)
                        .cloned()
                        .ok_or_else(|| CliError("--explain takes a code like F0010".into()))?,
                );
            }
            "--threads" => {
                i += 1;
                threads = Some(
                    args.get(i)
                        .and_then(|s| s.parse().ok())
                        .filter(|&n| n >= 1)
                        .ok_or_else(|| CliError("--threads takes a positive integer".into()))?,
                );
            }
            "--shards" => {
                i += 1;
                shards = Some(
                    args.get(i)
                        .and_then(|s| s.parse().ok())
                        .filter(|&n| n >= 1)
                        .ok_or_else(|| CliError("--shards takes a positive integer".into()))?,
                );
            }
            "--shard-key" => {
                i += 1;
                let spec = args
                    .get(i)
                    .ok_or_else(|| CliError("--shard-key takes `pred=col`".into()))?;
                shard_keys.push(parse_shard_key(spec)?);
            }
            "--prune" => {
                i += 1;
                prune = parse_prune(args.get(i).map(String::as_str).unwrap_or(""))?;
            }
            "--relation" => {
                i += 1;
                relation = args.get(i).cloned();
            }
            "--limit" => {
                i += 1;
                limit = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| CliError("--limit takes an integer".into()))?;
            }
            "--domains" => {
                i += 1;
                domains = args.get(i).cloned();
            }
            "--trace" => {
                i += 1;
                trace_path = Some(
                    args.get(i)
                        .cloned()
                        .ok_or_else(|| CliError("--trace takes an output path".into()))?,
                );
            }
            "--metrics" => {
                i += 1;
                metrics_path = Some(
                    args.get(i)
                        .cloned()
                        .ok_or_else(|| CliError("--metrics takes an output path".into()))?,
                );
            }
            "--updates" => {
                i += 1;
                updates_path = Some(
                    args.get(i)
                        .cloned()
                        .ok_or_else(|| CliError("--updates takes an update-stream path".into()))?,
                );
            }
            "--flight-recorder" => {
                i += 1;
                flight_path =
                    Some(args.get(i).cloned().ok_or_else(|| {
                        CliError("--flight-recorder takes an output path".into())
                    })?);
            }
            "--flight-capacity" => {
                i += 1;
                flight_capacity = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| CliError("--flight-capacity takes a positive integer".into()))?;
            }
            "--telemetry-addr" => {
                i += 1;
                telemetry_addr = Some(args.get(i).cloned().ok_or_else(|| {
                    CliError("--telemetry-addr takes a host:port address".into())
                })?);
            }
            "--telemetry-jsonl" => {
                i += 1;
                telemetry_jsonl =
                    Some(args.get(i).cloned().ok_or_else(|| {
                        CliError("--telemetry-jsonl takes an output path".into())
                    })?);
            }
            "--telemetry-interval-ms" => {
                i += 1;
                telemetry_interval_ms = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| {
                        CliError("--telemetry-interval-ms takes a positive integer".into())
                    })?;
            }
            "--format" => {
                i += 1;
                format = match args.get(i).map(String::as_str) {
                    Some("text") => LintFormat::Text,
                    Some("json") => LintFormat::Json,
                    other => {
                        return Err(CliError(format!(
                            "--format takes `text` or `json`, got {other:?}"
                        )))
                    }
                };
            }
            other => positional.push(other),
        }
        i += 1;
    }

    match positional.as_slice() {
        // All-but-last positionals are databases; the program is last.
        ["eval", paths @ ..] if paths.len() >= 2 => {
            let (program, dbs) = paths.split_last().expect("len >= 2");
            let db_texts: Vec<(String, String)> = dbs
                .iter()
                .map(|p| read(p).map(|text| ((*p).to_owned(), text)))
                .collect::<Result<_, _>>()?;
            // The flight ring records the tail of the span stream for
            // every eval run; a panic (or an error exit below) dumps
            // it so the last thing the pipeline did is recoverable
            // post-mortem. Recording into the ring never changes
            // evaluation results.
            let flight = Arc::new(FlightRecorder::new(flight_capacity));
            install_flight_panic_hook(&flight, flight_path.clone());
            let _server = match &telemetry_addr {
                Some(addr) => {
                    let srv = prom::serve(addr, telemetry::global())
                        .map_err(|e| CliError(format!("--telemetry-addr {addr}: {e}")))?;
                    eprintln!("telemetry: serving /metrics on http://{}/", srv.addr);
                    Some(srv)
                }
                None => None,
            };
            let jsonl = match &telemetry_jsonl {
                Some(path) => Some(spawn_telemetry_jsonl(path, telemetry_interval_ms)?),
                None => None,
            };
            let obs = ObsOptions {
                want_trace: trace_path.is_some(),
                want_metrics: metrics_path.is_some(),
                flight: Some(Arc::clone(&flight)),
                progress: updates_path.is_some(),
            };
            let knobs = EngineKnobs {
                threads,
                shards,
                shard_keys: shard_keys.clone(),
            };
            let result = match &updates_path {
                Some(upath) => {
                    let [(db_label, db_text)] = db_texts.as_slice() else {
                        return Err(CliError("--updates takes exactly one database".into()));
                    };
                    cmd_eval_updates(
                        db_label,
                        db_text,
                        program,
                        &read(program)?,
                        upath,
                        &read(upath)?,
                        prune,
                        relation.as_deref(),
                        &knobs,
                        &obs,
                    )
                }
                None => cmd_eval_batch(
                    &db_texts,
                    program,
                    &read(program)?,
                    prune,
                    relation.as_deref(),
                    &knobs,
                    &obs,
                ),
            };
            let report = match result {
                Ok(report) => report,
                Err(e) => {
                    // Error exit: dump the flight ring (best effort —
                    // the original error is the one worth reporting)
                    // and flush a final telemetry snapshot before
                    // propagating.
                    if let Some(path) = &flight_path {
                        match dump_flight(&flight, path) {
                            Ok(()) => eprintln!(
                                "flight recorder: dumped {} events ({} dropped) to {path}",
                                flight.len(),
                                flight.dropped()
                            ),
                            Err(de) => eprintln!("{de}"),
                        }
                    }
                    if let Some(j) = jsonl {
                        let _ = j.finish();
                    }
                    return Err(e);
                }
            };
            // CI hook: force a panic after evaluation so the panic
            // hook's flight dump can be exercised end to end.
            if std::env::var_os("FAURE_FLIGHT_PANIC").is_some() {
                panic!("FAURE_FLIGHT_PANIC set: forced panic to exercise the flight recorder");
            }
            let mut out = report.rendered;
            if let (Some(path), Some(json)) = (&trace_path, &report.trace_json) {
                std::fs::write(path, json).map_err(|e| CliError(format!("{path}: {e}")))?;
                out.push_str(&format!("-- trace written to {path}\n"));
            }
            if let (Some(path), Some(json)) = (&metrics_path, &report.metrics_json) {
                std::fs::write(path, json).map_err(|e| CliError(format!("{path}: {e}")))?;
                out.push_str(&format!("-- metrics written to {path}\n"));
            }
            if let Some(path) = &flight_path {
                dump_flight(&flight, path)?;
                out.push_str(&format!(
                    "-- flight recording ({} events, {} dropped) written to {path}\n",
                    flight.len(),
                    flight.dropped()
                ));
            }
            if let Some(j) = jsonl {
                j.finish()?;
                let path = telemetry_jsonl.as_deref().unwrap_or("");
                out.push_str(&format!("-- telemetry snapshots written to {path}\n"));
            }
            Ok(out)
        }
        ["profile", program, db] => cmd_profile(
            program,
            &read(program)?,
            db,
            &read(db)?,
            &EngineKnobs {
                threads,
                shards,
                shard_keys,
            },
        ),
        ["explain", program] => match format {
            LintFormat::Text => cmd_explain(&read(program)?),
            LintFormat::Json => cmd_explain_json(&read(program)?),
        },
        ["check"] if explain_code.is_some() => {
            let code = explain_code.as_deref().expect("guarded");
            match faure_analyze::explain_code(code) {
                Some(text) => Ok(format!("{text}\n")),
                None => Err(CliError(format!(
                    "unknown diagnostic code `{code}` (valid codes: F0000–F0014)"
                ))),
            }
        }
        ["check", program] => {
            let db = match &domains {
                Some(path) => Some(load_database(&read(path)?)?),
                None => None,
            };
            let source = read(program)?;
            let outcome = match format {
                LintFormat::Text => cmd_lint(&source, program, db.as_ref()),
                LintFormat::Json => cmd_lint_json(&source, program, db.as_ref()),
            };
            if outcome.errors > 0 || (deny_warnings && outcome.warnings > 0) {
                eprint!("{}", outcome.rendered);
                std::process::exit(1);
            }
            Ok(outcome.rendered)
        }
        ["check", db, constraint] => cmd_check(&read(db)?, &read(constraint)?),
        ["scenarios", db, constraint] => cmd_scenarios(&read(db)?, &read(constraint)?, limit),
        ["subsume", target, known @ ..] if !known.is_empty() => {
            let reg = match &domains {
                Some(path) => load_database(&read(path)?)?.cvars,
                None => faure_ctable::CVarRegistry::new(),
            };
            let known_texts: Vec<String> =
                known.iter().map(|k| read(k)).collect::<Result<_, _>>()?;
            cmd_subsume(&read(target)?, &known_texts, &reg)
        }
        ["worlds", db] => cmd_worlds(&read(db)?, limit),
        ["help"] | [] => Ok(USAGE.to_owned()),
        other => Err(CliError(format!(
            "unrecognised invocation {other:?}\n\n{USAGE}"
        ))),
    }
}

/// Writes the flight ring's contents as Chrome trace JSON, rendering
/// I/O failures as a CLI error naming the path.
fn dump_flight(flight: &FlightRecorder, path: &str) -> Result<(), CliError> {
    std::fs::write(path, flight.to_chrome_json()).map_err(|e| CliError(format!("{path}: {e}")))
}

/// Chains a panic hook that dumps the flight ring after the default
/// hook has printed the panic message. Without `--flight-recorder` the
/// dump lands in the temp directory, so a crashing run always leaves a
/// post-mortem trace behind.
fn install_flight_panic_hook(flight: &Arc<FlightRecorder>, path: Option<String>) {
    let flight = Arc::clone(flight);
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        prev(info);
        let path = path.clone().unwrap_or_else(|| {
            std::env::temp_dir()
                .join("faure-flight.trace.json")
                .to_string_lossy()
                .into_owned()
        });
        match std::fs::write(&path, flight.to_chrome_json()) {
            Ok(()) => eprintln!(
                "flight recorder: dumped {} events ({} dropped) to {path}",
                flight.len(),
                flight.dropped()
            ),
            Err(e) => eprintln!("flight recorder: failed to write {path}: {e}"),
        }
    }));
}

fn main() {
    match run() {
        Ok(output) => print!("{output}"),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
