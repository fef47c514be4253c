//! # The repository benchmark
//!
//! Six workloads over the paper's Table 4 queries, BGP-style churn and
//! the section 5 verification ladder; a handful of end-to-end metrics a
//! user of the system would see; and per-layer metrics measured from
//! outside the program. See `README.md` beside `Cargo.toml`.
//!
//! Three modes:
//!
//! * `--workload NAME [--seed N] [--seconds S] [--trace 0|1]` — one run
//!   of one workload in this process. Prints one flat JSON line per
//!   metric, then, as the last line, the run's result object.
//! * no `--workload` — the whole set: every workload, `--reps` times,
//!   each run a fresh child process (cold condition pool, cold memo, a
//!   peak resident set of its own), interleaved round-robin so drift of
//!   the box spreads over all workloads; `--traced` makes it the
//!   per-layer pass. `--out FILE` keeps the records.
//! * `--compare A.jsonl B.jsonl` — verdicts between two result files.

mod api;
mod catalogue;
mod check;
mod churn;
mod compare;
mod jsonl;
mod ladder;
mod layers;
mod query;
mod replay;
mod run;
mod spans;
mod stats;

use catalogue::{
    CHURN_STREAM, DEFAULT_SEED, END_TO_END, FAILURE_FILTERS, PER_LAYER, REACH_BATCH, REACH_DEEP,
    REACH_SHARDED, RUN_SECONDS, VERIFY_LADDER, WORKLOADS,
};
use jsonl::{number, Record, Value};
use run::{RunConfig, RunOutput, Sizes};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

const USAGE: &str = "usage:
  benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--rep K] [--trace-out FILE] [--smoke]
  benchmark [--seed N] [--seconds S] [--reps K] [--traced] [--out FILE] [--smoke]
  benchmark --compare A.jsonl B.jsonl
  benchmark --emit-benchmark-json | --describe";

/// Runs one workload in this process.
fn run_workload(name: &str, cfg: &RunConfig) -> Result<RunOutput, String> {
    let query = |kind| query::run(cfg, kind).map_err(|e| e.to_string());
    match name {
        REACH_BATCH => query(query::Kind::ReachBatch),
        REACH_DEEP => query(query::Kind::ReachDeep),
        REACH_SHARDED => query(query::Kind::ReachSharded),
        FAILURE_FILTERS => query(query::Kind::FailureFilters),
        CHURN_STREAM => churn::run(cfg).map_err(|e| e.to_string()),
        VERIFY_LADDER => Ok(ladder::run(cfg)),
        other => Err(format!("unknown workload `{other}`")),
    }
}

/// The flat records of a run: every value it measured.
fn records(name: &str, rep: u32, out: &RunOutput) -> Vec<Record> {
    out.end_to_end
        .iter()
        .chain(out.per_layer.iter())
        .map(|(metric, value)| Record {
            workload: name.to_owned(),
            metric: metric.to_owned(),
            value,
            unit: catalogue::unit(metric).to_owned(),
            rep,
        })
        .collect()
}

/// The last line of a run: `correct`, `attempted`, `failed`, and the
/// end-to-end metrics (untraced) or the per-layer metrics (traced).
fn result_line(out: &RunOutput, traced: bool) -> String {
    let metrics = if traced {
        &out.per_layer
    } else {
        &out.end_to_end
    };
    let names: Vec<&str> = if traced {
        PER_LAYER.iter().map(|l| l.name).collect()
    } else {
        END_TO_END.iter().map(|e| e.name).collect()
    };
    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.correct(),
        out.attempted,
        out.failed
    );
    let mut first = true;
    for name in names {
        let Some(value) = metrics.get(name) else {
            continue;
        };
        if !first {
            line.push_str(", ");
        }
        first = false;
        let _ = write!(
            line,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            number(value),
            catalogue::unit(name)
        );
    }
    line.push_str("}}");
    line
}

struct Args {
    flags: BTreeMap<String, String>,
    compare: Option<(String, String)>,
}

/// Flags that take no value.
const SWITCHES: [&str; 4] = ["--smoke", "--traced", "--emit-benchmark-json", "--describe"];

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        flags: BTreeMap::new(),
        compare: None,
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        if SWITCHES.contains(&flag.as_str()) {
            args.flags.insert(flag.clone(), String::new());
        } else if flag == "--compare" {
            let (Some(a), Some(b)) = (it.next(), it.next()) else {
                return Err("--compare takes two files".to_owned());
            };
            args.compare = Some((a.clone(), b.clone()));
        } else if flag.starts_with("--") {
            let value = it.next().ok_or_else(|| format!("{flag} takes a value"))?;
            args.flags.insert(flag.clone(), value.clone());
        } else {
            return Err(format!("unexpected argument `{flag}`"));
        }
    }
    Ok(args)
}

impl Args {
    fn has(&self, flag: &str) -> bool {
        self.flags.contains_key(flag)
    }

    fn parsed<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.flags.get(flag) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad value `{v}` for {flag}")),
        }
    }

    fn config(&self) -> Result<RunConfig, String> {
        let seconds: f64 = self.parsed("--seconds", RUN_SECONDS as f64)?;
        if !(seconds > 0.0 && seconds <= 3600.0) {
            return Err(format!("--seconds {seconds} is out of range"));
        }
        let trace = match self.parsed("--trace", 0u8)? {
            0 => self.has("--traced"),
            1 => true,
            other => return Err(format!("--trace takes 0 or 1, not {other}")),
        };
        Ok(RunConfig {
            seed: self.parsed("--seed", DEFAULT_SEED)?,
            seconds,
            trace,
            sizes: if self.has("--smoke") {
                Sizes::SMOKE
            } else {
                Sizes::MEASURED
            },
        })
    }
}

/// Mode 1: one workload, here, now.
fn single_run(name: &str, args: &Args) -> Result<bool, String> {
    if catalogue::workload(name).is_none() {
        return Err(format!("unknown workload `{name}`"));
    }
    let cfg = args.config()?;
    let rep: u32 = args.parsed("--rep", 0)?;
    let out = run_workload(name, &cfg)?;
    for problem in &out.problems {
        eprintln!("{name}: FAILED CHECK: {problem}");
    }
    if let Some(path) = args.flags.get("--trace-out") {
        std::fs::write(path, spans::perfetto_json(&out.events))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    for record in records(name, rep, &out) {
        println!("{}", record.to_line());
    }
    println!("{}", result_line(&out, cfg.trace));
    Ok(out.correct())
}

fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Mode 2: the whole set, each run a child process.
fn run_set(args: &Args) -> Result<bool, String> {
    let cfg = args.config()?;
    let reps: u32 = args.parsed("--reps", if cfg.trace { 1 } else { 5 })?;
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let started = Instant::now();
    let mut all: Vec<Record> = Vec::new();
    let mut ok = true;
    // Round-robin: rep 1 of every workload, then rep 2, …
    for rep in 0..reps {
        for w in WORKLOADS {
            let mut child = Command::new(&exe);
            child
                .args(["--workload", w.name])
                .args(["--seed", &cfg.seed.to_string()])
                .args(["--seconds", &cfg.seconds.to_string()])
                .args(["--trace", if cfg.trace { "1" } else { "0" }])
                .args(["--rep", &rep.to_string()])
                .stderr(Stdio::inherit());
            if args.has("--smoke") {
                child.arg("--smoke");
            }
            if cfg.trace {
                let dir = "target/benchmark";
                std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir}: {e}"))?;
                child.args(["--trace-out", &format!("{dir}/{}.trace.json", w.name)]);
            }
            let t = Instant::now();
            let output = child
                .output()
                .map_err(|e| format!("cannot run a child process: {e}"))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            let got: Vec<Record> = stdout.lines().filter_map(Record::from_line).collect();
            eprintln!(
                "rep {rep} {:<16} {:>6.1}s  {} values{}",
                w.name,
                t.elapsed().as_secs_f64(),
                got.len(),
                if output.status.success() {
                    ""
                } else {
                    "  FAILED"
                }
            );
            ok &= output.status.success() && !got.is_empty();
            all.extend(got);
        }
    }

    // Exact counts must repeat across repetitions.
    let mut grouped: BTreeMap<(&str, &str), Vec<f64>> = BTreeMap::new();
    for r in &all {
        grouped
            .entry((&r.workload, &r.metric))
            .or_default()
            .push(r.value);
    }
    println!(
        "{:<16} {:<38} {:>14} {:>14} {:>14} {:>8} {:>3}  unit",
        "workload", "metric", "median", "q1", "q3", "spread", "n"
    );
    for ((workload, metric), values) in &grouped {
        let s = compare::Summary::of(values);
        println!(
            "{workload:<16} {metric:<38} {:>14.4} {:>14.4} {:>14.4} {:>7.1}% {:>3}  {}",
            s.median,
            s.q1,
            s.q3,
            s.spread() * 100.0,
            s.n,
            catalogue::unit(metric)
        );
        let exact = catalogue::layer(metric).is_some_and(|l| l.exact);
        if exact && values.iter().any(|v| *v != values[0]) {
            println!("  ^ EXACT COUNT DIFFERS ACROSS REPETITIONS: {values:?}");
            ok = false;
        }
    }
    // One fixpoint, with or without routing: the digests must agree.
    let digest = |w: &str| grouped.get(&(w, "out.digest32")).map(|v| v[0]);
    if digest(REACH_BATCH) != digest(REACH_SHARDED) {
        println!("reach_batch and reach_sharded DISAGREE on out.digest32");
        ok = false;
    }

    if let Some(path) = args.flags.get("--out") {
        let header = jsonl::object(&[
            ("header", 1.0.into()),
            (
                "commit",
                first_line_of("git", &["rev-parse", "HEAD"]).as_str().into(),
            ),
            ("seed", (cfg.seed as f64).into()),
            ("seconds", cfg.seconds.into()),
            ("reps", f64::from(reps).into()),
            ("traced", f64::from(u8::from(cfg.trace)).into()),
            ("host_cores", (run::host_cores() as f64).into()),
            (
                "rustc",
                first_line_of("rustc", &["--version"]).as_str().into(),
            ),
            ("total_wall_s", started.elapsed().as_secs_f64().into()),
        ]);
        let mut text = header;
        text.push('\n');
        for r in &all {
            text.push_str(&r.to_line());
            text.push('\n');
        }
        std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    eprintln!("set finished in {:.1}s", started.elapsed().as_secs_f64());
    Ok(ok)
}

/// Mode 3: verdicts between two result files.
fn run_compare(a: &str, b: &str) -> Result<bool, String> {
    let read = |path: &str| {
        std::fs::read_to_string(path)
            .map(|text| compare::ResultFile::parse(&text))
            .map_err(|e| format!("cannot read {path}: {e}"))
    };
    let (a, b) = (read(a)?, read(b)?);
    let same_seed = a.seed().is_some() && a.seed() == b.seed();
    if !same_seed {
        println!("the files' seeds differ or are missing: exact counts are not compared");
    }
    let rows = compare::compare(&a.records, &b.records, same_seed);
    print!("{}", compare::render(&rows));
    let header_text = |f: &compare::ResultFile| {
        f.header
            .iter()
            .map(|(k, v)| match v {
                Value::Str(s) => format!("{k}={s}"),
                Value::Num(n) => format!("{k}={n}"),
            })
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!("A: {}", header_text(&a));
    println!("B: {}", header_text(&b));
    let failing = rows.iter().filter(|r| r.verdict.fails()).count();
    println!("{} rows, {failing} worse or differing", rows.len());
    Ok(failing == 0 && !rows.is_empty())
}

fn main() -> ExitCode {
    api::scrub_environment();
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&raw).and_then(|args| {
        if args.has("--emit-benchmark-json") {
            print!("{}", catalogue::benchmark_json());
            Ok(true)
        } else if args.has("--describe") {
            print!("{}", catalogue::describe());
            Ok(true)
        } else if let Some((a, b)) = &args.compare {
            run_compare(a, b)
        } else if let Some(name) = args.flags.get("--workload") {
            single_run(name, &args)
        } else {
            run_set(&args)
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("benchmark: {message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests;
