//! End-to-end tests driving the built `faure` binary as a subprocess.

use faure_core::{Applies, DeltaReport};
use faure_ctable::PoolStats;
use faure_solver::SolverStats;
use faure_storage::{OpStats, PhaseStats, ShardStats};
use faure_trace::stat::{Kind, Stat, Stats};
use faure_trace::{prom, telemetry};
use std::io::Write;
use std::path::Path;
use std::process::Command;

fn faure() -> Command {
    Command::new(env!("CARGO_BIN_EXE_faure"))
}

fn write_temp(name: &str, contents: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("faure-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let mut f = std::fs::File::create(&path).unwrap();
    f.write_all(contents.as_bytes()).unwrap();
    path
}

const FIG1: &str = "\
@cvar x in {0, 1}
@cvar y in {0, 1}
@cvar z in {0, 1}
@schema F(f, n1, n2)
F(1, 1, 2) :- $x = 1.
F(1, 1, 3) :- $x = 0.
F(1, 2, 3) :- $y = 1.
F(1, 2, 4) :- $y = 0.
F(1, 3, 5) :- $z = 1.
F(1, 3, 4) :- $z = 0.
F(1, 4, 5).
";

const REACH: &str = "\
R(f, a, b) :- F(f, a, b).
R(f, a, b) :- F(f, a, c), R(f, c, b).
";

#[test]
fn help_prints_usage() {
    let out = faure().arg("help").output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("USAGE"));
    assert!(text.contains("faure eval"));
}

#[test]
fn no_args_prints_usage() {
    let out = faure().output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));
}

#[test]
fn eval_pipeline() {
    let db = write_temp("fig1.fdb", FIG1);
    let program = write_temp("reach.fl", REACH);
    let out = faure()
        .args(["eval", db.to_str().unwrap(), program.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("(1, 1, 5)"), "{text}");
    assert!(text.contains("tuples"), "{text}");
}

#[test]
fn check_reports_verdicts() {
    let db = write_temp("fig1b.fdb", FIG1);
    let holds = write_temp(
        "holds.fl",
        &format!("{REACH}panic :- F(f, a, b), !R(1, 1, 5).\n"),
    );
    let out = faure()
        .args(["check", db.to_str().unwrap(), holds.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("HOLDS"));

    let violated = write_temp(
        "violated.fl",
        &format!("{REACH}panic :- F(f, a, b), !R(1, 1, 4).\n"),
    );
    let out = faure()
        .args([
            "scenarios",
            db.to_str().unwrap(),
            violated.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert_eq!(text.lines().count(), 3, "{text}");
}

/// `faure eval --updates` ends where a batch `faure eval` of the final
/// database does, also when an update reaches a rule the initial
/// database ruled out: a comparison no initial row satisfies, a
/// declared predicate the initial database leaves empty, or a predicate
/// the program reads that the initial database neither holds nor
/// declares. (Plans once compiled under facts inferred from the initial
/// database, and these rules stayed cut for the whole stream; an insert
/// into an undeclared relation was skipped.)
#[test]
fn updates_reach_rules_the_initial_database_ruled_out() {
    let cases = [
        (
            "cmp",
            "E(1, 2).\n",
            "Q(a) :- E(a, b), a > 100.\n",
            "E(200, 3).",
            "(200)",
        ),
        (
            "empty",
            "@schema G(g)\nE(1, 2).\n",
            "Q(a) :- E(a, b), G(a).\n",
            "G(1).",
            "(1)",
        ),
        (
            "undeclared",
            "E(1, 2).\n",
            "Q(a) :- E(a, b), G(a).\n",
            "G(1).",
            "(1)",
        ),
    ];
    // The relation listing: `--` lines carry timings and counts.
    let eval = |db: &Path, program: &Path, updates: Option<&Path>| -> Vec<String> {
        let mut cmd = faure();
        cmd.arg("eval").arg(db).arg(program);
        if let Some(stream) = updates {
            cmd.arg("--updates").arg(stream);
        }
        let out = cmd.output().unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .filter(|l| !l.starts_with("--"))
            .map(str::to_owned)
            .collect()
    };
    for (name, db, program, fact, row) in cases {
        let initial = write_temp(&format!("ruled-out-{name}.fdb"), db);
        let last = write_temp(
            &format!("ruled-out-{name}-final.fdb"),
            &format!("{db}{fact}\n"),
        );
        let program = write_temp(&format!("ruled-out-{name}.fl"), program);
        let stream = write_temp(&format!("ruled-out-{name}.fdl"), &format!("+{fact}\n"));
        let maintained = eval(&initial, &program, Some(&stream));
        let batch = eval(&last, &program, None);
        assert!(batch.iter().any(|l| l.trim() == row), "{name}: {batch:?}");
        assert_eq!(maintained, batch, "{name}");
    }
}

#[test]
fn bad_input_fails_cleanly() {
    let db = write_temp("bad.fdb", "@cvar broken\n");
    let program = write_temp("p.fl", "R(a) :- F(a).\n");
    let out = faure()
        .args(["eval", db.to_str().unwrap(), program.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("error:"));
}

#[test]
fn missing_file_fails_cleanly() {
    let out = faure()
        .args(["eval", "/nonexistent.fdb", "/nonexistent.fl"])
        .output()
        .unwrap();
    assert!(!out.status.success());
}

/// The per-derivation and per-iteration solver policies are gone: asking
/// for one is a typed error that names what is left.
#[test]
fn retired_prune_policies_are_rejected() {
    let db = write_temp("fig1-prune.fdb", FIG1);
    let program = write_temp("reach-prune.fl", REACH);
    for policy in ["eager", "iteration"] {
        let out = faure()
            .args(["eval", db.to_str().unwrap(), program.to_str().unwrap()])
            .args(["--prune", policy])
            .output()
            .unwrap();
        assert!(!out.status.success(), "--prune {policy}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown prune policy `{policy}` (never|stratum)")),
            "{stderr}"
        );
    }
}

/// Extracts the integer after `"key":` in a JSON-ish string slice.
fn json_u64(s: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\":");
    let i = s
        .find(&pat)
        .unwrap_or_else(|| panic!("key {key} not found in {s}"));
    let rest = &s[i + pat.len()..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end]
        .parse()
        .unwrap_or_else(|_| panic!("key {key} not an integer in {s}"))
}

/// One row of a stat table, with the struct's type erased.
struct Row {
    key: &'static str,
    family: &'static str,
    kind: Kind,
}

fn rows<S: Stats>() -> Vec<Row> {
    let row = |s: &Stat<S>| Row {
        key: s.key,
        family: s.family,
        kind: s.kind,
    };
    S::STATS.iter().filter(|s| s.published()).map(row).collect()
}

/// The schema test, driven by the stat tables: after a churn run, for
/// every declared counter the background JSONL writer's last snapshot
/// agrees with the `--metrics` document's whole-process `totals`
/// block; every declared family is typed in the Prometheus text; and
/// README's mapping table lists every (family, key) pair. The run is a
/// spawned process so no other test's evaluation can bump the
/// process-global registry mid-comparison.
#[test]
fn telemetry_jsonl_final_line_agrees_with_metrics_totals() {
    let db = write_temp("tele.fdb", FIG1);
    let program = write_temp("tele.fl", REACH);
    let stream = write_temp("tele.fdl", "+F(1, 4, 6).\n-F(1, 4, 5).\n");
    let metrics = write_temp("tele-metrics.json", "");
    let jsonl = write_temp("tele.jsonl", "");
    let out = faure()
        .args([
            "eval",
            db.to_str().unwrap(),
            program.to_str().unwrap(),
            "--updates",
            stream.to_str().unwrap(),
            "--metrics",
            metrics.to_str().unwrap(),
            "--telemetry-jsonl",
            jsonl.to_str().unwrap(),
            "--telemetry-interval-ms",
            "60000",
            "--threads",
            "1",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // The per-update progress stream landed on stderr, not stdout.
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("update 1/2"), "{stderr}");
    assert!(stderr.contains("update 2/2"), "{stderr}");
    assert!(stderr.contains("memo"), "{stderr}");
    assert!(!String::from_utf8_lossy(&out.stdout).contains("update 1/2"));

    let metrics_doc = std::fs::read_to_string(&metrics).unwrap();
    let totals_at = metrics_doc.find("\"totals\":").expect("totals block");
    let totals = &metrics_doc[totals_at..];
    let jsonl_text = std::fs::read_to_string(&jsonl).unwrap();
    let last = jsonl_text
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .expect("at least one snapshot line");

    // Counter-for-counter (and the absolute IDB row-count gauge): what
    // `totals` folds from the per-apply records is what the registry
    // accumulated. Times are left out: `relational_ns` is measured
    // again when a run is exported.
    let in_totals = [
        rows::<Applies>(),
        rows::<OpStats>(),
        rows::<SolverStats>(),
        rows::<PhaseStats>(),
    ];
    for row in in_totals.iter().flatten().filter(|r| r.kind != Kind::Nanos) {
        assert_eq!(
            json_u64(last, row.family),
            json_u64(totals, row.key),
            "{} disagrees with totals.{}\njsonl: {last}\ntotals: {totals}",
            row.family,
            row.key
        );
    }
    // The pool: the registry mirrors the process-global counters at the
    // last apply; the database's pool block is the same source when its
    // materialization ended, two updates earlier.
    let pool_at = metrics_doc.find("\"pool\":").expect("pool block");
    for row in rows::<PoolStats>() {
        assert!(
            json_u64(last, row.family) >= json_u64(&metrics_doc[pool_at..], row.key),
            "{} behind pool.{}\njsonl: {last}",
            row.family,
            row.key
        );
    }

    // Every declared family — these and the ones outside `totals` — is
    // typed in the Prometheus text (of this process, after one
    // evaluation resolved the handles) and listed in README's table.
    let elsewhere = [
        rows::<PoolStats>(),
        rows::<ShardStats>(),
        rows::<DeltaReport>(),
    ];
    faure_cli::cmd_eval(
        FIG1,
        REACH,
        faure_core::PrunePolicy::EndOfStratum,
        None,
        None,
    )
    .unwrap();
    let text = prom::render_text(&telemetry::global().snapshot());
    let readme = include_str!("../../../README.md");
    for row in in_totals.iter().chain(&elsewhere).flatten() {
        let kind = match row.kind {
            Kind::Gauge => "gauge",
            Kind::Counter | Kind::Nanos => "counter",
        };
        let type_line = format!("# TYPE {} {kind}", row.family);
        assert!(text.lines().any(|l| l == type_line), "{type_line}\n{text}");
        let (family, key) = (format!("`{}`", row.family), format!(".{}`", row.key));
        assert!(
            readme
                .lines()
                .any(|l| l.starts_with('|') && l.contains(&family) && l.contains(&key)),
            "README's mapping table has no row with {family} and a JSON path ending {key}"
        );
    }

    // And back: every family README's Prometheus tables name is typed
    // in the same text, so a deleted counter cannot leave a stale row —
    // unless one serial batch evaluation cannot publish it, as listed.
    let not_published_here = [
        (
            "faure_shard_rows_exchanged_total",
            "only a sharded pass exchanges rows",
        ),
        (
            "faure_shard_routed_delta_rows",
            "only a sharded pass routes a delta",
        ),
        (
            "faure_parallel_rule_passes_total",
            "only a pass split across threads counts",
        ),
        (
            "faure_parallel_chunks_total",
            "only a pass split across threads counts",
        ),
        (
            "faure_parallel_workers",
            "only a pass split across threads sets it",
        ),
        (
            "faure_maintain_strata_total",
            "only an `--updates` apply touches strata",
        ),
        (
            "faure_maintain_changed_rows_total",
            "only an `--updates` apply changes rows",
        ),
        (
            "faure_update_apply_ns",
            "only an `--updates` apply is timed",
        ),
    ];
    let families = readme_prometheus_families(readme);
    assert!(
        families.len() > 40,
        "README's Prometheus tables not found: {families:?}"
    );
    for family in families {
        let typed = text
            .lines()
            .any(|l| l.strip_prefix("# TYPE ").and_then(|t| t.split(' ').next()) == Some(&family));
        assert!(
            typed || not_published_here.iter().any(|(f, _)| *f == family),
            "README names {family}, which the Prometheus text does not type\n{text}"
        );
    }
}

/// The `faure_*` families in the first column of README's
/// "Prometheus (`/metrics`, JSONL)" tables, label sets stripped.
fn readme_prometheus_families(readme: &str) -> Vec<String> {
    let mut families = Vec::new();
    let mut in_table = false;
    for line in readme.lines() {
        if line.starts_with("| Prometheus (`/metrics`, JSONL) |") {
            in_table = true;
        } else if !line.starts_with('|') {
            in_table = false;
        } else if in_table {
            let first_cell = line.split('|').nth(1).unwrap_or("");
            for code in first_cell.split('`').skip(1).step_by(2) {
                if code.starts_with("faure_") {
                    families.push(code.split('{').next().unwrap_or(code).to_owned());
                }
            }
        }
    }
    families
}

#[test]
fn flight_recorder_dumps_on_success() {
    let db = write_temp("flight.fdb", FIG1);
    let program = write_temp("flight.fl", REACH);
    let dump = std::env::temp_dir().join(format!("faure-flight-ok-{}.json", std::process::id()));
    let out = faure()
        .args([
            "eval",
            db.to_str().unwrap(),
            program.to_str().unwrap(),
            "--flight-recorder",
            dump.to_str().unwrap(),
            "--flight-capacity",
            "16",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("flight recording"), "{stdout}");
    let json = std::fs::read_to_string(&dump).unwrap();
    assert!(json.starts_with("{\"traceEvents\":["), "{json}");
    assert!(json.contains("\"ph\":\"X\""), "{json}");
    std::fs::remove_file(&dump).ok();
}

#[test]
fn forced_panic_dumps_flight_ring() {
    let db = write_temp("panic.fdb", FIG1);
    let program = write_temp("panic.fl", REACH);
    let dump = std::env::temp_dir().join(format!("faure-flight-panic-{}.json", std::process::id()));
    let out = faure()
        .args([
            "eval",
            db.to_str().unwrap(),
            program.to_str().unwrap(),
            "--flight-recorder",
            dump.to_str().unwrap(),
        ])
        .env("FAURE_FLIGHT_PANIC", "1")
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("flight recorder: dumped"), "{stderr}");
    // The panic-hook dump is a loadable Chrome trace with real events.
    let json = std::fs::read_to_string(&dump).unwrap();
    assert!(json.starts_with("{\"traceEvents\":["), "{json}");
    assert!(json.contains("\"ph\":\"X\""), "{json}");
    std::fs::remove_file(&dump).ok();
}

#[test]
fn unwritable_observability_paths_fail_cleanly() {
    let db = write_temp("unwritable.fdb", FIG1);
    let program = write_temp("unwritable.fl", REACH);
    for flag in [
        "--metrics",
        "--trace",
        "--flight-recorder",
        "--telemetry-jsonl",
    ] {
        let out = faure()
            .args([
                "eval",
                db.to_str().unwrap(),
                program.to_str().unwrap(),
                flag,
                "/nonexistent-dir/out.json",
            ])
            .output()
            .unwrap();
        assert!(!out.status.success(), "{flag} should fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("error:") && stderr.contains("/nonexistent-dir/out.json"),
            "{flag}: {stderr}"
        );
    }
}
