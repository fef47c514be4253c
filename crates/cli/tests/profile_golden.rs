//! Golden-output test for the `faure profile` text report.
//!
//! The report is driven through [`cmd_profile_with_clock`] with a
//! [`ManualClock`] pinned at 0 and one worker thread, over an all-ground
//! fixture (no c-variables, so no solver-latency sampling): every span
//! duration renders as `0ns` and every counter is deterministic. The
//! few remaining wall-clock figures (`PhaseStats` durations are
//! measured with real `Instant`s regardless of the trace clock) are
//! scrubbed to `<T>` before comparison, so the golden file pins the
//! report's *structure* — sections, column layout, counters, rule
//! listing — not machine speed.
//!
//! To regenerate after an intentional rendering change:
//!
//! ```text
//! GOLDEN_UPDATE=1 cargo test -p faure-cli --test profile_golden
//! ```

use faure_cli::{cmd_profile_with_clock, EngineKnobs};
use faure_trace::ManualClock;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/profile")
}

/// Replaces every `<number><unit>` time token (`ns`, `µs`, `ms`, `s`)
/// with `<T>`, leaving counters and layout intact. A token is a
/// maximal run of digits and dots immediately followed by a unit that
/// is itself followed by a non-alphanumeric boundary, so `500ns`,
/// `1.5µs`, `2.50ms` and `3.00s` scrub while `5 checks` or `q45` do
/// not.
fn scrub_times(s: &str) -> String {
    let b = s.as_bytes();
    let mut out = String::with_capacity(s.len());
    let mut i = 0;
    while i < b.len() {
        if b[i].is_ascii_digit() {
            let start = i;
            while i < b.len() && (b[i].is_ascii_digit() || b[i] == b'.') {
                i += 1;
            }
            let rest = &s[i..];
            let unit = ["ns", "µs", "ms", "s"]
                .into_iter()
                .find(|u| rest.starts_with(u))
                .filter(|u| {
                    rest[u.len()..]
                        .chars()
                        .next()
                        .is_none_or(|c| !c.is_alphanumeric())
                });
            match unit {
                Some(u) => {
                    out.push_str("<T>");
                    i += u.len();
                }
                None => out.push_str(&s[start..i]),
            }
        } else {
            let ch = s[i..].chars().next().expect("in-bounds char");
            out.push(ch);
            i += ch.len_utf8();
        }
    }
    out
}

#[test]
fn profile_report_matches_golden_file() {
    let dir = fixture_dir();
    let program = fs::read_to_string(dir.join("reach.fl")).expect("fixture program");
    let db = fs::read_to_string(dir.join("ground.fdb")).expect("fixture database");
    let report = cmd_profile_with_clock(
        "reach.fl",
        &program,
        "ground.fdb",
        &db,
        // Both pinned: the defaults read `FAURE_THREADS`/`FAURE_SHARDS`.
        &EngineKnobs {
            threads: Some(1),
            shards: Some(1),
            ..EngineKnobs::default()
        },
        Arc::new(ManualClock::new()),
    )
    .expect("profile succeeds");
    let got = scrub_times(&report);

    let expected_path = dir.join("profile.expected");
    if std::env::var_os("GOLDEN_UPDATE").is_some() {
        fs::write(&expected_path, &got).expect("write expected file");
        return;
    }
    let expected = fs::read_to_string(&expected_path)
        .expect("profile.expected missing — run with GOLDEN_UPDATE=1");
    assert_eq!(
        got, expected,
        "profile report drifted from the golden file (GOLDEN_UPDATE=1 regenerates)"
    );
}

#[test]
fn scrub_times_handles_all_units() {
    assert_eq!(
        scrub_times("total 1.23ms (solver 500ns)"),
        "total <T> (solver <T>)"
    );
    assert_eq!(
        scrub_times("p50 \u{2264} 1.5\u{b5}s p99 \u{2264} 3.00s"),
        "p50 \u{2264} <T> p99 \u{2264} <T>"
    );
    // Counters and identifiers survive.
    assert_eq!(
        scrub_times("5 checks, q45, 10 tuples"),
        "5 checks, q45, 10 tuples"
    );
    assert_eq!(scrub_times("0ns"), "<T>");
}
