//! Chrome `trace_event` JSON writer.
//!
//! Emits the "JSON object format" (`{"traceEvents": [...]}`) with
//! complete (`"ph":"X"`) events, loadable in `chrome://tracing` and
//! Perfetto. Timestamps and durations are microseconds with
//! sub-microsecond precision carried as decimals, per the format spec.
//! Each logical track becomes a `tid` with a `thread_name` metadata
//! event (`driver` for track 0, `worker N` for the parallel chunks),
//! so a parallel run renders as one lane per worker.

use crate::json::{self, Str};
use crate::{ArgValue, Event};
use std::fmt;

/// Nanoseconds as µs with 3 decimals, without going through f64
/// (exact).
struct Micros(u64);

impl fmt::Display for Micros {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.0 / 1000, self.0 % 1000) {
            (whole, 0) => write!(f, "{whole}"),
            (whole, frac) => write!(f, "{whole}.{frac:03}"),
        }
    }
}

/// An argument as a JSON value (a non-finite float as `null`).
struct Arg<'a>(&'a ArgValue);

impl fmt::Display for Arg<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            ArgValue::UInt(u) => write!(f, "{u}"),
            ArgValue::Int(i) => write!(f, "{i}"),
            ArgValue::Float(x) if x.is_finite() => write!(f, "{x}"),
            ArgValue::Float(_) => f.write_str("null"),
            ArgValue::Str(s) => write!(f, "{}", Str(s)),
        }
    }
}

/// Renders `events` as a Chrome `trace_event` JSON document.
pub fn trace_json(events: &[Event]) -> String {
    let mut tracks: Vec<u32> = events.iter().map(|e| e.track).collect();
    tracks.sort_unstable();
    tracks.dedup();

    json::object(|doc| {
        doc.array("traceEvents", |evs| {
            for &track in &tracks {
                let name = match track {
                    0 => "driver".to_owned(),
                    n => format!("worker {n}"),
                };
                evs.object(|o| {
                    o.field("ph", Str("M")).field("pid", 1).field("tid", track);
                    o.field("name", Str("thread_name"));
                    o.object("args", |a| {
                        a.field("name", Str(name));
                    });
                });
            }
            for e in events {
                evs.object(|o| {
                    o.field("ph", Str("X"))
                        .field("pid", 1)
                        .field("tid", e.track);
                    o.field("cat", Str(e.cat)).field("name", Str(e.name));
                    o.field("ts", Micros(e.start_ns))
                        .field("dur", Micros(e.dur_ns));
                    if !e.args.is_empty() {
                        o.object("args", |a| {
                            for (k, v) in &e.args {
                                a.field(k, Arg(v));
                            }
                        });
                    }
                });
            }
        });
        doc.field("displayTimeUnit", Str("ns"));
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(track: u32, start_ns: u64, dur_ns: u64) -> Event {
        Event {
            cat: "eval",
            name: "stratum",
            start_ns,
            dur_ns,
            track,
            args: vec![],
        }
    }

    #[test]
    fn emits_complete_events_in_microseconds() {
        let json = trace_json(&[ev(0, 1_500, 2_000)]);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ts\":1.500"));
        assert!(json.contains("\"dur\":2"));
        assert!(json.contains("\"displayTimeUnit\":\"ns\""));
    }

    #[test]
    fn names_tracks_via_metadata_events() {
        let json = trace_json(&[ev(0, 0, 1), ev(2, 0, 1)]);
        assert!(json.contains("\"ph\":\"M\""));
        assert!(json.contains("\"name\":\"driver\""));
        assert!(json.contains("\"name\":\"worker 2\""));
        // one metadata event per distinct track, before the spans
        assert_eq!(json.matches("\"thread_name\"").count(), 2);
    }

    #[test]
    fn serialises_typed_args() {
        let mut e = ev(0, 0, 1);
        e.args = vec![
            ("rows", ArgValue::UInt(7)),
            ("delta", ArgValue::Int(-2)),
            ("rate", ArgValue::Float(0.5)),
            ("head", ArgValue::Str("R\"x".into())),
        ];
        let json = trace_json(&[e]);
        assert!(json.contains("\"rows\":7"));
        assert!(json.contains("\"delta\":-2"));
        assert!(json.contains("\"rate\":0.5"));
        assert!(json.contains("\"head\":\"R\\\"x\""));
    }

    #[test]
    fn empty_input_is_still_valid() {
        assert_eq!(
            trace_json(&[]),
            "{\"traceEvents\":[],\"displayTimeUnit\":\"ns\"}"
        );
    }
}
