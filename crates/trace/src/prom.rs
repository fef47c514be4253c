//! Prometheus text exposition (format version 0.0.4) and the scrape
//! endpoint.
//!
//! [`render_text`] turns a [`Snapshot`] into the plain-text format
//! every Prometheus-compatible scraper understands: counters and
//! gauges as single samples, the 32-bucket power-of-two
//! [`Histogram`]s as cumulative `_bucket` series with `le` upper
//! bounds in nanoseconds plus `_sum`/`_count`. [`render_jsonl`] is the
//! same snapshot as one JSON line, for the `--telemetry-jsonl`
//! append-only log.
//!
//! [`serve`] binds a stdlib `TcpListener` and answers `GET /metrics`
//! (text exposition of the registry, snapshotted per request) and
//! `GET /healthz` (`ok`) from a background thread. The handler is a
//! deliberately minimal HTTP/1.1 responder — one request per
//! connection, `Connection: close` — because its only clients are
//! scrapers and `curl`.

use crate::hist::{Histogram, BUCKETS};
use crate::json;
use crate::telemetry::{Key, Registry, Snapshot};
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};

/// Content-Type header value for the text exposition format.
pub const CONTENT_TYPE: &str = "text/plain; version=0.0.4; charset=utf-8";

/// Escapes a label value per the exposition format (backslash, quote,
/// newline).
fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Renders `{k="v",...}` for a key's labels, with `extra` (used for
/// `le`) appended; empty string when there are no labels at all.
fn label_block(key: &Key, extra: Option<(&str, &str)>) -> String {
    let mut parts: Vec<String> = key
        .labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{v}\""));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

/// Renders one metric kind: per family (names arrive sorted, so a
/// family's members are contiguous) its `# HELP` line when a stat table
/// declares it and its `# TYPE` line, then `sample` for every member.
fn render_kind<V>(
    out: &mut String,
    kind: &str,
    metrics: &[(Key, V)],
    sample: impl Fn(&mut String, &Key, &V),
) {
    let mut last = None;
    for (key, v) in metrics {
        if last != Some(key.name) {
            if let Some(help) = crate::stat::help(key.name) {
                let _ = writeln!(out, "# HELP {} {help}", key.name);
            }
            let _ = writeln!(out, "# TYPE {} {kind}", key.name);
            last = Some(key.name);
        }
        sample(out, key, v);
    }
}

/// Renders a snapshot as Prometheus text exposition v0.0.4.
pub fn render_text(snap: &Snapshot) -> String {
    let mut out = String::with_capacity(4096);
    render_kind(&mut out, "counter", &snap.counters, render_sample);
    render_kind(&mut out, "gauge", &snap.gauges, render_sample);
    render_kind(&mut out, "histogram", &snap.hists, render_histogram);
    out
}

fn render_sample(out: &mut String, key: &Key, v: &impl std::fmt::Display) {
    let _ = writeln!(out, "{}{} {v}", key.name, label_block(key, None));
}

/// The cumulative `_bucket` / `_sum` / `_count` series for one
/// histogram: all 32 power-of-two buckets, the last rendered as
/// `le="+Inf"` (its upper bound is open).
fn render_histogram(out: &mut String, key: &Key, h: &Histogram) {
    let counts = h.counts();
    let mut cumulative = 0u64;
    for (i, c) in counts.iter().enumerate() {
        cumulative = cumulative.saturating_add(*c);
        let le = if i + 1 == BUCKETS {
            "+Inf".to_owned()
        } else {
            Histogram::bucket_bounds(i).1.to_string()
        };
        let _ = writeln!(
            out,
            "{}_bucket{} {cumulative}",
            key.name,
            label_block(key, Some(("le", &le)))
        );
    }
    let (name, labels) = (key.name, label_block(key, None));
    let _ = writeln!(out, "{name}_sum{labels} {}", h.sum_ns());
    let _ = writeln!(out, "{name}_count{labels} {}", h.count());
}

/// Flattened metric name for the JSONL rendering: `name` or
/// `name{k="v",...}` — the same identity the text exposition uses.
fn flat_name(key: &Key) -> String {
    format!("{}{}", key.name, label_block(key, None))
}

/// Renders a snapshot as one JSON line (no trailing newline):
/// `{"uptime_s":..,"counters":{..},"gauges":{..},"histograms":{..}}`.
/// Histograms are summarised as count/sum/mean — the full bucket
/// vectors live in the Prometheus endpoint; the JSONL log is for
/// cheap time-series plotting.
pub fn render_jsonl(snap: &Snapshot) -> String {
    json::object(|o| {
        o.field("uptime_s", format_args!("{:.3}", snap.uptime.as_secs_f64()));
        o.object("counters", |c| {
            for (key, v) in &snap.counters {
                c.field(&flat_name(key), v);
            }
        });
        o.object("gauges", |g| {
            for (key, v) in &snap.gauges {
                g.field(&flat_name(key), v);
            }
        });
        o.object("histograms", |hs| {
            for (key, h) in &snap.hists {
                hs.object(&flat_name(key), |o| {
                    o.field("count", h.count())
                        .field("sum_ns", h.sum_ns())
                        .field("mean_ns", h.mean_ns());
                });
            }
        });
    })
}

/// Handle to a running scrape endpoint. The background thread lives
/// for the rest of the process (scrapers may connect at any time);
/// there is deliberately no shutdown — process exit is the shutdown.
#[derive(Debug)]
pub struct TelemetryServer {
    /// The actually-bound address (resolves port 0 to the real port).
    pub addr: SocketAddr,
}

/// Binds `addr` (e.g. `127.0.0.1:9090`) and serves `/metrics` and
/// `/healthz` over the given registry from a background thread.
pub fn serve(addr: &str, registry: &'static Registry) -> std::io::Result<TelemetryServer> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    std::thread::Builder::new()
        .name("faure-telemetry".into())
        .spawn(move || {
            for stream in listener.incoming() {
                let Ok(stream) = stream else { continue };
                // One slow or broken scraper must not wedge the
                // endpoint forever; errors just drop the connection.
                let _ = handle(stream, registry);
            }
        })?;
    Ok(TelemetryServer { addr: local })
}

fn handle(stream: TcpStream, registry: &Registry) -> std::io::Result<()> {
    let _ = stream.set_read_timeout(Some(std::time::Duration::from_secs(5)));
    let mut reader = BufReader::new(stream);
    let mut request_line = String::new();
    reader.read_line(&mut request_line)?;
    // Drain the headers; the responder ignores them.
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 || line == "\r\n" || line == "\n" {
            break;
        }
    }
    let path = request_line.split_whitespace().nth(1).unwrap_or("/");
    let (status, ctype, body) = match path {
        "/metrics" => ("200 OK", CONTENT_TYPE, render_text(&registry.snapshot())),
        "/healthz" => ("200 OK", "text/plain; charset=utf-8", "ok\n".to_owned()),
        _ => (
            "404 Not Found",
            "text/plain; charset=utf-8",
            "not found\n".to_owned(),
        ),
    };
    let mut stream = reader.into_inner();
    write!(
        stream,
        "HTTP/1.1 {status}\r\nContent-Type: {ctype}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::Registry;
    use std::io::Read;

    fn get(addr: SocketAddr, path: &str) -> String {
        let mut s = TcpStream::connect(addr).unwrap();
        write!(s, "GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        let mut buf = String::new();
        s.read_to_string(&mut buf).unwrap();
        buf
    }

    fn leaked_registry() -> &'static Registry {
        Box::leak(Box::new(Registry::new()))
    }

    #[test]
    fn text_format_renders_all_metric_kinds() {
        let reg = Registry::new();
        reg.counter("faure_probes_total").add(42);
        reg.counter_with("faure_strata_total", &[("mode", "append")])
            .add(3);
        reg.gauge("faure_threads").set(4);
        reg.histogram("faure_latency_ns").observe_ns(100);
        reg.histogram("faure_latency_ns").observe_ns(5);
        let text = render_text(&reg.snapshot());
        assert!(text.contains("# TYPE faure_probes_total counter"), "{text}");
        assert!(text.contains("faure_probes_total 42"), "{text}");
        assert!(
            text.contains("faure_strata_total{mode=\"append\"} 3"),
            "{text}"
        );
        assert!(text.contains("# TYPE faure_threads gauge"), "{text}");
        assert!(text.contains("# TYPE faure_latency_ns histogram"), "{text}");
        assert!(text.contains("faure_latency_ns_count 2"), "{text}");
        assert!(text.contains("faure_latency_ns_sum 105"), "{text}");
        assert!(
            text.contains("faure_latency_ns_bucket{le=\"+Inf\"} 2"),
            "{text}"
        );
        // Cumulative: the 5ns sample is in le="8" and every later bucket.
        assert!(
            text.contains("faure_latency_ns_bucket{le=\"8\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("faure_latency_ns_bucket{le=\"128\"} 2"),
            "{text}"
        );
        // 32 bucket lines + sum + count for the one histogram.
        assert_eq!(
            text.lines()
                .filter(|l| l.starts_with("faure_latency_ns_bucket"))
                .count(),
            BUCKETS
        );
        // The process uptime gauge is always present.
        assert!(text.contains("faure_process_uptime_seconds"), "{text}");
    }

    #[test]
    fn type_headers_appear_once_per_family() {
        let reg = Registry::new();
        reg.counter_with("fam_total", &[("k", "a")]).inc();
        reg.counter_with("fam_total", &[("k", "b")]).inc();
        let text = render_text(&reg.snapshot());
        assert_eq!(
            text.matches("# TYPE fam_total counter").count(),
            1,
            "{text}"
        );
    }

    #[test]
    fn label_values_are_escaped() {
        let reg = Registry::new();
        reg.counter_with("esc_total", &[("p", "a\"b\\c\nd")]).inc();
        let text = render_text(&reg.snapshot());
        assert!(
            text.contains("esc_total{p=\"a\\\"b\\\\c\\nd\"} 1"),
            "{text}"
        );
    }

    #[test]
    fn jsonl_line_is_single_line_json() {
        let reg = Registry::new();
        reg.counter("c_total").add(7);
        reg.histogram("h_ns").observe_ns(10);
        let line = render_jsonl(&reg.snapshot());
        assert!(!line.contains('\n'));
        assert!(line.starts_with("{\"uptime_s\":"), "{line}");
        assert!(line.contains("\"c_total\":7"), "{line}");
        assert!(
            line.contains("\"h_ns\":{\"count\":1,\"sum_ns\":10,\"mean_ns\":10}"),
            "{line}"
        );
    }

    #[test]
    fn server_answers_metrics_healthz_and_404() {
        let reg = leaked_registry();
        reg.counter("faure_smoke_total").add(9);
        let server = serve("127.0.0.1:0", reg).unwrap();
        let metrics = get(server.addr, "/metrics");
        assert!(metrics.starts_with("HTTP/1.1 200 OK"), "{metrics}");
        assert!(metrics.contains("version=0.0.4"), "{metrics}");
        assert!(metrics.contains("faure_smoke_total 9"), "{metrics}");
        let health = get(server.addr, "/healthz");
        assert!(health.starts_with("HTTP/1.1 200 OK"), "{health}");
        assert!(health.ends_with("ok\n"), "{health}");
        let missing = get(server.addr, "/nope");
        assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");
    }

    #[test]
    fn scrapes_are_monotone_across_publishes() {
        let reg = leaked_registry();
        let server = serve("127.0.0.1:0", reg).unwrap();
        reg.counter("mono_total").add(1);
        let first = get(server.addr, "/metrics");
        reg.counter("mono_total").add(2);
        let second = get(server.addr, "/metrics");
        let value = |text: &str| -> u64 {
            text.lines()
                .find(|l| l.starts_with("mono_total "))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
                .unwrap()
        };
        assert_eq!(value(&first), 1);
        assert_eq!(value(&second), 3);
    }
}
