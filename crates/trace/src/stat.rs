//! The stat table: every counter the pipeline keeps is declared once,
//! next to the struct field that counts it, and every view is derived
//! from that declaration.
//!
//! A statistics struct lists its scalar fields with [`stats!`](crate::stats) — JSON
//! key, Prometheus family, [`Kind`], help text — and gets, without
//! naming a field again: its fold ([`absorb`]), its JSON fields
//! ([`write_fields`]), its trace-event arguments ([`args`]) and its
//! publication into the process-global registry ([`publish`] /
//! [`mirror`], through handles resolved once per struct, so a publish
//! is atomic adds and no lookup). Adding a counter is one struct field
//! and one table row.

use crate::json::Obj;
use crate::telemetry::{global, Counter, Gauge};
use crate::ArgValue;
use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

/// What a stat measures — which fixes how it folds, publishes and
/// renders.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// An event count: folds by saturating add, a Prometheus counter.
    Counter,
    /// A level: folding keeps the larger, a Prometheus gauge.
    Gauge,
    /// A [`Duration`] that accumulates like a counter and renders as
    /// integer nanoseconds (key `…_ns`, family `…_ns_total`).
    Nanos,
}

/// One declared stat of the struct `S`.
#[derive(Debug)]
pub struct Stat<S> {
    /// Key in every JSON view.
    pub key: &'static str,
    /// Prometheus family; empty for a stat the registry does not carry.
    pub family: &'static str,
    /// See [`Kind`].
    pub kind: Kind,
    /// One-line description (the family's `# HELP` line).
    pub help: &'static str,
    /// Reads the field.
    pub get: fn(&S) -> u64,
    /// Overwrites the field.
    pub set: fn(&mut S, u64),
}

impl<S> Stat<S> {
    /// Whether the registry carries this stat.
    pub fn published(&self) -> bool {
        !self.family.is_empty()
    }
}

/// A struct whose scalar statistics are declared in a table (see
/// [`stats!`](crate::stats)).
pub trait Stats: Sized + 'static {
    /// The table, in rendering order.
    const STATS: &'static [Stat<Self>];
    /// The struct's registry handles (a static `stats!` generates).
    #[doc(hidden)]
    fn handles() -> &'static Handles;
}

/// A field type a stat can live in.
pub trait StatValue {
    /// The field as a count (a [`Duration`] in nanoseconds), clamped.
    fn to_u64(&self) -> u64;
    /// The field holding `v`, clamped.
    fn from_u64(v: u64) -> Self;
}

impl StatValue for u64 {
    fn to_u64(&self) -> u64 {
        *self
    }
    fn from_u64(v: u64) -> Self {
        v
    }
}

impl StatValue for usize {
    fn to_u64(&self) -> u64 {
        *self as u64
    }
    fn from_u64(v: u64) -> Self {
        usize::try_from(v).unwrap_or(usize::MAX)
    }
}

impl StatValue for Duration {
    fn to_u64(&self) -> u64 {
        u64::try_from(self.as_nanos()).unwrap_or(u64::MAX)
    }
    fn from_u64(v: u64) -> Self {
        Duration::from_nanos(v)
    }
}

/// Declares the stat table of a struct, one row per scalar field:
///
/// ```
/// struct Doors { opened: u64, ajar: usize }
/// faure_trace::stats!(Doors {
///     opened: Counter, "opened", "doors_opened_total", "Doors opened.";
///     ajar: Gauge, "ajar", "", "Doors standing open (not published).";
/// });
/// ```
#[macro_export]
macro_rules! stats {
    ($ty:ty { $($field:ident: $kind:ident, $key:literal, $family:literal, $help:literal;)* }) => {
        impl $crate::stat::Stats for $ty {
            const STATS: &'static [$crate::stat::Stat<Self>] = &[$($crate::stat::Stat {
                key: $key,
                family: $family,
                kind: $crate::stat::Kind::$kind,
                help: $help,
                get: |s| $crate::stat::StatValue::to_u64(&s.$field),
                set: |s, v| s.$field = $crate::stat::StatValue::from_u64(v),
            }),*];
            fn handles() -> &'static $crate::stat::Handles {
                static HANDLES: $crate::stat::Handles = $crate::stat::Handles::unresolved();
                &HANDLES
            }
        }
    };
}

/// Folds `other` into `into`: counters and times add, saturating — a
/// long-running process clamps at `u64::MAX` rather than wrap back
/// towards zero (a wrapped counter reads as "cheap rule" in a profile,
/// the worst possible lie); a gauge keeps the larger value.
pub fn absorb<S: Stats>(into: &mut S, other: &S) {
    for stat in S::STATS {
        let (a, b) = ((stat.get)(into), (stat.get)(other));
        let folded = match stat.kind {
            Kind::Counter | Kind::Nanos => a.saturating_add(b),
            Kind::Gauge => a.max(b),
        };
        (stat.set)(into, folded);
    }
}

/// Writes `"key":value` for every stat of `s` that `keep` accepts, in
/// table order.
pub fn write_fields<S: Stats>(o: &mut Obj<'_>, s: &S, keep: impl Fn(&Stat<S>) -> bool) {
    for stat in S::STATS.iter().filter(|stat| keep(stat)) {
        o.field(stat.key, (stat.get)(s));
    }
}

/// Every stat of `s` as a trace-event argument list.
pub fn args<S: Stats>(s: &S) -> Vec<(&'static str, ArgValue)> {
    S::STATS
        .iter()
        .map(|stat| (stat.key, (stat.get)(s).into()))
        .collect()
}

/// Help text of every family resolved so far.
static HELP: Mutex<BTreeMap<&'static str, &'static str>> = Mutex::new(BTreeMap::new());

/// The help text a stat table declares for `family`, once a record of
/// its struct has been published — the family's `# HELP` line.
pub fn help(family: &str) -> Option<&'static str> {
    HELP.lock()
        .expect("stat help poisoned")
        .get(family)
        .copied()
}

#[derive(Debug)]
enum Handle {
    Counter(Counter),
    Gauge(Gauge),
    Unpublished,
}

/// One struct's handles into the [global registry](global), one per
/// table row, resolved at the first publish.
#[derive(Debug)]
pub struct Handles(OnceLock<Vec<Handle>>);

impl Handles {
    /// Handles yet to be resolved.
    pub const fn unresolved() -> Self {
        Handles(OnceLock::new())
    }
}

fn publish_with<S: Stats>(s: &S, counter: fn(&Counter, u64)) {
    let resolve = || {
        let handle = |stat: &Stat<S>| {
            if !stat.published() {
                return Handle::Unpublished;
            }
            let mut help = HELP.lock().expect("stat help poisoned");
            help.insert(stat.family, stat.help);
            match stat.kind {
                Kind::Gauge => Handle::Gauge(global().gauge(stat.family)),
                Kind::Counter | Kind::Nanos => Handle::Counter(global().counter(stat.family)),
            }
        };
        S::STATS.iter().map(handle).collect()
    };
    for (stat, handle) in S::STATS.iter().zip(S::handles().0.get_or_init(resolve)) {
        let v = (stat.get)(s);
        match handle {
            Handle::Counter(c) => counter(c, v),
            Handle::Gauge(g) => g.set(i64::try_from(v).unwrap_or(i64::MAX)),
            Handle::Unpublished => {}
        }
    }
}

/// Publishes one increment record into the global registry: counters
/// and times add, gauges are set.
pub fn publish<S: Stats>(s: &S) {
    publish_with(s, Counter::add);
}

/// Mirrors a cumulative record kept elsewhere: counters are raised to
/// its values ([`Counter::sync_to`]), gauges are set.
pub fn mirror<S: Stats>(s: &S) {
    publish_with(s, Counter::sync_to);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{json, prom};

    #[derive(Default)]
    struct Doors {
        opened: u64,
        ajar: usize,
        held: Duration,
        slammed: u64,
    }

    crate::stats!(Doors {
        opened: Counter, "opened", "doors_opened_total", "Doors opened.";
        ajar: Gauge, "ajar", "doors_ajar", "Doors standing open.";
        held: Nanos, "held_ns", "doors_held_ns_total", "Time doors were held.";
        slammed: Counter, "slammed", "", "Doors slammed (not published).";
    });

    /// "One edit": the table above is all that names a stat, and it
    /// reaches the JSON object, the Prometheus text and the JSONL line
    /// through the renderers as they stand.
    #[test]
    fn a_declared_stat_reaches_every_view() {
        let doors = Doors {
            opened: 3,
            ajar: 2,
            held: Duration::from_nanos(1_500),
            slammed: 9,
        };
        let doc = json::object(|o| write_fields(o, &doors, |_| true));
        assert_eq!(
            doc,
            "{\"opened\":3,\"ajar\":2,\"held_ns\":1500,\"slammed\":9}"
        );
        assert_eq!(args(&doors)[2], ("held_ns", ArgValue::UInt(1_500)));

        // `Doors` is this test's alone, so its families in the global
        // registry move only here.
        publish(&doors);
        publish(&doors);
        let text = prom::render_text(&global().snapshot());
        for line in [
            "# HELP doors_opened_total Doors opened.",
            "# TYPE doors_opened_total counter",
            "doors_opened_total 6",
            "# TYPE doors_ajar gauge",
            "doors_ajar 2",
            "doors_held_ns_total 3000",
        ] {
            assert!(
                text.lines().any(|l| l == line),
                "missing `{line}` in {text}"
            );
        }
        assert!(!text.contains("slammed"), "{text}");
        let line = prom::render_jsonl(&global().snapshot());
        assert!(line.contains("\"doors_opened_total\":6"), "{line}");
        assert!(line.contains("\"doors_ajar\":2"), "{line}");

        // Mirroring raises a counter to a cumulative value; a stale
        // mirror write must not regress it.
        for opened in [10, 7] {
            mirror(&Doors {
                opened,
                ..Doors::default()
            });
        }
        assert_eq!(global().counter("doors_opened_total").get(), 10);
    }

    #[test]
    fn absorb_saturates_and_gauges_keep_the_larger() {
        let mut a = Doors {
            opened: u64::MAX - 1,
            ajar: 4,
            held: Duration::from_nanos(u64::MAX),
            slammed: 1,
        };
        let b = Doors {
            opened: 5,
            ajar: 2,
            held: Duration::from_nanos(7),
            slammed: 2,
        };
        absorb(&mut a, &b);
        assert_eq!(a.opened, u64::MAX);
        assert_eq!(a.ajar, 4);
        assert_eq!(a.held, Duration::from_nanos(u64::MAX));
        assert_eq!(a.slammed, 3);
    }
}
