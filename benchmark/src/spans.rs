//! Span trees over recorded trace events.
//!
//! The program emits flat events (category, name, start, duration,
//! track) when handed a `Tracer`; the benchmark records its own spans
//! around every public call into the same recorder, under the category
//! [`BENCH`]. Nothing records a parent, so this module recovers it from
//! interval containment and derives each span's *self time*: its
//! duration minus the part of that interval its children cover.

use faure_trace::Event;

/// Category of the spans the benchmark itself records.
pub const BENCH: &str = "bench";

/// Parent links and self times for a set of events, index-aligned with
/// the slice they were built from.
pub struct SpanTree {
    pub parent: Vec<Option<usize>>,
    pub self_ns: Vec<u64>,
}

fn end(e: &Event) -> u64 {
    e.start_ns + e.dur_ns
}

impl SpanTree {
    /// Builds the tree. A span's parent is the innermost span that
    /// contains its interval and sits on the same track or on the
    /// driver track 0 — worker chunks on tracks 1.. overlap each other
    /// in time, but each belongs to the driver span that waited for it,
    /// never to a sibling worker. Events are recorded when they end, so
    /// of two spans with the same interval the later-recorded one is
    /// the outer.
    pub fn build(events: &[Event]) -> SpanTree {
        let mut order: Vec<usize> = (0..events.len()).collect();
        order.sort_by(|&a, &b| {
            let (ea, eb) = (&events[a], &events[b]);
            ea.start_ns
                .cmp(&eb.start_ns)
                .then(eb.dur_ns.cmp(&ea.dur_ns))
                .then(b.cmp(&a))
        });

        let mut parent = vec![None; events.len()];
        // One stack of open spans per track.
        let mut stacks: Vec<(u32, Vec<usize>)> = Vec::new();
        for &i in &order {
            let e = &events[i];
            let mut best: Option<usize> = None;
            for (track, stack) in &mut stacks {
                if *track == e.track {
                    // Spans of one track nest properly: whatever ended
                    // before this one ends is closed for good.
                    while stack.last().is_some_and(|&top| end(&events[top]) < end(e)) {
                        stack.pop();
                    }
                } else if *track != 0 {
                    continue;
                }
                let container = stack
                    .iter()
                    .rev()
                    .find(|&&s| events[s].start_ns <= e.start_ns && end(&events[s]) >= end(e));
                if let Some(&s) = container {
                    if best.is_none_or(|b| events[s].dur_ns < events[b].dur_ns) {
                        best = Some(s);
                    }
                }
            }
            parent[i] = best;
            match stacks.iter_mut().find(|(t, _)| *t == e.track) {
                Some((_, stack)) => stack.push(i),
                None => stacks.push((e.track, vec![i])),
            }
        }

        // Self time: duration minus the union of the children's
        // intervals (a union, because sibling workers overlap).
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); events.len()];
        for (i, p) in parent.iter().enumerate() {
            if let Some(p) = *p {
                children[p].push((events[i].start_ns, end(&events[i])));
            }
        }
        let self_ns = children
            .into_iter()
            .enumerate()
            .map(|(i, mut kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut reach = events[i].start_ns;
                for (s, e) in kids {
                    let s = s.max(reach);
                    if e > s {
                        covered += e - s;
                        reach = e;
                    }
                }
                events[i].dur_ns.saturating_sub(covered)
            })
            .collect();
        SpanTree { parent, self_ns }
    }
}

/// The events as a Chrome `trace_event` document (Perfetto loads it),
/// each span carrying the index of its parent and its self time.
pub fn perfetto_json(events: &[Event]) -> String {
    let tree = SpanTree::build(events);
    let mut annotated = events.to_vec();
    for (i, e) in annotated.iter_mut().enumerate() {
        if let Some(p) = tree.parent[i] {
            e.args.push(("parent", p.into()));
        }
        e.args.push(("self_ns", tree.self_ns[i].into()));
    }
    faure_trace::chrome::trace_json(&annotated)
}

/// Totals over the spans named `cat`/`name`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Rollup {
    pub count: u64,
    pub dur_ns: u64,
    pub self_ns: u64,
}

/// Sums duration and self time over every `cat`/`name` span that
/// `keep` accepts.
pub fn rollup_where(
    events: &[Event],
    tree: &SpanTree,
    cat: &str,
    name: &str,
    keep: impl Fn(&Event) -> bool,
) -> Rollup {
    let mut r = Rollup::default();
    for (i, e) in events.iter().enumerate() {
        if e.cat == cat && e.name == name && keep(e) {
            r.count += 1;
            r.dur_ns += e.dur_ns;
            r.self_ns += tree.self_ns[i];
        }
    }
    r
}

/// [`rollup_where`] over every span of that name.
pub fn rollup(events: &[Event], tree: &SpanTree, cat: &str, name: &str) -> Rollup {
    rollup_where(events, tree, cat, name, |_| true)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, dur: u64, track: u32) -> Event {
        Event {
            cat: "t",
            name,
            start_ns: start,
            dur_ns: dur,
            track,
            args: Vec::new(),
        }
    }

    #[test]
    fn nested_spans_subtract_children() {
        // Recorded in end order, as the tracer does.
        let events = vec![
            span("leaf", 20, 10, 0),
            span("mid", 10, 50, 0),
            span("root", 0, 100, 0),
        ];
        let tree = SpanTree::build(&events);
        assert_eq!(tree.parent, vec![Some(1), Some(2), None]);
        assert_eq!(tree.self_ns, vec![10, 40, 50]);
    }

    #[test]
    fn siblings_each_count_once() {
        let events = vec![
            span("a", 10, 20, 0),
            span("b", 30, 20, 0),
            span("c", 60, 10, 0),
            span("root", 0, 100, 0),
        ];
        let tree = SpanTree::build(&events);
        assert_eq!(tree.parent, vec![Some(3), Some(3), Some(3), None]);
        assert_eq!(tree.self_ns[3], 50);
        assert_eq!(rollup(&events, &tree, "t", "root").self_ns, 50);
    }

    #[test]
    fn overlapping_workers_are_covered_once() {
        // Two worker chunks overlap on [30, 50); a nested span sits on
        // worker 1's track inside the window worker 2 also covers.
        let events = vec![
            span("inner", 35, 5, 1),
            span("w1", 10, 40, 1),
            span("w2", 30, 40, 2),
            span("pass", 0, 100, 0),
        ];
        let tree = SpanTree::build(&events);
        assert_eq!(tree.parent[0], Some(1), "nested span stays on its track");
        assert_eq!(tree.parent[1], Some(3));
        assert_eq!(tree.parent[2], Some(3));
        // Union of [10,50) and [30,70) is 60, not 80.
        assert_eq!(tree.self_ns[3], 40);
        assert_eq!(tree.self_ns[1], 35);
        assert_eq!(tree.self_ns[2], 40);
    }

    #[test]
    fn equal_intervals_nest_by_record_order() {
        let events = vec![span("inner", 0, 10, 0), span("outer", 0, 10, 0)];
        let tree = SpanTree::build(&events);
        assert_eq!(tree.parent, vec![Some(1), None]);
        assert_eq!(tree.self_ns, vec![10, 0]);
    }

    #[test]
    fn rollup_filters_by_argument() {
        let mut a = span("stratum", 0, 10, 0);
        a.args = vec![("mode", "recompute".into())];
        let mut b = span("stratum", 20, 10, 0);
        b.args = vec![("mode", "append".into())];
        let events = vec![a, b];
        let tree = SpanTree::build(&events);
        let r = rollup_where(&events, &tree, "t", "stratum", |e| {
            e.arg_str("mode") == Some("recompute")
        });
        assert_eq!(r.count, 1);
        assert_eq!(rollup(&events, &tree, "t", "stratum").count, 2);
    }
}
