//! Data-parallel rule evaluation.
//!
//! The depth-0 match list computed by [`Pass::run`] is cut into
//! **fixed-size contiguous chunks** — several per worker — and the
//! chunks are pulled by `std::thread::scope` workers from a shared
//! atomic cursor (work stealing). A fixed balanced split handed each
//! worker exactly one range, so one expensive range (recursive rules
//! concentrate work in the first matches) left the other workers idle;
//! with finer self-scheduled chunks a worker that finishes early simply
//! pulls the next chunk. Each chunk runs the serial path's own join
//! step ([`Pass::join`]) over the shared immutable [`Pass`].
//!
//! Determinism falls out of the chunk *indexing*, not the schedule:
//! workers tag every output with its chunk index, and the driver
//! reassembles partitions — and buffered trace events — in chunk index
//! order. Concatenating the partitions reproduces the serial
//! enumeration order exactly, so the merged tables (conditions
//! included) and the trace stream are bit-identical regardless of which
//! worker ran which chunk.
//!
//! Each worker owns a [`Frame`] — slots, condition accumulator, probe
//! buffers, operator counters, derived rows — and nothing else: no rule pass
//! asks the solver, so a worker has no solver session. What workers
//! share are the run's join-leaf memo and the process-wide condition
//! pool, both keyed by structure, so a race between two workers on one
//! key interns the same id twice.

use super::rule::{Frame, Pass};
use super::EvalError;
use faure_ctable::pool::CondId;
use faure_storage::{OpStats, PreparedRow};
use faure_trace::Event;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Chunks-per-worker granularity. Smaller chunks balance skewed match
/// lists better but cost one cursor increment (and one partition) each;
/// 8 per worker keeps the steal overhead well under a percent while
/// bounding the idle tail to ~1/8 of one worker's share.
const CHUNKS_PER_WORKER: usize = 8;

/// The fewest depth-0 matches a pass hands one worker thread. The
/// floor stops small passes from losing to thread start-up; it is not
/// the point where threads start to win, which no measurement here
/// found. `table4 --churn-only --churn 1000 --churn-updates 100
/// --threads 1,2` (2-core box, PR 24) reads 47 µs per update at one
/// thread and 59 µs at two with this floor, 162 µs at two with a floor
/// of 1: an update's head-bound passes, a few keys each, paid two
/// scoped workers (≈ 55 µs to start and join) per pass. 512 keeps that
/// cost under a tenth of a split pass at ≈ 1.3 µs a match.
const MIN_MATCHES_PER_WORKER: usize = 512;

/// How many threads a pass with `matches` depth-0 matches runs on when
/// it may use `threads`: one per [`MIN_MATCHES_PER_WORKER`] matches, at
/// most `threads`, and serial (1) below two workers' worth.
pub(super) fn workers(threads: usize, matches: usize) -> usize {
    threads.min(matches / MIN_MATCHES_PER_WORKER).max(1)
}

/// The fixed chunk size for `len` matches on `workers` threads:
/// `len / (workers * CHUNKS_PER_WORKER)`, rounded up, never zero.
fn chunk_size(len: usize, workers: usize) -> usize {
    len.div_ceil(workers * CHUNKS_PER_WORKER).max(1)
}

/// Joins the depth-0 `matches` of `pass` on `workers` threads, returning
/// the derived rows as one partition per chunk (in chunk index order).
/// Every worker starts from the driver's frame; worker counters are
/// folded back into it, and the error from the lowest-indexed failing
/// chunk is propagated after all workers have joined.
pub(super) fn join_chunks(
    pass: &Pass<'_>,
    workers: usize,
    matches: &[(u32, CondId)],
    driver: &mut Frame,
) -> Result<Vec<Vec<PreparedRow>>, EvalError> {
    let size = chunk_size(matches.len(), workers);
    let n_chunks = matches.len().div_ceil(size);
    super::publish::publish_parallel(workers, n_chunks);
    let cursor = AtomicUsize::new(0);
    let tracer = &pass.ctx.tracer;

    /// One chunk's output, tagged with its index for in-order reassembly.
    struct ChunkOut {
        chunk_idx: usize,
        rows: Vec<PreparedRow>,
        event: Option<Event>,
    }
    type WorkerResult = (Vec<ChunkOut>, OpStats, Option<(usize, EvalError)>);
    let results: Vec<WorkerResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let (cursor, driver) = (&cursor, &*driver);
                scope.spawn(move || -> WorkerResult {
                    let mut frame = Frame::at_depth_zero(driver);
                    let mut outputs = Vec::new();
                    let mut failure: Option<(usize, EvalError)> = None;
                    // Pull chunks until the cursor runs dry (or this
                    // worker hits an error — its siblings drain the
                    // remaining chunks).
                    loop {
                        let chunk_idx = cursor.fetch_add(1, Ordering::Relaxed);
                        if chunk_idx >= n_chunks {
                            break;
                        }
                        let lo = chunk_idx * size;
                        let hi = (lo + size).min(matches.len());
                        let chunk = &matches[lo..hi];
                        let t_chunk = tracer.now_ns();
                        if let Err(e) = pass.join(0, chunk, &mut frame) {
                            failure = Some((chunk_idx, e));
                            break;
                        }
                        let rows = std::mem::take(&mut frame.out);
                        // Workers never write to the sink directly: the
                        // span is buffered here and submitted by the
                        // driver in chunk index order, keeping the event
                        // stream deterministic. The track is the chunk
                        // index, not an OS thread id, for the same
                        // reason.
                        let event = tracer.is_enabled().then(|| {
                            let t_end = tracer.now_ns();
                            Event {
                                cat: "worker",
                                name: "chunk",
                                start_ns: t_chunk,
                                dur_ns: t_end.saturating_sub(t_chunk),
                                track: chunk_idx as u32 + 1,
                                args: vec![
                                    ("chunk", chunk_idx.into()),
                                    ("matches", chunk.len().into()),
                                    ("rows_out", rows.len().into()),
                                ],
                            }
                        });
                        outputs.push(ChunkOut {
                            chunk_idx,
                            rows,
                            event,
                        });
                    }
                    (outputs, frame.ops, failure)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rule evaluation worker panicked"))
            .collect()
    });

    let mut chunk_outs: Vec<ChunkOut> = Vec::with_capacity(n_chunks);
    let mut first_err: Option<(usize, EvalError)> = None;
    for (outputs, worker_ops, failure) in results {
        driver.ops.absorb(&worker_ops);
        chunk_outs.extend(outputs);
        if let Some((idx, e)) = failure {
            if first_err.as_ref().is_none_or(|(fi, _)| idx < *fi) {
                first_err = Some((idx, e));
            }
        }
    }
    if let Some((_, e)) = first_err {
        return Err(e);
    }
    // Reassemble in chunk index order: the concatenation equals the
    // serial enumeration order, whatever the steal schedule was.
    chunk_outs.sort_by_key(|c| c.chunk_idx);
    let mut partitions = Vec::with_capacity(chunk_outs.len());
    let mut trace_events = Vec::new();
    for c in chunk_outs {
        partitions.push(c.rows);
        trace_events.extend(c.event);
    }
    tracer.submit(trace_events);
    Ok(partitions)
}

#[cfg(test)]
mod tests {
    use super::{chunk_size, workers, CHUNKS_PER_WORKER, MIN_MATCHES_PER_WORKER};

    #[test]
    fn workers_need_a_floor_of_matches_each() {
        let floor = MIN_MATCHES_PER_WORKER;
        // Serial below two workers' worth, whatever `threads` allows.
        for matches in [0, 1, 3, floor, 2 * floor - 1] {
            assert_eq!(workers(4, matches), 1, "{matches} matches");
        }
        // Then one worker per floor's worth, capped at `threads`.
        assert_eq!(workers(4, 2 * floor), 2);
        assert_eq!(workers(4, 3 * floor + 1), 3);
        assert_eq!(workers(4, 100 * floor), 4);
        assert_eq!(workers(2, 100 * floor), 2);
        assert_eq!(workers(1, 100 * floor), 1);
    }

    #[test]
    fn chunk_size_is_fine_grained_and_covers_all_matches() {
        for (len, workers) in [
            (10usize, 4usize),
            (7, 7),
            (5, 2),
            (3, 3),
            (1000, 16),
            (1, 1),
        ] {
            let size = chunk_size(len, workers);
            assert!(size >= 1);
            let n_chunks = len.div_ceil(size);
            // Covers everything…
            assert!(n_chunks * size >= len);
            assert!((n_chunks - 1) * size < len);
            // …and is finer than one chunk per worker once there is
            // enough work to split (ceiling rounding can lose a few
            // chunks off `workers * CHUNKS_PER_WORKER`, never below
            // one steal per worker).
            if len >= workers * CHUNKS_PER_WORKER {
                assert!(
                    n_chunks > workers * (CHUNKS_PER_WORKER / 2),
                    "len={len} workers={workers} n_chunks={n_chunks}"
                );
            }
        }
    }
}
