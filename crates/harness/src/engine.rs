//! The work-sharing core: a chunked work queue over scoped threads
//! with a run-order merge.
//!
//! Workers claim contiguous chunks of the item range from an atomic
//! cursor, compute each item, and tag every result with its item index.
//! After the scope joins, results are sorted back into item order —
//! which makes the merged output a pure function of the item list,
//! independent of thread count and scheduling.

use iba_obs::ObsRecorder;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Worker-thread count: `IBA_THREADS` if set (and nonzero), otherwise
/// the machine's available parallelism.
#[must_use]
pub fn threads_from_env() -> usize {
    std::env::var("IBA_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        })
}

/// Chunk size for `n` items over `t` workers: small enough that a slow
/// item cannot strand a large tail behind one worker, large enough to
/// amortize the atomic claim.
fn chunk_size(n: usize, t: usize) -> usize {
    (n / (t * 4)).max(1)
}

/// Runs `f` over every item, sharded across `threads` workers, and
/// returns the results **in item order** — byte-identical regardless of
/// `threads` — together with the workers' merged recorder.
///
/// `f` receives `(item_index, &item, &mut recorder)`. Each worker owns
/// an [`ObsRecorder`] built by `mk` and passed to every `f` call it
/// executes; the worker recorders are merged (commutatively — see
/// `Metrics::merge`) into one more built by `mk`. A caller that keeps
/// no metrics passes `ObsRecorder::new` and ignores the merged
/// recorder. With `threads <= 1` (or a single item) everything runs
/// inline on the calling thread, which is also the reference order the
/// parallel path is sorted back into, and that worker's recorder is
/// returned as is.
///
/// The merged recorder additionally counts every run in
/// `harness_runs_total` and reports the worker count in
/// `harness_threads`. Trace rings are per-worker and deliberately not
/// merged.
///
/// When `mk` enables span profiling (e.g. `|| { let mut r =
/// ObsRecorder::new(); r.spans = Some(SpanRecorder::with_epoch(cap,
/// epoch)); r }` with one shared epoch, so the merged span timeline has
/// aligned tracks), each worker's lifetime is wrapped in a
/// `harness.worker` span and every claimed work chunk in a
/// `harness.chunk` span. Span data stays out of the metrics registry
/// (see `SpanRecorder::export_into`), so the merged **metrics** remain
/// byte-identical at any thread count; the span *timeline* is
/// wall-clock data and varies by nature.
pub fn run_sweep<T, R, M, F>(items: &[T], threads: usize, mk: M, f: F) -> (Vec<R>, ObsRecorder)
where
    T: Sync,
    R: Send,
    M: Fn() -> ObsRecorder + Sync,
    F: Fn(usize, &T, &mut ObsRecorder) -> R + Sync,
{
    use iba_obs::Recorder as _;
    let threads = threads.clamp(1, items.len().max(1));
    let next = AtomicUsize::new(0);
    let chunk = if threads == 1 {
        items.len().max(1)
    } else {
        chunk_size(items.len(), threads)
    };
    // One worker's life: claim chunks from the shared cursor until it
    // passes the end, tagging every result with its item index.
    let worker = || {
        let mut rec = mk();
        rec.span_begin("harness.worker");
        let mut out = Vec::new();
        loop {
            let start = next.fetch_add(chunk, Ordering::Relaxed);
            if start >= items.len() {
                break;
            }
            let end = (start + chunk).min(items.len());
            rec.span_begin("harness.chunk");
            for (i, item) in items.iter().enumerate().take(end).skip(start) {
                rec.metrics.harness_runs.incr();
                out.push((i, f(i, item, &mut rec)));
            }
            rec.span_end("harness.chunk");
        }
        rec.span_end("harness.worker");
        (out, rec)
    };
    let (mut indexed, mut merged) = if threads == 1 {
        worker()
    } else {
        let per_worker: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads).map(|_| s.spawn(worker)).collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("sweep worker panicked"))
                .collect()
        });
        let mut merged = mk();
        let mut indexed = Vec::new();
        for (part, rec) in per_worker {
            indexed.extend(part);
            merged.merge(&rec);
        }
        (indexed, merged)
    };
    indexed.sort_by_key(|&(i, _)| i);
    merged.metrics.harness_threads.set(threads as i64);
    (indexed.into_iter().map(|(_, r)| r).collect(), merged)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_override_wins() {
        // Not a parallel test: mutating the environment is only safe
        // while no sibling thread reads it.
        std::env::set_var("IBA_THREADS", "3");
        assert_eq!(threads_from_env(), 3);
        std::env::set_var("IBA_THREADS", "0");
        assert!(threads_from_env() >= 1);
        std::env::remove_var("IBA_THREADS");
        assert!(threads_from_env() >= 1);
    }

    #[test]
    fn results_come_back_in_item_order_at_any_thread_count() {
        let items: Vec<u64> = (0..103).collect();
        let square = |i: usize, x: &u64, _: &mut ObsRecorder| (i, x * x);
        let (reference, _) = run_sweep(&items, 1, ObsRecorder::new, square);
        for threads in [2, 3, 8, 64] {
            let (got, _) = run_sweep(&items, threads, ObsRecorder::new, square);
            assert_eq!(got, reference, "diverged at {threads} threads");
        }
    }

    #[test]
    fn empty_and_singleton_sweeps() {
        let empty: Vec<u32> = Vec::new();
        let (none, _) = run_sweep(&empty, 8, ObsRecorder::new, |_, x, _| *x);
        assert!(none.is_empty());
        let (one, _) = run_sweep(&[7u32], 8, ObsRecorder::new, |_, x, _| x + 1);
        assert_eq!(one, vec![8]);
    }

    #[test]
    fn span_enabled_sweep_profiles_workers_and_chunks() {
        use iba_obs::SpanRecorder;
        let items: Vec<u64> = (0..20).collect();
        let epoch = std::time::Instant::now();
        let mk = || {
            let mut r = ObsRecorder::new();
            r.spans = Some(SpanRecorder::with_epoch(256, epoch));
            r
        };
        for threads in [1usize, 4] {
            let (results, merged) = run_sweep(&items, threads, mk, |_, x, _| x + 1);
            assert_eq!(results.len(), 20);
            let spans = merged.spans.as_ref().expect("span profiling enabled");
            let recs = spans.records();
            // Worker lifecycle and at least one chunk show up.
            assert!(recs.iter().any(|r| r.name == "harness.worker"));
            assert!(recs.iter().any(|r| r.name == "harness.chunk"));
            // Begin/end counts balance per name.
            for name in ["harness.worker", "harness.chunk"] {
                let begins = recs
                    .iter()
                    .filter(|r| r.name == name && r.phase == iba_obs::SpanPhase::Begin)
                    .count();
                let ends = recs
                    .iter()
                    .filter(|r| r.name == name && r.phase == iba_obs::SpanPhase::End)
                    .count();
                assert_eq!(begins, ends, "unbalanced {name} spans");
            }
            // Metrics stay span-free: wall-clock data is opt-in only.
            assert_eq!(merged.metrics.span_records.get(), 0);
        }
    }

    #[test]
    fn recorded_sweep_merges_worker_registries() {
        let items: Vec<u64> = (1..=100).collect();
        let run = |threads| {
            run_sweep(&items, threads, ObsRecorder::new, |_, x, rec| {
                // Deterministic per-item metric activity.
                for _ in 0..*x {
                    rec.metrics.sim_events.incr();
                }
                rec.metrics.arb_queue_depth.observe(*x);
                *x
            })
        };
        let (r1, m1) = run(1);
        let (r8, m8) = run(8);
        assert_eq!(r1, r8);
        assert_eq!(m1.metrics.harness_runs.get(), 100);
        assert_eq!(m8.metrics.harness_runs.get(), 100);
        assert_eq!(m1.metrics.sim_events.get(), 5050);
        assert_eq!(m8.metrics.sim_events.get(), 5050);
        assert_eq!(
            m1.metrics.arb_queue_depth.count(),
            m8.metrics.arb_queue_depth.count()
        );
        assert_eq!(m1.metrics.harness_threads.get(), 1);
        assert_eq!(m8.metrics.harness_threads.get(), 8);
    }
}
