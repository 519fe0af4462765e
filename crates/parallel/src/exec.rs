//! The ordered executor and the degradation ladder every parallel path
//! shares.
//!
//! Block-parallel LZSS is one map over independent blocks plus an ordered
//! concatenation. [`ordered_map`] is that map: workers claim items from an
//! atomic index while the caller's thread consumes their results strictly
//! in index order as they land, so the ordered stage (Deflate stitching,
//! frame layout, output assembly) overlaps the parallel one. [`ladder`] is
//! the one fault ladder the compress and decode work closures run in.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

use lzfpga_faults::{Failpoints, FailureReport, InjectedFault};
use lzfpga_telemetry::{frame_span, span_args, stage_span, SpanTimer};

/// Map `work` over `items` on up to `workers` threads (0 = all cores) and
/// hand each result to `consume` on the caller's thread, in index order,
/// as soon as it and every earlier result have landed.
///
/// Each worker builds its own state with `init(worker)` and threads it
/// through every item it claims; the states come back in worker order so
/// the caller can merge counters, ledgers and spans. With one worker (or
/// at most one item) everything runs inline on the caller's thread.
///
/// The first failure in index order ends the map: `consume` sees nothing
/// from it on, and once it is known no worker claims an item past it. A
/// panic escaping `work` is re-raised on the caller's thread.
pub fn ordered_map<T, S, R, E>(
    items: &[T],
    workers: usize,
    init: impl Fn(usize) -> S + Sync,
    work: impl Fn(&mut S, usize, &T) -> Result<R, E> + Sync,
    mut consume: impl FnMut(usize, R),
) -> (Vec<S>, Result<(), (usize, E)>)
where
    T: Sync,
    S: Send,
    R: Send,
    E: Send,
{
    let n = items.len();
    let workers = match workers {
        0 => std::thread::available_parallelism().map_or(4, |w| w.get()),
        w => w,
    }
    .clamp(1, n.max(1));
    if workers == 1 {
        let mut state = init(0);
        for (i, item) in items.iter().enumerate() {
            match work(&mut state, i, item) {
                Ok(r) => consume(i, r),
                Err(e) => return (vec![state], Err((i, e))),
            }
        }
        return (vec![state], Ok(()));
    }

    let shared = Shared {
        next: AtomicUsize::new(0),
        stop: AtomicUsize::new(n),
        slots: Mutex::new((0..n).map(|_| None).collect()),
        ready: Condvar::new(),
        panicked: AtomicBool::new(false),
    };
    let (shared, init, work) = (&shared, &init, &work);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                s.spawn(move || {
                    let _alarm = PanicAlarm(shared);
                    let mut state = init(w);
                    loop {
                        let i = shared.next.fetch_add(1, Ordering::Relaxed);
                        if i >= n || i > shared.stop.load(Ordering::Relaxed) {
                            break state;
                        }
                        let result = work(&mut state, i, &items[i]);
                        if result.is_err() {
                            shared.stop.fetch_min(i, Ordering::Relaxed);
                        }
                        shared.slots.lock().expect("slot lock")[i] = Some(result);
                        shared.ready.notify_all();
                    }
                })
            })
            .collect();

        let mut outcome = Ok(());
        for i in 0..n {
            let mut slots = shared.slots.lock().expect("slot lock");
            let result = loop {
                match slots[i].take() {
                    Some(result) => break Some(result),
                    None if shared.panicked.load(Ordering::Relaxed) => break None,
                    None => slots = shared.ready.wait(slots).expect("slot lock"),
                }
            };
            drop(slots);
            match result {
                Some(Ok(r)) => consume(i, r),
                Some(Err(e)) => {
                    outcome = Err((i, e));
                    break;
                }
                None => break,
            }
        }
        let join = |h: std::thread::ScopedJoinHandle<'_, S>| match h.join() {
            Ok(state) => state,
            Err(panic) => std::panic::resume_unwind(panic),
        };
        (handles.into_iter().map(join).collect(), outcome)
    })
}

/// What the workers and the consumer of one [`ordered_map`] share. Results
/// travel through the slot mutex, so the atomics only steer claims and
/// need no ordering of their own.
struct Shared<R, E> {
    /// Next unclaimed item index.
    next: AtomicUsize,
    /// Lowest failed index so far (`n` while none failed); nothing past it
    /// is claimed.
    stop: AtomicUsize,
    /// Finished results by item index, taken by the consumer in order.
    slots: Mutex<Vec<Option<Result<R, E>>>>,
    ready: Condvar,
    /// A worker unwound without filling its slot (set under the slot lock).
    panicked: AtomicBool,
}

/// Wakes the consumer when its worker unwinds, so a slot that will never
/// be filled cannot leave the caller waiting forever.
struct PanicAlarm<'a, R, E>(&'a Shared<R, E>);

impl<R, E> Drop for PanicAlarm<'_, R, E> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let _slots = self.0.slots.lock().unwrap_or_else(|poison| poison.into_inner());
            self.0.stop.store(0, Ordering::Relaxed);
            self.0.panicked.store(true, Ordering::Relaxed);
            self.0.ready.notify_all();
        }
    }
}

/// The rungs of the degradation ladder, in the order [`ladder`] runs them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rung {
    /// The configured engine.
    Engine,
    /// One retry on the same engine.
    Retry,
    /// The last resort, never failpoint-injectable: an attempt that
    /// shares no state with the failed ones. Compressors run a new
    /// `TurboEngine`, token-identical to every engine.
    Fresh,
}

/// Run one item through the degradation ladder: engine, retry, then a
/// fresh engine, each attempt under [`std::panic::catch_unwind`].
///
/// The failpoint `site` is checked before the engine and retry attempts
/// only; the fresh rung is the last resort, so drills can storm a site
/// as hard as they like and the output stays exact. `chunk` is the item's
/// index in the ledger, which records every attempt, retry, degradation,
/// caught panic and injected error. With a `timer`, each failed attempt
/// leaves a `fault` span on the chunk's branch of the span tree.
///
/// # Errors
/// The attempts consumed (always 3) when even the fresh rung failed.
pub fn ladder<R, F: Failpoints>(
    faults: &F,
    site: &'static str,
    chunk: usize,
    ledger: &mut FailureReport,
    mut timer: Option<&mut SpanTimer>,
    mut attempt: impl FnMut(Rung) -> Result<R, InjectedFault>,
) -> Result<R, u64> {
    let rungs = [Rung::Engine, Rung::Retry, Rung::Fresh];
    for (n, rung) in rungs.into_iter().enumerate() {
        ledger.attempts += 1;
        match rung {
            Rung::Engine => {}
            Rung::Retry => ledger.retries += 1,
            Rung::Fresh => {
                ledger.degraded_chunks.push(chunk);
                ledger.degraded_chunks.sort_unstable();
            }
        }
        let start_us = timer.as_deref().map_or(0.0, SpanTimer::now_us);
        // Crossing the unwind boundary is sound: every attempt starts from
        // scratch (callers clear or replace their buffers, and the engines
        // re-zero their arenas per call), so a mid-attempt panic leaves no
        // poisoned state behind.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if rung != Rung::Fresh && faults.check(site) {
                return Err(InjectedFault { site });
            }
            attempt(rung)
        }));
        let what = match result {
            Ok(Ok(value)) => return Ok(value),
            Ok(Err(_injected)) => {
                ledger.injected_errors += 1;
                "fault"
            }
            Err(_panic) => {
                ledger.worker_restarts += 1;
                "panic"
            }
        };
        if let Some(t) = timer.as_deref_mut() {
            let frame_id = frame_span(chunk as u64);
            let args = span_args(stage_span(frame_id, 8 + n as u32), frame_id);
            t.complete(format!("{what} frame {chunk} attempt {n}"), "fault", start_us, args);
        }
    }
    ledger.failed_chunks.push(chunk);
    ledger.failed_chunks.sort_unstable();
    Err(rungs.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ParallelError;
    use lzfpga_faults::{FailPlan, FailRule, NoFaults};
    use lzfpga_lzss::{LzssParams, TurboEngine};
    use std::convert::Infallible;
    use std::time::Duration;

    #[test]
    fn results_finishing_in_reverse_are_consumed_in_index_order() {
        // Item i may finish only after every higher item has, which forces
        // completion into reverse index order. One item per worker, so no
        // worker ever waits on an item queued behind its own.
        let n = 4usize;
        let items: Vec<usize> = (0..n).collect();
        let finished = (Mutex::new(Vec::new()), Condvar::new());
        let mut consumed = Vec::new();
        let (states, outcome) = ordered_map(
            &items,
            n,
            |_| 0usize,
            |count, i, _| {
                let (list, cv) = &finished;
                let mut done = list.lock().unwrap();
                while done.len() < n - 1 - i {
                    done = cv.wait(done).unwrap();
                }
                done.push(i);
                cv.notify_all();
                *count += 1;
                Ok::<_, Infallible>(i * 10)
            },
            |i, r| consumed.push((i, r)),
        );
        assert!(outcome.is_ok());
        assert_eq!(finished.0.into_inner().unwrap(), vec![3, 2, 1, 0]);
        assert_eq!(consumed, vec![(0, 0), (1, 10), (2, 20), (3, 30)]);
        assert_eq!(states.iter().sum::<usize>(), n, "every item ran exactly once");
    }

    #[test]
    fn no_item_beyond_k_plus_workers_is_claimed_after_item_k_fails() {
        let (k, workers) = (5usize, 3usize);
        let items: Vec<usize> = (0..64).collect();
        let claimed = Mutex::new(Vec::new());
        let mut consumed = Vec::new();
        let (_, outcome) = ordered_map(
            &items,
            workers,
            |_| (),
            |_, i, _| {
                claimed.lock().unwrap().push(i);
                if i == k {
                    return Err("boom");
                }
                std::thread::sleep(Duration::from_millis(20));
                Ok(i)
            },
            |i, _| consumed.push(i),
        );
        assert_eq!(outcome, Err((k, "boom")));
        assert_eq!(consumed, (0..k).collect::<Vec<_>>(), "nothing at or past k is consumed");
        let max = claimed.into_inner().unwrap().into_iter().max().unwrap();
        assert!(max <= k + workers, "claimed item {max} after item {k} failed");
    }

    #[test]
    fn one_worker_runs_on_the_callers_thread() {
        let caller = std::thread::current().id();
        let (states, outcome) = ordered_map(
            &[1u8, 2, 3],
            1,
            |_| Vec::new(),
            |seen, _, _| {
                seen.push(std::thread::current().id());
                Ok::<_, Infallible>(())
            },
            |_, ()| assert_eq!(std::thread::current().id(), caller),
        );
        assert!(outcome.is_ok());
        assert_eq!(states, vec![vec![caller; 3]]);
    }

    #[test]
    fn an_always_firing_plan_never_reaches_the_reference_rung() {
        let data = lzfpga_workloads::generate(lzfpga_workloads::Corpus::Mixed, 3, 40_000);
        let chunks: Vec<&[u8]> = data.chunks(8 * 1024).collect();
        let params = LzssParams::paper_fast();
        let plan =
            FailPlan::new(1).rule(FailRule::new("exec.test").on_hit(1).times(u64::MAX).errors());
        let mut tokens = Vec::new();
        let (states, outcome) = ordered_map(
            &chunks,
            2,
            |_| (TurboEngine::new(), FailureReport::default()),
            |(turbo, ledger), i, chunk| {
                ladder(&plan, "exec.test", i, ledger, None, |rung| match rung {
                    Rung::Fresh => Ok(TurboEngine::new().compress(chunk, &params)),
                    _ => Ok(turbo.compress(chunk, &params)),
                })
            },
            |_, t| tokens.push(t),
        );
        assert!(outcome.is_ok());
        let expect: Vec<_> =
            chunks.iter().map(|c| lzfpga_lzss::reference::compress(c, &params)).collect();
        assert_eq!(tokens, expect, "degraded items stay token-exact");
        let mut ledger = FailureReport::default();
        for (_, l) in &states {
            ledger.merge(l);
        }
        let n = chunks.len();
        assert_eq!(ledger.degraded_chunks, (0..n).collect::<Vec<_>>());
        assert_eq!((ledger.attempts, ledger.injected_errors), (3 * n as u64, 2 * n as u64));
        assert!(ledger.failed_chunks.is_empty());
        assert_eq!(plan.fired_count(), 2 * n, "the site is never checked on the fresh rung");
    }

    #[test]
    fn a_panicking_reference_rung_fails_the_chunk_after_three_attempts() {
        let mut ledger = FailureReport::default();
        let result: Result<(), u64> =
            ladder(&NoFaults, "exec.test", 0, &mut ledger, None, |rung| {
                panic!("rung {rung:?} always panics")
            });
        assert_eq!(result, Err(3));
        assert_eq!(ledger.worker_restarts, 3);
        assert_eq!((ledger.degraded_chunks, ledger.failed_chunks), (vec![0], vec![0]));

        let (_, outcome) = ordered_map(
            &[0u8],
            1,
            |_| FailureReport::default(),
            |ledger, i, _| {
                ladder(&NoFaults, "exec.test", i, ledger, None, |_| -> Result<(), _> {
                    panic!("the fresh rung panics too")
                })
            },
            |_, ()| {},
        );
        let err = outcome
            .map_err(|(index, attempts)| ParallelError::ChunkFailed { index, attempts })
            .unwrap_err();
        assert!(matches!(err, ParallelError::ChunkFailed { index: 0, attempts: 3 }));
        assert_eq!(err.to_string(), "chunk 0 failed after 3 attempts");
    }
}
