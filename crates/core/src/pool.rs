//! A minimal deterministic fork/join helper: map a job list across a
//! bounded set of `std::thread` workers, returning results in job
//! order.
//!
//! Workers claim job indices from a shared atomic counter and send
//! each result, tagged with its index, back to the calling thread,
//! which drops it into its pre-assigned slot — so the output order is
//! the input order no matter how the OS schedules the workers, the
//! property the suite runner, the figure sweeps and the design-space
//! sweep rely on for bit-for-bit reproducibility. The calling thread
//! can also observe each result the moment it arrives
//! (`parallel_map_observed`), told whether more results are already
//! queued behind it, which is how a checkpointed sweep persists
//! completed work once per batch without ever blocking a worker.
//! Worker panics propagate out of the enclosing `std::thread::scope`.

use std::convert::Infallible;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// Maps `f` over `jobs` using up to `workers` threads, preserving job
/// order in the returned vector.
///
/// # Panics
///
/// Panics if `workers == 0`, or propagates the first worker panic.
pub fn parallel_map<T, R, F>(jobs: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    match parallel_map_observed(jobs, workers, f, |_, _, _| Ok::<(), Infallible>(())) {
        Ok(results) => results,
        Err(never) => match never {},
    }
}

/// [`parallel_map`] that also hands every result to `observe` on the
/// calling thread as soon as a worker finishes it — in completion
/// order, with its job index — before filing it into its slot.
/// `observe`'s third argument is `true` when no further result is
/// queued yet: the last of the batch the calling thread found waiting,
/// and always the last result of all.
///
/// The channel between the workers and the calling thread is
/// unbounded, so a slow observer never stalls a worker. When `observe`
/// fails, the channel closes and each worker stops at its next
/// hand-over; the error is returned once all of them have exited.
///
/// # Errors
///
/// Returns the first error `observe` returns.
///
/// # Panics
///
/// Panics if `workers == 0`, or propagates the first worker panic.
pub(crate) fn parallel_map_observed<T, R, E, F, O>(
    jobs: &[T],
    workers: usize,
    f: F,
    mut observe: O,
) -> Result<Vec<R>, E>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
    O: FnMut(usize, &R, bool) -> Result<(), E>,
{
    assert!(workers > 0, "workers must be at least 1");
    let workers = workers.min(jobs.len());
    let mut slots: Vec<Option<R>> = jobs.iter().map(|_| None).collect();
    let next_job = AtomicUsize::new(0);
    let (done, results) = mpsc::channel::<(usize, R)>();

    std::thread::scope(|scope| {
        for _ in 0..workers {
            let (done, next_job, f) = (done.clone(), &next_job, &f);
            scope.spawn(move || loop {
                let idx = next_job.fetch_add(1, Ordering::Relaxed);
                let Some(job) = jobs.get(idx) else {
                    break;
                };
                // A closed channel means the observer failed: stop.
                if done.send((idx, f(job))).is_err() {
                    break;
                }
            });
        }
        drop(done);
        // Ends once every worker has exited and dropped its sender; an
        // early return drops the receiver, which stops the workers.
        let mut next = results.recv().ok();
        while let Some((idx, result)) = next {
            let queued = results.try_recv().ok();
            observe(idx, &result, queued.is_none())?;
            slots[idx] = Some(result);
            next = queued.or_else(|| results.recv().ok());
        }
        Ok(())
    })?;

    Ok(slots
        .into_iter()
        .map(|slot| slot.expect("worker completed every claimed job"))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_job_order() {
        let jobs: Vec<u64> = (0..100).collect();
        for workers in [1, 2, 7] {
            let out = parallel_map(&jobs, workers, |&j| j * j);
            let expect: Vec<u64> = jobs.iter().map(|&j| j * j).collect();
            assert_eq!(out, expect, "workers = {workers}");
        }
    }

    #[test]
    fn empty_job_list_is_fine() {
        let out: Vec<u64> = parallel_map(&[], 4, |&j: &u64| j);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "workers")]
    fn zero_workers_rejected() {
        let _ = parallel_map(&[1u64], 0, |&j| j);
    }

    #[test]
    fn observer_sees_every_result_once_on_the_calling_thread() {
        let jobs: Vec<u64> = (0..50).collect();
        let caller = std::thread::current().id();
        let mut last_flags = Vec::new();
        for workers in [1, 3] {
            let mut seen = vec![0_u32; jobs.len()];
            let out = parallel_map_observed(
                &jobs,
                workers,
                |&j| j + 1,
                |idx, &r, last| {
                    assert_eq!(std::thread::current().id(), caller);
                    assert_eq!(r, jobs[idx] + 1);
                    seen[idx] += 1;
                    last_flags.push(last);
                    Ok::<(), Infallible>(())
                },
            )
            .unwrap();
            assert_eq!(out, jobs.iter().map(|j| j + 1).collect::<Vec<_>>());
            assert!(seen.iter().all(|&n| n == 1), "workers = {workers}");
            assert_eq!(last_flags.last(), Some(&true), "workers = {workers}");
            last_flags.clear();
        }
    }

    #[test]
    fn results_queued_behind_one_another_form_one_batch() {
        // One worker runs jobs in order and sends each result before it
        // claims the next job. The observer holds on to result 0 until
        // job 8 has started, so results 1–7 are all queued by then, and
        // job 8 waits for the observer to reach result 7: the queued
        // run is one batch, flagged last only at its end.
        let (started, job_8_started) = mpsc::channel::<()>();
        let (release, job_8_released) = mpsc::channel::<()>();
        let (started, job_8_released) = (
            std::sync::Mutex::new(started),
            std::sync::Mutex::new(job_8_released),
        );
        let jobs: Vec<u64> = (0..9).collect();
        let mut last = vec![None; jobs.len()];
        parallel_map_observed(
            &jobs,
            1,
            |&j| {
                if j == 8 {
                    started
                        .lock()
                        .expect("lock")
                        .send(())
                        .expect("observer waits");
                    job_8_released
                        .lock()
                        .expect("lock")
                        .recv()
                        .expect("released");
                }
                j
            },
            |idx, _, is_last| {
                last[idx] = Some(is_last);
                match idx {
                    0 => job_8_started.recv().expect("job 8 starts"),
                    7 => release.send(()).expect("job 8 waits"),
                    _ => {}
                }
                Ok::<(), Infallible>(())
            },
        )
        .unwrap();
        let flags: Vec<bool> = last[1..].iter().map(|f| f.expect("observed")).collect();
        assert_eq!(
            flags,
            [false, false, false, false, false, false, true, true]
        );
    }

    #[test]
    fn observer_error_is_returned_while_workers_hold_jobs() {
        // Every job after the first blocks until the observer has
        // failed, so the error surfaces while jobs are still in
        // flight; the call must return it, not hang or panic.
        let (failed, wait) = mpsc::channel::<()>();
        let wait = std::sync::Mutex::new(wait);
        let mut failed = Some(failed);
        let jobs: Vec<u64> = (0..100).collect();
        let err = parallel_map_observed(
            &jobs,
            2,
            |&j| {
                if j > 0 {
                    // Errs once the observer dropped the sender.
                    let _ = wait.lock().expect("wait lock poisoned").recv();
                }
                j
            },
            |_, _, _| {
                drop(failed.take());
                Err("stop")
            },
        )
        .unwrap_err();
        assert_eq!(err, "stop");
    }
}
