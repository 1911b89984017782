//! A minimal deterministic fork/join helper: map a job list across a
//! bounded set of `std::thread` workers, returning results in job
//! order.
//!
//! Workers claim job indices from a shared atomic counter and write
//! each result into its pre-assigned slot, so the output order is the
//! input order no matter how the OS schedules the workers — the
//! property the suite runner and the figure sweeps rely on for
//! bit-for-bit reproducibility. Worker panics propagate out of the
//! enclosing `std::thread::scope`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

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
    assert!(workers > 0, "workers must be at least 1");
    let workers = workers.min(jobs.len());
    let slots: Vec<Mutex<Option<R>>> = jobs.iter().map(|_| Mutex::new(None)).collect();
    let next_job = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let idx = next_job.fetch_add(1, Ordering::Relaxed);
                let Some(job) = jobs.get(idx) else {
                    break;
                };
                let result = f(job);
                *slots[idx].lock().expect("slot lock poisoned") = Some(result);
            });
        }
    });

    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("slot lock poisoned")
                .expect("worker completed every claimed job")
        })
        .collect()
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
}
