//! Pluggable inference dispatchers/schedulers.

use std::cmp::Ordering;

use xrbench_models::ModelId;

use crate::provider::{CostProvider, NUM_MODELS};

/// A read-only view of one dispatchable (ready) request, handed to
/// schedulers.
///
/// The simulator maintains the view slice incrementally across picks
/// (in ready-queue insertion order) rather than rebuilding it, and the
/// free-engine slice is a sorted, incrementally-maintained set —
/// implementations may rely on both orderings being stable and
/// deterministic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PendingView {
    /// The originating user (0 for single-scenario runs; session runs
    /// tag each user so schedulers can balance across tenants).
    pub user: u32,
    /// The model to run.
    pub model: ModelId,
    /// Model-local frame index.
    pub frame_id: u64,
    /// When the input data arrived.
    pub t_req: f64,
    /// The processing deadline.
    pub t_deadline: f64,
}

/// The two deterministic total request orders of the closed-form
/// policies. The ready queue holds at most one entry per
/// `(user, model)`, so under either order the minimum is unique.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RequestOrder {
    /// `(t_deadline, t_req, model, user)` under `f64::total_cmp`.
    Edf,
    /// `(t_req, model, user)` under `f64::total_cmp`.
    Fifo,
}

impl RequestOrder {
    fn cmp(self, a: &PendingView, b: &PendingView) -> Ordering {
        match self {
            RequestOrder::Edf => edf_order(a, b),
            RequestOrder::Fifo => fifo_order(a, b),
        }
    }
}

/// A closed-form scheduling policy, declared as data: a *request
/// order* (which ready request goes next), an *engine rule* (which
/// free engine it goes to), and any state the rule carries.
///
/// The request orders are EDF, `(t_deadline, t_req, model, user)`, and
/// FIFO, `(t_req, model, user)`, both under `f64::total_cmp`.
///
/// A value is the whole policy of the shipped [`LatencyGreedy`],
/// [`RoundRobin`], [`LeastLoaded`] and [`FailoverAware`] schedulers:
/// their `select` is [`DispatchKernel::select`], the specification the
/// reference loop and the conformance tests run, and they lend the
/// value to the engine through [`Scheduler::kernel`]. The engine then
/// drives dispatch through an indexed form of the same policy — a heap
/// of the queued requests under the request order and per-model engine
/// preference rows — that reproduces `select`'s picks exactly and
/// updates the carried state in place.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq)]
pub enum DispatchKernel {
    /// EDF request order; engine = minimal `(latency, engine id)`
    /// among the free engines ([`LatencyGreedy`]).
    EdfFastestEngine,
    /// FIFO request order; engine = first free engine at or above the
    /// rotation cursor, else the lowest free engine; the cursor then
    /// advances to `(engine + 1) % max(1, engine + 1).max(free count)`,
    /// the free count taken before the dispatch ([`RoundRobin`]).
    FifoRotatingEngine {
        /// The rotation cursor (next engine id to try).
        next_engine: usize,
    },
    /// FIFO request order; engine = minimal `(accumulated load,
    /// engine id)` among the free engines, where each dispatch adds
    /// its expected latency to the chosen engine's load
    /// ([`LeastLoaded`]).
    FifoLeastLoadedEngine {
        /// Accumulated dispatched latency per engine id (entries
        /// beyond the vector's length read as `0.0`).
        loads: Vec<f64>,
    },
    /// EDF request order; engine = minimal `(observed outages,
    /// latency, engine id)` among the free engines
    /// ([`FailoverAware`]). Outage counts change only through
    /// [`DispatchKernel::on_engine_down`].
    EdfFewestOutagesEngine {
        /// Outages observed per engine id (entries beyond the
        /// vector's length read as `0`).
        outages: Vec<u64>,
    },
}

impl DispatchKernel {
    /// The policy's pick: the first ready request under its request
    /// order, on the free engine its engine rule chooses, updating the
    /// rule's carried state. `None` when either slice is empty.
    pub fn select(
        &mut self,
        ready: &[PendingView],
        free_engines: &[usize],
        provider: &dyn CostProvider,
    ) -> Option<(usize, usize)> {
        if ready.is_empty() || free_engines.is_empty() {
            return None;
        }
        let order = self.order();
        let (ri, req) = ready
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| order.cmp(a, b))
            .expect("ready is non-empty");
        let model = req.model;
        let latency = |e: usize| provider.cost(model, e).latency_s;
        let engine = match self {
            DispatchKernel::EdfFastestEngine => fastest_engine(model, free_engines, provider),
            DispatchKernel::FifoRotatingEngine { next_engine } => {
                let engine = free_engines
                    .iter()
                    .copied()
                    .find(|&e| e >= *next_engine)
                    .unwrap_or(free_engines[0]);
                *next_engine = (engine + 1) % usize::max(1, engine + 1).max(free_engines.len());
                engine
            }
            DispatchKernel::FifoLeastLoadedEngine { loads } => {
                let load = |e: usize| loads.get(e).copied().unwrap_or(0.0);
                let engine = free_engines
                    .iter()
                    .copied()
                    .min_by(|&a, &b| load(a).total_cmp(&load(b)).then(a.cmp(&b)))
                    .expect("free_engines is non-empty");
                if loads.len() <= engine {
                    loads.resize(engine + 1, 0.0);
                }
                loads[engine] += latency(engine);
                engine
            }
            DispatchKernel::EdfFewestOutagesEngine { outages } => {
                let count = |e: usize| outages.get(e).copied().unwrap_or(0);
                free_engines
                    .iter()
                    .copied()
                    .min_by(|&a, &b| {
                        count(a)
                            .cmp(&count(b))
                            .then(latency(a).total_cmp(&latency(b)))
                            .then(a.cmp(&b))
                    })
                    .expect("free_engines is non-empty")
            }
        };
        Some((ri, engine))
    }

    /// Records that `engine` went offline. Only the fewest-outages rule
    /// reads outages; for the others this does nothing.
    pub fn on_engine_down(&mut self, engine: usize) {
        if let DispatchKernel::EdfFewestOutagesEngine { outages } = self {
            if outages.len() <= engine {
                outages.resize(engine + 1, 0);
            }
            outages[engine] += 1;
        }
    }

    /// The policy's request order.
    pub(crate) fn order(&self) -> RequestOrder {
        match self {
            DispatchKernel::EdfFastestEngine | DispatchKernel::EdfFewestOutagesEngine { .. } => {
                RequestOrder::Edf
            }
            DispatchKernel::FifoRotatingEngine { .. }
            | DispatchKernel::FifoLeastLoadedEngine { .. } => RequestOrder::Fifo,
        }
    }

    /// Pads the carried per-engine state to `num_engines` entries, so
    /// the engine can index it directly. Entries beyond a vector's
    /// length read as zero, so this changes no pick.
    pub(crate) fn reserve_engines(&mut self, num_engines: usize) {
        match self {
            DispatchKernel::FifoLeastLoadedEngine { loads } if loads.len() < num_engines => {
                loads.resize(num_engines, 0.0)
            }
            DispatchKernel::EdfFewestOutagesEngine { outages } if outages.len() < num_engines => {
                outages.resize(num_engines, 0)
            }
            _ => {}
        }
    }
}

/// An inference dispatcher: repeatedly asked to pick one
/// `(ready-request, free-engine)` pair until it returns `None` or
/// resources run out.
///
/// Implementations must be deterministic for reproducible runs (the
/// conformance harness in `tests/scheduler_conformance.rs` checks
/// this for every shipped scheduler). Returning an index out of range
/// is a programming error and makes the simulator panic.
pub trait Scheduler {
    /// Picks the next dispatch as `(index into ready, engine id)`,
    /// or `None` to leave the remaining engines idle until the next
    /// event.
    fn select(
        &mut self,
        ready: &[PendingView],
        free_engines: &[usize],
        provider: &dyn CostProvider,
        now: f64,
    ) -> Option<(usize, usize)>;

    /// A short name for reports.
    fn name(&self) -> &'static str;

    /// Notifies the scheduler that `engine` just went offline (device
    /// churn or preemption). Stateless schedulers can ignore this; the
    /// default does nothing. Called by the engine loop before the
    /// revoked work is re-resolved, so a failover-aware policy can bias
    /// future placements away from flaky engines.
    fn on_engine_down(&mut self, _engine: usize, _now: f64) {}

    /// Lends the engine this scheduler's [`DispatchKernel`], or `None`
    /// (the default) for opaque policies.
    ///
    /// Returning `Some` is a **promise** that `select` and
    /// `on_engine_down` behave exactly as the returned value's
    /// [`DispatchKernel::select`] and [`DispatchKernel::on_engine_down`],
    /// and that every call during a run returns the same variant. The
    /// engine then never calls `select`: it dispatches through an
    /// indexed form of the kernel, fault-free and faulted runs alike,
    /// and updates the carried state (rotation cursor, loads, outage
    /// counts) in place, so back-to-back runs on one instance behave
    /// as if `select` had been called throughout. One caveat: a
    /// kernel-driven run may query provider costs for *any*
    /// `(ready model, engine)` pair while a `select`-driven run only
    /// queries the pairs it inspects (only observable with panicking
    /// partial [`CostProvider`]s).
    fn kernel(&mut self) -> Option<&mut DispatchKernel> {
        None
    }
}

/// Declares a shipped scheduler whose whole policy is one
/// [`DispatchKernel`] value: the struct, its constructor, and a
/// [`Scheduler`] impl that selects, observes outages and lends its
/// state through that value.
macro_rules! kernel_scheduler {
    ($(#[$doc:meta])* $ty:ident, $name:literal, $kernel:expr) => {
        $(#[$doc])*
        #[derive(Debug, Clone)]
        pub struct $ty {
            kernel: DispatchKernel,
        }

        impl $ty {
            /// Creates the scheduler in its initial state.
            pub fn new() -> Self {
                Self { kernel: $kernel }
            }
        }

        impl Default for $ty {
            fn default() -> Self {
                Self::new()
            }
        }

        impl Scheduler for $ty {
            fn select(
                &mut self,
                ready: &[PendingView],
                free_engines: &[usize],
                provider: &dyn CostProvider,
                _now: f64,
            ) -> Option<(usize, usize)> {
                self.kernel.select(ready, free_engines, provider)
            }

            fn name(&self) -> &'static str {
                $name
            }

            fn on_engine_down(&mut self, engine: usize, _now: f64) {
                self.kernel.on_engine_down(engine);
            }

            fn kernel(&mut self) -> Option<&mut DispatchKernel> {
                Some(&mut self.kernel)
            }
        }
    };
}

kernel_scheduler!(
    /// The paper's default for cost-model/simulator runs: dispatch the
    /// most urgent ready request (earliest deadline) to the idle engine
    /// with the minimal expected latency for that model.
    LatencyGreedy,
    "latency-greedy",
    DispatchKernel::EdfFastestEngine
);

kernel_scheduler!(
    /// The paper's round-robin style scheduler for real systems:
    /// requests are served in arrival order and engines are used in
    /// rotation, starting at engine 0.
    RoundRobin,
    "round-robin",
    DispatchKernel::FifoRotatingEngine { next_engine: 0 }
);

kernel_scheduler!(
    /// Load-balancing dispatcher: serves requests in arrival order and
    /// sends each to the free engine with the least *accumulated* busy
    /// time for this run (ties by engine id) — the classic least-loaded
    /// policy a multi-tenant session dispatcher would use.
    LeastLoaded,
    "least-loaded",
    DispatchKernel::FifoLeastLoadedEngine { loads: Vec::new() }
);

kernel_scheduler!(
    /// Churn-hardened dispatcher for dynamic fleets: serves requests in
    /// EDF order (like [`LatencyGreedy`]) but places each on the free
    /// engine with the fewest *observed outages* this run, breaking ties
    /// by expected latency and then engine id. On static hardware no
    /// outage is ever observed, so every tie breaks by latency and the
    /// policy degenerates to latency-greedy placement.
    FailoverAware,
    "failover-aware",
    DispatchKernel::EdfFewestOutagesEngine {
        outages: Vec::new()
    }
);

/// Slack-aware earliest-deadline-first: walks the ready queue in EDF
/// order and dispatches the first request that can still *meet* its
/// deadline on some free engine (on the fastest such engine). Requests
/// that are already lost causes on every free engine don't block
/// salvageable ones behind them; if nothing is salvageable, the most
/// urgent request runs on the fastest engine to limit the overrun.
#[derive(Debug, Clone, Default)]
pub struct SlackAwareEdf {
    _private: (),
}

impl SlackAwareEdf {
    /// Creates the scheduler.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Deterministic EDF ordering: deadline, then arrival, model, user.
fn edf_order(a: &PendingView, b: &PendingView) -> Ordering {
    a.t_deadline.total_cmp(&b.t_deadline).then(fifo_order(a, b))
}

/// Deterministic FIFO ordering: arrival, then model, then user.
fn fifo_order(a: &PendingView, b: &PendingView) -> Ordering {
    a.t_req
        .total_cmp(&b.t_req)
        .then(a.model.cmp(&b.model))
        .then(a.user.cmp(&b.user))
}

/// The free engine with minimal latency for `model` (ties by id).
fn fastest_engine(model: ModelId, free_engines: &[usize], provider: &dyn CostProvider) -> usize {
    free_engines
        .iter()
        .copied()
        .min_by(|&a, &b| {
            provider
                .cost(model, a)
                .latency_s
                .total_cmp(&provider.cost(model, b).latency_s)
                .then(a.cmp(&b))
        })
        .expect("free_engines is non-empty")
}

impl Scheduler for SlackAwareEdf {
    fn select(
        &mut self,
        ready: &[PendingView],
        free_engines: &[usize],
        provider: &dyn CostProvider,
        now: f64,
    ) -> Option<(usize, usize)> {
        if ready.is_empty() || free_engines.is_empty() {
            return None;
        }
        // One pass, no allocation. `now + latency` is monotone in the
        // latency, so a request can meet its deadline on some free
        // engine iff it can on its model's fastest free engine, which
        // is then also its fastest deadline-meeting engine. That engine
        // is memoized per model.
        let mut fastest: [Option<(usize, f64)>; NUM_MODELS] = [None; NUM_MODELS];
        let mut first: Option<usize> = None;
        let mut salvageable: Option<usize> = None;
        for (ri, req) in ready.iter().enumerate() {
            let (_, latency) = *fastest[req.model as usize].get_or_insert_with(|| {
                let e = fastest_engine(req.model, free_engines, provider);
                (e, provider.cost(req.model, e).latency_s)
            });
            let before =
                |best: Option<usize>| best.is_none_or(|b| edf_order(req, &ready[b]).is_lt());
            if before(first) {
                first = Some(ri);
            }
            if now + latency <= req.t_deadline + 1e-15 && before(salvageable) {
                salvageable = Some(ri);
            }
        }
        // The first salvageable request in EDF order; if everything is
        // late, limit the damage on the most urgent one.
        let ri = salvageable.or(first).expect("ready is non-empty");
        let (engine, _) = fastest[ready[ri].model as usize].expect("filled for every ready model");
        Some((ri, engine))
    }

    fn name(&self) -> &'static str {
        "slack-edf"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::provider::{InferenceCost, TableProvider, UniformProvider};

    fn view(model: ModelId, deadline: f64) -> PendingView {
        PendingView {
            user: 0,
            model,
            frame_id: 0,
            t_req: 0.0,
            t_deadline: deadline,
        }
    }

    #[test]
    fn greedy_picks_earliest_deadline() {
        let p = UniformProvider::new(2, 0.001, 0.0);
        let ready = vec![
            view(ModelId::HandTracking, 0.05),
            view(ModelId::EyeSegmentation, 0.01),
        ];
        let mut s = LatencyGreedy::new();
        let (ri, _) = s.select(&ready, &[0, 1], &p, 0.0).unwrap();
        assert_eq!(ri, 1);
    }

    #[test]
    fn greedy_picks_fastest_engine() {
        let mut p = TableProvider::new(2);
        p.set(
            ModelId::HandTracking,
            0,
            InferenceCost {
                latency_s: 0.010,
                energy_j: 0.0,
            },
        );
        p.set(
            ModelId::HandTracking,
            1,
            InferenceCost {
                latency_s: 0.002,
                energy_j: 0.0,
            },
        );
        let ready = vec![view(ModelId::HandTracking, 0.05)];
        let mut s = LatencyGreedy::new();
        let (_, engine) = s.select(&ready, &[0, 1], &p, 0.0).unwrap();
        assert_eq!(engine, 1);
    }

    #[test]
    fn greedy_returns_none_when_starved() {
        let p = UniformProvider::new(1, 0.001, 0.0);
        let mut s = LatencyGreedy::new();
        assert!(s.select(&[], &[0], &p, 0.0).is_none());
        assert!(s
            .select(&[view(ModelId::HandTracking, 1.0)], &[], &p, 0.0)
            .is_none());
    }

    #[test]
    fn round_robin_rotates_engines() {
        let p = UniformProvider::new(3, 0.001, 0.0);
        let mut s = RoundRobin::new();
        let ready = vec![view(ModelId::HandTracking, 1.0)];
        let (_, e0) = s.select(&ready, &[0, 1, 2], &p, 0.0).unwrap();
        let (_, e1) = s.select(&ready, &[0, 1, 2], &p, 0.0).unwrap();
        assert_ne!(e0, e1);
    }

    #[test]
    fn slack_edf_skips_lost_causes_for_salvageable_work() {
        // Request A's deadline is already unmeetable (1 ms latency,
        // deadline 0.5 ms away); request B can still make it. B must
        // be dispatched first even though A's deadline is earlier.
        let p = UniformProvider::new(1, 0.001, 0.0);
        let ready = vec![
            view(ModelId::HandTracking, 0.0005),
            view(ModelId::EyeSegmentation, 0.002),
        ];
        let mut s = SlackAwareEdf::new();
        let (ri, _) = s.select(&ready, &[0], &p, 0.0).unwrap();
        assert_eq!(ri, 1, "salvageable request must jump the lost cause");
    }

    #[test]
    fn slack_edf_prefers_deadline_meeting_engine() {
        // The fast engine meets the deadline, the slow one does not.
        let mut p = TableProvider::new(2);
        p.set(
            ModelId::HandTracking,
            0,
            InferenceCost {
                latency_s: 0.050,
                energy_j: 0.0,
            },
        );
        p.set(
            ModelId::HandTracking,
            1,
            InferenceCost {
                latency_s: 0.002,
                energy_j: 0.0,
            },
        );
        let ready = vec![view(ModelId::HandTracking, 0.010)];
        let mut s = SlackAwareEdf::new();
        let (_, engine) = s.select(&ready, &[0, 1], &p, 0.0).unwrap();
        assert_eq!(engine, 1);
    }

    #[test]
    fn slack_edf_still_dispatches_when_everything_is_late() {
        let p = UniformProvider::new(1, 0.010, 0.0);
        let ready = vec![view(ModelId::HandTracking, 0.001)];
        let mut s = SlackAwareEdf::new();
        assert!(s.select(&ready, &[0], &p, 0.0).is_some());
    }

    #[test]
    fn least_loaded_balances_accumulated_work() {
        let p = UniformProvider::new(2, 0.004, 0.0);
        let ready = vec![view(ModelId::HandTracking, 1.0)];
        let mut s = LeastLoaded::new();
        let (_, e0) = s.select(&ready, &[0, 1], &p, 0.0).unwrap();
        assert_eq!(e0, 0, "first dispatch goes to engine 0");
        // Engine 0 now carries 4 ms of load; even though it is free
        // again, the next dispatch must go to engine 1.
        let (_, e1) = s.select(&ready, &[0, 1], &p, 0.0).unwrap();
        assert_eq!(e1, 1);
        // Loads now equal; ties break to the lower id.
        let (_, e2) = s.select(&ready, &[0, 1], &p, 0.0).unwrap();
        assert_eq!(e2, 0);
    }

    #[test]
    fn least_loaded_serves_oldest_request_first() {
        let p = UniformProvider::new(1, 0.001, 0.0);
        let mut a = view(ModelId::HandTracking, 1.0);
        a.t_req = 0.5;
        let b = view(ModelId::EyeSegmentation, 1.0); // t_req = 0.0
        let mut s = LeastLoaded::new();
        let (ri, _) = s.select(&[a, b], &[0], &p, 0.6).unwrap();
        assert_eq!(ri, 1);
    }

    #[test]
    fn schedulers_have_names() {
        assert_eq!(LatencyGreedy::new().name(), "latency-greedy");
        assert_eq!(RoundRobin::new().name(), "round-robin");
        assert_eq!(SlackAwareEdf::new().name(), "slack-edf");
        assert_eq!(LeastLoaded::new().name(), "least-loaded");
        assert_eq!(FailoverAware::new().name(), "failover-aware");
    }

    #[test]
    fn failover_aware_avoids_flaky_engines() {
        // Engine 0 is faster but has a recorded outage; engine 1 is
        // clean and must win despite the latency disadvantage.
        let mut p = TableProvider::new(2);
        p.set(
            ModelId::HandTracking,
            0,
            InferenceCost {
                latency_s: 0.001,
                energy_j: 0.0,
            },
        );
        p.set(
            ModelId::HandTracking,
            1,
            InferenceCost {
                latency_s: 0.005,
                energy_j: 0.0,
            },
        );
        let ready = vec![view(ModelId::HandTracking, 1.0)];
        let mut s = FailoverAware::new();
        let (_, before) = s.select(&ready, &[0, 1], &p, 0.0).unwrap();
        assert_eq!(before, 0, "without outages the fast engine wins");
        s.on_engine_down(0, 0.5);
        let (_, after) = s.select(&ready, &[0, 1], &p, 0.0).unwrap();
        assert_eq!(after, 1, "observed outage demotes engine 0");
    }
}
