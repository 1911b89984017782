//! The discrete-event benchmark runtime.
//!
//! The simulator replays a scenario's inference-request stream against
//! the engines of a [`CostProvider`], under a pluggable [`Scheduler`].
//! It implements the runtime data structures of Figure 2:
//!
//! * **request queues** — arrived-and-ready requests awaiting dispatch;
//! * **dependency tracker** — dependent requests (GE after ES, SR
//!   after KD) are held until their upstream inference of the same
//!   sensor frame resolves, then a seeded trigger draw decides whether
//!   the downstream model runs (dynamic cascading, §4.1);
//! * **active inference table** — per-engine busy-until times;
//! * **frame-freshness drop policy** — when a newer frame of a model
//!   becomes ready while an older one still waits, the older frame is
//!   dropped (its input is stale); drops are what the QoE score
//!   penalizes.
//!
//! The same event loop serves two entry points: [`Simulator::run`] /
//! [`Simulator::run_requests`] for a single scenario, and
//! [`Simulator::run_session`] for a multi-user [`SessionSpec`] whose
//! merged stream shares the engines concurrently. Internally every
//! request carries a user tag (0 for single-scenario runs), and all
//! dependency/freshness bookkeeping is keyed per `(user, model)` so
//! users never interfere with each other's cascades — only with each
//! other's engine time.
//!
//! The event loop itself is the engine of [`crate::engine`]: a
//! binary-heap completion calendar popped in a total deterministic
//! order, struct-of-arrays pending queues, batched
//! same-timestamp scheduling with an indexed fast path for kernel-
//! declaring schedulers, and precomputed per-scenario dispatch tables
//! — amortized constant per event where the original loop was linear
//! (see `DESIGN.md`). Its one differential-testing reference is the
//! quadratic loop in [`crate::naive`], which has the same signature
//! and covers fault-free and faulted runs. Both loops produce only two
//! things: a stream of execution records, handed to a sink, and
//! per-user stats. One private step, [`Simulator::assemble`], runs
//! either loop for every entry point and its reference: it passes the
//! caller's sink through or collects the records per user, sorts a
//! faulted run's records by start time, and builds every
//! [`SimResult`], so the two loops produce bit-identical results.
//! Nothing here derives metrics from records: session reports and
//! fleets score them in the sink of
//! [`Simulator::run_session_folded`], and scenario reports score the
//! collected ones, through the same per-user fold.
//!
//! Both loops pull arrivals lazily: [`Simulator::run`] and every
//! `run_session*` variant feed them the k-way merge of
//! [`LoadGenerator::arrivals`] / [`SessionSpec::arrivals`], so a run
//! holds one pending arrival per `(user, model)` stream, never the
//! whole request stream. A session of at least
//! [`PREFETCH_MIN_REQUESTS`](crate::PREFETCH_MIN_REQUESTS) requests, on
//! a host with a second core, advances that merge on a helper thread
//! (`crate::feed`), which runs at most a few fixed-size batches ahead
//! of the loop.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use xrbench_models::ModelId;
use xrbench_workload::{
    InferenceRequest, LoadGenerator, ScenarioSpec, SessionRequest, SessionSpec,
};

use crate::engine::{FaultCtx, Sink, UserIndex, UserStats};
use crate::fault::{FaultProcess, FaultTimeline, RecoveryPolicy};
use crate::feed;
use crate::provider::CostProvider;
use crate::result::{ExecRecord, SessionSimResult, SimResult};
use crate::scheduler::Scheduler;

/// The time-comparison slack used when grouping events at one instant.
pub(crate) const EPS: f64 = 1e-15;

/// A time-sorted stream of user-tagged requests.
type Requests<'a> = &'a mut dyn Iterator<Item = SessionRequest>;

/// An event loop over user-tagged requests: the production engine
/// ([`crate::engine::run_tagged`]) or the reference loop
/// ([`crate::naive::run_tagged_naive`]), which share this signature.
/// It streams every execution record to its sink and returns each
/// user's per-model stats; [`Simulator::assemble`] turns that into
/// results.
type EventLoop = fn(
    SimConfig,
    &[(u32, &ScenarioSpec)],
    Requests<'_>,
    &dyn CostProvider,
    &mut dyn Scheduler,
    Option<FaultCtx<'_>>,
    Sink<'_>,
) -> BTreeMap<u32, UserStats>;

/// What an entry point hands an event loop besides the system, the
/// scheduler and the sink.
struct LoopInputs<'a> {
    users: &'a [(u32, &'a ScenarioSpec)],
    requests: Requests<'a>,
    faults: Option<FaultCtx<'a>>,
    /// The span each user's result covers.
    duration_s: f64,
}

/// Simulator configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Nominal run duration in seconds (paper default: one second).
    pub duration_s: f64,
    /// RNG seed for load-generation jitter and cascade trigger draws.
    pub seed: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            duration_s: 1.0,
            seed: 0xC0FF_EE00,
        }
    }
}

/// The benchmark runtime (Figure 2).
#[derive(Debug, Clone)]
pub struct Simulator {
    config: SimConfig,
}

/// How an upstream inference of one sensor frame ended — the state a
/// dependent frame waits on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Resolution {
    Completed,
    Dropped,
}

/// One deterministic cascade-trigger draw: seeded per
/// `(seed, user, model, upstream, frame)`, so the decision is a pure
/// function of the run configuration and the frame identity. The user
/// tag is mixed into the seed (as zero for single-scenario runs,
/// preserving their streams) so concurrent users of the same scenario
/// draw independently.
pub(crate) fn trigger_draw(
    seed: u64,
    user: u32,
    model: ModelId,
    upstream: ModelId,
    frame_id: u64,
    probability: f64,
) -> bool {
    if probability >= 1.0 {
        return true;
    }
    let mut rng = StdRng::seed_from_u64(
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ ((model as u64) << 32)
            ^ ((upstream as u64) << 24)
            ^ frame_id
            ^ u64::from(user).wrapping_mul(0xD6E8_FEB8_6659_FD93),
    );
    rng.gen_range(0.0..1.0) < probability
}

/// Joint trigger decision over all of a frame's dependencies.
pub(crate) fn trigger_all(
    seed: u64,
    user: u32,
    req: &InferenceRequest,
    deps: &[(ModelId, f64)],
) -> bool {
    deps.iter()
        .all(|&(up, p)| trigger_draw(seed, user, req.model, up, req.frame_id, p))
}

impl Simulator {
    /// Creates a simulator with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if `config.duration_s` is not positive and finite.
    pub fn new(config: SimConfig) -> Self {
        assert!(
            config.duration_s.is_finite() && config.duration_s > 0.0,
            "duration must be positive and finite"
        );
        Self { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> SimConfig {
        self.config
    }

    /// Generates the scenario's request stream and simulates it,
    /// exactly as [`Simulator::run_requests`] would simulate
    /// [`LoadGenerator::generate`]'s output, but generating each
    /// request only when the clock reaches it.
    pub fn run(
        &self,
        spec: &ScenarioSpec,
        provider: &dyn CostProvider,
        scheduler: &mut dyn Scheduler,
    ) -> SimResult {
        let mut arrivals =
            LoadGenerator::new(self.config.seed).arrivals(spec, self.config.duration_s);
        self.drive_scenario(
            crate::engine::run_tagged,
            spec,
            &mut arrivals,
            provider,
            scheduler,
        )
    }

    /// Simulates an explicit, pre-generated request stream (must be
    /// sorted by request time).
    ///
    /// # Panics
    ///
    /// Panics if the provider has no engines, the request stream is
    /// not sorted by `t_req`, or any model's requests are not strictly
    /// increasing in both `frame_id` and `sensor_frame` (the freshness
    /// drop policy is defined over monotone per-model streams, which
    /// is what [`LoadGenerator`] produces).
    pub fn run_requests(
        &self,
        spec: &ScenarioSpec,
        requests: Vec<InferenceRequest>,
        provider: &dyn CostProvider,
        scheduler: &mut dyn Scheduler,
    ) -> SimResult {
        self.drive_requests(
            crate::engine::run_tagged,
            spec,
            requests,
            provider,
            scheduler,
        )
    }

    /// Simulates a multi-user session: every user's jittered,
    /// offset-shifted request stream is merged and dispatched onto the
    /// *shared* engines, so users compete for compute exactly as
    /// concurrent tenants would. Returns per-user results (each scored
    /// against the session's full span) for per-user and aggregate
    /// breakdowns.
    ///
    /// # Panics
    ///
    /// Panics if the session has no users, session user ids are not
    /// unique, or the provider has no engines.
    pub fn run_session(
        &self,
        session: &SessionSpec,
        provider: &dyn CostProvider,
        scheduler: &mut dyn Scheduler,
    ) -> SessionSimResult {
        self.drive(
            crate::engine::run_tagged,
            session,
            provider,
            scheduler,
            None,
            None,
        )
    }

    /// [`Simulator::run_session`] with **streaming result folding**:
    /// every completed inference is handed to `sink` as
    /// `(user, &ExecRecord)` the moment it is dispatched (records
    /// arrive in nondecreasing `t_start` order, per user exactly the
    /// order `SimResult::records` would list them), and **no**
    /// per-request vectors are retained — the returned
    /// [`SessionSimResult`] carries complete per-user stats but empty
    /// `records`.
    ///
    /// This is the memory contract session reports and fleet-scale
    /// execution build on: both score the records in the sink
    /// (`xrbench_fleet::SessionFold`), so a session's footprint stays
    /// proportional to its in-flight window (users × models) instead
    /// of its request count, however long the run, since arrivals are
    /// merged lazily too. Apart from the empty `records`, the run is
    /// bit-identical to [`Simulator::run_session`]: same events, same
    /// stats, same tie-breaks.
    ///
    /// # Panics
    ///
    /// Panics if the session has no users, session user ids are not
    /// unique, or the provider has no engines.
    pub fn run_session_folded(
        &self,
        session: &SessionSpec,
        provider: &dyn CostProvider,
        scheduler: &mut dyn Scheduler,
        sink: &mut dyn FnMut(u32, &ExecRecord),
    ) -> SessionSimResult {
        self.drive(
            crate::engine::run_tagged,
            session,
            provider,
            scheduler,
            None,
            Some(sink),
        )
    }

    /// [`Simulator::run_session`] under a dynamic fleet: the
    /// [`FaultProcess`] is expanded into a deterministic per-engine
    /// event timeline (seeded from
    /// [`fault_seed`](crate::fault_seed)`(config.seed)`, so in a fleet
    /// the timeline is part of each replica's identity and merges stay
    /// exact) and injected into the event loop; in-flight work on a
    /// lost engine is recovered per `policy`.
    ///
    /// A *quiet* process (zero rates, no effective throttle — see
    /// [`FaultProcess::is_quiet`]) or an empty expanded timeline
    /// routes through the unmodified fault-free path, bit-identical to
    /// [`Simulator::run_session`].
    ///
    /// # Panics
    ///
    /// Panics if the session has no users, session user ids are not
    /// unique, the provider has no engines, or the fault process fails
    /// [`FaultProcess::validate`].
    pub fn run_session_faulted(
        &self,
        session: &SessionSpec,
        provider: &dyn CostProvider,
        scheduler: &mut dyn Scheduler,
        faults: &FaultProcess,
        policy: RecoveryPolicy,
    ) -> SessionSimResult {
        self.drive(
            crate::engine::run_tagged,
            session,
            provider,
            scheduler,
            Some((faults, policy)),
            None,
        )
    }

    /// [`Simulator::run_session_faulted`] with the streaming fold of
    /// [`Simulator::run_session_folded`]. Note that in faulted runs
    /// records reach the sink in *completion* order (nondecreasing
    /// `t_end`), not dispatch order — per-user they still sort to the
    /// same `records` vector the collecting variant returns.
    ///
    /// # Panics
    ///
    /// Same contract as [`Simulator::run_session_faulted`].
    pub fn run_session_folded_faulted(
        &self,
        session: &SessionSpec,
        provider: &dyn CostProvider,
        scheduler: &mut dyn Scheduler,
        faults: &FaultProcess,
        policy: RecoveryPolicy,
        sink: &mut dyn FnMut(u32, &ExecRecord),
    ) -> SessionSimResult {
        self.drive(
            crate::engine::run_tagged,
            session,
            provider,
            scheduler,
            Some((faults, policy)),
            Some(sink),
        )
    }

    /// Expands a fault process into this run's timeline, or `None`
    /// when the process is quiet / produces no events (which routes
    /// the run through the unmodified fault-free path).
    fn expand_timeline(
        &self,
        faults: &FaultProcess,
        provider: &dyn CostProvider,
        span_s: f64,
    ) -> Option<FaultTimeline> {
        assert!(
            faults.validate().is_ok(),
            "invalid fault process: {:?}",
            faults.validate()
        );
        if faults.is_quiet() {
            return None;
        }
        let tl = faults.timeline(
            crate::fault_seed(self.config.seed),
            provider.num_engines(),
            span_s,
        );
        if tl.is_empty() {
            None
        } else {
            Some(tl)
        }
    }

    /// The session pipeline behind every `run_session*` variant:
    /// session inputs → fault-timeline expansion → arrival feed →
    /// [`Self::assemble`]. A `sink` takes the records instead of the
    /// results.
    ///
    /// The arrival stream is a pure function of the session, the seed
    /// and the duration, so a session of at least
    /// [`PREFETCH_MIN_REQUESTS`](crate::PREFETCH_MIN_REQUESTS) requests
    /// on a host with a second core generates it on a helper thread
    /// ([`crate::feed`]); every other session, and a host that refuses
    /// the thread, merges it inline. Both feed the loop the same
    /// requests in the same order.
    fn drive(
        &self,
        event_loop: EventLoop,
        session: &SessionSpec,
        provider: &dyn CostProvider,
        scheduler: &mut dyn Scheduler,
        faults: Option<(&FaultProcess, RecoveryPolicy)>,
        sink: Option<Sink<'_>>,
    ) -> SessionSimResult {
        assert!(!session.users.is_empty(), "session has no users");
        let SimConfig { duration_s, seed } = self.config;
        let span_s = session.span_s(duration_s);
        let specs: Vec<(u32, &ScenarioSpec)> =
            session.users.iter().map(|u| (u.user, &*u.spec)).collect();
        let timeline =
            faults.and_then(|(process, _)| self.expand_timeline(process, provider, span_s));
        let faults = (timeline.as_ref().zip(faults))
            .map(|(timeline, (_, policy))| FaultCtx { timeline, policy });
        let run = |requests: Requests<'_>| {
            let inputs = LoopInputs {
                users: &specs,
                requests,
                faults,
                duration_s: span_s,
            };
            self.assemble(event_loop, inputs, provider, scheduler, sink)
        };
        let arrivals = || session.arrivals(seed, duration_s);
        let per_user = if feed::prefetch_pays(session.request_count(duration_s)) {
            feed::prefetched(feed::helper(), arrivals, run)
        } else {
            run(&mut arrivals())
        };
        SessionSimResult {
            session: session.name.clone(),
            per_user: per_user.into_iter().collect(),
            num_engines: provider.num_engines(),
            span_s,
        }
    }

    /// Runs one scenario's explicit request stream (tagged as user 0)
    /// through `event_loop`, fault-free and collecting.
    fn drive_requests(
        &self,
        event_loop: EventLoop,
        spec: &ScenarioSpec,
        requests: Vec<InferenceRequest>,
        provider: &dyn CostProvider,
        scheduler: &mut dyn Scheduler,
    ) -> SimResult {
        assert!(
            requests.windows(2).all(|w| w[0].t_req <= w[1].t_req),
            "requests must be sorted by t_req"
        );
        self.drive_scenario(
            event_loop,
            spec,
            &mut requests
                .into_iter()
                .map(|req| SessionRequest { user: 0, req }),
            provider,
            scheduler,
        )
    }

    /// Runs one scenario's user-0 request stream through `event_loop`,
    /// fault-free and collecting.
    fn drive_scenario(
        &self,
        event_loop: EventLoop,
        spec: &ScenarioSpec,
        requests: Requests<'_>,
        provider: &dyn CostProvider,
        scheduler: &mut dyn Scheduler,
    ) -> SimResult {
        let inputs = LoopInputs {
            users: &[(0, spec)],
            requests,
            faults: None,
            duration_s: self.config.duration_s,
        };
        let mut per_user = self.assemble(event_loop, inputs, provider, scheduler, None);
        per_user.remove(&0).expect("user 0 always present")
    }

    /// The one path from an event loop to results: `event_loop` runs
    /// with `sink` or, when there is none, with a sink that files each
    /// record under its user through the engine's [`UserIndex`] (a
    /// table lookup per record for dense ids, where a map search cost a
    /// 1024-user session several percent of its run). Filed records of
    /// a faulted run, which stream in completion order, are
    /// stable-sorted by start time; fault-free ones stream in dispatch
    /// order, already sorted. Each user gets one [`SimResult`], whose
    /// `records` stay empty when the caller's sink took them.
    fn assemble(
        &self,
        event_loop: EventLoop,
        inputs: LoopInputs<'_>,
        provider: &dyn CostProvider,
        scheduler: &mut dyn Scheduler,
        sink: Option<Sink<'_>>,
    ) -> BTreeMap<u32, SimResult> {
        let faulted = inputs.faults.is_some();
        let ids: Vec<u32> = inputs.users.iter().map(|&(user, _)| user).collect();
        let index = UserIndex::build(&ids);
        let mut filed = vec![Vec::new(); ids.len()];
        let mut file = |user, record: &ExecRecord| filed[index.get(user)].push(record.clone());
        let sink: Sink<'_> = match sink {
            Some(sink) => sink,
            None => &mut file,
        };
        let per_user = event_loop(
            self.config,
            inputs.users,
            inputs.requests,
            provider,
            scheduler,
            inputs.faults,
            sink,
        );
        per_user
            .into_iter()
            .map(|(user, stats)| {
                let mut records = std::mem::take(&mut filed[index.get(user)]);
                if faulted {
                    records.sort_by(|a, b| a.t_start.total_cmp(&b.t_start));
                } else {
                    debug_assert!(
                        records.windows(2).all(|w| w[0].t_start <= w[1].t_start),
                        "fault-free dispatch order must be nondecreasing in t_start"
                    );
                }
                let result = SimResult {
                    records,
                    stats,
                    num_engines: provider.num_engines(),
                    duration_s: inputs.duration_s,
                };
                (user, result)
            })
            .collect()
    }

    /// Reference counterpart of [`Simulator::run_requests`]: the same
    /// run through the quadratic reference loop of [`crate::naive`],
    /// kept for differential testing and before/after benchmarking.
    /// Not a supported API.
    #[doc(hidden)]
    pub fn run_requests_reference(
        &self,
        spec: &ScenarioSpec,
        requests: Vec<InferenceRequest>,
        provider: &dyn CostProvider,
        scheduler: &mut dyn Scheduler,
    ) -> SimResult {
        self.drive_requests(
            crate::naive::run_tagged_naive,
            spec,
            requests,
            provider,
            scheduler,
        )
    }

    /// Reference counterpart of all four session variants: `faults`
    /// selects [`Simulator::run_session_faulted`]'s fault injection
    /// and `sink` selects [`Simulator::run_session_folded`]'s
    /// streaming fold, run through the quadratic reference loop of
    /// [`crate::naive`]. Not a supported API.
    #[doc(hidden)]
    pub fn run_session_reference(
        &self,
        session: &SessionSpec,
        provider: &dyn CostProvider,
        scheduler: &mut dyn Scheduler,
        faults: Option<(&FaultProcess, RecoveryPolicy)>,
        sink: Option<Sink<'_>>,
    ) -> SessionSimResult {
        self.drive(
            crate::naive::run_tagged_naive,
            session,
            provider,
            scheduler,
            faults,
            sink,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::provider::{InferenceCost, TableProvider, UniformProvider};
    use crate::result::ExecRecord;
    use crate::scheduler::{LatencyGreedy, RoundRobin};
    use xrbench_workload::UsageScenario;

    fn run_scenario(scenario: UsageScenario, provider: &dyn CostProvider, seed: u64) -> SimResult {
        let sim = Simulator::new(SimConfig {
            duration_s: 1.0,
            seed,
        });
        sim.run(&scenario.spec(), provider, &mut LatencyGreedy::new())
    }

    #[test]
    fn fast_system_executes_every_frame() {
        // 0.1 ms per inference on 2 engines: nothing can drop.
        let p = UniformProvider::new(2, 0.0001, 0.001);
        let r = run_scenario(UsageScenario::VrGaming, &p, 1);
        for (m, st) in &r.stats {
            assert_eq!(st.dropped_frames(), 0, "{m}");
            assert_eq!(st.executed_frames, st.total_frames, "{m}");
            assert_eq!(st.missed_deadlines, 0, "{m}");
        }
        // 45 + 60 + 60 inferences.
        assert_eq!(r.records.len(), 165);
    }

    #[test]
    fn overloaded_system_drops_frames() {
        // 40 ms per inference on 1 engine: far beyond 165 req/s.
        let p = UniformProvider::new(1, 0.040, 0.001);
        let r = run_scenario(UsageScenario::VrGaming, &p, 1);
        let dropped: u64 = r.stats.values().map(|s| s.dropped_frames()).sum();
        assert!(dropped > 50, "expected heavy drops, got {dropped}");
        // Conservation: total = executed + dropped (+ nothing else for
        // the 1.0-probability VR gaming pipelines).
        for (m, st) in &r.stats {
            assert_eq!(
                st.total_frames,
                st.executed_frames + st.dropped_frames(),
                "{m}"
            );
        }
    }

    #[test]
    fn drop_reasons_partition_the_drop_count() {
        // Per-reason counters must always sum to dropped_frames, on
        // both light and heavy load.
        for latency in [0.0005, 0.006, 0.040] {
            let p = UniformProvider::new(1, latency, 0.001);
            for scenario in UsageScenario::ALL {
                let r = run_scenario(scenario, &p, 7);
                for (m, st) in &r.stats {
                    assert_eq!(
                        st.dropped_frames(),
                        st.drops.superseded + st.drops.upstream_dropped + st.drops.starved,
                        "{scenario:?}/{m} at {latency}s"
                    );
                }
            }
        }
    }

    #[test]
    fn overload_drops_are_attributed_to_reasons() {
        let p = UniformProvider::new(1, 0.040, 0.001);
        let r = run_scenario(UsageScenario::SocialInteractionA, &p, 1);
        let superseded: u64 = r.stats.values().map(|s| s.drops.superseded).sum();
        assert!(superseded > 0, "freshness policy must fire under overload");
    }

    #[test]
    fn untriggered_upstream_drops_are_attributed() {
        // A chained probabilistic cascade OD -> DE -> DR (all camera
        // models at the same rate, so sensor frames line up): whenever
        // the OD->DE draw deactivates DE, the dependent DR frame must
        // be recorded as an upstream-dropped drop.
        use xrbench_workload::{DependencyKind, ScenarioBuilder};
        let spec = ScenarioBuilder::new("chain")
            .model(ModelId::ObjectDetection, 30.0)
            .dependent(
                ModelId::DepthEstimation,
                30.0,
                ModelId::ObjectDetection,
                DependencyKind::Control,
                0.2,
            )
            .dependent(
                ModelId::DepthRefinement,
                30.0,
                ModelId::DepthEstimation,
                DependencyKind::Data,
                1.0,
            )
            .build()
            .expect("valid chain scenario");
        let p = UniformProvider::new(2, 0.0005, 0.001);
        let sim = Simulator::new(SimConfig {
            duration_s: 1.0,
            seed: 3,
        });
        let r = sim.run(&spec, &p, &mut LatencyGreedy::new());
        let st = &r.stats[&ModelId::DepthRefinement];
        assert!(
            st.drops.upstream_dropped > 0,
            "with p = 0.2 over 30 frames, some DR frame must lose its upstream"
        );
        assert_eq!(
            st.dropped_frames(),
            st.drops.superseded + st.drops.upstream_dropped + st.drops.starved
        );
    }

    #[test]
    fn dependency_order_respected() {
        let p = UniformProvider::new(4, 0.002, 0.001);
        let r = run_scenario(UsageScenario::SocialInteractionA, &p, 3);
        // Every GE record must start at or after the ES record of the
        // same sensor frame ends (Appendix B.2 dependency condition).
        for ge in r.records_for(ModelId::GazeEstimation) {
            let es = r
                .records_for(ModelId::EyeSegmentation)
                .find(|e| e.sensor_frame == ge.sensor_frame)
                .expect("GE ran without its ES upstream");
            assert!(
                ge.t_start >= es.t_end - 1e-12,
                "GE frame {} started before ES finished",
                ge.sensor_frame
            );
        }
    }

    #[test]
    fn hardware_occupancy_condition_holds() {
        // Appendix B.2: one engine never runs two inferences at once.
        let p = UniformProvider::new(2, 0.004, 0.001);
        let r = run_scenario(UsageScenario::ArAssistant, &p, 9);
        for e in 0..2 {
            let mut recs: Vec<_> = r.records.iter().filter(|x| x.engine == e).collect();
            recs.sort_by(|a, b| a.t_start.total_cmp(&b.t_start));
            for w in recs.windows(2) {
                assert!(w[1].t_start >= w[0].t_end - 1e-12, "overlap on engine {e}");
            }
        }
    }

    #[test]
    fn control_dependency_gates_speech_recognition() {
        // With p = 0.2 over 3 frames, SR rarely runs all 3; over many
        // seeds the trigger rate should approach 0.2.
        let p = UniformProvider::new(2, 0.001, 0.001);
        let mut triggered = 0u64;
        let mut possible = 0u64;
        for seed in 0..100 {
            let r = run_scenario(UsageScenario::OutdoorActivityA, &p, seed);
            let st = &r.stats[&ModelId::SpeechRecognition];
            triggered += st.total_frames;
            possible += st.total_frames + st.untriggered_frames;
        }
        let rate = triggered as f64 / possible as f64;
        assert!(
            (rate - 0.2).abs() < 0.06,
            "KD->SR trigger rate {rate} far from 0.2"
        );
    }

    #[test]
    fn untriggered_frames_do_not_hurt_qoe_accounting() {
        let p = UniformProvider::new(2, 0.001, 0.001);
        let r = run_scenario(UsageScenario::OutdoorActivityA, &p, 5);
        let st = &r.stats[&ModelId::SpeechRecognition];
        // total excludes untriggered; executed covers all triggered.
        assert_eq!(st.total_frames, st.executed_frames);
        assert_eq!(st.total_frames + st.untriggered_frames, 3);
    }

    #[test]
    fn deterministic_across_runs() {
        let p = UniformProvider::new(2, 0.003, 0.001);
        let a = run_scenario(UsageScenario::ArAssistant, &p, 77);
        let b = run_scenario(UsageScenario::ArAssistant, &p, 77);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_change_dynamic_scenarios() {
        let p = UniformProvider::new(2, 0.001, 0.001);
        let counts: Vec<usize> = (0..20)
            .map(|s| {
                run_scenario(UsageScenario::ArAssistant, &p, s)
                    .records
                    .len()
            })
            .collect();
        assert!(
            counts.iter().any(|c| *c != counts[0]),
            "AR assistant should be non-deterministic across seeds"
        );
    }

    #[test]
    fn slow_engine_avoided_by_latency_greedy() {
        let mut p = TableProvider::new(2);
        for m in ModelId::ALL {
            p.set(
                m,
                0,
                InferenceCost {
                    latency_s: 0.0001,
                    energy_j: 0.001,
                },
            );
            p.set(
                m,
                1,
                InferenceCost {
                    latency_s: 0.5,
                    energy_j: 0.001,
                },
            );
        }
        let r = run_scenario(UsageScenario::VrGaming, &p, 1);
        // All work fits on the fast engine; greedy never touches the
        // slow one after t=0 contention (allow a handful).
        let on_slow = r.records.iter().filter(|x| x.engine == 1).count();
        assert!(
            on_slow <= 3,
            "latency-greedy used slow engine {on_slow} times"
        );
    }

    #[test]
    fn round_robin_spreads_work() {
        let p = UniformProvider::new(4, 0.002, 0.001);
        let sim = Simulator::new(SimConfig::default());
        let r = sim.run(
            &UsageScenario::ArAssistant.spec(),
            &p,
            &mut RoundRobin::new(),
        );
        let used: Vec<usize> = (0..4)
            .filter(|&e| r.records.iter().any(|x| x.engine == e))
            .collect();
        assert!(used.len() >= 3, "round-robin used only {used:?}");
    }

    #[test]
    fn records_sorted_by_start_time() {
        let p = UniformProvider::new(2, 0.002, 0.001);
        let r = run_scenario(UsageScenario::SocialInteractionA, &p, 2);
        for w in r.records.windows(2) {
            assert!(w[0].t_start <= w[1].t_start);
        }
    }

    #[test]
    fn engine_matches_reference_loop_on_every_scenario() {
        // The crate-internal sanity slice of the full differential
        // suite in tests/runtime_properties.rs.
        for scenario in UsageScenario::ALL {
            for (engines, latency) in [(1, 0.020), (2, 0.003), (4, 0.0008)] {
                let p = UniformProvider::new(engines, latency, 0.001);
                let sim = Simulator::new(SimConfig {
                    duration_s: 1.0,
                    seed: 11,
                });
                let spec = scenario.spec();
                let requests = LoadGenerator::new(11).generate(&spec, 1.0);
                let fast = sim.run_requests(&spec, requests.clone(), &p, &mut LatencyGreedy::new());
                let slow =
                    sim.run_requests_reference(&spec, requests, &p, &mut LatencyGreedy::new());
                assert_eq!(fast, slow, "{scenario:?} on {engines}x{latency}s");
            }
        }
    }

    #[test]
    #[should_panic(expected = "duration")]
    fn zero_duration_rejected() {
        let _ = Simulator::new(SimConfig {
            duration_s: 0.0,
            seed: 0,
        });
    }

    #[test]
    #[should_panic(expected = "duration")]
    fn infinite_duration_rejected() {
        // A run that never ends would collect records without bound.
        let _ = Simulator::new(SimConfig {
            duration_s: f64::INFINITY,
            seed: 0,
        });
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn non_monotone_streams_rejected() {
        let p = UniformProvider::new(1, 0.001, 0.001);
        let sim = Simulator::new(SimConfig::default());
        let spec = UsageScenario::VrGaming.spec();
        let mut requests = LoadGenerator::new(1).generate(&spec, 1.0);
        // Replay an old frame id out of order.
        if let Some(last) = requests.last_mut() {
            last.frame_id = 0;
            last.sensor_frame = 0;
        }
        let _ = sim.run_requests(&spec, requests, &p, &mut LatencyGreedy::new());
    }

    // ---- multi-user sessions ----

    use xrbench_workload::SessionSpec;

    #[test]
    fn single_user_session_matches_scenario_run() {
        // A 1-user session at offset 0 reduces to the plain run.
        let p = UniformProvider::new(2, 0.002, 0.001);
        let sim = Simulator::new(SimConfig::default());
        let solo = sim.run(
            &UsageScenario::VrGaming.spec(),
            &p,
            &mut LatencyGreedy::new(),
        );
        let session = SessionSpec::uniform("solo", UsageScenario::VrGaming.spec(), 1, 0.0);
        let sr = sim.run_session(&session, &p, &mut LatencyGreedy::new());
        assert_eq!(sr.per_user.len(), 1);
        assert_eq!(sr.per_user[0].0, 0);
        assert_eq!(sr.per_user[0].1, solo);
    }

    #[test]
    fn session_users_share_engines() {
        // One engine, two users: total busy time must interleave, and
        // the occupancy condition must hold across users.
        let p = UniformProvider::new(1, 0.004, 0.001);
        let sim = Simulator::new(SimConfig::default());
        let session = SessionSpec::uniform("duo", UsageScenario::ArGaming.spec(), 2, 0.01);
        let sr = sim.run_session(&session, &p, &mut LatencyGreedy::new());
        let mut all: Vec<&ExecRecord> = sr
            .per_user
            .iter()
            .flat_map(|(_, r)| r.records.iter())
            .collect();
        all.sort_by(|a, b| a.t_start.total_cmp(&b.t_start));
        for w in all.windows(2) {
            assert!(
                w[1].t_start >= w[0].t_end - 1e-12,
                "two users overlapped on the single engine"
            );
        }
    }

    #[test]
    fn session_contention_degrades_each_user() {
        // Alone, VR gaming fits easily; 8 concurrent users on the same
        // 2 engines must drop frames somewhere.
        let p = UniformProvider::new(2, 0.004, 0.001);
        let sim = Simulator::new(SimConfig::default());
        let solo = sim.run(
            &UsageScenario::VrGaming.spec(),
            &p,
            &mut LatencyGreedy::new(),
        );
        let solo_drops: u64 = solo.stats.values().map(|s| s.dropped_frames()).sum();
        assert_eq!(solo_drops, 0, "solo run should be drop-free");
        let session = SessionSpec::uniform("crowd", UsageScenario::VrGaming.spec(), 8, 0.005);
        let sr = sim.run_session(&session, &p, &mut LatencyGreedy::new());
        let crowd_drops: u64 = sr
            .per_user
            .iter()
            .flat_map(|(_, r)| r.stats.values())
            .map(|s| s.dropped_frames())
            .sum();
        assert!(crowd_drops > 0, "8-way contention should drop frames");
    }

    #[test]
    fn session_dependencies_stay_per_user() {
        // Each user's GE must wait for *their own* ES of the same
        // sensor frame, never another user's.
        let p = UniformProvider::new(4, 0.002, 0.001);
        let sim = Simulator::new(SimConfig::default());
        let session =
            SessionSpec::uniform("pair", UsageScenario::SocialInteractionA.spec(), 2, 0.02);
        let sr = sim.run_session(&session, &p, &mut LatencyGreedy::new());
        for (_, r) in &sr.per_user {
            for ge in r.records_for(ModelId::GazeEstimation) {
                let es = r
                    .records_for(ModelId::EyeSegmentation)
                    .find(|e| e.sensor_frame == ge.sensor_frame)
                    .expect("GE ran without this user's ES upstream");
                assert!(ge.t_start >= es.t_end - 1e-12);
            }
        }
    }

    #[test]
    fn session_deterministic_across_runs() {
        let p = UniformProvider::new(2, 0.003, 0.001);
        let sim = Simulator::new(SimConfig::default());
        let specs = [
            UsageScenario::VrGaming.spec(),
            UsageScenario::OutdoorActivityA.spec(),
        ];
        let session = SessionSpec::mixed("mix", &specs, 4, 0.01);
        let a = sim.run_session(&session, &p, &mut LatencyGreedy::new());
        let b = sim.run_session(&session, &p, &mut LatencyGreedy::new());
        assert_eq!(a, b);
    }

    #[test]
    fn session_matches_reference_loop() {
        let p = UniformProvider::new(2, 0.003, 0.001);
        let sim = Simulator::new(SimConfig::default());
        let specs = [
            UsageScenario::SocialInteractionA.spec(),
            UsageScenario::OutdoorActivityA.spec(),
            UsageScenario::ArAssistant.spec(),
        ];
        let session = SessionSpec::mixed("mix", &specs, 6, 0.013);
        let fast = sim.run_session(&session, &p, &mut LatencyGreedy::new());
        let slow = sim.run_session_reference(&session, &p, &mut LatencyGreedy::new(), None, None);
        assert_eq!(fast, slow);
    }

    #[test]
    fn session_span_covers_last_user() {
        let p = UniformProvider::new(2, 0.001, 0.001);
        let sim = Simulator::new(SimConfig::default());
        let session = SessionSpec::uniform("s", UsageScenario::ArGaming.spec(), 3, 0.5);
        let sr = sim.run_session(&session, &p, &mut LatencyGreedy::new());
        assert!((sr.span_s - 2.0).abs() < 1e-12);
        for (_, r) in &sr.per_user {
            assert_eq!(r.duration_s, sr.span_s);
        }
    }

    #[test]
    fn folded_session_streams_the_collected_records() {
        // The folding path must observe exactly the records the
        // collecting path materializes — same values, same per-user
        // order — while returning empty `records` vectors itself.
        let p = UniformProvider::new(2, 0.003, 0.001);
        let sim = Simulator::new(SimConfig::default());
        let specs = [
            UsageScenario::VrGaming.spec(),
            UsageScenario::ArAssistant.spec(),
        ];
        let session = SessionSpec::mixed("fold", &specs, 5, 0.007);
        let collected = sim.run_session(&session, &p, &mut LatencyGreedy::new());

        let mut streamed: BTreeMap<u32, Vec<ExecRecord>> = BTreeMap::new();
        let folded =
            sim.run_session_folded(&session, &p, &mut LatencyGreedy::new(), &mut |u, r| {
                streamed.entry(u).or_default().push(r.clone());
            });

        for (u, r) in &collected.per_user {
            assert_eq!(streamed.get(u).expect("user streamed"), &r.records, "{u}");
            let f = folded.user(*u).expect("user folded");
            assert!(f.records.is_empty());
            assert_eq!(f.stats, r.stats, "user {u} stats must match");
            assert_eq!(f.duration_s, r.duration_s);
        }
        assert_eq!(folded.span_s, collected.span_s);
        assert_eq!(folded.num_engines, collected.num_engines);
    }

    #[test]
    #[should_panic(expected = "no users")]
    fn empty_session_rejected() {
        let p = UniformProvider::new(1, 0.001, 0.001);
        let sim = Simulator::new(SimConfig::default());
        let _ = sim.run_session(&SessionSpec::new("empty"), &p, &mut LatencyGreedy::new());
    }

    // ---- dynamic fleets: fault injection ----

    use crate::fault::{FaultProcess, RecoveryPolicy, ThrottleSpec};

    fn churny() -> FaultProcess {
        FaultProcess {
            failure_rate_per_s: 3.0,
            mean_downtime_s: 0.05,
            preemption_rate_per_s: 6.0,
            mean_preemption_s: 0.02,
            throttle: Some(ThrottleSpec {
                period_s: 0.2,
                duty: 0.5,
                factor: 0.5,
            }),
        }
    }

    fn fault_session() -> SessionSpec {
        SessionSpec::uniform("faulted", UsageScenario::VrGaming.spec(), 3, 0.01)
    }

    #[test]
    fn quiet_fault_process_is_bit_identical_to_clean_path() {
        let p = UniformProvider::new(2, 0.003, 0.001);
        let sim = Simulator::new(SimConfig::default());
        let session = fault_session();
        let clean = sim.run_session(&session, &p, &mut LatencyGreedy::new());
        let quiet = sim.run_session_faulted(
            &session,
            &p,
            &mut LatencyGreedy::new(),
            &FaultProcess::default(),
            RecoveryPolicy::Drop,
        );
        assert_eq!(clean, quiet);
    }

    #[test]
    fn faulted_runs_are_deterministic() {
        let p = UniformProvider::new(2, 0.003, 0.001);
        let sim = Simulator::new(SimConfig::default());
        let session = fault_session();
        for policy in RecoveryPolicy::ALL {
            let a =
                sim.run_session_faulted(&session, &p, &mut LatencyGreedy::new(), &churny(), policy);
            let b =
                sim.run_session_faulted(&session, &p, &mut LatencyGreedy::new(), &churny(), policy);
            assert_eq!(a, b, "{policy}");
        }
    }

    #[test]
    fn drop_policy_attributes_preemptions_and_device_loss() {
        let p = UniformProvider::new(2, 0.004, 0.001);
        let sim = Simulator::new(SimConfig::default());
        let session = fault_session();
        let r = sim.run_session_faulted(
            &session,
            &p,
            &mut LatencyGreedy::new(),
            &churny(),
            RecoveryPolicy::Drop,
        );
        let (mut preempted, mut lost) = (0u64, 0u64);
        for (_, u) in &r.per_user {
            for st in u.stats.values() {
                preempted += st.drops.preempted;
                lost += st.drops.device_lost;
                assert_eq!(
                    st.dropped_frames(),
                    st.drops.superseded
                        + st.drops.upstream_dropped
                        + st.drops.starved
                        + st.drops.preempted
                        + st.drops.device_lost,
                    "per-reason counters must partition dropped_frames"
                );
                assert_eq!(
                    st.total_frames,
                    st.executed_frames + st.dropped_frames(),
                    "frames must be accounted exactly once"
                );
            }
        }
        assert!(preempted > 0, "churny process must preempt something");
        assert!(lost > 0, "churny process must lose a device mid-flight");
    }

    #[test]
    fn recovery_policies_conserve_frames_and_differ() {
        let p = UniformProvider::new(2, 0.004, 0.001);
        let sim = Simulator::new(SimConfig::default());
        let session = fault_session();
        let mut executed = Vec::new();
        for policy in RecoveryPolicy::ALL {
            let r =
                sim.run_session_faulted(&session, &p, &mut LatencyGreedy::new(), &churny(), policy);
            for (_, u) in &r.per_user {
                for (m, st) in &u.stats {
                    assert_eq!(
                        st.total_frames,
                        st.executed_frames + st.dropped_frames(),
                        "{policy}/{m}"
                    );
                }
                // Records never overlap on one engine.
                for e in 0..r.num_engines {
                    let mut on_e: Vec<&ExecRecord> =
                        u.records.iter().filter(|x| x.engine == e).collect();
                    on_e.sort_by(|a, b| a.t_start.total_cmp(&b.t_start));
                    for w in on_e.windows(2) {
                        assert!(w[1].t_start >= w[0].t_end - 1e-12, "{policy} overlap");
                    }
                }
            }
            let ex: u64 = r
                .per_user
                .iter()
                .flat_map(|(_, u)| u.stats.values())
                .map(|s| s.executed_frames)
                .sum();
            executed.push(ex);
            if policy != RecoveryPolicy::Drop {
                // Recovery policies never attribute drops to faults.
                let fault_drops: u64 = r
                    .per_user
                    .iter()
                    .flat_map(|(_, u)| u.stats.values())
                    .map(|s| s.drops.fault_total())
                    .sum();
                assert_eq!(fault_drops, 0, "{policy}");
            }
        }
        // Requeue/migrate recover work the drop policy discards.
        assert!(
            executed[1] >= executed[0] && executed[2] >= executed[0],
            "recovery must not execute less than dropping: {executed:?}"
        );
        assert!(
            executed.iter().any(|&e| e != executed[0]),
            "policies should produce different outcomes under churn"
        );
    }

    #[test]
    fn faulted_fold_matches_faulted_collect() {
        let p = UniformProvider::new(2, 0.003, 0.001);
        let sim = Simulator::new(SimConfig::default());
        let session = fault_session();
        for policy in RecoveryPolicy::ALL {
            let collected =
                sim.run_session_faulted(&session, &p, &mut LatencyGreedy::new(), &churny(), policy);
            let mut streamed: BTreeMap<u32, Vec<ExecRecord>> = BTreeMap::new();
            let folded = sim.run_session_folded_faulted(
                &session,
                &p,
                &mut LatencyGreedy::new(),
                &churny(),
                policy,
                &mut |u, r| {
                    streamed.entry(u).or_default().push(r.clone());
                },
            );
            for (u, r) in &collected.per_user {
                // Faulted records stream in completion order; the same
                // stable start-time sort the collecting path applies
                // must reproduce its vectors exactly.
                let mut s = streamed.remove(u).unwrap_or_default();
                s.sort_by(|a, b| a.t_start.total_cmp(&b.t_start));
                assert_eq!(s, r.records, "{policy} user {u}");
                let f = folded.user(*u).expect("user folded");
                assert!(f.records.is_empty());
                assert_eq!(f.stats, r.stats, "{policy} user {u} stats");
            }
        }
    }

    #[test]
    fn completions_precede_fault_events_at_one_instant() {
        // A Down landing exactly when the first dispatch ends must find
        // its engine idle, in both loops: the work completes, so the
        // first record is unchanged and nothing is preempted.
        use crate::fault::{FaultAction, FaultEvent, FaultKind, FaultTimeline};
        let p = UniformProvider::new(1, 0.004, 0.001);
        let sim = Simulator::new(SimConfig::default());
        let spec = UsageScenario::VrGaming.spec();
        let clean = sim.run(&spec, &p, &mut LatencyGreedy::new());
        let first = clean.records[0].clone();
        let timeline = FaultTimeline::from_events(vec![
            FaultEvent {
                t: first.t_end,
                engine: first.engine as u32,
                action: FaultAction::Down(FaultKind::Preemption),
            },
            FaultEvent {
                t: first.t_end + 0.01,
                engine: first.engine as u32,
                action: FaultAction::Up,
            },
        ]);
        let loops: [(&str, EventLoop); 2] = [
            ("engine", crate::engine::run_tagged),
            ("naive", crate::naive::run_tagged_naive),
        ];
        for (name, event_loop) in loops {
            let inputs = LoopInputs {
                users: &[(0, &spec)],
                requests: &mut LoadGenerator::new(sim.config.seed).arrivals(&spec, 1.0),
                faults: Some(FaultCtx {
                    timeline: &timeline,
                    policy: RecoveryPolicy::Drop,
                }),
                duration_s: 1.0,
            };
            let mut scheduler = LatencyGreedy::new();
            let per_user = sim.assemble(event_loop, inputs, &p, &mut scheduler, None);
            let r = &per_user[&0];
            assert_eq!(r.records[0], first, "{name}: first record changed");
            let preempted: u64 = r.stats.values().map(|s| s.drops.preempted).sum();
            assert_eq!(
                preempted, 0,
                "{name}: work ending at the Down was preempted"
            );
        }
    }

    #[test]
    fn outages_after_the_last_completion_leave_the_run_unchanged() {
        // Metamorphic relation (no second engine needed as the oracle):
        // fault events that all fire after the fault-free run's last
        // completion find no work to revoke or slow, so the faulted run
        // must equal the fault-free one exactly, for every shipped
        // scheduler and recovery policy, in both loops. Exact equality
        // needs one more condition, which this session meets: no user
        // has two dispatches at one instant that complete out of
        // dispatch order (see the next test).
        use crate::fault::{FaultAction, FaultEvent, FaultKind};
        use crate::scheduler::{FailoverAware, LeastLoaded, SlackAwareEdf};
        let p = UniformProvider::new(3, 0.004, 0.001);
        let sim = Simulator::new(SimConfig::default());
        let specs: Vec<ScenarioSpec> = UsageScenario::ALL.iter().map(|s| s.spec()).collect();
        let session = SessionSpec::mixed("after-horizon", &specs, 6, 0.01);
        let span_s = session.span_s(sim.config.duration_s);
        let users: Vec<(u32, &ScenarioSpec)> =
            session.users.iter().map(|u| (u.user, &*u.spec)).collect();
        let schedulers: [fn() -> Box<dyn Scheduler>; 5] = [
            || Box::new(LatencyGreedy::new()),
            || Box::new(RoundRobin::new()),
            || Box::new(SlackAwareEdf::new()),
            || Box::new(LeastLoaded::new()),
            || Box::new(FailoverAware::new()),
        ];
        let loops: [(&str, EventLoop); 2] = [
            ("engine", crate::engine::run_tagged),
            ("naive", crate::naive::run_tagged_naive),
        ];
        for (name, event_loop) in loops {
            for make in schedulers {
                let run = |faults: Option<FaultCtx<'_>>| {
                    let inputs = LoopInputs {
                        users: &users,
                        requests: &mut session.arrivals(sim.config.seed, sim.config.duration_s),
                        faults,
                        duration_s: span_s,
                    };
                    let per_user = sim.assemble(event_loop, inputs, &p, make().as_mut(), None);
                    SessionSimResult {
                        session: session.name.clone(),
                        per_user: per_user.into_iter().collect(),
                        num_engines: p.num_engines(),
                        span_s,
                    }
                };
                let clean = run(None);
                let last = clean
                    .per_user
                    .iter()
                    .flat_map(|(_, r)| &r.records)
                    .map(|r| r.t_end)
                    .fold(0.0, f64::max);
                assert!(last > 0.0, "{name}: the clean run executed nothing");
                let event = |dt: f64, engine: u32, action: FaultAction| FaultEvent {
                    t: last + dt,
                    engine,
                    action,
                };
                let timeline = FaultTimeline::from_events(vec![
                    event(1e-6, 0, FaultAction::Down(FaultKind::Failure)),
                    event(1e-3, 1, FaultAction::Capacity(0.5)),
                    event(2e-3, 2, FaultAction::Down(FaultKind::Preemption)),
                    event(3e-3, 0, FaultAction::Up),
                    event(1.0, 2, FaultAction::Up),
                ]);
                for policy in RecoveryPolicy::ALL {
                    let faulted = run(Some(FaultCtx {
                        timeline: &timeline,
                        policy,
                    }));
                    assert_eq!(
                        faulted,
                        clean,
                        "{name}/{}/{policy}: outages after the last completion changed the run",
                        make().name()
                    );
                }
            }
        }
    }

    #[test]
    fn outages_after_the_last_completion_can_reorder_tied_records() {
        // The counterexample to exact equality above. A faulted run
        // emits records at completion and stable-sorts them by start
        // time, so a user's records that share a start time keep
        // completion order; a fault-free run keeps dispatch order. EDF
        // sends Eye Segmentation (earlier deadline) out first, but the
        // completion calendar pops Hand Tracking (lower key) first, so
        // the two records swap while every stat stays the same.
        use crate::fault::{FaultAction, FaultEvent, FaultKind};
        use xrbench_workload::ScenarioBuilder;
        let spec = ScenarioBuilder::new("pair")
            .model(ModelId::HandTracking, 30.0)
            .model(ModelId::EyeSegmentation, 30.0)
            .build()
            .expect("valid pair scenario");
        let request = |model, t_deadline| SessionRequest {
            user: 0,
            req: InferenceRequest {
                model,
                frame_id: 0,
                sensor_frame: 0,
                t_req: 0.0,
                t_deadline,
            },
        };
        let requests = [
            request(ModelId::HandTracking, 0.033),
            request(ModelId::EyeSegmentation, 0.010),
        ];
        let p = UniformProvider::new(2, 0.004, 0.001);
        let timeline = FaultTimeline::from_events(vec![FaultEvent {
            t: 0.5,
            engine: 0,
            action: FaultAction::Down(FaultKind::Failure),
        }]);
        let run = |faults: Option<FaultCtx<'_>>| {
            let inputs = LoopInputs {
                users: &[(0, &spec)],
                requests: &mut requests.iter().cloned(),
                faults,
                duration_s: 1.0,
            };
            let event_loop = crate::engine::run_tagged;
            let sim = Simulator::new(SimConfig::default());
            let mut per_user =
                sim.assemble(event_loop, inputs, &p, &mut LatencyGreedy::new(), None);
            per_user.remove(&0).expect("user 0 ran")
        };
        let clean = run(None);
        let faulted = run(Some(FaultCtx {
            timeline: &timeline,
            policy: RecoveryPolicy::Drop,
        }));
        let models: Vec<ModelId> = clean.records.iter().map(|r| r.model).collect();
        assert_eq!(models, [ModelId::EyeSegmentation, ModelId::HandTracking]);
        let mut swapped = faulted.records.clone();
        swapped.swap(0, 1);
        assert_eq!(swapped, clean.records, "the same two records, swapped");
        assert_eq!(faulted.stats, clean.stats);
    }

    #[test]
    fn failover_scheduler_runs_under_churn() {
        let p = UniformProvider::new(3, 0.003, 0.001);
        let sim = Simulator::new(SimConfig::default());
        let session = fault_session();
        let a = sim.run_session_faulted(
            &session,
            &p,
            &mut crate::FailoverAware::new(),
            &churny(),
            RecoveryPolicy::Migrate,
        );
        let b = sim.run_session_faulted(
            &session,
            &p,
            &mut crate::FailoverAware::new(),
            &churny(),
            RecoveryPolicy::Migrate,
        );
        assert_eq!(a, b, "failover-aware must stay deterministic");
        let ex: u64 = a
            .per_user
            .iter()
            .flat_map(|(_, u)| u.stats.values())
            .map(|s| s.executed_frames)
            .sum();
        assert!(ex > 0);
    }
}
