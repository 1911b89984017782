//! The benchmark harness: run a scenario, score the timeline.

use xrbench_models::{quality_for, ModelId, QualityType};
use xrbench_score::{
    accuracy_score, energy_score, rt_score, scenario_score, AccuracyParams, EnergyParams,
    InferenceScore, MetricKind, ModelOutcome, RtParams,
};
use xrbench_sim::{CostProvider, LatencyGreedy, Scheduler, SimConfig, SimResult, Simulator};
use xrbench_workload::{ScenarioSpec, SessionSpec, UsageScenario};

use crate::report::{
    BreakdownReport, DropBreakdownReport, ModelDropReport, ModelReport, ScenarioReport,
    SessionReport, UserReport,
};

/// Scoring parameters for all four unit scores.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ScoreParams {
    /// Real-time sigmoid parameters (k = 15/ms by default).
    pub rt: RtParams,
    /// Energy score parameters (Emax = 1500 mJ by default).
    pub energy: EnergyParams,
    /// Accuracy score parameters (ε = 1e-6 by default).
    pub accuracy: AccuracyParams,
}

/// Orchestrates workload generation, simulation, and scoring
/// (Figure 2's "Benchmark Framework").
#[derive(Debug, Clone)]
pub struct Harness {
    sim: SimConfig,
    score: ScoreParams,
}

impl Default for Harness {
    fn default() -> Self {
        Self::new()
    }
}

impl Harness {
    /// A harness with the paper defaults: 1 s runs, k = 15,
    /// Emax = 1500 mJ.
    pub fn new() -> Self {
        Self {
            sim: SimConfig::default(),
            score: ScoreParams::default(),
        }
    }

    /// Overrides the RNG seed (jitter + cascade draws).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.sim.seed = seed;
        self
    }

    /// Overrides the run duration in seconds.
    ///
    /// # Panics
    ///
    /// Panics if `duration_s` is not positive.
    pub fn with_duration(mut self, duration_s: f64) -> Self {
        assert!(duration_s > 0.0, "duration must be positive");
        self.sim.duration_s = duration_s;
        self
    }

    /// Overrides the scoring parameters.
    pub fn with_score_params(mut self, score: ScoreParams) -> Self {
        self.score = score;
        self
    }

    /// The simulator configuration in use.
    pub fn sim_config(&self) -> SimConfig {
        self.sim
    }

    /// Runs one usage scenario with the default latency-greedy
    /// scheduler and returns its report.
    pub fn run_scenario(
        &self,
        scenario: UsageScenario,
        system: &dyn CostProvider,
    ) -> ScenarioReport {
        self.run_spec(&scenario.spec(), system, &mut LatencyGreedy::new())
            .0
    }

    /// Runs an explicit scenario specification under an explicit
    /// scheduler, returning both the scored report and the raw
    /// simulation result (execution timeline) for deep dives.
    pub fn run_spec(
        &self,
        spec: &ScenarioSpec,
        system: &dyn CostProvider,
        scheduler: &mut dyn Scheduler,
    ) -> (ScenarioReport, SimResult) {
        let scheduler_name = scheduler.name();
        let sim = Simulator::new(self.sim);
        let result = sim.run(spec, system, scheduler);
        let report = self.score_result(spec, system, scheduler_name, &result);
        (report, result)
    }

    /// Runs a multi-user session: all users' merged request streams
    /// share the system's engines concurrently, and the report breaks
    /// scores down per user plus a session-level aggregate
    /// (`xrbench_score::session_breakdown` / `session_score`).
    ///
    /// # Panics
    ///
    /// Panics if the session has no users, session user ids are not
    /// unique, or the system has no engines.
    pub fn run_session(
        &self,
        session: &SessionSpec,
        system: &dyn CostProvider,
        scheduler: &mut dyn Scheduler,
    ) -> SessionReport {
        let scheduler_name = scheduler.name();
        let sim = Simulator::new(self.sim);
        let result = sim.run_session(session, system, scheduler);
        self.assemble_session_report(session, system, scheduler_name, &result)
    }

    /// [`Harness::run_session`] under an injected availability process
    /// (engine churn, preemption, throttling): the fault timeline is
    /// derived deterministically from the harness seed, and in-flight
    /// work on a lost engine is recovered per `policy`. Revoked frames
    /// surface as `preempted` / `device_lost` in the per-user and
    /// session drop breakdowns. A quiet process is bit-identical to
    /// [`Harness::run_session`].
    ///
    /// # Panics
    ///
    /// Same contract as [`Harness::run_session`], plus an invalid
    /// fault process (see [`xrbench_sim::FaultProcess::validate`]).
    pub fn run_session_faulted(
        &self,
        session: &SessionSpec,
        system: &dyn CostProvider,
        scheduler: &mut dyn Scheduler,
        faults: &xrbench_sim::FaultProcess,
        policy: xrbench_sim::RecoveryPolicy,
    ) -> SessionReport {
        let scheduler_name = scheduler.name();
        let sim = Simulator::new(self.sim);
        let result = sim.run_session_faulted(session, system, scheduler, faults, policy);
        self.assemble_session_report(session, system, scheduler_name, &result)
    }

    /// Scores and assembles a simulated session into its report.
    fn assemble_session_report(
        &self,
        session: &SessionSpec,
        system: &dyn CostProvider,
        scheduler_name: &str,
        result: &xrbench_sim::SessionSimResult,
    ) -> SessionReport {
        let mut users = Vec::with_capacity(session.users.len());
        let mut session_drops = DropBreakdownReport::default();
        for u in &session.users {
            let r = result
                .user(u.user)
                .expect("simulator returns every session user");
            let report = self.score_result(&u.spec, system, scheduler_name, r);
            let model_drops: Vec<ModelDropReport> = u
                .spec
                .models
                .iter()
                .map(|sm| {
                    let st = r.stats.get(&sm.model).cloned().unwrap_or_default();
                    ModelDropReport {
                        model: sm.model.abbrev().to_string(),
                        drops: DropBreakdownReport {
                            superseded: st.dropped_superseded,
                            upstream_dropped: st.dropped_upstream,
                            starved: st.dropped_starved,
                            preempted: st.dropped_preempted,
                            device_lost: st.dropped_device_lost,
                        },
                    }
                })
                .collect();
            for m in &model_drops {
                session_drops.add(&m.drops);
            }
            users.push(UserReport {
                user: u.user,
                start_offset_s: u.start_offset_s,
                model_drops,
                report,
            });
        }
        let breakdowns: Vec<xrbench_score::ScenarioBreakdown> =
            users.iter().map(|u| u.report.breakdown.into()).collect();
        let aggregate = BreakdownReport::from(xrbench_score::session_breakdown(&breakdowns));
        SessionReport {
            session: session.name.clone(),
            system: system.label(),
            scheduler: scheduler_name.to_string(),
            num_users: users.len(),
            span_s: result.span_s,
            // The session score is the aggregate's overall (the mean
            // of per-user overalls) — one aggregation path, surfaced
            // under the name the suite-level score uses.
            session_score: aggregate.overall_score,
            aggregate,
            total_energy_mj: result.total_energy_j() * 1e3,
            mean_utilization: result.mean_utilization(),
            drop_rate: result.drop_rate(),
            drops: session_drops,
            users,
        }
    }

    /// Runs a **fleet**: `Σ replicas` independent device sessions
    /// (each its own [`xrbench_fleet::FleetSpec`] group replica with a
    /// derived seed, simulated against its own replica of `system`)
    /// across a bounded worker pool, folding every result into a
    /// streaming, exactly-mergeable aggregate. Memory stays
    /// O(workers × groups) and the returned
    /// [`xrbench_fleet::FleetReport`] is bit-identical for any
    /// `workers` value — see `xrbench-fleet` and `DESIGN.md`.
    ///
    /// The harness's seed, duration, and score parameters apply to
    /// every device session, exactly as they would in
    /// [`Harness::run_session`].
    ///
    /// # Panics
    ///
    /// Panics if the fleet has no groups, `workers == 0`, or the
    /// system has no engines.
    pub fn run_fleet(
        &self,
        fleet: &xrbench_fleet::FleetSpec,
        system: &(dyn CostProvider + Sync),
        workers: usize,
    ) -> xrbench_fleet::FleetReport {
        self.run_fleet_with_recovery(
            fleet,
            system,
            workers,
            xrbench_sim::RecoveryPolicy::default(),
        )
    }

    /// [`Harness::run_fleet`] with an explicit recovery policy for
    /// fault-injected device groups (groups without a fault process
    /// are unaffected — a fully fault-free fleet is bit-identical
    /// under every policy).
    ///
    /// # Panics
    ///
    /// Same contract as [`Harness::run_fleet`].
    pub fn run_fleet_with_recovery(
        &self,
        fleet: &xrbench_fleet::FleetSpec,
        system: &(dyn CostProvider + Sync),
        workers: usize,
        recovery: xrbench_sim::RecoveryPolicy,
    ) -> xrbench_fleet::FleetReport {
        xrbench_fleet::run_fleet(fleet, system, &self.fleet_config(workers, recovery))
    }

    /// Runs a fault-injected fleet once per
    /// [`xrbench_sim::RecoveryPolicy`] — identical spec, seeds, and
    /// outage schedules — and tabulates the outcomes
    /// (see [`xrbench_fleet::compare_recovery_policies`]).
    ///
    /// # Panics
    ///
    /// Same contract as [`Harness::run_fleet`].
    pub fn compare_fleet_policies(
        &self,
        fleet: &xrbench_fleet::FleetSpec,
        system: &(dyn CostProvider + Sync),
        workers: usize,
    ) -> xrbench_fleet::PolicyComparisonReport {
        let config = self.fleet_config(workers, xrbench_sim::RecoveryPolicy::default());
        xrbench_fleet::compare_recovery_policies(fleet, system, &config)
    }

    /// Runs shard `shard` of `num_shards` of a fleet — the same
    /// sessions [`Harness::run_fleet_with_recovery`] would seed for
    /// the global `(group, replica)` coordinates that fall in the
    /// shard — and returns the partial state
    /// ([`xrbench_fleet::ShardState`]) ready to cross a process
    /// boundary (see [`xrbench_fleet::merge_fleet_shards`]).
    ///
    /// # Panics
    ///
    /// Same contract as [`Harness::run_fleet`], plus
    /// `shard < num_shards`.
    pub fn run_fleet_shard(
        &self,
        fleet: &xrbench_fleet::FleetSpec,
        system: &(dyn CostProvider + Sync),
        workers: usize,
        recovery: xrbench_sim::RecoveryPolicy,
        shard: u32,
        num_shards: u32,
    ) -> xrbench_fleet::ShardState {
        xrbench_fleet::run_fleet_shard(
            fleet,
            system,
            &self.fleet_config(workers, recovery),
            shard,
            num_shards,
        )
    }

    pub(crate) fn fleet_config(
        &self,
        workers: usize,
        recovery: xrbench_sim::RecoveryPolicy,
    ) -> xrbench_fleet::FleetRunConfig {
        xrbench_fleet::FleetRunConfig {
            sim: self.sim,
            rt: self.score.rt,
            energy: self.score.energy,
            accuracy: self.score.accuracy,
            workers,
            recovery,
        }
    }

    /// Scores an existing simulation result against a scenario spec.
    pub fn score_result(
        &self,
        spec: &ScenarioSpec,
        system: &dyn CostProvider,
        scheduler_name: &str,
        result: &SimResult,
    ) -> ScenarioReport {
        let mut outcomes: Vec<ModelOutcome> = Vec::with_capacity(spec.models.len());
        let mut model_reports: Vec<ModelReport> = Vec::with_capacity(spec.models.len());

        for sm in &spec.models {
            let stats = result.stats.get(&sm.model).cloned().unwrap_or_default();
            let mut scores = Vec::with_capacity(stats.executed_frames as usize);
            let mut lat_sum = 0.0;
            let mut energy_sum = 0.0;
            for rec in result.records_for(sm.model) {
                scores.push(self.score_inference(
                    sm.model,
                    rec.latency_s(),
                    rec.slack_s(),
                    rec.energy_j,
                ));
                lat_sum += rec.latency_s();
                energy_sum += rec.energy_j;
            }
            let n = scores.len().max(1) as f64;
            let outcome = ModelOutcome {
                inference_scores: scores,
                total_frames: stats.total_frames,
            };
            model_reports.push(ModelReport {
                model: sm.model.abbrev().to_string(),
                target_fps: sm.target_fps,
                total_frames: stats.total_frames,
                executed_frames: stats.executed_frames,
                dropped_frames: stats.dropped_frames,
                untriggered_frames: stats.untriggered_frames,
                missed_deadlines: stats.missed_deadlines,
                mean_latency_ms: lat_sum / n * 1e3,
                mean_energy_mj: energy_sum / n * 1e3,
                per_model_score: outcome.per_model(),
                qoe: outcome.qoe(),
            });
            outcomes.push(outcome);
        }

        let breakdown = scenario_score(&outcomes);
        ScenarioReport {
            scenario: spec.name.clone(),
            system: system.label(),
            scheduler: scheduler_name.to_string(),
            breakdown: BreakdownReport::from(breakdown),
            models: model_reports,
            drop_rate: result.drop_rate(),
            total_energy_mj: result.total_energy_j() * 1e3,
            mean_utilization: result.mean_utilization(),
        }
    }

    /// Scores a single inference (Definition 14's three factors).
    pub fn score_inference(
        &self,
        model: ModelId,
        latency_s: f64,
        slack_s: f64,
        energy_j: f64,
    ) -> InferenceScore {
        let q = quality_for(model);
        let kind = match q.quality_type {
            QualityType::HigherIsBetter => MetricKind::HigherIsBetter,
            QualityType::LowerIsBetter => MetricKind::LowerIsBetter,
        };
        InferenceScore::new(
            rt_score(latency_s, slack_s, self.score.rt),
            energy_score(energy_j, self.score.energy),
            accuracy_score(q.measured, q.target, kind, self.score.accuracy),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xrbench_sim::UniformProvider;

    #[test]
    fn fast_cheap_system_scores_near_one() {
        let p = UniformProvider::new(2, 0.0005, 0.001);
        let r = Harness::new().run_scenario(UsageScenario::VrGaming, &p);
        assert!(r.breakdown.realtime_score > 0.99, "{:?}", r.breakdown);
        assert!(r.breakdown.energy_score > 0.99);
        assert!(r.breakdown.qoe_score > 0.99);
        assert!(r.breakdown.accuracy_score > 0.99);
        assert!(r.overall() > 0.98);
        assert_eq!(r.drop_rate, 0.0);
    }

    #[test]
    fn slow_system_scores_poorly() {
        // 100 ms per inference: every deadline blown, frames dropped.
        let p = UniformProvider::new(1, 0.1, 0.001);
        let r = Harness::new().run_scenario(UsageScenario::VrGaming, &p);
        assert!(r.breakdown.realtime_score < 0.05, "{:?}", r.breakdown);
        assert!(r.breakdown.qoe_score < 0.5);
        assert!(r.overall() < 0.05);
    }

    #[test]
    fn expensive_inferences_zero_energy_score() {
        // 2 J per inference > Emax of 1.5 J.
        let p = UniformProvider::new(2, 0.0005, 2.0);
        let r = Harness::new().run_scenario(UsageScenario::VrGaming, &p);
        assert_eq!(r.breakdown.energy_score, 0.0);
        assert_eq!(r.overall(), 0.0);
        // Real-time score is unaffected — breakdown analysis works.
        assert!(r.breakdown.realtime_score > 0.99);
    }

    #[test]
    fn report_lists_every_scenario_model() {
        let p = UniformProvider::new(2, 0.001, 0.001);
        let r = Harness::new().run_scenario(UsageScenario::ArAssistant, &p);
        assert_eq!(r.models.len(), 6);
        for abbrev in ["KD", "SR", "SS", "OD", "DE", "DR"] {
            assert!(r.model(abbrev).is_some(), "{abbrev} missing");
        }
    }

    #[test]
    fn seed_controls_reproducibility() {
        let p = UniformProvider::new(2, 0.002, 0.001);
        let a = Harness::new()
            .with_seed(1)
            .run_scenario(UsageScenario::ArAssistant, &p);
        let b = Harness::new()
            .with_seed(1)
            .run_scenario(UsageScenario::ArAssistant, &p);
        assert_eq!(a, b);
    }

    #[test]
    fn score_inference_triple_in_range() {
        let h = Harness::new();
        let s = h.score_inference(ModelId::HandTracking, 0.005, 0.010, 0.1);
        assert!(s.realtime > 0.99);
        assert!((s.energy - (1.5 - 0.1) / 1.5).abs() < 1e-12);
        assert_eq!(s.accuracy, 1.0);
    }

    #[test]
    #[should_panic(expected = "duration")]
    fn invalid_duration_rejected() {
        let _ = Harness::new().with_duration(-1.0);
    }

    #[test]
    fn harness_runs_fleets() {
        use xrbench_fleet::FleetSpec;
        use xrbench_workload::SessionSpec;

        let p = UniformProvider::new(4, 0.001, 0.001);
        let session = SessionSpec::uniform("party", UsageScenario::VrGaming.spec(), 4, 0.002);
        let fleet = FleetSpec::uniform("arcade", session, 6);
        let h = Harness::new();
        let a = h.run_fleet(&fleet, &p, 1);
        let b = h.run_fleet(&fleet, &p, 4);
        assert_eq!(a, b, "worker count must not change the report");
        assert_eq!(a.num_sessions, 6);
        assert_eq!(a.num_users, 24);
        assert!(a.fleet_score > 0.9, "uncontended VR fleet scores high");
        assert_eq!(a.scheduler, "latency-greedy");
    }

    #[test]
    fn session_report_surfaces_drop_reasons() {
        use xrbench_sim::LatencyGreedy;
        use xrbench_workload::SessionSpec;

        // 8 users on one slow engine: drops are guaranteed, and every
        // drop must be attributed to a cause in the report.
        let p = UniformProvider::new(1, 0.004, 0.001);
        let session = SessionSpec::uniform("crowd", UsageScenario::VrGaming.spec(), 8, 0.005);
        let r = Harness::new().run_session(&session, &p, &mut LatencyGreedy::new());

        let total_dropped: u64 = r
            .users
            .iter()
            .flat_map(|u| u.report.models.iter())
            .map(|m| m.dropped_frames)
            .sum();
        assert!(total_dropped > 0, "contention must drop frames");
        assert_eq!(r.drops.total(), total_dropped);

        let mut sum = crate::report::DropBreakdownReport::default();
        for u in &r.users {
            // Per-user totals line up with the user's scenario report.
            let user_dropped: u64 = u.report.models.iter().map(|m| m.dropped_frames).sum();
            assert_eq!(u.drops().total(), user_dropped, "user {}", u.user);
            // model_drops mirrors the scenario's model order.
            let names: Vec<&str> = u.model_drops.iter().map(|m| m.model.as_str()).collect();
            let expected: Vec<&str> = u.report.models.iter().map(|m| m.model.as_str()).collect();
            assert_eq!(names, expected);
            sum.add(&u.drops());
        }
        assert_eq!(sum, r.drops);

        // The causes serialize with the report — and a fault-free run
        // never mentions the fault-only counters.
        let json = r.to_json();
        assert!(json.contains("\"superseded\""));
        assert!(json.contains("\"upstream_dropped\""));
        assert!(json.contains("\"starved\""));
        assert!(!json.contains("preempted"));
        assert!(!json.contains("device_lost"));
    }

    fn churny() -> xrbench_sim::FaultProcess {
        xrbench_sim::FaultProcess {
            failure_rate_per_s: 3.0,
            mean_downtime_s: 0.05,
            preemption_rate_per_s: 6.0,
            mean_preemption_s: 0.02,
            throttle: None,
        }
    }

    #[test]
    fn faulted_session_surfaces_fault_drops() {
        use xrbench_sim::{LatencyGreedy, RecoveryPolicy};
        use xrbench_workload::SessionSpec;

        let p = UniformProvider::new(2, 0.002, 0.001);
        let session = SessionSpec::uniform("churn", UsageScenario::VrGaming.spec(), 4, 0.005);
        let h = Harness::new();
        let r = h.run_session_faulted(
            &session,
            &p,
            &mut LatencyGreedy::new(),
            &churny(),
            RecoveryPolicy::Drop,
        );
        assert!(r.drops.fault_total() > 0, "{:?}", r.drops);
        // Fault drops roll up from per-model, per-user accounting.
        let mut sum = crate::report::DropBreakdownReport::default();
        for u in &r.users {
            sum.add(&u.drops());
        }
        assert_eq!(sum, r.drops);
        let json = r.to_json();
        assert!(json.contains("\"preempted\"") || json.contains("\"device_lost\""));

        // A quiet process is bit-identical to the fault-free path.
        let quiet = h.run_session_faulted(
            &session,
            &p,
            &mut LatencyGreedy::new(),
            &xrbench_sim::FaultProcess::default(),
            RecoveryPolicy::Drop,
        );
        let clean = h.run_session(&session, &p, &mut LatencyGreedy::new());
        assert_eq!(quiet, clean);
        assert_eq!(quiet.to_json(), clean.to_json());
    }

    #[test]
    fn harness_compares_recovery_policies() {
        use xrbench_fleet::FleetSpec;
        use xrbench_workload::SessionSpec;

        let p = UniformProvider::new(2, 0.002, 0.001);
        let fleet = FleetSpec::new("churn").group_faulted(
            "vr",
            SessionSpec::uniform("vr", UsageScenario::VrGaming.spec(), 2, 0.002),
            3,
            churny(),
        );
        let h = Harness::new();
        let cmp = h.compare_fleet_policies(&fleet, &p, 2);
        assert_eq!(cmp.policies.len(), 3);
        assert!(cmp.policy("drop").unwrap().preempted > 0);
        // Per-policy rows reproduce the dedicated entry point.
        let requeue =
            h.run_fleet_with_recovery(&fleet, &p, 4, xrbench_sim::RecoveryPolicy::Requeue);
        let row = cmp.policy("requeue").unwrap();
        assert_eq!(row.executed_inferences, requeue.executed_inferences);
        assert_eq!(row.fleet_score, requeue.fleet_score);
    }
}
