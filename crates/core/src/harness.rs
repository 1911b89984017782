//! The benchmark harness: run a scenario, score the timeline.

use xrbench_fleet::{InferenceScorer, ScenarioFold, SessionFold};
use xrbench_score::{AccuracyParams, EnergyParams, RtParams};
use xrbench_sim::{
    CostProvider, DropCounts, LatencyGreedy, Scheduler, SimConfig, SimResult, Simulator,
};
use xrbench_workload::{ScenarioSpec, SessionSpec, UsageScenario};

use crate::report::{
    BreakdownReport, ModelDropReport, ModelReport, ScenarioReport, SessionReport, UserReport,
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
    /// Panics if `duration_s` is not positive and finite.
    pub fn with_duration(mut self, duration_s: f64) -> Self {
        assert!(
            duration_s.is_finite() && duration_s > 0.0,
            "duration must be positive and finite"
        );
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
    /// Records are scored as the simulator dispatches them, through a
    /// [`SessionFold`] fed by [`Simulator::run_session_folded`], so the
    /// run keeps no record, however long the session. Each user's
    /// report equals [`Harness::score_result`] over that user's
    /// collected records. The session's `mean_utilization` sums each
    /// user's busy time in user-id order and divides once by span ×
    /// engines.
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
        let scorer = InferenceScorer::new(self.score.rt, self.score.energy, self.score.accuracy);
        let mut fold = SessionFold::new(session, system.num_engines());
        let mut sink = |user, rec: &_| _ = fold.record(user, rec, &scorer);
        let sim = Simulator::new(self.sim);
        let result = sim.run_session_folded(session, system, scheduler, &mut sink);
        let mut users = Vec::with_capacity(session.users.len());
        let mut session_drops = DropCounts::default();
        for u in &session.users {
            let r = result
                .user(u.user)
                .expect("simulator returns every session user");
            let report = scenario_report(&u.spec, system, scheduler_name, fold.user(u.user), r);
            let mut model_drops = Vec::with_capacity(u.spec.models.len());
            for sm in &u.spec.models {
                let drops = r
                    .stats
                    .get(&sm.model)
                    .map(|st| st.drops)
                    .unwrap_or_default();
                session_drops.merge(&drops);
                model_drops.push(ModelDropReport {
                    model: sm.model.abbrev().to_string(),
                    drops: drops.into(),
                });
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
            total_energy_mj: fold.total_energy_j() * 1e3,
            mean_utilization: fold.mean_utilization(result.span_s),
            drop_rate: result.drop_rate(),
            drops: session_drops.into(),
            users,
        }
    }

    /// Scores an existing simulation result against a scenario spec:
    /// one [`ScenarioFold`] over the result's records in start order.
    ///
    /// # Panics
    ///
    /// Panics if `result` holds a record of a model outside `spec` or
    /// on an engine outside its `num_engines`.
    pub fn score_result(
        &self,
        spec: &ScenarioSpec,
        system: &dyn CostProvider,
        scheduler_name: &str,
        result: &SimResult,
    ) -> ScenarioReport {
        let scorer = InferenceScorer::new(self.score.rt, self.score.energy, self.score.accuracy);
        let mut fold = ScenarioFold::new(spec, result.num_engines);
        for rec in &result.records {
            fold.record(rec, &scorer);
        }
        scenario_report(spec, system, scheduler_name, &fold, result)
    }
}

/// Closes a user's fold into its scenario report: every records-derived
/// field comes from `fold`, the frame accounting and the duration from
/// `result`, whose records are not read.
fn scenario_report(
    spec: &ScenarioSpec,
    system: &dyn CostProvider,
    scheduler_name: &str,
    fold: &ScenarioFold,
    result: &SimResult,
) -> ScenarioReport {
    let models = spec
        .models
        .iter()
        .zip(fold.model_means(&result.stats))
        .map(|(sm, means)| {
            let stats = result.stats.get(&sm.model).cloned().unwrap_or_default();
            ModelReport {
                model: sm.model.abbrev().to_string(),
                target_fps: sm.target_fps,
                total_frames: stats.total_frames,
                executed_frames: stats.executed_frames,
                dropped_frames: stats.dropped_frames(),
                untriggered_frames: stats.untriggered_frames,
                missed_deadlines: stats.missed_deadlines,
                mean_latency_ms: means.latency_s * 1e3,
                mean_energy_mj: means.energy_j * 1e3,
                per_model_score: means.per_model,
                qoe: means.qoe,
            }
        })
        .collect();
    ScenarioReport {
        scenario: spec.name.clone(),
        system: system.label(),
        scheduler: scheduler_name.to_string(),
        breakdown: BreakdownReport::from(fold.breakdown(&result.stats)),
        models,
        drop_rate: result.drop_rate(),
        total_energy_mj: fold.total_energy_j() * 1e3,
        mean_utilization: fold.mean_utilization(result.duration_s),
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
        // The scorer `score_result` folds with, built from the
        // harness's default score parameters.
        let h = Harness::new();
        let scorer = InferenceScorer::new(h.score.rt, h.score.energy, h.score.accuracy);
        let s = scorer.score(&xrbench_sim::ExecRecord {
            model: xrbench_models::ModelId::HandTracking,
            frame_id: 0,
            sensor_frame: 0,
            engine: 0,
            t_req: 0.0,
            t_deadline: 0.010,
            t_start: 0.0,
            t_end: 0.005,
            energy_j: 0.1,
        });
        assert!(s.realtime > 0.99);
        assert!((s.energy - (1.5 - 0.1) / 1.5).abs() < 1e-12);
        assert_eq!(s.accuracy, 1.0);
    }

    #[test]
    #[should_panic(expected = "duration")]
    fn invalid_duration_rejected() {
        for bad in [-1.0, 0.0, f64::NAN] {
            let refused = std::panic::catch_unwind(|| Harness::new().with_duration(bad));
            assert!(refused.is_err(), "{bad} s accepted");
        }
        // An infinite run would never end.
        let _ = Harness::new().with_duration(f64::INFINITY);
    }

    #[test]
    fn harness_runs_fleets() {
        use crate::spec::RunParams;
        use xrbench_fleet::{run_fleet, FleetRunConfig, FleetSpec};
        use xrbench_workload::SessionSpec;

        // Fleets run in the fleet crate under the configuration built
        // from the harness's run parameters.
        let params = RunParams {
            seed: Some(9),
            duration_s: None,
        };
        let cfg = params.fleet_config();
        assert_eq!(cfg.sim, params.harness().sim_config());

        let p = UniformProvider::new(4, 0.001, 0.001);
        let session = SessionSpec::uniform("party", UsageScenario::VrGaming.spec(), 4, 0.002);
        let fleet = FleetSpec::uniform("arcade", session, 6);
        let a = run_fleet(&fleet, &p, &FleetRunConfig { workers: 1, ..cfg });
        let b = run_fleet(&fleet, &p, &FleetRunConfig { workers: 4, ..cfg });
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

        for u in &r.users {
            // Per-model causes line up with the user's scenario report.
            for (d, m) in u.model_drops.iter().zip(&u.report.models) {
                assert_eq!(d.drops.total(), m.dropped_frames, "user {}", u.user);
            }
            // model_drops mirrors the scenario's model order.
            let names: Vec<&str> = u.model_drops.iter().map(|m| m.model.as_str()).collect();
            let expected: Vec<&str> = u.report.models.iter().map(|m| m.model.as_str()).collect();
            assert_eq!(names, expected);
        }
        // The session's causes are the per-model causes summed.
        let sum = |cause: fn(&xrbench_fleet::DropReport) -> u64| -> u64 {
            r.users
                .iter()
                .flat_map(|u| &u.model_drops)
                .map(|m| cause(&m.drops))
                .sum()
        };
        let summed = xrbench_fleet::DropReport {
            superseded: sum(|d| d.superseded),
            upstream_dropped: sum(|d| d.upstream_dropped),
            starved: sum(|d| d.starved),
            preempted: sum(|d| d.preempted),
            device_lost: sum(|d| d.device_lost),
        };
        assert_eq!(summed, r.drops);

        // The causes serialize with the report — and a fault-free run
        // never mentions the fault-only counters.
        let json = r.to_json();
        assert!(json.contains("\"superseded\""));
        assert!(json.contains("\"upstream_dropped\""));
        assert!(json.contains("\"starved\""));
        assert!(!json.contains("preempted"));
        assert!(!json.contains("device_lost"));
    }

    #[test]
    fn harness_compares_recovery_policies() {
        use crate::spec::RunParams;
        use xrbench_fleet::{compare_recovery_policies, run_fleet, FleetRunConfig, FleetSpec};
        use xrbench_sim::{FaultProcess, RecoveryPolicy};
        use xrbench_workload::SessionSpec;

        let churny = FaultProcess {
            failure_rate_per_s: 3.0,
            mean_downtime_s: 0.05,
            preemption_rate_per_s: 6.0,
            mean_preemption_s: 0.02,
            throttle: None,
        };
        let p = UniformProvider::new(2, 0.002, 0.001);
        let fleet = FleetSpec::new("churn").group_faulted(
            "vr",
            SessionSpec::uniform("vr", UsageScenario::VrGaming.spec(), 2, 0.002),
            3,
            churny,
        );
        let cfg = RunParams::default().fleet_config();
        let cmp = compare_recovery_policies(&fleet, &p, &FleetRunConfig { workers: 2, ..cfg });
        assert_eq!(cmp.policies.len(), 3);
        assert!(cmp.policy("drop").unwrap().preempted > 0);
        // Per-policy rows reproduce a dedicated run of that policy.
        let requeue = run_fleet(
            &fleet,
            &p,
            &FleetRunConfig {
                workers: 4,
                recovery: RecoveryPolicy::Requeue,
                ..cfg
            },
        );
        let row = cmp.policy("requeue").unwrap();
        assert_eq!(row.executed_inferences, requeue.executed_inferences);
        assert_eq!(row.fleet_score, requeue.fleet_score);
    }
}
