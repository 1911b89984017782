//! Streaming scoring: the one implementation of the paper's scoring
//! hierarchy from inference (Definition 14) to model and usage
//! scenario (Definition 15) that every report is built from.
//!
//! [`ScenarioFold`] scores one user's executed inferences as they
//! arrive and keeps only per-model sums, the user's energy and each
//! engine's busy time, then closes against the run's frame accounting
//! into the [`ScenarioBreakdown`], each model's [`ModelMeans`], the
//! total energy and the mean engine utilization. [`SessionFold`]
//! routes a device session's records to one fold per user and sums
//! the users' energy and busy time in user-id order.
//!
//! Every report reads records only through these folds. Scenario
//! reports (`Harness::score_result`) run one fold over a result's
//! records in start order. Session reports (`Harness::run_session`)
//! and the fleet executor feed a [`SessionFold`] from the simulator's
//! sink while it dispatches, so a device session is scored without
//! ever retaining its records. A fault-free run streams each user's
//! records in dispatch order, the order a collecting run files them
//! in, so both feeds fold the same sequence.
//! `xrbench_score::scenario_score` over materialized `ModelOutcome`s
//! remains the Definition 15 reference: per-model sums accumulate in
//! record order and means divide in its order, so the fold reproduces
//! it bit for bit (`tests/scoring_properties.rs` checks this under
//! every scheduler and recovery policy, and checks a streamed session
//! report against one scored from collected records).

use std::collections::BTreeMap;

use xrbench_models::{quality_for, ModelId, QualityType};
use xrbench_score::{
    accuracy_score, energy_score, qoe_score, rt_score, AccuracyParams, EnergyParams,
    InferenceScore, MetricKind, RtParams, ScenarioBreakdown,
};
use xrbench_sim::{ExecRecord, ModelStats, SessionSimResult};
use xrbench_workload::{ScenarioSpec, SessionSpec};

/// Per-inference scorer with the accuracy component precomputed per
/// model (it is a pure function of the model's quality table and the
/// accuracy parameters, so computing it once per run instead of once
/// per inference changes nothing but the cost).
#[derive(Debug, Clone)]
pub struct InferenceScorer {
    rt: RtParams,
    energy: EnergyParams,
    accuracy_by_model: Vec<f64>,
}

impl InferenceScorer {
    /// Builds the scorer for one parameter set.
    pub fn new(rt: RtParams, energy: EnergyParams, accuracy: AccuracyParams) -> Self {
        let accuracy_by_model = ModelId::ALL
            .iter()
            .map(|&m| {
                let q = quality_for(m);
                let kind = match q.quality_type {
                    QualityType::HigherIsBetter => MetricKind::HigherIsBetter,
                    QualityType::LowerIsBetter => MetricKind::LowerIsBetter,
                };
                accuracy_score(q.measured, q.target, kind, accuracy)
            })
            .collect();
        Self {
            rt,
            energy,
            accuracy_by_model,
        }
    }

    /// Scores one executed inference (Definition 14's three factors).
    pub fn score(&self, rec: &ExecRecord) -> InferenceScore {
        InferenceScore::new(
            rt_score(rec.latency_s(), rec.slack_s(), self.rt),
            energy_score(rec.energy_j, self.energy),
            self.accuracy_by_model[rec.model as usize],
        )
    }
}

/// One model's closed fold: means over its executed inferences (zero
/// when none executed) and its QoE.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelMeans {
    /// Executed inferences folded.
    pub executed: u64,
    /// The per-model score: mean combined score (Figure 4).
    pub per_model: f64,
    /// Executed over streamed frames (Definition 13).
    pub qoe: f64,
    /// Mean real-time score.
    pub realtime: f64,
    /// Mean energy score.
    pub energy: f64,
    /// Mean accuracy score.
    pub accuracy: f64,
    /// Mean inference latency (s).
    pub latency_s: f64,
    /// Mean inference energy (J).
    pub energy_j: f64,
}

/// One model's running sums inside a [`ScenarioFold`].
#[derive(Debug, Clone, Copy, Default)]
struct ModelFold {
    count: u64,
    combined_sum: f64,
    rt_sum: f64,
    en_sum: f64,
    acc_sum: f64,
    latency_sum: f64,
    energy_sum: f64,
}

impl ModelFold {
    fn means(&self, total_frames: u64) -> ModelMeans {
        // Sums of nothing are 0.0 and 0.0 / 1 = 0.0, so a model that
        // never executed has zero means.
        let n = self.count.max(1) as f64;
        ModelMeans {
            executed: self.count,
            per_model: self.combined_sum / n,
            qoe: qoe_score(self.count, total_frames),
            realtime: self.rt_sum / n,
            energy: self.en_sum / n,
            accuracy: self.acc_sum / n,
            latency_s: self.latency_sum / n,
            energy_j: self.energy_sum / n,
        }
    }
}

/// The streaming scorer of one user's usage scenario: folds each
/// executed inference into per-model sums, the user's energy and its
/// engine's busy time, then closes against the run's frame
/// accounting.
#[derive(Debug, Clone)]
pub struct ScenarioFold {
    /// Per-model sums, in the scenario's model order.
    models: Vec<(ModelId, ModelFold)>,
    /// `ModelId as usize` → index into `models`.
    slot_of: [Option<u8>; ModelId::ALL.len()],
    /// Energy of every folded inference (J).
    energy_j: f64,
    /// Busy time of each engine (s).
    busy_s: Vec<f64>,
}

impl ScenarioFold {
    /// An empty fold over the scenario's models on a system of
    /// `engines` engines. The energy and busy sums start from −0.0, as
    /// `Iterator::sum` does, so a user that executed nothing reports
    /// the zero a sum over its (empty) records would.
    pub fn new(spec: &ScenarioSpec, engines: usize) -> Self {
        let mut slot_of = [None; ModelId::ALL.len()];
        for (i, sm) in spec.models.iter().enumerate() {
            slot_of[sm.model as usize] =
                Some(u8::try_from(i).expect("a scenario lists each model at most once"));
        }
        Self {
            models: spec
                .models
                .iter()
                .map(|sm| (sm.model, ModelFold::default()))
                .collect(),
            slot_of,
            energy_j: -0.0,
            busy_s: vec![-0.0; engines],
        }
    }

    /// Folds one executed inference; returns its combined score for
    /// histogramming.
    ///
    /// # Panics
    ///
    /// Panics if the record's model is not one of the scenario's, or
    /// its engine is not one of the system's.
    pub fn record(&mut self, rec: &ExecRecord, scorer: &InferenceScorer) -> f64 {
        let slot = self.slot_of[rec.model as usize].expect("record for model outside the scenario");
        let s = scorer.score(rec);
        let m = &mut self.models[slot as usize].1;
        m.count += 1;
        m.combined_sum += s.combined();
        m.rt_sum += s.realtime;
        m.en_sum += s.energy;
        m.acc_sum += s.accuracy;
        m.latency_sum += rec.latency_s();
        m.energy_sum += rec.energy_j;
        self.energy_j += rec.energy_j;
        self.busy_s[rec.engine] += rec.t_end - rec.t_start;
        s.combined()
    }

    /// Total energy of the folded inferences (J), summed in record
    /// order.
    pub fn total_energy_j(&self) -> f64 {
        self.energy_j
    }

    /// Mean engine utilization over `duration_s`: each engine's busy
    /// time over the duration, averaged over the system's engines (zero
    /// without engines or a positive duration). This is the metric
    /// §4.2.2 argues is *wrong* for XR workloads, reported so the
    /// Figure 6 experiment can demonstrate exactly that. It exceeds 1
    /// when work drains past the duration.
    pub fn mean_utilization(&self, duration_s: f64) -> f64 {
        if self.busy_s.is_empty() || duration_s <= 0.0 {
            return 0.0;
        }
        let utilization: f64 = self.busy_s.iter().map(|busy| busy / duration_s).sum();
        utilization / self.busy_s.len() as f64
    }

    /// Each model's means, in the scenario's model order, against the
    /// run's per-model frame accounting (a model absent from `stats`
    /// streamed no frames).
    pub fn model_means<'a>(
        &'a self,
        stats: &'a BTreeMap<ModelId, ModelStats>,
    ) -> impl Iterator<Item = ModelMeans> + 'a {
        self.models
            .iter()
            .map(|(model, m)| m.means(stats.get(model).map_or(0, |s| s.total_frames)))
    }

    /// The usage-scenario breakdown (Definition 15): QoE and overall
    /// average over every model, the three components over the models
    /// that executed at least once.
    pub fn breakdown(&self, stats: &BTreeMap<ModelId, ModelStats>) -> ScenarioBreakdown {
        let k = self.models.len() as f64;
        let (mut qoe, mut overall) = (0.0, 0.0);
        let (mut realtime, mut energy, mut accuracy) = (0.0, 0.0, 0.0);
        let mut executed = 0u64;
        for m in self.model_means(stats) {
            qoe += m.qoe;
            overall += m.per_model * m.qoe;
            if m.executed > 0 {
                executed += 1;
                realtime += m.realtime;
                energy += m.energy;
                accuracy += m.accuracy;
            }
        }
        let comp = |sum: f64| {
            if executed == 0 {
                0.0
            } else {
                sum / executed as f64
            }
        };
        ScenarioBreakdown {
            realtime: comp(realtime),
            energy: comp(energy),
            accuracy: comp(accuracy),
            qoe: qoe / k,
            overall: overall / k,
        }
    }
}

/// The streaming scorer of one device session: routes each record to
/// its user's [`ScenarioFold`], and closes into the session's energy
/// and utilization.
#[derive(Debug, Clone)]
pub struct SessionFold {
    /// `(user id, fold)` pairs, sorted by user id.
    users: Vec<(u32, ScenarioFold)>,
    /// Engines of the shared system.
    engines: usize,
}

impl SessionFold {
    /// An empty fold over the session's users, sharing a system of
    /// `engines` engines.
    pub fn new(session: &SessionSpec, engines: usize) -> Self {
        let mut users: Vec<(u32, ScenarioFold)> = session
            .users
            .iter()
            .map(|u| (u.user, ScenarioFold::new(&u.spec, engines)))
            .collect();
        users.sort_unstable_by_key(|&(user, _)| user);
        Self { users, engines }
    }

    /// The position of `user`'s fold.
    fn position(&self, user: u32) -> usize {
        self.users
            .binary_search_by_key(&user, |&(id, _)| id)
            .expect("unknown session user")
    }

    /// Folds one executed inference of `user`; returns its combined
    /// score.
    ///
    /// # Panics
    ///
    /// Panics if `user` is not a session user, or as
    /// [`ScenarioFold::record`] does.
    pub fn record(&mut self, user: u32, rec: &ExecRecord, scorer: &InferenceScorer) -> f64 {
        let i = self.position(user);
        self.users[i].1.record(rec, scorer)
    }

    /// One user's fold.
    ///
    /// # Panics
    ///
    /// Panics if `user` is not a session user.
    pub fn user(&self, user: u32) -> &ScenarioFold {
        &self.users[self.position(user)].1
    }

    /// Total energy of the session (J): the users' totals summed in
    /// user-id order.
    pub fn total_energy_j(&self) -> f64 {
        self.users.iter().map(|(_, fold)| fold.energy_j).sum()
    }

    /// Mean utilization of the shared engines over `span_s`: each
    /// user's busy time (its engines' sum), summed in user-id order and
    /// divided once by span × engines. Like
    /// [`ScenarioFold::mean_utilization`], it exceeds 1 when work
    /// drains past the span.
    pub fn mean_utilization(&self, span_s: f64) -> f64 {
        let busy: f64 = self
            .users
            .iter()
            .map(|(_, fold)| fold.busy_s.iter().sum::<f64>())
            .sum();
        busy / (span_s * self.engines as f64)
    }

    /// Closes the session: per-user scenario breakdowns, in
    /// `SessionSpec::users` order.
    pub(crate) fn finish(
        &self,
        session: &SessionSpec,
        result: &SessionSimResult,
    ) -> Vec<ScenarioBreakdown> {
        session
            .users
            .iter()
            .map(|su| {
                let stats = &result.user(su.user).expect("simulated every user").stats;
                self.user(su.user).breakdown(stats)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xrbench_workload::UsageScenario;

    #[test]
    fn scorer_matches_componentwise_recomputation() {
        let scorer = InferenceScorer::new(
            RtParams::default(),
            EnergyParams::default(),
            AccuracyParams::default(),
        );
        let rec = ExecRecord {
            model: ModelId::HandTracking,
            frame_id: 0,
            sensor_frame: 0,
            engine: 0,
            t_req: 0.0,
            t_deadline: 0.010,
            t_start: 0.0,
            t_end: 0.005,
            energy_j: 0.1,
        };
        let s = scorer.score(&rec);
        assert_eq!(s.realtime, rt_score(0.005, 0.010, RtParams::default()));
        assert_eq!(s.energy, energy_score(0.1, EnergyParams::default()));
        let q = quality_for(ModelId::HandTracking);
        let kind = match q.quality_type {
            QualityType::HigherIsBetter => MetricKind::HigherIsBetter,
            QualityType::LowerIsBetter => MetricKind::LowerIsBetter,
        };
        assert_eq!(
            s.accuracy,
            accuracy_score(q.measured, q.target, kind, AccuracyParams::default())
        );
        // 5 ms of a 10 ms slack, 100 mJ of the 1500 mJ budget, and a
        // model that meets its quality target.
        assert!(s.realtime > 0.99);
        assert!((s.energy - (1.5 - 0.1) / 1.5).abs() < 1e-12);
        assert_eq!(s.accuracy, 1.0);
    }

    #[test]
    fn utilization_accounting() {
        let rec = |model, engine, t0, t1| ExecRecord {
            model,
            frame_id: 0,
            sensor_frame: 0,
            engine,
            t_req: t0,
            t_deadline: t0 + 0.016,
            t_start: t0,
            t_end: t1,
            energy_j: 0.01,
        };
        let scorer = InferenceScorer::new(
            RtParams::default(),
            EnergyParams::default(),
            AccuracyParams::default(),
        );
        // User 0 keeps engine 0 busy half the second and engine 1 all
        // of it; user 1 executes nothing.
        let session = SessionSpec::uniform("pair", UsageScenario::ArGaming.spec(), 2, 0.0);
        let (busy, idle) = (session.users[0].user, session.users[1].user);
        let mut fold = SessionFold::new(&session, 2);
        for r in [
            rec(ModelId::HandTracking, 0, 0.0, 0.25),
            rec(ModelId::DepthEstimation, 0, 0.5, 0.75),
            rec(ModelId::PlaneDetection, 1, 0.0, 1.0),
        ] {
            fold.record(busy, &r, &scorer);
        }
        let user = fold.user(busy);
        assert!((user.mean_utilization(1.0) - 0.75).abs() < 1e-12);
        assert!((user.mean_utilization(2.0) - 0.375).abs() < 1e-12);
        assert!((user.total_energy_j() - 0.03).abs() < 1e-12);
        assert!((fold.mean_utilization(1.0) - 0.75).abs() < 1e-12);
        assert!((fold.total_energy_j() - 0.03).abs() < 1e-12);
        // An idle user's sums are the zero `Iterator::sum` gives an
        // empty record list: −0.0.
        let user = fold.user(idle);
        assert_eq!(user.total_energy_j().to_bits(), (-0.0f64).to_bits());
        assert_eq!(user.mean_utilization(1.0).to_bits(), (-0.0f64).to_bits());
        assert_eq!(user.mean_utilization(0.0).to_bits(), 0.0f64.to_bits());
    }
}
