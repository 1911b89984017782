//! Streaming scoring: the one implementation of the paper's scoring
//! hierarchy from inference (Definition 14) to model and usage
//! scenario (Definition 15) that every report is built from.
//!
//! [`ScenarioFold`] scores one user's executed inferences as they
//! arrive and keeps only per-model sums, then closes against the
//! run's frame accounting into the [`ScenarioBreakdown`] and each
//! model's [`ModelMeans`]. Scenario and session reports
//! (`Harness::score_result`) run one fold over a user's records in
//! start order; the fleet executor runs one per session user while the
//! simulator dispatches, so a device session is scored without ever
//! retaining its per-request vectors. `xrbench_score::scenario_score`
//! over materialized `ModelOutcome`s remains the Definition 15
//! reference: per-model sums accumulate in record order and means
//! divide in its order, so the fold reproduces it bit for bit
//! (`tests/scoring_properties.rs` checks this under every scheduler
//! and recovery policy).

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
/// executed inference into per-model sums, then closes against the
/// run's frame accounting.
#[derive(Debug, Clone)]
pub struct ScenarioFold {
    /// Per-model sums, in the scenario's model order.
    models: Vec<(ModelId, ModelFold)>,
    /// `ModelId as usize` → index into `models`.
    slot_of: [Option<u8>; ModelId::ALL.len()],
}

impl ScenarioFold {
    /// An empty fold over the scenario's models.
    pub fn new(spec: &ScenarioSpec) -> Self {
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
        }
    }

    /// Folds one executed inference; returns its combined score for
    /// histogramming.
    ///
    /// # Panics
    ///
    /// Panics if the record's model is not one of the scenario's.
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
        s.combined()
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
/// its user's [`ScenarioFold`].
#[derive(Debug, Clone)]
pub(crate) struct SessionFold {
    /// Per-user folds, in `SessionSpec::users` order.
    users: Vec<ScenarioFold>,
    /// Sorted `(user id, index)` pairs for record routing.
    index: Vec<(u32, u32)>,
}

impl SessionFold {
    pub(crate) fn new(session: &SessionSpec) -> Self {
        let mut index: Vec<(u32, u32)> = session
            .users
            .iter()
            .enumerate()
            .map(|(i, u)| (u.user, i as u32))
            .collect();
        index.sort_unstable();
        Self {
            users: session
                .users
                .iter()
                .map(|u| ScenarioFold::new(&u.spec))
                .collect(),
            index,
        }
    }

    /// Folds one executed inference; returns its combined score.
    pub(crate) fn record(&mut self, user: u32, rec: &ExecRecord, scorer: &InferenceScorer) -> f64 {
        let i = self.index[self
            .index
            .binary_search_by_key(&user, |e| e.0)
            .expect("record for unknown session user")]
        .1;
        self.users[i as usize].record(rec, scorer)
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
            .zip(&self.users)
            .map(|(su, fold)| {
                fold.breakdown(&result.user(su.user).expect("simulated every user").stats)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
