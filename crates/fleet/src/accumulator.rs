//! The streaming, exactly-mergeable fleet aggregate.
//!
//! A fleet run never materializes per-request result vectors: every
//! completed inference is folded into a [`FleetAccumulator`] on the
//! worker that simulated it, and worker/group accumulators are merged
//! at the end. For the final [`crate::FleetReport`] to be
//! **bit-identical regardless of worker count**, merging must be
//! exact — which rules out `f64` sums, whose rounding depends on the
//! merge tree. Three representations make every merge associative,
//! commutative, and lossless:
//!
//! * **integer counters** (`u64`) for frames, drops, and deadline
//!   misses: each model's [`ModelStats`], the engine's own frame
//!   accounting, summed with [`ModelStats::merge`];
//! * **fixed-point integer sums** (`i128`, power-of-two scales) for
//!   every summed quantity — latency, energy, scores. Converting
//!   `v → round(v·2^k)` is deterministic, multiplying by a power of
//!   two is exact in IEEE-754, and the integer sums then merge
//!   exactly. Means recovered from the sums are quantized at
//!   `2^-40` s / J and `2^-62` score units — far below reporting
//!   precision — and identical on every merge order;
//! * **fixed-bucket histograms** ([`FixedHistogram`]) whose `u64`
//!   buckets merge by element-wise addition, yielding deterministic
//!   p50/p95/p99.
//!
//! `min`/`max` are kept as raw `f64` — both operations are exact and
//! order-insensitive already.

use std::collections::BTreeMap;

use xrbench_models::ModelId;
use xrbench_score::{FixedHistogram, ScenarioBreakdown};
use xrbench_sim::{ExecRecord, ModelStats};

/// Fixed-point scale for unit scores in `[0, 1]`: 2⁶².
pub const SCORE_SCALE: f64 = (1u64 << 62) as f64;
/// Fixed-point scale for times in seconds: 2⁴⁰ (≈ 0.9 ps resolution).
pub const TIME_SCALE: f64 = (1u64 << 40) as f64;
/// Fixed-point scale for energies in joules: 2⁴⁰ (≈ 0.9 pJ resolution).
pub const ENERGY_SCALE: f64 = (1u64 << 40) as f64;

/// Deterministic fixed-point conversion.
#[inline]
fn fp(v: f64, scale: f64) -> i128 {
    (v * scale).round() as i128
}

/// Streaming count/mean/min/max of one quantity, with the sum held in
/// fixed point so merging is exact.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StatAgg {
    /// Number of recorded values.
    pub count: u64,
    /// Non-finite values offered to [`StatAgg::record`]: counted here,
    /// excluded from the sum and min/max. A NaN or ±inf would
    /// otherwise corrupt the fixed-point sum silently (the saturating
    /// `as i128` cast turns +inf into `i128::MAX`), so anomalies are
    /// quarantined deterministically instead.
    pub anomalies: u64,
    pub(crate) sum_fp: i128,
    pub(crate) min: f64,
    pub(crate) max: f64,
}

impl Default for StatAgg {
    fn default() -> Self {
        Self {
            count: 0,
            anomalies: 0,
            sum_fp: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

impl StatAgg {
    /// Records one value at the given fixed-point scale. The same
    /// scale must be used for every record and for [`StatAgg::mean`].
    ///
    /// Non-finite values land in [`StatAgg::anomalies`]; −0.0 is
    /// normalized to +0.0 so min/max merging stays commutative at the
    /// bit level (IEEE `<` treats −0.0 and 0.0 as equal, which would
    /// otherwise leave the sign of a zero min dependent on which
    /// worker saw it first).
    pub fn record(&mut self, v: f64, scale: f64) {
        if !v.is_finite() {
            self.anomalies += 1;
            return;
        }
        let v = if v == 0.0 { 0.0 } else { v };
        self.count += 1;
        self.sum_fp += fp(v, scale);
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
    }

    /// Merges another aggregate (exact: integer sum, min/max).
    pub fn merge(&mut self, other: &StatAgg) {
        self.count += other.count;
        self.anomalies += other.anomalies;
        self.sum_fp += other.sum_fp;
        if other.min < self.min {
            self.min = other.min;
        }
        if other.max > self.max {
            self.max = other.max;
        }
    }

    /// The mean at the given scale (0 when empty).
    pub fn mean(&self, scale: f64) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            (self.sum_fp as f64 / scale) / self.count as f64
        }
    }

    /// The minimum recorded value (0 when empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// The maximum recorded value (0 when empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }
}

/// One model's fleet-wide aggregate: frame accounting plus
/// latency/energy count/mean/min/max.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ModelAccumulator {
    /// Frame accounting summed over every session, the same type each
    /// run counts into.
    pub frames: ModelStats,
    /// End-to-end latency (seconds, [`TIME_SCALE`]).
    pub latency: StatAgg,
    /// Per-inference energy (joules, [`ENERGY_SCALE`]).
    pub energy: StatAgg,
}

impl ModelAccumulator {
    /// Folds one executed inference.
    pub fn record_exec(&mut self, rec: &ExecRecord) {
        self.latency.record(rec.latency_s(), TIME_SCALE);
        self.energy.record(rec.energy_j, ENERGY_SCALE);
    }

    /// Merges another model aggregate (exact).
    pub fn merge(&mut self, other: &ModelAccumulator) {
        self.frames.merge(&other.frames);
        self.latency.merge(&other.latency);
        self.energy.merge(&other.energy);
    }

    /// Whether anything was streamed to this model fleet-wide.
    pub fn touched(&self) -> bool {
        let f = &self.frames;
        f.total_frames + f.untriggered_frames + f.dropped_frames() > 0
    }
}

/// One scenario's fleet-wide aggregate over its users.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScenarioAccumulator {
    /// Users that ran this scenario across the fleet.
    pub users: u64,
    /// Per-user overall scenario score ([`SCORE_SCALE`]).
    pub overall: StatAgg,
    pub(crate) realtime_fp: i128,
    pub(crate) energy_fp: i128,
    pub(crate) accuracy_fp: i128,
    pub(crate) qoe_fp: i128,
}

impl ScenarioAccumulator {
    /// Folds one user's scored breakdown.
    pub fn record_user(&mut self, b: &ScenarioBreakdown) {
        self.users += 1;
        self.overall.record(b.overall, SCORE_SCALE);
        self.realtime_fp += fp(b.realtime, SCORE_SCALE);
        self.energy_fp += fp(b.energy, SCORE_SCALE);
        self.accuracy_fp += fp(b.accuracy, SCORE_SCALE);
        self.qoe_fp += fp(b.qoe, SCORE_SCALE);
    }

    /// Merges another scenario aggregate (exact).
    pub fn merge(&mut self, other: &ScenarioAccumulator) {
        self.users += other.users;
        self.overall.merge(&other.overall);
        self.realtime_fp += other.realtime_fp;
        self.energy_fp += other.energy_fp;
        self.accuracy_fp += other.accuracy_fp;
        self.qoe_fp += other.qoe_fp;
    }

    /// The mean per-user breakdown.
    pub fn mean_breakdown(&self) -> ScenarioBreakdown {
        let n = self.users.max(1) as f64;
        let mean = |s: i128| (s as f64 / SCORE_SCALE) / n;
        ScenarioBreakdown {
            realtime: mean(self.realtime_fp),
            energy: mean(self.energy_fp),
            accuracy: mean(self.accuracy_fp),
            qoe: mean(self.qoe_fp),
            overall: self.overall.mean(SCORE_SCALE),
        }
    }
}

/// The streaming fleet aggregate: everything the final
/// [`crate::FleetReport`] needs, in O(models + scenarios) memory,
/// with an exact (associative, commutative) [`FleetAccumulator::merge`].
#[derive(Debug, Clone, PartialEq)]
pub struct FleetAccumulator {
    /// Device sessions folded in.
    pub sessions: u64,
    /// Users folded in.
    pub users: u64,
    /// Per-session score (the session aggregate's overall,
    /// [`SCORE_SCALE`]).
    pub session_score: StatAgg,
    /// End-to-end latency histogram (seconds).
    pub latency: FixedHistogram,
    /// Deadline-overrun histogram (seconds; met deadlines record 0).
    pub overrun: FixedHistogram,
    /// Combined per-inference score histogram (`[0, 1]`).
    pub score: FixedHistogram,
    pub(crate) per_model: Vec<ModelAccumulator>,
    pub(crate) per_scenario: BTreeMap<String, ScenarioAccumulator>,
}

impl Default for FleetAccumulator {
    fn default() -> Self {
        Self::new()
    }
}

impl FleetAccumulator {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self {
            sessions: 0,
            users: 0,
            session_score: StatAgg::default(),
            latency: FixedHistogram::new(),
            overrun: FixedHistogram::new(),
            score: FixedHistogram::new(),
            per_model: vec![ModelAccumulator::default(); ModelId::ALL.len()],
            per_scenario: BTreeMap::new(),
        }
    }

    /// One model's aggregate, mutable.
    pub fn model_mut(&mut self, m: ModelId) -> &mut ModelAccumulator {
        &mut self.per_model[m as usize]
    }

    /// One model's aggregate.
    pub fn model(&self, m: ModelId) -> &ModelAccumulator {
        &self.per_model[m as usize]
    }

    /// One scenario's aggregate, created on first touch.
    pub fn scenario_mut(&mut self, name: &str) -> &mut ScenarioAccumulator {
        self.per_scenario.entry(name.to_string()).or_default()
    }

    /// Models with any fleet-wide activity, in [`ModelId::ALL`] order.
    pub fn models(&self) -> impl Iterator<Item = (ModelId, &ModelAccumulator)> {
        ModelId::ALL
            .iter()
            .map(|&m| (m, &self.per_model[m as usize]))
            .filter(|(_, a)| a.touched())
    }

    /// Scenario aggregates, in name order.
    pub fn scenarios(&self) -> impl Iterator<Item = (&str, &ScenarioAccumulator)> {
        self.per_scenario.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Merges another accumulator. Exact: every field is an integer
    /// counter, fixed-point sum, histogram, or min/max, so the merge
    /// is associative and commutative and any merge tree over the
    /// same session set produces bit-identical state.
    pub fn merge(&mut self, other: &FleetAccumulator) {
        self.sessions += other.sessions;
        self.users += other.users;
        self.session_score.merge(&other.session_score);
        self.latency.merge(&other.latency);
        self.overrun.merge(&other.overrun);
        self.score.merge(&other.score);
        for (a, b) in self.per_model.iter_mut().zip(&other.per_model) {
            a.merge(b);
        }
        for (name, agg) in &other.per_scenario {
            self.per_scenario
                .entry(name.clone())
                .or_default()
                .merge(agg);
        }
    }

    /// Fleet-wide frame accounting: every model's counts summed.
    pub fn frames(&self) -> ModelStats {
        self.per_model.iter().map(|m| &m.frames).sum()
    }

    /// Fleet-wide total energy (J), from the exact fixed-point sums.
    pub fn total_energy_j(&self) -> f64 {
        let sum: i128 = self.per_model.iter().map(|m| m.energy.sum_fp).sum();
        sum as f64 / ENERGY_SCALE
    }

    /// Fleet-wide latency count/mean/min/max, merged (exactly) from
    /// the per-model aggregates.
    pub fn latency_stats(&self) -> StatAgg {
        let mut s = StatAgg::default();
        for m in &self.per_model {
            s.merge(&m.latency);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn agg_of(vals: &[f64]) -> StatAgg {
        let mut a = StatAgg::default();
        for &v in vals {
            a.record(v, TIME_SCALE);
        }
        a
    }

    #[test]
    fn stat_agg_tracks_count_mean_min_max() {
        let a = agg_of(&[0.001, 0.003, 0.002]);
        assert_eq!(a.count, 3);
        assert!((a.mean(TIME_SCALE) - 0.002).abs() < 1e-9);
        assert_eq!(a.min(), 0.001);
        assert_eq!(a.max(), 0.003);
        let empty = StatAgg::default();
        assert_eq!(empty.mean(TIME_SCALE), 0.0);
        assert_eq!(empty.min(), 0.0);
        assert_eq!(empty.max(), 0.0);
    }

    #[test]
    fn stat_agg_merge_is_exact() {
        // Any partition of the same values merges to identical state.
        let vals: Vec<f64> = (1..100).map(|i| f64::from(i) * 1.7e-4).collect();
        let whole = agg_of(&vals);
        for split in [1, 13, 50, 98] {
            let mut left = agg_of(&vals[..split]);
            left.merge(&agg_of(&vals[split..]));
            assert_eq!(left, whole, "split at {split}");
        }
    }

    #[test]
    fn non_finite_values_are_quarantined_not_summed() {
        let mut a = StatAgg::default();
        a.record(0.002, TIME_SCALE);
        a.record(f64::NAN, TIME_SCALE);
        a.record(f64::INFINITY, TIME_SCALE);
        a.record(f64::NEG_INFINITY, TIME_SCALE);
        a.record(0.004, TIME_SCALE);
        assert_eq!(a.count, 2);
        assert_eq!(a.anomalies, 3);
        assert!((a.mean(TIME_SCALE) - 0.003).abs() < 1e-9);
        assert_eq!(a.min(), 0.002);
        assert_eq!(a.max(), 0.004);
        // Anomaly counts merge like every other counter.
        let mut b = StatAgg::default();
        b.record(f64::NAN, TIME_SCALE);
        a.merge(&b);
        assert_eq!(a.anomalies, 4);
    }

    #[test]
    fn negative_zero_merges_commutatively() {
        // Without normalization the sign of a zero min depends on
        // which worker saw it first — a worker-count byte divergence.
        let mut a = StatAgg::default();
        a.record(-0.0, TIME_SCALE);
        let mut b = StatAgg::default();
        b.record(0.0, TIME_SCALE);
        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert!(ab.min().is_sign_positive());
        assert!(ab.max().is_sign_positive());
    }

    #[test]
    fn fleet_merge_unions_scenarios() {
        let b = ScenarioBreakdown {
            realtime: 0.9,
            energy: 0.8,
            accuracy: 1.0,
            qoe: 0.95,
            overall: 0.684,
        };
        let mut x = FleetAccumulator::new();
        x.scenario_mut("VR Gaming").record_user(&b);
        let mut y = FleetAccumulator::new();
        y.scenario_mut("AR Gaming").record_user(&b);
        y.scenario_mut("VR Gaming").record_user(&b);
        x.merge(&y);
        let names: Vec<&str> = x.scenarios().map(|(n, _)| n).collect();
        assert_eq!(names, ["AR Gaming", "VR Gaming"]);
        let (_, vr) = x.scenarios().nth(1).unwrap();
        assert_eq!(vr.users, 2);
        let mb = vr.mean_breakdown();
        assert!((mb.overall - 0.684).abs() < 1e-12);
        assert!((mb.realtime - 0.9).abs() < 1e-12);
    }

    #[test]
    fn fixed_point_roundtrips_typical_scores() {
        // Power-of-two scaling is exact for scores down to ~2^-10.
        let mut a = StatAgg::default();
        a.record(0.887_654_321, SCORE_SCALE);
        assert_eq!(a.mean(SCORE_SCALE), 0.887_654_321);
    }

    #[test]
    fn model_accumulator_tracks_stats_and_records() {
        use xrbench_models::ModelId;
        use xrbench_sim::DropReason;
        let mut acc = FleetAccumulator::new();
        let rec = ExecRecord {
            model: ModelId::HandTracking,
            frame_id: 0,
            sensor_frame: 0,
            engine: 0,
            t_req: 0.0,
            t_deadline: 0.016,
            t_start: 0.0,
            t_end: 0.004,
            energy_j: 0.002,
        };
        acc.model_mut(ModelId::HandTracking).record_exec(&rec);
        let mut st = ModelStats {
            total_frames: 3,
            executed_frames: 1,
            ..Default::default()
        };
        st.record_drop(DropReason::Superseded);
        st.record_drop(DropReason::Starved);
        acc.model_mut(ModelId::HandTracking).frames.merge(&st);
        let m = acc.model(ModelId::HandTracking);
        assert!(m.touched());
        assert_eq!(m.latency.count, 1);
        assert_eq!(m.frames.dropped_frames(), 2);
        let frames = acc.frames();
        assert_eq!(frames.total_frames, 3);
        assert_eq!(frames.executed_frames, 1);
        assert_eq!(frames.total_frames + frames.untriggered_frames, 3);
        assert!((acc.total_energy_j() - 0.002).abs() < 1e-9);
        assert!(!acc.model(ModelId::ObjectDetection).touched());
    }
}
