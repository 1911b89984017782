//! Simulation results: the execution timeline and per-model
//! frame accounting.
//!
//! [`ModelStats`] is the one frame-accounting type. The event loops
//! count into it, and every sum of it (a session, a fleet accumulator,
//! a shard state) is another `ModelStats` built by
//! [`ModelStats::merge`]. Its drops live in one [`DropCounts`], so the
//! dropped total is the sum of the drops by reason by construction.
//!
//! A result only carries what the event loop produced. Every metric
//! derived from the records (scores, energy, engine utilization) is
//! folded by the scoring layer (`xrbench_fleet::ScenarioFold`), which
//! reads them as they stream, so a run whose records went to a sink
//! is scored the same as one that collected them.

use std::collections::BTreeMap;

use xrbench_models::ModelId;

/// Why a frame never executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DropReason {
    /// A newer frame of the same model arrived before this one
    /// started (the freshness drop policy).
    Superseded,
    /// The upstream model's frame was itself dropped, so this
    /// dependent frame could never be triggered.
    UpstreamDropped,
    /// The run ended while the frame was still queued (ready but never
    /// dispatched, or waiting on an upstream that never resolved).
    Starved,
    /// The engine running the frame was preempted mid-flight and the
    /// recovery policy discarded the work.
    Preempted,
    /// The engine running the frame failed (device churn) and the
    /// recovery policy discarded the work.
    DeviceLost,
}

/// One completed inference in the execution timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecRecord {
    /// The model that ran.
    pub model: ModelId,
    /// Model-local frame index.
    pub frame_id: u64,
    /// Consumed sensor frame.
    pub sensor_frame: u64,
    /// Engine (sub-accelerator) index the inference ran on.
    pub engine: usize,
    /// When the input data arrived (jittered).
    pub t_req: f64,
    /// The processing deadline.
    pub t_deadline: f64,
    /// When execution started on the engine.
    pub t_start: f64,
    /// When execution completed.
    pub t_end: f64,
    /// Energy consumed (J).
    pub energy_j: f64,
}

impl ExecRecord {
    /// End-to-end inference latency `LInf` as seen by the user:
    /// completion minus data arrival (queueing included).
    pub fn latency_s(&self) -> f64 {
        self.t_end - self.t_req
    }

    /// The slack `Tsl = Tdl − Treq` (Definition 9).
    pub fn slack_s(&self) -> f64 {
        self.t_deadline - self.t_req
    }

    /// Whether the result was delivered past its deadline.
    pub fn missed_deadline(&self) -> bool {
        self.t_end > self.t_deadline
    }

    /// By how much the deadline was overrun (0 if met).
    pub fn overrun_s(&self) -> f64 {
        (self.t_end - self.t_deadline).max(0.0)
    }
}

/// Frames dropped, counted by [`DropReason`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DropCounts {
    /// [`DropReason::Superseded`] drops.
    pub superseded: u64,
    /// [`DropReason::UpstreamDropped`] drops.
    pub upstream_dropped: u64,
    /// [`DropReason::Starved`] drops.
    pub starved: u64,
    /// [`DropReason::Preempted`] drops.
    pub preempted: u64,
    /// [`DropReason::DeviceLost`] drops.
    pub device_lost: u64,
}

impl DropCounts {
    /// Counts one drop attributed to `reason`.
    pub fn record(&mut self, reason: DropReason) {
        *match reason {
            DropReason::Superseded => &mut self.superseded,
            DropReason::UpstreamDropped => &mut self.upstream_dropped,
            DropReason::Starved => &mut self.starved,
            DropReason::Preempted => &mut self.preempted,
            DropReason::DeviceLost => &mut self.device_lost,
        } += 1;
    }

    /// Drops across every reason.
    pub fn total(&self) -> u64 {
        self.superseded + self.upstream_dropped + self.starved + self.preempted + self.device_lost
    }

    /// Drops caused by injected faults (preemption and device loss).
    pub fn fault_total(&self) -> u64 {
        self.preempted + self.device_lost
    }

    /// Adds another count into this one.
    pub fn merge(&mut self, other: &DropCounts) {
        self.superseded += other.superseded;
        self.upstream_dropped += other.upstream_dropped;
        self.starved += other.starved;
        self.preempted += other.preempted;
        self.device_lost += other.device_lost;
    }
}

/// Per-model frame accounting: one model of one run, or a sum of them
/// ([`ModelStats::merge`]) over users, sessions and whole fleets.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ModelStats {
    /// Frames that were streamed *and triggered* for this model
    /// (`NumFrm`). Control-dependent frames whose trigger draw failed
    /// are excluded — the model was legitimately inactive for them.
    pub total_frames: u64,
    /// Frames that actually executed (`NumFrm_exec`).
    pub executed_frames: u64,
    /// Frames whose control-dependency draw deactivated them.
    pub untriggered_frames: u64,
    /// Executed frames that missed their deadline.
    pub missed_deadlines: u64,
    /// Dropped frames by reason.
    pub drops: DropCounts,
}

impl ModelStats {
    /// Records one dropped frame, attributing it to `reason`.
    pub fn record_drop(&mut self, reason: DropReason) {
        self.drops.record(reason);
    }

    /// Frames dropped, for every reason.
    pub fn dropped_frames(&self) -> u64 {
        self.drops.total()
    }

    /// Adds another model's (or run's) accounting into this one.
    pub fn merge(&mut self, other: &ModelStats) {
        self.total_frames += other.total_frames;
        self.executed_frames += other.executed_frames;
        self.untriggered_frames += other.untriggered_frames;
        self.missed_deadlines += other.missed_deadlines;
        self.drops.merge(&other.drops);
    }

    /// The frame-drop rate, dropped / total (0 when no frame streamed).
    pub fn drop_rate(&self) -> f64 {
        if self.total_frames == 0 {
            0.0
        } else {
            self.dropped_frames() as f64 / self.total_frames as f64
        }
    }
}

impl<'a> std::iter::Sum<&'a ModelStats> for ModelStats {
    fn sum<I: Iterator<Item = &'a ModelStats>>(iter: I) -> Self {
        iter.fold(Self::default(), |mut sum, s| {
            sum.merge(s);
            sum
        })
    }
}

/// The full outcome of one simulated run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimResult {
    /// Completed inferences, ordered by start time (empty when a sink
    /// took them).
    pub records: Vec<ExecRecord>,
    /// Per-model accounting.
    pub stats: BTreeMap<ModelId, ModelStats>,
    /// Number of engines in the evaluated system.
    pub num_engines: usize,
    /// The nominal run duration in seconds.
    pub duration_s: f64,
}

impl SimResult {
    /// Overall frame-drop rate across models (dropped / total).
    pub fn drop_rate(&self) -> f64 {
        self.stats.values().sum::<ModelStats>().drop_rate()
    }

    /// The records belonging to one model, in start order.
    pub fn records_for(&self, model: ModelId) -> impl Iterator<Item = &ExecRecord> {
        self.records.iter().filter(move |r| r.model == model)
    }
}

/// The outcome of one simulated multi-user session: one [`SimResult`]
/// per user, all sharing the same engines over the same span.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SessionSimResult {
    /// Session display name.
    pub session: String,
    /// Per-user results, in user-id order. Each user's `duration_s`
    /// is the full session span, so utilizations read as
    /// share-of-session.
    pub per_user: Vec<(u32, SimResult)>,
    /// Number of shared engines.
    pub num_engines: usize,
    /// The session span: last user's start offset plus run duration.
    pub span_s: f64,
}

impl SessionSimResult {
    /// One user's result, if present.
    pub fn user(&self, user: u32) -> Option<&SimResult> {
        self.per_user
            .iter()
            .find(|(u, _)| *u == user)
            .map(|(_, r)| r)
    }

    /// Overall frame-drop rate across all users.
    pub fn drop_rate(&self) -> f64 {
        self.per_user
            .iter()
            .flat_map(|(_, r)| r.stats.values())
            .sum::<ModelStats>()
            .drop_rate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(model: ModelId, engine: usize, t0: f64, t1: f64) -> ExecRecord {
        ExecRecord {
            model,
            frame_id: 0,
            sensor_frame: 0,
            engine,
            t_req: t0,
            t_deadline: t0 + 0.016,
            t_start: t0,
            t_end: t1,
            energy_j: 0.01,
        }
    }

    #[test]
    fn latency_includes_queueing() {
        let mut r = rec(ModelId::HandTracking, 0, 0.0, 0.01);
        r.t_start = 0.005; // waited 5 ms in queue
        assert!((r.latency_s() - 0.01).abs() < 1e-12);
    }

    #[test]
    fn deadline_miss_detection() {
        let r = rec(ModelId::HandTracking, 0, 0.0, 0.020);
        assert!(r.missed_deadline());
        assert!((r.overrun_s() - 0.004).abs() < 1e-12);
        let ok = rec(ModelId::HandTracking, 0, 0.0, 0.010);
        assert!(!ok.missed_deadline());
        assert_eq!(ok.overrun_s(), 0.0);
    }

    #[test]
    fn drop_rate_over_all_models() {
        let mut stats = BTreeMap::new();
        stats.insert(
            ModelId::HandTracking,
            ModelStats {
                total_frames: 30,
                executed_frames: 20,
                drops: DropCounts {
                    superseded: 10,
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        stats.insert(
            ModelId::DepthEstimation,
            ModelStats {
                total_frames: 30,
                executed_frames: 30,
                ..Default::default()
            },
        );
        let result = SimResult {
            records: vec![],
            stats,
            num_engines: 1,
            duration_s: 1.0,
        };
        assert!((result.drop_rate() - 10.0 / 60.0).abs() < 1e-12);
    }

    #[test]
    fn model_stats_merge_adds_every_counter() {
        let counts = |base: u64| ModelStats {
            total_frames: base,
            executed_frames: base + 1,
            untriggered_frames: base + 2,
            missed_deadlines: base + 3,
            drops: DropCounts {
                superseded: base + 4,
                upstream_dropped: base + 5,
                starved: base + 6,
                preempted: base + 7,
                device_lost: base + 8,
            },
        };
        let mut sum = counts(10);
        sum.merge(&counts(100));
        let expected = ModelStats {
            total_frames: 110,
            executed_frames: 112,
            untriggered_frames: 114,
            missed_deadlines: 116,
            drops: DropCounts {
                superseded: 118,
                upstream_dropped: 120,
                starved: 122,
                preempted: 124,
                device_lost: 126,
            },
        };
        assert_eq!(sum, expected);
        assert_eq!(sum.dropped_frames(), 118 + 120 + 122 + 124 + 126);
        assert_eq!(sum.drops.fault_total(), 124 + 126);
        assert_eq!(
            [counts(10), counts(100)].iter().sum::<ModelStats>(),
            expected
        );
    }

    #[test]
    fn drop_rate_is_zero_without_frames() {
        // Nothing streamed: no division by zero, and no NaN in a report.
        assert_eq!(ModelStats::default().drop_rate(), 0.0);
        assert_eq!(SimResult::default().drop_rate(), 0.0);
        assert_eq!(SessionSimResult::default().drop_rate(), 0.0);
        let st = ModelStats {
            total_frames: 4,
            executed_frames: 3,
            drops: DropCounts {
                starved: 1,
                ..Default::default()
            },
            ..Default::default()
        };
        assert_eq!(st.drop_rate(), 0.25);
    }
}
