//! Simulation results: the execution timeline and per-model
//! frame accounting.
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

/// Per-model frame accounting for one run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ModelStats {
    /// Frames that were streamed *and triggered* for this model
    /// (`NumFrm`). Control-dependent frames whose trigger draw failed
    /// are excluded — the model was legitimately inactive for them.
    pub total_frames: u64,
    /// Frames that actually executed (`NumFrm_exec`).
    pub executed_frames: u64,
    /// Frames dropped (all reasons; equals the sum of the per-reason
    /// counters below).
    pub dropped_frames: u64,
    /// Frames whose control-dependency draw deactivated them.
    pub untriggered_frames: u64,
    /// Executed frames that missed their deadline.
    pub missed_deadlines: u64,
    /// Drops caused by a newer frame superseding this one
    /// ([`DropReason::Superseded`]).
    pub dropped_superseded: u64,
    /// Drops caused by the upstream frame itself being dropped
    /// ([`DropReason::UpstreamDropped`]).
    pub dropped_upstream: u64,
    /// Drops caused by the run ending with the frame still queued
    /// ([`DropReason::Starved`]).
    pub dropped_starved: u64,
    /// Drops caused by a mid-flight engine preemption
    /// ([`DropReason::Preempted`]).
    pub dropped_preempted: u64,
    /// Drops caused by a mid-flight engine failure
    /// ([`DropReason::DeviceLost`]).
    pub dropped_device_lost: u64,
}

impl ModelStats {
    /// Records one dropped frame, attributing it to `reason`.
    pub fn record_drop(&mut self, reason: DropReason) {
        self.dropped_frames += 1;
        match reason {
            DropReason::Superseded => self.dropped_superseded += 1,
            DropReason::UpstreamDropped => self.dropped_upstream += 1,
            DropReason::Starved => self.dropped_starved += 1,
            DropReason::Preempted => self.dropped_preempted += 1,
            DropReason::DeviceLost => self.dropped_device_lost += 1,
        }
    }

    /// The drop count attributed to `reason`.
    pub fn drops_for(&self, reason: DropReason) -> u64 {
        match reason {
            DropReason::Superseded => self.dropped_superseded,
            DropReason::UpstreamDropped => self.dropped_upstream,
            DropReason::Starved => self.dropped_starved,
            DropReason::Preempted => self.dropped_preempted,
            DropReason::DeviceLost => self.dropped_device_lost,
        }
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
        let total: u64 = self.stats.values().map(|s| s.total_frames).sum();
        let dropped: u64 = self.stats.values().map(|s| s.dropped_frames).sum();
        if total == 0 {
            0.0
        } else {
            dropped as f64 / total as f64
        }
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
        let total: u64 = self
            .per_user
            .iter()
            .flat_map(|(_, r)| r.stats.values())
            .map(|s| s.total_frames)
            .sum();
        let dropped: u64 = self
            .per_user
            .iter()
            .flat_map(|(_, r)| r.stats.values())
            .map(|s| s.dropped_frames)
            .sum();
        if total == 0 {
            0.0
        } else {
            dropped as f64 / total as f64
        }
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
                dropped_frames: 10,
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
}
