//! The fleet report: machine-readable aggregates of a sharded
//! multi-session run.
//!
//! Every number here is derived from the exactly-merged
//! [`FleetAccumulator`], so the serialized report is byte-identical
//! for any worker count (see `DESIGN.md`'s determinism argument).
//!
//! [`DropReport`] lives here because the fleet crate is the lowest one
//! that serializes: it is the drop breakdown of session reports too,
//! built from the engine's [`DropCounts`] on both paths.

use serde::Serialize;

use xrbench_score::FixedHistogram;
use xrbench_sim::DropCounts;

use crate::accumulator::{FleetAccumulator, StatAgg, ENERGY_SCALE, SCORE_SCALE, TIME_SCALE};
use crate::spec::FleetSpec;

/// Frames dropped, split by cause: the drop breakdown of every report
/// (fleet, fleet model, session, session user model). `superseded`
/// means the system fell behind and the freshness policy discarded
/// stale inputs, `upstream_dropped` that a cascade collapsed, and
/// `starved` that the run ended with work still queued. Fault-injected
/// runs add `preempted` and `device_lost`: in-flight work revoked by
/// an engine outage under the `drop` recovery policy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DropReport {
    /// Frames superseded by a newer frame of the same model.
    pub superseded: u64,
    /// Dependent frames whose upstream frame was itself dropped.
    pub upstream_dropped: u64,
    /// Frames still queued when their run ended.
    pub starved: u64,
    /// In-flight frames revoked by an engine preemption.
    pub preempted: u64,
    /// In-flight frames revoked by an engine failure.
    pub device_lost: u64,
}

impl DropReport {
    /// Total drops across causes.
    pub fn total(&self) -> u64 {
        self.superseded + self.upstream_dropped + self.starved + self.preempted + self.device_lost
    }
}

impl From<DropCounts> for DropReport {
    fn from(d: DropCounts) -> Self {
        Self {
            superseded: d.superseded,
            upstream_dropped: d.upstream_dropped,
            starved: d.starved,
            preempted: d.preempted,
            device_lost: d.device_lost,
        }
    }
}

// Hand-written so the fault counters appear only when a fault process
// actually revoked work: fault-free reports keep the pre-fault wire
// format byte for byte (the golden fixtures pin it), and the vendored
// derive cannot skip a field.
impl Serialize for DropReport {
    fn to_json_value(&self) -> serde::json::JsonValue {
        let mut obj = vec![
            ("superseded".to_string(), self.superseded.to_json_value()),
            (
                "upstream_dropped".to_string(),
                self.upstream_dropped.to_json_value(),
            ),
            ("starved".to_string(), self.starved.to_json_value()),
        ];
        if self.preempted > 0 {
            obj.push(("preempted".to_string(), self.preempted.to_json_value()));
        }
        if self.device_lost > 0 {
            obj.push(("device_lost".to_string(), self.device_lost.to_json_value()));
        }
        serde::json::JsonValue::Object(obj)
    }
}

/// A latency-style distribution: count/mean/min/max from exact sums,
/// percentiles from the fixed-bucket histogram (milliseconds).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct DistributionReport {
    /// Recorded values.
    pub count: u64,
    /// Mean (ms).
    pub mean_ms: f64,
    /// Minimum (ms).
    pub min_ms: f64,
    /// Maximum (ms).
    pub max_ms: f64,
    /// Median, as the histogram bucket's upper edge (ms).
    pub p50_ms: f64,
    /// 95th percentile (ms).
    pub p95_ms: f64,
    /// 99th percentile (ms).
    pub p99_ms: f64,
}

/// A percentile in milliseconds, clamped to the observed maximum: the
/// histogram reports upper bucket edges (≤12.5% above any contained
/// value, infinite for the overflow bucket), and a report must never
/// quote a percentile above its own `max_ms`.
fn pct_ms(h: &FixedHistogram, q: f64, max_s: f64) -> f64 {
    h.percentile(q).min(max_s) * 1e3
}

fn distribution(stats: &StatAgg, hist: &FixedHistogram) -> DistributionReport {
    DistributionReport {
        count: stats.count,
        mean_ms: stats.mean(TIME_SCALE) * 1e3,
        min_ms: stats.min() * 1e3,
        max_ms: stats.max() * 1e3,
        p50_ms: pct_ms(hist, 0.50, stats.max()),
        p95_ms: pct_ms(hist, 0.95, stats.max()),
        p99_ms: pct_ms(hist, 0.99, stats.max()),
    }
}

/// One scenario's fleet-wide score aggregate.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ScenarioFleetReport {
    /// Scenario display name.
    pub scenario: String,
    /// Users that ran this scenario across the fleet.
    pub users: u64,
    /// Mean per-user real-time score.
    pub realtime_score: f64,
    /// Mean per-user energy score.
    pub energy_score: f64,
    /// Mean per-user accuracy score.
    pub accuracy_score: f64,
    /// Mean per-user QoE score.
    pub qoe_score: f64,
    /// Mean per-user overall scenario score.
    pub overall_score: f64,
    /// Worst-served user's overall score (fairness floor).
    pub min_overall: f64,
    /// Best-served user's overall score.
    pub max_overall: f64,
}

/// One model's fleet-wide aggregate.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ModelFleetReport {
    /// The model's two-letter abbreviation.
    pub model: String,
    /// Frames streamed and triggered.
    pub total_frames: u64,
    /// Frames executed.
    pub executed_frames: u64,
    /// Frames deactivated by failed cascade draws.
    pub untriggered_frames: u64,
    /// Executed frames past their deadline.
    pub missed_deadlines: u64,
    /// Drops by cause.
    pub drops: DropReport,
    /// Mean end-to-end latency over executed frames (ms).
    pub mean_latency_ms: f64,
    /// Fastest executed frame (ms).
    pub min_latency_ms: f64,
    /// Slowest executed frame (ms).
    pub max_latency_ms: f64,
    /// Mean energy per executed inference (mJ).
    pub mean_energy_mj: f64,
}

/// One device group's aggregate.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct GroupFleetReport {
    /// Group index within the fleet spec.
    pub group: usize,
    /// Group display name.
    pub name: String,
    /// Device sessions in the group.
    pub sessions: u64,
    /// Users across the group's sessions.
    pub users: u64,
    /// Mean per-session score.
    pub session_score: f64,
    /// Worst session's score.
    pub min_session_score: f64,
    /// Best session's score.
    pub max_session_score: f64,
    /// Frame-drop rate across the group.
    pub drop_rate: f64,
}

/// The outcome of one fleet run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FleetReport {
    /// Fleet display name.
    pub fleet: String,
    /// Evaluated system label.
    pub system: String,
    /// Scheduler name (one fresh instance per device session).
    pub scheduler: String,
    /// Device groups.
    pub num_groups: usize,
    /// Device sessions executed.
    pub num_sessions: u64,
    /// Concurrent users across all sessions.
    pub num_users: u64,
    /// Mean per-session score (each session's score is the mean of
    /// its users' overall scenario scores).
    pub fleet_score: f64,
    /// Worst session's score.
    pub session_score_min: f64,
    /// Best session's score.
    pub session_score_max: f64,
    /// Frames streamed and triggered, fleet-wide.
    pub total_requests: u64,
    /// Inferences executed, fleet-wide.
    pub executed_inferences: u64,
    /// Frames dropped, fleet-wide.
    pub dropped_frames: u64,
    /// Frames deactivated by failed cascade draws.
    pub untriggered_frames: u64,
    /// Executed inferences past their deadline.
    pub missed_deadlines: u64,
    /// Drop rate (dropped / streamed-and-triggered).
    pub drop_rate: f64,
    /// Drops by cause.
    pub drops: DropReport,
    /// Total energy across the fleet (mJ).
    pub total_energy_mj: f64,
    /// End-to-end latency distribution over executed inferences.
    pub latency: DistributionReport,
    /// Deadline-overrun tail (ms; met deadlines contribute 0).
    pub overrun_p95_ms: f64,
    /// 99th-percentile deadline overrun (ms).
    pub overrun_p99_ms: f64,
    /// 5th-percentile combined per-inference score (the QoS floor the
    /// worst 5% of inferences live under), from the score histogram.
    pub inference_score_p05: f64,
    /// Median combined per-inference score.
    pub inference_score_p50: f64,
    /// Discrete events processed (arrivals + completions) — the
    /// denominator of the fleet gate's events/sec.
    pub events: u64,
    /// Per-scenario aggregates, in name order.
    pub scenarios: Vec<ScenarioFleetReport>,
    /// Per-model aggregates, in model order (touched models only).
    pub models: Vec<ModelFleetReport>,
    /// Per-group aggregates, in group order.
    pub groups: Vec<GroupFleetReport>,
}

impl FleetReport {
    /// Serializes the report as pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serialization cannot fail")
    }

    /// One scenario's aggregate by display name.
    pub fn scenario(&self, name: &str) -> Option<&ScenarioFleetReport> {
        self.scenarios.iter().find(|s| s.scenario == name)
    }

    /// One model's aggregate by abbreviation.
    pub fn model(&self, abbrev: &str) -> Option<&ModelFleetReport> {
        self.models.iter().find(|m| m.model == abbrev)
    }
}

/// Assembles the report from the per-group and fleet-total
/// accumulators (all exact-merged, so this is pure presentation).
pub(crate) fn build_report(
    spec: &FleetSpec,
    system: &str,
    scheduler: &str,
    group_accs: &[FleetAccumulator],
    fleet: &FleetAccumulator,
) -> FleetReport {
    let frames = fleet.frames();
    let latency_stats = fleet.latency_stats();
    // An overrun never exceeds the latency of the same inference
    // (t_end − t_deadline ≤ t_end − t_req), so the latency maximum is
    // a valid clamp for overflow-bucket overrun percentiles.
    let max_overrun = latency_stats.max();

    let scenarios = fleet
        .scenarios()
        .map(|(name, agg)| {
            let b = agg.mean_breakdown();
            ScenarioFleetReport {
                scenario: name.to_string(),
                users: agg.users,
                realtime_score: b.realtime,
                energy_score: b.energy,
                accuracy_score: b.accuracy,
                qoe_score: b.qoe,
                overall_score: b.overall,
                min_overall: agg.overall.min(),
                max_overall: agg.overall.max(),
            }
        })
        .collect();

    let models = fleet
        .models()
        .map(|(m, a)| ModelFleetReport {
            model: m.abbrev().to_string(),
            total_frames: a.frames.total_frames,
            executed_frames: a.frames.executed_frames,
            untriggered_frames: a.frames.untriggered_frames,
            missed_deadlines: a.frames.missed_deadlines,
            drops: a.frames.drops.into(),
            mean_latency_ms: a.latency.mean(TIME_SCALE) * 1e3,
            min_latency_ms: a.latency.min() * 1e3,
            max_latency_ms: a.latency.max() * 1e3,
            mean_energy_mj: a.energy.mean(ENERGY_SCALE) * 1e3,
        })
        .collect();

    let groups = spec
        .groups
        .iter()
        .zip(group_accs)
        .enumerate()
        .map(|(i, (g, acc))| GroupFleetReport {
            group: i,
            name: g.name.clone(),
            sessions: acc.sessions,
            users: acc.users,
            session_score: acc.session_score.mean(SCORE_SCALE),
            min_session_score: acc.session_score.min(),
            max_session_score: acc.session_score.max(),
            drop_rate: acc.frames().drop_rate(),
        })
        .collect();

    FleetReport {
        fleet: spec.name.clone(),
        system: system.to_string(),
        scheduler: scheduler.to_string(),
        num_groups: spec.num_groups(),
        num_sessions: fleet.sessions,
        num_users: fleet.users,
        fleet_score: fleet.session_score.mean(SCORE_SCALE),
        session_score_min: fleet.session_score.min(),
        session_score_max: fleet.session_score.max(),
        total_requests: frames.total_frames,
        executed_inferences: frames.executed_frames,
        dropped_frames: frames.dropped_frames(),
        untriggered_frames: frames.untriggered_frames,
        missed_deadlines: frames.missed_deadlines,
        drop_rate: frames.drop_rate(),
        drops: frames.drops.into(),
        total_energy_mj: fleet.total_energy_j() * 1e3,
        latency: distribution(&latency_stats, &fleet.latency),
        overrun_p95_ms: pct_ms(&fleet.overrun, 0.95, max_overrun),
        overrun_p99_ms: pct_ms(&fleet.overrun, 0.99, max_overrun),
        // Combined scores live on [0, 1]; clamp the bucket upper
        // edges so a fleet of perfect inferences reports 1.0, not the
        // containing bucket's 1.125 edge.
        inference_score_p05: fleet.score.percentile(0.05).min(1.0),
        inference_score_p50: fleet.score.percentile(0.50).min(1.0),
        // Arrivals (streamed plus untriggered frames) and completions.
        events: frames.total_frames + frames.untriggered_frames + frames.executed_frames,
        scenarios,
        models,
        groups,
    }
}
