//! Benchmark reports: machine-readable results with score breakdowns
//! and detailed per-model statistics (the "Benchmark Outputs" box of
//! Figure 2).
//!
//! Session reports print their drop breakdowns through
//! [`xrbench_fleet::DropReport`], the type fleet reports print theirs
//! through, so one serializer writes every drop breakdown.

use serde::Serialize;

use xrbench_fleet::DropReport;
use xrbench_score::ScenarioBreakdown;

/// Per-model results within one scenario run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ModelReport {
    /// The model's two-letter abbreviation.
    pub model: String,
    /// Target processing rate (FPS) in this scenario.
    pub target_fps: f64,
    /// Frames streamed-and-triggered (`NumFrm`).
    pub total_frames: u64,
    /// Frames executed (`NumFrm_exec`).
    pub executed_frames: u64,
    /// Frames dropped.
    pub dropped_frames: u64,
    /// Frames deactivated by a failed cascade trigger.
    pub untriggered_frames: u64,
    /// Executed frames delivered past their deadline.
    pub missed_deadlines: u64,
    /// Mean end-to-end latency of executed frames, in milliseconds.
    pub mean_latency_ms: f64,
    /// Mean energy per executed inference, in millijoules.
    pub mean_energy_mj: f64,
    /// Per-model score (mean per-inference score; 0 if all dropped).
    pub per_model_score: f64,
    /// QoE score (executed / total).
    pub qoe: f64,
}

/// The outcome of running one usage scenario on one system.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ScenarioReport {
    /// Scenario display name.
    pub scenario: String,
    /// Evaluated system label (e.g. `"J [HDA] WS + OS @ 4096 PEs"`).
    pub system: String,
    /// Scheduler name.
    pub scheduler: String,
    /// The Figure 5-style breakdown (realtime / energy / accuracy /
    /// QoE component means and the overall scenario score).
    #[serde(flatten)]
    pub breakdown: BreakdownReport,
    /// Per-model details.
    pub models: Vec<ModelReport>,
    /// Overall frame-drop rate.
    pub drop_rate: f64,
    /// Total energy over the run (mJ).
    pub total_energy_mj: f64,
    /// Mean engine utilization (the metric §4.2.2 warns about).
    pub mean_utilization: f64,
}

/// Serializable mirror of [`xrbench_score::ScenarioBreakdown`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct BreakdownReport {
    /// Mean real-time score.
    pub realtime_score: f64,
    /// Mean energy score.
    pub energy_score: f64,
    /// Mean accuracy score.
    pub accuracy_score: f64,
    /// Mean QoE score.
    pub qoe_score: f64,
    /// Overall usage-scenario score.
    pub overall_score: f64,
}

impl From<ScenarioBreakdown> for BreakdownReport {
    fn from(b: ScenarioBreakdown) -> Self {
        Self {
            realtime_score: b.realtime,
            energy_score: b.energy,
            accuracy_score: b.accuracy,
            qoe_score: b.qoe,
            overall_score: b.overall,
        }
    }
}

impl From<BreakdownReport> for ScenarioBreakdown {
    fn from(b: BreakdownReport) -> Self {
        Self {
            realtime: b.realtime_score,
            energy: b.energy_score,
            accuracy: b.accuracy_score,
            qoe: b.qoe_score,
            overall: b.overall_score,
        }
    }
}

impl ScenarioReport {
    /// The overall scenario score.
    pub fn overall(&self) -> f64 {
        self.breakdown.overall_score
    }

    /// Serializes the report as pretty JSON.
    ///
    /// # Panics
    ///
    /// Never panics in practice (all fields are serializable).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serialization cannot fail")
    }
}

// Keep `breakdown` available under its score-crate type too.
impl ScenarioReport {
    /// Looks up a model's report by abbreviation.
    pub fn model(&self, abbrev: &str) -> Option<&ModelReport> {
        self.models.iter().find(|m| m.model == abbrev)
    }
}

/// One model's drop-cause split within a user's session slice.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ModelDropReport {
    /// The model's two-letter abbreviation.
    pub model: String,
    /// The drop-cause split.
    #[serde(flatten)]
    pub drops: DropReport,
}

/// One user's slice of a multi-user session run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct UserReport {
    /// Dense user id within the session.
    pub user: u32,
    /// When this user joined, relative to session start (s).
    pub start_offset_s: f64,
    /// Per-model drop causes, in scenario-model order.
    pub model_drops: Vec<ModelDropReport>,
    /// The user's full scenario report, scored against the shared
    /// engines over the session span.
    pub report: ScenarioReport,
}

/// The outcome of running a multi-user [`xrbench_workload::SessionSpec`]
/// on one system: per-user score breakdowns plus session aggregates.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SessionReport {
    /// Session display name.
    pub session: String,
    /// Evaluated system label.
    pub system: String,
    /// Scheduler name.
    pub scheduler: String,
    /// Number of users simulated concurrently.
    pub num_users: usize,
    /// Session span: last join offset plus run duration (s).
    pub span_s: f64,
    /// The session score: mean of per-user overall scores.
    pub session_score: f64,
    /// Component-wise mean breakdown across users.
    pub aggregate: BreakdownReport,
    /// Total energy across all users (mJ).
    pub total_energy_mj: f64,
    /// Mean utilization of the shared engines over the span.
    pub mean_utilization: f64,
    /// Frame-drop rate across all users.
    pub drop_rate: f64,
    /// Session-wide drop causes, summed over users and models.
    pub drops: DropReport,
    /// Per-user reports, in user-id order.
    pub users: Vec<UserReport>,
}

impl SessionReport {
    /// One user's report, if present.
    pub fn user(&self, user: u32) -> Option<&UserReport> {
        self.users.iter().find(|u| u.user == user)
    }

    /// The worst-served user (minimum overall score) — the fairness
    /// number a session dispatcher is judged by.
    pub fn worst_user(&self) -> Option<&UserReport> {
        self.users.iter().min_by(|a, b| {
            a.report
                .overall()
                .total_cmp(&b.report.overall())
                .then(a.user.cmp(&b.user))
        })
    }

    /// Serializes the report as pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serialization cannot fail")
    }
}

/// The outcome of running the whole suite (all usage scenarios) on one
/// system: the mandatory overall XRBench Score plus the optional
/// breakdowns.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct BenchmarkReport {
    /// Evaluated system label.
    pub system: String,
    /// One report per usage scenario, in Table 2 order.
    pub scenarios: Vec<ScenarioReport>,
    /// The overall XRBench Score (Definition 16).
    pub xrbench_score: f64,
}

impl BenchmarkReport {
    /// Serializes the report as pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serialization cannot fail")
    }

    /// Looks up one scenario's report by display name.
    pub fn scenario(&self, name: &str) -> Option<&ScenarioReport> {
        self.scenarios.iter().find(|s| s.scenario == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy_breakdown() -> BreakdownReport {
        BreakdownReport {
            realtime_score: 0.9,
            energy_score: 0.8,
            accuracy_score: 1.0,
            qoe_score: 0.95,
            overall_score: 0.68,
        }
    }

    #[test]
    fn scenario_report_serializes_flattened() {
        let r = ScenarioReport {
            scenario: "VR Gaming".into(),
            system: "A@4096".into(),
            scheduler: "latency-greedy".into(),
            breakdown: dummy_breakdown(),
            models: vec![],
            drop_rate: 0.0,
            total_energy_mj: 12.0,
            mean_utilization: 0.4,
        };
        let json = r.to_json();
        assert!(json.contains("\"overall_score\": 0.68"));
        assert!(json.contains("\"realtime_score\": 0.9"));
        assert!(r.model("HT").is_none());
    }

    #[test]
    fn benchmark_report_lookup() {
        let s = ScenarioReport {
            scenario: "AR Gaming".into(),
            system: "J@4096".into(),
            scheduler: "latency-greedy".into(),
            breakdown: dummy_breakdown(),
            models: vec![],
            drop_rate: 0.1,
            total_energy_mj: 1.0,
            mean_utilization: 0.2,
        };
        let b = BenchmarkReport {
            system: "J@4096".into(),
            scenarios: vec![s],
            xrbench_score: 0.68,
        };
        assert!(b.scenario("AR Gaming").is_some());
        assert!(b.scenario("VR Gaming").is_none());
        assert!(b.to_json().contains("xrbench_score"));
    }

    #[test]
    fn drop_breakdown_names_fault_counters_only_when_nonzero() {
        use xrbench_sim::DropCounts;

        let json = |d: DropCounts| serde_json::to_string(&DropReport::from(d)).unwrap();
        let quiet = DropCounts {
            superseded: 3,
            upstream_dropped: 2,
            starved: 1,
            ..Default::default()
        };
        assert_eq!(
            json(quiet),
            r#"{"superseded":3.0,"upstream_dropped":2.0,"starved":1.0}"#
        );
        assert_eq!(quiet.fault_total(), 0);

        let mut faulted = quiet;
        faulted.merge(&DropCounts {
            preempted: 4,
            ..Default::default()
        });
        assert_eq!(
            json(faulted),
            r#"{"superseded":3.0,"upstream_dropped":2.0,"starved":1.0,"preempted":4.0}"#
        );
        faulted.merge(&DropCounts {
            device_lost: 5,
            ..Default::default()
        });
        assert!(json(faulted).ends_with(r#""preempted":4.0,"device_lost":5.0}"#));
        assert_eq!(faulted.fault_total(), 9);
        assert_eq!(faulted.total(), 15);
        assert_eq!(DropReport::from(faulted).total(), 15);
    }
}
