//! Recovery-policy comparison: the same fleet, system, and fault
//! seeds executed once per [`RecoveryPolicy`], so the only varying
//! input is what happens to in-flight work on a lost engine.
//!
//! Fault timelines are derived from replica seeds alone (see
//! [`xrbench_sim::fault_seed`]), never from the recovery policy, so
//! every run in a comparison replays the *identical* outage schedule
//! — the comparison isolates the policy's effect exactly.

use serde::Serialize;

use xrbench_sim::{CostProvider, LatencyGreedy, RecoveryPolicy, Scheduler};

use crate::executor::{run_fleet, FleetRunConfig};
use crate::report::FleetReport;
use crate::spec::FleetSpec;

/// One recovery policy's fleet outcome under the shared fault seeds.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PolicyOutcome {
    /// Recovery policy wire name (`drop` / `requeue` / `migrate`).
    pub policy: String,
    /// Mean per-session score under this policy.
    pub fleet_score: f64,
    /// Inferences executed fleet-wide.
    pub executed_inferences: u64,
    /// Frames dropped fleet-wide (all causes).
    pub dropped_frames: u64,
    /// In-flight frames lost to preemption (`Drop` policy only).
    pub preempted: u64,
    /// In-flight frames lost to engine failure (`Drop` policy only).
    pub device_lost: u64,
    /// Executed inferences past their deadline.
    pub missed_deadlines: u64,
    /// Drop rate (dropped / streamed-and-triggered).
    pub drop_rate: f64,
}

/// The outcome of one policy-comparison run: the baseline `drop`
/// policy against every alternative, under identical fault seeds.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PolicyComparisonReport {
    /// Fleet display name.
    pub fleet: String,
    /// Evaluated system label.
    pub system: String,
    /// Scheduler name (shared by every policy run).
    pub scheduler: String,
    /// One row per recovery policy, in [`RecoveryPolicy::ALL`] order.
    pub policies: Vec<PolicyOutcome>,
}

impl PolicyComparisonReport {
    /// Serializes the comparison as pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serialization cannot fail")
    }

    /// One policy's outcome by wire name.
    pub fn policy(&self, name: &str) -> Option<&PolicyOutcome> {
        self.policies.iter().find(|p| p.policy == name)
    }

    /// Renders the comparison as an aligned plain-text table.
    pub fn render_table(&self) -> String {
        let mut out = format!(
            "recovery-policy comparison — fleet `{}` on `{}` under `{}`\n",
            self.fleet, self.system, self.scheduler
        );
        out.push_str(&format!(
            "{:<9} {:>11} {:>9} {:>8} {:>10} {:>10} {:>7} {:>9}\n",
            "policy",
            "score",
            "executed",
            "dropped",
            "preempted",
            "dev-lost",
            "missed",
            "drop-rate"
        ));
        for p in &self.policies {
            out.push_str(&format!(
                "{:<9} {:>11.6} {:>9} {:>8} {:>10} {:>10} {:>7} {:>9.4}\n",
                p.policy,
                p.fleet_score,
                p.executed_inferences,
                p.dropped_frames,
                p.preempted,
                p.device_lost,
                p.missed_deadlines,
                p.drop_rate,
            ));
        }
        out
    }
}

fn outcome(policy: RecoveryPolicy, report: &FleetReport) -> PolicyOutcome {
    PolicyOutcome {
        policy: policy.as_str().to_string(),
        fleet_score: report.fleet_score,
        executed_inferences: report.executed_inferences,
        dropped_frames: report.dropped_frames,
        preempted: report.drops.preempted,
        device_lost: report.drops.device_lost,
        missed_deadlines: report.missed_deadlines,
        drop_rate: report.drop_rate,
    }
}

/// Runs the fleet once per [`RecoveryPolicy`] (identical spec, seeds,
/// and fault timelines) under the default latency-greedy scheduler and
/// tabulates the outcomes.
///
/// # Panics
///
/// Same contract as [`crate::run_fleet`].
pub fn compare_recovery_policies(
    spec: &FleetSpec,
    system: &(dyn CostProvider + Sync),
    config: &FleetRunConfig,
) -> PolicyComparisonReport {
    let policies = RecoveryPolicy::ALL
        .iter()
        .map(|&recovery| {
            let report = run_fleet(
                spec,
                system,
                &FleetRunConfig {
                    recovery,
                    ..*config
                },
            );
            outcome(recovery, &report)
        })
        .collect();
    PolicyComparisonReport {
        fleet: spec.name.clone(),
        system: system.label(),
        scheduler: LatencyGreedy::new().name().to_string(),
        policies,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xrbench_sim::{FaultProcess, ThrottleSpec, UniformProvider};
    use xrbench_workload::{SessionSpec, UsageScenario};

    fn churny() -> FaultProcess {
        FaultProcess {
            failure_rate_per_s: 2.0,
            mean_downtime_s: 0.05,
            preemption_rate_per_s: 4.0,
            mean_preemption_s: 0.02,
            throttle: Some(ThrottleSpec {
                period_s: 0.25,
                duty: 0.4,
                factor: 0.5,
            }),
        }
    }

    fn faulted_fleet() -> FleetSpec {
        FleetSpec::new("churn").group_faulted(
            "vr",
            SessionSpec::uniform("vr", UsageScenario::VrGaming.spec(), 2, 0.002),
            3,
            churny(),
        )
    }

    #[test]
    fn comparison_covers_every_policy_under_one_fault_seed() {
        let p = UniformProvider::new(2, 0.002, 0.001);
        let cfg = FleetRunConfig {
            workers: 2,
            ..FleetRunConfig::default()
        };
        let cmp = compare_recovery_policies(&faulted_fleet(), &p, &cfg);
        assert_eq!(cmp.policies.len(), RecoveryPolicy::ALL.len());
        let drop = cmp.policy("drop").unwrap();
        let requeue = cmp.policy("requeue").unwrap();
        let migrate = cmp.policy("migrate").unwrap();
        // The baseline loses in-flight work to faults; the recovery
        // policies never do.
        assert!(drop.preempted + drop.device_lost > 0);
        assert_eq!(requeue.preempted + requeue.device_lost, 0);
        assert_eq!(migrate.preempted + migrate.device_lost, 0);
        // Recovering work can only help throughput under the same
        // outage schedule.
        assert!(requeue.executed_inferences >= drop.executed_inferences);
        assert!(migrate.executed_inferences >= drop.executed_inferences);
        // The comparison itself is reproducible.
        let again = compare_recovery_policies(&faulted_fleet(), &p, &cfg);
        assert_eq!(cmp, again);
        assert_eq!(cmp.to_json(), again.to_json());
        // Each row is a dedicated run of its policy, at any worker
        // count.
        for recovery in RecoveryPolicy::ALL {
            let cfg = FleetRunConfig {
                workers: 4,
                recovery,
                ..cfg
            };
            let dedicated = crate::run_fleet(&faulted_fleet(), &p, &cfg);
            assert_eq!(
                cmp.policy(recovery.as_str()),
                Some(&outcome(recovery, &dedicated))
            );
        }
        assert_eq!(cmp.system, p.label());
        assert_eq!(cmp.scheduler, "latency-greedy");
    }

    #[test]
    fn table_renders_one_row_per_policy() {
        let p = UniformProvider::new(2, 0.002, 0.001);
        let cfg = FleetRunConfig {
            workers: 1,
            ..FleetRunConfig::default()
        };
        let cmp = compare_recovery_policies(&faulted_fleet(), &p, &cfg);
        let table = cmp.render_table();
        for policy in RecoveryPolicy::ALL {
            assert!(table.contains(policy.as_str()), "{table}");
        }
        assert_eq!(table.lines().count(), 2 + RecoveryPolicy::ALL.len());
    }
}
