//! The fleet executor: a bounded work-stealing worker pool running
//! each device session through the event engine's folding path, with
//! per-worker accumulators merged deterministically at the end.
//!
//! ## Determinism under parallelism
//!
//! Which worker runs which session is scheduler noise — but it cannot
//! leak into the result:
//!
//! 1. each device session is seeded purely by
//!    [`replica_seed`]`(base, group, replica)` and simulated
//!    single-threaded, so its folded [`FleetAccumulator`] contribution
//!    is a pure function of the fleet spec and base seed;
//! 2. contributions are folded into per-`(worker, group)`
//!    accumulators, and [`FleetAccumulator::merge`] is **exact**
//!    (integer counters, fixed-point sums, histogram buckets, min/max)
//!    — associative and commutative, so any merge tree over the same
//!    session set yields bit-identical state;
//! 3. the final reduction runs in group order.
//!
//! Together: the [`FleetReport`] of a 1-worker run and a 64-worker run
//! are byte-identical, and memory stays O(workers × groups) — no
//! per-request vector survives a session (see `DESIGN.md`).

use std::sync::atomic::{AtomicUsize, Ordering};

use xrbench_score::{session_breakdown, AccuracyParams, EnergyParams, RtParams};
use xrbench_sim::{CostProvider, LatencyGreedy, RecoveryPolicy, Scheduler, SimConfig, Simulator};

use crate::accumulator::{FleetAccumulator, SCORE_SCALE};
use crate::report::{build_report, FleetReport};
use crate::scoring::{InferenceScorer, SessionFold};
use crate::spec::{replica_seed, DeviceGroup, FleetSpec};

/// Everything a fleet run needs besides the spec and the system:
/// simulation base config, scoring parameters, and the worker budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetRunConfig {
    /// Base simulator configuration. `seed` is the fleet base seed
    /// (each replica derives its own via [`replica_seed`]);
    /// `duration_s` is the per-user run duration.
    pub sim: SimConfig,
    /// Real-time sigmoid parameters.
    pub rt: RtParams,
    /// Energy score parameters.
    pub energy: EnergyParams,
    /// Accuracy score parameters.
    pub accuracy: AccuracyParams,
    /// Worker threads (capped at the session count; must be ≥ 1).
    pub workers: usize,
    /// What happens to in-flight work on an engine lost to an
    /// injected fault (groups without a fault process never consult
    /// this).
    pub recovery: RecoveryPolicy,
}

impl Default for FleetRunConfig {
    fn default() -> Self {
        Self {
            sim: SimConfig::default(),
            rt: RtParams::default(),
            energy: EnergyParams::default(),
            accuracy: AccuracyParams::default(),
            workers: default_workers(),
            recovery: RecoveryPolicy::default(),
        }
    }
}

/// The default fleet worker count:
/// `max(available_parallelism, 2)`, so the merge path is exercised
/// even on a single-core host.
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .max(2)
}

/// Runs one device session through the folding path, accumulating
/// into `acc` and never retaining per-request vectors.
fn fold_session(
    group: &DeviceGroup,
    sim: &Simulator,
    system: &dyn CostProvider,
    scheduler: &mut dyn Scheduler,
    scorer: &InferenceScorer,
    recovery: RecoveryPolicy,
    acc: &mut FleetAccumulator,
) {
    let session = &group.session;
    let mut fold = SessionFold::new(session);
    let mut sink = |user: u32, rec: &xrbench_sim::ExecRecord| {
        let combined = fold.record(user, rec, scorer);
        acc.latency.record(rec.latency_s());
        acc.overrun.record(rec.overrun_s());
        acc.score.record(combined);
        acc.model_mut(rec.model).record_exec(rec);
    };
    let result = match &group.faults {
        Some(faults) => {
            sim.run_session_folded_faulted(session, system, scheduler, faults, recovery, &mut sink)
        }
        None => sim.run_session_folded(session, system, scheduler, &mut sink),
    };
    for (_, r) in &result.per_user {
        for (m, st) in &r.stats {
            acc.model_mut(*m).absorb_stats(st);
        }
    }
    let breakdowns = fold.finish(session, &result);
    let aggregate = session_breakdown(&breakdowns);
    acc.sessions += 1;
    acc.users += breakdowns.len() as u64;
    acc.session_score.record(aggregate.overall, SCORE_SCALE);
    for (su, b) in session.users.iter().zip(&breakdowns) {
        acc.scenario_mut(&su.spec.name).record_user(b);
    }
}

/// Runs a fleet under the default latency-greedy scheduler.
///
/// # Panics
///
/// Panics if the fleet is invalid (see [`FleetSpec::validate`]),
/// `config.workers == 0`, or the system has no engines.
pub fn run_fleet(
    spec: &FleetSpec,
    system: &(dyn CostProvider + Sync),
    config: &FleetRunConfig,
) -> FleetReport {
    run_fleet_with(spec, system, config, &|| Box::new(LatencyGreedy::new()))
}

/// [`run_fleet`] under an explicit scheduler (one fresh instance per
/// device session, exactly as [`xrbench_sim::Simulator::run_session`]
/// would use it).
///
/// # Panics
///
/// Panics if the fleet is invalid, `config.workers == 0`, or the
/// system has no engines; propagates worker panics.
pub fn run_fleet_with(
    spec: &FleetSpec,
    system: &(dyn CostProvider + Sync),
    config: &FleetRunConfig,
    scheduler_factory: &(dyn Fn() -> Box<dyn Scheduler> + Sync),
) -> FleetReport {
    spec.validate();
    let scheduler_name = scheduler_factory().name();
    let group_accs = run_jobs(spec, system, config, scheduler_factory, &flat_jobs(spec));
    let mut fleet_acc = FleetAccumulator::new();
    for g in &group_accs {
        fleet_acc.merge(g);
    }
    build_report(
        spec,
        &system.label(),
        scheduler_name,
        &group_accs,
        &fleet_acc,
    )
}

/// The flat `(group, replica)` job list of a fleet, in group order —
/// the order a whole-fleet run walks and a shard cut slices.
pub(crate) fn flat_jobs(spec: &FleetSpec) -> Vec<(u32, u32)> {
    spec.groups
        .iter()
        .enumerate()
        .flat_map(|(g, grp)| (0..grp.replicas).map(move |r| (g as u32, r)))
        .collect()
}

/// Runs an explicit `(group, replica)` job list through the worker
/// pool and returns one merged accumulator per group (empty for
/// groups the list never touches). Replica indices are **global** —
/// each session is seeded by `replica_seed(base, g, r)` from the
/// indices as given, so running a subset of the jobs here produces
/// exactly the contribution those sessions make to a full run. This
/// is the primitive both [`run_fleet_with`] (all jobs) and the shard
/// runner ([`crate::run_fleet_shard`], one shard's slice) share.
///
/// # Panics
///
/// Panics if `config.workers == 0`, a job's group index is out of
/// range, or the system has no engines; propagates worker panics.
pub(crate) fn run_jobs(
    spec: &FleetSpec,
    system: &(dyn CostProvider + Sync),
    config: &FleetRunConfig,
    scheduler_factory: &(dyn Fn() -> Box<dyn Scheduler> + Sync),
    jobs: &[(u32, u32)],
) -> Vec<FleetAccumulator> {
    assert!(config.workers > 0, "fleet needs at least one worker");
    let scorer = InferenceScorer::new(config.rt, config.energy, config.accuracy);
    let workers = config.workers.min(jobs.len()).max(1);
    let next = AtomicUsize::new(0);
    // One worker: claim jobs until none remain, folding each session
    // into this worker's per-group accumulators.
    let work = || {
        let mut local = vec![FleetAccumulator::new(); spec.groups.len()];
        loop {
            let idx = next.fetch_add(1, Ordering::Relaxed);
            let Some(&(g, r)) = jobs.get(idx) else {
                break;
            };
            let sim = Simulator::new(SimConfig {
                duration_s: config.sim.duration_s,
                seed: replica_seed(config.sim.seed, g, r),
            });
            let mut scheduler = scheduler_factory();
            fold_session(
                &spec.groups[g as usize],
                &sim,
                system,
                scheduler.as_mut(),
                &scorer,
                config.recovery,
                &mut local[g as usize],
            );
        }
        local
    };

    // The calling thread is worker 0, so a one-worker run spawns no
    // thread at all.
    let locals: Vec<Vec<FleetAccumulator>> = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..workers).map(|_| scope.spawn(work)).collect();
        let mut locals = vec![work()];
        for helper in helpers {
            locals.push(
                helper
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic)),
            );
        }
        locals
    });

    // Reduce per-group accumulators; exact merges, so worker order is
    // immaterial.
    let mut group_accs: Vec<FleetAccumulator> = vec![FleetAccumulator::new(); spec.groups.len()];
    for local in &locals {
        for (g, acc) in local.iter().enumerate() {
            group_accs[g].merge(acc);
        }
    }
    group_accs
}

#[cfg(test)]
mod tests {
    use super::*;
    use xrbench_sim::UniformProvider;
    use xrbench_workload::{SessionSpec, UsageScenario};

    fn small_fleet() -> FleetSpec {
        FleetSpec::new("test")
            .group(
                "vr",
                SessionSpec::uniform("vr", UsageScenario::VrGaming.spec(), 3, 0.002),
                4,
            )
            .group(
                "social",
                SessionSpec::uniform("soc", UsageScenario::SocialInteractionA.spec(), 2, 0.003),
                3,
            )
    }

    #[test]
    fn fleet_runs_and_counts_everyone() {
        let p = UniformProvider::new(4, 0.001, 0.001);
        let r = run_fleet(&small_fleet(), &p, &FleetRunConfig::default());
        assert_eq!(r.num_sessions, 7);
        assert_eq!(r.num_users, 4 * 3 + 3 * 2);
        assert_eq!(r.num_groups, 2);
        assert!(r.fleet_score > 0.0 && r.fleet_score <= 1.0);
        assert!(r.executed_inferences > 0);
        assert_eq!(
            r.events,
            r.total_requests + r.untriggered_frames + r.executed_inferences
        );
        assert_eq!(r.groups.len(), 2);
        assert_eq!(r.groups[0].sessions, 4);
        assert_eq!(r.groups[1].users, 6);
        // Both scenarios appear, in name order.
        let names: Vec<&str> = r.scenarios.iter().map(|s| s.scenario.as_str()).collect();
        assert_eq!(names, ["Social Interaction A", "VR Gaming"]);
        // Reported percentiles never exceed their own maxima, and
        // score percentiles stay on [0, 1] (the histogram's raw upper
        // edges would overshoot both).
        assert!(r.latency.p50_ms <= r.latency.p95_ms);
        assert!(r.latency.p95_ms <= r.latency.p99_ms);
        assert!(r.latency.p99_ms <= r.latency.max_ms);
        assert!(r.overrun_p95_ms <= r.overrun_p99_ms);
        assert!(r.overrun_p99_ms <= r.latency.max_ms);
        assert!(r.inference_score_p05 <= r.inference_score_p50);
        assert!(r.inference_score_p50 <= 1.0);
    }

    #[test]
    fn worker_count_does_not_change_the_report() {
        let p = UniformProvider::new(2, 0.002, 0.001);
        let spec = small_fleet();
        let base = FleetRunConfig {
            workers: 1,
            ..FleetRunConfig::default()
        };
        let one = run_fleet(&spec, &p, &base);
        for workers in [2, 3, 8] {
            let cfg = FleetRunConfig { workers, ..base };
            let many = run_fleet(&spec, &p, &cfg);
            assert_eq!(one, many, "workers = {workers}");
            assert_eq!(one.to_json(), many.to_json(), "workers = {workers}");
        }
    }

    #[test]
    fn replicas_are_independent_devices() {
        // Two replicas of the same session must not produce identical
        // per-session scores under contention-free jitter (their seeds
        // differ), yet the fleet total is reproducible.
        let p = UniformProvider::new(2, 0.002, 0.001);
        let spec = FleetSpec::uniform(
            "twins",
            SessionSpec::uniform("s", UsageScenario::ArAssistant.spec(), 2, 0.002),
            2,
        );
        let cfg = FleetRunConfig::default();
        let a = run_fleet(&spec, &p, &cfg);
        let b = run_fleet(&spec, &p, &cfg);
        assert_eq!(a, b);
        // AR Assistant has probabilistic cascades: distinct seeds show
        // up as distinct work (with overwhelming probability).
        assert!(
            a.session_score_min != a.session_score_max || a.untriggered_frames > 0,
            "replicas look seed-correlated"
        );
    }

    fn churny() -> xrbench_sim::FaultProcess {
        xrbench_sim::FaultProcess {
            failure_rate_per_s: 2.0,
            mean_downtime_s: 0.05,
            preemption_rate_per_s: 4.0,
            mean_preemption_s: 0.02,
            throttle: Some(xrbench_sim::ThrottleSpec {
                period_s: 0.25,
                duty: 0.4,
                factor: 0.5,
            }),
        }
    }

    fn faulted_fleet() -> FleetSpec {
        FleetSpec::new("churn")
            .group_faulted(
                "vr",
                SessionSpec::uniform("vr", UsageScenario::VrGaming.spec(), 3, 0.002),
                4,
                churny(),
            )
            .group(
                "calm",
                SessionSpec::uniform("soc", UsageScenario::SocialInteractionA.spec(), 2, 0.003),
                2,
            )
    }

    #[test]
    fn faulted_fleet_report_is_identical_for_any_worker_count() {
        let p = UniformProvider::new(2, 0.002, 0.001);
        let spec = faulted_fleet();
        for recovery in RecoveryPolicy::ALL {
            let base = FleetRunConfig {
                workers: 1,
                recovery,
                ..FleetRunConfig::default()
            };
            let one = run_fleet(&spec, &p, &base);
            for workers in [2, 8] {
                let cfg = FleetRunConfig { workers, ..base };
                let many = run_fleet(&spec, &p, &cfg);
                assert_eq!(one, many, "{recovery} workers = {workers}");
                assert_eq!(
                    one.to_json(),
                    many.to_json(),
                    "{recovery} workers = {workers}"
                );
            }
        }
    }

    #[test]
    fn fault_drops_surface_in_the_report_only_when_injected() {
        let p = UniformProvider::new(2, 0.002, 0.001);
        // Baseline policy: revoked in-flight work is dropped and
        // attributed to its outage kind, fleet-wide and per-group.
        let faulted = run_fleet(&faulted_fleet(), &p, &FleetRunConfig::default());
        assert!(faulted.drops.preempted > 0, "{:?}", faulted.drops);
        assert!(faulted.drops.device_lost > 0, "{:?}", faulted.drops);
        let json = faulted.to_json();
        assert!(json.contains("\"preempted\""), "fault drops not serialized");
        assert!(json.contains("\"device_lost\""));
        // A fault-free fleet keeps the pre-fault wire format: the new
        // counters stay zero and are omitted from the JSON entirely.
        let clean = run_fleet(&small_fleet(), &p, &FleetRunConfig::default());
        assert_eq!(clean.drops.preempted, 0);
        assert_eq!(clean.drops.device_lost, 0);
        let clean_json = clean.to_json();
        assert!(!clean_json.contains("preempted"), "zero counter serialized");
        assert!(!clean_json.contains("device_lost"));
    }

    #[test]
    fn recovery_policies_change_the_outcome_under_identical_faults() {
        let p = UniformProvider::new(2, 0.002, 0.001);
        let spec = faulted_fleet();
        let run = |recovery| {
            let cfg = FleetRunConfig {
                recovery,
                ..FleetRunConfig::default()
            };
            run_fleet(&spec, &p, &cfg)
        };
        let drop = run(RecoveryPolicy::Drop);
        let requeue = run(RecoveryPolicy::Requeue);
        let migrate = run(RecoveryPolicy::Migrate);
        // Recovery policies never lose in-flight work to faults …
        assert_eq!(requeue.drops.preempted + requeue.drops.device_lost, 0);
        assert_eq!(migrate.drops.preempted + migrate.drops.device_lost, 0);
        // … so under the same outage schedule they execute at least
        // as many inferences as the baseline.
        assert!(requeue.executed_inferences >= drop.executed_inferences);
        assert!(migrate.executed_inferences >= drop.executed_inferences);
    }

    #[test]
    fn default_workers_is_at_least_two() {
        assert!(default_workers() >= 2);
    }

    #[test]
    #[should_panic(expected = "worker")]
    fn zero_workers_rejected() {
        let p = UniformProvider::new(1, 0.001, 0.001);
        let cfg = FleetRunConfig {
            workers: 0,
            ..FleetRunConfig::default()
        };
        let _ = run_fleet(&small_fleet(), &p, &cfg);
    }
}
