//! Whole-suite runs: a scenario catalog → XRBench Score.
//!
//! The suite `Ω` is a [`ScenarioCatalog`] — by default the seven
//! Table 2 scenarios, but any catalog with user-defined scenarios
//! registered through `ScenarioBuilder` runs identically. Two
//! execution paths produce bit-for-bit identical reports:
//!
//! * [`run_suite_serial`] — one (scenario, repeat) run after another.
//! * [`run_suite_parallel`] — the same (scenario, repeat) job grid
//!   fanned across `std::thread` workers. Determinism holds because
//!   every job derives its seed from the harness seed exactly as the
//!   serial path does, results land in pre-assigned slots, and the
//!   order-sensitive float aggregation happens after the join, in
//!   serial order.
//!
//! [`run_suite`] is the public entry point and defaults to the
//! parallel path over the built-in catalog — the full 13-accelerator ×
//! 7-scenario sweeps behind the figure binaries are embarrassingly
//! parallel, and the suite is the unit of work they repeat.
//! [`run_sessions`] is the session-aware parallel path: a batch of
//! multi-user sessions fanned across the same worker pool.
//!
//! The historical per-strategy entry points ([`run_suite_serial`],
//! [`run_suite_parallel`], and the `_with_workers` variants) are
//! deprecated shims: serial/parallel equivalence is proven, so the
//! strategy is an implementation detail and [`run_suite`] /
//! [`run_suite_catalog`] (or [`crate::Runner`]) are the API.

use xrbench_score::benchmark_score;
use xrbench_sim::{CostProvider, LatencyGreedy};
use xrbench_workload::{ScenarioCatalog, ScenarioSpec, SessionSpec};

use crate::harness::Harness;
use crate::report::{BenchmarkReport, ScenarioReport, SessionReport};

/// One (scenario, repeat) cell of the suite's job grid.
#[derive(Debug, Clone, Copy)]
struct SuiteJob {
    scenario_idx: usize,
    seed_offset: u32,
}

/// Builds the suite's job grid in deterministic order: scenarios in
/// catalog order, repeats in seed order. Dynamic scenarios (those with
/// probabilistic cascades) are averaged over `repeats` independent
/// seeds; static scenarios run once, as their outcome is
/// seed-independent up to jitter.
fn suite_jobs(specs: &[&ScenarioSpec], repeats: u32) -> Vec<SuiteJob> {
    let mut jobs = Vec::new();
    for (scenario_idx, spec) in specs.iter().enumerate() {
        let runs = if spec.is_dynamic() { repeats } else { 1 };
        for seed_offset in 0..runs {
            jobs.push(SuiteJob {
                scenario_idx,
                seed_offset,
            });
        }
    }
    jobs
}

/// Runs one job exactly as the serial path would.
fn run_job(
    harness: &Harness,
    system: &dyn CostProvider,
    spec: &ScenarioSpec,
    job: SuiteJob,
) -> ScenarioReport {
    let h = harness.clone().with_seed(
        harness
            .sim_config()
            .seed
            .wrapping_add(u64::from(job.seed_offset)),
    );
    h.run_spec(spec, system, &mut LatencyGreedy::new()).0
}

/// Aggregates per-job reports (grouped by scenario, in run order) into
/// the final benchmark report.
fn assemble(system_label: String, per_scenario: Vec<Vec<ScenarioReport>>) -> BenchmarkReport {
    let scenarios: Vec<ScenarioReport> = per_scenario.into_iter().map(average_reports).collect();
    let overall: Vec<f64> = scenarios.iter().map(|s| s.overall()).collect();
    BenchmarkReport {
        system: system_label,
        xrbench_score: benchmark_score(&overall),
        scenarios,
    }
}

/// Runs the full benchmark suite `Ω` (the built-in catalog: all seven
/// Table 2 usage scenarios) on one system and aggregates the overall
/// XRBench Score (Definition 16).
///
/// This is the parallel path by default (see [`run_suite_parallel`]);
/// it produces bit-for-bit the same report as [`run_suite_serial`].
///
/// # Panics
///
/// Panics if `repeats == 0`.
pub fn run_suite(
    harness: &Harness,
    system: &(dyn CostProvider + Sync),
    repeats: u32,
) -> BenchmarkReport {
    catalog_parallel_impl(
        harness,
        system,
        repeats,
        &ScenarioCatalog::builtin(),
        xrbench_fleet::default_workers(),
    )
}

/// [`run_suite`] over an explicit [`ScenarioCatalog`]: user-defined
/// scenarios registered in the catalog are benchmarked exactly like
/// the built-ins, in registration order.
///
/// # Panics
///
/// Panics if `repeats == 0` or the catalog is empty.
pub fn run_suite_catalog(
    harness: &Harness,
    system: &(dyn CostProvider + Sync),
    repeats: u32,
    catalog: &ScenarioCatalog,
) -> BenchmarkReport {
    catalog_parallel_impl(
        harness,
        system,
        repeats,
        catalog,
        xrbench_fleet::default_workers(),
    )
}

/// Serial reference implementation of the suite run over the built-in
/// catalog.
///
/// # Panics
///
/// Panics if `repeats == 0`.
#[deprecated(note = "byte-identical to `run_suite`; use it (or `Runner::run`) instead")]
#[doc(hidden)]
pub fn run_suite_serial(
    harness: &Harness,
    system: &dyn CostProvider,
    repeats: u32,
) -> BenchmarkReport {
    catalog_serial_impl(harness, system, repeats, &ScenarioCatalog::builtin())
}

/// Serial reference implementation over an explicit catalog.
///
/// # Panics
///
/// Panics if `repeats == 0` or the catalog is empty.
#[deprecated(note = "byte-identical to `run_suite_catalog`; use it (or `Runner::run`) instead")]
#[doc(hidden)]
pub fn run_suite_catalog_serial(
    harness: &Harness,
    system: &dyn CostProvider,
    repeats: u32,
    catalog: &ScenarioCatalog,
) -> BenchmarkReport {
    catalog_serial_impl(harness, system, repeats, catalog)
}

/// The serial execution strategy (the reference the parallel path is
/// proven against).
pub(crate) fn catalog_serial_impl(
    harness: &Harness,
    system: &dyn CostProvider,
    repeats: u32,
    catalog: &ScenarioCatalog,
) -> BenchmarkReport {
    assert!(repeats > 0, "repeats must be at least 1");
    assert!(!catalog.is_empty(), "catalog must not be empty");
    let specs: Vec<&ScenarioSpec> = catalog.iter().collect();
    let mut per_scenario: Vec<Vec<ScenarioReport>> = (0..specs.len()).map(|_| Vec::new()).collect();
    for job in suite_jobs(&specs, repeats) {
        per_scenario[job.scenario_idx].push(run_job(harness, system, specs[job.scenario_idx], job));
    }
    assemble(system.label(), per_scenario)
}

/// Parallel suite run over the built-in catalog: fans the (scenario ×
/// repeat) job grid across `std::thread` workers and aggregates
/// deterministically.
///
/// Worker count is `max(available_parallelism, 2)` capped at the job
/// count, so the sweep always exercises a real multi-worker fan-out
/// (workers time-slice on a single-core host).
///
/// # Panics
///
/// Panics if `repeats == 0`, or propagates a panic from a worker.
#[deprecated(note = "byte-identical to `run_suite`; use it (or `Runner::run`) instead")]
#[doc(hidden)]
pub fn run_suite_parallel(
    harness: &Harness,
    system: &(dyn CostProvider + Sync),
    repeats: u32,
) -> BenchmarkReport {
    catalog_parallel_impl(
        harness,
        system,
        repeats,
        &ScenarioCatalog::builtin(),
        xrbench_fleet::default_workers(),
    )
}

/// [`run_suite_parallel`] with an explicit worker count.
///
/// # Panics
///
/// Panics if `repeats == 0` or `workers == 0`, or propagates a panic
/// from a worker.
#[deprecated(note = "the report is byte-identical for any worker count; use `run_suite` instead")]
#[doc(hidden)]
pub fn run_suite_parallel_with_workers(
    harness: &Harness,
    system: &(dyn CostProvider + Sync),
    repeats: u32,
    workers: usize,
) -> BenchmarkReport {
    catalog_parallel_impl(
        harness,
        system,
        repeats,
        &ScenarioCatalog::builtin(),
        workers,
    )
}

/// [`run_suite_catalog`] with an explicit worker count.
///
/// # Panics
///
/// Panics if `repeats == 0`, `workers == 0`, or the catalog is empty;
/// propagates a panic from a worker.
#[deprecated(
    note = "the report is byte-identical for any worker count; use `run_suite_catalog` instead"
)]
#[doc(hidden)]
pub fn run_suite_catalog_with_workers(
    harness: &Harness,
    system: &(dyn CostProvider + Sync),
    repeats: u32,
    catalog: &ScenarioCatalog,
    workers: usize,
) -> BenchmarkReport {
    catalog_parallel_impl(harness, system, repeats, catalog, workers)
}

/// The parallel execution strategy: fans the job grid across the
/// worker pool and regroups deterministically.
pub(crate) fn catalog_parallel_impl(
    harness: &Harness,
    system: &(dyn CostProvider + Sync),
    repeats: u32,
    catalog: &ScenarioCatalog,
    workers: usize,
) -> BenchmarkReport {
    assert!(repeats > 0, "repeats must be at least 1");
    assert!(!catalog.is_empty(), "catalog must not be empty");
    let specs: Vec<&ScenarioSpec> = catalog.iter().collect();
    let jobs = suite_jobs(&specs, repeats);
    let reports = crate::pool::parallel_map(&jobs, workers, |job| {
        run_job(harness, system, specs[job.scenario_idx], *job)
    });

    // Regroup into (scenario, run-order) exactly like the serial path:
    // `suite_jobs` emits jobs grouped by scenario in seed order and
    // `parallel_map` preserves job order, so a linear walk restores
    // both orders.
    let mut per_scenario: Vec<Vec<ScenarioReport>> = (0..specs.len()).map(|_| Vec::new()).collect();
    for (job, report) in jobs.iter().zip(reports) {
        per_scenario[job.scenario_idx].push(report);
    }
    assemble(system.label(), per_scenario)
}

/// The session-aware parallel path: runs a batch of multi-user
/// sessions (each a merged concurrent request stream over the shared
/// engines, under the default latency-greedy scheduler) fanned across
/// the worker pool. Reports come back in input order with per-user
/// and aggregate score breakdowns.
///
/// # Panics
///
/// Panics if `sessions` is empty, or propagates a panic from a worker
/// (e.g. a session with no users).
pub fn run_sessions(
    harness: &Harness,
    system: &(dyn CostProvider + Sync),
    sessions: &[SessionSpec],
) -> Vec<SessionReport> {
    assert!(!sessions.is_empty(), "at least one session required");
    let workers = xrbench_fleet::default_workers().min(sessions.len());
    crate::pool::parallel_map(sessions, workers, |session| {
        harness.run_session(session, system, &mut LatencyGreedy::new())
    })
}

/// Averages the numeric fields of repeated runs of the same scenario,
/// keeping the first run's structural fields.
fn average_reports(mut reports: Vec<ScenarioReport>) -> ScenarioReport {
    let n = reports.len() as f64;
    if reports.len() == 1 {
        return reports.remove(0);
    }
    let mut acc = reports.remove(0);
    for r in &reports {
        acc.breakdown.realtime_score += r.breakdown.realtime_score;
        acc.breakdown.energy_score += r.breakdown.energy_score;
        acc.breakdown.accuracy_score += r.breakdown.accuracy_score;
        acc.breakdown.qoe_score += r.breakdown.qoe_score;
        acc.breakdown.overall_score += r.breakdown.overall_score;
        acc.drop_rate += r.drop_rate;
        acc.total_energy_mj += r.total_energy_mj;
        acc.mean_utilization += r.mean_utilization;
        for (am, rm) in acc.models.iter_mut().zip(&r.models) {
            am.per_model_score += rm.per_model_score;
            am.qoe += rm.qoe;
            am.mean_latency_ms += rm.mean_latency_ms;
            am.mean_energy_mj += rm.mean_energy_mj;
            am.total_frames += rm.total_frames;
            am.executed_frames += rm.executed_frames;
            am.dropped_frames += rm.dropped_frames;
            am.untriggered_frames += rm.untriggered_frames;
            am.missed_deadlines += rm.missed_deadlines;
        }
    }
    acc.breakdown.realtime_score /= n;
    acc.breakdown.energy_score /= n;
    acc.breakdown.accuracy_score /= n;
    acc.breakdown.qoe_score /= n;
    acc.breakdown.overall_score /= n;
    acc.drop_rate /= n;
    acc.total_energy_mj /= n;
    acc.mean_utilization /= n;
    for am in &mut acc.models {
        am.per_model_score /= n;
        am.qoe /= n;
        am.mean_latency_ms /= n;
        am.mean_energy_mj /= n;
        // Frame counters are averaged too (rounded), so an averaged
        // report reads like a single representative run.
        am.total_frames = (am.total_frames as f64 / n).round() as u64;
        am.executed_frames = (am.executed_frames as f64 / n).round() as u64;
        am.dropped_frames = (am.dropped_frames as f64 / n).round() as u64;
        am.untriggered_frames = (am.untriggered_frames as f64 / n).round() as u64;
        am.missed_deadlines = (am.missed_deadlines as f64 / n).round() as u64;
    }
    acc
}

#[cfg(test)]
#[allow(deprecated)]
mod tests {
    use super::*;
    use xrbench_sim::UniformProvider;
    use xrbench_workload::{ScenarioBuilder, UsageScenario};

    #[test]
    fn suite_covers_all_scenarios() {
        let p = UniformProvider::new(2, 0.001, 0.001);
        let b = run_suite(&Harness::new(), &p, 3);
        assert_eq!(b.scenarios.len(), 7);
        assert!(b.xrbench_score > 0.9);
    }

    #[test]
    fn xrbench_score_is_mean_of_scenarios() {
        let p = UniformProvider::new(2, 0.001, 0.001);
        let b = run_suite(&Harness::new(), &p, 2);
        let mean: f64 =
            b.scenarios.iter().map(|s| s.overall()).sum::<f64>() / b.scenarios.len() as f64;
        assert!((b.xrbench_score - mean).abs() < 1e-12);
    }

    #[test]
    fn parallel_matches_serial_bit_for_bit() {
        let p = UniformProvider::new(2, 0.002, 0.001);
        let h = Harness::new();
        let serial = run_suite_serial(&h, &p, 4);
        for workers in [1, 2, 5] {
            let parallel = run_suite_parallel_with_workers(&h, &p, 4, workers);
            assert_eq!(serial, parallel, "workers = {workers}");
        }
    }

    #[test]
    fn builtin_catalog_matches_default_suite() {
        let p = UniformProvider::new(2, 0.002, 0.001);
        let h = Harness::new();
        let default = run_suite(&h, &p, 3);
        let catalog = run_suite_catalog(&h, &p, 3, &ScenarioCatalog::builtin());
        assert_eq!(default, catalog);
    }

    #[test]
    fn custom_scenarios_run_through_the_suite() {
        use xrbench_models::ModelId::*;
        let mut catalog = ScenarioCatalog::builtin();
        catalog
            .register(
                ScenarioBuilder::new("Workbench Assistant")
                    .describe("hands + depth")
                    .model(HandTracking, 30.0)
                    .model(DepthEstimation, 30.0)
                    .build()
                    .unwrap(),
            )
            .unwrap();
        let p = UniformProvider::new(2, 0.001, 0.001);
        let b = run_suite_catalog(&Harness::new(), &p, 2, &catalog);
        assert_eq!(b.scenarios.len(), 8);
        let custom = b.scenario("Workbench Assistant").expect("registered");
        assert_eq!(custom.models.len(), 2);
        assert!(custom.overall() > 0.9);
        // The built-in prefix is unchanged by the extra registration.
        let builtin_only = run_suite(&Harness::new(), &p, 2);
        assert_eq!(&b.scenarios[..7], &builtin_only.scenarios[..]);
    }

    #[test]
    fn catalog_serial_matches_parallel() {
        use xrbench_models::ModelId::*;
        let mut catalog = ScenarioCatalog::new();
        catalog.register(UsageScenario::VrGaming.spec()).unwrap();
        catalog
            .register(
                ScenarioBuilder::new("Tiny")
                    .model(KeywordDetection, 3.0)
                    .build()
                    .unwrap(),
            )
            .unwrap();
        let p = UniformProvider::new(2, 0.002, 0.001);
        let h = Harness::new();
        let serial = run_suite_catalog_serial(&h, &p, 3, &catalog);
        let parallel = run_suite_catalog(&h, &p, 3, &catalog);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn sessions_run_in_parallel_batches() {
        let p = UniformProvider::new(4, 0.001, 0.001);
        let h = Harness::new();
        let sessions: Vec<_> = (1..=3u32)
            .map(|n| {
                SessionSpec::uniform(
                    format!("party-{n}"),
                    UsageScenario::ArGaming.spec(),
                    n,
                    0.01,
                )
            })
            .collect();
        let reports = run_sessions(&h, &p, &sessions);
        assert_eq!(reports.len(), 3);
        for (i, r) in reports.iter().enumerate() {
            assert_eq!(r.session, format!("party-{}", i + 1));
            assert_eq!(r.num_users, i + 1);
            assert_eq!(r.users.len(), i + 1);
        }
        // Batch results are identical to individual runs.
        let solo = h.run_session(&sessions[1], &p, &mut LatencyGreedy::new());
        assert_eq!(reports[1], solo);
    }

    #[test]
    #[should_panic(expected = "repeats")]
    fn zero_repeats_rejected() {
        let p = UniformProvider::new(1, 0.001, 0.001);
        let _ = run_suite(&Harness::new(), &p, 0);
    }

    #[test]
    #[should_panic(expected = "repeats")]
    fn zero_repeats_rejected_serial() {
        let p = UniformProvider::new(1, 0.001, 0.001);
        let _ = run_suite_serial(&Harness::new(), &p, 0);
    }

    #[test]
    #[should_panic(expected = "workers")]
    fn zero_workers_rejected() {
        let p = UniformProvider::new(1, 0.001, 0.001);
        let _ = run_suite_parallel_with_workers(&Harness::new(), &p, 1, 0);
    }

    #[test]
    #[should_panic(expected = "catalog")]
    fn empty_catalog_rejected() {
        let p = UniformProvider::new(1, 0.001, 0.001);
        let _ = run_suite_catalog(&Harness::new(), &p, 1, &ScenarioCatalog::new());
    }

    #[test]
    #[should_panic(expected = "session")]
    fn empty_session_batch_rejected() {
        let p = UniformProvider::new(1, 0.001, 0.001);
        let _ = run_sessions(&Harness::new(), &p, &[]);
    }
}
