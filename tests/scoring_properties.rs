//! Property-based tests over the scoring stack and cross-crate
//! invariants, using randomly generated workload outcomes, the
//! bitwise check of the streaming scorer that every report is built
//! from (`xrbench::fleet::ScenarioFold`) against the Definition 15
//! reference (`scenario_score` over materialized `ModelOutcome`s), and
//! the check that a session report scored as its records stream
//! equals one scored from the collected records.

use proptest::prelude::*;

use xrbench::fleet::{InferenceScorer, ScenarioFold};
use xrbench::prelude::*;
use xrbench::score::{
    accuracy_score, benchmark_score, energy_score, qoe_score, rt_score, scenario_score,
    session_breakdown, AccuracyParams, EnergyParams, InferenceScore, MetricKind, ModelOutcome,
    RtParams, ScenarioBreakdown,
};
use xrbench::sim::{
    ExecRecord, FailoverAware, FaultProcess, PendingView, RecoveryPolicy, SimResult, ThrottleSpec,
    UniformProvider,
};

proptest! {
    #[test]
    fn rt_score_always_in_unit_interval(
        latency in 0.0_f64..100.0,
        slack in -1.0_f64..1.0,
        k in 0.0_f64..100.0,
    ) {
        let s = rt_score(latency, slack, RtParams { k_per_ms: k });
        prop_assert!((0.0..=1.0).contains(&s), "{s}");
        prop_assert!(s.is_finite());
    }

    #[test]
    fn rt_score_monotone_in_latency(
        l1 in 0.0_f64..10.0,
        dl in 0.0_f64..10.0,
        slack in 0.0_f64..0.1,
    ) {
        let p = RtParams::default();
        let a = rt_score(l1, slack, p);
        let b = rt_score(l1 + dl, slack, p);
        prop_assert!(b <= a + 1e-12);
    }

    #[test]
    fn rt_score_monotone_in_slack(
        latency in 0.0_f64..1.0,
        s1 in 0.0_f64..1.0,
        ds in 0.0_f64..1.0,
    ) {
        let p = RtParams::default();
        prop_assert!(rt_score(latency, s1 + ds, p) >= rt_score(latency, s1, p) - 1e-12);
    }

    #[test]
    fn energy_score_in_unit_interval_and_antitone(
        e1 in 0.0_f64..10.0,
        de in 0.0_f64..10.0,
    ) {
        let p = EnergyParams::default();
        let a = energy_score(e1, p);
        let b = energy_score(e1 + de, p);
        prop_assert!((0.0..=1.0).contains(&a));
        prop_assert!(b <= a + 1e-12);
    }

    #[test]
    fn accuracy_score_in_unit_interval(
        measured in 0.0_f64..1000.0,
        target in 0.001_f64..1000.0,
        hib in any::<bool>(),
    ) {
        let kind = if hib { MetricKind::HigherIsBetter } else { MetricKind::LowerIsBetter };
        let s = accuracy_score(measured, target, kind, AccuracyParams::default());
        prop_assert!((0.0..=1.0).contains(&s), "{s}");
    }

    #[test]
    fn qoe_is_exact_ratio(total in 1u64..10_000, frac in 0.0_f64..=1.0) {
        let executed = ((total as f64) * frac).floor() as u64;
        let q = qoe_score(executed, total);
        prop_assert!((q - executed as f64 / total as f64).abs() < 1e-12);
    }

    #[test]
    fn scenario_score_bounded_by_min_component_product_bound(
        scores in prop::collection::vec(
            (0.0_f64..=1.0, 0.0_f64..=1.0, 0.0_f64..=1.0),
            1..40,
        ),
        total_extra in 0u64..20,
    ) {
        let inf: Vec<InferenceScore> = scores
            .iter()
            .map(|&(r, e, a)| InferenceScore::new(r, e, a))
            .collect();
        let outcome = ModelOutcome {
            total_frames: inf.len() as u64 + total_extra,
            inference_scores: inf,
        };
        let b = scenario_score(&[outcome]);
        prop_assert!((0.0..=1.0).contains(&b.overall));
        // Overall = per-model * qoe <= qoe, and <= each mean component
        // since the product of [0,1] factors is <= each factor.
        prop_assert!(b.overall <= b.qoe + 1e-12);
        prop_assert!(b.overall <= b.realtime + 1e-12);
        prop_assert!(b.overall <= b.energy + 1e-12);
        prop_assert!(b.overall <= b.accuracy + 1e-12);
    }

    #[test]
    fn benchmark_score_between_min_and_max(
        scores in prop::collection::vec(0.0_f64..=1.0, 1..10)
    ) {
        let b = benchmark_score(&scores);
        let min = scores.iter().cloned().fold(f64::MAX, f64::min);
        let max = scores.iter().cloned().fold(f64::MIN, f64::max);
        prop_assert!(b >= min - 1e-12 && b <= max + 1e-12);
    }
}

/// Splitmix64 step — randomized structure derived deterministically
/// from one proptest-drawn seed.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn pick(state: &mut u64, n: usize) -> usize {
    (mix(state) % n as u64) as usize
}

/// The five shipped schedulers.
const NUM_SCHEDULERS: usize = 5;

/// Shipped scheduler `idx`, freshly built.
fn scheduler_for(idx: usize) -> Box<dyn Scheduler> {
    match idx % NUM_SCHEDULERS {
        0 => Box::new(LatencyGreedy::new()),
        1 => Box::new(RoundRobin::new()),
        2 => Box::new(SlackAwareEdf::new()),
        3 => Box::new(LeastLoaded::new()),
        _ => Box::new(FailoverAware::new()),
    }
}

fn breakdown_bits(b: &ScenarioBreakdown) -> [u64; 5] {
    [b.realtime, b.energy, b.accuracy, b.qoe, b.overall].map(f64::to_bits)
}

/// Folds one user's records in start order and checks, bit for bit,
/// the breakdown and every model's means against `scenario_score`
/// over `ModelOutcome`s scored from the same records, the fold's
/// energy and utilization against sums over the records, and the
/// harness's report of the same result against both.
fn check_fold_against_reference(
    spec: &ScenarioSpec,
    result: &SimResult,
    provider: &dyn CostProvider,
    context: &str,
) {
    let scorer = InferenceScorer::new(
        RtParams::default(),
        EnergyParams::default(),
        AccuracyParams::default(),
    );
    let mut fold = ScenarioFold::new(spec, result.num_engines);
    for rec in &result.records {
        let combined = fold.record(rec, &scorer);
        assert_eq!(
            combined.to_bits(),
            scorer.score(rec).combined().to_bits(),
            "{context}"
        );
    }
    // Energy and utilization as sums over the records, in record
    // order per engine.
    let energy_j: f64 = result.records.iter().map(|r| r.energy_j).sum();
    let utilization = (0..result.num_engines)
        .map(|e| {
            let busy: f64 = result
                .records
                .iter()
                .filter(|r| r.engine == e)
                .map(|r| r.t_end - r.t_start)
                .sum();
            busy / result.duration_s
        })
        .sum::<f64>()
        / result.num_engines as f64;
    assert_eq!(
        [
            fold.total_energy_j(),
            fold.mean_utilization(result.duration_s)
        ]
        .map(f64::to_bits),
        [energy_j, utilization].map(f64::to_bits),
        "{context}"
    );
    let outcomes: Vec<ModelOutcome> = spec
        .models
        .iter()
        .map(|sm| ModelOutcome {
            inference_scores: result
                .records_for(sm.model)
                .map(|r| scorer.score(r))
                .collect(),
            total_frames: result.stats.get(&sm.model).map_or(0, |s| s.total_frames),
        })
        .collect();
    let reference = scenario_score(&outcomes);
    let breakdown = fold.breakdown(&result.stats);
    assert_eq!(
        breakdown_bits(&breakdown),
        breakdown_bits(&reference),
        "{context}: {breakdown:?} vs {reference:?}"
    );

    let report = Harness::new().score_result(spec, provider, "reference", result);
    assert_eq!(
        breakdown_bits(&report.breakdown.into()),
        breakdown_bits(&reference),
        "{context}: harness report"
    );
    let means: Vec<_> = fold.model_means(&result.stats).collect();
    assert_eq!(means.len(), outcomes.len(), "{context}");
    for (((sm, m), o), r) in spec
        .models
        .iter()
        .zip(&means)
        .zip(&outcomes)
        .zip(&report.models)
    {
        let records: Vec<&ExecRecord> = result.records_for(sm.model).collect();
        let n = records.len().max(1) as f64;
        let latency_s = records.iter().fold(0.0, |a, r| a + r.latency_s()) / n;
        let energy_j = records.iter().fold(0.0, |a, r| a + r.energy_j) / n;
        assert_eq!(m.executed, o.inference_scores.len() as u64, "{context}");
        assert_eq!(
            [
                m.per_model,
                m.qoe,
                m.realtime,
                m.energy,
                m.accuracy,
                m.latency_s,
                m.energy_j
            ]
            .map(f64::to_bits),
            [
                o.per_model(),
                o.qoe(),
                o.component_mean(|s| s.realtime),
                o.component_mean(|s| s.energy),
                o.component_mean(|s| s.accuracy),
                latency_s,
                energy_j
            ]
            .map(f64::to_bits),
            "{context}: model {}",
            sm.model
        );
        assert_eq!(
            [
                r.per_model_score,
                r.qoe,
                r.mean_latency_ms,
                r.mean_energy_mj
            ]
            .map(f64::to_bits),
            [o.per_model(), o.qoe(), latency_s * 1e3, energy_j * 1e3].map(f64::to_bits),
            "{context}: harness model {}",
            sm.model
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn scenario_fold_reproduces_the_reference_bit_for_bit(
        structure in any::<u64>(),
        seed in any::<u64>(),
    ) {
        // Mixed built-in scenarios on a contended device: overload
        // drops frames (some models execute none), an over-budget
        // energy cost zeroes the energy score, and faulted runs revoke,
        // requeue or migrate in-flight work.
        let mut st = structure;
        let specs: Vec<ScenarioSpec> = (0..1 + pick(&mut st, 3))
            .map(|_| UsageScenario::ALL[pick(&mut st, UsageScenario::ALL.len())].spec())
            .collect();
        let users = 1 + pick(&mut st, 4) as u32;
        let stagger_s = [0.0, 0.003, 0.05][pick(&mut st, 3)];
        let session = SessionSpec::mixed("fold-reference", &specs, users, stagger_s);
        let provider = UniformProvider::new(
            1 + pick(&mut st, 3),
            [0.0008, 0.004, 0.02][pick(&mut st, 3)],
            [0.0005, 0.02, 1.6][pick(&mut st, 3)],
        );
        let faults = FaultProcess {
            failure_rate_per_s: 1.0 + pick(&mut st, 4) as f64,
            mean_downtime_s: 0.01 + 0.02 * pick(&mut st, 4) as f64,
            preemption_rate_per_s: 2.0 * pick(&mut st, 3) as f64,
            mean_preemption_s: 0.01,
            throttle: if pick(&mut st, 2) == 0 {
                None
            } else {
                Some(ThrottleSpec { period_s: 0.3, duty: 0.4, factor: 0.5 })
            },
        };
        let sim = Simulator::new(SimConfig { duration_s: 0.5, seed });
        for idx in 0..NUM_SCHEDULERS {
            let name = scheduler_for(idx).name();
            let mut runs = vec![(
                "fault-free",
                sim.run_session(&session, &provider, scheduler_for(idx).as_mut()),
            )];
            for policy in RecoveryPolicy::ALL {
                let mut scheduler = scheduler_for(idx);
                runs.push((
                    policy.as_str(),
                    sim.run_session_faulted(&session, &provider, scheduler.as_mut(), &faults, policy),
                ));
            }
            for (run, result) in &runs {
                for u in &session.users {
                    let r = result.user(u.user).expect("simulated every user");
                    let context = format!("{name}, {run}, user {}", u.user);
                    check_fold_against_reference(&u.spec, r, &provider, &context);
                }
            }
        }
    }
}

/// A policy that dispatches the first listed request of any other user
/// and never one of its own user's: that user executes nothing, and
/// its frames starve.
struct Shun(u32);

impl Scheduler for Shun {
    fn select(
        &mut self,
        ready: &[PendingView],
        free_engines: &[usize],
        _: &dyn CostProvider,
        _: f64,
    ) -> Option<(usize, usize)> {
        let i = ready.iter().position(|r| r.user != self.0)?;
        Some((i, free_engines[0]))
    }

    fn name(&self) -> &'static str {
        "shun"
    }
}

/// A session's busy time recomputed from its collected records the
/// way `SessionFold` sums it: per engine in record order, over each
/// user's engines, then over users in user-id order.
fn collected_busy_s(result: &SessionSimResult) -> f64 {
    result
        .per_user
        .iter()
        .map(|(_, r)| {
            (0..r.num_engines)
                .map(|e| {
                    r.records
                        .iter()
                        .filter(|rec| rec.engine == e)
                        .map(|rec| rec.t_end - rec.t_start)
                        .sum::<f64>()
                })
                .sum::<f64>()
        })
        .sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn streamed_session_report_matches_the_collected_records(
        structure in any::<u64>(),
        seed in any::<u64>(),
    ) {
        // Mixed built-in scenarios on 1–4 engines, under the five
        // shipped schedulers and one that shuns a drawn user, who then
        // executes nothing (shipped schedulers always drain the
        // queues). The 2 s latency outlasts the 0.5 s run.
        let mut st = structure;
        let specs: Vec<ScenarioSpec> = (0..1 + pick(&mut st, 3))
            .map(|_| UsageScenario::ALL[pick(&mut st, UsageScenario::ALL.len())].spec())
            .collect();
        let users = 1 + pick(&mut st, 8) as u32;
        let stagger_s = [0.0, 0.003, 0.05][pick(&mut st, 3)];
        let session = SessionSpec::mixed("streamed", &specs, users, stagger_s);
        let provider = UniformProvider::new(
            1 + pick(&mut st, 4),
            [0.0008, 0.004, 0.02, 2.0][pick(&mut st, 4)],
            [0.0005, 0.02, 1.6][pick(&mut st, 3)],
        );
        let shunned = session.users[pick(&mut st, session.users.len())].user;
        let scheduler = |idx| match idx {
            NUM_SCHEDULERS => Box::new(Shun(shunned)),
            _ => scheduler_for(idx),
        };
        let harness = Harness::new().with_seed(seed).with_duration(0.5);
        let sim = Simulator::new(harness.sim_config());
        for idx in 0..=NUM_SCHEDULERS {
            let name = scheduler(idx).name();
            let streamed = harness.run_session(&session, &provider, scheduler(idx).as_mut());
            let collected = sim.run_session(&session, &provider, scheduler(idx).as_mut());
            let mut breakdowns = Vec::new();
            for (u, user) in session.users.iter().zip(&streamed.users) {
                let r = collected.user(u.user).expect("simulated every user");
                let expected = harness.score_result(&u.spec, &provider, name, r);
                prop_assert_eq!(
                    user.report.to_json(),
                    expected.to_json(),
                    "{}, user {}",
                    name,
                    u.user
                );
                breakdowns.push(expected.breakdown.into());
            }
            let aggregate = BreakdownReport::from(session_breakdown(&breakdowns));
            prop_assert_eq!(&streamed.aggregate, &aggregate, "{}", name);
            prop_assert_eq!(
                streamed.session_score.to_bits(),
                aggregate.overall_score.to_bits(),
                "{}",
                name
            );
            let energy_j: f64 = collected
                .per_user
                .iter()
                .map(|(_, r)| r.records.iter().map(|rec| rec.energy_j).sum::<f64>())
                .sum();
            let utilization = collected_busy_s(&collected)
                / (collected.span_s * collected.num_engines as f64);
            prop_assert_eq!(
                [streamed.total_energy_mj, streamed.drop_rate, streamed.mean_utilization]
                    .map(f64::to_bits),
                [energy_j * 1e3, collected.drop_rate(), utilization].map(f64::to_bits),
                "{}",
                name
            );
        }
    }
}
