//! Property-based tests over the fleet layer: exact-merge algebra of
//! the accumulator, worker-count invariance of whole fleet runs, and
//! the 1-session fleet ↔ `Harness::run_session` parity (with a faulted
//! twin against `Simulator::run_session_faulted`): frame accounting
//! matches exactly, and both score through the same `ScenarioFold`, so
//! scores differ only by the fleet accumulator's fixed-point
//! quantization.

use std::collections::BTreeMap;

use proptest::prelude::*;

use xrbench::fleet::{
    merge_fleet_shards, plan_shards, replica_seed, run_fleet_shard, run_fleet_with, DropReport,
    FleetAccumulator, FleetSpec, ShardState, StatAgg, SCORE_SCALE, TIME_SCALE,
};
use xrbench::models::ModelId;
use xrbench::prelude::*;
use xrbench::score::ScenarioBreakdown;
use xrbench::sim::{
    DropCounts, ExecRecord, FaultProcess, ModelStats, RecoveryPolicy, ThrottleSpec, UniformProvider,
};

/// A fleet run configuration: the base seed, the worker count and the
/// recovery policy, everything else at its default.
fn config(seed: u64, workers: usize, recovery: RecoveryPolicy) -> FleetRunConfig {
    FleetRunConfig {
        sim: SimConfig {
            seed,
            ..SimConfig::default()
        },
        workers,
        recovery,
        ..FleetRunConfig::default()
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

fn unit(state: &mut u64) -> f64 {
    (mix(state) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

fn pick(state: &mut u64, n: usize) -> usize {
    (mix(state) % n as u64) as usize
}

/// A synthetic accumulator: random records, stats, user breakdowns,
/// and session scores folded in — everything `merge` has to preserve.
fn synth_acc(seed: u64) -> FleetAccumulator {
    let mut st = seed;
    let mut acc = FleetAccumulator::new();
    let records = 1 + pick(&mut st, 40);
    for _ in 0..records {
        let model = ModelId::ALL[pick(&mut st, ModelId::ALL.len())];
        let t_req = unit(&mut st);
        let latency = 1e-5 + unit(&mut st) * 0.05;
        let rec = ExecRecord {
            model,
            frame_id: mix(&mut st) % 1000,
            sensor_frame: mix(&mut st) % 1000,
            engine: pick(&mut st, 4),
            t_req,
            t_deadline: t_req + unit(&mut st) * 0.03,
            t_start: t_req,
            t_end: t_req + latency,
            energy_j: unit(&mut st) * 0.002,
        };
        acc.latency.record(rec.latency_s());
        acc.overrun.record(rec.overrun_s());
        acc.score.record(unit(&mut st));
        acc.model_mut(rec.model).record_exec(&rec);
        // Fields evaluate in source order, so the draws keep their order.
        acc.model_mut(rec.model).frames.merge(&ModelStats {
            total_frames: 1 + mix(&mut st) % 3,
            executed_frames: 1,
            drops: DropCounts {
                superseded: mix(&mut st) % 2,
                starved: mix(&mut st) % 2,
                ..Default::default()
            },
            ..Default::default()
        });
    }
    let sessions = 1 + pick(&mut st, 3) as u64;
    for _ in 0..sessions {
        acc.sessions += 1;
        let users = 1 + pick(&mut st, 4);
        acc.users += users as u64;
        acc.session_score.record(unit(&mut st), SCORE_SCALE);
        for _ in 0..users {
            let name = ["VR Gaming", "AR Gaming", "Social"][pick(&mut st, 3)];
            let b = ScenarioBreakdown {
                realtime: unit(&mut st),
                energy: unit(&mut st),
                accuracy: unit(&mut st),
                qoe: unit(&mut st),
                overall: unit(&mut st),
            };
            acc.scenario_mut(name).record_user(&b);
        }
    }
    acc
}

/// A small random fleet: 1–3 groups of 1–3 replicas of 1–4-user
/// sessions over randomly chosen built-in scenarios.
fn random_fleet(seed: u64) -> FleetSpec {
    let mut st = seed;
    let mut fleet = FleetSpec::new(format!("prop-{seed:x}"));
    let groups = 1 + pick(&mut st, 3);
    for g in 0..groups {
        let scenario = UsageScenario::ALL[pick(&mut st, UsageScenario::ALL.len())];
        let users = 1 + pick(&mut st, 4) as u32;
        let stagger = unit(&mut st) * 0.01;
        let session = SessionSpec::uniform(
            format!("g{g}-{}", scenario.spec().name),
            scenario.spec(),
            users,
            stagger,
        );
        fleet = fleet.group(format!("group-{g}"), session, 1 + pick(&mut st, 3) as u32);
    }
    fleet
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn accumulator_merge_is_associative_and_commutative(
        sa in any::<u64>(),
        sb in any::<u64>(),
        sc in any::<u64>(),
    ) {
        let (a, b, c) = (synth_acc(sa), synth_acc(sb), synth_acc(sc));

        // Commutativity: a ⊕ b == b ⊕ a.
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(&ab, &ba);

        // Associativity: (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c).
        let mut left = ab;
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        prop_assert_eq!(&left, &right);

        // Identity: merging an empty accumulator changes nothing.
        let mut with_empty = a.clone();
        with_empty.merge(&FleetAccumulator::new());
        prop_assert_eq!(&with_empty, &a);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn stat_agg_quarantines_anomalies_through_any_merge_tree(
        seed in any::<u64>(),
        split in 0usize..=60,
    ) {
        // Streams salted with NaN / ±inf / −0.0: anomalies must be
        // counted (never summed), and any two-way partition of the
        // stream must merge to bit-identical state in either order.
        let mut st = seed;
        let vals: Vec<f64> = (0..60)
            .map(|_| match pick(&mut st, 8) {
                0 => f64::NAN,
                1 => f64::INFINITY,
                2 => f64::NEG_INFINITY,
                3 => -0.0,
                _ => unit(&mut st) * 0.05,
            })
            .collect();
        let mut whole = StatAgg::default();
        for &v in &vals {
            whole.record(v, TIME_SCALE);
        }
        let n_anomalies = vals.iter().filter(|v| !v.is_finite()).count() as u64;
        prop_assert_eq!(whole.anomalies, n_anomalies);
        prop_assert_eq!(whole.count + whole.anomalies, vals.len() as u64);
        prop_assert!(whole.min().is_finite());
        prop_assert!(whole.max().is_finite());
        prop_assert!(whole.mean(TIME_SCALE).is_finite());

        let split = split.min(vals.len());
        let mut left = StatAgg::default();
        for &v in &vals[..split] {
            left.record(v, TIME_SCALE);
        }
        let mut right = StatAgg::default();
        for &v in &vals[split..] {
            right.record(v, TIME_SCALE);
        }
        let mut lr = left;
        lr.merge(&right);
        let mut rl = right;
        rl.merge(&left);
        prop_assert_eq!(lr, whole);
        prop_assert_eq!(rl, whole);
    }
}

/// Like [`random_fleet`], but even-indexed groups carry a random
/// (always-valid) fault process, half of them with a thermal throttle.
fn random_faulted_fleet(seed: u64) -> FleetSpec {
    let mut st = seed;
    let mut fleet = FleetSpec::new(format!("churn-{seed:x}"));
    let groups = 1 + pick(&mut st, 2);
    for g in 0..groups {
        let scenario = UsageScenario::ALL[pick(&mut st, UsageScenario::ALL.len())];
        let users = 1 + pick(&mut st, 3) as u32;
        let session = SessionSpec::uniform(
            format!("g{g}-{}", scenario.spec().name),
            scenario.spec(),
            users,
            0.002,
        );
        let replicas = 1 + pick(&mut st, 2) as u32;
        let faults = FaultProcess {
            failure_rate_per_s: unit(&mut st) * 3.0,
            mean_downtime_s: 0.01 + unit(&mut st) * 0.1,
            preemption_rate_per_s: unit(&mut st) * 5.0,
            mean_preemption_s: 0.005 + unit(&mut st) * 0.05,
            throttle: if pick(&mut st, 2) == 0 {
                None
            } else {
                Some(ThrottleSpec {
                    period_s: 0.2 + unit(&mut st),
                    duty: 0.3,
                    factor: 0.5,
                })
            },
        };
        fleet = if g % 2 == 0 {
            fleet.group_faulted(format!("group-{g}"), session, replicas, faults)
        } else {
            fleet.group(format!("group-{g}"), session, replicas)
        };
    }
    fleet
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn faulted_fleets_stay_worker_count_invariant(seed in any::<u64>()) {
        // Fault timelines derive from replica seeds, so the report
        // must stay byte-identical for any worker count under every
        // recovery policy.
        let fleet = random_faulted_fleet(seed);
        let p = UniformProvider::new(2, 0.002, 0.001);
        let base = seed ^ 0xFA017;
        for policy in RecoveryPolicy::ALL {
            let one = run_fleet(&fleet, &p, &config(base, 1, policy)).to_json();
            for workers in [2usize, 8] {
                let other = run_fleet(&fleet, &p, &config(base, workers, policy)).to_json();
                prop_assert_eq!(&one, &other, "workers = {}, policy = {}", workers, policy);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn worker_count_never_changes_the_report(seed in any::<u64>()) {
        // 1-, 2-, and 8-worker runs of the same fleet must serialize
        // to byte-identical JSON.
        let fleet = random_fleet(seed);
        let p = UniformProvider::new(2, 0.002, 0.001);
        let base = seed ^ 0xF1EE7;
        let one = run_fleet(&fleet, &p, &config(base, 1, RecoveryPolicy::default())).to_json();
        for workers in [2usize, 8] {
            let other =
                run_fleet(&fleet, &p, &config(base, workers, RecoveryPolicy::default())).to_json();
            prop_assert_eq!(&one, &other, "workers = {}", workers);
        }
    }
}

/// The five shipped schedulers.
const SCHEDULERS: [SchedulerSpec; 5] = [
    SchedulerSpec::LatencyGreedy,
    SchedulerSpec::RoundRobin,
    SchedulerSpec::SlackAwareEdf,
    SchedulerSpec::LeastLoaded,
    SchedulerSpec::FailoverAware,
];

/// A one-device session of 1–4 users drawn round-robin from 1–3
/// built-in scenarios, under a scheduler drawn from the five shipped.
fn random_session(st: &mut u64, users: u32) -> (SessionSpec, SchedulerSpec) {
    let specs: Vec<ScenarioSpec> = (0..1 + pick(st, 3))
        .map(|_| UsageScenario::ALL[pick(st, UsageScenario::ALL.len())].spec())
        .collect();
    let session = SessionSpec::mixed("solo", &specs, users, 0.003);
    (session, SCHEDULERS[pick(st, SCHEDULERS.len())])
}

fn drop_counts(d: &DropReport) -> DropCounts {
    DropCounts {
        superseded: d.superseded,
        upstream_dropped: d.upstream_dropped,
        starved: d.starved,
        preempted: d.preempted,
        device_lost: d.device_lost,
    }
}

/// Checks a one-session fleet report's frame accounting against the
/// same session run directly: `direct` holds that run's counters per
/// model, summed over users, and `drop_rate` the run's own drop rate.
/// Every count must match exactly, and the drop rate bit for bit.
fn check_frames(fleet: &FleetReport, direct: &BTreeMap<String, ModelStats>, drop_rate: f64) {
    let listed: BTreeMap<String, ModelStats> = fleet
        .models
        .iter()
        .map(|m| {
            let st = ModelStats {
                total_frames: m.total_frames,
                executed_frames: m.executed_frames,
                untriggered_frames: m.untriggered_frames,
                missed_deadlines: m.missed_deadlines,
                drops: drop_counts(&m.drops),
            };
            (m.model.clone(), st)
        })
        .collect();
    // A fleet lists only the models something streamed to.
    let touched: BTreeMap<String, ModelStats> = direct
        .iter()
        .filter(|(_, s)| s.total_frames + s.untriggered_frames + s.dropped_frames() > 0)
        .map(|(m, s)| (m.clone(), s.clone()))
        .collect();
    assert_eq!(&listed, &touched);
    let all: ModelStats = direct.values().sum();
    assert_eq!(fleet.total_requests, all.total_frames);
    assert_eq!(fleet.executed_inferences, all.executed_frames);
    assert_eq!(fleet.dropped_frames, all.dropped_frames());
    assert_eq!(fleet.untriggered_frames, all.untriggered_frames);
    assert_eq!(fleet.missed_deadlines, all.missed_deadlines);
    assert_eq!(drop_counts(&fleet.drops), all.drops);
    assert_eq!(
        fleet.events,
        all.total_frames + all.untriggered_frames + all.executed_frames
    );
    assert_eq!(fleet.drop_rate.to_bits(), drop_rate.to_bits());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn one_session_fleet_matches_run_session(
        seed in any::<u64>(),
        users in 1u32..5,
        engines in 1usize..4,
        latency in 0.0005f64..0.02,
    ) {
        let mut st = seed;
        let (session, scheduler) = random_session(&mut st, users);
        let p = UniformProvider::new(engines, latency, 0.001);

        // The fleet derives session seeds from its base seed; run the
        // reference session under exactly the derived seed.
        let fleet_report = run_fleet_with(
            &FleetSpec::uniform("one", session.clone(), 1),
            &p,
            &config(seed, 2, RecoveryPolicy::default()),
            &|| scheduler.build(),
        );
        let session_report = Harness::new()
            .with_seed(replica_seed(seed, 0, 0))
            .run_session(&session, &p, scheduler.build().as_mut());
        prop_assert_eq!(fleet_report.num_sessions, 1);
        prop_assert_eq!(fleet_report.num_users as usize, session_report.num_users);

        // Integer accounting matches exactly, per model and in total.
        let mut direct: BTreeMap<String, ModelStats> = BTreeMap::new();
        for u in &session_report.users {
            for (m, d) in u.report.models.iter().zip(&u.model_drops) {
                prop_assert_eq!(&m.model, &d.model);
                let st = ModelStats {
                    total_frames: m.total_frames,
                    executed_frames: m.executed_frames,
                    untriggered_frames: m.untriggered_frames,
                    missed_deadlines: m.missed_deadlines,
                    drops: drop_counts(&d.drops),
                };
                prop_assert_eq!(m.dropped_frames, st.dropped_frames());
                direct.entry(m.model.clone()).or_default().merge(&st);
            }
        }
        check_frames(&fleet_report, &direct, session_report.drop_rate);
        prop_assert_eq!(drop_counts(&session_report.drops), direct.values().sum::<ModelStats>().drops);

        // Score aggregates match up to the accumulator's fixed-point
        // quantization (2^-62 per value — far below 1e-9).
        prop_assert!(
            (fleet_report.fleet_score - session_report.session_score).abs() < 1e-9,
            "fleet {} vs session {}",
            fleet_report.fleet_score,
            session_report.session_score
        );
        for fs in &fleet_report.scenarios {
            let runs: Vec<&BreakdownReport> = session_report
                .users
                .iter()
                .filter(|u| u.report.scenario == fs.scenario)
                .map(|u| &u.report.breakdown)
                .collect();
            prop_assert_eq!(fs.users, runs.len() as u64);
            let agg = BreakdownReport::from(xrbench::score::session_breakdown(
                &runs.iter().map(|&&b| ScenarioBreakdown::from(b)).collect::<Vec<_>>(),
            ));
            prop_assert!((fs.overall_score - agg.overall_score).abs() < 1e-9);
            prop_assert!((fs.realtime_score - agg.realtime_score).abs() < 1e-9);
            prop_assert!((fs.energy_score - agg.energy_score).abs() < 1e-9);
            prop_assert!((fs.accuracy_score - agg.accuracy_score).abs() < 1e-9);
            prop_assert!((fs.qoe_score - agg.qoe_score).abs() < 1e-9);

            // The fairness extremes bracket every user's overall score.
            for b in &runs {
                let o = b.overall_score;
                prop_assert!(o >= fs.min_overall - 1e-9 && o <= fs.max_overall + 1e-9);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn one_faulted_session_fleet_matches_run_session_faulted(
        seed in any::<u64>(),
        users in 1u32..5,
        engines in 1usize..4,
        latency in 0.0005f64..0.02,
    ) {
        let mut st = seed;
        let (session, scheduler) = random_session(&mut st, users);
        let faults = FaultProcess {
            failure_rate_per_s: unit(&mut st) * 4.0,
            mean_downtime_s: 0.01 + unit(&mut st) * 0.1,
            preemption_rate_per_s: unit(&mut st) * 8.0,
            mean_preemption_s: 0.005 + unit(&mut st) * 0.05,
            throttle: (pick(&mut st, 2) == 0).then_some(ThrottleSpec {
                period_s: 0.2 + unit(&mut st),
                duty: 0.3,
                factor: 0.5,
            }),
        };
        let p = UniformProvider::new(engines, latency, 0.001);
        let fleet = FleetSpec::new("one").group_faulted("g", session.clone(), 1, faults);
        let sim = Simulator::new(SimConfig {
            seed: replica_seed(seed, 0, 0),
            ..SimConfig::default()
        });
        for policy in RecoveryPolicy::ALL {
            let fleet_report =
                run_fleet_with(&fleet, &p, &config(seed, 2, policy), &|| scheduler.build());
            let result = sim.run_session_faulted(
                &session,
                &p,
                scheduler.build().as_mut(),
                &faults,
                policy,
            );
            let mut direct: BTreeMap<String, ModelStats> = BTreeMap::new();
            for (_, r) in &result.per_user {
                for (m, s) in &r.stats {
                    direct.entry(m.abbrev().to_string()).or_default().merge(s);
                }
            }
            check_frames(&fleet_report, &direct, result.drop_rate());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn any_shard_cut_merges_byte_identically_to_the_unsharded_run(
        seed in any::<u64>(),
        num_shards in 1u32..8,
    ) {
        // The shard-plan layer must be invisible: for any shard count
        // — including shards that end up empty — running each shard
        // independently, round-tripping its partial state through the
        // JSON wire format (as the multi-process coordinator does),
        // and merging must reproduce the unsharded report byte for
        // byte. Odd seeds exercise fault-injected fleets so outage
        // schedules cross the cut too.
        let fleet = if seed % 2 == 1 {
            random_faulted_fleet(seed)
        } else {
            random_fleet(seed)
        };
        let p = UniformProvider::new(2, 0.002, 0.001);
        let config = config(seed ^ 0x54A8D, 2, RecoveryPolicy::default());
        let reference = run_fleet(&fleet, &p, &config).to_json();

        let states: Vec<ShardState> = (0..num_shards)
            .map(|k| {
                let wire = run_fleet_shard(&fleet, &p, &config, k, num_shards).to_json();
                ShardState::from_json(&wire).expect("shard state survives the wire format")
            })
            .collect();
        let merged = merge_fleet_shards(
            &fleet,
            &p.label(),
            LatencyGreedy::new().name(),
            &states,
        )
        .expect("a complete shard set merges");
        prop_assert_eq!(&merged.to_json(), &reference, "num_shards = {}", num_shards);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn shard_plans_cover_every_session_exactly_once(
        seed in any::<u64>(),
        num_shards in 1u32..20,
    ) {
        // Every (group, replica) coordinate appears in exactly one
        // shard, with global indices preserved — the invariant that
        // keeps replica_seed (and thus fault timelines) independent
        // of the cut — and every shard's request count lies within
        // one session's request count of an even share W/N.
        let fleet = random_fleet(seed);
        let duration_s = [1e-6, 0.25, 1.0, 8.0][(seed % 4) as usize];
        let weight = |group: u32| {
            u128::from(fleet.groups[group as usize].session.request_count(duration_s))
        };
        let total: u128 = fleet
            .groups
            .iter()
            .enumerate()
            .map(|(g, grp)| weight(g as u32) * u128::from(grp.replicas))
            .sum();
        let max_w = (0..fleet.groups.len() as u32).map(weight).max().unwrap();
        let plan = plan_shards(&fleet, duration_s, num_shards);
        prop_assert_eq!(plan.num_shards(), num_shards);
        let mut seen = std::collections::BTreeSet::new();
        for (k, shard) in plan.shards.iter().enumerate() {
            let w: u128 = shard
                .iter()
                .map(|p| weight(p.group) * u128::from(p.replica_count))
                .sum();
            let n = u128::from(num_shards);
            prop_assert!(
                (w * n).abs_diff(total) <= max_w * n,
                "shard {} weighs {} of {} across {} shards (max session {})",
                k,
                w,
                total,
                num_shards,
                max_w
            );
            for piece in shard {
                for r in piece.replica_start..piece.replica_start + piece.replica_count {
                    prop_assert!(
                        seen.insert((piece.group, r)),
                        "session covered twice: group {} replica {}",
                        piece.group,
                        r
                    );
                }
            }
        }
        let expected: usize = fleet.groups.iter().map(|g| g.replicas as usize).sum();
        prop_assert_eq!(seen.len(), expected);
    }
}

#[test]
fn replica_seeds_decorrelate_sessions_from_the_base_seed() {
    // A fleet's sessions must not accidentally reuse the raw base
    // seed (replica 0 of group 0 included), and distinct groups and
    // replicas must get distinct seeds.
    let base = 0xC0FF_EE00u64;
    assert_ne!(replica_seed(base, 0, 0), base);
    let mut seen = std::collections::BTreeSet::new();
    for g in 0..8u32 {
        for r in 0..8u32 {
            assert!(seen.insert(replica_seed(base, g, r)));
        }
    }
}
