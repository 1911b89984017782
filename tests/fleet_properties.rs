//! Property-based tests over the fleet layer: exact-merge algebra of
//! the accumulator, worker-count invariance of whole fleet runs, and
//! the 1-session fleet ↔ `Harness::run_session` parity that anchors
//! the fleet's scoring semantics to the harness's.

use proptest::prelude::*;

use xrbench::fleet::{
    merge_fleet_shards, plan_shards, replica_seed, FleetAccumulator, FleetSpec, ShardState,
    StatAgg, SCORE_SCALE, TIME_SCALE,
};
use xrbench::models::ModelId;
use xrbench::prelude::*;
use xrbench::score::ScenarioBreakdown;
use xrbench::sim::{
    ExecRecord, FaultProcess, ModelStats, RecoveryPolicy, ThrottleSpec, UniformProvider,
};

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
        acc.model_mut(rec.model).absorb_stats(&ModelStats {
            total_frames: 1 + mix(&mut st) % 3,
            executed_frames: 1,
            dropped_superseded: mix(&mut st) % 2,
            dropped_starved: mix(&mut st) % 2,
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
        let h = Harness::new().with_seed(seed ^ 0xFA017);
        for policy in RecoveryPolicy::ALL {
            let one = h.run_fleet_with_recovery(&fleet, &p, 1, policy).to_json();
            for workers in [2usize, 8] {
                let other = h.run_fleet_with_recovery(&fleet, &p, workers, policy).to_json();
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
        let h = Harness::new().with_seed(seed ^ 0xF1EE7);
        let one = h.run_fleet(&fleet, &p, 1).to_json();
        for workers in [2usize, 8] {
            let other = h.run_fleet(&fleet, &p, workers).to_json();
            prop_assert_eq!(&one, &other, "workers = {}", workers);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn one_session_fleet_matches_run_session(
        seed in any::<u64>(),
        users in 1u32..5,
        engines in 1usize..4,
        latency in 0.0005f64..0.006,
    ) {
        let mut st = seed;
        let scenario = UsageScenario::ALL[pick(&mut st, UsageScenario::ALL.len())];
        let session = SessionSpec::uniform("solo", scenario.spec(), users, 0.003);
        let p = UniformProvider::new(engines, latency, 0.001);

        // The fleet derives session seeds from its base seed; run the
        // reference session under exactly the derived seed.
        let fleet_report = Harness::new()
            .with_seed(seed)
            .run_fleet(&FleetSpec::uniform("one", session.clone(), 1), &p, 2);
        let session_report = Harness::new()
            .with_seed(replica_seed(seed, 0, 0))
            .run_session(&session, &p, &mut LatencyGreedy::new());

        // Integer accounting matches exactly.
        prop_assert_eq!(fleet_report.num_sessions, 1);
        prop_assert_eq!(fleet_report.num_users as usize, session_report.num_users);
        let total: u64 = session_report
            .users
            .iter()
            .flat_map(|u| u.report.models.iter())
            .map(|m| m.total_frames)
            .sum();
        let executed: u64 = session_report
            .users
            .iter()
            .flat_map(|u| u.report.models.iter())
            .map(|m| m.executed_frames)
            .sum();
        let missed: u64 = session_report
            .users
            .iter()
            .flat_map(|u| u.report.models.iter())
            .map(|m| m.missed_deadlines)
            .sum();
        prop_assert_eq!(fleet_report.total_requests, total);
        prop_assert_eq!(fleet_report.executed_inferences, executed);
        prop_assert_eq!(fleet_report.missed_deadlines, missed);
        prop_assert_eq!(fleet_report.drops.superseded, session_report.drops.superseded);
        prop_assert_eq!(
            fleet_report.drops.upstream_dropped,
            session_report.drops.upstream_dropped
        );
        prop_assert_eq!(fleet_report.drops.starved, session_report.drops.starved);

        // Per-model counts match exactly.
        for u in &session_report.users {
            for m in &u.report.models {
                let fm = fleet_report.model(&m.model).expect("fleet lists the model");
                prop_assert!(fm.total_frames >= m.total_frames);
            }
        }

        // Score aggregates match up to the accumulator's fixed-point
        // quantization (2^-62 per value — far below 1e-9).
        prop_assert!(
            (fleet_report.fleet_score - session_report.session_score).abs() < 1e-9,
            "fleet {} vs session {}",
            fleet_report.fleet_score,
            session_report.session_score
        );
        let fs = &fleet_report.scenarios[0];
        let agg = &session_report.aggregate;
        prop_assert!((fs.overall_score - agg.overall_score).abs() < 1e-9);
        prop_assert!((fs.realtime_score - agg.realtime_score).abs() < 1e-9);
        prop_assert!((fs.energy_score - agg.energy_score).abs() < 1e-9);
        prop_assert!((fs.accuracy_score - agg.accuracy_score).abs() < 1e-9);
        prop_assert!((fs.qoe_score - agg.qoe_score).abs() < 1e-9);

        // The fairness extremes bracket every user's overall score.
        for u in &session_report.users {
            let o = u.report.overall();
            prop_assert!(o >= fs.min_overall - 1e-9 && o <= fs.max_overall + 1e-9);
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
        let h = Harness::new().with_seed(seed ^ 0x54A8D);
        let reference = h.run_fleet(&fleet, &p, 2).to_json();

        let states: Vec<ShardState> = (0..num_shards)
            .map(|k| {
                let wire = h
                    .run_fleet_shard(&fleet, &p, 2, RecoveryPolicy::default(), k, num_shards)
                    .to_json();
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
