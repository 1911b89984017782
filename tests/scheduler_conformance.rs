//! Scheduler conformance harness.
//!
//! A reusable, generic suite asserting that every [`Scheduler`]
//! implementation honors the trait contract the simulator relies on:
//!
//! 1. **Determinism** — two fresh instances fed the same call
//!    sequence produce the same dispatch decisions (reproducible
//!    benchmark runs depend on it).
//! 2. **In-range picks** — the returned request index is always
//!    within the ready queue and the returned engine is always one of
//!    the free engines (only ready requests go to free engines).
//! 3. **Starvation honesty** — with no ready requests or no free
//!    engines, the scheduler returns `None`.
//! 4. **Whole-run invariants** — driven through the real simulator on
//!    every built-in scenario and a mixed multi-user session: engine
//!    occupancy, frame conservation, and run-to-run determinism hold.
//!
//! To conformance-test a new scheduler, add a factory to
//! [`all_schedulers`].

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use xrbench::models::ModelId;
use xrbench::prelude::*;
use xrbench::sim::{PendingView, UniformProvider};
use xrbench::workload::ScenarioCatalog;

/// A named factory producing fresh scheduler instances.
type SchedulerFactory = (&'static str, Box<dyn Fn() -> Box<dyn Scheduler>>);

/// Every shipped scheduler, by fresh-instance factory.
fn all_schedulers() -> Vec<SchedulerFactory> {
    vec![
        (
            "latency-greedy",
            Box::new(|| Box::new(LatencyGreedy::new())),
        ),
        ("round-robin", Box::new(|| Box::new(RoundRobin::new()))),
        ("slack-edf", Box::new(|| Box::new(SlackAwareEdf::new()))),
        ("least-loaded", Box::new(|| Box::new(LeastLoaded::new()))),
        (
            "failover-aware",
            Box::new(|| Box::new(xrbench::sim::FailoverAware::new())),
        ),
    ]
}

/// One randomized `select` call: a ready queue, a free-engine subset,
/// and the current time.
fn random_call(rng: &mut StdRng, num_engines: usize) -> (Vec<PendingView>, Vec<usize>, f64) {
    let now = rng.gen_range(0.0..1.0);
    let n_ready = rng.gen_range(0usize..8);
    let ready: Vec<PendingView> = (0..n_ready)
        .map(|_| {
            let t_req = now - rng.gen_range(0.0..0.05);
            PendingView {
                user: rng.gen_range(0u32..4),
                model: ModelId::ALL[rng.gen_range(0usize..ModelId::ALL.len())],
                frame_id: rng.gen_range(0u64..120),
                t_req,
                t_deadline: t_req + rng.gen_range(0.0001..0.05),
            }
        })
        .collect();
    // A sorted subset of engines, as the simulator provides.
    let free: Vec<usize> = (0..num_engines)
        .filter(|_| rng.gen_range(0u32..3) > 0)
        .collect();
    (ready, free, now)
}

#[test]
fn conformance_in_range_and_only_free_engines() {
    let num_engines = 5;
    let provider = UniformProvider::new(num_engines, 0.002, 0.001);
    for (name, factory) in all_schedulers() {
        let mut s = factory();
        let mut rng = StdRng::seed_from_u64(0xC0DE);
        for call in 0..500 {
            let (ready, free, now) = random_call(&mut rng, num_engines);
            match s.select(&ready, &free, &provider, now) {
                None => {}
                Some((ri, engine)) => {
                    assert!(
                        ri < ready.len(),
                        "{name} call {call}: request index {ri} out of range ({} ready)",
                        ready.len()
                    );
                    assert!(
                        free.contains(&engine),
                        "{name} call {call}: dispatched to busy engine {engine} (free: {free:?})"
                    );
                }
            }
        }
    }
}

#[test]
fn conformance_starved_schedulers_return_none() {
    let provider = UniformProvider::new(3, 0.002, 0.001);
    let view = PendingView {
        user: 0,
        model: ModelId::HandTracking,
        frame_id: 0,
        t_req: 0.0,
        t_deadline: 0.033,
    };
    for (name, factory) in all_schedulers() {
        let mut s = factory();
        assert!(
            s.select(&[], &[0, 1, 2], &provider, 0.0).is_none(),
            "{name} dispatched without ready requests"
        );
        assert!(
            s.select(&[view], &[], &provider, 0.0).is_none(),
            "{name} dispatched without free engines"
        );
    }
}

#[test]
fn conformance_deterministic_replay() {
    // Two fresh instances fed the identical call sequence must make
    // identical decisions — including stateful schedulers (rotation
    // pointers, load accumulators).
    let num_engines = 4;
    let provider = UniformProvider::new(num_engines, 0.003, 0.001);
    for (name, factory) in all_schedulers() {
        let mut rng = StdRng::seed_from_u64(0xFEED);
        let calls: Vec<(Vec<PendingView>, Vec<usize>, f64)> = (0..300)
            .map(|_| random_call(&mut rng, num_engines))
            .collect();
        let mut a = factory();
        let mut b = factory();
        for (i, (ready, free, now)) in calls.iter().enumerate() {
            let da = a.select(ready, free, &provider, *now);
            let db = b.select(ready, free, &provider, *now);
            assert_eq!(da, db, "{name} diverged on call {i}");
        }
    }
}

#[test]
fn conformance_whole_run_invariants_per_scenario() {
    // Drive each scheduler through the real simulator on every
    // built-in scenario; the simulator panics on out-of-range or
    // busy-engine picks, and we assert occupancy + conservation +
    // determinism on top.
    let provider = UniformProvider::new(3, 0.004, 0.001);
    for (name, factory) in all_schedulers() {
        for spec in &ScenarioCatalog::builtin() {
            let sim = Simulator::new(SimConfig {
                duration_s: 1.0,
                seed: 41,
            });
            let a = sim.run(spec, &provider, factory().as_mut());
            let b = sim.run(spec, &provider, factory().as_mut());
            assert_eq!(a, b, "{name} not reproducible on {}", spec.name);
            for e in 0..3 {
                let mut recs: Vec<_> = a.records.iter().filter(|r| r.engine == e).collect();
                recs.sort_by(|x, y| x.t_start.total_cmp(&y.t_start));
                for w in recs.windows(2) {
                    assert!(
                        w[1].t_start >= w[0].t_end - 1e-12,
                        "{name}/{}: overlap on engine {e}",
                        spec.name
                    );
                }
            }
            for (m, st) in &a.stats {
                assert_eq!(
                    st.total_frames,
                    st.executed_frames + st.dropped_frames(),
                    "{name}/{}/{m}: frame conservation violated",
                    spec.name
                );
            }
        }
    }
}

#[test]
fn conformance_whole_run_invariants_multi_user() {
    // The same invariants must hold when users share the engines.
    let provider = UniformProvider::new(2, 0.003, 0.001);
    let specs: Vec<ScenarioSpec> = ScenarioCatalog::builtin().iter().cloned().collect();
    let session = SessionSpec::mixed("conformance", &specs, 6, 0.015);
    for (name, factory) in all_schedulers() {
        let sim = Simulator::new(SimConfig::default());
        let a = sim.run_session(&session, &provider, factory().as_mut());
        let b = sim.run_session(&session, &provider, factory().as_mut());
        assert_eq!(a, b, "{name} session run not reproducible");
        // Occupancy across *all* users' records.
        let mut all: Vec<_> = a
            .per_user
            .iter()
            .flat_map(|(_, r)| r.records.iter())
            .collect();
        all.sort_by(|x, y| x.t_start.total_cmp(&y.t_start));
        for e in 0..2 {
            let recs: Vec<_> = all.iter().filter(|r| r.engine == e).collect();
            for w in recs.windows(2) {
                assert!(
                    w[1].t_start >= w[0].t_end - 1e-12,
                    "{name}: cross-user overlap on engine {e}"
                );
            }
        }
    }
}

/// A scenario and hand-crafted request stream engineered for event
/// ties: every sensor frame emits three requests (HT, ES, and the
/// ES-dependent GE) with *exactly* equal `t_req` and equal deadlines,
/// on engines with exactly equal latencies — so arrival ingestion,
/// dispatch picks, engine choice, and completion processing all face
/// same-timestamp ties that only the deterministic tie-break orders.
fn tie_fixture() -> (
    xrbench::workload::ScenarioSpec,
    Vec<xrbench::workload::InferenceRequest>,
    xrbench::sim::TableProvider,
) {
    use xrbench::sim::{InferenceCost, TableProvider};
    use xrbench::workload::{DependencyKind, InferenceRequest, ScenarioBuilder};

    let spec = ScenarioBuilder::new("tie-break")
        .model(ModelId::HandTracking, 30.0)
        .model(ModelId::EyeSegmentation, 30.0)
        .dependent(
            ModelId::GazeEstimation,
            30.0,
            ModelId::EyeSegmentation,
            DependencyKind::Data,
            1.0,
        )
        .build()
        .expect("valid tie scenario");

    let mut requests = Vec::new();
    for k in 0..12u64 {
        let t = k as f64 * 0.01;
        for model in [
            ModelId::GazeEstimation, // deliberately not in model order
            ModelId::HandTracking,
            ModelId::EyeSegmentation,
        ] {
            requests.push(InferenceRequest {
                model,
                frame_id: k,
                sensor_frame: k,
                t_req: t,
                t_deadline: t + 0.015,
            });
        }
    }

    // Two engines with identical costs: engine choice is a pure tie.
    let mut provider = TableProvider::new(2);
    for m in ModelId::ALL {
        for e in 0..2 {
            provider.set(
                m,
                e,
                InferenceCost {
                    latency_s: 0.004,
                    energy_j: 0.001,
                },
            );
        }
    }
    (spec, requests, provider)
}

#[test]
fn conformance_same_timestamp_ties_are_deterministic() {
    // Same-timestamp arrival/dispatch/completion orderings must be
    // reproducible across runs for every scheduler.
    let (spec, requests, provider) = tie_fixture();
    for (name, factory) in all_schedulers() {
        let sim = Simulator::new(SimConfig {
            duration_s: 0.4,
            seed: 5,
        });
        let a = sim.run_requests(&spec, requests.clone(), &provider, factory().as_mut());
        let b = sim.run_requests(&spec, requests.clone(), &provider, factory().as_mut());
        assert_eq!(a, b, "{name} tie-break order not reproducible");
        assert!(!a.records.is_empty(), "{name} dispatched nothing");
    }
}

#[test]
fn conformance_same_timestamp_ties_match_reference_loop() {
    // The engine calendar's (t, user, model, sensor_frame, token)
    // tie-break must reproduce the reference loop bit-for-bit,
    // including under exact event-time ties. The second provider gives
    // EyeSegmentation zero latency: each of its completions is due at
    // its own dispatch instant, and both loops must process it at the
    // next event time, not at that instant.
    let (spec, requests, provider) = tie_fixture();
    let mut instant = provider.clone();
    for e in 0..2 {
        instant.set(
            ModelId::EyeSegmentation,
            e,
            xrbench::sim::InferenceCost {
                latency_s: 0.0,
                energy_j: 0.001,
            },
        );
    }
    for provider in [&provider, &instant] {
        for (name, factory) in all_schedulers() {
            let sim = Simulator::new(SimConfig {
                duration_s: 0.4,
                seed: 5,
            });
            let fast = sim.run_requests(&spec, requests.clone(), provider, factory().as_mut());
            let slow =
                sim.run_requests_reference(&spec, requests.clone(), provider, factory().as_mut());
            assert_eq!(fast, slow, "{name} diverges from reference under ties");
        }
    }
}

#[test]
fn conformance_multi_user_zero_stagger_matches_reference_loop() {
    // Zero stagger maximizes cross-user timestamp collisions; the
    // engines must still agree for every scheduler. On 2 engines, 96
    // users (1,056 keys) overload the device: the pick heap stays
    // deep, and most frames are superseded while queued, re-keying
    // their entries in place. On 64 fast engines the device is
    // under-loaded, as a fleet device is: the queue empties and
    // refills between bursts, so the heap keeps shrinking to its root.
    let specs: Vec<ScenarioSpec> = ScenarioCatalog::builtin().iter().cloned().collect();
    for (engines, latency_s) in [(2, 0.003), (64, 0.0001)] {
        let provider = UniformProvider::new(engines, latency_s, 0.001);
        for users in [5, 96] {
            let session = SessionSpec::mixed("tied-users", &specs, users, 0.0);
            for (name, factory) in all_schedulers() {
                let sim = Simulator::new(SimConfig::default());
                let fast = sim.run_session(&session, &provider, factory().as_mut());
                let slow =
                    sim.run_session_reference(&session, &provider, factory().as_mut(), None, None);
                assert_eq!(
                    fast, slow,
                    "{name} session of {users} users on {engines} engines diverges from reference"
                );
            }
        }
    }
}

#[test]
fn conformance_all_shipped_schedulers_are_registered() {
    let names: Vec<&str> = all_schedulers()
        .iter()
        .map(|(_, f)| {
            let s = f();
            s.name()
        })
        .collect();
    assert_eq!(
        names,
        vec![
            "latency-greedy",
            "round-robin",
            "slack-edf",
            "least-loaded",
            "failover-aware"
        ]
    );
}

#[test]
fn conformance_faulted_runs_stay_deterministic_per_scheduler() {
    // Every shipped scheduler must stay reproducible when engines
    // churn, throttle, and revoke in-flight work under every recovery
    // policy — including stateful ones fed on_engine_down events.
    use xrbench::sim::{FaultProcess, RecoveryPolicy, ThrottleSpec};
    let provider = UniformProvider::new(3, 0.004, 0.001);
    let specs: Vec<ScenarioSpec> = ScenarioCatalog::builtin().iter().cloned().collect();
    let session = SessionSpec::mixed("faulted-conformance", &specs, 4, 0.01);
    let faults = FaultProcess {
        failure_rate_per_s: 2.0,
        mean_downtime_s: 0.05,
        preemption_rate_per_s: 4.0,
        mean_preemption_s: 0.02,
        throttle: Some(ThrottleSpec {
            period_s: 0.25,
            duty: 0.4,
            factor: 0.5,
        }),
    };
    for (name, factory) in all_schedulers() {
        for policy in RecoveryPolicy::ALL {
            let sim = Simulator::new(SimConfig::default());
            let a =
                sim.run_session_faulted(&session, &provider, factory().as_mut(), &faults, policy);
            let b =
                sim.run_session_faulted(&session, &provider, factory().as_mut(), &faults, policy);
            assert_eq!(a, b, "{name}/{policy} faulted run not reproducible");
            for (_, r) in &a.per_user {
                for (m, st) in &r.stats {
                    assert_eq!(
                        st.total_frames,
                        st.executed_frames + st.dropped_frames(),
                        "{name}/{policy}/{m}: frame conservation violated under faults"
                    );
                }
            }
        }
    }
}
