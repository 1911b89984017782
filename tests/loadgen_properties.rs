//! Property tests for the load generator (Definitions 7 and 8),
//! exercised across *random* scenario specs from `ScenarioBuilder` —
//! not just the seven built-ins:
//!
//! * request-time jitter stays within `±Jt` of the nominal frame time;
//! * deadlines are un-jittered (they sit exactly on the sensor's
//!   frame grid) and monotone per model;
//! * frame ids are gapless per model (`0, 1, 2, ...`);
//! * the lazy merge emits exactly what sorting every request would:
//!   `(t_req, user, model, frame_id)` for sessions, and a stable
//!   `t_req` sort of the spec-order concatenation for one scenario.

use proptest::prelude::*;

use xrbench::models::ModelId;
use xrbench::prelude::*;
use xrbench::workload::{source_spec, InferenceRequest, SessionRequest};

/// A random non-empty subset of the model zoo in `ModelId` order, each
/// model at a random rate its driving sensor can actually deliver
/// (`fps = sensor_fps / divisor`).
fn random_models(selector: u64, divisors: u64) -> Vec<(ModelId, f64)> {
    let mut models = Vec::new();
    for (i, model) in ModelId::ALL.into_iter().enumerate() {
        // Bit i of the selector decides membership.
        if selector >> i & 1 == 1 {
            let d = ((divisors >> (i * 5)) & 0x1F) % 6 + 1;
            let d = d as f64;
            models.push((model, source_spec(model.driving_source()).fps / d));
        }
    }
    if models.is_empty() {
        // Empty subset: fall back to a single-model scenario.
        models.push((ModelId::HandTracking, 30.0));
    }
    models
}

/// A scenario listing `models` in the given order.
fn build_spec(selector: u64, models: &[(ModelId, f64)]) -> ScenarioSpec {
    models
        .iter()
        .fold(
            ScenarioBuilder::new(format!("random-{selector:x}")),
            |b, &(model, fps)| b.model(model, fps),
        )
        .build()
        .expect("random spec is valid by construction")
}

/// A random valid scenario with its models in `ModelId` order.
fn random_spec(selector: u64, divisors: u64) -> ScenarioSpec {
    build_spec(selector, &random_models(selector, divisors))
}

/// [`random_spec`]'s models listed in an order shuffled by `shuffle`,
/// so spec position and `ModelId` order disagree.
fn shuffled_spec(selector: u64, divisors: u64, shuffle: u64) -> ScenarioSpec {
    let mut models = random_models(selector, divisors);
    models.sort_by_key(|&(m, _)| (m as u64 ^ shuffle).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    build_spec(selector, &models)
}

/// The scenario order by sorting: every model's requests generated on
/// their own, concatenated in spec order and stably sorted by `t_req`,
/// so exact time ties keep spec order.
fn scenario_oracle(seed: u64, spec: &ScenarioSpec, duration: f64) -> Vec<InferenceRequest> {
    let generator = LoadGenerator::new(seed);
    let mut out: Vec<InferenceRequest> = spec
        .models
        .iter()
        .flat_map(|sm| {
            let alone = ScenarioSpec {
                models: vec![sm.clone()],
                ..spec.clone()
            };
            generator.generate(&alone, duration)
        })
        .collect();
    out.sort_by(|a, b| a.t_req.total_cmp(&b.t_req));
    out
}

/// The session order by sorting: each user's requests from its own
/// generator seed, shifted by the user's offset, sorted by
/// `(t_req, user, model, frame_id)`.
fn session_oracle(session: &SessionSpec, seed: u64, duration: f64) -> Vec<SessionRequest> {
    let mut out = Vec::new();
    for u in &session.users {
        let user_seed = seed ^ u64::from(u.user).wrapping_mul(0xD6E8_FEB8_6659_FD93);
        for mut req in LoadGenerator::new(user_seed).generate(&u.spec, duration) {
            req.t_req += u.start_offset_s;
            req.t_deadline += u.start_offset_s;
            out.push(SessionRequest { user: u.user, req });
        }
    }
    out.sort_by(|a, b| {
        a.req
            .t_req
            .total_cmp(&b.req.t_req)
            .then(a.user.cmp(&b.user))
            .then(a.req.model.cmp(&b.req.model))
            .then(a.req.frame_id.cmp(&b.req.frame_id))
    });
    out
}

#[test]
fn an_exact_cross_user_tie_goes_to_the_lower_user() {
    // Social Interaction A and B joining together: at the default seed
    // their streams meet at one exact `t_req`.
    let specs: Vec<ScenarioSpec> = UsageScenario::ALL.iter().map(|s| s.spec()).collect();
    let session = SessionSpec::mixed("tie", &specs, 2, 0.0);
    let merged = session.generate(SimConfig::default().seed, 1.0);
    let ties: Vec<(u32, u32)> = merged
        .windows(2)
        .filter(|w| w[0].req.t_req == w[1].req.t_req && w[0].user != w[1].user)
        .map(|w| (w[0].user, w[1].user))
        .collect();
    assert_eq!(ties, [(0, 1)]);
}

fn per_model(reqs: &[InferenceRequest]) -> Vec<(ModelId, Vec<&InferenceRequest>)> {
    ModelId::ALL
        .into_iter()
        .map(|m| (m, reqs.iter().filter(|r| r.model == m).collect::<Vec<_>>()))
        .filter(|(_, v)| !v.is_empty())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn jitter_bounded_by_jt_for_any_builder_spec(
        selector in 1u64..(1 << 11),
        divisors in any::<u64>(),
        seed in 0u64..10_000,
        duration_ds in 1u32..30,
    ) {
        let spec = random_spec(selector, divisors);
        let duration = f64::from(duration_ds) / 10.0;
        let reqs = LoadGenerator::new(seed).generate(&spec, duration);
        for r in &reqs {
            let src = source_spec(r.model.driving_source());
            // Definition 7: Treq = Linit + frame/FPS + 2·Jt·(Dist−0.5),
            // with Dist ∈ [0, 1] ⇒ |Treq − nominal| ≤ Jt.
            let nominal = src.init_latency_ms / 1e3 + r.sensor_frame as f64 / src.fps;
            prop_assert!(
                (r.t_req - nominal).abs() <= src.jitter_ms / 1e3 + 1e-12,
                "{}: jitter {} exceeds Jt {}",
                r.model,
                (r.t_req - nominal).abs(),
                src.jitter_ms / 1e3
            );
        }
    }

    #[test]
    fn deadlines_unjittered_and_monotone(
        selector in 1u64..(1 << 11),
        divisors in any::<u64>(),
        seed in 0u64..10_000,
    ) {
        let spec = random_spec(selector, divisors);
        let reqs = LoadGenerator::new(seed).generate(&spec, 1.0);
        for (model, rs) in per_model(&reqs) {
            let src = source_spec(model.driving_source());
            let linit = src.init_latency_ms / 1e3;
            let mut sorted = rs.clone();
            sorted.sort_by_key(|r| r.frame_id);
            for w in sorted.windows(2) {
                // Definition 8: deadlines advance with consumed frames.
                prop_assert!(
                    w[1].t_deadline > w[0].t_deadline,
                    "{model}: deadline not monotone"
                );
            }
            for r in &sorted {
                // Un-jittered: Tdl sits exactly on the sensor grid.
                let frames = (r.t_deadline - linit) * src.fps;
                prop_assert!(
                    (frames - frames.round()).abs() < 1e-6,
                    "{model}: deadline {} off the frame grid",
                    r.t_deadline
                );
                // And it is the *next* consumed frame: strictly after
                // the un-jittered arrival.
                let nominal = linit + r.sensor_frame as f64 / src.fps;
                prop_assert!(r.t_deadline > nominal, "{model}: deadline not in the future");
            }
        }
    }

    #[test]
    fn frame_ids_gapless_per_model(
        selector in 1u64..(1 << 11),
        divisors in any::<u64>(),
        seed in 0u64..10_000,
        duration_ds in 1u32..25,
    ) {
        let spec = random_spec(selector, divisors);
        let duration = f64::from(duration_ds) / 10.0;
        let reqs = LoadGenerator::new(seed).generate(&spec, duration);
        for (model, rs) in per_model(&reqs) {
            let mut ids: Vec<u64> = rs.iter().map(|r| r.frame_id).collect();
            ids.sort_unstable();
            let expect: Vec<u64> = (0..ids.len() as u64).collect();
            prop_assert_eq!(&ids, &expect, "{} has frame-id gaps", model);
            // And the count honors the target rate over the duration.
            let target = spec.model(model).unwrap().target_fps;
            prop_assert_eq!(
                ids.len() as u64,
                (target * duration).ceil() as u64,
                "{} emitted the wrong number of requests",
                model
            );
        }
    }

    #[test]
    fn sensor_frames_monotone_per_model(
        selector in 1u64..(1 << 11),
        divisors in any::<u64>(),
        seed in 0u64..10_000,
    ) {
        // Consumed sensor frames never repeat or regress: the skip
        // pattern is strictly increasing.
        let spec = random_spec(selector, divisors);
        let reqs = LoadGenerator::new(seed).generate(&spec, 1.0);
        for (model, rs) in per_model(&reqs) {
            let mut sorted = rs.clone();
            sorted.sort_by_key(|r| r.frame_id);
            for w in sorted.windows(2) {
                prop_assert!(
                    w[1].sensor_frame > w[0].sensor_frame,
                    "{model}: sensor frames not strictly increasing"
                );
            }
        }
    }

    #[test]
    fn scenario_merge_equals_a_stable_time_sort(
        selector in 1u64..(1 << 11),
        divisors in any::<u64>(),
        shuffle in any::<u64>(),
        seed in 0u64..10_000,
        duration_ds in 1u32..31,
    ) {
        let spec = shuffled_spec(selector, divisors, shuffle);
        let duration = f64::from(duration_ds) / 10.0;
        prop_assert_eq!(
            LoadGenerator::new(seed).generate(&spec, duration),
            scenario_oracle(seed, &spec, duration)
        );
    }

    #[test]
    fn session_merge_equals_the_sorted_session(
        users in 1u32..49,
        selectors in prop::collection::vec(1u64..(1 << 11), 1..4),
        divisors in any::<u64>(),
        shuffle in any::<u64>(),
        stagger_ms in 0u32..6,
        offsets in any::<u64>(),
        seed in 0u64..10_000,
    ) {
        let specs: Vec<ScenarioSpec> = selectors
            .iter()
            .enumerate()
            .map(|(i, &sel)| {
                let bits = 7 * i as u32;
                shuffled_spec(sel, divisors.rotate_left(bits), shuffle.rotate_left(bits))
            })
            .collect();
        let mut session =
            SessionSpec::mixed("prop", &specs, users, f64::from(stagger_ms) / 1e3);
        // Up to three late joiners at half-millisecond offsets, which
        // can coincide with the stagger grid.
        for k in 0..offsets % 4 {
            let half_ms = (offsets >> (8 + 8 * k)) & 0xFF;
            session = session.with_user(
                specs[k as usize % specs.len()].clone(),
                (half_ms % 11) as f64 * 0.5e-3,
            );
        }
        prop_assert_eq!(session.generate(seed, 1.0), session_oracle(&session, seed, 1.0));
    }

    #[test]
    fn session_streams_inherit_loadgen_properties(
        users in 1u32..6,
        stagger_ms in 0u32..100,
        seed in 0u64..10_000,
    ) {
        // The merged multi-user stream preserves per-user jitter
        // bounds and gapless frame ids after the offset shift.
        let spec = UsageScenario::VrGaming.spec();
        let stagger = f64::from(stagger_ms) / 1e3;
        let session = SessionSpec::uniform("prop", spec, users, stagger);
        let merged = session.generate(seed, 1.0);
        for u in 0..users {
            let offset = f64::from(u) * stagger;
            for sr in merged.iter().filter(|r| r.user == u) {
                let src = source_spec(sr.req.model.driving_source());
                let nominal =
                    offset + src.init_latency_ms / 1e3 + sr.req.sensor_frame as f64 / src.fps;
                prop_assert!((sr.req.t_req - nominal).abs() <= src.jitter_ms / 1e3 + 1e-12);
            }
            let mut ht: Vec<u64> = merged
                .iter()
                .filter(|r| r.user == u && r.req.model == ModelId::HandTracking)
                .map(|r| r.req.frame_id)
                .collect();
            ht.sort_unstable();
            let expect: Vec<u64> = (0..ht.len() as u64).collect();
            prop_assert_eq!(ht, expect);
        }
    }
}
