//! Multi-user sessions: overlaid, staggered scenario instances.
//!
//! A [`SessionSpec`] composes N users, each running their own (possibly
//! different) [`ScenarioSpec`] starting at a per-user offset, into one
//! merged inference-request stream. Every user's stream is generated
//! with an independent jitter seed, so identical scenarios still
//! de-synchronize the way real concurrent users do. The merged stream
//! is simulated *concurrently* on one shared system — the first step
//! toward serving production-scale populations rather than a single
//! headset.
//!
//! The merge is lazy: [`SessionSpec::arrivals`] interleaves the
//! `(user, model)` streams of [`crate::loadgen`] one request at a time,
//! so a simulation holds one pending arrival per stream instead of the
//! whole session.
//!
//! Users running the same scenario share one [`ScenarioSpec`] through
//! an [`Arc`]: [`SessionSpec::uniform`] and [`SessionSpec::mixed`] wrap
//! each listed spec once, so building or cloning a session of N users
//! copies N pointers rather than N specs.

use std::sync::Arc;

use crate::loadgen::{Arrivals, InferenceRequest, ModelStream};
use crate::scenario::ScenarioSpec;

/// One user's slot within a session.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionUser {
    /// Dense user id (0-based, assigned in registration order).
    pub user: u32,
    /// The scenario this user runs, shared with every other user of
    /// the session that runs the same listed spec.
    pub spec: Arc<ScenarioSpec>,
    /// When the user's streams start, relative to session start (s).
    pub start_offset_s: f64,
}

/// One request of the merged session stream, tagged with its user.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionRequest {
    /// The originating user.
    pub user: u32,
    /// The request, with times already shifted by the user's offset.
    pub req: InferenceRequest,
}

/// A multi-user session: N staggered scenario instances merged into
/// one request stream.
///
/// ```
/// use xrbench_workload::{SessionSpec, UsageScenario};
///
/// let session = SessionSpec::uniform(
///     "vr-party",
///     UsageScenario::VrGaming.spec(),
///     4,      // users
///     0.050,  // 50 ms stagger between joins
/// );
/// let merged = session.generate(42, 1.0);
/// // 4 users × (45 HT + 60 ES + 60 GE) requests.
/// assert_eq!(merged.len(), 4 * 165);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSpec {
    /// Session display name.
    pub name: String,
    /// The users, in id order.
    pub users: Vec<SessionUser>,
}

impl SessionSpec {
    /// An empty session with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            users: Vec::new(),
        }
    }

    /// Adds one user running `spec`, starting `start_offset_s` after
    /// session start. User ids are assigned densely in call order.
    /// Passing an `Arc` shares the spec with the users that already
    /// hold it; passing a [`ScenarioSpec`] wraps it for this user.
    ///
    /// # Panics
    ///
    /// Panics if the offset is negative or not finite.
    #[must_use]
    pub fn with_user(mut self, spec: impl Into<Arc<ScenarioSpec>>, start_offset_s: f64) -> Self {
        assert!(
            start_offset_s.is_finite() && start_offset_s >= 0.0,
            "start offset must be finite and non-negative, got {start_offset_s}"
        );
        let user = self.users.len() as u32;
        self.users.push(SessionUser {
            user,
            spec: spec.into(),
            start_offset_s,
        });
        self
    }

    /// N users all running the same scenario, joining `stagger_s`
    /// apart (user k starts at `k × stagger_s`). Every user shares the
    /// one spec.
    ///
    /// # Panics
    ///
    /// Panics if `users == 0` or `stagger_s` is negative/not finite.
    pub fn uniform(
        name: impl Into<String>,
        spec: impl Into<Arc<ScenarioSpec>>,
        users: u32,
        stagger_s: f64,
    ) -> Self {
        Self::staggered(name, &[spec.into()], users, stagger_s)
    }

    /// N users drawing scenarios round-robin from `specs`, joining
    /// `stagger_s` apart — the mixed-population case. Each listed spec
    /// is wrapped once and shared by every user that draws it.
    ///
    /// # Panics
    ///
    /// Panics if `specs` is empty, `users == 0`, or `stagger_s` is
    /// negative/not finite.
    pub fn mixed(
        name: impl Into<String>,
        specs: &[ScenarioSpec],
        users: u32,
        stagger_s: f64,
    ) -> Self {
        let specs: Vec<Arc<ScenarioSpec>> = specs.iter().cloned().map(Arc::new).collect();
        Self::staggered(name, &specs, users, stagger_s)
    }

    /// The round-robin, staggered user list behind
    /// [`SessionSpec::uniform`] and [`SessionSpec::mixed`].
    fn staggered(
        name: impl Into<String>,
        specs: &[Arc<ScenarioSpec>],
        users: u32,
        stagger_s: f64,
    ) -> Self {
        assert!(!specs.is_empty(), "session needs at least one scenario");
        assert!(users > 0, "session needs at least one user");
        assert!(
            stagger_s.is_finite() && stagger_s >= 0.0,
            "stagger must be finite and non-negative, got {stagger_s}"
        );
        let mut s = Self::new(name);
        for k in 0..users {
            let spec = Arc::clone(&specs[k as usize % specs.len()]);
            s = s.with_user(spec, f64::from(k) * stagger_s);
        }
        s
    }

    /// Number of users in the session.
    pub fn num_users(&self) -> usize {
        self.users.len()
    }

    /// The session's total simulated span for a per-user run duration:
    /// the last user's offset plus the duration.
    pub fn span_s(&self, duration_s: f64) -> f64 {
        let max_offset = self
            .users
            .iter()
            .map(|u| u.start_offset_s)
            .fold(0.0, f64::max);
        max_offset + duration_s
    }

    /// How many requests [`SessionSpec::generate`] emits for
    /// `duration_s`, counted without generating them: the sum of
    /// [`crate::ScenarioModel::request_count`] over every user's
    /// models. Like each of those counts, the sum saturates at
    /// `u64::MAX` for a duration too long to count in a `u64`, rather
    /// than overflowing.
    pub fn request_count(&self, duration_s: f64) -> u64 {
        self.users
            .iter()
            .flat_map(|u| &u.spec.models)
            .map(|sm| sm.request_count(duration_s))
            .fold(0, u64::saturating_add)
    }

    /// Generates the merged, time-sorted session request stream:
    /// [`SessionSpec::arrivals`] collected.
    ///
    /// # Panics
    ///
    /// Same contract as [`SessionSpec::arrivals`].
    pub fn generate(&self, seed: u64, duration_s: f64) -> Vec<SessionRequest> {
        self.arrivals(seed, duration_s).collect()
    }

    /// The merged session request stream, generated lazily in
    /// `(t_req, user, model)` order.
    ///
    /// Each user's streams come from their own
    /// [`LoadGenerator`](crate::LoadGenerator) seed, `seed` mixed with
    /// the user id (user 0 sees exactly the single-user stream for
    /// `seed`), shifted by the user's start offset.
    ///
    /// # Panics
    ///
    /// Panics if the session has no users, user ids are not unique
    /// (the simulator keys all bookkeeping per user — duplicates would
    /// silently merge two users' streams), or `duration_s` is not
    /// positive.
    pub fn arrivals(&self, seed: u64, duration_s: f64) -> Arrivals {
        assert!(!self.users.is_empty(), "session has no users");
        let mut seen: Vec<u32> = self.users.iter().map(|u| u.user).collect();
        seen.sort_unstable();
        seen.dedup();
        assert!(
            seen.len() == self.users.len(),
            "session user ids must be unique (got {} users, {} distinct ids)",
            self.users.len(),
            seen.len()
        );
        assert!(duration_s > 0.0, "duration must be positive");
        let mut streams: Vec<ModelStream> = self
            .users
            .iter()
            .flat_map(|u| {
                let user_seed = seed ^ u64::from(u.user).wrapping_mul(0xD6E8_FEB8_6659_FD93);
                u.spec.models.iter().map(move |sm| {
                    ModelStream::new(sm, user_seed, duration_s, u.user, u.start_offset_s)
                })
            })
            .collect();
        // Ranking streams by `(user, model)` breaks exact time ties the
        // way the session order requires.
        streams.sort_by_key(ModelStream::owner);
        Arrivals::new(streams)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loadgen::LoadGenerator;
    use crate::scenario::UsageScenario;

    #[test]
    fn uniform_session_staggers_users() {
        let s = SessionSpec::uniform("s", UsageScenario::ArGaming.spec(), 3, 0.1);
        assert_eq!(s.num_users(), 3);
        for (k, u) in s.users.iter().enumerate() {
            assert_eq!(u.user, k as u32);
            assert!((u.start_offset_s - 0.1 * k as f64).abs() < 1e-12);
        }
        assert!((s.span_s(1.0) - 1.2).abs() < 1e-12);
    }

    #[test]
    fn mixed_session_round_robins_scenarios() {
        let specs = [
            UsageScenario::VrGaming.spec(),
            UsageScenario::ArGaming.spec(),
        ];
        let s = SessionSpec::mixed("m", &specs, 5, 0.0);
        assert_eq!(s.users[0].spec.name, "VR Gaming");
        assert_eq!(s.users[1].spec.name, "AR Gaming");
        assert_eq!(s.users[4].spec.name, "VR Gaming");
    }

    #[test]
    fn merged_stream_is_sorted_and_complete() {
        let s = SessionSpec::uniform("s", UsageScenario::VrGaming.spec(), 4, 0.05);
        let reqs = s.generate(7, 1.0);
        assert_eq!(reqs.len(), 4 * 165);
        for w in reqs.windows(2) {
            assert!(w[0].req.t_req <= w[1].req.t_req);
        }
        for u in 0..4u32 {
            assert_eq!(reqs.iter().filter(|r| r.user == u).count(), 165);
        }
    }

    #[test]
    fn request_count_matches_the_generated_stream() {
        for scenario in UsageScenario::ALL {
            let s = SessionSpec::uniform("s", scenario.spec(), 3, 0.01);
            for d in [1e-6, 1.0, 8.0] {
                assert_eq!(
                    s.request_count(d),
                    s.generate(5, d).len() as u64,
                    "{scenario} at {d} s"
                );
            }
        }
    }

    #[test]
    fn request_count_saturates_instead_of_overflowing() {
        // Each model's count saturates at u64::MAX for a huge finite
        // duration; their sum used to overflow (a panic in debug builds,
        // a wrapped count in release builds).
        let s = SessionSpec::uniform("s", UsageScenario::VrGaming.spec(), 2, 0.0);
        assert_eq!(s.request_count(1e300), u64::MAX);
    }

    #[test]
    fn user_zero_matches_single_user_stream() {
        let spec = UsageScenario::SocialInteractionA.spec();
        let single = LoadGenerator::new(99).generate(&spec, 1.0);
        let s = SessionSpec::uniform("s", spec, 2, 0.0);
        let merged = s.generate(99, 1.0);
        let user0: Vec<_> = merged
            .iter()
            .filter(|r| r.user == 0)
            .map(|r| r.req.clone())
            .collect();
        assert_eq!(user0, single);
    }

    #[test]
    fn users_get_independent_jitter() {
        let s = SessionSpec::uniform("s", UsageScenario::VrGaming.spec(), 2, 0.0);
        let reqs = s.generate(3, 1.0);
        let t0: Vec<f64> = reqs
            .iter()
            .filter(|r| r.user == 0)
            .map(|r| r.req.t_req)
            .collect();
        let t1: Vec<f64> = reqs
            .iter()
            .filter(|r| r.user == 1)
            .map(|r| r.req.t_req)
            .collect();
        assert_ne!(t0, t1, "users must not share jitter streams");
    }

    #[test]
    fn offsets_shift_both_times() {
        let spec = UsageScenario::ArGaming.spec();
        let base = SessionSpec::uniform("a", spec.clone(), 1, 0.0).generate(1, 1.0);
        let shifted = SessionSpec::new("b").with_user(spec, 0.25).generate(1, 1.0);
        for (a, b) in base.iter().zip(&shifted) {
            assert!((b.req.t_req - a.req.t_req - 0.25).abs() < 1e-12);
            assert!((b.req.t_deadline - a.req.t_deadline - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "offset")]
    fn negative_offset_rejected() {
        let _ = SessionSpec::new("s").with_user(UsageScenario::VrGaming.spec(), -1.0);
    }

    #[test]
    #[should_panic(expected = "at least one user")]
    fn zero_users_rejected() {
        let _ = SessionSpec::uniform("s", UsageScenario::VrGaming.spec(), 0, 0.0);
    }

    #[test]
    #[should_panic(expected = "no users")]
    fn generating_empty_session_rejected() {
        let _ = SessionSpec::new("s").generate(1, 1.0);
    }

    #[test]
    #[should_panic(expected = "unique")]
    fn duplicate_user_ids_rejected() {
        // Hand-built sessions (bypassing with_user's dense ids) must
        // not silently merge two users' streams.
        let u = SessionUser {
            user: 0,
            spec: Arc::new(UsageScenario::VrGaming.spec()),
            start_offset_s: 0.0,
        };
        let s = SessionSpec {
            name: "dup".into(),
            users: vec![u.clone(), u],
        };
        let _ = s.generate(1, 1.0);
    }
}
