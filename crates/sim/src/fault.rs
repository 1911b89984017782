//! The deterministic availability/fault process for dynamic fleets.
//!
//! Real XR deployments are not static: devices churn in and out,
//! engines get preempted by the OS, and thermal throttling derates
//! compute mid-session. This module models all of that as a
//! **seed-derived timeline of engine events** — engine down (failure
//! or preemption), engine up (recovery), and capacity changes
//! (throttling) — that the discrete-event engine injects between
//! completions and arrivals.
//!
//! Determinism is the design constraint everything here serves:
//!
//! * A [`FaultProcess`] is pure data (rates, mean durations, an
//!   optional throttle wave). [`FaultProcess::timeline`] expands it
//!   into a concrete [`FaultTimeline`] as a pure function of
//!   `(process, seed, engines, span)` — per-engine RNG streams are
//!   derived by splitmix64 so engine `k`'s events never depend on how
//!   many other engines exist.
//! * The timeline seed is derived from the *simulation* seed (see
//!   [`fault_seed`]). In a fleet, every replica's `SimConfig` seed is
//!   already `replica_seed(base, group, replica)`, so the fault
//!   timeline is part of the replica's identity and fleet merges stay
//!   exact for any worker count.
//! * Down/up events per engine are strictly alternating: failure and
//!   preemption intervals are generated independently and union-merged,
//!   with the merged interval attributed to whichever process started
//!   it (that attribution picks the [`crate::DropReason`] under the
//!   [`RecoveryPolicy::Drop`] policy).
//!
//! A process with zero rates and no effective throttle is *quiet*
//! ([`FaultProcess::is_quiet`]): runs with a quiet process are routed
//! through the unmodified fault-free engine path and are bit-identical
//! to runs without any fault process at all.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Salt mixed into the simulation seed to derive the fault-timeline
/// seed, so the availability process never correlates with load-gen
/// jitter or cascade trigger draws derived from the same seed.
pub const FAULT_SEED_SALT: u64 = 0x5DEE_CE66_D1CE_FA17;

/// splitmix64 finalization mix — the same construction the fleet layer
/// uses for replica seeds.
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x
}

/// Derives the fault-timeline seed from a simulation seed. Part of the
/// public contract: a fleet replica's fault timeline is
/// `fault_seed(replica_seed(base, group, replica))`.
pub fn fault_seed(sim_seed: u64) -> u64 {
    mix64(sim_seed ^ FAULT_SEED_SALT)
}

/// What kind of outage took an engine down — determines the
/// [`crate::DropReason`] attributed to revoked in-flight work under
/// [`RecoveryPolicy::Drop`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Engine/device failure (churn): in-flight work is `DeviceLost`.
    Failure,
    /// OS/runtime preemption: in-flight work is `Preempted`.
    Preemption,
}

/// One timeline action applied to a single engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultAction {
    /// The engine goes offline; any in-flight inference is revoked.
    Down(FaultKind),
    /// The engine comes back online and can be dispatched to again.
    Up,
    /// The engine's capacity multiplier changes (thermal throttling):
    /// future dispatches on it run at `latency / multiplier`.
    Capacity(f64),
}

/// One scheduled fault event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Simulated time the event fires (seconds).
    pub t: f64,
    /// Engine index the event applies to.
    pub engine: u32,
    /// What happens.
    pub action: FaultAction,
}

/// A concrete, fully-expanded fault schedule: events sorted by
/// `(t, engine)` with per-engine emission order preserved for ties.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultTimeline {
    events: Vec<FaultEvent>,
}

impl FaultTimeline {
    /// An empty timeline (no faults ever fire).
    pub fn empty() -> Self {
        Self::default()
    }

    /// A hand-built timeline; `events` must already be in firing order.
    #[cfg(test)]
    pub(crate) fn from_events(events: Vec<FaultEvent>) -> Self {
        assert!(
            events.windows(2).all(|w| w[0].t <= w[1].t),
            "fault events must be time-sorted"
        );
        Self { events }
    }

    /// The events in firing order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Whether the timeline carries no events at all.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// What to do with an inference that was in flight on an engine that
/// went down.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecoveryPolicy {
    /// Discard the work: the frame is dropped as `Preempted` /
    /// `DeviceLost` depending on the outage kind (the baseline).
    #[default]
    Drop,
    /// Put the frame back on the ready queue; it restarts from scratch
    /// on whatever engine the scheduler next assigns.
    Requeue,
    /// Checkpoint-and-migrate: the frame re-enters the ready queue
    /// carrying its remaining-work fraction, so the next dispatch only
    /// pays for the unfinished part.
    Migrate,
}

impl RecoveryPolicy {
    /// All policies, in comparison-report order.
    pub const ALL: [RecoveryPolicy; 3] = [
        RecoveryPolicy::Drop,
        RecoveryPolicy::Requeue,
        RecoveryPolicy::Migrate,
    ];

    /// The lowercase wire name (`drop` / `requeue` / `migrate`).
    pub fn as_str(&self) -> &'static str {
        match self {
            RecoveryPolicy::Drop => "drop",
            RecoveryPolicy::Requeue => "requeue",
            RecoveryPolicy::Migrate => "migrate",
        }
    }

    /// Parses a wire name; `None` for anything unknown.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "drop" => Some(RecoveryPolicy::Drop),
            "requeue" => Some(RecoveryPolicy::Requeue),
            "migrate" => Some(RecoveryPolicy::Migrate),
            _ => None,
        }
    }
}

impl std::fmt::Display for RecoveryPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A deterministic thermal-throttling square wave: for `duty · period`
/// out of every `period` seconds the engine runs at `factor` of its
/// nominal capacity. Each engine gets a seed-derived phase offset so a
/// fleet's engines do not throttle in lockstep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThrottleSpec {
    /// Wave period in seconds (must be positive).
    pub period_s: f64,
    /// Throttled fraction of each period, in `[0, 1]`.
    pub duty: f64,
    /// Capacity multiplier while throttled, in `(0, 1]`.
    pub factor: f64,
}

/// The declarative availability/fault process for one device: Poisson
/// failure and preemption outages (exponential inter-arrival and
/// duration) plus an optional throttle wave. Expand it into a concrete
/// schedule with [`FaultProcess::timeline`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultProcess {
    /// Engine-failure rate (events per second per engine).
    pub failure_rate_per_s: f64,
    /// Mean failure outage duration (seconds).
    pub mean_downtime_s: f64,
    /// Preemption rate (events per second per engine).
    pub preemption_rate_per_s: f64,
    /// Mean preemption duration (seconds).
    pub mean_preemption_s: f64,
    /// Optional thermal-throttling wave.
    pub throttle: Option<ThrottleSpec>,
}

impl Default for FaultProcess {
    fn default() -> Self {
        Self {
            failure_rate_per_s: 0.0,
            mean_downtime_s: 0.0,
            preemption_rate_per_s: 0.0,
            mean_preemption_s: 0.0,
            throttle: None,
        }
    }
}

impl FaultProcess {
    /// Whether the process can never produce an event: zero outage
    /// rates and no effective throttle. Quiet processes are routed
    /// through the unmodified fault-free engine path.
    pub fn is_quiet(&self) -> bool {
        self.failure_rate_per_s == 0.0
            && self.preemption_rate_per_s == 0.0
            && self
                .throttle
                .is_none_or(|t| t.factor >= 1.0 || t.duty <= 0.0)
    }

    /// Validates the process parameters, returning a human-readable
    /// description of the first violation.
    ///
    /// # Errors
    ///
    /// Rates must be finite and non-negative; mean durations must be
    /// finite and non-negative (and positive when the matching rate is
    /// positive); a throttle needs `period_s > 0`, `duty` in `[0, 1]`,
    /// and `factor` in `(0, 1]`.
    pub fn validate(&self) -> Result<(), String> {
        let rate = |name: &str, v: f64| {
            if !v.is_finite() || v < 0.0 {
                Err(format!("{name} must be finite and non-negative, got {v}"))
            } else {
                Ok(())
            }
        };
        rate("failure_rate_per_s", self.failure_rate_per_s)?;
        rate("mean_downtime_s", self.mean_downtime_s)?;
        rate("preemption_rate_per_s", self.preemption_rate_per_s)?;
        rate("mean_preemption_s", self.mean_preemption_s)?;
        if self.failure_rate_per_s > 0.0 && self.mean_downtime_s <= 0.0 {
            return Err("mean_downtime_s must be positive when failure_rate_per_s is".to_string());
        }
        if self.preemption_rate_per_s > 0.0 && self.mean_preemption_s <= 0.0 {
            return Err(
                "mean_preemption_s must be positive when preemption_rate_per_s is".to_string(),
            );
        }
        if let Some(t) = self.throttle {
            if !t.period_s.is_finite() || t.period_s <= 0.0 {
                return Err(format!(
                    "throttle_period_s must be finite and positive, got {}",
                    t.period_s
                ));
            }
            if !t.duty.is_finite() || !(0.0..=1.0).contains(&t.duty) {
                return Err(format!("throttle_duty must be in [0, 1], got {}", t.duty));
            }
            if !t.factor.is_finite() || t.factor <= 0.0 || t.factor > 1.0 {
                return Err(format!(
                    "throttle_factor must be in (0, 1], got {}",
                    t.factor
                ));
            }
        }
        Ok(())
    }

    /// The long-run fraction of time an engine is *up* under this
    /// process (alternating-renewal availability), ignoring throttling.
    pub fn mean_availability(&self) -> f64 {
        let a_fail = 1.0 / (1.0 + self.failure_rate_per_s * self.mean_downtime_s);
        let a_preempt = 1.0 / (1.0 + self.preemption_rate_per_s * self.mean_preemption_s);
        a_fail * a_preempt
    }

    /// The mean capacity multiplier the throttle wave applies (1.0
    /// without a throttle).
    pub fn mean_capacity(&self) -> f64 {
        match self.throttle {
            Some(t) => t.duty * t.factor + (1.0 - t.duty),
            None => 1.0,
        }
    }

    /// Expands the process into a concrete per-engine event schedule
    /// over `[0, span_s)`. A pure function of its arguments: the same
    /// `(process, seed, num_engines, span_s)` always yields the same
    /// timeline, and engine `k`'s events are independent of
    /// `num_engines`.
    pub fn timeline(&self, seed: u64, num_engines: usize, span_s: f64) -> FaultTimeline {
        assert!(
            self.validate().is_ok(),
            "invalid fault process: {:?}",
            self.validate()
        );
        let mut events: Vec<FaultEvent> = Vec::new();
        for engine in 0..num_engines {
            let eseed = mix64(seed ^ (engine as u64).wrapping_mul(0xA076_1D64_78BD_642F));
            self.engine_events(eseed, engine as u32, span_s, &mut events);
        }
        // Stable sort: per-engine emission order is preserved for
        // same-(t, engine) ties (throttle window boundaries rely on
        // it), and cross-engine ties break by engine index.
        events.sort_by(|a, b| a.t.total_cmp(&b.t).then_with(|| a.engine.cmp(&b.engine)));
        FaultTimeline { events }
    }

    /// Emits one engine's events (outages union-merged, then the
    /// throttle wave) in nondecreasing time order per stream.
    fn engine_events(&self, eseed: u64, engine: u32, span_s: f64, out: &mut Vec<FaultEvent>) {
        // (start, end, kind) outage intervals from both processes.
        let mut intervals: Vec<(f64, f64, FaultKind)> = Vec::new();
        draw_intervals(
            self.failure_rate_per_s,
            self.mean_downtime_s,
            FaultKind::Failure,
            mix64(eseed ^ 0x0F01),
            span_s,
            &mut intervals,
        );
        draw_intervals(
            self.preemption_rate_per_s,
            self.mean_preemption_s,
            FaultKind::Preemption,
            mix64(eseed ^ 0x0F02),
            span_s,
            &mut intervals,
        );
        intervals.sort_by(|a, b| a.0.total_cmp(&b.0).then_with(|| b.1.total_cmp(&a.1)));
        // Union-merge overlapping outages so down/up strictly
        // alternate; the merged outage keeps the kind of whichever
        // interval opened it.
        let mut i = 0;
        while i < intervals.len() {
            let (start, mut end, kind) = intervals[i];
            i += 1;
            while i < intervals.len() && intervals[i].0 <= end {
                end = end.max(intervals[i].1);
                i += 1;
            }
            out.push(FaultEvent {
                t: start,
                engine,
                action: FaultAction::Down(kind),
            });
            out.push(FaultEvent {
                t: end,
                engine,
                action: FaultAction::Up,
            });
        }
        if let Some(th) = self.throttle {
            if th.factor < 1.0 && th.duty > 0.0 {
                let mut rng = StdRng::seed_from_u64(mix64(eseed ^ 0x0F03));
                let phase = rng.gen_range(0.0..1.0) * th.period_s;
                // The wave starts one period before 0 so a window
                // already open at t = 0 is represented.
                let mut k = 0u64;
                loop {
                    let start = phase + (k as f64 - 1.0) * th.period_s;
                    if start >= span_s {
                        break;
                    }
                    let end = start + th.duty * th.period_s;
                    if end > 0.0 {
                        out.push(FaultEvent {
                            t: start.max(0.0),
                            engine,
                            action: FaultAction::Capacity(th.factor),
                        });
                        if end < span_s {
                            out.push(FaultEvent {
                                t: end,
                                engine,
                                action: FaultAction::Capacity(1.0),
                            });
                        }
                    }
                    k += 1;
                }
            }
        }
    }
}

/// Draws exponential `(start, end, kind)` outage intervals over
/// `[0, span_s)` for one Poisson process.
fn draw_intervals(
    rate_per_s: f64,
    mean_duration_s: f64,
    kind: FaultKind,
    seed: u64,
    span_s: f64,
    out: &mut Vec<(f64, f64, FaultKind)>,
) {
    if rate_per_s <= 0.0 {
        return;
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut exp = |mean: f64| -> f64 {
        // Inverse-CDF exponential from a [0, 1) uniform; 1 - u is in
        // (0, 1] so the log is finite.
        let u: f64 = rng.gen_range(0.0..1.0);
        -mean * (1.0 - u).ln()
    };
    let mut t = 0.0f64;
    loop {
        t += exp(1.0 / rate_per_s);
        if t >= span_s {
            break;
        }
        let duration = exp(mean_duration_s);
        out.push((t, t + duration, kind));
        t += duration;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn churn() -> FaultProcess {
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

    #[test]
    fn timeline_is_a_pure_function_of_its_inputs() {
        let p = churn();
        let a = p.timeline(42, 4, 1.0);
        let b = p.timeline(42, 4, 1.0);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        let c = p.timeline(43, 4, 1.0);
        assert_ne!(a, c, "different seeds must differ");
    }

    #[test]
    fn engine_streams_are_independent_of_engine_count() {
        let p = churn();
        let four = p.timeline(7, 4, 1.0);
        let eight = p.timeline(7, 8, 1.0);
        let first_four = |t: &FaultTimeline| {
            t.events()
                .iter()
                .filter(|e| e.engine < 4)
                .copied()
                .collect::<Vec<_>>()
        };
        assert_eq!(first_four(&four), first_four(&eight));
    }

    #[test]
    fn down_up_strictly_alternate_per_engine() {
        let p = churn();
        let tl = p.timeline(11, 3, 2.0);
        for e in 0..3u32 {
            let mut down = false;
            for ev in tl.events().iter().filter(|ev| ev.engine == e) {
                match ev.action {
                    FaultAction::Down(_) => {
                        assert!(!down, "nested Down on engine {e}");
                        down = true;
                    }
                    FaultAction::Up => {
                        assert!(down, "Up without Down on engine {e}");
                        down = false;
                    }
                    FaultAction::Capacity(_) => {}
                }
            }
        }
    }

    #[test]
    fn events_are_time_sorted() {
        let tl = churn().timeline(5, 4, 1.5);
        for w in tl.events().windows(2) {
            assert!(w[0].t <= w[1].t);
        }
        assert!(tl.events().iter().all(|e| e.t >= 0.0));
    }

    #[test]
    fn quiet_process_produces_nothing() {
        let p = FaultProcess::default();
        assert!(p.is_quiet());
        assert!(p.timeline(1, 8, 1.0).is_empty());
        let ineffective_throttle = FaultProcess {
            throttle: Some(ThrottleSpec {
                period_s: 0.1,
                duty: 0.5,
                factor: 1.0,
            }),
            ..FaultProcess::default()
        };
        assert!(ineffective_throttle.is_quiet());
        assert!(ineffective_throttle.timeline(1, 8, 1.0).is_empty());
    }

    #[test]
    fn validate_rejects_bad_parameters() {
        let bad = [
            FaultProcess {
                failure_rate_per_s: -1.0,
                ..FaultProcess::default()
            },
            FaultProcess {
                failure_rate_per_s: f64::NAN,
                ..FaultProcess::default()
            },
            FaultProcess {
                failure_rate_per_s: 1.0,
                mean_downtime_s: 0.0,
                ..FaultProcess::default()
            },
            FaultProcess {
                throttle: Some(ThrottleSpec {
                    period_s: 0.0,
                    duty: 0.5,
                    factor: 0.5,
                }),
                ..FaultProcess::default()
            },
            FaultProcess {
                throttle: Some(ThrottleSpec {
                    period_s: 0.1,
                    duty: 1.5,
                    factor: 0.5,
                }),
                ..FaultProcess::default()
            },
            FaultProcess {
                throttle: Some(ThrottleSpec {
                    period_s: 0.1,
                    duty: 0.5,
                    factor: 0.0,
                }),
                ..FaultProcess::default()
            },
        ];
        for p in bad {
            assert!(p.validate().is_err(), "{p:?}");
        }
        assert!(churn().validate().is_ok());
    }

    #[test]
    fn availability_matches_renewal_theory() {
        let p = FaultProcess {
            failure_rate_per_s: 1.0,
            mean_downtime_s: 1.0,
            ..FaultProcess::default()
        };
        assert!((p.mean_availability() - 0.5).abs() < 1e-12);
        assert!((churn().mean_capacity() - (0.4 * 0.5 + 0.6)).abs() < 1e-12);
    }

    #[test]
    fn recovery_policy_round_trips_wire_names() {
        for p in RecoveryPolicy::ALL {
            assert_eq!(RecoveryPolicy::parse(p.as_str()), Some(p));
        }
        assert_eq!(RecoveryPolicy::parse("teleport"), None);
        assert_eq!(RecoveryPolicy::default(), RecoveryPolicy::Drop);
    }
}
