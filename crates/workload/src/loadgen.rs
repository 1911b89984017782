//! Jittered inference-request generation (Box 1).
//!
//! For each active model in a scenario, the generator emits one
//! [`InferenceRequest`] per consumed sensor frame over the run
//! duration. Request times follow Definition 7:
//!
//! ```text
//! Treq = Linit + InFrameID / FPS_sensor + 2·Jt·(Dist(rand) − 0.5)
//! ```
//!
//! with `Dist` a Gaussian mapped into `[0, 1]` (the paper's default),
//! and deadlines follow Definition 8 at the *model's* consumption rate
//! (the arrival of the next frame the model would process — Figure 3's
//! "30 FPS deadline" for a 30 FPS model on a 60 FPS camera).
//!
//! Each model's requests form a lazy [`ModelStream`], strictly
//! increasing in `t_req` (consumed frames are at least 1/60 s apart and
//! the jitter is at most 0.1 ms, Table 3). A scenario or session only
//! interleaves those streams, which [`Arrivals`] does lazily instead of
//! materializing and sorting every request.

use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};
use std::iter::Peekable;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use xrbench_models::ModelId;

use crate::scenario::{ScenarioModel, ScenarioSpec};
use crate::session::SessionRequest;
use crate::sources::source_spec;

/// One inference request `IR = (µ, InFrameID)` (Definition 6) with its
/// materialized timing.
#[derive(Debug, Clone, PartialEq)]
pub struct InferenceRequest {
    /// The model to run.
    pub model: ModelId,
    /// The model-local frame index (0, 1, 2, ... at the model's rate).
    pub frame_id: u64,
    /// The sensor frame consumed (`InFrameID` at the sensor's rate).
    pub sensor_frame: u64,
    /// Jittered arrival time of the input data, in seconds
    /// (`Treq`, Definition 7).
    pub t_req: f64,
    /// Processing deadline in seconds (`Tdl`, Definition 8): the
    /// un-jittered arrival of the next consumed frame.
    pub t_deadline: f64,
}

impl InferenceRequest {
    /// The slack `Tsl = Tdl − Treq` (Definition 9).
    pub fn slack_s(&self) -> f64 {
        self.t_deadline - self.t_req
    }
}

/// Deterministic, seeded request generator.
///
/// Two generators with the same seed produce identical request streams
/// for the same scenario, which keeps whole-benchmark runs
/// reproducible while still modeling jitter.
#[derive(Debug, Clone)]
pub struct LoadGenerator {
    seed: u64,
}

impl LoadGenerator {
    /// Creates a generator with the given RNG seed.
    pub fn new(seed: u64) -> Self {
        Self { seed }
    }

    /// Generates all inference requests for `spec` over `duration_s`
    /// seconds, sorted by request time: [`LoadGenerator::arrivals`]
    /// collected.
    ///
    /// Each model emits `⌈target_fps · duration⌉` requests — the
    /// paper requires a number of runs equal to the target processing
    /// rate within the (default one-second) duration.
    ///
    /// # Panics
    ///
    /// Panics if `duration_s` is not positive.
    pub fn generate(&self, spec: &ScenarioSpec, duration_s: f64) -> Vec<InferenceRequest> {
        self.arrivals(spec, duration_s).map(|r| r.req).collect()
    }

    /// The requests of [`LoadGenerator::generate`], generated lazily in
    /// the same order and tagged as user 0 (the tag a single-scenario
    /// run carries in a simulation). Requests with equal `t_req` come
    /// in the order their models are listed in `spec`.
    ///
    /// # Panics
    ///
    /// Panics if `duration_s` is not positive.
    pub fn arrivals(&self, spec: &ScenarioSpec, duration_s: f64) -> Arrivals {
        assert!(duration_s > 0.0, "duration must be positive");
        Arrivals::new(
            spec.models
                .iter()
                .map(|sm| ModelStream::new(sm, self.seed, duration_s, 0, 0.0))
                .collect(),
        )
    }
}

/// One model's request stream for one user: the requests Box 1 defines
/// for the model over the run, generated one at a time in `t_req`
/// order and shifted by the user's start offset.
///
/// Streams are built by [`LoadGenerator::arrivals`] and
/// [`crate::SessionSpec::arrivals`], and consumed through [`Arrivals`].
#[derive(Debug, Clone)]
pub struct ModelStream {
    user: u32,
    model: ModelId,
    /// A per-(model, generator seed) RNG keeps streams independent.
    rng: StdRng,
    /// The next model-local frame index.
    frame: u64,
    /// The stream's length, `⌈target_fps · duration⌉`.
    frames: u64,
    /// Sensor frames per consumed frame (`FPS_sensor / FPS_model`).
    ratio: f64,
    fps: f64,
    linit_s: f64,
    jitter_s: f64,
    offset_s: f64,
}

impl ModelStream {
    /// The stream of `sm` for generator seed `seed`, starting
    /// `offset_s` after session start.
    ///
    /// # Panics
    ///
    /// Panics if the model's target rate exceeds its sensor's rate.
    pub(crate) fn new(
        sm: &ScenarioModel,
        seed: u64,
        duration_s: f64,
        user: u32,
        offset_s: f64,
    ) -> Self {
        let src = source_spec(sm.model.driving_source());
        let ratio = src.fps / sm.target_fps;
        assert!(
            ratio >= 1.0 - 1e-9,
            "{}: target rate {} exceeds sensor rate {}",
            sm.model,
            sm.target_fps,
            src.fps
        );
        Self {
            user,
            model: sm.model,
            rng: StdRng::seed_from_u64(
                seed ^ (sm.model as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            ),
            frame: 0,
            frames: sm.request_count(duration_s),
            ratio,
            fps: src.fps,
            linit_s: src.init_latency_ms / 1e3,
            jitter_s: src.jitter_ms / 1e3,
            offset_s,
        }
    }

    /// The `(user, model)` pair the stream belongs to.
    pub(crate) fn owner(&self) -> (u32, ModelId) {
        (self.user, self.model)
    }
}

impl Iterator for ModelStream {
    type Item = SessionRequest;

    fn next(&mut self) -> Option<SessionRequest> {
        if self.frame == self.frames {
            return None;
        }
        let k = self.frame;
        self.frame += 1;
        // Consumed sensor frames: floor(k * sensor/model) gives the 3:4
        // skip pattern for 45 FPS models on a 60 FPS camera and
        // every-other-frame for 30 FPS models.
        let sensor_frame = (k as f64 * self.ratio).floor() as u64;
        let next_frame = ((k + 1) as f64 * self.ratio).floor() as u64;
        let jitter = 2.0 * self.jitter_s * (gaussian_unit(&mut self.rng) - 0.5);
        let t_req = self.linit_s + sensor_frame as f64 / self.fps + jitter;
        let t_deadline = self.linit_s + next_frame as f64 / self.fps;
        Some(SessionRequest {
            user: self.user,
            req: InferenceRequest {
                model: self.model,
                frame_id: k,
                sensor_frame,
                // Adding a zero offset keeps every bit, since a stream
                // time is never -0.0.
                t_req: t_req + self.offset_s,
                t_deadline: t_deadline + self.offset_s,
            },
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = (self.frames - self.frame) as usize;
        (left, Some(left))
    }
}

/// Maps an `f64` to a `u64` whose unsigned order equals
/// [`f64::total_cmp`] order (the standard sign-flip trick), so times
/// compare as plain integers.
#[inline]
pub fn time_bits(x: f64) -> u64 {
    let b = x.to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b | (1 << 63)
    }
}

/// A lazy k-way merge of request streams, each sorted by `t_req`, into
/// one stream sorted by `(t_req, rank)`: a stream's rank is its
/// position in the list the merge was built from, and breaks exact
/// time ties.
///
/// The heap holds one head per stream, so a stream never competes with
/// itself and `(t_req, rank)` totally orders the output. The merge
/// holds one pending request per stream, however long the streams are.
///
/// # Panics
///
/// Iteration panics if a stream goes back in time: the merge checks
/// every emitted key against the previous one.
#[derive(Debug, Clone)]
pub struct Arrivals<S: Iterator<Item = SessionRequest> = ModelStream> {
    streams: Vec<Peekable<S>>,
    /// `Reverse((time_bits(t_req), rank))` of every stream's head.
    heap: BinaryHeap<Reverse<(u64, usize)>>,
    /// The key emitted last.
    last: (u64, usize),
}

impl<S: Iterator<Item = SessionRequest>> Arrivals<S> {
    /// Merges `streams`, ranked by their position in the list. The heap
    /// is sized here once and never grows.
    pub(crate) fn new(streams: Vec<S>) -> Self {
        let mut streams: Vec<Peekable<S>> = streams.into_iter().map(Iterator::peekable).collect();
        let mut heap = BinaryHeap::with_capacity(streams.len());
        for (rank, s) in streams.iter_mut().enumerate() {
            if let Some(head) = s.peek() {
                heap.push(Reverse((time_bits(head.req.t_req), rank)));
            }
        }
        Self {
            streams,
            heap,
            last: (0, 0),
        }
    }
}

impl<S: Iterator<Item = SessionRequest>> Iterator for Arrivals<S> {
    type Item = SessionRequest;

    fn next(&mut self) -> Option<SessionRequest> {
        let mut top = self.heap.peek_mut()?;
        let Reverse(key) = *top;
        assert!(
            key >= self.last,
            "requests must be sorted by t_req: stream {} went back in time",
            key.1
        );
        self.last = key;
        let stream = &mut self.streams[key.1];
        let head = stream.next().expect("a ranked stream has a head");
        match stream.peek() {
            // Replacing the top sifts the stream's next head down once.
            Some(next) => *top = Reverse((time_bits(next.req.t_req), key.1)),
            None => {
                PeekMut::pop(top);
            }
        }
        Some(head)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let pending = self.streams.iter().map(|s| s.size_hint().0).sum();
        (pending, None)
    }
}

/// Draws from a Gaussian squashed into `[0, 1]`: `N(0.5, 0.25²)`
/// clamped, matching Box 1's requirement `Dist(x) ∈ [0, 1]`.
fn gaussian_unit(rng: &mut StdRng) -> f64 {
    // Box–Muller transform.
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    // Every report's arrival jitter draws through this `ln` and `cos`.
    // lint:allow(libm): kept until host-independent versions replace them.
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    (0.5 + 0.25 * z).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::UsageScenario;
    use xrbench_models::ModelId;

    fn count(reqs: &[InferenceRequest], m: ModelId) -> usize {
        reqs.iter().filter(|r| r.model == m).count()
    }

    #[test]
    fn request_counts_match_target_rates() {
        let spec = UsageScenario::SocialInteractionA.spec();
        let reqs = LoadGenerator::new(7).generate(&spec, 1.0);
        assert_eq!(count(&reqs, ModelId::HandTracking), 30);
        assert_eq!(count(&reqs, ModelId::EyeSegmentation), 60);
        assert_eq!(count(&reqs, ModelId::GazeEstimation), 60);
        assert_eq!(count(&reqs, ModelId::DepthRefinement), 30);
    }

    #[test]
    fn requests_sorted_by_time() {
        let spec = UsageScenario::ArAssistant.spec();
        let reqs = LoadGenerator::new(3).generate(&spec, 1.0);
        for w in reqs.windows(2) {
            assert!(w[0].t_req <= w[1].t_req);
        }
    }

    #[test]
    fn deterministic_for_same_seed_different_across_seeds() {
        let spec = UsageScenario::VrGaming.spec();
        let a = LoadGenerator::new(11).generate(&spec, 1.0);
        let b = LoadGenerator::new(11).generate(&spec, 1.0);
        let c = LoadGenerator::new(12).generate(&spec, 1.0);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn jitter_bounded_by_jt() {
        let spec = UsageScenario::SocialInteractionA.spec();
        let reqs = LoadGenerator::new(5).generate(&spec, 2.0);
        for r in &reqs {
            let src = source_spec(r.model.driving_source());
            let nominal = src.init_latency_ms / 1e3 + r.sensor_frame as f64 / src.fps;
            let dev = (r.t_req - nominal).abs();
            assert!(
                dev <= src.jitter_ms / 1e3 + 1e-12,
                "{}: jitter {dev} exceeds Jt",
                r.model
            );
        }
    }

    #[test]
    fn skip_pattern_for_30fps_on_60fps_camera() {
        let spec = UsageScenario::SocialInteractionA.spec();
        let reqs = LoadGenerator::new(1).generate(&spec, 1.0);
        let ht: Vec<u64> = reqs
            .iter()
            .filter(|r| r.model == ModelId::HandTracking)
            .map(|r| r.sensor_frame)
            .collect();
        // Every other camera frame: 0, 2, 4, ...
        for (k, f) in ht.iter().enumerate() {
            assert_eq!(*f, 2 * k as u64);
        }
    }

    #[test]
    fn skip_pattern_for_45fps_on_60fps_camera() {
        let spec = UsageScenario::VrGaming.spec();
        let reqs = LoadGenerator::new(1).generate(&spec, 1.0);
        let ht: Vec<u64> = reqs
            .iter()
            .filter(|r| r.model == ModelId::HandTracking)
            .map(|r| r.sensor_frame)
            .collect();
        // 3-of-4 pattern: 0,1,2,4,5,6,8,...
        assert_eq!(&ht[..8], &[0, 1, 2, 4, 5, 6, 8, 9]);
        assert_eq!(ht.len(), 45);
    }

    #[test]
    fn deadline_is_next_consumed_frame() {
        let spec = UsageScenario::SocialInteractionA.spec();
        let reqs = LoadGenerator::new(1).generate(&spec, 1.0);
        let dr: Vec<&InferenceRequest> = reqs
            .iter()
            .filter(|r| r.model == ModelId::DepthRefinement)
            .collect();
        // 30 FPS model on 60 FPS camera: deadline gap = 2 frames.
        let gap = dr[0].t_deadline - (dr[0].t_req - (dr[0].t_req - dr[0].t_deadline + 2.0 / 60.0));
        assert!((gap - 2.0 / 60.0).abs() < 1e-9);
        // Figure 3: DR frame-0 deadline at Linit + 2/60 s.
        let linit = source_spec(ModelId::DepthRefinement.driving_source()).init_latency_ms / 1e3;
        assert!((dr[0].t_deadline - (linit + 2.0 / 60.0)).abs() < 1e-12);
    }

    #[test]
    fn slack_positive_in_expectation() {
        let spec = UsageScenario::VrGaming.spec();
        let reqs = LoadGenerator::new(9).generate(&spec, 1.0);
        let avg: f64 = reqs.iter().map(InferenceRequest::slack_s).sum::<f64>() / reqs.len() as f64;
        assert!(avg > 0.0);
    }

    #[test]
    fn longer_duration_scales_counts() {
        let spec = UsageScenario::VrGaming.spec();
        let reqs = LoadGenerator::new(2).generate(&spec, 3.0);
        assert_eq!(count(&reqs, ModelId::HandTracking), 135);
        assert_eq!(count(&reqs, ModelId::EyeSegmentation), 180);
    }

    #[test]
    #[should_panic(expected = "duration")]
    fn zero_duration_panics() {
        let spec = UsageScenario::VrGaming.spec();
        let _ = LoadGenerator::new(0).generate(&spec, 0.0);
    }

    /// A hand-built user-0 request of `model` at `t_req`.
    fn at(model: ModelId, frame_id: u64, t_req: f64) -> SessionRequest {
        SessionRequest {
            user: 0,
            req: InferenceRequest {
                model,
                frame_id,
                sensor_frame: frame_id,
                t_req,
                t_deadline: t_req + 0.01,
            },
        }
    }

    #[test]
    fn merge_orders_by_time_then_rank() {
        let streams = vec![
            vec![
                at(ModelId::EyeSegmentation, 0, 0.2),
                at(ModelId::EyeSegmentation, 1, 0.3),
            ],
            vec![
                at(ModelId::HandTracking, 0, 0.1),
                at(ModelId::HandTracking, 1, 0.2),
            ],
        ];
        let order: Vec<(ModelId, u64)> =
            Arrivals::new(streams.into_iter().map(Vec::into_iter).collect())
                .map(|r| (r.req.model, r.req.frame_id))
                .collect();
        // The tie at 0.2 s goes to the stream ranked first.
        assert_eq!(
            order,
            [
                (ModelId::HandTracking, 0),
                (ModelId::EyeSegmentation, 0),
                (ModelId::HandTracking, 1),
                (ModelId::EyeSegmentation, 1),
            ]
        );
    }

    #[test]
    #[should_panic(expected = "requests must be sorted by t_req")]
    fn merge_rejects_a_stream_going_back_in_time() {
        let streams = vec![
            vec![
                at(ModelId::HandTracking, 0, 0.1),
                at(ModelId::HandTracking, 1, 0.3),
            ],
            vec![
                at(ModelId::EyeSegmentation, 0, 0.2),
                at(ModelId::EyeSegmentation, 1, 0.15),
            ],
        ];
        let _ = Arrivals::new(streams.into_iter().map(Vec::into_iter).collect()).count();
    }

    #[test]
    fn mic_models_paced_at_3hz() {
        let spec = UsageScenario::OutdoorActivityA.spec();
        let reqs = LoadGenerator::new(4).generate(&spec, 1.0);
        let kd: Vec<&InferenceRequest> = reqs
            .iter()
            .filter(|r| r.model == ModelId::KeywordDetection)
            .collect();
        assert_eq!(kd.len(), 3);
        // 320 ms apart (3 FPS).
        let gap = kd[1].t_deadline - kd[0].t_deadline;
        assert!((gap - 1.0 / 3.0).abs() < 1e-9);
    }
}
