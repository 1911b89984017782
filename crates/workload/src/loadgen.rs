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

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use xrbench_models::ModelId;

use crate::scenario::ScenarioSpec;
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
    /// seconds, sorted by request time.
    ///
    /// Each model emits `⌈target_fps · duration⌉` requests — the
    /// paper requires a number of runs equal to the target processing
    /// rate within the (default one-second) duration.
    ///
    /// # Panics
    ///
    /// Panics if `duration_s` is not positive.
    pub fn generate(&self, spec: &ScenarioSpec, duration_s: f64) -> Vec<InferenceRequest> {
        assert!(duration_s > 0.0, "duration must be positive");
        let mut out = Vec::new();
        for sm in &spec.models {
            let src = source_spec(sm.model.driving_source());
            // A per-(model, scenario) RNG keeps streams independent.
            let mut rng = StdRng::seed_from_u64(
                self.seed ^ (sm.model as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            );
            let n = sm.request_count(duration_s);
            let ratio = src.fps / sm.target_fps;
            assert!(
                ratio >= 1.0 - 1e-9,
                "{}: target rate {} exceeds sensor rate {}",
                sm.model,
                sm.target_fps,
                src.fps
            );
            let linit = src.init_latency_ms / 1e3;
            let jt = src.jitter_ms / 1e3;
            for k in 0..n {
                // Consumed sensor frames: floor(k * sensor/model) gives
                // the 3:4 skip pattern for 45 FPS models on a 60 FPS
                // camera and every-other-frame for 30 FPS models.
                let sensor_frame = (k as f64 * ratio).floor() as u64;
                let next_frame = ((k + 1) as f64 * ratio).floor() as u64;
                let jitter = 2.0 * jt * (gaussian_unit(&mut rng) - 0.5);
                let t_req = linit + sensor_frame as f64 / src.fps + jitter;
                let t_deadline = linit + next_frame as f64 / src.fps;
                out.push(InferenceRequest {
                    model: sm.model,
                    frame_id: k,
                    sensor_frame,
                    t_req,
                    t_deadline,
                });
            }
        }
        out.sort_by(|a, b| a.t_req.total_cmp(&b.t_req));
        out
    }
}

/// Draws from a Gaussian squashed into `[0, 1]`: `N(0.5, 0.25²)`
/// clamped, matching Box 1's requirement `Dist(x) ∈ [0, 1]`.
fn gaussian_unit(rng: &mut StdRng) -> f64 {
    // Box–Muller transform.
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
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
