//! Usage scenarios and target processing rates (Table 2).
//!
//! A usage scenario `θ = {(µ, Dep_µ, FPS_model)}` (Definition 4) lists
//! the active unit models with their target processing rates and
//! model-level dependencies. The benchmark suite `Ω` (Definition 5) is
//! the set of all seven scenarios.

use std::fmt;

use xrbench_models::ModelId;

/// The kind of a model-level dependency (Table 2: "dep: D" / "dep: C").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DependencyKind {
    /// Data dependency: the downstream model consumes the upstream
    /// model's output (e.g. eye segmentation → gaze estimation).
    Data,
    /// Control dependency: the upstream model's *result* decides
    /// whether the downstream model runs at all (e.g. keyword
    /// detection → speech recognition).
    Control,
}

impl fmt::Display for DependencyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DependencyKind::Data => "Data",
            DependencyKind::Control => "Control",
        })
    }
}

/// A dependency edge of one scenario model on an upstream model.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelDependency {
    /// The model that must complete first (`Dep_µ` member).
    pub upstream: ModelId,
    /// Data or control dependency.
    pub kind: DependencyKind,
    /// The probability that the upstream result triggers this model
    /// (§4.1 "Modeling Dynamic Cascading"). `1.0` for pure data
    /// dependencies; the keyword-utterance probability for KD → SR
    /// (0.2 for outdoor scenarios, 0.5 for AR assistant); swept for
    /// ES → GE in the Figure 7 deep dive.
    pub trigger_probability: f64,
}

/// One active model within a usage scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioModel {
    /// The unit model.
    pub model: ModelId,
    /// Target processing rate in inferences per second (`FPS_model`).
    pub target_fps: f64,
    /// Upstream dependencies (empty for independent models).
    pub deps: Vec<ModelDependency>,
}

impl ScenarioModel {
    /// How many requests the model issues over `duration_s` seconds:
    /// `⌈target_fps · duration⌉`, the count [`crate::LoadGenerator`]
    /// emits for it.
    pub fn request_count(&self, duration_s: f64) -> u64 {
        (self.target_fps * duration_s).ceil() as u64
    }
}

/// A fully-specified usage scenario (Definition 4).
///
/// Specs are *open*: the seven Table 2 scenarios are ordinary values
/// built through [`crate::ScenarioBuilder`] and registered in
/// [`crate::ScenarioCatalog::builtin`], and user-defined scenarios
/// flow through load generation, simulation, and scoring identically.
/// Use the builder to construct validated specs — it rejects unknown
/// upstream models, dependency cycles, and insane rates.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Display name (unique within a catalog).
    pub name: String,
    /// One-line description of the usage the scenario models.
    pub description: String,
    /// The active models with rates and dependencies.
    pub models: Vec<ScenarioModel>,
}

impl ScenarioSpec {
    /// Looks up the entry for a model, if active in this scenario.
    pub fn model(&self, id: ModelId) -> Option<&ScenarioModel> {
        self.models.iter().find(|m| m.model == id)
    }

    /// Number of active models (`K = NumModels(S)`).
    pub fn num_models(&self) -> usize {
        self.models.len()
    }

    /// Whether the scenario contains a probabilistic dependency,
    /// making its simulated workload dynamic across seeds (§4.1).
    pub fn is_dynamic(&self) -> bool {
        self.models
            .iter()
            .any(|m| m.deps.iter().any(|d| d.trigger_probability < 1.0))
    }

    /// Returns a copy with the ES → GE trigger probability replaced
    /// (the Figure 7 cascading-probability sweep).
    ///
    /// # Panics
    ///
    /// Panics if `probability` is outside `[0, 1]`.
    pub fn with_eye_cascade_probability(mut self, probability: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&probability),
            "probability must be in [0, 1], got {probability}"
        );
        for m in &mut self.models {
            if m.model == ModelId::GazeEstimation {
                for d in &mut m.deps {
                    if d.upstream == ModelId::EyeSegmentation {
                        d.trigger_probability = probability;
                    }
                }
            }
        }
        self
    }
}

/// The seven XRBench usage scenarios (Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum UsageScenario {
    /// AR messaging with AR object rendering.
    SocialInteractionA,
    /// In-person interaction with AR glasses.
    SocialInteractionB,
    /// Hiking with smart photo capture.
    OutdoorActivityA,
    /// Rest during hike (hand tracking engaged).
    OutdoorActivityB,
    /// Urban walk with informative AR objects.
    ArAssistant,
    /// Gaming with AR objects.
    ArGaming,
    /// Highly-interactive immersive VR gaming.
    VrGaming,
}

impl UsageScenario {
    /// All scenarios, in Table 2 order (the benchmark suite `Ω`).
    pub const ALL: [UsageScenario; 7] = [
        UsageScenario::SocialInteractionA,
        UsageScenario::SocialInteractionB,
        UsageScenario::OutdoorActivityA,
        UsageScenario::OutdoorActivityB,
        UsageScenario::ArAssistant,
        UsageScenario::ArGaming,
        UsageScenario::VrGaming,
    ];

    /// The scenario's display name.
    pub fn name(&self) -> &'static str {
        match self {
            UsageScenario::SocialInteractionA => "Social Interaction A",
            UsageScenario::SocialInteractionB => "Social Interaction B",
            UsageScenario::OutdoorActivityA => "Outdoor Activity A",
            UsageScenario::OutdoorActivityB => "Outdoor Activity B",
            UsageScenario::ArAssistant => "AR Assistant",
            UsageScenario::ArGaming => "AR Gaming",
            UsageScenario::VrGaming => "VR Gaming",
        }
    }

    /// The example usage description from Table 2.
    pub fn description(&self) -> &'static str {
        match self {
            UsageScenario::SocialInteractionA => "AR messaging with AR object rendering",
            UsageScenario::SocialInteractionB => "In-person interaction with AR glasses",
            UsageScenario::OutdoorActivityA => "Hiking with smart photo capture",
            UsageScenario::OutdoorActivityB => "Rest during hike",
            UsageScenario::ArAssistant => "Urban walk with informative AR objects",
            UsageScenario::ArGaming => "Gaming with AR object",
            UsageScenario::VrGaming => "Highly-interactive immersive VR gaming",
        }
    }

    /// Whether the scenario contains a probabilistic control
    /// dependency, making its workload dynamic (the paper's artifact
    /// notes Outdoor A/B and AR Assistant produce non-deterministic
    /// results).
    pub fn is_dynamic(&self) -> bool {
        self.spec().is_dynamic()
    }

    /// Builds the Table 2 specification for this scenario through
    /// [`crate::ScenarioBuilder`].
    ///
    /// Keyword-utterance probabilities follow §4.1: 0.2 for the
    /// outdoor scenarios, 0.5 for AR assistant. The ES → GE data
    /// dependency defaults to probability 1.0.
    pub fn spec(&self) -> ScenarioSpec {
        use DependencyKind::{Control, Data};
        use ModelId::*;
        let b = crate::ScenarioBuilder::new(self.name()).describe(self.description());
        let b = match self {
            UsageScenario::SocialInteractionA => b
                .model(HandTracking, 30.0)
                .model(EyeSegmentation, 60.0)
                .dependent(GazeEstimation, 60.0, EyeSegmentation, Data, 1.0)
                .model(DepthRefinement, 30.0),
            UsageScenario::SocialInteractionB => b
                .model(EyeSegmentation, 60.0)
                .dependent(GazeEstimation, 60.0, EyeSegmentation, Data, 1.0)
                .model(DepthRefinement, 30.0),
            UsageScenario::OutdoorActivityA => b
                .model(KeywordDetection, 3.0)
                .dependent(SpeechRecognition, 3.0, KeywordDetection, Control, 0.2)
                .model(ObjectDetection, 10.0)
                .model(DepthRefinement, 30.0),
            UsageScenario::OutdoorActivityB => b
                .model(HandTracking, 30.0)
                .model(KeywordDetection, 3.0)
                .dependent(SpeechRecognition, 3.0, KeywordDetection, Control, 0.2),
            UsageScenario::ArAssistant => b
                .model(KeywordDetection, 3.0)
                .dependent(SpeechRecognition, 3.0, KeywordDetection, Control, 0.5)
                .model(SemanticSegmentation, 10.0)
                .model(ObjectDetection, 10.0)
                .model(DepthEstimation, 30.0)
                .model(DepthRefinement, 30.0),
            UsageScenario::ArGaming => b
                .model(HandTracking, 45.0)
                .model(DepthEstimation, 30.0)
                .model(PlaneDetection, 30.0),
            UsageScenario::VrGaming => b
                .model(HandTracking, 45.0)
                .model(EyeSegmentation, 60.0)
                .dependent(GazeEstimation, 60.0, EyeSegmentation, Data, 1.0),
        };
        b.build()
            .expect("the Table 2 scenarios are valid by construction")
    }
}

impl fmt::Display for UsageScenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xrbench_models::ModelId::*;

    #[test]
    fn seven_scenarios() {
        assert_eq!(UsageScenario::ALL.len(), 7);
    }

    #[test]
    fn model_counts_match_section_4_4() {
        // "AR assistant and VR gaming scenarios include the most (6)
        //  and least (3) number of models, respectively."
        assert_eq!(UsageScenario::ArAssistant.spec().num_models(), 6);
        assert_eq!(UsageScenario::VrGaming.spec().num_models(), 3);
        let max = UsageScenario::ALL
            .iter()
            .map(|s| s.spec().num_models())
            .max()
            .unwrap();
        let min = UsageScenario::ALL
            .iter()
            .map(|s| s.spec().num_models())
            .min()
            .unwrap();
        assert_eq!((max, min), (6, 3));
    }

    #[test]
    fn social_a_matches_figure3() {
        // Figure 3: HT 30, ES 60, GE 60, DR 30 with ES → GE data dep.
        let spec = UsageScenario::SocialInteractionA.spec();
        assert_eq!(spec.model(HandTracking).unwrap().target_fps, 30.0);
        assert_eq!(spec.model(EyeSegmentation).unwrap().target_fps, 60.0);
        let ge = spec.model(GazeEstimation).unwrap();
        assert_eq!(ge.target_fps, 60.0);
        assert_eq!(ge.deps[0].upstream, EyeSegmentation);
        assert_eq!(ge.deps[0].kind, DependencyKind::Data);
        assert_eq!(spec.model(DepthRefinement).unwrap().target_fps, 30.0);
    }

    #[test]
    fn ar_gaming_matches_figure6_models() {
        // Figure 6 legend: Depth Estimation, Hand Tracking, Plane
        // Detection; HT at 45, DE/PD at 30.
        let spec = UsageScenario::ArGaming.spec();
        assert_eq!(spec.model(HandTracking).unwrap().target_fps, 45.0);
        assert_eq!(spec.model(DepthEstimation).unwrap().target_fps, 30.0);
        assert_eq!(spec.model(PlaneDetection).unwrap().target_fps, 30.0);
    }

    #[test]
    fn speech_pipeline_is_control_dependent() {
        for (s, p) in [
            (UsageScenario::OutdoorActivityA, 0.2),
            (UsageScenario::OutdoorActivityB, 0.2),
            (UsageScenario::ArAssistant, 0.5),
        ] {
            let spec = s.spec();
            let sr = spec.model(SpeechRecognition).unwrap();
            assert_eq!(sr.deps[0].kind, DependencyKind::Control, "{s}");
            assert_eq!(sr.deps[0].trigger_probability, p, "{s}");
            // SR rate models the 320 ms Emformer context (3 Hz).
            assert_eq!(sr.target_fps, 3.0, "{s}");
        }
    }

    #[test]
    fn dynamic_scenarios_are_the_speech_ones() {
        let dynamic: Vec<_> = UsageScenario::ALL
            .iter()
            .filter(|s| s.is_dynamic())
            .map(|s| s.name())
            .collect();
        assert_eq!(
            dynamic,
            vec!["Outdoor Activity A", "Outdoor Activity B", "AR Assistant"]
        );
    }

    #[test]
    fn eye_cascade_probability_override() {
        let spec = UsageScenario::VrGaming
            .spec()
            .with_eye_cascade_probability(0.25);
        let ge = spec.model(GazeEstimation).unwrap();
        assert_eq!(ge.deps[0].trigger_probability, 0.25);
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn eye_cascade_probability_rejects_out_of_range() {
        let _ = UsageScenario::VrGaming
            .spec()
            .with_eye_cascade_probability(1.5);
    }

    #[test]
    fn target_rates_use_paper_levels() {
        // High (60/45), Medium (30), Low (10), and 3 Hz for speech.
        for s in UsageScenario::ALL {
            for m in s.spec().models {
                assert!(
                    [60.0, 45.0, 30.0, 10.0, 3.0].contains(&m.target_fps),
                    "{s}/{}: unexpected rate {}",
                    m.model,
                    m.target_fps
                );
            }
        }
    }

    #[test]
    fn names_and_descriptions_nonempty() {
        for s in UsageScenario::ALL {
            assert!(!s.name().is_empty());
            assert!(!s.description().is_empty());
        }
    }
}
