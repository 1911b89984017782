//! # xrbench-workload
//!
//! Usage scenarios, input sources, and load generation for XRBench.
//!
//! This crate encodes:
//!
//! * **Table 3** — the three input sources of a metaverse device
//!   (camera 60 FPS, lidar 60 FPS, microphone 3 FPS) with per-frame
//!   jitter ([`sources`]).
//! * **Table 2** — the seven usage scenarios with per-model target
//!   processing rates and the data/control dependencies of the eye and
//!   speech pipelines ([`scenario`]).
//! * **Box 1** — inference request times, deadlines, and slack,
//!   including the jitter term
//!   `2·Jt·(Dist(rand(inSrcID × InFrameID)) − 0.5)`, generated lazily
//!   per model and merged in time order ([`loadgen`]).
//!
//! Beyond the paper, the crate hosts the scenario composition engine:
//!
//! * a fluent, validated [`ScenarioBuilder`] (cycle detection,
//!   rate/probability sanity, no dependencies on absent models) that
//!   the seven Table 2 scenarios are themselves expressed through;
//! * a runtime [`ScenarioCatalog`] registry so user-defined scenarios
//!   flow through load generation, simulation, and scoring exactly
//!   like the built-ins;
//! * multi-user [`SessionSpec`]s that overlay N staggered, jittered
//!   scenario instances into one merged request stream ([`session`]);
//! * a declarative JSON spec format for scenarios and sessions
//!   ([`spec`]) whose loader funnels every document through the same
//!   validated builder — text files get code's diagnostics;
//! * a seeded procedural scenario generator ([`ScenarioSpace`]) for
//!   diversity sweeps beyond the Table 2 catalog ([`space`]).
//!
//! ## Example
//!
//! ```
//! use xrbench_workload::{UsageScenario, LoadGenerator};
//!
//! let spec = UsageScenario::VrGaming.spec();
//! let requests = LoadGenerator::new(42).generate(&spec, 1.0);
//! // 45 HT + 60 ES + 60 GE requests in one second.
//! assert_eq!(requests.len(), 45 + 60 + 60);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod catalog;
pub mod loadgen;
pub mod scenario;
pub mod session;
pub mod sources;
pub mod space;
pub mod spec;

pub use builder::{ScenarioBuildError, ScenarioBuilder};
pub use catalog::{CatalogError, ScenarioCatalog};
pub use loadgen::{Arrivals, InferenceRequest, LoadGenerator, ModelStream};
pub use scenario::{DependencyKind, ModelDependency, ScenarioModel, ScenarioSpec, UsageScenario};
pub use session::{SessionRequest, SessionSpec, SessionUser};
pub use sources::{source_spec, SourceSpec};
pub use space::ScenarioSpace;
pub use spec::{scenario_from_str, scenario_to_json, session_from_str, session_to_json, SpecError};
