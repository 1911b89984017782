//! # xrbench-core
//!
//! The XRBench benchmark harness (paper Figure 2): it wires together
//! the workload descriptions (`xrbench-workload`), the benchmark
//! runtime (`xrbench-sim`), the evaluated ML system (any
//! [`xrbench_sim::CostProvider`], typically an
//! [`xrbench_accel::AcceleratorSystem`]), and the scoring module
//! (`xrbench-score`), producing [`ScenarioReport`]s and whole-suite
//! [`BenchmarkReport`]s with the overall XRBench Score.
//!
//! The [`figures`] module regenerates the data behind every figure in
//! the paper's evaluation (Figures 5, 6, 7, and the appendix Figure 8).
//!
//! ## Example
//!
//! ```
//! use xrbench_core::Harness;
//! use xrbench_accel::{table5, AcceleratorSystem};
//! use xrbench_workload::UsageScenario;
//!
//! let cfg = table5().into_iter().find(|c| c.id == 'A').unwrap();
//! let system = AcceleratorSystem::new(cfg, 8192);
//! let report = Harness::new().run_scenario(UsageScenario::VrGaming, &system);
//! assert!(report.overall() >= 0.0 && report.overall() <= 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod figures;
mod harness;
pub mod pareto;
pub mod pool;
mod report;
mod runner;
pub mod spec;
mod suite;
pub mod sweep;
mod timeline;

pub use error::{ErrorCode, XrError};
pub use harness::{Harness, ScoreParams};
pub use pareto::{pareto_frontier, ParetoPoint};
pub use report::{
    BenchmarkReport, BreakdownReport, ModelReport, ScenarioReport, SessionReport, UserReport,
};
pub use runner::{RunReport, Runner};
pub use spec::{FleetRun, RunDocument, RunParams, SchedulerSpec, SessionRun, SuiteRun, SystemSpec};
pub use suite::{run_sessions, run_suite, run_suite_catalog};
pub use sweep::{
    AxisMarginalReport, SweepDocument, SweepOptions, SweepOutcome, SweepPoint, SweepPointReport,
    SweepReport, SweepShardState, SweepStats, SweepWorkload, SweepWorkloadKind,
};
pub use timeline::render_timeline;
// The fleet layer's user-facing types, re-exported so harness users
// can build and consume fleets without naming the crate.
pub use xrbench_fleet::{DeviceGroup, FleetReport, FleetRunConfig, FleetSpec};
