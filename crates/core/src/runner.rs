//! The unified execution entry point: one [`Runner`], any document.
//!
//! Every caller that executes "whatever document the user handed me"
//! goes through [`Runner::run`]: it executes any [`RunDocument`]
//! through exactly the library paths a hand-written caller would use
//! ([`crate::run_suite_catalog`], [`crate::Harness::run_session`],
//! [`xrbench_fleet::run_fleet`], and the sweep executor), so reports
//! are byte-identical to theirs, and returns one tagged
//! [`RunReport`], with one error type ([`XrError`]) across every
//! kind:
//!
//! ```
//! use xrbench_core::{Runner, RunReport};
//!
//! let json = r#"{ "kind": "suite", "repeats": 1, "hardware":
//!     { "uniform": { "engines": 2, "latency_s": 0.001, "energy_j": 0.001 } } }"#;
//! let report = Runner::new().run_json(json).unwrap();
//! assert_eq!(report.kind(), "suite");
//! let RunReport::Suite(suite) = report else { unreachable!() };
//! assert!(suite.xrbench_score > 0.0);
//! ```

use xrbench_fleet::FleetReport;

use crate::error::XrError;
use crate::report::{BenchmarkReport, SessionReport};
use crate::spec::RunDocument;
use crate::sweep::SweepReport;

/// Executes any [`RunDocument`] and returns a tagged [`RunReport`].
///
/// Stateless today; constructed (rather than a free function) so
/// execution policy can grow without another API break.
#[derive(Debug, Clone, Copy, Default)]
pub struct Runner {
    _private: (),
}

/// The report of a [`Runner`] run, tagged by document kind.
#[derive(Debug, Clone, PartialEq)]
pub enum RunReport {
    /// A whole-suite report.
    Suite(BenchmarkReport),
    /// A multi-user session report.
    Session(SessionReport),
    /// A fleet report.
    Fleet(FleetReport),
    /// A design-space sweep report.
    Sweep(SweepReport),
}

impl RunReport {
    /// The report's kind (`suite`, `session`, `fleet`, `sweep`) —
    /// matches [`RunDocument::kind`] of the document that produced
    /// it.
    pub fn kind(&self) -> &'static str {
        match self {
            RunReport::Suite(_) => "suite",
            RunReport::Session(_) => "session",
            RunReport::Fleet(_) => "fleet",
            RunReport::Sweep(_) => "sweep",
        }
    }

    /// Serializes the wrapped report as pretty JSON — byte-identical
    /// to the wrapped report's own `to_json`.
    pub fn to_json(&self) -> String {
        match self {
            RunReport::Suite(r) => r.to_json(),
            RunReport::Session(r) => r.to_json(),
            RunReport::Fleet(r) => r.to_json(),
            RunReport::Sweep(r) => r.to_json(),
        }
    }
}

impl Runner {
    /// Creates a runner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Executes a parsed document.
    ///
    /// # Errors
    ///
    /// Returns an [`XrError`] — today only sweep documents can fail
    /// at execution time (suite/session/fleet documents are fully
    /// validated at decode time), but every kind routes through the
    /// same error surface.
    pub fn run(&self, document: &RunDocument) -> Result<RunReport, XrError> {
        Ok(match document {
            RunDocument::Suite(run) => RunReport::Suite(run.execute()),
            RunDocument::Session(run) => RunReport::Session(run.execute()),
            RunDocument::Fleet(run) => RunReport::Fleet(run.execute()),
            RunDocument::Sweep(run) => RunReport::Sweep(run.run()),
        })
    }

    /// Parses a JSON run document (against the builtin scenario
    /// catalog) and executes it.
    ///
    /// # Errors
    ///
    /// Returns [`XrError::Spec`] for any parse/validation failure,
    /// plus anything [`Runner::run`] can return.
    pub fn run_json(&self, text: &str) -> Result<RunReport, XrError> {
        let document = RunDocument::from_json_str(text)?;
        self.run(&document)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const UNIFORM_HW: &str = r#""hardware": { "uniform":
        { "engines": 2, "latency_s": 0.001, "energy_j": 0.001 } }"#;

    /// The legacy entry points are the library functions that predate
    /// `Runner`: `run_suite`, `Harness::run_session` and
    /// `xrbench_fleet::run_fleet`.
    #[test]
    fn runner_reports_match_the_legacy_entry_points() {
        use crate::Harness;
        use xrbench_sim::{LatencyGreedy, UniformProvider};
        use xrbench_workload::{SessionSpec, UsageScenario};

        let runner = Runner::new();
        let system = UniformProvider::new(2, 0.001, 0.001);

        let suite_json = format!(r#"{{ "kind": "suite", {UNIFORM_HW}, "repeats": 2 }}"#);
        let report = runner.run_json(&suite_json).unwrap();
        assert_eq!(report.kind(), "suite");
        let expected = crate::run_suite(&Harness::new(), &system, 2);
        assert_eq!(report.to_json(), expected.to_json());

        let session_json = format!(
            r#"{{ "kind": "session", {UNIFORM_HW}, "session": {{ "name": "party",
                  "uniform": {{ "scenario": "VR Gaming", "users": 2, "stagger_s": 0.01 }} }} }}"#
        );
        let report = runner.run_json(&session_json).unwrap();
        assert_eq!(report.kind(), "session");
        let session = SessionSpec::uniform("party", UsageScenario::VrGaming.spec(), 2, 0.01);
        let expected = Harness::new().run_session(&session, &system, &mut LatencyGreedy::new());
        assert_eq!(report.to_json(), expected.to_json());

        let fleet_json = format!(
            r#"{{ "kind": "fleet", {UNIFORM_HW}, "duration_s": 0.2, "fleet": {{
                  "name": "tiny", "groups": [ {{ "name": "vr", "replicas": 2,
                  "session": {{ "name": "s", "uniform": {{ "scenario": "VR Gaming",
                  "users": 1, "stagger_s": 0.0 }} }} }} ] }} }}"#
        );
        let report = runner.run_json(&fleet_json).unwrap();
        assert_eq!(report.kind(), "fleet");
        let fleet = xrbench_fleet::FleetSpec::new("tiny").group(
            "vr",
            SessionSpec::uniform("s", UsageScenario::VrGaming.spec(), 1, 0.0),
            2,
        );
        // The worker count cannot change a fleet report.
        let config = xrbench_fleet::FleetRunConfig {
            sim: Harness::new().with_duration(0.2).sim_config(),
            workers: 1,
            ..Default::default()
        };
        let expected = xrbench_fleet::run_fleet(&fleet, &system, &config);
        assert_eq!(report.to_json(), expected.to_json());
    }

    #[test]
    fn runner_surfaces_spec_errors_through_xrerror() {
        let err = Runner::new()
            .run_json(r#"{ "kind": "party" }"#)
            .unwrap_err();
        assert_eq!(err.code(), crate::ErrorCode::Spec);
        assert!(err.to_string().contains("unknown document kind"));
    }
}
