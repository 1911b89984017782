//! Spec-driven benchmark runs: hardware selection and run documents.
//!
//! This module is the top of the declarative workload subsystem: a
//! **run document** is one JSON file that names everything a benchmark
//! run needs — the evaluated system, the workload (suite catalog,
//! session, or fleet), and the run parameters — and
//! [`RunDocument::from_json_str`] turns it into a ready-to-execute
//! value. Executing a run document goes through exactly the same
//! library entry points ([`crate::run_suite_catalog`],
//! [`Harness::run_session`], [`xrbench_fleet::run_fleet`]) a Rust
//! caller uses, so the reports are bit-for-bit identical to the
//! programmatic path.
//!
//! ## Hardware schema
//!
//! ```json
//! { "accelerator": { "id": "J", "pes": 8192 } }
//! { "uniform": { "engines": 2, "latency_s": 0.001, "energy_j": 0.001 } }
//! { "table": { "engines": 2, "label": "measured-soc",
//!              "engine_labels": ["WS@2048", "OS@2048"],
//!              "costs": [ { "model": "HT", "engine": 0,
//!                           "latency_s": 0.002, "energy_j": 0.01 } ] } }
//! ```
//!
//! `accelerator` instantiates a Table 5 configuration (`"A"`–`"M"`) at
//! a PE count through the analytical cost model; `table` is an
//! explicit `(model, engine) → cost` measurement table; `uniform` is
//! the test provider. Cost tables are checked up front to cover every
//! model the workload dispatches, so a hole fails at load time with a
//! named `(model, engine)` pair instead of mid-simulation.
//!
//! ## Run document schema
//!
//! ```json
//! { "kind": "suite",   "hardware": {...}, "repeats": 10,
//!   "seed": 3233923584, "duration_s": 1.0,
//!   "include_builtin": true, "scenarios": [ ... ] }
//! { "kind": "session", "hardware": {...}, "scheduler": "latency-greedy",
//!   "scenarios": [ ... ], "session": { ... } }
//! { "kind": "fleet",   "hardware": {...}, "workers": 8,
//!   "recovery": "requeue", "scenarios": [ ... ], "fleet": { ... } }
//! ```
//!
//! `seed` / `duration_s` default to the harness defaults; `repeats`
//! defaults to 10 (the quickstart's suite configuration); `scheduler`
//! defaults to `latency-greedy` (the paper default); `workers`
//! defaults to the machine's parallelism — legal because the fleet
//! report is proven byte-identical for any worker count; `recovery`
//! (fleet documents only) defaults to `drop` and selects what happens
//! to in-flight work on engines lost to a device group's injected
//! fault process.

use std::collections::BTreeSet;

use serde::de::Cursor;

use xrbench_accel::{config_by_id, AcceleratorSystem};
use xrbench_fleet::FleetRunConfig;
use xrbench_models::ModelId;
use xrbench_sim::{
    CostProvider, FailoverAware, InferenceCost, LatencyGreedy, LeastLoaded, RecoveryPolicy,
    RoundRobin, Scheduler, SlackAwareEdf, TableProvider, UniformProvider,
};
use xrbench_workload::spec::{
    extend_catalog, model_from_value, parse_json, session_from_value, SpecError,
};
use xrbench_workload::{ScenarioCatalog, SessionSpec};

use crate::harness::Harness;
use crate::report::{BenchmarkReport, SessionReport};
use crate::suite::run_suite_catalog;

/// A declarative hardware selection: what system the workload runs on.
#[derive(Debug, Clone, PartialEq)]
pub enum SystemSpec {
    /// A Table 5 accelerator configuration at a total PE count,
    /// evaluated through the analytical cost model.
    Accelerator {
        /// The Table 5 identifier, `'A'..='M'`.
        id: char,
        /// Total PEs across sub-accelerators (the paper uses 4096 and
        /// 8192).
        pes: u64,
    },
    /// Identical cost on every engine (the test provider).
    Uniform {
        /// Number of engines.
        engines: usize,
        /// Per-inference latency in seconds.
        latency_s: f64,
        /// Per-inference energy in joules.
        energy_j: f64,
    },
    /// An explicit `(model, engine) → cost` measurement table.
    Table {
        /// Number of engines.
        engines: usize,
        /// Optional system label for reports.
        label: Option<String>,
        /// Optional per-engine labels.
        engine_labels: Vec<String>,
        /// The registered costs.
        costs: Vec<(ModelId, usize, InferenceCost)>,
    },
}

/// A [`TableProvider`]/[`UniformProvider`] wrapper carrying a custom
/// system label for reports.
#[derive(Debug)]
struct LabeledProvider<P> {
    inner: P,
    label: String,
}

impl<P: CostProvider> CostProvider for LabeledProvider<P> {
    fn num_engines(&self) -> usize {
        self.inner.num_engines()
    }

    fn label(&self) -> String {
        self.label.clone()
    }

    fn engine_label(&self, engine: usize) -> String {
        self.inner.engine_label(engine)
    }

    fn cost(&self, model: ModelId, engine: usize) -> InferenceCost {
        self.inner.cost(model, engine)
    }
}

impl SystemSpec {
    /// Decodes a hardware selection.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] for unknown accelerator ids,
    /// out-of-range PE/engine counts, non-positive latencies, unknown
    /// model names, or out-of-range engine indices in a cost table.
    pub fn from_value(cursor: &Cursor<'_>) -> Result<Self, SpecError> {
        cursor.deny_unknown_fields(&["accelerator", "uniform", "table"])?;
        let accelerator = cursor.opt_field("accelerator")?;
        let uniform = cursor.opt_field("uniform")?;
        let table = cursor.opt_field("table")?;
        let given = [&accelerator, &uniform, &table]
            .iter()
            .filter(|c| c.is_some())
            .count();
        if given != 1 {
            return Err(SpecError::Invalid {
                path: cursor.path().to_string(),
                message: "exactly one of `accelerator`, `uniform`, or `table` is required"
                    .to_string(),
            });
        }

        if let Some(acc) = accelerator {
            acc.deny_unknown_fields(&["id", "pes"])?;
            let id = accelerator_id(&acc.field("id")?)?;
            let pes_cursor = acc.field("pes")?;
            let pes: u64 = pes_cursor.get()?;
            if pes == 0 {
                return Err(SpecError::Invalid {
                    path: pes_cursor.path().to_string(),
                    message: "pes must be at least 1".to_string(),
                });
            }
            return Ok(SystemSpec::Accelerator { id, pes });
        }

        if let Some(uni) = uniform {
            uni.deny_unknown_fields(&["engines", "latency_s", "energy_j"])?;
            let engines = positive_engines(&uni.field("engines")?)?;
            let latency_cursor = uni.field("latency_s")?;
            let latency_s: f64 = latency_cursor.get()?;
            if !(latency_s.is_finite() && latency_s > 0.0) {
                return Err(SpecError::Invalid {
                    path: latency_cursor.path().to_string(),
                    message: format!("latency must be positive and finite, got {latency_s}"),
                });
            }
            let energy_cursor = uni.field("energy_j")?;
            let energy_j: f64 = energy_cursor.get()?;
            if !(energy_j.is_finite() && energy_j >= 0.0) {
                return Err(SpecError::Invalid {
                    path: energy_cursor.path().to_string(),
                    message: format!("energy must be non-negative and finite, got {energy_j}"),
                });
            }
            return Ok(SystemSpec::Uniform {
                engines,
                latency_s,
                energy_j,
            });
        }

        let table = table.expect("one of the three forms is present");
        table.deny_unknown_fields(&["engines", "label", "engine_labels", "costs"])?;
        let engines = positive_engines(&table.field("engines")?)?;
        let label: Option<String> = table.get_opt_field("label")?;
        let engine_labels: Vec<String> = table.get_opt_field("engine_labels")?.unwrap_or_default();
        if !engine_labels.is_empty() && engine_labels.len() != engines {
            return Err(SpecError::Invalid {
                path: table.field("engine_labels")?.path().to_string(),
                message: format!(
                    "expected {engines} engine labels, got {}",
                    engine_labels.len()
                ),
            });
        }
        let mut costs = Vec::new();
        for entry in table.field("costs")?.items()? {
            entry.deny_unknown_fields(&["model", "engine", "latency_s", "energy_j"])?;
            let model = model_from_value(&entry.field("model")?)?;
            let engine_cursor = entry.field("engine")?;
            let engine: usize = engine_cursor.get()?;
            if engine >= engines {
                return Err(SpecError::Invalid {
                    path: engine_cursor.path().to_string(),
                    message: format!("engine index {engine} out of range (engines: {engines})"),
                });
            }
            let latency_cursor = entry.field("latency_s")?;
            let latency_s: f64 = latency_cursor.get()?;
            if !(latency_s.is_finite() && latency_s > 0.0) {
                return Err(SpecError::Invalid {
                    path: latency_cursor.path().to_string(),
                    message: format!("latency must be positive and finite, got {latency_s}"),
                });
            }
            let energy_cursor = entry.field("energy_j")?;
            let energy_j: f64 = energy_cursor.get()?;
            if !(energy_j.is_finite() && energy_j >= 0.0) {
                return Err(SpecError::Invalid {
                    path: energy_cursor.path().to_string(),
                    message: format!("energy must be non-negative and finite, got {energy_j}"),
                });
            }
            costs.push((
                model,
                engine,
                InferenceCost {
                    latency_s,
                    energy_j,
                },
            ));
        }
        Ok(SystemSpec::Table {
            engines,
            label,
            engine_labels,
            costs,
        })
    }

    /// Instantiates the selected system.
    pub fn build(&self) -> Box<dyn CostProvider + Send + Sync> {
        match self {
            SystemSpec::Accelerator { id, pes } => {
                let config = config_by_id(*id).expect("validated at decode time");
                Box::new(AcceleratorSystem::new(config, *pes))
            }
            SystemSpec::Uniform {
                engines,
                latency_s,
                energy_j,
            } => Box::new(UniformProvider::new(*engines, *latency_s, *energy_j)),
            SystemSpec::Table {
                engines,
                label,
                engine_labels,
                costs,
            } => {
                let mut table = TableProvider::new(*engines);
                for (i, l) in engine_labels.iter().enumerate() {
                    table.set_label(i, l.clone());
                }
                for &(model, engine, cost) in costs {
                    table.set(model, engine, cost);
                }
                match label {
                    Some(label) => Box::new(LabeledProvider {
                        inner: table,
                        label: label.clone(),
                    }),
                    None => Box::new(table),
                }
            }
        }
    }

    /// Checks that a cost table covers every `(model, engine)` pair
    /// the workload can dispatch (no-op for the other variants, which
    /// are total by construction).
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::Invalid`] naming the first missing pair.
    pub fn check_coverage(&self, models_used: &BTreeSet<ModelId>) -> Result<(), SpecError> {
        let SystemSpec::Table { engines, costs, .. } = self else {
            return Ok(());
        };
        for &model in models_used {
            for engine in 0..*engines {
                if !costs.iter().any(|(m, e, _)| *m == model && *e == engine) {
                    return Err(SpecError::Invalid {
                        path: "$.hardware.table.costs".to_string(),
                        message: format!(
                            "no cost registered for {model} on engine {engine}, \
                             but the workload dispatches it"
                        ),
                    });
                }
            }
        }
        Ok(())
    }
}

/// Decodes a Table 5 accelerator id, one letter in either case, to
/// the uppercase form ids print in (`J@8192`): the one decoder of run
/// documents' `hardware`, sweeps' `accelerators` and the CLI's
/// `--accelerator`.
///
/// # Errors
///
/// Returns the message naming what is wrong with `text`: more or less
/// than one letter, or a letter Table 5 does not define.
pub fn parse_accelerator_id(text: &str) -> Result<char, String> {
    let id = match text.chars().next() {
        Some(c) if text.chars().count() == 1 => c.to_ascii_uppercase(),
        _ => {
            return Err(format!(
                "accelerator id must be a single letter A-M, got `{text}`"
            ))
        }
    };
    if config_by_id(id).is_none() {
        return Err(format!("unknown accelerator `{id}` (Table 5 defines A-M)"));
    }
    Ok(id)
}

/// [`parse_accelerator_id`] at a document path.
pub(crate) fn accelerator_id(cursor: &Cursor<'_>) -> Result<char, SpecError> {
    parse_accelerator_id(cursor.as_str()?).map_err(|message| SpecError::Invalid {
        path: cursor.path().to_string(),
        message,
    })
}

/// Decodes a recovery-policy name: the one decoder of fleet
/// documents' `recovery` and sweeps' `recovery` axis.
pub(crate) fn recovery_policy(cursor: &Cursor<'_>) -> Result<RecoveryPolicy, SpecError> {
    let name = cursor.as_str()?;
    RecoveryPolicy::parse(name).ok_or_else(|| SpecError::Invalid {
        path: cursor.path().to_string(),
        message: format!("unknown recovery policy `{name}` (expected drop, requeue, or migrate)"),
    })
}

fn positive_engines(cursor: &Cursor<'_>) -> Result<usize, SpecError> {
    let engines: usize = cursor.get()?;
    if engines == 0 {
        return Err(SpecError::Invalid {
            path: cursor.path().to_string(),
            message: "engines must be at least 1".to_string(),
        });
    }
    Ok(engines)
}

/// A declarative scheduler selection, by report name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerSpec {
    /// The paper default: dispatch to the fastest free engine.
    #[default]
    LatencyGreedy,
    /// Cycle engines regardless of cost.
    RoundRobin,
    /// Earliest-deadline-first with slack awareness.
    SlackAwareEdf,
    /// Pick the engine with the least queued work.
    LeastLoaded,
    /// EDF ordering, avoiding engines with the worst outage history
    /// (for fault-injected runs).
    FailoverAware,
}

impl SchedulerSpec {
    /// Decodes a scheduler name — the same names the reports print
    /// (`latency-greedy`, `round-robin`, `slack-edf`, `least-loaded`,
    /// `failover-aware`).
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::Invalid`] for unknown names.
    pub fn from_value(cursor: &Cursor<'_>) -> Result<Self, SpecError> {
        let name = cursor.as_str()?;
        match name {
            "latency-greedy" => Ok(Self::LatencyGreedy),
            "round-robin" => Ok(Self::RoundRobin),
            "slack-edf" => Ok(Self::SlackAwareEdf),
            "least-loaded" => Ok(Self::LeastLoaded),
            "failover-aware" => Ok(Self::FailoverAware),
            other => Err(SpecError::Invalid {
                path: cursor.path().to_string(),
                message: format!(
                    "unknown scheduler `{other}` (expected latency-greedy, \
                     round-robin, slack-edf, least-loaded, or failover-aware)"
                ),
            }),
        }
    }

    /// The scheduler's report name (`latency-greedy`, `round-robin`,
    /// `slack-edf`, `least-loaded`, `failover-aware`) — the inverse
    /// of [`SchedulerSpec::from_value`].
    pub fn name(&self) -> &'static str {
        match self {
            Self::LatencyGreedy => "latency-greedy",
            Self::RoundRobin => "round-robin",
            Self::SlackAwareEdf => "slack-edf",
            Self::LeastLoaded => "least-loaded",
            Self::FailoverAware => "failover-aware",
        }
    }

    /// Instantiates the scheduler.
    pub fn build(&self) -> Box<dyn Scheduler> {
        match self {
            Self::LatencyGreedy => Box::new(LatencyGreedy::new()),
            Self::RoundRobin => Box::new(RoundRobin::new()),
            Self::SlackAwareEdf => Box::new(SlackAwareEdf::new()),
            Self::LeastLoaded => Box::new(LeastLoaded::new()),
            Self::FailoverAware => Box::new(FailoverAware::new()),
        }
    }
}

/// Shared run parameters: seed and duration overrides for the harness.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RunParams {
    /// RNG seed; `None` keeps the harness default.
    pub seed: Option<u64>,
    /// Run duration in seconds; `None` keeps the harness default (1 s).
    pub duration_s: Option<f64>,
}

impl RunParams {
    pub(crate) fn from_value(cursor: &Cursor<'_>) -> Result<Self, SpecError> {
        let seed: Option<u64> = cursor.get_opt_field("seed")?;
        let duration_s = match cursor.opt_field("duration_s")? {
            Some(c) => {
                let v: f64 = c.get()?;
                if !(v.is_finite() && v > 0.0) {
                    return Err(SpecError::Invalid {
                        path: c.path().to_string(),
                        message: format!("duration must be positive and finite, got {v}"),
                    });
                }
                Some(v)
            }
            None => None,
        };
        Ok(Self { seed, duration_s })
    }

    /// The harness these parameters configure.
    pub fn harness(&self) -> Harness {
        let mut h = Harness::new();
        if let Some(seed) = self.seed {
            h = h.with_seed(seed);
        }
        if let Some(duration_s) = self.duration_s {
            h = h.with_duration(duration_s);
        }
        h
    }

    /// The fleet configuration these parameters configure: the
    /// harness's seed and duration, every other field at its default.
    pub fn fleet_config(&self) -> FleetRunConfig {
        FleetRunConfig {
            sim: self.harness().sim_config(),
            ..FleetRunConfig::default()
        }
    }
}

/// A decoded `"kind": "suite"` run document.
#[derive(Debug, Clone)]
pub struct SuiteRun {
    /// The evaluated system.
    pub system: SystemSpec,
    /// Run parameters (seed, duration).
    pub params: RunParams,
    /// Repeats for dynamic scenarios (default 10, the quickstart
    /// configuration).
    pub repeats: u32,
    /// The suite catalog: builtins (unless opted out) plus the
    /// document's local scenarios, in order.
    pub catalog: ScenarioCatalog,
}

impl SuiteRun {
    /// Executes the suite exactly as [`crate::run_suite_catalog`]
    /// would (the [`crate::Runner`] path for suite documents).
    pub(crate) fn execute(&self) -> BenchmarkReport {
        let system = self.system.build();
        run_suite_catalog(
            &self.params.harness(),
            system.as_ref(),
            self.repeats,
            &self.catalog,
        )
    }
}

/// A decoded `"kind": "session"` run document.
#[derive(Debug, Clone)]
pub struct SessionRun {
    /// The evaluated system.
    pub system: SystemSpec,
    /// Run parameters (seed, duration).
    pub params: RunParams,
    /// The scheduler (default latency-greedy).
    pub scheduler: SchedulerSpec,
    /// The multi-user session.
    pub session: SessionSpec,
}

impl SessionRun {
    /// Executes the session exactly as [`Harness::run_session`] would
    /// (the [`crate::Runner`] path for session documents).
    pub(crate) fn execute(&self) -> SessionReport {
        let system = self.system.build();
        self.params.harness().run_session(
            &self.session,
            system.as_ref(),
            self.scheduler.build().as_mut(),
        )
    }
}

/// A decoded `"kind": "fleet"` run document.
#[derive(Debug, Clone)]
pub struct FleetRun {
    /// The evaluated system.
    pub system: SystemSpec,
    /// Run parameters (seed, duration).
    pub params: RunParams,
    /// Worker threads; `None` uses the machine's parallelism (the
    /// fleet report is byte-identical for any worker count).
    pub workers: Option<usize>,
    /// Recovery policy for in-flight work on engines lost to injected
    /// faults (default `drop`; ignored by fault-free groups).
    pub recovery: RecoveryPolicy,
    /// The fleet topology.
    pub fleet: xrbench_fleet::FleetSpec,
}

impl FleetRun {
    /// Executes the fleet exactly as [`xrbench_fleet::run_fleet`]
    /// would under [`FleetRun::config`] (the [`crate::Runner`] path for
    /// fleet documents).
    pub(crate) fn execute(&self) -> xrbench_fleet::FleetReport {
        let system = self.system.build();
        xrbench_fleet::run_fleet(&self.fleet, system.as_ref(), &self.config())
    }

    /// The fleet configuration this document selects: its seed,
    /// duration, worker count and recovery policy.
    fn config(&self) -> FleetRunConfig {
        let base = self.params.fleet_config();
        FleetRunConfig {
            workers: self.workers.unwrap_or(base.workers),
            recovery: self.recovery,
            ..base
        }
    }

    /// Runs one shard of the fleet: the sessions whose global
    /// `(group, replica)` coordinates fall in shard `shard` of
    /// `num_shards`, seeded exactly as the whole-fleet run would seed
    /// them ([`xrbench_fleet::run_fleet_shard`]). The returned
    /// [`xrbench_fleet::ShardState`] serializes over a pipe and merges
    /// back through [`FleetRun::merge_shards`].
    ///
    /// # Panics
    ///
    /// Panics if `shard >= num_shards` (same contract as
    /// [`xrbench_fleet::run_fleet`] otherwise).
    pub fn run_shard(&self, shard: u32, num_shards: u32) -> xrbench_fleet::ShardState {
        let system = self.system.build();
        xrbench_fleet::run_fleet_shard(
            &self.fleet,
            system.as_ref(),
            &self.config(),
            shard,
            num_shards,
        )
    }

    /// Merges shard states produced by [`FleetRun::run_shard`] (in
    /// any order, possibly in other processes) into the final report
    /// — byte-identical to the whole-fleet run's (see
    /// [`crate::Runner::run`]).
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] when the states do not form a
    /// complete, consistent partition of this fleet, or when a state
    /// was computed for another run: its fingerprint differs from this
    /// document's (another seed, duration, system, recovery policy or
    /// fleet).
    pub fn merge_shards(
        &self,
        states: &[xrbench_fleet::ShardState],
    ) -> Result<xrbench_fleet::FleetReport, SpecError> {
        let label = self.system.build().label();
        let scheduler = xrbench_sim::LatencyGreedy::new().name();
        let fingerprint =
            xrbench_fleet::fleet_fingerprint(&self.fleet, &label, scheduler, &self.config());
        xrbench_fleet::check_partition(
            states
                .iter()
                .map(|s| (s.shard, s.num_shards, s.fingerprint)),
            Some(fingerprint),
        )?;
        xrbench_fleet::merge_fleet_shards(&self.fleet, &label, scheduler, states)
    }

    /// Runs the fleet once per recovery policy under identical fault
    /// seeds (see [`xrbench_fleet::compare_recovery_policies`]).
    pub fn compare_policies(&self) -> xrbench_fleet::PolicyComparisonReport {
        let system = self.system.build();
        xrbench_fleet::compare_recovery_policies(&self.fleet, system.as_ref(), &self.config())
    }
}

/// A parsed, validated run document of any kind.
#[derive(Debug, Clone)]
pub enum RunDocument {
    /// A whole-suite run.
    Suite(SuiteRun),
    /// A multi-user session run.
    Session(SessionRun),
    /// A fleet run.
    Fleet(FleetRun),
    /// A design-space sweep.
    Sweep(crate::sweep::SweepDocument),
}

impl RunDocument {
    /// Parses and validates a run document against the builtin
    /// scenario catalog.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] for malformed JSON, unknown kinds,
    /// shape problems, any scenario/session/fleet error from the
    /// embedded workload documents, or a cost table that does not
    /// cover the models the workload dispatches.
    pub fn from_json_str(text: &str) -> Result<Self, SpecError> {
        Self::from_json_str_with_catalog(text, &ScenarioCatalog::builtin())
    }

    /// [`RunDocument::from_json_str`] against an explicit base
    /// catalog.
    ///
    /// # Errors
    ///
    /// See [`RunDocument::from_json_str`].
    pub fn from_json_str_with_catalog(
        text: &str,
        catalog: &ScenarioCatalog,
    ) -> Result<Self, SpecError> {
        let value = parse_json(text)?;
        let cursor = Cursor::root(&value);
        let kind_cursor = cursor.field("kind")?;
        match kind_cursor.as_str()? {
            "suite" => Self::decode_suite(&cursor, catalog).map(RunDocument::Suite),
            "session" => Self::decode_session(&cursor, catalog).map(RunDocument::Session),
            "fleet" => Self::decode_fleet(&cursor, catalog).map(RunDocument::Fleet),
            "sweep" => {
                crate::sweep::SweepDocument::from_value(&cursor, catalog).map(RunDocument::Sweep)
            }
            other => Err(SpecError::Invalid {
                path: kind_cursor.path().to_string(),
                message: format!(
                    "unknown document kind `{other}` (expected suite, session, fleet, or sweep)"
                ),
            }),
        }
    }

    /// The document's kind (`suite`, `session`, `fleet`, `sweep`) —
    /// also the stem of the CLI subcommand that executes it.
    pub fn kind(&self) -> &'static str {
        match self {
            RunDocument::Suite(_) => "suite",
            RunDocument::Session(_) => "session",
            RunDocument::Fleet(_) => "fleet",
            RunDocument::Sweep(_) => "sweep",
        }
    }

    fn decode_suite(cursor: &Cursor<'_>, base: &ScenarioCatalog) -> Result<SuiteRun, SpecError> {
        cursor.deny_unknown_fields(&[
            "kind",
            "hardware",
            "repeats",
            "seed",
            "duration_s",
            "include_builtin",
            "scenarios",
        ])?;
        let system = SystemSpec::from_value(&cursor.field("hardware")?)?;
        let params = RunParams::from_value(cursor)?;
        let repeats = match cursor.opt_field("repeats")? {
            Some(c) => {
                let r: u32 = c.get()?;
                if r == 0 {
                    return Err(SpecError::Invalid {
                        path: c.path().to_string(),
                        message: "repeats must be at least 1".to_string(),
                    });
                }
                r
            }
            None => 10,
        };
        let include_builtin: bool = cursor.get_opt_field("include_builtin")?.unwrap_or(true);
        let start = if include_builtin {
            base.clone()
        } else {
            ScenarioCatalog::new()
        };
        let catalog = extend_catalog(cursor, &start)?;
        if catalog.is_empty() {
            return Err(SpecError::Invalid {
                path: cursor.path().to_string(),
                message: "suite catalog is empty (include_builtin is false and no \
                          scenarios are defined)"
                    .to_string(),
            });
        }
        let used: BTreeSet<ModelId> = catalog
            .iter()
            .flat_map(|s| s.models.iter().map(|m| m.model))
            .collect();
        system.check_coverage(&used)?;
        Ok(SuiteRun {
            system,
            params,
            repeats,
            catalog,
        })
    }

    fn decode_session(
        cursor: &Cursor<'_>,
        base: &ScenarioCatalog,
    ) -> Result<SessionRun, SpecError> {
        cursor.deny_unknown_fields(&[
            "kind",
            "hardware",
            "scheduler",
            "seed",
            "duration_s",
            "scenarios",
            "session",
        ])?;
        let system = SystemSpec::from_value(&cursor.field("hardware")?)?;
        let params = RunParams::from_value(cursor)?;
        let scheduler = match cursor.opt_field("scheduler")? {
            Some(c) => SchedulerSpec::from_value(&c)?,
            None => SchedulerSpec::default(),
        };
        let catalog = extend_catalog(cursor, base)?;
        let session = session_from_value(&cursor.field("session")?, &catalog)?;
        let used: BTreeSet<ModelId> = session
            .users
            .iter()
            .flat_map(|u| u.spec.models.iter().map(|m| m.model))
            .collect();
        system.check_coverage(&used)?;
        Ok(SessionRun {
            system,
            params,
            scheduler,
            session,
        })
    }

    fn decode_fleet(cursor: &Cursor<'_>, base: &ScenarioCatalog) -> Result<FleetRun, SpecError> {
        cursor.deny_unknown_fields(&[
            "kind",
            "hardware",
            "workers",
            "recovery",
            "seed",
            "duration_s",
            "scenarios",
            "fleet",
        ])?;
        let system = SystemSpec::from_value(&cursor.field("hardware")?)?;
        let params = RunParams::from_value(cursor)?;
        let workers = match cursor.opt_field("workers")? {
            Some(c) => {
                let w: usize = c.get()?;
                if w == 0 {
                    return Err(SpecError::Invalid {
                        path: c.path().to_string(),
                        message: "workers must be at least 1".to_string(),
                    });
                }
                Some(w)
            }
            None => None,
        };
        let recovery = match cursor.opt_field("recovery")? {
            Some(c) => recovery_policy(&c)?,
            None => RecoveryPolicy::default(),
        };
        let catalog = extend_catalog(cursor, base)?;
        let fleet = xrbench_fleet::specfile::fleet_from_value(&cursor.field("fleet")?, &catalog)?;
        let used: BTreeSet<ModelId> = fleet
            .groups
            .iter()
            .flat_map(|g| g.session.users.iter())
            .flat_map(|u| u.spec.models.iter().map(|m| m.model))
            .collect();
        system.check_coverage(&used)?;
        Ok(FleetRun {
            system,
            params,
            workers,
            recovery,
            fleet,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xrbench_sim::{SlackAwareEdf, UniformProvider};
    use xrbench_workload::{SessionSpec, UsageScenario};

    const UNIFORM_HW: &str = r#""hardware": { "uniform":
        { "engines": 2, "latency_s": 0.001, "energy_j": 0.001 } }"#;

    #[test]
    fn suite_document_reproduces_the_library_path() {
        let doc = RunDocument::from_json_str(&format!(
            r#"{{ "kind": "suite", {UNIFORM_HW}, "repeats": 3 }}"#
        ))
        .unwrap();
        let RunDocument::Suite(suite) = doc else {
            panic!("expected suite");
        };
        assert_eq!(suite.repeats, 3);
        let report = suite.execute();
        let system = UniformProvider::new(2, 0.001, 0.001);
        let expected = crate::run_suite(&Harness::new(), &system, 3);
        assert_eq!(report, expected);
        assert_eq!(report.to_json(), expected.to_json());
    }

    #[test]
    fn session_document_reproduces_the_library_path() {
        let doc = RunDocument::from_json_str(&format!(
            r#"{{ "kind": "session", {UNIFORM_HW},
                  "scheduler": "slack-edf", "seed": 7,
                  "session": {{ "name": "party", "uniform":
                       {{ "scenario": "VR Gaming", "users": 4, "stagger_s": 0.01 }} }} }}"#
        ))
        .unwrap();
        let RunDocument::Session(run) = doc else {
            panic!("expected session");
        };
        let report = run.execute();
        let system = UniformProvider::new(2, 0.001, 0.001);
        let session = SessionSpec::uniform("party", UsageScenario::VrGaming.spec(), 4, 0.01);
        let expected =
            Harness::new()
                .with_seed(7)
                .run_session(&session, &system, &mut SlackAwareEdf::new());
        assert_eq!(report, expected);
        assert_eq!(report.scheduler, "slack-edf");
    }

    #[test]
    fn fleet_document_reproduces_the_library_path() {
        let doc = RunDocument::from_json_str(&format!(
            r#"{{ "kind": "fleet", {UNIFORM_HW}, "workers": 2,
                  "fleet": {{ "name": "arcade", "groups": [
                      {{ "name": "vr", "replicas": 4, "session":
                           {{ "name": "party", "uniform":
                                {{ "scenario": "VR Gaming", "users": 2,
                                   "stagger_s": 0.002 }} }} }} ] }} }}"#
        ))
        .unwrap();
        let RunDocument::Fleet(run) = doc else {
            panic!("expected fleet");
        };
        let report = run.execute();
        let system = UniformProvider::new(2, 0.001, 0.001);
        let fleet = xrbench_fleet::FleetSpec::new("arcade").group(
            "vr",
            SessionSpec::uniform("party", UsageScenario::VrGaming.spec(), 2, 0.002),
            4,
        );
        // The worker count cannot change the report (PR 4 invariant),
        // so the document's `workers: 2` matches any library run.
        let config = FleetRunConfig {
            workers: 1,
            ..FleetRunConfig::default()
        };
        let expected = xrbench_fleet::run_fleet(&fleet, &system, &config);
        assert_eq!(report, expected);
    }

    #[test]
    fn faulted_fleet_document_reproduces_the_library_path() {
        use xrbench_sim::{FaultProcess, RecoveryPolicy};
        let doc = RunDocument::from_json_str(&format!(
            r#"{{ "kind": "fleet", {UNIFORM_HW}, "workers": 2,
                  "recovery": "requeue",
                  "fleet": {{ "name": "churn", "groups": [
                      {{ "name": "vr", "replicas": 3, "session":
                           {{ "name": "party", "uniform":
                                {{ "scenario": "VR Gaming", "users": 2,
                                   "stagger_s": 0.002 }} }},
                         "faults": {{ "failure_rate_per_s": 3.0,
                                      "mean_downtime_s": 0.05 }} }} ] }} }}"#
        ))
        .unwrap();
        let RunDocument::Fleet(run) = doc else {
            panic!("expected fleet");
        };
        assert_eq!(run.recovery, RecoveryPolicy::Requeue);
        let report = run.execute();
        let system = UniformProvider::new(2, 0.001, 0.001);
        let fleet = xrbench_fleet::FleetSpec::new("churn").group_faulted(
            "vr",
            SessionSpec::uniform("party", UsageScenario::VrGaming.spec(), 2, 0.002),
            3,
            FaultProcess {
                failure_rate_per_s: 3.0,
                mean_downtime_s: 0.05,
                ..FaultProcess::default()
            },
        );
        let config = FleetRunConfig {
            workers: 1,
            recovery: RecoveryPolicy::Requeue,
            ..FleetRunConfig::default()
        };
        let expected = xrbench_fleet::run_fleet(&fleet, &system, &config);
        assert_eq!(report, expected);
        // The policy comparison runs off the same decoded document.
        let cmp = run.compare_policies();
        assert_eq!(cmp.policies.len(), 3);
        assert_eq!(
            cmp.policy("requeue").unwrap().executed_inferences,
            expected.executed_inferences
        );
    }

    #[test]
    fn shard_states_of_another_seed_are_refused() {
        // Shard 0 of the committed default fleet merged with shard 1
        // of the same document under another seed covers every
        // session once, but the report would match neither run.
        let fleet = |seed: &str| {
            let text = include_str!("../../../specs/fleet_default.json").replacen(
                "{",
                &format!("{{ {seed}"),
                1,
            );
            match RunDocument::from_json_str(&text).expect("the default fleet loads") {
                RunDocument::Fleet(run) => run,
                _ => panic!("expected fleet"),
            }
        };
        let (run, other) = (fleet(""), fleet(r#""seed": 7,"#));
        let mixed = [run.run_shard(0, 2), other.run_shard(1, 2)];
        let err = run.merge_shards(&mixed).unwrap_err().to_string();
        assert!(err.contains("shard 1"), "{err}");
        assert!(err.contains("fingerprint mismatch"), "{err}");
        let label = run.system.build().label();
        let err = xrbench_fleet::merge_fleet_shards(&run.fleet, &label, "latency-greedy", &mixed)
            .unwrap_err();
        assert!(err.to_string().contains("fingerprint mismatch"), "{err}");
        // States of the other seed alone are a consistent partition,
        // but of the other document.
        let theirs = [other.run_shard(0, 2), other.run_shard(1, 2)];
        let err = run.merge_shards(&theirs).unwrap_err().to_string();
        assert!(err.contains("shard 0"), "{err}");
        assert_eq!(other.merge_shards(&theirs).unwrap(), other.execute());
        let ours = [run.run_shard(1, 2), run.run_shard(0, 2)];
        assert_eq!(run.merge_shards(&ours).unwrap(), run.execute());
    }

    #[test]
    fn shard_states_whose_sums_overflow_are_refused() {
        use xrbench_fleet::{FleetAccumulator, ShardState};
        use xrbench_models::ModelId;
        use xrbench_score::{FixedHistogram, NUM_BUCKETS};

        let text = include_str!("../../../specs/fleet_default.json");
        let Ok(RunDocument::Fleet(run)) = RunDocument::from_json_str(text) else {
            panic!("the default fleet loads");
        };
        fn hist(count: u64) -> FixedHistogram {
            let mut buckets = vec![0; NUM_BUCKETS];
            buckets[1] = count;
            FixedHistogram::from_buckets(&buckets).expect("a histogram")
        }
        type Edit = fn(&mut FleetAccumulator, u64);
        // Each edit sets one counter of shard 0's first group to
        // `u64::MAX` and the same counter of shard 1's to 1: two states
        // the decoder accepts, whose sum passes a `u64`.
        let edits: [(&str, Edit); 3] = [
            ("frames", |acc, n| {
                acc.model_mut(ModelId::HandTracking).frames.total_frames = n;
            }),
            ("drops", |acc, n| {
                acc.model_mut(ModelId::EyeSegmentation)
                    .frames
                    .drops
                    .superseded = n;
            }),
            ("histogram", |acc, n| acc.latency = hist(n)),
        ];
        for (name, edit) in edits {
            let mut states = [run.run_shard(0, 2), run.run_shard(1, 2)];
            edit(&mut states[0].groups[0], u64::MAX);
            edit(&mut states[1].groups[0], 1);
            let states = states.map(|s| ShardState::from_json(&s.to_json()).expect("decodes"));
            let err = run.merge_shards(&states).unwrap_err().to_string();
            assert!(err.contains("shard 1: merging group"), "{name}: {err}");
            assert!(err.contains("overflows"), "{name}: {err}");
        }
    }

    #[test]
    fn failover_aware_scheduler_decodes_and_builds() {
        let value = parse_json(r#""failover-aware""#).unwrap();
        let spec = SchedulerSpec::from_value(&Cursor::root(&value)).unwrap();
        assert_eq!(spec, SchedulerSpec::FailoverAware);
        assert_eq!(spec.build().name(), "failover-aware");
    }

    #[test]
    fn accelerator_hardware_builds_the_table5_system() {
        let value = parse_json(r#"{ "accelerator": { "id": "j", "pes": 4096 } }"#).unwrap();
        let spec = SystemSpec::from_value(&Cursor::root(&value)).unwrap();
        assert_eq!(spec, SystemSpec::Accelerator { id: 'J', pes: 4096 });
        let system = spec.build();
        assert_eq!(system.num_engines(), 2);
        assert!(system.label().contains("J [HDA]"), "{}", system.label());
    }

    #[test]
    fn table_hardware_round_trips_costs_and_labels() {
        let value = parse_json(
            r#"{ "table": { "engines": 2, "label": "soc",
                  "engine_labels": ["WS@1", "OS@1"],
                  "costs": [
                    { "model": "HT", "engine": 0, "latency_s": 0.002, "energy_j": 0.01 },
                    { "model": "HT", "engine": 1, "latency_s": 0.004, "energy_j": 0.02 }
                  ] } }"#,
        )
        .unwrap();
        let spec = SystemSpec::from_value(&Cursor::root(&value)).unwrap();
        let system = spec.build();
        assert_eq!(system.label(), "soc");
        assert_eq!(system.engine_label(1), "OS@1");
        assert_eq!(system.cost(ModelId::HandTracking, 0).latency_s, 0.002);
    }

    #[test]
    fn incomplete_cost_tables_fail_at_load_time() {
        // VR Gaming dispatches HT/ES/GE; the table only costs HT.
        let err = RunDocument::from_json_str(
            r#"{ "kind": "session",
                 "hardware": { "table": { "engines": 1, "costs": [
                     { "model": "HT", "engine": 0,
                       "latency_s": 0.001, "energy_j": 0.001 } ] } },
                 "session": { "name": "s", "uniform":
                     { "scenario": "VR Gaming", "users": 1 } } }"#,
        )
        .unwrap_err();
        assert!(
            err.to_string().contains("no cost registered for ES"),
            "{err}"
        );
    }

    #[test]
    fn document_rejections_never_panic() {
        for (text, needle) in [
            ("{", "invalid JSON"),
            (r#"{ "kind": "party" }"#, "unknown document kind `party`"),
            (r#"{ "hardware": {} }"#, "missing required field `kind`"),
            (
                r#"{ "kind": "suite", "hardware": { "accelerator":
                     { "id": "Z", "pes": 4096 } } }"#,
                "unknown accelerator `Z`",
            ),
            (
                r#"{ "kind": "suite", "hardware": { "accelerator":
                     { "id": "J", "pes": 0 } } }"#,
                "pes must be at least 1",
            ),
            (
                r#"{ "kind": "suite", "hardware": {} }"#,
                "exactly one of `accelerator`, `uniform`, or `table`",
            ),
            (
                r#"{ "kind": "suite", "hardware": { "uniform":
                     { "engines": 0, "latency_s": 0.001, "energy_j": 0.0 } } }"#,
                "engines must be at least 1",
            ),
            (
                r#"{ "kind": "suite", "hardware": { "uniform":
                     { "engines": 1, "latency_s": -0.5, "energy_j": 0.0 } } }"#,
                "latency must be positive",
            ),
            (
                r#"{ "kind": "suite", "hardware": { "table": { "engines": 1, "costs": [
                     { "model": "HT", "engine": 0,
                       "latency_s": 0.001, "energy_j": -5.0 } ] } } }"#,
                "energy must be non-negative",
            ),
            (
                r#"{ "kind": "suite", "hardware": { "uniform":
                     { "engines": 1, "latency_s": 0.001, "energy_j": 0.0 } },
                     "repeats": 0 }"#,
                "repeats must be at least 1",
            ),
            (
                r#"{ "kind": "suite", "hardware": { "uniform":
                     { "engines": 1, "latency_s": 0.001, "energy_j": 0.0 } },
                     "include_builtin": false }"#,
                "suite catalog is empty",
            ),
            (
                r#"{ "kind": "session", "hardware": { "uniform":
                     { "engines": 1, "latency_s": 0.001, "energy_j": 0.0 } },
                     "scheduler": "fifo",
                     "session": { "name": "s", "uniform":
                         { "scenario": "VR Gaming", "users": 1 } } }"#,
                "unknown scheduler `fifo`",
            ),
            (
                r#"{ "kind": "suite", "hardware": { "uniform":
                     { "engines": 1, "latency_s": 0.001, "energy_j": 0.0 } },
                     "duration_s": 0.0 }"#,
                "duration must be positive",
            ),
            (
                r#"{ "kind": "suite", "hardware": { "uniform":
                     { "engines": 1, "latency_s": 0.001, "energy_j": 0.0 } },
                     "repeat": 3 }"#,
                "unknown field `repeat`",
            ),
            (
                r#"{ "kind": "fleet", "hardware": { "uniform":
                     { "engines": 1, "latency_s": 0.001, "energy_j": 0.0 } },
                     "recovery": "teleport",
                     "fleet": { "name": "f", "groups": [
                         { "name": "a", "replicas": 1, "session":
                             { "name": "s", "uniform":
                                 { "scenario": "VR Gaming", "users": 1 } } } ] } }"#,
                "unknown recovery policy `teleport`",
            ),
            (
                r#"{ "kind": "session", "hardware": { "uniform":
                     { "engines": 1, "latency_s": 0.001, "energy_j": 0.0 } },
                     "recovery": "drop",
                     "session": { "name": "s", "uniform":
                         { "scenario": "VR Gaming", "users": 1 } } }"#,
                "unknown field `recovery`",
            ),
        ] {
            let err = RunDocument::from_json_str(text).unwrap_err();
            assert!(err.to_string().contains(needle), "{text}: {err}");
        }
    }

    #[test]
    fn run_documents_and_sweeps_word_bad_ids_and_policies_alike() {
        // One decoder per value: a run document and a sweep axis word
        // the same bad accelerator id or policy name identically.
        let message = |text: &str| match RunDocument::from_json_str(text) {
            Err(SpecError::Invalid { message, .. }) => message,
            other => panic!("{text}: {other:?}"),
        };
        let sweep = |axis: &str| {
            message(&format!(
                r#"{{ "kind": "sweep", {axis}, "workloads": [ {{ "scenario": "VR Gaming" }} ] }}"#
            ))
        };
        for (id, expected) in [
            ("z", "unknown accelerator `Z` (Table 5 defines A-M)"),
            ("JK", "accelerator id must be a single letter A-M, got `JK`"),
        ] {
            let suite = message(&format!(
                r#"{{ "kind": "suite", "hardware": {{ "accelerator": {{ "id": "{id}", "pes": 4096 }} }} }}"#
            ));
            assert_eq!(suite, expected);
            assert_eq!(sweep(&format!(r#""accelerators": ["{id}"]"#)), expected);
        }
        let fleet = message(&format!(
            r#"{{ "kind": "fleet", {UNIFORM_HW}, "recovery": "teleport",
                 "fleet": {{ "name": "f", "groups": [
                     {{ "name": "a", "replicas": 1, "session":
                         {{ "name": "s", "uniform": {{ "scenario": "VR Gaming", "users": 1 }} }} }} ] }} }}"#
        ));
        let expected = "unknown recovery policy `teleport` (expected drop, requeue, or migrate)";
        assert_eq!(fleet, expected);
        assert_eq!(
            sweep(r#""accelerators": ["J"], "recovery": ["teleport"]"#),
            expected
        );
    }

    #[test]
    fn suite_local_scenarios_extend_the_builtins() {
        let doc = RunDocument::from_json_str(&format!(
            r#"{{ "kind": "suite", {UNIFORM_HW}, "repeats": 1,
                  "scenarios": [ {{ "name": "Fitness", "models": [
                      {{ "model": "HT", "target_fps": 30.0 }} ] }} ] }}"#
        ))
        .unwrap();
        let RunDocument::Suite(suite) = doc else {
            panic!("expected suite");
        };
        assert_eq!(suite.catalog.len(), 8);
        assert!(suite.catalog.contains("Fitness"));
        let report = suite.execute();
        assert_eq!(report.scenarios.len(), 8);
    }
}
