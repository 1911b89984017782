//! The `xrbench` command-line driver.
//!
//! Turns the declarative workload subsystem into a benchmark *suite*
//! anyone can drive from text files: spec documents go in, the
//! library's report JSON comes out. Every run subcommand executes
//! through [`xrbench_core::RunDocument`] — the same validated entry
//! points the library exposes — so the CLI path is bit-for-bit
//! identical to the programmatic path (CI enforces this on every
//! push).
//!
//! ```text
//! xrbench run-suite   <SPEC.json> [--out FILE] [--strict]
//! xrbench run-session <SPEC.json> [--out FILE] [--strict]
//! xrbench run-fleet   <SPEC.json> [--out FILE] [--strict] [--compare-policies]
//!                     [--shards N [--max-procs M]] [--shard K/N]
//! xrbench sweep       <SPEC.json> [--out FILE] [--strict]
//!                     [--checkpoint FILE [--limit N]]
//!                     [--shards N [--max-procs M]] [--shard K/N]
//! xrbench analyze     <SPEC.json> [--json] [--accelerator ID] [--pes N]
//! xrbench gen-scenarios [--seed N] [--count N] [--out-dir DIR]
//!                       [--min-models N] [--max-models N]
//!                       [--feasible] [--accelerator ID] [--pes N]
//! xrbench list <models|scenarios|accelerators>
//! xrbench export-specs [--dir DIR]
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

use xrbench_analysis::{
    analyze_fleet, analyze_run_document, analyze_scenario, analyze_session, Analysis,
    FeasibleSampling,
};
use xrbench_core::{RunDocument, Runner, SweepOptions, SweepShardState};
use xrbench_workload::spec::SpecError;
use xrbench_workload::{scenario_to_json, ScenarioCatalog, ScenarioSpace, UsageScenario};

pub mod export;

/// The usage text printed by `--help` and on argument errors.
pub const USAGE: &str = "\
xrbench — the XRBench benchmark suite driver

USAGE:
  xrbench run-suite   <SPEC.json> [--out FILE] [--strict]   run a `kind: suite` document
  xrbench run-session <SPEC.json> [--out FILE] [--strict]   run a `kind: session` document
  xrbench run-fleet   <SPEC.json> [--out FILE] [--strict]   run a `kind: fleet` document
                      [--compare-policies]       replay the fleet once per recovery
                                                 policy (drop / requeue / migrate)
                                                 under the identical fault timelines
                      [--shards N [--max-procs M]]  distribute the fleet across N child
                                                 OS processes (at most M alive at once)
                                                 and merge their partial states into a
                                                 report byte-identical to the
                                                 single-process run
                      [--shard K/N]              run only shard K of N and print the
                                                 partial shard state (what --shards
                                                 children do; composable by hand across
                                                 machines)
  xrbench sweep       <SPEC.json> [--out FILE] [--strict]   run a `kind: sweep` design-space
                                                 exploration document: the axis cross
                                                 product is evaluated through a memo
                                                 cache and folded into Pareto frontiers
                      [--checkpoint FILE]        persist completed points to FILE after
                                                 each batch of evaluations (replacing
                                                 FILE atomically) and resume from an
                                                 existing FILE, so a killed sweep
                                                 continues where it stopped
                      [--limit N]                stop after N completed points without
                                                 reporting (requires --checkpoint; a
                                                 deterministic \"kill\" for testing
                                                 resumption)
                      [--shards N [--max-procs M]]  distribute the point list across N
                                                 child OS processes and merge, byte-
                                                 identical to the single-process sweep
                      [--shard K/N]              run only shard K of N and print the
                                                 partial sweep shard state
  xrbench analyze     <SPEC.json> [--json]       static schedulability analysis (XA###
                      [--accelerator ID] [--pes N]  diagnostics) of any spec file
  xrbench gen-scenarios [--seed N] [--count N] [--out-dir DIR]
                        [--min-models N] [--max-models N]
                        [--feasible] [--accelerator ID] [--pes N]
                                                 sample random valid scenarios
  xrbench list <models|scenarios|accelerators>   print the builtin catalogs
  xrbench export-specs [--dir DIR]               write the builtin specs (default: specs/)

Reports are the library's JSON, printed to stdout (or --out FILE).
`analyze` accepts run documents as well as bare scenario / session /
fleet specs; bare specs (and `gen-scenarios --feasible`) are analyzed
against accelerator --accelerator (default J) at --pes (default 8192)
PEs. `--strict` refuses run specs with analyzer errors; without it the
errors are printed as hints before the report. Diagnostics go to
stderr; exit code 0 on success (or a clean analysis), 1 on a spec/run
error or an analysis with errors, 2 on a usage error.";

/// A fatal CLI error with its exit code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError {
    /// Message for stderr.
    pub message: String,
    /// Process exit code (1 = spec/run error, 2 = usage error).
    pub code: i32,
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for CliError {}

fn usage_error(message: impl Into<String>) -> CliError {
    CliError {
        message: format!("{}\n\n{USAGE}", message.into()),
        code: 2,
    }
}

fn run_error(message: impl Into<String>) -> CliError {
    CliError {
        message: message.into(),
        code: 1,
    }
}

/// What `list` should print.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ListKind {
    /// The eleven Table 1 unit models.
    Models,
    /// The seven builtin Table 2 scenarios.
    Scenarios,
    /// The thirteen Table 5 accelerator configurations.
    Accelerators,
}

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `run-suite` / `run-session` / `run-fleet`.
    Run {
        /// The document kind the subcommand requires (`suite`,
        /// `session`, or `fleet`).
        kind: &'static str,
        /// The spec file to load.
        spec: PathBuf,
        /// Where to write the report instead of stdout.
        out: Option<PathBuf>,
        /// Refuse to run when the analyzer reports errors.
        strict: bool,
        /// Run the fleet once per recovery policy and emit the
        /// comparison report instead (`run-fleet` only).
        compare: bool,
        /// Child mode: run only shard `K` of `N` and print the
        /// partial [`xrbench_fleet::ShardState`] JSON (`run-fleet`
        /// only).
        shard: Option<(u32, u32)>,
        /// Coordinator mode: distribute the fleet across this many
        /// child processes and merge (`run-fleet` only).
        shards: Option<u32>,
        /// Bound on concurrently-alive shard children (requires
        /// `--shards`; defaults to the fleet worker heuristic).
        max_procs: Option<usize>,
    },
    /// `sweep`.
    Sweep {
        /// The sweep document to run.
        spec: PathBuf,
        /// Where to write the report instead of stdout.
        out: Option<PathBuf>,
        /// Refuse to run when the analyzer reports errors.
        strict: bool,
        /// Persist completed points here after each batch of
        /// evaluations and resume from an existing file.
        checkpoint: Option<PathBuf>,
        /// Stop after this many completed points without reporting
        /// (requires `--checkpoint`).
        limit: Option<usize>,
        /// Child mode: run only shard `K` of `N` and print the
        /// partial [`xrbench_core::SweepShardState`] JSON.
        shard: Option<(u32, u32)>,
        /// Coordinator mode: distribute the point list across this
        /// many child processes and merge.
        shards: Option<u32>,
        /// Bound on concurrently-alive shard children (requires
        /// `--shards`; defaults to the fleet worker heuristic).
        max_procs: Option<usize>,
    },
    /// `analyze`.
    Analyze {
        /// The spec file to analyze (run document or bare
        /// scenario / session / fleet spec).
        spec: PathBuf,
        /// Emit the stable JSON form instead of the human rendering.
        json: bool,
        /// Accelerator id for bare specs (Table 5 letter).
        accelerator: char,
        /// PE count for bare specs.
        pes: u64,
    },
    /// `gen-scenarios`.
    GenScenarios {
        /// Base seed (consecutive seeds sample the scenarios).
        seed: u64,
        /// How many scenarios to sample.
        count: u32,
        /// Write one file per scenario here instead of a JSON array
        /// on stdout.
        out_dir: Option<PathBuf>,
        /// Override the space's minimum model count.
        min_models: Option<usize>,
        /// Override the space's maximum model count.
        max_models: Option<usize>,
        /// Re-sample until each draw is analyzer-clean.
        feasible: bool,
        /// Accelerator id the feasibility filter analyzes against.
        accelerator: char,
        /// PE count the feasibility filter analyzes against.
        pes: u64,
    },
    /// `list`.
    List(ListKind),
    /// `export-specs`.
    ExportSpecs {
        /// Target directory (default `specs/`).
        dir: PathBuf,
    },
    /// `--help` / `help`.
    Help,
}

fn parse_value<T: std::str::FromStr>(flag: &str, value: Option<String>) -> Result<T, CliError> {
    let value = value.ok_or_else(|| usage_error(format!("{flag} needs a value")))?;
    value
        .parse()
        .map_err(|_| usage_error(format!("invalid value for {flag}: `{value}`")))
}

/// Parses an `--accelerator` id through the decoder run documents and
/// sweeps use, so every surface accepts and words ids alike.
fn parse_accelerator(value: Option<String>) -> Result<char, CliError> {
    let value = value.ok_or_else(|| usage_error("--accelerator needs a value"))?;
    xrbench_core::spec::parse_accelerator_id(&value)
        .map_err(|e| usage_error(format!("invalid value for --accelerator: {e}")))
}

/// Parses a `K/N` shard coordinate (`0 ≤ K < N`).
fn parse_shard(value: &str) -> Result<(u32, u32), CliError> {
    let err = || {
        usage_error(format!(
            "invalid value for --shard: `{value}` (expected K/N with K < N)"
        ))
    };
    let (k, n) = value.split_once('/').ok_or_else(err)?;
    let k: u32 = k.parse().map_err(|_| err())?;
    let n: u32 = n.parse().map_err(|_| err())?;
    if n == 0 || k >= n {
        return Err(err());
    }
    Ok((k, n))
}

/// Parses the flags of a run subcommand (`run-suite`, `run-session`,
/// `run-fleet` or `sweep`). Every flag is read by one loop and every
/// combination is checked once, so `--shard`, `--shards` and
/// `--max-procs` mean the same for fleets and sweeps.
fn parse_run(sub: &str, mut it: impl Iterator<Item = String>) -> Result<Command, CliError> {
    let mut spec = None;
    let mut out = None;
    let mut strict = false;
    let mut compare = false;
    let mut checkpoint = None;
    let mut limit = None;
    let mut shard = None;
    let mut shards = None;
    let mut max_procs = None;
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => out = Some(PathBuf::from(parse_value::<String>("--out", it.next())?)),
            "--strict" => strict = true,
            "--compare-policies" => compare = true,
            "--checkpoint" => {
                checkpoint = Some(PathBuf::from(parse_value::<String>(
                    "--checkpoint",
                    it.next(),
                )?))
            }
            "--limit" => limit = Some(parse_value::<usize>("--limit", it.next())?),
            "--shard" => {
                let value: String = parse_value("--shard", it.next())?;
                shard = Some(parse_shard(&value)?);
            }
            "--shards" => shards = Some(parse_value::<u32>("--shards", it.next())?),
            "--max-procs" => max_procs = Some(parse_value::<usize>("--max-procs", it.next())?),
            _ if arg.starts_with('-') => return Err(usage_error(format!("unknown flag `{arg}`"))),
            _ if spec.is_none() => spec = Some(PathBuf::from(arg)),
            _ => return Err(usage_error(format!("unexpected argument `{arg}`"))),
        }
    }
    let sweep = sub == "sweep";
    let sharded = shard.is_some() || shards.is_some();
    let refusal = if compare && sub != "run-fleet" {
        Some("--compare-policies is only valid with run-fleet")
    } else if (checkpoint.is_some() || limit.is_some()) && !sweep {
        Some("--checkpoint/--limit are only valid with sweep")
    } else if sharded && !sweep && sub != "run-fleet" {
        Some("--shard/--shards are only valid with run-fleet and sweep")
    } else if shard.is_some() && shards.is_some() {
        Some("--shard (child mode) and --shards (coordinator mode) are mutually exclusive")
    } else if shards == Some(0) {
        Some("--shards needs at least one shard")
    } else if max_procs.is_some() && shards.is_none() {
        Some("--max-procs requires --shards")
    } else if max_procs == Some(0) {
        Some("--max-procs needs at least one process")
    } else if compare && sharded {
        Some("--compare-policies cannot be combined with --shard/--shards")
    } else if limit.is_some() && checkpoint.is_none() {
        Some(
            "--limit requires --checkpoint (the partial progress must land somewhere a later \
             run can resume from)",
        )
    } else if limit == Some(0) {
        Some("--limit needs at least one point")
    } else if (checkpoint.is_some() || limit.is_some()) && sharded {
        Some("--checkpoint/--limit cannot be combined with --shard/--shards")
    } else {
        None
    };
    if let Some(message) = refusal {
        return Err(usage_error(message));
    }
    let spec = spec.ok_or_else(|| usage_error(format!("{sub} needs a spec file argument")))?;
    Ok(match sub {
        "sweep" => Command::Sweep {
            spec,
            out,
            strict,
            checkpoint,
            limit,
            shard,
            shards,
            max_procs,
        },
        _ => Command::Run {
            kind: match sub {
                "run-suite" => "suite",
                "run-session" => "session",
                _ => "fleet",
            },
            spec,
            out,
            strict,
            compare,
            shard,
            shards,
            max_procs,
        },
    })
}

impl Command {
    /// Parses the arguments after the program name.
    ///
    /// # Errors
    ///
    /// Returns a code-2 [`CliError`] (with usage text) for unknown
    /// subcommands, missing operands, or malformed flag values.
    pub fn parse(args: &[String]) -> Result<Self, CliError> {
        let mut it = args.iter().cloned();
        let Some(sub) = it.next() else {
            return Err(usage_error("missing subcommand"));
        };
        match sub.as_str() {
            "--help" | "-h" | "help" => Ok(Command::Help),
            "run-suite" | "run-session" | "run-fleet" | "sweep" => parse_run(&sub, it),
            "analyze" => {
                let mut spec = None;
                let mut json = false;
                let mut accelerator = 'J';
                let mut pes = 8192u64;
                while let Some(arg) = it.next() {
                    match arg.as_str() {
                        "--json" => json = true,
                        "--accelerator" => accelerator = parse_accelerator(it.next())?,
                        "--pes" => pes = parse_value("--pes", it.next())?,
                        _ if arg.starts_with('-') => {
                            return Err(usage_error(format!("unknown flag `{arg}`")))
                        }
                        _ if spec.is_none() => spec = Some(PathBuf::from(arg)),
                        _ => return Err(usage_error(format!("unexpected argument `{arg}`"))),
                    }
                }
                let spec = spec.ok_or_else(|| usage_error("analyze needs a spec file argument"))?;
                Ok(Command::Analyze {
                    spec,
                    json,
                    accelerator,
                    pes,
                })
            }
            "gen-scenarios" => {
                let mut seed = 0u64;
                let mut count = 8u32;
                let mut out_dir = None;
                let mut min_models = None;
                let mut max_models = None;
                let mut feasible = false;
                let mut accelerator = 'J';
                let mut pes = 8192u64;
                while let Some(arg) = it.next() {
                    match arg.as_str() {
                        "--seed" => seed = parse_value("--seed", it.next())?,
                        "--count" => count = parse_value("--count", it.next())?,
                        "--feasible" => feasible = true,
                        "--accelerator" => accelerator = parse_accelerator(it.next())?,
                        "--pes" => pes = parse_value("--pes", it.next())?,
                        "--min-models" => {
                            min_models = Some(parse_value("--min-models", it.next())?)
                        }
                        "--max-models" => {
                            max_models = Some(parse_value("--max-models", it.next())?)
                        }
                        "--out-dir" => {
                            out_dir = Some(PathBuf::from(parse_value::<String>(
                                "--out-dir",
                                it.next(),
                            )?))
                        }
                        _ => return Err(usage_error(format!("unknown argument `{arg}`"))),
                    }
                }
                if count == 0 {
                    return Err(usage_error("--count must be at least 1"));
                }
                Ok(Command::GenScenarios {
                    seed,
                    count,
                    out_dir,
                    min_models,
                    max_models,
                    feasible,
                    accelerator,
                    pes,
                })
            }
            "list" => {
                let what = it.next().ok_or_else(|| {
                    usage_error("list needs one of: models, scenarios, accelerators")
                })?;
                if let Some(extra) = it.next() {
                    return Err(usage_error(format!("unexpected argument `{extra}`")));
                }
                match what.as_str() {
                    "models" => Ok(Command::List(ListKind::Models)),
                    "scenarios" => Ok(Command::List(ListKind::Scenarios)),
                    "accelerators" => Ok(Command::List(ListKind::Accelerators)),
                    other => Err(usage_error(format!(
                        "unknown list target `{other}` (expected models, scenarios, or accelerators)"
                    ))),
                }
            }
            "export-specs" => {
                let mut dir = PathBuf::from("specs");
                while let Some(arg) = it.next() {
                    match arg.as_str() {
                        "--dir" => dir = PathBuf::from(parse_value::<String>("--dir", it.next())?),
                        _ => return Err(usage_error(format!("unknown argument `{arg}`"))),
                    }
                }
                Ok(Command::ExportSpecs { dir })
            }
            other => Err(usage_error(format!(
                "unknown subcommand `{other}` (expected run-suite, run-session, run-fleet, \
                 sweep, analyze, gen-scenarios, list, export-specs, or help)"
            ))),
        }
    }
}

/// What an executed command wants done with the world: text for
/// stdout, files to write, and lines for stderr.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Output {
    /// Text for stdout (already newline-terminated when non-empty).
    pub stdout: String,
    /// Files to write, in order.
    pub files: Vec<(PathBuf, String)>,
    /// Progress lines for stderr.
    pub notes: Vec<String>,
    /// Process exit code after a successful apply (non-zero when an
    /// analysis carried errors).
    pub exit_code: i32,
}

/// Executes a parsed command, returning its output (pure except for
/// reading the spec file — and, under `run-fleet --shards N` /
/// `sweep --shards N`, spawning the shard child processes whose
/// states it merges, plus the checkpoint file `sweep --checkpoint`
/// maintains).
///
/// # Errors
///
/// Returns a [`CliError`] carrying the exit code: 1 for unreadable or
/// invalid specs and failed shard children, 2 never (usage errors are
/// caught at parse time).
pub fn execute(command: &Command) -> Result<Output, CliError> {
    match command {
        Command::Help => Ok(Output {
            stdout: format!("{USAGE}\n"),
            ..Output::default()
        }),
        Command::Run {
            kind,
            spec,
            out,
            strict,
            compare,
            shard,
            shards,
            max_procs,
        } => run_document(
            kind,
            spec,
            out.as_deref(),
            *strict,
            *compare,
            *shard,
            shards.map(|n| (n, max_procs.unwrap_or_else(default_max_procs))),
        ),
        Command::Sweep {
            spec,
            out,
            strict,
            checkpoint,
            limit,
            shard,
            shards,
            max_procs,
        } => run_sweep(SweepParams {
            spec,
            out: out.as_deref(),
            strict: *strict,
            checkpoint: checkpoint.as_deref(),
            limit: *limit,
            shard: *shard,
            shards: shards.map(|n| (n, max_procs.unwrap_or_else(default_max_procs))),
        }),
        Command::Analyze {
            spec,
            json,
            accelerator,
            pes,
        } => analyze_file(spec, *json, *accelerator, *pes),
        Command::GenScenarios {
            seed,
            count,
            out_dir,
            min_models,
            max_models,
            feasible,
            accelerator,
            pes,
        } => gen_scenarios(GenParams {
            seed: *seed,
            count: *count,
            out_dir: out_dir.as_deref(),
            min_models: *min_models,
            max_models: *max_models,
            feasible: *feasible,
            accelerator: *accelerator,
            pes: *pes,
        }),
        Command::List(kind) => Ok(Output {
            stdout: list(*kind),
            ..Output::default()
        }),
        Command::ExportSpecs { dir } => Ok(export_specs(dir)),
    }
}

/// The default bound on concurrently-alive shard children: the same
/// heuristic as the in-process worker pool. Each child runs its own
/// pool — a fleet child over its shard's sessions, a sweep child over
/// its slice's distinct evaluations — so the coordinator's job is to
/// stop N × workers threads from landing on one machine at once.
fn default_max_procs() -> usize {
    xrbench_fleet::default_workers()
}

/// Loads a run document, enforces the subcommand's expected kind, and
/// runs the up-front static analysis (refusing under `--strict`,
/// emitting hint notes otherwise). Shared by every run subcommand.
fn load_checked(
    kind: &str,
    spec: &Path,
    strict: bool,
) -> Result<(RunDocument, Vec<String>), CliError> {
    let text = fs::read_to_string(spec)
        .map_err(|e| run_error(format!("cannot read {}: {e}", spec.display())))?;
    let doc = RunDocument::from_json_str(&text)
        .map_err(|e| run_error(format!("{}: {e}", spec.display())))?;
    if doc.kind() != kind {
        // The subcommand is the kind's stem with a `run-` prefix for
        // the three classic kinds; `sweep` is its own subcommand.
        let subcommand = match doc.kind() {
            "sweep" => "sweep".to_string(),
            other => format!("run-{other}"),
        };
        return Err(run_error(format!(
            "{}: document kind is `{}` — use `xrbench {}` for it",
            spec.display(),
            doc.kind(),
            subcommand
        )));
    }
    // Statically-infeasible specs would otherwise surface only as
    // opaque drop counters in a zero-score report: surface the
    // analyzer's verdict up front (or refuse outright under --strict).
    let analysis = analyze_run_document(&doc);
    let mut notes = Vec::new();
    if analysis.has_errors() {
        let lines: Vec<String> = analysis.errors().map(|d| d.render()).collect();
        if strict {
            return Err(run_error(format!(
                "{}: refusing statically-infeasible spec (--strict):\n{}",
                spec.display(),
                lines.join("\n")
            )));
        }
        notes.extend(lines.into_iter().map(|l| format!("analyze: {l}")));
        notes.push(
            "analyze: the spec is statically infeasible — expect drops; pass --strict to refuse \
             such runs"
                .to_string(),
        );
    }
    Ok((doc, notes))
}

/// Packages a report (already newline-terminated) for `--out FILE` or
/// stdout, carrying the accumulated stderr notes.
fn package(report: String, out: Option<&Path>, mut notes: Vec<String>) -> Output {
    match out {
        Some(path) => {
            notes.push(format!("report written to {}", path.display()));
            Output {
                files: vec![(path.to_path_buf(), report)],
                notes,
                ..Output::default()
            }
        }
        None => Output {
            stdout: report,
            notes,
            ..Output::default()
        },
    }
}

fn run_document(
    kind: &str,
    spec: &Path,
    out: Option<&Path>,
    strict: bool,
    compare: bool,
    shard: Option<(u32, u32)>,
    shards: Option<(u32, usize)>,
) -> Result<Output, CliError> {
    let (doc, mut notes) = load_checked(kind, spec, strict)?;
    let report = match (&doc, compare, shard, shards) {
        // The parser only accepts --compare-policies and
        // --shard/--shards with run-fleet, and the kind check above
        // guarantees the document matches.
        (RunDocument::Fleet(run), true, _, _) => {
            let comparison = run.compare_policies();
            notes.extend(comparison.render_table().lines().map(str::to_string));
            comparison.to_json()
        }
        // Child mode: run one shard, embed this process's peak RSS,
        // and emit the partial state instead of a report.
        (RunDocument::Fleet(run), false, Some((k, n)), _) => {
            let mut state = run.run_shard(k, n);
            state.peak_rss_mib = peak_rss_mib();
            state.to_json()
        }
        // Coordinator mode: fork/exec one child per shard and merge
        // their states into the ordinary fleet report.
        (RunDocument::Fleet(_), false, None, Some(shards)) => {
            run_sharded(&doc, "run-fleet", spec, shards, &mut notes)?
        }
        // Plain runs all dispatch through the unified `Runner` — the
        // same entry point library callers use, so the CLI path stays
        // bit-for-bit identical to the programmatic one.
        _ => Runner::new()
            .run(&doc)
            .map_err(|e| run_error(format!("{}: {e}", spec.display())))?
            .to_json(),
    } + "\n";
    Ok(package(report, out, notes))
}

/// Bundled `sweep` execution parameters.
struct SweepParams<'a> {
    spec: &'a Path,
    out: Option<&'a Path>,
    strict: bool,
    checkpoint: Option<&'a Path>,
    limit: Option<usize>,
    shard: Option<(u32, u32)>,
    shards: Option<(u32, usize)>,
}

fn run_sweep(params: SweepParams<'_>) -> Result<Output, CliError> {
    let SweepParams {
        spec,
        out,
        strict,
        checkpoint,
        limit,
        shard,
        shards,
    } = params;
    let (doc, mut notes) = load_checked("sweep", spec, strict)?;
    let RunDocument::Sweep(run) = &doc else {
        // load_checked verified kind() == "sweep".
        unreachable!("kind check admits only sweep documents");
    };
    // Child mode: evaluate one slice of the point list and emit the
    // partial shard state for the coordinator to merge.
    if let Some((k, n)) = shard {
        return Ok(package(run.run_shard(k, n).to_json() + "\n", out, notes));
    }
    // Coordinator mode: fork/exec one child per shard and merge.
    if let Some(shards) = shards {
        let report = run_sharded(&doc, "sweep", spec, shards, &mut notes)?;
        return Ok(package(report + "\n", out, notes));
    }
    let options = SweepOptions {
        checkpoint: checkpoint.map(Path::to_path_buf),
        limit,
    };
    let outcome = run
        .run_with(&options)
        .map_err(|e| run_error(format!("{}: {e}", spec.display())))?;
    let stats = outcome.stats;
    if stats.resumed > 0 {
        notes.push(format!(
            "resumed {} completed points from the checkpoint",
            stats.resumed
        ));
    }
    let served = stats.evaluated + stats.cache_hits;
    let hit_rate = if served == 0 {
        0.0
    } else {
        100.0 * stats.cache_hits as f64 / served as f64
    };
    notes.push(format!(
        "{} points: {} evaluated, {} cache hits ({hit_rate:.0}% hit rate), {} resumed",
        stats.points, stats.evaluated, stats.cache_hits, stats.resumed
    ));
    match outcome.report {
        Some(report) => Ok(package(report.to_json() + "\n", out, notes)),
        None => {
            // --limit stopped the sweep early: the progress lives in
            // the checkpoint file; there is nothing to report yet.
            let done = stats.resumed + served;
            notes.push(format!(
                "stopped by --limit with {done}/{} points checkpointed — rerun without --limit \
                 to finish",
                stats.points
            ));
            Ok(Output {
                notes,
                ..Output::default()
            })
        }
    }
}

/// Coordinator mode for `run-fleet --shards N` and `sweep --shards N`:
/// re-execs this binary once per shard (`<subcommand> <spec> --shard
/// k/N`) with at most `max_procs` children alive at once, retrying a
/// failing child once before the run aborts with its stderr (see
/// [`xrbench_fleet::supervise`]), and merges the children's states
/// into a report byte-identical to the single-process run.
fn run_sharded(
    doc: &RunDocument,
    subcommand: &str,
    spec: &Path,
    (num_shards, max_procs): (u32, usize),
    notes: &mut Vec<String>,
) -> Result<String, CliError> {
    let exe = std::env::current_exe()
        .map_err(|e| run_error(format!("cannot locate the xrbench binary to re-exec: {e}")))?;
    notes.push(format!(
        "sharding across {num_shards} child processes (≤ {max_procs} concurrent)"
    ));
    let outputs = xrbench_fleet::supervise(num_shards, max_procs, &mut |k| {
        let mut cmd = std::process::Command::new(&exe);
        cmd.arg(subcommand)
            .arg(spec)
            .arg("--shard")
            .arg(format!("{k}/{num_shards}"));
        cmd
    })
    .map_err(|e| run_error(e.to_string()))?;
    merge_shard_outputs(doc, &outputs, notes)
}

/// The coordinator's decode-and-merge step, apart from spawning: child
/// `k`'s stdout must hold the state of shard `k` of `outputs.len()`,
/// and the states must merge for `doc`. Every refusal is a code-1
/// error naming the shard.
fn merge_shard_outputs(
    doc: &RunDocument,
    outputs: &[String],
    notes: &mut Vec<String>,
) -> Result<String, CliError> {
    let merge_error = |e: &dyn fmt::Display| run_error(format!("merging shard states: {e}"));
    match doc {
        RunDocument::Fleet(run) => {
            let states =
                decode_shard_outputs(outputs, xrbench_fleet::ShardState::from_json, |s| {
                    (s.shard, s.num_shards)
                })?;
            let child_rss = states.iter().filter_map(|s| s.peak_rss_mib);
            if let Some(max_rss) = child_rss.reduce(f64::max) {
                notes.push(format!("max shard-child peak RSS: {max_rss:.1} MiB"));
            }
            let report = run.merge_shards(&states).map_err(|e| merge_error(&e))?;
            Ok(report.to_json())
        }
        RunDocument::Sweep(run) => {
            let states = decode_shard_outputs(outputs, SweepShardState::from_json, |s| {
                (s.shard, s.num_shards)
            })?;
            let evaluated: usize = states.iter().map(|s| s.evaluated).sum();
            let cache_hits: usize = states.iter().map(|s| s.cache_hits).sum();
            notes.push(format!(
                "shard children: {evaluated} evaluated, {cache_hits} cache hits"
            ));
            let report = run.merge_shards(&states).map_err(|e| merge_error(&e))?;
            Ok(report.to_json())
        }
        _ => unreachable!("the parser admits --shards only for fleets and sweeps"),
    }
}

/// Decodes each child's stdout and checks that child `k` returned the
/// state of shard `k` of `outputs.len()`.
fn decode_shard_outputs<S>(
    outputs: &[String],
    decode: fn(&str) -> Result<S, SpecError>,
    coordinate: fn(&S) -> (u32, u32),
) -> Result<Vec<S>, CliError> {
    let n = outputs.len() as u32;
    (0..n)
        .zip(outputs)
        .map(|(k, text)| {
            let state = decode(text.trim())
                .map_err(|e| run_error(format!("shard {k} returned an unreadable state: {e}")))?;
            let (shard, of) = coordinate(&state);
            if (shard, of) != (k, n) {
                return Err(run_error(format!(
                    "shard {k} returned the state of shard {shard}/{of}, not {k}/{n}"
                )));
            }
            Ok(state)
        })
        .collect()
}

/// This process's peak resident set size in MiB (Linux `VmHWM`), if
/// the platform exposes it. Shard children embed it in their state so
/// the coordinator — and the CI gate — can observe per-process
/// memory without OS-specific tooling on the outside.
fn peak_rss_mib() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Builds the default system bare specs are analyzed against: a Table
/// 5 accelerator, decoded by [`parse_accelerator`], instantiated at a
/// PE count.
fn default_system(accelerator: char, pes: u64) -> xrbench_accel::AcceleratorSystem {
    let config = xrbench_accel::config_by_id(accelerator).expect("--accelerator was decoded");
    xrbench_accel::AcceleratorSystem::new(config, pes)
}

/// Loads any spec file — run document or bare scenario / session /
/// fleet spec — and analyzes it. Bare specs (which carry no system)
/// are analyzed against [`default_system`].
fn load_analysis(spec: &Path, accelerator: char, pes: u64) -> Result<Analysis, CliError> {
    let text = fs::read_to_string(spec)
        .map_err(|e| run_error(format!("cannot read {}: {e}", spec.display())))?;
    let value = xrbench_workload::spec::parse_json(&text)
        .map_err(|e| run_error(format!("{}: {e}", spec.display())))?;
    let root = serde::de::Cursor::root(&value);
    let has = |field: &str| matches!(root.opt_field(field), Ok(Some(_)));
    let spec_err = |e: &dyn fmt::Display| run_error(format!("{}: {e}", spec.display()));
    if has("kind") {
        let doc = RunDocument::from_json_str(&text).map_err(|e| spec_err(&e))?;
        Ok(analyze_run_document(&doc))
    } else if has("groups") {
        let fleet = xrbench_fleet::fleet_from_str(&text, &ScenarioCatalog::builtin())
            .map_err(|e| spec_err(&e))?;
        Ok(analyze_fleet(&fleet, &default_system(accelerator, pes)))
    } else if has("models") {
        let scenario = xrbench_workload::scenario_from_str(&text).map_err(|e| spec_err(&e))?;
        Ok(analyze_scenario(
            &scenario,
            &default_system(accelerator, pes),
        ))
    } else if has("users") || has("uniform") || has("mixed") {
        let session = xrbench_workload::session_from_str(&text, &ScenarioCatalog::builtin())
            .map_err(|e| spec_err(&e))?;
        Ok(analyze_session(&session, &default_system(accelerator, pes)))
    } else {
        Err(run_error(format!(
            "{}: not a recognizable spec (expected a `kind` run document, or a scenario / \
             session / fleet spec)",
            spec.display()
        )))
    }
}

fn analyze_file(spec: &Path, json: bool, accelerator: char, pes: u64) -> Result<Output, CliError> {
    let analysis = load_analysis(spec, accelerator, pes)?;
    let stdout = if json {
        analysis.to_json() + "\n"
    } else {
        analysis.to_text()
    };
    Ok(Output {
        stdout,
        exit_code: i32::from(analysis.has_errors()),
        ..Output::default()
    })
}

/// Bundled `gen-scenarios` parameters.
struct GenParams<'a> {
    seed: u64,
    count: u32,
    out_dir: Option<&'a Path>,
    min_models: Option<usize>,
    max_models: Option<usize>,
    feasible: bool,
    accelerator: char,
    pes: u64,
}

fn gen_scenarios(params: GenParams<'_>) -> Result<Output, CliError> {
    let GenParams {
        seed,
        count,
        out_dir,
        min_models,
        max_models,
        feasible,
        accelerator,
        pes,
    } = params;
    let mut space = ScenarioSpace::default();
    if let Some(min) = min_models {
        space.min_models = min;
    }
    if let Some(max) = max_models {
        space.max_models = max;
    }
    if space.min_models < 1
        || space.min_models > space.max_models
        || space.max_models > xrbench_models::ModelId::ALL.len()
    {
        return Err(run_error(format!(
            "model count bounds must satisfy 1 <= min <= max <= {}, got {}..={}",
            xrbench_models::ModelId::ALL.len(),
            space.min_models,
            space.max_models
        )));
    }
    let specs = if feasible {
        let system = default_system(accelerator, pes);
        space
            .feasible_only(&system)
            .try_sample_many(seed, count)
            .map_err(|e| run_error(e.to_string()))?
    } else {
        space.sample_many(seed, count)
    };
    match out_dir {
        Some(dir) => {
            let mut output = Output::default();
            for (i, spec) in specs.iter().enumerate() {
                let path = dir.join(format!("sampled_{}.json", seed.wrapping_add(i as u64)));
                output.files.push((path, scenario_to_json(spec) + "\n"));
            }
            output.notes.push(format!(
                "{count} scenario specs written to {}",
                dir.display()
            ));
            Ok(output)
        }
        None => {
            // One JSON array on stdout: each element is a loadable
            // scenario document.
            let mut stdout = String::from("[\n");
            for (i, spec) in specs.iter().enumerate() {
                for line in scenario_to_json(spec).lines() {
                    stdout.push_str("  ");
                    stdout.push_str(line);
                    stdout.push('\n');
                }
                if i + 1 < specs.len() {
                    stdout.truncate(stdout.len() - 1);
                    stdout.push_str(",\n");
                }
            }
            stdout.push_str("]\n");
            Ok(Output {
                stdout,
                ..Output::default()
            })
        }
    }
}

fn list(kind: ListKind) -> String {
    let mut out = String::new();
    match kind {
        ListKind::Models => {
            for m in xrbench_models::ModelId::ALL {
                out.push_str(&format!(
                    "{:<2}  {:<22}  {:<21}  {}\n",
                    m.abbrev(),
                    m.task_name(),
                    m.category().to_string(),
                    m.driving_source()
                ));
            }
        }
        ListKind::Scenarios => {
            for spec in ScenarioCatalog::builtin().iter() {
                let models: Vec<&str> = spec.models.iter().map(|m| m.model.abbrev()).collect();
                out.push_str(&format!(
                    "{:<20}  {} models [{}]{}  — {}\n",
                    spec.name,
                    spec.num_models(),
                    models.join(", "),
                    if spec.is_dynamic() { " (dynamic)" } else { "" },
                    spec.description
                ));
            }
        }
        ListKind::Accelerators => {
            for cfg in xrbench_accel::table5() {
                out.push_str(&format!(
                    "{}  {:<4}  {}\n",
                    cfg.id,
                    cfg.style.to_string(),
                    cfg.dataflow_description()
                ));
            }
        }
    }
    out
}

fn export_specs(dir: &Path) -> Output {
    let mut output = Output::default();
    for s in UsageScenario::ALL {
        let path = dir
            .join("scenarios")
            .join(export::scenario_file_name(&s.spec().name));
        output
            .files
            .push((path, scenario_to_json(&s.spec()) + "\n"));
    }
    for (name, body) in export::default_documents() {
        output.files.push((dir.join(name), body.to_string()));
    }
    output.notes.push(format!(
        "{} spec files written to {}",
        output.files.len(),
        dir.display()
    ));
    output
}

/// Applies an [`Output`] to the real world: writes files (creating
/// parent directories), prints stdout text, and emits notes on stderr.
///
/// # Errors
///
/// Returns a code-1 [`CliError`] if a file cannot be written.
pub fn apply(output: &Output) -> Result<(), CliError> {
    for (path, body) in &output.files {
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent)
                .map_err(|e| run_error(format!("cannot create {}: {e}", parent.display())))?;
        }
        fs::write(path, body)
            .map_err(|e| run_error(format!("cannot write {}: {e}", path.display())))?;
    }
    // Notes first, so analyzer hints land above the report when both
    // streams share a terminal.
    for note in &output.notes {
        eprintln!("xrbench: {note}");
    }
    if !output.stdout.is_empty() {
        print!("{}", output.stdout);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn parses_run_subcommands() {
        let cmd = Command::parse(&args(&["run-suite", "specs/suite_default.json"])).unwrap();
        assert_eq!(
            cmd,
            Command::Run {
                kind: "suite",
                spec: PathBuf::from("specs/suite_default.json"),
                out: None,
                strict: false,
                compare: false,
                shard: None,
                shards: None,
                max_procs: None,
            }
        );
        let cmd = Command::parse(&args(&[
            "run-fleet",
            "f.json",
            "--out",
            "r.json",
            "--strict",
            "--compare-policies",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Run {
                kind: "fleet",
                spec: PathBuf::from("f.json"),
                out: Some(PathBuf::from("r.json")),
                strict: true,
                compare: true,
                shard: None,
                shards: None,
                max_procs: None,
            }
        );
    }

    #[test]
    fn parses_shard_flags() {
        let cmd = Command::parse(&args(&["run-fleet", "f.json", "--shard", "2/8"])).unwrap();
        assert_eq!(
            cmd,
            Command::Run {
                kind: "fleet",
                spec: PathBuf::from("f.json"),
                out: None,
                strict: false,
                compare: false,
                shard: Some((2, 8)),
                shards: None,
                max_procs: None,
            }
        );
        let cmd = Command::parse(&args(&[
            "run-fleet",
            "f.json",
            "--shards",
            "4",
            "--max-procs",
            "2",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Run {
                kind: "fleet",
                spec: PathBuf::from("f.json"),
                out: None,
                strict: false,
                compare: false,
                shard: None,
                shards: Some(4),
                max_procs: Some(2),
            }
        );
    }

    #[test]
    fn shard_flag_combinations_are_validated() {
        for bad in [
            vec!["run-suite", "s.json", "--shards", "2"],
            vec!["run-session", "s.json", "--shard", "0/2"],
            vec!["run-fleet", "f.json", "--shard", "0/2", "--shards", "2"],
            vec!["run-fleet", "f.json", "--shards", "2", "--compare-policies"],
            vec![
                "run-fleet",
                "f.json",
                "--shard",
                "0/2",
                "--compare-policies",
            ],
            vec!["run-fleet", "f.json", "--shards", "0"],
            vec!["run-fleet", "f.json", "--max-procs", "2"],
            vec!["run-fleet", "f.json", "--shards", "2", "--max-procs", "0"],
            vec!["run-fleet", "f.json", "--shard", "2/2"],
            vec!["run-fleet", "f.json", "--shard", "1"],
            vec!["run-fleet", "f.json", "--shard", "a/b"],
            vec!["run-fleet", "f.json", "--shard", "0/0"],
        ] {
            let err = Command::parse(&args(&bad)).unwrap_err();
            assert_eq!(err.code, 2, "{bad:?}");
        }
    }

    #[test]
    fn parses_sweep_flags() {
        let cmd = Command::parse(&args(&["sweep", "specs/sweep_default.json"])).unwrap();
        assert_eq!(
            cmd,
            Command::Sweep {
                spec: PathBuf::from("specs/sweep_default.json"),
                out: None,
                strict: false,
                checkpoint: None,
                limit: None,
                shard: None,
                shards: None,
                max_procs: None,
            }
        );
        let cmd = Command::parse(&args(&[
            "sweep",
            "s.json",
            "--out",
            "r.json",
            "--strict",
            "--checkpoint",
            "ck.json",
            "--limit",
            "5",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Sweep {
                spec: PathBuf::from("s.json"),
                out: Some(PathBuf::from("r.json")),
                strict: true,
                checkpoint: Some(PathBuf::from("ck.json")),
                limit: Some(5),
                shard: None,
                shards: None,
                max_procs: None,
            }
        );
        let cmd = Command::parse(&args(&["sweep", "s.json", "--shard", "1/4"])).unwrap();
        assert_eq!(
            cmd,
            Command::Sweep {
                spec: PathBuf::from("s.json"),
                out: None,
                strict: false,
                checkpoint: None,
                limit: None,
                shard: Some((1, 4)),
                shards: None,
                max_procs: None,
            }
        );
    }

    #[test]
    fn sweep_flag_combinations_are_validated() {
        for bad in [
            vec!["sweep"],
            vec!["sweep", "s.json", "--limit", "5"],
            vec!["sweep", "s.json", "--checkpoint", "c.json", "--limit", "0"],
            vec!["sweep", "s.json", "--checkpoint", "c.json", "--shards", "2"],
            vec![
                "sweep",
                "s.json",
                "--checkpoint",
                "c.json",
                "--shard",
                "0/2",
            ],
            vec!["sweep", "s.json", "--shard", "0/2", "--shards", "2"],
            vec!["sweep", "s.json", "--shards", "0"],
            vec!["sweep", "s.json", "--max-procs", "2"],
            vec!["sweep", "s.json", "--shards", "2", "--max-procs", "0"],
            vec!["sweep", "s.json", "--shard", "2/2"],
            vec!["sweep", "s.json", "--compare-policies"],
            vec!["sweep", "s.json", "extra.json"],
        ] {
            let err = Command::parse(&args(&bad)).unwrap_err();
            assert_eq!(err.code, 2, "{bad:?}");
        }
    }

    #[test]
    fn unknown_subcommand_enumerates_the_real_ones() {
        let err = Command::parse(&args(&["frobnicate"])).unwrap_err();
        assert_eq!(err.code, 2);
        assert!(err.message.contains("unknown subcommand `frobnicate`"));
        for sub in [
            "run-suite",
            "run-session",
            "run-fleet",
            "sweep",
            "analyze",
            "gen-scenarios",
            "list",
            "export-specs",
            "help",
        ] {
            assert!(
                err.message.contains(sub),
                "missing `{sub}`: {}",
                err.message
            );
        }
    }

    #[test]
    fn compare_policies_is_fleet_only() {
        for sub in ["run-suite", "run-session"] {
            let err = Command::parse(&args(&[sub, "s.json", "--compare-policies"])).unwrap_err();
            assert_eq!(err.code, 2, "{sub}");
            assert!(err.message.contains("only valid with run-fleet"), "{sub}");
        }
    }

    #[test]
    fn parses_analyze() {
        let cmd = Command::parse(&args(&["analyze", "s.json"])).unwrap();
        assert_eq!(
            cmd,
            Command::Analyze {
                spec: PathBuf::from("s.json"),
                json: false,
                accelerator: 'J',
                pes: 8192,
            }
        );
        let cmd = Command::parse(&args(&[
            "analyze",
            "s.json",
            "--json",
            "--accelerator",
            "A",
            "--pes",
            "4096",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Analyze {
                spec: PathBuf::from("s.json"),
                json: true,
                accelerator: 'A',
                pes: 4096,
            }
        );
    }

    #[test]
    fn parses_gen_and_list_and_export() {
        let cmd = Command::parse(&args(&[
            "gen-scenarios",
            "--seed",
            "42",
            "--count",
            "3",
            "--max-models",
            "4",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::GenScenarios {
                seed: 42,
                count: 3,
                out_dir: None,
                min_models: None,
                max_models: Some(4),
                feasible: false,
                accelerator: 'J',
                pes: 8192,
            }
        );
        assert_eq!(
            Command::parse(&args(&["list", "models"])).unwrap(),
            Command::List(ListKind::Models)
        );
        assert_eq!(
            Command::parse(&args(&["export-specs", "--dir", "x"])).unwrap(),
            Command::ExportSpecs {
                dir: PathBuf::from("x")
            }
        );
    }

    #[test]
    fn usage_errors_have_code_2() {
        for bad in [
            vec!["frobnicate"],
            vec![],
            vec!["run-suite"],
            vec!["run-suite", "a.json", "b.json"],
            vec!["list"],
            vec!["list", "sandwiches"],
            vec!["gen-scenarios", "--count", "zero"],
            vec!["gen-scenarios", "--count", "0"],
            vec!["run-fleet", "f.json", "--checkpoint", "c.json"],
            vec!["run-session", "s.json", "--limit", "2"],
        ] {
            let err = Command::parse(&args(&bad)).unwrap_err();
            assert_eq!(err.code, 2, "{bad:?}");
            assert!(err.message.contains("USAGE"), "{bad:?}");
        }
    }

    #[test]
    fn missing_spec_file_is_a_run_error() {
        let err = execute(&Command::Run {
            kind: "suite",
            spec: PathBuf::from("/nonexistent/spec.json"),
            out: None,
            strict: false,
            compare: false,
            shard: None,
            shards: None,
            max_procs: None,
        })
        .unwrap_err();
        assert_eq!(err.code, 1);
        assert!(err.message.contains("cannot read"), "{err}");
    }

    /// A two-group fleet and a small sweep on uniform hardware, each
    /// under a seed.
    fn sharded_documents(seed: u64) -> [RunDocument; 2] {
        let fleet = format!(
            r#"{{ "kind": "fleet", "seed": {seed}, "duration_s": 0.05,
                 "hardware": {{ "uniform": {{ "engines": 2, "latency_s": 0.001, "energy_j": 0.001 }} }},
                 "fleet": {{ "name": "arcade", "groups": [
                   {{ "name": "vr", "replicas": 3, "session": {{ "name": "party",
                      "uniform": {{ "scenario": "VR Gaming", "users": 2, "stagger_s": 0.002 }} }} }},
                   {{ "name": "ar", "replicas": 2, "session": {{ "name": "walk",
                      "uniform": {{ "scenario": "AR Assistant", "users": 1, "stagger_s": 0.0 }} }} }} ] }} }}"#
        );
        let sweep = format!(
            r#"{{ "kind": "sweep", "seed": {seed}, "duration_s": 0.05, "accelerators": ["J"],
                 "schedulers": ["latency-greedy", "round-robin"], "recovery": ["drop", "requeue"],
                 "workloads": [ {{ "scenario": "VR Gaming" }} ] }}"#
        );
        [fleet, sweep].map(|text| RunDocument::from_json_str(&text).expect("valid document"))
    }

    /// What child `k` of `n` prints for `doc`.
    fn child_output(doc: &RunDocument, k: u32, n: u32) -> String {
        match doc {
            RunDocument::Fleet(run) => run.run_shard(k, n).to_json(),
            RunDocument::Sweep(run) => run.run_shard(k, n).to_json(),
            _ => unreachable!("only fleets and sweeps shard"),
        }
    }

    #[test]
    fn coordinator_merges_child_outputs_into_the_straight_report() {
        for doc in sharded_documents(3) {
            let outputs: Vec<String> = (0..3).map(|k| child_output(&doc, k, 3) + "\n").collect();
            let mut notes = Vec::new();
            let merged = merge_shard_outputs(&doc, &outputs, &mut notes).unwrap();
            assert_eq!(merged, Runner::new().run(&doc).unwrap().to_json());
        }
    }

    #[test]
    fn coordinator_refuses_adversarial_child_output_naming_the_shard() {
        let [fleet, sweep] = sharded_documents(3);
        let [other_fleet, other_sweep] = sharded_documents(4);
        for (doc, other, wrong_kind) in [
            (&fleet, &other_fleet, child_output(&sweep, 1, 3)),
            (&sweep, &other_sweep, child_output(&fleet, 1, 3)),
        ] {
            let valid: Vec<String> = (0..3).map(|k| child_output(doc, k, 3)).collect();
            let cases = [
                ("truncated JSON", valid[1][..valid[1].len() / 2].to_string()),
                ("empty stdout", String::new()),
                ("another shard's state", valid[0].clone()),
                ("another document's state", child_output(other, 1, 3)),
                ("a state of the wrong kind", wrong_kind),
            ];
            for (case, bad) in cases {
                let mut outputs = valid.clone();
                outputs[1] = bad;
                let err = merge_shard_outputs(doc, &outputs, &mut Vec::new()).unwrap_err();
                assert_eq!(err.code, 1, "{} {case}: {err}", doc.kind());
                assert!(
                    err.message.contains("shard 1"),
                    "{} {case}: {err}",
                    doc.kind()
                );
            }
        }
    }

    #[test]
    fn list_outputs_cover_the_catalogs() {
        let models = list(ListKind::Models);
        assert_eq!(models.lines().count(), 11);
        assert!(models.contains("Hand Tracking"));
        let scenarios = list(ListKind::Scenarios);
        assert_eq!(scenarios.lines().count(), 7);
        assert!(scenarios.contains("(dynamic)"));
        let accels = list(ListKind::Accelerators);
        assert_eq!(accels.lines().count(), 13);
        assert!(accels.contains("WS + OS (1:3 partitioning)"));
    }

    #[test]
    fn gen_scenarios_stdout_is_a_loadable_array() {
        let gen = Command::GenScenarios {
            seed: 5,
            count: 3,
            out_dir: None,
            min_models: None,
            max_models: None,
            feasible: false,
            accelerator: 'J',
            pes: 8192,
        };
        let out = execute(&gen).unwrap();
        let value = xrbench_workload::spec::parse_json(&out.stdout).unwrap();
        let items = serde::de::Cursor::root(&value).items().unwrap();
        assert_eq!(items.len(), 3);
        for item in &items {
            xrbench_workload::spec::scenario_from_value(item).unwrap();
        }
        // Deterministic for a fixed seed.
        assert_eq!(out, execute(&gen).unwrap());
    }

    #[test]
    fn feasible_gen_scenarios_are_analyzer_clean() {
        let gen = Command::GenScenarios {
            seed: 0,
            count: 4,
            out_dir: None,
            min_models: None,
            max_models: None,
            // J/4K is slow enough that some default-space samples are
            // infeasible, so the filter is exercised for real.
            feasible: true,
            accelerator: 'J',
            pes: 4096,
        };
        let out = execute(&gen).unwrap();
        let system = default_system('J', 4096);
        let value = xrbench_workload::spec::parse_json(&out.stdout).unwrap();
        let items = serde::de::Cursor::root(&value).items().unwrap();
        assert_eq!(items.len(), 4);
        for item in &items {
            let spec = xrbench_workload::spec::scenario_from_value(item).unwrap();
            assert!(
                !analyze_scenario(&spec, &system).has_errors(),
                "{}",
                spec.name
            );
        }
        assert_eq!(out, execute(&gen).unwrap(), "feasible gen is deterministic");
    }

    #[test]
    fn export_specs_writes_scenarios_and_documents() {
        let out = export_specs(Path::new("specs"));
        assert_eq!(out.files.len(), 7 + export::default_documents().len());
        for (path, body) in &out.files {
            assert!(path.starts_with("specs"), "{}", path.display());
            assert!(body.ends_with('\n'), "{}", path.display());
        }
    }
}
