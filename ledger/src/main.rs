//! `xrledger`: the in-process half of the XRBench performance ledger.
//!
//! `run.py` next to this package generates the workload documents from
//! a seed and drives this binary; the library only ever sees the
//! generated JSON. Two subcommands, each printing one JSON object:
//!
//! * `measure --doc FILE --seconds S [--min-runs N] [--report-out FILE]` — repeated
//!   set-up (document parse plus `SystemSpec::build`), then complete
//!   runs (parse → `Runner::run` → report bytes) for `S` host seconds,
//!   peak resident memory, and the correctness checks of
//!   [`check::check`] with the exact simulated counters.
//! * `trace --workload W --dir DIR --seconds S --states FILE…
//!   --coordinator-report FILE` — the per-layer ledger of
//!   [`layers::trace`].
//!
//! Every time is host time. Simulated results are checks, not metrics.

mod check;
mod json;
mod layers;
mod spans;

use std::fs;
use std::path::PathBuf;
use std::time::Instant;

use xrbench_core::{RunDocument, RunReport, Runner};

use crate::json::Json;

/// Complete runs timed per `measure` call unless `--min-runs` says
/// otherwise (more run when the host-time budget allows; `--min-runs 0
/// --seconds 0` only produces the checked reference report).
const MIN_RUNS: usize = 3;

/// Set-up samples taken before the first timed run and after each one.
const SETUP_BURST: usize = 16;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(out) => println!("{}", out.render()),
        Err(e) => {
            eprintln!("xrledger: {e}");
            std::process::exit(2);
        }
    }
}

/// `--flag value…` pairs after the subcommand.
struct Flags(Vec<(String, Vec<String>)>);

impl Flags {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut flags: Vec<(String, Vec<String>)> = Vec::new();
        for arg in args {
            match (arg.strip_prefix("--"), flags.last_mut()) {
                (Some(name), _) => flags.push((name.to_string(), Vec::new())),
                (None, Some((_, values))) => values.push(arg.clone()),
                (None, None) => return Err(format!("unexpected argument `{arg}`")),
            }
        }
        Ok(Self(flags))
    }

    fn all(&self, name: &str) -> Vec<String> {
        self.0
            .iter()
            .filter(|(n, _)| n == name)
            .flat_map(|(_, v)| v.iter().cloned())
            .collect()
    }

    fn one(&self, name: &str) -> Option<String> {
        self.all(name).pop()
    }

    fn required(&self, name: &str) -> Result<String, String> {
        self.one(name).ok_or_else(|| format!("missing --{name}"))
    }

    fn seconds(&self) -> Result<f64, String> {
        let text = self.required("seconds")?;
        match text.parse::<f64>() {
            Ok(s) if s.is_finite() && s >= 0.0 => Ok(s),
            _ => Err(format!("invalid --seconds `{text}`")),
        }
    }
}

fn run(args: &[String]) -> Result<Json, String> {
    let (command, rest) = args
        .split_first()
        .ok_or("usage: xrledger measure|trace --flag value …")?;
    let flags = Flags::parse(rest)?;
    match command.as_str() {
        "measure" => {
            let min_runs = match flags.one("min-runs") {
                Some(n) => n
                    .parse::<usize>()
                    .map_err(|_| format!("invalid --min-runs `{n}`"))?,
                None => MIN_RUNS,
            };
            measure(
                &PathBuf::from(flags.required("doc")?),
                flags.seconds()?,
                min_runs,
                flags.one("report-out").map(PathBuf::from),
            )
        }
        "trace" => layers::trace(&layers::TraceInputs {
            workload: flags.required("workload")?,
            dir: PathBuf::from(flags.required("dir")?),
            seconds: flags.seconds()?,
            states: flags.all("states").into_iter().map(PathBuf::from).collect(),
            coordinator_report: PathBuf::from(flags.required("coordinator-report")?),
        }),
        other => Err(format!(
            "unknown subcommand `{other}` (expected measure or trace)"
        )),
    }
}

/// This process's peak resident set size in MiB (Linux `VmHWM`).
fn peak_rss_mib() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

fn measure(
    doc_path: &PathBuf,
    seconds: f64,
    min_runs: usize,
    report_out: Option<PathBuf>,
) -> Result<Json, String> {
    let text = fs::read_to_string(doc_path)
        .map_err(|e| format!("cannot read {}: {e}", doc_path.display()))?;
    let parse = |text: &str| {
        RunDocument::from_json_str(text).map_err(|e| format!("{}: {e}", doc_path.display()))
    };
    let doc = parse(&text)?;

    // Set-up: everything before the first simulated event of an
    // in-process run — the document parse and the construction of its
    // first hardware point. Sampled in bursts between the timed runs,
    // so set-up and runs see the same host conditions; the median is
    // reported.
    let mut setup = Vec::new();
    let setup_burst = |setup: &mut Vec<f64>| -> Result<(), String> {
        for _ in 0..SETUP_BURST {
            let t0 = Instant::now();
            let doc = parse(&text)?;
            let system = layers::hardware(&doc)[0].build();
            std::hint::black_box((doc, system));
            setup.push(t0.elapsed().as_secs_f64());
        }
        Ok(())
    };
    setup_burst(&mut setup)?;

    // Complete runs, document text to report bytes. An untimed first
    // run warms caches and yields the reference every timed run's
    // bytes must equal.
    let runner = Runner::new();
    let run = || -> Result<(RunReport, String), String> {
        let doc = parse(&text)?;
        let report = runner.run(&doc).map_err(|e| e.to_string())?;
        let bytes = report.to_json();
        Ok((report, bytes))
    };
    let (report, bytes) = run()?;
    let started = Instant::now();
    let mut walls = Vec::new();
    let mut same_bytes = Vec::new();
    while walls.len() < min_runs || started.elapsed().as_secs_f64() < seconds {
        let t0 = Instant::now();
        let (_, again) = std::hint::black_box(run()?);
        walls.push(t0.elapsed().as_secs_f64());
        same_bytes.push(again == bytes);
        setup_burst(&mut setup)?;
    }
    let peak_rss = peak_rss_mib();

    let verdict = check::check(&doc, &report);
    let mut failures = verdict.failures;
    if peak_rss.is_none() {
        failures.push("peak RSS (VmHWM) is unavailable on this platform".to_string());
    }
    if let Some(path) = report_out {
        fs::write(&path, &bytes).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    Ok(Json::obj([
        ("setup_s", setup.into()),
        ("wall_s", walls.into()),
        ("same_bytes", same_bytes.into()),
        ("peak_rss_mib", peak_rss.map_or(Json::Null, Json::from)),
        ("report_bytes", bytes.len().into()),
        (
            "counters",
            Json::obj(verdict.counters.iter().map(|(k, v)| (*k, Json::from(*v)))),
        ),
        ("failures", failures.into()),
    ]))
}
