//! The traced run: per-layer host time, measured by timing calls into
//! each crate's public functions from the ledger's own code. Nothing
//! inside the library is instrumented.
//!
//! Layers that are part of the traced workload are measured on its own
//! document. The layers of the other workloads (the sweep's static
//! counts, the scheduler and recovery probes, the shard protocol) are
//! measured on their home workload's document for the same seed, so
//! every traced run reports the full ledger.

use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

use xrbench_analysis::analyze_run_document;
use xrbench_core::{
    FleetReport, FleetRun, Harness, RunDocument, RunReport, Runner, SchedulerSpec, SweepDocument,
    SweepWorkloadKind, SystemSpec,
};
use xrbench_fleet::{replica_seed, FleetAccumulator, InferenceScorer, ShardState};
use xrbench_sim::{
    CostProvider, ExecRecord, FaultProcess, LatencyGreedy, RecoveryPolicy, SessionSimResult,
    SimConfig, Simulator,
};
use xrbench_workload::SessionSpec;

use crate::json::Json;
use crate::spans::Tracer;

/// Every `SAMPLE_STRIDE`-th device session of a fleet is decomposed
/// layer by layer (2048 sessions → 128).
const SAMPLE_STRIDE: usize = 16;

/// Host-time budget for repeating one short call or probe pass.
const REPEAT_BUDGET_S: f64 = 0.2;

/// Most repeats of one short call.
const MAX_CALLS: usize = 1000;

/// Most repeats of one probe pass.
const MAX_PASSES: usize = 50;

/// The five shipped schedulers, in the order the ledger reports them.
const SCHEDULERS: [SchedulerSpec; 5] = [
    SchedulerSpec::LatencyGreedy,
    SchedulerSpec::RoundRobin,
    SchedulerSpec::SlackAwareEdf,
    SchedulerSpec::LeastLoaded,
    SchedulerSpec::FailoverAware,
];

/// One per-layer metric with the base its value is counted over.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    base: String,
}

/// What the traced run needs: the workload's name and the directory
/// holding every generated document (`<workload>.json`), plus the
/// shard states and coordinator report `run.py` captured from the
/// `xrbench` binary.
pub struct TraceInputs {
    /// The traced workload.
    pub workload: String,
    /// Directory of generated documents.
    pub dir: PathBuf,
    /// Host-time budget for the traced/untraced end-to-end pairs.
    pub seconds: f64,
    /// `xrbench run-fleet fleet-sharded.json --shard k/N` outputs.
    pub states: Vec<PathBuf>,
    /// `xrbench run-fleet fleet-sharded.json --shards N` output.
    pub coordinator_report: PathBuf,
}

struct Ledger {
    tracer: Tracer,
    metrics: Vec<Metric>,
    failures: Vec<String>,
}

impl Ledger {
    fn put(&mut self, name: &str, value: f64, unit: &'static str, base: impl Into<String>) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            base: base.into(),
        });
    }

    /// Times `f` repeatedly (each call one span) until the budget is
    /// spent and at least `min` calls ran; returns the durations.
    fn repeat<T>(&mut self, span: &str, min: usize, mut f: impl FnMut() -> T) -> Vec<f64> {
        let started = Instant::now();
        let mut samples = Vec::new();
        while samples.len() < min
            || (started.elapsed().as_secs_f64() < REPEAT_BUDGET_S && samples.len() < MAX_CALLS)
        {
            samples.push(self.tracer.time(span, &mut f).1);
        }
        samples
    }
}

/// The median of `samples` (which must not be empty).
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The hardware points a document builds, in evaluation order.
pub fn hardware(doc: &RunDocument) -> Vec<SystemSpec> {
    match doc {
        RunDocument::Suite(r) => vec![r.system.clone()],
        RunDocument::Session(r) => vec![r.system.clone()],
        RunDocument::Fleet(r) => vec![r.system.clone()],
        RunDocument::Sweep(d) => d
            .hardware_points()
            .into_iter()
            .map(|(id, pes)| SystemSpec::Accelerator { id, pes })
            .collect(),
    }
}

fn load(dir: &Path, workload: &str) -> Result<(String, RunDocument), String> {
    let path = dir.join(format!("{workload}.json"));
    let text =
        fs::read_to_string(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc = RunDocument::from_json_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok((text, doc))
}

fn sweep_doc(dir: &Path) -> Result<SweepDocument, String> {
    match load(dir, "design-sweep")?.1 {
        RunDocument::Sweep(d) => Ok(d),
        other => Err(format!(
            "design-sweep.json is a `{}` document",
            other.kind()
        )),
    }
}

fn fleet_run(dir: &Path, workload: &str) -> Result<FleetRun, String> {
    match load(dir, workload)?.1 {
        RunDocument::Fleet(run) => Ok(run),
        other => Err(format!("{workload}.json is a `{}` document", other.kind())),
    }
}

/// The sweep's fixed reference point: accelerator J (the paper's
/// anchor) at the base PE count, or the first hardware point. Returns
/// the spec and its `J@8192` label.
fn reference_point(d: &SweepDocument) -> (SystemSpec, String) {
    let points = d.hardware_points();
    let (id, pes) = points
        .iter()
        .copied()
        .find(|(id, pes)| *id == 'J' && *pes == d.base_pes)
        .unwrap_or(points[0]);
    (SystemSpec::Accelerator { id, pes }, format!("{id}@{pes}"))
}

/// Runs the per-layer ledger and returns the metrics, spans and any
/// failed checks as JSON.
pub fn trace(inputs: &TraceInputs) -> Result<Json, String> {
    let mut l = Ledger {
        tracer: Tracer::new(),
        metrics: Vec::new(),
        failures: Vec::new(),
    };
    let (text, doc) = load(&inputs.dir, &inputs.workload)?;
    let sweep = sweep_doc(&inputs.dir)?;
    let sharded = fleet_run(&inputs.dir, "fleet-sharded")?;

    document_layers(&mut l, &text, &doc);
    // The sharded workload's report is the coordinator's merge, re-done
    // in-process from the captured shard states.
    let merged = shard_layers(&mut l, &sharded, inputs)?;
    let report = if inputs.workload == "fleet-sharded" {
        RunReport::Fleet(merged)
    } else {
        end_to_end_pairs(&mut l, &text, inputs.seconds)?
    };
    let encoded = l.repeat("core.encode", 3, || report.to_json());
    let bytes = report.to_json().len();
    l.put(
        "core.encode_s",
        median(&encoded),
        "s",
        format!("one RunReport::to_json call, median of {}", encoded.len()),
    );
    l.put("core.report_bytes", bytes as f64, "bytes", "one report");
    session_layers(&mut l, &doc, &sweep);
    sweep_counts(&mut l, &sweep);
    user_scaling(&mut l, &inputs.dir)?;
    scheduler_probes(&mut l, &sweep);
    faulted_probes(&mut l, &sweep);

    let builds_per_run = match &doc {
        RunDocument::Sweep(d) => d.distinct_evaluations(),
        _ if inputs.workload == "fleet-sharded" => inputs.states.len() + 1,
        _ => 1,
    };
    Ok(Json::obj([
        (
            "metrics",
            Json::Arr(
                l.metrics
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::from(m.name.as_str())),
                            ("value", m.value.into()),
                            ("unit", m.unit.into()),
                            ("base", m.base.as_str().into()),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("builds_per_run", builds_per_run.into()),
        ("failures", l.failures.into()),
        ("spans", l.tracer.to_json()),
    ]))
}

/// Parse, analysis and hardware construction on the traced document.
fn document_layers(l: &mut Ledger, text: &str, doc: &RunDocument) {
    let parse = l.repeat("core.parse", 11, || RunDocument::from_json_str(text));
    l.put(
        "core.parse_s",
        median(&parse),
        "s",
        format!(
            "one RunDocument::from_json_str call, median of {}",
            parse.len()
        ),
    );
    let analyze = l.repeat("analysis.analyze", 5, || analyze_run_document(doc));
    l.put(
        "analysis.analyze_s",
        median(&analyze),
        "s",
        format!("one analyze_run_document call, median of {}", analyze.len()),
    );
    // Each hardware point is built once per pass; a pass is timed as a
    // whole and divided by its point count.
    let points = hardware(doc);
    let passes = l.repeat("accel.build", 5, || {
        points.iter().map(SystemSpec::build).collect::<Vec<_>>()
    });
    l.put(
        "accel.build_s",
        median(&passes) / points.len() as f64,
        "s",
        format!(
            "one SystemSpec::build call, mean over {} hardware point(s), median of {} passes",
            points.len(),
            passes.len()
        ),
    );
}

/// Alternating untraced and traced complete runs (document to report
/// bytes) of an in-process workload, for the tracing overhead. Returns
/// the last report.
fn end_to_end_pairs(l: &mut Ledger, text: &str, budget_s: f64) -> Result<RunReport, String> {
    let runner = Runner::new();
    let run = |text: &str| -> Result<(RunReport, String), String> {
        let doc = RunDocument::from_json_str(text).map_err(|e| e.to_string())?;
        let report = runner.run(&doc).map_err(|e| e.to_string())?;
        let bytes = report.to_json();
        Ok((report, bytes))
    };
    // An untimed first run warms caches and yields the reference bytes.
    let (_, reference) = run(text)?;
    let started = Instant::now();
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut last = None;
    while untraced.is_empty() || started.elapsed().as_secs_f64() < budget_s {
        let t0 = Instant::now();
        let (_, bytes) = std::hint::black_box(run(text)?);
        untraced.push(t0.elapsed().as_secs_f64());

        let outer = l.tracer.begin("ledger.run");
        let doc = l
            .tracer
            .time("core.parse", || RunDocument::from_json_str(text))
            .0;
        let doc = doc.map_err(|e| e.to_string())?;
        let report = l.tracer.time("core.run", || runner.run(&doc)).0;
        let report = report.map_err(|e| e.to_string())?;
        let traced_bytes = l.tracer.time("core.encode", || report.to_json()).0;
        traced.push(l.tracer.end(outer));

        if bytes != reference || traced_bytes != reference {
            l.failures
                .push("repeated runs of one seed emitted different report bytes".to_string());
        }
        last = Some(report);
    }
    let (u, t) = (median(&untraced), median(&traced));
    let base = format!(
        "median of {} untraced vs {} traced runs",
        untraced.len(),
        traced.len()
    );
    l.put("ledger.wall_s", u, "s", base.clone());
    l.put("ledger.traced_wall_s", t, "s", base.clone());
    l.put("ledger.trace_overhead_s", t - u, "s", base);
    Ok(last.expect("at least one pair ran"))
}

/// How a session's records are scored.
#[derive(Clone, Copy)]
enum Fold {
    /// `Harness::score_result` per user (session and scenario runs).
    Harness,
    /// `InferenceScorer::score` plus `FleetAccumulator` records (fleets).
    Fleet,
}

/// One session to decompose.
struct Job<'a> {
    session: SessionSpec,
    faults: Option<&'a FaultProcess>,
    seed: u64,
    fold: Fold,
}

/// Arrivals plus completions over a session result.
fn events(result: &SessionSimResult) -> u64 {
    result
        .per_user
        .iter()
        .flat_map(|(_, r)| r.stats.values())
        .map(|s| s.total_frames + s.untriggered_frames + s.executed_frames)
        .sum()
}

fn run_folded(
    sim: &Simulator,
    job: &Job<'_>,
    system: &dyn CostProvider,
    scheduler: SchedulerSpec,
    sink: &mut dyn FnMut(u32, &ExecRecord),
) -> SessionSimResult {
    let mut scheduler = scheduler.build();
    match job.faults {
        Some(f) => sim.run_session_folded_faulted(
            &job.session,
            system,
            scheduler.as_mut(),
            f,
            RecoveryPolicy::default(),
            sink,
        ),
        None => sim.run_session_folded(&job.session, system, scheduler.as_mut(), sink),
    }
}

/// Load generation, engine and scoring fold on the traced workload's
/// sessions: the whole session for `session-1024`, a fixed sample of
/// device sessions for the fleets, and each sweep workload once at the
/// sweep's reference point.
fn session_layers(l: &mut Ledger, doc: &RunDocument, sweep: &SweepDocument) {
    let (system, scheduler, config, jobs, base) = match doc {
        RunDocument::Session(run) => {
            let config = run.params.harness().sim_config();
            let job = Job {
                session: run.session.clone(),
                faults: None,
                seed: config.seed,
                fold: Fold::Harness,
            };
            let base = format!("the whole {}-user session", run.session.users.len());
            (run.system.clone(), run.scheduler, config, vec![job], base)
        }
        RunDocument::Fleet(run) => {
            let config = run.params.harness().sim_config();
            let mut jobs = Vec::new();
            let mut index = 0;
            for (g, group) in run.fleet.groups.iter().enumerate() {
                for r in 0..group.replicas {
                    if index % SAMPLE_STRIDE == 0 {
                        jobs.push(Job {
                            session: group.session.clone(),
                            faults: group.faults.as_ref(),
                            seed: replica_seed(config.seed, g as u32, r),
                            fold: Fold::Fleet,
                        });
                    }
                    index += 1;
                }
            }
            let base = format!(
                "every {SAMPLE_STRIDE}th device session, {} of {index}",
                jobs.len()
            );
            (
                run.system.clone(),
                SchedulerSpec::LatencyGreedy,
                config,
                jobs,
                base,
            )
        }
        _ => {
            let config = sweep.params.harness().sim_config();
            let mut jobs = Vec::new();
            for w in &sweep.workloads {
                match &w.kind {
                    SweepWorkloadKind::Scenario(spec) => jobs.push(Job {
                        session: SessionSpec::uniform(spec.name.clone(), spec.clone(), 1, 0.0),
                        faults: None,
                        seed: config.seed,
                        fold: Fold::Harness,
                    }),
                    SweepWorkloadKind::Session(s) => jobs.push(Job {
                        session: s.clone(),
                        faults: None,
                        seed: config.seed,
                        fold: Fold::Harness,
                    }),
                    SweepWorkloadKind::Fleet(f) => {
                        for (g, group) in f.groups.iter().enumerate() {
                            for r in 0..group.replicas {
                                jobs.push(Job {
                                    session: group.session.clone(),
                                    faults: group.faults.as_ref(),
                                    seed: replica_seed(config.seed, g as u32, r),
                                    fold: Fold::Fleet,
                                });
                            }
                        }
                    }
                }
            }
            let (point, label) = reference_point(sweep);
            let base = format!(
                "each of the {} sweep workloads once at {label} under latency-greedy",
                sweep.workloads.len()
            );
            (point, SchedulerSpec::LatencyGreedy, config, jobs, base)
        }
    };
    let system = system.build();
    let harness = Harness::new();
    let scorer = InferenceScorer::new(Default::default(), Default::default(), Default::default());
    let (mut loadgen_s, mut arrivals, mut engine_s, mut n_events) = (0.0, 0usize, 0.0, 0u64);
    let (mut fold_s, mut records) = (0.0, 0usize);
    for job in &jobs {
        let sim = Simulator::new(SimConfig {
            duration_s: config.duration_s,
            seed: job.seed,
        });
        let (generated, gen_s) = l.tracer.time("workload.generate", || {
            job.session.generate(job.seed, config.duration_s).len()
        });
        let (result, run_s) = l.tracer.time("sim.run_session_folded", || {
            run_folded(&sim, job, system.as_ref(), scheduler, &mut |_, _| {})
        });
        let streamed: u64 = result
            .per_user
            .iter()
            .flat_map(|(_, r)| r.stats.values())
            .map(|s| s.total_frames + s.untriggered_frames)
            .sum();
        if streamed != generated as u64 {
            l.failures.push(format!(
                "session `{}`: {generated} arrivals generated, {streamed} accounted",
                job.session.name
            ));
        }
        loadgen_s += gen_s;
        arrivals += generated;
        engine_s += run_s - gen_s;
        n_events += events(&result);

        fold_s += match job.fold {
            Fold::Harness => {
                let mut sched = scheduler.build();
                let result = match job.faults {
                    Some(f) => sim.run_session_faulted(
                        &job.session,
                        system.as_ref(),
                        sched.as_mut(),
                        f,
                        RecoveryPolicy::default(),
                    ),
                    None => sim.run_session(&job.session, system.as_ref(), sched.as_mut()),
                };
                records += result
                    .per_user
                    .iter()
                    .map(|(_, r)| r.records.len())
                    .sum::<usize>();
                let name = scheduler.name();
                l.tracer
                    .time("score.score_result", || {
                        job.session
                            .users
                            .iter()
                            .zip(&result.per_user)
                            .map(|(u, (_, r))| {
                                harness
                                    .score_result(&u.spec, system.as_ref(), name, r)
                                    .overall()
                            })
                            .sum::<f64>()
                    })
                    .1
            }
            Fold::Fleet => {
                let mut collected: Vec<ExecRecord> = Vec::new();
                run_folded(&sim, job, system.as_ref(), scheduler, &mut |_, r| {
                    collected.push(r.clone());
                });
                records += collected.len();
                l.tracer
                    .time("score.fleet_fold", || {
                        let mut acc = FleetAccumulator::new();
                        for rec in &collected {
                            let score = scorer.score(rec);
                            acc.latency.record(rec.latency_s());
                            acc.overrun.record(rec.overrun_s());
                            acc.score.record(score.combined());
                            acc.model_mut(rec.model).record_exec(rec);
                        }
                        acc
                    })
                    .1
            }
        };
    }
    l.put(
        "workload.loadgen_s",
        loadgen_s,
        "s",
        format!("SessionSpec::generate, {base}"),
    );
    l.put("workload.arrivals", arrivals as f64, "count", base.clone());
    l.put(
        "workload.loadgen_ns_per_arrival",
        loadgen_s * 1e9 / arrivals.max(1) as f64,
        "ns",
        format!("per generated arrival, {base}"),
    );
    l.put(
        "sim.engine_s",
        engine_s,
        "s",
        format!("run_session_folded (no-op sink) minus generate, {base}"),
    );
    l.put(
        "sim.events",
        n_events as f64,
        "count",
        format!("arrivals + completions, {base}"),
    );
    l.put(
        "sim.engine_ns_per_event",
        engine_s * 1e9 / n_events.max(1) as f64,
        "ns",
        format!("per event, {base}"),
    );
    let harness_fold = jobs.iter().any(|j| matches!(j.fold, Fold::Harness));
    let fleet_fold = jobs.iter().any(|j| matches!(j.fold, Fold::Fleet));
    let how = match (harness_fold, fleet_fold) {
        (true, true) => {
            "Harness::score_result per user (scenarios), InferenceScorer::score + \
                         FleetAccumulator records (fleets)"
        }
        (false, true) => "InferenceScorer::score + FleetAccumulator records",
        _ => "Harness::score_result per user",
    };
    l.put("score.fold_s", fold_s, "s", format!("{how}, {base}"));
    l.put(
        "score.fold_ns_per_record",
        fold_s * 1e9 / records.max(1) as f64,
        "ns",
        format!("per executed-inference record, {base}"),
    );
}

/// The sweep's static point and evaluation counts.
fn sweep_counts(l: &mut Ledger, sweep: &SweepDocument) {
    let points = sweep.points().len();
    let distinct = sweep.distinct_evaluations();
    let base = "exact, SweepDocument::points / distinct_evaluations on design-sweep";
    l.put("core.sweep.points", points as f64, "count", base);
    l.put("core.sweep.distinct_evals", distinct as f64, "count", base);
    l.put(
        "core.sweep.cache_hit_ratio",
        1.0 - distinct as f64 / points as f64,
        "ratio",
        "memo-cache hits per point, design-sweep",
    );
}

/// Engine-only ns per event of one session: the no-op-sink folded run
/// minus its load generation, median of the repeats.
fn engine_ns_per_event(
    l: &mut Ledger,
    session: &SessionSpec,
    config: SimConfig,
    system: &dyn CostProvider,
    scheduler: SchedulerSpec,
    min_repeats: usize,
) -> f64 {
    let sim = Simulator::new(config);
    let job = Job {
        session: session.clone(),
        faults: None,
        seed: config.seed,
        fold: Fold::Harness,
    };
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < min_repeats
        || (started.elapsed().as_secs_f64() < REPEAT_BUDGET_S && samples.len() < MAX_PASSES)
    {
        let gen_s = l
            .tracer
            .time("workload.generate", || {
                session.generate(config.seed, config.duration_s).len()
            })
            .1;
        let (result, run_s) = l.tracer.time("sim.run_session_folded", || {
            run_folded(&sim, &job, system, scheduler, &mut |_, _| {})
        });
        samples.push((run_s - gen_s) * 1e9 / events(&result).max(1) as f64);
    }
    median(&samples)
}

/// Engine ns/event at 1024 users over 1 user of the same mix, 1 s
/// simulated each (the ROADMAP's user-scaling target is ≤ 1.5).
fn user_scaling(l: &mut Ledger, dir: &Path) -> Result<(), String> {
    let RunDocument::Session(run) = load(dir, "session-1024")?.1 else {
        return Err("session-1024.json is not a session document".to_string());
    };
    let config = SimConfig {
        duration_s: 1.0,
        seed: run.params.harness().sim_config().seed,
    };
    let system = run.system.build();
    let many = &run.session;
    let one = SessionSpec::new("probe-1").with_user(many.users[0].spec.clone(), 0.0);
    let at_many = engine_ns_per_event(l, many, config, system.as_ref(), run.scheduler, 3);
    let at_one = engine_ns_per_event(l, &one, config, system.as_ref(), run.scheduler, 5);
    l.put(
        "sim.user_scaling_ratio",
        at_many / at_one,
        "ratio",
        format!(
            "engine ns/event at {} users ({at_many:.0}) / at 1 user ({at_one:.0}), 1 s simulated",
            many.users.len()
        ),
    );
    Ok(())
}

/// `Harness::run_spec` per scheduler over the sweep's scenarios at its
/// reference point: host ns per simulated event (load generation,
/// engine and scoring included).
fn scheduler_probes(l: &mut Ledger, sweep: &SweepDocument) {
    let (point, label) = reference_point(sweep);
    let system = point.build();
    let harness = sweep.params.harness();
    let scenarios: Vec<_> = sweep
        .workloads
        .iter()
        .filter_map(|w| match &w.kind {
            SweepWorkloadKind::Scenario(spec) => Some(spec),
            _ => None,
        })
        .collect();
    for spec in SCHEDULERS {
        let started = Instant::now();
        let mut samples = Vec::new();
        while samples.len() < 3
            || (started.elapsed().as_secs_f64() < REPEAT_BUDGET_S && samples.len() < MAX_PASSES)
        {
            let (mut t, mut ev) = (0.0, 0u64);
            for scenario in &scenarios {
                let mut scheduler = spec.build();
                let ((_, result), dt) = l.tracer.time("core.run_spec", || {
                    harness.run_spec(scenario, system.as_ref(), scheduler.as_mut())
                });
                t += dt;
                ev += result
                    .stats
                    .values()
                    .map(|s| s.total_frames + s.untriggered_frames + s.executed_frames)
                    .sum::<u64>();
            }
            samples.push(t * 1e9 / ev.max(1) as f64);
        }
        l.put(
            &format!("sim.engine_ns_per_event.{}", spec.name()),
            median(&samples),
            "ns",
            format!(
                "Harness::run_spec over {} scenarios at {label}, median of {} passes",
                scenarios.len(),
                samples.len()
            ),
        );
    }
}

/// `run_session_folded_faulted` per recovery policy over the sweep's
/// fault-injected fleet sessions at its reference point.
fn faulted_probes(l: &mut Ledger, sweep: &SweepDocument) {
    let (point, label) = reference_point(sweep);
    let system = point.build();
    let config = sweep.params.harness().sim_config();
    let mut sessions = Vec::new();
    for w in &sweep.workloads {
        if let SweepWorkloadKind::Fleet(f) = &w.kind {
            for (g, group) in f.groups.iter().enumerate() {
                if let Some(faults) = &group.faults {
                    for r in 0..group.replicas {
                        sessions.push((
                            &group.session,
                            faults,
                            replica_seed(config.seed, g as u32, r),
                        ));
                    }
                }
            }
        }
    }
    for policy in ["drop", "requeue", "migrate"] {
        let policy = RecoveryPolicy::parse(policy).expect("a shipped policy name");
        let started = Instant::now();
        let mut samples = Vec::new();
        while samples.len() < 3
            || (started.elapsed().as_secs_f64() < REPEAT_BUDGET_S && samples.len() < MAX_PASSES)
        {
            let (mut t, mut ev) = (0.0, 0u64);
            for (session, faults, seed) in &sessions {
                let sim = Simulator::new(SimConfig {
                    duration_s: config.duration_s,
                    seed: *seed,
                });
                let (result, dt) = l.tracer.time("sim.run_session_folded_faulted", || {
                    sim.run_session_folded_faulted(
                        session,
                        system.as_ref(),
                        &mut LatencyGreedy::new(),
                        faults,
                        policy,
                        &mut |_, _| {},
                    )
                });
                t += dt;
                ev += events(&result);
            }
            samples.push(t * 1e9 / ev.max(1) as f64);
        }
        l.put(
            &format!("sim.faulted_ns_per_event.{}", policy.as_str()),
            median(&samples),
            "ns",
            format!(
                "{} faulted device sessions at {label}, median of {} passes",
                sessions.len(),
                samples.len()
            ),
        );
    }
}

/// The shard protocol's in-process layers on the captured states:
/// decode, encode, accumulator merge and the final report, which must
/// equal the coordinator's. Returns the merged report.
fn shard_layers(
    l: &mut Ledger,
    run: &FleetRun,
    inputs: &TraceInputs,
) -> Result<FleetReport, String> {
    let mut texts = Vec::new();
    for path in &inputs.states {
        texts.push(
            fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?,
        );
    }
    let (mut decode_s, mut encode_s, mut bytes) = (0.0, 0.0, 0usize);
    let mut states = Vec::new();
    for text in &texts {
        let (state, dt) = l
            .tracer
            .time("fleet.shard_decode", || ShardState::from_json(text.trim()));
        decode_s += dt;
        let state = state.map_err(|e| format!("unreadable shard state: {e}"))?;
        let (encoded, dt) = l.tracer.time("fleet.shard_encode", || state.to_json());
        encode_s += dt;
        bytes += encoded.len();
        states.push(state);
    }
    let n = states.len();
    l.put(
        "fleet.shard_decode_s",
        decode_s,
        "s",
        format!("ShardState::from_json, sum over {n} shards"),
    );
    l.put(
        "fleet.shard_encode_s",
        encode_s,
        "s",
        format!("ShardState::to_json, sum over {n} shards"),
    );
    l.put(
        "fleet.shard_state_bytes",
        bytes as f64,
        "bytes",
        format!("sum over {n} shards"),
    );

    let merges: usize = states.iter().map(|s| s.groups.len()).sum();
    let merge = l.repeat("fleet.merge", 5, || {
        let mut acc = FleetAccumulator::new();
        for g in states.iter().flat_map(|s| &s.groups) {
            acc.merge(g);
        }
        acc
    });
    l.put(
        "fleet.merge_s",
        median(&merge),
        "s",
        format!(
            "{merges} FleetAccumulator::merge calls, median of {}",
            merge.len()
        ),
    );
    let mut merged = None;
    let report = l.repeat("fleet.merge_shards", 3, || {
        merged = Some(run.merge_shards(&states));
    });
    l.put(
        "fleet.report_s",
        median(&report),
        "s",
        format!(
            "FleetRun::merge_shards on {n} states, median of {}",
            report.len()
        ),
    );
    let merged = merged
        .expect("merge ran")
        .map_err(|e| format!("merging shard states: {e}"))?;
    let path = &inputs.coordinator_report;
    let expected =
        fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    if expected.trim_end() != merged.to_json() {
        l.failures.push(
            "in-process merge of the shard states differs from the coordinator's report"
                .to_string(),
        );
    }
    Ok(merged)
}
