//! Design-space exploration: `kind: "sweep"` run documents.
//!
//! XRBench's headline use-case (§5, Table 5) is hardware/scheduler
//! design-space exploration: the same workloads evaluated across
//! accelerator configurations, PE scalings, and schedulers, with the
//! per-axis scores laid out for Pareto-frontier analysis. A
//! [`SweepDocument`] declares the axes once —
//!
//! ```json
//! { "kind": "sweep", "name": "default",
//!   "accelerators": ["J", "C"], "base_pes": 8192,
//!   "pe_scaling": [1.0, 0.5],
//!   "schedulers": ["latency-greedy", "round-robin", "slack-edf"],
//!   "recovery": ["drop", "requeue"],
//!   "workloads": [ { "scenario": "VR Gaming" },
//!                  { "fleet": { ... } },
//!                  { "scenario_seeds": [7, 8] } ] }
//! ```
//!
//! — and the cross-product expands into a deterministic, globally
//! indexed **point list** (workloads outermost, recovery innermost).
//! Because the point list has the same flat-slice shape as the fleet
//! job list, process-level sharding and mid-sweep resumption compose
//! with the executor for free, and both are proven byte-identical to a
//! straight-through run. `--shards N` cuts the list with the fleet's
//! cut ([`xrbench_fleet::cut`]) at weight 1 per point, so shard `k`
//! holds about `P/N` contiguous points; shard states and checkpoints
//! travel in the fleet crate's envelope ([`xrbench_fleet::wire`]),
//! stamped with the document's [`SweepDocument::fingerprint`], with
//! completed points as IEEE-754 bit patterns.
//!
//! ## Cache keying
//!
//! Each point evaluates through the existing engines
//! ([`Harness::run_spec`](crate::Harness::run_spec),
//! [`Harness::run_session`](crate::Harness::run_session), the fleet
//! shard executor), but the executor first consults a memo cache
//! keyed by `w<workload>|<id>@<pes>|<scheduler>|<recovery>`. The
//! recovery component collapses to `-` whenever the workload provably
//! cannot observe the recovery policy — scenario and session
//! workloads always, and fleets whose device groups all have quiet
//! (or no) fault processes, by the fault-free bit-identity invariant.
//! A sweep whose recovery axis is `["drop", "requeue"]` over
//! fault-free workloads therefore evaluates each simulation once and
//! serves the other half of its points from cache.
//!
//! That result memo is the outer of two levels. The inner one holds
//! built hardware: each hardware point `(id, pes)` the run's
//! evaluations touch is built once — the analytical cost model over
//! every model and sub-accelerator — and every evaluation there, on
//! any thread, shares the same [`CostProvider`] (every workload ×
//! scheduler × recovery combination shares it). Both memos are keyed
//! by value, hold only what the points in range need — a `--limit`,
//! resumed, or sharded run builds only the hardware its remaining
//! evaluations touch — and live for one `run_with`/`run_shard` call.
//! They are deliberately not process-global: each run pays its own
//! construction, as a user's `xrbench sweep` does, so repeated
//! in-process runs time the same work, and no state outlives the
//! document that produced it.
//!
//! ## Concurrent evaluation
//!
//! A run is plan → evaluate → fill. The plan walks the points in range
//! in index order, collects the distinct cache keys in
//! first-occurrence order and counts the [`SweepStats`]. The distinct
//! evaluations then run on the [`crate::pool`] with
//! `xrbench_fleet::default_workers()` threads, and each result fills
//! every point waiting on its key. Fleet evaluations run on one worker
//! each: the sweep owns the parallelism, and a fleet report does not
//! depend on its worker count. Reports, stats, shard states and the
//! final checkpoint are therefore the same at any worker count. With a
//! checkpoint, the calling thread rewrites the file after each batch —
//! the results already queued when it reaches them — to a sibling
//! `.tmp` file renamed into place, so a kill loses only the results
//! not yet written and never leaves a truncated checkpoint.
//!
//! ## Report
//!
//! [`SweepReport`] carries every point's score, energy, drop rate,
//! and statically derated capacity (PEs × mean availability ×
//! throttle capacity), plus two [`crate::pareto`] frontiers — score
//! vs energy and score vs derated capacity, both treating the second
//! axis as a cost — and per-axis marginals (mean/best score per axis
//! value).

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::ops::Range;
use std::path::{Path, PathBuf};

use serde::de::Cursor;
use serde::json::JsonValue;
use serde::Serialize;

use xrbench_accel::config_by_id;
use xrbench_fleet::wire::{self, float, int, obj, parse_float, parse_int, Header, Kind};
use xrbench_fleet::{
    check_partition, cut, default_workers, fleet_to_json, run_fleet_with, FleetRunConfig, FleetSpec,
};
use xrbench_sim::{CostProvider, RecoveryPolicy};
use xrbench_workload::spec::{
    extend_catalog, scenario_to_json, session_from_value, session_to_json, SpecError,
};
use xrbench_workload::{ScenarioCatalog, ScenarioSpace, ScenarioSpec, SessionSpec};

use crate::error::XrError;
use crate::pareto::{pareto_frontier, ParetoPoint};
use crate::pool::{parallel_map, parallel_map_observed};
use crate::spec::{RunParams, SchedulerSpec, SystemSpec};

/// The checkpoint envelope. Version 2 moved the points into the
/// shared envelope's body.
const SWEEP_CHECKPOINT: Kind = Kind {
    tag: "xrbench_sweep_checkpoint",
    version: 2,
    sharded: false,
};
/// The [`SweepShardState`] envelope. Version 2 cuts the point list
/// with the fleet's midpoint rule at unit weight, so at some shard
/// counts "shard k of N" names other points than version 1's
/// `⌊kP/N⌋` cut.
const SWEEP_STATE: Kind = Kind {
    tag: "xrbench_sweep_state",
    version: 2,
    sharded: true,
};

/// One workload a sweep evaluates at every hardware/scheduler point.
#[derive(Debug, Clone)]
pub enum SweepWorkloadKind {
    /// A single-user scenario run.
    Scenario(ScenarioSpec),
    /// A multi-user session run.
    Session(SessionSpec),
    /// A device-fleet run.
    Fleet(FleetSpec),
}

/// A named workload entry of a [`SweepDocument`].
#[derive(Debug, Clone)]
pub struct SweepWorkload {
    /// Display name (unique within the sweep; defaults to the
    /// embedded spec's own name).
    pub name: String,
    /// The workload itself.
    pub kind: SweepWorkloadKind,
}

/// One point of the expanded design space.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// Global index into the point list (workloads outermost,
    /// recovery innermost).
    pub index: usize,
    /// Index into [`SweepDocument::workloads`].
    pub workload: usize,
    /// Table 5 accelerator id (`'A'`–`'M'`).
    pub accelerator: char,
    /// PE count after scaling (`round(base_pes × factor)`, min 1).
    pub pes: u64,
    /// The scheduler under evaluation.
    pub scheduler: SchedulerSpec,
    /// The recovery policy under evaluation (observable only by
    /// fault-injected fleets).
    pub recovery: RecoveryPolicy,
}

/// The three metrics the executor records per point, exact to the bit
/// across checkpoint and shard wire formats.
#[derive(Debug, Clone, Copy, PartialEq)]
struct PointMetrics {
    score: f64,
    total_energy_mj: f64,
    drop_rate: f64,
}

/// A decoded `"kind": "sweep"` run document: the design-space axes.
#[derive(Debug, Clone)]
pub struct SweepDocument {
    /// Sweep display name (default `"sweep"`).
    pub name: String,
    /// Run parameters (seed, duration) shared by every point.
    pub params: RunParams,
    /// PE count at scaling factor 1.0 (default 8192).
    pub base_pes: u64,
    /// Table 5 accelerator ids, in declaration order.
    pub accelerators: Vec<char>,
    /// PE scaling factors (default `[1.0]`).
    pub pe_scaling: Vec<f64>,
    /// Schedulers under evaluation (default latency-greedy only).
    pub schedulers: Vec<SchedulerSpec>,
    /// Recovery policies under evaluation (default drop only).
    pub recovery: Vec<RecoveryPolicy>,
    /// The workloads, each evaluated at every hardware × scheduler ×
    /// recovery point.
    pub workloads: Vec<SweepWorkload>,
}

/// Execution options for [`SweepDocument::run_with`].
#[derive(Debug, Clone, Default)]
pub struct SweepOptions {
    /// Checkpoint file: completed points are persisted here after
    /// each batch of completed evaluations, and an existing file (for
    /// the same document) is loaded back before running, so a killed
    /// sweep resumes where it stopped.
    pub checkpoint: Option<PathBuf>,
    /// Stop after completing this many points (from the front of the
    /// point list) without producing a report — a deterministic
    /// "killed mid-run" for exercising resumption.
    pub limit: Option<usize>,
}

/// Executor counters for one [`SweepDocument::run_with`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SweepStats {
    /// Total points in the sweep.
    pub points: usize,
    /// Points evaluated by simulation in this call.
    pub evaluated: usize,
    /// Points served from the memo cache in this call.
    pub cache_hits: usize,
    /// Points restored from the checkpoint file.
    pub resumed: usize,
    /// Hardware points `(id, pes)` whose cost tables this call built —
    /// at most one per distinct point the evaluated keys touch.
    pub hardware_builds: usize,
}

/// The result of [`SweepDocument::run_with`]: the report (when the
/// sweep ran to completion) plus executor counters.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// The folded report; `None` when a [`SweepOptions::limit`]
    /// stopped the sweep early.
    pub report: Option<SweepReport>,
    /// Cache/evaluation counters.
    pub stats: SweepStats,
}

/// One completed point in a [`SweepReport`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SweepPointReport {
    /// Global point index.
    pub index: usize,
    /// Workload display name.
    pub workload: String,
    /// Hardware label (`J@8192`).
    pub accelerator: String,
    /// Scheduler report name.
    pub scheduler: String,
    /// Recovery policy name.
    pub recovery: String,
    /// The workload's overall score (XRBench scenario score, session
    /// score, or fleet score).
    pub score: f64,
    /// Total energy over the run, millijoules.
    pub total_energy_mj: f64,
    /// Fraction of triggered frames dropped.
    pub drop_rate: f64,
    /// Static capacity proxy: PEs × mean availability × throttle
    /// capacity, averaged over fleet replicas (plain PEs for
    /// scenario/session workloads).
    pub derated_capacity: f64,
}

/// Mean/best score over the points sharing one axis value.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct AxisMarginalReport {
    /// Axis name (`workload`, `accelerator`, `scheduler`, `recovery`).
    pub axis: String,
    /// The axis value (e.g. `J@4096`).
    pub value: String,
    /// Number of points with this value.
    pub points: usize,
    /// Mean score over those points.
    pub mean_score: f64,
    /// Best score over those points.
    pub best_score: f64,
}

/// The folded output of a sweep: every point's metrics, two Pareto
/// frontiers, and per-axis marginals.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SweepReport {
    /// Sweep display name.
    pub sweep: String,
    /// Total points.
    pub num_points: usize,
    /// Distinct simulations the point list requires after memo-cache
    /// deduplication (a static property of the document).
    pub distinct_evaluations: usize,
    /// Every point, in global index order.
    pub points: Vec<SweepPointReport>,
    /// Indices of the score-vs-energy Pareto frontier (energy treated
    /// as a cost).
    pub pareto_score_energy: Vec<usize>,
    /// Indices of the score-vs-derated-capacity Pareto frontier
    /// (capacity treated as a cost).
    pub pareto_score_capacity: Vec<usize>,
    /// Per-axis marginal scores, in axis declaration order.
    pub marginals: Vec<AxisMarginalReport>,
}

impl SweepReport {
    /// Serializes the report as pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serialization cannot fail")
    }
}

/// One shard's completed points, serializable over a pipe and
/// mergeable back into the full report via
/// [`SweepDocument::merge_shards`].
#[derive(Debug, Clone, PartialEq)]
pub struct SweepShardState {
    /// This shard's index, `0 ≤ shard < num_shards`.
    pub shard: u32,
    /// Total shard count of the partition.
    pub num_shards: u32,
    /// Fingerprint of the document that produced this state.
    pub fingerprint: u64,
    /// Completed `(global index, metrics)` rows.
    rows: Vec<(usize, PointMetrics)>,
    /// Points this shard evaluated by simulation (informational).
    pub evaluated: usize,
    /// Points this shard served from its memo cache (informational).
    pub cache_hits: usize,
}

impl SweepDocument {
    /// Decodes a sweep document body (the `kind` field is the
    /// dispatcher's business) against a base scenario catalog.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] for shape problems, unknown
    /// accelerators/schedulers/policies, duplicate axis values,
    /// unresolved scenario references, or any error from the embedded
    /// session/fleet documents.
    pub fn from_value(cursor: &Cursor<'_>, base: &ScenarioCatalog) -> Result<Self, SpecError> {
        cursor.deny_unknown_fields(&[
            "kind",
            "name",
            "seed",
            "duration_s",
            "scenarios",
            "accelerators",
            "base_pes",
            "pe_scaling",
            "schedulers",
            "recovery",
            "workloads",
        ])?;
        let name: String = cursor
            .get_opt_field("name")?
            .unwrap_or_else(|| "sweep".to_string());
        let params = RunParams::from_value(cursor)?;
        let catalog = extend_catalog(cursor, base)?;

        let accelerators = decode_accelerators(&cursor.field("accelerators")?)?;
        let base_pes = match cursor.opt_field("base_pes")? {
            Some(c) => {
                let pes: u64 = c.get()?;
                if pes == 0 {
                    return Err(SpecError::Invalid {
                        path: c.path().to_string(),
                        message: "base_pes must be at least 1".to_string(),
                    });
                }
                pes
            }
            None => 8192,
        };
        let pe_scaling = match cursor.opt_field("pe_scaling")? {
            Some(c) => decode_pe_scaling(&c)?,
            None => vec![1.0],
        };
        let schedulers = match cursor.opt_field("schedulers")? {
            Some(c) => decode_schedulers(&c)?,
            None => vec![SchedulerSpec::default()],
        };
        let recovery = match cursor.opt_field("recovery")? {
            Some(c) => decode_recovery(&c)?,
            None => vec![RecoveryPolicy::default()],
        };
        let workloads = decode_workloads(&cursor.field("workloads")?, &catalog)?;

        Ok(Self {
            name,
            params,
            base_pes,
            accelerators,
            pe_scaling,
            schedulers,
            recovery,
            workloads,
        })
    }

    /// The hardware axis expanded to `(id, pes)` pairs, in
    /// declaration order (accelerators outer, scaling inner).
    pub fn hardware_points(&self) -> Vec<(char, u64)> {
        let mut out = Vec::with_capacity(self.accelerators.len() * self.pe_scaling.len());
        for &id in &self.accelerators {
            for &factor in &self.pe_scaling {
                out.push((id, self.scaled_pes(factor)));
            }
        }
        out
    }

    fn scaled_pes(&self, factor: f64) -> u64 {
        let pes = (self.base_pes as f64 * factor).round();
        if pes < 1.0 {
            1
        } else {
            pes as u64
        }
    }

    /// Expands the axes into the deterministic, globally indexed
    /// point list: workloads → accelerators → pe_scaling → schedulers
    /// → recovery, innermost fastest.
    pub fn points(&self) -> Vec<SweepPoint> {
        let mut points = Vec::new();
        for workload in 0..self.workloads.len() {
            for &accelerator in &self.accelerators {
                for &factor in &self.pe_scaling {
                    let pes = self.scaled_pes(factor);
                    for &scheduler in &self.schedulers {
                        for &recovery in &self.recovery {
                            points.push(SweepPoint {
                                index: points.len(),
                                workload,
                                accelerator,
                                pes,
                                scheduler,
                                recovery,
                            });
                        }
                    }
                }
            }
        }
        points
    }

    /// Whether the recovery axis is provably unobservable for
    /// workload `w`: scenario/session workloads never consult it, and
    /// a fleet whose groups all have quiet (or no) fault processes is
    /// bit-identical under every policy.
    fn recovery_invariant(&self, w: usize) -> bool {
        match &self.workloads[w].kind {
            SweepWorkloadKind::Scenario(_) | SweepWorkloadKind::Session(_) => true,
            SweepWorkloadKind::Fleet(spec) => spec
                .groups
                .iter()
                .all(|g| g.faults.as_ref().is_none_or(|p| p.is_quiet())),
        }
    }

    /// The memo-cache key of a point:
    /// `w<workload>|<id>@<pes>|<scheduler>|<recovery>`, with the
    /// recovery component collapsed to `-` when the workload cannot
    /// observe it.
    pub fn cache_key(&self, point: &SweepPoint) -> String {
        let recovery = if self.recovery_invariant(point.workload) {
            "-"
        } else {
            point.recovery.as_str()
        };
        format!(
            "w{}|{}@{}|{}|{}",
            point.workload,
            point.accelerator,
            point.pes,
            point.scheduler.name(),
            recovery
        )
    }

    /// Distinct simulations the point list requires after memo-cache
    /// deduplication — a static property of the document.
    pub fn distinct_evaluations(&self) -> usize {
        let keys: BTreeSet<String> = self.points().iter().map(|p| self.cache_key(p)).collect();
        keys.len()
    }

    /// A stable FNV-1a fingerprint of the whole document (axes, run
    /// parameters, and canonical workload serializations), used to
    /// reject checkpoints and shard states produced by a different
    /// document.
    pub fn fingerprint(&self) -> u64 {
        let mut text = String::new();
        text.push_str(&self.name);
        text.push('\x1f');
        if let Some(seed) = self.params.seed {
            text.push_str(&seed.to_string());
        }
        text.push('\x1f');
        if let Some(duration_s) = self.params.duration_s {
            text.push_str(&duration_s.to_bits().to_string());
        }
        text.push('\x1f');
        text.push_str(&self.base_pes.to_string());
        for &id in &self.accelerators {
            text.push('\x1f');
            text.push(id);
        }
        for &factor in &self.pe_scaling {
            text.push('\x1f');
            text.push_str(&factor.to_bits().to_string());
        }
        for scheduler in &self.schedulers {
            text.push('\x1f');
            text.push_str(scheduler.name());
        }
        for policy in &self.recovery {
            text.push('\x1f');
            text.push_str(policy.as_str());
        }
        for workload in &self.workloads {
            text.push('\x1f');
            text.push_str(&workload.name);
            text.push('\x1e');
            match &workload.kind {
                SweepWorkloadKind::Scenario(spec) => text.push_str(&scenario_to_json(spec)),
                SweepWorkloadKind::Session(spec) => text.push_str(&session_to_json(spec)),
                SweepWorkloadKind::Fleet(spec) => text.push_str(&fleet_to_json(spec)),
            }
        }
        wire::fnv1a64(text.as_bytes())
    }

    /// Evaluates one point through the existing engines on its
    /// already-built hardware point. Fleets run whole, on one worker:
    /// the sweep's pool owns the parallelism, and a fleet report does
    /// not depend on its worker count.
    fn evaluate(&self, point: &SweepPoint, system: &(dyn CostProvider + Sync)) -> PointMetrics {
        let harness = self.params.harness();
        match &self.workloads[point.workload].kind {
            SweepWorkloadKind::Scenario(spec) => {
                let mut scheduler = point.scheduler.build();
                let (report, _) = harness.run_spec(spec, system, scheduler.as_mut());
                PointMetrics {
                    score: report.overall(),
                    total_energy_mj: report.total_energy_mj,
                    drop_rate: report.drop_rate,
                }
            }
            SweepWorkloadKind::Session(spec) => {
                let mut scheduler = point.scheduler.build();
                let report = harness.run_session(spec, system, scheduler.as_mut());
                PointMetrics {
                    score: report.session_score,
                    total_energy_mj: report.total_energy_mj,
                    drop_rate: report.drop_rate,
                }
            }
            SweepWorkloadKind::Fleet(spec) => {
                let config = FleetRunConfig {
                    sim: harness.sim_config(),
                    workers: 1,
                    recovery: point.recovery,
                    ..FleetRunConfig::default()
                };
                let report = run_fleet_with(spec, system, &config, &|| point.scheduler.build());
                PointMetrics {
                    score: report.fleet_score,
                    total_energy_mj: report.total_energy_mj,
                    drop_rate: report.drop_rate,
                }
            }
        }
    }

    /// The static capacity proxy for one point: PEs for
    /// scenario/session workloads; for fleets, PEs derated by each
    /// group's mean availability (`1/(1+λ_f·d_f) · 1/(1+λ_p·d_p)`)
    /// and mean throttle capacity, replica-weighted.
    fn derated_capacity(&self, point: &SweepPoint) -> f64 {
        let pes = point.pes as f64;
        let SweepWorkloadKind::Fleet(spec) = &self.workloads[point.workload].kind else {
            return pes;
        };
        let mut weighted = 0.0;
        let mut replicas = 0.0;
        for group in &spec.groups {
            let r = f64::from(group.replicas);
            let derate = group.faults.as_ref().map_or(1.0, |p| {
                let avail_failure = 1.0 / (1.0 + p.failure_rate_per_s * p.mean_downtime_s);
                let avail_preempt = 1.0 / (1.0 + p.preemption_rate_per_s * p.mean_preemption_s);
                let throttle = p
                    .throttle
                    .as_ref()
                    .map_or(1.0, |t| t.duty * t.factor + (1.0 - t.duty));
                avail_failure * avail_preempt * throttle
            });
            weighted += r * derate;
            replicas += r;
        }
        pes * weighted / replicas
    }

    /// Runs the whole sweep in-process with no checkpointing.
    pub fn run(&self) -> SweepReport {
        self.run_with(&SweepOptions::default())
            .expect("no checkpoint I/O is configured")
            .report
            .expect("no limit is configured")
    }

    /// Runs the sweep with resumption/limit options.
    ///
    /// The distinct evaluations of the points in range run
    /// concurrently on [`default_workers`] threads; the report and the
    /// [`SweepStats`] do not depend on which thread evaluated what.
    /// With a checkpoint path, completed points are persisted after
    /// each batch of completed evaluations and restored (and re-seeded
    /// into the cache) on the next call, making a kill-and-resume
    /// byte-identical to an uninterrupted run.
    ///
    /// # Errors
    ///
    /// Returns [`XrError::Io`] for unreadable/unwritable checkpoint
    /// files and [`XrError::Spec`] for a corrupt checkpoint or one
    /// written by a different document (fingerprint mismatch).
    pub fn run_with(&self, options: &SweepOptions) -> Result<SweepOutcome, XrError> {
        self.run_on(options, default_workers())
    }

    /// [`SweepDocument::run_with`] on `workers` pool threads.
    fn run_on(&self, options: &SweepOptions, workers: usize) -> Result<SweepOutcome, XrError> {
        let points = self.points();
        let fingerprint = self.fingerprint();
        let mut metrics: Vec<Option<PointMetrics>> = vec![None; points.len()];
        let mut stats = SweepStats {
            points: points.len(),
            ..SweepStats::default()
        };

        if let Some(path) = &options.checkpoint {
            if path.exists() {
                let text =
                    fs::read_to_string(path).map_err(|e| XrError::io("read", path.display(), e))?;
                for (index, m) in decode_checkpoint(&text, fingerprint, points.len())? {
                    if metrics[index].is_none() {
                        stats.resumed += 1;
                    }
                    metrics[index] = Some(m);
                }
            }
        }

        let limit = options.limit.unwrap_or(points.len()).min(points.len());
        let checkpoint = options.checkpoint.as_deref().zip(Some(fingerprint));
        self.complete(
            &points,
            0..limit,
            &mut metrics,
            &mut stats,
            checkpoint,
            workers,
        )?;

        let report = if metrics.iter().all(Option::is_some) {
            let all: Vec<PointMetrics> = metrics.into_iter().map(|m| m.expect("checked")).collect();
            Some(self.build_report(&points, &all))
        } else {
            None
        };
        Ok(SweepOutcome { report, stats })
    }

    /// Runs shard `shard` of `num_shards`: the contiguous slice of the
    /// point list [`cut`] gives it at weight 1 per point, memo-cached
    /// within the shard.
    ///
    /// # Panics
    ///
    /// Panics if `shard >= num_shards`.
    pub fn run_shard(&self, shard: u32, num_shards: u32) -> SweepShardState {
        assert!(
            shard < num_shards,
            "shard {shard} out of range (num_shards: {num_shards})"
        );
        let points = self.points();
        let Range { start, end } =
            cut(&vec![1; points.len()], num_shards).swap_remove(shard as usize);
        let mut metrics = vec![None; points.len()];
        let mut stats = SweepStats::default();
        let workers = default_workers();
        self.complete(&points, start..end, &mut metrics, &mut stats, None, workers)
            .expect("no checkpoint I/O is configured");
        SweepShardState {
            shard,
            num_shards,
            fingerprint: self.fingerprint(),
            rows: (start..end)
                .map(|i| (i, metrics[i].expect("every point in range completed")))
                .collect(),
            evaluated: stats.evaluated,
            cache_hits: stats.cache_hits,
        }
    }

    /// The executor shared by [`SweepDocument::run_with`] and
    /// [`SweepDocument::run_shard`]: fills every empty slot of
    /// `metrics` in `range` through the two memos of one run (see
    /// "Cache keying" in the module docs), in three steps.
    ///
    /// 1. **Plan**, in index order. Slots already filled — resumed
    ///    from a checkpoint — seed the result memo. Every other point
    ///    either takes a known result, joins the distinct evaluation
    ///    its key already opened (both cache hits), or opens one. The
    ///    counters in `stats` come from this walk alone.
    /// 2. **Build** each hardware point the evaluations touch, once.
    /// 3. **Evaluate** the distinct keys on `workers` pool threads.
    ///    As each result arrives, the calling thread fills every point
    ///    waiting on its key and, with a checkpoint, rewrites the file
    ///    once the results already queued are filled too; workers never
    ///    wait on that I/O.
    fn complete(
        &self,
        points: &[SweepPoint],
        range: Range<usize>,
        metrics: &mut [Option<PointMetrics>],
        stats: &mut SweepStats,
        checkpoint: Option<(&Path, u64)>,
        workers: usize,
    ) -> Result<(), XrError> {
        /// One distinct evaluation: the first point with its key, its
        /// hardware slot, and every point in range its result fills.
        struct Evaluation {
            point: usize,
            hardware: usize,
            fills: Vec<usize>,
        }
        let results: BTreeMap<String, PointMetrics> = points
            .iter()
            .zip(metrics.iter())
            .filter_map(|(point, m)| m.map(|m| (self.cache_key(point), m)))
            .collect();
        let mut opened: BTreeMap<String, usize> = BTreeMap::new();
        let mut evaluations: Vec<Evaluation> = Vec::new();
        let mut hardware: Vec<(char, u64)> = Vec::new();
        let mut reused = false;
        for point in &points[range] {
            if metrics[point.index].is_some() {
                continue;
            }
            let key = self.cache_key(point);
            if let Some(&m) = results.get(&key) {
                stats.cache_hits += 1;
                metrics[point.index] = Some(m);
                reused = true;
            } else if let Some(&e) = opened.get(&key) {
                stats.cache_hits += 1;
                evaluations[e].fills.push(point.index);
            } else {
                let hw = (point.accelerator, point.pes);
                let slot = hardware.iter().position(|&h| h == hw).unwrap_or_else(|| {
                    hardware.push(hw);
                    hardware.len() - 1
                });
                opened.insert(key, evaluations.len());
                evaluations.push(Evaluation {
                    point: point.index,
                    hardware: slot,
                    fills: vec![point.index],
                });
            }
        }
        stats.evaluated += evaluations.len();
        stats.hardware_builds += hardware.len();

        let persist = |metrics: &[Option<PointMetrics>]| match checkpoint {
            Some((path, fingerprint)) => write_checkpoint(path, fingerprint, metrics),
            None => Ok(()),
        };
        if reused {
            persist(metrics)?;
        }
        let systems = parallel_map(&hardware, workers, |&(id, pes)| {
            SystemSpec::Accelerator { id, pes }.build()
        });
        parallel_map_observed(
            &evaluations,
            workers,
            |e| self.evaluate(&points[e.point], systems[e.hardware].as_ref()),
            |e, &m, last| {
                for &i in &evaluations[e].fills {
                    metrics[i] = Some(m);
                }
                if last {
                    persist(metrics)
                } else {
                    Ok(())
                }
            },
        )?;
        Ok(())
    }

    /// Merges shard states produced by [`SweepDocument::run_shard`]
    /// (in any order, possibly in other processes) into the final
    /// report — byte-identical to [`SweepDocument::run`]'s.
    ///
    /// # Errors
    ///
    /// Returns [`XrError::Spec`] when the states do not form a
    /// complete, consistent partition of this sweep's point list, or
    /// were produced by a different document.
    pub fn merge_shards(&self, states: &[SweepShardState]) -> Result<SweepReport, XrError> {
        check_partition(
            states
                .iter()
                .map(|s| (s.shard, s.num_shards, s.fingerprint)),
            Some(self.fingerprint()),
        )?;
        let points = self.points();
        let ranges = cut(&vec![1; points.len()], states[0].num_shards);
        let mut metrics: Vec<Option<PointMetrics>> = vec![None; points.len()];
        for state in states {
            let range = &ranges[state.shard as usize];
            if !state.rows.iter().map(|&(i, _)| i).eq(range.clone()) {
                return Err(XrError::Spec(SpecError::Invalid {
                    path: "shard-states".to_string(),
                    message: format!(
                        "shard {} does not carry exactly the points [{}, {}) in order",
                        state.shard, range.start, range.end
                    ),
                }));
            }
            for &(index, m) in &state.rows {
                metrics[index] = Some(m);
            }
        }
        let all: Vec<PointMetrics> = metrics
            .into_iter()
            .map(|m| m.expect("complete partition fills every point"))
            .collect();
        Ok(self.build_report(&points, &all))
    }

    /// Folds completed metrics into the report: Pareto frontiers and
    /// per-axis marginals.
    fn build_report(&self, points: &[SweepPoint], metrics: &[PointMetrics]) -> SweepReport {
        let point_reports: Vec<SweepPointReport> = points
            .iter()
            .zip(metrics)
            .map(|(point, m)| SweepPointReport {
                index: point.index,
                workload: self.workloads[point.workload].name.clone(),
                accelerator: format!("{}@{}", point.accelerator, point.pes),
                scheduler: point.scheduler.name().to_string(),
                recovery: point.recovery.as_str().to_string(),
                score: m.score,
                total_energy_mj: m.total_energy_mj,
                drop_rate: m.drop_rate,
                derated_capacity: self.derated_capacity(point),
            })
            .collect();

        let energy_points: Vec<ParetoPoint> = point_reports
            .iter()
            .map(|p| ParetoPoint::new(p.index.to_string(), vec![p.score, -p.total_energy_mj]))
            .collect();
        let capacity_points: Vec<ParetoPoint> = point_reports
            .iter()
            .map(|p| ParetoPoint::new(p.index.to_string(), vec![p.score, -p.derated_capacity]))
            .collect();

        type AxisSelect = fn(&SweepPointReport) -> &str;
        let mut marginals = Vec::new();
        let axes: [(&str, Vec<String>, AxisSelect); 4] = [
            (
                "workload",
                self.workloads.iter().map(|w| w.name.clone()).collect(),
                |p| &p.workload,
            ),
            (
                "accelerator",
                self.hardware_points()
                    .iter()
                    .map(|(id, pes)| format!("{id}@{pes}"))
                    .collect(),
                |p| &p.accelerator,
            ),
            (
                "scheduler",
                self.schedulers
                    .iter()
                    .map(|s| s.name().to_string())
                    .collect(),
                |p| &p.scheduler,
            ),
            (
                "recovery",
                self.recovery
                    .iter()
                    .map(|r| r.as_str().to_string())
                    .collect(),
                |p| &p.recovery,
            ),
        ];
        for (axis, values, select) in axes {
            for value in values {
                let scores: Vec<f64> = point_reports
                    .iter()
                    .filter(|p| select(p) == value)
                    .map(|p| p.score)
                    .collect();
                if scores.is_empty() {
                    continue;
                }
                marginals.push(AxisMarginalReport {
                    axis: axis.to_string(),
                    value,
                    points: scores.len(),
                    mean_score: scores.iter().sum::<f64>() / scores.len() as f64,
                    best_score: scores.iter().copied().fold(f64::NEG_INFINITY, f64::max),
                });
            }
        }

        SweepReport {
            sweep: self.name.clone(),
            num_points: point_reports.len(),
            distinct_evaluations: self.distinct_evaluations(),
            pareto_score_energy: pareto_frontier(&energy_points),
            pareto_score_capacity: pareto_frontier(&capacity_points),
            points: point_reports,
            marginals,
        }
    }
}

// ---------------------------------------------------------------------------
// Decoding helpers
// ---------------------------------------------------------------------------

/// Decodes a sweep axis: a non-empty list of distinct values, each read
/// by `decode`. `duplicate` words the error for a repeated value and
/// `empty` is the error for an empty list.
fn decode_axis<T: PartialEq>(
    cursor: &Cursor<'_>,
    empty: &str,
    duplicate: impl Fn(&T) -> String,
    decode: impl Fn(&Cursor<'_>) -> Result<T, SpecError>,
) -> Result<Vec<T>, SpecError> {
    let mut out = Vec::new();
    for item in cursor.items()? {
        let value = decode(&item)?;
        if out.contains(&value) {
            return Err(SpecError::Invalid {
                path: item.path().to_string(),
                message: duplicate(&value),
            });
        }
        out.push(value);
    }
    if out.is_empty() {
        return Err(SpecError::Invalid {
            path: cursor.path().to_string(),
            message: empty.to_string(),
        });
    }
    Ok(out)
}

fn decode_accelerators(cursor: &Cursor<'_>) -> Result<Vec<char>, SpecError> {
    decode_axis(
        cursor,
        "accelerators must name at least one Table 5 id",
        |id| format!("duplicate accelerator `{id}`"),
        |item| {
            let text = item.as_str()?;
            let id = match text.chars().next() {
                Some(c) if text.chars().count() == 1 => c.to_ascii_uppercase(),
                _ => {
                    return Err(SpecError::Invalid {
                        path: item.path().to_string(),
                        message: format!(
                            "accelerator id must be a single letter A-M, got `{text}`"
                        ),
                    })
                }
            };
            if config_by_id(id).is_none() {
                return Err(SpecError::Invalid {
                    path: item.path().to_string(),
                    message: format!("unknown accelerator `{id}` (Table 5 defines A-M)"),
                });
            }
            Ok(id)
        },
    )
}

fn decode_pe_scaling(cursor: &Cursor<'_>) -> Result<Vec<f64>, SpecError> {
    // Factors are positive and finite, so `==` is bit equality.
    decode_axis(
        cursor,
        "pe_scaling must list at least one factor",
        |factor| format!("duplicate pe_scaling factor {factor}"),
        |item| {
            let factor: f64 = item.get()?;
            if !(factor.is_finite() && factor > 0.0) {
                return Err(SpecError::Invalid {
                    path: item.path().to_string(),
                    message: format!(
                        "pe_scaling factors must be positive and finite, got {factor}"
                    ),
                });
            }
            Ok(factor)
        },
    )
}

fn decode_schedulers(cursor: &Cursor<'_>) -> Result<Vec<SchedulerSpec>, SpecError> {
    decode_axis(
        cursor,
        "schedulers must list at least one scheduler",
        |scheduler| format!("duplicate scheduler `{}`", scheduler.name()),
        SchedulerSpec::from_value,
    )
}

fn decode_recovery(cursor: &Cursor<'_>) -> Result<Vec<RecoveryPolicy>, SpecError> {
    // `parse` accepts only the canonical names, so a policy displays
    // exactly as it was written.
    decode_axis(
        cursor,
        "recovery must list at least one policy",
        |policy| format!("duplicate recovery policy `{policy}`"),
        |item| {
            let name = item.as_str()?;
            RecoveryPolicy::parse(name).ok_or_else(|| SpecError::Invalid {
                path: item.path().to_string(),
                message: format!(
                    "unknown recovery policy `{name}` (expected drop, requeue, or migrate)"
                ),
            })
        },
    )
}

fn decode_workloads(
    cursor: &Cursor<'_>,
    catalog: &ScenarioCatalog,
) -> Result<Vec<SweepWorkload>, SpecError> {
    let mut out: Vec<SweepWorkload> = Vec::new();
    for item in cursor.items()? {
        item.deny_unknown_fields(&["name", "scenario", "session", "fleet", "scenario_seeds"])?;
        let name: Option<String> = item.get_opt_field("name")?;
        let scenario = item.opt_field("scenario")?;
        let session = item.opt_field("session")?;
        let fleet = item.opt_field("fleet")?;
        let seeds = item.opt_field("scenario_seeds")?;
        let present = [
            scenario.is_some(),
            session.is_some(),
            fleet.is_some(),
            seeds.is_some(),
        ]
        .iter()
        .filter(|p| **p)
        .count();
        if present != 1 {
            return Err(SpecError::Invalid {
                path: item.path().to_string(),
                message: "exactly one of `scenario`, `session`, `fleet`, or \
                          `scenario_seeds` is required"
                    .to_string(),
            });
        }
        if let Some(c) = scenario {
            let wanted = c.as_str()?;
            let spec = catalog
                .get(wanted)
                .cloned()
                .ok_or_else(|| SpecError::UnknownScenario {
                    path: c.path().to_string(),
                    name: wanted.to_string(),
                    available: catalog.names().iter().map(|s| s.to_string()).collect(),
                })?;
            let name = name.unwrap_or_else(|| spec.name.clone());
            out.push(SweepWorkload {
                name,
                kind: SweepWorkloadKind::Scenario(spec),
            });
        } else if let Some(c) = session {
            let spec = session_from_value(&c, catalog)?;
            let name = name.unwrap_or_else(|| spec.name.clone());
            out.push(SweepWorkload {
                name,
                kind: SweepWorkloadKind::Session(spec),
            });
        } else if let Some(c) = fleet {
            let spec = xrbench_fleet::specfile::fleet_from_value(&c, catalog)?;
            let name = name.unwrap_or_else(|| spec.name.clone());
            out.push(SweepWorkload {
                name,
                kind: SweepWorkloadKind::Fleet(spec),
            });
        } else {
            let seeds = seeds.expect("exactly one field is present");
            let space = ScenarioSpace::default();
            let mut any = false;
            for seed_cursor in seeds.items()? {
                let seed: u64 = seed_cursor.get()?;
                let spec = space.sample(seed);
                let entry_name = match &name {
                    Some(prefix) => format!("{prefix}-{seed}"),
                    None => format!("sampled-{seed}"),
                };
                out.push(SweepWorkload {
                    name: entry_name,
                    kind: SweepWorkloadKind::Scenario(spec),
                });
                any = true;
            }
            if !any {
                return Err(SpecError::Invalid {
                    path: seeds.path().to_string(),
                    message: "scenario_seeds must list at least one seed".to_string(),
                });
            }
        }
    }
    if out.is_empty() {
        return Err(SpecError::Invalid {
            path: cursor.path().to_string(),
            message: "workloads must list at least one workload".to_string(),
        });
    }
    let mut names = BTreeSet::new();
    for workload in &out {
        if !names.insert(workload.name.as_str()) {
            return Err(SpecError::Invalid {
                path: cursor.path().to_string(),
                message: format!("duplicate workload name `{}`", workload.name),
            });
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Envelope bodies (checkpoint + shard state)
// ---------------------------------------------------------------------------
//
// Both bodies hold completed points as `[index, score, energy, drop
// rate]` rows of exact numbers, so a round trip through a file or a
// pipe is bit-lossless and merged/resumed reports stay byte-identical
// to straight-through runs.

fn rows_to_value<'a>(rows: impl Iterator<Item = (usize, &'a PointMetrics)>) -> JsonValue {
    JsonValue::Array(
        rows.map(|(index, m)| {
            JsonValue::Array(vec![
                int(index),
                float(m.score),
                float(m.total_energy_mj),
                float(m.drop_rate),
            ])
        })
        .collect(),
    )
}

/// Decodes point rows, refusing indices at or past `num_points`.
fn rows_from_value(
    cursor: &Cursor<'_>,
    num_points: usize,
) -> Result<Vec<(usize, PointMetrics)>, SpecError> {
    let mut rows = Vec::new();
    for row in cursor.items()? {
        let [index, score, energy, drop_rate] = &row.items()?[..] else {
            return Err(SpecError::Invalid {
                path: row.path().to_string(),
                message: "expected a 4-cell point row".to_string(),
            });
        };
        let i: usize = parse_int(index)?;
        if i >= num_points {
            return Err(SpecError::Invalid {
                path: index.path().to_string(),
                message: format!("point index {i} out of range (points: {num_points})"),
            });
        }
        let metrics = PointMetrics {
            score: parse_float(score)?,
            total_energy_mj: parse_float(energy)?,
            drop_rate: parse_float(drop_rate)?,
        };
        // Every evaluation yields finite metrics, and the Pareto fold
        // refuses any other.
        if ![metrics.score, metrics.total_energy_mj, metrics.drop_rate]
            .iter()
            .all(|v| v.is_finite())
        {
            return Err(SpecError::Invalid {
                path: row.path().to_string(),
                message: "point metrics must be finite".to_string(),
            });
        }
        rows.push((i, metrics));
    }
    Ok(rows)
}

fn write_checkpoint(
    path: &Path,
    fingerprint: u64,
    metrics: &[Option<PointMetrics>],
) -> Result<(), XrError> {
    let rows = metrics
        .iter()
        .enumerate()
        .filter_map(|(i, m)| m.as_ref().map(|m| (i, m)));
    let header = Header {
        fingerprint,
        shard: None,
    };
    let body = obj(vec![("points", rows_to_value(rows))]);
    let text = wire::encode(&SWEEP_CHECKPOINT, &header, body) + "\n";
    // Write a sibling and rename it over the checkpoint, so a kill
    // mid-write leaves the previous checkpoint whole, never truncated.
    // There is no fsync: the file guards against a killed process, and
    // a disk flush per batch of evaluations would dominate the run.
    let temp = checkpoint_temp_path(path);
    fs::write(&temp, text).map_err(|e| XrError::io("write", temp.display(), e))?;
    fs::rename(&temp, path).map_err(|e| XrError::io("replace", path.display(), e))
}

/// The sibling file a checkpoint is written to before it is renamed
/// into place: the checkpoint path with `.tmp` appended.
fn checkpoint_temp_path(path: &Path) -> PathBuf {
    let mut temp = path.as_os_str().to_owned();
    temp.push(".tmp");
    PathBuf::from(temp)
}

fn decode_checkpoint(
    text: &str,
    expected_fingerprint: u64,
    num_points: usize,
) -> Result<Vec<(usize, PointMetrics)>, XrError> {
    let (header, rows) = wire::decode(&SWEEP_CHECKPOINT, text, |body| {
        body.deny_unknown_fields(&["points"])?;
        rows_from_value(&body.field("points")?, num_points)
    })?;
    if header.fingerprint != expected_fingerprint {
        return Err(XrError::Spec(SpecError::Invalid {
            path: "$.fingerprint".to_string(),
            message: "checkpoint was written for a different sweep document \
                      (fingerprint mismatch)"
                .to_string(),
        }));
    }
    Ok(rows)
}

impl SweepShardState {
    /// Serializes the state as a single-line JSON envelope for
    /// transport over a pipe.
    pub fn to_json(&self) -> String {
        let header = Header {
            fingerprint: self.fingerprint,
            shard: Some((self.shard, self.num_shards)),
        };
        let body = obj(vec![
            (
                "points",
                rows_to_value(self.rows.iter().map(|(i, m)| (*i, m))),
            ),
            ("evaluated", int(self.evaluated)),
            ("cache_hits", int(self.cache_hits)),
        ]);
        wire::encode(&SWEEP_STATE, &header, body)
    }

    /// Parses a state serialized by [`SweepShardState::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] for malformed JSON, an envelope of
    /// another kind or version, or shape problems.
    pub fn from_json(text: &str) -> Result<Self, SpecError> {
        let (header, (rows, evaluated, cache_hits)) = wire::decode(&SWEEP_STATE, text, |body| {
            body.deny_unknown_fields(&["points", "evaluated", "cache_hits"])?;
            Ok((
                rows_from_value(&body.field("points")?, usize::MAX)?,
                parse_int(&body.field("evaluated")?)?,
                parse_int(&body.field("cache_hits")?)?,
            ))
        })?;
        let (shard, num_shards) = header.shard.expect("sweep states are sharded");
        Ok(Self {
            shard,
            num_shards,
            fingerprint: header.fingerprint,
            rows,
            evaluated,
            cache_hits,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::RunDocument;

    fn sweep(body: &str) -> SweepDocument {
        let doc = RunDocument::from_json_str(body).expect("valid sweep document");
        let RunDocument::Sweep(run) = doc else {
            panic!("expected a sweep document");
        };
        run
    }

    const SMALL_SWEEP: &str = r#"{
        "kind": "sweep", "name": "unit", "duration_s": 0.05,
        "accelerators": ["J"], "base_pes": 8192, "pe_scaling": [1.0, 0.5],
        "schedulers": ["latency-greedy", "round-robin"],
        "recovery": ["drop", "requeue"],
        "workloads": [ { "scenario": "VR Gaming" } ] }"#;

    #[test]
    fn points_expand_in_declaration_order_with_recovery_innermost() {
        let run = sweep(SMALL_SWEEP);
        let points = run.points();
        assert_eq!(points.len(), 8);
        assert!(points.iter().enumerate().all(|(i, p)| p.index == i));
        assert_eq!(points[0].pes, 8192);
        assert_eq!(points[0].scheduler, SchedulerSpec::LatencyGreedy);
        assert_eq!(points[0].recovery, RecoveryPolicy::Drop);
        assert_eq!(points[1].recovery, RecoveryPolicy::Requeue);
        assert_eq!(points[2].scheduler, SchedulerSpec::RoundRobin);
        assert_eq!(points[4].pes, 4096);
    }

    #[test]
    fn recovery_axis_collapses_in_cache_keys_for_faultless_workloads() {
        let run = sweep(SMALL_SWEEP);
        let points = run.points();
        assert_eq!(run.cache_key(&points[0]), run.cache_key(&points[1]));
        assert_ne!(run.cache_key(&points[0]), run.cache_key(&points[2]));
        assert_eq!(run.distinct_evaluations(), 4);
    }

    #[test]
    fn memo_cache_halves_the_evaluations() {
        let run = sweep(SMALL_SWEEP);
        let outcome = run.run_with(&SweepOptions::default()).unwrap();
        assert_eq!(outcome.stats.points, 8);
        assert_eq!(outcome.stats.evaluated, 4);
        assert_eq!(outcome.stats.cache_hits, 4);
        let report = outcome.report.expect("no limit configured");
        assert_eq!(report.num_points, 8);
        assert_eq!(report.distinct_evaluations, 4);
        // Identical metrics for the recovery-collapsed twin points.
        assert_eq!(report.points[0].score, report.points[1].score);
        assert_eq!(
            report.points[0].total_energy_mj,
            report.points[1].total_energy_mj
        );
    }

    #[test]
    fn hardware_memo_builds_each_touched_point_once_per_run() {
        let run = sweep(SMALL_SWEEP);
        assert_eq!(run.hardware_points(), vec![('J', 8192), ('J', 4096)]);
        let full = run.run_with(&SweepOptions::default()).unwrap();
        assert_eq!(full.stats.hardware_builds, 2);
        // A shared cost table yields exactly what a fresh one per
        // evaluation does.
        let report = full.report.expect("no limit configured");
        for point in run.points() {
            let fresh = SystemSpec::Accelerator {
                id: point.accelerator,
                pes: point.pes,
            }
            .build();
            let m = run.evaluate(&point, fresh.as_ref());
            let row = &report.points[point.index];
            assert_eq!(m.score.to_bits(), row.score.to_bits());
            assert_eq!(m.total_energy_mj.to_bits(), row.total_energy_mj.to_bits());
            assert_eq!(m.drop_rate.to_bits(), row.drop_rate.to_bits());
        }

        let limited = run
            .run_with(&SweepOptions {
                checkpoint: None,
                limit: Some(1),
            })
            .unwrap();
        assert_eq!(limited.stats.hardware_builds, 1);
    }

    #[test]
    fn resuming_a_complete_checkpoint_builds_no_hardware() {
        let run = sweep(SMALL_SWEEP);
        let dir = std::env::temp_dir().join(format!(
            "xrbench-sweep-hw-{}-{}",
            std::process::id(),
            run.fingerprint()
        ));
        fs::create_dir_all(&dir).unwrap();
        let checkpoint = dir.join("ckpt.json");
        let _ = fs::remove_file(&checkpoint);
        let options = SweepOptions {
            checkpoint: Some(checkpoint),
            limit: None,
        };
        let first = run.run_with(&options).unwrap();
        assert_eq!(first.stats.hardware_builds, 2);
        let resumed = run.run_with(&options).unwrap();
        assert_eq!(resumed.stats.resumed, 8);
        assert_eq!(resumed.stats.evaluated, 0);
        assert_eq!(resumed.stats.hardware_builds, 0);
        assert_eq!(
            resumed.report.expect("complete checkpoint").to_json(),
            run.run().to_json()
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sharded_runs_merge_byte_identically() {
        let run = sweep(SMALL_SWEEP);
        let straight = run.run();
        for num_shards in [1_u32, 3, 4, 8, 11] {
            let states: Vec<SweepShardState> = (0..num_shards)
                .map(|k| {
                    let text = run.run_shard(k, num_shards).to_json();
                    SweepShardState::from_json(&text).expect("round-trips")
                })
                .collect();
            let merged = run.merge_shards(&states).expect("complete partition");
            assert_eq!(merged.to_json(), straight.to_json(), "N={num_shards}");
        }
    }

    #[test]
    fn checkpoint_resume_is_byte_identical_to_straight_run() {
        let run = sweep(SMALL_SWEEP);
        let straight = run.run();
        let dir = std::env::temp_dir().join(format!(
            "xrbench-sweep-test-{}-{}",
            std::process::id(),
            run.fingerprint()
        ));
        fs::create_dir_all(&dir).unwrap();
        let checkpoint = dir.join("ckpt.json");
        let _ = fs::remove_file(&checkpoint);

        let partial = run
            .run_with(&SweepOptions {
                checkpoint: Some(checkpoint.clone()),
                limit: Some(3),
            })
            .unwrap();
        assert!(partial.report.is_none());
        assert_eq!(partial.stats.evaluated + partial.stats.cache_hits, 3);

        let resumed = run
            .run_with(&SweepOptions {
                checkpoint: Some(checkpoint.clone()),
                limit: None,
            })
            .unwrap();
        assert_eq!(resumed.stats.resumed, 3);
        let report = resumed.report.expect("resumed to completion");
        assert_eq!(report.to_json(), straight.to_json());
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A scenario, whose recovery axis collapses, and a fault-injected
    /// fleet, whose recovery axis stays distinct.
    const FAULTED_SWEEP: &str = r#"{
        "kind": "sweep", "name": "unit-faulted", "duration_s": 0.05,
        "accelerators": ["J"], "base_pes": 8192, "pe_scaling": [1.0, 0.5],
        "schedulers": ["latency-greedy", "round-robin"],
        "recovery": ["drop", "requeue"],
        "workloads": [ { "scenario": "VR Gaming" },
          { "name": "churn", "fleet": { "name": "churn", "groups": [
            { "name": "vr", "replicas": 2,
              "faults": { "failure_rate_per_s": 20.0, "mean_downtime_s": 0.01,
                          "preemption_rate_per_s": 40.0, "mean_preemption_s": 0.005 },
              "session": { "name": "party", "uniform":
                { "scenario": "VR Gaming", "users": 2, "stagger_s": 0.002 } } } ] } } ] }"#;

    #[test]
    fn worker_count_does_not_change_reports_stats_or_checkpoints() {
        for (body, distinct) in [(SMALL_SWEEP, 4), (FAULTED_SWEEP, 12)] {
            let run = sweep(body);
            let dir = std::env::temp_dir().join(format!(
                "xrbench-sweep-workers-{}-{}",
                std::process::id(),
                run.fingerprint()
            ));
            fs::create_dir_all(&dir).unwrap();
            let one = run.run_on(&SweepOptions::default(), 1).unwrap();
            assert_eq!(one.stats.evaluated, distinct, "{}", run.name);
            let report = one.report.expect("no limit configured");
            for workers in [2, 5] {
                let many = run.run_on(&SweepOptions::default(), workers).unwrap();
                assert_eq!(many.stats, one.stats, "{} workers = {workers}", run.name);
                assert_eq!(
                    many.report.expect("no limit configured").to_json(),
                    report.to_json(),
                    "{} workers = {workers}",
                    run.name
                );
            }
            for workers in [1, 2, 5] {
                let checkpoint = dir.join(format!("ckpt-{workers}.json"));
                let _ = fs::remove_file(&checkpoint);
                let options = SweepOptions {
                    checkpoint: Some(checkpoint.clone()),
                    limit: Some(3),
                };
                assert!(run.run_on(&options, workers).unwrap().report.is_none());
                let text = fs::read_to_string(&checkpoint).unwrap();
                let rows = decode_checkpoint(&text, run.fingerprint(), report.num_points).unwrap();
                let indices: Vec<usize> = rows.iter().map(|&(i, _)| i).collect();
                assert_eq!(indices, [0, 1, 2], "{} workers = {workers}", run.name);
                for (i, m) in rows {
                    assert_eq!(m.score.to_bits(), report.points[i].score.to_bits());
                }
            }
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn a_failed_checkpoint_write_leaves_the_old_checkpoint_whole() {
        let run = sweep(SMALL_SWEEP);
        let dir = std::env::temp_dir().join(format!(
            "xrbench-sweep-atomic-{}-{}",
            std::process::id(),
            run.fingerprint()
        ));
        fs::create_dir_all(&dir).unwrap();
        let checkpoint = dir.join("ckpt.json");
        let _ = fs::remove_file(&checkpoint);
        let options = |limit| SweepOptions {
            checkpoint: Some(checkpoint.clone()),
            limit,
        };
        run.run_with(&options(Some(2))).unwrap();
        let before = fs::read_to_string(&checkpoint).unwrap();

        // A directory in the temp file's place makes the next write
        // fail; point 2 opens a new evaluation, so the failure comes
        // from the pool's observer.
        fs::create_dir_all(checkpoint_temp_path(&checkpoint)).unwrap();
        let err = run.run_with(&options(None)).unwrap_err();
        assert!(matches!(err, XrError::Io { .. }), "{err}");
        let after = fs::read_to_string(&checkpoint).unwrap();
        assert_eq!(after, before);
        let rows = decode_checkpoint(&after, run.fingerprint(), 8).unwrap();
        assert_eq!(rows.iter().map(|&(i, _)| i).collect::<Vec<_>>(), [0, 1]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoints_from_a_different_document_are_rejected() {
        let run = sweep(SMALL_SWEEP);
        let other = sweep(&SMALL_SWEEP.replace("0.05", "0.04"));
        assert_ne!(run.fingerprint(), other.fingerprint());
        let dir = std::env::temp_dir().join(format!(
            "xrbench-sweep-fp-{}-{}",
            std::process::id(),
            run.fingerprint()
        ));
        fs::create_dir_all(&dir).unwrap();
        let checkpoint = dir.join("ckpt.json");
        let _ = fs::remove_file(&checkpoint);
        other
            .run_with(&SweepOptions {
                checkpoint: Some(checkpoint.clone()),
                limit: Some(1),
            })
            .unwrap();
        let err = run
            .run_with(&SweepOptions {
                checkpoint: Some(checkpoint.clone()),
                limit: None,
            })
            .unwrap_err();
        assert!(err.to_string().contains("fingerprint mismatch"), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn envelopes_of_another_kind_or_version_are_refused() {
        let run = sweep(SMALL_SWEEP);
        let fingerprint = run.fingerprint();
        let state = run.run_shard(0, 2).to_json();
        let header = Header {
            fingerprint,
            shard: None,
        };
        let body = obj(vec![("points", JsonValue::Array(Vec::new()))]);
        let checkpoint = wire::encode(&SWEEP_CHECKPOINT, &header, body);
        let fleet_state = xrbench_fleet::ShardState {
            shard: 0,
            num_shards: 1,
            fingerprint,
            groups: Vec::new(),
            peak_rss_mib: None,
        }
        .to_json();
        let named = |err: String, tag: &str| {
            assert!(
                err.contains(&format!("expected an `{tag}` envelope")),
                "{err}"
            );
        };
        for other in [&fleet_state, &checkpoint] {
            let err = SweepShardState::from_json(other).unwrap_err();
            named(err.to_string(), "xrbench_sweep_state");
        }
        for other in [&fleet_state, &state] {
            let err = decode_checkpoint(other, fingerprint, 8).unwrap_err();
            named(err.to_string(), "xrbench_sweep_checkpoint");
        }
        for other in [&state, &checkpoint] {
            let err = xrbench_fleet::ShardState::from_json(other).unwrap_err();
            named(err.to_string(), "xrbench_shard_state");
        }
        // Version 1 of both sweep kinds, in its own layout: the
        // fields sat at the top level, and the state was cut at
        // ⌊kP/N⌋.
        let v1_state = format!(
            "{{\"xrbench_sweep_state\":\"1\",\"shard\":\"0\",\"num_shards\":\"1\",\
             \"fingerprint\":\"{fingerprint}\",\"points\":[],\"evaluated\":\"0\",\
             \"cache_hits\":\"0\"}}"
        );
        let err = SweepShardState::from_json(&v1_state)
            .unwrap_err()
            .to_string();
        assert!(
            err.contains("version 1") && err.contains("version 2"),
            "{err}"
        );
        let v1_checkpoint = format!(
            "{{\"xrbench_sweep_checkpoint\":\"1\",\"fingerprint\":\"{fingerprint}\",\
             \"points\":[]}}"
        );
        let err = decode_checkpoint(&v1_checkpoint, fingerprint, 8)
            .unwrap_err()
            .to_string();
        assert!(
            err.contains("version 1") && err.contains("version 2"),
            "{err}"
        );
    }

    #[test]
    fn merge_refuses_states_that_do_not_partition_the_points() {
        let run = sweep(SMALL_SWEEP);
        let states = |n: u32| (0..n).map(|k| run.run_shard(k, n)).collect::<Vec<_>>();
        let two = states(2);
        let other = sweep(&SMALL_SWEEP.replace("0.05", "0.04"));
        let cases: [(Vec<SweepShardState>, &str); 5] = [
            (Vec::new(), "no shard states"),
            (vec![two[0].clone(), two[0].clone()], "duplicated"),
            (vec![two[0].clone()], "expected 2 shard states"),
            (
                vec![two[0].clone(), other.run_shard(1, 2)],
                "fingerprint mismatch",
            ),
            (
                {
                    let mut bad = two.clone();
                    bad[1].rows[0].0 = bad[1].rows[1].0;
                    bad
                },
                "exactly the points",
            ),
        ];
        for (states, needle) in cases {
            let err = run.merge_shards(&states).unwrap_err().to_string();
            assert!(err.contains(needle), "{needle}: {err}");
        }
        let mut non_finite = two[0].clone();
        non_finite.rows[0].1.score = f64::NAN;
        let err = SweepShardState::from_json(&non_finite.to_json()).unwrap_err();
        assert!(err.to_string().contains("finite"), "{err}");
    }

    #[test]
    fn marginals_cover_every_axis_value() {
        let run = sweep(SMALL_SWEEP);
        let report = run.run();
        let axis_values: Vec<(String, String)> = report
            .marginals
            .iter()
            .map(|m| (m.axis.clone(), m.value.clone()))
            .collect();
        for expected in [
            ("workload", "VR Gaming"),
            ("accelerator", "J@8192"),
            ("accelerator", "J@4096"),
            ("scheduler", "latency-greedy"),
            ("scheduler", "round-robin"),
            ("recovery", "drop"),
            ("recovery", "requeue"),
        ] {
            assert!(
                axis_values.contains(&(expected.0.to_string(), expected.1.to_string())),
                "missing marginal {expected:?}"
            );
        }
        for marginal in &report.marginals {
            assert!(marginal.best_score >= marginal.mean_score - 1e-12);
            assert!(marginal.points > 0);
        }
    }

    #[test]
    fn pareto_fronts_are_non_empty_and_in_range() {
        let run = sweep(SMALL_SWEEP);
        let report = run.run();
        for front in [&report.pareto_score_energy, &report.pareto_score_capacity] {
            assert!(!front.is_empty());
            assert!(front.iter().all(|&i| i < report.num_points));
        }
    }

    #[test]
    fn scenario_seed_workloads_expand_through_the_scenario_space() {
        let run = sweep(
            r#"{ "kind": "sweep", "duration_s": 0.05,
                 "accelerators": ["J"],
                 "workloads": [ { "scenario_seeds": [7, 8] } ] }"#,
        );
        assert_eq!(run.workloads.len(), 2);
        assert_eq!(run.workloads[0].name, "sampled-7");
        assert_eq!(run.workloads[1].name, "sampled-8");
        assert_eq!(run.points().len(), 2);
    }

    #[test]
    fn sweep_document_rejections_name_the_problem() {
        let cases = [
            (
                r#"{ "kind": "sweep", "accelerators": [], "workloads": [ { "scenario": "VR Gaming" } ] }"#,
                "at least one Table 5 id",
            ),
            (
                r#"{ "kind": "sweep", "accelerators": ["J", "J"], "workloads": [ { "scenario": "VR Gaming" } ] }"#,
                "duplicate accelerator",
            ),
            (
                r#"{ "kind": "sweep", "accelerators": ["Z"], "workloads": [ { "scenario": "VR Gaming" } ] }"#,
                "unknown accelerator",
            ),
            (
                r#"{ "kind": "sweep", "accelerators": ["J"], "pe_scaling": [0.0], "workloads": [ { "scenario": "VR Gaming" } ] }"#,
                "positive and finite",
            ),
            (
                r#"{ "kind": "sweep", "accelerators": ["J"], "pe_scaling": [], "workloads": [ { "scenario": "VR Gaming" } ] }"#,
                "pe_scaling must list at least one factor",
            ),
            (
                r#"{ "kind": "sweep", "accelerators": ["J"], "pe_scaling": [0.5, 1.0, 0.5], "workloads": [ { "scenario": "VR Gaming" } ] }"#,
                "duplicate pe_scaling factor 0.5",
            ),
            (
                r#"{ "kind": "sweep", "accelerators": ["J"], "schedulers": [], "workloads": [ { "scenario": "VR Gaming" } ] }"#,
                "schedulers must list at least one scheduler",
            ),
            (
                r#"{ "kind": "sweep", "accelerators": ["J"], "schedulers": ["latency-greedy", "latency-greedy"], "workloads": [ { "scenario": "VR Gaming" } ] }"#,
                "duplicate scheduler",
            ),
            (
                r#"{ "kind": "sweep", "accelerators": ["J"], "recovery": ["vanish"], "workloads": [ { "scenario": "VR Gaming" } ] }"#,
                "unknown recovery policy",
            ),
            (
                r#"{ "kind": "sweep", "accelerators": ["J"], "recovery": [], "workloads": [ { "scenario": "VR Gaming" } ] }"#,
                "recovery must list at least one policy",
            ),
            (
                r#"{ "kind": "sweep", "accelerators": ["J"], "recovery": ["migrate", "drop", "migrate"], "workloads": [ { "scenario": "VR Gaming" } ] }"#,
                "duplicate recovery policy `migrate`",
            ),
            (
                r#"{ "kind": "sweep", "accelerators": ["J"], "workloads": [] }"#,
                "at least one workload",
            ),
            (
                r#"{ "kind": "sweep", "accelerators": ["J"], "workloads": [ { "scenario": "VR Gaming", "scenario_seeds": [1] } ] }"#,
                "exactly one of",
            ),
            (
                r#"{ "kind": "sweep", "accelerators": ["J"], "workloads": [ { "scenario": "No Such Scenario" } ] }"#,
                "No Such Scenario",
            ),
            (
                r#"{ "kind": "sweep", "accelerators": ["J"], "base_pes": 0, "workloads": [ { "scenario": "VR Gaming" } ] }"#,
                "base_pes must be at least 1",
            ),
            (
                r#"{ "kind": "sweep", "accelerators": ["J"], "workloads": [ { "scenario": "VR Gaming" }, { "scenario": "VR Gaming" } ] }"#,
                "duplicate workload name",
            ),
        ];
        for (body, needle) in cases {
            let err = RunDocument::from_json_str(body).expect_err(body);
            assert!(
                err.to_string().contains(needle),
                "expected `{needle}` in `{err}` for {body}"
            );
        }
    }
}
