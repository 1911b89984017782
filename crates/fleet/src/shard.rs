//! The shard-plan layer: splitting a fleet across OS processes.
//!
//! A [`crate::FleetSpec`] names every device session it contains as a
//! global `(group, replica)` coordinate, and
//! [`crate::replica_seed`]`(base, group, replica)` derives each session's
//! RNG stream — and, through `fault_seed`, its outage timeline — from
//! that coordinate alone. A shard is therefore nothing more than a
//! **contiguous slice of the flat job list**, keeping the *global*
//! indices, so every session computes exactly the contribution it
//! would make to an unsharded run. No session state crosses shard
//! boundaries, so the cut cannot change any replica's identity.
//!
//! The cut balances **work**, not session counts: the scenarios differ
//! about 5× in per-user request rate (Table 2), so equal session counts
//! can mean very unequal shards. Job `j` weighs `w_j`, the exact number
//! of requests its session issues over the run
//! ([`xrbench_workload::SessionSpec::request_count`]); with `P_j` the
//! weight of the jobs before it and `W` the total, it goes to shard
//! `min(N−1, ⌊N·(2P_j + w_j) / 2W⌋)` — the shard whose share of `[0, W)`
//! holds the job's midpoint. The assignment is monotone in `j`, so
//! shards stay contiguous, and every shard's weight lies within
//! `max_j w_j` of `W/N`. A request count rather than a rate keeps
//! per-session fixed cost in the weight, which dominates short runs.
//!
//! A shard's result is a [`ShardState`]: one [`FleetAccumulator`] per
//! device group. Because the accumulator is built from integer
//! counters, fixed-point sums, histogram buckets, and min/max — all
//! exactly mergeable — shard states merge associatively and
//! commutatively into *bit-identical* fleet state for any shard count
//! ([`merge_fleet_shards`]). The wire format
//! ([`ShardState::to_json`] / [`ShardState::from_json`]) preserves
//! that exactness across a process boundary by serializing every
//! counter and fixed-point sum as a decimal-string integer (the
//! vendored JSON value is `f64`-backed, which would corrupt counters
//! past 2^53) and every `f64` min/max as its IEEE-754 bit pattern.
//!
//! The intended topology is one coordinator process fork/exec-ing one
//! child per shard (`xrbench run-fleet … --shard k/N`), collecting
//! each child's `ShardState` over a pipe, and merging — see
//! [`crate::supervise`] and `DESIGN.md`'s "shard-plan layer" section.

use std::ops::Range;

use serde::de::Cursor;
use serde::json::JsonValue;

use xrbench_models::ModelId;
use xrbench_score::FixedHistogram;
use xrbench_sim::{CostProvider, Scheduler};
use xrbench_workload::spec::{parse_json, SpecError};

use crate::accumulator::{FleetAccumulator, ModelAccumulator, ScenarioAccumulator, StatAgg};
use crate::executor::{run_jobs, FleetRunConfig};
use crate::report::{build_report, FleetReport};
use crate::spec::FleetSpec;

/// Wire-format version tag for [`ShardState`] documents. Version 2
/// names the request-weighted cut: "shard k of N" covers different
/// sessions than under version 1's session-count cut.
const SHARD_STATE_VERSION: u64 = 2;

/// One contiguous run of replicas of one device group, as assigned to
/// a shard by [`plan_shards`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPiece {
    /// Device-group index into [`FleetSpec::groups`].
    pub group: u32,
    /// First (global) replica index of the run.
    pub replica_start: u32,
    /// Number of consecutive replicas in the run (≥ 1).
    pub replica_count: u32,
}

/// A partition of a fleet's sessions into `N` shards, each a list of
/// contiguous `(group, replica-range)` pieces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    /// Piece lists, indexed by shard. A shard with more shards than
    /// sessions may legally be empty (it contributes the merge
    /// identity).
    pub shards: Vec<Vec<ShardPiece>>,
}

impl ShardPlan {
    /// Number of shards in the plan.
    pub fn num_shards(&self) -> u32 {
        self.shards.len() as u32
    }

    /// Total sessions across all pieces of all shards.
    pub fn total_sessions(&self) -> u64 {
        self.shards
            .iter()
            .flatten()
            .map(|p| u64::from(p.replica_count))
            .sum()
    }
}

/// The flat `(group, replica)` job list of a fleet, in group order —
/// the same enumeration the unsharded executor walks.
fn flat_jobs(spec: &FleetSpec) -> Vec<(u32, u32)> {
    spec.groups
        .iter()
        .enumerate()
        .flat_map(|(g, grp)| (0..grp.replicas).map(move |r| (g as u32, r)))
        .collect()
}

/// The flat-index range of every shard's jobs under the
/// request-weighted cut (see the module docs), indexed by shard.
fn shard_ranges(spec: &FleetSpec, duration_s: f64, num_shards: u32) -> Vec<Range<usize>> {
    let n = u128::from(num_shards);
    let weights: Vec<u128> = spec
        .groups
        .iter()
        .map(|g| u128::from(g.session.request_count(duration_s)))
        .collect();
    let total: u128 = spec
        .groups
        .iter()
        .zip(&weights)
        .map(|(g, &w)| w * u128::from(g.replicas))
        .sum();
    let mut sizes = vec![0usize; num_shards as usize];
    let mut prefix = 0u128;
    for (g, &w) in spec.groups.iter().zip(&weights) {
        for _ in 0..g.replicas {
            let shard = (n * (2 * prefix + w) / (2 * total).max(1)).min(n - 1);
            sizes[shard as usize] += 1;
            prefix += w;
        }
    }
    let mut start = 0;
    sizes
        .into_iter()
        .map(|size| {
            start += size;
            start - size..start
        })
        .collect()
}

/// Splits a fleet into `num_shards` shards of balanced work along
/// `(group, replica-range)` boundaries, for a run of `duration_s`
/// simulated seconds per user.
///
/// Every session appears in exactly one shard, every shard's request
/// count lies within one session's request count of an even share,
/// and replica indices stay **global** — which is what keeps
/// `replica_seed` (and every fault timeline derived from it)
/// independent of the cut. [`run_fleet_shard_with`] runs exactly the
/// sessions this plan assigns.
///
/// # Panics
///
/// Panics if the fleet is invalid or `num_shards == 0`.
pub fn plan_shards(spec: &FleetSpec, duration_s: f64, num_shards: u32) -> ShardPlan {
    spec.validate();
    assert!(num_shards > 0, "shard plan needs at least one shard");
    let jobs = flat_jobs(spec);
    let mut shards = Vec::with_capacity(num_shards as usize);
    for range in shard_ranges(spec, duration_s, num_shards) {
        let mut pieces: Vec<ShardPiece> = Vec::new();
        for &(g, r) in &jobs[range] {
            match pieces.last_mut() {
                Some(p) if p.group == g && p.replica_start + p.replica_count == r => {
                    p.replica_count += 1;
                }
                _ => pieces.push(ShardPiece {
                    group: g,
                    replica_start: r,
                    replica_count: 1,
                }),
            }
        }
        shards.push(pieces);
    }
    ShardPlan { shards }
}

/// One shard's partial fleet state: a merged [`FleetAccumulator`] per
/// device group (empty for groups the shard never touched), plus the
/// shard coordinate it was computed for.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardState {
    /// Which shard this is (`0 ≤ shard < num_shards`).
    pub shard: u32,
    /// The shard count the cut was made with.
    pub num_shards: u32,
    /// Per-group accumulators, indexed like [`FleetSpec::groups`].
    pub groups: Vec<FleetAccumulator>,
    /// The producing process's peak RSS in MiB, when it measured one
    /// (informational: excluded from equality-relevant merge state).
    pub peak_rss_mib: Option<f64>,
}

/// Runs one shard of a fleet under an explicit scheduler and returns
/// its partial state: the sessions [`plan_shards`] assigns to `shard`
/// for the run's `config.sim.duration_s`.
/// `run_fleet_shard(spec, …, 0, 1)` computes the full fleet's
/// accumulator state.
///
/// # Panics
///
/// Panics if the fleet is invalid, `shard >= num_shards`,
/// `config.workers == 0`, or the system has no engines.
pub fn run_fleet_shard_with(
    spec: &FleetSpec,
    system: &(dyn CostProvider + Sync),
    config: &FleetRunConfig,
    scheduler_factory: &(dyn Fn() -> Box<dyn Scheduler> + Sync),
    shard: u32,
    num_shards: u32,
) -> ShardState {
    spec.validate();
    assert!(
        shard < num_shards,
        "shard index {shard} out of range for {num_shards} shards"
    );
    let jobs = flat_jobs(spec);
    let range = shard_ranges(spec, config.sim.duration_s, num_shards)[shard as usize].clone();
    let groups = run_jobs(spec, system, config, scheduler_factory, &jobs[range]);
    ShardState {
        shard,
        num_shards,
        groups,
        peak_rss_mib: None,
    }
}

/// [`run_fleet_shard_with`] under the default latency-greedy
/// scheduler — the scheduler every spec-document fleet run uses.
pub fn run_fleet_shard(
    spec: &FleetSpec,
    system: &(dyn CostProvider + Sync),
    config: &FleetRunConfig,
    shard: u32,
    num_shards: u32,
) -> ShardState {
    run_fleet_shard_with(
        spec,
        system,
        config,
        &|| Box::new(xrbench_sim::LatencyGreedy::new()),
        shard,
        num_shards,
    )
}

/// Merges shard states into the final [`FleetReport`], byte-identical
/// to the unsharded run's report.
///
/// # Errors
///
/// Returns a [`SpecError`] when the states do not form a complete,
/// consistent partition: wrong shard count, a missing or duplicated
/// shard index, a group list that does not match the spec, or a group
/// whose merged session count differs from its replica count (states
/// cut for another fleet or duration).
pub fn merge_fleet_shards(
    spec: &FleetSpec,
    system_label: &str,
    scheduler_name: &str,
    states: &[ShardState],
) -> Result<FleetReport, SpecError> {
    let invalid = |message: String| SpecError::Invalid {
        path: "shard-state".to_string(),
        message,
    };
    if states.is_empty() {
        return Err(invalid("no shard states to merge".to_string()));
    }
    let n = states[0].num_shards;
    if n as usize != states.len() {
        return Err(invalid(format!(
            "expected {n} shard states, got {}",
            states.len()
        )));
    }
    let mut seen = vec![false; states.len()];
    for st in states {
        if st.num_shards != n {
            return Err(invalid(format!(
                "inconsistent shard counts: {} vs {n}",
                st.num_shards
            )));
        }
        if st.shard >= n || std::mem::replace(&mut seen[st.shard as usize], true) {
            return Err(invalid(format!(
                "shard {}/{n} missing, duplicated, or out of range",
                st.shard
            )));
        }
        if st.groups.len() != spec.groups.len() {
            return Err(invalid(format!(
                "shard {} carries {} groups, spec has {}",
                st.shard,
                st.groups.len(),
                spec.groups.len()
            )));
        }
    }
    let mut group_accs: Vec<FleetAccumulator> = vec![FleetAccumulator::new(); spec.groups.len()];
    for st in states {
        for (g, acc) in st.groups.iter().enumerate() {
            group_accs[g].merge(acc);
        }
    }
    for (group, acc) in spec.groups.iter().zip(&group_accs) {
        if acc.sessions != u64::from(group.replicas) {
            return Err(invalid(format!(
                "group `{}` merged {} sessions, the spec has {} replicas",
                group.name, acc.sessions, group.replicas
            )));
        }
    }
    let mut fleet_acc = FleetAccumulator::new();
    for g in &group_accs {
        fleet_acc.merge(g);
    }
    Ok(build_report(
        spec,
        system_label,
        scheduler_name,
        &group_accs,
        &fleet_acc,
    ))
}

// ---------------------------------------------------------------------------
// Wire format.
//
// Every integer (u64 counter, i128 fixed-point sum) is serialized as
// a decimal string — the vendored JSON tree stores numbers as f64,
// which is exact only up to 2^53 and the score sums routinely exceed
// that. The f64 min/max fields are serialized as the decimal form of
// their IEEE-754 bit pattern (`f64::to_bits`), which round-trips
// every value — including the ±inf sentinels of an empty StatAgg —
// without any decimal-formatting question marks.
// ---------------------------------------------------------------------------

fn s(v: impl ToString) -> JsonValue {
    JsonValue::Str(v.to_string())
}

fn obj(fields: Vec<(&str, JsonValue)>) -> JsonValue {
    JsonValue::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn stat_to_value(a: &StatAgg) -> JsonValue {
    obj(vec![
        ("count", s(a.count)),
        ("anomalies", s(a.anomalies)),
        ("sum_fp", s(a.sum_fp)),
        ("min_bits", s(a.min.to_bits())),
        ("max_bits", s(a.max.to_bits())),
    ])
}

fn hist_to_value(h: &FixedHistogram) -> JsonValue {
    JsonValue::Array(h.buckets().iter().map(|&c| s(c)).collect())
}

fn model_to_value(m: &ModelAccumulator) -> JsonValue {
    obj(vec![
        ("total_frames", s(m.total_frames)),
        ("executed_frames", s(m.executed_frames)),
        ("untriggered_frames", s(m.untriggered_frames)),
        ("missed_deadlines", s(m.missed_deadlines)),
        (
            "drops",
            JsonValue::Array(vec![
                s(m.drops.superseded),
                s(m.drops.upstream_dropped),
                s(m.drops.starved),
                s(m.drops.preempted),
                s(m.drops.device_lost),
            ]),
        ),
        ("latency", stat_to_value(&m.latency)),
        ("energy", stat_to_value(&m.energy)),
    ])
}

fn scenario_to_value(sc: &ScenarioAccumulator) -> JsonValue {
    obj(vec![
        ("users", s(sc.users)),
        ("overall", stat_to_value(&sc.overall)),
        ("realtime_fp", s(sc.realtime_fp)),
        ("energy_fp", s(sc.energy_fp)),
        ("accuracy_fp", s(sc.accuracy_fp)),
        ("qoe_fp", s(sc.qoe_fp)),
    ])
}

fn acc_to_value(acc: &FleetAccumulator) -> JsonValue {
    obj(vec![
        ("sessions", s(acc.sessions)),
        ("users", s(acc.users)),
        ("session_score", stat_to_value(&acc.session_score)),
        ("latency_hist", hist_to_value(&acc.latency)),
        ("overrun_hist", hist_to_value(&acc.overrun)),
        ("score_hist", hist_to_value(&acc.score)),
        (
            "per_model",
            JsonValue::Array(acc.per_model.iter().map(model_to_value).collect()),
        ),
        (
            "per_scenario",
            JsonValue::Array(
                acc.per_scenario
                    .iter()
                    .map(|(name, sc)| {
                        JsonValue::Array(vec![JsonValue::Str(name.clone()), scenario_to_value(sc)])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Parses a decimal-string integer field.
fn parse_int<T: std::str::FromStr>(cursor: &Cursor<'_>, name: &str) -> Result<T, SpecError> {
    let field = cursor.field(name)?;
    let text = field.as_str()?;
    text.parse::<T>().map_err(|_| SpecError::Invalid {
        path: field.path().to_string(),
        message: format!("not a decimal integer: `{text}`"),
    })
}

fn stat_from_value(cursor: &Cursor<'_>) -> Result<StatAgg, SpecError> {
    cursor.deny_unknown_fields(&["count", "anomalies", "sum_fp", "min_bits", "max_bits"])?;
    Ok(StatAgg {
        count: parse_int(cursor, "count")?,
        anomalies: parse_int(cursor, "anomalies")?,
        sum_fp: parse_int(cursor, "sum_fp")?,
        min: f64::from_bits(parse_int::<u64>(cursor, "min_bits")?),
        max: f64::from_bits(parse_int::<u64>(cursor, "max_bits")?),
    })
}

fn hist_from_value(cursor: &Cursor<'_>) -> Result<FixedHistogram, SpecError> {
    let mut buckets = Vec::new();
    for item in cursor.items()? {
        let text = item.as_str()?;
        buckets.push(text.parse::<u64>().map_err(|_| SpecError::Invalid {
            path: item.path().to_string(),
            message: format!("not a decimal integer: `{text}`"),
        })?);
    }
    FixedHistogram::from_buckets(&buckets).ok_or_else(|| SpecError::Invalid {
        path: cursor.path().to_string(),
        message: format!(
            "histogram needs exactly {} buckets, got {}",
            xrbench_score::NUM_BUCKETS,
            buckets.len()
        ),
    })
}

fn model_from_value(cursor: &Cursor<'_>) -> Result<ModelAccumulator, SpecError> {
    cursor.deny_unknown_fields(&[
        "total_frames",
        "executed_frames",
        "untriggered_frames",
        "missed_deadlines",
        "drops",
        "latency",
        "energy",
    ])?;
    let drops_cursor = cursor.field("drops")?;
    let drops = drops_cursor.items()?;
    if drops.len() != 5 {
        return Err(SpecError::Invalid {
            path: drops_cursor.path().to_string(),
            message: format!("drop breakdown needs 5 counters, got {}", drops.len()),
        });
    }
    let count = |i: usize| -> Result<u64, SpecError> {
        let item: &Cursor<'_> = &drops[i];
        let text = item.as_str()?;
        text.parse::<u64>().map_err(|_| SpecError::Invalid {
            path: item.path().to_string(),
            message: format!("not a decimal integer: `{text}`"),
        })
    };
    Ok(ModelAccumulator {
        total_frames: parse_int(cursor, "total_frames")?,
        executed_frames: parse_int(cursor, "executed_frames")?,
        untriggered_frames: parse_int(cursor, "untriggered_frames")?,
        missed_deadlines: parse_int(cursor, "missed_deadlines")?,
        drops: crate::accumulator::DropCounts {
            superseded: count(0)?,
            upstream_dropped: count(1)?,
            starved: count(2)?,
            preempted: count(3)?,
            device_lost: count(4)?,
        },
        latency: stat_from_value(&cursor.field("latency")?)?,
        energy: stat_from_value(&cursor.field("energy")?)?,
    })
}

fn scenario_from_value(cursor: &Cursor<'_>) -> Result<ScenarioAccumulator, SpecError> {
    cursor.deny_unknown_fields(&[
        "users",
        "overall",
        "realtime_fp",
        "energy_fp",
        "accuracy_fp",
        "qoe_fp",
    ])?;
    Ok(ScenarioAccumulator {
        users: parse_int(cursor, "users")?,
        overall: stat_from_value(&cursor.field("overall")?)?,
        realtime_fp: parse_int(cursor, "realtime_fp")?,
        energy_fp: parse_int(cursor, "energy_fp")?,
        accuracy_fp: parse_int(cursor, "accuracy_fp")?,
        qoe_fp: parse_int(cursor, "qoe_fp")?,
    })
}

fn acc_from_value(cursor: &Cursor<'_>) -> Result<FleetAccumulator, SpecError> {
    cursor.deny_unknown_fields(&[
        "sessions",
        "users",
        "session_score",
        "latency_hist",
        "overrun_hist",
        "score_hist",
        "per_model",
        "per_scenario",
    ])?;
    let mut acc = FleetAccumulator::new();
    acc.sessions = parse_int(cursor, "sessions")?;
    acc.users = parse_int(cursor, "users")?;
    acc.session_score = stat_from_value(&cursor.field("session_score")?)?;
    acc.latency = hist_from_value(&cursor.field("latency_hist")?)?;
    acc.overrun = hist_from_value(&cursor.field("overrun_hist")?)?;
    acc.score = hist_from_value(&cursor.field("score_hist")?)?;
    let models_cursor = cursor.field("per_model")?;
    let models = models_cursor.items()?;
    if models.len() != ModelId::ALL.len() {
        return Err(SpecError::Invalid {
            path: models_cursor.path().to_string(),
            message: format!(
                "per_model needs {} entries, got {}",
                ModelId::ALL.len(),
                models.len()
            ),
        });
    }
    for (slot, item) in acc.per_model.iter_mut().zip(&models) {
        *slot = model_from_value(item)?;
    }
    for pair_cursor in cursor.field("per_scenario")?.items()? {
        let pair = pair_cursor.items()?;
        if pair.len() != 2 {
            return Err(SpecError::Invalid {
                path: pair_cursor.path().to_string(),
                message: format!(
                    "scenario entry needs [name, state], got {} items",
                    pair.len()
                ),
            });
        }
        let name = pair[0].as_str()?;
        acc.per_scenario
            .insert(name.to_string(), scenario_from_value(&pair[1])?);
    }
    Ok(acc)
}

impl ShardState {
    /// Serializes this shard state as a single-line JSON document —
    /// the payload a shard child writes to its stdout pipe.
    pub fn to_json(&self) -> String {
        let mut fields = vec![
            ("xrbench_shard_state", s(SHARD_STATE_VERSION)),
            ("shard", s(self.shard)),
            ("num_shards", s(self.num_shards)),
            (
                "groups",
                JsonValue::Array(self.groups.iter().map(acc_to_value).collect()),
            ),
        ];
        if let Some(rss) = self.peak_rss_mib {
            fields.push(("peak_rss_mib", JsonValue::Num(rss)));
        }
        serde_json::to_string(&obj(fields)).expect("shard state serializes")
    }

    /// Parses a shard state back from [`ShardState::to_json`]'s
    /// output. The round trip is exact: the reconstructed accumulators
    /// compare equal to the originals, bit for bit.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] for malformed JSON, an unknown wire
    /// version, or any shape/integer problem.
    pub fn from_json(text: &str) -> Result<ShardState, SpecError> {
        let value = parse_json(text)?;
        let cursor = Cursor::root(&value);
        cursor.deny_unknown_fields(&[
            "xrbench_shard_state",
            "shard",
            "num_shards",
            "groups",
            "peak_rss_mib",
        ])?;
        let version: u64 = parse_int(&cursor, "xrbench_shard_state")?;
        if version != SHARD_STATE_VERSION {
            return Err(SpecError::Invalid {
                path: cursor.path().to_string(),
                message: format!(
                    "unsupported shard-state version {version} (this build speaks {SHARD_STATE_VERSION})"
                ),
            });
        }
        let shard: u32 = parse_int(&cursor, "shard")?;
        let num_shards: u32 = parse_int(&cursor, "num_shards")?;
        if num_shards == 0 || shard >= num_shards {
            return Err(SpecError::Invalid {
                path: cursor.path().to_string(),
                message: format!("shard coordinate {shard}/{num_shards} out of range"),
            });
        }
        let mut groups = Vec::new();
        for item in cursor.field("groups")?.items()? {
            groups.push(acc_from_value(&item)?);
        }
        let peak_rss_mib = match cursor.opt_field("peak_rss_mib")? {
            Some(f) => Some(f.as_f64()?),
            None => None,
        };
        Ok(ShardState {
            shard,
            num_shards,
            groups,
            peak_rss_mib,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::run_fleet;
    use crate::spec::replica_seed;
    use xrbench_sim::{FaultProcess, RecoveryPolicy, ThrottleSpec, UniformProvider};
    use xrbench_workload::{SessionSpec, UsageScenario};

    fn fleet() -> FleetSpec {
        FleetSpec::new("shardy")
            .group(
                "vr",
                SessionSpec::uniform("vr", UsageScenario::VrGaming.spec(), 3, 0.002),
                5,
            )
            .group_faulted(
                "churny",
                SessionSpec::uniform("soc", UsageScenario::SocialInteractionA.spec(), 2, 0.003),
                4,
                FaultProcess {
                    failure_rate_per_s: 2.0,
                    mean_downtime_s: 0.05,
                    preemption_rate_per_s: 4.0,
                    mean_preemption_s: 0.02,
                    throttle: Some(ThrottleSpec {
                        period_s: 0.25,
                        duty: 0.4,
                        factor: 0.5,
                    }),
                },
            )
    }

    fn provider() -> UniformProvider {
        UniformProvider::new(2, 0.002, 0.001)
    }

    #[test]
    fn plan_partitions_every_session_exactly_once() {
        let spec = fleet();
        let all = flat_jobs(&spec);
        for duration_s in [1e-6, 1.0] {
            let weight =
                |g: u32| u128::from(spec.groups[g as usize].session.request_count(duration_s));
            let total: u128 = all.iter().map(|&(g, _)| weight(g)).sum();
            let max_w = all.iter().map(|&(g, _)| weight(g)).max().unwrap();
            for n in [1u32, 2, 3, 7, 9, 64] {
                let plan = plan_shards(&spec, duration_s, n);
                assert_eq!(plan.num_shards(), n);
                assert_eq!(plan.total_sessions(), all.len() as u64, "n = {n}");
                // Contiguous in the flat job list, in shard order.
                let covered: Vec<(u32, u32)> = plan
                    .shards
                    .iter()
                    .flatten()
                    .flat_map(|p| {
                        (p.replica_start..p.replica_start + p.replica_count).map(|r| (p.group, r))
                    })
                    .collect();
                assert_eq!(covered, all, "n = {n}");
                // Balance: every shard's request count lies within one
                // session's request count of an even share W/N.
                for (k, pieces) in plan.shards.iter().enumerate() {
                    let w: u128 = pieces
                        .iter()
                        .map(|p| weight(p.group) * u128::from(p.replica_count))
                        .sum();
                    let n = u128::from(n);
                    assert!(
                        (w * n).abs_diff(total) <= max_w * n,
                        "n = {n}, shard {k}: weight {w} of {total}"
                    );
                }
            }
        }
    }

    #[test]
    fn shards_run_the_sessions_the_plan_assigns() {
        let spec = fleet();
        let p = provider();
        let config = FleetRunConfig {
            workers: 1,
            ..FleetRunConfig::default()
        };
        for n in [2u32, 3, 5] {
            let plan = plan_shards(&spec, config.sim.duration_s, n);
            for (k, pieces) in plan.shards.iter().enumerate() {
                let state = run_fleet_shard(&spec, &p, &config, k as u32, n);
                for (g, acc) in state.groups.iter().enumerate() {
                    let planned: u32 = pieces
                        .iter()
                        .filter(|p| p.group as usize == g)
                        .map(|p| p.replica_count)
                        .sum();
                    assert_eq!(acc.sessions, u64::from(planned), "n = {n}, shard {k}");
                }
            }
        }
    }

    #[test]
    fn cut_weighs_sessions_by_request_count() {
        // Four light 1-user sessions (36 requests/s) then one heavy
        // one (180 requests/s). Cut by session count, shard 0 would
        // get 2 light sessions and shard 1 the other 2 plus the heavy
        // one; weighed by requests, 4 light balance the heavy one.
        let one = |s: UsageScenario| SessionSpec::uniform("s", s.spec(), 1, 0.0);
        let light = one(UsageScenario::OutdoorActivityB);
        let heavy = one(UsageScenario::SocialInteractionA);
        assert_eq!(heavy.request_count(1.0), 5 * light.request_count(1.0));
        let spec = FleetSpec::new("skewed")
            .group("light", light, 4)
            .group("heavy", heavy, 1);
        let plan = plan_shards(&spec, 1.0, 2);
        assert_eq!(
            plan.shards,
            vec![
                vec![ShardPiece {
                    group: 0,
                    replica_start: 0,
                    replica_count: 4
                }],
                vec![ShardPiece {
                    group: 1,
                    replica_start: 0,
                    replica_count: 1
                }],
            ]
        );
    }

    #[test]
    fn any_shard_cut_merges_to_the_unsharded_report() {
        let spec = fleet();
        let p = provider();
        for recovery in [RecoveryPolicy::Drop, RecoveryPolicy::Migrate] {
            let config = FleetRunConfig {
                workers: 2,
                recovery,
                ..FleetRunConfig::default()
            };
            let reference = run_fleet(&spec, &p, &config);
            for n in [1u32, 2, 3, 5, 9, 16] {
                let states: Vec<ShardState> = (0..n)
                    .map(|k| run_fleet_shard(&spec, &p, &config, k, n))
                    .collect();
                let merged =
                    merge_fleet_shards(&spec, &p.label(), "latency-greedy", &states).unwrap();
                assert_eq!(merged, reference, "{recovery} n = {n}");
                assert_eq!(merged.to_json(), reference.to_json(), "{recovery} n = {n}");
            }
        }
    }

    #[test]
    fn shard_state_json_round_trips_bit_exactly() {
        let spec = fleet();
        let config = FleetRunConfig {
            workers: 2,
            ..FleetRunConfig::default()
        };
        for k in 0..3u32 {
            let mut state = run_fleet_shard(&spec, &provider(), &config, k, 3);
            state.peak_rss_mib = Some(12.5);
            let wire = state.to_json();
            let back = ShardState::from_json(&wire).unwrap();
            assert_eq!(back, state, "shard {k}");
            // And the round trip composes with the merge.
            assert_eq!(back.to_json(), wire);
        }
    }

    #[test]
    fn empty_shards_are_the_merge_identity() {
        // More shards than sessions: trailing shards run nothing but
        // still merge cleanly.
        let spec = FleetSpec::uniform(
            "tiny",
            SessionSpec::uniform("s", UsageScenario::ArAssistant.spec(), 2, 0.002),
            2,
        );
        let p = provider();
        let config = FleetRunConfig {
            workers: 1,
            ..FleetRunConfig::default()
        };
        let reference = run_fleet(&spec, &p, &config);
        let n = 5u32;
        let states: Vec<ShardState> = (0..n)
            .map(|k| {
                let state = run_fleet_shard(&spec, &p, &config, k, n);
                ShardState::from_json(&state.to_json()).unwrap()
            })
            .collect();
        assert!(states.iter().any(|s| s.groups[0].sessions == 0));
        let merged = merge_fleet_shards(&spec, &p.label(), "latency-greedy", &states).unwrap();
        assert_eq!(merged, reference);
    }

    #[test]
    fn merge_rejects_inconsistent_partitions() {
        let spec = fleet();
        let p = provider();
        let config = FleetRunConfig {
            workers: 1,
            ..FleetRunConfig::default()
        };
        let s0 = run_fleet_shard(&spec, &p, &config, 0, 2);
        let s1 = run_fleet_shard(&spec, &p, &config, 1, 2);
        // Duplicated shard index.
        assert!(
            merge_fleet_shards(&spec, "u", "latency-greedy", &[s0.clone(), s0.clone()]).is_err()
        );
        // Wrong cardinality.
        assert!(
            merge_fleet_shards(&spec, "u", "latency-greedy", std::slice::from_ref(&s0)).is_err()
        );
        // Empty input.
        assert!(merge_fleet_shards(&spec, "u", "latency-greedy", &[]).is_err());
        // Group count mismatch.
        let mut truncated = s1.clone();
        truncated.groups.pop();
        assert!(merge_fleet_shards(&spec, "u", "latency-greedy", &[s0, truncated]).is_err());
    }

    #[test]
    fn wire_format_rejects_garbage() {
        assert!(ShardState::from_json("not json").is_err());
        assert!(ShardState::from_json("{}").is_err());
        assert!(ShardState::from_json(
            "{\"xrbench_shard_state\":\"9\",\"shard\":\"0\",\"num_shards\":\"1\",\"groups\":[]}"
        )
        .is_err());
        assert!(ShardState::from_json(
            "{\"xrbench_shard_state\":\"2\",\"shard\":\"3\",\"num_shards\":\"2\",\"groups\":[]}"
        )
        .is_err());
    }

    #[test]
    fn version_1_states_are_refused() {
        // Version 1 cut fleets by session count, so its "shard k of N"
        // names other sessions than this build's.
        let config = FleetRunConfig {
            workers: 1,
            ..FleetRunConfig::default()
        };
        let wire = run_fleet_shard(&fleet(), &provider(), &config, 0, 2).to_json();
        let v1 = wire.replacen(
            "\"xrbench_shard_state\":\"2\"",
            "\"xrbench_shard_state\":\"1\"",
            1,
        );
        assert_ne!(v1, wire);
        let err = ShardState::from_json(&v1).unwrap_err();
        assert!(err.to_string().contains("version 1"), "{err}");
    }

    #[test]
    fn merge_rejects_states_cut_for_another_duration() {
        // Shards 0 and 1 of a 1 µs cut and shard 2 of a 1 s cut form
        // a complete envelope set but not a partition of the sessions.
        let spec = fleet();
        let p = provider();
        let config = |duration_s| FleetRunConfig {
            workers: 1,
            sim: xrbench_sim::SimConfig {
                duration_s,
                ..FleetRunConfig::default().sim
            },
            ..FleetRunConfig::default()
        };
        let (short, long) = (plan_shards(&spec, 1e-6, 3), plan_shards(&spec, 1.0, 3));
        assert_ne!(short.shards[2], long.shards[2], "the two cuts must differ");
        let states = [
            run_fleet_shard(&spec, &p, &config(1e-6), 0, 3),
            run_fleet_shard(&spec, &p, &config(1e-6), 1, 3),
            run_fleet_shard(&spec, &p, &config(1.0), 2, 3),
        ];
        let err = merge_fleet_shards(&spec, "u", "latency-greedy", &states).unwrap_err();
        assert!(err.to_string().contains("sessions"), "{err}");
    }

    #[test]
    fn seed_derivation_is_shard_invariant() {
        // The property the whole layer leans on, stated directly: the
        // seed of (g, r) never mentions the shard cut.
        let base = 0xDEAD_BEEF;
        for &(g, r) in &[(0u32, 0u32), (0, 7), (3, 11)] {
            let direct = replica_seed(base, g, r);
            // However the job list is sliced, the seed is a pure
            // function of the global coordinate.
            assert_eq!(direct, replica_seed(base, g, r));
        }
    }
}
