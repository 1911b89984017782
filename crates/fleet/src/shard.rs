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
//! The cut itself is [`cut`], a function over a list of weights that
//! sweeps share at weight 1 per point.
//!
//! A shard's result is a [`ShardState`]: one [`FleetAccumulator`] per
//! device group. Because the accumulator is built from integer
//! counters, fixed-point sums, histogram buckets, and min/max — all
//! exactly mergeable — shard states merge associatively and
//! commutatively into *bit-identical* fleet state for any shard count
//! ([`merge_fleet_shards`]). A state travels as a [`crate::wire`]
//! envelope ([`ShardState::to_json`] / [`ShardState::from_json`]),
//! which keeps that exactness across a process boundary and stamps the
//! state with the [`fleet_fingerprint`] of its run, so a merge refuses
//! states of another seed, duration, system or fleet; every merge runs
//! the one [`check_partition`].
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
use xrbench_sim::{CostProvider, DropCounts, ModelStats, Scheduler};
use xrbench_workload::spec::SpecError;

use crate::accumulator::{FleetAccumulator, ModelAccumulator, ScenarioAccumulator, StatAgg};
use crate::executor::{flat_jobs, run_jobs, FleetRunConfig};
use crate::report::{build_report, FleetReport};
use crate::spec::FleetSpec;
use crate::wire::{self, float, int, obj, parse_float, parse_int, Header, Kind};

/// The [`ShardState`] envelope. Version 3 adds the document
/// fingerprint; version 2 named the request-weighted cut, under which
/// "shard k of N" covers other sessions than under version 1's
/// session-count cut.
const FLEET_STATE: Kind = Kind {
    tag: "xrbench_shard_state",
    version: 3,
    sharded: true,
};

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

/// Cuts a list of weighted items into `num_shards` contiguous index
/// ranges of balanced weight, indexed by shard: item `j` of weight
/// `w_j`, with `P_j` the weight before it and `W` the total, goes to
/// shard `min(N−1, ⌊N·(2P_j + w_j) / 2W⌋)`, the shard whose share of
/// `[0, W)` holds the item's midpoint. The rule is monotone in `j`, so
/// the ranges are contiguous, in order, and partition the list; every
/// shard's weight lies within `max_j w_j` of `W/N`. With unit weights
/// shard `k` holds about `P/N` items.
///
/// # Panics
///
/// Panics if `num_shards == 0`.
pub fn cut(weights: &[u128], num_shards: u32) -> Vec<Range<usize>> {
    assert!(num_shards > 0, "a cut needs at least one shard");
    let n = u128::from(num_shards);
    let total: u128 = weights.iter().sum();
    let mut sizes = vec![0usize; num_shards as usize];
    let mut prefix = 0u128;
    for &w in weights {
        let shard = (n * (2 * prefix + w) / (2 * total).max(1)).min(n - 1);
        sizes[shard as usize] += 1;
        prefix += w;
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

/// The flat-index range of every shard's jobs, each job weighed by its
/// session's request count (see the module docs), indexed by shard.
fn shard_ranges(spec: &FleetSpec, duration_s: f64, num_shards: u32) -> Vec<Range<usize>> {
    let weights: Vec<u128> = spec
        .groups
        .iter()
        .flat_map(|g| {
            let w = u128::from(g.session.request_count(duration_s));
            (0..g.replicas).map(move |_| w)
        })
        .collect();
    cut(&weights, num_shards)
}

/// The partition check every shard merge runs, on each state's
/// `(shard, num_shards, fingerprint)`: exactly `N` states, each shard
/// index once, one shard count and one fingerprint — `expected` when
/// the caller knows its document's, else the first state's.
///
/// # Errors
///
/// Returns a [`SpecError`] naming the first offending shard.
pub fn check_partition(
    states: impl IntoIterator<Item = (u32, u32, u64)>,
    expected: Option<u64>,
) -> Result<(), SpecError> {
    let states: Vec<(u32, u32, u64)> = states.into_iter().collect();
    let invalid = |message: String| SpecError::Invalid {
        path: "shard-states".to_string(),
        message,
    };
    let Some(&(first, n, first_fingerprint)) = states.first() else {
        return Err(invalid("no shard states to merge".to_string()));
    };
    if states.len() as u64 != u64::from(n) {
        return Err(invalid(format!(
            "expected {n} shard states, got {}",
            states.len()
        )));
    }
    let fingerprint = expected.unwrap_or(first_fingerprint);
    let mut seen = vec![false; states.len()];
    for &(shard, num_shards, state_fingerprint) in &states {
        if num_shards != n {
            return Err(invalid(format!(
                "shard {shard} was cut into {num_shards} shards, shard {first} into {n}"
            )));
        }
        if shard >= n || std::mem::replace(&mut seen[shard as usize], true) {
            return Err(invalid(format!(
                "shard {shard}/{n} is duplicated or out of range"
            )));
        }
        if state_fingerprint != fingerprint {
            return Err(invalid(format!(
                "shard {shard} was computed for a different document (fingerprint mismatch)"
            )));
        }
    }
    Ok(())
}

/// The fingerprint of everything a fleet report depends on: the fleet
/// spec, the system, the scheduler, the seed, the duration, the
/// recovery policy and the score parameters. The worker count is left
/// out: it never changes a report.
pub fn fleet_fingerprint(
    spec: &FleetSpec,
    system_label: &str,
    scheduler_name: &str,
    config: &FleetRunConfig,
) -> u64 {
    let text = [
        crate::fleet_to_json(spec),
        system_label.to_string(),
        scheduler_name.to_string(),
        config.sim.seed.to_string(),
        config.sim.duration_s.to_bits().to_string(),
        config.recovery.as_str().to_string(),
        config.rt.k_per_ms.to_bits().to_string(),
        config.energy.emax_j.to_bits().to_string(),
        config.accuracy.epsilon.to_bits().to_string(),
    ]
    .join("\x1f");
    wire::fnv1a64(text.as_bytes())
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
/// shard coordinate and the fingerprint of the run it was computed
/// for.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardState {
    /// Which shard this is (`0 ≤ shard < num_shards`).
    pub shard: u32,
    /// The shard count the cut was made with.
    pub num_shards: u32,
    /// [`fleet_fingerprint`] of the run that produced this state.
    pub fingerprint: u64,
    /// Per-group accumulators, indexed like [`FleetSpec::groups`].
    pub groups: Vec<FleetAccumulator>,
    /// The producing process's peak RSS in MiB, when it measured one
    /// (informational: excluded from equality-relevant merge state).
    pub peak_rss_mib: Option<f64>,
}

/// Runs one shard of a fleet under an explicit scheduler and returns
/// its partial state: the sessions [`plan_shards`] assigns to `shard`
/// for the run's `config.sim.duration_s`, stamped with the run's
/// [`fleet_fingerprint`].
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
        fingerprint: fleet_fingerprint(spec, &system.label(), scheduler_factory().name(), config),
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
/// consistent partition ([`check_partition`]: wrong shard count, a
/// missing or duplicated shard index, states of different runs), a
/// group list that does not match the spec, a merge whose counters or
/// fixed-point sums would overflow their integer types (every decoded
/// state merges with checked adds), or a group whose merged session
/// count differs from its replica count.
pub fn merge_fleet_shards(
    spec: &FleetSpec,
    system_label: &str,
    scheduler_name: &str,
    states: &[ShardState],
) -> Result<FleetReport, SpecError> {
    check_partition(
        states
            .iter()
            .map(|s| (s.shard, s.num_shards, s.fingerprint)),
        None,
    )?;
    let invalid = |message: String| SpecError::Invalid {
        path: "shard-states".to_string(),
        message,
    };
    let mut group_accs: Vec<FleetAccumulator> = vec![FleetAccumulator::new(); spec.groups.len()];
    for st in states {
        if st.groups.len() != spec.groups.len() {
            return Err(invalid(format!(
                "shard {} carries {} groups, spec has {}",
                st.shard,
                st.groups.len(),
                spec.groups.len()
            )));
        }
        for ((merged, acc), group) in group_accs.iter_mut().zip(&st.groups).zip(&spec.groups) {
            merged.checked_merge(acc).ok_or_else(|| {
                invalid(format!(
                    "shard {}: merging group `{}` overflows a counter or fixed-point sum",
                    st.shard, group.name
                ))
            })?;
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
    for (acc, group) in group_accs.iter().zip(&spec.groups) {
        fleet_acc.checked_merge(acc).ok_or_else(|| {
            invalid(format!(
                "adding group `{}` to the fleet total overflows a counter or fixed-point sum",
                group.name
            ))
        })?;
    }
    Ok(build_report(
        spec,
        system_label,
        scheduler_name,
        &group_accs,
        &fleet_acc,
    ))
}

// The body of a fleet state envelope: `{"groups": [...]}`, plus the
// producer's `peak_rss_mib` as a plain JSON number when measured —
// informational, never merged, and left as a number so tools can scan
// the compact child output for it.

fn stat_to_value(a: &StatAgg) -> JsonValue {
    obj(vec![
        ("count", int(a.count)),
        ("anomalies", int(a.anomalies)),
        ("sum_fp", int(a.sum_fp)),
        ("min_bits", float(a.min)),
        ("max_bits", float(a.max)),
    ])
}

fn ints_to_value(values: &[u64]) -> JsonValue {
    JsonValue::Array(values.iter().map(|&v| int(v)).collect())
}

fn model_to_value(m: &ModelAccumulator) -> JsonValue {
    let (f, d) = (&m.frames, &m.frames.drops);
    obj(vec![
        ("total_frames", int(f.total_frames)),
        ("executed_frames", int(f.executed_frames)),
        ("untriggered_frames", int(f.untriggered_frames)),
        ("missed_deadlines", int(f.missed_deadlines)),
        (
            "drops",
            ints_to_value(&[
                d.superseded,
                d.upstream_dropped,
                d.starved,
                d.preempted,
                d.device_lost,
            ]),
        ),
        ("latency", stat_to_value(&m.latency)),
        ("energy", stat_to_value(&m.energy)),
    ])
}

fn scenario_to_value(sc: &ScenarioAccumulator) -> JsonValue {
    obj(vec![
        ("users", int(sc.users)),
        ("overall", stat_to_value(&sc.overall)),
        ("realtime_fp", int(sc.realtime_fp)),
        ("energy_fp", int(sc.energy_fp)),
        ("accuracy_fp", int(sc.accuracy_fp)),
        ("qoe_fp", int(sc.qoe_fp)),
    ])
}

fn acc_to_value(acc: &FleetAccumulator) -> JsonValue {
    obj(vec![
        ("sessions", int(acc.sessions)),
        ("users", int(acc.users)),
        ("session_score", stat_to_value(&acc.session_score)),
        ("latency_hist", ints_to_value(acc.latency.buckets())),
        ("overrun_hist", ints_to_value(acc.overrun.buckets())),
        ("score_hist", ints_to_value(acc.score.buckets())),
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

/// The items of an array, which must hold exactly `len` of them.
fn exact_items<'a>(cursor: &Cursor<'a>, len: usize) -> Result<Vec<Cursor<'a>>, SpecError> {
    let items = cursor.items()?;
    if items.len() != len {
        return Err(SpecError::Invalid {
            path: cursor.path().to_string(),
            message: format!("expected {len} entries, got {}", items.len()),
        });
    }
    Ok(items)
}

fn ints_from_value(cursor: &Cursor<'_>, len: usize) -> Result<Vec<u64>, SpecError> {
    exact_items(cursor, len)?.iter().map(parse_int).collect()
}

fn stat_from_value(c: &Cursor<'_>) -> Result<StatAgg, SpecError> {
    c.deny_unknown_fields(&["count", "anomalies", "sum_fp", "min_bits", "max_bits"])?;
    Ok(StatAgg {
        count: parse_int(&c.field("count")?)?,
        anomalies: parse_int(&c.field("anomalies")?)?,
        sum_fp: parse_int(&c.field("sum_fp")?)?,
        min: parse_float(&c.field("min_bits")?)?,
        max: parse_float(&c.field("max_bits")?)?,
    })
}

fn hist_from_value(c: &Cursor<'_>) -> Result<FixedHistogram, SpecError> {
    let buckets = ints_from_value(c, xrbench_score::NUM_BUCKETS)?;
    // The bucket count was checked, so only an overflowing total is left.
    FixedHistogram::from_buckets(&buckets).ok_or_else(|| SpecError::Invalid {
        path: c.path().to_string(),
        message: "histogram total overflows a u64".to_string(),
    })
}

fn model_from_value(c: &Cursor<'_>) -> Result<ModelAccumulator, SpecError> {
    c.deny_unknown_fields(&[
        "total_frames",
        "executed_frames",
        "untriggered_frames",
        "missed_deadlines",
        "drops",
        "latency",
        "energy",
    ])?;
    let [superseded, upstream_dropped, starved, preempted, device_lost] =
        ints_from_value(&c.field("drops")?, 5)?[..]
    else {
        unreachable!("exactly 5 drop counters were read")
    };
    Ok(ModelAccumulator {
        frames: ModelStats {
            total_frames: parse_int(&c.field("total_frames")?)?,
            executed_frames: parse_int(&c.field("executed_frames")?)?,
            untriggered_frames: parse_int(&c.field("untriggered_frames")?)?,
            missed_deadlines: parse_int(&c.field("missed_deadlines")?)?,
            drops: DropCounts {
                superseded,
                upstream_dropped,
                starved,
                preempted,
                device_lost,
            },
        },
        latency: stat_from_value(&c.field("latency")?)?,
        energy: stat_from_value(&c.field("energy")?)?,
    })
}

fn scenario_from_value(c: &Cursor<'_>) -> Result<ScenarioAccumulator, SpecError> {
    c.deny_unknown_fields(&[
        "users",
        "overall",
        "realtime_fp",
        "energy_fp",
        "accuracy_fp",
        "qoe_fp",
    ])?;
    Ok(ScenarioAccumulator {
        users: parse_int(&c.field("users")?)?,
        overall: stat_from_value(&c.field("overall")?)?,
        realtime_fp: parse_int(&c.field("realtime_fp")?)?,
        energy_fp: parse_int(&c.field("energy_fp")?)?,
        accuracy_fp: parse_int(&c.field("accuracy_fp")?)?,
        qoe_fp: parse_int(&c.field("qoe_fp")?)?,
    })
}

fn acc_from_value(c: &Cursor<'_>) -> Result<FleetAccumulator, SpecError> {
    c.deny_unknown_fields(&[
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
    acc.sessions = parse_int(&c.field("sessions")?)?;
    acc.users = parse_int(&c.field("users")?)?;
    acc.session_score = stat_from_value(&c.field("session_score")?)?;
    acc.latency = hist_from_value(&c.field("latency_hist")?)?;
    acc.overrun = hist_from_value(&c.field("overrun_hist")?)?;
    acc.score = hist_from_value(&c.field("score_hist")?)?;
    let models = exact_items(&c.field("per_model")?, ModelId::ALL.len())?;
    for (slot, item) in acc.per_model.iter_mut().zip(&models) {
        *slot = model_from_value(item)?;
    }
    for pair in c.field("per_scenario")?.items()? {
        let [name, state] = &exact_items(&pair, 2)?[..] else {
            unreachable!("exactly 2 entries were read")
        };
        acc.per_scenario
            .insert(name.as_str()?.to_string(), scenario_from_value(state)?);
    }
    Ok(acc)
}

impl ShardState {
    /// Serializes this shard state as a single-line JSON envelope —
    /// the payload a shard child writes to its stdout pipe.
    pub fn to_json(&self) -> String {
        let mut body = vec![(
            "groups",
            JsonValue::Array(self.groups.iter().map(acc_to_value).collect()),
        )];
        if let Some(rss) = self.peak_rss_mib {
            body.push(("peak_rss_mib", JsonValue::Num(rss)));
        }
        let header = Header {
            fingerprint: self.fingerprint,
            shard: Some((self.shard, self.num_shards)),
        };
        wire::encode(&FLEET_STATE, &header, obj(body))
    }

    /// Parses a shard state back from [`ShardState::to_json`]'s
    /// output. The round trip is exact: the reconstructed accumulators
    /// compare equal to the originals, bit for bit.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] for malformed JSON, an envelope of
    /// another kind or version, or any shape/integer problem.
    pub fn from_json(text: &str) -> Result<ShardState, SpecError> {
        let (header, (groups, peak_rss_mib)) = wire::decode(&FLEET_STATE, text, |body| {
            body.deny_unknown_fields(&["groups", "peak_rss_mib"])?;
            let groups = body.field("groups")?.items()?;
            let groups = groups
                .iter()
                .map(acc_from_value)
                .collect::<Result<_, _>>()?;
            let rss = body.opt_field("peak_rss_mib")?;
            Ok((groups, rss.map(|c| c.as_f64()).transpose()?))
        })?;
        let (shard, num_shards) = header.shard.expect("fleet states are sharded");
        Ok(ShardState {
            shard,
            num_shards,
            fingerprint: header.fingerprint,
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
            "{\"xrbench_shard_state\":\"9\",\"fingerprint\":\"0\",\"shard\":\"0\",\
             \"num_shards\":\"1\",\"body\":{\"groups\":[]}}"
        )
        .is_err());
        assert!(ShardState::from_json(
            "{\"xrbench_shard_state\":\"3\",\"fingerprint\":\"0\",\"shard\":\"3\",\
             \"num_shards\":\"2\",\"body\":{\"groups\":[]}}"
        )
        .is_err());
        // Bucket counts whose total overflows are refused, not summed.
        let config = FleetRunConfig {
            workers: 1,
            ..FleetRunConfig::default()
        };
        let wire = run_fleet_shard(&fleet(), &provider(), &config, 0, 1).to_json();
        let at = wire.find("\"latency_hist\":[").unwrap() + "\"latency_hist\":[".len();
        let second_comma = wire[at..].match_indices(',').nth(1).unwrap().0;
        let forged = format!(
            "{}\"{}\",\"1\"{}",
            &wire[..at],
            u64::MAX,
            &wire[at + second_comma..]
        );
        let err = ShardState::from_json(&forged).unwrap_err();
        assert!(err.to_string().contains("overflows"), "{err}");
    }

    #[test]
    fn version_1_states_are_refused() {
        // Version 1 cut fleets by session count, so its "shard k of N"
        // names other sessions than this build's; version 2 carried no
        // fingerprint, so it could not say which run it came from.
        let config = FleetRunConfig {
            workers: 1,
            ..FleetRunConfig::default()
        };
        let wire = run_fleet_shard(&fleet(), &provider(), &config, 0, 2).to_json();
        for old in ["1", "2"] {
            let stale = wire.replacen(
                "\"xrbench_shard_state\":\"3\"",
                &format!("\"xrbench_shard_state\":\"{old}\""),
                1,
            );
            assert_ne!(stale, wire);
            let err = ShardState::from_json(&stale).unwrap_err().to_string();
            assert!(err.contains(&format!("version {old}")), "{err}");
            assert!(err.contains("speaks version 3"), "{err}");
        }
    }

    #[test]
    fn unit_weight_cut_puts_the_long_shard_mid_list() {
        let sizes = |p: usize, n: u32| -> Vec<usize> {
            cut(&vec![1; p], n).iter().map(|r| r.len()).collect()
        };
        assert_eq!(sizes(96, 5), [19, 19, 20, 19, 19]);
        assert_eq!(sizes(96, 4), [24; 4]);
        assert_eq!(sizes(3, 5), [1, 0, 1, 0, 1]);
        assert_eq!(sizes(0, 2), [0, 0]);
    }

    #[test]
    fn merge_refuses_states_of_different_runs() {
        // Shard 0 under one seed and shard 1 under another form a
        // complete partition of the sessions, but not of one run.
        let spec = fleet();
        let p = provider();
        let config = |seed| FleetRunConfig {
            workers: 1,
            sim: xrbench_sim::SimConfig {
                seed,
                ..FleetRunConfig::default().sim
            },
            ..FleetRunConfig::default()
        };
        let states = [
            run_fleet_shard(&spec, &p, &config(1), 0, 2),
            run_fleet_shard(&spec, &p, &config(2), 1, 2),
        ];
        let err = merge_fleet_shards(&spec, "u", "latency-greedy", &states).unwrap_err();
        assert!(err.to_string().contains("shard 1"), "{err}");
        assert!(err.to_string().contains("fingerprint mismatch"), "{err}");
        // Every input the report depends on moves the fingerprint; the
        // worker count does not.
        let base = config(1);
        let fp = |c: &FleetRunConfig| fleet_fingerprint(&spec, "u", "latency-greedy", c);
        assert_eq!(fp(&FleetRunConfig { workers: 7, ..base }), fp(&base));
        for other in [
            config(2),
            FleetRunConfig {
                recovery: RecoveryPolicy::Migrate,
                ..base
            },
            FleetRunConfig {
                rt: xrbench_score::RtParams { k_per_ms: 1.0 },
                ..base
            },
        ] {
            assert_ne!(fp(&other), fp(&base));
        }
        assert_ne!(
            fleet_fingerprint(&spec, "u", "round-robin", &base),
            fp(&base)
        );
        assert_ne!(
            fleet_fingerprint(&spec, "v", "latency-greedy", &base),
            fp(&base)
        );
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
        let mut states = [
            run_fleet_shard(&spec, &p, &config(1e-6), 0, 3),
            run_fleet_shard(&spec, &p, &config(1e-6), 1, 3),
            run_fleet_shard(&spec, &p, &config(1.0), 2, 3),
        ];
        // The duration is part of the fingerprint, so the merge refuses
        // the mix outright; with the fingerprint forged to match, the
        // per-group session count still catches the bad partition.
        let err = merge_fleet_shards(&spec, "u", "latency-greedy", &states).unwrap_err();
        assert!(err.to_string().contains("fingerprint mismatch"), "{err}");
        states[2].fingerprint = states[0].fingerprint;
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
