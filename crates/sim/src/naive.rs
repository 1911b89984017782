//! The reference event loop: the simulator's single differential
//! oracle for fault-free and faulted runs, and the `perf_gate`
//! before/after measurement.
//!
//! This began as the simulator's original `run_tagged` and has grown
//! the production loop's full contract — both [`RecordMode`]s and
//! optional fault injection (down, up and capacity events under every
//! [`RecoveryPolicy`]) — without giving up its style: it re-sorts the
//! dispatch list on every iteration, linearly scans the whole waiting
//! set per event, rescans every engine and rebuilds the scheduler's
//! [`PendingView`] slice per pick, looks up in-flight work by scanning,
//! and never retires resolved entries. Every step is written to be
//! read against the semantics, not to be fast. The production engine
//! (`crate::engine`) must produce **bit-identical** results;
//! `tests/runtime_properties.rs` proves it on randomized fault-free
//! and faulted sessions and `crates/bench/src/bin/perf_gate.rs`
//! measures the speedup.
//!
//! Within one instant the loop applies, in order: due completions,
//! due fault events, due arrivals, the waiting-dependent scan, and
//! dispatch. Due completions drain in the total order `(t, user index,
//! model, sensor frame, dispatch token)`.
//!
//! The loop is compiled into the crate rather than gated behind
//! `#[cfg(test)]` because the differential property tests and the perf
//! gate live outside this crate. They reach it through the
//! `#[doc(hidden)]` `Simulator::run_*_reference` entry points, which
//! are not part of the supported API.

use std::cmp::Ordering;
use std::collections::BTreeMap;

use xrbench_models::ModelId;
use xrbench_workload::ScenarioSpec;

use crate::engine::{FaultCtx, RecordMode};
use crate::fault::{FaultAction, FaultKind, RecoveryPolicy};
use crate::provider::CostProvider;
use crate::result::{DropReason, ExecRecord, ModelStats, SimResult};
use crate::scheduler::{PendingView, Scheduler};
use crate::simulator::{trigger_all, Pending, Resolution, SimConfig, EPS};

/// A queued frame and the fraction of its work still to run: 1.0 for
/// fresh frames, less for work migrated off a lost engine.
type Queued = (Pending, f64);

/// One dispatch, listed from its start until its scheduled end.
struct Dispatch {
    p: Pending,
    /// Index of `p.user` in the run's user list.
    user_idx: usize,
    engine: usize,
    token: u64,
    t_start: f64,
    t_end: f64,
    /// The remaining-work fraction this dispatch carried.
    frac: f64,
    energy_j: f64,
    /// Revoked by its engine going down: it still occupies the list
    /// (and the next-event times) until `t_end`, but emits nothing.
    revoked: bool,
}

/// The total order due completions drain in.
fn completion_order(a: &Dispatch, b: &Dispatch) -> Ordering {
    a.t_end
        .total_cmp(&b.t_end)
        .then(a.user_idx.cmp(&b.user_idx))
        .then((a.p.req.model as usize).cmp(&(b.p.req.model as usize)))
        .then(a.p.req.sensor_frame.cmp(&b.p.req.sensor_frame))
        .then(a.token.cmp(&b.token))
}

/// The O(n²) event loop over user-tagged requests (`requests` must be
/// sorted by `t_req`), with the production loop's signature: records
/// are collected or folded per `mode`, and `faults` optionally injects
/// an engine event timeline. Returns one [`SimResult`] per user.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_tagged_naive(
    config: SimConfig,
    specs: &[(u32, &ScenarioSpec)],
    requests: Vec<Pending>,
    provider: &dyn CostProvider,
    scheduler: &mut dyn Scheduler,
    duration_s: f64,
    mut mode: RecordMode<'_>,
    faults: Option<FaultCtx<'_>>,
) -> BTreeMap<u32, SimResult> {
    assert!(provider.num_engines() > 0, "provider must expose engines");

    type Key = (u32, ModelId);
    let deps: BTreeMap<Key, Vec<(ModelId, f64)>> = specs
        .iter()
        .flat_map(|&(user, spec)| {
            spec.models.iter().map(move |m| {
                (
                    (user, m.model),
                    m.deps
                        .iter()
                        .map(|d| (d.upstream, d.trigger_probability))
                        .collect(),
                )
            })
        })
        .collect();

    let mut stats: BTreeMap<Key, ModelStats> = specs
        .iter()
        .flat_map(|&(user, spec)| {
            spec.models
                .iter()
                .map(move |m| ((user, m.model), ModelStats::default()))
        })
        .collect();
    let user_idx: BTreeMap<u32, usize> = specs
        .iter()
        .enumerate()
        .map(|(i, &(user, _))| (user, i))
        .collect();

    // Runtime data structures.
    let num_engines = provider.num_engines();
    let mut engine_free_at = vec![0.0_f64; num_engines];
    let mut engine_up = vec![true; num_engines];
    let mut capacity = vec![1.0_f64; num_engines];
    // A fault-free run has no events, so its policy is never read.
    let (fault_events, policy) = match &faults {
        Some(f) => (f.timeline.events(), f.policy),
        None => (&[][..], RecoveryPolicy::Drop),
    };
    let mut next_fault = 0;
    let mut ready: Vec<Queued> = Vec::new();
    // (user, upstream model, sensor frame) -> resolution.
    let mut resolved: BTreeMap<(u32, ModelId, u64), Resolution> = BTreeMap::new();
    // Dependents that arrived before their upstream resolved.
    let mut waiting: Vec<Queued> = Vec::new();
    // Every dispatch whose scheduled end has not been processed yet.
    let mut dispatches: Vec<Dispatch> = Vec::new();
    let mut next_token = 0u64;
    let mut records: BTreeMap<u32, Vec<ExecRecord>> =
        specs.iter().map(|&(user, _)| (user, Vec::new())).collect();

    let mut arrivals = requests.into_iter().peekable();
    let mut now = 0.0_f64;

    loop {
        // 1. Process completions due now (resolve dependents). Faulted
        //    runs emit stats and records here, since until now a fault
        //    could still revoke the work.
        dispatches.sort_by(completion_order);
        while dispatches.first().is_some_and(|d| d.t_end <= now + EPS) {
            let d = dispatches.remove(0);
            if d.revoked {
                continue;
            }
            resolved.insert(
                (d.p.user, d.p.req.model, d.p.req.sensor_frame),
                Resolution::Completed,
            );
            if faults.is_some() {
                emit(&d, &mut stats, &mut records, &mut mode);
            }
        }

        // 2. Apply fault events due now.
        while fault_events
            .get(next_fault)
            .is_some_and(|ev| ev.t <= now + EPS)
        {
            let ev = fault_events[next_fault];
            next_fault += 1;
            let engine = ev.engine as usize;
            if engine >= num_engines {
                continue;
            }
            match ev.action {
                FaultAction::Down(kind) => {
                    if !engine_up[engine] {
                        continue;
                    }
                    engine_up[engine] = false;
                    // Whatever ran there is gone: a later Up frees it.
                    engine_free_at[engine] = now;
                    scheduler.on_engine_down(engine, now);
                    let Some(d) = dispatches
                        .iter_mut()
                        .find(|d| d.engine == engine && !d.revoked && d.t_end > now + EPS)
                    else {
                        continue;
                    };
                    d.revoked = true;
                    let key = (d.p.user, d.p.req.model);
                    match policy {
                        RecoveryPolicy::Drop => {
                            let reason = match kind {
                                FaultKind::Failure => DropReason::DeviceLost,
                                FaultKind::Preemption => DropReason::Preempted,
                            };
                            stats.entry(key).or_default().record_drop(reason);
                            // Dependents see the same Dropped resolution
                            // an untriggered frame leaves behind.
                            resolved
                                .insert((key.0, key.1, d.p.req.sensor_frame), Resolution::Dropped);
                        }
                        RecoveryPolicy::Requeue | RecoveryPolicy::Migrate => {
                            if ready.iter().any(|(q, _)| (q.user, q.req.model) == key) {
                                // A newer frame is already queued:
                                // freshness drops the revoked one.
                                stats
                                    .entry(key)
                                    .or_default()
                                    .record_drop(DropReason::Superseded);
                            } else {
                                let frac = if policy == RecoveryPolicy::Migrate {
                                    ((d.t_end - now) / (d.t_end - d.t_start)).clamp(0.0, 1.0)
                                        * d.frac
                                } else {
                                    1.0
                                };
                                ready.push((d.p.clone(), frac));
                            }
                        }
                    }
                }
                FaultAction::Up => engine_up[engine] = true,
                FaultAction::Capacity(c) => capacity[engine] = c,
            }
        }

        // 3. Ingest arrivals due now.
        while arrivals.peek().is_some_and(|p| p.req.t_req <= now + EPS) {
            let p = arrivals.next().expect("peeked");
            let key = (p.user, p.req.model);
            stats.entry(key).or_default().total_frames += 1;
            if deps.get(&key).is_some_and(|d| !d.is_empty()) {
                // Freshness: a newer dependent frame supersedes an
                // older one still waiting for its upstream.
                drop_older(&mut waiting, &p, &mut stats);
                waiting.push((p, 1.0));
            } else {
                drop_older(&mut ready, &p, &mut stats);
                ready.push((p, 1.0));
            }
        }

        // 4. Resolve waiting dependents whose upstream is decided.
        let mut i = 0;
        while i < waiting.len() {
            let user = waiting[i].0.user;
            let model = waiting[i].0.req.model;
            let sf = waiting[i].0.req.sensor_frame;
            let dep_list = &deps[&(user, model)];
            let all = dep_list
                .iter()
                .map(|(up, _)| resolved.get(&(user, *up, sf)).copied())
                .collect::<Option<Vec<_>>>();
            match all {
                None => {
                    i += 1; // upstream still in flight
                }
                Some(res) => {
                    let (p, _) = waiting.remove(i);
                    if res.contains(&Resolution::Dropped) {
                        let st = stats.entry((user, model)).or_default();
                        st.record_drop(DropReason::UpstreamDropped);
                    } else if trigger_all(config.seed, user, &p.req, dep_list) {
                        drop_older(&mut ready, &p, &mut stats);
                        ready.push((p, 1.0));
                    } else {
                        // Legitimately deactivated: not streamed
                        // work for QoE purposes.
                        let st = stats.entry((user, model)).or_default();
                        st.untriggered_frames += 1;
                        st.total_frames -= 1;
                        resolved.insert((user, model, sf), Resolution::Dropped);
                    }
                }
            }
        }

        // 5. Dispatch ready requests onto free engines.
        loop {
            let free: Vec<usize> = (0..num_engines)
                .filter(|&e| engine_up[e] && engine_free_at[e] <= now + EPS)
                .collect();
            if free.is_empty() || ready.is_empty() {
                break;
            }
            let views: Vec<PendingView> = ready
                .iter()
                .map(|(p, _)| PendingView {
                    user: p.user,
                    model: p.req.model,
                    frame_id: p.req.frame_id,
                    t_req: p.req.t_req,
                    t_deadline: p.req.t_deadline,
                })
                .collect();
            let Some((ri, engine)) = scheduler.select(&views, &free, provider, now) else {
                break;
            };
            assert!(ri < ready.len(), "scheduler returned bad request index");
            assert!(
                free.contains(&engine),
                "scheduler returned busy engine {engine}"
            );
            let (p, frac) = ready.remove(ri);
            let cost = provider.cost(p.req.model, engine);
            // Only the remaining fraction runs, stretched by the
            // engine's current capacity (both exactly 1.0 on fault-free
            // runs, so the latency and energy pass through unchanged).
            let t_end = now + cost.latency_s * frac / capacity[engine];
            engine_free_at[engine] = t_end;
            let d = Dispatch {
                user_idx: user_idx[&p.user],
                p,
                engine,
                token: next_token,
                t_start: now,
                t_end,
                frac,
                energy_j: cost.energy_j * frac,
                revoked: false,
            };
            next_token += 1;
            if faults.is_none() {
                emit(&d, &mut stats, &mut records, &mut mode);
            }
            dispatches.push(d);
        }

        // 6. Advance to the next event. A revoked dispatch still counts
        //    until its scheduled end; fault events count only while
        //    some work could still use the engines they toggle.
        let mut next = f64::INFINITY;
        if let Some(p) = arrivals.peek() {
            next = next.min(p.req.t_req);
        }
        for d in &dispatches {
            if d.t_end > now + EPS {
                next = next.min(d.t_end);
            }
        }
        let work_pending = arrivals.peek().is_some() || !dispatches.is_empty() || !ready.is_empty();
        if let Some(ev) = fault_events.get(next_fault).filter(|_| work_pending) {
            next = next.min(ev.t);
        }
        if next.is_infinite() {
            break;
        }
        now = next;
    }

    // Sub-epsilon completions still listed at the end did execute; a
    // faulted run has yet to emit them.
    if faults.is_some() {
        dispatches.sort_by(completion_order);
        for d in dispatches.iter().filter(|d| !d.revoked) {
            emit(d, &mut stats, &mut records, &mut mode);
        }
    }

    // Anything still waiting at drain time had an upstream that
    // never resolved within the run; count as dropped.
    for (p, _) in waiting.iter().chain(&ready) {
        stats
            .entry((p.user, p.req.model))
            .or_default()
            .record_drop(DropReason::Starved);
    }

    // Assemble one SimResult per user.
    let mut out = BTreeMap::new();
    for &(user, _) in specs {
        let mut recs = records.remove(&user).unwrap_or_default();
        recs.sort_by(|a, b| a.t_start.total_cmp(&b.t_start));
        let user_stats: BTreeMap<ModelId, ModelStats> = stats
            .iter()
            .filter(|((u, _), _)| *u == user)
            .map(|((_, m), st)| (*m, st.clone()))
            .collect();
        out.insert(
            user,
            SimResult {
                records: recs,
                stats: user_stats,
                num_engines,
                duration_s,
            },
        );
    }
    out
}

/// Emits one dispatch's stats and execution record: at dispatch on
/// fault-free runs, at its scheduled end on faulted ones.
fn emit(
    d: &Dispatch,
    stats: &mut BTreeMap<(u32, ModelId), ModelStats>,
    records: &mut BTreeMap<u32, Vec<ExecRecord>>,
    mode: &mut RecordMode<'_>,
) {
    let st = stats.entry((d.p.user, d.p.req.model)).or_default();
    st.executed_frames += 1;
    if d.t_end > d.p.req.t_deadline {
        st.missed_deadlines += 1;
    }
    let record = ExecRecord {
        model: d.p.req.model,
        frame_id: d.p.req.frame_id,
        sensor_frame: d.p.req.sensor_frame,
        engine: d.engine,
        t_req: d.p.req.t_req,
        t_deadline: d.p.req.t_deadline,
        t_start: d.t_start,
        t_end: d.t_end,
        energy_j: d.energy_j,
    };
    match mode {
        RecordMode::Collect => records.entry(d.p.user).or_default().push(record),
        RecordMode::Fold(sink) => sink(d.p.user, &record),
    }
}

/// Drops any not-yet-started older frame of the same (user, model)
/// (freshness policy), updating drop stats.
fn drop_older(
    queue: &mut Vec<Queued>,
    newer: &Pending,
    stats: &mut BTreeMap<(u32, ModelId), ModelStats>,
) {
    queue.retain(|(p, _)| {
        let stale = p.user == newer.user
            && p.req.model == newer.req.model
            && p.req.frame_id < newer.req.frame_id;
        if stale {
            let st = stats.entry((p.user, p.req.model)).or_default();
            st.record_drop(DropReason::Superseded);
        }
        !stale
    });
}
