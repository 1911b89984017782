//! Correctness checks on every report, and the exact simulated
//! counters that must repeat across runs of one seed.
//!
//! Simulated results are deterministic for a fixed seed, so they serve
//! as checks, never as metrics: a change that only speeds up the
//! simulator must leave every counter here unchanged.

use std::collections::BTreeMap;

use xrbench_core::{
    BreakdownReport, FleetReport, FleetRunConfig, ModelReport, RunDocument, RunReport,
    SessionReport, SweepDocument, SweepPoint, SweepReport, SweepWorkloadKind, SystemSpec,
};
use xrbench_fleet::{default_workers, merge_fleet_shards, run_fleet_shard_with, FleetSpec};

/// Exact simulated counters, by name.
pub type Counters = BTreeMap<&'static str, u64>;

/// The outcome of checking one report.
#[derive(Debug, Default)]
pub struct Verdict {
    /// One line per violated law.
    pub failures: Vec<String>,
    /// Exact simulated counters (`events` is arrivals + completions).
    pub counters: Counters,
}

impl Verdict {
    fn law(&mut self, holds: bool, what: impl FnOnce() -> String) {
        if !holds {
            self.failures.push(what());
        }
    }

    fn unit_interval(&mut self, what: &str, x: f64) {
        self.law((0.0..=1.0).contains(&x), || {
            format!("{what} = {x} is outside [0, 1]")
        });
    }

    fn breakdown(&mut self, what: &str, b: &BreakdownReport) {
        for (part, x) in [
            ("realtime", b.realtime_score),
            ("energy", b.energy_score),
            ("accuracy", b.accuracy_score),
            ("qoe", b.qoe_score),
            ("overall", b.overall_score),
        ] {
            self.unit_interval(&format!("{what} {part} score"), x);
        }
    }
}

/// Checks a report against the document that produced it.
pub fn check(doc: &RunDocument, report: &RunReport) -> Verdict {
    let mut v = Verdict::default();
    match (doc, report) {
        (RunDocument::Session(run), RunReport::Session(r)) => {
            v.law(r.num_users == run.session.users.len(), || {
                format!(
                    "session reports {} users, document has {}",
                    r.num_users,
                    run.session.users.len()
                )
            });
            session(r, &mut v);
        }
        (RunDocument::Fleet(run), RunReport::Fleet(r)) => fleet(&run.fleet, r, &mut v),
        (RunDocument::Sweep(d), RunReport::Sweep(r)) => sweep(d, r, &mut v),
        _ => v.failures.push(format!(
            "the ledger checks session, fleet and sweep reports, got a `{}` report for a `{}` \
             document",
            report.kind(),
            doc.kind()
        )),
    }
    v
}

/// Frame counters over a scenario's model reports, plus the
/// per-model law that every streamed frame is executed or dropped.
fn models(models: &[ModelReport], c: &mut Counters, v: &mut Verdict) {
    for m in models {
        v.law(
            m.executed_frames + m.dropped_frames == m.total_frames,
            || {
                format!(
                    "{}: executed {} + dropped {} != streamed {}",
                    m.model, m.executed_frames, m.dropped_frames, m.total_frames
                )
            },
        );
        v.unit_interval(&format!("{} per-model score", m.model), m.per_model_score);
        v.unit_interval(&format!("{} qoe", m.model), m.qoe);
        *c.entry("total_requests").or_default() += m.total_frames;
        *c.entry("executed_inferences").or_default() += m.executed_frames;
        *c.entry("dropped_frames").or_default() += m.dropped_frames;
        *c.entry("untriggered_frames").or_default() += m.untriggered_frames;
        *c.entry("missed_deadlines").or_default() += m.missed_deadlines;
    }
}

/// Arrivals plus completions, the `FleetReport::events` unit.
fn events_of(c: &Counters) -> u64 {
    c["total_requests"] + c["untriggered_frames"] + c["executed_inferences"]
}

fn session(r: &SessionReport, v: &mut Verdict) {
    let mut c = Counters::new();
    for key in [
        "total_requests",
        "executed_inferences",
        "dropped_frames",
        "untriggered_frames",
        "missed_deadlines",
    ] {
        c.insert(key, 0);
    }
    v.unit_interval("session score", r.session_score);
    v.unit_interval("session drop rate", r.drop_rate);
    v.breakdown("session aggregate", &r.aggregate);
    for u in &r.users {
        v.breakdown(&format!("user {}", u.user), &u.report.breakdown);
        models(&u.report.models, &mut c, v);
    }
    let d = &r.drops;
    let by_reason = d.superseded + d.upstream_dropped + d.starved + d.preempted + d.device_lost;
    v.law(by_reason == c["dropped_frames"], || {
        format!(
            "drops by reason sum to {by_reason}, models dropped {}",
            c["dropped_frames"]
        )
    });
    c.insert("users", r.num_users as u64);
    c.insert("drops.superseded", d.superseded);
    c.insert("drops.upstream_dropped", d.upstream_dropped);
    c.insert("drops.starved", d.starved);
    c.insert("drops.preempted", d.preempted);
    c.insert("drops.device_lost", d.device_lost);
    c.insert("events", events_of(&c));
    v.counters = c;
}

fn fleet(spec: &FleetSpec, r: &FleetReport, v: &mut Verdict) {
    v.law(
        r.events == r.total_requests + r.untriggered_frames + r.executed_inferences,
        || {
            format!(
                "events {} != requests {} + untriggered {} + executed {}",
                r.events, r.total_requests, r.untriggered_frames, r.executed_inferences
            )
        },
    );
    v.law(
        r.executed_inferences + r.dropped_frames == r.total_requests,
        || {
            format!(
                "executed {} + dropped {} != requests {}",
                r.executed_inferences, r.dropped_frames, r.total_requests
            )
        },
    );
    let d = &r.drops;
    let by_reason = d.superseded + d.upstream_dropped + d.starved + d.preempted + d.device_lost;
    v.law(by_reason == r.dropped_frames, || {
        format!(
            "drops by reason sum to {by_reason}, report says {}",
            r.dropped_frames
        )
    });
    v.law(
        r.num_users == spec.total_users() && r.num_sessions == spec.total_sessions(),
        || {
            format!(
                "report covers {} users / {} sessions, fleet has {} / {}",
                r.num_users,
                r.num_sessions,
                spec.total_users(),
                spec.total_sessions()
            )
        },
    );
    for (what, x) in [
        ("fleet score", r.fleet_score),
        ("min session score", r.session_score_min),
        ("max session score", r.session_score_max),
        ("inference score p05", r.inference_score_p05),
        ("inference score p50", r.inference_score_p50),
        ("drop rate", r.drop_rate),
    ] {
        v.unit_interval(what, x);
    }
    for s in &r.scenarios {
        for (part, x) in [
            ("realtime", s.realtime_score),
            ("energy", s.energy_score),
            ("accuracy", s.accuracy_score),
            ("qoe", s.qoe_score),
            ("overall", s.overall_score),
            ("min overall", s.min_overall),
            ("max overall", s.max_overall),
        ] {
            v.unit_interval(&format!("scenario `{}` {part}", s.scenario), x);
        }
    }
    for g in &r.groups {
        v.unit_interval(&format!("group `{}` score", g.name), g.session_score);
    }
    v.counters = fleet_counters(r);
}

fn fleet_counters(r: &FleetReport) -> Counters {
    Counters::from([
        ("events", r.events),
        ("total_requests", r.total_requests),
        ("executed_inferences", r.executed_inferences),
        ("dropped_frames", r.dropped_frames),
        ("untriggered_frames", r.untriggered_frames),
        ("missed_deadlines", r.missed_deadlines),
        ("drops.superseded", r.drops.superseded),
        ("drops.upstream_dropped", r.drops.upstream_dropped),
        ("drops.starved", r.drops.starved),
        ("drops.preempted", r.drops.preempted),
        ("drops.device_lost", r.drops.device_lost),
        ("users", r.num_users),
    ])
}

/// One distinct sweep evaluation, re-run through the public harness
/// entry points.
struct Evaluation {
    score: f64,
    total_energy_mj: f64,
    drop_rate: f64,
    counters: Counters,
}

/// Evaluates one sweep point the way the sweep's own executor does:
/// the same system, harness, scheduler, recovery and seeds.
fn evaluate(doc: &SweepDocument, point: &SweepPoint) -> Evaluation {
    let system = SystemSpec::Accelerator {
        id: point.accelerator,
        pes: point.pes,
    }
    .build();
    let harness = doc.params.harness();
    let mut scratch = Verdict::default();
    match &doc.workloads[point.workload].kind {
        SweepWorkloadKind::Scenario(spec) => {
            let mut scheduler = point.scheduler.build();
            let (report, _) = harness.run_spec(spec, system.as_ref(), scheduler.as_mut());
            let mut c = Counters::new();
            models(&report.models, &mut c, &mut scratch);
            c.insert("events", events_of(&c));
            Evaluation {
                score: report.overall(),
                total_energy_mj: report.total_energy_mj,
                drop_rate: report.drop_rate,
                counters: c,
            }
        }
        SweepWorkloadKind::Session(spec) => {
            let mut scheduler = point.scheduler.build();
            let report = harness.run_session(spec, system.as_ref(), scheduler.as_mut());
            session(&report, &mut scratch);
            Evaluation {
                score: report.session_score,
                total_energy_mj: report.total_energy_mj,
                drop_rate: report.drop_rate,
                counters: scratch.counters,
            }
        }
        SweepWorkloadKind::Fleet(spec) => {
            let config = FleetRunConfig {
                sim: harness.sim_config(),
                workers: default_workers(),
                recovery: point.recovery,
                ..FleetRunConfig::default()
            };
            let state = run_fleet_shard_with(
                spec,
                system.as_ref(),
                &config,
                &|| point.scheduler.build(),
                0,
                1,
            );
            let report =
                merge_fleet_shards(spec, &system.label(), point.scheduler.name(), &[state])
                    .expect("a single shard is a complete partition");
            Evaluation {
                score: report.fleet_score,
                total_energy_mj: report.total_energy_mj,
                drop_rate: report.drop_rate,
                counters: fleet_counters(&report),
            }
        }
    }
}

fn sweep(doc: &SweepDocument, r: &SweepReport, v: &mut Verdict) {
    let points = doc.points();
    let expected = doc.workloads.len()
        * doc.accelerators.len()
        * doc.pe_scaling.len()
        * doc.schedulers.len()
        * doc.recovery.len();
    v.law(
        r.num_points == expected && points.len() == expected && r.points.len() == expected,
        || {
            format!(
                "sweep has {} points ({} listed), the axes multiply to {expected}",
                r.num_points,
                r.points.len()
            )
        },
    );
    let distinct = doc.distinct_evaluations();
    v.law(r.distinct_evaluations == distinct, || {
        format!(
            "report claims {} distinct evaluations, the document needs {distinct}",
            r.distinct_evaluations
        )
    });
    for p in &r.points {
        v.unit_interval(&format!("point {} score", p.index), p.score);
        v.unit_interval(&format!("point {} drop rate", p.index), p.drop_rate);
    }
    for m in &r.marginals {
        v.unit_interval(
            &format!("marginal {}={} mean", m.axis, m.value),
            m.mean_score,
        );
        v.unit_interval(
            &format!("marginal {}={} best", m.axis, m.value),
            m.best_score,
        );
    }

    // Differential check: every distinct evaluation re-run directly
    // must match the sweep's point rows bit for bit. It also yields
    // the simulated event count the sweep report does not carry.
    let mut cache: BTreeMap<String, Evaluation> = BTreeMap::new();
    let mut c = Counters::new();
    for point in &points {
        let key = doc.cache_key(point);
        let e = cache.entry(key).or_insert_with(|| {
            let e = evaluate(doc, point);
            for (k, n) in &e.counters {
                if *k != "users" {
                    *c.entry(k).or_default() += n;
                }
            }
            e
        });
        if let Some(row) = r.points.get(point.index) {
            v.law(
                row.score.to_bits() == e.score.to_bits()
                    && row.total_energy_mj.to_bits() == e.total_energy_mj.to_bits()
                    && row.drop_rate.to_bits() == e.drop_rate.to_bits(),
                || {
                    format!(
                        "point {} differs from its direct evaluation (score {} vs {})",
                        point.index, row.score, e.score
                    )
                },
            );
        }
    }
    c.insert("points", r.num_points as u64);
    c.insert("distinct_evaluations", cache.len() as u64);
    c.insert("cache_hits", (points.len() - cache.len()) as u64);
    v.counters = c;
}
