//! The committed performance gate for the simulator core (PR 8).
//!
//! Measures end-to-end event throughput (arrivals + completions per
//! wall-clock second) of `Simulator::run_session` on mixed-scenario
//! sessions of 1 / 32 / 256 / 1024 concurrent users, compares the
//! calendar-queue engine against the pre-refactor reference loop,
//! writes the measurements to `target/BENCH_PR8.json` (the committed
//! repo-root `BENCH_PR8.json` is only rewritten when blessing), and
//! **fails** (non-zero exit) if:
//!
//! * 1024-user throughput falls below the committed floor read from
//!   the repository's `BENCH_PR8.json` (an absolute, deliberately
//!   conservative events/sec bound so slower CI hardware does not
//!   flake),
//! * that committed floor itself sits below **3×** the PR 3 heap
//!   engine's committed floor (`BENCH_PR3.json`) — the tentpole bound
//!   this PR committed to, enforced so the baseline can never be
//!   silently re-blessed downward, or
//! * the measured speedup over the reference loop at 1024 users drops
//!   below 5× (the machine-independent bound PR 3 committed to).
//!
//! ```sh
//! cargo run -p xrbench-bench --release --bin perf_gate
//! ```
//!
//! Paths are resolved relative to the workspace root, so the binary
//! works from any working directory.
//!
//! Environment knobs:
//!
//! * `XRBENCH_PERF_SKIP_NAIVE=1` — skip the slow reference-loop runs
//!   (the absolute floor is still enforced).
//! * `XRBENCH_BLESS_PERF=1` — re-derive the committed floor as the
//!   larger of 10% of the measured 1024-user throughput and 3× the
//!   PR 3 floor, and rewrite the repo-root `BENCH_PR8.json` baseline.

use std::time::Instant;

use xrbench_bench::session_scale::{mixed_session, provider, ENGINES, LATENCY_S, STAGGER_S};
use xrbench_sim::{LatencyGreedy, SimConfig, Simulator};

/// Session sizes the gate tracks. The last one is the gated size.
const USER_COUNTS: [u32; 4] = [1, 32, 256, 1024];
/// Machine-independent bound: new engine vs reference loop at 1024
/// users.
const NAIVE_SPEEDUP_FLOOR: f64 = 5.0;
/// Fraction of measured throughput committed as the absolute floor
/// when blessing. Deliberately loose: the floor must survive CI
/// runners several times slower than the blessing machine while still
/// sitting well above what the pre-refactor loop could reach.
const BLESS_FLOOR_FRACTION: f64 = 0.10;
/// The tentpole bound: the PR 8 floor must be at least this multiple
/// of the PR 3 heap engine's committed floor.
const TENTPOLE_SPEEDUP: f64 = 3.0;
/// The committed baseline at the workspace root.
const COMMITTED_BASELINE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_PR8.json");
/// The PR 3 heap-engine baseline the ≥3× tentpole floor anchors to.
const PR3_BASELINE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_PR3.json");
/// Where each run's measurements land (never committed).
const MEASURED_OUT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/BENCH_PR8.json");

struct Measurement {
    users: u32,
    events: u64,
    events_per_sec: f64,
    naive_events_per_sec: Option<f64>,
}

/// Runs `f` `reps` times and returns (events of one run, best
/// events/sec). Events = arrivals + completions: the discrete-event
/// work the engine actually processes.
fn measure(reps: u32, arrivals: u64, mut f: impl FnMut() -> u64) -> (u64, f64) {
    let mut best = f64::INFINITY;
    let mut events = 0;
    for _ in 0..reps {
        let start = Instant::now();
        let completions = f();
        let elapsed = start.elapsed().as_secs_f64();
        events = arrivals + completions;
        best = best.min(elapsed / events as f64);
    }
    (events, 1.0 / best)
}

/// Extracts `"field": <number>` from a JSON string without building a
/// value tree.
fn json_number(text: &str, field: &str) -> Option<f64> {
    let needle = format!("\"{field}\":");
    let at = text.find(&needle)? + needle.len();
    let rest = text[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn main() {
    let skip_naive = std::env::var("XRBENCH_PERF_SKIP_NAIVE").is_ok_and(|v| v == "1");
    let bless = std::env::var("XRBENCH_BLESS_PERF").is_ok_and(|v| v == "1");
    let provider = provider();
    let config = SimConfig::default();
    let sim = Simulator::new(config);

    let mut results: Vec<Measurement> = Vec::new();
    for users in USER_COUNTS {
        let session = mixed_session(users);
        let arrivals = session.generate(config.seed, config.duration_s).len() as u64;
        // More repetitions where runs are cheap, fewer at scale.
        let reps = if users >= 256 { 2 } else { 5 };
        let (events, events_per_sec) = measure(reps, arrivals, || {
            let r = sim.run_session(&session, &provider, &mut LatencyGreedy::new());
            r.per_user.iter().map(|(_, u)| u.records.len() as u64).sum()
        });
        let naive_events_per_sec = if skip_naive {
            None
        } else {
            let naive_reps = if users >= 256 { 1 } else { 2 };
            let (_, naive_eps) = measure(naive_reps, arrivals, || {
                let r = sim.run_session_reference(
                    &session,
                    &provider,
                    &mut LatencyGreedy::new(),
                    None,
                    None,
                );
                r.per_user.iter().map(|(_, u)| u.records.len() as u64).sum()
            });
            Some(naive_eps)
        };
        eprintln!(
            "perf_gate: {users:>5} users | {events:>8} events | {events_per_sec:>12.0} ev/s{}",
            match naive_events_per_sec {
                Some(n) => format!(
                    " | naive {n:>12.0} ev/s | speedup {:.1}x",
                    events_per_sec / n
                ),
                None => String::new(),
            }
        );
        results.push(Measurement {
            users,
            events,
            events_per_sec,
            naive_events_per_sec,
        });
    }

    let gated = results.last().expect("measured at least one session");
    let committed_floor = std::fs::read_to_string(COMMITTED_BASELINE)
        .ok()
        .and_then(|text| json_number(&text, "floor_events_per_sec_1024"));
    // The PR 3 anchor: the tentpole requires the PR 8 floor to sit at
    // least 3× above it, whatever machine blessed either baseline.
    let pr3_floor = std::fs::read_to_string(PR3_BASELINE)
        .ok()
        .and_then(|text| json_number(&text, "floor_events_per_sec_1024"))
        .unwrap_or_else(|| {
            eprintln!(
                "perf_gate: FAIL — cannot read floor_events_per_sec_1024 from \
                 {PR3_BASELINE} (the 3x tentpole floor anchors to it)"
            );
            std::process::exit(1);
        });
    let tentpole_floor = pr3_floor * TENTPOLE_SPEEDUP;
    let floor = if bless {
        (gated.events_per_sec * BLESS_FLOOR_FRACTION).max(tentpole_floor)
    } else {
        // The committed floor is the gate; silently inventing one
        // from the current measurement would make the gate vacuous.
        committed_floor.unwrap_or_else(|| {
            eprintln!(
                "perf_gate: FAIL — cannot read floor_events_per_sec_1024 from \
                 {COMMITTED_BASELINE} (set XRBENCH_BLESS_PERF=1 to establish \
                 a new baseline)"
            );
            std::process::exit(1);
        })
    };

    // Emit BENCH_PR8.json.
    let mut out = String::from("{\n  \"bench\": \"session_scale\",\n");
    out.push_str(&format!(
        "  \"engine\": \"calendar-queue\",\n  \"pr3_floor_events_per_sec_1024\": {pr3_floor:.0},\n  \"tentpole_speedup\": {TENTPOLE_SPEEDUP},\n",
    ));
    out.push_str(&format!(
        "  \"engines\": {ENGINES},\n  \"latency_ms\": {},\n  \"stagger_ms\": {},\n  \"scheduler\": \"latency-greedy\",\n",
        LATENCY_S * 1e3,
        STAGGER_S * 1e3,
    ));
    out.push_str("  \"sessions\": [\n");
    for (i, m) in results.iter().enumerate() {
        let naive = match m.naive_events_per_sec {
            Some(n) => format!(
                ", \"naive_events_per_sec\": {:.0}, \"speedup\": {:.2}",
                n,
                m.events_per_sec / n
            ),
            None => String::new(),
        };
        out.push_str(&format!(
            "    {{\"users\": {}, \"events\": {}, \"events_per_sec\": {:.0}{}}}{}\n",
            m.users,
            m.events,
            m.events_per_sec,
            naive,
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"floor_events_per_sec_1024\": {floor:.0}\n}}\n"
    ));
    if let Some(dir) = std::path::Path::new(MEASURED_OUT).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    std::fs::write(MEASURED_OUT, &out).expect("write measured BENCH_PR8.json");
    if bless {
        // Only blessing touches the committed baseline.
        std::fs::write(COMMITTED_BASELINE, &out).expect("write committed BENCH_PR8.json");
    }
    println!("{out}");

    // Gate 0: the committed floor must embody the tentpole bound —
    // at least 3× the PR 3 heap-engine floor.
    let mut failed = false;
    if floor < tentpole_floor {
        eprintln!(
            "perf_gate: FAIL — committed floor {floor:.0} ev/s below the tentpole bound \
             {tentpole_floor:.0} ev/s ({TENTPOLE_SPEEDUP}x the PR 3 floor {pr3_floor:.0})"
        );
        failed = true;
    }
    // Gate 1: absolute committed floor, with the measured-vs-floor
    // delta spelled out either way.
    let delta = (gated.events_per_sec / floor - 1.0) * 100.0;
    if gated.events_per_sec < floor {
        eprintln!(
            "perf_gate: FAIL — 1024-user throughput {:.0} ev/s below committed floor {:.0} ev/s \
             (measured-vs-floor: {delta:+.1}%)",
            gated.events_per_sec, floor
        );
        failed = true;
    } else {
        eprintln!(
            "perf_gate: throughput {:.0} ev/s vs floor {floor:.0} ev/s ({delta:+.1}%)",
            gated.events_per_sec
        );
    }
    // Gate 2: machine-independent speedup over the reference loop.
    if let Some(naive) = gated.naive_events_per_sec {
        let speedup = gated.events_per_sec / naive;
        if speedup < NAIVE_SPEEDUP_FLOOR {
            eprintln!(
                "perf_gate: FAIL — speedup over reference loop {speedup:.2}x below \
                 {NAIVE_SPEEDUP_FLOOR}x (measured-vs-floor: {:+.1}%)",
                (speedup / NAIVE_SPEEDUP_FLOOR - 1.0) * 100.0
            );
            failed = true;
        }
    }
    // Mirror the verdict and the measurement table into the Actions
    // job summary, so a regression is readable from the run page
    // without downloading artifacts.
    let mut summary = String::from("## Perf gate (1024-user session throughput)\n\n");
    summary.push_str("| users | events | events/sec | reference ev/s | speedup |\n");
    summary.push_str("|---:|---:|---:|---:|---:|\n");
    for m in &results {
        let (naive, speedup) = match m.naive_events_per_sec {
            Some(n) => (format!("{n:.0}"), format!("{:.1}x", m.events_per_sec / n)),
            None => ("—".to_string(), "—".to_string()),
        };
        summary.push_str(&format!(
            "| {} | {} | {:.0} | {naive} | {speedup} |\n",
            m.users, m.events, m.events_per_sec
        ));
    }
    summary.push_str("\n| gate | floor | measured | delta | verdict |\n");
    summary.push_str("|---|---:|---:|---:|---|\n");
    summary.push_str(&format!(
        "| committed floor ≥ 3× PR 3 floor | {tentpole_floor:.0} ev/s | {floor:.0} ev/s | {:+.1}% | {} |\n",
        (floor / tentpole_floor - 1.0) * 100.0,
        if floor < tentpole_floor {
            "❌ FAIL"
        } else {
            "✅ pass"
        }
    ));
    summary.push_str(&format!(
        "| 1024-user throughput | {floor:.0} ev/s | {:.0} ev/s | {delta:+.1}% | {} |\n",
        gated.events_per_sec,
        if gated.events_per_sec < floor {
            "❌ FAIL"
        } else {
            "✅ pass"
        }
    ));
    if let Some(naive) = gated.naive_events_per_sec {
        let speedup = gated.events_per_sec / naive;
        summary.push_str(&format!(
            "| speedup over reference loop | {NAIVE_SPEEDUP_FLOOR:.1}x | {speedup:.2}x | {:+.1}% | {} |\n",
            (speedup / NAIVE_SPEEDUP_FLOOR - 1.0) * 100.0,
            if speedup < NAIVE_SPEEDUP_FLOOR { "❌ FAIL" } else { "✅ pass" }
        ));
    }
    xrbench_bench::ci::append_step_summary(&summary);

    if failed {
        std::process::exit(1);
    }
    eprintln!("perf_gate: PASS (floor {floor:.0} ev/s)");
}
