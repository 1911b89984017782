//! Regeneration of the paper's evaluation figures.
//!
//! Each function returns plain data rows; the `xrbench-bench` binaries
//! print them in figure-shaped tables (and EXPERIMENTS.md records the
//! paper-vs-measured comparison).

use serde::Serialize;

use xrbench_accel::{table5, AcceleratorSystem};
use xrbench_score::{rt_score, RtParams};
use xrbench_sim::{LatencyGreedy, SimResult};
use xrbench_workload::UsageScenario;

use crate::harness::Harness;
use crate::report::ScenarioReport;

/// One bar group of Figure 5: the score breakdown for one accelerator
/// on one usage scenario at one PE count.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Figure5Row {
    /// Total PE count (4096 or 8192).
    pub pes: u64,
    /// Accelerator id `A`–`M`.
    pub accel: char,
    /// Accelerator style ("FDA"/"SFDA"/"HDA").
    pub style: String,
    /// Scenario name, or `"Average"` for the Figure 5(h) panel.
    pub scenario: String,
    /// Mean real-time score.
    pub realtime: f64,
    /// Mean energy score.
    pub energy: f64,
    /// Mean QoE score.
    pub qoe: f64,
    /// Overall scenario score (XRBench Score contribution).
    pub overall: f64,
}

/// Computes the Figure 5 data: score breakdowns for all 13 Table 5
/// accelerators × {4K, 8K} PEs × all 7 usage scenarios, plus the
/// per-accelerator `"Average"` rows of Figure 5(h).
///
/// Dynamic scenarios are averaged over `repeats` seeds. The
/// 26-cell accelerator × PE-count grid is fanned across `std::thread`
/// workers (each cell runs its suite serially, so the grid itself is
/// the unit of parallelism and workers never oversubscribe); row
/// values are identical to a serial evaluation.
pub fn figure5(harness: &Harness, repeats: u32) -> Vec<Figure5Row> {
    let configs = table5();
    let grid: Vec<(u64, usize)> = [4096u64, 8192]
        .iter()
        .flat_map(|&pes| (0..configs.len()).map(move |ci| (pes, ci)))
        .collect();

    let per_cell =
        crate::pool::parallel_map(&grid, xrbench_fleet::default_workers(), |&(pes, ci)| {
            let cfg = &configs[ci];
            let system = AcceleratorSystem::new(cfg.clone(), pes);
            let bench = crate::suite::catalog_serial_impl(
                harness,
                &system,
                repeats,
                &xrbench_workload::ScenarioCatalog::builtin(),
            );
            let mut out: Vec<Figure5Row> = bench
                .scenarios
                .iter()
                .map(|s| Figure5Row {
                    pes,
                    accel: cfg.id,
                    style: cfg.style.to_string(),
                    scenario: s.scenario.clone(),
                    realtime: s.breakdown.realtime_score,
                    energy: s.breakdown.energy_score,
                    qoe: s.breakdown.qoe_score,
                    overall: s.breakdown.overall_score,
                })
                .collect();
            let n = out.len() as f64;
            out.push(Figure5Row {
                pes,
                accel: cfg.id,
                style: cfg.style.to_string(),
                scenario: "Average".to_string(),
                realtime: out.iter().map(|r| r.realtime).sum::<f64>() / n,
                energy: out.iter().map(|r| r.energy).sum::<f64>() / n,
                qoe: out.iter().map(|r| r.qoe).sum::<f64>() / n,
                overall: out.iter().map(|r| r.overall).sum::<f64>() / n,
            });
            out
        });

    let mut rows: Vec<Figure5Row> = per_cell.into_iter().flatten().collect();
    rows.sort_by(|a, b| {
        (a.pes, a.accel, a.scenario.clone()).cmp(&(b.pes, b.accel, b.scenario.clone()))
    });
    rows
}

/// The Figure 6 deep dive: the AR Gaming execution timelines and
/// scores of accelerator J (WS+OS HDA) at 4K and 8K PEs.
#[derive(Debug)]
pub struct Figure6Data {
    /// Report + timeline at 4096 PEs.
    pub four_k: (ScenarioReport, SimResult),
    /// Report + timeline at 8192 PEs.
    pub eight_k: (ScenarioReport, SimResult),
}

/// Computes the Figure 6 data.
pub fn figure6(harness: &Harness) -> Figure6Data {
    let cfg = table5()
        .into_iter()
        .find(|c| c.id == 'J')
        .expect("J exists");
    let run = |pes: u64| {
        let system = AcceleratorSystem::new(cfg.clone(), pes);
        harness.run_spec(
            &UsageScenario::ArGaming.spec(),
            &system,
            &mut LatencyGreedy::new(),
        )
    };
    Figure6Data {
        four_k: run(4096),
        eight_k: run(8192),
    }
}

/// One point of Figure 7: scores for one accelerator at one ES → GE
/// cascading probability (VR Gaming, 4K PEs).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Figure7Row {
    /// Accelerator id (`B` or `J` in the paper).
    pub accel: char,
    /// Total PE count (4096 = the paper's setting; 512 = the
    /// constrained variant where our cost model shows the dynamic
    /// effects more clearly).
    pub pes: u64,
    /// ES → GE trigger probability.
    pub probability: f64,
    /// Mean real-time score across runs.
    pub realtime: f64,
    /// Mean energy score across runs.
    pub energy: f64,
    /// Mean QoE score across runs.
    pub qoe: f64,
    /// Mean overall score across runs.
    pub overall: f64,
}

/// Computes the Figure 7 data: the cascading-probability sweep
/// (25%..100%) for accelerators B and J with 4K PEs on VR Gaming,
/// averaged over `runs` experiments (the paper uses 200).
///
/// # Panics
///
/// Panics if `runs == 0`.
pub fn figure7(harness: &Harness, runs: u32) -> Vec<Figure7Row> {
    assert!(runs > 0, "need at least one run");
    let configs = table5();
    let mut rows = Vec::new();
    for (id, pes) in [('B', 4096), ('J', 4096), ('B', 512), ('J', 512)] {
        let cfg = configs.iter().find(|c| c.id == id).expect("id exists");
        let system = AcceleratorSystem::new(cfg.clone(), pes);
        for prob in [0.25, 0.5, 0.75, 1.0] {
            let spec = UsageScenario::VrGaming
                .spec()
                .with_eye_cascade_probability(prob);
            let (mut rt, mut en, mut qoe, mut ov) = (0.0, 0.0, 0.0, 0.0);
            for i in 0..runs {
                let h = harness
                    .clone()
                    .with_seed(harness.sim_config().seed.wrapping_add(i as u64));
                let (report, _) = h.run_spec(&spec, &system, &mut LatencyGreedy::new());
                rt += report.breakdown.realtime_score;
                en += report.breakdown.energy_score;
                qoe += report.breakdown.qoe_score;
                ov += report.breakdown.overall_score;
            }
            let n = runs as f64;
            rows.push(Figure7Row {
                accel: id,
                pes,
                probability: prob,
                realtime: rt / n,
                energy: en / n,
                qoe: qoe / n,
                overall: ov / n,
            });
        }
    }
    rows
}

/// One curve of Figure 8: the real-time score as a function of
/// latency for a given `k`, with a 1-second slack window.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Figure8Curve {
    /// The sensitivity constant `k` (per-second units, as plotted in
    /// the paper's appendix figure).
    pub k: f64,
    /// `(latency_s, score)` samples over `0..=2` seconds.
    pub samples: Vec<(f64, f64)>,
}

/// Computes the Figure 8 data: the real-time score function for
/// `k ∈ {0, 1, 15, 50}` over latencies 0–2 s with a 1 s deadline.
pub fn figure8() -> Vec<Figure8Curve> {
    [0.0, 1.0, 15.0, 50.0]
        .iter()
        .map(|&k| {
            let samples = (0..=100)
                .map(|i| {
                    let lat = i as f64 * 0.02;
                    // k is per-second here; RtParams wants per-ms.
                    let s = rt_score(lat, 1.0, RtParams { k_per_ms: k / 1e3 });
                    (lat, s)
                })
                .collect();
            Figure8Curve { k, samples }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure8_shapes() {
        let curves = figure8();
        assert_eq!(curves.len(), 4);
        // k = 0 → flat 0.5 everywhere.
        for (_, s) in &curves[0].samples {
            assert!((s - 0.5).abs() < 1e-12);
        }
        // k = 50 → ~1 well before the deadline, ~0 well after.
        let k50 = &curves[3];
        assert!(k50.samples[10].1 > 0.99); // latency 0.2 s
        assert!(k50.samples[90].1 < 0.01); // latency 1.8 s

        // All curves cross 0.5 at the deadline.
        for c in &curves {
            let at_deadline = c.samples[50].1;
            assert!((at_deadline - 0.5).abs() < 1e-9, "k={}", c.k);
        }
        // Larger k → steeper: score just before deadline is higher.
        let just_before: Vec<f64> = curves.iter().map(|c| c.samples[45].1).collect();
        assert!(just_before[1] < just_before[2]);
        assert!(just_before[2] < just_before[3]);
    }

    #[test]
    fn figure6_shows_4k_dropping_more_than_8k() {
        let h = Harness::new();
        let data = figure6(&h);
        let d4 = data.four_k.0.drop_rate;
        let d8 = data.eight_k.0.drop_rate;
        assert!(
            d4 > d8,
            "4K should drop more frames than 8K (got {d4:.3} vs {d8:.3})"
        );
        assert!(
            data.four_k.0.overall() < data.eight_k.0.overall(),
            "8K should outscore 4K on AR Gaming"
        );
    }

    #[test]
    fn figure7_rows_cover_sweep() {
        let h = Harness::new();
        let rows = figure7(&h, 3);
        assert_eq!(rows.len(), 16);
        for r in &rows {
            assert!(r.overall >= 0.0 && r.overall <= 1.0);
            assert!(r.qoe >= 0.0 && r.qoe <= 1.0);
        }
    }
}
