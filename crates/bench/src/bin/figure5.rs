//! Regenerates Figure 5: score break-downs for each accelerator style
//! (A–M, Table 5) with 4K and 8K PEs running each usage scenario, plus
//! the cross-scenario average (Figure 5 h), and checks the paper's
//! §4.2.1 / §4.4 qualitative claims against the measured data.

use std::collections::BTreeMap;

use xrbench_core::figures::{figure5, Figure5Row};
use xrbench_core::Harness;

fn main() {
    let repeats: u32 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(20);
    eprintln!("running figure 5 sweep (dynamic scenarios averaged over {repeats} seeds)...");
    let rows = figure5(&Harness::new(), repeats);

    // Group rows by (pes, scenario) for figure-shaped printing.
    let mut panels: BTreeMap<(u64, String), Vec<&Figure5Row>> = BTreeMap::new();
    for r in &rows {
        panels
            .entry((r.pes, r.scenario.clone()))
            .or_default()
            .push(r);
    }

    let scenario_order = [
        "Social Interaction A",
        "Social Interaction B",
        "Outdoor Activity A",
        "Outdoor Activity B",
        "AR Assistant",
        "AR Gaming",
        "VR Gaming",
        "Average",
    ];
    for scenario in scenario_order {
        for pes in [4096u64, 8192] {
            let Some(panel) = panels.get(&(pes, scenario.to_string())) else {
                continue;
            };
            println!("\n=== Figure 5: {scenario} — {}K PEs ===", pes / 1024);
            println!(
                "{:>5} {:>5} {:>9} {:>8} {:>8} {:>8}",
                "acc", "style", "realtime", "energy", "qoe", "overall"
            );
            for r in panel {
                println!(
                    "{:>5} {:>5} {:>9.3} {:>8.3} {:>8.3} {:>8.3}",
                    r.accel, r.style, r.realtime, r.energy, r.qoe, r.overall
                );
            }
            let best = panel
                .iter()
                .max_by(|a, b| a.overall.total_cmp(&b.overall))
                .expect("panel non-empty");
            println!("best: accelerator {} ({})", best.accel, best.style);
        }
    }

    // §4.4 claim checks: printed for the reader, not asserted.
    println!("\n=== Claim checks ===");
    let best_of = |pes: u64, scenario: &str| -> &Figure5Row {
        panels[&(pes, scenario.to_string())]
            .iter()
            .max_by(|a, b| a.overall.total_cmp(&b.overall))
            .expect("panel")
    };
    let winners_4k: Vec<(String, char)> = scenario_order[..7]
        .iter()
        .map(|s| (s.to_string(), best_of(4096, s).accel))
        .collect();
    let distinct: std::collections::BTreeSet<char> = winners_4k.iter().map(|(_, c)| *c).collect();
    println!(
        "Observation 1 (per-scenario winners differ, 4K): winners {:?} -> {} distinct styles",
        winners_4k,
        distinct.len()
    );
    let assistant_4k = best_of(4096, "AR Assistant").accel;
    let assistant_8k = best_of(8192, "AR Assistant").accel;
    println!(
        "Observation 2 (optimal style depends on chip size): AR Assistant best {assistant_4k} @4K vs {assistant_8k} @8K"
    );
    let multi = |c: char| !('A'..='C').contains(&c);
    println!(
        "Observation 3 (multi-accelerator friendliness): AR Assistant (6 models) winner {} is multi-accel: {}; VR Gaming (3 models) 4K winner {}",
        assistant_4k,
        multi(assistant_4k),
        best_of(4096, "VR Gaming").accel,
    );

    // Machine-readable dump.
    let json = serde_json::to_string_pretty(&rows).expect("serialize");
    std::fs::write("figure5.json", &json).ok();
    eprintln!("\nwrote figure5.json ({} rows)", rows.len());
}
