//! AR-gaming deep dive (the paper's Figure 6 workload): compare the
//! 4K- and 8K-PE versions of one accelerator on the heaviest XRBench
//! scenario, render the execution timelines, and show why raw
//! hardware utilization is a misleading metric.
//!
//! ```sh
//! cargo run --release --example ar_gaming_deep_dive [accel-id]
//! ```

use xrbench::core::render_timeline;
use xrbench::prelude::*;

fn main() {
    let arg = std::env::args().nth(1).unwrap_or_else(|| "J".to_string());
    let id = xrbench::core::spec::parse_accelerator_id(&arg).unwrap_or_else(|e| {
        eprintln!("ar_gaming_deep_dive: {e}");
        std::process::exit(2)
    });
    let config = xrbench::accel::config_by_id(id).expect("decoded ids are in Table 5");
    println!("accelerator {config}\n");

    let harness = Harness::new();
    let mut summary = Vec::new();
    for pes in [4096u64, 8192] {
        let system = AcceleratorSystem::new(config.clone(), pes);
        let (report, result) = harness.run_spec(
            &UsageScenario::ArGaming.spec(),
            &system,
            &mut LatencyGreedy::new(),
        );
        println!("=== {} ===", system.label());
        println!("{}", render_timeline(&result, 100));
        println!(
            "drops {:.1}% | mean utilization {:.2} | overall {:.3}\n",
            report.drop_rate * 100.0,
            report.mean_utilization,
            report.overall()
        );
        summary.push((pes, report.mean_utilization, report.overall()));
    }

    let (p0, u0, s0) = summary[0];
    let (_p1, u1, s1) = summary[1];
    if u0 > u1 && s0 < s1 {
        println!(
            "note: the {p0}-PE system is *busier* (util {u0:.2} vs {u1:.2}) yet scores \
             *worse* ({s0:.3} vs {s1:.3}) — utilization rewards congestion, the XRBench \
             score does not (paper §4.2.2)."
        );
    } else {
        println!(
            "both sizes handle the load; try a heavier accelerator (e.g. B) or 4K PEs \
             to see the utilization fallacy."
        );
    }
}
