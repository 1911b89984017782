//! CSV export of execution timelines (the artifact's
//! `eval_data/*.csv` equivalent).

use std::fmt::Write as _;

use crate::result::SimResult;

/// Serializes the execution timeline as CSV with the columns
/// `model,frame,sensor_frame,engine,t_req,t_deadline,t_start,t_end,latency_ms,energy_mj,missed`.
///
/// Times are in seconds; latency/energy columns are pre-scaled for
/// spreadsheet convenience.
pub fn timeline_csv(result: &SimResult) -> String {
    let mut out = String::with_capacity(64 * (result.records.len() + 1));
    out.push_str("model,frame,sensor_frame,engine,t_req,t_deadline,t_start,t_end,latency_ms,energy_mj,missed\n");
    for r in &result.records {
        writeln!(
            out,
            "{},{},{},{},{:.6},{:.6},{:.6},{:.6},{:.3},{:.3},{}",
            r.model.abbrev(),
            r.frame_id,
            r.sensor_frame,
            r.engine,
            r.t_req,
            r.t_deadline,
            r.t_start,
            r.t_end,
            r.latency_s() * 1e3,
            r.energy_j * 1e3,
            r.missed_deadline() as u8,
        )
        .expect("writing to String cannot fail");
    }
    out
}

/// Serializes the per-model frame accounting as CSV with the columns
/// `model,total,executed,dropped,untriggered,missed_deadlines`.
pub fn stats_csv(result: &SimResult) -> String {
    let mut out = String::from("model,total,executed,dropped,untriggered,missed_deadlines\n");
    for (model, st) in &result.stats {
        writeln!(
            out,
            "{},{},{},{},{},{}",
            model.abbrev(),
            st.total_frames,
            st.executed_frames,
            st.dropped_frames(),
            st.untriggered_frames,
            st.missed_deadlines,
        )
        .expect("writing to String cannot fail");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::provider::UniformProvider;
    use crate::scheduler::LatencyGreedy;
    use crate::simulator::{SimConfig, Simulator};
    use xrbench_workload::UsageScenario;

    fn run() -> SimResult {
        let p = UniformProvider::new(2, 0.002, 0.001);
        Simulator::new(SimConfig::default()).run(
            &UsageScenario::VrGaming.spec(),
            &p,
            &mut LatencyGreedy::new(),
        )
    }

    #[test]
    fn timeline_csv_has_header_and_row_per_record() {
        let r = run();
        let csv = timeline_csv(&r);
        let lines: Vec<&str> = csv.lines().collect();
        assert!(lines[0].starts_with("model,frame,"));
        assert_eq!(lines.len(), r.records.len() + 1);
        // All rows have the full column count.
        for line in &lines[1..] {
            assert_eq!(line.split(',').count(), 11, "{line}");
        }
    }

    #[test]
    fn stats_csv_covers_all_models() {
        let r = run();
        let csv = stats_csv(&r);
        for m in ["HT", "ES", "GE"] {
            assert!(
                csv.contains(&format!("\n{m},")) || csv.contains(&format!("{m},")),
                "{m}"
            );
        }
    }

    #[test]
    fn csv_times_are_parseable() {
        let r = run();
        let csv = timeline_csv(&r);
        let row = csv.lines().nth(1).expect("at least one record");
        let cols: Vec<&str> = row.split(',').collect();
        let t_req: f64 = cols[4].parse().expect("t_req parses");
        let t_end: f64 = cols[7].parse().expect("t_end parses");
        assert!(t_end >= t_req);
    }
}
