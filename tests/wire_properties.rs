//! Property tests over the shard wire protocol: truncated or mutated
//! envelopes of every kind — a fleet shard state, a sweep shard state
//! and a sweep checkpoint — make their decoder return `Ok` or `Err`,
//! never panic. A decoded sweep state also goes through the merge, and
//! a corrupted checkpoint through a whole resume.

use std::path::PathBuf;
use std::sync::OnceLock;

use proptest::prelude::*;

use xrbench::core::{RunDocument, SweepDocument, SweepOptions, SweepShardState};
use xrbench::fleet::{run_fleet_shard, FleetRunConfig, FleetSpec, ShardState};
use xrbench::sim::{FaultProcess, UniformProvider};
use xrbench::workload::{SessionSpec, UsageScenario};

/// Four points, two distinct evaluations: cheap to resume.
const SWEEP: &str = r#"{
    "kind": "sweep", "name": "wire", "duration_s": 0.05,
    "accelerators": ["J"], "schedulers": ["latency-greedy", "round-robin"],
    "recovery": ["drop", "requeue"], "workloads": [ { "scenario": "VR Gaming" } ] }"#;

struct Fixtures {
    sweep: SweepDocument,
    /// Valid envelopes: fleet state, sweep state (shard 0 of 2),
    /// complete checkpoint.
    envelopes: [String; 3],
    /// Shard 1 of 2 of the sweep, merged beside a decoded shard 0.
    sweep_shard_1: SweepShardState,
}

fn fixtures() -> &'static Fixtures {
    static FIXTURES: OnceLock<Fixtures> = OnceLock::new();
    FIXTURES.get_or_init(|| {
        let fleet = FleetSpec::new("wire")
            .group(
                "vr",
                SessionSpec::uniform("vr", UsageScenario::VrGaming.spec(), 2, 0.002),
                2,
            )
            .group_faulted(
                "churny",
                SessionSpec::uniform("ar", UsageScenario::ArAssistant.spec(), 1, 0.0),
                2,
                FaultProcess {
                    failure_rate_per_s: 5.0,
                    mean_downtime_s: 0.02,
                    ..FaultProcess::default()
                },
            );
        let config = FleetRunConfig {
            workers: 1,
            ..FleetRunConfig::default()
        };
        let mut fleet_state = run_fleet_shard(
            &fleet,
            &UniformProvider::new(2, 0.002, 0.001),
            &config,
            0,
            2,
        );
        fleet_state.peak_rss_mib = Some(12.5);

        let RunDocument::Sweep(sweep) = RunDocument::from_json_str(SWEEP).expect("valid sweep")
        else {
            panic!("expected a sweep document");
        };
        let path = scratch_dir().join("complete.json");
        let _ = std::fs::remove_file(&path);
        let options = SweepOptions {
            checkpoint: Some(path.clone()),
            limit: None,
        };
        sweep.run_with(&options).expect("the sweep runs");
        let checkpoint = std::fs::read_to_string(&path).expect("the checkpoint was written");
        Fixtures {
            envelopes: [
                fleet_state.to_json(),
                sweep.run_shard(0, 2).to_json(),
                checkpoint,
            ],
            sweep_shard_1: sweep.run_shard(1, 2),
            sweep,
        }
    })
}

fn scratch_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xrbench-wire-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// Feeds one (possibly corrupted) envelope of `kind` to its decoder —
/// and, for sweep states, the merge; for checkpoints, a resume. Every
/// path must return, never panic.
fn feed(kind: usize, text: &str, case: u32) {
    let f = fixtures();
    match kind {
        0 => {
            let _ = ShardState::from_json(text);
        }
        1 => {
            if let Ok(state) = SweepShardState::from_json(text) {
                let _ = f.sweep.merge_shards(&[state, f.sweep_shard_1.clone()]);
            }
        }
        _ => {
            let path = scratch_dir().join(format!("resume-{case}.json"));
            std::fs::write(&path, text).expect("write the corrupted checkpoint");
            let options = SweepOptions {
                checkpoint: Some(path.clone()),
                limit: None,
            };
            let _ = f.sweep.run_with(&options);
            let _ = std::fs::remove_file(&path);
        }
    }
}

/// Bytes a mutation writes: JSON structure, digits, and a few others.
fn mutation_bytes() -> Vec<u8> {
    b"0123456789\"[]{},:-.e \\xz\x00\xff".to_vec()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn truncated_envelopes_never_panic(kind in 0usize..3, at in 0.0f64..1.0, case in 0u32..1_000_000) {
        let text = &fixtures().envelopes[kind];
        let len = (at * text.len() as f64) as usize;
        feed(kind, &text[..len], case);
    }

    #[test]
    fn mutated_envelopes_never_panic(
        kind in 0usize..3,
        at in 0.0f64..1.0,
        byte in prop::sample::select(mutation_bytes()),
        case in 0u32..1_000_000,
    ) {
        let mut bytes = fixtures().envelopes[kind].clone().into_bytes();
        let i = ((at * bytes.len() as f64) as usize).min(bytes.len() - 1);
        bytes[i] = byte;
        feed(kind, &String::from_utf8_lossy(&bytes), case);
    }

    #[test]
    fn digit_mutations_never_panic(
        kind in 0usize..3,
        at in 0.0f64..1.0,
        digit in b'0'..b'9' + 1,
        case in 0u32..1_000_000,
    ) {
        // The text stays well-formed JSON, so the mutation reaches the
        // checks behind the parser: versions, coordinates, indices,
        // bit patterns and counters.
        let mut bytes = fixtures().envelopes[kind].clone().into_bytes();
        let digits: Vec<usize> = (0..bytes.len()).filter(|&i| bytes[i].is_ascii_digit()).collect();
        bytes[digits[((at * digits.len() as f64) as usize).min(digits.len() - 1)]] = digit;
        feed(kind, &String::from_utf8_lossy(&bytes), case);
    }
}

#[test]
fn valid_envelopes_decode_and_resume() {
    let f = fixtures();
    ShardState::from_json(&f.envelopes[0]).expect("the fleet state decodes");
    let state = SweepShardState::from_json(&f.envelopes[1]).expect("the sweep state decodes");
    let merged = f.sweep.merge_shards(&[state, f.sweep_shard_1.clone()]);
    assert_eq!(
        merged.expect("the two shards merge").to_json(),
        f.sweep.run().to_json()
    );
    let path = scratch_dir().join("valid.json");
    std::fs::write(&path, &f.envelopes[2]).expect("write the checkpoint");
    let options = SweepOptions {
        checkpoint: Some(path),
        limit: None,
    };
    let resumed = f.sweep.run_with(&options).expect("the checkpoint resumes");
    assert_eq!(resumed.stats.resumed, 4);
    assert_eq!(resumed.stats.evaluated, 0);
}
