//! End-to-end tests for the `xrbench` binary.
//!
//! Three invariants are pinned here, and re-checked by the `cli-smoke`
//! CI job on every push:
//!
//! 1. **`specs/` never drifts**: `export-specs` into a scratch
//!    directory must reproduce the committed `specs/` tree
//!    byte-for-byte.
//! 2. **CLI = library**: `run-suite specs/suite_default.json` must
//!    emit exactly the JSON the library's `run_suite` path produces
//!    (the quickstart configuration, XRBench Score 0.888).
//! 3. **Reports are frozen**: all four default run documents, and the
//!    faulted `run-fleet --compare-policies` report, must reproduce the
//!    golden fixtures in `tests/fixtures/cli/`.
//!
//! To re-bless after an intentional change:
//!
//! ```sh
//! XRBENCH_BLESS=1 cargo test -p xrbench-cli
//! ```

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .canonicalize()
        .expect("workspace root exists")
}

fn bless() -> bool {
    std::env::var("XRBENCH_BLESS").is_ok_and(|v| v == "1")
}

fn xrbench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_xrbench"))
        .args(args)
        .current_dir(repo_root())
        .output()
        .expect("spawn xrbench")
}

fn stdout_of(args: &[&str]) -> String {
    let out = xrbench(args);
    assert!(
        out.status.success(),
        "xrbench {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 report")
}

/// A scratch directory unique to one test, cleaned up on entry.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xrbench-cli-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("readable dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            walk(&path, files);
        } else {
            files.push(path);
        }
    }
}

fn relative_files(dir: &Path) -> Vec<(PathBuf, String)> {
    let mut files = Vec::new();
    walk(dir, &mut files);
    let mut out: Vec<(PathBuf, String)> = files
        .into_iter()
        .map(|p| {
            let rel = p.strip_prefix(dir).expect("under root").to_path_buf();
            let body = fs::read_to_string(&p).unwrap_or_else(|e| panic!("{}: {e}", p.display()));
            (rel, body)
        })
        .collect();
    out.sort();
    out
}

#[test]
fn export_specs_matches_committed_directory() {
    let committed = repo_root().join("specs");
    if bless() {
        let out = xrbench(&["export-specs", "--dir", committed.to_str().unwrap()]);
        assert!(out.status.success());
        return;
    }
    let dir = scratch("export");
    let out = xrbench(&["export-specs", "--dir", dir.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let exported = relative_files(&dir);
    assert!(!exported.is_empty(), "export produced no files");
    let committed = relative_files(&committed);
    let names =
        |v: &[(PathBuf, String)]| -> Vec<PathBuf> { v.iter().map(|(p, _)| p.clone()).collect() };
    assert_eq!(
        names(&exported),
        names(&committed),
        "specs/ file set drifted from export-specs (re-bless with XRBENCH_BLESS=1)"
    );
    for ((path, exported_body), (_, committed_body)) in exported.iter().zip(&committed) {
        assert_eq!(
            exported_body,
            committed_body,
            "specs/{} drifted from export-specs (re-bless with XRBENCH_BLESS=1)",
            path.display()
        );
    }
}

#[test]
fn suite_cli_is_bit_identical_to_the_library_path() {
    use xrbench_accel::{config_by_id, AcceleratorSystem};
    use xrbench_core::{run_suite, Harness};

    // The library quickstart configuration: accelerator J at 8192 PEs,
    // 10 repeats, default seed and duration.
    let system = AcceleratorSystem::new(config_by_id('J').expect("J exists"), 8192);
    let expected = run_suite(&Harness::new(), &system, 10);

    let stdout = stdout_of(&["run-suite", "specs/suite_default.json"]);
    assert_eq!(
        stdout,
        expected.to_json() + "\n",
        "CLI suite report diverged from the library path"
    );
    assert!(
        (expected.xrbench_score - 0.888).abs() < 5e-4,
        "quickstart XRBench Score moved: {}",
        expected.xrbench_score
    );
}

#[test]
fn run_documents_match_golden_fixtures() {
    let fixture_dir = repo_root().join("tests").join("fixtures").join("cli");
    let cases = [
        (
            "run-suite",
            "specs/suite_default.json",
            "suite_default.report.json",
        ),
        (
            "run-session",
            "specs/session_default.json",
            "session_default.report.json",
        ),
        (
            "run-fleet",
            "specs/fleet_default.json",
            "fleet_default.report.json",
        ),
        (
            "sweep",
            "specs/sweep_default.json",
            "sweep_default.report.json",
        ),
    ];
    if bless() {
        fs::create_dir_all(&fixture_dir).expect("create fixture dir");
    }
    let mut mismatches = Vec::new();
    for (subcommand, spec, fixture) in cases {
        let stdout = stdout_of(&[subcommand, spec]);
        let path = fixture_dir.join(fixture);
        if bless() {
            fs::write(&path, &stdout).expect("write fixture");
            continue;
        }
        let expected = fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing fixture {}: {e}", path.display()));
        if expected != stdout {
            mismatches.push(fixture);
        }
    }
    assert!(
        mismatches.is_empty(),
        "CLI reports diverge from golden fixtures: {mismatches:?} \
         (run with XRBENCH_BLESS=1 to re-bless after an intentional change)"
    );
}

#[test]
fn out_flag_writes_the_stdout_bytes() {
    let stdout = stdout_of(&["run-session", "specs/session_default.json"]);
    let dir = scratch("out");
    let out_file = dir.join("report.json");
    let run = xrbench(&[
        "run-session",
        "specs/session_default.json",
        "--out",
        out_file.to_str().unwrap(),
    ]);
    assert!(run.status.success());
    assert!(run.stdout.is_empty(), "--out must suppress stdout");
    assert_eq!(fs::read_to_string(&out_file).unwrap(), stdout);
}

#[test]
fn out_flag_failures_exit_nonzero_with_a_diagnostic() {
    // The --out parent collides with an existing *file*, so the
    // directory cannot be created: exit 1, a `cannot create`
    // diagnostic on stderr, and no panic.
    let dir = scratch("badout");
    let blocker = dir.join("blocker");
    fs::write(&blocker, "not a directory").unwrap();
    let nested = blocker.join("sub").join("report.json");
    let out = xrbench(&[
        "run-session",
        "specs/session_default.json",
        "--out",
        nested.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(stderr.contains("cannot create"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");

    // The --out target itself is a directory: the write fails with
    // `cannot write`, again without a panic.
    let out = xrbench(&[
        "run-session",
        "specs/session_default.json",
        "--out",
        dir.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(stderr.contains("cannot write"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn compare_policies_replays_the_fleet_per_recovery_policy() {
    let dir = scratch("compare");
    let spec = dir.join("faulted_fleet.json");
    fs::write(
        &spec,
        r#"{
  "kind": "fleet",
  "hardware": { "accelerator": { "id": "J", "pes": 8192 } },
  "fleet": {
    "name": "churny",
    "groups": [
      {
        "name": "vr",
        "replicas": 2,
        "session": {
          "name": "party",
          "uniform": { "scenario": "VR Gaming", "users": 2, "stagger_s": 0.002 }
        },
        "faults": {
          "failure_rate_per_s": 2.0,
          "mean_downtime_s": 0.05,
          "preemption_rate_per_s": 4.0,
          "mean_preemption_s": 0.02
        }
      }
    ]
  }
}"#,
    )
    .unwrap();
    let out = xrbench(&["run-fleet", spec.to_str().unwrap(), "--compare-policies"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 report");
    for policy in ["drop", "requeue", "migrate"] {
        assert!(
            stdout.contains(&format!("\"policy\": \"{policy}\"")),
            "missing `{policy}` row:\n{stdout}"
        );
    }
    // The human-readable comparison table lands on stderr.
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(stderr.contains("policy"), "{stderr}");
    assert!(stderr.contains("migrate"), "{stderr}");

    // Byte-identical on replay: the comparison shares one fault seed.
    let again = xrbench(&["run-fleet", spec.to_str().unwrap(), "--compare-policies"]);
    assert_eq!(again.stdout, stdout.as_bytes());

    // Frozen against a golden fixture: the one committed report of a
    // faulted run, covering all three recovery policies.
    let fixture = repo_root()
        .join("tests")
        .join("fixtures")
        .join("cli")
        .join("fleet_compare_policies.report.json");
    if bless() {
        fs::write(&fixture, &stdout).expect("write fixture");
    } else {
        let expected = fs::read_to_string(&fixture)
            .unwrap_or_else(|e| panic!("missing fixture {}: {e}", fixture.display()));
        assert!(
            expected == stdout,
            "--compare-policies report diverged from {} \
             (run with XRBENCH_BLESS=1 to re-bless after an intentional change)",
            fixture.display()
        );
    }

    // The flag is fleet-only: usage error (exit 2) elsewhere.
    let out = xrbench(&[
        "run-session",
        "specs/session_default.json",
        "--compare-policies",
    ]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn sharded_fleet_run_is_byte_identical_to_single_process() {
    let dir = scratch("sharded");
    let spec = dir.join("fleet.json");
    fs::write(
        &spec,
        r#"{
  "kind": "fleet",
  "hardware": { "accelerator": { "id": "J", "pes": 8192 } },
  "fleet": {
    "name": "arcade",
    "groups": [
      {
        "name": "vr",
        "replicas": 3,
        "session": {
          "name": "party",
          "uniform": { "scenario": "VR Gaming", "users": 2, "stagger_s": 0.002 }
        }
      },
      {
        "name": "churny",
        "replicas": 2,
        "session": {
          "name": "social",
          "uniform": { "scenario": "Social Interaction A", "users": 2, "stagger_s": 0.003 }
        },
        "faults": {
          "failure_rate_per_s": 2.0,
          "mean_downtime_s": 0.05,
          "preemption_rate_per_s": 4.0,
          "mean_preemption_s": 0.02
        }
      }
    ]
  }
}"#,
    )
    .unwrap();
    let spec = spec.to_str().unwrap();
    let reference = xrbench(&["run-fleet", spec]);
    assert!(
        reference.status.success(),
        "{}",
        String::from_utf8_lossy(&reference.stderr)
    );
    // Multi-process coordinator: same bytes on stdout, for any shard
    // count and concurrency bound.
    for shards in ["2", "3", "5"] {
        let sharded = xrbench(&["run-fleet", spec, "--shards", shards, "--max-procs", "2"]);
        assert!(
            sharded.status.success(),
            "--shards {shards}: {}",
            String::from_utf8_lossy(&sharded.stderr)
        );
        assert_eq!(
            sharded.stdout, reference.stdout,
            "--shards {shards} diverged from the single-process report"
        );
        let stderr = String::from_utf8_lossy(&sharded.stderr).to_string();
        assert!(stderr.contains("sharding across"), "{stderr}");
    }
    // Child mode emits a shard state, not a report.
    let child = xrbench(&["run-fleet", spec, "--shard", "0/3"]);
    assert!(
        child.status.success(),
        "{}",
        String::from_utf8_lossy(&child.stderr)
    );
    let state = String::from_utf8(child.stdout).expect("utf-8 state");
    assert!(state.contains("\"xrbench_shard_state\""), "{state}");
    assert!(!state.contains("fleet_score"), "child leaked a report");
}

#[test]
fn sweep_resume_and_shards_are_byte_identical_to_the_straight_run() {
    let dir = scratch("sweep");
    let spec = "specs/sweep_default.json";

    let reference = xrbench(&["sweep", spec]);
    assert!(
        reference.status.success(),
        "{}",
        String::from_utf8_lossy(&reference.stderr)
    );
    let notes = String::from_utf8_lossy(&reference.stderr).to_string();
    // The committed default sweep dedupes its collapsed recovery axis
    // through the memo cache: the hit rate must be nonzero.
    assert!(notes.contains("cache hits"), "{notes}");
    assert!(!notes.contains(" 0 cache hits"), "{notes}");

    // Kill-and-resume: a --limit run leaves a checkpoint and no
    // report; rerunning against the checkpoint resumes and emits the
    // same bytes as the straight run.
    let ck = dir.join("checkpoint.json");
    let partial = xrbench(&[
        "sweep",
        spec,
        "--checkpoint",
        ck.to_str().unwrap(),
        "--limit",
        "7",
    ]);
    assert!(
        partial.status.success(),
        "{}",
        String::from_utf8_lossy(&partial.stderr)
    );
    assert!(partial.stdout.is_empty(), "--limit must not emit a report");
    assert!(ck.exists(), "--checkpoint must leave the progress file");
    let resumed = xrbench(&["sweep", spec, "--checkpoint", ck.to_str().unwrap()]);
    assert!(
        resumed.status.success(),
        "{}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    let resumed_notes = String::from_utf8_lossy(&resumed.stderr).to_string();
    assert!(resumed_notes.contains("resumed 7"), "{resumed_notes}");
    assert_eq!(
        resumed.stdout, reference.stdout,
        "resumed sweep diverged from the straight run"
    );

    // Multi-process coordinator: same bytes for any shard count.
    for shards in ["2", "4"] {
        let sharded = xrbench(&["sweep", spec, "--shards", shards, "--max-procs", "2"]);
        assert!(
            sharded.status.success(),
            "--shards {shards}: {}",
            String::from_utf8_lossy(&sharded.stderr)
        );
        assert_eq!(
            sharded.stdout, reference.stdout,
            "--shards {shards} diverged from the single-process sweep"
        );
    }

    // Child mode emits a shard state, not a report.
    let child = xrbench(&["sweep", spec, "--shard", "0/4"]);
    assert!(
        child.status.success(),
        "{}",
        String::from_utf8_lossy(&child.stderr)
    );
    let state = String::from_utf8(child.stdout).expect("utf-8 state");
    assert!(state.contains("\"xrbench_sweep_state\""), "{state}");
    assert!(!state.contains("pareto"), "child leaked a report");
}

#[test]
fn kind_mismatch_and_bad_specs_fail_cleanly() {
    // Suite subcommand on a session document: exit 1, points at the
    // right subcommand.
    let out = xrbench(&["run-suite", "specs/session_default.json"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(stderr.contains("run-session"), "{stderr}");

    // A sweep document under run-suite points at `xrbench sweep`
    // (the one subcommand without the `run-` prefix), and vice versa.
    let out = xrbench(&["run-suite", "specs/sweep_default.json"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(stderr.contains("use `xrbench sweep`"), "{stderr}");
    let out = xrbench(&["sweep", "specs/suite_default.json"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(stderr.contains("use `xrbench run-suite`"), "{stderr}");

    // Unknown subcommands enumerate the real ones (exit 2).
    let out = xrbench(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(
        stderr.contains("unknown subcommand `frobnicate`"),
        "{stderr}"
    );
    for sub in ["run-suite", "run-session", "run-fleet", "sweep", "analyze"] {
        assert!(stderr.contains(sub), "missing `{sub}` in: {stderr}");
    }

    // Malformed JSON: exit 1 with the parser's diagnostic.
    let dir = scratch("badspec");
    let bad = dir.join("bad.json");
    fs::write(&bad, "{ not json").unwrap();
    let out = xrbench(&["run-suite", bad.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("invalid JSON"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // A semantically invalid spec: the builder's diagnostic reaches
    // stderr, with no panic.
    let invalid = dir.join("invalid.json");
    fs::write(
        &invalid,
        r#"{ "kind": "suite",
             "hardware": { "uniform": { "engines": 1, "latency_s": 0.001, "energy_j": 0.0 } },
             "scenarios": [ { "name": "x", "models": [
                 { "model": "KD", "target_fps": 10.0 } ] } ] }"#,
    )
    .unwrap();
    let out = xrbench(&["run-suite", invalid.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(stderr.contains("exceeds its sensor's"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");

    // Usage errors exit 2.
    let out = xrbench(&["run-suite"]);
    assert_eq!(out.status.code(), Some(2));
    let out = xrbench(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn pathologically_nested_json_is_an_error_not_a_crash() {
    // 200,000 unclosed `[`: the parser's depth limit must turn this
    // into a diagnostic and exit 1, not a stack-overflow abort (134).
    let dir = scratch("deep");
    let deep = dir.join("deep.json");
    fs::write(&deep, "[".repeat(200_000)).unwrap();
    let out = xrbench(&["run-suite", deep.to_str().unwrap()]);
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("invalid JSON"), "{stderr}");
    assert!(stderr.contains("nesting deeper than"), "{stderr}");
}

#[test]
fn gen_scenarios_writes_loadable_deterministic_files() {
    let dir = scratch("gen");
    let out = xrbench(&[
        "gen-scenarios",
        "--seed",
        "42",
        "--count",
        "5",
        "--out-dir",
        dir.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let files = relative_files(&dir);
    assert_eq!(files.len(), 5);
    for (name, body) in &files {
        let spec = xrbench_workload::scenario_from_str(body)
            .unwrap_or_else(|e| panic!("{}: {e}", name.display()));
        assert!(spec.name.starts_with("Sampled #"), "{}", spec.name);
    }
    // Same seed → same files.
    let dir2 = scratch("gen2");
    let out = xrbench(&[
        "gen-scenarios",
        "--seed",
        "42",
        "--count",
        "5",
        "--out-dir",
        dir2.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    assert_eq!(files, relative_files(&dir2));
}

#[test]
fn analyze_exit_codes_track_static_feasibility() {
    // The acceptance bar: the committed default suite is analyzer-clean.
    let out = xrbench(&["analyze", "specs/suite_default.json"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("0 error(s)"), "{text}");

    // A bare scenario spec analyzes against the default J@8192 system.
    let out = xrbench(&["analyze", "specs/scenarios/vr_gaming.json"]);
    assert_eq!(out.status.code(), Some(0));

    // Each hand-crafted infeasible fixture exits 1, and its JSON form
    // is byte-identical to the committed golden diagnostic file.
    for name in [
        "infeasible_unsustainable",
        "infeasible_cascade",
        "infeasible_overload",
        "infeasible_faulted",
    ] {
        let spec = format!("tests/fixtures/analyze/{name}.spec.json");
        let out = xrbench(&["analyze", &spec, "--json"]);
        assert_eq!(
            out.status.code(),
            Some(1),
            "{name} must analyze with errors:\n{}",
            String::from_utf8_lossy(&out.stdout)
        );
        let golden = repo_root()
            .join("tests")
            .join("fixtures")
            .join("analyze")
            .join(format!("{name}.diag.json"));
        let expected = fs::read_to_string(&golden)
            .unwrap_or_else(|e| panic!("missing {} ({e}); bless via analysis_golden", name));
        assert_eq!(
            String::from_utf8_lossy(&out.stdout),
            expected,
            "{name}: `analyze --json` diverged from the golden fixture \
             (re-bless with XRBENCH_BLESS=1 cargo test --test analysis_golden)"
        );
    }
}

#[test]
fn strict_runs_refuse_infeasible_specs_and_plain_runs_hint() {
    let spec = "tests/fixtures/analyze/infeasible_cascade.spec.json";

    // --strict: refuse before simulating, exit 1, name the errors.
    let out = xrbench(&["run-suite", spec, "--strict"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(stderr.contains("statically-infeasible"), "{stderr}");
    assert!(stderr.contains("XA002"), "{stderr}");
    assert!(out.stdout.is_empty(), "--strict must not emit a report");

    // Without --strict: the run proceeds, but one-line analyzer hints
    // land on stderr before the report.
    let out = xrbench(&["run-suite", spec]);
    assert_eq!(out.status.code(), Some(0));
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(stderr.contains("analyze: "), "{stderr}");
    assert!(stderr.contains("XA002"), "{stderr}");
    assert!(stderr.contains("--strict"), "{stderr}");
    assert!(!out.stdout.is_empty(), "the report must still be produced");

    // A clean spec stays hint-free.
    let out = xrbench(&["run-session", "specs/session_default.json", "--strict"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(
        !String::from_utf8_lossy(&out.stderr).contains("analyze: "),
        "clean specs must not produce analyzer hints"
    );
}

#[test]
fn feasible_gen_scenarios_filters_against_the_default_system() {
    let dir = scratch("gen-feasible");
    // A tiny accelerator (A at 512 PEs) makes several default-space
    // draws infeasible, so --feasible actually has to resample.
    let out = xrbench(&[
        "gen-scenarios",
        "--seed",
        "7",
        "--count",
        "6",
        "--feasible",
        "--accelerator",
        "A",
        "--pes",
        "512",
        "--out-dir",
        dir.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let files = relative_files(&dir);
    assert_eq!(files.len(), 6);
    let system =
        xrbench_accel::AcceleratorSystem::new(xrbench_accel::config_by_id('A').unwrap(), 512);
    for (name, body) in &files {
        let spec = xrbench_workload::scenario_from_str(body)
            .unwrap_or_else(|e| panic!("{}: {e}", name.display()));
        let analysis = xrbench_analysis::analyze_scenario(&spec, &system);
        assert!(
            !analysis.has_errors(),
            "{}: --feasible emitted an infeasible spec:\n{}",
            name.display(),
            analysis.to_text()
        );
    }
}

#[test]
fn exported_scenarios_reload_into_the_builtin_catalog() {
    let scenarios_dir = repo_root().join("specs").join("scenarios");
    let mut loaded = 0;
    for (name, body) in relative_files(&scenarios_dir) {
        let spec = xrbench_workload::scenario_from_str(&body)
            .unwrap_or_else(|e| panic!("{}: {e}", name.display()));
        let builtin = xrbench_workload::ScenarioCatalog::builtin();
        assert_eq!(
            builtin.get(&spec.name),
            Some(&spec),
            "{}: committed spec drifted from the builtin scenario",
            name.display()
        );
        loaded += 1;
    }
    assert_eq!(loaded, 7, "expected the seven Table 2 scenario files");
}
