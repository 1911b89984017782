//! Round-trip property test for the declarative spec layer.
//!
//! The single-validation-path invariant promises that a scenario
//! serialized to a spec file and reloaded through the loader is the
//! *same workload*: not just an equal `ScenarioSpec`, but one whose
//! simulated and scored reports are byte-identical to the in-memory
//! builder path. This suite pins that for every builtin Table 2
//! scenario and for 64 procedurally sampled scenarios spanning the
//! generator's design space.

use xrbench::prelude::*;

/// Serialize → reload one scenario, asserting loader success.
fn reload(spec: &ScenarioSpec) -> ScenarioSpec {
    let json = scenario_to_json(spec);
    scenario_from_str(&json).unwrap_or_else(|e| panic!("{}: {e}", spec.name))
}

fn catalog_of(specs: &[ScenarioSpec]) -> ScenarioCatalog {
    let mut c = ScenarioCatalog::new();
    for s in specs {
        c.register(s.clone()).expect("unique names");
    }
    c
}

#[test]
fn builtin_scenarios_round_trip_to_byte_identical_suite_reports() {
    let originals: Vec<ScenarioSpec> = UsageScenario::ALL.iter().map(|s| s.spec()).collect();
    let reloaded: Vec<ScenarioSpec> = originals.iter().map(reload).collect();

    let system = xrbench::sim::UniformProvider::new(2, 0.002, 0.001);
    let harness = Harness::new();
    let direct = run_suite_catalog(&harness, &system, 2, &catalog_of(&originals));
    let via_spec = run_suite_catalog(&harness, &system, 2, &catalog_of(&reloaded));
    assert_eq!(direct, via_spec);
    assert_eq!(direct.to_json(), via_spec.to_json());
}

#[test]
fn sampled_scenarios_round_trip_to_byte_identical_reports() {
    let space = ScenarioSpace::default();
    let originals = space.sample_many(0xD1CE, 64);
    let reloaded: Vec<ScenarioSpec> = originals.iter().map(reload).collect();
    assert_eq!(originals, reloaded);

    // One suite over all 64 sampled scenarios: byte-identical reports.
    let system = xrbench::sim::UniformProvider::new(2, 0.002, 0.001);
    let harness = Harness::new();
    let direct = run_suite_catalog(&harness, &system, 2, &catalog_of(&originals));
    let via_spec = run_suite_catalog(&harness, &system, 2, &catalog_of(&reloaded));
    assert_eq!(direct.to_json(), via_spec.to_json());
}

#[test]
fn sampled_session_round_trips_through_the_session_loader() {
    // A mixed 16-user session drawing from 8 sampled scenarios,
    // exported as a session document (local scenario definitions
    // inline) and reloaded against the builtin catalog.
    let specs = ScenarioSpace::default().sample_many(0xBEEF, 8);
    let session = SessionSpec::mixed("sampled-mix", &specs, 16, 0.003);
    let json = session_to_json(&session);
    let reloaded =
        session_from_str(&json, &ScenarioCatalog::builtin()).unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(reloaded, session);

    let system = xrbench::sim::UniformProvider::new(3, 0.002, 0.001);
    let harness = Harness::new().with_seed(11);
    let direct = harness.run_session(&session, &system, &mut LatencyGreedy::new());
    let via_spec = harness.run_session(&reloaded, &system, &mut LatencyGreedy::new());
    assert_eq!(direct, via_spec);
    assert_eq!(direct.to_json(), via_spec.to_json());
}

#[test]
fn builtin_session_and_fleet_documents_round_trip_via_fleet_loader() {
    let session = SessionSpec::mixed(
        "mix",
        &[
            UsageScenario::VrGaming.spec(),
            UsageScenario::OutdoorActivityA.spec(),
        ],
        6,
        0.004,
    );
    let fleet = FleetSpec::new("rt").group("g", session, 3);
    let json = xrbench::fleet::fleet_to_json(&fleet);
    let reloaded = xrbench::fleet::fleet_from_str(&json, &ScenarioCatalog::builtin()).unwrap();
    assert_eq!(reloaded, fleet);

    let system = xrbench::sim::UniformProvider::new(2, 0.002, 0.001);
    let config = FleetRunConfig {
        workers: 2,
        ..Default::default()
    };
    let direct = run_fleet(&fleet, &system, &config);
    let via_spec = run_fleet(&reloaded, &system, &config);
    assert_eq!(direct.to_json(), via_spec.to_json());
}
