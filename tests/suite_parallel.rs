//! Workspace smoke test for the public suite entry point: `run_suite`
//! fans the (scenario, repeat) job grid across worker threads, yet its
//! report must equal the suite run one scenario after another through
//! the public `Harness` — identical scores for every Table 5
//! accelerator — while it really uses more than one worker thread.
//!
//! At one repeat every scenario runs exactly once on the harness seed,
//! so the serial reference below needs no private code. The
//! `core::suite` unit tests prove the crate-private serial and
//! parallel strategies equal at several repeat and worker counts,
//! which covers the averaging of dynamic scenarios over seeds.

use std::sync::{Condvar, Mutex};
use std::thread::ThreadId;
use std::time::Duration;

use xrbench::prelude::*;
use xrbench::sim::UniformProvider;
use xrbench::workload::ScenarioCatalog;

/// The suite at one repeat, run serially through public pieces: each
/// Table 2 scenario once, in catalog order, under the default
/// latency-greedy scheduler, scored as Definition 16's mean.
fn serial_suite(harness: &Harness, system: &dyn CostProvider) -> BenchmarkReport {
    let scenarios: Vec<ScenarioReport> = ScenarioCatalog::builtin()
        .iter()
        .map(|spec| harness.run_spec(spec, system, &mut LatencyGreedy::new()).0)
        .collect();
    let overall: Vec<f64> = scenarios.iter().map(ScenarioReport::overall).collect();
    BenchmarkReport {
        system: system.label(),
        xrbench_score: benchmark_score(&overall),
        scenarios,
    }
}

/// Wraps a provider and makes the first cost query of each worker
/// *rendezvous*: it blocks until `quorum` distinct threads have
/// arrived (or a timeout expires). This makes "the parallel runner
/// really uses multiple workers" a deterministic observation instead
/// of a scheduling race — a single worker could otherwise drain the
/// whole job queue before a second one is ever scheduled.
struct ThreadRendezvous<P> {
    inner: P,
    quorum: usize,
    seen: Mutex<Vec<ThreadId>>,
    arrived: Condvar,
}

impl<P: CostProvider> CostProvider for ThreadRendezvous<P> {
    fn num_engines(&self) -> usize {
        self.inner.num_engines()
    }

    fn label(&self) -> String {
        self.inner.label()
    }

    fn cost(&self, model: xrbench::models::ModelId, engine: usize) -> InferenceCost {
        let mut seen = self.seen.lock().expect("probe lock");
        let me = std::thread::current().id();
        if !seen.contains(&me) {
            seen.push(me);
            self.arrived.notify_all();
            // Hold each newly-arrived worker (once) until the quorum
            // shows up, so the first worker cannot race through every
            // job alone. The one-shot timeout keeps the test bounded if
            // the runner ever regresses to a single worker — the
            // assertion then reports it.
            while seen.len() < self.quorum {
                let (guard, timeout) = self
                    .arrived
                    .wait_timeout(seen, Duration::from_secs(10))
                    .expect("probe lock");
                seen = guard;
                if timeout.timed_out() {
                    break;
                }
            }
        }
        drop(seen);
        self.inner.cost(model, engine)
    }
}

#[test]
fn parallel_suite_matches_serial_for_all_13_accelerators() {
    let harness = Harness::new();
    for cfg in table5() {
        let system = AcceleratorSystem::new(cfg, 4096);
        let parallel = run_suite(&harness, &system, 1);
        assert_eq!(
            parallel,
            serial_suite(&harness, &system),
            "parallel suite diverged from serial on {}",
            system.label()
        );
        assert_eq!(parallel.scenarios.len(), 7);
    }
}

#[test]
fn run_suite_defaults_to_the_parallel_path_bit_for_bit() {
    let system =
        AcceleratorSystem::new(table5().into_iter().find(|c| c.id == 'J').expect("J"), 8192);
    let harness = Harness::new().with_seed(7);
    let via_default = run_suite(&harness, &system, 1);
    assert_eq!(via_default, serial_suite(&harness, &system));
}

#[test]
fn parallel_suite_uses_more_than_one_worker_thread() {
    let probe = ThreadRendezvous {
        inner: UniformProvider::new(2, 0.001, 0.001),
        quorum: 2,
        seen: Mutex::new(Vec::new()),
        arrived: Condvar::new(),
    };
    let report = run_suite(&Harness::new(), &probe, 3);
    assert_eq!(report.scenarios.len(), 7);
    let threads = probe.seen.lock().expect("probe lock").len();
    assert!(threads > 1, "expected >1 worker thread, saw {threads}");
}
