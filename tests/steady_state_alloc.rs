//! Proves the production engine's steady-state loop is allocation-free
//! (PR 8 acceptance): a counting global allocator wraps the system
//! allocator, and a folded session run asserts that **zero** heap
//! allocations happen between a post-warm-up checkpoint and a
//! pre-teardown checkpoint taken inside the record sink. The check
//! runs once per shipped scheduler fault-free, and once per shipped
//! scheduler and recovery policy under a churny [`FaultProcess`]
//! (failures, preemptions and throttling, so dispatches are revoked,
//! dropped, requeued and migrated inside the window). The four kernel
//! schedulers cover both request orders (EDF and FIFO) and every engine
//! rule of the indexed path, and `slack-edf` covers the `select` path
//! over the view buffer.
//!
//! The engine pre-sizes its state from spec-derived bounds (the
//! completion heap, the stash of due completions, the free set and a
//! faulted run's per-engine in-flight slots and sub-epsilon list from
//! the engine count, queues, the pick heap and dispatch tables from the
//! dense `users × models` key space) and `Vec` growth retains capacity,
//! so any transient growth happens in the warm-up prefix; after that
//! every event is served from pre-sized storage. A faulted run's fault
//! timeline is expanded before the loop starts.
//!
//! A session of at least [`PREFETCH_MIN_REQUESTS`] requests generates
//! its arrivals on a helper thread when the host has a second core. The
//! counting allocator sees every thread, so one more pass over such a
//! session shows that the helper and its batch hand-off allocate
//! nothing in steady state either: the batches are allocated before
//! the loop starts and recycled after.
//!
//! This file deliberately holds a single `#[test]` so no concurrent
//! test can allocate on another thread inside the measured window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use xrbench::sim::{
    ExecRecord, FailoverAware, FaultProcess, LatencyGreedy, LeastLoaded, RecoveryPolicy,
    RoundRobin, Scheduler, SimConfig, Simulator, SlackAwareEdf, ThrottleSpec, UniformProvider,
    PREFETCH_MIN_REQUESTS,
};
use xrbench::workload::{ScenarioCatalog, ScenarioSpec, SessionSpec};

/// Counts every allocation routed through the global allocator.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static TRACE: AtomicU64 = AtomicU64::new(0);
static TRACE_SIZES: [AtomicU64; 16] = [const { AtomicU64::new(0) }; 16];

// SAFETY: defers entirely to the system allocator; the counter is a
// relaxed atomic with no effect on allocation behavior.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let n = ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        if TRACE.load(Ordering::Relaxed) == 1 {
            TRACE_SIZES[(n % 16) as usize].store(layout.size() as u64, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let n = ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        if TRACE.load(Ordering::Relaxed) == 1 {
            TRACE_SIZES[(n % 16) as usize].store(1_000_000 + new_size as u64, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Builds a fresh scheduler for each pass.
type SchedulerFactory = fn() -> Box<dyn Scheduler>;

/// One folded run of the probe session under a fresh scheduler,
/// streaming its records to the sink it is handed.
type FoldedRun<'a> = &'a dyn Fn(&mut dyn FnMut(u32, &ExecRecord));

/// Runs one sizing pass and one measured pass of `run`, and asserts
/// that the measured pass allocates nothing between its warm-up and
/// teardown checkpoints.
fn assert_steady_state_allocation_free(name: &str, run: FoldedRun<'_>) {
    // Sizing pass: learn the record count so the checkpoints can sit
    // at fixed fractions of the run.
    let mut total = 0u64;
    run(&mut |_, _| total += 1);
    assert!(
        total > 1000,
        "{name}: alloc probe needs a substantial run, got {total} records"
    );

    // Measured pass: warm-up ends at half the run (transient Vec
    // growth retains capacity, so it is confined to the prefix), and
    // the window closes just before teardown.
    let warmup_end = total / 2;
    let window_end = total * 9 / 10;
    let mut seen = 0u64;
    let mut at_warmup = 0u64;
    let mut at_end = 0u64;
    run(&mut |_, _| {
        seen += 1;
        if seen == warmup_end {
            at_warmup = ALLOCATIONS.load(Ordering::Relaxed);
            TRACE.store(1, Ordering::Relaxed);
        } else if seen == window_end {
            at_end = ALLOCATIONS.load(Ordering::Relaxed);
            TRACE.store(0, Ordering::Relaxed);
        }
    });
    assert!(seen == total, "{name}: replay diverged: {seen} != {total}");
    let sizes: Vec<u64> = TRACE_SIZES
        .iter()
        .map(|s| s.load(Ordering::Relaxed))
        .filter(|&s| s != 0)
        .collect();
    eprintln!("{name}: window alloc sizes (realloc = 1e6 + size): {sizes:?}");
    assert!(
        at_warmup > 0 && at_end > 0,
        "{name}: checkpoints never fired"
    );
    assert_eq!(
        at_end - at_warmup,
        0,
        "{name}: steady-state loop allocated {} times between {}% and {}% of the run",
        at_end - at_warmup,
        100 * warmup_end / total,
        100 * window_end / total,
    );
}

#[test]
fn steady_state_loop_does_not_allocate() {
    // A mixed multi-user session over every built-in scenario:
    // dependencies, cascades, supersession, and both dispatch paths
    // are all on the measured path, under every shipped scheduler.
    let users = 64u32;
    let provider = UniformProvider::new(8, 0.001, 0.001);
    let specs: Vec<ScenarioSpec> = ScenarioCatalog::builtin().iter().cloned().collect();
    let session = SessionSpec::mixed("alloc-probe", &specs, users, 0.002);
    let sim = Simulator::new(SimConfig::default());
    let schedulers: [(&str, SchedulerFactory); 5] = [
        ("latency-greedy", || Box::new(LatencyGreedy::new())),
        ("round-robin", || Box::new(RoundRobin::new())),
        ("slack-edf", || Box::new(SlackAwareEdf::new())),
        ("least-loaded", || Box::new(LeastLoaded::new())),
        ("failover-aware", || Box::new(FailoverAware::new())),
    ];
    // The faulted passes run on 32 engines at 4 ms, so a few dozen
    // dispatches are in flight at once: more than one node of a
    // token-keyed B-tree holds. Per engine and second the process
    // brings 3 failures and 6 preemptions, and throttles half the time,
    // so the measured window sees dozens of each.
    let faulted_provider = UniformProvider::new(32, 0.004, 0.001);
    let churn = FaultProcess {
        failure_rate_per_s: 3.0,
        mean_downtime_s: 0.05,
        preemption_rate_per_s: 6.0,
        mean_preemption_s: 0.02,
        throttle: Some(ThrottleSpec {
            period_s: 0.2,
            duty: 0.5,
            factor: 0.5,
        }),
    };
    // 256 users for 3 s issue more than PREFETCH_MIN_REQUESTS requests,
    // so on a host with two or more cores their arrivals come from the
    // helper thread.
    let large = SessionSpec::mixed("alloc-probe-prefetched", &specs, 256, 0.002);
    let long = Simulator::new(SimConfig {
        duration_s: 3.0,
        ..SimConfig::default()
    });
    assert!(large.request_count(3.0) >= PREFETCH_MIN_REQUESTS);
    let wide_provider = UniformProvider::new(32, 0.001, 0.001);
    assert_steady_state_allocation_free("latency-greedy, prefetched arrivals", &|sink| {
        long.run_session_folded(&large, &wide_provider, &mut LatencyGreedy::new(), sink);
    });
    for (name, make) in schedulers {
        assert_steady_state_allocation_free(name, &|sink| {
            sim.run_session_folded(&session, &provider, make().as_mut(), sink);
        });
        for policy in RecoveryPolicy::ALL {
            let faulted = format!("{name}, faulted, {policy}");
            assert_steady_state_allocation_free(&faulted, &|sink| {
                let (mut scheduler, provider) = (make(), &faulted_provider);
                let scheduler = scheduler.as_mut();
                sim.run_session_folded_faulted(&session, provider, scheduler, &churn, policy, sink);
            });
        }
    }
}
