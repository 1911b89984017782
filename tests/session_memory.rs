//! Proves a folded session's memory does not grow with simulated time:
//! a counting global allocator tracks live heap bytes and their
//! high-water mark, and the peak of a 4 s run may exceed that of a 1 s
//! run by at most 64 KiB.
//!
//! Arrivals are merged lazily, one pending request per `(user, model)`
//! stream, and folded records are never retained, so a session's
//! footprint is set by its users × models, not by its request count.
//!
//! This file deliberately holds a single `#[test]`: the allocator
//! counts every thread, so no concurrent test may allocate while a run
//! is measured.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use xrbench::sim::{LatencyGreedy, SimConfig, Simulator, UniformProvider};
use xrbench::workload::{ScenarioCatalog, ScenarioSpec, SessionSpec};

/// Tracks live heap bytes and their high-water mark.
struct PeakAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: defers entirely to the system allocator; the counters are
// relaxed atomics with no effect on allocation behavior.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            grow(new_size);
        }
        new
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }
}

#[global_allocator]
static GLOBAL: PeakAlloc = PeakAlloc;

/// Peak live heap bytes above the starting level during one folded run
/// of `session` over `duration_s` simulated seconds.
fn folded_peak(session: &SessionSpec, duration_s: f64) -> usize {
    let provider = UniformProvider::new(16, 0.001, 0.001);
    let sim = Simulator::new(SimConfig {
        duration_s,
        ..SimConfig::default()
    });
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let mut records = 0u64;
    sim.run_session_folded(
        session,
        &provider,
        &mut LatencyGreedy::new(),
        &mut |_, _| records += 1,
    );
    assert!(records > 0, "the probe session executed nothing");
    PEAK.load(Ordering::Relaxed) - base
}

#[test]
fn folded_session_memory_is_flat_in_simulated_time() {
    // 64 users over every built-in scenario: ~7.1k arrivals per
    // simulated second, ~35k over both runs.
    let specs: Vec<ScenarioSpec> = ScenarioCatalog::builtin().iter().cloned().collect();
    let session = SessionSpec::mixed("memory-probe", &specs, 64, 0.002);
    let short = folded_peak(&session, 1.0);
    let long = folded_peak(&session, 4.0);
    eprintln!("peak live heap: {short} B at 1 s, {long} B at 4 s");
    assert!(
        long <= short + 64 * 1024,
        "peak live heap grew with simulated time: {short} B at 1 s, {long} B at 4 s"
    );
}
