//! Pins the disabled-path guarantee: with recording off, spans,
//! counters, and histogram observations must not allocate. This lives
//! in its own test binary because it installs a counting global
//! allocator. Allocations are counted per thread, so the test harness's
//! other threads cannot land in the measured window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Count one allocation on the calling thread. `try_with` skips the
/// count while the thread's locals are being torn down.
fn count() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

/// Allocations made so far by the calling thread.
fn thread_allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Both tests flip the process-wide recording gates, so they must not
/// interleave.
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[test]
fn disabled_recording_allocates_nothing() {
    let _guard = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    cc_obs::set_spans_enabled(false);
    cc_obs::set_metrics_enabled(false);
    // Warm anything lazily initialized outside the measured window
    // (the epoch Instant, the registry mutex poisoning check).
    cc_obs::now_ns();

    // The dynamic-name span path (what `Client` uses per request) must
    // bail on the gate *before* interning — interning leaks, which
    // would show up here as an allocation. The name is built outside
    // the measured window; the gate check never looks at it.
    let dyn_name = String::from("zero_alloc.dyn.section");

    let before = thread_allocs();
    for i in 0..10_000u64 {
        let _s = cc_obs::span("zero_alloc.section");
        let _d = cc_obs::span_dyn(&dyn_name);
        cc_obs::counter_add("zero_alloc.counter", i);
        cc_obs::counter_inc("zero_alloc.counter");
        cc_obs::observe("zero_alloc.hist", i);
        // Per-opcode latency recording is the same gated entry point
        // under a second name — still one relaxed load when off.
        cc_obs::observe("zero_alloc.req_us.ping", i);
    }
    let after = thread_allocs();
    assert_eq!(
        after - before,
        0,
        "disabled-path recording must not allocate ({}) allocations observed",
        after - before
    );
}

#[test]
fn enabled_recording_still_works_under_counting_allocator() {
    let _guard = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    // Sanity: the same entry points do record when switched on, so the
    // zero-alloc test above is exercising real code, not a stub.
    cc_obs::set_spans_enabled(true);
    cc_obs::set_metrics_enabled(true);
    {
        let _s = cc_obs::span("zero_alloc.live");
        cc_obs::counter_inc("zero_alloc.live_counter");
    }
    cc_obs::set_spans_enabled(false);
    cc_obs::set_metrics_enabled(false);
    let roots = cc_obs::take_local_roots();
    assert!(roots.iter().any(|r| r.name == "zero_alloc.live"));
    assert_eq!(cc_obs::counter_value("zero_alloc.live_counter"), 1);
}

#[test]
fn aggregation_apis_work_under_counting_allocator() {
    let _guard = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    // The snapshot algebra (`Histogram::merge`, snapshot `delta`) backs
    // `ccc top` and the stats body; it runs off the hot path and is
    // allowed to allocate, but must stay correct under this allocator
    // and must not depend on the recording gates at all.
    cc_obs::set_spans_enabled(false);
    cc_obs::set_metrics_enabled(false);

    let h = cc_obs::histogram("zero_alloc.agg");
    let before = h.snapshot();
    h.merge(&cc_obs::HistogramSnapshot { count: 3, sum: 12, buckets: vec![(2, 3)] });
    let after = h.snapshot();
    let d = after.delta(&before);
    assert_eq!(d.count, 3);
    assert_eq!(d.sum, 12);
    assert_eq!(d.dense()[2], 3);
}
