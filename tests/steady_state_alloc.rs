//! The simulator's event loop allocates nothing in steady state.
//!
//! A counting global allocator wraps `System`. Each run fills a Table-1
//! frame (256-byte MTU; 4 and 8 switches; seeds 42 and 7) and builds its
//! fabric without background load. It warms the fabric up for twice the
//! slowest connection's interarrival time, so every source has fired and
//! the packet pool and the event queue have reached their high-water
//! marks. Then, with counting on, it downloads the unchanged tables
//! again and runs the same length. Every packet buffer, event node and
//! schedule is recycled by then, and a download that changes nothing
//! only moves the fabric's download epoch (each port restarts its walk
//! at its next grant), so the second window must make zero heap
//! allocations.
//!
//! This file is its own test binary, so the counting allocator sees no
//! other test's traffic; counting is further limited to the thread that
//! drives the fabric.

use infiniband_qos::harness::build_experiment_sized;
use infiniband_qos::sim::NullObserver;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn note() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every call forwards unchanged to `System`; the counter is a
// side effect that touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations made while `f` runs on this thread.
fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

/// Steady-state allocations and events of a `switches`-switch Table-1
/// frame filled with `seed`.
fn steady_state_allocations(switches: usize, seed: u64) -> (u64, u64) {
    let exp = build_experiment_sized(256, switches, seed, 40);
    let (mut fabric, _) = exp.frame.build_fabric(exp.seed ^ 0xABCD, None);
    let warm_up = 2 * exp.frame.steady_state_cycles(1);
    fabric.run_until(warm_up, &mut NullObserver);
    let events_before = fabric.events_processed();
    let allocs = allocations_during(|| {
        exp.frame.manager.apply_tables(&mut fabric);
        fabric.run_until(2 * warm_up, &mut NullObserver);
    });
    (allocs, fabric.events_processed() - events_before)
}

#[test]
fn event_loop_allocates_nothing_in_steady_state() {
    for (switches, seed) in [(4, 42), (8, 42), (4, 7), (8, 7)] {
        let (allocs, events) = steady_state_allocations(switches, seed);
        assert!(events > 10_000, "{switches} switches: only {events} events");
        assert_eq!(
            allocs, 0,
            "{switches} switches, seed {seed}: {allocs} allocations over {events} \
             steady-state events"
        );
    }
}
