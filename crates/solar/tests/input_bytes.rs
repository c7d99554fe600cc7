//! The byte budget of a generated solar input.
//!
//! A generated trace stores each day's daylight values on its 10 s grid
//! (4,709 `f64`s of the day's 8,640 samples) and nothing else: no
//! timestamps and no dark samples. Building one may allocate those values
//! and a few small labels (the clear-sky envelope is one static table),
//! so a long input costs 37.7 KB per simulated day instead of 138 KB.
//!
//! The counter is thread-local, so the test counts only its own
//! allocations while the harness runs others in parallel.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ins_sim::rng::SimRng;
use ins_solar::trace::SolarTraceBuilder;
use ins_solar::weather::DayWeather;

struct CountingAllocator;

thread_local! {
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Counts `size` allocated bytes (a `realloc` counts its new size).
fn count(size: usize) {
    let _ = BYTES.try_with(|n| n.set(n.get() + size as u64));
}

fn bytes() -> u64 {
    BYTES.with(Cell::get)
}

// SAFETY: every method forwards to the system allocator unchanged; the
// only addition is a thread-local counter bump, which never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Daylight samples per generated day: 06:54:00 to 19:58:40 at 10 s.
const DAYLIGHT_VALUES: u64 = 4_709;

#[test]
fn ninety_days_allocate_their_daylight_values_and_little_else() {
    const DAYS: u64 = 90;
    let mut rng = SimRng::seed(20_150_613);
    let weather = DayWeather::mix_for_sunshine_fraction(0.5, DAYS as usize, &mut rng);
    let before = bytes();
    let trace = SolarTraceBuilder::new().seed(7).build_days(&weather);
    let allocated = bytes() - before;
    let values = DAYS * DAYLIGHT_VALUES * 8;
    let slack = 4 * 1024;
    assert!(
        allocated <= values + slack,
        "a {DAYS}-day input allocated {allocated} bytes: {values} of daylight values \
         and more than {slack} of slack"
    );
    assert_eq!(trace.trace().len() as u64, DAYS * 8_640);
    println!("{DAYS}-day input: {allocated} bytes allocated ({values} of daylight values)");
}
