//! Proves the disabled registry performs no allocation on the hot path.
//!
//! A counting global allocator wraps the system allocator; the test drives
//! every hot-path recording method of a disabled [`Registry`] and asserts
//! the allocation count never moves. The count is per thread, so the
//! other test and the test harness, allocating on their own threads at
//! the same time, cannot move it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use pacer_obs::{Event, HistKind, Registry, SpaceRecord};

struct CountingAlloc;

thread_local! {
    // Const-initialized with no destructor, so touching it from inside
    // the allocator never allocates itself.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the slot is gone while a thread is being torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made so far by the calling thread.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn disabled_registry_hot_path_never_allocates() {
    // Construction of a disabled registry itself must not allocate.
    let before_new = allocations();
    let mut reg = Registry::disabled();
    assert_eq!(
        allocations(),
        before_new,
        "Registry::disabled() must not allocate"
    );

    let before = allocations();
    for i in 0..10_000 {
        reg.event(|| Event::PeriodBegin { index: i });
        reg.record_hist(HistKind::PeriodSyncOps, i);
        reg.record_space(SpaceRecord {
            steps: i,
            heap_bytes: i,
            breakdown: Default::default(),
        });
        reg.add_races(1);
    }
    assert_eq!(
        allocations(),
        before,
        "disabled hot-path recording must not allocate"
    );
    // And nothing was recorded.
    assert_eq!(reg.metrics().events_recorded, 0);
    assert_eq!(reg.metrics().hist(HistKind::PeriodSyncOps).count, 0);
}

#[test]
fn enabled_registry_does_record() {
    // Sanity check that the same calls *do* record when enabled, so the
    // test above is meaningful.
    let mut reg = Registry::enabled(Default::default());
    reg.event(|| Event::PeriodBegin { index: 0 });
    reg.record_hist(HistKind::PeriodSyncOps, 3);
    assert_eq!(reg.metrics().events_recorded, 1);
    assert_eq!(reg.metrics().hist(HistKind::PeriodSyncOps).sum, 3);
}
