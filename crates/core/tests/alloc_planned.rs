//! Plan-cached propagation must be allocation-free in steady state: after
//! the plan is compiled and the epoch-mark tables have grown to the
//! network's size, replaying the plan touches no heap — flat step walk,
//! flat visited list, no queues, no hashing.
//!
//! This file holds exactly ONE `#[test]`. The counting allocator is
//! process-global, and the default test runner is multi-threaded — a
//! second test in this binary would race its allocations into our window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use stem_core::kinds::{Equality, Functional};
use stem_core::{Justification, Network, PlanStatus, Value};

struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the only addition is a
// relaxed atomic counter bump, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn count_allocs(f: impl FnOnce()) -> u64 {
    ALLOCS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    f();
    COUNTING.store(false, Ordering::SeqCst);
    ALLOCS.load(Ordering::SeqCst)
}

/// The counter is process-global, so a stray allocation from the libtest
/// harness thread (timers, channel wakeups) can land inside the measured
/// window under load. A genuinely allocating replay fails every attempt;
/// external noise does not, so requiring one clean run out of three keeps
/// the zero-allocation pin exact without flaking.
fn assert_allocation_free(label: &str, mut f: impl FnMut()) {
    let mut last = 0;
    for _ in 0..3 {
        last = count_allocs(&mut f);
        if last == 0 {
            return;
        }
    }
    panic!("{label} allocated {last} times in three consecutive runs");
}

#[test]
fn planned_replay_is_allocation_free() {
    // Dense-fanout plannable cone: one hub equality-linked to 32 spokes,
    // the spokes feeding a scheduled sum — the exact shape the plan cache
    // is built to accelerate (every hub set rewrites the whole cone).
    let mut net = Network::new();
    let hub = net.add_variable("hub");
    let spokes: Vec<_> = (0..32).map(|i| net.add_variable(format!("s{i}"))).collect();
    let mut eq_args = vec![hub];
    eq_args.extend(&spokes);
    net.add_constraint(Equality::new(), eq_args).unwrap();
    let total = net.add_variable("total");
    let mut sum_args = spokes.clone();
    sum_args.push(total);
    net.add_constraint(Functional::uni_addition(), sum_args)
        .unwrap();

    // Warm up: the first set compiles the plan; a few replays size the
    // pooled PropState (visited list, mark tables) to this cone.
    for i in 0..8 {
        net.set(hub, Value::Int(i), Justification::User).unwrap();
    }
    assert!(matches!(net.plan_status(hub), PlanStatus::Ready { .. }));
    let warm_hits = net.stats().plan_cache_hits;

    // Steady state: plan replay must not touch the heap at all.
    let mut i = 8;
    assert_allocation_free("steady-state planned replay", || {
        for _ in 0..32 {
            net.set(hub, Value::Int(i), Justification::User).unwrap();
            i += 1;
        }
    });
    assert!(
        net.stats().plan_cache_hits - warm_hits >= 32,
        "every measured set must have been served by the cached plan"
    );

    // Journaled planned replays recycle the pooled journal the same way.
    net.begin_journal();
    net.set(hub, Value::Int(100), Justification::User).unwrap();
    net.rollback_journal();
    let mut i = 0;
    assert_allocation_free("steady-state journaled planned replay", || {
        for _ in 0..8 {
            net.begin_journal();
            net.set(hub, Value::Int(200 + i), Justification::User)
                .unwrap();
            net.rollback_journal();
            i += 1;
        }
    });
}
