//! Steady-state propagation must not allocate: the propagation state is
//! pooled (`spare_state`), activation pushes borrow the arena in place,
//! and constraint `infer` paths read argument lists without `to_vec`.
//!
//! This file holds exactly ONE `#[test]`. The counting allocator is
//! process-global, and the default test runner is multi-threaded — a
//! second test in this binary would race its allocations into our window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use stem_core::kinds::{Equality, Functional, Predicate};
use stem_core::{Justification, Network, Value};

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

#[test]
fn steady_state_propagation_is_allocation_free() {
    let mut net = Network::new();
    let vars: Vec<_> = (0..64).map(|i| net.add_variable(format!("v{i}"))).collect();
    for w in vars.windows(2) {
        net.add_constraint(Equality::new(), [w[0], w[1]]).unwrap();
    }
    // Mix in the other hot kinds so their infer paths are exercised too.
    let s = net.add_variable("sum");
    net.add_constraint(Functional::uni_addition(), [vars[0], s])
        .unwrap();
    net.add_constraint(Predicate::le_const(Value::Int(1_000_000)), [vars[63]])
        .unwrap();

    // Warm up: first cycles size the pooled PropState, the agenda ring,
    // and the per-variable bookkeeping maps to this network's footprint.
    for i in 0..16 {
        net.set(vars[0], Value::Int(i), Justification::User)
            .unwrap();
    }

    // Steady state: the same wave shape must recycle that capacity.
    let allocs = count_allocs(|| {
        for i in 16..48 {
            net.set(vars[0], Value::Int(i), Justification::User)
                .unwrap();
        }
    });
    assert_eq!(
        allocs, 0,
        "steady-state propagation cycles allocated {allocs} times"
    );

    // The journal is pooled too (`spare_journal`): once a transaction of
    // this shape has run, later same-shape transactions are alloc-free.
    net.begin_journal();
    net.set(vars[0], Value::Int(100), Justification::User)
        .unwrap();
    net.rollback_journal();
    let allocs = count_allocs(|| {
        for i in 0..8 {
            net.begin_journal();
            net.set(vars[0], Value::Int(200 + i), Justification::User)
                .unwrap();
            net.rollback_journal();
        }
    });
    assert_eq!(
        allocs, 0,
        "steady-state journaled transactions allocated {allocs} times"
    );
}
