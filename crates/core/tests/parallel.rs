//! Parallel plan replay: cone-partitioned execution must be
//! byte-identical to the sequential planned path (which is itself
//! differentially checked against the agenda interpreter) at every
//! thread count — values, justifications, violations, handler calls and
//! the core statistics block. These tests pin down the partition
//! admission rules (size threshold, single component, kernel-less
//! kinds), the abort-and-fallback paths (violations, overwrite
//! denials), partition invalidation under structural edits, and the
//! overlapped-batch path of `Network::set_all`.

use std::cell::RefCell;
use std::rc::Rc;

use stem_core::kinds::{Equality, Functional, Predicate};
use stem_core::{Justification, Network, Value, VarId};

/// Canonical rendering of the full observable state.
fn dump(net: &Network) -> String {
    net.variables()
        .map(|v| {
            format!(
                "{}={:?}/{:?};",
                net.var_name(v),
                net.value(v),
                net.justification(v)
            )
        })
        .collect()
}

/// `cones` independent cones hanging off one root: `src —eq→ head_i`,
/// `head_i —eq→ m_i_j` (`fan` mirrors), and a sum over the mirrors into
/// `out_i`. Every pair of cones is variable-disjoint except for `src`,
/// so the partitioner must find exactly `cones` components.
fn fanout(net: &mut Network, tag: &str, cones: usize, fan: usize) -> (VarId, Vec<VarId>) {
    let src = net.add_variable(format!("{tag}src"));
    let mut outs = Vec::new();
    for i in 0..cones {
        let head = net.add_variable(format!("{tag}h{i}"));
        net.add_constraint(Equality::new(), [src, head]).unwrap();
        let mut args = Vec::with_capacity(fan + 1);
        for j in 0..fan {
            let m = net.add_variable(format!("{tag}m{i}_{j}"));
            net.add_constraint(Equality::new(), [head, m]).unwrap();
            args.push(m);
        }
        let out = net.add_variable(format!("{tag}o{i}"));
        args.push(out);
        net.add_constraint(Functional::uni_addition(), args)
            .unwrap();
        outs.push(out);
    }
    (src, outs)
}

fn parallel_net(threads: usize, cones: usize, fan: usize) -> (Network, VarId, Vec<VarId>) {
    let mut net = Network::new();
    net.set_parallel_threads(threads);
    net.set_parallel_min_steps(1);
    let (src, outs) = fanout(&mut net, "", cones, fan);
    (net, src, outs)
}

#[test]
fn replay_is_byte_identical_across_thread_counts() {
    let mut reference: Option<(String, String)> = None;
    for threads in [1usize, 2, 4, 8] {
        let (mut net, src, outs) = parallel_net(threads, 8, 6);
        for round in 0..5i64 {
            net.set(src, Value::Int(round + 3), Justification::User)
                .unwrap();
        }
        assert_eq!(net.value(outs[3]), &Value::Int(7 * 6));
        if threads > 1 {
            assert_eq!(net.plan_parallel_cones(src), Some(8));
            let ps = net.par_stats();
            // First set compiles then replays in parallel; so do the rest.
            assert_eq!(ps.plan_replays_parallel, 5);
            assert_eq!(ps.cones_executed, 5 * 8);
            assert_eq!(ps.parallel_fallbacks, 0);
        } else {
            assert_eq!(net.plan_parallel_cones(src), None);
            assert_eq!(net.par_stats(), stem_core::ParStats::default());
        }
        let state = (dump(&net), format!("{:?}", net.stats()));
        match &reference {
            None => reference = Some(state),
            Some(r) => assert_eq!(r, &state, "diverged at {threads} threads"),
        }
    }
}

#[test]
fn below_threshold_plans_fall_back_to_sequential() {
    let mut net = Network::new();
    net.set_parallel_threads(8);
    // Default threshold: 8 cones × (1 + 4 + 1) = 48 executing steps < 256.
    assert_eq!(net.parallel_min_steps(), 256);
    let (src, _) = fanout(&mut net, "", 8, 4);
    net.set(src, Value::Int(2), Justification::User).unwrap();
    net.set(src, Value::Int(3), Justification::User).unwrap();
    assert_eq!(net.plan_parallel_cones(src), None);
    let ps = net.par_stats();
    assert_eq!(ps.plan_replays_parallel, 0);
    assert_eq!(ps.parallel_fallbacks, 2);
}

#[test]
fn single_component_plans_fall_back_to_sequential() {
    let mut net = Network::new();
    net.set_parallel_threads(4);
    net.set_parallel_min_steps(1);
    // One equality chain: every step shares a variable with the next, so
    // there is exactly one cone and nothing to overlap.
    let vars: Vec<_> = (0..6).map(|i| net.add_variable(format!("c{i}"))).collect();
    for w in vars.windows(2) {
        net.add_constraint(Equality::new(), [w[0], w[1]]).unwrap();
    }
    net.set(vars[0], Value::Int(9), Justification::User)
        .unwrap();
    assert_eq!(net.value(vars[5]), &Value::Int(9));
    assert_eq!(net.plan_parallel_cones(vars[0]), None);
    assert_eq!(net.par_stats().parallel_fallbacks, 1);
}

#[test]
fn kernel_less_kinds_fall_back_to_sequential() {
    let mut net = Network::new();
    net.set_parallel_threads(4);
    net.set_parallel_min_steps(1);
    let (src, _) = fanout(&mut net, "", 4, 3);
    // A custom functional has no off-thread kernel (its closure is not
    // Sync), so the whole plan must refuse to partition...
    let a = net.add_variable("ca");
    let b = net.add_variable("cb");
    net.add_constraint(Equality::new(), [src, a]).unwrap();
    net.add_constraint(
        Functional::custom("triple", |vals| vals[0].numeric_add(&Value::Int(0))),
        [a, b],
    )
    .unwrap();
    net.set(src, Value::Int(5), Justification::User).unwrap();
    // ...while still computing the right values on the sequential path.
    assert_eq!(net.value(b), &Value::Int(5));
    assert_eq!(net.plan_parallel_cones(src), None);
    assert_eq!(net.par_stats().plan_replays_parallel, 0);
    assert_eq!(net.par_stats().parallel_fallbacks, 1);
}

#[test]
fn violation_aborts_parallel_attempt_and_matches_sequential() {
    let run = |threads: usize| {
        let (mut net, src, outs) = parallel_net(threads, 8, 6);
        // Tripwire deep inside cone 5: src > 4 pushes out_5 = 6·src > 24.
        net.add_constraint(Predicate::le_const(Value::Int(24)), [outs[5]])
            .unwrap();
        let handled: Rc<RefCell<Vec<String>>> = Rc::new(RefCell::new(Vec::new()));
        let sink = Rc::clone(&handled);
        net.add_violation_handler(move |_, v| sink.borrow_mut().push(format!("{v:?}")));
        net.set(src, Value::Int(3), Justification::User).unwrap();
        let err = net
            .set(src, Value::Int(9), Justification::User)
            .unwrap_err();
        // Violation restored the pre-set state.
        assert_eq!(net.value(outs[5]), &Value::Int(18));
        let handler_log = handled.borrow().clone();
        (
            dump(&net),
            format!("{err:?}"),
            format!("{:?}", net.stats()),
            handler_log,
        )
    };
    let sequential = run(1);
    for threads in [2, 8] {
        assert_eq!(run(threads), sequential, "diverged at {threads} threads");
    }
    // The parallel attempt itself must have aborted into the fallback.
    let (mut net, src, outs) = parallel_net(8, 8, 6);
    net.add_constraint(Predicate::le_const(Value::Int(24)), [outs[5]])
        .unwrap();
    net.set(src, Value::Int(3), Justification::User).unwrap();
    net.set(src, Value::Int(9), Justification::User)
        .unwrap_err();
    let ps = net.par_stats();
    assert_eq!(ps.plan_replays_parallel, 1);
    assert_eq!(ps.parallel_fallbacks, 1);
}

#[test]
fn overwrite_denial_aborts_parallel_attempt_and_matches_sequential() {
    let run = |threads: usize| {
        let (mut net, src, _) = parallel_net(threads, 8, 6);
        net.set(src, Value::Int(3), Justification::User).unwrap();
        // Pin a mirror by user fiat; the next replay's copy into it must
        // be denied (user values outrank propagation) and the whole set
        // must restore.
        let pin = net
            .variables()
            .find(|&v| net.var_name(v) == "m2_4")
            .unwrap();
        net.set(pin, Value::Int(3), Justification::User).unwrap();
        let err = net
            .set(src, Value::Int(7), Justification::User)
            .unwrap_err();
        (dump(&net), format!("{err:?}"), format!("{:?}", net.stats()))
    };
    let sequential = run(1);
    for threads in [2, 8] {
        assert_eq!(run(threads), sequential, "diverged at {threads} threads");
    }
}

#[test]
fn structural_edit_invalidates_partition_with_plan() {
    let (mut net, src, _) = parallel_net(4, 8, 4);
    net.set(src, Value::Int(1), Justification::User).unwrap();
    assert_eq!(net.plan_parallel_cones(src), Some(8));
    // The edit touches `src`, which is in the plan's footprint: the
    // subscription index must evict the stale cone tables eagerly.
    let extra = net.add_variable("extra");
    net.add_constraint(Equality::new(), [src, extra]).unwrap();
    assert_eq!(net.plan_parallel_cones(src), None);
    // The next set recompiles — now with nine cones.
    net.set(src, Value::Int(2), Justification::User).unwrap();
    assert_eq!(net.plan_parallel_cones(src), Some(9));
    assert_eq!(net.value(extra), &Value::Int(2));
}

#[test]
fn set_all_overlaps_disjoint_roots_and_matches_sequential() {
    let build = |threads: usize| {
        let mut net = Network::new();
        net.set_parallel_threads(threads);
        net.set_parallel_min_steps(1);
        let (a, _) = fanout(&mut net, "a", 3, 4);
        let (b, _) = fanout(&mut net, "b", 3, 4);
        let (c, _) = fanout(&mut net, "c", 3, 4);
        (net, a, b, c)
    };
    let (mut seq, a, b, c) = build(1);
    for (v, x) in [(a, 10), (b, 20), (c, 30), (a, 11)] {
        seq.set(v, Value::Int(x), Justification::User).unwrap();
    }
    let (mut par, a, b, c) = build(8);
    // Warm the plans so the batch path sees ready partitions.
    for v in [a, b, c] {
        par.set(v, Value::Int(1), Justification::User).unwrap();
    }
    par.reset_stats();
    par.set_all(vec![
        (a, Value::Int(10), Justification::User),
        (b, Value::Int(20), Justification::User),
        (c, Value::Int(30), Justification::User),
        // Repeated root: not disjoint with the first group, must land
        // after it — last-wins ordering is observable.
        (a, Value::Int(11), Justification::User),
    ])
    .unwrap();
    assert_eq!(dump(&par), dump(&seq));
    let ps = par.par_stats();
    // One overlapped group of three plus one straggler replay.
    assert_eq!(ps.plan_replays_parallel, 4);
    assert_eq!(ps.cones_executed, 4 * 3);
    // The batch's cache hits reconcile with the replay counters.
    assert_eq!(
        par.stats().plan_cache_hits,
        ps.plan_replays_parallel + ps.parallel_fallbacks
    );
}

#[test]
fn set_all_reports_the_failing_index_and_keeps_the_prefix() {
    let (mut net, src, outs) = parallel_net(4, 4, 4);
    net.add_constraint(Predicate::le_const(Value::Int(40)), [outs[0]])
        .unwrap();
    let lone = net.add_variable("lone");
    let err = net
        .set_all(vec![
            (lone, Value::Int(5), Justification::User),
            (src, Value::Int(100), Justification::User), // 4·100 > 40
            (lone, Value::Int(6), Justification::User),
        ])
        .unwrap_err();
    assert_eq!(err.0, 1);
    // The prefix committed; the violating set restored; the tail never ran.
    assert_eq!(net.value(lone), &Value::Int(5));
    assert!(net.value(src).is_nil());
}

#[test]
fn set_all_without_parallelism_is_a_plain_loop() {
    let mut net = Network::new();
    let (src, outs) = fanout(&mut net, "", 2, 3);
    net.set_all(vec![(src, Value::Int(4), Justification::User)])
        .unwrap();
    assert_eq!(net.value(outs[1]), &Value::Int(12));
    assert_eq!(net.par_stats(), stem_core::ParStats::default());
}

#[test]
fn repeated_runs_are_deterministic() {
    let run = || {
        let (mut net, src, _) = parallel_net(8, 8, 8);
        for round in 0..10i64 {
            net.set(src, Value::Int(round), Justification::User)
                .unwrap();
        }
        (
            dump(&net),
            format!("{:?} {:?}", net.stats(), net.par_stats()),
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn single_giant_cone_falls_back_and_matches_sequential() {
    // One connected cone: src —eq→ head, head —eq→ 12 mirrors, sum into
    // out. The partitioner finds a single component, so the plan gets no
    // partition: every replay on a thread-enabled network falls back to
    // the sequential path and stays byte-identical at every thread count.
    let mut reference: Option<(String, String)> = None;
    for threads in [1usize, 2, 4, 8] {
        let mut net = Network::new();
        net.set_parallel_threads(threads);
        net.set_parallel_min_steps(1);
        net.set_parallel_cone_min_steps(1); // the pool would be admitted
        let (src, outs) = fanout(&mut net, "", 1, 12);
        for round in 0..5i64 {
            net.set(src, Value::Int(round + 2), Justification::User)
                .unwrap();
        }
        assert_eq!(net.value(outs[0]), &Value::Int(6 * 12));
        assert_eq!(net.plan_parallel_cones(src), None, "one cone: no partition");
        assert_eq!(net.plan_par_detail(src), None);
        let ps = net.par_stats();
        assert_eq!(ps.plan_replays_parallel, 0);
        assert_eq!(ps.cones_executed, 0);
        let fallbacks = if threads > 1 { 5 } else { 0 };
        assert_eq!(ps.parallel_fallbacks, fallbacks, "one per replay");
        let state = (dump(&net), format!("{:?}", net.stats()));
        match &reference {
            None => reference = Some(state),
            Some(r) => assert_eq!(r, &state, "diverged at {threads} threads"),
        }
    }
}

#[test]
fn single_cone_violation_falls_back_and_matches_sequential() {
    let run = |threads: usize| {
        let mut net = Network::new();
        net.set_parallel_threads(threads);
        net.set_parallel_min_steps(1);
        net.set_parallel_cone_min_steps(1);
        let (src, outs) = fanout(&mut net, "", 1, 10);
        net.add_constraint(Predicate::le_const(Value::Int(40)), [outs[0]])
            .unwrap();
        net.set(src, Value::Int(3), Justification::User).unwrap();
        let err = net
            .set(src, Value::Int(9), Justification::User) // 9·10 > 40
            .unwrap_err();
        assert_eq!(net.value(outs[0]), &Value::Int(30), "restored");
        assert_eq!(net.plan_parallel_cones(src), None);
        let ps = net.par_stats();
        assert_eq!(ps.plan_replays_parallel, 0);
        let fallbacks = if threads > 1 { 2 } else { 0 };
        assert_eq!(ps.parallel_fallbacks, fallbacks, "one per replay");
        (dump(&net), format!("{err:?}"), format!("{:?}", net.stats()))
    };
    let sequential = run(1);
    for threads in [2, 4, 8] {
        assert_eq!(run(threads), sequential, "diverged at {threads} threads");
    }
}

#[test]
fn stealing_pool_replay_is_deterministic_modulo_steal_count() {
    // With the per-task floor lowered, replays really cross the pool, so
    // thieves can claim cones. Everything observable must still be
    // byte-identical run to run; only `cones_stolen` (and the
    // per-plan `last_stolen` diagnostic) may vary with the schedule.
    let run = || {
        let (mut net, src, _) = parallel_net(8, 8, 8);
        net.set_parallel_cone_min_steps(1);
        for round in 0..10i64 {
            net.set(src, Value::Int(round), Justification::User)
                .unwrap();
        }
        let mut ps = net.par_stats();
        ps.cones_stolen = 0;
        (dump(&net), format!("{:?} {ps:?}", net.stats()))
    };
    assert_eq!(run(), run());
}

#[test]
fn disjoint_structural_edit_keeps_unrelated_plans() {
    let mut net = Network::new();
    net.set_parallel_threads(4);
    net.set_parallel_min_steps(1);
    let (a, _) = fanout(&mut net, "a", 4, 4);
    let (b, _) = fanout(&mut net, "b", 4, 4);
    net.set(a, Value::Int(1), Justification::User).unwrap();
    net.set(b, Value::Int(2), Justification::User).unwrap();
    let compiles_before = net.stats().plan_compiles;
    // Edit inside b's cone only: a's plan footprint is disjoint, so it
    // must survive — this is the O(touched) invalidation contract.
    let extra = net.add_variable("extra");
    net.add_constraint(Equality::new(), [b, extra]).unwrap();
    assert_eq!(net.plan_parallel_cones(a), Some(4), "a's plan survives");
    assert_eq!(net.plan_parallel_cones(b), None, "b's plan evicted");
    assert_eq!(net.stats().plan_cache_invalidations, 1);
    net.set(a, Value::Int(3), Justification::User).unwrap();
    assert_eq!(
        net.stats().plan_compiles,
        compiles_before,
        "replaying a recompiled nothing"
    );
    net.set(b, Value::Int(4), Justification::User).unwrap();
    assert_eq!(
        net.value(extra),
        &Value::Int(4),
        "b recompiled with the edge"
    );
    assert_eq!(net.stats().plan_compiles, compiles_before + 1);
}

#[test]
fn thread_knob_clamps_and_drops_plans() {
    let mut net = Network::new();
    net.set_parallel_threads(0);
    assert_eq!(net.parallel_threads(), 1);
    net.set_parallel_min_steps(1);
    let (src, _) = fanout(&mut net, "", 4, 4);
    net.set(src, Value::Int(1), Justification::User).unwrap();
    // Sequential run cached a partition-less plan; raising the budget
    // must drop it so the next set compiles cone tables.
    net.set_parallel_threads(4);
    net.set(src, Value::Int(2), Justification::User).unwrap();
    assert_eq!(net.plan_parallel_cones(src), Some(4));
    assert_eq!(net.stats().plan_compiles, 2);
}
