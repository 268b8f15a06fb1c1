//! Integration tests for the multi-session engine: transactional rollback,
//! panic quarantine, step budgets, backpressure and cross-worker
//! determinism.

use std::rc::Rc;
use std::thread;
use std::time::Duration;

use stem_core::prng::SplitMix64;
use stem_core::{
    ConstraintId, ConstraintKind, Interval, Network, Value, VarId, Violation, ViolationKind,
};
use stem_engine::{
    BatchError, Command, ConstraintSpec, Engine, EngineConfig, KindFactory, Output, SessionId,
    Source,
};

fn var(ix: usize) -> VarId {
    VarId::from_index(ix)
}

fn con(ix: usize) -> ConstraintId {
    ConstraintId::from_index(ix)
}

fn set(ix: usize, v: i64) -> Command {
    Command::Set {
        var: var(ix),
        value: Value::Int(v),
        source: Source::User,
    }
}

fn add(name: &str) -> Command {
    Command::AddVariable { name: name.into() }
}

fn dump(engine: &Engine, session: SessionId) -> Vec<(String, Value, stem_core::Justification)> {
    let out = engine
        .apply(session, vec![Command::DumpValues])
        .expect("dump batch");
    match out.outputs.into_iter().next() {
        Some(Output::Dump(d)) => d,
        other => panic!("expected dump, got {other:?}"),
    }
}

/// Create-and-initialise batch: three variables, an equality between the
/// first two, and a seed value — exercising intra-batch id prediction.
fn setup_session(engine: &Engine, session: SessionId, seed: i64) {
    let out = engine
        .apply(
            session,
            vec![
                add("a"),
                add("b"),
                add("c"),
                Command::AddConstraint {
                    spec: ConstraintSpec::Equality,
                    args: vec![var(0), var(1)],
                },
                set(0, seed),
            ],
        )
        .expect("setup batch");
    assert_eq!(out.outputs[0], Output::Var(var(0)));
    assert_eq!(out.outputs[3], Output::Constraint(con(0)));
}

#[test]
fn batch_commits_and_propagates() {
    let engine = Engine::new(2);
    let s = engine.create_session();
    setup_session(&engine, s, 7);
    let out = engine.apply(s, vec![Command::Get { var: var(1) }]).unwrap();
    // The equality propagated the seed from a to b.
    assert_eq!(out.outputs[0], Output::Value(Value::Int(7)));
    let stats = engine.session_stats(s);
    assert_eq!(stats.n_variables, 3);
    assert_eq!(stats.n_constraints, 1);
    assert!(!stats.quarantined);
}

#[test]
fn violating_value_batch_rolls_back_byte_identical() {
    let engine = Engine::new(1);
    let s = engine.create_session();
    setup_session(&engine, s, 5);
    let before = dump(&engine, s);
    // b is propagated=5; a is user=5. Setting b to 6 propagates 6 back to
    // a, whose user value is protected -> violation -> rollback.
    let err = engine.apply(s, vec![set(1, 6)]).unwrap_err();
    match err {
        BatchError::Violation { index, violation } => {
            assert_eq!(index, 0);
            assert_eq!(violation.kind, ViolationKind::OverwriteDenied);
        }
        other => panic!("expected violation, got {other}"),
    }
    assert_eq!(dump(&engine, s), before);
    let stats = engine.stats();
    assert_eq!(stats.violations, 1);
    assert_eq!(stats.rollbacks, 1);
}

#[test]
fn violating_structural_batch_is_discarded_whole() {
    let engine = Engine::new(1);
    let s = engine.create_session();
    // Two user values that cannot be equal.
    engine
        .apply(s, vec![add("x"), add("y"), set(0, 1), set(1, 2)])
        .unwrap();
    let before = dump(&engine, s);
    // The batch adds a variable AND an impossible equality: the violation
    // must discard the new variable too, not just the constraint.
    let err = engine
        .apply(
            s,
            vec![
                add("z"),
                Command::AddConstraint {
                    spec: ConstraintSpec::Equality,
                    args: vec![var(0), var(1)],
                },
            ],
        )
        .unwrap_err();
    assert!(matches!(err, BatchError::Violation { index: 1, .. }));
    assert_eq!(dump(&engine, s), before);
    let stats = engine.session_stats(s);
    assert_eq!(stats.n_variables, 2);
    assert_eq!(stats.n_constraints, 0);
}

#[test]
fn invalid_command_rejects_batch_upfront() {
    let engine = Engine::new(1);
    let s = engine.create_session();
    setup_session(&engine, s, 1);
    let before = dump(&engine, s);
    // Command 0 would commit on its own; command 1 references a variable
    // that won't exist. Validation must refuse the whole batch unapplied.
    let err = engine.apply(s, vec![set(2, 9), set(7, 1)]).unwrap_err();
    assert!(matches!(err, BatchError::InvalidCommand { index: 1, .. }));
    assert_eq!(dump(&engine, s), before);

    // Forward references to ids created later in the batch are also invalid.
    let err = engine.apply(s, vec![set(3, 1), add("later")]).unwrap_err();
    assert!(matches!(err, BatchError::InvalidCommand { index: 0, .. }));
}

/// Domain specs whose arity or directional output does not fit their
/// argument list are refused before anything runs: an `InvalidCommand` at
/// the spec's index, never a kind that panics the worker and quarantines
/// the session.
#[test]
fn malformed_domain_specs_are_invalid_commands() {
    let engine = Engine::new(1);
    let s = engine.create_session();
    engine.apply(s, vec![add("x"), add("y"), add("z")]).unwrap();
    let dom_add = |out| ConstraintSpec::DomAdd {
        views: [(1, 0); 3],
        out,
    };
    let dom_le = |out| ConstraintSpec::DomLe {
        c: 0,
        views: [(1, 0); 2],
        out,
    };
    let reif_le = ConstraintSpec::DomReifLe {
        c: 0,
        views: [(1, 0); 2],
    };
    // (spec, argument count): an output past the arity, or too few args.
    let cases = [
        (dom_add(Some(7)), 3),
        (dom_add(None), 2),
        (dom_le(None), 1),
        (dom_le(Some(2)), 2),
        (reif_le, 2),
    ];
    for (round, (spec, n_args)) in cases.into_iter().enumerate() {
        let args = (0..n_args).map(var).collect();
        let batch = vec![set(0, 1), Command::AddConstraint { spec, args }, set(1, 2)];
        match engine.apply(s, batch) {
            Err(BatchError::InvalidCommand { index: 1, .. }) => {}
            other => panic!("case {round}: expected InvalidCommand at 1, got {other:?}"),
        }
        assert!(!engine.session_stats(s).quarantined, "case {round}");
        engine
            .apply(s, vec![set(0, 10 + round as i64)])
            .unwrap_or_else(|e| panic!("case {round}: next write refused: {e}"));
    }
    assert_eq!(engine.stats().panics, 0);
    assert_eq!(engine.session_stats(s).n_constraints, 0);
}

/// Panics on inference from a real value change, but stays quiet during
/// the re-initialisation pass that installs it (which dispatches every
/// argument while its value is still `Nil`).
#[derive(Debug)]
struct PanicOnInfer;

impl ConstraintKind for PanicOnInfer {
    fn kind_name(&self) -> &str {
        "panicOnInfer"
    }

    fn infer(
        &self,
        net: &mut Network,
        _cid: ConstraintId,
        changed: Option<VarId>,
    ) -> Result<(), Violation> {
        if changed.is_some_and(|v| !net.value(v).is_nil()) {
            panic!("deliberate test panic");
        }
        Ok(())
    }

    fn is_satisfied(&self, _net: &Network, _cid: ConstraintId) -> bool {
        true
    }
}

#[test]
fn panicking_batch_rolls_back_and_quarantines() {
    let engine = Engine::new(2);
    let healthy = engine.create_session();
    let s = engine.create_session();
    setup_session(&engine, healthy, 3);
    engine
        .apply(
            s,
            vec![
                add("x"),
                add("y"),
                Command::AddCustomConstraint {
                    kind: KindFactory::new(|| Rc::new(PanicOnInfer)),
                    args: vec![var(0), var(1)],
                },
            ],
        )
        .unwrap();
    let before = dump(&engine, s);

    // Value-only batch -> the panic unwinds out of an active cycle and the
    // worker must recover the poisoned network, not just the values. The
    // leading read makes the reported index (1) more than a zero default.
    let err = engine
        .apply(s, vec![Command::Get { var: var(1) }, set(0, 1)])
        .unwrap_err();
    assert!(
        matches!(err, BatchError::Panicked { index: 1, .. }),
        "{err:?}"
    );
    assert_eq!(dump(&engine, s), before, "panic must leave state untouched");

    // Mutating work is refused; reads are not.
    assert!(matches!(
        engine.apply(s, vec![set(1, 2)]),
        Err(BatchError::Quarantined)
    ));
    assert!(engine
        .apply(s, vec![Command::Get { var: var(0) }, Command::CheckAll])
        .is_ok());
    assert!(engine.session_stats(s).quarantined);

    // Other sessions — including on the same worker pool — are unaffected.
    engine.apply(healthy, vec![set(2, 8)]).unwrap();

    // Lifting the quarantine re-admits mutations.
    assert!(engine.lift_quarantine(s));
    assert!(!engine.lift_quarantine(s));
    engine
        .apply(
            s,
            vec![Command::RemoveConstraint { constraint: con(0) }, set(0, 1)],
        )
        .unwrap();

    let stats = engine.stats();
    assert_eq!(stats.panics, 1);
    assert_eq!(stats.sessions_quarantined, 1);
    assert_eq!(stats.rollbacks, 1);
}

#[test]
fn step_budget_aborts_runaway_propagation() {
    let engine = Engine::with_config(EngineConfig {
        workers: 1,
        queue_capacity: 8,
        step_budget: Some(3),
        ..EngineConfig::default()
    });
    let s = engine.create_session();
    // A 10-deep equality chain: flooding it costs far more than 3 steps.
    let mut cmds: Vec<Command> = (0..10).map(|i| add(&format!("v{i}"))).collect();
    for i in 0..9 {
        cmds.push(Command::AddConstraint {
            spec: ConstraintSpec::Equality,
            args: vec![var(i), var(i + 1)],
        });
    }
    engine.apply(s, cmds).unwrap();
    let before = dump(&engine, s);
    let err = engine.apply(s, vec![set(0, 42)]).unwrap_err();
    match err {
        BatchError::Violation { violation, .. } => {
            assert_eq!(violation.kind, ViolationKind::BudgetExceeded { limit: 3 });
        }
        other => panic!("expected budget violation, got {other}"),
    }
    assert_eq!(dump(&engine, s), before);
}

#[test]
fn try_submit_reports_backpressure() {
    let engine = Engine::with_config(EngineConfig {
        workers: 1,
        queue_capacity: 1,
        step_budget: None,
        ..EngineConfig::default()
    });
    let s = engine.create_session();
    // The Custom factory runs worker-side, so this batch pins the worker
    // long enough for the queue (capacity 1) to fill deterministically.
    let slow = engine.submit(
        s,
        vec![
            add("x"),
            Command::AddCustomConstraint {
                kind: KindFactory::new(|| {
                    thread::sleep(Duration::from_millis(200));
                    Rc::new(stem_core::kinds::Equality::new())
                }),
                args: vec![var(0)],
            },
        ],
    );
    let mut rejected = 0;
    let mut tickets = Vec::new();
    for _ in 0..8 {
        match engine.try_submit(s, vec![Command::DumpValues]) {
            Ok(t) => tickets.push(t),
            Err(BatchError::Backpressure) => rejected += 1,
            Err(other) => panic!("unexpected error: {other}"),
        }
    }
    assert!(rejected > 0, "queue of capacity 1 never filled");
    slow.wait().unwrap();
    for t in tickets {
        t.wait().unwrap();
    }
    let stats = engine.stats();
    assert_eq!(stats.backpressure_rejections, rejected);
    assert!(stats.queue_depth_hwm >= 1);
}

#[test]
fn close_session_drops_state() {
    let engine = Engine::new(1);
    let s = engine.create_session();
    setup_session(&engine, s, 1);
    assert!(engine.close_session(s));
    // The slot is gone; touching the id again materialises a fresh network.
    assert_eq!(engine.session_stats(s).n_variables, 0);
}

#[test]
fn shutdown_rejects_pending_work() {
    let engine = Engine::new(1);
    let s = engine.create_session();
    setup_session(&engine, s, 1);
    engine.shutdown();
}

/// 64 concurrent sessions under mixed valid/violating traffic: every
/// violating batch must leave its session byte-identical, and committed
/// values must land exactly.
#[test]
fn stress_64_sessions_mixed_batches() {
    const SESSIONS: usize = 64;
    const ROUNDS: i64 = 6;
    let engine = Engine::new(4);
    let sessions: Vec<SessionId> = (0..SESSIONS).map(|_| engine.create_session()).collect();

    thread::scope(|scope| {
        for chunk in sessions.chunks(SESSIONS / 4) {
            let engine = &engine;
            scope.spawn(move || {
                for (ix, &s) in chunk.iter().enumerate() {
                    let seed = ix as i64 * 100;
                    setup_session(engine, s, seed);
                    for round in 0..ROUNDS {
                        // Valid: park a value on the unconstrained c.
                        engine.apply(s, vec![set(2, round)]).unwrap();
                        // Violating: contradicting the protected user seed
                        // through the equality must roll back exactly.
                        let before = dump(engine, s);
                        let err = engine.apply(s, vec![set(1, seed + 1)]).unwrap_err();
                        assert!(matches!(err, BatchError::Violation { .. }));
                        assert_eq!(dump(engine, s), before);
                    }
                    // Final state: a=user seed, b=propagated seed, c=last round.
                    let fin = dump(engine, s);
                    assert_eq!(fin[0].1, Value::Int(seed));
                    assert_eq!(fin[1].1, Value::Int(seed));
                    assert_eq!(fin[2].1, Value::Int(ROUNDS - 1));
                }
            });
        }
    });

    let stats = engine.stats();
    assert_eq!(stats.sessions_created, SESSIONS as u64);
    assert_eq!(stats.violations, SESSIONS as u64 * ROUNDS as u64);
    assert_eq!(stats.rollbacks, stats.violations);
    assert_eq!(stats.panics, 0);
    assert_eq!(
        stats.batches_ok,
        stats.batches - stats.violations,
        "every non-violating batch must commit"
    );
    assert_eq!(
        stats.latency_buckets.iter().sum::<u64>(),
        stats.batches,
        "every batch files exactly one latency observation"
    );
}

/// Pseudo-random but fully deterministic batch stream for one session.
fn scripted_batches(seed: u64) -> Vec<Vec<Command>> {
    let mut rng = SplitMix64::new(seed);
    let mut n_vars = 0usize;
    let mut batches = Vec::new();
    // Start with some variables so sets have targets.
    let mut first = Vec::new();
    for i in 0..4 {
        first.push(add(&format!("v{i}")));
        n_vars += 1;
    }
    batches.push(first);
    for _ in 0..20 {
        let mut batch = Vec::new();
        match rng.range_usize(0, 5) {
            0 => {
                batch.push(add(&format!("v{n_vars}")));
                n_vars += 1;
            }
            1 => batch.push(Command::AddConstraint {
                spec: ConstraintSpec::Equality,
                args: vec![
                    var(rng.range_usize(0, n_vars)),
                    var(rng.range_usize(0, n_vars)),
                ],
            }),
            2 => batch.push(Command::Unset {
                var: var(rng.range_usize(0, n_vars)),
            }),
            _ => batch.push(set(rng.range_usize(0, n_vars), rng.range_i64(-3, 4))),
        }
        batches.push(batch);
    }
    batches
}

fn run_scripted(workers: usize, n_sessions: u64) -> Vec<String> {
    let engine = Engine::new(workers);
    let sessions: Vec<SessionId> = (0..n_sessions).map(|_| engine.create_session()).collect();
    for &s in &sessions {
        for batch in scripted_batches(0xD1CE ^ s.0) {
            // Violating batches roll back; that's part of the scripted
            // behaviour and must be deterministic too.
            let _ = engine.apply(s, batch);
        }
    }
    sessions
        .iter()
        .map(|&s| format!("{:?}", dump(&engine, s)))
        .collect()
}

#[test]
fn results_are_identical_for_any_worker_count() {
    let one = run_scripted(1, 8);
    let four = run_scripted(4, 8);
    let eight = run_scripted(8, 8);
    assert_eq!(one, four);
    assert_eq!(one, eight);
}

#[test]
fn stats_and_reset_queue_hwm_starts_a_fresh_epoch() {
    let engine = Engine::with_config(EngineConfig {
        workers: 1,
        queue_capacity: 64,
        ..EngineConfig::default()
    });
    let session = engine.create_session();
    setup_session(&engine, session, 1);

    // Pile up async submissions so the queue visibly deepens.
    let tickets: Vec<_> = (0..32)
        .map(|i| engine.submit(session, vec![set(0, i)]))
        .collect();
    for t in tickets {
        t.wait().expect("batch commits");
    }
    let first = engine.stats_and_reset_queue_hwm();
    assert!(first.queue_depth_hwm > 0, "burst never showed in the HWM");
    // Every other counter matches a plain snapshot taken right after.
    let plain = engine.stats();
    assert_eq!(plain.batches, first.batches);
    assert_eq!(
        plain.queue_depth_hwm, 0,
        "reset variant re-arms the mark at zero"
    );

    // The next epoch rebuilds the mark from its own traffic only.
    engine
        .apply(session, vec![set(0, 99)])
        .expect("quiet batch");
    let second = engine.stats_and_reset_queue_hwm();
    assert!(
        second.queue_depth_hwm <= 2,
        "old epoch's depth ({}) leaked into the new mark ({})",
        first.queue_depth_hwm,
        second.queue_depth_hwm
    );
    engine.shutdown();
}

fn interval(lo: i64, hi: i64) -> Value {
    Value::Interval(Interval::new(lo, hi))
}

/// The engine-wide copies of the network's counters count rolled-back
/// work too: after commits, a violation and a domain wipeout on two
/// sessions, each equals the sum of the sessions' own readings.
#[test]
fn engine_network_counters_equal_the_sum_over_sessions() {
    let engine = Engine::new(2);
    let (s0, s1) = (engine.create_session(), engine.create_session());
    setup_session(&engine, s0, 5);
    engine.apply(s0, vec![set(0, 6)]).expect("commit");
    // Overwrite denial on a propagated value: rolled back.
    let err = engine.apply(s0, vec![set(1, 7)]).unwrap_err();
    assert!(matches!(err, BatchError::Violation { .. }), "{err}");

    // x + y = z over intervals, then a z that no x, y can reach.
    engine
        .apply(
            s1,
            vec![
                add("x"),
                add("y"),
                add("z"),
                Command::AddConstraint {
                    spec: ConstraintSpec::DomAdd {
                        views: [(1, 0), (1, 0), (1, 0)],
                        out: None,
                    },
                    args: vec![var(0), var(1), var(2)],
                },
                Command::Set {
                    var: var(0),
                    value: interval(10, 20),
                    source: Source::User,
                },
                Command::Set {
                    var: var(1),
                    value: interval(5, 25),
                    source: Source::User,
                },
            ],
        )
        .expect("domain setup commits");
    let err = engine
        .apply(
            s1,
            vec![Command::Set {
                var: var(2),
                value: interval(0, 10),
                source: Source::User,
            }],
        )
        .unwrap_err();
    assert!(matches!(err, BatchError::Violation { .. }), "{err}");

    let total = engine.stats();
    let (a, b) = (engine.session_stats(s0), engine.session_stats(s1));
    assert_eq!(b.wipeouts, 1);
    assert!(b.domain_tightenings > 0);
    macro_rules! assert_summed {
        ($($field:ident)*) => {
            $(assert_eq!(total.$field, a.$field + b.$field, stringify!($field));)*
        };
    }
    assert_summed!(
        plan_compiles plan_cache_hits plan_cache_invalidations
        plan_replays_parallel cones_executed cones_stolen parallel_fallbacks
        domain_tightenings subsumed_pruned wipeouts
    );
    // Waves and assignments stay committed-only, like `BatchOutcome`.
    assert_summed!(waves assignments);
    engine.shutdown();
}
