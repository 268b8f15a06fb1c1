//! Differential check of journaled batch rollback: an engine fed
//! SplitMix64-derived batch workloads is compared, batch by batch, with a
//! reference — a fresh engine that replays only the batches the engine
//! under test committed. Per-batch outcomes must match, and the
//! `DumpValues` dump after every batch must be byte-identical to the
//! reference's, so a batch that violates mid-propagation and rolls back
//! must leave the session exactly as if it had never been applied.

use stem_core::prng::SplitMix64;
use stem_core::{Value, VarId};
use stem_engine::{
    BatchError, BatchOutcome, Command, ConstraintSpec, Engine, EngineConfig, SessionId,
};

fn engine() -> Engine {
    Engine::with_config(EngineConfig {
        workers: 1,
        ..EngineConfig::default()
    })
}

/// One deterministic batch drawn from the rng. `n_vars` is the session's
/// variable count before the batch; `structural` additionally mixes in
/// journalable structure edits; `removals` allows `RemoveConstraint`
/// (journalable too: erasure pre-images plus a re-wiring undo entry).
fn gen_batch(
    rng: &mut SplitMix64,
    n_vars: usize,
    n_constraints: usize,
    structural: bool,
    removals: bool,
) -> Vec<Command> {
    let mut batch = Vec::new();
    let len = rng.range_usize(1, 5);
    for _ in 0..len {
        let var = VarId::from_index(rng.range_usize(0, n_vars));
        match rng.range_usize(0, 10) {
            // Values above ~60 trip the LeConst bound installed on the
            // chain, so a healthy fraction of batches violate and roll
            // back — the interesting case.
            0..=4 => batch.push(Command::Set {
                var,
                value: Value::Int(rng.range_i64(0, 90)),
                source: stem_engine::Source::Application,
            }),
            5 => batch.push(Command::Get { var }),
            6 => batch.push(Command::Probe {
                var,
                value: Value::Int(rng.range_i64(0, 90)),
            }),
            7 if structural => batch.push(Command::AddVariable {
                name: format!("x{}", rng.next_u64() % 1000),
            }),
            8 if structural && n_constraints > 0 => batch.push(Command::EnableConstraint {
                constraint: stem_core::ConstraintId::from_index(rng.range_usize(0, n_constraints)),
                enabled: rng.next_bool(),
            }),
            9 if removals && n_constraints > 1 => batch.push(Command::RemoveConstraint {
                constraint: stem_core::ConstraintId::from_index(rng.range_usize(0, n_constraints)),
            }),
            _ => batch.push(Command::Get { var }),
        }
    }
    batch
}

/// Renders a batch result to a canonical comparison string.
fn render(result: &Result<BatchOutcome, BatchError>) -> String {
    match result {
        Ok(out) => format!("ok outputs={:?}", out.outputs),
        // Violation details must match too: same failing command, same
        // violation shape.
        Err(e) => format!("err {e:?}"),
    }
}

fn dump(engine: &Engine, session: SessionId) -> String {
    let out = engine
        .apply(session, vec![Command::DumpValues])
        .expect("dump never fails");
    format!("{:?}", out.outputs)
}

/// A chain of `n` variables under `n - 1` equalities plus one predicate.
fn chain_batch(n: usize) -> Vec<Command> {
    let mut batch: Vec<Command> = (0..n)
        .map(|i| Command::AddVariable {
            name: format!("v{i}"),
        })
        .collect();
    for i in 0..n - 1 {
        batch.push(Command::AddConstraint {
            spec: ConstraintSpec::Equality,
            args: vec![VarId::from_index(i), VarId::from_index(i + 1)],
        });
    }
    // The tripwire: mid-chain values above 60 violate during propagation.
    batch.push(Command::AddConstraint {
        spec: ConstraintSpec::LeConst(Value::Int(60)),
        args: vec![VarId::from_index(n / 2)],
    });
    batch
}

/// Builds one batch. Commands are not `Clone`, so each engine that
/// applies the batch builds its own copy.
type Recipe = Box<dyn Fn() -> Vec<Command>>;

/// The recipe for the next [`gen_batch`] draw, advancing `rng` past it.
fn random_batch(
    rng: &mut SplitMix64,
    n_vars: usize,
    n_constraints: usize,
    structural: bool,
    removals: bool,
) -> Recipe {
    let start = *rng;
    gen_batch(rng, n_vars, n_constraints, structural, removals);
    Box::new(move || {
        let mut rng = start;
        gen_batch(&mut rng, n_vars, n_constraints, structural, removals)
    })
}

/// An engine session under test plus the batches it has committed.
struct Checked {
    engine: Engine,
    session: SessionId,
    committed: Vec<Recipe>,
}

impl Checked {
    fn new(setup: Recipe) -> Self {
        let engine = engine();
        let session = engine.create_session();
        engine.apply(session, setup()).expect("setup builds clean");
        Checked {
            engine,
            session,
            committed: vec![setup],
        }
    }

    /// Applies `batch` and checks it against the reference: a fresh
    /// engine that replays only the committed batches, then `batch`. The
    /// outcomes must match, and the state afterwards must equal the
    /// reference's — before `batch` if it rolled back, after it if it
    /// committed. Returns whether the batch failed.
    fn apply(&mut self, batch: Recipe, what: &str) -> bool {
        let reference = engine();
        let rs = reference.create_session();
        for b in &self.committed {
            reference
                .apply(rs, b())
                .expect("committed batches replay cleanly");
        }
        let untouched = dump(&reference, rs);
        let expected_outcome = reference.apply(rs, batch());
        let outcome = self.engine.apply(self.session, batch());
        assert_eq!(
            render(&outcome),
            render(&expected_outcome),
            "outcome diverged at {what}"
        );
        let expected_state = if outcome.is_ok() {
            self.committed.push(batch);
            dump(&reference, rs)
        } else {
            untouched
        };
        assert_eq!(
            dump(&self.engine, self.session),
            expected_state,
            "state diverged after {what}"
        );
        reference.shutdown();
        outcome.is_err()
    }
}

#[test]
fn journal_rollback_matches_committed_only_replay() {
    let n_vars = 10;
    let n_constraints = n_vars; // n-1 equalities + 1 predicate
    let mut checked = Checked::new(Box::new(move || chain_batch(n_vars)));
    let mut rng = SplitMix64::new(0xD1FF);

    // Phase 1: value-only workloads — every batch is served without a
    // single network snapshot or clone.
    let mut violations = 0usize;
    for round in 0..120 {
        let batch = random_batch(&mut rng, n_vars, n_constraints, false, false);
        if checked.apply(batch, &format!("value round {round}")) {
            violations += 1;
        }
    }
    assert!(
        violations > 0,
        "workload never violated — tripwire too loose"
    );
    let stats = checked.engine.session_stats(checked.session);
    assert_eq!(
        stats.net_snapshots, 0,
        "value-only batches must never snapshot"
    );
    assert_eq!(stats.net_clones, 0, "value-only batches must never clone");

    // Phase 2: structural edits ride the journal too.
    for round in 0..40 {
        let batch = random_batch(&mut rng, n_vars, n_constraints, true, false);
        checked.apply(batch, &format!("structural round {round}"));
    }
    let stats = checked.engine.session_stats(checked.session);
    assert_eq!(
        stats.net_snapshots, 0,
        "structural batches must not snapshot"
    );
    assert_eq!(stats.net_clones, 0, "structural batches must not clone");

    // Phase 3: RemoveConstraint journals too (erasure pre-images plus a
    // re-wiring undo entry), so even removal batches stay on the
    // O(touched) journal path.
    let mut removal_batches = 0usize;
    for round in 0..30 {
        let batch = random_batch(&mut rng, n_vars, n_constraints, true, true);
        if batch()
            .iter()
            .any(|c| matches!(c, Command::RemoveConstraint { .. }))
        {
            removal_batches += 1;
        }
        checked.apply(batch, &format!("removal round {round}"));
    }
    assert!(removal_batches > 0, "workload never removed a constraint");
    let stats = checked.engine.session_stats(checked.session);
    assert_eq!(stats.net_snapshots, 0, "still no snapshots");
    assert_eq!(
        stats.net_clones, 0,
        "removal batches must journal, not clone-and-swap"
    );

    checked.engine.shutdown();
}

#[test]
fn journal_rollback_survives_panicking_commands() {
    // A panic mid-batch unwinds through catch_unwind; the engine must
    // abort the open cycle, replay the journal, and leave the session
    // exactly as a fresh engine that never saw the batch.
    let mut checked = Checked::new(Box::new(|| chain_batch(4)));
    let panic_batch = || {
        vec![
            Command::Set {
                var: VarId::from_index(0),
                value: Value::Int(7),
                source: stem_engine::Source::User,
            },
            // Invalid id: indexes far past the arena — the worker rejects or
            // panics depending on path; the reference must agree.
            Command::Set {
                var: VarId::from_index(9999),
                value: Value::Int(1),
                source: stem_engine::Source::User,
            },
        ]
    };
    assert!(checked.apply(Box::new(panic_batch), "the panicking batch"));
    checked.engine.shutdown();
}
