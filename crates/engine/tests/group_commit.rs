//! Group commit: commit-sync durability guarantees with shared fsyncs.
//!
//! Under [`Durability::GroupCommit`] every acknowledged batch is durable
//! before its reply — same contract as `CommitSync` — but concurrent
//! sessions' appends are flushed by one coordinator fsync instead of one
//! fsync each. These tests pin the contract (reopen equality, rollback on
//! append failure) and the amortisation (flushes ≤ appends, and fewer
//! when sessions commit concurrently).

use std::sync::Arc;

use stem_core::{Value, VarId};
use stem_engine::{
    BatchError, Command, Durability, DurabilityOptions, Engine, EngineConfig, Output, SessionId,
    Source,
};
use stem_persist::{failing_factory, ByteBudget};
use stem_tempdir::TempDir;

fn opts() -> DurabilityOptions {
    DurabilityOptions {
        mode: Durability::GroupCommit,
        checkpoint_bytes: 0,
        ..DurabilityOptions::default()
    }
}

fn set(ix: usize, v: i64) -> Command {
    Command::Set {
        var: VarId::from_index(ix),
        value: Value::Int(v),
        source: Source::User,
    }
}

fn dump(engine: &Engine, s: SessionId) -> Vec<(String, Value, stem_core::Justification)> {
    match engine
        .apply(s, vec![Command::DumpValues])
        .expect("dump")
        .outputs
        .remove(0)
    {
        Output::Dump(d) => d,
        other => panic!("expected dump, got {other:?}"),
    }
}

#[test]
fn concurrent_sessions_share_fsyncs_and_survive_reopen() {
    let dir = TempDir::new("concurrent");
    let n_threads = 4usize;
    let batches_per = 25u64;
    let expected: Vec<_>;
    {
        let engine = Arc::new(
            Engine::open_with_config(
                &dir,
                EngineConfig {
                    workers: 4,
                    ..EngineConfig::default()
                },
                opts(),
            )
            .unwrap(),
        );
        let sessions: Vec<SessionId> = (0..n_threads).map(|_| engine.create_session()).collect();
        std::thread::scope(|scope| {
            for &s in &sessions {
                let engine = Arc::clone(&engine);
                scope.spawn(move || {
                    engine
                        .apply(s, vec![Command::AddVariable { name: "v".into() }])
                        .unwrap();
                    for i in 0..batches_per {
                        engine.apply(s, vec![set(0, i as i64)]).unwrap();
                    }
                });
            }
        });
        let stats = engine.stats();
        let appends = n_threads as u64 * (batches_per + 1);
        assert_eq!(stats.wal_appends, appends);
        assert!(stats.wal_group_syncs > 0, "coordinator never flushed");
        assert!(
            stats.wal_group_syncs <= stats.wal_appends,
            "more flushes ({}) than appends ({})",
            stats.wal_group_syncs,
            stats.wal_appends
        );
        expected = sessions.iter().map(|&s| dump(&engine, s)).collect();
        // Drop (not clean shutdown): acknowledged work must already be
        // on disk.
    }
    // Every acknowledged batch was durable at ack time, so reopening
    // under any mode rebuilds exactly what the writers saw.
    let engine = Engine::open(&dir).unwrap();
    for (ix, want) in expected.iter().enumerate() {
        assert_eq!(&dump(&engine, SessionId(ix as u64)), want);
    }
}

#[test]
fn failed_group_flush_rolls_the_batch_back() {
    let dir = TempDir::new("flushfail");
    // Budget covers the store magic and the first batch; the second
    // batch's group flush hits the wall and must report Persist — with
    // the in-memory state rolled back, exactly like inline commit-sync.
    let failing = DurabilityOptions {
        file_factory: Some(failing_factory(ByteBudget::new(96))),
        ..opts()
    };
    let engine = Engine::open_with_config(
        &dir,
        EngineConfig {
            workers: 1,
            ..EngineConfig::default()
        },
        failing,
    )
    .unwrap();
    let s = engine.create_session();
    engine
        .apply(
            s,
            vec![Command::AddVariable { name: "v".into() }, set(0, 1)],
        )
        .unwrap();
    let err = engine.apply(s, vec![set(0, 2), set(0, 3)]).unwrap_err();
    assert!(matches!(err, BatchError::Persist { .. }), "{err}");
    assert_eq!(
        dump(&engine, s)[0].1,
        Value::Int(1),
        "batch not rolled back"
    );
}

#[test]
fn group_commit_reports_its_label_and_mode() {
    let dir = TempDir::new("label");
    let engine = Engine::open_with_config(&dir, EngineConfig::default(), opts()).unwrap();
    assert_eq!(engine.durability(), Some(Durability::GroupCommit));
    // Off/interval engines never tick the group-sync counter.
    engine.shutdown();
    let plain = Engine::open(&dir).unwrap();
    let s = SessionId(0);
    let _ = plain.apply(s, vec![Command::DumpValues]);
    assert_eq!(plain.stats().wal_group_syncs, 0);
}
