//! Durable-engine lifecycle: log-before-ack, reopen/recovery equality,
//! closed-session retirement, checkpoint compaction, persist-failure
//! rollback, and the durability-related stats surface.

use std::fs;

use stem_core::{Value, VarId};
use stem_engine::{
    BatchError, Command, ConstraintSpec, Durability, DurabilityOptions, Engine, EngineConfig,
    KindFactory, Output, SessionId, Source,
};
use stem_persist::{failing_factory, ByteBudget, PersistCommand, Store, StoreOptions, WalRecord};
use stem_tempdir::TempDir;

fn config() -> EngineConfig {
    EngineConfig {
        workers: 2,
        ..EngineConfig::default()
    }
}

fn opts() -> DurabilityOptions {
    DurabilityOptions {
        checkpoint_bytes: 0, // no background checkpoints: deterministic
        ..DurabilityOptions::default()
    }
}

fn add(name: &str) -> Command {
    Command::AddVariable { name: name.into() }
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

fn violations(engine: &Engine, s: SessionId) -> Vec<stem_core::Violation> {
    match engine
        .apply(s, vec![Command::CheckAll])
        .expect("check")
        .outputs
        .remove(0)
    {
        Output::Violations(v) => v,
        other => panic!("expected violations, got {other:?}"),
    }
}

/// Builds a session: c = a + b with a=2, b=3, plus a removed constraint
/// (tombstone) and a disabled bound — structural variety for recovery.
fn build_rich_session(engine: &Engine, s: SessionId) {
    engine.apply(s, vec![add("a"), add("b"), add("c")]).unwrap();
    engine
        .apply(
            s,
            vec![Command::AddConstraint {
                spec: ConstraintSpec::Equality,
                args: vec![VarId::from_index(0), VarId::from_index(1)],
            }],
        )
        .unwrap();
    engine
        .apply(
            s,
            vec![Command::AddConstraint {
                spec: ConstraintSpec::Sum,
                args: vec![
                    VarId::from_index(0),
                    VarId::from_index(1),
                    VarId::from_index(2),
                ],
            }],
        )
        .unwrap();
    // Tombstone the equality so a/b diverge, then bound c and disable it.
    engine
        .apply(
            s,
            vec![Command::RemoveConstraint {
                constraint: stem_core::ConstraintId::from_index(0),
            }],
        )
        .unwrap();
    engine
        .apply(
            s,
            vec![Command::AddConstraint {
                spec: ConstraintSpec::LeConst(Value::Int(100)),
                args: vec![VarId::from_index(2)],
            }],
        )
        .unwrap();
    engine
        .apply(
            s,
            vec![Command::EnableConstraint {
                constraint: stem_core::ConstraintId::from_index(2),
                enabled: false,
            }],
        )
        .unwrap();
    engine.apply(s, vec![set(0, 2), set(1, 3)]).unwrap();
}

#[test]
fn reopen_rebuilds_sessions_exactly() {
    let dir = TempDir::new("roundtrip");
    let (d0, d1, v0);
    {
        let engine = Engine::open_with_config(&dir, config(), opts()).unwrap();
        let s0 = engine.create_session();
        let s1 = engine.create_session();
        build_rich_session(&engine, s0);
        engine.apply(s1, vec![add("x"), set(0, 42)]).unwrap();
        d0 = dump(&engine, s0);
        d1 = dump(&engine, s1);
        v0 = violations(&engine, s0);
        let stats = engine.stats();
        assert!(stats.wal_appends >= 8, "every mutating batch logs");
        assert!(stats.wal_bytes > 0);
        assert_eq!(stats.recoveries, 0);
        engine.shutdown();
    }
    let engine = Engine::open_with_config(&dir, config(), opts()).unwrap();
    let (s0, s1) = (SessionId(0), SessionId(1));
    assert_eq!(dump(&engine, s0), d0);
    assert_eq!(dump(&engine, s1), d1);
    assert_eq!(violations(&engine, s0), v0);
    assert_eq!(engine.stats().recoveries, 2);
    // Ids continue past everything the log has seen.
    assert_eq!(engine.create_session(), SessionId(2));
    // The rebuilt network still propagates: a=10 flows into c = a + b.
    engine.apply(s0, vec![set(0, 10)]).unwrap();
    let after = dump(&engine, s0);
    assert_eq!(after[2].1, Value::Int(13));
}

#[test]
fn read_only_batches_are_never_logged() {
    let dir = TempDir::new("readonly");
    let engine = Engine::open_with_config(&dir, config(), opts()).unwrap();
    let s = engine.create_session();
    engine.apply(s, vec![add("a"), set(0, 1)]).unwrap();
    let logged = engine.stats().wal_appends;
    engine
        .apply(
            s,
            vec![
                Command::Get {
                    var: VarId::from_index(0),
                },
                Command::Probe {
                    var: VarId::from_index(0),
                    value: Value::Int(9),
                },
                Command::DumpValues,
                Command::CheckAll,
            ],
        )
        .unwrap();
    assert_eq!(engine.stats().wal_appends, logged);
}

#[test]
fn violation_batches_are_not_logged_and_not_recovered() {
    let dir = TempDir::new("violation");
    {
        let engine = Engine::open_with_config(&dir, config(), opts()).unwrap();
        let s = engine.create_session();
        engine
            .apply(
                s,
                vec![
                    add("v"),
                    Command::AddConstraint {
                        spec: ConstraintSpec::LeConst(Value::Int(5)),
                        args: vec![VarId::from_index(0)],
                    },
                    set(0, 3),
                ],
            )
            .unwrap();
        let logged = engine.stats().wal_appends;
        let err = engine.apply(s, vec![set(0, 99)]).unwrap_err();
        assert!(matches!(err, BatchError::Violation { .. }));
        assert_eq!(
            engine.stats().wal_appends,
            logged,
            "rolled-back batches leave no record"
        );
    }
    let engine = Engine::open(&dir).unwrap();
    let d = dump(&engine, SessionId(0));
    assert_eq!(d[0].1, Value::Int(3), "the violating write never happened");
}

#[test]
fn closed_sessions_stay_closed_across_reopen() {
    let dir = TempDir::new("close");
    {
        let engine = Engine::open_with_config(&dir, config(), opts()).unwrap();
        let s0 = engine.create_session();
        let s1 = engine.create_session();
        engine.apply(s0, vec![add("keep"), set(0, 1)]).unwrap();
        engine.apply(s1, vec![add("gone"), set(0, 2)]).unwrap();
        assert!(engine.close_session(s1));
    }
    let engine = Engine::open_with_config(&dir, config(), opts()).unwrap();
    assert_eq!(dump(&engine, SessionId(0))[0].0, "keep");
    assert_eq!(engine.stats().recoveries, 1, "only the live session");
    assert!(
        dump(&engine, SessionId(1)).is_empty(),
        "closed session was not resurrected"
    );
    // The retired id is not recycled.
    assert_eq!(engine.create_session(), SessionId(2));
}

#[test]
fn checkpoint_compacts_and_recovery_uses_the_snapshot() {
    let dir = TempDir::new("checkpoint");
    let small_segments = DurabilityOptions {
        segment_bytes: 256,
        checkpoint_bytes: 0,
        ..DurabilityOptions::default()
    };
    let (expected, post);
    {
        let engine = Engine::open_with_config(&dir, config(), small_segments).unwrap();
        let s = engine.create_session();
        engine.apply(s, vec![add("a"), add("b")]).unwrap();
        for i in 0..30 {
            engine.apply(s, vec![set(0, i), set(1, i * 2)]).unwrap();
        }
        assert!(engine.checkpoint().unwrap());
        let stats = engine.stats();
        assert_eq!(stats.snapshots_written, 1);
        // One batch after the checkpoint: recovery = snapshot + tail.
        engine.apply(s, vec![set(0, 1000)]).unwrap();
        expected = dump(&engine, s);
        post = stats.wal_appends;
    }
    let logs = fs::read_dir(&dir)
        .unwrap()
        .filter(|e| {
            e.as_ref()
                .unwrap()
                .path()
                .extension()
                .is_some_and(|x| x == "log")
        })
        .count();
    assert!(logs <= 3, "covered segments were compacted, found {logs}");
    let engine = Engine::open_with_config(&dir, config(), opts()).unwrap();
    assert_eq!(dump(&engine, SessionId(0)), expected);
    assert_eq!(engine.stats().recoveries, 1);
    assert!(post > 0);
}

#[test]
fn automatic_checkpoints_fire_on_byte_threshold() {
    let dir = TempDir::new("autockpt");
    let auto = DurabilityOptions {
        segment_bytes: 256,
        checkpoint_bytes: 512,
        ..DurabilityOptions::default()
    };
    let engine = Engine::open_with_config(&dir, config(), auto).unwrap();
    let s = engine.create_session();
    engine.apply(s, vec![add("a")]).unwrap();
    for i in 0..200 {
        engine.apply(s, vec![set(0, i)]).unwrap();
    }
    // The flusher thread ticks every ≤50ms; give it a few ticks.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while engine.stats().snapshots_written == 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    assert!(
        engine.stats().snapshots_written >= 1,
        "background checkpoint never fired"
    );
    let expected = dump(&engine, s);
    engine.shutdown();
    let engine = Engine::open_with_config(&dir, config(), opts()).unwrap();
    assert_eq!(dump(&engine, SessionId(0)), expected);
}

#[test]
fn interval_sync_survives_clean_shutdown() {
    let dir = TempDir::new("interval");
    let interval = DurabilityOptions {
        mode: Durability::IntervalSync {
            interval: std::time::Duration::from_secs(3600),
        },
        checkpoint_bytes: 0,
        ..DurabilityOptions::default()
    };
    let expected;
    {
        let engine = Engine::open_with_config(&dir, config(), interval).unwrap();
        let s = engine.create_session();
        engine.apply(s, vec![add("a"), set(0, 7)]).unwrap();
        expected = dump(&engine, s);
        // Drop without an explicit sync: shutdown flushes deferred writes.
    }
    let engine = Engine::open(&dir).unwrap();
    assert_eq!(dump(&engine, SessionId(0)), expected);
}

#[test]
fn custom_kinds_are_rejected_only_when_durable() {
    let custom = || Command::AddCustomConstraint {
        kind: KindFactory::new(|| std::rc::Rc::new(stem_core::kinds::Equality::new())),
        args: vec![VarId::from_index(0)],
    };
    let dir = TempDir::new("custom");
    let engine = Engine::open_with_config(&dir, config(), opts()).unwrap();
    let s = engine.create_session();
    engine.apply(s, vec![add("a")]).unwrap();
    let err = engine.apply(s, vec![custom()]).unwrap_err();
    match err {
        BatchError::InvalidCommand { reason, .. } => {
            assert!(reason.contains("persisted"), "{reason}")
        }
        other => panic!("expected InvalidCommand, got {other}"),
    }
    engine.shutdown();

    let volatile = Engine::new(1);
    let s = volatile.create_session();
    volatile.apply(s, vec![add("a")]).unwrap();
    volatile.apply(s, vec![custom()]).unwrap();
}

#[test]
fn wal_append_failure_rolls_the_batch_back() {
    let dir = TempDir::new("walfail");
    // Enough budget for the store magic plus the first batch's record;
    // the second batch's append dies mid-frame.
    let budget = ByteBudget::new(96);
    let failing = DurabilityOptions {
        checkpoint_bytes: 0,
        file_factory: Some(failing_factory(budget)),
        ..DurabilityOptions::default()
    };
    let engine = Engine::open_with_config(&dir, config(), failing).unwrap();
    let s = engine.create_session();
    engine.apply(s, vec![add("a"), set(0, 1)]).unwrap();
    let err = engine.apply(s, vec![set(0, 2), set(0, 3)]).unwrap_err();
    assert!(matches!(err, BatchError::Persist { .. }), "{err}");
    // The failed batch rolled back in memory…
    assert_eq!(dump(&engine, s)[0].1, Value::Int(1));
    engine.shutdown();
    // …and recovery agrees: only the acknowledged batch exists.
    let engine = Engine::open(&dir).unwrap();
    let d = dump(&engine, SessionId(0));
    assert_eq!(d.len(), 1);
    assert_eq!(d[0].1, Value::Int(1));
}

#[test]
fn checkpoint_crash_leaves_log_recovery_intact() {
    let dir = TempDir::new("ckptcrash");
    let expected;
    let wal_bytes;
    {
        let engine = Engine::open_with_config(&dir, config(), opts()).unwrap();
        let s = engine.create_session();
        engine.apply(s, vec![add("a"), add("b")]).unwrap();
        for i in 0..10 {
            engine.apply(s, vec![set(0, i), set(1, -i)]).unwrap();
        }
        expected = dump(&engine, s);
        wal_bytes = engine.stats().wal_bytes;
    }
    // Reopen with a budget that admits the fresh segment magic but dies
    // inside the snapshot tmp write: the checkpoint must fail without
    // destroying the log it meant to replace.
    {
        let budget = ByteBudget::new(40);
        let failing = DurabilityOptions {
            checkpoint_bytes: 0,
            file_factory: Some(failing_factory(budget)),
            ..DurabilityOptions::default()
        };
        let engine = Engine::open_with_config(&dir, config(), failing).unwrap();
        assert!(wal_bytes > 40, "budget must not cover the snapshot");
        assert!(engine.checkpoint().is_err(), "snapshot write must crash");
    }
    let engine = Engine::open(&dir).unwrap();
    assert_eq!(dump(&engine, SessionId(0)), expected);
    assert_eq!(engine.stats().snapshots_written, 0);
}

#[test]
fn durability_off_recovers_but_does_not_log() {
    let dir = TempDir::new("off");
    {
        let engine = Engine::open_with_config(&dir, config(), opts()).unwrap();
        let s = engine.create_session();
        engine.apply(s, vec![add("a"), set(0, 5)]).unwrap();
    }
    {
        let off = DurabilityOptions {
            mode: Durability::Off,
            checkpoint_bytes: 0,
            ..DurabilityOptions::default()
        };
        let engine = Engine::open_with_config(&dir, config(), off).unwrap();
        assert_eq!(engine.durability(), Some(Durability::Off));
        let s = SessionId(0);
        assert_eq!(dump(&engine, s)[0].1, Value::Int(5), "recovery still runs");
        let appends = engine.stats().wal_appends;
        engine.apply(s, vec![set(0, 99)]).unwrap();
        assert_eq!(engine.stats().wal_appends, appends, "nothing new is logged");
        assert!(!engine.checkpoint().unwrap());
    }
    let engine = Engine::open(&dir).unwrap();
    assert_eq!(
        dump(&engine, SessionId(0))[0].1,
        Value::Int(5),
        "the unlogged write is gone, as Off promises"
    );
}

/// A sequence gap in the log (corruption the checksums could not see)
/// must quarantine the session and fence the store with a checkpoint, so
/// the stale higher-seq record can never shadow commits made after the
/// quarantine is lifted.
#[test]
fn sequence_gap_quarantines_and_fences_stale_records() {
    let dir = TempDir::new("seqgap");
    {
        let (mut store, _) = Store::open(&dir, StoreOptions::default()).unwrap();
        let set_rec = |seq: u64, v: i64| WalRecord::Batch {
            session: 0,
            seq,
            key: 0,
            commands: vec![PersistCommand::Set {
                var: VarId::from_index(0),
                value: Value::Int(v),
                source: Source::User,
            }],
        };
        store
            .append(&WalRecord::Batch {
                session: 0,
                seq: 1,
                key: 0,
                commands: vec![PersistCommand::AddVariable { name: "v".into() }],
            })
            .unwrap();
        store.append(&set_rec(2, 1)).unwrap();
        // seq 3 is missing: the record at seq 4 is stale garbage that a
        // post-recovery commit would otherwise collide with.
        store.append(&set_rec(4, 99)).unwrap();
    }
    {
        let engine = Engine::open_with_config(&dir, config(), opts()).unwrap();
        let s = SessionId(0);
        assert!(engine.session_stats(s).quarantined);
        assert_eq!(engine.stats().sessions_quarantined, 1);
        assert!(
            engine.stats().snapshots_written >= 1,
            "open must fence the anomaly with a checkpoint"
        );
        let err = engine.apply(s, vec![set(0, 7)]).unwrap_err();
        assert!(matches!(err, BatchError::Quarantined), "{err}");
        assert_eq!(dump(&engine, s)[0].1, Value::Int(1), "pre-gap prefix");

        assert!(engine.lift_quarantine(s));
        // These land at seqs 3 and 4 — the latter the same number the
        // stale record held before the fence compacted it away.
        engine.apply(s, vec![set(0, 2)]).unwrap();
        engine.apply(s, vec![set(0, 5)]).unwrap();
        engine.shutdown();
    }
    let engine = Engine::open_with_config(&dir, config(), opts()).unwrap();
    let s = SessionId(0);
    assert!(!engine.session_stats(s).quarantined);
    assert_eq!(
        dump(&engine, s)[0].1,
        Value::Int(5),
        "post-quarantine commits win; the stale seq-4 record is gone"
    );
}

/// Closed-session ids are forgotten two checkpoints after compaction has
/// retired every record mentioning them, so snapshots do not grow without
/// bound — while the session still never resurrects and its id is never
/// recycled.
#[test]
fn closed_ids_are_pruned_after_compaction() {
    let dir = TempDir::new("prune");
    {
        let engine = Engine::open_with_config(&dir, config(), opts()).unwrap();
        let s0 = engine.create_session();
        let s1 = engine.create_session();
        engine.apply(s0, vec![add("keep"), set(0, 1)]).unwrap();
        engine.apply(s1, vec![add("gone"), set(0, 2)]).unwrap();
        assert!(engine.close_session(s1));
        // #1 compacts the segments holding s1's records (snapshot still
        // lists the id), #2 sees the compaction verified and tells the
        // workers to forget, #3 writes the first id-free snapshot.
        for _ in 0..3 {
            assert!(engine.checkpoint().unwrap());
        }
        engine.shutdown();
    }
    let (_, rec) = Store::open(&dir, StoreOptions::default()).unwrap();
    let snap = rec.snapshot.expect("checkpoints wrote snapshots");
    assert!(
        snap.closed.is_empty(),
        "pruned closed ids still in snapshot: {:?}",
        snap.closed
    );
    assert_eq!(snap.next_session, 2, "the id bound still covers s1");

    let engine = Engine::open_with_config(&dir, config(), opts()).unwrap();
    assert!(
        dump(&engine, SessionId(1)).is_empty(),
        "closed session must not resurrect after its id is pruned"
    );
    assert_eq!(engine.create_session(), SessionId(2), "id not recycled");
}

#[test]
fn volatile_engines_report_no_durability() {
    let engine = Engine::new(1);
    assert_eq!(engine.durability(), None);
    assert!(!engine.sync_wal().unwrap());
    assert!(!engine.checkpoint().unwrap());
    let s = engine.create_session();
    engine.apply(s, vec![add("a"), set(0, 1)]).unwrap();
    let stats = engine.stats();
    assert_eq!(
        (stats.wal_appends, stats.wal_bytes, stats.snapshots_written),
        (0, 0, 0)
    );
}
