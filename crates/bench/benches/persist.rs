//! `stem-persist` micro- and macro-benches: raw WAL append throughput
//! (buffered and fsync-per-record), snapshot write cost, and end-to-end
//! engine recovery time from a log tail versus from a checkpoint.

use stem_bench::harness::{BenchmarkId, Criterion};
use stem_bench::{criterion_group, criterion_main};
use stem_core::{Value, VarId};
use stem_engine::{Command, DurabilityOptions, Engine, EngineConfig, SessionId, Source};
use stem_persist::{PersistCommand, Snapshot, Store, StoreOptions, SyncPolicy, WalRecord};
use stem_tempdir::TempDir;

fn sample_record(seq: u64) -> WalRecord {
    WalRecord::Batch {
        session: 0,
        seq,
        key: 0,
        commands: vec![
            PersistCommand::Set {
                var: VarId::from_index(0),
                value: Value::Int(seq as i64),
                source: Source::User,
            },
            PersistCommand::Set {
                var: VarId::from_index(1),
                value: Value::Int(-(seq as i64)),
                source: Source::Application,
            },
        ],
    }
}

/// Raw append throughput of a two-command batch record. `deferred`
/// buffers (interval-sync's per-commit cost); `fsync` is commit-sync's.
fn wal_append(c: &mut Criterion) {
    let mut group = c.benchmark_group("persist/wal_append_2cmd");
    for &(label, sync) in &[
        ("deferred", SyncPolicy::Deferred),
        ("fsync", SyncPolicy::Always),
    ] {
        let dir = TempDir::new(label);
        let (mut store, _) = Store::open(
            &dir,
            StoreOptions {
                segment_bytes: 64 << 20, // no rotation mid-measurement
                sync,
                ..StoreOptions::default()
            },
        )
        .expect("open store");
        let mut seq = 0u64;
        group.bench_function(label, |b| {
            b.iter(|| {
                seq += 1;
                store.append(&sample_record(seq)).expect("append")
            })
        });
        drop(store);
    }
    group.finish();
}

/// Snapshot write cost for a 1000-variable session image.
fn snapshot_write(c: &mut Criterion) {
    let dir = TempDir::new("snapshot");
    let (mut store, _) = Store::open(&dir, StoreOptions::default()).expect("open store");
    let state = {
        // A realistic image is produced by gathering a live network; for
        // the write-path bench the shape (1000 vars) is what matters.
        let mut s = stem_persist::SessionState::default();
        for i in 0..1000 {
            s.vars.push((
                format!("v{i}"),
                Value::Int(i as i64),
                stem_core::Justification::User,
            ));
        }
        s
    };
    let mut n = 0u64;
    c.bench_function("persist/snapshot_write_1kvar", |b| {
        b.iter(|| {
            n += 1;
            let snap = Snapshot {
                next_session: 1,
                closed: Vec::new(),
                sessions: vec![(0, n, state.clone())],
            };
            store.write_snapshot(&snap, &[]).expect("snapshot")
        })
    });
    drop(store);
}

/// Builds a durable engine directory: one session, a 50-variable
/// equality chain, then `batches` single-`Set` commits. With
/// `checkpointed`, a snapshot covers everything and the log tail is
/// empty; otherwise recovery replays every batch.
fn build_recovery_dir(tag: &str, batches: usize, checkpointed: bool) -> TempDir {
    let dir = TempDir::new(tag);
    let engine = Engine::open_with_config(
        &dir,
        EngineConfig {
            workers: 1,
            ..EngineConfig::default()
        },
        DurabilityOptions {
            checkpoint_bytes: 0,
            ..DurabilityOptions::default()
        },
    )
    .expect("open build engine");
    let s = engine.create_session();
    let mut cmds: Vec<Command> = (0..50)
        .map(|i| Command::AddVariable {
            name: format!("v{i}"),
        })
        .collect();
    for i in 0..49 {
        cmds.push(Command::AddConstraint {
            spec: stem_engine::ConstraintSpec::Equality,
            args: vec![VarId::from_index(i), VarId::from_index(i + 1)],
        });
    }
    engine.apply(s, cmds).unwrap();
    for i in 0..batches {
        engine
            .apply(
                s,
                vec![Command::Set {
                    var: VarId::from_index(0),
                    value: Value::Int(i as i64),
                    source: Source::User,
                }],
            )
            .unwrap();
    }
    if checkpointed {
        engine.checkpoint().expect("checkpoint");
    }
    engine.shutdown();
    dir
}

/// End-to-end `Engine::open` on a prebuilt directory: log-tail replay
/// versus snapshot restore for the same 500-commit history. The
/// `session_stats` call fences on the worker, so the timed region covers
/// the full rebuild of the session's network.
fn recovery_time(c: &mut Criterion) {
    let mut group = c.benchmark_group("persist/recovery_500set");
    group.sample_size(10);
    for &(label, checkpointed) in &[("log_replay", false), ("snapshot", true)] {
        let dir = build_recovery_dir(label, 500, checkpointed);
        group.bench_with_input(BenchmarkId::from_parameter(label), &label, |b, _| {
            b.iter_batched(
                // Drop the 8-byte segments each reopen leaves behind so
                // the directory doesn't grow across iterations.
                || {
                    for e in std::fs::read_dir(&dir).unwrap() {
                        let e = e.unwrap();
                        if e.metadata().unwrap().len() == 8 {
                            let _ = std::fs::remove_file(e.path());
                        }
                    }
                },
                |()| {
                    let engine = Engine::open(&dir).expect("recover");
                    let stats = engine.session_stats(SessionId(0));
                    assert!(stats.n_variables >= 50);
                    engine.shutdown();
                },
                stem_bench::harness::BatchSize::PerIteration,
            )
        });
    }
    group.finish();
}

criterion_group!(benches, wal_append, snapshot_write, recovery_time);
criterion_main!(benches);
