//! Wire-protocol unit coverage: frame framing (EOF, torn, corrupt),
//! request/reply round-trips for every message type, and truncation
//! sweeps mirroring the core codec's crash matrix.

use std::io::Cursor;

use stem_core::codec::Reader;
use stem_core::{ConstraintId, FinSet, Interval, Justification, Value, VarId, Violation};
use stem_engine::{
    BatchError, BatchOutcome, Command, ConstraintSpec, EngineStats, KindFactory, Output,
    SessionStats, Source, N_LATENCY_BUCKETS,
};
use stem_persist::WalRecord;
use stem_server::proto::{read_frame, write_frame, Reply, Request, MAX_FRAME_LEN};

fn frame_bytes(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    write_frame(&mut out, payload).unwrap();
    out
}

#[test]
fn frames_round_trip_and_reject_corruption() {
    let payload = b"hello, session service".to_vec();
    let bytes = frame_bytes(&payload);
    assert_eq!(
        read_frame(&mut Cursor::new(&bytes)).unwrap().as_deref(),
        Some(payload.as_slice())
    );
    // Clean EOF between frames.
    assert_eq!(read_frame(&mut Cursor::new(&[] as &[u8])).unwrap(), None);
    // EOF inside the header and inside the payload are hard errors.
    for cut in 1..bytes.len() {
        assert!(
            read_frame(&mut Cursor::new(&bytes[..cut])).is_err(),
            "cut at {cut} did not error"
        );
    }
    // Any single corrupted byte fails the checksum (or the length field).
    for i in 0..bytes.len() {
        let mut bad = bytes.clone();
        bad[i] ^= 0x40;
        assert!(
            read_frame(&mut Cursor::new(&bad)).is_err(),
            "corrupt byte {i} went unnoticed"
        );
    }
    // Oversized length claims are rejected before allocation.
    let mut huge = Vec::new();
    huge.extend_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
    huge.extend_from_slice(&0u32.to_le_bytes());
    assert!(read_frame(&mut Cursor::new(&huge)).is_err());
    // And refused on the write side too.
    let mut sink = Vec::new();
    assert!(write_frame(&mut sink, &vec![0u8; MAX_FRAME_LEN as usize + 1]).is_err());
}

fn sample_requests() -> Vec<Request> {
    vec![
        Request::Ping,
        Request::Open,
        Request::Close { session: 7 },
        Request::Submit {
            session: 3,
            commands: pinned_commands().into_iter().map(|(cmd, _)| cmd).collect(),
        },
        Request::Stats,
        Request::SessionStats { session: 11 },
        Request::SealWal,
        Request::FetchSegment { index: 42 },
        Request::FetchSnapshot,
        Request::IngestSnapshot {
            bytes: vec![1, 2, 3, 0xFF],
        },
        Request::IngestSegment {
            bytes: b"STEMWAL1garbage-but-opaque-here".to_vec(),
        },
        Request::Promote,
        Request::Shutdown,
        Request::SubmitSeq {
            session: 6,
            key: 41,
            commands: pinned_commands()
                .into_iter()
                .take(2)
                .map(|(cmd, _)| cmd)
                .collect(),
        },
        Request::Lease { session: 5 },
        Request::CatchUp,
        // Value shapes the pinned commands leave out: a non-ASCII name, a
        // list, and interval/finite-set domains.
        Request::Submit {
            session: 9,
            commands: vec![
                Command::AddVariable { name: "α".into() },
                Command::Set {
                    var: var(0),
                    value: Value::List(vec![Value::Int(1), Value::str("x")]),
                    source: Source::Application,
                },
                Command::Set {
                    var: var(0),
                    value: Value::Interval(Interval::new(-5, 4096)),
                    source: Source::User,
                },
                Command::Set {
                    var: var(1),
                    value: Value::FinSet(FinSet::new(0x8000_0000_0000_0011)),
                    source: Source::Update,
                },
                Command::Probe {
                    var: var(2),
                    value: Value::Interval(Interval::new(i64::MIN, i64::MAX)),
                },
            ],
        },
    ]
}

fn sample_replies() -> Vec<Reply> {
    let mut stats = EngineStats {
        batches: 10,
        batches_ok: 9,
        wal_appends: 8,
        wal_bytes: 4096,
        wal_group_syncs: 3,
        segments_ingested: 2,
        records_replayed: 77,
        dedup_skips: 6,
        domain_tightenings: 31,
        subsumed_pruned: 12,
        wipeouts: 2,
        ..EngineStats::default()
    };
    stats.latency_buckets[0] = 5;
    *stats.latency_buckets.last_mut().unwrap() = 1;
    vec![
        Reply::Pong,
        Reply::Session { id: 12 },
        Reply::Closed { existed: true },
        Reply::Batch(Ok(BatchOutcome {
            outputs: vec![
                Output::Unit,
                Output::Var(VarId::from_index(3)),
                Output::Constraint(ConstraintId::from_index(1)),
                Output::Value(Value::str("wire")),
                Output::Feasible(false),
                Output::Count(6),
                Output::Dump(vec![(
                    "a".into(),
                    Value::Int(7),
                    Justification::Propagated {
                        constraint: ConstraintId::from_index(0),
                        record: stem_core::DependencyRecord::All,
                    },
                )]),
                Output::Violations(vec![Violation::unsatisfied(ConstraintId::from_index(2))]),
            ],
            waves: 4,
            assignments: 9,
        })),
        Reply::Batch(Err(BatchError::Violation {
            index: 1,
            violation: Violation::revisit(
                VarId::from_index(0),
                ConstraintId::from_index(1),
                Value::Int(99),
            ),
        })),
        Reply::Batch(Err(BatchError::InvalidCommand {
            index: 0,
            reason: "nope".into(),
        })),
        Reply::Batch(Err(BatchError::Panicked {
            index: usize::MAX,
            message: "boom".into(),
        })),
        Reply::Batch(Err(BatchError::Persist {
            message: "disk full".into(),
        })),
        Reply::Batch(Err(BatchError::Quarantined)),
        Reply::Batch(Err(BatchError::Backpressure)),
        Reply::Batch(Err(BatchError::Shutdown)),
        Reply::Batch(Err(BatchError::ReadOnlyReplica)),
        Reply::Stats(stats),
        Reply::SessionStats(SessionStats {
            batches: 5,
            wal_appends: 4,
            wal_bytes: 512,
            quarantined: true,
            domain_tightenings: 17,
            subsumed_pruned: 3,
            wipeouts: 1,
            ..SessionStats::default()
        }),
        // Domain values inside a dump reply (the inspector path).
        Reply::Batch(Ok(BatchOutcome {
            outputs: vec![
                Output::Value(Value::Interval(Interval::new(10, 20))),
                Output::Dump(vec![(
                    "dom".into(),
                    Value::FinSet(FinSet::new(0b1010_0001)),
                    Justification::User,
                )]),
            ],
            waves: 1,
            assignments: 2,
        })),
        Reply::Sealed {
            segments: vec![0, 1, 5],
        },
        Reply::Segment {
            bytes: vec![9; 100],
        },
        Reply::Snapshot { bytes: None },
        Reply::Snapshot {
            bytes: Some(vec![1, 2, 3]),
        },
        Reply::Ingested {
            applied: 10,
            skipped: 2,
            anomalies: 0,
        },
        Reply::Promoted { was_replica: true },
        Reply::ShuttingDown,
        Reply::Err {
            message: "bad day".into(),
        },
        Reply::Busy {
            active: 64,
            max: 64,
        },
        Reply::Lease {
            epoch: 3,
            holder: 1,
        },
        Reply::CatchUp {
            snapshot: None,
            segments: vec![],
        },
        Reply::CatchUp {
            snapshot: Some(b"STEMSNP1opaque".to_vec()),
            segments: vec![b"STEMWAL1one".to_vec(), b"STEMWAL1two".to_vec()],
        },
    ]
}

#[test]
fn every_request_round_trips() {
    for req in sample_requests() {
        let mut buf = Vec::new();
        req.encode(&mut buf).unwrap();
        let mut r = Reader::new(&buf);
        let back = Request::decode(&mut r).unwrap_or_else(|e| panic!("{req:?}: {e:?}"));
        assert!(r.is_empty(), "{req:?}: trailing bytes");
        assert_eq!(format!("{req:?}"), format!("{back:?}"));
    }
}

#[test]
fn every_reply_round_trips() {
    for reply in sample_replies() {
        let mut buf = Vec::new();
        reply.encode(&mut buf);
        let mut r = Reader::new(&buf);
        let back = Reply::decode(&mut r).unwrap_or_else(|e| panic!("{reply:?}: {e:?}"));
        assert!(r.is_empty(), "{reply:?}: trailing bytes");
        assert_eq!(format!("{reply:?}"), format!("{back:?}"));
    }
}

#[test]
fn every_truncation_of_every_message_errors_cleanly() {
    for req in sample_requests() {
        let mut buf = Vec::new();
        req.encode(&mut buf).unwrap();
        for cut in 0..buf.len() {
            let mut r = Reader::new(&buf[..cut]);
            // A proper prefix of a different message may still decode (a
            // smaller tag-only request is a prefix of a larger one), but
            // it must never panic and never read past the buffer.
            let _ = Request::decode(&mut r);
            assert!(r.position() <= cut, "{req:?}: overran at cut {cut}");
        }
    }
    for reply in sample_replies() {
        let mut buf = Vec::new();
        reply.encode(&mut buf);
        for cut in 0..buf.len() {
            let mut r = Reader::new(&buf[..cut]);
            let _ = Reply::decode(&mut r);
            assert!(r.position() <= cut, "{reply:?}: overran at cut {cut}");
        }
    }
}

#[test]
fn unknown_tags_are_rejected() {
    use stem_core::codec::DecodeError;
    for tag in [16u8, 0x80, 0xFF] {
        assert!(matches!(
            Request::decode(&mut Reader::new(&[tag])),
            Err(DecodeError::Tag { .. })
        ));
        assert!(matches!(
            Reply::decode(&mut Reader::new(&[tag])),
            Err(DecodeError::Tag { .. })
        ));
    }
}

#[test]
fn custom_kinds_are_refused_at_encode_time() {
    let req = Request::Submit {
        session: 0,
        commands: vec![Command::AddCustomConstraint {
            kind: KindFactory::new(|| std::rc::Rc::new(stem_core::kinds::Equality::new())),
            args: vec![],
        }],
    };
    let mut buf = Vec::new();
    assert!(req.encode(&mut buf).is_err());
}

/// Engine stats whose scalar fields, in declaration order, hold `step`,
/// `2 * step`, … and whose latency buckets continue the count. The literal
/// names every field, so a new counter cannot skip the tests below.
fn numbered_engine_stats(step: u64) -> EngineStats {
    let mut n = 0;
    let mut next = || {
        n += step;
        n
    };
    EngineStats {
        batches: next(),
        batches_ok: next(),
        violations: next(),
        rollbacks: next(),
        panics: next(),
        waves: next(),
        assignments: next(),
        sessions_created: next(),
        sessions_quarantined: next(),
        backpressure_rejections: next(),
        queue_depth_hwm: next(),
        plan_compiles: next(),
        plan_cache_hits: next(),
        plan_cache_invalidations: next(),
        plan_replays_parallel: next(),
        cones_executed: next(),
        cones_stolen: next(),
        parallel_fallbacks: next(),
        recoveries: next(),
        segments_ingested: next(),
        records_replayed: next(),
        dedup_skips: next(),
        domain_tightenings: next(),
        subsumed_pruned: next(),
        wipeouts: next(),
        wal_appends: next(),
        wal_bytes: next(),
        wal_group_syncs: next(),
        snapshots_written: next(),
        latency_buckets: std::array::from_fn(|_| next()),
    }
}

/// Session stats numbered 1, 2, 3, … like [`numbered_engine_stats`],
/// quarantined.
fn numbered_session_stats() -> SessionStats {
    let mut n = 0;
    let mut next = || {
        n += 1;
        n
    };
    SessionStats {
        batches: next(),
        batches_ok: next(),
        violations: next(),
        panics: next(),
        waves: next(),
        assignments: next(),
        n_variables: next(),
        n_constraints: next(),
        net_snapshots: next(),
        net_clones: next(),
        plan_compiles: next(),
        plan_cache_hits: next(),
        plan_cache_invalidations: next(),
        plan_replays_parallel: next(),
        cones_executed: next(),
        cones_stolen: next(),
        parallel_fallbacks: next(),
        domain_tightenings: next(),
        subsumed_pruned: next(),
        wipeouts: next(),
        wal_appends: next(),
        wal_bytes: next(),
        quarantined: true,
    }
}

fn le_words(words: impl IntoIterator<Item = u64>) -> Vec<u8> {
    words.into_iter().flat_map(u64::to_le_bytes).collect()
}

/// Pins the `Stats`/`SessionStats` reply layout: one tag byte, then every
/// counter as a little-endian u64 in declaration order (engine latency
/// buckets last; the session's quarantine flag as a final byte). Every
/// field carries a distinct value, so two swapped fields change the bytes.
#[test]
fn stats_replies_have_a_pinned_field_order() {
    let engine = numbered_engine_stats(1);
    let mut buf = Vec::new();
    Reply::Stats(engine).encode(&mut buf);
    let mut expected = vec![4u8];
    expected.extend(le_words(1..=29 + N_LATENCY_BUCKETS as u64));
    assert_eq!(buf, expected);
    match Reply::decode(&mut Reader::new(&buf)).unwrap() {
        Reply::Stats(back) => assert_eq!(back, engine),
        other => panic!("expected Stats, got {other:?}"),
    }

    let session = numbered_session_stats();
    let mut buf = Vec::new();
    Reply::SessionStats(session).encode(&mut buf);
    let mut expected = vec![5u8];
    expected.extend(le_words(1..=22));
    expected.push(1);
    assert_eq!(buf, expected);
    match Reply::decode(&mut Reader::new(&buf)).unwrap() {
        Reply::SessionStats(back) => assert_eq!(back, session),
        other => panic!("expected SessionStats, got {other:?}"),
    }
}

/// Little-endian images of the codec primitives, spelled out so the pinned
/// layouts below do not lean on the encoder they pin.
fn w(x: u32) -> Vec<u8> {
    x.to_le_bytes().to_vec()
}

fn q(x: u64) -> Vec<u8> {
    x.to_le_bytes().to_vec()
}

fn i(x: i64) -> Vec<u8> {
    x.to_le_bytes().to_vec()
}

fn f(x: f64) -> Vec<u8> {
    x.to_bits().to_le_bytes().to_vec()
}

fn var(ix: usize) -> VarId {
    VarId::from_index(ix)
}

/// Every built-in constraint spec (both `out` shapes of the directional
/// domain relations) beside its pinned encoding: tag byte, then fields.
fn pinned_specs() -> Vec<(ConstraintSpec, Vec<u8>)> {
    vec![
        (ConstraintSpec::Equality, vec![0]),
        (ConstraintSpec::Sum, vec![1]),
        (ConstraintSpec::Max, vec![2]),
        (ConstraintSpec::Min, vec![3]),
        (ConstraintSpec::Product, vec![4]),
        (
            ConstraintSpec::Scale {
                gain: 1.5,
                offset: -0.25,
            },
            [vec![5], f(1.5), f(-0.25)].concat(),
        ),
        (
            ConstraintSpec::LeConst(Value::Int(128)),
            [vec![6, 2], i(128)].concat(),
        ),
        (
            ConstraintSpec::GeConst(Value::Float(2.5)),
            [vec![7, 3], f(2.5)].concat(),
        ),
        (ConstraintSpec::EqConst(Value::Bool(true)), vec![8, 1, 1]),
        (ConstraintSpec::Le, vec![9]),
        (ConstraintSpec::Lt, vec![10]),
        (
            ConstraintSpec::DomAdd {
                views: [(1, 0), (2, -3), (-1, 5)],
                out: Some(2),
            },
            [vec![11], i(1), i(0), i(2), i(-3), i(-1), i(5), vec![2]].concat(),
        ),
        (
            ConstraintSpec::DomAdd {
                views: [(1, 0), (1, 0), (1, 0)],
                out: None,
            },
            [vec![11], i(1), i(0), i(1), i(0), i(1), i(0), vec![255]].concat(),
        ),
        (
            ConstraintSpec::DomLe {
                c: -4,
                views: [(1, 2), (3, 0)],
                out: Some(1),
            },
            [vec![12], i(-4), i(1), i(2), i(3), i(0), vec![1]].concat(),
        ),
        (
            ConstraintSpec::DomLe {
                c: 0,
                views: [(1, 0), (-1, 0)],
                out: None,
            },
            [vec![12], i(0), i(1), i(0), i(-1), i(0), vec![255]].concat(),
        ),
        (ConstraintSpec::DomAllDiff, vec![13]),
        (
            ConstraintSpec::DomReifLe {
                c: 6,
                views: [(2, 1), (1, -1)],
            },
            [vec![14], i(6), i(2), i(1), i(1), i(-1)].concat(),
        ),
    ]
}

/// Every command — each claimed source, each pinned spec — beside its
/// pinned encoding: for a mutating command the bytes a WAL record carries
/// and a wire frame nests after tag 0, for a read-only command its wire
/// bytes.
fn pinned_commands() -> Vec<(Command, Vec<u8>)> {
    let mut cases = vec![(
        Command::AddVariable { name: "a".into() },
        [vec![0], w(1), b"a".to_vec()].concat(),
    )];
    for (tag, source) in [
        (0, Source::User),
        (1, Source::Application),
        (2, Source::Update),
        (3, Source::DefaultValue),
    ] {
        cases.push((
            Command::Set {
                var: var(1),
                value: Value::Int(7),
                source,
            },
            [vec![1], w(1), vec![2], i(7), vec![tag]].concat(),
        ));
    }
    cases.push((Command::Unset { var: var(2) }, [vec![2], w(2)].concat()));
    for (spec, bytes) in pinned_specs() {
        cases.push((
            Command::AddConstraint {
                spec,
                args: vec![var(0), var(1), var(2)],
            },
            [vec![3], bytes, w(3), w(0), w(1), w(2)].concat(),
        ));
    }
    cases.extend([
        (
            Command::RemoveConstraint {
                constraint: ConstraintId::from_index(4),
            },
            [vec![4], w(4)].concat(),
        ),
        (
            Command::EnableConstraint {
                constraint: ConstraintId::from_index(5),
                enabled: false,
            },
            [vec![5], w(5), vec![0]].concat(),
        ),
        (
            Command::SetKindEnabled {
                kind_name: "equality".into(),
                enabled: true,
            },
            [vec![6], w(8), b"equality".to_vec(), vec![1]].concat(),
        ),
        (
            Command::SetValueChangeLimit { limit: 3 },
            [vec![7], w(3)].concat(),
        ),
        (Command::Get { var: var(1) }, [vec![1], w(1)].concat()),
        (
            Command::Probe {
                var: var(2),
                value: Value::Float(0.5),
            },
            [vec![2], w(2), vec![3], f(0.5)].concat(),
        ),
        (Command::DumpValues, vec![3]),
        (Command::CheckAll, vec![4]),
    ]);
    cases
}

/// Pins the command vocabulary's bytes on the wire and in the log. A
/// round trip would not catch a tag renumbered on both sides, which
/// would still break every existing store and peer; exact bytes do.
#[test]
fn command_vocabulary_bytes_are_pinned() {
    let pinned = pinned_commands();

    // The log: one batch record carrying every mutating command.
    let mutating: Vec<_> = pinned.iter().filter(|(cmd, _)| cmd.is_mutating()).collect();
    let mut wal_expected = [vec![0], q(7), q(3), q(9), w(mutating.len() as u32)].concat();
    for (_, bytes) in &mutating {
        wal_expected.extend_from_slice(bytes);
    }
    let record = WalRecord::Batch {
        session: 7,
        seq: 3,
        key: 9,
        commands: mutating
            .iter()
            .map(|(cmd, _)| cmd.to_persist().expect("a mutating built-in command"))
            .collect(),
    };
    assert_eq!(record.encode_payload(), wal_expected);
    assert_eq!(WalRecord::decode_payload(&wal_expected).unwrap(), record);

    // The wire: one submit frame, mutating commands as tag 0 + their log
    // bytes, read-only commands under tags of their own.
    let mut wire_expected = [vec![3], q(11), w(pinned.len() as u32)].concat();
    for (cmd, bytes) in &pinned {
        if cmd.is_mutating() {
            wire_expected.push(0);
        }
        wire_expected.extend_from_slice(bytes);
    }
    let request = Request::Submit {
        session: 11,
        commands: pinned.into_iter().map(|(cmd, _)| cmd).collect(),
    };
    let mut buf = Vec::new();
    request.encode(&mut buf).unwrap();
    assert_eq!(buf, wire_expected);
    let back = Request::decode(&mut Reader::new(&buf)).unwrap();
    assert_eq!(format!("{back:?}"), format!("{request:?}"));
}

/// `EngineStats::absorb`, the cluster roll-up: every counter and latency
/// bucket adds; the queue-depth high-water mark takes the max.
#[test]
fn absorb_sums_counters_and_maxes_the_queue_mark() {
    let (small, large) = (numbered_engine_stats(1), numbered_engine_stats(100));
    let mut expected = numbered_engine_stats(101);
    expected.queue_depth_hwm = large.queue_depth_hwm;
    for (mut rolled, other) in [(small, large), (large, small)] {
        rolled.absorb(&other);
        assert_eq!(rolled, expected);
    }
}
