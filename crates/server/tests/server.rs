//! Loopback end-to-end: a real [`Server`] on an ephemeral port, driven
//! by [`Client`]s over TCP — session lifecycle, pipelined submission,
//! queries, stats, cross-connection ordering, and shutdown.

use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use stem_core::{Justification, Value, VarId};
use stem_engine::{BatchError, Command, ConstraintSpec, Engine, SessionId, Source};
use stem_server::{Client, Server};

fn spawn_server() -> Server {
    Server::spawn(Engine::new(2), "127.0.0.1:0").expect("bind ephemeral port")
}

fn set(ix: usize, v: i64) -> Command {
    Command::Set {
        var: VarId::from_index(ix),
        value: Value::Int(v),
        source: Source::User,
    }
}

#[test]
fn session_lifecycle_queries_and_stats_over_tcp() {
    let server = spawn_server();
    let mut c = Client::connect(server.local_addr()).unwrap();
    c.ping().unwrap();

    let s = c.open().unwrap();
    // a + b = c with a tripwire; then read values and provenance back.
    c.apply(
        s,
        &[
            Command::AddVariable { name: "a".into() },
            Command::AddVariable { name: "b".into() },
            Command::AddVariable { name: "c".into() },
            Command::AddConstraint {
                spec: ConstraintSpec::Sum,
                args: vec![
                    VarId::from_index(0),
                    VarId::from_index(1),
                    VarId::from_index(2),
                ],
            },
        ],
    )
    .unwrap()
    .expect("skeleton applies");
    c.apply(s, &[set(0, 4), set(1, 38)]).unwrap().unwrap();

    assert_eq!(
        c.value(s, VarId::from_index(2)).unwrap().unwrap(),
        Value::Int(42)
    );
    let dump = c.dump(s).unwrap();
    assert_eq!(dump.len(), 3);
    let (_, value, just) = dump.iter().find(|(name, _, _)| name == "c").unwrap();
    assert_eq!(*value, Value::Int(42));
    assert!(
        matches!(just, Justification::Propagated { .. }),
        "c must be justified by the sum constraint, got {just:?}"
    );
    assert!(c.violations(s).unwrap().is_empty());

    // A violating batch reports the violation and rolls back.
    let err = c
        .apply(
            s,
            &[Command::AddConstraint {
                spec: ConstraintSpec::LeConst(Value::Int(10)),
                args: vec![VarId::from_index(2)],
            }],
        )
        .unwrap()
        .unwrap_err();
    assert!(matches!(err, BatchError::Violation { .. }), "{err:?}");
    assert_eq!(
        c.value(s, VarId::from_index(2)).unwrap().unwrap(),
        Value::Int(42),
        "violating batch must roll back over the wire too"
    );

    let stats = c.stats().unwrap();
    assert!(stats.batches >= 5);
    assert_eq!(stats.violations, 1);
    let ss = c.session_stats(s).unwrap();
    assert_eq!(ss.violations, 1);
    assert_eq!(ss.n_variables, 3);
    assert!(!ss.quarantined);

    // Untouched session ids materialise fresh (empty) sessions, so a
    // set on one fails command validation — cleanly, not fatally.
    assert!(matches!(
        c.apply(SessionId(999), &[set(0, 1)]).unwrap(),
        Err(BatchError::InvalidCommand { .. })
    ));

    assert!(c.close_session(s).unwrap());
    assert!(!c.close_session(s).unwrap(), "second close reports absent");
}

#[test]
fn pipelined_batches_come_back_in_order() {
    let server = spawn_server();
    let mut c = Client::connect(server.local_addr()).unwrap();
    let s = c.open().unwrap();
    c.apply(s, &[Command::AddVariable { name: "v".into() }])
        .unwrap()
        .unwrap();

    // 100 batches in flight before reading a single reply; the i-th
    // reply must carry the i-th probe value.
    const N: i64 = 100;
    for i in 0..N {
        c.submit(
            s,
            &[
                set(0, i),
                Command::Get {
                    var: VarId::from_index(0),
                },
            ],
        )
        .unwrap();
    }
    // call() is refused while the pipeline is open.
    assert!(c.stats().is_err());
    let results = c.drain().unwrap();
    assert_eq!(results.len(), N as usize);
    for (i, result) in results.into_iter().enumerate() {
        let out = result.unwrap_or_else(|e| panic!("batch {i}: {e}"));
        assert_eq!(
            format!("{:?}", out.outputs[1]),
            format!("{:?}", stem_engine::Output::Value(Value::Int(i as i64))),
            "reply {i} out of order"
        );
    }
    // Drained: immediate calls work again.
    assert!(c.stats().unwrap().batches >= N as u64);
}

#[test]
fn one_session_driven_from_many_connections_stays_ordered() {
    let server = spawn_server();
    let addr = server.local_addr();
    let mut admin = Client::connect(addr).unwrap();
    let s = admin.open().unwrap();
    admin
        .apply(
            s,
            &[
                Command::AddVariable {
                    name: "slot".into(),
                },
                Command::SetValueChangeLimit { limit: 100_000 },
            ],
        )
        .unwrap()
        .unwrap();

    // 4 connections race 50 batches each into one session. Every batch
    // sets `slot` to a tagged value and reads it back in the same batch;
    // per-session serialisation means each batch observes its *own*
    // write, never a torn interleaving.
    let applied = Arc::new(AtomicU64::new(0));
    std::thread::scope(|scope| {
        for conn in 0..4i64 {
            let applied = Arc::clone(&applied);
            scope.spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                for i in 0..50i64 {
                    let tag = conn * 1000 + i;
                    c.submit(
                        s,
                        &[
                            set(0, tag),
                            Command::Get {
                                var: VarId::from_index(0),
                            },
                        ],
                    )
                    .unwrap();
                }
                for (i, result) in c.drain().unwrap().into_iter().enumerate() {
                    let out = result.unwrap_or_else(|e| panic!("conn {conn} batch {i}: {e}"));
                    let tag = conn * 1000 + i as i64;
                    assert_eq!(
                        format!("{:?}", out.outputs[1]),
                        format!("{:?}", stem_engine::Output::Value(Value::Int(tag))),
                        "conn {conn}: batch {i} saw someone else's write inside its own batch"
                    );
                    applied.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });
    assert_eq!(applied.load(Ordering::Relaxed), 200);
    let ss = admin.session_stats(s).unwrap();
    assert_eq!(ss.batches_ok, 201, "200 raced batches + the skeleton");
}

#[test]
fn malformed_frames_get_an_error_reply_and_close_the_connection() {
    let server = spawn_server();
    let addr = server.local_addr();

    // Garbage payload inside a valid frame: server replies Err, closes.
    {
        use stem_core::codec::Reader;
        use stem_server::proto::{read_frame, write_frame, Reply};
        let mut raw = TcpStream::connect(addr).unwrap();
        write_frame(&mut raw, &[0xFFu8, 1, 2, 3]).unwrap();
        let payload = read_frame(&mut raw).unwrap().expect("an error reply");
        let reply = Reply::decode(&mut Reader::new(&payload)).unwrap();
        assert!(matches!(reply, Reply::Err { .. }), "{reply:?}");
        // ... and then the connection closes cleanly.
        assert_eq!(read_frame(&mut raw).unwrap(), None);
    }
    // Corrupt frame header: connection just dies; server survives.
    {
        use std::io::Write;
        let mut raw = TcpStream::connect(addr).unwrap();
        raw.write_all(&[0xDE, 0xAD, 0xBE, 0xEF, 0, 0, 0, 0])
            .unwrap();
    }
    // The server is still healthy for well-formed clients.
    let mut c = Client::connect(addr).unwrap();
    c.ping().unwrap();
}

/// A malformed domain spec from a remote client is an ordinary rejected
/// command: the codec carries any `out` byte, so the engine must refuse it
/// before building the kind rather than panic and quarantine the session.
#[test]
fn malformed_domain_spec_is_rejected_not_quarantined_over_tcp() {
    let server = spawn_server();
    let mut c = Client::connect(server.local_addr()).unwrap();
    let s = c.open().unwrap();
    let vars: Vec<Command> = ["x", "y", "z"]
        .map(|name| Command::AddVariable { name: name.into() })
        .into();
    c.apply(s, &vars).unwrap().unwrap();
    let err = c
        .apply(
            s,
            &[Command::AddConstraint {
                spec: ConstraintSpec::DomAdd {
                    views: [(1, 0); 3],
                    out: Some(7),
                },
                args: (0..3).map(VarId::from_index).collect(),
            }],
        )
        .unwrap()
        .unwrap_err();
    assert!(
        matches!(err, BatchError::InvalidCommand { index: 0, .. }),
        "{err:?}"
    );
    c.apply(s, &[set(0, 5)])
        .unwrap()
        .expect("next write commits");
    assert!(!c.session_stats(s).unwrap().quarantined);
    assert_eq!(c.stats().unwrap().panics, 0);
}

#[test]
fn shutdown_request_stops_the_server() {
    let server = spawn_server();
    let addr = server.local_addr();
    let mut c = Client::connect(addr).unwrap();
    let s = c.open().unwrap();
    c.apply(s, &[Command::AddVariable { name: "v".into() }])
        .unwrap()
        .unwrap();
    c.shutdown_server().unwrap();
    server.wait(); // returns because the client asked for shutdown
    drop(server);
    assert!(
        TcpStream::connect(addr).is_err()
            || Client::connect(addr).and_then(|mut c| c.ping()).is_err(),
        "listener must be gone after shutdown"
    );
}

// ---------------------------------------------------------------------
// Robustness: timeouts, idle reaping, connection caps, client failover.
// ---------------------------------------------------------------------

use std::io::{Read, Write};
use std::time::{Duration, Instant};

use stem_server::{RetryPolicy, ServerOptions};

/// Reads until the server closes the connection (EOF or reset),
/// panicking if it stays open past `within`.
fn expect_eviction(stream: &mut TcpStream, within: Duration) {
    stream
        .set_read_timeout(Some(Duration::from_millis(50)))
        .unwrap();
    let start = Instant::now();
    let mut buf = [0u8; 64];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => return, // clean close
            Ok(_) => continue,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::ConnectionReset | std::io::ErrorKind::BrokenPipe
                ) =>
            {
                return
            }
            Err(_) => {
                assert!(
                    start.elapsed() < within,
                    "server kept the dead connection open past {within:?}"
                );
            }
        }
    }
}

#[test]
fn half_open_and_idle_connections_are_reaped_without_hurting_others() {
    let server = Server::spawn_with(
        Engine::new(1),
        "127.0.0.1:0",
        ServerOptions {
            read_timeout: Duration::from_millis(150),
            idle_timeout: Some(Duration::from_millis(200)),
            ..ServerOptions::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    // A half-open peer: three header bytes, then silence mid-frame.
    let mut stalled = TcpStream::connect(addr).unwrap();
    stalled.write_all(&[0x08, 0x00, 0x00]).unwrap();
    // An idle peer: connected, never speaks.
    let mut idle = TcpStream::connect(addr).unwrap();

    // A healthy client keeps working the whole time the reaper runs.
    let mut healthy = Client::connect(addr).unwrap();
    let s = healthy.open().unwrap();
    healthy
        .apply(s, &[Command::AddVariable { name: "v".into() }])
        .unwrap()
        .unwrap();
    for i in 0..8 {
        healthy.apply(s, &[set(0, i)]).unwrap().unwrap();
        std::thread::sleep(Duration::from_millis(60));
    }

    expect_eviction(&mut stalled, Duration::from_secs(3));
    expect_eviction(&mut idle, Duration::from_secs(3));
    // And the healthy connection survived both evictions.
    healthy.ping().unwrap();
    assert_eq!(
        healthy.value(s, VarId::from_index(0)).unwrap().unwrap(),
        Value::Int(7)
    );
}

#[test]
fn connection_cap_refuses_with_busy_and_frees_on_disconnect() {
    let server = Server::spawn_with(
        Engine::new(1),
        "127.0.0.1:0",
        ServerOptions {
            max_connections: Some(1),
            ..ServerOptions::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();

    let mut first = Client::connect(addr).unwrap();
    first.ping().unwrap();

    // The slot is taken: the next connection gets a structured refusal,
    // not a silent drop.
    let mut refused = Client::connect(addr).unwrap();
    let err = refused.ping().unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::ConnectionRefused);
    assert!(
        err.to_string().contains("connection cap"),
        "refusal must name the cause, got: {err}"
    );
    // The occupant never noticed.
    first.ping().unwrap();

    // Freeing the slot readmits new connections (the server needs a
    // moment to observe the close).
    drop(first);
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        if let Ok(mut c) = Client::connect(addr) {
            if c.ping().is_ok() {
                break;
            }
        }
        assert!(Instant::now() < deadline, "slot never freed");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Two servers front one shared engine; the client pipelines keyed
/// mutating batches while its connection is yanked mid-stream. The
/// resubmit path must neither lose a batch nor apply one twice — the
/// variable count is the witness.
#[test]
fn failover_client_resubmits_without_loss_or_double_apply() {
    let engine = Arc::new(Engine::new(2));
    let srv_a = Server::spawn(Arc::clone(&engine), "127.0.0.1:0").unwrap();
    let srv_b = Server::spawn(Arc::clone(&engine), "127.0.0.1:0").unwrap();
    let addrs = [srv_a.local_addr(), srv_b.local_addr()];

    let mut c = Client::connect_failover(&addrs[..], RetryPolicy::default()).unwrap();
    let s = c.open().unwrap();

    const N: usize = 30;
    for i in 0..N {
        c.submit(
            s,
            &[Command::AddVariable {
                name: format!("n{i}"),
            }],
        )
        .unwrap();
        if i == N / 2 {
            // Yank every connection on both servers mid-pipeline; the
            // client reconnects (either server — same engine) and
            // resends its unanswered frames under their original keys.
            srv_a.disconnect_all();
            srv_b.disconnect_all();
        }
    }
    let results = c.drain().unwrap();
    assert_eq!(results.len(), N);
    for (i, r) in results.iter().enumerate() {
        assert!(r.is_ok(), "batch {i} failed: {r:?}");
    }
    // The proof: exactly N variables. A lost batch leaves fewer; a
    // double-applied resend leaves more. (Dedup acks arrive as empty
    // outcomes, so some Ok results carry no outputs — that's the
    // resubmit guard working.)
    let ss = c.session_stats(s).unwrap();
    assert_eq!(ss.n_variables, N as u64, "lost or double-applied batches");
    assert!(c.stats().unwrap().dedup_skips as usize <= N);
}

/// Busy refusals during failover are retryable: a capped server and a
/// free one share an engine; the client lands on whichever accepts.
#[test]
fn failover_client_rides_past_a_busy_server() {
    let engine = Arc::new(Engine::new(1));
    let capped = Server::spawn_with(
        Arc::clone(&engine),
        "127.0.0.1:0",
        ServerOptions {
            max_connections: Some(0),
            ..ServerOptions::default()
        },
    )
    .unwrap();
    let free = Server::spawn(Arc::clone(&engine), "127.0.0.1:0").unwrap();

    let mut c = Client::connect_failover(
        &[capped.local_addr(), free.local_addr()][..],
        RetryPolicy::default(),
    )
    .unwrap();
    c.ping().unwrap();
    let s = c.open().unwrap();
    c.apply(s, &[Command::AddVariable { name: "v".into() }])
        .unwrap()
        .unwrap();
    assert_eq!(c.session_stats(s).unwrap().n_variables, 1);
}
