//! The traced run: the served request stream replayed at each layer's
//! public entry point, with a span around every call.
//!
//! Rungs, outermost first (spans of one request share its id):
//!
//! - `client`: `Client::submit` … `Client::drain` over loopback TCP,
//!   recorded while the stream was served;
//! - `engine`: `Engine::submit` … `BatchTicket::wait` on an in-process
//!   engine built to the same state, with the same load shape;
//! - `core`: the batch as one journaled transaction on a local `Network`
//!   with the same structure and `set_parallel_threads`;
//! - `codec`: the request and reply `encode`/frame/`decode` round trip;
//! - `persist_append`/`persist_sync`: `Store::append` and `Store::sync`
//!   on a scratch store, fed the served run's own WAL records.
//!
//! A layer's self time is its span minus the spans of the rungs beneath
//! it, per request; what the client round trip spends outside every rung
//! below the server (TCP, thread hand-off) is reported as
//! `server.unaccounted_us_p50` rather than folded into a layer.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::fs;
use std::hint::black_box;
use std::io;
use std::thread;
use std::time::Instant;

use stem_core::codec::Reader;
use stem_core::Network;
use stem_engine::{BatchError, BatchOutcome, SessionId};
use stem_persist::store::{Store, StoreOptions, SyncPolicy};
use stem_persist::WalRecord;
use stem_server::proto::{put_submit, read_frame, write_frame, Reply, Request as WireRequest};

use crate::ops::{apply_batch, commands, Class, Op, Request};
use crate::report::{scratch_root, TempDir};
use crate::serve::{open_engine, Session};
use crate::workloads::Workload;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rung {
    Client,
    Engine,
    Core,
    Codec,
    PersistAppend,
    PersistSync,
}

impl Rung {
    fn name(self) -> &'static str {
        match self {
            Rung::Client => "client",
            Rung::Engine => "engine",
            Rung::Core => "core",
            Rung::Codec => "codec",
            Rung::PersistAppend => "persist_append",
            Rung::PersistSync => "persist_sync",
        }
    }
}

/// One timed call: `start`/`end` are nanoseconds since its rung began.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    pub rung: Rung,
    pub start: u64,
    pub end: u64,
}

impl Span {
    fn ns(&self) -> u64 {
        self.end - self.start
    }
}

/// Request ids: session index in the high half, position in the timed
/// stream in the low half.
pub fn request_id(session: usize, k: usize) -> u64 {
    ((session as u64) << 32) | k as u64
}

/// The served run's stream and spans, per session.
pub struct Served<'a> {
    pub sessions: &'a [Session],
    pub ids: &'a [SessionId],
}

impl Served<'_> {
    pub fn client_spans(&self) -> Vec<Span> {
        self.each()
            .map(|(s, k, _)| {
                let (start, end) = self.sessions[s].spans[k];
                Span {
                    id: request_id(s, k),
                    rung: Rung::Client,
                    start,
                    end,
                }
            })
            .collect()
    }

    fn each(&self) -> impl Iterator<Item = (usize, usize, &Request)> + '_ {
        self.sessions
            .iter()
            .enumerate()
            .flat_map(|(s, sess)| sess.stream.iter().enumerate().map(move |(k, r)| (s, k, r)))
    }
}

/// Replays the stream on an in-process engine in the same state, with
/// the served run's sessions and bursts. Returns spans and the
/// number of outcomes that differ from the model.
pub fn engine_rung(w: Workload, seed: u64, served: &Served) -> io::Result<(Vec<Span>, u64)> {
    let (engine, _dir) = open_engine(w)?;
    let mut sids = Vec::new();
    for s in 0..served.sessions.len() {
        let sid = engine.create_session();
        for req in w.generator(seed, s).setup() {
            if !req.check(&engine.apply(sid, commands(&req.ops))) {
                return Err(io::Error::other("engine rung: setup mismatch"));
            }
        }
        sids.push(sid);
    }
    let start = Instant::now();
    let engine = &engine;
    let per_session: Vec<(Vec<Span>, u64)> = thread::scope(|scope| {
        let handles: Vec<_> = served
            .sessions
            .iter()
            .zip(&sids)
            .enumerate()
            .map(|(s, (sess, &sid))| {
                scope.spawn(move || {
                    let mut spans = Vec::with_capacity(sess.stream.len());
                    let mut failed = 0;
                    let mut k = 0;
                    for &n in &sess.bursts {
                        let burst = &sess.stream[k..k + n];
                        let mut tickets = Vec::with_capacity(burst.len());
                        for req in burst {
                            let cmds = commands(&req.ops);
                            let at = start.elapsed().as_nanos() as u64;
                            tickets.push((at, engine.submit(sid, cmds)));
                        }
                        let results: Vec<_> =
                            tickets.into_iter().map(|(at, t)| (at, t.wait())).collect();
                        let done = start.elapsed().as_nanos() as u64;
                        for (i, (req, (at, result))) in burst.iter().zip(results).enumerate() {
                            failed += u64::from(!req.check(&result));
                            spans.push(Span {
                                id: request_id(s, k + i),
                                rung: Rung::Engine,
                                start: at,
                                end: done,
                            });
                        }
                        k += n;
                    }
                    (spans, failed)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("engine rung thread panicked"))
            .collect()
    });
    let mut spans = Vec::new();
    let mut failed = 0;
    for (s, f) in per_session {
        spans.extend(s);
        failed += f;
    }
    Ok((spans, failed))
}

/// Replays the stream as journaled transactions on local networks.
pub fn core_rung(w: Workload, seed: u64, served: &Served) -> io::Result<(Vec<Span>, u64)> {
    let mut spans = Vec::new();
    let mut failed = 0;
    for (s, sess) in served.sessions.iter().enumerate() {
        let mut net = Network::new();
        net.set_parallel_threads(w.propagation_threads());
        for req in w.generator(seed, s).setup() {
            if !req.check_local(&apply_batch(&mut net, &req.ops)) {
                return Err(io::Error::other("core rung: setup mismatch"));
            }
        }
        let start = Instant::now();
        for (k, req) in sess.stream.iter().enumerate() {
            let at = start.elapsed().as_nanos() as u64;
            let result = apply_batch(&mut net, &req.ops);
            let done = start.elapsed().as_nanos() as u64;

            failed += u64::from(!req.check_local(&result));
            spans.push(Span {
                id: request_id(s, k),
                rung: Rung::Core,
                start: at,
                end: done,
            });
        }
    }
    Ok((spans, failed))
}

/// Encodes, frames and decodes each request and the reply the server
/// gave it. Returns spans and total frame bytes.
pub fn codec_rung(
    served: &Served,
    outcomes: Vec<Vec<Result<BatchOutcome, BatchError>>>,
) -> io::Result<(Vec<Span>, u64)> {
    let mut spans = Vec::new();
    let mut bytes = 0u64;
    let start = Instant::now();
    for (s, outs) in outcomes.into_iter().enumerate() {
        let sess = &served.sessions[s];
        let session = served.ids[s].0;
        for (k, (req, outcome)) in sess.stream.iter().zip(outs).enumerate() {
            let cmds = commands(&req.ops);
            let (mut payload, mut frame) = (Vec::new(), Vec::new());
            let (mut reply_payload, mut reply_frame) = (Vec::new(), Vec::new());
            let reply = Reply::Batch(outcome);
            let at = start.elapsed().as_nanos() as u64;
            put_submit(&mut payload, session, &cmds)?;
            write_frame(&mut frame, &payload)?;
            let got = read_frame(&mut frame.as_slice())?.expect("one frame");
            let decoded = WireRequest::decode(&mut Reader::new(&got)).map_err(io::Error::other)?;
            reply.encode(&mut reply_payload);
            write_frame(&mut reply_frame, &reply_payload)?;
            let got = read_frame(&mut reply_frame.as_slice())?.expect("one frame");
            let back = Reply::decode(&mut Reader::new(&got)).map_err(io::Error::other)?;
            let done = start.elapsed().as_nanos() as u64;
            black_box((decoded, back));
            bytes += (frame.len() + reply_frame.len()) as u64;
            spans.push(Span {
                id: request_id(s, k),
                rung: Rung::Codec,
                start: at,
                end: done,
            });
        }
    }
    Ok((spans, bytes))
}

/// Appends each WAL record of the served run to a scratch store and syncs
/// it, as a commit that shares its fsync with nobody would.
pub fn persist_rung(
    served: &Served,
    setup_logged: &[u64],
    records: &[WalRecord],
) -> io::Result<Vec<Span>> {
    // (server session id, seq) -> request id of the logged request.
    let mut by_seq = HashMap::new();
    for (s, sess) in served.sessions.iter().enumerate() {
        let mut seq = setup_logged[s];
        for (k, req) in sess.stream.iter().enumerate() {
            if req.logged() {
                seq += 1;
                by_seq.insert((served.ids[s].0, seq), request_id(s, k));
            }
        }
    }
    let dir = TempDir::new("persist-rung")?;
    let opts = StoreOptions {
        sync: SyncPolicy::Deferred,
        ..StoreOptions::default()
    };
    let (mut store, _) = Store::open(dir.path(), opts)?;
    let mut spans = Vec::with_capacity(2 * records.len());
    let start = Instant::now();
    for rec in records {
        let Some(&id) = by_seq.get(&(rec.session(), rec.seq())) else {
            continue;
        };
        let t0 = start.elapsed().as_nanos() as u64;
        store.append(rec)?;
        let t1 = start.elapsed().as_nanos() as u64;
        store.sync()?;
        let t2 = start.elapsed().as_nanos() as u64;
        spans.push(Span {
            id,
            rung: Rung::PersistAppend,
            start: t0,
            end: t1,
        });
        spans.push(Span {
            id,
            rung: Rung::PersistSync,
            start: t1,
            end: t2,
        });
    }
    Ok(spans)
}

/// Spans by rung and request id.
pub struct Ladder(HashMap<(Rung, u64), u64>);

impl Ladder {
    pub fn new(spans: &[Span]) -> Ladder {
        Ladder(spans.iter().map(|s| ((s.rung, s.id), s.ns())).collect())
    }

    fn get(&self, rung: Rung, id: u64) -> Option<u64> {
        self.0.get(&(rung, id)).copied()
    }

    /// `persist_append + persist_sync` for a logged request; `Some(0)` for
    /// one the store never sees; `None` when its record was compacted
    /// away before it could be read back.
    fn persist(&self, durable: bool, req: &Request, id: u64) -> Option<u64> {
        if !durable || !req.logged() {
            return Some(0);
        }
        Some(self.get(Rung::PersistAppend, id)? + self.get(Rung::PersistSync, id)?)
    }
}

/// Per-request self times of each layer, in microseconds.
#[derive(Default)]
pub struct SelfTimes {
    pub server: Vec<f64>,
    pub unaccounted: Vec<f64>,
    pub engine: Vec<f64>,
    pub core: Vec<f64>,
    pub persist: Vec<f64>,
    pub codec_ns: Vec<f64>,
    pub core_set: Vec<f64>,
    pub core_probe: Vec<f64>,
    pub core_edit: Vec<f64>,
    pub append: Vec<f64>,
    pub sync: Vec<f64>,
}

fn us(ns: i128) -> f64 {
    ns as f64 / 1e3
}

pub fn self_times(w: Workload, served: &Served, ladder: &Ladder) -> SelfTimes {
    let mut t = SelfTimes::default();
    for (s, k, req) in served.each() {
        let id = request_id(s, k);
        let (Some(client), Some(engine), Some(core), Some(codec)) = (
            ladder.get(Rung::Client, id),
            ladder.get(Rung::Engine, id),
            ladder.get(Rung::Core, id),
            ladder.get(Rung::Codec, id),
        ) else {
            continue;
        };
        let (client, engine, core, codec) =
            (client as i128, engine as i128, core as i128, codec as i128);
        t.server.push(us(client - engine));
        t.unaccounted.push(us(client - engine - codec));
        t.codec_ns.push(codec as f64);
        t.core.push(us(core));
        if let Some(persist) = ladder.persist(w.durable(), req, id) {
            t.engine.push(us(engine - core - persist as i128));
        }
        match req.class {
            Class::Edit => t.core_edit.push(us(core)),
            Class::Write | Class::Reject => t.core_set.push(us(core)),
            Class::Read => {
                if req.ops.iter().any(|op| matches!(op, Op::Probe(..))) {
                    t.core_probe.push(us(core));
                }
            }
        }
        if w.durable() && req.logged() {
            if let (Some(a), Some(y)) = (
                ladder.get(Rung::PersistAppend, id),
                ladder.get(Rung::PersistSync, id),
            ) {
                t.append.push(us(a as i128));
                t.sync.push(us(y as i128));
                t.persist.push(us((a + y) as i128));
            }
        }
    }
    t
}

/// Writes every span, CSV, under the benchmark's scratch directory.
pub fn write_spans(w: Workload, seed: u64, spans: &[Span]) -> io::Result<std::path::PathBuf> {
    let dir = scratch_root().join("traces");
    fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{}-seed{seed}.csv", w.name()));
    let mut out = String::from("id,rung,start_ns,end_ns\n");
    for s in spans {
        let _ = writeln!(out, "{},{},{},{}", s.id, s.rung.name(), s.start, s.end);
    }
    fs::write(&path, out)?;
    Ok(path)
}
