//! The served path: a real [`Server`] on loopback over an in-process
//! engine, set up over the wire, then driven closed-loop by one client
//! thread per session until the deadline. Every reply is checked against
//! the generator's model as it is drained.

use std::io;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use stem_engine::{
    BatchError, BatchOutcome, Durability, DurabilityOptions, Engine, EngineConfig, EngineStats,
    SessionId,
};
use stem_server::{Client, Server};

use crate::ops::{commands, Class, Request};
use crate::report::TempDir;
use crate::workloads::{Generator, Workload};

/// Log bytes between automatic checkpoints on the durable workload:
/// about two a second, and at least one per round even when host steal
/// halves throughput (every round starts a fresh store, so log bytes do
/// not carry over). At 64 KiB (several per 0.2 s window) the checkpoint
/// stalls set the tail of most windows; at 1 MiB a slowed round logged
/// too little to checkpoint at all.
const CHECKPOINT_BYTES: u64 = 256 << 10;

pub fn engine_config(w: Workload) -> EngineConfig {
    EngineConfig {
        workers: thread::available_parallelism().map_or(1, |n| n.get()),
        propagation_threads: w.propagation_threads(),
        ..EngineConfig::default()
    }
}

pub fn durability() -> DurabilityOptions {
    DurabilityOptions {
        mode: Durability::GroupCommit,
        checkpoint_bytes: CHECKPOINT_BYTES,
        ..DurabilityOptions::default()
    }
}

/// A fresh engine for `w`: durable ones get their own store directory.
pub fn open_engine(w: Workload) -> io::Result<(Engine, Option<TempDir>)> {
    if w.durable() {
        let dir = TempDir::new(w.name())?;
        let engine = Engine::open_with_config(dir.path(), engine_config(w), durability())?;
        Ok((engine, Some(dir)))
    } else {
        Ok((Engine::with_config(engine_config(w)), None))
    }
}

fn mismatch(what: &str) -> io::Error {
    io::Error::other(format!("model mismatch: {what}"))
}

/// One connection: its client, its session, and the session's model.
pub struct Conn {
    pub client: Client,
    pub session: SessionId,
    pub gen: Box<dyn Generator>,
}

/// A served workload ready for its timed phase.
pub struct Live {
    pub server: Option<Server<Arc<Engine>>>,
    pub engine: Arc<Engine>,
    pub conns: Vec<Conn>,
    pub dir: Option<TempDir>,
}

/// Spawns the server, opens the sessions and builds every network over
/// the wire, warming each root's plan. Every setup reply is checked.
pub fn setup(w: Workload, seed: u64) -> io::Result<Live> {
    let (engine, dir) = open_engine(w)?;
    let engine = Arc::new(engine);
    let server = Server::spawn(Arc::clone(&engine), "127.0.0.1:0")?;
    let mut conns = Vec::new();
    for s in 0..w.sessions() {
        let mut client = Client::connect(server.local_addr())?;
        let session = client.open()?;
        let mut gen = w.generator(seed, s);
        for req in gen.setup() {
            let result = client.apply(session, &commands(&req.ops))?;
            if !req.check(&result) {
                return Err(mismatch(&format!("setup batch: {result:?}")));
            }
        }
        conns.push(Conn {
            client,
            session,
            gen,
        });
    }
    Ok(Live {
        server: Some(server),
        engine,
        conns,
        dir,
    })
}

impl Live {
    pub fn stats(&mut self) -> io::Result<EngineStats> {
        self.conns[0].client.stats()
    }

    /// Stops the server and drops every connection, then waits until the
    /// engine is no longer shared and shuts it down. Returns the store
    /// directory (durable workloads) for a reopen.
    pub fn stop(mut self) -> io::Result<Option<TempDir>> {
        self.conns.clear();
        drop(self.server.take());
        let deadline = Instant::now() + Duration::from_secs(30);
        let mut engine = self.engine;
        loop {
            match Arc::try_unwrap(engine) {
                Ok(e) => {
                    e.shutdown();
                    return Ok(self.dir);
                }
                Err(shared) if Instant::now() < deadline => {
                    engine = shared;
                    thread::sleep(Duration::from_millis(1));
                }
                Err(_) => return Err(io::Error::other("server threads kept the engine alive")),
            }
        }
    }
}

/// Requests per connection in each round's side phase, for a workload
/// that has one (see [`Generator::side`]).
const SIDE_REQUESTS: usize = 900;

/// Sizing bound for per-connection sample buffers.
const MAX_REQUESTS_PER_S: usize = 200_000;

/// One completed request of the timed phase. Kept small: the sample
/// buffers grow with throughput and are part of the peak RSS reported.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub class: Class,
    /// Completion time since the phase started.
    pub done_us: u32,
    pub latency_ns: u32,
}

/// What one client thread saw.
#[derive(Default)]
pub struct Session {
    /// Requests of the timed phase.
    pub samples: Vec<Sample>,
    /// Requests of the side phase (see [`Generator::side`]).
    pub side: Vec<Sample>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// The requests of both phases in order, and their outcomes (traced
    /// runs only).
    pub stream: Vec<Request>,
    pub outcomes: Vec<Result<BatchOutcome, BatchError>>,
    /// Submit time of each burst's requests and the burst's end, since the
    /// timed phase started (traced runs only).
    pub spans: Vec<(u64, u64)>,
    /// The length of each burst, in order (traced runs only).
    pub bursts: Vec<usize>,
}

impl Session {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(what);
        }
    }
}

/// When a connection stops sending.
#[derive(Clone, Copy)]
enum Until {
    /// The timed phase: [`Generator::next`] until the deadline.
    Deadline(Instant),
    /// The side phase: [`Generator::side`] for this many requests.
    Count(usize),
}

/// Drives one connection closed-loop: submits a burst of `window`
/// batches, drains every reply, checks each against the model.
fn drive(
    conn: &mut Conn,
    out: &mut Session,
    window: usize,
    start: Instant,
    until: Until,
    keep: bool,
) {
    let mut burst: Vec<(Request, u64)> = Vec::with_capacity(window);
    let mut sent = 0;
    loop {
        burst.clear();
        if matches!(until, Until::Deadline(deadline) if Instant::now() >= deadline) {
            return;
        }
        for _ in 0..window {
            let req = match until {
                Until::Deadline(_) => conn.gen.next(),
                Until::Count(n) if sent < n => match conn.gen.side(sent) {
                    Some(req) => req,
                    None => break,
                },
                Until::Count(_) => break,
            };
            sent += 1;
            let cmds = commands(&req.ops);
            let at = start.elapsed().as_nanos() as u64;
            out.attempted += 1;
            if let Err(e) = conn.client.submit(conn.session, &cmds) {
                out.fail(format!("submit: {e}"));
                return;
            }
            burst.push((req, at));
        }
        if burst.is_empty() {
            return;
        }
        let results = match conn.client.drain() {
            Ok(results) => results,
            Err(e) => {
                out.fail(format!("drain: {e}"));
                return;
            }
        };
        let done = start.elapsed().as_nanos() as u64;
        if keep {
            out.bursts.push(burst.len());
        }
        for ((req, at), result) in burst.drain(..).zip(results) {
            if req.check(&result) {
                let sample = Sample {
                    class: req.class,
                    done_us: u32::try_from(done / 1000).unwrap_or(u32::MAX),
                    latency_ns: u32::try_from(done - at).unwrap_or(u32::MAX),
                };
                match until {
                    Until::Deadline(_) => out.samples.push(sample),
                    Until::Count(_) => out.side.push(sample),
                }
            } else {
                out.fail(format!("{:?} {:?} -> {result:?}", req.class, req.ops));
            }
            if keep {
                out.spans.push((at, done));
                out.stream.push(req);
                out.outcomes.push(result);
            }
        }
    }
}

/// Runs the timed phase on every connection at once. Returns what each
/// connection saw, the phase's length in seconds, and its start.
pub fn timed(
    live: &mut Live,
    w: Workload,
    seconds: f64,
    keep: bool,
) -> (Vec<Session>, f64, Instant) {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let sessions: Vec<Session> = thread::scope(|s| {
        let handles: Vec<_> = live
            .conns
            .iter_mut()
            .map(|conn| {
                s.spawn(move || {
                    // Reserved up front (untouched pages cost no memory) so
                    // that growing the sample buffer never doubles it
                    // mid-run and the peak resident size stays a property
                    // of the program, not of the buffer's history.
                    let mut out = Session {
                        samples: Vec::with_capacity(MAX_REQUESTS_PER_S * seconds.ceil() as usize),
                        side: Vec::with_capacity(SIDE_REQUESTS),
                        ..Session::default()
                    };
                    drive(
                        conn,
                        &mut out,
                        w.window(),
                        start,
                        Until::Deadline(deadline),
                        keep,
                    );
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    (sessions, start.elapsed().as_secs_f64(), start)
}

/// Runs the side phase on every connection at once, after the timed one,
/// one request in flight per connection so that each request's latency
/// is its own and not its burst's.
pub fn side(live: &mut Live, sessions: &mut [Session], start: Instant, keep: bool) {
    thread::scope(|s| {
        for (conn, out) in live.conns.iter_mut().zip(sessions.iter_mut()) {
            s.spawn(move || drive(conn, out, 1, start, Until::Count(SIDE_REQUESTS), keep));
        }
    });
}

/// Reopens a stopped durable workload's store and checks that every
/// acknowledged write came back. Returns the time `Engine::open` took.
pub fn check_recovery(
    w: Workload,
    dir: &TempDir,
    sessions: &[SessionId],
    finals: &[Request],
) -> io::Result<f64> {
    let t = Instant::now();
    let engine = Engine::open_with_config(dir.path(), engine_config(w), durability())?;
    let recovery_s = t.elapsed().as_secs_f64();
    for (&session, req) in sessions.iter().zip(finals) {
        let result = engine.apply(session, commands(&req.ops));
        if !req.check(&result) {
            return Err(mismatch(&format!("recovered {session}: {result:?}")));
        }
    }
    engine.shutdown();
    Ok(recovery_s)
}
