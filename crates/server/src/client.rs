//! A blocking client for the wire protocol, with explicit pipelining
//! and optional reconnect-with-resubmit.
//!
//! Replies arrive in request order, so the client is a FIFO discipline
//! over one socket: [`Client::submit`] queues a batch without waiting
//! (pipelining), [`Client::drain`] collects the outstanding batch
//! results, and [`Client::apply`] is the submit-and-wait convenience.
//! Requests that expect an immediate reply ([`Client::stats`],
//! [`Client::open`], …) require the pipeline to be drained first — the
//! client enforces it rather than silently discarding batch results.
//!
//! ## Reconnect and idempotent resubmission
//!
//! [`Client::connect_failover`] builds a client that survives the
//! connection dying: on a transport fault (or a [`Reply::Busy`]
//! refusal) it reconnects — cycling through its address list under
//! capped exponential backoff — and resends every sent-but-unanswered
//! frame, in order. Exactly-once for mutating batches comes from the
//! idempotence key, not the transport: a retrying client stamps each
//! mutating batch with a dense per-session key ([`Request::SubmitSeq`]),
//! and the engine skips any key at or below the session's applied
//! watermark. A batch whose first acknowledgement was lost in transit is
//! therefore acknowledged again *without re-applying* — the resent copy
//! returns an empty [`BatchOutcome`] — and a batch the server never saw
//! applies normally. What the client cannot retry silently is a batch
//! the transport swallowed both ways *and* whose retries all failed;
//! that surfaces as the reconnect error after the policy's budget.
//!
//! One caveat: session-creating [`Client::open`] is not idempotent — a
//! lost `Open` ack resent across a reconnect can leak a session. Open
//! sessions before the failure window, or tolerate stray empty sessions.

use std::collections::{HashMap, VecDeque};
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::thread;
use std::time::Duration;

use stem_core::codec::Reader;
use stem_core::{Justification, Value, VarId, Violation};
use stem_engine::{
    BatchError, BatchOutcome, Command, EngineStats, Output, SessionId, SessionStats,
};

use crate::proto::{decode_error, read_frame, write_frame, Reply, Request};

/// How a failover client paces its reconnect attempts.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Consecutive reconnects (without one successful reply in between)
    /// before giving up and surfacing the transport error.
    pub max_retries: u32,
    /// Delay before the first reconnect attempt; doubles per attempt.
    pub base_delay: Duration,
    /// Cap on the doubled delay.
    pub max_delay: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 5,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_secs(1),
        }
    }
}

/// A connection to a [`crate::Server`].
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    /// Batch replies queued behind [`Client::submit`] and not yet read.
    in_flight: usize,
    /// Failover state; `None` for a plain single-connection client.
    retry: Option<Retrying>,
}

/// The failover half of a client: where to reconnect, how patiently,
/// and what to resend when we do.
struct Retrying {
    policy: RetryPolicy,
    /// Addresses to cycle through; `next` rotates on each reconnect so a
    /// dead primary doesn't eat the whole backoff budget every episode.
    addrs: Vec<SocketAddr>,
    next: usize,
    /// Encoded request frames sent but not yet answered, oldest first —
    /// exactly what a fresh connection must replay.
    outstanding: VecDeque<Vec<u8>>,
    /// Reconnects since the last successful reply (the give-up counter).
    reconnects: u32,
    /// Dense per-session idempotence keys for mutating batches.
    keys: HashMap<u64, u64>,
}

fn unexpected(reply: &Reply) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("unexpected reply: {reply:?}"),
    )
}

/// A server-side [`Reply::Err`] surfaces as `io::ErrorKind::Other`.
fn server_err(message: String) -> io::Error {
    io::Error::other(format!("server error: {message}"))
}

/// Transport faults worth a reconnect; anything else (protocol errors,
/// bad requests) is the caller's bug and must surface.
fn retryable(err: &io::Error) -> bool {
    matches!(
        err.kind(),
        io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::ConnectionRefused
            | io::ErrorKind::BrokenPipe
            | io::ErrorKind::NotConnected
            | io::ErrorKind::UnexpectedEof
            | io::ErrorKind::TimedOut
            | io::ErrorKind::WouldBlock
    )
}

fn halves(stream: TcpStream) -> io::Result<(BufReader<TcpStream>, BufWriter<TcpStream>)> {
    stream.set_nodelay(true)?;
    let write_half = stream.try_clone()?;
    Ok((BufReader::new(stream), BufWriter::new(write_half)))
}

impl Client {
    /// Connects (with `TCP_NODELAY`, pipelining makes its own batches).
    /// No retry: a transport fault surfaces to the caller.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let (reader, writer) = halves(TcpStream::connect(addr)?)?;
        Ok(Client {
            reader,
            writer,
            in_flight: 0,
            retry: None,
        })
    }

    /// Connects to the first reachable of `addrs` and arms failover:
    /// transport faults and [`Reply::Busy`] refusals reconnect (cycling
    /// the list under `policy`'s backoff) and resend every unanswered
    /// frame; mutating batches go out under idempotence keys so the
    /// resend cannot double-apply. See the module docs for the contract.
    pub fn connect_failover(addrs: impl ToSocketAddrs, policy: RetryPolicy) -> io::Result<Client> {
        let addrs: Vec<SocketAddr> = addrs.to_socket_addrs()?.collect();
        if addrs.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "connect_failover needs at least one address",
            ));
        }
        let mut retry = Retrying {
            policy,
            addrs,
            next: 0,
            outstanding: VecDeque::new(),
            reconnects: 0,
            keys: HashMap::new(),
        };
        let mut last = io::Error::new(io::ErrorKind::NotConnected, "no attempt made");
        let mut delay = retry.policy.base_delay;
        for _ in 0..retry.policy.max_retries.max(1) {
            let addr = retry.addrs[retry.next % retry.addrs.len()];
            retry.next += 1;
            match TcpStream::connect(addr).and_then(halves) {
                Ok((reader, writer)) => {
                    return Ok(Client {
                        reader,
                        writer,
                        in_flight: 0,
                        retry: Some(retry),
                    })
                }
                Err(e) => last = e,
            }
            thread::sleep(delay);
            delay = (delay * 2).min(retry.policy.max_delay);
        }
        Err(last)
    }

    /// Reconnects (cycling addresses under the backoff policy) and
    /// replays every unanswered frame on the fresh connection. Errors
    /// with the latest transport fault once the budget is spent — or
    /// immediately with `cause` on a retry-less client.
    fn recover(&mut self, cause: io::Error) -> io::Result<()> {
        let Some(retry) = &mut self.retry else {
            return Err(cause);
        };
        let mut last = cause;
        let mut delay = retry.policy.base_delay;
        while retry.reconnects < retry.policy.max_retries {
            retry.reconnects += 1;
            thread::sleep(delay);
            delay = (delay * 2).min(retry.policy.max_delay);
            let addr = retry.addrs[retry.next % retry.addrs.len()];
            retry.next += 1;
            match TcpStream::connect(addr).and_then(halves) {
                Ok((reader, writer)) => {
                    self.reader = reader;
                    self.writer = writer;
                    match resend_all(&mut self.writer, &retry.outstanding) {
                        Ok(()) => return Ok(()),
                        Err(e) => last = e,
                    }
                }
                Err(e) => last = e,
            }
        }
        Err(io::Error::new(
            last.kind(),
            format!(
                "gave up after {} reconnect attempts: {last}",
                retry.policy.max_retries
            ),
        ))
    }

    /// Sends one encoded frame, recording it for resend first so a
    /// mid-write fault replays it on the recovered connection.
    fn send_frame(&mut self, frame: Vec<u8>) -> io::Result<()> {
        if self.retry.is_none() {
            return write_frame(&mut self.writer, &frame);
        }
        let result = write_frame(&mut self.writer, &frame);
        self.retry.as_mut().unwrap().outstanding.push_back(frame);
        match result {
            Ok(()) => Ok(()),
            Err(e) if retryable(&e) => self.recover(e),
            Err(e) => Err(e),
        }
    }

    fn send(&mut self, request: &Request) -> io::Result<()> {
        let mut buf = Vec::new();
        request.encode(&mut buf)?;
        self.send_frame(buf)
    }

    /// Flushes and reads one reply frame off the current connection.
    fn recv_raw(&mut self) -> io::Result<Reply> {
        self.writer.flush()?;
        let Some(payload) = read_frame(&mut self.reader)? else {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        };
        let mut r = Reader::new(&payload);
        let reply = Reply::decode(&mut r).map_err(decode_error)?;
        if !r.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "trailing bytes after reply",
            ));
        }
        Ok(reply)
    }

    /// Reads the reply owed to the oldest unanswered request, riding out
    /// transport faults and [`Reply::Busy`] refusals via reconnection.
    /// Every reply the server sends answers exactly one request —
    /// except `Busy`, which a capped server sends unsolicited before
    /// closing, so it marks the *connection* failed, not the request.
    fn recv(&mut self) -> io::Result<Reply> {
        loop {
            match self.recv_raw() {
                Ok(Reply::Busy { active, max }) => {
                    let refusal = io::Error::new(
                        io::ErrorKind::ConnectionRefused,
                        format!("server at connection cap ({active}/{max})"),
                    );
                    if self.retry.is_some() {
                        self.recover(refusal)?;
                    } else {
                        return Err(refusal);
                    }
                }
                Ok(reply) => {
                    if let Some(retry) = &mut self.retry {
                        retry.outstanding.pop_front();
                        retry.reconnects = 0;
                    }
                    return Ok(reply);
                }
                Err(e) if self.retry.is_some() && retryable(&e) => self.recover(e)?,
                Err(e) => return Err(e),
            }
        }
    }

    /// One request, one reply. Refuses to run past queued batch replies.
    pub fn call(&mut self, request: &Request) -> io::Result<Reply> {
        if self.in_flight > 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "{} pipelined replies pending; drain() first",
                    self.in_flight
                ),
            ));
        }
        self.send(request)?;
        self.recv()
    }

    /// Round-trip liveness check.
    pub fn ping(&mut self) -> io::Result<()> {
        match self.call(&Request::Ping)? {
            Reply::Pong => Ok(()),
            reply => Err(unexpected(&reply)),
        }
    }

    /// Creates a session on the server.
    pub fn open(&mut self) -> io::Result<SessionId> {
        match self.call(&Request::Open)? {
            Reply::Session { id } => Ok(SessionId(id)),
            reply => Err(unexpected(&reply)),
        }
    }

    /// Closes a session; `Ok(true)` if it existed.
    pub fn close_session(&mut self, session: SessionId) -> io::Result<bool> {
        match self.call(&Request::Close { session: session.0 })? {
            Reply::Closed { existed } => Ok(existed),
            reply => Err(unexpected(&reply)),
        }
    }

    /// Queues a batch without waiting for its result. The reply is owed
    /// in order; collect it with [`Client::drain`] (or [`Client::apply`]
    /// for the last batch of a burst). On a failover client a mutating
    /// batch is stamped with the session's next idempotence key, making
    /// its resend across a reconnect apply-at-most-once.
    pub fn submit(&mut self, session: SessionId, commands: &[Command]) -> io::Result<()> {
        let mut buf = Vec::new();
        let key = match &mut self.retry {
            Some(retry) if commands.iter().any(Command::is_mutating) => {
                let key = retry.keys.entry(session.0).or_insert(0);
                *key += 1;
                *key
            }
            _ => 0,
        };
        if key == 0 {
            crate::proto::put_submit(&mut buf, session.0, commands)?;
        } else {
            crate::proto::put_submit_keyed(&mut buf, session.0, key, commands)?;
        }
        self.send_frame(buf)?;
        self.in_flight += 1;
        Ok(())
    }

    /// Collects every outstanding pipelined batch result, in submission
    /// order. On a failover client an `Ok` outcome with no outputs may
    /// be the dedup acknowledgement of a resent, already-applied batch.
    pub fn drain(&mut self) -> io::Result<Vec<Result<BatchOutcome, BatchError>>> {
        let mut out = Vec::with_capacity(self.in_flight);
        while self.in_flight > 0 {
            let reply = self.recv()?;
            self.in_flight -= 1;
            match reply {
                Reply::Batch(result) => out.push(result),
                Reply::Err { message } => return Err(server_err(message)),
                reply => return Err(unexpected(&reply)),
            }
        }
        Ok(out)
    }

    /// Submits one batch and waits for its result (drains any earlier
    /// pipelined batches first, discarding nothing: their results are
    /// folded into the returned error if one failed the transport).
    pub fn apply(
        &mut self,
        session: SessionId,
        commands: &[Command],
    ) -> io::Result<Result<BatchOutcome, BatchError>> {
        self.submit(session, commands)?;
        let mut results = self.drain()?;
        Ok(results.pop().expect("submit queued exactly one reply"))
    }

    /// Reads one variable's value.
    pub fn value(
        &mut self,
        session: SessionId,
        var: VarId,
    ) -> io::Result<Result<Value, BatchError>> {
        Ok(self
            .apply(session, &[Command::Get { var }])?
            .map(|mut out| match out.outputs.remove(0) {
                Output::Value(v) => v,
                other => unreachable!("Get replies Value, got {other:?}"),
            }))
    }

    /// Dumps `(name, value, justification)` for every variable in the
    /// session — the full queryable state, including provenance.
    pub fn dump(&mut self, session: SessionId) -> io::Result<Vec<(String, Value, Justification)>> {
        match self.apply(session, &[Command::DumpValues])? {
            Ok(mut out) => match out.outputs.remove(0) {
                Output::Dump(entries) => Ok(entries),
                other => unreachable!("DumpValues replies Dump, got {other:?}"),
            },
            Err(err) => Err(io::Error::other(format!("dump refused: {err}"))),
        }
    }

    /// Sweeps the session's constraints and returns current violations.
    pub fn violations(&mut self, session: SessionId) -> io::Result<Vec<Violation>> {
        match self.apply(session, &[Command::CheckAll])? {
            Ok(mut out) => match out.outputs.remove(0) {
                Output::Violations(vs) => Ok(vs),
                other => unreachable!("CheckAll replies Violations, got {other:?}"),
            },
            Err(err) => Err(io::Error::other(format!("check refused: {err}"))),
        }
    }

    /// Engine-wide counters.
    pub fn stats(&mut self) -> io::Result<EngineStats> {
        match self.call(&Request::Stats)? {
            Reply::Stats(stats) => Ok(stats),
            reply => Err(unexpected(&reply)),
        }
    }

    /// One session's counters.
    pub fn session_stats(&mut self, session: SessionId) -> io::Result<SessionStats> {
        match self.call(&Request::SessionStats { session: session.0 })? {
            Reply::SessionStats(stats) => Ok(stats),
            reply => Err(unexpected(&reply)),
        }
    }

    /// Asks who holds the write lease for the shard owning `session`;
    /// `(0, 0)` means no lease (a standalone, unfenced server).
    pub fn lease(&mut self, session: SessionId) -> io::Result<(u64, u64)> {
        match self.call(&Request::Lease { session: session.0 })? {
            Reply::Lease { epoch, holder } => Ok((epoch, holder)),
            Reply::Err { message } => Err(server_err(message)),
            reply => Err(unexpected(&reply)),
        }
    }

    /// Fetches a cold joiner's bootstrap in one conversation: the newest
    /// snapshot (if any) and every sealed WAL segment, ascending.
    #[allow(clippy::type_complexity)]
    pub fn catch_up(&mut self) -> io::Result<(Option<Vec<u8>>, Vec<Vec<u8>>)> {
        match self.call(&Request::CatchUp)? {
            Reply::CatchUp { snapshot, segments } => Ok((snapshot, segments)),
            Reply::Err { message } => Err(server_err(message)),
            reply => Err(unexpected(&reply)),
        }
    }

    /// Seals the leader's active WAL segment; returns every shippable
    /// segment index, ascending.
    pub fn seal_wal(&mut self) -> io::Result<Vec<u64>> {
        match self.call(&Request::SealWal)? {
            Reply::Sealed { segments } => Ok(segments),
            Reply::Err { message } => Err(server_err(message)),
            reply => Err(unexpected(&reply)),
        }
    }

    /// Fetches one sealed segment's bytes.
    pub fn fetch_segment(&mut self, index: u64) -> io::Result<Vec<u8>> {
        match self.call(&Request::FetchSegment { index })? {
            Reply::Segment { bytes } => Ok(bytes),
            Reply::Err { message } => Err(server_err(message)),
            reply => Err(unexpected(&reply)),
        }
    }

    /// Fetches the newest checkpoint snapshot, if any.
    pub fn fetch_snapshot(&mut self) -> io::Result<Option<Vec<u8>>> {
        match self.call(&Request::FetchSnapshot)? {
            Reply::Snapshot { bytes } => Ok(bytes),
            Reply::Err { message } => Err(server_err(message)),
            reply => Err(unexpected(&reply)),
        }
    }

    /// Ships a snapshot into a replica server; returns sessions installed.
    pub fn ingest_snapshot(&mut self, bytes: &[u8]) -> io::Result<u64> {
        match self.call(&Request::IngestSnapshot {
            bytes: bytes.to_vec(),
        })? {
            Reply::Ingested { applied, .. } => Ok(applied),
            Reply::Err { message } => Err(server_err(message)),
            reply => Err(unexpected(&reply)),
        }
    }

    /// Ships one sealed segment into a replica server; returns
    /// `(applied, skipped, anomalies)`.
    pub fn ingest_segment(&mut self, bytes: &[u8]) -> io::Result<(u64, u64, u64)> {
        match self.call(&Request::IngestSegment {
            bytes: bytes.to_vec(),
        })? {
            Reply::Ingested {
                applied,
                skipped,
                anomalies,
            } => Ok((applied, skipped, anomalies)),
            Reply::Err { message } => Err(server_err(message)),
            reply => Err(unexpected(&reply)),
        }
    }

    /// Promotes the replica server to a writable leader; `Ok(true)` if
    /// it was a replica.
    pub fn promote(&mut self) -> io::Result<bool> {
        match self.call(&Request::Promote)? {
            Reply::Promoted { was_replica } => Ok(was_replica),
            reply => Err(unexpected(&reply)),
        }
    }

    /// Asks the server to shut down; resolves once acknowledged.
    pub fn shutdown_server(&mut self) -> io::Result<()> {
        match self.call(&Request::Shutdown)? {
            Reply::ShuttingDown => Ok(()),
            reply => Err(unexpected(&reply)),
        }
    }
}

/// Replays every unanswered frame, oldest first, on a fresh connection.
fn resend_all(
    writer: &mut BufWriter<TcpStream>,
    outstanding: &VecDeque<Vec<u8>>,
) -> io::Result<()> {
    for frame in outstanding {
        write_frame(writer, frame)?;
    }
    writer.flush()
}
