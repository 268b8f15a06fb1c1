//! End-to-end benchmark of the served propagation path.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <spine_volatile|spine_durable|design_mix> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` serves the workload over loopback TCP and prints the
//! end-to-end metrics; `--trace 1` serves it once untraced and once
//! traced, replays the traced stream at every layer below the server,
//! and prints the per-layer metrics. The last line of standard output is
//! one JSON object; the exit code is 0 only when every reply matched the
//! model and every mechanism guard held. See `perfbench/README.md`.

mod ops;
mod report;
mod serve;
mod trace;
mod workloads;

use std::io;
use std::process::ExitCode;
use std::time::Instant;

use stem_engine::{EngineStats, SessionId};
use stem_persist::store::decode_segment;
use stem_persist::WalRecord;

use ops::{commands, Class};
use report::{median, peak_rss_mb, quantile, ratio, Metrics};
use serve::{check_recovery, setup, side, timed, Live, Sample, Session};
use trace::{Ladder, Served};
use workloads::Workload;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Set on the child processes `run_e2e` spawns: run this many
    /// set-ups, the last followed by one round, and print the raw results.
    round_setups: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    let workload = get("--workload")?;
    let workload =
        Workload::parse(workload).ok_or_else(|| format!("unknown workload {workload}"))?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match get("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    let round_setups = match get("--round-setups") {
        Ok(n) => Some(n.parse().map_err(|e| format!("--round-setups: {e}"))?),
        Err(_) => None,
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        round_setups,
    })
}

/// Counts of checked outcomes by class over a timed phase.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    writes: u64,
    reads: u64,
    rejects: u64,
    edits: u64,
}

impl Tally {
    fn of(sessions: &[Session]) -> Tally {
        let mut t = Tally::default();
        for s in sessions {
            t.attempted += s.attempted;
            t.failed += s.failed;
            for e in &s.errors {
                eprintln!("mismatch: {e}");
            }
            for sample in s.samples.iter().chain(&s.side) {
                match sample.class {
                    Class::Write => t.writes += 1,
                    Class::Read => t.reads += 1,
                    Class::Reject => t.rejects += 1,
                    Class::Edit => t.edits += 1,
                }
            }
        }
        t
    }

    fn add(&mut self, o: &Tally) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.writes += o.writes;
        self.reads += o.reads;
        self.rejects += o.rejects;
        self.edits += o.edits;
    }
}

/// Mechanism-engaged guards: each names a way the workload could silently
/// measure something other than what it is for.
fn guards(w: Workload, before: &EngineStats, after: &EngineStats, t: &Tally) -> Vec<String> {
    let d = |f: fn(&EngineStats) -> u64| f(after) - f(before);
    let mut trips = Vec::new();
    let mut guard = |ok: bool, what: String| {
        if !ok {
            trips.push(what);
        }
    };
    match w {
        Workload::SpineVolatile => {
            guard(
                d(|s| s.wal_appends) == 0,
                format!("wal_appends = {}", d(|s| s.wal_appends)),
            );
            // Steady state: every committed head write replays the
            // head's cached plan (side toggles never evict it).
            let hits = d(|s| s.plan_cache_hits);
            guard(
                hits >= t.writes,
                format!(
                    "plan_cache_hits {hits} < committed head writes {}",
                    t.writes
                ),
            );
        }
        // The automatic-checkpoint guard spans all rounds of a run:
        // see `checkpoint_guard`.
        Workload::SpineDurable => guard(d(|s| s.wal_group_syncs) > 0, "no group syncs".into()),
        Workload::DesignMix => {
            guard(
                d(|s| s.plan_replays_parallel) > 0,
                "plan_replays_parallel = 0".into(),
            );
            let rollbacks = d(|s| s.rollbacks);
            guard(
                rollbacks == t.rejects,
                format!("rollbacks {rollbacks} != expected rejects {}", t.rejects),
            );
            guard(
                d(|s| s.domain_tightenings) > 0,
                "domain_tightenings = 0".into(),
            );
        }
    }
    trips
}

/// `spine_durable` must checkpoint automatically during its timed phase.
/// One round under heavy host steal may log less than the threshold, so
/// the guard counts over every round of the run.
fn checkpoint_guard(w: Workload, checkpoints: u64) -> Option<String> {
    (w.durable() && checkpoints == 0)
        .then(|| "no automatic checkpoint in the timed phase".to_string())
}

/// Latency percentiles and throughput per window of the timed phase,
/// reported as the median over windows. A stall — a durable checkpoint
/// holding the log for a few milliseconds — lands in one or two windows
/// of a round and moves one or two votes, not the figure. A class the
/// timed stream never sends takes its p50 from the side phase instead,
/// which has no windows; the side phase never counts towards the
/// all-request figures.
const WINDOW_S: f64 = 0.2;

struct E2e {
    requests_per_s: f64,
    p50: f64,
    p99: f64,
    write_p50: f64,
    write_p99: f64,
    read_p50: f64,
    reject_p50: f64,
    edit_p50: f64,
}

fn e2e(samples: &[Sample], side: &[Sample], elapsed_s: f64) -> E2e {
    let n = ((elapsed_s / WINDOW_S).round() as usize).max(5);
    let width = elapsed_s * 1e9 / n as f64;
    // [all, write, read, reject, edit] latencies in µs, per window.
    let mut windows = vec![<[Vec<f64>; 5]>::default(); n];
    for s in samples {
        let k = ((f64::from(s.done_us) * 1e3 / width) as usize).min(n - 1);
        let us = f64::from(s.latency_ns) / 1e3;
        windows[k][0].push(us);
        windows[k][class_index(s.class)].push(us);
    }
    let mut side_us = <[Vec<f64>; 5]>::default();
    for s in side {
        side_us[class_index(s.class)].push(f64::from(s.latency_ns) / 1e3);
    }
    let per = |class: usize, q: f64| {
        let votes: Vec<f64> = windows
            .iter()
            .filter(|w| !w[class].is_empty())
            .map(|w| quantile(&w[class], q))
            .collect();
        if votes.is_empty() {
            quantile(&side_us[class], q)
        } else {
            median(&votes)
        }
    };
    let rates: Vec<f64> = windows
        .iter()
        .map(|w| w[0].len() as f64 * 1e9 / width)
        .collect();
    E2e {
        requests_per_s: median(&rates),
        p50: per(0, 0.5),
        p99: per(0, 0.99),
        write_p50: per(1, 0.5),
        write_p99: per(1, 0.99),
        read_p50: per(2, 0.5),
        reject_p50: per(3, 0.5),
        edit_p50: per(4, 0.5),
    }
}

/// A class's slot in the per-class latency buckets; 0 holds all classes.
fn class_index(class: Class) -> usize {
    match class {
        Class::Write => 1,
        Class::Read => 2,
        Class::Reject => 3,
        Class::Edit => 4,
    }
}

/// The round's end-to-end figures over every session.
fn round_e2e(r: &Round) -> E2e {
    let all = |f: fn(&Session) -> &Vec<Sample>| -> Vec<Sample> {
        r.sessions
            .iter()
            .flat_map(|s| f(s).iter().copied())
            .collect()
    };
    e2e(&all(|s| &s.samples), &all(|s| &s.side), r.elapsed)
}

/// Checks the final state: a read on the live connections, or, for the
/// durable workload, a reopen of the stopped store. Returns the time
/// `Engine::open` took on the reopen.
fn finish(w: Workload, mut live: Live) -> io::Result<Option<f64>> {
    let finals: Vec<_> = live.conns.iter().map(|c| c.gen.final_read()).collect();
    let ids: Vec<_> = live.conns.iter().map(|c| c.session).collect();
    if w.durable() {
        let dir = live.stop()?.expect("durable workloads own a store");
        return check_recovery(w, &dir, &ids, &finals).map(Some);
    }
    for (conn, req) in live.conns.iter_mut().zip(&finals) {
        let result = conn.client.apply(conn.session, &commands(&req.ops))?;
        if !req.check(&result) {
            return Err(io::Error::other(format!("final state: {result:?}")));
        }
    }
    live.stop()?;
    Ok(None)
}

/// One round: a fresh set-up (timed), a timed phase on it, the side
/// phase, the guards, and the final-state check.
struct Round {
    setup_s: f64,
    sessions: Vec<Session>,
    elapsed: f64,
    /// Share of the host's CPU time the hypervisor gave to other guests
    /// during the timed phase.
    steal: f64,
    /// Peak RSS at the end of the timed phase, before the final check
    /// (whose store reopen reads a log tail of varying length).
    rss: f64,
    /// Automatic checkpoints written during the timed phase.
    checkpoints: u64,
    tally: Tally,
    trips: Vec<String>,
    before: EngineStats,
    after: EngineStats,
    ids: Vec<SessionId>,
    /// The round's own WAL records still on disk at its end (durable
    /// workload, traced rounds only).
    records: Vec<WalRecord>,
    recovery_s: Option<f64>,
}

/// `(steal, total)` jiffies over all CPUs, from `/proc/stat`; zeros
/// where it cannot be read.
fn cpu_times() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .map(|l| {
            l.split_whitespace()
                .filter_map(|f| f.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    // user nice system idle iowait irq softirq steal
    match fields.get(..8) {
        Some(f) => (f[7], f.iter().sum()),
        None => (0, 0),
    }
}

fn steal_frac((s0, t0): (u64, u64), (s1, t1): (u64, u64)) -> f64 {
    ratio(s1.saturating_sub(s0), t1.saturating_sub(t0))
}

fn round(w: Workload, seed: u64, seconds: f64, keep: bool) -> io::Result<Round> {
    let t = Instant::now();
    let mut live = setup(w, seed)?;
    let setup_s = t.elapsed().as_secs_f64();
    let before = live.stats()?;
    let cpu0 = cpu_times();
    let (mut sessions, elapsed, start) = timed(&mut live, w, seconds, keep);
    let steal = steal_frac(cpu0, cpu_times());
    let rss = peak_rss_mb();
    let mid = live.stats()?;
    side(&mut live, &mut sessions, start, keep);
    let after = live.stats()?;
    let mut records = Vec::new();
    if keep && w.durable() {
        for index in live.engine.seal_wal()? {
            records.extend(decode_segment(&live.engine.read_wal_segment(index)?)?);
        }
    }
    let ids = live.conns.iter().map(|c| c.session).collect();
    let recovery_s = finish(w, live)?;
    let tally = Tally::of(&sessions);
    let trips = guards(w, &before, &after, &tally);
    Ok(Round {
        setup_s,
        sessions,
        elapsed,
        steal,
        rss,
        checkpoints: mid.snapshots_written - before.snapshots_written,
        tally,
        trips,
        before,
        after,
        ids,
        records,
        recovery_s,
    })
}

struct Outcome {
    metrics: Metrics,
    attempted: u64,
    failed: u64,
    trips: Vec<String>,
}

/// The child side of [`run_e2e`] and [`run_traced`]: set-ups, one round
/// (recording its stream and spans under `--trace 1`, as a traced round
/// does), raw results on standard output, one `key value…` record per
/// line.
fn run_round(a: &Args, setups: usize) -> io::Result<()> {
    let w = a.workload;
    for _ in 1..setups {
        let t = Instant::now();
        let live = setup(w, a.seed)?;
        println!("setup {}", t.elapsed().as_secs_f64());
        finish(w, live)?;
    }
    let r = round(w, a.seed, a.seconds, a.trace)?;
    println!("setup {}", r.setup_s);
    let e = round_e2e(&r);
    println!(
        "round {} {} {} {} {} {} {} {} {}",
        e.requests_per_s,
        e.p50,
        e.p99,
        e.write_p50,
        e.write_p99,
        e.read_p50,
        e.reject_p50,
        e.edit_p50,
        r.elapsed
    );
    let t = &r.tally;
    println!(
        "tally {} {} {} {} {} {}",
        t.attempted, t.failed, t.writes, t.reads, t.rejects, t.edits
    );
    for trip in &r.trips {
        println!("trip {trip}");
    }
    println!("rss {}", r.rss);
    println!("steal {}", r.steal);
    println!("checkpoints {}", r.checkpoints);
    Ok(())
}

/// A round whose host lost more than this share of its CPU time to other
/// guests is run again (see [`run_e2e`]).
const STEAL_OK: f64 = 0.02;

/// What one round process reported.
struct ChildRound {
    setups: Vec<f64>,
    e2e: E2e,
    tally: Tally,
    trips: Vec<String>,
    rss: f64,
    steal: f64,
    checkpoints: u64,
    elapsed: f64,
}

fn child_round(a: &Args, seconds: f64, setups: usize, traced: bool) -> io::Result<ChildRound> {
    let w = a.workload;
    let out = std::process::Command::new(std::env::current_exe()?)
        .args(["--workload", w.name()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .args(["--seed", &a.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--round-setups", &setups.to_string()])
        .stderr(std::process::Stdio::inherit())
        .output()?;
    if !out.status.success() {
        return Err(io::Error::other(format!(
            "round process failed: {}",
            out.status
        )));
    }
    let bad = |line: &str| io::Error::other(format!("round process printed {line:?}"));
    let (mut setups, mut e2e, mut tally) = (Vec::new(), None, None);
    let (mut trips, mut rss, mut steal, mut elapsed) = (Vec::new(), 0.0, 0.0, 0.0);
    let mut checkpoints = 0;
    for line in String::from_utf8_lossy(&out.stdout).lines() {
        let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
        if key == "trip" {
            trips.push(rest.to_string());
            continue;
        }
        let v: Vec<f64> = rest
            .split(' ')
            .map(str::parse)
            .collect::<Result<_, _>>()
            .map_err(|_| bad(line))?;
        match (key, v.as_slice()) {
            ("setup", &[s]) => setups.push(s),
            ("rss", &[mb]) => rss = mb,
            ("steal", &[f]) => steal = f,
            ("checkpoints", &[n]) => checkpoints = n as u64,
            ("round", &[rps, p50, p99, wp50, wp99, rp50, jp50, ep50, secs]) => {
                e2e = Some(E2e {
                    requests_per_s: rps,
                    p50,
                    p99,
                    write_p50: wp50,
                    write_p99: wp99,
                    read_p50: rp50,
                    reject_p50: jp50,
                    edit_p50: ep50,
                });
                elapsed = secs;
            }
            ("tally", &[att, fail, wr, rd, rj, ed]) => {
                tally = Some(Tally {
                    attempted: att as u64,
                    failed: fail as u64,
                    writes: wr as u64,
                    reads: rd as u64,
                    rejects: rj as u64,
                    edits: ed as u64,
                })
            }
            _ => return Err(bad(line)),
        }
    }
    let missing = || io::Error::other("round process printed no result");
    Ok(ChildRound {
        setups,
        e2e: e2e.ok_or_else(missing)?,
        tally: tally.ok_or_else(missing)?,
        trips,
        rss,
        steal,
        checkpoints,
        elapsed,
    })
}

/// Runs the rounds, each in a child process, and reports the median over
/// them. The host is a guest that shares its CPUs: while the hypervisor
/// steals a few percent of them, every latency rises and p99 triples. A
/// round that lost more than [`STEAL_OK`] is run again, up to half as
/// many extra rounds, and the figures come from the least-stolen rounds.
/// Which rounds are kept depends only on the host, never on the figures
/// measured; every round's outcomes still count towards `failed`.
fn run_e2e(a: &Args) -> io::Result<Outcome> {
    let w = a.workload;
    let rounds = ((a.seconds / w.round_s()).round() as usize).max(1);
    let per_round = a.seconds / rounds as f64;
    let setups = w.setups().div_ceil(rounds);
    let mut done: Vec<ChildRound> = Vec::new();
    while done.len() < rounds + rounds / 2
        && done.iter().filter(|r| r.steal <= STEAL_OK).count() < rounds
    {
        done.push(child_round(a, per_round, setups, false)?);
    }
    let mut tally = Tally::default();
    let mut trips = Vec::new();
    let mut setup_s = Vec::new();
    for r in &done {
        tally.add(&r.tally);
        trips.extend(r.trips.iter().cloned());
        setup_s.extend(&r.setups);
    }
    trips.extend(checkpoint_guard(
        w,
        done.iter().map(|r| r.checkpoints).sum(),
    ));
    let mut kept: Vec<&ChildRound> = done.iter().collect();
    kept.sort_by(|x, y| x.steal.total_cmp(&y.steal));
    kept.truncate(rounds);
    let med = |f: fn(&ChildRound) -> f64| median(&kept.iter().map(|r| f(r)).collect::<Vec<_>>());

    let mut m = Metrics::default();
    m.put("setup_s", median(&setup_s), "s");
    m.put("requests_per_s", med(|r| r.e2e.requests_per_s), "1/s");
    m.put("latency_p50_us", med(|r| r.e2e.p50), "us");
    m.put("write_p50_us", med(|r| r.e2e.write_p50), "us");
    m.put("read_p50_us", med(|r| r.e2e.read_p50), "us");
    m.put("reject_p50_us", med(|r| r.e2e.reject_p50), "us");
    m.put("edit_p50_us", med(|r| r.e2e.edit_p50), "us");
    m.put("peak_rss_mb", med(|r| r.rss), "MB");
    let timed: f64 = kept.iter().map(|r| r.elapsed).sum();
    // Tails are printed but not part of the result: host steal moves
    // them by half between identical runs.
    println!(
        "{} seed {}: latency_p99_us {:.3} us, write_p99_us {:.3} us (not in the result line)",
        w.name(),
        a.seed,
        med(|r| r.e2e.p99),
        med(|r| r.e2e.write_p99)
    );
    println!(
        "{} seed {}: {} of {} rounds kept ({timed:.2} s timed, median steal {:.2}%); \
         samples: {} writes, {} reads, {} rejects, {} edits; failed_frac {}",
        w.name(),
        a.seed,
        kept.len(),
        done.len(),
        med(|r| r.steal) * 100.0,
        tally.writes,
        tally.reads,
        tally.rejects,
        tally.edits,
        ratio(tally.failed, tally.attempted)
    );
    Ok(Outcome {
        metrics: m,
        attempted: tally.attempted,
        failed: tally.failed,
        trips,
    })
}

/// Untraced/traced round pairs per traced run; the tracing overhead is
/// the ratio of their median latencies. Each round of a pair runs in a
/// child process of its own, as the end-to-end rounds do, so that both
/// draw their thread placement the same way.
const TRACE_PAIRS: usize = 4;

fn run_traced(a: &Args) -> io::Result<Outcome> {
    let w = a.workload;
    let phase = (a.seconds / (2 * TRACE_PAIRS + 1) as f64).max(w.round_s());
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut tails = Vec::new();
    let mut failed = 0;
    let mut trips = Vec::new();
    let mut checkpoints = 0;
    for _ in 0..TRACE_PAIRS {
        for keep in [false, true] {
            let c = child_round(a, phase, 1, keep)?;
            if keep {
                traced.push(c.e2e.p50);
            } else {
                untraced.push(c.e2e.p50);
                tails.push((c.e2e.p99, c.e2e.write_p99));
            }
            failed += c.tally.failed;
            trips.extend(c.trips);
            checkpoints += c.checkpoints;
        }
    }
    // The round whose stream the rungs below replay, in this process.
    let mut r = round(w, a.seed, phase, true)?;
    failed += r.tally.failed;
    trips.extend(r.trips.iter().cloned());
    checkpoints += r.checkpoints;
    trips.extend(checkpoint_guard(w, checkpoints));
    let (untraced_p50, traced_p50) = (median(&untraced), median(&traced));
    let p99 = median(&tails.iter().map(|t| t.0).collect::<Vec<_>>());
    let write_p99 = median(&tails.iter().map(|t| t.1).collect::<Vec<_>>());
    let pair_pct: Vec<f64> = traced
        .iter()
        .zip(&untraced)
        .map(|(t, u)| (t / u - 1.0) * 100.0)
        .collect();
    println!(
        "{} seed {} tracing overhead per pair (traced/untraced p50 - 1): {}",
        w.name(),
        a.seed,
        pair_pct
            .iter()
            .map(|p| format!("{p:+.1}%"))
            .collect::<Vec<_>>()
            .join(" ")
    );

    // The in-process traced round's stream, replayed at every rung below.
    let outcomes: Vec<_> = r
        .sessions
        .iter_mut()
        .map(|s| std::mem::take(&mut s.outcomes))
        .collect();
    let served = Served {
        sessions: &r.sessions,
        ids: &r.ids,
    };
    let mut spans = served.client_spans();
    let (engine_spans, engine_failed) = trace::engine_rung(w, a.seed, &served)?;
    let (core_spans, core_failed) = trace::core_rung(w, a.seed, &served)?;
    let (codec_spans, bytes) = trace::codec_rung(&served, outcomes)?;
    failed += engine_failed + core_failed;
    spans.extend(engine_spans);
    spans.extend(core_spans);
    spans.extend(codec_spans);
    if w.durable() {
        let setup_logged: Vec<u64> = (0..r.ids.len())
            .map(|s| {
                w.generator(a.seed, s)
                    .setup()
                    .iter()
                    .filter(|q| q.logged())
                    .count() as u64
            })
            .collect();
        spans.extend(trace::persist_rung(&served, &setup_logged, &r.records)?);
    }
    let t = trace::self_times(w, &served, &Ladder::new(&spans));
    let path = trace::write_spans(w, a.seed, &spans)?;

    let (before, after, tally) = (&r.before, &r.after, &r.tally);
    let d = |f: fn(&EngineStats) -> u64| f(after) - f(before);
    let requests = tally.attempted;
    let mut m = Metrics::default();
    // The tails the end-to-end result leaves out (host steal moves them
    // too far between runs to bound them), from the untraced rounds.
    m.put("tail.latency_p99_us", p99, "us");
    m.put("tail.write_p99_us", write_p99, "us");
    m.put("trace.untraced_latency_p50_us", untraced_p50, "us");
    m.put("trace.traced_latency_p50_us", traced_p50, "us");
    m.put(
        "trace.overhead_pct",
        (traced_p50 / untraced_p50 - 1.0) * 100.0,
        "%",
    );
    m.put("server.self_us_p50", median(&t.server), "us");
    m.put("server.unaccounted_us_p50", median(&t.unaccounted), "us");
    m.put("server.codec_ns_p50", median(&t.codec_ns), "ns");
    m.put("server.bytes_per_request", ratio(bytes, requests), "bytes");
    m.put("engine.self_us_p50", median(&t.engine), "us");
    m.put(
        "engine.queue_depth_hwm",
        after.queue_depth_hwm as f64,
        "count",
    );
    m.put(
        "engine.backpressure_rejections",
        d(|s| s.backpressure_rejections) as f64,
        "count",
    );
    m.put(
        "engine.rollbacks_per_reject",
        ratio(d(|s| s.rollbacks), tally.rejects),
        "ratio",
    );
    m.put("core.self_us_p50", median(&t.core), "us");
    m.put("core.set_us_p50", median(&t.core_set), "us");
    m.put("core.probe_us_p50", median(&t.core_probe), "us");
    m.put("core.edit_us_p50", median(&t.core_edit), "us");
    let (hits, compiles) = (d(|s| s.plan_cache_hits), d(|s| s.plan_compiles));
    m.put("core.plan_hit_ratio", ratio(hits, hits + compiles), "ratio");
    m.put(
        "core.compiles_per_edit",
        ratio(compiles, tally.edits),
        "ratio",
    );
    m.put(
        "core.invalidations_per_edit",
        ratio(d(|s| s.plan_cache_invalidations), tally.edits),
        "ratio",
    );
    let parallel = d(|s| s.plan_replays_parallel);
    m.put("core.parallel_replay_frac", ratio(parallel, hits), "ratio");
    m.put(
        "core.cones_per_replay",
        ratio(d(|s| s.cones_executed), parallel),
        "ratio",
    );
    m.put(
        "core.steal_frac",
        ratio(d(|s| s.cones_stolen), d(|s| s.cones_executed)),
        "ratio",
    );
    m.put(
        "core.parallel_fallbacks",
        d(|s| s.parallel_fallbacks) as f64,
        "count",
    );
    m.put(
        "core.assignments_per_write",
        ratio(d(|s| s.assignments), tally.writes),
        "ratio",
    );
    m.put(
        "core.waves_per_write",
        ratio(d(|s| s.waves), tally.writes),
        "ratio",
    );
    m.put(
        "core.domain_tightenings_per_write",
        ratio(d(|s| s.domain_tightenings), tally.writes),
        "ratio",
    );
    m.put(
        "core.subsumed_pruned",
        d(|s| s.subsumed_pruned) as f64,
        "count",
    );
    m.put("core.wipeouts", d(|s| s.wipeouts) as f64, "count");
    m.put("persist.self_us_p50", median(&t.persist), "us");
    m.put("persist.append_us_p50", median(&t.append), "us");
    m.put("persist.fsync_us_p50", median(&t.sync), "us");
    m.put("persist.fsync_us_p99", quantile(&t.sync, 0.99), "us");
    let appends = d(|s| s.wal_appends);
    m.put(
        "persist.commits_per_fsync",
        ratio(appends, d(|s| s.wal_group_syncs)),
        "ratio",
    );
    m.put(
        "persist.wal_bytes_per_commit",
        ratio(d(|s| s.wal_bytes), appends),
        "bytes",
    );
    m.put(
        "persist.snapshots_written",
        d(|s| s.snapshots_written) as f64,
        "count",
    );
    m.put("persist.recovery_s", r.recovery_s.unwrap_or(0.0), "s");
    println!(
        "{} seed {} traced: {} requests over {:.2} s; {} persist records; spans in {}",
        w.name(),
        a.seed,
        requests,
        r.elapsed,
        r.records.len(),
        path.display()
    );
    Ok(Outcome {
        metrics: m,
        attempted: requests,
        failed,
        trips,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(setups) = args.round_setups {
        return match run_round(&args, setups) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {}: {e}", args.workload.name());
                ExitCode::from(1)
            }
        };
    }
    let result = if args.trace {
        run_traced(&args)
    } else {
        run_e2e(&args)
    };
    let out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload.name());
            return ExitCode::from(1);
        }
    };
    for trip in &out.trips {
        eprintln!("guard tripped: {trip}");
    }
    let correct = out.failed == 0 && out.trips.is_empty();
    let title = if args.trace {
        "per-layer"
    } else {
        "end-to-end"
    };
    out.metrics
        .print_table(&format!("{} {title} metrics:", args.workload.name()));
    println!(
        "{}",
        out.metrics.json(correct, out.attempted.max(1), out.failed)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
