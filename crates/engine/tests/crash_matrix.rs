//! Kill–recover differential: for every possible crash point (disk byte
//! budget), recovery must rebuild exactly a whole-batch prefix of the
//! acknowledged history — never a half-applied batch, never a batch the
//! engine reported as failed and rolled back.
//!
//! Two parts:
//! - a deterministic sweep over *every* byte budget of a scripted
//!   workload, and
//! - a seeded randomized differential over generated workloads and
//!   random crash points.
//!
//! The acceptance predicate: the recovered engine equals the in-memory
//! reference after `k` acknowledged batches, where `k = acked` or
//! `k = acked + 1`. The `+1` case covers exactly one shape: the final
//! batch's WAL record landed fully on disk but the crash hit before the
//! sync/ack, so the engine reported failure yet recovery legitimately
//! finds the whole record. What can never happen is a *partial* batch.

use std::fs;
use std::ops::Deref;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use stem_core::{Justification, Value, VarId};
use stem_engine::{
    BatchError, Command, ConstraintSpec, Durability, DurabilityOptions, Engine, EngineConfig,
    Output, SessionId, Source,
};
use stem_persist::{failing_factory, ByteBudget};

const SESSIONS: u64 = 2;

/// A store directory unique to one call, removed when dropped. Tests in
/// this binary run in parallel and several share a tag (every sweep
/// measures its workload under "measure"), so the name carries a
/// process-wide counter besides the pid: two live stores never share a
/// directory, and hence never contend for its LOCK.
struct TempDir(PathBuf);

impl Deref for TempDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn temp_dir(tag: &str) -> TempDir {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let d = std::env::temp_dir().join(format!(
        "stem-crash-matrix-{tag}-{}-{n}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&d);
    TempDir(d)
}

fn config() -> EngineConfig {
    EngineConfig {
        workers: 2, // sessions 0 and 1 land on different workers
        ..EngineConfig::default()
    }
}

fn opts() -> DurabilityOptions {
    DurabilityOptions {
        mode: Durability::CommitSync,
        segment_bytes: 512, // force rotation mid-workload
        checkpoint_bytes: 0,
        ..DurabilityOptions::default()
    }
}

/// Commands aren't `Clone` (custom kinds carry closures), so workloads
/// are regenerated from their description on every use.
type Workload = Vec<(u64, Vec<Command>)>;

fn scripted_workload() -> Workload {
    let v = VarId::from_index;
    vec![
        (
            0,
            vec![
                Command::AddVariable { name: "a".into() },
                Command::AddVariable { name: "b".into() },
                Command::AddVariable { name: "c".into() },
            ],
        ),
        (
            1,
            vec![
                Command::AddVariable { name: "x".into() },
                Command::AddVariable { name: "y".into() },
            ],
        ),
        (
            0,
            vec![Command::AddConstraint {
                spec: ConstraintSpec::Sum,
                args: vec![v(0), v(1), v(2)],
            }],
        ),
        (
            1,
            vec![Command::AddConstraint {
                spec: ConstraintSpec::LeConst(Value::Int(50)),
                args: vec![v(0)],
            }],
        ),
        (
            0,
            vec![
                Command::Set {
                    var: v(0),
                    value: Value::Int(2),
                    source: Source::User,
                },
                Command::Set {
                    var: v(1),
                    value: Value::Int(3),
                    source: Source::User,
                },
            ],
        ),
        // A violating batch: rejected, rolled back, never logged.
        (
            1,
            vec![Command::Set {
                var: v(0),
                value: Value::Int(99),
                source: Source::User,
            }],
        ),
        (
            1,
            vec![Command::Set {
                var: v(0),
                value: Value::Int(7),
                source: Source::User,
            }],
        ),
        (
            0,
            vec![Command::RemoveConstraint {
                constraint: stem_core::ConstraintId::from_index(0),
            }],
        ),
        (
            0,
            vec![Command::AddConstraint {
                spec: ConstraintSpec::Equality,
                args: vec![v(1), v(2)],
            }],
        ),
        (
            1,
            vec![
                Command::Unset { var: v(1) },
                Command::Set {
                    var: v(1),
                    value: Value::Int(8),
                    source: Source::Application,
                },
            ],
        ),
        (
            0,
            vec![Command::Set {
                var: v(0),
                value: Value::Int(40),
                source: Source::User,
            }],
        ),
    ]
}

/// Observable state of one session: its dump plus its violation set.
type Observed = (
    Vec<(String, Value, Justification)>,
    Vec<stem_core::Violation>,
);

fn observe(engine: &Engine, s: SessionId) -> Observed {
    let mut out = engine
        .apply(s, vec![Command::DumpValues, Command::CheckAll])
        .expect("read-only batch")
        .outputs;
    let checks = match out.pop() {
        Some(Output::Violations(v)) => v,
        other => panic!("expected violations, got {other:?}"),
    };
    let dump = match out.pop() {
        Some(Output::Dump(d)) => d,
        other => panic!("expected dump, got {other:?}"),
    };
    (dump, checks)
}

fn observe_all(engine: &Engine) -> Vec<Observed> {
    (0..SESSIONS)
        .map(|s| observe(engine, SessionId(s)))
        .collect()
}

/// Replays the first `k` *acknowledgeable* batches of `workload` on a
/// volatile engine and returns each session's observable state. Batches
/// the durable run would have rejected (violations) are replayed and
/// rejected here too — they don't count toward `k` because they were
/// never acknowledged as committed.
fn reference_after(workload: Workload, k: usize) -> Option<Vec<Observed>> {
    let engine = Engine::with_config(config());
    for _ in 0..SESSIONS {
        engine.create_session();
    }
    let mut committed = 0;
    for (s, batch) in workload {
        if committed == k {
            break;
        }
        if engine.apply(SessionId(s), batch).is_ok() {
            committed += 1;
        }
    }
    // Fewer committable batches than requested: no such prefix exists.
    (committed == k).then(|| observe_all(&engine))
}

/// Outcome of driving a workload against a durable engine that may run
/// out of disk: how many batches were acknowledged, and whether a batch
/// failed with a persistence error (making the `acked + 1` recovery
/// legitimate).
struct DriveResult {
    acked: usize,
    persist_failed: bool,
}

fn drive(engine: &Engine, workload: Workload) -> DriveResult {
    let mut acked = 0;
    for (s, batch) in workload {
        match engine.apply(SessionId(s), batch) {
            Ok(_) => acked += 1,
            Err(BatchError::Persist { .. }) => {
                return DriveResult {
                    acked,
                    persist_failed: true,
                }
            }
            // Violations and invalid commands are deterministic functions
            // of the replayed prefix — the reference run rejects the same
            // batches — so they simply don't count as acknowledged.
            Err(_) => continue,
        }
    }
    DriveResult {
        acked,
        persist_failed: false,
    }
}

/// The core check: crash a workload at `budget` disk bytes, recover,
/// and demand the recovered state equal a whole-batch prefix consistent
/// with what was acknowledged.
fn check_crash_point(tag: &str, budget_bytes: usize, make_workload: impl Fn() -> Workload) {
    let dir = temp_dir(tag);
    let budget = ByteBudget::new(budget_bytes as u64);
    let failing = DurabilityOptions {
        file_factory: Some(failing_factory(budget)),
        ..opts()
    };
    let result = match Engine::open_with_config(&*dir, config(), failing) {
        Ok(engine) => {
            for _ in 0..SESSIONS {
                engine.create_session();
            }
            let r = drive(&engine, make_workload());
            engine.shutdown();
            r
        }
        // Budget too small even for the first segment header: nothing
        // was ever acknowledged.
        Err(_) => DriveResult {
            acked: 0,
            persist_failed: false,
        },
    };

    // Recover from whatever prefix actually reached "disk". Observing a
    // session that was never recovered yields an empty dump, which is
    // exactly what the reference produces for a session with no batches.
    let engine = Engine::open_with_config(&*dir, config(), opts()).unwrap();
    let recovered = observe_all(&engine);

    // Continuation leg: commit new acknowledged data on top of the
    // recovered state (it lands in a segment after any repaired tear),
    // then reopen once more. The post-recovery commits must survive —
    // the crash's damage is never allowed to shadow them.
    for s in 0..SESSIONS {
        engine
            .apply(
                SessionId(s),
                vec![Command::AddVariable {
                    name: format!("post{s}"),
                }],
            )
            .expect("clean-tear recovery leaves sessions writable");
    }
    let after_append = observe_all(&engine);
    engine.shutdown();
    let engine = Engine::open_with_config(&*dir, config(), opts()).unwrap();
    assert_eq!(
        observe_all(&engine),
        after_append,
        "{tag}: budget {budget_bytes}: records acked after recovery were \
         dropped by the next reopen"
    );
    engine.shutdown();

    // The differential below compares the *recovered* observation (taken
    // before the continuation commits) against the reference prefixes.

    let expect_acked = reference_after(make_workload(), result.acked)
        .expect("the acked count cannot exceed the committable batches");
    let matches_acked = recovered == expect_acked;
    let matches_next = result.persist_failed
        && reference_after(make_workload(), result.acked + 1).is_some_and(|r| recovered == r);
    assert!(
        matches_acked || matches_next,
        "{tag}: budget {budget_bytes}: recovered state is neither \
         reference({}) nor reference({}) (persist_failed={})\n\
         recovered: {recovered:?}\nexpected:  {expect_acked:?}",
        result.acked,
        result.acked + 1,
        result.persist_failed,
    );
}

/// Disk footprint of the full scripted workload, measured on real files.
fn full_run_bytes(make_workload: impl Fn() -> Workload) -> usize {
    let dir = temp_dir("measure");
    let engine = Engine::open_with_config(&*dir, config(), opts()).unwrap();
    for _ in 0..SESSIONS {
        engine.create_session();
    }
    let r = drive(&engine, make_workload());
    assert!(!r.persist_failed);
    engine.shutdown();
    let total: u64 = fs::read_dir(&*dir)
        .unwrap()
        .map(|e| e.unwrap().metadata().unwrap().len())
        .sum();
    total as usize
}

#[test]
fn every_crash_point_recovers_a_whole_batch_prefix() {
    let total = full_run_bytes(scripted_workload);
    assert!(total > 0);
    // Every byte budget from "disk full immediately" to "never crashed".
    for budget in 0..=total {
        check_crash_point("sweep", budget, scripted_workload);
    }
}

/// A domain session: interval/finite-set values narrowed by domain
/// propagators, a wipeout batch that must never be logged, and a
/// mid-run structural edit — all riding the same WAL machinery.
fn domain_workload() -> Workload {
    use stem_core::domain::{FinSet, Interval};
    let v = VarId::from_index;
    vec![
        (
            0,
            vec![
                Command::AddVariable { name: "x".into() },
                Command::AddVariable { name: "y".into() },
                Command::AddVariable { name: "z".into() },
            ],
        ),
        (
            1,
            vec![
                Command::AddVariable { name: "p".into() },
                Command::AddVariable { name: "q".into() },
            ],
        ),
        (
            0,
            vec![
                Command::Set {
                    var: v(0),
                    value: Value::Interval(Interval::new(0, 40)),
                    source: Source::User,
                },
                Command::Set {
                    var: v(1),
                    value: Value::Interval(Interval::new(5, 25)),
                    source: Source::User,
                },
                Command::Set {
                    var: v(2),
                    value: Value::Interval(Interval::new(0, 100)),
                    source: Source::User,
                },
            ],
        ),
        (
            1,
            vec![
                Command::Set {
                    var: v(0),
                    value: Value::FinSet(FinSet::new(0b1111_0110)),
                    source: Source::User,
                },
                Command::Set {
                    var: v(1),
                    value: Value::FinSet(FinSet::new(0b0011_1100)),
                    source: Source::Application,
                },
            ],
        ),
        // x + y = z narrows z to [5, 65] on installation.
        (
            0,
            vec![Command::AddConstraint {
                spec: ConstraintSpec::DomAdd {
                    views: [(1, 0), (1, 0), (1, 0)],
                    out: None,
                },
                args: vec![v(0), v(1), v(2)],
            }],
        ),
        (
            1,
            vec![Command::AddConstraint {
                spec: ConstraintSpec::DomAllDiff,
                args: vec![v(0), v(1)],
            }],
        ),
        // Tighten x: propagates through the adder into z.
        (
            0,
            vec![Command::Set {
                var: v(0),
                value: Value::Interval(Interval::new(10, 20)),
                source: Source::User,
            }],
        ),
        // A wipeout batch: z cannot hold [0, 10] under x + y = z with
        // x ∈ [10, 20], y ∈ [5, 25]. Rejected, rolled back, never logged.
        (
            0,
            vec![Command::Set {
                var: v(2),
                value: Value::Interval(Interval::new(0, 10)),
                source: Source::User,
            }],
        ),
        (
            1,
            vec![Command::AddConstraint {
                spec: ConstraintSpec::DomLe {
                    c: 3,
                    views: [(1, 0), (1, 0)],
                    out: None,
                },
                args: vec![v(0), v(1)],
            }],
        ),
        (
            0,
            vec![Command::RemoveConstraint {
                constraint: stem_core::ConstraintId::from_index(0),
            }],
        ),
        (
            0,
            vec![Command::Set {
                var: v(2),
                value: Value::Interval(Interval::new(30, 45)),
                source: Source::Application,
            }],
        ),
    ]
}

#[test]
fn every_crash_point_recovers_a_domain_session_prefix() {
    let total = full_run_bytes(domain_workload);
    assert!(total > 0);
    for budget in 0..=total {
        check_crash_point("domain", budget, domain_workload);
    }
}

// ---------------------------------------------------------------------
// Randomized differential
// ---------------------------------------------------------------------

/// SplitMix64 — deterministic, dependency-free.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Generates a random but *valid* workload (ids always refer to
/// variables/constraints the session has created) for a given seed.
/// Regenerating with the same seed yields the same workload, which is
/// how the reference run replays it without `Command: Clone`.
fn random_workload(seed: u64) -> Workload {
    let mut rng = Rng(seed);
    let n_batches = 6 + rng.below(10);
    // Per-session bookkeeping so generated commands are always valid.
    let mut vars = vec![0usize; SESSIONS as usize];
    let mut cons: Vec<Vec<bool>> = vec![Vec::new(); SESSIONS as usize];
    let mut out = Vec::new();
    for _ in 0..n_batches {
        let s = rng.below(SESSIONS as usize);
        let n_cmds = 1 + rng.below(3);
        let mut batch = Vec::new();
        for _ in 0..n_cmds {
            let roll = rng.below(100);
            if roll < 30 || vars[s] == 0 {
                batch.push(Command::AddVariable {
                    name: format!("v{}", vars[s]),
                });
                vars[s] += 1;
            } else if roll < 70 {
                batch.push(Command::Set {
                    var: VarId::from_index(rng.below(vars[s])),
                    value: Value::Int(rng.below(1000) as i64),
                    source: Source::User,
                });
            } else if roll < 80 && vars[s] >= 3 {
                let a = rng.below(vars[s]);
                batch.push(Command::AddConstraint {
                    spec: ConstraintSpec::Sum,
                    args: vec![
                        VarId::from_index(a),
                        VarId::from_index((a + 1) % vars[s]),
                        VarId::from_index((a + 2) % vars[s]),
                    ],
                });
                cons[s].push(true);
            } else if roll < 90 {
                batch.push(Command::Unset {
                    var: VarId::from_index(rng.below(vars[s])),
                });
            } else if let Some(c) = cons[s].iter().position(|&live| live) {
                cons[s][c] = false;
                batch.push(Command::RemoveConstraint {
                    constraint: stem_core::ConstraintId::from_index(c),
                });
            } else {
                batch.push(Command::Set {
                    var: VarId::from_index(rng.below(vars[s])),
                    value: Value::Int(rng.below(1000) as i64),
                    source: Source::Application,
                });
            }
        }
        out.push((s as u64, batch));
    }
    out
}

#[test]
fn randomized_kill_recover_differential() {
    for seed in 0..25u64 {
        let make = || random_workload(seed);
        let total = full_run_bytes(make);
        // A few deterministic-per-seed crash points across the range,
        // biased toward the busy region past the segment header.
        let mut rng = Rng(seed.wrapping_mul(0x5851F42D4C957F2D) + 1);
        for _ in 0..6 {
            let budget = rng.below(total + 50);
            check_crash_point(&format!("rand{seed}"), budget, make);
        }
    }
}
