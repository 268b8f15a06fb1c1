//! Durability wiring between the engine and `stem-persist`: the public
//! durability knobs ([`Durability`], [`DurabilityOptions`]), checkpoint
//! state gathering, network restoration, and recovery planning over a
//! reopened store.
//!
//! The contract with the worker loop (`engine.rs`):
//!
//! - every committed mutating batch is turned into its log image with
//!   [`Command::to_persist`](crate::Command::to_persist) *before* it is
//!   applied (applying consumes the commands), appended as one
//!   `WalRecord::Batch` after the batch succeeds, and only then
//!   acknowledged;
//! - each durable session carries a *spec shadow* — `specs[i]` mirrors
//!   constraint slot `i` with its [`ConstraintSpec`] (`None` for
//!   tombstones) — folded forward by [`absorb_committed`] so a checkpoint
//!   can serialise the constraint arena without reflecting on kinds;
//! - at open, [`plan_recovery`] turns the store's snapshot + log tail into
//!   per-session rebuild scripts that [`restore_network`] executes inside
//!   the owning worker.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::time::Duration;

use stem_core::{ConstraintId, ConstraintSpec, Justification, Network, Value, VarId};
use stem_persist::{FileFactory, PersistCommand, Recovered, SessionState, SlotState, WalRecord};

/// When committed batches reach disk ([`DurabilityOptions::mode`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Durability {
    /// Recover-only: the store is read (and sessions rebuilt) at open, but
    /// nothing new is logged. Later crashes lose everything since open.
    Off,
    /// Every committed batch is fsynced before it is acknowledged (the
    /// default): an acknowledged commit survives any crash.
    #[default]
    CommitSync,
    /// Records are written immediately but fsynced on a timer: throughput
    /// close to in-memory, with a bounded window of acknowledged commits
    /// at risk on a power failure.
    IntervalSync {
        /// Upper bound on how long an acknowledged commit may sit in the
        /// OS page cache before an fsync covers it.
        interval: Duration,
    },
    /// Commit-sync durability with shared fsyncs: every acknowledged
    /// commit is on disk before the ack, but concurrent committers ride
    /// the same flush through a [`stem_persist::GroupCommit`] coordinator
    /// — one fsync covers every record appended while it was pending.
    /// Same guarantee as [`Durability::CommitSync`], amortised cost.
    GroupCommit,
}

/// Store construction knobs for [`crate::Engine::open_with_config`].
pub struct DurabilityOptions {
    /// Sync regime; see [`Durability`].
    pub mode: Durability,
    /// Segment rotation threshold in bytes.
    pub segment_bytes: u64,
    /// Automatic checkpoint threshold: once this many log-record bytes
    /// accumulate since the last snapshot, the background thread writes a
    /// new snapshot and compacts covered segments. `0` disables automatic
    /// checkpoints ([`crate::Engine::checkpoint`] only).
    pub checkpoint_bytes: u64,
    /// Overrides how store files are opened (fault injection in tests);
    /// `None` uses real files.
    pub file_factory: Option<FileFactory>,
}

impl Default for DurabilityOptions {
    fn default() -> Self {
        DurabilityOptions {
            mode: Durability::default(),
            segment_bytes: 1 << 20,
            checkpoint_bytes: 8 << 20,
            file_factory: None,
        }
    }
}

impl fmt::Debug for DurabilityOptions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DurabilityOptions")
            .field("mode", &self.mode)
            .field("segment_bytes", &self.segment_bytes)
            .field("checkpoint_bytes", &self.checkpoint_bytes)
            .field(
                "file_factory",
                &self.file_factory.as_ref().map(|_| "custom"),
            )
            .finish()
    }
}

/// The inspector-visible label for a session's durability regime.
pub(crate) fn durability_label(mode: Option<Durability>) -> &'static str {
    match mode {
        None => "volatile (in-memory only)",
        Some(Durability::Off) => "recover-only (logging off)",
        Some(Durability::CommitSync) => "commit-sync (fsync per commit)",
        Some(Durability::IntervalSync { .. }) => "interval-sync (bounded loss window)",
        Some(Durability::GroupCommit) => "group-commit (shared fsync per commit)",
    }
}

// ---------------------------------------------------------------------
// Spec shadow + checkpoint state
// ---------------------------------------------------------------------

/// Folds one committed batch's structural effects into the session's spec
/// shadow. Slot indices allocate sequentially and removals tombstone in
/// place, exactly like the network's constraint arena, so pushing on add
/// and clearing on remove keeps `specs[i]` aligned with slot `i`.
pub(crate) fn absorb_committed(
    specs: &mut Vec<Option<ConstraintSpec>>,
    commands: &[PersistCommand],
) {
    for cmd in commands {
        match cmd {
            PersistCommand::AddConstraint { spec, .. } => specs.push(Some(spec.clone())),
            PersistCommand::RemoveConstraint { constraint } => {
                if let Some(slot) = specs.get_mut(constraint.index()) {
                    *slot = None;
                }
            }
            _ => {}
        }
    }
}

/// Serialises a session for a checkpoint: variable images verbatim
/// (value + justification, not re-derived) plus the constraint arena via
/// the spec shadow.
pub(crate) fn gather_state(net: &Network, specs: &[Option<ConstraintSpec>]) -> SessionState {
    let vars = net
        .variables()
        .map(|v| {
            (
                net.var_name(v).to_string(),
                net.value(v).clone(),
                net.justification(v).clone(),
            )
        })
        .collect();
    let slots = specs
        .iter()
        .enumerate()
        .map(|(ix, spec)| match spec {
            None => SlotState::Tombstone,
            Some(spec) => {
                let cid = ConstraintId::from_index(ix);
                SlotState::Live {
                    spec: spec.clone(),
                    args: net.args(cid).to_vec(),
                    enabled: net.is_constraint_enabled(cid),
                }
            }
        })
        .collect();
    SessionState {
        vars,
        slots,
        value_change_limit: net.value_change_limit(),
        // The caller owns the idempotence watermark (it lives on the
        // worker's session, not the network) and stamps it afterwards.
        dedup: 0,
    }
}

/// Rebuilds a network from a checkpointed image.
///
/// Propagation is disabled for the rebuild: values are re-imposed verbatim
/// with their original justifications (the checkpoint already holds the
/// propagation fixpoint; re-deriving would both waste work and trip the
/// one-value-change rule), then the switch is re-enabled. Constraint slots
/// are materialised in index order — tombstones burn a dummy slot and
/// remove it — so persisted `ConstraintId`s stay valid.
pub(crate) fn restore_network(
    state: &SessionState,
    step_budget: Option<u64>,
) -> (Network, Vec<Option<ConstraintSpec>>) {
    let mut net = Network::new();
    net.set_step_limit(step_budget);
    net.set_propagation_enabled(false);
    for (name, _, _) in &state.vars {
        net.add_variable(name.clone());
    }
    let mut specs = Vec::with_capacity(state.slots.len());
    for slot in &state.slots {
        match slot {
            SlotState::Tombstone => {
                let cid = net.add_constraint_quiet(
                    stem_core::kinds::Equality::new(),
                    std::iter::empty::<VarId>(),
                );
                net.remove_constraint(cid);
                specs.push(None);
            }
            SlotState::Live {
                spec,
                args,
                enabled,
            } => {
                let cid = net.add_constraint_quiet_rc(spec.build(), args.iter().copied());
                if !*enabled {
                    net.set_constraint_enabled(cid, false);
                }
                specs.push(Some(spec.clone()));
            }
        }
    }
    for (ix, (_, value, just)) in state.vars.iter().enumerate() {
        if matches!(just, Justification::Unset) && matches!(value, Value::Nil) {
            continue;
        }
        let _ = net.set(VarId::from_index(ix), value.clone(), just.clone());
    }
    if net.value_change_limit() != state.value_change_limit {
        net.set_value_change_limit(state.value_change_limit);
    }
    net.set_propagation_enabled(true);
    (net, specs)
}

// ---------------------------------------------------------------------
// Recovery planning
// ---------------------------------------------------------------------

/// One session to rebuild at open: its checkpointed image plus the
/// committed batches logged after the checkpoint, in commit order. `seq`
/// is the last sequence number the tail reaches.
pub(crate) struct RecoveredSession {
    pub id: u64,
    pub seq: u64,
    pub state: SessionState,
    pub tail: Vec<Vec<PersistCommand>>,
    /// Highest client idempotence key among the checkpoint image and the
    /// applied tail records — re-arms duplicate suppression so a client
    /// resubmitting across a restart/failover cannot double-apply.
    pub dedup: u64,
    /// A sequence gap was detected in this session's log — corruption the
    /// checksums could not see. The session rebuilds from its pre-gap
    /// prefix but must come up quarantined, and the engine must fence the
    /// log with a fresh checkpoint before accepting new commits, or the
    /// stale higher-seq records would shadow them at the next recovery.
    pub corrupt: bool,
}

/// What [`crate::Engine::open_with_config`] distills from a reopened
/// store before spawning workers.
pub(crate) struct RecoveryPlan {
    pub next_session: u64,
    pub sessions: Vec<RecoveredSession>,
    /// Closed-session ids (snapshot + tail `Close` records); future
    /// checkpoints must keep carrying them until compaction retires the
    /// records that mention them.
    pub closed: Vec<u64>,
}

/// Merges the recovered snapshot and log tail into per-session rebuild
/// scripts. Per-session filtering: a `Batch` record `(s, q)` applies iff
/// `q` is the next sequence number after what the snapshot (or earlier
/// tail records) already cover and `s` was never closed.
pub(crate) fn plan_recovery(rec: Recovered) -> RecoveryPlan {
    let snap = rec.snapshot.unwrap_or_default();
    let mut closed: HashSet<u64> = snap.closed.iter().copied().collect();
    for r in &rec.tail {
        if let WalRecord::Close { session, .. } = r {
            closed.insert(*session);
        }
    }
    // Closed ids still bound `next_session`: a retired id is never reused.
    let mut max_id: Option<u64> = closed.iter().copied().max();
    let mut order: Vec<u64> = Vec::new();
    let mut by_id: HashMap<u64, RecoveredSession> = HashMap::new();
    for (id, seq, state) in snap.sessions {
        max_id = Some(max_id.map_or(id, |m| m.max(id)));
        if closed.contains(&id) {
            continue;
        }
        order.push(id);
        let dedup = state.dedup;
        by_id.insert(
            id,
            RecoveredSession {
                id,
                seq,
                state,
                tail: Vec::new(),
                dedup,
                corrupt: false,
            },
        );
    }
    // A sequence gap is only possible under corruption the checksums could
    // not see; the session keeps its pre-gap prefix.
    let mut gapped: HashSet<u64> = HashSet::new();
    for r in rec.tail {
        let id = r.session();
        max_id = Some(max_id.map_or(id, |m| m.max(id)));
        if closed.contains(&id) || gapped.contains(&id) {
            continue;
        }
        if let WalRecord::Batch {
            seq, key, commands, ..
        } = r
        {
            let entry = by_id.entry(id).or_insert_with(|| {
                order.push(id);
                RecoveredSession {
                    id,
                    seq: 0,
                    state: SessionState::default(),
                    tail: Vec::new(),
                    dedup: 0,
                    corrupt: false,
                }
            });
            if seq <= entry.seq {
                continue; // already covered by the checkpoint image
            }
            if seq == entry.seq + 1 {
                entry.seq = seq;
                entry.dedup = entry.dedup.max(key);
                entry.tail.push(commands);
            } else {
                gapped.insert(id);
                entry.corrupt = true;
            }
        }
    }
    RecoveryPlan {
        next_session: snap.next_session.max(max_id.map_or(0, |m| m + 1)),
        sessions: order
            .into_iter()
            .filter_map(|id| by_id.remove(&id))
            .collect(),
        closed: closed.into_iter().collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stem_core::Source;

    fn set(var: usize, v: i64) -> PersistCommand {
        PersistCommand::Set {
            var: VarId::from_index(var),
            value: Value::Int(v),
            source: Source::User,
        }
    }

    fn batch(session: u64, seq: u64) -> WalRecord {
        WalRecord::Batch {
            session,
            seq,
            key: seq,
            commands: vec![set(0, seq as i64)],
        }
    }

    #[test]
    fn plan_filters_by_snapshot_seq_and_closed_set() {
        let rec = Recovered {
            snapshot: Some(stem_persist::Snapshot {
                next_session: 3,
                closed: vec![1],
                sessions: vec![(0, 2, SessionState::default())],
            }),
            tail: vec![
                batch(0, 1), // covered by the snapshot
                batch(0, 2), // covered by the snapshot
                batch(0, 3), // fresh
                batch(1, 4), // closed session
                batch(5, 1), // brand new session, no snapshot image
                WalRecord::Close { session: 5, seq: 2 },
            ],
            truncated: false,
        };
        let plan = plan_recovery(rec);
        assert_eq!(plan.next_session, 6);
        assert_eq!(plan.sessions.len(), 1, "closed sessions stay dead");
        let s0 = &plan.sessions[0];
        assert_eq!((s0.id, s0.seq), (0, 3));
        assert_eq!(s0.tail.len(), 1);
        let mut closed = plan.closed.clone();
        closed.sort_unstable();
        assert_eq!(closed, vec![1, 5]);
    }

    #[test]
    fn plan_stops_a_session_at_a_sequence_gap() {
        let rec = Recovered {
            snapshot: None,
            tail: vec![batch(0, 1), batch(0, 2), batch(0, 4), batch(0, 5)],
            truncated: false,
        };
        let plan = plan_recovery(rec);
        assert_eq!(plan.sessions[0].seq, 2, "prefix before the gap survives");
        assert_eq!(plan.sessions[0].tail.len(), 2);
        assert!(plan.sessions[0].corrupt, "gaps flag the session as corrupt");
    }

    #[test]
    fn clean_plans_are_not_corrupt() {
        let rec = Recovered {
            snapshot: None,
            tail: vec![batch(0, 1), batch(0, 2)],
            truncated: false,
        };
        let plan = plan_recovery(rec);
        assert!(!plan.sessions[0].corrupt);
    }

    #[test]
    fn restore_round_trips_through_gather() {
        let mut net = Network::new();
        let a = net.add_variable("a");
        let b = net.add_variable("b");
        let c = net.add_variable("c");
        let mut specs = Vec::new();
        let installed = vec![
            PersistCommand::AddConstraint {
                spec: ConstraintSpec::Equality,
                args: vec![a, b],
            },
            PersistCommand::AddConstraint {
                spec: ConstraintSpec::Sum,
                args: vec![a, b, c],
            },
        ];
        net.add_constraint(stem_core::kinds::Equality::new(), [a, b])
            .unwrap();
        net.add_constraint(
            stem_core::kinds::Functional::new(stem_core::kinds::FunctionalOp::Sum),
            [a, b, c],
        )
        .unwrap();
        absorb_committed(&mut specs, &installed);
        net.set(a, Value::Int(4), Justification::User).unwrap();
        // Tombstone the equality; its erasure resets a/b consequences.
        net.remove_constraint(ConstraintId::from_index(0));
        absorb_committed(
            &mut specs,
            &[PersistCommand::RemoveConstraint {
                constraint: ConstraintId::from_index(0),
            }],
        );
        net.set(a, Value::Int(2), Justification::User).unwrap();
        net.set(b, Value::Int(5), Justification::User).unwrap();

        let state = gather_state(&net, &specs);
        let (restored, rspecs) = restore_network(&state, None);
        assert_eq!(rspecs, specs);
        for v in net.variables() {
            assert_eq!(restored.value(v), net.value(v), "{v}");
            assert_eq!(restored.justification(v), net.justification(v), "{v}");
        }
        assert_eq!(restored.n_constraint_slots(), net.n_constraint_slots());
        assert_eq!(
            restored.all_constraints().collect::<Vec<_>>(),
            net.all_constraints().collect::<Vec<_>>(),
        );
        // The restored network still propagates: c = a + b.
        let mut restored = restored;
        restored
            .set(a, Value::Int(10), Justification::User)
            .unwrap();
        assert_eq!(restored.value(c), &Value::Int(15));
    }
}
