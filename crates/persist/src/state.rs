//! Checkpointed session state: everything a worker needs to rebuild a
//! session's `Network` without replaying its whole history.
//!
//! The state is *structural + raw values*, not a serialised `Network`:
//! variables (name, value, justification), the constraint arena including
//! tombstones (so replayed ids line up), and the value-change limit. The
//! restoring worker re-adds the structure with propagation disabled, then
//! stores values and justifications verbatim — identical observable state
//! (values, justifications, violation sweeps) without re-running
//! propagation.

use stem_core::codec::{
    put_bool, put_justification, put_str, put_u32, put_u64, put_u8, put_value, put_var,
    DecodeError, Reader,
};
use stem_core::{ConstraintSpec, Justification, Value};

/// One slot of the constraint arena.
#[derive(Debug, Clone, PartialEq)]
pub enum SlotState {
    /// A live constraint: spec, argument variables, enabled flag.
    Live {
        /// What the constraint does.
        spec: ConstraintSpec,
        /// Its argument variables, by arena index.
        args: Vec<stem_core::VarId>,
        /// Whether it participates in propagation.
        enabled: bool,
    },
    /// A removed constraint; the slot is kept so later ids keep their
    /// positions.
    Tombstone,
}

/// Rebuildable image of one session.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionState {
    /// Per-variable `(name, value, justification)`, in arena order.
    pub vars: Vec<(String, Value, Justification)>,
    /// Constraint arena, in arena order, tombstones included.
    pub slots: Vec<SlotState>,
    /// The session's value-change rule (thesis one-value-change rule when 1).
    pub value_change_limit: u32,
    /// Highest client idempotence key a *successful* batch carried
    /// (`WalRecord::Batch::key`; 0 = none seen). Checkpointing this with
    /// the state lets recovery re-arm duplicate suppression without
    /// replaying history from before the snapshot.
    pub dedup: u64,
}

impl Default for SessionState {
    /// An empty session. The change limit defaults to 1 — the thesis's
    /// one-value-change rule and [`stem_core::Network::new`]'s default —
    /// so a session recovered purely from its log tail (no snapshot)
    /// restores onto a limit a fresh network accepts.
    fn default() -> Self {
        SessionState {
            vars: Vec::new(),
            slots: Vec::new(),
            value_change_limit: 1,
            dedup: 0,
        }
    }
}

impl SessionState {
    /// Appends the state to `buf`.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        put_u32(buf, self.vars.len() as u32);
        for (name, value, just) in &self.vars {
            put_str(buf, name);
            put_value(buf, value);
            put_justification(buf, just);
        }
        put_u32(buf, self.slots.len() as u32);
        for slot in &self.slots {
            match slot {
                SlotState::Tombstone => put_u8(buf, 0),
                SlotState::Live {
                    spec,
                    args,
                    enabled,
                } => {
                    put_u8(buf, 1);
                    spec.encode(buf);
                    put_u32(buf, args.len() as u32);
                    for a in args {
                        put_var(buf, *a);
                    }
                    put_bool(buf, *enabled);
                }
            }
        }
        put_u32(buf, self.value_change_limit);
        put_u64(buf, self.dedup);
    }

    /// Reads a state from `r`.
    pub fn decode(r: &mut Reader<'_>) -> Result<SessionState, DecodeError> {
        let n_vars = r.len()?;
        let mut vars = Vec::with_capacity(n_vars.min(4096));
        for _ in 0..n_vars {
            let name = r.str()?.to_owned();
            let value = r.value()?;
            let just = r.justification()?;
            vars.push((name, value, just));
        }
        let n_slots = r.len()?;
        let mut slots = Vec::with_capacity(n_slots.min(4096));
        for _ in 0..n_slots {
            let at = r.position();
            slots.push(match r.u8()? {
                0 => SlotState::Tombstone,
                1 => {
                    let spec = ConstraintSpec::decode(r)?;
                    let n = r.len()?;
                    let mut args = Vec::with_capacity(n.min(1024));
                    for _ in 0..n {
                        args.push(r.var()?);
                    }
                    let enabled = r.bool()?;
                    SlotState::Live {
                        spec,
                        args,
                        enabled,
                    }
                }
                tag => {
                    return Err(DecodeError::Tag {
                        tag,
                        what: "SlotState",
                        at,
                    })
                }
            });
        }
        let value_change_limit = r.u32()?;
        let dedup = r.u64()?;
        Ok(SessionState {
            vars,
            slots,
            value_change_limit,
            dedup,
        })
    }
}
