//! The persisted commands: the mutating, replayable subset of the engine's
//! batch commands, over `stem-core`'s shared [`ConstraintSpec`] and
//! [`Source`]. A log holds only what changes state and replays: read-only
//! commands are never logged, and custom constraint kinds (closures with
//! no byte image) have no variant here.

use stem_core::codec::{
    put_bool, put_cid, put_str, put_u32, put_u8, put_value, put_var, DecodeError, Reader,
};
use stem_core::{ConstraintId, ConstraintSpec, Source, Value, VarId};

/// One mutating command of a committed batch, as stored in the log.
///
/// Read-only commands (`Get`, `Probe`, `DumpValues`, `CheckAll`) are never
/// logged: replaying them would be a no-op, and a batch with no mutating
/// command writes no record at all.
#[derive(Debug, Clone, PartialEq)]
pub enum PersistCommand {
    /// Adds a plain variable.
    AddVariable {
        /// Display name.
        name: String,
    },
    /// Assigns a value with full propagation.
    Set {
        /// Target variable.
        var: VarId,
        /// New value.
        value: Value,
        /// Claimed provenance.
        source: Source,
    },
    /// Erases a variable to `Nil`/unset without propagation.
    Unset {
        /// Target variable.
        var: VarId,
    },
    /// Installs a constraint over `args`.
    AddConstraint {
        /// What the constraint does.
        spec: ConstraintSpec,
        /// Its argument variables.
        args: Vec<VarId>,
    },
    /// Removes a constraint.
    RemoveConstraint {
        /// Target constraint.
        constraint: ConstraintId,
    },
    /// Enables or disables one constraint.
    EnableConstraint {
        /// Target constraint.
        constraint: ConstraintId,
        /// New enabled state.
        enabled: bool,
    },
    /// Enables/disables every constraint of a kind.
    SetKindEnabled {
        /// Kind label, e.g. `"equality"`.
        kind_name: String,
        /// New enabled state.
        enabled: bool,
    },
    /// Relaxes/tightens the per-cycle value-change rule.
    SetValueChangeLimit {
        /// New limit.
        limit: u32,
    },
}

impl PersistCommand {
    /// Appends the command to `buf`.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            PersistCommand::AddVariable { name } => {
                put_u8(buf, 0);
                put_str(buf, name);
            }
            PersistCommand::Set { var, value, source } => {
                put_u8(buf, 1);
                put_var(buf, *var);
                put_value(buf, value);
                source.encode(buf);
            }
            PersistCommand::Unset { var } => {
                put_u8(buf, 2);
                put_var(buf, *var);
            }
            PersistCommand::AddConstraint { spec, args } => {
                put_u8(buf, 3);
                spec.encode(buf);
                put_u32(buf, args.len() as u32);
                for a in args {
                    put_var(buf, *a);
                }
            }
            PersistCommand::RemoveConstraint { constraint } => {
                put_u8(buf, 4);
                put_cid(buf, *constraint);
            }
            PersistCommand::EnableConstraint {
                constraint,
                enabled,
            } => {
                put_u8(buf, 5);
                put_cid(buf, *constraint);
                put_bool(buf, *enabled);
            }
            PersistCommand::SetKindEnabled { kind_name, enabled } => {
                put_u8(buf, 6);
                put_str(buf, kind_name);
                put_bool(buf, *enabled);
            }
            PersistCommand::SetValueChangeLimit { limit } => {
                put_u8(buf, 7);
                put_u32(buf, *limit);
            }
        }
    }

    /// Reads a command from `r`.
    pub fn decode(r: &mut Reader<'_>) -> Result<PersistCommand, DecodeError> {
        let at = r.position();
        Ok(match r.u8()? {
            0 => PersistCommand::AddVariable {
                name: r.str()?.to_owned(),
            },
            1 => PersistCommand::Set {
                var: r.var()?,
                value: r.value()?,
                source: Source::decode(r)?,
            },
            2 => PersistCommand::Unset { var: r.var()? },
            3 => {
                let spec = ConstraintSpec::decode(r)?;
                let n = r.len()?;
                let mut args = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    args.push(r.var()?);
                }
                PersistCommand::AddConstraint { spec, args }
            }
            4 => PersistCommand::RemoveConstraint {
                constraint: r.cid()?,
            },
            5 => PersistCommand::EnableConstraint {
                constraint: r.cid()?,
                enabled: r.bool()?,
            },
            6 => PersistCommand::SetKindEnabled {
                kind_name: r.str()?.to_owned(),
                enabled: r.bool()?,
            },
            7 => PersistCommand::SetValueChangeLimit { limit: r.u32()? },
            tag => {
                return Err(DecodeError::Tag {
                    tag,
                    what: "PersistCommand",
                    at,
                })
            }
        })
    }
}
