//! The wire-level batch vocabulary: commands sent into a session, outputs
//! and errors coming back.
//!
//! Everything here is `Send`: commands cross the thread boundary into the
//! worker that owns the session's [`Network`](stem_core::Network).
//! Constraint behaviour is described by `stem-core`'s [`ConstraintSpec`]
//! (or, for kinds outside that closed set, a [`KindFactory`]) and only
//! materialised into an `Rc<dyn ConstraintKind>` inside the owning worker,
//! because networks — and the kinds they share — are deliberately
//! single-threaded.
//!
//! [`Command::to_persist`] and `From<PersistCommand>` are the only
//! conversions to and from [`PersistCommand`], the replayable subset the
//! write-ahead log and the wire carry.

use std::fmt;
use std::rc::Rc;

use stem_core::{
    ConstraintId, ConstraintKind, ConstraintSpec, Justification, Source, Value, VarId, Violation,
};
use stem_persist::PersistCommand;

/// Factory producing a constraint kind outside the built-in
/// [`ConstraintSpec`] vocabulary, run inside the worker thread that owns
/// the target network. The closure must be `Send`; the kind it builds need
/// not be.
pub struct KindFactory(pub(crate) Box<dyn Fn() -> Rc<dyn ConstraintKind> + Send>);

impl KindFactory {
    /// Wraps a kind-building closure.
    pub fn new(build: impl Fn() -> Rc<dyn ConstraintKind> + Send + 'static) -> Self {
        KindFactory(Box::new(build))
    }
}

impl fmt::Debug for KindFactory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "KindFactory(..)")
    }
}

/// One operation inside a transactional batch.
///
/// Commands referring to variables or constraints may also reference ids
/// created *earlier in the same batch*: ids are allocated sequentially, so
/// a client that knows the session's current `n_variables` can predict
/// them and build create-and-initialise batches that commit atomically.
#[derive(Debug)]
pub enum Command {
    /// Adds a plain variable; replies [`Output::Var`].
    AddVariable {
        /// Display name.
        name: String,
    },
    /// Assigns a value with full propagation; replies [`Output::Unit`].
    Set {
        /// Target variable.
        var: VarId,
        /// New value.
        value: Value,
        /// Claimed provenance.
        source: Source,
    },
    /// Erases a variable to `Nil`/unset without propagation; replies
    /// [`Output::Unit`].
    Unset {
        /// Target variable.
        var: VarId,
    },
    /// Tentative validity probe (`canBeSetTo:`); never mutates; replies
    /// [`Output::Feasible`].
    Probe {
        /// Target variable.
        var: VarId,
        /// Probed value.
        value: Value,
    },
    /// Reads a value; replies [`Output::Value`].
    Get {
        /// Target variable.
        var: VarId,
    },
    /// Installs a constraint over `args` (re-initialising propagation);
    /// replies [`Output::Constraint`].
    AddConstraint {
        /// What the constraint does.
        spec: ConstraintSpec,
        /// Its argument variables.
        args: Vec<VarId>,
    },
    /// Installs a constraint of a kind outside the built-in vocabulary,
    /// built worker-side by `kind`; replies [`Output::Constraint`]. The
    /// factory is process-local code with no byte image, so durable
    /// engines refuse it and it cannot be sent over the wire.
    AddCustomConstraint {
        /// Builds the kind inside the owning worker.
        kind: KindFactory,
        /// Its argument variables.
        args: Vec<VarId>,
    },
    /// Removes a constraint, erasing values it justified; replies
    /// [`Output::Unit`].
    RemoveConstraint {
        /// Target constraint.
        constraint: ConstraintId,
    },
    /// Enables or disables one constraint; replies [`Output::Unit`].
    EnableConstraint {
        /// Target constraint.
        constraint: ConstraintId,
        /// New enabled state.
        enabled: bool,
    },
    /// Enables/disables every constraint of a kind; replies
    /// [`Output::Count`] of toggles.
    SetKindEnabled {
        /// Kind label, e.g. `"equality"`.
        kind_name: String,
        /// New enabled state.
        enabled: bool,
    },
    /// Relaxes/tightens the per-cycle value-change rule (≥ 1); replies
    /// [`Output::Unit`].
    SetValueChangeLimit {
        /// New limit.
        limit: u32,
    },
    /// Dumps `(name, value, justification)` for every variable; replies
    /// [`Output::Dump`]. Allowed on quarantined sessions.
    DumpValues,
    /// Sweeps all constraints for violations; replies
    /// [`Output::Violations`]. Allowed on quarantined sessions.
    CheckAll,
}

impl Command {
    /// Whether the command can change session state at all.
    pub fn is_mutating(&self) -> bool {
        !matches!(
            self,
            Command::Get { .. } | Command::Probe { .. } | Command::DumpValues | Command::CheckAll
        )
    }

    /// The command's log image. `None` for read-only commands (replaying
    /// them would be a no-op) and for [`Command::AddCustomConstraint`],
    /// whose factory has no byte representation.
    pub fn to_persist(&self) -> Option<PersistCommand> {
        Some(match self {
            Command::AddVariable { name } => PersistCommand::AddVariable { name: name.clone() },
            Command::Set { var, value, source } => PersistCommand::Set {
                var: *var,
                value: value.clone(),
                source: *source,
            },
            Command::Unset { var } => PersistCommand::Unset { var: *var },
            Command::AddConstraint { spec, args } => PersistCommand::AddConstraint {
                spec: spec.clone(),
                args: args.clone(),
            },
            Command::RemoveConstraint { constraint } => PersistCommand::RemoveConstraint {
                constraint: *constraint,
            },
            Command::EnableConstraint {
                constraint,
                enabled,
            } => PersistCommand::EnableConstraint {
                constraint: *constraint,
                enabled: *enabled,
            },
            Command::SetKindEnabled { kind_name, enabled } => PersistCommand::SetKindEnabled {
                kind_name: kind_name.clone(),
                enabled: *enabled,
            },
            Command::SetValueChangeLimit { limit } => {
                PersistCommand::SetValueChangeLimit { limit: *limit }
            }
            Command::AddCustomConstraint { .. }
            | Command::Get { .. }
            | Command::Probe { .. }
            | Command::DumpValues
            | Command::CheckAll => return None,
        })
    }
}

/// Replays a logged (or wire-decoded) command.
impl From<PersistCommand> for Command {
    fn from(cmd: PersistCommand) -> Command {
        match cmd {
            PersistCommand::AddVariable { name } => Command::AddVariable { name },
            PersistCommand::Set { var, value, source } => Command::Set { var, value, source },
            PersistCommand::Unset { var } => Command::Unset { var },
            PersistCommand::AddConstraint { spec, args } => Command::AddConstraint { spec, args },
            PersistCommand::RemoveConstraint { constraint } => {
                Command::RemoveConstraint { constraint }
            }
            PersistCommand::EnableConstraint {
                constraint,
                enabled,
            } => Command::EnableConstraint {
                constraint,
                enabled,
            },
            PersistCommand::SetKindEnabled { kind_name, enabled } => {
                Command::SetKindEnabled { kind_name, enabled }
            }
            PersistCommand::SetValueChangeLimit { limit } => Command::SetValueChangeLimit { limit },
        }
    }
}

/// Per-command reply inside a successful [`BatchOutcome`].
#[derive(Debug, Clone, PartialEq)]
pub enum Output {
    /// Command completed with nothing to report.
    Unit,
    /// Id of a variable created by [`Command::AddVariable`].
    Var(VarId),
    /// Id of a constraint created by [`Command::AddConstraint`] or
    /// [`Command::AddCustomConstraint`].
    Constraint(ConstraintId),
    /// Value read by [`Command::Get`].
    Value(Value),
    /// Probe verdict from [`Command::Probe`].
    Feasible(bool),
    /// Count reported by [`Command::SetKindEnabled`].
    Count(usize),
    /// Full value dump from [`Command::DumpValues`].
    Dump(Vec<(String, Value, Justification)>),
    /// Violation sweep from [`Command::CheckAll`].
    Violations(Vec<Violation>),
}

/// Reply to a committed batch.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchOutcome {
    /// One output per command, in order.
    pub outputs: Vec<Output>,
    /// Propagation waves (cycles) the batch ran.
    pub waves: u64,
    /// Variable assignments the batch performed.
    pub assignments: u64,
}

/// Why a batch did not commit. Every error except
/// [`BatchError::Backpressure`] and [`BatchError::Shutdown`] guarantees the
/// session is exactly as it was before the batch.
#[derive(Debug)]
pub enum BatchError {
    /// A command raised a constraint violation (including
    /// `BudgetExceeded` for step-budget aborts); the whole batch rolled
    /// back.
    Violation {
        /// Index of the failing command.
        index: usize,
        /// The violation.
        violation: Violation,
    },
    /// A command was rejected before execution (bad id, zero limit, …);
    /// nothing was applied.
    InvalidCommand {
        /// Index of the offending command.
        index: usize,
        /// Human-readable reason.
        reason: String,
    },
    /// A command panicked; the batch rolled back and the session is now
    /// quarantined ([`crate::Engine::lift_quarantine`] re-admits it).
    Panicked {
        /// Index of the panicking command. On a thread-enabled network a
        /// run of consecutive `Set`s applies as one group, and a panic
        /// inside it reports the run's first index.
        index: usize,
        /// Panic payload rendered to text.
        message: String,
    },
    /// The batch applied cleanly but its write-ahead log record could not
    /// be written (disk full, I/O error); the whole batch rolled back —
    /// an error here means "not committed, not durable", never "committed
    /// but unlogged".
    Persist {
        /// The underlying I/O error, rendered to text.
        message: String,
    },
    /// The session is quarantined after a panic; mutating batches are
    /// refused until the quarantine is lifted.
    Quarantined,
    /// The worker's queue is full (returned by
    /// [`crate::Engine::try_submit`] only — `submit` blocks instead).
    Backpressure,
    /// The engine is shutting down; the batch was not applied.
    Shutdown,
    /// The engine is a read-only replica ([`crate::Engine::replica`]):
    /// mutating batches are refused until [`crate::Engine::promote`]
    /// makes it a leader. Read-only batches are served normally.
    ReadOnlyReplica,
}

impl fmt::Display for BatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BatchError::Violation { index, violation } => {
                write!(f, "batch rolled back at command {index}: {violation}")
            }
            BatchError::InvalidCommand { index, reason } => {
                write!(f, "invalid command {index}: {reason}")
            }
            BatchError::Panicked { index, message } => {
                write!(
                    f,
                    "command {index} panicked ({message}); session quarantined"
                )
            }
            BatchError::Persist { message } => {
                write!(f, "batch rolled back: WAL append failed ({message})")
            }
            BatchError::Quarantined => write!(f, "session is quarantined"),
            BatchError::Backpressure => write!(f, "worker queue is full"),
            BatchError::Shutdown => write!(f, "engine is shutting down"),
            BatchError::ReadOnlyReplica => {
                write!(f, "engine is a read-only replica; mutating batch refused")
            }
        }
    }
}

impl std::error::Error for BatchError {}
