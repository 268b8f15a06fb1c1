//! The benchmark's request vocabulary. One [`Op`] list describes a batch
//! once; it is lowered to engine [`Command`]s for the wire and engine
//! rungs and applied directly to a [`Network`] for the core rung, so every
//! rung replays exactly the same work.

use std::rc::Rc;

use stem_core::kinds::{
    AllDiff, DomAdd, DomainConstraint, Equality, Functional, FunctionalOp, PredOp, Predicate,
};
use stem_core::{ConstraintId, ConstraintKind, Justification, Network, Value, VarId, Violation};
use stem_engine::{BatchError, BatchOutcome, Command, ConstraintSpec, Output, Source};

/// Constraint kinds the workloads install.
#[derive(Debug, Clone, Copy)]
pub enum Spec {
    Equality,
    Sum,
    LeConst(i64),
    DomAdd,
    AllDiff,
}

impl Spec {
    fn engine(self) -> ConstraintSpec {
        match self {
            Spec::Equality => ConstraintSpec::Equality,
            Spec::Sum => ConstraintSpec::Sum,
            Spec::LeConst(b) => ConstraintSpec::LeConst(Value::Int(b)),
            Spec::DomAdd => ConstraintSpec::DomAdd {
                views: [(1, 0); 3],
                out: None,
            },
            Spec::AllDiff => ConstraintSpec::DomAllDiff,
        }
    }

    /// The kind the engine's worker would materialise for [`Spec::engine`].
    fn core(self) -> Rc<dyn ConstraintKind> {
        match self {
            Spec::Equality => Rc::new(Equality::new()),
            Spec::Sum => Rc::new(Functional::new(FunctionalOp::Sum)),
            Spec::LeConst(b) => Rc::new(Predicate::new(PredOp::LeConst(Value::Int(b)))),
            Spec::DomAdd => Rc::new(DomainConstraint::new(DomAdd::all())),
            Spec::AllDiff => Rc::new(DomainConstraint::new(AllDiff::new())),
        }
    }
}

/// One command of a batch, with variables and constraints as dense indices.
#[derive(Debug, Clone)]
pub enum Op {
    AddVar(String),
    Set(usize, Value),
    Get(usize),
    Probe(usize, Value),
    Add(Spec, Vec<usize>),
    Remove(usize),
    Enable(usize, bool),
}

fn var(i: usize) -> VarId {
    VarId::from_index(i)
}

fn cid(i: usize) -> ConstraintId {
    ConstraintId::from_index(i)
}

impl Op {
    pub fn command(&self) -> Command {
        match self {
            Op::AddVar(name) => Command::AddVariable { name: name.clone() },
            Op::Set(v, value) => Command::Set {
                var: var(*v),
                value: value.clone(),
                source: Source::User,
            },
            Op::Get(v) => Command::Get { var: var(*v) },
            Op::Probe(v, value) => Command::Probe {
                var: var(*v),
                value: value.clone(),
            },
            Op::Add(spec, args) => Command::AddConstraint {
                spec: spec.engine(),
                args: args.iter().map(|&a| var(a)).collect(),
            },
            Op::Remove(c) => Command::RemoveConstraint {
                constraint: cid(*c),
            },
            Op::Enable(c, enabled) => Command::EnableConstraint {
                constraint: cid(*c),
                enabled: *enabled,
            },
        }
    }

    /// Applies the op the way the engine's worker applies its command
    /// outside a `Set` group.
    fn apply(&self, net: &mut Network) -> Result<Output, Violation> {
        Ok(match self {
            Op::AddVar(name) => Output::Var(net.add_variable(name.clone())),
            Op::Set(v, value) => {
                net.set(var(*v), value.clone(), Justification::User)?;
                Output::Unit
            }
            Op::Get(v) => Output::Value(net.value(var(*v)).clone()),
            Op::Probe(v, value) => Output::Feasible(net.can_be_set_to(var(*v), value.clone())),
            Op::Add(spec, args) => Output::Constraint(
                net.add_constraint_rc(spec.core(), args.iter().map(|&a| var(a)))?,
            ),
            Op::Remove(c) => {
                net.remove_constraint(cid(*c));
                Output::Unit
            }
            Op::Enable(c, enabled) => {
                net.set_constraint_enabled(cid(*c), *enabled);
                Output::Unit
            }
        })
    }
}

pub fn commands(ops: &[Op]) -> Vec<Command> {
    ops.iter().map(Op::command).collect()
}

/// Runs a batch on a local network as one journaled transaction, the
/// engine's default rollback strategy. `Err` carries the violation.
///
/// Like the engine's worker, a thread-enabled network gets each run of
/// consecutive `Set`s as one [`Network::set_all`] group.
pub fn apply_batch(net: &mut Network, ops: &[Op]) -> Result<Vec<Output>, Violation> {
    net.begin_journal();
    let mut outputs = Vec::with_capacity(ops.len());
    let group_sets = net.parallel_threads() > 1;
    let mut i = 0;
    while i < ops.len() {
        let run = if group_sets {
            ops[i..]
                .iter()
                .take_while(|op| matches!(op, Op::Set(..)))
                .count()
        } else {
            0
        };
        let result = if run > 0 {
            let sets = ops[i..i + run]
                .iter()
                .map(|op| match op {
                    Op::Set(v, value) => (var(*v), value.clone(), Justification::User),
                    _ => unreachable!("counted as a Set"),
                })
                .collect();
            outputs.extend(std::iter::repeat_with(|| Output::Unit).take(run));
            i += run;
            net.set_all(sets).map_err(|(_, violation)| violation)
        } else {
            i += 1;
            ops[i - 1].apply(net).map(|out| outputs.push(out))
        };
        if let Err(violation) = result {
            net.rollback_journal();
            return Err(violation);
        }
    }
    net.commit_journal();
    Ok(outputs)
}

/// What a request is, for latency classes and per-class counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// A value write the model expects to commit.
    Write,
    /// `Get`/`Probe` only.
    Read,
    /// A write the model expects a violation to reject.
    Reject,
    /// A structural edit (toggle, add/remove constraint).
    Edit,
}

/// The model's prediction for one batch.
#[derive(Debug, Clone)]
pub enum Expect {
    /// Commits with exactly these outputs.
    Commit(Vec<Output>),
    /// Rolled back by a constraint violation.
    Reject,
}

/// One generated batch with its class and the model's prediction.
#[derive(Debug, Clone)]
pub struct Request {
    pub ops: Vec<Op>,
    pub class: Class,
    pub expect: Expect,
}

impl Request {
    pub fn commit(ops: Vec<Op>, class: Class, outputs: Vec<Output>) -> Request {
        Request {
            ops,
            class,
            expect: Expect::Commit(outputs),
        }
    }

    /// Whether the committed batch is written to the WAL.
    pub fn logged(&self) -> bool {
        matches!(self.expect, Expect::Commit(_))
            && self
                .ops
                .iter()
                .any(|op| !matches!(op, Op::Get(_) | Op::Probe(..)))
    }

    /// Whether an engine outcome is the one the model predicted.
    pub fn check(&self, result: &Result<BatchOutcome, BatchError>) -> bool {
        match (&self.expect, result) {
            (Expect::Commit(want), Ok(outcome)) => outcome.outputs == *want,
            (Expect::Reject, Err(BatchError::Violation { .. })) => true,
            _ => false,
        }
    }

    /// [`Request::check`] for a core-rung outcome.
    pub fn check_local(&self, result: &Result<Vec<Output>, Violation>) -> bool {
        match (&self.expect, result) {
            (Expect::Commit(want), Ok(outputs)) => outputs == want,
            (Expect::Reject, Err(_)) => true,
            _ => false,
        }
    }
}
