//! The three workloads: their engine settings, the networks they build,
//! and seeded request generators that carry the benchmark's own model of
//! every value, so each reply can be checked as it arrives.
//!
//! A generator advances its model when it emits a request, assuming the
//! prediction it attached holds; the timed loop then fails the run on any
//! reply that differs. Generation happens before the timed loop needs the
//! request, so the model costs the measured path nothing but a lookup.

use stem_core::prng::SplitMix64;
use stem_core::{ConstraintId, FinSet, Interval, Value, VarId};
use stem_engine::Output;

use crate::ops::{Class, Expect, Op, Request, Spec};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SpineVolatile,
    SpineDurable,
    DesignMix,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::SpineVolatile,
        Workload::SpineDurable,
        Workload::DesignMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SpineVolatile => "spine_volatile",
            Workload::SpineDurable => "spine_durable",
            Workload::DesignMix => "design_mix",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Connections (one session and one client thread each).
    pub fn sessions(self) -> usize {
        match self {
            Workload::SpineDurable => 2,
            _ => 1,
        }
    }

    /// Batches each connection keeps outstanding: it submits this many,
    /// drains them all, and only then sends the next burst (closed loop).
    pub fn window(self) -> usize {
        match self {
            Workload::SpineDurable => 4,
            _ => 1,
        }
    }

    pub fn durable(self) -> bool {
        self == Workload::SpineDurable
    }

    pub fn propagation_threads(self) -> usize {
        match self {
            Workload::DesignMix => 2,
            _ => 1,
        }
    }

    /// Length of one round of the timed phase. Each round runs in a child
    /// process of its own with a fresh server, so the process (memory
    /// layout, the core's replay pool) and the placement of the server's
    /// threads on the host's CPUs are drawn anew; the median over rounds
    /// keeps one unlucky draw from moving the result. Durable rounds are
    /// longer, so that their automatic checkpoint stalls fall in few of
    /// the round's windows.
    pub fn round_s(self) -> f64 {
        match self {
            Workload::SpineDurable => 4.0,
            _ => 2.0,
        }
    }

    /// Set-ups per run, at least: the reported `setup_s` is their median.
    /// A spine set-up takes one to three milliseconds, so it takes many.
    pub fn setups(self) -> usize {
        match self {
            Workload::DesignMix => 30,
            _ => 200,
        }
    }

    pub fn generator(self, seed: u64, session: usize) -> Box<dyn Generator> {
        let salt = (session as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let rng = SplitMix64::new(seed ^ salt);
        match self {
            Workload::SpineVolatile | Workload::SpineDurable => Box::new(Spine::new(rng)),
            Workload::DesignMix => Box::new(DesignMix::new(rng)),
        }
    }
}

/// A per-session request stream with its model.
pub trait Generator: Send {
    /// Batches that build the network and warm every root's plan, in order.
    fn setup(&mut self) -> Vec<Request>;
    /// The next request of the timed phase.
    fn next(&mut self) -> Request;
    /// Request `k` of the side phase that follows the timed one, or
    /// `None` when the workload has none. The benchmark contract asks
    /// every workload for every end-to-end metric; a workload whose timed
    /// stream holds only writes takes its read, reject and edit latencies
    /// from this short fixed sequence instead of mixing them into the
    /// stream it is meant to time.
    fn side(&mut self, _k: usize) -> Option<Request> {
        None
    }
    /// A read-only batch that checks the state the model holds now.
    fn final_read(&self) -> Request;
}

fn var_out(i: usize) -> Output {
    Output::Var(VarId::from_index(i))
}

fn cons_out(i: usize) -> Output {
    Output::Constraint(ConstraintId::from_index(i))
}

/// Accumulates a construction batch and the outputs it must produce.
#[derive(Default)]
struct Draft {
    ops: Vec<Op>,
    outputs: Vec<Output>,
    vars: usize,
    constraints: usize,
}

impl Draft {
    fn var(&mut self, name: String) -> usize {
        self.ops.push(Op::AddVar(name));
        self.outputs.push(var_out(self.vars));
        self.vars += 1;
        self.vars - 1
    }

    fn constraint(&mut self, spec: Spec, args: Vec<usize>) -> usize {
        self.ops.push(Op::Add(spec, args));
        self.outputs.push(cons_out(self.constraints));
        self.constraints += 1;
        self.constraints - 1
    }

    fn set(&mut self, var: usize, value: Value) {
        self.ops.push(Op::Set(var, value));
        self.outputs.push(Output::Unit);
    }

    fn take(&mut self) -> Request {
        Request::commit(
            std::mem::take(&mut self.ops),
            Class::Edit,
            std::mem::take(&mut self.outputs),
        )
    }
}

fn int(v: i64) -> Value {
    Value::Int(v)
}

// ---------------------------------------------------------------------
// spine: ROADMAP's chain-100 `Set` spine
// ---------------------------------------------------------------------

const CHAIN: usize = 100;
const HEAD: usize = 0;
const TAIL: usize = CHAIN - 1;
/// The side pair, outside the head's cone.
const SIDE0: usize = CHAIN;
const SIDE1: usize = CHAIN + 1;
/// Budget on `side0`: every side write above it is rejected.
const SIDE_LIMIT: i64 = 1 << 40;

/// ROADMAP's chain-100 spine: 99 equalities from head to tail. The timed
/// stream writes a fresh head value every request. Beside the chain sits
/// a side pair `side0 = side1` with a `LeConst` budget on `side0`, used
/// only by the side phase (see [`Generator::side`]).
struct Spine {
    head: i64,
    side_eq: usize,
    side_on: bool,
    rng: SplitMix64,
}

impl Spine {
    fn new(rng: SplitMix64) -> Spine {
        Spine {
            head: 0,
            side_eq: 0,
            side_on: true,
            rng,
        }
    }

    /// Head, tail, and `side0`, which no side write ever changes.
    fn read(&self) -> Request {
        let v = int(self.head);
        Request::commit(
            vec![Op::Get(HEAD), Op::Get(TAIL), Op::Get(SIDE0)],
            Class::Read,
            vec![
                Output::Value(v.clone()),
                Output::Value(v),
                Output::Value(int(0)),
            ],
        )
    }
}

impl Generator for Spine {
    fn setup(&mut self) -> Vec<Request> {
        let mut b = Draft::default();
        for i in 0..CHAIN {
            b.var(format!("v{i}"));
        }
        b.var("side0".into());
        b.var("side1".into());
        for i in 0..CHAIN - 1 {
            b.constraint(Spec::Equality, vec![i, i + 1]);
        }
        self.side_eq = b.constraint(Spec::Equality, vec![SIDE0, SIDE1]);
        b.constraint(Spec::LeConst(SIDE_LIMIT), vec![SIDE0]);
        b.set(SIDE0, int(0));
        let build = b.take();
        let warm = Request::commit(
            vec![Op::Set(HEAD, int(0))],
            Class::Write,
            vec![Output::Unit],
        );
        vec![build, warm, self.read()]
    }

    fn final_read(&self) -> Request {
        self.read()
    }

    /// A head write, distinct from every earlier one.
    fn next(&mut self) -> Request {
        self.head += self.rng.range_i64(1, 1 << 10);
        Request::commit(
            vec![Op::Set(HEAD, int(self.head))],
            Class::Write,
            vec![Output::Unit],
        )
    }

    /// Read, reject, edit in turn: a read of head, tail and `side0`, a
    /// `side0` write over its budget (rolled back; the next read checks
    /// `side0` kept its value), and a toggle of the side equality.
    fn side(&mut self, k: usize) -> Option<Request> {
        Some(match k % 3 {
            0 => self.read(),
            1 => {
                let bad = SIDE_LIMIT + self.rng.range_i64(1, 1 << 20);
                Request {
                    ops: vec![Op::Set(SIDE0, int(bad))],
                    class: Class::Reject,
                    expect: Expect::Reject,
                }
            }
            _ => {
                self.side_on = !self.side_on;
                Request::commit(
                    vec![Op::Enable(self.side_eq, self.side_on)],
                    Class::Edit,
                    vec![Output::Unit],
                )
            }
        })
    }
}

// ---------------------------------------------------------------------
// design_mix: timing checking (thesis ch. 7) plus a domain sub-network
// (ch. 8)
// ---------------------------------------------------------------------

/// Timing paths.
const PATHS: usize = 6;
/// Gate stages per path. A corner write re-times every path; its plan
/// splits into one cone per path of STAGES + 1 steps, which must clear
/// the engine's 128-step per-task floor for cone-parallel replay to
/// engage.
const STAGES: usize = 136;
const GATE_MAX: i64 = 20;
const CORNER_MAX: i64 = 5;
/// Per-path timing budget: any gate delays in 1..=GATE_MAX under any
/// corner in 0..=CORNER_MAX meet it, so only deliberate over-budget
/// writes violate.
const BUDGET: i64 = GATE_MAX * STAGES as i64 + CORNER_MAX;
const AREA_BUDGET: i64 = 100;
const SLOTS: usize = 4;
/// Finite-set slot values {0..7}.
const FULL: u64 = 0xFF;
const X0: (i64, i64) = (0, 1000);
const Y0: (i64, i64) = (0, 1000);
const Z_WIDE: (i64, i64) = (-100_000, 100_000);

fn iv((lo, hi): (i64, i64)) -> Value {
    Value::Interval(Interval::new(lo, hi))
}

fn fs(bits: u64) -> Value {
    Value::FinSet(FinSet::new(bits))
}

/// K timing paths of L gate stages. Gate `(p, j)` has a delay `g` and an
/// arrival `a = a(j-1) + g`; the process corner is the launch offset of
/// every path (`a(0) = corner + g(0)`), and each path's last arrival
/// carries a `LeConst` budget. The corner enters each path once: fed into
/// every stage, its cone would reconverge, which makes it multi-writer
/// and uncompilable, and the corner write would run on the agenda.
/// Beside the paths: `x + y = z` over intervals (all-ways `DomAdd`, which
/// the core runs on the agenda), an all-different over four finite-set
/// slots, and an area check whose toggles are edits outside every timing
/// cone — so edits never evict the corner's or the gates' plans.
struct DesignMix {
    rng: SplitMix64,
    corner: i64,
    gates: Vec<i64>,
    x: (i64, i64),
    y: (i64, i64),
    pins: [Option<u8>; SLOTS],
    area_on: bool,
    domadd: usize,
    alldiff: usize,
    area_check: usize,
    next_constraint: usize,
}

const CORNER: usize = 0;
/// The delay variable of gate `(p, j)`; its arrival is the next index.
const fn gate(p: usize, j: usize) -> usize {
    1 + 2 * (p * STAGES + j)
}
const fn arrival(p: usize, j: usize) -> usize {
    gate(p, j) + 1
}
const DOM: usize = 1 + 2 * PATHS * STAGES;
const X: usize = DOM;
const Y: usize = DOM + 1;
const Z: usize = DOM + 2;
const SLOT0: usize = DOM + 3;
const AREA: usize = SLOT0 + SLOTS;

impl DesignMix {
    fn new(rng: SplitMix64) -> DesignMix {
        DesignMix {
            rng,
            corner: 0,
            gates: vec![0; PATHS * STAGES],
            x: X0,
            y: Y0,
            pins: [None; SLOTS],
            area_on: true,
            domadd: 0,
            alldiff: 0,
            area_check: 0,
            next_constraint: 0,
        }
    }

    fn g(&self, p: usize, j: usize) -> i64 {
        self.gates[p * STAGES + j]
    }

    /// Arrival at stage `j` of path `p`.
    fn arrival(&self, p: usize, j: usize) -> i64 {
        self.corner + (0..=j).map(|k| self.g(p, k)).sum::<i64>()
    }

    fn total(&self, p: usize) -> i64 {
        self.arrival(p, STAGES - 1)
    }

    fn max_total(&self) -> i64 {
        (0..PATHS).map(|p| self.total(p)).max().unwrap_or(0)
    }

    fn pick_gate(&mut self) -> (usize, usize) {
        (
            self.rng.range_usize(0, PATHS),
            self.rng.range_usize(0, STAGES),
        )
    }

    /// A gate delay in range that differs from the current one.
    fn fresh_gate(&mut self, p: usize, j: usize) -> i64 {
        let cur = self.g(p, j);
        let v = self.rng.range_i64(1, GATE_MAX);
        if v >= cur {
            v + 1
        } else {
            v
        }
    }

    fn fresh_corner(&mut self) -> i64 {
        let v = self.rng.range_i64(0, CORNER_MAX);
        if v >= self.corner {
            v + 1
        } else {
            v
        }
    }

    /// A delay for gate `(p, j)` that pushes its path over budget.
    fn over_gate(&mut self, p: usize, j: usize) -> i64 {
        self.g(p, j) + (BUDGET - self.total(p)) + 1 + self.rng.range_i64(0, 50)
    }

    /// A corner that pushes the slowest path over budget.
    fn over_corner(&mut self) -> i64 {
        self.corner + (BUDGET - self.max_total()) + 1 + self.rng.range_i64(0, 50)
    }

    fn z(&self) -> (i64, i64) {
        (self.x.0 + self.y.0, self.x.1 + self.y.1)
    }

    fn slot_value(&self, i: usize) -> Value {
        match self.pins[i] {
            Some(v) => fs(1 << v),
            None => {
                let pinned = self.pins.iter().flatten().fold(0u64, |m, &v| m | 1 << v);
                fs(FULL & !pinned)
            }
        }
    }

    fn write(&mut self, op: Op) -> Request {
        Request::commit(vec![op], Class::Write, vec![Output::Unit])
    }

    fn reject(op: Op) -> Request {
        Request {
            ops: vec![op],
            class: Class::Reject,
            expect: Expect::Reject,
        }
    }

    fn get(&mut self) -> Request {
        let (p, j) = self.pick_gate();
        let (var, value) = match self.rng.range_usize(0, 8) {
            0..=4 => (arrival(p, j), int(self.arrival(p, j))),
            5 => (Z, iv(self.z())),
            6 => (X, iv(self.x)),
            _ => {
                let i = self.rng.range_usize(0, SLOTS);
                (SLOT0 + i, self.slot_value(i))
            }
        };
        Request::commit(vec![Op::Get(var)], Class::Read, vec![Output::Value(value)])
    }

    fn probe(&mut self) -> Request {
        let (var, value, feasible) = match self.rng.range_usize(0, 4) {
            0 => {
                let (p, j) = self.pick_gate();
                (gate(p, j), self.fresh_gate(p, j), true)
            }
            1 => {
                let (p, j) = self.pick_gate();
                (gate(p, j), self.over_gate(p, j), false)
            }
            2 => (CORNER, self.fresh_corner(), true),
            _ => (CORNER, self.over_corner(), false),
        };
        Request::commit(
            vec![Op::Probe(var, int(value))],
            Class::Read,
            vec![Output::Feasible(feasible)],
        )
    }

    /// Narrows `x` or `y` strictly; `z` follows as `x + y`.
    fn narrow_interval(&mut self) -> Option<Request> {
        let pick_x = self.rng.range_usize(0, 2) == 0;
        let (var, cur) = match (pick_x, self.x.0 < self.x.1, self.y.0 < self.y.1) {
            (true, true, _) | (false, true, false) => (X, self.x),
            (_, _, true) => (Y, self.y),
            _ => return None,
        };
        let width = cur.1 - cur.0;
        let cut = self.rng.range_i64(1, width.min(64) + 1);
        let low = self.rng.range_i64(0, cut + 1);
        let next = (cur.0 + low, cur.1 - (cut - low));
        if var == X {
            self.x = next;
        } else {
            self.y = next;
        }
        Some(self.write(Op::Set(var, iv(next))))
    }

    /// Pins one free slot to a value no other slot holds.
    fn narrow_slot(&mut self) -> Option<Request> {
        let free: Vec<usize> = (0..SLOTS).filter(|&i| self.pins[i].is_none()).collect();
        if free.len() < 2 {
            return None;
        }
        let slot = free[self.rng.range_usize(0, free.len())];
        let taken = self.pins.iter().flatten().fold(0u64, |m, &v| m | 1 << v);
        let open: Vec<u8> = (0..8u8).filter(|v| taken & (1 << v) == 0).collect();
        let v = open[self.rng.range_usize(0, open.len())];
        self.pins[slot] = Some(v);
        Some(self.write(Op::Set(SLOT0 + slot, fs(1 << v))))
    }

    /// Removes `x + y = z`, restores wide intervals and re-adds it.
    fn reset_interval(&mut self) -> Request {
        let old = self.domadd;
        self.domadd = self.next_constraint;
        self.next_constraint += 1;
        self.x = X0;
        self.y = Y0;
        Request::commit(
            vec![
                Op::Remove(old),
                Op::Set(X, iv(X0)),
                Op::Set(Y, iv(Y0)),
                Op::Set(Z, iv(Z_WIDE)),
                Op::Add(Spec::DomAdd, vec![X, Y, Z]),
            ],
            Class::Edit,
            vec![
                Output::Unit,
                Output::Unit,
                Output::Unit,
                Output::Unit,
                cons_out(self.domadd),
            ],
        )
    }

    /// Removes the all-different, frees every slot and re-adds it.
    fn reset_slots(&mut self) -> Request {
        let old = self.alldiff;
        self.alldiff = self.next_constraint;
        self.next_constraint += 1;
        self.pins = [None; SLOTS];
        let mut ops = vec![Op::Remove(old)];
        ops.extend((0..SLOTS).map(|i| Op::Set(SLOT0 + i, fs(FULL))));
        ops.push(Op::Add(Spec::AllDiff, (SLOT0..SLOT0 + SLOTS).collect()));
        let mut outputs = vec![Output::Unit; SLOTS + 1];
        outputs.push(cons_out(self.alldiff));
        Request::commit(ops, Class::Edit, outputs)
    }
}

impl Generator for DesignMix {
    fn setup(&mut self) -> Vec<Request> {
        let mut b = Draft::default();
        let corner = b.var("corner".into());
        debug_assert_eq!(corner, CORNER);
        for p in 0..PATHS {
            for j in 0..STAGES {
                b.var(format!("g{p}_{j}"));
                b.var(format!("a{p}_{j}"));
            }
        }
        for name in ["x", "y", "z"] {
            b.var(name.into());
        }
        for i in 0..SLOTS {
            b.var(format!("slot{i}"));
        }
        b.var("area".into());
        for p in 0..PATHS {
            for j in 0..STAGES {
                let prev = if j == 0 { CORNER } else { arrival(p, j - 1) };
                b.constraint(Spec::Sum, vec![prev, gate(p, j), arrival(p, j)]);
            }
            b.constraint(Spec::LeConst(BUDGET), vec![arrival(p, STAGES - 1)]);
        }
        self.area_check = b.constraint(Spec::LeConst(AREA_BUDGET), vec![AREA]);
        let mut out = vec![b.take()];

        // Warm-up: one write per root, in path order, so every gate's
        // plan and the corner's are compiled before timing starts.
        self.corner = self.rng.range_i64(0, CORNER_MAX + 1);
        out.push(self.write(Op::Set(CORNER, int(self.corner))));
        for p in 0..PATHS {
            for j in 0..STAGES {
                let v = self.rng.range_i64(1, GATE_MAX + 1);
                self.gates[p * STAGES + j] = v;
                out.push(self.write(Op::Set(gate(p, j), int(v))));
            }
        }
        self.corner = self.fresh_corner();
        out.push(self.write(Op::Set(CORNER, int(self.corner))));

        b.set(AREA, int(AREA_BUDGET / 2));
        b.set(X, iv(X0));
        b.set(Y, iv(Y0));
        b.set(Z, iv(Z_WIDE));
        self.domadd = b.constraint(Spec::DomAdd, vec![X, Y, Z]);
        for i in 0..SLOTS {
            b.set(SLOT0 + i, fs(FULL));
        }
        self.alldiff = b.constraint(Spec::AllDiff, (SLOT0..SLOT0 + SLOTS).collect());
        self.next_constraint = b.constraints;
        out.push(b.take());

        out.push(self.final_read());
        out
    }

    fn final_read(&self) -> Request {
        let mut ops: Vec<Op> = (0..PATHS)
            .map(|p| Op::Get(arrival(p, STAGES - 1)))
            .collect();
        let mut outputs: Vec<Output> = (0..PATHS)
            .map(|p| Output::Value(int(self.total(p))))
            .collect();
        ops.extend([Op::Get(X), Op::Get(Y), Op::Get(Z)]);
        outputs.extend([self.x, self.y, self.z()].map(|i| Output::Value(iv(i))));
        for i in 0..SLOTS {
            ops.push(Op::Get(SLOT0 + i));
            outputs.push(Output::Value(self.slot_value(i)));
        }
        Request::commit(ops, Class::Read, outputs)
    }

    fn next(&mut self) -> Request {
        match self.rng.range_usize(0, 100) {
            0..=27 => {
                let (p, j) = self.pick_gate();
                let v = self.fresh_gate(p, j);
                self.gates[p * STAGES + j] = v;
                self.write(Op::Set(gate(p, j), int(v)))
            }
            28..=35 => {
                self.corner = self.fresh_corner();
                self.write(Op::Set(CORNER, int(self.corner)))
            }
            36..=45 => self.get(),
            46..=55 => self.probe(),
            56..=63 => {
                let (p, j) = self.pick_gate();
                let v = self.over_gate(p, j);
                Self::reject(Op::Set(gate(p, j), int(v)))
            }
            64..=65 => {
                let v = self.over_corner();
                Self::reject(Op::Set(CORNER, int(v)))
            }
            66..=74 => self
                .narrow_interval()
                .unwrap_or_else(|| self.reset_interval()),
            75..=83 => self.narrow_slot().unwrap_or_else(|| self.reset_slots()),
            84..=89 => {
                self.area_on = !self.area_on;
                Request::commit(
                    vec![Op::Enable(self.area_check, self.area_on)],
                    Class::Edit,
                    vec![Output::Unit],
                )
            }
            90..=94 => self.reset_interval(),
            _ => self.reset_slots(),
        }
    }
}
