//! The closed command vocabulary every layer above the network shares,
//! declared once with its byte encoding: [`ConstraintSpec`], a `Send`
//! description of a built-in constraint kind, and [`Source`], the
//! provenance a client may claim. The engine, the write-ahead log, the
//! checkpoints and the wire all carry these same values.

use std::rc::Rc;

use crate::codec::{put_f64, put_i64, put_u8, put_value, DecodeError, Reader};
use crate::kinds::{
    AllDiff, DomAdd, DomLe, DomReifLe, DomainConstraint, Equality, Functional, FunctionalOp,
    PredOp, Predicate,
};
use crate::{ConstraintKind, Justification, Value, View};

/// A `Send` description of one of the built-in constraint kinds,
/// materialised by [`ConstraintSpec::build`] where the network lives.
/// Kinds outside this closed set have no byte representation, so they
/// cannot be logged or sent over the wire.
#[derive(Debug, Clone, PartialEq)]
pub enum ConstraintSpec {
    /// All arguments equal ([`Equality`]).
    Equality,
    /// Last argument = sum of the others ([`Functional`] `Sum`).
    Sum,
    /// Last argument = max of the others.
    Max,
    /// Last argument = min of the others.
    Min,
    /// Last argument = product of the others.
    Product,
    /// Last argument = `gain * first + offset`.
    Scale {
        /// Multiplier.
        gain: f64,
        /// Addend.
        offset: f64,
    },
    /// Check-only predicate: every argument ≤ the bound.
    LeConst(Value),
    /// Check-only predicate: every argument ≥ the bound.
    GeConst(Value),
    /// Check-only predicate: every argument = the constant.
    EqConst(Value),
    /// Check-only predicate: `args[0] ≤ args[1]`.
    Le,
    /// Check-only predicate: `args[0] < args[1]`.
    Lt,
    /// Bounds-consistent domain relation `v0(x) + v1(y) = v2(z)` over
    /// affine views `(a, b) ↦ a·x + b` ([`DomAdd`]); `out == None`
    /// propagates all three ways, `Some(i)` only narrows argument `i`.
    DomAdd {
        /// Per-argument affine views `(a, b)`; `a == 0` is sanitised to 1.
        views: [(i64, i64); 3],
        /// Directional output argument, when restricted.
        out: Option<u8>,
    },
    /// Bounds-consistent domain relation `v0(x) ≤ v1(y) + c` ([`DomLe`]).
    DomLe {
        /// The offset `c`.
        c: i64,
        /// Per-argument affine views `(a, b)`; `a == 0` is sanitised to 1.
        views: [(i64, i64); 2],
        /// Directional output argument, when restricted.
        out: Option<u8>,
    },
    /// All arguments pairwise distinct ([`AllDiff`], bounds reasoning).
    DomAllDiff,
    /// Reified inequality `args[0] ⇔ (v0(args[1]) ≤ v1(args[2]) + c)`
    /// ([`DomReifLe`]).
    DomReifLe {
        /// The offset `c`.
        c: i64,
        /// Affine views over `args[1]`/`args[2]`.
        views: [(i64, i64); 2],
    },
}

/// Converts wire-level view pairs into [`View`]s, sanitising the (never
/// legitimately produced, but representable in corrupt or hostile bytes)
/// zero coefficient to the identity scale instead of panicking worker-side.
fn views<const N: usize>(pairs: &[(i64, i64); N]) -> [View; N] {
    pairs.map(|(a, b)| View::new(if a == 0 { 1 } else { a }, b))
}

impl ConstraintSpec {
    /// Materialises the kind. Call [`ConstraintSpec::check_args`] first:
    /// a directional `out` past the arity panics here.
    pub fn build(&self) -> Rc<dyn ConstraintKind> {
        match self {
            ConstraintSpec::Equality => Rc::new(Equality::new()),
            ConstraintSpec::Sum => Rc::new(Functional::new(FunctionalOp::Sum)),
            ConstraintSpec::Max => Rc::new(Functional::new(FunctionalOp::Max)),
            ConstraintSpec::Min => Rc::new(Functional::new(FunctionalOp::Min)),
            ConstraintSpec::Product => Rc::new(Functional::new(FunctionalOp::Product)),
            ConstraintSpec::Scale { gain, offset } => {
                Rc::new(Functional::new(FunctionalOp::Scale {
                    gain: *gain,
                    offset: *offset,
                }))
            }
            ConstraintSpec::LeConst(v) => Rc::new(Predicate::new(PredOp::LeConst(v.clone()))),
            ConstraintSpec::GeConst(v) => Rc::new(Predicate::new(PredOp::GeConst(v.clone()))),
            ConstraintSpec::EqConst(v) => Rc::new(Predicate::new(PredOp::EqConst(v.clone()))),
            ConstraintSpec::Le => Rc::new(Predicate::new(PredOp::Le)),
            ConstraintSpec::Lt => Rc::new(Predicate::new(PredOp::Lt)),
            ConstraintSpec::DomAdd { views: v, out } => Rc::new(DomainConstraint::new(match out {
                Some(o) => DomAdd::with_views(views(v), usize::from(*o)),
                None => DomAdd::all_views(views(v)),
            })),
            ConstraintSpec::DomLe { c, views: v, out } => Rc::new(DomainConstraint::new(
                DomLe::with_views(*c, views(v), out.map(usize::from)),
            )),
            ConstraintSpec::DomAllDiff => Rc::new(DomainConstraint::new(AllDiff::new())),
            ConstraintSpec::DomReifLe { c, views: v } => {
                Rc::new(DomainConstraint::new(DomReifLe::with_views(*c, views(v))))
            }
        }
    }

    /// Whether the spec fits `n_args` arguments. The domain relations have
    /// a fixed arity — `DomAdd` and `DomReifLe` take exactly 3 arguments,
    /// `DomLe` exactly 2 — and a directional `out` must name one of them;
    /// every other kind takes any argument count. The codec accepts every
    /// `out` byte, so callers holding untrusted specs check before
    /// [`ConstraintSpec::build`].
    pub fn check_args(&self, n_args: usize) -> Result<(), String> {
        let (name, arity, out) = match self {
            ConstraintSpec::DomAdd { out, .. } => ("DomAdd", 3, *out),
            ConstraintSpec::DomLe { out, .. } => ("DomLe", 2, *out),
            ConstraintSpec::DomReifLe { .. } => ("DomReifLe", 3, None),
            _ => return Ok(()),
        };
        match out {
            _ if n_args != arity => Err(format!("{name} takes {arity} arguments, got {n_args}")),
            Some(o) if usize::from(o) >= arity => Err(format!("{name} output {o} is out of range")),
            _ => Ok(()),
        }
    }

    /// Appends the spec to `buf`.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            ConstraintSpec::Equality => put_u8(buf, 0),
            ConstraintSpec::Sum => put_u8(buf, 1),
            ConstraintSpec::Max => put_u8(buf, 2),
            ConstraintSpec::Min => put_u8(buf, 3),
            ConstraintSpec::Product => put_u8(buf, 4),
            ConstraintSpec::Scale { gain, offset } => {
                put_u8(buf, 5);
                put_f64(buf, *gain);
                put_f64(buf, *offset);
            }
            ConstraintSpec::LeConst(v) => {
                put_u8(buf, 6);
                put_value(buf, v);
            }
            ConstraintSpec::GeConst(v) => {
                put_u8(buf, 7);
                put_value(buf, v);
            }
            ConstraintSpec::EqConst(v) => {
                put_u8(buf, 8);
                put_value(buf, v);
            }
            ConstraintSpec::Le => put_u8(buf, 9),
            ConstraintSpec::Lt => put_u8(buf, 10),
            ConstraintSpec::DomAdd { views, out } => {
                put_u8(buf, 11);
                for (a, b) in views {
                    put_i64(buf, *a);
                    put_i64(buf, *b);
                }
                // 255 = non-directional, mirroring the kind's `OUT_ALL`
                // (arity is bounded well below it).
                put_u8(buf, out.unwrap_or(u8::MAX));
            }
            ConstraintSpec::DomLe { c, views, out } => {
                put_u8(buf, 12);
                put_i64(buf, *c);
                for (a, b) in views {
                    put_i64(buf, *a);
                    put_i64(buf, *b);
                }
                put_u8(buf, out.unwrap_or(u8::MAX));
            }
            ConstraintSpec::DomAllDiff => put_u8(buf, 13),
            ConstraintSpec::DomReifLe { c, views } => {
                put_u8(buf, 14);
                put_i64(buf, *c);
                for (a, b) in views {
                    put_i64(buf, *a);
                    put_i64(buf, *b);
                }
            }
        }
    }

    /// Reads a spec from `r`.
    pub fn decode(r: &mut Reader<'_>) -> Result<ConstraintSpec, DecodeError> {
        let at = r.position();
        Ok(match r.u8()? {
            0 => ConstraintSpec::Equality,
            1 => ConstraintSpec::Sum,
            2 => ConstraintSpec::Max,
            3 => ConstraintSpec::Min,
            4 => ConstraintSpec::Product,
            5 => ConstraintSpec::Scale {
                gain: r.f64()?,
                offset: r.f64()?,
            },
            6 => ConstraintSpec::LeConst(r.value()?),
            7 => ConstraintSpec::GeConst(r.value()?),
            8 => ConstraintSpec::EqConst(r.value()?),
            9 => ConstraintSpec::Le,
            10 => ConstraintSpec::Lt,
            11 => ConstraintSpec::DomAdd {
                views: [
                    (r.i64()?, r.i64()?),
                    (r.i64()?, r.i64()?),
                    (r.i64()?, r.i64()?),
                ],
                out: match r.u8()? {
                    u8::MAX => None,
                    o => Some(o),
                },
            },
            12 => ConstraintSpec::DomLe {
                c: r.i64()?,
                views: [(r.i64()?, r.i64()?), (r.i64()?, r.i64()?)],
                out: match r.u8()? {
                    u8::MAX => None,
                    o => Some(o),
                },
            },
            13 => ConstraintSpec::DomAllDiff,
            14 => ConstraintSpec::DomReifLe {
                c: r.i64()?,
                views: [(r.i64()?, r.i64()?), (r.i64()?, r.i64()?)],
            },
            tag => {
                return Err(DecodeError::Tag {
                    tag,
                    what: "ConstraintSpec",
                    at,
                })
            }
        })
    }
}

/// External provenance of an assignment — the subset of [`Justification`]
/// clients may claim. `Propagated`/`Tentative` records are reserved to the
/// propagation engine itself (a forged record would corrupt dependency
/// analysis), so they are unrepresentable here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Source {
    /// A direct designer edit (`#USER`).
    #[default]
    User,
    /// A tool/application computation (`#APPLICATION`).
    Application,
    /// Consistency-maintenance refresh (`#UPDATE`).
    Update,
    /// A class-definition default.
    DefaultValue,
}

impl From<Source> for Justification {
    fn from(s: Source) -> Justification {
        match s {
            Source::User => Justification::User,
            Source::Application => Justification::Application,
            Source::Update => Justification::Update,
            Source::DefaultValue => Justification::DefaultValue,
        }
    }
}

impl Source {
    /// Appends the source's one-byte tag to `buf`.
    pub fn encode(self, buf: &mut Vec<u8>) {
        put_u8(
            buf,
            match self {
                Source::User => 0,
                Source::Application => 1,
                Source::Update => 2,
                Source::DefaultValue => 3,
            },
        );
    }

    /// Reads a source from `r`.
    pub fn decode(r: &mut Reader<'_>) -> Result<Source, DecodeError> {
        let at = r.position();
        Ok(match r.u8()? {
            0 => Source::User,
            1 => Source::Application,
            2 => Source::Update,
            3 => Source::DefaultValue,
            tag => {
                return Err(DecodeError::Tag {
                    tag,
                    what: "Source",
                    at,
                })
            }
        })
    }
}
