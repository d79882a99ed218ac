//! Nullness domain: tracks whether a pointer-valued variable can be the
//! literal null constant, with provenance.
//!
//! The lattice is `Bottom < {Null, NonNull} < MaybeNull < Unknown` (top).
//! `MaybeNull` is strictly below top on purpose: it only arises by joining a
//! path where the variable is the literal `0` with a path where it is not,
//! so a checker can report it with *provenance* ("null flows in from the
//! branch at …") instead of flagging every unannotated pointer. `Unknown`
//! (no information, e.g. a bare parameter) is never report-worthy.

use super::domain::{AbstractValue, Domain, Env, Frame, Summaries};
use super::lower::{Callee, Inst, Node, NodeId, Op, Storage, Target};
use crate::ast::{BinOp, UnOp};
use std::fmt;
use std::sync::Arc;

/// Abstract nullness of a value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Nullness {
    /// Unreachable / no value.
    Bottom,
    /// Definitely the literal null (0) on every path.
    Null,
    /// Definitely a valid non-null value (literal, allocation, address-of).
    NonNull,
    /// Null on some path, non-null on another — literal-null provenance.
    MaybeNull,
    /// No information (top).
    Unknown,
}

impl Nullness {
    #[cfg(test)]
    fn rank(self) -> u8 {
        match self {
            Nullness::Bottom => 0,
            Nullness::Null | Nullness::NonNull => 1,
            Nullness::MaybeNull => 2,
            Nullness::Unknown => 3,
        }
    }

    /// Whether a dereference of a value in this state is report-worthy.
    pub fn is_derefable_bug(self) -> bool {
        matches!(self, Nullness::Null | Nullness::MaybeNull)
    }
}

impl AbstractValue for Nullness {
    fn top() -> Self {
        Nullness::Unknown
    }

    fn join(&self, other: &Self) -> Self {
        use Nullness::*;
        match (self, other) {
            (a, b) if a == b => *a,
            (Bottom, x) | (x, Bottom) => *x,
            (Unknown, _) | (_, Unknown) => Unknown,
            (MaybeNull, _) | (_, MaybeNull) => MaybeNull,
            (Null, NonNull) | (NonNull, Null) => MaybeNull,
            _ => Unknown,
        }
    }
}

impl fmt::Display for Nullness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Nullness::Bottom => "bottom",
            Nullness::Null => "null",
            Nullness::NonNull => "non-null",
            Nullness::MaybeNull => "maybe-null",
            Nullness::Unknown => "unknown",
        };
        write!(f, "{s}")
    }
}

/// Nullness transfer functions, with interprocedural return summaries.
#[derive(Debug, Clone, Default)]
pub struct NullnessDomain {
    /// Abstract return nullness per analysed function. Externals fall back
    /// to the allocator convention: an unknown callee returning a pointer is
    /// assumed non-null (the bug class we chase is the literal-null path,
    /// not allocation failure).
    pub summaries: Arc<Summaries<Nullness>>,
}

impl NullnessDomain {
    /// A domain with the given interprocedural summaries.
    pub fn with_summaries(summaries: Arc<Summaries<Nullness>>) -> Self {
        NullnessDomain { summaries }
    }
}

impl Domain for NullnessDomain {
    type Value = Nullness;
    const REFINES: bool = true;

    fn name(&self) -> &'static str {
        "nullness"
    }

    fn resolve(&self, callee: &Callee) -> Nullness {
        self.summaries.get(callee.name.as_str()).copied().unwrap_or(Nullness::NonNull)
    }

    fn transfer(&self, frame: &Frame<'_, Nullness>, env: &mut Env<Nullness>, inst: &Inst) {
        match inst.op {
            Op::Decl { slot, storage, init } => {
                let v = match (storage, init) {
                    // Array storage exists, so the "pointer" is non-null.
                    (Storage::Array(_), _) => Nullness::NonNull,
                    (_, Some(e)) => self.eval_node(frame, env, e),
                    (_, None) => Nullness::Unknown,
                };
                env.set_at(slot, v);
            }
            Op::Assign { target: Target::Var(slot), value } => {
                let v = self.eval_node(frame, env, value);
                env.set_at(slot, v);
            }
            _ => {}
        }
        for &s in frame.body.addr_taken(inst) {
            env.havoc_at(s);
        }
    }

    fn eval_node(&self, frame: &Frame<'_, Nullness>, env: &Env<Nullness>, n: NodeId) -> Nullness {
        match frame.body.node(n) {
            Node::Int(0) => Nullness::Null,
            Node::Int(_) | Node::Char(_) | Node::Str => Nullness::NonNull,
            Node::Var(s) => env.at(s),
            Node::Unary(UnOp::AddrOf, _) => Nullness::NonNull,
            Node::Unary(..) => Nullness::Unknown,
            // Pointer arithmetic preserves the base pointer's nullness
            // provenance closely enough for our must-style checks.
            Node::Binary(BinOp::Add | BinOp::Sub, l, r) => {
                let a = self.eval_node(frame, env, l);
                let b = self.eval_node(frame, env, r);
                if a == Nullness::NonNull || b == Nullness::NonNull {
                    Nullness::NonNull
                } else {
                    Nullness::Unknown
                }
            }
            Node::Binary(..) | Node::Index(..) => Nullness::Unknown,
            Node::Call(c, _) => frame.call(c),
        }
    }

    fn refine(
        &self,
        frame: &Frame<'_, Nullness>,
        env: &mut Env<Nullness>,
        cond: NodeId,
        taken: bool,
    ) {
        // Recognised guards: `p`, `!p`, `p == 0`, `p != 0`, `p == NULL`-style
        // comparisons against the literal zero.
        let body = frame.body;
        match body.node(cond) {
            Node::Unary(UnOp::Not, inner) => self.refine(frame, env, inner, !taken),
            Node::Var(s) => {
                // `if (p)` — taken means non-null; the zero value for an int
                // variable is harmless to record the same way.
                env.set_at(s, if taken { Nullness::NonNull } else { Nullness::Null });
            }
            Node::Binary(op @ (BinOp::Eq | BinOp::Ne), l, r) => {
                let (var, other) = match (body.node(l), body.node(r)) {
                    (Node::Var(v), _) => (v, r),
                    (_, Node::Var(v)) => (v, l),
                    _ => return,
                };
                if body.node(other) != Node::Int(0) {
                    return;
                }
                let equals_null = (op == BinOp::Eq) == taken;
                env.set_at(var, if equals_null { Nullness::Null } else { Nullness::NonNull });
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_preserves_literal_null_provenance() {
        use Nullness::*;
        assert_eq!(Null.join(&NonNull), MaybeNull);
        assert_eq!(MaybeNull.join(&NonNull), MaybeNull);
        assert_eq!(Unknown.join(&Null), Unknown, "no provenance without a tracked null");
        assert_eq!(Bottom.join(&Null), Null);
        assert!(MaybeNull.is_derefable_bug());
        assert!(Null.is_derefable_bug());
        assert!(!Unknown.is_derefable_bug());
        assert!(!NonNull.is_derefable_bug());
    }

    #[test]
    fn join_is_monotone_in_rank() {
        use Nullness::*;
        for a in [Bottom, Null, NonNull, MaybeNull, Unknown] {
            for b in [Bottom, Null, NonNull, MaybeNull, Unknown] {
                let j = a.join(&b);
                assert!(j.rank() >= a.rank().min(b.rank()), "{a:?} ⊔ {b:?} = {j:?}");
                assert_eq!(j, b.join(&a), "join must be commutative");
            }
        }
    }
}
