//! Definite-initialization domain: tracks whether a local variable has been
//! assigned before it is read.
//!
//! Lattice: `Bottom < {Init, Uninit} < MaybeUninit < Unknown` (top).
//! `Uninit` means *definitely* uninitialized on every path (a must-bug at a
//! read); `MaybeUninit` arises only from joining an initialized path with a
//! definitely-uninitialized one, so it carries provenance the checker can
//! report at medium confidence. Parameters are initialized by the caller;
//! arrays count as initialized storage (reading a fresh array is C idiom the
//! corpus uses for buffers, not the bug class this domain chases).

use super::domain::{AbstractValue, Domain, Env, Frame};
use super::lower::{Callee, Inst, Lowered, Op, Storage, Target};
use std::fmt;

/// Abstract initialization state of a variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Init {
    /// Unreachable / no value.
    Bottom,
    /// Definitely assigned on every path.
    Yes,
    /// Definitely not assigned on any path.
    No,
    /// Assigned on some paths only.
    Maybe,
    /// No information (top, e.g. a name this domain never saw declared).
    Unknown,
}

impl Init {
    /// Whether reading a variable in this state is report-worthy.
    pub fn is_read_bug(self) -> bool {
        matches!(self, Init::No | Init::Maybe)
    }
}

impl AbstractValue for Init {
    fn top() -> Self {
        Init::Unknown
    }

    fn join(&self, other: &Self) -> Self {
        use Init::*;
        match (self, other) {
            (a, b) if a == b => *a,
            (Bottom, x) | (x, Bottom) => *x,
            (Unknown, _) | (_, Unknown) => Unknown,
            (Maybe, _) | (_, Maybe) => Maybe,
            (Yes, No) | (No, Yes) => Maybe,
            _ => Unknown,
        }
    }
}

impl fmt::Display for Init {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Init::Bottom => "bottom",
            Init::Yes => "initialized",
            Init::No => "uninitialized",
            Init::Maybe => "maybe-uninitialized",
            Init::Unknown => "unknown",
        };
        write!(f, "{s}")
    }
}

/// Definite-initialization transfer functions. No interprocedural component:
/// initialization is a purely local property in this dialect (parameters
/// arrive initialized, address-taken locals are promoted on the spot).
#[derive(Debug, Clone, Default)]
pub struct InitDomain;

impl Domain for InitDomain {
    type Value = Init;

    fn name(&self) -> &'static str {
        "init"
    }

    fn resolve(&self, _callee: &Callee) -> Init {
        Init::Unknown
    }

    fn seed_entry(&self, body: &Lowered, env: &mut Env<Init>) {
        for &p in body.params() {
            env.set_at(p, Init::Yes);
        }
    }

    fn transfer(&self, frame: &Frame<'_, Init>, env: &mut Env<Init>, inst: &Inst) {
        match inst.op {
            Op::Decl { slot, storage, init } => {
                let v = match (storage, init) {
                    (_, Some(_)) => Init::Yes,
                    // Declared-then-filled arrays are normal buffer idiom.
                    (Storage::Array(_), None) => Init::Yes,
                    (_, None) => Init::No,
                };
                env.set_at(slot, v);
            }
            Op::Assign { target: Target::Var(slot), .. } => env.set_at(slot, Init::Yes),
            _ => {}
        }
        // `use(&x)` hands the location out as an out-parameter; assume the
        // callee initialized it (the conservative, false-positive-free read).
        for &s in frame.body.addr_taken(inst) {
            env.set_at(s, Init::Yes);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_models_branchy_initialization() {
        use Init::*;
        assert_eq!(Yes.join(&No), Maybe);
        assert_eq!(Maybe.join(&Yes), Maybe);
        assert_eq!(Unknown.join(&No), Unknown);
        assert!(No.is_read_bug());
        assert!(Maybe.is_read_bug());
        assert!(!Yes.is_read_bug());
        assert!(!Unknown.is_read_bug());
    }
}
