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

use super::domain::{AbstractValue, Domain, Env};
use crate::ast::{Function, Type};
use crate::cfg::CfgInst;
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

    fn seed_entry(&self, func: &Function, env: &mut Env<Init>) {
        for p in &func.params {
            env.set(&p.name, Init::Yes);
        }
    }

    fn transfer(&self, env: &mut Env<Init>, inst: &CfgInst) {
        match inst {
            CfgInst::Decl { name, ty, init } => {
                let v = match (ty, init) {
                    (_, Some(_)) => Init::Yes,
                    // Declared-then-filled arrays are normal buffer idiom.
                    (Type::Array(_, _), None) => Init::Yes,
                    (_, None) => Init::No,
                };
                env.set(name, v);
            }
            CfgInst::Assign { target, .. } => {
                if let crate::ast::LValue::Var(name) = target {
                    env.set(name, Init::Yes);
                }
            }
            CfgInst::Expr(_) | CfgInst::Branch(_) | CfgInst::Return(_) => {}
        }
        // `use(&x)` hands the location out as an out-parameter; assume the
        // callee initialized it (the conservative, false-positive-free read).
        for name in super::domain::inst_addr_taken(inst) {
            env.set(name, Init::Yes);
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
