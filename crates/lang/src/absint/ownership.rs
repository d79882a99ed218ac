//! Ownership domain: tracks the allocation state of heap-handle variables so
//! use-after-free (CWE-416) and double-free (CWE-415) become *must-facts*
//! instead of syntactic pattern matches.
//!
//! The lattice is `Bottom < {Owned, Freed, Moved} < MaybeFreed < Unknown`
//! (top). The three atoms are pairwise incomparable, so the join of any two
//! *distinct* atoms is `MaybeFreed` — "this handle is possibly no longer
//! owned on some path". That makes the join rank-driven and therefore
//! associative (an M3-shaped lattice of height 4). `Unknown` (a bare
//! parameter, an unrecognised callee's return) is never report-worthy, so
//! code outside the allocator vocabulary stays silent.
//!
//! A checker distinguishes must from may: a *use* of a `Freed` handle is a
//! high-confidence CWE-416, a use of a `MaybeFreed` handle a medium one;
//! a *free* of a `Freed` handle is a high-confidence CWE-415.

use super::domain::{AbstractValue, Domain, Env, Frame, Summaries};
use super::lower::{Callee, CalleeKind, Inst, Node, NodeId, Op, Target};
use std::fmt;
use std::sync::Arc;

/// Functions whose return value is a freshly owned heap handle.
pub const ALLOC_FNS: [&str; 3] = ["alloc_buffer", "make_scratch", "reserve_block"];

/// Functions that release their first argument's storage.
pub const FREE_FNS: [&str; 2] = ["free_mem", "release_block"];

/// Functions that take over ownership of their first argument (the caller
/// must no longer free it, but reads remain valid).
pub const HANDOFF_FNS: [&str; 2] = ["store_handle", "stash_buffer"];

/// Abstract ownership state of a heap handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ownership {
    /// Unreachable / no value.
    Bottom,
    /// Definitely a live, caller-owned allocation on every path.
    Owned,
    /// Definitely released on every path — any use is a proven CWE-416 and
    /// any further free a proven CWE-415.
    Freed,
    /// Ownership definitely handed off (stored elsewhere); a further free
    /// here would be a double release by the eventual owner.
    Moved,
    /// No longer owned on *some* path (e.g. freed in one branch only).
    MaybeFreed,
    /// No information (top) — parameters, unrecognised callees.
    Unknown,
}

impl Ownership {
    #[cfg(test)]
    fn rank(self) -> u8 {
        match self {
            Ownership::Bottom => 0,
            Ownership::Owned | Ownership::Freed | Ownership::Moved => 1,
            Ownership::MaybeFreed => 2,
            Ownership::Unknown => 3,
        }
    }

    /// Whether reading the handle's storage is definitely invalid.
    pub fn use_is_proven_bug(self) -> bool {
        self == Ownership::Freed
    }

    /// Whether reading the handle's storage is invalid on some path.
    pub fn use_is_possible_bug(self) -> bool {
        self == Ownership::MaybeFreed
    }

    /// Whether releasing the handle again is definitely a double release.
    pub fn free_is_proven_bug(self) -> bool {
        matches!(self, Ownership::Freed | Ownership::Moved)
    }

    /// Whether releasing the handle is a double release on some path.
    pub fn free_is_possible_bug(self) -> bool {
        self == Ownership::MaybeFreed
    }
}

impl AbstractValue for Ownership {
    fn top() -> Self {
        Ownership::Unknown
    }

    fn join(&self, other: &Self) -> Self {
        use Ownership::*;
        match (self, other) {
            (a, b) if a == b => *a,
            (Bottom, x) | (x, Bottom) => *x,
            (Unknown, _) | (_, Unknown) => Unknown,
            // Any mix of distinct atoms — and any atom with MaybeFreed —
            // means ownership is uncertain on some path.
            _ => MaybeFreed,
        }
    }
}

impl fmt::Display for Ownership {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Ownership::Bottom => "bottom",
            Ownership::Owned => "owned",
            Ownership::Freed => "freed",
            Ownership::Moved => "moved",
            Ownership::MaybeFreed => "maybe-freed",
            Ownership::Unknown => "unknown",
        };
        write!(f, "{s}")
    }
}

/// Ownership transfer functions, with interprocedural return summaries.
#[derive(Debug, Clone, Default)]
pub struct OwnershipDomain {
    /// Abstract return ownership per analysed function (a local wrapper
    /// around an allocator propagates `Owned` to its callers). Externals
    /// outside [`ALLOC_FNS`] evaluate to top.
    pub summaries: Arc<Summaries<Ownership>>,
}

impl OwnershipDomain {
    /// A domain with the given interprocedural summaries.
    pub fn with_summaries(summaries: Arc<Summaries<Ownership>>) -> Self {
        OwnershipDomain { summaries }
    }
}

impl Domain for OwnershipDomain {
    type Value = Ownership;

    fn name(&self) -> &'static str {
        "ownership"
    }

    fn resolve(&self, callee: &Callee) -> Ownership {
        match callee.kind {
            CalleeKind::Alloc => Ownership::Owned,
            _ => self.summaries.get(callee.name.as_str()).copied().unwrap_or(Ownership::Unknown),
        }
    }

    fn transfer(&self, frame: &Frame<'_, Ownership>, env: &mut Env<Ownership>, inst: &Inst) {
        // Release effects first, then bindings: `p = alloc_buffer(n)` after
        // a free re-establishes ownership of the (re-bound) handle. A
        // release sets its first argument, when that is a plain variable.
        let body = frame.body;
        for &call in body.value_calls(inst) {
            let Some((callee, Some(arg))) = body.call(call) else { continue };
            let after = match callee.kind {
                CalleeKind::Free => Ownership::Freed,
                CalleeKind::Handoff => Ownership::Moved,
                _ => continue,
            };
            if let Node::Var(s) = body.node(arg) {
                env.set_at(s, after);
            }
        }
        match inst.op {
            Op::Decl { slot, init, .. } => {
                let v = match init {
                    Some(e) => self.eval_node(frame, env, e),
                    None => Ownership::Unknown,
                };
                env.set_at(slot, v);
            }
            Op::Assign { target: Target::Var(slot), value } => {
                let v = self.eval_node(frame, env, value);
                env.set_at(slot, v);
            }
            _ => {}
        }
        for &s in body.addr_taken(inst) {
            env.havoc_at(s);
        }
    }

    fn eval_node(
        &self,
        frame: &Frame<'_, Ownership>,
        env: &Env<Ownership>,
        n: NodeId,
    ) -> Ownership {
        match frame.body.node(n) {
            Node::Var(s) => env.at(s),
            Node::Call(c, _) => frame.call(c),
            _ => Ownership::Unknown,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [Ownership; 6] = [
        Ownership::Bottom,
        Ownership::Owned,
        Ownership::Freed,
        Ownership::Moved,
        Ownership::MaybeFreed,
        Ownership::Unknown,
    ];

    #[test]
    fn join_is_commutative_idempotent_and_rank_monotone() {
        for a in ALL {
            assert_eq!(a.join(&a), a, "idempotence for {a:?}");
            for b in ALL {
                let j = a.join(&b);
                assert_eq!(j, b.join(&a), "commutativity for {a:?} ⊔ {b:?}");
                assert!(j.rank() >= a.rank().max(b.rank()), "{a:?} ⊔ {b:?} = {j:?}");
            }
        }
    }

    #[test]
    fn join_is_associative() {
        for a in ALL {
            for b in ALL {
                for c in ALL {
                    assert_eq!(
                        a.join(&b).join(&c),
                        a.join(&b.join(&c)),
                        "associativity for {a:?}, {b:?}, {c:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn distinct_atoms_join_to_maybe_freed() {
        use Ownership::*;
        assert_eq!(Owned.join(&Freed), MaybeFreed);
        assert_eq!(Freed.join(&Moved), MaybeFreed);
        assert_eq!(Owned.join(&MaybeFreed), MaybeFreed);
        assert_eq!(Unknown.join(&Freed), Unknown, "no report without tracked provenance");
        assert_eq!(Bottom.join(&Freed), Freed);
    }

    #[test]
    fn widening_terminates_on_every_ascending_chain() {
        // Finite height 4: the default widen (= join) stabilises any chain
        // in at most three climbs.
        for start in ALL {
            let mut cur = start;
            let mut climbs = 0;
            for next in ALL {
                let w = cur.widen(&next);
                if w != cur {
                    climbs += 1;
                    cur = w;
                }
            }
            assert!(climbs <= 3, "chain from {start:?} climbed {climbs} times");
        }
    }

    #[test]
    fn bug_predicates_match_the_report_policy() {
        use Ownership::*;
        assert!(Freed.use_is_proven_bug());
        assert!(MaybeFreed.use_is_possible_bug());
        assert!(!Moved.use_is_proven_bug(), "reads stay valid after a handoff");
        assert!(Freed.free_is_proven_bug());
        assert!(Moved.free_is_proven_bug(), "the new owner frees; we must not");
        assert!(MaybeFreed.free_is_possible_bug());
        assert!(!Unknown.use_is_proven_bug() && !Unknown.free_is_proven_bug());
        assert!(!Owned.use_is_proven_bug() && !Owned.free_is_proven_bug());
    }
}
