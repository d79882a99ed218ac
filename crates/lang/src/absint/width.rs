//! Width domain: value ranges with *type-boundary* widening, for proving
//! integer truncation (CWE-197) and sharpening overflow (CWE-190) reasoning.
//!
//! The value lattice is the same `[lo, hi]` range as
//! [`super::interval::Interval`] — it even delegates its arithmetic — but
//! the widening operator differs: instead of jumping an unstable bound
//! straight to ±∞, it snaps the bound outward to the next *storage-type
//! boundary* on the ladder ±2⁷, ±2¹⁵, ±2³¹, ±2⁶³, ±∞. Each unstable bound
//! therefore climbs a strictly increasing finite ladder (termination), while
//! a loop counter that in truth stays inside `char` or `int` range keeps a
//! bound tight enough to *prove* whether a narrowing store truncates.
//!
//! A checker reports a narrowing store as CWE-197 only when the stored
//! value's range lies **entirely outside** the destination's representable
//! range — a must-fact; may-truncation is deliberately not reported.

use super::domain::{AbstractValue, Domain, Env, Frame, Summaries};
use super::interval::{eval_range, refine_range, transfer_range, Interval, Ranged};
use super::lower::{Callee, Inst, NodeId};
use std::fmt;
use std::sync::Arc;

/// −∞ sentinel (mirrors the interval domain's encoding).
const NINF: i128 = i128::MIN;
/// +∞ sentinel.
const PINF: i128 = i128::MAX;

/// The storage-type boundary ladder for lower bounds, tightest first.
const LO_LADDER: [i128; 4] = [-(1 << 7), -(1 << 15), -(1 << 31), -(1 << 63)];
/// The storage-type boundary ladder for upper bounds, tightest first.
const HI_LADDER: [i128; 4] = [(1 << 7) - 1, (1 << 15) - 1, (1 << 31) - 1, (1 << 63) - 1];

/// A value range with type-boundary widening. Wraps [`Interval`] for all
/// order/arithmetic structure; only `widen` differs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Width {
    iv: Interval,
}

impl Width {
    /// The empty range (bottom).
    pub const BOTTOM: Width = Width { iv: Interval::BOTTOM };

    /// The full range (top).
    pub const TOP: Width = Width { iv: Interval::TOP };

    /// A single concrete value.
    pub fn point(v: i64) -> Width {
        Width { iv: Interval::point(v) }
    }

    /// The range `[lo, hi]` (bottom when `lo > hi`).
    pub fn range(lo: i128, hi: i128) -> Width {
        Width { iv: Interval::range(lo, hi) }
    }

    /// Whether this is the empty range.
    pub fn is_bottom(&self) -> bool {
        self.iv.is_bottom()
    }

    /// Lower bound (meaningless for bottom).
    pub fn lo(&self) -> i128 {
        self.iv.lo()
    }

    /// Upper bound (meaningless for bottom).
    pub fn hi(&self) -> i128 {
        self.iv.hi()
    }

    /// Greatest lower bound.
    pub fn meet(&self, other: &Width) -> Width {
        Width { iv: self.iv.meet(&other.iv) }
    }

    /// Whether every possible value lies **outside** the signed `bits`-wide
    /// representable range — a proof that storing it into a `bits`-wide slot
    /// truncates on every path.
    pub fn provably_exceeds_bits(&self, bits: u32) -> bool {
        if self.is_bottom() {
            return false;
        }
        let max = (1i128 << (bits - 1)) - 1;
        let min = -(1i128 << (bits - 1));
        self.lo() > max || self.hi() < min
    }

    /// Whether every possible value fits the signed `bits`-wide range.
    pub fn fits_bits(&self, bits: u32) -> bool {
        if self.is_bottom() {
            return true;
        }
        let max = (1i128 << (bits - 1)) - 1;
        let min = -(1i128 << (bits - 1));
        self.lo() >= min && self.hi() <= max
    }
}

impl AbstractValue for Width {
    fn top() -> Self {
        Width::TOP
    }

    fn join(&self, other: &Self) -> Self {
        Width { iv: self.iv.join(&other.iv) }
    }

    fn widen(&self, other: &Self) -> Self {
        if self.is_bottom() {
            return *other;
        }
        if other.is_bottom() {
            return *self;
        }
        // Snap each unstable bound outward to the next storage-type
        // boundary that covers the new iterate, instead of straight to ±∞.
        // The snapped bound is ≤/≥ the new iterate (soundness) and strictly
        // beyond the previous one, and the ladder is finite (termination).
        let lo = if other.lo() < self.lo() {
            LO_LADDER.iter().copied().find(|b| *b <= other.lo()).unwrap_or(NINF)
        } else {
            self.lo()
        };
        let hi = if other.hi() > self.hi() {
            HI_LADDER.iter().copied().find(|b| *b >= other.hi()).unwrap_or(PINF)
        } else {
            self.hi()
        };
        Width::range(lo, hi)
    }
}

impl fmt::Display for Width {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.iv.fmt(f)
    }
}

impl Ranged for Width {
    fn iv(self) -> Interval {
        self.iv
    }

    fn of(iv: Interval) -> Self {
        Width { iv }
    }
}

/// Width transfer functions: the interval domain's evaluation, transfer
/// and refinement, with interprocedural summaries.
#[derive(Debug, Clone, Default)]
pub struct WidthDomain {
    /// Abstract return range per analysed function.
    pub summaries: Arc<Summaries<Width>>,
}

impl WidthDomain {
    /// A domain with the given interprocedural summaries.
    pub fn with_summaries(summaries: Arc<Summaries<Width>>) -> Self {
        WidthDomain { summaries }
    }
}

impl Domain for WidthDomain {
    type Value = Width;
    const REFINES: bool = true;

    fn name(&self) -> &'static str {
        "width"
    }

    fn resolve(&self, callee: &Callee) -> Width {
        self.summaries.get(callee.name.as_str()).copied().unwrap_or(Width::TOP)
    }

    fn transfer(&self, frame: &Frame<'_, Width>, env: &mut Env<Width>, inst: &Inst) {
        transfer_range(frame, env, inst);
    }

    fn eval_node(&self, frame: &Frame<'_, Width>, env: &Env<Width>, n: NodeId) -> Width {
        eval_range(frame, env, n)
    }

    fn refine(&self, frame: &Frame<'_, Width>, env: &mut Env<Width>, cond: NodeId, taken: bool) {
        refine_range(frame, env, cond, taken);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn widening_snaps_to_type_boundaries_not_infinity() {
        let prev = Width::range(0, 3);
        let next = Width::range(0, 4);
        let w = prev.widen(&next);
        assert_eq!(w.hi(), 127, "first unstable climb lands on the char boundary");
        assert_eq!(w.lo(), 0, "stable bound kept");
        let w2 = w.widen(&Width::range(0, 128));
        assert_eq!(w2.hi(), 32767, "next climb lands on the short boundary");
        let w3 = w2.widen(&Width::range(-1, 32768));
        assert_eq!(w3.lo(), -128);
        assert_eq!(w3.hi(), (1 << 31) - 1);
    }

    #[test]
    fn widening_terminates_in_bounded_climbs() {
        // Feed an adversarial strictly-growing chain; each bound can climb
        // the 4-step ladder plus the final jump to ±∞, never more.
        let mut cur = Width::point(0);
        let mut climbs = 0;
        let mut grow = 1i128;
        for _ in 0..200 {
            let next = Width::range(-grow, grow);
            let w = cur.widen(&next);
            if w != cur {
                climbs += 1;
                cur = w;
            }
            grow = grow.saturating_mul(4);
        }
        assert!(climbs <= 5, "ladder widening must stabilise, took {climbs} climbs");
        assert_eq!(cur, Width::TOP);
    }

    #[test]
    fn widening_covers_the_new_iterate() {
        // Soundness: prev ∇ next ⊇ prev ⊔ next, across ladder steps.
        let cases = [
            (Width::range(0, 10), Width::range(-5, 300)),
            (Width::range(-200, 0), Width::range(-40000, 1)),
            (Width::point(5), Width::range(NINF, 5)),
        ];
        for (prev, next) in cases {
            let w = prev.widen(&next);
            let j = prev.join(&next);
            assert!(w.lo() <= j.lo() && w.hi() >= j.hi(), "{prev} ∇ {next} = {w} ⊉ {j}");
        }
    }

    #[test]
    fn join_is_commutative_and_idempotent() {
        let vals = [
            Width::BOTTOM,
            Width::point(0),
            Width::range(-128, 127),
            Width::range(0, 400),
            Width::TOP,
        ];
        for a in vals {
            assert_eq!(a.join(&a), a);
            for b in vals {
                assert_eq!(a.join(&b), b.join(&a));
                for c in vals {
                    assert_eq!(a.join(&b).join(&c), a.join(&b.join(&c)));
                }
            }
        }
    }

    #[test]
    fn truncation_proofs_are_must_facts() {
        assert!(Width::point(360).provably_exceeds_bits(8));
        assert!(Width::range(128, 400).provably_exceeds_bits(8));
        assert!(Width::range(NINF, -129).provably_exceeds_bits(8));
        assert!(!Width::range(100, 400).provably_exceeds_bits(8), "may-truncation is not a proof");
        assert!(!Width::TOP.provably_exceeds_bits(8));
        assert!(!Width::BOTTOM.provably_exceeds_bits(8));
        assert!(Width::range(-128, 127).fits_bits(8));
        assert!(!Width::range(-129, 0).fits_bits(8));
    }
}
