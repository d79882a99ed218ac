//! Interval domain: each variable is over-approximated by a range
//! `[lo, hi]` of possible values.
//!
//! Bounds are stored as `i128` with `i128::MIN`/`i128::MAX` playing −∞/+∞,
//! which lets interval arithmetic on 64-bit program values proceed without
//! overflow checks on the happy path (any sum or product of two in-range
//! `i64`s fits in `i128`; the rare `i128` overflow saturates to ±∞).

use super::domain::{AbstractValue, Domain, Env, Frame, Summaries};
use super::lower::{Callee, Inst, Node, NodeId, Op, Storage, Target};
use crate::ast::{BinOp, UnOp};
use std::fmt;
use std::sync::Arc;

/// −∞ sentinel.
const NINF: i128 = i128::MIN;
/// +∞ sentinel.
const PINF: i128 = i128::MAX;

/// A (possibly empty) integer range. `lo > hi` encodes bottom; the canonical
/// bottom is `[1, 0]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    lo: i128,
    hi: i128,
}

impl Interval {
    /// The empty interval (bottom).
    pub const BOTTOM: Interval = Interval { lo: 1, hi: 0 };

    /// The full range (top).
    pub const TOP: Interval = Interval { lo: NINF, hi: PINF };

    /// A single concrete value.
    pub fn point(v: i64) -> Interval {
        Interval { lo: v as i128, hi: v as i128 }
    }

    /// The range `[lo, hi]` (bottom when `lo > hi`).
    pub fn range(lo: i128, hi: i128) -> Interval {
        if lo > hi {
            Interval::BOTTOM
        } else {
            Interval { lo, hi }
        }
    }

    /// Whether this is the empty interval.
    pub fn is_bottom(&self) -> bool {
        self.lo > self.hi
    }

    /// Lower bound (meaningless for bottom).
    pub fn lo(&self) -> i128 {
        self.lo
    }

    /// Upper bound (meaningless for bottom).
    pub fn hi(&self) -> i128 {
        self.hi
    }

    /// Whether this is exactly the concrete value `v`.
    pub fn is_point(&self, v: i64) -> bool {
        self.lo == v as i128 && self.hi == v as i128
    }

    /// Whether `v` is a possible value.
    pub fn contains(&self, v: i64) -> bool {
        !self.is_bottom() && self.lo <= v as i128 && v as i128 <= self.hi
    }

    /// Greatest lower bound.
    pub fn meet(&self, other: &Interval) -> Interval {
        Interval::range(self.lo.max(other.lo), self.hi.min(other.hi))
    }

    /// Whether every value in the interval is a valid 64-bit integer; a
    /// non-bottom interval entirely outside the `i64` range is a proof of
    /// arithmetic overflow.
    pub fn fits_i64(&self) -> bool {
        self.is_bottom() || (self.hi >= i64::MIN as i128 && self.lo <= i64::MAX as i128)
    }

    pub(crate) fn add(&self, other: &Interval) -> Interval {
        if self.is_bottom() || other.is_bottom() {
            return Interval::BOTTOM;
        }
        Interval::range(badd(self.lo, other.lo), badd(self.hi, other.hi))
    }

    pub(crate) fn sub(&self, other: &Interval) -> Interval {
        if self.is_bottom() || other.is_bottom() {
            return Interval::BOTTOM;
        }
        Interval::range(badd(self.lo, bneg(other.hi)), badd(self.hi, bneg(other.lo)))
    }

    pub(crate) fn mul(&self, other: &Interval) -> Interval {
        if self.is_bottom() || other.is_bottom() {
            return Interval::BOTTOM;
        }
        let products = [
            bmul(self.lo, other.lo),
            bmul(self.lo, other.hi),
            bmul(self.hi, other.lo),
            bmul(self.hi, other.hi),
        ];
        Interval::range(
            products.iter().copied().min().unwrap(),
            products.iter().copied().max().unwrap(),
        )
    }

    pub(crate) fn div(&self, other: &Interval) -> Interval {
        if self.is_bottom() || other.is_bottom() {
            return Interval::BOTTOM;
        }
        // Precise only for a finite non-zero constant divisor; anything else
        // (a range straddling zero, an unknown) goes to top. The language's
        // interpreter defines x/0 == 0, so zero divisors stay representable.
        match other.as_finite_point() {
            Some(0) => Interval::point(0),
            Some(k) if self.lo != NINF && self.hi != PINF => {
                let a = self.lo / k as i128;
                let b = self.hi / k as i128;
                Interval::range(a.min(b), a.max(b))
            }
            _ => Interval::TOP,
        }
    }

    pub(crate) fn rem(&self, other: &Interval) -> Interval {
        if self.is_bottom() || other.is_bottom() {
            return Interval::BOTTOM;
        }
        match other.as_finite_point() {
            Some(0) => Interval::point(0),
            Some(k) => {
                let m = (k as i128).abs() - 1;
                if self.lo >= 0 {
                    Interval::range(0, m)
                } else {
                    Interval::range(-m, m)
                }
            }
            _ => Interval::TOP,
        }
    }

    pub(crate) fn neg(&self) -> Interval {
        if self.is_bottom() {
            return Interval::BOTTOM;
        }
        Interval::range(bneg(self.hi), bneg(self.lo))
    }

    pub(crate) fn as_finite_point(&self) -> Option<i64> {
        if self.lo == self.hi && self.lo != NINF && self.lo != PINF {
            i64::try_from(self.lo).ok()
        } else {
            None
        }
    }
}

impl AbstractValue for Interval {
    fn top() -> Self {
        Interval::TOP
    }

    fn join(&self, other: &Self) -> Self {
        if self.is_bottom() {
            return *other;
        }
        if other.is_bottom() {
            return *self;
        }
        Interval::range(self.lo.min(other.lo), self.hi.max(other.hi))
    }

    fn widen(&self, other: &Self) -> Self {
        if self.is_bottom() {
            return *other;
        }
        if other.is_bottom() {
            return *self;
        }
        // Standard interval widening: any bound still moving jumps to ±∞, so
        // a variable stabilises after at most two widenings.
        let lo = if other.lo < self.lo { NINF } else { self.lo };
        let hi = if other.hi > self.hi { PINF } else { self.hi };
        Interval::range(lo, hi)
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_bottom() {
            return write!(f, "⊥");
        }
        let bound = |b: i128, inf: &str| {
            if b == NINF || b == PINF {
                inf.to_string()
            } else {
                b.to_string()
            }
        };
        write!(f, "[{}, {}]", bound(self.lo, "-inf"), bound(self.hi, "+inf"))
    }
}

pub(crate) fn badd(a: i128, b: i128) -> i128 {
    if a == NINF || b == NINF {
        NINF
    } else if a == PINF || b == PINF {
        PINF
    } else {
        a.checked_add(b).unwrap_or(if a > 0 { PINF } else { NINF })
    }
}

pub(crate) fn bneg(a: i128) -> i128 {
    if a == NINF {
        PINF
    } else if a == PINF {
        NINF
    } else {
        -a
    }
}

fn bmul(a: i128, b: i128) -> i128 {
    if a == 0 || b == 0 {
        return 0;
    }
    let negative = (a < 0) != (b < 0);
    if a == NINF || a == PINF || b == NINF || b == PINF {
        return if negative { NINF } else { PINF };
    }
    a.checked_mul(b).unwrap_or(if negative { NINF } else { PINF })
}

/// A lattice of integer ranges: [`Interval`] itself and
/// [`Width`](super::width::Width), which differs only in its widening.
/// Both domains interpret instructions, expressions and branch conditions
/// identically, through the functions below.
pub(crate) trait Ranged: AbstractValue + Copy {
    /// The range.
    fn iv(self) -> Interval;
    /// The value of a range.
    fn of(iv: Interval) -> Self;
}

impl Ranged for Interval {
    fn iv(self) -> Interval {
        self
    }

    fn of(iv: Interval) -> Self {
        iv
    }
}

/// The range of node `n` in `env`.
pub(crate) fn eval_range<V: Ranged>(frame: &Frame<'_, V>, env: &Env<V>, n: NodeId) -> V {
    let iv = match frame.body.node(n) {
        Node::Int(v) | Node::Char(v) => Interval::point(v),
        Node::Var(s) => return env.at(s),
        Node::Call(c, _) => return frame.call(c),
        Node::Unary(UnOp::Neg, e) => eval_range(frame, env, e).iv().neg(),
        Node::Unary(UnOp::Not, _) => Interval::range(0, 1),
        Node::Binary(op, l, r) => {
            let a = eval_range(frame, env, l).iv();
            let b = eval_range(frame, env, r).iv();
            match op {
                BinOp::Add => a.add(&b),
                BinOp::Sub => a.sub(&b),
                BinOp::Mul => a.mul(&b),
                BinOp::Div => a.div(&b),
                BinOp::Rem => a.rem(&b),
                op if op.is_comparison() => Interval::range(0, 1),
                _ => Interval::TOP,
            }
        }
        Node::Str | Node::Unary(UnOp::Deref | UnOp::AddrOf, _) | Node::Index(..) => Interval::TOP,
    };
    V::of(iv)
}

/// Range transfer: a declaration or plain assignment binds the evaluated
/// range (arrays are storage, not scalar values, so they bind top), and
/// locations handed out under `&` are havocked. Indirect stores kill
/// nothing (no alias tracking); checkers only rely on must-facts derived
/// from literal constants.
pub(crate) fn transfer_range<V: Ranged>(frame: &Frame<'_, V>, env: &mut Env<V>, inst: &Inst) {
    match inst.op {
        Op::Decl { slot, storage, init } => {
            let v = match (storage, init) {
                (Storage::Array(_), _) | (_, None) => V::top(),
                (_, Some(e)) => eval_range(frame, env, e),
            };
            env.set_at(slot, v);
        }
        Op::Assign { target: Target::Var(slot), value } => {
            let v = eval_range(frame, env, value);
            env.set_at(slot, v);
        }
        _ => {}
    }
    for &s in frame.body.addr_taken(inst) {
        env.havoc_at(s);
    }
}

/// Refines ranges along a branch edge: `x` not taken means `x == 0`, and a
/// comparison of a variable with any expression constrains the variable.
pub(crate) fn refine_range<V: Ranged>(
    frame: &Frame<'_, V>,
    env: &mut Env<V>,
    cond: NodeId,
    taken: bool,
) {
    let body = frame.body;
    match body.node(cond) {
        Node::Unary(UnOp::Not, inner) => refine_range(frame, env, inner, !taken),
        Node::Var(s) if !taken => {
            let refined = env.at(s).iv().meet(&Interval::point(0));
            env.set_at(s, V::of(refined));
        }
        Node::Binary(op, l, r) if op.is_comparison() => {
            let (op, var, other) = match (body.node(l), body.node(r)) {
                (Node::Var(v), _) => (op, v, r),
                (_, Node::Var(v)) => (flip_cmp(op), v, l),
                _ => return,
            };
            let op = if taken {
                op
            } else {
                match negate_cmp(op) {
                    Some(n) => n,
                    None => return,
                }
            };
            let rhs = eval_range(frame, env, other).iv();
            let refined = constrain(env.at(var).iv(), op, &rhs);
            env.set_at(var, V::of(refined));
        }
        _ => {}
    }
}

/// Applies the comparison `var_value (op) rhs` as a constraint on
/// `var_value`, returning the refined interval.
fn constrain(var_value: Interval, op: BinOp, rhs: &Interval) -> Interval {
    if rhs.is_bottom() {
        return var_value;
    }
    match op {
        BinOp::Lt => var_value.meet(&Interval::range(NINF, badd(rhs.hi, -1))),
        BinOp::Le => var_value.meet(&Interval::range(NINF, rhs.hi)),
        BinOp::Gt => var_value.meet(&Interval::range(badd(rhs.lo, 1), PINF)),
        BinOp::Ge => var_value.meet(&Interval::range(rhs.lo, PINF)),
        BinOp::Eq => var_value.meet(rhs),
        BinOp::Ne => match rhs.as_finite_point() {
            // Only trims when the excluded point is an endpoint.
            Some(k) if var_value.lo == k as i128 => Interval::range(var_value.lo + 1, var_value.hi),
            Some(k) if var_value.hi == k as i128 => Interval::range(var_value.lo, var_value.hi - 1),
            _ => var_value,
        },
        _ => var_value,
    }
}

fn negate_cmp(op: BinOp) -> Option<BinOp> {
    Some(match op {
        BinOp::Lt => BinOp::Ge,
        BinOp::Le => BinOp::Gt,
        BinOp::Gt => BinOp::Le,
        BinOp::Ge => BinOp::Lt,
        BinOp::Eq => BinOp::Ne,
        BinOp::Ne => BinOp::Eq,
        _ => return None,
    })
}

fn flip_cmp(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::Le => BinOp::Ge,
        BinOp::Gt => BinOp::Lt,
        BinOp::Ge => BinOp::Le,
        other => other,
    }
}

/// Interval transfer functions over the lowered instruction set, with an
/// interprocedural summary table mapping function names to their abstract
/// return values (absent entries — externals — evaluate to top).
#[derive(Debug, Clone, Default)]
pub struct IntervalDomain {
    /// Abstract return value per analysed function.
    pub summaries: Arc<Summaries<Interval>>,
}

impl IntervalDomain {
    /// A domain with the given interprocedural summaries.
    pub fn with_summaries(summaries: Arc<Summaries<Interval>>) -> Self {
        IntervalDomain { summaries }
    }
}

impl Domain for IntervalDomain {
    type Value = Interval;
    const REFINES: bool = true;

    fn name(&self) -> &'static str {
        "interval"
    }

    fn resolve(&self, callee: &Callee) -> Interval {
        self.summaries.get(callee.name.as_str()).copied().unwrap_or(Interval::TOP)
    }

    fn transfer(&self, frame: &Frame<'_, Interval>, env: &mut Env<Interval>, inst: &Inst) {
        transfer_range(frame, env, inst);
    }

    fn eval_node(&self, frame: &Frame<'_, Interval>, env: &Env<Interval>, n: NodeId) -> Interval {
        eval_range(frame, env, n)
    }

    fn refine(
        &self,
        frame: &Frame<'_, Interval>,
        env: &mut Env<Interval>,
        cond: NodeId,
        taken: bool,
    ) {
        refine_range(frame, env, cond, taken);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn points_and_arithmetic() {
        let a = Interval::point(3);
        let b = Interval::point(4);
        assert!(a.mul(&b).is_point(12));
        assert!(a.add(&b).is_point(7));
        assert!(a.sub(&b).is_point(-1));
        assert!(Interval::range(0, 10).contains(5));
        assert!(!Interval::range(0, 10).contains(11));
    }

    #[test]
    fn join_and_widen() {
        let a = Interval::range(0, 3);
        let b = Interval::range(2, 9);
        assert_eq!(a.join(&b), Interval::range(0, 9));
        let w = a.widen(&Interval::range(0, 4));
        assert_eq!(w.hi(), PINF, "unstable upper bound must widen to +inf");
        assert_eq!(w.lo(), 0, "stable lower bound must be kept");
    }

    #[test]
    fn division_is_conservative_but_constant_folds() {
        let a = Interval::range(10, 20);
        assert_eq!(a.div(&Interval::point(2)), Interval::range(5, 10));
        assert_eq!(a.div(&Interval::point(0)), Interval::point(0), "interp defines x/0 == 0");
        assert_eq!(a.div(&Interval::range(1, 2)), Interval::TOP);
    }

    #[test]
    fn overflow_saturates_to_infinity() {
        let big = Interval::point(i64::MAX);
        let sq = big.mul(&big);
        assert!(!sq.is_bottom());
        assert!(sq.lo() > i64::MAX as i128, "certain overflow must be provable");
        assert!(!sq.fits_i64());
    }

    #[test]
    fn source_expressions_evaluate_by_name() {
        // `Domain::eval` resolves variables against the state's table and
        // calls against the summaries, as evidence rendering needs.
        let p = crate::parse("int f() { return x * 2 + scale() + y; }").unwrap();
        let crate::ast::StmtKind::Return(Some(e)) = &p.functions[0].body[0].kind else {
            panic!("a return statement")
        };
        let domain = IntervalDomain::with_summaries(Arc::new(Summaries::from([(
            crate::intern::Symbol::new("scale"),
            Interval::point(3),
        )])));
        let mut env = Env::reachable_top();
        env.set("x", Interval::point(4));
        env.set("y", Interval::point(1));
        assert!(domain.eval(&env, e).is_point(12));
        let mut env = Env::reachable_top();
        env.set("x", Interval::point(4));
        assert_eq!(domain.eval(&env, e), Interval::TOP, "a name the state lacks reads as top");
    }

    #[test]
    fn bottom_propagates() {
        assert!(Interval::BOTTOM.add(&Interval::point(1)).is_bottom());
        assert_eq!(Interval::BOTTOM.join(&Interval::point(1)), Interval::point(1));
    }
}
