//! Lattice and transfer-function contracts shared by every abstract domain.

use crate::ast::{Expr, ExprKind, Function, LValue, StmtKind, UnOp};
use crate::cfg::CfgInst;
use crate::intern::Symbol;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// An element of a join-semilattice with a widening operator.
///
/// Implementations must guarantee that repeated `join`/`widen` applications
/// stabilise: either the lattice has finite height, or `widen` jumps every
/// strictly ascending chain to a fixed point in a bounded number of steps.
pub trait AbstractValue: Clone + PartialEq + fmt::Debug + fmt::Display {
    /// The top element ("no information"). Variables absent from an [`Env`]
    /// implicitly hold this value, so `top` must never be report-worthy.
    fn top() -> Self;

    /// Least upper bound of `self` and `other`.
    fn join(&self, other: &Self) -> Self;

    /// Widening `self ∇ other` where `self` is the previous iterate. The
    /// default is `join`, which is only correct for finite-height lattices.
    fn widen(&self, other: &Self) -> Self {
        self.join(other)
    }
}

/// Interprocedural return summaries: function name → abstract return
/// value. Domains hold the table behind an [`Arc`], so the driver shares
/// one table with every function it solves instead of copying it.
pub type Summaries<V> = BTreeMap<Symbol, V>;

/// The dense variable-slot table of one function: every variable name its
/// transfer functions can read or write (parameters, declarations,
/// assignment bases, and variable reads), sorted by name. An [`Env`] built
/// over a table stores one value per slot, so joins and equality are
/// vector scans, and iterating slots in order yields facts in name order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub(crate) struct Slots {
    names: Box<[Symbol]>,
}

impl Slots {
    /// The slot table of `func`. The CFG only re-arranges AST statements
    /// (it never invents variables), so walking the AST covers every name
    /// a block replay will look up.
    pub(crate) fn of_function(func: &Function) -> Slots {
        let mut names: Vec<Symbol> = func.params.iter().map(|p| p.name.clone()).collect();
        func.walk_stmts(&mut |s| match &s.kind {
            StmtKind::Decl { name, .. } => names.push(name.clone()),
            StmtKind::Assign { target, .. } => match target {
                LValue::Var(name) => names.push(name.clone()),
                LValue::Deref(e) | LValue::Index(e, _) => {
                    if let ExprKind::Var(name) = &e.kind {
                        names.push(name.clone());
                    }
                }
            },
            _ => {}
        });
        func.walk_exprs(&mut |e| {
            if let ExprKind::Var(name) = &e.kind {
                names.push(name.clone());
            }
        });
        Slots::from_names(names)
    }

    fn from_names(mut names: Vec<Symbol>) -> Slots {
        names.sort_unstable_by(|a, b| a.as_str().cmp(b.as_str()));
        names.dedup_by(|a, b| a.as_str() == b.as_str());
        Slots { names: names.into_boxed_slice() }
    }

    /// The shared empty table, used by environments built without one.
    fn empty() -> Arc<Slots> {
        static EMPTY: OnceLock<Arc<Slots>> = OnceLock::new();
        EMPTY.get_or_init(|| Arc::new(Slots::default())).clone()
    }

    /// Number of slots.
    pub(crate) fn len(&self) -> usize {
        self.names.len()
    }

    /// The slot of `name`, if the table has one.
    pub(crate) fn slot(&self, name: &str) -> Option<usize> {
        self.names.binary_search_by(|n| n.as_str().cmp(name)).ok()
    }
}

/// Abstract state at a program point: one abstract value per variable slot
/// of the function's slot table, plus a reachability flag. An
/// unreachable env is the bottom state — it contributes nothing at join
/// points (which is why the CFG builder's unreachable-edge pruning matters:
/// dead blocks never even reach a join).
///
/// A slot holding [`AbstractValue::top`] is *untracked*: [`Env::facts`]
/// skips it, and equality compares tracked facts only, so top and absence
/// are the same state. Setting a name the table lacks extends the table
/// (a copy, off the solver's path: the solver builds every env over the
/// function's complete table).
#[derive(Debug)]
pub struct Env<V> {
    slots: Arc<Slots>,
    vals: Vec<V>,
    reachable: bool,
}

impl<V: AbstractValue> Env<V> {
    /// The bottom state: no path reaches this point yet.
    pub fn bottom() -> Self {
        Env::bottom_in(&Slots::empty())
    }

    /// A reachable state with no variable information (everything top).
    pub fn reachable_top() -> Self {
        Env::reachable_top_in(&Slots::empty())
    }

    /// The bottom state over a slot table.
    pub(crate) fn bottom_in(slots: &Arc<Slots>) -> Self {
        Env { slots: slots.clone(), vals: vec![V::top(); slots.len()], reachable: false }
    }

    /// The reachable all-top state over a slot table.
    pub(crate) fn reachable_top_in(slots: &Arc<Slots>) -> Self {
        Env { reachable: true, ..Env::bottom_in(slots) }
    }

    /// Whether any path reaches this point.
    pub fn is_reachable(&self) -> bool {
        self.reachable
    }

    /// The abstract value of `name` (top when untracked).
    pub fn get(&self, name: &str) -> V {
        match self.slots.slot(name) {
            Some(i) => self.vals[i].clone(),
            None => V::top(),
        }
    }

    /// Binds `name` to `v` (binding top untracks it).
    pub fn set(&mut self, name: &str, v: V) {
        match self.slots.slot(name) {
            Some(i) => self.vals[i] = v,
            None if v == V::top() => {}
            None => {
                let mut names = self.slots.names.to_vec();
                names.push(Symbol::new(name));
                let slots = Arc::new(Slots::from_names(names));
                let mut vals = vec![V::top(); slots.len()];
                for (n, old) in self.slots.names.iter().zip(self.vals.drain(..)) {
                    vals[slots.slot(n).expect("extended table keeps every name")] = old;
                }
                vals[slots.slot(name).expect("extended table has the new name")] = v;
                self.slots = slots;
                self.vals = vals;
            }
        }
    }

    /// Drops all information about `name` (≡ top).
    pub fn havoc(&mut self, name: &str) {
        if let Some(i) = self.slots.slot(name) {
            self.vals[i] = V::top();
        }
    }

    /// Iterates over explicitly tracked `(variable, value)` facts in
    /// deterministic (sorted) order.
    pub fn facts(&self) -> impl Iterator<Item = (&str, &V)> {
        let top = V::top();
        self.slots
            .names
            .iter()
            .zip(&self.vals)
            .filter(move |(_, v)| **v != top)
            .map(|(n, v)| (n.as_str(), v))
    }

    /// Least upper bound of two states. Variables tracked on only one side
    /// join with implicit top and therefore drop out.
    pub fn join(&self, other: &Self) -> Self {
        self.combine(other, V::join)
    }

    /// Widening: like [`Env::join`] but uses the value-level widening for
    /// variables tracked on both sides (`self` is the previous iterate).
    pub fn widen(&self, other: &Self) -> Self {
        self.combine(other, V::widen)
    }

    /// Slot-wise `op` over variables tracked on both sides; the result
    /// lives on `self`'s table (a name missing from `self` cannot be
    /// tracked on both sides).
    fn combine(&self, other: &Self, op: impl Fn(&V, &V) -> V) -> Self {
        if !self.reachable {
            return other.clone();
        }
        if !other.reachable {
            return self.clone();
        }
        let top = V::top();
        let pair = |a: &V, b: &V| if *a == top || *b == top { top.clone() } else { op(a, b) };
        let vals = if Arc::ptr_eq(&self.slots, &other.slots) {
            self.vals.iter().zip(&other.vals).map(|(a, b)| pair(a, b)).collect()
        } else {
            self.slots.names.iter().zip(&self.vals).map(|(n, a)| pair(a, &other.get(n))).collect()
        };
        Env { slots: self.slots.clone(), vals, reachable: true }
    }
}

impl<V: Clone> Clone for Env<V> {
    fn clone(&self) -> Self {
        Env { slots: self.slots.clone(), vals: self.vals.clone(), reachable: self.reachable }
    }

    fn clone_from(&mut self, source: &Self) {
        self.slots.clone_from(&source.slots);
        self.vals.clone_from(&source.vals);
        self.reachable = source.reachable;
    }
}

impl<V: AbstractValue> PartialEq for Env<V> {
    fn eq(&self, other: &Self) -> bool {
        self.reachable == other.reachable
            && if Arc::ptr_eq(&self.slots, &other.slots) {
                self.vals == other.vals
            } else {
                self.facts().eq(other.facts())
            }
    }
}

impl<V: AbstractValue> fmt::Display for Env<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.reachable {
            return write!(f, "⊥");
        }
        write!(f, "{{")?;
        for (i, (k, v)) in self.facts().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{k}: {v}")?;
        }
        write!(f, "}}")
    }
}

/// An abstract domain: a value lattice plus the transfer functions that
/// interpret CFG instructions and branch outcomes over it.
///
/// Domains carry their own interprocedural summary table (function name →
/// abstract return value) so call expressions can be evaluated without the
/// solver knowing anything about the call graph.
pub trait Domain {
    /// The value lattice.
    type Value: AbstractValue;

    /// Stable domain name, used in metrics keys and evidence traces.
    fn name(&self) -> &'static str;

    /// Seeds the function's entry state, which starts reachable and all
    /// top (e.g. marks parameters initialized).
    fn seed_entry(&self, _func: &Function, _env: &mut Env<Self::Value>) {}

    /// Applies one instruction to the state.
    fn transfer(&self, env: &mut Env<Self::Value>, inst: &CfgInst);

    /// Evaluates an expression in a state (used for return summaries and by
    /// checkers). Domains without a natural expression semantics return top.
    fn eval(&self, _env: &Env<Self::Value>, _e: &Expr) -> Self::Value {
        Self::Value::top()
    }

    /// Refines the state along a branch edge: `taken` is `true` on the first
    /// successor of a [`CfgInst::Branch`] block, `false` on the fallthrough.
    fn refine(&self, _env: &mut Env<Self::Value>, _cond: &Expr, _taken: bool) {}
}

/// Variable names read by an instruction, excluding variables that only
/// appear under `&` (address-of is not a read of the value — it typically
/// hands the location to a callee as an out-parameter).
pub fn inst_reads(inst: &CfgInst) -> Vec<&str> {
    let mut out = Vec::new();
    match inst {
        CfgInst::Decl { init, .. } => {
            if let Some(e) = init {
                collect_value_reads(e, &mut out);
            }
        }
        CfgInst::Assign { target, value } => {
            match target {
                LValue::Var(_) => {}
                LValue::Deref(e) => collect_value_reads(e, &mut out),
                LValue::Index(b, i) => {
                    collect_value_reads(b, &mut out);
                    collect_value_reads(i, &mut out);
                }
            }
            collect_value_reads(value, &mut out);
        }
        CfgInst::Expr(e) | CfgInst::Branch(e) => collect_value_reads(e, &mut out),
        CfgInst::Return(e) => {
            if let Some(e) = e {
                collect_value_reads(e, &mut out);
            }
        }
    }
    out
}

fn collect_value_reads<'a>(e: &'a Expr, out: &mut Vec<&'a str>) {
    match &e.kind {
        ExprKind::Var(name) => out.push(name),
        ExprKind::Unary(UnOp::AddrOf, inner) => {
            // `&x` is not a value read of `x`; still descend into nested
            // non-variable operands like `&a[i]`.
            if !matches!(inner.kind, ExprKind::Var(_)) {
                collect_value_reads(inner, out);
            }
        }
        ExprKind::Unary(_, inner) => collect_value_reads(inner, out),
        ExprKind::Binary(_, l, r) => {
            collect_value_reads(l, out);
            collect_value_reads(r, out);
        }
        ExprKind::Call(_, args) => args.iter().for_each(|a| collect_value_reads(a, out)),
        ExprKind::Index(b, i) => {
            collect_value_reads(b, out);
            collect_value_reads(i, out);
        }
        ExprKind::Int(_) | ExprKind::Char(_) | ExprKind::Str(_) => {}
    }
}

/// Variable names that appear under a unary `&` anywhere in the instruction;
/// a callee receiving `&x` may initialise or overwrite `x`, so domains havoc
/// (or promote) these after the instruction executes.
pub fn inst_addr_taken(inst: &CfgInst) -> Vec<&str> {
    fn visit<'a>(e: &'a Expr, out: &mut Vec<&'a str>) {
        e.walk(&mut |sub| {
            if let ExprKind::Unary(UnOp::AddrOf, inner) = &sub.kind {
                if let ExprKind::Var(name) = &inner.kind {
                    out.push(name.as_str());
                }
            }
        });
    }
    let mut out = Vec::new();
    match inst {
        CfgInst::Decl { init: Some(e), .. }
        | CfgInst::Expr(e)
        | CfgInst::Branch(e)
        | CfgInst::Return(Some(e)) => visit(e, &mut out),
        CfgInst::Assign { value, .. } => visit(value, &mut out),
        _ => {}
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::absint::interval::Interval;
    use crate::absint::nullness::Nullness;
    use proptest::prelude::*;

    /// Reference model: the name-keyed map environment, where top is
    /// represented by absence.
    #[derive(Debug, Clone, PartialEq)]
    struct Model<V> {
        vars: BTreeMap<String, V>,
        reachable: bool,
    }

    impl<V: AbstractValue> Model<V> {
        fn new(reachable: bool) -> Self {
            Model { vars: BTreeMap::new(), reachable }
        }

        fn set(&mut self, name: &str, v: V) {
            if v == V::top() {
                self.vars.remove(name);
            } else {
                self.vars.insert(name.to_string(), v);
            }
        }

        fn combine(&self, other: &Self, op: impl Fn(&V, &V) -> V) -> Self {
            if !self.reachable {
                return other.clone();
            }
            if !other.reachable {
                return self.clone();
            }
            let mut out = Model::new(true);
            for (k, a) in &self.vars {
                if let Some(b) = other.vars.get(k) {
                    out.set(k, op(a, b));
                }
            }
            out
        }

        fn render(&self) -> String {
            if !self.reachable {
                return "⊥".into();
            }
            let facts: Vec<String> = self.vars.iter().map(|(k, v)| format!("{k}: {v}")).collect();
            format!("{{{}}}", facts.join(", "))
        }
    }

    /// Values drawn from a seed: top and bottom among them, so the
    /// top-canonicalisation and bottom cases come up often.
    trait Draw: AbstractValue {
        fn draw(seed: u64) -> Self;
    }

    impl Draw for Interval {
        fn draw(seed: u64) -> Self {
            let a = (seed >> 8) as i64 % 5 - 2;
            let b = a + (seed >> 16) as i64 % 4;
            match seed % 6 {
                0 => Interval::TOP,
                1 => Interval::BOTTOM,
                2 => Interval::point(a),
                3 => Interval::range(a as i128, i128::MAX),
                4 => Interval::range(i128::MIN, b as i128),
                _ => Interval::range(a as i128, b as i128),
            }
        }
    }

    impl Draw for Nullness {
        fn draw(seed: u64) -> Self {
            use Nullness::*;
            [Bottom, Null, NonNull, MaybeNull, Unknown][(seed % 5) as usize]
        }
    }

    /// Names inside the slot table, plus two it lacks (`buf`, `zz`), which
    /// exercise table growth and joins across different tables.
    const NAMES: [&str; 6] = ["a", "b", "i", "n", "buf", "zz"];

    fn check_against_model<V: Draw>(ops: &[u64]) -> Result<(), String> {
        let slots = Arc::new(Slots::from_names(NAMES[..4].iter().map(Symbol::new).collect()));
        let mut pool: Vec<(Env<V>, Model<V>)> = vec![
            (Env::reachable_top_in(&slots), Model::new(true)),
            (Env::bottom_in(&slots), Model::new(false)),
            (Env::reachable_top(), Model::new(true)),
            (Env::bottom(), Model::new(false)),
        ];
        for &op in ops {
            let i = (op >> 4) as usize % pool.len();
            let j = (op >> 12) as usize % pool.len();
            let name = NAMES[(op >> 20) as usize % NAMES.len()];
            let v = V::draw(op >> 28);
            match op % 5 {
                0 | 1 => {
                    pool[i].0.set(name, v.clone());
                    pool[i].1.set(name, v);
                }
                2 => {
                    pool[i].0.havoc(name);
                    pool[i].1.vars.remove(name);
                }
                3 => {
                    let env = pool[i].0.join(&pool[j].0);
                    let model = pool[i].1.combine(&pool[j].1, V::join);
                    pool.push((env, model));
                }
                _ => {
                    let env = pool[i].0.widen(&pool[j].0);
                    let model = pool[i].1.combine(&pool[j].1, V::widen);
                    pool.push((env, model));
                }
            }
            if pool.len() > 8 {
                pool.remove(4);
            }
            for (env, model) in &pool {
                let facts: Vec<(String, V)> =
                    env.facts().map(|(k, v)| (k.to_string(), v.clone())).collect();
                let want: Vec<(String, V)> =
                    model.vars.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
                prop_assert_eq!(facts, want);
                prop_assert_eq!(env.is_reachable(), model.reachable);
                prop_assert_eq!(env.to_string(), model.render());
                for n in NAMES {
                    prop_assert_eq!(env.get(n), model.vars.get(n).cloned().unwrap_or_else(V::top));
                }
            }
            for (a, ma) in &pool {
                for (b, mb) in &pool {
                    prop_assert_eq!(a == b, ma == mb, "{} vs {}", a, b);
                }
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        #[test]
        fn interval_env_agrees_with_the_map_model(ops in prop::collection::vec(any::<u64>(), 1..60)) {
            check_against_model::<Interval>(&ops)?;
        }

        #[test]
        fn nullness_env_agrees_with_the_map_model(ops in prop::collection::vec(any::<u64>(), 1..60)) {
            check_against_model::<Nullness>(&ops)?;
        }
    }

    #[test]
    fn slots_are_sorted_and_cover_every_name_the_transfers_touch() {
        let p = crate::parse(
            "int f(int n) { int *p = 0; int z; z = n; *p = 1; char b[4]; b[0] = 'x'; \
             use(&q); return n; }",
        )
        .unwrap();
        let slots = Slots::of_function(&p.functions[0]);
        let names: Vec<&str> = slots.names.iter().map(Symbol::as_str).collect();
        assert_eq!(names, ["b", "n", "p", "q", "z"]);
        assert_eq!(slots.slot("p"), Some(2));
        assert_eq!(slots.slot("missing"), None);
    }

    #[test]
    fn top_is_absence_and_bottom_is_unreachable() {
        let slots = Arc::new(Slots::from_names(vec![Symbol::new("x")]));
        let mut env: Env<Interval> = Env::reachable_top_in(&slots);
        env.set("x", Interval::point(3));
        env.set("x", Interval::TOP);
        assert_eq!(env, Env::reachable_top(), "an explicit top equals an empty env");
        assert_eq!(env.facts().count(), 0);
        let bottom = Env::bottom_in(&slots);
        assert_ne!(bottom, env);
        assert_eq!(bottom.join(&env), env);
        assert_eq!(env.join(&bottom), env);
        assert_eq!(bottom.to_string(), "⊥");
    }
}
