//! Lattice and transfer-function contracts shared by every abstract domain.

use super::lower::{Callee, Inst, Lowered, NodeId, Slot};
use crate::ast::Expr;
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

    /// Least upper bound of `self` and `other` (so `a.join(a) == a`).
    fn join(&self, other: &Self) -> Self;

    /// Widening `self ∇ other` where `self` is the previous iterate; like
    /// `join`, idempotent (`a.widen(a) == a`). The default is `join`, which
    /// is only correct for finite-height lattices.
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
    /// The table of `names`, sorted and deduplicated.
    pub(crate) fn from_names(mut names: Vec<Symbol>) -> Slots {
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

    /// The name in `slot`.
    pub(crate) fn name(&self, slot: Slot) -> &str {
        &self.names[slot as usize]
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
/// are the same state.
///
/// Transfer functions read and write by slot ([`Env::at`]); the solver
/// merges states with [`Env::join_into`] and [`Env::widen_into`], which
/// update in place and report whether anything changed. The name-keyed
/// accessors ([`Env::get`], [`Env::set`], [`Env::havoc`]) serve evidence
/// rendering and tests. Setting a name the table lacks extends the table
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

    /// The value in `slot` (top for a slot past the table).
    #[inline]
    pub fn at(&self, slot: Slot) -> V {
        match self.vals.get(slot as usize) {
            Some(v) => v.clone(),
            None => V::top(),
        }
    }

    /// Binds `slot` to `v` (binding top untracks it).
    #[inline]
    pub(crate) fn set_at(&mut self, slot: Slot, v: V) {
        if let Some(old) = self.vals.get_mut(slot as usize) {
            *old = v;
        }
    }

    /// Drops all information about `slot` (≡ top).
    #[inline]
    pub(crate) fn havoc_at(&mut self, slot: Slot) {
        self.set_at(slot, V::top());
    }

    /// Joins `other` into `self` in place and returns whether `self`
    /// changed — the same state and flag as `self.join(other)` followed by
    /// `!=`, with no new environment. Variables tracked on only one side
    /// join with implicit top and therefore drop out.
    pub fn join_into(&mut self, other: &Self) -> bool {
        self.combine_into(other, V::join)
    }

    /// Widens `self` (the previous iterate) by `other` in place, like
    /// [`Env::join_into`] but with the value-level widening for variables
    /// tracked on both sides.
    pub fn widen_into(&mut self, other: &Self) -> bool {
        self.combine_into(other, V::widen)
    }

    /// Slot-wise `op` over variables tracked on both sides, kept on
    /// `self`'s table (a name missing from `self` cannot be tracked on both
    /// sides). An unreachable side contributes nothing.
    fn combine_into(&mut self, other: &Self, op: impl Fn(&V, &V) -> V) -> bool {
        if Arc::ptr_eq(&self.slots, &other.slots) {
            return combine_parts(&mut self.vals, &mut self.reachable, other, op);
        }
        if !self.reachable {
            let changed = *self != *other;
            if changed {
                self.clone_from(other);
            }
            return changed;
        }
        if !other.reachable {
            return false;
        }
        let top = V::top();
        let mut changed = false;
        for (n, a) in self.slots.names.iter().zip(&mut self.vals) {
            changed |= combine_slot(a, &other.get(n), &top, &op);
        }
        changed
    }

    /// The slot values, in slot order.
    pub(crate) fn vals(&self) -> &[V] {
        &self.vals
    }

    /// Overwrites `self` with the state `vals` over `slots`, reachable or
    /// not, reusing `self`'s buffer.
    pub(crate) fn load(&mut self, slots: &Arc<Slots>, vals: &[V], reachable: bool) {
        if !Arc::ptr_eq(&self.slots, slots) {
            self.slots = slots.clone();
        }
        self.vals.clear();
        self.vals.extend_from_slice(vals);
        self.reachable = reachable;
    }
}

/// [`Env::join_into`] (or, with `V::widen`, [`Env::widen_into`]) for a
/// state held as its parts, `vals` over `other`'s table plus its
/// reachability: the same state and change flag.
pub(crate) fn combine_parts<V: AbstractValue>(
    vals: &mut [V],
    reachable: &mut bool,
    other: &Env<V>,
    op: impl Fn(&V, &V) -> V,
) -> bool {
    if !*reachable {
        let changed = other.reachable || *vals != *other.vals;
        if changed {
            vals.clone_from_slice(&other.vals);
            *reachable = other.reachable;
        }
        return changed;
    }
    if !other.reachable {
        return false;
    }
    let top = V::top();
    let mut changed = false;
    for (a, b) in vals.iter_mut().zip(&other.vals) {
        changed |= combine_slot(a, b, &top, &op);
    }
    changed
}

/// `a := a op b` for one slot, where top on either side stays top (an
/// untracked variable joins to untracked); returns whether `a` changed.
/// Equal sides leave `a` as it is, since `join` and `widen` are idempotent.
#[inline]
fn combine_slot<V: AbstractValue>(a: &mut V, b: &V, top: &V, op: &impl Fn(&V, &V) -> V) -> bool {
    if a == b {
        return false;
    }
    let next = if a == top || b == top { top.clone() } else { op(a, b) };
    let changed = next != *a;
    if changed {
        *a = next;
    }
    changed
}

impl<V: Clone> Clone for Env<V> {
    fn clone(&self) -> Self {
        Env { slots: self.slots.clone(), vals: self.vals.clone(), reachable: self.reachable }
    }

    fn clone_from(&mut self, source: &Self) {
        if !Arc::ptr_eq(&self.slots, &source.slots) {
            self.slots = source.slots.clone();
        }
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

/// A lowered function as one solve sees it: the body, and the value each
/// entry of its callee table resolved to ([`Domain::resolve`]), indexed
/// like `body.callees`. The driver builds one per function solve, so a
/// call site reads its callee's value by index.
#[derive(Debug, Clone, Copy)]
pub struct Frame<'a, V> {
    /// The lowered function.
    pub body: &'a Lowered,
    /// One resolved value per callee-table entry.
    pub calls: &'a [V],
}

impl<V: Clone> Frame<'_, V> {
    /// The resolved value of callee-table entry `c`.
    #[inline]
    pub fn call(&self, c: u32) -> V {
        self.calls[c as usize].clone()
    }
}

/// An abstract domain: a value lattice plus the transfer functions that
/// interpret the lowered instructions ([`Inst`]) and branch outcomes over
/// it.
///
/// Transfer functions read and write environments by slot and reach a
/// callee's summary through the [`Frame`]: no name is looked up while the
/// solver runs. Domains keep their interprocedural summary table (function
/// name → abstract return value) only for [`Domain::resolve`], which the
/// driver calls once per callee-table entry per function solve.
pub trait Domain {
    /// The value lattice.
    type Value: AbstractValue;

    /// Stable domain name, used in metrics keys and evidence traces.
    fn name(&self) -> &'static str;

    /// What a call to `callee` evaluates to, whatever its arguments: its
    /// summary if it has one, else the domain's value for the callee's
    /// kind. Domains whose calls depend on the arguments (sanitizers,
    /// `concat`) handle those kinds in [`Domain::eval_node`].
    fn resolve(&self, callee: &Callee) -> Self::Value;

    /// Seeds the function's entry state, which starts reachable and all
    /// top (e.g. marks parameters initialized).
    fn seed_entry(&self, _body: &Lowered, _env: &mut Env<Self::Value>) {}

    /// Applies one instruction to the state.
    fn transfer(&self, frame: &Frame<'_, Self::Value>, env: &mut Env<Self::Value>, inst: &Inst);

    /// Evaluates node `n` in a state (used for return summaries and by
    /// checkers). Domains without a natural expression semantics return
    /// top.
    fn eval_node(
        &self,
        _frame: &Frame<'_, Self::Value>,
        _env: &Env<Self::Value>,
        _n: NodeId,
    ) -> Self::Value {
        Self::Value::top()
    }

    /// Whether [`Domain::refine`] can change a state. The solver copies a
    /// block's exit state per branch edge only for domains that refine.
    const REFINES: bool = false;

    /// Refines the state along a branch edge: `taken` is `true` on the first
    /// successor of a [`Op::Branch`](super::lower::Op::Branch) block,
    /// `false` on the fallthrough.
    fn refine(
        &self,
        _frame: &Frame<'_, Self::Value>,
        _env: &mut Env<Self::Value>,
        _cond: NodeId,
        _taken: bool,
    ) {
    }

    /// Evaluates a source expression in a state, resolving its variables
    /// by name against the state's slot table (names it lacks are top) and
    /// its callees through [`Domain::resolve`]. For tests and evidence; the
    /// solver and checkers evaluate lowered nodes.
    fn eval(&self, env: &Env<Self::Value>, e: &Expr) -> Self::Value {
        let (body, node) = Lowered::expr(e, &env.slots);
        let calls: Vec<Self::Value> = body.callees.iter().map(|c| self.resolve(c)).collect();
        self.eval_node(&Frame { body: &body, calls: &calls }, env, node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::absint::interval::Interval;
    use crate::absint::nullness::Nullness;
    use crate::absint::provenance::{Provenance, KIND_ALL};
    use crate::absint::width::Width;
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

    impl Draw for Width {
        fn draw(seed: u64) -> Self {
            // Bounds near the storage-type ladder, so widening snaps.
            let a = [-200i128, -1, 0, 3, 127, 128, 40_000][(seed >> 8) as usize % 7];
            let b = a + [0i128, 1, 200, 70_000][(seed >> 16) as usize % 4];
            match seed % 5 {
                0 => Width::TOP,
                1 => Width::BOTTOM,
                2 => Width::range(a, i128::MAX),
                3 => Width::range(i128::MIN, b),
                _ => Width::range(a, b),
            }
        }
    }

    impl Draw for Provenance {
        fn draw(seed: u64) -> Self {
            use Provenance::*;
            let mask = (seed >> 8) as u8 & KIND_ALL;
            [Bottom, Clean, Ext(mask), MaybeExt(mask), Unknown][(seed % 5) as usize]
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
                3 | 4 => {
                    // The in-place op must leave the model's combination
                    // and report exactly whether the state changed.
                    let mut env = pool[i].0.clone();
                    let (changed, model) = if op % 5 == 3 {
                        (env.join_into(&pool[j].0), pool[i].1.combine(&pool[j].1, V::join))
                    } else {
                        (env.widen_into(&pool[j].0), pool[i].1.combine(&pool[j].1, V::widen))
                    };
                    prop_assert_eq!(
                        changed,
                        model != pool[i].1,
                        "{} into {}",
                        pool[j].0,
                        pool[i].0
                    );
                    pool.push((env, model));
                }
                _ => unreachable!(),
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

        #[test]
        fn width_env_agrees_with_the_map_model(ops in prop::collection::vec(any::<u64>(), 1..60)) {
            check_against_model::<Width>(&ops)?;
        }

        #[test]
        fn provenance_env_agrees_with_the_map_model(ops in prop::collection::vec(any::<u64>(), 1..60)) {
            check_against_model::<Provenance>(&ops)?;
        }
    }

    #[test]
    fn slots_are_sorted_and_cover_every_name_the_transfers_touch() {
        let p = crate::parse(
            "int f(int n, int unused) { int *p = 0; int z; z = n; *p = 1; char b[4]; \
             b[0] = 'x'; use(&q); return n; }",
        )
        .unwrap();
        let shape = crate::absint::FnShape::build(&p.functions[0]);
        let names: Vec<&str> = shape.slots.names.iter().map(Symbol::as_str).collect();
        assert_eq!(names, ["b", "n", "p", "q", "unused", "z"]);
        assert_eq!(shape.slots.slot("p"), Some(2));
        assert_eq!(shape.slots.slot("missing"), None);
        // Lowered slots index the sorted table.
        assert_eq!(shape.lowered.params(), [1, 4]);
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
        let mut joined = bottom.clone();
        assert!(joined.join_into(&env), "bottom grows to the reachable side");
        assert_eq!(joined, env);
        assert!(!env.clone().join_into(&bottom), "bottom contributes nothing");
        assert_eq!(bottom.to_string(), "⊥");
    }
}
