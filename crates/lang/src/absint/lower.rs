//! The lowered form the abstract domains interpret: each function's CFG
//! instructions, lowered once when its [`FnShape`](super::FnShape) is
//! built.
//!
//! Lowering resolves, once, every name a transfer function would otherwise
//! look up on each visit:
//!
//! * variables become slots of the function's slot table, so a `Var` node
//!   reads its [`Env`](super::Env) by index;
//! * expressions live in one per-function arena of [`Node`]s addressed by
//!   [`NodeId`], children before parents;
//! * every called name becomes an entry of a function-local callee table,
//!   classified once by [`CalleeKind`]. The driver resolves that table
//!   against a domain's summaries once per function solve (a
//!   [`Frame`](super::Frame)), so a call site costs an index;
//! * every instruction ([`Inst`]) carries the facts its transfer functions
//!   and checkers derive from it: the slots it reads, the slots it hands
//!   out under `&`, its calls, its index accesses, its divisors and the
//!   slots it dereferences.
//!
//! The form holds no program-wide indices: callees are names, not
//! call-graph nodes, resolved against a domain's summaries (or the taint
//! engine's configuration and summaries) once per solve. It does hold
//! source spans: each instruction's statement span ([`SpannedInst`]) and
//! each call node's call-expression span ([`Lowered::call_span`]), kept in
//! a side pool so [`Node`] stays small and `Copy`. Both are absolute byte
//! offsets, which is sound for the stage cache only because a function's
//! fingerprint covers its position; rebasing the cache key onto
//! position-free fingerprints must rebase both kinds of span together. A shape cached by fingerprint is therefore valid in
//! every program that contains the function at that position; summaries
//! come in only through the per-solve callee resolution.

use super::domain::Slots;
use super::ownership::{ALLOC_FNS, FREE_FNS, HANDOFF_FNS};
use super::provenance::{sanitizer_mask, SOURCE_FNS};
use crate::ast::{BinOp, Expr, ExprKind, Function, LValue, Type, UnOp};
use crate::cfg::{Cfg, Lower, SpannedInst};
use crate::intern::Symbol;
use crate::span::Span;

/// Index of a variable in a function's slot table.
pub type Slot = u32;

/// Index of a [`Node`] in a function's expression arena.
pub type NodeId = u32;

/// A slot no table holds; it reads as top. Only the standalone lowering
/// behind [`Domain::eval`](super::Domain::eval) produces it, for a name the
/// environment's table lacks.
const NO_SLOT: Slot = Slot::MAX;

/// A contiguous run of one of the [`Lowered`] pools.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Seq {
    start: u32,
    end: u32,
}

impl Seq {
    fn from(start: usize, end: usize) -> Seq {
        Seq { start: start as u32, end: end as u32 }
    }

    fn of<T>(pool: &[T], s: Seq) -> &[T] {
        &pool[s.start as usize..s.end as usize]
    }
}

/// One expression node. Operands are arena indices; call arguments are a
/// run of the argument pool ([`Lowered::args`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Node {
    /// Integer literal.
    Int(i64),
    /// Character literal, as its code point.
    Char(i64),
    /// String literal.
    Str,
    /// Variable read.
    Var(Slot),
    /// Unary operation.
    Unary(UnOp, NodeId),
    /// Binary operation.
    Binary(BinOp, NodeId, NodeId),
    /// Call of callee-table entry `.0` with arguments `.1`.
    Call(u32, Seq),
    /// `base[index]`.
    Index(NodeId, NodeId),
}

/// What a declaration declares, as far as the domains care.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Storage {
    /// Any scalar but `char`: `int`, pointers.
    Scalar,
    /// A scalar `char` (the narrowing target of the width checker).
    Char,
    /// An array of the given length.
    Array(usize),
}

/// An assignment target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    /// `x = …`.
    Var(Slot),
    /// `*e = …`.
    Deref(NodeId),
    /// `base[index] = …`.
    Index(NodeId, NodeId),
}

/// A lowered statement: what one block instruction does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Declaration, possibly initialized.
    Decl {
        /// The declared variable.
        slot: Slot,
        /// What it declares.
        storage: Storage,
        /// The initializer.
        init: Option<NodeId>,
    },
    /// Assignment.
    Assign {
        /// Where the value goes.
        target: Target,
        /// The assigned value.
        value: NodeId,
    },
    /// Expression statement.
    Expr(NodeId),
    /// Return.
    Return(Option<NodeId>),
    /// Block-terminating branch condition.
    Branch(NodeId),
}

impl Op {
    /// The expression the instruction evaluates: initializer, assigned
    /// value, statement, returned value or condition.
    pub fn value(&self) -> Option<NodeId> {
        match *self {
            Op::Decl { init, .. } | Op::Return(init) => init,
            Op::Assign { value, .. } | Op::Expr(value) | Op::Branch(value) => Some(value),
        }
    }

    /// The expressions of an indirect assignment target, in source order.
    fn target_exprs(&self) -> [Option<NodeId>; 2] {
        match *self {
            Op::Assign { target: Target::Deref(e), .. } => [Some(e), None],
            Op::Assign { target: Target::Index(b, i), .. } => [Some(b), Some(i)],
            _ => [None, None],
        }
    }

    /// Every expression of the instruction: the evaluated one first, then
    /// the target's.
    fn exprs(&self) -> impl Iterator<Item = NodeId> {
        let [b, i] = self.target_exprs();
        [self.value(), b, i].into_iter().flatten()
    }
}

/// One `base[index]` access whose base is a plain variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// The indexed variable.
    pub base: Slot,
    /// The index expression.
    pub index: NodeId,
    /// Whether the access is the store of an indexed assignment.
    pub is_write: bool,
}

/// A function's CFG with lowered instructions: the blocks and edges of
/// [`Cfg::build`], each instruction an [`Inst`] with its statement's span.
pub type LoweredCfg = Cfg<SpannedInst<Inst>>;

/// A lowered instruction and the per-instruction facts derived from it,
/// each a run of a [`Lowered`] pool (read them through its accessors).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Inst {
    /// The operation.
    pub op: Op,
    reads: Seq,
    addr_taken: Seq,
    derefs: Seq,
    calls: Seq,
    value_calls: Seq,
    accesses: Seq,
    divisors: Seq,
}

impl Inst {
    /// `op`, its facts not derived yet.
    fn of(op: Op) -> Inst {
        let none = Seq::default();
        Inst {
            op,
            reads: none,
            addr_taken: none,
            derefs: none,
            calls: none,
            value_calls: none,
            accesses: none,
            divisors: none,
        }
    }
}

/// How the domains treat a callee, decided once from its name. The
/// vocabularies are disjoint, so one kind per name is exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CalleeKind {
    /// An attacker-controlled source ([`SOURCE_FNS`]).
    Source,
    /// A sanitizer granting these sink kinds ([`sanitizer_mask`]).
    Sanitizer(u8),
    /// `concat`, which forwards its operands' provenance.
    Concat,
    /// An allocator ([`ALLOC_FNS`]).
    Alloc,
    /// A release of the first argument ([`FREE_FNS`]).
    Free,
    /// An ownership handoff of the first argument ([`HANDOFF_FNS`]).
    Handoff,
    /// Anything else: the callee's summary, or the domain's fallback.
    Summary,
}

impl CalleeKind {
    /// The kind of a callee named `name`.
    fn of(name: &str) -> CalleeKind {
        if SOURCE_FNS.contains(&name) {
            CalleeKind::Source
        } else if let Some(mask) = sanitizer_mask(name) {
            CalleeKind::Sanitizer(mask)
        } else if name == "concat" {
            CalleeKind::Concat
        } else if ALLOC_FNS.contains(&name) {
            CalleeKind::Alloc
        } else if FREE_FNS.contains(&name) {
            CalleeKind::Free
        } else if HANDOFF_FNS.contains(&name) {
            CalleeKind::Handoff
        } else {
            CalleeKind::Summary
        }
    }
}

/// One entry of a function's callee table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Callee {
    /// The called name.
    pub name: Symbol,
    /// Its classification.
    pub kind: CalleeKind,
}

/// One function lowered; see the [module docs](self).
#[derive(Debug, Default)]
pub struct Lowered {
    nodes: Vec<Node>,
    /// Call arguments.
    args: Vec<NodeId>,
    /// Each call node's source span, ascending by node.
    call_spans: Vec<(NodeId, Span)>,
    /// Per-instruction slot and node lists, and the parameters.
    list: Vec<u32>,
    accesses: Vec<Access>,
    /// The callee table, in first-call order.
    pub callees: Vec<Callee>,
    params: Seq,
}

impl Lowered {
    /// Builds the CFG of `func` with its instructions lowered, and returns
    /// it with the expression arena, pools and callee table they index and
    /// the function's slot table: every parameter and every variable the
    /// instructions name, sorted by name.
    pub(crate) fn build(func: &Function) -> (LoweredCfg, Lowered, Slots) {
        // Room for a typical function, so the pools rarely grow.
        let out = Lowered {
            nodes: Vec::with_capacity(64),
            args: Vec::with_capacity(16),
            call_spans: Vec::with_capacity(16),
            list: Vec::with_capacity(64),
            callees: Vec::with_capacity(8),
            ..Lowered::default()
        };
        let mut l = Lowerer { table: None, names: Vec::with_capacity(16), out };
        for p in &func.params {
            let slot = l.slot(&p.name);
            l.out.list.push(slot);
        }
        l.out.params = Seq::from(0, l.out.list.len());
        let mut cfg = Cfg::build_with(func, &mut l);

        // Slots were numbered in order of first mention; renumber them in
        // name order, the order of the slot table.
        let mut order: Vec<u32> = (0..l.names.len() as u32).collect();
        order.sort_unstable_by(|&a, &b| l.names[a as usize].as_str().cmp(&l.names[b as usize]));
        let mut rank = vec![0; order.len()];
        for (r, &s) in order.iter().enumerate() {
            rank[s as usize] = r as Slot;
        }
        let rename = |s: &mut Slot| *s = rank[*s as usize];
        let mut out = l.out;
        out.list.iter_mut().for_each(rename);
        for node in &mut out.nodes {
            if let Node::Var(s) = node {
                rename(s);
            }
        }
        for inst in cfg.blocks.iter_mut().flat_map(|b| &mut b.insts) {
            if let Op::Decl { slot, .. } | Op::Assign { target: Target::Var(slot), .. } =
                &mut inst.inst.op
            {
                rename(slot);
            }
            inst.inst = out.derive(inst.inst.op);
        }
        let slots = Slots::from_names(order.iter().map(|&s| l.names[s as usize].clone()).collect());
        (cfg, out, slots)
    }

    /// Lowers one free-standing expression over `slots`; names the table
    /// lacks read as top.
    pub(crate) fn expr(e: &Expr, slots: &Slots) -> (Lowered, NodeId) {
        let mut l = Lowerer { table: Some(slots), names: Vec::new(), out: Lowered::default() };
        let node = l.expr(e);
        (l.out, node)
    }

    /// Node `n`.
    #[inline]
    pub fn node(&self, n: NodeId) -> Node {
        self.nodes[n as usize]
    }

    /// A call's argument nodes.
    #[inline]
    pub fn args(&self, args: Seq) -> &[NodeId] {
        Seq::of(&self.args, args)
    }

    /// The parameter slots, in declaration order.
    pub fn params(&self) -> &[Slot] {
        Seq::of(&self.list, self.params)
    }

    /// Slots whose values the instruction reads, in evaluation order with
    /// repeats: the target's expressions, then the evaluated one. A
    /// variable under `&` is not read (address-of hands the location out,
    /// typically as an out-parameter).
    pub fn reads(&self, inst: &Inst) -> &[Slot] {
        Seq::of(&self.list, inst.reads)
    }

    /// Slots under a unary `&` in the evaluated expression: a callee
    /// receiving `&x` may initialise or overwrite `x`, so domains havoc (or
    /// promote) these after the instruction.
    #[inline]
    pub fn addr_taken(&self, inst: &Inst) -> &[Slot] {
        Seq::of(&self.list, inst.addr_taken)
    }

    /// Slots the instruction dereferences (`*p`, `p[i]`, and stores through
    /// either), ascending — which is name order.
    pub fn derefs(&self, inst: &Inst) -> &[Slot] {
        Seq::of(&self.list, inst.derefs)
    }

    /// Call nodes of every expression of the instruction, in pre-order,
    /// the evaluated expression first.
    pub fn calls(&self, inst: &Inst) -> &[NodeId] {
        Seq::of(&self.list, inst.calls)
    }

    /// Call nodes of the evaluated expression alone, in pre-order.
    #[inline]
    pub fn value_calls(&self, inst: &Inst) -> &[NodeId] {
        Seq::of(&self.list, inst.value_calls)
    }

    /// Index accesses with a plain-variable base: an indexed store first,
    /// then every `base[index]` read in pre-order.
    pub fn accesses(&self, inst: &Inst) -> &[Access] {
        Seq::of(&self.accesses, inst.accesses)
    }

    /// Right operands of every `/` and `%`, in pre-order.
    pub fn divisors(&self, inst: &Inst) -> &[NodeId] {
        Seq::of(&self.list, inst.divisors)
    }

    /// The span of call node `n`'s call expression.
    ///
    /// # Panics
    ///
    /// If `n` is not a call node.
    pub fn call_span(&self, n: NodeId) -> Span {
        let i = self.call_spans.binary_search_by_key(&n, |&(c, _)| c).expect("a call node");
        self.call_spans[i].1
    }

    /// A call node's callee entry and first argument.
    pub fn call(&self, n: NodeId) -> Option<(&Callee, Option<NodeId>)> {
        match self.node(n) {
            Node::Call(c, args) => {
                Some((&self.callees[c as usize], self.args(args).first().copied()))
            }
            _ => None,
        }
    }

    /// Appends every variable slot in the subtree of `n` (under `&`
    /// included) to `out`.
    pub fn vars_under(&self, n: NodeId, out: &mut Vec<Slot>) {
        self.walk(n, &mut |_, node| {
            if let Node::Var(s) = node {
                out.push(s);
            }
        });
    }

    /// Visits the subtree of `n` in pre-order.
    fn walk(&self, n: NodeId, f: &mut impl FnMut(NodeId, Node)) {
        let node = self.node(n);
        f(n, node);
        match node {
            Node::Unary(_, e) => self.walk(e, f),
            Node::Binary(_, l, r) | Node::Index(l, r) => {
                self.walk(l, f);
                self.walk(r, f);
            }
            Node::Call(_, args) => {
                for &a in self.args(args) {
                    self.walk(a, f);
                }
            }
            Node::Int(_) | Node::Char(_) | Node::Str | Node::Var(_) => {}
        }
    }

    /// The slot `n` reads if it is a plain variable.
    fn var(&self, n: NodeId) -> Option<Slot> {
        match self.node(n) {
            Node::Var(s) => Some(s),
            _ => None,
        }
    }

    /// Appends the value reads of `n` to `out` (see [`Lowered::reads`]).
    fn value_reads(&self, n: NodeId, out: &mut Vec<u32>) {
        match self.node(n) {
            Node::Var(s) => out.push(s),
            // `&x` is not a value read of `x`; nested non-variable operands
            // like `&a[i]` still are.
            Node::Unary(UnOp::AddrOf, e) if self.var(e).is_some() => {}
            Node::Unary(_, e) => self.value_reads(e, out),
            Node::Binary(_, l, r) | Node::Index(l, r) => {
                self.value_reads(l, out);
                self.value_reads(r, out);
            }
            Node::Call(_, args) => {
                for &a in self.args(args) {
                    self.value_reads(a, out);
                }
            }
            Node::Int(_) | Node::Char(_) | Node::Str => {}
        }
    }
}

/// Lowers expressions and instructions into a [`Lowered`]'s arena.
struct Lowerer<'s> {
    /// The slot table names are looked up in; without one, each new name
    /// takes the next slot of `names`.
    table: Option<&'s Slots>,
    names: Vec<Symbol>,
    out: Lowered,
}

impl Lowerer<'_> {
    fn slot(&mut self, name: &Symbol) -> Slot {
        if let Some(table) = self.table {
            return table.slot(name).map_or(NO_SLOT, |s| s as Slot);
        }
        let i = self.names.iter().position(|n| n == name).unwrap_or_else(|| {
            self.names.push(name.clone());
            self.names.len() - 1
        });
        i as Slot
    }

    fn callee(&mut self, name: &Symbol) -> u32 {
        let table = &mut self.out.callees;
        let i = table.iter().position(|c| c.name == *name).unwrap_or_else(|| {
            table.push(Callee { name: name.clone(), kind: CalleeKind::of(name) });
            table.len() - 1
        });
        i as u32
    }

    fn expr(&mut self, e: &Expr) -> NodeId {
        let node = match &e.kind {
            ExprKind::Int(v) => Node::Int(*v),
            ExprKind::Char(c) => Node::Char(*c as i64),
            ExprKind::Str(_) => Node::Str,
            ExprKind::Var(name) => Node::Var(self.slot(name)),
            ExprKind::Unary(op, inner) => Node::Unary(*op, self.expr(inner)),
            ExprKind::Binary(op, l, r) => Node::Binary(*op, self.expr(l), self.expr(r)),
            ExprKind::Index(b, i) => Node::Index(self.expr(b), self.expr(i)),
            ExprKind::Call(name, args) => {
                let callee = self.callee(name);
                // Reserve the run first: nested calls append their own
                // arguments behind it.
                let start = self.out.args.len();
                self.out.args.resize(start + args.len(), 0);
                for (k, a) in args.iter().enumerate() {
                    self.out.args[start + k] = self.expr(a);
                }
                let n = self.push(Node::Call(callee, Seq::from(start, start + args.len())));
                self.out.call_spans.push((n, e.span));
                return n;
            }
        };
        self.push(node)
    }

    /// The read of an assignment target, for a compound assignment's
    /// left operand.
    fn target_read(&mut self, target: &LValue) -> NodeId {
        let node = match target {
            LValue::Var(name) => Node::Var(self.slot(name)),
            LValue::Deref(e) => Node::Unary(UnOp::Deref, self.expr(e)),
            LValue::Index(b, i) => Node::Index(self.expr(b), self.expr(i)),
        };
        self.push(node)
    }

    fn push(&mut self, node: Node) -> NodeId {
        self.out.nodes.push(node);
        (self.out.nodes.len() - 1) as NodeId
    }
}

/// Statements lower to an [`Op`] whose derived facts [`Lowered::build`]
/// fills in once every slot has its final number.
impl Lower for Lowerer<'_> {
    type Inst = SpannedInst<Inst>;

    fn decl(&mut self, name: &Symbol, ty: &Type, init: Option<&Expr>, span: Span) -> Self::Inst {
        let storage = match ty {
            Type::Array(_, n) => Storage::Array(*n),
            Type::Char => Storage::Char,
            _ => Storage::Scalar,
        };
        let op = Op::Decl { slot: self.slot(name), storage, init: init.map(|e| self.expr(e)) };
        SpannedInst { inst: Inst::of(op), span }
    }

    /// `x op= e` lowers as `x = x op e`, so the domains see plain stores.
    fn assign(
        &mut self,
        target: &LValue,
        value: &Expr,
        op: Option<BinOp>,
        span: Span,
    ) -> Self::Inst {
        let value = match op {
            None => self.expr(value),
            Some(op) => {
                let read = self.target_read(target);
                let value = self.expr(value);
                self.push(Node::Binary(op, read, value))
            }
        };
        let target = match target {
            LValue::Var(name) => Target::Var(self.slot(name)),
            LValue::Deref(e) => Target::Deref(self.expr(e)),
            LValue::Index(b, i) => Target::Index(self.expr(b), self.expr(i)),
        };
        SpannedInst { inst: Inst::of(Op::Assign { target, value }), span }
    }

    fn expr(&mut self, e: &Expr, span: Span) -> Self::Inst {
        SpannedInst { inst: Inst::of(Op::Expr(Lowerer::expr(self, e))), span }
    }

    fn ret(&mut self, e: Option<&Expr>, span: Span) -> Self::Inst {
        SpannedInst { inst: Inst::of(Op::Return(e.map(|e| Lowerer::expr(self, e)))), span }
    }

    fn branch(&mut self, cond: &Expr, span: Span) -> Self::Inst {
        SpannedInst { inst: Inst::of(Op::Branch(Lowerer::expr(self, cond))), span }
    }
}

impl Lowered {
    /// `op` with the per-instruction facts derived from its expressions.
    fn derive(&mut self, op: Op) -> Inst {
        let mut list = std::mem::take(&mut self.list);
        let mut accesses = std::mem::take(&mut self.accesses);
        let l = &*self;
        let targets = op.target_exprs().into_iter().flatten();

        let start = list.len();
        for e in targets.clone().chain(op.value()) {
            l.value_reads(e, &mut list);
        }
        let reads = Seq::from(start, list.len());

        let start = list.len();
        if let Some(v) = op.value() {
            l.walk(v, &mut |_, node| {
                if let Node::Unary(UnOp::AddrOf, e) = node {
                    list.extend(l.var(e));
                }
            });
        }
        let addr_taken = Seq::from(start, list.len());

        let start = list.len();
        if let Op::Assign { target: Target::Deref(e) | Target::Index(e, _), .. } = op {
            list.extend(l.var(e));
        }
        for e in op.exprs() {
            l.walk(e, &mut |_, node| {
                if let Node::Unary(UnOp::Deref, e) | Node::Index(e, _) = node {
                    list.extend(l.var(e));
                }
            });
        }
        let mut set = list.split_off(start);
        set.sort_unstable();
        set.dedup();
        list.extend(set);
        let derefs = Seq::from(start, list.len());

        let start = list.len();
        let push_calls = |e: NodeId, list: &mut Vec<u32>| {
            l.walk(e, &mut |n, node| {
                if let Node::Call(..) = node {
                    list.push(n);
                }
            })
        };
        op.value().into_iter().for_each(|e| push_calls(e, &mut list));
        let value_calls = Seq::from(start, list.len());
        targets.for_each(|e| push_calls(e, &mut list));
        let calls = Seq::from(start, list.len());

        let start = list.len();
        for e in op.exprs() {
            l.walk(e, &mut |_, node| {
                if let Node::Binary(BinOp::Div | BinOp::Rem, _, r) = node {
                    list.push(r);
                }
            });
        }
        let divisors = Seq::from(start, list.len());

        let start = accesses.len();
        if let Op::Assign { target: Target::Index(b, index), .. } = op {
            accesses.extend(l.var(b).map(|base| Access { base, index, is_write: true }));
        }
        for e in op.exprs() {
            l.walk(e, &mut |_, node| {
                if let Node::Index(b, index) = node {
                    accesses.extend(l.var(b).map(|base| Access { base, index, is_write: false }));
                }
            });
        }
        let access_run = Seq::from(start, accesses.len());

        self.list = list;
        self.accesses = accesses;
        Inst { op, reads, addr_taken, derefs, calls, value_calls, accesses: access_run, divisors }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::StmtKind;
    use crate::parser::parse;

    /// Spans of the call expressions under `e`, in pre-order.
    fn call_spans(e: &Expr, out: &mut Vec<Span>) {
        e.walk(&mut |e| {
            if let ExprKind::Call(..) = e.kind {
                out.push(e.span);
            }
        });
    }

    #[test]
    fn call_spans_are_the_call_expressions_spans() {
        let p = parse(
            "void f(int x, int y) { int a = h(f(x), g(k(y))); buf[f(x)] = g(y); \
             *p(x) = m(n(x)); buf[k(a)] += q(y); use(h(a)); return r(x); }",
        )
        .unwrap();
        let func = &p.functions[0];
        let (cfg, l, _) = Lowered::build(func);
        let insts = &cfg.blocks[cfg.entry].insts;
        assert_eq!(insts.len(), func.body.len(), "straight-line body");
        for (stmt, si) in func.body.iter().zip(insts) {
            // The evaluated expression first (a compound assignment reads its
            // target before the operand), then the target's expressions.
            let mut want = Vec::new();
            match &stmt.kind {
                StmtKind::Decl { init: Some(e), .. }
                | StmtKind::Expr(e)
                | StmtKind::Return(Some(e)) => call_spans(e, &mut want),
                StmtKind::Assign { target, value, op } => {
                    let target_exprs: Vec<&Expr> = match target {
                        LValue::Var(_) => vec![],
                        LValue::Deref(e) => vec![e],
                        LValue::Index(b, i) => vec![b, i],
                    };
                    if op.is_some() {
                        target_exprs.iter().for_each(|e| call_spans(e, &mut want));
                    }
                    call_spans(value, &mut want);
                    target_exprs.iter().for_each(|e| call_spans(e, &mut want));
                }
                other => panic!("unexpected statement {other:?}"),
            }
            assert!(!want.is_empty());
            let got: Vec<Span> = l.calls(&si.inst).iter().map(|&n| l.call_span(n)).collect();
            assert_eq!(got, want, "statement at {:?}", stmt.span);
        }
    }
}
