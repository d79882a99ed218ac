//! Control-flow graph construction.
//!
//! The AST's structured control flow is lowered to basic blocks. One
//! builder makes the blocks and edges; what each statement becomes is up to
//! a `Lower` implementation, so the builder knows nothing of the
//! instruction format. The one implementation is the lowering of
//! [`crate::absint::lower`]: slot-resolved instructions over a
//! per-function expression arena, built once per function into an
//! [`FnShape`](crate::absint::FnShape). The abstract domains and the taint
//! engine ([`crate::taint`]) interpret that form; [`Cfg::build`] returns
//! its blocks alone, for callers that need only the graph (the cyclomatic
//! number of [`crate::metrics`]).

use crate::absint::lower::{Inst, Lowered};
use crate::ast::*;
use crate::intern::Symbol;
use crate::span::Span;

/// Index of a basic block within a [`Cfg`].
pub type BlockId = usize;

/// An instruction plus its source span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpannedInst<I = Inst> {
    /// The lowered instruction.
    pub inst: I,
    /// Source span of the originating statement.
    pub span: Span,
}

/// A basic block: straight-line instructions plus successor/predecessor edges.
#[derive(Debug, Clone, PartialEq)]
pub struct BasicBlock<I = SpannedInst> {
    /// Instructions in execution order.
    pub insts: Vec<I>,
    /// Successor block ids. For a block ending in a branch
    /// ([`Op::Branch`](crate::absint::lower::Op::Branch)) the order is
    /// `[taken, fallthrough]`.
    pub succs: Vec<BlockId>,
    /// Predecessor block ids (derived; kept in sync by the builder).
    pub preds: Vec<BlockId>,
}

impl<I> Default for BasicBlock<I> {
    fn default() -> Self {
        BasicBlock { insts: Vec::new(), succs: Vec::new(), preds: Vec::new() }
    }
}

/// A per-function control-flow graph whose instructions are `I`s.
#[derive(Debug, Clone, PartialEq)]
pub struct Cfg<I = SpannedInst> {
    /// All basic blocks; indices are [`BlockId`]s.
    pub blocks: Vec<BasicBlock<I>>,
    /// Entry block id (always `0`).
    pub entry: BlockId,
    /// Single synthetic exit block id.
    pub exit: BlockId,
}

impl Cfg {
    /// Builds the CFG for a function body: the blocks and edges of its
    /// lowered form. The instructions index an expression arena this drops;
    /// [`FnShape`](crate::absint::FnShape) keeps both.
    ///
    /// # Examples
    ///
    /// ```
    /// # fn main() -> Result<(), vulnman_lang::error::ParseError> {
    /// use vulnman_lang::{cfg::Cfg, parser::parse};
    /// let prog = parse("int f(int x) { if (x) { return 1; } return 0; }")?;
    /// let cfg = Cfg::build(&prog.functions[0]);
    /// assert!(cfg.blocks.len() >= 3);
    /// # Ok(())
    /// # }
    /// ```
    pub fn build(func: &Function) -> Cfg {
        Lowered::build(func).0
    }
}

impl<I> Cfg<I> {
    /// Builds the CFG for a function body with `lower` making each
    /// statement's instruction.
    pub(crate) fn build_with<L: Lower<Inst = I>>(func: &Function, lower: &mut L) -> Cfg<I> {
        let mut b = Builder { blocks: Vec::new(), exit: usize::MAX, lower };
        let mut current = b.new_block(); // entry = 0
        debug_assert_eq!(current, 0);
        current = b.lower_stmts(&func.body, current, &mut Vec::new());
        // Implicit fallthrough return.
        b.edge(current, b.exit);
        b.finish()
    }

    /// Number of edges in the graph.
    pub fn edge_count(&self) -> usize {
        self.blocks.iter().map(|b| b.succs.len()).sum()
    }

    /// Cyclomatic complexity `E - N + 2` over the entry-reachable subgraph
    /// (unreachable continuation blocks carry no edges after pruning, so
    /// counting them as nodes would skew the metric).
    pub fn cyclomatic_complexity(&self) -> usize {
        let n = self.reachable().iter().filter(|&&r| r).count();
        (self.edge_count() + 2).saturating_sub(n)
    }

    /// Blocks in reverse post-order from the entry (good iteration order for
    /// forward data-flow problems).
    pub fn reverse_post_order(&self) -> Vec<BlockId> {
        let mut visited = vec![false; self.blocks.len()];
        let mut order = Vec::with_capacity(self.blocks.len());
        self.dfs_post(self.entry, &mut visited, &mut order);
        order.reverse();
        order
    }

    fn dfs_post(&self, id: BlockId, visited: &mut [bool], order: &mut Vec<BlockId>) {
        if visited[id] {
            return;
        }
        visited[id] = true;
        for &s in &self.blocks[id].succs {
            self.dfs_post(s, visited, order);
        }
        order.push(id);
    }

    /// Immediate-dominator-free dominator sets, computed by the classic
    /// iterative algorithm. `result[b]` contains every block that dominates
    /// `b` (including `b` itself). Unreachable blocks dominate nothing and
    /// report only themselves.
    pub fn dominators(&self) -> Vec<Vec<BlockId>> {
        let n = self.blocks.len();
        let all: Vec<BlockId> = (0..n).collect();
        let mut dom: Vec<Vec<BlockId>> = vec![all; n];
        dom[self.entry] = vec![self.entry];
        let rpo = self.reverse_post_order();
        let mut changed = true;
        while changed {
            changed = false;
            for &b in &rpo {
                if b == self.entry {
                    continue;
                }
                let mut new: Option<Vec<BlockId>> = None;
                for &p in &self.blocks[b].preds {
                    let pd = &dom[p];
                    new = Some(match new {
                        None => pd.clone(),
                        Some(cur) => cur.iter().copied().filter(|x| pd.contains(x)).collect(),
                    });
                }
                let mut new = new.unwrap_or_default();
                if !new.contains(&b) {
                    new.push(b);
                    new.sort_unstable();
                }
                if new != dom[b] {
                    dom[b] = new;
                    changed = true;
                }
            }
        }
        dom
    }

    /// Total instruction count across all blocks.
    pub fn inst_count(&self) -> usize {
        self.blocks.iter().map(|b| b.insts.len()).sum()
    }

    /// Per-block reachability from the entry. The builder prunes all edges
    /// that originate in unreachable blocks, so for every reachable block
    /// every listed predecessor is itself reachable — the invariant forward
    /// analyses rely on at join points.
    pub fn reachable(&self) -> Vec<bool> {
        let mut seen = vec![false; self.blocks.len()];
        let mut stack = vec![self.entry];
        while let Some(b) = stack.pop() {
            if seen[b] {
                continue;
            }
            seen[b] = true;
            stack.extend(self.blocks[b].succs.iter().copied());
        }
        seen
    }
}

/// What a statement becomes in a block: [`Cfg::build_with`] calls one
/// method per instruction-making statement, in block order.
pub(crate) trait Lower {
    /// The instruction type.
    type Inst;
    /// `ty name = init;`
    fn decl(&mut self, name: &Symbol, ty: &Type, init: Option<&Expr>, span: Span) -> Self::Inst;
    /// `target = value`, or `target op= value` when `op` is set.
    fn assign(
        &mut self,
        target: &LValue,
        value: &Expr,
        op: Option<BinOp>,
        span: Span,
    ) -> Self::Inst;
    /// An expression statement.
    fn expr(&mut self, e: &Expr, span: Span) -> Self::Inst;
    /// `return e;`
    fn ret(&mut self, e: Option<&Expr>, span: Span) -> Self::Inst;
    /// A block-terminating branch on `cond`.
    fn branch(&mut self, cond: &Expr, span: Span) -> Self::Inst;
}

/// Builds the blocks and edges; block 0 is the entry, and the exit block is
/// created on first use so ids stay compact.
struct Builder<'l, L: Lower> {
    blocks: Vec<BasicBlock<L::Inst>>,
    exit: BlockId,
    lower: &'l mut L,
}

/// Loop context: (header/continue target, exit/break target).
type LoopCtx = (BlockId, BlockId);

impl<L: Lower> Builder<'_, L> {
    fn new_block(&mut self) -> BlockId {
        self.blocks.push(BasicBlock::default());
        self.blocks.len() - 1
    }

    fn ensure_exit(&mut self) -> BlockId {
        if self.exit == usize::MAX {
            self.exit = self.new_block();
        }
        self.exit
    }

    fn edge(&mut self, from: BlockId, to: BlockId) {
        let to = if to == usize::MAX { self.ensure_exit() } else { to };
        if !self.blocks[from].succs.contains(&to) {
            self.blocks[from].succs.push(to);
            self.blocks[to].preds.push(from);
        }
    }

    fn push(&mut self, block: BlockId, inst: L::Inst) {
        self.blocks[block].insts.push(inst);
    }

    /// Lowers a statement list starting in `current`; returns the block where
    /// control continues afterwards. A returned block that already ends in a
    /// jump-away (return/break/continue) is a fresh unreachable block.
    fn lower_stmts(
        &mut self,
        stmts: &[Stmt],
        mut current: BlockId,
        loops: &mut Vec<LoopCtx>,
    ) -> BlockId {
        for s in stmts {
            current = self.lower_stmt(s, current, loops);
        }
        current
    }

    fn lower_stmt(&mut self, s: &Stmt, current: BlockId, loops: &mut Vec<LoopCtx>) -> BlockId {
        match &s.kind {
            StmtKind::Decl { name, ty, init } => {
                let inst = self.lower.decl(name, ty, init.as_ref(), s.span);
                self.push(current, inst);
                current
            }
            StmtKind::Assign { target, value, op } => {
                let inst = self.lower.assign(target, value, *op, s.span);
                self.push(current, inst);
                current
            }
            StmtKind::Expr(e) => {
                let inst = self.lower.expr(e, s.span);
                self.push(current, inst);
                current
            }
            StmtKind::Return(e) => {
                let inst = self.lower.ret(e.as_ref(), s.span);
                self.push(current, inst);
                let exit = self.ensure_exit();
                self.edge(current, exit);
                self.new_block() // unreachable continuation
            }
            StmtKind::Break => {
                if let Some(&(_, brk)) = loops.last() {
                    self.edge(current, brk);
                }
                self.new_block()
            }
            StmtKind::Continue => {
                if let Some(&(cont, _)) = loops.last() {
                    self.edge(current, cont);
                }
                self.new_block()
            }
            StmtKind::If { cond, then_branch, else_branch } => {
                let inst = self.lower.branch(cond, s.span);
                self.push(current, inst);
                let then_entry = self.new_block();
                self.edge(current, then_entry);
                let then_end = self.lower_stmts(then_branch, then_entry, loops);
                let join = self.new_block();
                match else_branch {
                    Some(els) => {
                        let else_entry = self.new_block();
                        self.edge(current, else_entry);
                        let else_end = self.lower_stmts(els, else_entry, loops);
                        self.edge(then_end, join);
                        self.edge(else_end, join);
                    }
                    None => {
                        self.edge(current, join);
                        self.edge(then_end, join);
                    }
                }
                join
            }
            StmtKind::While { cond, body } => {
                let header = self.new_block();
                self.edge(current, header);
                let inst = self.lower.branch(cond, s.span);
                self.push(header, inst);
                let body_entry = self.new_block();
                let exit = self.new_block();
                self.edge(header, body_entry);
                self.edge(header, exit);
                loops.push((header, exit));
                let body_end = self.lower_stmts(body, body_entry, loops);
                loops.pop();
                self.edge(body_end, header);
                exit
            }
            StmtKind::For { init, cond, step, body } => {
                let mut cur = current;
                if let Some(i) = init {
                    cur = self.lower_stmt(i, cur, loops);
                }
                let header = self.new_block();
                self.edge(cur, header);
                let inst = match cond {
                    Some(c) => self.lower.branch(c, s.span),
                    None => self.lower.branch(&Expr::int(1), s.span),
                };
                self.push(header, inst);
                let body_entry = self.new_block();
                let exit = self.new_block();
                let step_block = self.new_block();
                self.edge(header, body_entry);
                self.edge(header, exit);
                loops.push((step_block, exit));
                let body_end = self.lower_stmts(body, body_entry, loops);
                loops.pop();
                self.edge(body_end, step_block);
                if let Some(st) = step {
                    let after = self.lower_stmt(st, step_block, loops);
                    self.edge(after, header);
                } else {
                    self.edge(step_block, header);
                }
                exit
            }
        }
    }

    fn finish(mut self) -> Cfg<L::Inst> {
        let exit = self.ensure_exit();
        self.prune_unreachable_edges();
        Cfg { blocks: self.blocks, entry: 0, exit }
    }

    /// Removes every edge that originates in a block unreachable from the
    /// entry. Lowering `return`/`break`/`continue` leaves behind fresh
    /// continuation blocks for any dead code that follows; those blocks edge
    /// into join points and would pollute forward analyses (a join over an
    /// unreachable predecessor is a join over garbage). After pruning,
    /// unreachable blocks are fully isolated: no successors, no predecessors,
    /// and no reachable block lists one of them as a predecessor.
    fn prune_unreachable_edges(&mut self) {
        let mut reachable = vec![false; self.blocks.len()];
        let mut stack = vec![0usize];
        while let Some(b) = stack.pop() {
            if reachable[b] {
                continue;
            }
            reachable[b] = true;
            stack.extend(self.blocks[b].succs.iter().copied());
        }
        for id in 0..self.blocks.len() {
            if !reachable[id] {
                self.blocks[id].succs.clear();
            }
            self.blocks[id].preds.retain(|&p| reachable[p]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::absint::domain::Slots;
    use crate::absint::lower::{Op, Target};
    use crate::absint::Node;
    use crate::parser::parse;

    fn cfg_of(src: &str) -> Cfg {
        let p = parse(src).unwrap();
        Cfg::build(&p.functions[0])
    }

    /// The lowered CFG of the first function, its arena and slot table.
    fn lowered_of(src: &str) -> (Cfg, Lowered, Slots) {
        let p = parse(src).unwrap();
        Lowered::build(&p.functions[0])
    }

    #[test]
    fn straight_line_is_two_blocks() {
        let c = cfg_of("void f() { int x = 1; int y = 2; }");
        // entry + exit
        assert_eq!(c.blocks[c.entry].insts.len(), 2);
        assert_eq!(c.blocks[c.entry].succs, vec![c.exit]);
        assert_eq!(c.cyclomatic_complexity(), 1);
    }

    #[test]
    fn if_produces_diamond() {
        let c = cfg_of("int f(int x) { int r = 0; if (x) { r = 1; } else { r = 2; } return r; }");
        assert_eq!(c.cyclomatic_complexity(), 2);
        // Entry ends with a branch and has two successors.
        let entry = &c.blocks[c.entry];
        assert!(matches!(entry.insts.last().unwrap().inst.op, Op::Branch(_)));
        assert_eq!(entry.succs.len(), 2);
    }

    #[test]
    fn while_has_back_edge() {
        let c = cfg_of("void f(int n) { while (n > 0) { n -= 1; } }");
        let has_back_edge = c
            .blocks
            .iter()
            .enumerate()
            .any(|(id, b)| b.succs.iter().any(|&s| s <= id && !c.blocks[s].preds.is_empty()));
        assert!(has_back_edge);
        assert_eq!(c.cyclomatic_complexity(), 2);
    }

    #[test]
    fn for_desugars_compound_step() {
        let (c, l, slots) =
            lowered_of("void f(int n) { for (int i = 0; i < n; i++) { work(i); } }");
        let mut found = false;
        for b in &c.blocks {
            for i in &b.insts {
                if let Op::Assign { target: Target::Var(v), value } = i.inst.op {
                    if slots.name(v) == "i" {
                        if let Node::Binary(BinOp::Add, _, _) = l.node(value) {
                            found = true;
                        }
                    }
                }
            }
        }
        assert!(found, "i++ should desugar to i = i + 1");
    }

    #[test]
    fn return_edges_to_exit() {
        let c = cfg_of("int f(int x) { if (x) { return 1; } return 0; }");
        let exit_preds = &c.blocks[c.exit].preds;
        assert!(exit_preds.len() >= 2, "both returns should reach exit: {exit_preds:?}");
    }

    #[test]
    fn break_exits_loop() {
        let (c, l, _) =
            lowered_of("void f() { while (1) { if (stop()) { break; } tick(); } done(); }");
        // done() must be reachable from entry.
        let rpo = c.reverse_post_order();
        let reachable_insts: usize = rpo.iter().map(|&b| c.blocks[b].insts.len()).sum();
        let has_done = rpo.iter().any(|&b| {
            c.blocks[b].insts.iter().any(|i| match i.inst.op {
                Op::Expr(_) => l
                    .value_calls(&i.inst)
                    .iter()
                    .any(|&n| l.call(n).is_some_and(|(callee, _)| callee.name == "done")),
                _ => false,
            })
        });
        assert!(has_done, "done() unreachable; {reachable_insts} insts reachable");
    }

    #[test]
    fn continue_targets_step_in_for() {
        let c = cfg_of(
            "void f(int n) { for (int i = 0; i < n; i++) { if (i == 3) { continue; } use(i); } }",
        );
        // The graph must still terminate and contain the step assignment
        // reachable from the continue edge.
        assert!(c.cyclomatic_complexity() >= 3);
        assert!(!c.reverse_post_order().is_empty());
    }

    #[test]
    fn dominators_entry_dominates_all_reachable() {
        let c = cfg_of("int f(int x) { if (x) { return 1; } return 0; }");
        let dom = c.dominators();
        for &b in &c.reverse_post_order() {
            assert!(dom[b].contains(&c.entry), "entry should dominate block {b}");
        }
    }

    #[test]
    fn rpo_starts_at_entry() {
        let c = cfg_of("void f(int n) { while (n) { n -= 1; } }");
        assert_eq!(c.reverse_post_order()[0], c.entry);
    }

    #[test]
    fn dead_code_after_early_return_does_not_feed_joins() {
        // `x = 2;` after the return lands in an unreachable continuation
        // block; before pruning, that block edged into the if-join and
        // polluted every forward analysis meeting there.
        let (c, _, slots) = lowered_of("int f(int x) { if (x) { return 1; x = 2; } return x; }");
        let reachable = c.reachable();
        for (id, b) in c.blocks.iter().enumerate() {
            for &p in &b.preds {
                assert!(
                    reachable[p],
                    "block {id} lists unreachable predecessor {p}: {:?}",
                    b.preds
                );
            }
            if !reachable[id] {
                assert!(b.succs.is_empty(), "unreachable block {id} kept successors");
                assert!(b.preds.is_empty(), "unreachable block {id} kept predecessors");
            }
        }
        // The dead store still exists in the graph (for diagnostics), just
        // disconnected from the join.
        let dead_store = c
            .blocks
            .iter()
            .enumerate()
            .find(|(_, b)| {
                b.insts.iter().any(|i| {
                    matches!(i.inst.op, Op::Assign { target: Target::Var(v), .. } if slots.name(v) == "x")
                })
            })
            .map(|(id, _)| id)
            .expect("dead store lowered somewhere");
        assert!(!reachable[dead_store], "the post-return store must be unreachable");
    }

    #[test]
    fn dead_code_after_break_and_continue_is_isolated() {
        let c = cfg_of(
            "void f(int n) { while (n) { if (n == 1) { break; log_dead(); } n -= 1; } done(); }",
        );
        let reachable = c.reachable();
        for b in &c.blocks {
            for &p in &b.preds {
                assert!(reachable[p], "unreachable predecessor leaked into a join");
            }
        }
    }

    #[test]
    fn inst_expr_and_defined_var() {
        let (c, _, slots) = lowered_of("void f(int a) { int x = a + 1; x = 2; *p = 3; }");
        let insts: Vec<_> = c.blocks.iter().flat_map(|b| b.insts.iter()).collect();
        // The variable an instruction directly defines (kills); indirect
        // stores kill nothing.
        let defined_var = |op: Op| match op {
            Op::Decl { slot, .. } | Op::Assign { target: Target::Var(slot), .. } => {
                Some(slots.name(slot))
            }
            _ => None,
        };
        assert_eq!(defined_var(insts[0].inst.op), Some("x"));
        assert!(insts[0].inst.op.value().is_some());
        assert_eq!(defined_var(insts[1].inst.op), Some("x"));
        assert_eq!(defined_var(insts[2].inst.op), None, "indirect store kills nothing");
    }
}
