//! Structural source metrics used for complexity tiers and ML features.
//!
//! Every metric but one is a count over the AST. The cyclomatic number
//! comes from the function's CFG as [`Cfg::build`] returns it: the blocks
//! and edges of the lowered form the abstract domains and the taint engine
//! interpret, so all three agree on one graph.

use crate::ast::{ExprKind, Function, Program, Stmt, StmtKind};
use crate::cfg::Cfg;
use serde::{Deserialize, Serialize};

/// Structural metrics of a single function.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct FunctionMetrics {
    /// Number of statements (recursively).
    pub statements: usize,
    /// Cyclomatic complexity from the CFG (`E - N + 2`).
    pub cyclomatic: usize,
    /// Maximum nesting depth of control structures.
    pub max_nesting: usize,
    /// Number of call expressions.
    pub calls: usize,
    /// Number of distinct callee names.
    pub distinct_callees: usize,
    /// Number of parameters.
    pub params: usize,
    /// Number of local declarations.
    pub locals: usize,
    /// Number of loops (`while` + `for`).
    pub loops: usize,
    /// Number of conditionals.
    pub branches: usize,
    /// Number of array-index expressions.
    pub index_exprs: usize,
    /// Number of pointer dereferences (reads or writes through `*`).
    pub derefs: usize,
}

impl FunctionMetrics {
    /// Computes metrics for `func`.
    ///
    /// # Examples
    ///
    /// ```
    /// # fn main() -> Result<(), vulnman_lang::error::ParseError> {
    /// use vulnman_lang::{metrics::FunctionMetrics, parser::parse};
    /// let p = parse("int f(int n) { int s = 0; for (int i = 0; i < n; i++) { s += i; } return s; }")?;
    /// let m = FunctionMetrics::compute(&p.functions[0]);
    /// assert_eq!(m.loops, 1);
    /// assert!(m.cyclomatic >= 2);
    /// # Ok(())
    /// # }
    /// ```
    pub fn compute(func: &Function) -> FunctionMetrics {
        let cfg = Cfg::build(func);
        let mut m = FunctionMetrics {
            statements: func.stmt_count(),
            cyclomatic: cfg.cyclomatic_complexity(),
            params: func.params.len(),
            max_nesting: nesting(&func.body, 0),
            ..FunctionMetrics::default()
        };
        let mut callees = std::collections::HashSet::new();
        func.walk_stmts(&mut |s: &Stmt| match &s.kind {
            StmtKind::Decl { .. } => m.locals += 1,
            StmtKind::While { .. } | StmtKind::For { .. } => m.loops += 1,
            StmtKind::If { .. } => m.branches += 1,
            _ => {}
        });
        func.walk_exprs(&mut |e| match &e.kind {
            ExprKind::Call(name, _) => {
                m.calls += 1;
                callees.insert(name.clone());
            }
            ExprKind::Index(_, _) => m.index_exprs += 1,
            ExprKind::Unary(crate::ast::UnOp::Deref, _) => m.derefs += 1,
            _ => {}
        });
        m.distinct_callees = callees.len();
        m
    }

    /// A scalar "complexity score" combining the dimensions; used by the
    /// corpus generator to assign complexity tiers.
    pub fn complexity_score(&self) -> f64 {
        self.statements as f64
            + 3.0 * self.cyclomatic as f64
            + 2.0 * self.max_nesting as f64
            + self.calls as f64
            + 0.5 * self.index_exprs as f64
            + 0.5 * self.derefs as f64
    }
}

fn nesting(stmts: &[Stmt], depth: usize) -> usize {
    let mut max = depth;
    for s in stmts {
        let d = match &s.kind {
            StmtKind::If { then_branch, else_branch, .. } => {
                let mut d = nesting(then_branch, depth + 1);
                if let Some(e) = else_branch {
                    d = d.max(nesting(e, depth + 1));
                }
                d
            }
            StmtKind::While { body, .. } => nesting(body, depth + 1),
            StmtKind::For { body, .. } => nesting(body, depth + 1),
            _ => depth,
        };
        max = max.max(d);
    }
    max
}

/// Metrics for a whole program.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct ProgramMetrics {
    /// Number of functions.
    pub functions: usize,
    /// Sum of statement counts.
    pub statements: usize,
    /// Mean cyclomatic complexity.
    pub mean_cyclomatic: f64,
    /// Maximum cyclomatic complexity.
    pub max_cyclomatic: usize,
}

impl ProgramMetrics {
    /// Computes aggregate metrics for `program`.
    pub fn compute(program: &Program) -> ProgramMetrics {
        let per: Vec<FunctionMetrics> =
            program.functions.iter().map(FunctionMetrics::compute).collect();
        let functions = per.len();
        let statements = per.iter().map(|m| m.statements).sum();
        let max_cyclomatic = per.iter().map(|m| m.cyclomatic).max().unwrap_or(0);
        let mean_cyclomatic = if functions == 0 {
            0.0
        } else {
            per.iter().map(|m| m.cyclomatic as f64).sum::<f64>() / functions as f64
        };
        ProgramMetrics { functions, statements, mean_cyclomatic, max_cyclomatic }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn straight_line_metrics() {
        let p = parse("void f() { int a = 1; int b = 2; log(a, b); }").unwrap();
        let m = FunctionMetrics::compute(&p.functions[0]);
        assert_eq!(m.statements, 3);
        assert_eq!(m.cyclomatic, 1);
        assert_eq!(m.max_nesting, 0);
        assert_eq!(m.locals, 2);
        assert_eq!(m.calls, 1);
    }

    #[test]
    fn nesting_depth() {
        let p = parse("void f(int a) { if (a) { while (a) { if (a > 1) { dec(a); } } } }").unwrap();
        let m = FunctionMetrics::compute(&p.functions[0]);
        assert_eq!(m.max_nesting, 3);
        assert_eq!(m.branches, 2);
        assert_eq!(m.loops, 1);
    }

    #[test]
    fn distinct_callees_deduplicate() {
        let p = parse("void f() { a(); a(); b(); }").unwrap();
        let m = FunctionMetrics::compute(&p.functions[0]);
        assert_eq!(m.calls, 3);
        assert_eq!(m.distinct_callees, 2);
    }

    #[test]
    fn complexity_score_monotone_in_size() {
        let small = parse("void f() { int a = 1; }").unwrap();
        let big =
            parse("void f(int n) { for (int i = 0; i < n; i++) { if (i % 2) { work(i); } } }")
                .unwrap();
        let ms = FunctionMetrics::compute(&small.functions[0]);
        let mb = FunctionMetrics::compute(&big.functions[0]);
        assert!(mb.complexity_score() > ms.complexity_score());
    }

    #[test]
    fn program_metrics_aggregate() {
        let p = parse("void a() { x(); }\nvoid b(int n) { if (n) { y(); } }").unwrap();
        let m = ProgramMetrics::compute(&p);
        assert_eq!(m.functions, 2);
        assert!(m.mean_cyclomatic >= 1.0);
        assert_eq!(m.max_cyclomatic, 2);
    }

    #[test]
    fn empty_program_metrics() {
        let m = ProgramMetrics::compute(&crate::ast::Program::new());
        assert_eq!(m.functions, 0);
        assert_eq!(m.mean_cyclomatic, 0.0);
    }
}
