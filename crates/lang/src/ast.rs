//! Abstract syntax tree for the mini-C dialect.
//!
//! The tree is deliberately simple — functions, scalar/pointer/array types,
//! structured control flow — but rich enough to express every vulnerability
//! pattern in the corpus generator and to support CFG construction, data-flow
//! analysis, and taint tracking.

use crate::intern::Symbol;
use crate::span::Span;
use std::fmt;

/// A type in the mini-C dialect.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Type {
    /// `void` (only valid as a return type).
    Void,
    /// `int` — 64-bit signed in this dialect.
    Int,
    /// `char`.
    Char,
    /// Pointer to an inner type, e.g. `char*`.
    Ptr(Box<Type>),
    /// Fixed-size array, e.g. `char[64]`.
    Array(Box<Type>, usize),
}

impl Type {
    /// Pointer to `self`.
    pub fn ptr(self) -> Type {
        Type::Ptr(Box::new(self))
    }

    /// Array of `len` elements of `self`.
    pub fn array(self, len: usize) -> Type {
        Type::Array(Box::new(self), len)
    }

    /// Returns `true` for pointer or array types.
    pub fn is_indirect(&self) -> bool {
        matches!(self, Type::Ptr(_) | Type::Array(_, _))
    }

    /// Declared element count for arrays, `None` otherwise.
    pub fn array_len(&self) -> Option<usize> {
        match self {
            Type::Array(_, n) => Some(*n),
            _ => None,
        }
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Void => write!(f, "void"),
            Type::Int => write!(f, "int"),
            Type::Char => write!(f, "char"),
            Type::Ptr(inner) => write!(f, "{inner}*"),
            Type::Array(inner, n) => write!(f, "{inner}[{n}]"),
        }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Arithmetic negation `-e`.
    Neg,
    /// Logical not `!e`.
    Not,
    /// Pointer dereference `*e`.
    Deref,
    /// Address-of `&e`.
    AddrOf,
}

impl UnOp {
    /// Token text of the operator.
    pub fn symbol(&self) -> &'static str {
        match self {
            UnOp::Neg => "-",
            UnOp::Not => "!",
            UnOp::Deref => "*",
            UnOp::AddrOf => "&",
        }
    }
}

/// Binary operators. Variants mirror their C surface syntax; see
/// [`BinOp::symbol`].
#[allow(missing_docs)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Shl,
    Shr,
    BitAnd,
    BitOr,
    BitXor,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
}

impl BinOp {
    /// Token text of the operator.
    pub fn symbol(&self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Rem => "%",
            BinOp::Shl => "<<",
            BinOp::Shr => ">>",
            BinOp::BitAnd => "&",
            BinOp::BitOr => "|",
            BinOp::BitXor => "^",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "&&",
            BinOp::Or => "||",
        }
    }

    /// Returns `true` for comparison and logical operators (result is boolean).
    pub fn is_comparison(&self) -> bool {
        matches!(
            self,
            BinOp::Eq
                | BinOp::Ne
                | BinOp::Lt
                | BinOp::Le
                | BinOp::Gt
                | BinOp::Ge
                | BinOp::And
                | BinOp::Or
        )
    }

    /// Returns `true` for arithmetic operators that can overflow.
    pub fn is_arithmetic(&self) -> bool {
        matches!(self, BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Rem | BinOp::Shl)
    }
}

/// Expression kind; see [`Expr`].
#[derive(Debug, Clone, PartialEq)]
pub enum ExprKind {
    /// Integer literal.
    Int(i64),
    /// Character literal.
    Char(char),
    /// String literal.
    Str(String),
    /// Variable reference (interned name).
    Var(Symbol),
    /// Unary operation.
    Unary(UnOp, Box<Expr>),
    /// Binary operation.
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// Function call `name(args…)`.
    Call(Symbol, Vec<Expr>),
    /// Array/pointer index `base[index]`.
    Index(Box<Expr>, Box<Expr>),
}

/// An expression with its source span.
#[derive(Debug, Clone, PartialEq)]
pub struct Expr {
    /// What kind of expression this is.
    pub kind: ExprKind,
    /// Source location.
    pub span: Span,
}

impl Expr {
    /// Creates an expression from its parts.
    pub fn new(kind: ExprKind, span: Span) -> Self {
        Expr { kind, span }
    }

    /// Variable reference with a dummy span (for synthesized code).
    pub fn var(name: impl Into<Symbol>) -> Self {
        Expr::new(ExprKind::Var(name.into()), Span::dummy())
    }

    /// Integer literal with a dummy span.
    pub fn int(v: i64) -> Self {
        Expr::new(ExprKind::Int(v), Span::dummy())
    }

    /// Call expression with a dummy span.
    pub fn call(name: impl Into<Symbol>, args: Vec<Expr>) -> Self {
        Expr::new(ExprKind::Call(name.into(), args), Span::dummy())
    }

    /// All variable names read by this expression, in syntactic order,
    /// duplicates preserved.
    pub fn read_vars(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.collect_reads(&mut out);
        out
    }

    fn collect_reads<'a>(&'a self, out: &mut Vec<&'a str>) {
        match &self.kind {
            ExprKind::Var(name) => out.push(name.as_str()),
            ExprKind::Unary(_, e) => e.collect_reads(out),
            ExprKind::Binary(_, l, r) => {
                l.collect_reads(out);
                r.collect_reads(out);
            }
            ExprKind::Call(_, args) => {
                for a in args {
                    a.collect_reads(out);
                }
            }
            ExprKind::Index(b, i) => {
                b.collect_reads(out);
                i.collect_reads(out);
            }
            ExprKind::Int(_) | ExprKind::Char(_) | ExprKind::Str(_) => {}
        }
    }

    /// All function names called anywhere inside this expression.
    pub fn called_fns(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.collect_calls(&mut out);
        out
    }

    fn collect_calls<'a>(&'a self, out: &mut Vec<&'a str>) {
        match &self.kind {
            ExprKind::Call(name, args) => {
                out.push(name.as_str());
                for a in args {
                    a.collect_calls(out);
                }
            }
            ExprKind::Unary(_, e) => e.collect_calls(out),
            ExprKind::Binary(_, l, r) => {
                l.collect_calls(out);
                r.collect_calls(out);
            }
            ExprKind::Index(b, i) => {
                b.collect_calls(out);
                i.collect_calls(out);
            }
            _ => {}
        }
    }

    /// Visits every sub-expression (including `self`) in pre-order.
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        f(self);
        match &self.kind {
            ExprKind::Unary(_, e) => e.walk(f),
            ExprKind::Binary(_, l, r) => {
                l.walk(f);
                r.walk(f);
            }
            ExprKind::Call(_, args) => {
                for a in args {
                    a.walk(f);
                }
            }
            ExprKind::Index(b, i) => {
                b.walk(f);
                i.walk(f);
            }
            _ => {}
        }
    }
}

/// Assignment target.
#[derive(Debug, Clone, PartialEq)]
pub enum LValue {
    /// Plain variable `x = …`.
    Var(Symbol),
    /// Pointer store `*p = …`.
    Deref(Expr),
    /// Indexed store `a[i] = …`.
    Index(Expr, Expr),
}

impl LValue {
    /// The variable being (directly or indirectly) written, if syntactically
    /// evident: `x` for `x = …`, `p` for `*p = …` and `a` for `a[i] = …`.
    pub fn base_var(&self) -> Option<&str> {
        match self {
            LValue::Var(name) => Some(name.as_str()),
            LValue::Deref(e) | LValue::Index(e, _) => match &e.kind {
                ExprKind::Var(name) => Some(name.as_str()),
                _ => None,
            },
        }
    }

    /// Returns `true` if this writes through a pointer or index (i.e. does not
    /// kill the base variable's own value).
    pub fn is_indirect(&self) -> bool {
        !matches!(self, LValue::Var(_))
    }
}

/// Statement kind; see [`Stmt`].
#[derive(Debug, Clone, PartialEq)]
pub enum StmtKind {
    /// Local declaration `ty name = init;`.
    Decl {
        /// Variable name.
        name: Symbol,
        /// Declared type.
        ty: Type,
        /// Optional initializer.
        init: Option<Expr>,
    },
    /// Assignment `lvalue op expr;` where op covers `=`, `+=`, `-=`.
    Assign {
        /// Assignment target.
        target: LValue,
        /// Right-hand side.
        value: Expr,
        /// Compound operator, if any (`+=` is `Some(BinOp::Add)`).
        op: Option<BinOp>,
    },
    /// `if (cond) { then } else { els }`.
    If {
        /// Branch condition.
        cond: Expr,
        /// Taken when `cond` is non-zero.
        then_branch: Vec<Stmt>,
        /// Taken when `cond` is zero, if present.
        else_branch: Option<Vec<Stmt>>,
    },
    /// `while (cond) { body }`.
    While {
        /// Loop condition.
        cond: Expr,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// `for (init; cond; step) { body }`.
    For {
        /// Initialization statement (decl or assign), if present.
        init: Option<Box<Stmt>>,
        /// Continuation condition, if present.
        cond: Option<Expr>,
        /// Step statement, if present.
        step: Option<Box<Stmt>>,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// `return expr?;`
    Return(Option<Expr>),
    /// Expression evaluated for side effects, typically a call.
    Expr(Expr),
    /// `break;`
    Break,
    /// `continue;`
    Continue,
}

/// A statement with its source span.
#[derive(Debug, Clone, PartialEq)]
pub struct Stmt {
    /// What kind of statement this is.
    pub kind: StmtKind,
    /// Source location.
    pub span: Span,
}

impl Stmt {
    /// Creates a statement from its parts.
    pub fn new(kind: StmtKind, span: Span) -> Self {
        Stmt { kind, span }
    }

    /// Visits this statement and all nested statements in pre-order.
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a Stmt)) {
        f(self);
        match &self.kind {
            StmtKind::If { then_branch, else_branch, .. } => {
                for s in then_branch {
                    s.walk(f);
                }
                if let Some(els) = else_branch {
                    for s in els {
                        s.walk(f);
                    }
                }
            }
            StmtKind::While { body, .. } => {
                for s in body {
                    s.walk(f);
                }
            }
            StmtKind::For { init, step, body, .. } => {
                if let Some(s) = init {
                    s.walk(f);
                }
                if let Some(s) = step {
                    s.walk(f);
                }
                for s in body {
                    s.walk(f);
                }
            }
            _ => {}
        }
    }

    /// All expressions appearing directly in this statement (not in nested
    /// statements).
    pub fn exprs(&self) -> Vec<&Expr> {
        let mut out = Vec::new();
        self.each_expr(&mut |e| out.push(e));
        out
    }

    /// Calls `f` on each of [`Stmt::exprs`], in order, without collecting
    /// them.
    fn each_expr<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        match &self.kind {
            StmtKind::Decl { init, .. } => init.iter().for_each(f),
            StmtKind::Assign { target, value, .. } => {
                match target {
                    LValue::Var(_) => {}
                    LValue::Deref(e) => f(e),
                    LValue::Index(b, i) => {
                        f(b);
                        f(i);
                    }
                }
                f(value);
            }
            StmtKind::If { cond, .. } | StmtKind::While { cond, .. } => f(cond),
            StmtKind::For { cond, .. } => cond.iter().for_each(f),
            StmtKind::Return(e) => e.iter().for_each(f),
            StmtKind::Expr(e) => f(e),
            StmtKind::Break | StmtKind::Continue => {}
        }
    }
}

/// A function parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// Parameter name.
    pub name: Symbol,
    /// Parameter type.
    pub ty: Type,
}

/// A function definition.
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    /// Function name.
    pub name: Symbol,
    /// Parameters in declaration order.
    pub params: Vec<Param>,
    /// Return type.
    pub ret: Type,
    /// Body statements.
    pub body: Vec<Stmt>,
    /// Source location of the whole definition.
    pub span: Span,
    /// Doc comment lines attached immediately above the definition.
    pub doc: Vec<String>,
}

impl Function {
    /// Visits every statement in the body (recursively) in pre-order.
    pub fn walk_stmts<'a>(&'a self, f: &mut impl FnMut(&'a Stmt)) {
        for s in &self.body {
            s.walk(f);
        }
    }

    /// Visits every expression in the body.
    pub fn walk_exprs<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        self.walk_stmts(&mut |s| s.each_expr(&mut |e| e.walk(f)));
    }

    /// Names of all functions called anywhere in the body, with duplicates.
    /// Cloning a [`Symbol`] is a reference-count bump, not a string copy.
    pub fn callees(&self) -> Vec<Symbol> {
        let mut out = Vec::new();
        self.walk_exprs(&mut |e| {
            if let ExprKind::Call(name, _) = &e.kind {
                out.push(name.clone());
            }
        });
        out
    }

    /// Total number of statements (recursively).
    pub fn stmt_count(&self) -> usize {
        let mut n = 0;
        self.walk_stmts(&mut |_| n += 1);
        n
    }
}

/// A complete translation unit.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    /// Functions in source order.
    pub functions: Vec<Function>,
}

impl Program {
    /// Creates an empty program.
    pub fn new() -> Self {
        Program::default()
    }

    /// Looks up a function by name.
    pub fn function(&self, name: &str) -> Option<&Function> {
        self.functions.iter().find(|f| f.name == name)
    }

    /// Iterates over functions.
    pub fn iter(&self) -> std::slice::Iter<'_, Function> {
        self.functions.iter()
    }
}

impl<'a> IntoIterator for &'a Program {
    type Item = &'a Function;
    type IntoIter = std::slice::Iter<'a, Function>;
    fn into_iter(self) -> Self::IntoIter {
        self.functions.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp() -> Span {
        Span::dummy()
    }

    #[test]
    fn type_display() {
        assert_eq!(Type::Int.to_string(), "int");
        assert_eq!(Type::Char.ptr().to_string(), "char*");
        assert_eq!(Type::Char.array(64).to_string(), "char[64]");
        assert_eq!(Type::Int.ptr().ptr().to_string(), "int**");
    }

    #[test]
    fn read_vars_collects_in_order() {
        // a + f(b, c[d])
        let e = Expr::new(
            ExprKind::Binary(
                BinOp::Add,
                Box::new(Expr::var("a")),
                Box::new(Expr::call(
                    "f",
                    vec![
                        Expr::var("b"),
                        Expr::new(
                            ExprKind::Index(Box::new(Expr::var("c")), Box::new(Expr::var("d"))),
                            sp(),
                        ),
                    ],
                )),
            ),
            sp(),
        );
        assert_eq!(e.read_vars(), vec!["a", "b", "c", "d"]);
        assert_eq!(e.called_fns(), vec!["f"]);
    }

    #[test]
    fn lvalue_base_var() {
        assert_eq!(LValue::Var("x".into()).base_var(), Some("x"));
        assert_eq!(LValue::Deref(Expr::var("p")).base_var(), Some("p"));
        assert_eq!(LValue::Index(Expr::var("a"), Expr::int(0)).base_var(), Some("a"));
        assert!(!LValue::Var("x".into()).is_indirect());
        assert!(LValue::Deref(Expr::var("p")).is_indirect());
    }

    #[test]
    fn stmt_walk_reaches_nested() {
        let inner = Stmt::new(StmtKind::Return(Some(Expr::int(1))), sp());
        let outer = Stmt::new(
            StmtKind::If {
                cond: Expr::var("c"),
                then_branch: vec![inner],
                else_branch: Some(vec![Stmt::new(StmtKind::Break, sp())]),
            },
            sp(),
        );
        let mut n = 0;
        outer.walk(&mut |_| n += 1);
        assert_eq!(n, 3);
    }

    #[test]
    fn function_callees_and_counts() {
        let body = vec![
            Stmt::new(StmtKind::Expr(Expr::call("log", vec![])), sp()),
            Stmt::new(
                StmtKind::While {
                    cond: Expr::var("n"),
                    body: vec![Stmt::new(
                        StmtKind::Expr(Expr::call("step", vec![Expr::var("n")])),
                        sp(),
                    )],
                },
                sp(),
            ),
        ];
        let f = Function {
            name: "main".into(),
            params: vec![],
            ret: Type::Void,
            body,
            span: sp(),
            doc: vec![],
        };
        assert_eq!(f.callees(), vec!["log".to_string(), "step".to_string()]);
        assert_eq!(f.stmt_count(), 3);
    }

    #[test]
    fn program_lookup() {
        let mut p = Program::new();
        p.functions.push(Function {
            name: "a".into(),
            params: vec![],
            ret: Type::Void,
            body: vec![],
            span: sp(),
            doc: vec![],
        });
        assert!(p.function("a").is_some());
        assert!(p.function("b").is_none());
        assert_eq!((&p).into_iter().count(), 1);
    }
}
