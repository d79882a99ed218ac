//! Rule-based static detectors — the "traditional rule-based analysis
//! tools" of the paper's Figure 1.
//!
//! Each detector targets specific CWE classes, mirroring the industry
//! practice the paper describes: "each tool selected is often specialized to
//! address certain vulnerabilities more effectively than others".

use crate::finding::{Confidence, Finding};
use vulnman_lang::ast::{
    BinOp, Expr, ExprKind, Function, LValue, Program, Stmt, StmtKind, Type, UnOp,
};
use vulnman_lang::taint::{TaintAnalysis, TaintConfig};
use vulnman_synth::cwe::Cwe;

/// A rule-based static analyzer.
///
/// Object-safe so heterogeneous suites can be registered in the workflow
/// engine.
pub trait StaticDetector: Send + Sync {
    /// Stable detector name (used in findings and reports).
    fn name(&self) -> &'static str;
    /// CWE classes this detector targets.
    fn cwes(&self) -> Vec<Cwe>;
    /// Scans a parsed program and returns findings.
    fn scan(&self, program: &Program) -> Vec<Finding>;
}

/// Runs every registered detector over a program.
#[derive(Default)]
pub struct RuleEngine {
    detectors: Vec<Box<dyn StaticDetector>>,
}

impl std::fmt::Debug for RuleEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RuleEngine").field("detectors", &self.detector_names()).finish()
    }
}

impl RuleEngine {
    /// Creates an empty engine.
    pub fn new() -> Self {
        RuleEngine::default()
    }

    /// The standard industry suite: one specialized tool per CWE family.
    pub fn default_suite() -> Self {
        let mut e = RuleEngine::syntactic_suite();
        e.detectors.insert(0, Box::new(TaintDetector::default_config()));
        e
    }

    /// The purely syntactic detectors — [`RuleEngine::default_suite`] minus
    /// the taint dataflow pass. The audit matrix reports this family
    /// separately from taint so each column isolates one technique.
    pub fn syntactic_suite() -> Self {
        let mut e = RuleEngine::new();
        e.register(Box::new(BoundsDetector));
        e.register(Box::new(UseAfterFreeDetector));
        e.register(Box::new(OverflowDetector));
        e.register(Box::new(NullDerefDetector));
        e.register(Box::new(CredentialDetector));
        e.register(Box::new(RaceDetector));
        e
    }

    /// The full automated-assessment stack of Figure 1: the static rule
    /// suite plus the sanitizer-instrumented dynamic analysis.
    pub fn full_suite() -> Self {
        let mut e = RuleEngine::default_suite();
        e.register(Box::new(crate::dynamic::DynamicSanitizer::new()));
        e
    }

    /// Adds a detector to the suite.
    pub fn register(&mut self, d: Box<dyn StaticDetector>) -> &mut Self {
        self.detectors.push(d);
        self
    }

    /// Names of registered detectors.
    pub fn detector_names(&self) -> Vec<&'static str> {
        self.detectors.iter().map(|d| d.name()).collect()
    }

    /// Scans a parsed program with every detector.
    pub fn scan(&self, program: &Program) -> Vec<Finding> {
        let mut out: Vec<Finding> = Vec::new();
        for d in &self.detectors {
            out.extend(d.scan(program));
        }
        out.sort_by_key(|f| (f.span.start, f.cwe.id()));
        out
    }

    /// Scans a parsed program with only the detectors whose advertised
    /// [`StaticDetector::cwes`] cover `cwe` — the targeted core of autofix
    /// verification, where findings of every other class are filtered out
    /// anyway. Findings of class `cwe` are exactly those of a full
    /// [`RuleEngine::scan`]; other classes may be missing.
    pub fn scan_cwe(&self, program: &Program, cwe: Cwe) -> Vec<Finding> {
        let mut out: Vec<Finding> = Vec::new();
        for d in self.detectors.iter().filter(|d| d.cwes().contains(&cwe)) {
            out.extend(d.scan(program));
        }
        out.sort_by_key(|f| (f.span.start, f.cwe.id()));
        out
    }

    /// Parses and scans source text.
    ///
    /// # Errors
    ///
    /// Returns the parse error if `source` is not valid mini-C.
    pub fn scan_source(&self, source: &str) -> Result<Vec<Finding>, vulnman_lang::ParseError> {
        Ok(self.scan(&vulnman_lang::parse(source)?))
    }

    /// A 64-bit fingerprint of the suite's configuration (its detector
    /// lineup), used as the cache config key: two engines with the same
    /// detectors share memoized findings, different lineups never collide.
    pub fn fingerprint(&self) -> u64 {
        use std::hash::Hasher;
        let mut h = vulnman_lang::intern::Fnv64::default();
        for d in &self.detectors {
            h.write(d.name().as_bytes());
            h.write(&[0x1f]); // name separator
        }
        h.finish()
    }

    /// Parses and scans source text through a content-addressed cache
    /// under its precomputed
    /// [`content_key`](vulnman_lang::AnalysisCache::content_key):
    /// textually identical sources (duplicated corpus slices, repeated
    /// scans) are parsed and analyzed once, and callers that consult
    /// several cache tables for the same sample hash its source once.
    /// Results are identical to [`RuleEngine::scan_source`].
    ///
    /// # Errors
    ///
    /// Returns the parse error if `source` is not valid mini-C.
    pub fn scan_source_cached_keyed(
        &self,
        content_key: u64,
        source: &str,
        cache: &vulnman_lang::AnalysisCache,
    ) -> Result<Vec<Finding>, vulnman_lang::ParseError> {
        Ok((*self.findings_cached_keyed(content_key, source, cache)?).clone())
    }

    /// The cache entry behind [`RuleEngine::scan_source_cached_keyed`],
    /// shared rather than copied: consumers that only read the findings
    /// (tool-verdict ML features) take the `Arc` the first scan of this
    /// content stored.
    ///
    /// # Errors
    ///
    /// Returns the parse error if `source` is not valid mini-C.
    pub fn findings_cached_keyed(
        &self,
        content_key: u64,
        source: &str,
        cache: &vulnman_lang::AnalysisCache,
    ) -> Result<std::sync::Arc<Vec<Finding>>, vulnman_lang::ParseError> {
        let program = cache.parse_keyed(content_key, source)?;
        Ok(self.findings_cached(content_key, &program, cache))
    }

    /// [`RuleEngine::findings_cached_keyed`] over an already-parsed unit,
    /// so a caller that runs several views on one tree parses it once even
    /// when `cache` is disabled. The one place the `"rule-findings"` entry
    /// is spelled.
    pub fn findings_cached(
        &self,
        content_key: u64,
        program: &Program,
        cache: &vulnman_lang::AnalysisCache,
    ) -> std::sync::Arc<Vec<Finding>> {
        cache
            .analysis_keyed(content_key, "rule-findings", self.fingerprint(), || self.scan(program))
    }
}

// ---------------------------------------------------------------------------
// Taint detector (injection family + tainted memory ops)
// ---------------------------------------------------------------------------

/// Flags source→sink taint flows (SQL/command/XSS/path/format plus tainted
/// `strcpy`/`memcpy`), using the interprocedural engine from `vulnman-lang`.
#[derive(Debug)]
pub struct TaintDetector {
    config: TaintConfig,
}

impl TaintDetector {
    /// Uses the workspace-default source/sink vocabulary.
    pub fn default_config() -> Self {
        TaintDetector { config: TaintConfig::default_config() }
    }

    /// Uses a custom taint vocabulary.
    pub fn with_config(config: TaintConfig) -> Self {
        TaintDetector { config }
    }
}

/// Maps a taint sink category label (the `kind` strings of
/// [`TaintConfig`]) to the CWE class it evidences. `None` for kinds outside
/// the built-in vocabulary (team-specific categories).
///
/// Shared by the static taint-flow detector, the dynamic sanitizer, and the
/// differential oracle so all three views agree on the mapping by
/// construction.
pub fn sink_kind_to_cwe(kind: &str) -> Option<Cwe> {
    Some(match kind {
        "sql" => Cwe::SqlInjection,
        "command" | "injection" => Cwe::CommandInjection,
        "xss" => Cwe::CrossSiteScripting,
        "path" => Cwe::PathTraversal,
        "format" => Cwe::FormatString,
        "memory" => Cwe::OutOfBoundsWrite,
        _ => return None,
    })
}

impl StaticDetector for TaintDetector {
    fn name(&self) -> &'static str {
        "taint-flow"
    }

    fn cwes(&self) -> Vec<Cwe> {
        vec![
            Cwe::SqlInjection,
            Cwe::CommandInjection,
            Cwe::CrossSiteScripting,
            Cwe::PathTraversal,
            Cwe::FormatString,
            Cwe::OutOfBoundsWrite,
        ]
    }

    fn scan(&self, program: &Program) -> Vec<Finding> {
        let analysis = TaintAnalysis::run(program, &self.config);
        analysis
            .findings
            .iter()
            .filter_map(|f| {
                let cwe = sink_kind_to_cwe(&f.sink_kind)?;
                Some(Finding {
                    cwe,
                    function: f.function.clone(),
                    span: f.span,
                    detector: "taint-flow".into(),
                    message: format!(
                        "attacker-controlled data reaches `{}` ({} sink{})",
                        f.call,
                        f.sink_kind,
                        if f.interprocedural { ", via wrapper" } else { "" }
                    ),
                    confidence: Confidence::High,
                    evidence: None,
                })
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Shared statement-flattening helpers
// ---------------------------------------------------------------------------

/// Pre-order flattened view of a function body (source order).
fn flatten(func: &Function) -> Vec<&Stmt> {
    let mut v = Vec::new();
    func.walk_stmts(&mut |s| v.push(s));
    v
}

/// Returns `true` if `expr` (recursively) reads variable `var`.
fn expr_reads(expr: &Expr, var: &str) -> bool {
    expr.read_vars().contains(&var)
}

/// Returns `true` if the statement dereferences/indexes `var` anywhere
/// (read or write through the pointer).
fn stmt_uses_pointer(s: &Stmt, var: &str) -> bool {
    let mut used = false;
    let mut check_expr = |e: &Expr| {
        e.walk(&mut |sub| match &sub.kind {
            ExprKind::Index(base, _) => {
                if let ExprKind::Var(v) = &base.kind {
                    if v == var {
                        used = true;
                    }
                }
            }
            ExprKind::Unary(UnOp::Deref, inner) => {
                if let ExprKind::Var(v) = &inner.kind {
                    if v == var {
                        used = true;
                    }
                }
            }
            ExprKind::Call(_, args) => {
                // Passing the pointer to a function counts as a use.
                for a in args {
                    if let ExprKind::Var(v) = &a.kind {
                        if v == var {
                            used = true;
                        }
                    }
                }
            }
            _ => {}
        });
    };
    for e in s.exprs() {
        check_expr(e);
    }
    if let StmtKind::Assign { target, .. } = &s.kind {
        match target {
            LValue::Index(b, _) => {
                if let ExprKind::Var(v) = &b.kind {
                    if v == var {
                        used = true;
                    }
                }
            }
            LValue::Deref(e) => {
                if let ExprKind::Var(v) = &e.kind {
                    if v == var {
                        used = true;
                    }
                }
            }
            LValue::Var(_) => {}
        }
    }
    used
}

/// Returns the call arguments if `expr` contains a call to `name` anywhere.
fn find_call<'a>(expr: &'a Expr, name: &str) -> Option<&'a [Expr]> {
    let mut found: Option<&'a [Expr]> = None;
    expr.walk(&mut |e| {
        if found.is_none() {
            if let ExprKind::Call(n, args) = &e.kind {
                if n == name {
                    found = Some(args.as_slice());
                }
            }
        }
    });
    found
}

// ---------------------------------------------------------------------------
// Bounds detector (CWE-787 loop copies, CWE-125 unchecked reads)
// ---------------------------------------------------------------------------

/// Flags unbounded index writes in loops (CWE-787) and table reads with
/// unvalidated external indices (CWE-125).
#[derive(Debug, Default)]
pub struct BoundsDetector;

impl BoundsDetector {
    fn scan_function(func: &Function, out: &mut Vec<Finding>) {
        let stmts = flatten(func);
        // Arrays declared locally with fixed size.
        let arrays: Vec<&str> = stmts
            .iter()
            .filter_map(|s| match &s.kind {
                StmtKind::Decl { name, ty: Type::Array(_, _), .. } => Some(name.as_str()),
                _ => None,
            })
            .collect();

        // CWE-787: while-loop writing arr[i] where the condition never
        // bounds i from above.
        func.walk_stmts(&mut |s| {
            if let StmtKind::While { cond, body } = &s.kind {
                for inner in body {
                    if let StmtKind::Assign { target: LValue::Index(base, idx), .. } = &inner.kind
                    {
                        let (ExprKind::Var(b), ExprKind::Var(i)) = (&base.kind, &idx.kind) else {
                            continue;
                        };
                        if !arrays.contains(&b.as_str()) {
                            continue;
                        }
                        if !cond_bounds_var(cond, i) {
                            out.push(Finding {
                                cwe: Cwe::OutOfBoundsWrite,
                                function: func.name.to_string(),
                                span: inner.span,
                                detector: "bounds-check".into(),
                                message: format!(
                                    "loop writes `{b}[{i}]` but the loop condition never bounds `{i}`"
                                ),
                                confidence: Confidence::High,
                                evidence: None,
                            });
                        }
                    }
                }
            }
        });

        // CWE-125: arr[idx] read where idx is derived from external input
        // and no earlier branch validates idx.
        let external_indices: Vec<(&str, usize)> = stmts
            .iter()
            .enumerate()
            .filter_map(|(pos, s)| match &s.kind {
                StmtKind::Decl { name, init: Some(init), .. }
                    if find_call(init, "to_int").is_some() =>
                {
                    Some((name.as_str(), pos))
                }
                _ => None,
            })
            .collect();
        for (idx_var, decl_pos) in external_indices {
            for (pos, s) in stmts.iter().enumerate().skip(decl_pos + 1) {
                // A validating branch before the use suppresses the finding.
                if let StmtKind::If { cond, .. } = &s.kind {
                    if expr_reads(cond, idx_var) {
                        break;
                    }
                }
                let mut read = false;
                for e in s.exprs() {
                    e.walk(&mut |sub| {
                        if let ExprKind::Index(base, i) = &sub.kind {
                            if let (ExprKind::Var(b), ExprKind::Var(iv)) = (&base.kind, &i.kind) {
                                if iv == idx_var && arrays.contains(&b.as_str()) {
                                    read = true;
                                }
                            }
                        }
                    });
                }
                if read {
                    out.push(Finding {
                        cwe: Cwe::OutOfBoundsRead,
                        function: func.name.to_string(),
                        span: stmts[pos].span,
                        detector: "bounds-check".into(),
                        message: format!(
                            "external index `{idx_var}` used for table read without validation"
                        ),
                        confidence: Confidence::Medium,
                        evidence: None,
                    });
                    break;
                }
            }
        }
    }
}

/// Returns `true` if `cond` constrains `var` from above (`var < x`,
/// `var <= x`, `x > var`, `x >= var`), anywhere in the condition.
fn cond_bounds_var(cond: &Expr, var: &str) -> bool {
    let mut bounded = false;
    cond.walk(&mut |e| {
        if let ExprKind::Binary(op, l, r) = &e.kind {
            let l_is_var = matches!(&l.kind, ExprKind::Var(v) if v == var);
            let r_is_var = matches!(&r.kind, ExprKind::Var(v) if v == var);
            match op {
                BinOp::Lt | BinOp::Le if l_is_var => bounded = true,
                BinOp::Gt | BinOp::Ge if r_is_var => bounded = true,
                _ => {}
            }
        }
    });
    bounded
}

impl StaticDetector for BoundsDetector {
    fn name(&self) -> &'static str {
        "bounds-check"
    }

    fn cwes(&self) -> Vec<Cwe> {
        vec![Cwe::OutOfBoundsWrite, Cwe::OutOfBoundsRead]
    }

    fn scan(&self, program: &Program) -> Vec<Finding> {
        let mut out = Vec::new();
        for f in &program.functions {
            Self::scan_function(f, &mut out);
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Use-after-free detector (CWE-416)
// ---------------------------------------------------------------------------

/// Flags uses of a pointer after `free_mem(p)` in source order.
#[derive(Debug, Default)]
pub struct UseAfterFreeDetector;

impl StaticDetector for UseAfterFreeDetector {
    fn name(&self) -> &'static str {
        "lifetime-order"
    }

    fn cwes(&self) -> Vec<Cwe> {
        vec![Cwe::UseAfterFree]
    }

    fn scan(&self, program: &Program) -> Vec<Finding> {
        let mut out = Vec::new();
        for func in &program.functions {
            let stmts = flatten(func);
            for (pos, s) in stmts.iter().enumerate() {
                let freed = s.exprs().iter().find_map(|e| {
                    find_call(e, "free_mem").and_then(|args| match args.first().map(|a| &a.kind) {
                        Some(ExprKind::Var(v)) => Some(v.clone()),
                        _ => None,
                    })
                });
                let Some(var) = freed else { continue };
                for later in stmts.iter().skip(pos + 1) {
                    // Reassignment ends the dangling window.
                    if let StmtKind::Assign { target: LValue::Var(v), .. } = &later.kind {
                        if *v == var {
                            break;
                        }
                    }
                    if stmt_uses_pointer(later, &var) {
                        out.push(Finding {
                            cwe: Cwe::UseAfterFree,
                            function: func.name.to_string(),
                            span: later.span,
                            detector: "lifetime-order".into(),
                            message: format!("`{var}` used after `free_mem({var})`"),
                            confidence: Confidence::High,
                            evidence: None,
                        });
                        break;
                    }
                }
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Integer-overflow detector (CWE-190)
// ---------------------------------------------------------------------------

/// Flags external counts multiplied into allocation sizes without a
/// preceding range check.
#[derive(Debug, Default)]
pub struct OverflowDetector;

const EXTERNAL_INT_WRAPPERS: [&str; 1] = ["to_int"];

impl StaticDetector for OverflowDetector {
    fn name(&self) -> &'static str {
        "int-range"
    }

    fn cwes(&self) -> Vec<Cwe> {
        vec![Cwe::IntegerOverflow]
    }

    fn scan(&self, program: &Program) -> Vec<Finding> {
        let mut out = Vec::new();
        for func in &program.functions {
            let stmts = flatten(func);
            // counts: var name -> decl position.
            let counts: Vec<(&str, usize)> = stmts
                .iter()
                .enumerate()
                .filter_map(|(pos, s)| match &s.kind {
                    StmtKind::Decl { name, init: Some(init), .. }
                        if EXTERNAL_INT_WRAPPERS.iter().any(|w| find_call(init, w).is_some()) =>
                    {
                        Some((name.as_str(), pos))
                    }
                    _ => None,
                })
                .collect();
            for (count_var, decl_pos) in counts {
                let mut checked = false;
                for (pos, s) in stmts.iter().enumerate().skip(decl_pos + 1) {
                    if let StmtKind::If { cond, .. } = &s.kind {
                        if expr_reads(cond, count_var) {
                            checked = true;
                        }
                    }
                    // total = count * k (either operand order).
                    let mul_target: Option<&str> = match &s.kind {
                        StmtKind::Decl { name, init: Some(init), .. } => {
                            is_mul_of(init, count_var).then_some(name.as_str())
                        }
                        StmtKind::Assign { target: LValue::Var(name), value, .. } => {
                            is_mul_of(value, count_var).then_some(name.as_str())
                        }
                        _ => None,
                    };
                    let Some(total_var) = mul_target else { continue };
                    if checked {
                        break;
                    }
                    // The product must feed an allocation to be dangerous.
                    let feeds_alloc = stmts.iter().skip(pos + 1).any(|later| {
                        later.exprs().iter().any(|e| {
                            find_call(e, "alloc_buffer").is_some_and(|args| {
                                args.first().is_some_and(
                                    |a| matches!(&a.kind, ExprKind::Var(v) if v == total_var),
                                )
                            })
                        })
                    });
                    if feeds_alloc {
                        out.push(Finding {
                            cwe: Cwe::IntegerOverflow,
                            function: func.name.to_string(),
                            span: s.span,
                            detector: "int-range".into(),
                            message: format!(
                                "external count `{count_var}` multiplied into allocation size without range check"
                            ),
                            confidence: Confidence::Medium,
                            evidence: None,
                        });
                    }
                    break;
                }
            }
        }
        out
    }
}

fn is_mul_of(e: &Expr, var: &str) -> bool {
    let mut found = false;
    e.walk(&mut |sub| {
        if let ExprKind::Binary(BinOp::Mul, l, r) = &sub.kind {
            let hit = matches!(&l.kind, ExprKind::Var(v) if v == var)
                || matches!(&r.kind, ExprKind::Var(v) if v == var);
            if hit {
                found = true;
            }
        }
    });
    found
}

// ---------------------------------------------------------------------------
// Null-dereference detector (CWE-476)
// ---------------------------------------------------------------------------

/// Flags maybe-null lookup results used without a null check.
#[derive(Debug, Default)]
pub struct NullDerefDetector;

const MAYBE_NULL_FNS: [&str; 4] = ["find_entry", "lookup_user", "get_config", "find_session"];

impl StaticDetector for NullDerefDetector {
    fn name(&self) -> &'static str {
        "null-guard"
    }

    fn cwes(&self) -> Vec<Cwe> {
        vec![Cwe::NullDereference]
    }

    fn scan(&self, program: &Program) -> Vec<Finding> {
        let mut out = Vec::new();
        for func in &program.functions {
            let stmts = flatten(func);
            for (pos, s) in stmts.iter().enumerate() {
                let StmtKind::Decl { name, init: Some(init), .. } = &s.kind else { continue };
                if !MAYBE_NULL_FNS.iter().any(|f| find_call(init, f).is_some()) {
                    continue;
                }
                for later in stmts.iter().skip(pos + 1) {
                    if let StmtKind::If { cond, .. } = &later.kind {
                        if is_null_check(cond, name) {
                            break;
                        }
                    }
                    if stmt_uses_pointer(later, name) {
                        out.push(Finding {
                            cwe: Cwe::NullDereference,
                            function: func.name.to_string(),
                            span: later.span,
                            detector: "null-guard".into(),
                            message: format!("`{name}` may be null here (lookup result unchecked)"),
                            confidence: Confidence::Medium,
                            evidence: None,
                        });
                        break;
                    }
                }
            }
        }
        out
    }
}

fn is_null_check(cond: &Expr, var: &str) -> bool {
    let mut found = false;
    cond.walk(&mut |e| {
        if let ExprKind::Binary(op, l, r) = &e.kind {
            if matches!(op, BinOp::Eq | BinOp::Ne) {
                let var_zero = |a: &Expr, b: &Expr| {
                    matches!(&a.kind, ExprKind::Var(v) if v == var)
                        && matches!(&b.kind, ExprKind::Int(0))
                };
                if var_zero(l, r) || var_zero(r, l) {
                    found = true;
                }
            }
        }
    });
    found
}

// ---------------------------------------------------------------------------
// Hard-coded credential detector (CWE-798)
// ---------------------------------------------------------------------------

/// Flags secret-shaped string literals outside the secret store.
#[derive(Debug, Default)]
pub struct CredentialDetector;

const AUTH_FNS: [&str; 4] = ["connect_service", "authenticate", "open_session", "check_secret"];

/// Heuristic: secret-shaped literals are long, spaceless, path-free, and mix
/// letters with digits.
fn secret_like(s: &str) -> bool {
    s.len() >= 10
        && !s.contains(' ')
        && !s.contains('/')
        && !s.contains('%')
        && s.chars().any(|c| c.is_ascii_digit())
        && s.chars().any(|c| c.is_ascii_alphabetic())
}

impl StaticDetector for CredentialDetector {
    fn name(&self) -> &'static str {
        "secret-scan"
    }

    fn cwes(&self) -> Vec<Cwe> {
        vec![Cwe::HardcodedCredentials]
    }

    fn scan(&self, program: &Program) -> Vec<Finding> {
        let mut out = Vec::new();
        for func in &program.functions {
            func.walk_stmts(&mut |s| {
                for root in s.exprs() {
                    root.walk(&mut |e| {
                        if let ExprKind::Call(name, args) = &e.kind {
                            if name == "load_secret" {
                                return; // sanctioned path
                            }
                            let in_auth = AUTH_FNS.contains(&name.as_str());
                            for a in args {
                                if let ExprKind::Str(lit) = &a.kind {
                                    if secret_like(lit) {
                                        out.push(Finding {
                                            cwe: Cwe::HardcodedCredentials,
                                            function: func.name.to_string(),
                                            span: a.span,
                                            detector: "secret-scan".into(),
                                            message: format!(
                                                "secret-shaped literal passed to `{name}`"
                                            ),
                                            confidence: if in_auth {
                                                Confidence::High
                                            } else {
                                                Confidence::Medium
                                            },
                                            evidence: None,
                                        });
                                    }
                                }
                            }
                        }
                    });
                }
                // Declarations initialized with secret-shaped literals.
                if let StmtKind::Decl {
                    init: Some(Expr { kind: ExprKind::Str(lit), span }), ..
                } = &s.kind
                {
                    if secret_like(lit) {
                        out.push(Finding {
                            cwe: Cwe::HardcodedCredentials,
                            function: func.name.to_string(),
                            span: *span,
                            detector: "secret-scan".into(),
                            message: "secret-shaped literal in declaration".to_string(),
                            confidence: Confidence::Medium,
                            evidence: None,
                        });
                    }
                }
            });
        }
        // One finding per (function, literal) is enough.
        out.sort_by_key(|f| (f.function.clone(), f.span.start));
        out.dedup_by_key(|f| (f.function.clone(), f.span.start));
        out
    }
}

// ---------------------------------------------------------------------------
// TOCTOU race detector (CWE-362)
// ---------------------------------------------------------------------------

/// Flags check-then-open patterns on the same path variable.
#[derive(Debug, Default)]
pub struct RaceDetector;

const OPENERS: [&str; 2] = ["open_file", "fopen_path"];

impl StaticDetector for RaceDetector {
    fn name(&self) -> &'static str {
        "toctou"
    }

    fn cwes(&self) -> Vec<Cwe> {
        vec![Cwe::RaceCondition]
    }

    fn scan(&self, program: &Program) -> Vec<Finding> {
        let mut out = Vec::new();
        for func in &program.functions {
            func.walk_stmts(&mut |s| {
                let StmtKind::If { cond, then_branch, .. } = &s.kind else { return };
                let Some(args) = find_call(cond, "file_exists") else { return };
                let Some(ExprKind::Var(path_var)) = args.first().map(|a| &a.kind) else { return };
                let mut opened = false;
                for inner in then_branch {
                    inner.walk(&mut |t| {
                        for e in t.exprs() {
                            for opener in OPENERS {
                                if let Some(oargs) = find_call(e, opener) {
                                    if oargs.first().is_some_and(
                                        |a| matches!(&a.kind, ExprKind::Var(v) if v == path_var),
                                    ) {
                                        opened = true;
                                    }
                                }
                            }
                        }
                    });
                }
                if opened {
                    out.push(Finding {
                        cwe: Cwe::RaceCondition,
                        function: func.name.to_string(),
                        span: s.span,
                        detector: "toctou".into(),
                        message: format!(
                            "`file_exists({path_var})` check races with the subsequent open"
                        ),
                        confidence: Confidence::Medium,
                        evidence: None,
                    });
                }
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use vulnman_synth::emit::EmitCtx;
    use vulnman_synth::style::StyleProfile;
    use vulnman_synth::templates;
    use vulnman_synth::tier::Tier;

    fn scan(src: &str) -> Vec<Finding> {
        RuleEngine::default_suite().scan_source(src).unwrap()
    }

    #[test]
    fn suite_catches_every_template_class_and_passes_fixes() {
        let engine = RuleEngine::default_suite();
        let style = StyleProfile::mainstream();
        // The semantic classes are out of scope by design: their templates
        // exist precisely because no syntactic rule fires on them (see
        // `crate::checkers`).
        for cwe in Cwe::ALL.into_iter().filter(|c| !c.requires_semantic_analysis()) {
            let mut caught = 0;
            let mut clean = 0;
            let n = 6;
            for seed in 0..n {
                let mut rng = StdRng::seed_from_u64(seed * 31 + cwe.id() as u64);
                let mut ctx = EmitCtx::new(&style, Tier::Curated, &mut rng);
                let pair = templates::generate(cwe, &mut ctx);
                let fv = engine.scan_source(&pair.vulnerable).unwrap();
                let ff = engine.scan_source(&pair.fixed).unwrap();
                if fv.iter().any(|f| f.cwe == cwe && f.function == pair.target_fn) {
                    caught += 1;
                }
                if !ff.iter().any(|f| f.cwe == cwe && f.function == pair.target_fn) {
                    clean += 1;
                }
            }
            assert_eq!(caught, n, "{cwe}: all vulnerable variants must be caught");
            assert_eq!(clean, n, "{cwe}: no fixed variant may be flagged");
        }
    }

    #[test]
    fn bounds_write_detected_and_bounded_loop_clean() {
        let vuln = r#"void f() { char buf[8]; char* s = read_input(); int i = 0; while (s[i] != '\0') { buf[i] = s[i]; i++; } }"#;
        let fixed = r#"void f() { char buf[8]; char* s = read_input(); int i = 0; while (s[i] != '\0' && i < 7) { buf[i] = s[i]; i++; } }"#;
        assert!(scan(vuln).iter().any(|f| f.cwe == Cwe::OutOfBoundsWrite));
        assert!(scan(fixed).iter().all(|f| f.cwe != Cwe::OutOfBoundsWrite));
    }

    #[test]
    fn oob_read_needs_external_index() {
        let internal =
            r#"void f() { int t[4]; init_table(t, 4); int i = 2; int v = t[i]; use(v); }"#;
        assert!(scan(internal).is_empty(), "constant index is fine");
        let external = r#"void f() { int t[4]; init_table(t, 4); int i = to_int(http_param("x")); int v = t[i]; use(v); }"#;
        assert!(scan(external).iter().any(|f| f.cwe == Cwe::OutOfBoundsRead));
    }

    #[test]
    fn uaf_reassignment_clears_window() {
        let ok = r#"void f() { char* p = alloc_buffer(8); free_mem(p); p = alloc_buffer(8); p[0] = 'x'; free_mem(p); }"#;
        assert!(scan(ok).iter().all(|f| f.cwe != Cwe::UseAfterFree), "{:?}", scan(ok));
        let bad = r#"void f() { char* p = alloc_buffer(8); free_mem(p); p[0] = 'x'; }"#;
        assert!(scan(bad).iter().any(|f| f.cwe == Cwe::UseAfterFree));
    }

    #[test]
    fn overflow_requires_alloc_feed() {
        let harmless =
            r#"void f() { int c = to_int(read_input()); int t = c * 8; record_metric("t", t); }"#;
        assert!(scan(harmless).iter().all(|f| f.cwe != Cwe::IntegerOverflow));
        let bad = r#"void f() { int c = to_int(read_input()); int t = c * 8; char* b = alloc_buffer(t); fill_items(b, c); }"#;
        assert!(scan(bad).iter().any(|f| f.cwe == Cwe::IntegerOverflow));
    }

    #[test]
    fn null_check_suppresses() {
        let bad = r#"void f() { char* e = find_entry(3); e[0] = 'x'; }"#;
        assert!(scan(bad).iter().any(|f| f.cwe == Cwe::NullDereference));
        let ok = r#"void f() { char* e = find_entry(3); if (e == 0) { return; } e[0] = 'x'; }"#;
        assert!(scan(ok).iter().all(|f| f.cwe != Cwe::NullDereference));
        let ok2 = r#"void f() { char* e = find_entry(3); if (0 == e) { return; } e[0] = 'x'; }"#;
        assert!(scan(ok2).iter().all(|f| f.cwe != Cwe::NullDereference));
    }

    #[test]
    fn secret_heuristic_ignores_benign_strings() {
        let benign = r#"void f() { log_event("state ok"); char* q = concat("SELECT * FROM users WHERE id = ", "5"); exec_query(escape_sql(q)); char* k = load_secret("billing_api_key"); use(k); }"#;
        assert!(
            scan(benign).iter().all(|f| f.cwe != Cwe::HardcodedCredentials),
            "{:?}",
            scan(benign)
        );
        let bad = r#"void f() { int c = connect_service("x", "sk_live_9aF3xQ81LmZz"); use(c); }"#;
        assert!(scan(bad).iter().any(|f| f.cwe == Cwe::HardcodedCredentials));
    }

    #[test]
    fn toctou_requires_same_variable() {
        let bad = r#"void f(char* p, char* q) { if (file_exists(p)) { int fd = open_file(p); read_all(fd); } }"#;
        assert!(scan(bad).iter().any(|f| f.cwe == Cwe::RaceCondition));
        let different = r#"void f(char* p, char* q) { if (file_exists(p)) { int fd = open_file(q); read_all(fd); } }"#;
        assert!(scan(different).iter().all(|f| f.cwe != Cwe::RaceCondition));
    }

    #[test]
    fn benign_corpus_has_low_false_positive_rate() {
        use vulnman_synth::generator::SampleGenerator;
        let engine = RuleEngine::default_suite();
        let mut g = SampleGenerator::new(99, StyleProfile::mainstream());
        let mut fps = 0;
        let n = 60;
        for _ in 0..n {
            let b = g.benign(Tier::RealWorld, "p");
            if !engine.scan_source(&b.source).unwrap().is_empty() {
                fps += 1;
            }
        }
        assert!(fps <= n / 20, "too many FPs on benign code: {fps}/{n}");
    }

    #[test]
    fn full_suite_includes_dynamic_analysis() {
        let e = RuleEngine::full_suite();
        assert!(e.detector_names().contains(&"dynamic-sanitizer"));
        assert_eq!(
            e.detector_names().len(),
            RuleEngine::default_suite().detector_names().len() + 1
        );
    }

    #[test]
    fn engine_is_extensible() {
        struct Nop;
        impl StaticDetector for Nop {
            fn name(&self) -> &'static str {
                "nop"
            }
            fn cwes(&self) -> Vec<Cwe> {
                vec![]
            }
            fn scan(&self, _: &Program) -> Vec<Finding> {
                vec![]
            }
        }
        let mut e = RuleEngine::new();
        e.register(Box::new(Nop));
        assert_eq!(e.detector_names(), vec!["nop"]);
        assert!(e.scan_source("void f() { }").unwrap().is_empty());
    }

    #[test]
    fn findings_sorted_by_position() {
        let src = r#"void f() { char* a = read_input(); system(a); char* e = find_entry(1); e[0] = 'x'; }"#;
        let fs = scan(src);
        assert!(fs.len() >= 2);
        assert!(fs.windows(2).all(|w| w[0].span.start <= w[1].span.start));
    }
}
