//! Interprocedural taint analysis.
//!
//! Tracks data from configurable *sources* (e.g. `read_input`, `recv`,
//! `http_param`) to *sinks* (e.g. `strcpy`, `system`, `exec_query`), with
//! *sanitizers* cutting propagation. Function summaries make the analysis
//! interprocedural: a wrapper that forwards its parameter into a sink is
//! itself treated as a sink, and a function returning attacker data is
//! itself treated as a source.
//!
//! This engine backs the rule-based detectors in `vulnman-analysis` (the
//! "traditional static analysis tools" of the paper's Figure 1) and the
//! expert-feature extractor in `vulnman-ml` (Gap Observation 5).
//!
//! ## Performance shape
//!
//! Per-function data-flow state is a dense `Vec<Origins>` indexed by a
//! per-function *slot map* (variable name → index) built once up front, so
//! joins are elementwise ORs over a flat vector and transfer functions never
//! hash or clone variable names. An absent map key in the old representation
//! meant "no origins" (`0`), which is exactly what an untouched slot holds,
//! so the dense form computes identical results. Findings are only
//! materialized on the final pass; fixpoint rounds compute summaries alone.

use crate::absint::CallGraph;
use crate::ast::{Expr, ExprKind, Function, LValue, Program};
use crate::cfg::{Cfg, CfgInst};
use crate::intern::FnvBuildHasher;
use crate::span::Span;
use std::collections::{BTreeMap, HashMap, HashSet};

/// Function-summary table keyed by function name.
pub type SummaryMap = HashMap<String, FnSummary, FnvBuildHasher>;

/// Per-function variable slot map (name → dense index).
type SlotMap<'p> = HashMap<&'p str, usize, FnvBuildHasher>;

/// Maximum number of parameters tracked relationally per function.
const MAX_PARAMS: usize = 62;
/// Origin bit marking data produced by a taint source.
const SOURCE_BIT: u64 = 1 << 63;

/// Taint origins as a bitmask: bit 63 = from a source call, bits `0..62` =
/// from the corresponding parameter.
pub type Origins = u64;

/// Configuration of sources, sinks, and sanitizers.
///
/// # Examples
///
/// ```
/// use vulnman_lang::taint::TaintConfig;
/// let cfg = TaintConfig::default_config();
/// assert!(cfg.is_source("read_input"));
/// assert!(cfg.sink_positions("strcpy").is_some());
/// assert!(cfg.is_sanitizer("escape_sql"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct TaintConfig {
    sources: HashSet<String>,
    /// sink name -> dangerous argument positions (empty = all positions).
    sinks: HashMap<String, Vec<usize>>,
    /// sink name -> category label used in findings (e.g. "sql", "memory").
    sink_kinds: HashMap<String, String>,
    sanitizers: HashSet<String>,
}

impl TaintConfig {
    /// Creates an empty configuration.
    pub fn new() -> Self {
        TaintConfig::default()
    }

    /// The default source/sink/sanitizer vocabulary shared by the corpus
    /// generator and the rule-based detectors.
    pub fn default_config() -> Self {
        let mut cfg = TaintConfig::new();
        for s in [
            "read_input",
            "recv",
            "getenv",
            "http_param",
            "read_file",
            "read_socket",
            "get_request_field",
            "deserialize",
        ] {
            cfg.add_source(s);
        }
        // (name, positions, kind)
        let sinks: &[(&str, &[usize], &str)] = &[
            ("strcpy", &[1], "memory"),
            ("strcat", &[1], "memory"),
            ("memcpy", &[1, 2], "memory"),
            ("sprintf", &[1], "format"),
            ("printf_fmt", &[0], "format"),
            ("system", &[0], "command"),
            ("exec_shell", &[0], "command"),
            ("popen", &[0], "command"),
            ("exec_query", &[0], "sql"),
            ("sql_execute", &[0], "sql"),
            ("render_html", &[0], "xss"),
            ("write_response", &[0], "xss"),
            ("open_file", &[0], "path"),
            ("fopen_path", &[0], "path"),
            ("eval_expr", &[0], "injection"),
        ];
        for (name, positions, kind) in sinks {
            cfg.add_sink(*name, positions.to_vec(), *kind);
        }
        for s in [
            "escape_sql",
            "escape_html",
            "sanitize_path",
            "validate_input",
            "bound_check",
            "escape_shell",
            "sanitize",
            "clamp_len",
        ] {
            cfg.add_sanitizer(s);
        }
        cfg
    }

    /// Registers a source function: its return value is attacker-controlled.
    pub fn add_source(&mut self, name: impl Into<String>) -> &mut Self {
        self.sources.insert(name.into());
        self
    }

    /// Registers a sink with the argument positions that must not be tainted
    /// and a category label for findings.
    pub fn add_sink(
        &mut self,
        name: impl Into<String>,
        positions: Vec<usize>,
        kind: impl Into<String>,
    ) -> &mut Self {
        let name = name.into();
        self.sink_kinds.insert(name.clone(), kind.into());
        self.sinks.insert(name, positions);
        self
    }

    /// Registers a sanitizer: its return value is always clean.
    pub fn add_sanitizer(&mut self, name: impl Into<String>) -> &mut Self {
        self.sanitizers.insert(name.into());
        self
    }

    /// Returns `true` if `name` is a registered source.
    pub fn is_source(&self, name: &str) -> bool {
        self.sources.contains(name)
    }

    /// Returns `true` if `name` is a registered sanitizer.
    pub fn is_sanitizer(&self, name: &str) -> bool {
        self.sanitizers.contains(name)
    }

    /// Dangerous argument positions of `name`, if it is a sink.
    pub fn sink_positions(&self, name: &str) -> Option<&[usize]> {
        self.sinks.get(name).map(|v| v.as_slice())
    }

    /// Category label of sink `name` (defaults to `"generic"`).
    pub fn sink_kind(&self, name: &str) -> &str {
        self.sink_kinds.get(name).map(String::as_str).unwrap_or("generic")
    }

    /// Iterates over all registered source names.
    pub fn source_names(&self) -> impl Iterator<Item = &str> {
        self.sources.iter().map(String::as_str)
    }
}

/// Interprocedural summary of one function.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FnSummary {
    /// Origins the return value may carry: `SOURCE_BIT` and/or parameter bits.
    pub ret_origins: Origins,
    /// For each parameter index, the sink kinds that parameter may flow into
    /// inside this function (making the function a *derived sink*).
    pub param_to_sink: BTreeMap<usize, Vec<String>>,
    /// Whether a source-tainted value reaches a sink entirely inside this
    /// function (a self-contained vulnerability).
    pub internal_flow: bool,
}

/// A source-to-sink flow detected by the analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaintFinding {
    /// Function in which the dangerous call occurs.
    pub function: String,
    /// The called function at the dangerous site (may be a wrapper).
    pub call: String,
    /// Category of the underlying sink (`"sql"`, `"memory"`, …).
    pub sink_kind: String,
    /// Location of the dangerous call.
    pub span: Span,
    /// Whether the flow passed through at least one other function.
    pub interprocedural: bool,
}

/// Result of analyzing a whole program.
#[derive(Debug, Clone, Default)]
pub struct TaintAnalysis {
    /// Per-function summaries.
    pub summaries: SummaryMap,
    /// All source-to-sink findings.
    pub findings: Vec<TaintFinding>,
}

/// Per-function analysis unit: the CFG plus the dense variable slot map.
struct FnUnit<'p> {
    func: &'p Function,
    cfg: Cfg,
    slots: SlotMap<'p>,
}

impl<'p> FnUnit<'p> {
    fn build(func: &'p Function) -> Self {
        let cfg = Cfg::build(func);
        let mut slots: SlotMap<'p> = SlotMap::default();
        for p in &func.params {
            let next = slots.len();
            slots.entry(p.name.as_str()).or_insert(next);
        }
        // Every name the transfer functions can read or write: declarations,
        // direct/indirect assignment bases, and variable reads. The CFG only
        // re-arranges AST statements (it never invents variables), so walking
        // the AST covers everything the block replay will look up.
        func.walk_stmts(&mut |s| {
            use crate::ast::StmtKind;
            match &s.kind {
                StmtKind::Decl { name, .. } => {
                    let next = slots.len();
                    slots.entry(name.as_str()).or_insert(next);
                }
                StmtKind::Assign { target, .. } => {
                    if let Some(base) = target.base_var() {
                        let next = slots.len();
                        slots.entry(base).or_insert(next);
                    }
                }
                _ => {}
            }
        });
        func.walk_exprs(&mut |e| {
            if let ExprKind::Var(name) = &e.kind {
                let next = slots.len();
                slots.entry(name.as_str()).or_insert(next);
            }
        });
        FnUnit { func, cfg, slots }
    }
}

impl TaintAnalysis {
    /// Runs the interprocedural analysis on `program` under `config`.
    ///
    /// The summary fixpoint iterates to convergence (bounded by the number of
    /// functions, so it terminates even on recursive call graphs).
    ///
    /// # Examples
    ///
    /// ```
    /// # fn main() -> Result<(), vulnman_lang::error::ParseError> {
    /// use vulnman_lang::{parser::parse, taint::{TaintAnalysis, TaintConfig}};
    /// let p = parse(r#"
    ///     void handle() {
    ///         char* q = http_param("id");
    ///         exec_query(q);
    ///     }
    /// "#)?;
    /// let result = TaintAnalysis::run(&p, &TaintConfig::default_config());
    /// assert_eq!(result.findings.len(), 1);
    /// assert_eq!(result.findings[0].sink_kind, "sql");
    /// # Ok(())
    /// # }
    /// ```
    pub fn run(program: &Program, config: &TaintConfig) -> TaintAnalysis {
        let mut summaries: SummaryMap =
            program.functions.iter().map(|f| (f.name.to_string(), FnSummary::default())).collect();
        let units: Vec<FnUnit<'_>> = program.functions.iter().map(FnUnit::build).collect();
        let graph = CallGraph::build(program);
        let (order, cyclic) = graph.post_order();
        // A name defined twice keeps its first definition's summary, the
        // node every call to it resolves to.
        let resolves_here = |i: usize| graph.resolve(graph.name(i)) == Some(i);

        let mut findings = Vec::new();
        if !cyclic {
            // Acyclic call graph (the overwhelmingly common case): in
            // callee-first order every summary a function consults is already
            // final, so one Gauss-Seidel sweep computes the exact fixpoint —
            // summaries *and* findings come out of a single analyze per
            // function instead of per-round re-analyses plus a replay pass.
            // A function's own summary is never consulted while analyzing it
            // (only callees are looked up), so inline findings match the
            // converge-then-replay result bit for bit.
            for &i in &order {
                let unit = &units[i];
                let (summary, mut fnd) = analyze_function(unit, config, &summaries, true);
                if resolves_here(i) {
                    *summaries.get_mut(unit.func.name.as_str()).expect("summary slot") = summary;
                }
                findings.append(&mut fnd);
            }
        } else {
            // Recursive programs: iterate to the least fixpoint. The transfer
            // is monotone in the summary table (bigger summaries only add
            // origin bits and derived-sink entries), so the fixpoint is
            // unique and iteration order only affects how fast we get there —
            // callee-first is fastest.
            let max_rounds = program.functions.len().max(1) + 2;
            for _ in 0..max_rounds {
                let mut changed = false;
                for &i in order.iter().filter(|&&i| resolves_here(i)) {
                    let unit = &units[i];
                    let (summary, _) = analyze_function(unit, config, &summaries, false);
                    let slot = summaries.get_mut(unit.func.name.as_str()).expect("summary slot");
                    if *slot != summary {
                        *slot = summary;
                        changed = true;
                    }
                }
                if !changed {
                    break;
                }
            }
            // Final pass: collect findings with stable summaries.
            for unit in &units {
                let (_, mut fnd) = analyze_function(unit, config, &summaries, true);
                findings.append(&mut fnd);
            }
        }
        findings.sort_by_key(|f| (f.span.start, f.call.clone()));
        findings.dedup();
        TaintAnalysis { summaries, findings }
    }

    /// Runs the analysis *intraprocedurally*: no function summaries, so
    /// wrappers around sources, sinks, or sanitizers are opaque (unknown
    /// calls conservatively propagate argument taint). This is the ablation
    /// baseline for measuring what the interprocedural machinery buys.
    pub fn run_intraprocedural(program: &Program, config: &TaintConfig) -> TaintAnalysis {
        let summaries = SummaryMap::default();
        let mut findings = Vec::new();
        for func in &program.functions {
            let unit = FnUnit::build(func);
            let (_, mut fnd) = analyze_function(&unit, config, &summaries, true);
            findings.append(&mut fnd);
        }
        findings.sort_by_key(|f| (f.span.start, f.call.clone()));
        findings.dedup();
        TaintAnalysis { summaries, findings }
    }

    /// Findings whose sink category is `kind`.
    pub fn findings_of_kind(&self, kind: &str) -> Vec<&TaintFinding> {
        self.findings.iter().filter(|f| f.sink_kind == kind).collect()
    }

    /// Returns `true` if any finding lies inside `function`.
    pub fn function_has_finding(&self, function: &str) -> bool {
        self.findings.iter().any(|f| f.function == function)
    }
}

/// Analyzes a single function; returns its summary and (when
/// `collect_findings` is set) local findings. Fixpoint rounds pass `false`
/// so no finding records are allocated until summaries have converged.
fn analyze_function(
    unit: &FnUnit<'_>,
    config: &TaintConfig,
    summaries: &SummaryMap,
    collect_findings: bool,
) -> (FnSummary, Vec<TaintFinding>) {
    let FnUnit { func, cfg, slots } = unit;
    let nslots = slots.len();

    // Parameters carry their own origin bit at function entry.
    let mut entry_env = vec![0u64; nslots];
    for (i, p) in func.params.iter().take(MAX_PARAMS).enumerate() {
        if let Some(&s) = slots.get(p.name.as_str()) {
            entry_env[s] = 1u64 << i;
        }
    }

    let n = cfg.blocks.len();
    let order = cfg.reverse_post_order();
    // In reverse post-order every forward edge points rightward, so when the
    // CFG has no back edge (loop-free function — the common case) all
    // predecessor exits are final by the time a block is visited: one sweep
    // computes the exact solution. (The entry block never merges predecessor
    // state — parameters are its fixed entry facts — so a stray edge back
    // into it cannot carry information and does not spoil exactness.)
    let mut pos = vec![0usize; n];
    for (i, &b) in order.iter().enumerate() {
        pos[b] = i;
    }
    let acyclic =
        (0..n).all(|b| b == cfg.entry || cfg.blocks[b].preds.iter().all(|&p| pos[p] < pos[b]));

    let mut findings = Vec::new();
    let mut param_to_sink: BTreeMap<usize, Vec<String>> = BTreeMap::new();
    let mut internal_flow = false;
    let mut ret_origins: Origins = 0;

    if acyclic {
        // Single exact pass: the sink checks run on the same per-instruction
        // environments the dataflow sweep computes, so there is no separate
        // fixpoint or replay. Findings are order-normalized by the caller's
        // sort, and the summary pieces (`ret_origins`, `param_to_sink`,
        // `internal_flow`) are all accumulative, so visiting blocks in
        // reverse post-order instead of index order changes nothing.
        let mut at_exit: Vec<Vec<Origins>> = vec![Vec::new(); n];
        let mut reached = vec![false; n];
        for &b in &order {
            reached[b] = true;
            let mut env: Vec<Origins> = if b == cfg.entry {
                entry_env.clone()
            } else {
                let mut merged = vec![0u64; nslots];
                for &p in &cfg.blocks[b].preds {
                    for (m, v) in merged.iter_mut().zip(&at_exit[p]) {
                        *m |= v;
                    }
                }
                merged
            };
            for si in &cfg.blocks[b].insts {
                check_inst_calls(
                    func,
                    &si.inst,
                    &env,
                    slots,
                    config,
                    summaries,
                    collect_findings.then_some(&mut findings),
                    &mut param_to_sink,
                    &mut internal_flow,
                );
                apply_transfer(
                    &si.inst,
                    &mut env,
                    slots,
                    config,
                    summaries,
                    Some(&mut ret_origins),
                );
            }
            at_exit[b] = env;
        }
        // Blocks unreachable from the entry never execute, but they have
        // always been scanned from an all-clean state (a directly source-fed
        // sink there is still a finding); returns in dead code never reach a
        // caller, so they do not feed `ret_origins`.
        for (b, block) in cfg.blocks.iter().enumerate() {
            if reached[b] {
                continue;
            }
            let mut env = vec![0u64; nslots];
            for si in &block.insts {
                check_inst_calls(
                    func,
                    &si.inst,
                    &env,
                    slots,
                    config,
                    summaries,
                    collect_findings.then_some(&mut findings),
                    &mut param_to_sink,
                    &mut internal_flow,
                );
                apply_transfer(&si.inst, &mut env, slots, config, summaries, None);
            }
        }
    } else {
        // Loops: iterate block states to a fixpoint, then replay each block
        // from its converged entry state to run the sink checks.
        let mut at_entry: Vec<Vec<Origins>> = vec![vec![0; nslots]; n];
        at_entry[cfg.entry] = entry_env;
        let mut at_exit: Vec<Vec<Origins>> = vec![vec![0; nslots]; n];
        for _ in 0..(n * 2 + 4) {
            let mut changed = false;
            for &b in &order {
                let mut env: Vec<Origins> = if b == cfg.entry {
                    at_entry[cfg.entry].clone()
                } else {
                    let mut merged = vec![0u64; nslots];
                    for &p in &cfg.blocks[b].preds {
                        for (m, v) in merged.iter_mut().zip(&at_exit[p]) {
                            *m |= v;
                        }
                    }
                    merged
                };
                if b != cfg.entry && env != at_entry[b] {
                    at_entry[b].copy_from_slice(&env);
                    changed = true;
                }
                for si in &cfg.blocks[b].insts {
                    apply_transfer(
                        &si.inst,
                        &mut env,
                        slots,
                        config,
                        summaries,
                        Some(&mut ret_origins),
                    );
                }
                if env != at_exit[b] {
                    at_exit[b] = env;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        for (b, block) in cfg.blocks.iter().enumerate() {
            let mut env = at_entry[b].clone();
            for si in &block.insts {
                check_inst_calls(
                    func,
                    &si.inst,
                    &env,
                    slots,
                    config,
                    summaries,
                    collect_findings.then_some(&mut findings),
                    &mut param_to_sink,
                    &mut internal_flow,
                );
                apply_transfer(&si.inst, &mut env, slots, config, summaries, None);
            }
        }
    }

    (FnSummary { ret_origins, param_to_sink, internal_flow }, findings)
}

/// Runs [`check_call`] on every call expression appearing in `inst`
/// (including calls nested in indirect assignment targets), under the
/// environment holding *before* the instruction executes.
#[allow(clippy::too_many_arguments)]
fn check_inst_calls(
    func: &Function,
    inst: &CfgInst,
    env: &[Origins],
    slots: &SlotMap<'_>,
    config: &TaintConfig,
    summaries: &SummaryMap,
    mut findings: Option<&mut Vec<TaintFinding>>,
    param_to_sink: &mut BTreeMap<usize, Vec<String>>,
    internal_flow: &mut bool,
) {
    let mut check = |e: &Expr| {
        if let ExprKind::Call(name, args) = &e.kind {
            check_call(
                func,
                name.as_str(),
                args,
                e.span,
                env,
                slots,
                config,
                summaries,
                findings.as_deref_mut(),
                param_to_sink,
                internal_flow,
            );
        }
    };
    if let Some(root) = inst.expr() {
        root.walk(&mut check);
    }
    // Indirect-target expressions can also contain calls.
    if let CfgInst::Assign { target, .. } = inst {
        match target {
            LValue::Var(_) => {}
            LValue::Deref(e) => e.walk(&mut check),
            LValue::Index(b2, i2) => {
                b2.walk(&mut check);
                i2.walk(&mut check);
            }
        }
    }
}

/// Applies one instruction's dataflow transfer to `env`. Return-value
/// origins are accumulated into `ret_origins` when provided (the replay
/// passes skip it — dead and already-summarized returns must not feed the
/// summary twice).
fn apply_transfer(
    inst: &CfgInst,
    env: &mut [Origins],
    slots: &SlotMap<'_>,
    config: &TaintConfig,
    summaries: &SummaryMap,
    ret_origins: Option<&mut Origins>,
) {
    match inst {
        CfgInst::Decl { name, init, .. } => {
            let t = init.as_ref().map_or(0, |e| expr_origins(e, env, slots, config, summaries));
            if let Some(&s) = slots.get(name.as_str()) {
                env[s] = t;
            }
        }
        CfgInst::Assign { target, value } => {
            let t = expr_origins(value, env, slots, config, summaries);
            match target {
                LValue::Var(name) => {
                    if let Some(&s) = slots.get(name.as_str()) {
                        env[s] = t;
                    }
                }
                LValue::Deref(e) | LValue::Index(e, _) => {
                    // Indirect store taints the base object (weak update:
                    // union with existing taint).
                    if let ExprKind::Var(base) = &e.kind {
                        if let Some(&s) = slots.get(base.as_str()) {
                            env[s] |= t;
                        }
                    }
                }
            }
        }
        CfgInst::Return(e) => {
            if let (Some(r), Some(e)) = (ret_origins, e) {
                *r |= expr_origins(e, env, slots, config, summaries);
            }
        }
        CfgInst::Expr(_) | CfgInst::Branch(_) => {}
    }
}

#[allow(clippy::too_many_arguments)]
fn check_call(
    func: &Function,
    name: &str,
    args: &[Expr],
    span: Span,
    env: &[Origins],
    slots: &SlotMap<'_>,
    config: &TaintConfig,
    summaries: &SummaryMap,
    mut findings: Option<&mut Vec<TaintFinding>>,
    param_to_sink: &mut BTreeMap<usize, Vec<String>>,
    internal_flow: &mut bool,
) {
    // Positions that are dangerous for this callee: direct sinks from config,
    // derived sinks from summaries. Kinds stay borrowed until a finding or a
    // new derived-sink entry actually needs an owned copy.
    let mut dangerous: Vec<(usize, &str, bool)> = Vec::new(); // (arg pos, kind, via wrapper)
    if let Some(positions) = config.sink_positions(name) {
        let kind = config.sink_kind(name);
        if positions.is_empty() {
            for i in 0..args.len() {
                dangerous.push((i, kind, false));
            }
        } else {
            for &p in positions {
                dangerous.push((p, kind, false));
            }
        }
    }
    if let Some(s) = summaries.get(name) {
        for (p, kinds) in &s.param_to_sink {
            for k in kinds {
                dangerous.push((*p, k.as_str(), true));
            }
        }
    }
    for (pos, kind, via_wrapper) in dangerous {
        let Some(arg) = args.get(pos) else { continue };
        let t = expr_origins(arg, env, slots, config, summaries);
        if t & SOURCE_BIT != 0 {
            if let Some(findings) = findings.as_deref_mut() {
                findings.push(TaintFinding {
                    function: func.name.to_string(),
                    call: name.to_string(),
                    sink_kind: kind.to_string(),
                    span,
                    interprocedural: via_wrapper,
                });
            }
            *internal_flow = true;
        }
        // Record parameter-origin flows for the derived-sink summary.
        for (i, _) in func.params.iter().take(MAX_PARAMS).enumerate() {
            if t & (1u64 << i) != 0 {
                let kinds = param_to_sink.entry(i).or_default();
                if !kinds.iter().any(|k| k == kind) {
                    kinds.push(kind.to_string());
                }
            }
        }
    }
}

/// Computes the origin mask of an expression under the dense `env`.
fn expr_origins(
    e: &Expr,
    env: &[Origins],
    slots: &SlotMap<'_>,
    config: &TaintConfig,
    summaries: &SummaryMap,
) -> Origins {
    match &e.kind {
        ExprKind::Int(_) | ExprKind::Char(_) | ExprKind::Str(_) => 0,
        ExprKind::Var(name) => slots.get(name.as_str()).map_or(0, |&s| env[s]),
        ExprKind::Unary(_, inner) => expr_origins(inner, env, slots, config, summaries),
        ExprKind::Binary(_, l, r) => {
            expr_origins(l, env, slots, config, summaries)
                | expr_origins(r, env, slots, config, summaries)
        }
        ExprKind::Index(b, i) => {
            expr_origins(b, env, slots, config, summaries)
                | expr_origins(i, env, slots, config, summaries)
        }
        ExprKind::Call(name, args) => {
            if config.is_sanitizer(name.as_str()) {
                return 0;
            }
            let mut t = 0;
            if config.is_source(name.as_str()) {
                t |= SOURCE_BIT;
            }
            match summaries.get(name.as_str()) {
                Some(s) => {
                    // Known function: return carries SOURCE if the callee
                    // returns source data, plus the origins of any argument
                    // the return value depends on.
                    if s.ret_origins & SOURCE_BIT != 0 {
                        t |= SOURCE_BIT;
                    }
                    for (i, arg) in args.iter().enumerate().take(MAX_PARAMS) {
                        if s.ret_origins & (1u64 << i) != 0 {
                            t |= expr_origins(arg, env, slots, config, summaries);
                        }
                    }
                }
                None => {
                    // Unknown library function: conservatively propagate
                    // argument taint through the return value.
                    for arg in args {
                        t |= expr_origins(arg, env, slots, config, summaries);
                    }
                }
            }
            t
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn run(src: &str) -> TaintAnalysis {
        let p = parse(src).unwrap();
        TaintAnalysis::run(&p, &TaintConfig::default_config())
    }

    #[test]
    fn direct_flow_detected() {
        let r = run(r#"void f() { char* q = http_param("id"); exec_query(q); }"#);
        assert_eq!(r.findings.len(), 1);
        assert_eq!(r.findings[0].sink_kind, "sql");
        assert!(!r.findings[0].interprocedural);
    }

    #[test]
    fn sanitizer_blocks_flow() {
        let r = run(
            r#"void f() { char* q = http_param("id"); char* s = escape_sql(q); exec_query(s); }"#,
        );
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn clean_data_not_flagged() {
        let r = run(r#"void f() { char* q = "SELECT 1"; exec_query(q); }"#);
        assert!(r.findings.is_empty());
    }

    #[test]
    fn flow_through_arithmetic_and_concat() {
        let r = run(
            r#"void f() { char* u = read_input(); char* q = concat("SELECT ", u); exec_query(q); }"#,
        );
        assert_eq!(r.findings.len(), 1, "unknown helper propagates taint");
    }

    #[test]
    fn flow_through_branches() {
        let r = run(
            r#"void f(int c) { char* q = "ok"; if (c) { q = http_param("x"); } exec_query(q); }"#,
        );
        assert_eq!(r.findings.len(), 1, "taint must survive the join");
    }

    #[test]
    fn flow_through_loop() {
        let r = run(
            r#"void f(int n) { char* acc = ""; while (n > 0) { acc = concat(acc, read_input()); n -= 1; } system(acc); }"#,
        );
        assert_eq!(r.findings.len(), 1);
        assert_eq!(r.findings[0].sink_kind, "command");
    }

    #[test]
    fn interprocedural_source_wrapper() {
        let r = run(r#"
            char* fetch() { char* v = read_input(); return v; }
            void f() { char* q = fetch(); exec_query(q); }
            "#);
        assert_eq!(r.findings.len(), 1);
        let s = &r.summaries["fetch"];
        assert_ne!(s.ret_origins & SOURCE_BIT, 0, "fetch returns source data");
    }

    #[test]
    fn interprocedural_sink_wrapper() {
        let r = run(r#"
            void run_query(char* q) { exec_query(q); }
            void f() { char* u = http_param("id"); run_query(u); }
            "#);
        let in_f: Vec<_> = r.findings.iter().filter(|x| x.function == "f").collect();
        assert_eq!(in_f.len(), 1, "{:?}", r.findings);
        assert!(in_f[0].interprocedural);
        assert_eq!(r.summaries["run_query"].param_to_sink[&0], vec!["sql".to_string()]);
    }

    #[test]
    fn two_level_wrapper_chain() {
        let r = run(r#"
            void level1(char* a) { exec_query(a); }
            void level2(char* b) { level1(b); }
            void f() { level2(getenv("X")); }
            "#);
        assert!(r.function_has_finding("f"), "{:?}", r.findings);
    }

    #[test]
    fn sanitizing_wrapper_is_clean() {
        let r = run(r#"
            char* clean_fetch() { return escape_sql(read_input()); }
            void f() { exec_query(clean_fetch()); }
            "#);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn param_passthrough_summary() {
        let r = run("char* ident(char* x) { return x; }");
        assert_eq!(r.summaries["ident"].ret_origins, 1, "returns param 0");
    }

    #[test]
    fn indirect_store_taints_buffer() {
        let r = run(
            r#"void f() { char buf[64]; char* u = read_input(); buf[0] = u[0]; system(buf); }"#,
        );
        assert_eq!(r.findings.len(), 1);
    }

    #[test]
    fn recursion_terminates() {
        let r = run(r#"
            char* spin(char* x, int n) { if (n > 0) { return spin(x, n - 1); } return x; }
            void f() { exec_query(spin(read_input(), 3)); }
            "#);
        assert_eq!(r.findings.len(), 1);
    }

    #[test]
    fn intraprocedural_misses_wrapped_flows_but_sees_direct_ones() {
        let src = r#"
            void run_query(char* q) { exec_query(q); }
            char* fetch() { return read_input(); }
            void direct() { exec_query(http_param("id")); }
            void sink_wrapped() { run_query(http_param("id")); }
            void source_wrapped() { exec_query(fetch()); }
        "#;
        let p = parse(src).unwrap();
        let cfg = TaintConfig::default_config();
        let intra = TaintAnalysis::run_intraprocedural(&p, &cfg);
        let inter = TaintAnalysis::run(&p, &cfg);
        // Direct flow: both see it.
        assert!(intra.function_has_finding("direct"));
        assert!(inter.function_has_finding("direct"));
        // Wrapped sink and wrapped source: only the interprocedural
        // analysis connects the flow — exactly what the summaries buy.
        assert!(!intra.function_has_finding("sink_wrapped"));
        assert!(inter.function_has_finding("sink_wrapped"));
        assert!(!intra.function_has_finding("source_wrapped"));
        assert!(inter.function_has_finding("source_wrapped"));
    }

    #[test]
    fn findings_of_kind_filters() {
        let r = run(r#"void f() { char* a = read_input(); exec_query(a); system(a); }"#);
        assert_eq!(r.findings.len(), 2);
        assert_eq!(r.findings_of_kind("sql").len(), 1);
        assert_eq!(r.findings_of_kind("command").len(), 1);
        assert!(r.findings_of_kind("path").is_empty());
    }

    #[test]
    fn multiple_sink_args_checked() {
        let r = run(r#"void f(char* dst) { char* s = recv(); memcpy(dst, s, 8); }"#);
        assert_eq!(r.findings.len(), 1, "tainted src argument of memcpy");
    }

    #[test]
    fn custom_config_sources() {
        let p = parse(r#"void f() { char* t = my_source(); my_sink(t); }"#).unwrap();
        let mut cfg = TaintConfig::new();
        cfg.add_source("my_source");
        cfg.add_sink("my_sink", vec![0], "custom");
        let r = TaintAnalysis::run(&p, &cfg);
        assert_eq!(r.findings.len(), 1);
        assert_eq!(r.findings[0].sink_kind, "custom");
    }
}
