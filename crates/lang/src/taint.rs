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
//! Each function is analyzed on the lowered form the abstract domains
//! interpret ([`FnShape`]): its CFG, reverse post-order and instructions
//! whose variables are slots of the function's slot table and whose
//! expressions live in one node arena. Per-function data-flow state is a
//! dense `Vec<Origins>` indexed by slot, so joins are elementwise ORs over a
//! flat vector; an untouched slot holds `0`, "no origins". Once per function
//! analysis, the function's callee table is resolved by name against the
//! [`TaintConfig`] (sanitizer, source, sink positions and kind) and the
//! current summaries, so evaluating a call costs an index and no variable
//! or callee is looked up by name while the sweep runs. The call sites of
//! an instruction are [`Lowered::calls`], in the pre-order the sink checks
//! (and the kind order of `param_to_sink`) follow; a finding's span is the
//! call expression's, kept beside the arena. Findings are only
//! materialized on the final pass; fixpoint rounds compute summaries alone.
//!
//! Taint shares the IR with the domains, not their lattice: return
//! summaries are parameter bitmasks, a call of an unknown function passes
//! its arguments' taint on, a sanitizer clears every kind, and a slot never
//! written is clean rather than unknown.

use crate::absint::lower::{Inst, Lowered, Node, NodeId, Op, Target};
use crate::absint::provenance::{SANITIZER_FNS, SOURCE_FNS};
use crate::absint::{CallGraph, FnShape};
use crate::ast::{Function, Program};
use crate::cfg::SpannedInst;
use crate::intern::FnvBuildHasher;
use crate::span::Span;
use std::collections::{BTreeMap, HashMap, HashSet};

/// Function-summary table keyed by function name.
pub type SummaryMap = HashMap<String, FnSummary, FnvBuildHasher>;

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
    /// generator and the rule-based detectors. Its sources and sanitizers
    /// are the provenance domain's ([`SOURCE_FNS`], [`SANITIZER_FNS`]).
    pub fn default_config() -> Self {
        let mut cfg = TaintConfig::new();
        for s in SOURCE_FNS {
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
        for (s, _) in SANITIZER_FNS {
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
        let shapes: Vec<FnShape> = program.functions.iter().map(FnShape::build).collect();
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
                let func = &program.functions[i];
                let (summary, mut fnd) =
                    analyze_function(func, &shapes[i], config, &summaries, true);
                if resolves_here(i) {
                    *summaries.get_mut(func.name.as_str()).expect("summary slot") = summary;
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
                    let func = &program.functions[i];
                    let (summary, _) =
                        analyze_function(func, &shapes[i], config, &summaries, false);
                    let slot = summaries.get_mut(func.name.as_str()).expect("summary slot");
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
            for (func, shape) in program.functions.iter().zip(&shapes) {
                let (_, mut fnd) = analyze_function(func, shape, config, &summaries, true);
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
            let shape = FnShape::build(func);
            let (_, mut fnd) = analyze_function(func, &shape, config, &summaries, true);
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

/// What one callee-table entry of a function means to the analysis,
/// resolved by name against the configuration and the summary table once
/// per function analysis.
#[derive(Clone, Copy)]
struct Resolved<'a> {
    /// The called name.
    name: &'a str,
    sanitizer: bool,
    source: bool,
    /// Dangerous argument positions (empty = all) and the sink's kind.
    sink: Option<(&'a [usize], &'a str)>,
    /// The summary of a function of the program.
    summary: Option<&'a FnSummary>,
}

/// One function's analysis: its lowered form with the callee table
/// resolved, and the summary pieces and findings accumulated so far.
struct FnAnalysis<'a> {
    function: &'a str,
    body: &'a Lowered,
    callees: Vec<Resolved<'a>>,
    /// Parameters tracked relationally.
    params: usize,
    /// `None` on fixpoint rounds, which compute summaries alone.
    findings: Option<Vec<TaintFinding>>,
    param_to_sink: BTreeMap<usize, Vec<String>>,
    internal_flow: bool,
    ret_origins: Origins,
}

/// Analyzes a single function; returns its summary and (when
/// `collect_findings` is set) local findings. Fixpoint rounds pass `false`
/// so no finding records are allocated until summaries have converged.
fn analyze_function(
    func: &Function,
    shape: &FnShape,
    config: &TaintConfig,
    summaries: &SummaryMap,
    collect_findings: bool,
) -> (FnSummary, Vec<TaintFinding>) {
    let FnShape { cfg, rpo, rank, lowered: body, .. } = shape;
    let callees = body
        .callees
        .iter()
        .map(|c| {
            let name = c.name.as_str();
            Resolved {
                name,
                sanitizer: config.is_sanitizer(name),
                source: config.is_source(name),
                sink: config.sink_positions(name).map(|p| (p, config.sink_kind(name))),
                summary: summaries.get(name),
            }
        })
        .collect();
    let mut a = FnAnalysis {
        function: func.name.as_str(),
        body,
        callees,
        params: body.params().len().min(MAX_PARAMS),
        findings: collect_findings.then(Vec::new),
        param_to_sink: BTreeMap::new(),
        internal_flow: false,
        ret_origins: 0,
    };
    let nslots = shape.slot_count();

    // Parameters carry their own origin bit at function entry.
    let mut entry_env = vec![0u64; nslots];
    for (i, &s) in body.params().iter().take(MAX_PARAMS).enumerate() {
        entry_env[s as usize] = 1u64 << i;
    }

    let n = cfg.blocks.len();
    // In reverse post-order every forward edge points rightward, so when the
    // CFG has no back edge (loop-free function — the common case) all
    // predecessor exits are final by the time a block is visited: one sweep
    // computes the exact solution. (The entry block never merges predecessor
    // state — parameters are its fixed entry facts — so a stray edge back
    // into it cannot carry information and does not spoil exactness.)
    // Unreachable blocks have no predecessors after the builder's pruning.
    let acyclic =
        (0..n).all(|b| b == cfg.entry || cfg.blocks[b].preds.iter().all(|&p| rank[p] < rank[b]));

    if acyclic {
        // Single exact pass: the sink checks run on the same per-instruction
        // environments the dataflow sweep computes, so there is no separate
        // fixpoint or replay. Findings are order-normalized by the caller's
        // sort, and the summary pieces (`ret_origins`, `param_to_sink`,
        // `internal_flow`) are all accumulative, so visiting blocks in
        // reverse post-order instead of index order changes nothing.
        let mut at_exit: Vec<Vec<Origins>> = vec![Vec::new(); n];
        for &b in rpo {
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
            a.run_block(&cfg.blocks[b].insts, &mut env, true);
            at_exit[b] = env;
        }
        // Blocks unreachable from the entry never execute, but they have
        // always been scanned from an all-clean state (a directly source-fed
        // sink there is still a finding); returns in dead code never reach a
        // caller, so they do not feed `ret_origins`.
        for (b, block) in cfg.blocks.iter().enumerate() {
            if shape.reachable[b] {
                continue;
            }
            a.run_block(&block.insts, &mut vec![0u64; nslots], false);
        }
    } else {
        // Loops: iterate block states to a fixpoint, then replay each block
        // from its converged entry state to run the sink checks.
        let mut at_entry: Vec<Vec<Origins>> = vec![vec![0; nslots]; n];
        at_entry[cfg.entry] = entry_env;
        let mut at_exit: Vec<Vec<Origins>> = vec![vec![0; nslots]; n];
        for _ in 0..(n * 2 + 4) {
            let mut changed = false;
            for &b in rpo {
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
                    a.transfer(&si.inst, &mut env, true);
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
            a.run_block(&block.insts, &mut at_entry[b].clone(), false);
        }
    }

    let FnAnalysis { findings, param_to_sink, internal_flow, ret_origins, .. } = a;
    (FnSummary { ret_origins, param_to_sink, internal_flow }, findings.unwrap_or_default())
}

impl FnAnalysis<'_> {
    /// Runs each instruction of a block: the sink checks on every call it
    /// makes (including calls nested in indirect assignment targets) under
    /// the environment holding *before* it executes, then its transfer.
    fn run_block(&mut self, insts: &[SpannedInst<Inst>], env: &mut [Origins], feed_ret: bool) {
        let body = self.body;
        for si in insts {
            for &n in body.calls(&si.inst) {
                self.check_call(n, env);
            }
            self.transfer(&si.inst, env, feed_ret);
        }
    }

    /// Applies one instruction's dataflow transfer to `env`. Return-value
    /// origins feed the summary only when `feed_ret` is set (the replay
    /// passes clear it — dead and already-summarized returns must not feed
    /// the summary twice).
    fn transfer(&mut self, inst: &Inst, env: &mut [Origins], feed_ret: bool) {
        match inst.op {
            Op::Decl { slot, init, .. } => {
                env[slot as usize] = init.map_or(0, |e| self.origins(e, env));
            }
            Op::Assign { target, value } => {
                let t = self.origins(value, env);
                match target {
                    Target::Var(s) => env[s as usize] = t,
                    Target::Deref(e) | Target::Index(e, _) => {
                        // Indirect store taints the base object (weak update:
                        // union with existing taint).
                        if let Node::Var(base) = self.body.node(e) {
                            env[base as usize] |= t;
                        }
                    }
                }
            }
            Op::Return(Some(e)) if feed_ret => self.ret_origins |= self.origins(e, env),
            Op::Return(_) | Op::Expr(_) | Op::Branch(_) => {}
        }
    }

    /// Checks call node `n`: direct sinks from the configuration, then
    /// derived sinks from the callee's summary.
    fn check_call(&mut self, n: NodeId, env: &[Origins]) {
        let body = self.body;
        let Node::Call(c, args) = body.node(n) else { return };
        let args = body.args(args);
        let callee = self.callees[c as usize];
        if let Some((positions, kind)) = callee.sink {
            if positions.is_empty() {
                for pos in 0..args.len() {
                    self.check_arg(n, callee.name, args.get(pos), kind, false, env);
                }
            } else {
                for &pos in positions {
                    self.check_arg(n, callee.name, args.get(pos), kind, false, env);
                }
            }
        }
        if let Some(s) = callee.summary {
            for (&pos, kinds) in &s.param_to_sink {
                for kind in kinds {
                    self.check_arg(n, callee.name, args.get(pos), kind, true, env);
                }
            }
        }
    }

    /// Checks one dangerous argument of call node `n`: a source-tainted
    /// argument is a finding, a parameter-tainted one a derived-sink entry.
    fn check_arg(
        &mut self,
        n: NodeId,
        call: &str,
        arg: Option<&NodeId>,
        kind: &str,
        via_wrapper: bool,
        env: &[Origins],
    ) {
        let Some(&arg) = arg else { return };
        let t = self.origins(arg, env);
        if t & SOURCE_BIT != 0 {
            if let Some(findings) = &mut self.findings {
                findings.push(TaintFinding {
                    function: self.function.to_string(),
                    call: call.to_string(),
                    sink_kind: kind.to_string(),
                    span: self.body.call_span(n),
                    interprocedural: via_wrapper,
                });
            }
            self.internal_flow = true;
        }
        // Record parameter-origin flows for the derived-sink summary.
        for i in 0..self.params {
            if t & (1u64 << i) != 0 {
                let kinds = self.param_to_sink.entry(i).or_default();
                if !kinds.iter().any(|k| k == kind) {
                    kinds.push(kind.to_string());
                }
            }
        }
    }

    /// The origin mask of node `n` under `env`.
    fn origins(&self, n: NodeId, env: &[Origins]) -> Origins {
        match self.body.node(n) {
            Node::Int(_) | Node::Char(_) | Node::Str => 0,
            Node::Var(s) => env[s as usize],
            Node::Unary(_, e) => self.origins(e, env),
            Node::Binary(_, l, r) | Node::Index(l, r) => {
                self.origins(l, env) | self.origins(r, env)
            }
            Node::Call(c, args) => {
                let callee = &self.callees[c as usize];
                if callee.sanitizer {
                    return 0;
                }
                let args = self.body.args(args);
                let mut t = if callee.source { SOURCE_BIT } else { 0 };
                match callee.summary {
                    Some(s) => {
                        // Known function: return carries SOURCE if the callee
                        // returns source data, plus the origins of any
                        // argument the return value depends on.
                        t |= s.ret_origins & SOURCE_BIT;
                        for (i, &arg) in args.iter().enumerate().take(MAX_PARAMS) {
                            if s.ret_origins & (1u64 << i) != 0 {
                                t |= self.origins(arg, env);
                            }
                        }
                    }
                    None => {
                        // Unknown library function: conservatively propagate
                        // argument taint through the return value.
                        for &arg in args {
                            t |= self.origins(arg, env);
                        }
                    }
                }
                t
            }
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
    fn default_vocabulary_is_the_provenance_domains() {
        let cfg = TaintConfig::default_config();
        let sources: HashSet<&str> = cfg.source_names().collect();
        assert_eq!(sources, SOURCE_FNS.into_iter().collect());
        let sanitizers: HashSet<&str> = cfg.sanitizers.iter().map(String::as_str).collect();
        assert_eq!(sanitizers, SANITIZER_FNS.iter().map(|&(name, _)| name).collect());
    }

    #[test]
    fn all_positions_sink_checks_every_argument() {
        let p =
            parse(r#"void f(char* a) { char* t = read_input(); audit(t, "x"); audit("y", a); }"#)
                .unwrap();
        let mut cfg = TaintConfig::default_config();
        cfg.add_sink("audit", vec![], "log");
        let r = TaintAnalysis::run(&p, &cfg);
        assert_eq!(r.findings.len(), 1, "source data in position 0");
        assert_eq!(r.summaries["f"].param_to_sink[&0], vec!["log".to_string()], "param in 1");
    }

    #[test]
    fn calls_in_indirect_store_targets_are_checked() {
        let src = r#"void f(char* buf) { char* q = read_input(); buf[exec_query(q)] = 0; *lookup(system(q)) = 1; }"#;
        let r = run(src);
        let calls: Vec<_> = r.findings.iter().map(|f| &src[f.span.start..f.span.end]).collect();
        assert_eq!(calls, ["exec_query(q)", "system(q)"]);
    }

    #[test]
    fn finding_span_is_the_call_expression() {
        let src = r#"void f() { char* q = read_input(); wrap(1, exec_query(q)); }"#;
        let r = run(src);
        assert_eq!(r.findings.len(), 1);
        let s = r.findings[0].span;
        assert_eq!(&src[s.start..s.end], "exec_query(q)");
    }

    #[test]
    fn derived_sink_kinds_keep_pre_order() {
        // The evaluated expression's calls come first, outer before inner,
        // then the indirect target's.
        let r = run(r#"void w(char* a, char* b) { b[exec_query(a)] = system(render_html(a)); }"#);
        let kinds = &r.summaries["w"].param_to_sink[&0];
        assert_eq!(kinds, &["command", "xss", "sql"].map(String::from));
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
