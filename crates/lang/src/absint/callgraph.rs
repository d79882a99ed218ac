//! Program call graph and the bottom-up interprocedural analysis driver.
//!
//! Summaries are context-insensitive: one abstract return value per
//! function, computed with callees analysed first (post-order over the call
//! graph). Calls into functions not yet summarised — externals, or members
//! of a recursive cycle — evaluate to the domain's top, which keeps the
//! single bottom-up pass sound without an inter-function fixpoint.

use super::domain::{AbstractValue, Domain, Env};
use super::solver::{DomainAnalysis, Solver, SolverConfig, SolverStats};
use crate::ast::{Function, Program};
use crate::cfg::{Cfg, CfgInst};
use std::collections::{BTreeMap, BTreeSet};

/// A directed call graph over the functions defined in a [`Program`].
/// Edges to undefined (external) callees are not represented; externals are
/// handled by the domains' top fallback.
#[derive(Debug, Clone)]
pub struct CallGraph {
    names: Vec<String>,
    index: BTreeMap<String, usize>,
    callees: Vec<Vec<usize>>,
    callers: Vec<Vec<usize>>,
}

impl CallGraph {
    /// Builds the call graph of all defined functions.
    pub fn build(program: &Program) -> CallGraph {
        let names: Vec<String> = program.functions.iter().map(|f| f.name.to_string()).collect();
        let index: BTreeMap<String, usize> =
            names.iter().enumerate().map(|(i, n)| (n.clone(), i)).collect();
        let mut callees: Vec<Vec<usize>> = vec![Vec::new(); names.len()];
        let mut callers: Vec<Vec<usize>> = vec![Vec::new(); names.len()];
        for (i, f) in program.functions.iter().enumerate() {
            let mut seen = BTreeSet::new();
            for callee in f.callees() {
                if let Some(&j) = index.get(callee.as_str()) {
                    if seen.insert(j) {
                        callees[i].push(j);
                        callers[j].push(i);
                    }
                }
            }
        }
        CallGraph { names, index, callees, callers }
    }

    /// Number of defined functions.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the graph has no functions.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Defined callees of `name`, in first-call order.
    pub fn callees_of(&self, name: &str) -> Vec<&str> {
        match self.index.get(name) {
            Some(&i) => self.callees[i].iter().map(|&j| self.names[j].as_str()).collect(),
            None => Vec::new(),
        }
    }

    /// Defined callers of `name`.
    pub fn callers_of(&self, name: &str) -> Vec<&str> {
        match self.index.get(name) {
            Some(&i) => self.callers[i].iter().map(|&j| self.names[j].as_str()).collect(),
            None => Vec::new(),
        }
    }

    /// Function names in bottom-up order: every callee appears before each
    /// of its callers wherever the graph is acyclic; cycles are broken at
    /// the deterministic DFS back-edge (members keep their post-order).
    pub fn bottom_up(&self) -> Vec<&str> {
        let mut state = vec![0u8; self.names.len()]; // 0 new, 1 visiting, 2 done
        let mut order = Vec::with_capacity(self.names.len());
        for start in 0..self.names.len() {
            self.post_order(start, &mut state, &mut order);
        }
        order.iter().map(|&i| self.names[i].as_str()).collect()
    }

    fn post_order(&self, node: usize, state: &mut [u8], order: &mut Vec<usize>) {
        if state[node] != 0 {
            return;
        }
        state[node] = 1;
        for &c in &self.callees[node] {
            if state[c] == 0 {
                self.post_order(c, state, order);
            }
        }
        state[node] = 2;
        order.push(node);
    }

    /// Strongly connected components of the call graph; see
    /// [`strongly_connected`].
    pub fn sccs(&self) -> Vec<Vec<usize>> {
        strongly_connected(&self.callees)
    }

    /// Whether `name` participates in a call cycle (including self-recursion).
    pub fn in_cycle(&self, name: &str) -> bool {
        let Some(&start) = self.index.get(name) else {
            return false;
        };
        // DFS from the node's callees back to itself.
        let mut stack: Vec<usize> = self.callees[start].clone();
        let mut seen = BTreeSet::new();
        while let Some(n) = stack.pop() {
            if n == start {
                return true;
            }
            if seen.insert(n) {
                stack.extend(self.callees[n].iter().copied());
            }
        }
        false
    }
}

/// Strongly connected components of the graph with adjacency lists
/// `callees`, in bottom-up topological order of the condensation: every
/// callee of a component's members lies in the same or an earlier
/// component. Members within a component are listed in ascending index
/// order. Iterative Tarjan, so deeply nested call chains cannot blow the
/// stack, and the output is a pure function of the graph. The corpus graph
/// (`vulnman-analysis`) runs it over unit-qualified function nodes that no
/// single [`Program`] contains.
///
/// # Panics
///
/// Panics if an adjacency entry is not below `callees.len()`.
pub fn strongly_connected(callees: &[Vec<usize>]) -> Vec<Vec<usize>> {
    const UNVISITED: usize = usize::MAX;
    let n = callees.len();
    let mut index = vec![UNVISITED; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut out: Vec<Vec<usize>> = Vec::new();
    // Explicit DFS frames: (node, next-callee position).
    let mut frames: Vec<(usize, usize)> = Vec::new();
    for root in 0..n {
        if index[root] != UNVISITED {
            continue;
        }
        frames.push((root, 0));
        index[root] = next_index;
        low[root] = next_index;
        next_index += 1;
        stack.push(root);
        on_stack[root] = true;
        while let Some(&mut (v, ref mut ci)) = frames.last_mut() {
            if let Some(&w) = callees[v].get(*ci) {
                *ci += 1;
                if index[w] == UNVISITED {
                    index[w] = next_index;
                    low[w] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    frames.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                frames.pop();
                if let Some(&(parent, _)) = frames.last() {
                    low[parent] = low[parent].min(low[v]);
                }
                if low[v] == index[v] {
                    let mut comp = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w] = false;
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    comp.sort_unstable();
                    out.push(comp);
                }
            }
        }
    }
    out
}

/// The result of an interprocedural analysis pass: one solved function at a
/// time, in bottom-up call-graph order.
#[derive(Debug)]
pub struct ProgramAnalysis<V> {
    /// Abstract return value per defined function.
    pub summaries: BTreeMap<String, V>,
    /// Aggregated solver statistics across all functions.
    pub stats: SolverStats,
}

/// Analyses every function of `program` bottom-up, building interprocedural
/// summaries as it goes. `make_domain` constructs the domain for a function
/// from the summaries of everything analysed so far; `visit` is invoked per
/// function with its CFG, the domain it was solved under, and the solution —
/// this is where checkers inspect per-instruction states via
/// [`DomainAnalysis::replay`].
pub fn analyze_program<D, M, F>(
    program: &Program,
    config: SolverConfig,
    mut make_domain: M,
    mut visit: F,
) -> ProgramAnalysis<D::Value>
where
    D: Domain,
    M: FnMut(&BTreeMap<String, D::Value>) -> D,
    F: FnMut(&Function, &Cfg, &D, &DomainAnalysis<D::Value>),
{
    let cg = CallGraph::build(program);
    let solver = Solver::new(config);
    let mut summaries: BTreeMap<String, D::Value> = BTreeMap::new();
    let mut stats = SolverStats { converged: true, ..SolverStats::default() };
    for name in cg.bottom_up() {
        let func = program.function(name).expect("call graph node is a defined function");
        let cfg = Cfg::build(func);
        let domain = make_domain(&summaries);
        let analysis = solver.run(&domain, &cfg, func);
        stats.absorb(&analysis.stats);
        let ret = return_summary(&domain, &cfg, &analysis);
        visit(func, &cfg, &domain, &analysis);
        summaries.insert(name.to_string(), ret);
    }
    ProgramAnalysis { summaries, stats }
}

/// [`analyze_program`] with the per-function fixpoints solved on up to
/// `jobs` scoped worker threads, byte-identical to the sequential driver.
///
/// The call graph is condensed into strongly connected components and the
/// condensation is level-scheduled: a component's level is one past the
/// deepest level among its callee components, so when a level runs, every
/// summary its functions can look up is final. Components on the same
/// level solve concurrently (members of one component stay sequential, in
/// the sequential driver's relative order, so cycle members see exactly
/// the same partial summary tables). Solved functions are buffered and
/// `visit` runs on the caller's thread in the exact bottom-up order of
/// [`analyze_program`], which is what makes the two drivers
/// indistinguishable to checkers.
///
/// `make_domain` must derive the domain only from the summaries of the
/// function's (transitive) callees — true of every domain in this
/// workspace, where summaries are consulted exclusively at call sites.
/// Small programs and `jobs <= 1` fall back to the sequential driver:
/// thread setup costs more than solving a handful of CFGs.
pub fn analyze_program_parallel<D, M, F>(
    program: &Program,
    config: SolverConfig,
    jobs: usize,
    make_domain: M,
    mut visit: F,
) -> ProgramAnalysis<D::Value>
where
    D: Domain + Send,
    D::Value: Send + Sync + Clone,
    M: Fn(&BTreeMap<String, D::Value>) -> D + Sync,
    F: FnMut(&Function, &Cfg, &D, &DomainAnalysis<D::Value>),
{
    let cg = CallGraph::build(program);
    if jobs <= 1 || cg.len() < 4 {
        return analyze_program(program, config, |s| make_domain(s), visit);
    }

    // Relative sequential position of every function: components are
    // processed (and results delivered) in this order so recursion cliques
    // accumulate summaries exactly like the sequential driver.
    let order: Vec<usize> = {
        let mut state = vec![0u8; cg.len()];
        let mut order = Vec::with_capacity(cg.len());
        for start in 0..cg.len() {
            cg.post_order(start, &mut state, &mut order);
        }
        order
    };
    let mut pos = vec![0usize; cg.len()];
    for (i, &f) in order.iter().enumerate() {
        pos[f] = i;
    }

    let mut sccs = cg.sccs();
    for comp in &mut sccs {
        comp.sort_unstable_by_key(|&m| pos[m]);
    }
    let mut comp_of = vec![0usize; cg.len()];
    for (ci, comp) in sccs.iter().enumerate() {
        for &m in comp {
            comp_of[m] = ci;
        }
    }
    // Level scheduling over the condensation (callee levels are final
    // because `sccs` is already bottom-up-topological).
    let mut level = vec![0usize; sccs.len()];
    let mut depth = 0usize;
    for (ci, comp) in sccs.iter().enumerate() {
        let mut lv = 0usize;
        for &m in comp {
            for &c in &cg.callees[m] {
                if comp_of[c] != ci {
                    lv = lv.max(level[comp_of[c]] + 1);
                }
            }
        }
        level[ci] = lv;
        depth = depth.max(lv);
    }
    let mut by_level: Vec<Vec<usize>> = vec![Vec::new(); depth + 1];
    for (ci, &lv) in level.iter().enumerate() {
        by_level[lv].push(ci);
    }

    let solver = Solver::new(config);
    type Solved<D> = (Cfg, D, DomainAnalysis<<D as Domain>::Value>, <D as Domain>::Value);
    let mut slots: Vec<Option<Solved<D>>> = (0..cg.len()).map(|_| None).collect();
    let mut completed: BTreeMap<String, D::Value> = BTreeMap::new();

    for comps in &by_level {
        let chunk = comps.len().div_ceil(jobs).max(1);
        let outputs: Vec<Vec<(usize, Solved<D>)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = comps
                .chunks(chunk)
                .map(|group| {
                    let completed = &completed;
                    let solver = &solver;
                    let make_domain = &make_domain;
                    let cg = &cg;
                    let sccs = &sccs;
                    scope.spawn(move || {
                        let mut out = Vec::new();
                        for &ci in group {
                            // Cycle members feed each other through a local
                            // overlay, exactly like the sequential table.
                            let mut local: Option<BTreeMap<String, D::Value>> = None;
                            for &m in &sccs[ci] {
                                let name = cg.names[m].as_str();
                                let func = program
                                    .function(name)
                                    .expect("call graph node is a defined function");
                                let cfg = Cfg::build(func);
                                let table = local.as_ref().unwrap_or(completed);
                                let domain = make_domain(table);
                                let analysis = solver.run(&domain, &cfg, func);
                                let ret = return_summary(&domain, &cfg, &analysis);
                                if sccs[ci].len() > 1 {
                                    local
                                        .get_or_insert_with(|| completed.clone())
                                        .insert(name.to_string(), ret.clone());
                                }
                                out.push((m, (cfg, domain, analysis, ret)));
                            }
                        }
                        out
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("absint worker thread panicked")).collect()
        });
        for (m, solved) in outputs.into_iter().flatten() {
            completed.insert(cg.names[m].clone(), solved.3.clone());
            slots[m] = Some(solved);
        }
    }

    // Deliver buffered results in the sequential driver's exact order.
    let mut summaries: BTreeMap<String, D::Value> = BTreeMap::new();
    let mut stats = SolverStats { converged: true, ..SolverStats::default() };
    for &f in &order {
        let (cfg, domain, analysis, ret) =
            slots[f].take().expect("every function is solved exactly once");
        let func =
            program.function(cg.names[f].as_str()).expect("call graph node is a defined function");
        stats.absorb(&analysis.stats);
        visit(func, &cfg, &domain, &analysis);
        summaries.insert(cg.names[f].clone(), ret);
    }
    ProgramAnalysis { summaries, stats }
}

/// Joins the abstract value of every reachable `return e;` in the function.
/// Functions that never return a value (or only fall off the end) summarise
/// to top. Shared with the incremental driver (`crate::incremental`), which
/// must compute summaries exactly like the batch drivers.
pub(crate) fn return_summary<D: Domain>(
    domain: &D,
    cfg: &Cfg,
    analysis: &DomainAnalysis<D::Value>,
) -> D::Value {
    let mut acc: Option<D::Value> = None;
    let reachable = cfg.reachable();
    for (b, block) in cfg.blocks.iter().enumerate() {
        if !reachable[b] || block.insts.is_empty() {
            continue;
        }
        let mut env: Env<D::Value> = analysis.block_entry[b].clone();
        for inst in &block.insts {
            if let CfgInst::Return(Some(e)) = &inst.inst {
                let v = domain.eval(&env, e);
                acc = Some(match acc {
                    None => v,
                    Some(a) => a.join(&v),
                });
            }
            domain.transfer(&mut env, &inst.inst);
        }
    }
    acc.unwrap_or_else(D::Value::top)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::absint::interval::IntervalDomain;
    use crate::parse;

    #[test]
    fn bottom_up_orders_callees_first() {
        let p = parse(
            "int leaf() { return 1; }\n\
             int mid() { return leaf() + 1; }\n\
             int top_fn() { return mid() + leaf(); }",
        )
        .unwrap();
        let cg = CallGraph::build(&p);
        let order = cg.bottom_up();
        let pos = |n: &str| order.iter().position(|&x| x == n).unwrap();
        assert!(pos("leaf") < pos("mid"));
        assert!(pos("mid") < pos("top_fn"));
        assert_eq!(cg.callees_of("top_fn"), vec!["mid", "leaf"]);
        assert_eq!(cg.callers_of("leaf"), vec!["mid", "top_fn"]);
        assert!(!cg.in_cycle("leaf"));
    }

    #[test]
    fn recursion_is_detected_and_summaries_stay_sound() {
        let p = parse("int r(int n) { if (n) { return r(n - 1); } return 0; }").unwrap();
        let cg = CallGraph::build(&p);
        assert!(cg.in_cycle("r"));
        let pa = analyze_program(
            &p,
            SolverConfig::default(),
            |s| IntervalDomain::with_summaries(s.clone()),
            |_, _, _, _| {},
        );
        assert!(pa.stats.converged);
        // The self-call evaluated to top mid-analysis, so the summary joins
        // top with the constant 0 — i.e. top. Sound, not precise.
        assert!(pa.summaries.contains_key("r"));
    }

    #[test]
    fn parallel_driver_is_byte_identical_to_sequential() {
        // Diamond call structure plus a two-function recursion clique, so
        // the parallel driver exercises both concurrent independent
        // components and the sequential-within-SCC overlay path.
        let p = parse(
            "int leaf() { return 2; }\n\
             int even(int n) { if (n) { return odd(n - 1); } return 1; }\n\
             int odd(int n) { if (n) { return even(n - 1); } return 0; }\n\
             int mid(int x) { return leaf() + even(x); }\n\
             int top_fn(int x) { int d = mid(x); return d / leaf(); }",
        )
        .unwrap();
        let trace = |jobs: usize| {
            let mut visits: Vec<String> = Vec::new();
            let pa = analyze_program_parallel::<IntervalDomain, _, _>(
                &p,
                SolverConfig::default(),
                jobs,
                |s| IntervalDomain::with_summaries(s.clone()),
                |f, _, _, a| visits.push(format!("{} {:?}", f.name, a.block_entry)),
            );
            (visits, format!("{:?}", pa.summaries), pa.stats)
        };
        let (seq_visits, seq_summaries, seq_stats) = trace(1);
        assert_eq!(seq_visits.len(), 5);
        for jobs in [2, 4, 8] {
            let (visits, summaries, stats) = trace(jobs);
            assert_eq!(visits, seq_visits, "visit trace diverged at jobs={jobs}");
            assert_eq!(summaries, seq_summaries, "summaries diverged at jobs={jobs}");
            assert_eq!(stats, seq_stats, "solver stats diverged at jobs={jobs}");
        }
    }

    #[test]
    fn sccs_condense_cycles_bottom_up() {
        let p = parse(
            "int leaf() { return 1; }\n\
             int even(int n) { if (n) { return odd(n - 1); } return leaf(); }\n\
             int odd(int n) { if (n) { return even(n - 1); } return 0; }\n\
             int top_fn(int x) { return even(x); }",
        )
        .unwrap();
        let cg = CallGraph::build(&p);
        let sccs = cg.sccs();
        // Every function appears exactly once.
        let mut all: Vec<usize> = sccs.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..cg.len()).collect::<Vec<_>>());
        // even/odd share a component; the order is bottom-up: every callee
        // component precedes its callers.
        let comp_idx = |name: &str| sccs.iter().position(|c| c.contains(&cg.index[name])).unwrap();
        assert_eq!(comp_idx("even"), comp_idx("odd"));
        assert!(comp_idx("leaf") < comp_idx("even"));
        assert!(comp_idx("even") < comp_idx("top_fn"));
    }

    #[test]
    fn interprocedural_constant_flows_to_caller() {
        let p = parse(
            "int denom() { return 8 - 8; }\n\
             int f(int x) { int d = denom(); return x / d; }",
        )
        .unwrap();
        let pa = analyze_program(
            &p,
            SolverConfig::default(),
            |s| IntervalDomain::with_summaries(s.clone()),
            |_, _, _, _| {},
        );
        assert!(pa.summaries["denom"].is_point(0), "summary = {}", pa.summaries["denom"]);
    }
}
