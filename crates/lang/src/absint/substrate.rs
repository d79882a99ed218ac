//! The per-program absint substrate and the one driver that runs domain
//! passes over it.
//!
//! A [`Substrate`] is built once per program and holds everything the
//! domain passes share: the call graph, its strongly connected components
//! in bottom-up topological order, the post-order checker payloads are
//! delivered in, and per function a [`FnShape`] — the CFG, its reverse
//! post-order ranks, the reachable mask, and the dense variable-slot table
//! every [`Env`] of the function is indexed by. Shapes are built on first
//! use, so a pass that solves nothing builds nothing.
//!
//! [`Substrate::run`] solves one domain pass bottom-up over the components
//! and runs the pass's checker on each solved function. Summaries are
//! context-insensitive: one abstract return value per function, computed
//! with callees analysed first. Calls into functions not yet summarised —
//! externals, or members of a recursive cycle — evaluate to the domain's
//! top, which keeps the single bottom-up pass sound without an
//! inter-function fixpoint. The summary table is shared with every domain
//! behind an [`Arc`] and extended in place once a function's domain is
//! dropped.
//!
//! The driver has two optional modes, both byte-identical to the plain
//! walk:
//!
//! * **SCC-parallel** (`jobs > 1`): the condensation is level-scheduled —
//!   a component's level is one past the deepest level among its callee
//!   components — so when a level runs, every summary its functions can
//!   look up is final. Components on one level solve on the
//!   [`par`](crate::par) work queue; members of one component stay
//!   sequential in post-order, so cycle members see exactly the partial
//!   summary tables of the plain walk.
//! * **Incremental** ([`Substrate::incremental_from_source`]): each
//!   component is first looked up in the [`AnalysisCache`] summary and
//!   findings stages and solved only on a miss (see [`crate::incremental`]
//!   for the keys).
//!
//! Either way the payloads come back in the exact post-order of
//! [`CallGraph::post_order`], which is what keeps the concatenated findings
//! (and the stable sort on top of them) identical across modes.

use super::callgraph::CallGraph;
use super::domain::{Domain, Env, Slots, Summaries};
use super::lower::{Inst, Lowered, LoweredCfg, NodeId, Op, Slot};
use super::solver::{DomainAnalysis, Solver, SolverConfig, SolverStats};
use crate::ast::{Function, Program};
use crate::cache::{AnalysisCache, Stage};
use crate::cfg::{BlockId, SpannedInst};
use crate::incremental::{component_keys, fingerprint_function_source, IncrementalTrace};
use std::collections::BTreeSet;
use std::sync::{Arc, OnceLock};

/// Everything the domain passes need about one function besides its AST:
/// its CFG and that CFG's lowered form, built once. Nothing in a shape
/// depends on the rest of the program (see [`super::lower`]), which is what
/// lets the incremental substrate share shapes across programs by function
/// fingerprint.
#[derive(Debug)]
pub struct FnShape {
    /// The control-flow graph, its instructions lowered.
    pub cfg: LoweredCfg,
    /// Reverse post-order of the CFG's blocks.
    pub(crate) rpo: Vec<BlockId>,
    /// Each block's rank in `rpo` (`usize::MAX` if the entry cannot reach
    /// it).
    pub(crate) rank: Vec<usize>,
    /// [`Cfg::reachable`](crate::cfg::Cfg::reachable).
    pub reachable: Vec<bool>,
    /// The function's variable-slot table.
    pub(crate) slots: Arc<Slots>,
    /// The expression arena, pools and callee table the lowered
    /// instructions index.
    pub lowered: Lowered,
}

impl FnShape {
    /// Builds the shape of `func`.
    pub(crate) fn build(func: &Function) -> FnShape {
        let (cfg, lowered, slots) = Lowered::build(func);
        let rpo = cfg.reverse_post_order();
        let mut rank = vec![usize::MAX; cfg.blocks.len()];
        for (i, &b) in rpo.iter().enumerate() {
            rank[b] = i;
        }
        // The builder prunes every edge out of an unreachable block, so the
        // blocks the entry reaches are exactly the ranked ones.
        let reachable = rank.iter().map(|&r| r != usize::MAX).collect();
        FnShape { cfg, rpo, rank, reachable, slots: Arc::new(slots), lowered }
    }

    /// Number of variable slots.
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// The variable in `slot`.
    pub fn slot_name(&self, slot: Slot) -> &str {
        self.slots.name(slot)
    }
}

/// One solved function, as a pass's checker sees it.
pub struct Solved<'a, D: Domain> {
    /// The function.
    pub func: &'a Function,
    /// Its shape (CFG, lowered form and reachable mask).
    pub shape: &'a FnShape,
    /// The domain it was solved under (summaries included).
    pub domain: &'a D,
    /// The fixpoint.
    pub analysis: &'a DomainAnalysis<D::Value>,
}

impl<D: Domain> Solved<'_, D> {
    /// The function's CFG.
    pub fn cfg(&self) -> &LoweredCfg {
        &self.shape.cfg
    }

    /// The function's lowered form.
    pub fn body(&self) -> &Lowered {
        &self.shape.lowered
    }

    /// Evaluates node `n` of the lowered form in `env`.
    pub fn eval(&self, env: &Env<D::Value>, n: NodeId) -> D::Value {
        self.domain.eval_node(&self.analysis.frame(self.shape), env, n)
    }

    /// Walks every reachable block in block order and calls `visit` with
    /// each instruction whose pre-state is reachable, borrowing that state.
    pub fn for_each_reachable(&self, visit: impl FnMut(&Env<D::Value>, &SpannedInst<Inst>)) {
        self.for_each_reachable_where(|_| true, visit);
    }

    /// [`Solved::for_each_reachable`] over the blocks holding at least one
    /// instruction `wanted` accepts; the blocks without one are not
    /// replayed.
    pub fn for_each_reachable_where(
        &self,
        wanted: impl Fn(&Inst) -> bool,
        mut visit: impl FnMut(&Env<D::Value>, &SpannedInst<Inst>),
    ) {
        let mut env = Env::bottom();
        for (b, &live) in self.shape.reachable.iter().enumerate() {
            if live && self.shape.cfg.blocks[b].insts.iter().any(|i| wanted(&i.inst)) {
                self.analysis.replay(self.domain, self.shape, b, &mut env, |pre, inst| {
                    if pre.is_reachable() {
                        visit(pre, inst);
                    }
                });
            }
        }
    }
}

/// The result of one domain pass over a substrate.
#[derive(Debug)]
pub struct PassRun<V, T> {
    /// Abstract return value per defined function.
    pub summaries: Summaries<V>,
    /// Aggregated solver statistics across all functions (cached
    /// components contribute their recorded statistics).
    pub stats: SolverStats,
    /// One checker payload per call-graph node, in
    /// [`CallGraph::post_order`] order.
    pub payloads: Vec<T>,
    /// Which functions were re-solved vs. served from the stage cache
    /// (empty for a substrate without a cache).
    pub trace: IncrementalTrace,
}

/// The stage cache of an incremental substrate.
struct StageCache<'p> {
    cache: &'p AnalysisCache,
    /// Fingerprint per function index.
    fps: Vec<u64>,
}

/// Per-component cached summary artifact: member summaries in solve order
/// plus the component's folded solver statistics.
struct SummaryArtifact<V> {
    members: Vec<V>,
    stats: SolverStats,
}

/// Per-component cached findings artifact: one checker payload per member,
/// in solve order.
struct FindingsArtifact<T>(Vec<T>);

/// A component that missed the stage cache: its keys, and which stages
/// store the artifacts of its solve.
struct StageMiss {
    summary_key: u64,
    findings_key: u64,
    put_summary: bool,
    put_findings: bool,
}

/// A component's solve: per member `(node, summary, payload)` in solve
/// order, plus the folded statistics.
struct Component<V, T> {
    members: Vec<(usize, V, T)>,
    stats: SolverStats,
}

/// The per-program substrate; see the [module docs](self).
pub struct Substrate<'p> {
    program: &'p Program,
    graph: CallGraph,
    /// The function analysed for each call-graph node: the first definition
    /// of the node's name, which is where [`CallGraph::resolve`] sends calls.
    body: Vec<usize>,
    /// Bottom-up post-order of the nodes.
    order: Vec<usize>,
    /// Components in bottom-up topological order, members in `order`.
    sccs: Vec<Vec<usize>>,
    /// Lazily built shape per function index.
    shapes: Vec<OnceLock<Arc<FnShape>>>,
    cache: Option<StageCache<'p>>,
}

impl<'p> Substrate<'p> {
    /// The substrate of `program`, for batch runs.
    pub fn new(program: &'p Program) -> Substrate<'p> {
        let graph = CallGraph::build(program);
        let (order, _) = graph.post_order();
        let mut pos = vec![0usize; order.len()];
        for (i, &m) in order.iter().enumerate() {
            pos[m] = i;
        }
        let mut sccs = graph.sccs();
        for comp in &mut sccs {
            comp.sort_unstable_by_key(|&m| pos[m]);
        }
        let body = (0..graph.len())
            .map(|m| graph.resolve(graph.name(m)).expect("every node resolves"))
            .collect();
        let shapes = program.functions.iter().map(|_| OnceLock::new()).collect();
        Substrate { program, graph, body, order, sccs, shapes, cache: None }
    }

    /// The substrate of `program` for incremental runs through the stage
    /// tables of `cache`, with functions fingerprinted from their source
    /// slices ([`fingerprint_function_source`]). `program` must be the
    /// parse of exactly this `source`.
    pub fn incremental_from_source(
        program: &'p Program,
        source: &str,
        cache: &'p AnalysisCache,
    ) -> Substrate<'p> {
        let fps =
            program.functions.iter().map(|f| fingerprint_function_source(source, f)).collect();
        Substrate { cache: Some(StageCache { cache, fps }), ..Substrate::new(program) }
    }

    /// The shape of function `f`, built (or fetched from the CFG stage) on
    /// first use.
    fn shape(&self, f: usize) -> &FnShape {
        self.shapes[f].get_or_init(|| {
            let func = &self.program.functions[f];
            match &self.cache {
                Some(sc) => sc.cache.stage(Stage::Cfg, sc.fps[f], || FnShape::build(func)),
                None => Arc::new(FnShape::build(func)),
            }
        })
    }

    /// Runs one domain pass: solves every function bottom-up under the
    /// domain `make_domain` builds from the summaries so far, and runs
    /// `check` on each solved function. `jobs > 1` solves independent
    /// components on the [`par`](crate::par) work queue. On an incremental
    /// substrate, `pass_tag` must fingerprint everything else the outputs
    /// depend on — the domain's identity, the solver configuration, and
    /// the checker — so distinct passes never share cache entries.
    pub fn run<D, M, C, T>(
        &self,
        config: SolverConfig,
        jobs: usize,
        pass_tag: u64,
        make_domain: M,
        check: C,
    ) -> PassRun<D::Value, T>
    where
        D: Domain,
        D::Value: Send + Sync + 'static,
        M: Fn(Arc<Summaries<D::Value>>) -> D + Sync,
        C: Fn(&Solved<'_, D>) -> T + Sync,
        T: Clone + Send + Sync + 'static,
    {
        let solver = Solver::new(config);
        let mut completed: Arc<Summaries<D::Value>> = Arc::default();
        let mut payloads: Vec<Option<T>> = self.order.iter().map(|_| None).collect();
        let mut stats = SolverStats { converged: true, ..SolverStats::default() };
        let mut trace = IncrementalTrace::default();

        // Components solved together: one level of the condensation when
        // solving in parallel, otherwise each component on its own.
        let groups =
            if jobs > 1 { self.levels() } else { (0..self.sccs.len()).map(|c| vec![c]).collect() };
        for group in &groups {
            let mut todo: Vec<(usize, Option<StageMiss>)> = Vec::new();
            for &c in group {
                let Some(sc) = &self.cache else {
                    todo.push((c, None));
                    continue;
                };
                let members = &self.sccs[c];
                let (summary_key, findings_key) =
                    component_keys(pass_tag, members.iter().map(|&m| sc.fps[self.body[m]]), {
                        let externals: BTreeSet<&str> = members
                            .iter()
                            .flat_map(|&m| &self.graph.callees()[m])
                            .filter(|callee| !members.contains(callee))
                            .map(|&callee| self.graph.name(callee).as_str())
                            .collect();
                        externals.into_iter().map(|name| (name, &completed[name]))
                    });
                let summary =
                    sc.cache.stage_get::<SummaryArtifact<D::Value>>(Stage::Summary, summary_key);
                let findings =
                    sc.cache.stage_get::<FindingsArtifact<T>>(Stage::Findings, findings_key);
                if let (Some(s), Some(f)) = (&summary, &findings) {
                    let table = Arc::make_mut(&mut completed);
                    for ((&m, v), t) in members.iter().zip(&s.members).zip(&f.0) {
                        table.insert(self.graph.name(m).clone(), v.clone());
                        payloads[m] = Some(t.clone());
                        trace.reused.push(self.graph.name(m).to_string());
                    }
                    stats.absorb(&s.stats);
                    continue;
                }
                let miss = StageMiss {
                    summary_key,
                    findings_key,
                    put_summary: summary.is_none(),
                    put_findings: findings.is_none(),
                };
                todo.push((c, Some(miss)));
            }

            let solve =
                |c: usize| self.solve_component(c, &solver, &completed, &make_domain, &check);
            let solved = crate::par::map_ordered(&todo, jobs, |&(c, _)| solve(c));

            let table = Arc::make_mut(&mut completed);
            for ((_, miss), comp) in todo.iter().zip(solved) {
                for (m, v, _) in &comp.members {
                    table.insert(self.graph.name(*m).clone(), v.clone());
                }
                stats.absorb(&comp.stats);
                if let (Some(sc), Some(miss)) = (&self.cache, miss) {
                    trace
                        .solved
                        .extend(comp.members.iter().map(|(m, ..)| self.graph.name(*m).to_string()));
                    if miss.put_summary {
                        let members = comp.members.iter().map(|(_, v, _)| v.clone()).collect();
                        sc.cache.stage_put(
                            Stage::Summary,
                            miss.summary_key,
                            Arc::new(SummaryArtifact { members, stats: comp.stats }),
                        );
                    }
                    if miss.put_findings {
                        let members = comp.members.iter().map(|(_, _, t)| t.clone()).collect();
                        sc.cache.stage_put(
                            Stage::Findings,
                            miss.findings_key,
                            Arc::new(FindingsArtifact(members)),
                        );
                    }
                }
                for (m, _, t) in comp.members {
                    payloads[m] = Some(t);
                }
            }
        }

        let payloads = self
            .order
            .iter()
            .map(|&m| payloads[m].take().expect("every function is solved exactly once"))
            .collect();
        let summaries = Arc::try_unwrap(completed).unwrap_or_else(|shared| (*shared).clone());
        PassRun { summaries, stats, payloads, trace }
    }

    /// Solves the members of component `c` in post-order. Cycle members
    /// feed each other through a local overlay of `completed`.
    fn solve_component<D, M, C, T>(
        &self,
        c: usize,
        solver: &Solver,
        completed: &Arc<Summaries<D::Value>>,
        make_domain: &M,
        check: &C,
    ) -> Component<D::Value, T>
    where
        D: Domain,
        M: Fn(Arc<Summaries<D::Value>>) -> D,
        C: Fn(&Solved<'_, D>) -> T,
    {
        let members = &self.sccs[c];
        let mut local: Option<Arc<Summaries<D::Value>>> = None;
        let mut out = Vec::with_capacity(members.len());
        let mut stats = SolverStats { converged: true, ..SolverStats::default() };
        for &m in members {
            let f = self.body[m];
            let func = &self.program.functions[f];
            let shape = self.shape(f);
            let (ret, payload) = {
                let domain = make_domain(local.as_ref().unwrap_or(completed).clone());
                let analysis = solver.solve(&domain, shape);
                stats.absorb(&analysis.stats);
                let ret = return_summary(&domain, shape, &analysis);
                (ret, check(&Solved { func, shape, domain: &domain, analysis: &analysis }))
            };
            if members.len() > 1 {
                let table = local.get_or_insert_with(|| Arc::new((**completed).clone()));
                Arc::make_mut(table).insert(self.graph.name(m).clone(), ret.clone());
            }
            out.push((m, ret, payload));
        }
        Component { members: out, stats }
    }

    /// Components grouped by level of the condensation, each level in
    /// topological order (callee levels are final when a level is reached
    /// because `sccs` is bottom-up-topological).
    fn levels(&self) -> Vec<Vec<usize>> {
        let mut comp_of = vec![0usize; self.graph.len()];
        for (ci, comp) in self.sccs.iter().enumerate() {
            for &m in comp {
                comp_of[m] = ci;
            }
        }
        let mut level = vec![0usize; self.sccs.len()];
        let mut by_level: Vec<Vec<usize>> = Vec::new();
        for (ci, comp) in self.sccs.iter().enumerate() {
            let lv = comp
                .iter()
                .flat_map(|&m| &self.graph.callees()[m])
                .filter(|&&callee| comp_of[callee] != ci)
                .map(|&callee| level[comp_of[callee]] + 1)
                .max()
                .unwrap_or(0);
            level[ci] = lv;
            if by_level.len() <= lv {
                by_level.resize(lv + 1, Vec::new());
            }
            by_level[lv].push(ci);
        }
        by_level
    }
}

/// Joins the abstract value of every reachable `return e;` in the function.
/// Functions that never return a value (or only fall off the end) summarise
/// to top.
fn return_summary<D: Domain>(
    domain: &D,
    shape: &FnShape,
    analysis: &DomainAnalysis<D::Value>,
) -> D::Value {
    use super::domain::AbstractValue;
    let frame = analysis.frame(shape);
    let mut env = Env::bottom();
    let mut acc: Option<D::Value> = None;
    for (b, (block, &live)) in shape.cfg.blocks.iter().zip(&shape.reachable).enumerate() {
        if !live || !block.insts.iter().any(|i| matches!(i.inst.op, Op::Return(Some(_)))) {
            continue;
        }
        analysis.replay(domain, shape, b, &mut env, |env, inst| {
            if let Op::Return(Some(e)) = inst.inst.op {
                let v = domain.eval_node(&frame, env, e);
                acc = Some(match acc.take() {
                    None => v,
                    Some(a) => a.join(&v),
                });
            }
        });
    }
    acc.unwrap_or_else(D::Value::top)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::absint::interval::{Interval, IntervalDomain};
    use crate::parse;

    /// Diamond call structure plus a two-function recursion clique, so the
    /// parallel mode exercises both concurrent independent components and
    /// the sequential-within-SCC overlay path.
    const PROG: &str = "int leaf() { return 2; }\n\
                        int even(int n) { if (n) { return odd(n - 1); } return 1; }\n\
                        int odd(int n) { if (n) { return even(n - 1); } return 0; }\n\
                        int mid(int x) { return leaf() + even(x); }\n\
                        int top_fn(int x) { int d = mid(x); return d / leaf(); }";

    fn interval_pass(sub: &Substrate<'_>, jobs: usize) -> PassRun<Interval, String> {
        sub.run(SolverConfig::default(), jobs, 7, IntervalDomain::with_summaries, |s| {
            let entries: Vec<String> =
                (0..s.cfg().blocks.len()).map(|b| s.analysis.block_entry(b).to_string()).collect();
            format!("{} {entries:?}", s.func.name)
        })
    }

    #[test]
    fn recursive_summaries_stay_sound() {
        let p = parse("int r(int n) { if (n) { return r(n - 1); } return 0; }").unwrap();
        let run = interval_pass(&Substrate::new(&p), 1);
        assert!(run.stats.converged);
        // The self-call evaluated to top mid-analysis, so the summary joins
        // top with the constant 0 — i.e. top. Sound, not precise.
        assert!(run.summaries.contains_key("r"));
    }

    #[test]
    fn interprocedural_constant_flows_to_caller() {
        let p = parse(
            "int denom() { return 8 - 8; }\n\
             int f(int x) { int d = denom(); return x / d; }",
        )
        .unwrap();
        let run = interval_pass(&Substrate::new(&p), 1);
        assert!(run.summaries["denom"].is_point(0), "summary = {}", run.summaries["denom"]);
    }

    #[test]
    fn payloads_arrive_in_bottom_up_order() {
        let p = parse(PROG).unwrap();
        let sub = Substrate::new(&p);
        let run = interval_pass(&sub, 1);
        let names: Vec<&str> = run.payloads.iter().map(|t| t.split(' ').next().unwrap()).collect();
        let order: Vec<&str> = sub.order.iter().map(|&m| sub.graph.name(m).as_str()).collect();
        assert_eq!(names, order);
    }

    #[test]
    fn parallel_mode_is_byte_identical_to_sequential() {
        let p = parse(PROG).unwrap();
        let seq = interval_pass(&Substrate::new(&p), 1);
        assert_eq!(seq.payloads.len(), 5);
        for jobs in [2, 4, 8] {
            let par = interval_pass(&Substrate::new(&p), jobs);
            assert_eq!(par.payloads, seq.payloads, "payloads diverged at jobs={jobs}");
            assert_eq!(
                format!("{:?}", par.summaries),
                format!("{:?}", seq.summaries),
                "summaries diverged at jobs={jobs}"
            );
            assert_eq!(par.stats, seq.stats, "solver stats diverged at jobs={jobs}");
        }
    }

    #[test]
    fn incremental_mode_matches_batch_and_reuses_when_warm() {
        let p = parse(PROG).unwrap();
        let batch = interval_pass(&Substrate::new(&p), 1);
        let cache = AnalysisCache::new();
        for round in 0..3 {
            let inc = interval_pass(&Substrate::incremental_from_source(&p, PROG, &cache), 1);
            assert_eq!(inc.payloads, batch.payloads, "round {round}");
            assert_eq!(format!("{:?}", inc.summaries), format!("{:?}", batch.summaries));
            assert_eq!(inc.stats, batch.stats, "round {round}");
            if round == 0 {
                assert_eq!(inc.trace.solved.len(), 5, "cold run solves everything");
            } else {
                assert!(inc.trace.solved.is_empty(), "warm run solves nothing");
                assert_eq!(inc.trace.reused.len(), 5);
            }
        }
        // Incremental and parallel compose.
        let par =
            interval_pass(&Substrate::incremental_from_source(&p, PROG, &AnalysisCache::new()), 4);
        assert_eq!(par.payloads, batch.payloads);
    }

    #[test]
    fn shapes_are_looked_up_once_and_only_when_solving() {
        let p = parse(PROG).unwrap();
        let cache = AnalysisCache::new();
        let sub = Substrate::incremental_from_source(&p, PROG, &cache);
        for tag in [1, 2, 3] {
            sub.run(SolverConfig::default(), 1, tag, IntervalDomain::with_summaries, |_| ());
        }
        let cold = cache.stage_stats(Stage::Cfg);
        assert_eq!((cold.hits, cold.misses), (0, 5), "one lookup per function for three passes");
        // A fully cached request touches no shape at all.
        let sub = Substrate::incremental_from_source(&p, PROG, &cache);
        sub.run(SolverConfig::default(), 1, 1, IntervalDomain::with_summaries, |_| ());
        assert_eq!(cache.stage_stats(Stage::Cfg), cold);
    }

    #[test]
    fn duplicate_definitions_analyze_the_first_in_every_mode() {
        // `Program::function` resolves a name to its first definition; both
        // nodes of `f` solve that body, like every other lookup by name.
        let src = "int f() { return 1; }\n\
                   int g() { return f(); }\n\
                   int f() { return 2; }";
        let p = parse(src).unwrap();
        let batch = interval_pass(&Substrate::new(&p), 1);
        assert_eq!(batch.payloads.len(), 3);
        assert!(batch.summaries["f"].is_point(1));
        let inc = incremental(src, &AnalysisCache::new());
        assert_eq!(inc.payloads, batch.payloads);
    }

    #[test]
    fn a_cached_shape_carries_no_callee_resolution() {
        // `caller` is byte-identical and at the same offset in both
        // programs, so its CFG-stage fingerprint matches; the helper it
        // calls comes later and returns 0 in one program, 1 in the other.
        let head = "int caller() { int d = helper(); return d + 1; }\n";
        let a = format!("{head}int helper() {{ return 0; }}");
        let b = format!("{head}int helper() {{ return 1; }}");
        let cache = AnalysisCache::new();
        let on_a = incremental(&a, &cache);
        assert!(on_a.summaries["caller"].is_point(1));
        let hits = cache.stage_stats(Stage::Cfg).hits;
        let on_b = incremental(&b, &cache);
        assert_eq!(cache.stage_stats(Stage::Cfg).hits, hits + 1, "B reuses caller's shape");
        assert_eq!(on_b.trace.solved, ["helper", "caller"], "caller re-solves under B's helper");
        let batch = interval_pass(&Substrate::new(&parse(&b).unwrap()), 1);
        assert_eq!(on_b.payloads, batch.payloads);
        assert_eq!(format!("{:?}", on_b.summaries), format!("{:?}", batch.summaries));
        assert!(on_b.summaries["caller"].is_point(2), "{}", on_b.summaries["caller"]);
    }

    fn incremental(src: &str, cache: &AnalysisCache) -> PassRun<Interval, String> {
        interval_pass(&Substrate::incremental_from_source(&parse(src).unwrap(), src, cache), 1)
    }

    #[test]
    fn editing_one_root_function_reanalyzes_only_it() {
        let cache = AnalysisCache::new();
        incremental(PROG, &cache);
        // Change `top_fn` (a root: nothing calls it) — only it re-solves.
        let edited = PROG.replace("return d / leaf();", "return d + leaf();");
        let inc = incremental(&edited, &cache);
        assert_eq!(inc.trace.solved, vec!["top_fn".to_string()]);
        assert_eq!(inc.trace.reused.len(), 4);
        // And the result still matches a cold full analysis.
        let cold = incremental(&edited, &AnalysisCache::disabled());
        assert_eq!(format!("{:?}", inc.summaries), format!("{:?}", cold.summaries));
        assert_eq!(inc.payloads, cold.payloads);
    }

    // The edited function is *last*, so an edit of any length shifts no
    // other function's spans — untouched callers keep their fingerprints.
    const CUT: &str = "int mid() { return leaf() + 1; }\n\
                       int top_fn() { return mid() * 2; }\n\
                       int side(int x) { return x * 2; }\n\
                       int leaf() { return 2; }";

    #[test]
    fn early_cutoff_spares_callers_when_a_summary_is_unchanged() {
        // `leaf` changes body but keeps the same summary value [2, 2]; its
        // callers' component keys hash the summary, not the text, so only
        // `leaf` itself re-solves.
        let cache = AnalysisCache::new();
        incremental(CUT, &cache);
        let edited = CUT.replace("int leaf() { return 2; }", "int leaf() { int a = 2; return a; }");
        let inc = incremental(&edited, &cache);
        assert_eq!(inc.trace.solved, vec!["leaf".to_string()], "early cutoff failed");
        assert_eq!(inc.trace.reused.len(), 3);
    }

    #[test]
    fn changed_summary_invalidates_transitive_callers() {
        let cache = AnalysisCache::new();
        incremental(CUT, &cache);
        // `leaf` now summarises to [3, 3]: `mid`'s summary becomes [4, 4],
        // so `top_fn` re-solves too; `side` has no path to `leaf` and is
        // reused.
        let edited = CUT.replace("int leaf() { return 2; }", "int leaf() { return 3; }");
        let inc = incremental(&edited, &cache);
        let solved: BTreeSet<&str> = inc.trace.solved.iter().map(String::as_str).collect();
        assert_eq!(solved, BTreeSet::from(["leaf", "mid", "top_fn"]));
        assert_eq!(inc.trace.reused, vec!["side".to_string()]);
        let cold = incremental(&edited, &AnalysisCache::disabled());
        assert_eq!(inc.payloads, cold.payloads);
    }
}
