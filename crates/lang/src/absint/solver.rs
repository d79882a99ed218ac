//! Reverse-post-order worklist fixpoint solver for the monotone framework.

use super::domain::{AbstractValue, Domain, Env};
use super::substrate::FnShape;
use crate::ast::Function;
use crate::cfg::{BlockId, Cfg, CfgInst, SpannedInst};

/// Solver knobs. Defaults are tuned so every program the corpus generator
/// can emit converges without hitting the iteration backstop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolverConfig {
    /// Number of times a block's entry state may change under plain joins
    /// before the solver switches to widening for that block. Higher values
    /// trade iterations for precision inside loops.
    pub widening_threshold: usize,
    /// Hard backstop on block visits; exceeding it flips
    /// [`SolverStats::converged`] to `false` instead of hanging.
    pub max_iterations: u64,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig { widening_threshold: 4, max_iterations: 10_000 }
    }
}

/// What the fixpoint iteration did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Total block visits (transfer applications over whole blocks).
    pub iterations: u64,
    /// Number of widening applications that changed a state.
    pub widenings: u64,
    /// `false` only if the `max_iterations` backstop fired.
    pub converged: bool,
}

impl SolverStats {
    /// Merges another run's stats into this one (conjunction of
    /// convergence, sums elsewhere).
    pub fn absorb(&mut self, other: &SolverStats) {
        self.iterations += other.iterations;
        self.widenings += other.widenings;
        self.converged &= other.converged;
    }
}

/// Result of analysing one function: the abstract state at the entry of
/// every basic block, plus iteration statistics.
#[derive(Debug, Clone)]
pub struct DomainAnalysis<V> {
    /// Per-block entry state (bottom for unreachable blocks).
    pub block_entry: Vec<Env<V>>,
    /// Iteration statistics.
    pub stats: SolverStats,
}

impl<V: AbstractValue> DomainAnalysis<V> {
    /// Replays the transfer function through `block`, calling `visit` with
    /// the state *before* each instruction together with the instruction
    /// itself. This is how checkers obtain the evidence state at a report
    /// point without the solver storing per-instruction environments; the
    /// state is borrowed, so a block costs one environment copy.
    pub fn walk_block<D: Domain<Value = V>>(
        &self,
        domain: &D,
        cfg: &Cfg,
        block: BlockId,
        mut visit: impl FnMut(&Env<V>, &SpannedInst),
    ) {
        let mut env = self.block_entry[block].clone();
        for inst in &cfg.blocks[block].insts {
            visit(&env, inst);
            domain.transfer(&mut env, &inst.inst);
        }
    }
}

/// The worklist fixpoint engine. Blocks are prioritised by reverse
/// post-order rank so forward information flows in as few sweeps as
/// possible; re-enqueueing uses the same rank, keeping iteration order — and
/// therefore results and statistics — fully deterministic.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Solver {
    config: SolverConfig,
}

impl Solver {
    /// A solver with the given configuration.
    pub(crate) fn new(config: SolverConfig) -> Self {
        Solver { config }
    }

    /// Runs `domain` over the function's CFG to a fixpoint and returns
    /// per-block entry states. `func` seeds the entry environment
    /// (parameters etc.).
    pub(crate) fn solve<D: Domain>(
        &self,
        domain: &D,
        shape: &FnShape,
        func: &Function,
    ) -> DomainAnalysis<D::Value> {
        let FnShape { cfg, rpo, rank, slots, .. } = shape;
        let n = cfg.blocks.len();
        let mut entry: Vec<Env<D::Value>> = vec![Env::bottom_in(slots); n];
        let mut seed = Env::reachable_top_in(slots);
        domain.seed_entry(func, &mut seed);
        entry[cfg.entry] = seed;
        let mut changes = vec![0usize; n];
        let mut stats = SolverStats { converged: true, ..SolverStats::default() };

        // pending[r]: the block of RPO rank r is queued. Popping the lowest
        // queued rank gives the earliest block in RPO among all pending
        // ones; `first` is a lower bound on that rank.
        let mut pending = vec![false; rpo.len()];
        pending[rank[cfg.entry]] = true;
        let mut first = rank[cfg.entry];
        let mut out = Env::bottom_in(slots);
        let mut edge = Env::bottom_in(slots);

        while let Some(r) = pending[first..].iter().position(|&p| p).map(|i| first + i) {
            pending[r] = false;
            first = r;
            let b = rpo[r];
            if stats.iterations >= self.config.max_iterations {
                stats.converged = false;
                break;
            }
            stats.iterations += 1;

            // Propagate this block's exit state into each successor,
            // refining along branch outcomes.
            out.clone_from(&entry[b]);
            let mut branch_cond: Option<&crate::ast::Expr> = None;
            for inst in &cfg.blocks[b].insts {
                domain.transfer(&mut out, &inst.inst);
                if let CfgInst::Branch(c) = &inst.inst {
                    branch_cond = Some(c);
                }
            }
            let succs = &cfg.blocks[b].succs;
            for (i, &s) in succs.iter().enumerate() {
                if rank[s] == usize::MAX {
                    continue; // successor unreachable in RPO (defensive)
                }
                let edge_env = match branch_cond {
                    Some(cond) if succs.len() == 2 => {
                        edge.clone_from(&out);
                        domain.refine(&mut edge, cond, i == 0);
                        &edge
                    }
                    _ => &out,
                };
                let joined = entry[s].join(edge_env);
                let next = if changes[s] >= self.config.widening_threshold {
                    let widened = entry[s].widen(&joined);
                    if widened != entry[s] {
                        stats.widenings += 1;
                    }
                    widened
                } else {
                    joined
                };
                if next != entry[s] {
                    entry[s] = next;
                    changes[s] += 1;
                    pending[rank[s]] = true;
                    first = first.min(rank[s]);
                }
            }
        }

        DomainAnalysis { block_entry: entry, stats }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::absint::interval::{Interval, IntervalDomain};
    use crate::absint::AbstractValue;
    use crate::parse;

    fn solve_with(src: &str, config: SolverConfig) -> (Cfg, DomainAnalysis<Interval>) {
        let p = parse(src).unwrap();
        let shape = FnShape::build(&p.functions[0]);
        let analysis =
            Solver::new(config).solve(&IntervalDomain::default(), &shape, &p.functions[0]);
        (shape.cfg, analysis)
    }

    fn solve(src: &str) -> (Cfg, DomainAnalysis<Interval>, IntervalDomain) {
        let (cfg, analysis) = solve_with(src, SolverConfig::default());
        (cfg, analysis, IntervalDomain::default())
    }

    #[test]
    fn constant_propagation_through_straight_line() {
        let (cfg, analysis, domain) =
            solve("int f() { int i = 3; i = i * 4; int t = i + 1; return t; }");
        assert!(analysis.stats.converged);
        let mut last = None;
        analysis.walk_block(&domain, &cfg, cfg.entry, |pre, _| last = Some(pre.clone()));
        // Before `return t`, t must be exactly 13.
        let pre = last.unwrap();
        assert!(pre.get("t").is_point(13), "t = {}", pre.get("t"));
        assert!(pre.get("i").is_point(12));
    }

    #[test]
    fn loop_counter_widens_and_converges() {
        let (_, analysis, _) =
            solve("int f(int n) { int i = 0; while (i < n) { i = i + 1; } return i; }");
        assert!(analysis.stats.converged);
        assert!(analysis.stats.iterations < 100, "{:?}", analysis.stats);
    }

    #[test]
    fn branch_refinement_narrows_the_guarded_range() {
        let (cfg, analysis, domain) =
            solve("int f(int x) { int r = 0; if (x < 10) { r = x; } return r; }");
        // Find the block that assigns r = x inside the guard.
        let mut saw = false;
        for b in 0..cfg.blocks.len() {
            analysis.walk_block(&domain, &cfg, b, |pre, inst| {
                if let crate::cfg::CfgInst::Assign { target, .. } = &inst.inst {
                    if target.base_var() == Some("r")
                        && pre.is_reachable()
                        && pre.get("x").hi() < 10
                    {
                        saw = true;
                    }
                }
            });
        }
        assert!(saw, "taken edge of x < 10 must bound x above by 9");
    }

    #[test]
    fn join_at_diamond_merges_both_arms() {
        let (cfg, analysis, domain) =
            solve("int f(int c) { int r = 0; if (c) { r = 1; } else { r = 5; } return r; }");
        let mut seen = None;
        for b in 0..cfg.blocks.len() {
            analysis.walk_block(&domain, &cfg, b, |pre, inst| {
                if matches!(inst.inst, crate::cfg::CfgInst::Return(_)) {
                    seen = Some(pre.get("r"));
                }
            });
        }
        let r = seen.expect("return reached");
        assert_eq!(r, Interval::point(1).join(&Interval::point(5)));
    }

    #[test]
    fn unreachable_blocks_stay_bottom() {
        let (cfg, analysis, _) = solve("int f(int x) { if (x) { return 1; x = 2; } return x; }");
        let reachable = cfg.reachable();
        for (b, env) in analysis.block_entry.iter().enumerate() {
            if !reachable[b] {
                assert!(!env.is_reachable(), "dead block {b} got a state: {env}");
            }
        }
    }

    #[test]
    fn iteration_backstop_reports_non_convergence() {
        let tight = SolverConfig { widening_threshold: 4, max_iterations: 2 };
        let (_, analysis) =
            solve_with("int f(int n) { int i = 0; while (i < n) { i = i + 1; } return i; }", tight);
        assert!(!analysis.stats.converged);
    }
}
