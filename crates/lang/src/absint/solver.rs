//! Reverse-post-order worklist fixpoint solver for the monotone framework.
//!
//! One solve resolves the function's callee table against the domain once
//! ([`Domain::resolve`]), then iterates over the lowered CFG. Block-entry
//! states live in one slot-value row per block; a visit loads its block's
//! row into a scratch exit state, interprets the block's instructions,
//! and joins (widens, past the threshold) the exit state into each
//! successor's row in place. The in-place operation's change flag decides
//! whether the successor is queued again, so there is no per-edge
//! environment and no separate equality scan.

use super::domain::{combine_parts, AbstractValue, Domain, Env, Frame, Slots};
use super::lower::{Inst, Op};
use super::substrate::FnShape;
use crate::cfg::{BlockId, SpannedInst};
use std::sync::Arc;

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
/// every basic block, plus iteration statistics. The states are stored as
/// one row of slot values per block over the function's slot table, so a
/// solve allocates them once rather than once per block.
#[derive(Debug, Clone)]
pub struct DomainAnalysis<V> {
    slots: Arc<Slots>,
    /// Block `b`'s entry state is `entry[b * width..(b + 1) * width]`.
    entry: Vec<V>,
    reachable: Vec<bool>,
    /// Iteration statistics.
    pub stats: SolverStats,
    /// The callee-table values the function was solved under.
    pub(crate) calls: Vec<V>,
}

impl<V: AbstractValue> DomainAnalysis<V> {
    /// The entry state of `block` (bottom for unreachable blocks).
    pub fn block_entry(&self, block: BlockId) -> Env<V> {
        let mut env = Env::bottom();
        self.load(block, &mut env);
        env
    }

    /// Overwrites `env` with the entry state of `block`.
    fn load(&self, block: BlockId, env: &mut Env<V>) {
        let w = self.slots.len();
        env.load(&self.slots, &self.entry[block * w..(block + 1) * w], self.reachable[block]);
    }

    /// The frame the function was solved in.
    pub(crate) fn frame<'a>(&'a self, shape: &'a FnShape) -> Frame<'a, V> {
        Frame { body: &shape.lowered, calls: &self.calls }
    }

    /// Replays the transfer function through `block`, calling `visit` with
    /// the state *before* each instruction together with the instruction
    /// and its span. This is how checkers obtain
    /// the evidence state at a report point without the solver storing
    /// per-instruction environments; the state is borrowed, so a block
    /// costs one environment copy.
    pub fn walk_block<D: Domain<Value = V>>(
        &self,
        domain: &D,
        shape: &FnShape,
        block: BlockId,
        visit: impl FnMut(&Env<V>, &SpannedInst<Inst>),
    ) {
        let mut env = Env::bottom();
        self.replay(domain, shape, block, &mut env, visit);
    }

    /// [`DomainAnalysis::walk_block`] over a caller's scratch environment.
    pub(crate) fn replay<D: Domain<Value = V>>(
        &self,
        domain: &D,
        shape: &FnShape,
        block: BlockId,
        env: &mut Env<V>,
        mut visit: impl FnMut(&Env<V>, &SpannedInst<Inst>),
    ) {
        let frame = self.frame(shape);
        self.load(block, env);
        for inst in &shape.cfg.blocks[block].insts {
            visit(env, inst);
            domain.transfer(&frame, env, &inst.inst);
        }
    }
}

/// The worklist fixpoint engine. Blocks are prioritised by reverse
/// post-order rank so forward information flows in as few sweeps as
/// possible; re-enqueueing uses the same rank, keeping iteration order — and
/// therefore results and statistics — fully deterministic.
///
/// A visit interprets the block's lowered instructions over one scratch
/// exit state and joins (or, past the widening threshold, widens) each
/// successor's entry state in place: no environment is allocated per
/// visit or edge, and the in-place operation's change flag replaces a
/// separate equality scan.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Solver {
    config: SolverConfig,
}

impl Solver {
    /// A solver with the given configuration.
    pub(crate) fn new(config: SolverConfig) -> Self {
        Solver { config }
    }

    /// Runs `domain` over the function's lowered CFG to a fixpoint and
    /// returns per-block entry states. The function's callee table is
    /// resolved against the domain once, up front.
    pub(crate) fn solve<D: Domain>(&self, domain: &D, shape: &FnShape) -> DomainAnalysis<D::Value> {
        let FnShape { cfg, rpo, rank, slots, lowered, .. } = shape;
        let calls: Vec<D::Value> = lowered.callees.iter().map(|c| domain.resolve(c)).collect();
        let frame = Frame { body: lowered, calls: &calls };
        let n = cfg.blocks.len();
        let w = slots.len();
        let mut entry = vec![D::Value::top(); n * w];
        let mut reachable = vec![false; n];
        let mut out = Env::reachable_top_in(slots);
        domain.seed_entry(lowered, &mut out);
        entry[cfg.entry * w..(cfg.entry + 1) * w].clone_from_slice(out.vals());
        reachable[cfg.entry] = true;
        let mut changes = vec![0usize; n];
        let mut stats = SolverStats { converged: true, ..SolverStats::default() };

        // pending[r]: the block of RPO rank r is queued. Popping the lowest
        // queued rank gives the earliest block in RPO among all pending
        // ones; `first` is a lower bound on that rank.
        let mut pending = vec![false; rpo.len()];
        pending[rank[cfg.entry]] = true;
        let mut first = rank[cfg.entry];
        // Scratch states for a refined branch edge, and for `entry ⊔ edge`
        // once a block widens; made on first use.
        let mut edge: Option<Env<D::Value>> = None;
        let mut joined: Option<Env<D::Value>> = None;

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
            out.load(slots, &entry[b * w..(b + 1) * w], reachable[b]);
            let mut branch_cond = None;
            for inst in &cfg.blocks[b].insts {
                domain.transfer(&frame, &mut out, &inst.inst);
                if let Op::Branch(c) = inst.inst.op {
                    branch_cond = Some(c);
                }
            }
            let succs = &cfg.blocks[b].succs;
            for (i, &s) in succs.iter().enumerate() {
                if rank[s] == usize::MAX {
                    continue; // successor unreachable in RPO (defensive)
                }
                let edge_env = match branch_cond {
                    Some(cond) if D::REFINES && succs.len() == 2 => {
                        let edge = edge.get_or_insert_with(|| out.clone());
                        edge.clone_from(&out);
                        domain.refine(&frame, edge, cond, i == 0);
                        &*edge
                    }
                    _ => &out,
                };
                let (row, reach) = (&mut entry[s * w..(s + 1) * w], &mut reachable[s]);
                let changed = if changes[s] >= self.config.widening_threshold {
                    // entry ∇ (entry ⊔ edge)
                    let joined = joined.get_or_insert_with(|| edge_env.clone());
                    joined.load(slots, row, *reach);
                    joined.join_into(edge_env);
                    let widened = combine_parts(row, reach, joined, D::Value::widen);
                    stats.widenings += u64::from(widened);
                    widened
                } else {
                    combine_parts(row, reach, edge_env, D::Value::join)
                };
                if changed {
                    changes[s] += 1;
                    pending[rank[s]] = true;
                    first = first.min(rank[s]);
                }
            }
        }

        DomainAnalysis { slots: slots.clone(), entry, reachable, stats, calls }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::absint::interval::{Interval, IntervalDomain};
    use crate::absint::lower::Target;
    use crate::absint::AbstractValue;
    use crate::parse;

    fn solve_with(src: &str, config: SolverConfig) -> (FnShape, DomainAnalysis<Interval>) {
        let p = parse(src).unwrap();
        let shape = FnShape::build(&p.functions[0]);
        let analysis = Solver::new(config).solve(&IntervalDomain::default(), &shape);
        (shape, analysis)
    }

    fn solve(src: &str) -> (FnShape, DomainAnalysis<Interval>, IntervalDomain) {
        let (shape, analysis) = solve_with(src, SolverConfig::default());
        (shape, analysis, IntervalDomain::default())
    }

    #[test]
    fn constant_propagation_through_straight_line() {
        let (shape, analysis, domain) =
            solve("int f() { int i = 3; i = i * 4; int t = i + 1; return t; }");
        assert!(analysis.stats.converged);
        let mut last = None;
        analysis.walk_block(&domain, &shape, shape.cfg.entry, |pre, _| last = Some(pre.clone()));
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
        let (shape, analysis, domain) =
            solve("int f(int x) { int r = 0; if (x < 10) { r = x; } return r; }");
        // Find the block that assigns r = x inside the guard.
        let mut saw = false;
        for b in 0..shape.cfg.blocks.len() {
            analysis.walk_block(&domain, &shape, b, |pre, inst| {
                if let Op::Assign { target: Target::Var(s), .. } = inst.inst.op {
                    if shape.slot_name(s) == "r" && pre.is_reachable() && pre.get("x").hi() < 10 {
                        saw = true;
                    }
                }
            });
        }
        assert!(saw, "taken edge of x < 10 must bound x above by 9");
    }

    #[test]
    fn join_at_diamond_merges_both_arms() {
        let (shape, analysis, domain) =
            solve("int f(int c) { int r = 0; if (c) { r = 1; } else { r = 5; } return r; }");
        let mut seen = None;
        for b in 0..shape.cfg.blocks.len() {
            analysis.walk_block(&domain, &shape, b, |pre, inst| {
                if matches!(inst.inst.op, Op::Return(_)) {
                    seen = Some(pre.get("r"));
                }
            });
        }
        let r = seen.expect("return reached");
        assert_eq!(r, Interval::point(1).join(&Interval::point(5)));
    }

    #[test]
    fn unreachable_blocks_stay_bottom() {
        let (shape, analysis, _) = solve("int f(int x) { if (x) { return 1; x = 2; } return x; }");
        let reachable = shape.cfg.reachable();
        for (b, &live) in reachable.iter().enumerate() {
            let env = analysis.block_entry(b);
            if !live {
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
