//! Abstract interpretation: a generic monotone-framework fixpoint solver
//! over the [`crate::cfg`] layer with pluggable abstract domains.
//!
//! Each function is lowered once, when its [`FnShape`] is built: the CFG
//! builder emits [`lower::Inst`]s whose variables are slots, whose
//! expressions live in one per-function arena, and whose calls index a
//! function-local callee table classified once. Every domain's transfer,
//! refinement and evaluation interpret that form; no name is looked up
//! while the solver runs. The solver joins into block-entry states in
//! place ([`Env::join_into`]), and the change flag the join returns is the
//! fixpoint test.
//!
//! The module is organised as a classic monotone framework:
//!
//! * [`lower`] — the lowered instruction form and its callee table;
//! * [`domain`] — the [`AbstractValue`] lattice contract, the
//!   slot-indexed per-variable [`Env`] state with its in-place joins, the
//!   per-solve [`Frame`] and the [`Domain`] transfer-function trait;
//! * [`interval`] — value ranges with widening to ±∞ (out-of-bounds and
//!   division-by-zero reasoning);
//! * [`nullness`] — literal-null provenance tracking for pointers;
//! * [`init`] — definite-initialization;
//! * [`ownership`] — heap-handle allocation state (use-after-free and
//!   double-free as must-facts);
//! * [`width`] — value ranges with storage-type-boundary widening (integer
//!   truncation proofs, sharper overflow bounds);
//! * [`provenance`] — attacker-control tracking with per-sink-kind
//!   sanitizer masks (kind-mismatched sanitization proofs);
//! * [`solver`] — the reverse-post-order worklist fixpoint engine with a
//!   configurable widening threshold;
//! * [`callgraph`] — the one per-program call graph and its strongly connected
//!   components;
//! * [`substrate`] — the per-program [`Substrate`] (call graph, components,
//!   and per-function lowered CFG, RPO ranks, reachable mask and slot
//!   table, built once) and [`Substrate::run`], the one driver: it solves a
//!   domain pass
//!   bottom-up with context-insensitive interprocedural summaries (one
//!   abstract return value per function) so facts flow across function
//!   boundaries, optionally SCC-parallel or through the incremental stage
//!   cache.
//!
//! Termination argument: every shipped domain is either of finite height
//! (nullness, init, ownership: chains of length ≤ 4; provenance: rank chains
//! of length ≤ 4 with masks that only lose bits) or equipped with a widening
//! operator that jumps unstable bounds along a finite ladder — straight to
//! ±∞ for intervals, through the storage-type boundaries ±2⁷…±2⁶³ for the
//! width domain — so each variable's abstract value can only climb a finite
//! chain. The solver joins for the
//! first [`solver::SolverConfig::widening_threshold`] visits of a block and
//! widens afterwards, which bounds the number of times any block can be
//! re-enqueued; a hard `max_iterations` backstop turns a (theoretically
//! impossible) divergence into a reported non-convergence instead of a hang.
//!
//! ```
//! use vulnman_lang::absint::interval::IntervalDomain;
//! use vulnman_lang::absint::{SolverConfig, Substrate};
//! use vulnman_lang::parse;
//!
//! let p = parse("int f() { int i = 0; while (i < 10) { i = i + 1; } return i; }").unwrap();
//! let pass = Substrate::new(&p).run(
//!     SolverConfig::default(),
//!     1,
//!     0,
//!     IntervalDomain::with_summaries,
//!     |solved| solved.analysis.stats,
//! );
//! assert!(pass.stats.converged);
//! assert!(pass.payloads[0].iterations > 0);
//! ```

pub mod callgraph;
pub mod domain;
pub mod init;
pub mod interval;
pub mod lower;
pub mod nullness;
pub mod ownership;
pub mod provenance;
pub mod solver;
pub mod substrate;
pub mod width;

pub use callgraph::CallGraph;
pub use domain::{AbstractValue, Domain, Env, Frame, Summaries};
pub use init::{Init, InitDomain};
pub use interval::{Interval, IntervalDomain};
pub use lower::{Callee, CalleeKind, Inst, Lowered, Node, NodeId, Op, Slot};
pub use nullness::{Nullness, NullnessDomain};
pub use ownership::{Ownership, OwnershipDomain};
pub use provenance::{Provenance, ProvenanceDomain};
pub use solver::{DomainAnalysis, SolverConfig, SolverStats};
pub use substrate::{FnShape, PassRun, Solved, Substrate};
pub use width::{Width, WidthDomain};
