//! Semantic checkers: detectors backed by the abstract-interpretation
//! framework in [`vulnman_lang::absint`].
//!
//! Where the rule-based suite in [`crate::detectors`] pattern-matches on
//! syntax (known source functions, known loop shapes), these checkers prove
//! facts about program *values* — an index interval entirely outside the
//! array, a pointer that is the literal null on some path, a variable read
//! before any initialization — and only report when the abstract state
//! constitutes a proof. Every finding therefore carries
//! [`Evidence`](crate::finding::Evidence): the abstract facts at the report
//! point plus the claim derived from them, reproducible by re-running the
//! named domain to the same point.
//!
//! The domains are tuned so "maybe" verdicts only arise from *tracked*
//! merges (a literal null joined with a non-null path; an initialized path
//! joined with an uninitialized one) — the lattice top is never
//! report-worthy. That keeps the suite false-positive-free on the synthetic
//! corpus while catching the semantic template classes the rule suite is
//! blind to by construction.

use crate::detectors::StaticDetector;
use crate::finding::{Confidence, Evidence, EvidenceFact, Finding};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;
use vulnman_lang::absint::lower::{LoweredCfg, Storage, Target};
use vulnman_lang::absint::provenance::{KIND_COMMAND, KIND_FORMAT};
use vulnman_lang::absint::{
    CalleeKind, Domain, Env, FnShape, Init, InitDomain, Inst, IntervalDomain, Node, NodeId,
    Nullness, NullnessDomain, Op, Ownership, OwnershipDomain, ProvenanceDomain, Slot, Solved,
    SolverConfig, SolverStats, Substrate, Summaries, WidthDomain,
};
use vulnman_lang::ast::Program;
use vulnman_lang::incremental::IncrementalTrace;
use vulnman_lang::AnalysisCache;
use vulnman_obs::Registry;
use vulnman_synth::cwe::Cwe;

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

/// The full result of a semantic scan: findings, solver telemetry, and the
/// per-function recompute trace.
#[derive(Debug, Clone, Default)]
pub struct SemanticScan {
    /// Findings, sorted by `(span.start, cwe)`; each carries evidence.
    pub findings: Vec<Finding>,
    /// Accumulated fixpoint statistics across all six domain passes.
    /// Components served from the stage tables contribute their recorded
    /// statistics, so these equal a batch scan's at any stage warmth.
    pub stats: SolverStats,
    /// Wall time of the interval pass (solver + checker), in microseconds.
    pub interval_micros: u64,
    /// Wall time of the nullness pass, in microseconds.
    pub nullness_micros: u64,
    /// Wall time of the definite-initialization pass, in microseconds.
    pub init_micros: u64,
    /// Wall time of the ownership pass (including the trace-interleaving
    /// TOCTOU checker it hosts), in microseconds.
    pub ownership_micros: u64,
    /// Wall time of the width/truncation pass, in microseconds.
    pub width_micros: u64,
    /// Wall time of the provenance (kind-masked taint) pass, in
    /// microseconds.
    pub provenance_micros: u64,
    /// Which functions any domain pass re-solved vs. reused from the stage
    /// tables (empty for a batch scan).
    pub trace: IncrementalTrace,
}

/// Runs the six abstract-domain passes over a program and reports semantic
/// findings with machine-checkable evidence.
///
/// Implements [`StaticDetector`] so it plugs into the same registries as the
/// rule suite, but it is deliberately *not* part of
/// [`RuleEngine::default_suite`](crate::detectors::RuleEngine::default_suite):
/// the differential oracle treats rules and semantics as independent views.
#[derive(Debug, Clone, Copy)]
pub struct SemanticEngine {
    config: SolverConfig,
    jobs: usize,
}

impl SemanticEngine {
    /// An engine with the default solver configuration.
    pub fn new() -> Self {
        SemanticEngine { config: SolverConfig::default(), jobs: 1 }
    }

    /// An engine with custom widening/iteration knobs.
    pub fn with_config(config: SolverConfig) -> Self {
        SemanticEngine { config, jobs: 1 }
    }

    /// Solves per-function fixpoints on up to `jobs` worker threads (the
    /// SCC-parallel mode of [`Substrate::run`]). Findings, summaries, and
    /// statistics are byte-identical for every value, so `jobs` is
    /// deliberately not part of [`SemanticEngine::fingerprint`] — cached
    /// results are shared across worker counts.
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }

    /// A 64-bit fingerprint of the engine configuration, used as the
    /// analysis-cache config key (same FNV construction as
    /// [`RuleEngine::fingerprint`](crate::detectors::RuleEngine::fingerprint)).
    pub fn fingerprint(&self) -> u64 {
        use std::hash::Hasher;
        let mut h = vulnman_lang::intern::Fnv64::default();
        h.write(b"semantic-suite");
        for v in [self.config.widening_threshold as u64, self.config.max_iterations] {
            h.write(&v.to_le_bytes());
        }
        h.finish()
    }

    /// Runs all six domain passes and returns findings plus telemetry.
    pub fn analyze(&self, program: &Program) -> SemanticScan {
        self.run_passes(&Substrate::new(program))
    }

    /// The six domain passes, in delivery order. Each solves its domain
    /// over the shared substrate and runs its checkers on every solved
    /// function; the tag separates the passes' incremental cache entries.
    const PASSES: [fn(&SemanticEngine, &Substrate<'_>, &mut SemanticScan); 6] = [
        |e, s, scan| e.pass(s, scan, 0x01, IntervalDomain::with_summaries, check_intervals),
        |e, s, scan| e.pass(s, scan, 0x02, NullnessDomain::with_summaries, check_nullness),
        |e, s, scan| e.pass(s, scan, 0x03, |_| InitDomain, check_init),
        |e, s, scan| {
            e.pass(s, scan, 0x04, OwnershipDomain::with_summaries, |solved, out| {
                check_ownership(solved, out);
                check_toctou(solved.func.name.as_str(), solved.shape, out);
            })
        },
        |e, s, scan| e.pass(s, scan, 0x05, WidthDomain::with_summaries, check_width),
        |e, s, scan| e.pass(s, scan, 0x06, ProvenanceDomain::with_summaries, check_sinks),
    ];

    /// Runs one domain pass over `substrate` and appends its findings,
    /// statistics and recompute trace to `scan`.
    fn pass<D, M>(
        &self,
        substrate: &Substrate<'_>,
        scan: &mut SemanticScan,
        tag: u64,
        make_domain: M,
        check: fn(&Solved<'_, D>, &mut Vec<Finding>),
    ) where
        D: Domain,
        D::Value: Send + Sync + 'static,
        M: Fn(Arc<Summaries<D::Value>>) -> D + Sync,
    {
        let pass = substrate.run(
            self.config,
            self.jobs,
            self.fingerprint() ^ tag,
            make_domain,
            |solved| {
                let mut out = Vec::new();
                check(solved, &mut out);
                out
            },
        );
        scan.findings.extend(pass.payloads.into_iter().flatten());
        scan.stats.absorb(&pass.stats);
        scan.trace.merge(&pass.trace);
    }

    /// Runs every pass in [`Self::PASSES`] over `substrate`, timing each.
    /// Findings are concatenated pass-major (bottom-up within a pass), then
    /// stably sorted by `(span.start, cwe)`.
    fn run_passes(&self, substrate: &Substrate<'_>) -> SemanticScan {
        let mut scan = SemanticScan {
            stats: SolverStats { converged: true, ..SolverStats::default() },
            ..SemanticScan::default()
        };
        let mut micros = [0; 6];
        for (pass, micros) in Self::PASSES.iter().zip(&mut micros) {
            let t = Instant::now();
            pass(self, substrate, &mut scan);
            *micros = t.elapsed().as_micros() as u64;
        }
        [
            scan.interval_micros,
            scan.nullness_micros,
            scan.init_micros,
            scan.ownership_micros,
            scan.width_micros,
            scan.provenance_micros,
        ] = micros;
        scan.findings.sort_by_key(|f| (f.span.start, f.cwe.id()));
        scan
    }

    /// Parses and scans source text.
    ///
    /// # Errors
    ///
    /// Returns the parse error if `source` is not valid mini-C.
    pub fn scan_source(&self, source: &str) -> Result<Vec<Finding>, vulnman_lang::ParseError> {
        Ok(self.scan(&vulnman_lang::parse(source)?))
    }

    /// The semantic findings of one unit through `cache`: the one cached
    /// entry point of the suite and the one place its whole-unit
    /// `absint-findings` entry is spelled. `program` is the parse of
    /// `source`, whose content key is `content_key`.
    ///
    /// A repeat is one lookup. A miss computes through the per-stage tables
    /// of `cache` (see [`vulnman_lang::incremental`]), so a resubmission
    /// with one function edited re-solves only what the edit touched; a
    /// cache that keeps no stages (disabled or
    /// [`scratch`](AnalysisCache::scratch)) computes through the batch
    /// substrate. Either way the
    /// miss's [`SemanticScan`] feeds the `absint.*` instruments of
    /// `metrics` (see [`register_absint_instruments`]), whose counters read
    /// the same at any stage warmth. Findings are identical to
    /// [`SemanticEngine::scan_source`]'s.
    pub fn findings_cached(
        &self,
        content_key: u64,
        source: &str,
        program: &Program,
        cache: &AnalysisCache,
        metrics: &Registry,
    ) -> Arc<Vec<Finding>> {
        cache.analysis_keyed(content_key, "absint-findings", self.fingerprint(), || {
            let scan = if cache.keeps_stages() {
                self.run_passes(&Substrate::incremental_from_source(program, source, cache))
            } else {
                self.analyze(program)
            };
            record(&scan, metrics);
            scan.findings
        })
    }

    /// Parses `source` through `cache` and scans it through the per-stage
    /// tables alone, returning the recompute trace: the stage path behind
    /// [`SemanticEngine::findings_cached`]'s misses, for callers that
    /// inspect which functions an edit re-solved. Findings and statistics
    /// are identical to [`SemanticEngine::analyze`]'s.
    ///
    /// # Errors
    ///
    /// Returns the parse error if `source` is not valid mini-C (cached, so
    /// malformed resubmissions fail without re-running anything
    /// downstream).
    pub fn scan_source_incremental(
        &self,
        source: &str,
        cache: &AnalysisCache,
    ) -> Result<SemanticScan, vulnman_lang::ParseError> {
        let program = cache.parse_keyed(AnalysisCache::content_key(source), source)?;
        Ok(self.run_passes(&Substrate::incremental_from_source(&program, source, cache)))
    }
}

/// Reports one computed scan through the pre-registered `absint.*`
/// instruments (see [`register_absint_instruments`]).
fn record(scan: &SemanticScan, metrics: &Registry) {
    metrics.counter("absint.solver.iterations").add(scan.stats.iterations);
    metrics.counter("absint.solver.widenings").add(scan.stats.widenings);
    if !scan.stats.converged {
        metrics.counter("absint.solver.nonconverged").add(1);
    }
    metrics.counter("absint.findings").add(scan.findings.len() as u64);
    metrics.histogram("absint.domain.interval_micros").observe(scan.interval_micros);
    metrics.histogram("absint.domain.nullness_micros").observe(scan.nullness_micros);
    metrics.histogram("absint.domain.init_micros").observe(scan.init_micros);
    metrics.histogram("absint.domain.ownership_micros").observe(scan.ownership_micros);
    metrics.histogram("absint.domain.width_micros").observe(scan.width_micros);
    metrics.histogram("absint.domain.provenance_micros").observe(scan.provenance_micros);
}

/// Detection counts for one CWE class on the fixed semantic-gap corpus —
/// one row of [`AbsintBaseline`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BaselineEntry {
    /// CWE id (e.g. 125).
    pub cwe: u32,
    /// Vulnerable samples where the semantic suite reported this class.
    pub true_positives: usize,
    /// Fixed twins where the suite still reported this class.
    pub false_positives: usize,
}

/// Committed per-CWE detection baseline for the semantic checker suite
/// (`tests/absint_baseline.json`). The regression gate fails when any
/// class's true positives drop below — or false positives rise above — the
/// committed numbers; conscious improvements regenerate the file instead.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AbsintBaseline {
    /// One entry per semantic-gap CWE class, sorted by id.
    pub entries: Vec<BaselineEntry>,
}

impl Default for SemanticEngine {
    fn default() -> Self {
        SemanticEngine::new()
    }
}

impl StaticDetector for SemanticEngine {
    fn name(&self) -> &'static str {
        "semantic-suite"
    }

    fn cwes(&self) -> Vec<Cwe> {
        vec![
            Cwe::OutOfBoundsWrite,
            Cwe::OutOfBoundsRead,
            Cwe::IntegerOverflow,
            Cwe::DivideByZero,
            Cwe::NullDereference,
            Cwe::UninitializedUse,
            Cwe::UseAfterFree,
            Cwe::DoubleFree,
            Cwe::IntegerTruncation,
            Cwe::Toctou,
            Cwe::CommandInjection,
            Cwe::FormatString,
        ]
    }

    fn scan(&self, program: &Program) -> Vec<Finding> {
        self.analyze(program).findings
    }
}

/// Pre-registers every `absint.*` instrument the semantic engine can
/// produce, so exported snapshots have a stable schema even when a counter
/// never fires (the same pattern as the `oracle.*` and `fault.*` families).
pub fn register_absint_instruments(metrics: &Registry) {
    metrics.counter("absint.solver.iterations");
    metrics.counter("absint.solver.widenings");
    metrics.counter("absint.solver.nonconverged");
    metrics.counter("absint.findings");
    metrics.histogram("absint.domain.interval_micros");
    metrics.histogram("absint.domain.nullness_micros");
    metrics.histogram("absint.domain.init_micros");
    metrics.histogram("absint.domain.ownership_micros");
    metrics.histogram("absint.domain.width_micros");
    metrics.histogram("absint.domain.provenance_micros");
}

// ---------------------------------------------------------------------------
// Evidence helpers
// ---------------------------------------------------------------------------

/// Evidence facts for every variable under `nodes` (`&` operands
/// included), in name order, rendered from the pre-state of the report
/// point.
fn facts_for<D: Domain>(
    s: &Solved<'_, D>,
    pre: &Env<D::Value>,
    nodes: &[NodeId],
) -> Vec<EvidenceFact> {
    let mut slots = Vec::new();
    for &n in nodes {
        s.body().vars_under(n, &mut slots);
    }
    // Slot order is name order.
    slots.sort_unstable();
    slots.dedup();
    slots.into_iter().map(|v| fact(s.shape, v, &pre.at(v))).collect()
}

/// The evidence fact `slot = value`.
fn fact(shape: &FnShape, slot: Slot, value: &impl std::fmt::Display) -> EvidenceFact {
    EvidenceFact { var: shape.slot_name(slot).to_string(), value: value.to_string() }
}

// ---------------------------------------------------------------------------
// Interval checkers: OOB (CWE-787/125), div-by-zero (CWE-369), overflow (190)
// ---------------------------------------------------------------------------

fn check_intervals(s: &Solved<'_, IntervalDomain>, out: &mut Vec<Finding>) {
    let (func, body, domain) = (s.func, s.body(), s.domain);
    // Declared array lengths per slot. The language has function-level
    // scope, so one table per function suffices; a later declaration wins.
    let mut arrays: Vec<Option<i128>> = vec![None; s.shape.slot_count()];
    for inst in s.cfg().blocks.iter().flat_map(|b| &b.insts) {
        if let Op::Decl { slot, storage: Storage::Array(n), .. } = inst.inst.op {
            arrays[slot as usize] = Some(n as i128);
        }
    }

    s.for_each_reachable(|pre, inst| {
        let op = &inst.inst;
        for access in body.accesses(op) {
            let Some(len) = arrays[access.base as usize] else { continue };
            let iv = s.eval(pre, access.index);
            // Must-style gate: report only when *every* possible index
            // is outside `[0, len)` — a proof, not a possibility.
            if iv.is_bottom() || (iv.lo() < len && iv.hi() >= 0) {
                continue;
            }
            let base = s.shape.slot_name(access.base);
            let (cwe, verb) = if access.is_write {
                (Cwe::OutOfBoundsWrite, "write to")
            } else {
                (Cwe::OutOfBoundsRead, "read of")
            };
            let claim =
                format!("index into `{base}` is {iv}, entirely outside the valid range [0, {len})");
            out.push(Finding {
                cwe,
                function: func.name.to_string(),
                span: inst.span,
                detector: "absint-interval".into(),
                message: format!(
                    "{verb} `{base}[...]` with an index proven out of bounds ({iv} vs length \
                     {len})"
                ),
                confidence: Confidence::High,
                evidence: Some(Evidence {
                    domain: domain.name().into(),
                    facts: facts_for(s, pre, &[access.index]),
                    claim,
                }),
            });
        }
        for &divisor in body.divisors(op) {
            let dv = s.eval(pre, divisor);
            if !dv.is_point(0) {
                continue;
            }
            out.push(Finding {
                cwe: Cwe::DivideByZero,
                function: func.name.to_string(),
                span: inst.span,
                detector: "absint-interval".into(),
                message: "division by a divisor proven to be exactly zero".into(),
                confidence: Confidence::High,
                evidence: Some(Evidence {
                    domain: domain.name().into(),
                    facts: facts_for(s, pre, &[divisor]),
                    claim: "the divisor evaluates to [0, 0] on every path reaching this \
                            division"
                        .into(),
                }),
            });
        }
        if let Op::Decl { init: Some(value), .. } | Op::Assign { value, .. } = op.op {
            let v = s.eval(pre, value);
            if v.fits_i64() {
                return;
            }
            out.push(Finding {
                cwe: Cwe::IntegerOverflow,
                function: func.name.to_string(),
                span: inst.span,
                detector: "absint-interval".into(),
                message: format!(
                    "assigned value {v} lies entirely outside the 64-bit integer range"
                ),
                confidence: Confidence::High,
                evidence: Some(Evidence {
                    domain: domain.name().into(),
                    facts: facts_for(s, pre, &[value]),
                    claim: format!("the assigned expression evaluates to {v}"),
                }),
            });
        }
    });
}

// ---------------------------------------------------------------------------
// Nullness checker: null dereference (CWE-476)
// ---------------------------------------------------------------------------

fn check_nullness(s: &Solved<'_, NullnessDomain>, out: &mut Vec<Finding>) {
    let (func, body, domain) = (s.func, s.body(), s.domain);
    // One finding per variable per function: later dereferences of the same
    // null pointer add no information.
    let mut reported = vec![false; s.shape.slot_count()];
    s.for_each_reachable_where(
        |op| !body.derefs(op).is_empty(),
        |pre, inst| {
            let op = &inst.inst;
            for &slot in body.derefs(op) {
                let v = pre.at(slot);
                if !v.is_derefable_bug() || reported[slot as usize] {
                    continue;
                }
                reported[slot as usize] = true;
                let name = s.shape.slot_name(slot);
                let (confidence, how) = match v {
                    Nullness::Null => (Confidence::High, "is the literal null on every path"),
                    _ => (
                        Confidence::Medium,
                        "may be the literal null: a null-valued path \
                       merges in unguarded",
                    ),
                };
                out.push(Finding {
                    cwe: Cwe::NullDereference,
                    function: func.name.to_string(),
                    span: inst.span,
                    detector: "absint-nullness".into(),
                    message: format!("dereference of `{name}`, which {how}"),
                    confidence,
                    evidence: Some(Evidence {
                        domain: domain.name().into(),
                        facts: vec![fact(s.shape, slot, &v)],
                        claim: format!("`{name}` is {v} at the dereference"),
                    }),
                });
            }
        },
    );
}

// ---------------------------------------------------------------------------
// Definite-initialization checker: use of uninitialized variable (CWE-457)
// ---------------------------------------------------------------------------

fn check_init(s: &Solved<'_, InitDomain>, out: &mut Vec<Finding>) {
    let (func, body, domain) = (s.func, s.body(), s.domain);
    let mut reported = vec![false; s.shape.slot_count()];
    s.for_each_reachable(|pre, inst| {
        let op = &inst.inst;
        for &slot in body.reads(op) {
            let v = pre.at(slot);
            if !v.is_read_bug() || reported[slot as usize] {
                continue;
            }
            reported[slot as usize] = true;
            let name = s.shape.slot_name(slot);
            let (confidence, how) = match v {
                Init::No => (Confidence::High, "is never initialized before this read"),
                _ => (
                    Confidence::Medium,
                    "is uninitialized on at least one path to this \
                       read",
                ),
            };
            out.push(Finding {
                cwe: Cwe::UninitializedUse,
                function: func.name.to_string(),
                span: inst.span,
                detector: "absint-init".into(),
                message: format!("read of `{name}`, which {how}"),
                confidence,
                evidence: Some(Evidence {
                    domain: domain.name().into(),
                    facts: vec![fact(s.shape, slot, &v)],
                    claim: format!("`{name}` is {v} at the read"),
                }),
            });
        }
    });
}

// ---------------------------------------------------------------------------
// Ownership checker: use-after-free (CWE-416), double-free (CWE-415)
// ---------------------------------------------------------------------------

fn check_ownership(s: &Solved<'_, OwnershipDomain>, out: &mut Vec<Finding>) {
    let (func, body, domain) = (s.func, s.body(), s.domain);
    // One finding per (variable, class) per function.
    let mut double_freed = vec![false; s.shape.slot_count()];
    let mut used_after_free = vec![false; s.shape.slot_count()];
    // Variables released by a `FREE_FNS` call inside the instruction (the
    // call's first argument, when it is a plain variable), in name order.
    let mut freed_here: Vec<Slot> = Vec::new();
    s.for_each_reachable(|pre, inst| {
        let op = &inst.inst;
        freed_here.clear();
        for &call in body.calls(op) {
            if let Some((callee, Some(arg))) = body.call(call) {
                if let (CalleeKind::Free, Node::Var(v)) = (callee.kind, body.node(arg)) {
                    freed_here.push(v);
                }
            }
        }
        freed_here.sort_unstable();
        freed_here.dedup();
        // A release of a handle that is already dead is a double free.
        for &slot in &freed_here {
            let v = pre.at(slot);
            let (confidence, how) = if v.free_is_proven_bug() {
                let how = match v {
                    Ownership::Moved => "whose ownership was already handed off",
                    _ => "already released on every path",
                };
                (Confidence::High, how)
            } else if v.free_is_possible_bug() {
                (Confidence::Medium, "already released on at least one path")
            } else {
                continue;
            };
            if std::mem::replace(&mut double_freed[slot as usize], true) {
                continue;
            }
            let name = s.shape.slot_name(slot);
            out.push(Finding {
                cwe: Cwe::DoubleFree,
                function: func.name.to_string(),
                span: inst.span,
                detector: "absint-ownership".into(),
                message: format!("release of `{name}`, {how}"),
                confidence,
                evidence: Some(Evidence {
                    domain: domain.name().into(),
                    facts: vec![fact(s.shape, slot, &v)],
                    claim: format!("`{name}` is {v} when released again"),
                }),
            });
        }
        // Any other read of a dead handle is a use after free. The
        // release itself was reported above as the double free.
        for &slot in body.reads(op) {
            if freed_here.contains(&slot) {
                continue;
            }
            let v = pre.at(slot);
            let (confidence, how) = if v.use_is_proven_bug() {
                (Confidence::High, "released on every path reaching this use")
            } else if v.use_is_possible_bug() {
                (Confidence::Medium, "released on at least one path reaching this use")
            } else {
                continue;
            };
            if std::mem::replace(&mut used_after_free[slot as usize], true) {
                continue;
            }
            let name = s.shape.slot_name(slot);
            out.push(Finding {
                cwe: Cwe::UseAfterFree,
                function: func.name.to_string(),
                span: inst.span,
                detector: "absint-ownership".into(),
                message: format!("use of `{name}`, {how}"),
                confidence,
                evidence: Some(Evidence {
                    domain: domain.name().into(),
                    facts: vec![fact(s.shape, slot, &v)],
                    claim: format!("`{name}` is {v} at the use"),
                }),
            });
        }
    });
}

// ---------------------------------------------------------------------------
// Trace-interleaving TOCTOU checker (CWE-367)
// ---------------------------------------------------------------------------

/// Functions that *check* a path's state without opening it.
const TOCTOU_CHECK_FNS: [&str; 1] = ["file_exists"];
/// Functions that *use* a path, trusting an earlier check.
const TOCTOU_USE_FNS: [&str; 2] = ["open_file", "fopen_path"];
/// Cap on enumerated check→use interleavings per check site.
const TOCTOU_PATH_CAP: u32 = 64;

/// A per-block event relevant to the check/use window of one path variable.
#[derive(Debug, Clone, Copy, PartialEq)]
enum ToctouEvent<'a> {
    /// `file_exists(v)` — opens a stale window.
    Check(Slot),
    /// `open_file(v)`-style use, with the callee name and its span.
    Use(Slot, &'a str, vulnman_lang::Span),
    /// `v` is re-assigned or re-declared — the window closes.
    Kill(Slot),
}

/// Collects check/use/kill events per basic block, in instruction order.
fn toctou_events(shape: &FnShape) -> Vec<Vec<ToctouEvent<'_>>> {
    let body = &shape.lowered;
    shape
        .cfg
        .blocks
        .iter()
        .map(|block| {
            let mut events = Vec::new();
            for inst in &block.insts {
                let op = &inst.inst;
                for &call in body.calls(op) {
                    let Some((callee, Some(arg))) = body.call(call) else { continue };
                    let Node::Var(v) = body.node(arg) else { continue };
                    let name = callee.name.as_str();
                    if TOCTOU_CHECK_FNS.contains(&name) {
                        events.push(ToctouEvent::Check(v));
                    } else if TOCTOU_USE_FNS.contains(&name) {
                        events.push(ToctouEvent::Use(v, name, inst.span));
                    }
                }
                match op.op {
                    Op::Decl { slot, .. } | Op::Assign { target: Target::Var(slot), .. } => {
                        events.push(ToctouEvent::Kill(slot))
                    }
                    _ => {}
                }
            }
            events
        })
        .collect()
}

/// Depth-first enumeration of acyclic check→use interleavings for `var`,
/// starting at `events[b][start]`. Each discovered path ends at its first
/// use (recorded in `uses`) or dies at a kill.
#[allow(clippy::too_many_arguments)]
fn toctou_dfs<'a>(
    cfg: &LoweredCfg,
    events: &[Vec<ToctouEvent<'a>>],
    var: Slot,
    b: usize,
    start: usize,
    visited: &mut Vec<bool>,
    uses: &mut Vec<(vulnman_lang::Span, &'a str)>,
    paths: &mut u32,
) {
    if *paths >= TOCTOU_PATH_CAP {
        return;
    }
    for ev in &events[b][start..] {
        match ev {
            ToctouEvent::Use(v, callee, span) if *v == var => {
                *paths += 1;
                uses.push((*span, callee));
                return;
            }
            ToctouEvent::Kill(v) if *v == var => return,
            _ => {}
        }
    }
    for &succ in &cfg.blocks[b].succs {
        if !visited[succ] {
            visited[succ] = true;
            toctou_dfs(cfg, events, var, succ, 0, visited, uses, paths);
            visited[succ] = false;
        }
    }
}

/// Enumerates check/use interleavings over the CFG: from every
/// `file_exists(p)` site, walks every acyclic continuation and reports when
/// a use of `p` is reachable with no intervening re-derivation of `p` —
/// i.e. at least one trace has a window in which the checked state can go
/// stale. Purely structural (no abstract domain), so flag-indirected checks
/// the syntactic race rule misses are still found.
fn check_toctou(function: &str, shape: &FnShape, out: &mut Vec<Finding>) {
    let (cfg, reachable) = (&shape.cfg, &shape.reachable);
    let events = toctou_events(shape);
    let mut reported = vec![false; shape.slot_count()];
    for (b, block_events) in events.iter().enumerate() {
        if !reachable[b] {
            continue;
        }
        for (i, ev) in block_events.iter().enumerate() {
            let ToctouEvent::Check(var) = *ev else { continue };
            if reported[var as usize] {
                continue;
            }
            let mut visited = vec![false; cfg.blocks.len()];
            visited[b] = true;
            let mut uses = Vec::new();
            let mut paths = 0u32;
            toctou_dfs(cfg, &events, var, b, i + 1, &mut visited, &mut uses, &mut paths);
            if paths == 0 {
                continue;
            }
            reported[var as usize] = true;
            let var = shape.slot_name(var);
            // Anchor the finding at the earliest reachable use.
            uses.sort_by_key(|(span, _)| span.start);
            let (span, callee) = uses[0];
            let windows = if paths >= TOCTOU_PATH_CAP {
                format!("at least {TOCTOU_PATH_CAP}")
            } else {
                paths.to_string()
            };
            out.push(Finding {
                cwe: Cwe::Toctou,
                function: function.to_string(),
                span,
                detector: "absint-toctou".into(),
                message: format!(
                    "`{callee}({var})` trusts an earlier `file_exists({var})` check; the file \
                     can change in the window between them"
                ),
                confidence: Confidence::High,
                evidence: Some(Evidence {
                    domain: "trace-interleaving".into(),
                    facts: vec![EvidenceFact {
                        var: var.to_string(),
                        value: format!("{windows} stale check-to-use window(s)"),
                    }],
                    claim: format!(
                        "{windows} interleaving(s) reach `{callee}({var})` from the check with \
                         no re-validation of `{var}`"
                    ),
                }),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Width checker: integer truncation (CWE-197)
// ---------------------------------------------------------------------------

fn check_width(s: &Solved<'_, WidthDomain>, out: &mut Vec<Finding>) {
    let (func, domain) = (s.func, s.domain);
    // Scalar `char` declarations in this function (function-level scope, so
    // one set suffices); stores into them are the narrowing points.
    let mut chars = vec![false; s.shape.slot_count()];
    for inst in s.cfg().blocks.iter().flat_map(|b| &b.insts) {
        if let Op::Decl { slot, storage: Storage::Char, .. } = inst.inst.op {
            chars[slot as usize] = true;
        }
    }
    if !chars.contains(&true) {
        return;
    }

    let mut reported = vec![false; s.shape.slot_count()];
    // The narrowing stores: initialized `char` declarations, and plain
    // assignments to a `char`.
    let store = |inst: &Inst| match inst.op {
        Op::Decl { slot, storage: Storage::Char, init: Some(value) } => Some((slot, value)),
        Op::Assign { target: Target::Var(slot), value } if chars[slot as usize] => {
            Some((slot, value))
        }
        _ => None,
    };
    s.for_each_reachable_where(
        |op| store(op).is_some(),
        |pre, inst| {
            let Some((dest, value)) = store(&inst.inst) else { return };
            let v = s.eval(pre, value);
            // Must-style gate: only a range entirely outside the 8-bit
            // window proves the store truncates; may-truncation stays quiet.
            if !v.provably_exceeds_bits(8) || reported[dest as usize] {
                return;
            }
            reported[dest as usize] = true;
            let dest = s.shape.slot_name(dest);
            out.push(Finding {
                cwe: Cwe::IntegerTruncation,
                function: func.name.to_string(),
                span: inst.span,
                detector: "absint-width".into(),
                message: format!(
                    "store into 8-bit `{dest}` of a value proven outside the char range ({v})"
                ),
                confidence: Confidence::High,
                evidence: Some(Evidence {
                    domain: domain.name().into(),
                    facts: facts_for(s, pre, &[value]),
                    claim: format!(
                        "the stored expression evaluates to {v}, entirely outside [-128, 127]"
                    ),
                }),
            });
        },
    );
}

// ---------------------------------------------------------------------------
// Provenance checker: format string (CWE-134), command injection (CWE-78)
// ---------------------------------------------------------------------------

/// Sinks the provenance checker proves kind-mismatches against: the callee,
/// the kind bit its first argument must be sanitized for, the class a
/// violation evidences, and the human name of the kind.
const PROVENANCE_SINKS: [(&str, u8, Cwe, &str); 4] = [
    ("printf_fmt", KIND_FORMAT, Cwe::FormatString, "format"),
    ("system", KIND_COMMAND, Cwe::CommandInjection, "command"),
    ("exec_shell", KIND_COMMAND, Cwe::CommandInjection, "command"),
    ("popen", KIND_COMMAND, Cwe::CommandInjection, "command"),
];

fn check_sinks(s: &Solved<'_, ProvenanceDomain>, out: &mut Vec<Finding>) {
    let (func, body, domain) = (s.func, s.body(), s.domain);
    // The sink entry of each callee-table entry, looked up once.
    let sinks: Vec<_> = body
        .callees
        .iter()
        .map(|c| PROVENANCE_SINKS.iter().find(|(sink, ..)| *sink == c.name.as_str()))
        .collect();
    if sinks.iter().all(Option::is_none) {
        return;
    }
    let mut reported: BTreeSet<(u32, u32)> = BTreeSet::new();
    let is_sink =
        |call: NodeId| matches!(body.node(call), Node::Call(c, _) if sinks[c as usize].is_some());
    s.for_each_reachable_where(
        |op| body.calls(op).iter().any(|&c| is_sink(c)),
        |pre, inst| {
            let op = &inst.inst;
            for &call in body.calls(op) {
                let Node::Call(c, args) = body.node(call) else { continue };
                let Some((name, kind_bit, cwe, kind_name)) = sinks[c as usize] else { continue };
                let Some(&arg) = body.args(args).first() else { continue };
                let v = s.eval(pre, arg);
                let (confidence, how) = if v.sink_is_proven_bug(*kind_bit) {
                    (Confidence::High, "on every path")
                } else if v.sink_is_possible_bug(*kind_bit) {
                    (Confidence::Medium, "on at least one path")
                } else {
                    continue;
                };
                if !reported.insert((inst.span.start as u32, cwe.id())) {
                    continue;
                }
                out.push(Finding {
                    cwe: *cwe,
                    function: func.name.to_string(),
                    span: inst.span,
                    detector: "absint-provenance".into(),
                    message: format!(
                        "attacker-controlled data reaches the {kind_name} position of \
                     `{name}` {how}, never sanitized for `{kind_name}`"
                    ),
                    confidence,
                    evidence: Some(Evidence {
                        domain: domain.name().into(),
                        facts: facts_for(s, pre, &[arg]),
                        claim: format!(
                            "the argument is {v} at the `{name}` sink — its sanitizer mask \
                         never covered `{kind_name}`"
                        ),
                    }),
                });
            }
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detectors::RuleEngine;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use vulnman_lang::{parse, Stage};
    use vulnman_synth::emit::EmitCtx;
    use vulnman_synth::style::StyleProfile;
    use vulnman_synth::templates::semantic::{semantic_gap_pair, GAP_CLASSES};
    use vulnman_synth::tier::Tier;

    #[test]
    fn fingerprint_value_is_pinned() {
        // The fingerprint is the analysis-cache config key; a drift would
        // silently orphan every cached semantic scan.
        assert_eq!(SemanticEngine::new().fingerprint(), 0x75459cb9990f5ef1);
    }

    #[test]
    fn semantic_suite_catches_gap_templates_and_passes_fixes() {
        let engine = SemanticEngine::new();
        let mut styles = vec![StyleProfile::mainstream()];
        styles.extend(StyleProfile::internal_teams());
        for style in &styles {
            for cwe in GAP_CLASSES {
                for seed in 0..6u64 {
                    let mut rng = StdRng::seed_from_u64(seed * 31 + cwe.id() as u64);
                    let mut ctx = EmitCtx::new(style, Tier::Curated, &mut rng);
                    let pair = semantic_gap_pair(cwe, &mut ctx);
                    let fv = engine.scan_source(&pair.vulnerable).unwrap();
                    let hit = fv.iter().find(|f| f.cwe == cwe);
                    assert!(
                        hit.is_some(),
                        "{cwe} seed {seed} team {}: vulnerable unit missed:\n{}",
                        style.team,
                        pair.vulnerable
                    );
                    assert!(
                        hit.unwrap().evidence.is_some(),
                        "{cwe}: semantic findings must carry evidence"
                    );
                    let ff = engine.scan_source(&pair.fixed).unwrap();
                    assert!(
                        ff.iter().all(|f| f.cwe != cwe),
                        "{cwe} seed {seed} team {}: fixed unit flagged:\n{}\n{ff:?}",
                        style.team,
                        pair.fixed
                    );
                }
            }
        }
    }

    #[test]
    fn rule_suite_stays_blind_to_gap_templates() {
        // The whole point of the semantic templates: the syntactic rule
        // suite has no trigger for constant-flow bugs.
        let rules = RuleEngine::default_suite();
        let style = StyleProfile::mainstream();
        for cwe in GAP_CLASSES {
            for seed in 0..6u64 {
                let mut rng = StdRng::seed_from_u64(seed * 13 + cwe.id() as u64);
                let mut ctx = EmitCtx::new(&style, Tier::Curated, &mut rng);
                let pair = semantic_gap_pair(cwe, &mut ctx);
                let findings = rules.scan_source(&pair.vulnerable).unwrap();
                assert!(
                    findings.iter().all(|f| f.cwe != cwe),
                    "{cwe} seed {seed}: rules unexpectedly caught a semantic template:\n{}",
                    pair.vulnerable
                );
            }
        }
    }

    #[test]
    fn no_false_positives_on_benign_and_fixed_classic_corpus() {
        use vulnman_synth::generator::SampleGenerator;
        let engine = SemanticEngine::new();
        let mut g = SampleGenerator::new(41, StyleProfile::mainstream());
        for _ in 0..30 {
            let b = g.benign_risky(Tier::Curated, "p");
            let findings = engine.scan_source(&b.source).unwrap();
            assert!(
                findings.is_empty(),
                "semantic checker flagged safe code:\n{}\n{findings:?}",
                b.source
            );
        }
        // Classic fixed templates must also stay clean.
        let style = StyleProfile::mainstream();
        for cwe in Cwe::CLASSIC {
            for seed in 0..4u64 {
                let mut rng = StdRng::seed_from_u64(seed * 7 + cwe.id() as u64);
                let mut ctx = EmitCtx::new(&style, Tier::Curated, &mut rng);
                let pair = vulnman_synth::templates::generate(cwe, &mut ctx);
                let ff = engine.scan_source(&pair.fixed).unwrap();
                assert!(
                    ff.iter().all(|f| f.cwe != cwe),
                    "{cwe} seed {seed}: semantic checker flagged the fixed unit:\n{}\n{ff:?}",
                    pair.fixed
                );
            }
        }
    }

    #[test]
    fn evidence_replays_the_abstract_state() {
        let engine = SemanticEngine::new();
        let findings = engine
            .scan_source("void f() { int a[4]; int i = 9; int x = a[i]; record_metric(\"x\", x); }")
            .unwrap();
        let f = findings.iter().find(|f| f.cwe == Cwe::OutOfBoundsRead).expect("OOB read found");
        let ev = f.evidence.as_ref().expect("evidence attached");
        assert_eq!(ev.domain, "interval");
        assert!(
            ev.facts.iter().any(|fa| fa.var == "i" && fa.value == "[9, 9]"),
            "the index variable's interval is the evidence: {ev:?}"
        );
        assert!(ev.claim.contains("[0, 4)"), "claim names the valid range: {}", ev.claim);
        // The Display form is the lint-output trace.
        let trace = ev.to_string();
        assert!(trace.contains("interval domain:"), "{trace}");
        assert!(trace.contains("i = [9, 9]"), "{trace}");
    }

    #[test]
    fn division_by_zero_and_overflow_are_proven_not_guessed() {
        let engine = SemanticEngine::new();
        // Interprocedural: the zero flows through a call summary.
        let findings = engine
            .scan_source(
                "int stride() { int k = 5; return k - 5; }\n\
                 void f() { int total = 100; int d = stride(); int q = total / d; \
                 record_metric(\"q\", q); }",
            )
            .unwrap();
        assert!(
            findings.iter().any(|f| f.cwe == Cwe::DivideByZero),
            "zero divisor through a summary: {findings:?}"
        );
        // A merely-possible zero is not reported (must, not may).
        let findings = engine
            .scan_source("void f(int n) { int q = 10 / n; record_metric(\"q\", q); }")
            .unwrap();
        assert!(findings.is_empty(), "unknown divisor must not be flagged: {findings:?}");
        // Overflow: a product proven outside i64.
        let findings = engine
            .scan_source(
                "void f() { int big = 9000000000000000000; int x = big * 9; \
                 record_metric(\"x\", x); }",
            )
            .unwrap();
        assert!(
            findings.iter().any(|f| f.cwe == Cwe::IntegerOverflow),
            "proven overflow: {findings:?}"
        );
    }

    #[test]
    fn maybe_states_report_at_medium_confidence() {
        let engine = SemanticEngine::new();
        let findings = engine
            .scan_source(
                "void f(int flag) { char* p = 0; if (flag > 0) { p = make_buf(8); } \
                 p[0] = 'x'; }",
            )
            .unwrap();
        let f = findings.iter().find(|f| f.cwe == Cwe::NullDereference).expect("476 found");
        assert_eq!(f.confidence, Confidence::Medium, "maybe-null is a merge, not a must");
        let findings = engine.scan_source("void f() { char* p = 0; p[0] = 'x'; }").unwrap();
        let f = findings.iter().find(|f| f.cwe == Cwe::NullDereference).expect("476 found");
        assert_eq!(f.confidence, Confidence::High, "definite null is a must");
    }

    #[test]
    fn double_free_and_use_after_free_are_proven_by_ownership() {
        let engine = SemanticEngine::new();
        // Release of an already-released handle is a must-double-free.
        let findings = engine
            .scan_source(
                "void f() { char* p = alloc_buffer(8); release_block(p); release_block(p); }",
            )
            .unwrap();
        let f = findings.iter().find(|f| f.cwe == Cwe::DoubleFree).expect("415 found");
        assert_eq!(f.confidence, Confidence::High, "second release is a must");
        assert_eq!(f.detector, "absint-ownership");
        let ev = f.evidence.as_ref().expect("evidence attached");
        assert_eq!(ev.domain, "ownership");
        assert!(ev.facts.iter().any(|fa| fa.var == "p"), "the handle is the evidence: {ev:?}");
        // Releasing a handle whose ownership moved elsewhere is the same bug.
        let findings = engine
            .scan_source(
                "void f() { char* p = alloc_buffer(8); store_handle(p); release_block(p); }",
            )
            .unwrap();
        assert!(
            findings.iter().any(|f| f.cwe == Cwe::DoubleFree && f.confidence == Confidence::High),
            "release after handoff: {findings:?}"
        );
        // Any other read of a released handle is a use-after-free.
        let findings = engine
            .scan_source(
                "void f() { char* p = alloc_buffer(8); release_block(p); send_data(p, 8); }",
            )
            .unwrap();
        let f = findings.iter().find(|f| f.cwe == Cwe::UseAfterFree).expect("416 found");
        assert_eq!(f.confidence, Confidence::High);
        // A one-sided release merges to maybe-freed: reported, at Medium.
        let findings = engine
            .scan_source(
                "void f(int flag) { char* p = alloc_buffer(8); \
                 if (flag > 0) { release_block(p); } send_data(p, 8); }",
            )
            .unwrap();
        let f = findings.iter().find(|f| f.cwe == Cwe::UseAfterFree).expect("416 found");
        assert_eq!(f.confidence, Confidence::Medium, "maybe-freed is a merge, not a must");
        // A re-allocated handle is owned again: no finding.
        let findings = engine
            .scan_source(
                "void f() { char* p = alloc_buffer(8); release_block(p); \
                 p = alloc_buffer(16); send_data(p, 16); release_block(p); }",
            )
            .unwrap();
        assert!(findings.is_empty(), "re-allocation restores ownership: {findings:?}");
    }

    #[test]
    fn toctou_window_is_traced_through_interleavings() {
        let engine = SemanticEngine::new();
        // Flag-indirected check/use: the syntactic race rule needs the check
        // inside the branch condition, so only the trace walk sees this.
        let findings = engine
            .scan_source(
                "void f() { char* path = read_input(); int ok = file_exists(path); \
                 if (ok > 0) { int fd = open_file(path); record_metric(\"fd\", fd); } }",
            )
            .unwrap();
        let f = findings.iter().find(|f| f.cwe == Cwe::Toctou).expect("367 found");
        assert_eq!(f.confidence, Confidence::High);
        let ev = f.evidence.as_ref().expect("evidence attached");
        assert_eq!(ev.domain, "trace-interleaving");
        assert!(
            ev.facts.iter().any(|fa| fa.var == "path" && fa.value.contains("window")),
            "the stale window count is the evidence: {ev:?}"
        );
        assert!(ev.claim.contains("open_file"), "claim names the trusting use: {}", ev.claim);
        // Re-deriving the path between check and use closes the window.
        let findings = engine
            .scan_source(
                "void f() { char* path = read_input(); int ok = file_exists(path); \
                 path = read_input(); int fd = open_file(path); record_metric(\"fd\", fd); }",
            )
            .unwrap();
        assert!(
            findings.iter().all(|f| f.cwe != Cwe::Toctou),
            "re-derivation kills the window: {findings:?}"
        );
        // The atomic open never trusts a prior check: no finding.
        let findings = engine
            .scan_source(
                "void f() { char* path = read_input(); \
                 int fd = open_file_atomic(path); record_metric(\"fd\", fd); }",
            )
            .unwrap();
        assert!(findings.iter().all(|f| f.cwe != Cwe::Toctou), "{findings:?}");
        // A use on a path with no preceding check is also clean.
        let findings = engine
            .scan_source(
                "void f() { char* path = read_input(); int fd = open_file(path); \
                 record_metric(\"fd\", fd); }",
            )
            .unwrap();
        assert!(findings.iter().all(|f| f.cwe != Cwe::Toctou), "{findings:?}");
    }

    #[test]
    fn truncation_is_proven_by_width_domain() {
        let engine = SemanticEngine::new();
        let findings = engine
            .scan_source(
                "void f() { int b = 40; int scaled = b * 8; char flag = scaled; \
                 record_metric(\"flag\", flag); }",
            )
            .unwrap();
        let f = findings.iter().find(|f| f.cwe == Cwe::IntegerTruncation).expect("197 found");
        assert_eq!(f.confidence, Confidence::High);
        assert_eq!(f.detector, "absint-width");
        let ev = f.evidence.as_ref().expect("evidence attached");
        assert_eq!(ev.domain, "width");
        assert!(ev.claim.contains("[-128, 127]"), "claim names the window: {}", ev.claim);
        // Clamping before the store proves the value fits: no finding.
        let findings = engine
            .scan_source(
                "void f() { int b = 40; int scaled = b * 8; \
                 if (scaled > 127) { scaled = 127; } char flag = scaled; \
                 record_metric(\"flag\", flag); }",
            )
            .unwrap();
        assert!(findings.iter().all(|f| f.cwe != Cwe::IntegerTruncation), "{findings:?}");
        // A merely-possible truncation is not reported (must, not may).
        let findings =
            engine.scan_source("void f(int n) { char c = n; record_metric(\"c\", c); }").unwrap();
        assert!(findings.iter().all(|f| f.cwe != Cwe::IntegerTruncation), "{findings:?}");
    }

    #[test]
    fn kind_mismatched_sanitizers_are_proven_by_provenance() {
        let engine = SemanticEngine::new();
        // SQL-escaping a shell command leaves the command bit unsanitized.
        let findings = engine
            .scan_source(
                "void f() { char* cmd = read_input(); char* c = escape_sql(cmd); \
                 exec_shell(c); }",
            )
            .unwrap();
        let f = findings.iter().find(|f| f.cwe == Cwe::CommandInjection).expect("78 found");
        assert_eq!(f.confidence, Confidence::High, "kind mismatch is a must");
        assert_eq!(f.detector, "absint-provenance");
        let ev = f.evidence.as_ref().expect("evidence attached");
        assert_eq!(ev.domain, "provenance");
        assert!(ev.claim.contains("command"), "claim names the missing kind: {}", ev.claim);
        // Same shape at the format sink.
        let findings = engine
            .scan_source(
                "void f() { char* m = getenv(\"APP_MSG\"); char* s = escape_html(m); \
                 printf_fmt(s); }",
            )
            .unwrap();
        assert!(
            findings.iter().any(|f| f.cwe == Cwe::FormatString && f.confidence == Confidence::High),
            "html-escaped format string: {findings:?}"
        );
        // The matching sanitizer discharges the proof.
        let findings = engine
            .scan_source(
                "void f() { char* cmd = read_input(); char* c = escape_shell(cmd); \
                 exec_shell(c); }",
            )
            .unwrap();
        assert!(findings.iter().all(|f| f.cwe != Cwe::CommandInjection), "{findings:?}");
        // Clean-on-one-path merges to maybe-external: reported at Medium.
        let findings = engine
            .scan_source(
                "void f(int flag) { char* x = \"status\"; \
                 if (flag > 0) { x = read_input(); } exec_shell(x); }",
            )
            .unwrap();
        let f = findings.iter().find(|f| f.cwe == Cwe::CommandInjection).expect("78 found");
        assert_eq!(f.confidence, Confidence::Medium, "maybe-external is a merge, not a must");
    }

    #[test]
    fn cached_scan_is_identical_and_warm() {
        let engine = SemanticEngine::new();
        let src = "void f() { int a[4]; int i = 9; a[i] = 1; consume_table(a, 4); }";
        let (key, program) = (AnalysisCache::content_key(src), parse(src).unwrap());
        let cache = AnalysisCache::new();
        let scan = |cache: &AnalysisCache| {
            engine.findings_cached(key, src, &program, cache, &Registry::noop())
        };
        let cold = scan(&cache);
        let solved = cache.stage_stats(Stage::Summary);
        let warm = scan(&cache);
        assert!(Arc::ptr_eq(&cold, &warm), "a repeat is the stored entry");
        assert_eq!(cache.stage_stats(Stage::Summary), solved, "a repeat reads no stage");
        assert_eq!(*cold, engine.scan_source(src).unwrap());
        assert_eq!(*scan(&AnalysisCache::disabled()), *cold, "the batch path agrees");
        assert!(!cold.is_empty());
        // Different solver configs must not share cache entries.
        let other = SemanticEngine::with_config(SolverConfig {
            widening_threshold: 2,
            max_iterations: 10_000,
        });
        assert_ne!(engine.fingerprint(), other.fingerprint());
    }

    #[test]
    fn absint_instruments_are_schema_stable() {
        let metrics = Registry::new();
        register_absint_instruments(&metrics);
        let engine = SemanticEngine::new();
        let src = "void f() { int x; record_metric(\"x\", x); }";
        let program = parse(src).unwrap();
        let key = AnalysisCache::content_key(src);
        let findings = engine.findings_cached(key, src, &program, &AnalysisCache::new(), &metrics);
        assert_eq!(findings.len(), 1);
        let json = serde_json::to_string(&metrics.snapshot()).unwrap();
        for key in [
            "absint.solver.iterations",
            "absint.solver.widenings",
            "absint.solver.nonconverged",
            "absint.findings",
            "absint.domain.interval_micros",
            "absint.domain.nullness_micros",
            "absint.domain.init_micros",
            "absint.domain.ownership_micros",
            "absint.domain.width_micros",
            "absint.domain.provenance_micros",
        ] {
            assert!(json.contains(key), "{key} must be pre-registered");
        }
        assert!(metrics.counter("absint.solver.iterations").get() > 0);
        assert_eq!(metrics.counter("absint.findings").get(), 1);
    }
}
