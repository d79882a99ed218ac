//! Per-function incremental recompute for the abstract-interpretation
//! pipeline: the fingerprints and stage keys behind the incremental mode of
//! the absint driver ([`Substrate::run`]).
//!
//! A long-running service sees the *same* program resubmitted with one
//! function edited, over and over — re-running the whole fixpoint is almost
//! entirely wasted work. A substrate built with
//! [`Substrate::incremental_from_source`] keys each pipeline stage by a
//! hash of exactly the inputs that determine its output, so a resubmission
//! re-runs only the stages whose input hashes changed:
//!
//! * **CFG** ([`Stage::Cfg`]) — keyed per function by the function's
//!   [source fingerprint](fingerprint_function_source): a hash of its
//!   source slice *and its absolute position*. Two functions share an
//!   entry only when their ASTs — locations included — are identical,
//!   which is what makes reusing span-bearing results sound. The entry is
//!   the function's whole [`FnShape`] (CFG, RPO ranks, reachable mask,
//!   slot table), looked up at most once per request and only for
//!   functions some pass solves.
//! * **Summary** ([`Stage::Summary`]) and **findings**
//!   ([`Stage::Findings`]) — keyed per call-graph strongly connected
//!   component by the pass tag, the fingerprints of every member, and the
//!   *summary values* of every defined external callee. Keying by callee
//!   summary values (not callee fingerprints) is the dependency tracker: if
//!   an edited callee happens to produce the same summary, its callers'
//!   keys are unchanged and their fixpoints are skipped — early cutoff,
//!   exactly like a build system keyed on content rather than timestamps.
//!
//! Whole units are parsed through [`AnalysisCache::parse_keyed`], and the
//! semantic suite's whole-unit findings entry sits on top of the stages: a
//! repeat of a unit is one lookup there, and only a miss walks the stages.
//! This module handles everything from the CFG down.
//!
//! ## Equivalence argument
//!
//! Batch and incremental runs go through the same driver walk: components
//! in bottom-up topological order, cycle members feeding each other through
//! a local overlay table in post-order, and payloads delivered in the exact
//! post-order. A function's solved fixpoint depends only on its own AST and
//! the summaries of its defined callees (domains consult summaries
//! exclusively at call sites), which is precisely what the stage keys hash
//! — so a stage hit returns byte-identical values to the recompute it
//! skipped, and [`SolverStats`](crate::absint::SolverStats) fold
//! commutatively, so the aggregate statistics match a batch run too.
//!
//! [`Substrate::run`]: crate::absint::Substrate::run
//! [`Substrate::incremental_from_source`]: crate::absint::Substrate::incremental_from_source
//! [`FnShape`]: crate::absint::FnShape
//! [`AnalysisCache::parse_keyed`]: crate::cache::AnalysisCache::parse_keyed
//! [`Stage::Cfg`]: crate::cache::Stage::Cfg
//! [`Stage::Summary`]: crate::cache::Stage::Summary
//! [`Stage::Findings`]: crate::cache::Stage::Findings

use crate::ast::Function;
use crate::intern::Fnv64;
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::hash::Hasher;

/// splitmix64 finalizer, used to separate the per-stage key spaces derived
/// from one base hash.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// Content fingerprint of one function: FNV-1a over the AST's `Debug`
/// rendering, which includes every identifier, literal, type, doc comment,
/// and source span. Two functions with equal fingerprints have structurally
/// identical ASTs at identical source locations, so every per-function
/// analysis result — spans and line numbers included — is interchangeable
/// between them. The rendering streams into the hash unallocated.
pub fn fingerprint_function(func: &Function) -> u64 {
    let mut h = Fnv64::default();
    let _ = write!(h, "{func:?}");
    h.finish()
}

/// Content fingerprint of one function computed from its raw source slice
/// plus its absolute position (`start`, `line`, `col`). The parser is
/// deterministic, so two functions with equal slices at equal positions
/// have identical ASTs — every inner span is derived from the function's
/// start position plus offsets within the slice. The one exception is the
/// attached doc comment, which lives *above* the span; doc text flows into
/// no CFG, summary, or finding, so artifacts keyed by this fingerprint are
/// still interchangeable. Equivalent to [`fingerprint_function`] as a
/// validity criterion, at a fraction of the cost (no `Debug` rendering).
pub fn fingerprint_function_source(source: &str, func: &Function) -> u64 {
    let span = func.span;
    let Some(slice) = source.as_bytes().get(span.start..span.end) else {
        // The span does not address `source`; the caller paired a program
        // with the wrong text. Fall back to the AST fingerprint, which is
        // always sound.
        return fingerprint_function(func);
    };
    let mut h = Fnv64::default();
    for pos in [span.start as u64, span.line as u64, span.col as u64] {
        h.write(&pos.to_le_bytes());
    }
    h.write(slice);
    h.finish()
}

/// Which functions an incremental pass actually re-solved, and which it
/// served from the stage cache. This is the evidence the equivalence suite
/// uses to prove untouched functions were not re-analyzed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IncrementalTrace {
    /// Functions whose fixpoint ran during this call, in delivery order.
    pub solved: Vec<String>,
    /// Functions served entirely from cached summaries + findings.
    pub reused: Vec<String>,
}

impl IncrementalTrace {
    /// Folds another pass's trace in: a function counts as solved if *any*
    /// pass solved it, and reused only if every pass reused it.
    pub fn merge(&mut self, other: &IncrementalTrace) {
        let solved: BTreeSet<String> = self.solved.iter().chain(&other.solved).cloned().collect();
        self.reused.retain(|n| !solved.contains(n));
        for n in &other.reused {
            if !solved.contains(n) && !self.reused.contains(n) {
                self.reused.push(n.clone());
            }
        }
        for n in &other.solved {
            if !self.solved.contains(n) {
                self.solved.push(n.clone());
            }
        }
    }
}

/// The summary- and findings-stage keys of one call-graph component: the
/// pass tag, the member fingerprints in solve order, then each defined
/// external callee's name and the `Debug` rendering of its summary value,
/// in name order. Hashing the summary value gives early cutoff: an edited
/// callee whose summary lands on the same value leaves every caller key
/// unchanged.
pub(crate) fn component_keys<'a, V: std::fmt::Debug + 'a>(
    pass_tag: u64,
    member_fps: impl Iterator<Item = u64>,
    externals: impl Iterator<Item = (&'a str, &'a V)>,
) -> (u64, u64) {
    let mut h = mix64(pass_tag);
    for fp in member_fps {
        h = mix64(h ^ fp);
    }
    for (callee, summary) in externals {
        let mut w = Fnv64::default();
        let _ = write!(w, "{summary:?}");
        h = mix64(h ^ Fnv64::of(callee.as_bytes()));
        h = mix64(h ^ w.finish());
    }
    (mix64(h ^ 0x5e55), mix64(h ^ 0xf1fd))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    #[test]
    fn fingerprint_values_are_pinned() {
        // Fingerprints key the per-function stage cache.
        let src = "int f(int x) { return x + 1; }";
        let program = parse(src).unwrap();
        let f = &program.functions[0];
        assert_eq!(fingerprint_function(f), 0xe59f3b44d1d360f0);
        assert_eq!(fingerprint_function_source(src, f), 0x892ae1a25cc9c08b);
        assert_eq!(
            component_keys::<u64>(7, [1u64, 2].into_iter(), [("g", &3u64)].into_iter()),
            (0xdd909e87538552ad, 0x2531ab30acc9de5e)
        );
    }

    #[test]
    fn fingerprints_cover_spans() {
        // Same text at a different location must not share a fingerprint:
        // findings carry absolute spans.
        let a = parse("int f() { return 1; }").unwrap();
        let b = parse("\n\nint f() { return 1; }").unwrap();
        assert_ne!(fingerprint_function(&a.functions[0]), fingerprint_function(&b.functions[0]));
    }

    #[test]
    fn trace_merge_prefers_solved() {
        let mut a =
            IncrementalTrace { solved: vec!["f".into()], reused: vec!["g".into(), "h".into()] };
        let b = IncrementalTrace { solved: vec!["g".into()], reused: vec!["f".into(), "h".into()] };
        a.merge(&b);
        assert_eq!(a.solved, vec!["f".to_string(), "g".to_string()]);
        assert_eq!(a.reused, vec!["h".to_string()]);
    }
}
