//! Per-function incremental recompute for the abstract-interpretation
//! pipeline: the fingerprints and stage keys behind the incremental mode of
//! the absint driver ([`Substrate::run`]).
//!
//! A long-running service sees the *same* program resubmitted with one
//! function edited, over and over — re-running the whole fixpoint is almost
//! entirely wasted work. A substrate built with
//! [`Substrate::incremental`] keys each pipeline stage by a hash of exactly
//! the inputs that determine its output, so a resubmission re-runs only the
//! stages whose input hashes changed:
//!
//! * **CFG** ([`Stage::Cfg`]) — keyed per function by the function's
//!   [fingerprint](fingerprint_function): a hash of its full AST `Debug`
//!   rendering, which covers the name, parameters, types, body, doc
//!   comments, *and every source span*. Two functions share an entry only
//!   when their ASTs — locations included — are identical, which is what
//!   makes reusing span-bearing results sound. The entry is the function's
//!   whole [`FnShape`] (CFG, RPO ranks, reachable mask, slot table), looked
//!   up at most once per request and only for functions some pass solves.
//! * **Summary** ([`Stage::Summary`]) and **findings**
//!   ([`Stage::Findings`]) — keyed per call-graph strongly connected
//!   component by the pass tag, the fingerprints of every member, and the
//!   *summary values* of every defined external callee. Keying by callee
//!   summary values (not callee fingerprints) is the dependency tracker: if
//!   an edited callee happens to produce the same summary, its callers'
//!   keys are unchanged and their fixpoints are skipped — early cutoff,
//!   exactly like a build system keyed on content rather than timestamps.
//!
//! Lex and parse stage accounting for whole units lives on
//! [`AnalysisCache::parse_stage`] and [`Stage::Lex`]; this module handles
//! everything from the CFG down.
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
//! [`Substrate::incremental`]: crate::absint::Substrate::incremental
//! [`FnShape`]: crate::absint::FnShape
//! [`AnalysisCache::parse_stage`]: crate::cache::AnalysisCache::parse_stage
//! [`Stage::Cfg`]: crate::cache::Stage::Cfg
//! [`Stage::Summary`]: crate::cache::Stage::Summary
//! [`Stage::Findings`]: crate::cache::Stage::Findings
//! [`Stage::Lex`]: crate::cache::Stage::Lex

use crate::ast::Function;
use std::collections::BTreeSet;
use std::fmt::Write as _;

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

/// FNV-1a over a byte slice.
fn fnv(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
    }
    h
}

/// A [`std::fmt::Write`] sink that FNV-1a-hashes everything written to it.
/// Hashing `Debug` output as it streams produces the same value as
/// formatting into a `String` first, without the allocation — fingerprints
/// sit on the per-request hot path of the serving loop.
struct FnvWriter(u64);

impl std::fmt::Write for FnvWriter {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for &b in s.as_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(FNV_PRIME);
        }
        Ok(())
    }
}

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
/// between them.
pub fn fingerprint_function(func: &Function) -> u64 {
    let mut w = FnvWriter(FNV_OFFSET);
    let _ = write!(w, "{func:?}");
    w.0
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
    let mut h = FNV_OFFSET;
    for bytes in [
        &(span.start as u64).to_le_bytes()[..],
        &(span.line as u64).to_le_bytes()[..],
        &(span.col as u64).to_le_bytes()[..],
        slice,
    ] {
        for &b in bytes {
            h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
        }
    }
    h
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
        let mut w = FnvWriter(FNV_OFFSET);
        let _ = write!(w, "{summary:?}");
        h = mix64(h ^ fnv(callee.as_bytes()));
        h = mix64(h ^ w.0);
    }
    (mix64(h ^ 0x5e55), mix64(h ^ 0xf1fd))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

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
