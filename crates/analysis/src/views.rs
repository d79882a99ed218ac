//! One cross-examination record per unit: the CWE classes each detection
//! technique reports on it. The [audit](crate::audit) reduces a corpus of
//! [`UnitViews`] to its CWE × family matrix and the [oracle](crate::oracle)
//! to its disagreement taxonomy. The rule and semantic findings behind a
//! record live under the cache entries the workflow and the server fill.

use crate::checkers::SemanticEngine;
use crate::detectors::{RuleEngine, StaticDetector};
use crate::dynamic::DynamicSanitizer;
use std::collections::BTreeSet;
use vulnman_lang::ast::Program;
use vulnman_lang::AnalysisCache;
use vulnman_obs::Registry;
use vulnman_synth::cwe::Cwe;

/// Name the default suite's dataflow detector stamps on its findings.
const TAINT_FLOW: &str = "taint-flow";

/// Every view's verdict on one unit, as CWE sets.
#[derive(Debug, Default, PartialEq, Eq)]
pub(crate) struct UnitViews {
    /// Set when the unit does not parse; every view is then empty.
    pub(crate) parse_error: Option<String>,
    /// Classes the default suite's syntactic detectors flag
    /// ([`RuleEngine::syntactic_suite`]).
    pub(crate) rules: BTreeSet<Cwe>,
    /// Classes the default suite's `taint-flow` detector flags.
    pub(crate) taint_flow: BTreeSet<Cwe>,
    /// Classes whose faults the sanitizer-instrumented interpreter observed.
    pub(crate) dynamic: BTreeSet<Cwe>,
    /// Classes the abstract-interpretation checkers prove.
    pub(crate) semantic: BTreeSet<Cwe>,
}

impl UnitViews {
    /// The record of a unit that does not parse: the error, no verdicts.
    pub(crate) fn unparsed(error: &vulnman_lang::ParseError) -> UnitViews {
        UnitViews { parse_error: Some(error.to_string()), ..UnitViews::default() }
    }

    /// Classes the whole default rule suite flags: the syntactic detectors
    /// and the taint-flow detector together.
    pub(crate) fn rule_suite(&self) -> BTreeSet<Cwe> {
        self.rules.union(&self.taint_flow).copied().collect()
    }
}

/// Builds [`UnitViews`]: the default rule suite, the dynamic sanitizer and
/// the semantic checkers, shared by every worker (each is `Sync`).
#[derive(Debug)]
pub(crate) struct UnitViewsBuilder {
    rules: RuleEngine,
    dynamic: DynamicSanitizer,
    semantics: SemanticEngine,
}

impl UnitViewsBuilder {
    /// The default suite, sanitizer and semantic checkers.
    pub(crate) fn new() -> Self {
        UnitViewsBuilder {
            rules: RuleEngine::default_suite(),
            dynamic: DynamicSanitizer::new(),
            semantics: SemanticEngine::new(),
        }
    }

    /// The semantic checkers, whose advertised classes bound what a
    /// semantic miss can mean.
    pub(crate) fn semantics(&self) -> &SemanticEngine {
        &self.semantics
    }

    /// Parses `source` through `cache` under `content_key` and builds its
    /// views. An unparseable unit records the error and no verdicts.
    pub(crate) fn build(&self, content_key: u64, source: &str, cache: &AnalysisCache) -> UnitViews {
        match cache.parse_keyed(content_key, source) {
            Ok(program) => self.build_parsed(content_key, source, &program, cache),
            Err(e) => UnitViews::unparsed(&e),
        }
    }

    /// [`UnitViewsBuilder::build`] over an already-parsed unit, for callers
    /// that run further views on the same tree. `program` is the parse of
    /// `source`.
    pub(crate) fn build_parsed(
        &self,
        content_key: u64,
        source: &str,
        program: &Program,
        cache: &AnalysisCache,
    ) -> UnitViews {
        let mut views = UnitViews::default();
        for f in self.rules.findings_cached(content_key, program, cache).iter() {
            let set =
                if f.detector == TAINT_FLOW { &mut views.taint_flow } else { &mut views.rules };
            set.insert(f.cwe);
        }
        let dynamic = cache.analysis_keyed(content_key, "dynamic-cwes", 0, || {
            self.dynamic.scan(program).iter().map(|f| f.cwe).collect::<BTreeSet<Cwe>>()
        });
        views.dynamic = (*dynamic).clone();
        views.semantic = self
            .semantics
            .findings_cached(content_key, source, program, cache, &Registry::noop())
            .iter()
            .map(|f| f.cwe)
            .collect();
        views
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detectors::TaintDetector;

    const SQLI: &str = r#"void f() { char* id = http_param("id"); exec_query(id); }"#;
    const DIV: &str = "int f() { int z = 0; return 10 / z; }";

    #[test]
    fn views_split_the_default_suite_and_match_each_engine() {
        let builder = UnitViewsBuilder::new();
        for src in [SQLI, DIV, "int add(int a, int b) { return a + b; }"] {
            let cache = AnalysisCache::new();
            let views = builder.build(AnalysisCache::content_key(src), src, &cache);
            let program = vulnman_lang::parse(src).unwrap();
            let cwes = |fs: Vec<crate::Finding>| fs.iter().map(|f| f.cwe).collect::<BTreeSet<_>>();
            assert_eq!(views.parse_error, None);
            assert_eq!(views.rules, cwes(RuleEngine::syntactic_suite().scan(&program)));
            assert_eq!(views.taint_flow, cwes(TaintDetector::default_config().scan(&program)));
            assert_eq!(views.dynamic, cwes(DynamicSanitizer::new().scan(&program)));
            assert_eq!(views.semantic, cwes(SemanticEngine::new().scan(&program)));
            assert_eq!(views.rule_suite(), cwes(RuleEngine::default_suite().scan(&program)));
        }
    }

    #[test]
    fn views_are_identical_cold_warm_and_uncached() {
        let builder = UnitViewsBuilder::new();
        let key = AnalysisCache::content_key(SQLI);
        let cache = AnalysisCache::new();
        let cold = builder.build(key, SQLI, &cache);
        let misses = cache.stats().misses;
        assert_eq!(builder.build(key, SQLI, &cache), cold);
        assert_eq!(cache.stats().misses, misses, "a warm build is lookups only");
        assert_eq!(builder.build(key, SQLI, &AnalysisCache::disabled()), cold);
        assert!(cold.taint_flow.contains(&Cwe::SqlInjection), "{cold:?}");
    }

    #[test]
    fn unparseable_unit_records_the_error_and_no_verdicts() {
        let views = UnitViewsBuilder::new().build(1, "int f( {", &AnalysisCache::disabled());
        assert!(views.parse_error.is_some());
        assert_eq!(
            views,
            UnitViews { parse_error: views.parse_error.clone(), ..Default::default() }
        );
    }
}
