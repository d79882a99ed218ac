//! The request executor shared by every worker thread: rule engine,
//! semantic engine, and differential oracle over one shared, bounded
//! [`AnalysisCache`] (whole-unit entries over the per-stage incremental
//! tables), plus the deterministic fault walk at [`Site::ServeRequest`].
//!
//! Responses are intentionally free of timing, trace, or cache-state data:
//! two servers given the same request must produce byte-identical response
//! bodies regardless of worker count, request interleaving, or cache
//! warmth. That is what lets the stress suite compare concurrent runs
//! against single-threaded goldens.

use crate::protocol::{BlastEntry, GraphStats, Request, Response};
use std::collections::VecDeque;
use std::sync::{Mutex, OnceLock};
use vulnman_analysis::corpusgraph::register_graph_instruments;
use vulnman_analysis::{
    dedupe_findings, register_audit_instruments, AuditConfig, AuditEngine, AuditReport,
    CorpusGraph, DifferentialOracle, LinkUnit, OracleConfig, RuleEngine, SemanticEngine, UnitLinks,
};
use vulnman_core::DegradationSummary;
use vulnman_faults::{site_key, FaultConfig, FaultKind, FaultPlan, Site};
use vulnman_lang::clone::{CloneConfig, CloneIndex};
use vulnman_lang::intern::Fnv64;
use vulnman_lang::AnalysisCache;
use vulnman_obs::Registry;
use vulnman_synth::{Cwe, Sample, Tier};

/// A request's fault-plan coordinate: its id and the hash of its kind.
fn fault_key(id: u64, kind: &str) -> u64 {
    site_key(id, Fnv64::of(kind.as_bytes()))
}

/// Unit bound on the service's [`AnalysisCache`] (the parse table holds
/// this many entries; the whole-unit analysis and per-function stage
/// tables scale by the cache's fanout factors). A long-running
/// server sees an unbounded stream of distinct unit versions; retaining
/// every historical parse and stage artifact grows the heap without limit,
/// and past a few hundred megabytes that growth measurably taxes every
/// allocation the analysis makes. Epoch eviction at this bound keeps the
/// working set resident (one flush forces at most one cold analysis per
/// live unit) while holding memory — and allocator pressure — flat. The
/// flush volume is visible on the `cache.evictions` counter. Eviction never
/// changes a response, only whether a computation is repeated.
pub const SERVE_CACHE_ENTRY_LIMIT: usize = 512;

/// Blast-radius leaders included in a `graph` response.
const GRAPH_TOP_BLAST: usize = 5;

/// Scan fan-out for the server's audit matrix. The matrix is
/// byte-identical at any jobs count (verified by the audit engine's own
/// tests), so this only trades latency on the first `audit` request.
const AUDIT_JOBS: usize = 4;

/// Shared, thread-safe request executor.
pub struct ServiceCore {
    rules: RuleEngine,
    semantics: SemanticEngine,
    oracle: DifferentialOracle,
    cache: AnalysisCache,
    clone_index: Mutex<CloneIndex>,
    graph_units: Mutex<VecDeque<(u64, UnitLinks)>>,
    audit_report: OnceLock<AuditReport>,
    metrics: Registry,
    plan: FaultPlan,
    max_retries: u32,
}

impl ServiceCore {
    /// Builds the executor: full rule suite, semantic engine, and oracle
    /// over one metrics-wired cache (bounded to
    /// [`SERVE_CACHE_ENTRY_LIMIT`] units) that every request kind shares,
    /// plus the fault plan from `fault`.
    pub fn new(metrics: &Registry, fault: &FaultConfig) -> Self {
        register_graph_instruments(metrics);
        register_audit_instruments(metrics);
        ServiceCore {
            rules: RuleEngine::default_suite(),
            semantics: SemanticEngine::new(),
            oracle: DifferentialOracle::with_metrics(OracleConfig::default(), metrics),
            cache: AnalysisCache::with_metrics(metrics).with_entry_limit(SERVE_CACHE_ENTRY_LIMIT),
            clone_index: Mutex::new(
                CloneIndex::new(CloneConfig::default()).with_entry_limit(SERVE_CACHE_ENTRY_LIMIT),
            ),
            graph_units: Mutex::new(VecDeque::new()),
            audit_report: OnceLock::new(),
            metrics: metrics.clone(),
            plan: FaultPlan::new(fault),
            max_retries: fault.max_retries,
        }
    }

    /// The shared per-stage cache (exposed so tests can inspect stage
    /// counters after a request mix).
    pub fn cache(&self) -> &AnalysisCache {
        &self.cache
    }

    /// Whether the fault plan degrades request `id` of `kind` — a pure
    /// function of the request coordinates, so the answer is identical for
    /// any worker count (used by tests to precompute expected statuses).
    pub fn degrades(&self, id: u64, kind: &str) -> bool {
        self.plan.exhausts(Site::ServeRequest, fault_key(id, kind), self.max_retries)
    }

    /// Handles one admitted request: fault walk first, then the operation.
    /// All degradation accounting lands in `ledger`.
    pub fn handle(&self, req: &Request, ledger: &Mutex<DegradationSummary>) -> Response {
        if self.fault_walk(req, ledger) {
            return Response::degraded(req.id);
        }
        match req.kind.as_str() {
            "analyze" => self.findings(req, true),
            "lint" => self.findings(req, false),
            "oracle" => self.oracle(req),
            "clones" => self.clones(req),
            "graph" => self.graph(req),
            "audit" => self.audit(req),
            other => Response::error(req.id, format!("unknown kind {other:?}")),
        }
    }

    /// Walks the retry loop of the fault plan at [`Site::ServeRequest`],
    /// keyed by `(request id, kind)`. Returns `true` when the request must
    /// degrade (crash, or every attempt faulted). Mirrors
    /// [`FaultPlan::exhausts`] so [`ServiceCore::degrades`] predicts the
    /// outcome exactly.
    fn fault_walk(&self, req: &Request, ledger: &Mutex<DegradationSummary>) -> bool {
        if self.plan.rate() <= 0.0 {
            return false;
        }
        let key = fault_key(req.id, &req.kind);
        let mut led = ledger.lock().unwrap_or_else(|e| e.into_inner());
        for attempt in 0..=self.max_retries {
            match self.plan.decide(Site::ServeRequest, key, attempt) {
                None => {
                    if attempt > 0 {
                        led.recovered += 1;
                    }
                    return false;
                }
                Some(kind) => {
                    match kind {
                        FaultKind::Transient => led.transient += 1,
                        FaultKind::Timeout => led.timeout += 1,
                        FaultKind::Corrupt => led.corrupt += 1,
                        FaultKind::Crash => led.crash += 1,
                    }
                    if kind == FaultKind::Crash {
                        led.assessments_lost += 1;
                        return true;
                    }
                    if attempt < self.max_retries {
                        led.retries += 1;
                    }
                }
            }
        }
        led.exhausted += 1;
        led.assessments_lost += 1;
        true
    }

    /// `analyze` (`rules` set) and `lint`: the request's source is hashed
    /// and parsed once through the shared cache, and its semantic findings
    /// are read from [`SemanticEngine::findings_cached`], the entry the
    /// oracle reads too (a repeat is one lookup, an edit re-solves only
    /// what it touched). `analyze` puts the rule suite's findings first;
    /// family double-reports — a rule match and a semantic proof of the
    /// same defect at the same span — collapse to the evidence-bearing
    /// finding via [`vulnman_analysis::dedupe_findings`].
    fn findings(&self, req: &Request, rules: bool) -> Response {
        let key = AnalysisCache::content_key(&req.source);
        let program = match self.cache.parse_keyed(key, &req.source) {
            Ok(program) => program,
            Err(e) => return Response::error(req.id, format!("parse error: {e}")),
        };
        let mut findings = if rules {
            (*self.rules.findings_cached(key, &program, &self.cache)).clone()
        } else {
            Vec::new()
        };
        let noop = Registry::noop();
        let semantic =
            self.semantics.findings_cached(key, &req.source, &program, &self.cache, &noop);
        findings.extend(semantic.iter().cloned());
        Response::ok_findings(req.id, if rules { dedupe_findings(findings) } else { findings })
    }

    /// Differential-oracle classification of the submitted sample, through
    /// the shared cache: a source `analyze` already scanned costs the
    /// oracle only its dynamic and taint views.
    fn oracle(&self, req: &Request) -> Response {
        let cwe = match &req.cwe {
            None => None,
            Some(name) => match serde_json::from_str::<Cwe>(&format!("{name:?}")) {
                Ok(c) => Some(c),
                Err(_) => return Response::error(req.id, format!("unknown cwe {name:?}")),
            },
        };
        let label = req.label.unwrap_or(false);
        let sample = Sample {
            id: req.id,
            source: req.source.clone(),
            label,
            observed_label: label,
            cwe,
            target_fn: String::new(),
            team: "serve".into(),
            project: "serve".into(),
            tier: Tier::Curated,
            duplicate_of: None,
            artifacts: Default::default(),
        };
        Response::ok_disagreements(req.id, self.oracle.classify_sample(&sample, &self.cache))
    }

    /// Registers `source` in the shared clone index and returns the ids of
    /// previously registered sources that are verified near-clones.
    ///
    /// Query-before-insert: the response covers everything registered before
    /// this request, so for a fixed registration order it is deterministic.
    /// Like the analysis cache, the index is bounded (epoch eviction at
    /// [`SERVE_CACHE_ENTRY_LIMIT`] entries), so a long-lived server holds
    /// memory flat; a flush only forgets *old* registrations, it never
    /// corrupts a response.
    fn clones(&self, req: &Request) -> Response {
        let mut index = self.clone_index.lock().unwrap_or_else(|e| e.into_inner());
        let mut matches = match index.query(&req.source) {
            Ok(ids) => ids,
            Err(e) => return Response::error(req.id, format!("parse error: {e}")),
        };
        matches.sort_unstable();
        if index.insert(req.id, &req.source).is_err() {
            unreachable!("query already lexed the source");
        }
        Response::ok_clones(req.id, matches)
    }

    /// Folds `source` into the server's shared corpus graph (all serve
    /// units form one linkage domain, so calls resolve across requests) and
    /// returns the graph's post-fold statistics: size counters, the
    /// submitted unit's functions, and the corpus-wide blast-radius
    /// leaders.
    ///
    /// The submitted unit is parsed once, through the shared cache, and the
    /// store keeps only its [`UnitLinks`]; each request relinks the stored
    /// summaries, so stored units are never reparsed and never touch the
    /// cache again. Like the clone index, the store is bounded (FIFO
    /// eviction at [`SERVE_CACHE_ENTRY_LIMIT`] units) so a long-lived
    /// server holds memory flat. The store lock is held across the relink,
    /// so for a fixed registration order the response is deterministic
    /// regardless of worker count; a unit that fails to parse is rejected
    /// without being registered.
    fn graph(&self, req: &Request) -> Response {
        let links = match self.cache.parse(&req.source) {
            Ok(program) => UnitLinks::of(&program),
            Err(e) => return Response::error(req.id, format!("parse error: {e}")),
        };
        let mut store = self.graph_units.lock().unwrap_or_else(|e| e.into_inner());
        let units: Vec<LinkUnit<'_>> = store
            .iter()
            .map(|(id, links)| LinkUnit { id: *id, project: "serve", links })
            .chain([LinkUnit { id: req.id, project: "serve", links: &links }])
            .collect();
        let graph = CorpusGraph::link(&units, 1, &self.metrics);
        store.push_back((req.id, links));
        if store.len() > SERVE_CACHE_ENTRY_LIMIT {
            store.pop_front();
        }
        drop(store);

        let unit_functions =
            graph.nodes().iter().filter(|n| n.unit == req.id).map(|n| n.name.to_string()).collect();
        let top_blast = graph
            .blast_ranked()
            .into_iter()
            .take(GRAPH_TOP_BLAST)
            .map(|(function, blast)| BlastEntry { function, blast })
            .collect();
        Response::ok_graph(
            req.id,
            GraphStats {
                nodes: graph.nodes().len(),
                edges: graph.edge_count(),
                cross_unit_edges: graph.cross_unit_edge_count(),
                unit_functions,
                top_blast,
            },
        )
    }

    /// The detector coverage × precision matrix over the default audit
    /// corpus, with the tool-augmented ML model as the fifth column.
    ///
    /// The report is a pure function of [`AuditConfig::default`], so it is
    /// computed once (first request pays corpus generation, scanning, and
    /// ML training) and served from the cache afterwards — every audit
    /// response body is byte-identical regardless of worker count or
    /// request order.
    fn audit(&self, req: &Request) -> Response {
        let report = self.audit_report.get_or_init(|| {
            let config = AuditConfig { jobs: AUDIT_JOBS, ..AuditConfig::default() };
            AuditEngine::new(config)
                .with_ml(vulnman_core::audit_ml_verdict(config.seed))
                .run_with_metrics(&self.metrics)
        });
        Response::ok_audit(req.id, report.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use vulnman_lang::Stage;

    #[test]
    fn fault_key_hash_is_pinned() {
        // The request kind's hash is a fault-plan coordinate: a drift would
        // move every seeded serve fault.
        assert_eq!(fault_key(3, "analyze"), site_key(3, 0xc175dd4a02cce6d3));
    }

    fn core(rate: f64) -> ServiceCore {
        ServiceCore::new(&Registry::new(), &FaultConfig::with_rate(7, rate))
    }

    fn req(id: u64, kind: &str, source: &str) -> Request {
        Request { id, kind: kind.into(), source: source.into(), label: None, cwe: None }
    }

    const VULN: &str = r#"void f() { char* id = http_param("id"); exec_query(id); }"#;

    #[test]
    fn analyze_merges_rule_and_semantic_findings() {
        let core = core(0.0);
        let ledger = Mutex::new(DegradationSummary::default());
        let resp = core.handle(&req(1, "analyze", VULN), &ledger);
        assert_eq!(resp.status, "ok");
        assert!(!resp.findings.as_ref().unwrap().is_empty());
        // Deterministic across cache states: a warm repeat is identical.
        let again = core.handle(&req(1, "analyze", VULN), &ledger);
        assert_eq!(resp, again);
    }

    #[test]
    fn lint_reports_semantic_findings_only() {
        let core = core(0.0);
        let ledger = Mutex::new(DegradationSummary::default());
        let clean = core.handle(&req(2, "lint", VULN), &ledger);
        assert_eq!(clean.status, "ok");
        let div = core.handle(&req(3, "lint", "int f() { int z = 0; return 10 / z; }"), &ledger);
        assert!(!div.findings.as_ref().unwrap().is_empty(), "divide-by-zero is semantic");
    }

    #[test]
    fn parse_errors_are_structured_not_panics() {
        let core = core(0.0);
        let ledger = Mutex::new(DegradationSummary::default());
        let resp = core.handle(&req(4, "analyze", "int f( {"), &ledger);
        assert_eq!(resp.status, "error");
        assert!(resp.error.unwrap().contains("parse error"));
    }

    #[test]
    fn unlexable_sources_fail_with_the_lexer_error_cold_and_warm() {
        let core = core(0.0);
        let ledger = Mutex::new(DegradationSummary::default());
        for (src, want) in [
            ("int f() { return 1 @ 2; }", "parse error at 1:20: unexpected character `@`"),
            ("int f() { char* s = \"abc; }", "parse error at 1:21: unterminated string literal"),
            ("int f() { /* open", "parse error at 1:11: unterminated block comment"),
        ] {
            // `lint` first, so its cold miss is the one that lexes.
            for kind in ["lint", "analyze", "lint"] {
                let resp = core.handle(&req(6, kind, src), &ledger);
                assert_eq!(resp.status, "error");
                assert_eq!(resp.error.as_deref(), Some(format!("parse error: {want}").as_str()));
            }
        }
    }

    #[test]
    fn oracle_classifies_and_rejects_unknown_cwe() {
        let core = core(0.0);
        let ledger = Mutex::new(DegradationSummary::default());
        let mut r = req(5, "oracle", VULN);
        r.label = Some(true);
        r.cwe = Some("SqlInjection".into());
        let resp = core.handle(&r, &ledger);
        assert_eq!(resp.status, "ok");
        assert!(resp.disagreements.is_some());
        r.cwe = Some("NotACwe".into());
        let resp = core.handle(&r, &ledger);
        assert_eq!(resp.status, "error");
    }

    #[test]
    fn oracle_requests_are_bounded_by_the_service_cache() {
        let metrics = Registry::new();
        let core = ServiceCore::new(&metrics, &FaultConfig::with_rate(7, 0.0));
        let ledger = Mutex::new(DegradationSummary::default());
        for id in 0..=SERVE_CACHE_ENTRY_LIMIT as u64 {
            let src = format!("int f{id}(int a) {{ return a + {id}; }}");
            assert_eq!(core.handle(&req(id, "oracle", &src), &ledger).status, "ok");
        }
        assert!(metrics.counter("cache.evictions").get() > 0, "oracle entries must be evicted");
    }

    /// Every `incr.*` counter of `metrics`.
    fn incr_counters(metrics: &Registry) -> Vec<(String, u64)> {
        let counters = metrics.snapshot().counters;
        counters.into_iter().filter(|(k, _)| k.starts_with("incr.")).collect()
    }

    #[test]
    fn oracle_after_analyze_reads_the_same_cache() {
        let metrics = Registry::new();
        let core = ServiceCore::new(&metrics, &FaultConfig::with_rate(7, 0.0));
        let ledger = Mutex::new(DegradationSummary::default());
        assert_eq!(core.handle(&req(1, "analyze", VULN), &ledger).status, "ok");
        let (before, stages) = (core.cache().stats(), incr_counters(&metrics));
        assert_eq!(core.handle(&req(2, "oracle", VULN), &ledger).status, "ok");
        let after = core.cache().stats();
        // The parse, the rule findings and the semantic findings `analyze`
        // stored are hits, so no stage is consulted; the oracle computes
        // its dynamic and taint views only.
        assert_eq!(after.hits - before.hits, 3, "before {before:?}, after {after:?}");
        assert_eq!(after.misses - before.misses, 2, "before {before:?}, after {after:?}");
        assert_eq!(incr_counters(&metrics), stages);
        let key = AnalysisCache::content_key(VULN);
        for kind in ["dynamic-cwes", "oracle-taint"] {
            core.cache().analysis_keyed(key, kind, 0, || -> BTreeSet<Cwe> {
                unreachable!("the oracle stored {kind}")
            });
        }
    }

    #[test]
    fn analyze_repeats_read_no_stage_and_edits_stay_incremental() {
        const BASE: &str = "int leaf(int a) { return a + 1; }\n\
                            int mid(int a) { return leaf(a) * 2; }\n\
                            int top(int a) { int z = 0; return mid(a) / z; }\n";
        // A same-length edit of `mid`: no span moves, `leaf` is untouched.
        let edited = BASE.replace("* 2", "* 3");
        let metrics = Registry::new();
        let core = ServiceCore::new(&metrics, &FaultConfig::with_rate(7, 0.0));
        let ledger = Mutex::new(DegradationSummary::default());
        let summary_misses = |cache: &AnalysisCache| cache.stage_stats(Stage::Summary).misses;

        assert_eq!(core.handle(&req(1, "analyze", BASE), &ledger).status, "ok");
        let warm = incr_counters(&metrics);
        assert_eq!(core.handle(&req(2, "analyze", BASE), &ledger).status, "ok");
        assert_eq!(incr_counters(&metrics), warm, "a repeated analyze is one lookup");

        let served = summary_misses(core.cache());
        assert_eq!(core.handle(&req(3, "analyze", &edited), &ledger).status, "ok");
        let served = summary_misses(core.cache()) - served;
        // The same edit through the stage path on a cache primed with the
        // base.
        let (engine, cache) = (SemanticEngine::new(), AnalysisCache::new());
        engine.scan_source_incremental(BASE, &cache).unwrap();
        let primed = summary_misses(&cache);
        let scan = engine.scan_source_incremental(&edited, &cache).unwrap();
        assert_eq!(served, summary_misses(&cache) - primed);
        assert!(served > 0);
        assert_eq!(scan.trace.solved, ["mid"], "only the edited function re-solves");
    }

    #[test]
    fn clones_requests_build_a_cross_request_clone_index() {
        let core = core(0.0);
        let ledger = Mutex::new(DegradationSummary::default());
        // First registration has no earlier near-clones.
        let first = core.handle(&req(10, "clones", VULN), &ledger);
        assert_eq!(first.status, "ok");
        assert_eq!(first.clones, Some(vec![]));
        // An alpha-renamed near-clone matches the earlier registration.
        let renamed = r#"void f() { char* uid = http_param("id"); exec_query(uid); }"#;
        let second = core.handle(&req(11, "clones", renamed), &ledger);
        assert_eq!(second.clones, Some(vec![10]));
        // An unrelated source matches nothing.
        let other =
            core.handle(&req(12, "clones", "int add(int a, int b) { return a + b; }"), &ledger);
        assert_eq!(other.clones, Some(vec![]));
        // A third clone sees both earlier members, in id order.
        let third = core.handle(&req(13, "clones", VULN), &ledger);
        assert_eq!(third.clones, Some(vec![10, 11]));
    }

    #[test]
    fn clones_request_rejects_unlexable_source() {
        let core = core(0.0);
        let ledger = Mutex::new(DegradationSummary::default());
        let resp = core.handle(&req(14, "clones", "int x = \x01;"), &ledger);
        assert_eq!(resp.status, "error");
        assert!(resp.error.unwrap().contains("parse error"));
    }

    #[test]
    fn graph_requests_link_units_across_requests() {
        let core = core(0.0);
        let ledger = Mutex::new(DegradationSummary::default());
        // First unit defines a helper; nothing to link against yet.
        let first = core.handle(&req(20, "graph", "void helper() {\n}\n"), &ledger);
        assert_eq!(first.status, "ok");
        let stats = first.graph.unwrap();
        assert_eq!(stats.nodes, 1);
        assert_eq!(stats.cross_unit_edges, 0);
        assert_eq!(stats.unit_functions, vec!["helper".to_string()]);
        // Second unit calls into the first: the shared graph gains a
        // cross-unit edge, and the helper leads the blast ranking.
        let second = core.handle(&req(21, "graph", "void entry() {\n    helper();\n}\n"), &ledger);
        let stats = second.graph.unwrap();
        assert_eq!(stats.nodes, 2);
        assert_eq!(stats.edges, 1);
        assert_eq!(stats.cross_unit_edges, 1);
        assert_eq!(stats.unit_functions, vec!["entry".to_string()]);
        assert!(!stats.top_blast.is_empty());
        assert!(stats.top_blast[0].blast > 0.0);
    }

    #[test]
    fn graph_request_rejects_unparseable_source_without_registering_it() {
        let core = core(0.0);
        let ledger = Mutex::new(DegradationSummary::default());
        let bad = core.handle(&req(30, "graph", "void broken( {"), &ledger);
        assert_eq!(bad.status, "error");
        assert!(bad.error.unwrap().contains("parse error"));
        // The rejected unit left no trace in the shared graph.
        let ok = core.handle(&req(31, "graph", "void f() {\n}\n"), &ledger);
        assert_eq!(ok.graph.unwrap().nodes, 1);
    }

    #[test]
    fn audit_requests_serve_one_cached_byte_identical_matrix() {
        let core = core(0.0);
        let ledger = Mutex::new(DegradationSummary::default());
        let first = core.handle(&req(40, "audit", ""), &ledger);
        assert_eq!(first.status, "ok");
        let report = first.audit.as_ref().unwrap();
        assert!(report.ml_model.is_some(), "serve wires the ML column");
        assert!(report.blind_classes().is_empty(), "no class is invisible to every family");
        // The matrix is computed once; repeats are byte-identical apart
        // from the echoed id.
        let second = core.handle(&req(40, "audit", "ignored"), &ledger);
        assert_eq!(first.encode(), second.encode());
    }

    #[test]
    fn fault_walk_matches_degrades_prediction_and_fills_ledger() {
        let core = core(0.35);
        let ledger = Mutex::new(DegradationSummary::default());
        let mut degraded = 0;
        for id in 0..200 {
            let resp = core.handle(&req(id, "lint", "void f() {\n}\n"), &ledger);
            let expect = core.degrades(id, "lint");
            assert_eq!(resp.status == "degraded", expect, "request {id}");
            if expect {
                degraded += 1;
            }
        }
        assert!(degraded > 0, "a 35% plan should degrade something in 200 requests");
        let led = ledger.lock().unwrap();
        assert_eq!(led.assessments_lost, degraded);
        assert!(led.transient + led.timeout + led.corrupt + led.crash > 0);
    }

    #[test]
    fn zero_rate_never_touches_the_ledger() {
        let core = core(0.0);
        let ledger = Mutex::new(DegradationSummary::default());
        for id in 0..50 {
            assert_eq!(core.handle(&req(id, "lint", "void f() {\n}\n"), &ledger).status, "ok");
        }
        assert_eq!(*ledger.lock().unwrap(), DegradationSummary::default());
    }
}
