//! Golden determinism tests for the corpus graph and blast-radius triage:
//! the whole-corpus call graph report — and the triage order it induces —
//! must be byte-identical regardless of worker count or cache
//! configuration.
//!
//! The blast-radius term feeds the remediation queue; if two runners
//! disagree on it, the same finding lands at two different queue positions
//! and analysts chase phantom re-prioritizations. These tests pin that
//! contract on a fixed-seed cross-file corpus end to end, through the same
//! path `vulnman graph` uses.

use vulnman::analysis::corpusgraph::{CorpusGraph, LinkUnit, UnitLinks};
use vulnman::analysis::detectors::RuleEngine;
use vulnman::analysis::severity::score;
use vulnman::core::customize::PolicySeverity;
use vulnman::core::triage::TriageQueue;
use vulnman::lang::AnalysisCache;
use vulnman::prelude::*;

/// Fixed-seed cross-file corpus: sibling units of each project bridge-call
/// into each other, so edge resolution, closures, and centrality all cross
/// unit boundaries.
fn corpus() -> Dataset {
    DatasetBuilder::new(20260808)
        .vulnerable_count(40)
        .vulnerable_fraction(0.3)
        .cross_file_links(true)
        .build()
}

fn build(ds: &Dataset, jobs: usize, cache: bool) -> CorpusGraph {
    let cache = if cache { AnalysisCache::new() } else { AnalysisCache::disabled() };
    CorpusGraph::from_samples(ds.samples(), &cache, jobs, &Registry::noop())
        .expect("generated corpus parses")
}

#[test]
fn graph_report_bytes_identical_across_jobs_and_cache() {
    let ds = corpus();
    let golden = serde_json::to_string(&build(&ds, 1, true).report()).expect("serializes");
    assert!(!golden.is_empty());
    for (jobs, cache) in [(1, false), (4, true), (4, false), (8, true)] {
        let json = serde_json::to_string(&build(&ds, jobs, cache).report()).expect("serializes");
        assert_eq!(
            json, golden,
            "CorpusGraphReport must be byte-identical at jobs={jobs} cache={cache}"
        );
    }
}

#[test]
fn report_bytes_identical_before_and_after_blast_ranking_at_any_jobs() {
    // Betweenness is computed on the first `report()`; neither an earlier
    // `blast_ranked()` nor the worker count may change the bytes.
    let ds = corpus();
    let golden = serde_json::to_string(&build(&ds, 1, false).report()).expect("serializes");
    for jobs in [1, 2, 4] {
        let graph = build(&ds, jobs, false);
        assert!(!graph.blast_ranked().is_empty());
        let after = serde_json::to_string(&graph.report()).expect("serializes");
        assert_eq!(after, golden, "report after blast_ranked differs at jobs={jobs}");
        let again = serde_json::to_string(&graph.report()).expect("serializes");
        assert_eq!(again, golden, "repeated report differs at jobs={jobs}");
    }
}

#[test]
fn link_over_extracted_units_matches_build() {
    let ds = corpus();
    let golden = serde_json::to_string(&build(&ds, 1, false).report()).expect("serializes");
    let links: Vec<UnitLinks> = ds
        .samples()
        .iter()
        .map(|s| UnitLinks::of(&vulnman::lang::parse(&s.source).expect("corpus parses")))
        .collect();
    let units: Vec<LinkUnit<'_>> = ds
        .samples()
        .iter()
        .zip(&links)
        .map(|(s, links)| LinkUnit { id: s.id, project: &s.project, links })
        .collect();
    for jobs in [1, 4] {
        let linked = CorpusGraph::link(&units, jobs, &Registry::noop());
        let json = serde_json::to_string(&linked.report()).expect("serializes");
        assert_eq!(json, golden, "link over extracted units differs at jobs={jobs}");
    }
}

#[test]
fn blast_ranked_triage_order_identical_across_jobs_and_cache() {
    let ds = corpus();
    let engine = RuleEngine::default_suite();
    // The full `vulnman graph`-to-queue path: scan, score with the
    // corpus-wide surface, weight by blast radius, drain.
    let serve_trace = |jobs: usize, cache: bool| -> Vec<String> {
        let graph = build(&ds, jobs, cache);
        let mut queue = TriageQueue::new();
        for sample in ds.samples() {
            for f in engine.scan_source(&sample.source).expect("corpus parses") {
                let surface = graph
                    .surface_of(sample.id, &f.function)
                    .unwrap_or(vulnman::analysis::reachability::Surface::Local);
                let blast = graph.blast_of(sample.id, &f.function).unwrap_or(0.0);
                queue.push_with_blast(score(f, surface), PolicySeverity::Tracked, 0.0, blast);
            }
        }
        let (served, backlog) = queue.drain_simulation(5, 100);
        assert_eq!(backlog, 0, "horizon must drain the whole queue");
        served
            .iter()
            .map(|s| {
                format!(
                    "{}|{:?}|{}|{:.6}",
                    s.item.finding.finding.function,
                    s.item.finding.finding.cwe,
                    s.item.finding.finding.span.start,
                    s.item.finding.priority
                )
            })
            .collect()
    };
    let golden = serve_trace(1, true);
    assert!(!golden.is_empty(), "corpus must produce findings");
    for (jobs, cache) in [(1, false), (4, true), (4, false)] {
        assert_eq!(
            serve_trace(jobs, cache),
            golden,
            "blast-ranked service order must not vary with jobs={jobs} cache={cache}"
        );
    }
}

#[test]
fn graph_metrics_families_are_registered_and_stable() {
    let ds = corpus();
    let snap = |jobs: usize| {
        let metrics = Registry::new();
        vulnman::analysis::corpusgraph::register_graph_instruments(&metrics);
        let cache = AnalysisCache::with_metrics(&metrics);
        CorpusGraph::from_samples(ds.samples(), &cache, jobs, &metrics).expect("parses");
        metrics.snapshot()
    };
    let s1 = snap(1);
    let s4 = snap(4);
    for family in
        ["graph.builds", "graph.nodes", "graph.edges", "graph.cross_unit_edges", "graph.sccs"]
    {
        let c1 = s1.counters[family];
        assert!(c1 > 0, "{family} must be recorded");
        assert_eq!(c1, s4.counters[family], "{family} must not vary with jobs");
    }
}
