//! Equivalence suite for the service's `graph` request. The service keeps
//! per-unit link summaries and relinks them on every request; each
//! response must equal the one derived from a from-scratch
//! `CorpusGraph` build over the explicit FIFO window of registered
//! sources. Graph traffic must also cost the shared analysis cache exactly
//! one parse per request: stored units are never looked up again.

use std::collections::VecDeque;
use std::sync::Mutex;
use vulnman::analysis::{CorpusGraph, UnitRef};
use vulnman::core::DegradationSummary;
use vulnman::faults::FaultConfig;
use vulnman::lang::AnalysisCache;
use vulnman::obs::Registry;
use vulnman::serve::protocol::{BlastEntry, GraphStats};
use vulnman::serve::{Request, Response, ServiceCore, SERVE_CACHE_ENTRY_LIMIT};
use vulnman::synth::mutate::alpha_rename;
use vulnman::synth::sample::Sample;
use vulnman::synth::DatasetBuilder;

/// Blast leaders a `graph` response carries.
const TOP_BLAST: usize = 5;

/// First definer of `shared_helper` (evicted part-way through the run).
const FIRST_DEFINER: &str = "void shared_helper() {\n}\n";
/// Later definer of `shared_helper`, with a callee of its own so the
/// linkage winner is visible in the closure counts.
const LATER_DEFINER: &str = "void shared_helper() {\n    deep_leaf();\n}\nvoid deep_leaf() {\n}\n";
/// Calls `shared_helper`, which it does not define.
const CALLER: &str = "void linker() {\n    shared_helper();\n}\n";

fn hot_set() -> Vec<Sample> {
    DatasetBuilder::new(20261017)
        .vulnerable_count(32)
        .vulnerable_fraction(0.5)
        .cross_file_links(true)
        .build()
        .samples()
        .to_vec()
}

fn graph_request(id: u64, source: &str) -> Request {
    Request { id, kind: "graph".into(), source: source.into(), label: None, cwe: None }
}

/// The response the service owes for `(id, source)` given the registered
/// `window`, rebuilt from sources. `reference` is a cache private to the
/// test (cache on or off never changes a graph), so the rebuild only
/// saves parse time.
fn expected(
    window: &VecDeque<(u64, String)>,
    id: u64,
    source: &str,
    reference: &AnalysisCache,
) -> (Response, Option<CorpusGraph>) {
    let mut units: Vec<UnitRef<'_>> =
        window.iter().map(|(id, s)| UnitRef { id: *id, project: "serve", source: s }).collect();
    units.push(UnitRef { id, project: "serve", source });
    let graph = match CorpusGraph::build_with(&units, reference, 1, &Registry::noop()) {
        Ok(g) => g,
        Err(e) => return (Response::error(id, format!("parse error: {e}")), None),
    };
    let stats = GraphStats {
        nodes: graph.nodes().len(),
        edges: graph.edge_count(),
        cross_unit_edges: graph.cross_unit_edge_count(),
        unit_functions: graph
            .nodes()
            .iter()
            .filter(|n| n.unit == id)
            .map(|n| n.name.to_string())
            .collect(),
        top_blast: graph
            .blast_ranked()
            .into_iter()
            .take(TOP_BLAST)
            .map(|(function, blast)| BlastEntry { function, blast })
            .collect(),
    };
    (Response::ok_graph(id, stats), Some(graph))
}

#[test]
fn graph_responses_match_a_rebuild_over_the_fifo_window() {
    let hot = hot_set();
    let core = ServiceCore::new(&Registry::new(), &FaultConfig::with_rate(1, 0.0));
    let ledger = Mutex::new(DegradationSummary::default());
    let reference = AnalysisCache::new();
    let mut window: VecDeque<(u64, String)> = VecDeque::new();
    let requests = SERVE_CACHE_ENTRY_LIMIT + 180;
    let mut rng: u64 = 0x5EED;
    let (mut caller_links, mut rejected, mut reused_ids) = (Vec::new(), 0, 0);
    for i in 0..requests {
        rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let draw = rng >> 33;
        let h = (draw % hot.len() as u64) as usize;
        let mut id = 1_000 + i as u64;
        let source = match i {
            0 => FIRST_DEFINER.to_string(),
            1 | 400 => LATER_DEFINER.to_string(),
            5 | 450 | 600 | 680 => CALLER.to_string(),
            300 => "void broken( {".to_string(),
            _ if draw.is_multiple_of(3) => {
                alpha_rename(&hot[h].source, i as u32).expect("hot source parses")
            }
            _ => hot[h].source.clone(),
        };
        // Every 50th request reuses the id of a registered unit still in
        // the window: the unit id, not the request, is the link identity.
        if i % 50 == 25 {
            id = window[window.len() / 2].0;
            reused_ids += 1;
        }

        let (want, graph) = expected(&window, id, &source, &reference);
        let got = core.handle(&graph_request(id, &source), &ledger);
        assert_eq!(got.encode(), want.encode(), "request {i} (id {id})");

        let Some(graph) = graph else {
            rejected += 1;
            continue;
        };
        if source == CALLER {
            // The first unit in the window that defines the name wins.
            let definer = window.iter().find(|(_, s)| s.contains("void shared_helper()"));
            let (definer, _) = definer.expect("some unit defines shared_helper");
            assert!(graph.calls(id, "linker", *definer, "shared_helper"), "request {i}");
            caller_links.push(*definer);
        }
        window.push_back((id, source));
        if window.len() > SERVE_CACHE_ENTRY_LIMIT {
            window.pop_front();
        }
    }
    assert_eq!(rejected, 1, "exactly one unparseable unit");
    assert!(reused_ids > 10);
    // The caller first links to the first definer, then — once it and
    // the next definer are evicted — to the re-registered one.
    assert_eq!(caller_links, [1_000, 1_000, 1_400, 1_400]);
}

#[test]
fn graph_traffic_costs_the_cache_one_parse_per_request() {
    let hot = hot_set();
    let metrics = Registry::new();
    let core = ServiceCore::new(&metrics, &FaultConfig::with_rate(1, 0.0));
    let ledger = Mutex::new(DegradationSummary::default());
    let evictions = || metrics.snapshot().counters["cache.evictions"];
    let lookups = || {
        let stats = core.cache().stats();
        stats.hits + stats.misses
    };
    // Fill the unit store from the hot set: the store is full, while the
    // parse table holds one entry per distinct hot source.
    for i in 0..SERVE_CACHE_ENTRY_LIMIT {
        let resp = core.handle(&graph_request(i as u64, &hot[i % hot.len()].source), &ledger);
        assert_eq!(resp.status, "ok");
    }
    assert_eq!(lookups(), SERVE_CACHE_ENTRY_LIMIT as u64);

    // K further requests: repeats (parse hits) and fresh renamings (parse
    // misses) alike cost one lookup each, and with room left in the table
    // they flush nothing.
    let k = 200u64;
    let (lookups_before, evictions_before) = (lookups(), evictions());
    for i in 0..k {
        let base = &hot[i as usize % hot.len()].source;
        let source =
            if i % 2 == 0 { base.clone() } else { alpha_rename(base, i as u32).expect("parses") };
        let id = SERVE_CACHE_ENTRY_LIMIT as u64 + i;
        assert_eq!(core.handle(&graph_request(id, &source), &ledger).status, "ok");
    }
    assert!(lookups() - lookups_before <= k, "one parse per submitted unit");
    assert_eq!(evictions(), evictions_before, "graph requests flushed the cache");
}
