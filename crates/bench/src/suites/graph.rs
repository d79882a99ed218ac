//! `graph` (`BENCH_graph.json`, benchmark `corpus_graph`): the whole-corpus
//! call graph (`vulnman_analysis::corpusgraph`) on a cross-file corpus
//! whose units call into each other.
//!
//! - `build_jobs{1,4}`: units parsed, linked and analyzed per second, cache
//!   disabled (cold parse every pass).
//! - `build_warm`: the same build through a warm cache, isolating the
//!   graph analytics.
//! - `report`: the first `report()` of a freshly built graph, serialized.
//!   Betweenness is computed on that first call, so it is charged here and
//!   not to the builds; the untimed warm build before each report is set-up.
//!
//! Gate: cold jobs-1 build throughput keeps half the committed baseline (a
//! cross-machine number; only a halving counts). Every run also checks
//! that the jobs-1 and jobs-4 reports serialize byte-identically.

use crate::harness::{measure, measure_with, window, Gate, Measured, Suite};
use std::collections::BTreeMap;
use vulnman_analysis::corpusgraph::CorpusGraph;
use vulnman_lang::AnalysisCache;
use vulnman_obs::Registry;
use vulnman_synth::dataset::DatasetBuilder;

/// The `graph` suite.
pub const SUITE: Suite = Suite {
    name: "graph",
    benchmark: "corpus_graph",
    gates: &[Gate::VsBaseline { config: "build_jobs1", floor: 0.50 }],
    run,
};

fn run(quick: bool) -> Result<Measured, String> {
    let window = window(quick);
    let ds = DatasetBuilder::new(37)
        .vulnerable_count(if quick { 25 } else { 100 })
        .vulnerable_fraction(0.4)
        .cross_file_links(true)
        .build();
    let metrics = Registry::noop();
    let build = |cache: &AnalysisCache, jobs| {
        CorpusGraph::from_samples(ds.samples(), cache, jobs, &metrics).expect("corpus parses")
    };
    let mut configs = BTreeMap::new();

    for (name, jobs) in [("build_jobs1", 1usize), ("build_jobs4", 4)] {
        let r = measure(window, ds.len() as u64, || build(&AnalysisCache::disabled(), jobs));
        configs.insert(name.to_string(), r);
    }

    let cache = AnalysisCache::new();
    build(&cache, 1);
    configs.insert("build_warm".into(), measure(window, ds.len() as u64, || build(&cache, 1)));
    let report = measure_with(
        window,
        1,
        || build(&cache, 1),
        |graph| serde_json::to_string(&graph.report()).expect("serializes"),
    );
    configs.insert("report".into(), report);

    let report = |jobs| serde_json::to_string(&build(&AnalysisCache::disabled(), jobs).report());
    let (j1, j4) = (report(1).expect("serializes"), report(4).expect("serializes"));
    if j1 != j4 {
        return Err("jobs1 and jobs4 reports differ — determinism regression".into());
    }
    println!("  determinism: jobs1 == jobs4 ({} report bytes)", j1.len());
    Ok(Measured { corpus: ds.len(), configs })
}
