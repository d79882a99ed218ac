//! `pipeline` (`BENCH_pipeline.json`, benchmark `workflow_scaling`): the
//! Figure-1 workflow on 200 samples (seed 11) with the rule detector.
//!
//! - `cold_jobs{1,2,4}`: cache off, so every pass pays full analysis.
//! - `warm_jobs4`: cache on and primed, so passes measure warm hits.
//! - `cold_jobs1_noop`: `cold_jobs1` with the noop metrics recorder; its
//!   distance to `cold_jobs1` is the cost of recording.
//!
//! Per-stage latency comes from the engine's span histograms over the
//! window. Gate: `cold_jobs1` keeps 90% of the committed throughput.

use crate::harness::{measure, window, window_latency, Config, Gate, Measured, Suite};
use std::time::Duration;
use vulnman_core::detector::{DetectorRegistry, RuleBasedDetector};
use vulnman_core::workflow::{WorkflowConfig, WorkflowEngine};
use vulnman_obs::Registry;
use vulnman_synth::dataset::{Dataset, DatasetBuilder};

/// The `pipeline` suite.
pub const SUITE: Suite = Suite {
    name: "pipeline",
    benchmark: "workflow_scaling",
    gates: &[Gate::VsBaseline { config: "cold_jobs1", floor: 0.90 }],
    run,
};

/// Spans whose latency distribution goes into the entry.
const STAGES: &[&str] = &[
    "span.stage.assess",
    "span.stage.assess.detect",
    "span.stage.assess.surface",
    "span.stage.repair",
];

fn mk_engine(jobs: usize, cache: bool, metrics: &Registry) -> WorkflowEngine {
    let mut registry = DetectorRegistry::new();
    registry.register(Box::new(RuleBasedDetector::standard()));
    WorkflowEngine::with_metrics(
        registry,
        WorkflowConfig { jobs, cache, ..Default::default() },
        metrics.clone(),
    )
}

fn config(ds: &Dataset, jobs: usize, cache: bool, metrics: Registry, window: Duration) -> Config {
    // Untimed warm-up on a throwaway engine: touches every lazy code path
    // without polluting the measured engine's span histograms.
    mk_engine(jobs, cache, &Registry::new()).process(ds.samples());
    let engine = mk_engine(jobs, cache, &metrics);
    if cache {
        engine.process(ds.samples()); // prime storage, then measure warm hits
    }
    let base = metrics.snapshot();
    let mut c = measure(window, ds.len() as u64, || engine.process(ds.samples()));
    let now = metrics.snapshot();
    c.stages = STAGES
        .iter()
        .filter_map(|&name| Some((name.to_string(), window_latency(&base, &now, name)?)))
        .collect();
    c
}

fn run(quick: bool) -> Result<Measured, String> {
    let ds = DatasetBuilder::new(11).vulnerable_count(60).vulnerable_fraction(0.3).build();
    let configs = [
        ("cold_jobs1", 1, false, Registry::new()),
        ("cold_jobs2", 2, false, Registry::new()),
        ("cold_jobs4", 4, false, Registry::new()),
        ("warm_jobs4", 4, true, Registry::new()),
        ("cold_jobs1_noop", 1, false, Registry::noop()),
    ];
    Ok(Measured {
        corpus: ds.len(),
        configs: configs
            .into_iter()
            .map(|(name, jobs, cache, metrics)| {
                (name.to_string(), config(&ds, jobs, cache, metrics, window(quick)))
            })
            .collect(),
    })
}
