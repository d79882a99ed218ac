//! Golden determinism tests: the Figure-1 workflow must produce
//! byte-identical reports regardless of worker count or cache
//! configuration, and the observability layer must export a stable
//! metrics schema for every execution path.
//!
//! Industry pipelines re-run the same change stream on differently-sized
//! runners; any nondeterminism shows up as phantom diffs in triage queues
//! and dashboards. These tests pin that contract on a fixed-seed,
//! ~500-sample corpus.

use vulnman::analysis::detectors::TaintDetector;
use vulnman::prelude::*;

/// Fixed-seed corpus: 75 vulnerable / 500 total — the paper's imbalanced
/// industry shape at a size that exercises every stage, inline at jobs 1
/// and sharded at higher job counts.
fn corpus() -> Dataset {
    DatasetBuilder::new(20240615).vulnerable_count(75).vulnerable_fraction(0.15).build()
}

fn engine(jobs: usize, cache: bool) -> WorkflowEngine {
    let mut registry = DetectorRegistry::new();
    registry.register(Box::new(RuleBasedDetector::standard()));
    let config = WorkflowConfig { jobs, cache, ..Default::default() };
    WorkflowEngine::new(registry, config)
}

fn run(jobs: usize, cache: bool, ds: &Dataset) -> (String, Snapshot) {
    let e = engine(jobs, cache);
    let report = e.process(ds.samples());
    let json = serde_json::to_string(&report).expect("report serializes");
    (json, e.metrics_snapshot())
}

#[test]
fn report_bytes_identical_across_jobs_and_cache() {
    let ds = corpus();
    let (golden, golden_snap) = run(1, true, &ds);
    assert!(!golden.is_empty());
    for (jobs, cache) in [(1, false), (2, true), (2, false), (8, true), (8, false)] {
        let (json, snap) = run(jobs, cache, &ds);
        assert_eq!(
            json, golden,
            "WorkflowReport must be byte-identical at jobs={jobs} cache={cache}"
        );
        // The metrics schema (instrument name sets) is pre-registered at
        // engine construction, so it cannot depend on which execution path
        // ran or whether the cache was enabled.
        assert_eq!(
            snap.schema(),
            golden_snap.schema(),
            "metrics schema must not vary with jobs={jobs} cache={cache}"
        );
    }
}

#[test]
fn repeated_runs_produce_identical_normalized_metrics() {
    // At jobs=1 every counter (including cache hits/misses) is
    // deterministic; normalization zeroes only the wall-clock-dependent
    // histogram contents, so two runs must match exactly.
    let ds = corpus();
    let (_, a) = run(1, true, &ds);
    let (_, b) = run(1, true, &ds);
    assert_eq!(a.normalized(), b.normalized());
}

#[test]
fn metrics_json_round_trips_and_is_key_stable() {
    let ds = corpus();
    let (_, snap) = run(2, true, &ds);
    let json = serde_json::to_string_pretty(&snap).expect("snapshot serializes");
    let back: Snapshot = serde_json::from_str(&json).expect("snapshot deserializes");
    assert_eq!(back, snap, "Snapshot must survive a serde round-trip");
    // Spot-check the keys the dashboards depend on.
    for key in ["stage.assess", "stage.review", "stage.repair"] {
        assert!(
            snap.histograms.contains_key(&format!("span.{key}")),
            "missing span histogram {key}"
        );
    }
    for key in ["cache.hits", "cache.misses", "workflow.samples"] {
        assert!(snap.counters.contains_key(key), "missing counter {key}");
    }
    assert!(snap.histograms.contains_key("shard.latency_micros"));
}

/// FNV-1a 64 digests of the serialized `process_with_capacity` report on
/// [`corpus`], one per review budget in [`capacity_budgets`] order:
/// unlimited, then 50%, 20% and 0% of the unlimited run's analyst minutes.
/// Generated before capacity shared the sharded per-sample pass, so they
/// pin that the review-budget post-pass reproduces the old sequential
/// allocation byte for byte.
const CAPACITY_GOLDEN: [u64; 4] =
    [0xe176f9ac6de028cc, 0xe574fe20cba37711, 0x3d3ca3ad562f091c, 0x9ba838c11fdb2faa];

/// [`CAPACITY_GOLDEN`] for a taint-only rule suite ([`taint_only_engine`]),
/// generated the same way. That suite leaves most vulnerable samples
/// unflagged, so exposed ones are caught and repaired only through manual
/// review, and a short budget must drop those repairs.
const TAINT_ONLY_CAPACITY_GOLDEN: [u64; 4] =
    [0x733f382c9bdd9824, 0x7e582c710a52e085, 0x58b2982fa84ebccb, 0xc5a4c2ee06a5498e];

fn taint_only_engine(jobs: usize) -> WorkflowEngine {
    let mut rules = RuleEngine::new();
    rules.register(Box::new(TaintDetector::default_config()));
    let mut registry = DetectorRegistry::new();
    registry.register(Box::new(RuleBasedDetector::new("taint-only", rules)));
    WorkflowEngine::new(registry, WorkflowConfig { jobs, ..Default::default() })
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

fn capacity_budgets(e: &WorkflowEngine, ds: &Dataset) -> [f64; 4] {
    let full = e.process_with_capacity(ds.samples(), f64::INFINITY).analyst_minutes;
    [f64::INFINITY, 0.5 * full, 0.2 * full, 0.0]
}

fn capacity_reports(e: &WorkflowEngine, ds: &Dataset) -> Vec<String> {
    capacity_budgets(e, ds)
        .iter()
        .map(|&budget| {
            let report = e.process_with_capacity(ds.samples(), budget);
            serde_json::to_string(&report).expect("report serializes")
        })
        .collect()
}

fn capacity_digests(e: &WorkflowEngine, ds: &Dataset) -> Vec<u64> {
    capacity_reports(e, ds).iter().map(|j| fnv1a(j.as_bytes())).collect()
}

#[test]
fn capacity_reports_match_the_committed_golden_at_any_jobs() {
    let ds = corpus();
    // The taint-only golden only pins review-only repairs if the corpus
    // has some.
    let unlimited = taint_only_engine(1).process(ds.samples());
    assert!(unlimited.cases.iter().any(|c| c.review_catch && !c.auto_flagged));
    for jobs in [1, 4] {
        let digests = capacity_digests(&engine(jobs, true), &ds);
        assert_eq!(digests, CAPACITY_GOLDEN, "capacity report digests at jobs={jobs}");
        let digests = capacity_digests(&taint_only_engine(jobs), &ds);
        assert_eq!(digests, TAINT_ONLY_CAPACITY_GOLDEN, "taint-only digests at jobs={jobs}");
    }
}

#[test]
fn faulted_capacity_reports_are_byte_identical_across_jobs() {
    let ds = corpus();
    let faulted = |jobs| {
        let mut registry = DetectorRegistry::new();
        registry.register(Box::new(RuleBasedDetector::standard()));
        let config = WorkflowConfig { jobs, ..Default::default() };
        let faults = FaultConfig { seed: 1, rate: 0.2, ..Default::default() };
        capacity_reports(&WorkflowEngine::with_fault_config(registry, config, faults), &ds)
    };
    assert_eq!(faulted(1), faulted(4), "faulted capacity reports must not depend on jobs");
}

#[test]
fn unlimited_capacity_report_equals_the_plain_report() {
    let ds = corpus();
    let e = engine(2, true);
    let plain = serde_json::to_string(&e.process(ds.samples())).unwrap();
    let capped =
        serde_json::to_string(&e.process_with_capacity(ds.samples(), f64::INFINITY)).unwrap();
    assert_eq!(plain, capped, "an unlimited review budget must demote nothing");
}
