//! End-to-end determinism contract for the differential oracle.
//!
//! The acceptance bar from the design: running `vulnman oracle` over a
//! 500-sample corpus must produce a *byte-identical* serialized report
//! regardless of `--jobs` or cache settings, and every disagreement must
//! land in exactly one taxonomy bucket.

use vulnman::analysis::oracle::{DifferentialOracle, DisagreementKind, OracleConfig, View};
use vulnman::lang::AnalysisCache;
use vulnman::prelude::*;

/// The smoke-corpus parameters CI and the golden corpus are pinned to:
/// 100 vulnerable samples at 20% prevalence -> 500 samples total, with 5%
/// label noise so every taxonomy bucket is exercised.
fn smoke_corpus() -> Dataset {
    DatasetBuilder::new(42).vulnerable_count(100).vulnerable_fraction(0.2).label_noise(0.05).build()
}

#[test]
fn reports_are_byte_identical_across_jobs_and_cache_settings() {
    let ds = smoke_corpus();
    assert_eq!(ds.len(), 500, "smoke corpus drifted; update the pinned parameters");
    let reference = DifferentialOracle::with_config(OracleConfig { jobs: 1 })
        .run(ds.samples(), &AnalysisCache::new());
    let reference_json = serde_json::to_string(&reference).expect("report serializes");
    for (jobs, cache) in [(2, true), (4, true), (4, false), (7, true)] {
        let run_cache = if cache { AnalysisCache::new() } else { AnalysisCache::disabled() };
        let report =
            DifferentialOracle::with_config(OracleConfig { jobs }).run(ds.samples(), &run_cache);
        let json = serde_json::to_string(&report).expect("report serializes");
        assert_eq!(
            json, reference_json,
            "report differs from the jobs=1 reference at jobs={jobs} cache={cache}"
        );
    }
}

#[test]
fn every_disagreement_is_classified_and_counted_exactly_once() {
    let ds = smoke_corpus();
    let report = DifferentialOracle::new().run(ds.samples(), &AnalysisCache::new());
    assert_eq!(
        report.taxonomy.total(),
        report.disagreements.len(),
        "taxonomy counts must partition the disagreement list"
    );
    for kind in DisagreementKind::ALL {
        assert_eq!(
            report.taxonomy.count(kind),
            report.disagreements.iter().filter(|d| d.kind == kind).count(),
            "per-kind count drifted for {kind}"
        );
    }
    // Disagreements arrive in corpus order so diffs of two reports line up.
    let ids: Vec<u64> = report.disagreements.iter().map(|d| d.sample_id).collect();
    let mut sorted = ids.clone();
    sorted.sort_unstable();
    assert_eq!(ids, sorted, "disagreements must be emitted in corpus order");
}

#[test]
fn label_noise_artifacts_match_the_datasets_own_provenance() {
    let ds = smoke_corpus();
    let report = DifferentialOracle::new().run(ds.samples(), &AnalysisCache::new());
    let planted: Vec<u64> = ds.mislabeled_ids();
    let recovered: Vec<u64> = report
        .disagreements
        .iter()
        .filter(|d| d.kind == DisagreementKind::LabelNoiseArtifact)
        .map(|d| d.sample_id)
        .collect();
    assert_eq!(
        recovered, planted,
        "the oracle must rediscover exactly the corruptions the dataset planted"
    );
    for d in &report.disagreements {
        if d.kind == DisagreementKind::LabelNoiseArtifact {
            assert_eq!(d.view, View::RecordedLabel, "label noise implicates the recorded label");
        }
    }
}

#[test]
fn oracle_metrics_schema_is_stable_and_populated() {
    let ds = smoke_corpus();
    let metrics = Registry::new();
    let oracle = DifferentialOracle::with_metrics(OracleConfig::default(), &metrics);
    let report = oracle.run(ds.samples(), &AnalysisCache::new());
    let snapshot = metrics.snapshot();
    let json = serde_json::to_string(&snapshot).expect("snapshot serializes");
    // Schema stability: every oracle.* instrument exists even when its
    // count is zero for this corpus (mirrors the fault.* contract).
    for key in [
        "oracle.samples",
        "oracle.agreed",
        "oracle.disagreements",
        "oracle.kind.static_false_positive",
        "oracle.kind.static_blind_spot",
        "oracle.kind.dynamic_blind_spot",
        "oracle.kind.label_noise_artifact",
        "oracle.kind.analyzer_defect",
        "oracle.kind.semantic_blind_spot",
        "oracle.kind.semantic_false_positive",
        "oracle.shrunk",
        "oracle.shrink_steps",
        "oracle.shrink_attempts",
        "span.oracle.run",
    ] {
        assert!(json.contains(&format!("\"{key}\"")), "metric `{key}` missing from snapshot");
    }
    assert_eq!(snapshot.counters.get("oracle.samples").copied(), Some(report.samples as u64));
    assert_eq!(
        snapshot.counters.get("oracle.disagreements").copied(),
        Some(report.disagreements.len() as u64)
    );
}
