//! Byte-identity golden for the ML layer: feature vectors, model scores, and
//! workflow reports with a trained model registered.
//!
//! Every digest below is a 64-bit FNV-1a hash. Feature and score digests
//! hash the little-endian bytes of each `f64`'s bit pattern, sample by
//! sample, over a fixed uniform-CWE corpus; report digests hash the
//! serialized `WorkflowReport`. The registry is the rule suite, the
//! semantic checkers and a trained tool-augmented model, the lineup a
//! cold review batch runs.
//!
//! The values were computed once, before feature extraction learned to
//! read a run's cached parse and rule findings, and are never regenerated:
//! a change that alters one hashed bit of a feature vector, a score or a
//! report fails here.

use vulnman::core::detector::tool_augmented_model;
use vulnman::lang::AnalysisCache;
use vulnman::ml::features::{
    AstStatFeatures, ExpertFlowFeatures, FeatureExtractor, NormalizedTokenFeatures,
    TokenNgramFeatures, ToolAugmentedFeatures,
};
use vulnman::prelude::*;
use vulnman::synth::mutate::alpha_rename;

/// `TokenNgramFeatures::new(256)`, `TokenNgramFeatures::new(512)`,
/// `NormalizedTokenFeatures::new(512)` and `ToolAugmentedFeatures`, in
/// that order.
const FEATURE_GOLDEN: [u64; 4] =
    [0x5370f3be83ab3eaa, 0x6683b684068df4d3, 0xe3ed0d8780a51ceb, 0x90f5c324ad7f8b45];

/// `AstStatFeatures` (the one reader of the CFG's cyclomatic number) and
/// `ExpertFlowFeatures` (counts from the taint engine), in that order,
/// pinned before the taint engine moved onto the lowered IR.
const FLOW_FEATURE_GOLDEN: [u64; 2] = [0x2e5869194e1b381c, 0x3b6fb22f428e6e15];

/// `tool_augmented_model(7)` trained on [`training_set`], scored per sample.
const SCORE_GOLDEN: u64 = 0xd2d52c29af789176;

/// Reports of [`report_runs`], in order.
const REPORT_GOLDEN: [u64; 5] = [
    0x3c7a7d1fae59e953,
    0x3c7a7d1fae59e953,
    0x3c7a7d1fae59e953,
    0xf0af951f5f01fa67,
    0xf0af951f5f01fa67,
];

/// The tool-augmented extractor over the default rule suite.
fn tool_features() -> ToolAugmentedFeatures {
    ToolAugmentedFeatures::new(RuleEngine::default_suite())
}

/// 640 samples, half vulnerable, spread evenly over every CWE class.
fn corpus() -> Dataset {
    DatasetBuilder::new(0x6D1_601D)
        .vulnerable_count(320)
        .cwe_distribution(CweDistribution::uniform())
        .cross_file_links(true)
        .build()
}

/// A fixed, balanced training history.
fn training_set() -> Dataset {
    DatasetBuilder::new(0x7EA1_4B0B).vulnerable_count(200).vulnerable_fraction(0.5).build()
}

/// The first 150 corpus samples, each followed by two alpha-renamed
/// copies, so dedup runs have clone members to score.
fn report_corpus() -> Dataset {
    let base = corpus();
    let mut ds = Dataset::new();
    let mut next_id = base.samples().iter().map(|s| s.id).max().unwrap_or(0) + 1;
    for s in base.samples().iter().take(150) {
        ds.push(s.clone());
        for salt in 1..=2 {
            if let Some(renamed) = alpha_rename(&s.source, salt) {
                let mut dup = s.clone();
                dup.id = next_id;
                dup.source = renamed;
                dup.duplicate_of = Some(s.id);
                next_id += 1;
                ds.push(dup);
            }
        }
    }
    ds
}

fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn digest_f64s<'a>(values: impl IntoIterator<Item = &'a f64>) -> u64 {
    values.into_iter().fold(FNV_OFFSET, |h, x| fnv1a(h, &x.to_bits().to_le_bytes()))
}

fn feature_digest(fx: &dyn FeatureExtractor, ds: &Dataset) -> u64 {
    let rows: Vec<Vec<f64>> = ds.iter().map(|s| fx.extract(s)).collect();
    assert!(
        rows.iter().all(|r| r.len() == fx.dim()),
        "{} rows must have dim {}",
        fx.name(),
        fx.dim()
    );
    digest_f64s(rows.iter().flatten())
}

fn trained_model() -> DetectionModel {
    let mut model = tool_augmented_model(7);
    model.train(&training_set());
    model
}

fn engine(config: WorkflowConfig, faults: Option<FaultConfig>) -> WorkflowEngine {
    let mut registry = DetectorRegistry::new();
    registry.register(Box::new(RuleBasedDetector::standard()));
    registry.register(Box::new(SemanticDetector::standard()));
    registry.register(Box::new(MlDetector::new(trained_model())));
    match faults {
        Some(f) => WorkflowEngine::with_fault_config(registry, config, f),
        None => WorkflowEngine::new(registry, config),
    }
}

/// `(label, config, fault plan)` of every pinned report.
fn report_runs() -> Vec<(&'static str, WorkflowConfig, Option<FaultConfig>)> {
    let base = WorkflowConfig::default();
    let faults = FaultConfig { seed: 1, rate: 0.2, ..Default::default() };
    vec![
        ("jobs 1, cache off", WorkflowConfig { jobs: 1, cache: false, ..base }, None),
        ("jobs 4, cache on", WorkflowConfig { jobs: 4, cache: true, ..base }, None),
        (
            "jobs 4, cache on, dedup on",
            WorkflowConfig { jobs: 4, cache: true, dedup: true, ..base },
            None,
        ),
        ("faults, jobs 1", WorkflowConfig { jobs: 1, ..base }, Some(faults)),
        ("faults, jobs 4", WorkflowConfig { jobs: 4, ..base }, Some(faults)),
    ]
}

#[test]
fn feature_vectors_match_the_golden() {
    let ds = corpus();
    assert!(ds.len() >= 600);
    let tools = tool_features();
    let extractors: [&dyn FeatureExtractor; 4] = [
        &TokenNgramFeatures::new(256),
        &TokenNgramFeatures::new(512),
        &NormalizedTokenFeatures::new(512),
        &tools,
    ];
    let digests: Vec<u64> = extractors.iter().map(|fx| feature_digest(*fx, &ds)).collect();
    assert_eq!(digests, FEATURE_GOLDEN, "feature digests (got {digests:#x?})");
    // Through a shared cache the rule suite filled first, as in a workflow
    // run, every extractor reads stored work and yields the same bits.
    let cache = AnalysisCache::new();
    let rules = RuleEngine::default_suite();
    let keys: Vec<u64> = ds.iter().map(|s| AnalysisCache::content_key(&s.source)).collect();
    for (s, &key) in ds.iter().zip(&keys) {
        let _ = rules.scan_source_cached_keyed(key, &s.source, &cache);
    }
    let misses = cache.stats().misses;
    for (fx, golden) in extractors.iter().zip(FEATURE_GOLDEN) {
        let rows = ds.iter().zip(&keys).map(|(s, &key)| fx.extract_cached(s, &cache, key));
        let digest = digest_f64s(rows.collect::<Vec<_>>().iter().flatten());
        assert_eq!(digest, golden, "{} through the cache", fx.name());
    }
    assert_eq!(cache.stats().misses, misses, "the extractors recompute nothing the suite stored");
}

#[test]
fn structural_and_flow_features_match_the_golden() {
    let ds = corpus();
    let extractors: [&dyn FeatureExtractor; 2] = [&AstStatFeatures, &ExpertFlowFeatures::new()];
    let digests: Vec<u64> = extractors.iter().map(|fx| feature_digest(*fx, &ds)).collect();
    assert_eq!(digests, FLOW_FEATURE_GOLDEN, "feature digests (got {digests:#x?})");
}

#[test]
fn model_scores_match_the_golden() {
    let ds = corpus();
    let model = trained_model();
    let single: Vec<f64> = ds.iter().map(|s| model.predict_proba(s)).collect();
    let digest = digest_f64s(&single);
    assert_eq!(digest, SCORE_GOLDEN, "score digest (got {digest:#x})");
    assert_eq!(digest_f64s(&model.scores(&ds)), digest, "batched scores must match");
}

#[test]
fn ml_workflow_reports_match_the_golden() {
    let ds = report_corpus();
    let digests: Vec<u64> = report_runs()
        .into_iter()
        .map(|(label, config, faults)| {
            let e = engine(config, faults);
            let report = e.process(ds.samples());
            // Each run exercises the path it is named for.
            if config.dedup {
                assert!(e.metrics().counter("clone.propagated").get() > 0, "{label}: no clones");
            }
            if faults.is_some() {
                assert!(report.degradation.ml_failures > 0, "{label}: no ML failures");
            }
            let json = serde_json::to_string(&report).expect("report serializes");
            fnv1a(FNV_OFFSET, json.as_bytes())
        })
        .collect();
    assert_eq!(digests, REPORT_GOLDEN, "report digests (got {digests:#x?})");
}
