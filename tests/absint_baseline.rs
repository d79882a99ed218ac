//! Semantic-checker detection baseline: per-CWE true/false positives on a
//! fixed corpus, gated against `tests/absint_baseline.json`.
//!
//! The corpus is one semantic-gap template pair per (class, seed) — every
//! class in `GAP_CLASSES` × 30 seeds, styles and tiers rotated — so it
//! grows automatically when a new gap class lands. Each pair contributes
//! its vulnerable sample and its fixed twin. The committed baseline
//! records, per class, how many
//! vulnerable samples the semantic suite catches and how many fixed twins
//! it still flags. The gate fails on any true-positive decrease or
//! false-positive increase; a conscious improvement regenerates the file:
//!
//! ```text
//! ABSINT_WRITE_BASELINE=1 cargo test --test absint_baseline
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;
use vulnman::analysis::checkers::{AbsintBaseline, BaselineEntry, SemanticEngine};
use vulnman::analysis::detectors::RuleEngine;
use vulnman::analysis::oracle::{DifferentialOracle, OracleConfig};
use vulnman::lang::AnalysisCache;
use vulnman::prelude::*;
use vulnman::synth::emit::EmitCtx;
use vulnman::synth::templates::semantic::{semantic_gap_pair, GAP_CLASSES};

const SEEDS_PER_CLASS: u64 = 30;

fn baseline_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/absint_baseline.json")
}

/// The fixed corpus: `(class, vulnerable source, fixed source)` triples.
/// Everything is derived from constant seeds, so the corpus is identical on
/// every machine and every run — the baseline numbers are exact, not
/// statistical.
fn corpus() -> Vec<(Cwe, String, String)> {
    let mut styles = vec![StyleProfile::mainstream()];
    styles.extend(StyleProfile::internal_teams());
    let mut out = Vec::new();
    for cwe in GAP_CLASSES {
        for seed in 0..SEEDS_PER_CLASS {
            let style = &styles[seed as usize % styles.len()];
            let tier = Tier::ALL[seed as usize % Tier::ALL.len()];
            let mut rng = StdRng::seed_from_u64(seed * 1009 + u64::from(cwe.id()));
            let mut ctx = EmitCtx::new(style, tier, &mut rng);
            let pair = semantic_gap_pair(cwe, &mut ctx);
            out.push((cwe, pair.vulnerable, pair.fixed));
        }
    }
    assert_eq!(
        out.len() as u64 * 2,
        GAP_CLASSES.len() as u64 * SEEDS_PER_CLASS * 2,
        "every gap class contributes exactly {SEEDS_PER_CLASS} pairs"
    );
    out
}

fn count_hits(engine: &SemanticEngine, source: &str, cwe: Cwe) -> bool {
    let program = parse(source).expect("corpus sample parses");
    engine.analyze(&program).findings.iter().any(|f| f.cwe == cwe)
}

fn measure() -> AbsintBaseline {
    let engine = SemanticEngine::new();
    let mut entries: Vec<BaselineEntry> = GAP_CLASSES
        .iter()
        .map(|c| BaselineEntry { cwe: c.id(), true_positives: 0, false_positives: 0 })
        .collect();
    for (cwe, vulnerable, fixed) in corpus() {
        let e = entries.iter_mut().find(|e| e.cwe == cwe.id()).expect("entry");
        if count_hits(&engine, &vulnerable, cwe) {
            e.true_positives += 1;
        }
        if count_hits(&engine, &fixed, cwe) {
            e.false_positives += 1;
        }
    }
    entries.sort_by_key(|e| e.cwe);
    AbsintBaseline { entries }
}

#[test]
fn semantic_suite_meets_the_committed_baseline() {
    let current = measure();

    if std::env::var("ABSINT_WRITE_BASELINE").is_ok() {
        let json = serde_json::to_string_pretty(&current).expect("serialize baseline");
        std::fs::write(baseline_path(), json + "\n").expect("write baseline");
        eprintln!("baseline regenerated at {}", baseline_path().display());
        return;
    }

    let json = std::fs::read_to_string(baseline_path())
        .expect("tests/absint_baseline.json is committed; regenerate with ABSINT_WRITE_BASELINE=1");
    let committed: AbsintBaseline = serde_json::from_str(&json).expect("baseline parses");

    assert_eq!(
        committed.entries.len(),
        GAP_CLASSES.len(),
        "the baseline covers every semantic-gap class"
    );
    for want in &committed.entries {
        let got = current
            .entries
            .iter()
            .find(|e| e.cwe == want.cwe)
            .unwrap_or_else(|| panic!("CWE-{} missing from the measured corpus", want.cwe));
        assert!(
            got.true_positives >= want.true_positives,
            "CWE-{}: true positives regressed {} -> {} — fix the checker or consciously \
             regenerate the baseline",
            want.cwe,
            want.true_positives,
            got.true_positives
        );
        assert!(
            got.false_positives <= want.false_positives,
            "CWE-{}: false positives grew {} -> {}",
            want.cwe,
            want.false_positives,
            got.false_positives
        );
    }
}

/// The headline acceptance numbers from the gap study: the semantic suite
/// catches ≥90% of the corpus it was built for while the rule suite —
/// blind to constant value flow by construction — stays under 50%.
#[test]
fn semantic_detection_dominates_rules_on_the_gap_corpus() {
    let engine = SemanticEngine::new();
    let rules = RuleEngine::default_suite();
    let samples = corpus();
    let n = samples.len();
    let mut semantic_tp = 0usize;
    let mut rule_tp = 0usize;
    for (cwe, vulnerable, _) in &samples {
        if count_hits(&engine, vulnerable, *cwe) {
            semantic_tp += 1;
        }
        let program = parse(vulnerable).expect("parses");
        if rules.scan(&program).iter().any(|f| f.cwe == *cwe) {
            rule_tp += 1;
        }
    }
    let semantic_rate = semantic_tp as f64 / n as f64;
    let rule_rate = rule_tp as f64 / n as f64;
    assert!(
        semantic_rate >= 0.90,
        "semantic suite must catch >=90% of the gap corpus, got {semantic_rate:.3}"
    );
    assert!(rule_rate < 0.50, "rule suite should stay blind to the gap corpus, got {rule_rate:.3}");
}

/// Oracle reports are byte-identical across worker counts and cache
/// settings — the acceptance bar for wiring the fixpoint solver into the
/// parallel pipeline.
#[test]
fn oracle_reports_identical_across_jobs_and_cache() {
    let ds = DatasetBuilder::new(77)
        .vulnerable_count(12)
        .vulnerable_fraction(0.3)
        .label_noise(0.1)
        .build();
    let run = |jobs: usize, cache: bool| {
        let cache = if cache { AnalysisCache::new() } else { AnalysisCache::disabled() };
        let oracle = DifferentialOracle::with_config(OracleConfig { jobs });
        serde_json::to_string(&oracle.run(ds.samples(), &cache)).expect("report serializes")
    };
    let baseline = run(1, true);
    for (jobs, cache) in [(1, false), (4, true), (4, false)] {
        assert_eq!(
            baseline,
            run(jobs, cache),
            "oracle report diverged at jobs={jobs} cache={cache}"
        );
    }
}
