//! Golden disagreement-corpus regression test.
//!
//! `tests/golden_oracle/` holds shrunk reproducers generated by
//! `vulnman oracle --shrink-golden` — each one is the minimal source that
//! still produces a specific classified disagreement between the static
//! rules, the dynamic sanitizer, the taint engine, and ground truth. This
//! test re-runs the oracle over every committed case and asserts the
//! recorded `(cwe, view, kind)` signature still reproduces, so analyzer
//! changes that silently alter a triaged disagreement fail CI.

use vulnman::analysis::oracle::{DefectBaseline, DifferentialOracle, GoldenManifest};
use vulnman::lang::AnalysisCache;

fn corpus_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden_oracle")
}

#[test]
fn every_golden_case_still_reproduces_its_disagreement() {
    let dir = corpus_dir();
    let manifest_json = std::fs::read_to_string(dir.join("manifest.json"))
        .expect("tests/golden_oracle/manifest.json is committed");
    let manifest: GoldenManifest =
        serde_json::from_str(&manifest_json).expect("manifest parses against the current schema");
    assert!(
        !manifest.cases.is_empty(),
        "the golden corpus must contain at least one shrunk reproducer"
    );
    let oracle = DifferentialOracle::new();
    let cache = AnalysisCache::new();
    for case in &manifest.cases {
        let source = std::fs::read_to_string(dir.join(&case.file))
            .unwrap_or_else(|e| panic!("{}: reproducer missing: {e}", case.file));
        let disagreements = oracle.classify_source(&source, case.truth, case.mislabeled, &cache);
        assert!(
            disagreements
                .iter()
                .any(|d| d.cwe == case.cwe && d.view == case.view && d.kind == case.kind),
            "{}: recorded disagreement ({:?}, {:?}, {:?}) no longer reproduces; got {:#?}",
            case.file,
            case.cwe,
            case.view,
            case.kind,
            disagreements
        );
    }
}

#[test]
fn golden_reproducers_are_canonical_under_the_printer() {
    // The shrinker validates every accepted candidate through a
    // print -> parse round trip, so committed reproducers must already be
    // in canonical printed form; drift here means the corpus was edited by
    // hand or the printer changed shape.
    let dir = corpus_dir();
    let manifest: GoldenManifest = serde_json::from_str(
        &std::fs::read_to_string(dir.join("manifest.json")).expect("manifest is committed"),
    )
    .expect("manifest parses");
    for case in &manifest.cases {
        let source = std::fs::read_to_string(dir.join(&case.file)).expect("reproducer exists");
        let program =
            vulnman::lang::parse(&source).unwrap_or_else(|e| panic!("{}: {e}", case.file));
        assert_eq!(
            vulnman::lang::printer::print_program(&program),
            source,
            "{}: reproducer is not in canonical printed form",
            case.file
        );
    }
}

#[test]
fn defect_baseline_is_readable_and_sane() {
    let json = std::fs::read_to_string(corpus_dir().join("baseline.json"))
        .expect("tests/golden_oracle/baseline.json is committed");
    let baseline: DefectBaseline = serde_json::from_str(&json).expect("baseline parses");
    // The ceiling is a real, small number — a huge value would mean the
    // regression gate was quietly disabled.
    assert!(
        baseline.analyzer_defects < 100,
        "baseline allows {} analyzer defects; the gate has been defeated",
        baseline.analyzer_defects
    );
}
