//! Byte-identity golden for the abstract-interpretation engine.
//!
//! `tests/absint_golden.json` pins, per source unit, one 64-bit FNV-1a
//! digest of `SemanticEngine::analyze`'s output: the serialized findings
//! (evidence included) followed by the `Debug` rendering of the aggregated
//! `SolverStats`. The corpus is 800 fixed-seed `DatasetBuilder` samples over
//! `CweDistribution::uniform()` (all tiers, every team style, cross-file
//! bridges on), each followed by the mutants the hot-path equivalence suite
//! applies: an alpha-renaming, injected comments, and dead statements.
//!
//! The golden also records an incremental run: a cold then a warm
//! `scan_source_incremental` pass over the first 50 samples through one
//! shared cache, with the per-sample digests of each pass and the
//! `Stage::Summary`/`Stage::Findings` hit/miss counts after each pass.
//!
//! Any change to findings, evidence text, solver statistics, or incremental
//! reuse fails here and names the first diverging unit. The golden pins the
//! engine's observable output, so it is regenerated only by a change that
//! means to alter that output:
//!
//! ```text
//! ABSINT_WRITE_GOLDEN=1 cargo test --release --test absint_golden
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::path::PathBuf;
use vulnman::analysis::checkers::SemanticEngine;
use vulnman::lang::{AnalysisCache, Stage};
use vulnman::prelude::*;
use vulnman::synth::mutate::{alpha_rename, insert_comments, insert_dead_statements};

const SAMPLES: usize = 800;
const INCREMENTAL_SAMPLES: usize = 50;

#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct StageCounts {
    summary_hits: u64,
    summary_misses: u64,
    findings_hits: u64,
    findings_misses: u64,
}

#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct Golden {
    /// One `"<unit> <digest>"` line per unit.
    batch: Vec<String>,
    incremental_cold: Vec<String>,
    incremental_warm: Vec<String>,
    stages_after_cold: StageCounts,
    stages_after_warm: StageCounts,
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/absint_golden.json")
}

/// The fixed samples, as `(unit label, source)`.
fn samples() -> Vec<(String, String)> {
    let mut teams = vec![StyleProfile::mainstream()];
    teams.extend(StyleProfile::internal_teams());
    let ds = DatasetBuilder::new(0xAB51_6017)
        .teams(teams)
        .cwe_distribution(CweDistribution::uniform())
        .tier_mix(vec![(Tier::Simple, 1.0), (Tier::Curated, 1.0), (Tier::RealWorld, 1.0)])
        .cross_file_links(true)
        .vulnerable_count(420)
        .vulnerable_fraction(0.5)
        .build();
    assert!(ds.len() >= SAMPLES, "corpus unexpectedly small: {}", ds.len());
    ds.iter().take(SAMPLES).map(|s| (s.id.to_string(), s.source.clone())).collect()
}

/// The samples followed by each sample's mutants.
fn units(samples: &[(String, String)]) -> Vec<(String, String)> {
    let mut rng = StdRng::seed_from_u64(7);
    let mut out = Vec::new();
    for (id, src) in samples {
        out.push((id.clone(), src.clone()));
        if let Some(m) = alpha_rename(src, 3) {
            out.push((format!("{id}/rename"), m));
        }
        out.push((format!("{id}/comments"), insert_comments(src, &mut rng)));
        if let Some(m) = insert_dead_statements(src, &mut rng) {
            out.push((format!("{id}/dead"), m));
        }
    }
    out
}

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h = (*h ^ b as u64).wrapping_mul(0x100000001b3);
    }
}

/// The golden line of one unit: its label and the digest of its findings
/// and solver statistics.
fn digest_line(
    unit: &str,
    findings: &[vulnman::analysis::Finding],
    stats: &impl std::fmt::Debug,
) -> String {
    let mut h = 0xcbf29ce484222325u64;
    fnv(&mut h, serde_json::to_string(findings).expect("findings serialize").as_bytes());
    fnv(&mut h, format!("{stats:?}").as_bytes());
    format!("{unit} {h:016x}")
}

fn batch_digests(engine: &SemanticEngine, units: &[(String, String)]) -> Vec<String> {
    units
        .iter()
        .map(|(unit, src)| {
            let program = parse(src).expect("corpus unit parses");
            let scan = engine.analyze(&program);
            digest_line(unit, &scan.findings, &scan.stats)
        })
        .collect()
}

fn stage_counts(cache: &AnalysisCache) -> StageCounts {
    let summary = cache.stage_stats(Stage::Summary);
    let findings = cache.stage_stats(Stage::Findings);
    StageCounts {
        summary_hits: summary.hits,
        summary_misses: summary.misses,
        findings_hits: findings.hits,
        findings_misses: findings.misses,
    }
}

fn measure() -> Golden {
    let samples = samples();
    let units = units(&samples);
    let batch = batch_digests(&SemanticEngine::new(), &units);

    let engine = SemanticEngine::new();
    let cache = AnalysisCache::new();
    let pass = || -> Vec<String> {
        samples
            .iter()
            .take(INCREMENTAL_SAMPLES)
            .map(|(unit, src)| {
                let scan = engine.scan_source_incremental(src, &cache).expect("sample parses");
                digest_line(unit, &scan.findings, &scan.stats)
            })
            .collect()
    };
    let incremental_cold = pass();
    let stages_after_cold = stage_counts(&cache);
    let incremental_warm = pass();
    let stages_after_warm = stage_counts(&cache);
    Golden { batch, incremental_cold, incremental_warm, stages_after_cold, stages_after_warm }
}

fn assert_digests_match(what: &str, got: &[String], want: &[String]) {
    assert_eq!(got.len(), want.len(), "{what}: unit count changed");
    let diverged = got.iter().zip(want).filter(|(g, w)| g != w).count();
    if let Some((g, w)) = got.iter().zip(want).find(|(g, w)| g != w) {
        panic!(
            "{what}: {diverged} of {} units diverge from tests/absint_golden.json; the first \
             is `{g}` (golden `{w}`)",
            got.len()
        );
    }
}

#[test]
fn semantic_engine_output_matches_the_committed_golden() {
    let current = measure();

    if std::env::var("ABSINT_WRITE_GOLDEN").is_ok() {
        let json = serde_json::to_string_pretty(&current).expect("serialize golden");
        std::fs::write(golden_path(), json + "\n").expect("write golden");
        eprintln!("golden regenerated at {}", golden_path().display());
        return;
    }

    let json = std::fs::read_to_string(golden_path())
        .expect("tests/absint_golden.json is committed; regenerate with ABSINT_WRITE_GOLDEN=1");
    let golden: Golden = serde_json::from_str(&json).expect("golden parses");
    assert!(golden.batch.len() > 3 * SAMPLES, "golden unexpectedly small");

    assert_digests_match("batch", &current.batch, &golden.batch);
    assert_digests_match("incremental cold", &current.incremental_cold, &golden.incremental_cold);
    assert_digests_match("incremental warm", &current.incremental_warm, &golden.incremental_warm);
    assert_eq!(current.stages_after_cold, golden.stages_after_cold, "cold-pass stage counts");
    assert_eq!(current.stages_after_warm, golden.stages_after_warm, "warm-pass stage counts");
}

/// The SCC-parallel mode must reproduce the same golden digests.
#[test]
fn parallel_semantic_engine_matches_the_committed_golden() {
    let json =
        std::fs::read_to_string(golden_path()).expect("tests/absint_golden.json is committed");
    let golden: Golden = serde_json::from_str(&json).expect("golden parses");
    let units = units(&samples());
    let got = batch_digests(&SemanticEngine::new().with_jobs(4), &units);
    assert_digests_match("batch at jobs=4", &got, &golden.batch);
}
