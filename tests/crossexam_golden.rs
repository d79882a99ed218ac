//! Byte-identity golden for the cross-examination layer: the audit matrix,
//! the differential oracle and the server's `oracle` responses.
//!
//! Every digest below is a 64-bit FNV-1a hash of serialized output:
//!
//! * the default `AuditReport` with the trained ML column, at jobs 1 and 4;
//! * `run` and `run_with_clones` over the CI smoke corpus (seed 42, 100
//!   vulnerable samples, 20% prevalence, 5% label noise), at jobs 1 with
//!   the cache on and at jobs 4 with the cache off;
//! * 50 `oracle` responses from a fresh `ServiceCore`, once cold and once
//!   with each request preceded by an `analyze` of the same source.
//!
//! The audit gate only catches lost coverage or new false positives, and
//! the oracle's own tests compare runs with each other; this file pins the
//! exact bytes. The values were computed once, before the audit and the
//! oracle became reductions over one per-unit views record, and are never
//! regenerated: a change that moves one cell count, one disagreement or
//! one response byte fails here.

use std::sync::Mutex;
use vulnman::analysis::oracle::{DifferentialOracle, OracleConfig};
use vulnman::analysis::{AuditConfig, AuditEngine};
use vulnman::lang::AnalysisCache;
use vulnman::prelude::*;
use vulnman::serve::{Request, ServiceCore};
use vulnman::synth::Sample;

/// Default audit with the ML column at jobs 1 and jobs 4.
const AUDIT_GOLDEN: [u64; 2] = [0x7355f704dd0ce55e, 0x7355f704dd0ce55e];

/// `run`, `run_with_clones` at (jobs 1, cache on), then the same two at
/// (jobs 4, cache off).
const ORACLE_GOLDEN: [u64; 4] =
    [0xd159cf8626fafc68, 0xb324dd22d6e23ede, 0xd159cf8626fafc68, 0xb324dd22d6e23ede];

/// 50 serve `oracle` responses: cold, then each after an `analyze`.
const SERVE_GOLDEN: [u64; 2] = [0x5fe2ac6c6d9306c3, 0x5fe2ac6c6d9306c3];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// The smoke corpus CI's oracle job and `tests/golden_oracle/` are pinned to.
fn smoke_corpus() -> Dataset {
    DatasetBuilder::new(42).vulnerable_count(100).vulnerable_fraction(0.2).label_noise(0.05).build()
}

#[test]
fn audit_reports_match_the_golden() {
    let digests: Vec<u64> = [1, 4]
        .into_iter()
        .map(|jobs| {
            let config = AuditConfig { jobs, ..AuditConfig::default() };
            let report = AuditEngine::new(config)
                .with_ml(vulnman::core::audit_ml_verdict(config.seed))
                .run();
            fnv1a(serde_json::to_string(&report).expect("report serializes").as_bytes())
        })
        .collect();
    assert_eq!(digests, AUDIT_GOLDEN, "audit report bytes drifted: {digests:#x?}");
}

#[test]
fn oracle_reports_match_the_golden() {
    let ds = smoke_corpus();
    let mut digests = Vec::new();
    for (jobs, cache) in [(1, AnalysisCache::new()), (4, AnalysisCache::disabled())] {
        let oracle = DifferentialOracle::with_config(OracleConfig { jobs });
        for report in
            [oracle.run(ds.samples(), &cache), oracle.run_with_clones(ds.samples(), &cache)]
        {
            digests.push(fnv1a(serde_json::to_string(&report).expect("serializes").as_bytes()));
        }
    }
    assert_eq!(digests, ORACLE_GOLDEN, "oracle report bytes drifted: {digests:#x?}");
}

fn request(id: u64, kind: &str, sample: &Sample) -> Request {
    Request {
        id,
        kind: kind.into(),
        source: sample.source.clone(),
        label: Some(sample.label),
        cwe: sample.cwe.map(|c| {
            serde_json::to_string(&c).expect("cwe serializes").trim_matches('"').to_string()
        }),
    }
}

#[test]
fn serve_oracle_responses_match_the_golden() {
    let ds = smoke_corpus();
    let samples = &ds.samples()[..50];
    let mut digests = Vec::new();
    for warm in [false, true] {
        let core = ServiceCore::new(&Registry::new(), &FaultConfig::default());
        let ledger = Mutex::new(DegradationSummary::default());
        let mut stream = String::new();
        for (i, s) in samples.iter().enumerate() {
            let id = i as u64;
            if warm {
                let analyzed = core.handle(&request(id, "analyze", s), &ledger);
                assert_eq!(analyzed.status, "ok", "{analyzed:?}");
            }
            stream.push_str(&core.handle(&request(id, "oracle", s), &ledger).encode());
        }
        digests.push(fnv1a(stream.as_bytes()));
    }
    assert_eq!(digests, SERVE_GOLDEN, "serve oracle responses drifted: {digests:#x?}");
}
