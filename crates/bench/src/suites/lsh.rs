//! `lsh` (`BENCH_lsh.json`, benchmark `clone_lsh`): the MinHash/LSH clone
//! index and the clone-aware dedup path, on a duplicate-heavy corpus (a
//! base set expanded with alpha-renamed near-duplicates, the kind
//! exact-hash dedup cannot fold).
//!
//! - `index_build_jobs{1,4}`: sources shingled, signed and bucketed per
//!   second.
//! - `lsh_query` / `brute_query`: banded-LSH lookup against brute-force
//!   exact Jaccard over all entries of a 10k-entry index.
//! - `dedup_on` / `dedup_off`: cold workflow passes with clone dedup on
//!   (one representative per clone class analyzed) and off.
//!
//! Gates: build throughput keeps half the committed baseline (the number
//! crosses machines and CPU-quota throttling, so only a halving counts);
//! LSH query is at least 2x brute force; dedup is at least 1.2x faster.
//! `--quick` shrinks the corpus; the ratios are size-dependent, so
//! `--check` always measures full size.

use crate::harness::{measure, window, Gate, Measured, Suite};
use std::collections::BTreeMap;
use std::time::Duration;
use vulnman_core::detector::{DetectorRegistry, RuleBasedDetector, SemanticDetector};
use vulnman_core::workflow::{WorkflowConfig, WorkflowEngine};
use vulnman_lang::clone::{CloneConfig, CloneIndex};
use vulnman_obs::Registry;
use vulnman_synth::dataset::{Dataset, DatasetBuilder};
use vulnman_synth::mutate::alpha_rename;

/// The `lsh` suite.
pub const SUITE: Suite = Suite {
    name: "lsh",
    benchmark: "clone_lsh",
    gates: &[
        Gate::VsBaseline { config: "index_build_jobs1", floor: 0.50 },
        Gate::Ratio { num: "lsh_query", den: "brute_query", floor: 2.0 },
        Gate::Ratio { num: "dedup_on", den: "dedup_off", floor: 1.2 },
    ],
    run,
};

/// A duplicate-heavy source corpus: every base sample plus alpha-renamed
/// near-duplicates (distinct salts, so content keys never collide) until
/// `total` sources exist. Alpha renaming keeps function names — the corpus
/// both classifies *and* aligns, like real copy-pasted code.
fn duplicate_heavy_sources(total: usize) -> Vec<String> {
    let base: Vec<String> = DatasetBuilder::new(23)
        .vulnerable_count(total / 40)
        .vulnerable_fraction(0.5)
        .build()
        .samples()
        .iter()
        .map(|s| s.source.clone())
        .collect();
    let mut out = Vec::with_capacity(total);
    let mut salt = 0u32;
    while out.len() < total {
        for src in &base {
            if out.len() >= total {
                break;
            }
            if salt == 0 {
                out.push(src.clone());
            } else {
                out.push(alpha_rename(src, salt).unwrap_or_else(|| src.clone()));
            }
        }
        salt += 1;
    }
    out
}

/// A duplicate-heavy labeled dataset for the workflow dedup measurement:
/// the base corpus with `variants` alpha-renamed copies of each sample
/// (fresh ids, same labels).
fn duplicate_heavy_dataset(base_n: usize, variants: u32) -> Dataset {
    let base = DatasetBuilder::new(29).vulnerable_count(base_n).vulnerable_fraction(0.4).build();
    let mut ds = Dataset::new();
    let mut next_id = base.samples().iter().map(|s| s.id).max().unwrap_or(0) + 1;
    for s in base.samples() {
        ds.push(s.clone());
        for salt in 1..=variants {
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

/// The dedup measurement uses the full clone-invariant suite — rules plus
/// the semantic (absint) checkers, whose fixpoint dominates per-sample
/// cost. That is the configuration dedup exists for: the representative
/// pays the fixpoint once and its clone class rides the cache.
fn mk_engine(dedup: bool) -> WorkflowEngine {
    let mut registry = DetectorRegistry::new();
    registry.register(Box::new(RuleBasedDetector::standard()));
    registry.register(Box::new(SemanticDetector::standard()));
    WorkflowEngine::with_metrics(
        registry,
        WorkflowConfig { jobs: 1, cache: true, dedup, ..Default::default() },
        Registry::noop(),
    )
}

fn run(quick: bool) -> Result<Measured, String> {
    let window = window(quick);
    let sources = duplicate_heavy_sources(if quick { 2_000 } else { 10_000 });
    let entries: Vec<(u64, &str)> =
        sources.iter().enumerate().map(|(i, s)| (i as u64, s.as_str())).collect();
    let mut configs = BTreeMap::new();

    for (name, jobs) in [("index_build_jobs1", 1usize), ("index_build_jobs4", 4)] {
        let config = CloneConfig { jobs, ..CloneConfig::default() };
        let r = measure(window, entries.len() as u64, || CloneIndex::build(&entries, config));
        configs.insert(name.to_string(), r);
    }

    // Query rates against the same warm index.
    let index = CloneIndex::build(&entries, CloneConfig::default());
    let probes: Vec<&str> = sources.iter().step_by(97).map(String::as_str).collect();
    let lsh = measure(window, probes.len() as u64, || {
        for p in &probes {
            std::hint::black_box(index.query(p).expect("probe lexes"));
        }
    });
    // Brute force is orders of magnitude slower; a fraction of the probe
    // set keeps the window honest while measuring the same per-query cost.
    let brute_probes: Vec<&str> = probes.iter().step_by(8).copied().collect();
    let brute = measure(window, brute_probes.len() as u64, || {
        for p in &brute_probes {
            std::hint::black_box(index.query_brute_force(p).expect("probe lexes"));
        }
    });
    configs.insert("lsh_query".to_string(), lsh);
    configs.insert("brute_query".to_string(), brute);

    // Cold workflow passes, a fresh engine per pass, over a heavily
    // duplicated corpus: the plan cost (index build + alignment) is paid
    // once per corpus while the avoided work grows with every extra
    // near-duplicate, the synthetic-duplication pathology the paper names.
    let (base_n, variants) = if quick { (20, 6) } else { (60, 9) };
    let ds = duplicate_heavy_dataset(base_n, variants);
    for (name, dedup) in [("dedup_off", false), ("dedup_on", true)] {
        let r = measure(window.min(Duration::from_secs(1)), ds.len() as u64, || {
            mk_engine(dedup).process(ds.samples())
        });
        configs.insert(name.to_string(), r);
    }
    Ok(Measured { corpus: sources.len(), configs })
}
