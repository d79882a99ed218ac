//! Byte-identity golden for every consumer of the per-program call graph.
//!
//! `tests/callgraph_golden.json` pins, per source unit, one 64-bit FNV-1a
//! digest of:
//!
//! * `reachability::CallGraph::build(..).surfaces()`, the per-function
//!   attack surfaces;
//! * the workflow's unit surface (the `surface` of the unit's case in a
//!   detector-less `WorkflowEngine` run);
//! * `TaintAnalysis::run`'s findings and its summaries, sorted by name.
//!
//! A second list, `taint_variants`, pins per unit of all three corpora one
//! digest of the taint runs the first list does not cover:
//! `TaintAnalysis::run_intraprocedural` under the default vocabulary, and
//! `TaintAnalysis::run` under an extended one (an extra source, an extra
//! sanitizer and a sink dangerous in every argument position). It also
//! covers a small hand-written corpus of shapes the generated corpora never
//! emit: sink calls inside indirect-store targets, and tainted data that
//! reaches only position 0 of the all-positions sink.
//!
//! Three corpora are covered: the absint golden's 800 samples with their
//! alpha-renamed, commented and dead-statement mutants, the audit matrix's
//! 408 vulnerable/fixed pairs, and one `corpus_dedup_graph`-shaped drop
//! (five cross-file samples, each followed by nine renamed copies). The
//! drop's `CorpusGraph` report is pinned as a whole too, since the corpus
//! graph folds surfaces over the same condensation.
//!
//! The golden pins observable output, so it is regenerated only by a change
//! that means to alter it:
//!
//! ```text
//! CALLGRAPH_WRITE_GOLDEN=1 cargo test --release --test callgraph_golden
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::PathBuf;
use vulnman::analysis::CorpusGraph;
use vulnman::lang::AnalysisCache;
use vulnman::prelude::*;
use vulnman::synth::generator::SampleGenerator;
use vulnman::synth::mutate::{alpha_rename, insert_comments, insert_dead_statements};
use vulnman::synth::Sample;

#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct Golden {
    /// One `"<unit> <digest>"` line per absint-golden unit.
    absint: Vec<String>,
    /// One line per audit-corpus unit.
    audit: Vec<String>,
    /// One line per unit of the cross-file drop.
    drop: Vec<String>,
    /// Digest of the drop's serialized `CorpusGraph` report.
    drop_graph: String,
    /// One line per unit of the three corpora above, in that order: the
    /// intraprocedural run and the extended-vocabulary run.
    taint_variants: Vec<String>,
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/callgraph_golden.json")
}

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h = (*h ^ b as u64).wrapping_mul(0x100000001b3);
    }
}

/// The absint golden's samples, each followed by its mutants (same seeds
/// and order as `tests/absint_golden.rs`).
fn absint_units() -> Vec<(String, Sample)> {
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
    let mut rng = StdRng::seed_from_u64(7);
    let mut out = Vec::new();
    for s in ds.iter().take(800) {
        let id = s.id;
        let with = |source: String| Sample { source, ..s.clone() };
        out.push((id.to_string(), s.clone()));
        if let Some(m) = alpha_rename(&s.source, 3) {
            out.push((format!("{id}/rename"), with(m)));
        }
        out.push((format!("{id}/comments"), with(insert_comments(&s.source, &mut rng))));
        if let Some(m) = insert_dead_statements(&s.source, &mut rng) {
            out.push((format!("{id}/dead"), with(m)));
        }
    }
    out
}

/// The audit matrix's default corpus: 12 vulnerable/fixed pairs per class.
fn audit_units() -> Vec<(String, Sample)> {
    let mut out = Vec::new();
    for cwe in Cwe::ALL {
        let mut generator =
            SampleGenerator::new(0xA0D1 ^ ((cwe.id() as u64) << 17), StyleProfile::mainstream());
        for i in 0..12 {
            let (vuln, fixed) = generator.vulnerable_pair(cwe, Tier::Curated, "audit");
            out.push((format!("cwe{}/{i}/vuln", cwe.id()), vuln));
            out.push((format!("cwe{}/{i}/fixed", cwe.id()), fixed));
        }
    }
    out
}

/// The first `corpus_dedup_graph` drop at seed 1: five cross-file samples,
/// each followed by its nine alpha-renamed copies.
fn drop_units() -> Vec<(String, Sample)> {
    let base = DatasetBuilder::new(1)
        .vulnerable_count(200)
        .cwe_distribution(CweDistribution::uniform())
        .cross_file_links(true)
        .build()
        .shuffled(1);
    let mut next_id = base.samples().iter().map(|s| s.id).max().unwrap_or(0) + 1;
    let mut out = Vec::new();
    for s in &base.samples()[..5] {
        out.push((s.id.to_string(), s.clone()));
        for salt in 1..=9 {
            if let Some(renamed) = alpha_rename(&s.source, salt) {
                let dup =
                    Sample { id: next_id, source: renamed, duplicate_of: Some(s.id), ..s.clone() };
                next_id += 1;
                out.push((format!("{}/rename{salt}", s.id), dup));
            }
        }
    }
    out
}

/// One golden line per unit.
fn digests(units: &[(String, Sample)]) -> Vec<String> {
    let samples: Vec<Sample> = units.iter().map(|(_, s)| s.clone()).collect();
    let workflow = WorkflowEngine::new(DetectorRegistry::new(), WorkflowConfig::default());
    let report = workflow.process(&samples);
    assert_eq!(report.cases.len(), units.len(), "one case per unit");
    let config = TaintConfig::default_config();
    units
        .iter()
        .zip(&report.cases)
        .map(|((unit, sample), case)| {
            let program = parse(&sample.source).expect("corpus unit parses");
            let taint = TaintAnalysis::run(&program, &config);
            let summaries: BTreeMap<&String, _> = taint.summaries.iter().collect();
            let mut h = 0xcbf29ce484222325u64;
            fnv(&mut h, format!("{:?}", CallGraph::build(&program).surfaces()).as_bytes());
            fnv(&mut h, format!("{:?}", case.surface).as_bytes());
            fnv(&mut h, format!("{:?}", taint.findings).as_bytes());
            fnv(&mut h, format!("{summaries:?}").as_bytes());
            format!("{unit} {h:016x}")
        })
        .collect()
}

/// The default vocabulary plus `to_int` as a source, `concat` as a
/// sanitizer and `send_data` as a sink in every argument position.
fn extended_config() -> TaintConfig {
    let mut config = TaintConfig::default_config();
    config.add_source("to_int").add_sanitizer("concat").add_sink("send_data", vec![], "egress");
    config
}

/// Hand-written taint units, `(name, source)`: sink calls in the target of
/// an indirect store (an index or a dereferenced call), directly and
/// through a parameter, and tainted data reaching only position 0 of the
/// extended vocabulary's all-positions sink `send_data`, directly, through
/// a parameter, through the extra source and behind the extra sanitizer.
const TAINT_UNITS: [(&str, &str); 8] = [
    (
        "store/index",
        r#"void f(char* buf) { char* q = read_input(); buf[send_data(q)] = 0; buf[exec_query(q)] = 1; }"#,
    ),
    (
        "store/deref",
        r#"void f() { char* q = read_input(); *lookup(send_data(q, 1)) = 1; *lookup(system(q)) = 2; }"#,
    ),
    (
        "store/param",
        r#"void put(char* p, char* buf) { buf[send_data(p)] = 0; *slot(exec_query(p)) = 1; }
void caller() { char b[8]; put(read_input(), b); }"#,
    ),
    ("pos0/direct", r#"void f() { char* t = read_input(); send_data(t, "x", 3); }"#),
    (
        "pos0/param",
        r#"void emit(char* a, int n) { send_data(a, "y", n); }
void caller() { emit(getenv("HOME"), 2); }"#,
    ),
    ("pos0/extra-source", r#"void f() { int n = to_int(http_param("n")); send_data(n, 0); }"#),
    ("pos0/sanitized", r#"void f() { char* t = read_input(); send_data(concat(t), "x"); }"#),
    ("pos1/control", r#"void f() { char* t = read_input(); send_data("x", t); }"#),
];

/// One `taint_variants` line per unit.
fn variant_digests(units: &[(String, Sample)]) -> Vec<String> {
    units.iter().map(|(unit, sample)| variant_digest(unit, &sample.source)).collect()
}

fn variant_digest(unit: &str, source: &str) -> String {
    let program = parse(source).expect("corpus unit parses");
    let intra = TaintAnalysis::run_intraprocedural(&program, &TaintConfig::default_config());
    let inter = TaintAnalysis::run(&program, &extended_config());
    let summaries: BTreeMap<&String, _> = inter.summaries.iter().collect();
    let mut h = 0xcbf29ce484222325u64;
    fnv(&mut h, format!("{:?}", intra.findings).as_bytes());
    fnv(&mut h, format!("{:?}", inter.findings).as_bytes());
    fnv(&mut h, format!("{summaries:?}").as_bytes());
    format!("{unit} {h:016x}")
}

fn measure() -> Golden {
    let absint = absint_units();
    let audit = audit_units();
    let drop = drop_units();
    let samples: Vec<Sample> = drop.iter().map(|(_, s)| s.clone()).collect();
    let graph = CorpusGraph::from_samples(&samples, &AnalysisCache::new(), 1, &Registry::noop())
        .expect("drop parses");
    let mut h = 0xcbf29ce484222325u64;
    fnv(&mut h, serde_json::to_string(&graph.report()).expect("report serializes").as_bytes());
    Golden {
        absint: digests(&absint),
        audit: digests(&audit),
        drop: digests(&drop),
        drop_graph: format!("{h:016x}"),
        taint_variants: [absint, audit, drop]
            .iter()
            .flat_map(|u| variant_digests(u))
            .chain(TAINT_UNITS.iter().map(|(unit, source)| variant_digest(unit, source)))
            .collect(),
    }
}

fn assert_digests_match(what: &str, got: &[String], want: &[String]) {
    assert_eq!(got.len(), want.len(), "{what}: unit count changed");
    let diverged = got.iter().zip(want).filter(|(g, w)| g != w).count();
    if let Some((g, w)) = got.iter().zip(want).find(|(g, w)| g != w) {
        panic!(
            "{what}: {diverged} of {} units diverge from tests/callgraph_golden.json; the first \
             is `{g}` (golden `{w}`)",
            got.len()
        );
    }
}

#[test]
fn call_graph_consumers_match_the_committed_golden() {
    let current = measure();

    if std::env::var("CALLGRAPH_WRITE_GOLDEN").is_ok() {
        let json = serde_json::to_string_pretty(&current).expect("serialize golden");
        std::fs::write(golden_path(), json + "\n").expect("write golden");
        eprintln!("golden regenerated at {}", golden_path().display());
        return;
    }

    let json = std::fs::read_to_string(golden_path()).expect(
        "tests/callgraph_golden.json is committed; regenerate with CALLGRAPH_WRITE_GOLDEN=1",
    );
    let golden: Golden = serde_json::from_str(&json).expect("golden parses");
    assert!(golden.absint.len() > 3 * 800, "golden unexpectedly small");
    assert_eq!(golden.audit.len(), 408, "audit corpus size");

    assert_digests_match("absint corpus", &current.absint, &golden.absint);
    assert_digests_match("audit corpus", &current.audit, &golden.audit);
    assert_digests_match("cross-file drop", &current.drop, &golden.drop);
    assert_eq!(current.drop_graph, golden.drop_graph, "cross-file drop graph report");
    assert_digests_match("taint variants", &current.taint_variants, &golden.taint_variants);
}
