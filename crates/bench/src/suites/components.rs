//! `components` (`BENCH_components.json`, benchmark `components`): what
//! each detector and stage costs on its own — the compute-cost side of the
//! paper's financial argument (Gap Observation 3 asks what a detector costs
//! per thousand samples). No gate; CI runs it `--quick` as a smoke.
//!
//! Config names are `group/parameter`:
//! - `rule_engine_scan/<tier>`: rule suite over 20-vulnerable corpora.
//! - `ml_inference/<model>`, `ml_training/<model>`: the model zoo.
//! - `workflow/sequential`, `workflow_cache/*`: the workflow at jobs 1 and
//!   the content-addressed cache on a duplicate-heavy corpus.
//! - `corpus_generation/<tier>`, `taint_analysis/interprocedural`,
//!   `anonymizer/<strength>`.
//! - `absint_solver_scaling/f<functions>_d<depth>`,
//!   `absint_cache/{cold,warm,edit}`.
//! - `absint_domain/<domain>`: one domain pass (solves and return
//!   summaries, no checker) over a fixed-seed pool of 256 samples shaped
//!   like perfbench's `batch_cold` (every CWE class, shuffled), with the
//!   per-program substrates and function shapes already built.
//! - `absint_analyze/batch_pool`: `SemanticEngine::analyze` (substrate,
//!   shapes, all six passes and their checkers) over the same pool.
//! - `faulted_workflow/rate/<percent>`: jobs 4 with seeded transient
//!   faults; rate 0 is the cost of carrying an injector.
//!
//! Windows are 300 ms (30 ms under `--quick`), after one untimed call.

use crate::harness::{measure, Config, Measured, Suite};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;
use vulnman_analysis::checkers::SemanticEngine;
use vulnman_analysis::detectors::RuleEngine;
use vulnman_core::anonymize::{Anonymizer, Strength};
use vulnman_core::detector::{DetectorRegistry, RuleBasedDetector};
use vulnman_core::workflow::{WorkflowConfig, WorkflowEngine};
use vulnman_faults::{FaultConfig, FaultMix};
use vulnman_lang::absint::{
    Domain, InitDomain, IntervalDomain, NullnessDomain, OwnershipDomain, ProvenanceDomain,
    SolverConfig, Substrate, Summaries, WidthDomain,
};
use vulnman_lang::ast::Program;
use vulnman_lang::taint::{TaintAnalysis, TaintConfig};
use vulnman_lang::{parse, AnalysisCache};
use vulnman_ml::pipeline::model_zoo;
use vulnman_ml::split::stratified_split;
use vulnman_obs::Registry;
use vulnman_serve::SERVE_CACHE_ENTRY_LIMIT;
use vulnman_synth::dataset::{Dataset, DatasetBuilder};
use vulnman_synth::emit::EmitCtx;
use vulnman_synth::style::StyleProfile;
use vulnman_synth::templates;
use vulnman_synth::tier::Tier;
use vulnman_synth::CweDistribution;

/// The `components` suite.
pub const SUITE: Suite = Suite { name: "components", benchmark: "components", gates: &[], run };

/// Configs measured so far, each after one untimed warm-up call.
struct Bench {
    window: Duration,
    configs: BTreeMap<String, Config>,
}

impl Bench {
    fn run<T>(&mut self, name: impl Into<String>, elems: u64, mut work: impl FnMut() -> T) {
        std::hint::black_box(work());
        self.configs.insert(name.into(), measure(self.window, elems, work));
    }
}

fn tier_corpus(tier: Tier, n: usize, seed: u64) -> Dataset {
    DatasetBuilder::new(seed)
        .vulnerable_count(n)
        .vulnerable_fraction(0.5)
        .tier_mix(vec![(tier, 1.0)])
        .build()
}

fn corpus(n: usize) -> Dataset {
    DatasetBuilder::new(11).vulnerable_count(n).vulnerable_fraction(0.3).build()
}

fn rules_engine(jobs: usize, cache: bool) -> WorkflowEngine {
    let mut registry = DetectorRegistry::new();
    registry.register(Box::new(RuleBasedDetector::standard()));
    WorkflowEngine::new(registry, WorkflowConfig { jobs, cache, ..Default::default() })
}

fn detectors(b: &mut Bench) {
    let engine = RuleEngine::default_suite();
    for tier in Tier::ALL {
        let ds = tier_corpus(tier, 20, 42);
        b.run(format!("rule_engine_scan/{tier}"), ds.len() as u64, || {
            ds.iter().map(|s| engine.scan_source(&s.source).map_or(0, |f| f.len())).sum::<usize>()
        });
    }

    let train = DatasetBuilder::new(7).vulnerable_count(100).build();
    let split = stratified_split(&train, 0.2, 1);
    let eval = tier_corpus(Tier::Curated, 20, 43);
    for mut model in model_zoo(3) {
        model.train(&split.train);
        b.run(format!("ml_inference/{}", model.name()), eval.len() as u64, || {
            model.predict_all(&eval)
        });
    }

    let ds = DatasetBuilder::new(9).vulnerable_count(60).build();
    for template in ["token-lr", "graph-rf", "stat-nb"] {
        b.run(format!("ml_training/{template}"), 1, || {
            let mut model =
                model_zoo(5).into_iter().find(|m| m.name() == template).expect("model present");
            model.train(&ds);
            model
        });
    }
}

fn workflow(b: &mut Bench) {
    let ds = corpus(12);
    let engine = rules_engine(1, true);
    b.run("workflow/sequential", ds.len() as u64, || engine.process(ds.samples()));

    // Value of the content-addressed cache on a duplicate-heavy corpus
    // (Gap Observation 4's duplicate slices).
    let ds = DatasetBuilder::new(11)
        .vulnerable_count(30)
        .vulnerable_fraction(0.3)
        .duplication_factor(3)
        .build();
    for (name, jobs, cache) in
        [("cold_no_cache", 1, false), ("warm_cached", 1, true), ("warm_cached_jobs4", 4, true)]
    {
        let engine = rules_engine(jobs, cache);
        b.run(format!("workflow_cache/{name}"), ds.len() as u64, || engine.process(ds.samples()));
    }

    let ds = corpus(60);
    for rate_pct in [0u32, 1, 5, 10] {
        let mut registry = DetectorRegistry::new();
        registry.register(Box::new(RuleBasedDetector::standard()));
        let faults = FaultConfig {
            seed: 11,
            rate: f64::from(rate_pct) / 100.0,
            mix: FaultMix::transient_only(),
            ..Default::default()
        };
        let engine = WorkflowEngine::with_fault_config(
            registry,
            WorkflowConfig { jobs: 4, cache: false, ..Default::default() },
            faults,
        );
        b.run(format!("faulted_workflow/rate/{rate_pct}"), ds.len() as u64, || {
            engine.process(ds.samples())
        });
    }
}

fn generation_taint_anonymizer(b: &mut Bench) {
    let style = StyleProfile::mainstream();
    for tier in Tier::ALL {
        let mut rng = StdRng::seed_from_u64(5);
        b.run(format!("corpus_generation/{tier}"), 1, || {
            let mut ctx = EmitCtx::new(&style, tier, &mut rng);
            templates::generate(vulnman_synth::cwe::Cwe::SqlInjection, &mut ctx)
        });
    }

    let ds = corpus(20);
    let programs: Vec<_> = ds.iter().filter_map(|s| parse(&s.source).ok()).collect();
    let config = TaintConfig::default_config();
    b.run("taint_analysis/interprocedural", programs.len() as u64, || {
        programs.iter().map(|p| TaintAnalysis::run(p, &config).findings.len()).sum::<usize>()
    });

    for strength in [Strength::Light, Strength::Standard, Strength::Aggressive] {
        let anonymizer = Anonymizer::new(strength);
        b.run(format!("anonymizer/{strength:?}"), ds.len() as u64, || {
            ds.iter().filter_map(|s| anonymizer.anonymize(s)).count()
        });
    }
}

/// One function with `depth` nested counting loops around an accumulator
/// the interval domain has to widen, plus a branch that keeps the join
/// non-trivial for nullness/init.
fn absint_function(name: &str, depth: usize) -> String {
    let mut body = String::new();
    for d in 0..depth {
        let pad = "    ".repeat(d + 1);
        body.push_str(&format!("{pad}int i{d} = 0;\n{pad}while (i{d} < 100) {{\n"));
    }
    let pad = "    ".repeat(depth + 1);
    body.push_str(&format!(
        "{pad}if (acc < 1000) {{\n{pad}    acc = acc + 3;\n{pad}}} else {{\n{pad}    acc = acc - 1;\n{pad}}}\n"
    ));
    for d in (0..depth).rev() {
        let pad = "    ".repeat(d + 1);
        body.push_str(&format!("{pad}    i{d} = i{d} + 1;\n{pad}}}\n"));
    }
    format!("int {name}(int n) {{\n    int acc = 0;\n{body}    return acc;\n}}\n")
}

/// A program of `functions` chained helpers (each calls the next, so the
/// interprocedural summary pass does real bottom-up work) at a given loop
/// `depth`.
fn absint_program(functions: usize, depth: usize) -> String {
    let mut src = String::new();
    for f in 0..functions {
        src.push_str(&absint_function(&format!("stage{f}"), depth));
        src.push('\n');
    }
    src.push_str("int main() {\n    int total = 0;\n");
    for f in 0..functions {
        src.push_str(&format!("    total = total + stage{f}({f});\n"));
    }
    src.push_str("    return total;\n}\n");
    src
}

/// The fixpoint's cost against program size (function count x loop
/// nesting depth), and [`SemanticEngine::findings_cached`] on a fresh
/// cache (`cold`), on a repeat (`warm`) and on a one-function edit after a
/// warm base (`edit`).
fn absint(b: &mut Bench) {
    let engine = SemanticEngine::new();
    for (functions, depth) in [(1, 1), (4, 1), (16, 1), (4, 3), (4, 5), (16, 3)] {
        let parsed = parse(&absint_program(functions, depth)).expect("synthetic program parses");
        b.run(format!("absint_solver_scaling/f{functions}_d{depth}"), functions as u64, || {
            engine.analyze(&parsed).stats.iterations
        });
    }

    let scan = |source: &str, cache: &AnalysisCache| {
        let key = AnalysisCache::content_key(source);
        let program = cache.parse_keyed(key, source).expect("synthetic program parses");
        engine.findings_cached(key, source, &program, cache, &Registry::noop()).len()
    };
    let source = absint_program(8, 3);
    b.run("absint_cache/cold", 1, || scan(&source, &AnalysisCache::new()));
    let cache = AnalysisCache::new();
    b.run("absint_cache/warm", 1, || scan(&source, &cache));
    // Each edit changes the return of `main`, the last function, so no
    // other function moves; the cache is bounded like a server's, since
    // every edit is a new unit version.
    let cache = AnalysisCache::new().with_entry_limit(SERVE_CACHE_ENTRY_LIMIT);
    scan(&source, &cache);
    let mut edit = 0;
    b.run("absint_cache/edit", 1, || {
        edit += 1;
        scan(&source.replace("return total;", &format!("return total + {edit};")), &cache)
    });
}

/// The `absint_domain/*` and `absint_analyze/*` pool: 256 samples (128
/// vulnerable at the generator's 1:1 balance) over every CWE class,
/// shuffled, as perfbench's `batch_cold` builds its pool, parsed once.
fn batch_pool() -> Vec<Program> {
    let pool = DatasetBuilder::new(7)
        .vulnerable_count(128)
        .cwe_distribution(CweDistribution::uniform())
        .build()
        .shuffled(7);
    pool.samples().iter().map(|s| parse(&s.source).expect("generated samples parse")).collect()
}

/// Each domain pass on its own, then the whole semantic engine, over
/// [`batch_pool`].
fn absint_pool(b: &mut Bench) {
    let programs = batch_pool();
    let n = programs.len() as u64;
    let substrates: Vec<Substrate<'_>> = programs.iter().map(Substrate::new).collect();
    fn pass<D, M>(b: &mut Bench, name: &str, subs: &[Substrate<'_>], n: u64, make: M)
    where
        D: Domain,
        D::Value: Send + Sync + 'static,
        M: Fn(Arc<Summaries<D::Value>>) -> D + Sync,
    {
        b.run(format!("absint_domain/{name}"), n, || {
            subs.iter()
                .map(|s| s.run(SolverConfig::default(), 1, 0, &make, |_| ()).stats.iterations)
                .sum::<u64>()
        });
    }
    pass(b, "interval", &substrates, n, IntervalDomain::with_summaries);
    pass(b, "nullness", &substrates, n, NullnessDomain::with_summaries);
    pass(b, "init", &substrates, n, |_| InitDomain);
    pass(b, "ownership", &substrates, n, OwnershipDomain::with_summaries);
    pass(b, "width", &substrates, n, WidthDomain::with_summaries);
    pass(b, "provenance", &substrates, n, ProvenanceDomain::with_summaries);

    let engine = SemanticEngine::new();
    b.run("absint_analyze/batch_pool", n, || {
        programs.iter().map(|p| engine.analyze(p).findings.len()).sum::<usize>()
    });
}

fn run(quick: bool) -> Result<Measured, String> {
    let window = Duration::from_millis(if quick { 30 } else { 300 });
    let mut b = Bench { window, configs: BTreeMap::new() };
    detectors(&mut b);
    workflow(&mut b);
    generation_taint_anonymizer(&mut b);
    absint(&mut b);
    absint_pool(&mut b);
    Ok(Measured { corpus: 0, configs: b.configs })
}
