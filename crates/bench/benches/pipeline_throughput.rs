//! Criterion benches: workflow-engine, generator, taint, and anonymizer
//! throughput — the compute-cost side of the paper's financial argument.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::SeedableRng;
use vulnman_core::anonymize::{Anonymizer, Strength};
use vulnman_core::detector::{DetectorRegistry, RuleBasedDetector};
use vulnman_core::workflow::{WorkflowConfig, WorkflowEngine};
use vulnman_lang::taint::{TaintAnalysis, TaintConfig};
use vulnman_synth::dataset::{Dataset, DatasetBuilder};
use vulnman_synth::emit::EmitCtx;
use vulnman_synth::style::StyleProfile;
use vulnman_synth::templates;
use vulnman_synth::tier::Tier;

fn corpus(n: usize) -> Dataset {
    DatasetBuilder::new(11).vulnerable_count(n).vulnerable_fraction(0.3).build()
}

fn mk_engine(jobs: usize, cache: bool) -> WorkflowEngine {
    let mut registry = DetectorRegistry::new();
    registry.register(Box::new(RuleBasedDetector::standard()));
    WorkflowEngine::new(registry, WorkflowConfig { jobs, cache, ..Default::default() })
}

fn mk_engine_noop_metrics(jobs: usize, cache: bool) -> WorkflowEngine {
    let mut registry = DetectorRegistry::new();
    registry.register(Box::new(RuleBasedDetector::standard()));
    WorkflowEngine::with_metrics(
        registry,
        WorkflowConfig { jobs, cache, ..Default::default() },
        vulnman_obs::Registry::noop(),
    )
}

fn bench_workflow(c: &mut Criterion) {
    let ds = corpus(12);
    let engine = mk_engine(1, true);
    let mut group = c.benchmark_group("workflow");
    group.sample_size(10);
    group.throughput(Throughput::Elements(ds.len() as u64));
    group.bench_function("sequential", |b| b.iter(|| engine.process(ds.samples())));
    group.finish();
}

/// Shard-scaling of the Figure-1 pipeline: the same corpus at jobs ∈ {1, 2,
/// 4} with caching off, so every iteration measures the full analysis cost
/// (thread scaling tracks available cores), plus the full parallel+cached
/// pipeline at jobs=4 — the configuration that must clear ≥2× the jobs=1
/// baseline's throughput.
fn bench_workflow_scaling(c: &mut Criterion) {
    let ds = corpus(60);
    let mut group = c.benchmark_group("workflow_scaling");
    group.throughput(Throughput::Elements(ds.len() as u64));
    for jobs in [1usize, 2, 4] {
        let engine = mk_engine(jobs, false);
        group.bench_with_input(BenchmarkId::new("jobs", jobs), &ds, |b, ds| {
            b.iter(|| engine.process(ds.samples()))
        });
    }
    let full = mk_engine(4, true);
    full.process(ds.samples()); // prime the cache
    group.bench_function("jobs4_cached", |b| b.iter(|| full.process(ds.samples())));
    // Observability overhead on the jobs=1 uncached workload: `jobs/1`
    // above runs the default *recording* registry (budget: within 15% of
    // pre-instrumentation throughput); the Noop recorder below must be
    // within 5% — every instrument is a predicted branch and spans never
    // read the clock.
    let noop = mk_engine_noop_metrics(1, false);
    group.bench_function("jobs1_noop_metrics", |b| b.iter(|| noop.process(ds.samples())));
    group.finish();
}

/// Value of the content-addressed cache on a duplicate-heavy corpus
/// (Gap Observation 4's duplicate slices): cold = every run pays full
/// analysis cost; warm = repeated content is served from the cache.
fn bench_workflow_cache(c: &mut Criterion) {
    let ds = DatasetBuilder::new(11)
        .vulnerable_count(30)
        .vulnerable_fraction(0.3)
        .duplication_factor(3)
        .build();
    let mut group = c.benchmark_group("workflow_cache");
    group.throughput(Throughput::Elements(ds.len() as u64));
    let cold = mk_engine(1, false);
    group.bench_function("cold_no_cache", |b| b.iter(|| cold.process(ds.samples())));
    let warm = mk_engine(1, true);
    warm.process(ds.samples()); // prime
    group.bench_function("warm_cached", |b| b.iter(|| warm.process(ds.samples())));
    let combined = mk_engine(4, true);
    combined.process(ds.samples()); // prime
    group.bench_function("warm_cached_jobs4", |b| b.iter(|| combined.process(ds.samples())));
    group.finish();
}

fn bench_generation(c: &mut Criterion) {
    let style = StyleProfile::mainstream();
    let mut group = c.benchmark_group("corpus_generation");
    for tier in Tier::ALL {
        group.bench_with_input(BenchmarkId::from_parameter(tier), &tier, |b, &tier| {
            let mut rng = StdRng::seed_from_u64(5);
            b.iter(|| {
                let mut ctx = EmitCtx::new(&style, tier, &mut rng);
                templates::generate(vulnman_synth::cwe::Cwe::SqlInjection, &mut ctx)
            })
        });
    }
    group.finish();
}

fn bench_taint(c: &mut Criterion) {
    let ds = corpus(20);
    let programs: Vec<_> = ds.iter().filter_map(|s| vulnman_lang::parse(&s.source).ok()).collect();
    let config = TaintConfig::default_config();
    let mut group = c.benchmark_group("taint_analysis");
    group.throughput(Throughput::Elements(programs.len() as u64));
    group.bench_function("interprocedural", |b| {
        b.iter(|| {
            programs.iter().map(|p| TaintAnalysis::run(p, &config).findings.len()).sum::<usize>()
        })
    });
    group.finish();
}

fn bench_anonymizer(c: &mut Criterion) {
    let ds = corpus(20);
    let mut group = c.benchmark_group("anonymizer");
    group.throughput(Throughput::Elements(ds.len() as u64));
    for strength in [Strength::Light, Strength::Standard, Strength::Aggressive] {
        let anonymizer = Anonymizer::new(strength);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{strength:?}")),
            &ds,
            |b, ds| b.iter(|| ds.iter().filter_map(|s| anonymizer.anonymize(s)).count()),
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_workflow,
    bench_workflow_scaling,
    bench_workflow_cache,
    bench_generation,
    bench_taint,
    bench_anonymizer
);
criterion_main!(benches);
