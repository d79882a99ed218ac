//! `BENCH_graph.json` generator: the committed performance trajectory of
//! the whole-corpus call graph (`vulnman_analysis::corpusgraph`).
//!
//! Measured on a cross-file corpus (projects whose units genuinely call
//! into each other, so edge resolution and the closure/centrality passes do
//! real work):
//!
//! 1. **Build throughput** — units parsed, linked, and analyzed per second
//!    (closures, surfaces, communities, blast radii), at jobs ∈ {1, 4},
//!    cache disabled (cold parse every pass).
//! 2. **Warm-cache build** — the same build through a warm
//!    [`AnalysisCache`]: parses are memoized, so the number isolates the
//!    graph analytics themselves.
//! 3. **Report generation** — the first `report()` of a freshly built
//!    graph, serialized. Betweenness is computed on that first call, so
//!    it is charged here and not to the builds: read build and report
//!    together when comparing with entries from before that split.
//!
//! CI re-measures with `--check` and fails when cold jobs1 build throughput
//! falls below half the committed baseline (cross-machine number; only a
//! halving — an algorithmic regression, not scheduler noise — trips it).
//! `--check` also re-asserts the determinism contract: the jobs1 and jobs4
//! reports must serialize byte-identically.
//!
//! Usage: `bench_graph [--quick] [--out FILE] [--label STR] [--check]`

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};
use vulnman_analysis::corpusgraph::CorpusGraph;
use vulnman_lang::AnalysisCache;
use vulnman_obs::Registry;
use vulnman_synth::dataset::{Dataset, DatasetBuilder};

/// One measured configuration (e.g. `build_jobs1`).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ConfigResult {
    /// Elements (units built or reports rendered) per second, sustained.
    throughput_elem_per_s: f64,
    /// Timed iterations behind the throughput number.
    iters: u64,
    /// Mean wall time per iteration, milliseconds.
    ms_per_iter: f64,
}

/// One entry in the committed trajectory.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Entry {
    /// Human label for the measurement.
    label: String,
    /// Seconds since the Unix epoch at measurement time.
    unix_time: u64,
    /// Whether this was a `--quick` (CI-sized) run.
    quick: bool,
    /// Units in the corpus.
    corpus: usize,
    /// Results keyed by configuration name.
    configs: BTreeMap<String, ConfigResult>,
}

/// The whole `BENCH_graph.json` document.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Trajectory {
    /// Benchmark identity; always `corpus_graph`.
    benchmark: String,
    /// Measurement entries, oldest first.
    history: Vec<Entry>,
}

/// A cross-file corpus: sibling units of each project bridge-call into each
/// other, so the graph has real cross-unit edges to resolve and traverse.
fn cross_file_corpus(vulnerable: usize) -> Dataset {
    DatasetBuilder::new(37)
        .vulnerable_count(vulnerable)
        .vulnerable_fraction(0.4)
        .cross_file_links(true)
        .build()
}

/// Repeats `work` until `window` closes (at least once); returns a config
/// where one "element" is `elems_per_iter` units of the measured quantity.
fn measure(window: Duration, elems_per_iter: u64, mut work: impl FnMut()) -> ConfigResult {
    let start = Instant::now();
    let mut iters = 0u64;
    while iters == 0 || start.elapsed() < window {
        work();
        iters += 1;
    }
    let secs = start.elapsed().as_secs_f64();
    ConfigResult {
        throughput_elem_per_s: (iters * elems_per_iter) as f64 / secs,
        iters,
        ms_per_iter: secs * 1e3 / iters as f64,
    }
}

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1).cloned())
}

fn throughput(entry: &Entry, key: &str) -> f64 {
    entry.configs.get(key).map(|c| c.throughput_elem_per_s).unwrap_or(0.0)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let check = args.iter().any(|a| a == "--check");
    let out = arg_value(&args, "--out").unwrap_or_else(|| "BENCH_graph.json".into());
    let label = arg_value(&args, "--label").unwrap_or_else(|| "measurement".into());
    // The gate compares against the committed full-size baseline, so
    // --check keeps the full corpus and window like bench_lsh.
    if quick && check {
        println!("bench_graph: --check forces the full corpus and window (ignoring --quick)");
    }
    let full = !quick || check;
    let vulnerable = if full { 100 } else { 25 };
    let window = if full { Duration::from_secs(2) } else { Duration::from_millis(400) };

    let ds = cross_file_corpus(vulnerable);
    let metrics = Registry::noop();
    println!("bench_graph: {} cross-file units, window {window:?}", ds.len());

    let mut configs = BTreeMap::new();

    // Cold builds: every pass re-parses (cache disabled), so the number
    // covers the whole pipeline at each worker count.
    for (name, jobs) in [("build_jobs1", 1usize), ("build_jobs4", 4)] {
        let r = measure(window, ds.len() as u64, || {
            let cache = AnalysisCache::disabled();
            std::hint::black_box(
                CorpusGraph::from_samples(ds.samples(), &cache, jobs, &metrics)
                    .expect("corpus parses"),
            );
        });
        println!("  {name:<14} {:>10.0} units/s", r.throughput_elem_per_s);
        configs.insert(name.to_string(), r);
    }

    // Warm-cache build: parses are memoized after the first pass, so this
    // isolates linking + closures + centrality + communities.
    let cache = AnalysisCache::new();
    let _ = CorpusGraph::from_samples(ds.samples(), &cache, 1, &metrics).expect("corpus parses");
    let warm = measure(window, ds.len() as u64, || {
        std::hint::black_box(
            CorpusGraph::from_samples(ds.samples(), &cache, 1, &metrics).expect("corpus parses"),
        );
    });
    println!("  build_warm     {:>10.0} units/s", warm.throughput_elem_per_s);
    configs.insert("build_warm".to_string(), warm);

    // Report generation: the first report of each fresh graph (which pays
    // for betweenness); the warm builds in between are not timed.
    let report = {
        let (mut timed, mut iters) = (Duration::ZERO, 0u64);
        while iters == 0 || timed < window {
            let graph =
                CorpusGraph::from_samples(ds.samples(), &cache, 1, &metrics).expect("parses");
            let start = Instant::now();
            std::hint::black_box(serde_json::to_string(&graph.report()).expect("serializes"));
            timed += start.elapsed();
            iters += 1;
        }
        ConfigResult {
            throughput_elem_per_s: iters as f64 / timed.as_secs_f64(),
            iters,
            ms_per_iter: timed.as_secs_f64() * 1e3 / iters as f64,
        }
    };
    println!("  report         {:>10.1} reports/s", report.throughput_elem_per_s);
    configs.insert("report".to_string(), report);

    // Determinism contract, re-asserted on every run: jobs1 and jobs4
    // builds must serialize byte-identically.
    let g1 = CorpusGraph::from_samples(ds.samples(), &AnalysisCache::disabled(), 1, &metrics)
        .expect("corpus parses");
    let g4 = CorpusGraph::from_samples(ds.samples(), &AnalysisCache::disabled(), 4, &metrics)
        .expect("corpus parses");
    let j1 = serde_json::to_string(&g1.report()).expect("serializes");
    let j4 = serde_json::to_string(&g4.report()).expect("serializes");
    if j1 != j4 {
        eprintln!("bench_graph: jobs1 and jobs4 reports differ — determinism regression");
        std::process::exit(1);
    }
    println!("  determinism    jobs1 == jobs4 ({} report bytes)", j1.len());

    let entry = Entry {
        label,
        unix_time: SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_secs()).unwrap_or(0),
        quick,
        corpus: ds.len(),
        configs,
    };

    let mut trajectory = std::fs::read_to_string(&out)
        .ok()
        .and_then(|s| serde_json::from_str::<Trajectory>(&s).ok())
        .unwrap_or_else(|| Trajectory { benchmark: "corpus_graph".into(), history: Vec::new() });

    if check {
        let Some(committed) = trajectory.history.last() else {
            eprintln!("bench_graph --check: no committed baseline in {out}");
            std::process::exit(2);
        };
        let key = "build_jobs1";
        let base = throughput(committed, key);
        let now = throughput(&entry, key);
        let ratio = if base > 0.0 { now / base } else { 1.0 };
        println!(
            "gate: {key} committed {base:.0} units/s, measured {now:.0} units/s ({:.1}%)",
            ratio * 100.0
        );
        // Cross-machine number with CPU-quota noise; only a halving is
        // evidence of a real regression rather than scheduler jitter.
        if ratio < 0.50 {
            eprintln!("bench_graph --check: cold build throughput fell below half the baseline");
            std::process::exit(1);
        }
        println!("gate: within budget");
        return;
    }

    trajectory.history.push(entry);
    let json = serde_json::to_string_pretty(&trajectory).expect("trajectory serializes");
    std::fs::write(&out, json + "\n").expect("write trajectory file");
    println!(
        "wrote {out} ({} entr{})",
        trajectory.history.len(),
        if trajectory.history.len() == 1 { "y" } else { "ies" }
    );
}
