//! `serve` (`BENCH_serve.json`, benchmark `serve_throughput`): the
//! `vulnman serve` analysis service.
//!
//! - `serve_jobs{1,4}`: sustained closed-loop `lint` throughput of 1 and 4
//!   clients against a live loopback server, with p50/p99 of the server's
//!   `serve.latency_micros` histogram over the window.
//! - `incremental_edit` / `full_reanalysis`: one edit of a 16-function
//!   unit through the per-stage cache against parse plus full fixpoint.
//!
//! Gates: `serve_jobs1` keeps 90% of the committed throughput, and an
//! incremental edit is at least 5x cheaper than full re-analysis.

use crate::harness::{measure, window, window_latency, Config, Gate, Measured, Suite};
use std::io::{BufRead, BufReader, Write as IoWrite};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};
use vulnman_analysis::SemanticEngine;
use vulnman_lang::{parse, AnalysisCache};
use vulnman_obs::Registry;
use vulnman_serve::{spawn, Request, ServeConfig, SERVE_CACHE_ENTRY_LIMIT};
use vulnman_synth::dataset::DatasetBuilder;

/// The `serve` suite.
pub const SUITE: Suite = Suite {
    name: "serve",
    benchmark: "serve_throughput",
    gates: &[
        Gate::VsBaseline { config: "serve_jobs1", floor: 0.90 },
        Gate::Ratio { num: "incremental_edit", den: "full_reanalysis", floor: 5.0 },
    ],
    run,
};

const LATENCY: &str = "serve.latency_micros";

/// Request sources for the serving mix: a small corpus clients resubmit,
/// the cache-friendly shape of a long-running service.
fn sources() -> Vec<String> {
    DatasetBuilder::new(17)
        .vulnerable_count(4)
        .vulnerable_fraction(0.5)
        .build()
        .samples()
        .iter()
        .map(|s| s.source.clone())
        .collect()
}

/// Sustained closed-loop load: `clients` threads each run one connection,
/// lockstep request/response, for `window`.
#[allow(clippy::disallowed_methods)] // one closed-loop client thread per connection, not a work queue
fn measure_serve(clients: usize, srcs: &[String], window: Duration) -> Config {
    let metrics = Registry::new();
    let config = ServeConfig { workers: clients, queue: 256, ..ServeConfig::default() };
    let server = spawn("127.0.0.1:0", config, &metrics).expect("bind loopback");
    let addr = server.addr();

    // Warm-up: one pass over every source primes the per-stage cache and
    // the lazy code paths, so the window measures steady state.
    run_client(addr, srcs, 1_000_000, Duration::from_millis(50));
    let warm = metrics.snapshot();

    let start = Instant::now();
    let requests: u64 = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || run_client(addr, srcs, (c as u64 + 1) * 10_000_000, window))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client")).sum()
    });
    let mut c = Config::rate(requests, requests, start.elapsed());
    c.stages
        .extend(window_latency(&warm, &metrics.snapshot(), LATENCY).map(|l| (LATENCY.into(), l)));
    server.shutdown();
    c
}

/// One closed-loop client: lint requests round-robin over `srcs` until the
/// window closes. Returns the completed request count.
fn run_client(addr: SocketAddr, srcs: &[String], id_base: u64, window: Duration) -> u64 {
    let stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    let mut done = 0u64;
    measure(window, 1, || {
        let req = Request {
            id: id_base + done,
            kind: "lint".into(),
            source: srcs[done as usize % srcs.len()].clone(),
            label: None,
            cwe: None,
        };
        let mut line = serde_json::to_string(&req).expect("serialize");
        line.push('\n');
        writer.write_all(line.as_bytes()).expect("send");
        let mut resp = String::new();
        reader.read_line(&mut resp).expect("recv");
        assert!(!resp.is_empty(), "server closed mid-window");
        done += 1;
    })
    .iters
}

/// One heavy chain-unit function body: nested loops over six tracked
/// variables, so the three-domain fixpoint — not parsing or fingerprinting
/// — dominates each function's analysis cost. `feed` is the upstream value
/// expression (`x` for the chain head, `f{i-1}(x)` otherwise).
fn chain_fn(name: &str, salt: usize, feed: &str) -> String {
    format!(
        "int {name}(int x) {{ \
         int a = 0; int b = 1; int c = 0; int d = 0; int e = 0; \
         int i = 0; int j = 0; \
         while (i < 12) {{ \
         j = 0; \
         while (j < 12) {{ \
         a = a + {feed} + b; b = b + c + {salt}; c = c + d + j; \
         d = d + e + 1; e = e + a; j = j + 1; \
         }} \
         b = b + i; i = i + 1; \
         }} \
         return a + b + c + d + e; }}\n"
    )
}

/// A 16-function translation unit whose last function's body carries an
/// editable constant — the single-function-change workload. The edited
/// `target` is deliberately trivial: the measurement isolates what an
/// incremental resubmission *must* pay (lex, parse, fingerprints, one tiny
/// fixpoint) against what full re-analysis pays (fifteen heavy fixpoints).
fn chain_unit(edit: u64) -> String {
    let mut src = chain_fn("f0", 0, "x");
    for i in 1..15 {
        src.push_str(&chain_fn(&format!("f{i}"), i, &format!("f{}(x)", i - 1)));
    }
    src.push_str(&format!("int target(int x) {{ return f14(x) + {edit}; }}\n"));
    src
}

fn run(quick: bool) -> Result<Measured, String> {
    let window = window(quick);
    let srcs = sources();
    let mut configs: std::collections::BTreeMap<_, _> = [("serve_jobs1", 1), ("serve_jobs4", 4)]
        .into_iter()
        .map(|(name, clients)| (name.to_string(), measure_serve(clients, &srcs, window)))
        .collect();

    // Each iteration edits only `target`. The incremental side keeps one
    // per-stage cache across edits, bounded exactly like the server's
    // (every edit is a new unit version, so an unbounded cache would retain
    // all of them and the heap growth would tax the measurement).
    let engine = SemanticEngine::new();
    let cache = AnalysisCache::new().with_entry_limit(SERVE_CACHE_ENTRY_LIMIT);
    engine.scan_source_incremental(&chain_unit(0), &cache).map_err(|e| e.to_string())?;
    let mut edit = 0;
    let incremental = measure(window, 1, || {
        edit += 1;
        engine.scan_source_incremental(&chain_unit(edit), &cache).expect("chain parses")
    });
    // Full: parse + whole-program fixpoint per edit, no cache.
    let mut edit = 0;
    let full = measure(window, 1, || {
        edit += 1;
        engine.analyze(&parse(&chain_unit(edit)).expect("chain parses"))
    });
    configs.insert("incremental_edit".into(), incremental);
    configs.insert("full_reanalysis".into(), full);
    Ok(Measured { corpus: srcs.len(), configs })
}
