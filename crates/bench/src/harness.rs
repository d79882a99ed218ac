//! The bench harness behind `bench <suite>`: one trajectory schema for
//! every `BENCH_*.json`, one timing loop, one histogram window, one flag
//! parser, one trajectory load/append/write routine and one `--check`
//! gate evaluator. A [`Suite`] supplies only its corpus, its configs and
//! its gates (see [`crate::suites`]).
//!
//! Usage: `bench <suite> [--quick] [--check] [--out FILE] [--label STR]`
//!
//! - Without `--check`, the suite is measured and one [`Entry`] is appended
//!   to `--out` (default `BENCH_<suite>.json`), labelled `--label`.
//!   `--quick` shortens the windows (and, for some suites, the corpus) for
//!   CI-sized runs.
//! - `--check` measures at full size, whatever `--quick` says, because its
//!   baseline is a full-size committed entry. It writes nothing. A failed
//!   gate exits 1; a missing baseline exits 2.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};
use vulnman_obs::Snapshot;

/// Latency quantiles of one histogram over a measurement window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageLatency {
    /// Median, microseconds.
    pub p50_us: f64,
    /// Tail, microseconds.
    pub p99_us: f64,
    /// Mean, microseconds.
    pub mean_us: f64,
    /// Observations behind the quantiles.
    pub count: u64,
}

/// One measured configuration (e.g. `cold_jobs1`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Config {
    /// Elements (samples, requests, sources, units, ...) per second.
    pub throughput_elem_per_s: f64,
    /// Timed iterations behind the throughput number.
    pub iters: u64,
    /// Mean wall time of one iteration, milliseconds.
    pub ms_per_iter: f64,
    /// Latency quantiles over the window, keyed by histogram name.
    #[serde(default)]
    pub stages: BTreeMap<String, StageLatency>,
}

impl Config {
    /// A config for `elems` elements done in `iters` iterations taking
    /// `elapsed` in total.
    pub fn rate(elems: u64, iters: u64, elapsed: Duration) -> Config {
        let secs = elapsed.as_secs_f64();
        Config {
            throughput_elem_per_s: elems as f64 / secs,
            iters,
            ms_per_iter: secs * 1e3 / iters.max(1) as f64,
            stages: BTreeMap::new(),
        }
    }
}

/// One measurement in a trajectory.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Entry {
    /// Human label for the measurement.
    pub label: String,
    /// Seconds since the Unix epoch at measurement time.
    pub unix_time: u64,
    /// Whether this was a `--quick` (CI-sized) run.
    pub quick: bool,
    /// Cores available to the process; null for entries older than the field.
    #[serde(default)]
    pub nproc: Option<usize>,
    /// `git rev-parse --short=12 HEAD`; null without git and for entries
    /// older than the field.
    #[serde(default)]
    pub commit: Option<String>,
    /// Corpus size in the suite's unit (samples, sources, units, ...).
    pub corpus: usize,
    /// Results keyed by configuration name.
    pub configs: BTreeMap<String, Config>,
}

/// A whole `BENCH_*.json` document.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Trajectory {
    /// Benchmark identity (e.g. `workflow_scaling`).
    pub benchmark: String,
    /// Measurement entries, oldest first.
    pub history: Vec<Entry>,
}

impl Trajectory {
    /// Reads `path`; a missing file is an empty trajectory of `benchmark`.
    pub fn load(path: &str, benchmark: &str) -> Result<Trajectory, String> {
        match std::fs::read_to_string(path) {
            Ok(s) => serde_json::from_str(&s).map_err(|e| format!("{path}: {e}")),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                Ok(Trajectory { benchmark: benchmark.to_string(), history: Vec::new() })
            }
            Err(e) => Err(format!("{path}: {e}")),
        }
    }

    /// The file's exact bytes: pretty JSON plus a trailing newline.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("trajectory serializes") + "\n"
    }
}

/// The measurement window for a run: 2 s, or 400 ms under `--quick`.
pub fn window(quick: bool) -> Duration {
    if quick {
        Duration::from_millis(400)
    } else {
        Duration::from_secs(2)
    }
}

/// Repeats `work` until `window` closes, at least once; one iteration is
/// `elems_per_iter` elements.
pub fn measure<T>(window: Duration, elems_per_iter: u64, mut work: impl FnMut() -> T) -> Config {
    measure_with(window, elems_per_iter, || (), |()| work())
}

/// [`measure`] with an untimed `setup` before every timed `work` call: the
/// window counts only the time spent in `work`.
pub fn measure_with<S, T>(
    window: Duration,
    elems_per_iter: u64,
    mut setup: impl FnMut() -> S,
    mut work: impl FnMut(S) -> T,
) -> Config {
    let (mut timed, mut iters) = (Duration::ZERO, 0u64);
    while iters == 0 || timed < window {
        let input = setup();
        let start = Instant::now();
        std::hint::black_box(work(input));
        timed += start.elapsed();
        iters += 1;
    }
    Config::rate(iters * elems_per_iter, iters, timed)
}

/// Quantiles of histogram `name` over the observations recorded between
/// the `base` and `now` snapshots, so warm-up passes do not count. `None`
/// when the window recorded nothing.
pub fn window_latency(base: &Snapshot, now: &Snapshot, name: &str) -> Option<StageLatency> {
    let mut h = now.histograms.get(name)?.clone();
    if let Some(b) = base.histograms.get(name) {
        h.count -= b.count;
        h.sum -= b.sum;
        for (n, b) in h.buckets.iter_mut().zip(&b.buckets) {
            *n -= b;
        }
    }
    (h.count > 0).then(|| StageLatency {
        p50_us: h.quantile(0.50),
        p99_us: h.quantile(0.99),
        mean_us: h.mean(),
        count: h.count,
    })
}

/// A `--check` gate over config throughputs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Gate {
    /// `config` must reach `floor` times its throughput in the last
    /// committed entry.
    VsBaseline {
        /// Config name.
        config: &'static str,
        /// Lowest passing measured/committed ratio.
        floor: f64,
    },
    /// `num` must reach `floor` times `den`'s throughput in the same run.
    Ratio {
        /// Numerator config.
        num: &'static str,
        /// Denominator config.
        den: &'static str,
        /// Lowest passing ratio.
        floor: f64,
    },
}

impl Gate {
    fn floor(&self) -> f64 {
        match *self {
            Gate::VsBaseline { floor, .. } | Gate::Ratio { floor, .. } => floor,
        }
    }

    /// The gated ratio; `None` when the baseline lacks the config.
    fn ratio(&self, baseline: &Entry, now: &Entry) -> Option<f64> {
        let throughput = |e: &Entry, c: &str| e.configs.get(c).map(|c| c.throughput_elem_per_s);
        match *self {
            Gate::VsBaseline { config, .. } => {
                let base = throughput(baseline, config).filter(|&b| b > 0.0)?;
                Some(throughput(now, config).unwrap_or(0.0) / base)
            }
            Gate::Ratio { num, den, .. } => {
                let den = throughput(now, den).unwrap_or(0.0);
                Some(if den > 0.0 { throughput(now, num).unwrap_or(0.0) / den } else { 0.0 })
            }
        }
    }
}

impl fmt::Display for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Gate::VsBaseline { config, .. } => write!(f, "{config} / committed {config}"),
            Gate::Ratio { num, den, .. } => write!(f, "{num} / {den}"),
        }
    }
}

/// Outcome of `--check`; the discriminant is the process exit code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Every gate holds.
    Pass = 0,
    /// At least one gate is below its floor.
    Fail = 1,
    /// There is no committed entry (or config) to compare against.
    NoBaseline = 2,
}

/// Evaluates every gate of `measured` against `baseline`, the last
/// committed entry, printing one line per gate.
pub fn check(gates: &[Gate], baseline: Option<&Entry>, measured: &Entry) -> Verdict {
    let Some(baseline) = baseline else {
        eprintln!("gate: no committed baseline entry");
        return Verdict::NoBaseline;
    };
    let mut verdict = Verdict::Pass;
    for gate in gates {
        let Some(ratio) = gate.ratio(baseline, measured) else {
            eprintln!("gate: {gate}: the committed baseline has no such config");
            return Verdict::NoBaseline;
        };
        let ok = ratio >= gate.floor();
        println!(
            "gate: {gate} = {ratio:.3} (floor {}) {}",
            gate.floor(),
            if ok { "ok" } else { "FAILED" }
        );
        if !ok {
            verdict = Verdict::Fail;
        }
    }
    verdict
}

/// What a suite measured: its corpus size and configs.
#[derive(Debug, Clone, Default)]
pub struct Measured {
    /// Corpus size in the suite's unit.
    pub corpus: usize,
    /// Results keyed by configuration name.
    pub configs: BTreeMap<String, Config>,
}

/// A bench suite: what it measures and what `--check` requires of it.
pub struct Suite {
    /// Name on the command line; the default file is `BENCH_<name>.json`.
    pub name: &'static str,
    /// Benchmark identity written into a new trajectory.
    pub benchmark: &'static str,
    /// Gates `--check` evaluates.
    pub gates: &'static [Gate],
    /// Measures every config (quick-sized when the flag is true). An
    /// `Err` is a broken invariant and fails the run on its own.
    pub run: fn(quick: bool) -> Result<Measured, String>,
}

/// Parsed command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// Suite name.
    pub suite: String,
    /// Quick-sized measurement; always false under `--check`.
    pub quick: bool,
    /// Gate against the committed baseline instead of appending.
    pub check: bool,
    /// Trajectory file; `None` means `BENCH_<suite>.json`.
    pub out: Option<String>,
    /// Label of the appended entry.
    pub label: String,
}

/// Command-line synopsis.
pub const USAGE: &str = "usage: bench <suite> [--quick] [--check] [--out FILE] [--label STR]";

impl Args {
    /// Parses the arguments after the program name.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut args = args.into_iter();
        let (mut suite, mut quick, mut check, mut out, mut label) =
            (None, false, false, None, "measurement".to_string());
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--quick" => quick = true,
                "--check" => check = true,
                "--out" | "--label" => {
                    let value = args.next().ok_or(format!("{arg} needs a value"))?;
                    if arg == "--out" {
                        out = Some(value);
                    } else {
                        label = value;
                    }
                }
                flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
                _ if suite.is_none() => suite = Some(arg),
                _ => return Err(format!("unexpected argument {arg}")),
            }
        }
        let suite = suite.ok_or("missing suite name")?;
        Ok(Args { suite, quick: quick && !check, check, out, label })
    }
}

/// Runs the command line `args` over `suites`; returns the exit code.
pub fn main(suites: &[Suite], args: impl IntoIterator<Item = String>) -> i32 {
    let args = match Args::parse(args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("bench: {e}\n{USAGE}");
            return 2;
        }
    };
    let Some(suite) = suites.iter().find(|s| s.name == args.suite) else {
        let names: Vec<_> = suites.iter().map(|s| s.name).collect();
        eprintln!("bench: unknown suite {}; suites: {}", args.suite, names.join(", "));
        return 2;
    };
    let out = args.out.clone().unwrap_or_else(|| format!("BENCH_{}.json", suite.name));
    let mut trajectory = match Trajectory::load(&out, suite.benchmark) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("bench {}: {e}", suite.name);
            return 2;
        }
    };
    if args.check && trajectory.history.is_empty() {
        eprintln!("bench {} --check: no committed baseline in {out}", suite.name);
        return Verdict::NoBaseline as i32;
    }

    println!("bench {} (quick: {}, check: {})", suite.name, args.quick, args.check);
    let measured = match (suite.run)(args.quick) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("bench {}: {e}", suite.name);
            return 1;
        }
    };
    let entry = Entry {
        label: args.label,
        unix_time: SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| d.as_secs()),
        quick: args.quick,
        nproc: std::thread::available_parallelism().ok().map(|n| n.get()),
        commit: git_commit(),
        corpus: measured.corpus,
        configs: measured.configs,
    };
    print_entry(&entry);

    if args.check {
        return check(suite.gates, trajectory.history.last(), &entry) as i32;
    }
    // Same-run ratios are worth seeing on every run; they need no baseline.
    for gate in suite.gates.iter().filter(|g| matches!(g, Gate::Ratio { .. })) {
        println!("  {gate} = {:.2}", gate.ratio(&entry, &entry).unwrap_or(0.0));
    }
    trajectory.history.push(entry);
    if let Err(e) = std::fs::write(&out, trajectory.to_json()) {
        eprintln!("bench {}: cannot write {out}: {e}", suite.name);
        return 1;
    }
    println!("wrote {out} (history of {})", trajectory.history.len());
    0
}

fn print_entry(entry: &Entry) {
    let nproc = entry.nproc.map_or("unknown".to_string(), |n| n.to_string());
    let commit = entry.commit.as_deref().unwrap_or("unknown");
    println!("  corpus {}, nproc {nproc}, commit {commit}", entry.corpus);
    for (name, c) in &entry.configs {
        println!(
            "  {name:<34} {:>12.1} elem/s {:>10.3} ms/iter  iters {}",
            c.throughput_elem_per_s, c.ms_per_iter, c.iters
        );
        for (stage, l) in &c.stages {
            println!(
                "    {stage:<32} p50 {:>9.1} us  p99 {:>9.1} us  n {}",
                l.p50_us, l.p99_us, l.count
            );
        }
    }
}

fn git_commit() -> Option<String> {
    let out = std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    let commit = String::from_utf8(out.stdout).ok()?.trim().to_string();
    (out.status.success() && !commit.is_empty()).then_some(commit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vulnman_obs::Registry;

    fn entry(configs: &[(&str, f64)]) -> Entry {
        Entry {
            label: "synthetic".into(),
            unix_time: 0,
            quick: false,
            nproc: Some(2),
            commit: None,
            corpus: 1,
            configs: configs
                .iter()
                .map(|&(name, t)| {
                    let mut c = Config::rate(0, 1, Duration::from_secs(1));
                    c.throughput_elem_per_s = t;
                    (name.to_string(), c)
                })
                .collect(),
        }
    }

    fn args(words: &[&str]) -> Result<Args, String> {
        Args::parse(words.iter().map(|w| w.to_string()))
    }

    #[test]
    fn committed_trajectories_round_trip_byte_for_byte() {
        for suite in crate::suites::ALL {
            let path = format!("{}/../../BENCH_{}.json", env!("CARGO_MANIFEST_DIR"), suite.name);
            let text = std::fs::read_to_string(&path).expect("committed trajectory");
            let t: Trajectory = serde_json::from_str(&text).expect("parses through the schema");
            assert_eq!(t.benchmark, suite.benchmark, "{path}");
            assert!(!t.history.is_empty(), "{path} has a committed entry");
            assert_eq!(t.to_json(), text, "{path} re-serializes to its own bytes");
        }
    }

    #[test]
    fn entries_without_the_new_fields_parse_with_defaults() {
        let old = r#"{"label": "old", "unix_time": 1, "quick": false, "corpus": 3,
            "configs": {"a": {"throughput_elem_per_s": 2.5, "iters": 4, "ms_per_iter": 0.5}}}"#;
        let e: Entry = serde_json::from_str(old).unwrap();
        assert_eq!((e.nproc, e.commit), (None, None));
        assert!(e.configs["a"].stages.is_empty());
        assert_eq!(e.configs["a"].throughput_elem_per_s, 2.5);
    }

    #[test]
    fn baseline_gate_passes_at_the_floor_and_fails_below_it() {
        let gate = [Gate::VsBaseline { config: "cold", floor: 0.9 }];
        let base = entry(&[("cold", 100.0)]);
        assert_eq!(check(&gate, Some(&base), &entry(&[("cold", 90.0)])), Verdict::Pass);
        assert_eq!(check(&gate, Some(&base), &entry(&[("cold", 150.0)])), Verdict::Pass);
        assert_eq!(check(&gate, Some(&base), &entry(&[("cold", 89.0)])), Verdict::Fail);
        assert_eq!(check(&gate, Some(&base), &entry(&[])), Verdict::Fail);
    }

    #[test]
    fn ratio_gate_compares_configs_of_the_same_run() {
        let gate = [Gate::Ratio { num: "incr", den: "full", floor: 5.0 }];
        // The baseline's own ratio is irrelevant.
        let base = entry(&[("incr", 1.0), ("full", 100.0)]);
        let pass = entry(&[("incr", 500.0), ("full", 100.0)]);
        let fail = entry(&[("incr", 360.0), ("full", 100.0)]);
        assert_eq!(check(&gate, Some(&base), &pass), Verdict::Pass);
        assert_eq!(check(&gate, Some(&base), &fail), Verdict::Fail);
        assert_eq!(check(&gate, Some(&base), &entry(&[("incr", 1.0)])), Verdict::Fail);
        assert_eq!(check(&gate, Some(&base), &entry(&[("full", 1.0)])), Verdict::Fail);
    }

    #[test]
    fn one_failing_gate_fails_the_check() {
        let gates = [
            Gate::VsBaseline { config: "build", floor: 0.5 },
            Gate::Ratio { num: "lsh", den: "brute", floor: 2.0 },
        ];
        let base = entry(&[("build", 10.0), ("lsh", 1.0), ("brute", 1.0)]);
        let good = entry(&[("build", 6.0), ("lsh", 3.0), ("brute", 1.0)]);
        let slow_build = entry(&[("build", 4.0), ("lsh", 3.0), ("brute", 1.0)]);
        assert_eq!(check(&gates, Some(&base), &good), Verdict::Pass);
        assert_eq!(check(&gates, Some(&base), &slow_build), Verdict::Fail);
    }

    #[test]
    fn missing_baseline_exits_2() {
        let gate = [Gate::VsBaseline { config: "cold", floor: 0.9 }];
        let now = entry(&[("cold", 100.0)]);
        assert_eq!(check(&gate, None, &now), Verdict::NoBaseline);
        assert_eq!(check(&gate, Some(&entry(&[("warm", 1.0)])), &now), Verdict::NoBaseline);
        assert_eq!(Verdict::NoBaseline as i32, 2);
        assert_eq!(Verdict::Fail as i32, 1);
    }

    #[test]
    fn window_latency_subtracts_warm_up_observations() {
        let metrics = Registry::new();
        let h = metrics.histogram("span.x");
        for _ in 0..10 {
            h.observe(1_000_000); // warm-up: slow, must not count
        }
        let base = metrics.snapshot();
        for _ in 0..4 {
            h.observe(3);
        }
        let now = metrics.snapshot();
        let l = window_latency(&base, &now, "span.x").expect("window has observations");
        assert_eq!(l.count, 4);
        assert_eq!(l.mean_us, 3.0);
        assert!(l.p99_us < 1_000.0, "warm-up tail leaked into the window: {l:?}");
        assert_eq!(window_latency(&now, &now, "span.x"), None);
        assert_eq!(window_latency(&base, &now, "span.absent"), None);
    }

    #[test]
    fn check_ignores_quick() {
        let a = args(&["pipeline", "--quick", "--check"]).unwrap();
        assert!(a.check && !a.quick);
        let a = args(&["--check", "serve", "--quick"]).unwrap();
        assert!(a.check && !a.quick);
        assert!(args(&["lsh", "--quick"]).unwrap().quick);
    }

    #[test]
    fn flags_parse_and_reject_strays() {
        let a = args(&["graph", "--out", "x.json", "--label", "ci run"]).unwrap();
        assert_eq!(a.out.as_deref(), Some("x.json"));
        assert_eq!(a.label, "ci run");
        assert_eq!(args(&["graph"]).unwrap().label, "measurement");
        assert!(args(&[]).is_err());
        assert!(args(&["graph", "--out"]).is_err());
        assert!(args(&["graph", "--jobs", "4"]).is_err());
        assert!(args(&["graph", "lsh"]).is_err());
    }

    #[test]
    fn measure_runs_at_least_once() {
        let mut calls = 0;
        let c = measure(Duration::ZERO, 7, || calls += 1);
        assert_eq!((calls, c.iters), (1, 1));
        let mut setups = 0;
        let c = measure_with(Duration::ZERO, 1, || setups += 1, |()| ());
        assert_eq!((setups, c.iters), (1, 1));
    }

    #[test]
    fn every_suite_is_named_and_gated_as_committed() {
        let names: Vec<_> = crate::suites::ALL.iter().map(|s| s.name).collect();
        assert_eq!(names, ["pipeline", "serve", "lsh", "graph", "components"]);
        let gates = |name| crate::suites::ALL.iter().find(|s| s.name == name).unwrap().gates;
        assert_eq!(gates("pipeline"), [Gate::VsBaseline { config: "cold_jobs1", floor: 0.90 }]);
        assert_eq!(
            gates("serve"),
            [
                Gate::VsBaseline { config: "serve_jobs1", floor: 0.90 },
                Gate::Ratio { num: "incremental_edit", den: "full_reanalysis", floor: 5.0 },
            ]
        );
        assert_eq!(
            gates("lsh"),
            [
                Gate::VsBaseline { config: "index_build_jobs1", floor: 0.50 },
                Gate::Ratio { num: "lsh_query", den: "brute_query", floor: 2.0 },
                Gate::Ratio { num: "dedup_on", den: "dedup_off", floor: 1.2 },
            ]
        );
        assert_eq!(gates("graph"), [Gate::VsBaseline { config: "build_jobs1", floor: 0.50 }]);
        assert!(gates("components").is_empty());
    }
}
