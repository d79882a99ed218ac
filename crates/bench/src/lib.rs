//! # vulnman-bench
//!
//! Experiment harness reproducing every figure and quantitative claim of
//! the paper, plus the bench harness ([`harness`], [`suites`]) behind the
//! `bench` binary and the committed `BENCH_*.json` trajectories.
//!
//! Each experiment `eNN` in [`experiments`] has a `run(quick)` entry point:
//! `quick = true` shrinks corpora for CI; `quick = false` is the
//! paper-scale configuration the committed `EXPERIMENTS.md` numbers come
//! from. The `experiments <id|all> [--quick] [--metrics-out FILE]` binary
//! runs one entry of [`experiments::INDEX`] or the full index in order.

#![warn(missing_docs)]

pub mod experiments;
pub mod harness;
pub mod suites;

/// Prints the standard experiment banner.
pub fn banner(id: &str, title: &str, claim: &str) {
    println!("\n{}", "=".repeat(74));
    println!("{id}: {title}");
    println!("paper anchor: {claim}");
    println!("{}", "=".repeat(74));
}

/// Reads `--quick` from the process arguments.
pub fn quick_from_args() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// Reads `--metrics-out FILE` from the process arguments. The instrumented
/// experiments (e01, e07, e20) dump their observability snapshot there.
pub fn metrics_out_from_args() -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter().position(|a| a == "--metrics-out").and_then(|i| args.get(i + 1)).cloned()
}

/// Writes `snapshot` as pretty JSON to the `--metrics-out` path, if one was
/// given on the command line; otherwise does nothing. Failures are reported
/// on stderr but never abort an experiment run.
pub fn dump_metrics(snapshot: &vulnman_obs::Snapshot) {
    let Some(path) = metrics_out_from_args() else { return };
    match serde_json::to_string_pretty(snapshot) {
        Ok(json) => match std::fs::write(&path, json) {
            Ok(()) => eprintln!("metrics written to {path}"),
            Err(e) => eprintln!("warning: cannot write metrics to {path}: {e}"),
        },
        Err(e) => eprintln!("warning: cannot serialize metrics: {e}"),
    }
}
