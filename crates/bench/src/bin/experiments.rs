//! Runs one experiment of the index, or all of them in order:
//!
//! ```text
//! experiments <id|all> [--quick] [--metrics-out FILE]
//! ```
//!
//! `id` is a module name (`e01_workflow`) or its number (`e01`). `--quick`
//! shrinks every corpus to a CI-sized run; `--metrics-out FILE` makes the
//! instrumented experiments (e01, e07, e20) dump their observability
//! snapshot there. `all` regenerates every table recorded in
//! `EXPERIMENTS.md`.

use std::process::ExitCode;
use vulnman_bench::experiments::{find, run_all, INDEX};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = vulnman_bench::quick_from_args();
    // The first argument that is neither a flag nor the value of one.
    let id = args
        .iter()
        .enumerate()
        .find(|(i, a)| !a.starts_with("--") && (*i == 0 || args[i - 1] != "--metrics-out"));
    match id.map(|(_, id)| id.as_str()) {
        Some("all") => run_all(quick),
        Some(id) => match find(id) {
            Some(run) => run(quick),
            None => {
                let ids: Vec<&str> = INDEX.iter().map(|(name, _)| *name).collect();
                eprintln!(
                    "error: unknown experiment `{id}`; expected all or one of {}",
                    ids.join(", ")
                );
                return ExitCode::FAILURE;
            }
        },
        None => {
            eprintln!("usage: experiments <id|all> [--quick] [--metrics-out FILE]");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
