//! `bench <suite> [--quick] [--check] [--out FILE] [--label STR]`: measures
//! one suite and appends an entry to its `BENCH_<suite>.json`, or, with
//! `--check`, gates it against the last committed entry (see
//! `vulnman_bench::harness`).

fn main() {
    let code = vulnman_bench::harness::main(vulnman_bench::suites::ALL, std::env::args().skip(1));
    std::process::exit(code);
}
