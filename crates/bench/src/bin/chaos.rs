//! Chaos harness: replays bursty/overload traces through the serving
//! gateway while injecting faults at 0/1/5/20%, writes
//! `BENCH_robustness.json`, and exits non-zero on any invariant
//! violation (pass `--quick` for the CI-sized workload, and an optional
//! output path as the other argument).

use looplynx_bench::chaos::{measure, to_json};
use looplynx_bench::report::run_bin;

fn main() {
    let report = run_bin("chaos", "BENCH_robustness.json", measure, to_json);
    if !report.passed() {
        eprintln!("robustness invariants violated");
        std::process::exit(1);
    }
}
