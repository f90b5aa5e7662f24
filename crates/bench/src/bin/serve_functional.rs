//! Functional continuous-batching serving benchmark: sustained tokens/s
//! at decode-batch ceilings 1/4/8/16 vs the sequential baseline, written to
//! `BENCH_serve_functional.json` (pass `--quick` for the CI-sized
//! workload, and an optional output path as the other argument).

use looplynx_bench::report::run_bin;
use looplynx_bench::serve_functional::{measure, to_json};

fn main() {
    let out = "BENCH_serve_functional.json";
    run_bin("serve_functional", out, measure, to_json);
}
