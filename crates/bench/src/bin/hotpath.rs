//! Hot-path wall-clock benchmark: functional prefill/decode tokens/s at
//! 1/2/4 ring nodes plus the serve_sweep saturation wall-clock, written to
//! `BENCH_hotpath.json` (pass `--quick` for the CI-sized workload, and an
//! optional output path as the other argument).

use looplynx_bench::hotpath::{measure, to_json};
use looplynx_bench::report::run_bin;

fn main() {
    run_bin("hotpath", "BENCH_hotpath.json", measure, to_json);
}
