//! Hot-path wall-clock benchmark: medium-shaped batch-1 decode tok/s at
//! 1/2/4 ring nodes (median, min and max over the timed reps), written to
//! `BENCH_hotpath.json` (pass `--quick` for the CI-sized workload, and an
//! optional output path as the other argument).

use looplynx_bench::hotpath::{measure, to_json};
use looplynx_bench::report::run_bin;

fn main() {
    run_bin("hotpath", "BENCH_hotpath.json", measure, to_json);
}
