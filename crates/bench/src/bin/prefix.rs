//! Multi-turn chat-trace prefix-cache benchmark: prefill amplification
//! and hit rate with the cache on vs off at equal arena bytes, written
//! to `BENCH_prefix.json` (pass `--quick` for the CI-sized trace, and
//! an optional output path as the other argument).

use looplynx_bench::prefix::{measure, to_json};
use looplynx_bench::report::run_bin;

fn main() {
    run_bin("prefix", "BENCH_prefix.json", measure, to_json);
}
