//! # looplynx-bench — experiment harness
//!
//! One function per table/figure of the LoopLynx paper, called by the
//! `src/bin/*` report binaries. Each function returns structured data
//! (so tests can assert the *shape* of the results) and offers a
//! `render` that prints rows comparable one-for-one with the paper.
//!
//! | Paper artifact | Function | Binary |
//! |---|---|---|
//! | Table I   | [`experiments::table1`] | `table1` |
//! | Fig. 5    | [`experiments::fig5`]   | `fig5`   |
//! | Fig. 7    | [`experiments::fig7`]   | `fig7`   |
//! | Table II  | [`experiments::table2`] | `table2` |
//! | Fig. 8    | [`experiments::fig8`]   | `fig8`   |
//! | Table III | [`experiments::table3`] | `table3` |
//! | every paper-vs-measured delta | the four above + [`paper`] | `report` → `BENCH_paper.json` |
//!
//! Beyond the paper, [`experiments::offered_load_sweep`] (binary
//! `serve_sweep`) measures the serving layer: sustained tokens/s and
//! TTFT/TPOT/end-to-end latency percentiles vs Poisson arrival rate,
//! continuous batching against a serve-one-request-at-a-time baseline.
//! [`chaos`] (binary `chaos`) is the robustness gate: it replays
//! bursty/overload traces through the fault-tolerant gateway under
//! injected faults and verifies conservation, bit-exact completions,
//! and graceful goodput degradation. [`hotpath`] (binary `hotpath`)
//! times medium-shaped batch-1 decode at 1, 2 and 4 ring nodes, the one
//! functional cell the repo benchmark (`src/bin/benchmark`, its own
//! package) does not build. [`hotpath`], [`chaos`] and the `report` bin
//! write their `BENCH_*.json` through the one path in [`report`].

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod chaos;
pub mod experiments;
pub mod hotpath;
pub mod paper;
pub mod report;
