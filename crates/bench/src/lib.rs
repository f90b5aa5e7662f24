//! # looplynx-bench — experiment harness
//!
//! One function per table/figure of the LoopLynx paper, shared between the
//! `src/bin/*` report binaries and the Criterion benches. Each function
//! returns structured data (so tests can assert the *shape* of the
//! results) and offers a `render` that prints rows comparable
//! one-for-one with the paper.
//!
//! | Paper artifact | Function | Binary |
//! |---|---|---|
//! | Table I   | [`experiments::table1`] | `table1` |
//! | Fig. 5    | [`experiments::fig5`]   | `fig5`   |
//! | Fig. 7    | [`experiments::fig7`]   | `fig7`   |
//! | Table II  | [`experiments::table2`] | `table2` |
//! | Fig. 8    | [`experiments::fig8`]   | `fig8`   |
//! | Table III | [`experiments::table3`] | `table3` |
//!
//! Beyond the paper, [`experiments::offered_load_sweep`] (binary
//! `serve_sweep`) measures the serving layer: sustained tokens/s and
//! TTFT/TPOT/end-to-end latency percentiles vs Poisson arrival rate,
//! continuous batching against a serve-one-request-at-a-time baseline.
//! [`chaos`] (binary `chaos`) is the robustness gate: it replays
//! bursty/overload traces through the fault-tolerant gateway under
//! injected faults and verifies conservation, bit-exact completions,
//! and graceful goodput degradation. [`prefix`] (binary `prefix`)
//! replays a multi-turn chat trace with the prefix cache on and off at
//! equal arena bytes, reporting prefill amplification and hit rate.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod chaos;
pub mod experiments;
pub mod hotpath;
pub mod paper;
pub mod prefix;
pub mod serve_functional;

/// Formats a measurement for the hand-written `BENCH_*.json` emitters
/// with six significant digits (fixed decimals would print a 166 µs wall
/// as `0.000`). JSON has no NaN/inf: a value that was never captured
/// serializes as `null` so consumers can tell "absent" from "zero".
pub(crate) fn json_f64(x: f64) -> String {
    if !x.is_finite() {
        return "null".into();
    }
    if x == 0.0 {
        return "0".into();
    }
    let magnitude = x.abs().log10().floor() as i32;
    let decimals = (5 - magnitude).max(0) as usize;
    format!("{x:.decimals$}")
}

#[cfg(test)]
mod tests {
    use super::json_f64;

    #[test]
    fn json_f64_keeps_six_significant_digits() {
        assert_eq!(json_f64(1.66e-4), "0.000166000");
        assert_eq!(json_f64(277.9), "277.900");
        assert_eq!(json_f64(144_972.4), "144972");
        assert_eq!(json_f64(0.0), "0");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
    }
}
