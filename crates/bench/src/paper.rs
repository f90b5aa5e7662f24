//! The paper's reported numbers, kept next to the harness so every run can
//! print paper-vs-measured deltas (all of them gathered in
//! `BENCH_paper.json` by the `report` bin).

/// Table II: token latency in ms for LoopLynx 1/2/4 nodes.
pub const TABLE2_LOOPLYNX_MS: [f64; 3] = [6.59, 3.85, 2.55];

/// Table II: DFX (temporal architecture) token latency in ms.
pub const TABLE2_DFX_MS: f64 = 5.37;

/// Table II: spatial architecture token latency in ms.
pub const TABLE2_SPATIAL_MS: f64 = 4.17;

/// Table III: tokens per second for 1/2/4 nodes.
pub const TABLE3_TOKENS_PER_S: [f64; 3] = [151.7, 259.7, 392.2];

/// Table III: speedup of 2-node over 1-node and of 4-node over 2-node.
pub const TABLE3_SPEEDUPS: [f64; 2] = [1.71, 1.51];

/// Fig. 5(a): fraction of unoptimized token latency spent in linear + MHA.
pub const FIG5_LINEAR_MHA_FRACTION: f64 = 0.815;

/// Fig. 5(b): latency reduction from critical-path optimization.
pub const FIG5_FUSION_REDUCTION: f64 = 0.11;

/// Fig. 5(c): cumulative latency reduction with head-wise pipelining.
pub const FIG5_CUMULATIVE_REDUCTION: f64 = 0.15;

/// §III-F: average speedups of 2-node / 4-node over the A100.
pub const FIG8_SPEEDUP_VS_A100: [f64; 2] = [1.67, 2.52];

/// §III-F: LoopLynx energy as a fraction of the A100's (2-node, 4-node).
pub const FIG8_ENERGY_FRACTION: [f64; 2] = [0.373, 0.481];

/// §III-F: normalized energy efficiency vs A100 for 1/2/4 nodes.
pub const FIG8_ENERGY_EFF: [f64; 3] = [2.3, 2.7, 2.1];

/// Relative deviation of `measured` from `paper` (positive = slower/bigger).
pub fn deviation(measured: f64, paper: f64) -> f64 {
    (measured - paper) / paper
}

/// Formats a paper-vs-measured comparison cell.
pub fn compare(measured: f64, paper: f64) -> String {
    format!(
        "{measured:.2} (paper {paper:.2}, {:+.1}%)",
        deviation(measured, paper) * 100.0
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deviation_is_signed_relative_error() {
        assert!((deviation(11.0, 10.0) - 0.1).abs() < 1e-12);
        assert!((deviation(9.0, 10.0) + 0.1).abs() < 1e-12);
    }

    #[test]
    fn table3_is_reciprocal_of_table2() {
        // internal consistency of the paper: throughput = 1 / latency
        for (ms, tps) in TABLE2_LOOPLYNX_MS.iter().zip(TABLE3_TOKENS_PER_S) {
            assert!((1000.0 / ms - tps).abs() / tps < 0.01);
        }
    }

    #[test]
    fn compare_renders_both_numbers() {
        let s = compare(4.0, 3.85);
        assert!(s.contains("4.00"));
        assert!(s.contains("3.85"));
    }
}
