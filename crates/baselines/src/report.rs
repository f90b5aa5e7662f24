//! Shared report types for baseline comparisons.

use std::fmt;

use looplynx_hw::resources::ResourceVector;

/// One row of the paper's Table II (FPGA implementation comparison).
#[derive(Debug, Clone, PartialEq)]
pub struct FpgaBaselineReport {
    /// Architecture name.
    pub name: String,
    /// Node/device description (e.g. `"U280"`, `"2 Nodes (U50 x1)"`).
    pub nodes_desc: String,
    /// Kernel clock in MHz.
    pub freq_mhz: f64,
    /// Quantization scheme (e.g. `"W8A8"`, `"Float16"`).
    pub quantization: String,
    /// Average per-token latency in milliseconds.
    pub token_latency_ms: f64,
    /// Device resource utilization.
    pub resources: ResourceVector,
}

impl fmt::Display for FpgaBaselineReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<24} {:<18} {:>4.0} MHz {:<8} {:>6.2} ms  [{}]",
            self.name,
            self.nodes_desc,
            self.freq_mhz,
            self.quantization,
            self.token_latency_ms,
            self.resources
        )
    }
}

/// Latency/energy outcome of a GPU generation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuGenerationReport {
    /// Prompt length.
    pub prefill_tokens: usize,
    /// Generated tokens.
    pub decode_tokens: usize,
    /// Prefill wall-clock in milliseconds.
    pub prefill_ms: f64,
    /// Decode wall-clock in milliseconds.
    pub decode_ms: f64,
    /// Total wall-clock in milliseconds.
    pub total_ms: f64,
    /// Total energy in joules.
    pub energy_joules: f64,
    /// Generated tokens per joule.
    pub tokens_per_joule: f64,
}

impl fmt::Display for GpuGenerationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}:{}] {:.1} ms, {:.1} J, {:.2} tok/J",
            self.prefill_tokens,
            self.decode_tokens,
            self.total_ms,
            self.energy_joules,
            self.tokens_per_joule
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_renders_table_row() {
        let row = FpgaBaselineReport {
            name: "LoopLynx".into(),
            nodes_desc: "2 Nodes (U50 x1)".into(),
            freq_mhz: 285.0,
            quantization: "W8A8".into(),
            token_latency_ms: 3.85,
            resources: ResourceVector::new(1132.0, 312_000.0, 478_000.0, 924.5, 4.0),
        };
        let s = row.to_string();
        assert!(s.contains("LoopLynx"));
        assert!(s.contains("3.85"));
        assert!(s.contains("285"));
    }
}
