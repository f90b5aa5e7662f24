//! Host-runtime model.
//!
//! Paper Fig. 2(b): "upon receiving input prompts, the host first embeds
//! each token and then passes it to the accelerator through PCIe … the
//! host synchronizes the model's output and feeds it as input to initiate
//! token generation." Every token therefore pays a host-side cost:
//!
//! * embedding lookup (table read + add, microseconds),
//! * PCIe transfer of the embedding vector down to the accelerator,
//! * PCIe transfer of the logits back up (decode tokens only — by far the
//!   largest term: GPT-2's 50257 fp32 logits are ~200 KB), and
//! * sampling + loop bookkeeping.
//!
//! [`HostModel::token_overhead_us`] computes this from the model shape;
//! the scheduler charges it once per row of every step.

use looplynx_model::config::ModelConfig;
use looplynx_sim::time::{Cycles, Frequency};

/// Host CPU + PCIe cost model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostModel {
    /// Effective PCIe throughput in GB/s (Gen3 x16 sustains ~12 of its
    /// 16 GB/s on small DMA transfers).
    pub pcie_gbps: f64,
    /// Fixed per-transfer PCIe/driver latency in microseconds.
    pub pcie_latency_us: f64,
    /// Embedding lookup + add on the host in microseconds.
    pub embed_us: f64,
    /// Sampling (arg-max / top-k over the logits) in microseconds.
    pub sample_us: f64,
}

impl HostModel {
    /// The calibration behind the paper-matching results (≈19 µs per
    /// decode token on GPT-2 medium).
    pub fn paper() -> Self {
        HostModel {
            pcie_gbps: 12.0,
            pcie_latency_us: 1.0,
            embed_us: 0.5,
            sample_us: 2.0,
        }
    }

    /// Microseconds to move `bytes` across PCIe.
    fn transfer_us(&self, bytes: usize) -> f64 {
        self.pcie_latency_us + bytes as f64 / (self.pcie_gbps * 1e3)
    }

    /// Host overhead for one token in microseconds.
    ///
    /// `needs_logits` is true for decode tokens and the final prefill
    /// token; other prompt tokens only ship an embedding downstream.
    pub fn token_overhead_us(&self, model: &ModelConfig, needs_logits: bool) -> f64 {
        // embedding vector down: d_model int8 activations (+ scale header)
        let down = self.transfer_us(model.d_model + 16);
        let up = if needs_logits {
            // logits up: vocab × f32
            self.transfer_us(model.vocab * 4) + self.sample_us
        } else {
            0.0
        };
        self.embed_us + down + up
    }

    /// Host overhead in kernel-clock cycles.
    pub fn token_overhead_cycles(
        &self,
        model: &ModelConfig,
        needs_logits: bool,
        clock: Frequency,
    ) -> Cycles {
        clock.cycles_in_seconds(self.token_overhead_us(model, needs_logits) * 1e-6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decode_token_overhead_near_calibration_point() {
        let h = HostModel::paper();
        let us = h.token_overhead_us(&ModelConfig::gpt2_medium(), true);
        // ~0.5 embed + ~1.1 down + ~17.8 up + 2 sample ≈ 21 µs
        assert!((15.0..25.0).contains(&us), "decode host overhead {us} µs");
    }

    #[test]
    fn logit_upload_dominates() {
        let h = HostModel::paper();
        let m = ModelConfig::gpt2_medium();
        let with = h.token_overhead_us(&m, true);
        let without = h.token_overhead_us(&m, false);
        assert!(with > 4.0 * without, "{with} vs {without}");
    }

    #[test]
    fn bigger_vocab_costs_more() {
        let h = HostModel::paper();
        let small = h.token_overhead_us(&ModelConfig::tiny(), true);
        let big = h.token_overhead_us(&ModelConfig::gpt2_medium(), true);
        assert!(big > small);
    }

    #[test]
    fn transfer_includes_fixed_latency() {
        let h = HostModel::paper();
        assert!(h.transfer_us(0) >= h.pcie_latency_us);
        // 12 GB/s → 1 MB in ~83 µs + latency
        let us = h.transfer_us(1 << 20);
        assert!((80.0..95.0).contains(&us), "{us}");
    }

    #[test]
    fn cycles_conversion_consistent() {
        let h = HostModel::paper();
        let m = ModelConfig::gpt2_medium();
        let clock = Frequency::from_mhz(285.0);
        let us = h.token_overhead_us(&m, true);
        let cyc = h.token_overhead_cycles(&m, true, clock);
        assert!((cyc.to_seconds(clock) * 1e6 - us).abs() < 0.01);
    }
}
