//! The quantization unit.
//!
//! "After the quantization unit performs bias addition and quantization,
//! datapacks are forwarded to the router" (paper Section III-D). The unit
//! is fully pipelined — one datapack per cycle — with a modest pipeline
//! depth; its latency is normally hidden inside the MP pipeline and only
//! exposed when a stage drains (which is exactly what the paper observes at
//! 4 nodes, where small per-node blocks "expose the latency of quantization
//! and synchronization").

use looplynx_sim::time::Cycles;
use looplynx_tensor::quant::{quantize_vec_with_scale, QuantizedVector};

use crate::config::ArchConfig;
use crate::datapack::datapacks_for;

/// The fused bias-add + requantize unit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuantUnit {
    latency: Cycles,
    n_group: usize,
}

impl QuantUnit {
    /// Creates the unit from the architecture config.
    pub fn new(cfg: &ArchConfig) -> Self {
        QuantUnit {
            latency: cfg.quant_latency(),
            n_group: cfg.n_group(),
        }
    }

    /// Pipeline depth.
    pub fn latency(&self) -> Cycles {
        self.latency
    }

    /// Cycles to requantize `elements` int32 accumulators: one datapack per
    /// cycle once the pipeline is full.
    pub fn cycles_for(&self, elements: usize) -> Cycles {
        if elements == 0 {
            return Cycles::ZERO;
        }
        Cycles::new(datapacks_for(elements) as u64) + self.latency
    }

    /// Functional path: bias-add then symmetric requantization at
    /// `out_scale` — the epilogue every MP activation applies.
    ///
    /// # Panics
    ///
    /// Panics if `bias.len() != values.len()`.
    pub fn requantize(&self, values: &[f32], bias: &[f32], out_scale: f32) -> QuantizedVector {
        assert_eq!(values.len(), bias.len(), "bias length mismatch");
        let biased: Vec<f32> = values.iter().zip(bias).map(|(v, b)| v + b).collect();
        quantize_vec_with_scale(&biased, out_scale)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit() -> QuantUnit {
        QuantUnit::new(&ArchConfig::paper())
    }

    #[test]
    fn throughput_is_one_pack_per_cycle() {
        let u = unit();
        let small = u.cycles_for(32).as_u64();
        let large = u.cycles_for(3200).as_u64();
        // 100 packs vs 1 pack: difference must be 99 cycles
        assert_eq!(large - small, 99);
    }

    #[test]
    fn latency_dominates_tiny_jobs() {
        let u = unit();
        assert_eq!(u.cycles_for(1).as_u64(), 1 + u.latency().as_u64());
        assert_eq!(u.cycles_for(0), Cycles::ZERO);
    }

    #[test]
    fn functional_requantize_applies_bias() {
        let u = unit();
        let q = u.requantize(&[1.0, 2.0], &[0.5, -0.5], 0.05);
        let back = q.dequantize();
        assert!((back[0] - 1.5).abs() < 0.05);
        assert!((back[1] - 1.5).abs() < 0.05);
    }

    #[test]
    #[should_panic(expected = "bias length mismatch")]
    fn bias_length_checked() {
        let _ = unit().requantize(&[1.0], &[1.0, 2.0], 0.1);
    }
}
