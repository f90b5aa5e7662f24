//! Spatial dataflow architecture model.
//!
//! The paper's spatial baseline (Chen et al., TRETS 2024) instantiates
//! every operator as its own kernel on an Alveo U280 and connects them in
//! a dataflow; during prefill the task-level pipeline keeps all kernels
//! busy, but "the sequential processing patterns in the decoding stage …
//! prevent continuous pipeline formation": at any instant only the kernels
//! of the currently-executing operator stream data, so most of the fabric
//! — and most of the HBM channels wired to idle kernels — sit unused
//! (paper Fig. 3(b.2)).

use looplynx_hw::resources::ResourceVector;
use looplynx_model::config::ModelConfig;

use crate::report::FpgaBaselineReport;

/// The spatial-architecture executor model.
#[derive(Debug, Clone, PartialEq)]
pub struct SpatialArch {
    /// Kernel clock in MHz.
    pub freq_mhz: f64,
    /// Aggregate U280 HBM bandwidth in GB/s.
    pub hbm_gbps: f64,
    /// Fraction of aggregate bandwidth usable during *decode* — only the
    /// active kernel's channels stream (the architecture's decode problem).
    pub decode_bw_fraction: f64,
    /// Fraction usable during *prefill*, when the task-level pipeline keeps
    /// every kernel (and its channels) busy.
    pub prefill_bw_fraction: f64,
    /// Fixed per-token overhead in milliseconds (pipeline fills between
    /// cascaded small kernels).
    pub per_token_overhead_ms: f64,
    /// Board power in watts.
    pub power_watts: f64,
}

impl SpatialArch {
    /// Calibration for the paper's Table II row (4.17 ms, 245 MHz, W8A8).
    pub fn u280() -> Self {
        SpatialArch {
            freq_mhz: 245.0,
            hbm_gbps: 460.0,
            decode_bw_fraction: 0.19,
            prefill_bw_fraction: 0.65,
            per_token_overhead_ms: 0.1,
            power_watts: 80.0,
        }
    }

    /// Decode per-token latency in milliseconds (W8A8 weights streamed
    /// through the active kernel's share of the bandwidth).
    pub fn decode_token_ms(&self, model: &ModelConfig) -> f64 {
        let bytes = model.weights_bytes_total() as f64;
        bytes / (self.hbm_gbps * self.decode_bw_fraction) / 1e6 + self.per_token_overhead_ms
    }

    /// Energy per decoded token in joules.
    pub fn energy_per_token_j(&self, model: &ModelConfig) -> f64 {
        self.power_watts * self.decode_token_ms(model) / 1e3
    }

    /// The Table II row for this baseline.
    pub fn report(&self, model: &ModelConfig) -> FpgaBaselineReport {
        FpgaBaselineReport {
            name: "Spatial Architecture [6]".into(),
            nodes_desc: "U280".into(),
            freq_mhz: self.freq_mhz,
            quantization: "W8A8".into(),
            token_latency_ms: self.decode_token_ms(model),
            resources: ResourceVector::new(1780.0, 653_000.0, 569_000.0, 389.0, 111.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decode_latency_near_paper_row() {
        // Table II: spatial ≈ 4.17 ms/token. Accept ±10 %.
        let t = SpatialArch::u280().decode_token_ms(&ModelConfig::gpt2_medium());
        assert!((3.7..4.6).contains(&t), "spatial latency {t} ms");
    }

    #[test]
    fn prefill_is_much_faster_than_decode() {
        // Prefill streams the weights through every kernel's channels at
        // once (the task-level pipeline), decode through the active one's.
        let a = SpatialArch::u280();
        let m = ModelConfig::gpt2_medium();
        let prefill_token_ms =
            m.weights_bytes_total() as f64 / (a.hbm_gbps * a.prefill_bw_fraction) / 1e6
                + a.per_token_overhead_ms;
        assert!(
            a.decode_token_ms(&m) / prefill_token_ms > 2.5,
            "pipeline should shine in prefill"
        );
    }

    #[test]
    fn report_matches_paper_resources() {
        let r = SpatialArch::u280().report(&ModelConfig::gpt2_medium());
        assert_eq!(r.resources.dsp, 1780.0);
        assert_eq!(r.resources.bram, 389.0);
        assert!((r.freq_mhz - 245.0).abs() < 1e-9);
    }

    #[test]
    fn ordering_between_baselines_matches_paper() {
        // Table II ordering: spatial (4.17) beats DFX (5.37) on decode.
        let spatial = SpatialArch::u280().decode_token_ms(&ModelConfig::gpt2_medium());
        let dfx =
            crate::temporal::TemporalArch::dfx_u280().token_latency_ms(&ModelConfig::gpt2_medium());
        assert!(spatial < dfx, "spatial {spatial} vs DFX {dfx}");
    }
}
