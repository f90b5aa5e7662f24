//! DFX-like temporal architecture model.
//!
//! DFX (Hong et al., MICRO 2022) is the paper's temporal-architecture
//! baseline: an instruction-set overlay on an Alveo U280 executing fp16
//! transformer inference. Its defining costs, per the paper's analysis
//! (Section III-B, Fig. 3(a)):
//!
//! * **fp16 weights** — twice the HBM traffic of W8A8;
//! * **serialized execution** — "frequent operations of memory read,
//!   compute, and write-back, typically in a serialized manner", so memory
//!   and compute do not overlap;
//! * **instruction overhead** — each operation is fetched/decoded at the
//!   200 MHz overlay clock.

use looplynx_hw::resources::ResourceVector;
use looplynx_model::config::ModelConfig;

use crate::report::FpgaBaselineReport;

/// The temporal (DFX-like) executor model.
#[derive(Debug, Clone, PartialEq)]
pub struct TemporalArch {
    /// Overlay clock in MHz.
    pub freq_mhz: f64,
    /// Bytes per weight (fp16 = 2).
    pub bytes_per_weight: f64,
    /// Aggregate HBM bandwidth of the U280 in GB/s.
    pub hbm_gbps: f64,
    /// Achieved fraction of peak bandwidth (instruction-driven access
    /// patterns cannot sustain long bursts).
    pub hbm_efficiency: f64,
    /// DSP slices doing MACs.
    pub dsps: usize,
    /// DSPs consumed per fp16 MAC per cycle.
    pub dsp_per_mac: f64,
    /// Instructions executed per transformer layer.
    pub instructions_per_layer: usize,
    /// Fetch/decode/dispatch overhead per instruction in microseconds.
    pub instruction_overhead_us: f64,
    /// Board power in watts while decoding (U280-class overlay).
    pub power_watts: f64,
}

impl TemporalArch {
    /// DFX single-U280 calibration (paper Table II row: 5.37 ms, 200 MHz,
    /// Float16).
    pub fn dfx_u280() -> Self {
        TemporalArch {
            freq_mhz: 200.0,
            bytes_per_weight: 2.0,
            hbm_gbps: 460.0,
            hbm_efficiency: 0.42,
            dsps: 3533,
            dsp_per_mac: 2.0,
            instructions_per_layer: 30,
            instruction_overhead_us: 1.0,
            power_watts: 90.0,
        }
    }

    /// Per-token latency in milliseconds. Memory, compute and instruction
    /// overhead add up — the serialized pattern the hybrid design removes.
    pub fn token_latency_ms(&self, model: &ModelConfig) -> f64 {
        let weights = model.weights_bytes_total() as f64;
        let mem_ms = weights * self.bytes_per_weight / (self.hbm_gbps * self.hbm_efficiency) / 1e6;
        let macs = weights; // one MAC per weight element
        let macs_per_sec = self.dsps as f64 / self.dsp_per_mac * self.freq_mhz * 1e6;
        let compute_ms = macs / macs_per_sec * 1e3;
        let instr_ms =
            model.layers as f64 * self.instructions_per_layer as f64 * self.instruction_overhead_us
                / 1e3;
        mem_ms + compute_ms + instr_ms
    }

    /// Energy per generated token in joules.
    pub fn energy_per_token_j(&self, model: &ModelConfig) -> f64 {
        self.power_watts * self.token_latency_ms(model) / 1e3
    }

    /// The Table II row for this baseline.
    pub fn report(&self, model: &ModelConfig) -> FpgaBaselineReport {
        FpgaBaselineReport {
            name: "Temporal Architecture [2]".into(),
            nodes_desc: "U280".into(),
            freq_mhz: self.freq_mhz,
            quantization: "Float16".into(),
            token_latency_ms: self.token_latency_ms(model),
            resources: ResourceVector::new(3533.0, 520_000.0, 1_107_000.0, 1192.0, 104.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_near_paper_row() {
        // Table II: DFX ≈ 5.37 ms/token on GPT-2 (345M). Accept ±10 %.
        let t = TemporalArch::dfx_u280().token_latency_ms(&ModelConfig::gpt2_medium());
        assert!((4.8..6.0).contains(&t), "DFX latency {t} ms");
    }

    #[test]
    fn memory_dominates() {
        let a = TemporalArch::dfx_u280();
        let m = ModelConfig::gpt2_medium();
        let weights = m.weights_bytes_total() as f64;
        let mem_ms = weights * 2.0 / (a.hbm_gbps * a.hbm_efficiency) / 1e6;
        assert!(
            mem_ms / a.token_latency_ms(&m) > 0.6,
            "fp16 traffic should dominate"
        );
    }

    #[test]
    fn fp16_pays_double_traffic() {
        let mut a = TemporalArch::dfx_u280();
        let base = a.token_latency_ms(&ModelConfig::gpt2_medium());
        a.bytes_per_weight = 1.0;
        let int8 = a.token_latency_ms(&ModelConfig::gpt2_medium());
        assert!(base > 1.4 * int8, "fp16 {base} vs int8 {int8}");
    }

    #[test]
    fn report_matches_paper_resources() {
        let r = TemporalArch::dfx_u280().report(&ModelConfig::gpt2_medium());
        assert_eq!(r.resources.dsp, 3533.0);
        assert_eq!(r.resources.uram, 104.0);
        assert_eq!(r.quantization, "Float16");
    }

    #[test]
    fn energy_scales_with_latency() {
        let a = TemporalArch::dfx_u280();
        let m = ModelConfig::gpt2_medium();
        let e = a.energy_per_token_j(&m);
        assert!((e - a.power_watts * a.token_latency_ms(&m) / 1e3).abs() < 1e-12);
        assert!(e > 0.3 && e < 0.8, "J/token {e}");
    }
}
