//! Analytical Nvidia A100 executor.
//!
//! The paper runs GPT-2 on an A100 through PyTorch with the torch-int
//! W8A8 kernels. Two regimes govern that system:
//!
//! * **Decode** — one token at a time. Every transformer layer dispatches a
//!   dozen small CUDA kernels (quantize, GEMV, dequantize, LN, softmax, …)
//!   whose *launch overhead* dwarfs their execution on a 345M-parameter
//!   model; the GPU's 1935 GB/s cannot be fed. This is why a 285 MHz FPGA
//!   can win.
//! * **Prefill** — all prompt tokens in one batched pass: launches amortize
//!   across the batch and the tensor cores saturate, which is why the
//!   paper's `[128:32]` setting favours the A100.
//!
//! Power follows the utilization model of [`looplynx_hw::power`]: decode
//! barely utilizes the device (~65 W measured-style), prefill drives it
//! substantially harder.

use looplynx_hw::power::GpuPowerModel;
use looplynx_model::config::ModelConfig;

use crate::report::GpuGenerationReport;

/// Calibrated A100 + torch-int executor model.
#[derive(Debug, Clone, PartialEq)]
pub struct A100Model {
    /// Per-kernel launch + framework overhead in microseconds.
    pub launch_overhead_us: f64,
    /// CUDA kernels dispatched per transformer layer (torch-int W8A8 path).
    pub kernels_per_layer: usize,
    /// Additional kernels outside the layers (embedding, final LN, LM
    /// head, sampling sync).
    pub extra_kernels: usize,
    /// Peak HBM2e bandwidth in GB/s (Table I).
    pub mem_bw_gbps: f64,
    /// Achievable fraction of peak bandwidth for streaming GEMV.
    pub mem_efficiency: f64,
    /// Dense int8 tensor-core throughput in TOPS.
    pub int8_tops: f64,
    /// Achievable fraction of peak TOPS on these layer shapes.
    pub compute_efficiency: f64,
    /// Device utilization during serial decode (drives power).
    pub decode_utilization: f64,
    /// Device utilization during batched prefill.
    pub prefill_utilization: f64,
    /// The power model.
    pub power: GpuPowerModel,
}

impl A100Model {
    /// The calibration used against the paper's Fig. 8 / Table II claims.
    pub fn paper_baseline() -> Self {
        A100Model {
            launch_overhead_us: 33.0,
            kernels_per_layer: 12,
            extra_kernels: 8,
            mem_bw_gbps: 1935.0,
            mem_efficiency: 0.8,
            int8_tops: 624.0,
            compute_efficiency: 0.3,
            decode_utilization: 0.08,
            prefill_utilization: 0.40,
            power: GpuPowerModel::a100(),
        }
    }

    /// Total kernel launches for one forward pass.
    fn launches(&self, model: &ModelConfig) -> usize {
        model.layers * self.kernels_per_layer + self.extra_kernels
    }

    /// Milliseconds of pure launch/framework overhead per forward pass.
    fn launch_ms(&self, model: &ModelConfig) -> f64 {
        self.launches(model) as f64 * self.launch_overhead_us / 1e3
    }

    /// Latency of one decode token in milliseconds.
    pub fn decode_token_ms(&self, model: &ModelConfig) -> f64 {
        let bytes = model.weights_bytes_total() as f64;
        let mem_ms = bytes / (self.mem_bw_gbps * self.mem_efficiency) / 1e6;
        self.launch_ms(model) + mem_ms
    }

    /// Latency of prefilling `prompt` tokens in one batched pass,
    /// in milliseconds.
    ///
    /// # Panics
    ///
    /// Panics if `prompt` is zero.
    pub fn prefill_ms(&self, model: &ModelConfig, prompt: usize) -> f64 {
        assert!(prompt > 0, "prompt must not be empty");
        // One pass over the weights regardless of batch; compute grows with
        // the token count. The launch overhead is paid once.
        let bytes = model.weights_bytes_total() as f64;
        let mem_ms = bytes / (self.mem_bw_gbps * self.mem_efficiency) / 1e6;
        let macs = 2.0 * bytes * prompt as f64; // multiply-accumulate ops
        let compute_ms = macs / (self.int8_tops * 1e12 * self.compute_efficiency) * 1e3;
        self.launch_ms(model) + mem_ms.max(compute_ms)
    }

    /// Simulates a `[prefill : decode]` generation.
    ///
    /// # Panics
    ///
    /// Panics if either count is zero.
    pub fn generation(
        &self,
        model: &ModelConfig,
        prefill: usize,
        decode: usize,
    ) -> GpuGenerationReport {
        assert!(decode > 0, "need at least one generated token");
        let prefill_ms = self.prefill_ms(model, prefill);
        let decode_ms = decode as f64 * self.decode_token_ms(model);
        let e_prefill = self.power.watts_at(self.prefill_utilization) * prefill_ms / 1e3;
        let e_decode = self.power.watts_at(self.decode_utilization) * decode_ms / 1e3;
        let energy = e_prefill + e_decode;
        GpuGenerationReport {
            prefill_tokens: prefill,
            decode_tokens: decode,
            prefill_ms,
            decode_ms,
            total_ms: prefill_ms + decode_ms,
            energy_joules: energy,
            tokens_per_joule: decode as f64 / energy,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> ModelConfig {
        ModelConfig::gpt2_medium()
    }

    #[test]
    fn decode_is_launch_bound() {
        let g = A100Model::paper_baseline();
        let total = g.decode_token_ms(&model());
        let launch = g.launch_ms(&model());
        assert!(launch / total > 0.9, "decode must be overhead-dominated");
        // the calibration band: ~9-11 ms per token for GPT-2 medium
        assert!((8.0..12.0).contains(&total), "decode token {total} ms");
    }

    #[test]
    fn prefill_amortizes_launches() {
        let g = A100Model::paper_baseline();
        let m = model();
        let p128 = g.prefill_ms(&m, 128);
        let serial = 128.0 * g.decode_token_ms(&m);
        assert!(
            p128 < serial / 10.0,
            "batched prefill should crush serial: {p128} vs {serial}"
        );
    }

    #[test]
    fn prefill_grows_sublinearly_then_compute_bound() {
        let g = A100Model::paper_baseline();
        let m = model();
        let p1 = g.prefill_ms(&m, 1);
        let p128 = g.prefill_ms(&m, 128);
        let p1024 = g.prefill_ms(&m, 1024);
        assert!(p128 < 2.0 * p1, "small prefills are overhead-bound");
        assert!(p1024 > p128, "very long prompts become compute-bound");
    }

    #[test]
    fn generation_totals_consistent() {
        let g = A100Model::paper_baseline();
        let r = g.generation(&model(), 32, 512);
        assert!((r.total_ms - (r.prefill_ms + r.decode_ms)).abs() < 1e-9);
        assert!(r.energy_joules > 0.0);
        assert!((r.tokens_per_joule - 512.0 / r.energy_joules).abs() < 1e-9);
    }

    #[test]
    fn decode_energy_rate_in_measured_band() {
        // ~0.5-0.8 J per decoded token (≈65 W × ≈10 ms)
        let g = A100Model::paper_baseline();
        let r = g.generation(&model(), 1, 100);
        let per_token = r.energy_joules / 100.0;
        assert!((0.4..0.9).contains(&per_token), "J/token {per_token}");
    }

    #[test]
    fn bigger_models_are_slower() {
        let g = A100Model::paper_baseline();
        assert!(
            g.decode_token_ms(&ModelConfig::gpt2_xl()) > g.decode_token_ms(&model()),
            "more layers mean more launches"
        );
    }

    #[test]
    #[should_panic(expected = "prompt must not be empty")]
    fn empty_prompt_rejected() {
        let _ = A100Model::paper_baseline().prefill_ms(&model(), 0);
    }
}
