//! Property-based tests for the comparator models.

use proptest::prelude::*;

use looplynx_baselines::gpu::A100Model;
use looplynx_baselines::spatial::SpatialArch;
use looplynx_baselines::temporal::TemporalArch;
use looplynx_model::config::ModelConfig;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// GPU generation time and energy are monotone in both prompt and
    /// generation length.
    #[test]
    fn gpu_generation_monotone(prefill in 1usize..512, decode in 1usize..512) {
        let g = A100Model::paper_baseline();
        let m = ModelConfig::gpt2_medium();
        let base = g.generation(&m, prefill, decode);
        let longer_prompt = g.generation(&m, prefill + 64, decode);
        let longer_gen = g.generation(&m, prefill, decode + 64);
        prop_assert!(longer_prompt.total_ms >= base.total_ms);
        prop_assert!(longer_gen.total_ms > base.total_ms);
        prop_assert!(longer_gen.energy_joules > base.energy_joules);
        prop_assert!(base.energy_joules > 0.0);
    }

    /// GPU decode latency per token is constant (launch-bound), so totals
    /// are linear in decode count.
    #[test]
    fn gpu_decode_linear(decode in 1usize..256) {
        let g = A100Model::paper_baseline();
        let m = ModelConfig::gpt2_medium();
        let one = g.generation(&m, 1, decode);
        let two = g.generation(&m, 1, decode * 2);
        let ratio = two.decode_ms / one.decode_ms;
        prop_assert!((ratio - 2.0).abs() < 1e-9, "ratio {ratio}");
    }

    /// The temporal model is monotone in model size across the GPT-2
    /// family and always slower than its pure memory bound.
    #[test]
    fn temporal_monotone_and_bounded(idx in 0usize..3) {
        let family = [
            ModelConfig::gpt2_small(),
            ModelConfig::gpt2_medium(),
            ModelConfig::gpt2_large(),
        ];
        let a = TemporalArch::dfx_u280();
        let small = a.token_latency_ms(&family[idx]);
        if idx + 1 < family.len() {
            let big = a.token_latency_ms(&family[idx + 1]);
            prop_assert!(big > small);
        }
        let mem_floor = family[idx].weights_bytes_total() as f64 * a.bytes_per_weight
            / (a.hbm_gbps * 1e6);
        prop_assert!(small > mem_floor, "{small} vs floor {mem_floor}");
    }

    /// Baseline orderings hold for every GPT-2 family member: spatial
    /// decode beats DFX (int8 vs fp16 traffic on the same board).
    #[test]
    fn spatial_beats_dfx_across_family(idx in 0usize..4) {
        let family = [
            ModelConfig::gpt2_small(),
            ModelConfig::gpt2_medium(),
            ModelConfig::gpt2_large(),
            ModelConfig::gpt2_xl(),
        ];
        let m = &family[idx];
        let dfx = TemporalArch::dfx_u280().token_latency_ms(m);
        let spatial = SpatialArch::u280().decode_token_ms(m);
        prop_assert!(spatial < dfx, "{spatial} vs {dfx} on {}", m.name);
    }
}
