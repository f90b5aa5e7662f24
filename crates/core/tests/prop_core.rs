//! Property-based tests for the LoopLynx architecture crate.

use proptest::prelude::*;

use looplynx_core::config::{ArchConfig, KV_CHANNELS};
use looplynx_core::kernels::mha::{FusedMhaKernel, MhaJob};
use looplynx_core::kernels::mp::{FusedMpKernel, MpJob};
use looplynx_core::parallel::{shard_weights, split_range};
use looplynx_core::router::{RingMode, Router};
use looplynx_model::config::ModelConfig;
use looplynx_model::weights::Gpt2Weights;
use looplynx_tensor::quant::quantize_vec;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// MP kernel time is monotone in rows, cols and sync bytes.
    #[test]
    fn mp_timing_monotone(
        rows in 32usize..2048,
        cols in 32usize..2048,
        sync in 0usize..1024,
    ) {
        let cfg = ArchConfig::builder().nodes(4).build().expect("valid");
        let k = FusedMpKernel::new(&cfg);
        let base = k.timing(&MpJob { rows, cols, sync_bytes: sync, batch: 1 }).total;
        let more_rows = k.timing(&MpJob { rows: rows * 2, cols, sync_bytes: sync, batch: 1 }).total;
        let more_cols = k.timing(&MpJob { rows, cols: cols * 2, sync_bytes: sync, batch: 1 }).total;
        let more_sync = k.timing(&MpJob { rows, cols, sync_bytes: sync + 4096, batch: 1 }).total;
        prop_assert!(more_rows >= base);
        prop_assert!(more_cols >= base);
        prop_assert!(more_sync >= base);
    }

    /// MP kernel time never beats the aggregate memory bound.
    #[test]
    fn mp_never_beats_memory_bound(rows in 32usize..4096, cols in 32usize..4096) {
        let cfg = ArchConfig::builder().nodes(1).build().expect("valid");
        let k = FusedMpKernel::new(&cfg);
        let t = k.timing(&MpJob { rows, cols, sync_bytes: 0, batch: 1 }).total.as_f64();
        let peak = cfg.mp_channels() as f64 * cfg.hbm_channel().peak_bytes_per_cycle();
        let ideal = (rows * cols) as f64 / peak;
        prop_assert!(t >= ideal, "{t} beats memory bound {ideal}");
    }

    /// MHA timing is monotone in context and heads.
    #[test]
    fn mha_timing_monotone(context in 1usize..1024, heads in 1usize..16) {
        let cfg = ArchConfig::paper();
        let k = FusedMhaKernel::new(&cfg);
        let job = MhaJob { heads, d_head: 64, context, sync_bytes: 0 };
        let base = k.timing(&job).total;
        let deeper = k.timing(&MhaJob { context: context + 64, ..job }).total;
        let wider = k.timing(&MhaJob { heads: heads + 1, ..job }).total;
        prop_assert!(deeper >= base);
        prop_assert!(wider >= base);
    }

    /// split_range parts are contiguous, ordered, near-equal and complete.
    #[test]
    fn split_range_properties(total in 0usize..100_000, parts in 1usize..128) {
        let mut end = 0usize;
        let mut min_len = usize::MAX;
        let mut max_len = 0usize;
        for i in 0..parts {
            let r = split_range(total, parts, i);
            prop_assert_eq!(r.start, end);
            end = r.end;
            min_len = min_len.min(r.len());
            max_len = max_len.max(r.len());
        }
        prop_assert_eq!(end, total);
        prop_assert!(max_len - min_len <= 1, "unbalanced: {min_len}..{max_len}");
    }

    /// Weight shards tile the model exactly for every legal ring size:
    /// byte totals match and stitched linear outputs equal the full layer.
    #[test]
    fn shards_tile_model(nodes in prop::sample::select(vec![1usize, 2, 4]), seed in 0u64..50) {
        let cfg = ModelConfig::tiny();
        let w = Gpt2Weights::synthetic(&cfg, seed);
        let shards = shard_weights(&w, &cfg, nodes).expect("tiny partitions");
        let total: usize = shards.iter().map(|s| s.weight_bytes()).sum();
        prop_assert_eq!(total, cfg.weights_bytes_total());
        // stitched fc1 output equals the unsharded fc1
        let x = quantize_vec(&(0..cfg.d_model).map(|i| (i as f32 * 0.1).sin()).collect::<Vec<_>>());
        let full = w.blocks[0].fc1.forward(&x);
        let stitched: Vec<f32> = shards.iter().flat_map(|s| s.layers[0].fc1.forward(&x)).collect();
        prop_assert_eq!(full, stitched);
    }

    /// Exact-mode gather equals concatenation; quantized-mode gather stays
    /// within one quantization step per shard.
    #[test]
    fn router_modes_agree(
        nodes in 1usize..5,
        shard_len in 1usize..32,
        seed in any::<u64>(),
    ) {
        let shards: Vec<Vec<f32>> = (0..nodes)
            .map(|n| {
                (0..shard_len)
                    .map(|i| (((seed >> (n % 7)) as usize + i * 13) % 100) as f32 / 25.0 - 2.0)
                    .collect()
            })
            .collect();
        let exact = Router::new(nodes, RingMode::Exact).all_gather(&shards);
        let quant = Router::new(nodes, RingMode::Quantized).all_gather(&shards);
        prop_assert_eq!(exact.len(), quant.len());
        for (n, shard) in shards.iter().enumerate() {
            let step = shard.iter().fold(0.0f32, |m, &x| m.max(x.abs())) / 127.0;
            for (i, _) in shard.iter().enumerate() {
                let idx = n * shard_len + i;
                prop_assert!(
                    (exact[idx] - quant[idx]).abs() <= step / 2.0 + 1e-6,
                    "shard {n} elem {i}: {} vs {}", exact[idx], quant[idx]
                );
            }
        }
    }

    /// Any valid builder configuration yields self-consistent derived
    /// quantities.
    #[test]
    fn config_derived_quantities_consistent(
        nodes in prop::sample::select(vec![1usize, 2, 4, 8]),
        mp in 2usize..12,
    ) {
        prop_assume!((mp + KV_CHANNELS) * 2 <= 32 || nodes == 1);
        let cfg = ArchConfig::builder()
            .nodes(nodes)
            .mp_channels(mp)
            .build();
        prop_assume!(cfg.is_ok());
        let cfg = cfg.unwrap();
        prop_assert_eq!(cfg.channels_per_node(), mp + KV_CHANNELS);
        prop_assert_eq!(cfg.devices(), nodes.div_ceil(2));
        let eff = cfg.channel_bytes_per_cycle();
        prop_assert!(eff > 0.0 && eff <= cfg.hbm_channel().peak_bytes_per_cycle());
        prop_assert!(cfg.power_watts(1.0) > cfg.power_watts(0.0));
    }
}
