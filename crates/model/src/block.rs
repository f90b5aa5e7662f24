//! One transformer block on the W8A8 path.
//!
//! The stage sequence here is exactly the scheduler's stage list in the
//! accelerator (paper Fig. 3(c)): LN1 → QKV projection (fused MP kernel) →
//! MHA (fused MHA kernel) → output projection (MP again) → residual →
//! LN2 → FC1 (MP) → GELU → FC2 (MP) → residual. Keeping the functional
//! model stage-for-stage aligned with the hardware schedule is what lets
//! the engine attach cycle counts to real computation.

use looplynx_tensor::activation::gelu_vec;
use looplynx_tensor::norm::{layernorm, residual_add};
use looplynx_tensor::quant::quantize_vec;

use crate::attention::attend_all;
use crate::config::ModelConfig;
use crate::kv_cache::LayerKvCache;
use crate::weights::BlockWeights;

/// Runs one token through one transformer block.
///
/// Appends the token's K/V to `cache` and returns the block output. `pos`
/// is the token's absolute position (the cache must hold exactly `pos`
/// earlier tokens on entry).
///
/// # Panics
///
/// Panics if `x.len() != cfg.d_model` or the cache length disagrees with
/// `pos`.
pub fn block_forward(
    x: &[f32],
    w: &BlockWeights,
    cache: &mut LayerKvCache,
    cfg: &ModelConfig,
    pos: usize,
) -> Vec<f32> {
    assert_eq!(x.len(), cfg.d_model, "block input dimension");
    assert_eq!(cache.len(), pos, "cache out of step with position");
    let d = cfg.d_model;

    // LN1 (critical path, f32) then quantize for the MP kernel.
    let h = layernorm(x, &w.ln1);
    let hq = quantize_vec(&h);

    // Fused MP kernel activation #1: QKV projection.
    let qkv = w.qkv.forward(&hq);
    let (q, kv) = qkv.split_at(d);
    let (k, v) = kv.split_at(d);

    // KV cache append (int8), then the fused MHA kernel.
    cache.append(k, v);
    let attn = attend_all(q, cache, cfg.heads, cfg.d_head(), pos + 1);

    // Fused MP kernel activation #2: output projection, then residual.
    let aq = quantize_vec(&attn);
    let proj = w.proj.forward(&aq);
    let x1 = residual_add(x, &proj);

    // LN2 + MLP (MP activations #3 and #4) with GELU between.
    let h2 = layernorm(&x1, &w.ln2);
    let h2q = quantize_vec(&h2);
    let f1 = w.fc1.forward(&h2q);
    let g = gelu_vec(&f1);
    let gq = quantize_vec(&g);
    let f2 = w.fc2.forward(&gq);
    residual_add(&x1, &f2)
}

/// Runs a *batch* of consecutive tokens through one block with shared
/// weight passes (batched GEMMs) — the functional counterpart of the
/// accelerator's batched-prefill extension.
///
/// Each token is quantized with its own scale, so results are
/// **bit-identical** to calling [`block_forward`] token by token;
/// causality is preserved by attending each token only over `pos + t + 1`
/// cache entries even though the whole batch's K/V is appended first.
///
/// # Panics
///
/// Panics if `xs` is empty, any vector has the wrong width, or the cache
/// length disagrees with `pos`.
pub fn block_forward_batch(
    xs: &[Vec<f32>],
    w: &BlockWeights,
    cache: &mut LayerKvCache,
    cfg: &ModelConfig,
    pos: usize,
) -> Vec<Vec<f32>> {
    assert!(!xs.is_empty(), "batch must not be empty");
    assert!(
        xs.iter().all(|x| x.len() == cfg.d_model),
        "block input dimension"
    );
    assert_eq!(cache.len(), pos, "cache out of step with position");
    let d = cfg.d_model;
    let b = xs.len();

    // LN1 + per-token quantization, stacked for one shared QKV pass.
    let (h1_rows, h1_scales) = quantize_rows(xs.iter().map(|x| layernorm(x, &w.ln1)));
    let qkv = w.qkv.forward_batch_scaled(
        &looplynx_tensor::matrix::Matrix::from_vec(b, d, h1_rows).expect("stacked rows"),
        &h1_scales,
    );

    // Append the whole batch's K/V, then attend causally per token.
    for t in 0..b {
        let row = qkv.row(t);
        cache.append(&row[d..2 * d], &row[2 * d..3 * d]);
    }
    let attn_rows: Vec<Vec<f32>> = (0..b)
        .map(|t| {
            let q = &qkv.row(t)[..d];
            attend_all(q, cache, cfg.heads, cfg.d_head(), pos + t + 1)
        })
        .collect();

    // Shared projection pass, residual per token.
    let (a_rows, a_scales) = quantize_rows(attn_rows.iter().cloned());
    let proj = w.proj.forward_batch_scaled(
        &looplynx_tensor::matrix::Matrix::from_vec(b, d, a_rows).expect("stacked rows"),
        &a_scales,
    );
    let x1: Vec<Vec<f32>> = (0..b).map(|t| residual_add(&xs[t], proj.row(t))).collect();

    // MLP with shared FC1/FC2 passes.
    let (h2_rows, h2_scales) = quantize_rows(x1.iter().map(|x| layernorm(x, &w.ln2)));
    let f1 = w.fc1.forward_batch_scaled(
        &looplynx_tensor::matrix::Matrix::from_vec(b, d, h2_rows).expect("stacked rows"),
        &h2_scales,
    );
    let (g_rows, g_scales) = quantize_rows((0..b).map(|t| gelu_vec(f1.row(t))));
    let f2 = w.fc2.forward_batch_scaled(
        &looplynx_tensor::matrix::Matrix::from_vec(b, cfg.d_ff, g_rows).expect("stacked rows"),
        &g_scales,
    );
    (0..b).map(|t| residual_add(&x1[t], f2.row(t))).collect()
}

/// Quantizes each produced vector with its own scale and concatenates the
/// int8 rows (returning the flat buffer plus per-row scales).
fn quantize_rows(rows: impl Iterator<Item = Vec<f32>>) -> (Vec<i8>, Vec<f32>) {
    let mut data = Vec::new();
    let mut scales = Vec::new();
    for row in rows {
        let q = quantize_vec(&row);
        data.extend_from_slice(q.data());
        scales.push(q.scale());
    }
    (data, scales)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::weights::Gpt2Weights;

    fn setup() -> (ModelConfig, Gpt2Weights) {
        let cfg = ModelConfig::tiny();
        let w = Gpt2Weights::synthetic(&cfg, 11);
        (cfg, w)
    }

    #[test]
    fn output_shape_matches_input() {
        let (cfg, w) = setup();
        let mut cache = LayerKvCache::new(cfg.d_head());
        let x = vec![0.1f32; cfg.d_model];
        let y = block_forward(&x, &w.blocks[0], &mut cache, &cfg, 0);
        assert_eq!(y.len(), cfg.d_model);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn cache_grows_one_token_per_call() {
        let (cfg, w) = setup();
        let mut cache = LayerKvCache::new(cfg.d_head());
        let mut x = vec![0.05f32; cfg.d_model];
        for pos in 0..4 {
            x = block_forward(&x, &w.blocks[0], &mut cache, &cfg, pos);
        }
        assert_eq!(cache.len(), 4);
    }

    #[test]
    fn deterministic_given_same_inputs() {
        let (cfg, w) = setup();
        let x = vec![0.2f32; cfg.d_model];
        let mut c1 = LayerKvCache::new(cfg.d_head());
        let mut c2 = LayerKvCache::new(cfg.d_head());
        let y1 = block_forward(&x, &w.blocks[0], &mut c1, &cfg, 0);
        let y2 = block_forward(&x, &w.blocks[0], &mut c2, &cfg, 0);
        assert_eq!(y1, y2);
    }

    #[test]
    fn residual_path_keeps_signal() {
        // With small synthetic weights the residual dominates: the output
        // must stay correlated with the input rather than collapse.
        let (cfg, w) = setup();
        let mut cache = LayerKvCache::new(cfg.d_head());
        let x: Vec<f32> = (0..cfg.d_model).map(|i| (i as f32 * 0.1).sin()).collect();
        let y = block_forward(&x, &w.blocks[0], &mut cache, &cfg, 0);
        let dot: f32 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
        assert!(dot > 0.0, "residual signal lost");
    }

    #[test]
    #[should_panic(expected = "cache out of step")]
    fn position_mismatch_panics() {
        let (cfg, w) = setup();
        let mut cache = LayerKvCache::new(cfg.d_head());
        let x = vec![0.1f32; cfg.d_model];
        let _ = block_forward(&x, &w.blocks[0], &mut cache, &cfg, 3);
    }

    #[test]
    fn batched_block_is_bit_identical_to_sequential() {
        let (cfg, w) = setup();
        let xs: Vec<Vec<f32>> = (0..5)
            .map(|t| {
                (0..cfg.d_model)
                    .map(|i| ((t * cfg.d_model + i) as f32 * 0.03).sin())
                    .collect()
            })
            .collect();
        let mut seq_cache = LayerKvCache::new(cfg.d_head());
        let sequential: Vec<Vec<f32>> = xs
            .iter()
            .enumerate()
            .map(|(t, x)| block_forward(x, &w.blocks[0], &mut seq_cache, &cfg, t))
            .collect();
        let mut batch_cache = LayerKvCache::new(cfg.d_head());
        let batched = block_forward_batch(&xs, &w.blocks[0], &mut batch_cache, &cfg, 0);
        assert_eq!(sequential, batched, "batched path must be exact");
        // caches end up identical too
        assert_eq!(seq_cache, batch_cache);
    }

    #[test]
    fn batched_block_respects_causality() {
        // Changing a later token must not affect an earlier token's output.
        let (cfg, w) = setup();
        let mut xs: Vec<Vec<f32>> = (0..3)
            .map(|t| vec![0.1 * (t as f32 + 1.0); cfg.d_model])
            .collect();
        let mut c1 = LayerKvCache::new(cfg.d_head());
        let base = block_forward_batch(&xs, &w.blocks[0], &mut c1, &cfg, 0);
        xs[2] = vec![9.0; cfg.d_model];
        let mut c2 = LayerKvCache::new(cfg.d_head());
        let poked = block_forward_batch(&xs, &w.blocks[0], &mut c2, &cfg, 0);
        assert_eq!(base[0], poked[0]);
        assert_eq!(base[1], poked[1]);
        assert_ne!(base[2], poked[2]);
    }

    #[test]
    #[should_panic(expected = "batch must not be empty")]
    fn empty_batch_panics() {
        let (cfg, w) = setup();
        let mut cache = LayerKvCache::new(cfg.d_head());
        let _ = block_forward_batch(&[], &w.blocks[0], &mut cache, &cfg, 0);
    }
}
