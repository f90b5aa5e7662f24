//! Seeded synthetic weight generation.
//!
//! GPT-2 checkpoints are unavailable offline, so the reproduction uses
//! synthetic weights drawn from the initializer distribution GPT-2 itself
//! uses (`N(0, 0.02)`, with the residual-projection scaling of the original
//! paper). All timing and energy results depend only on tensor *shapes*;
//! functional correctness (quantized integer pipeline vs f32 reference,
//! single-node vs multi-node equivalence) is exercised with these weights
//! on small configs where every value flows through the same code paths a
//! real checkpoint would.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use looplynx_tensor::linear::QuantLinear;
use looplynx_tensor::matrix::Matrix;
use looplynx_tensor::norm::LayerNormParams;

use crate::config::ModelConfig;

/// Weights of one transformer block.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockWeights {
    /// Pre-attention layernorm.
    pub ln1: LayerNormParams,
    /// Fused QKV projection (`3·d_model × d_model`).
    pub qkv: QuantLinear,
    /// Attention output projection (`d_model × d_model`).
    pub proj: QuantLinear,
    /// Pre-MLP layernorm.
    pub ln2: LayerNormParams,
    /// MLP up-projection (`d_ff × d_model`).
    pub fc1: QuantLinear,
    /// MLP down-projection (`d_model × d_ff`).
    pub fc2: QuantLinear,
}

/// Full model weights.
#[derive(Debug, Clone, PartialEq)]
pub struct Gpt2Weights {
    /// Token embedding table (`vocab × d_model`, f32 — looked up on the
    /// host in the paper's system, not streamed through the accelerator).
    pub wte: Matrix<f32>,
    /// Positional embedding table (`max_seq × d_model`).
    pub wpe: Matrix<f32>,
    /// Transformer blocks.
    pub blocks: Vec<BlockWeights>,
    /// Final layernorm.
    pub ln_f: LayerNormParams,
    /// LM head (`vocab × d_model`).
    pub lm_head: QuantLinear,
}

/// Draws from an approximately normal distribution with the given standard
/// deviation (Irwin–Hall sum of 12 uniforms; exact normality is irrelevant
/// here, the initializer just needs a symmetric bell shape).
fn normal(rng: &mut StdRng, std: f32) -> f32 {
    let sum: f32 = (0..12).map(|_| rng.random::<f32>()).sum();
    (sum - 6.0) * std
}

fn random_matrix(rng: &mut StdRng, rows: usize, cols: usize, std: f32) -> Matrix<f32> {
    Matrix::from_fn(rows, cols, |_, _| normal(rng, std))
}

fn random_linear(rng: &mut StdRng, rows: usize, cols: usize, std: f32) -> QuantLinear {
    let w = random_matrix(rng, rows, cols, std);
    let bias: Vec<f32> = (0..rows).map(|_| normal(rng, 0.01)).collect();
    QuantLinear::from_f32(&w, &bias).expect("bias length matches rows")
}

fn random_layernorm(rng: &mut StdRng, dim: usize) -> LayerNormParams {
    let gamma: Vec<f32> = (0..dim).map(|_| 1.0 + normal(rng, 0.05)).collect();
    let beta: Vec<f32> = (0..dim).map(|_| normal(rng, 0.02)).collect();
    LayerNormParams::new(gamma, beta, 1e-5).expect("equal lengths")
}

impl Gpt2Weights {
    /// Generates reproducible synthetic weights for `cfg` from `seed`.
    ///
    /// GPT-2's initializer: `N(0, 0.02)` everywhere, residual projections
    /// scaled by `1/sqrt(2·layers)`.
    pub fn synthetic(cfg: &ModelConfig, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let std = 0.02f32;
        let resid_std = std / ((2 * cfg.layers) as f32).sqrt();
        let blocks = (0..cfg.layers)
            .map(|_| BlockWeights {
                ln1: random_layernorm(&mut rng, cfg.d_model),
                qkv: random_linear(&mut rng, 3 * cfg.d_model, cfg.d_model, std),
                proj: random_linear(&mut rng, cfg.d_model, cfg.d_model, resid_std),
                ln2: random_layernorm(&mut rng, cfg.d_model),
                fc1: random_linear(&mut rng, cfg.d_ff, cfg.d_model, std),
                fc2: random_linear(&mut rng, cfg.d_model, cfg.d_ff, resid_std),
            })
            .collect();
        Gpt2Weights {
            wte: random_matrix(&mut rng, cfg.vocab, cfg.d_model, std),
            wpe: random_matrix(&mut rng, cfg.max_seq, cfg.d_model, 0.01),
            blocks,
            ln_f: random_layernorm(&mut rng, cfg.d_model),
            lm_head: random_linear(&mut rng, cfg.vocab, cfg.d_model, std),
        }
    }

    /// Embedding lookup: the token row plus the position row, element by
    /// element (host-side in the paper's system).
    ///
    /// # Panics
    ///
    /// Panics if `token` is out of vocabulary or `pos` exceeds `max_seq`.
    pub fn embed(&self, token: u32, pos: usize) -> impl Iterator<Item = f32> + '_ {
        assert!(
            (token as usize) < self.wte.rows(),
            "token {token} out of vocab"
        );
        assert!(pos < self.wpe.rows(), "position {pos} beyond max_seq");
        let (wte, wpe) = (self.wte.row(token as usize), self.wpe.row(pos));
        wte.iter().zip(wpe).map(|(a, b)| a + b)
    }

    /// Total int8 weight bytes across blocks and LM head — must agree with
    /// [`ModelConfig::weights_bytes_total`].
    pub fn weight_bytes(&self) -> usize {
        let block_bytes: usize = self
            .blocks
            .iter()
            .map(|b| {
                b.qkv.weight_bytes()
                    + b.proj.weight_bytes()
                    + b.fc1.weight_bytes()
                    + b.fc2.weight_bytes()
            })
            .sum();
        block_bytes + self.lm_head.weight_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let cfg = ModelConfig::tiny();
        let a = Gpt2Weights::synthetic(&cfg, 7);
        let b = Gpt2Weights::synthetic(&cfg, 7);
        assert_eq!(a.blocks[0].qkv.weight(), b.blocks[0].qkv.weight());
        assert_eq!(a.wte, b.wte);
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = ModelConfig::tiny();
        let a = Gpt2Weights::synthetic(&cfg, 1);
        let b = Gpt2Weights::synthetic(&cfg, 2);
        assert_ne!(a.blocks[0].qkv.weight(), b.blocks[0].qkv.weight());
    }

    #[test]
    fn byte_accounting_matches_config() {
        let cfg = ModelConfig::tiny();
        let w = Gpt2Weights::synthetic(&cfg, 3);
        assert_eq!(w.weight_bytes(), cfg.weights_bytes_total());
    }

    #[test]
    fn shapes_follow_config() {
        let cfg = ModelConfig::tiny();
        let w = Gpt2Weights::synthetic(&cfg, 3);
        assert_eq!(w.blocks.len(), cfg.layers);
        let b = &w.blocks[0];
        assert_eq!(b.qkv.out_features(), 3 * cfg.d_model);
        assert_eq!(b.qkv.in_features(), cfg.d_model);
        assert_eq!(b.fc1.out_features(), cfg.d_ff);
        assert_eq!(b.fc2.in_features(), cfg.d_ff);
        assert_eq!(w.wte.shape(), (cfg.vocab, cfg.d_model));
        assert_eq!(w.lm_head.out_features(), cfg.vocab);
    }

    #[test]
    fn initializer_magnitude_is_small() {
        let cfg = ModelConfig::tiny();
        let w = Gpt2Weights::synthetic(&cfg, 3);
        // dequantized weights should be centered near zero with std ~0.02
        let q = w.blocks[0].qkv.weight();
        let deq: Vec<f32> = (q.data().iter_rows().zip(q.row_scales()))
            .flat_map(|(row, &s)| row.iter().map(move |&x| x as f32 * s))
            .collect();
        let mean: f32 = deq.iter().sum::<f32>() / deq.len() as f32;
        assert!(mean.abs() < 0.01, "mean {mean}");
        let max = deq.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
        assert!(max < 0.2, "max {max}");
    }
}
