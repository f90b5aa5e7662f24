//! Model hyper-parameters and derived byte counts.
//!
//! The derived quantities (weight bytes per block, KV bytes per token) are
//! the single source of truth for the accelerator's HBM traffic model: a
//! decode token must stream every weight byte once, which is why GPT-2
//! decode is memory-bound and why LoopLynx scales with channels and nodes.

use std::fmt;

/// Hyper-parameters of a GPT-2 style decoder-only transformer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelConfig {
    /// Human-readable name (e.g. `"gpt2-medium"`).
    pub name: String,
    /// Number of transformer blocks.
    pub layers: usize,
    /// Embedding (hidden) dimension `l_embed`.
    pub d_model: usize,
    /// Number of attention heads.
    pub heads: usize,
    /// Feed-forward inner dimension.
    pub d_ff: usize,
    /// Vocabulary size.
    pub vocab: usize,
    /// Maximum sequence length (positional-embedding table size).
    pub max_seq: usize,
}

impl ModelConfig {
    /// GPT-2 small (124M parameters).
    pub fn gpt2_small() -> Self {
        ModelConfig {
            name: "gpt2-small".into(),
            layers: 12,
            d_model: 768,
            heads: 12,
            d_ff: 3072,
            vocab: 50257,
            max_seq: 1024,
        }
    }

    /// GPT-2 medium (345M parameters) — the model evaluated in the paper.
    pub fn gpt2_medium() -> Self {
        ModelConfig {
            name: "gpt2-medium".into(),
            layers: 24,
            d_model: 1024,
            heads: 16,
            d_ff: 4096,
            vocab: 50257,
            max_seq: 1024,
        }
    }

    /// GPT-2 large (774M parameters).
    pub fn gpt2_large() -> Self {
        ModelConfig {
            name: "gpt2-large".into(),
            layers: 36,
            d_model: 1280,
            heads: 20,
            d_ff: 5120,
            vocab: 50257,
            max_seq: 1024,
        }
    }

    /// GPT-2 XL (1.5B parameters).
    pub fn gpt2_xl() -> Self {
        ModelConfig {
            name: "gpt2-xl".into(),
            layers: 48,
            d_model: 1600,
            heads: 25,
            d_ff: 6400,
            vocab: 50257,
            max_seq: 1024,
        }
    }

    /// A miniature config for fast functional tests (2 layers, d=64).
    pub fn tiny() -> Self {
        ModelConfig {
            name: "tiny".into(),
            layers: 2,
            d_model: 64,
            heads: 4,
            d_ff: 128,
            vocab: 320,
            max_seq: 64,
        }
    }

    /// Head dimension `d_model / heads`.
    ///
    /// # Panics
    ///
    /// Panics if `d_model` is not divisible by `heads`.
    pub fn d_head(&self) -> usize {
        assert_eq!(
            self.d_model % self.heads,
            0,
            "d_model {} not divisible by heads {}",
            self.d_model,
            self.heads
        );
        self.d_model / self.heads
    }

    /// Int8 weight bytes of one block's QKV projection (`3·d_model²`).
    pub fn qkv_bytes(&self) -> usize {
        3 * self.d_model * self.d_model
    }

    /// Int8 weight bytes of one block's output projection (`d_model²`).
    pub fn proj_bytes(&self) -> usize {
        self.d_model * self.d_model
    }

    /// Int8 weight bytes of one block's first MLP linear (`d_ff·d_model`).
    pub fn fc1_bytes(&self) -> usize {
        self.d_ff * self.d_model
    }

    /// Int8 weight bytes of one block's second MLP linear (`d_model·d_ff`).
    pub fn fc2_bytes(&self) -> usize {
        self.d_model * self.d_ff
    }

    /// Int8 weight bytes of one transformer block.
    pub fn block_weight_bytes(&self) -> usize {
        self.qkv_bytes() + self.proj_bytes() + self.fc1_bytes() + self.fc2_bytes()
    }

    /// Int8 weight bytes of the LM head (`vocab·d_model`).
    pub fn lm_head_bytes(&self) -> usize {
        self.vocab * self.d_model
    }

    /// Total int8 weight bytes streamed per decode token
    /// (all blocks + LM head).
    pub fn weights_bytes_total(&self) -> usize {
        self.layers * self.block_weight_bytes() + self.lm_head_bytes()
    }

    /// Int8 KV-cache bytes appended per token per layer (`2·d_model`).
    pub fn kv_bytes_per_token_per_layer(&self) -> usize {
        2 * self.d_model
    }

    /// Approximate parameter count (weights only, no embeddings).
    pub fn approx_params(&self) -> usize {
        self.weights_bytes_total()
    }
}

impl fmt::Display for ModelConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} layers, d={}, {} heads, ffn={}, vocab={}",
            self.name, self.layers, self.d_model, self.heads, self.d_ff, self.vocab
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn medium_matches_paper_shape() {
        let c = ModelConfig::gpt2_medium();
        assert_eq!(c.d_head(), 64);
        // 4·d² + 2·d·dff = 4·1024² + 2·1024·4096 = 12,582,912 per block
        assert_eq!(c.block_weight_bytes(), 12_582_912);
        // ≈302 MB of block weights + ≈51 MB LM head per decode token
        let total = c.weights_bytes_total();
        assert!(total > 350_000_000 && total < 360_000_000, "total {total}");
    }

    #[test]
    fn small_is_smaller_than_medium() {
        assert!(
            ModelConfig::gpt2_small().weights_bytes_total()
                < ModelConfig::gpt2_medium().weights_bytes_total()
        );
    }

    #[test]
    fn family_ordering_holds() {
        let sizes: Vec<usize> = [
            ModelConfig::gpt2_small(),
            ModelConfig::gpt2_medium(),
            ModelConfig::gpt2_large(),
            ModelConfig::gpt2_xl(),
        ]
        .iter()
        .map(ModelConfig::weights_bytes_total)
        .collect();
        assert!(sizes.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn kv_accounting() {
        let c = ModelConfig::gpt2_medium();
        assert_eq!(c.kv_bytes_per_token_per_layer(), 2048);
    }

    #[test]
    fn tiny_is_consistent() {
        let c = ModelConfig::tiny();
        assert_eq!(c.d_head(), 16);
        assert!(c.vocab >= 256, "byte tokenizer needs vocab >= 256");
        assert!(c.weights_bytes_total() < 1_000_000);
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn bad_head_split_panics() {
        let mut c = ModelConfig::tiny();
        c.heads = 3;
        let _ = c.d_head();
    }

    #[test]
    fn display_mentions_name() {
        assert!(ModelConfig::gpt2_medium()
            .to_string()
            .contains("gpt2-medium"));
    }
}
