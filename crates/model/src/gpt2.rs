//! End-to-end GPT-2: embed → blocks → final LN → LM head.
//!
//! Reproduces the paper's two-stage flow (Fig. 1): [`Gpt2Model::prefill`]
//! runs the prompt through the model to fill the KV cache — outputs of
//! non-final prompt tokens are discarded, so the LM head is only evaluated
//! for the last one — and [`Gpt2Model::decode_step`] generates one token at
//! a time auto-regressively.

use std::sync::Arc;

use looplynx_tensor::norm::layernorm;
use looplynx_tensor::quant::quantize_vec;

use crate::block::{block_forward, block_forward_batch};
use crate::config::ModelConfig;
use crate::generate::Autoregressive;
use crate::kv_cache::KvCache;
use crate::weights::Gpt2Weights;

#[cfg(test)]
use crate::sampler::Sampler;

/// A GPT-2 model instance with its KV cache. The weights are held behind
/// an [`Arc`]: cloning a model, or building a partitioned engine over it,
/// shares the one store instead of copying it.
#[derive(Debug, Clone, PartialEq)]
pub struct Gpt2Model {
    cfg: ModelConfig,
    weights: Arc<Gpt2Weights>,
    cache: KvCache,
    pos: usize,
}

impl Gpt2Model {
    /// Builds a model with synthetic seeded weights.
    pub fn synthetic(cfg: &ModelConfig, seed: u64) -> Self {
        let weights = Gpt2Weights::synthetic(cfg, seed);
        Self::from_weights(cfg.clone(), weights)
    }

    /// Wraps existing weights.
    ///
    /// The KV arenas start lazy (first append allocates, then doubling
    /// growth re-strides — a handful of copies over a model lifetime), so
    /// a model that is only ever a weight source — what a partitioned
    /// engine is built from — reserves no cache bytes.
    pub fn from_weights(cfg: ModelConfig, weights: Gpt2Weights) -> Self {
        let cache = KvCache::new(cfg.layers, cfg.d_head());
        Gpt2Model {
            cfg,
            weights: Arc::new(weights),
            cache,
            pos: 0,
        }
    }

    /// The model configuration.
    pub fn config(&self) -> &ModelConfig {
        &self.cfg
    }

    /// The weights.
    pub fn weights(&self) -> &Gpt2Weights {
        &self.weights
    }

    /// The shared weight store — what the partitioned multi-node engine
    /// holds on to for its host-side tables (embeddings, layer norms).
    pub fn shared_weights(&self) -> &Arc<Gpt2Weights> {
        &self.weights
    }

    /// Tokens currently in the KV cache.
    pub fn seq_len(&self) -> usize {
        self.pos
    }

    /// The KV cache (what tests compare across prefill paths).
    pub fn cache(&self) -> &KvCache {
        &self.cache
    }

    /// Clears the KV cache and resets the position.
    pub fn reset(&mut self) {
        self.cache.clear();
        self.pos = 0;
    }

    /// Runs one token through every block; computes logits only when
    /// `want_logits` (prefill discards non-final outputs, paper Fig. 1).
    fn forward_token(&mut self, token: u32, want_logits: bool) -> Option<Vec<f32>> {
        assert!(
            self.pos < self.cfg.max_seq,
            "sequence exceeded max_seq {}",
            self.cfg.max_seq
        );
        let mut x: Vec<f32> = self.weights.embed(token, self.pos).collect();
        for (l, block) in self.weights.blocks.iter().enumerate() {
            x = block_forward(&x, block, self.cache.layer_mut(l), &self.cfg, self.pos);
        }
        self.pos += 1;
        if !want_logits {
            return None;
        }
        let h = layernorm(&x, &self.weights.ln_f);
        let hq = quantize_vec(&h);
        Some(self.weights.lm_head.forward(&hq))
    }

    /// Prefill: processes the prompt, fills the KV cache, and returns the
    /// logits after the final prompt token.
    ///
    /// # Panics
    ///
    /// Panics if `prompt` is empty or overruns `max_seq`.
    pub fn prefill(&mut self, prompt: &[u32]) -> Vec<f32> {
        assert!(!prompt.is_empty(), "prompt must not be empty");
        let (last, rest) = prompt.split_last().expect("non-empty");
        for &t in rest {
            self.forward_token(t, false);
        }
        self.forward_token(*last, true).expect("logits requested")
    }

    /// Decode step: feeds one token and returns next-token logits.
    pub fn decode_step(&mut self, token: u32) -> Vec<f32> {
        self.forward_token(token, true).expect("logits requested")
    }

    /// Batched prefill: processes the whole prompt with one weight pass per
    /// layer per linear (GEMM instead of per-token GEMV) — the functional
    /// counterpart of the accelerator's batched-prefill extension.
    /// Bit-identical to [`Gpt2Model::prefill`].
    ///
    /// **Suffix-only contract**: processing starts at the current
    /// position, so `prompt` is whatever the KV cache does *not* already
    /// hold. Because int8 GEMM rows accumulate independently and
    /// attention reads the cache as-is, prefilling `[a, b]` then `[c]`
    /// is bit-identical to prefilling `[a, b, c]` in one pass (the
    /// engine-level counterpart is `looplynx-core`'s
    /// `prefill_slot_chunk`, which a prefix cache relies on).
    ///
    /// # Panics
    ///
    /// Panics if `prompt` is empty or overruns `max_seq`.
    pub fn prefill_batched(&mut self, prompt: &[u32]) -> Vec<f32> {
        assert!(!prompt.is_empty(), "prompt must not be empty");
        assert!(
            self.pos + prompt.len() <= self.cfg.max_seq,
            "sequence exceeded max_seq {}",
            self.cfg.max_seq
        );
        let start = self.pos;
        let mut xs: Vec<Vec<f32>> = prompt
            .iter()
            .enumerate()
            .map(|(i, &t)| self.weights.embed(t, start + i).collect())
            .collect();
        for (l, block) in self.weights.blocks.iter().enumerate() {
            xs = block_forward_batch(&xs, block, self.cache.layer_mut(l), &self.cfg, start);
        }
        self.pos += prompt.len();
        let last = xs.last().expect("non-empty batch");
        let h = layernorm(last, &self.weights.ln_f);
        let hq = quantize_vec(&h);
        self.weights.lm_head.forward(&hq)
    }
}

impl Autoregressive for Gpt2Model {
    fn prefill(&mut self, prompt: &[u32]) -> Vec<f32> {
        Gpt2Model::prefill(self, prompt)
    }

    fn decode_step(&mut self, token: u32) -> Vec<f32> {
        Gpt2Model::decode_step(self, token)
    }

    fn seq_len(&self) -> usize {
        self.pos
    }

    fn max_seq(&self) -> usize {
        self.cfg.max_seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> Gpt2Model {
        Gpt2Model::synthetic(&ModelConfig::tiny(), 99)
    }

    #[test]
    fn prefill_returns_vocab_logits() {
        let mut m = model();
        let logits = m.prefill(&[1, 2, 3]);
        assert_eq!(logits.len(), m.config().vocab);
        assert_eq!(m.seq_len(), 3);
    }

    #[test]
    fn prefill_batched_is_suffix_only_and_split_invariant() {
        // The prefix-cache contract on the reference path: prefilling a
        // prompt in two calls (the cached prefix, then the novel suffix)
        // must be bit-equal to one pass — final logits AND every cached
        // byte.
        let prompt: Vec<u32> = (0..11).map(|i| (i * 7 + 3) % 50).collect();

        let mut whole = model();
        let one_pass = whole.prefill_batched(&prompt);

        let mut split = model();
        split.prefill_batched(&prompt[..7]);
        let two_pass = split.prefill_batched(&prompt[7..]);

        assert_eq!(one_pass, two_pass);
        assert_eq!(split.seq_len(), whole.seq_len());
        assert_eq!(
            split.cache(),
            whole.cache(),
            "caches diverged across the split"
        );
    }

    #[test]
    fn generation_is_deterministic_with_greedy() {
        let mut a = model();
        let mut b = model();
        let ta = a.generate(&[5, 6], 6, &mut Sampler::greedy());
        let tb = b.generate(&[5, 6], 6, &mut Sampler::greedy());
        assert_eq!(ta, tb);
        assert_eq!(ta.len(), 6);
    }

    #[test]
    fn decode_extends_cache() {
        let mut m = model();
        m.prefill(&[1]);
        m.decode_step(2);
        m.decode_step(3);
        assert_eq!(m.seq_len(), 3);
        let mut reference = model();
        reference.prefill(&[1, 2, 3]);
        assert_eq!(
            m.cache(),
            reference.cache(),
            "decode appended what prefill would"
        );
    }

    #[test]
    fn reset_clears_state() {
        let mut m = model();
        m.prefill(&[1, 2]);
        m.reset();
        assert_eq!(m.seq_len(), 0);
        assert_eq!(m.cache(), model().cache(), "cache not empty after reset");
        // usable again after reset
        let logits = m.prefill(&[3]);
        assert_eq!(logits.len(), m.config().vocab);
    }

    #[test]
    fn prefill_then_decode_matches_token_by_token() {
        // Running [a, b] as prefill then decoding c must equal running
        // a, b, c one at a time — the KV-cache equivalence that motivates
        // caching at all.
        let mut fast = model();
        fast.prefill(&[1, 2]);
        let fast_logits = fast.decode_step(3);

        let mut slow = model();
        slow.prefill(&[1]);
        slow.decode_step(2);
        let slow_logits = slow.decode_step(3);

        for (a, b) in fast_logits.iter().zip(&slow_logits) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn batched_prefill_is_bit_identical() {
        let prompt = [1u32, 9, 2, 8, 3, 7];
        let mut seq = model();
        let mut bat = model();
        let a = seq.prefill(&prompt);
        let b = bat.prefill_batched(&prompt);
        assert_eq!(a, b, "batched prefill must match sequential exactly");
        assert_eq!(seq.seq_len(), bat.seq_len());
        // subsequent decoding agrees too (caches are identical)
        assert_eq!(seq.decode_step(4), bat.decode_step(4));
    }

    #[test]
    fn generation_stops_at_max_seq() {
        let mut m = model();
        let max = m.config().max_seq;
        let tokens = m.generate(&[1], max + 50, &mut Sampler::greedy());
        assert!(tokens.len() <= max);
        assert!(m.seq_len() <= max);
    }

    #[test]
    #[should_panic(expected = "out of vocab")]
    fn oov_token_panics() {
        let m = model();
        let _ = m.weights().embed(9999, 0);
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn empty_prompt_panics() {
        let mut m = model();
        let _ = m.prefill(&[]);
    }
}
