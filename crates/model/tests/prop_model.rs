//! Property-based tests for the functional GPT-2 substrate.

use proptest::prelude::*;

use looplynx_model::attention::{attend_all, attend_heads_segments_into, AttnScratch};
use looplynx_model::config::ModelConfig;
use looplynx_model::generate::Autoregressive;
use looplynx_model::gpt2::Gpt2Model;
use looplynx_model::kv_cache::LayerKvCache;
use looplynx_model::sampler::Sampler;
use looplynx_model::tokenizer::ByteTokenizer;

fn arb_vec(d: usize, seed: u64) -> Vec<f32> {
    (0..d)
        .map(|i| {
            (((seed as usize).wrapping_mul(31).wrapping_add(i * 17)) % 200) as f32 / 50.0 - 2.0
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Attention weights are causal: tokens appended after `valid_len`
    /// never influence the output, whatever their contents.
    #[test]
    fn attention_is_causal(seed in any::<u64>(), tokens in 2usize..8, poison in any::<u64>()) {
        let d_head = 8;
        let heads = 2;
        let d = d_head * heads;
        let mut clean = LayerKvCache::new(d_head);
        let mut poisoned = LayerKvCache::new(d_head);
        for t in 0..tokens {
            let k = arb_vec(d, seed.wrapping_add(t as u64));
            let v = arb_vec(d, seed.wrapping_add(1000 + t as u64));
            clean.append(&k, &v);
            poisoned.append(&k, &v);
        }
        // append junk future tokens only to the poisoned cache
        poisoned.append(&arb_vec(d, poison), &arb_vec(d, poison.wrapping_add(1)));
        let q = arb_vec(d, seed ^ 0xABCD);
        let a = attend_all(&q, &clean, heads, d_head, tokens);
        let b = attend_all(&q, &poisoned, heads, d_head, tokens);
        prop_assert_eq!(a, b);
    }

    /// Head-partitioned attention over head-sliced caches stitches to the
    /// full-width result bit-for-bit, for any split point.
    #[test]
    fn head_partition_exact(seed in any::<u64>(), tokens in 1usize..6, split in 1usize..4) {
        let d_head = 4;
        let heads = 4;
        let d = d_head * heads;
        let cut = split * d_head;
        let mut full = LayerKvCache::new(d_head);
        let mut lo = LayerKvCache::new(d_head);
        let mut hi = LayerKvCache::new(d_head);
        for t in 0..tokens {
            let k = arb_vec(d, seed.wrapping_add(t as u64 * 3));
            let v = arb_vec(d, seed.wrapping_add(t as u64 * 7 + 1));
            full.append(&k, &v);
            lo.append(&k[..cut], &v[..cut]);
            hi.append(&k[cut..], &v[cut..]);
        }
        let q = arb_vec(d, seed ^ 0x1234);
        let reference = attend_all(&q, &full, heads, d_head, tokens);
        let mut scratch = AttnScratch::new();
        let (mut a, mut b) = (Vec::new(), Vec::new());
        attend_heads_segments_into(
            &q[..cut], |h| lo.segments(h), 0..split, 0, d_head, tokens, &mut scratch, &mut a,
        );
        attend_heads_segments_into(
            &q[cut..], |h| hi.segments(h), split..heads, split, d_head, tokens, &mut scratch, &mut b,
        );
        let stitched: Vec<f32> = a.into_iter().chain(b).collect();
        prop_assert_eq!(reference, stitched);
    }

    /// Greedy generation is a pure function of (seed, prompt).
    #[test]
    fn generation_deterministic(seed in any::<u64>(), prompt in prop::collection::vec(0u32..256, 1..6)) {
        let cfg = ModelConfig::tiny();
        let mut a = Gpt2Model::synthetic(&cfg, seed);
        let mut b = Gpt2Model::synthetic(&cfg, seed);
        let ta = a.generate(&prompt, 4, &mut Sampler::greedy());
        let tb = b.generate(&prompt, 4, &mut Sampler::greedy());
        prop_assert_eq!(ta, tb);
    }

    /// Prefill-then-decode equals token-by-token processing (KV-cache
    /// correctness) for arbitrary prompts.
    #[test]
    fn kv_cache_equivalence(seed in 0u64..100, prompt in prop::collection::vec(0u32..256, 2..6)) {
        let cfg = ModelConfig::tiny();
        let mut fast = Gpt2Model::synthetic(&cfg, seed);
        let mut slow = Gpt2Model::synthetic(&cfg, seed);
        let fast_logits = fast.prefill(&prompt);
        slow.prefill(&prompt[..1]);
        let mut slow_logits = Vec::new();
        for &t in &prompt[1..] {
            slow_logits = slow.decode_step(t);
        }
        for (x, y) in fast_logits.iter().zip(&slow_logits) {
            prop_assert!((x - y).abs() < 1e-4, "{x} vs {y}");
        }
    }

    /// Generated token ids are always within the vocabulary.
    #[test]
    fn tokens_in_vocab(seed in any::<u64>(), k in 1usize..16) {
        let cfg = ModelConfig::tiny();
        let mut m = Gpt2Model::synthetic(&cfg, seed);
        let mut sampler = Sampler::top_k(k, 1.0, seed);
        let out = m.generate(&[1, 2], 6, &mut sampler);
        prop_assert!(out.iter().all(|&t| (t as usize) < cfg.vocab));
    }

    /// The byte tokenizer round-trips arbitrary strings.
    #[test]
    fn tokenizer_roundtrip(s in "\\PC{0,64}") {
        let tok = ByteTokenizer::new();
        prop_assert_eq!(tok.decode(&tok.encode(&s)), s);
    }

    /// KV byte accounting is exact: 2 bytes per element per token.
    #[test]
    fn kv_bytes_exact(d_head in prop::sample::select(vec![2usize, 4, 8]), heads in 1usize..5, tokens in 0usize..10) {
        let d = d_head * heads;
        let mut c = LayerKvCache::new(d_head);
        for t in 0..tokens {
            c.append(&arb_vec(d, t as u64), &arb_vec(d, 100 + t as u64));
        }
        let bytes: usize = (0..c.heads()).map(|h| c.key_strip(h).len() + c.value_strip(h).len()).sum();
        prop_assert_eq!(bytes, 2 * d * tokens);
    }
}
