//! Bit-exactness suite for the KV-cache arena: the contiguous head-major
//! layout must hold exactly what a nested-Vec cache would — every
//! per-(token, head) payload and scale, and the int8 byte count — with
//! the nested reference reimplemented here from its definition
//! (`quantize_vec` per `d_head` chunk).

use proptest::prelude::*;

use looplynx_model::attention::attend_all;
use looplynx_model::kv_cache::LayerKvCache;
use looplynx_tensor::quant::{quantize_vec, QuantizedVector};

/// The pre-arena cache: `keys[token][head]`, one `QuantizedVector` per
/// head per token, exactly as `LayerKvCache` stored it before.
struct NestedVecCache {
    d_head: usize,
    keys: Vec<Vec<QuantizedVector>>,
    values: Vec<Vec<QuantizedVector>>,
}

impl NestedVecCache {
    fn new(d_head: usize) -> Self {
        NestedVecCache {
            d_head,
            keys: Vec::new(),
            values: Vec::new(),
        }
    }

    fn append(&mut self, k: &[f32], v: &[f32]) {
        let quantize_heads = |x: &[f32]| {
            x.chunks_exact(self.d_head)
                .map(quantize_vec)
                .collect::<Vec<_>>()
        };
        self.keys.push(quantize_heads(k));
        self.values.push(quantize_heads(v));
    }

    fn byte_len(&self) -> usize {
        let per_token: usize = self
            .keys
            .first()
            .map_or(0, |heads| heads.iter().map(QuantizedVector::len).sum());
        2 * per_token * self.keys.len()
    }
}

/// Int8 bytes an arena cache holds (keys + values), read off its strips.
fn arena_bytes(c: &LayerKvCache) -> usize {
    (0..c.heads())
        .map(|h| c.key_strip(h).len() + c.value_strip(h).len())
        .sum()
}

fn arb_vec(d: usize, seed: u64) -> Vec<f32> {
    (0..d)
        .map(|i| {
            (((seed as usize).wrapping_mul(29).wrapping_add(i * 23)) % 300) as f32 / 40.0 - 3.75
        })
        .collect()
}

/// Reduced under Miri (interpreted execution is ~100× slower); the CI
/// Miri job still covers the arena's index arithmetic end to end.
const CASES: u32 = if cfg!(miri) { 2 } else { 16 };

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    /// Arena cache ≡ nested-Vec cache: every per-(token, head) payload,
    /// scale and the byte accounting agree for arbitrary geometries and
    /// sequence lengths — including sequences that outgrow a small
    /// preallocated arena mid-stream.
    #[test]
    fn arena_matches_nested_vec_semantics(
        heads in 1usize..5,
        d_head in prop::sample::select(vec![1usize, 3, 8, 16]),
        tokens in 1usize..40,
        capacity in 1usize..8,
        seed in any::<u64>(),
    ) {
        let d = heads * d_head;
        let mut arena = LayerKvCache::with_capacity(d_head, heads, capacity);
        let mut lazy = LayerKvCache::new(d_head);
        let mut reference = NestedVecCache::new(d_head);
        for t in 0..tokens {
            let k = arb_vec(d, seed.wrapping_add(t as u64 * 5));
            let v = arb_vec(d, seed.wrapping_add(t as u64 * 11 + 1));
            arena.append(&k, &v);
            lazy.append(&k, &v);
            reference.append(&k, &v);
        }
        prop_assert_eq!(arena.len(), tokens);
        prop_assert_eq!(arena.heads(), heads);
        prop_assert_eq!(arena_bytes(&arena), reference.byte_len());
        prop_assert_eq!(arena_bytes(&lazy), reference.byte_len());
        for t in 0..tokens {
            let span = t * d_head..(t + 1) * d_head;
            for h in 0..heads {
                let rk = &reference.keys[t][h];
                let rv = &reference.values[t][h];
                prop_assert_eq!(&arena.key_strip(h)[span.clone()], rk.data(), "key {t}/{h}");
                prop_assert_eq!(arena.key_scales(h)[t], rk.scale());
                prop_assert_eq!(&arena.value_strip(h)[span.clone()], rv.data(), "value {t}/{h}");
                prop_assert_eq!(arena.value_scales(h)[t], rv.scale());
                prop_assert_eq!(&lazy.key_strip(h)[span.clone()], rk.data());
                prop_assert_eq!(lazy.value_scales(h)[t], rv.scale());
            }
        }
        // the growable and preallocated arenas are interchangeable
        prop_assert_eq!(arena, lazy);
    }

    /// Attention over a cache that grew through several reallocations is
    /// bit-identical to attention over a fully preallocated cache.
    #[test]
    fn attention_unaffected_by_arena_growth(
        tokens in 2usize..30,
        seed in any::<u64>(),
    ) {
        let (heads, d_head) = (2usize, 8usize);
        let d = heads * d_head;
        let mut grown = LayerKvCache::with_capacity(d_head, heads, 1);
        let mut fixed = LayerKvCache::with_capacity(d_head, heads, 64);
        for t in 0..tokens {
            let k = arb_vec(d, seed.wrapping_add(t as u64 * 3));
            let v = arb_vec(d, seed.wrapping_add(t as u64 * 13 + 7));
            grown.append(&k, &v);
            fixed.append(&k, &v);
        }
        let q = arb_vec(d, seed ^ 0x5A5A);
        let a = attend_all(&q, &grown, heads, d_head, tokens);
        let b = attend_all(&q, &fixed, heads, d_head, tokens);
        prop_assert_eq!(a, b);
    }
}
