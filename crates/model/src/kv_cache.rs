//! Quantized key/value cache with head-wise granularity, stored as one
//! contiguous head-major arena per layer.
//!
//! "During the prefill stage, the LLM processes user input prompts to fill
//! the KV cache … during decoding, the accumulated KV cache avoids
//! repeatedly … recalculating previous tokens" (paper Section III). The
//! cache stores int8 keys/values with one scale per *head* per token —
//! matching the paper's "head-wise partitioning approach for the KV cache":
//! because quantization granularity aligns with the partition boundary, a
//! node holding a subset of heads stores bit-identical data to the
//! corresponding slice of a single-node cache.
//!
//! # Arena layout
//!
//! Instead of `keys[token][head]: Vec<Vec<QuantizedVector>>` (two heap
//! allocations per head per token), each layer owns a single `Vec<i8>`
//! arena per side laid out **head-major**:
//!
//! ```text
//! keys[h * capacity * d_head + t * d_head + j]      (int8 payload)
//! key_scales[h * capacity + t]                      (f32, per head/token)
//! ```
//!
//! so head `h`'s keys for tokens `0..len` are one contiguous strip
//! ([`LayerKvCache::key_strip`], scales from [`LayerKvCache::key_scales`],
//! both as one attention segment from [`LayerKvCache::segments`]) —
//! exactly the access pattern of the decode attention loop, which dots a
//! query head over every cached token of that head. Preallocating
//! `capacity` tokens (via [`LayerKvCache::with_capacity`]) makes decode
//! appends pure writes: no reallocation, no per-token heap traffic.

use looplynx_tensor::quant::scale_for;

use crate::attention::KvSegment;

/// Token capacity a growable cache starts with when the first append
/// arrives without an explicit capacity.
const DEFAULT_CAPACITY: usize = 64;

/// KV cache of one transformer layer (or one node's head-slice of it).
#[derive(Debug, Clone)]
pub struct LayerKvCache {
    d_head: usize,
    /// Heads per token; 0 until the first append fixes the geometry.
    heads: usize,
    /// Cached tokens.
    len: usize,
    /// Token capacity of the arenas (the per-head stride).
    capacity: usize,
    /// Head-major int8 key arena (`heads * capacity * d_head` bytes).
    keys: Vec<i8>,
    values: Vec<i8>,
    /// Head-major per-(head, token) key scales (`heads * capacity`).
    key_scales: Vec<f32>,
    value_scales: Vec<f32>,
}

impl LayerKvCache {
    /// Creates an empty cache for vectors divisible into `d_head` chunks.
    /// The arena is allocated lazily at the first append and grows (by
    /// re-striding) if the sequence outruns it; prefer
    /// [`LayerKvCache::with_capacity`] on hot paths.
    ///
    /// # Panics
    ///
    /// Panics if `d_head` is zero.
    pub fn new(d_head: usize) -> Self {
        assert!(d_head > 0, "d_head must be positive");
        LayerKvCache {
            d_head,
            heads: 0,
            len: 0,
            capacity: 0,
            keys: Vec::new(),
            values: Vec::new(),
            key_scales: Vec::new(),
            value_scales: Vec::new(),
        }
    }

    /// Creates a cache with the arena preallocated for `heads` heads and
    /// `capacity` tokens, so appends up to `capacity` never reallocate.
    ///
    /// # Panics
    ///
    /// Panics if `d_head` or `heads` is zero.
    pub fn with_capacity(d_head: usize, heads: usize, capacity: usize) -> Self {
        assert!(d_head > 0, "d_head must be positive");
        assert!(heads > 0, "heads must be positive");
        let mut cache = LayerKvCache::new(d_head);
        cache.heads = heads;
        cache.allocate(capacity.max(1));
        cache
    }

    fn allocate(&mut self, capacity: usize) {
        self.capacity = capacity;
        self.keys = vec![0; self.heads * capacity * self.d_head];
        self.values = vec![0; self.heads * capacity * self.d_head];
        self.key_scales = vec![0.0; self.heads * capacity];
        self.value_scales = vec![0.0; self.heads * capacity];
    }

    /// Re-strides the arenas to a larger token capacity, copying each
    /// head's live strip. Rare (only when a sequence outruns the
    /// preallocation); appends within capacity never move data.
    fn grow(&mut self, capacity: usize) {
        debug_assert!(capacity > self.capacity);
        let old = std::mem::replace(self, LayerKvCache::new(self.d_head));
        self.heads = old.heads;
        self.len = old.len;
        self.allocate(capacity);
        let d = self.d_head;
        for h in 0..self.heads {
            let live = old.len * d;
            let (osrc, odst) = (h * old.capacity * d, h * capacity * d);
            self.keys[odst..odst + live].copy_from_slice(&old.keys[osrc..osrc + live]);
            self.values[odst..odst + live].copy_from_slice(&old.values[osrc..osrc + live]);
            let (ssrc, sdst) = (h * old.capacity, h * capacity);
            self.key_scales[sdst..sdst + old.len]
                .copy_from_slice(&old.key_scales[ssrc..ssrc + old.len]);
            self.value_scales[sdst..sdst + old.len]
                .copy_from_slice(&old.value_scales[ssrc..ssrc + old.len]);
        }
    }

    /// Number of cached tokens.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Heads per cached vector (0 when the geometry is not yet fixed).
    pub fn heads(&self) -> usize {
        if self.len == 0 && self.capacity == 0 {
            0
        } else {
            self.heads
        }
    }

    /// Quantizes and appends one token's key and value vectors, one scale
    /// per `d_head` chunk — identical quantization math to the former
    /// nested-Vec cache (`quantize_vec` per head), but writing int8
    /// straight into the arena.
    ///
    /// # Panics
    ///
    /// Panics if `k`/`v` lengths differ, are not multiples of `d_head`, or
    /// change between calls.
    pub fn append(&mut self, k: &[f32], v: &[f32]) {
        assert_eq!(k.len(), v.len(), "key/value length mismatch");
        assert_eq!(k.len() % self.d_head, 0, "vector not divisible by d_head");
        let heads = k.len() / self.d_head;
        assert!(heads > 0, "vector not divisible by d_head");
        if self.heads == 0 {
            self.heads = heads;
        } else {
            assert_eq!(heads, self.heads, "head count changed between appends");
        }
        if self.capacity == 0 {
            self.allocate(DEFAULT_CAPACITY);
        } else if self.len == self.capacity {
            self.grow((self.capacity * 2).max(DEFAULT_CAPACITY));
        }
        let (d, t, cap) = (self.d_head, self.len, self.capacity);
        for h in 0..heads {
            let src = h * d..(h + 1) * d;
            let dst = (h * cap + t) * d;
            self.key_scales[h * cap + t] =
                quantize_chunk(&k[src.clone()], &mut self.keys[dst..dst + d]);
            self.value_scales[h * cap + t] =
                quantize_chunk(&v[src], &mut self.values[dst..dst + d]);
        }
        self.len += 1;
    }

    /// Head `h`'s keys for all cached tokens as one contiguous strip of
    /// `len() * d_head` int8 values (token `t` at `t * d_head`).
    ///
    /// # Panics
    ///
    /// Panics if `h` is out of range.
    pub fn key_strip(&self, h: usize) -> &[i8] {
        assert!(h < self.heads, "head {h} out of range");
        let base = h * self.capacity * self.d_head;
        &self.keys[base..base + self.len * self.d_head]
    }

    /// Head `h`'s values for all cached tokens as one contiguous strip.
    ///
    /// # Panics
    ///
    /// Panics if `h` is out of range.
    pub fn value_strip(&self, h: usize) -> &[i8] {
        assert!(h < self.heads, "head {h} out of range");
        let base = h * self.capacity * self.d_head;
        &self.values[base..base + self.len * self.d_head]
    }

    /// Per-token key scales of head `h` (one per cached token).
    ///
    /// # Panics
    ///
    /// Panics if `h` is out of range.
    pub fn key_scales(&self, h: usize) -> &[f32] {
        assert!(h < self.heads, "head {h} out of range");
        &self.key_scales[h * self.capacity..h * self.capacity + self.len]
    }

    /// Per-token value scales of head `h` (one per cached token).
    ///
    /// # Panics
    ///
    /// Panics if `h` is out of range.
    pub fn value_scales(&self, h: usize) -> &[f32] {
        assert!(h < self.heads, "head {h} out of range");
        &self.value_scales[h * self.capacity..h * self.capacity + self.len]
    }

    /// Head `h`'s cached tokens as attention segments — the contiguous
    /// twin of [`crate::paged::PagedLayerView::segments`]: one segment
    /// covering all `len()` tokens.
    ///
    /// # Panics
    ///
    /// Panics if `h` is out of range.
    pub fn segments(&self, h: usize) -> impl Iterator<Item = KvSegment<'_>> {
        std::iter::once(KvSegment {
            keys: self.key_strip(h),
            values: self.value_strip(h),
            key_scales: self.key_scales(h),
            value_scales: self.value_scales(h),
        })
    }

    /// Appends one token whose per-head K/V is *already quantized* —
    /// `k`/`v` hold `heads() * d_head` int8 values (head-major for the
    /// token) and `k_scales`/`v_scales` one scale per head. Used by the
    /// paged arena to materialize a contiguous cache without
    /// requantizing (requantizing int8 data would not round-trip).
    ///
    /// # Panics
    ///
    /// Panics if the geometry is not fixed yet (use
    /// [`LayerKvCache::with_capacity`]) or any slice length disagrees
    /// with it.
    pub fn append_quantized(&mut self, k: &[i8], k_scales: &[f32], v: &[i8], v_scales: &[f32]) {
        assert!(self.heads > 0, "geometry not fixed; use with_capacity");
        assert_eq!(k.len(), self.heads * self.d_head, "key length mismatch");
        assert_eq!(v.len(), self.heads * self.d_head, "value length mismatch");
        assert_eq!(k_scales.len(), self.heads, "key scale count mismatch");
        assert_eq!(v_scales.len(), self.heads, "value scale count mismatch");
        if self.capacity == 0 {
            self.allocate(DEFAULT_CAPACITY);
        } else if self.len == self.capacity {
            self.grow((self.capacity * 2).max(DEFAULT_CAPACITY));
        }
        let (d, t, cap) = (self.d_head, self.len, self.capacity);
        for h in 0..self.heads {
            let dst = (h * cap + t) * d;
            self.keys[dst..dst + d].copy_from_slice(&k[h * d..(h + 1) * d]);
            self.values[dst..dst + d].copy_from_slice(&v[h * d..(h + 1) * d]);
            self.key_scales[h * cap + t] = k_scales[h];
            self.value_scales[h * cap + t] = v_scales[h];
        }
        self.len += 1;
    }

    /// Clears all cached tokens (the arena allocation is retained).
    pub fn clear(&mut self) {
        self.len = 0;
    }
}

/// Content equality: two caches are equal when they hold the same logical
/// tokens (geometry, int8 payloads, scales), regardless of how much spare
/// arena capacity each one carries.
impl PartialEq for LayerKvCache {
    fn eq(&self, other: &Self) -> bool {
        if self.d_head != other.d_head || self.len != other.len {
            return false;
        }
        if self.len == 0 {
            // Two empty caches are equal however they were preallocated
            // (the nested-Vec cache had no geometry at all when empty).
            return true;
        }
        if self.heads() != other.heads() {
            return false;
        }
        (0..self.heads()).all(|h| {
            self.key_strip(h) == other.key_strip(h)
                && self.value_strip(h) == other.value_strip(h)
                && self.key_scales(h) == other.key_scales(h)
                && self.value_scales(h) == other.value_scales(h)
        })
    }
}

/// Quantizes one head's chunk into the arena slot, returning the scale —
/// the same math as `quantize_vec` (absmax → symmetric scale →
/// round-to-nearest-even), minus the allocation. Shared with the paged
/// arena so both storage layouts produce bit-identical int8 payloads.
pub(crate) fn quantize_chunk(src: &[f32], dst: &mut [i8]) -> f32 {
    let scale = scale_for(looplynx_tensor::simd::absmax(src));
    looplynx_tensor::simd::quantize_slice(src, scale, dst);
    scale
}

/// KV caches of every layer of a model.
#[derive(Debug, Clone, PartialEq)]
pub struct KvCache {
    layers: Vec<LayerKvCache>,
}

impl KvCache {
    /// Creates caches for `layers` layers with the given head dimension
    /// (arena allocated lazily at the first append).
    pub fn new(layers: usize, d_head: usize) -> Self {
        KvCache {
            layers: (0..layers).map(|_| LayerKvCache::new(d_head)).collect(),
        }
    }

    /// Mutable cache of layer `l`.
    ///
    /// # Panics
    ///
    /// Panics if `l` is out of range.
    pub fn layer_mut(&mut self, l: usize) -> &mut LayerKvCache {
        &mut self.layers[l]
    }

    /// Clears every layer.
    pub fn clear(&mut self) {
        for l in &mut self.layers {
            l.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use looplynx_tensor::quant::quantize_vec;

    /// Token `t` of one head's strip, dequantized with its scale.
    fn token(strip: &[i8], scales: &[f32], d_head: usize, t: usize) -> Vec<f32> {
        strip[t * d_head..(t + 1) * d_head]
            .iter()
            .map(|&q| q as f32 * scales[t])
            .collect()
    }

    /// Int8 bytes held (keys + values), read off the strips.
    fn bytes(c: &LayerKvCache) -> usize {
        (0..c.heads())
            .map(|h| c.key_strip(h).len() + c.value_strip(h).len())
            .sum()
    }

    #[test]
    fn append_and_read_back_per_head() {
        let mut c = LayerKvCache::new(2);
        c.append(&[1.0, -1.0, 10.0, 20.0], &[0.5, 0.25, -4.0, 8.0]);
        assert_eq!(c.len(), 1);
        assert_eq!(c.heads(), 2);
        let k0 = token(c.key_strip(0), c.key_scales(0), 2, 0);
        assert!((k0[0] - 1.0).abs() < 0.02);
        let k1 = token(c.key_strip(1), c.key_scales(1), 2, 0);
        assert!((k1[1] - 20.0).abs() < 0.2);
        let v1 = token(c.value_strip(1), c.value_scales(1), 2, 0);
        assert!((v1[0] + 4.0).abs() < 0.1);
    }

    #[test]
    fn per_head_scales_isolate_outliers() {
        // A huge head 1 must not destroy head 0's precision.
        let mut c = LayerKvCache::new(2);
        c.append(&[0.01, -0.02, 500.0, 250.0], &[0.0; 4]);
        let k0 = token(c.key_strip(0), c.key_scales(0), 2, 0);
        assert!((k0[1] + 0.02).abs() < 0.001, "head 0 crushed: {k0:?}");
    }

    #[test]
    fn head_slice_matches_full_cache() {
        // The property the paper's head-wise partitioning relies on: a
        // cache fed only heads 2..4 equals the corresponding slice of the
        // full cache.
        let d_head = 4;
        let full_k: Vec<f32> = (0..16).map(|i| (i as f32 * 0.3).sin()).collect();
        let full_v: Vec<f32> = (0..16).map(|i| (i as f32 * 0.7).cos()).collect();
        let mut full = LayerKvCache::new(d_head);
        full.append(&full_k, &full_v);
        let mut part = LayerKvCache::new(d_head);
        part.append(&full_k[8..16], &full_v[8..16]);
        for h in 0..2 {
            assert_eq!(part.key_strip(h), full.key_strip(h + 2));
            assert_eq!(part.key_scales(h), full.key_scales(h + 2));
            assert_eq!(part.value_strip(h), full.value_strip(h + 2));
            assert_eq!(part.value_scales(h), full.value_scales(h + 2));
        }
    }

    #[test]
    fn byte_accounting_is_int8() {
        let mut c = LayerKvCache::new(8);
        for _ in 0..5 {
            c.append(&[0.1; 16], &[0.2; 16]);
        }
        // 5 tokens × (16 + 16) bytes
        assert_eq!(bytes(&c), 160);
    }

    #[test]
    #[should_panic(expected = "head count changed")]
    fn dimension_change_panics() {
        let mut c = LayerKvCache::new(4);
        c.append(&[1.0; 4], &[1.0; 4]);
        c.append(&[1.0; 8], &[1.0; 8]);
    }

    #[test]
    #[should_panic(expected = "not divisible by d_head")]
    fn indivisible_vector_panics() {
        let mut c = LayerKvCache::new(4);
        c.append(&[1.0; 6], &[1.0; 6]);
    }

    #[test]
    fn model_cache_tracks_layers() {
        let mut c = KvCache::new(3, 8);
        assert_eq!(c.layers.len(), 3);
        assert!(c.layers.iter().all(LayerKvCache::is_empty));
        for l in 0..3 {
            c.layer_mut(l).append(&[0.0; 8], &[0.0; 8]);
        }
        assert!(c.layers.iter().all(|l| l.len() == 1));
        assert_eq!(c.layers.iter().map(bytes).sum::<usize>(), 3 * 16);
        c.clear();
        assert!(c.layers.iter().all(|l| l.is_empty() && bytes(l) == 0));
    }

    #[test]
    fn strips_are_token_major_within_head() {
        let keys = [[1.0f32, 2.0, 3.0, 4.0], [-1.0, -2.0, -3.0, -4.0]];
        let values = [[5.0f32, 6.0, 7.0, 8.0], [-5.0, -6.0, -7.0, -8.0]];
        let mut c = LayerKvCache::with_capacity(2, 2, 8);
        for (k, v) in keys.iter().zip(&values) {
            c.append(k, v);
        }
        for h in 0..2 {
            let strip = c.key_strip(h);
            assert_eq!(strip.len(), 2 * 2);
            // Token t's head h is `quantize_vec` of that d_head chunk.
            let (k0, k1) = (
                quantize_vec(&keys[0][2 * h..2 * h + 2]),
                quantize_vec(&keys[1][2 * h..2 * h + 2]),
            );
            assert_eq!(&strip[..2], k0.data());
            assert_eq!(&strip[2..], k1.data());
            assert_eq!(c.key_scales(h).len(), 2);
            assert_eq!(c.key_scales(h)[1], k1.scale());
            assert_eq!(
                c.value_scales(h)[0],
                quantize_vec(&values[0][2 * h..2 * h + 2]).scale()
            );
        }
    }

    #[test]
    fn preallocated_appends_never_move_the_arena() {
        let mut c = LayerKvCache::with_capacity(4, 2, 16);
        c.append(&[0.5; 8], &[0.5; 8]);
        let before = c.key_strip(0).as_ptr();
        for _ in 1..16 {
            c.append(&[0.5; 8], &[0.5; 8]);
        }
        assert_eq!(c.len(), 16);
        assert_eq!(before, c.key_strip(0).as_ptr(), "arena reallocated");
    }

    #[test]
    fn growth_preserves_content_and_equality() {
        // A cache that outgrows its arena must hold the same logical
        // content as one preallocated large enough from the start.
        let mk = |t: usize| -> (Vec<f32>, Vec<f32>) {
            (
                (0..8).map(|i| ((i + t) as f32 * 0.31).sin()).collect(),
                (0..8).map(|i| ((i * t + 1) as f32 * 0.17).cos()).collect(),
            )
        };
        let mut small = LayerKvCache::with_capacity(4, 2, 2);
        let mut big = LayerKvCache::with_capacity(4, 2, 128);
        for t in 0..70 {
            let (k, v) = mk(t);
            small.append(&k, &v);
            big.append(&k, &v);
        }
        assert!(small.capacity >= 70);
        assert_eq!(small, big, "content equality across capacities");
        assert_eq!(small.key_strip(1), big.key_strip(1));
    }

    #[test]
    fn equality_ignores_capacity_but_not_content() {
        let mut a = LayerKvCache::new(2);
        let mut b = LayerKvCache::with_capacity(2, 2, 99);
        a.append(&[1.0, 2.0, 3.0, 4.0], &[1.0; 4]);
        b.append(&[1.0, 2.0, 3.0, 4.0], &[1.0; 4]);
        assert_eq!(a, b);
        b.append(&[1.0; 4], &[1.0; 4]);
        assert_ne!(a, b);
    }

    #[test]
    fn clear_retains_arena_allocation() {
        let mut c = LayerKvCache::with_capacity(4, 2, 8);
        c.append(&[1.0; 8], &[2.0; 8]);
        let cap = c.capacity;
        c.clear();
        assert_eq!(c.len(), 0);
        assert_eq!(bytes(&c), 0);
        assert_eq!(c.capacity, cap);
        // reusable after clear
        c.append(&[3.0; 8], &[4.0; 8]);
        assert_eq!(c.len(), 1);
    }
}
