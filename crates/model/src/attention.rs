//! Causal multi-head attention over the quantized KV cache.
//!
//! Mirrors the fused MHA kernel's structure (paper Fig. 6(b)): a first MAC
//! array computes integer attention scores per head from the key cache, a
//! mask unit keeps only forward attention, the two-phase softmax produces
//! weighted scores, and a second MAC array mixes the cached values. Scores
//! and token mixing run on the int8 path with i32 accumulation; softmax
//! runs in f32.
//!
//! `head_range` selects which *global* heads to compute while
//! `cache_head_offset` maps them onto the (possibly head-sliced) cache —
//! a node that owns heads 8‥16 passes the same query slice it produced and
//! offset 0 into its local cache, and obtains bit-identical results to the
//! corresponding slice of a full-width computation (per-head quantization
//! makes the partition boundary exact).
//!
//! The walk reuses one [`AttnScratch`] across heads and calls, and stops
//! at `valid_len` — the mask unit's causal cut. Its scores and value mix
//! take an AVX-512 arm ([`Avx512`], `d_head` = 64: 16 keys a group, the
//! accumulator in registers; the rows of a prefill chunk share one walk in
//! blocks of four) or the portable arm, one key or value row at a time;
//! `tests/attention_exact.rs` pins the two bit-identical.

use std::ops::Range;

use looplynx_tensor::activation::softmax_into;
use looplynx_tensor::quant::{absmax, quantize_into, scale_for};
use looplynx_tensor::simd::{accumulate_scaled_i8, dot_i8_i32 as dot_i8, quantize_slice, Avx512};

use crate::kv_cache::LayerKvCache;

/// Reusable attention working memory: quantized query head, score /
/// weight vectors, quantized weights. One instance serves any number of
/// attention calls; buffers grow to the high-water mark and stay there.
/// It also holds the arm the materialized walk takes, found once.
#[derive(Debug, Clone, Default)]
pub struct AttnScratch {
    q8: Vec<i8>,
    scores: Vec<f32>,
    weights: Vec<f32>,
    w8: Vec<i8>,
    arm: Arm,
}

/// The AVX-512 arm where the host has it (the default), else portable.
#[derive(Debug, Clone, Copy)]
struct Arm(Option<Avx512>);

impl Default for Arm {
    fn default() -> Self {
        Arm(Avx512::detect())
    }
}

impl AttnScratch {
    /// Creates empty scratch (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Scratch that keeps [`attend_heads_segments_to`] on the portable
    /// arm — the oracle the AVX-512 arm is tested against.
    pub fn portable() -> Self {
        AttnScratch {
            arm: Arm(None),
            ..Self::default()
        }
    }
}

/// One contiguous run of cached tokens for a single head: int8 key/value
/// strips (`tokens × d_head` each) plus one scale per token. A contiguous
/// [`LayerKvCache`] is a single segment; a paged arena contributes one
/// segment per page, in token order. Attention iterates segments with the
/// exact same per-token operations either way, so the storage layout never
/// changes the arithmetic.
#[derive(Debug, Clone, Copy)]
pub struct KvSegment<'a> {
    /// Int8 keys, token-major within the segment.
    pub keys: &'a [i8],
    /// Int8 values, token-major within the segment.
    pub values: &'a [i8],
    /// Per-token key scales.
    pub key_scales: &'a [f32],
    /// Per-token value scales.
    pub value_scales: &'a [f32],
}

/// The segment-generic attention core. Computes attention for
/// `head_range` (global head indices) of the query slice `q`
/// (`head_range.len() × d_head` wide; a full-width caller passes the
/// full query and `0..heads`) over `valid_len` cached positions (own
/// position + predecessors), writing the concatenated per-head outputs.
/// `segments_of(local_head)` yields that head's cached tokens as
/// contiguous [`KvSegment`]s in token order, local head 0 being global
/// head `cache_head_offset`.
/// The per-token operations and their order are identical regardless of
/// how tokens are split into segments, so a paged cache (one segment per
/// page) is **bit-identical** to a contiguous one (a single segment).
///
/// # Panics
///
/// Panics if the query length disagrees with the head range, `valid_len`
/// is zero, or the segments of some head cover fewer than `valid_len`
/// tokens.
#[allow(clippy::too_many_arguments)]
pub fn attend_heads_segments_into<'a, I, F>(
    q: &[f32],
    segments_of: F,
    head_range: Range<usize>,
    cache_head_offset: usize,
    d_head: usize,
    valid_len: usize,
    scratch: &mut AttnScratch,
    out: &mut Vec<f32>,
) where
    I: Iterator<Item = KvSegment<'a>>,
    F: Fn(usize) -> I,
{
    out.clear();
    out.resize(head_range.len() * d_head, 0.0);
    attend_heads_segments_to(
        q,
        segments_of,
        head_range,
        cache_head_offset,
        d_head,
        valid_len,
        scratch,
        out,
    );
}

/// [`attend_heads_segments_into`] writing into a caller-provided slice of
/// exactly `head_range.len() × d_head` elements (overwritten) — the
/// batched engine points this at each row's strip of one flat per-node
/// output buffer, so a whole batch's attention produces zero allocations
/// and no per-row `Vec`s to gather.
///
/// # Panics
///
/// Panics if the query or output length disagrees with the head range,
/// `valid_len` is zero, or the segments of some head cover fewer than
/// `valid_len` tokens.
#[allow(clippy::too_many_arguments)]
pub fn attend_heads_segments_to<'a, I, F>(
    q: &[f32],
    segments_of: F,
    head_range: Range<usize>,
    cache_head_offset: usize,
    d_head: usize,
    valid_len: usize,
    scratch: &mut AttnScratch,
    out: &mut [f32],
) where
    I: Iterator<Item = KvSegment<'a>>,
    F: Fn(usize) -> I,
{
    assert_eq!(
        q.len(),
        head_range.len() * d_head,
        "query length mismatch for head range"
    );
    assert_eq!(
        out.len(),
        head_range.len() * d_head,
        "output length mismatch for head range"
    );
    assert!(valid_len > 0, "attention needs at least one cached token");

    let inv_sqrt = 1.0 / (d_head as f32).sqrt();
    let AttnScratch {
        q8,
        scores,
        weights,
        w8: w8_buf,
        arm,
    } = scratch;
    let wide = arm.0.filter(|_| d_head == 64);

    for (local_idx, h) in head_range.clone().enumerate() {
        let cache_h = h - cache_head_offset;
        // --- first MAC array: integer attention scores from the key
        // cache, the query head requantized once into scratch.
        let q_scale = quantize_into(&q[local_idx * d_head..(local_idx + 1) * d_head], q8);
        scores.clear();
        let mut remaining = valid_len;
        if let Some(simd) = wide {
            scores.resize(valid_len, 0.0);
            let keys = segments_of(cache_h).map(|seg| (seg.keys, seg.key_scales));
            remaining -= simd.key_scores_d64(q8, keys, q_scale, inv_sqrt, scores);
        } else {
            for seg in segments_of(cache_h) {
                if remaining == 0 {
                    break;
                }
                scores.extend(
                    seg.keys
                        .chunks_exact(d_head)
                        .zip(seg.key_scales)
                        .take(remaining)
                        .map(|(k, &k_scale)| {
                            let acc = dot_i8(q8, k);
                            acc as f32 * q_scale * k_scale * inv_sqrt
                        }),
                );
                remaining = valid_len - scores.len();
            }
        }
        // Stays a release-build assert: it runs once per head (not per
        // token), and a short segment walk would otherwise feed the
        // softmax a truncated score row — silently wrong tokens.
        assert!(remaining == 0, "valid_len beyond cache");
        // --- softmax unit (two phases internally)
        softmax_into(scores, weights);
        // --- second MAC array: token mixing over the value cache.
        // Attention weights are requantized to int8 so the mixing MACs stay
        // on the integer path; each cached head has its own value scale.
        let w_scale = quantize_into(weights, w8_buf);
        let acc = &mut out[local_idx * d_head..(local_idx + 1) * d_head];
        acc.fill(0.0);
        if let Some(simd) = wide {
            let values = segments_of(cache_h).map(|seg| (seg.values, seg.value_scales));
            simd.mix_values_d64(values, w8_buf, w_scale, acc);
            continue;
        }
        let mut t = 0usize;
        'mix: for seg in segments_of(cache_h) {
            for (local, v) in seg.values.chunks_exact(d_head).enumerate() {
                if t == valid_len {
                    break 'mix;
                }
                let w8 = w8_buf[t];
                t += 1;
                if w8 == 0 {
                    continue;
                }
                let vs = seg.value_scales[local] * w_scale * w8 as f32;
                accumulate_scaled_i8(acc, v, vs);
            }
        }
    }
}

/// Query rows that share one K/V walk in [`attend_rows_segments_to`].
const QUERY_BLOCK: usize = 4;

/// [`attend_heads_segments_to`] for `out.len() / w` consecutive query rows
/// of one sequence (`w = head_range.len() × d_head`): row `r`'s query is
/// `q[r × q_stride..][..w]`, it attends the first `first_valid + r` cached
/// tokens (a prefill chunk's causal rows), and its heads land in
/// `out[r × w..(r + 1) × w]`.
///
/// On the AVX-512 arm (`d_head` = 64) rows share the cache walk in blocks
/// of four: per head, each 16-key group is loaded once and scored against
/// every row of the block that attends it, and each value row is widened
/// once and mixed into every such row. Each row's own operations — its
/// query quantize, every score, its softmax and weight quantize, and its
/// value updates in token order — are those of the one-row walk, so the
/// result is **bit-identical** to calling [`attend_heads_segments_to`]
/// row by row (what the portable arm and a lone row do).
///
/// # Panics
///
/// As [`attend_heads_segments_to`], and if `out` is not whole rows or `q`
/// does not reach the last row's query.
#[allow(clippy::too_many_arguments)]
pub fn attend_rows_segments_to<'a, I, F>(
    q: &[f32],
    q_stride: usize,
    segments_of: F,
    head_range: Range<usize>,
    cache_head_offset: usize,
    d_head: usize,
    first_valid: usize,
    scratch: &mut AttnScratch,
    out: &mut [f32],
) where
    I: Iterator<Item = KvSegment<'a>>,
    F: Fn(usize) -> I,
{
    let w = head_range.len() * d_head;
    assert!(
        w > 0 && out.len().is_multiple_of(w),
        "output must be whole rows"
    );
    let rows = out.len() / w;
    assert!(
        rows == 0 || (rows - 1) * q_stride + w <= q.len(),
        "query rows out of range"
    );
    let wide = scratch.arm.0.filter(|_| d_head == 64 && rows > 1);
    let Some(simd) = wide else {
        for (r, row_out) in out.chunks_exact_mut(w).enumerate() {
            attend_heads_segments_to(
                &q[r * q_stride..r * q_stride + w],
                &segments_of,
                head_range.clone(),
                cache_head_offset,
                d_head,
                first_valid + r,
                scratch,
                row_out,
            );
        }
        return;
    };
    assert!(first_valid > 0, "attention needs at least one cached token");

    let inv_sqrt = 1.0 / (d_head as f32).sqrt();
    let AttnScratch {
        q8,
        scores,
        weights,
        w8: w8_buf,
        ..
    } = scratch;
    for (local_idx, h) in head_range.clone().enumerate() {
        let cache_h = h - cache_head_offset;
        for r0 in (0..rows).step_by(QUERY_BLOCK) {
            let live = (rows - r0).min(QUERY_BLOCK);
            // Pad rows (past `live`) attend nothing.
            let valid: [usize; QUERY_BLOCK] =
                std::array::from_fn(|i| if i < live { first_valid + r0 + i } else { 0 });
            let stride = valid[live - 1];
            // --- queries, each requantized as in the one-row walk.
            q8.clear();
            q8.resize(QUERY_BLOCK * d_head, 0);
            let mut q_scales = [0.0f32; QUERY_BLOCK];
            for (i, (q8_row, scale)) in q8
                .chunks_exact_mut(d_head)
                .zip(&mut q_scales)
                .enumerate()
                .take(live)
            {
                let at = (r0 + i) * q_stride + local_idx * d_head;
                let q_head = &q[at..at + d_head];
                *scale = scale_for(absmax(q_head));
                quantize_slice(q_head, *scale, q8_row);
            }
            let q8_rows: [&[i8]; QUERY_BLOCK] =
                std::array::from_fn(|i| &q8[i * d_head..(i + 1) * d_head]);
            // --- first MAC array, one walk for the block.
            scores.clear();
            scores.resize(QUERY_BLOCK * stride, 0.0);
            let keys = segments_of(cache_h).map(|seg| (seg.keys, seg.key_scales));
            let walked =
                simd.key_scores_d64_rows(q8_rows, q_scales, valid, keys, inv_sqrt, scores, stride);
            // As in the one-row walk, a short segment walk must not feed the
            // softmax truncated score rows.
            assert!(walked == stride, "valid_len beyond cache");
            // --- softmax and weight requantize per row.
            w8_buf.clear();
            w8_buf.resize(QUERY_BLOCK * stride, 0);
            let mut w_scales = [0.0f32; QUERY_BLOCK];
            for i in 0..live {
                softmax_into(&scores[i * stride..i * stride + valid[i]], weights);
                w_scales[i] = scale_for(absmax(weights));
                quantize_slice(
                    weights,
                    w_scales[i],
                    &mut w8_buf[i * stride..i * stride + valid[i]],
                );
            }
            // --- second MAC array, one walk for the block.
            let w8_rows: [&[i8]; QUERY_BLOCK] =
                std::array::from_fn(|i| &w8_buf[i * stride..(i + 1) * stride]);
            let mut acc = [0.0f32; QUERY_BLOCK * 64];
            let values = segments_of(cache_h).map(|seg| (seg.values, seg.value_scales));
            simd.mix_values_d64_rows(values, w8_rows, w_scales, valid, &mut acc);
            for (i, acc_row) in acc.chunks_exact(d_head).take(live).enumerate() {
                let at = (r0 + i) * w + local_idx * d_head;
                out[at..at + d_head].copy_from_slice(acc_row);
            }
        }
    }
}

/// Full-width attention over all heads of a contiguous cache — the
/// single-node reference helper.
///
/// # Panics
///
/// Panics if geometry is inconsistent or `valid_len` exceeds the cache.
pub fn attend_all(
    q: &[f32],
    cache: &LayerKvCache,
    heads: usize,
    d_head: usize,
    valid_len: usize,
) -> Vec<f32> {
    assert!(valid_len <= cache.len(), "valid_len beyond cache");
    let mut out = Vec::new();
    attend_heads_segments_into(
        q,
        |h| cache.segments(h),
        0..heads,
        0,
        d_head,
        valid_len,
        &mut AttnScratch::new(),
        &mut out,
    );
    out
}

/// Logical tile width (in tokens) of the fused online-softmax path. Tiles
/// are cut by **token index**, never by storage segment, so the fused
/// recurrence — and therefore its output, bit for bit — is independent of
/// KV page geometry.
pub const FUSED_TILE: usize = 64;

/// Fused (flash-style) tiled online-softmax attention over KV segments.
///
/// Where the materialized path buffers one score per cached token, runs a
/// two-phase softmax over the full row and requantizes the weights to
/// int8 before value mixing, this path streams the cache once in logical
/// tiles of [`FUSED_TILE`] tokens keeping only a running maximum `m`, a
/// running normalizer `σ` and a `d_head`-wide accumulator that is
/// rescaled by `exp(m_old − m_new)` whenever a tile raises the maximum;
/// the weights stay in f32 and the score row is never materialized
/// (working memory is O(`FUSED_TILE`), not O(tokens)).
///
/// Numerics: the integer score dots are identical to the materialized
/// path, but the online rescaling and the f32 (unquantized) mixing
/// weights make the result *close to*, not bit-identical with,
/// [`attend_heads_segments_to`] — the materialized path remains the
/// oracle the property tests compare against. The fused result itself is
/// fully deterministic and bitwise-invariant across page geometry, node
/// counts, row shards and threading: tiles follow token indices, so the
/// segment layout never changes the arithmetic.
///
/// No engine or model path selects this kernel: it measured no faster
/// than the materialized one at any context a workload reaches
/// (ARCHITECTURE §5), so it stays a kernel-level alternative with its own
/// test wall and benchmark probe rather than a user-set mode.
///
/// # Panics
///
/// Panics if the query or output length disagrees with the head range,
/// `valid_len` is zero, or the segments of some head cover fewer than
/// `valid_len` tokens.
#[allow(clippy::too_many_arguments)]
pub fn attend_heads_fused_segments_to<'a, I, F>(
    q: &[f32],
    segments_of: F,
    head_range: Range<usize>,
    cache_head_offset: usize,
    d_head: usize,
    valid_len: usize,
    scratch: &mut AttnScratch,
    out: &mut [f32],
) where
    I: Iterator<Item = KvSegment<'a>>,
    F: Fn(usize) -> I,
{
    assert_eq!(
        q.len(),
        head_range.len() * d_head,
        "query length mismatch for head range"
    );
    assert_eq!(
        out.len(),
        head_range.len() * d_head,
        "output length mismatch for head range"
    );
    assert!(valid_len > 0, "attention needs at least one cached token");

    let inv_sqrt = 1.0 / (d_head as f32).sqrt();
    let q8 = &mut scratch.q8;
    const EMPTY: &[i8] = &[];

    for (local_idx, h) in head_range.clone().enumerate() {
        let cache_h = h - cache_head_offset;
        let q_scale = quantize_into(&q[local_idx * d_head..(local_idx + 1) * d_head], q8);
        let acc = &mut out[local_idx * d_head..(local_idx + 1) * d_head];
        acc.fill(0.0);

        // Online-softmax state: running max, running normalizer, and the
        // value accumulator in `acc` (rescaled on max updates).
        let mut m = f32::NEG_INFINITY;
        let mut sigma = 0.0f32;

        // One logical tile: scores plus borrowed value rows, filled in
        // token order across segment boundaries.
        let mut tile_scores = [0.0f32; FUSED_TILE];
        let mut tile_vals: [(&[i8], f32); FUSED_TILE] = [(EMPTY, 0.0); FUSED_TILE];
        let mut fill = 0usize;
        let mut seen = 0usize;

        let mut flush = |tile_scores: &[f32], tile_vals: &[(&[i8], f32)], acc: &mut [f32]| {
            let m_tile = tile_scores.iter().fold(f32::NEG_INFINITY, |a, &s| a.max(s));
            let m_new = m.max(m_tile);
            if m_new > m && sigma > 0.0 {
                let rescale = (m - m_new).exp();
                sigma *= rescale;
                for a in acc.iter_mut() {
                    *a *= rescale;
                }
            }
            for (&s, &(v, vscale)) in tile_scores.iter().zip(tile_vals) {
                let e = (s - m_new).exp();
                sigma += e;
                if e != 0.0 {
                    accumulate_scaled_i8(acc, v, e * vscale);
                }
            }
            m = m_new;
        };

        'walk: for seg in segments_of(cache_h) {
            for ((k, v), (&k_scale, &v_scale)) in seg
                .keys
                .chunks_exact(d_head)
                .zip(seg.values.chunks_exact(d_head))
                .zip(seg.key_scales.iter().zip(seg.value_scales))
            {
                if seen == valid_len {
                    break 'walk;
                }
                let s = dot_i8(q8, k) as f32 * q_scale * k_scale * inv_sqrt;
                tile_scores[fill] = s;
                tile_vals[fill] = (v, v_scale);
                fill += 1;
                seen += 1;
                if fill == FUSED_TILE {
                    flush(&tile_scores[..fill], &tile_vals[..fill], acc);
                    fill = 0;
                }
            }
        }
        assert!(seen == valid_len, "valid_len beyond cache");
        if fill > 0 {
            flush(&tile_scores[..fill], &tile_vals[..fill], acc);
        }
        let inv_sigma = 1.0 / sigma;
        for a in acc.iter_mut() {
            *a *= inv_sigma;
        }
    }
}

/// [`attend_heads_fused_segments_to`] writing into a cleared/resized
/// `Vec` — convenience for tests and single-token callers.
#[allow(clippy::too_many_arguments)]
pub fn attend_heads_fused_segments_into<'a, I, F>(
    q: &[f32],
    segments_of: F,
    head_range: Range<usize>,
    cache_head_offset: usize,
    d_head: usize,
    valid_len: usize,
    scratch: &mut AttnScratch,
    out: &mut Vec<f32>,
) where
    I: Iterator<Item = KvSegment<'a>>,
    F: Fn(usize) -> I,
{
    out.clear();
    out.resize(head_range.len() * d_head, 0.0);
    attend_heads_fused_segments_to(
        q,
        segments_of,
        head_range,
        cache_head_offset,
        d_head,
        valid_len,
        scratch,
        out,
    );
}

/// Full-width fused attention over all heads of a contiguous cache — the
/// single-node reference counterpart of [`attend_all`].
///
/// # Panics
///
/// Panics if geometry is inconsistent or `valid_len` exceeds the cache.
pub fn attend_all_fused(
    q: &[f32],
    cache: &LayerKvCache,
    heads: usize,
    d_head: usize,
    valid_len: usize,
) -> Vec<f32> {
    assert!(valid_len <= cache.len(), "valid_len beyond cache");
    let mut out = Vec::new();
    attend_heads_fused_segments_into(
        q,
        |h| cache.segments(h),
        0..heads,
        0,
        d_head,
        valid_len,
        &mut AttnScratch::new(),
        &mut out,
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Attention for `head_range` over a (possibly head-sliced)
    /// contiguous cache with fresh scratch.
    fn attend_slice(
        q: &[f32],
        cache: &LayerKvCache,
        head_range: Range<usize>,
        d_head: usize,
        valid_len: usize,
    ) -> Vec<f32> {
        let mut out = Vec::new();
        attend_heads_segments_into(
            q,
            |h| cache.segments(h),
            head_range.clone(),
            head_range.start,
            d_head,
            valid_len,
            &mut AttnScratch::new(),
            &mut out,
        );
        out
    }

    fn cache_with(d_head: usize, tokens: &[(&[f32], &[f32])]) -> LayerKvCache {
        let mut c = LayerKvCache::new(d_head);
        for (k, v) in tokens {
            c.append(k, v);
        }
        c
    }

    #[test]
    fn single_token_attends_to_itself() {
        let v = [0.5f32, -0.5, 0.25, 1.0];
        let cache = cache_with(4, &[(&[1.0, 0.0, 0.0, 0.0], &v)]);
        let out = attend_all(&[1.0, 0.0, 0.0, 0.0], &cache, 1, 4, 1);
        // with one token, softmax weight is 1.0: output ≈ value vector
        for (o, expect) in out.iter().zip(&v) {
            assert!((o - expect).abs() < 0.05, "{o} vs {expect}");
        }
    }

    #[test]
    fn attention_prefers_matching_key() {
        let cache = cache_with(2, &[(&[4.0, 0.0], &[1.0, 0.0]), (&[0.0, 4.0], &[0.0, 1.0])]);
        let out = attend_all(&[4.0, 0.0], &cache, 1, 2, 2);
        assert!(
            out[0] > 0.8,
            "weight should concentrate on token 0: {out:?}"
        );
        assert!(out[1] < 0.2);
    }

    #[test]
    fn causal_masking_ignores_future_tokens() {
        let cache = cache_with(
            2,
            &[(&[1.0, 0.0], &[1.0, 1.0]), (&[1.0, 0.0], &[-9.0, -9.0])],
        );
        // valid_len = 1: the second (future) token must not contribute
        let out = attend_all(&[1.0, 0.0], &cache, 1, 2, 1);
        assert!(out[0] > 0.8 && out[1] > 0.8, "future token leaked: {out:?}");
    }

    #[test]
    fn head_partition_is_bit_identical_to_full() {
        let heads = 4;
        let d_head = 4;
        let d = heads * d_head;
        let mk = |t: usize| -> (Vec<f32>, Vec<f32>) {
            (
                (0..d).map(|i| ((i + t) as f32 * 0.37).sin()).collect(),
                (0..d)
                    .map(|i| ((i * (t + 1)) as f32 * 0.21).cos())
                    .collect(),
            )
        };
        let mut full = LayerKvCache::new(d_head);
        let mut lo_cache = LayerKvCache::new(d_head);
        let mut hi_cache = LayerKvCache::new(d_head);
        for t in 0..3 {
            let (k, v) = mk(t);
            full.append(&k, &v);
            lo_cache.append(&k[..d / 2], &v[..d / 2]);
            hi_cache.append(&k[d / 2..], &v[d / 2..]);
        }
        let q: Vec<f32> = (0..d).map(|i| (i as f32 * 0.11).sin()).collect();
        let reference = attend_all(&q, &full, heads, d_head, 3);
        // node 0 owns heads 0..2 with a local cache; node 1 owns heads 2..4
        let lo = attend_slice(&q[..d / 2], &lo_cache, 0..2, d_head, 3);
        let hi = attend_slice(&q[d / 2..], &hi_cache, 2..4, d_head, 3);
        let stitched: Vec<f32> = lo.into_iter().chain(hi).collect();
        assert_eq!(reference, stitched, "partitioned attention must be exact");
    }

    #[test]
    fn scratch_reuse_is_bit_identical_across_calls() {
        // One scratch serving many shapes must never leak state between
        // calls: results match fresh-scratch calls exactly.
        let d_head = 4;
        let cache = cache_with(
            d_head,
            &[
                (&[0.3, -0.1, 0.8, 0.5, 1.0, -0.7, 0.2, 0.9], &[0.4; 8]),
                (&[0.1, 0.6, -0.3, 0.2, -0.5, 0.8, 0.1, -0.2], &[-0.6; 8]),
                (&[0.9, 0.2, 0.1, -0.8, 0.3, 0.3, -0.4, 0.7], &[0.2; 8]),
            ],
        );
        let q: Vec<f32> = (0..8).map(|i| (i as f32 * 0.41).cos()).collect();
        let mut scratch = AttnScratch::new();
        let mut out = Vec::new();
        for valid in [3usize, 1, 2, 3] {
            attend_heads_segments_into(
                &q,
                |h| cache.segments(h),
                0..2,
                0,
                d_head,
                valid,
                &mut scratch,
                &mut out,
            );
            let fresh = attend_slice(&q, &cache, 0..2, d_head, valid);
            assert_eq!(out, fresh, "valid_len {valid}");
        }
    }

    #[test]
    #[should_panic(expected = "beyond cache")]
    fn valid_len_checked() {
        let cache = cache_with(2, &[(&[1.0, 0.0], &[1.0, 0.0])]);
        let _ = attend_all(&[1.0, 0.0], &cache, 1, 2, 2);
    }

    #[test]
    #[should_panic(expected = "query length mismatch")]
    fn geometry_checked() {
        let cache = cache_with(2, &[(&[1.0, 0.0], &[1.0, 0.0])]);
        let _ = attend_all(&[1.0, 0.0, 3.0], &cache, 1, 2, 1);
    }

    #[test]
    #[should_panic(expected = "head 1 out of range")]
    fn head_range_checked_against_cache() {
        let cache = cache_with(2, &[(&[1.0, 0.0], &[1.0, 0.0])]);
        // cache has 1 head but we ask for heads 0..2
        let _ = attend_slice(&[1.0, 0.0, 0.5, 0.5], &cache, 0..2, 2, 1);
    }
}
