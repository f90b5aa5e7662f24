//! The materialized attention walk's two arms, bit for bit.
//!
//! The engine and the single-node oracle share `attend_heads_segments_to`,
//! so a bit the AVX-512 arm changed would change both sides of every
//! engine-level exactness test alike. This wall is the one place that
//! compares the arms themselves: scratch from `AttnScratch::new()` takes
//! the AVX-512 arm where the host has it, `AttnScratch::portable()` never
//! does, and every output must agree bitwise over
//! - contexts straddling the 16-key groups and `d_head`-sized runs;
//! - page sizes 2–16 and a contiguous (one-segment) cache;
//! - granted pages past `valid_len`, filled with tokens the walk must not
//!   read;
//! - head ranges behind a nonzero cache offset (a 2-node slice);
//! - peaked rows whose requantized weights are mostly 0, saturated ±127
//!   keys and queries, and a score maximum shared by several keys.

use std::ops::Range;

use looplynx_model::attention::{attend_heads_segments_into, AttnScratch, KvSegment};
use looplynx_model::kv_cache::LayerKvCache;
use looplynx_model::paged::PagedKvArena;
use looplynx_tensor::simd::Avx512;

const HEADS: usize = 4;
const D_HEAD: usize = 64;
const CONTEXTS: &[usize] = if cfg!(miri) {
    &[1, 17, 33]
} else {
    &[1, 15, 16, 17, 63, 64, 65, 255, 256, 511]
};
const PAGE_TOKENS: &[usize] = if cfg!(miri) { &[4, 16] } else { &[2, 4, 8, 16] };

/// Deterministic pseudo-random f32s in [-1, 1).
fn arb_vec(len: usize, seed: u64) -> Vec<f32> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state >> 11) as f32 / (1u64 << 53) as f32).mul_add(2.0, -1.0)
        })
        .collect()
}

/// The value distributions of the wall.
#[derive(Debug, Clone, Copy)]
enum Kind {
    /// Uniform keys, values and query.
    Uniform,
    /// A query 100× larger: a peaked softmax whose int8 weights are
    /// mostly 0, so the mix skips most tokens.
    Peaked,
    /// Every key, value and query element ±1, so every int8 is ±127; every
    /// seventh key is the query itself, so several keys share the maximum.
    Saturated,
}

const KINDS: [Kind; 3] = [Kind::Uniform, Kind::Peaked, Kind::Saturated];

fn signs(len: usize, seed: u64) -> Vec<f32> {
    arb_vec(len, seed)
        .into_iter()
        .map(|x| if x < 0.0 { -1.0 } else { 1.0 })
        .collect()
}

fn query(kind: Kind, seed: u64) -> Vec<f32> {
    let w = HEADS * D_HEAD;
    match kind {
        Kind::Uniform => arb_vec(w, seed),
        Kind::Peaked => arb_vec(w, seed).into_iter().map(|x| x * 100.0).collect(),
        Kind::Saturated => signs(w, seed),
    }
}

/// Token `t`'s keys and values (all heads).
fn kv(kind: Kind, t: usize, seed: u64) -> (Vec<f32>, Vec<f32>) {
    let w = HEADS * D_HEAD;
    let s = seed ^ (t as u64) << 1;
    match kind {
        Kind::Uniform | Kind::Peaked => (arb_vec(w, s), arb_vec(w, s ^ 1)),
        Kind::Saturated if t % 7 == 3 => (query(kind, seed), signs(w, s ^ 1)),
        Kind::Saturated => (signs(w, s), signs(w, s ^ 1)),
    }
}

/// Both arms over the same segments, compared bitwise; the scratches are
/// reused across the whole wall, as the engine reuses them.
#[allow(clippy::too_many_arguments)]
fn assert_arms_agree<'a, I, F>(
    q: &[f32],
    segments_of: F,
    heads: Range<usize>,
    offset: usize,
    valid_len: usize,
    scratch: &mut (AttnScratch, AttnScratch),
    what: &str,
) where
    I: Iterator<Item = KvSegment<'a>>,
    F: Fn(usize) -> I,
{
    let q = &q[(heads.start - offset) * D_HEAD..(heads.end - offset) * D_HEAD];
    let (mut wide, mut portable) = (Vec::new(), Vec::new());
    let (ws, ps) = scratch;
    let s = &segments_of;
    attend_heads_segments_into(
        q,
        s,
        heads.clone(),
        offset,
        D_HEAD,
        valid_len,
        ws,
        &mut wide,
    );
    attend_heads_segments_into(q, s, heads, offset, D_HEAD, valid_len, ps, &mut portable);
    assert_eq!(wide.len(), portable.len(), "{what}");
    for (i, (a, b)) in wide.iter().zip(&portable).enumerate() {
        assert!(
            a.to_bits() == b.to_bits(),
            "{what}: element {i}: {a} vs {b}"
        );
    }
}

fn scratches() -> (AttnScratch, AttnScratch) {
    if Avx512::detect().is_none() {
        println!("skipped: no AVX-512 VNNI (the portable arm is compared with itself)");
    }
    (AttnScratch::new(), AttnScratch::portable())
}

#[test]
fn avx512_arm_is_bit_identical_over_pages() {
    let mut scratch = scratches();
    for (k, &kind) in KINDS.iter().enumerate() {
        for &pt in PAGE_TOKENS {
            for &ctx in CONTEXTS {
                let seed = (ctx * 31 + pt * 7 + k) as u64;
                // Grant pages for a few tokens past valid_len and fill them:
                // the walk must stop at ctx without reading them.
                let granted = ctx + pt + 3;
                let mut arena =
                    PagedKvArena::new(1, D_HEAD, HEADS, 1, granted, pt, granted.div_ceil(pt));
                let slot = arena.acquire().expect("one slot");
                arena.try_reserve(slot, granted).expect("pool sized to fit");
                for t in 0..granted {
                    let (kt, vt) = kv(kind, t, seed);
                    arena.append_at(slot, 0, t, &kt, &vt);
                }
                arena.advance(slot, granted);
                let view = arena.layer_view(slot, 0);
                let q = query(kind, seed);
                for heads in [0..HEADS, 1..3, 2..HEADS] {
                    let what = format!("{kind:?} pages of {pt}, ctx {ctx}, heads {heads:?}");
                    let segs = |h| view.segments(h);
                    assert_arms_agree(&q, segs, heads.clone(), 0, ctx, &mut scratch, &what);
                    // The same heads as a 2-node slice: global heads past a
                    // nonzero cache offset.
                    let global = heads.start + 10..heads.end + 10;
                    let what = format!("{what} at offset 10");
                    assert_arms_agree(&q, segs, global, 10, ctx, &mut scratch, &what);
                }
            }
        }
    }
}

#[test]
fn avx512_arm_is_bit_identical_over_a_contiguous_cache() {
    let mut scratch = scratches();
    for (k, &kind) in KINDS.iter().enumerate() {
        let seed = 0xC0FFEE + k as u64;
        let longest = CONTEXTS[CONTEXTS.len() - 1];
        let mut cache = LayerKvCache::with_capacity(D_HEAD, HEADS, longest + 5);
        for t in 0..longest + 5 {
            let (kt, vt) = kv(kind, t, seed);
            cache.append(&kt, &vt);
        }
        let q = query(kind, seed);
        for &ctx in CONTEXTS {
            let what = format!("{kind:?} contiguous, ctx {ctx}");
            let segs = |h| cache.segments(h);
            assert_arms_agree(&q, segs, 0..HEADS, 0, ctx, &mut scratch, &what);
        }
    }
}
