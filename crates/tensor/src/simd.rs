//! Runtime-dispatched SIMD inner kernel for the int8 MAC loop.
//!
//! Every hot kernel in this crate (GEMV, GEMM, attention scores) bottoms
//! out in the same operation the accelerator's MAC array performs: an
//! `i8 × i8 → i32` dot product. Integer addition is associative, so a
//! vectorized accumulation is **bit-identical** to the scalar loop — this
//! module only changes how fast the exact same number is produced.
//!
//! On x86-64 the AVX2 path widens 16 int8 lanes to int16
//! (`vpmovsxbw`), multiply-accumulates pairs into int32 (`vpmaddwd` —
//! products of int8 values fit int16 pairs losslessly: |x·y| ≤ 16384,
//! and the pairwise add of two such products fits int32), and folds the
//! vector accumulator horizontally at the end. Feature detection is a
//! cached atomic load, cheap enough to keep even on short head-dim dots.
//! Other architectures (and CPUs without AVX2) use the scalar loop.

/// Integer dot product with i32 accumulation: `Σ a[i]·b[i]`.
///
/// # Panics
///
/// Panics if the slices differ in length (debug builds; release builds
/// truncate to the shorter slice like `zip`, matching the scalar path).
#[inline]
pub fn dot_i8_i32(a: &[i8], b: &[i8]) -> i32 {
    debug_assert_eq!(a.len(), b.len(), "dot operand length mismatch");
    #[cfg(target_arch = "x86_64")]
    {
        if a.len() >= 16 && is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 support was just verified at runtime.
            return unsafe { dot_i8_i32_avx2(a, b) };
        }
    }
    dot_i8_i32_scalar(a, b)
}

/// The scalar reference MAC loop (also the test oracle for the SIMD path).
#[inline]
pub fn dot_i8_i32_scalar(a: &[i8], b: &[i8]) -> i32 {
    a.iter().zip(b).map(|(&x, &y)| x as i32 * y as i32).sum()
}

/// AVX2 dot product: 16 int8 lanes per iteration via sign-extend +
/// `vpmaddwd`, exact i32 accumulation.
///
/// # Safety
///
/// The caller must ensure the CPU supports AVX2 (e.g. via
/// `is_x86_feature_detected!("avx2")`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn dot_i8_i32_avx2(a: &[i8], b: &[i8]) -> i32 {
    use std::arch::x86_64::{
        __m128i, _mm256_add_epi32, _mm256_castsi256_si128, _mm256_cvtepi8_epi16,
        _mm256_extracti128_si256, _mm256_madd_epi16, _mm256_setzero_si256, _mm_add_epi32,
        _mm_cvtsi128_si32, _mm_loadu_si128, _mm_shuffle_epi32,
    };
    let n = a.len().min(b.len());
    let mut acc = _mm256_setzero_si256();
    let mut i = 0;
    while i + 16 <= n {
        // SAFETY: i + 16 <= n keeps both 16-byte loads in bounds.
        let (va, vb) = unsafe {
            (
                _mm256_cvtepi8_epi16(_mm_loadu_si128(a.as_ptr().add(i) as *const __m128i)),
                _mm256_cvtepi8_epi16(_mm_loadu_si128(b.as_ptr().add(i) as *const __m128i)),
            )
        };
        acc = _mm256_add_epi32(acc, _mm256_madd_epi16(va, vb));
        i += 16;
    }
    // Horizontal fold of the 8 i32 lanes.
    let mut s = _mm_add_epi32(
        _mm256_extracti128_si256(acc, 1),
        _mm256_castsi256_si128(acc),
    );
    s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0b01_00_11_10));
    s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0b00_00_00_01));
    let mut total = _mm_cvtsi128_si32(s);
    while i < n {
        total += a[i] as i32 * b[i] as i32;
        i += 1;
    }
    total
}

/// Batch-of-rows integer dot: `out[t] = Σ w[i]·xs[t][i]` for `N`
/// activation rows sharing **one pass over the weight row** — the
/// continuous-batching MAC kernel. Amortizing the weight-side work across
/// the batch lets the AVX2 path use the denser `vpmaddubsw` pipeline
/// (32 MACs per instruction vs 16 for the sign-extend path), which is
/// what makes batched decode faster than `N` separate GEMVs on a
/// compute-bound host.
///
/// Activation values must lie in `[-127, 127]` — every quantizer in this
/// workspace clamps there ([`crate::quant::QMAX`]); the weight row may
/// use the full i8 range. Within that contract the result is
/// **bit-identical** to calling [`dot_i8_i32`] per row: the `vpmaddubsw`
/// trick computes `|w| · sign(x, w)` whose i16 pair sums are at most
/// `2 · 128 · 127 < 2¹⁵` (no saturation), and i32 integer accumulation
/// is exact in any order. (A `-128` *activation* would wrap in
/// `vpsignb`; debug builds assert the range. Callers that cannot rule it
/// out must use [`dot_i8_i32`] — see the fallback scan in
/// `linear::gemm_i32`.)
pub fn dot_i8_i32_batch<const N: usize>(w: &[i8], xs: [&[i8]; N]) -> [i32; N] {
    debug_assert!(
        xs.iter().all(|x| x.iter().all(|&v| v > i8::MIN)),
        "dot_i8_i32_batch activations must be in [-127, 127]"
    );
    debug_assert!(
        xs.iter().all(|x| x.len() == w.len()),
        "dot_i8_i32_batch operand length mismatch"
    );
    #[cfg(target_arch = "x86_64")]
    {
        if w.len() >= 32 && is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 support was just verified at runtime.
            return unsafe { dot_i8_i32_batch_avx2(w, xs) };
        }
    }
    let mut out = [0i32; N];
    for (o, x) in out.iter_mut().zip(xs) {
        *o = dot_i8_i32_scalar(w, x);
    }
    out
}

/// Whether the 512-bit VNNI batched-dot path ([`dot_biased_i8_i32_batch`]
/// with hardware acceleration) is available on this CPU.
#[inline]
pub fn vnni512_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        is_x86_feature_detected!("avx512f")
            && is_x86_feature_detected!("avx512bw")
            && is_x86_feature_detected!("avx512vnni")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Whether the AMX `tdpbssd` tile GEMM is live in this process: the CPU
/// has the unit and the kernel granted the tile-data permission.
#[inline]
pub fn amx_int8_live() -> bool {
    crate::amx::tile_unit() == crate::amx::TileUnit::Live
}

/// Proof that the AVX-512 F/BW/VNNI kernels of the f32 host stages may
/// run; only [`Avx512::detect`] makes one, so a crate without `unsafe` can
/// call them. Off x86-64 and under Miri none is made (Miri checks the
/// portable arms). Each kernel is bit-identical to the scalar code it
/// stands for: integer dots are exact in any order, and every f32
/// operation runs lane-wise in the scalar order (no FMA).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Avx512(Proof);

#[cfg(all(target_arch = "x86_64", not(miri)))]
type Proof = ();
#[cfg(not(all(target_arch = "x86_64", not(miri))))]
type Proof = std::convert::Infallible;

// Without the kernels, the methods only match on the uninhabited proof.
#[cfg_attr(not(all(target_arch = "x86_64", not(miri))), allow(unused_variables))]
impl Avx512 {
    /// The proof, where [`vnni512_available`] holds.
    #[inline]
    pub fn detect() -> Option<Self> {
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        if vnni512_available() {
            return Some(Avx512(()));
        }
        None
    }

    /// Attention scores of one `d_head = 64` head over its cache strips
    /// (token-major keys, one scale a key) in token order: `out[t] = (q8 ·
    /// k_t) as f32 * q_scale * s_t * inv_sqrt`, 16 keys a `vpdpbusd` group
    /// and transpose-add tree. Returns the count written (short only if
    /// the strips run out).
    ///
    /// # Panics
    ///
    /// Panics if `q8` is not 64 wide.
    pub fn key_scores_d64<'a>(
        self,
        q8: &[i8],
        strips: impl IntoIterator<Item = (&'a [i8], &'a [f32])>,
        q_scale: f32,
        inv_sqrt: f32,
        out: &mut [f32],
    ) -> usize {
        assert_eq!(q8.len(), 64, "key_scores_d64 takes a 64-wide query");
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        // SAFETY: `self` proves AVX512F/BW/VNNI and q8 is 64 wide.
        return unsafe { key_scores_d64(q8, strips.into_iter(), q_scale, inv_sqrt, out) };
        #[cfg(not(all(target_arch = "x86_64", not(miri))))]
        match self.0 {};
    }

    /// Attention value mix of one `d_head = 64` head over the first
    /// `w8.len()` tokens of its value strips: per token in order with
    /// `w8[t] != 0`, `acc[j] += v_t[j] as f32 * (s_t * w_scale * w8[t] as
    /// f32)`, `acc` held in four registers across the strips.
    ///
    /// # Panics
    ///
    /// Panics if `acc` is not 64 wide.
    pub fn mix_values_d64<'a>(
        self,
        strips: impl IntoIterator<Item = (&'a [i8], &'a [f32])>,
        w8: &[i8],
        w_scale: f32,
        acc: &mut [f32],
    ) {
        assert_eq!(acc.len(), 64, "mix_values_d64 takes a 64-wide accumulator");
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        // SAFETY: `self` proves AVX512F/BW and acc is 64 wide.
        unsafe {
            mix_values_d64(strips.into_iter(), w8, w_scale, acc);
        }
        #[cfg(not(all(target_arch = "x86_64", not(miri))))]
        let _: () = match self.0 {};
    }

    /// Sums of up to 16 flat row-major rows, row `r` in lane `r`: the
    /// scalar `fold(init, +)` of `x[r][i]` (with `center`, of
    /// `(x[r][i] − c[r])²`) in index order. Other lanes are unspecified.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is not a whole number of at most 16 rows.
    pub fn row_sums16(
        self,
        rows: &[f32],
        width: usize,
        init: f32,
        center: Option<&[f32; 16]>,
    ) -> [f32; 16] {
        assert!(
            width > 0 && rows.len().is_multiple_of(width) && rows.len() <= 16 * width,
            "row_sums16 takes whole rows, at most 16"
        );
        assert!(width <= i32::MAX as usize / 16, "row_sums16 row too wide");
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        // SAFETY: `self` proves AVX512F; the assert bounds every load.
        return unsafe { row_sums16(rows, width, init, center) };
        #[cfg(not(all(target_arch = "x86_64", not(miri))))]
        match self.0 {};
    }
}

/// The first `n ≤ 16` lanes, as a mask.
#[cfg(all(target_arch = "x86_64", not(miri)))]
fn lanes(n: usize) -> u16 {
    ((1u32 << n) - 1) as u16
}

/// The kernel behind [`Avx512::key_scores_d64`].
///
/// # Safety
///
/// The CPU must support AVX512F/BW/VNNI; `q8` must hold 64 values.
#[cfg(all(target_arch = "x86_64", not(miri)))]
#[target_feature(enable = "avx512f,avx512bw,avx512vnni")]
unsafe fn key_scores_d64<'a>(
    q8: &[i8],
    strips: impl Iterator<Item = (&'a [i8], &'a [f32])>,
    q_scale: f32,
    inv_sqrt: f32,
    out: &mut [f32],
) -> usize {
    use std::arch::x86_64::*;
    // SAFETY: q8 holds 64 bytes, one load wide.
    let vq = unsafe { _mm512_loadu_si512(q8.as_ptr() as *const _) };
    // Σ (k + 128)·q = Σ k·q + 128·Σq.
    let bias = _mm512_set1_epi32(128 * row_sum_i8(q8));
    let (qs, is) = (_mm512_set1_ps(q_scale), _mm512_set1_ps(inv_sqrt));
    let mut done = 0;
    for (keys, key_scales) in strips {
        if done == out.len() {
            break;
        }
        let n = key_scales.len().min(keys.len() / 64).min(out.len() - done);
        for c in (0..n).step_by(16) {
            let m = lanes((n - c).min(16));
            // Always 16 keys, so the accumulators stay in registers: keys
            // past the strip load as masked-off zeros and are never stored.
            let dots = std::array::from_fn(|j| {
                let (live, at) = (if c + j < n { u64::MAX } else { 0 }, keys.as_ptr());
                // SAFETY: a live load has c + j < n ≤ keys.len() / 64; a
                // masked-off load touches no memory.
                let k = unsafe { _mm512_maskz_loadu_epi8(live, at.wrapping_add(64 * (c + j))) };
                let k = _mm512_xor_si512(k, _mm512_set1_epi8(i8::MIN));
                _mm512_dpbusd_epi32(_mm512_setzero_si512(), k, vq)
            });
            let dot = _mm512_cvtepi32_ps(_mm512_sub_epi32(hsum16_epi32(dots), bias));
            // SAFETY: the mask keeps to lanes c.. < n of the scales and
            // done + c.. < out.len() of `out`.
            unsafe {
                let ks = _mm512_maskz_loadu_ps(m, key_scales.as_ptr().add(c));
                let s = _mm512_mul_ps(_mm512_mul_ps(_mm512_mul_ps(dot, qs), ks), is);
                _mm512_mask_storeu_ps(out.as_mut_ptr().add(done + c), m, s);
            }
        }
        done += n;
    }
    done
}

/// Lane `j` of the result sums `a[j]`'s lanes: a transpose-add tree, 45
/// ops for 16 sums (integer addition is exact in any order).
#[cfg(all(target_arch = "x86_64", not(miri)))]
#[target_feature(enable = "avx512f")]
#[inline]
fn hsum16_epi32(a: [std::arch::x86_64::__m512i; 16]) -> std::arch::x86_64::__m512i {
    use std::arch::x86_64::*;
    // Per 128-bit chunk, pairs of vectors then pairs of pairs interleave
    // into four partial sums; then the four chunks fold pairwise.
    let s: [_; 8] = std::array::from_fn(|p| {
        let (x, y) = (a[2 * p], a[2 * p + 1]);
        _mm512_add_epi32(_mm512_unpacklo_epi32(x, y), _mm512_unpackhi_epi32(x, y))
    });
    let v: [_; 4] = std::array::from_fn(|p| {
        let (x, y) = (s[2 * p], s[2 * p + 1]);
        _mm512_add_epi32(_mm512_unpacklo_epi64(x, y), _mm512_unpackhi_epi64(x, y))
    });
    let r: [_; 2] = std::array::from_fn(|p| {
        let (x, y) = (v[2 * p], v[2 * p + 1]);
        _mm512_add_epi32(
            _mm512_shuffle_i32x4::<0b01_00_01_00>(x, y),
            _mm512_shuffle_i32x4::<0b11_10_11_10>(x, y),
        )
    });
    _mm512_add_epi32(
        _mm512_shuffle_i32x4::<0b10_00_10_00>(r[0], r[1]),
        _mm512_shuffle_i32x4::<0b11_01_11_01>(r[0], r[1]),
    )
}

/// The kernel behind [`Avx512::mix_values_d64`].
///
/// # Safety
///
/// The CPU must support AVX512F/BW; `acc` must hold 64 values.
#[cfg(all(target_arch = "x86_64", not(miri)))]
#[target_feature(enable = "avx512f,avx512bw")]
unsafe fn mix_values_d64<'a>(
    strips: impl Iterator<Item = (&'a [i8], &'a [f32])>,
    w8: &[i8],
    w_scale: f32,
    acc: &mut [f32],
) {
    use std::arch::x86_64::*;
    let mut a: [_; 4] = std::array::from_fn(|k| {
        // SAFETY: `acc` holds four 16-lane vectors.
        unsafe { _mm512_loadu_ps(acc.as_ptr().add(16 * k)) }
    });
    let mut done = 0;
    for (values, value_scales) in strips {
        if done == w8.len() {
            break;
        }
        let n = value_scales
            .len()
            .min(values.len() / 64)
            .min(w8.len() - done);
        for (t, (&w, &v_scale)) in w8[done..done + n].iter().zip(value_scales).enumerate() {
            if w == 0 {
                continue;
            }
            let vs = _mm512_set1_ps(v_scale * w_scale * w as f32);
            for (k, ak) in a.iter_mut().enumerate() {
                let at = values.as_ptr().wrapping_add(64 * t + 16 * k);
                // SAFETY: t < n ≤ values.len() / 64 bounds the 16-byte load.
                let v8 = unsafe { _mm_loadu_si128(at as _) };
                let v = _mm512_cvtepi32_ps(_mm512_cvtepi8_epi32(v8));
                *ak = _mm512_add_ps(*ak, _mm512_mul_ps(v, vs));
            }
        }
        done += n;
    }
    // SAFETY: as for the loads.
    (0..4).for_each(|k| unsafe { _mm512_storeu_ps(acc.as_mut_ptr().add(16 * k), a[k]) });
}

/// The kernel behind [`Avx512::row_sums16`]: column `i` of all the rows
/// is one masked gather, so lane `r` adds row `r`'s elements in order.
///
/// # Safety
///
/// The CPU must support AVX512F; `rows` must be at most 16 whole rows.
#[cfg(all(target_arch = "x86_64", not(miri)))]
#[target_feature(enable = "avx512f")]
unsafe fn row_sums16(
    rows: &[f32],
    width: usize,
    init: f32,
    center: Option<&[f32; 16]>,
) -> [f32; 16] {
    use std::arch::x86_64::*;
    let m = lanes(rows.len() / width);
    let at = _mm512_mullo_epi32(
        _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15),
        _mm512_set1_epi32(width as i32),
    );
    // SAFETY: `center` is 16 floats, one load wide.
    let c = center.map(|c| unsafe { _mm512_loadu_ps(c.as_ptr()) });
    let (mut acc, zero) = (_mm512_set1_ps(init), _mm512_setzero_ps());
    for i in 0..width {
        // SAFETY: lane r < rows.len() / width reads row r's column i < width;
        // masked-off lanes touch no memory.
        let x = unsafe { _mm512_mask_i32gather_ps::<4>(zero, m, at, rows.as_ptr().add(i)) };
        let d = c.map_or(x, |c| _mm512_sub_ps(x, c));
        acc = _mm512_add_ps(acc, c.map_or(x, |_| _mm512_mul_ps(d, d)));
    }
    let mut out = [0f32; 16];
    // SAFETY: `out` is 16 floats, one store wide.
    unsafe { _mm512_storeu_ps(out.as_mut_ptr(), acc) };
    out
}

/// Rebias int8 activations to unsigned (`x ⊕ 0x80`, i.e. `x + 128`) —
/// the input form of [`dot_biased_i8_i32_batch`]. `-128` maps to `0`, so
/// the whole i8 range round-trips exactly.
#[inline]
pub fn bias_to_unsigned(src: &[i8], dst: &mut Vec<u8>) {
    dst.clear();
    dst.extend(src.iter().map(|&v| (v as u8) ^ 0x80));
}

/// Sum of an int8 row in i32 — the weight-side correction term of the
/// biased dot (`Σ x·w = Σ (x+128)·w − 128·Σw`). Cached per weight row by
/// `quant::QuantizedMatrix`.
#[inline]
pub fn row_sum_i8(row: &[i8]) -> i32 {
    row.iter().map(|&v| v as i32).sum()
}

/// Batch-of-rows *biased* integer dot: `out[t] = Σ w[i]·(xs[t][i] − 128)`
/// where `xs` carries activations rebias-ed by [`bias_to_unsigned`] and
/// `w_row_sum` is `Σ w[i]` ([`row_sum_i8`]).
///
/// This is the widest vector MAC kernel: on AVX512-VNNI hardware, `vpdpbusd`
/// fuses the u8×i8 multiply and the i32 accumulate — 64 MACs per
/// instruction at 512 bits, with the weight chunk loaded once per batch.
/// Unlike the `vpsignb` trick of [`dot_i8_i32_batch`], the bias identity
/// is exact over the **entire** i8 range (including `-128`, which maps
/// to unsigned `0`): `vpdpbusd` widens each lane's four u8×i8 products
/// to i32 before summing, so no intermediate saturates, and the final
/// `− 128·Σw` correction is exact i32 arithmetic. Bit-identical to
/// [`dot_i8_i32`] against the un-biased activations, always.
pub fn dot_biased_i8_i32_batch<const N: usize>(
    w: &[i8],
    w_row_sum: i32,
    xs: [&[u8]; N],
) -> [i32; N] {
    debug_assert!(
        xs.iter().all(|x| x.len() == w.len()),
        "dot_biased_i8_i32_batch operand length mismatch"
    );
    #[cfg(target_arch = "x86_64")]
    {
        if w.len() >= 64 && vnni512_available() {
            // SAFETY: AVX512F/BW/VNNI support was just verified.
            return unsafe { dot_biased_i8_i32_batch_vnni512(w, w_row_sum, xs) };
        }
    }
    let mut out = [0i32; N];
    for (o, x) in out.iter_mut().zip(xs) {
        *o = w
            .iter()
            .zip(x.iter())
            .map(|(&wv, &xv)| wv as i32 * (xv as i32 - 128))
            .sum();
    }
    // The scalar loop subtracts the bias per element; fold the identity
    // the same way the SIMD path does so both derive from w_row_sum.
    let _ = w_row_sum;
    out
}

/// Register-blocked biased dot over a 4×4 weight-row × activation-row
/// tile: `out[r][t] = Σ_i ws[r][i]·(xs[t][i] − 128)`, inputs in the same
/// rebias form as [`dot_biased_i8_i32_batch`].
///
/// This is the throughput kernel of the tiled GEMM. The per-row batch
/// kernel pays one weight load plus `N` activation loads for `N`
/// `vpdpbusd`s per 64-byte chunk — more loads than MACs, so the two load
/// ports gate it. The tile keeps 16 accumulators live and loads each
/// weight chunk and each activation chunk exactly once for 16
/// `vpdpbusd`s (8 loads per 16 MAC ops), which flips the bottleneck to
/// the MAC pipes. Integer accumulation is exact in any order, so the
/// tile result is bit-identical to 16 independent scalar dots.
pub fn dot_biased_i8_i32_tile4x4(
    ws: [&[i8]; 4],
    w_row_sums: [i32; 4],
    xs: [&[u8]; 4],
) -> [[i32; 4]; 4] {
    debug_assert!(
        ws.iter().all(|w| w.len() == ws[0].len()) && xs.iter().all(|x| x.len() == ws[0].len()),
        "dot_biased_i8_i32_tile4x4 operand length mismatch"
    );
    #[cfg(target_arch = "x86_64")]
    {
        if ws[0].len() >= 64 && vnni512_available() {
            // SAFETY: AVX512F/BW/VNNI support was just verified.
            return unsafe { dot_biased_tile4x4_vnni512(ws, w_row_sums, xs) };
        }
    }
    let mut out = [[0i32; 4]; 4];
    for (orow, w) in out.iter_mut().zip(ws) {
        for (o, x) in orow.iter_mut().zip(xs) {
            *o = w
                .iter()
                .zip(x.iter())
                .map(|(&wv, &xv)| wv as i32 * (xv as i32 - 128))
                .sum();
        }
    }
    // The scalar loop subtracts the bias per element; the SIMD path
    // folds the same identity through w_row_sums.
    let _ = w_row_sums;
    out
}

/// The 512-bit VNNI kernel behind [`dot_biased_i8_i32_tile4x4`].
///
/// # Safety
///
/// The caller must ensure the CPU supports AVX512F, AVX512BW and
/// AVX512VNNI.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw,avx512vnni")]
unsafe fn dot_biased_tile4x4_vnni512(
    ws: [&[i8]; 4],
    w_row_sums: [i32; 4],
    xs: [&[u8]; 4],
) -> [[i32; 4]; 4] {
    use std::arch::x86_64::{
        __m512i, _mm512_add_epi32, _mm512_dpbusd_epi32, _mm512_extracti32x4_epi32,
        _mm512_loadu_si512, _mm512_setzero_si512, _mm512_unpackhi_epi32, _mm512_unpackhi_epi64,
        _mm512_unpacklo_epi32, _mm512_unpacklo_epi64, _mm_add_epi32, _mm_prefetch,
        _mm_storeu_si128, _MM_HINT_T1,
    };
    let n = ws[0].len();
    // 16 accumulators + 4 weight chunks + 1 activation chunk = 21 live
    // zmm registers — comfortably inside the 32-register file once the
    // 4×4 loops below unroll.
    let mut acc = [[_mm512_setzero_si512(); 4]; 4];
    let mut i = 0;
    while i + 64 <= n {
        let vw: [__m512i; 4] = std::array::from_fn(|r| {
            // SAFETY: i + 64 <= n keeps every 64-byte load in bounds (the
            // debug assertion above pins all eight lengths to ws[0]'s).
            unsafe { _mm512_loadu_si512(ws[r].as_ptr().add(i) as *const _) }
        });
        for w in &ws {
            // Weight rows stream from DRAM once per GEMM while the
            // demand rate here far exceeds memory bandwidth. The GEMM
            // block loop re-sweeps each 32-row block once per token
            // group, so prefetching exactly one block ahead (32 rows ×
            // the shared row length `n`, contiguous in the row-major
            // weight matrix) pulls the next block into L2 while the
            // current block's later sweeps run compute-bound out of
            // cache. `wrapping_add` may point past the matrix — prefetch
            // never dereferences, so any address is architecturally safe.
            _mm_prefetch::<_MM_HINT_T1>(w.as_ptr().wrapping_add(i + 64 * n));
        }
        for (t, x) in xs.iter().enumerate() {
            // SAFETY: same bounds as `vw` — x.len() == ws[0].len().
            let vx = unsafe { _mm512_loadu_si512(x.as_ptr().add(i) as *const _) };
            for (accr, &vwr) in acc.iter_mut().zip(&vw) {
                accr[t] = _mm512_dpbusd_epi32(accr[t], vx, vwr);
            }
        }
        i += 64;
    }
    // Horizontal reduction, four accumulators at a time: interleave-add
    // pairs until each 128-bit lane holds one partial per accumulator,
    // fold the four lanes, and store the four sums with one 128-bit
    // store. Integer addition is associative, so the lane permutation
    // changes nothing about the result — only the shuffle count (~15 ops
    // for four sums vs ~32 for four scalar reduces).
    let hsum4 = |a0: __m512i, a1: __m512i, a2: __m512i, a3: __m512i| -> [i32; 4] {
        let s01 = _mm512_add_epi32(_mm512_unpacklo_epi32(a0, a1), _mm512_unpackhi_epi32(a0, a1));
        let s23 = _mm512_add_epi32(_mm512_unpacklo_epi32(a2, a3), _mm512_unpackhi_epi32(a2, a3));
        let v = _mm512_add_epi32(
            _mm512_unpacklo_epi64(s01, s23),
            _mm512_unpackhi_epi64(s01, s23),
        );
        let q = _mm_add_epi32(
            _mm_add_epi32(
                _mm512_extracti32x4_epi32(v, 0),
                _mm512_extracti32x4_epi32(v, 1),
            ),
            _mm_add_epi32(
                _mm512_extracti32x4_epi32(v, 2),
                _mm512_extracti32x4_epi32(v, 3),
            ),
        );
        let mut lanes = [0i32; 4];
        // SAFETY: `lanes` is a 16-byte local, exactly one store wide.
        unsafe { _mm_storeu_si128(lanes.as_mut_ptr() as *mut _, q) };
        lanes
    };
    let mut out = [[0i32; 4]; 4];
    for (r, (orow, accr)) in out.iter_mut().zip(acc).enumerate() {
        let sums = hsum4(accr[0], accr[1], accr[2], accr[3]);
        for (t, (o, s4)) in orow.iter_mut().zip(sums).enumerate() {
            let mut s = s4;
            for j in i..n {
                s += ws[r][j] as i32 * xs[t][j] as i32;
            }
            *o = s - 128 * w_row_sums[r];
        }
    }
    out
}

/// The 512-bit VNNI kernel behind [`dot_biased_i8_i32_batch`].
///
/// # Safety
///
/// The caller must ensure the CPU supports AVX512F, AVX512BW and
/// AVX512VNNI.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw,avx512vnni")]
unsafe fn dot_biased_i8_i32_batch_vnni512<const N: usize>(
    w: &[i8],
    w_row_sum: i32,
    xs: [&[u8]; N],
) -> [i32; N] {
    use std::arch::x86_64::{
        _mm512_dpbusd_epi32, _mm512_loadu_si512, _mm512_reduce_add_epi32, _mm512_setzero_si512,
    };
    let n = w.len();
    let mut acc = [_mm512_setzero_si512(); N];
    let mut i = 0;
    while i + 64 <= n {
        // SAFETY: i + 64 <= n keeps every 64-byte load in bounds (the
        // debug assertion above pins xs lengths to w's).
        let vw = unsafe { _mm512_loadu_si512(w.as_ptr().add(i) as *const _) };
        for (t, x) in xs.iter().enumerate() {
            // SAFETY: same bounds as `vw` — x.len() == w.len().
            let vx = unsafe { _mm512_loadu_si512(x.as_ptr().add(i) as *const _) };
            acc[t] = _mm512_dpbusd_epi32(acc[t], vx, vw);
        }
        i += 64;
    }
    let mut out = [0i32; N];
    for (o, (a, x)) in out.iter_mut().zip(acc.into_iter().zip(xs)) {
        let mut s = _mm512_reduce_add_epi32(a);
        for j in i..n {
            s += w[j] as i32 * x[j] as i32;
        }
        *o = s - 128 * w_row_sum;
    }
    out
}

/// AVX2 batched dot: per 32-byte weight chunk, `vpabsb` widens the weight
/// side once and every activation row pays one
/// `vpsignb + vpmaddubsw + vpmaddwd(1̄) + vpaddd` — 32 exact MACs per row
/// per chunk with the weight-side work shared by the whole batch.
///
/// # Safety
///
/// The caller must ensure the CPU supports AVX2 (e.g. via
/// `is_x86_feature_detected!("avx2")`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn dot_i8_i32_batch_avx2<const N: usize>(w: &[i8], xs: [&[i8]; N]) -> [i32; N] {
    use std::arch::x86_64::{
        __m256i, _mm256_abs_epi8, _mm256_add_epi32, _mm256_castsi256_si128,
        _mm256_extracti128_si256, _mm256_loadu_si256, _mm256_madd_epi16, _mm256_maddubs_epi16,
        _mm256_set1_epi16, _mm256_setzero_si256, _mm256_sign_epi8, _mm_add_epi32,
        _mm_cvtsi128_si32, _mm_shuffle_epi32,
    };
    let n = w.len();
    let ones = _mm256_set1_epi16(1);
    let mut acc = [_mm256_setzero_si256(); N];
    let mut i = 0;
    while i + 32 <= n {
        // SAFETY: i + 32 <= n keeps every 32-byte load in bounds (the
        // debug assertion above pins xs lengths to w's).
        let vw = unsafe { _mm256_loadu_si256(w.as_ptr().add(i) as *const __m256i) };
        let vwabs = _mm256_abs_epi8(vw);
        for (t, x) in xs.iter().enumerate() {
            // SAFETY: same bounds as `vw` — x.len() == w.len().
            let vx = unsafe { _mm256_loadu_si256(x.as_ptr().add(i) as *const __m256i) };
            // |w| · sign(x, w) == w · x element-wise for |x| ≤ 127.
            let signed = _mm256_sign_epi8(vx, vw);
            let pairs = _mm256_maddubs_epi16(vwabs, signed);
            acc[t] = _mm256_add_epi32(acc[t], _mm256_madd_epi16(pairs, ones));
        }
        i += 32;
    }
    let mut out = [0i32; N];
    for (o, a) in out.iter_mut().zip(acc) {
        let mut s = _mm_add_epi32(_mm256_extracti128_si256(a, 1), _mm256_castsi256_si128(a));
        s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0b01_00_11_10));
        s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0b00_00_00_01));
        *o = _mm_cvtsi128_si32(s);
    }
    for (o, x) in out.iter_mut().zip(xs) {
        for j in i..n {
            *o += w[j] as i32 * x[j] as i32;
        }
    }
    out
}

/// Largest absolute value of the slice (0.0 when empty).
///
/// `max` over finite f32 values is associative and commutative, so the
/// vectorized lane-fold returns the bit-identical result of the scalar
/// left fold.
#[inline]
pub fn absmax(xs: &[f32]) -> f32 {
    #[cfg(target_arch = "x86_64")]
    {
        if xs.len() >= 8 && is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 support was just verified at runtime.
            return unsafe { max_avx2::<true>(xs, 0.0) };
        }
    }
    absmax_scalar(xs)
}

/// Scalar reference absmax (also the test oracle for the SIMD path).
#[inline]
pub fn absmax_scalar(xs: &[f32]) -> f32 {
    xs.iter().fold(0.0f32, |m, &x| m.max(x.abs()))
}

/// Largest value of the slice (`-∞` when empty): the scalar
/// `fold(-∞, f32::max)`, vectorized like [`absmax`]. Which zero a `±0`
/// maximum comes back as may differ from the fold's; softmax subtracts
/// it, where both give the same difference.
#[inline]
pub fn max_f32(xs: &[f32]) -> f32 {
    #[cfg(target_arch = "x86_64")]
    {
        if xs.len() >= 8 && is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 support was just verified at runtime.
            return unsafe { max_avx2::<false>(xs, f32::NEG_INFINITY) };
        }
    }
    xs.iter().copied().fold(f32::NEG_INFINITY, f32::max)
}

/// AVX2 `fold(init, f32::max)` over `xs` (over `|xs|` when `ABS`), exact
/// parity with the scalar fold (including NaN handling — see the
/// operand-order comment below).
///
/// # Safety
///
/// The caller must ensure the CPU supports AVX2 (e.g. via
/// `is_x86_feature_detected!("avx2")`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn max_avx2<const ABS: bool>(xs: &[f32], init: f32) -> f32 {
    use std::arch::x86_64::{
        _mm256_andnot_ps, _mm256_castps256_ps128, _mm256_extractf128_ps, _mm256_loadu_ps,
        _mm256_max_ps, _mm256_set1_ps, _mm_cvtss_f32, _mm_max_ps, _mm_movehl_ps, _mm_shuffle_ps,
    };
    let sign_mask = _mm256_set1_ps(if ABS { -0.0 } else { 0.0 });
    let mut acc = _mm256_set1_ps(init);
    let mut i = 0;
    while i + 8 <= xs.len() {
        // SAFETY: i + 8 <= len keeps the 32-byte load in bounds.
        let v = unsafe { _mm256_loadu_ps(xs.as_ptr().add(i)) };
        // Operand order matters for NaN parity with the scalar fold:
        // maxps returns its *second* operand when either is NaN, so the
        // data must be first and the accumulator second — a NaN element
        // is then ignored (like `f32::max`) instead of poisoning the
        // lane for the rest of the fold.
        acc = _mm256_max_ps(_mm256_andnot_ps(sign_mask, v), acc);
        i += 8;
    }
    let mut m = _mm_max_ps(_mm256_extractf128_ps(acc, 1), _mm256_castps256_ps128(acc));
    m = _mm_max_ps(m, _mm_movehl_ps(m, m));
    m = _mm_max_ps(m, _mm_shuffle_ps(m, m, 0b01));
    let mut best = _mm_cvtss_f32(m);
    while i < xs.len() {
        best = best.max(if ABS { xs[i].abs() } else { xs[i] });
        i += 1;
    }
    best
}

/// Quantizes `src` under `scale` into `dst` with round-to-nearest-even
/// and saturation to ±127 — element-for-element the math of
/// `quant::quantize_value` (`(x / scale).round_ties_even().clamp(…)`),
/// vectorized. Division, rounding and clamping are lane-wise, so each
/// output byte is bit-identical to the scalar loop.
///
/// # Panics
///
/// Panics if `src` and `dst` lengths differ.
#[inline]
pub fn quantize_slice(src: &[f32], scale: f32, dst: &mut [i8]) {
    assert_eq!(src.len(), dst.len(), "quantize operand length mismatch");
    #[cfg(target_arch = "x86_64")]
    {
        if src.len() >= 8 && is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 support was just verified at runtime.
            unsafe { quantize_slice_avx2(src, scale, dst) };
            return;
        }
    }
    quantize_slice_scalar(src, scale, dst);
}

/// Scalar reference quantization loop (also the SIMD test oracle).
#[inline]
pub fn quantize_slice_scalar(src: &[f32], scale: f32, dst: &mut [i8]) {
    for (d, &x) in dst.iter_mut().zip(src) {
        let q = (x / scale).round_ties_even();
        *d = q.clamp(-127.0, 127.0) as i8;
    }
}

/// AVX2 quantization: lane-wise divide, ties-even round, clamp and
/// narrow — bit-identical to [`quantize_slice_scalar`].
///
/// # Safety
///
/// The caller must ensure the CPU supports AVX2 (e.g. via
/// `is_x86_feature_detected!("avx2")`); `src` and `dst` must be the same
/// length (checked by the [`quantize_slice`] dispatcher).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn quantize_slice_avx2(src: &[f32], scale: f32, dst: &mut [i8]) {
    use std::arch::x86_64::{
        _mm256_castsi256_si128, _mm256_cvtps_epi32, _mm256_div_ps, _mm256_extracti128_si256,
        _mm256_loadu_ps, _mm256_max_ps, _mm256_min_ps, _mm256_round_ps, _mm256_set1_epi32,
        _mm256_set1_ps, _mm256_shuffle_epi8, _mm_storel_epi64, _mm_unpacklo_epi32,
        _MM_FROUND_NO_EXC, _MM_FROUND_TO_NEAREST_INT,
    };
    let vscale = _mm256_set1_ps(scale);
    let lo = _mm256_set1_ps(-127.0);
    let hi = _mm256_set1_ps(127.0);
    let n = src.len();
    let mut i = 0;
    while i + 8 <= n {
        // SAFETY: i + 8 <= n keeps the load in bounds.
        let v = unsafe { _mm256_loadu_ps(src.as_ptr().add(i)) };
        let q = _mm256_round_ps::<{ _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC }>(
            _mm256_div_ps(v, vscale),
        );
        let c = _mm256_max_ps(lo, _mm256_min_ps(hi, q));
        // The value is already integral and within i8 range, so the i32
        // conversion is exact; keep each lane's low byte (what `as i8`
        // keeps — a NaN lane's i32::MIN gives 0, as the scalar cast does).
        let b = _mm256_shuffle_epi8(_mm256_cvtps_epi32(c), _mm256_set1_epi32(0x0c08_0400));
        let b = _mm_unpacklo_epi32(_mm256_castsi256_si128(b), _mm256_extracti128_si256::<1>(b));
        // SAFETY: i + 8 <= n keeps the 8-byte store in bounds.
        unsafe { _mm_storel_epi64(dst.as_mut_ptr().add(i) as *mut _, b) };
        i += 8;
    }
    quantize_slice_scalar(&src[i..], scale, &mut dst[i..]);
}

/// Applies GELU elementwise in place — the vectorized twin of
/// [`crate::activation::gelu`]. The workspace compiles for baseline
/// x86-64 (SSE2), where the branchless polynomial cannot auto-vectorize
/// (`roundps` is SSE4.1+), so the AVX2 path spells out the identical
/// operation sequence with intrinsics: every lane performs the exact f32
/// multiplies, adds, min, division, ties-even round and sign transfer of
/// the scalar formula, so results are **bit-identical** to the scalar
/// loop.
#[inline]
pub fn gelu_slice(xs: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    {
        if xs.len() >= 8 && is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 support was just verified at runtime.
            unsafe { gelu_slice_avx2(xs) };
            return;
        }
    }
    for x in xs.iter_mut() {
        *x = crate::activation::gelu(*x);
    }
}

/// AVX2 GELU: the scalar polynomial spelled out lane-wise — see
/// [`gelu_slice`] for the bit-exactness argument.
///
/// # Safety
///
/// The caller must ensure the CPU supports AVX2 (e.g. via
/// `is_x86_feature_detected!("avx2")`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn gelu_slice_avx2(xs: &mut [f32]) {
    use std::arch::x86_64::{
        _mm256_add_epi32, _mm256_add_ps, _mm256_and_ps, _mm256_andnot_ps, _mm256_castsi256_ps,
        _mm256_cvtps_epi32, _mm256_div_ps, _mm256_loadu_ps, _mm256_min_ps, _mm256_mul_ps,
        _mm256_or_ps, _mm256_round_ps, _mm256_set1_epi32, _mm256_set1_ps, _mm256_slli_epi32,
        _mm256_storeu_ps, _mm256_sub_ps, _MM_FROUND_NO_EXC, _MM_FROUND_TO_NEAREST_INT,
    };
    const SQRT_2_OVER_PI: f32 = 0.797_884_6;
    let half = _mm256_set1_ps(0.5);
    let one = _mm256_set1_ps(1.0);
    let c = _mm256_set1_ps(0.044_715);
    let k = _mm256_set1_ps(SQRT_2_OVER_PI);
    let nine = _mm256_set1_ps(9.0);
    let neg2 = _mm256_set1_ps(-2.0);
    let log2e = _mm256_set1_ps(std::f32::consts::LOG2_E);
    let ln2 = _mm256_set1_ps(std::f32::consts::LN_2);
    let sign_mask = _mm256_set1_ps(-0.0);
    let bias = _mm256_set1_epi32(127);
    // Taylor coefficients of exp, innermost first (matching the scalar
    // Horner nesting exactly).
    let c6 = _mm256_set1_ps(1.0 / 720.0);
    let c5 = _mm256_set1_ps(1.0 / 120.0);
    let c4 = _mm256_set1_ps(1.0 / 24.0);
    let c3 = _mm256_set1_ps(1.0 / 6.0);
    let c2 = _mm256_set1_ps(0.5);

    let n = xs.len();
    let mut i = 0;
    while i + 8 <= n {
        // SAFETY: i + 8 <= n keeps the 32-byte load/store in bounds.
        let x = unsafe { _mm256_loadu_ps(xs.as_ptr().add(i)) };
        // u = K * (x + C·x·x·x), grouped ((C·x)·x)·x like the scalar.
        let x3 = _mm256_mul_ps(_mm256_mul_ps(_mm256_mul_ps(c, x), x), x);
        let u = _mm256_mul_ps(k, _mm256_add_ps(x, x3));
        // a = min(|u|, 9); t = exp(-2a) via the shared polynomial.
        let a = _mm256_min_ps(_mm256_andnot_ps(sign_mask, u), nine);
        let y = _mm256_mul_ps(_mm256_mul_ps(neg2, a), log2e);
        let nv = _mm256_round_ps::<{ _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC }>(y);
        let g = _mm256_mul_ps(_mm256_sub_ps(y, nv), ln2);
        let mut p = _mm256_add_ps(c5, _mm256_mul_ps(g, c6));
        p = _mm256_add_ps(c4, _mm256_mul_ps(g, p));
        p = _mm256_add_ps(c3, _mm256_mul_ps(g, p));
        p = _mm256_add_ps(c2, _mm256_mul_ps(g, p));
        p = _mm256_add_ps(one, _mm256_mul_ps(g, p));
        p = _mm256_add_ps(one, _mm256_mul_ps(g, p));
        // 2^n through the exponent field (n is integral and in range, so
        // the nearest-int conversion is exact).
        let scale = _mm256_castsi256_ps(_mm256_slli_epi32::<23>(_mm256_add_epi32(
            _mm256_cvtps_epi32(nv),
            bias,
        )));
        let t = _mm256_mul_ps(p, scale);
        // tanh = copysign((1 - t) / (1 + t), u)
        let r = _mm256_div_ps(_mm256_sub_ps(one, t), _mm256_add_ps(one, t));
        let tanh = _mm256_or_ps(_mm256_andnot_ps(sign_mask, r), _mm256_and_ps(sign_mask, u));
        // gelu = (0.5 · x) · (1 + tanh)
        let out = _mm256_mul_ps(_mm256_mul_ps(half, x), _mm256_add_ps(one, tanh));
        // SAFETY: same bounds as the load above.
        unsafe { _mm256_storeu_ps(xs.as_mut_ptr().add(i), out) };
        i += 8;
    }
    for x in xs[i..].iter_mut() {
        *x = crate::activation::gelu(*x);
    }
}

/// `acc[j] += v[j] as f32 * s` — the attention value-mixing update. The
/// `d_head` accumulator lanes are independent, so vectorizing across `j`
/// preserves each lane's scalar operation order exactly (one multiply
/// rounding, one add rounding per element; no FMA contraction).
///
/// # Panics
///
/// Panics if `acc` and `v` lengths differ (debug builds).
#[inline]
pub fn accumulate_scaled_i8(acc: &mut [f32], v: &[i8], s: f32) {
    debug_assert_eq!(acc.len(), v.len(), "accumulate operand length mismatch");
    #[cfg(target_arch = "x86_64")]
    {
        if acc.len() >= 8 && is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 support was just verified at runtime.
            unsafe { accumulate_scaled_i8_avx2(acc, v, s) };
            return;
        }
    }
    accumulate_scaled_i8_scalar(acc, v, s);
}

/// Scalar reference accumulate loop (also the SIMD test oracle).
#[inline]
pub fn accumulate_scaled_i8_scalar(acc: &mut [f32], v: &[i8], s: f32) {
    for (a, &x) in acc.iter_mut().zip(v) {
        *a += x as f32 * s;
    }
}

/// AVX2 scaled accumulate: widen 8 int8 lanes to f32, one multiply and
/// one add rounding per lane — bit-identical to the scalar loop.
///
/// # Safety
///
/// The caller must ensure the CPU supports AVX2 (e.g. via
/// `is_x86_feature_detected!("avx2")`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn accumulate_scaled_i8_avx2(acc: &mut [f32], v: &[i8], s: f32) {
    use std::arch::x86_64::{
        _mm256_add_ps, _mm256_cvtepi32_ps, _mm256_cvtepi8_epi32, _mm256_loadu_ps, _mm256_mul_ps,
        _mm256_set1_ps, _mm256_storeu_ps, _mm_loadl_epi64,
    };
    let vs = _mm256_set1_ps(s);
    let n = acc.len().min(v.len());
    let mut i = 0;
    while i + 8 <= n {
        // SAFETY: i + 8 <= n keeps the 8-byte int8 load and the 32-byte
        // f32 load/store in bounds.
        let v8 = unsafe { _mm_loadl_epi64(v.as_ptr().add(i) as *const _) };
        let vf = _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(v8));
        // SAFETY: same bounds as above for both the load and the store.
        unsafe {
            let a = _mm256_loadu_ps(acc.as_ptr().add(i));
            _mm256_storeu_ps(
                acc.as_mut_ptr().add(i),
                _mm256_add_ps(a, _mm256_mul_ps(vf, vs)),
            );
        }
        i += 8;
    }
    accumulate_scaled_i8_scalar(&mut acc[i..], &v[i..], s);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vecs(len: usize, seed: usize) -> (Vec<i8>, Vec<i8>) {
        (
            (0..len).map(|i| ((i * 37 + seed) % 255) as i8).collect(),
            (0..len)
                .map(|i| ((i * 91 + seed * 3) % 251) as i8)
                .collect(),
        )
    }

    #[test]
    fn batch_dot_matches_per_row_dot_exactly() {
        // The batched maddubs kernel must agree with the per-row dot for
        // every group size, length (vector body + tail) and sign pattern;
        // activations stay in [-127, 127] per the contract, the weight
        // row exercises the full i8 range including -128.
        for len in [0usize, 1, 31, 32, 33, 64, 100, 1024] {
            let w: Vec<i8> = (0..len).map(|i| ((i * 37) % 256) as u8 as i8).collect();
            let xs: Vec<Vec<i8>> = (0..8)
                .map(|t| {
                    (0..len)
                        .map(|i| (((i * 91 + t * 13) % 255) as i16 - 127) as i8)
                        .collect()
                })
                .collect();
            let expect: Vec<i32> = xs.iter().map(|x| dot_i8_i32_scalar(&w, x)).collect();
            let got8 = dot_i8_i32_batch::<8>(&w, std::array::from_fn(|k| xs[k].as_slice()));
            assert_eq!(got8.to_vec(), expect, "x8 len {len}");
            let got4 = dot_i8_i32_batch::<4>(&w, std::array::from_fn(|k| xs[k].as_slice()));
            assert_eq!(got4.to_vec(), expect[..4].to_vec(), "x4 len {len}");
            let got2 = dot_i8_i32_batch::<2>(&w, std::array::from_fn(|k| xs[k].as_slice()));
            assert_eq!(got2.to_vec(), expect[..2].to_vec(), "x2 len {len}");
        }
    }

    #[test]
    fn biased_batch_dot_is_exact_over_full_i8_range() {
        // The bias identity must hold for every i8 value — including
        // -128 on both sides — at vector-body and tail lengths.
        for len in [0usize, 1, 63, 64, 65, 128, 1000] {
            let w: Vec<i8> = (0..len).map(|i| ((i * 37) % 256) as u8 as i8).collect();
            let xs: Vec<Vec<i8>> = (0..8)
                .map(|t| {
                    (0..len)
                        .map(|i| ((i * 91 + t * 13) % 256) as u8 as i8)
                        .collect()
                })
                .collect();
            let sum = row_sum_i8(&w);
            let mut xu = Vec::new();
            let biased: Vec<Vec<u8>> = xs
                .iter()
                .map(|x| {
                    bias_to_unsigned(x, &mut xu);
                    xu.clone()
                })
                .collect();
            let expect: Vec<i32> = xs.iter().map(|x| dot_i8_i32_scalar(&w, x)).collect();
            let got = dot_biased_i8_i32_batch::<8>(
                &w,
                sum,
                std::array::from_fn(|k| biased[k].as_slice()),
            );
            assert_eq!(got.to_vec(), expect, "len {len}");
        }
    }

    #[test]
    fn gelu_slice_matches_scalar_gelu_bitwise() {
        // Vector body + scalar tail, signs, zeros, saturation range.
        for len in [0usize, 1, 7, 8, 9, 64, 1000] {
            let mut buf: Vec<f32> = (0..len)
                .map(|i| ((i as f32 * 0.37).sin() * 6.0) + if i % 3 == 0 { -0.5 } else { 0.25 })
                .collect();
            if len > 4 {
                buf[1] = 0.0;
                buf[2] = -0.0;
                buf[3] = 42.0;
                buf[4] = -42.0;
            }
            let expect: Vec<f32> = buf.iter().map(|&x| crate::activation::gelu(x)).collect();
            gelu_slice(&mut buf);
            for (i, (a, e)) in buf.iter().zip(&expect).enumerate() {
                assert_eq!(a.to_bits(), e.to_bits(), "len {len} index {i}: {a} vs {e}");
            }
        }
    }

    #[test]
    fn batch_dot_saturation_corner_is_exact() {
        // Worst-case magnitudes: |w| = 128 against |x| = 127 everywhere.
        // Pair sums reach 2·128·127 = 32512 < 2^15: no i16 saturation.
        let w = vec![-128i8; 64];
        let hot = vec![127i8; 64];
        let cold = vec![-127i8; 64];
        let out = dot_i8_i32_batch::<2>(&w, [&hot, &cold]);
        assert_eq!(out, [-128 * 127 * 64, 128 * 127 * 64]);
    }

    #[test]
    fn dispatch_matches_scalar_at_every_length() {
        // Cover the vector body, the scalar tail, and sub-vector sizes.
        for len in 0..=67 {
            let (a, b) = vecs(len, len);
            assert_eq!(dot_i8_i32(&a, &b), dot_i8_i32_scalar(&a, &b), "len {len}");
        }
        for len in [128usize, 192, 1024, 1025, 4096] {
            let (a, b) = vecs(len, 7);
            assert_eq!(dot_i8_i32(&a, &b), dot_i8_i32_scalar(&a, &b), "len {len}");
        }
    }

    #[test]
    fn saturating_inputs_accumulate_exactly() {
        // ±127 everywhere: the largest magnitude the quantizer emits.
        let a = vec![127i8; 1000];
        let b = vec![-127i8; 1000];
        assert_eq!(dot_i8_i32(&a, &b), -127 * 127 * 1000);
        assert_eq!(dot_i8_i32(&a, &a), 127 * 127 * 1000);
    }

    #[test]
    fn empty_dot_is_zero() {
        assert_eq!(dot_i8_i32(&[], &[]), 0);
    }

    fn f32s(len: usize, seed: usize) -> Vec<f32> {
        (0..len)
            .map(|i| ((i * 13 + seed) as f32 * 0.177).sin() * (seed as f32 + 0.5))
            .collect()
    }

    #[test]
    fn absmax_matches_scalar_at_every_length() {
        for len in 0..=35 {
            let xs = f32s(len, len + 1);
            assert_eq!(absmax(&xs), absmax_scalar(&xs), "len {len}");
        }
        let big = f32s(1027, 3);
        assert_eq!(absmax(&big), absmax_scalar(&big));
    }

    #[test]
    fn max_f32_matches_the_scalar_fold() {
        let fold = |xs: &[f32]| xs.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        for len in 0..=35 {
            let mut xs = f32s(len, len + 1);
            assert_eq!(max_f32(&xs), fold(&xs), "len {len}");
            if len > 3 {
                xs[3] = f32::NAN; // skipped, as `f32::max` skips it
                assert_eq!(max_f32(&xs), fold(&xs), "len {len} with NaN");
            }
        }
    }

    #[test]
    fn absmax_ignores_nan_like_the_scalar_fold() {
        // `f32::max` skips NaN operands; the vectorized fold must too,
        // even when the NaN lands mid-lane after a peak was recorded.
        let mut xs = vec![0.5f32; 32];
        xs[2] = 1000.0;
        xs[10] = f32::NAN; // same lane as the peak, later iteration
        assert_eq!(absmax(&xs), absmax_scalar(&xs));
        assert_eq!(absmax(&xs), 1000.0);
    }

    #[test]
    fn absmax_sees_negative_peaks_and_tail() {
        let mut xs = vec![0.25f32; 64];
        xs[63] = -9.5; // last lane of the vector body
        assert_eq!(absmax(&xs), 9.5);
        let mut ys = vec![0.1f32; 65];
        ys[64] = -3.25; // scalar tail element
        assert_eq!(absmax(&ys), 3.25);
    }

    #[test]
    fn quantize_slice_matches_scalar_bitwise() {
        for len in [0usize, 1, 7, 8, 9, 16, 63, 64, 200] {
            let xs = f32s(len, len + 2);
            for scale in [0.01f32, 0.33, 1.0, 7.5] {
                let mut a = vec![0i8; len];
                let mut b = vec![0i8; len];
                quantize_slice(&xs, scale, &mut a);
                quantize_slice_scalar(&xs, scale, &mut b);
                assert_eq!(a, b, "len {len} scale {scale}");
            }
        }
    }

    #[test]
    fn quantize_slice_saturates_and_rounds_ties_even() {
        // NaN (inside the vector body) narrows to 0, as `NaN as i8` does.
        let xs = [1e9f32, -1e9, 0.5, 1.5, -0.5, -2.5, f32::NAN, 0.0, 3.0, 4.4];
        let mut out = vec![0i8; xs.len()];
        quantize_slice(&xs, 1.0, &mut out);
        assert_eq!(out, vec![127, -127, 0, 2, 0, -2, 0, 0, 3, 4]);
    }

    #[test]
    fn accumulate_scaled_matches_scalar_bitwise() {
        for len in [1usize, 7, 8, 9, 16, 64, 129] {
            let v = vecs(len, len).0;
            let mut a = f32s(len, 4);
            let mut b = a.clone();
            accumulate_scaled_i8(&mut a, &v, 0.0173);
            accumulate_scaled_i8_scalar(&mut b, &v, 0.0173);
            assert_eq!(a, b, "len {len}");
        }
    }
}
