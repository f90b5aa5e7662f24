//! Bit-exactness suite for the hot-path kernel overhaul: the tiled GEMM,
//! the SIMD MAC/quantize/accumulate kernels, and the fused linear
//! epilogues must produce byte-identical results to the straightforward
//! reference implementations they replaced.

use proptest::prelude::*;

use looplynx_tensor::activation::{gelu_in_place, gelu_vec};
use looplynx_tensor::linear::{gemm_i32, gemm_i32_naive, QuantLinear};
use looplynx_tensor::matrix::Matrix;
use looplynx_tensor::norm::{
    layernorm, layernorm_into, residual_add, residual_add_into, LayerNormParams,
};
use looplynx_tensor::quant::{quantize_into, quantize_vec};
use looplynx_tensor::simd::{
    absmax, absmax_scalar, accumulate_scaled_i8, accumulate_scaled_i8_scalar, dot_i8_i32,
    dot_i8_i32_scalar, quantize_slice, quantize_slice_scalar,
};

fn arb_i8_matrix(rows: usize, cols: usize, seed: u64) -> Matrix<i8> {
    Matrix::from_fn(rows, cols, |r, c| {
        (((seed as usize)
            .wrapping_mul(37)
            .wrapping_add(r * 131 + c * 17))
            % 255) as i8
    })
}

fn arb_f32_vec(len: usize, seed: u64) -> Vec<f32> {
    (0..len)
        .map(|i| {
            ((((seed as usize).wrapping_mul(41).wrapping_add(i * 13)) % 400) as f32 / 50.0 - 4.0)
                * 0.37
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Tiled GEMM equals the unblocked reference byte-for-byte, at shapes
    /// spanning partial and multiple row blocks.
    #[test]
    fn blocked_gemm_equals_naive(
        rows in 1usize..100,
        cols in 1usize..48,
        tokens in 1usize..12,
        seed in any::<u64>(),
    ) {
        let w = arb_i8_matrix(rows, cols, seed);
        let x = arb_i8_matrix(tokens, cols, seed.wrapping_add(1));
        let blocked = gemm_i32(&w, &x).expect("shapes");
        let naive = gemm_i32_naive(&w, &x).expect("shapes");
        prop_assert_eq!(blocked, naive);
    }

    /// The same at the shapes the AMX tile path takes where it is live
    /// (the 4×4 `vpdpbusd` tile's where it is not): 8–70 token rows —
    /// ragged 16-row panels — over whole 64-byte chunks, weight-row counts
    /// off the 16-row tile, and `-128` / `+127` planted in both operands.
    #[test]
    fn wide_batch_gemm_equals_naive(
        rows in 1usize..90,
        cols in prop::sample::select(vec![64usize, 128, 192, 1024, 4096]),
        tokens in 8usize..71,
        seed in any::<u64>(),
    ) {
        let mut w = arb_i8_matrix(rows, cols, seed);
        let mut x = arb_i8_matrix(tokens, cols, seed.wrapping_add(1));
        for (i, v) in [i8::MIN, i8::MAX, i8::MIN, i8::MAX].into_iter().enumerate() {
            let at = (seed as usize).wrapping_mul(i + 3);
            w.set(at % rows, (at >> 8) % cols, v);
            x.set((at >> 4) % tokens, (at >> 12) % cols, v);
        }
        let blocked = gemm_i32(&w, &x).expect("shapes");
        let naive = gemm_i32_naive(&w, &x).expect("shapes");
        prop_assert_eq!(blocked, naive);
    }

    /// GEMM rows equal per-token GEMV results exactly: each token row
    /// alone through the one-row naive oracle.
    #[test]
    fn gemm_rows_equal_gemv(
        rows in 1usize..64,
        cols in 1usize..40,
        tokens in 1usize..6,
        seed in any::<u64>(),
    ) {
        let w = arb_i8_matrix(rows, cols, seed);
        let x = arb_i8_matrix(tokens, cols, seed.wrapping_add(9));
        let full = gemm_i32(&w, &x).expect("shapes");
        for t in 0..tokens {
            let row = Matrix::from_vec(1, cols, x.row(t).to_vec()).expect("one row");
            let single = gemm_i32_naive(&w, &row).expect("shapes");
            prop_assert_eq!(full.row(t), single.row(0));
        }
    }

    /// The dispatched SIMD dot equals the scalar MAC loop for any length,
    /// including tails shorter than a vector.
    #[test]
    fn simd_dot_equals_scalar(len in 0usize..200, seed in any::<u64>()) {
        let a: Vec<i8> = arb_i8_matrix(1, len.max(1), seed).into_vec()[..len].to_vec();
        let b: Vec<i8> = arb_i8_matrix(1, len.max(1), seed.wrapping_add(77)).into_vec()[..len].to_vec();
        prop_assert_eq!(dot_i8_i32(&a, &b), dot_i8_i32_scalar(&a, &b));
    }

    /// Vectorized absmax equals the scalar fold bitwise.
    #[test]
    fn simd_absmax_equals_scalar(len in 0usize..130, seed in any::<u64>()) {
        let xs = arb_f32_vec(len, seed);
        prop_assert_eq!(absmax(&xs), absmax_scalar(&xs));
    }

    /// Vectorized quantization equals the scalar round/clamp loop bytewise.
    #[test]
    fn simd_quantize_equals_scalar(
        len in 0usize..130,
        seed in any::<u64>(),
        scale in 0.001f32..8.0,
    ) {
        let xs = arb_f32_vec(len, seed);
        let mut fast = vec![0i8; len];
        let mut slow = vec![0i8; len];
        quantize_slice(&xs, scale, &mut fast);
        quantize_slice_scalar(&xs, scale, &mut slow);
        prop_assert_eq!(fast, slow);
    }

    /// Vectorized value-mix accumulation equals the scalar loop bitwise
    /// (one multiply rounding + one add rounding per lane, no FMA).
    #[test]
    fn simd_accumulate_equals_scalar(
        len in 1usize..100,
        seed in any::<u64>(),
        s in -4.0f32..4.0,
    ) {
        let v: Vec<i8> = arb_i8_matrix(1, len, seed).into_vec();
        let mut fast = arb_f32_vec(len, seed.wrapping_add(3));
        let mut slow = fast.clone();
        accumulate_scaled_i8(&mut fast, &v, s);
        accumulate_scaled_i8_scalar(&mut slow, &v, s);
        prop_assert_eq!(fast, slow);
    }

    /// The fused forward epilogue (`forward`) equals the unfused scalar
    /// expression, and the allocation-free quantizer its allocating
    /// counterpart, bitwise.
    #[test]
    fn fused_forward_equals_reference(
        rows in 1usize..24,
        cols in 1usize..32,
        seed in any::<u64>(),
    ) {
        let wf = Matrix::from_fn(rows, cols, |r, c| {
            ((r * 31 + c * 7 + seed as usize % 13) as f32 * 0.011).sin()
        });
        let bias = arb_f32_vec(rows, seed.wrapping_add(2));
        let lin = QuantLinear::from_f32(&wf, &bias).expect("bias");
        let x = arb_f32_vec(cols, seed.wrapping_add(7));
        let mut q8 = vec![1i8; 3]; // dirty
        let scale = quantize_into(&x, &mut q8);
        let q = quantize_vec(&x);
        prop_assert_eq!(q.data(), q8.as_slice());
        prop_assert_eq!(q.scale(), scale);
        let w = lin.weight();
        let reference: Vec<f32> = (0..rows)
            .map(|r| {
                let acc = dot_i8_i32_scalar(w.data().row(r), q.data());
                acc as f32 * w.row_scales()[r] * q.scale() + lin.bias()[r]
            })
            .collect();
        let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&lin.forward(&q)), bits(&reference));
    }

    /// The buffer-reuse critical-path operators (layernorm / residual /
    /// GELU) equal their allocating counterparts bitwise, buffer history
    /// notwithstanding.
    #[test]
    fn critical_path_into_variants_equal_reference(
        len in 1usize..80,
        seed in any::<u64>(),
    ) {
        let x = arb_f32_vec(len, seed);
        let r = arb_f32_vec(len, seed.wrapping_add(13));
        let params = LayerNormParams::new(
            arb_f32_vec(len, seed.wrapping_add(21)),
            arb_f32_vec(len, seed.wrapping_add(34)),
            1e-5,
        ).expect("lengths match");
        let mut buf = vec![5.0f32; 7]; // dirty
        layernorm_into(&x, &params, &mut buf);
        prop_assert_eq!(buf.clone(), layernorm(&x, &params));
        residual_add_into(&x, &r, &mut buf);
        prop_assert_eq!(buf.clone(), residual_add(&x, &r));
        let mut g = x.clone();
        gelu_in_place(&mut g);
        prop_assert_eq!(g, gelu_vec(&x));
    }
}

/// The i32 worst case on whichever path the host dispatches to: width
/// 4096 of `±127` / `−128` against each other, |Σ| up to 2²⁶, at token
/// counts either side of the tile path's threshold and panel size.
#[test]
fn saturated_operands_accumulate_exactly_at_width_4096() {
    let extreme = |i: usize| [i8::MIN, i8::MAX, -127][i % 3];
    let w = Matrix::from_fn(37, 4096, |r, _| extreme(r));
    for tokens in [1, 4, 8, 16, 21, 33] {
        let x = Matrix::from_fn(tokens, 4096, |t, _| extreme(t / 2));
        let blocked = gemm_i32(&w, &x).expect("shapes");
        assert_eq!(
            blocked,
            gemm_i32_naive(&w, &x).expect("shapes"),
            "{tokens} tokens"
        );
        assert_eq!(blocked.get(0, 0), 128 * 128 * 4096);
    }
}
