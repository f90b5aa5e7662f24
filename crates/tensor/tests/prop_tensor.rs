//! Property-based tests for the quantized tensor substrate.

use proptest::prelude::*;

use looplynx_tensor::activation::softmax;
use looplynx_tensor::linear::{gemm_i32_naive, gemv_f32, QuantLinear};
use looplynx_tensor::matrix::Matrix;
use looplynx_tensor::norm::{layernorm, residual_add, LayerNormParams};
use looplynx_tensor::quant::{quantize_vec, scale_for};

fn arb_f32_vec(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec((-100i32..100).prop_map(|x| x as f32 / 10.0), len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Quantization round-trip error is bounded by half a quantization step.
    #[test]
    fn quant_roundtrip_bounded(xs in arb_f32_vec(1..128)) {
        let q = quantize_vec(&xs);
        let back = q.dequantize();
        let half_step = q.scale() / 2.0 + 1e-6;
        for (x, y) in xs.iter().zip(&back) {
            prop_assert!((x - y).abs() <= half_step, "{x} vs {y}");
        }
    }

    /// Quantized values never exceed ±127 whatever the input.
    #[test]
    fn quant_saturates(xs in prop::collection::vec(any::<f32>().prop_filter("finite", |x| x.is_finite()), 1..64)) {
        let q = quantize_vec(&xs);
        prop_assert!(q.data().iter().all(|&v| (-127..=127).contains(&(v as i32))));
        prop_assert!(q.scale() > 0.0);
    }

    /// scale_for maps the absmax onto exactly 127 steps.
    #[test]
    fn scale_for_is_tight(absmax in 1e-3f32..1e3) {
        let s = scale_for(absmax);
        prop_assert!((absmax / s - 127.0).abs() < 1e-3);
    }

    /// Integer GEMV is additive in the activation: W(x + y) = Wx + Wy (in
    /// i32 exact arithmetic, no overflow for these ranges).
    #[test]
    fn gemv_is_linear(
        rows in 1usize..8,
        cols in 1usize..16,
        seed in any::<u64>(),
    ) {
        let w = Matrix::from_fn(rows, cols, |r, c| {
            (((seed >> (r % 13)) as usize + r * 31 + c * 7) % 127) as i8 - 63
        });
        let x = Matrix::from_fn(1, cols, |_, i| ((i * 11 + 3) % 60) as i8 - 30);
        let y = Matrix::from_fn(1, cols, |_, i| ((i * 17 + 5) % 60) as i8 - 30);
        let xy = Matrix::from_fn(1, cols, |_, i| x.get(0, i) + y.get(0, i));
        let wx = gemm_i32_naive(&w, &x).unwrap();
        let wy = gemm_i32_naive(&w, &y).unwrap();
        let wxy = gemm_i32_naive(&w, &xy).unwrap();
        for i in 0..rows {
            prop_assert_eq!(wxy.get(0, i), wx.get(0, i) + wy.get(0, i));
        }
    }

    /// A quantized linear tracks its f32 reference within the error bound
    /// implied by the quantization steps.
    #[test]
    fn quant_linear_tracks_reference(
        rows in 1usize..8,
        cols in 2usize..32,
        seed in 0u64..1000,
    ) {
        let w = Matrix::from_fn(rows, cols, |r, c| {
            (((seed as usize + r * 131 + c * 17) % 200) as f32 / 100.0 - 1.0) * 0.1
        });
        let bias: Vec<f32> = (0..rows).map(|i| i as f32 * 0.01).collect();
        let lin = QuantLinear::from_f32(&w, &bias).unwrap();
        let x: Vec<f32> = (0..cols).map(|i| ((seed as usize + i * 7) % 100) as f32 / 100.0 - 0.5).collect();
        let got = lin.forward(&quantize_vec(&x));
        let expect: Vec<f32> = gemv_f32(&w, &x)
            .unwrap()
            .iter()
            .zip(&bias)
            .map(|(a, b)| a + b)
            .collect();
        // error bound: ~(cols · step_w · |x|max + cols · step_x · |w|max)
        let tol = 0.02 * cols as f32 * 0.1 + 0.01;
        for (g, e) in got.iter().zip(&expect) {
            prop_assert!((g - e).abs() < tol, "{g} vs {e} (tol {tol})");
        }
    }

    /// Row sharding a linear (each shard a row slice of the weights and
    /// bias, as the engine splits them across nodes) then stitching the
    /// outputs equals the full layer.
    #[test]
    fn shard_stitching_exact(parts in prop::sample::select(vec![1usize, 2, 4, 8]), seed in 0u64..500) {
        let rows = 16usize;
        let cols = 8usize;
        let w = Matrix::from_fn(rows, cols, |r, c| {
            ((seed as usize + r * 13 + c * 29) % 100) as f32 / 50.0 - 1.0
        });
        let bias: Vec<f32> = (0..rows).map(|i| i as f32).collect();
        let lin = QuantLinear::from_f32(&w, &bias).unwrap();
        let x = quantize_vec(&(0..cols).map(|i| i as f32 / 8.0).collect::<Vec<_>>());
        let full = lin.forward(&x);
        let chunk = rows / parts;
        let stitched: Vec<f32> = (0..parts)
            .flat_map(|p| {
                let (a, b) = (p * chunk, (p + 1) * chunk);
                QuantLinear::new(lin.weight().slice_rows(a, b), bias[a..b].to_vec()).unwrap().forward(&x)
            })
            .collect();
        prop_assert_eq!(full, stitched);
    }

    /// Softmax always produces a probability distribution.
    #[test]
    fn softmax_is_distribution(scores in arb_f32_vec(1..64)) {
        let w = softmax(&scores);
        prop_assert_eq!(w.len(), scores.len());
        prop_assert!(w.iter().all(|&p| (0.0..=1.0 + 1e-6).contains(&p)));
        let sum: f32 = w.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-4, "sum {sum}");
    }

    /// Layernorm output always has ~zero mean and ~unit variance under
    /// identity affine parameters (for non-constant inputs).
    #[test]
    fn layernorm_normalizes(xs in arb_f32_vec(4..64)) {
        let spread = xs.iter().cloned().fold(f32::NEG_INFINITY, f32::max)
            - xs.iter().cloned().fold(f32::INFINITY, f32::min);
        prop_assume!(spread > 0.5);
        let y = layernorm(&xs, &LayerNormParams::identity(xs.len()));
        let n = y.len() as f32;
        let mean: f32 = y.iter().sum::<f32>() / n;
        let var: f32 = y.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / n;
        prop_assert!(mean.abs() < 1e-3, "mean {mean}");
        prop_assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    /// Residual addition commutes.
    #[test]
    fn residual_commutes(a in arb_f32_vec(1..32), seed in any::<u64>()) {
        let b: Vec<f32> = a.iter().enumerate()
            .map(|(i, _)| ((seed as usize + i) % 100) as f32 / 10.0)
            .collect();
        prop_assert_eq!(residual_add(&a, &b), residual_add(&b, &a));
    }
}
