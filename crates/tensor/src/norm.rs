//! Layer normalization and residual connections.
//!
//! These are the paper's "critical path operators — those between each
//! linear layer computation and MHA computation" (Section III-C). They are
//! computed in f32 (the accelerator dedicates a fused LN&Res kernel to
//! them); quantization happens after, when results re-enter an int8 kernel.

use crate::error::ShapeError;
use crate::quant::{absmax, scale_for};
use crate::simd::Avx512;

/// Learned layer-norm parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerNormParams {
    /// Per-element scale γ.
    pub gamma: Vec<f32>,
    /// Per-element shift β.
    pub beta: Vec<f32>,
    /// Numerical-stability epsilon.
    pub eps: f32,
}

impl LayerNormParams {
    /// Identity normalization (γ=1, β=0) over `dim` elements.
    pub fn identity(dim: usize) -> Self {
        LayerNormParams {
            gamma: vec![1.0; dim],
            beta: vec![0.0; dim],
            eps: 1e-5,
        }
    }

    /// Creates parameters.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `gamma` and `beta` lengths differ.
    pub fn new(gamma: Vec<f32>, beta: Vec<f32>, eps: f32) -> Result<Self, ShapeError> {
        if gamma.len() != beta.len() {
            return Err(ShapeError::new(
                "layernorm params",
                (gamma.len(), 1),
                (beta.len(), 1),
            ));
        }
        Ok(LayerNormParams { gamma, beta, eps })
    }

    /// Normalized dimension.
    pub fn dim(&self) -> usize {
        self.gamma.len()
    }
}

/// Applies layer normalization:
/// `y = γ · (x − mean) / sqrt(var + eps) + β`.
///
/// The three sequential passes (mean, variance, normalize) are what make the
/// un-parallelized operator expensive on the critical path — the fused
/// LN&Res kernel's job is to widen and overlap them.
///
/// # Panics
///
/// Panics if `x.len() != params.dim()`.
pub fn layernorm(x: &[f32], params: &LayerNormParams) -> Vec<f32> {
    let mut out = Vec::new();
    layernorm_into(x, params, &mut out);
    out
}

/// [`layernorm`] writing into a caller-provided buffer (cleared and
/// resized) — identical operations in identical order, no allocation on
/// the steady-state path.
///
/// # Panics
///
/// Panics if `x.len() != params.dim()`.
pub fn layernorm_into(x: &[f32], params: &LayerNormParams, out: &mut Vec<f32>) {
    let n = x.len() as f32;
    let mean = x.iter().sum::<f32>() / n;
    let var = x.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / n;
    normalize_into(x, mean, var, params, out);
}

/// The normalize pass of [`layernorm_into`], from the row's moments.
fn normalize_into(x: &[f32], mean: f32, var: f32, params: &LayerNormParams, out: &mut Vec<f32>) {
    assert_eq!(x.len(), params.dim(), "layernorm dimension mismatch");
    let inv = 1.0 / (var + params.eps).sqrt();
    out.clear();
    out.extend(
        x.iter()
            .zip(params.gamma.iter().zip(&params.beta))
            .map(|(&v, (&g, &b))| g * (v - mean) * inv + b),
    );
}

/// A batched linear's prologue: each `width`-wide row through
/// [`layernorm_into`] (if `ln`) and [`crate::quant::quantize_into`], into
/// `out` with one scale a row in `scales` (both overwritten; `h` is
/// scratch), bit-identical to that per-row loop. On AVX-512 the LN sums
/// run 16 rows per vector ([`Avx512::row_sums16`]); a lone row keeps the
/// scalar sums.
///
/// # Panics
///
/// Panics if `rows` is not whole rows of `width`, or `ln` is not `width`
/// wide.
pub fn layernorm_quantize_rows(
    rows: &[f32],
    width: usize,
    ln: Option<&LayerNormParams>,
    h: &mut Vec<f32>,
    out: &mut Vec<i8>,
    scales: &mut Vec<f32>,
) {
    assert!(
        width > 0 && rows.len().is_multiple_of(width),
        "rows must be whole"
    );
    out.clear();
    scales.clear();
    let (wide, n) = (Avx512::detect(), width as f32);
    // Where `Sum` for f32 starts its chain (an all-`-0.0` row sums to `-0.0`).
    let init = std::iter::empty::<f32>().sum::<f32>();
    for group in rows.chunks(16 * width) {
        let moments = wide.filter(|_| ln.is_some() && group.len() > width);
        let moments = moments.map(|simd| {
            let means = simd.row_sums16(group, width, init, None).map(|s| s / n);
            let vars = simd.row_sums16(group, width, init, Some(&means));
            (means, vars.map(|s| s / n))
        });
        for (r, row) in group.chunks_exact(width).enumerate() {
            let x = match (ln, moments) {
                (Some(p), Some((means, vars))) => {
                    normalize_into(row, means[r], vars[r], p, h);
                    h.as_slice()
                }
                (Some(p), None) => {
                    layernorm_into(row, p, h);
                    h.as_slice()
                }
                (None, _) => row,
            };
            let scale = scale_for(absmax(x));
            let at = out.len();
            out.resize(at + width, 0);
            crate::simd::quantize_slice(x, scale, &mut out[at..]);
            scales.push(scale);
        }
    }
}

/// Residual connection `y = x + r`.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn residual_add(x: &[f32], r: &[f32]) -> Vec<f32> {
    let mut out = Vec::new();
    residual_add_into(x, r, &mut out);
    out
}

/// [`residual_add`] writing into a caller-provided buffer (cleared and
/// resized).
///
/// # Panics
///
/// Panics if lengths differ.
pub fn residual_add_into(x: &[f32], r: &[f32], out: &mut Vec<f32>) {
    assert_eq!(x.len(), r.len(), "residual length mismatch");
    out.clear();
    out.extend(x.iter().zip(r).map(|(a, b)| a + b));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layernorm_zero_mean_unit_var() {
        let x = vec![1.0f32, 2.0, 3.0, 4.0];
        let y = layernorm(&x, &LayerNormParams::identity(4));
        let mean: f32 = y.iter().sum::<f32>() / 4.0;
        let var: f32 = y.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 4.0;
        assert!(mean.abs() < 1e-5);
        assert!((var - 1.0).abs() < 1e-3);
    }

    #[test]
    fn layernorm_applies_affine() {
        let params = LayerNormParams::new(vec![2.0, 2.0], vec![1.0, 1.0], 1e-5).unwrap();
        let y = layernorm(&[-1.0, 1.0], &params);
        // normalized to ±1, then *2 + 1
        assert!((y[0] + 1.0).abs() < 1e-3);
        assert!((y[1] - 3.0).abs() < 1e-3);
    }

    #[test]
    fn layernorm_constant_input_maps_to_beta() {
        let params = LayerNormParams::new(vec![1.0; 3], vec![0.5; 3], 1e-5).unwrap();
        let y = layernorm(&[7.0, 7.0, 7.0], &params);
        for v in y {
            assert!((v - 0.5).abs() < 1e-3);
        }
    }

    /// The rows kernel against the per-row `layernorm_into` +
    /// `quantize_into` loop it replaces, bitwise, across 16-row groups and
    /// their ragged tails, with an all-zero row (the scale-1.0 path), a
    /// row of `-0.0` and a one-spike row in every batch.
    #[test]
    fn layernorm_quantize_rows_matches_the_per_row_loop_bitwise() {
        if Avx512::detect().is_none() {
            println!("skipped: no AVX-512 VNNI (the scalar sums are compared with themselves)");
        }
        let wave = |len: usize, seed: usize| -> Vec<f32> {
            (0..len)
                .map(|i| ((i * 7 + seed) as f32 * 0.013).sin() * (1.0 + (i % 5) as f32))
                .collect()
        };
        let (mut h, mut out, mut scales) = (Vec::new(), Vec::new(), Vec::new());
        let (mut h1, mut q1) = (Vec::new(), Vec::new());
        for width in [64usize, 1024, 4096] {
            let affine = LayerNormParams::new(wave(width, 1), wave(width, 2), 1e-5).unwrap();
            let identity = LayerNormParams::identity(width);
            for rows in [1usize, 2, 15, 16, 17, 33] {
                let mut x = wave(rows * width, rows);
                let special = x.chunks_exact_mut(width).skip(rows / 2).take(3);
                for (k, row) in special.enumerate() {
                    row.fill([0.0, -0.0, 0.0][k]);
                    if k == 2 {
                        row[width / 3] = 1e4;
                    }
                }
                for ln in [Some(&affine), Some(&identity), None] {
                    layernorm_quantize_rows(&x, width, ln, &mut h, &mut out, &mut scales);
                    assert_eq!(scales.len(), rows);
                    for (r, row) in x.chunks_exact(width).enumerate() {
                        let scale = match ln {
                            Some(p) => {
                                layernorm_into(row, p, &mut h1);
                                crate::quant::quantize_into(&h1, &mut q1)
                            }
                            None => crate::quant::quantize_into(row, &mut q1),
                        };
                        let what = format!("{rows} × {width}, row {r}, ln {}", ln.is_some());
                        assert_eq!(scales[r].to_bits(), scale.to_bits(), "{what}");
                        assert_eq!(out[r * width..(r + 1) * width], q1[..], "{what}");
                    }
                }
            }
        }
    }

    #[test]
    fn residual_is_elementwise_sum() {
        assert_eq!(residual_add(&[1.0, 2.0], &[0.5, -2.0]), vec![1.5, 0.0]);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dimension_mismatch_panics() {
        let _ = layernorm(&[1.0], &LayerNormParams::identity(2));
    }

    #[test]
    fn params_validate_lengths() {
        assert!(LayerNormParams::new(vec![1.0], vec![0.0, 0.0], 1e-5).is_err());
        assert_eq!(LayerNormParams::identity(8).dim(), 8);
    }
}
