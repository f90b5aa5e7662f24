//! Symmetric 8-bit quantization.
//!
//! The paper runs both the accelerator and the A100 baseline under the
//! SmoothQuant W8A8 scheme (Xiao et al., ICML 2023): symmetric int8 weights
//! and activations. This model keeps the int8 arithmetic — one scale per
//! weight row ([`quantize_matrix_per_row`]) and one per activation token
//! ([`quantize_vec`], [`quantize_into`]) — and applies no smoothing step.

use crate::matrix::Matrix;

/// Quantized range limit for symmetric int8 (±127; −128 is unused so the
/// representable range is symmetric, matching common W8A8 practice).
pub const QMAX: f32 = 127.0;

/// Returns the largest absolute value of the slice (0.0 when empty).
pub fn absmax(xs: &[f32]) -> f32 {
    crate::simd::absmax(xs)
}

/// Computes the symmetric scale mapping `[-absmax, absmax]` onto ±127.
/// Degenerate all-zero inputs get scale 1.0 so that dequantization is a
/// no-op rather than a division by zero.
pub fn scale_for(absmax: f32) -> f32 {
    if absmax <= f32::MIN_POSITIVE {
        1.0
    } else {
        absmax / QMAX
    }
}

/// Quantizes one value under `scale` with round-to-nearest-even and
/// saturation — the rounding mode of the accelerator's quantization unit.
pub fn quantize_value(x: f32, scale: f32) -> i8 {
    let q = (x / scale).round_ties_even();
    q.clamp(-QMAX, QMAX) as i8
}

/// A quantized activation vector with its per-tensor scale.
///
/// # Example
///
/// ```
/// use looplynx_tensor::quant::quantize_vec;
///
/// let q = quantize_vec(&[0.5, -1.0, 0.25]);
/// let back = q.dequantize();
/// assert!((back[1] + 1.0).abs() < 0.01);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedVector {
    data: Vec<i8>,
    scale: f32,
}

impl QuantizedVector {
    /// Wraps pre-quantized data.
    pub fn new(data: Vec<i8>, scale: f32) -> Self {
        assert!(scale > 0.0 && scale.is_finite(), "scale must be positive");
        QuantizedVector { data, scale }
    }

    /// The int8 payload.
    pub fn data(&self) -> &[i8] {
        &self.data
    }

    /// The per-tensor scale (`real = q * scale`).
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// Element count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the vector is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Reconstructs the real-valued vector.
    pub fn dequantize(&self) -> Vec<f32> {
        self.data.iter().map(|&q| q as f32 * self.scale).collect()
    }
}

/// Quantizes a vector with a per-tensor symmetric scale.
pub fn quantize_vec(xs: &[f32]) -> QuantizedVector {
    let scale = scale_for(absmax(xs));
    let mut data = vec![0i8; xs.len()];
    crate::simd::quantize_slice(xs, scale, &mut data);
    QuantizedVector { data, scale }
}

/// Quantizes a vector into a caller-provided buffer (cleared and
/// resized), returning the per-tensor scale — the exact math of
/// [`quantize_vec`] without the allocation, for steady-state hot loops.
pub fn quantize_into(xs: &[f32], out: &mut Vec<i8>) -> f32 {
    let scale = scale_for(absmax(xs));
    out.clear();
    out.resize(xs.len(), 0);
    crate::simd::quantize_slice(xs, scale, out);
    scale
}

/// A weight matrix quantized with one symmetric scale per row
/// (per output channel).
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedMatrix {
    data: Matrix<i8>,
    row_scales: Vec<f32>,
    /// Per-row i8 sums, cached at construction: the correction term of
    /// the biased VNNI dot (`crate::simd::dot_biased_i8_i32_batch`),
    /// which the batched GEMM would otherwise recompute per call.
    row_sums: Vec<i32>,
}

impl QuantizedMatrix {
    /// Reassembles a matrix from checkpointed parts, trusting the cached
    /// `row_sums` instead of rescanning the payload — the whole point of
    /// a memory-mapped load is *not* to fault every weight page in at
    /// construction time. Sums that disagree with the payload produce
    /// wrong dequantized values, never unsoundness; round-trip tests in
    /// the checkpoint layer guard the write side.
    ///
    /// # Panics
    ///
    /// Panics if `row_scales`/`row_sums` lengths don't match `data.rows()`
    /// or any scale is non-positive.
    pub fn from_parts(data: Matrix<i8>, row_scales: Vec<f32>, row_sums: Vec<i32>) -> Self {
        assert_eq!(row_scales.len(), data.rows(), "one scale per row");
        assert_eq!(row_sums.len(), data.rows(), "one sum per row");
        assert!(
            row_scales.iter().all(|&s| s > 0.0 && s.is_finite()),
            "scales must be positive"
        );
        QuantizedMatrix {
            data,
            row_scales,
            row_sums,
        }
    }

    /// The int8 weights.
    pub fn data(&self) -> &Matrix<i8> {
        &self.data
    }

    /// Per-row scales.
    pub fn row_scales(&self) -> &[f32] {
        &self.row_scales
    }

    /// Per-row i8 sums (the biased-dot correction term).
    pub fn row_sums(&self) -> &[i32] {
        &self.row_sums
    }

    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        self.data.shape()
    }

    /// Bytes occupied by the int8 payload — the per-token HBM traffic this
    /// matrix induces when streamed.
    pub fn byte_len(&self) -> usize {
        self.data.len()
    }

    /// Rows `[start, end)` with their scales and sums — how weights are
    /// sharded across nodes (column-parallel split of the output dim). The
    /// payload is sliced by [`Matrix::slice_rows`]: a mapped one by view.
    pub fn slice_rows(&self, start: usize, end: usize) -> QuantizedMatrix {
        QuantizedMatrix {
            data: self.data.slice_rows(start, end),
            row_scales: self.row_scales[start..end].to_vec(),
            row_sums: self.row_sums[start..end].to_vec(),
        }
    }
}

/// Quantizes a real matrix with per-row symmetric scales.
pub fn quantize_matrix_per_row(w: &Matrix<f32>) -> QuantizedMatrix {
    let scales: Vec<f32> = w.row_absmax().into_iter().map(scale_for).collect();
    let data = Matrix::from_fn(w.rows(), w.cols(), |r, c| {
        quantize_value(w.get(r, c), scales[r])
    });
    let row_sums = data.iter_rows().map(crate::simd::row_sum_i8).collect();
    QuantizedMatrix {
        data,
        row_scales: scales,
        row_sums,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_error_is_bounded_by_half_step() {
        let xs: Vec<f32> = (-50..=50).map(|i| i as f32 * 0.037).collect();
        let q = quantize_vec(&xs);
        let back = q.dequantize();
        let half_step = q.scale() / 2.0 + 1e-6;
        for (x, y) in xs.iter().zip(&back) {
            assert!((x - y).abs() <= half_step, "{x} vs {y}");
        }
    }

    #[test]
    fn saturation_clamps_to_qmax() {
        assert_eq!(quantize_value(1e9, 1.0), 127);
        assert_eq!(quantize_value(-1e9, 1.0), -127);
    }

    #[test]
    fn zero_vector_has_unit_scale() {
        let q = quantize_vec(&[0.0; 8]);
        assert_eq!(q.scale(), 1.0);
        assert!(q.dequantize().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn per_row_scales_isolate_outlier_rows() {
        // Row 0 is tiny, row 1 has a huge outlier. Per-row scales keep row 0
        // precise even though row 1 needs a coarse scale.
        let w = Matrix::from_vec(2, 2, vec![0.01f32, -0.02, 100.0, 50.0]).unwrap();
        let q = quantize_matrix_per_row(&w);
        let back = |r: usize, c: usize| q.data().get(r, c) as f32 * q.row_scales()[r];
        assert!((back(0, 1) + 0.02).abs() < 0.001);
        assert!((back(1, 0) - 100.0).abs() < 1.0);
    }

    #[test]
    fn matrix_slice_preserves_scales() {
        let w = Matrix::from_fn(4, 2, |r, _| (r + 1) as f32);
        let q = quantize_matrix_per_row(&w);
        let s = q.slice_rows(2, 4);
        assert_eq!(s.shape(), (2, 2));
        assert_eq!(s.row_scales(), &q.row_scales()[2..4]);
    }

    #[test]
    #[should_panic(expected = "one scale per row")]
    fn scale_count_mismatch_panics() {
        let _ = QuantizedMatrix::from_parts(Matrix::zeros(2, 2), vec![1.0], vec![0, 0]);
    }

    #[test]
    fn ties_round_to_even() {
        // 0.5 / 1.0 = 0.5 rounds to 0 (even), 1.5 rounds to 2
        assert_eq!(quantize_value(0.5, 1.0), 0);
        assert_eq!(quantize_value(1.5, 1.0), 2);
    }
}
