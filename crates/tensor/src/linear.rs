//! Integer GEMV/GEMM and the quantized linear layer.
//!
//! The accelerator's matrix processing unit is "accumulator-multiplier based
//! MAC hardware": each MAC consumes one int8 weight and one int8 activation
//! per cycle and accumulates in 32-bit. After a row's `l_embed` MACs, the
//! quantization unit "performs bias addition and quantization" (paper
//! Section III-D). [`QuantLinear::forward`] reproduces exactly that
//! sequence: `i8 × i8 → i32` accumulate, dequantize with
//! `x_scale · w_scale[row]`, add the bias, and optionally requantize for
//! the next kernel.

use crate::error::ShapeError;
use crate::matrix::Matrix;
use crate::quant::{quantize_matrix_per_row, QuantizedMatrix, QuantizedVector};

/// Rows per weight block in the tiled [`gemm_i32`]: 32 int8 rows of a
/// 1024-wide layer are 32 KiB — small enough to stay resident in L1/L2
/// while every token row of the activation batch is swept over them.
pub const GEMM_ROW_BLOCK: usize = 32;

use crate::simd::dot_i8_i32;

/// Integer matrix-vector product: `y[r] = Σ_c w[r,c] · x[c]` in i32.
///
/// # Errors
///
/// Returns [`ShapeError`] if `x.len() != w.cols()`.
pub fn gemv_i32(w: &Matrix<i8>, x: &[i8]) -> Result<Vec<i32>, ShapeError> {
    let mut out = Vec::new();
    gemv_i32_into(w, x, &mut out)?;
    Ok(out)
}

/// [`gemv_i32`] writing into a caller-provided buffer (cleared and
/// resized), so steady-state decode loops allocate nothing.
///
/// # Errors
///
/// Returns [`ShapeError`] if `x.len() != w.cols()`.
pub fn gemv_i32_into(w: &Matrix<i8>, x: &[i8], out: &mut Vec<i32>) -> Result<(), ShapeError> {
    if x.len() != w.cols() {
        return Err(ShapeError::new("gemv", (w.rows(), w.cols()), (1, x.len())));
    }
    out.clear();
    out.extend(w.iter_rows().map(|row| dot_i8_i32(row, x)));
    Ok(())
}

/// Unblocked reference GEMM — one full dot product per output element in
/// storage order. Kept as the oracle the tiled [`gemm_i32`] is tested
/// against (the two are exactly equal: i32 accumulation is associative
/// and the tiling never splits a dot product).
pub fn gemm_i32_naive(w: &Matrix<i8>, x: &Matrix<i8>) -> Result<Matrix<i32>, ShapeError> {
    if x.cols() != w.cols() {
        return Err(ShapeError::new(
            "gemm",
            (w.rows(), w.cols()),
            (x.rows(), x.cols()),
        ));
    }
    let mut out = Matrix::<i32>::zeros(x.rows(), w.rows());
    for (t, xrow) in x.iter_rows().enumerate() {
        for (r, wrow) in w.iter_rows().enumerate() {
            out.set(t, r, dot_i8_i32(wrow, xrow));
        }
    }
    Ok(out)
}

/// Integer matrix-matrix product `W · Xᵀ` where `X` holds one activation
/// vector per row: `y[r][t] = Σ_c w[r,c] · x[t,c]`.
///
/// This is the weight-sharing shape of both batched prefill (`t` indexes
/// prompt tokens) and continuous-batching decode (`t` indexes resident
/// sequences). The loop is tiled over blocks of [`GEMM_ROW_BLOCK`] weight
/// rows — each block is streamed from memory once and reused across
/// *all* token rows before the next block is touched — and token rows
/// run in groups through the batched MAC kernel
/// ([`crate::simd::dot_i8_i32_batch`]), which amortizes the weight-side
/// widening across the group. Results are bit-identical to
/// [`gemm_i32_naive`].
///
/// # Errors
///
/// Returns [`ShapeError`] if `x.cols() != w.cols()`.
pub fn gemm_i32(w: &Matrix<i8>, x: &Matrix<i8>) -> Result<Matrix<i32>, ShapeError> {
    let mut flat = Vec::new();
    gemm_i32_into(w, x, &mut flat)?;
    Matrix::from_vec(x.rows(), w.rows(), flat)
}

/// [`gemm_i32`] writing into a caller-provided flat row-major buffer
/// (cleared and resized to `x.rows() × w.rows()`, token row `t` at
/// `t * w.rows()`), so batched decode loops allocate nothing per step.
/// Same tiling and token grouping, bit-identical results.
///
/// # Errors
///
/// Returns [`ShapeError`] if `x.cols() != w.cols()`.
pub fn gemm_i32_into(w: &Matrix<i8>, x: &Matrix<i8>, out: &mut Vec<i32>) -> Result<(), ShapeError> {
    if x.cols() != w.cols() {
        return Err(ShapeError::new(
            "gemm",
            (w.rows(), w.cols()),
            (x.rows(), x.cols()),
        ));
    }
    out.clear();
    out.resize(x.rows() * w.rows(), 0);
    gemm_tiled_flat(w, None, 0..w.rows(), x, out);
    Ok(())
}

/// The shared tiled GEMM core over weight rows `row_range`, writing into
/// a flat `x.rows() × row_range.len()` row-major buffer with column `0`
/// holding weight row `row_range.start` (shapes pre-validated and the
/// buffer pre-sized by the public entry points). `w_row_sums` is the
/// cached biased-dot correction when the caller holds a
/// [`QuantizedMatrix`], indexed by **absolute** weight row (`None`
/// computes it on the fly — only the raw-`Matrix` entry points pay
/// that). The range form is what batch-row sharding partitions: each
/// shard computes a disjoint slab of output columns, and stitching the
/// slabs reproduces the full GEMM bit-for-bit because no dot product is
/// ever split.
///
/// On VNNI hardware, activations of width 64 and up run through the
/// register-blocked 4×4 tile ([`crate::simd::dot_biased_i8_i32_tile4x4`],
/// exact for all i8) with the per-row biased batch kernel
/// ([`crate::simd::dot_biased_i8_i32_batch`]) covering ragged edges and
/// batch-1 decode's single row (twice the weight-streaming rate of the
/// sign-extending [`dot_i8_i32`]). Without VNNI, multi-row activations
/// above `-128` (quantized ones always are) take the `vpmaddubsw` path
/// ([`crate::simd::dot_i8_i32_batch`]) and everything else the per-row
/// [`dot_i8_i32`] GEMV. Integer accumulation makes every grouping
/// bit-identical.
fn gemm_tiled_flat(
    w: &Matrix<i8>,
    w_row_sums: Option<&[i32]>,
    row_range: std::ops::Range<usize>,
    x: &Matrix<i8>,
    out: &mut [i32],
) {
    use crate::simd::{bias_to_unsigned, row_sum_i8, vnni512_available};

    let rows = x.rows();
    let width = x.cols();
    debug_assert!(row_range.start <= row_range.end && row_range.end <= w.rows());
    debug_assert_eq!(out.len(), rows * row_range.len());

    let path = if vnni512_available() && width >= 64 {
        Path::Vnni
    } else if rows > 1 && !x.as_slice().contains(&i8::MIN) {
        Path::Maddubs
    } else {
        Path::PerRow
    };

    // VNNI prologue: rebias the whole activation matrix once and make
    // sure row sums exist (cached by QuantizedMatrix on the hot path).
    // The rebias buffer is thread-local so steady-state decode loops —
    // including the engine's long-lived pool workers — allocate nothing
    // per call once it reaches its high-water mark.
    thread_local! {
        static XU: std::cell::RefCell<Vec<u8>> = const { std::cell::RefCell::new(Vec::new()) };
    }
    XU.with(|cell| {
        let mut xu = cell.borrow_mut();
        let mut computed_sums: Vec<i32> = Vec::new();
        let sums: &[i32] = if matches!(path, Path::Vnni) {
            bias_to_unsigned(x.as_slice(), &mut xu);
            match w_row_sums {
                Some(s) => s,
                None => {
                    computed_sums.extend(w.iter_rows().map(row_sum_i8));
                    &computed_sums
                }
            }
        } else {
            &[]
        };
        gemm_tiled_blocks(w, row_range, x, out, &path, &xu, sums);
    });
}

/// Which MAC kernel [`gemm_tiled_flat`] selected for a call.
enum Path {
    /// Biased `vpdpbusd` batch kernel (VNNI hardware, any i8 input).
    Vnni,
    /// `vpmaddubsw` batch kernel (AVX2, activations above `-128`).
    Maddubs,
    /// Per-row [`dot_i8_i32`] GEMV (no VNNI-512, or width under 64).
    PerRow,
}

/// The tiled block/group loop of [`gemm_tiled_flat`] (split out so the
/// thread-local rebias buffer can be borrowed across it). `out` columns
/// are relative to `row_range.start`; `sums` is indexed by absolute
/// weight row.
fn gemm_tiled_blocks(
    w: &Matrix<i8>,
    row_range: std::ops::Range<usize>,
    x: &Matrix<i8>,
    out: &mut [i32],
    path: &Path,
    xu: &[u8],
    sums: &[i32],
) {
    use crate::simd::{dot_biased_i8_i32_batch, dot_biased_i8_i32_tile4x4, dot_i8_i32_batch};

    let rows = x.rows();
    let row0 = row_range.start;
    let cols = row_range.len();
    let width = x.cols();

    let mut block_start = row_range.start;
    while block_start < row_range.end {
        let block_end = (block_start + GEMM_ROW_BLOCK).min(row_range.end);
        let mut t = 0;
        while t < rows {
            let group = match path {
                Path::PerRow => 1,
                // The VNNI tile is 4 activation rows wide; larger groups
                // would spill its 16 accumulators.
                Path::Vnni => match rows - t {
                    n if n >= 4 => 4,
                    n if n >= 2 => 2,
                    _ => 1,
                },
                Path::Maddubs => match rows - t {
                    n if n >= 8 => 8,
                    n if n >= 4 => 4,
                    n if n >= 2 => 2,
                    _ => 1,
                },
            };
            match (path, group) {
                (Path::Vnni, 4) => {
                    let rows4: [&[u8]; 4] =
                        std::array::from_fn(|k| &xu[(t + k) * width..(t + k + 1) * width]);
                    let mut r = block_start;
                    while r + 4 <= block_end {
                        let wrows: [&[i8]; 4] = std::array::from_fn(|k| w.row(r + k));
                        let wsums: [i32; 4] = std::array::from_fn(|k| sums[r + k]);
                        let o = dot_biased_i8_i32_tile4x4(wrows, wsums, rows4);
                        for (k, orow) in o.into_iter().enumerate() {
                            for (tt, v) in orow.into_iter().enumerate() {
                                out[(t + tt) * cols + (r + k - row0)] = v;
                            }
                        }
                        r += 4;
                    }
                    for r in r..block_end {
                        let o = dot_biased_i8_i32_batch::<4>(w.row(r), sums[r], rows4);
                        for (k, v) in o.into_iter().enumerate() {
                            out[(t + k) * cols + (r - row0)] = v;
                        }
                    }
                }
                (Path::Vnni, 2) => {
                    let rows2: [&[u8]; 2] =
                        std::array::from_fn(|k| &xu[(t + k) * width..(t + k + 1) * width]);
                    for r in block_start..block_end {
                        let o = dot_biased_i8_i32_batch::<2>(w.row(r), sums[r], rows2);
                        for (k, v) in o.into_iter().enumerate() {
                            out[(t + k) * cols + (r - row0)] = v;
                        }
                    }
                }
                (Path::Vnni, _) => {
                    let rows1: [&[u8]; 1] = [&xu[t * width..(t + 1) * width]];
                    for r in block_start..block_end {
                        let o = dot_biased_i8_i32_batch::<1>(w.row(r), sums[r], rows1);
                        out[t * cols + (r - row0)] = o[0];
                    }
                }
                (Path::Maddubs, 8) => {
                    let rows8: [&[i8]; 8] = std::array::from_fn(|k| x.row(t + k));
                    for r in block_start..block_end {
                        let o = dot_i8_i32_batch::<8>(w.row(r), rows8);
                        for (k, v) in o.into_iter().enumerate() {
                            out[(t + k) * cols + (r - row0)] = v;
                        }
                    }
                }
                (Path::Maddubs, 4) => {
                    let rows4: [&[i8]; 4] = std::array::from_fn(|k| x.row(t + k));
                    for r in block_start..block_end {
                        let o = dot_i8_i32_batch::<4>(w.row(r), rows4);
                        for (k, v) in o.into_iter().enumerate() {
                            out[(t + k) * cols + (r - row0)] = v;
                        }
                    }
                }
                (Path::Maddubs, 2) => {
                    let rows2: [&[i8]; 2] = std::array::from_fn(|k| x.row(t + k));
                    for r in block_start..block_end {
                        let o = dot_i8_i32_batch::<2>(w.row(r), rows2);
                        for (k, v) in o.into_iter().enumerate() {
                            out[(t + k) * cols + (r - row0)] = v;
                        }
                    }
                }
                _ => {
                    for r in block_start..block_end {
                        out[t * cols + (r - row0)] = dot_i8_i32(w.row(r), x.row(t));
                    }
                }
            }
            t += group;
        }
        block_start = block_end;
    }
}

/// A W8A8 linear layer: int8 weights with per-row scales and an f32 bias.
///
/// # Example
///
/// ```
/// use looplynx_tensor::matrix::Matrix;
/// use looplynx_tensor::linear::QuantLinear;
/// use looplynx_tensor::quant::quantize_vec;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let w = Matrix::from_fn(2, 4, |r, c| if r == 0 { 0.5 } else { (c as f32) * 0.1 });
/// let lin = QuantLinear::from_f32(&w, &[1.0, -1.0])?;
/// let y = lin.forward(&quantize_vec(&[1.0, 1.0, 1.0, 1.0]));
/// assert!((y[0] - 3.0).abs() < 0.1); // 4*0.5 + 1.0
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QuantLinear {
    weight: QuantizedMatrix,
    bias: Vec<f32>,
}

impl QuantLinear {
    /// Quantizes an f32 weight matrix (per-row scales) and wraps the bias.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `bias.len() != w.rows()`.
    pub fn from_f32(w: &Matrix<f32>, bias: &[f32]) -> Result<Self, ShapeError> {
        if bias.len() != w.rows() {
            return Err(ShapeError::new(
                "linear bias",
                (w.rows(), 1),
                (bias.len(), 1),
            ));
        }
        Ok(QuantLinear {
            weight: quantize_matrix_per_row(w),
            bias: bias.to_vec(),
        })
    }

    /// Wraps pre-quantized weights.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `bias.len() != weight.shape().0`.
    pub fn new(weight: QuantizedMatrix, bias: Vec<f32>) -> Result<Self, ShapeError> {
        if bias.len() != weight.shape().0 {
            return Err(ShapeError::new(
                "linear bias",
                (weight.shape().0, 1),
                (bias.len(), 1),
            ));
        }
        Ok(QuantLinear { weight, bias })
    }

    /// Output features (rows of the weight matrix).
    pub fn out_features(&self) -> usize {
        self.weight.shape().0
    }

    /// Input features (columns of the weight matrix).
    pub fn in_features(&self) -> usize {
        self.weight.shape().1
    }

    /// The quantized weights.
    pub fn weight(&self) -> &QuantizedMatrix {
        &self.weight
    }

    /// The bias vector.
    pub fn bias(&self) -> &[f32] {
        &self.bias
    }

    /// Weight bytes streamed from HBM per activation of this layer.
    pub fn weight_bytes(&self) -> usize {
        self.weight.byte_len()
    }

    /// Forward pass for one token: int accumulate, dequantize, add bias.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != in_features()` (shape errors on the hot path
    /// indicate a programming bug, not recoverable input).
    pub fn forward(&self, x: &QuantizedVector) -> Vec<f32> {
        let mut out = Vec::new();
        self.forward_into(x, &mut out);
        out
    }

    /// [`QuantLinear::forward`] writing into a caller-provided buffer
    /// (cleared and resized). The dequant epilogue is fused into the MAC
    /// row loop — no intermediate `Vec<i32>` is materialized — with the
    /// same per-element expression, so results are bit-identical.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != in_features()`.
    pub fn forward_into(&self, x: &QuantizedVector, out: &mut Vec<f32>) {
        assert_eq!(x.len(), self.in_features(), "gemv shape");
        let (x, x_scale) = (x.data(), x.scale());
        out.clear();
        out.extend(
            self.weight
                .data()
                .iter_rows()
                .zip(self.weight.row_scales())
                .zip(&self.bias)
                .map(|((row, &ws), &b)| {
                    let acc = dot_i8_i32(row, x);
                    acc as f32 * ws * x_scale + b
                }),
        );
    }

    /// Batched forward where each token row of `x` carries its own
    /// activation scale — the exact batched counterpart of calling
    /// [`QuantLinear::forward`] per token (bit-identical results), used by
    /// the weight-sharing batched-prefill path.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != in_features()` or
    /// `x_scales.len() != x.rows()`.
    pub fn forward_batch_scaled(&self, x: &Matrix<i8>, x_scales: &[f32]) -> Matrix<f32> {
        let (mut acc, mut out) = (Vec::new(), Vec::new());
        self.forward_batch_scaled_into(x, x_scales, &mut acc, &mut out);
        Matrix::from_vec(x.rows(), self.out_features(), out).expect("gemm shape")
    }

    /// [`QuantLinear::forward_batch_scaled`] writing the dequantized
    /// output into a caller-provided flat row-major buffer (cleared and
    /// resized to `x.rows() × out_features()`, token row `t` at
    /// `t * out_features()`), with GEMM scratch in `acc`. The batched
    /// continuous-decode hot path: one weight stream per call, shared by
    /// every token row, and no per-step allocation. Bit-identical to
    /// calling [`QuantLinear::forward`] per row.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != in_features()` or
    /// `x_scales.len() != x.rows()`.
    pub fn forward_batch_scaled_into(
        &self,
        x: &Matrix<i8>,
        x_scales: &[f32],
        acc: &mut Vec<i32>,
        out: &mut Vec<f32>,
    ) {
        self.forward_batch_scaled_range_into(x, x_scales, 0..self.out_features(), acc, out);
    }

    /// [`QuantLinear::forward_batch_scaled_into`] restricted to output
    /// rows `rows` — the batch-row-sharding entry point. `out` holds
    /// `x.rows() × rows.len()` values with column `0` mapping to weight
    /// row `rows.start`; stitching each shard's slab side by side
    /// reproduces the full forward bit-for-bit (no dot product is ever
    /// split, and the dequant epilogue is per-element).
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != in_features()`,
    /// `x_scales.len() != x.rows()`, or `rows` falls outside
    /// `0..out_features()`.
    pub fn forward_batch_scaled_range_into(
        &self,
        x: &Matrix<i8>,
        x_scales: &[f32],
        rows: std::ops::Range<usize>,
        acc: &mut Vec<i32>,
        out: &mut Vec<f32>,
    ) {
        assert_eq!(x_scales.len(), x.rows(), "one scale per token row");
        assert_eq!(x.cols(), self.in_features(), "gemm shape");
        assert!(
            rows.start <= rows.end && rows.end <= self.out_features(),
            "row range {rows:?} outside 0..{}",
            self.out_features()
        );
        let cols = rows.len();
        acc.clear();
        acc.resize(x.rows() * cols, 0);
        gemm_tiled_flat(
            self.weight.data(),
            Some(self.weight.row_sums()),
            rows.clone(),
            x,
            acc,
        );
        out.clear();
        out.resize(x.rows() * cols, 0.0);
        let scales = &self.weight.row_scales()[rows.clone()];
        let biases = &self.bias[rows];
        for (t, &x_scale) in x_scales.iter().enumerate() {
            let arow = &acc[t * cols..(t + 1) * cols];
            for (((o, &a), &ws), &b) in out[t * cols..(t + 1) * cols]
                .iter_mut()
                .zip(arow)
                .zip(scales)
                .zip(biases)
            {
                *o = a as f32 * ws * x_scale + b;
            }
        }
    }

    /// Splits this layer by output rows into `parts` equal shards — the
    /// column-parallel partition used for multi-node execution.
    ///
    /// # Panics
    ///
    /// Panics if `out_features` is not divisible by `parts`.
    pub fn shard_rows(&self, parts: usize) -> Vec<QuantLinear> {
        assert!(parts > 0, "parts must be positive");
        assert_eq!(
            self.out_features() % parts,
            0,
            "out_features {} not divisible by {parts}",
            self.out_features()
        );
        let chunk = self.out_features() / parts;
        (0..parts)
            .map(|p| QuantLinear {
                weight: self.weight.slice_rows(p * chunk, (p + 1) * chunk),
                bias: self.bias[p * chunk..(p + 1) * chunk].to_vec(),
            })
            .collect()
    }
}

/// Reference f32 GEMV for accuracy comparisons.
pub fn gemv_f32(w: &Matrix<f32>, x: &[f32]) -> Result<Vec<f32>, ShapeError> {
    if x.len() != w.cols() {
        return Err(ShapeError::new(
            "gemv_f32",
            (w.rows(), w.cols()),
            (1, x.len()),
        ));
    }
    Ok(w.iter_rows()
        .map(|row| row.iter().zip(x).map(|(a, b)| a * b).sum())
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quant::quantize_vec;

    #[test]
    fn gemv_small_known_answer() {
        let w = Matrix::from_vec(2, 3, vec![1i8, 2, 3, -1, 0, 1]).unwrap();
        let y = gemv_i32(&w, &[1, 1, 1]).unwrap();
        assert_eq!(y, vec![6, 0]);
    }

    #[test]
    fn gemv_shape_error() {
        let w = Matrix::<i8>::zeros(2, 3);
        assert!(gemv_i32(&w, &[1, 2]).is_err());
    }

    #[test]
    fn gemm_matches_repeated_gemv() {
        let w = Matrix::from_fn(3, 4, |r, c| ((r * 4 + c) % 7) as i8 - 3);
        let x = Matrix::from_fn(2, 4, |t, c| (t as i8 + 1) * (c as i8 - 1));
        let full = gemm_i32(&w, &x).unwrap();
        for t in 0..2 {
            let single = gemv_i32(&w, x.row(t)).unwrap();
            for (r, &s) in single.iter().enumerate() {
                assert_eq!(full.get(t, r), s);
            }
        }
    }

    #[test]
    fn quant_linear_approximates_f32() {
        let w = Matrix::from_fn(8, 16, |r, c| {
            ((r as f32 - 4.0) * 0.1 + c as f32 * 0.01).sin()
        });
        let bias: Vec<f32> = (0..8).map(|i| i as f32 * 0.1).collect();
        let lin = QuantLinear::from_f32(&w, &bias).unwrap();
        let x: Vec<f32> = (0..16).map(|i| ((i as f32) * 0.3).cos()).collect();
        let qy = lin.forward(&quantize_vec(&x));
        let fy: Vec<f32> = gemv_f32(&w, &x)
            .unwrap()
            .iter()
            .zip(&bias)
            .map(|(a, b)| a + b)
            .collect();
        for (a, b) in qy.iter().zip(&fy) {
            assert!((a - b).abs() < 0.05, "quantized {a} vs reference {b}");
        }
    }

    #[test]
    fn sharding_tiles_the_output_exactly() {
        let w = Matrix::from_fn(8, 4, |r, c| (r * 4 + c) as f32 * 0.01);
        let bias: Vec<f32> = (0..8).map(|i| i as f32).collect();
        let lin = QuantLinear::from_f32(&w, &bias).unwrap();
        let x = quantize_vec(&[0.5, -0.5, 0.25, 1.0]);
        let full = lin.forward(&x);
        let shards = lin.shard_rows(4);
        let stitched: Vec<f32> = shards.iter().flat_map(|s| s.forward(&x)).collect();
        assert_eq!(full.len(), stitched.len());
        for (a, b) in full.iter().zip(&stitched) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn sharding_requires_divisibility() {
        let w = Matrix::from_fn(6, 2, |_, _| 1.0);
        let lin = QuantLinear::from_f32(&w, &[0.0; 6]).unwrap();
        let _ = lin.shard_rows(4);
    }

    #[test]
    fn batch_forward_matches_single() {
        let w = Matrix::from_fn(3, 5, |r, c| (r as f32 + 1.0) * 0.1 - c as f32 * 0.02);
        let lin = QuantLinear::from_f32(&w, &[0.1, 0.2, 0.3]).unwrap();
        let x0 = quantize_vec(&[0.4, -0.2, 0.1, 0.9, -0.6]);
        let batch = Matrix::from_vec(1, 5, x0.data().to_vec()).unwrap();
        let yb = lin.forward_batch_scaled(&batch, &[x0.scale()]);
        let ys = lin.forward(&x0);
        for (r, &y) in ys.iter().enumerate() {
            assert!((yb.get(0, r) - y).abs() < 1e-6);
        }
    }

    #[test]
    fn scaled_batch_matches_per_token_forward() {
        let w = Matrix::from_fn(4, 6, |r, c| ((r * 6 + c) as f32 * 0.013).sin() * 0.1);
        let lin = QuantLinear::from_f32(&w, &[0.1, -0.2, 0.3, 0.0]).unwrap();
        let tokens: Vec<Vec<f32>> = (0..3)
            .map(|t| (0..6).map(|i| ((t * 6 + i) as f32 * 0.21).cos()).collect())
            .collect();
        let quantized: Vec<_> = tokens.iter().map(|t| quantize_vec(t)).collect();
        let data: Vec<i8> = quantized.iter().flat_map(|q| q.data().to_vec()).collect();
        let scales: Vec<f32> = quantized.iter().map(|q| q.scale()).collect();
        let x = Matrix::from_vec(3, 6, data).unwrap();
        let batch = lin.forward_batch_scaled(&x, &scales);
        for (t, q) in quantized.iter().enumerate() {
            let single = lin.forward(q);
            for (r, &s) in single.iter().enumerate() {
                assert_eq!(batch.get(t, r), s, "token {t} row {r}");
            }
        }

        // One row — batch-1 decode, which takes the biased `vpdpbusd`
        // kernel where the hardware has it — at widths on both sides of
        // its 64-byte step, with a `-128` activation (outside the
        // `vpmaddubsw` kernel's exact range) and row ranges that start and
        // end off the 32-row block.
        let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        let rows = 37;
        // (Miri interprets the scalar fallback; the wide shapes add nothing there.)
        let widths: &[usize] = if cfg!(miri) {
            &[64, 96]
        } else {
            &[64, 96, 1000, 1024, 4096]
        };
        for &width in widths {
            let w = Matrix::from_fn(rows, width, |r, c| ((r * width + c) as f32 * 0.37).sin());
            let bias: Vec<f32> = (0..rows).map(|r| r as f32 * 0.01 - 0.1).collect();
            let lin = QuantLinear::from_f32(&w, &bias).unwrap();
            let mut data: Vec<i8> = (0..width).map(|c| (c * 89 % 256) as u8 as i8).collect();
            data[width / 2] = i8::MIN;
            let q = QuantizedVector::new(data.clone(), 0.0123);
            let single = lin.forward(&q);
            let x = Matrix::from_vec(1, width, data).unwrap();
            let (mut acc, mut out) = (Vec::new(), Vec::new());
            lin.forward_batch_scaled_into(&x, &[q.scale()], &mut acc, &mut out);
            assert_eq!(bits(&out), bits(&single), "width {width}");
            for range in [0..5, 5..rows, 3..36, 32..33] {
                lin.forward_batch_scaled_range_into(
                    &x,
                    &[q.scale()],
                    range.clone(),
                    &mut acc,
                    &mut out,
                );
                assert_eq!(
                    bits(&out),
                    bits(&single[range.clone()]),
                    "width {width} rows {range:?}"
                );
            }
        }
    }

    #[test]
    fn gemm_into_matches_gemm() {
        let w = Matrix::from_fn(67, 9, |r, c| ((r * 9 + c) % 13) as i8 - 6);
        let x = Matrix::from_fn(5, 9, |t, c| ((t * 9 + c) % 11) as i8 - 5);
        let full = gemm_i32(&w, &x).unwrap();
        let mut flat = vec![1i32; 3]; // dirty buffer must be overwritten
        gemm_i32_into(&w, &x, &mut flat).unwrap();
        assert_eq!(flat.len(), 5 * 67);
        for t in 0..5 {
            assert_eq!(&flat[t * 67..(t + 1) * 67], full.row(t));
        }
        let bad = Matrix::<i8>::zeros(2, 4);
        assert!(gemm_i32_into(&w, &bad, &mut flat).is_err());
    }

    #[test]
    fn scaled_batch_into_matches_scaled_batch() {
        let w = Matrix::from_fn(6, 8, |r, c| ((r * 8 + c) as f32 * 0.017).sin() * 0.2);
        let lin = QuantLinear::from_f32(&w, &[0.4, -0.1, 0.0, 0.2, -0.3, 0.7]).unwrap();
        let x = Matrix::from_fn(3, 8, |t, c| ((t * 8 + c) % 17) as i8 - 8);
        let scales = [0.01f32, 0.02, 0.005];
        let reference = lin.forward_batch_scaled(&x, &scales);
        let (mut acc, mut out) = (Vec::new(), Vec::new());
        lin.forward_batch_scaled_into(&x, &scales, &mut acc, &mut out);
        assert_eq!(out.len(), 3 * 6);
        for t in 0..3 {
            assert_eq!(&out[t * 6..(t + 1) * 6], reference.row(t), "token {t}");
        }
    }

    #[test]
    #[should_panic(expected = "one scale per token row")]
    fn scaled_batch_validates_scales() {
        let w = Matrix::from_fn(2, 2, |_, _| 1.0f32);
        let lin = QuantLinear::from_f32(&w, &[0.0; 2]).unwrap();
        let x = Matrix::<i8>::zeros(2, 2);
        let _ = lin.forward_batch_scaled(&x, &[1.0]);
    }

    #[test]
    fn bias_length_validated() {
        let w = Matrix::from_fn(3, 2, |_, _| 1.0f32);
        assert!(QuantLinear::from_f32(&w, &[0.0; 2]).is_err());
    }

    #[test]
    fn accessors_report_dimensions() {
        let w = Matrix::from_fn(3, 7, |_, _| 1.0f32);
        let lin = QuantLinear::from_f32(&w, &[0.0; 3]).unwrap();
        assert_eq!(lin.out_features(), 3);
        assert_eq!(lin.in_features(), 7);
        assert_eq!(lin.weight_bytes(), 21);
        assert_eq!(lin.bias().len(), 3);
    }
}
