//! Integer GEMM and the quantized linear layer.
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

use crate::amx::TileUnit;
use crate::simd::dot_i8_i32;
use std::ops::Range;

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
/// run in groups through the widest MAC kernel the host offers. Results
/// are bit-identical to [`gemm_i32_naive`].
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
    gemm_tiled_flat(Caps::detect(), w, None, 0..w.rows(), x, out);
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
/// [`select_path`] picks the MAC kernel from the shapes and `caps` — the
/// host's ([`Caps::detect`]), or less where a test sweeps the narrower
/// arms (always sound: each kernel re-checks what it needs). Integer
/// accumulation makes every path and grouping bit-identical.
fn gemm_tiled_flat(
    caps: Caps,
    w: &Matrix<i8>,
    w_row_sums: Option<&[i32]>,
    row_range: Range<usize>,
    x: &Matrix<i8>,
    out: &mut [i32],
) {
    use crate::simd::{bias_to_unsigned, row_sum_i8};

    debug_assert!(row_range.start <= row_range.end && row_range.end <= w.rows());
    debug_assert_eq!(out.len(), x.rows() * row_range.len());

    let (mut path, tiled) = select_path(x.rows(), x.cols(), row_range.len(), caps);
    // The `vpmaddubsw` kernel is exact only above `-128` (quantized
    // activations always are) — the one data-dependent part of the choice.
    if path == Path::Maddubs && x.as_slice().contains(&i8::MIN) {
        path = Path::PerRow;
    }
    let (cols, mut rows) = (row_range.len(), row_range);
    if path == Path::Amx {
        // Tiles take the leading multiple of 16 weight rows, the VNNI arms
        // what is left; with nothing left there is no rebias and no sums.
        crate::amx::gemm(w, rows.start..rows.start + tiled, x, out, cols);
        (path, rows.start) = (Path::Vnni, rows.start + tiled);
        if rows.is_empty() {
            return;
        }
    }

    // VNNI prologue: rebias the whole activation matrix once and make
    // sure row sums exist (cached by QuantizedMatrix on the hot path).
    // The rebias buffer is thread-local so steady-state decode loops —
    // the engine's long-lived pool workers too — allocate nothing per call.
    thread_local! {
        static XU: std::cell::RefCell<Vec<u8>> = const { std::cell::RefCell::new(Vec::new()) };
    }
    XU.with(|cell| {
        let (mut xu, mut computed_sums) = (cell.borrow_mut(), Vec::new());
        let mut sums = w_row_sums.unwrap_or(&[]);
        if path == Path::Vnni {
            bias_to_unsigned(x.as_slice(), &mut xu);
            if w_row_sums.is_none() {
                computed_sums.extend(w.iter_rows().map(row_sum_i8));
                sums = &computed_sums;
            }
        }
        let xu = &xu[..];
        Sweep {
            w,
            x,
            xu,
            sums,
            path,
            rows,
            cols,
        }
        .run(out);
    });
}

/// Which MAC kernel [`select_path`] chose for a call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Path {
    /// AMX `tdpbssd` tiles ([`crate::amx`]; signed × signed, any i8
    /// input) on the leading multiple of 16 weight rows.
    Amx,
    /// Biased `vpdpbusd` kernels (VNNI-512 hardware, any i8 input): the
    /// register-blocked 4×4 tile, and the per-row batch kernel on ragged
    /// edges and batch-1 decode's single row.
    Vnni,
    /// `vpmaddubsw` batch kernel (AVX2, activations above `-128`).
    Maddubs,
    /// Per-row [`dot_i8_i32`] GEMV (one row, or a `-128` activation).
    PerRow,
}

/// What the host offers the GEMM: [`crate::simd::vnni512_available`] and
/// the state of the AMX tile unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Caps {
    vnni512: bool,
    tiles: TileUnit,
}

impl Caps {
    fn detect() -> Self {
        let (vnni512, tiles) = (crate::simd::vnni512_available(), crate::amx::tile_unit());
        Caps { vnni512, tiles }
    }
}

/// Fewest activation rows for which the GEMM takes the AMX tile path.
/// One thread of the reference box (Sapphire Rapids, 2.1 GHz), the medium
/// model's 4096 × 1024 `fc1` streaming from L3: a tile call costs
/// 170–185 µs at any row count up to 16 (whole 16-row panels are computed,
/// and strided tile loads stream slower than row reads); the `vpdpbusd`
/// arms cost 130 µs at 1 row, 160 at 2 and at 4, 225 at 5, 260 at 6, 320
/// at 7, 295 at 8. So tiles lose at 1, 2 and 4 rows (×0.76, ×0.9, ×0.93;
/// 3 would win ×1.2 between two losses) and win from 5 on (×1.3; ×1.7 at
/// 8, ×2.7 at 16, ×4 at 32): batch-1 and batch-4 decode stay as they were.
const AMX_MIN_ROWS: usize = 5;

/// The kernel for `rows` activation rows of `width` int8 values against
/// `w_rows` weight rows, and how many of those weight rows (the leading
/// multiple of 16; nonzero only with [`Path::Amx`]) the tile path takes.
/// Pure, so testable anywhere: without `TileUnit::Live` it is the pre-AMX
/// choice for every input.
fn select_path(rows: usize, width: usize, w_rows: usize, caps: Caps) -> (Path, usize) {
    let wide = caps.vnni512 && width >= 64;
    let whole = rows >= AMX_MIN_ROWS && width.is_multiple_of(64);
    let tiled = match wide && whole && caps.tiles == TileUnit::Live {
        true => w_rows / 16 * 16,
        false => 0,
    };
    let path = match (wide, tiled, rows) {
        (true, 1.., _) => Path::Amx,
        (true, 0, _) => Path::Vnni,
        (false, _, 2..) => Path::Maddubs,
        (false, _, _) => Path::PerRow,
    };
    (path, tiled)
}

/// The block/group loop of [`gemm_tiled_flat`] for the non-tile paths:
/// weight rows `rows` in blocks of [`GEMM_ROW_BLOCK`], each swept by token
/// groups. `out` has `cols` columns, the last of them weight row
/// `rows.end - 1`; `sums` is indexed by absolute weight row.
struct Sweep<'a> {
    w: &'a Matrix<i8>,
    x: &'a Matrix<i8>,
    xu: &'a [u8],
    sums: &'a [i32],
    path: Path,
    rows: Range<usize>,
    cols: usize,
}

impl Sweep<'_> {
    fn run(&self, out: &mut [i32]) {
        // The VNNI tile is 4 activation rows wide; larger groups would
        // spill its 16 accumulators.
        let widest = match self.path {
            Path::PerRow => 1,
            Path::Maddubs => 8,
            Path::Vnni | Path::Amx => 4,
        };
        for start in self.rows.clone().step_by(GEMM_ROW_BLOCK) {
            let block = start..(start + GEMM_ROW_BLOCK).min(self.rows.end);
            let mut t = 0;
            while t < self.x.rows() {
                // The largest power of two the remaining rows fill.
                let group = 1 << (self.x.rows() - t).min(widest).ilog2();
                match group {
                    8 => self.group::<8>(block.clone(), t, out),
                    4 => self.group::<4>(block.clone(), t, out),
                    2 => self.group::<2>(block.clone(), t, out),
                    _ => self.group::<1>(block.clone(), t, out),
                }
                t += group;
            }
        }
    }

    fn xu_rows<const N: usize>(&self, t: usize) -> [&[u8]; N] {
        let width = self.x.cols();
        std::array::from_fn(|k| &self.xu[(t + k) * width..(t + k + 1) * width])
    }

    /// Token rows `t..t + N` against each weight row of `block`: one
    /// batched dot a weight row, after the 4×4 tile where it applies.
    fn group<const N: usize>(&self, mut block: Range<usize>, t: usize, out: &mut [i32]) {
        use crate::simd::{dot_biased_i8_i32_batch, dot_i8_i32_batch};
        let col0 = self.rows.end - self.cols;
        let xs: [&[i8]; N] = std::array::from_fn(|k| self.x.row(t + k));
        let mut xu: [&[u8]; N] = [&[]; N];
        if self.path == Path::Vnni {
            xu = self.xu_rows(t);
            if N == 4 {
                block.start = self.tile4x4(block.clone(), t, out);
            }
        }
        for r in block {
            let w = self.w.row(r);
            let o: [i32; N] = match self.path {
                Path::Vnni => dot_biased_i8_i32_batch(w, self.sums[r], xu),
                Path::Maddubs => dot_i8_i32_batch(w, xs),
                _ => xs.map(|x| dot_i8_i32(w, x)),
            };
            for (k, v) in o.into_iter().enumerate() {
                out[(t + k) * self.cols + r - col0] = v;
            }
        }
    }

    /// Token rows `t..t + 4` against `block`, four weight rows at a time on
    /// the register-blocked `vpdpbusd` tile; returns the first row left over.
    fn tile4x4(&self, block: Range<usize>, t: usize, out: &mut [i32]) -> usize {
        let (xu, col0) = (self.xu_rows::<4>(t), self.rows.end - self.cols);
        let mut r = block.start;
        while r + 4 <= block.end {
            let wrows: [&[i8]; 4] = std::array::from_fn(|k| self.w.row(r + k));
            let wsums: [i32; 4] = std::array::from_fn(|k| self.sums[r + k]);
            let o = crate::simd::dot_biased_i8_i32_tile4x4(wrows, wsums, xu);
            for (k, orow) in o.into_iter().enumerate() {
                for (tt, v) in orow.into_iter().enumerate() {
                    out[(t + tt) * self.cols + r + k - col0] = v;
                }
            }
            r += 4;
        }
        r
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
    /// The dequant epilogue is fused into the MAC row loop — no
    /// intermediate `Vec<i32>` is materialized.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != in_features()` (shape errors on the hot path
    /// indicate a programming bug, not recoverable input).
    pub fn forward(&self, x: &QuantizedVector) -> Vec<f32> {
        assert_eq!(x.len(), self.in_features(), "gemv shape");
        let (x, x_scale) = (x.data(), x.scale());
        self.weight
            .data()
            .iter_rows()
            .zip(self.weight.row_scales())
            .zip(&self.bias)
            .map(|((row, &ws), &b)| dot_i8_i32(row, x) as f32 * ws * x_scale + b)
            .collect()
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
        rows: Range<usize>,
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
            Caps::detect(),
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
        let x = Matrix::from_vec(1, 3, vec![1i8, 1, 1]).unwrap();
        assert_eq!(gemm_i32(&w, &x).unwrap().row(0), [6, 0]);
    }

    #[test]
    fn gemv_shape_error() {
        let w = Matrix::<i8>::zeros(2, 3);
        let x = Matrix::<i8>::zeros(1, 2);
        assert!(gemm_i32(&w, &x).is_err());
        assert!(gemm_i32_naive(&w, &x).is_err());
    }

    #[test]
    fn gemm_matches_repeated_gemv() {
        let w = Matrix::from_fn(3, 4, |r, c| ((r * 4 + c) % 7) as i8 - 3);
        let x = Matrix::from_fn(2, 4, |t, c| (t as i8 + 1) * (c as i8 - 1));
        let full = gemm_i32(&w, &x).unwrap();
        for t in 0..2 {
            let row = Matrix::from_vec(1, 4, x.row(t).to_vec()).unwrap();
            assert_eq!(full.row(t), gemm_i32_naive(&w, &row).unwrap().row(0));
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
        // The engine's column-parallel split: each node's shard is a row
        // slice of the weights and bias (`QuantizedMatrix::slice_rows`).
        let w = Matrix::from_fn(8, 4, |r, c| (r * 4 + c) as f32 * 0.01);
        let bias: Vec<f32> = (0..8).map(|i| i as f32).collect();
        let lin = QuantLinear::from_f32(&w, &bias).unwrap();
        let x = quantize_vec(&[0.5, -0.5, 0.25, 1.0]);
        let full = lin.forward(&x);
        let shards: Vec<QuantLinear> = (0..4)
            .map(|p| {
                let rows = 2 * p..2 * p + 2;
                QuantLinear::new(
                    lin.weight().slice_rows(rows.start, rows.end),
                    bias[rows].to_vec(),
                )
                .unwrap()
            })
            .collect();
        let stitched: Vec<f32> = shards.iter().flat_map(|s| s.forward(&x)).collect();
        assert_eq!(full.len(), stitched.len());
        for (a, b) in full.iter().zip(&stitched) {
            assert!((a - b).abs() < 1e-6);
        }
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

    /// The selector is pure, so the fallback is proven on any machine:
    /// unless the tile unit is live it returns the pre-AMX choice for
    /// every input, and live tiles are taken exactly from
    /// [`AMX_MIN_ROWS`] rows over whole 64-byte chunks and 16-row tiles.
    #[test]
    fn selector_without_live_tiles_is_the_pre_amx_choice() {
        let before = |rows: usize, width: usize, vnni512: bool| {
            if vnni512 && width >= 64 {
                Path::Vnni
            } else if rows > 1 {
                Path::Maddubs
            } else {
                Path::PerRow
            }
        };
        for vnni512 in [false, true] {
            for tiles in [TileUnit::Absent, TileUnit::Refused, TileUnit::Live] {
                let caps = Caps { vnni512, tiles };
                for rows in [0, 1, 2, 4, 5, 7, 8, 16, 33, 512] {
                    for width in [0, 1, 63, 64, 96, 128, 1000, 1024, 4096] {
                        for w_rows in [0, 1, 15, 16, 17, 31, 32, 37, 4096] {
                            let tiled = tiles == TileUnit::Live
                                && vnni512
                                && rows >= AMX_MIN_ROWS
                                && width >= 64
                                && width % 64 == 0
                                && w_rows >= 16;
                            let expect = match tiled {
                                true => (Path::Amx, w_rows - w_rows % 16),
                                false => (before(rows, width, vnni512), 0),
                            };
                            assert_eq!(
                                select_path(rows, width, w_rows, caps),
                                expect,
                                "{rows} × {width} on {w_rows} weight rows, {caps:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// Every arm the hardware supports — forced by lowering [`Caps`] below
    /// the host's, so on an AMX box the `vpdpbusd` and `vpmaddubsw` arms
    /// are still swept at tile-path row counts — equals the naive GEMM on
    /// ragged shapes, with and without cached row sums and `-128`.
    #[test]
    fn every_supported_path_equals_the_naive_gemm() {
        let host = Caps::detect();
        if host.tiles != TileUnit::Live {
            println!(
                "skipped: AMX not live ({:?}); the other arms still run",
                host.tiles
            );
        }
        let no_tiles = Caps {
            tiles: TileUnit::Absent,
            ..host
        };
        let baseline = Caps {
            vnni512: false,
            ..no_tiles
        };
        let shapes: &[(usize, usize, usize)] = if cfg!(miri) {
            &[(9, 64, 19)]
        } else {
            &[
                (5, 64, 16),
                (8, 128, 50),
                (17, 192, 37),
                (33, 1024, 70),
                (70, 64, 33),
            ]
        };
        for &(tokens, width, w_rows) in shapes {
            let w = Matrix::from_fn(w_rows, width, |r, c| ((r * 131 + c * 17) % 256) as u8 as i8);
            let sums: Vec<i32> = w.iter_rows().map(crate::simd::row_sum_i8).collect();
            // Once over all of i8 (the baseline then runs per row), once
            // clamped above `-128` so the `vpmaddubsw` arm runs too.
            for floor in [i8::MIN, -127] {
                let x = Matrix::from_fn(tokens, width, |t, c| {
                    (((t * 89 + c * 7) % 256) as u8 as i8).max(floor)
                });
                let naive = gemm_i32_naive(&w, &x).unwrap();
                for caps in [host, no_tiles, baseline] {
                    for range in [0..w_rows, 3..w_rows - 2, 1..2, w_rows..w_rows] {
                        for cached in [None, Some(sums.as_slice())] {
                            let mut out = vec![-1i32; tokens * range.len()];
                            gemm_tiled_flat(caps, &w, cached, range.clone(), &x, &mut out);
                            for t in 0..tokens {
                                assert_eq!(
                                    out[t * range.len()..(t + 1) * range.len()],
                                    naive.row(t)[range.clone()],
                                    "{tokens} × {width} from {floor}, rows {range:?}, token {t}, {caps:?}"
                                );
                            }
                        }
                    }
                }
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
