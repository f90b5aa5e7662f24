//! # looplynx-tensor — W8A8 quantized tensor substrate
//!
//! The LoopLynx paper evaluates GPT-2 under the SmoothQuant W8A8
//! quantization scheme: 8-bit symmetric weights and activations with 32-bit
//! integer accumulation, which is exactly what the accelerator's MAC
//! hardware computes (`i8 × i8 → i32`, paper Section III-D). This crate
//! provides that arithmetic as a standalone substrate:
//!
//! * [`matrix`] — row-major dense matrices (owned or zero-copy views
//!   into a memory-mapped checkpoint arena).
//! * [`mmap`] — read-only memory-mapped byte arenas backing those views.
//! * [`quant`] — symmetric per-tensor (activation) and per-row (weight)
//!   int8 quantization.
//! * [`linear`] — integer GEMV/GEMM and the fused
//!   dequantize–bias–requantize epilogue performed by the paper's
//!   quantization unit.
//! * [`norm`] — layer normalization and residual connections (the paper's
//!   "critical path operators").
//! * [`activation`] — GELU and the two-phase softmax whose structure the
//!   fused MHA kernel pipelines head-wise.
//!
//! # Example
//!
//! ```
//! use looplynx_tensor::matrix::Matrix;
//! use looplynx_tensor::quant::quantize_vec;
//! use looplynx_tensor::linear::QuantLinear;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let w = Matrix::from_fn(4, 8, |r, c| ((r + c) as f32 - 5.0) / 10.0);
//! let lin = QuantLinear::from_f32(&w, &[0.0; 4])?;
//! let x = quantize_vec(&[0.25; 8]);
//! let y = lin.forward(&x);
//! assert_eq!(y.len(), 4);
//! # Ok(())
//! # }
//! ```

#![deny(unsafe_op_in_unsafe_fn)]
#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod activation;
mod amx;
pub mod error;
pub mod linear;
pub mod matrix;
pub mod mmap;
pub mod norm;
pub mod quant;
pub mod simd;

pub use error::ShapeError;
pub use linear::QuantLinear;
pub use matrix::Matrix;
pub use quant::{QuantizedMatrix, QuantizedVector};
