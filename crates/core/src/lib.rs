//! # looplynx-core — the LoopLynx architecture
//!
//! The paper's primary contribution: a hybrid spatial–temporal dataflow
//! accelerator for LLM inference, scalable across multiple FPGAs through a
//! ring network.
//!
//! * [`config`] — architecture configuration ([`ArchConfig`]): ring size,
//!   HBM channel allocation, `n_group`, burst, prefill batch and the three
//!   optimization flags of Section III-C; the paper's fixed design values
//!   (clock, KV channels, FIFO depth, lanes) are constants beside it.
//! * [`kernels`] — the macro dataflow kernels (fused MP, fused MHA, fused
//!   LN&Res), each a cycle-accurate timing model.
//! * [`host`] — the host's per-token embed / PCIe / sample cost.
//! * [`scheduler`] — the state machine that *temporally reuses* the fused
//!   kernels across the stages of every transformer block (the hybrid in
//!   "hybrid spatial–temporal").
//! * [`router`] — the simplex ring router with node-id offsets.
//! * [`parallel`] — Megatron-style output-dimension weight sharding and
//!   head-wise KV partitioning.
//! * [`engine`] — the end-to-end engine ([`LoopLynx`]): timing simulation
//!   of full generations, energy accounting, and functionally-correct
//!   distributed inference.
//! * [`latency`] — latency breakdown buckets (paper Fig. 5).
//! * [`energy`] — per-token energy model.
//! * [`backend`] — the fallible serving contract
//!   ([`backend::InferenceBackend`], [`backend::BackendError`]) over the
//!   sim and functional substrates.
//! * [`fault`] — deterministic chaos: seeded [`fault::FaultPlan`]s applied
//!   by [`fault::FaultyBackend`] to any backend.
//!
//! # Example
//!
//! ```
//! use looplynx_core::{ArchConfig, LoopLynx};
//! use looplynx_model::ModelConfig;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let arch = ArchConfig::builder().nodes(2).build()?;
//! let engine = LoopLynx::new(ModelConfig::gpt2_medium(), arch)?;
//! let report = engine.simulate_generation(32, 64);
//! println!("{:.2} ms/token", report.decode_ms_per_token());
//! # Ok(())
//! # }
//! ```

#![deny(unsafe_op_in_unsafe_fn)]
#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod backend;
pub mod config;
pub mod energy;
pub mod engine;
pub mod fault;
pub mod host;
pub mod kernels;
pub mod latency;
pub mod memory;
pub mod parallel;
pub mod pool;
pub mod router;
pub mod scheduler;

pub use config::{ArchConfig, ArchConfigBuilder, ConfigError, OptimizationFlags};
pub use engine::{GenerationReport, LoopLynx};
pub use latency::LatencyBreakdown;
