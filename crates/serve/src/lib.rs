//! # looplynx-serve — multi-request serving layer
//!
//! The LoopLynx paper evaluates single-generation latency; a deployed
//! accelerator serves a *stream* of requests. This crate adds the serving
//! tier, generic over the execution substrate
//! ([`looplynx_core::backend::InferenceBackend`]): the same schedulers
//! drive the cycle-accurate [`looplynx_core::engine::LoopLynx`] timing
//! engine (scheduling studies, paper reproduction) and the functional
//! W8A8 [`looplynx_core::engine::DistributedGpt2`] pipeline (real tokens,
//! measured host throughput).
//!
//! * [`arrival`] — offered-load generators: Poisson, bursty, and
//!   fixed-trace arrival processes (with or without real prompt tokens).
//! * [`request`] — requests and per-request latency records (TTFT, TPOT,
//!   end-to-end).
//! * [`gateway`] — the one serving loop ([`gateway::serve_gateway_on`]):
//!   continuous batching (requests join the decode loop between
//!   iterations and share every weight pass) with per-request deadlines
//!   and cancellation, bounded-queue admission control with load
//!   shedding, preemption under KV page pressure, retry with exponential
//!   backoff, and exactly-one-terminal-state accounting
//!   ([`gateway::Terminal`]) for every offered request.
//! * [`batcher`] — fair-weather presets of that loop returning a plain
//!   [`metrics::ServingReport`]: [`batcher::serve_continuous_on`], its
//!   sim-pinned wrapper, and [`batcher::serve_sequential`] (the
//!   one-request-at-a-time baseline, a batch ceiling of one).
//! * [`metrics`] — [`metrics::ServingReport`]: throughput, p50/p95/p99
//!   latency percentiles via [`looplynx_sim::stats::Percentiles`], and —
//!   on token-producing backends — every request's generated tokens.
//!
//! # Example
//!
//! ```
//! use looplynx_core::config::ArchConfig;
//! use looplynx_core::engine::LoopLynx;
//! use looplynx_model::config::ModelConfig;
//! use looplynx_serve::{serve_continuous, ArrivalProcess, ServeConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let engine = LoopLynx::new(
//!     ModelConfig::gpt2_medium(),
//!     ArchConfig::builder().nodes(2).build()?,
//! )?;
//! let workload = ArrivalProcess::Poisson { rate_per_s: 8.0, seed: 1 }
//!     .workload(16, &[(32, 16)]);
//! let report = serve_continuous(&engine, &workload, &ServeConfig::default());
//! assert_eq!(report.completed(), 16);
//! assert!(report.ttft_ms.p99().is_some());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod arrival;
pub mod batcher;
pub mod gateway;
pub mod metrics;
pub mod request;

pub use arrival::ArrivalProcess;
pub use batcher::{serve_continuous, serve_continuous_on, serve_sequential, ServeConfig};
pub use gateway::{
    serve_gateway_on, EvictPolicyKind, GatewayConfig, GatewayReport, GatewayRequest, RejectReason,
    ShedPolicy, Terminal, TimeoutPhase,
};
pub use metrics::{GeneratedOutput, ServingReport};
pub use request::{Request, RequestMetrics};
