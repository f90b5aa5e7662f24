//! # looplynx-sim — cycle-accurate dataflow simulation substrate
//!
//! This crate provides the measurement instrument used throughout the
//! LoopLynx reproduction: a set of composable, cycle-accurate timing models
//! for FPGA dataflow designs.
//!
//! The LoopLynx paper (DATE 2025) evaluates its accelerator with
//! *cycle-accurate simulation* that accounts for per-channel HBM bandwidth
//! (peak 8.49 GB/s) and ring-network bandwidth (peak 8.49 GB/s). This crate
//! rebuilds that instrument from first principles:
//!
//! * [`time`] — strongly-typed cycle counts and clock domains.
//! * [`engine`] — a small discrete-event simulation core used where
//!   component interleaving matters (e.g. the ring routers).
//! * [`pipeline`] — a pipeline timing calculator implementing the classic
//!   initiation-interval / latency / FIFO-capacity recurrences (the paper's
//!   kernels are "connected via FIFOs", Section III-D); this is what makes
//!   each macro dataflow kernel cycle-accurate without simulating every
//!   clock edge. [`des_pipeline`] re-derives the same makespans event by
//!   event, the cross-check of the closed form.
//! * [`hbm`] — one burst-mode high-bandwidth-memory channel.
//! * [`net`] — ring-network links and all-gather timing.
//! * [`stats`] — sample summaries and exact percentiles for the serving
//!   layer's latency tails.
//! * [`trace`] — Gantt-style kernel-activation traces.
//!
//! # Example
//!
//! Computing the makespan of a three-stage dataflow pipeline processing
//! 16 items:
//!
//! ```
//! use looplynx_sim::pipeline::{PipelineSpec, StageSpec};
//!
//! let spec = PipelineSpec::new(vec![
//!     StageSpec::new("load", 4, 2),
//!     StageSpec::new("mac", 8, 4),
//!     StageSpec::new("store", 2, 2),
//! ]);
//! let run = spec.evaluate_uniform(16);
//! assert!(run.makespan().as_u64() > 0);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod des_pipeline;
pub mod engine;
pub mod hbm;
pub mod net;
pub mod pipeline;
pub mod stats;
pub mod time;
pub mod trace;

pub use hbm::HbmChannel;
pub use net::RingSpec;
pub use pipeline::{PipelineRun, PipelineSpec, StageSpec};
pub use time::{Cycles, Frequency};
