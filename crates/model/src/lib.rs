//! # looplynx-model — functional GPT-2 substrate
//!
//! A self-contained, auto-regressive GPT-2 implementation running under the
//! W8A8 quantization scheme of the LoopLynx paper: int8 weights and
//! activations with 32-bit accumulation for every linear layer and for the
//! attention score / token-mixing MACs, f32 for the critical-path operators
//! (layernorm, residual, softmax) exactly as the accelerator partitions the
//! work between its integer MAC hardware and its float units.
//!
//! The paper evaluates the GPT-2 (345M) model; checkpoints are not
//! available offline, so weights are *synthetic* (seeded, reproducible —
//! see [`weights`]). All latency/energy results depend only on tensor
//! shapes, never on weight values; functional tests use small configs where
//! the integer pipeline can be compared against an f32 reference.
//!
//! * [`config`] — model hyper-parameters and derived byte counts.
//! * [`weights`] — seeded synthetic weight generation.
//! * [`checkpoint`] — on-disk quantized checkpoints with a page-aligned
//!   tensor arena, loaded zero-copy through `mmap`.
//! * [`kv_cache`] — the contiguous single-sequence quantized key/value
//!   cache ([`kv_cache::KvCache`]), the reference model's store.
//! * [`paged`] — the paged (block-table) KV allocator
//!   ([`paged::PagedKvArena`]), the only multi-sequence store: fixed-size
//!   pages granted on demand, so resident concurrency is bounded by
//!   *actual* context, not worst-case.
//! * [`prefix`] — content-addressed prefix index over paged KV
//!   ([`prefix::PrefixIndex`]): hash-chained page identities so repeated
//!   prompt prefixes share cached pages instead of re-prefilling.
//! * [`attention`] — causal multi-head attention over the cache.
//! * [`block`] — one transformer block (single-token and batched-prefill
//!   paths).
//! * [`gpt2`] — the end-to-end single-sequence reference model: prefill
//!   (token by token or batched) and decode.
//! * [`generate`] — the [`generate::Autoregressive`] trait and the one
//!   shared generation driver.
//! * [`sampler`] — greedy and top-k sampling.
//! * [`tokenizer`] — byte-level tokenizer.
//!
//! # Example
//!
//! ```
//! use looplynx_model::config::ModelConfig;
//! use looplynx_model::generate::Autoregressive;
//! use looplynx_model::gpt2::Gpt2Model;
//! use looplynx_model::sampler::Sampler;
//!
//! let cfg = ModelConfig::tiny();
//! let mut model = Gpt2Model::synthetic(&cfg, 42);
//! let out = model.generate(&[1, 2, 3], 4, &mut Sampler::greedy());
//! assert_eq!(out.len(), 4);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod attention;
pub mod block;
pub mod checkpoint;
pub mod config;
pub mod eval;
pub mod generate;
pub mod gpt2;
pub mod kv_cache;
pub mod paged;
pub mod prefix;
pub mod sampler;
pub mod tokenizer;
pub mod weights;

pub use config::ModelConfig;
pub use generate::Autoregressive;
pub use gpt2::Gpt2Model;
pub use paged::{PagedKvArena, PagesExhausted};
pub use sampler::Sampler;
