//! The model fixture and the timed engine set-up every rep repeats.

use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

use looplynx_core::backend::{FunctionalBackend, InferenceBackend, SamplerSpec};
use looplynx_core::engine::DistributedGpt2;
use looplynx_core::router::RingMode;
use looplynx_model::checkpoint;
use looplynx_model::config::ModelConfig;
use looplynx_model::gpt2::Gpt2Model;

use crate::workloads::{Spec, PAGE_TOKENS};

/// Vocabulary of the benchmark model.
pub const VOCAB: usize = 4096;

/// Per-slot KV capacity in every benchmark engine (the model's `max_seq`).
pub const MAX_SEQ: usize = 512;

/// Seed of the synthetic weights — fixed, so `--seed` never reaches the
/// program except through the requests.
const WEIGHT_SEED: u64 = 4207;

/// `medium-shaped` (gpt2-medium's per-layer geometry, 4 layers, small
/// vocabulary) with `max_seq` raised so four chat turns fit.
pub fn model_config() -> ModelConfig {
    ModelConfig {
        name: "medium-shaped".into(),
        layers: 4,
        d_model: 1024,
        heads: 16,
        d_ff: 4096,
        vocab: VOCAB,
        max_seq: MAX_SEQ,
    }
}

/// The synthesized model saved as a checkpoint file. The file is kept
/// and reused by later runs in the same checkout: synthesis costs seconds
/// that every one of the driver's runs would otherwise pay again.
#[derive(Debug)]
pub struct Fixture {
    path: PathBuf,
    /// Seconds spent synthesizing and saving (0 when an earlier run's file
    /// was reused) — untimed set-up, reported as run metadata only.
    pub fixture_s: f64,
}

impl Fixture {
    /// Opens the checkpoint of `cfg` under `dir`, synthesizing and saving
    /// it first if no earlier run left a loadable one there.
    ///
    /// # Errors
    ///
    /// Any I/O error from creating the directory or writing the file.
    pub fn open_or_create(dir: &Path, cfg: &ModelConfig) -> io::Result<Self> {
        let start = Instant::now();
        let path = dir.join(format!("fixture-{WEIGHT_SEED}.llxckpt"));
        if checkpoint::load_model(&path).is_ok_and(|m| m.config() == cfg) {
            return Ok(Fixture {
                path,
                fixture_s: 0.0,
            });
        }
        std::fs::create_dir_all(dir)?;
        // Written under a private name and renamed, so a concurrent run
        // never loads a half-written file.
        let partial = dir.join(format!("fixture-{}.partial", std::process::id()));
        let model = Gpt2Model::synthetic(cfg, WEIGHT_SEED);
        checkpoint::save(cfg, model.weights(), &partial)?;
        std::fs::rename(&partial, &path)?;
        Ok(Fixture {
            path,
            fixture_s: start.elapsed().as_secs_f64(),
        })
    }

    /// Loads the checkpoint (mmap-backed where the platform allows).
    ///
    /// # Panics
    ///
    /// Panics if the file this process just wrote does not load.
    pub fn load(&self) -> Gpt2Model {
        checkpoint::load_model(&self.path).expect("fixture checkpoint loads")
    }

    /// Builds a fresh paged engine over the checkpoint with the prefix
    /// cache on: greedy sampling, default attention mode, the engine's own
    /// worker-pool heuristic.
    ///
    /// # Panics
    ///
    /// Panics if the benchmark model does not partition over `nodes`.
    pub fn engine(&self, nodes: usize, slots: usize, pool_pages: usize) -> DistributedGpt2 {
        let mut engine = DistributedGpt2::with_paged_slots(
            &self.load(),
            nodes,
            RingMode::Exact,
            slots,
            MAX_SEQ,
            PAGE_TOKENS,
            pool_pages,
        )
        .expect("benchmark model partitions over the ring");
        engine.enable_prefix_cache();
        engine
    }

    /// The timed set-up of one rep: checkpoint load, engine build, cache
    /// enable and one warm-up request. Returns the backend and the
    /// seconds it took.
    ///
    /// # Panics
    ///
    /// Panics if the warm-up request fails — nothing can be measured then.
    pub fn backend(&self, spec: &Spec) -> (FunctionalBackend, f64) {
        let start = Instant::now();
        let engine = self.engine(spec.nodes, spec.slots, spec.pool_pages);
        let mut backend = FunctionalBackend::new(engine, SamplerSpec::Greedy);
        warm_up(&mut backend);
        (backend, start.elapsed().as_secs_f64())
    }
}

/// One short request straight through the backend: touches every weight
/// page and spins up the worker pool before anything is timed.
fn warm_up<B: InferenceBackend>(backend: &mut B) {
    let prompt: Vec<u32> = (1..=PAGE_TOKENS as u32).collect();
    let admitted = backend
        .prefill(prompt.len(), Some(&prompt), 0)
        .expect("warm-up prefill");
    for _ in 0..3 {
        backend
            .decode_batch(&[admitted.slot])
            .expect("warm-up decode");
    }
    backend.release(admitted.slot).expect("warm-up release");
}

/// Where the benchmark writes: `benchmark/` under cargo's target
/// directory, which the root `.gitignore` already covers.
pub fn out_dir() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    target.join("benchmark")
}
