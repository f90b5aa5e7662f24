//! Oversubscription at equal arena bytes: a paged KV pool admits as many
//! short requests as its pages hold, where a fixed-stride arena of the
//! same bytes is capped at `bytes / capacity` residents.
//!
//! Both sides serve the same burst of 16 short requests (8 prompt + 8
//! output tokens, one 16-token page each) through the continuous batcher
//! with a batch ceiling of 16. The fixed-stride side reserves the tiny
//! model's full 64-token context per slot, so its 256-token arena holds 4
//! slots. The paged side spends the same 256 tokens as 16 pages of 16.
//! Peak resident requests are counts, so the test pins them exactly.

use looplynx_core::backend::{FunctionalBackend, SamplerSpec};
use looplynx_core::engine::DistributedGpt2;
use looplynx_core::router::RingMode;
use looplynx_model::config::ModelConfig;
use looplynx_model::gpt2::Gpt2Model;
use looplynx_serve::{serve_continuous_on, ArrivalProcess};

const CAPACITY: usize = 64;
const FIXED_SLOTS: usize = 4;
const PAGE_TOKENS: usize = 16;
const PAGED_SLOTS: usize = 16;
const ARENA_TOKENS: usize = FIXED_SLOTS * CAPACITY;
const POOL_PAGES: usize = ARENA_TOKENS / PAGE_TOKENS;
const REQUESTS: usize = 16;

/// Peak resident requests when `engine` serves the burst; every request
/// must complete.
fn peak_resident(model: &Gpt2Model, engine: DistributedGpt2) -> f64 {
    let workload = ArrivalProcess::Trace(vec![0.0; REQUESTS]).workload_with_prompts(
        REQUESTS,
        &[(8, 8)],
        model.config().vocab,
        0x9A6E,
    );
    let mut backend = FunctionalBackend::new(engine, SamplerSpec::Greedy);
    let report = serve_continuous_on(&mut backend, &workload, PAGED_SLOTS);
    assert_eq!(report.completed(), REQUESTS, "the burst dropped requests");
    report.batch_occupancy.max().expect("the burst decoded")
}

#[test]
fn page_pressure_quadruples_resident_concurrency() {
    let cfg = ModelConfig::tiny();
    assert_eq!(
        cfg.max_seq, CAPACITY,
        "one fixed slot reserves a full context"
    );
    assert_eq!(POOL_PAGES * PAGE_TOKENS, ARENA_TOKENS, "equal arena bytes");
    let model = Gpt2Model::synthetic(&cfg, 4207);

    let fixed = DistributedGpt2::with_slots(&model, 1, RingMode::Exact, FIXED_SLOTS, CAPACITY)
        .expect("tiny model partitions");
    let paged = DistributedGpt2::with_paged_slots(
        &model,
        1,
        RingMode::Exact,
        PAGED_SLOTS,
        CAPACITY,
        PAGE_TOKENS,
        POOL_PAGES,
    )
    .expect("tiny model partitions");

    assert_eq!(peak_resident(&model, fixed), FIXED_SLOTS as f64);
    assert_eq!(peak_resident(&model, paged), POOL_PAGES as f64);
}
