//! Integration tests for the reproduction's extensions: batched prefill,
//! the host/PCIe overhead model, and HBM capacity budgeting.

use looplynx::core::host::HostModel;
use looplynx::core::memory::hbm_budget;
use looplynx::core::{ArchConfig, LoopLynx};
use looplynx::model::eval::Perplexity;
use looplynx::model::gpt2::Gpt2Model;
use looplynx::model::ModelConfig;

#[test]
fn batched_prefill_monotone_in_batch() {
    let model = ModelConfig::gpt2_medium();
    let mut last = f64::INFINITY;
    for batch in [1usize, 2, 4, 8, 16] {
        let arch = ArchConfig::builder()
            .nodes(2)
            .prefill_batch(batch)
            .build()
            .expect("valid");
        let engine = LoopLynx::new(model.clone(), arch).expect("partitions");
        let prefill_ms = engine.simulate_generation(64, 2).prefill_ms;
        assert!(
            prefill_ms <= last + 1e-9,
            "batch {batch} regressed: {prefill_ms} vs {last}"
        );
        last = prefill_ms;
    }
}

#[test]
fn batched_prefill_beats_a100_at_prefill_heavy_setting() {
    // The extension's headline: with batch 16 the [128:32] loss flips.
    let model = ModelConfig::gpt2_medium();
    let gpu = looplynx::baselines::gpu::A100Model::paper_baseline().generation(&model, 128, 32);
    let arch = ArchConfig::builder()
        .nodes(2)
        .prefill_batch(16)
        .build()
        .expect("valid");
    let fpga = LoopLynx::new(model, arch)
        .expect("partitions")
        .simulate_generation(128, 32);
    assert!(
        fpga.total_ms() < gpu.total_ms,
        "batched FPGA {} vs A100 {}",
        fpga.total_ms(),
        gpu.total_ms
    );
}

#[test]
fn functional_batched_prefill_equals_sequential_everywhere() {
    let cfg = ModelConfig::tiny();
    for seed in [3u64, 17, 99] {
        let mut seq = Gpt2Model::synthetic(&cfg, seed);
        let mut bat = Gpt2Model::synthetic(&cfg, seed);
        let prompt: Vec<u32> = (0..10)
            .map(|i| (i * 29 + seed as usize) as u32 % 256)
            .collect();
        assert_eq!(
            seq.prefill(&prompt),
            bat.prefill_batched(&prompt),
            "seed {seed}"
        );
    }
}

#[test]
fn host_overhead_grows_with_vocab_and_dominates_for_decode() {
    let h = HostModel::paper();
    let tiny = h.token_overhead_us(&ModelConfig::tiny(), true);
    let medium = h.token_overhead_us(&ModelConfig::gpt2_medium(), true);
    assert!(medium > tiny, "logit upload should scale with vocab");
    let no_logits = h.token_overhead_us(&ModelConfig::gpt2_medium(), false);
    assert!(medium > 3.0 * no_logits);
}

#[test]
fn hbm_budget_fits_paper_configurations() {
    for nodes in [1usize, 2, 4] {
        let arch = ArchConfig::builder().nodes(nodes).build().expect("valid");
        let b = hbm_budget(&arch, &ModelConfig::gpt2_medium(), 1024);
        assert!(b.fits(), "{nodes}-node budget: {b}");
    }
}

#[test]
fn hbm_budget_catches_oversized_deployments() {
    // A hypothetical 100-layer, d=4096 model on a single node would carry
    // ~13 GB of int8 weights — more than the U50's 8 GB.
    let huge = ModelConfig {
        name: "huge".into(),
        layers: 100,
        d_model: 4096,
        heads: 32,
        d_ff: 16384,
        vocab: 50257,
        max_seq: 1024,
    };
    let arch = ArchConfig::builder().nodes(1).build().expect("valid");
    let b = hbm_budget(&arch, &huge, 1024);
    assert!(!b.fits(), "a 13 GB model cannot fit 8 GB of HBM: {b}");
    // ... but sharding across 8 nodes brings it under budget
    let arch8 = ArchConfig::builder().nodes(8).build().expect("valid");
    assert!(hbm_budget(&arch8, &huge, 1024).fits());
}

#[test]
fn perplexity_api_round_trips_through_facade() {
    let cfg = ModelConfig::tiny();
    let mut m = Gpt2Model::synthetic(&cfg, 123);
    let tokens: Vec<u32> = (0..20).map(|i| (i * 7 % 256) as u32).collect();
    let mut ppl = Perplexity::new();
    let mut logits = m.prefill(&tokens[..1]);
    for &next in &tokens[1..] {
        ppl.add(&logits, next);
        logits = m.decode_step(next);
    }
    assert!(ppl.perplexity() > 1.0);
    assert!(ppl.cross_entropy() > 0.0);
}
