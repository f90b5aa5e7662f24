//! Quickstart: simulate the paper's flagship configuration and run real
//! tokens through the functional model.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use looplynx::core::engine::DistributedGpt2;
use looplynx::core::router::RingMode;
use looplynx::core::{ArchConfig, LoopLynx};
use looplynx::model::gpt2::Gpt2Model;
use looplynx::model::tokenizer::ByteTokenizer;
use looplynx::model::{Autoregressive, ModelConfig, Sampler};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- 1. Cycle-accurate timing of GPT-2 (345M) on a dual-node U50 ----
    let arch = ArchConfig::builder().nodes(2).build()?;
    println!("architecture: {arch}");
    let engine = LoopLynx::new(ModelConfig::gpt2_medium(), arch)?;
    let report = engine.simulate_generation(32, 64);
    println!("simulated [32:64] generation: {report}");
    println!(
        "  breakdown: {} ({}ms prefill + {}ms decode)",
        report.breakdown,
        report.prefill_ms.round(),
        report.decode_ms.round()
    );

    // --- 1b. How the hybrid schedule occupies the kernels -----------------
    // One decode token's kernel activations (first layer shown): the MP
    // kernel is reused for every linear layer — the "temporal" half of the
    // hybrid design.
    let timing = engine.scheduler().schedule_rows(&[64], true);
    let first_layer: looplynx::sim::trace::Trace = timing
        .trace
        .spans()
        .iter()
        .filter(|s| s.label.starts_with("L0."))
        .cloned()
        .collect();
    println!("\nkernel occupancy across one transformer block (one decode token):");
    print!("{}", first_layer.render_gantt(72));

    // --- 2. Functional W8A8 inference, distributed over the same ring ---
    // (tiny synthetic model so the example runs in milliseconds; the
    // timing above depends only on tensor shapes)
    let cfg = ModelConfig::tiny();
    let reference = Gpt2Model::synthetic(&cfg, 42);
    let mut dist = DistributedGpt2::new(&reference, 2, RingMode::Exact)?;

    let tok = ByteTokenizer::new();
    let prompt = tok.encode("Earth is the");
    let generated = dist.generate(&prompt, 12, &mut Sampler::greedy());
    println!(
        "functional 2-node generation ({} prompt tokens -> {} generated): {:?}",
        prompt.len(),
        generated.len(),
        tok.decode(&generated)
    );

    // The distributed result is bit-identical to a single-node run.
    let mut single = reference.clone();
    let expected = single.generate(&prompt, 12, &mut Sampler::greedy());
    assert_eq!(generated, expected, "ring-parallel inference must match");
    println!("distributed output verified against the single-node reference ✓");
    Ok(())
}
