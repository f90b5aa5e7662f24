//! Workspace-wiring smoke test.
//!
//! Exercises the default configuration end-to-end through the facade
//! crate: construct `ArchConfig` + `ModelConfig` defaults, run one
//! prefill and one decode token through `LoopLynx`, and assert a
//! non-empty `LatencyBreakdown`. If a future manifest or dependency
//! change breaks the crate graph (facade → core → {model, sim, tensor,
//! hw}), this is the first test to fail.

use looplynx::core::{ArchConfig, LoopLynx};
use looplynx::model::ModelConfig;

#[test]
fn default_configs_drive_one_token_through_the_engine() {
    let arch = ArchConfig::paper();
    let model = ModelConfig::gpt2_medium();
    let engine = LoopLynx::new(model, arch).expect("paper defaults must partition");

    let prefill = engine.scheduler().schedule_rows(&[1], true);
    let decode = engine.scheduler().schedule_rows(&[2], true);

    for (phase, timing) in [("prefill", &prefill), ("decode", &decode)] {
        let b = &timing.breakdown;
        assert!(
            b.total().as_u64() > 0,
            "{phase} breakdown must be non-empty, got {b:?}"
        );
        assert!(
            b.linear.as_u64() > 0 && b.critical_path.as_u64() > 0,
            "{phase} must exercise both the MP kernel and the critical path: {b:?}"
        );
    }
}

#[test]
fn default_configs_drive_a_short_generation() {
    let arch = ArchConfig::paper();
    let engine = LoopLynx::new(ModelConfig::gpt2_medium(), arch).expect("partitions");
    let report = engine.simulate_generation(4, 2);
    assert_eq!(report.prefill_tokens, 4);
    assert_eq!(report.decode_tokens, 2);
    assert!(report.breakdown.total().as_u64() > 0);
    assert!(report.total_ms() > 0.0);
    assert!(report.energy.joules > 0.0);
}
