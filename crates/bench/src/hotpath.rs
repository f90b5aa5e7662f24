//! Wall-clock hot-path benchmark: functional prefill/decode throughput.
//!
//! Unlike the cycle-accurate experiments (which *simulate* the
//! accelerator), this module measures how fast the host actually executes
//! the functional W8A8 engine — the code path whose memory layout and
//! kernel blocking the hot-path overhaul targets. It times:
//!
//! * prefill tokens/s and decode tokens/s of [`DistributedGpt2`] at
//!   1/2/4 ring nodes, on [`ModelConfig::tiny`] and a
//!   [`medium_shaped`] config (gpt2-medium per-layer geometry with fewer
//!   layers and a small vocabulary so the run stays CI-sized);
//! * the wall-clock of one saturation-rate offered-load sweep cell
//!   (the `serve_sweep` hot loop, which is simulator-bound).
//!
//! The `hotpath` binary renders the report as `BENCH_hotpath.json`,
//! embedding the pre-overhaul baseline ([`BASELINE`]) so every future run
//! reports its speedup against the state of the tree before the arena /
//! blocked-GEMM / threading changes landed.

use std::time::Instant;

use looplynx_core::engine::DistributedGpt2;
use looplynx_core::router::RingMode;
use looplynx_model::config::ModelConfig;
use looplynx_model::gpt2::Gpt2Model;

use crate::experiments;
use crate::report::{best_of, fields, Json};

/// Ring sizes measured.
pub const NODE_COUNTS: [usize; 3] = [1, 2, 4];

/// Decode tokens/s of the **pre-overhaul** tree (nested-Vec KV cache,
/// unblocked GEMM, sequential node loop), measured on this repo at the
/// commit immediately before the hot-path overhaul with
/// `hotpath --quick`. Pinned here so `BENCH_hotpath.json` always carries
/// the before/after comparison the overhaul is judged by.
pub const BASELINE: Baseline = Baseline {
    captured_at: "pre-overhaul (best of 3 quick runs before PR 4 landed)",
    tiny_decode_tok_s_1node: 20_693.0,
    tiny_prefill_tok_s_1node: 26_321.0,
    medium_decode_tok_s_1node: 67.99,
};

/// Pre-change reference numbers baked into the report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Baseline {
    /// Where the numbers come from.
    pub captured_at: &'static str,
    /// Decode tokens/s, `ModelConfig::tiny()`, 1 node.
    pub tiny_decode_tok_s_1node: f64,
    /// Prefill tokens/s, `ModelConfig::tiny()`, 1 node.
    pub tiny_prefill_tok_s_1node: f64,
    /// Decode tokens/s, [`medium_shaped`], 1 node.
    pub medium_decode_tok_s_1node: f64,
}

/// One measured phase at one ring size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhasePoint {
    /// Ring size.
    pub nodes: usize,
    /// Tokens processed in the timed region.
    pub tokens: usize,
    /// Wall-clock seconds of the timed region.
    pub wall_s: f64,
}

impl PhasePoint {
    /// Throughput in tokens per second (0.0 for a degenerate measurement).
    pub fn tokens_per_second(&self) -> f64 {
        if self.wall_s <= 0.0 {
            return 0.0;
        }
        self.tokens as f64 / self.wall_s
    }
}

/// Hot-path measurements of one model configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelHotpath {
    /// Config name (`tiny`, `medium-shaped`).
    pub model: String,
    /// Prefill tokens/s per ring size.
    pub prefill: Vec<PhasePoint>,
    /// Decode tokens/s per ring size.
    pub decode: Vec<PhasePoint>,
}

impl ModelHotpath {
    /// Decode tokens/s at the given ring size (0.0 if not measured).
    pub fn decode_tok_s(&self, nodes: usize) -> f64 {
        self.decode
            .iter()
            .find(|p| p.nodes == nodes)
            .map_or(0.0, PhasePoint::tokens_per_second)
    }
}

/// The full hot-path report.
#[derive(Debug, Clone, PartialEq)]
pub struct HotpathReport {
    /// Per-model prefill/decode measurements.
    pub models: Vec<ModelHotpath>,
    /// Wall-clock seconds of one saturation offered-load sweep cell.
    pub serve_sweep_wall_s: f64,
    /// Whether the run used the reduced `--quick` workload.
    pub quick: bool,
}

/// A config with gpt2-medium's per-layer geometry (d=1024, 16 heads,
/// d_ff=4096) but few layers and a small vocabulary, so the benchmark
/// exercises realistic GEMV/GEMM/attention shapes without a 355 MB weight
/// build.
pub fn medium_shaped() -> ModelConfig {
    ModelConfig {
        name: "medium-shaped".into(),
        layers: 4,
        d_model: 1024,
        heads: 16,
        d_ff: 4096,
        vocab: 4096,
        max_seq: 256,
    }
}

/// Measures prefill and decode throughput of `cfg` at each ring size.
///
/// `prefill_tokens` tokens are prefilled in the timed prefill region,
/// then `decode_tokens` decode steps are timed. One untimed warm-up
/// generation runs first at each ring size, then the timed repetitions;
/// each phase reports its best one ([`best_of`]).
pub fn measure_model(
    cfg: &ModelConfig,
    prefill_tokens: usize,
    decode_tokens: usize,
) -> ModelHotpath {
    assert!(
        prefill_tokens + decode_tokens <= cfg.max_seq,
        "workload exceeds max_seq"
    );
    let reference = Gpt2Model::synthetic(cfg, 4207);
    let prompt: Vec<u32> = (0..prefill_tokens)
        .map(|i| (i * 31 % cfg.vocab.min(256)) as u32)
        .collect();
    let mut prefill = Vec::new();
    let mut decode = Vec::new();
    for nodes in NODE_COUNTS {
        let mut eng =
            DistributedGpt2::new(&reference, nodes, RingMode::Exact).expect("partitionable");
        // Warm-up: touch every weight shard and the allocator once.
        eng.prefill(&prompt[..prefill_tokens.min(4)]);

        let (best_prefill, best_decode) = best_of(
            || {
                eng.reset();
                let t0 = Instant::now();
                let mut logits = eng.prefill(&prompt);
                let prefill_s = t0.elapsed().as_secs_f64();

                let t1 = Instant::now();
                for _ in 0..decode_tokens {
                    // Greedy-ish deterministic feedback, no sampler overhead.
                    let next = (logits[0].abs() as usize % cfg.vocab.min(256)) as u32;
                    logits = eng.decode_step(next);
                }
                (prefill_s, t1.elapsed().as_secs_f64())
            },
            |a, b| (a.0.min(b.0), a.1.min(b.1)),
        );
        prefill.push(PhasePoint {
            nodes,
            tokens: prefill_tokens,
            wall_s: best_prefill,
        });
        decode.push(PhasePoint {
            nodes,
            tokens: decode_tokens,
            wall_s: best_decode,
        });
    }
    ModelHotpath {
        model: cfg.name.clone(),
        prefill,
        decode,
    }
}

/// Runs the full hot-path benchmark. `quick` shrinks the workload to a
/// CI-friendly size (same shapes, fewer tokens/requests).
pub fn measure(quick: bool) -> HotpathReport {
    let tiny = ModelConfig::tiny();
    let (tiny_prefill, tiny_decode) = (24, 39);
    let models = if quick {
        vec![
            measure_model(&tiny, tiny_prefill, tiny_decode),
            measure_model(&medium_shaped(), 8, 8),
        ]
    } else {
        vec![
            measure_model(&tiny, tiny_prefill, tiny_decode),
            measure_model(&medium_shaped(), 32, 32),
        ]
    };
    let requests = if quick { 8 } else { 32 };
    let t0 = Instant::now();
    let _ = experiments::offered_load_sweep_with(
        &ModelConfig::gpt2_medium(),
        &[1, 2, 4],
        &[20.0],
        requests,
        8,
    );
    HotpathReport {
        models,
        serve_sweep_wall_s: t0.elapsed().as_secs_f64(),
        quick,
    }
}

/// The report (plus the pinned [`BASELINE`]) as a JSON document.
pub fn to_json(report: &HotpathReport) -> Json {
    let points = |points: &[PhasePoint]| {
        Json::arr(points, |p| {
            let mut point = fields![p; nodes, tokens, wall_s];
            point.push(("tok_per_s", p.tokens_per_second().into()));
            Json::Obj(point)
        })
    };
    let models = Json::arr(&report.models, |m| {
        Json::Obj(vec![
            ("model", m.model.as_str().into()),
            ("prefill", points(&m.prefill)),
            ("decode", points(&m.decode)),
        ])
    });
    let tiny_decode = report
        .models
        .iter()
        .find(|m| m.model == "tiny")
        .map_or(0.0, |m| m.decode_tok_s(1));
    let speedup = tiny_decode / BASELINE.tiny_decode_tok_s_1node;
    let baseline = fields![
        BASELINE; captured_at, tiny_prefill_tok_s_1node, tiny_decode_tok_s_1node,
        medium_decode_tok_s_1node
    ];
    Json::Obj(vec![
        ("baseline", Json::Obj(baseline)),
        ("quick", report.quick.into()),
        ("models", models),
        ("tiny_decode_speedup_vs_baseline", speedup.into()),
        ("serve_sweep_wall_s", report.serve_sweep_wall_s.into()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_measurement_produces_positive_rates() {
        let m = measure_model(&ModelConfig::tiny(), 8, 8);
        assert_eq!(m.prefill.len(), NODE_COUNTS.len());
        assert_eq!(m.decode.len(), NODE_COUNTS.len());
        for p in m.prefill.iter().chain(&m.decode) {
            assert!(p.tokens_per_second() > 0.0, "degenerate point {p:?}");
        }
    }

    #[test]
    fn json_is_wellformed_enough() {
        let report = HotpathReport {
            models: vec![ModelHotpath {
                model: "tiny".into(),
                prefill: vec![PhasePoint {
                    nodes: 1,
                    tokens: 8,
                    wall_s: 0.5,
                }],
                decode: vec![PhasePoint {
                    nodes: 1,
                    tokens: 8,
                    wall_s: 0.25,
                }],
            }],
            serve_sweep_wall_s: 1.0,
            quick: true,
        };
        let j = to_json(&report);
        // What CI's gate reads.
        assert!(matches!(j.get("models"), Some(Json::Arr(models)) if models.len() == 1));
        let text = j.render();
        assert!(text.contains("\"baseline\""));
        assert!(text.contains("\"tok_per_s\": 32.0000"));
    }

    #[test]
    fn medium_shaped_matches_gpt2_medium_geometry() {
        let m = medium_shaped();
        let full = ModelConfig::gpt2_medium();
        assert_eq!(m.d_model, full.d_model);
        assert_eq!(m.heads, full.heads);
        assert_eq!(m.d_ff, full.d_ff);
        assert!(m.weights_bytes_total() < 60_000_000);
    }

    #[test]
    fn degenerate_phase_point_is_finite() {
        let p = PhasePoint {
            nodes: 1,
            tokens: 4,
            wall_s: 0.0,
        };
        assert_eq!(p.tokens_per_second(), 0.0);
    }
}
