//! Wall-clock decode at 1, 2 and 4 ring nodes: the one functional cell
//! the repo benchmark does not build.
//!
//! The repo benchmark (`src/bin/benchmark`, a package of its own)
//! measures the functional engine end to end and stage by stage, at 1
//! and 2 ring nodes. This module times batch-1 decode of a
//! gpt2-medium-shaped model (`medium_shaped`) at 1, 2 and 4 nodes, so
//! the 4-node number has a committed source. Each cell runs
//! `WARM_UP` (2 s) of untimed decode first, then [`MEASURE_REPS`] timed
//! reps, and reports their median tok/s with its min and max. The
//! `hotpath` binary writes the report as `BENCH_hotpath.json`.

use std::time::{Duration, Instant};

use looplynx_core::engine::DistributedGpt2;
use looplynx_core::router::RingMode;
use looplynx_model::config::ModelConfig;
use looplynx_model::gpt2::Gpt2Model;

use crate::report::{fields, Json, MEASURE_REPS};

const _: () = assert!(MEASURE_REPS % 2 == 1, "the median is the middle rep");

/// Ring sizes measured.
const NODE_COUNTS: [usize; 3] = [1, 2, 4];

/// Untimed decode before each ring size's timed reps. A process that was
/// idle or single-threaded (model synthesis takes seconds) runs its first
/// ~1.6 s of pooled work with both threads on one vCPU, at about a third
/// of the steady rate; five timed reps fit inside that window.
const WARM_UP: Duration = Duration::from_secs(2);

/// Batch-1 decode throughput at one ring size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecodeCell {
    /// Ring size.
    pub nodes: usize,
    /// Tokens decoded per rep, after a prompt of as many tokens.
    pub tokens: usize,
    /// Median tokens/s over the reps.
    pub tok_s: f64,
    /// Slowest rep's tokens/s.
    pub tok_s_min: f64,
    /// Fastest rep's tokens/s.
    pub tok_s_max: f64,
}

impl DecodeCell {
    /// The cell of `walls_s`, one timed rep's seconds each (a rep that
    /// read no time reads 0 tok/s, not infinity). The median is the
    /// middle rep: [`MEASURE_REPS`] is odd.
    fn from_walls(nodes: usize, tokens: usize, walls_s: &[f64]) -> Self {
        let mut rates: Vec<f64> = walls_s
            .iter()
            .map(|&w| if w > 0.0 { tokens as f64 / w } else { 0.0 })
            .collect();
        rates.sort_by(f64::total_cmp);
        DecodeCell {
            nodes,
            tokens,
            tok_s: rates[rates.len() / 2],
            tok_s_min: rates[0],
            tok_s_max: rates[rates.len() - 1],
        }
    }
}

/// The hot-path report.
#[derive(Debug, Clone, PartialEq)]
pub struct HotpathReport {
    /// Whether the run used the reduced `--quick` workload.
    pub quick: bool,
    /// One cell per ring size.
    pub cells: Vec<DecodeCell>,
}

/// A config with gpt2-medium's per-layer geometry (d=1024, 16 heads,
/// d_ff=4096) but few layers and a small vocabulary, so the benchmark
/// exercises realistic GEMM and attention shapes without a 355 MB weight
/// build.
fn medium_shaped() -> ModelConfig {
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

/// Times `tokens` decode steps after a `tokens`-token prompt on `cfg` at
/// each ring size: `warm_up` of untimed reps, then [`MEASURE_REPS`] timed
/// ones.
fn measure_model(cfg: &ModelConfig, tokens: usize, warm_up: Duration) -> Vec<DecodeCell> {
    assert!(2 * tokens <= cfg.max_seq, "workload exceeds max_seq");
    let reference = Gpt2Model::synthetic(cfg, 4207);
    let vocab = cfg.vocab.min(256);
    let prompt: Vec<u32> = (0..tokens).map(|i| (i * 31 % vocab) as u32).collect();
    NODE_COUNTS
        .iter()
        .map(|&nodes| {
            let mut eng =
                DistributedGpt2::new(&reference, nodes, RingMode::Exact).expect("partitionable");
            let mut rep = || {
                eng.reset();
                let mut logits = eng.prefill(&prompt);
                let t0 = Instant::now();
                for _ in 0..tokens {
                    // Greedy-ish deterministic feedback, no sampler overhead.
                    let next = (logits[0].abs() as usize % vocab) as u32;
                    logits = eng.decode_step(next);
                }
                t0.elapsed().as_secs_f64()
            };
            let start = Instant::now();
            while start.elapsed() < warm_up {
                rep();
            }
            let walls: Vec<f64> = (0..MEASURE_REPS).map(|_| rep()).collect();
            DecodeCell::from_walls(nodes, tokens, &walls)
        })
        .collect()
}

/// Runs the hot-path benchmark. `quick` shrinks each rep from 32 to 8
/// tokens (same shapes, same warm-up).
pub fn measure(quick: bool) -> HotpathReport {
    let tokens = if quick { 8 } else { 32 };
    HotpathReport {
        quick,
        cells: measure_model(&medium_shaped(), tokens, WARM_UP),
    }
}

/// The report as a JSON document.
pub fn to_json(report: &HotpathReport) -> Json {
    Json::Obj(vec![
        ("quick", report.quick.into()),
        ("model", medium_shaped().name.as_str().into()),
        ("warm_up_s", WARM_UP.as_secs_f64().into()),
        ("reps", MEASURE_REPS.into()),
        (
            "cells",
            Json::arr(&report.cells, |c| {
                Json::Obj(fields![c; nodes, tokens, tok_s, tok_s_min, tok_s_max])
            }),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_measurement_produces_positive_rates() {
        let cells = measure_model(&ModelConfig::tiny(), 8, Duration::ZERO);
        let nodes: Vec<usize> = cells.iter().map(|c| c.nodes).collect();
        assert_eq!(nodes, NODE_COUNTS);
        for c in &cells {
            assert!(
                0.0 < c.tok_s_min && c.tok_s_min <= c.tok_s && c.tok_s <= c.tok_s_max,
                "degenerate cell {c:?}"
            );
        }
    }

    #[test]
    fn cell_reports_median_min_and_max() {
        let cell = DecodeCell::from_walls(2, 8, &[0.5, 0.25, 1.0, 2.0, 0.125]);
        assert_eq!(
            (cell.tok_s_min, cell.tok_s, cell.tok_s_max),
            (4.0, 16.0, 64.0)
        );
    }

    #[test]
    fn json_is_wellformed_enough() {
        let report = HotpathReport {
            quick: true,
            cells: vec![DecodeCell::from_walls(1, 8, &[0.25])],
        };
        let j = to_json(&report);
        // What CI's gate reads.
        assert!(matches!(j.get("cells"), Some(Json::Arr(cells)) if cells.len() == 1));
        let text = j.render();
        assert!(text.contains("\"tok_s\": 32.0000"), "{text}");
        assert!(text.contains("\"tok_s_min\": 32.0000"), "{text}");
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
        let cell = DecodeCell::from_walls(1, 4, &[0.0]);
        assert_eq!((cell.tok_s, cell.tok_s_max), (0.0, 0.0));
    }
}
