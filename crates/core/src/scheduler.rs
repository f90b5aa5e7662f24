//! The hybrid-architecture scheduler.
//!
//! The scheduler is the "temporal" half of the hybrid design: a state
//! machine that walks the stage sequence of every transformer block and
//! *reuses* the three macro dataflow kernels — "taking the fused MP kernel
//! as an example, all linear layer computations can be executed using this
//! kernel. At this point, the scheduler enters the 6th stage to compute the
//! projection matrix, thus reusing the Fused MP kernel" (paper
//! Section III-B, Fig. 3(c.1)).

use std::fmt;

use looplynx_model::config::ModelConfig;
use looplynx_sim::time::Cycles;
use looplynx_sim::trace::{Span, Trace};

use crate::config::ArchConfig;
use crate::host::HostModel;
use crate::kernels::lnres::{FusedLnResKernel, LnResJob};
use crate::kernels::mha::{FusedMhaKernel, MhaJob};
use crate::kernels::mp::{FusedMpKernel, MpJob};
use crate::latency::LatencyBreakdown;
use crate::parallel::{validate_partition, PartitionError};

/// A stage of the per-layer schedule (paper Fig. 3(c.1) numbering).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Residual of the previous block fused with the pre-attention LN.
    LnRes1,
    /// QKV projection on the fused MP kernel (head-aligned, no sync).
    QkvProj,
    /// Multi-head attention on the fused MHA kernel (+ output gather).
    Mha,
    /// Attention output projection on the fused MP kernel (+ gather).
    OutProj,
    /// Residual fused with the pre-MLP LN.
    LnRes2,
    /// MLP up-projection on the fused MP kernel (+ gather of GELU input).
    Fc1,
    /// GELU on the element-wise vector unit (node-local slice).
    Gelu,
    /// MLP down-projection on the fused MP kernel (+ gather).
    Fc2,
}

impl Stage {
    /// The per-layer stage sequence.
    pub const SEQUENCE: [Stage; 8] = [
        Stage::LnRes1,
        Stage::QkvProj,
        Stage::Mha,
        Stage::OutProj,
        Stage::LnRes2,
        Stage::Fc1,
        Stage::Gelu,
        Stage::Fc2,
    ];

    /// Which hardware kernel executes this stage.
    pub fn kernel_lane(self) -> &'static str {
        match self {
            Stage::LnRes1 | Stage::LnRes2 | Stage::Gelu => "lnres",
            Stage::QkvProj | Stage::OutProj | Stage::Fc1 | Stage::Fc2 => "mp",
            Stage::Mha => "mha",
        }
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Stage::LnRes1 => "ln&res1",
            Stage::QkvProj => "qkv",
            Stage::Mha => "mha",
            Stage::OutProj => "proj",
            Stage::LnRes2 => "ln&res2",
            Stage::Fc1 => "fc1",
            Stage::Gelu => "gelu",
            Stage::Fc2 => "fc2",
        };
        f.write_str(name)
    }
}

/// Timing of one token through all layers (plus final LN / LM head / host).
#[derive(Debug, Clone, PartialEq)]
pub struct TokenTiming {
    /// Total exposed cycles for the token.
    pub total: Cycles,
    /// Bucketized breakdown.
    pub breakdown: LatencyBreakdown,
    /// Kernel-activation trace (one span per stage activation).
    pub trace: Trace,
}

impl TokenTiming {
    /// Milliseconds under the configuration's clock.
    pub fn total_ms(&self, cfg: &ArchConfig) -> f64 {
        self.total.to_millis(cfg.freq())
    }
}

/// The scheduler: drives kernels through the stage sequence and accumulates
/// cycle-accurate timing.
#[derive(Debug, Clone, PartialEq)]
pub struct Scheduler {
    cfg: ArchConfig,
    model: ModelConfig,
    mp: FusedMpKernel,
    mha: FusedMhaKernel,
    lnres: FusedLnResKernel,
}

impl Scheduler {
    /// Creates a scheduler for the given architecture and model.
    ///
    /// # Errors
    ///
    /// Returns [`PartitionError`] if the model cannot be split over the
    /// configured ring (heads, `d_model` or `d_ff` do not divide) — the
    /// same validation [`crate::engine::LoopLynx::new`] applies.
    pub fn new(cfg: ArchConfig, model: ModelConfig) -> Result<Self, PartitionError> {
        validate_partition(&model, cfg.nodes())?;
        Ok(Scheduler {
            mp: FusedMpKernel::new(&cfg),
            mha: FusedMhaKernel::new(&cfg),
            lnres: FusedLnResKernel::new(&cfg),
            cfg,
            model,
        })
    }

    /// The architecture configuration.
    pub fn config(&self) -> &ArchConfig {
        &self.cfg
    }

    /// The model configuration.
    pub fn model(&self) -> &ModelConfig {
        &self.model
    }

    /// Builds the MP job for a linear-layer stage at the current ring size,
    /// `batch` rows sharing each weight pass (and each synchronizing its
    /// own output slice).
    fn mp_job(&self, stage: Stage, batch: usize) -> MpJob {
        let n = self.cfg.nodes();
        let d = self.model.d_model;
        let ff = self.model.d_ff;
        match stage {
            // Head-aligned QKV shard: each node computes q, k, v rows of its
            // own heads — no synchronization afterwards.
            Stage::QkvProj => MpJob {
                rows: 3 * d / n,
                cols: d,
                sync_bytes: 0,
                batch,
            },
            Stage::OutProj => MpJob {
                rows: d / n,
                cols: d,
                sync_bytes: batch * (d / n),
                batch,
            },
            Stage::Fc1 => MpJob {
                rows: ff / n,
                cols: d,
                sync_bytes: batch * (ff / n),
                batch,
            },
            Stage::Fc2 => MpJob {
                rows: d / n,
                cols: ff,
                sync_bytes: batch * (d / n),
                batch,
            },
            _ => unreachable!("{stage} is not an MP stage"),
        }
    }

    /// Times one stage of one layer for a weight-sharing batch of rows:
    /// an MP stage runs once with the batch factor, every other stage is
    /// charged once per row at that row's own attention context.
    fn stage_timing(&self, stage: Stage, contexts: &[usize]) -> (Cycles, LatencyBreakdown) {
        let n = self.cfg.nodes();
        let mut b = LatencyBreakdown::zero();
        let mut total = Cycles::ZERO;
        match stage {
            Stage::QkvProj | Stage::OutProj | Stage::Fc1 | Stage::Fc2 => {
                let t = self.mp.timing(&self.mp_job(stage, contexts.len()));
                b.sync += t.segment("sync");
                b.critical_path += t.segment("overhead");
                b.linear += t.total - t.segment("sync") - t.segment("overhead");
                total = t.total;
            }
            Stage::Mha => {
                for &context in contexts {
                    let t = self.mha.timing(&MhaJob {
                        heads: self.model.heads / n,
                        d_head: self.model.d_head(),
                        context,
                        sync_bytes: self.model.d_model / n,
                    });
                    b.sync += t.segment("sync");
                    b.critical_path += t.segment("overhead");
                    b.mha += t.total - t.segment("sync") - t.segment("overhead");
                    total += t.total;
                }
            }
            Stage::LnRes1 | Stage::LnRes2 | Stage::Gelu => {
                let t = match stage {
                    // GELU runs on the node-local FC1 slice.
                    Stage::Gelu => self.lnres.elementwise_timing(self.model.d_ff / n),
                    _ => self.lnres.timing(&LnResJob {
                        dim: self.model.d_model,
                        with_residual: true,
                    }),
                };
                total = t.total * contexts.len() as u64;
                b.critical_path += total;
            }
        }
        (total, b)
    }

    /// The one timing walk: a weight-sharing batch of rows, `contexts[i]`
    /// being row *i*'s KV-cache length after its token is appended. MP
    /// stages (and the LM head, when `with_lm_head`) run once for the
    /// whole batch with the batch factor — each streamed weight block
    /// serves every row, two weight-shared int8 MACs packed per DSP per
    /// cycle; MHA, the critical-path operators, the final LN and the host
    /// epilogue are inherently per row and are charged per row at that
    /// row's own context. A decode iteration is one row per request with
    /// the LM head on, a batched-prefill step is consecutive contexts of
    /// one request with it off, and a lone token is a batch of one.
    ///
    /// Span labels carry an `x{batch}` suffix only when `batch > 1`.
    ///
    /// # Panics
    ///
    /// Panics if `contexts` is empty, any context is zero, or the batch
    /// exceeds [`crate::config::MAX_WEIGHT_SHARING_BATCH`].
    pub fn schedule_rows(&self, contexts: &[usize], with_lm_head: bool) -> TokenTiming {
        let batch = contexts.len();
        assert!(batch > 0, "batch must be at least 1");
        assert!(
            batch <= crate::config::MAX_WEIGHT_SHARING_BATCH,
            "batch {batch} exceeds the activation-buffer bound {}",
            crate::config::MAX_WEIGHT_SHARING_BATCH
        );
        assert!(
            contexts.iter().all(|&c| c > 0),
            "context must include the current token"
        );
        let rows = batch as u64;
        let (dot, sp) = if batch > 1 {
            (format!("x{batch}"), format!(" x{batch}"))
        } else {
            (String::new(), String::new())
        };
        let mut cursor = Cycles::ZERO;
        let mut breakdown = LatencyBreakdown::zero();
        let mut trace = Trace::new();
        for layer in 0..self.model.layers {
            for stage in Stage::SEQUENCE {
                let (dur, b) = self.stage_timing(stage, contexts);
                trace.push(Span::new(
                    stage.kernel_lane(),
                    format!("L{layer}.{stage}{dot}"),
                    cursor,
                    cursor + dur,
                ));
                cursor += dur;
                breakdown += b;
            }
        }

        // Final layernorm per row.
        let final_ln = self.lnres.timing(&LnResJob {
            dim: self.model.d_model,
            with_residual: true,
        });
        trace.push(Span::new(
            "lnres",
            format!("final_ln{sp}"),
            cursor,
            cursor + final_ln.total * rows,
        ));
        cursor += final_ln.total * rows;
        breakdown.critical_path += final_ln.total * rows;

        if with_lm_head {
            // One batched LM head sharded over vocab rows; the host
            // gathers logits over PCIe (inside host overhead), so no ring
            // sync.
            let t = self.mp.timing(&MpJob {
                rows: self.model.vocab.div_ceil(self.cfg.nodes()),
                cols: self.model.d_model,
                sync_bytes: 0,
                batch,
            });
            trace.push(Span::new(
                "mp",
                format!("lm_head{sp}"),
                cursor,
                cursor + t.total,
            ));
            cursor += t.total;
            breakdown.critical_path += t.segment("overhead");
            breakdown.linear += t.total - t.segment("overhead");
        }

        let host_model = HostModel::paper();
        let per_row = host_model.token_overhead_cycles(&self.model, with_lm_head, self.cfg.freq());
        let host = per_row * rows;
        breakdown.host += host;
        cursor += host;

        TokenTiming {
            total: cursor,
            breakdown,
            trace,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OptimizationFlags;

    fn sched(nodes: usize) -> Scheduler {
        Scheduler::new(
            ArchConfig::builder().nodes(nodes).build().unwrap(),
            ModelConfig::gpt2_medium(),
        )
        .unwrap()
    }

    #[test]
    fn stage_sequence_covers_all_kernels() {
        let lanes: std::collections::BTreeSet<&str> =
            Stage::SEQUENCE.iter().map(|s| s.kernel_lane()).collect();
        assert_eq!(lanes.len(), 3);
        assert!(lanes.contains("mp") && lanes.contains("mha") && lanes.contains("lnres"));
    }

    #[test]
    fn trace_has_one_span_per_stage_plus_epilogue() {
        let s = sched(1);
        let t = s.schedule_rows(&[16], true);
        // 24 layers × 8 stages + final LN + LM head
        assert_eq!(t.trace.len(), 24 * 8 + 2);
        // the stages run one after another: no overlap on a physical kernel
        assert!(t.trace.spans().windows(2).all(|w| w[0].end == w[1].start));
    }

    #[test]
    fn decode_token_near_paper_single_node_latency() {
        // Table II: 1-node ≈ 6.59 ms/token. Accept ±12 %.
        let s = sched(1);
        let t = s.schedule_rows(&[512], true);
        let ms = t.total_ms(s.config());
        assert!((5.8..7.4).contains(&ms), "1-node token {ms} ms");
    }

    #[test]
    fn two_node_near_paper_latency() {
        // Table II: 2-node ≈ 3.85 ms/token.
        let s = sched(2);
        let ms = s.schedule_rows(&[512], true).total_ms(s.config());
        assert!((3.4..4.3).contains(&ms), "2-node token {ms} ms");
    }

    #[test]
    fn four_node_near_paper_latency() {
        // Table II: 4-node ≈ 2.55 ms/token.
        let s = sched(4);
        let ms = s.schedule_rows(&[512], true).total_ms(s.config());
        assert!((2.2..2.9).contains(&ms), "4-node token {ms} ms");
    }

    #[test]
    fn scaling_is_sublinear() {
        // Table III: 2-node speedup 1.71x, 4-node (vs 2-node) 1.51x —
        // sub-linear because critical-path operators do not distribute.
        let l1 = sched(1).schedule_rows(&[512], true).total.as_f64();
        let l2 = sched(2).schedule_rows(&[512], true).total.as_f64();
        let l4 = sched(4).schedule_rows(&[512], true).total.as_f64();
        let s21 = l1 / l2;
        let s42 = l2 / l4;
        assert!(s21 > 1.4 && s21 < 2.0, "2-node speedup {s21}");
        assert!(s42 > 1.3 && s42 < 1.8, "4-node speedup {s42}");
        assert!(s42 < s21, "scaling efficiency must fall");
    }

    #[test]
    fn unoptimized_breakdown_matches_fig5_shape() {
        // Fig. 5(a): linear+MHA ≈ 81.5 %, critical path ≈ 18.5 %.
        let cfg = ArchConfig::builder()
            .nodes(1)
            .opts(OptimizationFlags::NONE)
            .build()
            .unwrap();
        let s = Scheduler::new(cfg, ModelConfig::gpt2_medium()).unwrap();
        let t = s.schedule_rows(&[512], true);
        let cp = t.breakdown.critical_path_fraction();
        assert!((0.12..0.27).contains(&cp), "critical-path fraction {cp}");
    }

    #[test]
    fn optimizations_never_slow_a_token() {
        for nodes in [1usize, 2, 4] {
            let on = sched(nodes).schedule_rows(&[256], true).total;
            let cfg_off = ArchConfig::builder()
                .nodes(nodes)
                .opts(OptimizationFlags::NONE)
                .build()
                .unwrap();
            let off = Scheduler::new(cfg_off, ModelConfig::gpt2_medium())
                .unwrap()
                .schedule_rows(&[256], true)
                .total;
            assert!(on < off, "optimizations regressed at {nodes} nodes");
        }
    }

    #[test]
    fn prefill_tokens_skip_lm_head() {
        let s = sched(2);
        let with = s.schedule_rows(&[128], true).total;
        let without = s.schedule_rows(&[128], false).total;
        assert!(without < with);
    }

    #[test]
    fn longer_context_costs_more() {
        let s = sched(2);
        let short = s.schedule_rows(&[32], true).total;
        let long = s.schedule_rows(&[512], true).total;
        assert!(long > short);
    }

    #[test]
    fn indivisible_heads_rejected() {
        // gpt2-medium has 16 heads: a 3-node ring cannot partition them.
        let cfg = ArchConfig::builder().nodes(3).build().unwrap();
        let err = Scheduler::new(cfg, ModelConfig::gpt2_medium()).unwrap_err();
        assert!(err.to_string().contains("heads"), "{err}");
    }

    #[test]
    fn batch_suffix_marks_real_batches_only() {
        let s = sched(2);
        for ctx in [1usize, 7, 64, 511] {
            let single = s.schedule_rows(&[ctx], false);
            assert_eq!(single.trace.spans()[1].label, "L0.qkv");
            let pair = s.schedule_rows(&[ctx, ctx + 1], false);
            assert_eq!(pair.trace.spans()[1].label, "L0.qkvx2");
        }
    }

    #[test]
    fn decode_batch_amortizes_weight_streaming() {
        // Two concurrent requests must cost strictly less than two
        // back-to-back single-token iterations (weights streamed once),
        // but more than one (MHA and epilogue are per-request).
        let s = sched(2);
        let one = s.schedule_rows(&[256], true).total.as_u64();
        let two = s.schedule_rows(&[256, 256], true).total.as_u64();
        assert!(two < 2 * one, "batched {two} vs 2x single {}", 2 * one);
        assert!(two > one, "batched {two} vs single {one}");
    }

    #[test]
    fn decode_batch_per_token_cost_is_monotone_down() {
        let s = sched(2);
        let mut prev = f64::INFINITY;
        for batch in [1usize, 2, 4, 8] {
            let contexts = vec![256usize; batch];
            let per = s.schedule_rows(&contexts, true).total.as_f64() / batch as f64;
            assert!(per < prev, "batch {batch}: per-token {per} vs {prev}");
            prev = per;
        }
    }

    #[test]
    fn decode_batch_handles_mixed_contexts() {
        // Continuous batching interleaves requests at different decode
        // depths; the MHA charge must follow each request's own context.
        let s = sched(2);
        let mixed = s.schedule_rows(&[16, 512], true).total;
        let both_short = s.schedule_rows(&[16, 16], true).total;
        let both_long = s.schedule_rows(&[512, 512], true).total;
        assert!(both_short < mixed && mixed < both_long);
    }

    #[test]
    #[should_panic(expected = "batch must be at least 1")]
    fn empty_decode_batch_rejected() {
        let _ = sched(1).schedule_rows(&[], true);
    }
}
