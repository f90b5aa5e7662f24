//! The fused multi-head attention (MHA) kernel.
//!
//! Paper Fig. 6(b): "two separate MAC hardware implementations, a mask unit
//! and a softmax unit, forming a head-wise task-level pipeline. The first
//! MAC hardware is connected to HBM channels used as key cache and computes
//! attention scores for each head … the softmax unit … the second MAC
//! hardware, where cached values are loaded to perform token mixing."
//!
//! The head-wise pipelining optimization (Section III-C, Fig. 4(b))
//! reorders the computation so softmax of head *i−1* hides inside the
//! score/mixing MACs of head *i*; with the flag off the three phases of a
//! head run back-to-back — the difference is the ≈4 % of token latency the
//! paper reports in Fig. 5.

use looplynx_sim::pipeline::{PipelineSpec, StageSpec};
use looplynx_sim::time::Cycles;

use crate::config::{ArchConfig, KV_CHANNELS, SOFTMAX_LANES, STAGE_OVERHEAD};
use crate::kernels::{KernelTiming, Segment};

/// One activation of the fused MHA kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MhaJob {
    /// Heads computed on this node (head-wise partitioning).
    pub heads: usize,
    /// Dimension of one head.
    pub d_head: usize,
    /// Context length attended over (cached tokens including the current).
    pub context: usize,
    /// Bytes of this node's attention output to all-gather afterwards.
    pub sync_bytes: usize,
}

/// The fused MHA kernel timing model.
#[derive(Debug, Clone, PartialEq)]
pub struct FusedMhaKernel {
    cfg: ArchConfig,
}

impl FusedMhaKernel {
    /// Creates the kernel for a configuration.
    pub fn new(cfg: &ArchConfig) -> Self {
        FusedMhaKernel { cfg: cfg.clone() }
    }

    /// Cycles of one head's score MACs (key-cache streaming bound).
    fn score_cycles(&self, job: &MhaJob) -> u64 {
        let k_channels = KV_CHANNELS / 2;
        let bytes = job.d_head * job.context;
        let fill = 16; // mask unit + score fifo fill
        (bytes as f64 / (k_channels as f64 * self.cfg.channel_bytes_per_cycle())).ceil() as u64
            + fill
    }

    /// Cycles of one head's token-mixing MACs (value-cache streaming bound).
    fn mix_cycles(&self, job: &MhaJob) -> u64 {
        let v_channels = KV_CHANNELS / 2;
        let bytes = job.d_head * job.context;
        (bytes as f64 / (v_channels as f64 * self.cfg.channel_bytes_per_cycle())).ceil() as u64 + 16
    }

    /// Cycles of one head's two-phase softmax.
    fn softmax_cycles(&self, job: &MhaJob) -> u64 {
        let lanes = SOFTMAX_LANES as u64;
        // phase 1 (exp + global sum) and phase 2 (weighted scores)
        2 * (job.context as u64).div_ceil(lanes) + 32
    }

    /// Cycle-accurate timing of one activation.
    ///
    /// # Panics
    ///
    /// Panics if the job has zero heads, head size, or context.
    pub fn timing(&self, job: &MhaJob) -> KernelTiming {
        assert!(
            job.heads > 0 && job.d_head > 0 && job.context > 0,
            "degenerate MHA job"
        );
        let score = self.score_cycles(job);
        let softmax = self.softmax_cycles(job);
        let mix = self.mix_cycles(job);

        let compute = if self.cfg.opts().headwise_pipeline {
            // Head-wise task-level pipeline: items are heads flowing
            // through score → softmax → mix; softmax of head i−1 overlaps
            // the score MACs of head i.
            let spec = PipelineSpec::new(vec![
                StageSpec::new("score", score, score).with_out_capacity(2),
                StageSpec::new("softmax", softmax, softmax).with_out_capacity(2),
                StageSpec::new("mix", mix, mix),
            ]);
            spec.evaluate_uniform(job.heads).makespan()
        } else {
            // Without the reordering, the two MAC arrays still pipeline
            // across heads (separate hardware on separate channels), but
            // "it is difficult to overlap these two stages" of softmax —
            // its global-sum barrier is exposed once per head.
            let spec = PipelineSpec::new(vec![
                StageSpec::new("score", score, score).with_out_capacity(2),
                StageSpec::new("mix", mix, mix),
            ]);
            spec.evaluate_uniform(job.heads).makespan() + Cycles::new(job.heads as u64 * softmax)
        };

        // All-gather of this node's attention output. Head-wise hiding also
        // applies: earlier heads' sub-vectors travel while later heads
        // compute.
        let sync_total = self.cfg.ring().all_gather_cycles(job.sync_bytes);
        let sync_exposed = if job.sync_bytes == 0 || self.cfg.nodes() == 1 {
            Cycles::ZERO
        } else if self.cfg.opts().hide_transmission {
            Cycles::new(sync_total.as_u64().div_ceil(job.heads as u64))
        } else {
            sync_total
        };

        let total = compute + sync_exposed + STAGE_OVERHEAD;
        KernelTiming::new(
            total,
            vec![
                Segment::new("score", Cycles::new(score * job.heads as u64)),
                Segment::new("softmax", Cycles::new(softmax * job.heads as u64)),
                Segment::new("mix", Cycles::new(mix * job.heads as u64)),
                Segment::new("sync", sync_exposed),
                Segment::new("overhead", STAGE_OVERHEAD),
            ],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OptimizationFlags;

    fn job(context: usize) -> MhaJob {
        MhaJob {
            heads: 16,
            d_head: 64,
            context,
            sync_bytes: 0,
        }
    }

    fn kernel(headwise: bool) -> FusedMhaKernel {
        let cfg = ArchConfig::builder()
            .opts(OptimizationFlags {
                headwise_pipeline: headwise,
                ..OptimizationFlags::ALL
            })
            .build()
            .unwrap();
        FusedMhaKernel::new(&cfg)
    }

    #[test]
    fn headwise_pipeline_is_faster() {
        let on = kernel(true).timing(&job(512)).total;
        let off = kernel(false).timing(&job(512)).total;
        assert!(on < off, "pipelined {on} vs serialized {off}");
        // hiding softmax should save roughly the softmax time of all but
        // the pipeline-fill heads
        let saved = off.as_f64() - on.as_f64();
        assert!(saved > 0.5 * kernel(true).softmax_cycles(&job(512)) as f64 * 15.0);
    }

    #[test]
    fn longer_context_costs_more() {
        let k = kernel(true);
        let short = k.timing(&job(64)).total;
        let long = k.timing(&job(512)).total;
        assert!(long > short);
        // roughly linear in context once streaming dominates
        let ratio = long.as_f64() / short.as_f64();
        assert!(ratio > 4.0 && ratio < 10.0, "ratio {ratio}");
    }

    #[test]
    fn fewer_heads_scale_down() {
        let k = kernel(true);
        let full = k.timing(&job(256)).total.as_f64();
        let half = k
            .timing(&MhaJob {
                heads: 8,
                ..job(256)
            })
            .total
            .as_f64();
        let ratio = full / half;
        assert!(ratio > 1.6 && ratio < 2.4, "ratio {ratio}");
    }

    #[test]
    fn sync_hidden_across_heads() {
        let k_on = FusedMhaKernel::new(&ArchConfig::builder().nodes(4).build().unwrap());
        let cfg_off = ArchConfig::builder()
            .nodes(4)
            .opts(OptimizationFlags {
                hide_transmission: false,
                ..OptimizationFlags::ALL
            })
            .build()
            .unwrap();
        let k_off = FusedMhaKernel::new(&cfg_off);
        let j = MhaJob {
            heads: 4,
            d_head: 64,
            context: 256,
            sync_bytes: 256,
        };
        assert!(k_on.timing(&j).segment("sync") < k_off.timing(&j).segment("sync"));
    }

    #[test]
    fn segments_present() {
        let t = kernel(true).timing(&job(64));
        for label in ["score", "softmax", "mix", "sync", "overhead"] {
            assert!(t.segments.iter().any(|s| s.label == label));
        }
    }

    #[test]
    #[should_panic(expected = "degenerate MHA job")]
    fn zero_context_rejected() {
        let _ = kernel(true).timing(&MhaJob {
            heads: 1,
            d_head: 64,
            context: 0,
            sync_bytes: 0,
        });
    }
}
