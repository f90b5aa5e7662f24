//! The fused matrix-processing (MP) kernel.
//!
//! Paper Fig. 6(a): DMA engines → matrix-processing unit (MPU) → packer →
//! quantization unit → router, all decoupled by FIFOs. The MPU holds
//! `mp_channels` MP slices, each fed by its own HBM channel and containing
//! `n_group` MAC units; a *block* is the `n_group` weight rows one slice
//! processes concurrently (each MAC accumulates one output row over `cols`
//! cycles while the DMA streams `n_group × cols` bytes).
//!
//! The kernel is memory-bound by design: one channel delivers ≈29.8 B/cycle
//! against the 32 B/cycle the MACs could consume, so block time is the DMA
//! time and the MAC array trails slightly behind — exactly the behaviour
//! the pipeline recurrence produces.
//!
//! Because every linear layer in the model runs on this one kernel (the
//! scheduler reuses it temporally), its activation count per token is
//! `4 × layers + 1` (QKV, out-proj, FC1, FC2 per block, plus the LM head).

use looplynx_sim::pipeline::{PipelineSpec, StageSpec};
use looplynx_sim::time::Cycles;

use crate::config::{ArchConfig, FIFO_DEPTH, QUANT_LATENCY, STAGE_OVERHEAD};
use crate::kernels::{KernelTiming, Segment};

/// One activation of the fused MP kernel: a `rows × cols` GEMV shard on
/// this node, optionally followed by a ring all-gather of the produced
/// sub-vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MpJob {
    /// Output rows computed on this node (already sharded).
    pub rows: usize,
    /// Input dimension (dot-product length).
    pub cols: usize,
    /// Bytes of this node's output sub-vector that must be all-gathered
    /// around the ring afterwards (0 when no synchronization is needed —
    /// e.g. the head-aligned QKV projection).
    pub sync_bytes: usize,
    /// Activation vectors sharing this weight pass (1 = GEMV decode;
    /// larger values are the batched-prefill extension where each streamed
    /// weight is reused across `batch` prompt tokens, two weight-sharing
    /// int8 MACs packed per DSP per cycle).
    pub batch: usize,
}

/// The fused MP kernel timing model.
#[derive(Debug, Clone, PartialEq)]
pub struct FusedMpKernel {
    cfg: ArchConfig,
}

impl FusedMpKernel {
    /// Creates the kernel for a configuration.
    pub fn new(cfg: &ArchConfig) -> Self {
        FusedMpKernel { cfg: cfg.clone() }
    }

    /// Number of row-blocks one activation is tiled into (per slice).
    pub fn blocks_for(&self, rows: usize) -> usize {
        let per_slice = rows.div_ceil(self.cfg.mp_channels());
        per_slice.div_ceil(self.cfg.n_group()).max(1)
    }

    /// Cycle-accurate timing of one activation.
    ///
    /// # Panics
    ///
    /// Panics if the job has zero rows or columns.
    pub fn timing(&self, job: &MpJob) -> KernelTiming {
        assert!(job.rows > 0 && job.cols > 0, "degenerate MP job");
        assert!(job.batch > 0, "batch must be at least 1");
        let cfg = &self.cfg;
        let n_group = cfg.n_group();
        let blocks = self.blocks_for(job.rows);

        // Per-block, per-slice quantities. All slices run in lock-step on
        // identical block shapes, so one slice's pipeline is the kernel's.
        let block_bytes = n_group * job.cols;
        let bpc = cfg.channel_bytes_per_cycle();
        let dma_ii = (block_bytes as f64 / bpc).ceil() as u64;
        // n_group MACs, 1 weight byte per cycle each. With a batch, every
        // weight byte multiplies `batch` activation elements; weight-shared
        // int8 DSP packing executes two of those per DSP per cycle.
        let mac_ii = job.cols as u64 * (job.batch as u64).div_ceil(2);
        let mac_latency = mac_ii + 8; // accumulator drain

        // Packer emits one datapack per slice per block per batched token.
        let pack_ii = job.batch as u64;
        // Quant unit: one datapack/cycle at a fixed pipeline depth.
        let quant_ii = job.batch as u64;
        let quant_latency = QUANT_LATENCY.as_u64();
        // Router ingest: `mp_channels` datapacks per block per batched
        // token at link rate.
        let send_ii = ((cfg.mp_channels() * n_group * job.batch) as f64 / bpc).ceil() as u64;

        let spec = PipelineSpec::new(vec![
            StageSpec::new("dma", dma_ii, dma_ii).with_out_capacity(FIFO_DEPTH),
            StageSpec::new("mac", mac_latency, mac_ii).with_out_capacity(FIFO_DEPTH),
            StageSpec::new("pack", 4, pack_ii).with_out_capacity(FIFO_DEPTH),
            StageSpec::new("quant", quant_latency, quant_ii).with_out_capacity(FIFO_DEPTH),
            StageSpec::new("send", send_ii.max(1), send_ii.max(1)),
        ]);
        let run = spec.evaluate_uniform(blocks);
        let compute = run.makespan();

        // Ring synchronization of the produced sub-vector. With
        // transmission hiding, the sync of block i−1 overlaps the compute
        // of block i and only the final block's share is exposed.
        let sync_total = cfg.ring().all_gather_cycles(job.sync_bytes);
        let sync_exposed = if job.sync_bytes == 0 || cfg.nodes() == 1 {
            Cycles::ZERO
        } else if cfg.opts().hide_transmission {
            Cycles::new(sync_total.as_u64().div_ceil(blocks as u64))
        } else {
            sync_total
        };

        let dma_total = Cycles::new(dma_ii * blocks as u64);
        let total = compute + sync_exposed + STAGE_OVERHEAD;
        KernelTiming::new(
            total,
            vec![
                Segment::new("dma", dma_total),
                Segment::new("mac", Cycles::new(mac_ii * blocks as u64)),
                Segment::new("quant", Cycles::new(quant_latency + blocks as u64)),
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

    fn kernel(nodes: usize) -> FusedMpKernel {
        FusedMpKernel::new(&ArchConfig::builder().nodes(nodes).build().unwrap())
    }

    #[test]
    fn memory_bound_matches_byte_count() {
        // A large GEMV must take ≈ bytes / aggregate-bandwidth cycles.
        let k = kernel(1);
        let job = MpJob {
            rows: 4096,
            cols: 1024,
            sync_bytes: 0,
            batch: 1,
        };
        let t = k.timing(&job).total.as_f64();
        let cfg = ArchConfig::builder().nodes(1).build().unwrap();
        let ideal = (job.rows * job.cols) as f64
            / (cfg.mp_channels() as f64 * cfg.channel_bytes_per_cycle());
        assert!(t > ideal, "cannot beat the memory bound");
        assert!(
            t < 1.25 * ideal + 3000.0,
            "too far off the bound: {t} vs {ideal}"
        );
    }

    #[test]
    fn blocks_tile_rows() {
        let k = kernel(1);
        // 10 channels × 32 rows = 320 rows per block wave
        assert_eq!(k.blocks_for(320), 1);
        assert_eq!(k.blocks_for(321), 2);
        assert_eq!(k.blocks_for(3072), 10);
        assert_eq!(k.blocks_for(1), 1);
    }

    #[test]
    fn doubling_rows_roughly_doubles_time() {
        let k = kernel(1);
        let small = k
            .timing(&MpJob {
                rows: 2048,
                cols: 1024,
                sync_bytes: 0,
                batch: 1,
            })
            .total
            .as_f64();
        let large = k
            .timing(&MpJob {
                rows: 4096,
                cols: 1024,
                sync_bytes: 0,
                batch: 1,
            })
            .total
            .as_f64();
        let ratio = large / small;
        assert!((1.7..2.3).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn transmission_hiding_reduces_exposed_sync() {
        let hidden = kernel(4);
        let cfg = ArchConfig::builder()
            .nodes(4)
            .opts(OptimizationFlags {
                hide_transmission: false,
                ..OptimizationFlags::ALL
            })
            .build()
            .unwrap();
        let exposed = FusedMpKernel::new(&cfg);
        let job = MpJob {
            rows: 1024,
            cols: 1024,
            sync_bytes: 256,
            batch: 1,
        };
        let t_hidden = hidden.timing(&job);
        let t_exposed = exposed.timing(&job);
        assert!(t_hidden.segment("sync") < t_exposed.segment("sync"));
        assert!(t_hidden.total < t_exposed.total);
    }

    #[test]
    fn single_node_never_syncs() {
        let k = kernel(1);
        let t = k.timing(&MpJob {
            rows: 512,
            cols: 512,
            sync_bytes: 512,
            batch: 1,
        });
        assert_eq!(t.segment("sync"), Cycles::ZERO);
    }

    #[test]
    fn segments_are_labelled() {
        let k = kernel(2);
        let t = k.timing(&MpJob {
            rows: 512,
            cols: 512,
            sync_bytes: 256,
            batch: 1,
        });
        for label in ["dma", "mac", "quant", "sync", "overhead"] {
            assert!(
                t.segments.iter().any(|s| s.label == label),
                "missing {label}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "degenerate MP job")]
    fn zero_rows_rejected() {
        let _ = kernel(1).timing(&MpJob {
            rows: 0,
            cols: 4,
            sync_bytes: 0,
            batch: 1,
        });
    }
}
