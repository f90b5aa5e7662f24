//! The fused layernorm & residual (LN&Res) kernel and the element-wise
//! vector unit.
//!
//! "Operators such as residual connections and layer normalization can be
//! parallelized and have their execution overlapped, forming a Fused
//! LN&Res kernel, achieving improved latency with modest costs" (paper
//! Section III-C, Fig. 4(a)). With the optimization disabled the operators
//! run serially on a single lane — the configuration of the Fig. 5(a)
//! baseline where critical-path operators consume 18.5 % of token latency.

use looplynx_sim::time::Cycles;

use crate::config::{ArchConfig, STAGE_OVERHEAD};
use crate::kernels::{KernelTiming, Segment};

/// One activation of the LN&Res kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LnResJob {
    /// Vector dimension normalized.
    pub dim: usize,
    /// Whether a residual addition accompanies the normalization.
    pub with_residual: bool,
}

/// The fused LN&Res kernel timing model (also times the element-wise GELU
/// unit, which shares the critical-path vector lanes).
#[derive(Debug, Clone, PartialEq)]
pub struct FusedLnResKernel {
    cfg: ArchConfig,
}

impl FusedLnResKernel {
    /// Creates the kernel for a configuration.
    pub fn new(cfg: &ArchConfig) -> Self {
        FusedLnResKernel { cfg: cfg.clone() }
    }

    /// Cycle-accurate timing of one LN(+residual) activation.
    ///
    /// Layer normalization is three dependent passes (mean, variance,
    /// normalize) over `dim` elements on `effective_cp_lanes()` lanes.
    /// When fused, the residual addition overlaps the first pass; when not,
    /// it precedes the normalization serially.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is zero.
    pub fn timing(&self, job: &LnResJob) -> KernelTiming {
        assert!(job.dim > 0, "degenerate LN job");
        let lanes = self.cfg.effective_cp_lanes() as u64;
        let pass = (job.dim as u64).div_ceil(lanes);
        let fill = 16u64; // reduction-tree and divider latency
        let ln = 3 * pass + fill;
        let res = if job.with_residual { pass } else { 0 };
        let total_compute = if self.cfg.opts().fuse_ln_res {
            // residual overlaps the mean pass
            ln.max(res + 2 * pass + fill)
        } else {
            ln + res
        };
        let total = Cycles::new(total_compute) + STAGE_OVERHEAD;
        KernelTiming::new(
            total,
            vec![
                Segment::new("layernorm", Cycles::new(ln)),
                Segment::new("residual", Cycles::new(res)),
                Segment::new("overhead", STAGE_OVERHEAD),
            ],
        )
    }

    /// Timing of an element-wise pass (GELU) over `dim` elements on the
    /// shared vector lanes.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is zero.
    pub fn elementwise_timing(&self, dim: usize) -> KernelTiming {
        assert!(dim > 0, "degenerate element-wise job");
        let lanes = self.cfg.effective_cp_lanes() as u64;
        let cycles = (dim as u64).div_ceil(lanes) + 8;
        let total = Cycles::new(cycles) + STAGE_OVERHEAD;
        KernelTiming::new(
            total,
            vec![
                Segment::new("elementwise", Cycles::new(cycles)),
                Segment::new("overhead", STAGE_OVERHEAD),
            ],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OptimizationFlags;

    fn kernel(fused: bool) -> FusedLnResKernel {
        let cfg = ArchConfig::builder()
            .opts(OptimizationFlags {
                fuse_ln_res: fused,
                ..OptimizationFlags::ALL
            })
            .build()
            .unwrap();
        FusedLnResKernel::new(&cfg)
    }

    fn job(dim: usize) -> LnResJob {
        LnResJob {
            dim,
            with_residual: true,
        }
    }

    #[test]
    fn fusion_and_lanes_cut_latency_substantially() {
        let fused = kernel(true).timing(&job(1024)).total;
        let plain = kernel(false).timing(&job(1024)).total;
        // 8 lanes + overlap vs 1 lane serial: better than 5x
        assert!(
            plain.as_f64() / fused.as_f64() > 5.0,
            "fused {fused} vs plain {plain}"
        );
    }

    #[test]
    fn residual_free_jobs_are_cheaper_when_serial() {
        let k = kernel(false);
        let with = k.timing(&job(1024)).total;
        let without = k
            .timing(&LnResJob {
                dim: 1024,
                with_residual: false,
            })
            .total;
        assert!(without < with);
    }

    #[test]
    fn fused_residual_is_free() {
        // When fused, the residual overlaps the LN passes entirely.
        let k = kernel(true);
        let with = k.timing(&job(1024)).total;
        let without = k
            .timing(&LnResJob {
                dim: 1024,
                with_residual: false,
            })
            .total;
        assert_eq!(with, without);
    }

    #[test]
    fn elementwise_scales_with_dim_and_lanes() {
        let wide = kernel(true).elementwise_timing(4096).total.as_f64();
        let narrow = kernel(false).elementwise_timing(4096).total.as_f64();
        assert!(narrow / wide > 4.0, "lanes should speed GELU up");
    }

    #[test]
    #[should_panic(expected = "degenerate LN job")]
    fn zero_dim_rejected() {
        let _ = kernel(true).timing(&LnResJob {
            dim: 0,
            with_residual: false,
        });
    }
}
