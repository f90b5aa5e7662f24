//! Latency breakdown buckets (paper Fig. 5).
//!
//! Every simulated token accumulates exposed cycles into four buckets:
//! linear-layer computation (fused MP kernel), multi-head attention (fused
//! MHA kernel), critical-path operators (LN/residual/GELU/quant exposure
//! plus scheduler overheads), and exposed ring synchronization. The paper's
//! Fig. 5 reports the first three as "Linear + MHA ≈ 81.5 %" vs
//! "critical path ≈ 18.5 %" for the unoptimized single node.

use std::fmt;
use std::ops::{Add, AddAssign};

use looplynx_sim::time::Cycles;

/// Exposed-cycle totals per latency bucket.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencyBreakdown {
    /// Fused MP kernel activations (all linear layers + LM head).
    pub linear: Cycles,
    /// Fused MHA kernel activations.
    pub mha: Cycles,
    /// Critical-path operators: LN, residual, GELU, exposed quantization,
    /// scheduler stage transitions.
    pub critical_path: Cycles,
    /// Exposed ring-synchronization cycles.
    pub sync: Cycles,
    /// Host-side per-token overhead (embedding, PCIe, sampling).
    pub host: Cycles,
}

impl LatencyBreakdown {
    /// All-zero breakdown.
    pub fn zero() -> Self {
        Self::default()
    }

    /// Total exposed cycles.
    pub fn total(&self) -> Cycles {
        self.linear + self.mha + self.critical_path + self.sync + self.host
    }

    /// Fraction of device time (host excluded) spent in linear + MHA — the
    /// quantity Fig. 5 tracks.
    pub fn linear_mha_fraction(&self) -> f64 {
        let device = (self.total() - self.host).as_f64();
        if device == 0.0 {
            return 0.0;
        }
        (self.linear + self.mha).as_f64() / device
    }

    /// Fraction of device time on the critical path (incl. exposed sync).
    pub fn critical_path_fraction(&self) -> f64 {
        let device = (self.total() - self.host).as_f64();
        if device == 0.0 {
            return 0.0;
        }
        (self.critical_path + self.sync).as_f64() / device
    }
}

impl Add for LatencyBreakdown {
    type Output = LatencyBreakdown;
    fn add(self, rhs: LatencyBreakdown) -> LatencyBreakdown {
        LatencyBreakdown {
            linear: self.linear + rhs.linear,
            mha: self.mha + rhs.mha,
            critical_path: self.critical_path + rhs.critical_path,
            sync: self.sync + rhs.sync,
            host: self.host + rhs.host,
        }
    }
}

impl AddAssign for LatencyBreakdown {
    fn add_assign(&mut self, rhs: LatencyBreakdown) {
        *self = *self + rhs;
    }
}

impl fmt::Display for LatencyBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "linear {} | mha {} | critical-path {} | sync {} | host {}",
            self.linear, self.mha, self.critical_path, self.sync, self.host
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> LatencyBreakdown {
        LatencyBreakdown {
            linear: Cycles::new(600),
            mha: Cycles::new(215),
            critical_path: Cycles::new(150),
            sync: Cycles::new(35),
            host: Cycles::new(100),
        }
    }

    #[test]
    fn totals_sum_buckets() {
        assert_eq!(sample().total().as_u64(), 1100);
    }

    #[test]
    fn fractions_exclude_host() {
        let b = sample();
        // device time = 1000
        assert!((b.linear_mha_fraction() - 0.815).abs() < 1e-9);
        assert!((b.critical_path_fraction() - 0.185).abs() < 1e-9);
        assert!((b.linear_mha_fraction() + b.critical_path_fraction() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zero_breakdown_is_safe() {
        let z = LatencyBreakdown::zero();
        assert_eq!(z.total(), Cycles::ZERO);
        assert_eq!(z.linear_mha_fraction(), 0.0);
        assert_eq!(z.critical_path_fraction(), 0.0);
    }

    #[test]
    fn addition_accumulates() {
        let mut acc = LatencyBreakdown::zero();
        acc += sample();
        acc += sample();
        assert_eq!(acc.total().as_u64(), 2200);
        assert_eq!(acc.linear.as_u64(), 1200);
    }

    #[test]
    fn display_names_buckets() {
        let s = sample().to_string();
        assert!(s.contains("linear"));
        assert!(s.contains("sync"));
    }
}
