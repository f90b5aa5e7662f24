//! High-bandwidth-memory channel model.
//!
//! The paper's accelerator stores weights and the KV cache in off-chip HBM
//! and measures inference with "cycle-accurate simulation, fully accounting
//! for the per-channel HBM bandwidth (peak 8.49 GB/s)". Each MP slice of the
//! fused matrix-processing kernel is fed by one HBM channel through a DMA
//! engine running in *burst mode*, loading concatenated `n_group × 8-bit`
//! datapacks (`n_group = 32`, i.e. 32-byte datapacks).
//!
//! This module models a channel as a peak byte rate plus a fixed
//! per-burst overhead, which yields the usual burst-length efficiency curve:
//! long bursts approach peak bandwidth, short bursts are dominated by
//! protocol overhead.

use std::fmt;

use crate::time::{Cycles, Frequency};

/// One HBM (pseudo-)channel.
#[derive(Debug, Clone, PartialEq)]
pub struct HbmChannel {
    peak_bytes_per_cycle: f64,
    burst_overhead: Cycles,
    max_burst_bytes: usize,
}

impl HbmChannel {
    /// Creates a channel from its peak bandwidth in bytes/cycle.
    ///
    /// # Panics
    ///
    /// Panics if `peak_bytes_per_cycle` is not strictly positive or
    /// `max_burst_bytes` is zero.
    pub fn new(peak_bytes_per_cycle: f64, burst_overhead: Cycles, max_burst_bytes: usize) -> Self {
        assert!(
            peak_bytes_per_cycle.is_finite() && peak_bytes_per_cycle > 0.0,
            "peak bandwidth must be positive"
        );
        assert!(max_burst_bytes > 0, "burst size must be positive");
        HbmChannel {
            peak_bytes_per_cycle,
            burst_overhead,
            max_burst_bytes,
        }
    }

    /// Creates the paper's channel: peak 8.49 GB/s on the given kernel clock.
    ///
    /// At 285 MHz this is ≈29.8 bytes/cycle — slightly less than one
    /// 32-byte datapack per cycle, which is why the MAC array (consuming
    /// 32 B/cycle) is memory-bound on a single channel.
    pub fn paper_channel(clock: Frequency) -> Self {
        HbmChannel::new(clock.bytes_per_cycle(8.49e9), Cycles::new(8), 4096)
    }

    /// Peak bandwidth in bytes per cycle.
    pub fn peak_bytes_per_cycle(&self) -> f64 {
        self.peak_bytes_per_cycle
    }

    /// Largest contiguous burst the DMA engine issues.
    pub fn max_burst_bytes(&self) -> usize {
        self.max_burst_bytes
    }

    /// Cycles to transfer `bytes` using bursts of `burst_bytes` each.
    ///
    /// The transfer is split into `ceil(bytes / burst)` bursts; each pays the
    /// fixed overhead once and then streams at peak bandwidth. Consecutive
    /// bursts are pipelined on the data bus, so overhead of burst *i+1*
    /// overlaps the tail of burst *i* only up to the bus occupancy — we model
    /// the conservative (non-overlapped) case, which matches AXI read
    /// channels without outstanding transactions and keeps the model simple
    /// and monotone.
    ///
    /// # Panics
    ///
    /// Panics if `burst_bytes` is zero or exceeds [`max_burst_bytes`].
    ///
    /// [`max_burst_bytes`]: HbmChannel::max_burst_bytes
    pub fn transfer_cycles(&self, bytes: usize, burst_bytes: usize) -> Cycles {
        assert!(burst_bytes > 0, "burst length must be positive");
        assert!(
            burst_bytes <= self.max_burst_bytes,
            "burst {burst_bytes} exceeds channel max {}",
            self.max_burst_bytes
        );
        if bytes == 0 {
            return Cycles::ZERO;
        }
        let bursts = bytes.div_ceil(burst_bytes) as u64;
        let stream = Cycles::from_f64_ceil(bytes as f64 / self.peak_bytes_per_cycle);
        stream + self.burst_overhead * bursts
    }

    /// Effective bandwidth (bytes/cycle) achieved for the given burst length.
    fn effective_bandwidth(&self, burst_bytes: usize) -> f64 {
        let cycles = self.transfer_cycles(burst_bytes, burst_bytes);
        burst_bytes as f64 / cycles.as_f64()
    }

    /// Burst efficiency in `[0, 1]`: effective / peak bandwidth.
    pub fn burst_efficiency(&self, burst_bytes: usize) -> f64 {
        self.effective_bandwidth(burst_bytes) / self.peak_bytes_per_cycle
    }
}

impl fmt::Display for HbmChannel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "HBM channel {:.2} B/cyc peak, {} per burst",
            self.peak_bytes_per_cycle, self.burst_overhead
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clock() -> Frequency {
        Frequency::from_mhz(285.0)
    }

    #[test]
    fn paper_channel_is_just_under_a_datapack_per_cycle() {
        let ch = HbmChannel::paper_channel(clock());
        let bpc = ch.peak_bytes_per_cycle();
        assert!(bpc > 29.0 && bpc < 32.0);
    }

    #[test]
    fn transfer_scales_linearly_at_large_sizes() {
        let ch = HbmChannel::paper_channel(clock());
        let one = ch.transfer_cycles(1 << 20, 4096).as_f64();
        let two = ch.transfer_cycles(2 << 20, 4096).as_f64();
        let ratio = two / one;
        assert!((ratio - 2.0).abs() < 0.01, "ratio {ratio}");
    }

    #[test]
    fn longer_bursts_are_more_efficient() {
        let ch = HbmChannel::paper_channel(clock());
        let short = ch.burst_efficiency(64);
        let long = ch.burst_efficiency(4096);
        assert!(long > short);
        assert!(long > 0.9, "long-burst efficiency {long}");
        assert!(short < 0.2, "short-burst efficiency {short}");
    }

    #[test]
    fn zero_bytes_costs_nothing() {
        let ch = HbmChannel::paper_channel(clock());
        assert_eq!(ch.transfer_cycles(0, 4096), Cycles::ZERO);
    }

    #[test]
    #[should_panic(expected = "exceeds channel max")]
    fn oversized_burst_rejected() {
        let ch = HbmChannel::paper_channel(clock());
        let _ = ch.transfer_cycles(1 << 20, 1 << 20);
    }

    #[test]
    fn transfer_is_monotone_in_bytes() {
        let ch = HbmChannel::paper_channel(clock());
        let mut prev = Cycles::ZERO;
        for kb in 1..64 {
            let t = ch.transfer_cycles(kb * 1024, 4096);
            assert!(t >= prev);
            prev = t;
        }
    }

    #[test]
    fn display_is_informative() {
        let s = HbmChannel::paper_channel(clock()).to_string();
        assert!(s.contains("B/cyc"));
        assert!(s.contains("per burst"));
    }
}
