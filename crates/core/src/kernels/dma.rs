//! DMA engines.
//!
//! Each MP slice "is connected to an HBM channel via the DMA engine"; the
//! engine "runs in burst mode to load concatenated n_group×8-bit datapacks"
//! (paper Section III-D). [`DmaEngine`] answers how long a given transfer
//! occupies its channels.

use looplynx_sim::hbm::HbmChannel;
use looplynx_sim::time::Cycles;

use crate::config::ArchConfig;

/// A group of DMA engines striping one logical stream over several HBM
/// channels.
#[derive(Debug, Clone, PartialEq)]
pub struct DmaEngine {
    channel: HbmChannel,
    channels: usize,
    burst_bytes: usize,
}

impl DmaEngine {
    /// Creates an engine over `channels` channels of the configured HBM.
    ///
    /// # Panics
    ///
    /// Panics if `channels` is zero.
    pub fn new(cfg: &ArchConfig, channels: usize) -> Self {
        assert!(channels > 0, "DMA needs at least one channel");
        DmaEngine {
            channel: cfg.hbm_channel(),
            channels,
            burst_bytes: cfg.burst_bytes(),
        }
    }

    /// Channels striped over.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Cycles to stream `bytes` striped evenly over the channels.
    pub fn transfer_cycles(&self, bytes: usize) -> Cycles {
        if bytes == 0 {
            return Cycles::ZERO;
        }
        let per_channel = bytes.div_ceil(self.channels);
        self.channel.transfer_cycles(per_channel, self.burst_bytes)
    }

    /// Effective aggregate bandwidth in bytes/cycle at the configured burst.
    pub fn effective_bytes_per_cycle(&self) -> f64 {
        self.channels as f64
            * self.channel.peak_bytes_per_cycle()
            * self.channel.burst_efficiency(self.burst_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ArchConfig {
        ArchConfig::paper()
    }

    #[test]
    fn more_channels_are_faster() {
        let one = DmaEngine::new(&cfg(), 1);
        let ten = DmaEngine::new(&cfg(), 10);
        let bytes = 1 << 20;
        let t1 = one.transfer_cycles(bytes).as_f64();
        let t10 = ten.transfer_cycles(bytes).as_f64();
        assert!((t1 / t10 - 10.0).abs() < 0.2, "ratio {}", t1 / t10);
    }

    #[test]
    fn zero_bytes_is_free() {
        assert_eq!(DmaEngine::new(&cfg(), 4).transfer_cycles(0), Cycles::ZERO);
    }

    #[test]
    fn effective_bandwidth_close_to_peak() {
        let e = DmaEngine::new(&cfg(), 10);
        let peak = 10.0 * cfg().hbm_channel().peak_bytes_per_cycle();
        let eff = e.effective_bytes_per_cycle();
        assert!(eff > 0.9 * peak && eff <= peak);
    }

    #[test]
    fn transfer_monotone_in_bytes() {
        let e = DmaEngine::new(&cfg(), 4);
        let mut last = Cycles::ZERO;
        for kb in [1usize, 4, 16, 64, 256] {
            let t = e.transfer_cycles(kb * 1024);
            assert!(t >= last);
            last = t;
        }
    }

    #[test]
    #[should_panic(expected = "at least one channel")]
    fn zero_channels_rejected() {
        let _ = DmaEngine::new(&cfg(), 0);
    }
}
