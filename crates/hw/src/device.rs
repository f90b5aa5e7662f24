//! FPGA device capacity models.
//!
//! The paper deploys two accelerator nodes per Alveo U50 — "one accelerator
//! node can fit within one SLR region" — and compares against baselines on
//! the larger Alveo U280. Capacities below are the public data-sheet
//! figures for the two cards.

use std::fmt;

use crate::resources::ResourceVector;

/// An FPGA card.
#[derive(Debug, Clone, PartialEq)]
pub struct FpgaDevice {
    name: String,
    resources: ResourceVector,
    slr_count: usize,
    hbm_channels: usize,
    hbm_total_gbps: f64,
    tdp_watts: f64,
}

impl FpgaDevice {
    /// Xilinx Alveo U50: 2 SLRs, 8 GB HBM2 over 32 pseudo-channels,
    /// 201 GB/s peak, 75 W.
    pub fn alveo_u50() -> Self {
        FpgaDevice {
            name: "Alveo U50".into(),
            resources: ResourceVector::new(5952.0, 872_000.0, 1_743_000.0, 1344.0, 640.0),
            slr_count: 2,
            hbm_channels: 32,
            hbm_total_gbps: 201.0,
            tdp_watts: 75.0,
        }
    }

    /// Xilinx Alveo U280: 3 SLRs, 8 GB HBM2 + DDR4, 460 GB/s peak, 215 W.
    pub fn alveo_u280() -> Self {
        FpgaDevice {
            name: "Alveo U280".into(),
            resources: ResourceVector::new(9024.0, 1_304_000.0, 2_607_000.0, 2016.0, 960.0),
            slr_count: 3,
            hbm_channels: 32,
            hbm_total_gbps: 460.0,
            tdp_watts: 215.0,
        }
    }

    /// Device name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Total device resources.
    pub fn resources(&self) -> ResourceVector {
        self.resources
    }

    /// Number of super logic regions.
    pub fn slr_count(&self) -> usize {
        self.slr_count
    }

    /// Approximate resources of one SLR (uniform split; Xilinx SLRs are
    /// close to symmetric on these parts).
    pub fn slr_resources(&self) -> ResourceVector {
        self.resources * (1.0 / self.slr_count as f64)
    }

    /// HBM pseudo-channel count.
    pub fn hbm_channels(&self) -> usize {
        self.hbm_channels
    }

    /// Peak per-channel HBM bandwidth in GB/s.
    pub fn hbm_channel_gbps(&self) -> f64 {
        self.hbm_total_gbps / self.hbm_channels as f64
    }

    /// Board thermal design power in watts.
    pub fn tdp_watts(&self) -> f64 {
        self.tdp_watts
    }
}

impl fmt::Display for FpgaDevice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} SLRs, {} HBM ch @ {:.1} GB/s, {:.0} W TDP)",
            self.name,
            self.slr_count,
            self.hbm_channels,
            self.hbm_channel_gbps(),
            self.tdp_watts
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resources::NodeResourceModel;

    #[test]
    fn u50_capacities() {
        let d = FpgaDevice::alveo_u50();
        assert_eq!(d.slr_count(), 2);
        assert_eq!(d.hbm_channels(), 32);
        assert!((d.tdp_watts() - 75.0).abs() < 1e-9);
        // ~6.3 GB/s nominal per channel; the paper measured 8.49 peak with
        // its access pattern — both orders agree.
        assert!(d.hbm_channel_gbps() > 5.0 && d.hbm_channel_gbps() < 9.0);
    }

    #[test]
    fn u280_is_bigger_than_u50() {
        let u50 = FpgaDevice::alveo_u50();
        let u280 = FpgaDevice::alveo_u280();
        assert!(u50.resources().fits_within(&u280.resources()));
        assert!(u280.hbm_total_gbps > u50.hbm_total_gbps);
    }

    #[test]
    fn one_node_fits_one_slr() {
        // The paper's claim: "one accelerator node can fit within one SLR
        // region of the Alveo U50".
        let node = NodeResourceModel::paper().per_node(2);
        let slr = FpgaDevice::alveo_u50().slr_resources();
        assert!(node.fits_within(&slr), "node {node} vs SLR {slr}");
    }

    #[test]
    fn dual_node_fits_u50() {
        let total = NodeResourceModel::paper().device_total(2);
        assert!(total.fits_within(&FpgaDevice::alveo_u50().resources()));
    }

    #[test]
    fn slr_split_sums_back() {
        let d = FpgaDevice::alveo_u280();
        let slr = d.slr_resources();
        let back = slr * d.slr_count() as f64;
        assert!((back.dsp - d.resources().dsp).abs() < 1.0);
    }

    #[test]
    fn display_mentions_name() {
        assert!(FpgaDevice::alveo_u50().to_string().contains("U50"));
    }
}
