//! Power models.
//!
//! The paper obtains FPGA power from the Xilinx power analysis tool and GPU
//! power from `nvidia-smi`, then reports energy per token. We rebuild both
//! instruments:
//!
//! * [`FpgaPowerModel`] — static (shell + board) power per device plus
//!   dynamic power proportional to the resources toggling, calibrated so a
//!   dual-node U50 lands near 38 W — the operating point implied by the
//!   paper's energy ratios (2-node uses 37.3 % of the A100's energy at
//!   1.67× its speed ⇒ ≈0.62× its power).
//! * [`GpuPowerModel`] — idle power plus utilization-scaled dynamic power;
//!   GPT-2-medium decode barely utilizes an A100 (serial token generation),
//!   prefill utilizes it substantially.

use crate::resources::ResourceVector;

/// Resource-proportional FPGA power model.
#[derive(Debug, Clone, PartialEq)]
pub struct FpgaPowerModel {
    /// Watts per device regardless of activity (shell, HBM PHY, board).
    pub static_watts_per_device: f64,
    /// Dynamic milliwatts per active DSP slice at the kernel clock.
    pub mw_per_dsp: f64,
    /// Dynamic milliwatts per thousand LUTs of active logic.
    pub mw_per_klut: f64,
    /// Dynamic milliwatts per BRAM36 under continuous access.
    pub mw_per_bram: f64,
    /// Watts per active HBM channel (controller + PHY activity).
    pub watts_per_hbm_channel: f64,
}

impl FpgaPowerModel {
    /// Calibrated model for the paper's Alveo U50 design point.
    pub fn paper() -> Self {
        FpgaPowerModel {
            static_watts_per_device: 16.0,
            mw_per_dsp: 2.5,
            mw_per_klut: 40.0,
            mw_per_bram: 4.0,
            watts_per_hbm_channel: 0.35,
        }
    }

    /// Dynamic watts of one node given its resources and HBM channels,
    /// scaled by `activity` (0‥1 average toggle/occupancy factor).
    ///
    /// # Panics
    ///
    /// Panics if `activity` is outside `[0, 1]`.
    pub fn node_dynamic_watts(
        &self,
        node: &ResourceVector,
        hbm_channels: usize,
        activity: f64,
    ) -> f64 {
        assert!((0.0..=1.0).contains(&activity), "activity must be in [0,1]");
        let logic = node.dsp * self.mw_per_dsp / 1e3
            + node.lut / 1e3 * self.mw_per_klut / 1e3
            + node.bram * self.mw_per_bram / 1e3;
        (logic + hbm_channels as f64 * self.watts_per_hbm_channel) * activity
    }

    /// Total board power: devices × static + Σ node dynamic.
    pub fn total_watts(
        &self,
        devices: usize,
        node: &ResourceVector,
        nodes: usize,
        hbm_channels_per_node: usize,
        activity: f64,
    ) -> f64 {
        devices as f64 * self.static_watts_per_device
            + nodes as f64 * self.node_dynamic_watts(node, hbm_channels_per_node, activity)
    }
}

/// Utilization-based GPU power model.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuPowerModel {
    /// Idle board power in watts.
    pub idle_watts: f64,
    /// Power at 100 % utilization (TDP) in watts.
    pub peak_watts: f64,
}

impl GpuPowerModel {
    /// Calibrated A100 model: 45 W idle, 300 W TDP.
    pub fn a100() -> Self {
        GpuPowerModel {
            idle_watts: 45.0,
            peak_watts: 300.0,
        }
    }

    /// Power at the given utilization.
    ///
    /// # Panics
    ///
    /// Panics if `utilization` is outside `[0, 1]`.
    pub fn watts_at(&self, utilization: f64) -> f64 {
        assert!(
            (0.0..=1.0).contains(&utilization),
            "utilization must be in [0,1]"
        );
        self.idle_watts + utilization * (self.peak_watts - self.idle_watts)
    }
}

/// Energy in joules for running at `watts` for `seconds`.
pub fn energy_joules(watts: f64, seconds: f64) -> f64 {
    assert!(watts >= 0.0 && seconds >= 0.0, "negative power or time");
    watts * seconds
}

/// Tokens per joule given tokens produced and energy consumed.
///
/// # Panics
///
/// Panics if `joules` is not strictly positive.
pub fn tokens_per_joule(tokens: usize, joules: f64) -> f64 {
    assert!(joules > 0.0, "energy must be positive");
    tokens as f64 / joules
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resources::NodeResourceModel;

    #[test]
    fn dual_node_u50_lands_near_calibration_point() {
        let p = FpgaPowerModel::paper();
        let node = NodeResourceModel::paper().per_node(2);
        let w = p.total_watts(1, &node, 2, 12, 1.0);
        assert!(w > 30.0 && w < 45.0, "dual-node power {w} W");
    }

    #[test]
    fn single_node_uses_less_than_dual() {
        let p = FpgaPowerModel::paper();
        let m = NodeResourceModel::paper();
        let one = p.total_watts(1, &m.per_node(1), 1, 12, 1.0);
        let two = p.total_watts(1, &m.per_node(2), 2, 12, 1.0);
        assert!(one < two);
        assert!(one > 20.0, "single-node power {one} W");
    }

    #[test]
    fn four_nodes_need_two_boards_of_static_power() {
        let p = FpgaPowerModel::paper();
        let m = NodeResourceModel::paper();
        let four = p.total_watts(2, &m.per_node(4), 4, 12, 1.0);
        let two = p.total_watts(1, &m.per_node(2), 2, 12, 1.0);
        assert!(four > 1.8 * two, "four-node {four} vs two-node {two}");
    }

    #[test]
    fn power_stays_under_tdp() {
        let p = FpgaPowerModel::paper();
        let node = NodeResourceModel::paper().per_node(2);
        let w = p.total_watts(1, &node, 2, 16, 1.0);
        assert!(w < 75.0, "exceeds U50 TDP: {w}");
    }

    #[test]
    fn activity_scales_dynamic_only() {
        let p = FpgaPowerModel::paper();
        let node = NodeResourceModel::paper().per_node(2);
        let idle = p.total_watts(1, &node, 2, 12, 0.0);
        assert!((idle - p.static_watts_per_device).abs() < 1e-9);
    }

    #[test]
    fn gpu_power_interpolates() {
        let g = GpuPowerModel::a100();
        assert_eq!(g.watts_at(0.0), 45.0);
        assert_eq!(g.watts_at(1.0), 300.0);
        let mid = g.watts_at(0.5);
        assert!(mid > 45.0 && mid < 300.0);
    }

    #[test]
    fn decode_utilization_power_is_modest() {
        // the design point behind the paper's energy story: A100 drawing
        // ~65 W during serial decode
        let g = GpuPowerModel::a100();
        let w = g.watts_at(0.08);
        assert!(w > 55.0 && w < 75.0, "decode power {w}");
    }

    #[test]
    fn energy_helpers() {
        assert_eq!(energy_joules(10.0, 2.0), 20.0);
        assert!((tokens_per_joule(100, 20.0) - 5.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "must be in [0,1]")]
    fn utilization_validated() {
        let _ = GpuPowerModel::a100().watts_at(1.5);
    }
}
