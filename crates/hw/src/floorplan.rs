//! SLR floorplanning (paper Fig. 7 left panel).
//!
//! "One Alveo U50 FPGA is composed of two super logic regions (SLRs) …
//! one accelerator node can fit within one SLR region. Therefore, we deploy
//! two accelerator nodes across two SLRs in one Alveo U50 FPGA."
//! [`FloorPlan::place`] verifies that fit and renders the layout.

use std::fmt;

use crate::device::FpgaDevice;
use crate::resources::ResourceVector;

/// Error returned when a node does not fit its SLR.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementError {
    slr: usize,
    needed: ResourceVector,
    available: ResourceVector,
}

impl fmt::Display for PlacementError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "node does not fit SLR{}: needs {} but SLR offers {}",
            self.slr, self.needed, self.available
        )
    }
}

impl std::error::Error for PlacementError {}

/// A node placed on one SLR.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacedNode {
    /// Node index within the ring.
    pub node_id: usize,
    /// Device index.
    pub device: usize,
    /// SLR index within the device.
    pub slr: usize,
    /// Resources the node occupies.
    pub resources: ResourceVector,
    /// Fraction of the SLR's binding resource consumed.
    pub slr_utilization: f64,
}

/// A complete multi-device placement.
#[derive(Debug, Clone, PartialEq)]
pub struct FloorPlan {
    device_name: String,
    slrs_per_device: usize,
    nodes: Vec<PlacedNode>,
}

impl FloorPlan {
    /// Places `ring_nodes` identical nodes onto as many devices as needed,
    /// one node per SLR, filling each device before opening the next.
    ///
    /// # Errors
    ///
    /// Returns [`PlacementError`] if a node exceeds its SLR's resources.
    pub fn place(
        device: &FpgaDevice,
        node_resources: ResourceVector,
        ring_nodes: usize,
    ) -> Result<FloorPlan, PlacementError> {
        let slr = device.slr_resources();
        let mut nodes = Vec::with_capacity(ring_nodes);
        for id in 0..ring_nodes {
            let slr_idx = id % device.slr_count();
            if !node_resources.fits_within(&slr) {
                return Err(PlacementError {
                    slr: slr_idx,
                    needed: node_resources,
                    available: slr,
                });
            }
            nodes.push(PlacedNode {
                node_id: id,
                device: id / device.slr_count(),
                slr: slr_idx,
                resources: node_resources,
                slr_utilization: node_resources.max_utilization_of(&slr),
            });
        }
        Ok(FloorPlan {
            device_name: device.name().to_owned(),
            slrs_per_device: device.slr_count(),
            nodes,
        })
    }

    /// Placed nodes in ring order.
    pub fn nodes(&self) -> &[PlacedNode] {
        &self.nodes
    }

    /// Number of devices the plan occupies.
    pub fn devices(&self) -> usize {
        self.nodes.iter().map(|n| n.device + 1).max().unwrap_or(0)
    }

    /// Renders the Fig. 7-style layout: one box per device, one row per
    /// SLR, ring links drawn between consecutive nodes. Every row of a box
    /// is padded to the width of its title border.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for dev in 0..self.devices() {
            let top = format!("┌── {} #{dev} ──────────────┐", self.device_name);
            let inner = top.chars().count() - 2;
            out.push_str(&top);
            out.push('\n');
            for slr in (0..self.slrs_per_device).rev() {
                let occupant = self.nodes.iter().find(|n| n.device == dev && n.slr == slr);
                let row = match occupant {
                    Some(n) => format!(
                        " SLR{slr}: node {} ({:>4.1}% busy)",
                        n.node_id,
                        n.slr_utilization * 100.0
                    ),
                    None => format!(" SLR{slr}: (empty)"),
                };
                out.push_str(&format!("│{row:<inner$}│\n"));
            }
            out.push_str(&format!("└{}┘\n", "─".repeat(inner)));
            if dev + 1 < self.devices() {
                out.push_str("        │ ring (AXI-Stream)\n");
            }
        }
        out
    }
}

impl fmt::Display for FloorPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} nodes on {} device(s) of {}",
            self.nodes.len(),
            self.devices(),
            self.device_name
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resources::NodeResourceModel;

    #[test]
    fn paper_dual_node_placement() {
        let plan = FloorPlan::place(
            &FpgaDevice::alveo_u50(),
            NodeResourceModel::paper().per_node(2),
            2,
        )
        .unwrap();
        assert_eq!(plan.devices(), 1);
        assert_eq!(plan.nodes().len(), 2);
        assert_eq!(plan.nodes()[0].slr, 0);
        assert_eq!(plan.nodes()[1].slr, 1);
    }

    #[test]
    fn four_nodes_take_two_devices() {
        let plan = FloorPlan::place(
            &FpgaDevice::alveo_u50(),
            NodeResourceModel::paper().per_node(4),
            4,
        )
        .unwrap();
        assert_eq!(plan.devices(), 2);
        assert_eq!(plan.nodes()[2].device, 1);
    }

    #[test]
    fn oversized_node_fails_placement() {
        let huge = ResourceVector::new(1e6, 1e9, 1e9, 1e6, 1e6);
        let err = FloorPlan::place(&FpgaDevice::alveo_u50(), huge, 1).unwrap_err();
        assert!(err.to_string().contains("does not fit"));
    }

    #[test]
    fn utilization_is_sane() {
        let plan = FloorPlan::place(
            &FpgaDevice::alveo_u50(),
            NodeResourceModel::paper().per_node(2),
            2,
        )
        .unwrap();
        for n in plan.nodes() {
            assert!(n.slr_utilization > 0.1 && n.slr_utilization <= 1.0);
        }
    }

    #[test]
    fn render_shows_every_node() {
        let plan = FloorPlan::place(
            &FpgaDevice::alveo_u50(),
            NodeResourceModel::paper().per_node(4),
            4,
        )
        .unwrap();
        let art = plan.render();
        assert!(art.contains("node 0"));
        assert!(art.contains("node 3"));
        assert!(art.contains("ring"));
        // every line of a box is as wide as its border
        let widths: Vec<usize> = art
            .lines()
            .filter(|l| l.starts_with(['┌', '│', '└']))
            .map(|l| l.chars().count())
            .collect();
        assert_eq!(widths.len(), 8);
        assert!(widths.iter().all(|&w| w == widths[0]), "{widths:?}\n{art}");
    }

    #[test]
    fn display_summarises() {
        let plan = FloorPlan::place(
            &FpgaDevice::alveo_u50(),
            NodeResourceModel::paper().per_node(1),
            1,
        )
        .unwrap();
        assert!(plan.to_string().contains("1 nodes on 1 device"));
    }
}
