//! FPGA resource vectors and the LoopLynx resource composition model.
//!
//! The composition model reproduces the paper's Table II utilization rows
//! from three ingredients:
//!
//! 1. **Per-node kernel resources** — the macro dataflow kernels
//!    (Fig. 7's component rows describe the dual-node device; one node is
//!    half of each row).
//! 2. **A per-node shared buffer** whose BRAM shrinks with ring size
//!    (`240 / nodes` — the KV/activation staging buffer is head-partitioned,
//!    so more nodes each hold a smaller slice).
//! 3. **A per-device static region (shell)** paid once per FPGA.
//!
//! With the constants below this reconstructs every Table II row within
//! 0.2 %: 1-node {568 DSP, 220K LUT, 313K FF, 641 BRAM}, 2-node
//! {1132, 312K, 478K, 924.5}, 4-node (two devices) {2264, 624K, 954K, 1609}.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul};

/// Quantities of each FPGA resource type.
///
/// Stored as `f64` because Xilinx reports fractional BRAM (36Kb blocks used
/// as two 18Kb halves), e.g. the paper's 924.5 BRAM.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ResourceVector {
    /// DSP48 slices.
    pub dsp: f64,
    /// Look-up tables.
    pub lut: f64,
    /// Flip-flops.
    pub ff: f64,
    /// 36Kb block RAMs (fractional halves allowed).
    pub bram: f64,
    /// UltraRAM blocks.
    pub uram: f64,
}

impl ResourceVector {
    /// All-zero vector.
    pub const ZERO: ResourceVector = ResourceVector {
        dsp: 0.0,
        lut: 0.0,
        ff: 0.0,
        bram: 0.0,
        uram: 0.0,
    };

    /// Creates a vector.
    pub const fn new(dsp: f64, lut: f64, ff: f64, bram: f64, uram: f64) -> Self {
        ResourceVector {
            dsp,
            lut,
            ff,
            bram,
            uram,
        }
    }

    /// Whether every component of `self` fits within `budget`.
    pub fn fits_within(&self, budget: &ResourceVector) -> bool {
        self.dsp <= budget.dsp
            && self.lut <= budget.lut
            && self.ff <= budget.ff
            && self.bram <= budget.bram
            && self.uram <= budget.uram
    }

    /// Per-resource utilization fractions of `budget`
    /// (`[dsp, lut, ff, bram, uram]`; zero-budget entries report 0).
    fn utilization_of(&self, budget: &ResourceVector) -> [f64; 5] {
        fn frac(used: f64, total: f64) -> f64 {
            if total <= 0.0 {
                0.0
            } else {
                used / total
            }
        }
        [
            frac(self.dsp, budget.dsp),
            frac(self.lut, budget.lut),
            frac(self.ff, budget.ff),
            frac(self.bram, budget.bram),
            frac(self.uram, budget.uram),
        ]
    }

    /// The largest utilization fraction — the binding constraint.
    pub fn max_utilization_of(&self, budget: &ResourceVector) -> f64 {
        self.utilization_of(budget).into_iter().fold(0.0, f64::max)
    }
}

impl Add for ResourceVector {
    type Output = ResourceVector;
    fn add(self, rhs: ResourceVector) -> ResourceVector {
        ResourceVector {
            dsp: self.dsp + rhs.dsp,
            lut: self.lut + rhs.lut,
            ff: self.ff + rhs.ff,
            bram: self.bram + rhs.bram,
            uram: self.uram + rhs.uram,
        }
    }
}

impl AddAssign for ResourceVector {
    fn add_assign(&mut self, rhs: ResourceVector) {
        *self = *self + rhs;
    }
}

impl Mul<f64> for ResourceVector {
    type Output = ResourceVector;
    fn mul(self, k: f64) -> ResourceVector {
        ResourceVector {
            dsp: self.dsp * k,
            lut: self.lut * k,
            ff: self.ff * k,
            bram: self.bram * k,
            uram: self.uram * k,
        }
    }
}

impl Sum for ResourceVector {
    fn sum<I: Iterator<Item = ResourceVector>>(iter: I) -> ResourceVector {
        iter.fold(ResourceVector::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for ResourceVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "DSP {:.0}, LUT {:.0}K, FF {:.0}K, BRAM {:.1}, URAM {:.0}",
            self.dsp,
            self.lut / 1e3,
            self.ff / 1e3,
            self.bram,
            self.uram
        )
    }
}

/// One named component of the accelerator (a Fig. 7 row).
#[derive(Debug, Clone, PartialEq)]
pub struct ComponentResources {
    /// Component name as printed in Fig. 7.
    pub name: String,
    /// Resources used by this component.
    pub resources: ResourceVector,
}

/// The LoopLynx resource composition model.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeResourceModel {
    /// Kernel resources of one node, excluding the shared buffer BRAM.
    node_fixed: ResourceVector,
    /// BRAM of the shared staging buffer for a single-node ring; divided by
    /// the ring size for larger rings (head-wise partitioning).
    shared_buffer_bram: f64,
    /// Static-region (shell) resources paid once per device.
    shell: ResourceVector,
    /// Nodes that fit on one device (one per SLR on the U50).
    nodes_per_device: usize,
}

impl NodeResourceModel {
    /// The paper's model (Alveo U50, two nodes per device).
    pub fn paper() -> Self {
        NodeResourceModel {
            node_fixed: ResourceVector::new(564.0, 92_000.0, 165_000.0, 283.5, 0.0),
            shared_buffer_bram: 240.0,
            shell: ResourceVector::new(4.0, 128_000.0, 148_000.0, 117.5, 4.0),
            nodes_per_device: 2,
        }
    }

    /// Creates a custom model.
    ///
    /// # Panics
    ///
    /// Panics if `nodes_per_device` is zero.
    pub fn new(
        node_fixed: ResourceVector,
        shared_buffer_bram: f64,
        shell: ResourceVector,
        nodes_per_device: usize,
    ) -> Self {
        assert!(nodes_per_device > 0, "need at least one node per device");
        NodeResourceModel {
            node_fixed,
            shared_buffer_bram,
            shell,
            nodes_per_device,
        }
    }

    /// Nodes placed on one device.
    pub fn nodes_per_device(&self) -> usize {
        self.nodes_per_device
    }

    /// Shell resources of one device.
    pub fn shell(&self) -> ResourceVector {
        self.shell
    }

    /// Resources of one node in a ring of `ring_nodes`.
    ///
    /// # Panics
    ///
    /// Panics if `ring_nodes` is zero.
    pub fn per_node(&self, ring_nodes: usize) -> ResourceVector {
        assert!(ring_nodes > 0, "ring size must be positive");
        let mut r = self.node_fixed;
        r.bram += self.shared_buffer_bram / ring_nodes as f64;
        r
    }

    /// Devices needed for a ring of `ring_nodes`.
    pub fn devices_for(&self, ring_nodes: usize) -> usize {
        ring_nodes.div_ceil(self.nodes_per_device)
    }

    /// Total resources of one device carrying `nodes_on_device` nodes of a
    /// ring of the same size (the paper's single-device configurations).
    pub fn device_total(&self, nodes_on_device: usize) -> ResourceVector {
        self.per_node(nodes_on_device) * nodes_on_device as f64 + self.shell
    }

    /// Total resources across all devices for a ring of `ring_nodes`.
    pub fn ring_total(&self, ring_nodes: usize) -> ResourceVector {
        let devices = self.devices_for(ring_nodes);
        self.per_node(ring_nodes) * ring_nodes as f64 + self.shell * devices as f64
    }

    /// Fig. 7 component breakdown for a device carrying `nodes_on_device`
    /// nodes (the paper prints the dual-node device).
    ///
    /// Component rows are the paper's constants scaled from the dual-node
    /// reference; the shared-buffer BRAM lives in the Fused LN kernel row.
    pub fn component_breakdown(&self, nodes_on_device: usize) -> Vec<ComponentResources> {
        let n = nodes_on_device as f64;
        // Per-node component split of the dual-node Fig. 7 rows.
        let rows = [
            ("Fused MP Kernel", 261.0, 17_000.0, 28_000.0, 120.5),
            ("Fused MHA Kernel", 191.0, 19_000.0, 22_500.0, 8.0),
            ("Fused LN Kernel", 96.0, 11_500.0, 15_000.0, 0.0),
            ("DMA", 0.0, 8_000.0, 14_000.0, 48.5),
            ("Other Kernels/Buffer", 16.0, 8_500.0, 13_000.0, 0.5),
        ];
        let mut out: Vec<ComponentResources> = rows
            .iter()
            .map(|&(name, dsp, lut, ff, bram)| {
                let mut r = ResourceVector::new(dsp, lut, ff, bram, 0.0) * n;
                if name == "Fused LN Kernel" {
                    // Shared staging buffer: total BRAM is constant per ring
                    // node count; the dual-node device shows 240.
                    r.bram += self.shared_buffer_bram / nodes_on_device as f64 * n;
                    // (= shared_buffer_bram; kept explicit for clarity)
                }
                ComponentResources {
                    name: name.to_owned(),
                    resources: r,
                }
            })
            .collect();
        out.push(ComponentResources {
            name: "Routing/Infra".to_owned(),
            resources: ResourceVector::new(0.0, 28_000.0, 72_500.0, 106.0, 0.0) * n,
        });
        out.push(ComponentResources {
            name: "Shell (static)".to_owned(),
            resources: self.shell,
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol * b.abs().max(1.0)
    }

    #[test]
    fn vector_arithmetic() {
        let a = ResourceVector::new(1.0, 2.0, 3.0, 4.0, 5.0);
        let b = ResourceVector::new(10.0, 20.0, 30.0, 40.0, 50.0);
        let s = a + b;
        assert_eq!(s.dsp, 11.0);
        assert_eq!((a * 2.0).bram, 8.0);
        let total: ResourceVector = [a, b].into_iter().sum();
        assert_eq!(total.uram, 55.0);
    }

    #[test]
    fn fits_and_utilization() {
        let used = ResourceVector::new(50.0, 100.0, 100.0, 10.0, 0.0);
        let budget = ResourceVector::new(100.0, 200.0, 400.0, 20.0, 10.0);
        assert!(used.fits_within(&budget));
        let u = used.utilization_of(&budget);
        assert_eq!(u[0], 0.5);
        assert_eq!(u[4], 0.0);
        assert_eq!(used.max_utilization_of(&budget), 0.5);
        let too_big = ResourceVector::new(101.0, 0.0, 0.0, 0.0, 0.0);
        assert!(!too_big.fits_within(&budget));
    }

    #[test]
    fn table2_one_node_row() {
        let m = NodeResourceModel::paper();
        let r = m.device_total(1);
        assert!(close(r.dsp, 568.0, 0.01), "dsp {}", r.dsp);
        assert!(close(r.lut, 220_000.0, 0.01), "lut {}", r.lut);
        assert!(close(r.ff, 313_000.0, 0.01), "ff {}", r.ff);
        assert!(close(r.bram, 641.0, 0.01), "bram {}", r.bram);
        assert!(close(r.uram, 4.0, 0.01), "uram {}", r.uram);
    }

    #[test]
    fn table2_two_node_row() {
        let m = NodeResourceModel::paper();
        let r = m.device_total(2);
        assert!(close(r.dsp, 1132.0, 0.01));
        assert!(close(r.lut, 312_000.0, 0.01));
        assert!(close(r.ff, 478_000.0, 0.01));
        assert!(close(r.bram, 924.5, 0.01));
    }

    #[test]
    fn table2_four_node_row() {
        let m = NodeResourceModel::paper();
        assert_eq!(m.devices_for(4), 2);
        let r = m.ring_total(4);
        assert!(close(r.dsp, 2264.0, 0.01), "dsp {}", r.dsp);
        assert!(close(r.lut, 624_000.0, 0.01), "lut {}", r.lut);
        assert!(close(r.ff, 954_000.0, 0.01), "ff {}", r.ff);
        assert!(close(r.bram, 1609.0, 0.01), "bram {}", r.bram);
        assert!(close(r.uram, 8.0, 0.01), "uram {}", r.uram);
    }

    #[test]
    fn shared_buffer_shrinks_with_ring() {
        let m = NodeResourceModel::paper();
        let one = m.per_node(1).bram;
        let four = m.per_node(4).bram;
        assert!(one > four);
        assert!(close(one - four, 240.0 * (1.0 - 0.25), 0.01));
    }

    #[test]
    fn fig7_components_sum_near_device_total() {
        let m = NodeResourceModel::paper();
        let parts: ResourceVector = m
            .component_breakdown(2)
            .into_iter()
            .map(|c| c.resources)
            .sum();
        let total = m.device_total(2);
        assert!(
            close(parts.dsp, total.dsp, 0.01),
            "{} vs {}",
            parts.dsp,
            total.dsp
        );
        assert!(close(parts.lut, total.lut, 0.01));
        assert!(close(parts.ff, total.ff, 0.01));
        assert!(
            close(parts.bram, total.bram, 0.01),
            "{} vs {}",
            parts.bram,
            total.bram
        );
    }

    #[test]
    fn fig7_kernel_rows_match_paper() {
        let m = NodeResourceModel::paper();
        let parts = m.component_breakdown(2);
        let mp = parts.iter().find(|c| c.name.contains("MP")).unwrap();
        assert!(close(mp.resources.dsp, 522.0, 0.01));
        assert!(close(mp.resources.lut, 34_000.0, 0.01));
        let ln = parts.iter().find(|c| c.name.contains("LN")).unwrap();
        assert!(
            close(ln.resources.bram, 240.0, 0.01),
            "{}",
            ln.resources.bram
        );
        let mha = parts.iter().find(|c| c.name.contains("MHA")).unwrap();
        assert!(close(mha.resources.dsp, 382.0, 0.01));
    }

    #[test]
    fn display_is_compact() {
        let r = ResourceVector::new(568.0, 220_000.0, 313_000.0, 641.0, 4.0);
        let s = r.to_string();
        assert!(s.contains("DSP 568"));
        assert!(s.contains("LUT 220K"));
    }

    #[test]
    #[should_panic(expected = "ring size must be positive")]
    fn zero_ring_rejected() {
        let _ = NodeResourceModel::paper().per_node(0);
    }
}
