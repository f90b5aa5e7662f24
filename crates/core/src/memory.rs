//! Per-node HBM capacity budgeting.
//!
//! "Weights and the KV cache are stored in off-chip high-bandwidth memory"
//! (paper Section III-A). The Alveo U50 carries 8 GB of HBM2; a deployment
//! is only valid if each node's weight shard plus its head-partitioned KV
//! cache (at the maximum sequence length and batch) fits. This module
//! answers that question — and quantifies the paper's claim that head-wise
//! partitioning "minimizes the memory footprint on each device".

use std::fmt;

use looplynx_model::config::ModelConfig;

use crate::config::ArchConfig;

/// U50 HBM capacity in bytes (8 GB).
pub const U50_HBM_BYTES: usize = 8 * 1024 * 1024 * 1024;

/// Per-node HBM occupancy of a deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HbmBudget {
    /// Int8 weight bytes stored on one node (output-dimension shard).
    pub weight_bytes: usize,
    /// Int8 KV-cache bytes on one node at the maximum sequence length
    /// (head-wise shard across all layers).
    pub kv_bytes: usize,
    /// HBM capacity of the device, shared by the nodes placed on it.
    pub capacity_bytes: usize,
    /// Nodes sharing the device's HBM stacks.
    pub nodes_per_device: usize,
}

impl HbmBudget {
    /// Total bytes one node occupies.
    fn used_bytes(&self) -> usize {
        self.weight_bytes + self.kv_bytes
    }

    /// Bytes available to one node (equal split of the device capacity).
    fn available_bytes(&self) -> usize {
        self.capacity_bytes / self.nodes_per_device
    }

    /// Whether the deployment fits.
    pub fn fits(&self) -> bool {
        self.used_bytes() <= self.available_bytes()
    }

    /// Occupancy fraction of the node's share.
    pub fn utilization(&self) -> f64 {
        self.used_bytes() as f64 / self.available_bytes() as f64
    }
}

impl fmt::Display for HbmBudget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.1} MB weights + {:.1} MB KV of {:.0} MB/node ({:.1}%)",
            self.weight_bytes as f64 / 1e6,
            self.kv_bytes as f64 / 1e6,
            self.available_bytes() as f64 / 1e6,
            self.utilization() * 100.0
        )
    }
}

/// Computes the per-node HBM budget for `model` at `max_seq` context on
/// this architecture.
///
/// # Panics
///
/// Panics if `max_seq` is zero.
pub fn hbm_budget(cfg: &ArchConfig, model: &ModelConfig, max_seq: usize) -> HbmBudget {
    assert!(max_seq > 0, "max_seq must be positive");
    let n = cfg.nodes();
    let weight_bytes = model.weights_bytes_total().div_ceil(n);
    let kv_bytes = model.layers * model.kv_bytes_per_token_per_layer() * max_seq / n;
    HbmBudget {
        weight_bytes,
        kv_bytes,
        capacity_bytes: U50_HBM_BYTES,
        nodes_per_device: cfg.resource_model().nodes_per_device().min(n.max(1)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(nodes: usize) -> ArchConfig {
        ArchConfig::builder().nodes(nodes).build().unwrap()
    }

    #[test]
    fn gpt2_medium_fits_comfortably() {
        let b = hbm_budget(&cfg(2), &ModelConfig::gpt2_medium(), 1024);
        assert!(b.fits(), "{b}");
        // ~177 MB weights + ~25 MB KV against 4 GB/node
        assert!(b.utilization() < 0.1, "utilization {}", b.utilization());
    }

    #[test]
    fn footprint_shrinks_with_nodes() {
        let m = ModelConfig::gpt2_medium();
        let one = hbm_budget(&cfg(1), &m, 1024);
        let four = hbm_budget(&cfg(4), &m, 1024);
        assert!(four.weight_bytes < one.weight_bytes / 3);
        assert_eq!(four.kv_bytes * 4, one.kv_bytes);
    }

    #[test]
    fn kv_grows_with_context() {
        let m = ModelConfig::gpt2_medium();
        let short = hbm_budget(&cfg(2), &m, 128);
        let long = hbm_budget(&cfg(2), &m, 1024);
        assert_eq!(long.kv_bytes, 8 * short.kv_bytes);
        assert_eq!(long.weight_bytes, short.weight_bytes);
    }

    #[test]
    fn xl_single_node_still_fits_u50() {
        // GPT-2 XL ≈ 1.6 GB int8 on one node — under the 8 GB budget.
        let b = hbm_budget(&cfg(1), &ModelConfig::gpt2_xl(), 1024);
        assert!(b.fits(), "{b}");
        assert!(b.weight_bytes > 1_500_000_000);
    }

    #[test]
    fn display_reports_megabytes() {
        let b = hbm_budget(&cfg(2), &ModelConfig::gpt2_medium(), 512);
        let s = b.to_string();
        assert!(s.contains("MB weights"));
        assert!(s.contains('%'));
    }

    #[test]
    #[should_panic(expected = "max_seq must be positive")]
    fn zero_context_rejected() {
        let _ = hbm_budget(&cfg(1), &ModelConfig::tiny(), 0);
    }
}
