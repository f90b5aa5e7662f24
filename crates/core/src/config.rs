//! Architecture configuration.
//!
//! All hardware parameters of a LoopLynx deployment live here. The six an
//! experiment sweeps are set through [`ArchConfig::builder`]: ring size,
//! MP-kernel HBM channels, the `n_group = 32` datapack geometry, DMA burst
//! length, prefill batch and the three latency-optimization flags of
//! Section III-C. The rest are the paper's design point and are constants:
//! the 285 MHz kernel clock of the decoupled FIFO design (Section III-D),
//! the KV channels, FIFO depth, unit lane counts and fixed latencies. The
//! paper's configuration is [`ArchConfig::paper`].

use std::fmt;

use looplynx_hw::power::FpgaPowerModel;
use looplynx_hw::resources::{NodeResourceModel, ResourceVector};
use looplynx_sim::hbm::HbmChannel;
use looplynx_sim::net::RingSpec;
use looplynx_sim::time::{Cycles, Frequency};

/// Largest number of activation vectors that can share one streamed
/// weight pass (batched prefill and continuous-batching decode alike) —
/// bounded by the on-chip activation buffer.
pub const MAX_WEIGHT_SHARING_BATCH: usize = 64;

/// Kernel clock in MHz (the decoupled FIFO design, Section III-D).
pub const KERNEL_MHZ: f64 = 285.0;

/// HBM channels feeding the fused MHA kernel's K and V caches per node,
/// split evenly between keys and values.
pub const KV_CHANNELS: usize = 4;

/// Inter-unit FIFO capacity in datapacks.
pub const FIFO_DEPTH: usize = 64;

/// Lanes of the critical-path (LN/residual/GELU) units when the fused
/// LN&Res optimization is on; 1 lane when off.
pub const CP_LANES: usize = 8;

/// Exponent/divide lanes of the softmax unit.
pub const SOFTMAX_LANES: usize = 4;

/// Pipeline depth of the quantization unit.
pub const QUANT_LATENCY: Cycles = Cycles::new(24);

/// Scheduler state-machine transition cost charged per stage.
pub const STAGE_OVERHEAD: Cycles = Cycles::new(400);

/// The latency-optimization techniques of paper Section III-C, each
/// individually switchable for ablation (Fig. 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OptimizationFlags {
    /// Critical-path optimizing: parallelize LN/residual lanes and overlap
    /// their execution (the fused LN&Res kernel).
    pub fuse_ln_res: bool,
    /// Head-wise pipelining: hide softmax of head *i−1* inside the
    /// attention MACs of head *i*.
    pub headwise_pipeline: bool,
    /// Transmission latency hiding: overlap ring synchronization of block
    /// *i−1* with computation of block *i*.
    pub hide_transmission: bool,
}

impl OptimizationFlags {
    /// All optimizations enabled (the paper's shipping configuration).
    pub const ALL: OptimizationFlags = OptimizationFlags {
        fuse_ln_res: true,
        headwise_pipeline: true,
        hide_transmission: true,
    };

    /// All optimizations disabled (Fig. 5(a) baseline).
    pub const NONE: OptimizationFlags = OptimizationFlags {
        fuse_ln_res: false,
        headwise_pipeline: false,
        hide_transmission: false,
    };
}

impl Default for OptimizationFlags {
    fn default() -> Self {
        OptimizationFlags::ALL
    }
}

/// Error produced when an [`ArchConfigBuilder`] is inconsistent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    message: String,
}

impl ConfigError {
    fn new(message: impl Into<String>) -> Self {
        ConfigError {
            message: message.into(),
        }
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid architecture config: {}", self.message)
    }
}

impl std::error::Error for ConfigError {}

/// A validated LoopLynx hardware configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ArchConfig {
    nodes: usize,
    mp_channels: usize,
    n_group: usize,
    burst_bytes: usize,
    prefill_batch: usize,
    opts: OptimizationFlags,
}

impl ArchConfig {
    /// The paper's design point: 285 MHz, `n_group = 32`, 10 MP channels +
    /// 4 KV channels per node (14 of the U50's 32 channels per node; a
    /// dual-node device uses 28), all optimizations on.
    pub fn paper() -> Self {
        ArchConfig::builder()
            .build()
            .expect("paper config is valid")
    }

    /// Starts building a configuration from the paper's defaults.
    pub fn builder() -> ArchConfigBuilder {
        ArchConfigBuilder::default()
    }

    /// Ring size (accelerator nodes).
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Kernel clock ([`KERNEL_MHZ`]).
    pub fn freq(&self) -> Frequency {
        Frequency::from_mhz(KERNEL_MHZ)
    }

    /// HBM channels feeding the fused MP kernel's slices (per node).
    pub fn mp_channels(&self) -> usize {
        self.mp_channels
    }

    /// MAC units per MP slice; also the datapack payload in bytes.
    pub fn n_group(&self) -> usize {
        self.n_group
    }

    /// Effective critical-path lanes under the current flags.
    pub fn effective_cp_lanes(&self) -> usize {
        if self.opts.fuse_ln_res {
            CP_LANES
        } else {
            1
        }
    }

    /// Prompt tokens processed per weight pass during prefill.
    ///
    /// `1` is the paper's behaviour (every prompt token streams all
    /// weights). Larger batches are this reproduction's *extension*: the MP
    /// kernel reuses each streamed weight across the batch, packing two
    /// weight-sharing int8 multiplies per DSP per cycle (the standard
    /// Xilinx DSP48 int8 trick applies exactly when the coefficient is
    /// shared) — trading activation buffer for amortized HBM traffic and
    /// narrowing the paper's `[128:32]` loss against the A100.
    pub fn prefill_batch(&self) -> usize {
        self.prefill_batch
    }

    /// The optimization flags.
    pub fn opts(&self) -> OptimizationFlags {
        self.opts
    }

    /// The per-channel HBM model on this clock.
    pub fn hbm_channel(&self) -> HbmChannel {
        HbmChannel::paper_channel(self.freq())
    }

    /// Effective bytes/cycle of one HBM channel at the configured burst.
    pub fn channel_bytes_per_cycle(&self) -> f64 {
        let ch = self.hbm_channel();
        ch.peak_bytes_per_cycle() * ch.burst_efficiency(self.burst_bytes)
    }

    /// The ring network model.
    pub fn ring(&self) -> RingSpec {
        RingSpec::paper_ring(self.nodes, self.freq())
    }

    /// Total HBM channels one node consumes.
    pub fn channels_per_node(&self) -> usize {
        self.mp_channels + KV_CHANNELS
    }

    /// The resource composition model (paper constants).
    pub fn resource_model(&self) -> NodeResourceModel {
        NodeResourceModel::paper()
    }

    /// Resources of one node in this ring.
    pub fn node_resources(&self) -> ResourceVector {
        self.resource_model().per_node(self.nodes)
    }

    /// Devices (FPGAs) required.
    pub fn devices(&self) -> usize {
        self.resource_model().devices_for(self.nodes)
    }

    /// The FPGA power model (paper calibration).
    pub fn power_model(&self) -> FpgaPowerModel {
        FpgaPowerModel::paper()
    }

    /// Board power in watts at the given average activity.
    pub fn power_watts(&self, activity: f64) -> f64 {
        self.power_model().total_watts(
            self.devices(),
            &self.node_resources(),
            self.nodes,
            self.channels_per_node(),
            activity,
        )
    }
}

impl fmt::Display for ArchConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "LoopLynx x{} @ {} ({} MP + {} KV ch/node, n_group={})",
            self.nodes,
            self.freq(),
            self.mp_channels,
            KV_CHANNELS,
            self.n_group
        )
    }
}

/// Builder for [`ArchConfig`] (paper defaults).
#[derive(Debug, Clone)]
pub struct ArchConfigBuilder {
    nodes: usize,
    mp_channels: usize,
    n_group: usize,
    burst_bytes: usize,
    prefill_batch: usize,
    opts: OptimizationFlags,
}

impl Default for ArchConfigBuilder {
    fn default() -> Self {
        ArchConfigBuilder {
            nodes: 2,
            mp_channels: 10,
            n_group: 32,
            burst_bytes: 4096,
            prefill_batch: 1,
            opts: OptimizationFlags::ALL,
        }
    }
}

impl ArchConfigBuilder {
    /// Sets the ring size.
    pub fn nodes(mut self, nodes: usize) -> Self {
        self.nodes = nodes;
        self
    }

    /// Sets MP-kernel HBM channels per node.
    pub fn mp_channels(mut self, ch: usize) -> Self {
        self.mp_channels = ch;
        self
    }

    /// Sets MACs per MP slice (= datapack bytes).
    pub fn n_group(mut self, n: usize) -> Self {
        self.n_group = n;
        self
    }

    /// Sets DMA burst bytes.
    pub fn burst_bytes(mut self, b: usize) -> Self {
        self.burst_bytes = b;
        self
    }

    /// Sets the prefill batch (1 = paper behaviour; see
    /// [`ArchConfig::prefill_batch`]).
    pub fn prefill_batch(mut self, batch: usize) -> Self {
        self.prefill_batch = batch;
        self
    }

    /// Sets the optimization flags.
    pub fn opts(mut self, opts: OptimizationFlags) -> Self {
        self.opts = opts;
        self
    }

    /// Validates and builds the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] when a parameter is out of range or the
    /// channel allocation exceeds the device (14 channels/node × 2
    /// nodes/device must fit the U50's 32 channels).
    pub fn build(self) -> Result<ArchConfig, ConfigError> {
        if self.nodes == 0 {
            return Err(ConfigError::new("ring needs at least one node"));
        }
        if self.mp_channels == 0 {
            return Err(ConfigError::new("MP kernel needs at least one channel"));
        }
        if self.n_group == 0 || !self.n_group.is_power_of_two() {
            return Err(ConfigError::new("n_group must be a power of two"));
        }
        if self.n_group > 256 {
            return Err(ConfigError::new("n_group larger than 256 is unrealistic"));
        }
        if self.burst_bytes == 0 || self.burst_bytes > 4096 {
            return Err(ConfigError::new("burst must be 1..=4096 bytes"));
        }
        if self.prefill_batch == 0 || self.prefill_batch > MAX_WEIGHT_SHARING_BATCH {
            return Err(ConfigError::new(format!(
                "prefill batch must be 1..={MAX_WEIGHT_SHARING_BATCH} \
                 (bounded by on-chip activation buffer)"
            )));
        }
        let per_node = self.mp_channels + KV_CHANNELS;
        let model = NodeResourceModel::paper();
        let nodes_per_device = model.nodes_per_device().min(self.nodes.max(1));
        if per_node * nodes_per_device > 32 {
            return Err(ConfigError::new(format!(
                "{per_node} channels/node x {nodes_per_device} nodes/device exceeds the 32 HBM channels of a U50"
            )));
        }
        Ok(ArchConfig {
            nodes: self.nodes,
            mp_channels: self.mp_channels,
            n_group: self.n_group,
            burst_bytes: self.burst_bytes,
            prefill_batch: self.prefill_batch,
            opts: self.opts,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_builds() {
        let c = ArchConfig::paper();
        assert_eq!(c.nodes(), 2);
        assert_eq!(c.n_group(), 32);
        assert!((c.freq().as_mhz() - 285.0).abs() < 1e-9);
        assert_eq!(c.channels_per_node(), 14);
        assert_eq!(c.devices(), 1);
    }

    #[test]
    fn four_nodes_need_two_devices() {
        let c = ArchConfig::builder().nodes(4).build().unwrap();
        assert_eq!(c.devices(), 2);
        let one = ArchConfig::builder().nodes(1).build().unwrap();
        assert_eq!(one.devices(), 1);
    }

    #[test]
    fn channel_efficiency_near_peak() {
        let c = ArchConfig::paper();
        let eff = c.channel_bytes_per_cycle();
        let peak = c.hbm_channel().peak_bytes_per_cycle();
        assert!(
            eff > 0.9 * peak,
            "burst efficiency too low: {eff} vs {peak}"
        );
    }

    #[test]
    fn builder_validations() {
        assert!(ArchConfig::builder().nodes(0).build().is_err());
        assert!(ArchConfig::builder().mp_channels(0).build().is_err());
        assert!(ArchConfig::builder().n_group(33).build().is_err());
        assert!(ArchConfig::builder().n_group(512).build().is_err());
        assert!(ArchConfig::builder().burst_bytes(0).build().is_err());
        assert!(ArchConfig::builder().prefill_batch(0).build().is_err());
    }

    #[test]
    fn channel_budget_enforced() {
        // 20 MP + 4 KV per node × 2 nodes/device = 48 > 32 channels
        let err = ArchConfig::builder().mp_channels(20).build().unwrap_err();
        assert!(err.to_string().contains("HBM channels"));
        // but a single-node ring only places one node per device
        assert!(ArchConfig::builder()
            .nodes(1)
            .mp_channels(20)
            .build()
            .is_ok());
    }

    #[test]
    fn effective_cp_lanes_follow_flag() {
        let on = ArchConfig::paper();
        assert_eq!(on.effective_cp_lanes(), 8);
        let off = ArchConfig::builder()
            .opts(OptimizationFlags::NONE)
            .build()
            .unwrap();
        assert_eq!(off.effective_cp_lanes(), 1);
    }

    #[test]
    fn power_scales_with_nodes() {
        let p1 = ArchConfig::builder()
            .nodes(1)
            .build()
            .unwrap()
            .power_watts(1.0);
        let p2 = ArchConfig::builder()
            .nodes(2)
            .build()
            .unwrap()
            .power_watts(1.0);
        let p4 = ArchConfig::builder()
            .nodes(4)
            .build()
            .unwrap()
            .power_watts(1.0);
        assert!(p1 < p2 && p2 < p4);
        // 4 nodes = 2 boards: roughly double the 2-node board power
        assert!(p4 > 1.8 * p2 && p4 < 2.2 * p2);
    }

    #[test]
    fn display_mentions_ring() {
        assert!(ArchConfig::paper().to_string().contains("x2"));
    }
}
