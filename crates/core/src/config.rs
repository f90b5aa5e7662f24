//! Architecture configuration.
//!
//! All hardware parameters of a LoopLynx deployment live here: ring size,
//! kernel clock (285 MHz from the decoupled FIFO design, Section III-D),
//! per-node HBM channel allocation, the `n_group = 32` datapack geometry,
//! and the three latency-optimization flags of Section III-C. The paper's
//! design point is [`ArchConfig::paper`]; the builder lets experiments
//! sweep any dimension.

use std::fmt;

use looplynx_hw::power::FpgaPowerModel;
use looplynx_hw::resources::{NodeResourceModel, ResourceVector};
use looplynx_sim::hbm::HbmChannel;
use looplynx_sim::net::RingSpec;
use looplynx_sim::time::{Cycles, Frequency};

use crate::datapack::DATAPACK_BYTES;

/// Largest number of activation vectors that can share one streamed
/// weight pass (batched prefill and continuous-batching decode alike) —
/// bounded by the on-chip activation buffer.
pub const MAX_WEIGHT_SHARING_BATCH: usize = 64;

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
    freq: Frequency,
    mp_channels: usize,
    kv_channels: usize,
    n_group: usize,
    burst_bytes: usize,
    fifo_depth: usize,
    cp_parallelism: usize,
    softmax_lanes: usize,
    quant_latency: Cycles,
    stage_overhead: Cycles,
    host_overhead_us: Option<f64>,
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

    /// Kernel clock.
    pub fn freq(&self) -> Frequency {
        self.freq
    }

    /// HBM channels feeding the fused MP kernel's slices (per node).
    pub fn mp_channels(&self) -> usize {
        self.mp_channels
    }

    /// HBM channels feeding the fused MHA kernel's K and V caches
    /// (per node, split evenly between keys and values).
    pub fn kv_channels(&self) -> usize {
        self.kv_channels
    }

    /// MAC units per MP slice; also the datapack payload in bytes.
    pub fn n_group(&self) -> usize {
        self.n_group
    }

    /// DMA burst length in bytes.
    pub fn burst_bytes(&self) -> usize {
        self.burst_bytes
    }

    /// Inter-unit FIFO capacity in datapacks.
    pub fn fifo_depth(&self) -> usize {
        self.fifo_depth
    }

    /// Lanes of the critical-path (LN/residual/GELU) units when the fused
    /// LN&Res optimization is on; 1 lane when off.
    pub fn cp_parallelism(&self) -> usize {
        self.cp_parallelism
    }

    /// Effective critical-path lanes under the current flags.
    pub fn effective_cp_lanes(&self) -> usize {
        if self.opts.fuse_ln_res {
            self.cp_parallelism
        } else {
            1
        }
    }

    /// Exponent/divide lanes of the softmax unit.
    pub fn softmax_lanes(&self) -> usize {
        self.softmax_lanes
    }

    /// Pipeline depth of the quantization unit.
    pub fn quant_latency(&self) -> Cycles {
        self.quant_latency
    }

    /// Scheduler state-machine transition cost charged per stage.
    pub fn stage_overhead(&self) -> Cycles {
        self.stage_overhead
    }

    /// Explicit host-overhead override in microseconds, if configured.
    /// `None` (the default) derives the overhead from
    /// [`crate::host::HostModel`] and the model shape.
    pub fn host_overhead_us(&self) -> Option<f64> {
        self.host_overhead_us
    }

    /// Host overhead in kernel-clock cycles for one token of the given
    /// model (uses the override when set, the host model otherwise).
    pub fn host_overhead_cycles(
        &self,
        model: &looplynx_model::config::ModelConfig,
        needs_logits: bool,
    ) -> Cycles {
        match self.host_overhead_us {
            Some(us) => self.freq.cycles_in_seconds(us * 1e-6),
            None => crate::host::HostModel::paper().token_overhead_cycles(
                model,
                needs_logits,
                self.freq,
            ),
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

    /// Returns a copy with different optimization flags (for ablations).
    pub fn with_opts(&self, opts: OptimizationFlags) -> ArchConfig {
        ArchConfig {
            opts,
            ..self.clone()
        }
    }

    /// Returns a copy with a different ring size.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `nodes` is zero.
    pub fn with_nodes(&self, nodes: usize) -> Result<ArchConfig, ConfigError> {
        if nodes == 0 {
            return Err(ConfigError::new("ring needs at least one node"));
        }
        Ok(ArchConfig {
            nodes,
            ..self.clone()
        })
    }

    /// The per-channel HBM model on this clock.
    pub fn hbm_channel(&self) -> HbmChannel {
        HbmChannel::paper_channel(self.freq)
    }

    /// Effective bytes/cycle of one HBM channel at the configured burst.
    pub fn channel_bytes_per_cycle(&self) -> f64 {
        let ch = self.hbm_channel();
        ch.peak_bytes_per_cycle() * ch.burst_efficiency(self.burst_bytes)
    }

    /// The ring network model.
    pub fn ring(&self) -> RingSpec {
        RingSpec::paper_ring(self.nodes, self.freq)
    }

    /// Total HBM channels one node consumes.
    pub fn channels_per_node(&self) -> usize {
        self.mp_channels + self.kv_channels
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
            self.nodes, self.freq, self.mp_channels, self.kv_channels, self.n_group
        )
    }
}

/// Builder for [`ArchConfig`] (paper defaults).
#[derive(Debug, Clone)]
pub struct ArchConfigBuilder {
    nodes: usize,
    freq_mhz: f64,
    mp_channels: usize,
    kv_channels: usize,
    n_group: usize,
    burst_bytes: usize,
    fifo_depth: usize,
    cp_parallelism: usize,
    softmax_lanes: usize,
    quant_latency: u64,
    stage_overhead: u64,
    host_overhead_us: Option<f64>,
    prefill_batch: usize,
    opts: OptimizationFlags,
}

impl Default for ArchConfigBuilder {
    fn default() -> Self {
        ArchConfigBuilder {
            nodes: 2,
            freq_mhz: 285.0,
            mp_channels: 10,
            kv_channels: 4,
            n_group: 32,
            burst_bytes: 4096,
            fifo_depth: 64,
            cp_parallelism: 8,
            softmax_lanes: 4,
            quant_latency: 24,
            stage_overhead: 400,
            host_overhead_us: None,
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

    /// Sets the kernel clock in MHz.
    pub fn freq_mhz(mut self, mhz: f64) -> Self {
        self.freq_mhz = mhz;
        self
    }

    /// Sets MP-kernel HBM channels per node.
    pub fn mp_channels(mut self, ch: usize) -> Self {
        self.mp_channels = ch;
        self
    }

    /// Sets KV-cache HBM channels per node (even; half keys, half values).
    pub fn kv_channels(mut self, ch: usize) -> Self {
        self.kv_channels = ch;
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

    /// Sets inter-unit FIFO depth (datapacks).
    pub fn fifo_depth(mut self, d: usize) -> Self {
        self.fifo_depth = d;
        self
    }

    /// Sets critical-path lanes used when `fuse_ln_res` is on.
    pub fn cp_parallelism(mut self, lanes: usize) -> Self {
        self.cp_parallelism = lanes;
        self
    }

    /// Sets softmax unit lanes.
    pub fn softmax_lanes(mut self, lanes: usize) -> Self {
        self.softmax_lanes = lanes;
        self
    }

    /// Sets quantization-unit pipeline depth in cycles.
    pub fn quant_latency(mut self, cycles: u64) -> Self {
        self.quant_latency = cycles;
        self
    }

    /// Sets scheduler stage-transition overhead in cycles.
    pub fn stage_overhead(mut self, cycles: u64) -> Self {
        self.stage_overhead = cycles;
        self
    }

    /// Overrides the host per-token overhead in microseconds (otherwise
    /// derived from [`crate::host::HostModel`]).
    pub fn host_overhead_us(mut self, us: f64) -> Self {
        self.host_overhead_us = Some(us);
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
        if self.kv_channels == 0 || !self.kv_channels.is_multiple_of(2) {
            return Err(ConfigError::new(
                "KV channels must be positive and even (split between K and V)",
            ));
        }
        if self.n_group == 0 || !self.n_group.is_power_of_two() {
            return Err(ConfigError::new("n_group must be a power of two"));
        }
        if self.n_group != DATAPACK_BYTES {
            // Allowed, but the datapack constant tracks the paper's 32.
            if self.n_group > 256 {
                return Err(ConfigError::new("n_group larger than 256 is unrealistic"));
            }
        }
        if !(50.0..=600.0).contains(&self.freq_mhz) {
            return Err(ConfigError::new("frequency out of FPGA kernel range"));
        }
        if self.burst_bytes == 0 || self.burst_bytes > 4096 {
            return Err(ConfigError::new("burst must be 1..=4096 bytes"));
        }
        if self.fifo_depth == 0 {
            return Err(ConfigError::new("FIFO depth must be positive"));
        }
        if self.cp_parallelism == 0 || self.softmax_lanes == 0 {
            return Err(ConfigError::new("unit parallelism must be positive"));
        }
        if self.host_overhead_us.is_some_and(|us| us < 0.0) {
            return Err(ConfigError::new("host overhead cannot be negative"));
        }
        if self.prefill_batch == 0 || self.prefill_batch > MAX_WEIGHT_SHARING_BATCH {
            return Err(ConfigError::new(format!(
                "prefill batch must be 1..={MAX_WEIGHT_SHARING_BATCH} \
                 (bounded by on-chip activation buffer)"
            )));
        }
        let per_node = self.mp_channels + self.kv_channels;
        let model = NodeResourceModel::paper();
        let nodes_per_device = model.nodes_per_device().min(self.nodes.max(1));
        if per_node * nodes_per_device > 32 {
            return Err(ConfigError::new(format!(
                "{per_node} channels/node x {nodes_per_device} nodes/device exceeds the 32 HBM channels of a U50"
            )));
        }
        Ok(ArchConfig {
            nodes: self.nodes,
            freq: Frequency::from_mhz(self.freq_mhz),
            mp_channels: self.mp_channels,
            kv_channels: self.kv_channels,
            n_group: self.n_group,
            burst_bytes: self.burst_bytes,
            fifo_depth: self.fifo_depth,
            cp_parallelism: self.cp_parallelism,
            softmax_lanes: self.softmax_lanes,
            quant_latency: Cycles::new(self.quant_latency),
            stage_overhead: Cycles::new(self.stage_overhead),
            host_overhead_us: self.host_overhead_us,
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
        assert!(ArchConfig::builder().kv_channels(3).build().is_err());
        assert!(ArchConfig::builder().n_group(33).build().is_err());
        assert!(ArchConfig::builder().freq_mhz(10.0).build().is_err());
        assert!(ArchConfig::builder().burst_bytes(0).build().is_err());
        assert!(ArchConfig::builder().fifo_depth(0).build().is_err());
        assert!(ArchConfig::builder()
            .host_overhead_us(-1.0)
            .build()
            .is_err());
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
        let off = on.with_opts(OptimizationFlags::NONE);
        assert_eq!(off.effective_cp_lanes(), 1);
    }

    #[test]
    fn with_nodes_rebuilds() {
        let c = ArchConfig::paper().with_nodes(4).unwrap();
        assert_eq!(c.nodes(), 4);
        assert!(ArchConfig::paper().with_nodes(0).is_err());
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
