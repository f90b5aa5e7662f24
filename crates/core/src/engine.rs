//! The end-to-end LoopLynx engine.
//!
//! Two complementary facilities:
//!
//! * [`LoopLynx`] — the *timing* engine: simulates full prefill+decode
//!   generations cycle-accurately (paper Fig. 2(b): host embeds tokens,
//!   accelerator runs the transformer blocks, host synchronizes the output
//!   and feeds generation back), producing latency, throughput, breakdown
//!   and energy reports.
//! * [`DistributedGpt2`] — the *functional* engine: executes real W8A8
//!   inference partitioned across N simulated nodes with ring all-gathers
//!   between sharded stages. In [`RingMode::Exact`] the result is
//!   bit-identical to the single-node reference model, which the test
//!   suite uses to prove the partitioning algebra correct.

use std::fmt;
use std::sync::Arc;

use looplynx_model::attention::{attend_heads_segments_to, AttnScratch};
use looplynx_model::config::ModelConfig;
use looplynx_model::generate::Autoregressive;
use looplynx_model::gpt2::Gpt2Model;
use looplynx_model::kv_cache::LayerKvCache;
use looplynx_model::paged::PagedKvArena;
use looplynx_model::prefix::{PrefixIndex, PrefixIndexStats};
use looplynx_model::weights::Gpt2Weights;
use looplynx_tensor::activation::gelu_in_place;
use looplynx_tensor::linear::QuantLinear;
use looplynx_tensor::matrix::Matrix;
use looplynx_tensor::norm::{layernorm_quantize_rows, LayerNormParams};

use crate::config::ArchConfig;
use crate::energy::{fpga_energy, EnergyReport};
use crate::latency::LatencyBreakdown;
use crate::parallel::{shard_weights, split_range, NodeWeights, PartitionError};
use crate::pool::{host_cores, WorkerPool};
use crate::router::{RingMode, Router};
use crate::scheduler::Scheduler;

/// Latency/energy outcome of a simulated generation.
///
/// Accounting follows the *paper's* convention: every generated token is
/// charged one full decode pass, so `decode_ms` covers `decode_tokens`
/// passes and [`GenerationReport::tokens_per_second`] is the Table III
/// steady-state metric. The serving layer (`looplynx-serve`) instead
/// models the deployed pipeline, where the first output token is sampled
/// from the prefill logits and only `decode_tokens - 1` decode iterations
/// run — its TPOT is therefore not directly comparable to
/// [`GenerationReport::decode_ms_per_token`] for short generations.
#[derive(Debug, Clone, PartialEq)]
pub struct GenerationReport {
    /// Ring size used.
    pub nodes: usize,
    /// Prompt length.
    pub prefill_tokens: usize,
    /// Generated tokens.
    pub decode_tokens: usize,
    /// Prefill wall-clock in milliseconds.
    pub prefill_ms: f64,
    /// Decode wall-clock in milliseconds.
    pub decode_ms: f64,
    /// Accumulated latency buckets over the whole run.
    pub breakdown: LatencyBreakdown,
    /// Energy over the whole run.
    pub energy: EnergyReport,
}

impl GenerationReport {
    /// Total wall-clock in milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.prefill_ms + self.decode_ms
    }

    /// Average decode latency per generated token in milliseconds.
    ///
    /// Returns `0.0` for a degenerate report (zero tokens or zero decode
    /// wall-clock) rather than `inf`/`NaN`.
    pub fn decode_ms_per_token(&self) -> f64 {
        if self.decode_tokens == 0 || self.decode_ms <= 0.0 {
            return 0.0;
        }
        self.decode_ms / self.decode_tokens as f64
    }

    /// Decode throughput in tokens per second (Table III metric).
    ///
    /// Returns `0.0` for a degenerate report (zero decode wall-clock)
    /// rather than `inf`/`NaN`.
    pub fn tokens_per_second(&self) -> f64 {
        if self.decode_ms <= 0.0 {
            return 0.0;
        }
        self.decode_tokens as f64 / (self.decode_ms / 1e3)
    }
}

impl fmt::Display for GenerationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}:{}] on {} node(s): {:.1} ms total, {:.2} ms/token, {:.1} tok/s, {:.1} J",
            self.prefill_tokens,
            self.decode_tokens,
            self.nodes,
            self.total_ms(),
            self.decode_ms_per_token(),
            self.tokens_per_second(),
            self.energy.joules
        )
    }
}

/// Aggregate timing of a multi-token phase (a prefill walk or a batched
/// decode iteration): total exposed cycles plus the bucketized breakdown,
/// without the per-stage trace of [`crate::scheduler::TokenTiming`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseTiming {
    /// Total exposed cycles of the phase.
    pub cycles: looplynx_sim::time::Cycles,
    /// Bucketized breakdown over the phase.
    pub breakdown: LatencyBreakdown,
}

impl PhaseTiming {
    /// Milliseconds under the configuration's clock.
    pub fn to_millis(&self, cfg: &ArchConfig) -> f64 {
        self.cycles.to_millis(cfg.freq())
    }
}

/// The LoopLynx timing engine.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopLynx {
    scheduler: Scheduler,
}

impl LoopLynx {
    /// Creates an engine for the model on the given architecture.
    ///
    /// # Errors
    ///
    /// Returns [`PartitionError`] if the model cannot be split over the
    /// configured ring.
    pub fn new(model: ModelConfig, arch: ArchConfig) -> Result<Self, PartitionError> {
        Ok(LoopLynx {
            scheduler: Scheduler::new(arch, model)?,
        })
    }

    /// The architecture configuration.
    pub fn arch(&self) -> &ArchConfig {
        self.scheduler.config()
    }

    /// The model configuration.
    pub fn model(&self) -> &ModelConfig {
        self.scheduler.model()
    }

    /// The underlying stage scheduler (for callers that need raw
    /// per-stage schedules, e.g. the serving layer and invariant tests).
    pub fn scheduler(&self) -> &Scheduler {
        &self.scheduler
    }

    /// Steady-state decode latency in ms at a fixed context — the paper's
    /// Table II "token latency" operating point.
    pub fn steady_state_decode_ms(&self, context: usize) -> f64 {
        self.scheduler
            .schedule_rows(&[context], true)
            .total_ms(self.arch())
    }

    /// Cycle-accurate timing of the whole prompt-processing phase for a
    /// `prefill`-token prompt: all but the last token run in weight-sharing
    /// batches of [`ArchConfig::prefill_batch`] (the paper's behaviour is
    /// batch = 1); the last prefill token runs unbatched because it
    /// produces logits.
    ///
    /// # Panics
    ///
    /// Panics if `prefill` is zero or exceeds the model's maximum.
    pub fn simulate_prefill(&self, prefill: usize) -> PhaseTiming {
        assert!(prefill > 0, "need at least one prompt token");
        assert!(
            prefill <= self.model().max_seq,
            "prompt {} exceeds max_seq {}",
            prefill,
            self.model().max_seq
        );
        let mut breakdown = LatencyBreakdown::zero();
        let mut cycles = 0u64;
        let batch = self.arch().prefill_batch();
        let mut t = 0usize;
        while t < prefill {
            // The last token produces logits, so it is a step of its own.
            let this_batch = batch.min(prefill - 1 - t).max(1);
            let contexts: Vec<usize> = (t + 1..=t + this_batch).collect();
            let timing = self.scheduler.schedule_rows(&contexts, t + 1 == prefill);
            cycles += timing.total.as_u64();
            breakdown += timing.breakdown;
            t += this_batch;
        }
        PhaseTiming {
            cycles: looplynx_sim::time::Cycles::new(cycles),
            breakdown,
        }
    }

    /// Cycle-accurate timing of one continuous-batching decode iteration —
    /// one token for each concurrent request, all sharing every weight
    /// pass. Delegates to [`Scheduler::schedule_rows`] with the LM head
    /// on; see there for the cost model.
    ///
    /// # Panics
    ///
    /// Panics if `contexts` is empty or any context is zero.
    pub fn simulate_decode_batch(&self, contexts: &[usize]) -> PhaseTiming {
        let timing = self.scheduler.schedule_rows(contexts, true);
        PhaseTiming {
            cycles: timing.total,
            breakdown: timing.breakdown,
        }
    }

    /// Simulates a full `[prefill : decode]` generation.
    ///
    /// Each of the `decode` tokens is charged one full decode pass (the
    /// paper's accounting — see [`GenerationReport`] for how this differs
    /// from the serving layer's first-token-from-prefill pipeline model).
    ///
    /// # Panics
    ///
    /// Panics if `prefill` or `decode` is zero or the sequence exceeds the
    /// model's maximum.
    pub fn simulate_generation(&self, prefill: usize, decode: usize) -> GenerationReport {
        assert!(prefill > 0 && decode > 0, "need at least one token each");
        assert!(
            prefill + decode <= self.model().max_seq,
            "sequence {} exceeds max_seq {}",
            prefill + decode,
            self.model().max_seq
        );
        let prefill_phase = self.simulate_prefill(prefill);
        let mut breakdown = prefill_phase.breakdown;
        let mut decode_cycles = 0u64;
        for t in 0..decode {
            let timing = self.scheduler.schedule_rows(&[prefill + t + 1], true);
            decode_cycles += timing.total.as_u64();
            breakdown += timing.breakdown;
        }
        let freq = self.arch().freq();
        let prefill_ms = prefill_phase.cycles.to_millis(freq);
        let decode_ms = looplynx_sim::time::Cycles::new(decode_cycles).to_millis(freq);
        let total_s = (prefill_ms + decode_ms) / 1e3;
        let energy = fpga_energy(self.arch(), total_s, decode, 1.0);
        GenerationReport {
            nodes: self.arch().nodes(),
            prefill_tokens: prefill,
            decode_tokens: decode,
            prefill_ms,
            decode_ms,
            breakdown,
            energy,
        }
    }
}

/// Per-node functional state: weight shards and persistent working memory
/// (batched-GEMM buffers plus per-shard scratch) reused across layers and
/// steps instead of reallocating. The node's KV lives in the engine's one
/// arena, in pools `node × layers ..`.
#[derive(Debug, Clone)]
struct NodeState {
    weights: NodeWeights,
    /// The node's full per-stage output, row-major `batch × out_features`.
    /// With one row shard this is the GEMM destination itself (swapped in
    /// from the shard slab); with several it is the stitched slabs.
    gemm_out: Vec<f32>,
    /// The node's attention output, row-major `batch × shard_width`; row
    /// shards write disjoint row blocks of it in place.
    attn_out: Vec<f32>,
    /// Per-row-shard working memory (`row_shards` entries).
    shards: Vec<ShardScratch>,
}

/// Working memory owned by one row shard of one node: GEMM slab buffers
/// (the shard's weight-row range × the whole batch) plus attention
/// scratch for the batch rows the shard attends. Purely scratch — every
/// buffer is overwritten before use.
#[derive(Debug, Clone, Default)]
struct ShardScratch {
    acc: Vec<i32>,
    out: Vec<f32>,
    attn: AttnScratch,
}

/// Scratch holds no semantic state (every buffer is overwritten before
/// use), so node equality is the weights only.
impl PartialEq for NodeState {
    fn eq(&self, other: &Self) -> bool {
        self.weights == other.weights
    }
}

/// Runs a batch of prepared jobs — one per (node, row-shard), each
/// touching `job_bytes` — on the pool when present and one lane's share
/// (`job_bytes × ⌈jobs / lanes⌉`) touches [`MIN_DISPATCH_BYTES`], else
/// sequentially on the caller. Results are discarded (jobs communicate
/// through the disjoint buffers they captured), so both are trivially
/// bit-identical: each job touches only its own slab.
fn run_jobs(pool: Option<&WorkerPool>, job_bytes: usize, jobs: Vec<Box<dyn FnOnce() + Send + '_>>) {
    let lane_bytes = |pool: &WorkerPool| job_bytes * jobs.len().div_ceil(pool.workers());
    match pool.filter(|pool| lane_bytes(pool) >= MIN_DISPATCH_BYTES) {
        Some(pool) => drop(pool.run(jobs)),
        None => jobs.into_iter().for_each(|job| job()),
    }
}

/// Most batch-row shards a node's batched stages split into. Beyond this
/// the per-shard GEMM slabs get too thin to amortize dispatch (and
/// host-side stitching starts to show), so extra cores go unused rather
/// than oversubscribed.
const MAX_ROW_SHARDS: usize = 4;

/// Smallest per-lane working set (weight or KV bytes touched) for which
/// a stage is dispatched to the pool; smaller stages run on the caller.
/// Measured with one-row activations over 2 workers: a round costs 2–3 µs
/// while the workers are still polling, so pooled and in-line time cross
/// at 96–128 KiB a worker and pooled is 1.4–1.7× faster at 256–512 KiB.
/// The gate stays 2× above the crossing because a worker that has parked
/// adds a 25–60 µs wake to the round.
const MIN_DISPATCH_BYTES: usize = 1 << 18;

/// Splits a flat row-major `rows × width` buffer into one contiguous
/// block per row shard, matching [`split_range`]`(rows, parts, s)` — the
/// disjoint `&mut` windows the attention phase hands its workers.
fn split_row_chunks<T>(
    mut buf: &mut [T],
    rows: usize,
    width: usize,
    parts: usize,
) -> Vec<&mut [T]> {
    let mut out = Vec::with_capacity(parts);
    for s in 0..parts {
        let len = split_range(rows, parts, s).len() * width;
        let (head, tail) = buf.split_at_mut(len);
        out.push(head);
        buf = tail;
    }
    out
}

/// The five sharded linears of the layer walk.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Linear {
    Qkv,
    Proj,
    Fc1,
    Fc2,
    LmHead,
}

impl Linear {
    /// This linear's shard on one node (`layer` is ignored by the LM head).
    fn of(self, weights: &NodeWeights, layer: usize) -> &QuantLinear {
        match self {
            Linear::Qkv => &weights.layers[layer].qkv,
            Linear::Proj => &weights.layers[layer].proj,
            Linear::Fc1 => &weights.layers[layer].fc1,
            Linear::Fc2 => &weights.layers[layer].fc2,
            Linear::LmHead => &weights.lm_head,
        }
    }
}

/// One sharded batched linear over every node: each (node, row-shard)
/// worker computes its weight-row range of `lin.of(node)`'s output into its
/// own slab (`forward_batch_scaled_range_into`), FC1's followed by its
/// node-local GELU (elementwise, so per-slab application equals
/// whole-output application bit for bit); the host then stitches each
/// node's slabs side by side into `gemm_out` (`batch × out_features`
/// row-major). With one shard the slab *is* the full output and is
/// swapped in instead of copied. Because no dot product is ever split
/// across shards, the stitched result is bit-identical to the unsharded
/// `forward_batch_scaled_into` for any shard count.
fn sharded_linear_phase(
    nodes: &mut [NodeState],
    pool: Option<&WorkerPool>,
    row_shards: usize,
    lin: Linear,
    layer: usize,
    xmat: &Matrix<i8>,
    scales: &[f32],
) {
    let (b, width) = (xmat.rows(), xmat.cols());
    let gelu = lin == Linear::Fc1;
    let mut jobs: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::with_capacity(nodes.len() * row_shards);
    let mut job_bytes = usize::MAX;
    for node in nodes.iter_mut() {
        let NodeState {
            weights, shards, ..
        } = node;
        let linear = lin.of(weights, layer);
        let out_rows = linear.out_features();
        job_bytes = job_bytes.min(out_rows * width / row_shards.max(1));
        for (s, shard) in shards.iter_mut().enumerate() {
            let range = split_range(out_rows, row_shards, s);
            jobs.push(Box::new(move || {
                linear.forward_batch_scaled_range_into(
                    xmat,
                    scales,
                    range,
                    &mut shard.acc,
                    &mut shard.out,
                );
                if gelu {
                    gelu_in_place(&mut shard.out);
                }
            }));
        }
    }
    run_jobs(pool, job_bytes, jobs);
    // Stitch slabs into each node's full output.
    for node in nodes.iter_mut() {
        let out_rows = lin.of(&node.weights, layer).out_features();
        if row_shards == 1 {
            std::mem::swap(&mut node.gemm_out, &mut node.shards[0].out);
        } else {
            node.gemm_out.clear();
            node.gemm_out.resize(b * out_rows, 0.0);
            for (s, shard) in node.shards.iter().enumerate() {
                let range = split_range(out_rows, row_shards, s);
                let cols = range.len();
                for t in 0..b {
                    node.gemm_out[t * out_rows + range.start..t * out_rows + range.end]
                        .copy_from_slice(&shard.out[t * cols..(t + 1) * cols]);
                }
            }
        }
    }
}

/// One row of a forward step: the sequence (`slot`) it belongs to and the
/// absolute position (`pos`) its token lands at — it attends `pos + 1`
/// cached tokens. Decode rows are one per slot at that slot's arena
/// position; prefill rows are consecutive positions of one slot.
#[derive(Clone, Copy)]
struct Row {
    slot: usize,
    pos: usize,
}

/// The row-partitioned attention phase: every (node, row-shard) worker
/// attends its contiguous block of batch rows over the node's immutable
/// paged KV view (pool `node × layers + layer` of the shared arena; all
/// appends for the step already happened), writing
/// each row's heads directly into its strip of the node's flat
/// `attn_out` buffer. Row blocks are disjoint and each row's computation
/// is byte-for-byte the single-row path, so any shard count and any
/// execution order produce identical buffers.
fn batch_attention_phase(
    nodes: &mut [NodeState],
    arena: &PagedKvArena,
    pool: Option<&WorkerPool>,
    row_shards: usize,
    layer: usize,
    rows: &[Row],
    d_head: usize,
) {
    let b = rows.len();
    // KV tokens the step streams per node: Σ valid lengths.
    let kv_tokens: usize = rows.iter().map(|r| r.pos + 1).sum();
    let mut jobs: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::with_capacity(nodes.len() * row_shards);
    let mut job_bytes = usize::MAX;
    let layers = arena.layers() / nodes.len();
    for (n, node) in nodes.iter_mut().enumerate() {
        let NodeState {
            weights,
            gemm_out,
            attn_out,
            shards,
        } = node;
        let kv_pool = n * layers + layer;
        let head_range = weights.head_range.clone();
        let w = head_range.len() * d_head;
        job_bytes = job_bytes.min(2 * kv_tokens * w / row_shards.max(1));
        attn_out.clear();
        attn_out.resize(b * w, 0.0);
        let gemm_out = &*gemm_out;
        for ((s, shard), chunk) in shards
            .iter_mut()
            .enumerate()
            .zip(split_row_chunks(attn_out, b, w, row_shards))
        {
            let row_range = split_range(b, row_shards, s);
            let head_range = head_range.clone();
            jobs.push(Box::new(move || {
                for (t, row_out) in row_range.clone().zip(chunk.chunks_exact_mut(w)) {
                    let Row { slot, pos } = rows[t];
                    let q = &gemm_out[t * 3 * w..t * 3 * w + w];
                    let view = arena.layer_view(slot, kv_pool);
                    attend_heads_segments_to(
                        q,
                        |h| view.segments(h),
                        head_range.clone(),
                        head_range.start,
                        d_head,
                        pos + 1,
                        &mut shard.attn,
                        row_out,
                    );
                }
            }));
        }
    }
    run_jobs(pool, job_bytes, jobs);
}

/// Default KV page size in tokens for engines built without explicit page
/// geometry ([`DistributedGpt2::with_slots`] /
/// [`DistributedGpt2::new`]).
pub const DEFAULT_PAGE_TOKENS: usize = 16;

/// Functionally-correct multi-node W8A8 inference over the simulated ring.
///
/// Every forward entry point is a thin wrapper over one private
/// row-batched layer walk (`forward_rows`) on one set of weight shards per
/// node and one paged KV arena for the whole ring:
///
/// * the **multi-sequence** API ([`DistributedGpt2::acquire_slot`],
///   [`DistributedGpt2::prefill_slot_chunk`] — rows are consecutive
///   tokens of one slot — and [`DistributedGpt2::decode_step_batch`] —
///   one row per slot), the continuous-batching substrate;
/// * the **single-sequence** API ([`DistributedGpt2::prefill`],
///   [`DistributedGpt2::decode_step`], the [`Autoregressive`] driver):
///   the same calls pinned to slot 0 (a decode step is a batch of one),
///   which engines built with [`DistributedGpt2::new`] pre-acquire.
///
/// Do not drive slot 0 through both at once: on a `with_slots` engine,
/// use the slot API exclusively.
///
/// The arena holds `nodes × layers` pools (node `n`'s head-slice of layer
/// `l` is pool `n × layers + l`) behind one slot table, one page table
/// and one refcount ledger. One page table serves all layers because
/// every layer of a slot appends the same tokens; that holds across nodes
/// just as well, so there is nothing per node to keep in step.
#[derive(Debug, Clone, PartialEq)]
pub struct DistributedGpt2 {
    model_cfg: ModelConfig,
    router: Router,
    nodes: Vec<NodeState>,
    /// The one KV ledger (see the type docs).
    arena: PagedKvArena,
    /// The store the shards were cut from, shared with the model the engine
    /// was built over: the host-side embedding tables and the layer norms
    /// every node replicates are read from here.
    weights: Arc<Gpt2Weights>,
    /// Execute per-node stages on the persistent worker pool
    /// (bit-identical either way; see [`DistributedGpt2::set_threaded`]).
    threaded: bool,
    /// Batch-row shards per node in the batched hot paths: each node's
    /// GEMMs split into that many weight-row slabs and its attention into
    /// that many batch-row blocks, all bit-identical to one shard (see
    /// [`DistributedGpt2::set_row_shards`]).
    row_shards: usize,
    /// `min(cores, nodes × row_shards)` lanes, the calling thread being
    /// one, that every stage's (node, row-shard) jobs are striped over;
    /// `Some` iff `threaded` and that is more than one lane.
    pool: Option<WorkerPool>,
    /// Host-side working memory of the layer walk, reused across steps.
    scratch: HostScratch,
    /// Content-addressed prefix cache (`None` = disabled, the default);
    /// see [`DistributedGpt2::enable_prefix_cache`].
    prefix_cache: Option<PrefixCacheState>,
}

/// Engine-side state of the content-addressed prefix cache: the index
/// pairing hash chains with pinned arena pages, plus each resident
/// slot's fed-token history (the ground truth the index registers —
/// block tables alone don't say which tokens a page holds).
#[derive(Debug, Clone, PartialEq)]
struct PrefixCacheState {
    index: PrefixIndex,
    /// Tokens fed to each slot since acquisition (prefix-mapped tokens
    /// included), indexed by slot. Cleared on acquire and release.
    fed: Vec<Vec<u32>>,
}

impl DistributedGpt2 {
    /// Partitions `model`'s weights across `nodes` ring nodes with a
    /// single resident sequence (slot 0, pre-acquired, `max_seq`
    /// capacity) — the paper's one-generation-at-a-time operating point.
    ///
    /// Node-parallel threading defaults to on when the host has more than
    /// one core and there is more than one (node, row-shard) job a stage;
    /// override with [`DistributedGpt2::set_threaded`]. Stages too small
    /// to outweigh a dispatch still run on the caller.
    ///
    /// # Errors
    ///
    /// Returns [`PartitionError`] if the model does not divide.
    pub fn new(model: &Gpt2Model, nodes: usize, mode: RingMode) -> Result<Self, PartitionError> {
        let max_seq = model.config().max_seq;
        let mut engine = Self::with_slots(model, nodes, mode, 1, max_seq)?;
        engine.ensure_primary_slot();
        Ok(engine)
    }

    /// Partitions `model`'s weights across `nodes` ring nodes with
    /// `slots` resident-sequence slots of `capacity` tokens each on every
    /// node — the substrate the functional serving backend batches over.
    /// All slots start free.
    ///
    /// Storage is the paged arena with the pool sized to
    /// `slots × ⌈capacity / page⌉` pages, so every slot can always reach
    /// its full capacity — page grants never fail on engines built here.
    /// Use [`DistributedGpt2::with_paged_slots`] to oversubscribe.
    ///
    /// # Errors
    ///
    /// Returns [`PartitionError`] if the model does not divide.
    ///
    /// # Panics
    ///
    /// Panics if `slots` is zero or `capacity` is zero or exceeds the
    /// model's `max_seq`.
    pub fn with_slots(
        model: &Gpt2Model,
        nodes: usize,
        mode: RingMode,
        slots: usize,
        capacity: usize,
    ) -> Result<Self, PartitionError> {
        let pages = slots * capacity.div_ceil(DEFAULT_PAGE_TOKENS);
        Self::with_paged_slots(
            model,
            nodes,
            mode,
            slots,
            capacity,
            DEFAULT_PAGE_TOKENS,
            pages,
        )
    }

    /// Partitions `model`'s weights like [`DistributedGpt2::with_slots`]
    /// but with explicit page geometry: `page_tokens` tokens per KV page
    /// and `pages` pages per layer pool on every node. When
    /// `pages × page_tokens < slots × capacity` the engine is
    /// **oversubscribed**: more sequences can be resident than worst-case
    /// KV bytes would allow, and operations surface
    /// [`looplynx_model::paged::PagesExhausted`]-shaped pressure that the
    /// serving layer answers with waiting or preemption.
    ///
    /// # Errors
    ///
    /// Returns [`PartitionError`] if the model does not divide.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero, `capacity` exceeds the model's
    /// `max_seq`, or the pool cannot hold even one sequence at
    /// `capacity`.
    #[allow(clippy::too_many_arguments)]
    pub fn with_paged_slots(
        model: &Gpt2Model,
        nodes: usize,
        mode: RingMode,
        slots: usize,
        capacity: usize,
        page_tokens: usize,
        pages: usize,
    ) -> Result<Self, PartitionError> {
        let cfg = model.config().clone();
        assert!(
            capacity > 0 && capacity <= cfg.max_seq,
            "slot capacity must be 1..={}",
            cfg.max_seq
        );
        let shards = shard_weights(model.weights(), &cfg, nodes)?;
        // Sizing heuristic: use spare cores for batch-row sharding within
        // each node, capped by the point where slabs get dispatch-bound.
        let cores = host_cores();
        let row_shards = (cores / nodes).clamp(1, MAX_ROW_SHARDS);
        let threaded = cores > 1 && nodes * row_shards > 1;
        let arena = PagedKvArena::new(
            nodes * cfg.layers,
            cfg.d_head(),
            cfg.heads / nodes,
            slots,
            capacity,
            page_tokens,
            pages,
        );
        let node_states: Vec<NodeState> = shards
            .into_iter()
            .map(|weights| NodeState {
                weights,
                gemm_out: Vec::new(),
                attn_out: Vec::new(),
                shards: vec![ShardScratch::default(); row_shards],
            })
            .collect();
        let mut engine = DistributedGpt2 {
            router: Router::new(nodes, mode),
            nodes: node_states,
            arena,
            weights: Arc::clone(model.shared_weights()),
            model_cfg: cfg,
            threaded,
            row_shards,
            pool: None,
            scratch: HostScratch::default(),
            prefix_cache: None,
        };
        engine.resize_pool();
        Ok(engine)
    }

    /// Whether per-node stages run on the persistent worker pool.
    pub fn threaded(&self) -> bool {
        self.threaded
    }

    /// Forces node-parallel threading on or off. Results are bit-identical
    /// in both modes (pinned by tests); only wall-clock changes. Turning
    /// threading on creates the worker pool if absent; turning it off
    /// tears the pool down.
    pub fn set_threaded(&mut self, threaded: bool) {
        self.threaded = threaded;
        self.resize_pool();
    }

    /// Batch-row shards per node in the batched hot paths.
    pub fn row_shards(&self) -> usize {
        self.row_shards
    }

    /// Forces the per-node batch-row shard count. Results are
    /// bit-identical for every count (pinned by tests); only the number
    /// of independent jobs per stage changes. The worker pool is resized
    /// to `min(cores, nodes × row_shards)` lanes when threading is on.
    ///
    /// # Panics
    ///
    /// Panics if `row_shards` is zero.
    pub fn set_row_shards(&mut self, row_shards: usize) {
        assert!(row_shards > 0, "at least one row shard per node");
        self.row_shards = row_shards;
        for node in &mut self.nodes {
            node.shards.resize_with(row_shards, ShardScratch::default);
        }
        self.resize_pool();
    }

    /// (Re)creates or tears down the worker pool to match `threaded` and
    /// the current `nodes × row_shards` job count, at most one lane a core.
    fn resize_pool(&mut self) {
        let lanes = (self.nodes.len() * self.row_shards).min(host_cores());
        let want = (self.threaded && lanes > 1).then_some(lanes);
        if self.pool.as_ref().map(WorkerPool::workers) != want {
            self.pool = want.map(WorkerPool::new);
        }
    }

    /// Resident-sequence slots per node.
    pub fn slots(&self) -> usize {
        self.arena.slots()
    }

    /// Slots currently free for admission.
    pub fn free_slots(&self) -> usize {
        self.arena.free_slots()
    }

    /// Token capacity of each slot.
    pub fn slot_capacity(&self) -> usize {
        self.arena.capacity()
    }

    /// KV page size in tokens.
    pub fn page_tokens(&self) -> usize {
        self.arena.page_tokens()
    }

    /// Free KV pages per pool (one page index names the same page in
    /// every node's and layer's pool). Backends pre-check this against
    /// [`DistributedGpt2::pages_needed`] before mutating, so page
    /// exhaustion surfaces as a typed error instead of a poisoning panic.
    pub fn free_pages(&self) -> usize {
        self.arena.free_pages()
    }

    /// Pages in each pool.
    pub fn total_pages(&self) -> usize {
        self.arena.total_pages()
    }

    /// Pages a grant for `additional` more tokens in resident `slot`
    /// would need (0 when the granted pages already cover them).
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn pages_needed(&self, slot: usize, additional: usize) -> usize {
        self.arena.pages_needed(slot, additional)
    }

    /// Turns on the content-addressed prefix cache: finished KV pages
    /// are registered under hash-chained identities (see
    /// [`looplynx_model::prefix`]) and later prompts sharing a prefix
    /// map them read-only via [`DistributedGpt2::prefix_attach`] instead
    /// of re-prefilling. Cold cached pages are reclaimed automatically
    /// (LRU by last hit) whenever a grant would otherwise starve.
    ///
    /// # Panics
    ///
    /// Panics if any slot is already resident — histories of already-fed
    /// sequences are unknown, so the cache must start with the arena.
    pub fn enable_prefix_cache(&mut self) {
        assert_eq!(
            self.free_slots(),
            self.slots(),
            "enable the prefix cache before admitting sequences"
        );
        self.prefix_cache = Some(PrefixCacheState {
            index: PrefixIndex::new(self.page_tokens()),
            fed: vec![Vec::new(); self.slots()],
        });
    }

    /// Prefix-cache traffic counters, `None` while disabled.
    pub fn prefix_stats(&self) -> Option<PrefixIndexStats> {
        self.prefix_cache.as_ref().map(|c| c.index.stats())
    }

    /// Pages currently pinned by the prefix cache (0 while disabled).
    pub fn cached_prefix_pages(&self) -> usize {
        self.prefix_cache.as_ref().map_or(0, |c| c.index.len())
    }

    /// Pages a grant can draw on right now: free pages plus cached
    /// pages held by nothing but the cache (evicting those frees them).
    /// Backends pre-check *this* — not [`DistributedGpt2::free_pages`]
    /// — so a full-but-cold cache never turns into spurious
    /// page-exhaustion errors.
    pub fn available_pages(&self) -> usize {
        let free = self.arena.free_pages();
        match &self.prefix_cache {
            Some(c) => free + c.index.evictable_pages(self.arena.refcounts()),
            None => free,
        }
    }

    /// Pages of `slot` not shared with the cache or other slots — the
    /// amount preempting `slot` would actually return to the free pool.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn unshared_pages(&self, slot: usize) -> usize {
        self.arena.unshared_pages(slot)
    }

    /// Maps the longest cached prefix of `prompt` into freshly acquired
    /// `slot` and returns the token count covered (0 on a miss or while
    /// the cache is off). The caller then prefills **only the suffix**
    /// `&prompt[hit..]` — the mapped pages already hold the prefix's KV
    /// rows, shared read-only (copy-on-write isolates any append into a
    /// partially-filled boundary page). Mapping allocates nothing, so
    /// it cannot fail on page pressure.
    ///
    /// # Panics
    ///
    /// Panics if `slot` already has history (attach pairs with
    /// acquisition) or `prompt` exceeds the slot capacity.
    pub fn prefix_attach(&mut self, slot: usize, prompt: &[u32]) -> usize {
        let Some(cache) = self.prefix_cache.as_mut() else {
            return 0;
        };
        let m = cache.index.lookup(prompt);
        if m.tokens == 0 {
            return 0;
        }
        self.arena.map_shared(slot, &m.pages, m.tokens);
        cache.fed[slot].clear();
        cache.fed[slot].extend_from_slice(&prompt[..m.tokens]);
        m.tokens
    }

    /// Registers `slot`'s finished pages with the prefix index: every
    /// full page, plus the final partial page as a chain terminator iff
    /// `include_partial` (only safe once the slot stops appending).
    /// Newly indexed pages get one cache pin. No-op while the cache is
    /// off.
    fn prefix_register(&mut self, slot: usize, include_partial: bool) {
        let Some(cache) = self.prefix_cache.as_mut() else {
            return;
        };
        let fed = &cache.fed[slot];
        let page_tokens = self.arena.page_tokens();
        let len = if include_partial {
            fed.len()
        } else {
            fed.len() - fed.len() % page_tokens
        };
        if len == 0 {
            return;
        }
        for page in cache
            .index
            .register(&fed[..len], self.arena.slot_pages(slot))
        {
            self.arena.retain_page(page);
        }
    }

    /// Drops cold cache pins (LRU by last hit, sole-owner pages only)
    /// until at least `needed` pages are free or nothing evictable
    /// remains. Runs before every grant so cached-but-idle pages never
    /// starve live sequences.
    fn evict_cached_for(&mut self, needed: usize) {
        while self.arena.free_pages() < needed {
            let Some(cache) = self.prefix_cache.as_mut() else {
                return;
            };
            let pages = cache.index.evict_lru(self.arena.refcounts());
            if pages.is_empty() {
                return;
            }
            for page in pages {
                self.arena.release_page(page);
            }
        }
    }

    /// Grants pages for the upcoming appends.
    ///
    /// # Panics
    ///
    /// Panics on page exhaustion — callers that can see exhaustion at
    /// runtime (the functional backend) pre-check
    /// [`DistributedGpt2::free_pages`] and surface a typed error instead
    /// of ever reaching this panic.
    fn reserve_for(&mut self, entries: &[(usize, usize)]) {
        if self.prefix_cache.is_some() {
            let needed = entries
                .iter()
                .map(|&(slot, additional)| self.arena.pages_needed(slot, additional))
                .sum();
            self.evict_cached_for(needed);
        }
        self.arena
            .try_reserve_batch(entries)
            // lint: allow(panic_free) — engine invariant; a panic poisons the backend via catch_unwind
            .expect("KV page pool exhausted: pre-check free_pages before this call");
    }

    /// Claims the lowest-index free slot, or `None` when all slots are
    /// resident.
    pub fn acquire_slot(&mut self) -> Option<usize> {
        let slot = self.arena.acquire()?;
        if let Some(cache) = self.prefix_cache.as_mut() {
            cache.fed[slot].clear();
        }
        Some(slot)
    }

    /// Returns `slot` to the free list and reports how many pages
    /// actually came free (shared pages survive their other
    /// holders — a cache pin or another slot's mapping keeps them
    /// resident, so the count can be less than the table length).
    ///
    /// With the prefix cache on, the slot's pages are indexed first
    /// (full pages plus the final partial as a terminator), so a
    /// sequence's KV outlives it for future prompts sharing the prefix.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range or not in use.
    pub fn release_slot(&mut self, slot: usize) -> usize {
        self.prefix_register(slot, true);
        if let Some(cache) = self.prefix_cache.as_mut() {
            cache.fed[slot].clear();
        }
        self.arena.release(slot)
    }

    /// Tokens processed by the sequence resident in `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn slot_pos(&self, slot: usize) -> usize {
        self.arena.pos(slot)
    }

    /// Tokens processed so far by the single-sequence surface (slot 0).
    pub fn seq_len(&self) -> usize {
        self.slot_pos(0)
    }

    /// Per-node int8 KV bytes currently cached across all slots (shows
    /// the head-wise footprint reduction).
    pub fn node_kv_bytes(&self, node: usize) -> usize {
        assert!(node < self.nodes.len(), "node {node} out of range");
        self.arena.byte_len() / self.nodes.len()
    }

    /// Materializes `slot`'s entire KV state as contiguous per-layer
    /// caches, in `(node, layer)` order. [`LayerKvCache`] equality is
    /// content-based, so two engines agree here exactly when their KV
    /// states hold the same tokens — regardless of page geometry or how
    /// the prompt was chunked. This is the differential-test hook; it
    /// copies every byte, so keep it out of hot paths.
    pub fn materialized_kv(&self, slot: usize) -> Vec<LayerKvCache> {
        (0..self.arena.layers())
            .map(|kv_pool| self.arena.materialize(slot, kv_pool))
            .collect()
    }

    /// Audits the KV ledger between operations: the arena's refcounts
    /// balance against slot tables plus one pin per prefix-index entry
    /// ([`PagedKvArena::audit`]; so every entry names a live page), and
    /// each slot's fed-token history is as long as its KV. A test hook
    /// like [`DistributedGpt2::materialized_kv`]; keep it out of hot paths.
    ///
    /// # Panics
    ///
    /// Panics on the first ledger entry that drifted.
    pub fn audit(&self) {
        let mut pins = vec![0; self.arena.total_pages()];
        if let Some(cache) = &self.prefix_cache {
            for page in cache.index.pages() {
                pins[page] += 1;
            }
            for (slot, fed) in cache.fed.iter().enumerate() {
                let pos = self.arena.pos(slot);
                assert_eq!(fed.len(), pos, "slot {slot}'s fed tokens drifted");
            }
        }
        self.arena.audit(&pins);
    }

    /// Resets the single-sequence surface: clears slot 0's caches on every
    /// node and its position.
    pub fn reset(&mut self) {
        if let Some(cache) = self.prefix_cache.as_mut() {
            // Reset discards the sequence, so nothing gets registered.
            cache.fed[0].clear();
        }
        if self.arena.in_use(0) {
            self.arena.release(0);
            self.ensure_primary_slot();
        }
    }

    /// The one layer walk. Row `t` feeds `entries[t].1` to the sequence in
    /// slot `entries[t].0` at that slot's arena position plus the number
    /// of earlier rows of the same slot — so a decode step is one row per
    /// slot and a prefill chunk is consecutive rows of one slot, and
    /// nothing else distinguishes the two phases. On every node each
    /// linear runs once as a batched GEMM over all rows (each 32-row
    /// weight block is tiled across the whole batch before the next block
    /// streams), every row is quantized with its own scale, K/V rows are
    /// appended before any row attends (causality comes from each row's
    /// valid length), and gathers run per row in node order — which makes
    /// every row bit-identical to running it alone.
    ///
    /// Returns the logits of rows `logit_rows` (vocabulary-sharded LM
    /// head, sharded like every other linear; the host concatenates logit
    /// shards in node order — raw f32 over PCIe, logits never ride the
    /// ring). An empty range skips the LM head.
    ///
    /// The caller has already granted pages for every row
    /// ([`DistributedGpt2::reserve_for`]); this advances the slots.
    fn forward_rows(
        &mut self,
        entries: &[(usize, u32)],
        logit_rows: std::ops::Range<usize>,
    ) -> Vec<Vec<f32>> {
        let layers = self.model_cfg.layers;
        let d_head = self.model_cfg.d_head();
        let shard_w = self.model_cfg.d_model / self.nodes.len();
        let b = entries.len();

        let mut next: Vec<usize> = (0..self.arena.slots()).map(|s| self.arena.pos(s)).collect();
        let rows: Vec<Row> = entries
            .iter()
            .map(|&(slot, _)| {
                let pos = next[slot];
                next[slot] += 1;
                Row { slot, pos }
            })
            .collect();

        // Host embeds each row's token at its own position into one flat
        // `b × d` activation buffer, the residual stream.
        self.scratch.xs.clear();
        for (row, &(_, token)) in rows.iter().zip(entries) {
            let embedding = self.weights.embed(token, row.pos);
            self.scratch.xs.extend(embedding);
        }

        for layer in 0..layers {
            // QKV, per-row cache append, then attention with the rows
            // partitioned across the node's row shards, gathered per row.
            self.linear_stage(Linear::Qkv, layer, 0..b);
            for (node_idx, node) in self.nodes.iter().enumerate() {
                let w = node.weights.head_range.len() * d_head;
                for (t, row) in rows.iter().enumerate() {
                    let qkv = &node.gemm_out[t * 3 * w..(t + 1) * 3 * w];
                    let (k, v) = qkv[w..].split_at(w);
                    self.arena
                        .append_at(row.slot, node_idx * layers + layer, row.pos, k, v);
                }
            }
            batch_attention_phase(
                &mut self.nodes,
                &self.arena,
                self.pool.as_ref(),
                self.row_shards,
                layer,
                &rows,
                d_head,
            );
            self.router.gather_rows(
                &mut self.nodes,
                |n| &mut n.attn_out,
                b,
                shard_w,
                &mut self.scratch.stack.q8,
                &mut self.scratch.gathered,
            );
            self.linear_stage(Linear::Proj, layer, 0..b);
            self.linear_stage(Linear::Fc1, layer, 0..b);
            self.linear_stage(Linear::Fc2, layer, 0..b);
        }
        for row in &rows {
            self.arena.advance(row.slot, 1);
        }
        if logit_rows.is_empty() {
            return Vec::new();
        }

        // The requested rows only (non-final prefill outputs are
        // discarded, paper Fig. 1).
        self.linear_stage(Linear::LmHead, 0, logit_rows.clone());
        (0..logit_rows.len())
            .map(|t| {
                let mut row = Vec::with_capacity(self.model_cfg.vocab);
                for node in &self.nodes {
                    let vw = node.weights.lm_head.out_features();
                    row.extend_from_slice(&node.gemm_out[t * vw..(t + 1) * vw]);
                }
                row
            })
            .collect()
    }

    /// One linear stage of the walk, the same five times over: the host
    /// quantizes the stage's input rows one by one — rows `rows` of the
    /// residual stream through the layer norm in front of the linear (QKV,
    /// FC1, LM head), or what the previous stage gathered (out-proj, FC2)
    /// — every (node, row-shard) worker computes its slab
    /// ([`sharded_linear_phase`]; FC1's GELU is applied per slab), and the
    /// node outputs are all-gathered per row into `gathered`, which
    /// out-proj and FC2 then add to the residual stream. QKV and the LM
    /// head are not gathered: attention reads a node's QKV in place and
    /// logits leave over PCIe, so both stay in each node's `gemm_out`.
    fn linear_stage(&mut self, lin: Linear, layer: usize, rows: std::ops::Range<usize>) {
        let d = self.model_cfg.d_model;
        let HostScratch {
            stack,
            gathered,
            xs,
        } = &mut self.scratch;
        let ln = match lin {
            Linear::Qkv => Some(&self.weights.blocks[layer].ln1),
            Linear::Fc1 => Some(&self.weights.blocks[layer].ln2),
            Linear::LmHead => Some(&self.weights.ln_f),
            Linear::Proj | Linear::Fc2 => None,
        };
        let shard = lin.of(&self.nodes[0].weights, layer);
        let (width, shard_w) = (shard.in_features(), shard.out_features());
        let xmat = match ln {
            Some(_) => stack.stack_flat(&xs[rows.start * d..rows.end * d], ln, width),
            None => stack.stack_flat(gathered, None, width),
        };
        sharded_linear_phase(
            &mut self.nodes,
            self.pool.as_ref(),
            self.row_shards,
            lin,
            layer,
            &xmat,
            &stack.scales,
        );
        stack.reclaim(xmat);
        if matches!(lin, Linear::Qkv | Linear::LmHead) {
            return;
        }
        self.router.gather_rows(
            &mut self.nodes,
            |n| &mut n.gemm_out,
            rows.len(),
            shard_w,
            &mut stack.q8,
            gathered,
        );
        if ln.is_none() {
            for (x, g) in xs.iter_mut().zip(gathered.iter()) {
                *x += g;
            }
        }
    }

    /// Lazily claims slot 0 for the single-sequence surface. Engines
    /// built with [`DistributedGpt2::new`] pre-acquire it; on a
    /// `with_slots` engine the first `prefill`/`decode_step` claims it
    /// here (the paged arena grants pages only to resident slots).
    fn ensure_primary_slot(&mut self) {
        if self.arena.in_use(0) {
            return;
        }
        // Slot 0 is free here, hence the lowest free slot.
        assert_eq!(self.arena.acquire(), Some(0), "slot 0 must be free");
    }

    /// Prefill `prompt` into slot 0 with **shared weight passes**: every
    /// prompt token is a row of one batched GEMM per linear per node (the
    /// functional counterpart of the accelerator's batched-prefill
    /// extension), while attention stays causal per token. Each row is
    /// quantized with its own scale and gathers run per row in node
    /// order, so the logits and the resulting caches are bit-identical
    /// to feeding the prompt token by token.
    ///
    /// Returns the logits after the final prompt token.
    ///
    /// # Panics
    ///
    /// Panics if `prompt` is empty or would overflow the slot's capacity.
    pub fn prefill(&mut self, prompt: &[u32]) -> Vec<f32> {
        self.ensure_primary_slot();
        self.prefill_slot_chunk(0, prompt, true)
            // lint: allow(panic_free) — engine invariant; a panic poisons the backend via catch_unwind
            .expect("logits requested")
    }

    /// Decode step on slot 0: one token in, next-token logits out — a
    /// [`DistributedGpt2::decode_step_batch`] of one.
    pub fn decode_step(&mut self, token: u32) -> Vec<f32> {
        self.ensure_primary_slot();
        self.decode_step_batch(&[(0, token)])
            .pop()
            // lint: allow(panic_free) — engine invariant; a panic poisons the backend via catch_unwind
            .expect("one row in, one logits row out")
    }

    /// One chunk of an incremental prefill: feed `tokens` starting at the
    /// slot's current position. Because prefill starts at `arena.pos(slot)`
    /// and int8 GEMM rows accumulate independently, splitting a prompt into
    /// chunks of any size yields caches and final logits bit-identical to a
    /// single-pass prefill — this is what lets the scheduler interleave
    /// resident decode steps between long-prompt chunks.
    ///
    /// When `want_logits` is `false` the LM head is skipped entirely
    /// (non-final chunks never need logits) and `None` is returned.
    ///
    /// # Panics
    ///
    /// Panics if `tokens` is empty or the slot would overflow its
    /// capacity.
    pub fn prefill_slot_chunk(
        &mut self,
        slot: usize,
        prompt: &[u32],
        want_logits: bool,
    ) -> Option<Vec<f32>> {
        assert!(!prompt.is_empty(), "prompt must not be empty");
        self.reserve_for(&[(slot, prompt.len())]);
        let b = prompt.len();
        let entries: Vec<(usize, u32)> = prompt.iter().map(|&t| (slot, t)).collect();
        let logit_rows = if want_logits { b - 1..b } else { b..b };
        let mut logits = self.forward_rows(&entries, logit_rows);
        if let Some(cache) = self.prefix_cache.as_mut() {
            cache.fed[slot].extend_from_slice(prompt);
            // Full prompt pages are final the moment the chunk lands —
            // index them now so concurrent admissions can share them.
            self.prefix_register(slot, false);
        }
        logits.pop()
    }

    /// One decode step for a batch of resident sequences: entry `t` feeds
    /// `token` to the sequence in `slot` and receives its next-token
    /// logits, bit-identical to decoding each sequence alone through
    /// [`DistributedGpt2::decode_step`].
    ///
    /// This is the continuous-batching hot path: one weight pass per
    /// layer per step, shared by every resident sequence, while attention
    /// stays per-sequence over each slot's own head-sliced cache.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is empty, a slot repeats within the batch, or
    /// any slot would overflow its capacity.
    pub fn decode_step_batch(&mut self, entries: &[(usize, u32)]) -> Vec<Vec<f32>> {
        assert!(!entries.is_empty(), "batch must not be empty");
        assert!(
            entries
                .iter()
                .enumerate()
                .all(|(i, (s, _))| entries[..i].iter().all(|(earlier, _)| earlier != s)),
            "a sequence cannot decode two tokens in one step"
        );
        let reserve: Vec<(usize, usize)> = entries.iter().map(|&(s, _)| (s, 1)).collect();
        self.reserve_for(&reserve);
        let logits = self.forward_rows(entries, 0..entries.len());
        if let Some(cache) = self.prefix_cache.as_mut() {
            for &(slot, token) in entries {
                cache.fed[slot].push(token);
            }
        }
        logits
    }
}

/// Host-side working memory of the layer walk, kept across steps. Every
/// buffer is cleared before use, so like [`ShardScratch`] it is not compared.
#[derive(Debug, Clone, Default)]
struct HostScratch {
    stack: StackScratch,
    gathered: Vec<f32>,
    xs: Vec<f32>,
}

impl PartialEq for HostScratch {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

/// Host-side row-stacking scratch for the batched stages: LN + per-row
/// quantization buffers plus the stacked int8 storage.
/// [`StackScratch::stack_flat`] moves the storage into the returned matrix
/// and [`StackScratch::reclaim`] takes it back, so per-stage stacking
/// allocates nothing in steady state.
#[derive(Debug, Clone, Default)]
struct StackScratch {
    h: Vec<f32>,
    q8: Vec<i8>,
    rows8: Vec<i8>,
    /// Per-row activation scales of the most recent
    /// [`StackScratch::stack_flat`].
    scales: Vec<f32>,
}

impl StackScratch {
    /// Stacks `ln(row)` (or the raw row when `ln` is `None`) quantized
    /// per-row into a `rows / width × width` int8 matrix from a flat
    /// row-major buffer — the host-side replicated prologue of every
    /// sharded batched linear, one row per token (batched prefill) or per
    /// resident sequence (batched decode). Per-row scales land in
    /// `self.scales`.
    fn stack_flat(
        &mut self,
        rows: &[f32],
        ln: Option<&LayerNormParams>,
        width: usize,
    ) -> Matrix<i8> {
        layernorm_quantize_rows(
            rows,
            width,
            ln,
            &mut self.h,
            &mut self.rows8,
            &mut self.scales,
        );
        let stacked = Matrix::from_vec(rows.len() / width, width, std::mem::take(&mut self.rows8));
        // lint: allow(panic_free) — engine invariant; a panic poisons the backend via catch_unwind
        stacked.expect("stacked rows")
    }

    /// Returns a stacked matrix's storage for reuse by the next stage.
    fn reclaim(&mut self, mat: Matrix<i8>) {
        self.rows8 = mat.into_vec();
    }
}

impl Autoregressive for DistributedGpt2 {
    fn prefill(&mut self, prompt: &[u32]) -> Vec<f32> {
        DistributedGpt2::prefill(self, prompt)
    }

    fn decode_step(&mut self, token: u32) -> Vec<f32> {
        DistributedGpt2::decode_step(self, token)
    }

    fn seq_len(&self) -> usize {
        DistributedGpt2::seq_len(self)
    }

    fn max_seq(&self) -> usize {
        // The generate driver's early-stop bound is slot 0's capacity:
        // engines built with `new` preallocate it to the model's max_seq,
        // but a `with_slots` engine may hold less, and overrunning it
        // would panic in the arena instead of stopping early as the
        // generate contract promises.
        self.slot_capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use looplynx_model::sampler::Sampler;

    fn engine(nodes: usize) -> LoopLynx {
        LoopLynx::new(
            ModelConfig::gpt2_medium(),
            ArchConfig::builder().nodes(nodes).build().unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn generation_report_aggregates() {
        let e = engine(2);
        let r = e.simulate_generation(16, 16);
        assert_eq!(r.prefill_tokens, 16);
        assert_eq!(r.decode_tokens, 16);
        assert!(r.prefill_ms > 0.0 && r.decode_ms > 0.0);
        assert!((r.total_ms() - (r.prefill_ms + r.decode_ms)).abs() < 1e-9);
        assert!(r.tokens_per_second() > 0.0);
        assert!(r.energy.joules > 0.0);
    }

    #[test]
    fn table2_operating_point() {
        // steady-state decode at context 512 reproduces Table II latencies
        let l1 = engine(1).steady_state_decode_ms(512);
        let l2 = engine(2).steady_state_decode_ms(512);
        let l4 = engine(4).steady_state_decode_ms(512);
        assert!((5.8..7.4).contains(&l1), "1-node {l1}");
        assert!((3.4..4.3).contains(&l2), "2-node {l2}");
        assert!((2.2..2.9).contains(&l4), "4-node {l4}");
    }

    #[test]
    fn invalid_partition_is_an_error() {
        let res = LoopLynx::new(
            ModelConfig::gpt2_medium(),
            ArchConfig::builder().nodes(5).build().unwrap(),
        );
        assert!(res.is_err());
    }

    #[test]
    fn prefill_batching_extension_speeds_up_prompts() {
        // Extension beyond the paper: batched prefill amortizes weight
        // streaming across prompt tokens.
        let model = ModelConfig::gpt2_medium();
        let unbatched = LoopLynx::new(
            model.clone(),
            ArchConfig::builder().nodes(2).build().unwrap(),
        )
        .unwrap()
        .simulate_generation(128, 32);
        let batched = LoopLynx::new(
            model,
            ArchConfig::builder()
                .nodes(2)
                .prefill_batch(8)
                .build()
                .unwrap(),
        )
        .unwrap()
        .simulate_generation(128, 32);
        assert!(
            batched.prefill_ms < 0.75 * unbatched.prefill_ms,
            "batched {} vs unbatched {}",
            batched.prefill_ms,
            unbatched.prefill_ms
        );
        // decode path is untouched
        let rel = (batched.decode_ms - unbatched.decode_ms).abs() / unbatched.decode_ms;
        assert!(rel < 1e-9, "decode changed by {rel}");
    }

    #[test]
    fn prefill_batching_saturates_at_compute_bound() {
        // Doubling the batch beyond the DSP-packing limit stops helping:
        // per-token prefill latency converges.
        let model = ModelConfig::gpt2_medium();
        let per_token = |batch: usize| {
            LoopLynx::new(
                model.clone(),
                ArchConfig::builder()
                    .nodes(2)
                    .prefill_batch(batch)
                    .build()
                    .unwrap(),
            )
            .unwrap()
            .simulate_generation(128, 2)
            .prefill_ms
                / 128.0
        };
        let b1 = per_token(1);
        let b2 = per_token(2);
        let b16 = per_token(16);
        let b32 = per_token(32);
        assert!(b2 < b1);
        assert!(b16 < b2);
        // diminishing returns: the last doubling buys < 20 %
        assert!(b32 > 0.8 * b16, "b16 {b16} vs b32 {b32}");
    }

    #[test]
    fn prefill_is_cheaper_per_token_than_decode() {
        let e = engine(2);
        let r = e.simulate_generation(64, 64);
        let prefill_per = r.prefill_ms / 64.0;
        let decode_per = r.decode_ms / 64.0;
        assert!(
            prefill_per < decode_per,
            "prefill {prefill_per} vs decode {decode_per}"
        );
    }

    #[test]
    fn distributed_exact_matches_reference_logits() {
        let cfg = ModelConfig::tiny();
        let reference = Gpt2Model::synthetic(&cfg, 21);
        for nodes in [1usize, 2, 4] {
            let mut dist = DistributedGpt2::new(&reference, nodes, RingMode::Exact).unwrap();
            let mut single = reference.clone();
            let prompt = [3u32, 14, 15, 9, 2];
            let a = single.prefill(&prompt);
            let b = dist.prefill(&prompt);
            assert_eq!(
                a, b,
                "exact-mode logits must be bit-identical ({nodes} nodes)"
            );
            let a2 = single.decode_step(7);
            let b2 = dist.decode_step(7);
            assert_eq!(a2, b2, "decode logits must match ({nodes} nodes)");
        }
    }

    #[test]
    fn distributed_quantized_is_close_and_agrees_on_greedy_tokens() {
        let cfg = ModelConfig::tiny();
        let reference = Gpt2Model::synthetic(&cfg, 33);
        // One int8 gather rounds each element by at most half a step, a
        // 1/254 share of its shard's largest magnitude, and a layer gathers
        // four times (attention, out-proj, FC1, FC2). The bound below, that
        // share of the largest logit once per gather, is empirical, not
        // derived: layernorm, GELU and the LM head do not keep round-off
        // proportional to the peak logit. On this model and seed the rows
        // move 0.27-0.45 of it.
        let gathers = 4 * cfg.layers;
        let mut exact = DistributedGpt2::new(&reference, 2, RingMode::Exact).unwrap();
        let mut quant = DistributedGpt2::new(&reference, 2, RingMode::Quantized).unwrap();
        let mut rows = vec![(exact.prefill(&[5, 6, 7]), quant.prefill(&[5, 6, 7]))];
        for token in [9, 4, 11] {
            rows.push((exact.decode_step(token), quant.decode_step(token)));
        }
        for (i, (want, got)) in rows.iter().enumerate() {
            let peak = want.iter().fold(0.0f32, |m, x| m.max(x.abs()));
            let bound = gathers as f32 * peak / 254.0;
            let worst = want
                .iter()
                .zip(got)
                .fold(0.0f32, |m, (a, b)| m.max((a - b).abs()));
            assert!(worst > 0.0, "row {i}: the int8 ring changed nothing");
            assert!(worst <= bound, "row {i}: moved {worst} > {bound}");
        }
        let mut single = reference.clone();
        let mut quant = DistributedGpt2::new(&reference, 2, RingMode::Quantized).unwrap();
        let prompt = [5u32, 6, 7];
        let a = single.generate(&prompt, 8, &mut Sampler::greedy());
        let b = quant.generate(&prompt, 8, &mut Sampler::greedy());
        // int8 ring payloads perturb logits slightly; greedy sequences may
        // diverge late but must agree at the start
        assert_eq!(a[0], b[0], "first generated token diverged: {a:?} vs {b:?}");
    }

    #[test]
    fn generate_skips_wasted_final_forward() {
        // Regression: the final decode_step used to run a full distributed
        // forward pass whose logits were immediately discarded. After the
        // fix the last sampled token is never forwarded, so the cache holds
        // exactly prompt + n - 1 tokens.
        let cfg = ModelConfig::tiny();
        let reference = Gpt2Model::synthetic(&cfg, 77);
        let prompt = [3u32, 14, 15, 9, 2];
        let n = 6;
        for nodes in [1usize, 2] {
            let mut dist = DistributedGpt2::new(&reference, nodes, RingMode::Exact).unwrap();
            let out = dist.generate(&prompt, n, &mut Sampler::greedy());
            assert_eq!(out.len(), n);
            assert_eq!(
                dist.seq_len(),
                prompt.len() + n - 1,
                "{nodes} nodes: wasted forward pass crept back in"
            );
        }
        // the reference engine agrees (same fix applied there)
        let mut single = reference.clone();
        single.generate(&prompt, n, &mut Sampler::greedy());
        assert_eq!(single.seq_len(), prompt.len() + n - 1);
    }

    #[test]
    fn generate_still_matches_reference_after_skip_fix() {
        // Skipping the wasted pass must not change the tokens produced.
        let cfg = ModelConfig::tiny();
        let reference = Gpt2Model::synthetic(&cfg, 33);
        let mut dist = DistributedGpt2::new(&reference, 2, RingMode::Exact).unwrap();
        let mut single = reference.clone();
        let prompt = [5u32, 6, 7];
        let a = single.generate(&prompt, 8, &mut Sampler::greedy());
        let b = dist.generate(&prompt, 8, &mut Sampler::greedy());
        assert_eq!(a, b, "exact-mode generation must match the reference");
    }

    #[test]
    fn degenerate_report_math_is_finite() {
        // decode_ms == 0 (and decode_tokens == 0) must not produce
        // inf/NaN in the derived metrics.
        let e = engine(2);
        let mut r = e.simulate_generation(8, 8);
        r.decode_ms = 0.0;
        assert_eq!(r.tokens_per_second(), 0.0);
        assert_eq!(r.decode_ms_per_token(), 0.0);
        r.decode_tokens = 0;
        assert_eq!(r.tokens_per_second(), 0.0);
        assert_eq!(r.decode_ms_per_token(), 0.0);
        assert!(r.to_string().contains("tok/s"));
    }

    #[test]
    fn simulate_prefill_matches_generation_prefill() {
        for batch in [1usize, 8] {
            let e = LoopLynx::new(
                ModelConfig::gpt2_medium(),
                ArchConfig::builder()
                    .nodes(2)
                    .prefill_batch(batch)
                    .build()
                    .unwrap(),
            )
            .unwrap();
            let phase = e.simulate_prefill(37);
            let report = e.simulate_generation(37, 1);
            assert_eq!(phase.to_millis(e.arch()), report.prefill_ms);
        }
    }

    #[test]
    fn node_kv_footprint_shrinks_with_nodes() {
        let cfg = ModelConfig::tiny();
        let reference = Gpt2Model::synthetic(&cfg, 40);
        let mut one = DistributedGpt2::new(&reference, 1, RingMode::Exact).unwrap();
        let mut four = DistributedGpt2::new(&reference, 4, RingMode::Exact).unwrap();
        one.prefill(&[1, 2, 3, 4]);
        four.prefill(&[1, 2, 3, 4]);
        assert_eq!(one.node_kv_bytes(0), 4 * four.node_kv_bytes(0));
    }

    #[test]
    fn generate_stops_early_at_slot_capacity() {
        // On a with_slots engine the generate driver must stop when slot
        // 0's arena fills (returning fewer tokens), not panic in the
        // arena's capacity assert.
        let cfg = ModelConfig::tiny();
        let reference = Gpt2Model::synthetic(&cfg, 5);
        let mut e = DistributedGpt2::with_slots(&reference, 1, RingMode::Exact, 2, 12).unwrap();
        let out = e.generate(&[1, 2, 3, 4], 100, &mut Sampler::greedy());
        assert!(!out.is_empty() && out.len() <= 12, "{} tokens", out.len());
        assert!(e.seq_len() <= 12);
    }

    #[test]
    fn reset_restores_distributed_state() {
        let cfg = ModelConfig::tiny();
        let reference = Gpt2Model::synthetic(&cfg, 50);
        let mut dist = DistributedGpt2::new(&reference, 2, RingMode::Exact).unwrap();
        let first = dist.prefill(&[1, 2]);
        dist.reset();
        assert_eq!(dist.seq_len(), 0);
        let second = dist.prefill(&[1, 2]);
        assert_eq!(first, second);
    }
}
