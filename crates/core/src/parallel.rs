//! Model parallelism: weight sharding and head-wise KV partitioning.
//!
//! Paper Fig. 2(c): "this strategy distributes the weights of linear layers
//! across devices along the output dimension and employs a head-wise
//! partitioning approach for the KV cache to minimize the memory footprint
//! on each device. For multi-node collaborative inference, the host
//! distributes the same full embedding vector to all nodes, with each node
//! responsible for computing a sub-vector."
//!
//! The QKV projection is sharded *head-aligned*: node *i* receives the Q,
//! K and V rows of its own heads, so attention runs entirely node-locally
//! and no synchronization is needed between the QKV projection and MHA.

use std::fmt;
use std::ops::Range;

use looplynx_model::config::ModelConfig;
use looplynx_model::weights::{BlockWeights, Gpt2Weights};
use looplynx_tensor::error::ShapeError;
use looplynx_tensor::linear::QuantLinear;
use looplynx_tensor::matrix::Matrix;
use looplynx_tensor::norm::LayerNormParams;
use looplynx_tensor::quant::QuantizedMatrix;

/// Error returned when a model cannot be partitioned over a ring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionError {
    message: String,
}

impl fmt::Display for PartitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot partition model: {}", self.message)
    }
}

impl std::error::Error for PartitionError {}

/// Validates that `model` can be split across `nodes`.
///
/// # Errors
///
/// Returns [`PartitionError`] if heads or the FFN width do not divide.
pub fn validate_partition(model: &ModelConfig, nodes: usize) -> Result<(), PartitionError> {
    if nodes == 0 {
        return Err(PartitionError {
            message: "ring needs at least one node".into(),
        });
    }
    if !model.heads.is_multiple_of(nodes) {
        return Err(PartitionError {
            message: format!("{} heads not divisible by {} nodes", model.heads, nodes),
        });
    }
    if !model.d_model.is_multiple_of(model.heads) {
        return Err(PartitionError {
            message: format!(
                "d_model {} not divisible by {} heads",
                model.d_model, model.heads
            ),
        });
    }
    if !model.d_ff.is_multiple_of(nodes) {
        return Err(PartitionError {
            message: format!("d_ff {} not divisible by {} nodes", model.d_ff, nodes),
        });
    }
    Ok(())
}

/// Near-equal split of `total` items into `parts`; part `i` gets the range
/// with any remainder distributed to the earliest parts.
///
/// # Panics
///
/// Panics if `parts` is zero or `i >= parts`.
pub fn split_range(total: usize, parts: usize, i: usize) -> Range<usize> {
    assert!(parts > 0, "parts must be positive");
    assert!(i < parts, "part index out of range");
    let base = total / parts;
    let extra = total % parts;
    let start = i * base + i.min(extra);
    let len = base + usize::from(i < extra);
    start..start + len
}

/// Vertically concatenates quantized row-shards, preserving per-row
/// scales. One preallocated buffer and a single pass over the parts —
/// repeated `vstack` would re-copy every already-stacked row per part
/// (O(parts²) bytes moved).
///
/// # Errors
///
/// Returns [`ShapeError`] if the parts disagree on column count.
fn concat_quantized(parts: &[QuantizedMatrix]) -> Result<QuantizedMatrix, ShapeError> {
    let cols = parts[0].shape().1;
    let total_rows: usize = parts.iter().map(|p| p.shape().0).sum();
    let mut data = Vec::with_capacity(total_rows * cols);
    let mut scales = Vec::with_capacity(total_rows);
    for p in parts {
        if p.shape().1 != cols {
            return Err(ShapeError::new("concat", (total_rows, cols), p.shape()));
        }
        data.extend_from_slice(p.data().as_slice());
        scales.extend_from_slice(p.row_scales());
    }
    Ok(QuantizedMatrix::new(
        Matrix::from_vec(total_rows, cols, data)?,
        scales,
    ))
}

/// Extracts the rows `range` of a linear layer as a standalone shard.
fn slice_linear(lin: &QuantLinear, range: Range<usize>) -> QuantLinear {
    let weight = lin.weight().slice_rows(range.start, range.end);
    let bias = lin.bias()[range].to_vec();
    QuantLinear::new(weight, bias).expect("shard bias matches shard rows")
}

/// One layer's weight shards on one node.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerShard {
    /// Head-aligned QKV rows (this node's heads' Q, then K, then V).
    pub qkv: QuantLinear,
    /// Output-projection rows.
    pub proj: QuantLinear,
    /// FC1 rows.
    pub fc1: QuantLinear,
    /// FC2 rows.
    pub fc2: QuantLinear,
    /// Pre-attention layernorm (replicated).
    pub ln1: LayerNormParams,
    /// Pre-MLP layernorm (replicated).
    pub ln2: LayerNormParams,
}

/// All weights one node holds.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeWeights {
    /// Node id in ring order.
    pub node: usize,
    /// Ring size.
    pub nodes: usize,
    /// Heads this node owns.
    pub head_range: Range<usize>,
    /// Per-layer shards.
    pub layers: Vec<LayerShard>,
    /// Final layernorm (replicated).
    pub ln_f: LayerNormParams,
    /// LM-head row shard (vocabulary split).
    pub lm_head: QuantLinear,
    /// Vocabulary rows this node computes.
    pub vocab_range: Range<usize>,
}

impl NodeWeights {
    /// Int8 weight bytes stored on this node — the per-node HBM footprint
    /// the head-wise/output-split partitioning minimizes.
    pub fn weight_bytes(&self) -> usize {
        self.layers
            .iter()
            .map(|l| {
                l.qkv.weight_bytes()
                    + l.proj.weight_bytes()
                    + l.fc1.weight_bytes()
                    + l.fc2.weight_bytes()
            })
            .sum::<usize>()
            + self.lm_head.weight_bytes()
    }
}

fn shard_block(block: &BlockWeights, model: &ModelConfig, node: usize, nodes: usize) -> LayerShard {
    let d = model.d_model;
    let slice = split_range(d, nodes, node);
    // Head-aligned QKV: this node's Q rows, K rows, V rows.
    let q = block.qkv.weight().slice_rows(slice.start, slice.end);
    let k = block
        .qkv
        .weight()
        .slice_rows(d + slice.start, d + slice.end);
    let v = block
        .qkv
        .weight()
        .slice_rows(2 * d + slice.start, 2 * d + slice.end);
    let qkv_w = concat_quantized(&[q, k, v]).expect("equal widths");
    let mut qkv_bias = block.qkv.bias()[slice.clone()].to_vec();
    qkv_bias.extend_from_slice(&block.qkv.bias()[d + slice.start..d + slice.end]);
    qkv_bias.extend_from_slice(&block.qkv.bias()[2 * d + slice.start..2 * d + slice.end]);
    let qkv = QuantLinear::new(qkv_w, qkv_bias).expect("qkv shard consistent");

    let ff_slice = split_range(model.d_ff, nodes, node);
    LayerShard {
        qkv,
        proj: slice_linear(&block.proj, slice.clone()),
        fc1: slice_linear(&block.fc1, ff_slice),
        fc2: slice_linear(&block.fc2, slice),
        ln1: block.ln1.clone(),
        ln2: block.ln2.clone(),
    }
}

/// Shards full model weights across `nodes` ring nodes.
///
/// # Errors
///
/// Returns [`PartitionError`] if the model does not divide.
pub fn shard_weights(
    weights: &Gpt2Weights,
    model: &ModelConfig,
    nodes: usize,
) -> Result<Vec<NodeWeights>, PartitionError> {
    validate_partition(model, nodes)?;
    Ok((0..nodes)
        .map(|node| {
            let heads = split_range(model.heads, nodes, node);
            let vocab = split_range(model.vocab, nodes, node);
            NodeWeights {
                node,
                nodes,
                head_range: heads,
                layers: weights
                    .blocks
                    .iter()
                    .map(|b| shard_block(b, model, node, nodes))
                    .collect(),
                ln_f: weights.ln_f.clone(),
                lm_head: slice_linear(&weights.lm_head, vocab.clone()),
                vocab_range: vocab,
            }
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use looplynx_tensor::quant::quantize_vec;

    fn setup() -> (ModelConfig, Gpt2Weights) {
        let cfg = ModelConfig::tiny();
        let w = Gpt2Weights::synthetic(&cfg, 5);
        (cfg, w)
    }

    #[test]
    fn split_range_tiles_exactly() {
        for (total, parts) in [(16usize, 4usize), (50257, 4), (7, 3), (5, 5)] {
            let mut covered = 0;
            for i in 0..parts {
                let r = split_range(total, parts, i);
                assert_eq!(r.start, covered, "ranges must be contiguous");
                covered = r.end;
            }
            assert_eq!(covered, total, "ranges must cover everything");
        }
    }

    #[test]
    fn validate_rejects_bad_splits() {
        let m = ModelConfig::gpt2_medium();
        assert!(validate_partition(&m, 1).is_ok());
        assert!(validate_partition(&m, 2).is_ok());
        assert!(validate_partition(&m, 4).is_ok());
        assert!(validate_partition(&m, 3).is_err());
        assert!(validate_partition(&m, 0).is_err());
        // GPT-2 XL has 25 heads: cannot split over 2 nodes
        assert!(validate_partition(&ModelConfig::gpt2_xl(), 2).is_err());
    }

    #[test]
    fn shards_cover_all_bytes() {
        let (cfg, w) = setup();
        for nodes in [1usize, 2, 4] {
            let shards = shard_weights(&w, &cfg, nodes).unwrap();
            let total: usize = shards.iter().map(NodeWeights::weight_bytes).sum();
            assert_eq!(total, cfg.weights_bytes_total(), "nodes={nodes}");
        }
    }

    #[test]
    fn single_node_shard_is_whole_model() {
        let (cfg, w) = setup();
        let shards = shard_weights(&w, &cfg, 1).unwrap();
        assert_eq!(shards.len(), 1);
        assert_eq!(shards[0].head_range, 0..cfg.heads);
        assert_eq!(shards[0].layers[0].fc1.out_features(), cfg.d_ff);
    }

    #[test]
    fn qkv_shard_is_head_aligned() {
        // Node i's QKV shard applied to x must equal the corresponding rows
        // of the full QKV output: [q_i, k_i, v_i].
        let (cfg, w) = setup();
        let nodes = 2;
        let shards = shard_weights(&w, &cfg, nodes).unwrap();
        let x = quantize_vec(&vec![0.1f32; cfg.d_model]);
        let full = w.blocks[0].qkv.forward(&x);
        let d = cfg.d_model;
        for (i, s) in shards.iter().enumerate() {
            let part = s.layers[0].qkv.forward(&x);
            let slice = split_range(d, nodes, i);
            let width = slice.len();
            for (j, &v) in part.iter().enumerate() {
                let expect = match j / width {
                    0 => full[slice.start + (j % width)],
                    1 => full[d + slice.start + (j % width)],
                    2 => full[2 * d + slice.start + (j % width)],
                    _ => unreachable!(),
                };
                assert!((v - expect).abs() < 1e-5, "node {i} elem {j}");
            }
        }
    }

    #[test]
    fn linear_shards_stitch_to_full_output() {
        let (cfg, w) = setup();
        let nodes = 4;
        let shards = shard_weights(&w, &cfg, nodes).unwrap();
        let x = quantize_vec(
            &(0..cfg.d_model)
                .map(|i| (i as f32 * 0.17).sin())
                .collect::<Vec<_>>(),
        );
        let full = w.blocks[0].proj.forward(&x);
        let stitched: Vec<f32> = shards
            .iter()
            .flat_map(|s| s.layers[0].proj.forward(&x))
            .collect();
        assert_eq!(full.len(), stitched.len());
        for (a, b) in full.iter().zip(&stitched) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn lm_head_vocab_split_covers_vocab() {
        let (cfg, w) = setup();
        let shards = shard_weights(&w, &cfg, 4).unwrap();
        let covered: usize = shards.iter().map(|s| s.vocab_range.len()).sum();
        assert_eq!(covered, cfg.vocab);
        // ranges in node order are contiguous
        for w2 in shards.windows(2) {
            assert_eq!(w2[0].vocab_range.end, w2[1].vocab_range.start);
        }
    }

    #[test]
    fn per_node_footprint_shrinks() {
        let (cfg, w) = setup();
        let one = shard_weights(&w, &cfg, 1).unwrap()[0].weight_bytes();
        let four = shard_weights(&w, &cfg, 4).unwrap()[0].weight_bytes();
        assert!(
            four * 3 < one,
            "4-way shard should be ~1/4: {four} vs {one}"
        );
    }
}
