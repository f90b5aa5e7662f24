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
use looplynx_tensor::linear::QuantLinear;
use looplynx_tensor::matrix::Matrix;
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

/// `xs[r]` for each of `ranges`, concatenated in one pass.
fn pick<T: Copy>(xs: &[T], ranges: &[Range<usize>]) -> Vec<T> {
    let mut out = Vec::with_capacity(ranges.iter().map(Range::len).sum());
    for r in ranges {
        out.extend_from_slice(&xs[r.clone()]);
    }
    out
}

/// Rows `ranges` of `lin`, in that order, as a standalone shard. Adjacent
/// ranges are coalesced first. A single range is a
/// [`QuantizedMatrix::slice_rows`] — a view into the same arena when the
/// source is a mapped checkpoint, so sharding touches no weight page; only
/// a shard whose rows lie apart in the source (head-aligned QKV on two or
/// more nodes) is copied, once.
fn shard_linear(lin: &QuantLinear, ranges: impl IntoIterator<Item = Range<usize>>) -> QuantLinear {
    let mut merged: Vec<Range<usize>> = Vec::new();
    for r in ranges {
        match merged.last_mut() {
            Some(last) if last.end == r.start => last.end = r.end,
            _ => merged.push(r),
        }
    }
    let w = lin.weight();
    let weight = match merged.as_slice() {
        [one] => w.slice_rows(one.start, one.end),
        apart => {
            let cols = w.shape().1;
            let spans: Vec<_> = apart.iter().map(|r| r.start * cols..r.end * cols).collect();
            let data = pick(w.data().as_slice(), &spans);
            QuantizedMatrix::from_parts(
                Matrix::from_vec(data.len() / cols, cols, data).expect("whole rows"),
                pick(w.row_scales(), apart),
                pick(w.row_sums(), apart),
            )
        }
    };
    QuantLinear::new(weight, pick(lin.bias(), &merged)).expect("shard bias matches shard rows")
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
}

/// All weights one node holds. The replicated tensors (embeddings, layer
/// norms) are not here: every node reads them from the one
/// [`Gpt2Weights`] the shards were cut from.
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
    let qkv = [0, d, 2 * d].map(|base| base + slice.start..base + slice.end);
    LayerShard {
        qkv: shard_linear(&block.qkv, qkv),
        proj: shard_linear(&block.proj, [slice.clone()]),
        fc1: shard_linear(&block.fc1, [split_range(model.d_ff, nodes, node)]),
        fc2: shard_linear(&block.fc2, [slice]),
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
                lm_head: shard_linear(&weights.lm_head, [vocab.clone()]),
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
    fn mapped_shards_are_views_except_a_split_qkv() {
        let (cfg, w) = setup();
        let path = std::env::temp_dir().join(format!("looplynx_shards_{}.bin", std::process::id()));
        looplynx_model::checkpoint::save(&cfg, &w, &path).unwrap();
        let mapped = looplynx_model::checkpoint::load_model(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let view = |lin: &QuantLinear| lin.weight().data().is_arena_view();

        for nodes in [1usize, 2] {
            let shards = shard_weights(mapped.weights(), &cfg, nodes).unwrap();
            assert_eq!(shards, shard_weights(&w, &cfg, nodes).unwrap());
            for (i, s) in shards.iter().enumerate() {
                assert!(view(&s.lm_head), "{nodes} nodes: lm_head");
                for (l, (shard, block)) in s.layers.iter().zip(&w.blocks).enumerate() {
                    assert!(
                        view(&shard.proj) && view(&shard.fc1) && view(&shard.fc2),
                        "{nodes} nodes, layer {l}"
                    );
                    // One node's Q, K and V ranges are adjacent: one view.
                    assert_eq!(view(&shard.qkv), nodes == 1, "{nodes} nodes, layer {l}");
                    // Split or not, the shard is the three head-aligned
                    // slices stacked, row sums recomputed from the payload.
                    let d = cfg.d_model;
                    let r = split_range(d, nodes, i);
                    let [q, k, v] = [0, d, 2 * d].map(|base| base + r.start..base + r.end);
                    let full = block.qkv.weight();
                    let part = |r: &Range<usize>| full.slice_rows(r.start, r.end);
                    let payload = [&q, &k, &v]
                        .into_iter()
                        .flat_map(|r| part(r).data().as_slice().to_vec())
                        .collect();
                    let data = Matrix::from_vec(3 * r.len(), d, payload).unwrap();
                    let sums = data
                        .iter_rows()
                        .map(|row| row.iter().map(|&x| i32::from(x)).sum())
                        .collect();
                    let stacked = QuantLinear::new(
                        QuantizedMatrix::from_parts(
                            data,
                            pick(full.row_scales(), &[q.clone(), k.clone(), v.clone()]),
                            sums,
                        ),
                        pick(block.qkv.bias(), &[q, k, v]),
                    )
                    .unwrap();
                    assert_eq!(shard.qkv, stacked, "{nodes} nodes, layer {l}");
                }
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
