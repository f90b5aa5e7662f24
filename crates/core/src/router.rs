//! The simplex ring router (functional side).
//!
//! Paper Fig. 6(c): each node writes its datapacks to its successor and
//! reads from its predecessor; "each router maintains an offset based on
//! the node ID, and the router continuously writes the received datapacks
//! into the buffer starting from this offset. This ensures that all buffers
//! maintain consistent data after … rounds of synchronization."
//!
//! Two gather modes are provided:
//!
//! * [`RingMode::Exact`] — shards travel as exact f32 sub-vectors. With
//!   this mode the distributed computation is bit-identical to the
//!   single-node reference, which the integration tests exploit.
//! * [`RingMode::Quantized`] — shards are quantized to int8 datapacks with
//!   a per-shard scale before travelling (what the hardware actually
//!   sends); receivers dequantize. Numerically close, not identical.

use looplynx_tensor::quant::quantize_into;

/// How gathered activations travel on the ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RingMode {
    /// Exact f32 payloads (reference algebra; 4 B/element traffic).
    Exact,
    /// Int8 datapacks with per-shard scales (hardware path; 1 B/element).
    #[default]
    Quantized,
}

/// The functional ring: gathers per-node sub-vectors into the full vector
/// every node needs, mirroring the router's offset rule.
#[derive(Debug, Clone, PartialEq)]
pub struct Router {
    nodes: usize,
    mode: RingMode,
}

impl Router {
    /// Creates a router for `nodes` ring nodes.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero.
    pub fn new(nodes: usize, mode: RingMode) -> Self {
        assert!(nodes > 0, "ring needs at least one node");
        Router { nodes, mode }
    }

    /// Ring size.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Gather mode.
    pub fn mode(&self) -> RingMode {
        self.mode
    }

    /// All-gathers `rows` rows of per-node shards into `out`: the full
    /// rows every node needs (every node receives an identical copy; it
    /// is written once). Node `i`'s shard of row `t` is
    /// `shard(&mut nodes[i])[t × shard_w..(t + 1) × shard_w]`, and it lands
    /// at offset `i × shard_w` of row `t` — the router's node-id offset
    /// rule, which makes every node's buffer identical after the final
    /// round. Under [`RingMode::Quantized`] each (row, node) shard is
    /// quantized with its own scale, which travels in the datapack header,
    /// and dequantized at the consumer; `q8` is its scratch.
    ///
    /// The 1-node exact gather is the identity: the shard buffer is
    /// swapped into `out` instead of copied, so the node's buffer then
    /// holds what `out` held (the engine's shard buffers are scratch,
    /// overwritten by the next stage).
    ///
    /// # Panics
    ///
    /// Panics if there is not one node per ring node or a shard buffer
    /// does not hold exactly `rows × shard_w` values.
    pub fn gather_rows<N>(
        &self,
        nodes: &mut [N],
        shard: impl Fn(&mut N) -> &mut Vec<f32>,
        rows: usize,
        shard_w: usize,
        q8: &mut Vec<i8>,
        out: &mut Vec<f32>,
    ) {
        assert_eq!(nodes.len(), self.nodes, "one shard per node");
        assert!(
            nodes.iter_mut().all(|n| shard(n).len() == rows * shard_w),
            "unequal shard lengths: each node's shard holds rows × shard_w values"
        );
        if self.nodes == 1 && self.mode == RingMode::Exact {
            std::mem::swap(out, shard(&mut nodes[0]));
            return;
        }
        out.clear();
        out.reserve(rows * self.nodes * shard_w);
        for t in 0..rows {
            for node in nodes.iter_mut() {
                let piece = &shard(node)[t * shard_w..(t + 1) * shard_w];
                match self.mode {
                    RingMode::Exact => out.extend_from_slice(piece),
                    RingMode::Quantized => {
                        // quant unit → datapacks → router → dequantize at
                        // the consumer.
                        let scale = quantize_into(piece, q8);
                        out.extend(q8.iter().map(|&q| q as f32 * scale));
                    }
                }
            }
        }
    }

    /// Bytes one node contributes to a gather of `elements` per node.
    pub fn shard_bytes(&self, elements: usize) -> usize {
        match self.mode {
            RingMode::Exact => elements * 4,
            RingMode::Quantized => elements,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use looplynx_sim::net::RingSpec;
    use looplynx_sim::time::Frequency;

    /// One row per node buffer, gathered.
    fn gather(r: &Router, mut shards: Vec<Vec<f32>>) -> Vec<f32> {
        let w = shards.first().map_or(0, Vec::len);
        let mut out = Vec::new();
        r.gather_rows(&mut shards, |s| s, 1, w, &mut Vec::new(), &mut out);
        out
    }

    #[test]
    fn exact_gather_concatenates_in_node_order() {
        let r = Router::new(3, RingMode::Exact);
        let full = gather(&r, vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        assert_eq!(full, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        // Two rows: each row is its nodes' shards in node order.
        let mut shards = vec![vec![1.0, 2.0, 5.0, 6.0], vec![3.0, 4.0, 7.0, 8.0]];
        let mut out = Vec::new();
        Router::new(2, RingMode::Exact).gather_rows(
            &mut shards,
            |s| s,
            2,
            2,
            &mut Vec::new(),
            &mut out,
        );
        assert_eq!(out, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
    }

    #[test]
    fn quantized_gather_is_close() {
        let r = Router::new(2, RingMode::Quantized);
        let a: Vec<f32> = (0..16).map(|i| (i as f32 * 0.31).sin()).collect();
        let b: Vec<f32> = (0..16).map(|i| (i as f32 * 0.17).cos()).collect();
        let full = gather(&r, vec![a.clone(), b.clone()]);
        let expect: Vec<f32> = a.into_iter().chain(b).collect();
        for (x, y) in full.iter().zip(&expect) {
            assert!((x - y).abs() < 0.02, "{x} vs {y}");
        }
    }

    #[test]
    fn quantized_shards_use_independent_scales() {
        // A huge shard must not destroy the precision of a small one,
        // whether they share a row (two nodes) or a node (two rows): each
        // (row, node) shard carries its own scale.
        let r = Router::new(2, RingMode::Quantized);
        let (small, big) = ([0.01f32, -0.02], [100.0f32, -50.0]);
        let mut shards = vec![[small, big].concat(), [big, small].concat()];
        let mut out = Vec::new();
        r.gather_rows(&mut shards, |s| s, 2, 2, &mut Vec::new(), &mut out);
        for (at, want) in [(0, 0.01), (2, 100.0), (4, 100.0), (6, 0.01)] {
            let tolerance = f32::abs(want) / 100.0;
            assert!(
                (out[at] - want).abs() < tolerance,
                "element {at}: {} vs {want}",
                out[at]
            );
        }
    }

    #[test]
    fn single_node_gather_is_identity() {
        let r = Router::new(1, RingMode::Exact);
        let v = vec![1.0f32, 2.0, 3.0];
        assert_eq!(gather(&r, vec![v.clone()]), v);
    }

    #[test]
    fn traffic_depends_on_mode() {
        let q = Router::new(4, RingMode::Quantized);
        let e = Router::new(4, RingMode::Exact);
        assert_eq!(q.shard_bytes(256), 256);
        assert_eq!(e.shard_bytes(256), 1024);
        let ring = RingSpec::paper_ring(4, Frequency::from_mhz(285.0));
        let cycles = |r: &Router| ring.all_gather_cycles(r.shard_bytes(256));
        assert!(cycles(&q) < cycles(&e));
    }

    #[test]
    #[should_panic(expected = "one shard per node")]
    fn shard_count_checked() {
        let _ = gather(&Router::new(2, RingMode::Exact), vec![vec![1.0]]);
    }

    #[test]
    #[should_panic(expected = "unequal shard lengths")]
    fn shard_length_checked() {
        let _ = gather(
            &Router::new(2, RingMode::Exact),
            vec![vec![1.0], vec![1.0, 2.0]],
        );
    }
}
