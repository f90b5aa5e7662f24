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

use looplynx_tensor::quant::{quantize_vec, QuantizedVector};

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

    /// All-gathers one sub-vector per node into the full vector (every node
    /// receives an identical copy; we return it once).
    ///
    /// Shard `i` lands at offset `i × shard_len` — the router's node-id
    /// offset rule, which makes every node's buffer identical after the
    /// final round.
    ///
    /// # Panics
    ///
    /// Panics if the shard count differs from the ring size or shard
    /// lengths are unequal.
    pub fn all_gather(&self, shards: &[Vec<f32>]) -> Vec<f32> {
        assert_eq!(shards.len(), self.nodes, "one shard per node");
        let shard_len = shards.first().map_or(0, Vec::len);
        assert!(
            shards.iter().all(|s| s.len() == shard_len),
            "unequal shard lengths"
        );
        match self.mode {
            RingMode::Exact => shards.concat(),
            RingMode::Quantized => {
                let mut out = Vec::with_capacity(shard_len * self.nodes);
                for shard in shards {
                    // quant unit → datapacks → router → dequantize at the
                    // consumer; per-shard scale travels in the header
                    let q: QuantizedVector = quantize_vec(shard);
                    out.extend(q.dequantize());
                }
                out
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

    #[test]
    fn exact_gather_concatenates_in_node_order() {
        let r = Router::new(3, RingMode::Exact);
        let full = r.all_gather(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        assert_eq!(full, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    fn quantized_gather_is_close() {
        let r = Router::new(2, RingMode::Quantized);
        let a: Vec<f32> = (0..16).map(|i| (i as f32 * 0.31).sin()).collect();
        let b: Vec<f32> = (0..16).map(|i| (i as f32 * 0.17).cos()).collect();
        let full = r.all_gather(&[a.clone(), b.clone()]);
        let expect: Vec<f32> = a.into_iter().chain(b).collect();
        for (x, y) in full.iter().zip(&expect) {
            assert!((x - y).abs() < 0.02, "{x} vs {y}");
        }
    }

    #[test]
    fn quantized_shards_use_independent_scales() {
        // A huge shard must not destroy the precision of a small shard.
        let r = Router::new(2, RingMode::Quantized);
        let small = vec![0.01f32, -0.02];
        let big = vec![100.0f32, -50.0];
        let full = r.all_gather(&[small, big]);
        assert!(
            (full[0] - 0.01).abs() < 0.001,
            "small shard crushed: {}",
            full[0]
        );
        assert!((full[2] - 100.0).abs() < 1.0);
    }

    #[test]
    fn single_node_gather_is_identity() {
        let r = Router::new(1, RingMode::Exact);
        let v = vec![1.0f32, 2.0, 3.0];
        assert_eq!(r.all_gather(std::slice::from_ref(&v)), v);
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
        let r = Router::new(2, RingMode::Exact);
        let _ = r.all_gather(&[vec![1.0]]);
    }

    #[test]
    #[should_panic(expected = "unequal shard lengths")]
    fn shard_length_checked() {
        let r = Router::new(2, RingMode::Exact);
        let _ = r.all_gather(&[vec![1.0], vec![1.0, 2.0]]);
    }
}
