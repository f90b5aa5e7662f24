//! Ring-network model.
//!
//! LoopLynx nodes are "interconnected across multiple FPGAs using AXI-Stream
//! for ring connections"; the router "operates in simplex mode" and, with
//! `n` nodes, synchronization takes `n` rounds of buffer writing followed by
//! reading — in each round every node writes its datapacks to its successor
//! and reads from its predecessor, and an offset derived from the node id
//! places received datapacks so that "all buffers maintain consistent data"
//! after the final round (paper Fig. 6(c)).
//!
//! This module provides:
//!
//! * [`RingSpec`] — closed-form cycle counts for the all-gather used by the
//!   engine's timing model (peak 8.49 GB/s per link, as measured in the
//!   paper's simulation), and
//! * [`RingSim`] — a discrete-event simulation of the routers themselves,
//!   used by the test-suite to validate the closed form and the buffer
//!   consistency claim.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use crate::engine::{Context, Engine, Process, ProcessId};
use crate::time::{Cycles, Frequency};

/// Static description of the accelerator ring.
#[derive(Debug, Clone, PartialEq)]
pub struct RingSpec {
    nodes: usize,
    link_bytes_per_cycle: f64,
    hop_latency: Cycles,
}

impl RingSpec {
    /// Creates a ring of `nodes` accelerators.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero or the link bandwidth is not positive.
    pub fn new(nodes: usize, link_bytes_per_cycle: f64, hop_latency: Cycles) -> Self {
        assert!(nodes > 0, "ring needs at least one node");
        assert!(
            link_bytes_per_cycle.is_finite() && link_bytes_per_cycle > 0.0,
            "link bandwidth must be positive"
        );
        RingSpec {
            nodes,
            link_bytes_per_cycle,
            hop_latency,
        }
    }

    /// The paper's ring: peak 8.49 GB/s per link on the given kernel clock,
    /// with a small per-hop latency for the AXI-Stream register slices.
    pub fn paper_ring(nodes: usize, clock: Frequency) -> Self {
        RingSpec::new(nodes, clock.bytes_per_cycle(8.49e9), Cycles::new(16))
    }

    /// Number of accelerator nodes.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Cycles for one node's shard of `shard_bytes` to travel one hop.
    pub fn hop_cycles(&self, shard_bytes: usize) -> Cycles {
        if shard_bytes == 0 {
            return Cycles::ZERO;
        }
        Cycles::from_f64_ceil(shard_bytes as f64 / self.link_bytes_per_cycle) + self.hop_latency
    }

    /// Cycles for the ring all-gather: every node ends up with every node's
    /// shard (`shard_bytes` each). All links operate concurrently, so the
    /// total is `nodes - 1` sequential hop times. A single-node ring costs
    /// nothing.
    pub fn all_gather_cycles(&self, shard_bytes: usize) -> Cycles {
        if self.nodes <= 1 {
            return Cycles::ZERO;
        }
        self.hop_cycles(shard_bytes) * (self.nodes as u64 - 1)
    }
}

impl fmt::Display for RingSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ring x{} @ {:.2} B/cyc/link (+{} per hop)",
            self.nodes, self.link_bytes_per_cycle, self.hop_latency
        )
    }
}

/// Message carried between simulated routers: a shard forwarded around the
/// ring. `origin` identifies the node that produced the shard, which
/// determines the buffer offset at every receiver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMsg {
    /// Node that produced the shard.
    pub origin: usize,
    /// Payload (one datapack-granular shard).
    pub data: Vec<u8>,
    /// Hops remaining before this shard stops being forwarded.
    pub hops_left: usize,
}

/// A simulated router node: writes received shards into its buffer at
/// `origin * shard_len` and forwards them to its successor until the shard
/// has visited every node.
#[derive(Debug)]
struct RouterNode {
    successor: ProcessId,
    shard_len: usize,
    hop_cycles: Cycles,
    buffer: Rc<RefCell<Vec<u8>>>,
    received: usize,
}

impl Process<ShardMsg> for RouterNode {
    fn on_message(&mut self, _now: Cycles, msg: ShardMsg, ctx: &mut Context<ShardMsg>) {
        assert_eq!(msg.data.len(), self.shard_len, "shard length mismatch");
        // Offset based on the *origin* node id — the paper's routing
        // mechanism: "each router maintains an offset based on the node ID".
        let off = msg.origin * self.shard_len;
        self.buffer.borrow_mut()[off..off + self.shard_len].copy_from_slice(&msg.data);
        self.received += 1;
        if msg.hops_left > 0 {
            ctx.send_after(
                self.hop_cycles,
                self.successor,
                ShardMsg {
                    origin: msg.origin,
                    data: msg.data,
                    hops_left: msg.hops_left - 1,
                },
            );
        }
    }
}

/// Result of a [`RingSim`] run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RingSimOutcome {
    /// Final simulation time.
    pub end_time: Cycles,
    /// Reassembled buffer of each node, in node order.
    pub buffers: Vec<Vec<u8>>,
}

impl RingSimOutcome {
    /// Whether all node buffers hold identical contents — the paper's
    /// consistency guarantee after `n` rounds.
    pub fn buffers_consistent(&self) -> bool {
        self.buffers.windows(2).all(|w| w[0] == w[1])
    }
}

/// Discrete-event simulation of the ring synchronization protocol.
#[derive(Debug, Clone)]
pub struct RingSim {
    spec: RingSpec,
}

impl RingSim {
    /// Creates a simulation for the given ring.
    pub fn new(spec: RingSpec) -> Self {
        RingSim { spec }
    }

    /// Runs a full all-gather where node `i` contributes `shards[i]`.
    ///
    /// # Panics
    ///
    /// Panics if `shards.len() != spec.nodes()` or shard lengths differ.
    pub fn all_gather(&self, shards: &[Vec<u8>]) -> RingSimOutcome {
        let n = self.spec.nodes();
        assert_eq!(shards.len(), n, "one shard per node required");
        let shard_len = shards.first().map_or(0, Vec::len);
        assert!(
            shards.iter().all(|s| s.len() == shard_len),
            "all shards must have equal length"
        );

        let mut engine: Engine<ShardMsg> = Engine::new();
        let hop = self.spec.hop_cycles(shard_len);
        let buffers: Vec<Rc<RefCell<Vec<u8>>>> = (0..n)
            .map(|_| Rc::new(RefCell::new(vec![0u8; shard_len * n])))
            .collect();
        for (id, buf) in buffers.iter().enumerate() {
            engine.add_process(RouterNode {
                successor: (id + 1) % n,
                shard_len,
                hop_cycles: hop,
                buffer: Rc::clone(buf),
                received: 0,
            });
        }
        // Round 1 (local): each node writes its own shard into its own
        // buffer and starts it around the ring with n-1 hops to go.
        for (id, shard) in shards.iter().enumerate() {
            engine.post(
                Cycles::ZERO,
                id,
                ShardMsg {
                    origin: id,
                    data: shard.clone(),
                    hops_left: n - 1,
                },
            );
        }
        let end_time = engine.run();
        drop(engine);
        let buffers = buffers
            .into_iter()
            .map(|b| Rc::try_unwrap(b).expect("engine dropped").into_inner())
            .collect();
        RingSimOutcome { end_time, buffers }
    }
}

/// Pure-functional ring all-gather: node `i`'s buffer receives every shard
/// at offset `origin * shard_len`, mirroring the router's offset rule.
pub fn functional_all_gather(shards: &[Vec<u8>]) -> Vec<Vec<u8>> {
    let n = shards.len();
    let shard_len = shards.first().map_or(0, Vec::len);
    let mut buffers = vec![vec![0u8; shard_len * n]; n];
    for (node, buf) in buffers.iter_mut().enumerate() {
        // Simulate the per-round arrivals: in round r the node receives the
        // shard originated by (node - r) mod n from its predecessor.
        for r in 0..n {
            let origin = (node + n - r) % n;
            let off = origin * shard_len;
            buf[off..off + shard_len].copy_from_slice(&shards[origin]);
        }
    }
    buffers
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clock() -> Frequency {
        Frequency::from_mhz(285.0)
    }

    #[test]
    fn single_node_costs_nothing() {
        let ring = RingSpec::paper_ring(1, clock());
        assert_eq!(ring.all_gather_cycles(1 << 20), Cycles::ZERO);
    }

    #[test]
    fn gather_time_grows_with_nodes() {
        let shard = 64 * 1024;
        let t2 = RingSpec::paper_ring(2, clock()).all_gather_cycles(shard);
        let t4 = RingSpec::paper_ring(4, clock()).all_gather_cycles(shard);
        let t8 = RingSpec::paper_ring(8, clock()).all_gather_cycles(shard);
        assert!(t2 < t4 && t4 < t8);
        // (n-1) proportionality
        assert_eq!(t4.as_u64(), t2.as_u64() * 3);
        assert_eq!(t8.as_u64(), t2.as_u64() * 7);
    }

    #[test]
    fn des_matches_closed_form() {
        for nodes in [2usize, 3, 4, 8] {
            let spec = RingSpec::paper_ring(nodes, clock());
            let shard_len = 4096usize;
            let shards: Vec<Vec<u8>> = (0..nodes).map(|i| vec![i as u8 + 1; shard_len]).collect();
            let outcome = RingSim::new(spec.clone()).all_gather(&shards);
            assert_eq!(
                outcome.end_time,
                spec.all_gather_cycles(shard_len),
                "nodes={nodes}"
            );
        }
    }

    #[test]
    fn all_buffers_consistent_after_gather() {
        let nodes = 4;
        let spec = RingSpec::paper_ring(nodes, clock());
        let shards: Vec<Vec<u8>> = (0..nodes).map(|i| vec![i as u8 * 10; 128]).collect();
        let outcome = RingSim::new(spec).all_gather(&shards);
        assert!(outcome.buffers_consistent());
        // And the consistent buffer is the in-order concatenation.
        let expected: Vec<u8> = shards.concat();
        assert_eq!(outcome.buffers[0], expected);
    }

    #[test]
    fn functional_gather_orders_by_origin() {
        let shards = vec![vec![1u8, 1], vec![2, 2], vec![3, 3]];
        let bufs = functional_all_gather(&shards);
        for buf in &bufs {
            assert_eq!(buf, &[1, 1, 2, 2, 3, 3]);
        }
    }

    #[test]
    fn hop_cycles_includes_latency() {
        let ring = RingSpec::new(2, 32.0, Cycles::new(10));
        assert_eq!(ring.hop_cycles(320).as_u64(), 10 + 10);
        assert_eq!(ring.hop_cycles(0), Cycles::ZERO);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_rejected() {
        let _ = RingSpec::new(0, 1.0, Cycles::ZERO);
    }

    #[test]
    fn display_mentions_nodes() {
        let ring = RingSpec::paper_ring(4, clock());
        assert!(ring.to_string().contains("x4"));
    }
}
