//! Bit-exactness suite for threaded node execution: running the per-node
//! layer shards on scoped threads must produce byte-identical logits to
//! the sequential loop, at every ring size and in both ring modes. The
//! per-node computation is untouched by threading and shard gathers keep
//! node order, so any divergence here is a real synchronization bug.

use looplynx_core::engine::DistributedGpt2;
use looplynx_core::router::RingMode;
use looplynx_model::config::ModelConfig;
use looplynx_model::generate::Autoregressive;
use looplynx_model::gpt2::Gpt2Model;
use looplynx_model::sampler::Sampler;

fn engines(nodes: usize, mode: RingMode, seed: u64) -> (DistributedGpt2, DistributedGpt2) {
    let reference = Gpt2Model::synthetic(&ModelConfig::tiny(), seed);
    let mut threaded = DistributedGpt2::new(&reference, nodes, mode).expect("partitionable");
    let mut sequential = DistributedGpt2::new(&reference, nodes, mode).expect("partitionable");
    threaded.set_threaded(true);
    sequential.set_threaded(false);
    (threaded, sequential)
}

#[test]
fn threaded_prefill_and_decode_match_sequential() {
    let prompt = [3u32, 14, 15, 9, 2, 6];
    for nodes in [1usize, 2, 4] {
        let (mut threaded, mut sequential) = engines(nodes, RingMode::Exact, 21);
        let a = threaded.prefill(&prompt);
        let b = sequential.prefill(&prompt);
        assert_eq!(a, b, "prefill logits diverged at {nodes} nodes");
        for step in 0..5 {
            let a = threaded.decode_step(7 + step);
            let b = sequential.decode_step(7 + step);
            assert_eq!(a, b, "decode logits diverged at {nodes} nodes step {step}");
        }
        assert_eq!(threaded.seq_len(), sequential.seq_len());
    }
}

/// Threaded ≡ sequential where the pool's lanes run the widest GEMM
/// kernel themselves: eight sequences decode together (the AMX tile path,
/// where live, starts at 5 rows) on a model whose 32 776 × 128 LM head
/// still gives each of 16 workers the 256 KiB the engine's dispatch gate
/// asks for — so threads that never configured tiles before compute
/// slabs, at every node × row-shard split.
#[test]
fn threaded_wide_batch_decode_matches_sequential() {
    let cfg = ModelConfig {
        name: "wide-head".into(),
        layers: 1,
        d_model: 128,
        heads: 4,
        d_ff: 256,
        vocab: 32_776,
        max_seq: 8,
    };
    let reference = Gpt2Model::synthetic(&cfg, 9);
    let decode = |nodes: usize, row_shards: usize, threaded: bool| {
        let mut e = DistributedGpt2::with_slots(&reference, nodes, RingMode::Exact, 8, 8)
            .expect("partitionable");
        e.set_row_shards(row_shards);
        e.set_threaded(threaded);
        let entries: Vec<(usize, u32)> = (0..8u32)
            .map(|i| {
                let slot = e.acquire_slot().expect("slot available");
                e.prefill_slot_chunk(slot, &[3 + i, 14], true).unwrap();
                (slot, 7 * i)
            })
            .collect();
        e.decode_step_batch(&entries)
    };
    for nodes in [1usize, 2, 4] {
        for row_shards in [1usize, 2, 4] {
            assert_eq!(
                decode(nodes, row_shards, true),
                decode(nodes, row_shards, false),
                "logits diverged at {nodes} nodes × {row_shards} row shards"
            );
        }
    }
}

#[test]
fn threaded_matches_sequential_in_quantized_ring_mode() {
    // The int8 ring payload path must also be order-stable under threads.
    for nodes in [2usize, 4] {
        let (mut threaded, mut sequential) = engines(nodes, RingMode::Quantized, 33);
        let prompt = [5u32, 6, 7, 8];
        assert_eq!(
            threaded.prefill(&prompt),
            sequential.prefill(&prompt),
            "{nodes} nodes"
        );
        assert_eq!(threaded.decode_step(9), sequential.decode_step(9));
    }
}

#[test]
fn threaded_generation_matches_single_node_reference() {
    // End to end: threaded multi-node generation ≡ the single-model
    // reference in exact mode (transitively, threaded ≡ sequential ≡
    // reference).
    let cfg = ModelConfig::tiny();
    let reference = Gpt2Model::synthetic(&cfg, 77);
    let prompt = [1u32, 2, 3];
    let mut single = reference.clone();
    let expect = single.generate(&prompt, 6, &mut Sampler::greedy());
    for nodes in [2usize, 4] {
        let mut dist = DistributedGpt2::new(&reference, nodes, RingMode::Exact).expect("divides");
        dist.set_threaded(true);
        let got = dist.generate(&prompt, 6, &mut Sampler::greedy());
        assert_eq!(expect, got, "{nodes}-node threaded generation diverged");
    }
}

#[test]
fn threading_toggle_is_visible_and_stateless() {
    let reference = Gpt2Model::synthetic(&ModelConfig::tiny(), 50);
    let mut dist = DistributedGpt2::new(&reference, 2, RingMode::Exact).expect("divides");
    dist.set_threaded(true);
    assert!(dist.threaded());
    let a = dist.prefill(&[1, 2]);
    dist.reset();
    dist.set_threaded(false);
    assert!(!dist.threaded());
    let b = dist.prefill(&[1, 2]);
    assert_eq!(a, b, "toggling threading changed results");
}
