//! Bit-exactness grid for batch-row sharding: prefill and batched decode
//! must produce byte-identical logits at every combination of node
//! count × row-shard count × threading, in both ring modes — sharding
//! partitions GEMM output rows and attention batch rows, never a dot
//! product, so any divergence is a stitching or synchronization bug.

use looplynx_core::engine::DistributedGpt2;
use looplynx_core::router::RingMode;
use looplynx_model::checkpoint;
use looplynx_model::config::ModelConfig;
use looplynx_model::gpt2::Gpt2Model;

const PROMPT: [u32; 5] = [3u32, 14, 15, 9, 2];
const BATCH: usize = 4;

/// Prefills `BATCH` slots and runs a few batched decode steps, returning
/// every logit row produced along the way.
fn run_batched(engine: &mut DistributedGpt2) -> Vec<Vec<f32>> {
    let mut outputs = Vec::new();
    let entries: Vec<(usize, u32)> = (0..BATCH)
        .map(|i| {
            let slot = engine.acquire_slot().expect("slot available");
            outputs.push(engine.prefill_slot_chunk(slot, &PROMPT, true).unwrap());
            (slot, (i as u32) % 7)
        })
        .collect();
    for step in 0..3 {
        let step_entries: Vec<(usize, u32)> =
            entries.iter().map(|&(slot, t)| (slot, t + step)).collect();
        outputs.extend(engine.decode_step_batch(&step_entries));
    }
    outputs
}

fn engine(
    model: &Gpt2Model,
    nodes: usize,
    mode: RingMode,
    row_shards: usize,
    threaded: bool,
) -> DistributedGpt2 {
    let mut e = DistributedGpt2::with_slots(model, nodes, mode, BATCH, 32).expect("divides");
    e.set_row_shards(row_shards);
    e.set_threaded(threaded);
    e
}

/// `model` saved as a checkpoint and loaded back: the same weights, every
/// large tensor a view into the file mapping.
fn from_checkpoint(model: &Gpt2Model, seed: u64) -> Gpt2Model {
    let name = format!("looplynx_row_shard_{}_{seed}.bin", std::process::id());
    let path = std::env::temp_dir().join(name);
    checkpoint::save(model.config(), model.weights(), &path).expect("save");
    let loaded = checkpoint::load_model(&path).expect("load");
    std::fs::remove_file(&path).ok();
    loaded
}

fn assert_grid_identical(mode: RingMode, seed: u64) {
    let model = Gpt2Model::synthetic(&ModelConfig::tiny(), seed);
    let mapped = from_checkpoint(&model, seed);
    let mut reference = engine(&model, 1, mode, 1, false);
    let single_node = run_batched(&mut reference);

    for nodes in [1usize, 2, 4] {
        // Per-node-count baseline: in Quantized ring mode the shard
        // gathers requantize, so logits legitimately differ *across*
        // node counts; sharding and threading must still never move a
        // bit *within* one.
        let mut base = engine(&model, nodes, mode, 1, false);
        let expect = run_batched(&mut base);
        if mode == RingMode::Exact {
            assert_eq!(
                single_node, expect,
                "exact ring mode must be node-count invariant at nodes={nodes}"
            );
        }
        // Built over the mapped checkpoint, the node shards are views into
        // the file (all but a split QKV) that pool workers read in place.
        let mut e = engine(&mapped, nodes, mode, 2, true);
        assert_eq!(
            expect,
            run_batched(&mut e),
            "mapped weights moved logits at nodes={nodes} mode={mode:?}"
        );
        for slot in 0..BATCH {
            assert_eq!(
                base.materialized_kv(slot),
                e.materialized_kv(slot),
                "mapped weights moved slot {slot}'s KV at nodes={nodes} mode={mode:?}"
            );
        }
        for row_shards in [1usize, 2, 4] {
            for threaded in [false, true] {
                let mut e = engine(&model, nodes, mode, row_shards, threaded);
                assert_eq!(e.row_shards(), row_shards);
                let got = run_batched(&mut e);
                assert_eq!(
                    expect, got,
                    "logits diverged at nodes={nodes} shards={row_shards} \
                     threaded={threaded} mode={mode:?}"
                );
            }
        }
    }
}

#[test]
fn row_shard_grid_is_bit_exact_in_exact_ring_mode() {
    assert_grid_identical(RingMode::Exact, 21);
}

#[test]
fn row_shard_grid_is_bit_exact_in_quantized_ring_mode() {
    assert_grid_identical(RingMode::Quantized, 33);
}

/// The grid again on a model wide enough that the widest GEMM kernel runs
/// on pool lanes — threads that never touched it before the engine's
/// first step. Eight slots decode together (where the AMX tile path is
/// live it starts at 5 rows), and the LM head, 32 776 × 128, is the one
/// stage whose per-worker share (8 194 rows × 128 / 4 = 262 208 bytes at
/// 4 nodes × 4 shards) still clears the engine's `MIN_DISPATCH_BYTES`
/// (262 144) when split 16 ways; its shards are 2 048 or 2 049 rows, so
/// slabs start off the 16-row tile and end in a `vpdpbusd` tail.
#[test]
fn wide_batch_grid_is_bit_exact_on_pool_lanes() {
    const WIDE_BATCH: usize = 8;
    let cfg = ModelConfig {
        name: "wide-head".into(),
        layers: 1,
        d_model: 128,
        heads: 4,
        d_ff: 256,
        vocab: 32_776,
        max_seq: 8,
    };
    let model = Gpt2Model::synthetic(&cfg, 5);
    let run = |nodes: usize, row_shards: usize, threaded: bool| {
        let mut e = DistributedGpt2::with_slots(&model, nodes, RingMode::Exact, WIDE_BATCH, 8)
            .expect("divides");
        e.set_row_shards(row_shards);
        e.set_threaded(threaded);
        let mut entries = Vec::new();
        for i in 0..WIDE_BATCH {
            let slot = e.acquire_slot().expect("slot available");
            e.prefill_slot_chunk(slot, &PROMPT[..2 + i % 3], true)
                .unwrap();
            entries.push((slot, 11 * i as u32));
        }
        e.decode_step_batch(&entries)
    };
    let expect = run(1, 1, false);
    for nodes in [1usize, 2, 4] {
        for row_shards in [1usize, 2, 4] {
            assert_eq!(
                expect,
                run(nodes, row_shards, true),
                "logits diverged at nodes={nodes} shards={row_shards}"
            );
        }
    }
}

#[test]
fn set_row_shards_is_stateless_across_toggles() {
    let model = Gpt2Model::synthetic(&ModelConfig::tiny(), 50);
    let mut e = engine(&model, 2, RingMode::Exact, 1, false);
    let a = run_batched(&mut e);

    let mut e = engine(&model, 2, RingMode::Exact, 1, false);
    e.set_row_shards(4);
    e.set_threaded(true);
    e.set_row_shards(2); // shrink again mid-flight
    let b = run_batched(&mut e);
    assert_eq!(a, b, "re-sharding changed results");
}
