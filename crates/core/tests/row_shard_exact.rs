//! Row shards through the exactness harness (`harness/mod.rs`): the fixed
//! batch over grids of nodes × row shards × threading × heap or mapped
//! weights must equal each sequence run alone with one row shard.

mod harness;

use harness::{check_batch, plain, toggled_batch, Point};
use looplynx_core::router::RingMode;

/// Every tiny-model cell with more than one row shard, in `mode`.
fn tiny_grid(mode: RingMode) {
    for nodes in [1, 2, 4] {
        for row_shards in [2, 4] {
            for (threaded, mapped) in [(false, false), (true, false), (false, true), (true, true)] {
                check_batch(&Point {
                    mode,
                    row_shards,
                    threaded,
                    mapped,
                    ..plain(nodes, 4)
                });
            }
        }
    }
}

#[test]
fn row_shard_grid_is_bit_exact_in_exact_ring_mode() {
    tiny_grid(RingMode::Exact);
}

#[test]
fn row_shard_grid_is_bit_exact_in_quantized_ring_mode() {
    tiny_grid(RingMode::Quantized);
}

/// The wide-head model on pool lanes: at 4 nodes × 4 row shards its LM
/// head is the one stage whose share still clears the engine's dispatch
/// gate, in shards that start off the 16-row tile.
#[test]
fn wide_batch_grid_is_bit_exact_on_pool_lanes() {
    for (nodes, row_shards, mode) in [
        (4, 4, RingMode::Exact),
        (2, 4, RingMode::Quantized),
        (1, 2, RingMode::Quantized),
    ] {
        check_batch(&Point {
            wide: true,
            mode,
            row_shards,
            threaded: true,
            ..plain(nodes, 4)
        });
    }
}

/// `set_row_shards` holds no state and shows at once.
#[test]
fn set_row_shards_is_stateless_across_toggles() {
    toggled_batch(|e, step| {
        let shards = [4, 2, 1, 4][step];
        e.set_threaded(true);
        e.set_row_shards(shards);
        assert_eq!(e.row_shards(), shards);
    });
}
