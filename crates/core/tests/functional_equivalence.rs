//! Ring-size invariance through the exactness harness (`harness/mod.rs`):
//! under `RingMode::Exact` the lone engine at 1, 2 and 4 nodes equals the
//! single-device `Gpt2Model`.

mod harness;

use harness::{check_batch, plain, random_points, three_routes, Point};
use looplynx_core::router::RingMode;

/// One random exact point per ring size: the first finished request's
/// tokens equal the single-device model's.
#[test]
fn distributed_exact_generation_matches_reference_for_all_ring_sizes() {
    for nodes in [1, 2, 4] {
        let pin = |p, _: &mut _| Point {
            nodes,
            mode: RingMode::Exact,
            ..p
        };
        random_points(0x5eed_5000 + 0x10 * nodes as u64, false, 1, pin);
    }
}

/// The fixed batch's logit rows equal the single-device model's.
#[test]
fn distributed_exact_logits_are_bit_identical() {
    for nodes in [1, 2, 4] {
        check_batch(&plain(nodes, 4));
    }
}

#[test]
fn prefill_decode_boundary_is_seamless_distributed() {
    three_routes(2, 8);
}
