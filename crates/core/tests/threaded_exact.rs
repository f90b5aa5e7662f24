//! Threading through the exactness harness (`harness/mod.rs`): threaded
//! points against their unthreaded lone runs.

mod harness;

use harness::{random_points, toggled_batch, Point};
use looplynx_core::router::RingMode;

/// Random threaded points with `mode` pinned (and `chunked` feeds when
/// asked), seeded from `base`.
fn threaded(base: u64, wide: bool, cases: u64, mode: Option<RingMode>, chunked: bool) {
    random_points(base, wide, cases, |p, rng| Point {
        threaded: true,
        mode: mode.unwrap_or(p.mode),
        chunk: if chunked {
            Some(rng.pick(&[1, 3]))
        } else {
            p.chunk
        },
        ..p
    });
}

/// Exact points also check the lone run against the single-device model.
#[test]
fn threaded_generation_matches_single_node_reference() {
    threaded(0x5eed_3000, false, 2, Some(RingMode::Exact), false);
}

#[test]
fn threaded_matches_sequential_in_quantized_ring_mode() {
    threaded(0x5eed_3100, false, 2, Some(RingMode::Quantized), false);
}

#[test]
fn threaded_prefill_and_decode_match_sequential() {
    threaded(0x5eed_3200, false, 2, None, true);
}

/// The wide-head model, whose LM head runs GEMM slabs on pool lanes.
#[test]
fn threaded_wide_batch_decode_matches_sequential() {
    threaded(0x5eed_0100, true, 2, None, false);
}

/// `set_threaded` holds no state and shows at once.
#[test]
fn threading_toggle_is_visible_and_stateless() {
    toggled_batch(|e, step| {
        let on = step % 2 == 0;
        e.set_row_shards(2);
        e.set_threaded(on);
        assert_eq!(e.threaded(), on);
    });
}
