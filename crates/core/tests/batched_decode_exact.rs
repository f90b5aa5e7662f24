//! Batching alone through the exactness harness (`harness/mod.rs`).

mod harness;

use harness::{random_points, Point, CAPACITY, SLOTS};

/// Random points with a roomy pool, no cache and whole-prompt opens:
/// staggered admissions decoding together equal each sequence alone.
#[test]
fn batched_decode_is_byte_identical_to_lone_sequences() {
    random_points(0x5eed_4000, false, 3, |p, _| Point {
        pages: SLOTS * CAPACITY.div_ceil(p.page_tokens),
        cache: false,
        chunk: None,
        ..p
    });
}
