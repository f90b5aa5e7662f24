//! The prefix cache through the exactness harness (`harness/mod.rs`).

mod harness;

use harness::{random_points, Point};

/// Random points with the cache on (chat turns, shared system prompts,
/// preemptions): every request equals its lone run, which has no cache.
#[test]
fn cached_chat_matches_uncached_bitwise() {
    random_points(0x5eed_2000, false, 4, |p, _| Point { cache: true, ..p });
}
