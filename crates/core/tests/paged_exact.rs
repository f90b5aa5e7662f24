//! Paging through the exactness harness (`harness/mod.rs`): op
//! interleavings under the tightest pool, and the routes into a slot on
//! one node with pages of 4 and on four nodes with pages of 2, where every
//! chunk crosses page edges.

mod harness;

use harness::{random_points, three_routes, tightest, Point, Shape};

/// Random points whose pool holds one full sequence and two pages, so
/// opens, feeds, decodes and resumes meet page pressure.
#[test]
fn interleavings_match_lone_generation() {
    random_points(0x5eed_1000, Shape::Tiny, 4, |p, _| Point {
        pages: tightest(p.page_tokens),
        ..p
    });
}

#[test]
fn trait_routes_into_a_slot_agree() {
    three_routes(1, 4);
}

#[test]
fn chunked_prefill_matches_single_pass_kv_and_tokens() {
    three_routes(4, 2);
}
