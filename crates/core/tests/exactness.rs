//! The exactness harness (`harness/mod.rs`) over every axis at once:
//! random points and scripts, the config family no single-axis test runs,
//! and the named slot-reuse and chat scripts. The sibling entry files pin
//! one axis each.

mod harness;

use harness::{
    check_script, draw_script, plain, random_points, run_script, spec, system_prompt, tightest, Op,
    Point, Rng,
};
use looplynx_core::router::RingMode;

/// Random config points, each with its own script.
const CASES: u64 = if cfg!(miri) { 1 } else { 10 };

#[test]
fn random_scripts_match_the_lone_oracle() {
    random_points(0x5eed_0000, false, CASES, |p, _| p);
}

/// A config family no earlier test ran: prefix cache × chunked feed ×
/// preemption × row shards × the quantized ring, under a tight pool.
#[test]
#[cfg_attr(miri, ignore)]
fn cache_chunks_preemption_shards_and_quantized_ring_together() {
    for case in 0..8 {
        let seed = 0xca_c4e0 + case;
        let mut rng = Rng(seed);
        let drawn = Point::draw(&mut rng, false);
        let point = Point {
            nodes: rng.pick(&[2, 4]),
            mode: RingMode::Quantized,
            row_shards: rng.pick(&[2, 4]),
            threaded: true,
            pages: tightest(drawn.page_tokens),
            cache: true,
            chunk: Some(rng.pick(&[1, 3])),
            ..drawn
        };
        let (specs, mut ops) = draw_script(&mut rng, &point);
        ops.extend([Op::Open, Op::Feed, Op::Feed, Op::Decode]);
        ops.extend([Op::PreemptReclaimable, Op::Resume, Op::Decode]);
        check_script(seed, &point, &specs, &ops);
    }
}

/// A slot that served a long sequence is reused for a shorter one: any
/// position, page grant or scale left over would corrupt the second.
#[test]
#[cfg_attr(miri, ignore)]
fn slot_reuse_after_a_longer_sequence() {
    let specs = [
        spec(None, (0..20).map(|i| (i * 5 + 1) % 320), 7),
        spec(None, [9, 2, 7], 5),
    ];
    let ops = [[Op::Open].as_slice(), &[Op::Decode; 6], &[Op::Open]].concat();
    check_script(0, &plain(2, 4), &specs, &ops);
}

/// Sequential multi-turn chats over a shared system prompt, each turn
/// behind the previous turn's prompt and answer: stays exact, and the
/// cache works — follow-up turns hit, reusing tokens, and releases
/// register chains.
#[test]
#[cfg_attr(miri, ignore)]
fn sequential_chat_hits_the_cache() {
    let system = system_prompt();
    let mut specs = Vec::new();
    for chat in 0..3u32 {
        for turn in 0..3 {
            let user = (0..2 + turn).map(|t| (chat * 31 + turn * 7 + t) % 320);
            let tokens: Vec<u32> = match turn {
                0 => system.iter().copied().chain(user).collect(),
                _ => user.collect(),
            };
            let follows = (turn > 0).then(|| specs.len() - 1);
            specs.push(spec(follows, tokens, 2 + (chat + turn) as usize % 3));
        }
    }
    for nodes in [1, 2] {
        let point = Point {
            cache: true,
            pages: 32,
            ..plain(nodes, 4)
        };
        let b = run_script(&point, &specs, &[]);
        let stats = b.engine().prefix_stats().expect("cache on");
        assert!(stats.hits > 0, "follow-up turns must hit the cache");
        assert!(stats.reused_tokens > 0, "hits must reuse a positive span");
        assert!(stats.inserted > 0, "releases must register chains");
    }
}
