//! What the functional engine outputs, pinned by digests committed here.
//!
//! Every other exactness check compares two runs on the same host, so a
//! host whose arithmetic differs (a libm `expf` that rounds one input
//! differently, or a kernel arm this host does not take) would pass all of
//! them. This test hashes the logit bits and sampled tokens of fixed
//! prompts on the exactness harness's models — `Shape::Tiny`, and
//! `Shape::Head64`, whose attention takes the AVX-512 arm where the CPU
//! has it — at 1, 2 and 4 nodes under both ring modes: a one-pass
//! prefill, a chunked prefill, batched decode steps and a prefix-cache
//! hit. A mismatch names the digests this host computed; if they differ
//! from the ones committed, find the operation responsible before
//! replacing them. The medium-shaped model is left out: synthesizing its
//! weights takes too long for a debug tier-1 run.

mod harness;

use harness::{plain, system_prompt, Point, Shape, CAPACITY};
use looplynx_core::router::RingMode;
use looplynx_model::sampler::Sampler;

/// FNV-1a over little-endian 32-bit words: a hash whose value no
/// toolchain or platform changes.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u32) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Hashes one logit row and the token `sampler` draws from it, and
    /// returns the token.
    fn row(&mut self, logits: &[f32], sampler: &mut Sampler) -> u32 {
        logits.iter().for_each(|x| self.word(x.to_bits()));
        let token = sampler.sample(logits);
        self.word(token);
        token
    }
}

/// The digest of one fixed session at `point` (two slots, cache on).
/// Request A prefills a system prompt and a user turn in one pass; B
/// feeds a fresh prompt in chunks of 3; both decode four batched steps;
/// A is released and C, behind the same system prompt, maps the cached
/// prefix, prefills its suffix and decodes three steps batched with B.
fn digest(point: &Point) -> u64 {
    let vocab = point.vocab() as u32;
    let turn = |salt: u32, n: u32| (0..n).map(move |t| (t * 29 + salt) % vocab);
    let (prompt_a, prompt_b, prompt_c): (Vec<u32>, Vec<u32>, Vec<u32>) = (
        system_prompt().into_iter().chain(turn(3, 5)).collect(),
        turn(101, 10).collect(),
        system_prompt().into_iter().chain(turn(57, 4)).collect(),
    );
    let mut e = point.engine(2, 2 * CAPACITY.div_ceil(point.page_tokens));
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let [mut sa, mut sb, mut sc] = [1, 2, 3].map(|id| Sampler::top_k(4, 0.9, id));

    let a = e.acquire_slot().expect("a free slot");
    let logits = e.prefill_slot_chunk(a, &prompt_a, true).expect("logits");
    let mut ta = h.row(&logits, &mut sa);
    let b = e.acquire_slot().expect("a free slot");
    let mut tb = 0;
    for (i, part) in prompt_b.chunks(3).enumerate() {
        let last = (i + 1) * 3 >= prompt_b.len();
        if let Some(logits) = e.prefill_slot_chunk(b, part, last) {
            tb = h.row(&logits, &mut sb);
        }
    }
    for _ in 0..4 {
        let rows = e.decode_step_batch(&[(a, ta), (b, tb)]);
        ta = h.row(&rows[0], &mut sa);
        tb = h.row(&rows[1], &mut sb);
    }

    e.release_slot(a);
    let c = e.acquire_slot().expect("a free slot");
    let hit = e.prefix_attach(c, &prompt_c);
    assert!(hit > 0, "C must hit the cached system prompt");
    h.word(hit as u32);
    let logits = e.prefill_slot_chunk(c, &prompt_c[hit..], true);
    let mut tc = h.row(&logits.expect("logits"), &mut sc);
    for _ in 0..3 {
        let rows = e.decode_step_batch(&[(b, tb), (c, tc)]);
        tb = h.row(&rows[0], &mut sb);
        tc = h.row(&rows[1], &mut sc);
    }
    e.release_slot(b);
    e.release_slot(c);
    e.audit();
    h.0
}

/// The committed digests: per shape, the exact ring's (equal at every
/// ring size) and the quantized ring's at 1, 2 and 4 nodes.
const DIGESTS: [(Shape, u64, [u64; 3]); 2] = [
    (
        Shape::Tiny,
        0x8c4b_6589_0ae6_ce7d,
        [
            0x4cf7_c56c_d748_3d62,
            0x2dcc_0790_2efa_1767,
            0xb110_03cc_6ad5_14f0,
        ],
    ),
    (
        Shape::Head64,
        0xf19c_b235_9b61_9fed,
        [
            0x8131_d81b_d4df_495f,
            0xbf52_b508_5636_9430,
            0xa823_63c0_ec6f_2964,
        ],
    ),
];

#[test]
fn outputs_match_the_committed_digests() {
    for (shape, exact, quantized) in DIGESTS {
        let point = |nodes, mode| Point {
            shape,
            mode,
            cache: true,
            ..plain(nodes, 4)
        };
        let at = |mode| [1, 2, 4].map(|nodes| digest(&point(nodes, mode)));
        let got = (at(RingMode::Exact), at(RingMode::Quantized));
        assert_eq!(
            got,
            ([exact; 3], quantized),
            "{shape:?} digests (exact, quantized) at 1/2/4 nodes"
        );
    }
}
