//! The prefix-cache bit-exactness wall.
//!
//! Content-addressed prefix sharing changes *where* prefill reads KV
//! from — cached pages mapped read-only instead of recomputed — and
//! never *what* any sequence computes: a mapped page holds exactly the
//! int8 KV bytes the suffix-only prefill would have produced, and
//! copy-on-write forks a shared boundary page before the first write
//! through it. So for any multi-turn chat workload and any interleaving
//! of admit/decode/preempt/resume, a cache-enabled engine must emit
//! token streams byte-identical to the same schedule with the cache
//! disabled — across node counts and page sizes.
//!
//! This suite drives that differential: random conversations sharing a
//! system prompt (so hits cross conversations, not just turns), scripted
//! lifecycle interleavings over an oversubscribed pool (so LRU eviction
//! of pinned chains fires under pressure), and a deterministic
//! sequential run that additionally pins the cache *working* (hits and
//! reused tokens strictly positive).

use proptest::prelude::*;

use looplynx_core::backend::{
    BackendError, FunctionalBackend, InferenceBackend, PreemptedSeq, SamplerSpec,
};
use looplynx_core::engine::DistributedGpt2;
use looplynx_core::router::RingMode;
use looplynx_model::config::ModelConfig;
use looplynx_model::gpt2::Gpt2Model;
use looplynx_model::prefix::PrefixIndexStats;

const SAMPLER: SamplerSpec = SamplerSpec::TopK {
    k: 4,
    temperature: 0.9,
};
const TURNS: usize = 3;
const CAPACITY: usize = 48;

/// One conversation's position in the scripted lifecycle.
enum ConvState {
    /// The next turn's prompt (= full history) is ready to admit.
    Waiting,
    Resident {
        slot: usize,
    },
    Preempted {
        seq: PreemptedSeq,
    },
    Done,
}

/// A multi-turn conversation: each turn's prompt is the entire history
/// (system prompt, prior user/assistant spans, this turn's user span),
/// so consecutive turns re-prefill everything a cached run can share.
struct Conv {
    id: u64,
    history: Vec<u32>,
    users: Vec<Vec<u32>>,
    turn: usize,
    target: usize,
    turn_tokens: Vec<u32>,
    out: Vec<u32>,
    state: ConvState,
}

impl Conv {
    /// The context a resume must re-prefill: history plus every token
    /// produced this turn except the last (the next decode input).
    fn resume_context(&self) -> Vec<u32> {
        let mut c = self.history.clone();
        c.extend_from_slice(&self.turn_tokens[..self.turn_tokens.len() - 1]);
        c
    }

    /// Banks a finished turn and stages the next one (or finishes).
    fn finish_turn(&mut self) {
        let spoken = std::mem::take(&mut self.turn_tokens);
        self.history.extend_from_slice(&spoken);
        self.turn += 1;
        if self.turn < TURNS {
            self.history.extend_from_slice(&self.users[self.turn]);
            self.state = ConvState::Waiting;
        } else {
            self.state = ConvState::Done;
        }
    }
}

/// Deterministic conversation material (tiny xorshift; no rand
/// dependency). All conversations open with the same system prompt so
/// prefix hits cross conversation boundaries.
fn conversations(seed: u64, n: usize, vocab: u32) -> Vec<Conv> {
    let mut s = seed | 1;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    let system: Vec<u32> = (0..6).map(|_| (next() % vocab as u64) as u32).collect();
    (0..n)
        .map(|i| {
            let users: Vec<Vec<u32>> = (0..TURNS)
                .map(|_| {
                    let len = 2 + (next() % 3) as usize; // 2..=4
                    (0..len).map(|_| (next() % vocab as u64) as u32).collect()
                })
                .collect();
            let mut history = system.clone();
            history.extend_from_slice(&users[0]);
            Conv {
                id: i as u64,
                history,
                users,
                turn: 0,
                target: 2 + i % 3,
                turn_tokens: Vec::new(),
                out: Vec::new(),
                state: ConvState::Waiting,
            }
        })
        .collect()
}

/// Advances every resident one token; turns reaching their target are
/// released (which, on a cached engine, registers the chain).
fn decode_residents(b: &mut FunctionalBackend, convs: &mut [Conv]) -> Result<(), BackendError> {
    let idx: Vec<usize> = convs
        .iter()
        .enumerate()
        .filter(|(_, c)| matches!(c.state, ConvState::Resident { .. }))
        .map(|(i, _)| i)
        .collect();
    if idx.is_empty() {
        return Ok(());
    }
    let slots: Vec<usize> = idx
        .iter()
        .map(|&i| match convs[i].state {
            ConvState::Resident { slot } => slot,
            _ => unreachable!(),
        })
        .collect();
    let out = b.decode_batch(&slots)?;
    let tokens = out.tokens.expect("functional backend produces tokens");
    for (j, &i) in idx.iter().enumerate() {
        convs[i].turn_tokens.push(tokens[j]);
        convs[i].out.push(tokens[j]);
        if convs[i].turn_tokens.len() == convs[i].target {
            b.release(slots[j]).expect("resident owns its slot");
            convs[i].finish_turn();
        }
    }
    Ok(())
}

/// Admits `convs[i]`'s staged turn. Returns false on page pressure.
fn admit(b: &mut FunctionalBackend, c: &mut Conv) -> Result<bool, BackendError> {
    let prompt = c.history.clone();
    let id = c.id * 16 + c.turn as u64;
    match b.prefill(prompt.len(), Some(&prompt), id) {
        Ok(p) => {
            let first = p.first_token.unwrap();
            c.turn_tokens.push(first);
            c.out.push(first);
            if c.turn_tokens.len() == c.target {
                b.release(p.slot).expect("fresh resident owns its slot");
                c.finish_turn();
            } else {
                c.state = ConvState::Resident { slot: p.slot };
            }
            Ok(true)
        }
        Err(e) if e.is_resource_pressure() => Ok(false),
        Err(e) => Err(e),
    }
}

/// Runs one full chat workload to completion under a scripted
/// interleaving, returning each conversation's produced tokens and the
/// final cache statistics (`None` when the cache is disabled).
fn run_chat(
    model: &Gpt2Model,
    nodes: usize,
    page_tokens: usize,
    pool: usize,
    cache: bool,
    seed: u64,
    ops: &[u8],
) -> (Vec<Vec<u32>>, Option<PrefixIndexStats>) {
    let cfg = ModelConfig::tiny();
    let mut engine = DistributedGpt2::with_paged_slots(
        model,
        nodes,
        RingMode::Exact,
        3,
        CAPACITY,
        page_tokens,
        pool,
    )
    .unwrap();
    if cache {
        engine.enable_prefix_cache();
    }
    let mut b = FunctionalBackend::new(engine, SAMPLER);
    let mut convs = conversations(seed, 3, cfg.vocab as u32);

    // Scripted phase: ops drive the lifecycle; invalid or
    // pressure-blocked ops are skipped (the drain below finishes all).
    for &op in ops {
        match op {
            0 => {
                if let Some(c) = convs
                    .iter_mut()
                    .find(|c| matches!(c.state, ConvState::Waiting))
                {
                    admit(&mut b, c).expect("admission fails only on pressure");
                }
            }
            1 => {
                if let Err(e) = decode_residents(&mut b, &mut convs) {
                    assert!(e.is_resource_pressure(), "decode failed: {e}");
                }
            }
            2 => {
                // Preempt the last resident; its released pages stay
                // indexed, so the resume below re-maps them.
                if let Some(c) = convs
                    .iter_mut()
                    .rev()
                    .find(|c| matches!(c.state, ConvState::Resident { .. }))
                {
                    let slot = match c.state {
                        ConvState::Resident { slot } => slot,
                        _ => unreachable!(),
                    };
                    let seq = b.preempt(slot).expect("resident is preemptible");
                    c.state = ConvState::Preempted { seq };
                }
            }
            _ => {
                if let Some(i) = convs
                    .iter()
                    .position(|c| matches!(c.state, ConvState::Preempted { .. }))
                {
                    let context = convs[i].resume_context();
                    let seq = match &convs[i].state {
                        ConvState::Preempted { seq } => seq,
                        _ => unreachable!(),
                    };
                    match b.resume(seq, Some(&context)) {
                        Ok(p) => convs[i].state = ConvState::Resident { slot: p.slot },
                        Err(e) => {
                            assert!(e.is_resource_pressure(), "resume failed: {e}")
                        }
                    }
                }
            }
        }
    }

    // Drain phase: finish everything. Page pressure preempts the last
    // resident; a lone sequence always fits once the cache evicts.
    loop {
        if convs.iter().all(|c| matches!(c.state, ConvState::Done)) {
            break;
        }
        if convs
            .iter()
            .any(|c| matches!(c.state, ConvState::Resident { .. }))
        {
            if let Err(e) = decode_residents(&mut b, &mut convs) {
                assert!(e.is_resource_pressure(), "drain decode failed: {e}");
                let c = convs
                    .iter_mut()
                    .rev()
                    .find(|c| matches!(c.state, ConvState::Resident { .. }))
                    .expect("pressure implies a resident");
                let slot = match c.state {
                    ConvState::Resident { slot } => slot,
                    _ => unreachable!(),
                };
                let seq = b.preempt(slot).expect("resident is preemptible");
                c.state = ConvState::Preempted { seq };
            }
            continue;
        }
        if let Some(i) = convs
            .iter()
            .position(|c| matches!(c.state, ConvState::Preempted { .. }))
        {
            let context = convs[i].resume_context();
            let seq = match &convs[i].state {
                ConvState::Preempted { seq } => seq,
                _ => unreachable!(),
            };
            let p = b.resume(seq, Some(&context)).expect("lone resume fits");
            convs[i].state = ConvState::Resident { slot: p.slot };
        } else if let Some(c) = convs
            .iter_mut()
            .find(|c| matches!(c.state, ConvState::Waiting))
        {
            let ok = admit(&mut b, c).expect("admission fails only on pressure");
            assert!(ok, "lone admission fits an empty pool");
        }
    }

    let stats = b.engine().prefix_stats();
    (convs.into_iter().map(|c| c.out).collect(), stats)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// For any chat workload, any admit/decode/preempt/resume
    /// interleaving, any node count and page size:
    /// the cache-enabled run's token streams are bit-identical to the
    /// cache-disabled run of the same schedule.
    #[test]
    fn cached_chat_matches_uncached_bitwise(
        ops in proptest::collection::vec(0u8..4, 0..40),
        seed in any::<u64>(),
        nodes_idx in 0usize..3,
        page_idx in 0usize..3,
    ) {
        let nodes = [1usize, 2, 4][nodes_idx];
        let page_tokens = [2usize, 4, 8][page_idx];
        let model = Gpt2Model::synthetic(&ModelConfig::tiny(), 2024);

        // Tight pool: big enough that one sequence always fits after
        // eviction, small enough that pinned chains must be evicted.
        let pool = CAPACITY.div_ceil(page_tokens) + 4;

        let (plain, none) =
            run_chat(&model, nodes, page_tokens, pool, false, seed, &ops);
        let (cached, stats) =
            run_chat(&model, nodes, page_tokens, pool, true, seed, &ops);

        prop_assert!(none.is_none(), "cache-off run must report no stats");
        let stats = stats.expect("cache-on run reports stats");
        prop_assert!(stats.lookups > 0, "every admission consults the index");
        for (i, (got, want)) in cached.iter().zip(&plain).enumerate() {
            prop_assert_eq!(
                got, want,
                "conversation {} diverged ({} nodes, {}-token pages)",
                i, nodes, page_tokens
            );
        }
    }
}

/// The deterministic sequential schedule (admit → decode to target →
/// release, one turn at a time) on a roomy pool: outputs still match the
/// uncached run, and the cache demonstrably *works* — turn N+1 hits the
/// chain turn N registered, reusing a strictly positive token count.
#[test]
fn sequential_multi_turn_chat_hits_and_stays_exact() {
    let model = Gpt2Model::synthetic(&ModelConfig::tiny(), 2024);
    for nodes in [1usize, 2] {
        let (plain, _) = run_chat(&model, nodes, 4, 32, false, 99, &[]);
        let (cached, stats) = run_chat(&model, nodes, 4, 32, true, 99, &[]);
        assert_eq!(cached, plain, "{nodes}-node sequential chat diverged");

        let stats = stats.expect("cache-on run reports stats");
        assert!(stats.hits > 0, "follow-up turns must hit the cache");
        assert!(stats.reused_tokens > 0, "hits must reuse a positive span");
        assert!(stats.inserted > 0, "releases must register chains");
    }
}
