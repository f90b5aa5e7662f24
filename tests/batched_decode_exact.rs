//! Bit-exactness property suite for multi-sequence batched decode.
//!
//! The continuous-batching contract: decoding a batch of resident
//! sequences through the slot arena — whatever the admission order, the
//! interleaving schedule, the ring size, or the threading mode — produces
//! **byte-identical tokens and logits** to running each sequence alone,
//! sequentially, on a fresh engine. Every deviation would silently
//! corrupt served generations, so this suite drives randomized prompts
//! and schedules through both paths and compares exactly.

use proptest::prelude::*;

use looplynx::core::engine::DistributedGpt2;
use looplynx::core::router::RingMode;
use looplynx::model::{Gpt2Model, ModelConfig, Sampler};

/// Deterministic pseudo-random prompt from a seed (tokens within the
/// tiny-config vocabulary).
fn prompt_from(seed: u64, len: usize, vocab: usize) -> Vec<u32> {
    (0..len)
        .map(|i| {
            let h = seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(i as u64 * 0x85EB_CA6B);
            ((h >> 17) % vocab as u64) as u32
        })
        .collect()
}

/// Reference: each sequence alone on a fresh single-sequence engine.
fn lone_generations(
    model: &Gpt2Model,
    nodes: usize,
    threaded: bool,
    prompts: &[Vec<u32>],
    n: usize,
) -> (Vec<Vec<u32>>, Vec<Vec<f32>>) {
    let mut tokens = Vec::new();
    let mut last_logits = Vec::new();
    for p in prompts {
        let mut eng = DistributedGpt2::new(model, nodes, RingMode::Exact).expect("partitions");
        eng.set_threaded(threaded);
        // Re-derive the generate loop so we can also capture the final
        // logits (generate returns only tokens).
        let mut logits = eng.prefill(p);
        let mut sampler = Sampler::greedy();
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            out.push(sampler.sample(&logits));
            if i + 1 == n {
                break;
            }
            logits = eng.decode_step(out[i]);
        }
        tokens.push(out);
        last_logits.push(logits);
    }
    (tokens, last_logits)
}

/// Batched: all sequences share one slot-arena engine; admissions are
/// staggered by the schedule and every iteration decodes all residents.
#[allow(clippy::too_many_arguments)]
fn batched_generations(
    model: &Gpt2Model,
    nodes: usize,
    threaded: bool,
    prompts: &[Vec<u32>],
    n: usize,
    admit_at: &[usize],
    capacity: usize,
) -> (Vec<Vec<u32>>, Vec<Vec<f32>>) {
    let count = prompts.len();
    let mut eng = DistributedGpt2::with_slots(model, nodes, RingMode::Exact, count, capacity)
        .expect("partitions");
    eng.set_threaded(threaded);
    let mut slots: Vec<Option<usize>> = vec![None; count];
    let mut samplers: Vec<Sampler> = (0..count).map(|_| Sampler::greedy()).collect();
    let mut tokens: Vec<Vec<u32>> = vec![Vec::new(); count];
    let mut last_logits: Vec<Vec<f32>> = vec![Vec::new(); count];

    for iteration in 0.. {
        // Admit sequences whose time has come (schedule-randomized).
        for (s, &at) in admit_at.iter().enumerate() {
            if at == iteration {
                let slot = eng.acquire_slot().expect("enough slots");
                let logits = eng.prefill_slot_chunk(slot, &prompts[s], true).unwrap();
                tokens[s].push(samplers[s].sample(&logits));
                last_logits[s] = logits;
                slots[s] = Some(slot);
            }
        }
        // Decode every resident that still wants tokens.
        let entries: Vec<(usize, usize, u32)> = (0..count)
            .filter_map(|s| {
                let slot = slots[s]?;
                (tokens[s].len() < n).then(|| (s, slot, *tokens[s].last().expect("first token")))
            })
            .collect();
        if entries.is_empty() {
            if (0..count).all(|s| tokens[s].len() >= n) {
                break;
            }
            continue; // nothing resident yet, later admissions pending
        }
        let batch: Vec<(usize, u32)> = entries.iter().map(|&(_, slot, t)| (slot, t)).collect();
        let logits = eng.decode_step_batch(&batch);
        for ((s, slot, _), row) in entries.into_iter().zip(logits) {
            tokens[s].push(samplers[s].sample(&row));
            last_logits[s] = row;
            if tokens[s].len() >= n {
                eng.release_slot(slot);
                slots[s] = None;
            }
        }
    }
    (tokens, last_logits)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random prompts and admission schedules, 1/2/4 nodes, threaded and
    /// unthreaded: batched decode is byte-identical to lone sequential
    /// generation — tokens and final logits alike.
    #[test]
    fn batched_decode_is_byte_identical_to_lone_sequences(
        seed in any::<u64>(),
        count in 2usize..5,
        n in 2usize..6,
        threaded in any::<bool>(),
        nodes_pick in 0usize..3,
    ) {
        let nodes = [1usize, 2, 4][nodes_pick];
        let cfg = ModelConfig::tiny();
        let model = Gpt2Model::synthetic(&cfg, 0xBA7C4 ^ (seed % 8));
        let prompts: Vec<Vec<u32>> = (0..count)
            .map(|s| prompt_from(seed ^ s as u64, 2 + (seed as usize >> 3 ^ s) % 5, cfg.vocab))
            .collect();
        // Staggered admissions: sequence s joins at a pseudo-random
        // iteration, so batch composition changes across the run.
        let admit_at: Vec<usize> = (0..count)
            .map(|s| ((seed >> (8 + s)) % 3) as usize)
            .collect();
        let capacity = prompts.iter().map(Vec::len).max().unwrap() + n + 4;

        let (lone_tokens, lone_logits) =
            lone_generations(&model, nodes, threaded, &prompts, n);
        let (batch_tokens, batch_logits) = batched_generations(
            &model, nodes, threaded, &prompts, n, &admit_at, capacity,
        );

        for s in 0..count {
            prop_assert_eq!(
                &batch_tokens[s], &lone_tokens[s],
                "tokens diverged (seq {}, {} nodes, threaded {})", s, nodes, threaded
            );
            prop_assert_eq!(
                &batch_logits[s], &lone_logits[s],
                "final logits diverged (seq {}, {} nodes, threaded {})", s, nodes, threaded
            );
        }
    }
}
