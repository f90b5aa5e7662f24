//! The paged-KV bit-exactness wall.
//!
//! The paged arena, chunked prefill, and preempt/resume each reorder
//! *where* KV bytes live and *when* they are written — never *what* is
//! computed. Attention walks pages in token order, int8 dot products are
//! order-exact, and a resume re-prefills the evicted context through the
//! same quantization pipeline, so every schedule the scheduler can
//! produce must generate byte-identical tokens to running each sequence
//! alone on an unpaged engine. This suite drives random interleavings of
//! admit/decode/preempt/resume over random prompts, page sizes, node
//! counts, and threading, and pins that invariant; the route property
//! pins that the backend's three ways into a slot agree on tokens and KV
//! contents; the chunked-prefill differential additionally compares
//! materialized KV contents across page geometries.

use proptest::prelude::*;

use looplynx_core::backend::{
    BackendError, FunctionalBackend, InferenceBackend, PreemptedSeq, SamplerSpec,
};
use looplynx_core::engine::DistributedGpt2;
use looplynx_core::router::RingMode;
use looplynx_model::config::ModelConfig;
use looplynx_model::gpt2::Gpt2Model;

/// One sequence's position in the scripted lifecycle.
enum SeqState {
    Waiting,
    Resident { slot: usize },
    Preempted { seq: PreemptedSeq },
    Done,
}

struct Seq {
    id: u64,
    prompt: Vec<u32>,
    target: usize,
    tokens: Vec<u32>,
    state: SeqState,
}

impl Seq {
    /// The context a resume must re-prefill: prompt plus every produced
    /// token except the last (the last is the next decode input).
    fn resume_context(&self) -> Vec<u32> {
        let mut c = self.prompt.clone();
        c.extend_from_slice(&self.tokens[..self.tokens.len() - 1]);
        c
    }
}

/// Deterministic prompt material (tiny xorshift; no rand dependency).
fn prompts(seed: u64, n: usize, vocab: u32) -> Vec<Vec<u32>> {
    let mut s = seed | 1;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    (0..n)
        .map(|_| {
            let len = 4 + (next() % 5) as usize; // 4..=8
            (0..len).map(|_| (next() % vocab as u64) as u32).collect()
        })
        .collect()
}

const SAMPLER: SamplerSpec = SamplerSpec::TopK {
    k: 4,
    temperature: 0.9,
};

/// Each sequence generated alone on an unpaged (legacy-geometry,
/// single-node, unthreaded) backend — the reference every schedule must
/// reproduce byte-for-byte.
fn lone_reference(model: &Gpt2Model, seqs: &[(u64, Vec<u32>, usize)]) -> Vec<Vec<u32>> {
    seqs.iter()
        .map(|(id, prompt, target)| {
            let engine = DistributedGpt2::with_slots(model, 1, RingMode::Exact, 1, 48).unwrap();
            let mut b = FunctionalBackend::new(engine, SAMPLER);
            let p = b.prefill(prompt.len(), Some(prompt), *id).unwrap();
            let mut out = vec![p.first_token.unwrap()];
            for _ in 1..*target {
                out.push(b.decode_batch(&[p.slot]).unwrap().tokens.unwrap()[0]);
            }
            out
        })
        .collect()
}

/// Advances every unfinished resident one token; sequences reaching
/// their target are released. Returns Err only on page pressure.
fn decode_residents(b: &mut FunctionalBackend, seqs: &mut [Seq]) -> Result<(), BackendError> {
    let idx: Vec<usize> = seqs
        .iter()
        .enumerate()
        .filter(|(_, s)| matches!(s.state, SeqState::Resident { .. }))
        .map(|(i, _)| i)
        .collect();
    if idx.is_empty() {
        return Ok(());
    }
    let slots: Vec<usize> = idx
        .iter()
        .map(|&i| match seqs[i].state {
            SeqState::Resident { slot } => slot,
            _ => unreachable!(),
        })
        .collect();
    let out = b.decode_batch(&slots)?;
    let tokens = out.tokens.expect("functional backend produces tokens");
    for (j, &i) in idx.iter().enumerate() {
        seqs[i].tokens.push(tokens[j]);
        if seqs[i].tokens.len() == seqs[i].target {
            b.release(slots[j]).expect("resident owns its slot");
            seqs[i].state = SeqState::Done;
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any interleaving of admit/decode/preempt/resume over any page
    /// size, node count, and threading produces streams bit-identical
    /// to lone unpaged generation.
    #[test]
    fn interleavings_match_lone_generation(
        ops in proptest::collection::vec(0u8..4, 0..40),
        seed in any::<u64>(),
        nodes_idx in 0usize..3,
        page_idx in 0usize..3,
        threaded in any::<bool>(),
    ) {
        let nodes = [1usize, 2, 4][nodes_idx];
        let page_tokens = [2usize, 4, 8][page_idx];
        let cfg = ModelConfig::tiny();
        let model = Gpt2Model::synthetic(&cfg, 2024);

        let raw = prompts(seed, 4, cfg.vocab as u32);
        let spec: Vec<(u64, Vec<u32>, usize)> = raw
            .into_iter()
            .enumerate()
            .map(|(i, p)| (i as u64, p, 3 + i % 4))
            .collect();
        let reference = lone_reference(&model, &spec);

        // An oversubscribed pool: 4 slots × capacity 48 would want
        // 4 × (48 / page_tokens) pages; grant only enough for one full
        // sequence plus change, so the script's evictions matter.
        let pool = 48_usize.div_ceil(page_tokens) + 2;
        let mut engine =
            DistributedGpt2::with_paged_slots(&model, nodes, RingMode::Exact, 4, 48, page_tokens, pool)
                .unwrap();
        engine.set_threaded(threaded);
        let mut b = FunctionalBackend::new(engine, SAMPLER);

        let mut seqs: Vec<Seq> = spec
            .iter()
            .map(|(id, prompt, target)| Seq {
                id: *id,
                prompt: prompt.clone(),
                target: *target,
                tokens: Vec::new(),
                state: SeqState::Waiting,
            })
            .collect();

        // Scripted phase: ops drive the lifecycle; invalid or
        // pressure-blocked ops are skipped (the drain phase below
        // finishes everything).
        for op in ops {
            match op {
                0 => {
                    // Admit the first waiting sequence.
                    if let Some(s) = seqs
                        .iter_mut()
                        .find(|s| matches!(s.state, SeqState::Waiting))
                    {
                        match b.prefill(s.prompt.len(), Some(&s.prompt), s.id) {
                            Ok(p) => {
                                s.tokens.push(p.first_token.unwrap());
                                if s.tokens.len() == s.target {
                                    b.release(p.slot).unwrap();
                                    s.state = SeqState::Done;
                                } else {
                                    s.state = SeqState::Resident { slot: p.slot };
                                }
                            }
                            Err(e) => prop_assert!(
                                e.is_resource_pressure(),
                                "admission failed for a non-pressure reason: {e}"
                            ),
                        }
                    }
                }
                1 => {
                    let r = decode_residents(&mut b, &mut seqs);
                    if let Err(e) = r {
                        prop_assert!(e.is_resource_pressure(), "decode failed: {e}");
                    }
                }
                2 => {
                    // Preempt the last resident.
                    if let Some(s) = seqs
                        .iter_mut()
                        .rev()
                        .find(|s| matches!(s.state, SeqState::Resident { .. }))
                    {
                        let slot = match s.state {
                            SeqState::Resident { slot } => slot,
                            _ => unreachable!(),
                        };
                        let seq = b.preempt(slot).expect("resident is preemptible");
                        s.state = SeqState::Preempted { seq };
                    }
                }
                _ => {
                    // Resume the first preempted sequence.
                    if let Some(i) = seqs
                        .iter()
                        .position(|s| matches!(s.state, SeqState::Preempted { .. }))
                    {
                        let context = seqs[i].resume_context();
                        let seq = match &seqs[i].state {
                            SeqState::Preempted { seq } => seq,
                            _ => unreachable!(),
                        };
                        match b.resume(seq, Some(&context)) {
                            Ok(p) => seqs[i].state = SeqState::Resident { slot: p.slot },
                            Err(e) => prop_assert!(
                                e.is_resource_pressure(),
                                "resume failed for a non-pressure reason: {e}"
                            ),
                        }
                    }
                }
            }
        }

        // Drain phase: finish every sequence. Residents decode first;
        // page pressure evicts the last resident (a single sequence
        // always fits the pool by construction, so this terminates).
        loop {
            if seqs.iter().all(|s| matches!(s.state, SeqState::Done)) {
                break;
            }
            if seqs
                .iter()
                .any(|s| matches!(s.state, SeqState::Resident { .. }))
            {
                if let Err(e) = decode_residents(&mut b, &mut seqs) {
                    prop_assert!(e.is_resource_pressure(), "drain decode failed: {e}");
                    let s = seqs
                        .iter_mut()
                        .rev()
                        .find(|s| matches!(s.state, SeqState::Resident { .. }))
                        .expect("pressure implies a resident");
                    let slot = match s.state {
                        SeqState::Resident { slot } => slot,
                        _ => unreachable!(),
                    };
                    let seq = b.preempt(slot).expect("resident is preemptible");
                    s.state = SeqState::Preempted { seq };
                }
                continue;
            }
            // Nothing resident: bring back one parked or waiting
            // sequence. With an empty pool this must fit.
            if let Some(i) = seqs
                .iter()
                .position(|s| matches!(s.state, SeqState::Preempted { .. }))
            {
                let context = seqs[i].resume_context();
                let seq = match &seqs[i].state {
                    SeqState::Preempted { seq } => seq,
                    _ => unreachable!(),
                };
                let p = b.resume(seq, Some(&context)).expect("lone resume fits");
                seqs[i].state = SeqState::Resident { slot: p.slot };
            } else if let Some(s) = seqs
                .iter_mut()
                .find(|s| matches!(s.state, SeqState::Waiting))
            {
                let p = b
                    .prefill(s.prompt.len(), Some(&s.prompt), s.id)
                    .expect("lone admission fits");
                s.tokens.push(p.first_token.unwrap());
                if s.tokens.len() == s.target {
                    b.release(p.slot).unwrap();
                    s.state = SeqState::Done;
                } else {
                    s.state = SeqState::Resident { slot: p.slot };
                }
            }
        }

        for (s, want) in seqs.iter().zip(&reference) {
            prop_assert_eq!(
                &s.tokens,
                want,
                "sequence {} diverged ({} nodes, {}-token pages, threaded={})",
                s.id,
                nodes,
                page_tokens,
                threaded
            );
        }
    }
}

/// How [`run_route`] brings one sequence into its slot.
enum Route<'a> {
    /// One `prefill` call.
    OneShot,
    /// `prefill_open`, then `prefill_step`s of these sizes (cycled).
    Chunked(&'a [usize]),
    /// One-shot, then `preempt` → `resume` after this many decode steps.
    PreemptAfter(usize),
}

/// Serves one request by `route` on a fresh backend — after a warm-up
/// request that shares the prompt's first half, so a cache-on engine
/// enters the slot through a prefix hit — and returns its token stream
/// and final KV contents. Checks the ledger at quiescence on the way out.
fn run_route(
    model: &Gpt2Model,
    (nodes, page_tokens, cache): (usize, usize, bool),
    prompt: &[u32],
    decode_steps: usize,
    route: Route<'_>,
) -> (Vec<u32>, Vec<looplynx_model::kv_cache::LayerKvCache>) {
    let pool = 2 * 48_usize.div_ceil(page_tokens);
    let mut engine =
        DistributedGpt2::with_paged_slots(model, nodes, RingMode::Exact, 2, 48, page_tokens, pool)
            .unwrap();
    if cache {
        engine.enable_prefix_cache();
    }
    let mut b = FunctionalBackend::new(engine, SAMPLER);
    let mut warm = prompt[..prompt.len() / 2].to_vec();
    warm.extend_from_slice(&[1, 2, 3]);
    let w = b.prefill(warm.len(), Some(&warm), 99).unwrap();
    b.release(w.slot).unwrap();

    let (mut slot, first) = match route {
        Route::OneShot | Route::PreemptAfter(_) => {
            let p = b.prefill(prompt.len(), Some(prompt), 7).unwrap();
            (p.slot, p.first_token)
        }
        Route::Chunked(sizes) => {
            let slot = b.prefill_open(prompt.len(), Some(prompt), 7).unwrap();
            let mut sizes = sizes.iter().cycle();
            loop {
                let p = b.prefill_step(slot, *sizes.next().unwrap()).unwrap();
                if p.remaining == 0 {
                    break (slot, p.first_token);
                }
                assert_eq!(p.first_token, None, "non-final chunk sampled");
            }
        }
    };
    let mut out = vec![first.expect("entering a slot samples the first token")];
    for step in 0..decode_steps {
        if matches!(route, Route::PreemptAfter(at) if at == step) {
            let seq = b.preempt(slot).unwrap();
            let mut context = prompt.to_vec();
            context.extend_from_slice(&out[..out.len() - 1]);
            let r = b.resume(&seq, Some(&context)).unwrap();
            assert_eq!(r.first_token, None, "resume must not sample");
            slot = r.slot;
        }
        out.push(b.decode_batch(&[slot]).unwrap().tokens.unwrap()[0]);
    }
    let kv = b.engine().materialized_kv(slot);
    b.release(slot).unwrap();
    let e = b.engine();
    assert_eq!(e.free_slots(), e.slots(), "a slot leaked");
    assert_eq!(
        e.free_pages() + e.cached_prefix_pages(),
        e.total_pages(),
        "a page leaked"
    );
    (out, kv)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The three trait routes into a slot — one-shot `prefill`,
    /// `prefill_open` + `prefill_step` at any chunk sizes, and `preempt` →
    /// `resume` at any point — yield one token stream and one KV content,
    /// with the prefix cache on or off, and leave the ledger quiescent.
    #[test]
    fn trait_routes_into_a_slot_agree(
        seed in any::<u64>(),
        nodes_idx in 0usize..3,
        page_idx in 0usize..3,
        cache in any::<bool>(),
        chunks in proptest::collection::vec(1usize..6, 1..4),
        preempt_at in 0usize..5,
    ) {
        let geometry = ([1usize, 2, 4][nodes_idx], [2usize, 4, 8][page_idx], cache);
        let cfg = ModelConfig::tiny();
        let model = Gpt2Model::synthetic(&cfg, 2024);
        let prompt = prompts(seed, 1, cfg.vocab as u32).remove(0);

        let one_shot = run_route(&model, geometry, &prompt, 5, Route::OneShot);
        let chunked = run_route(&model, geometry, &prompt, 5, Route::Chunked(&chunks));
        let resumed = run_route(&model, geometry, &prompt, 5, Route::PreemptAfter(preempt_at));
        prop_assert_eq!(&chunked.0, &one_shot.0, "chunked stream diverged ({:?} {:?})", geometry, chunks);
        prop_assert_eq!(&resumed.0, &one_shot.0, "resumed stream diverged ({:?} at {})", geometry, preempt_at);
        prop_assert!(chunked.1 == one_shot.1, "chunked KV diverged ({:?} {:?})", geometry, chunks);
        prop_assert!(resumed.1 == one_shot.1, "resumed KV diverged ({:?} at {})", geometry, preempt_at);
    }
}

/// Chunked-prefill differential (chunk ∈ {1, 3, 16, prompt_len}): first
/// tokens, downstream decode, and *materialized KV contents* all match
/// single-pass prefill — across different page geometries, since
/// [`looplynx_model::kv_cache::LayerKvCache`] equality is content-based.
#[test]
fn chunked_prefill_matches_single_pass_kv_and_tokens() {
    let cfg = ModelConfig::tiny();
    let model = Gpt2Model::synthetic(&cfg, 555);
    let prompt: Vec<u32> = (0..10u32).map(|i| (i * 7 + 3) % cfg.vocab as u32).collect();

    // Single-pass reference on the legacy 16-token-page geometry.
    let mut one_pass =
        DistributedGpt2::with_paged_slots(&model, 2, RingMode::Exact, 2, 32, 16, 4).unwrap();
    let slot = one_pass.acquire_slot().expect("fresh engine has slots");
    let ref_logits = one_pass.prefill_slot_chunk(slot, &prompt, true).unwrap();
    let ref_kv = one_pass.materialized_kv(slot);

    for chunk in [1usize, 3, 16, prompt.len()] {
        // Deliberately different page size (4-token pages) so the KV
        // comparison also crosses geometries.
        let mut chunked =
            DistributedGpt2::with_paged_slots(&model, 2, RingMode::Exact, 2, 32, 4, 16).unwrap();
        let slot = chunked.acquire_slot().expect("fresh engine has slots");
        let mut fed = 0;
        let mut logits = None;
        while fed < prompt.len() {
            let end = (fed + chunk).min(prompt.len());
            let last = end == prompt.len();
            logits = chunked.prefill_slot_chunk(slot, &prompt[fed..end], last);
            assert_eq!(
                logits.is_some(),
                last,
                "only the final chunk computes logits"
            );
            fed = end;
        }
        assert_eq!(
            logits.expect("final chunk ran"),
            ref_logits,
            "chunk size {chunk}: prefill logits diverged"
        );
        assert_eq!(
            chunked.materialized_kv(slot),
            ref_kv,
            "chunk size {chunk}: KV contents diverged from single-pass prefill"
        );
    }
}

/// Regression for the stale-state-on-reuse bug class: a slot that served
/// a long sequence is released and reused for a *shorter* one. Any
/// leftover position, page grant, or scale state from the first tenancy
/// would corrupt the second.
#[test]
fn slot_reuse_after_longer_sequence_is_exact() {
    let cfg = ModelConfig::tiny();
    let model = Gpt2Model::synthetic(&cfg, 808);
    let long: Vec<u32> = (0..20u32).map(|i| (i * 5 + 1) % cfg.vocab as u32).collect();
    let short = [9u32, 2, 7];

    let spec = vec![(7u64, short.to_vec(), 5usize)];
    let clean = lone_reference(&model, &spec);

    // One slot forces reuse: the long tenancy must leave nothing behind.
    let engine =
        DistributedGpt2::with_paged_slots(&model, 2, RingMode::Exact, 1, 32, 4, 8).unwrap();
    let mut b = FunctionalBackend::new(engine, SAMPLER);
    let p = b.prefill(long.len(), Some(&long), 1).unwrap();
    for _ in 0..6 {
        b.decode_batch(&[p.slot]).unwrap();
    }
    b.release(p.slot).unwrap();

    let p = b.prefill(short.len(), Some(&short), 7).unwrap();
    let mut got = vec![p.first_token.unwrap()];
    for _ in 1..5 {
        got.push(b.decode_batch(&[p.slot]).unwrap().tokens.unwrap()[0]);
    }
    assert_eq!(got, clean[0], "reused slot leaked state from prior tenancy");
}
