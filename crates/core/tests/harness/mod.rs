//! The engine-level exactness harness: the ring must compute what one
//! device computes, and batching, paging, prefix sharing, chunked feeds
//! and preempt → resume only move *where* and *when* KV bytes are written,
//! never *what* is computed.
//!
//! A case draws a config point (ring size and mode, row shards,
//! threading, page size and pool, prefix cache, feed chunk, heap or mapped
//! weights, tiny or wide-head model) and an op script, runs the script
//! through [`FunctionalBackend`] and after every op checks each request
//! against itself run alone (unthreaded, one row shard, roomy pool, no
//! cache) in lockstep: tokens so far, live KV, and
//! [`DistributedGpt2::audit`]. Once per point a fixed batch through the
//! slot API must equal the lone logit rows, and under [`RingMode::Exact`]
//! the lone engine must equal [`Gpt2Model`], the single-device reference.
//! A failing script is shrunk one deleted op at a time and printed.
//!
//! Every engine-level exactness test binary in this directory is a set of
//! entry points into this one module: random points with some axes
//! pinned, fixed batches at chosen points, and named fixed scripts. The
//! serving harness (`serve/tests/harness`) includes it by path for its
//! lone-run oracle ([`lone_tokens`]) and its shrinker ([`check`]).

// Each test binary includes this module and uses only part of it.
#![allow(dead_code)]

use std::cell::Cell;
use std::fmt::Debug;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Once, OnceLock};

use looplynx_core::backend::{FunctionalBackend, InferenceBackend, PreemptedSeq, SamplerSpec};
use looplynx_core::engine::DistributedGpt2;
use looplynx_core::router::RingMode;
use looplynx_model::checkpoint;
use looplynx_model::config::ModelConfig;
use looplynx_model::gpt2::Gpt2Model;
use looplynx_model::sampler::Sampler;

/// Every request is sampled top-k, so a sampler that loses its place
/// (say, across a preemption) changes tokens, which greedy would hide.
pub const SAMPLER: SamplerSpec = SamplerSpec::TopK {
    k: K,
    temperature: T,
};
const K: usize = 4;
const T: f32 = 0.9;
pub const SLOTS: usize = 4;
/// Token bound of one sequence: five chained chat turns (prompt and
/// output) reach at most 57 tokens.
pub const CAPACITY: usize = 64;
/// The fixed batch's sequences: five decode rows are the fewest the AMX
/// tile path takes where the unit is live, so on the wide-head model the
/// LM head runs tiles on pool lanes.
pub const BATCH: usize = if cfg!(miri) { 2 } else { 5 };

/// The tiny or wide-head model, on the heap or `mapped` from a saved
/// checkpoint (every large tensor a view into the file that pool workers
/// read in place); built once per test binary.
fn model(wide: bool, mapped: bool) -> &'static Gpt2Model {
    static CELLS: [OnceLock<Gpt2Model>; 4] = [const { OnceLock::new() }; 4];
    CELLS[wide as usize * 2 + mapped as usize].get_or_init(|| {
        // The wide head: one layer, and a 32 776 × 128 LM head — the one
        // stage whose share still clears the engine's dispatch gate when
        // split over 4 nodes × 4 row shards, in shards that start off the
        // 16-row tile.
        let cfg = match wide {
            false => ModelConfig::tiny(),
            true => ModelConfig {
                name: "wide-head".into(),
                layers: 1,
                d_model: 128,
                d_ff: 256,
                vocab: 32_776,
                ..ModelConfig::tiny()
            },
        };
        let heap = Gpt2Model::synthetic(&cfg, 2024);
        if !mapped {
            return heap;
        }
        let name = format!("looplynx_exactness_{}_{wide}.bin", std::process::id());
        let path = std::env::temp_dir().join(name);
        checkpoint::save(heap.config(), heap.weights(), &path).expect("save");
        let mapped = checkpoint::load_model(&path).expect("load");
        std::fs::remove_file(&path).ok();
        mapped
    })
}

/// Seeded xorshift64: points and scripts repeat from their seed.
pub struct Rng(pub u64);

impl Rng {
    pub fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % n as u64) as usize
    }

    pub fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len())]
    }

    /// `lo + below(spread)` tokens drawn from the vocabulary.
    pub fn tokens(&mut self, lo: usize, spread: usize, vocab: usize) -> Vec<u32> {
        let n = lo + self.below(spread);
        (0..n).map(|_| self.below(vocab) as u32).collect()
    }
}

/// One config point: every axis the engine can be built or driven along.
#[derive(Debug, Clone, Copy)]
pub struct Point {
    pub wide: bool,
    pub mapped: bool,
    pub nodes: usize,
    pub mode: RingMode,
    pub row_shards: usize,
    pub threaded: bool,
    pub page_tokens: usize,
    /// Pages per pool, from "one full sequence + 2" up to roomy.
    pub pages: usize,
    pub cache: bool,
    /// Tokens per prefill step; `None` feeds the whole prompt at once.
    pub chunk: Option<usize>,
}

impl Point {
    pub fn draw(rng: &mut Rng, wide: bool) -> Point {
        let page_tokens = if cfg!(miri) { 4 } else { rng.pick(&[2, 4, 8]) };
        let one = CAPACITY.div_ceil(page_tokens);
        Point {
            wide,
            // Writing the wide head's checkpoint takes seconds in a debug
            // build, and Miri has no file mapping: mapped weights ride on
            // the tiny model.
            mapped: !cfg!(miri) && !wide && rng.pick(&[false, true]),
            nodes: rng.pick(&[1, 2, 4]),
            mode: rng.pick(&[RingMode::Exact, RingMode::Quantized]),
            row_shards: rng.pick(&[1, 2, 4]),
            threaded: rng.pick(&[false, true]),
            page_tokens,
            pages: rng.pick(&[tightest(page_tokens), 2 * one, SLOTS * one]),
            cache: rng.pick(&[false, true]),
            chunk: rng.pick(&[Some(1), Some(3), None]),
        }
    }

    pub fn vocab(&self) -> usize {
        model(self.wide, false).config().vocab
    }

    /// The engine under test, with `slots` slots over `pages` pages.
    pub fn engine(&self, slots: usize, pages: usize) -> DistributedGpt2 {
        let mut e = DistributedGpt2::with_paged_slots(
            model(self.wide, self.mapped),
            self.nodes,
            self.mode,
            slots,
            CAPACITY,
            self.page_tokens,
            pages,
        )
        .expect("partitions");
        e.set_row_shards(self.row_shards);
        e.set_threaded(self.threaded);
        if self.cache {
            e.enable_prefix_cache();
        }
        e
    }

    /// The oracle's engine: one slot, heap weights, the point's ring,
    /// unthreaded, one row shard, a roomy pool of default pages, no cache.
    pub fn lone(&self) -> DistributedGpt2 {
        let heap = model(self.wide, false);
        let mut e = DistributedGpt2::with_slots(heap, self.nodes, self.mode, 1, CAPACITY)
            .expect("partitions");
        e.set_row_shards(1);
        e.set_threaded(false);
        e
    }
}

/// One request of a script. Its prompt is `tokens`, behind the history
/// (prompt and output) of the request it `follows` — a chat turn, which
/// can only open once that request is done.
#[derive(Debug, Clone)]
pub struct ReqSpec {
    pub follows: Option<usize>,
    pub tokens: Vec<u32>,
    pub target: usize,
}

/// A script op; each maps onto one backend call. An op with nothing to
/// act on is skipped.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// Opens the first waiting request: `prefill`, or `prefill_open`
    /// when the point feeds in chunks.
    Open,
    /// Feeds one chunk into the first request still prefilling.
    Feed,
    /// Decodes every resident in one batch.
    Decode,
    /// Preempts the most recently admitted (or resumed) resident.
    PreemptYoungest,
    /// Preempts the resident holding the most pages only it references.
    PreemptReclaimable,
    /// Resumes the first preempted request.
    Resume,
    /// Releases the most recently opened live request before it is done.
    Release,
}

/// A shared system prompt, so prefix hits cross requests.
pub fn system_prompt() -> Vec<u32> {
    (0..6).map(|t| t * 37 + 11).collect()
}

/// Draws the requests and ops of one script at `point`.
pub fn draw_script(rng: &mut Rng, point: &Point) -> (Vec<ReqSpec>, Vec<Op>) {
    let vocab = point.vocab();
    // Every wide-head LM head row streams 4 MiB of weights.
    let (requests, max_ops) = match point.wide {
        _ if cfg!(miri) => (2, 6),
        false => (5, 40),
        true => (2, 20),
    };
    let specs = (0..requests)
        .map(|i| {
            let target = 2 + rng.below(5);
            match rng.below(4) {
                0 => spec(None, rng.tokens(4, 5, vocab), target),
                1 if i > 0 => spec(Some(rng.below(i)), rng.tokens(2, 3, vocab), target),
                _ => spec(
                    None,
                    system_prompt().into_iter().chain(rng.tokens(2, 4, vocab)),
                    target,
                ),
            }
        })
        .collect();
    let op = |r| match r {
        0..=2 => Op::Open,
        3..=5 => Op::Feed,
        6..=9 => Op::Decode,
        10 => Op::PreemptYoungest,
        11 => Op::PreemptReclaimable,
        12 => Op::Resume,
        _ => Op::Release,
    };
    let n = rng.below(max_ops + 1);
    let ops = (0..n).map(|_| op(rng.below(14))).collect();
    (specs, ops)
}

/// Where an opened request is (a request not yet opened has no `Seq`).
enum State {
    Prefilling { slot: usize },
    Resident { slot: usize },
    Preempted(PreemptedSeq),
    Done,
}

/// One request's run: the subject's view next to its lone oracle.
struct Seq {
    prompt: Vec<u32>,
    target: usize,
    state: State,
    /// Tokens the subject produced.
    tokens: Vec<u32>,
    /// Tokens the oracle produced, in lockstep.
    want: Vec<u32>,
    /// The request alone: a one-slot backend, opened with the subject.
    oracle: FunctionalBackend,
    /// Residency ordinal (larger = resident more recently).
    admitted: u64,
}

impl Seq {
    fn slot(&self) -> Option<usize> {
        match self.state {
            State::Prefilling { slot } | State::Resident { slot } => Some(slot),
            _ => None,
        }
    }
}

/// The subject backend and every request's run.
struct Run<'a> {
    point: &'a Point,
    b: FunctionalBackend,
    specs: &'a [ReqSpec],
    seqs: Vec<Seq>,
    admits: u64,
}

impl Run<'_> {
    /// `(request, slot)` of every resident, in request order.
    fn residents(&self) -> Vec<(usize, usize)> {
        let resident = |(i, s): (usize, &Seq)| match s.state {
            State::Resident { slot } => Some((i, slot)),
            _ => None,
        };
        self.seqs.iter().enumerate().filter_map(resident).collect()
    }

    /// Applies one op, then the checks; `Ok(false)` when it had nothing to
    /// act on, `Err` when the backend refused it for resource pressure,
    /// which must leave free slots, free and cache-pinned pages as found.
    fn apply(&mut self, op: Op) -> Result<bool, ()> {
        let ledger =
            |e: &DistributedGpt2| (e.free_slots(), e.free_pages(), e.cached_prefix_pages());
        let before = ledger(self.b.engine());
        let result = self.try_apply(op);
        if let Err(e) = &result {
            assert!(e.is_resource_pressure(), "{op:?} failed: {e}");
            let after = ledger(self.b.engine());
            assert_eq!(after, before, "refused {op:?} changed the ledger");
        }
        self.check();
        result.map_err(|_| ())
    }

    fn try_apply(&mut self, op: Op) -> Result<bool, looplynx_core::backend::BackendError> {
        match op {
            Op::Open => {
                let next = self.seqs.len();
                let Some(spec) = self.specs.get(next) else {
                    return Ok(false);
                };
                let prompt = match spec.follows.map(|j| &self.seqs[j]) {
                    None => spec.tokens.clone(),
                    Some(prev) if matches!(prev.state, State::Done) => {
                        [&prev.prompt[..], &prev.tokens, &spec.tokens].concat()
                    }
                    Some(_) => return Ok(false),
                };
                let id = next as u64 + 1;
                let (state, first) = match self.point.chunk {
                    None => {
                        let p = self.b.prefill(prompt.len(), Some(&prompt), id)?;
                        (State::Resident { slot: p.slot }, p.first_token)
                    }
                    Some(_) => {
                        let slot = self.b.prefill_open(prompt.len(), Some(&prompt), id)?;
                        (State::Prefilling { slot }, None)
                    }
                };
                let oracle = lone_oracle(self.point, &prompt, id);
                self.seqs.push(Seq {
                    prompt,
                    target: spec.target,
                    state,
                    tokens: Vec::new(),
                    want: Vec::new(),
                    oracle,
                    admitted: 0,
                });
                self.sync(next, first);
            }
            Op::Feed => {
                let prefilling = |s: &Seq| matches!(s.state, State::Prefilling { .. });
                let Some(i) = self.seqs.iter().position(prefilling) else {
                    return Ok(false);
                };
                let slot = self.seqs[i].slot().expect("live");
                let chunk = self.point.chunk.unwrap_or(usize::MAX);
                let p = self.b.prefill_step(slot, chunk)?;
                if p.remaining == 0 {
                    self.seqs[i].state = State::Resident { slot };
                }
                self.sync(i, p.first_token);
            }
            Op::Decode => {
                let (idx, slots): (Vec<usize>, Vec<usize>) = self.residents().into_iter().unzip();
                if idx.is_empty() {
                    return Ok(false);
                }
                let tokens = self.b.decode_batch(&slots)?.tokens.expect("tokens");
                for (&i, token) in idx.iter().zip(tokens) {
                    let s = &mut self.seqs[i];
                    let want = s.oracle.decode_batch(&[0]).expect("lone decode");
                    s.want.push(want.tokens.expect("tokens")[0]);
                    s.tokens.push(token);
                    self.finish_if_done(i);
                }
            }
            Op::PreemptYoungest | Op::PreemptReclaimable => {
                let pages = |slot| match op {
                    Op::PreemptReclaimable => self.b.reclaimable_pages(slot),
                    _ => 0,
                };
                let residents = self.residents().into_iter();
                let victim =
                    residents.max_by_key(|&(i, slot)| (pages(slot), self.seqs[i].admitted));
                let Some((i, slot)) = victim else {
                    return Ok(false);
                };
                let seq = self.b.preempt(slot).expect("a resident is preemptible");
                self.seqs[i].state = State::Preempted(seq);
            }
            Op::Resume => {
                let preempted = |s: &Seq| matches!(s.state, State::Preempted(_));
                let Some(i) = self.seqs.iter().position(preempted) else {
                    return Ok(false);
                };
                let s = &self.seqs[i];
                let mut context = s.prompt.clone();
                context.extend_from_slice(&s.tokens[..s.tokens.len() - 1]);
                let State::Preempted(seq) = &s.state else {
                    unreachable!()
                };
                let p = self.b.resume(seq, Some(&context))?;
                assert_eq!(p.first_token, None, "a resume samples nothing");
                self.admits += 1;
                self.seqs[i].admitted = self.admits;
                self.seqs[i].state = State::Resident { slot: p.slot };
            }
            Op::Release => {
                let Some(i) = self.seqs.iter().rposition(|s| s.slot().is_some()) else {
                    return Ok(false);
                };
                let slot = self.seqs[i].slot().unwrap();
                self.b.release(slot).expect("a live slot releases");
                self.seqs[i].state = State::Done;
            }
        }
        Ok(true)
    }

    /// Brings request `i`'s oracle to the subject's position by feeding
    /// it the prompt tokens the subject took in (a mapped prefix, a
    /// chunk, a whole prompt), and banks the first tokens both sampled.
    fn sync(&mut self, i: usize, first: Option<u32>) {
        let Some(slot) = self.seqs[i].slot() else {
            return;
        };
        let pos = self.b.engine().slot_pos(slot);
        let s = &mut self.seqs[i];
        let fed = s.oracle.engine().slot_pos(0);
        if pos > fed {
            let p = s.oracle.prefill_step(0, pos - fed).expect("lone feed");
            s.want.extend(p.first_token);
        }
        s.tokens.extend(first);
        if first.is_some() {
            self.admits += 1;
            self.seqs[i].admitted = self.admits;
            self.finish_if_done(i);
        }
    }

    /// Releases request `i` once it has all its tokens.
    fn finish_if_done(&mut self, i: usize) {
        let s = &mut self.seqs[i];
        if s.tokens.len() == s.target {
            self.b
                .release(s.slot().unwrap())
                .expect("a resident releases");
            s.state = State::Done;
        }
    }

    /// The checks after every op: tokens so far and every live slot's KV
    /// equal the lone run's, and the engine's ledger balances.
    fn check(&mut self) {
        for (i, s) in self.seqs.iter().enumerate() {
            assert_eq!(s.tokens, s.want, "request {i}'s tokens left its lone run");
            if let Some(slot) = s.slot() {
                let kv = self.b.engine().materialized_kv(slot);
                assert!(
                    kv == s.oracle.engine().materialized_kv(0),
                    "request {i}'s KV diverged from its lone run"
                );
            }
        }
        self.b.engine().audit();
    }

    /// Finishes every request: residents decode (page pressure preempts
    /// the youngest), then prefills feed (pressure abandons the youngest
    /// of several), then the preempted resume and the waiting open — a
    /// lone sequence always fits the pool, so this terminates.
    fn drain(&mut self) {
        loop {
            let count =
                |run: &Run, f: fn(&State) -> bool| run.seqs.iter().filter(|s| f(&s.state)).count();
            if count(self, |s| matches!(s, State::Resident { .. })) > 0 {
                if self.apply(Op::Decode).is_err() {
                    self.apply(Op::PreemptYoungest).unwrap();
                }
            } else if let n @ 1.. = count(self, |s| matches!(s, State::Prefilling { .. })) {
                if self.apply(Op::Feed).is_err() {
                    assert!(n > 1, "a lone prefill must fit the pool");
                    self.apply(Op::Release).unwrap();
                }
            } else if count(self, |s| matches!(s, State::Preempted(_))) > 0 {
                assert_eq!(self.apply(Op::Resume), Ok(true), "a lone resume must fit");
            } else if self.seqs.len() < self.specs.len() {
                assert_eq!(self.apply(Op::Open), Ok(true), "a lone open must fit");
            } else {
                break;
            }
        }
        let e = self.b.engine();
        assert_eq!(e.free_slots(), e.slots(), "a slot leaked");
    }
}

/// Runs `ops` then the drain at `point`, checking after every op; returns
/// the subject backend for script-specific checks.
pub fn run_script(point: &Point, specs: &[ReqSpec], ops: &[Op]) -> FunctionalBackend {
    let mut run = Run {
        point,
        b: FunctionalBackend::new(point.engine(SLOTS, point.pages), SAMPLER),
        specs,
        seqs: Vec::new(),
        admits: 0,
    };
    for &op in ops {
        let _ = run.apply(op);
    }
    run.drain();
    let exact = point.mode == RingMode::Exact;
    let mut done = run.seqs.iter().enumerate().filter(|_| exact);
    if let Some((i, s)) = done.find(|(_, s)| s.tokens.len() == s.target) {
        let want = reference_tokens(point.wide, &s.prompt, s.target, i as u64 + 1);
        assert_eq!(s.tokens, want, "the lone run left the single-device model");
    }
    run.b
}

/// The oracle: request `id` alone on the point's lone engine, opened on
/// `prompt` with nothing fed yet.
pub fn lone_oracle(point: &Point, prompt: &[u32], id: u64) -> FunctionalBackend {
    let mut oracle = FunctionalBackend::new(point.lone(), SAMPLER);
    oracle
        .prefill_open(prompt.len(), Some(prompt), id)
        .expect("lone open");
    oracle
}

/// The first `n` tokens request `id` samples on its lone run.
pub fn lone_tokens(point: &Point, prompt: &[u32], n: usize, id: u64) -> Vec<u32> {
    let mut oracle = lone_oracle(point, prompt, id);
    let fed = oracle.prefill_step(0, prompt.len()).expect("lone feed");
    let mut out: Vec<u32> = fed.first_token.into_iter().collect();
    while out.len() < n {
        let decoded = oracle.decode_batch(&[0]).expect("lone decode");
        out.extend(decoded.tokens.expect("tokens"));
    }
    out
}

/// `Gpt2Model`'s tokens for one request under the harness's sampler.
fn reference_tokens(wide: bool, prompt: &[u32], n: usize, seed: u64) -> Vec<u32> {
    let mut m = model(wide, false).clone();
    let mut sampler = Sampler::top_k(K, T, seed);
    let mut out = vec![sampler.sample(&m.prefill(prompt))];
    while out.len() < n {
        let logits = m.decode_step(out[out.len() - 1]);
        out.push(sampler.sample(&logits));
    }
    out
}

thread_local! {
    /// Silences this thread's panic messages while a failing script shrinks.
    static QUIET: Cell<bool> = const { Cell::new(false) };
}

/// Runs `run` on `items` and returns its result; on failure shrinks the
/// list by deleting one item at a time while it still fails (with this
/// thread's panic messages silenced), prints the seed, `point` and the
/// shortest failing list, and replays that one to fail with its own
/// message.
pub fn check<T: Clone + Debug, R>(
    seed: u64,
    point: &dyn Debug,
    items: &[T],
    run: impl Fn(&[T]) -> R,
) -> R {
    let attempt = |items: &[T]| panic::catch_unwind(AssertUnwindSafe(|| run(items)));
    if let Ok(r) = attempt(items) {
        return r;
    }
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let default = panic::take_hook();
        panic::set_hook(Box::new(move |p| {
            if !QUIET.get() {
                default(p)
            }
        }));
    });
    QUIET.set(true);
    let mut items = items.to_vec();
    let mut i = 0;
    while i < items.len() {
        let mut shorter = items.clone();
        shorter.remove(i);
        if attempt(&shorter).is_err() {
            items = shorter;
        } else {
            i += 1;
        }
    }
    QUIET.set(false);
    eprintln!(
        "seed {seed:#x} fails at {point:?}\nshortest failing list ({} items): {items:?}",
        items.len()
    );
    run(&items);
    panic!("the failure did not replay");
}

/// Runs one script and returns the subject backend; a failing script is
/// shrunk one op at a time and printed ([`check`]).
pub fn check_script(seed: u64, point: &Point, specs: &[ReqSpec], ops: &[Op]) -> FunctionalBackend {
    check(seed, &(point, specs), ops, |ops| {
        run_script(point, specs, ops)
    })
}

/// One sequence of the fixed batch: its prompt and three decode tokens.
pub type BatchSeq = (Vec<u32>, [u32; 3]);
/// The logit rows of a fixed-batch run, and its slots.
pub type BatchOut = (Vec<Vec<f32>>, Vec<usize>);

pub fn fixed_batch(vocab: usize) -> Vec<BatchSeq> {
    (0..BATCH)
        .map(|i| {
            let prompt = (0..3 + i % 4).map(|t| ((7 * i + 3 * t + 1) % vocab) as u32);
            let step = |s: usize| ((11 * i + s) % vocab) as u32;
            (prompt.collect(), [step(0), step(1), step(2)])
        })
        .collect()
}

/// Prefills one slot per sequence, then runs three `decode_step_batch`
/// steps over all of them (`between` runs before each step); returns the
/// logit rows in order and the slots.
pub fn batch_rows(
    e: &mut DistributedGpt2,
    batch: &[BatchSeq],
    mut between: impl FnMut(&mut DistributedGpt2),
) -> BatchOut {
    let mut rows = Vec::new();
    let slots: Vec<usize> = batch
        .iter()
        .map(|(prompt, _)| {
            let slot = e.acquire_slot().expect("a free slot");
            rows.push(e.prefill_slot_chunk(slot, prompt, true).expect("logits"));
            slot
        })
        .collect();
    for step in 0..3 {
        between(e);
        let entries: Vec<(usize, u32)> = slots
            .iter()
            .zip(batch)
            .map(|(&s, (_, t))| (s, t[step]))
            .collect();
        rows.extend(e.decode_step_batch(&entries));
    }
    (rows, slots)
}

/// Checks the fixed batch's logit rows and slot KV from `e` against
/// each sequence alone on the point's lone engine, bit for bit, and under
/// `Exact` the last (longest) sequence's rows against the single-device
/// model: one shows ring-size invariance, and the wide head's is slow.
pub fn assert_lone(point: &Point, batch: &[BatchSeq], e: &DistributedGpt2, out: &BatchOut) {
    let (rows, slots) = out;
    for (i, seq) in batch.iter().enumerate() {
        let mut lone = point.lone();
        let (want, _) = batch_rows(&mut lone, std::slice::from_ref(seq), |_| {});
        for (r, row) in want.iter().enumerate() {
            assert!(
                rows[r * BATCH + i] == *row,
                "batch row {r} of sequence {i} diverged at {point:?}"
            );
        }
        let kv = e.materialized_kv(slots[i]);
        assert!(
            kv == lone.materialized_kv(0),
            "sequence {i}'s KV diverged at {point:?}"
        );
        if point.mode == RingMode::Exact && i == BATCH - 1 {
            let mut m = model(point.wide, false).clone();
            let mut reference = vec![m.prefill(&seq.0)];
            reference.extend(seq.1.iter().map(|&t| m.decode_step(t)));
            assert!(
                reference == want,
                "{}-node logits diverged from the single-device model",
                point.nodes
            );
        }
    }
}

/// The fixed batch at `point` through the slot API equals its lone runs.
pub fn check_batch(point: &Point) {
    let batch = fixed_batch(point.vocab());
    let mut e = point.engine(BATCH, BATCH * CAPACITY.div_ceil(point.page_tokens));
    let out = batch_rows(&mut e, &batch, |_| {});
    assert_lone(point, &batch, &e, &out);
}

/// `cases` random points on the tiny or the `wide` head model, seeded
/// from `base`, each with the fixed batch and a random script; `pin` fixes
/// the axes a test is about and leaves the others as drawn.
pub fn random_points(base: u64, wide: bool, cases: u64, pin: impl Fn(Point, &mut Rng) -> Point) {
    for case in 0..cases {
        let seed = base + case;
        let mut rng = Rng(seed);
        let point = pin(Point::draw(&mut rng, wide), &mut rng);
        check_batch(&point);
        let (specs, ops) = draw_script(&mut rng, &point);
        check_script(seed, &point, &specs, &ops);
    }
}

/// The tightest pool a point draws: one full sequence and two pages.
pub fn tightest(page_tokens: usize) -> usize {
    CAPACITY.div_ceil(page_tokens) + 2
}

/// A tiny-model point with every option at its plainest.
pub fn plain(nodes: usize, page_tokens: usize) -> Point {
    Point {
        wide: false,
        mapped: false,
        nodes,
        mode: RingMode::Exact,
        row_shards: 1,
        threaded: false,
        page_tokens,
        pages: SLOTS * CAPACITY.div_ceil(page_tokens),
        cache: false,
        chunk: None,
    }
}

pub fn spec(
    follows: Option<usize>,
    tokens: impl IntoIterator<Item = u32>,
    target: usize,
) -> ReqSpec {
    ReqSpec {
        follows,
        tokens: tokens.into_iter().collect(),
        target,
    }
}

/// One prompt into a slot by each route — one-shot, chunked, and
/// preempt → resume — behind a warm-up request that shares its first
/// half, with the cache on and off, at `nodes` and `page_tokens`: each
/// equals the lone run, so all three agree on tokens and KV, the ledger
/// balances throughout, and the feed chunk leaves the same cache behind
/// (a page is indexed only once no slot appends to it).
pub fn three_routes(nodes: usize, page_tokens: usize) {
    let prompt: Vec<u32> = (0..9).map(|t| (t * 13 + 5) % 320).collect();
    let warm = prompt[..4].iter().copied().chain([1, 2, 3]);
    let specs = [spec(None, warm, 2), spec(None, prompt, 6)];
    let ops = [
        [Op::Open].as_slice(),
        &[Op::Feed; 7],
        &[Op::Decode, Op::Open],
        &[Op::Feed; 9],
        &[Op::Decode, Op::PreemptYoungest, Op::Resume],
        &[Op::Decode, Op::Decode],
    ]
    .concat();
    for cache in [false, true] {
        let left = [None, Some(1), Some(3)].map(|chunk| {
            let point = Point {
                cache,
                chunk,
                ..plain(nodes, page_tokens)
            };
            let b = check_script(0, &point, &specs, &ops);
            let inserted = b.engine().prefix_stats().map(|s| s.inserted);
            (b.engine().cached_prefix_pages(), inserted)
        });
        assert!(
            left.iter().all(|l| *l == left[0]),
            "the feed chunk changed the cache: {left:?}"
        );
    }
}

/// The fixed batch on a 2-node engine with `toggle(engine, step)` run
/// before the prefills (step 0) and before each decode step: a setter
/// that holds no state leaves every row equal to its lone run.
pub fn toggled_batch(mut toggle: impl FnMut(&mut DistributedGpt2, usize)) {
    let point = plain(2, 4);
    let batch = fixed_batch(point.vocab());
    let mut e = point.engine(BATCH, point.pages);
    toggle(&mut e, 0);
    let mut step = 0;
    let out = batch_rows(&mut e, &batch, |e| {
        step += 1;
        toggle(e, step);
    });
    assert_lone(&point, &batch, &e, &out);
}
