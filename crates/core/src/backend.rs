//! Execution backends: one serving contract, two substrates.
//!
//! The serving layer (`looplynx-serve`) schedules requests; *how* a
//! prefill or a batched decode iteration actually executes is the
//! backend's business. [`InferenceBackend`] is that seam:
//!
//! * [`SimBackend`] — the cycle-accurate [`LoopLynx`] timing engine.
//!   Nothing is computed; every operation returns the simulated
//!   accelerator wall-clock. Use it for scheduling studies, offered-load
//!   sweeps and paper reproduction, where the metric is *modelled* time.
//! * [`FunctionalBackend`] — the real W8A8 [`DistributedGpt2`] pipeline
//!   over a multi-sequence slot arena. Tokens are actually produced
//!   (per-request samplers over real logits), batched decode shares every
//!   weight stream across residents, and operations report measured host
//!   wall-clock. Use it to serve real prompts and to measure functional
//!   throughput.
//!
//! The contract mirrors continuous batching's shape: admission runs one
//! prompt (`prefill`, returning a slot and — for token-producing
//! backends — the request's first output token, sampled from the prefill
//! logits), each decode iteration advances a *batch* of resident slots by
//! one token, and completed requests release their slots.

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
// lint: allow(determinism) — wall-clock feeds only measured elapsed_ms, never token streams
use std::time::Instant;

use looplynx_model::sampler::Sampler;

use crate::engine::{DistributedGpt2, LoopLynx};

/// Why a backend operation could not be carried out.
///
/// Failure is part of the serving contract: a gateway that admits
/// millions of requests must be able to *observe* slot pressure, injected
/// chaos faults, and crashed worker threads as values, not as process
/// aborts. Every variant is either **transient** (retrying the same
/// operation may succeed — see [`BackendError::is_transient`]) or
/// **permanent** (the request, or the whole backend, is lost).
#[derive(Debug, Clone, PartialEq)]
pub enum BackendError {
    /// Every resident-sequence slot is occupied: admission outran
    /// completion. Not retryable *now*, but clears when a resident
    /// releases — schedulers should hold the request, not drop it.
    SlotsExhausted {
        /// The backend's slot capacity at the time of the call.
        capacity: usize,
    },
    /// A deterministic fault-injection wrapper
    /// ([`crate::fault::FaultyBackend`]) vetoed the operation before the
    /// inner backend ran. The inner state is untouched, so a retry is
    /// exact: completed requests stay bit-identical to a fault-free run.
    InjectedFault {
        /// Operation the fault was injected into (`"prefill"`,
        /// `"decode"`).
        op: &'static str,
    },
    /// A token-producing backend was asked to prefill a request that
    /// carries no prompt tokens.
    MissingPrompt,
    /// The declared prompt length disagrees with the prompt tokens
    /// actually supplied.
    PromptLengthMismatch {
        /// `prefill_tokens` the caller declared.
        declared: usize,
        /// Tokens actually present in the prompt.
        got: usize,
    },
    /// A node worker panicked mid-operation. The engine's KV/slot state
    /// can no longer be trusted, so the backend poisons itself: every
    /// subsequent operation fails with this error and the gateway must
    /// drain its residents as failed.
    WorkerPoisoned {
        /// Rendered panic payload (best effort).
        detail: String,
    },
    /// An operation named a slot no resident sequence owns.
    SlotNotResident {
        /// The offending slot index.
        slot: usize,
    },
    /// The paged KV pool cannot grant the pages the operation needs:
    /// resident context outran physical arena bytes. Not retryable *now*
    /// — it clears when pages free (a release or a preemption), so
    /// schedulers should preempt or hold, never drop. The operation did
    /// not run; no KV state changed.
    PagesExhausted {
        /// Pages the operation needed.
        needed: usize,
        /// Pages that were free at the time of the call.
        free: usize,
    },
    /// The backend does not implement this optional capability (chunked
    /// prefill, preemption). Permanent for the backend's lifetime: gate
    /// on [`InferenceBackend::supports_chunked_prefill`] /
    /// [`InferenceBackend::supports_preemption`] instead of retrying.
    Unsupported {
        /// The capability that was requested.
        op: &'static str,
    },
}

impl BackendError {
    /// Whether retrying the *same* operation can succeed: injected faults
    /// veto one call, not the request. Slot exhaustion is wait-don't-retry
    /// (it clears on release, not on retry), and the remaining variants
    /// are permanent contract violations or lost engines.
    pub fn is_transient(&self) -> bool {
        matches!(self, BackendError::InjectedFault { .. })
    }

    /// Whether this is resource pressure that clears when a resident
    /// releases (slots) or shrinks (KV pages) — wait or preempt, don't
    /// retry blindly and don't treat it as a permanent failure.
    pub fn is_resource_pressure(&self) -> bool {
        matches!(
            self,
            BackendError::SlotsExhausted { .. } | BackendError::PagesExhausted { .. }
        )
    }
}

impl fmt::Display for BackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackendError::SlotsExhausted { capacity } => {
                write!(f, "all {capacity} sequence slots are resident")
            }
            BackendError::InjectedFault { op } => write!(f, "injected {op} fault"),
            BackendError::MissingPrompt => write!(
                f,
                "token-producing backend needs real prompt tokens \
                 (Request::with_prompt / ArrivalProcess::workload_with_prompts)"
            ),
            BackendError::PromptLengthMismatch { declared, got } => {
                write!(f, "prompt declared {declared} tokens but carries {got}")
            }
            BackendError::WorkerPoisoned { detail } => {
                write!(f, "worker panicked, backend poisoned: {detail}")
            }
            BackendError::SlotNotResident { slot } => {
                write!(f, "slot {slot} has no resident sequence")
            }
            BackendError::PagesExhausted { needed, free } => {
                write!(f, "KV page pool exhausted: need {needed}, {free} free")
            }
            BackendError::Unsupported { op } => {
                write!(f, "backend does not support {op}")
            }
        }
    }
}

impl std::error::Error for BackendError {}

/// Outcome of admitting one request's prompt.
#[derive(Debug, Clone, PartialEq)]
pub struct PrefillOutcome {
    /// Slot the sequence now occupies (pass to
    /// [`InferenceBackend::decode_batch`] / [`InferenceBackend::release`]).
    pub slot: usize,
    /// Time the prefill took, in the backend's clock domain (simulated
    /// accelerator ms or measured host ms).
    pub elapsed_ms: f64,
    /// The request's first output token, sampled from the prefill logits
    /// (`None` for timing-only backends).
    pub first_token: Option<u32>,
}

/// Outcome of one batched decode iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodeOutcome {
    /// Time the iteration took, in the backend's clock domain.
    pub elapsed_ms: f64,
    /// Next token per requested slot, in call order (`None` for
    /// timing-only backends).
    pub tokens: Option<Vec<u32>>,
}

/// Progress of one chunked-prefill step
/// ([`InferenceBackend::prefill_step`]).
#[derive(Debug, Clone, PartialEq)]
pub struct PrefillProgress {
    /// Time this chunk took, in the backend's clock domain.
    pub elapsed_ms: f64,
    /// Prompt tokens still to feed; `0` means the prefill finished and
    /// the slot is now a decodable resident.
    pub remaining: usize,
    /// The request's first output token, sampled when the *final* chunk
    /// lands (`None` on non-final chunks and for timing-only backends).
    pub first_token: Option<u32>,
}

/// A preempted sequence's resumable state, returned by
/// [`InferenceBackend::preempt`] and consumed by
/// [`InferenceBackend::resume`].
///
/// Holds everything the backend cannot recompute: the sampler mid-stream
/// (its RNG position matters for top-k) and the last sampled token. The
/// KV cache itself is *not* carried — resume rebuilds it bit-identically
/// by re-prefilling the context (int8 GEMM rows accumulate independently,
/// so a batched re-prefill equals the original token-by-token history).
#[derive(Debug)]
pub struct PreemptedSeq {
    /// Tokens of KV context the sequence held when preempted (prompt +
    /// produced-but-last); resume must re-feed exactly this many.
    pub context_len: usize,
    /// Most recently sampled token, not yet fed to the model (`None` for
    /// timing-only backends).
    pub last_token: Option<u32>,
    /// The sequence's sampler, frozen mid-stream (`None` for timing-only
    /// backends).
    pub sampler: Option<Sampler>,
}

/// The execution substrate behind the serving schedulers.
///
/// Slot discipline: `prefill` claims a slot, every `decode_batch` may
/// include it at most once, `release` frees it. A slot's sequence length
/// grows by one per decode iteration; the backend enforces its own
/// capacity bounds.
///
/// Every operation is fallible: slot pressure, injected chaos faults and
/// crashed worker threads surface as [`BackendError`] values the serving
/// gateway can retry, shed or fail — never as panics that take the
/// process down. An `Err` means the operation did **not** happen (no slot
/// claimed, no token produced, no clock advanced), except
/// [`BackendError::WorkerPoisoned`], after which the backend is lost.
pub trait InferenceBackend {
    /// Short name for reports (`"sim"`, `"functional"`).
    fn name(&self) -> &'static str;

    /// Longest prompt + output a resident sequence can hold. The
    /// scheduler must reject requests whose peak context exceeds this.
    fn max_seq(&self) -> usize;

    /// Sequences the backend can hold resident simultaneously (the
    /// admission ceiling alongside the scheduler's own batch bound).
    /// May *shrink* over a backend's lifetime — e.g. when a fault
    /// wrapper leaks slot releases — so schedulers should re-read it.
    fn capacity(&self) -> usize;

    /// Admits one prompt: claims a slot, processes `prompt_len` prompt
    /// tokens, and (for token-producing backends) samples the first
    /// output token with a sampler seeded by `sampler_seed`.
    ///
    /// `prompt` carries the real token ids when the workload has them;
    /// timing-only backends ignore it, token-producing backends require
    /// it.
    ///
    /// # Errors
    ///
    /// [`BackendError::SlotsExhausted`] when no slot is free;
    /// [`BackendError::MissingPrompt`] /
    /// [`BackendError::PromptLengthMismatch`] on bad prompts;
    /// [`BackendError::InjectedFault`] / [`BackendError::WorkerPoisoned`]
    /// from fault wrappers and crashed workers. On error no slot is held.
    fn prefill(
        &mut self,
        prompt_len: usize,
        prompt: Option<&[u32]>,
        sampler_seed: u64,
    ) -> Result<PrefillOutcome, BackendError>;

    /// One decode iteration: every slot in `slots` advances by one token,
    /// sharing every weight pass.
    ///
    /// # Errors
    ///
    /// [`BackendError::SlotNotResident`] if a slot is free;
    /// [`BackendError::InjectedFault`] / [`BackendError::WorkerPoisoned`]
    /// from fault wrappers and crashed workers. On `Err` no slot
    /// advanced, so retrying the identical call is exact.
    ///
    /// # Panics
    ///
    /// May panic if `slots` is empty or repeats a slot — those are
    /// scheduler bugs, not runtime conditions.
    fn decode_batch(&mut self, slots: &[usize]) -> Result<DecodeOutcome, BackendError>;

    /// Frees a completed request's slot.
    ///
    /// # Errors
    ///
    /// [`BackendError::SlotNotResident`] if the slot is already free.
    fn release(&mut self, slot: usize) -> Result<(), BackendError>;

    /// Whether [`InferenceBackend::prefill_open`] /
    /// [`InferenceBackend::prefill_step`] are available, letting the
    /// scheduler feed long prompts in chunks interleaved with resident
    /// decode steps.
    fn supports_chunked_prefill(&self) -> bool {
        false
    }

    /// Opens a chunked prefill: claims a slot and stages the prompt
    /// without feeding any token. Follow with
    /// [`InferenceBackend::prefill_step`] until `remaining` hits zero;
    /// the slot only becomes a decodable resident then. Chunk boundaries
    /// cannot perturb the output: the finished sequence is bit-identical
    /// to a single-pass [`InferenceBackend::prefill`].
    ///
    /// # Errors
    ///
    /// The same admission errors as [`InferenceBackend::prefill`]. On
    /// error no slot is held. The default implementation returns
    /// [`BackendError::Unsupported`]: gate on
    /// [`InferenceBackend::supports_chunked_prefill`].
    fn prefill_open(
        &mut self,
        prompt_len: usize,
        prompt: Option<&[u32]>,
        sampler_seed: u64,
    ) -> Result<usize, BackendError> {
        let _ = (prompt_len, prompt, sampler_seed);
        Err(BackendError::Unsupported {
            op: "chunked prefill",
        })
    }

    /// Feeds the next `max_tokens` (at most) staged prompt tokens into an
    /// open chunked prefill. The final chunk samples the request's first
    /// output token.
    ///
    /// # Errors
    ///
    /// [`BackendError::SlotNotResident`] if `slot` has no open prefill;
    /// [`BackendError::PagesExhausted`] when the KV pool cannot back the
    /// chunk (nothing was fed — shrink the chunk, free pages, or
    /// preempt); fault-wrapper and poisoned-worker errors as usual. The
    /// default implementation returns [`BackendError::Unsupported`]: gate
    /// on [`InferenceBackend::supports_chunked_prefill`].
    ///
    /// # Panics
    ///
    /// Implementations may panic if `max_tokens` is zero.
    fn prefill_step(
        &mut self,
        slot: usize,
        max_tokens: usize,
    ) -> Result<PrefillProgress, BackendError> {
        let _ = (slot, max_tokens);
        Err(BackendError::Unsupported {
            op: "chunked prefill",
        })
    }

    /// Whether [`InferenceBackend::preempt`] /
    /// [`InferenceBackend::resume`] are available, letting the scheduler
    /// evict a resident under page pressure and re-admit it later.
    fn supports_preemption(&self) -> bool {
        false
    }

    /// KV pages that preempting `slot` would actually return to the
    /// free pool: pages the sequence holds *exclusively*. Pages shared
    /// with the prefix cache or other sequences survive the preemption,
    /// so victim selection should weigh this — not context length —
    /// when the goal is relieving page pressure. Timing-only and
    /// non-paged backends report 0.
    fn reclaimable_pages(&self, slot: usize) -> usize {
        let _ = slot;
        0
    }

    /// Evicts a resident sequence: frees its slot (and, on paged
    /// backends, every page it held) and returns the state needed to
    /// resume it. The scheduler keeps the request's produced tokens; the
    /// backend keeps nothing.
    ///
    /// # Errors
    ///
    /// [`BackendError::SlotNotResident`] if the slot is free or mid
    /// chunked-prefill (abandon those by [`InferenceBackend::release`]
    /// and re-admit from scratch). The default implementation returns
    /// [`BackendError::Unsupported`]: gate on
    /// [`InferenceBackend::supports_preemption`].
    fn preempt(&mut self, slot: usize) -> Result<PreemptedSeq, BackendError> {
        let _ = slot;
        Err(BackendError::Unsupported { op: "preemption" })
    }

    /// Re-admits a preempted sequence: claims a slot, rebuilds its KV
    /// context bit-identically (token-producing backends re-prefill
    /// `context`, which must hold exactly `seq.context_len` tokens:
    /// prompt followed by every produced token except the last), and
    /// restores its sampler. No new token is sampled — the outcome's
    /// `first_token` is `None`; decoding continues from the preempted
    /// `last_token`. `seq` is borrowed so a failed resume leaves the
    /// caller holding it for the next attempt.
    ///
    /// # Errors
    ///
    /// [`BackendError::SlotsExhausted`] / [`BackendError::PagesExhausted`]
    /// when the sequence does not fit right now;
    /// [`BackendError::MissingPrompt`] /
    /// [`BackendError::PromptLengthMismatch`] on bad contexts. On error
    /// no slot is held. The default implementation returns
    /// [`BackendError::Unsupported`]: gate on
    /// [`InferenceBackend::supports_preemption`].
    fn resume(
        &mut self,
        seq: &PreemptedSeq,
        context: Option<&[u32]>,
    ) -> Result<PrefillOutcome, BackendError> {
        let _ = (seq, context);
        Err(BackendError::Unsupported { op: "preemption" })
    }
}

// ------------------------------------------------------------ SimBackend

/// The timing substrate: scheduling against the cycle-accurate
/// [`LoopLynx`] engine. Tracks one context counter per resident slot and
/// charges [`LoopLynx::simulate_prefill`] /
/// [`LoopLynx::simulate_decode_batch`] time; no tokens are produced.
#[derive(Debug)]
pub struct SimBackend<'a> {
    engine: &'a LoopLynx,
    /// Per-slot KV context (prompt + produced-but-one tokens); `None`
    /// marks a free slot. Grows on demand up to [`SimBackend::capacity`].
    contexts: Vec<Option<usize>>,
}

impl<'a> SimBackend<'a> {
    /// Wraps a timing engine.
    pub fn new(engine: &'a LoopLynx) -> Self {
        SimBackend {
            engine,
            contexts: Vec::new(),
        }
    }

    /// Claims the lowest free context slot (growing the table on demand
    /// up to [`SimBackend::capacity`]) for a sequence of `context` tokens
    /// and charges one prefill over them — admission and resume alike:
    /// the timing model bills a resume exactly what the functional
    /// substrate pays to rebuild the KV cache.
    fn claim_and_charge(&mut self, context: usize) -> Result<PrefillOutcome, BackendError> {
        let slot = match self.contexts.iter().position(Option::is_none) {
            Some(free) => free,
            None if self.contexts.len() >= self.capacity() => {
                return Err(BackendError::SlotsExhausted {
                    capacity: self.capacity(),
                });
            }
            None => {
                self.contexts.push(None);
                self.contexts.len() - 1
            }
        };
        self.contexts[slot] = Some(context);
        Ok(PrefillOutcome {
            slot,
            elapsed_ms: self
                .engine
                .simulate_prefill(context)
                .to_millis(self.engine.arch()),
            first_token: None,
        })
    }
}

impl InferenceBackend for SimBackend<'_> {
    fn name(&self) -> &'static str {
        "sim"
    }

    fn max_seq(&self) -> usize {
        self.engine.model().max_seq
    }

    fn capacity(&self) -> usize {
        // One decode iteration shares weight passes across all residents,
        // bounded by the on-chip activation buffer.
        crate::config::MAX_WEIGHT_SHARING_BATCH
    }

    fn prefill(
        &mut self,
        prompt_len: usize,
        _prompt: Option<&[u32]>,
        _sampler_seed: u64,
    ) -> Result<PrefillOutcome, BackendError> {
        self.claim_and_charge(prompt_len)
    }

    fn decode_batch(&mut self, slots: &[usize]) -> Result<DecodeOutcome, BackendError> {
        // Context of each pass is the post-append cache length, exactly as
        // the pre-trait scheduler computed it. Validate every slot before
        // mutating any, so an `Err` leaves all contexts untouched.
        let mut contexts = Vec::with_capacity(slots.len());
        for &s in slots {
            match self.contexts.get(s).copied().flatten() {
                Some(ctx) => contexts.push(ctx + 1),
                None => return Err(BackendError::SlotNotResident { slot: s }),
            }
        }
        let elapsed_ms = self
            .engine
            .simulate_decode_batch(&contexts)
            .to_millis(self.engine.arch());
        for &s in slots {
            // Validated above; a vacant slot here is unreachable.
            if let Some(ctx) = self.contexts[s].as_mut() {
                *ctx += 1;
            }
        }
        Ok(DecodeOutcome {
            elapsed_ms,
            tokens: None,
        })
    }

    fn release(&mut self, slot: usize) -> Result<(), BackendError> {
        match self.contexts.get_mut(slot) {
            Some(ctx @ Some(_)) => {
                *ctx = None;
                Ok(())
            }
            _ => Err(BackendError::SlotNotResident { slot }),
        }
    }

    fn supports_preemption(&self) -> bool {
        true
    }

    fn preempt(&mut self, slot: usize) -> Result<PreemptedSeq, BackendError> {
        match self.contexts.get_mut(slot).and_then(Option::take) {
            Some(context_len) => Ok(PreemptedSeq {
                context_len,
                last_token: None,
                sampler: None,
            }),
            None => Err(BackendError::SlotNotResident { slot }),
        }
    }

    fn resume(
        &mut self,
        seq: &PreemptedSeq,
        _context: Option<&[u32]>,
    ) -> Result<PrefillOutcome, BackendError> {
        self.claim_and_charge(seq.context_len)
    }
}

// ----------------------------------------------------- FunctionalBackend

/// How the functional backend samples each request's tokens. Every
/// request gets its *own* sampler (seeded by the scheduler, normally with
/// the request id), so batching order cannot perturb any request's output
/// stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SamplerSpec {
    /// Deterministic arg-max decoding.
    Greedy,
    /// Top-k sampling at a temperature, seeded per request.
    TopK {
        /// Candidates kept.
        k: usize,
        /// Softmax temperature (> 0).
        temperature: f32,
    },
}

impl SamplerSpec {
    fn build(self, seed: u64) -> Sampler {
        match self {
            SamplerSpec::Greedy => Sampler::greedy(),
            SamplerSpec::TopK { k, temperature } => Sampler::top_k(k, temperature, seed),
        }
    }
}

/// One resident sequence's generation state.
#[derive(Debug)]
struct Resident {
    sampler: Sampler,
    /// Most recently sampled token — fed to the model by the next decode
    /// pass (the pass that makes it part of the KV history).
    last_token: u32,
}

/// A sequence on its way into a slot: the slot is claimed and `fed` of
/// `tokens` are in its KV cache, but no resident exists yet.
#[derive(Debug)]
struct PendingPrefill {
    tokens: Vec<u32>,
    fed: usize,
    origin: Origin,
}

/// What an opened sequence becomes when its last token lands.
#[derive(Debug)]
enum Origin {
    /// A new request: sample its first output token from the final
    /// logits with a sampler built from this seed.
    Fresh { sampler_seed: u64 },
    /// A preempted sequence: sample nothing, skip the LM head, and
    /// restore the sampler and last token frozen at preemption.
    Resumed(Resident),
}

/// The functional substrate: real W8A8 inference on a multi-slot
/// [`DistributedGpt2`] ([`DistributedGpt2::with_slots`] or, to
/// oversubscribe the page pool, [`DistributedGpt2::with_paged_slots`]),
/// over heap-built weights or a mapped checkpoint alike. Prefill runs the
/// prompt into the request's slot and samples its first output token; each
/// decode iteration feeds every resident's last token through the batched
/// pipeline (one weight stream per layer per step, shared by all) and
/// samples the next. Reported times are measured host wall-clock.
#[derive(Debug)]
pub struct FunctionalBackend {
    engine: DistributedGpt2,
    spec: SamplerSpec,
    residents: Vec<Option<Resident>>,
    /// Opened sequences still being fed, by slot (disjoint from
    /// `residents`).
    pending: Vec<Option<PendingPrefill>>,
    /// The [`BackendError::WorkerPoisoned`] every operation fails with
    /// once a worker panic was caught mid-operation: the engine's KV/slot
    /// state may be partially mutated, and must not serve corrupt context.
    poisoned: Option<BackendError>,
}

/// Renders a caught panic payload for [`BackendError::WorkerPoisoned`].
fn panic_detail(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

impl FunctionalBackend {
    /// Wraps a slot-capable engine. All slots must be free (build the
    /// engine with [`DistributedGpt2::with_slots`] or
    /// [`DistributedGpt2::with_paged_slots`], not [`DistributedGpt2::new`],
    /// which pre-acquires slot 0).
    ///
    /// # Panics
    ///
    /// Panics if any slot is already resident.
    pub fn new(engine: DistributedGpt2, spec: SamplerSpec) -> Self {
        assert_eq!(
            engine.free_slots(),
            engine.slots(),
            "functional backend needs an engine with all slots free \
             (DistributedGpt2::with_slots / with_paged_slots)"
        );
        let slots = engine.slots();
        FunctionalBackend {
            engine,
            spec,
            residents: (0..slots).map(|_| None).collect(),
            pending: (0..slots).map(|_| None).collect(),
            poisoned: None,
        }
    }

    /// The underlying functional engine.
    pub fn engine(&self) -> &DistributedGpt2 {
        &self.engine
    }

    /// Whether a caught worker panic has poisoned this backend.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.is_some()
    }

    /// Fails fast once the backend is poisoned.
    fn check_poisoned(&self) -> Result<(), BackendError> {
        self.poisoned.clone().map_or(Ok(()), Err)
    }

    /// Marks the backend poisoned — a caught panic, or a broken engine
    /// contract after which its state can no longer be trusted — and
    /// returns the matching error.
    fn poison(&mut self, detail: String) -> BackendError {
        let error = BackendError::WorkerPoisoned { detail };
        self.poisoned = Some(error.clone());
        error
    }

    /// Surfaces page pressure as a typed error *before* the engine runs.
    /// The engine itself treats pool exhaustion as a caller bug (it
    /// panics, which would poison this backend), so every KV-growing
    /// operation pre-checks here and returns with no state changed.
    ///
    /// The budget is [`DistributedGpt2::available_pages`]: free pages
    /// plus cold prefix-cache pages, which the engine reclaims (LRU)
    /// inside the grant — a full-but-idle cache never bounces work.
    fn check_pages(&self, needed: usize) -> Result<(), BackendError> {
        let free = self.engine.available_pages();
        if needed > free {
            return Err(BackendError::PagesExhausted { needed, free });
        }
        Ok(())
    }

    /// The one way into a slot: validates the tokens, claims a slot, maps
    /// any cached prefix under it (free — no pages, no compute; a no-op
    /// while the cache is off) and stages the rest for [`Self::feed`].
    /// Mapped tokens count as already fed, so cache-aware admission falls
    /// out: a strong hit turns a long prompt into a short one. No page is
    /// claimed yet — each feed grants only what its chunk needs, which is
    /// what lets long prompts trickle in under page pressure.
    ///
    /// Errors, in precedence order, each leaving nothing claimed:
    /// poisoned → missing tokens → length mismatch → empty tokens (also
    /// [`BackendError::MissingPrompt`]: there is no last token to take
    /// logits from) → whatever `origin` refuses → no free slot.
    fn open(
        &mut self,
        declared_len: usize,
        tokens: Option<&[u32]>,
        origin: impl FnOnce() -> Result<Origin, BackendError>,
    ) -> Result<usize, BackendError> {
        self.check_poisoned()?;
        let tokens = tokens.ok_or(BackendError::MissingPrompt)?;
        if tokens.len() != declared_len {
            return Err(BackendError::PromptLengthMismatch {
                declared: declared_len,
                got: tokens.len(),
            });
        }
        if tokens.is_empty() {
            return Err(BackendError::MissingPrompt);
        }
        let origin = origin()?;
        let slot = self
            .engine
            .acquire_slot()
            .ok_or(BackendError::SlotsExhausted {
                capacity: self.engine.slots(),
            })?;
        let fed = self.engine.prefix_attach(slot, tokens);
        self.pending[slot] = Some(PendingPrefill {
            tokens: tokens.to_vec(),
            fed,
            origin,
        });
        Ok(slot)
    }

    /// Feeds the next `max_tokens` (at most) staged tokens of an opened
    /// slot — the only caller of the engine's prefill. Non-final chunks
    /// and resumes skip the LM head; the chunk that lands a fresh
    /// request's last token samples its first output token, the one that
    /// lands a resumed sequence's restores its frozen sampler, and either
    /// way the slot becomes a decodable resident.
    ///
    /// On [`BackendError::PagesExhausted`] nothing was fed. A panic below
    /// (worker thread or host path) leaves the slot's KV partially
    /// written; the backend poisons itself rather than serve from a cache
    /// it cannot trust.
    fn feed(&mut self, slot: usize, max_tokens: usize) -> Result<PrefillProgress, BackendError> {
        self.check_poisoned()?;
        assert!(
            max_tokens > 0,
            "a prefill chunk must feed at least one token"
        );
        let Some(p) = self.pending.get(slot).and_then(Option::as_ref) else {
            return Err(BackendError::SlotNotResident { slot });
        };
        let left = p.tokens.len() - p.fed;
        let take = left.min(max_tokens);
        let is_last = take == left;
        let want_logits = is_last && matches!(p.origin, Origin::Fresh { .. });
        self.check_pages(self.engine.pages_needed(slot, take))?;
        // lint: allow(determinism) — measured elapsed_ms only; tokens unaffected
        let start = Instant::now();
        let (engine, chunk) = (&mut self.engine, &p.tokens[p.fed..p.fed + take]);
        let logits = match catch_unwind(AssertUnwindSafe(|| {
            engine.prefill_slot_chunk(slot, chunk, want_logits)
        })) {
            Ok(logits) => logits,
            Err(payload) => return Err(self.poison(panic_detail(payload))),
        };
        let mut first_token = None;
        if is_last {
            // Checked pending above; a vacant entry here is unreachable.
            let Some(done) = self.pending[slot].take() else {
                return Err(BackendError::SlotNotResident { slot });
            };
            self.residents[slot] = Some(match (done.origin, logits) {
                (Origin::Resumed(resident), _) => resident,
                (Origin::Fresh { sampler_seed }, Some(logits)) => {
                    let mut sampler = self.spec.build(sampler_seed);
                    let first = sampler.sample(&logits);
                    first_token = Some(first);
                    Resident {
                        sampler,
                        last_token: first,
                    }
                }
                // The engine contract says the final chunk carries logits;
                // a violation means its state cannot be trusted — poison.
                (Origin::Fresh { .. }, None) => {
                    return Err(self.poison("final prefill chunk produced no logits".into()))
                }
            });
        } else if let Some(p) = self.pending[slot].as_mut() {
            p.fed += take;
        }
        Ok(PrefillProgress {
            elapsed_ms: start.elapsed().as_secs_f64() * 1e3,
            remaining: left - take,
            first_token,
        })
    }

    /// One-shot entry: open plus one unbounded feed, billed from entry to
    /// return. When the pool cannot back the whole suffix nothing was fed
    /// and opening allocated nothing, so the unwind is clean: release the
    /// slot and report the typed pressure with no slot held.
    fn open_and_feed_all(
        &mut self,
        declared_len: usize,
        tokens: Option<&[u32]>,
        origin: impl FnOnce() -> Result<Origin, BackendError>,
    ) -> Result<PrefillOutcome, BackendError> {
        // lint: allow(determinism) — measured elapsed_ms only; tokens unaffected
        let start = Instant::now();
        let slot = self.open(declared_len, tokens, origin)?;
        match self.feed(slot, usize::MAX) {
            Ok(progress) => Ok(PrefillOutcome {
                slot,
                elapsed_ms: start.elapsed().as_secs_f64() * 1e3,
                first_token: progress.first_token,
            }),
            Err(e) => {
                if !self.is_poisoned() {
                    self.pending[slot] = None;
                    self.engine.release_slot(slot);
                }
                Err(e)
            }
        }
    }
}

impl InferenceBackend for FunctionalBackend {
    fn name(&self) -> &'static str {
        "functional"
    }

    fn max_seq(&self) -> usize {
        self.engine.slot_capacity()
    }

    fn capacity(&self) -> usize {
        self.engine.slots()
    }

    fn prefill(
        &mut self,
        prompt_len: usize,
        prompt: Option<&[u32]>,
        sampler_seed: u64,
    ) -> Result<PrefillOutcome, BackendError> {
        self.open_and_feed_all(prompt_len, prompt, || Ok(Origin::Fresh { sampler_seed }))
    }

    fn decode_batch(&mut self, slots: &[usize]) -> Result<DecodeOutcome, BackendError> {
        self.check_poisoned()?;
        let mut entries = Vec::with_capacity(slots.len());
        for &s in slots {
            match self.residents.get(s).and_then(Option::as_ref) {
                Some(r) => entries.push((s, r.last_token)),
                None => return Err(BackendError::SlotNotResident { slot: s }),
            }
        }
        self.check_pages(slots.iter().map(|&s| self.engine.pages_needed(s, 1)).sum())?;
        // lint: allow(determinism) — measured elapsed_ms only; tokens unaffected
        let start = Instant::now();
        let logits =
            match catch_unwind(AssertUnwindSafe(|| self.engine.decode_step_batch(&entries))) {
                Ok(logits) => logits,
                Err(payload) => return Err(self.poison(panic_detail(payload))),
            };
        let mut tokens = Vec::with_capacity(slots.len());
        for (&s, row) in slots.iter().zip(&logits) {
            // Validated above; a vacant resident here is unreachable.
            let Some(resident) = self.residents[s].as_mut() else {
                return Err(BackendError::SlotNotResident { slot: s });
            };
            let next = resident.sampler.sample(row);
            resident.last_token = next;
            tokens.push(next);
        }
        // Sampling is part of the serving pipeline's critical path, so it
        // bills to the clock here exactly as prefill bills its first-token
        // sample.
        Ok(DecodeOutcome {
            elapsed_ms: start.elapsed().as_secs_f64() * 1e3,
            tokens: Some(tokens),
        })
    }

    fn release(&mut self, slot: usize) -> Result<(), BackendError> {
        self.check_poisoned()?;
        let resident = self
            .residents
            .get_mut(slot)
            .and_then(Option::take)
            .is_some();
        let pending = self.pending.get_mut(slot).and_then(Option::take).is_some();
        if !resident && !pending {
            return Err(BackendError::SlotNotResident { slot });
        }
        self.engine.release_slot(slot);
        Ok(())
    }

    fn supports_chunked_prefill(&self) -> bool {
        true
    }

    fn prefill_open(
        &mut self,
        prompt_len: usize,
        prompt: Option<&[u32]>,
        sampler_seed: u64,
    ) -> Result<usize, BackendError> {
        self.open(prompt_len, prompt, || Ok(Origin::Fresh { sampler_seed }))
    }

    fn prefill_step(
        &mut self,
        slot: usize,
        max_tokens: usize,
    ) -> Result<PrefillProgress, BackendError> {
        self.feed(slot, max_tokens)
    }

    fn supports_preemption(&self) -> bool {
        true
    }

    fn reclaimable_pages(&self, slot: usize) -> usize {
        if self.residents.get(slot).and_then(Option::as_ref).is_none() {
            return 0;
        }
        self.engine.unshared_pages(slot)
    }

    fn preempt(&mut self, slot: usize) -> Result<PreemptedSeq, BackendError> {
        self.check_poisoned()?;
        let resident = match self.residents.get_mut(slot).and_then(Option::take) {
            Some(r) => r,
            None => return Err(BackendError::SlotNotResident { slot }),
        };
        let context_len = self.engine.slot_pos(slot);
        // Releasing the slot returns its exclusive pages to the pool
        // (shared prefix pages survive their other holders) and, with
        // the cache on, indexes the context — so the resume's open often
        // maps most of its KV straight back instead of re-feeding it.
        self.engine.release_slot(slot);
        Ok(PreemptedSeq {
            context_len,
            last_token: Some(resident.last_token),
            sampler: Some(resident.sampler),
        })
    }

    fn resume(
        &mut self,
        seq: &PreemptedSeq,
        context: Option<&[u32]>,
    ) -> Result<PrefillOutcome, BackendError> {
        // A timing-only PreemptedSeq (from SimBackend) has no sampler or
        // last token to restore: refused before any slot is claimed.
        self.open_and_feed_all(seq.context_len, context, || {
            match (seq.sampler.clone(), seq.last_token) {
                (Some(sampler), Some(last_token)) => Ok(Origin::Resumed(Resident {
                    sampler,
                    last_token,
                })),
                _ => Err(BackendError::Unsupported {
                    op: "resuming a timing-only preempted sequence",
                }),
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ArchConfig;
    use crate::router::RingMode;
    use looplynx_model::config::ModelConfig;
    use looplynx_model::generate::Autoregressive;
    use looplynx_model::gpt2::Gpt2Model;

    #[test]
    fn sim_backend_charges_engine_time_exactly() {
        let engine = LoopLynx::new(
            ModelConfig::gpt2_medium(),
            ArchConfig::builder().nodes(2).build().unwrap(),
        )
        .unwrap();
        let mut backend = SimBackend::new(&engine);
        let p = backend.prefill(16, None, 0).unwrap();
        assert_eq!(
            p.elapsed_ms,
            engine.simulate_prefill(16).to_millis(engine.arch())
        );
        assert_eq!(p.first_token, None);
        let d = backend.decode_batch(&[p.slot]).unwrap();
        assert_eq!(
            d.elapsed_ms,
            engine.simulate_decode_batch(&[17]).to_millis(engine.arch())
        );
        // context advanced: next pass is one longer
        let d2 = backend.decode_batch(&[p.slot]).unwrap();
        assert_eq!(
            d2.elapsed_ms,
            engine.simulate_decode_batch(&[18]).to_millis(engine.arch())
        );
        backend.release(p.slot).unwrap();
        // slot is recyclable
        let p2 = backend.prefill(8, None, 1).unwrap();
        assert_eq!(p2.slot, p.slot);
    }

    #[test]
    fn sim_backend_over_admission_is_a_typed_error() {
        let engine = LoopLynx::new(
            ModelConfig::gpt2_medium(),
            ArchConfig::builder().nodes(1).build().unwrap(),
        )
        .unwrap();
        let mut backend = SimBackend::new(&engine);
        let capacity = backend.capacity();
        for _ in 0..capacity {
            backend.prefill(4, None, 0).unwrap();
        }
        assert_eq!(
            backend.prefill(4, None, 0).unwrap_err(),
            BackendError::SlotsExhausted { capacity }
        );
        // Exhaustion clears on release — the request was held, not lost.
        backend.release(0).unwrap();
        assert_eq!(backend.prefill(4, None, 0).unwrap().slot, 0);
    }

    #[test]
    fn sim_backend_free_slot_operations_are_typed_errors() {
        let engine = LoopLynx::new(
            ModelConfig::gpt2_medium(),
            ArchConfig::builder().nodes(1).build().unwrap(),
        )
        .unwrap();
        let mut backend = SimBackend::new(&engine);
        let p = backend.prefill(4, None, 0).unwrap();
        assert_eq!(
            backend.decode_batch(&[p.slot + 1]).unwrap_err(),
            BackendError::SlotNotResident { slot: p.slot + 1 }
        );
        backend.release(p.slot).unwrap();
        assert_eq!(
            backend.release(p.slot).unwrap_err(),
            BackendError::SlotNotResident { slot: p.slot }
        );
    }

    #[test]
    fn functional_backend_matches_lone_generation() {
        let cfg = ModelConfig::tiny();
        let model = Gpt2Model::synthetic(&cfg, 1234);
        let engine = DistributedGpt2::with_slots(&model, 2, RingMode::Exact, 3, 32).unwrap();
        let mut backend = FunctionalBackend::new(engine, SamplerSpec::Greedy);

        let prompts = [vec![1u32, 2, 3], vec![7u32, 6], vec![9u32, 9, 1, 4]];
        let outs: Vec<PrefillOutcome> = prompts
            .iter()
            .enumerate()
            .map(|(i, p)| backend.prefill(p.len(), Some(p), i as u64).unwrap())
            .collect();
        let mut produced: Vec<Vec<u32>> =
            outs.iter().map(|o| vec![o.first_token.unwrap()]).collect();
        let slots: Vec<usize> = outs.iter().map(|o| o.slot).collect();
        for _ in 0..4 {
            let d = backend.decode_batch(&slots).unwrap();
            for (seq, &tok) in produced.iter_mut().zip(d.tokens.as_ref().unwrap()) {
                seq.push(tok);
            }
        }
        for (i, prompt) in prompts.iter().enumerate() {
            let mut lone = model.clone();
            let expected = lone.generate(prompt, 5, &mut Sampler::greedy());
            assert_eq!(produced[i], expected, "sequence {i} diverged");
        }
    }

    #[test]
    fn functional_backend_requires_prompts() {
        let model = Gpt2Model::synthetic(&ModelConfig::tiny(), 9);
        let engine = DistributedGpt2::with_slots(&model, 1, RingMode::Exact, 1, 8).unwrap();
        let mut backend = FunctionalBackend::new(engine, SamplerSpec::Greedy);
        assert_eq!(
            backend.prefill(4, None, 0).unwrap_err(),
            BackendError::MissingPrompt
        );
        assert_eq!(
            backend.prefill(4, Some(&[1, 2]), 0).unwrap_err(),
            BackendError::PromptLengthMismatch {
                declared: 4,
                got: 2
            }
        );
    }

    #[test]
    fn functional_backend_rejects_an_empty_prompt_on_both_routes() {
        // Regression: an empty prompt used to reach the engine's
        // non-empty assert under `catch_unwind` (one-shot at once, chunked
        // at the first step), poisoning the backend and leaking the slot.
        let model = Gpt2Model::synthetic(&ModelConfig::tiny(), 9);
        let engine = DistributedGpt2::with_slots(&model, 1, RingMode::Exact, 2, 8).unwrap();
        let mut backend = FunctionalBackend::new(engine, SamplerSpec::Greedy);
        assert_eq!(
            backend.prefill(0, Some(&[]), 0).unwrap_err(),
            BackendError::MissingPrompt
        );
        assert_eq!(
            backend.prefill_open(0, Some(&[]), 0).unwrap_err(),
            BackendError::MissingPrompt
        );
        assert!(!backend.is_poisoned());
        assert_eq!(backend.engine().free_slots(), 2, "nothing was acquired");
        let p = backend.prefill(2, Some(&[1, 2]), 1).unwrap();
        backend.decode_batch(&[p.slot]).unwrap();
    }

    #[test]
    fn functional_backend_slot_exhaustion_recovers_on_release() {
        // Regression for the slot-exhaustion satellite: over-admitting past
        // slot capacity must surface a typed error, hold no slot, and
        // succeed again once a resident releases.
        let model = Gpt2Model::synthetic(&ModelConfig::tiny(), 11);
        let engine = DistributedGpt2::with_slots(&model, 1, RingMode::Exact, 2, 16).unwrap();
        let mut backend = FunctionalBackend::new(engine, SamplerSpec::Greedy);
        let a = backend.prefill(2, Some(&[1, 2]), 0).unwrap();
        let b = backend.prefill(2, Some(&[3, 4]), 1).unwrap();
        for _ in 0..3 {
            assert_eq!(
                backend.prefill(2, Some(&[5, 6]), 2).unwrap_err(),
                BackendError::SlotsExhausted { capacity: 2 }
            );
        }
        // Residents are unperturbed by the failed admissions.
        let d = backend.decode_batch(&[a.slot, b.slot]).unwrap();
        assert_eq!(d.tokens.as_ref().unwrap().len(), 2);
        backend.release(a.slot).unwrap();
        let c = backend.prefill(2, Some(&[5, 6]), 2).unwrap();
        assert_eq!(c.slot, a.slot, "lowest free slot recycled");
    }

    #[test]
    fn sim_backend_preempt_resume_recharges_prefill_time() {
        let engine = LoopLynx::new(
            ModelConfig::gpt2_medium(),
            ArchConfig::builder().nodes(1).build().unwrap(),
        )
        .unwrap();
        let mut backend = SimBackend::new(&engine);
        assert!(backend.supports_preemption());
        let p = backend.prefill(10, None, 0).unwrap();
        backend.decode_batch(&[p.slot]).unwrap();
        backend.decode_batch(&[p.slot]).unwrap();
        let seq = backend.preempt(p.slot).unwrap();
        assert_eq!(seq.context_len, 12);
        assert_eq!(
            backend.decode_batch(&[p.slot]).unwrap_err(),
            BackendError::SlotNotResident { slot: p.slot }
        );
        let r = backend.resume(&seq, None).unwrap();
        assert_eq!(r.first_token, None);
        assert_eq!(
            r.elapsed_ms,
            engine.simulate_prefill(12).to_millis(engine.arch()),
            "resume bills a full context re-prefill"
        );
        // The resumed context keeps growing from where it stopped.
        let d = backend.decode_batch(&[r.slot]).unwrap();
        assert_eq!(
            d.elapsed_ms,
            engine.simulate_decode_batch(&[13]).to_millis(engine.arch())
        );
    }

    #[test]
    fn functional_chunked_prefill_matches_single_pass() {
        // Any chunking of the prompt must give the same first token and
        // the same downstream stream as one-shot prefill.
        let cfg = ModelConfig::tiny();
        let model = Gpt2Model::synthetic(&cfg, 321);
        let prompt: Vec<u32> = vec![5, 1, 9, 2, 8, 3, 7];
        let stream_for = |chunk: Option<usize>| {
            let engine = DistributedGpt2::with_slots(&model, 1, RingMode::Exact, 2, 32).unwrap();
            let mut b = FunctionalBackend::new(
                engine,
                SamplerSpec::TopK {
                    k: 4,
                    temperature: 0.9,
                },
            );
            let (slot, first) = match chunk {
                None => {
                    let p = b.prefill(prompt.len(), Some(&prompt), 7).unwrap();
                    (p.slot, p.first_token.unwrap())
                }
                Some(step) => {
                    assert!(b.supports_chunked_prefill());
                    let slot = b.prefill_open(prompt.len(), Some(&prompt), 7).unwrap();
                    let first = loop {
                        let p = b.prefill_step(slot, step).unwrap();
                        if p.remaining == 0 {
                            break p.first_token;
                        }
                        assert_eq!(p.first_token, None, "non-final chunk sampled");
                    };
                    (slot, first.unwrap())
                }
            };
            let mut out = vec![first];
            for _ in 0..5 {
                out.push(b.decode_batch(&[slot]).unwrap().tokens.unwrap()[0]);
            }
            out
        };
        let single = stream_for(None);
        for step in [1, 2, 3, prompt.len()] {
            assert_eq!(stream_for(Some(step)), single, "chunk size {step} diverged");
        }
    }

    #[test]
    fn functional_preempt_resume_is_bit_exact() {
        let cfg = ModelConfig::tiny();
        let model = Gpt2Model::synthetic(&cfg, 99);
        let prompt = [3u32, 1, 4, 1, 5];
        let spec = SamplerSpec::TopK {
            k: 4,
            temperature: 0.8,
        };

        let engine = DistributedGpt2::with_slots(&model, 1, RingMode::Exact, 2, 32).unwrap();
        let mut clean = FunctionalBackend::new(engine, spec);
        let p = clean.prefill(prompt.len(), Some(&prompt), 11).unwrap();
        let mut want = vec![p.first_token.unwrap()];
        for _ in 0..6 {
            want.push(clean.decode_batch(&[p.slot]).unwrap().tokens.unwrap()[0]);
        }

        let engine = DistributedGpt2::with_slots(&model, 1, RingMode::Exact, 2, 32).unwrap();
        let mut b = FunctionalBackend::new(engine, spec);
        assert!(b.supports_preemption());
        let p = b.prefill(prompt.len(), Some(&prompt), 11).unwrap();
        let mut got = vec![p.first_token.unwrap()];
        for _ in 0..3 {
            got.push(b.decode_batch(&[p.slot]).unwrap().tokens.unwrap()[0]);
        }
        let seq = b.preempt(p.slot).unwrap();
        assert_eq!(seq.last_token, Some(*got.last().unwrap()));
        // Context = prompt + produced-but-last: the last token has been
        // sampled but never fed, so it is not in the KV history yet.
        let mut context = prompt.to_vec();
        context.extend_from_slice(&got[..got.len() - 1]);
        assert_eq!(context.len(), seq.context_len);
        let r = b.resume(&seq, Some(&context)).unwrap();
        assert_eq!(r.first_token, None, "resume must not sample");
        for _ in 0..3 {
            got.push(b.decode_batch(&[r.slot]).unwrap().tokens.unwrap()[0]);
        }
        assert_eq!(
            got, want,
            "preempted stream diverged from uninterrupted run"
        );
    }

    #[test]
    fn functional_page_exhaustion_is_typed_and_preemption_clears_it() {
        // Oversubscribed paged engine: 4 slots of up to 16 tokens, but a
        // pool of only 4 pages × 4 tokens = 16 tokens of real storage.
        let cfg = ModelConfig::tiny();
        let model = Gpt2Model::synthetic(&cfg, 55);
        let engine =
            DistributedGpt2::with_paged_slots(&model, 1, RingMode::Exact, 4, 16, 4, 4).unwrap();
        let mut b = FunctionalBackend::new(engine, SamplerSpec::Greedy);
        let p0 = b.prefill(4, Some(&[1, 2, 3, 4]), 0).unwrap();
        let p1 = b.prefill(4, Some(&[5, 6, 7, 8]), 1).unwrap();
        let p2 = b.prefill(4, Some(&[9, 1, 2, 3]), 2).unwrap();
        // 3 pages held; a 5-token admission needs 2 of the 1 remaining.
        assert_eq!(
            b.prefill(5, Some(&[1, 2, 3, 4, 5]), 3).unwrap_err(),
            BackendError::PagesExhausted { needed: 2, free: 1 }
        );
        assert!(!BackendError::PagesExhausted { needed: 2, free: 1 }.is_transient());
        // Decoding all three residents past their page boundaries needs 3
        // fresh pages at once with only 1 free: typed error, no mutation.
        let err = b.decode_batch(&[p0.slot, p1.slot, p2.slot]).unwrap_err();
        assert_eq!(err, BackendError::PagesExhausted { needed: 3, free: 1 });
        // Preempting one resident frees its page; the other two decode.
        let seq = b.preempt(p2.slot).unwrap();
        let d = b.decode_batch(&[p0.slot, p1.slot]).unwrap();
        assert_eq!(d.tokens.unwrap().len(), 2);
        // And the preempted sequence comes back once pressure clears.
        b.release(p0.slot).unwrap();
        b.release(p1.slot).unwrap();
        let r = b.resume(&seq, Some(&[9, 1, 2, 3])).unwrap();
        let d = b.decode_batch(&[r.slot]).unwrap();
        assert_eq!(d.tokens.unwrap().len(), 1);
    }

    #[test]
    fn functional_release_abandons_open_chunked_prefill() {
        let model = Gpt2Model::synthetic(&ModelConfig::tiny(), 42);
        let engine = DistributedGpt2::with_slots(&model, 1, RingMode::Exact, 1, 16).unwrap();
        let mut b = FunctionalBackend::new(engine, SamplerSpec::Greedy);
        let slot = b.prefill_open(4, Some(&[1, 2, 3, 4]), 0).unwrap();
        b.prefill_step(slot, 2).unwrap();
        // Mid-prefill slots are not decodable and not preemptible.
        assert_eq!(
            b.decode_batch(&[slot]).unwrap_err(),
            BackendError::SlotNotResident { slot }
        );
        assert_eq!(
            b.preempt(slot).unwrap_err(),
            BackendError::SlotNotResident { slot }
        );
        b.release(slot).unwrap();
        // The slot (and its pages) came back whole: a fresh admission
        // starts from scratch and matches a clean backend.
        let p = b.prefill(2, Some(&[7, 7]), 1).unwrap();
        assert_eq!(p.slot, slot);
    }

    #[test]
    fn functional_backend_catches_panics_and_poisons() {
        // A prompt longer than the slot capacity panics deep inside the
        // engine's KV arena; the backend must catch it, report a typed
        // error, and refuse further service instead of crashing the
        // process or serving from a half-written cache.
        let model = Gpt2Model::synthetic(&ModelConfig::tiny(), 13);
        let engine = DistributedGpt2::with_slots(&model, 1, RingMode::Exact, 1, 4).unwrap();
        let mut backend = FunctionalBackend::new(engine, SamplerSpec::Greedy);
        let long: Vec<u32> = (0..9).collect();
        let err = backend.prefill(long.len(), Some(&long), 0).unwrap_err();
        assert!(
            matches!(err, BackendError::WorkerPoisoned { .. }),
            "got {err:?}"
        );
        assert!(backend.is_poisoned());
        assert!(matches!(
            backend.prefill(2, Some(&[1, 2]), 1).unwrap_err(),
            BackendError::WorkerPoisoned { .. }
        ));
    }
}
