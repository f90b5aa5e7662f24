//! The fault-tolerant serving gateway: continuous batching with
//! deadlines, admission control, cancellation, and retry.
//!
//! [`Gateway`] is the crate's one serving loop, stepped one scheduler
//! iteration at a time and run to the end by [`serve_gateway_on`]:
//! continuous batching plus the machinery a production ingress needs (the
//! fair-weather preset in [`crate::batcher`] is this loop with all of it
//! switched off):
//!
//! * **Admission control** — a bounded queue ([`GatewayConfig::queue_depth`]);
//!   arrivals past the bound are shed according to [`ShedPolicy`]
//!   (reject outright, or absorb page pressure by preemption).
//! * **Deadlines** — TTFT and end-to-end budgets, enforced while queued,
//!   after prefill, and between decode iterations.
//! * **Cancellation** — per-request scripted cancel times
//!   ([`GatewayRequest::cancel_at`]), honored whether the request is
//!   still queued or already resident.
//! * **Retry with exponential backoff** — transient backend faults
//!   ([`BackendError::is_transient`]) are retried up to
//!   [`GatewayConfig::max_retries`] times; because a vetoed operation
//!   never touched backend state, retries are bit-exact.
//! * **Failure containment** — a poisoned backend (caught worker panic)
//!   fails its residents and sheds the rest of the workload instead of
//!   hanging or crashing.
//!
//! Every offered request terminates in **exactly one** [`Terminal`]
//! state — `Completed`, `Rejected`, `TimedOut`, `Cancelled` or `Failed` —
//! recorded in the [`GatewayReport`] alongside the usual
//! [`ServingReport`] latency percentiles for the completed set.

use std::collections::VecDeque;

use looplynx_core::backend::{BackendError, InferenceBackend, PreemptedSeq};
use looplynx_sim::stats::Summary;

use crate::metrics::{GeneratedOutput, ServingReport};
use crate::request::{Request, RequestMetrics};

/// What the gateway does with arrivals that exceed the bounded queue, and
/// with admitted requests under queue pressure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedPolicy {
    /// Arrivals past [`GatewayConfig::queue_depth`] are rejected; admitted
    /// requests are served exactly as asked.
    Reject,
    /// Arrivals past the queue bound are rejected, and KV **page
    /// pressure** is absorbed by preemption instead of failure: when a
    /// decode iteration or a prefill chunk hits
    /// [`BackendError::PagesExhausted`], the resident
    /// [`GatewayConfig::evict`] picks is evicted (its pages return to the
    /// pool; its progress is kept) and resumed — with its KV rebuilt
    /// bit-identically — once pressure clears. This is what lets a paged
    /// backend oversubscribe slots beyond worst-case arena bytes and
    /// still terminate every request. Requires
    /// [`InferenceBackend::supports_preemption`].
    Preempt,
}

/// One preemption candidate as [`EvictPolicyKind::pick`] sees it. The
/// gateway builds these from its residents; selection never touches the
/// backend.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvictCandidate {
    /// Admission ordinal: larger = became resident more recently
    /// (resumes count as fresh admissions, matching the pre-policy
    /// youngest-first behavior).
    pub admit_seq: u64,
    /// Serving-clock time this resident last produced a token (its
    /// admission time until then).
    pub last_used_ms: f64,
    /// KV pages preempting it would actually free —
    /// [`InferenceBackend::reclaimable_pages`], so pages shared with a
    /// prefix cache or other sequences don't count.
    pub reclaimable_pages: usize,
}

/// Which resident the gateway preempts under page pressure. Both
/// selections are deterministic pure functions of the candidate list —
/// the bit-exactness wall replays runs and expects identical choices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvictPolicyKind {
    /// The default oracle: evict the most recently admitted resident (it
    /// has the least sunk prefill work).
    YoungestFirst,
    /// Pressure-aware selection: evict whoever frees the most exclusive
    /// pages (that is what actually relieves page pressure — a resident
    /// riding a shared prefix returns almost nothing), breaking ties
    /// toward the least recently used, then the oldest admission.
    LruReclaim,
}

impl EvictPolicyKind {
    /// Index of the victim within `candidates` (0 when it is empty; the
    /// gateway never asks with no resident).
    #[must_use]
    pub fn pick(self, candidates: &[EvictCandidate]) -> usize {
        let ranked = candidates.iter().enumerate();
        let victim = match self {
            EvictPolicyKind::YoungestFirst => ranked.max_by_key(|(_, c)| c.admit_seq),
            EvictPolicyKind::LruReclaim => ranked.min_by(|(_, a), (_, b)| {
                b.reclaimable_pages
                    .cmp(&a.reclaimable_pages)
                    .then(a.last_used_ms.total_cmp(&b.last_used_ms))
                    .then(a.admit_seq.cmp(&b.admit_seq))
            }),
        };
        victim.map_or(0, |(idx, _)| idx)
    }
}

/// Gateway policy knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GatewayConfig {
    /// Decode-batch ceiling (the backend's capacity caps it further).
    pub max_batch: usize,
    /// Arrived-but-not-admitted requests held before load shedding.
    pub queue_depth: usize,
    /// Time-to-first-token budget from arrival (ms); `None` disables.
    pub ttft_deadline_ms: Option<f64>,
    /// End-to-end budget from arrival (ms); `None` disables. A request's
    /// own [`GatewayRequest::with_deadline`] overrides this.
    pub e2e_deadline_ms: Option<f64>,
    /// Retries per operation for transient faults (0 = fail fast).
    pub max_retries: u32,
    /// Base backoff billed to the serving clock before retry `n + 1`;
    /// doubles each attempt (`base × 2ⁿ`).
    pub retry_backoff_ms: f64,
    /// Load-shedding policy.
    pub shed: ShedPolicy,
    /// Chunked-prefill ceiling: `Some(c)` feeds each admission's prompt
    /// in chunks of at most `c` tokens, interleaving resident decode
    /// iterations between chunks so long prompts stop stalling the whole
    /// batch. `None` (the default) prefills in one pass. Ignored on
    /// backends without
    /// [`InferenceBackend::supports_chunked_prefill`]. Chunking cannot
    /// perturb tokens: any chunking is bit-identical to one-pass
    /// prefill.
    pub prefill_chunk: Option<usize>,
    /// Which resident the [`ShedPolicy::Preempt`] path evicts under
    /// page pressure. [`EvictPolicyKind::YoungestFirst`] is the
    /// default; [`EvictPolicyKind::LruReclaim`] frees the most
    /// unshared pages per eviction, which matters once a prefix cache
    /// makes residents share pages. Victim choice never changes any
    /// completed request's tokens — only which request waits.
    pub evict: EvictPolicyKind,
}

impl GatewayConfig {
    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics if `max_batch` or `queue_depth` is zero, a deadline or the
    /// backoff is non-finite or negative, or the prefill chunk is zero.
    pub fn validate(&self) {
        assert!(self.max_batch >= 1, "max_batch must be at least 1");
        assert!(self.queue_depth >= 1, "queue_depth must be at least 1");
        for d in [self.ttft_deadline_ms, self.e2e_deadline_ms]
            .into_iter()
            .flatten()
        {
            assert!(d.is_finite() && d > 0.0, "deadline {d} must be positive");
        }
        assert!(
            self.retry_backoff_ms.is_finite() && self.retry_backoff_ms >= 0.0,
            "retry backoff must be finite and non-negative"
        );
        if let Some(chunk) = self.prefill_chunk {
            assert!(chunk >= 1, "prefill chunk must be at least 1");
        }
    }
}

impl Default for GatewayConfig {
    /// Eight-deep decode batches over a 32-deep queue, no deadlines,
    /// three retries with 1 ms base backoff, reject-only shedding.
    fn default() -> Self {
        GatewayConfig {
            max_batch: 8,
            queue_depth: 32,
            ttft_deadline_ms: None,
            e2e_deadline_ms: None,
            max_retries: 3,
            retry_backoff_ms: 1.0,
            shed: ShedPolicy::Reject,
            prefill_chunk: None,
            evict: EvictPolicyKind::YoungestFirst,
        }
    }
}

/// A [`Request`] plus the gateway-level contract attached to it.
#[derive(Debug, Clone, PartialEq)]
pub struct GatewayRequest {
    /// The underlying generation request.
    pub req: Request,
    /// Per-request end-to-end deadline (ms after arrival), overriding
    /// [`GatewayConfig::e2e_deadline_ms`].
    pub deadline_ms: Option<f64>,
    /// Scripted cancellation time (absolute workload ms): the client
    /// gives up at this instant whether the request is queued or
    /// decoding. `None` never cancels.
    pub cancel_ms: Option<f64>,
}

impl GatewayRequest {
    /// Wraps a request with no deadline override and no cancellation.
    pub fn new(req: Request) -> Self {
        GatewayRequest {
            req,
            deadline_ms: None,
            cancel_ms: None,
        }
    }

    /// Sets a per-request end-to-end deadline, in ms after arrival.
    ///
    /// # Panics
    ///
    /// Panics if `ms` is not positive and finite.
    #[must_use]
    pub fn with_deadline(mut self, ms: f64) -> Self {
        assert!(ms.is_finite() && ms > 0.0, "deadline {ms} must be positive");
        self.deadline_ms = Some(ms);
        self
    }

    /// Scripts a cancellation at the given absolute workload time (ms).
    ///
    /// # Panics
    ///
    /// Panics if `at_ms` is not finite.
    #[must_use]
    pub fn cancel_at(mut self, at_ms: f64) -> Self {
        assert!(at_ms.is_finite(), "cancel time {at_ms} must be finite");
        self.cancel_ms = Some(at_ms);
        self
    }

    /// Wraps a plain workload one-to-one (no deadlines, no cancels).
    pub fn from_workload(requests: &[Request]) -> Vec<GatewayRequest> {
        requests.iter().cloned().map(GatewayRequest::new).collect()
    }
}

/// Why a request was shed before admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The bounded admission queue was full at arrival.
    QueueFull,
    /// Prompt + requested output exceed the backend's `max_seq`.
    TooLong,
    /// The backend can make no progress for this request (slot capacity
    /// collapsed, e.g. leaked to zero, or the backend was lost).
    Overload,
}

/// Which enforcement point a deadline expired at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimeoutPhase {
    /// Still queued: the TTFT or E2E budget expired before admission.
    Queued,
    /// Admitted, but the first token arrived after its budget.
    FirstToken,
    /// Decoding, but the end-to-end budget expired mid-generation.
    Decode,
}

/// The exactly-one terminal state every offered request reaches.
#[derive(Debug, Clone, PartialEq)]
pub enum Terminal {
    /// Produced every requested output token.
    Completed,
    /// Shed by admission control; no backend work was spent.
    Rejected(RejectReason),
    /// A deadline expired; any produced tokens are discarded.
    TimedOut(TimeoutPhase),
    /// The client's scripted cancellation fired first.
    Cancelled,
    /// The backend permanently failed the request (retries exhausted,
    /// poisoned worker, or a contract violation). Carries the rendered
    /// error.
    Failed(String),
}

/// One request's terminal record.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestTerminal {
    /// Request identifier.
    pub id: u64,
    /// Arrival timestamp (ms).
    pub arrival_ms: f64,
    /// When the terminal state was reached (ms).
    pub at_ms: f64,
    /// The state.
    pub terminal: Terminal,
}

/// Terminal-state census of one gateway run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TerminalCounts {
    /// Requests that completed.
    pub completed: usize,
    /// Requests shed by admission control.
    pub rejected: usize,
    /// Requests that blew a deadline.
    pub timed_out: usize,
    /// Requests cancelled by the client.
    pub cancelled: usize,
    /// Requests the backend permanently failed.
    pub failed: usize,
}

/// Outcome of one gateway run: the completed set's [`ServingReport`] plus
/// the terminal record of *every* offered request.
#[derive(Debug, Clone, PartialEq)]
pub struct GatewayReport {
    /// Latency/throughput report over the **completed** requests only.
    pub serving: ServingReport,
    /// One terminal record per offered request, in termination order.
    pub terminals: Vec<RequestTerminal>,
    /// Transient-fault retries the gateway performed.
    pub retries: u64,
    /// Residents evicted under page pressure (each was later resumed,
    /// failed by the livelock guard, cancelled, or timed out).
    pub preemptions: u64,
}

impl GatewayReport {
    /// Requests offered to the gateway.
    pub fn offered(&self) -> usize {
        self.terminals.len()
    }

    /// Census of terminal states.
    pub fn counts(&self) -> TerminalCounts {
        let mut c = TerminalCounts::default();
        for t in &self.terminals {
            match t.terminal {
                Terminal::Completed => c.completed += 1,
                Terminal::Rejected(_) => c.rejected += 1,
                Terminal::TimedOut(_) => c.timed_out += 1,
                Terminal::Cancelled => c.cancelled += 1,
                Terminal::Failed(_) => c.failed += 1,
            }
        }
        c
    }

    /// The terminal state of request `id`, if it was offered.
    pub fn terminal_of(&self, id: u64) -> Option<&Terminal> {
        self.terminals
            .iter()
            .find(|t| t.id == id)
            .map(|t| &t.terminal)
    }

    /// Output tokens actually delivered to completed requests.
    pub fn completed_tokens(&self) -> usize {
        self.serving.total_tokens()
    }

    /// Conservation invariant: every offered id reached exactly one
    /// terminal state (no lost, no double-counted requests), and every
    /// completed terminal has a matching latency record.
    pub fn is_conserved(&self, offered: &[GatewayRequest]) -> bool {
        let mut seen: Vec<u64> = self.terminals.iter().map(|t| t.id).collect();
        seen.sort_unstable();
        if seen.windows(2).any(|w| w[0] == w[1]) {
            return false;
        }
        let mut want: Vec<u64> = offered.iter().map(|r| r.req.id).collect();
        want.sort_unstable();
        seen == want && self.counts().completed == self.serving.completed()
    }
}

impl std::fmt::Display for GatewayReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let c = self.counts();
        writeln!(
            f,
            "{} offered: {} completed, {} rejected, {} timed out, \
             {} cancelled, {} failed ({} retries, {} preemptions, \
             goodput {:.1} tok/s)",
            self.offered(),
            c.completed,
            c.rejected,
            c.timed_out,
            c.cancelled,
            c.failed,
            self.retries,
            self.preemptions,
            self.serving.tokens_per_second(),
        )?;
        write!(f, "{}", self.serving)
    }
}

/// Preempt→resume round-trips a request may make with no token produced
/// in between before the gateway fails it: the page pool is simply too
/// small for its context, and bouncing forever would never terminate.
const BOUNCE_LIMIT: u32 = 8;

/// What an admitted request carries through every residency —
/// prefilling, active, preempted — so moving between them moves one value.
#[derive(Debug)]
struct ReqCore {
    gr: GatewayRequest,
    /// Serving-clock time of the first token (0 until it exists).
    first_token_ms: f64,
    tokens: Vec<u32>,
    produced: usize,
    /// Consecutive preempt→resume cycles with no progress (see
    /// [`BOUNCE_LIMIT`]).
    bounces: u32,
}

/// A request resident in the decode loop.
#[derive(Debug)]
struct ActiveReq {
    core: ReqCore,
    slot: usize,
    /// `produced` when this residency began — the progress marker the
    /// bounce guard compares against at the next preemption.
    produced_at_admit: usize,
    /// Ordinal of this residency (resumes get a fresh one) — what
    /// [`EvictPolicyKind::YoungestFirst`] ranks by.
    admit_seq: u64,
    /// Serving-clock time of the last produced token (admission time
    /// until then) — what [`EvictPolicyKind::LruReclaim`] breaks ties by.
    last_used_ms: f64,
}

/// A request whose prompt is being fed in chunks: the slot is claimed,
/// but no token exists yet.
#[derive(Debug)]
struct PrefillingReq {
    core: ReqCore,
    slot: usize,
    /// Consecutive rounds this prefill could not grow by even one chunk
    /// (page pressure with nothing to evict or send back); bounded.
    stalls: u32,
}

/// A request evicted under page pressure, waiting to be resumed. Holds
/// no backend resources at all — that is the point.
#[derive(Debug)]
struct PreemptedReq {
    core: ReqCore,
    seq: PreemptedSeq,
    /// Consecutive resumes refused for pages while nothing else was
    /// resident; bounded by [`BOUNCE_LIMIT`].
    stalls: u32,
}

/// What a [`Gateway`] holds between two steps: the serving clock and how
/// many requests sit in each stage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gauges {
    /// Serving-clock time (ms).
    pub clock_ms: f64,
    /// Requests that have not arrived yet.
    pub pending: usize,
    /// Arrived requests waiting in the bounded queue.
    pub queued: usize,
    /// Requests holding a slot while their prompt is fed in chunks.
    pub prefilling: usize,
    /// Requests resident in the decode batch.
    pub active: usize,
    /// Requests evicted under page pressure; they hold no slot.
    pub preempted: usize,
    /// Requests that reached their terminal state.
    pub terminated: usize,
}

/// The serving loop as a state machine: [`Gateway::new`] takes the
/// workload, [`Gateway::step`] runs one scheduler iteration, and between
/// steps an audit or telemetry reads [`Gateway::backend`];
/// [`serve_gateway_on`] steps it to the end and calls [`Gateway::finish`].
#[derive(Debug)]
pub struct Gateway<'a, B: InferenceBackend> {
    backend: &'a mut B,
    cfg: GatewayConfig,
    clock: f64,
    pending: VecDeque<GatewayRequest>,
    queued: VecDeque<GatewayRequest>,
    active: Vec<ActiveReq>,
    prefilling: Vec<PrefillingReq>,
    preempted: VecDeque<PreemptedReq>,
    terminals: Vec<RequestTerminal>,
    done: Vec<RequestMetrics>,
    outputs: Vec<GeneratedOutput>,
    occupancy: Summary,
    iterations: u64,
    retries: u64,
    preemptions: u64,
    /// Monotone residency counter feeding [`ActiveReq::admit_seq`].
    admits: u64,
}

impl<'a, B: InferenceBackend> Gateway<'a, B> {
    /// Takes a workload: requests are served in arrival order (a stable
    /// sort, so ties keep their order in `requests`).
    ///
    /// # Panics
    ///
    /// Panics only on caller bugs: an invalid `cfg` (see
    /// [`GatewayConfig::validate`]) or duplicate request ids.
    pub fn new(backend: &'a mut B, requests: &[GatewayRequest], cfg: &GatewayConfig) -> Self {
        cfg.validate();
        let mut sorted: Vec<GatewayRequest> = requests.to_vec();
        // total_cmp: a total order even on NaN arrival times, so the sort
        // itself can never panic.
        sorted.sort_by(|a, b| a.req.arrival_ms.total_cmp(&b.req.arrival_ms));
        let mut ids: Vec<u64> = sorted.iter().map(|g| g.req.id).collect();
        ids.sort_unstable();
        assert!(
            ids.windows(2).all(|w| w[0] != w[1]),
            "duplicate request ids break terminal accounting"
        );
        Gateway {
            backend,
            cfg: *cfg,
            clock: 0.0,
            pending: sorted.into(),
            queued: VecDeque::new(),
            active: Vec::new(),
            prefilling: Vec::new(),
            preempted: VecDeque::new(),
            terminals: Vec::new(),
            done: Vec::new(),
            outputs: Vec::new(),
            occupancy: Summary::new(),
            iterations: 0,
            retries: 0,
            preemptions: 0,
            admits: 0,
        }
    }

    /// Runs one scheduler iteration (arrivals, the cancel and deadline
    /// scan, resumes, admissions, one chunk per open prefill, one decode
    /// round) and returns the gauges after it, or `None` once every request
    /// has terminated. An idle gateway first jumps to the next arrival, the
    /// only future event while nothing is queued or resident.
    pub fn step(&mut self) -> Option<Gauges> {
        if self.nothing_resident() && self.queued.is_empty() && self.preempted.is_empty() {
            let front = self.pending.front()?;
            self.clock = self.clock.max(front.req.arrival_ms);
        }
        self.pump_arrivals();
        self.scan_waiting();
        self.resume_preempted();
        self.admit();
        self.prefill_round();
        if !self.active.is_empty() {
            self.decode_round();
        }
        Some(Gauges {
            clock_ms: self.clock,
            pending: self.pending.len(),
            queued: self.queued.len(),
            prefilling: self.prefilling.len(),
            active: self.active.len(),
            preempted: self.preempted.len(),
            terminated: self.terminals.len(),
        })
    }

    /// The backend, as the last step left it.
    pub fn backend(&self) -> &B {
        self.backend
    }

    /// The report of the run. Call it once [`Gateway::step`] has returned
    /// `None`: a request still in flight has no terminal record yet.
    pub fn finish(self) -> GatewayReport {
        GatewayReport {
            serving: ServingReport::with_outputs(
                self.done,
                self.outputs,
                self.iterations,
                self.occupancy,
            ),
            terminals: self.terminals,
            retries: self.retries,
            preemptions: self.preemptions,
        }
    }

    fn terminate(&mut self, gr: &GatewayRequest, terminal: Terminal) {
        self.terminals.push(RequestTerminal {
            id: gr.req.id,
            arrival_ms: gr.req.arrival_ms,
            at_ms: self.clock,
            terminal,
        });
    }

    /// Ends a request that holds `slot`: releases the slot, then records
    /// `terminal`. A failed release is not actionable here:
    /// `SlotNotResident` means the slot was already lost (leaked by an
    /// injected fault or a drain) and the capacity accounting absorbs it,
    /// while a poisoned backend is observed by the next backend operation,
    /// which calls `drain_lost_backend` (or is the drain itself: the slot
    /// is lost either way).
    fn end_resident(&mut self, slot: usize, gr: &GatewayRequest, terminal: Terminal) {
        let _ = self.backend.release(slot);
        self.terminate(gr, terminal);
    }

    /// Whether a deadline of `gr` has passed on the serving clock: the
    /// end-to-end budget (the request's own override beats the config)
    /// in every phase, and the TTFT budget while no first token exists —
    /// every phase but [`TimeoutPhase::Decode`].
    fn late(&self, gr: &GatewayRequest, phase: TimeoutPhase) -> bool {
        let past = |budget: Option<f64>| budget.is_some_and(|d| self.clock > gr.req.arrival_ms + d);
        past(gr.deadline_ms.or(self.cfg.e2e_deadline_ms))
            || (phase != TimeoutPhase::Decode && past(self.cfg.ttft_deadline_ms))
    }

    /// The one cancel/deadline scan: the terminal state `gr` has reached
    /// by now without the backend's doing, if any. Cancellation wins.
    fn cut(&self, gr: &GatewayRequest, phase: TimeoutPhase) -> Option<Terminal> {
        if gr.cancel_ms.is_some_and(|t| t <= self.clock) {
            Some(Terminal::Cancelled)
        } else if self.late(gr, phase) {
            Some(Terminal::TimedOut(phase))
        } else {
            None
        }
    }

    /// Whether nothing holds a slot — so no release will ever free a slot
    /// or a page for whoever is waiting.
    fn nothing_resident(&self) -> bool {
        self.active.is_empty() && self.prefilling.is_empty()
    }

    /// Whether another residency fits under the batch ceiling and the
    /// backend's (possibly shrunken) capacity.
    fn has_room(&self) -> bool {
        self.active.len() + self.prefilling.len() < self.cfg.max_batch.min(self.backend.capacity())
    }

    /// Moves every arrived request into the bounded queue, shedding
    /// arrivals past `queue_depth`.
    fn pump_arrivals(&mut self) {
        while self
            .pending
            .front()
            .is_some_and(|g| g.req.arrival_ms <= self.clock)
        {
            let Some(gr) = self.pending.pop_front() else {
                break;
            };
            if gr.req.peak_context() > self.backend.max_seq() {
                self.terminate(&gr, Terminal::Rejected(RejectReason::TooLong));
            } else if self.queued.len() >= self.cfg.queue_depth {
                self.terminate(&gr, Terminal::Rejected(RejectReason::QueueFull));
            } else {
                self.queued.push_back(gr);
            }
        }
    }

    /// Cancels and times out requests that hold no backend resources:
    /// those still queued, and those parked in the preempted set.
    fn scan_waiting(&mut self) {
        for gr in std::mem::take(&mut self.queued) {
            match self.cut(&gr, TimeoutPhase::Queued) {
                Some(terminal) => self.terminate(&gr, terminal),
                None => self.queued.push_back(gr),
            }
        }
        for p in std::mem::take(&mut self.preempted) {
            match self.cut(&p.core.gr, TimeoutPhase::Decode) {
                Some(terminal) => self.terminate(&p.core.gr, terminal),
                None => self.preempted.push_back(p),
            }
        }
    }

    /// Runs one operation with exponential-backoff retries on transient
    /// faults, billing the backoff to the serving clock.
    fn with_retries<T>(
        &mut self,
        mut op: impl FnMut(&mut B) -> Result<T, BackendError>,
    ) -> Result<T, BackendError> {
        let mut attempt = 0u32;
        loop {
            match op(self.backend) {
                Ok(v) => return Ok(v),
                Err(e) if e.is_transient() && attempt < self.cfg.max_retries => {
                    self.retries += 1;
                    self.clock += self.cfg.retry_backoff_ms * f64::powi(2.0, attempt as i32);
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// The one answer to a refused admission (`resuming` = a preempted
    /// request coming back, which *fails* where a new one is *shed*).
    /// Returns `true` when the caller must hold the request — put it back
    /// at the head of its queue and stop admitting this iteration — which
    /// is the answer to capacity pressure while a resident can still free
    /// what it needs. With nothing resident, pressure ends the request:
    /// the backend's capacity has collapsed under it (leaked slots,
    /// stranded sequences) or its context alone does not fit, and no
    /// release will ever change that. Anything else fails the request,
    /// and a poisoned backend drains the whole run, which empties every
    /// queue the caller loops over.
    fn triage(&mut self, gr: &GatewayRequest, e: &BackendError, resuming: bool) -> bool {
        let terminal = if !e.is_resource_pressure() {
            Terminal::Failed(if resuming {
                format!("resume failed: {e}")
            } else {
                e.to_string()
            })
        } else if !self.nothing_resident() {
            return true;
        } else if resuming {
            Terminal::Failed(format!("resume cannot fit: {e}"))
        } else {
            Terminal::Rejected(RejectReason::Overload)
        };
        self.terminate(gr, terminal);
        if matches!(e, BackendError::WorkerPoisoned { .. }) {
            self.drain_lost_backend();
        }
        false
    }

    /// A fresh admission's first token exists (one-shot prefill, or the
    /// last chunk of a chunked one): pass the first-token deadline gate,
    /// record it, and `land`.
    fn first_token(&mut self, mut core: ReqCore, slot: usize, token: Option<u32>) {
        if self.late(&core.gr, TimeoutPhase::FirstToken) {
            self.end_resident(slot, &core.gr, Terminal::TimedOut(TimeoutPhase::FirstToken));
            return;
        }
        core.first_token_ms = self.clock;
        core.tokens = token.into_iter().collect();
        core.produced = 1;
        self.land(core, slot);
    }

    /// The one admission tail: `core` becomes resident in `slot` — a fresh
    /// admission with its first token (which may complete it on the
    /// spot), or a resume with the progress it had.
    fn land(&mut self, core: ReqCore, slot: usize) {
        self.admits += 1;
        let entry = ActiveReq {
            slot,
            produced_at_admit: core.produced,
            admit_seq: self.admits,
            last_used_ms: self.clock,
            core,
        };
        if entry.core.produced >= entry.core.gr.req.decode_tokens {
            self.complete(entry);
        } else {
            self.active.push(entry);
        }
    }

    /// Admits queued requests (FIFO) up to the batch ceiling, prefilling
    /// each with retry. Requests may terminate here: failed prefills,
    /// first tokens past their deadline, single-token completions.
    fn admit(&mut self) {
        loop {
            // Prefills advance the clock; requests arriving meanwhile
            // join this same admission burst.
            self.pump_arrivals();
            if self.queued.is_empty() {
                return;
            }
            if !self.has_room() {
                if self.nothing_resident() {
                    // No room with nothing resident: capacity has
                    // collapsed (every slot leaked or lost) and no
                    // release will ever restore it. Shed the queue —
                    // the only terminating move.
                    for gr in std::mem::take(&mut self.queued) {
                        self.terminate(&gr, Terminal::Rejected(RejectReason::Overload));
                    }
                }
                return;
            }
            let Some(gr) = self.queued.pop_front() else {
                return;
            };

            // Chunked admission claims a slot and stages the prompt (no
            // time billed); the actual token feeding happens in
            // `prefill_round`, interleaved with resident decode
            // iterations. One-shot admission returns the first token.
            let (len, prompt, id) = (gr.req.prefill_tokens, gr.req.prompt.as_deref(), gr.req.id);
            let admitted =
                if self.cfg.prefill_chunk.is_some() && self.backend.supports_chunked_prefill() {
                    self.with_retries(|b| b.prefill_open(len, prompt, id).map(|slot| (slot, None)))
                } else {
                    self.with_retries(|b| b.prefill(len, prompt, id).map(|o| (o.slot, Some(o))))
                };
            // Computed after the retry loop so billed backoff is part of
            // the request's latency, not overwritten by it.
            let start = self.clock.max(gr.req.arrival_ms);
            let (slot, outcome) = match admitted {
                Ok(admitted) => admitted,
                Err(e) if self.triage(&gr, &e, false) => {
                    self.queued.push_front(gr);
                    return;
                }
                Err(_) => continue,
            };
            let core = ReqCore {
                gr,
                first_token_ms: 0.0,
                tokens: Vec::new(),
                produced: 0,
                bounces: 0,
            };
            match outcome {
                Some(outcome) => {
                    self.clock = start + outcome.elapsed_ms;
                    self.first_token(core, slot, outcome.first_token);
                }
                None => self.prefilling.push(PrefillingReq {
                    core,
                    slot,
                    stalls: 0,
                }),
            }
        }
    }

    /// Completes a resident request: releases its slot, records metrics,
    /// tokens and the terminal state.
    fn complete(&mut self, a: ActiveReq) {
        let ReqCore { gr, tokens, .. } = a.core;
        self.done.push(RequestMetrics {
            id: gr.req.id,
            arrival_ms: gr.req.arrival_ms,
            first_token_ms: a.core.first_token_ms,
            completion_ms: self.clock,
            prefill_tokens: gr.req.prefill_tokens,
            decode_tokens: a.core.produced,
        });
        if !tokens.is_empty() {
            self.outputs.push(GeneratedOutput {
                id: gr.req.id,
                tokens,
            });
        }
        self.end_resident(a.slot, &gr, Terminal::Completed);
    }

    /// Fails every resident and sheds everything still waiting: the
    /// backend is lost (poisoned worker) and can serve nothing more.
    fn drain_lost_backend(&mut self) {
        let lost = || Terminal::Failed("backend poisoned".into());
        for a in std::mem::take(&mut self.active) {
            self.end_resident(a.slot, &a.core.gr, lost());
        }
        for p in std::mem::take(&mut self.prefilling) {
            self.end_resident(p.slot, &p.core.gr, lost());
        }
        for p in std::mem::take(&mut self.preempted) {
            self.terminate(&p.core.gr, lost());
        }
        let waiting: Vec<GatewayRequest> = self
            .queued
            .drain(..)
            .chain(std::mem::take(&mut self.pending))
            .collect();
        for gr in waiting {
            self.terminate(&gr, Terminal::Rejected(RejectReason::Overload));
        }
    }

    /// Evicts the resident [`GatewayConfig::evict`] picks, returning its
    /// KV pages to the pool. Returns `true` if pressure was relieved:
    /// either the resident was parked for resume, or the bounce guard
    /// failed a livelocked request (its pages are back either way).
    fn try_preempt_one(&mut self) -> bool {
        if !self.backend.supports_preemption() || self.active.is_empty() {
            return false;
        }
        let candidates: Vec<EvictCandidate> = self
            .active
            .iter()
            .map(|a| EvictCandidate {
                admit_seq: a.admit_seq,
                last_used_ms: a.last_used_ms,
                reclaimable_pages: self.backend.reclaimable_pages(a.slot),
            })
            .collect();
        let victim = self.cfg.evict.pick(&candidates);
        let mut a = self.active.remove(victim);
        let seq = match self.backend.preempt(a.slot) {
            Ok(seq) => seq,
            Err(e) => {
                self.terminate(&a.core.gr, Terminal::Failed(format!("preempt failed: {e}")));
                if matches!(e, BackendError::WorkerPoisoned { .. }) {
                    self.drain_lost_backend();
                }
                return true;
            }
        };
        a.core.bounces = if a.core.produced == a.produced_at_admit {
            a.core.bounces + 1
        } else {
            0
        };
        if a.core.bounces > BOUNCE_LIMIT {
            // Preempt→resume round-trips keep landing back here with no
            // token produced in between: the pool cannot hold this
            // context even briefly, and resuming would bounce forever.
            let detail = format!(
                "preemption livelock: {} evictions with no progress",
                a.core.bounces
            );
            self.terminate(&a.core.gr, Terminal::Failed(detail));
            return true;
        }
        self.preemptions += 1;
        self.preempted.push_back(PreemptedReq {
            core: a.core,
            seq,
            stalls: 0,
        });
        true
    }

    /// Resumes preempted requests (FIFO, ahead of new admissions) while
    /// there is room. A resume re-prefills the evicted context, which
    /// rebuilds the KV cache bit-identically; the request then decodes
    /// on from its preserved sampler and last token as if never evicted.
    fn resume_preempted(&mut self) {
        while !self.preempted.is_empty() {
            if !self.has_room() {
                if self.nothing_resident() {
                    // No room with nothing resident: capacity has
                    // collapsed and nothing will ever free a slot for
                    // these to resume into.
                    for p in std::mem::take(&mut self.preempted) {
                        let collapsed = "capacity collapsed while preempted".into();
                        self.terminate(&p.core.gr, Terminal::Failed(collapsed));
                    }
                }
                return;
            }
            let Some(mut p) = self.preempted.pop_front() else {
                return;
            };
            // The resumable context is the prompt plus every produced
            // token except the last: the last produced token is the next
            // decode *input* and was never appended to the KV cache.
            let context: Option<Vec<u32>> = p.core.gr.req.prompt.as_ref().map(|prompt| {
                let mut c = prompt.clone();
                c.extend_from_slice(&p.core.tokens[..p.core.produced - 1]);
                c
            });
            let resumed = self.with_retries(|b| b.resume(&p.seq, context.as_deref()));
            match resumed {
                Ok(outcome) => {
                    self.clock += outcome.elapsed_ms;
                    self.land(p.core, outcome.slot);
                }
                // Refused for pages with nothing else resident: a context
                // that cannot fit, or an injected page fault that looks
                // the same. Hold it at the head and retry next step; past
                // the bound (as for prefill stalls), it does not fit.
                Err(e)
                    if e.is_resource_pressure()
                        && self.nothing_resident()
                        && p.stalls < BOUNCE_LIMIT =>
                {
                    p.stalls += 1;
                    self.preempted.push_front(p);
                    return;
                }
                Err(e) if self.triage(&p.core.gr, &e, true) => {
                    self.preempted.push_front(p);
                    return;
                }
                Err(_) => {}
            }
        }
    }

    /// Advances every open chunked prefill by one chunk. Runs once per
    /// scheduler iteration, so long prompts interleave with resident
    /// decode rounds instead of stalling the whole batch.
    fn prefill_round(&mut self) {
        let chunk = match self.cfg.prefill_chunk {
            Some(c) if !self.prefilling.is_empty() => c,
            _ => return,
        };
        let mut work: VecDeque<PrefillingReq> = std::mem::take(&mut self.prefilling).into();
        let mut keep: Vec<PrefillingReq> = Vec::with_capacity(work.len());
        while let Some(mut p) = work.pop_front() {
            if let Some(terminal) = self.cut(&p.core.gr, TimeoutPhase::FirstToken) {
                self.end_resident(p.slot, &p.core.gr, terminal);
                continue;
            }
            let stepped = self.with_retries(|b| b.prefill_step(p.slot, chunk));
            match stepped {
                Ok(progress) => {
                    self.clock += progress.elapsed_ms;
                    p.stalls = 0;
                    if progress.remaining > 0 {
                        keep.push(p);
                    } else {
                        self.first_token(p.core, p.slot, progress.first_token);
                    }
                }
                Err(e @ BackendError::PagesExhausted { .. }) => {
                    // Relieve the pressure and feed again at once, before
                    // the next step's resume can take the pages back: evict
                    // a resident or, as the oldest prefill with nothing
                    // decoding, send the youngest back to the queue head
                    // (it has no token yet, so that is exact). Else wait;
                    // alone past the bound, the prompt does not fit.
                    let preempted =
                        matches!(self.cfg.shed, ShedPolicy::Preempt) && self.try_preempt_one();
                    let oldest = !preempted && self.active.is_empty() && keep.is_empty();
                    if let Some(y) = oldest.then(|| work.pop_back()).flatten() {
                        let _ = self.backend.release(y.slot); // as in `end_resident`
                        self.queued.push_front(y.core.gr);
                        work.push_front(p);
                    } else if preempted {
                        work.push_front(p);
                    } else if oldest && p.stalls >= BOUNCE_LIMIT {
                        let starved = Terminal::Failed(format!("prefill starved: {e}"));
                        self.end_resident(p.slot, &p.core.gr, starved);
                    } else {
                        p.stalls += 1;
                        keep.push(p);
                    }
                }
                Err(e) => {
                    self.end_resident(p.slot, &p.core.gr, Terminal::Failed(e.to_string()));
                    if matches!(e, BackendError::WorkerPoisoned { .. }) {
                        keep.extend(work.drain(..));
                        self.prefilling = keep;
                        self.drain_lost_backend();
                        return;
                    }
                }
            }
        }
        self.prefilling = keep;
    }

    /// One decode iteration over every resident, with retry. On permanent
    /// failure every resident fails (their streams cannot be trusted to
    /// resume exactly).
    fn decode_round(&mut self) {
        let outcome = loop {
            let slots: Vec<usize> = self.active.iter().map(|a| a.slot).collect();
            match self.with_retries(|b| b.decode_batch(&slots)) {
                Ok(o) => break o,
                Err(BackendError::PagesExhausted { .. })
                    if matches!(self.cfg.shed, ShedPolicy::Preempt)
                        && self.backend.supports_preemption() =>
                {
                    // The page pool cannot grow every resident by one
                    // token. Evict a resident (its pages come back; its
                    // progress is kept) and retry the round with the
                    // smaller batch. A failed decode touched no state, so
                    // the retry is bit-exact.
                    if !self.try_preempt_one() || self.active.is_empty() {
                        return;
                    }
                }
                Err(e) => {
                    if matches!(e, BackendError::WorkerPoisoned { .. }) {
                        self.drain_lost_backend();
                    } else {
                        let detail =
                            format!("decode failed after {} retries: {e}", self.cfg.max_retries);
                        for a in std::mem::take(&mut self.active) {
                            self.end_resident(a.slot, &a.core.gr, Terminal::Failed(detail.clone()));
                        }
                    }
                    return;
                }
            }
        };
        self.clock += outcome.elapsed_ms;
        self.iterations += 1;
        self.occupancy.add(self.active.len() as f64);
        for (i, a) in self.active.iter_mut().enumerate() {
            a.core.produced += 1;
            a.last_used_ms = self.clock;
            if let Some(tokens) = &outcome.tokens {
                a.core.tokens.push(tokens[i]);
            }
        }

        // Completion first (a request that just finished beat its
        // deadline by definition of "finished at this clock"), then
        // cancellation, then deadline enforcement.
        for a in std::mem::take(&mut self.active) {
            if a.core.produced >= a.core.gr.req.decode_tokens {
                self.complete(a);
            } else if let Some(terminal) = self.cut(&a.core.gr, TimeoutPhase::Decode) {
                self.end_resident(a.slot, &a.core.gr, terminal);
            } else {
                self.active.push(a);
            }
        }
    }
}

/// Serves a workload through the fault-tolerant gateway on any backend.
///
/// Drives a continuous-batching schedule in which every hazard a real
/// ingress faces — queue overflow, deadline misses, client cancellations,
/// transient and permanent backend faults, collapsing slot capacity — is
/// absorbed into a per-request [`Terminal`] state instead of a panic or a
/// hang. The run always terminates: every offered request reaches exactly
/// one terminal state.
///
/// Requests that complete produce token streams bit-identical to a
/// fault-free run of the same request (vetoed operations never touch
/// backend state; per-request samplers make streams schedule-invariant).
///
/// # Panics
///
/// As [`Gateway::new`].
pub fn serve_gateway_on<B: InferenceBackend>(
    backend: &mut B,
    requests: &[GatewayRequest],
    cfg: &GatewayConfig,
) -> GatewayReport {
    let mut gateway = Gateway::new(backend, requests, cfg);
    while gateway.step().is_some() {}
    gateway.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{self, burst, check_trace, request, Point};
    use looplynx_core::backend::{FunctionalBackend, SamplerSpec, SimBackend};
    use looplynx_core::config::ArchConfig;
    use looplynx_core::engine::{DistributedGpt2, LoopLynx};
    use looplynx_core::fault::{FaultPlan, FaultyBackend};
    use looplynx_core::router::RingMode;
    use looplynx_model::config::ModelConfig;

    use crate::arrival::ArrivalProcess;

    // The tests that drive a functional backend through the serving
    // harness (`tests/harness/mod.rs`) are named traces: each checks what
    // every harness case checks, and asserts what its name says on top.

    fn engine(nodes: usize) -> LoopLynx {
        LoopLynx::new(
            ModelConfig::gpt2_medium(),
            ArchConfig::builder().nodes(nodes).build().unwrap(),
        )
        .unwrap()
    }

    fn functional_backend(slots: usize) -> FunctionalBackend {
        let model = looplynx_model::gpt2::Gpt2Model::synthetic(&ModelConfig::tiny(), 2024);
        let dist = DistributedGpt2::with_slots(&model, 2, RingMode::Exact, slots, 48).unwrap();
        FunctionalBackend::new(dist, SamplerSpec::Greedy)
    }

    #[test]
    fn fault_free_gateway_matches_continuous_scheduler() {
        // Per-request (first token, completion) times captured from the
        // hand-written continuous-batching loop this crate carried before
        // it became a preset of this gateway: the default config on a
        // fault-free backend must still reproduce that schedule exactly.
        const GOLDEN: [(f64, f64); 4] = [
            (51.24226315789473, 216.41886666666664),
            (89.74845614035087, 204.93357192982455),
            (140.9907192982456, 216.41886666666664),
            (179.49691228070174, 204.93357192982455),
        ];
        let e = engine(2);
        let reqs = ArrivalProcess::Trace(vec![0.0, 0.0, 4.0, 9.0]).workload(4, &[(16, 8), (12, 5)]);
        let gated = serve_gateway_on(
            &mut SimBackend::new(&e),
            &GatewayRequest::from_workload(&reqs),
            &GatewayConfig::default(),
        );
        assert!(gated.is_conserved(&GatewayRequest::from_workload(&reqs)));
        assert_eq!(gated.counts().completed, reqs.len());
        assert_eq!(gated.retries, 0);
        let mut got: Vec<_> = gated.serving.requests.clone();
        got.sort_by_key(|m| m.id);
        assert_eq!(got.len(), GOLDEN.len());
        let close = |a: f64, b: f64| (a - b).abs() < 1e-9;
        for (m, (first, completion)) in got.iter().zip(GOLDEN) {
            let on_time = close(m.first_token_ms, first) && close(m.completion_ms, completion);
            assert!(on_time, "request {}", m.id);
        }
    }

    #[test]
    fn queue_overflow_sheds_excess_arrivals() {
        let mut point = Point::calm(1, 4);
        point.cfg.queue_depth = 2;
        let report = check_trace(0, &point, &burst(6));
        let c = report.counts();
        assert_eq!((c.completed, c.rejected), (2, 4));
        for t in &report.terminals {
            if let Terminal::Rejected(r) = t.terminal {
                assert_eq!(r, RejectReason::QueueFull);
            }
        }
    }

    #[test]
    fn ttft_deadline_sheds_late_queued_requests() {
        // A batch of 1 serializes the queue, and the TTFT budget is one
        // and a half prefills. Request 1 makes it; request 2 expires while
        // queued; requests 3 and 4 are admitted in time but their first
        // tokens land late, each measured from its own arrival even with a
        // later arrival queued behind it.
        let ttft = 1.5 * harness::PREFILL_MS;
        let arrivals = [0.0, 1.0, 2.0, 2.0 + ttft - 1.0];
        let trace: Vec<_> = (1..=4)
            .zip(arrivals)
            .map(|(id, at)| request(id, at, vec![5, 3, id as u32], 5))
            .collect();
        let mut point = Point::calm(1, 4);
        point.cfg.max_batch = 1;
        point.cfg.ttft_deadline_ms = Some(ttft);
        let report = check_trace(0, &point, &trace);
        let terminals: Vec<_> = (1..=4).map(|id| report.terminal_of(id).cloned()).collect();
        let late = |phase| Some(Terminal::TimedOut(phase));
        let first_token = [
            late(TimeoutPhase::FirstToken),
            late(TimeoutPhase::FirstToken),
        ];
        let head = [Some(Terminal::Completed), late(TimeoutPhase::Queued)];
        assert_eq!(terminals, [head, first_token].concat());
    }

    #[test]
    fn e2e_deadline_expires_mid_decode() {
        // The prefill and two decode iterations fit the budget; eight
        // output tokens do not.
        let budget = harness::PREFILL_MS + 2.5 * harness::DECODE_MS;
        let trace = [request(1, 0.0, vec![3, 1, 4, 1, 5], 8).with_deadline(budget)];
        let report = check_trace(0, &Point::calm(1, 2), &trace);
        let mid_decode = Terminal::TimedOut(TimeoutPhase::Decode);
        assert_eq!(report.terminal_of(1), Some(&mid_decode));
        assert_eq!(report.serving.completed(), 0);
    }

    #[test]
    fn cancellation_honored_queued_and_resident() {
        // A batch of 1: request 2 waits behind request 1 and cancels while
        // queued; request 1 cancels mid-decode.
        let mut trace = burst(3);
        trace[0] = trace[0].clone().cancel_at(harness::PREFILL_MS + 1.5);
        trace[1] = trace[1].clone().cancel_at(1.0);
        let mut point = Point::calm(1, 2);
        point.cfg.max_batch = 1;
        let report = check_trace(0, &point, &trace);
        assert_eq!(report.terminal_of(1), Some(&Terminal::Cancelled));
        assert_eq!(report.terminal_of(2), Some(&Terminal::Cancelled));
        assert_eq!(report.terminal_of(3), Some(&Terminal::Completed));
    }

    #[test]
    fn oversized_request_is_rejected_not_a_panic() {
        let mut trace = burst(1);
        trace.push(request(2, 0.0, vec![7; harness::CAPACITY], 2));
        let report = check_trace(0, &Point::calm(2, 2), &trace);
        let too_long = Terminal::Rejected(RejectReason::TooLong);
        assert_eq!(report.terminal_of(2), Some(&too_long));
        assert_eq!(report.terminal_of(1), Some(&Terminal::Completed));
    }

    #[test]
    fn all_rejected_run_produces_well_formed_report() {
        let e = engine(1);
        let offered: Vec<GatewayRequest> = (0..3)
            .map(|id| GatewayRequest::new(Request::new(id, 0.0, 5000, 100)))
            .collect();
        let report = serve_gateway_on(
            &mut SimBackend::new(&e),
            &offered,
            &GatewayConfig::default(),
        );
        assert!(report.is_conserved(&offered));
        assert_eq!(report.counts().rejected, 3);
        assert_eq!(report.serving.tokens_per_second(), 0.0);
        assert_eq!(report.serving.makespan_ms(), 0.0);
        assert_eq!(report.serving.ttft_ms.p50(), None);
        // Display must not panic on the degenerate report.
        let _ = format!("{report}");
    }

    #[test]
    fn transient_faults_retry_to_bit_exact_completion() {
        let mut point = Point::calm(2, 4);
        point.cfg.max_retries = 64;
        point.plan.prefill_fail_rate = 0.3;
        point.plan.decode_fail_rate = 0.3;
        point.plan.seed = 7;
        let report = check_trace(0, &point, &burst(5));
        assert_eq!(report.counts().completed, 5, "{report}");
        assert!(report.retries > 0, "fault plan must have fired");
    }

    #[test]
    fn exhausted_retries_fail_requests_without_hanging() {
        let mut point = Point::calm(2, 4);
        point.cfg.max_retries = 2;
        point.plan.prefill_fail_rate = 1.0;
        point.plan.decode_fail_rate = 1.0;
        let report = check_trace(0, &point, &burst(3));
        assert_eq!(report.counts().failed, 3);
    }

    #[test]
    fn leaked_slots_collapse_into_overload_rejection() {
        // Every release leaks: capacity shrinks to zero and the tail of
        // the workload must be shed, not hung.
        let mut faulty = FaultyBackend::new(
            functional_backend(2),
            FaultPlan {
                seed: 9,
                prefill_fail_rate: 0.0,
                decode_fail_rate: 0.0,
                stall_rate: 0.0,
                stall_ms: 0.0,
                release_leak_rate: 1.0,
                page_fault_rate: 0.0,
            },
        );
        let offered = burst(6);
        let report = serve_gateway_on(&mut faulty, &offered, &GatewayConfig::default());
        assert!(report.is_conserved(&offered));
        let c = report.counts();
        assert_eq!(c.completed, 2, "two slots leak after two completions");
        assert_eq!(c.rejected, 4);
        assert!(report
            .terminals
            .iter()
            .all(|t| !matches!(t.terminal, Terminal::Rejected(RejectReason::QueueFull))));
    }

    #[test]
    fn poisoned_backend_fails_head_and_sheds_tail() {
        let mut backend = functional_backend(4);
        // Poison the backend up front: an over-long prompt panics inside
        // the engine and the backend catches it.
        let oversize = vec![1u32; 64];
        assert!(backend.prefill(64, Some(&oversize), 0).is_err());
        let offered = burst(3);
        let report = serve_gateway_on(&mut backend, &offered, &GatewayConfig::default());
        assert!(report.is_conserved(&offered));
        let c = report.counts();
        assert_eq!(c.failed, 1, "head request observes the poisoned worker");
        assert_eq!(c.rejected, 2, "tail is shed, not hung");
    }

    #[test]
    fn empty_prompt_fails_alone_on_both_admission_routes() {
        // Regression: an empty prompt used to reach the engine's
        // non-empty assert under `catch_unwind`, poisoning the backend —
        // one malformed request failed every request after it.
        for prefill_chunk in [None, Some(2)] {
            let mut backend = functional_backend(2);
            let mut offered = burst(3);
            offered[0].req.prompt = Some(Vec::new());
            offered[0].req.prefill_tokens = 0;
            let cfg = GatewayConfig {
                prefill_chunk,
                ..GatewayConfig::default()
            };
            let report = serve_gateway_on(&mut backend, &offered, &cfg);
            assert!(report.is_conserved(&offered));
            assert!(matches!(
                report.terminal_of(offered[0].req.id),
                Some(Terminal::Failed(_))
            ));
            assert_eq!(report.counts().completed, 2, "the others are served");
            assert!(!backend.is_poisoned());
            assert_eq!(backend.engine().free_slots(), 2, "no slot leaked");
        }
    }

    #[test]
    fn stalls_bill_the_serving_clock() {
        let mut point = Point::calm(2, 4);
        let smooth = check_trace(0, &point, &burst(2));
        point.plan.stall_rate = 1.0;
        point.plan.stall_ms = 500.0;
        let stalled = check_trace(0, &point, &burst(2));
        assert_eq!(stalled.counts().completed, 2);
        assert!(
            stalled.serving.e2e_ms.p50().unwrap() > smooth.serving.e2e_ms.p50().unwrap() + 400.0,
            "stalls must show up in latency"
        );
    }

    /// Eight requests over the tightest pool, served by preemption with
    /// `evict` choosing victims and `chunk` feeding prompts: all complete.
    fn oversubscribed(evict: EvictPolicyKind, chunk: Option<usize>) -> GatewayReport {
        let mut point = Point::calm(2, 8).oversubscribed();
        point.cfg.evict = evict;
        point.cfg.prefill_chunk = chunk;
        let report = check_trace(0, &point, &burst(8));
        assert_eq!(report.counts().completed, 8, "{report}");
        report
    }

    #[test]
    fn preempt_policy_oversubscribes_without_failures() {
        let report = oversubscribed(EvictPolicyKind::YoungestFirst, None);
        assert!(report.preemptions > 0, "the pool must preempt: {report}");
    }

    #[test]
    fn evict_policies_rank_candidates_as_documented() {
        let c = |admit_seq, last_used_ms, reclaimable_pages| EvictCandidate {
            admit_seq,
            last_used_ms,
            reclaimable_pages,
        };
        let candidates = [c(3, 40.0, 1), c(7, 40.0, 1), c(5, 10.0, 4)];
        // Youngest-first: largest admission ordinal, regardless of pages.
        assert_eq!(EvictPolicyKind::YoungestFirst.pick(&candidates), 1);
        // LruReclaim: the most exclusive pages wins outright.
        assert_eq!(EvictPolicyKind::LruReclaim.pick(&candidates), 2);
        // Page tie → least recently used; full tie → oldest admission.
        let tied = [c(9, 25.0, 2), c(4, 12.0, 2), c(2, 12.0, 2)];
        assert_eq!(EvictPolicyKind::LruReclaim.pick(&tied), 2);
    }

    #[test]
    fn lru_reclaim_policy_serves_oversubscribed_pool_bit_identically() {
        let report = oversubscribed(EvictPolicyKind::LruReclaim, None);
        assert!(report.preemptions > 0, "the pool must preempt: {report}");
    }

    #[test]
    fn chunked_prefill_is_bit_identical_to_one_pass() {
        for chunk in [1usize, 3, 16] {
            let mut point = Point::calm(2, 4);
            point.cfg.prefill_chunk = Some(chunk);
            let report = check_trace(0, &point, &burst(6));
            assert_eq!(report.counts().completed, 6, "chunk={chunk}: {report}");
        }
    }

    #[test]
    fn chunked_prefill_with_preemption_under_page_pressure() {
        oversubscribed(EvictPolicyKind::YoungestFirst, Some(3));
    }

    #[test]
    fn injected_page_faults_recover_under_preempt_policy() {
        let mut point = Point::calm(2, 4);
        point.cfg.shed = ShedPolicy::Preempt;
        point.plan.page_fault_rate = 0.25;
        point.plan.seed = 19;
        let report = check_trace(0, &point, &burst(6));
        assert!(report.preemptions > 0, "{report}");
        assert_eq!(report.counts().completed, 6, "{report}");
    }

    #[test]
    fn sim_backend_preempts_without_token_tracking() {
        // The timing backend supports preemption with no prompt/token
        // state; Preempt policy must work there too (resume recharges the
        // prefill clock). Pool pressure never arises on SimBackend, so we
        // just check the policy is inert and harmless.
        let e = engine(2);
        let reqs = ArrivalProcess::Trace(vec![0.0; 4]).workload(4, &[(16, 8)]);
        let offered = GatewayRequest::from_workload(&reqs);
        let cfg = GatewayConfig {
            shed: ShedPolicy::Preempt,
            ..GatewayConfig::default()
        };
        let report = serve_gateway_on(&mut SimBackend::new(&e), &offered, &cfg);
        assert!(report.is_conserved(&offered));
        assert_eq!(report.counts().completed, 4);
        assert_eq!(report.preemptions, 0);
    }

    #[test]
    #[should_panic(expected = "duplicate request ids")]
    fn duplicate_ids_rejected() {
        let e = engine(1);
        let offered = vec![
            GatewayRequest::new(Request::new(7, 0.0, 8, 4)),
            GatewayRequest::new(Request::new(7, 1.0, 8, 4)),
        ];
        let _ = serve_gateway_on(
            &mut SimBackend::new(&e),
            &offered,
            &GatewayConfig::default(),
        );
    }
}
