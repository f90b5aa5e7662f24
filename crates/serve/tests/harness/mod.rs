//! The serving-level harness: the gateway may shed, time out, cancel,
//! retry, preempt and resume requests, but every request it completes
//! carries exactly the tokens that request samples alone, and its books
//! balance after every step.
//!
//! A case draws a config point (ring size, page size and a pool down to
//! oversubscribed, prefix cache, prefill chunk, shed and evict policy,
//! batch ceiling, queue bound, deadlines, and a fault plan) and a trace
//! (fresh, shared-system-prompt and chat-turn prompts, arrivals, some
//! cancels and per-request deadlines), then steps a [`Gateway`] over
//! `FaultyBackend<Billed>` to the end. [`Billed`] bills a fixed cost per
//! call, so every deadline and cancel depends only on the case. The checks
//! are listed at [`run_trace`] and [`check_report`]; the completed streams
//! are checked against the oracle of the engine-level exactness harness
//! (`core/tests/harness`), included here by path. A failing trace is
//! shrunk one request at a time and printed. The entry files in this
//! directory and the crate's in-file tests are entry points into it.

// Each test binary includes this module and uses only part of it.
#![allow(dead_code)]

#[path = "../../../core/tests/harness/mod.rs"]
mod exact;

use std::collections::HashMap;

use looplynx_core::backend::{
    BackendError, DecodeOutcome, FunctionalBackend, InferenceBackend, PreemptedSeq, PrefillOutcome,
    PrefillProgress,
};
use looplynx_core::fault::{FaultPlan, FaultyBackend};
use looplynx_serve::{
    EvictPolicyKind, Gateway, GatewayConfig, GatewayReport, GatewayRequest, Request, ShedPolicy,
    Terminal, TimeoutPhase,
};

pub use exact::{lone_tokens, plain, system_prompt, tightest, Rng, CAPACITY};

/// Billed ms of one whole prefill or resume, one prefill chunk and one
/// decode iteration; the vocabulary traces draw from.
pub const PREFILL_MS: f64 = 4.0;
pub const CHUNK_MS: f64 = 1.5;
pub const DECODE_MS: f64 = 1.0;
pub const VOCAB: usize = 320;

type Billing<T> = Result<T, BackendError>;

/// A functional backend whose clock is the call count: every call is
/// forwarded, and each one that reports time reports a fixed cost.
#[derive(Debug)]
pub struct Billed(pub FunctionalBackend);

impl InferenceBackend for Billed {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn max_seq(&self) -> usize {
        self.0.max_seq()
    }

    fn capacity(&self) -> usize {
        self.0.capacity()
    }

    fn prefill(&mut self, len: usize, prompt: Option<&[u32]>, id: u64) -> Billing<PrefillOutcome> {
        let mut outcome = self.0.prefill(len, prompt, id)?;
        outcome.elapsed_ms = PREFILL_MS;
        Ok(outcome)
    }

    fn decode_batch(&mut self, slots: &[usize]) -> Billing<DecodeOutcome> {
        let mut outcome = self.0.decode_batch(slots)?;
        outcome.elapsed_ms = DECODE_MS;
        Ok(outcome)
    }

    fn release(&mut self, slot: usize) -> Billing<()> {
        self.0.release(slot)
    }

    fn supports_chunked_prefill(&self) -> bool {
        self.0.supports_chunked_prefill()
    }

    fn prefill_open(&mut self, len: usize, prompt: Option<&[u32]>, id: u64) -> Billing<usize> {
        self.0.prefill_open(len, prompt, id)
    }

    fn prefill_step(&mut self, slot: usize, max_tokens: usize) -> Billing<PrefillProgress> {
        let mut progress = self.0.prefill_step(slot, max_tokens)?;
        progress.elapsed_ms = CHUNK_MS;
        Ok(progress)
    }

    fn supports_preemption(&self) -> bool {
        self.0.supports_preemption()
    }

    fn reclaimable_pages(&self, slot: usize) -> usize {
        self.0.reclaimable_pages(slot)
    }

    fn preempt(&mut self, slot: usize) -> Billing<PreemptedSeq> {
        self.0.preempt(slot)
    }

    fn resume(&mut self, seq: &PreemptedSeq, context: Option<&[u32]>) -> Billing<PrefillOutcome> {
        let mut outcome = self.0.resume(seq, context)?;
        outcome.elapsed_ms = PREFILL_MS;
        Ok(outcome)
    }
}

/// One config point: the engine under the gateway, the gateway's policy
/// and the faults injected between them.
#[derive(Debug, Clone, Copy)]
pub struct Point {
    /// Ring size, page size, pool and prefix cache; the ring is exact.
    pub engine: exact::Point,
    pub slots: usize,
    pub cfg: GatewayConfig,
    pub plan: FaultPlan,
    /// Whether some requests of the trace carry a cancel time or their own
    /// deadline.
    pub cuts: bool,
}

impl Point {
    pub fn draw(rng: &mut Rng) -> Point {
        let page_tokens = rng.pick(&[2, 4, 8]);
        let one = CAPACITY.div_ceil(page_tokens);
        let slots = rng.pick(&[2, 4, 6]);
        let mut rate = |r: f64| rng.pick(&[0.0, 0.0, r]);
        let plan = FaultPlan {
            seed: 0,
            prefill_fail_rate: rate(0.2),
            decode_fail_rate: rate(0.2),
            stall_rate: rate(0.2),
            stall_ms: 25.0,
            release_leak_rate: rate(0.1),
            page_fault_rate: rate(0.2),
        };
        Point {
            engine: exact::Point {
                pages: rng.pick(&[tightest(page_tokens), 2 * one, slots * one]),
                cache: rng.pick(&[false, true]),
                ..plain(rng.pick(&[1, 2]), page_tokens)
            },
            slots,
            cfg: GatewayConfig {
                max_batch: rng.pick(&[1, 2, 8]),
                queue_depth: rng.pick(&[2, 64]),
                ttft_deadline_ms: rng.pick(&[None, None, Some(12.0), Some(40.0)]),
                e2e_deadline_ms: rng.pick(&[None, None, Some(25.0), Some(60.0)]),
                max_retries: 48,
                retry_backoff_ms: 0.5,
                shed: rng.pick(&[ShedPolicy::Reject, ShedPolicy::Preempt]),
                prefill_chunk: rng.pick(&[None, Some(1), Some(3), Some(8)]),
                evict: rng.pick(&[EvictPolicyKind::YoungestFirst, EvictPolicyKind::LruReclaim]),
            },
            plan: FaultPlan {
                seed: rng.below(1 << 30) as u64,
                ..plan
            },
            cuts: rng.pick(&[false, true]),
        }
    }

    /// A point with no faults, no deadlines, a deep queue and every other
    /// axis at its plainest: `slots` slots, each with a full sequence of
    /// pages, whole-prompt prefills, reject-only shedding.
    pub fn calm(nodes: usize, slots: usize) -> Point {
        let engine = exact::Point {
            pages: slots * CAPACITY.div_ceil(4),
            ..plain(nodes, 4)
        };
        Point {
            engine,
            slots,
            cfg: GatewayConfig {
                max_batch: slots,
                queue_depth: 64,
                ..GatewayConfig::default()
            },
            plan: FaultPlan::default(),
            cuts: false,
        }
    }

    /// The same point with the tightest pool the engine takes (one full
    /// sequence and two pages), served by preemption.
    pub fn oversubscribed(self) -> Point {
        let mut p = self;
        p.engine.pages = tightest(p.engine.page_tokens);
        p.cfg.shed = ShedPolicy::Preempt;
        p
    }

    /// The bare backend under test.
    pub fn backend(&self) -> Billed {
        let engine = self.engine.engine(self.slots, self.engine.pages);
        Billed(FunctionalBackend::new(engine, exact::SAMPLER))
    }

    /// Whether every slot can hold a full sequence at once.
    fn roomy(&self) -> bool {
        self.engine.pages >= self.slots * CAPACITY.div_ceil(self.engine.page_tokens)
    }

    /// Whether nothing at this point can end a request of `trace` early:
    /// no leaked release, deadline or cancel, no injected page fault (a
    /// resume vetoed with nothing else resident fails), retries that
    /// outlast vetoed prefills and decodes but for a 1e-9 chance, no
    /// overflowing queue or over-long request, and a pool short of one
    /// full sequence per slot only where the gateway preempts.
    pub fn completes_all(&self, trace: &[GatewayRequest]) -> bool {
        let veto = self.plan.prefill_fail_rate.max(self.plan.decode_fail_rate);
        let calm = |g: &GatewayRequest| {
            g.req.peak_context() <= CAPACITY && g.deadline_ms.is_none() && g.cancel_ms.is_none()
        };
        self.plan.release_leak_rate == 0.0
            && self.plan.page_fault_rate == 0.0
            && veto.powi(self.cfg.max_retries as i32 + 1) < 1e-9
            && self.cfg.ttft_deadline_ms.is_none()
            && self.cfg.e2e_deadline_ms.is_none()
            && self.cfg.queue_depth >= trace.len()
            && (self.roomy() || self.cfg.shed == ShedPolicy::Preempt)
            && trace.iter().all(calm)
    }
}

/// One request of a trace.
pub fn request(id: u64, arrival_ms: f64, prompt: Vec<u32>, target: usize) -> GatewayRequest {
    GatewayRequest::new(Request::new(id, arrival_ms, prompt.len(), target).with_prompt(prompt))
}

/// `n` requests at time 0 with fresh prompts of 6–9 tokens and 4–7
/// output tokens.
pub fn burst(n: u64) -> Vec<GatewayRequest> {
    let mut rng = Rng(0xb0257 + n);
    let draw = |id| request(id, 0.0, rng.tokens(6, 4, VOCAB), 4 + id as usize % 4);
    (1..=n).map(draw).collect()
}

/// Draws `n` requests: fresh prompts, prompts behind the shared system
/// prompt, and chat turns (an earlier request's prompt and lone output
/// plus a new user turn, arriving later, so the prefix cache can hit; it
/// may outgrow the slot, which the gateway rejects as too long); with
/// [`Point::cuts`] some carry a cancel time or their own deadline.
pub fn draw_trace(rng: &mut Rng, point: &Point, n: usize) -> Vec<GatewayRequest> {
    let mut trace: Vec<GatewayRequest> = Vec::with_capacity(n);
    let mut clock = 0.0;
    for id in 1..=n as u64 {
        clock += rng.pick(&[0.0, 0.0, 1.0, 4.0, 15.0]);
        let user = rng.tokens(2, 4, VOCAB);
        let prev = (!trace.is_empty()).then(|| &trace[rng.below(trace.len())].req);
        let prompt = match (rng.below(3), prev) {
            (0, _) => rng.tokens(3, 12, VOCAB),
            // A turn can follow only an answer that fits the slot.
            (1, Some(prev)) if prev.peak_context() <= CAPACITY => {
                let said = prev.prompt.clone().unwrap_or_default();
                let answer = lone_tokens(&point.engine, &said, prev.decode_tokens, prev.id);
                [said, answer, user].concat()
            }
            _ => [system_prompt(), user].concat(),
        };
        let gr = request(id, clock, prompt, 1 + rng.below(8));
        trace.push(match point.cuts.then(|| rng.below(4)) {
            Some(0) => gr.cancel_at(clock + rng.below(30) as f64),
            Some(1) => gr.with_deadline(5.0 + rng.below(40) as f64),
            _ => gr,
        });
    }
    trace
}

/// Steps the gateway over `trace` at `point` through
/// `FaultyBackend<Billed>` and returns the report. After every step: the
/// engine audits (every `audit_every` steps), every slot is free, feeding,
/// decoding or leaked, and every request sits in exactly one stage or has
/// one terminal; at the end no slot is held and [`check_report`] passes.
pub fn run_trace(point: &Point, trace: &[GatewayRequest], audit_every: u64) -> GatewayReport {
    let mut backend = FaultyBackend::new(point.backend(), point.plan);
    let mut gateway = Gateway::new(&mut backend, trace, &point.cfg);
    let mut steps = 0u64;
    while let Some(g) = gateway.step() {
        steps += 1;
        let b = gateway.backend();
        let e = b.inner().0.engine();
        if steps.is_multiple_of(audit_every) {
            e.audit();
        }
        let held = g.prefilling + g.active + b.leaked_slots().len();
        assert_eq!(
            e.free_slots() + held,
            e.slots(),
            "step {steps}: a slot is neither free, feeding, decoding nor leaked: {g:?}"
        );
        let live = g.pending + g.queued + g.prefilling + g.active + g.preempted;
        assert_eq!(
            live + g.terminated,
            trace.len(),
            "step {steps}: a request was lost or terminated twice: {g:?}"
        );
    }
    let report = gateway.finish();
    let (e, leaked) = (backend.inner().0.engine(), backend.leaked_slots().len());
    e.audit();
    assert_eq!(
        e.free_slots() + leaked,
        e.slots(),
        "a slot outlived the run"
    );
    check_report(point, trace, &report);
    report
}

/// The end checks: conservation, every timeout and cancel due, every
/// completed request's first token within its budgets, every request
/// completed where nothing can end one early, and every completed stream
/// equal to its lone run.
pub fn check_report(point: &Point, trace: &[GatewayRequest], report: &GatewayReport) {
    assert!(report.is_conserved(trace), "not conserved: {report}");
    if point.completes_all(trace) {
        let cut: Vec<_> = report
            .terminals
            .iter()
            .filter(|t| t.terminal != Terminal::Completed)
            .collect();
        assert!(cut.is_empty(), "nothing may end a request early: {cut:?}");
    }
    let by_id: HashMap<u64, &GatewayRequest> = trace.iter().map(|g| (g.req.id, g)).collect();
    let metrics: HashMap<u64, _> = report.serving.requests.iter().map(|m| (m.id, m)).collect();
    let outputs: HashMap<u64, &[u32]> = report
        .serving
        .outputs
        .iter()
        .map(|o| (o.id, o.tokens.as_slice()))
        .collect();
    for t in &report.terminals {
        let gr = by_id[&t.id];
        let e2e = gr.deadline_ms.or(point.cfg.e2e_deadline_ms);
        let past =
            |budget: Option<f64>, at: f64| budget.is_some_and(|d| at > gr.req.arrival_ms + d);
        match t.terminal {
            Terminal::Completed => {
                // The first token passed both budgets when it was recorded.
                let first = metrics[&t.id].first_token_ms;
                let late = past(e2e, first) || past(point.cfg.ttft_deadline_ms, first);
                assert!(!late, "request {}'s first token came late: {first}", t.id);
                let prompt = gr.req.prompt.as_deref().expect("prompted");
                let want = lone_tokens(&point.engine, prompt, gr.req.decode_tokens, t.id);
                let got = outputs.get(&t.id).copied();
                assert_eq!(got, Some(&want[..]), "request {} left its lone run", t.id);
            }
            Terminal::TimedOut(phase) => {
                let ttft = point
                    .cfg
                    .ttft_deadline_ms
                    .filter(|_| phase != TimeoutPhase::Decode);
                let due = past(e2e, t.at_ms) || past(ttft, t.at_ms);
                assert!(due, "request {} timed out early: {t:?}", t.id);
            }
            Terminal::Cancelled => {
                let due = gr.cancel_ms.is_some_and(|c| c <= t.at_ms);
                assert!(due, "request {} cancelled early: {t:?}", t.id);
            }
            Terminal::Rejected(_) | Terminal::Failed(_) => {}
        }
    }
}

/// Runs one trace with an audit after every step and returns its report;
/// a failing trace is shrunk one request at a time and printed.
pub fn check_trace(seed: u64, point: &Point, trace: &[GatewayRequest]) -> GatewayReport {
    exact::check(seed, point, trace, |t| run_trace(point, t, 1))
}

/// `cases` random points seeded from `base`, each with a random trace of
/// `n` requests; `pin` fixes the axes a test is about and leaves the others
/// as drawn.
pub fn random_points(base: u64, cases: u64, n: usize, pin: impl Fn(Point, &mut Rng) -> Point) {
    for case in 0..cases {
        let seed = base + case;
        let mut rng = Rng(seed);
        let point = pin(Point::draw(&mut rng), &mut rng);
        let trace = draw_trace(&mut rng, &point, n);
        check_trace(seed, &point, &trace);
    }
}
