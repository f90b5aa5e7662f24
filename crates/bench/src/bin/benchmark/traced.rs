//! Bench-side tracing: a transparent [`InferenceBackend`] wrapper that
//! records one span per backend call under a root `serve` span per
//! gateway call. In-program spans (`core::profile`) are a later change.

use std::time::Instant;

use looplynx_core::backend::{
    BackendError, DecodeOutcome, InferenceBackend, PreemptedSeq, PrefillOutcome, PrefillProgress,
};

use crate::json::Json;

/// One timed interval. Times are nanoseconds on the host wall clock
/// since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    /// The span that caused this one (`None` for a root).
    pub parent: Option<u32>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Request the work belongs to; `None` for roots and batched decodes.
    pub request: Option<u64>,
    /// Sequences the call advanced.
    pub batch: u32,
    /// Tokens submitted (prefill, resume), fed (chunk) or produced
    /// (decode).
    pub tokens: u32,
    /// Milliseconds the backend billed to the serving clock.
    pub billed_ms: f64,
    /// `"ok"` or the error kind.
    pub outcome: &'static str,
}

impl Span {
    pub fn wall_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    pub fn to_json(&self) -> Json {
        let opt = |v: Option<u64>| v.map_or(Json::Null, |v| Json::Int(v.into()));
        Json::obj([
            ("id", Json::Int(self.id.into())),
            ("parent", opt(self.parent.map(u64::from))),
            ("name", Json::str(self.name)),
            ("start_ns", Json::Int(self.start_ns.into())),
            ("end_ns", Json::Int(self.end_ns.into())),
            ("request", opt(self.request)),
            ("batch", Json::Int(self.batch.into())),
            ("tokens", Json::Int(self.tokens.into())),
            ("billed_ms", Json::Num(self.billed_ms)),
            ("outcome", Json::str(self.outcome)),
        ])
    }
}

/// Self time of `span`: its duration minus the part its direct children
/// cover. Children of one parent never overlap here (one thread, one
/// call at a time), so that part is their summed duration.
pub fn self_ns(span: &Span, all: &[Span]) -> u64 {
    let children: u64 = all
        .iter()
        .filter(|s| s.parent == Some(span.id))
        .map(Span::wall_ns)
        .sum();
    span.wall_ns().saturating_sub(children)
}

/// Page-pool and prefix-cache gauges sampled after every backend call.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Gauges {
    pub total_pages: usize,
    /// Pages a grant could draw on: free, or pinned by the cache alone.
    pub available_pages: usize,
    /// Cache-pinned pages a live sequence also maps.
    pub shared_pages: usize,
    /// Tokens the prefix cache has matched so far, over every lookup.
    pub reused_tokens: u64,
}

/// Peaks of the sampled gauges plus what only the wrapper can see.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Observed {
    /// Peak share of the pool that live sequences held. (Free pages alone
    /// say nothing: the prefix cache keeps every page it can.)
    pub pages_peak_frac: f64,
    pub shared_pages_peak: usize,
    /// Tokens the prefix cache mapped in calls that succeeded. The
    /// engine's own counter also holds every retry of a resume that is
    /// refused for pages, which looks its whole context up again.
    pub reused_tokens: u64,
    /// Wall ms between the ends of consecutive decode iterations that
    /// share a sequence: the token gap a resident actually felt,
    /// including any prefill chunk interleaved between them.
    pub decode_gaps_ms: Vec<f64>,
}

/// Wraps a backend, recording a span around every call. Token streams
/// and terminal states are exactly the inner backend's.
pub struct TracedBackend<B: InferenceBackend> {
    inner: B,
    epoch: Instant,
    spans: Vec<Span>,
    root: Option<u32>,
    /// Request id resident in each slot (the id is the `sampler_seed`
    /// the gateway passes at admission).
    slot_ids: Vec<Option<u64>>,
    /// Preempted requests awaiting resume, keyed by what a
    /// [`PreemptedSeq`] exposes. Two parked requests with equal context
    /// length and last token would swap labels — never tokens.
    parked: Vec<(usize, Option<u32>, u64)>,
    gauge: fn(&B) -> Gauges,
    /// `Gauges::reused_tokens` after the previous call.
    reused_before: u64,
    observed: Observed,
    last_decode: Option<(u64, Vec<usize>)>,
}

impl<B: InferenceBackend> TracedBackend<B> {
    pub fn new(inner: B, gauge: fn(&B) -> Gauges) -> Self {
        TracedBackend {
            reused_before: gauge(&inner).reused_tokens,
            inner,
            epoch: Instant::now(),
            spans: Vec::new(),
            root: None,
            slot_ids: Vec::new(),
            parked: Vec::new(),
            gauge,
            observed: Observed::default(),
            last_decode: None,
        }
    }

    pub fn inner(&self) -> &B {
        &self.inner
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn observed(&self) -> &Observed {
        &self.observed
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens the root span that parents every call until
    /// [`TracedBackend::end_root`].
    pub fn begin_root(&mut self, name: &'static str) {
        let id = self.spans.len() as u32;
        let now = self.now_ns();
        self.spans.push(Span {
            id,
            parent: None,
            name,
            start_ns: now,
            end_ns: now,
            request: None,
            batch: 0,
            tokens: 0,
            billed_ms: 0.0,
            outcome: "ok",
        });
        self.root = Some(id);
    }

    pub fn end_root(&mut self) {
        if let Some(id) = self.root.take() {
            self.spans[id as usize].end_ns = self.now_ns();
        }
    }

    fn set_slot(&mut self, slot: usize, id: Option<u64>) {
        if self.slot_ids.len() <= slot {
            self.slot_ids.resize(slot + 1, None);
        }
        self.slot_ids[slot] = id;
    }

    fn slot_id(&self, slot: usize) -> Option<u64> {
        self.slot_ids.get(slot).copied().flatten()
    }

    /// Times `op` on the inner backend and records its span. `describe`
    /// reads billed ms and the token count off a successful result.
    fn record<T>(
        &mut self,
        name: &'static str,
        request: Option<u64>,
        batch: usize,
        op: impl FnOnce(&mut B) -> Result<T, BackendError>,
        describe: impl FnOnce(&T) -> (f64, usize),
    ) -> Result<T, BackendError> {
        let start_ns = self.now_ns();
        let result = op(&mut self.inner);
        let end_ns = self.now_ns();
        let (billed_ms, tokens) = result.as_ref().map_or((0.0, 0), describe);
        self.spans.push(Span {
            id: self.spans.len() as u32,
            parent: self.root,
            name,
            start_ns,
            end_ns,
            request,
            batch: batch as u32,
            tokens: tokens as u32,
            billed_ms,
            outcome: result.as_ref().err().map_or("ok", error_kind),
        });
        let g = (self.gauge)(&self.inner);
        if result.is_ok() {
            self.observed.reused_tokens += g.reused_tokens - self.reused_before;
        }
        self.reused_before = g.reused_tokens;
        if g.total_pages > 0 {
            let used = (g.total_pages - g.available_pages) as f64 / g.total_pages as f64;
            self.observed.pages_peak_frac = self.observed.pages_peak_frac.max(used);
            self.observed.shared_pages_peak = self.observed.shared_pages_peak.max(g.shared_pages);
        }
        result
    }
}

/// Short stable label for an error, used as a span's outcome.
fn error_kind(e: &BackendError) -> &'static str {
    match e {
        BackendError::SlotsExhausted { .. } => "slots_exhausted",
        BackendError::PagesExhausted { .. } => "pages_exhausted",
        BackendError::InjectedFault { .. } => "injected_fault",
        BackendError::MissingPrompt => "missing_prompt",
        BackendError::PromptLengthMismatch { .. } => "prompt_length_mismatch",
        BackendError::WorkerPoisoned { .. } => "worker_poisoned",
        BackendError::SlotNotResident { .. } => "slot_not_resident",
        BackendError::Unsupported { .. } => "unsupported",
    }
}

impl<B: InferenceBackend> InferenceBackend for TracedBackend<B> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn max_seq(&self) -> usize {
        self.inner.max_seq()
    }

    fn capacity(&self) -> usize {
        self.inner.capacity()
    }

    fn prefill(
        &mut self,
        prompt_len: usize,
        prompt: Option<&[u32]>,
        sampler_seed: u64,
    ) -> Result<PrefillOutcome, BackendError> {
        let out = self.record(
            "prefill",
            Some(sampler_seed),
            1,
            |b| b.prefill(prompt_len, prompt, sampler_seed),
            |o| (o.elapsed_ms, prompt_len),
        )?;
        self.set_slot(out.slot, Some(sampler_seed));
        Ok(out)
    }

    fn decode_batch(&mut self, slots: &[usize]) -> Result<DecodeOutcome, BackendError> {
        let out = self.record(
            "decode",
            None,
            slots.len(),
            |b| b.decode_batch(slots),
            |o| (o.elapsed_ms, slots.len()),
        )?;
        let end_ns = self.spans.last().map_or(0, |s| s.end_ns);
        if let Some((prev_end, prev_slots)) = &self.last_decode {
            if slots.iter().any(|s| prev_slots.contains(s)) {
                self.observed
                    .decode_gaps_ms
                    .push((end_ns - prev_end) as f64 / 1e6);
            }
        }
        self.last_decode = Some((end_ns, slots.to_vec()));
        Ok(out)
    }

    fn release(&mut self, slot: usize) -> Result<(), BackendError> {
        let id = self.slot_id(slot);
        self.record("release", id, 1, |b| b.release(slot), |()| (0.0, 0))?;
        self.set_slot(slot, None);
        Ok(())
    }

    fn supports_chunked_prefill(&self) -> bool {
        self.inner.supports_chunked_prefill()
    }

    fn prefill_open(
        &mut self,
        prompt_len: usize,
        prompt: Option<&[u32]>,
        sampler_seed: u64,
    ) -> Result<usize, BackendError> {
        let slot = self.record(
            "prefill_open",
            Some(sampler_seed),
            1,
            |b| b.prefill_open(prompt_len, prompt, sampler_seed),
            |_| (0.0, prompt_len),
        )?;
        self.set_slot(slot, Some(sampler_seed));
        Ok(slot)
    }

    fn prefill_step(
        &mut self,
        slot: usize,
        max_tokens: usize,
    ) -> Result<PrefillProgress, BackendError> {
        let id = self.slot_id(slot);
        // Tokens fed are not in the outcome; `remaining` before and
        // after would need a second call, so the span carries the chunk
        // ceiling, which only the final chunk undershoots.
        self.record(
            "prefill_step",
            id,
            1,
            |b| b.prefill_step(slot, max_tokens),
            |o| (o.elapsed_ms, max_tokens),
        )
    }

    fn supports_preemption(&self) -> bool {
        self.inner.supports_preemption()
    }

    fn reclaimable_pages(&self, slot: usize) -> usize {
        self.inner.reclaimable_pages(slot)
    }

    fn preempt(&mut self, slot: usize) -> Result<PreemptedSeq, BackendError> {
        let id = self.slot_id(slot);
        let seq = self.record("preempt", id, 1, |b| b.preempt(slot), |_| (0.0, 0))?;
        if let Some(id) = id {
            self.parked.push((seq.context_len, seq.last_token, id));
        }
        self.set_slot(slot, None);
        Ok(seq)
    }

    fn resume(
        &mut self,
        seq: &PreemptedSeq,
        context: Option<&[u32]>,
    ) -> Result<PrefillOutcome, BackendError> {
        let parked = self
            .parked
            .iter()
            .position(|&(len, last, _)| len == seq.context_len && last == seq.last_token);
        let id = parked.map(|i| self.parked[i].2);
        let out = self.record(
            "resume",
            id,
            1,
            |b| b.resume(seq, context),
            |o| (o.elapsed_ms, seq.context_len),
        )?;
        if let Some(i) = parked {
            self.parked.remove(i);
        }
        self.set_slot(out.slot, id);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "x",
            start_ns,
            end_ns,
            request: None,
            batch: 1,
            tokens: 0,
            billed_ms: 0.0,
            outcome: "ok",
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span(0, None, 0, 1000),
            span(1, Some(0), 100, 400),
            span(2, Some(0), 500, 700),
            // A grandchild and another root's child do not count.
            span(3, Some(1), 150, 250),
            span(4, None, 2000, 2600),
            span(5, Some(4), 2100, 2200),
        ];
        assert_eq!(self_ns(&spans[0], &spans), 1000 - 300 - 200);
        assert_eq!(self_ns(&spans[1], &spans), 300 - 100);
        assert_eq!(self_ns(&spans[4], &spans), 600 - 100);
        assert_eq!(self_ns(&spans[2], &spans), 200);
    }

    #[test]
    fn span_json_carries_every_field() {
        let mut s = span(3, Some(0), 10, 25);
        s.request = Some(42);
        s.tokens = 7;
        s.billed_ms = 0.5;
        assert_eq!(
            s.to_json().render(),
            r#"{"id": 3, "parent": 0, "name": "x", "start_ns": 10, "end_ns": 25, "request": 42, "batch": 1, "tokens": 7, "billed_ms": 0.5, "outcome": "ok"}"#
        );
    }
}
