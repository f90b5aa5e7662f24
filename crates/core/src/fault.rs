//! Deterministic fault injection for the serving stack.
//!
//! Chaos testing an inference fleet only works if the chaos is
//! *replayable*: the same plan must inject the same faults at the same
//! points so a failing run can be debugged and an invariant ("completed
//! requests are bit-identical to a fault-free run") can be asserted
//! exactly. [`FaultPlan`] is that seeded plan, and [`FaultyBackend`]
//! applies it to any [`InferenceBackend`]:
//!
//! * **prefill / decode faults** — the operation is vetoed *before* the
//!   inner backend runs, so inner state never diverges from a valid
//!   schedule and retrying the identical call is exact;
//! * **latency stalls** — the operation succeeds but reports extra
//!   elapsed time, pushing the serving clock toward request deadlines;
//! * **release leaks** — a completed request's slot is silently never
//!   returned to the inner backend, permanently shrinking
//!   [`InferenceBackend::capacity`] the way a crashed worker strands its
//!   sequences.
//!
//! Faults are drawn from a SplitMix64 stream seeded by the plan, one
//! Bernoulli roll per injection point, so a (plan, workload, scheduler)
//! triple replays bit-identically on timing-deterministic backends.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::backend::{
    BackendError, DecodeOutcome, InferenceBackend, PreemptedSeq, PrefillOutcome, PrefillProgress,
};

/// A seeded, rate-parameterized chaos plan.
///
/// Rates are per-operation Bernoulli probabilities in `[0, 1]`. The
/// `Default` plan is fault-free (every rate zero): wrapping a backend
/// with it changes nothing but the draw of unused random numbers.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FaultPlan {
    /// Seed of the fault stream (equal plans inject equal faults).
    pub seed: u64,
    /// Probability a prefill is vetoed with
    /// [`BackendError::InjectedFault`].
    pub prefill_fail_rate: f64,
    /// Probability a decode iteration is vetoed with
    /// [`BackendError::InjectedFault`].
    pub decode_fail_rate: f64,
    /// Probability a successful operation stalls for
    /// [`FaultPlan::stall_ms`] extra reported milliseconds.
    pub stall_rate: f64,
    /// Injected stall length (ms of the backend's clock domain).
    pub stall_ms: f64,
    /// Probability a release leaks: the caller sees success but the
    /// inner slot is stranded forever.
    pub release_leak_rate: f64,
    /// Probability a KV-growing operation (a decode iteration, a prefill
    /// chunk, a resume) is vetoed with [`BackendError::PagesExhausted`]
    /// *before* the inner backend runs — synthetic page pressure, so
    /// preemption paths exercise without a genuinely tiny pool.
    pub page_fault_rate: f64,
}

impl FaultPlan {
    /// A plan that exercises every *transient-or-leak* fault kind at
    /// intensity `rate`: prefill/decode faults at `rate`, stalls at
    /// `rate / 2` (1500 ms each), release leaks at `rate / 4`. Page
    /// faults are **not** included — [`BackendError::PagesExhausted`] is
    /// not retryable, so it only makes sense against schedulers that
    /// preempt; opt in by setting
    /// [`page_fault_rate`](FaultPlan::page_fault_rate) explicitly.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is outside `[0, 1]`.
    pub fn uniform(seed: u64, rate: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&rate),
            "fault rate {rate} not in [0,1]"
        );
        FaultPlan {
            seed,
            prefill_fail_rate: rate,
            decode_fail_rate: rate,
            stall_rate: rate / 2.0,
            stall_ms: 1_500.0,
            release_leak_rate: rate / 4.0,
            page_fault_rate: 0.0,
        }
    }

    /// Validates every rate is a probability and the stall is finite.
    ///
    /// # Panics
    ///
    /// Panics on a malformed plan.
    fn validate(&self) {
        for (name, rate) in [
            ("prefill_fail_rate", self.prefill_fail_rate),
            ("decode_fail_rate", self.decode_fail_rate),
            ("stall_rate", self.stall_rate),
            ("release_leak_rate", self.release_leak_rate),
            ("page_fault_rate", self.page_fault_rate),
        ] {
            assert!((0.0..=1.0).contains(&rate), "{name} {rate} not in [0,1]");
        }
        assert!(
            self.stall_ms.is_finite() && self.stall_ms >= 0.0,
            "stall_ms must be finite and non-negative"
        );
    }
}

/// Wraps any backend with deterministic, seeded fault injection.
///
/// Vetoed operations never reach the inner backend, so the inner
/// KV/slot/sampler state evolves exactly as it would under some valid
/// fault-free schedule — which is why requests that *complete* under
/// chaos are bit-identical to their fault-free generations.
#[derive(Debug)]
pub struct FaultyBackend<B> {
    inner: B,
    plan: FaultPlan,
    rng: StdRng,
    /// Slots the wrapper reported released but never released inside.
    leaked: Vec<usize>,
}

impl<B: InferenceBackend> FaultyBackend<B> {
    /// Wraps `inner` under `plan`.
    ///
    /// # Panics
    ///
    /// Panics if the plan's rates are not probabilities.
    pub fn new(inner: B, plan: FaultPlan) -> Self {
        plan.validate();
        FaultyBackend {
            inner,
            plan,
            rng: StdRng::seed_from_u64(plan.seed),
            leaked: Vec::new(),
        }
    }

    /// The wrapped backend: a test hook, through which an audit reads the
    /// inner engine between gateway steps.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// Slots stranded by leaked releases.
    pub fn leaked_slots(&self) -> &[usize] {
        &self.leaked
    }

    /// One Bernoulli roll at probability `rate`. Rolls draw in operation
    /// order, so a fixed operation sequence replays identically.
    fn roll(&mut self, rate: f64) -> bool {
        rate > 0.0 && self.rng.random::<f64>() < rate
    }

    /// Rolls the page-fault point: synthetic pool pressure, vetoing the
    /// operation before the inner backend runs.
    fn roll_page_fault(&mut self) -> Result<(), BackendError> {
        if self.roll(self.plan.page_fault_rate) {
            return Err(BackendError::PagesExhausted { needed: 1, free: 0 });
        }
        Ok(())
    }
}

impl<B: InferenceBackend> InferenceBackend for FaultyBackend<B> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn max_seq(&self) -> usize {
        self.inner.max_seq()
    }

    /// The inner capacity minus slots stranded by leaked releases: the
    /// admission ceiling honestly shrinks as chaos strands sequences.
    fn capacity(&self) -> usize {
        self.inner.capacity().saturating_sub(self.leaked.len())
    }

    fn prefill(
        &mut self,
        prompt_len: usize,
        prompt: Option<&[u32]>,
        sampler_seed: u64,
    ) -> Result<PrefillOutcome, BackendError> {
        if self.roll(self.plan.prefill_fail_rate) {
            return Err(BackendError::InjectedFault { op: "prefill" });
        }
        let mut outcome = self.inner.prefill(prompt_len, prompt, sampler_seed)?;
        if self.roll(self.plan.stall_rate) {
            outcome.elapsed_ms += self.plan.stall_ms;
        }
        Ok(outcome)
    }

    fn decode_batch(&mut self, slots: &[usize]) -> Result<DecodeOutcome, BackendError> {
        if self.roll(self.plan.decode_fail_rate) {
            return Err(BackendError::InjectedFault { op: "decode" });
        }
        self.roll_page_fault()?;
        let mut outcome = self.inner.decode_batch(slots)?;
        if self.roll(self.plan.stall_rate) {
            outcome.elapsed_ms += self.plan.stall_ms;
        }
        Ok(outcome)
    }

    fn release(&mut self, slot: usize) -> Result<(), BackendError> {
        if self.roll(self.plan.release_leak_rate) {
            self.leaked.push(slot);
            return Ok(());
        }
        self.inner.release(slot)
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
        if self.roll(self.plan.prefill_fail_rate) {
            return Err(BackendError::InjectedFault { op: "prefill" });
        }
        self.inner.prefill_open(prompt_len, prompt, sampler_seed)
    }

    fn prefill_step(
        &mut self,
        slot: usize,
        max_tokens: usize,
    ) -> Result<PrefillProgress, BackendError> {
        self.roll_page_fault()?;
        let mut progress = self.inner.prefill_step(slot, max_tokens)?;
        if self.roll(self.plan.stall_rate) {
            progress.elapsed_ms += self.plan.stall_ms;
        }
        Ok(progress)
    }

    fn supports_preemption(&self) -> bool {
        self.inner.supports_preemption()
    }

    fn reclaimable_pages(&self, slot: usize) -> usize {
        self.inner.reclaimable_pages(slot)
    }

    /// Never injected: preemption *frees* resources, and vetoing the
    /// scheduler's escape hatch under pressure would deadlock recovery.
    fn preempt(&mut self, slot: usize) -> Result<PreemptedSeq, BackendError> {
        self.inner.preempt(slot)
    }

    fn resume(
        &mut self,
        seq: &PreemptedSeq,
        context: Option<&[u32]>,
    ) -> Result<PrefillOutcome, BackendError> {
        self.roll_page_fault()?;
        let mut outcome = self.inner.resume(seq, context)?;
        if self.roll(self.plan.stall_rate) {
            outcome.elapsed_ms += self.plan.stall_ms;
        }
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{FunctionalBackend, SamplerSpec};
    use crate::engine::DistributedGpt2;
    use crate::router::RingMode;
    use looplynx_model::config::ModelConfig;
    use looplynx_model::gpt2::Gpt2Model;

    fn functional(slots: usize) -> FunctionalBackend {
        let model = Gpt2Model::synthetic(&ModelConfig::tiny(), 77);
        let engine = DistributedGpt2::with_slots(&model, 1, RingMode::Exact, slots, 24).unwrap();
        FunctionalBackend::new(engine, SamplerSpec::Greedy)
    }

    #[test]
    fn fault_free_plan_is_transparent() {
        let mut plain = functional(2);
        let mut wrapped = FaultyBackend::new(functional(2), FaultPlan::default());
        let p1 = plain.prefill(3, Some(&[1, 2, 3]), 0).unwrap();
        let p2 = wrapped.prefill(3, Some(&[1, 2, 3]), 0).unwrap();
        assert_eq!(p1.slot, p2.slot);
        assert_eq!(p1.first_token, p2.first_token);
        let d1 = plain.decode_batch(&[p1.slot]).unwrap();
        let d2 = wrapped.decode_batch(&[p2.slot]).unwrap();
        assert_eq!(d1.tokens, d2.tokens);
        wrapped.release(p2.slot).unwrap();
        assert_eq!(wrapped.capacity(), 2);
    }

    #[test]
    fn always_fail_plan_vetoes_without_touching_inner_state() {
        let plan = FaultPlan {
            prefill_fail_rate: 1.0,
            ..FaultPlan::default()
        };
        let mut b = FaultyBackend::new(functional(2), plan);
        for _ in 0..5 {
            assert_eq!(
                b.prefill(2, Some(&[1, 2]), 0).unwrap_err(),
                BackendError::InjectedFault { op: "prefill" }
            );
        }
        // No slot was consumed by the vetoed attempts.
        assert_eq!(b.inner.engine().free_slots(), 2);
    }

    #[test]
    fn vetoed_decode_is_retryable_bit_exactly() {
        let plan = FaultPlan {
            seed: 3,
            decode_fail_rate: 0.5,
            ..FaultPlan::default()
        };
        let mut faulty = FaultyBackend::new(functional(1), plan);
        let mut clean = functional(1);
        let p = faulty.prefill(2, Some(&[4, 5]), 7).unwrap();
        let q = clean.prefill(2, Some(&[4, 5]), 7).unwrap();
        let mut got = vec![p.first_token.unwrap()];
        let mut want = vec![q.first_token.unwrap()];
        let mut vetoes = 0;
        for _ in 0..6 {
            // Retry the identical call until the veto lifts.
            let out = loop {
                match faulty.decode_batch(&[p.slot]) {
                    Ok(out) => break out,
                    Err(BackendError::InjectedFault { .. }) => vetoes += 1,
                    Err(e) => panic!("unexpected {e}"),
                }
            };
            got.push(out.tokens.unwrap()[0]);
            want.push(clean.decode_batch(&[q.slot]).unwrap().tokens.unwrap()[0]);
        }
        assert_eq!(got, want, "retried stream diverged from fault-free run");
        assert!(vetoes > 0, "plan never fired");
    }

    #[test]
    fn stalls_inflate_reported_time_only() {
        let plan = FaultPlan {
            stall_rate: 1.0,
            stall_ms: 250.0,
            ..FaultPlan::default()
        };
        let mut b = FaultyBackend::new(functional(1), plan);
        let p = b.prefill(2, Some(&[1, 2]), 0).unwrap();
        assert!(p.elapsed_ms >= 250.0, "stall not billed: {}", p.elapsed_ms);
        let d = b.decode_batch(&[p.slot]).unwrap();
        assert!(d.elapsed_ms >= 250.0);
        assert!(d.tokens.is_some(), "stalled decode still produces tokens");
    }

    #[test]
    fn leaked_releases_shrink_capacity() {
        let plan = FaultPlan {
            release_leak_rate: 1.0,
            ..FaultPlan::default()
        };
        let mut b = FaultyBackend::new(functional(2), plan);
        let p = b.prefill(2, Some(&[1, 2]), 0).unwrap();
        assert_eq!(b.capacity(), 2);
        b.release(p.slot).unwrap();
        // The caller saw success, but the slot is stranded inside.
        assert_eq!(b.leaked_slots(), &[p.slot]);
        assert_eq!(b.capacity(), 1);
        assert_eq!(b.inner.engine().free_slots(), 1);
        // The second slot still serves; a third admission is exhaustion.
        let q = b.prefill(2, Some(&[3, 4]), 1).unwrap();
        assert!(matches!(
            b.prefill(2, Some(&[5, 6]), 2).unwrap_err(),
            BackendError::SlotsExhausted { .. }
        ));
        let _ = q;
    }

    #[test]
    fn equal_plans_replay_identically() {
        let plan = FaultPlan::uniform(42, 0.3);
        let run = |mut b: FaultyBackend<FunctionalBackend>| {
            let mut events = Vec::new();
            for i in 0..20 {
                match b.prefill(2, Some(&[1, 2]), i) {
                    Ok(p) => {
                        events.push(1);
                        events.push(
                            b.decode_batch(&[p.slot])
                                .map_or(0, |d| 1 + d.tokens.unwrap()[0]),
                        );
                        events.push(u32::from(b.release(p.slot).is_ok()));
                    }
                    Err(_) => events.push(0),
                }
            }
            (events, b.leaked_slots().to_vec())
        };
        let a = run(FaultyBackend::new(functional(2), plan));
        let b = run(FaultyBackend::new(functional(2), plan));
        assert_eq!(a, b, "seeded chaos must replay");
    }
}
