//! The fair-weather schedulers — continuous batching and the sequential
//! baseline — as presets of the one serving loop: [`serve_gateway_on`]
//! configured for a well-behaved backend (no deadlines, an unbounded
//! queue, no retries, nothing shed), handing back the plain
//! [`ServingReport`] and panicking if any request fails to complete.
//!
//! Requests join the decode loop between iterations, FIFO in arrival
//! order. The first output token is sampled from the prefill logits (TTFT
//! = queue wait + prefill); each later token takes one decode iteration
//! shared with every other resident.

use looplynx_core::backend::{InferenceBackend, SimBackend};
use looplynx_core::engine::LoopLynx;

use crate::gateway::{serve_gateway_on, GatewayConfig, GatewayRequest, Terminal};
use crate::metrics::ServingReport;
use crate::request::Request;

/// Serving-policy knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    max_batch: usize,
}

impl ServeConfig {
    /// Creates a configuration with the given decode-batch ceiling.
    ///
    /// # Panics
    ///
    /// Panics if `max_batch` is zero or exceeds
    /// [`looplynx_core::config::MAX_WEIGHT_SHARING_BATCH`] (the on-chip
    /// activation-buffer bound shared with the batched-prefill extension).
    pub fn new(max_batch: usize) -> Self {
        assert!(
            (1..=looplynx_core::config::MAX_WEIGHT_SHARING_BATCH).contains(&max_batch),
            "max_batch must be 1..={} (bounded by on-chip activation buffer)",
            looplynx_core::config::MAX_WEIGHT_SHARING_BATCH
        );
        ServeConfig { max_batch }
    }

    /// Maximum concurrent requests in one decode iteration (the backend's
    /// own slot capacity caps this further).
    pub fn max_batch(&self) -> usize {
        self.max_batch
    }
}

impl Default for ServeConfig {
    /// Eight concurrent requests — deep enough to amortize weight
    /// streaming, shallow enough for the activation buffer.
    fn default() -> Self {
        ServeConfig::new(8)
    }
}

/// The gateway as a fair-weather scheduler, with the wrappers' `# Panics`.
fn serve_preset<B: InferenceBackend>(
    backend: &mut B,
    requests: &[Request],
    max_batch: usize,
) -> ServingReport {
    let max_seq = backend.max_seq();
    let too_long = requests.iter().find(|r| r.peak_context() > max_seq);
    assert!(
        too_long.is_none(),
        "prompt + output tokens exceed max_seq {max_seq}: {too_long:?}"
    );
    let cfg = GatewayConfig {
        max_batch,
        queue_depth: usize::MAX,
        max_retries: 0,
        ..GatewayConfig::default()
    };
    let report = serve_gateway_on(backend, &GatewayRequest::from_workload(requests), &cfg);
    let unfinished = report
        .terminals
        .iter()
        .find(|t| t.terminal != Terminal::Completed);
    assert!(unfinished.is_none(), "did not complete: {unfinished:?}");
    report.serving
}

/// Serves the workload with continuous batching on any backend.
///
/// Up to `min(cfg.max_batch(), backend.capacity())` requests are resident
/// at once; a request that finds no free slot or page waits for a
/// resident to complete. The clock advances by whatever the backend
/// reports (simulated accelerator ms on the sim backend, measured host
/// wall-clock on the functional one), jumping to the next arrival when
/// idle, so latencies are not comparable across backends.
///
/// # Panics
///
/// Panics if a request would overflow the backend's `max_seq`, two share
/// an id, or one does not complete (a backend operation failed, capacity
/// collapsed); fault-tolerant callers use [`serve_gateway_on`].
pub fn serve_continuous_on<B: InferenceBackend>(
    backend: &mut B,
    requests: &[Request],
    cfg: &ServeConfig,
) -> ServingReport {
    serve_preset(backend, requests, cfg.max_batch())
}

/// [`serve_continuous_on`] pinned to the cycle-accurate sim backend.
///
/// # Panics
///
/// As [`serve_continuous_on`].
pub fn serve_continuous(
    engine: &LoopLynx,
    requests: &[Request],
    cfg: &ServeConfig,
) -> ServingReport {
    serve_continuous_on(&mut SimBackend::new(engine), requests, cfg)
}

/// Serves the workload one request at a time on the cycle-accurate sim
/// backend — the baseline continuous batching is measured against:
/// [`serve_continuous`] at a ceiling of 1.
///
/// # Panics
///
/// As [`serve_continuous_on`].
pub fn serve_sequential(engine: &LoopLynx, requests: &[Request]) -> ServingReport {
    serve_preset(&mut SimBackend::new(engine), requests, 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use looplynx_core::backend::{FunctionalBackend, SamplerSpec};
    use looplynx_core::config::ArchConfig;
    use looplynx_core::engine::DistributedGpt2;
    use looplynx_core::router::RingMode;
    use looplynx_model::config::ModelConfig;
    use looplynx_model::generate::Autoregressive;
    use looplynx_model::gpt2::Gpt2Model;
    use looplynx_model::sampler::Sampler;

    use crate::arrival::ArrivalProcess;
    use crate::request::RequestMetrics;

    fn engine(nodes: usize) -> LoopLynx {
        LoopLynx::new(
            ModelConfig::gpt2_medium(),
            ArchConfig::builder().nodes(nodes).build().unwrap(),
        )
        .unwrap()
    }

    fn saturating_workload(n: usize) -> Vec<Request> {
        // Everything arrives at t=0: maximal queueing pressure.
        ArrivalProcess::Trace(vec![0.0; n]).workload(n, &[(16, 8)])
    }

    #[test]
    fn all_requests_complete_with_exact_token_counts() {
        let e = engine(2);
        let reqs = saturating_workload(6);
        let report = serve_continuous(&e, &reqs, &ServeConfig::default());
        assert_eq!(report.completed(), 6);
        assert_eq!(report.total_tokens(), 6 * 8);
        assert!(report.outputs.is_empty(), "sim backend produces no tokens");
        for m in &report.requests {
            assert!(m.first_token_ms >= m.arrival_ms);
            assert!(m.completion_ms >= m.first_token_ms);
        }
    }

    #[test]
    fn continuous_beats_sequential_under_load() {
        let e = engine(2);
        let reqs = saturating_workload(6);
        let batched = serve_continuous(&e, &reqs, &ServeConfig::default());
        let serial = serve_sequential(&e, &reqs);
        assert!(
            batched.tokens_per_second() > serial.tokens_per_second(),
            "batched {} vs sequential {}",
            batched.tokens_per_second(),
            serial.tokens_per_second()
        );
        assert!(batched.batch_occupancy.mean() > 1.0);
    }

    #[test]
    fn max_batch_one_equals_sequential() {
        // With a batch ceiling of 1 the continuous scheduler degenerates to
        // the sequential baseline exactly.
        let e = engine(1);
        let reqs = ArrivalProcess::Trace(vec![0.0, 3.0, 9.0]).workload(3, &[(12, 5), (8, 3)]);
        let a = serve_continuous(&e, &reqs, &ServeConfig::new(1));
        let b = serve_sequential(&e, &reqs);
        assert_eq!(a.requests.len(), b.requests.len());
        for (x, y) in a.requests.iter().zip(&b.requests) {
            assert_eq!(x.id, y.id);
            assert!((x.first_token_ms - y.first_token_ms).abs() < 1e-9);
            assert!((x.completion_ms - y.completion_ms).abs() < 1e-9);
        }
    }

    #[test]
    fn idle_engine_waits_for_arrivals() {
        let e = engine(1);
        let reqs = ArrivalProcess::Trace(vec![1000.0]).workload(1, &[(8, 4)]);
        let report = serve_continuous(&e, &reqs, &ServeConfig::default());
        assert!(report.requests[0].first_token_ms >= 1000.0);
        // TTFT excludes the idle wait before arrival
        assert!(report.requests[0].ttft_ms() < 500.0);
    }

    #[test]
    fn single_token_requests_complete_at_prefill() {
        let e = engine(1);
        let reqs = ArrivalProcess::Trace(vec![0.0]).workload(1, &[(8, 1)]);
        let report = serve_continuous(&e, &reqs, &ServeConfig::default());
        assert_eq!(report.decode_iterations, 0);
        let m = &report.requests[0];
        assert_eq!(m.first_token_ms, m.completion_ms);
    }

    #[test]
    fn fifo_admission_preserves_arrival_order_of_first_tokens() {
        let e = engine(2);
        let reqs = ArrivalProcess::Trace(vec![0.0, 0.0, 0.0, 50.0, 60.0]).workload(5, &[(16, 12)]);
        let report = serve_continuous(&e, &reqs, &ServeConfig::new(2));
        let mut by_id: Vec<&RequestMetrics> = report.requests.iter().collect();
        by_id.sort_by_key(|m| m.id);
        for pair in by_id.windows(2) {
            assert!(
                pair[0].first_token_ms <= pair[1].first_token_ms,
                "FIFO violated: {} after {}",
                pair[0].id,
                pair[1].id
            );
        }
    }

    #[test]
    #[should_panic(expected = "exceed max_seq")]
    fn oversized_request_rejected() {
        let e = engine(1);
        let reqs = vec![Request::new(0, 0.0, 1000, 100)];
        let _ = serve_continuous(&e, &reqs, &ServeConfig::default());
    }

    fn functional_backend(slots: usize) -> (Gpt2Model, FunctionalBackend) {
        let model = Gpt2Model::synthetic(&ModelConfig::tiny(), 2024);
        let dist = DistributedGpt2::with_slots(&model, 2, RingMode::Exact, slots, 48).unwrap();
        (model, FunctionalBackend::new(dist, SamplerSpec::Greedy))
    }

    #[test]
    fn functional_serving_produces_per_request_tokens() {
        let (model, mut backend) = functional_backend(4);
        let reqs = ArrivalProcess::Trace(vec![0.0; 5]).workload_with_prompts(
            5,
            &[(6, 5), (4, 7)],
            model.config().vocab,
            0xFEED,
        );
        let report = serve_continuous_on(&mut backend, &reqs, &ServeConfig::new(4));
        assert_eq!(report.completed(), 5);
        assert_eq!(report.outputs.len(), 5);
        // Every request's token stream is byte-identical to generating it
        // alone on the reference model.
        for req in &reqs {
            let tokens = report.output_tokens(req.id).expect("tokens recorded");
            assert_eq!(tokens.len(), req.decode_tokens);
            let mut lone = model.clone();
            let expected = lone.generate(
                req.prompt.as_ref().unwrap(),
                req.decode_tokens,
                &mut Sampler::greedy(),
            );
            assert_eq!(tokens, expected, "request {} diverged", req.id);
        }
    }

    #[test]
    fn functional_sequential_matches_continuous_tokens() {
        // Scheduling policy must never change what any request generates.
        let (model, mut cb) = functional_backend(4);
        let reqs = ArrivalProcess::Trace(vec![0.0, 0.5, 1.0, 1.5]).workload_with_prompts(
            4,
            &[(5, 6)],
            model.config().vocab,
            7,
        );
        let batched = serve_continuous_on(&mut cb, &reqs, &ServeConfig::new(4));
        let (_, mut seq) = functional_backend(4);
        let serial = serve_continuous_on(&mut seq, &reqs, &ServeConfig::new(1));
        for req in &reqs {
            assert_eq!(
                batched.output_tokens(req.id),
                serial.output_tokens(req.id),
                "request {} tokens depend on schedule",
                req.id
            );
        }
    }

    #[test]
    fn page_pressure_holds_admission_without_failing() {
        // 8 slots over a 12-page pool (4-token pages): each (7, 2)
        // request holds exactly 2 pages from prefill through completion,
        // so at most 6 can be resident. Admission must hold the rest
        // until a resident completes — and nothing may panic or diverge.
        let model = Gpt2Model::synthetic(&ModelConfig::tiny(), 2024);
        let dist =
            DistributedGpt2::with_paged_slots(&model, 2, RingMode::Exact, 8, 48, 4, 12).unwrap();
        let mut backend = FunctionalBackend::new(dist, SamplerSpec::Greedy);
        let reqs = ArrivalProcess::Trace(vec![0.0; 8]).workload_with_prompts(
            8,
            &[(7, 2)],
            model.config().vocab,
            15,
        );
        let report = serve_continuous_on(&mut backend, &reqs, &ServeConfig::new(8));
        assert_eq!(report.completed(), 8);
        assert!(
            report.batch_occupancy.max().unwrap_or(0.0) <= 6.0,
            "12 pages cannot hold more than 6 two-page residents"
        );
        for req in &reqs {
            let mut lone = model.clone();
            let expected = lone.generate(
                req.prompt.as_ref().unwrap(),
                req.decode_tokens,
                &mut Sampler::greedy(),
            );
            assert_eq!(
                report.output_tokens(req.id).expect("tokens recorded"),
                expected,
                "request {} diverged under page-pressure holds",
                req.id
            );
        }
    }

    #[test]
    fn backend_capacity_caps_admission() {
        // 2 slots, batch ceiling 8: occupancy can never exceed 2.
        let (model, mut backend) = functional_backend(2);
        let reqs = ArrivalProcess::Trace(vec![0.0; 6]).workload_with_prompts(
            6,
            &[(4, 6)],
            model.config().vocab,
            3,
        );
        let report = serve_continuous_on(&mut backend, &reqs, &ServeConfig::new(8));
        assert_eq!(report.completed(), 6);
        assert!(report.batch_occupancy.max().unwrap_or(0.0) <= 2.0);
    }
}
