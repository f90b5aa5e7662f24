//! The fair-weather scheduler — continuous batching, and at a ceiling
//! of one the sequential baseline — as a preset of the one serving loop:
//! [`serve_gateway_on`] configured for a well-behaved backend (no
//! deadlines, an unbounded queue, no retries, nothing shed), handing back
//! the plain [`ServingReport`] and panicking if any request fails to
//! complete.
//!
//! Requests join the decode loop between iterations, FIFO in arrival
//! order. The first output token is sampled from the prefill logits (TTFT
//! = queue wait + prefill); each later token takes one decode iteration
//! shared with every other resident.

use looplynx_core::backend::InferenceBackend;
use looplynx_core::config::MAX_WEIGHT_SHARING_BATCH;

use crate::gateway::{serve_gateway_on, GatewayConfig, GatewayRequest, Terminal};
use crate::metrics::ServingReport;
use crate::request::Request;

/// Serves the workload with continuous batching on any backend; at a
/// `max_batch` of 1 this is the one-request-at-a-time baseline that
/// batching is measured against.
///
/// Up to `min(max_batch, backend.capacity())` requests are resident at
/// once; a request that finds no free slot or page waits for a resident
/// to complete. The clock advances by whatever the backend reports
/// (simulated accelerator ms on the sim backend, measured host
/// wall-clock on the functional one), jumping to the next arrival when
/// idle, so latencies are not comparable across backends.
///
/// # Panics
///
/// Panics if `max_batch` is zero or exceeds
/// [`MAX_WEIGHT_SHARING_BATCH`] (the on-chip activation-buffer bound
/// shared with the batched-prefill extension), if a request would
/// overflow the backend's `max_seq`, two share an id, or one does not
/// complete (a backend operation failed, capacity collapsed);
/// fault-tolerant callers use [`serve_gateway_on`].
pub fn serve_continuous_on<B: InferenceBackend>(
    backend: &mut B,
    requests: &[Request],
    max_batch: usize,
) -> ServingReport {
    assert!(
        (1..=MAX_WEIGHT_SHARING_BATCH).contains(&max_batch),
        "max_batch must be 1..={MAX_WEIGHT_SHARING_BATCH} (bounded by on-chip activation buffer)"
    );
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

#[cfg(test)]
mod tests {
    use super::*;
    use looplynx_core::backend::SimBackend;
    use looplynx_core::config::ArchConfig;
    use looplynx_core::engine::LoopLynx;
    use looplynx_model::config::ModelConfig;

    use crate::arrival::ArrivalProcess;
    use crate::harness::{burst, lone_tokens, Point};
    use crate::request::RequestMetrics;

    /// The preset on the cycle-accurate sim backend of gpt2-medium on a
    /// `nodes`-node ring.
    fn on_sim(nodes: usize, reqs: &[Request], max_batch: usize) -> ServingReport {
        let arch = ArchConfig::builder().nodes(nodes).build().unwrap();
        let e = LoopLynx::new(ModelConfig::gpt2_medium(), arch).unwrap();
        serve_continuous_on(&mut SimBackend::new(&e), reqs, max_batch)
    }

    fn saturating_workload(n: usize) -> Vec<Request> {
        // Everything arrives at t=0: maximal queueing pressure.
        ArrivalProcess::Trace(vec![0.0; n]).workload(n, &[(16, 8)])
    }

    #[test]
    fn all_requests_complete_with_exact_token_counts() {
        let reqs = saturating_workload(6);
        let report = on_sim(2, &reqs, 8);
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
        let reqs = saturating_workload(6);
        let batched = on_sim(2, &reqs, 8);
        let serial = on_sim(2, &reqs, 1);
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
        // At a ceiling of 1 the scheduler is the sequential baseline: one
        // resident at a time, each admitted once the one before it is done.
        let reqs = ArrivalProcess::Trace(vec![0.0, 3.0, 9.0]).workload(3, &[(12, 5), (8, 3)]);
        let report = on_sim(1, &reqs, 1);
        assert_eq!(report.batch_occupancy.max(), Some(1.0));
        let mut by_id = report.requests.clone();
        by_id.sort_by_key(|m| m.id);
        for pair in by_id.windows(2) {
            assert!(pair[1].first_token_ms > pair[0].completion_ms);
        }
    }

    #[test]
    fn idle_engine_waits_for_arrivals() {
        let reqs = ArrivalProcess::Trace(vec![1000.0]).workload(1, &[(8, 4)]);
        let report = on_sim(1, &reqs, 8);
        assert!(report.requests[0].first_token_ms >= 1000.0);
        // TTFT excludes the idle wait before arrival
        assert!(report.requests[0].ttft_ms() < 500.0);
    }

    #[test]
    fn single_token_requests_complete_at_prefill() {
        let reqs = ArrivalProcess::Trace(vec![0.0]).workload(1, &[(8, 1)]);
        let report = on_sim(1, &reqs, 8);
        assert_eq!(report.decode_iterations, 0);
        let m = &report.requests[0];
        assert_eq!(m.first_token_ms, m.completion_ms);
    }

    #[test]
    fn fifo_admission_preserves_arrival_order_of_first_tokens() {
        let reqs = ArrivalProcess::Trace(vec![0.0, 0.0, 0.0, 50.0, 60.0]).workload(5, &[(16, 12)]);
        let report = on_sim(2, &reqs, 2);
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
        let reqs = vec![Request::new(0, 0.0, 1000, 100)];
        let _ = on_sim(1, &reqs, 8);
    }

    // The functional tests run the preset on the serving harness's
    // backend (`tests/harness/mod.rs`) and compare every stream with its
    // lone run.
    fn assert_lone(point: &Point, reqs: &[Request], report: &ServingReport) {
        for r in reqs {
            let prompt = r.prompt.as_deref().expect("prompted");
            let want = lone_tokens(&point.engine, prompt, r.decode_tokens, r.id);
            assert_eq!(
                report.output_tokens(r.id),
                Some(&want[..]),
                "request {}",
                r.id
            );
        }
    }

    fn requests(trace: &[GatewayRequest]) -> Vec<Request> {
        trace.iter().map(|g| g.req.clone()).collect()
    }

    #[test]
    fn functional_serving_produces_per_request_tokens() {
        let point = Point::calm(2, 4);
        let reqs = requests(&burst(5));
        let report = serve_continuous_on(&mut point.backend(), &reqs, 4);
        assert_eq!(report.completed(), 5);
        assert_eq!(report.outputs.len(), 5);
        assert_lone(&point, &reqs, &report);
    }

    #[test]
    fn functional_sequential_matches_continuous_tokens() {
        // Scheduling policy must never change what any request generates.
        let point = Point::calm(2, 4);
        let reqs = requests(&burst(4));
        for max_batch in [1, 4] {
            let report = serve_continuous_on(&mut point.backend(), &reqs, max_batch);
            assert_lone(&point, &reqs, &report);
        }
    }

    #[test]
    fn page_pressure_holds_admission_without_failing() {
        // 8 slots over the tightest pool, 18 pages of 4 tokens: each
        // 11-token prompt with 2 output tokens holds exactly 3 pages from
        // prefill through completion, so at most 6 can be resident.
        // Admission must hold the rest until a resident completes, and
        // nothing may fail or diverge.
        let point = Point::calm(2, 8).oversubscribed();
        assert_eq!(point.engine.pages, 18);
        let prompt = |id: u64| (0..11).map(|t| (id as u32 * 31 + t) % 320).collect();
        let reqs: Vec<Request> = (1..=8)
            .map(|id| Request::new(id, 0.0, 11, 2).with_prompt(prompt(id)))
            .collect();
        let report = serve_continuous_on(&mut point.backend(), &reqs, 8);
        assert_eq!(report.completed(), 8);
        assert!(
            report.batch_occupancy.max().unwrap_or(0.0) <= 6.0,
            "18 pages cannot hold more than 6 three-page residents"
        );
        assert_lone(&point, &reqs, &report);
    }

    #[test]
    fn backend_capacity_caps_admission() {
        // 2 slots, batch ceiling 8: occupancy can never exceed 2.
        let point = Point::calm(2, 2);
        let reqs = requests(&burst(6));
        let report = serve_continuous_on(&mut point.backend(), &reqs, 8);
        assert_eq!(report.completed(), 6);
        assert!(report.batch_occupancy.max().unwrap_or(0.0) <= 2.0);
    }
}
