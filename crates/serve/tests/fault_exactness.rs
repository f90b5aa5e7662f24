//! Property suite: fault injection never changes *what* completed
//! requests compute, only *whether/when* they complete.
//!
//! For any seeded [`FaultPlan`] the gateway's retry path replays vetoed
//! operations against an unperturbed backend, so every request that
//! reaches `Completed` must produce a token stream bit-identical to the
//! fault-free run of the same workload. This is the serving-tier
//! extension of the batched-decode exactness suite: faults may shed,
//! stall, or strand requests, but they may never corrupt one.

use proptest::prelude::*;

use looplynx_core::backend::{FunctionalBackend, SamplerSpec};
use looplynx_core::engine::DistributedGpt2;
use looplynx_core::fault::{FaultPlan, FaultyBackend};
use looplynx_core::router::RingMode;
use looplynx_model::config::ModelConfig;
use looplynx_model::gpt2::Gpt2Model;
use looplynx_serve::{
    serve_gateway_on, ArrivalProcess, EvictPolicyKind, GatewayConfig, GatewayRequest, ShedPolicy,
    Terminal,
};

const SLOTS: usize = 4;

fn fresh_backend(model: &Gpt2Model) -> FunctionalBackend {
    let engine = DistributedGpt2::with_slots(model, 2, RingMode::Exact, SLOTS, 48)
        .expect("tiny model partitions");
    FunctionalBackend::new(engine, SamplerSpec::Greedy)
}

/// An oversubscribed paged backend: 4-token pages, a 12-page pool (the
/// minimum the geometry allows for capacity 48) against `SLOTS * 2`
/// slots — residents routinely outgrow the pool and must be preempted.
fn oversubscribed_backend(model: &Gpt2Model) -> FunctionalBackend {
    let engine = DistributedGpt2::with_paged_slots(model, 2, RingMode::Exact, SLOTS * 2, 48, 4, 12)
        .expect("tiny model partitions");
    FunctionalBackend::new(engine, SamplerSpec::Greedy)
}

fn workload(n: usize, seed: u64) -> Vec<GatewayRequest> {
    let cfg = ModelConfig::tiny();
    let reqs = ArrivalProcess::Trace(vec![0.0; n]).workload_with_prompts(
        n,
        &[(6, 7), (4, 9), (8, 5)],
        cfg.vocab,
        seed,
    );
    GatewayRequest::from_workload(&reqs)
}

fn gateway_cfg() -> GatewayConfig {
    GatewayConfig {
        max_batch: SLOTS,
        queue_depth: 64,
        // No deadlines: the functional clock is measured host time, and
        // this suite is about token exactness, not latency.
        ttft_deadline_ms: None,
        e2e_deadline_ms: None,
        max_retries: 48,
        retry_backoff_ms: 0.5,
        shed: ShedPolicy::Reject,
        prefill_chunk: None,
        evict: EvictPolicyKind::YoungestFirst,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// For any seeded fault plan, completed requests are bit-identical
    /// to the fault-free run, and the run conserves every request.
    #[test]
    fn completed_streams_survive_any_fault_plan(
        plan_seed in any::<u64>(),
        workload_seed in any::<u64>(),
        prefill_rate in 0.0f64..0.4,
        decode_rate in 0.0f64..0.4,
        stall_rate in 0.0f64..0.3,
        leak_rate in 0.0f64..0.3,
        n in 4usize..10,
    ) {
        let model = Gpt2Model::synthetic(&ModelConfig::tiny(), 2024);
        let offered = workload(n, workload_seed);

        let mut clean = fresh_backend(&model);
        let reference = serve_gateway_on(&mut clean, &offered, &gateway_cfg());
        prop_assert_eq!(reference.counts().completed, n, "fault-free run completes all");

        let plan = FaultPlan {
            seed: plan_seed,
            prefill_fail_rate: prefill_rate,
            decode_fail_rate: decode_rate,
            stall_rate,
            stall_ms: 250.0,
            release_leak_rate: leak_rate,
            page_fault_rate: 0.0,
        };
        let mut faulty = FaultyBackend::new(fresh_backend(&model), plan);
        let report = serve_gateway_on(&mut faulty, &offered, &gateway_cfg());

        // Conservation: exactly one terminal per offered request.
        prop_assert!(report.is_conserved(&offered), "{}", report);

        // Exactness: every completed stream matches the reference.
        for t in &report.terminals {
            if t.terminal != Terminal::Completed {
                continue;
            }
            prop_assert_eq!(
                report.serving.output_tokens(t.id),
                reference.serving.output_tokens(t.id),
                "request {} diverged under plan {:?}", t.id, plan
            );
        }
    }

    /// The fault-free plan is fully transparent: wrapping the backend in
    /// `FaultyBackend` with `FaultPlan::default()` leaves the gateway run's
    /// outputs and terminal census unchanged.
    #[test]
    fn none_plan_is_transparent(workload_seed in any::<u64>(), n in 3usize..8) {
        let model = Gpt2Model::synthetic(&ModelConfig::tiny(), 2024);
        let offered = workload(n, workload_seed);

        let mut bare = fresh_backend(&model);
        let a = serve_gateway_on(&mut bare, &offered, &gateway_cfg());
        let mut wrapped = FaultyBackend::new(fresh_backend(&model), FaultPlan::default());
        let b = serve_gateway_on(&mut wrapped, &offered, &gateway_cfg());

        prop_assert_eq!(a.counts(), b.counts());
        prop_assert_eq!(a.serving.outputs, b.serving.outputs);
        prop_assert_eq!(b.retries, 0);
    }

    /// Injected page faults under the `Preempt` policy: every offered
    /// request reaches exactly one terminal state (a preempted request
    /// is resumed, not lost), and every completed stream bit-matches the
    /// fault-free reference.
    #[test]
    fn page_faults_preempt_but_never_corrupt(
        plan_seed in any::<u64>(),
        workload_seed in any::<u64>(),
        page_rate in 0.0f64..0.35,
        n in 4usize..10,
    ) {
        let model = Gpt2Model::synthetic(&ModelConfig::tiny(), 2024);
        let offered = workload(n, workload_seed);

        let mut clean = fresh_backend(&model);
        let reference = serve_gateway_on(&mut clean, &offered, &gateway_cfg());

        let plan = FaultPlan {
            seed: plan_seed,
            prefill_fail_rate: 0.0,
            decode_fail_rate: 0.0,
            stall_rate: 0.0,
            stall_ms: 0.0,
            release_leak_rate: 0.0,
            page_fault_rate: page_rate,
        };
        let mut faulty = FaultyBackend::new(fresh_backend(&model), plan);
        let cfg = GatewayConfig { shed: ShedPolicy::Preempt, ..gateway_cfg() };
        let report = serve_gateway_on(&mut faulty, &offered, &cfg);

        prop_assert!(report.is_conserved(&offered), "{}", report);
        for t in &report.terminals {
            if t.terminal != Terminal::Completed {
                continue;
            }
            prop_assert_eq!(
                report.serving.output_tokens(t.id),
                reference.serving.output_tokens(t.id),
                "request {} diverged under page-fault plan {:?}", t.id, plan
            );
        }
    }

    /// Genuine page pressure (an oversubscribed pool, no injected
    /// faults): preemption lets every request terminate `Completed`,
    /// bit-identical to the roomy reference, at any prefill chunking.
    #[test]
    fn oversubscription_completes_exactly(
        workload_seed in any::<u64>(),
        raw_chunk in 0usize..10,
        n in 4usize..10,
    ) {
        // 0 means "no chunking" — one-pass prefill.
        let chunk = (raw_chunk > 0).then_some(raw_chunk);
        let model = Gpt2Model::synthetic(&ModelConfig::tiny(), 2024);
        let offered = workload(n, workload_seed);

        let mut clean = fresh_backend(&model);
        let reference = serve_gateway_on(&mut clean, &offered, &gateway_cfg());

        let mut tight = oversubscribed_backend(&model);
        let cfg = GatewayConfig {
            max_batch: SLOTS * 2,
            shed: ShedPolicy::Preempt,
            prefill_chunk: chunk,
            ..gateway_cfg()
        };
        let report = serve_gateway_on(&mut tight, &offered, &cfg);

        prop_assert!(report.is_conserved(&offered), "{}", report);
        prop_assert_eq!(report.counts().completed, n, "{}", report);
        for t in &report.terminals {
            prop_assert_eq!(
                report.serving.output_tokens(t.id),
                reference.serving.output_tokens(t.id),
                "request {} diverged under oversubscription (chunk {:?})", t.id, chunk
            );
        }
    }
}
