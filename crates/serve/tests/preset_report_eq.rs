//! Pins the serving schedulers against golden scalars captured from the
//! hand-written continuous/sequential batcher loops this crate carried
//! before they became [`GatewayConfig`] presets (PR 12). At capture time
//! the whole `ServingReport` (requests in order, outputs, iteration
//! count, occupancy summary, every percentile) was `assert_eq!` between
//! the loops and the presets on `SimBackend` gpt2-medium at 1/2/4 nodes ×
//! {Poisson 20/s, Poisson 200/s, 40 simultaneous} × `max_batch` 1/4/8;
//! the goldens below are what stays now that only the gateway loop is
//! left to run.

use looplynx_core::backend::SimBackend;
use looplynx_core::config::ArchConfig;
use looplynx_core::engine::LoopLynx;
use looplynx_core::fault::{FaultPlan, FaultyBackend};
use looplynx_model::config::ModelConfig;
use looplynx_serve::{
    serve_continuous_on, serve_sequential, ArrivalProcess, Request, ServeConfig, ServingReport,
};

fn engine(nodes: usize) -> LoopLynx {
    LoopLynx::new(
        ModelConfig::gpt2_medium(),
        ArchConfig::builder().nodes(nodes).build().unwrap(),
    )
    .unwrap()
}

/// The scalars a golden row pins: makespan, decode iterations, TTFT
/// p50/p99, E2E p50/p99, first and last completion time.
fn scalars(r: &ServingReport) -> [f64; 8] {
    [
        r.makespan_ms(),
        r.decode_iterations as f64,
        r.ttft_ms.p50().unwrap(),
        r.ttft_ms.p99().unwrap(),
        r.e2e_ms.p50().unwrap(),
        r.e2e_ms.p99().unwrap(),
        r.requests.first().unwrap().completion_ms,
        r.requests.last().unwrap().completion_ms,
    ]
}

fn assert_golden(name: &str, got: [f64; 8], want: [f64; 8]) {
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        assert!((g - w).abs() <= 1e-9, "{name}[{i}]: got {g:?}, want {w:?}");
    }
}

#[test]
fn continuous_poisson_two_nodes_matches_golden() {
    let reqs = ArrivalProcess::Poisson {
        rate_per_s: 20.0,
        seed: 1,
    }
    .workload(24, &[(32, 16), (64, 8)]);
    let report = serve_continuous_on(
        &mut SimBackend::new(&engine(2)),
        &reqs,
        &ServeConfig::new(8),
    );
    assert_eq!(report.completed(), 24);
    assert_golden("poisson20/2n/b8", scalars(&report), GOLDEN_POISSON_2N_B8);
}

#[test]
fn continuous_burst_one_node_matches_golden() {
    let reqs = ArrivalProcess::Trace(vec![0.0; 40]).workload(40, &[(16, 8), (48, 24)]);
    let report = serve_continuous_on(
        &mut SimBackend::new(&engine(1)),
        &reqs,
        &ServeConfig::new(4),
    );
    assert_eq!(report.completed(), 40);
    assert_golden("burst40/1n/b4", scalars(&report), GOLDEN_BURST_1N_B4);
}

#[test]
fn sequential_poisson_four_nodes_matches_golden() {
    let reqs = ArrivalProcess::Poisson {
        rate_per_s: 200.0,
        seed: 7,
    }
    .workload(32, &[(32, 16), (64, 8)]);
    let report = serve_sequential(&engine(4), &reqs);
    assert_eq!(report.completed(), 32);
    assert_eq!(report.batch_occupancy.max(), Some(1.0));
    assert_golden("poisson200/4n/seq", scalars(&report), GOLDEN_POISSON_4N_SEQ);
}

#[test]
#[should_panic(expected = "exceed max_seq")]
fn continuous_still_panics_on_a_request_longer_than_max_seq() {
    let reqs = vec![Request::new(0, 0.0, 8, 4), Request::new(1, 0.0, 1000, 100)];
    let _ = serve_continuous_on(
        &mut SimBackend::new(&engine(1)),
        &reqs,
        &ServeConfig::default(),
    );
}

#[test]
#[should_panic(expected = "did not complete")]
fn continuous_still_panics_when_the_backend_fails_a_prefill() {
    let e = engine(1);
    let mut faulty = FaultyBackend::new(
        SimBackend::new(&e),
        FaultPlan {
            seed: 3,
            prefill_fail_rate: 1.0,
            decode_fail_rate: 0.0,
            stall_rate: 0.0,
            stall_ms: 0.0,
            release_leak_rate: 0.0,
            page_fault_rate: 0.0,
        },
    );
    let reqs = vec![Request::new(0, 0.0, 8, 4)];
    let _ = serve_continuous_on(&mut faulty, &reqs, &ServeConfig::default());
}

const GOLDEN_POISSON_2N_B8: [f64; 8] = [
    4090.034975438597,
    37.0,
    1242.2316227172637,
    2896.0226736693867,
    2332.463964912281,
    3264.2765302613207,
    1355.7688381420267,
    4131.835252177115,
];
const GOLDEN_BURST_1N_B4: [f64; 8] = [
    8497.521929824556,
    161.0,
    4117.0205122807,
    8322.29747368421,
    4663.385722807017,
    8497.521929824556,
    757.2859298245614,
    8497.521929824556,
];
const GOLDEN_POISSON_4N_SEQ: [f64; 8] = [
    4220.744196491229,
    352.0,
    2011.2249033913124,
    4023.0043211832444,
    2028.055324443944,
    4039.8347422358756,
    108.59096700054592,
    4223.21428279002,
];
