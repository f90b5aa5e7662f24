//! End-to-end acceptance of the serving layer: the offered-load sweep
//! runs across ring sizes, continuous batching beats the sequential
//! baseline under load, and the latency tails are well-formed.

use looplynx::core::backend::SimBackend;
use looplynx::core::{ArchConfig, LoopLynx};
use looplynx::model::ModelConfig;
use looplynx::serve::{serve_continuous_on, ArrivalProcess};
use looplynx_bench::experiments::{offered_load_sweep_with, SERVE_SHAPES};

fn engine(nodes: usize) -> LoopLynx {
    LoopLynx::new(
        ModelConfig::gpt2_medium(),
        ArchConfig::builder().nodes(nodes).build().unwrap(),
    )
    .unwrap()
}

#[test]
fn offered_load_sweep_end_to_end() {
    // One over-subscribed rate across all three paper ring sizes.
    let points = offered_load_sweep_with(&ModelConfig::gpt2_medium(), &[1, 2, 4], &[25.0], 16, 8);
    assert_eq!(points.len(), 3);
    for p in &points {
        // The acceptance bar: continuous batching sustains strictly more
        // tokens/s than serve-one-request-at-a-time at the same rate.
        assert!(
            p.batched_tokens_per_s > p.sequential_tokens_per_s,
            "{} nodes: batched {} vs sequential {}",
            p.nodes,
            p.batched_tokens_per_s,
            p.sequential_tokens_per_s
        );
        // TTFT/TPOT/E2E percentiles are populated and ordered.
        for tail in [p.ttft_ms, p.tpot_ms, p.e2e_ms] {
            assert!(tail[0] > 0.0, "empty percentile tail");
            assert!(tail[0] <= tail[1] && tail[1] <= tail[2]);
        }
    }
    // Ring scaling carries into serving throughput.
    assert!(points[1].batched_tokens_per_s > points[0].batched_tokens_per_s);
    assert!(points[2].batched_tokens_per_s > points[1].batched_tokens_per_s);
}

#[test]
fn bursty_and_poisson_workloads_complete() {
    let e = engine(2);
    for process in [
        ArrivalProcess::Poisson {
            rate_per_s: 12.0,
            seed: 5,
        },
        // Three bursts of five simultaneous arrivals, half a second apart.
        ArrivalProcess::Trace([0.0, 500.0, 1000.0].iter().flat_map(|&t| [t; 5]).collect()),
    ] {
        let workload = process.workload(15, &SERVE_SHAPES);
        let report = serve_continuous_on(&mut SimBackend::new(&e), &workload, 8);
        assert_eq!(report.completed(), 15);
        assert_eq!(
            report.total_tokens(),
            workload.iter().map(|r| r.decode_tokens).sum::<usize>()
        );
    }
}

#[test]
fn low_load_has_no_batching_penalty() {
    // With arrivals far apart, requests never overlap: both schedulers
    // produce identical per-request latencies.
    let e = engine(2);
    let workload = ArrivalProcess::Trace(vec![0.0, 60_000.0, 120_000.0]).workload(3, &[(32, 16)]);
    let a = serve_continuous_on(&mut SimBackend::new(&e), &workload, 8);
    let b = serve_continuous_on(&mut SimBackend::new(&e), &workload, 1);
    for (x, y) in a.requests.iter().zip(&b.requests) {
        assert!((x.ttft_ms() - y.ttft_ms()).abs() < 1e-9);
        assert!((x.e2e_ms() - y.e2e_ms()).abs() < 1e-9);
    }
}
