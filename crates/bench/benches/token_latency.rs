//! Table II bench: steady-state per-token simulation for every LoopLynx
//! ring size. Each iteration simulates one decode token cycle-accurately;
//! the *simulated* latency (the paper's metric) is printed once per
//! configuration alongside Criterion's measurement of the simulator
//! itself.

use std::hint::black_box;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use looplynx_bench::experiments::TABLE2_CONTEXT;
use looplynx_core::config::ArchConfig;
use looplynx_core::engine::LoopLynx;
use looplynx_model::config::ModelConfig;

fn bench_token_simulation(c: &mut Criterion) {
    let model = ModelConfig::gpt2_medium();
    let mut group = c.benchmark_group("table2_token_latency");
    for nodes in [1usize, 2, 4] {
        let arch = ArchConfig::builder().nodes(nodes).build().expect("valid");
        let engine = LoopLynx::new(model.clone(), arch).expect("partitions");
        let simulated_ms = engine.steady_state_decode_ms(TABLE2_CONTEXT);
        eprintln!("[table2] {nodes}-node simulated token latency: {simulated_ms:.2} ms");
        group.bench_with_input(BenchmarkId::new("nodes", nodes), &nodes, |b, _| {
            b.iter(|| {
                engine
                    .scheduler()
                    .schedule_rows(&[black_box(TABLE2_CONTEXT)], true)
            })
        });
    }
    group.finish();
}

fn bench_context_sweep(c: &mut Criterion) {
    let model = ModelConfig::gpt2_medium();
    let arch = ArchConfig::builder().nodes(2).build().expect("valid");
    let engine = LoopLynx::new(model, arch).expect("partitions");
    let mut group = c.benchmark_group("token_latency_vs_context");
    for context in [32usize, 128, 512, 1024] {
        group.bench_with_input(BenchmarkId::from_parameter(context), &context, |b, &ctx| {
            b.iter(|| engine.scheduler().schedule_rows(&[black_box(ctx)], true))
        });
    }
    group.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(800))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_token_simulation, bench_context_sweep
}
criterion_main!(benches);
