//! Fig. 5 ablation bench: token simulation under every optimization-flag
//! combination, printing the simulated latencies (the paper's Fig. 5
//! series) alongside Criterion's measurement of the simulator.

use std::hint::black_box;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};

use looplynx_bench::experiments::{fig5, TABLE2_CONTEXT};
use looplynx_core::config::{ArchConfig, OptimizationFlags};
use looplynx_core::engine::LoopLynx;
use looplynx_model::config::ModelConfig;

fn bench_optimization_levels(c: &mut Criterion) {
    let model = ModelConfig::gpt2_medium();
    for level in fig5(&model) {
        eprintln!(
            "[fig5] {}: {:.2} ms (-{:.1}% vs baseline)",
            level.label,
            level.token_ms,
            level.reduction_vs_baseline * 100.0
        );
    }
    let combos: [(&str, OptimizationFlags); 4] = [
        ("none", OptimizationFlags::NONE),
        (
            "fuse_ln_res",
            OptimizationFlags {
                fuse_ln_res: true,
                headwise_pipeline: false,
                hide_transmission: false,
            },
        ),
        (
            "fuse+headwise",
            OptimizationFlags {
                fuse_ln_res: true,
                headwise_pipeline: true,
                hide_transmission: false,
            },
        ),
        ("all", OptimizationFlags::ALL),
    ];
    let mut group = c.benchmark_group("fig5_ablation");
    for (label, opts) in combos {
        let arch = ArchConfig::builder()
            .nodes(2)
            .opts(opts)
            .build()
            .expect("valid");
        let engine = LoopLynx::new(model.clone(), arch).expect("partitions");
        group.bench_function(label, |b| {
            b.iter(|| {
                engine
                    .scheduler()
                    .schedule_rows(&[black_box(TABLE2_CONTEXT)], true)
            })
        });
    }
    group.finish();
}

fn bench_transmission_hiding(c: &mut Criterion) {
    // The multi-node-only ablation: hide_transmission matters at 4 nodes.
    let model = ModelConfig::gpt2_medium();
    let mut group = c.benchmark_group("transmission_hiding_4node");
    for (label, hide) in [("hidden", true), ("exposed", false)] {
        let arch = ArchConfig::builder()
            .nodes(4)
            .opts(OptimizationFlags {
                hide_transmission: hide,
                ..OptimizationFlags::ALL
            })
            .build()
            .expect("valid");
        let engine = LoopLynx::new(model.clone(), arch).expect("partitions");
        let ms = engine.steady_state_decode_ms(TABLE2_CONTEXT);
        eprintln!("[transmission] 4-node sync {label}: {ms:.3} ms/token");
        group.bench_function(label, |b| {
            b.iter(|| {
                engine
                    .scheduler()
                    .schedule_rows(&[black_box(TABLE2_CONTEXT)], true)
            })
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
    targets = bench_optimization_levels, bench_transmission_hiding
}
criterion_main!(benches);
