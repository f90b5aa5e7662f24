//! Micro-benchmarks of the functional hot path: the SIMD int8 dot, the
//! quantized linear as the engine calls it (`forward_batch_scaled_into`
//! at 1 and 16 rows), the arena-backed attention loop (one decode query,
//! and a 32-row prefill chunk's causal queries in one K/V walk), the stage prologue's
//! layer norm → quantize over a batch of rows, the f32 critical-path
//! operators (layernorm / GELU / softmax / quantize), so regressions in
//! any single stage are visible in isolation — and one whole 32-row
//! prefill chunk of the medium-shaped model through the engine, every
//! stage together.

use std::hint::black_box;
use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use looplynx_core::engine::DistributedGpt2;
use looplynx_core::router::RingMode;
use looplynx_model::attention::{attend_heads_segments_into, attend_rows_segments_to, AttnScratch};
use looplynx_model::config::ModelConfig;
use looplynx_model::gpt2::Gpt2Model;
use looplynx_model::kv_cache::LayerKvCache;
use looplynx_tensor::activation::{gelu_vec, softmax_into};
use looplynx_tensor::linear::QuantLinear;
use looplynx_tensor::matrix::Matrix;
use looplynx_tensor::norm::{layernorm, layernorm_quantize_rows, LayerNormParams};
use looplynx_tensor::quant::quantize_into;
use looplynx_tensor::simd::{dot_i8_i32, dot_i8_i32_scalar};

fn i8_vec(len: usize, seed: usize) -> Vec<i8> {
    (0..len)
        .map(|i| ((i * 37 + seed) % 255) as i8 - 127)
        .collect()
}

fn f32_vec(len: usize, seed: usize) -> Vec<f32> {
    (0..len)
        .map(|i| ((i * 13 + seed) as f32 * 0.173).sin())
        .collect()
}

fn bench_dot(c: &mut Criterion) {
    let mut group = c.benchmark_group("dot_i8");
    for len in [16usize, 64, 1024] {
        let a = i8_vec(len, 1);
        let b = i8_vec(len, 5);
        group.bench_with_input(BenchmarkId::new("simd", len), &len, |bch, _| {
            bch.iter(|| dot_i8_i32(black_box(&a), black_box(&b)))
        });
        group.bench_with_input(BenchmarkId::new("scalar", len), &len, |bch, _| {
            bch.iter(|| dot_i8_i32_scalar(black_box(&a), black_box(&b)))
        });
    }
    group.finish();
}

fn bench_linear(c: &mut Criterion) {
    let w = Matrix::from_fn(1024, 1024, |r, c2| ((r + c2) as f32 * 0.001).sin() * 0.1);
    let lin = QuantLinear::from_f32(&w, &vec![0.0f32; 1024]).expect("bias");
    let (mut acc, mut out) = (Vec::new(), Vec::new());
    let mut group = c.benchmark_group("quantlinear_1024x1024");
    for rows in [1usize, 16] {
        let x = Matrix::from_fn(rows, 1024, |t, c2| ((t * 11 + c2) % 255) as i8 - 127);
        let scales = vec![0.01f32; rows];
        group.bench_with_input(BenchmarkId::new("batch_scaled", rows), &rows, |b, _| {
            b.iter(|| lin.forward_batch_scaled_into(black_box(&x), &scales, &mut acc, &mut out))
        });
    }
    group.finish();
}

fn bench_attend(c: &mut Criterion) {
    // gpt2-medium geometry: 16 heads × 64 d_head over a 512-token cache.
    let (heads, d_head, ctx) = (16usize, 64usize, 512usize);
    let mut cache = LayerKvCache::with_capacity(d_head, heads, ctx);
    for t in 0..ctx {
        let k = f32_vec(heads * d_head, t);
        let v = f32_vec(heads * d_head, t + 9000);
        cache.append(&k, &v);
    }
    let q = f32_vec(heads * d_head, 77);
    let mut scratch = AttnScratch::new();
    let mut out = Vec::new();
    c.bench_function("attend_16h_64d_ctx512", |b| {
        b.iter(|| {
            attend_heads_segments_into(
                black_box(&q),
                |h| cache.segments(h),
                0..heads,
                0,
                d_head,
                ctx,
                &mut scratch,
                &mut out,
            )
        })
    });

    // A 32-token prefill chunk ending at context 192: row t attends to the
    // 161 + t tokens up to and including its own, the rows sharing one
    // K/V walk (every row's query is `q`).
    let (chunk, end) = (32usize, 192usize);
    let mut rows_out = vec![0.0f32; chunk * heads * d_head];
    c.bench_function("attend_chunk32_ctx192", |b| {
        b.iter(|| {
            attend_rows_segments_to(
                black_box(&q),
                0,
                |h| cache.segments(h),
                0..heads,
                0,
                d_head,
                end - chunk + 1,
                &mut scratch,
                &mut rows_out,
            )
        })
    });
}

fn bench_critical_path_ops(c: &mut Criterion) {
    let x = f32_vec(1024, 2);
    let ln = LayerNormParams::identity(1024);
    c.bench_function("layernorm_1024", |b| {
        b.iter(|| layernorm(black_box(&x), &ln))
    });
    // The prologue of a batch-16 decode step's QKV / FC1 / LM head.
    let rows = f32_vec(16 * 1024, 8);
    let (mut h, mut rows8, mut scales) = (Vec::new(), Vec::new(), Vec::new());
    c.bench_function("ln_quant_rows_16x1024", |b| {
        b.iter(|| {
            layernorm_quantize_rows(
                black_box(&rows),
                1024,
                Some(&ln),
                &mut h,
                &mut rows8,
                &mut scales,
            )
        })
    });
    let g = f32_vec(4096, 4);
    c.bench_function("gelu_4096", |b| b.iter(|| gelu_vec(black_box(&g))));
    let scores = f32_vec(512, 6);
    let mut weights = Vec::new();
    c.bench_function("softmax_into_512", |b| {
        b.iter(|| softmax_into(black_box(&scores), &mut weights))
    });
    let mut q8 = Vec::new();
    c.bench_function("quantize_into_1024", |b| {
        b.iter(|| quantize_into(black_box(&x), &mut q8))
    });
}

/// One 32-row `prefill_slot_chunk` of the medium-shaped model (gpt2-medium's
/// layer geometry, 4 layers, the repo benchmark's model) at context 128, on
/// one node with the engine's default lanes. Each iteration maps the first
/// 128 prompt tokens back into a fresh slot from the prefix cache, feeds
/// the chunk and releases the slot: the mapping and the release cost a few
/// µs against milliseconds for the chunk.
fn bench_prefill_chunk(c: &mut Criterion) {
    let cfg = ModelConfig {
        name: "medium-shaped".into(),
        layers: 4,
        d_model: 1024,
        heads: 16,
        d_ff: 4096,
        vocab: 4096,
        max_seq: 256,
    };
    let model = Gpt2Model::synthetic(&cfg, 4207);
    let mut eng = DistributedGpt2::with_slots(&model, 1, RingMode::Exact, 1, 256).expect("1 node");
    eng.enable_prefix_cache();
    let prompt: Vec<u32> = (0..160).map(|i| (i * 31 % 4096) as u32).collect();
    let (context, chunk) = prompt.split_at(128);
    let feed = |eng: &mut DistributedGpt2, cached: bool| {
        let slot = eng.acquire_slot().expect("one slot");
        // A lookup leaves at least one token to feed, hence the 129th.
        let hit = eng.prefix_attach(slot, &prompt[..129]);
        assert_eq!(
            hit,
            if cached { 128 } else { 0 },
            "context comes from the cache"
        );
        if !cached {
            for part in context.chunks(32) {
                eng.prefill_slot_chunk(slot, part, false);
            }
        }
        eng.prefill_slot_chunk(slot, chunk, false);
        eng.release_slot(slot);
    };
    feed(&mut eng, false);
    // Pool lanes that were idle run their first ~1.6 s slow (README).
    let warm = Instant::now();
    while warm.elapsed() < Duration::from_secs(2) {
        feed(&mut eng, true);
    }
    c.bench_function("prefill_chunk32_medium", |b| {
        b.iter(|| feed(&mut eng, true))
    });
}

criterion_group!(
    benches,
    bench_dot,
    bench_linear,
    bench_attend,
    bench_critical_path_ops,
    bench_prefill_chunk
);
criterion_main!(benches);
