//! Micro-benchmarks of the functional hot path: the SIMD int8 dot, the
//! quantized linear as the engine calls it (`forward_batch_scaled_into`
//! at 1 and 16 rows), the arena-backed attention loop (one decode query,
//! and a 32-row prefill chunk's causal queries), the stage prologue's
//! layer norm → quantize over a batch of rows, and the f32 critical-path
//! operators (layernorm / GELU / softmax / quantize), so regressions in
//! any single stage are visible in isolation.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use looplynx_model::attention::{attend_heads_segments_into, AttnScratch};
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
    // 161 + t tokens up to and including its own.
    let (chunk, end) = (32usize, 192usize);
    c.bench_function("attend_chunk32_ctx192", |b| {
        b.iter(|| {
            for valid_len in end - chunk + 1..=end {
                attend_heads_segments_into(
                    black_box(&q),
                    |h| cache.segments(h),
                    0..heads,
                    0,
                    d_head,
                    valid_len,
                    &mut scratch,
                    &mut out,
                );
            }
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

criterion_group!(
    benches,
    bench_dot,
    bench_linear,
    bench_attend,
    bench_critical_path_ops
);
criterion_main!(benches);
