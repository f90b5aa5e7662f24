//! Outside-in layer probes: timed direct calls into the public functions
//! of each layer, run in the traced pass only. Byte figures and MAC
//! counts are computed from tensor sizes, not measured.

use std::hint::black_box;
use std::time::{Duration, Instant};

use looplynx_core::backend::SimBackend;
use looplynx_core::config::ArchConfig;
use looplynx_core::engine::{DistributedGpt2, LoopLynx};
use looplynx_core::pool::WorkerPool;
use looplynx_model::attention::{
    attend_heads_fused_segments_into, attend_heads_segments_into, AttnScratch,
};
use looplynx_model::config::ModelConfig;
use looplynx_model::gpt2::Gpt2Model;
use looplynx_model::paged::PagedKvArena;
use looplynx_model::prefix::PrefixIndex;
use looplynx_serve::gateway::{serve_gateway_on, GatewayRequest};
use looplynx_tensor::linear::QuantLinear;
use looplynx_tensor::matrix::Matrix;
use looplynx_tensor::simd;

use crate::fixture::{model_config, Fixture, MAX_SEQ};
use crate::stats::{median, percentile_or_zero};
use crate::workloads::{Rng, Spec, PAGE_TOKENS};

/// Named values, in emission order.
pub type Metrics = Vec<(String, f64)>;

/// How long each timed probe samples, and how many engine steps it takes.
#[derive(Debug, Clone, Copy)]
pub struct Effort {
    pub sample: Duration,
    pub engine_steps: usize,
}

impl Effort {
    pub fn full() -> Self {
        Effort {
            sample: Duration::from_millis(120),
            engine_steps: 24,
        }
    }

    pub fn quick() -> Self {
        Effort {
            sample: Duration::from_millis(25),
            engine_steps: 8,
        }
    }
}

/// Median seconds per call of `f`, sampled for about `budget`. Calls too
/// short for the clock are timed in groups.
fn time_it(budget: Duration, mut f: impl FnMut()) -> f64 {
    f();
    let start = Instant::now();
    f();
    let once = start.elapsed().as_secs_f64().max(1e-9);
    let group = ((50e-6 / once).ceil() as usize).clamp(1, 1 << 20);
    let deadline = Instant::now() + budget;
    let mut samples = Vec::new();
    while samples.len() < 5 || (Instant::now() < deadline && samples.len() < 20_000) {
        let start = Instant::now();
        for _ in 0..group {
            f();
        }
        samples.push(start.elapsed().as_secs_f64() / group as f64);
    }
    median(&samples).unwrap_or(0.0)
}

fn random_i8(rng: &mut Rng, n: usize) -> Vec<i8> {
    (0..n).map(|_| rng.next_u64() as i8).collect()
}

fn random_f32(rng: &mut Rng, n: usize) -> Vec<f32> {
    (0..n)
        .map(|_| (rng.next_u64() % 2001) as f32 / 1000.0 - 1.0)
        .collect()
}

/// Peak int8 MAC rate of one core, in GMAC/s: the GEMM's 4×4 register
/// tile over operands that stay in L1. Also the drift sentinel.
pub fn dot_peak_gmacs(budget: Duration) -> f64 {
    const K: usize = 1024;
    let mut rng = Rng::new(1);
    let w: Vec<Vec<i8>> = (0..4).map(|_| random_i8(&mut rng, K)).collect();
    let x: Vec<Vec<u8>> = (0..4)
        .map(|_| (0..K).map(|_| rng.next_u64() as u8).collect())
        .collect();
    let sums = [0, 1, 2, 3].map(|r| simd::row_sum_i8(&w[r]));
    let per_call = time_it(budget, || {
        black_box(simd::dot_biased_i8_i32_tile4x4(
            black_box([&w[0], &w[1], &w[2], &w[3]]),
            sums,
            [&x[0], &x[1], &x[2], &x[3]],
        ));
    });
    16.0 * K as f64 / per_call / 1e9
}

/// The machine's roofline as this code can reach it.
struct Roofline {
    stream_gbps: f64,
    dot_peak_gmacs: f64,
}

/// `simd.*`: memory stream rate and the peak rates of the SIMD kernels.
fn simd_probes(effort: Effort, out: &mut Metrics) -> Roofline {
    let mut rng = Rng::new(2);
    // Far larger than any cache level, so the sum streams from memory.
    let big: Vec<u64> = (0..(64 << 20) / 8).map(|i| i as u64).collect();
    let stream_s = time_it(effort.sample, || {
        black_box(black_box(&big).iter().fold(0u64, |a, &b| a.wrapping_add(b)));
    });
    let stream_gbps = (big.len() * 8) as f64 / stream_s / 1e9;
    drop(big);
    let dot_peak = dot_peak_gmacs(effort.sample);

    let src = random_f32(&mut rng, 4096);
    let mut dst = vec![0i8; 4096];
    let quantize_s = time_it(effort.sample, || {
        simd::quantize_slice(black_box(&src), 0.01, &mut dst);
        black_box(&dst);
    });
    let mut act = random_f32(&mut rng, 4096);
    let gelu_s = time_it(effort.sample, || {
        simd::gelu_slice(black_box(&mut act));
    });
    let v = random_i8(&mut rng, 4096);
    let mut acc = vec![0f32; 4096];
    let axpy_s = time_it(effort.sample, || {
        simd::accumulate_scaled_i8(&mut acc, black_box(&v), 1e-6);
        black_box(&acc);
    });

    out.push(("simd.stream_gbps".into(), stream_gbps));
    out.push(("simd.dot_peak_gmacs".into(), dot_peak));
    // f32 read + i8 written per element.
    out.push(("simd.quantize_gbps".into(), 4096.0 * 5.0 / quantize_s / 1e9));
    out.push(("simd.gelu_gelems".into(), 4096.0 / gelu_s / 1e9));
    // i8 read, f32 read and written per element.
    out.push(("simd.axpy_gbps".into(), 4096.0 * 9.0 / axpy_s / 1e9));
    Roofline {
        stream_gbps,
        dot_peak_gmacs: dot_peak,
    }
}

/// Seconds per `forward_batch_scaled_into` call of `layer` at `batch` rows.
fn linear_s(effort: Effort, layer: &QuantLinear, batch: usize) -> f64 {
    let mut rng = Rng::new(batch as u64);
    let cols = layer.in_features();
    let x = Matrix::from_vec(batch, cols, random_i8(&mut rng, batch * cols))
        .expect("batch × in_features values");
    let scales = vec![0.01f32; batch];
    let (mut acc, mut out) = (Vec::new(), Vec::new());
    time_it(effort.sample, || {
        layer.forward_batch_scaled_into(black_box(&x), &scales, &mut acc, &mut out);
        black_box(&out);
    })
}

/// Single-thread kernel seconds for one decode step's linears, as the
/// `engine.unattributed_frac.*` and `calib.*` sums need.
pub struct KernelTimes {
    /// Σ over qkv, out, fc1, fc2 of one layer, at batch 1 and 16.
    pub block_linears_s: [f64; 2],
    pub lm_head_s: [f64; 2],
}

/// `linear.*`: the five model shapes at the batch sizes decode and a
/// 32-row prefill chunk use.
fn linear_probes(
    effort: Effort,
    model: &Gpt2Model,
    roof: &Roofline,
    out: &mut Metrics,
) -> KernelTimes {
    let block = &model.weights().blocks[0];
    let shapes: [(&str, &QuantLinear, &[usize]); 5] = [
        ("qkv", &block.qkv, &[1, 16]),
        ("out", &block.proj, &[1, 16]),
        ("fc1", &block.fc1, &[1, 4, 8, 16, 32]),
        ("fc2", &block.fc2, &[1, 16]),
        ("lmhead", &model.weights().lm_head, &[1, 16]),
    ];
    let mut times = KernelTimes {
        block_linears_s: [0.0; 2],
        lm_head_s: [0.0; 2],
    };
    let mut fc1 = [0.0f64; 2];
    for (name, layer, batches) in shapes {
        let macs = (layer.out_features() * layer.in_features()) as f64;
        for &b in batches {
            let s = linear_s(effort, layer, b);
            out.push((
                format!("linear.gmacs.{name}_b{b}"),
                b as f64 * macs / s / 1e9,
            ));
            if let Some(i) = [1, 16].iter().position(|&x| x == b) {
                match name {
                    "lmhead" => times.lm_head_s[i] = s,
                    _ => times.block_linears_s[i] += s,
                }
                if name == "fc1" {
                    fc1[i] = s;
                }
            }
        }
    }
    let fc1_bytes = block.fc1.weight_bytes() as f64;
    out.push(("linear.weight_gbps.fc1_b1".into(), fc1_bytes / fc1[0] / 1e9));
    // Roofline: the lower of peak MAC rate and stream rate × MACs per
    // weight byte (one MAC per byte per batch row).
    for (i, b) in [(0, 1.0), (1, 16.0)] {
        let bound = roof.dot_peak_gmacs.min(roof.stream_gbps * b);
        let achieved = b * fc1_bytes / fc1[i] / 1e9;
        out.push((
            format!("linear.roofline_frac.fc1_b{}", b as usize),
            achieved / bound,
        ));
    }
    times
}

/// A one-slot arena holding `ctx` tokens of random KV in `layers` layers.
fn filled_arena(layers: usize, cfg: &ModelConfig, ctx: usize) -> PagedKvArena {
    let mut rng = Rng::new(ctx as u64);
    let mut arena = PagedKvArena::new(
        layers,
        cfg.d_head(),
        cfg.heads,
        2,
        MAX_SEQ,
        PAGE_TOKENS,
        2 * MAX_SEQ / PAGE_TOKENS,
    );
    let slot = arena.acquire().expect("fresh arena has a free slot");
    arena
        .try_reserve(slot, ctx)
        .expect("pool holds one sequence");
    for t in 0..ctx {
        let (k, v) = (
            random_f32(&mut rng, cfg.d_model),
            random_f32(&mut rng, cfg.d_model),
        );
        for layer in 0..layers {
            arena.append_at(slot, layer, t, &k, &v);
        }
    }
    arena.advance(slot, ctx);
    arena
}

/// Seconds for one query's full-width attention over `ctx` paged tokens.
fn attention_s(effort: Effort, cfg: &ModelConfig, ctx: usize, fused: bool) -> f64 {
    let arena = filled_arena(1, cfg, ctx);
    let view = arena.layer_view(0, 0);
    let q = random_f32(&mut Rng::new(3), cfg.d_model);
    let (mut scratch, mut out) = (AttnScratch::new(), Vec::new());
    let (heads, d_head) = (cfg.heads, cfg.d_head());
    time_it(effort.sample, || {
        let segments = |h| view.segments(h);
        if fused {
            attend_heads_fused_segments_into(
                black_box(&q),
                segments,
                0..heads,
                0,
                d_head,
                ctx,
                &mut scratch,
                &mut out,
            );
        } else {
            attend_heads_segments_into(
                black_box(&q),
                segments,
                0..heads,
                0,
                d_head,
                ctx,
                &mut scratch,
                &mut out,
            );
        }
        black_box(&out);
    })
}

/// `attention.*`: both kernels over a paged layer view, 16 heads.
fn attention_probes(effort: Effort, out: &mut Metrics) {
    let cfg = model_config();
    for ctx in [64usize, 256] {
        let materialized = attention_s(effort, &cfg, ctx, false);
        out.push((
            format!("attention.materialized_us.ctx{ctx}"),
            materialized * 1e6,
        ));
        out.push((
            format!("attention.fused_us.ctx{ctx}"),
            attention_s(effort, &cfg, ctx, true) * 1e6,
        ));
        if ctx == 256 {
            // int8 keys and values plus one f32 scale each per head.
            let bytes = ctx * (2 * cfg.d_model + 2 * 4 * cfg.heads);
            out.push((
                "attention.kv_gbps.ctx256".into(),
                bytes as f64 / materialized / 1e9,
            ));
        }
    }
}

/// `paged.*` call costs on an arena with the model's layer count.
fn paged_probes(effort: Effort, out: &mut Metrics) {
    let cfg = model_config();
    let pages = 16usize;
    let tokens = pages * PAGE_TOKENS;
    let mut arena = filled_arena(cfg.layers, &cfg, tokens);
    let donor_pages: Vec<usize> = arena.slot_pages(0).to_vec();

    // reserve: one fresh page per call, a 16-page sequence per sample.
    let reserve_s = time_it(effort.sample, || {
        let slot = arena.acquire().expect("second slot is free");
        for _ in 0..pages {
            arena.try_reserve(slot, PAGE_TOKENS).expect("pool has room");
            arena.advance(slot, PAGE_TOKENS);
        }
        arena.release(slot);
    });
    // release alone: the clock starts after the 16-page reserve.
    let mut releases = Vec::new();
    let deadline = Instant::now() + effort.sample;
    while releases.len() < 5 || Instant::now() < deadline {
        let slot = arena.acquire().expect("second slot is free");
        arena.try_reserve(slot, tokens).expect("pool has room");
        arena.advance(slot, tokens);
        let start = Instant::now();
        black_box(arena.release(slot));
        releases.push(start.elapsed().as_secs_f64());
    }
    let release_s = median(&releases).unwrap_or(0.0);
    let map_s = time_it(effort.sample, || {
        let slot = arena.acquire().expect("second slot is free");
        arena.map_shared(slot, &donor_pages, tokens);
        arena.release(slot);
    });
    // A prefix ending mid-page: the first append must fork the boundary
    // page in every layer.
    let partial = tokens - PAGE_TOKENS / 2;
    let cow_s = time_it(effort.sample, || {
        let slot = arena.acquire().expect("second slot is free");
        arena.map_shared(slot, &donor_pages, partial);
        arena.try_reserve(slot, 1).expect("pool has room");
        arena.release(slot);
    });
    out.push(("paged.reserve_ns".into(), reserve_s / pages as f64 * 1e9));
    out.push(("paged.release_us".into(), release_s * 1e6));
    out.push(("paged.map_shared_ns".into(), map_s * 1e9));
    out.push(("paged.cow_fork_us".into(), (cow_s - map_s).max(0.0) * 1e6));
}

/// `prefix.lookup_us.*` and `prefix.register_us` on an index holding 64
/// ten-page chains.
fn prefix_probes(effort: Effort, out: &mut Metrics) {
    let mut rng = Rng::new(4);
    let len = 10 * PAGE_TOKENS;
    let chains: Vec<Vec<u32>> = (0..64).map(|_| rng.tokens(len + 1)).collect();
    let pages: Vec<usize> = (0..len / PAGE_TOKENS).collect();
    let build = |chains: &[Vec<u32>]| {
        let mut index = PrefixIndex::new(PAGE_TOKENS);
        for c in chains {
            index.register(&c[..len], &pages);
        }
        index
    };
    let mut index = build(&chains);
    let mut i = 0;
    let hit_s = time_it(effort.sample, || {
        i = (i + 1) % chains.len();
        black_box(index.lookup(&chains[i]));
    });
    let strangers: Vec<Vec<u32>> = (0..64).map(|_| rng.tokens(len + 1)).collect();
    let miss_s = time_it(effort.sample, || {
        i = (i + 1) % strangers.len();
        black_box(index.lookup(&strangers[i]));
    });
    // Each sample registers 64 fresh chains into a rebuilt index, so
    // every link is an insert, never a dedupe.
    let rebuild_s = time_it(effort.sample, || {
        black_box(build(&chains[..1]));
    });
    let register_s = time_it(effort.sample, || {
        black_box(build(&chains));
    });
    out.push(("prefix.lookup_us.hit".into(), hit_s * 1e6));
    out.push(("prefix.lookup_us.miss".into(), miss_s * 1e6));
    out.push((
        "prefix.register_us".into(),
        (register_s - rebuild_s).max(0.0) / 63.0 * 1e6,
    ));
}

/// `pool.dispatch_join_us.w2`: one round of no-op jobs on two workers.
fn pool_probe(effort: Effort, out: &mut Metrics) {
    let pool = WorkerPool::new(2);
    let round_s = time_it(effort.sample, || {
        let jobs = (0..2usize).map(|i| Box::new(move || i) as Box<dyn FnOnce() -> usize + Send>);
        black_box(pool.run(jobs));
    });
    out.push(("pool.dispatch_join_us.w2".into(), round_s * 1e6));
}

/// What the workload-independent probes found: their metrics, and the
/// kernel times the per-workload engine attribution reuses.
pub struct Shared {
    pub metrics: Metrics,
    kernels: KernelTimes,
}

/// The probes that do not depend on the workload — `simd`, `linear`,
/// `attention`, `paged`, `prefix`, `pool` — run once per process.
pub fn shared_probes(effort: Effort, model: &Gpt2Model) -> Shared {
    let mut metrics = Metrics::new();
    let roof = simd_probes(effort, &mut metrics);
    let kernels = linear_probes(effort, model, &roof, &mut metrics);
    attention_probes(effort, &mut metrics);
    paged_probes(effort, &mut metrics);
    prefix_probes(effort, &mut metrics);
    pool_probe(effort, &mut metrics);
    Shared { metrics, kernels }
}

/// Median seconds per `decode_step_batch` over each of `batches`, on 16
/// sequences prefilled once so that context passes through `ctx` halfway
/// through the first timed steps. Largest batch first: later, smaller
/// batches reuse the leading slots, whose context has by then grown by the
/// earlier steps — a few dozen tokens of attention, under 1 % of a step.
fn decode_steps_s(
    engine: &mut DistributedGpt2,
    batches: &[usize],
    ctx: usize,
    steps: usize,
) -> Vec<f64> {
    let mut rng = Rng::new(ctx as u64);
    let start_ctx = ctx.saturating_sub(steps / 2).max(1);
    let slots: Vec<usize> = (0..16)
        .map(|_| {
            let slot = engine.acquire_slot().expect("probe engine has 16 slots");
            engine.prefill_slot_chunk(slot, &rng.tokens(start_ctx), false);
            slot
        })
        .collect();
    let mut order: Vec<usize> = (0..batches.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(batches[i]));
    let mut out = vec![0.0; batches.len()];
    for i in order {
        let samples: Vec<f64> = (0..steps)
            .map(|_| {
                let entries: Vec<(usize, u32)> = slots[..batches[i]]
                    .iter()
                    .map(|&s| (s, rng.tokens(1)[0]))
                    .collect();
                let start = Instant::now();
                black_box(engine.decode_step_batch(&entries));
                start.elapsed().as_secs_f64()
            })
            .collect();
        out[i] = median(&samples).unwrap_or(0.0);
    }
    for slot in slots {
        engine.release_slot(slot);
    }
    out
}

/// Median seconds per 32-token `prefill_slot_chunk` around context `ctx`.
fn prefill_chunk_s(engine: &mut DistributedGpt2, ctx: usize, chunks: usize) -> f64 {
    let mut rng = Rng::new(ctx as u64);
    let slot = engine.acquire_slot().expect("probe engine has 16 slots");
    engine.prefill_slot_chunk(slot, &rng.tokens(ctx.max(1)), false);
    let samples: Vec<f64> = (0..chunks)
        .map(|_| {
            let chunk = rng.tokens(32);
            let start = Instant::now();
            black_box(engine.prefill_slot_chunk(slot, &chunk, false));
            start.elapsed().as_secs_f64()
        })
        .collect();
    engine.release_slot(slot);
    median(&samples).unwrap_or(0.0)
}

/// `engine.*` and `calib.*`: direct engine calls at the workload's median
/// context, on 1 and 2 nodes.
pub fn engine_probes(
    effort: Effort,
    fixture: &Fixture,
    spec: &Spec,
    shared: &Shared,
    out: &mut Metrics,
) {
    let kernels = &shared.kernels;
    let ctx = spec.median_context();
    // One sequence's full-width attention at this workload's context.
    let attention_s = attention_s(effort, &model_config(), ctx, false);
    let steps = effort.engine_steps;
    let layers = model_config().layers as f64;
    let pool_pages = 16 * (ctx + 4 * steps + 4 * 32).div_ceil(PAGE_TOKENS);
    let mut step_ms = std::collections::BTreeMap::new();
    let mut chunk_s = [0.0f64; 2];
    let mut workers = [1usize; 2];
    for (n, nodes) in [1usize, 2].into_iter().enumerate() {
        let mut engine = fixture.engine(nodes, 16, pool_pages.max(MAX_SEQ / PAGE_TOKENS));
        workers[n] = if engine.threaded() {
            nodes * engine.row_shards()
        } else {
            1
        };
        let batches: &[usize] = if nodes == 1 {
            &[1, 4, 8, 16]
        } else {
            &[1, 4, 16]
        };
        for (&b, s) in batches
            .iter()
            .zip(decode_steps_s(&mut engine, batches, ctx, steps))
        {
            step_ms.insert((nodes, b), s * 1e3);
            out.push((format!("engine.decode_step_ms.n{nodes}_b{b}"), s * 1e3));
        }
        chunk_s[n] = prefill_chunk_s(&mut engine, ctx, (steps / 6).max(3));
        if nodes == 1 {
            // A six-page prompt released into the cache, then mapped
            // back and released again per sample.
            let prompt = Rng::new(6).tokens(6 * PAGE_TOKENS + 1);
            let slot = engine.acquire_slot().expect("probe engine has 16 slots");
            engine.prefill_slot_chunk(slot, &prompt[..6 * PAGE_TOKENS], false);
            engine.release_slot(slot);
            let (mut attach, mut release) = (Vec::new(), Vec::new());
            let deadline = Instant::now() + effort.sample;
            while attach.len() < 5 || Instant::now() < deadline {
                let slot = engine.acquire_slot().expect("probe engine has 16 slots");
                let start = Instant::now();
                let hit = engine.prefix_attach(slot, &prompt);
                attach.push(start.elapsed().as_secs_f64() * 1e6);
                assert_eq!(hit, 6 * PAGE_TOKENS, "probe prompt must hit six pages");
                let start = Instant::now();
                black_box(engine.release_slot(slot));
                release.push(start.elapsed().as_secs_f64() * 1e6);
            }
            out.push((
                "engine.prefix_attach_us.hit6p".into(),
                percentile_or_zero(&attach, 50.0),
            ));
            out.push((
                "engine.release_us".into(),
                percentile_or_zero(&release, 50.0),
            ));
        }
    }
    for (n, nodes) in [1usize, 2].into_iter().enumerate() {
        out.push((
            format!("engine.prefill_chunk_ms.n{nodes}_c32"),
            chunk_s[n] * 1e3,
        ));
        out.push((format!("engine.prefill_tok_s.n{nodes}"), 32.0 / chunk_s[n]));
    }
    for b in [1usize, 16] {
        out.push((
            format!("engine.ring_ratio.b{b}"),
            step_ms[&(1, b)] / step_ms[&(2, b)],
        ));
    }
    out.push((
        "engine.batch_speedup.b16".into(),
        16.0 * step_ms[&(1, 1)] / step_ms[&(1, 16)],
    ));
    // Kernel probes are single-threaded; a step spreads them over the
    // engine's workers, so the attributed share assumes ideal scaling.
    // The remainder is dispatch/join, gather, epilogues, the LM head and
    // whatever parallel efficiency is lost.
    let attributed_ms = |i: usize, b: usize, workers: usize| {
        layers * (kernels.block_linears_s[i] + b as f64 * attention_s) * 1e3 / workers as f64
    };
    for (nodes, i, b) in [(1usize, 0usize, 1usize), (1, 1, 16), (2, 0, 1)] {
        out.push((
            format!("engine.unattributed_frac.n{nodes}_b{b}"),
            1.0 - attributed_ms(i, b, workers[nodes - 1]) / step_ms[&(nodes, b)],
        ));
    }
    // The functional counterparts of the simulator's Fig. 5 shares, at
    // batch 1 on this workload's ring size.
    let w = workers[spec.nodes - 1] as f64;
    let step = step_ms[&(spec.nodes, 1)];
    out.push((
        "calib.linear_frac".into(),
        (layers * kernels.block_linears_s[0] + kernels.lm_head_s[0]) * 1e3 / w / step,
    ));
    out.push((
        "calib.mha_frac".into(),
        layers * attention_s * 1e3 / w / step,
    ));
}

/// `sim.*`: the traced rep's requests replayed through the gateway on the
/// timing backend. Simulated time repeats exactly, so any change in it is
/// a declared modelling change.
pub fn sim_probes(spec: &Spec, calls: &[Vec<GatewayRequest>], out: &mut Metrics) {
    let timing_engine = |cfg: ModelConfig, nodes: usize| {
        let arch = ArchConfig::builder()
            .nodes(nodes)
            .build()
            .expect("paper architecture is valid");
        LoopLynx::new(cfg, arch).expect("model partitions over the ring")
    };
    let engine = timing_engine(model_config(), spec.nodes);
    let cfg = spec.gateway();
    let (mut ttft, mut tpot) = (Vec::new(), Vec::new());
    let (mut makespan_ms, mut tokens) = (0.0, 0usize);
    let start = Instant::now();
    for requests in calls {
        let report = serve_gateway_on(&mut SimBackend::new(&engine), requests, &cfg);
        makespan_ms += report.serving.makespan_ms();
        tokens += report.completed_tokens();
        for m in &report.serving.requests {
            ttft.push(m.ttft_ms());
            if m.decode_tokens >= 2 {
                tpot.push(m.tpot_ms());
            }
        }
    }
    let host_s = start.elapsed().as_secs_f64();
    out.push(("sim.ttft_ms_p50".into(), percentile_or_zero(&ttft, 50.0)));
    out.push(("sim.tpot_ms_p50".into(), percentile_or_zero(&tpot, 50.0)));
    out.push(("sim.makespan_ms".into(), makespan_ms));
    out.push(("sim.host_ms".into(), host_s * 1e3));
    out.push(("sim.tok_per_host_s".into(), tokens as f64 / host_s));

    // Fig. 5 buckets of one median-shaped generation on this ring.
    let offered: Vec<&GatewayRequest> = calls.iter().flatten().collect();
    let mid = |f: fn(&GatewayRequest) -> usize| {
        let xs: Vec<f64> = offered.iter().map(|r| f(r) as f64).collect();
        percentile_or_zero(&xs, 50.0) as usize
    };
    let generation =
        engine.simulate_generation(mid(|r| r.req.prefill_tokens), mid(|r| r.req.decode_tokens));
    let total = generation.breakdown.total().as_f64();
    out.push((
        "sim.linear_frac".into(),
        generation.breakdown.linear.as_f64() / total,
    ));
    out.push((
        "sim.mha_frac".into(),
        generation.breakdown.mha.as_f64() / total,
    ));
    out.push((
        "sim.sync_frac".into(),
        generation.breakdown.sync.as_f64() / total,
    ));
    for (nodes, paper_ms) in [1usize, 2, 4]
        .into_iter()
        .zip(looplynx_bench::paper::TABLE2_LOOPLYNX_MS)
    {
        let ms = timing_engine(ModelConfig::gpt2_medium(), nodes)
            .steady_state_decode_ms(looplynx_bench::experiments::TABLE2_CONTEXT);
        out.push((
            format!("sim.table2_err_pct.n{nodes}"),
            looplynx_bench::paper::deviation(ms, paper_ms) * 100.0,
        ));
    }
}
