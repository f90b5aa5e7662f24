//! Functional continuous-batching serving benchmark.
//!
//! Measures what the backend refactor bought: sustained output tokens/s
//! of the *functional* W8A8 engine serving a saturating request workload,
//! continuous batching at decode-batch ceilings of 1/4/8/16 against the
//! one-request-at-a-time sequential baseline. Unlike `serve_sweep`
//! (simulated accelerator time) this is measured host wall-clock — the
//! same clock domain as the `hotpath` benchmark.
//!
//! Decode is memory-bound: one token streams every weight byte once. The
//! sequential baseline pays that stream per request per token; batched
//! decode tiles each 32-row weight block across all resident sequences,
//! so one stream serves the whole batch — throughput should approach
//! `batch ×` until per-sequence attention work dominates.
//!
//! The `serve_functional` binary renders `BENCH_serve_functional.json`,
//! embedding the pinned pre-change baseline ([`BASELINE`]) so every run
//! reports its speedup against the single-sequence engine the repo had
//! before batched decode existed.

use std::time::Instant;

use looplynx_core::backend::{FunctionalBackend, SamplerSpec};
use looplynx_core::engine::DistributedGpt2;
use looplynx_core::router::RingMode;
use looplynx_model::config::ModelConfig;
use looplynx_model::gpt2::Gpt2Model;
use looplynx_serve::{serve_continuous_on, serve_sequential_on, ArrivalProcess, ServeConfig};

use crate::hotpath::medium_shaped;
use crate::report::{best_of, fields, Json};

/// Decode-batch ceilings swept.
pub const BATCH_SWEEP: [usize; 4] = [1, 4, 8, 16];

/// Single-sequence functional decode throughput of the **pre-change**
/// tree (PR 4 state: no batched decode, no slot arena), measured on this
/// repo by `hotpath` immediately before the backend refactor landed.
/// Sequential serving cannot beat single-sequence decode throughput, so
/// this is the bar batched decode is judged against.
pub const BASELINE: Baseline = Baseline {
    captured_at: "pre-batched-decode (PR 4 tree, hotpath best-of-5 before this refactor)",
    medium_decode_tok_s_1node: 251.4,
    tiny_decode_tok_s_1node: 48_088.0,
};

/// Pre-change reference numbers baked into the report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Baseline {
    /// Where the numbers come from.
    pub captured_at: &'static str,
    /// Decode tokens/s, [`medium_shaped`], 1 node, single sequence.
    pub medium_decode_tok_s_1node: f64,
    /// Decode tokens/s, `ModelConfig::tiny()`, 1 node, single sequence.
    pub tiny_decode_tok_s_1node: f64,
}

/// Page-pressure cell: fixed-stride vs paged KV at **equal arena
/// bytes**. The fixed-stride engine reserves `capacity` tokens per slot
/// up front, so its resident concurrency is hard-capped at
/// `arena_tokens / capacity` no matter how short the requests are. The
/// paged engine spends the same token pool page-by-page, so short
/// requests only hold what they touch and many more fit at once. The
/// acceptance bar for the paged-KV work is `concurrency_ratio >= 2`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PagePressure {
    /// Per-slot KV capacity (tokens) on both sides.
    pub capacity: usize,
    /// Total KV token pool — identical on both sides (equal arena bytes).
    pub arena_tokens: usize,
    /// Fixed-stride slots (= `arena_tokens / capacity`).
    pub fixed_slots: usize,
    /// Paged slots offered (oversubscribed against the pool).
    pub paged_slots: usize,
    /// Tokens per page on the paged side.
    pub page_tokens: usize,
    /// Pages in the paged pool (= `arena_tokens / page_tokens`).
    pub pool_pages: usize,
    /// Requests served (all arriving at t = 0).
    pub requests: usize,
    /// Prompt tokens per request.
    pub prefill_tokens: usize,
    /// Output tokens per request.
    pub decode_tokens: usize,
    /// Peak resident requests, fixed-stride arena (best repetition).
    pub fixed_peak_resident: f64,
    /// Peak resident requests, paged arena (best repetition).
    pub paged_peak_resident: f64,
    /// `paged_peak_resident / fixed_peak_resident` — must be ≥ 2.
    pub concurrency_ratio: f64,
    /// Sustained tokens/s over the makespan, fixed-stride arena.
    pub fixed_tok_s: f64,
    /// Sustained tokens/s over the makespan, paged arena.
    pub paged_tok_s: f64,
}

/// One row of the `batch_scaling` report section: how steady-state
/// decode throughput scales with the batch ceiling.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchScalingRow {
    /// Decode-batch ceiling.
    pub max_batch: usize,
    /// Steady-state decode tokens/s at this ceiling (best repetition).
    pub decode_tok_s: f64,
    /// Scaling over the batch-1 decode cell — the batching win isolated
    /// from everything else (same engine, same kernel, same slots).
    pub speedup_vs_batch1: f64,
    /// Speedup over the sequential decode phase (single-slot engine).
    pub speedup_vs_sequential_decode: f64,
}

/// One measured serving cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchPoint {
    /// Decode-batch ceiling (= resident slots).
    pub max_batch: usize,
    /// Sustained output tokens/s over the full serving makespan —
    /// prefills included (best repetition).
    pub tok_s: f64,
    /// Steady-state decode throughput: tokens per second over decode
    /// iterations only, all slots resident — the Table III convention
    /// ([`looplynx_core::engine::GenerationReport::tokens_per_second`]
    /// is likewise decode-only). Best repetition.
    pub decode_tok_s: f64,
}

/// The full functional-serving report.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeFunctionalReport {
    /// Model configuration name.
    pub model: String,
    /// Ring size.
    pub nodes: usize,
    /// Requests served per cell (all arriving at t = 0).
    pub requests: usize,
    /// Prompt tokens per request.
    pub prefill_tokens: usize,
    /// Output tokens per request.
    pub decode_tokens: usize,
    /// Sequential (one-request-at-a-time) serving tokens/s over the full
    /// makespan — **the sequential-serving baseline**.
    pub sequential_tok_s: f64,
    /// Sequential steady-state decode throughput (single resident
    /// sequence, decode iterations only).
    pub sequential_decode_tok_s: f64,
    /// Continuous batching at each ceiling of [`BATCH_SWEEP`].
    pub batched: Vec<BatchPoint>,
    /// Paged-vs-fixed resident-concurrency cell at equal arena bytes.
    pub page_pressure: PagePressure,
    /// Host wall-clock of the whole measurement.
    pub wall_s: f64,
    /// Whether the run used the reduced `--quick` workload.
    pub quick: bool,
}

impl ServeFunctionalReport {
    /// Batched decode tokens/s at the given ceiling (0.0 if not measured).
    pub fn batched_decode_tok_s(&self, max_batch: usize) -> f64 {
        self.batched
            .iter()
            .find(|p| p.max_batch == max_batch)
            .map_or(0.0, |p| p.decode_tok_s)
    }

    /// Batch-16 steady-state batched-decode throughput over the
    /// sequential-serving baseline — the acceptance metric of the
    /// batched-decode work (target ≥ 4×). Both sides are this report's
    /// own measurements: decode-phase tokens/s at batch 16 (the Table
    /// III decode-only convention) against the sequential serving run.
    pub fn batch16_speedup_vs_sequential(&self) -> f64 {
        if self.sequential_tok_s <= 0.0 {
            return 0.0;
        }
        self.batched_decode_tok_s(16) / self.sequential_tok_s
    }

    /// Like-for-like steady-state ratio: batched decode tokens/s at
    /// batch 16 over *sequential decode* tokens/s (prefill excluded on
    /// both sides).
    pub fn batch16_decode_speedup_vs_sequential_decode(&self) -> f64 {
        if self.sequential_decode_tok_s <= 0.0 {
            return 0.0;
        }
        self.batched_decode_tok_s(16) / self.sequential_decode_tok_s
    }

    /// The `batch_scaling` section: one row per swept ceiling with the
    /// decode-phase throughput and its speedups over the batch-1 cell
    /// and the sequential decode baseline. This is what CI gates on
    /// (batch 16 must not lose to batch 4).
    pub fn batch_scaling(&self) -> Vec<BatchScalingRow> {
        let batch1 = self.batched_decode_tok_s(1);
        self.batched
            .iter()
            .map(|p| BatchScalingRow {
                max_batch: p.max_batch,
                decode_tok_s: p.decode_tok_s,
                speedup_vs_batch1: if batch1 > 0.0 {
                    p.decode_tok_s / batch1
                } else {
                    0.0
                },
                speedup_vs_sequential_decode: if self.sequential_decode_tok_s > 0.0 {
                    p.decode_tok_s / self.sequential_decode_tok_s
                } else {
                    0.0
                },
            })
            .collect()
    }
}

fn fresh_backend(
    model: &Gpt2Model,
    nodes: usize,
    slots: usize,
    capacity: usize,
) -> FunctionalBackend {
    let engine = DistributedGpt2::with_slots(model, nodes, RingMode::Exact, slots, capacity)
        .expect("benchmark model partitions");
    FunctionalBackend::new(engine, SamplerSpec::Greedy)
}

/// Measures the page-pressure cell on `cfg`: serves the same burst of
/// short requests through the continuous batcher twice, once on a
/// fixed-stride arena and once on a paged arena holding the **same
/// total KV tokens**, and compares peak resident concurrency. Requests
/// peak at one page of context, so the paged side can keep every slot
/// resident while the fixed side is capped by its stride.
pub fn measure_page_pressure(cfg: &ModelConfig) -> PagePressure {
    const CAPACITY: usize = 64;
    const FIXED_SLOTS: usize = 4;
    const PAGE_TOKENS: usize = 16;
    const PAGED_SLOTS: usize = 16;
    const ARENA_TOKENS: usize = FIXED_SLOTS * CAPACITY;
    const POOL_PAGES: usize = ARENA_TOKENS / PAGE_TOKENS;
    const REQUESTS: usize = 16;
    const PREFILL: usize = 8;
    const DECODE: usize = 8;

    let model = Gpt2Model::synthetic(cfg, 4207);
    let workload = ArrivalProcess::Trace(vec![0.0; REQUESTS]).workload_with_prompts(
        REQUESTS,
        &[(PREFILL, DECODE)],
        cfg.vocab,
        0x9A6E,
    );
    let serve_cfg = ServeConfig::new(PAGED_SLOTS);

    // One side's best (peak resident requests, tokens/s), each on its own.
    let side = |mut backend: FunctionalBackend| {
        let report = serve_continuous_on(&mut backend, &workload, &serve_cfg);
        assert_eq!(report.completed(), REQUESTS, "cell dropped requests");
        (
            report.batch_occupancy.max().unwrap_or(0.0),
            report.tokens_per_second(),
        )
    };
    let both_max = |a: (f64, f64), b: (f64, f64)| (a.0.max(b.0), a.1.max(b.1));
    let (fixed_peak, fixed_tok_s) = best_of(
        || side(fresh_backend(&model, 1, FIXED_SLOTS, CAPACITY)),
        both_max,
    );
    let (paged_peak, paged_tok_s) = best_of(
        || {
            let engine = DistributedGpt2::with_paged_slots(
                &model,
                1,
                RingMode::Exact,
                PAGED_SLOTS,
                CAPACITY,
                PAGE_TOKENS,
                POOL_PAGES,
            )
            .expect("benchmark model partitions");
            side(FunctionalBackend::new(engine, SamplerSpec::Greedy))
        },
        both_max,
    );

    PagePressure {
        capacity: CAPACITY,
        arena_tokens: ARENA_TOKENS,
        fixed_slots: FIXED_SLOTS,
        paged_slots: PAGED_SLOTS,
        page_tokens: PAGE_TOKENS,
        pool_pages: POOL_PAGES,
        requests: REQUESTS,
        prefill_tokens: PREFILL,
        decode_tokens: DECODE,
        fixed_peak_resident: fixed_peak,
        paged_peak_resident: paged_peak,
        concurrency_ratio: if fixed_peak > 0.0 {
            paged_peak / fixed_peak
        } else {
            0.0
        },
        fixed_tok_s,
        paged_tok_s,
    }
}

/// Measures one configuration. All requests arrive at t = 0 (maximal
/// queueing pressure), so sustained tokens/s is output tokens over the
/// serving makespan. Each cell is re-measured on a fresh backend (engine
/// construction is excluded — the serving clock only advances on backend
/// operations) and the best repetition wins ([`best_of`]).
pub fn measure_model(
    cfg: &ModelConfig,
    nodes: usize,
    requests: usize,
    prefill_tokens: usize,
    decode_tokens: usize,
) -> ServeFunctionalReport {
    assert!(
        requests >= BATCH_SWEEP.iter().copied().max().unwrap_or(1),
        "need at least as many requests as the largest batch ceiling, or \
         the largest sweep cell would measure a smaller batch than its label"
    );
    let model = Gpt2Model::synthetic(cfg, 4207);
    let capacity = (prefill_tokens + decode_tokens).min(cfg.max_seq);
    let workload = ArrivalProcess::Trace(vec![0.0; requests]).workload_with_prompts(
        requests,
        &[(prefill_tokens, decode_tokens)],
        cfg.vocab,
        0x5EED,
    );
    let t0 = Instant::now();

    // Steady-state decode tokens/s with `slots` residents.
    let decode_tok_s = |slots: usize| {
        let mut backend = fresh_backend(&model, nodes, slots, capacity);
        decode_phase_tok_s(&mut backend, &workload[..slots], decode_tokens)
    };
    let sequential_tok_s = best_of(
        || {
            let mut backend = fresh_backend(&model, nodes, 1, capacity);
            serve_sequential_on(&mut backend, &workload).tokens_per_second()
        },
        f64::max,
    );
    let sequential_decode_tok_s = best_of(|| decode_tok_s(1), f64::max);

    let batched = BATCH_SWEEP
        .iter()
        .map(|&max_batch| {
            let cfg_serve = ServeConfig::new(max_batch);
            let tok_s = best_of(
                || {
                    let mut backend = fresh_backend(&model, nodes, max_batch, capacity);
                    let report = serve_continuous_on(&mut backend, &workload, &cfg_serve);
                    debug_assert_eq!(report.completed(), requests);
                    report.tokens_per_second()
                },
                f64::max,
            );
            BatchPoint {
                max_batch,
                tok_s,
                decode_tok_s: best_of(|| decode_tok_s(max_batch), f64::max),
            }
        })
        .collect();

    let page_pressure = measure_page_pressure(cfg);

    ServeFunctionalReport {
        model: cfg.name.clone(),
        nodes,
        requests,
        prefill_tokens,
        decode_tokens,
        sequential_tok_s,
        sequential_decode_tok_s,
        batched,
        page_pressure,
        wall_s: t0.elapsed().as_secs_f64(),
        quick: false,
    }
}

/// Steady-state decode throughput: admits `residents` (prefill untimed),
/// then times `decode_tokens - 1` full decode iterations with every slot
/// resident, summing the backend-reported elapsed time. This is the
/// Table III decode-only operating point of the serving stack.
fn decode_phase_tok_s(
    backend: &mut FunctionalBackend,
    residents: &[looplynx_serve::Request],
    decode_tokens: usize,
) -> f64 {
    use looplynx_core::backend::InferenceBackend;
    let slots: Vec<usize> = residents
        .iter()
        .map(|r| {
            backend
                .prefill(r.prefill_tokens, r.prompt.as_deref(), r.id)
                .expect("bench workload fits the arena")
                .slot
        })
        .collect();
    let mut decode_ms = 0.0f64;
    let mut tokens = 0usize;
    for _ in 1..decode_tokens {
        let out = backend
            .decode_batch(&slots)
            .expect("bench decodes resident slots");
        decode_ms += out.elapsed_ms;
        tokens += slots.len();
    }
    for slot in slots {
        backend
            .release(slot)
            .expect("bench releases resident slots");
    }
    if decode_ms <= 0.0 {
        return 0.0;
    }
    tokens as f64 / (decode_ms / 1e3)
}

/// Runs the benchmark on the [`medium_shaped`] configuration (gpt2-medium
/// per-layer geometry — the regime where weight streaming dominates and
/// batching pays). `quick` shrinks the *sequences*, never the request
/// count: every [`BATCH_SWEEP`] cell must be able to fill its batch, or
/// the `max_batch: 16` JSON cell would silently report a smaller batch.
pub fn measure(quick: bool) -> ServeFunctionalReport {
    let cfg = medium_shaped();
    let mut report = if quick {
        measure_model(&cfg, 1, 16, 8, 12)
    } else {
        measure_model(&cfg, 1, 16, 16, 32)
    };
    report.quick = quick;
    report
}

/// The report (plus the pinned [`BASELINE`]) as a JSON document.
pub fn to_json(report: &ServeFunctionalReport) -> Json {
    let baseline = fields![
        BASELINE; captured_at, medium_decode_tok_s_1node, tiny_decode_tok_s_1node
    ];
    let batched = Json::arr(&report.batched, |p| {
        Json::Obj(fields![p; max_batch, tok_s, decode_tok_s])
    });
    let batch_scaling = Json::arr(report.batch_scaling(), |row| {
        Json::Obj(fields![
            row; max_batch, decode_tok_s, speedup_vs_batch1, speedup_vs_sequential_decode
        ])
    });
    let page_pressure = fields![
        report.page_pressure; capacity, arena_tokens, fixed_slots, paged_slots, page_tokens,
        pool_pages, requests, prefill_tokens, decode_tokens, fixed_peak_resident,
        paged_peak_resident, concurrency_ratio, fixed_tok_s, paged_tok_s
    ];
    let vs_prechange = report.batched_decode_tok_s(16) / BASELINE.medium_decode_tok_s_1node;
    let mut top = vec![
        ("baseline", Json::Obj(baseline)),
        ("model", report.model.as_str().into()),
    ];
    top.extend(fields![
        report; quick, nodes, requests, prefill_tokens, decode_tokens, sequential_tok_s,
        sequential_decode_tok_s
    ]);
    top.extend([
        ("batched", batched),
        ("batch_scaling", batch_scaling),
        ("page_pressure", Json::Obj(page_pressure)),
        (
            "batch16_speedup_vs_sequential",
            report.batch16_speedup_vs_sequential().into(),
        ),
        (
            "batch16_decode_speedup_vs_sequential_decode",
            report.batch16_decode_speedup_vs_sequential_decode().into(),
        ),
        ("speedup_vs_prechange_single_sequence", vs_prechange.into()),
        ("wall_s", report.wall_s.into()),
    ]);
    Json::Obj(top)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_measurement_produces_ordered_throughput() {
        // Full pipeline on the tiny config so the test stays debug-fast:
        // batching must never lose to sequential on a saturating workload.
        let r = measure_model(&ModelConfig::tiny(), 1, 16, 4, 6);
        assert!(r.sequential_tok_s > 0.0);
        for p in &r.batched {
            assert!(p.tok_s > 0.0, "degenerate point {p:?}");
        }
        let tok_s = |max_batch| {
            let cell = r.batched.iter().find(|p| p.max_batch == max_batch);
            cell.expect("swept").tok_s
        };
        assert!(tok_s(4) >= tok_s(1) * 0.5, "batch 4 collapsed: {r:?}");
    }

    #[test]
    fn page_pressure_doubles_resident_concurrency() {
        // The acceptance bar of the paged-KV work: at equal arena bytes,
        // the paged engine keeps >= 2x the resident requests of the
        // fixed-stride engine on a short-request burst.
        let pp = measure_page_pressure(&ModelConfig::tiny());
        assert_eq!(pp.arena_tokens, pp.pool_pages * pp.page_tokens);
        assert_eq!(pp.arena_tokens, pp.fixed_slots * pp.capacity);
        assert!(
            pp.fixed_peak_resident <= pp.fixed_slots as f64,
            "fixed side exceeded its own slot count: {pp:?}"
        );
        assert!(
            pp.concurrency_ratio >= 2.0,
            "paged arena failed the 2x concurrency bar: {pp:?}"
        );
    }

    #[test]
    fn json_is_wellformed_enough() {
        let report = ServeFunctionalReport {
            model: "medium-shaped".into(),
            nodes: 1,
            requests: 16,
            prefill_tokens: 16,
            decode_tokens: 32,
            sequential_tok_s: 250.0,
            sequential_decode_tok_s: 280.0,
            batched: vec![
                BatchPoint {
                    max_batch: 1,
                    tok_s: 240.0,
                    decode_tok_s: 260.0,
                },
                BatchPoint {
                    max_batch: 16,
                    tok_s: 1200.0,
                    decode_tok_s: 1500.0,
                },
            ],
            page_pressure: PagePressure {
                capacity: 64,
                arena_tokens: 256,
                fixed_slots: 4,
                paged_slots: 16,
                page_tokens: 16,
                pool_pages: 16,
                requests: 16,
                prefill_tokens: 8,
                decode_tokens: 8,
                fixed_peak_resident: 4.0,
                paged_peak_resident: 16.0,
                concurrency_ratio: 4.0,
                fixed_tok_s: 900.0,
                paged_tok_s: 1400.0,
            },
            wall_s: 2.0,
            quick: true,
        };
        let j = to_json(&report);
        // What CI's gate reads.
        assert!(j.get("batched").is_some() && j.get("sequential_tok_s").is_some());
        let Some(Json::Arr(scaling)) = j.get("batch_scaling") else {
            panic!("batch_scaling is an array");
        };
        for key in ["max_batch", "decode_tok_s", "speedup_vs_batch1"] {
            assert!(scaling.iter().all(|row| row.get(key).is_some()), "{key}");
        }
        let pp = j.get("page_pressure").expect("page_pressure");
        for key in [
            "arena_tokens",
            "fixed_slots",
            "capacity",
            "pool_pages",
            "page_tokens",
            "concurrency_ratio",
        ] {
            assert!(pp.get(key).is_some(), "{key}");
        }
        let text = j.render();
        assert!(text.contains("\"baseline\""));
        assert!(text.contains("\"concurrency_ratio\": 4.000"));
        assert!(text.contains("\"batch16_speedup_vs_sequential\": 6.000"));
        // batch 16 at 1500 decode tok/s over batch 1 at 260.
        assert!(text.contains("\"speedup_vs_batch1\": 5.769"));
    }

    #[test]
    fn batch_scaling_rows_mirror_the_sweep() {
        let r = measure_model(&ModelConfig::tiny(), 1, 16, 4, 6);
        let scaling = r.batch_scaling();
        assert_eq!(scaling.len(), r.batched.len());
        for (row, p) in scaling.iter().zip(&r.batched) {
            assert_eq!(row.max_batch, p.max_batch);
            assert!(row.decode_tok_s > 0.0, "degenerate row {row:?}");
            assert!(row.speedup_vs_batch1 > 0.0);
        }
        // batch 1 over itself is exactly 1.
        assert_eq!(scaling[0].max_batch, 1);
        assert_eq!(scaling[0].speedup_vs_batch1, 1.0);
    }
}
