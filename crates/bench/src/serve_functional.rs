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
use crate::json_f64;

/// Decode-batch ceilings swept.
pub const BATCH_SWEEP: [usize; 4] = [1, 4, 8, 16];

/// Timed repetitions per cell; the best (highest-throughput) repetition
/// is reported, matching the `hotpath` methodology.
pub const MEASURE_REPS: usize = 5;

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
    /// Batched tokens/s at the given ceiling (0.0 if not measured).
    pub fn batched_tok_s(&self, max_batch: usize) -> f64 {
        self.batched
            .iter()
            .find(|p| p.max_batch == max_batch)
            .map_or(0.0, |p| p.tok_s)
    }

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

    let mut fixed_peak = 0.0f64;
    let mut fixed_tok_s = 0.0f64;
    for _ in 0..MEASURE_REPS {
        let mut backend = fresh_backend(&model, 1, FIXED_SLOTS, CAPACITY);
        let report = serve_continuous_on(&mut backend, &workload, &serve_cfg);
        assert_eq!(
            report.completed(),
            REQUESTS,
            "fixed-stride cell dropped requests"
        );
        fixed_peak = fixed_peak.max(report.batch_occupancy.max().unwrap_or(0.0));
        fixed_tok_s = fixed_tok_s.max(report.tokens_per_second());
    }

    let mut paged_peak = 0.0f64;
    let mut paged_tok_s = 0.0f64;
    for _ in 0..MEASURE_REPS {
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
        let mut backend = FunctionalBackend::new(engine, SamplerSpec::Greedy);
        let report = serve_continuous_on(&mut backend, &workload, &serve_cfg);
        assert_eq!(report.completed(), REQUESTS, "paged cell dropped requests");
        paged_peak = paged_peak.max(report.batch_occupancy.max().unwrap_or(0.0));
        paged_tok_s = paged_tok_s.max(report.tokens_per_second());
    }

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
/// serving makespan. Each cell is re-measured [`MEASURE_REPS`] times on a
/// fresh backend (engine construction is excluded — the serving clock
/// only advances on backend operations) and the best repetition wins.
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

    let mut sequential_tok_s = 0.0f64;
    for _ in 0..MEASURE_REPS {
        let mut backend = fresh_backend(&model, nodes, 1, capacity);
        let report = serve_sequential_on(&mut backend, &workload);
        sequential_tok_s = sequential_tok_s.max(report.tokens_per_second());
    }
    let mut sequential_decode_tok_s = 0.0f64;
    for _ in 0..MEASURE_REPS {
        let mut backend = fresh_backend(&model, nodes, 1, capacity);
        sequential_decode_tok_s = sequential_decode_tok_s.max(decode_phase_tok_s(
            &mut backend,
            &workload[..1],
            decode_tokens,
        ));
    }

    let batched = BATCH_SWEEP
        .iter()
        .map(|&max_batch| {
            let cfg_serve = ServeConfig::new(max_batch);
            let mut tok_s = 0.0f64;
            for _ in 0..MEASURE_REPS {
                let mut backend = fresh_backend(&model, nodes, max_batch, capacity);
                let report = serve_continuous_on(&mut backend, &workload, &cfg_serve);
                debug_assert_eq!(report.completed(), requests);
                tok_s = tok_s.max(report.tokens_per_second());
            }
            let mut decode_tok_s = 0.0f64;
            for _ in 0..MEASURE_REPS {
                let mut backend = fresh_backend(&model, nodes, max_batch, capacity);
                decode_tok_s = decode_tok_s.max(decode_phase_tok_s(
                    &mut backend,
                    &workload[..max_batch.min(requests)],
                    decode_tokens,
                ));
            }
            BatchPoint {
                max_batch,
                tok_s,
                decode_tok_s,
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

/// Renders the report (plus the pinned [`BASELINE`]) as a JSON document.
pub fn to_json(report: &ServeFunctionalReport) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"baseline\": {{\n    \"captured_at\": \"{}\",\n    \"medium_decode_tok_s_1node\": {},\n    \"tiny_decode_tok_s_1node\": {}\n  }},\n",
        BASELINE.captured_at,
        json_f64(BASELINE.medium_decode_tok_s_1node),
        json_f64(BASELINE.tiny_decode_tok_s_1node),
    ));
    out.push_str(&format!("  \"quick\": {},\n", report.quick));
    out.push_str(&format!(
        "  \"model\": \"{}\",\n  \"nodes\": {},\n  \"requests\": {},\n  \"prefill_tokens\": {},\n  \"decode_tokens\": {},\n",
        report.model, report.nodes, report.requests, report.prefill_tokens, report.decode_tokens,
    ));
    out.push_str(&format!(
        "  \"sequential_tok_s\": {},\n",
        json_f64(report.sequential_tok_s)
    ));
    out.push_str(&format!(
        "  \"sequential_decode_tok_s\": {},\n",
        json_f64(report.sequential_decode_tok_s)
    ));
    out.push_str("  \"batched\": [\n");
    for (i, p) in report.batched.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"max_batch\": {}, \"tok_s\": {}, \"decode_tok_s\": {}}}{}\n",
            p.max_batch,
            json_f64(p.tok_s),
            json_f64(p.decode_tok_s),
            if i + 1 < report.batched.len() {
                ","
            } else {
                ""
            }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"batch_scaling\": [\n");
    let scaling = report.batch_scaling();
    for (i, row) in scaling.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"max_batch\": {}, \"decode_tok_s\": {}, \"speedup_vs_batch1\": {}, \"speedup_vs_sequential_decode\": {}}}{}\n",
            row.max_batch,
            json_f64(row.decode_tok_s),
            json_f64(row.speedup_vs_batch1),
            json_f64(row.speedup_vs_sequential_decode),
            if i + 1 < scaling.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    let pp = &report.page_pressure;
    out.push_str(&format!(
        "  \"page_pressure\": {{\n    \"capacity\": {},\n    \"arena_tokens\": {},\n    \"fixed_slots\": {},\n    \"paged_slots\": {},\n    \"page_tokens\": {},\n    \"pool_pages\": {},\n    \"requests\": {},\n    \"prefill_tokens\": {},\n    \"decode_tokens\": {},\n    \"fixed_peak_resident\": {},\n    \"paged_peak_resident\": {},\n    \"concurrency_ratio\": {},\n    \"fixed_tok_s\": {},\n    \"paged_tok_s\": {}\n  }},\n",
        pp.capacity,
        pp.arena_tokens,
        pp.fixed_slots,
        pp.paged_slots,
        pp.page_tokens,
        pp.pool_pages,
        pp.requests,
        pp.prefill_tokens,
        pp.decode_tokens,
        json_f64(pp.fixed_peak_resident),
        json_f64(pp.paged_peak_resident),
        json_f64(pp.concurrency_ratio),
        json_f64(pp.fixed_tok_s),
        json_f64(pp.paged_tok_s),
    ));
    out.push_str(&format!(
        "  \"batch16_speedup_vs_sequential\": {},\n",
        json_f64(report.batch16_speedup_vs_sequential())
    ));
    out.push_str(&format!(
        "  \"batch16_decode_speedup_vs_sequential_decode\": {},\n",
        json_f64(report.batch16_decode_speedup_vs_sequential_decode())
    ));
    out.push_str(&format!(
        "  \"speedup_vs_prechange_single_sequence\": {},\n",
        json_f64(report.batched_decode_tok_s(16) / BASELINE.medium_decode_tok_s_1node)
    ));
    out.push_str(&format!("  \"wall_s\": {}\n}}\n", json_f64(report.wall_s)));
    out
}

/// Renders a human-readable table.
pub fn render(report: &ServeFunctionalReport) -> String {
    let mut out = format!(
        "FUNCTIONAL SERVING — continuous batching vs sequential (host wall-clock)\n\
         model {} on {} node(s): {} requests × [{}:{}]\n\
         sequential baseline : {:>9.1} tok/s e2e, {:>9.1} tok/s decode-phase\n",
        report.model,
        report.nodes,
        report.requests,
        report.prefill_tokens,
        report.decode_tokens,
        report.sequential_tok_s,
        report.sequential_decode_tok_s,
    );
    let batch1 = report.batched_decode_tok_s(1);
    for p in &report.batched {
        out.push_str(&format!(
            "  batch {:>2}          : {:>9.1} tok/s e2e, {:>9.1} tok/s decode-phase ({:>5.2}x seq e2e, {:>5.2}x batch 1)\n",
            p.max_batch,
            p.tok_s,
            p.decode_tok_s,
            if report.sequential_tok_s > 0.0 {
                p.decode_tok_s / report.sequential_tok_s
            } else {
                0.0
            },
            if batch1 > 0.0 {
                p.decode_tok_s / batch1
            } else {
                0.0
            },
        ));
    }
    out.push_str(&format!(
        "pre-change single-sequence decode: {:.1} tok/s ({})\n",
        BASELINE.medium_decode_tok_s_1node, BASELINE.captured_at,
    ));
    let pp = &report.page_pressure;
    out.push_str(&format!(
        "PAGE PRESSURE — equal arena bytes ({} KV tokens), {} requests × [{}:{}]\n\
         \x20 fixed-stride {:>2} slots × {:>3} cap : peak {:>4.1} resident, {:>9.1} tok/s\n\
         \x20 paged {:>2} slots, {:>2}-token pages : peak {:>4.1} resident, {:>9.1} tok/s\n\
         \x20 resident-concurrency ratio       : {:>4.2}x (bar: >= 2)\n",
        pp.arena_tokens,
        pp.requests,
        pp.prefill_tokens,
        pp.decode_tokens,
        pp.fixed_slots,
        pp.capacity,
        pp.fixed_peak_resident,
        pp.fixed_tok_s,
        pp.paged_slots,
        pp.page_tokens,
        pp.paged_peak_resident,
        pp.paged_tok_s,
        pp.concurrency_ratio,
    ));
    out
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
        assert!(
            r.batched_tok_s(4) >= r.batched_tok_s(1) * 0.5,
            "batch 4 collapsed: {r:?}"
        );
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
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
        assert!(j.contains("\"baseline\""));
        assert!(j.contains("\"concurrency_ratio\": 4.000"));
        assert!(j.contains("\"batch16_speedup_vs_sequential\": 6.000"));
        assert!(j.contains("\"batch_scaling\""));
        // batch 16 at 1500 decode tok/s over batch 1 at 260.
        assert!(j.contains("\"speedup_vs_batch1\": 5.769"));
        assert!(render(&report).contains("tok/s"));
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
