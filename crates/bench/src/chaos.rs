//! Chaos harness: the robustness acceptance gate of the serving gateway.
//!
//! Replays bursty and overload traces through
//! [`looplynx_serve::serve_gateway_on`] on the functional W8A8 engine
//! while a seeded [`FaultyBackend`] injects prefill/decode faults,
//! latency stalls, and slot-release leaks at rates of 0%, 1%, 5% and 20%
//! ([`FAULT_RATES`]). Each cell checks the invariants that define
//! "fault-tolerant" for this repo:
//!
//! * **Conservation** — every offered request reaches exactly one
//!   terminal state: nothing lost, nothing double-counted, no hang
//!   (the run finishing at all is the no-hang proof — the gateway's
//!   event loop must shed work it can no longer serve).
//! * **No spurious failures** — with retries enabled, transient injected
//!   faults never surface as `Failed` terminals at these rates.
//! * **Bit-exact completions** — every request that completes under
//!   chaos produces a token stream identical to the fault-free
//!   reference run (vetoed operations never touch backend state, so a
//!   retry replays the exact computation).
//! * **Graceful goodput** — every cell still completes work: its
//!   completed tokens as a fraction of the fault-free cell's of the same
//!   scenario (`goodput_vs_fault_free`, a count ratio — the tiny model's
//!   1–4 ms cell walls are too short to time) stays above zero; faults
//!   degrade throughput, never collapse it.
//!
//! The `chaos` binary renders `BENCH_robustness.json` and exits non-zero
//! if any invariant is violated, which CI gates on.

use std::time::Instant;

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

use crate::report::{fields, Json};

/// Injected fault intensities swept per scenario (fraction of
/// operations): fault-free control, 1%, 5%, and 20%.
pub const FAULT_RATES: [f64; 4] = [0.0, 0.01, 0.05, 0.20];

/// Seed of the fault stream (scenario index is added so the two traces
/// draw distinct streams).
pub const CHAOS_SEED: u64 = 0xC4A05;

/// One (scenario × fault-rate) measurement with its invariant verdicts.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosCell {
    /// Scenario name (`bursty` or `overload`).
    pub scenario: &'static str,
    /// Injected fault intensity (see [`FaultPlan::uniform`]).
    pub fault_rate: f64,
    /// Requests offered to the gateway.
    pub offered: usize,
    /// Requests that completed with their full token stream.
    pub completed: usize,
    /// Requests shed by admission control.
    pub rejected: usize,
    /// Requests cancelled by the (scripted) client.
    pub cancelled: usize,
    /// Requests that surfaced a permanent failure.
    pub failed: usize,
    /// Transient-fault retries the gateway performed.
    pub retries: u64,
    /// Slots stranded by injected release leaks.
    pub leaked_slots: usize,
    /// Output tokens delivered to completed requests.
    pub completed_tokens: usize,
    /// `completed_tokens` over the fault-free cell's of the same scenario
    /// (so 1.0 in that cell itself; 0.0 if it completed nothing).
    pub goodput_vs_fault_free: f64,
    /// Every offered id reached exactly one terminal state.
    pub conserved: bool,
    /// Every completed stream matched the fault-free reference.
    pub bit_exact: bool,
    /// Host wall-clock of the cell (s).
    pub wall_s: f64,
}

impl ChaosCell {
    /// Whether the cell upholds every robustness invariant.
    ///
    /// `Failed` terminals are a violation: all injected faults are
    /// transient, so with retries enabled none may surface. A fault-free
    /// cell must additionally complete its entire admitted workload.
    pub fn passed(&self) -> bool {
        self.conserved
            && self.bit_exact
            && self.failed == 0
            && self.completed > 0
            && self.goodput_vs_fault_free > 0.0
            && (self.fault_rate > 0.0
                || self.completed + self.rejected + self.cancelled == self.offered)
    }
}

/// The full chaos-harness report.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosReport {
    /// Every (scenario × fault-rate) cell.
    pub cells: Vec<ChaosCell>,
    /// Host wall-clock of the whole harness (s).
    pub wall_s: f64,
    /// Whether the run used the reduced `--quick` workload.
    pub quick: bool,
}

impl ChaosReport {
    /// Whether every cell upheld every invariant.
    pub fn passed(&self) -> bool {
        !self.cells.is_empty() && self.cells.iter().all(ChaosCell::passed)
    }
}

/// Sizing of one chaos run.
#[derive(Debug, Clone, Copy)]
struct Sizing {
    requests: usize,
    slots: usize,
    /// Queue bound of the overload trace — deliberately smaller than the
    /// request count so admission control must shed even fault-free.
    overload_queue: usize,
}

fn sizing(quick: bool) -> Sizing {
    if quick {
        Sizing {
            requests: 12,
            slots: 4,
            overload_queue: 6,
        }
    } else {
        Sizing {
            requests: 32,
            slots: 6,
            overload_queue: 12,
        }
    }
}

fn fresh_backend(model: &Gpt2Model, slots: usize) -> FunctionalBackend {
    let engine = DistributedGpt2::with_slots(model, 2, RingMode::Exact, slots, 48)
        .expect("tiny model partitions");
    FunctionalBackend::new(engine, SamplerSpec::Greedy)
}

/// The bursty trace: Poisson burst epochs, a couple of scripted
/// client cancellations, queue deep enough that nothing overflows.
fn bursty_workload(cfg: &ModelConfig, n: usize) -> Vec<GatewayRequest> {
    let reqs = ArrivalProcess::Bursty {
        bursts_per_s: 40.0,
        burst_size: 4,
        seed: 0xB0057,
    }
    .workload_with_prompts(n, &[(6, 10), (4, 8), (8, 6)], cfg.vocab, 0x5EED);
    let mut offered = GatewayRequest::from_workload(&reqs);
    // Two clients hang up mid-run: exercises queued and resident
    // cancellation under chaos. (Which state each lands in depends on
    // host timing; conservation must hold either way.)
    let last = offered.len() - 1;
    offered[last / 2] = offered[last / 2].clone().cancel_at(120.0);
    offered[last] = offered[last].clone().cancel_at(200.0);
    offered
}

/// The overload trace: everything lands at t = 0 against a queue bound
/// below the request count, so load shedding fires even fault-free.
fn overload_workload(cfg: &ModelConfig, n: usize) -> Vec<GatewayRequest> {
    let reqs = ArrivalProcess::Trace(vec![0.0; n]).workload_with_prompts(
        n,
        &[(6, 10), (4, 8)],
        cfg.vocab,
        0xFEED,
    );
    GatewayRequest::from_workload(&reqs)
}

/// Reference outputs: every request served fault-free with an unbounded
/// queue, so each id has a canonical token stream to compare against.
fn reference_outputs(
    model: &Gpt2Model,
    offered: &[GatewayRequest],
    slots: usize,
) -> Vec<(u64, Vec<u32>)> {
    let plain: Vec<GatewayRequest> = offered
        .iter()
        .map(|g| GatewayRequest::new(g.req.clone()))
        .collect();
    let cfg = GatewayConfig {
        max_batch: slots,
        queue_depth: plain.len().max(1),
        ..GatewayConfig::default()
    };
    let mut backend = fresh_backend(model, slots);
    let report = serve_gateway_on(&mut backend, &plain, &cfg);
    assert_eq!(
        report.counts().completed,
        plain.len(),
        "reference run must complete everything: {report}"
    );
    report
        .serving
        .outputs
        .iter()
        .map(|o| (o.id, o.tokens.clone()))
        .collect()
}

/// Everything that distinguishes one chaos cell from another: the trace
/// being replayed and the knobs of the gateway + fault plan driving it.
struct CellSpec<'a> {
    scenario: &'static str,
    offered: &'a [GatewayRequest],
    reference: &'a [(u64, Vec<u32>)],
    queue_depth: usize,
    slots: usize,
    fault_rate: f64,
    seed: u64,
}

/// Runs one (scenario × fault-rate) cell and checks its invariants
/// (`goodput_vs_fault_free` is filled in by [`measure`], which sees the
/// fault-free cell too).
fn run_cell(model: &Gpt2Model, spec: &CellSpec<'_>) -> ChaosCell {
    let t0 = Instant::now();
    let cfg = GatewayConfig {
        max_batch: spec.slots,
        queue_depth: spec.queue_depth,
        // Generous retry budget: at a 20% per-op fault rate the chance of
        // 33 consecutive vetoes is negligible, so `Failed` terminals
        // would indicate a real bug, not bad luck.
        max_retries: 32,
        retry_backoff_ms: 1.0,
        ttft_deadline_ms: None,
        e2e_deadline_ms: None,
        shed: ShedPolicy::Reject,
        prefill_chunk: None,
        evict: EvictPolicyKind::YoungestFirst,
    };
    let mut backend = FaultyBackend::new(
        fresh_backend(model, spec.slots),
        FaultPlan::uniform(spec.seed, spec.fault_rate),
    );
    let report = serve_gateway_on(&mut backend, spec.offered, &cfg);

    let counts = report.counts();
    let bit_exact = report.terminals.iter().all(|t| {
        if t.terminal != Terminal::Completed {
            return true;
        }
        let want = spec
            .reference
            .iter()
            .find(|(id, _)| *id == t.id)
            .map(|(_, tokens)| tokens.as_slice());
        report.serving.output_tokens(t.id) == want
    });

    ChaosCell {
        scenario: spec.scenario,
        fault_rate: spec.fault_rate,
        offered: spec.offered.len(),
        completed: counts.completed,
        rejected: counts.rejected,
        cancelled: counts.cancelled,
        failed: counts.failed,
        retries: report.retries,
        leaked_slots: backend.leaked_slots().len(),
        completed_tokens: report.completed_tokens(),
        goodput_vs_fault_free: 0.0,
        conserved: report.is_conserved(spec.offered),
        bit_exact,
        wall_s: t0.elapsed().as_secs_f64(),
    }
}

/// Runs the full harness: both scenarios at every [`FAULT_RATES`] entry
/// on the tiny model (chaos exercises control flow, not FLOPs).
pub fn measure(quick: bool) -> ChaosReport {
    let t0 = Instant::now();
    let cfg = ModelConfig::tiny();
    let model = Gpt2Model::synthetic(&cfg, 2024);
    let s = sizing(quick);

    let bursty = bursty_workload(&cfg, s.requests);
    let overload = overload_workload(&cfg, s.requests);
    let bursty_ref = reference_outputs(&model, &bursty, s.slots);
    let overload_ref = reference_outputs(&model, &overload, s.slots);

    let mut cells = Vec::new();
    for (i, &rate) in FAULT_RATES.iter().enumerate() {
        cells.push(run_cell(
            &model,
            &CellSpec {
                scenario: "bursty",
                offered: &bursty,
                reference: &bursty_ref,
                queue_depth: bursty.len(),
                slots: s.slots,
                fault_rate: rate,
                seed: CHAOS_SEED + i as u64,
            },
        ));
        cells.push(run_cell(
            &model,
            &CellSpec {
                scenario: "overload",
                offered: &overload,
                reference: &overload_ref,
                queue_depth: s.overload_queue,
                slots: s.slots,
                fault_rate: rate,
                seed: CHAOS_SEED + 100 + i as u64,
            },
        ));
    }

    for i in 0..cells.len() {
        let fault_free = cells
            .iter()
            .find(|c| c.scenario == cells[i].scenario && c.fault_rate == 0.0)
            .map_or(0, |c| c.completed_tokens);
        if fault_free > 0 {
            cells[i].goodput_vs_fault_free = cells[i].completed_tokens as f64 / fault_free as f64;
        }
    }

    ChaosReport {
        cells,
        wall_s: t0.elapsed().as_secs_f64(),
        quick,
    }
}

/// The report as a JSON document (`BENCH_robustness.json`).
pub fn to_json(report: &ChaosReport) -> Json {
    let cells = Json::arr(&report.cells, |c| {
        let mut cell = fields![
            c; scenario, fault_rate, offered, completed, rejected, cancelled, failed, retries,
            leaked_slots, completed_tokens, goodput_vs_fault_free, conserved, bit_exact, wall_s
        ];
        cell.push(("passed", c.passed().into()));
        Json::Obj(cell)
    });
    Json::Obj(vec![
        ("passed", report.passed().into()),
        ("quick", report.quick.into()),
        ("fault_rates", Json::arr(FAULT_RATES, Json::Num)),
        ("cells", cells),
        ("wall_s", report.wall_s.into()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_harness_upholds_every_invariant() {
        let report = measure(true);
        assert_eq!(report.cells.len(), 2 * FAULT_RATES.len());
        assert!(report.passed(), "{}", to_json(&report).render());
        // The fault-free control cells must not retry or leak, and are
        // what every other cell's goodput is a fraction of.
        for c in report.cells.iter().filter(|c| c.fault_rate == 0.0) {
            assert_eq!(c.retries, 0, "{c:?}");
            assert_eq!(c.leaked_slots, 0, "{c:?}");
            assert_eq!(c.goodput_vs_fault_free, 1.0, "{c:?}");
        }
        // The overload trace must actually overload.
        for c in report.cells.iter().filter(|c| c.scenario == "overload") {
            assert!(c.rejected > 0, "queue bound never bit: {c:?}");
        }
    }

    #[test]
    fn json_carries_the_verdict() {
        let report = ChaosReport {
            cells: vec![ChaosCell {
                scenario: "bursty",
                fault_rate: 0.05,
                offered: 12,
                completed: 11,
                rejected: 0,
                cancelled: 1,
                failed: 0,
                retries: 9,
                leaked_slots: 1,
                completed_tokens: 88,
                goodput_vs_fault_free: 0.916,
                conserved: true,
                bit_exact: true,
                wall_s: 0.2,
            }],
            wall_s: 0.3,
            quick: true,
        };
        let json = to_json(&report);
        // What CI's gate reads.
        assert_eq!(json.get("passed"), Some(&Json::Bool(true)));
        let Some(Json::Arr(cells)) = json.get("cells") else {
            panic!("cells is an array");
        };
        for key in ["passed", "conserved", "bit_exact"] {
            assert_eq!(cells[0].get(key), Some(&Json::Bool(true)), "{key}");
        }
        let text = json.render();
        assert!(text.contains("\"scenario\": \"bursty\""));
        assert!(text.contains("\"goodput_vs_fault_free\": 0.916000"));
    }
}
