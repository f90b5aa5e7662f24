//! The experiment implementations, one per paper artifact.

use looplynx_baselines::gpu::A100Model;
use looplynx_baselines::report::FpgaBaselineReport;
use looplynx_baselines::spatial::SpatialArch;
use looplynx_baselines::temporal::TemporalArch;
use looplynx_core::config::{ArchConfig, OptimizationFlags};
use looplynx_core::engine::LoopLynx;
use looplynx_hw::device::FpgaDevice;
use looplynx_hw::floorplan::FloorPlan;
use looplynx_hw::platform::PlatformSpec;
use looplynx_hw::resources::{ComponentResources, NodeResourceModel};
use looplynx_model::config::ModelConfig;
use looplynx_serve::{serve_continuous, serve_sequential, ArrivalProcess, ServeConfig};
use looplynx_sim::stats::arithmetic_mean;

use crate::paper;

/// Decode context at which steady-state token latency is measured
/// (the long-generation regime of the paper's dominant `[·:512]`
/// settings).
pub const TABLE2_CONTEXT: usize = 512;

/// The `[prefill : decode]` grid of Fig. 8 (includes every setting the
/// paper names: `[32:512]`, `[64:512]`, `[128:512]`, `[128:32]`).
pub const FIG8_SETTINGS: [(usize, usize); 9] = [
    (32, 32),
    (32, 128),
    (32, 512),
    (64, 32),
    (64, 128),
    (64, 512),
    (128, 32),
    (128, 128),
    (128, 512),
];

fn engine(model: &ModelConfig, nodes: usize) -> LoopLynx {
    let arch = ArchConfig::builder()
        .nodes(nodes)
        .build()
        .expect("valid paper config");
    LoopLynx::new(model.clone(), arch).expect("model partitions over ring")
}

// ---------------------------------------------------------------- Table I

/// Table I: platform comparison rows.
pub fn table1() -> Vec<PlatformSpec> {
    PlatformSpec::table1()
}

/// Renders Table I.
pub fn render_table1() -> String {
    let mut out = String::from(
        "TABLE I — Comparison of GPU and FPGA platforms\n\
         Platform           Process  Frequency    Computing Units    Bandwidth      TDP\n",
    );
    for row in table1() {
        out.push_str(&format!("{row}\n"));
    }
    out
}

// ----------------------------------------------------------------- Fig. 5

/// One optimization level of the Fig. 5 ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig5Level {
    /// Level label as in the paper ("(a) baseline", …).
    pub label: String,
    /// Single-node decode token latency in ms at this level.
    pub token_ms: f64,
    /// Fraction of device time in linear + MHA.
    pub linear_mha_fraction: f64,
    /// Fraction of device time on the critical path.
    pub critical_path_fraction: f64,
    /// Latency reduction vs the unoptimized baseline.
    pub reduction_vs_baseline: f64,
}

/// Fig. 5: latency breakdown of one node and improvement per optimization.
pub fn fig5(model: &ModelConfig) -> Vec<Fig5Level> {
    let levels = [
        ("(a) baseline (no optimizations)", OptimizationFlags::NONE),
        (
            "(b) + fused LN&Res (critical path)",
            OptimizationFlags {
                fuse_ln_res: true,
                headwise_pipeline: false,
                hide_transmission: false,
            },
        ),
        (
            "(c) + head-wise pipelining",
            OptimizationFlags {
                fuse_ln_res: true,
                headwise_pipeline: true,
                hide_transmission: false,
            },
        ),
    ];
    let mut out = Vec::with_capacity(levels.len());
    let mut baseline_ms = None;
    for (label, opts) in levels {
        let arch = ArchConfig::builder()
            .nodes(1)
            .opts(opts)
            .build()
            .expect("valid config");
        let eng = LoopLynx::new(model.clone(), arch).expect("single node always partitions");
        let timing = eng.scheduler().schedule_rows(&[TABLE2_CONTEXT], true);
        let ms = timing.total_ms(eng.arch());
        let base = *baseline_ms.get_or_insert(ms);
        out.push(Fig5Level {
            label: label.to_owned(),
            token_ms: ms,
            linear_mha_fraction: timing.breakdown.linear_mha_fraction(),
            critical_path_fraction: timing.breakdown.critical_path_fraction(),
            reduction_vs_baseline: 1.0 - ms / base,
        });
    }
    out
}

/// Renders Fig. 5.
pub fn render_fig5(model: &ModelConfig) -> String {
    let mut out = String::from("FIG. 5 — Latency breakdown of 1-node and optimization gains\n");
    for level in fig5(model) {
        out.push_str(&format!(
            "{:<36} {:>6.2} ms | linear+MHA {:>5.1}% | critical path {:>5.1}% | -{:>4.1}% vs baseline\n",
            level.label,
            level.token_ms,
            level.linear_mha_fraction * 100.0,
            level.critical_path_fraction * 100.0,
            level.reduction_vs_baseline * 100.0,
        ));
    }
    out
}

// ----------------------------------------------------------------- Fig. 7

/// Fig. 7 data: component resources of the dual-node device + floorplan.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig7Data {
    /// Component rows (device level, two nodes).
    pub components: Vec<ComponentResources>,
    /// ASCII layout of the dual-node U50.
    pub layout: String,
}

/// Fig. 7: resource breakdown and FPGA layout of the dual-node setting.
pub fn fig7() -> Fig7Data {
    let model = NodeResourceModel::paper();
    let plan = FloorPlan::place(&FpgaDevice::alveo_u50(), model.per_node(2), 2)
        .expect("paper layout fits");
    Fig7Data {
        components: model.component_breakdown(2),
        layout: plan.render(),
    }
}

/// Renders Fig. 7.
pub fn render_fig7() -> String {
    let data = fig7();
    let mut out = String::from(
        "FIG. 7 — Dual-node resource utilization on Alveo U50\n\
         Component                  DSP      LUT       FF     BRAM   URAM\n",
    );
    let mut total = looplynx_hw::resources::ResourceVector::ZERO;
    for c in &data.components {
        out.push_str(&format!(
            "{:<24} {:>6.0} {:>7.0}K {:>7.0}K {:>7.1} {:>6.0}\n",
            c.name,
            c.resources.dsp,
            c.resources.lut / 1e3,
            c.resources.ff / 1e3,
            c.resources.bram,
            c.resources.uram,
        ));
        total += c.resources;
    }
    out.push_str(&format!(
        "{:<24} {:>6.0} {:>7.0}K {:>7.0}K {:>7.1} {:>6.0}\n\n",
        "Device Total",
        total.dsp,
        total.lut / 1e3,
        total.ff / 1e3,
        total.bram,
        total.uram,
    ));
    out.push_str(&data.layout);
    out
}

// ---------------------------------------------------------------- Table II

/// Table II's five FPGA rows (LoopLynx 4/2/1 nodes, DFX, spatial), each
/// beside the paper's token latency for the same design and node count.
pub fn table2_vs_paper(model: &ModelConfig) -> Vec<(FpgaBaselineReport, f64)> {
    let resources = NodeResourceModel::paper();
    let mut rows: Vec<(FpgaBaselineReport, f64)> = [4usize, 2, 1]
        .into_iter()
        .map(|nodes| {
            let eng = engine(model, nodes);
            let devices = resources.devices_for(nodes);
            let row = FpgaBaselineReport {
                name: "LoopLynx".into(),
                nodes_desc: format!("{nodes} Node(s) (U50 x{devices})"),
                freq_mhz: eng.arch().freq().as_mhz(),
                quantization: "W8A8".into(),
                token_latency_ms: eng.steady_state_decode_ms(TABLE2_CONTEXT),
                resources: resources.ring_total(nodes),
            };
            (row, paper::TABLE2_LOOPLYNX_MS[nodes.ilog2() as usize])
        })
        .collect();
    rows.push((TemporalArch::dfx_u280().report(model), paper::TABLE2_DFX_MS));
    rows.push((SpatialArch::u280().report(model), paper::TABLE2_SPATIAL_MS));
    rows
}

/// Table II: the rows of [`table2_vs_paper`] alone.
pub fn table2(model: &ModelConfig) -> Vec<FpgaBaselineReport> {
    let rows = table2_vs_paper(model).into_iter();
    rows.map(|(row, _)| row).collect()
}

/// Renders Table II.
pub fn render_table2(model: &ModelConfig) -> String {
    let mut out = String::from(
        "TABLE II — Comparison of FPGA implementations (GPT-2 345M)\n\
         Architecture             Nodes              Freq     Quant   Latency  Resources\n",
    );
    for row in table2(model) {
        out.push_str(&format!("{row}\n"));
    }
    out
}

// --------------------------------------------------------------- Table III

/// One Table III row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table3Row {
    /// Ring size.
    pub nodes: usize,
    /// Decode throughput in tokens/second.
    pub tokens_per_second: f64,
    /// Speedup vs the previous row (1-node row has none).
    pub speedup_vs_previous: Option<f64>,
}

/// Table III: throughput and scalability for 1/2/4 nodes.
pub fn table3(model: &ModelConfig) -> Vec<Table3Row> {
    let mut rows = Vec::new();
    let mut prev: Option<f64> = None;
    for nodes in [1usize, 2, 4] {
        let tps = 1e3 / engine(model, nodes).steady_state_decode_ms(TABLE2_CONTEXT);
        rows.push(Table3Row {
            nodes,
            tokens_per_second: tps,
            speedup_vs_previous: prev.map(|p| tps / p),
        });
        prev = Some(tps);
    }
    rows
}

/// Renders Table III.
pub fn render_table3(model: &ModelConfig) -> String {
    let mut out = String::from("TABLE III — Throughput and scalability\n");
    for row in table3(model) {
        out.push_str(&format!(
            "{}-node: {:>6.1} token/s  {}\n",
            row.nodes,
            row.tokens_per_second,
            row.speedup_vs_previous
                .map_or("-".to_owned(), |s| format!("{s:.2}x")),
        ));
    }
    out
}

// ----------------------------------------------------------------- Fig. 8

/// One Fig. 8 grid cell: a `[prefill:decode]` setting under every system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig8Cell {
    /// Prompt length.
    pub prefill: usize,
    /// Generated tokens.
    pub decode: usize,
    /// Total latency in ms: LoopLynx 1/2/4 nodes then A100.
    pub latency_ms: [f64; 4],
    /// Generated tokens per joule, same order.
    pub tokens_per_joule: [f64; 4],
}

/// Fig. 8 aggregate results.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig8Data {
    /// Per-setting cells.
    pub cells: Vec<Fig8Cell>,
    /// Mean speedup vs A100 for 1/2/4 nodes.
    pub mean_speedup: [f64; 3],
    /// Mean LoopLynx-energy / A100-energy for 1/2/4 nodes.
    pub mean_energy_fraction: [f64; 3],
    /// Mean normalized energy efficiency (tokens/J over A100 tokens/J).
    pub mean_energy_efficiency: [f64; 3],
}

/// Fig. 8: latency and energy efficiency vs the A100 across the full grid
/// ([`FIG8_SETTINGS`]).
pub fn fig8(model: &ModelConfig) -> Fig8Data {
    let engines: Vec<LoopLynx> = [1usize, 2, 4].iter().map(|&n| engine(model, n)).collect();
    let gpu = A100Model::paper_baseline();
    let mut cells = Vec::new();
    let mut speedups = [Vec::new(), Vec::new(), Vec::new()];
    let mut efracs = [Vec::new(), Vec::new(), Vec::new()];
    let mut effs = [Vec::new(), Vec::new(), Vec::new()];
    for (prefill, decode) in FIG8_SETTINGS {
        let g = gpu.generation(model, prefill, decode);
        let mut latency = [0.0f64; 4];
        let mut tpj = [0.0f64; 4];
        latency[3] = g.total_ms;
        tpj[3] = g.tokens_per_joule;
        for (i, eng) in engines.iter().enumerate() {
            let r = eng.simulate_generation(prefill, decode);
            latency[i] = r.total_ms();
            tpj[i] = r.energy.tokens_per_joule;
            speedups[i].push(g.total_ms / r.total_ms());
            efracs[i].push(r.energy.joules / g.energy_joules);
            effs[i].push(r.energy.tokens_per_joule / g.tokens_per_joule);
        }
        cells.push(Fig8Cell {
            prefill,
            decode,
            latency_ms: latency,
            tokens_per_joule: tpj,
        });
    }
    let mean3 = |v: &[Vec<f64>; 3]| -> [f64; 3] {
        [
            arithmetic_mean(&v[0]).expect("non-empty grid"),
            arithmetic_mean(&v[1]).expect("non-empty grid"),
            arithmetic_mean(&v[2]).expect("non-empty grid"),
        ]
    };
    Fig8Data {
        cells,
        mean_speedup: mean3(&speedups),
        mean_energy_fraction: mean3(&efracs),
        mean_energy_efficiency: mean3(&effs),
    }
}

/// Renders Fig. 8.
pub fn render_fig8(model: &ModelConfig) -> String {
    let data = fig8(model);
    let mut out = String::from(
        "FIG. 8 — LoopLynx vs Nvidia A100 across [prefill:decode] settings\n\
         (a) total latency, normalized to the 4-node implementation (higher = slower)\n\
         setting      1-node   2-node   4-node     A100\n",
    );
    for c in &data.cells {
        let norm = c.latency_ms[2];
        out.push_str(&format!(
            "[{:>3}:{:>3}]   {:>6.2}   {:>6.2}   {:>6.2}   {:>6.2}\n",
            c.prefill,
            c.decode,
            c.latency_ms[0] / norm,
            c.latency_ms[1] / norm,
            c.latency_ms[2] / norm,
            c.latency_ms[3] / norm,
        ));
    }
    out.push_str(
        "\n(b) energy efficiency (token/J), normalized to the A100 (higher = better)\n\
         setting      1-node   2-node   4-node     A100\n",
    );
    for c in &data.cells {
        let norm = c.tokens_per_joule[3];
        out.push_str(&format!(
            "[{:>3}:{:>3}]   {:>6.2}   {:>6.2}   {:>6.2}   {:>6.2}\n",
            c.prefill,
            c.decode,
            c.tokens_per_joule[0] / norm,
            c.tokens_per_joule[1] / norm,
            c.tokens_per_joule[2] / norm,
            1.0,
        ));
    }
    out.push_str(&format!(
        "\nAverages vs A100: speedup {:.2}x / {:.2}x / {:.2}x (1/2/4 nodes)\n\
         energy fraction {:.1}% / {:.1}% / {:.1}%, efficiency {:.1}x / {:.1}x / {:.1}x\n",
        data.mean_speedup[0],
        data.mean_speedup[1],
        data.mean_speedup[2],
        data.mean_energy_fraction[0] * 100.0,
        data.mean_energy_fraction[1] * 100.0,
        data.mean_energy_fraction[2] * 100.0,
        data.mean_energy_efficiency[0],
        data.mean_energy_efficiency[1],
        data.mean_energy_efficiency[2],
    ));
    out
}

// -------------------------------------------------- Offered-load sweep

/// Latency percentiles of one serving distribution: `[p50, p95, p99]` in
/// milliseconds.
pub type LatencyTail = [f64; 3];

/// One `(ring size, arrival rate)` cell of the offered-load sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeSweepPoint {
    /// Ring size.
    pub nodes: usize,
    /// Offered load in requests per second.
    pub rate_per_s: f64,
    /// Sustained tokens/s under continuous batching.
    pub batched_tokens_per_s: f64,
    /// Sustained tokens/s serving one request at a time.
    pub sequential_tokens_per_s: f64,
    /// Mean decode-batch occupancy under continuous batching.
    pub mean_batch: f64,
    /// Time-to-first-token `[p50, p95, p99]` (ms, continuous batching).
    pub ttft_ms: LatencyTail,
    /// Time-per-output-token `[p50, p95, p99]` (ms, continuous batching).
    pub tpot_ms: LatencyTail,
    /// End-to-end latency `[p50, p95, p99]` (ms, continuous batching).
    pub e2e_ms: LatencyTail,
}

/// Workload shape of the sweep: a chat-style `[prefill : decode]` mix.
pub const SERVE_SHAPES: [(usize, usize); 3] = [(32, 32), (64, 16), (16, 48)];

/// Requests per sweep cell.
pub const SERVE_REQUESTS: usize = 32;

/// The default arrival-rate grid in requests per second.
pub const SERVE_RATES: [f64; 4] = [2.0, 5.0, 10.0, 20.0];

fn tail(p: &looplynx_sim::stats::Percentiles) -> LatencyTail {
    [
        p.p50().unwrap_or(0.0),
        p.p95().unwrap_or(0.0),
        p.p99().unwrap_or(0.0),
    ]
}

/// Offered-load sweep: serving throughput and latency percentiles vs
/// arrival rate, continuous batching against the sequential baseline, for
/// each ring size in `nodes_list`.
///
/// Workloads are deterministic per `(rate, seed)` so every ring size sees
/// the identical request stream at a given rate.
///
/// # Panics
///
/// Panics if `nodes_list` or `rates` is empty, or a ring size cannot
/// partition the model.
pub fn offered_load_sweep_with(
    model: &ModelConfig,
    nodes_list: &[usize],
    rates: &[f64],
    requests: usize,
    max_batch: usize,
) -> Vec<ServeSweepPoint> {
    assert!(
        !nodes_list.is_empty() && !rates.is_empty(),
        "sweep needs at least one ring size and one rate"
    );
    let cfg = ServeConfig::new(max_batch);
    let mut out = Vec::with_capacity(nodes_list.len() * rates.len());
    for &nodes in nodes_list {
        let eng = engine(model, nodes);
        for &rate in rates {
            let workload = ArrivalProcess::Poisson {
                rate_per_s: rate,
                seed: 0x10091,
            }
            .workload(requests, &SERVE_SHAPES);
            let batched = serve_continuous(&eng, &workload, &cfg);
            let serial = serve_sequential(&eng, &workload);
            out.push(ServeSweepPoint {
                nodes,
                rate_per_s: rate,
                batched_tokens_per_s: batched.tokens_per_second(),
                sequential_tokens_per_s: serial.tokens_per_second(),
                mean_batch: batched.batch_occupancy.mean(),
                ttft_ms: tail(&batched.ttft_ms),
                tpot_ms: tail(&batched.tpot_ms),
                e2e_ms: tail(&batched.e2e_ms),
            });
        }
    }
    out
}

/// The paper-configuration offered-load sweep: 1/2/4-node rings over
/// [`SERVE_RATES`] with [`SERVE_REQUESTS`] requests per cell.
pub fn offered_load_sweep(model: &ModelConfig) -> Vec<ServeSweepPoint> {
    offered_load_sweep_with(model, &[1, 2, 4], &SERVE_RATES, SERVE_REQUESTS, 8)
}

/// Renders the offered-load sweep.
pub fn render_offered_load_sweep(model: &ModelConfig) -> String {
    let mut out = format!(
        "OFFERED-LOAD SWEEP — continuous batching vs one-request-at-a-time\n\
         (Poisson arrivals, chat-style [prefill:decode] mix, {SERVE_REQUESTS} requests/cell)\n\
         nodes  req/s   batched   serial   gain  batch |   TTFT p50/p95/p99 (ms) |  TPOT p50 |    E2E p95\n",
    );
    for p in offered_load_sweep(model) {
        out.push_str(&format!(
            "{:>5} {:>6.1} {:>7.1} {:>8.1} {:>5.2}x {:>6.2} | {:>7.0} {:>6.0} {:>6.0} | {:>9.2} | {:>10.0}\n",
            p.nodes,
            p.rate_per_s,
            p.batched_tokens_per_s,
            p.sequential_tokens_per_s,
            p.batched_tokens_per_s / p.sequential_tokens_per_s.max(1e-12),
            p.mean_batch,
            p.ttft_ms[0],
            p.ttft_ms[1],
            p.ttft_ms[2],
            p.tpot_ms[0],
            p.e2e_ms[1],
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> ModelConfig {
        ModelConfig::gpt2_medium()
    }

    #[test]
    fn table2_rows_match_paper_within_10pct() {
        let rows = table2_vs_paper(&model());
        assert_eq!(rows.len(), 5);
        for (row, paper_ms) in &rows {
            assert!(
                paper::deviation(row.token_latency_ms, *paper_ms).abs() < 0.10,
                "{} {}: {} vs paper {paper_ms}",
                row.name,
                row.nodes_desc,
                row.token_latency_ms
            );
        }
    }

    /// The cells the `table2` bin prints, row for row: a pairing that
    /// crossed the 1- and 4-node rows would read +166 % and −60 %.
    #[test]
    fn table2_deltas_pair_by_node_count() {
        let printed: Vec<String> = table2_vs_paper(&model())
            .iter()
            .map(|(row, paper_ms)| paper::compare(row.token_latency_ms, *paper_ms))
            .collect();
        assert_eq!(
            printed,
            [
                "2.64 (paper 2.55, +3.4%)",
                "3.98 (paper 3.85, +3.4%)",
                "6.79 (paper 6.59, +3.0%)",
                "5.38 (paper 5.37, +0.2%)",
                "4.14 (paper 4.17, -0.6%)",
            ]
        );
    }

    #[test]
    fn table2_winner_ordering_holds() {
        let rows = table2(&model());
        let ll4 = rows[0].token_latency_ms;
        let ll2 = rows[1].token_latency_ms;
        let ll1 = rows[2].token_latency_ms;
        let dfx = rows[3].token_latency_ms;
        let spatial = rows[4].token_latency_ms;
        // paper: 4-node < 2-node < spatial < DFX < 1-node
        assert!(ll4 < ll2 && ll2 < spatial && spatial < dfx && dfx < ll1);
    }

    #[test]
    fn table3_speedups_match_paper() {
        let rows = table3(&model());
        let s21 = rows[1].speedup_vs_previous.unwrap();
        let s42 = rows[2].speedup_vs_previous.unwrap();
        assert!((s21 - paper::TABLE3_SPEEDUPS[0]).abs() < 0.15, "2v1 {s21}");
        assert!((s42 - paper::TABLE3_SPEEDUPS[1]).abs() < 0.15, "4v2 {s42}");
    }

    #[test]
    fn fig5_shape_matches_paper() {
        let levels = fig5(&model());
        assert_eq!(levels.len(), 3);
        // baseline split near 81.5 / 18.5
        assert!(
            (levels[0].linear_mha_fraction - paper::FIG5_LINEAR_MHA_FRACTION).abs() < 0.07,
            "baseline split {}",
            levels[0].linear_mha_fraction
        );
        // each optimization helps, cumulatively
        assert!(levels[1].reduction_vs_baseline > 0.04);
        assert!(levels[2].reduction_vs_baseline > levels[1].reduction_vs_baseline);
        // cumulative reduction in the paper's ballpark (15 %)
        assert!(
            (levels[2].reduction_vs_baseline - paper::FIG5_CUMULATIVE_REDUCTION).abs() < 0.08,
            "cumulative {}",
            levels[2].reduction_vs_baseline
        );
    }

    #[test]
    fn fig7_components_and_layout() {
        let data = fig7();
        assert!(data.components.iter().any(|c| c.name.contains("MP")));
        assert!(data.layout.contains("SLR1"));
        assert!(render_fig7().contains("Device Total"));
    }

    #[test]
    fn table1_renders_three_platforms() {
        let s = render_table1();
        assert!(s.contains("A100") && s.contains("U280") && s.contains("U50"));
    }

    #[test]
    fn offered_load_sweep_favors_continuous_batching() {
        // A fast single-rate slice of the sweep: at an over-subscribed
        // arrival rate, continuous batching must sustain strictly more
        // tokens/s than serve-one-at-a-time on every ring size, and the
        // latency tails must be populated and ordered.
        let points = offered_load_sweep_with(&model(), &[1, 2], &[20.0], 12, 8);
        assert_eq!(points.len(), 2);
        for p in &points {
            assert!(
                p.batched_tokens_per_s > p.sequential_tokens_per_s,
                "{} nodes: batched {} vs sequential {}",
                p.nodes,
                p.batched_tokens_per_s,
                p.sequential_tokens_per_s
            );
            assert!(p.mean_batch > 1.0, "no batching happened");
            for tail in [p.ttft_ms, p.tpot_ms, p.e2e_ms] {
                assert!(tail[0] > 0.0);
                assert!(tail[0] <= tail[1] && tail[1] <= tail[2], "tail unordered");
            }
        }
    }

    #[test]
    fn sweep_scales_with_ring_size() {
        // More nodes decode faster, so the saturated serving throughput
        // must grow with the ring.
        let points = offered_load_sweep_with(&model(), &[1, 4], &[20.0], 12, 8);
        assert!(points[1].batched_tokens_per_s > points[0].batched_tokens_per_s);
    }
}
