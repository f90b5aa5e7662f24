//! Every paper-vs-measured delta in one document, `BENCH_paper.json`:
//! Table II's five token latencies, Table III's three throughputs, Fig. 5's
//! two ablation values and Fig. 8's seven means over its `[prefill:decode]`
//! grid, each beside the paper's number. Simulated time repeats exactly,
//! so CI reruns this bin and requires everything but `machine` to equal
//! the committed file. `report [output.json]` (`--quick` is accepted and
//! changes nothing).

use looplynx_bench::report::{run_bin, Json};
use looplynx_bench::{experiments as ex, paper};
use looplynx_model::ModelConfig;

/// `(what, measured, paper)` rows as objects that also carry the signed
/// deviation in percent.
fn rows(items: impl IntoIterator<Item = (String, f64, f64)>) -> Json {
    Json::arr(items, |(what, measured, reported)| {
        let delta_pct = paper::deviation(measured, reported) * 100.0;
        Json::Obj(vec![
            ("what", Json::Str(what)),
            ("measured", measured.into()),
            ("paper", reported.into()),
            ("delta_pct", delta_pct.into()),
        ])
    })
}

fn deltas(_quick: bool) -> Json {
    let model = ModelConfig::gpt2_medium();
    let table2 = ex::table2_vs_paper(&model).into_iter().map(|(row, ms)| {
        let what = format!("{} {} token ms", row.name, row.nodes_desc);
        (what, row.token_latency_ms, ms)
    });
    let table3 = ex::table3(&model)
        .into_iter()
        .zip(paper::TABLE3_TOKENS_PER_S);
    let table3 = table3.map(|(row, tps)| {
        let what = format!("{}-node tokens/s", row.nodes);
        (what, row.tokens_per_second, tps)
    });
    let fig5 = ex::fig5(&model);
    let (base, all) = (&fig5[0], &fig5[2]);
    let fig5 = [
        (
            "baseline linear+MHA",
            base.linear_mha_fraction,
            paper::FIG5_LINEAR_MHA_FRACTION,
        ),
        (
            "cumulative reduction",
            all.reduction_vs_baseline,
            paper::FIG5_CUMULATIVE_REDUCTION,
        ),
    ];
    let ex::Fig8Data {
        mean_speedup: speedup,
        mean_energy_fraction: fraction,
        mean_energy_efficiency: efficiency,
        ..
    } = ex::fig8(&model);
    let (ps, pf, pe) = (
        paper::FIG8_SPEEDUP_VS_A100,
        paper::FIG8_ENERGY_FRACTION,
        paper::FIG8_ENERGY_EFF,
    );
    let fig8 = [
        ("2-node speedup vs A100", speedup[1], ps[0]),
        ("4-node speedup vs A100", speedup[2], ps[1]),
        ("2-node energy fraction", fraction[1], pf[0]),
        ("4-node energy fraction", fraction[2], pf[1]),
        ("1-node energy efficiency", efficiency[0], pe[0]),
        ("2-node energy efficiency", efficiency[1], pe[1]),
        ("4-node energy efficiency", efficiency[2], pe[2]),
    ];
    let owned =
        |(what, measured, reported): (&str, f64, f64)| (what.to_owned(), measured, reported);
    Json::Obj(vec![
        ("table2", rows(table2)),
        ("table3", rows(table3)),
        ("fig5", rows(fig5.map(owned))),
        ("fig8", rows(fig8.map(owned))),
    ])
}

fn main() {
    run_bin("report", "BENCH_paper.json", deltas, Json::clone);
}
