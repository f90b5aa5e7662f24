//! The metric registry: every name the benchmark prints, with its unit
//! and direction. `--describe` renders it, a unit test holds the root
//! `BENCHMARK.json` to it, and a run refuses to print a result whose
//! metric set differs from it.

use crate::json::Json;
use crate::workloads;

/// `(name, unit, better)`.
pub type Metric = (&'static str, &'static str, &'static str);

const LOWER: &str = "lower";
const HIGHER: &str = "higher";

/// End-to-end metrics, the same on every workload, with the share of the
/// parent's median each may worsen by before a change is a regression.
pub const END_TO_END: &[(Metric, f64)] = &[
    (("setup_s", "s", LOWER), 0.25),
    (("ttft_ms_p50", "ms", LOWER), 0.25),
    (("ttft_ms_p90", "ms", LOWER), 0.25),
    (("tpot_ms_p50", "ms", LOWER), 0.25),
    (("tpot_ms_p90", "ms", LOWER), 0.25),
    (("out_tok_s", "tok/s", HIGHER), 0.25),
    (("slo_attained_frac", "fraction", HIGHER), 0.05),
    (("peak_rss_mib", "MiB", LOWER), 0.05),
];

/// Per-layer metrics of the traced pass, grouped by layer (a module).
pub const PER_LAYER: &[Metric] = &[
    // serve: GatewayReport + spans.
    ("serve.queue_wait_ms_p50", "ms", LOWER),
    ("serve.queue_wait_ms_p90", "ms", LOWER),
    ("serve.batch_occupancy_mean", "count", HIGHER),
    ("serve.decode_iters", "count", LOWER),
    ("serve.decode_gap_ms_p90", "ms", LOWER),
    ("serve.self_frac", "fraction", LOWER),
    ("serve.self_us_per_iter", "us", LOWER),
    ("serve.busy_frac", "fraction", LOWER),
    ("serve.preempted_frac", "fraction", LOWER),
    ("serve.reprefill_tok_frac", "fraction", LOWER),
    ("serve.retries", "count", LOWER),
    ("serve.rejected", "count", LOWER),
    ("serve.timed_out", "count", LOWER),
    // backend: TracedBackend spans around every InferenceBackend call.
    ("backend.prefill_ms_p50", "ms", LOWER),
    ("backend.prefill_ms_p90", "ms", LOWER),
    ("backend.prefill_chunk_ms_p50", "ms", LOWER),
    ("backend.prefill_fed_tok_s", "tok/s", HIGHER),
    ("backend.prefill_submitted_tok_s", "tok/s", HIGHER),
    ("backend.decode_iter_ms_p50", "ms", LOWER),
    ("backend.decode_iter_ms_p90", "ms", LOWER),
    ("backend.decode_iter_ms.b1", "ms", LOWER),
    ("backend.decode_iter_ms.b4", "ms", LOWER),
    ("backend.decode_iter_ms.b8", "ms", LOWER),
    ("backend.decode_iter_ms.b16", "ms", LOWER),
    ("backend.decode_tok_s", "tok/s", HIGHER),
    ("backend.open_us_p50", "us", LOWER),
    ("backend.release_us_p50", "us", LOWER),
    ("backend.preempt_us_p50", "us", LOWER),
    ("backend.resume_ms_p50", "ms", LOWER),
    ("backend.err.pages_exhausted", "count", LOWER),
    ("backend.err.slots_exhausted", "count", LOWER),
    ("backend.err.other", "count", LOWER),
    ("backend.unbilled_frac", "fraction", LOWER),
    // engine: direct DistributedGpt2 calls at the workload's median context.
    ("engine.decode_step_ms.n1_b1", "ms", LOWER),
    ("engine.decode_step_ms.n1_b4", "ms", LOWER),
    ("engine.decode_step_ms.n1_b8", "ms", LOWER),
    ("engine.decode_step_ms.n1_b16", "ms", LOWER),
    ("engine.decode_step_ms.n2_b1", "ms", LOWER),
    ("engine.decode_step_ms.n2_b4", "ms", LOWER),
    ("engine.decode_step_ms.n2_b16", "ms", LOWER),
    ("engine.prefill_chunk_ms.n1_c32", "ms", LOWER),
    ("engine.prefill_chunk_ms.n2_c32", "ms", LOWER),
    ("engine.prefill_tok_s.n1", "tok/s", HIGHER),
    ("engine.prefill_tok_s.n2", "tok/s", HIGHER),
    ("engine.ring_ratio.b1", "ratio", HIGHER),
    ("engine.ring_ratio.b16", "ratio", HIGHER),
    ("engine.batch_speedup.b16", "ratio", HIGHER),
    ("engine.unattributed_frac.n1_b1", "fraction", LOWER),
    ("engine.unattributed_frac.n1_b16", "fraction", LOWER),
    ("engine.unattributed_frac.n2_b1", "fraction", LOWER),
    ("engine.prefix_attach_us.hit6p", "us", LOWER),
    ("engine.release_us", "us", LOWER),
    // pool
    ("pool.dispatch_join_us.w2", "us", LOWER),
    // attention: both kernels over a PagedLayerView, 16 heads.
    ("attention.materialized_us.ctx64", "us", LOWER),
    ("attention.materialized_us.ctx256", "us", LOWER),
    ("attention.fused_us.ctx64", "us", LOWER),
    ("attention.fused_us.ctx256", "us", LOWER),
    ("attention.kv_gbps.ctx256", "GB/s", HIGHER),
    // paged: call costs, then gauges sampled after every backend call.
    ("paged.reserve_ns", "ns", LOWER),
    ("paged.release_us", "us", LOWER),
    ("paged.map_shared_ns", "ns", LOWER),
    ("paged.cow_fork_us", "us", LOWER),
    ("paged.pages_peak_frac", "fraction", LOWER),
    ("paged.shared_pages_peak", "count", HIGHER),
    // prefix: call costs, then the engine's prefix_stats().
    ("prefix.lookup_us.hit", "us", LOWER),
    ("prefix.lookup_us.miss", "us", LOWER),
    ("prefix.register_us", "us", LOWER),
    ("prefix.hit_rate", "fraction", HIGHER),
    ("prefix.reused_tok_frac", "fraction", HIGHER),
    ("prefix.inserted", "count", LOWER),
    ("prefix.evicted", "count", LOWER),
    // linear: QuantLinear::forward_batch_scaled_into at the model shapes.
    ("linear.gmacs.qkv_b1", "GMAC/s", HIGHER),
    ("linear.gmacs.qkv_b16", "GMAC/s", HIGHER),
    ("linear.gmacs.out_b1", "GMAC/s", HIGHER),
    ("linear.gmacs.out_b16", "GMAC/s", HIGHER),
    ("linear.gmacs.fc1_b1", "GMAC/s", HIGHER),
    ("linear.gmacs.fc1_b4", "GMAC/s", HIGHER),
    ("linear.gmacs.fc1_b8", "GMAC/s", HIGHER),
    ("linear.gmacs.fc1_b16", "GMAC/s", HIGHER),
    ("linear.gmacs.fc1_b32", "GMAC/s", HIGHER),
    ("linear.gmacs.fc2_b1", "GMAC/s", HIGHER),
    ("linear.gmacs.fc2_b16", "GMAC/s", HIGHER),
    ("linear.gmacs.lmhead_b1", "GMAC/s", HIGHER),
    ("linear.gmacs.lmhead_b16", "GMAC/s", HIGHER),
    ("linear.weight_gbps.fc1_b1", "GB/s", HIGHER),
    ("linear.roofline_frac.fc1_b1", "fraction", HIGHER),
    ("linear.roofline_frac.fc1_b16", "fraction", HIGHER),
    // simd: this machine's roofline.
    ("simd.stream_gbps", "GB/s", HIGHER),
    ("simd.dot_peak_gmacs", "GMAC/s", HIGHER),
    ("simd.quantize_gbps", "GB/s", HIGHER),
    ("simd.gelu_gelems", "Gelem/s", HIGHER),
    ("simd.axpy_gbps", "GB/s", HIGHER),
    // sim: the same trace on the timing backend, beside the functional
    // shares it should be calibrated against.
    ("sim.ttft_ms_p50", "ms", LOWER),
    ("sim.tpot_ms_p50", "ms", LOWER),
    ("sim.makespan_ms", "ms", LOWER),
    ("sim.host_ms", "ms", LOWER),
    ("sim.tok_per_host_s", "tok/s", HIGHER),
    ("sim.linear_frac", "fraction", LOWER),
    ("sim.mha_frac", "fraction", LOWER),
    ("sim.sync_frac", "fraction", LOWER),
    ("calib.linear_frac", "fraction", HIGHER),
    ("calib.mha_frac", "fraction", LOWER),
    ("sim.table2_err_pct.n1", "pct", LOWER),
    ("sim.table2_err_pct.n2", "pct", LOWER),
    ("sim.table2_err_pct.n4", "pct", LOWER),
    ("trace.overhead_frac", "fraction", LOWER),
];

/// Seconds one driver run measures for.
pub const RUN_SECONDS: u64 = 28;

fn metric_json((name, unit, better): Metric, bound: Option<f64>) -> Json {
    let mut fields = vec![
        ("name", Json::str(name)),
        ("unit", Json::str(unit)),
        ("better", Json::str(better)),
    ];
    if let Some(bound) = bound {
        fields.push(("bound", Json::Num(bound)));
    }
    Json::obj(fields)
}

/// The whole of `BENCHMARK.json`, as the binary understands itself.
pub fn describe() -> Json {
    let dir = "crates/bench/src/bin/benchmark";
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--manifest-path",
        "crates/bench/src/bin/benchmark/Cargo.toml",
        "--",
    ];
    Json::obj([
        (
            "command",
            Json::Arr(command.into_iter().map(Json::str).collect()),
        ),
        ("paths", Json::Arr(vec![Json::str(dir)])),
        ("run_seconds", Json::Int(RUN_SECONDS.into())),
        (
            "workloads",
            Json::Arr(
                workloads::all()
                    .iter()
                    .map(|s| Json::obj([("name", Json::str(s.name)), ("why", Json::str(s.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|&(m, bound)| metric_json(m, Some(bound)))
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(|&m| metric_json(m, None)).collect()),
        ),
    ])
}

/// Pairs measured values with their units in registry order.
///
/// # Errors
///
/// Names the first metric that is missing, unknown or measured twice.
pub fn result_metrics(
    registry: impl IntoIterator<Item = Metric>,
    measured: &[(String, f64)],
) -> Result<Json, String> {
    let mut fields = Vec::new();
    let mut used = 0;
    for (name, unit, _) in registry {
        let mut hits = measured.iter().filter(|(n, _)| n == name);
        let Some((_, value)) = hits.next() else {
            return Err(format!("metric {name} was not measured"));
        };
        if hits.next().is_some() {
            return Err(format!("metric {name} was measured twice"));
        }
        used += 1;
        fields.push((
            name,
            Json::obj([("value", Json::Num(*value)), ("unit", Json::str(unit))]),
        ));
    }
    if used != measured.len() {
        let stray = measured
            .iter()
            .find(|(n, _)| !fields.iter().any(|(f, _)| f == n))
            .map_or("?", |(n, _)| n.as_str());
        return Err(format!("metric {stray} is not in the registry"));
    }
    Ok(Json::obj(fields))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The committed file, whitespace aside, is what `--describe` prints.
    #[test]
    fn committed_benchmark_json_matches_describe() {
        let committed = include_str!("../../../../../BENCHMARK.json");
        let squash = |s: &str| s.split_whitespace().collect::<String>();
        assert_eq!(squash(committed), squash(&describe().render()));
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|(m, _)| m.0)
            .chain(PER_LAYER.iter().map(|m| m.0))
            .chain(workloads::all().iter().map(|s| s.name))
            .collect();
        for n in &names {
            assert!(n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(END_TO_END.iter().all(|&(_, b)| b > 0.0 && b <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|(m, _)| *m == ("setup_s", "s", "lower")));
        assert!(workloads::all().iter().all(|s| s.why.len() <= 200));
    }

    #[test]
    fn result_metrics_rejects_missing_stray_and_repeated_names() {
        let registry = [("a", "ms", LOWER), ("b", "s", LOWER)];
        let m = |pairs: &[(&str, f64)]| -> Vec<(String, f64)> {
            pairs.iter().map(|&(n, v)| (n.to_owned(), v)).collect()
        };
        let ok = result_metrics(registry, &m(&[("b", 2.0), ("a", 1.5)])).unwrap();
        assert_eq!(
            ok.render(),
            r#"{"a": {"value": 1.5, "unit": "ms"}, "b": {"value": 2, "unit": "s"}}"#
        );
        assert!(result_metrics(registry, &m(&[("a", 1.0)])).is_err());
        assert!(result_metrics(registry, &m(&[("a", 1.0), ("b", 1.0), ("c", 1.0)])).is_err());
        assert!(result_metrics(registry, &m(&[("a", 1.0), ("a", 1.0), ("b", 1.0)])).is_err());
    }
}
