//! Per-layer metrics the traced rep yields by itself: `serve.*` and
//! `backend.*` from spans and gateway reports, the `paged.*` gauges and
//! the `prefix.*` counters.

use std::collections::{BTreeMap, BTreeSet};

use looplynx_core::backend::FunctionalBackend;
use looplynx_serve::gateway::TerminalCounts;

use crate::probes::Metrics;
use crate::run::Rep;
use crate::stats::{percentile_or_zero, ratio};
use crate::traced::{self_ns, Span, TracedBackend};

fn ms(span: &Span) -> f64 {
    span.wall_ns() as f64 / 1e6
}

/// Pushes `serve.*`, `backend.*`, the `paged.*` gauges and the `prefix.*`
/// counters of one traced rep. A percentile with no samples reads 0.
pub fn traced_metrics(rep: &Rep, traced: &TracedBackend<FunctionalBackend>, out: &mut Metrics) {
    let spans = traced.spans();
    let ok = |name: &'static str| {
        spans
            .iter()
            .filter(move |s| s.name == name && s.outcome == "ok")
    };
    let wall_ms = |name: &'static str| -> Vec<f64> { ok(name).map(ms).collect() };
    let p50 = |xs: &[f64]| percentile_or_zero(xs, 50.0);
    let mut push = |name: &str, value: f64| out.push((name.to_owned(), value));

    // ---- serve
    let roots: Vec<&Span> = spans.iter().filter(|s| s.parent.is_none()).collect();
    let calls: Vec<&Span> = spans.iter().filter(|s| s.parent.is_some()).collect();
    let root_ns: u64 = roots.iter().map(|s| s.wall_ns()).sum();
    let self_total_ns: u64 = roots.iter().map(|s| self_ns(s, spans)).sum();
    let billed_ms: f64 = calls.iter().map(|s| s.billed_ms).sum();
    let calls_ms: f64 = calls.iter().map(|s| ms(s)).sum();
    let iters: u64 = rep
        .reports
        .iter()
        .map(|r| r.serving.decode_iterations)
        .sum();
    let occupancy = ratio(
        rep.reports
            .iter()
            .map(|r| r.serving.batch_occupancy.sum())
            .sum(),
        iters as f64,
    );
    let makespan_ms: f64 = rep.reports.iter().map(|r| r.serving.makespan_ms()).sum();
    let terminals = |f: fn(&TerminalCounts) -> usize| -> f64 {
        rep.reports.iter().map(|r| f(&r.counts())).sum::<usize>() as f64
    };

    // A request's own prefill compute: every ok span that fed its prompt.
    let prefill_names = ["prefill", "prefill_open", "prefill_step"];
    let mut own_prefill: BTreeMap<u64, (f64, f64)> = BTreeMap::new();
    for s in spans
        .iter()
        .filter(|s| s.outcome == "ok" && prefill_names.contains(&s.name))
    {
        if let Some(id) = s.request {
            let e = own_prefill.entry(id).or_default();
            e.0 += ms(s);
            e.1 += s.billed_ms;
        }
    }
    // Queue wait on the serving clock: TTFT minus the request's own
    // billed prefill. Under chunked prefill the remainder also holds the
    // other residents' work interleaved between its chunks.
    let queue_wait: Vec<f64> = rep
        .reports
        .iter()
        .flat_map(|r| &r.serving.requests)
        .map(|m| (m.ttft_ms() - own_prefill.get(&m.id).map_or(0.0, |e| e.1)).max(0.0))
        .collect();

    // `+ 0.0`: an empty f64 sum is -0.0, which would print as "-0".
    let tokens =
        |name: &'static str| -> f64 { ok(name).map(|s| f64::from(s.tokens)).sum::<f64>() + 0.0 };
    let submitted = tokens("prefill") + tokens("prefill_open");
    let resubmitted = tokens("resume");

    push(
        "serve.queue_wait_ms_p50",
        percentile_or_zero(&queue_wait, 50.0),
    );
    push(
        "serve.queue_wait_ms_p90",
        percentile_or_zero(&queue_wait, 90.0),
    );
    push("serve.batch_occupancy_mean", occupancy);
    push("serve.decode_iters", iters as f64);
    push(
        "serve.decode_gap_ms_p90",
        percentile_or_zero(&traced.observed().decode_gaps_ms, 90.0),
    );
    push(
        "serve.self_frac",
        ratio(self_total_ns as f64, root_ns as f64),
    );
    push(
        "serve.self_us_per_iter",
        ratio(self_total_ns as f64 / 1e3, iters as f64),
    );
    push("serve.busy_frac", ratio(billed_ms, makespan_ms));
    // Requests preempted at least once, not preemption events.
    let preempted: BTreeSet<u64> = ok("preempt").filter_map(|s| s.request).collect();
    push(
        "serve.preempted_frac",
        ratio(preempted.len() as f64, rep.offered as f64),
    );
    push(
        "serve.reprefill_tok_frac",
        ratio(resubmitted, submitted + resubmitted),
    );
    push(
        "serve.retries",
        rep.reports.iter().map(|r| r.retries).sum::<u64>() as f64,
    );
    push("serve.rejected", terminals(|c| c.rejected));
    push("serve.timed_out", terminals(|c| c.timed_out));

    // ---- backend
    let per_request: Vec<f64> = own_prefill.values().map(|e| e.0).collect();
    let prefill_s = (per_request.iter().sum::<f64>() + wall_ms("resume").iter().sum::<f64>()) / 1e3;
    let stats = traced.inner().engine().prefix_stats().unwrap_or_default();
    let decodes = wall_ms("decode");
    push(
        "backend.prefill_ms_p50",
        percentile_or_zero(&per_request, 50.0),
    );
    push(
        "backend.prefill_ms_p90",
        percentile_or_zero(&per_request, 90.0),
    );
    push(
        "backend.prefill_chunk_ms_p50",
        p50(&wall_ms("prefill_step")),
    );
    // Fed = submitted minus what the prefix cache mapped instead.
    let reused = traced.observed().reused_tokens as f64;
    push(
        "backend.prefill_fed_tok_s",
        ratio(submitted + resubmitted - reused, prefill_s),
    );
    push(
        "backend.prefill_submitted_tok_s",
        ratio(submitted + resubmitted, prefill_s),
    );
    push("backend.decode_iter_ms_p50", p50(&decodes));
    push(
        "backend.decode_iter_ms_p90",
        percentile_or_zero(&decodes, 90.0),
    );
    for b in [1u32, 4, 8, 16] {
        let at: Vec<f64> = ok("decode").filter(|s| s.batch == b).map(ms).collect();
        push(&format!("backend.decode_iter_ms.b{b}"), p50(&at));
    }
    push(
        "backend.decode_tok_s",
        ratio(tokens("decode"), decodes.iter().sum::<f64>() / 1e3),
    );
    let us = |xs: Vec<f64>| xs.into_iter().map(|x| x * 1e3).collect::<Vec<_>>();
    push("backend.open_us_p50", p50(&us(wall_ms("prefill_open"))));
    push("backend.release_us_p50", p50(&us(wall_ms("release"))));
    push("backend.preempt_us_p50", p50(&us(wall_ms("preempt"))));
    push("backend.resume_ms_p50", p50(&wall_ms("resume")));
    let errors = |kind: &str| calls.iter().filter(|s| s.outcome == kind).count() as f64;
    let failed = calls.iter().filter(|s| s.outcome != "ok").count() as f64;
    push("backend.err.pages_exhausted", errors("pages_exhausted"));
    push("backend.err.slots_exhausted", errors("slots_exhausted"));
    push(
        "backend.err.other",
        failed - errors("pages_exhausted") - errors("slots_exhausted"),
    );
    push(
        "backend.unbilled_frac",
        ratio(calls_ms - billed_ms, calls_ms),
    );

    // ---- paged gauges and prefix counters
    push("paged.pages_peak_frac", traced.observed().pages_peak_frac);
    push(
        "paged.shared_pages_peak",
        traced.observed().shared_pages_peak as f64,
    );
    push(
        "prefix.hit_rate",
        ratio(stats.hits as f64, stats.lookups as f64),
    );
    push(
        "prefix.reused_tok_frac",
        ratio(reused, submitted + resubmitted),
    );
    push("prefix.inserted", stats.inserted as f64);
    push("prefix.evicted", stats.evicted as f64);
}
