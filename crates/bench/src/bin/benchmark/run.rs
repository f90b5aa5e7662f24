//! One rep of one workload through `serve_gateway_on`, and the
//! correctness gate over its outputs.

use std::collections::BTreeMap;
use std::time::Instant;

use looplynx_core::backend::{FunctionalBackend, InferenceBackend};
use looplynx_core::engine::DistributedGpt2;
use looplynx_model::gpt2::Gpt2Model;
use looplynx_model::sampler::argmax;
use looplynx_serve::gateway::{serve_gateway_on, GatewayReport, GatewayRequest, Terminal};

use crate::fixture::Fixture;
use crate::traced::{Gauges, TracedBackend};
use crate::workloads::{Spec, Trace};

/// Everything one rep produced.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Seconds the timed set-up took (load, build, cache, warm-up).
    pub setup_s: f64,
    /// Host-wall seconds inside the `serve_gateway_on` calls.
    pub wall_s: f64,
    pub offered: usize,
    pub completed: usize,
    /// Output tokens of completed requests.
    pub out_tokens: usize,
    /// TTFT of each completed request on the serving clock.
    pub ttft_ms: Vec<f64>,
    /// TPOT of each completed request with ≥ 2 output tokens.
    pub tpot_ms: Vec<f64>,
    /// Offered requests that completed inside both latency limits.
    pub slo_ok: usize,
    /// Every call's report kept its one-terminal-per-request invariant.
    pub conserved: bool,
    /// After the last call every page was free or cache-pinned.
    pub quiescent: bool,
    /// Digest of all completed token streams, by request id.
    pub digest: u64,
    /// The requests offered, per call, and each completed request's
    /// tokens — what the reference check and the sim replay need.
    pub calls: Vec<Vec<GatewayRequest>>,
    pub outputs: BTreeMap<u64, Vec<u32>>,
    pub reports: Vec<GatewayReport>,
}

impl Rep {
    /// Completed output tokens per host-wall second of the gateway calls.
    pub fn out_tok_s(&self) -> f64 {
        self.out_tokens as f64 / self.wall_s
    }
}

/// Serves every call of `trace` on `backend`. `around` brackets each
/// gateway call (`true` before, `false` after) so a traced backend can
/// open and close its root span.
fn serve_calls<B: InferenceBackend>(
    backend: &mut B,
    spec: &Spec,
    trace: &Trace,
    mut around: impl FnMut(&mut B, bool),
) -> Rep {
    let cfg = spec.gateway();
    let mut rep = Rep {
        conserved: true,
        ..Rep::default()
    };
    let mut history: BTreeMap<u64, (Vec<u32>, Vec<u32>)> = BTreeMap::new();
    for call in 0..trace.calls() {
        let requests = trace.call(call, &history);
        around(backend, true);
        let start = Instant::now();
        let report = serve_gateway_on(backend, &requests, &cfg);
        rep.wall_s += start.elapsed().as_secs_f64();
        around(backend, false);

        rep.conserved &= report.is_conserved(&requests);
        rep.offered += report.offered();
        for m in &report.serving.requests {
            rep.completed += 1;
            rep.out_tokens += m.decode_tokens;
            rep.ttft_ms.push(m.ttft_ms());
            let tpot_ok = if m.decode_tokens >= 2 {
                rep.tpot_ms.push(m.tpot_ms());
                m.tpot_ms() <= spec.tpot_slo_ms
            } else {
                true
            };
            if tpot_ok && m.ttft_ms() <= spec.ttft_slo_ms {
                rep.slo_ok += 1;
            }
        }
        for r in &requests {
            let tokens = report
                .serving
                .output_tokens(r.req.id)
                .map(<[u32]>::to_vec)
                .unwrap_or_default();
            if matches!(report.terminal_of(r.req.id), Some(Terminal::Completed)) {
                rep.outputs.insert(r.req.id, tokens.clone());
            }
            let prompt = r.req.prompt.clone().unwrap_or_default();
            history.insert(r.req.id, (prompt, tokens));
        }
        rep.calls.push(requests);
        rep.reports.push(report);
    }
    rep.digest = digest(&rep.outputs);
    rep
}

/// Free plus cache-pinned pages account for the whole pool.
fn quiescent(engine: &DistributedGpt2) -> bool {
    engine.free_slots() == engine.slots()
        && engine.free_pages() + engine.cached_prefix_pages() == engine.total_pages()
}

/// One untraced rep on a fresh backend.
pub fn plain_rep(fixture: &Fixture, spec: &Spec, trace: &Trace) -> Rep {
    let (mut backend, setup_s) = fixture.backend(spec);
    let mut rep = serve_calls(&mut backend, spec, trace, |_, _| {});
    rep.setup_s = setup_s;
    rep.quiescent = quiescent(backend.engine());
    rep
}

/// Page and prefix-cache gauges of a functional backend, for [`TracedBackend`].
pub fn functional_gauges(backend: &FunctionalBackend) -> Gauges {
    let e = backend.engine();
    let available = e.available_pages();
    Gauges {
        total_pages: e.total_pages(),
        available_pages: available,
        // Cached pages nothing else holds are exactly the evictable ones.
        shared_pages: e.cached_prefix_pages() - (available - e.free_pages()),
        reused_tokens: e.prefix_stats().map_or(0, |s| s.reused_tokens),
    }
}

/// One traced rep on a fresh backend; returns the wrapper too, for its
/// spans, gauges and the engine's prefix statistics.
pub fn traced_rep(
    fixture: &Fixture,
    spec: &Spec,
    trace: &Trace,
) -> (Rep, TracedBackend<FunctionalBackend>) {
    let (backend, setup_s) = fixture.backend(spec);
    let mut traced = TracedBackend::new(backend, functional_gauges);
    let mut rep = serve_calls(&mut traced, spec, trace, |b, begin| {
        if begin {
            b.begin_root("serve");
        } else {
            b.end_root();
        }
    });
    rep.setup_s = setup_s;
    rep.quiescent = quiescent(traced.inner().engine());
    (rep, traced)
}

/// FNV-1a over `(id, token count, tokens)` in id order.
pub fn digest(outputs: &BTreeMap<u64, Vec<u32>>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for (id, tokens) in outputs {
        eat(*id);
        eat(tokens.len() as u64);
        for &t in tokens {
            eat(u64::from(t));
        }
    }
    h
}

/// Re-generates every `stride`-th offered request alone on the
/// single-node reference model (greedy) and counts the requests whose
/// gateway tokens differ in any bit. Returns `(checked, mismatched)`.
pub fn reference_check(reference: &mut Gpt2Model, rep: &Rep, stride: usize) -> (usize, usize) {
    let mut checked = 0;
    let mut mismatched = 0;
    for r in rep.calls.iter().flatten().step_by(stride) {
        let Some(prompt) = r.req.prompt.as_deref() else {
            continue;
        };
        reference.reset();
        let mut logits = reference.prefill_batched(prompt);
        let mut expect = Vec::with_capacity(r.req.decode_tokens);
        for produced in 0..r.req.decode_tokens {
            let token = argmax(&logits) as u32;
            expect.push(token);
            if produced + 1 < r.req.decode_tokens {
                logits = reference.decode_step(token);
            }
        }
        checked += 1;
        if rep.outputs.get(&r.req.id) != Some(&expect) {
            mismatched += 1;
        }
    }
    (checked, mismatched)
}

#[cfg(test)]
mod tests {
    use super::*;
    use looplynx_core::backend::SamplerSpec;
    use looplynx_core::router::RingMode;
    use looplynx_model::config::ModelConfig;
    use looplynx_serve::gateway::{EvictPolicyKind, ShedPolicy};
    use looplynx_serve::request::Request;

    /// A tiny two-node backend under page pressure, so the gateway
    /// exercises chunked prefill, the prefix cache and preemption.
    fn tiny_backend(model: &Gpt2Model) -> FunctionalBackend {
        let mut engine =
            DistributedGpt2::with_paged_slots(model, 2, RingMode::Exact, 4, 48, 4, 24).unwrap();
        engine.enable_prefix_cache();
        FunctionalBackend::new(engine, SamplerSpec::Greedy)
    }

    fn tiny_spec() -> Spec {
        Spec {
            name: "tiny",
            max_batch: 4,
            prefill_chunk: Some(4),
            shed: ShedPolicy::Preempt,
            evict: EvictPolicyKind::LruReclaim,
            ..crate::workloads::by_name("chat_shared").unwrap()
        }
    }

    fn tiny_requests(vocab: usize) -> Vec<GatewayRequest> {
        let shared: Vec<u32> = (0..8).map(|i| (i * 7 % vocab) as u32).collect();
        (0..10u64)
            .map(|id| {
                let mut prompt = shared.clone();
                prompt.extend(
                    (0..6 + id as usize % 5).map(|i| ((id as usize * 31 + i) % vocab) as u32),
                );
                GatewayRequest::new(
                    Request::new(id, id as f64 * 0.01, prompt.len(), 12 + id as usize % 7)
                        .with_prompt(prompt),
                )
            })
            .collect()
    }

    #[test]
    fn traced_backend_is_transparent() {
        let cfg = ModelConfig::tiny();
        let model = Gpt2Model::synthetic(&cfg, 11);
        let requests = tiny_requests(cfg.vocab);
        let gw = tiny_spec().gateway();

        let bare = serve_gateway_on(&mut tiny_backend(&model), &requests, &gw);
        let mut traced = TracedBackend::new(tiny_backend(&model), functional_gauges);
        traced.begin_root("serve");
        let seen = serve_gateway_on(&mut traced, &requests, &gw);
        traced.end_root();

        assert!(bare.preemptions > 0, "the fixture must reach preemption");
        assert_eq!(bare.counts(), seen.counts());
        let by_id = |r: &GatewayReport| -> BTreeMap<u64, Terminal> {
            r.terminals
                .iter()
                .map(|t| (t.id, t.terminal.clone()))
                .collect()
        };
        assert_eq!(by_id(&bare), by_id(&seen));
        for r in &requests {
            assert_eq!(
                bare.serving.output_tokens(r.req.id),
                seen.serving.output_tokens(r.req.id)
            );
        }
        // Every backend call hangs off the one root, labelled with the
        // request the gateway admitted into that slot.
        let spans = traced.spans();
        assert_eq!(spans[0].name, "serve");
        assert!(spans[1..].iter().all(|s| s.parent == Some(0)));
        assert!(spans
            .iter()
            .any(|s| s.name == "resume" && s.request.is_some()));
        assert!(spans
            .iter()
            .filter(|s| s.name == "release")
            .all(|s| s.request.is_some()));
        assert!(quiescent(traced.inner().engine()));
        // Reuse counts calls that succeeded; the engine's own counter also
        // holds the lookups of every refused retry.
        let engine = traced.inner().engine().prefix_stats().unwrap();
        let reused = traced.observed().reused_tokens;
        assert!(reused > 0 && reused <= engine.reused_tokens);
    }

    #[test]
    fn reference_check_accepts_gateway_tokens_and_flags_a_flipped_one() {
        let cfg = ModelConfig::tiny();
        let model = Gpt2Model::synthetic(&cfg, 11);
        let requests = tiny_requests(cfg.vocab);
        let report = serve_gateway_on(&mut tiny_backend(&model), &requests, &tiny_spec().gateway());
        let mut rep = Rep {
            outputs: requests
                .iter()
                .map(|r| {
                    let id = r.req.id;
                    (id, report.serving.output_tokens(id).unwrap().to_vec())
                })
                .collect(),
            calls: vec![requests],
            ..Rep::default()
        };
        let mut reference = model.clone();
        assert_eq!(reference_check(&mut reference, &rep, 2), (5, 0));
        rep.outputs.get_mut(&4).unwrap()[3] ^= 1;
        assert_eq!(reference_check(&mut reference, &rep, 2), (5, 1));
    }

    #[test]
    fn digest_depends_on_ids_and_tokens() {
        let a: BTreeMap<u64, Vec<u32>> = [(1, vec![1, 2]), (2, vec![3])].into();
        let b: BTreeMap<u64, Vec<u32>> = [(1, vec![1]), (2, vec![2, 3])].into();
        let c: BTreeMap<u64, Vec<u32>> = [(1, vec![1, 2]), (3, vec![3])].into();
        assert_eq!(digest(&a), digest(&a.clone()));
        assert_ne!(digest(&a), digest(&b));
        assert_ne!(digest(&a), digest(&c));
    }
}
