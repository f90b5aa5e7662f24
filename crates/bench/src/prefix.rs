//! Multi-turn chat-trace prefix-cache benchmark.
//!
//! Measures what content-addressed prefix sharing bought: the prefill
//! cost of a chat workload where every turn re-submits the full
//! conversation history. Each turn's prompt is the system prompt, all
//! prior user/assistant spans, and one new user span — so with the
//! cache off the engine recomputes the whole history every turn, while
//! with the cache on it maps the cached pages and prefills only the
//! novel suffix. Conversations are interleaved round-robin, so the
//! index must hold every conversation's chain (plus the shared system
//! prompt) simultaneously.
//!
//! Both sides run at **equal arena bytes** (same page pool) and must
//! produce bit-identical token streams — the run asserts that, not just
//! the tests. The headline metric is *prefill amplification*: summed
//! cache-off prefill time over summed cache-on prefill time, i.e. how
//! many times more prompt tokens per second the same arena sustains on
//! this trace. The acceptance bar for the prefix-cache work is ≥ 2×.
//!
//! The `prefix` binary renders `BENCH_prefix.json`, embedding the
//! pinned pre-change baseline ([`BASELINE`]) so every run reports the
//! cache-off prefill throughput it is judged against.

use std::time::Instant;

use looplynx_core::backend::{FunctionalBackend, InferenceBackend, SamplerSpec};
use looplynx_core::engine::DistributedGpt2;
use looplynx_core::router::RingMode;
use looplynx_model::config::ModelConfig;
use looplynx_model::gpt2::Gpt2Model;
use looplynx_model::prefix::PrefixIndexStats;

use crate::hotpath::medium_shaped;
use crate::report::{best_of, fields, Json};

/// Cache-off chat-trace prefill throughput of the **pre-change** tree
/// (PR 9 state: paged arena, no prefix sharing), measured on this repo
/// by this benchmark's cache-off side immediately before the prefix
/// cache landed. The cache-on side is judged as a multiple of this.
pub const BASELINE: Baseline = Baseline {
    captured_at: "pre-prefix-cache (PR 9 tree, cache-off side of this trace, best-of-5)",
    medium_prefill_tok_s_1node: 1621.5,
};

/// Pre-change reference numbers baked into the report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Baseline {
    /// Where the numbers come from.
    pub captured_at: &'static str,
    /// Chat-trace prefill tokens/s, [`medium_shaped`], 1 node, no cache.
    pub medium_prefill_tok_s_1node: f64,
}

/// Shape of the chat trace both sides replay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChatTraceSpec {
    /// Concurrent conversations, interleaved round-robin.
    pub convs: usize,
    /// Turns per conversation.
    pub turns: usize,
    /// Shared system-prompt length (tokens) — identical across
    /// conversations, so even first turns hit the cache.
    pub system_tokens: usize,
    /// New user tokens per turn.
    pub user_tokens: usize,
    /// Assistant tokens decoded per turn.
    pub decode_tokens: usize,
    /// Tokens per KV page.
    pub page_tokens: usize,
    /// Page-pool size — identical on both sides (equal arena bytes).
    pub pool_pages: usize,
    /// Per-slot KV capacity (tokens).
    pub capacity: usize,
}

impl ChatTraceSpec {
    /// The full-sized trace.
    pub fn full() -> Self {
        ChatTraceSpec {
            convs: 4,
            turns: 4,
            system_tokens: 64,
            user_tokens: 8,
            decode_tokens: 8,
            page_tokens: 16,
            pool_pages: 48,
            capacity: 160,
        }
    }

    /// The CI-sized `--quick` trace.
    pub fn quick() -> Self {
        ChatTraceSpec {
            convs: 3,
            turns: 3,
            system_tokens: 48,
            user_tokens: 6,
            decode_tokens: 6,
            page_tokens: 16,
            pool_pages: 32,
            capacity: 128,
        }
    }
}

/// The full chat-trace report.
#[derive(Debug, Clone, PartialEq)]
pub struct PrefixReport {
    /// Model configuration name.
    pub model: String,
    /// Ring size.
    pub nodes: usize,
    /// The trace shape.
    pub spec: ChatTraceSpec,
    /// Total prompt tokens submitted across all prefills (both sides
    /// submit exactly this many; the cached side *computes* fewer).
    pub prompt_tokens: usize,
    /// Summed prefill time with the cache off (best repetition).
    pub off_prefill_ms: f64,
    /// Summed prefill time with the cache on (best repetition).
    pub on_prefill_ms: f64,
    /// `off_prefill_ms / on_prefill_ms` — the headline amplification.
    pub amplification: f64,
    /// Prompt tokens/s sustained by the cache-off side.
    pub off_prefill_tok_s: f64,
    /// Prompt tokens/s sustained by the cache-on side (same submitted
    /// tokens over less time — this is the amplified rate).
    pub on_prefill_tok_s: f64,
    /// Index statistics from the cache-on side's best repetition.
    pub stats: PrefixIndexStats,
    /// `hits / lookups` over the cache-on run.
    pub hit_rate: f64,
    /// Host wall-clock of the whole measurement.
    pub wall_s: f64,
    /// Whether the run used the reduced `--quick` trace.
    pub quick: bool,
}

/// One replay's outcome.
struct TraceOutcome {
    prefill_ms: f64,
    prompt_tokens: usize,
    tokens: Vec<Vec<u32>>,
    stats: Option<PrefixIndexStats>,
}

/// Deterministic token material (tiny LCG; no rand dependency).
fn lcg_tokens(state: &mut u64, n: usize, vocab: usize) -> Vec<u32> {
    (0..n)
        .map(|_| {
            *state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            ((*state >> 33) % vocab as u64) as u32
        })
        .collect()
}

/// Replays the chat trace once. Conversations advance round-robin:
/// admit the next turn (full history as the prompt), decode the
/// assistant span, release (which, cache-on, registers the chain).
fn run_trace(model: &Gpt2Model, vocab: usize, spec: &ChatTraceSpec, cache: bool) -> TraceOutcome {
    let mut engine = DistributedGpt2::with_paged_slots(
        model,
        1,
        RingMode::Exact,
        2,
        spec.capacity,
        spec.page_tokens,
        spec.pool_pages,
    )
    .expect("benchmark model partitions");
    if cache {
        engine.enable_prefix_cache();
    }
    let mut b = FunctionalBackend::new(engine, SamplerSpec::Greedy);

    let mut seed = 0x00C0_FFEEu64;
    let system = lcg_tokens(&mut seed, spec.system_tokens, vocab);
    let users: Vec<Vec<Vec<u32>>> = (0..spec.convs)
        .map(|_| {
            (0..spec.turns)
                .map(|_| lcg_tokens(&mut seed, spec.user_tokens, vocab))
                .collect()
        })
        .collect();

    let mut history: Vec<Vec<u32>> = vec![system.clone(); spec.convs];
    let mut tokens: Vec<Vec<u32>> = vec![Vec::new(); spec.convs];
    let mut prefill_ms = 0.0f64;
    let mut prompt_tokens = 0usize;

    for turn in 0..spec.turns {
        for (c, user) in users.iter().enumerate() {
            history[c].extend_from_slice(&user[turn]);
            let prompt = history[c].clone();
            prompt_tokens += prompt.len();
            let id = (c * spec.turns + turn) as u64;
            let p = b
                .prefill(prompt.len(), Some(&prompt), id)
                .expect("trace fits the arena");
            prefill_ms += p.elapsed_ms;
            let mut spoken = vec![p.first_token.expect("functional backend emits tokens")];
            for _ in 1..spec.decode_tokens {
                let out = b.decode_batch(&[p.slot]).expect("resident decodes");
                spoken.push(out.tokens.expect("functional backend emits tokens")[0]);
            }
            b.release(p.slot).expect("resident owns its slot");
            history[c].extend_from_slice(&spoken);
            tokens[c].extend_from_slice(&spoken);
        }
    }

    let stats = b.engine().prefix_stats();
    TraceOutcome {
        prefill_ms,
        prompt_tokens,
        tokens,
        stats,
    }
}

/// Of two replays of one side, the one with the lower prefill time.
fn faster(a: TraceOutcome, b: TraceOutcome) -> TraceOutcome {
    assert_eq!(
        a.tokens, b.tokens,
        "replaying the trace is nondeterministic"
    );
    if b.prefill_ms < a.prefill_ms {
        b
    } else {
        a
    }
}

/// Measures the chat trace on `cfg`: both sides replay the identical
/// trace at equal arena bytes, each keeping its repetition with the
/// lowest prefill time ([`best_of`]). Asserts bit-identical token streams
/// between the sides on every repetition.
pub fn measure_model(cfg: &ModelConfig, spec: &ChatTraceSpec) -> PrefixReport {
    let model = Gpt2Model::synthetic(cfg, 4207);
    let t0 = Instant::now();

    let off = best_of(|| run_trace(&model, cfg.vocab, spec, false), faster);
    assert!(off.stats.is_none(), "cache-off side must not index");
    let on = best_of(|| run_trace(&model, cfg.vocab, spec, true), faster);
    assert_eq!(
        on.tokens, off.tokens,
        "prefix cache changed the trace's tokens"
    );
    let (off_ms, on_ms, prompt_tokens) = (off.prefill_ms, on.prefill_ms, off.prompt_tokens);
    let stats = on.stats.expect("cache-on side reports stats");

    PrefixReport {
        model: cfg.name.clone(),
        nodes: 1,
        spec: *spec,
        prompt_tokens,
        off_prefill_ms: off_ms,
        on_prefill_ms: on_ms,
        amplification: if on_ms > 0.0 { off_ms / on_ms } else { 0.0 },
        off_prefill_tok_s: if off_ms > 0.0 {
            prompt_tokens as f64 / (off_ms / 1e3)
        } else {
            0.0
        },
        on_prefill_tok_s: if on_ms > 0.0 {
            prompt_tokens as f64 / (on_ms / 1e3)
        } else {
            0.0
        },
        hit_rate: if stats.lookups > 0 {
            stats.hits as f64 / stats.lookups as f64
        } else {
            0.0
        },
        stats,
        wall_s: t0.elapsed().as_secs_f64(),
        quick: false,
    }
}

/// Runs the benchmark on the [`medium_shaped`] configuration (the
/// weight-streaming-bound regime where recomputing a shared prefix is
/// pure waste). `quick` shrinks the trace, never the structure: every
/// turn still re-submits the full history.
pub fn measure(quick: bool) -> PrefixReport {
    let cfg = medium_shaped();
    let spec = if quick {
        ChatTraceSpec::quick()
    } else {
        ChatTraceSpec::full()
    };
    let mut report = measure_model(&cfg, &spec);
    report.quick = quick;
    report
}

/// The report (plus the pinned [`BASELINE`]) as a JSON document.
pub fn to_json(report: &PrefixReport) -> Json {
    let baseline = fields![BASELINE; captured_at, medium_prefill_tok_s_1node];
    let trace = fields![
        report.spec; convs, turns, system_tokens, user_tokens, decode_tokens, page_tokens,
        pool_pages, capacity
    ];
    let index = fields![
        report.stats; lookups, hits, reused_tokens, inserted, deduped, evicted
    ];
    let mut top = vec![
        ("baseline", Json::Obj(baseline)),
        ("model", report.model.as_str().into()),
        ("trace", Json::Obj(trace)),
        ("index", Json::Obj(index)),
    ];
    top.extend(fields![
        report; quick, nodes, prompt_tokens, off_prefill_ms, on_prefill_ms, off_prefill_tok_s,
        on_prefill_tok_s, amplification, hit_rate, wall_s
    ]);
    Json::Obj(top)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chat_trace_amplifies_prefill_and_stays_exact() {
        // Full pipeline on the tiny config (max_seq 64) so the test
        // stays debug-fast: a shrunk trace whose work ratio (full
        // history vs novel suffix) is still ~3x, so the >= 2x bar holds
        // with timing margin; bit-exactness between the sides is
        // asserted inside `measure_model` on every repetition.
        let spec = ChatTraceSpec {
            convs: 3,
            turns: 3,
            system_tokens: 24,
            user_tokens: 4,
            decode_tokens: 4,
            page_tokens: 4,
            pool_pages: 40,
            capacity: 56,
        };
        let r = measure_model(&ModelConfig::tiny(), &spec);
        assert!(r.off_prefill_ms > 0.0 && r.on_prefill_ms > 0.0);
        assert!(
            r.amplification >= 2.0,
            "prefix cache failed the 2x amplification bar: {r:?}"
        );
        assert!(r.hit_rate > 0.0, "chat trace never hit the cache: {r:?}");
        assert!(r.stats.reused_tokens > 0, "hits reused nothing: {r:?}");
        // One lookup per prefill (stats come from a single repetition).
        assert_eq!(r.stats.lookups as usize, r.spec.convs * r.spec.turns);
    }

    #[test]
    fn json_is_wellformed_enough() {
        let report = PrefixReport {
            model: "medium-shaped".into(),
            nodes: 1,
            spec: ChatTraceSpec::full(),
            prompt_tokens: 1536,
            off_prefill_ms: 6000.0,
            on_prefill_ms: 750.0,
            amplification: 8.0,
            off_prefill_tok_s: 256.0,
            on_prefill_tok_s: 2048.0,
            stats: PrefixIndexStats {
                lookups: 16,
                hits: 15,
                reused_tokens: 1344,
                inserted: 40,
                deduped: 24,
                evicted: 0,
            },
            hit_rate: 15.0 / 16.0,
            wall_s: 30.0,
            quick: false,
        };
        let j = to_json(&report);
        // What CI's gate reads.
        for key in [
            "prompt_tokens",
            "off_prefill_ms",
            "hit_rate",
            "amplification",
        ] {
            assert!(j.get(key).is_some(), "{key}");
        }
        let index = j.get("index").expect("index");
        assert_eq!(index.get("reused_tokens"), Some(&Json::Int(1344)));
        let text = j.render();
        assert!(text.contains("\"baseline\""));
        assert!(text.contains("\"amplification\": 8.00000"));
        assert!(text.contains("\"hit_rate\": 0.937500"));
    }
}
