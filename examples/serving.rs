//! Chat-style multi-request serving on the LoopLynx ring — on *both*
//! execution backends.
//!
//! The serving schedulers are generic over
//! [`looplynx::core::backend::InferenceBackend`]:
//!
//! * the **sim backend** times the cycle-accurate accelerator model, so
//!   the first half of this example sweeps offered load and compares
//!   continuous batching against the sequential baseline in simulated
//!   milliseconds;
//! * the **functional backend** actually runs W8A8 inference over the
//!   multi-sequence slot arena — the second half serves real prompts,
//!   decodes real tokens, and prints each request's generated text.
//!
//! ```text
//! cargo run --release --example serving
//! ```

use looplynx::core::backend::{FunctionalBackend, SamplerSpec, SimBackend};
use looplynx::core::engine::DistributedGpt2;
use looplynx::core::router::RingMode;
use looplynx::core::{ArchConfig, LoopLynx};
use looplynx::model::gpt2::Gpt2Model;
use looplynx::model::tokenizer::ByteTokenizer;
use looplynx::model::ModelConfig;
use looplynx::serve::{
    serve_continuous_on, serve_gateway_on, ArrivalProcess, GatewayConfig, GatewayRequest, Request,
    Terminal,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ------------------------------------------------ sim backend sweep
    let model = ModelConfig::gpt2_medium();
    let engine = LoopLynx::new(model, ArchConfig::builder().nodes(2).build()?)?;

    // A chat mix: short questions with mid-size answers, long prompts with
    // short answers, short prompts with long answers.
    let shapes = [(32usize, 32usize), (96, 16), (16, 64)];
    let requests = 24;

    println!("— sim backend: 24 chat requests on a 2-node ring, Poisson arrivals —\n");
    println!(
        "{:>6} {:>10} {:>10} {:>6} {:>16} {:>10}",
        "req/s", "seq tok/s", "cb tok/s", "gain", "TTFT p50/p99", "E2E p95"
    );
    for rate in [2.0, 6.0, 12.0, 24.0] {
        let workload = ArrivalProcess::Poisson {
            rate_per_s: rate,
            seed: 42,
        }
        .workload(requests, &shapes);
        let serial = serve_continuous_on(&mut SimBackend::new(&engine), &workload, 1);
        let batched = serve_continuous_on(&mut SimBackend::new(&engine), &workload, 8);
        println!(
            "{:>6.0} {:>10.1} {:>10.1} {:>5.2}x {:>8.0} {:>6.0}ms {:>8.0}ms",
            rate,
            serial.tokens_per_second(),
            batched.tokens_per_second(),
            batched.tokens_per_second() / serial.tokens_per_second(),
            batched.ttft_ms.p50().expect("non-empty"),
            batched.ttft_ms.p99().expect("non-empty"),
            batched.e2e_ms.p95().expect("non-empty"),
        );
    }

    // --------------------------------------- functional backend, end to end
    println!("\n— functional backend: real prompts, real tokens, 2-node ring —\n");
    let cfg = ModelConfig::tiny();
    let reference = Gpt2Model::synthetic(&cfg, 0xC0FFEE);
    let dist = DistributedGpt2::with_slots(&reference, 2, RingMode::Exact, 8, cfg.max_seq)?;
    let mut backend = FunctionalBackend::new(dist, SamplerSpec::Greedy);

    let tok = ByteTokenizer::new();
    // Byte-level tokens: one per character, so prompts stay short enough
    // for the tiny config's max_seq alongside the generated tail.
    let prompts = [
        "Ring shards gather",
        "One weight stream",
        "KV cache decode",
        "Int8 attention",
    ];
    let workload: Vec<Request> = prompts
        .iter()
        .enumerate()
        .map(|(i, text)| {
            Request::new(i as u64, i as f64 * 0.5, 1, 24).with_prompt(tok.encode(text))
        })
        .collect();

    let report = serve_continuous_on(&mut backend, &workload, 4);
    println!(
        "{} requests, {} output tokens, mean batch occupancy {:.2}\n",
        report.completed(),
        report.total_tokens(),
        report.batch_occupancy.mean()
    );
    for req in &workload {
        let m = report
            .requests
            .iter()
            .find(|m| m.id == req.id)
            .expect("request completed");
        let tokens = report.output_tokens(req.id).expect("tokens generated");
        println!(
            "request {} | TTFT {:>6.1} ms | E2E {:>7.1} ms",
            req.id,
            m.ttft_ms(),
            m.e2e_ms()
        );
        println!("  prompt: {:?}", prompts[req.id as usize]);
        println!("  output: {:?}\n", tok.decode(tokens));
    }

    println!("the same scheduler drove both runs: the sim backend answers");
    println!("\"how would the accelerator schedule this\", the functional");
    println!("backend actually produces every token — bit-identical to");
    println!("generating each request alone.");

    // ------------------------------- the gateway: deadlines + cancellation
    println!("\n— gateway: deadlines, cancellation, admission control —\n");
    // Same chat mix through the fault-tolerant ingress tier. Client 2
    // hangs up 150 simulated ms in; client 3 demands its full answer
    // within 400 ms (prefill alone is ~85 ms and decode ~6 ms/token, so
    // 64 tokens cannot make it); the rest run to completion.
    let gated: Vec<GatewayRequest> = ArrivalProcess::Poisson {
        rate_per_s: 12.0,
        seed: 42,
    }
    .workload(8, &shapes)
    .into_iter()
    .map(|r| match r.id {
        2 => GatewayRequest::new(r).cancel_at(150.0),
        3 => GatewayRequest::new(r).with_deadline(400.0),
        _ => GatewayRequest::new(r),
    })
    .collect();
    let gate_cfg = GatewayConfig {
        max_batch: 4,
        queue_depth: 4,
        ttft_deadline_ms: Some(1_500.0),
        e2e_deadline_ms: None,
        ..GatewayConfig::default()
    };
    let report = serve_gateway_on(&mut SimBackend::new(&engine), &gated, &gate_cfg);
    for t in &report.terminals {
        println!(
            "request {} | arrived {:>5.0} ms | {:>9} at {:>5.0} ms",
            t.id,
            t.arrival_ms,
            match &t.terminal {
                Terminal::Completed => "completed",
                Terminal::Rejected(_) => "rejected",
                Terminal::TimedOut(_) => "timed out",
                Terminal::Cancelled => "cancelled",
                Terminal::Failed(_) => "failed",
            },
            t.at_ms,
        );
    }
    println!("\n{report}");
    println!("\nevery request reached exactly one terminal state; completed");
    println!("requests are bit-identical to a run with no deadlines at all.");
    Ok(())
}
