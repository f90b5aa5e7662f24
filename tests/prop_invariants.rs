//! Cross-crate property-based tests (proptest) on the invariants the
//! architecture depends on.

use proptest::prelude::*;

use looplynx::core::config::{ArchConfig, OptimizationFlags};
use looplynx::core::engine::LoopLynx;
use looplynx::core::parallel::split_range;
use looplynx::core::router::{RingMode, Router};
use looplynx::model::ModelConfig;
use looplynx::serve::{serve_continuous, serve_sequential, ArrivalProcess, ServeConfig};
use looplynx::sim::net::{functional_all_gather, RingSim, RingSpec};
use looplynx::sim::time::{Cycles, Frequency};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// split_range always tiles [0, total) exactly, in order, for any
    /// (total, parts) combination.
    #[test]
    fn split_range_tiles(total in 0usize..10_000, parts in 1usize..64) {
        let mut covered = 0usize;
        for i in 0..parts {
            let r = split_range(total, parts, i);
            prop_assert_eq!(r.start, covered);
            covered = r.end;
            // near-equal: sizes differ by at most one
            prop_assert!(r.len() >= total / parts);
            prop_assert!(r.len() <= total / parts + 1);
        }
        prop_assert_eq!(covered, total);
    }

    /// The exact-mode ring gather is concatenation in node order for any
    /// shard contents.
    #[test]
    fn exact_gather_is_concat(
        nodes in 1usize..6,
        shard_len in 1usize..32,
        seed in any::<u64>(),
    ) {
        let shards: Vec<Vec<f32>> = (0..nodes)
            .map(|n| {
                (0..shard_len)
                    .map(|i| ((seed ^ (n as u64 * 31 + i as u64)) % 1000) as f32 / 500.0 - 1.0)
                    .collect()
            })
            .collect();
        let full = Router::new(nodes, RingMode::Exact).all_gather(&shards);
        prop_assert_eq!(full, shards.concat());
    }

    /// The ring DES agrees with the closed-form all-gather cycle count for
    /// any ring size and shard size, and all router buffers converge.
    #[test]
    fn ring_des_matches_closed_form(nodes in 2usize..8, shard_kb in 1usize..16) {
        let spec = RingSpec::paper_ring(nodes, Frequency::from_mhz(285.0));
        let shards: Vec<Vec<u8>> = (0..nodes)
            .map(|i| vec![(i * 37 % 251) as u8; shard_kb * 1024])
            .collect();
        let outcome = RingSim::new(spec.clone()).all_gather(&shards);
        prop_assert_eq!(outcome.end_time, spec.all_gather_cycles(shard_kb * 1024));
        prop_assert!(outcome.buffers_consistent());
        prop_assert_eq!(outcome.buffers[0].clone(), shards.concat());
        // and the pure-functional gather agrees with the DES contents
        prop_assert_eq!(functional_all_gather(&shards)[0].clone(), outcome.buffers[0].clone());
    }

    /// Token latency is monotone in context length for any ring size.
    #[test]
    fn latency_monotone_in_context(
        nodes in prop::sample::select(vec![1usize, 2, 4]),
        ctx_a in 1usize..512,
        delta in 1usize..256,
    ) {
        let arch = ArchConfig::builder().nodes(nodes).build().expect("valid");
        let engine = LoopLynx::new(ModelConfig::gpt2_medium(), arch).expect("partitions");
        let sched = engine.scheduler();
        let a = sched.schedule_rows(&[ctx_a], true).total;
        let b = sched.schedule_rows(&[ctx_a + delta], true).total;
        prop_assert!(b >= a, "context {} -> {}: {} vs {}", ctx_a, ctx_a + delta, a, b);
    }

    /// Every optimization flag is individually non-regressive at any ring
    /// size and context.
    #[test]
    fn each_flag_is_non_regressive(
        nodes in prop::sample::select(vec![1usize, 2, 4]),
        ctx in 1usize..640,
        fuse in any::<bool>(),
        headwise in any::<bool>(),
        hide in any::<bool>(),
    ) {
        let base = OptimizationFlags {
            fuse_ln_res: fuse,
            headwise_pipeline: headwise,
            hide_transmission: hide,
        };
        let all_on = OptimizationFlags::ALL;
        let model = ModelConfig::gpt2_medium();
        let t_base = LoopLynx::new(
            model.clone(),
            ArchConfig::builder().nodes(nodes).opts(base).build().expect("valid"),
        )
        .expect("partitions")
        .scheduler()
        .schedule_rows(&[ctx], true)
        .total;
        let t_on = LoopLynx::new(
            model,
            ArchConfig::builder().nodes(nodes).opts(all_on).build().expect("valid"),
        )
        .expect("partitions")
        .scheduler()
        .schedule_rows(&[ctx], true)
        .total;
        prop_assert!(t_on <= t_base, "flags {base:?}: all-on {t_on} vs {t_base}");
    }

    /// `simulate_generation`'s reported wall-clock equals the sum of its
    /// per-token and per-batch schedule pieces — the report is exactly the
    /// schedule it claims to aggregate, for any prefill-batch setting.
    #[test]
    fn generation_totals_are_sum_of_schedules(
        nodes in prop::sample::select(vec![1usize, 2, 4]),
        prefill in 1usize..96,
        decode in 1usize..24,
        batch in 1usize..12,
    ) {
        let arch = ArchConfig::builder()
            .nodes(nodes)
            .prefill_batch(batch)
            .build()
            .expect("valid");
        let engine = LoopLynx::new(ModelConfig::gpt2_medium(), arch).expect("partitions");
        let report = engine.simulate_generation(prefill, decode);

        // Replicate the engine's prefill walk from the public scheduler.
        let sched = engine.scheduler();
        let mut prefill_cycles = 0u64;
        let mut t = 0usize;
        while t + 1 < prefill {
            let this_batch = batch.min(prefill - 1 - t);
            let contexts: Vec<usize> = (t + 1..=t + this_batch).collect();
            prefill_cycles += sched.schedule_rows(&contexts, false).total.as_u64();
            t += this_batch;
        }
        prefill_cycles += sched.schedule_rows(&[prefill], true).total.as_u64();
        let decode_cycles: u64 = (0..decode)
            .map(|t| sched.schedule_rows(&[prefill + t + 1], true).total.as_u64())
            .sum();

        let freq = engine.arch().freq();
        prop_assert_eq!(Cycles::new(prefill_cycles).to_millis(freq), report.prefill_ms);
        prop_assert_eq!(Cycles::new(decode_cycles).to_millis(freq), report.decode_ms);
    }

    /// A continuous-batching decode iteration is never cheaper than the
    /// most expensive single token in it, never pricier than running all
    /// its tokens back-to-back, and a singleton batch is exact.
    #[test]
    fn decode_batch_bounded_by_sequential(
        nodes in prop::sample::select(vec![1usize, 2, 4]),
        contexts in prop::collection::vec(1usize..512, 1..9),
    ) {
        let arch = ArchConfig::builder().nodes(nodes).build().expect("valid");
        let engine = LoopLynx::new(ModelConfig::gpt2_medium(), arch).expect("partitions");
        let sched = engine.scheduler();
        let batched = sched.schedule_rows(&contexts, true).total.as_u64();
        let singles: Vec<u64> = contexts
            .iter()
            .map(|&c| sched.schedule_rows(&[c], true).total.as_u64())
            .collect();
        let sum: u64 = singles.iter().sum();
        let max = *singles.iter().max().expect("non-empty");
        prop_assert!(batched <= sum, "batched {} beats sequential sum {}", batched, sum);
        prop_assert!(batched >= max, "batched {} under its largest member {}", batched, max);
        if contexts.len() == 1 {
            prop_assert_eq!(batched, sum);
        }
    }

    /// Serving invariants: every request completes with exactly the token
    /// count it asked for, no request starves (first tokens follow FIFO
    /// arrival order), and timestamps are causally ordered.
    #[test]
    fn serving_completes_everyone_exactly(
        n in 1usize..8,
        max_batch in 1usize..6,
        rate in prop::sample::select(vec![5.0f64, 50.0, 500.0]),
        seed in any::<u64>(),
    ) {
        let arch = ArchConfig::builder().nodes(2).build().expect("valid");
        let engine = LoopLynx::new(ModelConfig::gpt2_medium(), arch).expect("partitions");
        let workload = ArrivalProcess::Poisson { rate_per_s: rate, seed }
            .workload(n, &[(16, 6), (8, 3), (24, 2)]);
        let report = serve_continuous(&engine, &workload, &ServeConfig::new(max_batch));

        prop_assert_eq!(report.completed(), n, "a request starved");
        let requested: usize = workload.iter().map(|r| r.decode_tokens).sum();
        prop_assert_eq!(report.total_tokens(), requested);
        let mut by_id: Vec<_> = report.requests.clone();
        by_id.sort_by_key(|m| m.id);
        for (m, r) in by_id.iter().zip(&workload) {
            prop_assert_eq!(m.decode_tokens, r.decode_tokens);
            prop_assert!(m.first_token_ms >= m.arrival_ms);
            prop_assert!(m.completion_ms >= m.first_token_ms);
        }
        // FIFO admission: ids arrive in order, so first tokens are ordered.
        for pair in by_id.windows(2) {
            prop_assert!(pair[0].first_token_ms <= pair[1].first_token_ms);
        }
    }

    /// Under a zero-jitter fixed trace the continuous batcher and the
    /// sequential baseline both deliver every requested token, and
    /// batching never produces *less* total throughput.
    #[test]
    fn zero_jitter_trace_conserves_tokens(
        n in 1usize..7,
        gap_ms in prop::sample::select(vec![0.0f64, 10.0, 200.0]),
    ) {
        let arch = ArchConfig::builder().nodes(2).build().expect("valid");
        let engine = LoopLynx::new(ModelConfig::gpt2_medium(), arch).expect("partitions");
        let trace: Vec<f64> = (0..n).map(|i| i as f64 * gap_ms).collect();
        let workload = ArrivalProcess::Trace(trace).workload(n, &[(12, 5)]);
        let batched = serve_continuous(&engine, &workload, &ServeConfig::new(4));
        let serial = serve_sequential(&engine, &workload);
        prop_assert_eq!(batched.total_tokens(), n * 5);
        prop_assert_eq!(serial.total_tokens(), n * 5);
        // Same workload, same cost model: batching can only help makespan.
        prop_assert!(batched.makespan_ms() <= serial.makespan_ms() + 1e-9);
    }

    /// More nodes never slow a decode token down (with all optimizations).
    #[test]
    fn more_nodes_never_hurt(ctx in 1usize..768) {
        let model = ModelConfig::gpt2_medium();
        let mut prev = Cycles::new(u64::MAX);
        for nodes in [1usize, 2, 4, 8] {
            let arch = ArchConfig::builder().nodes(nodes).build().expect("valid");
            let t = LoopLynx::new(model.clone(), arch)
                .expect("partitions")
                .scheduler()
                .schedule_rows(&[ctx], true)
                .total;
            prop_assert!(t <= prev, "{nodes} nodes regressed: {t} vs {prev}");
            prev = t;
        }
    }
}
