//! Property-based tests for the simulation substrate.

use proptest::prelude::*;

use looplynx_sim::des_pipeline::des_makespan;
use looplynx_sim::hbm::HbmChannel;
use looplynx_sim::net::{RingSim, RingSpec};
use looplynx_sim::pipeline::{PipelineSpec, StageSpec};
use looplynx_sim::time::{Cycles, Frequency};

fn arb_stages() -> impl Strategy<Value = Vec<StageSpec>> {
    prop::collection::vec(
        (1u64..64, 1u64..64, 1usize..16)
            .prop_map(|(lat, ii, cap)| StageSpec::new("s", lat, ii).with_out_capacity(cap)),
        1..6,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The pipeline makespan never beats its two lower bounds: the fill
    /// latency and the bottleneck initiation interval times the items.
    #[test]
    fn pipeline_respects_lower_bounds(stages in arb_stages(), n in 1usize..64) {
        let spec = PipelineSpec::new(stages);
        let run = spec.evaluate_uniform(n);
        let fill = spec.fill_latency().as_u64();
        let bottleneck = spec.bottleneck_ii() * (n as u64 - 1);
        prop_assert!(run.makespan().as_u64() >= fill);
        prop_assert!(run.makespan().as_u64() >= bottleneck);
        prop_assert!(run.first_out().as_u64() >= fill);
    }

    /// The closed-form calculator and the discrete-event simulation are
    /// two independent implementations of the pipeline semantics — they
    /// must agree exactly on arbitrary pipelines. This is the core
    /// correctness argument for the kernel timing models.
    #[test]
    fn calculator_matches_discrete_event_simulation(
        stages in arb_stages(),
        n in 1usize..40,
    ) {
        let spec = PipelineSpec::new(stages);
        prop_assert_eq!(des_makespan(&spec, n), spec.evaluate_uniform(n).makespan());
    }

    /// Adding items never shortens a pipeline's makespan.
    #[test]
    fn pipeline_monotone_in_items(stages in arb_stages(), n in 1usize..48) {
        let spec = PipelineSpec::new(stages);
        let a = spec.evaluate_uniform(n).makespan();
        let b = spec.evaluate_uniform(n + 1).makespan();
        prop_assert!(b >= a);
    }

    /// Widening any FIFO never slows the pipeline down (backpressure can
    /// only delay, never accelerate).
    #[test]
    fn wider_fifos_never_hurt(stages in arb_stages(), n in 1usize..48) {
        let wide: Vec<StageSpec> = stages
            .iter()
            .map(|s| StageSpec::new(s.name.clone(), s.latency, s.ii).with_out_capacity(
                s.out_capacity.saturating_mul(2).max(s.out_capacity),
            ))
            .collect();
        let narrow_t = PipelineSpec::new(stages).evaluate_uniform(n).makespan();
        let wide_t = PipelineSpec::new(wide).evaluate_uniform(n).makespan();
        prop_assert!(wide_t <= narrow_t);
    }

    /// Delaying arrivals never finishes the pipeline earlier.
    #[test]
    fn pipeline_monotone_in_arrivals(
        stages in arb_stages(),
        base in prop::collection::vec(0u64..100, 1..32),
        shift in 0u64..50,
    ) {
        let mut sorted = base;
        sorted.sort_unstable();
        let arrivals: Vec<Cycles> = sorted.iter().map(|&c| Cycles::new(c)).collect();
        let shifted: Vec<Cycles> = sorted.iter().map(|&c| Cycles::new(c + shift)).collect();
        let spec = PipelineSpec::new(stages);
        let a = spec.evaluate(&arrivals).makespan();
        let b = spec.evaluate(&shifted).makespan();
        prop_assert!(b >= a);
    }

    /// HBM transfers are monotone in bytes and never beat peak bandwidth.
    #[test]
    fn hbm_transfer_bounded_by_peak(bytes in 1usize..1_000_000, burst_log in 5u32..13) {
        let ch = HbmChannel::paper_channel(Frequency::from_mhz(285.0));
        let burst = 1usize << burst_log;
        let cycles = ch.transfer_cycles(bytes, burst).as_f64();
        let ideal = bytes as f64 / ch.peak_bytes_per_cycle();
        prop_assert!(cycles >= ideal.floor(), "beat peak: {cycles} vs {ideal}");
        let more = ch.transfer_cycles(bytes + 1024, burst);
        prop_assert!(more.as_f64() >= cycles);
    }

    /// Burst efficiency is monotone in burst length.
    #[test]
    fn burst_efficiency_monotone(a_log in 5u32..12, b_log in 5u32..12) {
        let ch = HbmChannel::paper_channel(Frequency::from_mhz(285.0));
        let (small, large) = (1usize << a_log.min(b_log), 1usize << a_log.max(b_log));
        prop_assert!(ch.burst_efficiency(large) >= ch.burst_efficiency(small) - 1e-9);
    }

    /// Ring all-gather timing is linear in (nodes − 1) for fixed shards.
    #[test]
    fn ring_linear_in_hops(shard in 1usize..100_000) {
        let clock = Frequency::from_mhz(285.0);
        let t2 = RingSpec::paper_ring(2, clock).all_gather_cycles(shard).as_u64();
        let t5 = RingSpec::paper_ring(5, clock).all_gather_cycles(shard).as_u64();
        prop_assert_eq!(t5, t2 * 4);
    }

    /// The router DES reproduces every shard at the right offset for
    /// arbitrary payloads.
    #[test]
    fn ring_des_places_shards_by_origin(
        nodes in 2usize..6,
        shard in prop::collection::vec(any::<u8>(), 1..64),
    ) {
        let shards: Vec<Vec<u8>> = (0..nodes)
            .map(|i| shard.iter().map(|&b| b.wrapping_add(i as u8)).collect())
            .collect();
        let spec = RingSpec::paper_ring(nodes, Frequency::from_mhz(285.0));
        let outcome = RingSim::new(spec).all_gather(&shards);
        prop_assert!(outcome.buffers_consistent());
        for (i, s) in shards.iter().enumerate() {
            let off = i * s.len();
            prop_assert_eq!(&outcome.buffers[0][off..off + s.len()], &s[..]);
        }
    }
}
