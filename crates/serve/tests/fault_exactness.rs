//! The serving harness (`harness/mod.rs`) over random config points and
//! traces: faults, page pressure, deadlines and cancels may end requests
//! early, but never change what a completed request computes. One
//! ignored soak case serves 100 000 requests.

mod harness;

use harness::{check_trace, draw_trace, random_points, request, run_trace, Point, Rng, VOCAB};
use looplynx_core::fault::FaultPlan;
use looplynx_serve::{serve_gateway_on, EvictPolicyKind, RejectReason, ShedPolicy, Terminal};

/// Every axis drawn: any fault plan, pool, cache, chunk and policy. Then
/// two fixed traces of 32 requests at 2 nodes, 6 slots and a roomy pool,
/// fault-free and under vetoed prefills and decodes (20 %), stalls (10 %)
/// and release leaks (5 %): one arriving in groups of 4 with two cancels,
/// one all at once against a queue of 12. Each completes work and fails
/// nothing, the second sheds for a full queue, and fault-free nothing
/// retries and every request completes, cancels or is shed.
#[test]
fn completed_streams_survive_any_fault_plan() {
    random_points(0x5e7e_0000, 30, 7, |p, _| p);
    let mut rng = Rng(0xc4a05);
    let mut draw = |id: u64, at_ms| {
        let (prompt, out) = [(6, 10), (4, 8), (8, 6)][id as usize % 3];
        request(id, at_ms, rng.tokens(prompt, 1, VOCAB), out)
    };
    let mut grouped: Vec<_> = (0..32).map(|id| draw(id, (id / 4 * 25) as f64)).collect();
    grouped[15] = grouped[15].clone().cancel_at(78.0);
    grouped[31] = grouped[31].clone().cancel_at(180.0);
    let at_once: Vec<_> = (32..64).map(|id| draw(id, 0.0)).collect();
    let faults = FaultPlan {
        seed: 0xc4a05,
        prefill_fail_rate: 0.2,
        decode_fail_rate: 0.2,
        stall_rate: 0.1,
        stall_ms: 25.0,
        release_leak_rate: 0.05,
        page_fault_rate: 0.0,
    };
    let mut point = Point::calm(2, 6);
    point.cfg.max_retries = 32;
    for plan in [FaultPlan::default(), faults] {
        point.plan = plan;
        for (queue, trace) in [(64, &grouped), (12, &at_once)] {
            point.cfg.queue_depth = queue;
            let report = check_trace(0xc4a05, &point, trace);
            let c = report.counts();
            assert!(c.completed > 0 && c.failed == 0, "{report}");
            let full = Terminal::Rejected(RejectReason::QueueFull);
            let shed = report.terminals.iter().filter(|t| t.terminal == full);
            assert_eq!(queue < trace.len(), shed.count() > 0, "{report}");
            if plan == FaultPlan::default() {
                assert_eq!(report.retries, 0);
                assert_eq!(c.completed + c.cancelled + c.rejected, trace.len());
            }
        }
    }
}

/// Wrapping the backend in a fault-free `FaultyBackend` changes nothing:
/// on the billed clock the two runs' reports are equal, times included.
#[test]
fn none_plan_is_transparent() {
    for case in 0..3 {
        let seed = 0x5e7e_1000 + case;
        let mut rng = Rng(seed);
        let point = Point {
            plan: FaultPlan::default(),
            ..Point::draw(&mut rng)
        };
        let trace = draw_trace(&mut rng, &point, 6);
        let wrapped = check_trace(seed, &point, &trace);
        let bare = serve_gateway_on(&mut point.backend(), &trace, &point.cfg);
        assert_eq!(bare, wrapped, "seed {seed:#x}");
        assert_eq!(wrapped.retries, 0);
    }
}

/// Injected page faults under the preempt policy: evicted requests are
/// resumed, not lost, and never corrupted.
#[test]
fn page_faults_preempt_but_never_corrupt() {
    random_points(0x5e7e_2000, 6, 7, |mut p, _| {
        p.cfg.shed = ShedPolicy::Preempt;
        p.plan.page_fault_rate = 0.25;
        p
    });
}

/// Genuine page pressure, nothing else: the tightest pool, served by
/// preemption, completes every request at any chunking, cache and
/// eviction policy. Then the two shortest traces seed 0x5e7e3006 once
/// failed on (2 nodes, 18 four-token pages, 4 slots, chunk 3, all at once):
/// three prefills fill the pool with nothing decoding, so the youngest must
/// go back to the queue; and a chunk evicts a resident, so it must feed at
/// once, before the resume takes the pages back.
#[test]
fn oversubscription_completes_exactly() {
    random_points(0x5e7e_3000, 8, 8, |p, rng| {
        let mut p = Point {
            plan: FaultPlan::default(),
            cuts: false,
            ..p.oversubscribed()
        };
        p.cfg.ttft_deadline_ms = None;
        p.cfg.e2e_deadline_ms = None;
        p.cfg.queue_depth = 64;
        p.cfg.max_batch = rng.pick(&[4, 8]);
        p
    });
    let mut point = Point::calm(2, 4).oversubscribed();
    point.cfg.prefill_chunk = Some(3);
    point.cfg.evict = EvictPolicyKind::LruReclaim;
    for shape in [&[(35, 4), (29, 8), (41, 2)][..], &[(29, 8), (41, 2)]] {
        let mut rng = Rng(0x5e7e_3006);
        let draw = |(id, &(prompt, out))| request(id, 0.0, rng.tokens(prompt, 1, VOCAB), out);
        let trace: Vec<_> = (1..).zip(shape).map(draw).collect();
        check_trace(0x5e7e_3006, &point, &trace);
    }
}

/// 100 000 requests through an oversubscribed pool with vetoed prefills
/// and decodes, stalls, page faults, cancels and per-request deadlines;
/// the slot and request books are checked after every step, the engine
/// audited every 64, no request may fail, and peak RSS must stay under
/// 256 MiB. Release leaks are left out: a leaked slot never comes back,
/// so a long run with them collapses into overload rejection.
#[test]
#[ignore = "soak: run in release (cargo test --release -p looplynx-serve --test fault_exactness -- --ignored)"]
fn soak_100k_requests() {
    let mut rng = Rng(0x50a4);
    let mut point = Point::calm(2, 6).oversubscribed();
    point.engine.cache = true;
    point.cuts = true;
    point.cfg.prefill_chunk = Some(3);
    point.plan.prefill_fail_rate = 0.05;
    point.plan.decode_fail_rate = 0.05;
    point.plan.stall_rate = 0.02;
    point.plan.stall_ms = 25.0;
    point.plan.page_fault_rate = 0.05;
    let trace = draw_trace(&mut rng, &point, 100_000);
    let report = run_trace(&point, &trace, 64);
    let c = report.counts();
    let chaos = c.cancelled > 0 && c.timed_out > 0 && report.preemptions > 0;
    assert!(c.completed > 0 && c.rejected > 0 && chaos, "{report}");
    // Every context fits the pool alone, so nothing may fail: a resume
    // refused by a page fault while nothing else is resident is retried
    // (failing only past the bound, a run of refusals at a 5 % fault
    // rate that no seed meets).
    assert_eq!(c.failed, 0, "{report}");
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let hwm = status.lines().find_map(|l| l.strip_prefix("VmHWM:"));
    if let Some(kib) = hwm.and_then(|v| v.trim_end_matches("kB").trim().parse::<u64>().ok()) {
        eprintln!("soak: {report}peak RSS {} MiB", kib / 1024);
        assert!(kib < 256 * 1024, "peak RSS {kib} KiB over 256 MiB");
    }
}
