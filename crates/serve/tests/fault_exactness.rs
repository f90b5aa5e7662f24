//! The serving harness (`harness/mod.rs`) over random config points and
//! traces: faults, page pressure, deadlines and cancels may end requests
//! early, but never change what a completed request computes. One
//! ignored soak case serves 100 000 requests.

mod harness;

use harness::{check_trace, draw_trace, random_points, request, run_trace, Point, Rng, VOCAB};
use looplynx_core::fault::FaultPlan;
use looplynx_serve::{serve_gateway_on, EvictPolicyKind, ShedPolicy, Terminal};

/// Every axis drawn: any fault plan, pool, cache, chunk and policy.
#[test]
fn completed_streams_survive_any_fault_plan() {
    random_points(0x5e7e_0000, 30, 7, |p, _| p);
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
/// audited every 64, every failure has the one cause this point allows,
/// and peak RSS must stay under 256 MiB. Release leaks are left out: a
/// leaked slot never comes back, so a long run with them collapses into
/// overload rejection.
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
    // The one way to fail here: a page fault vetoes a resume while nothing
    // else is resident, which the gateway cannot tell from a context that
    // does not fit the pool.
    for t in &report.terminals {
        if let Terminal::Failed(why) = &t.terminal {
            assert!(why.starts_with("resume cannot fit"), "{}: {why}", t.id);
        }
    }
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let hwm = status.lines().find_map(|l| l.strip_prefix("VmHWM:"));
    if let Some(kib) = hwm.and_then(|v| v.trim_end_matches("kB").trim().parse::<u64>().ok()) {
        eprintln!("soak: {report}peak RSS {} MiB", kib / 1024);
        assert!(kib < 256 * 1024, "peak RSS {kib} KiB over 256 MiB");
    }
}
