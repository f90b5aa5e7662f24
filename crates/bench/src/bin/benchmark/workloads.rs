//! The four gateway workloads: frozen shapes plus seeded trace generators.
//!
//! A workload fixes every length and arrival time, in an order drawn once
//! from a constant, and `--seed` decides every prompt token. Lengths are
//! evenly spaced over their range and dealt so that every group holds the
//! same mix of them. Requests arrive in groups: every member
//! of a group at the same instant, the groups far enough apart on the
//! serving clock (which skips idle gaps at no wall-time cost) that one has
//! drained before the next arrives. Which requests overlap is therefore
//! part of the workload's definition and not of the machine's speed: the
//! gateway makes the same backend calls in the same order in every rep, so
//! a latency is a fixed sum of backend calls and moves by as much as the
//! machine does. Arrivals spread over time at an offered load of 0.4-0.5
//! did not have that property: a wait was the difference between a
//! blocker's remaining service and a fixed offset, and a 10 % change of
//! speed moved the p90s of `chat_shared` and `long_prompt` by 30-40 %. The
//! program sees only the generated requests.

use std::collections::BTreeMap;

use looplynx_serve::gateway::{EvictPolicyKind, GatewayConfig, GatewayRequest, ShedPolicy};
use looplynx_serve::request::Request;

use crate::fixture::VOCAB;

/// Seed of every workload's lengths and arrival times (see the module
/// docs).
const SCHEDULE_SEED: u64 = 0x5343_4845_4455_4C45;

/// Tokens per KV page in every benchmark engine.
pub const PAGE_TOKENS: usize = 16;

/// Shape of one workload. All numbers are frozen here (`BENCHMARK.json`
/// has no room for them) and repeated in the README.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`.
    pub why: &'static str,
    pub nodes: usize,
    pub slots: usize,
    /// Pages per layer pool.
    pub pool_pages: usize,
    pub max_batch: usize,
    pub prefill_chunk: Option<usize>,
    pub shed: ShedPolicy,
    pub evict: EvictPolicyKind,
    /// TTFT limit on the serving clock: 2× the reference run's p90.
    pub ttft_slo_ms: f64,
    /// TPOT limit on the serving clock: 2× the reference run's p90.
    pub tpot_slo_ms: f64,
    /// Arrival groups one gateway call offers.
    pub groups: usize,
    /// Requests of a group; all arrive at the same instant.
    pub group: usize,
    /// Serving-clock time between two groups.
    pub gap_ms: f64,
    pub kind: Kind,
}

/// What differs between the workloads' traces.
#[derive(Debug, Clone, PartialEq)]
pub enum Kind {
    /// Multi-turn sessions over a shared system prompt, one gateway call
    /// per turn index; `groups` holds one session each per call.
    Chat {
        turns: usize,
        system_tokens: usize,
        user_tokens: (usize, usize),
        output_tokens: (usize, usize),
    },
    /// Independent unshared requests in one gateway call.
    Unshared {
        prompt_tokens: (usize, usize),
        output_tokens: (usize, usize),
    },
}

/// The four workloads, in report order.
pub fn all() -> Vec<Spec> {
    vec![
        Spec {
            name: "chat_shared",
            why: "4-turn sessions over a shared system prompt, four at a time under page \
                  pressure: prefix cache, copy-on-write, cache-aware admission and preemption",
            nodes: 1,
            slots: 16,
            pool_pages: 52,
            max_batch: 8,
            prefill_chunk: Some(32),
            shed: ShedPolicy::Preempt,
            evict: EvictPolicyKind::LruReclaim,
            ttft_slo_ms: 920.0,
            tpot_slo_ms: 22.0,
            groups: 4,
            group: 4,
            gap_ms: 60_000.0,
            kind: Kind::Chat {
                turns: 4,
                system_tokens: 96,
                user_tokens: (16, 32),
                output_tokens: (16, 32),
            },
        },
        Spec {
            name: "decode_burst",
            why: "isolated bursts of 16 short unshared prompts with long outputs: batched \
                  GEMM, attention at growing context and pool dispatch; zero cache hits",
            nodes: 1,
            slots: 16,
            pool_pages: 16 * 8,
            max_batch: 16,
            prefill_chunk: None,
            shed: ShedPolicy::Reject,
            evict: EvictPolicyKind::YoungestFirst,
            ttft_slo_ms: 240.0,
            tpot_slo_ms: 26.0,
            groups: 7,
            group: 16,
            gap_ms: 60_000.0,
            kind: Kind::Unshared {
                prompt_tokens: (8, 16),
                output_tokens: (48, 96),
            },
        },
        Spec {
            name: "long_prompt",
            why:
                "unshared multi-chunk prompts with short outputs, four at a time: chunked prefill \
                  interleaved with decode; every prefix lookup misses, every release registers",
            nodes: 1,
            slots: 16,
            pool_pages: 16 * 15,
            max_batch: 8,
            prefill_chunk: Some(32),
            shed: ShedPolicy::Reject,
            evict: EvictPolicyKind::YoungestFirst,
            ttft_slo_ms: 850.0,
            tpot_slo_ms: 40.0,
            groups: 13,
            group: 4,
            gap_ms: 60_000.0,
            kind: Kind::Unshared {
                prompt_tokens: (96, 224),
                output_tokens: (8, 16),
            },
        },
        Spec {
            name: "ring2_stream",
            why: "one request at a time on a 2-node ring, the paper's scenario: all-gather, \
                  per-stage dispatch/join and weight streaming at batch 1",
            nodes: 2,
            slots: 2,
            pool_pages: 56,
            max_batch: 1,
            prefill_chunk: None,
            shed: ShedPolicy::Reject,
            evict: EvictPolicyKind::YoungestFirst,
            ttft_slo_ms: 49.0,
            tpot_slo_ms: 10.0,
            groups: 52,
            group: 1,
            gap_ms: 10_000.0,
            kind: Kind::Unshared {
                prompt_tokens: (32, 48),
                output_tokens: (16, 32),
            },
        },
    ]
}

/// The spec named `name`.
pub fn by_name(name: &str) -> Option<Spec> {
    all().into_iter().find(|s| s.name == name)
}

impl Spec {
    /// The gateway policy this workload runs under: no deadlines and a
    /// queue deep enough never to shed, so every request completes.
    pub fn gateway(&self) -> GatewayConfig {
        GatewayConfig {
            max_batch: self.max_batch,
            queue_depth: 1024,
            shed: self.shed,
            prefill_chunk: self.prefill_chunk,
            evict: self.evict,
            ..GatewayConfig::default()
        }
    }

    /// Requests one gateway call offers.
    pub fn requests_per_call(&self) -> usize {
        self.groups * self.group
    }

    /// Median KV context of a decoding request — where the engine probes
    /// measure.
    pub fn median_context(&self) -> usize {
        let mid = |(lo, hi): (usize, usize)| (lo + hi) / 2;
        match self.kind {
            Kind::Chat {
                turns,
                system_tokens,
                user_tokens,
                output_tokens,
            } => system_tokens + turns.div_ceil(2) * (mid(user_tokens) + mid(output_tokens)),
            Kind::Unshared {
                prompt_tokens,
                output_tokens,
            } => mid(prompt_tokens) + mid(output_tokens) / 2,
        }
    }
}

/// SplitMix64: the benchmark's own generator, so traces do not depend on
/// any crate of the program under test.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }

    pub fn tokens(&mut self, n: usize) -> Vec<u32> {
        (0..n).map(|_| self.below(VOCAB) as u32).collect()
    }
}

/// One length per request of `groups` groups of `group`: that many values
/// evenly spaced over `lo..=hi`, dealt so that every group holds one value
/// from each `group`-th of the range. Alternate bands are dealt in opposite
/// directions, so the groups' totals agree, and the order of the groups and
/// within each group is drawn.
fn dealt_lengths(
    rng: &mut Rng,
    (lo, hi): (usize, usize),
    groups: usize,
    group: usize,
) -> Vec<usize> {
    let n = groups * group;
    let value = |rank: usize| {
        if n == 1 {
            (lo + hi) / 2
        } else {
            lo + (rank * (hi - lo) + (n - 1) / 2) / (n - 1)
        }
    };
    let mut dealt: Vec<Vec<usize>> = (0..groups)
        .map(|g| {
            let mut members: Vec<usize> = (0..group)
                .map(|band| value(band * groups + if band % 2 == 0 { g } else { groups - 1 - g }))
                .collect();
            rng.shuffle(&mut members);
            members
        })
        .collect();
    rng.shuffle(&mut dealt);
    dealt.concat()
}

fn request(id: u64, arrival_ms: f64, prompt: Vec<u32>, output: usize) -> GatewayRequest {
    GatewayRequest::new(Request::new(id, arrival_ms, prompt.len(), output).with_prompt(prompt))
}

/// One seeded instance of a workload: everything about the trace that
/// does not depend on what the program returns.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    calls: Vec<Vec<Planned>>,
    /// Chat only: the shared system prompt.
    system: Vec<u32>,
}

/// One planned request. For chat turns after the first, `prompt` holds
/// only the new user span; the history is prepended at call time.
#[derive(Debug, Clone, PartialEq)]
struct Planned {
    id: u64,
    arrival_ms: f64,
    prompt: Vec<u32>,
    output: usize,
    /// Chat only: the id of this session's previous turn.
    follows: Option<u64>,
}

impl Trace {
    /// Generates the trace of `spec` from `seed`.
    pub fn generate(spec: &Spec, seed: u64) -> Self {
        let mut rng = Rng::new(seed ^ 0x4C4F_4F50_4C59_4E58);
        // Lengths and arrival times are part of the workload, not of the
        // draw.
        let mut schedule = Rng::new(SCHEDULE_SEED);
        let n = spec.requests_per_call();
        // Seat `i` of a call belongs to group `i / group`.
        let arrival = |seat: usize| (seat / spec.group) as f64 * spec.gap_ms;
        let lengths =
            |schedule: &mut Rng, range| dealt_lengths(schedule, range, spec.groups, spec.group);
        match spec.kind {
            Kind::Chat {
                turns,
                system_tokens,
                user_tokens,
                output_tokens,
            } => {
                let system = rng.tokens(system_tokens);
                let calls = (0..turns)
                    .map(|turn| {
                        let users = lengths(&mut schedule, user_tokens);
                        let outputs = lengths(&mut schedule, output_tokens);
                        // Which session sits where changes per turn.
                        let mut seat: Vec<usize> = (0..n).collect();
                        schedule.shuffle(&mut seat);
                        seat.into_iter()
                            .enumerate()
                            .map(|(s, seat)| Planned {
                                id: (turn * n + s) as u64,
                                arrival_ms: arrival(seat),
                                prompt: rng.tokens(users[seat]),
                                output: outputs[seat],
                                follows: (turn > 0).then(|| ((turn - 1) * n + s) as u64),
                            })
                            .collect()
                    })
                    .collect();
                Trace { calls, system }
            }
            Kind::Unshared {
                prompt_tokens,
                output_tokens,
            } => {
                let prompts = lengths(&mut schedule, prompt_tokens);
                let outputs = lengths(&mut schedule, output_tokens);
                let planned = (0..n)
                    .map(|i| Planned {
                        id: i as u64,
                        arrival_ms: arrival(i),
                        prompt: rng.tokens(prompts[i]),
                        output: outputs[i],
                        follows: None,
                    })
                    .collect();
                Trace {
                    calls: vec![planned],
                    system: Vec::new(),
                }
            }
        }
    }

    /// Gateway calls one rep makes.
    pub fn calls(&self) -> usize {
        self.calls.len()
    }

    /// Requests this trace offers over all its calls.
    pub fn offered(&self) -> usize {
        self.calls.iter().map(Vec::len).sum()
    }

    /// The first quarter of every call — what `--quick` serves. A chat
    /// turn's predecessor is the same session's previous turn, so the
    /// leading sessions stay whole.
    pub fn quarter(&self) -> Trace {
        Trace {
            calls: self
                .calls
                .iter()
                .map(|call| call[..call.len().div_ceil(4)].to_vec())
                .collect(),
            system: self.system.clone(),
        }
    }

    /// The untimed warm-up: the first quarter of the first call.
    pub fn warm_up(&self) -> Trace {
        let mut trace = self.quarter();
        trace.calls.truncate(1);
        trace
    }

    /// The requests of gateway call `call`. `history` maps the id of every
    /// earlier request to its full prompt and the tokens the gateway
    /// returned for it: a chat turn's prompt is the previous turn's prompt,
    /// its returned tokens, then the new user span.
    ///
    /// # Panics
    ///
    /// Panics if a chat turn's predecessor is missing from `history`.
    pub fn call(
        &self,
        call: usize,
        history: &BTreeMap<u64, (Vec<u32>, Vec<u32>)>,
    ) -> Vec<GatewayRequest> {
        self.calls[call]
            .iter()
            .map(|p| {
                let mut prompt = match p.follows {
                    None => self.system.clone(),
                    Some(prev) => {
                        let (prompt, returned) = history
                            .get(&prev)
                            .expect("previous turn completed before this one is offered");
                        [prompt.as_slice(), returned.as_slice()].concat()
                    }
                };
                prompt.extend_from_slice(&p.prompt);
                request(p.id, p.arrival_ms, prompt, p.output)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn first_call(spec: &Spec, seed: u64) -> Vec<GatewayRequest> {
        Trace::generate(spec, seed).call(0, &BTreeMap::new())
    }

    #[test]
    fn traces_are_seed_deterministic_and_differ_across_seeds() {
        for spec in all() {
            assert_eq!(
                Trace::generate(&spec, 7),
                Trace::generate(&spec, 7),
                "{} must repeat for one seed",
                spec.name
            );
            assert_ne!(
                first_call(&spec, 7),
                first_call(&spec, 8),
                "{} must differ across seeds",
                spec.name
            );
        }
    }

    #[test]
    fn every_seed_offers_the_same_token_totals() {
        for spec in all() {
            let totals = |seed| {
                let reqs = first_call(&spec, seed);
                (
                    reqs.len(),
                    reqs.iter().map(|r| r.req.prefill_tokens).sum::<usize>(),
                    reqs.iter().map(|r| r.req.decode_tokens).sum::<usize>(),
                )
            };
            assert_eq!(totals(1), totals(2), "{}", spec.name);
        }
    }

    #[test]
    fn the_fewest_reps_of_a_run_offer_enough_requests_for_p90() {
        for spec in all() {
            let trace = Trace::generate(&spec, 1);
            assert_eq!(trace.offered() % spec.requests_per_call(), 0);
            assert!(
                crate::stats::samples_beyond(crate::MIN_REPS * trace.offered(), 90.0)
                    >= crate::stats::MIN_BEYOND,
                "{} offers {}",
                spec.name,
                trace.offered()
            );
            assert_eq!(trace.quarter().calls(), trace.calls());
            assert!(trace.quarter().offered() * 4 >= trace.offered());
            assert_eq!(trace.warm_up().calls(), 1);
        }
    }

    #[test]
    fn chat_turns_extend_the_previous_turn() {
        let spec = by_name("chat_shared").unwrap();
        let trace = Trace::generate(&spec, 3);
        let first = trace.call(0, &BTreeMap::new());
        let history: BTreeMap<u64, (Vec<u32>, Vec<u32>)> = first
            .iter()
            .map(|r| (r.req.id, (r.req.prompt.clone().unwrap(), vec![9, 9, 9])))
            .collect();
        let second = trace.call(1, &history);
        assert_eq!(second.len(), first.len());
        for (a, b) in first.iter().zip(&second) {
            let (pa, pb) = (
                a.req.prompt.as_ref().unwrap(),
                b.req.prompt.as_ref().unwrap(),
            );
            assert_eq!(&pb[..pa.len()], pa.as_slice());
            assert_eq!(&pb[pa.len()..pa.len() + 3], &[9, 9, 9]);
            assert!(pb.len() > pa.len() + 3);
        }
        // All sessions share the system prompt.
        let n = trace.system.len();
        assert!(n > 0);
        let sys = &first[0].req.prompt.as_ref().unwrap()[..n];
        assert!(first
            .iter()
            .all(|r| &r.req.prompt.as_ref().unwrap()[..n] == sys));
    }

    #[test]
    fn lengths_stay_in_range_and_are_dealt_evenly_over_the_groups() {
        let mut rng = Rng::new(5);
        let xs = dealt_lengths(&mut rng, (8, 40), 6, 4);
        assert_eq!(xs.len(), 24);
        assert_eq!(xs.iter().min(), Some(&8));
        assert_eq!(xs.iter().max(), Some(&40));
        // Every group holds one value from each quarter of the range, and
        // the groups' totals agree to within the rounding of the spacing.
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        let totals: Vec<usize> = xs.chunks(4).map(|g| g.iter().sum()).collect();
        for group in xs.chunks(4) {
            let mut group = group.to_vec();
            group.sort_unstable();
            for (band, x) in group.iter().enumerate() {
                assert!(sorted[band * 6..(band + 1) * 6].contains(x), "{group:?}");
            }
        }
        let (lo, hi) = (totals.iter().min().unwrap(), totals.iter().max().unwrap());
        assert!(hi - lo <= 2, "{totals:?}");
        assert_eq!(dealt_lengths(&mut rng, (3, 9), 1, 1), [6]);
    }
}
