//! Request arrival processes.
//!
//! Serving throughput is meaningless without an offered load, so the
//! workload generator supports memoryless Poisson traffic and fixed
//! traces (bursts are a trace of grouped timestamps) for reproducible
//! regression tests.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::request::Request;

/// How requests arrive at the serving queue.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrivalProcess {
    /// Memoryless arrivals: exponential inter-arrival gaps at `rate_per_s`
    /// requests per second, generated deterministically from `seed`.
    Poisson {
        /// Mean arrival rate in requests per second.
        rate_per_s: f64,
        /// RNG seed (equal seeds produce equal workloads).
        seed: u64,
    },
    /// Explicit arrival timestamps in milliseconds (must be sorted
    /// ascending). Zero jitter: the same trace always yields the same
    /// workload.
    Trace(Vec<f64>),
}

impl ArrivalProcess {
    /// Generates `n` arrival timestamps in milliseconds, sorted ascending.
    ///
    /// # Panics
    ///
    /// Panics if the rate is not strictly positive, or a trace is unsorted
    /// or shorter than `n`.
    pub fn arrival_times_ms(&self, n: usize) -> Vec<f64> {
        match self {
            ArrivalProcess::Poisson { rate_per_s, seed } => {
                assert!(
                    *rate_per_s > 0.0 && rate_per_s.is_finite(),
                    "arrival rate must be positive"
                );
                let mut rng = StdRng::seed_from_u64(*seed);
                let mut t = 0.0f64;
                (0..n)
                    .map(|_| {
                        t += exponential_gap_ms(&mut rng, *rate_per_s);
                        t
                    })
                    .collect()
            }
            ArrivalProcess::Trace(times) => {
                assert!(
                    times.len() >= n,
                    "trace has {} arrivals, {n} requested",
                    times.len()
                );
                assert!(
                    times.windows(2).all(|w| w[0] <= w[1]),
                    "trace must be sorted ascending"
                );
                times[..n].to_vec()
            }
        }
    }

    /// Builds a workload of `n` requests whose `[prefill : decode]` shapes
    /// cycle through `shapes` (a chat-style mix), with ids `0..n` in
    /// arrival order.
    ///
    /// # Panics
    ///
    /// Panics if `shapes` is empty or the arrival generation panics.
    pub fn workload(&self, n: usize, shapes: &[(usize, usize)]) -> Vec<Request> {
        assert!(!shapes.is_empty(), "need at least one request shape");
        self.arrival_times_ms(n)
            .into_iter()
            .enumerate()
            .map(|(i, at)| {
                let (prefill, decode) = shapes[i % shapes.len()];
                Request::new(i as u64, at, prefill, decode)
            })
            .collect()
    }
}

/// One exponential inter-arrival gap in milliseconds at `rate_per_s`.
fn exponential_gap_ms(rng: &mut StdRng, rate_per_s: f64) -> f64 {
    // u ∈ [0, 1) ⇒ 1 - u ∈ (0, 1] ⇒ ln is finite and ≤ 0.
    let u: f64 = rng.random();
    -(1.0 - u).ln() / rate_per_s * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_is_sorted_and_deterministic() {
        let p = ArrivalProcess::Poisson {
            rate_per_s: 20.0,
            seed: 7,
        };
        let a = p.arrival_times_ms(50);
        let b = p.arrival_times_ms(50);
        assert_eq!(a, b, "equal seeds must produce equal arrivals");
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.iter().all(|&t| t >= 0.0));
    }

    #[test]
    fn poisson_mean_gap_tracks_rate() {
        let p = ArrivalProcess::Poisson {
            rate_per_s: 10.0,
            seed: 3,
        };
        let times = p.arrival_times_ms(2000);
        let mean_gap = times.last().unwrap() / times.len() as f64;
        // 10 req/s ⇒ 100 ms mean gap; allow 15 % sampling noise.
        assert!((85.0..115.0).contains(&mean_gap), "mean gap {mean_gap}");
    }

    #[test]
    fn trace_is_verbatim() {
        let p = ArrivalProcess::Trace(vec![0.0, 1.0, 5.0]);
        assert_eq!(p.arrival_times_ms(2), vec![0.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn unsorted_trace_rejected() {
        let p = ArrivalProcess::Trace(vec![5.0, 1.0]);
        let _ = p.arrival_times_ms(2);
    }

    #[test]
    fn workload_cycles_shapes() {
        let p = ArrivalProcess::Trace(vec![0.0; 5]);
        let reqs = p.workload(5, &[(32, 16), (64, 8)]);
        assert_eq!(reqs.len(), 5);
        assert_eq!(reqs[0].prefill_tokens, 32);
        assert_eq!(reqs[1].prefill_tokens, 64);
        assert_eq!(reqs[2].prefill_tokens, 32);
        assert_eq!(reqs[4].decode_tokens, 16);
    }
}
