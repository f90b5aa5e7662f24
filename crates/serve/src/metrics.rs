//! Aggregated serving metrics.

use std::fmt;

use looplynx_sim::stats::{Percentiles, Summary};

use crate::request::RequestMetrics;

/// The tokens one request actually generated (token-producing backends
/// only; timing-only runs have no outputs).
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratedOutput {
    /// Request identifier.
    pub id: u64,
    /// Output tokens in generation order (first token sampled from the
    /// prefill logits, the rest one per decode iteration).
    pub tokens: Vec<u32>,
}

/// Outcome of serving one workload: per-request records plus the
/// latency-percentile aggregates serving systems are judged by.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingReport {
    /// One record per completed request, in completion order.
    pub requests: Vec<RequestMetrics>,
    /// Generated tokens per request, in completion order — empty when the
    /// backend is timing-only (the sim engine schedules passes, it does
    /// not compute logits).
    pub outputs: Vec<GeneratedOutput>,
    /// Decode iterations the scheduler ran.
    pub decode_iterations: u64,
    /// Concurrent requests per decode iteration (mean is the effective
    /// batch occupancy; 1.0 means no batching ever happened).
    pub batch_occupancy: Summary,
    /// Time-to-first-token distribution (ms).
    pub ttft_ms: Percentiles,
    /// Time-per-output-token distribution (ms; single-token requests are
    /// excluded — they have no decode phase).
    pub tpot_ms: Percentiles,
    /// End-to-end latency distribution (ms).
    pub e2e_ms: Percentiles,
}

impl ServingReport {
    /// Aggregates per-request records plus their generated tokens.
    pub fn with_outputs(
        requests: Vec<RequestMetrics>,
        outputs: Vec<GeneratedOutput>,
        decode_iterations: u64,
        batch_occupancy: Summary,
    ) -> Self {
        let mut ttft_ms = Percentiles::new();
        let mut tpot_ms = Percentiles::new();
        let mut e2e_ms = Percentiles::new();
        for r in &requests {
            ttft_ms.add(r.ttft_ms());
            e2e_ms.add(r.e2e_ms());
            if r.decode_tokens > 1 {
                tpot_ms.add(r.tpot_ms());
            }
        }
        ServingReport {
            requests,
            outputs,
            decode_iterations,
            batch_occupancy,
            ttft_ms,
            tpot_ms,
            e2e_ms,
        }
    }

    /// The generated tokens of request `id`, if the backend produced any.
    pub fn output_tokens(&self, id: u64) -> Option<&[u32]> {
        self.outputs
            .iter()
            .find(|o| o.id == id)
            .map(|o| o.tokens.as_slice())
    }

    /// Completed requests.
    pub fn completed(&self) -> usize {
        self.requests.len()
    }

    /// Total output tokens produced across all requests.
    pub fn total_tokens(&self) -> usize {
        self.requests.iter().map(|r| r.decode_tokens).sum()
    }

    /// Wall-clock span from the first arrival to the last completion (ms);
    /// `0.0` for an empty report.
    pub fn makespan_ms(&self) -> f64 {
        let first = self
            .requests
            .iter()
            .map(|r| r.arrival_ms)
            .fold(f64::INFINITY, f64::min);
        let last = self
            .requests
            .iter()
            .map(|r| r.completion_ms)
            .fold(f64::NEG_INFINITY, f64::max);
        if last > first {
            last - first
        } else {
            0.0
        }
    }

    /// Sustained output throughput in tokens per second over the makespan;
    /// `0.0` for a degenerate (empty or zero-span) report.
    pub fn tokens_per_second(&self) -> f64 {
        let span_ms = self.makespan_ms();
        if span_ms <= 0.0 {
            return 0.0;
        }
        self.total_tokens() as f64 / (span_ms / 1e3)
    }
}

impl fmt::Display for ServingReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} requests, {} tokens in {:.1} ms ({:.1} tok/s, mean batch {:.2})",
            self.completed(),
            self.total_tokens(),
            self.makespan_ms(),
            self.tokens_per_second(),
            self.batch_occupancy.mean(),
        )?;
        writeln!(f, "  TTFT  {}", self.ttft_ms)?;
        writeln!(f, "  TPOT  {}", self.tpot_ms)?;
        write!(f, "  E2E   {}", self.e2e_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(id: u64, arrival: f64, first: f64, done: f64, decode: usize) -> RequestMetrics {
        RequestMetrics {
            id,
            arrival_ms: arrival,
            first_token_ms: first,
            completion_ms: done,
            prefill_tokens: 16,
            decode_tokens: decode,
        }
    }

    #[test]
    fn report_aggregates_percentiles() {
        let report = ServingReport::with_outputs(
            vec![
                record(0, 0.0, 10.0, 100.0, 10),
                record(1, 5.0, 40.0, 120.0, 5),
            ],
            Vec::new(),
            13,
            Summary::new(),
        );
        assert_eq!(report.completed(), 2);
        assert_eq!(report.total_tokens(), 15);
        assert!((report.makespan_ms() - 120.0).abs() < 1e-12);
        assert!((report.tokens_per_second() - 125.0).abs() < 1e-9);
        assert_eq!(report.ttft_ms.count(), 2);
        assert_eq!(report.ttft_ms.p50(), Some(10.0));
        assert_eq!(report.ttft_ms.p99(), Some(35.0));
    }

    #[test]
    fn empty_report_is_degenerate_but_finite() {
        let report = ServingReport::with_outputs(Vec::new(), Vec::new(), 0, Summary::new());
        assert_eq!(report.tokens_per_second(), 0.0);
        assert_eq!(report.makespan_ms(), 0.0);
        assert_eq!(report.ttft_ms.p50(), None);
    }

    #[test]
    fn single_token_requests_excluded_from_tpot() {
        let report = ServingReport::with_outputs(
            vec![record(0, 0.0, 10.0, 10.0, 1), record(1, 0.0, 20.0, 60.0, 5)],
            Vec::new(),
            4,
            Summary::new(),
        );
        assert_eq!(report.tpot_ms.count(), 1);
        assert_eq!(report.tpot_ms.p50(), Some(10.0));
    }
}
