//! Serving requests and per-request latency records.

/// One generation request offered to the serving layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Caller-chosen identifier (unique within a workload; also seeds the
    /// request's sampler on token-producing backends).
    pub id: u64,
    /// Arrival timestamp in milliseconds since the workload epoch.
    pub arrival_ms: f64,
    /// Prompt length in tokens.
    pub prefill_tokens: usize,
    /// Output tokens requested.
    pub decode_tokens: usize,
    /// Real prompt token ids. Timing-only backends ignore them;
    /// token-producing backends require them (see
    /// [`Request::with_prompt`]).
    pub prompt: Option<Vec<u32>>,
}

impl Request {
    /// Creates a request without prompt tokens (timing-only workloads).
    ///
    /// # Panics
    ///
    /// Panics if either token count is zero or `arrival_ms` is negative or
    /// non-finite.
    pub fn new(id: u64, arrival_ms: f64, prefill_tokens: usize, decode_tokens: usize) -> Self {
        assert!(
            prefill_tokens > 0 && decode_tokens > 0,
            "request needs at least one prompt and one output token"
        );
        assert!(
            arrival_ms.is_finite() && arrival_ms >= 0.0,
            "invalid arrival time {arrival_ms}"
        );
        Request {
            id,
            arrival_ms,
            prefill_tokens,
            decode_tokens,
            prompt: None,
        }
    }

    /// Attaches real prompt tokens (and syncs `prefill_tokens` to their
    /// count) so the request can run on a token-producing backend.
    ///
    /// # Panics
    ///
    /// Panics if `prompt` is empty.
    #[must_use]
    pub fn with_prompt(mut self, prompt: Vec<u32>) -> Self {
        assert!(!prompt.is_empty(), "prompt must not be empty");
        self.prefill_tokens = prompt.len();
        self.prompt = Some(prompt);
        self
    }

    /// Largest KV-cache length any scheduled pass reaches: the last
    /// decode pass appends token `decode_tokens - 1` onto the prompt.
    pub fn peak_context(&self) -> usize {
        self.prefill_tokens + self.decode_tokens - 1
    }
}

/// Timing record of one completed request.
///
/// The first output token is sampled from the prefill logits (the paper's
/// host synchronizes model output and samples after the final prompt
/// token), so TTFT is the queue wait plus the prefill wall-clock; the
/// remaining `decode_tokens - 1` tokens each take one decode iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestMetrics {
    /// Request identifier.
    pub id: u64,
    /// Arrival timestamp (ms).
    pub arrival_ms: f64,
    /// Timestamp the first output token was emitted (ms).
    pub first_token_ms: f64,
    /// Timestamp the last output token was emitted (ms).
    pub completion_ms: f64,
    /// Prompt length in tokens.
    pub prefill_tokens: usize,
    /// Output tokens produced (equals the request's ask — the serving
    /// layer rejects workloads that would overflow `max_seq`).
    pub decode_tokens: usize,
}

impl RequestMetrics {
    /// Time-to-first-token: arrival to first output token (ms).
    pub fn ttft_ms(&self) -> f64 {
        self.first_token_ms - self.arrival_ms
    }

    /// Time-per-output-token over the decode phase (ms); `0.0` for a
    /// single-token generation, which has no decode phase.
    pub fn tpot_ms(&self) -> f64 {
        if self.decode_tokens <= 1 {
            return 0.0;
        }
        (self.completion_ms - self.first_token_ms) / (self.decode_tokens - 1) as f64
    }

    /// End-to-end latency: arrival to last output token (ms).
    pub fn e2e_ms(&self) -> f64 {
        self.completion_ms - self.arrival_ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_derive_latencies() {
        let m = RequestMetrics {
            id: 1,
            arrival_ms: 100.0,
            first_token_ms: 130.0,
            completion_ms: 190.0,
            prefill_tokens: 32,
            decode_tokens: 7,
        };
        assert!((m.ttft_ms() - 30.0).abs() < 1e-12);
        assert!((m.e2e_ms() - 90.0).abs() < 1e-12);
        assert!((m.tpot_ms() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn single_token_request_has_no_tpot() {
        let m = RequestMetrics {
            id: 1,
            arrival_ms: 0.0,
            first_token_ms: 5.0,
            completion_ms: 5.0,
            prefill_tokens: 8,
            decode_tokens: 1,
        };
        assert_eq!(m.tpot_ms(), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one prompt")]
    fn zero_decode_rejected() {
        let _ = Request::new(0, 0.0, 8, 0);
    }
}
