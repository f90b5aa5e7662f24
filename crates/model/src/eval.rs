//! Language-model evaluation: cross-entropy and perplexity.
//!
//! Used to sanity-check the functional W8A8 pipeline: quantization noise
//! should cost little perplexity relative to the model's own entropy, and
//! a freshly-initialized model must score near the uniform bound
//! `ppl ≈ vocab`. The caller drives the model and feeds each prediction
//! to a [`Perplexity`] accumulator.

/// Numerically-stable log-softmax probability of `target` under `logits`.
///
/// # Panics
///
/// Panics if `logits` is empty or `target` is out of range.
pub fn log_prob(logits: &[f32], target: u32) -> f64 {
    assert!(!logits.is_empty(), "empty logits");
    assert!((target as usize) < logits.len(), "target out of range");
    let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max) as f64;
    let log_sum: f64 = logits
        .iter()
        .map(|&l| (l as f64 - max).exp())
        .sum::<f64>()
        .ln()
        + max;
    logits[target as usize] as f64 - log_sum
}

/// Streaming cross-entropy accumulator.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Perplexity {
    nll_sum: f64,
    tokens: usize,
}

impl Perplexity {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Scores one prediction.
    pub fn add(&mut self, logits: &[f32], target: u32) {
        self.nll_sum -= log_prob(logits, target);
        self.tokens += 1;
    }

    /// Mean negative log-likelihood in nats (0.0 when empty).
    pub fn cross_entropy(&self) -> f64 {
        if self.tokens == 0 {
            0.0
        } else {
            self.nll_sum / self.tokens as f64
        }
    }

    /// Perplexity `exp(cross_entropy)` (1.0 when empty).
    pub fn perplexity(&self) -> f64 {
        self.cross_entropy().exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use crate::gpt2::Gpt2Model;

    /// Teacher-forced perplexity of `m` on `tokens`: each token after the
    /// first is predicted from its prefix.
    fn teacher_forced(m: &mut Gpt2Model, tokens: &[u32]) -> Perplexity {
        let mut ppl = Perplexity::new();
        let mut logits = m.prefill(&tokens[..1]);
        for &next in &tokens[1..] {
            ppl.add(&logits, next);
            logits = m.decode_step(next);
        }
        ppl
    }

    #[test]
    fn log_prob_of_uniform_logits() {
        let logits = vec![0.0f32; 8];
        let lp = log_prob(&logits, 3);
        assert!((lp + (8f64).ln()).abs() < 1e-6);
    }

    #[test]
    fn confident_prediction_scores_near_zero_nll() {
        let mut logits = vec![-20.0f32; 10];
        logits[4] = 20.0;
        assert!(log_prob(&logits, 4).abs() < 1e-5);
        assert!(log_prob(&logits, 5) < -30.0);
    }

    #[test]
    fn perplexity_of_uniform_is_vocab() {
        let mut ppl = Perplexity::new();
        let logits = vec![0.0f32; 50];
        for t in 0..10u32 {
            ppl.add(&logits, t % 50);
        }
        assert!((ppl.perplexity() - 50.0).abs() < 1e-6);
    }

    #[test]
    fn empty_accumulator_defaults() {
        let ppl = Perplexity::new();
        assert_eq!(ppl.cross_entropy(), 0.0);
        assert_eq!(ppl.perplexity(), 1.0);
    }

    #[test]
    fn fresh_model_scores_near_uniform() {
        // A randomly-initialized model carries almost no information about
        // the next token: perplexity should be within a factor of ~2 of
        // the vocabulary size (and certainly above a tenth of it).
        let cfg = ModelConfig::tiny();
        let mut m = Gpt2Model::synthetic(&cfg, 5);
        let tokens: Vec<u32> = (0..24).map(|i| (i * 37 % 256) as u32).collect();
        let ppl = teacher_forced(&mut m, &tokens).perplexity();
        let vocab = cfg.vocab as f64;
        assert!(
            ppl > vocab / 10.0 && ppl < vocab * 3.0,
            "random-model perplexity {ppl} vs vocab {vocab}"
        );
    }

    #[test]
    fn evaluate_is_deterministic() {
        let cfg = ModelConfig::tiny();
        let tokens: Vec<u32> = (0..16).map(|i| (i * 11 % 256) as u32).collect();
        let a = teacher_forced(&mut Gpt2Model::synthetic(&cfg, 9), &tokens).perplexity();
        let b = teacher_forced(&mut Gpt2Model::synthetic(&cfg, 9), &tokens).perplexity();
        assert_eq!(a, b);
    }
}
