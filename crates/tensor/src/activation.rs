//! GELU and two-phase softmax.
//!
//! The softmax decomposition mirrors the hardware: "the calculation of
//! softmax requires obtaining the global sum of exponent values (softmax.1)
//! before generating the weighted score (softmax.2)" (paper Section III-C).
//! Keeping the two phases as separate functions lets the MHA kernel model
//! account for them individually and lets the head-wise pipeline hide phase
//! boundaries between heads.

/// GELU activation (tanh approximation, as used by GPT-2).
///
/// The inner tanh is [`tanh_fast`] rather than libm's `tanhf`: the
/// accelerator evaluates GELU in a dedicated piecewise hardware unit, and
/// the host model needs the same property — a fixed, branchless sequence
/// of f32 operations. `tanhf` is a per-element library call costing tens
/// of nanoseconds; at batched-decode volume (`batch × d_ff × layers`
/// activations per step) it was the single largest non-GEMM cost of a
/// decode iteration. [`tanh_fast`] agrees with `tanhf` to ~1e-7 absolute
/// (beneath the int8 quantization granularity of every downstream
/// consumer) and is bit-deterministic across platforms, so all
/// functional paths — single-token, batched prefill, batched decode —
/// stay exactly equal to each other.
#[inline]
pub fn gelu(x: f32) -> f32 {
    const SQRT_2_OVER_PI: f32 = 0.797_884_6;
    0.5 * x * (1.0 + tanh_fast(SQRT_2_OVER_PI * (x + 0.044_715 * x * x * x)))
}

/// Fast deterministic tanh: `tanh(|x|) = (1 - e⁻²ˡˣˡ) / (1 + e⁻²ˡˣˡ)`
/// with a polynomial `exp`, saturating for `|x| ≥ 9` (where `tanh`
/// rounds to ±1 in f32 anyway). Branchless — every lane runs the same
/// instruction sequence, so the loop auto-vectorizes. Maximum absolute
/// error vs libm `tanhf` is ~1e-7.
#[inline]
pub fn tanh_fast(x: f32) -> f32 {
    let a = x.abs().min(9.0);
    let t = exp_fast(-2.0 * a);
    ((1.0 - t) / (1.0 + t)).copysign(x)
}

/// Polynomial `eˣ` for `x ∈ [-18, 0]`: split `x·log₂e` into integer and
/// fractional parts, evaluate `e^(f·ln2)` by a degree-6 Taylor polynomial
/// (|f| ≤ ½ keeps the argument small), and apply the integer power of two
/// through the f32 exponent field. Pure f32 arithmetic, no library calls.
#[inline]
fn exp_fast(x: f32) -> f32 {
    const LOG2E: f32 = std::f32::consts::LOG2_E;
    const LN2: f32 = std::f32::consts::LN_2;
    let y = x * LOG2E;
    // Ties-even rounding compiles to a single vectorizable `roundps`
    // (plain `round` scalarizes); either split keeps |y - n| ≤ ½.
    let n = y.round_ties_even();
    let g = (y - n) * LN2;
    let p = 1.0
        + g * (1.0
            + g * (0.5
                + g * (1.0 / 6.0 + g * (1.0 / 24.0 + g * (1.0 / 120.0 + g * (1.0 / 720.0))))));
    // 2^n via the exponent field; n ∈ [-26, 0] here so the biased
    // exponent stays in range.
    p * f32::from_bits((((n as i32) + 127) << 23) as u32)
}

/// Applies GELU elementwise (via the vectorized
/// [`crate::simd::gelu_slice`], bit-identical to mapping [`gelu`]).
pub fn gelu_vec(xs: &[f32]) -> Vec<f32> {
    let mut out = xs.to_vec();
    crate::simd::gelu_slice(&mut out);
    out
}

/// Applies GELU elementwise in place (same math as [`gelu_vec`], no
/// allocation).
pub fn gelu_in_place(xs: &mut [f32]) {
    crate::simd::gelu_slice(xs);
}

/// Intermediate state after softmax phase 1: shifted exponentials and their
/// global sum.
#[derive(Debug, Clone, PartialEq)]
pub struct SoftmaxPhase1 {
    exps: Vec<f32>,
    sum: f32,
}

/// Softmax phase 1: numerically-stable exponentials and their global sum.
pub fn softmax_phase1(scores: &[f32]) -> SoftmaxPhase1 {
    let max = scores.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let exps: Vec<f32> = if scores.is_empty() {
        Vec::new()
    } else {
        scores.iter().map(|&s| (s - max).exp()).collect()
    };
    let sum = exps.iter().sum();
    SoftmaxPhase1 { exps, sum }
}

/// Softmax phase 2: divides by the global sum to produce weights.
pub fn softmax_phase2(phase1: &SoftmaxPhase1) -> Vec<f32> {
    if phase1.exps.is_empty() {
        return Vec::new();
    }
    let inv = 1.0 / phase1.sum;
    phase1.exps.iter().map(|&e| e * inv).collect()
}

/// Complete softmax (both phases).
pub fn softmax(scores: &[f32]) -> Vec<f32> {
    softmax_phase2(&softmax_phase1(scores))
}

/// Complete softmax into a caller-provided buffer (cleared and resized).
///
/// Performs the identical operations of [`softmax`] in the identical
/// order — shifted exponentials, global sum, multiply by the reciprocal —
/// so results are bit-identical, just without the two allocations. Only
/// the order-free maximum is vectorized; scalar libm `exp` feeds the sum
/// chain in index order (from `+0.0`: no exponential is `-0.0`).
pub fn softmax_into(scores: &[f32], out: &mut Vec<f32>) {
    out.clear();
    if scores.is_empty() {
        return;
    }
    let max = crate::simd::max_f32(scores);
    let mut sum = 0.0f32;
    out.extend(scores.iter().map(|&s| {
        let e = (s - max).exp();
        sum += e;
        e
    }));
    let inv = 1.0 / sum;
    for e in out.iter_mut() {
        *e *= inv;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gelu_known_points() {
        assert_eq!(gelu(0.0), 0.0);
        assert!((gelu(1.0) - 0.8412).abs() < 1e-3);
        assert!((gelu(-1.0) + 0.1588).abs() < 1e-3);
        // large positive ≈ identity; large negative ≈ 0
        assert!((gelu(10.0) - 10.0).abs() < 1e-3);
        assert!(gelu(-10.0).abs() < 1e-3);
    }

    #[test]
    fn tanh_fast_tracks_libm_to_1e6() {
        let mut worst = 0.0f32;
        let mut x = -12.0f32;
        while x <= 12.0 {
            let err = (tanh_fast(x) - x.tanh()).abs();
            worst = worst.max(err);
            x += 0.003;
        }
        assert!(worst < 1e-6, "worst tanh_fast error {worst}");
        assert_eq!(tanh_fast(0.0), 0.0);
        assert_eq!(tanh_fast(50.0), 1.0);
        assert_eq!(tanh_fast(-50.0), -1.0);
        // odd symmetry is exact (computed on |x| then sign-copied)
        assert_eq!(tanh_fast(1.7), -tanh_fast(-1.7));
    }

    #[test]
    fn softmax_sums_to_one() {
        let w = softmax(&[1.0, 2.0, 3.0, 4.0]);
        let sum: f32 = w.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
        assert!(w.windows(2).all(|p| p[0] < p[1]), "monotone in scores");
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let a = softmax(&[1.0, 2.0, 3.0]);
        let b = softmax(&[101.0, 102.0, 103.0]);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn softmax_survives_large_scores() {
        let w = softmax(&[1000.0, 999.0]);
        assert!(w.iter().all(|v| v.is_finite()));
        assert!((w.iter().sum::<f32>() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn softmax_into_is_bit_identical_to_softmax() {
        // The hot path's single-buffer variant must never drift from the
        // two-phase composition (the attention bit-exactness suite's
        // premise).
        for scores in [
            vec![],
            vec![0.0f32],
            vec![1.0, 2.0, 3.0, 4.0],
            vec![1000.0, 999.0, -1000.0],
            (0..257).map(|i| (i as f32 * 0.37).sin() * 9.0).collect(),
        ] {
            let mut out = vec![7.0f32; 3]; // dirty buffer
            softmax_into(&scores, &mut out);
            assert_eq!(out, softmax(&scores), "len {}", scores.len());
        }
    }

    #[test]
    fn phases_compose_to_softmax() {
        let scores = [0.5f32, -1.0, 2.0];
        let p1 = softmax_phase1(&scores);
        let direct = softmax(&scores);
        let phased = softmax_phase2(&p1);
        assert_eq!(direct, phased);
    }

    #[test]
    fn empty_softmax_is_empty() {
        assert!(softmax(&[]).is_empty());
        assert!(softmax_phase2(&softmax_phase1(&[])).is_empty());
    }
}
