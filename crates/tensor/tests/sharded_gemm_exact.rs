//! Row-sharded GEMM test wall: per-shard output slabs stitched side by
//! side, and per-shard windows written straight into the full rows, must
//! reproduce the unsharded batched forward **bit for bit** at 1, 2 and 4
//! shards — the property the engine's batch-row sharding stands on. It
//! holds because sharding partitions *output rows*: no dot product is
//! ever split, and the dequant epilogue is per-element.

use proptest::prelude::*;

use looplynx_tensor::linear::QuantLinear;
use looplynx_tensor::matrix::Matrix;
use looplynx_tensor::quant::QuantizedVector;

/// Proptest case count — shrunk under Miri (~100× interpreter slowdown).
const CASES: u32 = if cfg!(miri) { 2 } else { 48 };

/// Activation widths: below, at and off the `vpdpbusd` kernel's 64-byte
/// step, up to the model's widest layer (Miri, which interprets the scalar
/// fallback, keeps to the narrow ones).
const WIDTHS: &[usize] = if cfg!(miri) {
    &[1, 3, 16, 33, 64]
} else {
    &[1, 3, 16, 33, 64, 96, 1000, 1024, 4096]
};

fn arb_f32_matrix(rows: usize, cols: usize, seed: u64) -> Matrix<f32> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
    Matrix::from_fn(rows, cols, |_, _| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        ((state >> 11) as f32 / (1u64 << 53) as f32).mul_add(2.0, -1.0)
    })
}

fn arb_i8_matrix(rows: usize, cols: usize, seed: u64) -> Matrix<i8> {
    let mut state = seed.wrapping_mul(0xD134_2543_DE82_EF95).max(1);
    Matrix::from_fn(rows, cols, |_, _| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 32) as i8
    })
}

/// Balanced contiguous row ranges, mirroring the engine's `split_range`.
fn split(rows: usize, parts: usize) -> Vec<std::ops::Range<usize>> {
    let base = rows / parts;
    let rem = rows % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for i in 0..parts {
        let len = base + usize::from(i < rem);
        out.push(start..start + len);
        start += len;
    }
    out
}

/// Runs the range forward over `parts` shards and stitches the slabs
/// side by side into the full `b × rows` layout; checks that writing each
/// shard's columns straight into the full rows
/// (`forward_batch_scaled_range_to`, the engine's way) gives the same bits.
fn sharded_forward(lin: &QuantLinear, x: &Matrix<i8>, x_scales: &[f32], parts: usize) -> Vec<f32> {
    let (b, rows) = (x.rows(), lin.out_features());
    let ranges = split(rows, parts);
    let mut windowed = vec![f32::NAN; b * rows];
    let mut acc = Vec::new();
    for range in &ranges {
        let window = windowed
            .chunks_exact_mut(rows)
            .map(|row| &mut row[range.clone()]);
        lin.forward_batch_scaled_range_to(x, x_scales, range.clone(), &mut acc, window, false);
    }
    let slabs: Vec<Vec<f32>> = ranges
        .iter()
        .map(|r| {
            let (mut acc, mut out) = (Vec::new(), Vec::new());
            lin.forward_batch_scaled_range_into(x, x_scales, r.clone(), &mut acc, &mut out);
            assert_eq!(out.len(), b * r.len(), "slab shape");
            out
        })
        .collect();
    let mut stitched = vec![0.0f32; b * rows];
    for (range, slab) in ranges.iter().zip(&slabs) {
        for t in 0..b {
            stitched[t * rows + range.start..t * rows + range.end]
                .copy_from_slice(&slab[t * range.len()..(t + 1) * range.len()]);
        }
    }
    let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
    assert!(
        bits(&windowed) == bits(&stitched),
        "windows differ from slabs"
    );
    stitched
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    /// 1-, 2- and 4-way row sharding all reproduce the unsharded batched
    /// GEMM bitwise, across odd shapes that leave ragged shard sizes —
    /// and the unsharded batched GEMM reproduces the per-token
    /// `forward` bitwise for every batch size down to one row, on
    /// widths either side of the `vpdpbusd` kernel's 64-byte step, with a
    /// `-128` activation in every batch.
    #[test]
    fn sharded_slabs_stitch_bitwise(
        rows in 1usize..40,
        cols in prop::sample::select(WIDTHS.to_vec()),
        b in 1usize..6,
        seed in any::<u64>(),
    ) {
        let w = arb_f32_matrix(rows, cols, seed);
        let bias: Vec<f32> = arb_f32_matrix(1, rows, seed ^ 1).into_vec();
        let lin = QuantLinear::from_f32(&w, &bias).expect("bias matches rows");
        let mut x = arb_i8_matrix(b, cols, seed ^ 2);
        x.set(seed as usize % b, (seed >> 8) as usize % cols, i8::MIN);
        let x_scales: Vec<f32> = (0..b).map(|t| 0.003 + t as f32 * 1e-4).collect();

        let (mut acc, mut full) = (Vec::new(), Vec::new());
        lin.forward_batch_scaled_into(&x, &x_scales, &mut acc, &mut full);

        for (t, &scale) in x_scales.iter().enumerate() {
            let single = lin.forward(&QuantizedVector::new(x.row(t).to_vec(), scale));
            for (r, (s, f)) in single.iter().zip(&full[t * rows..(t + 1) * rows]).enumerate() {
                prop_assert!(
                    s.to_bits() == f.to_bits(),
                    "token {} row {} of {} differs from forward: {} vs {}", t, r, b, f, s
                );
            }
        }

        for parts in [1usize, 2, 4] {
            let shards = parts.min(rows); // never more shards than rows
            let stitched = sharded_forward(&lin, &x, &x_scales, shards);
            prop_assert_eq!(stitched.len(), full.len());
            for (i, (s, f)) in stitched.iter().zip(&full).enumerate() {
                prop_assert!(
                    s.to_bits() == f.to_bits(),
                    "element {} differs at {} shards: {} vs {}", i, shards, s, f
                );
            }
        }
    }

    /// The same wall at the shapes the AMX tile path takes where it is
    /// live: 8–70 token rows over whole 64-byte chunks, and — beside the
    /// balanced shards — slabs whose start and length are multiples of
    /// neither the 16-row tile nor the 32-row block, so a slab is part
    /// tiles, part `vpdpbusd` tail. Every slab equals the per-token
    /// `forward` bitwise (the epilogue is the same code on every path).
    #[test]
    fn wide_batch_slabs_stitch_bitwise(
        rows in 20usize..(if cfg!(miri) { 24 } else { 120 }),
        cols in prop::sample::select(if cfg!(miri) { vec![64usize] } else { vec![64usize, 128, 1024, 4096] }),
        b in 8usize..(if cfg!(miri) { 10 } else { 71 }),
        seed in any::<u64>(),
    ) {
        let w = arb_f32_matrix(rows, cols, seed);
        let bias: Vec<f32> = arb_f32_matrix(1, rows, seed ^ 1).into_vec();
        let lin = QuantLinear::from_f32(&w, &bias).expect("bias matches rows");
        let mut x = arb_i8_matrix(b, cols, seed ^ 2);
        x.set(seed as usize % b, (seed >> 8) as usize % cols, i8::MIN);
        x.set((seed >> 16) as usize % b, (seed >> 24) as usize % cols, i8::MAX);
        let x_scales: Vec<f32> = (0..b).map(|t| 0.003 + t as f32 * 1e-4).collect();

        let mut reference = vec![0.0f32; b * rows];
        for (t, &scale) in x_scales.iter().enumerate() {
            let single = lin.forward(&QuantizedVector::new(x.row(t).to_vec(), scale));
            reference[t * rows..(t + 1) * rows].copy_from_slice(&single);
        }
        let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();

        for parts in [1usize, 2, 4] {
            let stitched = sharded_forward(&lin, &x, &x_scales, parts);
            prop_assert!(bits(&stitched) == bits(&reference), "{} shards differ", parts);
        }
        let (mut acc, mut out) = (Vec::new(), Vec::new());
        for range in [3..rows - 1, 5..rows, 17..18, 1..20] {
            lin.forward_batch_scaled_range_into(&x, &x_scales, range.clone(), &mut acc, &mut out);
            for t in 0..b {
                prop_assert!(
                    bits(&out[t * range.len()..(t + 1) * range.len()])
                        == bits(&reference[t * rows..][range.clone()]),
                    "token {} of slab {:?} differs", t, range
                );
            }
        }
    }

    /// With `gelu`, each window is the GELU of the plain forward's, bit
    /// for bit (the epilogue applies it per output row).
    #[test]
    fn gelu_windows_equal_gelu_of_the_forward(
        rows in 1usize..70,
        cols in prop::sample::select(WIDTHS.to_vec()),
        b in 1usize..9,
        seed in any::<u64>(),
    ) {
        let w = arb_f32_matrix(rows, cols, seed);
        let bias: Vec<f32> = arb_f32_matrix(1, rows, seed ^ 1).into_vec();
        let lin = QuantLinear::from_f32(&w, &bias).expect("bias matches rows");
        let x = arb_i8_matrix(b, cols, seed ^ 2);
        let x_scales: Vec<f32> = (0..b).map(|t| 0.02 + t as f32 * 1e-3).collect();
        let (mut acc, mut full) = (Vec::new(), Vec::new());
        lin.forward_batch_scaled_into(&x, &x_scales, &mut acc, &mut full);
        looplynx_tensor::activation::gelu_in_place(&mut full);
        let mut out = vec![f32::NAN; b * rows];
        for range in split(rows, 2.min(rows)) {
            let window = out.chunks_exact_mut(rows).map(|row| &mut row[range.clone()]);
            lin.forward_batch_scaled_range_to(&x, &x_scales, range.clone(), &mut acc, window, true);
        }
        let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        prop_assert!(bits(&out) == bits(&full));
    }

    /// Empty ranges (more shards than rows would produce them) are legal
    /// and yield empty slabs.
    #[test]
    fn empty_range_yields_empty_slab(
        rows in 1usize..8,
        cols in 1usize..16,
        seed in any::<u64>(),
    ) {
        let w = arb_f32_matrix(rows, cols, seed);
        let lin = QuantLinear::from_f32(&w, &vec![0.0; rows]).expect("bias");
        let x = arb_i8_matrix(2, cols, seed ^ 2);
        let (mut acc, mut out) = (Vec::new(), Vec::new());
        lin.forward_batch_scaled_range_into(&x, &[0.01, 0.02], rows..rows, &mut acc, &mut out);
        prop_assert!(out.is_empty());
    }
}
