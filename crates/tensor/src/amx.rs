//! The int8 GEMM on the host's matrix unit (Intel AMX).
//!
//! One `tdpbssd` multiplies a 16-row × 64-byte A tile by a 16 × 64-byte
//! B tile into a 16 × 16 i32 C tile: 16 384 signed × signed MACs, exact
//! over all of i8. **Weights are the A operand** — a tile is 16 weight
//! rows × 64 columns, a strided `tileloadd` from the rows where they lie,
//! so a mapped checkpoint view is never copied or repacked. Activations
//! are the B operand, which wants VNNI layout (`B[k][4n..] = x[n][4k..]`,
//! four bytes each): they are packed per call into thread-local 1 KiB
//! panels, zero-padded to 16 rows. C comes out `[weight row][token]` and
//! is stored transposed into the `[token][weight row]` buffer the dequant
//! epilogue reads. Both re-layouts are one 16 × 16 transpose of words.
//!
//! The AMX intrinsics, `target_feature` and feature detection are all
//! unstable, so the instructions are `asm!` and detection reads CPUID.
//! ARCHITECTURE §5 has the layout drawings and the long-form safety case.

use crate::matrix::Matrix;
use std::ops::Range;

/// What became of the tile unit when this process asked for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TileUnit {
    /// No AMX int8 on this CPU, OS or build (non-Linux, Miri).
    Absent,
    /// The CPU has it; the kernel refused the tile-data permission.
    Refused,
    /// Permission granted: [`gemm`] may run.
    Live,
}

/// The decision behind [`tile_unit`]: permission is requested (`ask`,
/// `0` = granted) only where the CPU has the unit.
pub(crate) fn decide(cpu_has: bool, ask: impl FnOnce() -> isize) -> TileUnit {
    match cpu_has {
        false => TileUnit::Absent,
        true if ask() == 0 => TileUnit::Live,
        true => TileUnit::Refused,
    }
}

/// The tile unit's state, decided once per process.
pub(crate) fn tile_unit() -> TileUnit {
    static STATE: std::sync::OnceLock<TileUnit> = std::sync::OnceLock::new();
    *STATE.get_or_init(|| {
        #[cfg(all(target_arch = "x86_64", target_os = "linux", not(miri)))]
        let state = hw::detect();
        #[cfg(not(all(target_arch = "x86_64", target_os = "linux", not(miri))))]
        let state = decide(false, || -1);
        state
    })
}

/// `out[t * cols + (r - rows.start)] = Σ_c w[r, c] · x[t, c]` for every
/// weight row `r` in `rows` and token row `t` of `x`; the other columns
/// of `out` are left alone.
///
/// # Panics
///
/// Panics unless the tile unit is live, `rows` lies in `w` and is a
/// multiple of 16 long, the shared width is a positive multiple of 64,
/// and `out` holds `x.rows() × cols` values with `cols >= rows.len()`.
pub(crate) fn gemm(
    w: &Matrix<i8>,
    rows: Range<usize>,
    x: &Matrix<i8>,
    out: &mut [i32],
    cols: usize,
) {
    let width = w.cols();
    assert!(tile_unit() == TileUnit::Live, "tile unit not live");
    assert!(rows.start <= rows.end && rows.end <= w.rows() && rows.len().is_multiple_of(16));
    assert!(width >= 64 && width.is_multiple_of(64) && x.cols() == width);
    assert!(rows.len() <= cols && out.len() == x.rows() * cols);
    #[cfg(all(target_arch = "x86_64", target_os = "linux", not(miri)))]
    if !rows.is_empty() && x.rows() > 0 {
        // SAFETY: live means AVX-512F and the tile permission; the other
        // asserts are the shape contract of `gemm_tiles`.
        unsafe { hw::gemm_tiles(w.as_slice(), width, rows, x.as_slice(), out, cols) }
    }
}

#[cfg(all(target_arch = "x86_64", target_os = "linux", not(miri)))]
mod hw {
    use super::{decide, Range, TileUnit};
    use std::arch::asm;
    use std::arch::x86_64::*;
    use std::cell::RefCell;

    pub fn detect() -> TileUnit {
        // AVX-512F for the transposes (and it puts CPUID leaf 7 in range);
        // leaf 7 EDX bit 24 is AMX-TILE, bit 25 AMX-INT8.
        let cpu_has =
            is_x86_feature_detected!("avx512f") && (__cpuid_count(7, 0).edx >> 24) & 3 == 3;
        decide(cpu_has, || {
            let ret: isize;
            // SAFETY: `arch_prctl(ARCH_REQ_XCOMP_PERM = 0x1023,
            // XFEATURE_XTILEDATA = 18)` takes two integers and touches no
            // memory of ours; `syscall` clobbers rcx and r11, both declared.
            unsafe {
                asm!("syscall", inlateout("rax") 158isize => ret, in("rdi") 0x1023, in("rsi") 18,
                     out("rcx") _, out("r11") _, options(nostack));
            }
            ret
        })
    }

    /// Palette 1, all eight tiles 16 rows × 64 bytes (`colsb` are the
    /// u16s from byte 16, `rows` the bytes from 48).
    static ALL_16X64: [u8; 64] = {
        let mut c = [0u8; 64];
        c[0] = 1;
        let mut t = 0;
        while t < 8 {
            (c[16 + 2 * t], c[48 + t]) = (64, 16);
            t += 1;
        }
        c
    };

    thread_local! {
        /// The packed activation panels, kept at their high-water mark.
        static PANELS: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
    }

    /// # Safety
    ///
    /// The tile unit is live (so AVX-512F is present); `w` holds at least
    /// `rows.end` rows of `width` bytes, `width` is a positive multiple of
    /// 64, `rows.len()` a multiple of 16, `x.len()` a multiple of `width`,
    /// `out.len() = x_rows × cols` and `cols >= rows.len()`.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn gemm_tiles(
        w: &[i8],
        width: usize,
        rows: Range<usize>,
        x: &[i8],
        out: &mut [i32],
        cols: usize,
    ) {
        // SAFETY: reads the 64-byte config; permission was granted, so the
        // thread may hold tile state — until the `tilerelease` below.
        unsafe { asm!("ldtilecfg [{}]", in(reg) &ALL_16X64, options(nostack)) };
        let (x_rows, chunks) = (x.len() / width, width / 64);
        let groups = x_rows.div_ceil(16);
        let mut panels = PANELS.take();
        panels.resize(groups * 16 * width, 0);

        // Pack: panel tile (g, kc) is the transpose of the 16 × 16 block of
        // words at token 16 g, byte 64 kc of `x`; tokens past the end are 0.
        for g in 0..groups {
            for kc in 0..chunks {
                let src = x[g * 16 * width + kc * 64..].as_ptr();
                let tile = panels[(g * chunks + kc) * 1024..][..1024].as_mut_ptr();
                // SAFETY: tokens 16 g.. below `x_rows` each have bytes
                // 64 kc..64 kc + 64; the 16 stores fill the 1 KiB tile.
                unsafe { transpose16(src.cast(), width, x_rows - g * 16, tile, 64, 16) };
            }
        }

        let mut c = [0i32; 4 * 256];
        for r in rows.clone().step_by(32) {
            let two_a = usize::from(r + 32 <= rows.end);
            for g in (0..groups).step_by(2) {
                let two_b = usize::from(g + 2 <= groups);
                let a0 = w[r * width..].as_ptr();
                let b0 = panels[g * chunks * 1024..].as_ptr();
                // SAFETY: A tiles read 16 rows × 64 bytes at stride `width`
                // from weight rows r.. (and r + 16.. under `two_a`), bytes
                // 64 k..64 k + 64 for k < chunks: inside `w`, as rows.end is
                // within it. B tiles read the 1 KiB panel tiles of group g
                // (and g + 1 under `two_b`). The second operands are touched
                // only under their flag. The stores fill the 4 KiB of `c`.
                // Tile registers are configured (above), never used by
                // compiled code, and declared clobbered.
                unsafe {
                    asm!(
                        "tilezero tmm0", "tilezero tmm1", "tilezero tmm2", "tilezero tmm3",
                        "2:",
                        "tileloadd tmm4, [{a0} + {ws}]", "tileloadd tmm6, [{b0} + {bs}]",
                        "tdpbssd tmm0, tmm4, tmm6",
                        "test {two_b}, {two_b}", "jz 3f",
                        "tileloadd tmm7, [{b1} + {bs}]", "tdpbssd tmm1, tmm4, tmm7",
                        "3:", "test {two_a}, {two_a}", "jz 4f",
                        "tileloadd tmm5, [{a1} + {ws}]", "tdpbssd tmm2, tmm5, tmm6",
                        "test {two_b}, {two_b}", "jz 4f",
                        "tdpbssd tmm3, tmm5, tmm7",
                        "4:", "add {a0}, 64", "add {a1}, 64", "add {b0}, 1024", "add {b1}, 1024",
                        "dec {k}", "jnz 2b",
                        "tilestored [{c} + {bs}], tmm0", "tilestored [{c} + {bs} + 1024], tmm1",
                        "tilestored [{c} + {bs} + 2048], tmm2", "tilestored [{c} + {bs} + 3072], tmm3",
                        a0 = inout(reg) a0 => _, a1 = inout(reg) a0.wrapping_add(16 * width) => _,
                        b0 = inout(reg) b0 => _, b1 = inout(reg) b0.wrapping_add(chunks * 1024) => _,
                        k = inout(reg) chunks => _, ws = in(reg) width, bs = in(reg) 64usize,
                        c = in(reg) c.as_mut_ptr(), two_a = in(reg) two_a, two_b = in(reg) two_b,
                        out("tmm0") _, out("tmm1") _, out("tmm2") _, out("tmm3") _,
                        out("tmm4") _, out("tmm5") _, out("tmm6") _, out("tmm7") _,
                        options(nostack),
                    );
                }
                // C tile (a, b) is [weight row][token]; `out` takes its
                // transpose, one 16-value row per live token.
                for (a, b) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
                    if a <= two_a && b <= two_b {
                        let (t0, col) = ((g + b) * 16, r + 16 * a - rows.start);
                        let dst = out[t0 * cols + col..].as_mut_ptr();
                        let tile = c[(2 * a + b) * 256..].as_ptr();
                        // SAFETY: the tile is 16 rows of 64 bytes; tokens
                        // t0.. below `x_rows` each own 16 values of `out`
                        // from column `col`, as col + 16 <= rows.len() <= cols.
                        unsafe {
                            transpose16(tile.cast(), 64, 16, dst.cast(), cols * 4, x_rows - t0)
                        };
                    }
                }
            }
        }
        PANELS.set(panels);
        // Back to the INIT state: a thread that kept its tiles configured
        // would carry 8 KiB of live state through every park and wake
        // (measured: batch-1 decode, which never takes this path, +7 %).
        // SAFETY: no operands; only tile state changes.
        unsafe { asm!("tilerelease", options(nostack)) };
    }

    /// Transposes a 16 × 16 block of 32-bit words. Row `i` of the block is
    /// the 64 bytes at `src + i × src_stride` for `i < from` and zero
    /// after; row `j` of the transpose is written to `dst + j × dst_stride`
    /// for `j < to` (`from` and `to` saturate at 16). The network
    /// interleaves words, then quadwords, within 128-bit lanes — each lane
    /// then holds one column of four rows — and gathers lanes twice.
    ///
    /// # Safety
    ///
    /// AVX-512F is present; every row read and every row written is 64
    /// bytes in bounds.
    #[target_feature(enable = "avx512f")]
    unsafe fn transpose16(
        src: *const u8,
        src_stride: usize,
        from: usize,
        dst: *mut u8,
        dst_stride: usize,
        to: usize,
    ) {
        let mut r = [_mm512_setzero_si512(); 16];
        for (i, row) in r.iter_mut().enumerate().take(from) {
            // SAFETY: i < from, so the caller vouches for these 64 bytes.
            *row = unsafe { _mm512_loadu_si512(src.add(i * src_stride).cast()) };
        }
        let (mut t, mut u, mut p, mut o) = (r, r, r, r);
        for i in (0..16).step_by(2) {
            t[i] = _mm512_unpacklo_epi32(r[i], r[i + 1]);
            t[i + 1] = _mm512_unpackhi_epi32(r[i], r[i + 1]);
        }
        for g in (0..16).step_by(4) {
            u[g] = _mm512_unpacklo_epi64(t[g], t[g + 2]);
            u[g + 1] = _mm512_unpackhi_epi64(t[g], t[g + 2]);
            u[g + 2] = _mm512_unpacklo_epi64(t[g + 1], t[g + 3]);
            u[g + 3] = _mm512_unpackhi_epi64(t[g + 1], t[g + 3]);
        }
        for i in [0, 1, 2, 3, 8, 9, 10, 11] {
            p[i] = _mm512_shuffle_i32x4::<0x88>(u[i], u[i + 4]);
            p[i + 4] = _mm512_shuffle_i32x4::<0xdd>(u[i], u[i + 4]);
        }
        for i in 0..8 {
            o[i] = _mm512_shuffle_i32x4::<0x88>(p[i], p[i + 8]);
            o[i + 8] = _mm512_shuffle_i32x4::<0xdd>(p[i], p[i + 8]);
        }
        for (j, row) in o.into_iter().enumerate().take(to) {
            // SAFETY: j < to, so the caller vouches for these 64 bytes.
            unsafe { _mm512_storeu_si512(dst.add(j * dst_stride).cast(), row) };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::gemm_i32_naive;

    #[test]
    fn permission_is_asked_only_where_the_cpu_has_tiles() {
        assert_eq!(decide(false, || panic!("asked")), TileUnit::Absent);
        assert_eq!(decide(true, || -1), TileUnit::Refused);
        assert_eq!(decide(true, || 0), TileUnit::Live);
    }

    /// The kernel alone against the naive GEMM: one and two tiles each
    /// way, ragged token counts, a column offset, and the i32 worst case
    /// (width 4096 of ±127 / −128 products, |Σ| = 2²⁶).
    #[test]
    fn tile_gemm_is_exact_at_the_extremes() {
        if tile_unit() != TileUnit::Live {
            println!("skipped: AMX not live ({:?})", tile_unit());
            return;
        }
        let extreme = |i: usize| [i8::MIN, i8::MAX, -127][i % 3];
        for (tokens, width, w_rows) in [(1, 64, 16), (16, 4096, 32), (21, 4096, 48), (70, 128, 80)]
        {
            let w = Matrix::from_fn(w_rows, width, |r, _| extreme(r));
            let x = Matrix::from_fn(tokens, width, |t, _| extreme(t / 2));
            let naive = gemm_i32_naive(&w, &x).unwrap();
            for rows in [0..w_rows, 16..w_rows, 16..16] {
                let cols = rows.len() + 3;
                let mut out = vec![7i32; tokens * cols];
                gemm(&w, rows.clone(), &x, &mut out, cols);
                for t in 0..tokens {
                    let (got, rest) = out[t * cols..(t + 1) * cols].split_at(rows.len());
                    assert_eq!(
                        got,
                        &naive.row(t)[rows.clone()],
                        "{tokens} × {width}, {rows:?}"
                    );
                    assert_eq!(rest, [7; 3], "columns past the tiles are left alone");
                }
            }
        }
    }
}
