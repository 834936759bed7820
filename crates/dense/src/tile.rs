//! Tile-granular kernel entry points for the intra-front task DAG.
//!
//! The multifrontal tiled driver decomposes one large frontal matrix into
//! `potrf(k)` → `trsm(i,k)` → `syrk/gemm(i,j,k)` tile tasks executed
//! concurrently by the work-stealing runtime. Each task calls exactly one
//! of the wrappers below on a tile-sized operand. Two contracts make that
//! safe and deterministic, and both are tested here rather than assumed:
//!
//! * **Dims-only dispatch.** Every naive-vs-packed decision below depends
//!   only on the operand dimensions — never on values, the thread count, or
//!   any global state — so a tile task produces the same bits whether it
//!   runs serially in the canonical loop-nest order or on a stolen deque
//!   slot. (`syrk`'s dispatch looks at `n·n·k/2`, `gemm`'s at `m·n·k`;
//!   `trsm` splits its columns in halves rounded to 16 down to a 64-column
//!   leaf, and `potrf` blocks at 256 → 64 → 16 columns — all functions of
//!   the tile shape the symbolic plan fixed up front.)
//! * **No shared packing state.** The engine's packing arena
//!   ([`crate::arena`]) is thread-local, so concurrent tile tasks on
//!   different workers never alias a staging panel; a task packs, computes
//!   and unpacks entirely within its own thread's scratch.
//!
//! Leading dimensions are explicit everywhere, so the same entry points
//! serve both strided sub-views of a front (`ld = s`) and packed per-task
//! staging tiles (`ld = tile rows`) — and, because leading dimensions only
//! affect addressing (accumulation order per element is fixed by the
//! engine's `pc`/depth loops), the two produce bitwise-identical results.

use crate::gemm::gemm_nt;
use crate::potrf::{potrf, PotrfError};
use crate::syrk::syrk_lower;
use crate::trsm::trsm_right_lower_trans;
use crate::Scalar;

/// Factor an `n × n` diagonal tile in place: `A = L·Lᵀ` (lower triangle
/// referenced/written; the strictly-upper part is neither read nor
/// modified). Uses the same fixed blocking as the monolithic
/// [`potrf`](crate::potrf::potrf), so a tile factor is independent of where
/// the tile sits in its front.
pub fn tile_potrf<T: Scalar>(n: usize, a: &mut [T], lda: usize) -> Result<(), PotrfError> {
    potrf(n, a, lda)
}

/// Solve one off-diagonal tile row-block against a factored diagonal tile:
/// `B ← B · L⁻ᵀ` where `L` is the `n × n` lower-triangular diagonal tile
/// (`ldl`-strided) and `B` is `m × n` (`ldb`-strided).
pub fn tile_trsm<T: Scalar>(m: usize, n: usize, l: &[T], ldl: usize, b: &mut [T], ldb: usize) {
    trsm_right_lower_trans(m, n, l, ldl, b, ldb);
}

/// Rank-`k` symmetric update of one diagonal tile of the trailing block:
/// `C ← C − A·Aᵀ` with `A` `n × k` and only the lower triangle of the
/// `n × n` `C` read or written (the strictly-upper part may hold garbage).
pub fn tile_syrk<T: Scalar>(n: usize, k: usize, a: &[T], lda: usize, c: &mut [T], ldc: usize) {
    syrk_lower(n, k, -T::ONE, a, lda, T::ONE, c, ldc);
}

/// Rank-`k` update of one off-diagonal tile of the trailing block:
/// `C ← C − A·Bᵀ` with `A` `m × k`, `B` `n × k`, `C` `m × n` (full block
/// written).
#[allow(clippy::too_many_arguments)]
pub fn tile_gemm_nt<T: Scalar>(
    m: usize,
    n: usize,
    k: usize,
    a: &[T],
    lda: usize,
    b: &[T],
    ldb: usize,
    c: &mut [T],
    ldc: usize,
) {
    gemm_nt(m, n, k, a, lda, b, ldb, c, ldc);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vals(n: usize, seed: u64) -> Vec<f64> {
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        (0..n)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5
            })
            .collect()
    }

    /// An SPD tile: random + diagonal dominance.
    fn spd(n: usize, seed: u64) -> Vec<f64> {
        let mut a = vals(n * n, seed);
        for i in 0..n {
            a[i + i * n] += n as f64;
        }
        a
    }

    /// Pack a `rows × cols` block out of an `ld`-strided buffer.
    fn pack(src: &[f64], ld: usize, r0: usize, c0: usize, rows: usize, cols: usize) -> Vec<f64> {
        let mut out = vec![0.0; rows * cols];
        for j in 0..cols {
            out[j * rows..(j + 1) * rows]
                .copy_from_slice(&src[(c0 + j) * ld + r0..(c0 + j) * ld + r0 + rows]);
        }
        out
    }

    #[test]
    fn strided_and_packed_views_agree_bitwise() {
        // The determinism contract of the tiled front body: running a tile
        // kernel on an `ld = s` sub-view of the front and on a packed copy
        // of the same tile must produce identical bits.
        let (s, r0, c0, rows, k) = (37, 9, 3, 17, 6);
        let big = vals(s * s, 7);
        let a_tile = pack(&big, s, r0, c0, rows, k);
        let b_tile = pack(&big, s, r0 + rows, c0, 11, k);

        // syrk: strided C inside a larger buffer vs packed C.
        let mut c_str = vals(s * s, 8);
        let c_packed0 = pack(&c_str, s, r0, r0, rows, rows);
        let mut c_pk = c_packed0.clone();
        tile_syrk(rows, k, &big[c0 * s + r0..], s, &mut c_str[r0 * s + r0..], s);
        tile_syrk(rows, k, &a_tile, rows, &mut c_pk, rows);
        for j in 0..rows {
            for i in j..rows {
                assert_eq!(
                    c_str[(r0 + j) * s + r0 + i].to_bits(),
                    c_pk[j * rows + i].to_bits(),
                    "syrk ld-dependence at ({i},{j})"
                );
            }
        }

        // gemm: full tile, strided operands vs packed operands.
        let mut g_str = vals(s * s, 9);
        let g_packed0 = pack(&g_str, s, r0, c0, rows, 11);
        let mut g_pk = g_packed0.clone();
        tile_gemm_nt(
            rows,
            11,
            k,
            &big[c0 * s + r0..],
            s,
            &big[c0 * s + r0 + rows..],
            s,
            &mut g_str[c0 * s + r0..],
            s,
        );
        tile_gemm_nt(rows, 11, k, &a_tile, rows, &b_tile, 11, &mut g_pk, rows);
        for j in 0..11 {
            for i in 0..rows {
                assert_eq!(
                    g_str[(c0 + j) * s + r0 + i].to_bits(),
                    g_pk[j * rows + i].to_bits(),
                    "gemm ld-dependence at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn potrf_trsm_tiles_match_monolithic_blocks() {
        // A 2×2 tile split of a blocked Cholesky step must agree with
        // direct kernel calls on the same data (numerically — the tiled
        // schedule is a *different* but valid elimination order).
        let n = 24;
        let w = 10; // ragged split: 10 + 14
        let mut a = spd(n, 11);
        let full = {
            let mut f = a.clone();
            potrf(n, &mut f, n).unwrap();
            f
        };
        // Tile algorithm: potrf(0), trsm(1,0), syrk(1,0), potrf(1).
        tile_potrf(w, &mut a, n).unwrap();
        let l00 = pack(&a, n, 0, 0, w, w);
        tile_trsm(n - w, w, &l00, w, &mut a[w..], n);
        let l10 = pack(&a, n, w, 0, n - w, w);
        tile_syrk(n - w, w, &l10, n - w, &mut a[w * n + w..], n);
        tile_potrf(n - w, &mut a[w * n + w..], n).unwrap();
        for j in 0..n {
            for i in j..n {
                let d = (a[j * n + i] - full[j * n + i]).abs();
                assert!(d < 1e-12, "tiled vs monolithic at ({i},{j}): {d}");
            }
        }
    }

    #[test]
    fn concurrent_tile_tasks_do_not_interfere() {
        // Eight threads each run the same syrk+gemm tile pair into their own
        // output; every result must be bitwise identical to a serial run —
        // the thread-local packing arena guarantees no cross-task aliasing.
        let (n, k) = (48, 33);
        let a = vals(n * k, 21);
        let b = vals(n * k, 22);
        let c0 = vals(n * n, 23);
        let serial = {
            let mut c = c0.clone();
            tile_syrk(n, k, &a, n, &mut c, n);
            tile_gemm_nt(n, n, k, &a, n, &b, n, &mut c, n);
            c
        };
        let results: Vec<Vec<f64>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        let mut c = c0.clone();
                        tile_syrk(n, k, &a, n, &mut c, n);
                        tile_gemm_nt(n, n, k, &a, n, &b, n, &mut c, n);
                        c
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (t, r) in results.iter().enumerate() {
            assert!(
                serial.iter().zip(r).all(|(x, y)| x.to_bits() == y.to_bits()),
                "thread {t} diverged"
            );
        }
    }

    #[test]
    fn syrk_tile_ignores_garbage_upper() {
        // The tiled executor stages diagonal tiles with an unwritten
        // strictly-upper half; the masked engine path must neither read nor
        // write it.
        let (n, k) = (40, 16);
        let a = vals(n * k, 31);
        let mut c_clean = vals(n * n, 32);
        let mut c_dirty = c_clean.clone();
        for j in 0..n {
            for i in 0..j {
                c_dirty[j * n + i] = f64::NAN;
            }
        }
        tile_syrk(n, k, &a, n, &mut c_clean, n);
        tile_syrk(n, k, &a, n, &mut c_dirty, n);
        for j in 0..n {
            for i in j..n {
                assert_eq!(c_clean[j * n + i].to_bits(), c_dirty[j * n + i].to_bits());
            }
            for i in 0..j {
                assert!(c_dirty[j * n + i].is_nan(), "upper ({i},{j}) was touched");
            }
        }
    }
}
