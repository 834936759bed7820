//! The pre-engine kernels: straightforward axpy/dot loop nests.
//!
//! These are kept for two jobs. Small problems dispatch here from the
//! public entry points, where packing overhead would outweigh the
//! register-tiled engine (the cutoff is [`crate::kernel::PACK_MIN_MADDS`]
//! multiply-adds). And the benches measure them side by side with the
//! packed engine, so speedup ratios come from one build and one run
//! (`BENCH_dense.json`), not from comparing binaries.

use crate::gemm::{axpy, scale_cols};
use crate::potrf::{potrf_unblocked_offset, PotrfError};
use crate::{Scalar, Transpose};

/// Accumulate `C += α·op(A)·op(B)` with the seed loop nests (`β` already
/// applied by the caller).
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_accum<T: Scalar>(
    transa: Transpose,
    transb: Transpose,
    m: usize,
    n: usize,
    kk: usize,
    alpha: T,
    a: &[T],
    lda: usize,
    b: &[T],
    ldb: usize,
    c: &mut [T],
    ldc: usize,
) {
    match (transa, transb) {
        (Transpose::No, Transpose::No) => {
            // j-l-i loop: inner axpy over contiguous columns of A and C.
            for j in 0..n {
                let cj = &mut c[j * ldc..j * ldc + m];
                for l in 0..kk {
                    let blj = alpha * b[l + j * ldb];
                    if blj == T::ZERO {
                        continue;
                    }
                    let al = &a[l * lda..l * lda + m];
                    axpy(blj, al, cj);
                }
            }
        }
        (Transpose::No, Transpose::Yes) => {
            // C += alpha * A * B^T, B stored n × kk.
            for j in 0..n {
                let cj = &mut c[j * ldc..j * ldc + m];
                for l in 0..kk {
                    let blj = alpha * b[j + l * ldb];
                    if blj == T::ZERO {
                        continue;
                    }
                    let al = &a[l * lda..l * lda + m];
                    axpy(blj, al, cj);
                }
            }
        }
        (Transpose::Yes, Transpose::No) => {
            // C += alpha * A^T * B, A stored kk × m: dot products down columns.
            for j in 0..n {
                let bj = &b[j * ldb..j * ldb + kk];
                for i in 0..m {
                    let ai = &a[i * lda..i * lda + kk];
                    let dot: T = ai.iter().zip(bj).map(|(&x, &y)| x * y).sum();
                    c[i + j * ldc] += alpha * dot;
                }
            }
        }
        (Transpose::Yes, Transpose::Yes) => {
            // C += alpha * A^T * B^T — rare; simple loop nest.
            for j in 0..n {
                for i in 0..m {
                    let mut acc = T::ZERO;
                    for l in 0..kk {
                        acc += a[l + i * lda] * b[j + l * ldb];
                    }
                    c[i + j * ldc] += alpha * acc;
                }
            }
        }
    }
}

/// Seed `gemm`: `C ← α·op(A)·op(B) + β·C` without packing (benchmark
/// baseline).
#[allow(clippy::too_many_arguments)]
pub fn gemm<T: Scalar>(
    transa: Transpose,
    transb: Transpose,
    m: usize,
    n: usize,
    kk: usize,
    alpha: T,
    a: &[T],
    lda: usize,
    b: &[T],
    ldb: usize,
    beta: T,
    c: &mut [T],
    ldc: usize,
) {
    if m == 0 || n == 0 {
        return;
    }
    scale_cols(m, n, beta, c, ldc);
    if kk == 0 || alpha == T::ZERO {
        return;
    }
    gemm_accum(transa, transb, m, n, kk, alpha, a, lda, b, ldb, c, ldc);
}

/// Accumulate the lower triangle of `C += α·A·Aᵀ` with the seed loops (`β`
/// already applied).
pub(crate) fn syrk_accum<T: Scalar>(
    n: usize,
    k: usize,
    alpha: T,
    a: &[T],
    lda: usize,
    c: &mut [T],
    ldc: usize,
) {
    // Block over the contraction dimension so the active columns of A stay
    // in cache; the inner loop is a contiguous axpy over rows j..n.
    const KC: usize = 128;
    for l0 in (0..k).step_by(KC) {
        let l1 = (l0 + KC).min(k);
        for j in 0..n {
            let (_, tail) = c.split_at_mut(j * ldc + j);
            let cj = &mut tail[..n - j];
            for l in l0..l1 {
                let ajl = alpha * a[j + l * lda];
                if ajl == T::ZERO {
                    continue;
                }
                let al = &a[j + l * lda..l * lda + n];
                for (cv, &av) in cj.iter_mut().zip(al) {
                    *cv += ajl * av;
                }
            }
        }
    }
}

/// Seed `syrk`: lower triangle of `C ← α·A·Aᵀ + β·C` (benchmark baseline).
pub fn syrk_lower<T: Scalar>(
    n: usize,
    k: usize,
    alpha: T,
    a: &[T],
    lda: usize,
    beta: T,
    c: &mut [T],
    ldc: usize,
) {
    if n == 0 {
        return;
    }
    crate::syrk::scale_lower(n, beta, c, ldc);
    if k == 0 || alpha == T::ZERO {
        return;
    }
    syrk_accum(n, k, alpha, a, lda, c, ldc);
}

/// Seed right-side solve `X·Lᵀ = B` (benchmark baseline; also the
/// diagonal-block solver of the blocked `trsm`).
pub fn trsm_right_lower_trans<T: Scalar>(
    m: usize,
    n: usize,
    a: &[T],
    lda: usize,
    b: &mut [T],
    ldb: usize,
) {
    if m == 0 || n == 0 {
        return;
    }
    // Column j of X depends on columns 0..j:
    //   X[:,j] = (B[:,j] − Σ_{l<j} X[:,l]·L[j,l]) / L[j,j]
    for j in 0..n {
        let (done, rest) = b.split_at_mut(j * ldb);
        let bj = &mut rest[..m];
        for l in 0..j {
            let ljl = a[j + l * lda];
            if ljl == T::ZERO {
                continue;
            }
            let xl = &done[l * ldb..l * ldb + m];
            for (bv, &xv) in bj.iter_mut().zip(xl) {
                *bv -= ljl * xv;
            }
        }
        let inv = T::ONE / a[j + j * lda];
        for bv in bj.iter_mut() {
            *bv *= inv;
        }
    }
}

/// Block size of the seed Cholesky.
const NAIVE_POTRF_BLOCK: usize = 64;

/// Seed blocked Cholesky over the seed `trsm`/`syrk` (benchmark baseline).
pub fn potrf<T: Scalar>(n: usize, a: &mut [T], lda: usize) -> Result<(), PotrfError> {
    if n == 0 {
        return Ok(());
    }
    let nb = NAIVE_POTRF_BLOCK;
    let mut diag_scratch = vec![T::ZERO; nb.min(n) * nb.min(n)];
    let mut j = 0;
    while j < n {
        let jb = nb.min(n - j);
        let rest = n - j - jb;
        {
            let diag = &mut a[j * lda + j..];
            potrf_unblocked_offset(jb, diag, lda, j)?;
        }
        if rest > 0 {
            for c in 0..jb {
                for r in c..jb {
                    diag_scratch[r + c * jb] = a[(j + r) + (j + c) * lda];
                }
            }
            let below = &mut a[j * lda + j + jb..];
            trsm_right_lower_trans(rest, jb, &diag_scratch, jb, below, lda);
            let (panel_cols, trailing) = a.split_at_mut((j + jb) * lda);
            let panel = &panel_cols[j * lda + j + jb..];
            let c = &mut trailing[j + jb..];
            syrk_lower(rest, jb, -T::ONE, panel, lda, T::ONE, c, lda);
        }
        j += jb;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::random_spd;

    #[test]
    fn naive_potrf_reconstructs() {
        let n = 90;
        let a0 = random_spd::<f64>(n, 5);
        let mut a = a0.clone();
        potrf(n, a.as_mut_slice(), n).unwrap();
        a.zero_upper();
        let mut sym = a0.clone();
        sym.symmetrize_from_lower();
        let recon = a.matmul(&a.transpose());
        assert!(recon.max_abs_diff(&sym) < 1e-8 * n as f64);
    }
}
