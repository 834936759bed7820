//! Property tests for the packed kernel engine: every public kernel must
//! match its `reference.rs` counterpart for arbitrary shapes (odd sizes,
//! partial tiles), both transpose settings, padded leading dimensions
//! (`lda > m`), the degenerate `alpha`/`beta` values the dispatch layer
//! special-cases, and both scalar types. Padding bytes are filled with NaN
//! so that any out-of-bounds read poisons the result and fails the test.
//!
//! A separate deterministic test pins down the multithreading contract:
//! results are bitwise identical for every thread count.

use mf_dense::matrix::{random_spd, DenseMat};
use mf_dense::{
    gemm, gemm_ref, potrf, potrf_ref, set_num_threads, syrk_lower, syrk_ref, trsm_ref,
    trsm_right_lower_trans, Scalar, Transpose,
};
use proptest::prelude::*;

fn xorshift(seed: u64) -> impl FnMut() -> f64 {
    let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    }
}

/// Copy a dense matrix into a column-major buffer with `ld = rows + pad`,
/// filling the padding rows with NaN.
fn embed<T: Scalar>(m: &DenseMat<T>, pad: usize) -> (Vec<T>, usize) {
    let ld = m.rows().max(1) + pad;
    let mut buf = vec![T::from_f64(f64::NAN); ld * m.cols().max(1)];
    for j in 0..m.cols() {
        for i in 0..m.rows() {
            buf[i + j * ld] = m[(i, j)];
        }
    }
    (buf, ld)
}

/// An `n × n` column-major matrix whose lower triangle is strictly
/// diagonally dominant (diagonal `n`, off-diagonal entries in ±0.5): SPD
/// read as a symmetric lower triangle, and a well-conditioned triangular
/// factor. Built in O(n²), unlike `random_spd`'s product.
fn dominant_lower<T: Scalar>(n: usize, seed: u64) -> Vec<T> {
    let mut rnd = xorshift(seed);
    let mut a = vec![T::ZERO; n * n];
    for j in 0..n {
        a[j + j * n] = T::from_f64(n as f64);
        for i in j + 1..n {
            a[i + j * n] = T::from_f64(rnd());
        }
    }
    a
}

fn coeff() -> impl Strategy<Value = f64> {
    prop_oneof![Just(0.0), Just(1.0), Just(-1.0), Just(0.75)]
}

#[allow(clippy::too_many_arguments)]
fn gemm_case<T: Scalar>(
    m: usize,
    n: usize,
    kk: usize,
    ta: Transpose,
    tb: Transpose,
    pads: (usize, usize, usize),
    alpha: f64,
    beta: f64,
    seed: u64,
    tol: f64,
) -> Result<(), proptest::TestCaseError> {
    let mut rnd = xorshift(seed);
    let (ar, ac) = if ta == Transpose::No { (m, kk) } else { (kk, m) };
    let (br, bc) = if tb == Transpose::No { (kk, n) } else { (n, kk) };
    let a = DenseMat::<T>::from_fn(ar.max(1), ac.max(1), |_, _| T::from_f64(rnd()));
    let b = DenseMat::<T>::from_fn(br.max(1), bc.max(1), |_, _| T::from_f64(rnd()));
    let c0 = DenseMat::<T>::from_fn(m, n, |_, _| T::from_f64(rnd()));
    let (abuf, lda) = embed(&a, pads.0);
    let (bbuf, ldb) = embed(&b, pads.1);
    let (mut cbuf, ldc) = embed(&c0, pads.2);
    gemm(
        ta,
        tb,
        m,
        n,
        kk,
        T::from_f64(alpha),
        &abuf,
        lda,
        &bbuf,
        ldb,
        T::from_f64(beta),
        &mut cbuf,
        ldc,
    );
    let mut cref = c0.clone();
    gemm_ref(ta, tb, m, n, kk, T::from_f64(alpha), &a, &b, T::from_f64(beta), &mut cref);
    for j in 0..n {
        for i in 0..m {
            let got = cbuf[i + j * ldc].to_f64();
            let want = cref[(i, j)].to_f64();
            prop_assert!(
                (got - want).abs() < tol,
                "({i},{j}) m={m} n={n} k={kk} ta={ta:?} tb={tb:?} a={alpha} b={beta}: {got} vs {want}"
            );
        }
    }
    Ok(())
}

fn syrk_case<T: Scalar>(
    n: usize,
    k: usize,
    pad: usize,
    alpha: f64,
    beta: f64,
    seed: u64,
    tol: f64,
) -> Result<(), proptest::TestCaseError> {
    let mut rnd = xorshift(seed ^ 0xABCD);
    let a = DenseMat::<T>::from_fn(n, k.max(1), |_, _| T::from_f64(rnd()));
    let c0 = DenseMat::<T>::from_fn(n, n, |_, _| T::from_f64(rnd()));
    let (abuf, lda) = embed(&a, pad);
    let (mut cbuf, ldc) = embed(&c0, pad);
    syrk_lower(n, k, T::from_f64(alpha), &abuf, lda, T::from_f64(beta), &mut cbuf, ldc);
    let mut cref = c0.clone();
    syrk_ref(n, k, T::from_f64(alpha), &a, T::from_f64(beta), &mut cref);
    for j in 0..n {
        for i in 0..n {
            let got = cbuf[i + j * ldc].to_f64();
            if i >= j {
                let want = cref[(i, j)].to_f64();
                prop_assert!(
                    (got - want).abs() < tol,
                    "({i},{j}) n={n} k={k} a={alpha} b={beta}: {got} vs {want}"
                );
            } else {
                // Strict upper triangle must be untouched, bit for bit.
                prop_assert!(
                    got.to_bits() == c0[(i, j)].to_f64().to_bits(),
                    "upper ({i},{j}) modified"
                );
            }
        }
    }
    Ok(())
}

fn trsm_case<T: Scalar>(
    m: usize,
    n: usize,
    pad: usize,
    seed: u64,
    tol: f64,
) -> Result<(), proptest::TestCaseError> {
    let mut rnd = xorshift(seed ^ 0x5A5A);
    // Well-conditioned lower-triangular factor: dominant diagonal, small
    // off-diagonal entries.
    let l = DenseMat::<T>::from_fn(n, n, |i, j| {
        if i == j {
            T::from_f64(2.0 + rnd().abs())
        } else if i > j {
            T::from_f64(0.3 * rnd())
        } else {
            T::ZERO
        }
    });
    let b0 = DenseMat::<T>::from_fn(m, n, |_, _| T::from_f64(rnd()));
    let (lbuf, ldl) = embed(&l, pad);
    let (mut bbuf, ldb) = embed(&b0, pad);
    trsm_right_lower_trans(m, n, &lbuf, ldl, &mut bbuf, ldb);
    let mut bref = b0.clone();
    trsm_ref(&l, &mut bref);
    for j in 0..n {
        for i in 0..m {
            let got = bbuf[i + j * ldb].to_f64();
            let want = bref[(i, j)].to_f64();
            prop_assert!((got - want).abs() < tol, "({i},{j}) m={m} n={n}: {got} vs {want}");
        }
    }
    Ok(())
}

fn potrf_case<T: Scalar>(
    n: usize,
    pad: usize,
    seed: u64,
    tol: f64,
) -> Result<(), proptest::TestCaseError> {
    let a0 = random_spd::<T>(n, seed);
    let (mut abuf, lda) = embed(&a0, pad);
    potrf(n, &mut abuf, lda).expect("random_spd must factor");
    let mut aref = a0.clone();
    potrf_ref(&mut aref).expect("random_spd must factor (reference)");
    for j in 0..n {
        for i in j..n {
            let got = abuf[i + j * lda].to_f64();
            let want = aref[(i, j)].to_f64();
            prop_assert!((got - want).abs() < tol * n as f64, "({i},{j}) n={n}: {got} vs {want}");
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Packed gemm matches the reference for every transpose combination,
    /// padded strides and special-cased coefficients, in both precisions.
    #[test]
    fn packed_gemm_matches_reference(
        m in 1usize..96,
        n in 1usize..96,
        kk in 0usize..96,
        ta in any::<bool>(),
        tb in any::<bool>(),
        pa in 0usize..4,
        pb in 0usize..4,
        pc in 0usize..4,
        alpha in coeff(),
        beta in coeff(),
        seed in 0u64..1_000_000,
    ) {
        let (ta, tb) = (
            if ta { Transpose::Yes } else { Transpose::No },
            if tb { Transpose::Yes } else { Transpose::No },
        );
        gemm_case::<f64>(m, n, kk, ta, tb, (pa, pb, pc), alpha, beta, seed, 1e-10)?;
        gemm_case::<f32>(m, n, kk, ta, tb, (pa, pb, pc), alpha, beta, seed, 1e-3)?;
    }

    /// Packed syrk matches the reference on the lower triangle and leaves
    /// the strict upper triangle bitwise untouched.
    #[test]
    fn packed_syrk_matches_reference(
        n in 1usize..96,
        k in 0usize..96,
        pad in 0usize..4,
        alpha in coeff(),
        beta in coeff(),
        seed in 0u64..1_000_000,
    ) {
        syrk_case::<f64>(n, k, pad, alpha, beta, seed, 1e-10)?;
        syrk_case::<f32>(n, k, pad, alpha, beta, seed, 1e-3)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Recursive trsm matches the reference solve across the blocked-leaf
    /// (n ≤ 64) and recursive-split boundaries.
    #[test]
    fn packed_trsm_matches_reference(
        m in 1usize..320,
        n in 1usize..600,
        pad in 0usize..4,
        seed in 0u64..1_000_000,
    ) {
        trsm_case::<f64>(m, n, pad, seed, 1e-8)?;
        trsm_case::<f32>(m, n, pad, seed, 1e-2)?;
    }

    /// Blocked potrf (256-column panels over a recursive 64/16 diagonal
    /// step) matches the reference factorization across its block
    /// boundaries.
    #[test]
    fn packed_potrf_matches_reference(
        n in 1usize..600,
        pad in 0usize..4,
        seed in 0u64..1_000_000,
    ) {
        potrf_case::<f64>(n, pad, seed, 1e-9)?;
        potrf_case::<f32>(n, pad, seed, 1e-3)?;
    }
}

/// A non-positive pivot in the third 256-column block is reported at its
/// global column, in both precisions.
#[test]
fn potrf_reports_global_column_past_the_first_blocks() {
    fn case<T: Scalar>() {
        let (n, bad) = (700usize, 601usize);
        let mut a = dominant_lower::<T>(n, 5);
        a[bad + bad * n] = T::from_f64(-1.0);
        let err = potrf(n, &mut a, n).unwrap_err();
        assert_eq!(err.column, bad, "{}", std::any::type_name::<T>());
    }
    case::<f64>();
    case::<f32>();
}

/// The threading contract: a fixed build produces bitwise-identical results
/// for every thread count (workers own disjoint column slabs; per-element
/// summation order never depends on the partition).
#[test]
fn thread_count_bitwise_determinism() {
    // Large enough to clear the engine's parallel threshold.
    let (m, n, kk) = (192usize, 320usize, 96usize);
    let mut rnd = xorshift(99);
    let a: Vec<f64> = (0..m * kk).map(|_| rnd()).collect();
    let b: Vec<f64> = (0..kk * n).map(|_| rnd()).collect();
    let c0: Vec<f64> = (0..m * n).map(|_| rnd()).collect();
    let sy: Vec<f64> = (0..n * n).map(|_| rnd()).collect();

    // Front-scale panel solve and pivot factor: both cross the recursive
    // trsm split and the 256-column potrf blocks.
    let (tm, tn) = (1024usize, 700usize);
    let l = dominant_lower::<f64>(tn, 3);
    let tb: Vec<f64> = (0..tm * tn).map(|_| rnd()).collect();
    let pn = 900usize;
    let spd = dominant_lower::<f64>(pn, 4);

    let run = |threads: usize| {
        set_num_threads(threads);
        let mut c = c0.clone();
        gemm(Transpose::No, Transpose::No, m, n, kk, 1.0, &a, m, &b, kk, 0.25, &mut c, m);
        let mut s = sy.clone();
        // Reinterpret `b`'s storage as an n × kk operand (lda = n).
        syrk_lower(n, kk, -1.0, &b, n, 1.0, &mut s, n);
        let mut x = tb.clone();
        trsm_right_lower_trans(tm, tn, &l, tn, &mut x, tm);
        let mut f = spd.clone();
        potrf(pn, &mut f, pn).unwrap();
        set_num_threads(0);
        (c, s, x, f)
    };
    let bits_eq = |p: &[f64], q: &[f64]| p.iter().zip(q).all(|(x, y)| x.to_bits() == y.to_bits());
    let (c1, s1, x1, f1) = run(1);
    for t in [2, 3, 5, 8] {
        let (ct, st, xt, ft) = run(t);
        assert!(bits_eq(&c1, &ct), "gemm t={t}");
        assert!(bits_eq(&s1, &st), "syrk t={t}");
        assert!(bits_eq(&x1, &xt), "trsm t={t}");
        assert!(bits_eq(&f1, &ft), "potrf t={t}");
    }
}
