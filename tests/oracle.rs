//! Independent-oracle checks: every factorization driver against a dense
//! LAPACK-style Cholesky of the same permuted matrix.
//!
//! The determinism suites compare our drivers with one another, so a bug
//! shared by all of them (assembly, extend-add, extraction) would pass them
//! all. Here `P·A·Pᵀ` (order ≤ ~350) is densified and factored with the
//! dense engine's f64 `potrf`, which shares no code with the multifrontal
//! path, and every driver configuration must agree with it:
//!
//! 1. backward error: `‖P·A·Pᵀ − L·Lᵀ‖_F / ‖A‖_F ≤ C_BACKWARD · n · u`;
//! 2. entrywise agreement with the dense factor `L̂`:
//!    `max |L − L̂| ≤ C_FORWARD · n · u · max |L̂|`.
//!
//! `u` is the unit roundoff of the precision the executed policy computes
//! in: f64 for P1 (CPU) runs, f32 for the GPU policies P2–P4 (the device
//! computes in f32 even when the host front is f64). Every test name starts
//! with `oracle_`; CI runs them by name and counts them.

use gpu_multifrontal::core::{
    factor_permuted, factor_permuted_parallel, in_core_bytes, min_feasible_budget, CholeskyFactor,
    FactorStats, ParallelOptions,
};
use gpu_multifrontal::dense::potrf;
use gpu_multifrontal::matgen::{elasticity_3d, laplacian_2d, laplacian_3d, Stencil};
use gpu_multifrontal::prelude::*;
use gpu_multifrontal::sparse::symbolic::Analysis;
use gpu_multifrontal::sparse::AmalgamationOptions;

/// Backward-error constant of check 1. The observed `backward / (n·u)`
/// stays at or below 0.013 on these matrices in both precisions, so 0.5
/// leaves a wide margin while any wrong entry (an O(1) error) still fails.
const C_BACKWARD: f64 = 0.5;

/// Forward-error constant of check 2. The forward error of a Cholesky
/// factor scales with the condition number; on these well-conditioned test
/// matrices the observed `max |L − L̂| / (n·u·max |L̂|)` stays at or below
/// 0.061.
const C_FORWARD: f64 = 1.0;

const U_F64: f64 = f64::EPSILON / 2.0;
const U_F32: f64 = f32::EPSILON as f64 / 2.0;

/// The test matrices: one of each generator family, all of order ≤ ~350.
fn matrices() -> Vec<(&'static str, SymCsc<f64>)> {
    vec![
        ("laplace2d-18x17", laplacian_2d(18, 17, Stencil::Faces)),
        ("laplace3d-7x7x6", laplacian_3d(7, 7, 6, Stencil::Faces)),
        ("elasticity-4x4x4", elasticity_3d(4, 4, 4)),
    ]
}

/// Column-major dense copy of a symmetric CSC matrix (both triangles).
fn densify(a: &SymCsc<f64>) -> Vec<f64> {
    let n = a.order();
    let mut d = vec![0.0; n * n];
    for j in 0..n {
        for (&i, &v) in a.col_rows(j).iter().zip(a.col_vals(j)) {
            d[i + j * n] = v;
            d[j + i * n] = v;
        }
    }
    d
}

/// The reference: `P·A·Pᵀ` densified plus its dense f64 Cholesky factor
/// (lower triangle; the strictly-upper part is zeroed).
struct Oracle {
    name: &'static str,
    analysis: Analysis,
    pa: Vec<f64>,
    l: Vec<f64>,
    a_norm: f64,
}

impl Oracle {
    fn new(name: &'static str, a: &SymCsc<f64>) -> Self {
        let analysis =
            analyze(a, OrderingKind::NestedDissection, Some(&AmalgamationOptions::default()))
                .unwrap();
        let n = a.order();
        let pa = densify(&analysis.permuted.0);
        let mut l = pa.clone();
        potrf(n, &mut l, n).expect("test matrices are SPD");
        for j in 0..n {
            for i in 0..j {
                l[i + j * n] = 0.0;
            }
        }
        let a_norm = densify(a).iter().map(|x| x * x).sum::<f64>().sqrt();
        Oracle { name, analysis, pa, l, a_norm }
    }

    fn n(&self) -> usize {
        self.analysis.symbolic.n
    }

    /// Run both checks on a factor computed in unit roundoff `u`.
    fn check(&self, what: &str, f: &CholeskyFactor<f64>, u: f64) {
        let n = self.n();
        let mut l = vec![0.0; n * n];
        for j in 0..n {
            for i in j..n {
                l[i + j * n] = f.l_entry(i, j);
            }
        }
        // Check 1: ‖P·A·Pᵀ − L·Lᵀ‖_F over both triangles (the residual is
        // symmetric, so the strict lower part counts twice).
        let mut res2 = 0.0f64;
        for j in 0..n {
            for i in j..n {
                let dot: f64 = (0..=j).map(|p| l[i + p * n] * l[j + p * n]).sum();
                let r = self.pa[i + j * n] - dot;
                res2 += if i == j { r * r } else { 2.0 * r * r };
            }
        }
        let backward = res2.sqrt() / self.a_norm;
        let bound = C_BACKWARD * n as f64 * u;
        assert!(
            backward <= bound,
            "{}/{what}: backward error {backward:.3e} exceeds {bound:.3e}",
            self.name
        );
        // Check 2: every entry of L against the dense factor.
        let l_max = self.l.iter().fold(0.0f64, |m, x| m.max(x.abs()));
        let diff = l.iter().zip(&self.l).fold(0.0f64, |m, (x, y)| m.max((x - y).abs()));
        let bound = C_FORWARD * n as f64 * u * l_max;
        assert!(
            diff <= bound,
            "{}/{what}: max |L - L_dense| = {diff:.3e} exceeds {bound:.3e}",
            self.name
        );
    }

    fn serial(&self, opts: &FactorOptions) -> (CholeskyFactor<f64>, FactorStats) {
        let an = &self.analysis;
        factor_permuted(&an.permuted.0, &an.symbolic, &an.perm, &mut Machine::paper_node(), opts)
            .unwrap()
    }

    fn parallel(&self, opts: &FactorOptions, workers: usize) -> CholeskyFactor<f64> {
        let an = &self.analysis;
        let mut machines: Vec<Machine> = (0..workers).map(|_| Machine::paper_node()).collect();
        let par = ParallelOptions { thread_budget: 2 };
        factor_permuted_parallel(&an.permuted.0, &an.symbolic, &an.perm, &mut machines, opts, &par)
            .unwrap()
            .0
    }
}

fn p1() -> FactorOptions {
    FactorOptions { selector: PolicySelector::Fixed(PolicyKind::P1), ..Default::default() }
}

#[test]
fn oracle_serial_drain_matches_dense_cholesky() {
    for (name, a) in matrices() {
        let o = Oracle::new(name, &a);
        o.check("serial P1", &o.serial(&p1()).0, U_F64);
        for policy in [PolicyKind::P2, PolicyKind::P3, PolicyKind::P4] {
            let opts = FactorOptions { selector: PolicySelector::Fixed(policy), ..p1() };
            o.check(&format!("serial {policy}"), &o.serial(&opts).0, U_F32);
        }
    }
}

#[test]
fn oracle_tree_parallel_matches_dense_cholesky() {
    for (name, a) in matrices() {
        let o = Oracle::new(name, &a);
        o.check("2 workers P1", &o.parallel(&p1(), 2), U_F64);
    }
}

#[test]
fn oracle_tiled_matches_dense_cholesky() {
    // Small tiles and threshold so the larger fronts really expand.
    let tiling = TilingOptions { enabled: true, tile: 8, min_front: 24 };
    for (name, a) in matrices() {
        let o = Oracle::new(name, &a);
        let opts = FactorOptions { tiling, ..p1() };
        o.check("tiled serial", &o.serial(&opts).0, U_F64);
        o.check("tiled 2 workers", &o.parallel(&opts, 2), U_F64);
    }
}

#[test]
fn oracle_event_chained_matches_dense_cholesky() {
    for (name, a) in matrices() {
        let o = Oracle::new(name, &a);
        for devices in [1usize, 2, 4] {
            let opts = FactorOptions {
                selector: PolicySelector::Fixed(PolicyKind::P4),
                pipeline: true,
                devices,
                ..Default::default()
            };
            o.check(&format!("{devices} devices × 1 worker"), &o.serial(&opts).0, U_F32);
            let f = o.parallel(&opts, 2);
            o.check(&format!("{devices} devices × 2 workers"), &f, U_F32);
        }
    }
}

#[test]
fn oracle_budgeted_matches_dense_cholesky() {
    for (name, a) in matrices() {
        let o = Oracle::new(name, &a);
        let symbolic = &o.analysis.symbolic;
        let budget = ((in_core_bytes(symbolic, 8) as f64 * 0.6) as usize)
            .max(min_feasible_budget(symbolic, 8));
        let opts = FactorOptions { memory_budget: Some(budget), ..p1() };
        let (f, stats) = o.serial(&opts);
        assert!(stats.ooc.is_some(), "{name}: the budget must engage the out-of-core path");
        o.check("budgeted 60%", &f, U_F64);
    }
}
