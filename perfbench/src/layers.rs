//! The traced run's per-layer probes.
//!
//! Each layer is timed from outside, by wrapping the calls into its crate's
//! public functions: the staged analysis of mf-sparse, mf-core's numeric
//! factor / solve / refinement, the mf-dense kernels replayed on every
//! front shape, the mf-runtime parallel drivers, and the mf-gpusim
//! simulated clock. Every staged or parallel result is checked bitwise
//! against the one-call path the untraced runs measure.

use std::time::Instant;

use mf_core::{
    factor_permuted, factor_permuted_parallel, BaselineThresholds, CholeskyFactor, FactorOptions,
    ParallelOptions, PolicySelector, SpdSolver,
};
use mf_dense::{gemm, potrf, syrk_lower, trsm_right_lower_trans, Transpose};
use mf_gpusim::Machine;
use mf_sparse::symbolic::SymCscF64Holder;
use mf_sparse::{
    amalgamate, analyze, analyze_parallel, column_counts, elimination_tree, fundamental_supernodes,
    order, symbolic_factor, Analysis, SymCsc, SymbolicFactor,
};

use crate::trace::Tracer;
use crate::util::{bits_hash, same_bits, Report};
use crate::{solver_options, Inputs, MAX_REFINE, TOL};

/// Sums over the workload's matrices (seconds unless noted).
#[derive(Default)]
pub struct Totals {
    pub order: f64,
    pub permute: f64,
    pub etree: f64,
    pub colcount: f64,
    pub supernode: f64,
    pub symbolic: f64,
    pub nnz_l: usize,
    pub flops: f64,
    pub supernodes: usize,
    pub max_front: usize,
    pub numeric: f64,
    pub numeric_f64: f64,
    pub forward: f64,
    pub backward: f64,
    pub sweep16: f64,
    pub refine_iters: usize,
    pub residual: f64,
    pub potrf: f64,
    pub trsm: f64,
    pub syrk: f64,
    pub potrf_flops: f64,
    pub syrk_flops: f64,
    pub untraced_pass: f64,
    pub traced_pass: f64,
    pub analyze_serial: f64,
    pub analyze_parallel: f64,
    pub factor_parallel: f64,
    pub solve_parallel: f64,
    pub sim_p1: f64,
    pub sim_bh: f64,
}

impl Totals {
    pub fn analysis(&self) -> f64 {
        self.order + self.permute + self.etree + self.colcount + self.supernode + self.symbolic
    }
}

const PAR_WORKERS: usize = 2;
const MULTI_RHS: usize = 16;

/// Run every probe on every matrix of the workload.
pub fn probe(inputs: &Inputs, seed: u64, tr: &mut Tracer, rep: &mut Report) -> Totals {
    let mut tot = Totals::default();
    for (i, (name, a)) in inputs.mats.iter().enumerate() {
        probe_matrix(name, a, &inputs.rhs[i], seed, tr, rep, &mut tot);
    }
    tot
}

/// Relative residual with the same guarded denominator as
/// `SpdSolver::solve_refined`.
fn rel_residual(norm_a: f64, norm_b: f64, x: &[f64], r: &[f64]) -> f64 {
    let rn = r.iter().map(|v| v.abs()).fold(0.0, f64::max);
    let xn = x.iter().map(|v| v.abs()).fold(0.0, f64::max);
    let denom = norm_a * xn;
    if denom.is_normal() {
        rn / denom
    } else if norm_b.is_normal() {
        rn / norm_b
    } else {
        rn
    }
}

/// One direct solve through the f32 factor, split into its sweeps.
fn staged_solve(
    f: &CholeskyFactor<f32>,
    b: &[f64],
    name: &str,
    tr: &mut Tracer,
    fwd: &mut f64,
    bwd: &mut f64,
) -> Vec<f64> {
    let b32: Vec<f32> = b.iter().map(|&v| v as f32).collect();
    let mut x = f.perm.permute_vec(&b32);
    *fwd += tr.time("solve", "forward", name, || f.forward_in_place(&mut x)).1;
    *bwd += tr.time("solve", "backward", name, || f.backward_in_place(&mut x)).1;
    f.perm.unpermute_vec(&x).into_iter().map(f64::from).collect()
}

#[allow(clippy::too_many_arguments)]
fn probe_matrix(
    name: &str,
    a: &SymCsc<f64>,
    b: &[f64],
    seed: u64,
    tr: &mut Tracer,
    rep: &mut Report,
    tot: &mut Totals,
) {
    let opts = solver_options();
    let amalg = opts.amalgamation.as_ref();

    // The one-call pass `oneshot_3d` runs: the reference for every
    // staged result below.
    let solver = match SpdSolver::new(a, &mut Machine::paper_node(), &opts) {
        Ok(s) => s,
        Err(e) => {
            rep.check(false, || format!("{name}: factor failed: {e}"));
            return;
        }
    };
    let refined = solver.solve_refined(b, MAX_REFINE, TOL).expect("valid right-hand side");
    rep.check(refined.converged, || format!("{name}: refinement did not converge"));
    let fingerprint = solver.analysis().fingerprint();
    let direct = solver.solve(b).expect("valid right-hand side");
    let sim_p1 = solver.stats().total_time;
    drop(solver);

    // The same pass, staged through each layer's public functions.
    let pass = tr.open("oneshot", "pass", name);
    let an_span = tr.open("analysis", "analyze", name);
    let (perm, t) = tr.time("analysis", "order", name, || order(a, opts.ordering));
    tot.order += t;
    let (pa, t) = tr.time("analysis", "permute", name, || perm.permute_sym(a));
    tot.permute += t;
    let (et, t) = tr.time("analysis", "etree", name, || elimination_tree(&pa));
    tot.etree += t;
    let (cc, t) = tr.time("analysis", "colcount", name, || column_counts(&pa, &et));
    tot.colcount += t;
    let (part, t) = tr.time("analysis", "supernode", name, || {
        let fund = fundamental_supernodes(&et, &cc);
        match amalg {
            Some(o) => amalgamate(&fund, &et, &cc, o),
            None => fund,
        }
    });
    tot.supernode += t;
    let (symbolic, t) = tr.time("analysis", "symbolic", name, || symbolic_factor(&pa, &et, &part));
    tot.symbolic += t;
    tr.close(an_span);
    let analysis = Analysis { perm, permuted: SymCscF64Holder(pa), etree: et, symbolic };
    rep.check(analysis.fingerprint() == fingerprint, || {
        format!("{name}: staged analysis fingerprint differs from analyze()")
    });
    let sym = &analysis.symbolic;
    tot.nnz_l += sym.factor_nnz();
    tot.flops += sym.total_flops();
    tot.supernodes += sym.num_supernodes();
    tot.max_front = tot.max_front.max(sym.max_front());

    let fopts = FactorOptions::default();
    let (a32, _) = tr.time("factor", "cast_f32", name, || analysis.permuted.0.cast::<f32>());
    let (factored, t) = tr.time("factor", "numeric", name, || {
        factor_permuted(&a32, sym, &analysis.perm, &mut Machine::paper_node(), &fopts)
    });
    tot.numeric += t;
    let (f, stats) = match factored {
        Ok(r) => r,
        Err(e) => {
            rep.check(false, || format!("{name}: staged factor failed: {e}"));
            tr.close(pass);
            return;
        }
    };
    rep.check(stats.total_time == sim_p1, || {
        format!("{name}: simulated P1 time {} differs from SpdSolver's {sim_p1}", stats.total_time)
    });
    tot.sim_p1 += stats.total_time;

    let (mut fwd, mut bwd) = (0.0, 0.0);
    let x0 = staged_solve(&f, b, name, tr, &mut fwd, &mut bwd);
    tot.forward += fwd;
    tot.backward += bwd;
    rep.check(same_bits(&x0, &direct), || {
        format!("{name}: staged solve differs from SpdSolver::solve")
    });

    // Refinement, replaying `solve_refined`'s loop from public calls.
    let refine = tr.open("refine", "refine", name);
    let norm_a = a.norm_inf();
    let norm_b = b.iter().map(|v| v.abs()).fold(0.0, f64::max);
    let mut x = x0;
    let (mut r, t) = tr.time("refine", "residual", name, || a.residual(&x, b));
    tot.residual += t;
    let mut history = vec![rel_residual(norm_a, norm_b, &x, &r)];
    loop {
        let iters = history.len() - 1;
        let cur = history[iters];
        if cur <= TOL || iters == MAX_REFINE || (iters >= 2 && cur > history[iters - 1] * 0.9) {
            break;
        }
        let (mut f2, mut b2) = (0.0, 0.0);
        let dx = staged_solve(&f, &r, name, tr, &mut f2, &mut b2);
        for (xi, di) in x.iter_mut().zip(&dx) {
            *xi += di;
        }
        let (r2, t) = tr.time("refine", "residual", name, || a.residual(&x, b));
        tot.residual += t;
        r = r2;
        history.push(rel_residual(norm_a, norm_b, &x, &r));
    }
    tr.close(refine);
    tot.traced_pass += tr.close(pass);
    let iters = history.len() - 1;
    tot.refine_iters += iters;
    rep.check(iters == refined.iterations && same_bits(&x, &refined.x), || {
        format!(
            "{name}: staged refinement ({iters} iterations) differs from solve_refined ({})",
            refined.iterations
        )
    });

    // The untraced pass again, now as warm as the staged one, for the
    // tracing overhead.
    let t0 = Instant::now();
    let again = SpdSolver::new(a, &mut Machine::paper_node(), &opts)
        .map(|s| s.solve_refined(b, MAX_REFINE, TOL).expect("valid right-hand side"));
    tot.untraced_pass += t0.elapsed().as_secs_f64();
    rep.check(again.is_ok_and(|r| same_bits(&r.x, &refined.x)), || {
        format!("{name}: a second one-call pass differs from the first")
    });

    // Multi-RHS sweep, serial and on the parallel solve driver.
    let mut rng = crate::util::Rng::new(seed, 0x16);
    let b16: Vec<f32> = rng.vector(a.order() * MULTI_RHS).into_iter().map(|v| v as f32).collect();
    let (xs, t) = tr.time("solve", "sweep16", name, || f.solve_many(&b16, MULTI_RHS));
    tot.sweep16 += t;
    let (xp, t) = tr.time("runtime", "solve_parallel16", name, || {
        f.solve_many_parallel(&b16, MULTI_RHS, PAR_WORKERS)
    });
    tot.solve_parallel += t;
    rep.check(bits_hash(&xs) == bits_hash(&xp), || {
        format!("{name}: parallel solve differs bitwise from the serial solve")
    });

    // Parallel analysis and tree-parallel factor against serial.
    let (serial, t) =
        tr.time("runtime", "analyze_serial", name, || analyze(a, opts.ordering, amalg));
    tot.analyze_serial += t;
    let (par, t) = tr.time("runtime", "analyze_parallel", name, || {
        analyze_parallel(a, opts.ordering, amalg, PAR_WORKERS)
    });
    tot.analyze_parallel += t;
    let same = matches!((&serial, &par), (Ok(s), Ok(p)) if s.fingerprint() == fingerprint && p.fingerprint() == fingerprint);
    rep.check(same, || format!("{name}: analyze_parallel fingerprint differs from analyze()"));
    drop((serial, par));
    let mut machines: Vec<Machine> = (0..PAR_WORKERS).map(|_| Machine::paper_node()).collect();
    let (pf, t) = tr.time("runtime", "factor_parallel", name, || {
        factor_permuted_parallel(
            &a32,
            sym,
            &analysis.perm,
            &mut machines,
            &fopts,
            &ParallelOptions::default(),
        )
    });
    tot.factor_parallel += t;
    rep.check(pf.is_ok_and(|(pf, _)| bits_hash(&pf.slab) == bits_hash(&f.slab)), || {
        format!("{name}: tree-parallel factor differs bitwise from the serial factor")
    });

    // The mf-dense kernels on every front shape of this factor.
    replay_kernels(sym, name, tr, tot);
    drop(f);

    // The same fronts at f64.
    let (f64_factor, t) = tr.time("factor", "numeric_f64", name, || {
        factor_permuted(
            &analysis.permuted.0,
            sym,
            &analysis.perm,
            &mut Machine::paper_node(),
            &fopts,
        )
    });
    rep.check(f64_factor.is_ok(), || format!("{name}: f64 factor failed"));
    tot.numeric_f64 += t;
    drop(f64_factor);

    // Simulated baseline hybrid on the paper's node, twice: it must repeat.
    let bh = FactorOptions {
        selector: PolicySelector::Baseline(BaselineThresholds::default()),
        ..Default::default()
    };
    let mut sims = Vec::new();
    for _ in 0..2 {
        let (r, _) = tr.time("gpusim", "factor_bh", name, || {
            factor_permuted(&a32, sym, &analysis.perm, &mut Machine::paper_node(), &bh)
        });
        match r {
            Ok((_, s)) => sims.push(s.total_time),
            Err(e) => rep.check(false, || format!("{name}: baseline-hybrid factor failed: {e}")),
        }
    }
    rep.check(sims.len() == 2 && sims[0] == sims[1], || {
        format!("{name}: simulated baseline-hybrid time does not repeat: {sims:?}")
    });
    tot.sim_bh += sims.first().copied().unwrap_or(0.0);
}

/// Replay potrf / trsm / syrk on every front's `(m, k)` shape, in
/// postorder, with the same calls and leading dimensions the serial P1
/// front uses, on a diagonally dominant front.
fn replay_kernels(sym: &SymbolicFactor, name: &str, tr: &mut Tracer, tot: &mut Totals) {
    let span = tr.open("dense", "replay", name);
    let smax = sym.max_front();
    let mut front = vec![0f32; smax * smax];
    let mut l1 = vec![0f32; smax * smax];
    for &sn in &sym.postorder {
        let info = &sym.supernodes[sn];
        let (s, k) = (info.front_size(), info.k());
        let m = s - k;
        let data = &mut front[..s * s];
        data.fill(0.5 / s as f32);
        for j in 0..s {
            data[j + j * s] = 1.0;
        }
        let t = Instant::now();
        potrf(k, data, s).expect("diagonally dominant front");
        tot.potrf += t.elapsed().as_secs_f64();
        tot.potrf_flops += (k * k * k) as f64 / 3.0;
        if m == 0 {
            continue;
        }
        for j in 0..k {
            for i in j..k {
                l1[i + j * k] = data[i + j * s];
            }
        }
        let t = Instant::now();
        trsm_right_lower_trans(m, k, &l1[..k * k], k, &mut data[k..], s);
        tot.trsm += t.elapsed().as_secs_f64();
        let (panel, trailing) = data.split_at_mut(k * s);
        let t = Instant::now();
        syrk_lower(m, k, -1.0f32, &panel[k..], s, 1.0, &mut trailing[k..], s);
        tot.syrk += t.elapsed().as_secs_f64();
        tot.syrk_flops += (m * m * k) as f64;
    }
    tr.close(span);
}

/// GF/s of one large square f32 gemm (median of three), the rate
/// reference for the kernel figures.
pub fn gemm_peak_gflops(tr: &mut Tracer) -> f64 {
    const N: usize = 1536;
    let a: Vec<f32> = (0..N * N).map(|i| ((i % 97) as f32 - 48.0) / 97.0).collect();
    let b: Vec<f32> = (0..N * N).map(|i| ((i % 89) as f32 - 44.0) / 89.0).collect();
    let mut c = vec![0f32; N * N];
    let mut rates: Vec<f64> = (0..3)
        .map(|_| {
            let t = tr
                .time("dense", "gemm_peak", "square", || {
                    gemm(Transpose::No, Transpose::No, N, N, N, 1.0, &a, N, &b, N, 0.0, &mut c, N);
                    std::hint::black_box(&c);
                })
                .1;
            2.0 * (N * N * N) as f64 / t / 1e9
        })
        .collect();
    rates.sort_by(f64::total_cmp);
    rates[1]
}
