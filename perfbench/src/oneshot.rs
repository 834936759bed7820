//! The one-shot workload: every pass analyzes, factors and solves every
//! matrix of the workload from scratch through `SpdSolver`.

use std::time::Instant;

use mf_core::SpdSolver;
use mf_gpusim::Machine;

use crate::util::{bits_hash, median, tail, Report};
use crate::{solver_options, Inputs, MAX_REFINE, TOL};

/// What one matrix produced in one pass; every pass must agree on it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Outcome {
    fingerprint: u64,
    iterations: usize,
    x_hash: u64,
}

/// Run passes until `seconds` have elapsed and report the end-to-end
/// metrics of the one-shot workload.
pub fn run(inputs: &Inputs, seconds: f64, rep: &mut Report) {
    let opts = solver_options();
    let mut pass_s = Vec::new();
    let mut factor_ms = Vec::new();
    let mut solve_ms = Vec::new();
    let mut solved = 0usize;
    let mut first: Vec<Option<Outcome>> = vec![None; inputs.mats.len()];
    let t0 = Instant::now();
    while pass_s.is_empty() || t0.elapsed().as_secs_f64() < seconds {
        let p0 = Instant::now();
        let (mut factor_s, mut solve_s) = (0.0, 0.0);
        for (i, (name, a)) in inputs.mats.iter().enumerate() {
            let m0 = Instant::now();
            let solver = match SpdSolver::new(a, &mut Machine::paper_node(), &opts) {
                Ok(s) => s,
                Err(e) => {
                    rep.check(false, || format!("{name}: factor failed: {e}"));
                    continue;
                }
            };
            let s0 = Instant::now();
            let sol = solver.solve_refined(&inputs.rhs[i], MAX_REFINE, TOL);
            factor_s += (s0 - m0).as_secs_f64();
            solve_s += s0.elapsed().as_secs_f64();
            let sol = match sol {
                Ok(s) => s,
                Err(e) => {
                    rep.check(false, || format!("{name}: solve rejected: {e}"));
                    continue;
                }
            };
            let out = Outcome {
                fingerprint: solver.analysis().fingerprint(),
                iterations: sol.iterations,
                x_hash: bits_hash(&sol.x),
            };
            let expected = *first[i].get_or_insert(out);
            let ok = sol.converged && out == expected;
            rep.check(ok, || {
                format!(
                    "{name}: converged={} residual={:?}; outcome {out:?} vs first pass {expected:?}",
                    sol.converged,
                    sol.residual_history.last()
                )
            });
            if ok {
                solved += 1;
            }
        }
        pass_s.push(p0.elapsed().as_secs_f64());
        factor_ms.push(factor_s * 1e3);
        solve_ms.push(solve_s * 1e3);
    }
    let window = t0.elapsed().as_secs_f64();
    println!(
        "passes: {} ({:.3}..{:.3} s); matrices solved to {TOL:e}: {solved}",
        pass_s.len(),
        pass_s.iter().copied().fold(f64::INFINITY, f64::min),
        pass_s.iter().copied().fold(0.0, f64::max)
    );
    // Per pass: the refined-solve phase is the "request", the
    // analyze-and-factor phase the "step".
    rep.metric("time_to_solution_s", "s", median(&pass_s), pass_s.len());
    rep.metric("req_latency_p50_ms", "ms", median(&solve_ms), solve_ms.len());
    rep.metric("req_latency_p99_ms", "ms", tail(&solve_ms), solve_ms.len());
    rep.metric("goodput_rps", "req/s", solved as f64 / window, solved);
    rep.metric("step_latency_p50_ms", "ms", median(&factor_ms), factor_ms.len());
}
