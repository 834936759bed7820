//! Scale-1.0 wall-clock benchmark of the multifrontal solver.
//!
//! ```text
//! perfbench --workload <oneshot_3d|serve_3d> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the workload's end-to-end metrics with nothing
//! traced. `--trace 1` is a separate run that reports the per-layer metrics
//! from outside-in spans and writes them as Chrome trace-event JSON under
//! `perfbench/out/`. The last line of standard output is the result object
//! `{"correct", "attempted", "failed", "metrics"}`; the line before it
//! carries the run facts (threads, scale, seed, sample counts).

mod layers;
mod oneshot;
mod serve;
mod trace;
mod util;

use std::time::Instant;

use mf_core::{Precision, SolverOptions};
use mf_gpusim::Machine;
use mf_matgen::PaperMatrix;
use mf_sparse::{AmalgamationOptions, OrderingKind, SymCsc};

use trace::Tracer;
use util::{json_num, json_str, median, peak_rss_mb, percentile, Report, Rng};

/// Refinement target and correction budget of every `oneshot_3d` solve.
pub const TOL: f64 = 1e-12;
pub const MAX_REFINE: usize = 10;
/// Setup repetitions whose median is `setup_s` (`oneshot_3d`).
const SETUP_REPS: usize = 5;
/// Longest serving window of a traced run, which keeps it within its
/// time limit on top of the per-layer probes.
const TRACED_SERVE_S: f64 = 8.0;
const OUT_DIR: &str = "perfbench/out";
/// Matrix scale of every workload (N ≈ 32–48 k).
const SCALE: f64 = 1.0;

const WORKLOADS: [&str; 2] = ["oneshot_3d", "serve_3d"];

/// The pipeline every workload runs: ND ordering, default amalgamation,
/// f32 factor, fixed P1 policy, serial drivers.
pub fn solver_options() -> SolverOptions {
    SolverOptions {
        ordering: OrderingKind::NestedDissection,
        amalgamation: Some(AmalgamationOptions::default()),
        precision: Precision::F32,
        ..Default::default()
    }
}

/// A workload's matrices and seeded right-hand sides.
pub struct Inputs {
    pub mats: Vec<(String, SymCsc<f64>)>,
    pub rhs: Vec<Vec<f64>>,
}

/// Both workloads run the sgi_1M and audikw_1 stand-ins (~1.0e11 factor
/// flops each, root fronts ~5 k wide).
fn make_inputs(seed: u64) -> Inputs {
    let mats: Vec<(String, SymCsc<f64>)> = [PaperMatrix::Sgi1M, PaperMatrix::Audikw1]
        .into_iter()
        .map(|m| (m.name().to_string(), m.generate_scaled(SCALE)))
        .collect();
    let mut rng = Rng::new(seed, 0xb);
    let rhs = mats.iter().map(|(_, a)| rng.vector(a.order())).collect();
    Inputs { mats, rhs }
}

/// Touch the solver's code paths and thread pools once on a tiny system.
fn warm_up() {
    let a = mf_matgen::laplacian_3d(10, 10, 10, mf_matgen::Stencil::Faces);
    let b = mf_matgen::rhs_ones(&a);
    let s = mf_core::SpdSolver::new(&a, &mut Machine::paper_node(), &solver_options())
        .expect("warm-up system is SPD");
    let x = s.solve_refined(&b, MAX_REFINE, TOL).expect("valid right-hand side");
    assert!(x.converged, "warm-up solve must converge");
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = argv.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        argv.get(i + 1).map(String::as_str).ok_or(format!("{flag} needs a value"))
    };
    let workload = get("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; expected one of {WORKLOADS:?}"));
    }
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, got {t}")),
    };
    Ok(Args { workload, seed, seconds, trace })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut rep = Report::default();
    let mut tracer = Tracer::new(&args.workload, args.trace);
    let serving = args.workload == "serve_3d";

    // Setup: inputs (and, for serving, references, server and sessions).
    let mut setup_s = Vec::new();
    let mut inputs = None;
    let reps = if serving { 1 } else { SETUP_REPS };
    for _ in 0..reps {
        let t = Instant::now();
        let span = tracer.open("bench", "setup", "");
        inputs = Some(make_inputs(args.seed));
        warm_up();
        tracer.close(span);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let inputs = inputs.expect("at least one setup");
    for (name, a) in &inputs.mats {
        println!("matrix {name}: N = {}, lower nnz = {}", a.order(), a.nnz_lower());
    }

    if args.trace {
        traced(&args, &inputs, &mut tracer, &mut rep);
    } else if serving {
        let t = Instant::now();
        let st = serve::setup(&inputs, args.seed, &mut rep, &mut tracer);
        setup_s[0] += t.elapsed().as_secs_f64();
        let out = serve::load(&st, args.seconds, &mut rep, &mut tracer);
        serve::report(&out, &mut rep);
    } else {
        oneshot::run(&inputs, args.seconds, &mut rep);
    }
    if !args.trace {
        rep.metric("peak_rss_mb", "MB", peak_rss_mb(), 1);
        rep.metric("setup_s", "s", median(&setup_s), setup_s.len());
    }

    let facts = facts_json(&args, &rep);
    if tracer.enabled() {
        let path = format!("{OUT_DIR}/trace-{}-seed{}.json", args.workload, args.seed);
        let written = std::fs::create_dir_all(OUT_DIR)
            .and_then(|()| std::fs::write(&path, tracer.chrome_json(&facts)));
        rep.check(written.is_ok(), || format!("writing {path}: {written:?}"));
        println!("trace file: {path} ({} spans)", tracer.len());
    }
    print_result(&rep, &facts);
    if !rep.failures.is_empty() {
        std::process::exit(1);
    }
}

/// The traced run: per-layer probes on the workload's matrices, then the
/// serving loop on them for a shorter window.
fn traced(args: &Args, inputs: &Inputs, tr: &mut Tracer, rep: &mut Report) {
    let tot = layers::probe(inputs, args.seed, tr, rep);
    let gemm_peak = layers::gemm_peak_gflops(tr);

    let st = serve::setup(inputs, args.seed, rep, tr);
    let out = serve::load(&st, args.seconds.min(TRACED_SERVE_S), rep, tr);
    let sp = serve::probe(&st, inputs, tr, rep);
    let submit_miss_s = st.submit_miss_s;
    drop(st);

    let ms = |s: f64| s * 1e3;
    let kernels = tot.potrf + tot.trsm + tot.syrk;
    let n = inputs.mats.len();
    rep.metric("analysis.order_ms", "ms", ms(tot.order), n);
    rep.metric("analysis.permute_ms", "ms", ms(tot.permute), n);
    rep.metric("analysis.etree_ms", "ms", ms(tot.etree), n);
    rep.metric("analysis.colcount_ms", "ms", ms(tot.colcount), n);
    rep.metric("analysis.supernode_ms", "ms", ms(tot.supernode), n);
    rep.metric("analysis.symbolic_ms", "ms", ms(tot.symbolic), n);
    rep.metric("analysis.share", "fraction", tot.analysis() / tot.traced_pass, n);
    rep.metric("analysis.nnz_l", "count", tot.nnz_l as f64, n);
    rep.metric("analysis.factor_flops", "flop", tot.flops, n);
    rep.metric("analysis.supernodes", "count", tot.supernodes as f64, n);
    rep.metric("analysis.max_front", "count", tot.max_front as f64, n);
    rep.metric("factor.numeric_ms", "ms", ms(tot.numeric), n);
    rep.metric("factor.gflops", "GF/s", tot.flops / tot.numeric / 1e9, n);
    rep.metric("factor.gflops_f64", "GF/s", tot.flops / tot.numeric_f64 / 1e9, n);
    rep.metric("factor.nonkernel_ms", "ms", ms(tot.numeric - kernels), n);
    rep.metric("dense.potrf_ms", "ms", ms(tot.potrf), n);
    rep.metric("dense.trsm_ms", "ms", ms(tot.trsm), n);
    rep.metric("dense.syrk_ms", "ms", ms(tot.syrk), n);
    rep.metric("dense.potrf_gflops", "GF/s", tot.potrf_flops / tot.potrf / 1e9, n);
    rep.metric("dense.syrk_gflops", "GF/s", tot.syrk_flops / tot.syrk / 1e9, n);
    rep.metric("dense.gemm_peak_gflops", "GF/s", gemm_peak, 3);
    rep.metric("solve.forward_ms", "ms", ms(tot.forward), n);
    rep.metric("solve.backward_ms", "ms", ms(tot.backward), n);
    rep.metric("solve.per_rhs_ms_at16", "ms", ms(tot.sweep16) / 16.0, n);
    rep.metric("refine.iters", "count", tot.refine_iters as f64, n);
    rep.metric("refine.residual_ms", "ms", ms(tot.residual), n);
    let batches = out.sweeps.max(1) as f64;
    rep.metric(
        "server.batch_fill",
        "fraction",
        out.solved_rhs as f64 / (batches * serve::WINDOW as f64),
        out.sweeps as usize,
    );
    rep.metric("server.sweeps", "count", out.sweeps as f64, 1);
    rep.metric("server.analysis_hit_ratio", "fraction", sp.hit_ratio, 3);
    rep.metric("server.submit_miss_s", "s", submit_miss_s, 1);
    rep.metric("server.submit_hit_s", "s", sp.submit_hit_s, 1);
    rep.metric("server.refactor_ms", "ms", sp.refactor_ms, 2);
    rep.metric(
        "server.gen_lag_p99_ms",
        "ms",
        percentile(&out.gen_lag_ms, 99.0),
        out.gen_lag_ms.len(),
    );
    rep.metric("server.rejected", "count", sp.rejected as f64, 1);
    rep.metric(
        "runtime.analyze_parallel_speedup",
        "ratio",
        tot.analyze_serial / tot.analyze_parallel,
        n,
    );
    rep.metric("runtime.factor_parallel_speedup", "ratio", tot.numeric / tot.factor_parallel, n);
    rep.metric("runtime.solve_parallel_speedup", "ratio", tot.sweep16 / tot.solve_parallel, n);
    rep.metric("sim.factor_p1_s", "sim_s", tot.sim_p1, n);
    rep.metric("sim.factor_bh_s", "sim_s", tot.sim_bh, n);
    rep.metric("trace.overhead_ratio", "ratio", tot.traced_pass / tot.untraced_pass, n);
}

/// Run facts recorded beside the metrics: threads, scale, seed, and the
/// sample count behind every metric. `sim_s` figures are simulated.
fn facts_json(args: &Args, rep: &Report) -> String {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let samples: Vec<String> =
        rep.metrics.iter().map(|m| format!("{}:{}", json_str(m.name), m.samples)).collect();
    let simulated: Vec<String> =
        rep.metrics.iter().filter(|m| m.unit == "sim_s").map(|m| json_str(m.name)).collect();
    format!(
        "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"scale\":{},\
         \"hardware_threads\":{threads},\"dense_kernel_threads\":{},\"failed_frac\":{},\
         \"samples\":{{{}}},\"simulated\":[{}]}}",
        json_str(&args.workload),
        args.seed,
        json_num(args.seconds),
        u8::from(args.trace),
        json_num(SCALE),
        mf_dense::num_threads(),
        json_num(rep.failures.len() as f64 / rep.attempted.max(1) as f64),
        samples.join(","),
        simulated.join(",")
    )
}

/// Every metric by name with its unit, then the facts line, then the
/// result object as the last line.
fn print_result(rep: &Report, facts: &str) {
    let failed = rep.failures.len();
    println!(
        "failed_frac = {} fraction ({failed} failed of {} attempted)",
        failed as f64 / rep.attempted.max(1) as f64,
        rep.attempted
    );
    for m in &rep.metrics {
        let label = if m.unit == "sim_s" { "  (simulated)" } else { "" };
        println!("{} = {} {} (n={}){label}", m.name, m.value, m.unit, m.samples);
    }
    println!("{facts}");
    let metrics: Vec<String> = rep
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{failed},\"metrics\":{{{}}}}}",
        failed == 0,
        rep.attempted.max(1),
        metrics.join(",")
    );
}
