//! Pipelined vs drain-per-front GPU dispatch on the paper matrices.
//!
//! Both drivers run the same f32 numeric factorization through the GPU
//! simulator; the metric is the *simulated* makespan (`FactorStats::
//! total_time`) plus the GPU engine busy/idle accounting the dispatch layer
//! now surfaces (`FactorStats::gpu`), so the comparison is deterministic and
//! hardware-independent. Per matrix × GPU policy (P2/P3/P4) the report
//! records the drain and pipelined makespans, the speedup, both engines'
//! utilization under each driver, and the bitwise check that pipelining
//! changed no factor entry. Written to `BENCH_gpu.json`.
//!
//! `copy_optimized` stays at its default (off) so the batched small-front
//! dispatch path is exercised — the copy-optimized P4 transfer plan issues
//! per-panel transfers that are ineligible for batching.

use mf_core::{factor_permuted, FactorOptions, PolicyKind, PolicySelector};
use mf_gpusim::{GpuUtilization, Machine};
use mf_matgen::PaperMatrix;
use mf_sparse::symbolic::{analyze, Analysis};
use mf_sparse::{AmalgamationOptions, OrderingKind, SymCsc};

const POLICIES: [PolicyKind; 3] = [PolicyKind::P2, PolicyKind::P3, PolicyKind::P4];

/// The five paper stand-ins, shrunk to bench-friendly orders.
fn suite() -> Vec<(&'static str, SymCsc<f64>)> {
    let scale =
        std::env::var("MF_BENCH_SCALE").ok().and_then(|s| s.parse::<f64>().ok()).unwrap_or(0.30);
    PaperMatrix::ALL.iter().map(|m| (m.name(), m.generate_scaled(scale))).collect()
}

fn analysis_of(a: &SymCsc<f64>) -> Analysis {
    analyze(a, OrderingKind::NestedDissection, Some(&AmalgamationOptions::default())).unwrap()
}

struct Run {
    makespan: f64,
    gpu: GpuUtilization,
    bits: Vec<u64>,
}

fn run(an: &Analysis, a32: &SymCsc<f32>, opts: &FactorOptions) -> Run {
    let mut machine = Machine::paper_node();
    let (f, stats) =
        factor_permuted(a32, &an.symbolic, &an.perm, &mut machine, opts).expect("SPD stand-in");
    Run {
        makespan: stats.total_time,
        gpu: stats.gpu.expect("paper node has a GPU"),
        bits: f.slab.iter().map(|x| x.to_bits() as u64).collect(),
    }
}

fn gpu_json(u: &GpuUtilization) -> String {
    format!(
        "{{\"compute_util\": {:.4}, \"copy_util\": {:.4}, \"busy_fraction\": {:.4}, \
         \"compute_idle\": {:.4}}}",
        u.compute_utilization(),
        u.copy_utilization(),
        u.busy_fraction(),
        u.compute_idle_fraction()
    )
}

fn main() {
    let mut blocks: Vec<String> = Vec::new();
    // Matrices that came out ahead: no policy cell regressed (the rehearsal
    // cost model guarantees ties via drain fallback) and at least one cell
    // won strictly.
    let mut winning_matrices = 0usize;
    for (name, a) in suite() {
        let an = analysis_of(&a);
        let a32: SymCsc<f32> = an.permuted.0.cast();
        let mut rows: Vec<String> = Vec::new();
        let mut strict_wins = 0usize;
        let mut losses = 0usize;
        for p in POLICIES {
            let drain =
                FactorOptions { selector: PolicySelector::Fixed(p), ..FactorOptions::default() };
            let piped = FactorOptions { pipeline: true, ..drain.clone() };
            let rd = run(&an, &a32, &drain);
            let rp = run(&an, &a32, &piped);
            assert_eq!(
                rd.bits, rp.bits,
                "{name}/{p}: pipelined dispatch must not change a single factor bit"
            );
            // The pipelined entry rehearses both schedules and falls back
            // to the drain schedule when pipelining is predicted not to
            // win, so a cell either wins strictly or ties the drain
            // makespan exactly.
            if rp.makespan < rd.makespan {
                strict_wins += 1;
            } else if rp.makespan > rd.makespan {
                losses += 1;
            }
            rows.push(format!(
                "        {{\"policy\": \"{p}\", \"drain_makespan_s\": {:.6e}, \
                 \"pipelined_makespan_s\": {:.6e}, \"speedup\": {:.4}, \
                 \"fell_back_to_drain\": {}, \
                 \"drain_gpu\": {}, \"pipelined_gpu\": {}, \"bitwise_identical\": true}}",
                rd.makespan,
                rp.makespan,
                rd.makespan / rp.makespan,
                rp.makespan == rd.makespan,
                gpu_json(&rd.gpu),
                gpu_json(&rp.gpu),
            ));
            println!(
                "{name:>10} {p}: drain {:.4e}s -> pipelined {:.4e}s ({:.3}x), \
                 compute idle {:.1}% -> {:.1}%",
                rd.makespan,
                rp.makespan,
                rd.makespan / rp.makespan,
                rd.gpu.compute_idle_fraction() * 100.0,
                rp.gpu.compute_idle_fraction() * 100.0,
            );
        }
        assert_eq!(
            losses, 0,
            "{name}: the rehearsal cost model must keep the pipelined entry from ever losing \
             to drain (it can tie by falling back, never regress)"
        );
        if strict_wins > 0 {
            winning_matrices += 1;
        }
        blocks.push(format!(
            "    {{\"name\": \"{name}\", \"order\": {}, \"policies\": [\n{}\n      ]}}",
            a.order(),
            rows.join(",\n"),
        ));
    }
    assert_eq!(
        winning_matrices, 5,
        "with the rehearsal cost model, every paper matrix must come out ahead: no policy cell \
         may regress and at least one must win strictly per matrix (got {winning_matrices}/5)"
    );
    let out = format!(
        "{{\n  \"note\": \"simulated makespan of the f32 numeric factorization under \
         drain-per-front vs pipelined (event-chained, look-ahead, batched) GPU dispatch; \
         utilizations are engine-busy fractions of the makespan\",\n  \
         \"matrices_where_pipelining_wins_all_policies\": {winning_matrices},\n  \
         \"matrices\": [\n{}\n  ]\n}}\n",
        blocks.join(",\n"),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_gpu.json");
    if let Err(e) = std::fs::write(path, &out) {
        eprintln!("warning: could not write {path}: {e}");
    } else {
        println!("wrote BENCH_gpu.json");
    }
}
