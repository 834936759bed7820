//! Multi-GPU strong scaling on the paper stand-ins (beyond Table VII).
//!
//! The paper's evaluation stops at one GPU; this bench runs the event-chained
//! driver on device sets (proportional subtree mapping, peer-copy
//! extend-add, cross-device look-ahead — DESIGN.md §4.9) on every suite matrix at 1/2/4/8 simulated
//! devices and records the simulated makespan, the speedup over the
//! single-device pipelined driver, per-device engine utilization, and the
//! peer-link traffic the extend-add path moved. All numbers are simulated
//! and deterministic.
//!
//! Three invariants are asserted per matrix and panic the bench (failing
//! CI) on violation:
//!
//! 1. **Bitwise identity** — every device count reproduces the serial drain
//!    driver's factor slab bit for bit.
//! 2. **Two devices win** — the 2-device makespan beats the 1-device
//!    pipelined makespan (the suite matrices all have enough independent
//!    subtree work for one extra device to pay).
//! 3. **Look-ahead sanity** — scaling never collapses: the best multi-device
//!    makespan stays ahead of 1 device, and peer traffic appears wherever
//!    the mapping splits a parent from a child (sgi_1M's broad forest
//!    always does).

use mf_core::{factor_permuted, FactorOptions, PolicyKind, PolicySelector};
use mf_gpusim::Machine;
use mf_matgen::PaperMatrix;
use mf_sparse::symbolic::{analyze, Analysis};
use mf_sparse::{AmalgamationOptions, OrderingKind, SymCsc};

const DEVICE_COUNTS: [usize; 4] = [1, 2, 4, 8];

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
    bits: Vec<u32>,
    peer_bytes: usize,
    device_busy: Vec<f64>,
}

fn run(an: &Analysis, a32: &SymCsc<f32>, ndev: usize) -> Run {
    let mut machine = Machine::paper_node();
    let opts = FactorOptions {
        selector: PolicySelector::Fixed(PolicyKind::P4),
        pipeline: true,
        devices: ndev,
        ..FactorOptions::default()
    };
    let (f, stats) =
        factor_permuted(a32, &an.symbolic, &an.perm, &mut machine, &opts).expect("SPD stand-in");
    Run {
        makespan: stats.total_time,
        bits: f.slab.iter().map(|x| x.to_bits()).collect(),
        peer_bytes: stats.peer_bytes,
        device_busy: stats.gpu_devices.iter().map(|u| u.busy_fraction()).collect(),
    }
}

fn main() {
    let mut blocks: Vec<String> = Vec::new();
    for (name, a) in suite() {
        let an = analysis_of(&a);
        let a32: SymCsc<f32> = an.permuted.0.cast();
        // Ground truth: the serial drain driver's bits.
        let reference = {
            let mut machine = Machine::paper_node();
            let opts = FactorOptions {
                selector: PolicySelector::Fixed(PolicyKind::P4),
                ..FactorOptions::default()
            };
            let (f, _) = factor_permuted(&a32, &an.symbolic, &an.perm, &mut machine, &opts)
                .expect("SPD stand-in");
            f.slab.iter().map(|x| x.to_bits()).collect::<Vec<u32>>()
        };
        let runs: Vec<Run> = DEVICE_COUNTS.iter().map(|&d| run(&an, &a32, d)).collect();
        for (d, r) in DEVICE_COUNTS.iter().zip(&runs) {
            assert_eq!(
                r.bits, reference,
                "{name}/{d} devices: multi-GPU driver must not change a single factor bit"
            );
        }
        let base = runs[0].makespan;
        assert!(
            runs[1].makespan < base,
            "{name}: 2 devices ({:.4e}s) must beat 1 device ({:.4e}s)",
            runs[1].makespan,
            base
        );
        let best = runs.iter().map(|r| r.makespan).fold(f64::INFINITY, f64::min);
        assert!(best < base, "{name}: the best device count must improve on a single device");
        if name == "sgi_1M" {
            assert!(
                runs[1..].iter().all(|r| r.peer_bytes > 0),
                "sgi_1M: the proportional mapping splits subtrees across devices, so peer \
                 extend-add traffic must appear at every multi-device count"
            );
        }
        let mut rows: Vec<String> = Vec::new();
        for (d, r) in DEVICE_COUNTS.iter().zip(&runs) {
            let busy =
                r.device_busy.iter().map(|b| format!("{b:.4}")).collect::<Vec<_>>().join(", ");
            rows.push(format!(
                "        {{\"devices\": {d}, \"makespan_s\": {:.6e}, \"speedup_vs_1gpu\": \
                 {:.4}, \"peer_bytes\": {}, \"device_busy_fractions\": [{busy}]}}",
                r.makespan,
                base / r.makespan,
                r.peer_bytes,
            ));
            println!(
                "{name:>10} D={d}: {:.4e}s ({:.3}x vs 1 GPU), peer {:>9} B, busy [{busy}]",
                r.makespan,
                base / r.makespan,
                r.peer_bytes,
            );
        }
        blocks.push(format!(
            "    {{\"name\": \"{name}\", \"order\": {}, \"scaling\": [\n{}\n      ]}}",
            a.order(),
            rows.join(",\n"),
        ));
    }
    let out = format!(
        "{{\n  \"note\": \"simulated strong scaling of the multi-GPU pipelined driver \
         (fixed P4, proportional subtree mapping, peer-copy extend-add, cross-device \
         look-ahead) over 1/2/4/8 identically-configured devices; bitwise identity with \
         the serial drain driver is asserted at every count\",\n  \
         \"matrices\": [\n{}\n  ]\n}}\n",
        blocks.join(",\n"),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_multigpu.json");
    if let Err(e) = std::fs::write(path, &out) {
        eprintln!("warning: could not write {path}: {e}");
    } else {
        println!("wrote BENCH_multigpu.json");
    }
}
