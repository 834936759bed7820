//! Criterion benchmarks of the dense kernels (wall-clock of the real Rust
//! implementations — distinct from the *simulated* times the experiments
//! report; useful for tracking regressions in the compute substrate).
//!
//! Every kernel/shape is measured twice: `packed/…` runs the packed,
//! register-tiled engine behind the public API, `seed/…` runs the original
//! loop-nest kernels preserved in `mf_dense::naive`. Throughput annotations
//! carry the flop count, so GF/s and packed-vs-seed speedups drop out of
//! the records; `main` writes them to `BENCH_dense.json` after the run.

use criterion::{criterion_group, BenchmarkId, Criterion, Throughput};
use mf_dense::{
    gemm, matrix::random_spd, naive, potrf, syrk_lower, trsm_right_lower_trans, DenseMat, Transpose,
};

fn rand_mat(rows: usize, cols: usize, seed: u64) -> DenseMat<f64> {
    let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    DenseMat::from_fn(rows, cols, |_, _| {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    })
}

fn bench_potrf(c: &mut Criterion) {
    let mut g = c.benchmark_group("potrf");
    // 1024 and 2048 are front-scale pivot blocks: several 256-column
    // panels, each a recursive trsm plus a rank-256 syrk.
    for n in [64usize, 128, 256, 1024, 2048] {
        let a0 = random_spd::<f64>(n, 7);
        g.throughput(Throughput::Elements((n * n * n / 3) as u64));
        g.bench_with_input(BenchmarkId::new("packed", n), &n, |b, &n| {
            b.iter_batched(
                || a0.clone(),
                |mut a| potrf(n, a.as_mut_slice(), n).unwrap(),
                criterion::BatchSize::SmallInput,
            )
        });
        g.bench_with_input(BenchmarkId::new("seed", n), &n, |b, &n| {
            b.iter_batched(
                || a0.clone(),
                |mut a| naive::potrf(n, a.as_mut_slice(), n).unwrap(),
                criterion::BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

fn bench_syrk(c: &mut Criterion) {
    let mut g = c.benchmark_group("syrk");
    // (512, 64) is the acceptance shape; (2048, 32) is the tall-skinny
    // extend-add profile of large frontal updates (m ≫ k).
    for (n, k) in [(128usize, 64usize), (256, 128), (512, 64), (2048, 32)] {
        let a = rand_mat(n, k, 3);
        let c0 = rand_mat(n, n, 4);
        g.throughput(Throughput::Elements((n * n * k) as u64));
        g.bench_with_input(
            BenchmarkId::new("packed", format!("{n}x{k}")),
            &(n, k),
            |b, &(n, k)| {
                b.iter_batched(
                    || c0.clone(),
                    |mut cc| syrk_lower(n, k, -1.0, a.as_slice(), n, 1.0, cc.as_mut_slice(), n),
                    criterion::BatchSize::SmallInput,
                )
            },
        );
        g.bench_with_input(BenchmarkId::new("seed", format!("{n}x{k}")), &(n, k), |b, &(n, k)| {
            b.iter_batched(
                || c0.clone(),
                |mut cc| naive::syrk_lower(n, k, -1.0, a.as_slice(), n, 1.0, cc.as_mut_slice(), n),
                criterion::BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

fn bench_trsm(c: &mut Criterion) {
    let mut g = c.benchmark_group("trsm");
    // 2048×512 and 4096×1024 are front-scale panel solves, where the
    // recursive column split pays off.
    for (m, k) in [(256usize, 64usize), (512, 128), (2048, 64), (2048, 512), (4096, 1024)] {
        let mut l = random_spd::<f64>(k, 5);
        potrf(k, l.as_mut_slice(), k).unwrap();
        let b0 = rand_mat(m, k, 6);
        g.throughput(Throughput::Elements((m * k * k) as u64));
        g.bench_with_input(
            BenchmarkId::new("packed", format!("{m}x{k}")),
            &(m, k),
            |b, &(m, k)| {
                b.iter_batched(
                    || b0.clone(),
                    |mut x| trsm_right_lower_trans(m, k, l.as_slice(), k, x.as_mut_slice(), m),
                    criterion::BatchSize::SmallInput,
                )
            },
        );
        g.bench_with_input(BenchmarkId::new("seed", format!("{m}x{k}")), &(m, k), |b, &(m, k)| {
            b.iter_batched(
                || b0.clone(),
                |mut x| naive::trsm_right_lower_trans(m, k, l.as_slice(), k, x.as_mut_slice(), m),
                criterion::BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

fn bench_gemm(c: &mut Criterion) {
    let mut g = c.benchmark_group("gemm");
    // Square panels plus the acceptance shape (512×512×256) and tall-skinny
    // panel products (m ≫ k) from the solve/panel phases.
    for (m, n, k) in [
        (128usize, 128usize, 128usize),
        (256, 256, 256),
        (512, 512, 256),
        (4096, 64, 64),
        (2048, 32, 32),
    ] {
        let a = rand_mat(m, k, 8);
        let b = rand_mat(n, k, 9);
        let c0 = rand_mat(m, n, 10);
        let shape = format!("{m}x{n}x{k}");
        g.throughput(Throughput::Elements((2 * m * n * k) as u64));
        g.bench_with_input(BenchmarkId::new("packed", &shape), &m, |bch, _| {
            bch.iter_batched(
                || c0.clone(),
                |mut cc| {
                    gemm(
                        Transpose::No,
                        Transpose::Yes,
                        m,
                        n,
                        k,
                        -1.0,
                        a.as_slice(),
                        m,
                        b.as_slice(),
                        n,
                        1.0,
                        cc.as_mut_slice(),
                        m,
                    )
                },
                criterion::BatchSize::SmallInput,
            )
        });
        g.bench_with_input(BenchmarkId::new("seed", &shape), &m, |bch, _| {
            bch.iter_batched(
                || c0.clone(),
                |mut cc| {
                    naive::gemm(
                        Transpose::No,
                        Transpose::Yes,
                        m,
                        n,
                        k,
                        -1.0,
                        a.as_slice(),
                        m,
                        b.as_slice(),
                        n,
                        1.0,
                        cc.as_mut_slice(),
                        m,
                    )
                },
                criterion::BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(12).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(400));
    targets = bench_potrf, bench_syrk, bench_trsm, bench_gemm
}

/// GF/s for one record (throughput elements are flop counts here).
fn gflops(r: &criterion::BenchRecord) -> Option<f64> {
    r.throughput_elements.map(|e| e as f64 / r.mean_ns)
}

/// Write `BENCH_dense.json`: GF/s per kernel/shape/variant plus the
/// packed-over-seed speedup for every shape measured both ways.
fn write_bench_json() {
    let recs = criterion::records();
    let mut out = String::from("{\n  \"benches\": [\n");
    for (i, r) in recs.iter().enumerate() {
        let sep = if i + 1 == recs.len() { "" } else { "," };
        let gf = gflops(r).unwrap_or(0.0);
        out.push_str(&format!(
            "    {{\"group\": \"{}\", \"id\": \"{}\", \"mean_ns\": {:.1}, \"median_ns\": {:.1}, \"gflops\": {gf:.3}}}{sep}\n",
            r.group, r.id, r.mean_ns, r.median_ns
        ));
    }
    out.push_str("  ],\n  \"speedups\": [\n");
    let mut pairs: Vec<String> = Vec::new();
    for r in recs.iter().filter(|r| r.id.starts_with("packed/")) {
        let shape = &r.id["packed/".len()..];
        let seed_id = format!("seed/{shape}");
        if let Some(s) = recs.iter().find(|q| q.group == r.group && q.id == seed_id) {
            let (pg, sg) = (gflops(r).unwrap_or(0.0), gflops(s).unwrap_or(0.0));
            pairs.push(format!(
                "    {{\"kernel\": \"{}\", \"shape\": \"{shape}\", \"packed_gflops\": {pg:.3}, \"seed_gflops\": {sg:.3}, \"speedup\": {:.3}}}",
                r.group,
                s.mean_ns / r.mean_ns
            ));
        }
    }
    out.push_str(&pairs.join(",\n"));
    out.push_str("\n  ]\n}\n");
    // Benches run with CWD = crates/bench; put the report at the repo root.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_dense.json");
    if let Err(e) = std::fs::write(path, &out) {
        eprintln!("warning: could not write {path}: {e}");
    } else {
        println!("wrote BENCH_dense.json ({} records)", recs.len());
    }
}

fn main() {
    benches();
    write_bench_json();
}
