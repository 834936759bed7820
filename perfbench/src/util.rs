//! Small helpers shared by the workloads: seeded inputs, order statistics,
//! bitwise fingerprints, and the metric/result bookkeeping.

use mf_sparse::SymCsc;

/// SplitMix64: a tiny seeded generator for right-hand sides, value sets
/// and anything else the seed drives.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xd134_2543_de82_ef95))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        let u = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + (hi - lo) * u
    }

    pub fn vector(&mut self, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.uniform(-1.0, 1.0)).collect()
    }
}

/// `D·A·D` for a seeded positive diagonal `D`: new values on the same
/// pattern, still SPD.
pub fn rescaled(a: &SymCsc<f64>, rng: &mut Rng) -> SymCsc<f64> {
    let n = a.order();
    let d: Vec<f64> = (0..n).map(|_| rng.uniform(0.8, 1.25)).collect();
    let mut values = Vec::with_capacity(a.nnz_lower());
    for j in 0..n {
        for (&i, &v) in a.col_rows(j).iter().zip(a.col_vals(j)) {
            values.push(d[i] * v * d[j]);
        }
    }
    SymCsc::from_parts(n, a.colptr().to_vec(), a.rowind().to_vec(), values)
}

/// FNV-1a over the bit patterns of a slice.
pub fn bits_hash<T: Copy + Into<f64>>(x: &[T]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &v in x {
        for b in v.into().to_bits().to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

pub fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(p, q)| p.to_bits() == q.to_bits())
}

/// Linear-interpolation percentile (`p` in 0..=100) of unsorted samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = (p / 100.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// The tail figure behind every `*_p99_*` metric: p99 when at least ten
/// samples lie beyond it (1000+ samples), otherwise the highest percentile
/// that still leaves ten beyond it, and never below the median.
pub fn tail(samples: &[f64]) -> f64 {
    let p = 100.0 * (1.0 - 10.0 / samples.len() as f64);
    percentile(samples, p.clamp(50.0, 99.0))
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One reported figure with the number of samples behind it.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub samples: usize,
}

/// Everything a run reports: metrics, operation counts, and the failures
/// (errors, rejections, wrong answers, determinism mismatches) behind
/// `failed`.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, unit: &'static str, value: f64, samples: usize) {
        self.metrics.push(Metric { name, unit, value, samples });
    }

    /// Count one checked operation; record `what` as a failure unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            let msg = what();
            eprintln!("FAILED: {msg}");
            self.failures.push(msg);
        }
    }
}

/// Minimal JSON string escaping for names we control.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite f64 as a JSON number with all its digits.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}
