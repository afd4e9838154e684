//! Measurement primitives: the seeded generator, a fixed-memory latency
//! histogram, the multiset ledger the correctness checks rest on, and the
//! process's peak RSS.

use std::time::{Duration, Instant};

/// SplitMix64: the benchmark's only source of randomness, so one `--seed`
/// reproduces every input.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(mix(seed ^ mix(stream.wrapping_add(0x5EED))))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is far below anything
    /// the benchmark can resolve).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// The SplitMix64 finalizer: a bijective 64-bit mixer.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Sub-buckets per power of two: quantiles resolve to 1/128 of their value.
const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;

/// Log-linear latency histogram in nanoseconds. Memory is fixed (about
/// 60 KiB) however many ops a run measures, so the benchmark's own
/// footprint does not grow with the program's throughput and leak into
/// `peak_rss_mb`.
#[derive(Clone)]
pub struct Hist {
    counts: Vec<u64>,
    total: u64,
}

impl Hist {
    pub fn new() -> Hist {
        Hist {
            counts: vec![0; ((64 - SUB_BITS as usize + 1) << SUB_BITS) + 1],
            total: 0,
        }
    }

    fn bucket(v: u64) -> usize {
        if v < SUB {
            return v as usize;
        }
        let e = 63 - v.leading_zeros();
        let shift = e - SUB_BITS;
        ((((e - SUB_BITS + 1) as u64) << SUB_BITS) + ((v >> shift) & (SUB - 1))) as usize
    }

    /// Midpoint of bucket `i`, in ns.
    fn value(i: usize) -> f64 {
        let i = i as u64;
        if i < SUB {
            return i as f64;
        }
        let shift = (i >> SUB_BITS) - 1;
        let lo = (SUB + (i & (SUB - 1))) << shift;
        lo as f64 + ((1u64 << shift) as f64 - 1.0) / 2.0
    }

    pub fn record(&mut self, ns: u64) {
        self.counts[Self::bucket(ns)] += 1;
        self.total += 1;
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    /// The `q`-quantile in ns (nearest rank).
    pub fn quantile_ns(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (i, c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::value(i);
            }
        }
        unreachable!("rank is at most the total count")
    }
}

/// Latencies of a measured phase, split into equal windows of wall time by
/// when each op completed. Throughput and latency quantiles are reported as
/// medians over the windows, so a burst of outside load during one window
/// does not move a run's figures.
pub struct Windows {
    start: Instant,
    width_ns: u64,
    hists: Vec<Hist>,
}

impl Windows {
    pub fn new(n: usize, width: Duration) -> Windows {
        Windows {
            start: Instant::now(),
            width_ns: width.as_nanos() as u64,
            hists: (0..n.max(1)).map(|_| Hist::new()).collect(),
        }
    }

    /// Start the clock the windows are cut from.
    pub fn open(&mut self, start: Instant) {
        self.start = start;
    }

    /// One op of `took_ns` that completed at `end`. An op finishing after
    /// the last window closed counts in the last window.
    pub fn record(&mut self, end: Instant, took_ns: u64) {
        let w =
            (end.saturating_duration_since(self.start).as_nanos() as u64 / self.width_ns) as usize;
        let last = self.hists.len() - 1;
        self.hists[w.min(last)].record(took_ns);
    }

    pub fn merge(&mut self, other: &Windows) {
        for (a, b) in self.hists.iter_mut().zip(&other.hists) {
            a.merge(b);
        }
    }

    pub fn len(&self) -> usize {
        self.hists.len()
    }

    /// Median over windows of ops completed per second.
    pub fn median_ops_s(&self) -> f64 {
        let per_s = 1e9 / self.width_ns as f64;
        let v: Vec<f64> = self
            .hists
            .iter()
            .map(|h| h.count() as f64 * per_s)
            .collect();
        median(&v)
    }

    /// Median over windows of each window's `q`-quantile, in ns.
    pub fn median_quantile_ns(&self, q: f64) -> f64 {
        let v: Vec<f64> = self.hists.iter().map(|h| h.quantile_ns(q)).collect();
        median(&v)
    }
}

/// How a measured phase of `total` is cut: one-second windows, or five
/// equal ones for phases shorter than five seconds.
pub fn windows_for(total: Duration) -> Windows {
    let n = (total.as_secs_f64().round() as usize).max(5);
    Windows::new(n, total / n as u32)
}

/// Median of `xs` (mean of the middle pair for even lengths).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Order-independent fingerprint of one queue's key multiset: count, key
/// sum and a sum of mixed keys, all wrapping. Adding a key and removing it
/// again restores the fingerprint exactly; losing, duplicating or altering
/// a key changes the mixed sum except with probability about 2^-64. Memory
/// and time per op are constant, so the ledger costs the measured loop
/// almost nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ledger {
    pub count: i64,
    sum: u64,
    hash: u64,
}

impl Ledger {
    pub fn add(&mut self, key: i64) {
        self.count += 1;
        self.sum = self.sum.wrapping_add(key as u64);
        self.hash = self
            .hash
            .wrapping_add(mix(key as u64 ^ 0xA076_1D64_78BD_642F));
    }

    pub fn remove(&mut self, key: i64) {
        self.count -= 1;
        self.sum = self.sum.wrapping_sub(key as u64);
        self.hash = self
            .hash
            .wrapping_sub(mix(key as u64 ^ 0xA076_1D64_78BD_642F));
    }

    pub fn merge(&mut self, other: &Ledger) {
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.hash = self.hash.wrapping_add(other.hash);
    }

    pub fn of(keys: &[i64]) -> Ledger {
        let mut l = Ledger::default();
        keys.iter().for_each(|&k| l.add(k));
        l
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_are_within_resolution() {
        let mut h = Hist::new();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        for q in [0.5, 0.99] {
            let want = q * 100_000.0;
            let got = h.quantile_ns(q);
            assert!(
                (got - want).abs() / want < 1.0 / 128.0,
                "q={q}: {got} vs {want}"
            );
        }
    }

    #[test]
    fn ledger_detects_a_swapped_key() {
        let a = Ledger::of(&[1, 2, 3]);
        assert_eq!(a, Ledger::of(&[3, 1, 2]));
        assert_ne!(a, Ledger::of(&[1, 2, 4]));
        assert_ne!(a, Ledger::of(&[1, 2, 3, 3]));
    }
}
