//! What is left of the offline `criterion` stand-in: [`measure`], the
//! warm-up + samples + median/MAD harness `nekbench` times its station
//! benches with, its [`Stats`], and [`black_box`]. The group/bencher API
//! and the entry-point macros went with the microbenches that used them;
//! the crate keeps its name because `nekbench::surface` names
//! `criterion::measure`.

use std::time::Instant;

/// Opaque-to-the-optimizer identity, re-exported from std.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Robust wall-clock statistics over independent samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stats {
    /// Median seconds per iteration.
    pub median_s: f64,
    /// Median absolute deviation from the median, in seconds.
    pub mad_s: f64,
    /// Number of timed samples.
    pub n: usize,
}

/// Run `warmup` untimed calls, then `samples` individually timed calls of
/// `f` on the monotonic clock; return median/MAD over the samples.
pub fn measure<O, F: FnMut() -> O>(warmup: usize, samples: usize, mut f: F) -> Stats {
    for _ in 0..warmup {
        black_box(f());
    }
    let n = samples.max(1);
    let mut times = Vec::with_capacity(n);
    for _ in 0..n {
        let start = Instant::now();
        black_box(f());
        times.push(start.elapsed().as_secs_f64());
    }
    let median_s = median(&mut times);
    let mut dev: Vec<f64> = times.iter().map(|&t| (t - median_s).abs()).collect();
    let mad_s = median(&mut dev);
    Stats { median_s, mad_s, n }
}

fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        0.5 * (xs[n / 2 - 1] + xs[n / 2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_reports_robust_stats() {
        let mut calls = 0u64;
        let stats = measure(2, 5, || {
            calls += 1;
            std::thread::sleep(std::time::Duration::from_micros(200))
        });
        // 2 warm-up + 5 timed samples.
        assert_eq!(calls, 7);
        assert_eq!(stats.n, 5);
        assert!(stats.median_s >= 200e-6, "median {}", stats.median_s);
        assert!(stats.mad_s >= 0.0);
        // MAD is robust: it must stay well below the median for a steady
        // workload even if one sample is slow.
        assert!(stats.mad_s <= stats.median_s);
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&mut [7.0]), 7.0);
    }
}
