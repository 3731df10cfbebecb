//! Percentiles, means and process memory.

use std::time::Duration;

/// Nearest-rank percentile (`q` in `[0, 1]`) of unsorted samples: an
/// observed value, never an interpolation; 0 for no samples.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The median (nearest rank).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// The tail percentile every workload reports as `latency_ms_p90`. A
/// `solve-cold` run has about 500 solves, so p90 is its highest
/// percentile with ten samples beyond it; the serve workloads could
/// support p99, but on the shared 2-core machine their p99 moved by up
/// to 70% between runs of the same code, wider than any bound the
/// benchmark may set, so they print p99 to stderr only.
pub const TAIL_Q: f64 = 0.90;

/// Slices of a serve window: its latency percentiles are taken per slice
/// and the median over the slices is reported, so one stall (a slow
/// fsync, a descheduled shard) moves a single slice, not the result.
pub const SLICES: usize = 10;

/// The median over [`SLICES`] equal slices of a window of `window_s`
/// seconds of the nearest-rank percentile `q` of the latencies in each
/// slice. `samples` are `(seconds into the window, latency)`; a sample
/// past the window end counts in the last slice, empty slices are
/// skipped.
pub fn sliced_percentile(samples: &[(f64, f64)], window_s: f64, q: f64) -> f64 {
    let mut slices: Vec<Vec<f64>> = vec![Vec::new(); SLICES];
    for &(at, value) in samples {
        let k = ((at / window_s * SLICES as f64) as usize).min(SLICES - 1);
        slices[k].push(value);
    }
    let per_slice: Vec<f64> = slices
        .iter()
        .filter(|s| !s.is_empty())
        .map(|s| percentile(s, q))
        .collect();
    median(&per_slice)
}

/// The arithmetic mean; 0 for no samples.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `part / whole`, or 0 when `whole` is 0.
pub fn share(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// A duration in milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Warns on stderr when fewer than ten of `n` samples lie beyond
/// percentile `q` — the fewest a tail percentile is reported from.
pub fn check_tail(what: &str, n: usize, q: f64) {
    let beyond = ((1.0 - q) * n as f64).floor() as usize;
    if beyond < 10 {
        eprintln!(
            "# warning: {what}: only {beyond} of {n} samples lie beyond p{}",
            q * 100.0
        );
    }
}

/// Peak resident set size (`VmHWM`) of process `pid`, or of this process
/// for `None`, in MB.
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.5), 50.0);
        assert_eq!(percentile(&samples, 0.9), 90.0);
        assert_eq!(percentile(&samples, 0.99), 99.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(share(1, 0), 0.0);
    }

    #[test]
    fn sliced_percentile_ignores_a_stall_in_one_slice() {
        // 10 slices of 100 samples at 1.0, one slice stalled at 50.0.
        let mut samples: Vec<(f64, f64)> = (0..1000).map(|i| (i as f64 / 100.0, 1.0)).collect();
        for s in &mut samples[300..400] {
            s.1 = 50.0;
        }
        assert_eq!(
            percentile(&samples.iter().map(|s| s.1).collect::<Vec<_>>(), 0.99),
            50.0
        );
        assert_eq!(sliced_percentile(&samples, 10.0, 0.99), 1.0);
        // Samples past the window land in the last slice.
        assert_eq!(sliced_percentile(&[(12.0, 3.0)], 10.0, 0.5), 3.0);
    }

    #[test]
    fn own_peak_rss_is_readable() {
        assert!(peak_rss_mb(None).is_some_and(|mb| mb > 0.0));
    }
}
