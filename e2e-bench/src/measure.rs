//! Sample statistics and readers for the numbers the program already
//! exports (`MetricsSnapshot` counters and histogram sums and counts —
//! never its bucketed quantiles).

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use socsense_obs::{MetricsSnapshot, Obs, Recorder};

/// A recorder and an `Obs` handle that reports into it when `traced`, or
/// reports nowhere (the program's zero-cost path) when not.
pub fn tracer(traced: bool) -> (Obs, Arc<Recorder>) {
    let rec = Arc::new(Recorder::new());
    let obs = if traced {
        Obs::new(rec.clone())
    } else {
        Obs::none()
    };
    (obs, rec)
}

/// Median of `samples` (mean of the two middle values for even counts).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The highest percentile with at least ten samples beyond it, as
/// `(percentile, value)`; `None` under twenty samples, where that
/// percentile would fall below the median.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len();
    if n < 20 {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = n - 10; // 1-based rank with exactly ten samples above it
    Some((100.0 * rank as f64 / n as f64, s[rank - 1]))
}

/// `VmHWM` of this process in MiB: the peak resident set size.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Restarts `VmHWM` from the current resident set (Linux `clear_refs`).
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Total size of the regular files under `dir`, read from outside the
/// program.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Sleeps until `deadline` (returns at once when it has passed).
pub fn sleep_until(deadline: Instant) {
    let now = Instant::now();
    if deadline > now {
        std::thread::sleep(deadline - now);
    }
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// The difference between two snapshots of one recorder: the work done
/// in between.
pub struct Window<'a> {
    before: &'a MetricsSnapshot,
    after: &'a MetricsSnapshot,
}

impl<'a> Window<'a> {
    /// Work recorded after `before` and up to `after`.
    pub fn new(before: &'a MetricsSnapshot, after: &'a MetricsSnapshot) -> Self {
        Self { before, after }
    }

    /// Counter increments within the window.
    pub fn count(&self, name: &str) -> f64 {
        (self.after.counter(name) - self.before.counter(name)) as f64
    }

    /// Histogram sum within the window (for `*.seconds`: busy time).
    pub fn sum(&self, name: &str) -> f64 {
        let of = |s: &MetricsSnapshot| s.histogram(name).map_or(0.0, |h| h.sum);
        of(self.after) - of(self.before)
    }

    /// Histogram observation count within the window.
    pub fn n(&self, name: &str) -> f64 {
        let of = |s: &MetricsSnapshot| s.histogram(name).map_or(0, |h| h.count);
        (of(self.after) - of(self.before)) as f64
    }
}

/// Per-layer metrics of one traced run, by name.
pub type Layers = BTreeMap<&'static str, f64>;

/// Max ÷ mean of the per-shard request counters `serve.shard.<i>.requests_total`.
pub fn shard_skew(w: &Window<'_>, shards: usize) -> f64 {
    let counts: Vec<f64> = (0..shards)
        .map(|i| w.count(&format!("serve.shard.{i}.requests_total")))
        .collect();
    let mean = counts.iter().sum::<f64>() / shards as f64;
    let max = counts.iter().copied().fold(0.0, f64::max);
    if mean > 0.0 {
        max / mean
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail_follow_their_definitions() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(tail(&[1.0; 19]), None);
        assert_eq!(tail(&[1.0; 20]), Some((50.0, 1.0)));
        let xs: Vec<f64> = (1..=60).map(f64::from).collect();
        let (p, v) = tail(&xs).unwrap();
        assert_eq!(v, 50.0);
        assert!((p - 100.0 * 50.0 / 60.0).abs() < 1e-12);
        assert_eq!(xs.iter().filter(|&&x| x > v).count(), 10);
    }
}
