//! Percentiles and open-loop accounting.

use std::time::Duration;

/// A percentile is reported only when at least this many samples lie above
/// its rank, so one outlier cannot be the whole tail.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `q` (in `(0, 100]`) among `n`
/// samples: the smallest rank with at least `q`% of the samples at or
/// below it.
fn rank(n: usize, q: f64) -> usize {
    // The epsilon keeps 99% of 1000 at rank 990 despite float rounding.
    (((q / 100.0) * n as f64) - 1e-9).ceil().max(1.0) as usize
}

/// Nearest-rank percentile of ascending `sorted` samples.
pub fn nearest_rank(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() || !(q > 0.0 && q <= 100.0) {
        return None;
    }
    Some(sorted[rank(sorted.len(), q).min(sorted.len()) - 1])
}

/// [`nearest_rank`], but `None` unless at least [`MIN_BEYOND`] samples lie
/// above the percentile's rank.
pub fn tail(sorted: &[f64], q: f64) -> Option<f64> {
    let v = nearest_rank(sorted, q)?;
    (sorted.len() - rank(sorted.len(), q) >= MIN_BEYOND).then_some(v)
}

/// Ascending copy of `v`.
pub fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Arithmetic mean (`NaN` for no samples).
pub fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}

/// Nearest-rank median (`NaN` for no samples).
pub fn median(v: &[f64]) -> f64 {
    nearest_rank(&sorted(v), 50.0).unwrap_or(f64::NAN)
}

/// One open-loop request: when it was due, when it actually went out, and
/// when its reply arrived, each as an offset from the phase start.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpenSample {
    /// Reply time minus due time, in milliseconds: a stall delays every
    /// later request, and that wait is charged to them.
    pub latency_ms: f64,
    /// How late the generator sent the request, in milliseconds.
    pub lag_ms: f64,
}

impl OpenSample {
    /// Accounts one request from its due, send and reply times.
    pub fn new(due: Duration, sent: Duration, done: Duration) -> OpenSample {
        OpenSample {
            latency_ms: done.saturating_sub(due).as_secs_f64() * 1e3,
            lag_ms: sent.saturating_sub(due).as_secs_f64() * 1e3,
        }
    }
}

/// Due time of the `k`-th request of a sender that starts at `offset` and
/// sends every `period`.
pub fn due(offset: Duration, period: Duration, k: u64) -> Duration {
    offset + period.mul_f64(k as f64)
}

/// Whether the generator fell behind for good: the median lag of the last
/// fifth of the requests (in send order) exceeds that of the first fifth by
/// more than a millisecond. A run whose lag grows measured a queue that
/// never drained, not the server's latency at the stated rate.
pub fn lag_grows(lags_ms: &[f64]) -> bool {
    let fifth = lags_ms.len() / 5;
    if fifth == 0 {
        return false;
    }
    median(&lags_ms[lags_ms.len() - fifth..]) > median(&lags_ms[..fifth]) + 1.0
}
