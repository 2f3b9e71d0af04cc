//! Server metrics registry: lock-free counters and a log-bucketed
//! latency histogram, dumped by the `STATS` protocol command.
//!
//! Everything is atomics so the query path never takes a lock to record
//! an observation; quantiles are computed on demand from the histogram
//! (upper-bound of the bucket containing the target rank, so reported
//! percentiles are conservative to within one power of two).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of latency buckets: bucket `i` holds observations in
/// `[2^i, 2^(i+1))` microseconds, which spans 1 µs to ~35 minutes.
const BUCKETS: usize = 32;

/// Log₂-bucketed latency histogram over microseconds.
#[derive(Default)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
}

impl LatencyHistogram {
    /// Records one observation.
    pub fn record(&self, elapsed: Duration) {
        let us = elapsed.as_micros().max(1) as u64;
        let bucket = (63 - us.leading_zeros() as usize).min(BUCKETS - 1);
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// The `q`-quantile in microseconds (`q` in `[0, 1]`), or 0 with no
    /// observations. Returns the upper bound of the target bucket.
    pub fn quantile_us(&self, q: f64) -> u64 {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let target = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, c) in counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return 1u64 << (i + 1);
            }
        }
        1u64 << BUCKETS
    }
}

/// All counters the server exposes. Grouped here so handler code takes
/// one `&Metrics` and the STATS command renders from one place.
#[derive(Default)]
pub struct Metrics {
    /// Queries that ran to completion (success or query error).
    pub queries: AtomicU64,
    /// Queries that failed with a compile/execution error.
    pub errors: AtomicU64,
    /// Jobs rejected at admission because the queue was full.
    pub busy_rejections: AtomicU64,
    /// Jobs that exceeded their deadline (queued or mid-execution).
    pub timeouts: AtomicU64,
    /// Total result rows produced (before per-connection limits).
    pub rows_returned: AtomicU64,
    /// Buffer-pool hits observed during queries (see
    /// [`vamana_core::QueryProfile`] for the attribution caveat).
    pub buffer_hits: AtomicU64,
    /// Buffer-pool misses observed during queries.
    pub buffer_misses: AtomicU64,
    /// Pages pinned once by batched scans during queries (see
    /// `BufferStats::batch_pins`).
    pub batch_pins: AtomicU64,
    /// Per-record pool entries batched scans avoided during queries —
    /// `pins_saved / batch_pins` is the observed amortization factor.
    pub pins_saved: AtomicU64,
    /// Applied `INSERT`/`DELETE` updates.
    pub updates: AtomicU64,
    /// Completed `CHECKPOINT`s.
    pub checkpoints: AtomicU64,
    /// Workers currently executing a job (gauge).
    pub active_workers: AtomicU64,
    /// Connections accepted over the server's lifetime.
    pub connections: AtomicU64,
    /// Completed-query latency.
    pub latency: LatencyHistogram,
}

impl Metrics {
    /// Renders one `STAT key value` line per counter (cache and store
    /// figures are appended by the caller, which owns those).
    pub fn render(&self, out: &mut Vec<String>) {
        let c = |n: &AtomicU64| n.load(Ordering::Relaxed);
        out.push(format!("STAT queries_total {}", c(&self.queries)));
        out.push(format!("STAT errors_total {}", c(&self.errors)));
        out.push(format!("STAT busy_rejections {}", c(&self.busy_rejections)));
        out.push(format!("STAT timeouts {}", c(&self.timeouts)));
        out.push(format!("STAT rows_returned {}", c(&self.rows_returned)));
        out.push(format!("STAT buffer_hits {}", c(&self.buffer_hits)));
        out.push(format!("STAT buffer_misses {}", c(&self.buffer_misses)));
        out.push(format!("STAT batch_pins {}", c(&self.batch_pins)));
        out.push(format!("STAT pins_saved {}", c(&self.pins_saved)));
        out.push(format!("STAT updates_total {}", c(&self.updates)));
        out.push(format!("STAT checkpoints_total {}", c(&self.checkpoints)));
        out.push(format!("STAT active_workers {}", c(&self.active_workers)));
        out.push(format!("STAT connections_total {}", c(&self.connections)));
        out.push(format!(
            "STAT latency_p50_us {}",
            self.latency.quantile_us(0.50)
        ));
        out.push(format!(
            "STAT latency_p95_us {}",
            self.latency.quantile_us(0.95)
        ));
        out.push(format!(
            "STAT latency_p99_us {}",
            self.latency.quantile_us(0.99)
        ));
    }
}

/// RAII guard for the active-worker gauge.
pub struct ActiveGuard<'a>(&'a Metrics);

impl<'a> ActiveGuard<'a> {
    /// Increments the gauge until dropped.
    pub fn enter(metrics: &'a Metrics) -> Self {
        metrics.active_workers.fetch_add(1, Ordering::Relaxed);
        ActiveGuard(metrics)
    }
}

impl Drop for ActiveGuard<'_> {
    fn drop(&mut self) {
        self.0.active_workers.fetch_sub(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_track_buckets() {
        let h = LatencyHistogram::default();
        assert_eq!(h.quantile_us(0.5), 0);
        for _ in 0..90 {
            h.record(Duration::from_micros(10)); // bucket [8, 16)
        }
        for _ in 0..10 {
            h.record(Duration::from_millis(10)); // bucket [8192, 16384)
        }
        assert_eq!(h.quantile_us(0.50), 16);
        assert_eq!(h.quantile_us(0.95), 16384);
        assert!(h.quantile_us(0.99) >= 16384);
    }

    #[test]
    fn active_gauge_balances() {
        let m = Metrics::default();
        {
            let _a = ActiveGuard::enter(&m);
            let _b = ActiveGuard::enter(&m);
            assert_eq!(m.active_workers.load(Ordering::Relaxed), 2);
        }
        assert_eq!(m.active_workers.load(Ordering::Relaxed), 0);
    }
}
