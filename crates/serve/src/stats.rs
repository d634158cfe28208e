//! Aggregate serving counters: admission, batch occupancy, stage latency,
//! reloads.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Upper bounds (inclusive) of the batch-occupancy histogram buckets. The
/// dispatcher is work-conserving, so a batch holds exactly the requests
/// that queued while the previous batch ran: size 1 means the server kept
/// up with arrivals, larger sizes show how much load coalesced. The first
/// [`crate::TILE`] buckets are exact sizes (whether batches fill whole
/// `dot4` tiles) and the tail is power-of-two ranges up to the default
/// `max_batch`.
const OCCUPANCY_BOUNDS: [u64; 8] = [1, 2, 3, 4, 8, 16, 32, 64];

/// Number of occupancy buckets (the bounds above plus an overflow bucket).
pub const OCCUPANCY_BUCKETS: usize = OCCUPANCY_BOUNDS.len() + 1;

/// Human-readable label for occupancy bucket `i`.
fn bucket_label(i: usize) -> String {
    match i {
        0..=3 => format!("{}", OCCUPANCY_BOUNDS[i]),
        _ if i < OCCUPANCY_BOUNDS.len() => {
            format!("{}-{}", OCCUPANCY_BOUNDS[i - 1] + 1, OCCUPANCY_BOUNDS[i])
        }
        _ => format!(">{}", OCCUPANCY_BOUNDS[OCCUPANCY_BOUNDS.len() - 1]),
    }
}

fn bucket_index(batch_size: usize) -> usize {
    OCCUPANCY_BOUNDS
        .iter()
        .position(|&b| batch_size as u64 <= b)
        .unwrap_or(OCCUPANCY_BOUNDS.len())
}

/// Buckets of a stage-latency histogram: bucket 0 counts samples under
/// 1 µs, bucket `i` samples in `[2^(i-1), 2^i)` µs, and the last bucket
/// also takes every longer sample.
const STAGE_BUCKETS: usize = 32;

/// Lock-free log2 histogram of one serving stage's latency.
#[derive(Debug, Default)]
struct StageClock {
    total_us: AtomicU64,
    buckets: [AtomicU64; STAGE_BUCKETS],
}

impl StageClock {
    fn record(&self, elapsed: Duration) {
        let us = u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX);
        let bucket = ((u64::BITS - us.leading_zeros()) as usize).min(STAGE_BUCKETS - 1);
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.total_us.fetch_add(us, Ordering::Relaxed);
    }

    fn report(&self) -> StageLatency {
        let mut buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        while buckets.last() == Some(&0) {
            buckets.pop();
        }
        let samples: u64 = buckets.iter().sum();
        // Exclusive upper bound of the bucket holding the q-quantile.
        let quantile = |q: f64| {
            let rank = (q * samples as f64).ceil().max(1.0) as u64;
            let mut seen = 0;
            buckets
                .iter()
                .position(|&n| {
                    seen += n;
                    seen >= rank
                })
                .map_or(0, |i| 1u64 << i)
        };
        StageLatency {
            samples,
            mean_us: if samples == 0 {
                0.0
            } else {
                self.total_us.load(Ordering::Relaxed) as f64 / samples as f64
            },
            p50_us: quantile(0.50),
            p99_us: quantile(0.99),
            buckets,
        }
    }

    fn reset(&self) {
        self.total_us.store(0, Ordering::Relaxed);
        for bucket in &self.buckets {
            bucket.store(0, Ordering::Relaxed);
        }
    }
}

/// Lock-free aggregate counters maintained by a [`crate::LafServer`].
///
/// All counters are monotone (relaxed atomics); [`ServeStats::report`] takes
/// a point-in-time snapshot. Counts observed while requests are in flight
/// may be mid-update relative to each other — exact invariants (e.g.
/// `submitted == completed + rejected`) hold once the server is idle or shut
/// down.
#[derive(Debug, Default)]
pub struct ServeStats {
    submitted: AtomicU64,
    rejected: AtomicU64,
    completed: AtomicU64,
    batches: AtomicU64,
    tile_batches: AtomicU64,
    reloads: AtomicU64,
    compact_failures: AtomicU64,
    timeouts: AtomicU64,
    wal_sync_retries: AtomicU64,
    compact_retries: AtomicU64,
    flush_retries: AtomicU64,
    reload_failures: AtomicU64,
    peak_queue_depth: AtomicU64,
    occupancy: [AtomicU64; OCCUPANCY_BUCKETS],
    queue_wait: StageClock,
    execute: StageClock,
}

impl ServeStats {
    /// Record an admitted request and the queue depth it observed.
    pub(crate) fn record_submit(&self, queue_depth: usize) {
        self.submitted.fetch_add(1, Ordering::Relaxed);
        self.peak_queue_depth
            .fetch_max(queue_depth as u64, Ordering::Relaxed);
    }

    /// Record a request rejected by admission control.
    pub(crate) fn record_reject(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Record how long a request sat in the queue before the dispatcher
    /// drained it into a batch.
    pub(crate) fn record_queue_wait(&self, waited: Duration) {
        self.queue_wait.record(waited);
    }

    /// Record one answered request, as its answer is handed to the caller
    /// (never before the answer exists, so a caller holding a result always
    /// sees it counted).
    pub(crate) fn record_completion(&self) {
        self.completed.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one executed batch of `size` requests and how long it kept
    /// the dispatcher busy.
    pub(crate) fn record_batch(&self, size: usize, execute: Duration) {
        self.execute.record(execute);
        self.batches.fetch_add(1, Ordering::Relaxed);
        if size > 0 && size.is_multiple_of(crate::TILE) {
            self.tile_batches.fetch_add(1, Ordering::Relaxed);
        }
        self.occupancy[bucket_index(size)].fetch_add(1, Ordering::Relaxed);
    }

    /// Record a snapshot hot-reload.
    pub(crate) fn record_reload(&self) {
        self.reloads.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a failed background compaction (the error itself is not
    /// surfaced to any request — this counter is the diagnostic).
    pub(crate) fn record_compact_failure(&self) {
        self.compact_failures.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a blocking request that gave up waiting (its deadline
    /// expired before the dispatcher served it).
    pub(crate) fn record_timeout(&self) {
        self.timeouts.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one retried WAL sync (the retry that *followed* a transient
    /// sync failure — a group commit that needed two attempts counts one).
    pub(crate) fn record_wal_sync_retry(&self) {
        self.wal_sync_retries.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one retried background compaction attempt.
    pub(crate) fn record_compact_retry(&self) {
        self.compact_retries.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one retried dispatcher flush (a transient stall absorbed
    /// before the batch was dispatched — the batch is never dropped).
    pub(crate) fn record_flush_retry(&self) {
        self.flush_retries.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a snapshot hot-reload whose epoch flip failed: the server
    /// kept serving the previous epoch.
    pub(crate) fn record_reload_failure(&self) {
        self.reload_failures.fetch_add(1, Ordering::Relaxed);
    }

    /// Background compactions that failed so far.
    pub fn compact_failures(&self) -> u64 {
        self.compact_failures.load(Ordering::Relaxed)
    }

    /// Blocking requests that hit their deadline so far.
    pub fn timeouts(&self) -> u64 {
        self.timeouts.load(Ordering::Relaxed)
    }

    /// WAL sync retries performed so far.
    pub fn wal_sync_retries(&self) -> u64 {
        self.wal_sync_retries.load(Ordering::Relaxed)
    }

    /// Background compaction retries performed so far.
    pub fn compact_retries(&self) -> u64 {
        self.compact_retries.load(Ordering::Relaxed)
    }

    /// Dispatcher flush retries performed so far.
    pub fn flush_retries(&self) -> u64 {
        self.flush_retries.load(Ordering::Relaxed)
    }

    /// Hot-reload epoch flips that failed so far.
    pub fn reload_failures(&self) -> u64 {
        self.reload_failures.load(Ordering::Relaxed)
    }

    /// Requests admitted so far.
    pub fn submitted(&self) -> u64 {
        self.submitted.load(Ordering::Relaxed)
    }

    /// Requests rejected by admission control so far.
    pub fn rejected(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }

    /// Requests answered so far.
    pub fn completed(&self) -> u64 {
        self.completed.load(Ordering::Relaxed)
    }

    /// Point-in-time snapshot of every counter.
    pub fn report(&self) -> ServeStatsReport {
        let batches = self.batches.load(Ordering::Relaxed);
        let completed = self.completed.load(Ordering::Relaxed);
        ServeStatsReport {
            submitted: self.submitted.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            completed,
            batches,
            tile_batches: self.tile_batches.load(Ordering::Relaxed),
            reloads: self.reloads.load(Ordering::Relaxed),
            compact_failures: self.compact_failures.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            wal_sync_retries: self.wal_sync_retries.load(Ordering::Relaxed),
            compact_retries: self.compact_retries.load(Ordering::Relaxed),
            flush_retries: self.flush_retries.load(Ordering::Relaxed),
            reload_failures: self.reload_failures.load(Ordering::Relaxed),
            peak_queue_depth: self.peak_queue_depth.load(Ordering::Relaxed),
            mean_batch_occupancy: if batches == 0 {
                0.0
            } else {
                completed as f64 / batches as f64
            },
            occupancy: self
                .occupancy
                .iter()
                .enumerate()
                .map(|(i, c)| OccupancyBucket {
                    batch_size: bucket_label(i),
                    batches: c.load(Ordering::Relaxed),
                })
                .collect(),
            queue_wait: self.queue_wait.report(),
            execute: self.execute.report(),
        }
    }

    /// Zero every counter (e.g. between warmup and the timed bench window).
    pub fn reset(&self) {
        self.submitted.store(0, Ordering::Relaxed);
        self.rejected.store(0, Ordering::Relaxed);
        self.completed.store(0, Ordering::Relaxed);
        self.batches.store(0, Ordering::Relaxed);
        self.tile_batches.store(0, Ordering::Relaxed);
        self.reloads.store(0, Ordering::Relaxed);
        self.compact_failures.store(0, Ordering::Relaxed);
        self.timeouts.store(0, Ordering::Relaxed);
        self.wal_sync_retries.store(0, Ordering::Relaxed);
        self.compact_retries.store(0, Ordering::Relaxed);
        self.flush_retries.store(0, Ordering::Relaxed);
        self.reload_failures.store(0, Ordering::Relaxed);
        self.peak_queue_depth.store(0, Ordering::Relaxed);
        for bucket in &self.occupancy {
            bucket.store(0, Ordering::Relaxed);
        }
        self.queue_wait.reset();
        self.execute.reset();
    }
}

/// One row of the batch-occupancy histogram.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OccupancyBucket {
    /// Batch-size range this bucket covers (`"1"`..`"4"` exact, then ranges).
    pub batch_size: String,
    /// Number of dispatched batches whose size fell in the range.
    pub batches: u64,
}

/// Snapshot of one serving stage's log2 latency histogram.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct StageLatency {
    /// Samples recorded.
    pub samples: u64,
    /// Mean sample, microseconds.
    pub mean_us: f64,
    /// Median, as the exclusive upper bound of its log2 bucket (µs).
    pub p50_us: u64,
    /// 99th percentile, as the exclusive upper bound of its log2 bucket (µs).
    pub p99_us: u64,
    /// Samples per bucket: bucket 0 is under 1 µs, bucket `i` is
    /// `[2^(i-1), 2^i)` µs. Trailing empty buckets are omitted.
    pub buckets: Vec<u64>,
}

/// Serializable snapshot of [`ServeStats`], embedded in `BENCH_serving.json`
/// and printed by the `serve-concurrent` example mode.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeStatsReport {
    /// Requests admitted past admission control.
    pub submitted: u64,
    /// Requests rejected with `Overloaded`.
    pub rejected: u64,
    /// Requests answered.
    pub completed: u64,
    /// Kernel batches dispatched.
    pub batches: u64,
    /// Batches whose size was a whole multiple of the `dot4` tile.
    pub tile_batches: u64,
    /// Snapshot hot-reloads performed.
    pub reloads: u64,
    /// Background compactions that failed (mutable servers only; the
    /// dispatcher backs off until the write backlog grows further).
    pub compact_failures: u64,
    /// Blocking requests that hit their [`crate::ServeConfig`] deadline
    /// and unblocked with [`crate::ServeError::Timeout`].
    #[serde(default)]
    pub timeouts: u64,
    /// Transient WAL group-commit sync failures absorbed by retry.
    #[serde(default)]
    pub wal_sync_retries: u64,
    /// Transient background-compaction failures absorbed by retry.
    #[serde(default)]
    pub compact_retries: u64,
    /// Transient dispatcher flush stalls absorbed by retry (the
    /// `serve.coalesce.flush` failpoint; no batch is ever dropped).
    #[serde(default)]
    pub flush_retries: u64,
    /// Hot-reload epoch flips that failed ([`crate::ServeError::ReloadFailed`]);
    /// the server kept serving the previous epoch.
    #[serde(default)]
    pub reload_failures: u64,
    /// Highest queue depth observed at submission time.
    pub peak_queue_depth: u64,
    /// `completed / batches` — the average coalescing factor.
    pub mean_batch_occupancy: f64,
    /// Histogram of dispatched batch sizes.
    pub occupancy: Vec<OccupancyBucket>,
    /// Queue wait: submission until the dispatcher drains the request into
    /// a batch. One sample per answered request.
    #[serde(default)]
    pub queue_wait: StageLatency,
    /// Batch execution: drain until the dispatcher is free again (kernel
    /// calls, WAL group commit, scatter, and any compaction the batch
    /// triggers). One sample per batch.
    #[serde(default)]
    pub execute: StageLatency,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_cover_exact_tile_sizes_then_ranges() {
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(5), 4);
        assert_eq!(bucket_index(8), 4);
        assert_eq!(bucket_index(64), 7);
        assert_eq!(bucket_index(65), 8);
        assert_eq!(bucket_label(0), "1");
        assert_eq!(bucket_label(4), "5-8");
        assert_eq!(bucket_label(8), ">64");
    }

    #[test]
    fn report_reflects_recorded_events() {
        let stats = ServeStats::default();
        stats.record_submit(3);
        stats.record_submit(7);
        stats.record_reject();
        stats.record_batch(4, Duration::from_micros(90));
        stats.record_batch(1, Duration::from_micros(10));
        for waited_us in [0, 1, 3, 200, 300] {
            stats.record_queue_wait(Duration::from_micros(waited_us));
            stats.record_completion();
        }
        stats.record_reload();
        let report = stats.report();
        assert_eq!(report.submitted, 2);
        assert_eq!(report.rejected, 1);
        assert_eq!(report.completed, 5);
        assert_eq!(report.batches, 2);
        assert_eq!(report.tile_batches, 1);
        assert_eq!(report.reloads, 1);
        assert_eq!(report.peak_queue_depth, 7);
        assert!((report.mean_batch_occupancy - 2.5).abs() < 1e-12);
        assert_eq!(report.occupancy[3].batches, 1, "one size-4 batch");
        assert_eq!(report.occupancy[0].batches, 1, "one size-1 batch");
        assert_eq!(report.queue_wait.samples, report.completed);
        assert_eq!(report.queue_wait.buckets, [1, 1, 1, 0, 0, 0, 0, 0, 1, 1]);
        assert!((report.queue_wait.mean_us - 504.0 / 5.0).abs() < 1e-9);
        assert_eq!(report.queue_wait.p50_us, 4, "median 3 us lies in [2, 4)");
        assert_eq!(report.queue_wait.p99_us, 512, "300 us lies in [256, 512)");
        assert_eq!(report.execute.samples, report.batches);
        assert_eq!(report.execute.p50_us, 16);

        stats.reset();
        let zeroed = stats.report();
        assert_eq!(zeroed.submitted, 0);
        assert_eq!(zeroed.batches, 0);
        assert!(zeroed.occupancy.iter().all(|b| b.batches == 0));
        assert_eq!(zeroed.queue_wait, StageLatency::default());
        assert_eq!(zeroed.execute, StageLatency::default());
    }

    #[test]
    fn report_serde_round_trip() {
        let stats = ServeStats::default();
        stats.record_submit(1);
        stats.record_batch(3, Duration::from_micros(42));
        stats.record_queue_wait(Duration::from_micros(7));
        stats.record_completion();
        let report = stats.report();
        let json = serde_json::to_string(&report).unwrap();
        let back: ServeStatsReport = serde_json::from_str(&json).unwrap();
        assert_eq!(report, back);
    }
}
