//! Serving-layer tuning knobs.

use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Queries per mini-GEMM tile of the specialized batch kernels
/// (`laf_vector`'s `dot4` path processes 4 queries per dataset-row load).
/// [`crate::ServeStats`] counts the batches that fill whole tiles.
pub const TILE: usize = 4;

/// Tuning knobs for [`crate::LafServer`].
///
/// The defaults target the container-scale workloads of the benches; real
/// deployments tune `max_queue_depth` against memory and tail-latency
/// bounds. No knob trades latency for batching: the dispatcher is
/// work-conserving, so a lone request is answered on arrival and batches
/// form from the requests that queue behind a running batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServeConfig {
    /// Largest merged batch handed to one kernel call. Values are clamped to
    /// at least 1; `1` degenerates to one-request-at-a-time dispatch (the
    /// uncoalesced baseline arm of `exp_serving`).
    pub max_batch: usize,
    /// Admission-control bound: submissions beyond this many queued requests
    /// are rejected with [`crate::ServeError::Overloaded`] instead of
    /// buffering without limit.
    pub max_queue_depth: usize,
    /// Mutable servers only: once a batch leaves at least this many pending
    /// operations (delta rows + tombstones), the dispatcher folds them into
    /// a fresh base snapshot and publishes it as a new epoch. `0` disables
    /// automatic compaction (the default — immutable servers and callers
    /// that compact on their own schedule).
    pub compact_threshold: usize,
    /// Per-request deadline for the blocking submission paths, in
    /// microseconds. A request still unanswered after this long fails with
    /// [`crate::ServeError::Timeout`] — the caller unblocks, the dispatcher
    /// still finishes the work and discards the unclaimed result. `0` (the
    /// default) disables deadlines: blocking calls wait as long as it
    /// takes.
    pub request_deadline_us: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            max_batch: 64,
            max_queue_depth: 1024,
            compact_threshold: 0,
            request_deadline_us: 0,
        }
    }
}

impl ServeConfig {
    /// The baseline configuration `exp_serving` compares against:
    /// single-request batches, so every query runs the scalar kernel path
    /// exactly as a direct synchronous call would, however deep the queue.
    pub fn uncoalesced() -> Self {
        Self {
            max_batch: 1,
            ..Self::default()
        }
    }

    /// The per-request deadline as a [`Duration`]; `None` when disabled.
    pub fn deadline(&self) -> Option<Duration> {
        (self.request_deadline_us > 0).then(|| Duration::from_micros(self.request_deadline_us))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = ServeConfig::default();
        assert!(c.max_batch >= TILE);
        assert!(c.max_queue_depth >= c.max_batch);
    }

    #[test]
    fn uncoalesced_is_one_at_a_time() {
        let c = ServeConfig::uncoalesced();
        assert_eq!(c.max_batch, 1);
        assert_eq!(c.max_queue_depth, ServeConfig::default().max_queue_depth);
    }

    #[test]
    fn config_serde_round_trip() {
        let c = ServeConfig {
            max_batch: 32,
            max_queue_depth: 256,
            compact_threshold: 128,
            request_deadline_us: 5_000,
        };
        let json = serde_json::to_string(&c).unwrap();
        let back: ServeConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(c, back);
        // Configs written before the coalescing window was removed still load.
        let old = json.replacen('{', r#"{"coalesce_window_us":200,"#, 1);
        assert_eq!(serde_json::from_str::<ServeConfig>(&old).unwrap(), c);
    }

    #[test]
    fn deadline_is_none_when_disabled() {
        assert_eq!(ServeConfig::default().deadline(), None);
        let c = ServeConfig {
            request_deadline_us: 250,
            ..ServeConfig::default()
        };
        assert_eq!(c.deadline(), Some(Duration::from_micros(250)));
    }
}
