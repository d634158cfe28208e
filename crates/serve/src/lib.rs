//! # laf-serve
//!
//! Concurrent serving front for trained LAF pipelines: request coalescing
//! into the batch kernels, admission control, and atomic snapshot
//! hot-reload.
//!
//! ## Why a serving layer
//!
//! [`laf_core::LafPipeline`] is a synchronous handle: each caller runs its
//! own query, one at a time, on the scalar kernel path. But the specialized
//! distance kernels underneath (see `laf_vector`'s `MetricKernel`) have a
//! query-major mini-GEMM batch path that amortizes every dataset-row load
//! across [`TILE`] queries — throughput that independent single-query
//! callers can never reach. [`LafServer`] closes that gap with the standard
//! continuous-batching idea: requests from any number of threads land in a
//! queue, a dispatcher thread merges whatever queued while it was busy, one
//! batch-kernel call answers the whole merged batch, and the per-request
//! results scatter back to the blocked callers. Each engine's
//! batch entry points are bit-identical to its per-query forms, so
//! coalescing is invisible to callers — same results, better throughput.
//!
//! Submission comes in two shapes: the blocking methods
//! ([`LafServer::range`], [`LafServer::range_count`], …) block until their
//! result is served, and the `*_async` variants return a [`Ticket`]
//! immediately so one caller can keep several requests in flight. Pipelined
//! tickets are how a single connection still feeds full tiles: the
//! dispatcher coalesces whatever is queued, no matter how many threads
//! queued it.
//!
//! ## One front door
//!
//! Every request kind — the four reads and the two writes — is a variant of
//! [`QueryRequest`], answered by the matching [`QueryResponse`] variant
//! through [`LafServer::submit`] / [`LafServer::submit_async`] (and
//! [`TenantServer::submit`] for multi-tenant routing). The per-kind typed
//! methods are thin wrappers over the same submission path, kept so
//! existing call sites read naturally; routers and protocol shims should
//! hold `QueryRequest` values and call `submit`.
//!
//! ## Mutable serving
//!
//! [`LafServer::start_mutable`] serves a [`laf_core::MutablePipeline`]:
//! insert/delete requests route through its write-ahead log and reads
//! answer through the merged base+delta path, all in queue order, so a
//! caller that pipelines a write then a read observes its own write.
//! Writes in one batch share a single WAL sync (group commit) and are
//! acknowledged only after it succeeds. With
//! [`ServeConfig::compact_threshold`] set, the dispatcher folds the delta
//! into a fresh base snapshot in the background of the request stream and
//! publishes it as a new epoch — the mutable plane's hot-reload.
//!
//! ## Flush policy
//!
//! The dispatcher is **work-conserving**: it never idles while requests
//! wait, and never holds a request back hoping for batch-mates.
//!
//! 1. **Flush** — whenever the dispatcher is free it takes everything
//!    queued, up to `max_batch`, at once. A lone request is therefore
//!    answered on arrival, and batches form only from requests that
//!    arrived while the previous batch was running — so coalescing (and
//!    WAL group commit on mutable servers) grows with load by itself, with
//!    no window to tune.
//! 2. **Wake** — a submitter signals the dispatcher only when it is parked
//!    on an empty queue; a busy dispatcher re-reads the queue before it
//!    parks. The parked flag lives under the queue lock, so no wake-up is
//!    lost.
//! 3. **Shutdown** — the server is stopping: everything queued is drained
//!    and answered, never dropped.
//!
//! [`ServeStatsReport`] shows the result per stage: the queue wait of every
//! request, the execute time of every batch, and the batch-size histogram.
//!
//! ## Admission control
//!
//! The queue is bounded by `max_queue_depth`. A submission that finds the
//! queue full fails fast with [`ServeError::Overloaded`] instead of
//! buffering without limit — under sustained overload the queue would
//! otherwise grow unboundedly, turning a throughput deficit into unbounded
//! memory growth and unbounded latency. Rejected requests are counted on
//! [`ServeStats`]; the retry policy belongs to the caller.
//!
//! ## Hot reload
//!
//! [`LafServer::reload`] swaps the served snapshot atomically: the
//! replacement pipeline's engine is built *before* the swap, then an
//! epoch-tagged `Arc` flip makes it current. Batches already dispatched
//! drain on the epoch they started with (they hold the old `Arc`, which the
//! mmap snapshot path makes cheap to keep alive); every response carries
//! the epoch that served it ([`Served::epoch`]), so callers can tell
//! exactly which snapshot generation answered. No lock is held across any
//! kernel work and no request is ever lost or answered by a mix of epochs.
//!
//! ## Multi-tenant snapshot cache
//!
//! A host that serves many tenants cannot keep every snapshot resident.
//! [`SnapshotCache`] is a buffer manager over snapshot files: tenants
//! register their (read-only) snapshot paths, [`SnapshotCache::pin`]
//! returns a pinned pipeline — loading it via mmap on a miss, evicting
//! unpinned victims chosen by an [`EvictionPolicy`] (LRU by default) when
//! the byte budget or entry cap would be exceeded — and dropping the
//! [`PinnedSnapshot`] guard makes the entry evictable again. Pinned
//! entries are never evicted; an admission that cannot make room fails
//! with the typed [`CacheError::Overloaded`], and a non-loading
//! [`SnapshotCache::try_pin`] reports cold tenants as
//! [`CacheError::Evicted`]. [`TenantServer`] routes per-tenant queries
//! through the cache with answers bit-identical to the tenant's own
//! pipeline.
//!
//! ## Self-healing maintenance
//!
//! [`SnapshotCache::scrub`] detects on-disk corruption and quarantines it;
//! [`MaintenanceSupervisor`] closes the loop unattended: a background
//! thread periodically scrubs, and drives every quarantined tenant through
//! a `Healthy → Quarantined → Repairing → Healthy | Failed` state machine
//! by re-fetching a known-good snapshot from a [`SnapshotSource`] (an
//! ordered replica set), fully CRC-verifying each candidate, and
//! publishing it through the ordinary [`SnapshotCache::register`] path —
//! so concurrent pins never observe a half-repaired tenant. Pacing is
//! injectable ([`MaintenanceConfig::scrub_interval_us`] `0` = manual
//! [`MaintenanceSupervisor::tick`]s, the mode the chaos tests drive) and
//! every transition is counted on [`CacheStatsReport`].
//!
//! ```
//! use laf_serve::{LafServer, ServeConfig};
//! # use laf_core::{LafConfig, LafPipeline};
//! # use laf_cardest::{NetConfig, TrainingSetBuilder};
//! # let (data, _) = laf_synth::EmbeddingMixtureConfig {
//! #     n_points: 200, dim: 8, clusters: 3, ..Default::default()
//! # }.generate().unwrap();
//! # let pipeline = LafPipeline::builder(LafConfig::new(0.3, 4, 1.0))
//! #     .net(NetConfig::tiny())
//! #     .training(TrainingSetBuilder { max_queries: Some(40), ..Default::default() })
//! #     .train(data).unwrap();
//! let query: Vec<f32> = pipeline.data().row(0).to_vec();
//! let server = LafServer::start(pipeline, ServeConfig::default());
//! std::thread::scope(|scope| {
//!     for _ in 0..8 {
//!         let (server, query) = (&server, &query);
//!         scope.spawn(move || {
//!             let served = server.range(query, 0.3).expect("admitted");
//!             assert!(served.value.contains(&0));
//!         });
//!     }
//! });
//! let report = server.shutdown();
//! assert_eq!(report.completed, 8);
//! ```

#![warn(missing_docs)]

mod cache;
mod config;
mod maintenance;
mod request;
mod server;
mod stats;
mod tenant;

pub use cache::{
    CacheConfig, CacheError, CacheStats, CacheStatsReport, EvictionPolicy, LruPolicy,
    PinnedSnapshot, ScrubReport, SnapshotCache,
};
pub use config::{ServeConfig, TILE};
pub use maintenance::{
    MaintenanceConfig, MaintenanceSupervisor, RepairError, ReplicaSet, SnapshotSource, TenantHealth,
};
pub use request::{InvalidRequest, QueryRequest, QueryResponse, WriteError};
pub use server::{LafServer, ServeError, Served, Ticket};
pub use stats::{OccupancyBucket, ServeStats, ServeStatsReport, StageLatency, OCCUPANCY_BUCKETS};
pub use tenant::TenantServer;
