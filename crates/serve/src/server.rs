//! The coalescing dispatcher: [`LafServer`].

use crate::config::ServeConfig;
use crate::request::{InvalidRequest, QueryRequest, QueryResponse, WriteError};
use crate::stats::{ServeStats, ServeStatsReport};
use laf_core::fault;
use laf_core::{LafPipeline, MutablePipeline, SharedEngine, SnapshotError};
use laf_index::Neighbor;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Retry budget for the dispatcher's transient-I/O edges: a failed WAL
/// group-commit sync is retried up to this many times before the batch's
/// writes are rejected, and a failed background compaction up to
/// [`COMPACT_RETRIES`] times before the failure latches the backoff floor.
/// Backoff doubles from [`RETRY_BACKOFF_BASE_US`] per retry.
const WAL_SYNC_RETRIES: u32 = 3;
/// Immediate re-attempts of a failed background compaction (see
/// [`WAL_SYNC_RETRIES`]); the existing backlog-growth backoff still governs
/// when a batch re-attempts after these are exhausted.
const COMPACT_RETRIES: u32 = 2;

/// Retry budget for a transient dispatcher flush stall (the
/// `serve.coalesce.flush` failpoint). The batch is dispatched after the
/// budget regardless — a stall delays a flush, it never drops one.
const FLUSH_RETRIES: u32 = 3;
/// First-retry backoff; retry `n` sleeps `base << (n - 1)` microseconds.
const RETRY_BACKOFF_BASE_US: u64 = 100;

/// Sleep before retry number `attempt` (1-based) of a transient failure.
fn retry_backoff(attempt: u32) {
    std::thread::sleep(Duration::from_micros(
        RETRY_BACKOFF_BASE_US << (attempt - 1).min(10),
    ));
}

/// Why a submission did not produce a result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeError {
    /// Admission control rejected the request: the queue already held
    /// `depth` requests against a bound of `limit`. The caller owns the
    /// retry policy (back off, shed load, or fail the end-user request);
    /// the server never buffers beyond the bound.
    Overloaded {
        /// Queue depth observed at submission time.
        depth: usize,
        /// The configured `max_queue_depth`.
        limit: usize,
    },
    /// The server is shutting down and no longer admits requests.
    ShuttingDown,
    /// A write was submitted to a server without a mutable pipeline (one
    /// started with [`LafServer::start`] rather than
    /// [`LafServer::start_mutable`]).
    ReadOnly,
    /// The caller's deadline expired before the dispatcher served the
    /// request ([`ServeConfig::request_deadline_us`] on the blocking paths,
    /// or an explicit [`Ticket::wait_timeout`]). The request itself is
    /// **not** cancelled: the dispatcher still answers and counts it, the
    /// result is simply abandoned — exactly like dropping a ticket.
    Timeout {
        /// How long the caller waited before giving up, in microseconds.
        waited_us: u64,
    },
    /// A [`LafServer::reload`] epoch flip failed; the server kept serving
    /// the previous epoch. The caller still owns the replacement workflow
    /// (rebuild the pipeline and reload again).
    ReloadFailed,
    /// A read query does not fit the served dataset; it was refused before
    /// it was queued, so it can never disturb the dispatcher.
    InvalidRequest(InvalidRequest),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Overloaded { depth, limit } => {
                write!(f, "server overloaded: queue depth {depth} at limit {limit}")
            }
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
            ServeError::ReadOnly => write!(f, "server is read-only: writes need start_mutable"),
            ServeError::Timeout { waited_us } => {
                write!(f, "request deadline expired after {waited_us}us")
            }
            ServeError::ReloadFailed => {
                write!(
                    f,
                    "epoch flip failed: the previous snapshot is still serving"
                )
            }
            ServeError::InvalidRequest(reason) => write!(f, "invalid request: {reason}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// A served result, tagged with the snapshot epoch that produced it.
///
/// Hot-reload makes the epoch part of the response contract: a caller that
/// races a [`LafServer::reload`] can tell which snapshot answered, and the
/// stress tests use it to verify responses are never torn across epochs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Served<T> {
    /// The epoch of the snapshot that served this result (starts at 1,
    /// incremented by every [`LafServer::reload`]).
    pub epoch: u64,
    /// The result itself.
    pub value: T,
}

/// One queued request kind, query vector owned so it outlives the caller's
/// borrow while the request waits in the queue.
enum Work {
    Range { query: Vec<f32>, eps: f32 },
    RangeCount { query: Vec<f32>, eps: f32 },
    Knn { query: Vec<f32>, k: usize },
    Estimate { query: Vec<f32>, eps: f32 },
    Insert { row: Vec<f32> },
    Delete { dense: u64 },
}

impl Work {
    fn query(&self) -> &[f32] {
        match self {
            Work::Range { query, .. }
            | Work::RangeCount { query, .. }
            | Work::Knn { query, .. }
            | Work::Estimate { query, .. } => query,
            Work::Insert { row } => row,
            Work::Delete { .. } => &[],
        }
    }

    /// Batch-grouping key: requests dispatch through one kernel call iff
    /// they share a kind and its parameter (ε compared by bit pattern — the
    /// kernels take one ε per batch). Writes never group (they only occur
    /// on the mutable path, which processes the batch in queue order).
    fn group_key(&self) -> (u8, u64) {
        match self {
            Work::Range { eps, .. } => (0, eps.to_bits() as u64),
            Work::RangeCount { eps, .. } => (1, eps.to_bits() as u64),
            Work::Knn { k, .. } => (2, *k as u64),
            Work::Estimate { eps, .. } => (3, eps.to_bits() as u64),
            Work::Insert { .. } => (4, 0),
            Work::Delete { dense } => (5, *dense),
        }
    }
}

/// An answered request's payload.
enum Reply {
    Range(Vec<u32>),
    Count(usize),
    Knn(Vec<Neighbor>),
    Estimate(f32),
    Written(u64),
    Rejected(WriteError),
}

/// The rendezvous cell a blocked caller waits on.
#[derive(Default)]
struct Slot {
    filled: Mutex<Option<Served<Reply>>>,
    ready: Condvar,
}

impl Slot {
    fn deliver(&self, epoch: u64, value: Reply) {
        *self.filled.lock().unwrap() = Some(Served { epoch, value });
        self.ready.notify_one();
    }

    fn wait(&self) -> Served<Reply> {
        let mut guard = self.filled.lock().unwrap();
        loop {
            match guard.take() {
                Some(served) => return served,
                None => guard = self.ready.wait(guard).unwrap(),
            }
        }
    }

    /// Like [`Slot::wait`], but give up after `timeout`; `Err` carries the
    /// microseconds actually waited.
    fn wait_deadline(&self, timeout: Duration) -> Result<Served<Reply>, u64> {
        let start = Instant::now();
        let mut guard = self.filled.lock().unwrap();
        loop {
            if let Some(served) = guard.take() {
                return Ok(served);
            }
            let elapsed = start.elapsed();
            let Some(remaining) = timeout.checked_sub(elapsed) else {
                return Err(elapsed.as_micros() as u64);
            };
            (guard, _) = self.ready.wait_timeout(guard, remaining).unwrap();
        }
    }
}

struct Pending {
    work: Work,
    slot: Arc<Slot>,
    submitted: Instant,
}

/// A handle to a submitted-but-not-yet-answered request.
///
/// Returned by the `*_async` submission methods. Holding several tickets
/// pipelines requests: a client keeps N submissions in flight and the
/// dispatcher sees a deeper queue to coalesce from, which is how a
/// single-connection caller still feeds full dot4 tiles. Waiting consumes
/// the ticket; dropping it abandons the result (the request is still
/// answered and counted, nobody observes the value).
#[must_use = "a ticket does nothing until waited on; drop abandons the result"]
pub struct Ticket<T> {
    slot: Arc<Slot>,
    shared: Arc<Shared>,
    extract: fn(Reply) -> T,
}

impl<T> Ticket<T> {
    /// Block until the dispatcher delivers this request's result.
    pub fn wait(self) -> Served<T> {
        let served = self.slot.wait();
        Served {
            epoch: served.epoch,
            value: (self.extract)(served.value),
        }
    }

    /// Block at most `timeout` for the result. On expiry the ticket is
    /// consumed and the result abandoned — the dispatcher still answers and
    /// counts the request, exactly as if the ticket were dropped — and the
    /// timeout is counted on [`crate::ServeStats`].
    pub fn wait_timeout(self, timeout: Duration) -> Result<Served<T>, ServeError> {
        match self.slot.wait_deadline(timeout) {
            Ok(served) => Ok(Served {
                epoch: served.epoch,
                value: (self.extract)(served.value),
            }),
            Err(waited_us) => {
                self.shared.stats.record_timeout();
                Err(ServeError::Timeout { waited_us })
            }
        }
    }

    /// Whether the result is already delivered (a `wait` would not block).
    pub fn is_ready(&self) -> bool {
        self.slot.filled.lock().unwrap().is_some()
    }
}

impl<T> fmt::Debug for Ticket<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Ticket")
            .field("ready", &self.is_ready())
            .finish()
    }
}

/// One snapshot generation: the pipeline plus its built engine. In-flight
/// batches hold an `Arc<EpochState>` clone, so a reload never invalidates a
/// batch mid-dispatch — the old epoch drains, then drops.
struct EpochState {
    epoch: u64,
    pipeline: Arc<LafPipeline>,
    engine: SharedEngine,
}

struct QueueState {
    queue: VecDeque<Pending>,
    shutdown: bool,
    /// The dispatcher is parked on [`Shared::wake`] and needs a signal to
    /// see new work. Set and cleared only under the state lock.
    parked: bool,
    /// Test latch: while set (and the server is not shutting down) the
    /// dispatcher leaves the queue alone, so tests can stage an exact queue
    /// without racing the dispatcher.
    #[cfg(test)]
    hold: bool,
}

impl QueueState {
    #[cfg(test)]
    fn held(&self) -> bool {
        self.hold && !self.shutdown
    }

    #[cfg(not(test))]
    fn held(&self) -> bool {
        false
    }
}

struct Shared {
    config: ServeConfig,
    state: Mutex<QueueState>,
    /// Signals a parked dispatcher: work arrived or shutdown was requested.
    wake: Condvar,
    current: Mutex<Arc<EpochState>>,
    /// The mutable pipeline, when this server was started with
    /// [`LafServer::start_mutable`]. Only the dispatcher locks it on the
    /// hot path (batches are processed in queue order under one guard), so
    /// the mutex is uncontended in steady state.
    mutable: Option<Mutex<MutablePipeline>>,
    stats: ServeStats,
}

/// A concurrent serving front over a [`LafPipeline`].
///
/// Callers from any number of threads submit range / range-count / knn /
/// estimate requests and block until their result is ready. A dedicated
/// dispatcher thread coalesces queued requests into merged batches and runs
/// them through the engine's batch kernels, so concurrent single-query
/// callers get the query-major mini-GEMM path that a synchronous
/// one-caller-at-a-time handle can never reach. See the crate docs for the
/// flush policy, admission control and the hot-reload epoch model.
pub struct LafServer {
    shared: Arc<Shared>,
    dispatcher: Option<JoinHandle<()>>,
}

impl fmt::Debug for LafServer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LafServer")
            .field("config", &self.shared.config)
            .field("epoch", &self.current_epoch())
            .field("queue_depth", &self.queue_depth())
            .finish_non_exhaustive()
    }
}

impl LafServer {
    /// Start serving `pipeline` under `config`.
    ///
    /// Builds (or restores) the pipeline's engine eagerly — the first
    /// request should not pay the construction cost — and spawns the
    /// dispatcher thread. The server stops (draining every queued request)
    /// on [`LafServer::shutdown`] or drop.
    pub fn start(pipeline: LafPipeline, config: ServeConfig) -> Self {
        let engine = pipeline.engine();
        Self::start_inner(
            EpochState {
                epoch: 1,
                pipeline: Arc::new(pipeline),
                engine,
            },
            config,
            None,
        )
    }

    /// Start a **mutable** serving front over a [`MutablePipeline`].
    ///
    /// Reads answer through the pipeline's merged base+delta path
    /// (bit-identical to a from-scratch pipeline over the live rows) and
    /// writes route through its write-ahead log, all processed **in queue
    /// order** by the dispatcher — a caller that pipelines an insert
    /// followed by a read observes its own write. Writes in one batch are
    /// group-committed: a single WAL sync covers the batch, and results are
    /// delivered only after it succeeds.
    ///
    /// When [`ServeConfig::compact_threshold`] is non-zero, the dispatcher
    /// folds the delta into a fresh base snapshot after any batch that
    /// leaves at least that many pending operations, and publishes the
    /// compacted base as a new epoch — the same epoch-tagged flip as
    /// [`LafServer::reload`], so readers can tell exactly which base
    /// generation served them.
    pub fn start_mutable(mutable: MutablePipeline, config: ServeConfig) -> Self {
        let engine = mutable.base().engine();
        let epoch = EpochState {
            epoch: 1,
            pipeline: Arc::clone(mutable.base()),
            engine,
        };
        Self::start_inner(epoch, config, Some(mutable))
    }

    fn start_inner(
        epoch: EpochState,
        config: ServeConfig,
        mutable: Option<MutablePipeline>,
    ) -> Self {
        let shared = Arc::new(Shared {
            config,
            state: Mutex::new(QueueState {
                queue: VecDeque::new(),
                shutdown: false,
                parked: false,
                #[cfg(test)]
                hold: false,
            }),
            wake: Condvar::new(),
            current: Mutex::new(Arc::new(epoch)),
            mutable: mutable.map(Mutex::new),
            stats: ServeStats::default(),
        });
        let dispatcher = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("laf-serve-dispatch".into())
                .spawn(move || dispatch_loop(&shared))
                .expect("spawn dispatcher thread")
        };
        Self {
            shared,
            dispatcher: Some(dispatcher),
        }
    }

    /// Whether this server was started with [`LafServer::start_mutable`]
    /// (writes are admitted and reads see the mutable merge path).
    pub fn is_mutable(&self) -> bool {
        self.shared.mutable.is_some()
    }

    /// The single submission path every entry point funnels through:
    /// admission control, the queue, and the wake policy live in
    /// [`LafServer::enqueue`]; `extract` narrows the delivered [`Reply`] to
    /// the caller's type.
    ///
    /// Read queries are validated here, against the dimensionality of the
    /// epoch currently serving: a malformed query must never reach the
    /// dispatcher, where a kernel's length assertion would take down every
    /// later request.
    fn submit_work<T>(&self, work: Work, extract: fn(Reply) -> T) -> Result<Ticket<T>, ServeError> {
        if let Work::Range { query, .. }
        | Work::RangeCount { query, .. }
        | Work::Knn { query, .. }
        | Work::Estimate { query, .. } = &work
        {
            let dim = self.shared.current.lock().unwrap().pipeline.data().dim();
            InvalidRequest::check(query, dim).map_err(ServeError::InvalidRequest)?;
        }
        Ok(Ticket {
            slot: self.enqueue(work)?,
            shared: Arc::clone(&self.shared),
            extract,
        })
    }

    /// Wait policy of the blocking entry points: apply the configured
    /// per-request deadline when one is set, wait indefinitely otherwise.
    fn await_ticket<T>(&self, ticket: Ticket<T>) -> Result<Served<T>, ServeError> {
        match self.shared.config.deadline() {
            Some(deadline) => ticket.wait_timeout(deadline),
            None => Ok(ticket.wait()),
        }
    }

    /// Submit any request kind without blocking on its result.
    ///
    /// This is the unified front door: one entry point for every read and
    /// write kind, so routers hold a single `QueryRequest` value instead of
    /// dispatching across per-kind methods. The typed methods
    /// ([`LafServer::range_async`], …) remain as thin wrappers. Write kinds
    /// require a mutable server ([`LafServer::start_mutable`]) and fail at
    /// submission with [`ServeError::ReadOnly`] otherwise.
    pub fn submit_async(&self, request: QueryRequest) -> Result<Ticket<QueryResponse>, ServeError> {
        let work = match request {
            QueryRequest::Range { query, eps } => Work::Range { query, eps },
            QueryRequest::RangeCount { query, eps } => Work::RangeCount { query, eps },
            QueryRequest::Knn { query, k } => Work::Knn { query, k },
            QueryRequest::Estimate { query, eps } => Work::Estimate { query, eps },
            QueryRequest::Insert { row } => {
                self.require_mutable()?;
                Work::Insert { row }
            }
            QueryRequest::Delete { dense } => {
                self.require_mutable()?;
                Work::Delete { dense }
            }
        };
        self.submit_work(work, |reply| match reply {
            Reply::Range(hits) => QueryResponse::Range(hits),
            Reply::Count(n) => QueryResponse::Count(n),
            Reply::Knn(neighbors) => QueryResponse::Knn(neighbors),
            Reply::Estimate(est) => QueryResponse::Estimate(est),
            Reply::Written(lsn) => QueryResponse::Written { lsn },
            Reply::Rejected(err) => QueryResponse::Rejected(err),
        })
    }

    /// Submit any request kind and block until it is served; see
    /// [`LafServer::submit_async`].
    pub fn submit(&self, request: QueryRequest) -> Result<Served<QueryResponse>, ServeError> {
        let ticket = self.submit_async(request)?;
        self.await_ticket(ticket)
    }

    fn require_mutable(&self) -> Result<(), ServeError> {
        if self.shared.mutable.is_some() {
            Ok(())
        } else {
            Err(ServeError::ReadOnly)
        }
    }

    /// Submit an ε-range query without blocking on its result.
    ///
    /// The returned [`Ticket`] resolves (via [`Ticket::wait`]) to the same
    /// bits as `pipeline.engine().range(query, eps)` on the snapshot of the
    /// resolved epoch. Submitting several tickets before waiting pipelines
    /// requests from one thread.
    pub fn range_async(&self, query: &[f32], eps: f32) -> Result<Ticket<Vec<u32>>, ServeError> {
        self.submit_work(
            Work::Range {
                query: query.to_vec(),
                eps,
            },
            |reply| match reply {
                Reply::Range(hits) => hits,
                _ => unreachable!("dispatcher answered a range request with another kind"),
            },
        )
    }

    /// Submit a neighbor-count query without blocking; see
    /// [`LafServer::range_async`].
    pub fn range_count_async(&self, query: &[f32], eps: f32) -> Result<Ticket<usize>, ServeError> {
        self.submit_work(
            Work::RangeCount {
                query: query.to_vec(),
                eps,
            },
            |reply| match reply {
                Reply::Count(n) => n,
                _ => unreachable!("dispatcher answered a count request with another kind"),
            },
        )
    }

    /// Submit a k-nearest-neighbor query without blocking; see
    /// [`LafServer::range_async`].
    pub fn knn_async(&self, query: &[f32], k: usize) -> Result<Ticket<Vec<Neighbor>>, ServeError> {
        self.submit_work(
            Work::Knn {
                query: query.to_vec(),
                k,
            },
            |reply| match reply {
                Reply::Knn(neighbors) => neighbors,
                _ => unreachable!("dispatcher answered a knn request with another kind"),
            },
        )
    }

    /// Submit a learned cardinality estimate without blocking; see
    /// [`LafServer::range_async`].
    pub fn estimate_async(&self, query: &[f32], eps: f32) -> Result<Ticket<f32>, ServeError> {
        self.submit_work(
            Work::Estimate {
                query: query.to_vec(),
                eps,
            },
            |reply| match reply {
                Reply::Estimate(est) => est,
                _ => unreachable!("dispatcher answered an estimate request with another kind"),
            },
        )
    }

    /// Submit a row insert without blocking (mutable servers only).
    ///
    /// The ticket resolves to the write's WAL sequence number, delivered
    /// after the batch's group commit reaches stable storage, or to a
    /// [`WriteError`] when the pipeline rejected the write.
    pub fn insert_async(&self, row: &[f32]) -> Result<Ticket<Result<u64, WriteError>>, ServeError> {
        self.require_mutable()?;
        self.submit_work(Work::Insert { row: row.to_vec() }, |reply| match reply {
            Reply::Written(lsn) => Ok(lsn),
            Reply::Rejected(err) => Err(err),
            _ => unreachable!("dispatcher answered an insert request with another kind"),
        })
    }

    /// Submit a delete of dense live id `dense` without blocking (mutable
    /// servers only); see [`LafServer::insert_async`].
    pub fn delete_async(&self, dense: u64) -> Result<Ticket<Result<u64, WriteError>>, ServeError> {
        self.require_mutable()?;
        self.submit_work(Work::Delete { dense }, |reply| match reply {
            Reply::Written(lsn) => Ok(lsn),
            Reply::Rejected(err) => Err(err),
            _ => unreachable!("dispatcher answered a delete request with another kind"),
        })
    }

    /// ε-range query through the coalescing front. Blocks until served;
    /// bit-identical to `pipeline.engine().range(query, eps)` on the
    /// snapshot of the returned epoch.
    pub fn range(&self, query: &[f32], eps: f32) -> Result<Served<Vec<u32>>, ServeError> {
        let ticket = self.range_async(query, eps)?;
        self.await_ticket(ticket)
    }

    /// Neighbor count within `eps`, served like [`LafServer::range`].
    pub fn range_count(&self, query: &[f32], eps: f32) -> Result<Served<usize>, ServeError> {
        let ticket = self.range_count_async(query, eps)?;
        self.await_ticket(ticket)
    }

    /// k-nearest-neighbor query, served like [`LafServer::range`].
    pub fn knn(&self, query: &[f32], k: usize) -> Result<Served<Vec<Neighbor>>, ServeError> {
        let ticket = self.knn_async(query, k)?;
        self.await_ticket(ticket)
    }

    /// Learned cardinality estimate, served like [`LafServer::range`].
    pub fn estimate(&self, query: &[f32], eps: f32) -> Result<Served<f32>, ServeError> {
        let ticket = self.estimate_async(query, eps)?;
        self.await_ticket(ticket)
    }

    /// Insert a row through the write-ahead log, blocking until the write's
    /// group commit is durable (mutable servers only). Resolves to the
    /// write's WAL sequence number.
    pub fn insert(&self, row: &[f32]) -> Result<Served<Result<u64, WriteError>>, ServeError> {
        let ticket = self.insert_async(row)?;
        self.await_ticket(ticket)
    }

    /// Delete the row with dense live id `dense`, blocking like
    /// [`LafServer::insert`] (mutable servers only).
    pub fn delete(&self, dense: u64) -> Result<Served<Result<u64, WriteError>>, ServeError> {
        let ticket = self.delete_async(dense)?;
        self.await_ticket(ticket)
    }

    /// Atomically swap the served snapshot: an epoch-tagged
    /// `Arc<LafPipeline>` flip.
    ///
    /// The replacement's engine is built **before** the swap is visible, so
    /// no request ever pays the construction cost inline. Requests already
    /// drained into a batch finish on the epoch they were dispatched with
    /// (their batch holds the old `Arc`); requests dispatched after the swap
    /// see the new one. Returns the new epoch number.
    ///
    /// # Errors
    /// [`ServeError::ReloadFailed`] when the epoch flip itself fails (the
    /// `serve.reload.swap` failpoint under fault injection). The failure is
    /// atomic: the previous epoch keeps serving, the replacement is
    /// discarded, and [`ServeStatsReport::reload_failures`] counts it.
    ///
    /// Immutable servers only: a mutable server publishes new epochs
    /// itself, through compaction.
    pub fn reload(&self, pipeline: LafPipeline) -> Result<u64, ServeError> {
        debug_assert!(
            self.shared.mutable.is_none(),
            "reload() on a mutable server: compaction publishes its epochs"
        );
        let engine = pipeline.engine();
        let pipeline = Arc::new(pipeline);
        let mut current = self.shared.current.lock().unwrap();
        // Failpoint: the flip fails after the engine build, before any
        // request can observe the replacement — all-or-nothing.
        if fault::fire("serve.reload.swap") {
            self.shared.stats.record_reload_failure();
            return Err(ServeError::ReloadFailed);
        }
        let epoch = current.epoch + 1;
        *current = Arc::new(EpochState {
            epoch,
            pipeline,
            engine,
        });
        self.shared.stats.record_reload();
        Ok(epoch)
    }

    /// The epoch new requests are currently served under.
    pub fn current_epoch(&self) -> u64 {
        self.shared.current.lock().unwrap().epoch
    }

    /// Live aggregate counters.
    pub fn stats(&self) -> &ServeStats {
        &self.shared.stats
    }

    /// Convenience for [`ServeStats::report`].
    pub fn stats_report(&self) -> ServeStatsReport {
        self.shared.stats.report()
    }

    /// Requests currently queued (excluding any batch being dispatched).
    pub fn queue_depth(&self) -> usize {
        self.shared.state.lock().unwrap().queue.len()
    }

    /// The configuration the server was started with.
    pub fn config(&self) -> &ServeConfig {
        &self.shared.config
    }

    /// Stop admitting requests, drain everything already queued, join the
    /// dispatcher and return the final counters. Dropping the server does
    /// the same minus the report.
    pub fn shutdown(mut self) -> ServeStatsReport {
        self.shutdown_inner();
        self.shared.stats.report()
    }

    fn shutdown_inner(&mut self) {
        self.shared.state.lock().unwrap().shutdown = true;
        self.shared.wake.notify_all();
        if let Some(handle) = self.dispatcher.take() {
            let _ = handle.join();
        }
    }

    fn enqueue(&self, work: Work) -> Result<Arc<Slot>, ServeError> {
        let slot = Arc::new(Slot::default());
        let wake = {
            let mut state = self.shared.state.lock().unwrap();
            if state.shutdown {
                return Err(ServeError::ShuttingDown);
            }
            let depth = state.queue.len();
            if depth >= self.shared.config.max_queue_depth {
                self.shared.stats.record_reject();
                return Err(ServeError::Overloaded {
                    depth,
                    limit: self.shared.config.max_queue_depth,
                });
            }
            state.queue.push_back(Pending {
                work,
                slot: Arc::clone(&slot),
                submitted: Instant::now(),
            });
            self.shared.stats.record_submit(state.queue.len());
            // Wake rule: only a parked dispatcher needs a signal — a busy
            // one re-reads the queue before it parks. The flag is read and
            // cleared under the lock the dispatcher parks under, so no
            // wake-up is lost, and the submitters queued behind this one
            // skip a redundant notify.
            std::mem::take(&mut state.parked)
        };
        if wake {
            self.shared.wake.notify_one();
        }
        Ok(slot)
    }
}

impl Drop for LafServer {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// The dispatcher thread: take whatever is queued the moment it is free,
/// run the merged batch through the batch kernels, scatter results, and
/// park only when the queue is empty.
fn dispatch_loop(shared: &Shared) {
    let max_batch = shared.config.max_batch.max(1);
    // Backoff latch for failed compactions: pending-op count the backlog
    // must reach before compaction is attempted again (0 = no failure
    // outstanding). Dispatcher-local — only this thread compacts.
    let mut compact_floor = 0usize;
    while let Some(batch) = next_batch(shared, max_batch) {
        let drained = Instant::now();
        for pending in &batch {
            shared
                .stats
                .record_queue_wait(drained.saturating_duration_since(pending.submitted));
        }
        // Failpoint: a transient flush stall (the downstream kernel pool is
        // briefly saturated). Retried with the dispatcher's usual doubling
        // backoff; the batch is dispatched after the budget no matter what —
        // a stall delays answers, it never drops them.
        let mut flush_attempt = 0;
        while fault::fire("serve.coalesce.flush") && flush_attempt < FLUSH_RETRIES {
            flush_attempt += 1;
            shared.stats.record_flush_retry();
            retry_backoff(flush_attempt);
        }
        match &shared.mutable {
            Some(mutable) => answer_mutable(shared, mutable, &batch, &mut compact_floor),
            None => {
                // The whole batch is answered by ONE epoch: grab the current
                // handle once, outside the queue lock. A concurrent reload
                // after this point affects the next batch, never this one.
                let epoch = Arc::clone(&shared.current.lock().unwrap());
                answer(&shared.stats, &epoch, &batch);
            }
        }
        shared.stats.record_batch(batch.len(), drained.elapsed());
    }
    // Final durability point: queued writes were group-committed per batch,
    // but make shutdown an explicit sync so a clean stop never depends on
    // batch timing.
    if let Some(mutable) = &shared.mutable {
        let _ = mutable.lock().unwrap().sync();
    }
}

/// Flush rule: park until work is queued, then take everything queued, up
/// to `max_batch`, at once. Under load the queue refills while a batch
/// runs, so batches (and WAL group commits) grow with the arrival rate
/// without any timed wait; a lone request is taken the moment it arrives.
/// Returns `None` once shutdown has drained the queue.
fn next_batch(shared: &Shared, max_batch: usize) -> Option<Vec<Pending>> {
    let mut state = shared.state.lock().unwrap();
    while state.queue.is_empty() || state.held() {
        if state.shutdown && state.queue.is_empty() {
            return None;
        }
        state.parked = true;
        state = shared.wake.wait(state).unwrap();
        state.parked = false;
    }
    let take = state.queue.len().min(max_batch);
    Some(state.queue.drain(..take).collect())
}

/// Answer one batch on the mutable path: every request — read or write —
/// is processed **in queue order** against the merged base+delta state, so
/// a pipelined caller reads its own writes. Successful writes are
/// group-committed with one WAL sync before any of them is acknowledged; if
/// the sync fails, their acks degrade to [`WriteError::Storage`] (the
/// in-memory state may be ahead of the log, exactly as if the process had
/// crashed before the sync — replay recovers the synced prefix).
///
/// After delivery, folds the delta into a fresh base and publishes it as a
/// new epoch when [`ServeConfig::compact_threshold`] is reached. A failed
/// compaction is counted on [`ServeStats`] and raises `compact_floor` so
/// the (likely still-failing, full-rebuild-sized) attempt is not retried on
/// every subsequent batch — only once the write backlog has grown by
/// another threshold's worth of operations.
fn answer_mutable(
    shared: &Shared,
    mutable: &Mutex<MutablePipeline>,
    batch: &[Pending],
    compact_floor: &mut usize,
) {
    let mut pipeline = mutable.lock().unwrap();
    let epoch = shared.current.lock().unwrap().epoch;
    let mut replies: Vec<Reply> = Vec::with_capacity(batch.len());
    let mut wrote = false;
    for pending in batch {
        let reply = match &pending.work {
            Work::Range { query, eps } => Reply::Range(pipeline.range(query, *eps)),
            Work::RangeCount { query, eps } => Reply::Count(pipeline.range_count(query, *eps)),
            Work::Knn { query, k } => Reply::Knn(pipeline.knn(query, *k)),
            Work::Estimate { query, eps } => Reply::Estimate(pipeline.estimate(query, *eps)),
            Work::Insert { row } => match pipeline.insert(row) {
                Ok(lsn) => {
                    wrote = true;
                    Reply::Written(lsn)
                }
                Err(SnapshotError::Malformed(_)) => Reply::Rejected(WriteError::DimensionMismatch),
                Err(_) => Reply::Rejected(WriteError::Storage),
            },
            Work::Delete { dense } => match pipeline.delete(*dense as usize) {
                Ok(lsn) => {
                    wrote = true;
                    Reply::Written(lsn)
                }
                Err(SnapshotError::Malformed(_)) => Reply::Rejected(WriteError::OutOfBounds),
                Err(_) => Reply::Rejected(WriteError::Storage),
            },
        };
        replies.push(reply);
    }
    // Group commit with bounded retry: a transient sync failure (a busy
    // device, an injected fault) is retried with doubling backoff before
    // the batch's writes are rejected. Rejecting is still safe — the
    // in-memory state may be ahead of the log, exactly as if the process
    // had crashed before the sync — but a retry that lands keeps the acks.
    let mut commit_failed = false;
    if wrote {
        for attempt in 0..=WAL_SYNC_RETRIES {
            if attempt > 0 {
                retry_backoff(attempt);
                shared.stats.record_wal_sync_retry();
            }
            commit_failed = pipeline.sync().is_err();
            if !commit_failed {
                break;
            }
        }
    }
    for (pending, reply) in batch.iter().zip(replies) {
        let reply = match reply {
            Reply::Written(_) if commit_failed => Reply::Rejected(WriteError::Storage),
            other => other,
        };
        deliver(&shared.stats, pending, epoch, reply);
    }

    let threshold = shared.config.compact_threshold;
    let pending = pipeline.pending_ops();
    if threshold != 0 && pending >= threshold && pending >= *compact_floor {
        // Bounded immediate retry for transient compaction I/O errors;
        // compact() mutates nothing visible until its manifest flip, so a
        // failed attempt is safe to re-run. Only after the retries are
        // exhausted does the failure latch the backlog-growth backoff.
        let mut result = pipeline.compact();
        let mut attempt = 0;
        while result.is_err() && attempt < COMPACT_RETRIES {
            attempt += 1;
            retry_backoff(attempt);
            shared.stats.record_compact_retry();
            result = pipeline.compact();
        }
        match result {
            Ok(()) => {
                *compact_floor = 0;
                // Failpoint: the post-compaction epoch flip fails. Safe to
                // skip — mutable reads go through the pipeline directly, so
                // only the epoch *tag* on responses stays behind until the
                // next successful publish. The compaction itself is durable.
                if fault::fire("serve.reload.swap") {
                    shared.stats.record_reload_failure();
                } else {
                    let engine = pipeline.base().engine();
                    let mut current = shared.current.lock().unwrap();
                    *current = Arc::new(EpochState {
                        epoch: current.epoch + 1,
                        pipeline: Arc::clone(pipeline.base()),
                        engine,
                    });
                    shared.stats.record_reload();
                }
            }
            Err(_) => {
                shared.stats.record_compact_failure();
                *compact_floor = pending + threshold;
            }
        }
    }
}

/// Hand `reply` to the caller waiting on `pending`, counting it answered.
fn deliver(stats: &ServeStats, pending: &Pending, epoch: u64, reply: Reply) {
    stats.record_completion();
    pending.slot.deliver(epoch, reply);
}

/// Run one merged batch through the kernels and deliver each result.
fn answer(stats: &ServeStats, epoch: &EpochState, batch: &[Pending]) {
    // Partition by (kind, parameter) so every group becomes exactly one
    // batch-kernel call; each engine guarantees its batch entry points are
    // bit-identical to the per-query forms, which is what makes coalescing
    // invisible to callers. A uniform batch (one kind, one parameter — the
    // common serving shape) skips the partition map entirely.
    let first_key = batch[0].work.group_key();
    if batch.iter().all(|p| p.work.group_key() == first_key) {
        let group: Vec<&Pending> = batch.iter().collect();
        return answer_group(stats, epoch, &group);
    }
    let mut groups: HashMap<(u8, u64), Vec<&Pending>> = HashMap::new();
    for pending in batch {
        groups
            .entry(pending.work.group_key())
            .or_default()
            .push(pending);
    }
    for group in groups.values() {
        answer_group(stats, epoch, group);
    }
}

/// One batch-kernel call for a group that shares a (kind, parameter) key.
fn answer_group(stats: &ServeStats, epoch: &EpochState, group: &[&Pending]) {
    let queries: Vec<&[f32]> = group.iter().map(|p| p.work.query()).collect();
    match &group[0].work {
        Work::Range { eps, .. } => {
            let results = epoch.engine.range_batch(&queries, *eps);
            for (pending, hits) in group.iter().zip(results) {
                deliver(stats, pending, epoch.epoch, Reply::Range(hits));
            }
        }
        Work::RangeCount { eps, .. } => {
            let results = epoch.engine.range_count_batch(&queries, *eps);
            for (pending, count) in group.iter().zip(results) {
                deliver(stats, pending, epoch.epoch, Reply::Count(count));
            }
        }
        Work::Knn { k, .. } => {
            let results = epoch.engine.knn_batch(&queries, *k);
            for (pending, neighbors) in group.iter().zip(results) {
                deliver(stats, pending, epoch.epoch, Reply::Knn(neighbors));
            }
        }
        Work::Estimate { eps, .. } => {
            let results = epoch.pipeline.estimate_batch(&queries, *eps);
            for (pending, estimate) in group.iter().zip(results) {
                deliver(stats, pending, epoch.epoch, Reply::Estimate(estimate));
            }
        }
        Work::Insert { .. } | Work::Delete { .. } => {
            unreachable!("writes are admitted only on mutable servers, which answer in order")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use laf_cardest::{NetConfig, TrainingSetBuilder};
    use laf_core::LafConfig;
    use laf_synth::EmbeddingMixtureConfig;
    use laf_vector::Dataset;

    fn data(seed: u64) -> Dataset {
        EmbeddingMixtureConfig {
            n_points: 300,
            dim: 12,
            clusters: 4,
            noise_fraction: 0.2,
            seed,
            ..Default::default()
        }
        .generate()
        .unwrap()
        .0
    }

    fn pipeline(seed: u64) -> LafPipeline {
        LafPipeline::builder(LafConfig::new(0.3, 4, 1.0))
            .net(NetConfig::tiny())
            .training(TrainingSetBuilder {
                max_queries: Some(60),
                ..Default::default()
            })
            .train(data(seed))
            .unwrap()
    }

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn server_is_shareable_across_threads() {
        assert_send_sync::<LafServer>();
        assert_send_sync::<ServeError>();
        assert_send_sync::<Served<Vec<u32>>>();
    }

    #[test]
    fn malformed_reads_get_a_typed_error_and_the_server_keeps_serving() {
        // Regression: a 7-dim query to a 16-dim sharded server used to panic
        // inside the shard fan-out, and every later request hung.
        let data = EmbeddingMixtureConfig {
            n_points: 200,
            dim: 16,
            clusters: 3,
            seed: 5,
            ..Default::default()
        }
        .generate()
        .unwrap()
        .0;
        let pipeline = LafPipeline::builder(LafConfig::new(0.3, 4, 1.0))
            .net(NetConfig::tiny())
            .training(TrainingSetBuilder {
                max_queries: Some(30),
                ..Default::default()
            })
            .shards(2)
            .train(data)
            .unwrap();
        let engine = pipeline.engine();
        let q = pipeline.data().row(3).to_vec();
        let server = LafServer::start(
            pipeline,
            ServeConfig {
                // A regression must fail the test, not hang it.
                request_deadline_us: 30_000_000,
                ..ServeConfig::default()
            },
        );

        let short = QueryRequest::Range {
            query: vec![0.5; 7],
            eps: 0.3,
        };
        assert_eq!(
            server.submit(short).unwrap_err(),
            ServeError::InvalidRequest(InvalidRequest::DimensionMismatch {
                expected: 16,
                found: 7
            })
        );
        let mut nan = q.clone();
        nan[2] = f32::NAN;
        assert_eq!(
            server.knn(&nan, 3).unwrap_err(),
            ServeError::InvalidRequest(InvalidRequest::NonFiniteQuery)
        );
        let mut inf = q.clone();
        inf[0] = f32::INFINITY;
        assert!(matches!(
            server.estimate_async(&inf, 0.3),
            Err(ServeError::InvalidRequest(InvalidRequest::NonFiniteQuery))
        ));
        assert!(matches!(
            server.range_count_async(&[0.0; 17], 0.3),
            Err(ServeError::InvalidRequest(
                InvalidRequest::DimensionMismatch { found: 17, .. }
            ))
        ));

        // The radius is not validated: negative thresholds are meaningful
        // (NegDot), and the server is still answering after the bad requests.
        assert_eq!(
            server.range(&q, -0.5).unwrap().value,
            engine.range(&q, -0.5)
        );
        assert_eq!(server.range(&q, 0.3).unwrap().value, engine.range(&q, 0.3));
        assert_eq!(server.knn(&q, 4).unwrap().value, engine.knn(&q, 4));
    }

    #[test]
    fn served_results_match_the_synchronous_path() {
        let pipeline = pipeline(7);
        let engine = pipeline.engine();
        let queries: Vec<Vec<f32>> = (0..40).map(|i| pipeline.data().row(i).to_vec()).collect();
        let expected_range: Vec<Vec<u32>> = queries.iter().map(|q| engine.range(q, 0.3)).collect();
        let expected_count: Vec<usize> =
            queries.iter().map(|q| engine.range_count(q, 0.3)).collect();
        let expected_knn: Vec<Vec<Neighbor>> = queries.iter().map(|q| engine.knn(q, 5)).collect();
        let expected_est: Vec<f32> = queries.iter().map(|q| pipeline.estimate(q, 0.3)).collect();

        let server = LafServer::start(pipeline, ServeConfig::default());
        std::thread::scope(|scope| {
            for (i, q) in queries.iter().enumerate() {
                let server = &server;
                let expected_range = &expected_range;
                let expected_count = &expected_count;
                let expected_knn = &expected_knn;
                let expected_est = &expected_est;
                scope.spawn(move || {
                    let served = server.range(q, 0.3).unwrap();
                    assert_eq!(served.epoch, 1);
                    assert_eq!(served.value, expected_range[i], "range query {i}");
                    let count = server.range_count(q, 0.3).unwrap().value;
                    assert_eq!(count, expected_count[i], "count query {i}");
                    let knn = server.knn(q, 5).unwrap().value;
                    assert_eq!(knn.len(), expected_knn[i].len(), "knn query {i}");
                    for (a, b) in knn.iter().zip(&expected_knn[i]) {
                        assert_eq!(a.index, b.index, "knn query {i}");
                        assert_eq!(a.dist.to_bits(), b.dist.to_bits(), "knn query {i}");
                    }
                    let est = server.estimate(q, 0.3).unwrap().value;
                    assert_eq!(est.to_bits(), expected_est[i].to_bits(), "estimate {i}");
                });
            }
        });
        let report = server.shutdown();
        assert_eq!(report.submitted, 160);
        assert_eq!(report.completed, 160);
        assert_eq!(report.rejected, 0);
        assert_eq!(report.queue_wait.samples, report.completed);
        assert_eq!(report.execute.samples, report.batches);
    }

    #[test]
    fn tickets_pipeline_requests_from_one_thread() {
        let pipeline = pipeline(31);
        let engine = pipeline.engine();
        let queries: Vec<Vec<f32>> = (0..12).map(|i| pipeline.data().row(i).to_vec()).collect();
        let expected: Vec<usize> = queries.iter().map(|q| engine.range_count(q, 0.3)).collect();
        let server = LafServer::start(pipeline, ServeConfig::default());
        let tickets: Vec<Ticket<usize>> = queries
            .iter()
            .map(|q| server.range_count_async(q, 0.3).unwrap())
            .collect();
        for (i, ticket) in tickets.into_iter().enumerate() {
            let served = ticket.wait();
            assert_eq!(served.epoch, 1);
            assert_eq!(served.value, expected[i], "pipelined count query {i}");
        }
        let report = server.shutdown();
        assert_eq!(report.completed, 12);
        assert!(
            report.batches < 12,
            "12 pipelined submissions from one thread must coalesce \
             (got {} batches)",
            report.batches
        );
    }

    #[test]
    fn dropped_tickets_are_still_answered_and_counted() {
        let pipeline = pipeline(37);
        let q: Vec<f32> = pipeline.data().row(0).to_vec();
        let server = LafServer::start(pipeline, ServeConfig::default());
        let kept = server.range_count_async(&q, 0.3).unwrap();
        drop(server.range_count_async(&q, 0.3).unwrap());
        let served = kept.wait();
        assert_eq!(served.epoch, 1);
        let report = server.shutdown();
        assert_eq!(report.submitted, 2);
        assert_eq!(report.completed, 2, "abandoned tickets still drain");
    }

    #[test]
    fn uncoalesced_config_serves_identically() {
        let pipeline = pipeline(9);
        let engine = pipeline.engine();
        let q: Vec<f32> = pipeline.data().row(3).to_vec();
        let expected = engine.range(&q, 0.3);
        let server = LafServer::start(pipeline, ServeConfig::uncoalesced());
        assert_eq!(server.range(&q, 0.3).unwrap().value, expected);
    }

    #[test]
    fn coalescing_actually_batches_under_concurrency() {
        let pipeline = pipeline(11);
        let queries: Vec<Vec<f32>> = (0..64).map(|i| pipeline.data().row(i).to_vec()).collect();
        let server = LafServer::start(pipeline, ServeConfig::default());
        hold(&server);
        std::thread::scope(|scope| {
            for q in &queries {
                let server = &server;
                scope.spawn(move || {
                    server.range(q, 0.3).unwrap();
                });
            }
            wait_for_depth(&server, 64);
            release(&server);
        });
        let report = server.shutdown();
        assert_eq!(report.completed, 64);
        assert!(
            report.batches < 64,
            "64 concurrent requests must coalesce into fewer than 64 batches \
             (got {} batches, mean occupancy {:.2})",
            report.batches,
            report.mean_batch_occupancy
        );
    }

    /// Close the test latch: the dispatcher leaves queued requests alone
    /// until [`release`] (or shutdown, which always drains).
    fn hold(server: &LafServer) {
        server.shared.state.lock().unwrap().hold = true;
    }

    fn release(server: &LafServer) {
        server.shared.state.lock().unwrap().hold = false;
        server.shared.wake.notify_one();
    }

    /// A server whose dispatcher is held, so tests can park clients in the
    /// queue for as long as they need.
    fn held_server(config: ServeConfig, seed: u64) -> (LafServer, Vec<f32>) {
        let pipeline = pipeline(seed);
        let q: Vec<f32> = pipeline.data().row(0).to_vec();
        let server = LafServer::start(pipeline, config);
        hold(&server);
        (server, q)
    }

    fn wait_for_depth(server: &LafServer, depth: usize) {
        while server.queue_depth() < depth {
            std::thread::yield_now();
        }
    }

    /// Wake the dispatcher into its shutdown drain without consuming the
    /// server (scoped client threads still borrow it).
    fn trigger_shutdown(server: &LafServer) {
        server.shared.state.lock().unwrap().shutdown = true;
        server.shared.wake.notify_all();
    }

    #[test]
    fn admission_control_rejects_beyond_the_bound() {
        let (server, q) = held_server(
            ServeConfig {
                max_batch: 8,
                max_queue_depth: 3,
                ..ServeConfig::default()
            },
            13,
        );
        std::thread::scope(|scope| {
            for _ in 0..3 {
                let server = &server;
                let q = &q;
                scope.spawn(move || {
                    let _ = server.range(q, 0.3);
                });
            }
            wait_for_depth(&server, 3);
            // The queue is pinned at the bound while the dispatcher is held;
            // one more submission must bounce rather than buffer.
            match server.range_count(&q, 0.3) {
                Err(ServeError::Overloaded { depth, limit }) => {
                    assert_eq!(limit, 3);
                    assert!(depth >= limit);
                }
                other => panic!("expected Overloaded, got {other:?}"),
            }
            trigger_shutdown(&server);
        });
        let report = server.shutdown();
        assert_eq!(report.rejected, 1);
        assert_eq!(report.completed, 3);
    }

    #[test]
    fn shutdown_drains_queued_requests() {
        let (server, q) = held_server(ServeConfig::default(), 17);
        std::thread::scope(|scope| {
            for _ in 0..3 {
                let server = &server;
                let q = &q;
                scope.spawn(move || {
                    // Queued behind a held dispatcher; shutdown must still
                    // answer it rather than losing it.
                    server.range(q, 0.3).unwrap();
                });
            }
            wait_for_depth(&server, 3);
            trigger_shutdown(&server);
        });
        let report = server.shutdown();
        assert_eq!(report.submitted, 3);
        assert_eq!(report.completed, 3, "no request may be lost");
    }

    /// Queue `n` pipelined count requests behind a held dispatcher, release
    /// it, and return the final counters.
    fn release_staged_queue(n: usize, max_batch: usize) -> ServeStatsReport {
        let (server, q) = held_server(
            ServeConfig {
                max_batch,
                ..ServeConfig::default()
            },
            79,
        );
        let tickets: Vec<Ticket<usize>> = (0..n)
            .map(|_| server.range_count_async(&q, 0.3).unwrap())
            .collect();
        release(&server);
        for ticket in tickets {
            ticket.wait();
        }
        server.shutdown()
    }

    #[test]
    fn a_free_dispatcher_takes_the_whole_queue_at_once() {
        let report = release_staged_queue(10, 64);
        assert_eq!(report.batches, 1, "10 queued requests flush as one batch");
        assert_eq!(report.completed, 10);
        assert_eq!(report.occupancy[5].batch_size, "9-16");
        assert_eq!(report.occupancy[5].batches, 1);
        assert_eq!(report.queue_wait.samples, report.completed);
        assert_eq!(report.execute.samples, report.batches);
    }

    #[test]
    fn a_queue_beyond_max_batch_splits_into_full_batch_then_remainder() {
        let report = release_staged_queue(70, 64);
        assert_eq!(report.batches, 2, "70 queued requests flush as 64 + 6");
        assert_eq!(report.completed, 70);
        assert_eq!(report.occupancy[7].batch_size, "33-64");
        assert_eq!(report.occupancy[7].batches, 1);
        assert_eq!(report.occupancy[4].batch_size, "5-8");
        assert_eq!(report.occupancy[4].batches, 1);
        assert_eq!(report.tile_batches, 1, "64 fills whole tiles, 6 does not");
        assert_eq!(report.queue_wait.samples, report.completed);
        assert_eq!(report.execute.samples, report.batches);
    }

    #[test]
    fn reload_swaps_epochs_and_prebuilds_the_engine() {
        let server = LafServer::start(pipeline(19), ServeConfig::default());
        assert_eq!(server.current_epoch(), 1);
        let replacement = pipeline(23);
        let q: Vec<f32> = replacement.data().row(0).to_vec();
        let expected = replacement.engine().range(&q, 0.3);
        assert_eq!(server.reload(replacement).unwrap(), 2);
        assert_eq!(server.current_epoch(), 2);
        let served = server.range(&q, 0.3).unwrap();
        assert_eq!(served.epoch, 2);
        assert_eq!(served.value, expected);
        assert_eq!(server.stats_report().reloads, 1);
    }

    fn mutable_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("laf_serve_mutable_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn unified_submit_matches_the_typed_methods() {
        let pipeline = pipeline(43);
        let engine = pipeline.engine();
        let q: Vec<f32> = pipeline.data().row(5).to_vec();
        let expected_range = engine.range(&q, 0.3);
        let expected_count = engine.range_count(&q, 0.3);
        let expected_est = pipeline.estimate(&q, 0.3);
        let server = LafServer::start(pipeline, ServeConfig::default());
        assert!(!server.is_mutable());
        match server
            .submit(QueryRequest::Range {
                query: q.clone(),
                eps: 0.3,
            })
            .unwrap()
            .value
        {
            QueryResponse::Range(hits) => assert_eq!(hits, expected_range),
            other => panic!("range request answered with {other:?}"),
        }
        match server
            .submit(QueryRequest::RangeCount {
                query: q.clone(),
                eps: 0.3,
            })
            .unwrap()
            .value
        {
            QueryResponse::Count(n) => assert_eq!(n, expected_count),
            other => panic!("count request answered with {other:?}"),
        }
        match server
            .submit(QueryRequest::Knn {
                query: q.clone(),
                k: 3,
            })
            .unwrap()
            .value
        {
            QueryResponse::Knn(neighbors) => assert_eq!(neighbors.len(), 3),
            other => panic!("knn request answered with {other:?}"),
        }
        match server
            .submit(QueryRequest::Estimate {
                query: q.clone(),
                eps: 0.3,
            })
            .unwrap()
            .value
        {
            QueryResponse::Estimate(est) => assert_eq!(est.to_bits(), expected_est.to_bits()),
            other => panic!("estimate request answered with {other:?}"),
        }
        // Writes bounce at submission on a read-only server.
        assert_eq!(
            server
                .submit(QueryRequest::Insert { row: q.clone() })
                .unwrap_err(),
            ServeError::ReadOnly
        );
        assert_eq!(server.insert(&q).unwrap_err(), ServeError::ReadOnly);
        assert_eq!(server.delete(0).unwrap_err(), ServeError::ReadOnly);
    }

    #[test]
    fn mutable_server_reads_its_own_writes_in_queue_order() {
        use laf_core::MutablePipeline;
        let frozen = pipeline(47);
        let n_base = frozen.data().len() as u32;
        let dir = mutable_dir("ryw");
        let mutable = MutablePipeline::create(&dir, &frozen).unwrap();
        let server = LafServer::start_mutable(mutable, ServeConfig::default());
        assert!(server.is_mutable());

        // Pipeline an insert, a read that must see it, a delete, and a read
        // that must see the delete — all in flight before any wait.
        let row = vec![9.0f32; 12];
        let t_insert = server.insert_async(&row).unwrap();
        let t_seen = server.range_count_async(&row, 1e-3).unwrap();
        let t_delete = server.delete_async(n_base as u64).unwrap();
        let t_gone = server.range_count_async(&row, 1e-3).unwrap();
        assert_eq!(t_insert.wait().value, Ok(1), "first WAL record is LSN 1");
        assert_eq!(t_seen.wait().value, 1, "a pipelined read sees the insert");
        assert_eq!(t_delete.wait().value, Ok(2));
        assert_eq!(t_gone.wait().value, 0, "and then sees the delete");

        // Processing-time rejections come back through the response.
        assert_eq!(
            server.insert(&[1.0]).unwrap().value,
            Err(WriteError::DimensionMismatch)
        );
        assert_eq!(
            server.delete(u64::MAX).unwrap().value,
            Err(WriteError::OutOfBounds)
        );
        server.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compaction_threshold_publishes_new_epochs() {
        use laf_core::MutablePipeline;
        let frozen = pipeline(53);
        let q: Vec<f32> = frozen.data().row(0).to_vec();
        let dir = mutable_dir("compact");
        let mutable = MutablePipeline::create(&dir, &frozen).unwrap();
        let server = LafServer::start_mutable(
            mutable,
            ServeConfig {
                compact_threshold: 1,
                ..ServeConfig::default()
            },
        );
        let before = server.range(&q, 0.3).unwrap();
        assert_eq!(before.epoch, 1);
        let row = vec![4.0f32; 12];
        server.insert(&row).unwrap().value.unwrap();
        // The write batch left pending_ops >= 1, so the dispatcher folded
        // the delta into a new base and published it as epoch 2; answers
        // are unchanged by the fold.
        let after = server.range(&q, 0.3).unwrap();
        assert_eq!(after.epoch, 2, "compaction bumps the served epoch");
        assert_eq!(after.value, before.value);
        assert_eq!(server.range_count(&row, 1e-3).unwrap().value, 1);
        assert_eq!(server.stats_report().reloads, 1);
        server.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_compaction_is_counted_and_backed_off() {
        use laf_core::MutablePipeline;
        let frozen = pipeline(59);
        let q: Vec<f32> = frozen.data().row(0).to_vec();
        let dir = mutable_dir("compact_fail");
        let mutable = MutablePipeline::create(&dir, &frozen).unwrap();
        // Block the manifest flip: `Manifest::write` creates MANIFEST.tmp,
        // which fails (EISDIR) while this directory squats on the name, so
        // every compaction attempt errors after the write batch is acked.
        let blocker = dir.join("MANIFEST.tmp");
        std::fs::create_dir(&blocker).unwrap();
        let server = LafServer::start_mutable(
            mutable,
            ServeConfig {
                compact_threshold: 1,
                ..ServeConfig::default()
            },
        );
        let row = vec![4.0f32; 12];
        server.insert(&row).unwrap().value.unwrap();
        let reads = server.range(&q, 0.3).unwrap();
        assert_eq!(reads.epoch, 1, "no epoch published by a failed compaction");
        let report = server.stats_report();
        assert_eq!(report.reloads, 0);
        assert_eq!(report.compact_failures, 1, "failure surfaced in stats");
        // Backoff: read-only batches (backlog unchanged) must not retry the
        // failing full rebuild.
        server.range(&q, 0.3).unwrap();
        server.range_count(&q, 0.3).unwrap();
        assert_eq!(
            server.stats_report().compact_failures,
            1,
            "no retry until the backlog grows"
        );
        // Once the backlog grows past the floor (old pending 1 + threshold
        // 1 = 2) and the blocker is gone, compaction recovers, publishes an
        // epoch, and resets the latch.
        std::fs::remove_dir(&blocker).unwrap();
        server.insert(&row).unwrap().value.unwrap();
        let after = server.range(&q, 0.3).unwrap();
        assert_eq!(after.epoch, 2, "recovered compaction publishes an epoch");
        assert_eq!(after.value, reads.value);
        let report = server.stats_report();
        assert_eq!(report.reloads, 1);
        assert_eq!(report.compact_failures, 1);
        assert_eq!(server.range_count(&row, 1e-3).unwrap().value, 2);
        server.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mutable_server_state_survives_shutdown_and_reopen() {
        use laf_core::MutablePipeline;
        let frozen = pipeline(59);
        let dir = mutable_dir("durable");
        let mutable = MutablePipeline::create(&dir, &frozen).unwrap();
        let n_before = mutable.len();
        let server = LafServer::start_mutable(mutable, ServeConfig::default());
        let row = vec![2.5f32; 12];
        server.insert(&row).unwrap().value.unwrap();
        server.delete(0).unwrap().value.unwrap();
        server.shutdown();
        let reopened = MutablePipeline::open(&dir).unwrap();
        assert_eq!(reopened.len(), n_before, "+1 insert, -1 delete");
        assert_eq!(reopened.last_lsn(), 2, "both writes recovered from the WAL");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn deadline_times_out_parked_requests() {
        let (server, q) = held_server(
            ServeConfig {
                max_batch: 8,
                request_deadline_us: 2_000,
                ..ServeConfig::default()
            },
            61,
        );
        // One request parked behind the held dispatcher must unblock with a
        // typed timeout, not hang until the dispatcher gets to it.
        match server.range(&q, 0.3) {
            Err(ServeError::Timeout { waited_us }) => assert!(waited_us >= 2_000, "{waited_us}"),
            other => panic!("expected Timeout, got {other:?}"),
        }
        assert_eq!(server.stats_report().timeouts, 1);
        // The dispatcher still answers the abandoned request on drain.
        let report = server.shutdown();
        assert_eq!(report.submitted, 1);
        assert_eq!(report.completed, 1, "timed-out requests still drain");
    }

    #[test]
    fn wait_timeout_returns_the_result_when_served_in_time() {
        let pipeline = pipeline(67);
        let engine = pipeline.engine();
        let q: Vec<f32> = pipeline.data().row(1).to_vec();
        let expected = engine.range_count(&q, 0.3);
        let server = LafServer::start(pipeline, ServeConfig::default());
        let ticket = server.range_count_async(&q, 0.3).unwrap();
        let served = ticket.wait_timeout(Duration::from_secs(30)).unwrap();
        assert_eq!(served.value, expected);
        assert_eq!(server.stats_report().timeouts, 0);
        assert!(ServeError::Timeout { waited_us: 7 }
            .to_string()
            .contains("7us"));
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn transient_wal_sync_failures_are_absorbed_by_retry() {
        use laf_core::fault::{self, FaultMode, FaultPlan};
        use laf_core::MutablePipeline;
        let frozen = pipeline(71);
        let dir = mutable_dir("wal_retry");
        let mutable = MutablePipeline::create(&dir, &frozen).unwrap();
        let server = LafServer::start_mutable(mutable, ServeConfig::default());
        let row = vec![3.0f32; 12];
        // The registry is process-wide and sibling tests also sync; if one
        // of them consumes the single armed firing, re-arm and try again.
        let mut absorbed = false;
        for _ in 0..5 {
            fault::install(FaultPlan::new(1).with_site("wal.sync", FaultMode::OnceAt(0)));
            let lsn = server.insert(&row).unwrap().value;
            assert!(
                lsn.is_ok(),
                "a single transient sync failure must be retried away"
            );
            if server.stats_report().wal_sync_retries > 0 {
                absorbed = true;
                break;
            }
        }
        fault::clear();
        assert!(absorbed, "retry counter never advanced");
        server.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn transient_compaction_failures_are_absorbed_by_retry() {
        use laf_core::fault::{self, FaultMode, FaultPlan};
        use laf_core::MutablePipeline;
        let frozen = pipeline(73);
        let q: Vec<f32> = frozen.data().row(0).to_vec();
        let dir = mutable_dir("compact_retry");
        let mutable = MutablePipeline::create(&dir, &frozen).unwrap();
        let server = LafServer::start_mutable(
            mutable,
            ServeConfig {
                compact_threshold: 1,
                ..ServeConfig::default()
            },
        );
        let before = server.range(&q, 0.3).unwrap();
        fault::install(FaultPlan::new(2).with_site("compact.dir_fsync", FaultMode::OnceAt(0)));
        let row = vec![4.0f32; 12];
        server.insert(&row).unwrap().value.unwrap();
        fault::clear();
        let after = server.range(&q, 0.3).unwrap();
        let report = server.stats_report();
        assert_eq!(
            report.compact_failures, 0,
            "one transient fsync failure must not latch a compaction failure"
        );
        assert_eq!(
            after.epoch, 2,
            "retried compaction still publishes its epoch"
        );
        assert_eq!(after.value, before.value);
        server.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn submitting_after_shutdown_fails_cleanly() {
        let mut server = LafServer::start(pipeline(29), ServeConfig::default());
        let q = vec![0.0f32; 12];
        server.shutdown_inner();
        assert_eq!(server.range(&q, 0.3), Err(ServeError::ShuttingDown));
        assert_eq!(
            ServeError::ShuttingDown.to_string(),
            "server is shutting down"
        );
        let overloaded = ServeError::Overloaded { depth: 4, limit: 4 };
        assert!(overloaded.to_string().contains("queue depth 4"));
    }
}
