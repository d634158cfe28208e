//! Buffer-managed multi-tenant snapshot cache.
//!
//! A serving host holds snapshots for many tenants but has one memory
//! budget. [`SnapshotCache`] is the buffer manager between the two: tenants
//! are registered with the path of their (read-only) snapshot file, a
//! request [`pin`](SnapshotCache::pin)s its tenant's pipeline — loading it
//! on a miss, evicting unpinned victims if the byte budget or entry cap
//! would be exceeded — and the returned [`PinnedSnapshot`] guard keeps the
//! entry ineligible for eviction until dropped.
//!
//! ## Pin/unpin contract
//!
//! * A resident entry with at least one live pin is **never** evicted: a
//!   request that is mid-query cannot have its dataset unmapped underneath
//!   it. (The pipeline is also held behind an `Arc`, so even a bug on this
//!   front would degrade to memory over-use, never to a dangling read.)
//! * Pins are short: take one per request (or request batch), drop it when
//!   the response is built. Holding pins across idle time defeats the
//!   buffer manager.
//! * [`SnapshotCache::pin`] is the loading entry point;
//!   [`SnapshotCache::try_pin`] never loads and reports a cold tenant as
//!   [`CacheError::Evicted`], which is how probes distinguish "evicted /
//!   never loaded" from "unknown tenant".
//!
//! ## Eviction
//!
//! Victim choice is delegated to an [`EvictionPolicy`] (default
//! [`LruPolicy`]); the cache enforces the *rules* — only unpinned entries
//! are offered as candidates, the byte budget and entry cap are checked
//! after every admission — while the policy supplies the *preference*. If
//! every resident entry is pinned and the budget still does not fit the
//! incoming snapshot, admission fails with [`CacheError::Overloaded`]
//! rather than over-committing.
//!
//! Bytes are accounted at snapshot-file granularity (the on-disk size,
//! which for mmap-served snapshots is exactly the mapped footprint), so
//! `resident_bytes <= byte_budget` holds at every instant the inner lock is
//! released.

use crate::request::InvalidRequest;
use laf_core::fault;
use laf_core::snapshot::Snapshot;
use laf_core::{LafPipeline, SnapshotError};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::ops::Deref;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Sizing knobs for a [`SnapshotCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Total bytes of resident snapshots the cache may hold. Admissions
    /// that would exceed it evict unpinned victims first and fail with
    /// [`CacheError::Overloaded`] when none suffice.
    pub byte_budget: u64,
    /// Maximum number of resident snapshots, regardless of size.
    pub max_entries: usize,
    /// Per-tenant quota: the largest snapshot a single tenant may load,
    /// in bytes. `0` disables the quota. A tenant whose snapshot exceeds it
    /// is rejected with [`CacheError::QuotaExceeded`] before any eviction
    /// happens on its behalf.
    pub tenant_quota: u64,
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self {
            byte_budget: 256 << 20,
            max_entries: 16,
            tenant_quota: 0,
        }
    }
}

/// Errors produced by [`SnapshotCache`] operations.
#[derive(Debug)]
pub enum CacheError {
    /// The tenant was never [`register`](SnapshotCache::register)ed.
    UnknownTenant(String),
    /// The tenant's snapshot is larger than the per-tenant quota.
    QuotaExceeded {
        /// Tenant whose snapshot was rejected.
        tenant: String,
        /// Size of the tenant's snapshot file.
        bytes: u64,
        /// The configured [`CacheConfig::tenant_quota`].
        quota: u64,
    },
    /// The snapshot does not fit: every resident entry is pinned (or the
    /// snapshot alone exceeds the budget), so nothing can be evicted.
    Overloaded {
        /// Bytes the admission needed to free.
        needed: u64,
        /// The configured [`CacheConfig::byte_budget`].
        budget: u64,
    },
    /// Non-loading access ([`SnapshotCache::try_pin`]) to a tenant that is
    /// registered but not resident — evicted, or never loaded.
    Evicted {
        /// The non-resident tenant.
        tenant: String,
    },
    /// Loading the tenant's snapshot failed.
    Load {
        /// Tenant whose snapshot failed to load.
        tenant: String,
        /// The underlying snapshot error.
        source: SnapshotError,
    },
    /// A write request was routed to a tenant's cached snapshot. Cached
    /// snapshots are read-only by construction (many pins share one mmap);
    /// writes need a dedicated mutable server for the tenant.
    ReadOnly {
        /// The tenant whose snapshot the write targeted.
        tenant: String,
    },
    /// [`SnapshotCache::register`] validated the snapshot eagerly and the
    /// file failed: bad magic, unsupported version, damaged header or an
    /// out-of-bounds section table. The path names exactly which file to
    /// regenerate.
    Corrupt {
        /// Tenant whose registration was rejected.
        tenant: String,
        /// The snapshot file that failed validation.
        path: PathBuf,
        /// The underlying validation error.
        source: SnapshotError,
    },
    /// The tenant's snapshot was quarantined by a [`SnapshotCache::scrub`]
    /// pass (a section CRC failed on re-verification). Quarantined tenants
    /// reject pins until re-[`register`](SnapshotCache::register)ed with a
    /// repaired or regenerated file.
    Quarantined {
        /// The quarantined tenant.
        tenant: String,
    },
    /// A read query does not fit the tenant's dataset
    /// ([`crate::TenantServer::submit`] checks before querying).
    InvalidRequest {
        /// The tenant the query was routed to.
        tenant: String,
        /// What is wrong with the query.
        reason: InvalidRequest,
    },
}

impl fmt::Display for CacheError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheError::UnknownTenant(tenant) => write!(f, "unknown tenant `{tenant}`"),
            CacheError::QuotaExceeded {
                tenant,
                bytes,
                quota,
            } => write!(
                f,
                "tenant `{tenant}` snapshot is {bytes} bytes, over the {quota}-byte quota"
            ),
            CacheError::Overloaded { needed, budget } => write!(
                f,
                "cache overloaded: {needed} bytes needed but every resident \
                 snapshot is pinned (budget {budget} bytes)"
            ),
            CacheError::Evicted { tenant } => {
                write!(
                    f,
                    "tenant `{tenant}` is not resident (evicted or never loaded)"
                )
            }
            CacheError::Load { tenant, source } => {
                write!(f, "loading tenant `{tenant}` snapshot failed: {source}")
            }
            CacheError::ReadOnly { tenant } => {
                write!(
                    f,
                    "tenant `{tenant}` snapshot is read-only: writes need a mutable server"
                )
            }
            CacheError::Corrupt {
                tenant,
                path,
                source,
            } => {
                write!(
                    f,
                    "tenant `{tenant}` snapshot {} failed validation: {source}",
                    path.display()
                )
            }
            CacheError::Quarantined { tenant } => {
                write!(
                    f,
                    "tenant `{tenant}` snapshot is quarantined (scrub found corruption); \
                     re-register a repaired file"
                )
            }
            CacheError::InvalidRequest { tenant, reason } => {
                write!(f, "invalid request for tenant `{tenant}`: {reason}")
            }
        }
    }
}

impl std::error::Error for CacheError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CacheError::Load { source, .. } | CacheError::Corrupt { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Victim-selection strategy plugged into a [`SnapshotCache`].
///
/// The cache calls the `on_*` hooks (under its internal lock, in event
/// order) so the policy can maintain whatever bookkeeping it wants, and
/// consults [`choose_victim`](EvictionPolicy::choose_victim) when an
/// admission needs space. The cache — not the policy — enforces the safety
/// rules: only unpinned tenants are ever offered as candidates, and a
/// policy returning `None` (or a tenant outside `candidates`) simply fails
/// the admission with [`CacheError::Overloaded`].
pub trait EvictionPolicy: Send + fmt::Debug {
    /// A snapshot was admitted for `tenant`.
    fn on_admit(&mut self, tenant: &str);
    /// A resident snapshot was pinned again (a cache hit).
    fn on_use(&mut self, tenant: &str);
    /// `tenant`'s snapshot left the cache (evicted or invalidated).
    fn on_remove(&mut self, tenant: &str);
    /// Pick the next victim among `candidates` (all resident, all
    /// unpinned). `None` means "no preference — fail the admission".
    fn choose_victim(&mut self, candidates: &[&str]) -> Option<String>;
}

/// Least-recently-used eviction: victims are chosen in order of last pin.
#[derive(Debug, Default)]
pub struct LruPolicy {
    /// Tenants from least- to most-recently used.
    order: Vec<String>,
}

impl LruPolicy {
    /// A fresh LRU policy.
    pub fn new() -> Self {
        Self::default()
    }

    fn touch(&mut self, tenant: &str) {
        self.order.retain(|t| t != tenant);
        self.order.push(tenant.to_string());
    }
}

impl EvictionPolicy for LruPolicy {
    fn on_admit(&mut self, tenant: &str) {
        self.touch(tenant);
    }

    fn on_use(&mut self, tenant: &str) {
        self.touch(tenant);
    }

    fn on_remove(&mut self, tenant: &str) {
        self.order.retain(|t| t != tenant);
    }

    fn choose_victim(&mut self, candidates: &[&str]) -> Option<String> {
        self.order
            .iter()
            .find(|t| candidates.contains(&t.as_str()))
            .cloned()
    }
}

/// Lock-free cache counters; every mutation happens while the cache's inner
/// lock is held, so `report` values are mutually consistent snapshots
/// whenever no operation is mid-flight.
#[derive(Debug, Default)]
pub struct CacheStats {
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    rejections: AtomicU64,
    pins: AtomicU64,
    unpins: AtomicU64,
    bytes_loaded: AtomicU64,
    scrub_passes: AtomicU64,
    scrub_skipped_pinned: AtomicU64,
    quarantines: AtomicU64,
    repairs_attempted: AtomicU64,
    repairs_succeeded: AtomicU64,
    repairs_failed: AtomicU64,
    repair_time_us_total: AtomicU64,
}

impl CacheStats {
    /// Pins served from a resident entry.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Pins that had to load the snapshot.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Resident snapshots evicted to make room.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// [`SnapshotCache::scrub`] passes completed.
    pub fn scrub_passes(&self) -> u64 {
        self.scrub_passes.load(Ordering::Relaxed)
    }

    /// Tenants quarantined across all scrub passes.
    pub fn quarantines(&self) -> u64 {
        self.quarantines.load(Ordering::Relaxed)
    }

    pub(crate) fn record_repair_attempt(&self) {
        self.repairs_attempted.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_repair_success(&self, elapsed_us: u64) {
        self.repairs_succeeded.fetch_add(1, Ordering::Relaxed);
        self.repair_time_us_total
            .fetch_add(elapsed_us, Ordering::Relaxed);
    }

    pub(crate) fn record_repair_failure(&self) {
        self.repairs_failed.fetch_add(1, Ordering::Relaxed);
    }
}

/// Serializable snapshot of a cache's counters and residency, embedded in
/// `BENCH_sharding.json` and printed by the `serve-tenants` example mode.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CacheStatsReport {
    /// Pins served from a resident entry.
    pub hits: u64,
    /// Pins that had to load the snapshot.
    pub misses: u64,
    /// Resident snapshots evicted to make room.
    pub evictions: u64,
    /// Admissions rejected (`Overloaded` / `QuotaExceeded`).
    pub rejections: u64,
    /// Total pins taken.
    pub pins: u64,
    /// Total pins released.
    pub unpins: u64,
    /// Bytes of snapshot files loaded over the cache's lifetime.
    pub bytes_loaded: u64,
    /// Bytes resident right now.
    pub resident_bytes: u64,
    /// Snapshots resident right now.
    pub resident_entries: usize,
    /// The configured byte budget, for downstream invariant checks.
    pub byte_budget: u64,
    /// [`SnapshotCache::scrub`] passes completed over the cache's lifetime.
    #[serde(default)]
    pub scrub_passes: u64,
    /// Pinned resident entries whose file failed a scrub re-verification
    /// — visible corruption the scrub could not quarantine because the
    /// mmap was mid-query (cumulative across passes).
    #[serde(default)]
    pub scrub_skipped_pinned: u64,
    /// Tenants quarantined across all scrub passes.
    #[serde(default)]
    pub quarantines: u64,
    /// Repairs the maintenance supervisor started.
    #[serde(default)]
    pub repairs_attempted: u64,
    /// Repairs that published a verified replica and lifted quarantine.
    #[serde(default)]
    pub repairs_succeeded: u64,
    /// Repairs that exhausted every replica candidate.
    #[serde(default)]
    pub repairs_failed: u64,
    /// Mean time from quarantine to successful repair, in microseconds
    /// (`0.0` until a repair succeeds).
    #[serde(default)]
    pub mean_time_to_repair_us: f64,
}

/// One resident snapshot.
struct CacheEntry {
    pipeline: Arc<LafPipeline>,
    bytes: u64,
    pins: u32,
}

struct CacheInner {
    /// Tenant registry: tenant id → snapshot path.
    tenants: HashMap<String, PathBuf>,
    /// Resident entries.
    entries: HashMap<String, CacheEntry>,
    /// Tenants whose snapshot failed a [`SnapshotCache::scrub`] CRC
    /// re-verification. Pins are rejected until the tenant re-registers.
    quarantined: HashSet<String>,
    policy: Box<dyn EvictionPolicy>,
    resident_bytes: u64,
}

/// Outcome of one [`SnapshotCache::scrub`] pass.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScrubReport {
    /// Resident snapshots whose on-disk CRCs re-verified clean (pinned or
    /// not).
    pub verified: Vec<String>,
    /// Tenants quarantined this pass (CRC mismatch on re-verification).
    pub quarantined: Vec<String>,
    /// Resident entries whose file failed re-verification but were pinned,
    /// so quarantine was skipped — a mid-query mmap is never unmapped
    /// behind the request. These tenants are also listed in
    /// [`ScrubReport::pinned_corrupt`]; a later pass quarantines them once
    /// the pins drain.
    pub skipped_pinned: usize,
    /// The tenants counted by [`ScrubReport::skipped_pinned`]: pinned
    /// entries whose file no longer verifies. Visible corruption, not yet
    /// quarantined.
    #[serde(default)]
    pub pinned_corrupt: Vec<String>,
}

/// A buffer-managed, multi-tenant snapshot cache (see the crate
/// documentation's "Multi-tenant snapshot cache" section).
pub struct SnapshotCache {
    config: CacheConfig,
    inner: Mutex<CacheInner>,
    stats: CacheStats,
}

impl fmt::Debug for SnapshotCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.lock().expect("cache lock");
        f.debug_struct("SnapshotCache")
            .field("config", &self.config)
            .field("tenants", &inner.tenants.len())
            .field("resident", &inner.entries.len())
            .field("resident_bytes", &inner.resident_bytes)
            .finish_non_exhaustive()
    }
}

impl SnapshotCache {
    /// A cache with the default [`LruPolicy`].
    pub fn new(config: CacheConfig) -> Arc<Self> {
        Self::with_policy(config, Box::new(LruPolicy::new()))
    }

    /// A cache with a custom eviction policy.
    pub fn with_policy(config: CacheConfig, policy: Box<dyn EvictionPolicy>) -> Arc<Self> {
        Arc::new(Self {
            config,
            inner: Mutex::new(CacheInner {
                tenants: HashMap::new(),
                entries: HashMap::new(),
                quarantined: HashSet::new(),
                policy,
                resident_bytes: 0,
            }),
            stats: CacheStats::default(),
        })
    }

    /// The cache's sizing knobs.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// The cache's counters.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Register (or re-point) `tenant`'s snapshot path. Re-pointing a
    /// resident tenant invalidates its cached entry once unpinned; live
    /// pins keep serving the old snapshot until dropped.
    ///
    /// The snapshot header and section table are validated **eagerly**
    /// (without reading section bodies), so a truncated or garbage file is
    /// rejected here — naming the offending path — instead of surfacing as
    /// a load failure on some later request. Re-registering also lifts any
    /// [`CacheError::Quarantined`] state left by a [`scrub`](Self::scrub)
    /// pass: the operator has, by registering, asserted the file is fresh.
    pub fn register<P: AsRef<Path>>(&self, tenant: &str, path: P) -> Result<(), CacheError> {
        Snapshot::validate_header(path.as_ref()).map_err(|source| CacheError::Corrupt {
            tenant: tenant.to_string(),
            path: path.as_ref().to_path_buf(),
            source,
        })?;
        let mut inner = self.inner.lock().expect("cache lock");
        inner.quarantined.remove(tenant);
        let prev = inner
            .tenants
            .insert(tenant.to_string(), path.as_ref().to_path_buf());
        // A changed path invalidates the resident entry (if unpinned) so the
        // next pin loads the new file instead of serving a stale snapshot.
        if prev.is_some_and(|p| p != path.as_ref())
            && inner.entries.get(tenant).is_some_and(|e| e.pins == 0)
        {
            Self::remove_entry(&mut inner, tenant);
        }
        Ok(())
    }

    /// Registered tenant ids, in no particular order.
    pub fn tenants(&self) -> Vec<String> {
        let inner = self.inner.lock().expect("cache lock");
        inner.tenants.keys().cloned().collect()
    }

    /// The snapshot path `tenant` is currently registered to serve, if any.
    pub fn registered_path(&self, tenant: &str) -> Option<PathBuf> {
        let inner = self.inner.lock().expect("cache lock");
        inner.tenants.get(tenant).cloned()
    }

    /// Whether `tenant`'s snapshot is currently resident.
    pub fn resident(&self, tenant: &str) -> bool {
        let inner = self.inner.lock().expect("cache lock");
        inner.entries.contains_key(tenant)
    }

    /// Pin `tenant`'s pipeline, loading the snapshot on a miss (evicting
    /// unpinned victims as needed). The returned guard keeps the entry
    /// pinned — ineligible for eviction — until dropped.
    ///
    /// Misses load and build the engine while holding the cache lock, so
    /// accounting is exact: at no instant do resident snapshots exceed the
    /// byte budget. Concurrent hits on other tenants briefly queue behind a
    /// miss; the engine build is the dominant cost and is paid once.
    pub fn pin(self: &Arc<Self>, tenant: &str) -> Result<PinnedSnapshot, CacheError> {
        let mut inner = self.inner.lock().expect("cache lock");
        if inner.quarantined.contains(tenant) {
            return Err(CacheError::Quarantined {
                tenant: tenant.to_string(),
            });
        }
        if let Some(entry) = inner.entries.get_mut(tenant) {
            entry.pins += 1;
            let pipeline = Arc::clone(&entry.pipeline);
            inner.policy.on_use(tenant);
            self.stats.hits.fetch_add(1, Ordering::Relaxed);
            self.stats.pins.fetch_add(1, Ordering::Relaxed);
            return Ok(self.guard(tenant, pipeline));
        }
        let path = inner
            .tenants
            .get(tenant)
            .cloned()
            .ok_or_else(|| CacheError::UnknownTenant(tenant.to_string()))?;
        let bytes = std::fs::metadata(&path)
            .map(|m| m.len())
            .map_err(|e| CacheError::Load {
                tenant: tenant.to_string(),
                source: SnapshotError::Io(e),
            })?;
        if self.config.tenant_quota > 0 && bytes > self.config.tenant_quota {
            self.stats.rejections.fetch_add(1, Ordering::Relaxed);
            return Err(CacheError::QuotaExceeded {
                tenant: tenant.to_string(),
                bytes,
                quota: self.config.tenant_quota,
            });
        }
        self.make_room(&mut inner, bytes).inspect_err(|_| {
            self.stats.rejections.fetch_add(1, Ordering::Relaxed);
        })?;
        // Failpoint: the mmap of a cold snapshot fails (file vanished
        // between metadata and map, transient EIO). Surfaces as the same
        // typed `Load` error a real mmap failure produces.
        if fault::fire("cache.pin.mmap") {
            return Err(CacheError::Load {
                tenant: tenant.to_string(),
                source: SnapshotError::Io(fault::injected("cache.pin.mmap")),
            });
        }
        let pipeline = LafPipeline::load_mmap(&path).map_err(|source| CacheError::Load {
            tenant: tenant.to_string(),
            source,
        })?;
        // Build the engine as part of the miss: every later query on this
        // pin (and on every hit) reuses the cached build.
        let _ = pipeline.engine();
        let pipeline = Arc::new(pipeline);
        inner.entries.insert(
            tenant.to_string(),
            CacheEntry {
                pipeline: Arc::clone(&pipeline),
                bytes,
                pins: 1,
            },
        );
        inner.resident_bytes += bytes;
        inner.policy.on_admit(tenant);
        self.stats.misses.fetch_add(1, Ordering::Relaxed);
        self.stats.pins.fetch_add(1, Ordering::Relaxed);
        self.stats.bytes_loaded.fetch_add(bytes, Ordering::Relaxed);
        Ok(self.guard(tenant, pipeline))
    }

    /// Pin `tenant`'s pipeline **only if already resident** — never loads.
    ///
    /// # Errors
    /// [`CacheError::Evicted`] when the tenant is registered but not
    /// resident; [`CacheError::UnknownTenant`] when it was never
    /// registered.
    pub fn try_pin(self: &Arc<Self>, tenant: &str) -> Result<PinnedSnapshot, CacheError> {
        let mut inner = self.inner.lock().expect("cache lock");
        if inner.quarantined.contains(tenant) {
            return Err(CacheError::Quarantined {
                tenant: tenant.to_string(),
            });
        }
        if let Some(entry) = inner.entries.get_mut(tenant) {
            entry.pins += 1;
            let pipeline = Arc::clone(&entry.pipeline);
            inner.policy.on_use(tenant);
            self.stats.hits.fetch_add(1, Ordering::Relaxed);
            self.stats.pins.fetch_add(1, Ordering::Relaxed);
            return Ok(self.guard(tenant, pipeline));
        }
        if inner.tenants.contains_key(tenant) {
            Err(CacheError::Evicted {
                tenant: tenant.to_string(),
            })
        } else {
            Err(CacheError::UnknownTenant(tenant.to_string()))
        }
    }

    /// Background scrub pass: re-verify the section CRCs of **every**
    /// resident snapshot — pinned or not — against its on-disk bytes, and
    /// quarantine the unpinned tenants whose files no longer verify (bit
    /// rot, a truncating copy, an operator overwrite gone wrong).
    ///
    /// Quarantined tenants are dropped from residency and every subsequent
    /// [`pin`](Self::pin)/[`try_pin`](Self::try_pin) returns
    /// [`CacheError::Quarantined`] — never a silently wrong answer — until
    /// the tenant is re-[`register`](Self::register)ed with a repaired
    /// file. A **pinned** entry whose file fails verification is never
    /// quarantined (its mmap is mid-query), but the corruption is no
    /// longer silent: the tenant is reported in
    /// [`ScrubReport::pinned_corrupt`] / counted in
    /// [`ScrubReport::skipped_pinned`], so a long-pinned rotten tenant is
    /// visible long before its pins drain and a later pass quarantines it.
    ///
    /// The full-file CRC verification runs **outside** the cache lock, so a
    /// scrub never stalls concurrent pins; the pass re-checks under the
    /// lock that each entry is still unpinned and still points at the same
    /// file before quarantining.
    pub fn scrub(&self) -> ScrubReport {
        let mut report = ScrubReport::default();
        let mut candidates: Vec<(String, PathBuf)> = {
            let inner = self.inner.lock().expect("cache lock");
            inner
                .entries
                .keys()
                .filter_map(|t| inner.tenants.get(t).map(|p| (t.clone(), p.clone())))
                .collect()
        };
        // Verify in tenant order, not hash order: under fault injection the
        // consultation sequence is part of a seeded schedule, and replaying
        // a seed must replay it exactly.
        candidates.sort();
        for (tenant, path) in candidates {
            match Snapshot::verify_file(&path) {
                Ok(()) => report.verified.push(tenant),
                Err(_) => {
                    let mut inner = self.inner.lock().expect("cache lock");
                    // Re-registration may have raced the verify; only act
                    // if the tenant still serves this file.
                    if inner.tenants.get(&tenant) != Some(&path) {
                        continue;
                    }
                    if inner.entries.get(&tenant).is_some_and(|e| e.pins > 0) {
                        report.skipped_pinned += 1;
                        self.stats
                            .scrub_skipped_pinned
                            .fetch_add(1, Ordering::Relaxed);
                        report.pinned_corrupt.push(tenant);
                        continue;
                    }
                    Self::remove_entry(&mut inner, &tenant);
                    inner.quarantined.insert(tenant.clone());
                    self.stats.quarantines.fetch_add(1, Ordering::Relaxed);
                    report.quarantined.push(tenant);
                }
            }
        }
        self.stats.scrub_passes.fetch_add(1, Ordering::Relaxed);
        report.verified.sort();
        report.quarantined.sort();
        report.pinned_corrupt.sort();
        report
    }

    /// Tenants currently quarantined by [`scrub`](Self::scrub), sorted.
    pub fn quarantined(&self) -> Vec<String> {
        let inner = self.inner.lock().expect("cache lock");
        let mut out: Vec<String> = inner.quarantined.iter().cloned().collect();
        out.sort();
        out
    }

    /// Point-in-time snapshot of the counters and current residency.
    pub fn report(&self) -> CacheStatsReport {
        let inner = self.inner.lock().expect("cache lock");
        CacheStatsReport {
            hits: self.stats.hits.load(Ordering::Relaxed),
            misses: self.stats.misses.load(Ordering::Relaxed),
            evictions: self.stats.evictions.load(Ordering::Relaxed),
            rejections: self.stats.rejections.load(Ordering::Relaxed),
            pins: self.stats.pins.load(Ordering::Relaxed),
            unpins: self.stats.unpins.load(Ordering::Relaxed),
            bytes_loaded: self.stats.bytes_loaded.load(Ordering::Relaxed),
            resident_bytes: inner.resident_bytes,
            resident_entries: inner.entries.len(),
            byte_budget: self.config.byte_budget,
            scrub_passes: self.stats.scrub_passes.load(Ordering::Relaxed),
            scrub_skipped_pinned: self.stats.scrub_skipped_pinned.load(Ordering::Relaxed),
            quarantines: self.stats.quarantines.load(Ordering::Relaxed),
            repairs_attempted: self.stats.repairs_attempted.load(Ordering::Relaxed),
            repairs_succeeded: self.stats.repairs_succeeded.load(Ordering::Relaxed),
            repairs_failed: self.stats.repairs_failed.load(Ordering::Relaxed),
            mean_time_to_repair_us: {
                let succeeded = self.stats.repairs_succeeded.load(Ordering::Relaxed);
                if succeeded == 0 {
                    0.0
                } else {
                    self.stats.repair_time_us_total.load(Ordering::Relaxed) as f64
                        / succeeded as f64
                }
            },
        }
    }

    /// Evict unpinned entries until `incoming` more bytes and one more
    /// entry fit within the budgets.
    fn make_room(&self, inner: &mut CacheInner, incoming: u64) -> Result<(), CacheError> {
        if incoming > self.config.byte_budget {
            return Err(CacheError::Overloaded {
                needed: incoming,
                budget: self.config.byte_budget,
            });
        }
        while inner.resident_bytes + incoming > self.config.byte_budget
            || inner.entries.len() + 1 > self.config.max_entries.max(1)
        {
            let candidates: Vec<&str> = inner
                .entries
                .iter()
                .filter(|(_, e)| e.pins == 0)
                .map(|(t, _)| t.as_str())
                .collect();
            let victim = inner
                .policy
                .choose_victim(&candidates)
                .filter(|v| candidates.iter().any(|c| c == v));
            let Some(victim) = victim else {
                return Err(CacheError::Overloaded {
                    needed: incoming,
                    budget: self.config.byte_budget,
                });
            };
            Self::remove_entry(inner, &victim);
            self.stats.evictions.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }

    fn remove_entry(inner: &mut CacheInner, tenant: &str) {
        if let Some(entry) = inner.entries.remove(tenant) {
            debug_assert_eq!(entry.pins, 0, "evicting a pinned entry");
            inner.resident_bytes -= entry.bytes;
            inner.policy.on_remove(tenant);
        }
    }

    fn guard(self: &Arc<Self>, tenant: &str, pipeline: Arc<LafPipeline>) -> PinnedSnapshot {
        PinnedSnapshot {
            cache: Arc::clone(self),
            tenant: tenant.to_string(),
            pipeline,
        }
    }

    fn unpin(&self, tenant: &str) {
        let mut inner = self.inner.lock().expect("cache lock");
        if let Some(entry) = inner.entries.get_mut(tenant) {
            entry.pins = entry.pins.saturating_sub(1);
        }
        self.stats.unpins.fetch_add(1, Ordering::Relaxed);
    }
}

/// RAII pin on a tenant's cached pipeline: [`Deref`]s to the
/// [`LafPipeline`]; dropping it releases the pin (making the entry
/// evictable again once no other pins remain).
pub struct PinnedSnapshot {
    cache: Arc<SnapshotCache>,
    tenant: String,
    pipeline: Arc<LafPipeline>,
}

impl PinnedSnapshot {
    /// The tenant this pin belongs to.
    pub fn tenant(&self) -> &str {
        &self.tenant
    }

    /// The pinned pipeline, shared. The `Arc` may outlive the pin — it
    /// keeps the pipeline alive, but not the cache entry's residency.
    pub fn pipeline(&self) -> Arc<LafPipeline> {
        Arc::clone(&self.pipeline)
    }
}

impl Deref for PinnedSnapshot {
    type Target = LafPipeline;

    fn deref(&self) -> &Self::Target {
        &self.pipeline
    }
}

impl Drop for PinnedSnapshot {
    fn drop(&mut self) {
        self.cache.unpin(&self.tenant);
    }
}

impl fmt::Debug for PinnedSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PinnedSnapshot")
            .field("tenant", &self.tenant)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use laf_cardest::{NetConfig, TrainingSetBuilder};
    use laf_core::{LafConfig, LafPipeline};
    use laf_synth::EmbeddingMixtureConfig;

    fn snapshot_file(dir: &Path, name: &str, seed: u64) -> (PathBuf, u64) {
        let (data, _) = EmbeddingMixtureConfig {
            n_points: 80,
            dim: 6,
            clusters: 2,
            seed,
            ..Default::default()
        }
        .generate()
        .unwrap();
        let path = dir.join(format!("{name}_{}.lafs", std::process::id()));
        LafPipeline::builder(LafConfig::new(0.3, 4, 1.0))
            .net(NetConfig::tiny())
            .training(TrainingSetBuilder {
                max_queries: Some(40),
                ..Default::default()
            })
            .train_and_save(data, &path)
            .unwrap();
        let bytes = std::fs::metadata(&path).unwrap().len();
        (path, bytes)
    }

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("laf_serve_cache_{name}"));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn hit_after_miss_reuses_the_resident_pipeline() {
        let dir = temp_dir("hit");
        let (path, bytes) = snapshot_file(&dir, "a", 1);
        let cache = SnapshotCache::new(CacheConfig {
            byte_budget: bytes * 4,
            ..CacheConfig::default()
        });
        cache.register("a", &path).unwrap();
        let first = cache.pin("a").unwrap();
        let second = cache.pin("a").unwrap();
        assert!(Arc::ptr_eq(&first.pipeline(), &second.pipeline()));
        let report = cache.report();
        assert_eq!((report.misses, report.hits), (1, 1));
        assert_eq!(report.resident_bytes, bytes);
        drop((first, second));
        assert_eq!(cache.report().unpins, 2);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn lru_evicts_the_coldest_unpinned_tenant() {
        let dir = temp_dir("lru");
        let (pa, bytes) = snapshot_file(&dir, "a", 1);
        let (pb, _) = snapshot_file(&dir, "b", 2);
        let (pc, _) = snapshot_file(&dir, "c", 3);
        // Room for exactly two resident snapshots.
        let cache = SnapshotCache::new(CacheConfig {
            byte_budget: bytes * 2 + bytes / 2,
            ..CacheConfig::default()
        });
        cache.register("a", &pa).unwrap();
        cache.register("b", &pb).unwrap();
        cache.register("c", &pc).unwrap();
        drop(cache.pin("a").unwrap());
        drop(cache.pin("b").unwrap());
        drop(cache.pin("a").unwrap()); // a is now warmer than b
        drop(cache.pin("c").unwrap()); // must evict b, the LRU victim
        assert!(cache.resident("a"));
        assert!(!cache.resident("b"));
        assert!(cache.resident("c"));
        assert!(matches!(
            cache.try_pin("b").unwrap_err(),
            CacheError::Evicted { .. }
        ));
        assert_eq!(cache.report().evictions, 1);
        for p in [pa, pb, pc] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn pinned_entries_are_never_evicted() {
        let dir = temp_dir("pinned");
        let (pa, bytes) = snapshot_file(&dir, "a", 1);
        let (pb, _) = snapshot_file(&dir, "b", 2);
        // Room for one resident snapshot only.
        let cache = SnapshotCache::new(CacheConfig {
            byte_budget: bytes + bytes / 2,
            ..CacheConfig::default()
        });
        cache.register("a", &pa).unwrap();
        cache.register("b", &pb).unwrap();
        let pinned = cache.pin("a").unwrap();
        let err = cache.pin("b").unwrap_err();
        assert!(matches!(err, CacheError::Overloaded { .. }), "{err}");
        assert!(cache.resident("a"), "the pinned tenant must survive");
        drop(pinned);
        // Unpinned, `a` is now evictable and `b` fits.
        let b = cache.pin("b").unwrap();
        assert!(!cache.resident("a"));
        assert_eq!(b.tenant(), "b");
        let report = cache.report();
        assert_eq!(report.rejections, 1);
        assert_eq!(report.evictions, 1);
        assert!(report.resident_bytes <= report.byte_budget);
        drop(b);
        for p in [pa, pb] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn unknown_tenants_and_quotas_are_typed_errors() {
        let dir = temp_dir("typed");
        let (pa, bytes) = snapshot_file(&dir, "a", 1);
        let cache = SnapshotCache::new(CacheConfig {
            byte_budget: bytes * 4,
            tenant_quota: bytes - 1,
            ..CacheConfig::default()
        });
        assert!(matches!(
            cache.pin("ghost").unwrap_err(),
            CacheError::UnknownTenant(_)
        ));
        assert!(matches!(
            cache.try_pin("ghost").unwrap_err(),
            CacheError::UnknownTenant(_)
        ));
        cache.register("a", &pa).unwrap();
        let err = cache.pin("a").unwrap_err();
        assert!(matches!(err, CacheError::QuotaExceeded { .. }), "{err}");
        assert_eq!(cache.report().rejections, 1);
        std::fs::remove_file(pa).ok();
    }

    #[test]
    fn entry_cap_is_enforced_independently_of_bytes() {
        let dir = temp_dir("cap");
        let (pa, bytes) = snapshot_file(&dir, "a", 1);
        let (pb, _) = snapshot_file(&dir, "b", 2);
        let cache = SnapshotCache::new(CacheConfig {
            byte_budget: bytes * 10,
            max_entries: 1,
            tenant_quota: 0,
        });
        cache.register("a", &pa).unwrap();
        cache.register("b", &pb).unwrap();
        drop(cache.pin("a").unwrap());
        drop(cache.pin("b").unwrap());
        assert!(
            !cache.resident("a"),
            "entry cap must evict despite byte room"
        );
        assert_eq!(cache.report().evictions, 1);
        for p in [pa, pb] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn repointing_a_tenant_invalidates_the_stale_entry() {
        let dir = temp_dir("repoint");
        let (pa, bytes) = snapshot_file(&dir, "a", 1);
        let (pa2, _) = snapshot_file(&dir, "a2", 2);
        let cache = SnapshotCache::new(CacheConfig {
            byte_budget: bytes * 4,
            ..CacheConfig::default()
        });
        cache.register("a", &pa).unwrap();
        let before = cache.pin("a").unwrap().pipeline();
        cache.register("a", &pa2).unwrap();
        let after = cache.pin("a").unwrap().pipeline();
        assert!(
            !Arc::ptr_eq(&before, &after),
            "a re-pointed tenant must load the new snapshot"
        );
        for p in [pa, pa2] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn cache_and_guards_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Arc<SnapshotCache>>();
        assert_send_sync::<PinnedSnapshot>();
        assert_send_sync::<CacheConfig>();
    }

    /// XOR one byte of the file in place (and back, when called twice).
    fn flip_byte(path: &Path, offset: usize) {
        let mut bytes = std::fs::read(path).unwrap();
        bytes[offset] ^= 0x01;
        std::fs::write(path, bytes).unwrap();
    }

    #[test]
    fn register_rejects_a_garbage_file_naming_it() {
        let dir = temp_dir("reject");
        let path = dir.join(format!("garbage_{}.lafs", std::process::id()));
        std::fs::write(&path, b"not a snapshot at all").unwrap();
        let cache = SnapshotCache::new(CacheConfig::default());
        let err = cache.register("a", &path).unwrap_err();
        match &err {
            CacheError::Corrupt {
                tenant, path: p, ..
            } => {
                assert_eq!(tenant, "a");
                assert_eq!(p, &path);
            }
            other => panic!("expected Corrupt, got {other}"),
        }
        assert!(err.to_string().contains("garbage_"), "{err}");
        // The rejected registration left no tenant behind.
        assert!(matches!(
            cache.pin("a").unwrap_err(),
            CacheError::UnknownTenant(_)
        ));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn scrub_quarantines_a_corrupted_resident_snapshot() {
        let dir = temp_dir("scrub");
        let (pa, bytes) = snapshot_file(&dir, "sa", 1);
        let (pb, _) = snapshot_file(&dir, "sb", 2);
        let cache = SnapshotCache::new(CacheConfig {
            byte_budget: bytes * 4,
            ..CacheConfig::default()
        });
        cache.register("a", &pa).unwrap();
        cache.register("b", &pb).unwrap();
        drop(cache.pin("a").unwrap());
        drop(cache.pin("b").unwrap());
        let clean = cache.scrub();
        assert_eq!(clean.verified, vec!["a".to_string(), "b".to_string()]);
        assert!(clean.quarantined.is_empty());
        // Rot a byte in the middle of a's file (a section body, not the
        // header the eager register validation already covered).
        let len = std::fs::metadata(&pa).unwrap().len() as usize;
        flip_byte(&pa, len / 2);
        let report = cache.scrub();
        assert_eq!(report.verified, vec!["b".to_string()]);
        assert_eq!(report.quarantined, vec!["a".to_string()]);
        assert!(!cache.resident("a"), "quarantine drops residency");
        assert!(matches!(
            cache.pin("a").unwrap_err(),
            CacheError::Quarantined { .. }
        ));
        assert!(matches!(
            cache.try_pin("a").unwrap_err(),
            CacheError::Quarantined { .. }
        ));
        assert_eq!(cache.quarantined(), vec!["a".to_string()]);
        // The healthy tenant keeps serving.
        drop(cache.pin("b").unwrap());
        for p in [pa, pb] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn re_registering_a_repaired_file_lifts_quarantine() {
        let dir = temp_dir("requarantine");
        let (pa, _) = snapshot_file(&dir, "ra", 7);
        let cache = SnapshotCache::new(CacheConfig::default());
        cache.register("a", &pa).unwrap();
        drop(cache.pin("a").unwrap());
        let len = std::fs::metadata(&pa).unwrap().len() as usize;
        flip_byte(&pa, len / 2);
        assert_eq!(cache.scrub().quarantined, vec!["a".to_string()]);
        assert!(matches!(
            cache.pin("a").unwrap_err(),
            CacheError::Quarantined { .. }
        ));
        // Repair the file and re-register: the tenant serves again.
        flip_byte(&pa, len / 2);
        cache.register("a", &pa).unwrap();
        let pin = cache.pin("a").unwrap();
        assert_eq!(pin.tenant(), "a");
        drop(pin);
        assert!(cache.quarantined().is_empty());
        std::fs::remove_file(pa).ok();
    }

    #[test]
    fn scrub_skips_pinned_entries() {
        let dir = temp_dir("scrubpin");
        let (pa, _) = snapshot_file(&dir, "pa", 9);
        let cache = SnapshotCache::new(CacheConfig::default());
        cache.register("a", &pa).unwrap();
        let pin = cache.pin("a").unwrap();
        // A clean pinned entry is verified like any other.
        let clean = cache.scrub();
        assert_eq!(clean.verified, vec!["a".to_string()]);
        assert_eq!(clean.skipped_pinned, 0);
        let len = std::fs::metadata(&pa).unwrap().len() as usize;
        flip_byte(&pa, len / 2);
        let report = cache.scrub();
        assert_eq!(report.skipped_pinned, 1);
        assert_eq!(report.pinned_corrupt, vec!["a".to_string()]);
        assert!(report.quarantined.is_empty(), "pinned entries are immune");
        assert!(cache.resident("a"));
        let stats = cache.report();
        assert_eq!(stats.scrub_passes, 2);
        assert_eq!(stats.scrub_skipped_pinned, 1);
        assert_eq!(stats.quarantines, 0);
        // Once the pin drops, the next pass quarantines the rotten file.
        drop(pin);
        assert_eq!(cache.scrub().quarantined, vec!["a".to_string()]);
        assert_eq!(cache.report().quarantines, 1);
        std::fs::remove_file(pa).ok();
    }
}
