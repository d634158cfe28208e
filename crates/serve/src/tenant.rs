//! Multi-tenant request routing over a [`SnapshotCache`].
//!
//! [`TenantServer`] is the thin serving front for hosts that hold many
//! tenants' snapshots behind one memory budget: every query names a tenant,
//! the server pins that tenant's pipeline in the shared [`SnapshotCache`]
//! (loading it on a miss, evicting colder tenants as needed), runs the
//! query against the cached engine, and releases the pin when the answer is
//! built. Results are bit-identical to querying the tenant's pipeline
//! directly — the cache only changes *when* snapshots are resident, never
//! what they answer.

use crate::cache::{CacheError, PinnedSnapshot, SnapshotCache};
use crate::maintenance::{MaintenanceConfig, MaintenanceSupervisor, SnapshotSource};
use crate::request::{InvalidRequest, QueryRequest, QueryResponse};
use laf_clustering::Clustering;
use laf_core::LafStats;
use laf_index::Neighbor;
use std::sync::Arc;

/// Routes per-tenant queries through a shared [`SnapshotCache`].
///
/// Cloning is cheap (the cache is shared); a `TenantServer` per worker
/// thread is the intended usage.
#[derive(Debug, Clone)]
pub struct TenantServer {
    cache: Arc<SnapshotCache>,
}

impl TenantServer {
    /// A server routing through `cache`.
    pub fn new(cache: Arc<SnapshotCache>) -> Self {
        Self { cache }
    }

    /// The underlying cache (for registration, stats, or direct pinning).
    pub fn cache(&self) -> &Arc<SnapshotCache> {
        &self.cache
    }

    /// Start a self-healing [`MaintenanceSupervisor`] over this server's
    /// cache: periodic scrub, quarantine, and replica-backed repair of
    /// every tenant the cache serves (see [`MaintenanceSupervisor`]). The
    /// supervisor stops and joins when the returned handle drops; requests
    /// keep flowing through `self` while it runs.
    pub fn start_maintenance(
        &self,
        source: Arc<dyn SnapshotSource>,
        config: MaintenanceConfig,
    ) -> MaintenanceSupervisor {
        MaintenanceSupervisor::start(Arc::clone(&self.cache), source, config)
    }

    /// Pin `tenant`'s pipeline for a multi-query request. Prefer the
    /// one-shot query methods below for single lookups; use an explicit pin
    /// when several queries must see the same snapshot generation.
    pub fn pin(&self, tenant: &str) -> Result<PinnedSnapshot, CacheError> {
        self.cache.pin(tenant)
    }

    /// Answer any [`QueryRequest`] over `tenant`'s snapshot — the unified
    /// request path every typed method below funnels through. Read kinds
    /// pin the tenant's pipeline for exactly one query; write kinds fail
    /// with [`CacheError::ReadOnly`] (cached snapshots are shared, mmap'd
    /// and immutable — a tenant that takes writes needs its own mutable
    /// server, [`crate::LafServer::start_mutable`]).
    pub fn submit(&self, tenant: &str, request: QueryRequest) -> Result<QueryResponse, CacheError> {
        match request {
            QueryRequest::Insert { .. } | QueryRequest::Delete { .. } => {
                return Err(CacheError::ReadOnly {
                    tenant: tenant.to_string(),
                })
            }
            _ => {}
        }
        let pin = self.cache.pin(tenant)?;
        if let Some(query) = request.read_query() {
            InvalidRequest::check(query, pin.data().dim()).map_err(|reason| {
                CacheError::InvalidRequest {
                    tenant: tenant.to_string(),
                    reason,
                }
            })?;
        }
        Ok(match request {
            QueryRequest::Range { query, eps } => {
                QueryResponse::Range(pin.engine().get().range(&query, eps))
            }
            QueryRequest::RangeCount { query, eps } => {
                QueryResponse::Count(pin.engine().get().range_count(&query, eps))
            }
            QueryRequest::Knn { query, k } => QueryResponse::Knn(pin.engine().get().knn(&query, k)),
            QueryRequest::Estimate { query, eps } => {
                QueryResponse::Estimate(pin.estimate(&query, eps))
            }
            QueryRequest::Insert { .. } | QueryRequest::Delete { .. } => {
                unreachable!("write kinds rejected before pinning")
            }
        })
    }

    /// ε-range query over `tenant`'s snapshot: row ids within `eps`.
    pub fn range(&self, tenant: &str, query: &[f32], eps: f32) -> Result<Vec<u32>, CacheError> {
        match self.submit(
            tenant,
            QueryRequest::Range {
                query: query.to_vec(),
                eps,
            },
        )? {
            QueryResponse::Range(hits) => Ok(hits),
            _ => unreachable!("range requests resolve to range responses"),
        }
    }

    /// ε-range count over `tenant`'s snapshot.
    pub fn range_count(&self, tenant: &str, query: &[f32], eps: f32) -> Result<usize, CacheError> {
        match self.submit(
            tenant,
            QueryRequest::RangeCount {
                query: query.to_vec(),
                eps,
            },
        )? {
            QueryResponse::Count(n) => Ok(n),
            _ => unreachable!("count requests resolve to count responses"),
        }
    }

    /// k-nearest-neighbor query over `tenant`'s snapshot.
    pub fn knn(&self, tenant: &str, query: &[f32], k: usize) -> Result<Vec<Neighbor>, CacheError> {
        match self.submit(
            tenant,
            QueryRequest::Knn {
                query: query.to_vec(),
                k,
            },
        )? {
            QueryResponse::Knn(neighbors) => Ok(neighbors),
            _ => unreachable!("knn requests resolve to knn responses"),
        }
    }

    /// Learned cardinality estimate from `tenant`'s trained estimator.
    pub fn estimate(&self, tenant: &str, query: &[f32], eps: f32) -> Result<f32, CacheError> {
        match self.submit(
            tenant,
            QueryRequest::Estimate {
                query: query.to_vec(),
                eps,
            },
        )? {
            QueryResponse::Estimate(est) => Ok(est),
            _ => unreachable!("estimate requests resolve to estimate responses"),
        }
    }

    /// Run LAF-DBSCAN over `tenant`'s snapshot dataset.
    pub fn cluster_with_stats(&self, tenant: &str) -> Result<(Clustering, LafStats), CacheError> {
        let pin = self.cache.pin(tenant)?;
        Ok(pin.cluster_with_stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{CacheConfig, SnapshotCache};
    use laf_cardest::{NetConfig, TrainingSetBuilder};
    use laf_core::{LafConfig, LafPipeline};
    use laf_synth::EmbeddingMixtureConfig;
    use std::path::PathBuf;

    fn snapshot_file(name: &str, seed: u64) -> (PathBuf, u64, LafPipeline) {
        let (data, _) = EmbeddingMixtureConfig {
            n_points: 90,
            dim: 6,
            clusters: 2,
            seed,
            ..Default::default()
        }
        .generate()
        .unwrap();
        let dir = std::env::temp_dir().join("laf_serve_tenant");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{name}_{}.lafs", std::process::id()));
        let pipeline = LafPipeline::builder(LafConfig::new(0.3, 4, 1.0))
            .net(NetConfig::tiny())
            .training(TrainingSetBuilder {
                max_queries: Some(40),
                ..Default::default()
            })
            .train_and_save(data, &path)
            .unwrap();
        let bytes = std::fs::metadata(&path).unwrap().len();
        (path, bytes, pipeline)
    }

    #[test]
    fn tenant_queries_match_the_direct_pipeline() {
        let (pa, bytes, direct_a) = snapshot_file("a", 11);
        let (pb, _, direct_b) = snapshot_file("b", 22);
        let cache = SnapshotCache::new(CacheConfig {
            byte_budget: bytes * 4,
            ..CacheConfig::default()
        });
        cache.register("a", &pa).unwrap();
        cache.register("b", &pb).unwrap();
        let server = TenantServer::new(Arc::clone(&cache));
        for (tenant, direct) in [("a", &direct_a), ("b", &direct_b)] {
            let q: Vec<f32> = direct.data().row(0).to_vec();
            let engine = direct.engine();
            assert_eq!(
                server.range(tenant, &q, 0.3).unwrap(),
                engine.get().range(&q, 0.3)
            );
            assert_eq!(
                server.range_count(tenant, &q, 0.3).unwrap(),
                engine.get().range_count(&q, 0.3)
            );
            assert_eq!(server.knn(tenant, &q, 5).unwrap(), engine.get().knn(&q, 5));
            assert_eq!(
                server.estimate(tenant, &q, 0.3).unwrap(),
                direct.estimate(&q, 0.3)
            );
            let (clustering, stats) = server.cluster_with_stats(tenant).unwrap();
            let (want_clustering, want_stats) = direct.cluster_with_stats();
            assert_eq!(clustering.labels(), want_clustering.labels());
            assert_eq!(stats, want_stats);
        }
        // Every query after the two misses was a hit.
        let report = cache.report();
        assert_eq!(report.misses, 2);
        assert_eq!(report.pins, report.unpins, "all pins released");
        for p in [pa, pb] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn malformed_tenant_reads_get_a_typed_error() {
        let (path, bytes, direct) = snapshot_file("malformed", 33);
        let cache = SnapshotCache::new(CacheConfig {
            byte_budget: bytes * 2,
            ..CacheConfig::default()
        });
        cache.register("t", &path).unwrap();
        let server = TenantServer::new(Arc::clone(&cache));
        match server.range("t", &[0.1; 5], 0.3).unwrap_err() {
            CacheError::InvalidRequest { tenant, reason } => {
                assert_eq!(tenant, "t");
                assert_eq!(
                    reason,
                    InvalidRequest::DimensionMismatch {
                        expected: 6,
                        found: 5
                    }
                );
            }
            other => panic!("expected InvalidRequest, got {other}"),
        }
        let q = direct.data().row(1).to_vec();
        let mut nan = q.clone();
        nan[4] = f32::NAN;
        assert!(matches!(
            server.knn("t", &nan, 3).unwrap_err(),
            CacheError::InvalidRequest {
                reason: InvalidRequest::NonFiniteQuery,
                ..
            }
        ));
        // A valid query afterwards is answered, and no pin leaked.
        assert_eq!(
            server.range("t", &q, 0.3).unwrap(),
            direct.engine().get().range(&q, 0.3)
        );
        let report = cache.report();
        assert_eq!(report.pins, report.unpins);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn tenant_writes_are_rejected_as_read_only() {
        let cache = SnapshotCache::new(CacheConfig::default());
        let server = TenantServer::new(cache);
        // Rejected before the pin: no UnknownTenant for a write, even on a
        // tenant that was never registered — the kind is wrong regardless.
        match server
            .submit("anyone", QueryRequest::Insert { row: vec![0.0] })
            .unwrap_err()
        {
            CacheError::ReadOnly { tenant } => assert_eq!(tenant, "anyone"),
            other => panic!("expected ReadOnly, got {other}"),
        }
        assert!(matches!(
            server
                .submit("anyone", QueryRequest::Delete { dense: 0 })
                .unwrap_err(),
            CacheError::ReadOnly { .. }
        ));
    }

    #[test]
    fn unknown_tenants_surface_the_cache_error() {
        let cache = SnapshotCache::new(CacheConfig::default());
        let server = TenantServer::new(cache);
        assert!(matches!(
            server.range("ghost", &[0.0], 0.3).unwrap_err(),
            CacheError::UnknownTenant(_)
        ));
    }
}
