//! Sharded scatter-gather and tenant-cache experiment.
//!
//! Not a paper exhibit: this measures the two serving-scale features of the
//! format-v4 snapshot layer. **Fan-out**: one pipeline is trained and saved
//! at several shard counts, each snapshot is restored by mmap, and the same
//! query sweep (range / range_count / knn) plus a full LAF-DBSCAN run is
//! timed per shard count — with every result compared bit for bit against
//! the unsharded arm, so the benchmark doubles as the end-to-end
//! equivalence gate for sharded snapshots. **Tenant cache**: the sharded
//! snapshots are then registered as tenants of a
//! [`laf_serve::SnapshotCache`] whose byte budget holds only one of them;
//! a round-robin access pattern forces misses and evictions, and the
//! cache's own counters are cross-checked for accounting consistency
//! (pins = hits + misses = unpins, resident bytes within budget, evictions
//! matching reloads).
//!
//! Alongside, three runtime costs are recorded but never gated (CI hosts
//! are shared, so their timings are too noisy to fail a build on): the
//! per-call overhead of the parallel runtime, estimator training split into
//! building the training set and fitting the network, and each arm's
//! `range_batch` time next to its scalar query sweeps.
//!
//! Results are printed as a table and written to
//! `<results_dir>/BENCH_sharding.json`. The `exp_sharding` binary exits
//! non-zero on any divergence or accounting inconsistency.

use crate::harness::HarnessConfig;
use crate::report::{print_table, write_json};
use laf_cardest::{MlpEstimator, TrainingSetBuilder};
use laf_core::{LafConfig, LafPipeline};
use laf_index::{EngineChoice, Neighbor};
use laf_serve::{CacheConfig, CacheError, CacheStatsReport, SnapshotCache, TenantServer};
use laf_synth::EmbeddingMixtureConfig;
use laf_vector::Dataset;
use rayon::prelude::*;
use serde::Serialize;
use std::path::PathBuf;
use std::time::Instant;

/// Shard counts swept by the experiment; the first (1 = unsharded) is the
/// bit-identity reference the others are compared against.
pub const SHARD_SWEEP: [usize; 3] = [1, 2, 4];

/// Distinct query vectors per sweep.
const N_QUERIES: usize = 32;

/// Cache accesses issued per tenant in the round-robin phase.
const CACHE_ROUNDS: usize = 6;

/// One measured shard-count arm.
#[derive(Debug, Clone, Serialize)]
pub struct ShardingRecord {
    /// Number of shard sections in the snapshot (1 = classic layout).
    pub shards: usize,
    /// Snapshot file size, bytes.
    pub snapshot_bytes: u64,
    /// mmap warm start (decode + engine restore), milliseconds.
    pub load_ms: f64,
    /// The `N_QUERIES`-query range sweep, milliseconds.
    pub range_ms: f64,
    /// The range_count sweep, milliseconds.
    pub range_count_ms: f64,
    /// The knn sweep (k = 5), milliseconds.
    pub knn_ms: f64,
    /// One `range_batch` call over the whole query set, milliseconds.
    pub range_batch_ms: f64,
    /// Full LAF-DBSCAN run over the restored pipeline, milliseconds.
    pub cluster_ms: f64,
    /// Results (range, count, knn order, range_batch, labels) differing from
    /// the unsharded reference — must be 0.
    pub divergences: u64,
}

/// Everything the sharding experiment measures, persisted as one JSON
/// object.
#[derive(Debug, Clone, Serialize)]
pub struct ShardingReport {
    /// Points in the dataset.
    pub n_points: usize,
    /// Data dimensionality.
    pub dim: usize,
    /// Range radius of the query sweeps.
    pub eps: f32,
    /// Queries per sweep.
    pub n_queries: usize,
    /// The shard counts the records cover.
    pub shard_counts: Vec<usize>,
    /// Median wall time of a 2-item parallel collect, microseconds: the
    /// fixed cost every shard fan-out pays.
    pub pool_call_us: f64,
    /// Building the estimator's training set (exact counts), milliseconds.
    pub train_build_ms: f64,
    /// Fitting the estimator network on it, milliseconds.
    pub train_fit_ms: f64,
    /// One record per shard count.
    pub records: Vec<ShardingRecord>,
    /// `true` when every sharded result matched the unsharded reference.
    pub results_identical: bool,
    /// Tenants registered in the cache phase.
    pub cache_tenants: usize,
    /// Cache accesses issued in the round-robin phase.
    pub cache_accesses: u64,
    /// The cache's own counters after the round-robin phase.
    pub cache: CacheStatsReport,
    /// `true` when the cache counters are mutually consistent (see
    /// [`cache_accounting_consistent`]).
    pub cache_consistent: bool,
}

/// The accounting invariants the cache phase must leave behind: every pin
/// classified as hit or miss and released again, residency within the byte
/// budget, and every reload beyond the resident set paid for by exactly one
/// eviction.
pub fn cache_accounting_consistent(report: &CacheStatsReport) -> bool {
    report.pins == report.hits + report.misses
        && report.unpins == report.pins
        && report.resident_bytes <= report.byte_budget
        && report.misses >= report.resident_entries as u64
        && report.evictions == report.misses - report.resident_entries as u64
}

fn sharding_dataset(cfg: &HarnessConfig) -> Dataset {
    // 4000 points at the default scale: enough per-shard scan work that the
    // sweep measures the fan-out rather than its fixed cost.
    let n_points = ((500_000.0 * cfg.scale) as usize).clamp(240, 8_000);
    let dim = cfg.dim_cap.unwrap_or(24).clamp(6, 24);
    EmbeddingMixtureConfig {
        n_points,
        dim,
        clusters: 8,
        noise_fraction: 0.15,
        seed: cfg.seed,
        ..Default::default()
    }
    .generate()
    .expect("valid sharding dataset config")
    .0
}

struct Reference {
    range: Vec<Vec<u32>>,
    count: Vec<usize>,
    knn: Vec<Vec<Neighbor>>,
    labels: Vec<i64>,
}

/// Run the sweep plus the cache phase and write `BENCH_sharding.json`.
pub fn run(cfg: &HarnessConfig) -> ShardingReport {
    let data = sharding_dataset(cfg);
    let eps = 0.3f32;
    let (n_points, dim) = (data.len(), data.dim());
    println!(
        "\nsharding sweep: {n_points} points x {dim} dims, eps {eps}, \
         shard counts {SHARD_SWEEP:?}, {N_QUERIES} queries per sweep"
    );

    let dir = std::env::temp_dir().join(format!("laf_bench_sharding_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("bench temp dir");

    let pool_call_us = pool_call_us();
    let training = TrainingSetBuilder {
        max_queries: Some(cfg.train_queries.min(120)),
        ..Default::default()
    };
    let started = Instant::now();
    let training_set = training.build(&data, &data).expect("training set");
    let train_build_ms = started.elapsed().as_secs_f64() * 1e3;
    let started = Instant::now();
    MlpEstimator::train(&training_set, &cfg.net);
    let train_fit_ms = started.elapsed().as_secs_f64() * 1e3;
    println!(
        "parallel call {pool_call_us:.1}us; training: build {train_build_ms:.1}ms, \
         fit {train_fit_ms:.1}ms (recorded, not gated)"
    );

    // One snapshot file per shard count. The training inputs are identical,
    // so the estimators — and therefore the labels — may only differ if the
    // sharded scatter-gather itself diverges.
    let config = LafConfig {
        engine: EngineChoice::Grid { cell_side: 0.3 },
        ..LafConfig::new(eps, 4, 1.0)
    };
    let paths: Vec<PathBuf> = SHARD_SWEEP
        .iter()
        .map(|&n| {
            let path = dir.join(format!("shards{n}.lafs"));
            LafPipeline::builder(config.clone())
                .net(cfg.net.clone())
                .training(training.clone())
                .shards(n)
                .train_and_save(data.clone(), &path)
                .expect("train sharded pipeline");
            path
        })
        .collect();

    let stride = (n_points / N_QUERIES).max(1);
    let queries: Vec<Vec<f32>> = (0..N_QUERIES.min(n_points))
        .map(|i| data.row(i * stride).to_vec())
        .collect();

    let mut reference: Option<Reference> = None;
    let mut records = Vec::new();
    for (&shards, path) in SHARD_SWEEP.iter().zip(&paths) {
        let snapshot_bytes = std::fs::metadata(path).expect("snapshot size").len();
        let started = Instant::now();
        let pipeline = LafPipeline::load_mmap(path).expect("mmap warm start");
        let engine = pipeline.engine();
        let load_ms = started.elapsed().as_secs_f64() * 1e3;

        let started = Instant::now();
        let range: Vec<Vec<u32>> = queries.iter().map(|q| engine.get().range(q, eps)).collect();
        let range_ms = started.elapsed().as_secs_f64() * 1e3;
        let started = Instant::now();
        let count: Vec<usize> = queries
            .iter()
            .map(|q| engine.get().range_count(q, eps))
            .collect();
        let range_count_ms = started.elapsed().as_secs_f64() * 1e3;
        let started = Instant::now();
        let knn: Vec<Vec<Neighbor>> = queries.iter().map(|q| engine.get().knn(q, 5)).collect();
        let knn_ms = started.elapsed().as_secs_f64() * 1e3;
        let rows: Vec<&[f32]> = queries.iter().map(Vec::as_slice).collect();
        let started = Instant::now();
        let batch = engine.get().range_batch(&rows, eps);
        let range_batch_ms = started.elapsed().as_secs_f64() * 1e3;
        let started = Instant::now();
        let (clustering, _) = pipeline.cluster_with_stats();
        let cluster_ms = started.elapsed().as_secs_f64() * 1e3;
        let labels = clustering.labels().to_vec();

        let divergences = match &reference {
            None => {
                let diverged = (batch != range) as u64;
                reference = Some(Reference {
                    range,
                    count,
                    knn,
                    labels,
                });
                diverged
            }
            Some(want) => {
                let mut diverged = (batch != want.range) as u64;
                diverged += (0..queries.len())
                    .filter(|&i| range[i] != want.range[i] || count[i] != want.count[i])
                    .count() as u64;
                diverged += (0..queries.len())
                    .filter(|&i| knn[i] != want.knn[i])
                    .count() as u64;
                if labels != want.labels {
                    diverged += 1;
                }
                diverged
            }
        };
        records.push(ShardingRecord {
            shards,
            snapshot_bytes,
            load_ms,
            range_ms,
            range_count_ms,
            knn_ms,
            range_batch_ms,
            cluster_ms,
            divergences,
        });
    }

    // Cache phase: the sharded snapshots become tenants of a cache whose
    // budget holds exactly one of them, so the round-robin access pattern
    // below evicts and reloads on every tenant switch.
    let largest = records
        .iter()
        .map(|r| r.snapshot_bytes)
        .max()
        .expect("non-empty sweep");
    let cache = SnapshotCache::new(CacheConfig {
        byte_budget: largest + largest / 2,
        max_entries: SHARD_SWEEP.len(),
        tenant_quota: 0,
    });
    for (&shards, path) in SHARD_SWEEP.iter().zip(&paths) {
        cache.register(&format!("shards{shards}"), path).unwrap();
    }
    let server = TenantServer::new(cache.clone());
    let want = reference.as_ref().expect("reference arm ran");
    let mut cache_accesses = 0u64;
    let mut cache_divergences = 0u64;
    for round in 0..CACHE_ROUNDS {
        for &shards in &SHARD_SWEEP {
            let tenant = format!("shards{shards}");
            // Two back-to-back queries per tenant: the first is the (likely)
            // miss that loads the snapshot, the second a guaranteed hit —
            // so both counters see real traffic.
            for burst in 0..2 {
                let qi = (round * SHARD_SWEEP.len() + shards + burst) % queries.len();
                cache_accesses += 1;
                match server.range_count(&tenant, &queries[qi], eps) {
                    Ok(count) => {
                        if count != want.count[qi] {
                            cache_divergences += 1;
                        }
                    }
                    Err(CacheError::Overloaded { .. }) => {}
                    Err(e) => panic!("cache phase: unexpected error {e}"),
                }
            }
        }
    }
    let cache_report = cache.report();
    let cache_consistent = cache_accounting_consistent(&cache_report) && cache_divergences == 0;

    let rows: Vec<Vec<String>> = records
        .iter()
        .map(|r| {
            vec![
                r.shards.to_string(),
                r.snapshot_bytes.to_string(),
                format!("{:.2}", r.load_ms),
                format!("{:.2}", r.range_ms),
                format!("{:.2}", r.range_count_ms),
                format!("{:.2}", r.knn_ms),
                format!("{:.2}", r.range_batch_ms),
                format!("{:.2}", r.cluster_ms),
                if r.divergences == 0 { "ok" } else { "DIVERGED" }.to_string(),
            ]
        })
        .collect();
    print_table(
        "Sharded scatter-gather: per-shard fan-out vs the unsharded engine",
        &[
            "shards",
            "bytes",
            "load ms",
            "range ms",
            "count ms",
            "knn ms",
            "batch ms",
            "cluster ms",
            "results",
        ],
        &rows,
    );
    println!(
        "\ntenant cache ({} tenants through a 1-snapshot budget): {} accesses, \
         {} hits / {} misses / {} evictions; accounting {}",
        SHARD_SWEEP.len(),
        cache_accesses,
        cache_report.hits,
        cache_report.misses,
        cache_report.evictions,
        if cache_consistent {
            "consistent"
        } else {
            "INCONSISTENT"
        }
    );

    let results_identical = records.iter().all(|r| r.divergences == 0);
    let report = ShardingReport {
        n_points,
        dim,
        eps,
        n_queries: queries.len(),
        shard_counts: SHARD_SWEEP.to_vec(),
        pool_call_us,
        train_build_ms,
        train_fit_ms,
        records,
        results_identical,
        cache_tenants: SHARD_SWEEP.len(),
        cache_accesses,
        cache: cache_report,
        cache_consistent,
    };
    write_json(&cfg.results_dir, "BENCH_sharding", &report);
    for path in paths {
        std::fs::remove_file(path).ok();
    }
    report
}

/// Median wall time of a 2-item parallel collect, in microseconds.
fn pool_call_us() -> f64 {
    let mut samples: Vec<f64> = (0..1_000)
        .map(|i| {
            let started = Instant::now();
            let out: Vec<usize> = (0..2usize)
                .into_par_iter()
                .map(|x| std::hint::black_box(x + i))
                .collect();
            std::hint::black_box(out);
            started.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;
    use laf_cardest::NetConfig;

    #[test]
    fn sweep_is_bit_identical_and_cache_accounting_balances() {
        let cfg = HarnessConfig {
            // 240 points (the size floor): a smoke run of the full sweep.
            scale: 0.0004,
            dim_cap: Some(16),
            train_queries: 40,
            net: NetConfig::tiny(),
            results_dir: std::env::temp_dir().join("laf_bench_sharding_test"),
            ..Default::default()
        };
        let report = run(&cfg);
        assert_eq!(report.records.len(), SHARD_SWEEP.len());
        // Bit-identity is asserted even at smoke scale: the sharded engines
        // must reproduce the unsharded answers exactly.
        assert!(report.results_identical, "sharded results diverged");
        assert!(report.cache_consistent, "cache accounting inconsistent");
        // The single-snapshot budget forces real cache churn.
        assert!(
            report.cache.evictions > 0,
            "no evictions — budget too loose"
        );
        assert!(report.cache.misses > report.cache.resident_entries as u64);
        assert!(report.records.iter().all(|r| r.load_ms > 0.0));
        assert_eq!(report.n_points, 240);
        assert!(cfg.results_dir.join("BENCH_sharding.json").exists());
    }
}
