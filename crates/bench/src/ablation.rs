//! Ablation studies beyond the paper's headline tables.
//!
//! Three design choices are worth quantifying separately:
//!
//! 1. **Which estimator feeds the gate** (Section 3.1 of the paper fixes the
//!    RMI and explicitly leaves "which estimator is best" to future work) —
//!    [`estimator_ablation`] runs LAF-DBSCAN with the exact oracle, the RMI,
//!    a single MLP, the sampling estimator and the histogram estimator and
//!    reports quality, time and the false-negative counts of Section 3.3.
//! 2. **The post-processing module** — [`post_processing_ablation`] runs
//!    LAF-DBSCAN with the module on and off.
//! 3. **The range-query substrate under plain DBSCAN** —
//!    [`engine_ablation`] compares the linear scan, cover tree and IVF
//!    engines powering the same exact algorithm.

use crate::harness::{HarnessConfig, Method, PreparedDataset};
use crate::report::{format_seconds, print_table, write_json};
use laf_cardest::{
    CardinalityEstimator, EstimatorCalibrator, ExactEstimator, HistogramEstimator, MlpEstimator,
    SamplingEstimator, TrainingSetBuilder,
};
use laf_clustering::{Clusterer, Dbscan, DbscanConfig};
use laf_core::{LafConfig, LafDbscan};
use laf_index::EngineChoice;
use laf_metrics::{adjusted_mutual_information, adjusted_rand_index, VMeasure};
use laf_vector::Metric;
use serde::Serialize;
use std::time::Instant;

/// One row of an ablation table.
#[derive(Debug, Clone, Serialize)]
pub struct AblationRow {
    /// Which variant this row describes.
    pub variant: String,
    /// Dataset name.
    pub dataset: String,
    /// Clustering wall-clock seconds.
    pub seconds: f64,
    /// ARI against DBSCAN.
    pub ari: f64,
    /// AMI against DBSCAN.
    pub ami: f64,
    /// V-measure against DBSCAN.
    pub v_measure: f64,
    /// Range queries executed.
    pub range_queries: u64,
    /// Range queries skipped.
    pub skipped: u64,
    /// False negatives of the gate decision (estimator-level, Section 3.3).
    pub false_negatives: usize,
    /// False positives of the gate decision.
    pub false_positives: usize,
}

/// Estimator ablation on one prepared dataset at `(eps, tau, alpha)`.
pub fn estimator_ablation(
    cfg: &HarnessConfig,
    prepared: &PreparedDataset,
    eps: f32,
    tau: usize,
    alpha: f32,
) -> Vec<AblationRow> {
    let data = &prepared.test;
    let truth = Dbscan::with_params(eps, tau).cluster(data);
    let calibrator = EstimatorCalibrator::new(data, Metric::Cosine);

    // Train the alternative estimators on the same training split.
    let training = TrainingSetBuilder {
        max_queries: Some(cfg.train_queries),
        ..Default::default()
    }
    .build(&prepared.train, &prepared.train)
    .expect("training set");
    let mlp = MlpEstimator::train(&training, &cfg.net);
    let sampling = SamplingEstimator::new(
        &prepared.train,
        Metric::Cosine,
        (prepared.train.len() / 10).max(2),
        7,
    );
    let histogram = HistogramEstimator::from_training(&training);
    let exact = ExactEstimator::new(data, Metric::Cosine);

    let estimators: Vec<(&str, &dyn CardinalityEstimator)> = vec![
        ("exact oracle", &exact),
        ("RMI (paper)", &prepared.rmi),
        ("single MLP", &mlp),
        ("sampling", &sampling),
        ("histogram", &histogram),
    ];

    let mut rows = Vec::new();
    for (name, est) in estimators {
        let confusion = calibrator.core_prediction(est, data, eps, tau, alpha);
        let laf = LafDbscan::new(LafConfig::new(eps, tau, alpha), est);
        let started = Instant::now();
        let (c, stats) = laf.cluster_with_stats(data);
        let seconds = started.elapsed().as_secs_f64();
        rows.push(AblationRow {
            variant: name.to_string(),
            dataset: prepared.name.clone(),
            seconds,
            ari: adjusted_rand_index(truth.labels(), c.labels()),
            ami: adjusted_mutual_information(truth.labels(), c.labels()),
            v_measure: VMeasure::compute(truth.labels(), c.labels()).v_measure,
            range_queries: stats.executed_range_queries,
            skipped: stats.skipped_range_queries,
            false_negatives: confusion.false_negatives,
            false_positives: confusion.false_positives,
        });
    }
    rows
}

/// Post-processing on/off ablation on one prepared dataset.
pub fn post_processing_ablation(
    prepared: &PreparedDataset,
    eps: f32,
    tau: usize,
    alpha: f32,
) -> Vec<AblationRow> {
    let data = &prepared.test;
    let truth = Dbscan::with_params(eps, tau).cluster(data);
    let mut rows = Vec::new();
    for (name, post) in [
        ("with post-processing", true),
        ("without post-processing", false),
    ] {
        let laf = LafDbscan::new(
            LafConfig {
                post_processing: post,
                ..LafConfig::new(eps, tau, alpha)
            },
            &prepared.rmi,
        );
        let started = Instant::now();
        let (c, stats) = laf.cluster_with_stats(data);
        rows.push(AblationRow {
            variant: name.to_string(),
            dataset: prepared.name.clone(),
            seconds: started.elapsed().as_secs_f64(),
            ari: adjusted_rand_index(truth.labels(), c.labels()),
            ami: adjusted_mutual_information(truth.labels(), c.labels()),
            v_measure: VMeasure::compute(truth.labels(), c.labels()).v_measure,
            range_queries: stats.executed_range_queries,
            skipped: stats.skipped_range_queries,
            false_negatives: stats.detected_false_negatives as usize,
            false_positives: 0,
        });
    }
    rows
}

/// Range-engine ablation for exact DBSCAN on one prepared dataset.
pub fn engine_ablation(prepared: &PreparedDataset, eps: f32, tau: usize) -> Vec<AblationRow> {
    let data = &prepared.test;
    let truth = Dbscan::with_params(eps, tau).cluster(data);
    let engines = [
        ("linear scan", EngineChoice::Linear),
        ("cover tree", EngineChoice::CoverTree { basis: 2.0 }),
        (
            "k-means tree (full)",
            EngineChoice::KMeansTree {
                branching: 10,
                leaf_ratio: 1.0,
            },
        ),
        (
            "IVF nprobe=4/16",
            EngineChoice::Ivf {
                nlist: 16,
                nprobe: 4,
            },
        ),
    ];
    let mut rows = Vec::new();
    for (name, engine) in engines {
        let dbscan = Dbscan::new(DbscanConfig {
            eps,
            min_pts: tau,
            metric: Metric::Cosine,
            engine,
        });
        let started = Instant::now();
        let c = dbscan.cluster(data);
        rows.push(AblationRow {
            variant: name.to_string(),
            dataset: prepared.name.clone(),
            seconds: started.elapsed().as_secs_f64(),
            ari: adjusted_rand_index(truth.labels(), c.labels()),
            ami: adjusted_mutual_information(truth.labels(), c.labels()),
            v_measure: VMeasure::compute(truth.labels(), c.labels()).v_measure,
            range_queries: c.range_queries,
            skipped: 0,
            false_negatives: 0,
            false_positives: 0,
        });
    }
    rows
}

/// Run all three ablations on Glove-150k and MS-150k and print them.
pub fn run(cfg: &HarnessConfig) -> Vec<AblationRow> {
    let mut all = Vec::new();
    for preset in ["Glove-150k", "MS-150k"] {
        let prepared = cfg.prepare(preset);
        let (eps, tau) = (0.5f32, 3usize);
        let alpha = 1.5f32;

        let est_rows = estimator_ablation(cfg, &prepared, eps, tau, alpha);
        print_rows(
            &format!("Ablation A: estimator choice on {preset} (eps=0.5, tau=3, alpha=1.5)"),
            &est_rows,
        );
        all.extend(est_rows);

        let post_rows = post_processing_ablation(&prepared, eps, tau, alpha);
        print_rows(
            &format!("Ablation B: post-processing on {preset}"),
            &post_rows,
        );
        all.extend(post_rows);

        let engine_rows = engine_ablation(&prepared, eps, tau);
        print_rows(
            &format!("Ablation C: DBSCAN range-query engine on {preset}"),
            &engine_rows,
        );
        all.extend(engine_rows);
    }
    write_json(&cfg.results_dir, "ablation", &all);
    let _ = Method::TABLE3; // keep the harness link explicit for readers
    all
}

fn print_rows(title: &str, rows: &[AblationRow]) {
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.variant.clone(),
                format_seconds(r.seconds),
                format!("{:.4}", r.ari),
                format!("{:.4}", r.ami),
                format!("{:.4}", r.v_measure),
                r.range_queries.to_string(),
                r.skipped.to_string(),
                r.false_negatives.to_string(),
                r.false_positives.to_string(),
            ]
        })
        .collect();
    print_table(
        title,
        &[
            "Variant", "Time", "ARI", "AMI", "V", "Queries", "Skipped", "FN", "FP",
        ],
        &table,
    );
}
