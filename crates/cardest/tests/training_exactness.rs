//! Bit-exactness oracles for estimator training.
//!
//! Training is parallel (the counting pass splits by query, the minibatch
//! pass by sample and by parameter row), but every float is still produced by
//! the same operations in the same order as the sequential reference. These
//! tests pin that down: the digests below were recorded from the sequential
//! per-sample trainer and per-threshold `range_count` counting, and the
//! parallel rebuild must reproduce them byte for byte at every installed
//! thread count.

use laf_cardest::{MlpEstimator, NetConfig, TrainingSet, TrainingSetBuilder};
use laf_index::{LinearScan, RangeQueryEngine};
use laf_synth::EmbeddingMixtureConfig;
use laf_vector::{Dataset, Metric};

/// FNV-1a, 64-bit: a std-only digest that is stable across platforms.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// 200 points, 8 dims; 37 training queries × 9 thresholds = 333 samples, so
/// neither batch size (32, 64) divides the set and the last minibatch is not
/// a multiple of the 4-wide forward tile.
fn mixture() -> Dataset {
    EmbeddingMixtureConfig {
        n_points: 200,
        dim: 8,
        clusters: 4,
        noise_fraction: 0.25,
        seed: 41,
        ..Default::default()
    }
    .generate()
    .unwrap()
    .0
}

fn training_set(data: &Dataset) -> TrainingSet {
    TrainingSetBuilder {
        max_queries: Some(37),
        ..Default::default()
    }
    .build(data, data)
    .unwrap()
}

fn cardinality_digest(ts: &TrainingSet) -> u64 {
    let bytes: Vec<u8> = ts
        .samples
        .iter()
        .flat_map(|s| s.cardinality.to_le_bytes())
        .collect();
    fnv1a(&bytes)
}

fn estimator_digest(ts: &TrainingSet, cfg: &NetConfig) -> u64 {
    let mut bytes = Vec::new();
    MlpEstimator::train(ts, cfg).encode_binary(&mut bytes);
    fnv1a(&bytes)
}

fn installed<R>(threads: usize, op: impl FnOnce() -> R) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .unwrap()
        .install(op)
}

const CARDINALITIES: u64 = 0xdf9e_e722_f32c_9890;
const TINY: u64 = 0xd5d5_3e96_7a65_19b8;
const SMALL: u64 = 0x82ab_810e_ed0c_5495;

#[test]
fn training_is_byte_identical_to_the_sequential_reference_at_every_thread_count() {
    let data = mixture();
    for threads in [1, 2, 4] {
        let (cards, tiny, small) = installed(threads, || {
            let ts = training_set(&data);
            assert_eq!(ts.len(), 333);
            (
                cardinality_digest(&ts),
                estimator_digest(&ts, &NetConfig::tiny()),
                estimator_digest(&ts, &NetConfig::small()),
            )
        });
        assert_eq!(cards, CARDINALITIES, "cardinalities, {threads} threads");
        assert_eq!(tiny, TINY, "tiny estimator bytes, {threads} threads");
        assert_eq!(small, SMALL, "small estimator bytes, {threads} threads");
    }
}

#[test]
fn one_pass_counts_equal_per_threshold_range_count_for_every_metric() {
    let data = mixture();
    for metric in Metric::ALL {
        // Unsorted grids with a repeat; NegDot's thresholds are mostly
        // negative (`-dot < eps` admits rows with dot above `-eps`).
        let thresholds = match metric {
            Metric::Cosine => vec![0.5, 0.1, 0.9, 0.3, 0.3],
            Metric::Angular => vec![0.4, 0.05, 0.25, 0.4],
            Metric::Euclidean => vec![1.2, 0.3, 0.8, 0.0],
            Metric::SquaredEuclidean => vec![1.0, 0.1, 2.5, 0.5],
            Metric::NegDot => vec![-0.5, -0.9, 0.0, -0.2, 0.3],
        };
        // 23 queries: five full tiles of four plus a tail of three.
        let ts = TrainingSetBuilder {
            metric,
            thresholds: thresholds.clone(),
            max_queries: Some(23),
            seed: 9,
        }
        .build(&data, &data)
        .unwrap();
        assert_eq!(ts.len(), 23 * thresholds.len());
        assert!(
            ts.samples
                .iter()
                .any(|s| s.cardinality > 0 && (s.cardinality as usize) < data.len()),
            "{metric:?}: the grid must split the data somewhere"
        );
        let scan = LinearScan::new(&data, metric);
        for s in &ts.samples {
            let (q, eps) = s.features.split_at(data.dim());
            let expected = scan.range_count(q, eps[0]);
            assert_eq!(
                s.cardinality as usize, expected,
                "{metric:?} eps {}",
                eps[0]
            );
        }
    }
}
