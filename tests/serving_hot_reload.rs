//! Hot-reload stress test for the serving front.
//!
//! A writer thread keeps swapping the served snapshot between two trained
//! pipelines (decoding fresh snapshot bytes each time, like a real reload
//! from disk) while reader threads hammer the server with range and
//! estimate requests. Every response must be **bit-exact** with exactly the
//! epoch it claims to come from — a response mixing the two snapshots (a
//! torn read across the swap) or matching neither is a bug — and no
//! admitted request may be lost across any number of swaps.

use laf::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

const DIM: usize = 12;
const EPS: f32 = 0.3;
const QUERIES: usize = 24;
const SWAPS: usize = 20;
const READERS: usize = 3;

fn train(seed: u64) -> LafPipeline {
    let (data, _) = EmbeddingMixtureConfig {
        n_points: 260,
        dim: DIM,
        clusters: 4,
        noise_fraction: 0.2,
        seed,
        ..Default::default()
    }
    .generate()
    .unwrap();
    LafPipeline::builder(LafConfig::new(EPS, 4, 1.0))
        .net(NetConfig::tiny())
        .training(TrainingSetBuilder {
            max_queries: Some(60),
            ..Default::default()
        })
        .train(data)
        .unwrap()
}

/// Everything a reader needs to verify a response against one epoch.
struct EpochExpectation {
    range: Vec<Vec<u32>>,
    estimate: Vec<f32>,
}

fn expectations(pipeline: &LafPipeline, queries: &[Vec<f32>]) -> EpochExpectation {
    let engine = pipeline.engine();
    EpochExpectation {
        range: queries.iter().map(|q| engine.range(q, EPS)).collect(),
        estimate: queries.iter().map(|q| pipeline.estimate(q, EPS)).collect(),
    }
}

#[test]
fn responses_stay_bit_exact_across_concurrent_snapshot_swaps() {
    let a = train(5);
    let b = train(6);
    // Reloads decode fresh bytes each round, so every swap exercises the
    // full snapshot decode + engine restore path, not a cached pipeline.
    let bytes_a = a.to_snapshot_bytes().unwrap();
    let bytes_b = b.to_snapshot_bytes().unwrap();

    let queries: Vec<Vec<f32>> = (0..QUERIES).map(|i| a.data().row(i * 7).to_vec()).collect();
    // Epoch numbering: the server starts `a` at epoch 1 and the writer
    // alternates b, a, b, ... — so odd epochs serve `a`, even serve `b`.
    let expect_a = expectations(&a, &queries);
    let expect_b = expectations(
        &LafPipeline::from_snapshot_bytes(&bytes_b).unwrap(),
        &queries,
    );

    let server = laf::serve::LafServer::start(
        a,
        laf::serve::ServeConfig {
            max_batch: 16,
            max_queue_depth: 4096,
            ..laf::serve::ServeConfig::default()
        },
    );

    let done = AtomicBool::new(false);
    let served_by_a = AtomicU64::new(0);
    let served_by_b = AtomicU64::new(0);
    let attempts = AtomicU64::new(0);

    std::thread::scope(|scope| {
        let server = &server;
        let (done, served_by_a, served_by_b, attempts) =
            (&done, &served_by_a, &served_by_b, &attempts);
        let (bytes_a, bytes_b) = (&bytes_a, &bytes_b);
        let (expect_a, expect_b) = (&expect_a, &expect_b);
        let queries = &queries;

        scope.spawn(move || {
            for swap in 0..SWAPS {
                let bytes = if swap % 2 == 0 { bytes_b } else { bytes_a };
                let replacement = LafPipeline::from_snapshot_bytes(bytes).unwrap();
                server.reload(replacement).unwrap();
                // Let readers land some requests on this epoch.
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            done.store(true, Ordering::Release);
        });

        for reader in 0..READERS {
            scope.spawn(move || {
                // Staggered starting offsets so readers do not march in
                // lockstep over the same query.
                let mut i = reader * 5;
                while !done.load(Ordering::Acquire) {
                    i = (i + 1) % QUERIES;
                    let q = &queries[i];
                    attempts.fetch_add(2, Ordering::Relaxed);
                    let range = server.range(q, EPS).expect("queue bound is generous");
                    let est = server.estimate(q, EPS).expect("queue bound is generous");
                    // Each response must be bit-exact with the snapshot of
                    // the epoch it claims — matching neither, or a mix of
                    // both, means a torn read across the swap.
                    let tally = |epoch: u64| -> &EpochExpectation {
                        if epoch % 2 == 1 {
                            served_by_a.fetch_add(1, Ordering::Relaxed);
                            expect_a
                        } else {
                            served_by_b.fetch_add(1, Ordering::Relaxed);
                            expect_b
                        }
                    };
                    assert_eq!(
                        range.value,
                        tally(range.epoch).range[i],
                        "range response for query {i} does not match its epoch {}",
                        range.epoch
                    );
                    assert_eq!(
                        est.value.to_bits(),
                        tally(est.epoch).estimate[i].to_bits(),
                        "estimate for query {i} does not match its epoch {}",
                        est.epoch
                    );
                }
            });
        }
    });

    let final_epoch = server.current_epoch();
    assert_eq!(
        final_epoch,
        1 + SWAPS as u64,
        "every reload must bump the epoch"
    );
    let report = server.shutdown();

    // No admitted request may be lost or left unanswered.
    assert_eq!(report.completed, report.submitted);
    assert_eq!(report.rejected, 0, "queue bound was sized to never reject");
    assert_eq!(
        report.submitted,
        attempts.load(Ordering::Relaxed),
        "every client attempt must be admitted and answered"
    );
    assert_eq!(report.reloads as usize, SWAPS);

    // The interleaving must actually have exercised both snapshots; with 20
    // swaps at 2ms apart and free-running readers this only fails if the
    // scheduler starved the readers entirely.
    assert!(
        served_by_a.load(Ordering::Relaxed) > 0,
        "no response was served by snapshot A"
    );
    assert!(
        served_by_b.load(Ordering::Relaxed) > 0,
        "no response was served by snapshot B"
    );
}
