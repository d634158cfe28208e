//! Workload parameters and the set-up system under test.

use crate::util::timed;
use laf::core::{LafConfig, LafDbscanPlusPlusConfig, LafPipeline, MutablePipeline, SharedEngine};
use laf::prelude::{EmbeddingMixtureConfig, TrainingSetBuilder};
use laf::serve::{LafServer, ServeConfig};
use laf::vector::Dataset;
use std::error::Error;
use std::path::{Path, PathBuf};

pub type Res<T> = Result<T, Box<dyn Error>>;

/// Everything a workload fixes. Only `noise` differs between workloads;
/// `seed` comes from the command line.
#[derive(Clone, Debug)]
pub struct Params {
    pub noise: f64,
    pub seed: u64,
    pub n_points: usize,
    pub dim: usize,
    pub clusters: usize,
    pub eps: f32,
    pub min_pts: usize,
    pub alpha: f32,
    pub delta: f64,
    pub train_queries: usize,
    /// Held-out query vectors for the serving phases.
    pub queries: usize,
    /// Held-out rows the write phase inserts.
    pub insert_rows: usize,
}

impl Params {
    pub fn new(noise: f64, seed: u64) -> Self {
        Self {
            noise,
            seed,
            n_points: 8000,
            dim: 64,
            clusters: 20,
            eps: 0.35,
            min_pts: 4,
            alpha: 1.0,
            delta: 0.2,
            train_queries: 1000,
            queries: 512,
            insert_rows: 4096,
        }
    }

    /// Linear engine, cosine metric, `threads = 0` (all cores).
    pub fn laf(&self) -> LafConfig {
        LafConfig::new(self.eps, self.min_pts, self.alpha)
    }

    pub fn lafpp(&self) -> LafDbscanPlusPlusConfig {
        LafDbscanPlusPlusConfig::new(self.eps, self.min_pts, self.delta)
    }

    /// A mixture with this workload's shape; `salt` picks an independent
    /// draw (0 is the indexed dataset, others are held-out vectors).
    pub fn mixture(&self, n_points: usize, salt: u64) -> Res<Dataset> {
        let seed = self.seed.wrapping_mul(0x0100_0000_01B3) ^ salt.wrapping_mul(0x9E37_79B9);
        Ok(EmbeddingMixtureConfig {
            n_points,
            dim: self.dim,
            clusters: self.clusters,
            noise_fraction: self.noise,
            seed,
            ..Default::default()
        }
        .generate()?
        .0)
    }
}

/// The set-up system: data, a trained unsharded pipeline for clustering and
/// probes, a read server over a 2-shard copy of it, and a mutable write
/// server over a WAL directory.
pub struct System {
    pub data: Dataset,
    pub pipeline: LafPipeline,
    pub reader: LafServer,
    /// The read server's engine, for synchronous reference answers.
    pub reader_engine: SharedEngine,
    pub writer: LafServer,
    pub wal_dir: PathBuf,
    pub gen_s: f64,
    pub train_s: f64,
    pub start_s: f64,
}

impl System {
    /// Generate the data, train the estimator and start both servers.
    pub fn setup(p: &Params, scratch: &Path, attempt: usize) -> Res<Self> {
        let (data, gen) = timed(|| p.mixture(p.n_points, 0));
        let data = data?;
        let training = TrainingSetBuilder {
            max_queries: Some(p.train_queries),
            ..Default::default()
        };
        let (sharded, train) = timed(|| {
            LafPipeline::builder(p.laf())
                .training(training)
                .shards(2)
                .train(data.clone())
        });
        let sharded = sharded?;
        let wal_dir = scratch.join(format!("wal-{attempt}"));
        let (started, start) = timed(|| -> Res<_> {
            // The unsharded pipeline shares the trained estimator (carried
            // over through the snapshot encoding, the public way to copy it).
            let estimator = LafPipeline::from_snapshot_bytes(&sharded.to_snapshot_bytes()?)?
                .into_snapshot()
                .estimator;
            let pipeline = LafPipeline::from_parts(p.laf(), data.clone(), estimator);
            let reader_engine = sharded.engine();
            let reader = LafServer::start(sharded, ServeConfig::default());
            let mutable = MutablePipeline::create(&wal_dir, &pipeline)?;
            let writer = LafServer::start_mutable(
                mutable,
                ServeConfig {
                    compact_threshold: 1000,
                    ..Default::default()
                },
            );
            Ok((pipeline, reader, reader_engine, writer))
        });
        let (pipeline, reader, reader_engine, writer) = started?;
        Ok(Self {
            data,
            pipeline,
            reader,
            reader_engine,
            writer,
            wal_dir,
            gen_s: gen.as_secs_f64(),
            train_s: train.as_secs_f64(),
            start_s: start.as_secs_f64(),
        })
    }

    pub fn setup_s(&self) -> f64 {
        self.gen_s + self.train_s + self.start_s
    }

    /// Stop both servers (joining their dispatchers) and remove the WAL.
    pub fn teardown(self) {
        drop(self.reader.shutdown());
        drop(self.writer.shutdown());
        std::fs::remove_dir_all(&self.wal_dir).ok();
    }
}
