//! Serving experiment: coalesced vs one-at-a-time dispatch under
//! concurrent load.
//!
//! Not a paper exhibit: this measures the serving layer's contribution —
//! closed-loop clients issue pipelined range-count queries (the paper's
//! cardinality primitive) against a [`laf_serve::LafServer`] at several
//! offered loads (client counts), once with coalescing enabled (requests
//! merge into the query-major mini-GEMM batch kernels) and once with
//! `max_batch = 1` (every request dispatches alone, exactly as a
//! synchronous caller would run it). Each client keeps [`PIPELINE`]
//! requests in flight through the [`laf_serve::Ticket`] API — the standard
//! closed-loop serving-benchmark shape, and what gives the coalescing arm a
//! queue worth merging even at one client. Every served result is compared
//! against the precomputed synchronous answer, so the benchmark doubles as
//! an end-to-end bit-exactness check of the coalescing path.
//!
//! An ungated "lone" arm runs one client with one request in flight
//! against the coalescing configuration: the latency an isolated request
//! pays, which a work-conserving dispatcher keeps at one dispatch round
//! trip.
//!
//! Results are printed as a table and written to
//! `<results_dir>/BENCH_serving.json` with p50/p99 latency, throughput,
//! batch-occupancy histograms and rejection counts per load. The
//! `exp_serving` binary exits non-zero when coalesced throughput at
//! saturation falls below 1.5x the one-at-a-time baseline or any served
//! result diverges.
//!
//! Note for single-core containers: the coalescing win measured here is
//! batch-kernel amortization (the blocked `range_count` scan scores every
//! cached row against a whole tile of queries) plus dispatch-overhead
//! amortization (one dispatcher wakeup, queue drain and kernel launch per
//! batch instead of per request) — not thread scaling. The recorded
//! `host_threads` lets multi-core hosts put their numbers in context.

use crate::harness::HarnessConfig;
use crate::report::{print_table, write_json};
use laf_cardest::{NetConfig, TrainingSetBuilder};
use laf_core::{LafConfig, LafPipeline};
use laf_serve::{LafServer, ServeConfig, ServeStatsReport, Ticket};
use laf_synth::EmbeddingMixtureConfig;
use laf_vector::Dataset;
use serde::Serialize;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Offered loads (closed-loop client counts) swept by the experiment. The
/// largest is the saturation point the CI gate is evaluated at.
pub const LOAD_SWEEP: [usize; 5] = [1, 2, 4, 8, 16];

/// Requests each client keeps in flight (ticket pipeline depth).
pub const PIPELINE: usize = 8;

/// Distinct query vectors cycled by the clients.
const N_QUERIES: usize = 64;

/// Untimed warm-up per (mode, load) arm, seconds.
const WARMUP_SECS: f64 = 0.08;

/// Timed measurement window, seconds.
const MEASURE_SECS: f64 = 0.25;

/// Measured windows per (mode, load) arm. The reported record is the
/// median-throughput window: this container shares a host, and a transient
/// CPU-contention spike inside a single window would otherwise decide the
/// CI gate. Correctness (mismatch counts) is still checked across *all*
/// windows.
const MEASURE_WINDOWS: usize = 5;

/// One measured (dispatch mode, offered load) arm.
#[derive(Debug, Clone, Serialize)]
pub struct ServingRecord {
    /// `coalesced`, `uncoalesced` or `lone`.
    pub mode: String,
    /// Closed-loop client threads driving the server.
    pub clients: usize,
    /// Wall-clock seconds of the timed window.
    pub seconds: f64,
    /// Requests completed inside the timed window.
    pub completed: u64,
    /// Completed requests per second.
    pub throughput_qps: f64,
    /// Median served latency (submission to result), microseconds.
    pub p50_latency_us: f64,
    /// 99th-percentile served latency, microseconds.
    pub p99_latency_us: f64,
    /// Served results that differed from the synchronous path (must be 0).
    pub mismatches: u64,
    /// The server's own counters for the timed window: batch-occupancy
    /// histogram, rejections, peak queue depth, mean occupancy.
    pub stats: ServeStatsReport,
}

/// Everything the serving experiment measures, persisted as one JSON object.
#[derive(Debug, Clone, Serialize)]
pub struct ServingReport {
    /// The request kind the clients issue (`range_count`).
    pub workload: String,
    /// Points in the served dataset.
    pub n_points: usize,
    /// Data dimensionality.
    pub dim: usize,
    /// Range-query radius used by every client.
    pub eps: f32,
    /// Requests each client keeps in flight.
    pub pipeline_depth: usize,
    /// Host hardware threads (context for the single-core caveat above).
    pub host_threads: usize,
    /// The load sweep the records cover.
    pub loads: Vec<usize>,
    /// Client count the saturation gate is evaluated at.
    pub saturation_clients: usize,
    /// Coalesced / uncoalesced throughput ratio at saturation.
    pub saturation_speedup: f64,
    /// `true` when every served result matched the synchronous path.
    pub results_identical: bool,
    /// One record per (mode, load) arm.
    pub records: Vec<ServingRecord>,
    /// The ungated lone arm: one client, one request in flight, against
    /// the coalescing configuration.
    pub lone: ServingRecord,
}

impl ServingReport {
    /// Throughput of `mode` at `clients`, or 0.0 if that arm is missing.
    pub fn qps(&self, mode: &str, clients: usize) -> f64 {
        self.records
            .iter()
            .find(|r| r.mode == mode && r.clients == clients)
            .map(|r| r.throughput_qps)
            .unwrap_or(0.0)
    }
}

fn serving_dataset(cfg: &HarnessConfig) -> Dataset {
    // Sized so one scalar cosine count-scan costs single-digit microseconds
    // in release builds: enough work that the blocked kernel's amortization
    // is visible, small enough that per-request dispatch overhead — the
    // axis coalescing actually amortizes — dominates the budget.
    let n_points = ((50_000.0 * cfg.scale) as usize).clamp(400, 8_000);
    let dim = cfg.dim_cap.unwrap_or(32).clamp(8, 32);
    EmbeddingMixtureConfig {
        n_points,
        dim,
        clusters: 12,
        noise_fraction: 0.2,
        seed: cfg.seed,
        ..Default::default()
    }
    .generate()
    .expect("valid serving dataset config")
    .0
}

/// Per-client tallies from one driving window.
#[derive(Debug, Default)]
struct DriveOutcome {
    completed: u64,
    mismatches: u64,
    latencies_us: Vec<u64>,
}

/// What every measured arm shares: the served snapshot, the query cycle and
/// its synchronous answers.
struct Arm<'a> {
    snapshot_bytes: &'a [u8],
    queries: &'a [Vec<f32>],
    expected: &'a [usize],
    eps: f32,
}

impl Arm<'_> {
    /// Serve a fresh decode of the snapshot under `serve_config`, warm it
    /// up, and measure [`MEASURE_WINDOWS`] windows of `clients` closed-loop
    /// clients keeping `depth` requests in flight each.
    fn measure(
        &self,
        mode: &str,
        serve_config: ServeConfig,
        clients: usize,
        depth: usize,
    ) -> ServingRecord {
        let pipeline =
            LafPipeline::from_snapshot_bytes(self.snapshot_bytes).expect("decode snapshot");
        let server = LafServer::start(pipeline, serve_config);
        let run = |seconds, record| self.drive(&server, clients, depth, seconds, record);
        run(WARMUP_SECS, false);
        let mut windows: Vec<(DriveOutcome, f64, ServeStatsReport)> = (0..MEASURE_WINDOWS)
            .map(|_| {
                server.stats().reset();
                let started = Instant::now();
                let outcome = run(MEASURE_SECS, true);
                let seconds = started.elapsed().as_secs_f64();
                (outcome, seconds, server.stats_report())
            })
            .collect();
        server.shutdown();
        // Correctness must hold in every window; performance is reported
        // from the median-throughput window.
        let mismatches: u64 = windows.iter().map(|(o, _, _)| o.mismatches).sum();
        windows.sort_by(|a, b| {
            let qa = a.0.completed as f64 / a.1;
            let qb = b.0.completed as f64 / b.1;
            qa.total_cmp(&qb)
        });
        let (mut outcome, seconds, stats) = windows.swap_remove(MEASURE_WINDOWS / 2);
        let p50 = percentile_us(&mut outcome.latencies_us, 0.50);
        let p99 = percentile_us(&mut outcome.latencies_us, 0.99);
        ServingRecord {
            mode: mode.to_string(),
            clients,
            seconds,
            completed: outcome.completed,
            throughput_qps: outcome.completed as f64 / seconds,
            p50_latency_us: p50,
            p99_latency_us: p99,
            mismatches,
            stats,
        }
    }

    /// Drive `clients` closed-loop threads against `server` for `seconds`,
    /// each keeping up to `depth` tickets in flight. When `record` is false
    /// (warm-up) nothing is tallied. Every in-flight ticket is drained
    /// before a client exits, so no request outlives the drive.
    fn drive(
        &self,
        server: &LafServer,
        clients: usize,
        depth: usize,
        seconds: f64,
        record: bool,
    ) -> DriveOutcome {
        let (queries, expected, eps) = (self.queries, self.expected, self.eps);
        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        let per_client: Vec<DriveOutcome> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|c| {
                    scope.spawn(move || {
                        let mut out = DriveOutcome::default();
                        // Staggered offsets so clients do not march in lockstep.
                        let mut i = (c * 17) % queries.len();
                        let mut inflight: VecDeque<(usize, Instant, Ticket<usize>)> =
                            VecDeque::with_capacity(depth);
                        loop {
                            if Instant::now() < deadline {
                                while inflight.len() < depth {
                                    i = (i + 1) % queries.len();
                                    let submitted = Instant::now();
                                    match server.range_count_async(&queries[i], eps) {
                                        Ok(ticket) => inflight.push_back((i, submitted, ticket)),
                                        // The caller owns the retry policy; a
                                        // closed-loop client waits out its oldest
                                        // ticket (below), which itself drains the
                                        // queue that bounced this submission.
                                        Err(_) => break,
                                    }
                                }
                            }
                            let Some((qi, submitted, ticket)) = inflight.pop_front() else {
                                break;
                            };
                            let served = ticket.wait();
                            if record {
                                out.latencies_us
                                    .push(submitted.elapsed().as_micros() as u64);
                                out.completed += 1;
                                if served.value != expected[qi] {
                                    out.mismatches += 1;
                                }
                            }
                        }
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        let mut merged = DriveOutcome::default();
        for out in per_client {
            merged.completed += out.completed;
            merged.mismatches += out.mismatches;
            merged.latencies_us.extend(out.latencies_us);
        }
        merged
    }
}

/// `p`-quantile (0..=1) of an unsorted latency sample, microseconds.
fn percentile_us(latencies: &mut [u64], p: f64) -> f64 {
    if latencies.is_empty() {
        return 0.0;
    }
    latencies.sort_unstable();
    let idx = ((latencies.len() - 1) as f64 * p).round() as usize;
    latencies[idx] as f64
}

/// Run the sweep and write `BENCH_serving.json`.
pub fn run(cfg: &HarnessConfig) -> ServingReport {
    let data = serving_dataset(cfg);
    let eps = 0.2f32;
    let (n_points, dim) = (data.len(), data.dim());
    println!(
        "\nserving sweep: {n_points} points x {dim} dims, eps {eps}, loads {LOAD_SWEEP:?}, \
         pipeline depth {PIPELINE} ({} host threads)",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );

    // One trained pipeline, re-decoded per arm from its snapshot bytes so
    // every server starts from an identical state (snapshots are bit-exact
    // by contract).
    let pipeline = LafPipeline::builder(LafConfig::new(eps, 4, 1.0))
        .net(NetConfig::tiny())
        .training(TrainingSetBuilder {
            max_queries: Some(cfg.train_queries.min(120)),
            ..Default::default()
        })
        .train(data)
        .expect("train serving pipeline");
    let snapshot_bytes = pipeline.to_snapshot_bytes().expect("encode snapshot");

    let stride = (pipeline.data().len() / N_QUERIES).max(1);
    let queries: Vec<Vec<f32>> = (0..N_QUERIES.min(pipeline.data().len()))
        .map(|i| pipeline.data().row(i * stride).to_vec())
        .collect();
    // The synchronous reference answers every served result is checked
    // against — computed on the scalar path, once.
    let engine = pipeline.engine();
    let expected: Vec<usize> = queries.iter().map(|q| engine.range_count(q, eps)).collect();
    drop(engine);
    drop(pipeline);

    let coalesced = ServeConfig {
        max_batch: 64,
        max_queue_depth: 512,
        ..ServeConfig::default()
    };
    let arms: [(&str, ServeConfig); 2] = [
        ("uncoalesced", ServeConfig::uncoalesced()),
        ("coalesced", coalesced),
    ];
    let arm = Arm {
        snapshot_bytes: &snapshot_bytes,
        queries: &queries,
        expected: &expected,
        eps,
    };
    let mut records = Vec::new();
    for (mode, serve_config) in arms {
        for clients in LOAD_SWEEP {
            records.push(arm.measure(mode, serve_config, clients, PIPELINE));
        }
    }
    let lone = arm.measure("lone", coalesced, 1, 1);

    let rows: Vec<Vec<String>> = records
        .iter()
        .map(|r| {
            vec![
                r.mode.clone(),
                r.clients.to_string(),
                format!("{:.0}", r.throughput_qps),
                format!("{:.0}", r.p50_latency_us),
                format!("{:.0}", r.p99_latency_us),
                format!("{:.2}", r.stats.mean_batch_occupancy),
                r.stats.rejected.to_string(),
                if r.mismatches == 0 { "ok" } else { "DIVERGED" }.to_string(),
            ]
        })
        .collect();
    print_table(
        "Serving: coalesced vs one-at-a-time dispatch under closed-loop load",
        &[
            "mode",
            "clients",
            "queries/s",
            "p50 us",
            "p99 us",
            "occupancy",
            "rejected",
            "results",
        ],
        &rows,
    );

    println!(
        "\nlone request (1 client, 1 in flight): p50 {:.0} us, p99 {:.0} us, occupancy {:.2}",
        lone.p50_latency_us, lone.p99_latency_us, lone.stats.mean_batch_occupancy
    );

    let saturation_clients = *LOAD_SWEEP.last().expect("non-empty sweep");
    let results_identical = records.iter().chain([&lone]).all(|r| r.mismatches == 0);
    let report = ServingReport {
        workload: "range_count".to_string(),
        n_points,
        dim,
        eps,
        pipeline_depth: PIPELINE,
        host_threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        loads: LOAD_SWEEP.to_vec(),
        saturation_clients,
        saturation_speedup: 0.0,
        results_identical,
        records,
        lone,
    };
    let saturation_speedup = {
        let baseline = report.qps("uncoalesced", saturation_clients);
        if baseline > 0.0 {
            report.qps("coalesced", saturation_clients) / baseline
        } else {
            0.0
        }
    };
    let report = ServingReport {
        saturation_speedup,
        ..report
    };
    println!(
        "\ncoalesced dispatch at {saturation_clients} clients: {saturation_speedup:.2}x \
         one-at-a-time throughput (gate: >= 1.5x); results {}",
        if results_identical {
            "bit-identical to the synchronous path"
        } else {
            "DIVERGED"
        }
    );
    write_json(&cfg.results_dir, "BENCH_serving", &report);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_produces_complete_well_formed_records() {
        let cfg = HarnessConfig {
            scale: 0.0025,
            dim_cap: Some(16),
            train_queries: 40,
            net: NetConfig::tiny(),
            results_dir: std::env::temp_dir().join("laf_bench_serving_test"),
            ..Default::default()
        };
        let report = run(&cfg);
        // 2 modes x loads. Wall-clock *magnitudes* (including the 1.5x
        // saturation gate) are deliberately not asserted — timing assertions
        // flake in debug builds and on contended CI runners; the release
        // `exp_serving` binary enforces the gate.
        assert_eq!(report.records.len(), 2 * LOAD_SWEEP.len());
        assert!(report
            .records
            .iter()
            .all(|r| r.completed > 0 && r.throughput_qps > 0.0 && r.p99_latency_us > 0.0));
        // Correctness (unlike speed) is asserted even at smoke scale: every
        // served result must match the synchronous path bit for bit.
        assert!(report.results_identical, "served results diverged");
        assert!(report
            .records
            .iter()
            .all(|r| r.stats.completed >= r.completed));
        assert_eq!(report.lone.mode, "lone");
        assert!(report.lone.completed > 0 && report.lone.p99_latency_us > 0.0);
        assert!(report.saturation_speedup > 0.0);
        assert!(cfg.results_dir.join("BENCH_serving.json").exists());
    }
}
