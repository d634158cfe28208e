//! Outside-in probes: single-layer costs timed by direct calls into the
//! public API, as "before" numbers for the open ROADMAP items.

use crate::system::{Params, Res, System};
use crate::util::{median, micros, timed, Metrics};
use laf::core::MutablePipeline;
use laf::index::RangeQueryEngine;
use laf::vector::Dataset;
use rayon::prelude::*;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

const PROBE_ROWS: usize = 256;
const DELTA_ROWS: usize = 1000;
const SYNCED_APPENDS: usize = 100;

fn rows(data: &Dataset, n: usize) -> Vec<&[f32]> {
    let stride = (data.len() / n).max(1);
    (0..data.len())
        .step_by(stride)
        .take(n)
        .map(|i| data.row(i))
        .collect()
}

/// Per-call overhead of the parallel runtime: a 2-element parallel collect.
fn rayon_call_us() -> f64 {
    let mut v = Vec::with_capacity(200);
    for _ in 0..200 {
        let (out, t) = timed(|| {
            (0..2usize)
                .into_par_iter()
                .map(|x| black_box(x) + 1)
                .collect::<Vec<_>>()
        });
        assert_eq!(out, vec![1, 2]);
        v.push(micros(t));
    }
    median(&v)
}

/// Microseconds per query of scalar `range` calls and of one `range_batch`
/// call over the same rows, medians of three rounds.
fn range_vs_batch(engine: &dyn RangeQueryEngine, rows: &[&[f32]], eps: f32) -> (f64, f64) {
    let (mut scalar, mut batch) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        let (_, t) = timed(|| {
            for q in rows {
                black_box(engine.range(q, eps));
            }
        });
        scalar.push(micros(t) / rows.len() as f64);
        let (_, t) = timed(|| black_box(engine.range_batch(rows, eps)));
        batch.push(micros(t) / rows.len() as f64);
    }
    (median(&scalar), median(&batch))
}

/// Microseconds per query of `range_batch` in batches of `size`.
fn batch_at(engine: &dyn RangeQueryEngine, rows: &[&[f32]], eps: f32, size: usize) -> f64 {
    let (_, t) = timed(|| {
        for chunk in rows.chunks(size.max(1)) {
            black_box(engine.range_batch(chunk, eps));
        }
    });
    micros(t) / rows.len() as f64
}

/// Median extra microseconds a 2-shard `range` costs over the unsharded
/// engine on the same query (alternating, so drift hits both).
fn shard_fanout_us(
    sharded: &dyn RangeQueryEngine,
    flat: &dyn RangeQueryEngine,
    rows: &[&[f32]],
    eps: f32,
) -> f64 {
    let diffs: Vec<f64> = rows
        .iter()
        .map(|q| {
            let (_, a) = timed(|| black_box(sharded.range(q, eps)));
            let (_, b) = timed(|| black_box(flat.range(q, eps)));
            micros(a) - micros(b)
        })
        .collect();
    median(&diffs)
}

/// WAL append+sync per write, `range_count` with no delta and with 1000
/// pending delta rows, and one compaction: direct calls on a scratch
/// mutable pipeline.
fn mutable_probes(
    p: &Params,
    sys: &System,
    queries: &[&[f32]],
    inserts: &Dataset,
    dir: &Path,
    m: &mut Metrics,
) -> Res<()> {
    let mut mp = MutablePipeline::create(dir, &sys.pipeline)?;
    let read_us = |mp: &MutablePipeline| {
        let start = Instant::now();
        for q in queries {
            black_box(mp.range_count(q, p.eps));
        }
        micros(start.elapsed()) / queries.len() as f64
    };
    let base_read = read_us(&mp);
    // The first writes are synced one by one (the serving path's worst
    // case, one write per group commit); the rest only fill the delta.
    let mut appends = Vec::with_capacity(SYNCED_APPENDS);
    for i in 0..DELTA_ROWS {
        let row = inserts.row(i % inserts.len());
        if i < SYNCED_APPENDS {
            let (done, t) = timed(|| -> Res<()> {
                mp.insert(row)?;
                Ok(mp.sync()?)
            });
            done?;
            appends.push(micros(t));
        } else {
            mp.insert(row)?;
        }
    }
    mp.sync()?;
    let delta_read = read_us(&mp);
    let (done, t) = timed(|| mp.compact());
    done?;
    m.put("wal.append_sync_us", median(&appends), "us");
    m.put("mutable.base_read_us", base_read, "us");
    m.put("mutable.delta_read_us", delta_read, "us");
    m.put("mutable.compact_s", t.as_secs_f64(), "s");
    drop(mp);
    std::fs::remove_dir_all(dir).ok();
    Ok(())
}

pub fn run(
    p: &Params,
    sys: &System,
    queries: &Dataset,
    inserts: &Dataset,
    serve_occupancy: f64,
    scratch: &Path,
    m: &mut Metrics,
) -> Res<()> {
    m.put("rayon.call_us", rayon_call_us(), "us");
    let data_rows = rows(&sys.data, PROBE_ROWS);
    let query_rows = rows(queries, PROBE_ROWS);
    let flat = sys.pipeline.engine();
    let (scalar, batch) = range_vs_batch(flat.get(), &data_rows, p.eps);
    m.put("index.range_us_per_query", scalar, "us");
    m.put("index.range_batch_us_per_query", batch, "us");
    let occupancy = serve_occupancy.round().max(1.0) as usize;
    m.put(
        "index.batch_us_per_query",
        batch_at(sys.reader_engine.get(), &query_rows, p.eps, occupancy),
        "us",
    );
    m.put(
        "index.shard_fanout_us",
        shard_fanout_us(sys.reader_engine.get(), flat.get(), &query_rows, p.eps),
        "us",
    );
    mutable_probes(p, sys, &query_rows, inserts, &scratch.join("probe-wal"), m)
}
