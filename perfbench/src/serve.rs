//! Open-loop serving phases: a read-rate ladder on the 2-shard read server
//! and a read/insert/delete mix on the mutable write server.
//!
//! One generator thread sleeps until each request's due time and submits
//! it; the calling thread collects the answers in submission order. Every
//! latency is measured from the due time, so a stall also charges the wait
//! it imposes on the requests behind it.

use crate::cluster::Tally;
use crate::reference::{cosine, norms};
use crate::system::{Params, System};
use crate::util::{median, micros, quantile, Metrics, Rng};
use laf::index::Neighbor;
use laf::serve::{LafServer, QueryRequest, QueryResponse, ServeError, Ticket};
use laf::vector::Dataset;
use std::sync::mpsc;
use std::time::{Duration, Instant};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    Range,
    RangeCount,
    Knn,
    Estimate,
    Insert,
    Delete,
}

pub const KNN_K: usize = 10;

/// One scheduled operation: its kind and the index of its payload (a
/// held-out query, a held-out row, or a dense id to delete).
#[derive(Clone, Copy)]
pub struct Op {
    pub kind: Kind,
    pub arg: usize,
}

/// What came back for one operation.
pub struct Done<T> {
    pub op: Op,
    /// Due time to answer (0 for a refused submission).
    pub latency_us: f64,
    pub answer: Result<T, ServeError>,
}

pub struct LoadReport<T> {
    pub done: Vec<Done<T>>,
    pub late_us: Vec<f64>,
    pub queue_depths: Vec<f64>,
    /// Requests still queued when the last one was sent.
    pub backlog_at_end: usize,
}

impl<T> LoadReport<T> {
    /// Latencies of the answered operations accepted by `keep`.
    pub fn latencies(&self, keep: impl Fn(&Done<T>) -> bool) -> Vec<f64> {
        self.done
            .iter()
            .filter(|d| d.answer.is_ok() && keep(d))
            .map(|d| d.latency_us)
            .collect()
    }
}

/// Offer `ops` to `server` at `rate` per second, open loop. Each answer is
/// reduced by `summarize` as it arrives, so no response is retained.
pub fn open_loop<T>(
    server: &LafServer,
    ops: &[Op],
    rate: f64,
    request: impl Fn(Op) -> QueryRequest + Sync,
    mut summarize: impl FnMut(Op, QueryResponse) -> T,
) -> LoadReport<T> {
    type Sent = (usize, Instant, Result<Ticket<QueryResponse>, ServeError>);
    let period = Duration::from_secs_f64(1.0 / rate);
    let (tx, rx) = mpsc::channel::<Sent>();
    let origin = Instant::now() + Duration::from_millis(2);
    let request = &request;
    std::thread::scope(|s| {
        let generator = s.spawn(move || {
            let mut late_us = Vec::with_capacity(ops.len());
            let mut queue_depths = Vec::with_capacity(ops.len());
            for (i, op) in ops.iter().enumerate() {
                let due = origin + period * i as u32;
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                late_us.push(micros(Instant::now().saturating_duration_since(due)));
                queue_depths.push(server.queue_depth() as f64);
                let sent = server.submit_async(request(*op));
                if tx.send((i, due, sent)).is_err() {
                    break;
                }
            }
            (late_us, queue_depths, server.queue_depth())
        });
        let mut done = Vec::with_capacity(ops.len());
        for (i, due, sent) in rx {
            let op = ops[i];
            let (latency_us, answer) = match sent {
                Ok(ticket) => {
                    let value = ticket.wait().value;
                    let latency_us = micros(due.elapsed());
                    (latency_us, Ok(summarize(op, value)))
                }
                Err(e) => (0.0, Err(e)),
            };
            done.push(Done {
                op,
                latency_us,
                answer,
            });
        }
        let (late_us, queue_depths, backlog_at_end) =
            generator.join().expect("generator thread panicked");
        LoadReport {
            done,
            late_us,
            queue_depths,
            backlog_at_end,
        }
    })
}

/// Synchronous answers of the read server's own engine for every held-out
/// query, computed before any load.
pub struct ReadReference {
    range: Vec<Vec<u32>>,
    count: Vec<usize>,
    knn: Vec<Vec<Neighbor>>,
    estimate: Vec<f32>,
}

impl ReadReference {
    pub fn new(sys: &System, queries: &Dataset, eps: f32) -> Self {
        let engine = sys.reader_engine.get();
        let rows = || (0..queries.len()).map(|i| queries.row(i));
        Self {
            range: rows().map(|q| engine.range(q, eps)).collect(),
            count: rows().map(|q| engine.range_count(q, eps)).collect(),
            knn: rows().map(|q| engine.knn(q, KNN_K)).collect(),
            estimate: rows().map(|q| sys.pipeline.estimate(q, eps)).collect(),
        }
    }

    fn matches(&self, op: Op, answer: QueryResponse) -> bool {
        let i = op.arg;
        match (op.kind, answer) {
            (Kind::Range, QueryResponse::Range(hits)) => hits == self.range[i],
            (Kind::RangeCount, QueryResponse::Count(n)) => n == self.count[i],
            (Kind::Knn, QueryResponse::Knn(nb)) => {
                nb.len() == self.knn[i].len()
                    && nb
                        .iter()
                        .zip(&self.knn[i])
                        .all(|(a, b)| a.index == b.index && a.dist.to_bits() == b.dist.to_bits())
            }
            (Kind::Estimate, QueryResponse::Estimate(e)) => {
                e.to_bits() == self.estimate[i].to_bits()
            }
            _ => false,
        }
    }
}

/// The read mix: 50% RangeCount, 20% Range, 20% Knn, 10% Estimate.
pub fn read_ops(rng: &mut Rng, n: usize, queries: usize) -> Vec<Op> {
    (0..n)
        .map(|_| {
            let u = rng.unit();
            let kind = if u < 0.5 {
                Kind::RangeCount
            } else if u < 0.7 {
                Kind::Range
            } else if u < 0.9 {
                Kind::Knn
            } else {
                Kind::Estimate
            };
            Op {
                kind,
                arg: rng.below(queries),
            }
        })
        .collect()
}

fn read_request(queries: &Dataset, eps: f32, op: Op) -> QueryRequest {
    let query = queries.row(op.arg).to_vec();
    match op.kind {
        Kind::Range => QueryRequest::Range { query, eps },
        Kind::RangeCount => QueryRequest::RangeCount { query, eps },
        Kind::Knn => QueryRequest::Knn { query, k: KNN_K },
        Kind::Estimate => QueryRequest::Estimate { query, eps },
        Kind::Insert | Kind::Delete => unreachable!("read mix has no writes"),
    }
}

/// Offered rate of the measured read segments, req/s.
pub const READ_RATE: f64 = 1000.0;
/// Latency limit and rungs of the capacity ladder (traced run only).
const P99_LIMIT_US: f64 = 5000.0;
const RUNGS: [f64; 4] = [READ_RATE, 2000.0, 4000.0, 8000.0];

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// The read server under the read mix; every answer is compared with the
/// synchronous engine.
pub struct Reads<'a> {
    pub p: &'a Params,
    pub sys: &'a System,
    pub queries: &'a Dataset,
    pub reference: &'a ReadReference,
    p50s: Vec<f64>,
}

impl<'a> Reads<'a> {
    pub fn new(
        p: &'a Params,
        sys: &'a System,
        queries: &'a Dataset,
        reference: &'a ReadReference,
    ) -> Self {
        Self {
            p,
            sys,
            queries,
            reference,
            p50s: Vec::new(),
        }
    }

    /// Offer `duration` of load at `rate`; refusals are failures only at
    /// [`READ_RATE`] (above it they only lower the capacity).
    fn load(
        &self,
        rate: f64,
        duration: Duration,
        rng: &mut Rng,
        tally: &mut Tally,
    ) -> (LoadReport<bool>, u64) {
        let n = (rate * duration.as_secs_f64()).ceil() as usize;
        let ops = read_ops(rng, n, self.queries.len());
        let load = open_loop(
            &self.sys.reader,
            &ops,
            rate,
            |op| read_request(self.queries, self.p.eps, op),
            |op, answer| self.reference.matches(op, answer),
        );
        let mut refused = 0;
        for d in &load.done {
            match d.answer {
                Ok(ok) => tally.check(ok, "read answer differs from the synchronous engine"),
                Err(ServeError::Overloaded { .. }) => {
                    refused += 1;
                    if rate == READ_RATE {
                        tally.attempted += 1;
                        tally.failed += 1;
                    }
                }
                Err(e) => tally.check(false, &format!("read submission failed: {e}")),
            }
        }
        (load, refused)
    }

    /// One measured segment at [`READ_RATE`].
    pub fn segment(&mut self, duration: Duration, rng: &mut Rng, tally: &mut Tally) {
        let (load, _) = self.load(READ_RATE, duration, rng, tally);
        self.p50s.push(median(&load.latencies(|_| true)));
    }

    /// `read_p50_us`: the median of the segments' medians.
    pub fn finish(&self, m: &mut Metrics) {
        println!("read {READ_RATE} req/s segment p50s: {:.0?} us", self.p50s);
        m.put("read_p50_us", median(&self.p50s), "us");
    }

    /// The capacity ladder, for the trace: per-rung occupancy, p99 and
    /// refusals, serving counters at [`READ_RATE`], and the highest rung
    /// with p99 within the limit, no refusals and no growing backlog.
    /// Returns the batch occupancy at [`READ_RATE`].
    pub fn ladder(
        &self,
        duration: Duration,
        rng: &mut Rng,
        tally: &mut Tally,
        t: &mut Metrics,
    ) -> f64 {
        let server = &self.sys.reader;
        let mut max_rps = 0.0;
        let mut occupancy = 1.0;
        for rate in RUNGS {
            server.stats().reset();
            let (load, refused) = self.load(rate, duration, rng, tally);
            let report = server.stats_report();
            let lat = load.latencies(|_| true);
            let p99 = quantile(&lat, 0.99);
            let backlog_ok = load.backlog_at_end <= (rate * 0.002).max(64.0) as usize;
            if refused == 0 && p99 <= P99_LIMIT_US && backlog_ok {
                max_rps = rate;
            }
            println!(
                "read {rate:>5} req/s: n={} p50={:.0}us p99={p99:.0}us refused={refused} occupancy={:.2} backlog={} late_p99={:.0}us",
                lat.len(),
                median(&lat),
                report.mean_batch_occupancy,
                load.backlog_at_end,
                quantile(&load.late_us, 0.99),
            );
            let tag = rate as u64;
            t.put(
                &format!("serve.occupancy_r{tag}"),
                report.mean_batch_occupancy,
                "count",
            );
            if rate != READ_RATE {
                t.put(&format!("serve.p99_us_r{tag}"), p99, "us");
            }
            t.put(
                &format!("serve.rejected_r{tag}"),
                report.rejected as f64,
                "count",
            );
            if rate == READ_RATE {
                occupancy = report.mean_batch_occupancy;
                let per_kind = |kind: Kind| median(&load.latencies(|d| d.op.kind == kind));
                t.put("read_p99_us", p99, "us");
                t.put("serve.batches", report.batches as f64, "count");
                t.put("serve.mean_occupancy", report.mean_batch_occupancy, "count");
                t.put("serve.tile_batches", report.tile_batches as f64, "count");
                t.put(
                    "serve.peak_queue_depth",
                    report.peak_queue_depth as f64,
                    "count",
                );
                t.put("serve.queue_depth_mean", mean(&load.queue_depths), "count");
                t.put("serve.timeouts", report.timeouts as f64, "count");
                t.put("serve.range_p50_us", per_kind(Kind::Range), "us");
                t.put("serve.range_count_p50_us", per_kind(Kind::RangeCount), "us");
                t.put("serve.knn_p50_us", per_kind(Kind::Knn), "us");
                t.put("serve.estimate_p50_us", per_kind(Kind::Estimate), "us");
                t.put("gen.late_p99_us", quantile(&load.late_us, 0.99), "us");
                t.put("gen.sent", load.late_us.len() as f64, "count");
            }
        }
        t.put("read_max_rps", max_rps, "1/s");
        occupancy
    }
}

/// The write mix: 70% RangeCount, 20% Insert of the next held-out row, 10%
/// Delete of a dense id below `live_floor` (always live: inserts outnumber
/// deletes, so the live count never falls that low).
fn write_ops(
    rng: &mut Rng,
    n: usize,
    queries: usize,
    next_row: &mut usize,
    live_floor: usize,
) -> Vec<Op> {
    (0..n)
        .map(|_| {
            let u = rng.unit();
            if u < 0.7 {
                Op {
                    kind: Kind::RangeCount,
                    arg: rng.below(queries),
                }
            } else if u < 0.9 {
                *next_row += 1;
                Op {
                    kind: Kind::Insert,
                    arg: *next_row - 1,
                }
            } else {
                Op {
                    kind: Kind::Delete,
                    arg: rng.below(live_floor),
                }
            }
        })
        .collect()
}

pub const WRITE_RATE: f64 = 2000.0;

/// A read's count, or an acknowledged write.
type WriteAnswer = Result<Option<usize>, String>;

/// The mutable server under the write mix at [`WRITE_RATE`]. Segments
/// continue one stream of operations; [`Writes::finish`] replays the
/// acknowledged writes in submission order into a model, untimed, and
/// checks every read against it.
pub struct Writes<'a> {
    p: &'a Params,
    sys: &'a System,
    queries: &'a Dataset,
    inserts: &'a Dataset,
    next_row: usize,
    done: Vec<Done<WriteAnswer>>,
    late_us: Vec<f64>,
    ack_p50s: Vec<f64>,
    read_p50s: Vec<f64>,
}

impl<'a> Writes<'a> {
    pub fn new(p: &'a Params, sys: &'a System, queries: &'a Dataset, inserts: &'a Dataset) -> Self {
        Self {
            p,
            sys,
            queries,
            inserts,
            next_row: 0,
            done: Vec::new(),
            late_us: Vec::new(),
            ack_p50s: Vec::new(),
            read_p50s: Vec::new(),
        }
    }

    pub fn segment(&mut self, duration: Duration, rng: &mut Rng) {
        let n = (WRITE_RATE * duration.as_secs_f64()).ceil() as usize;
        let floor = self.p.n_points / 2;
        let ops = write_ops(rng, n, self.queries.len(), &mut self.next_row, floor);
        let (queries, inserts, eps) = (self.queries, self.inserts, self.p.eps);
        let load = open_loop(
            &self.sys.writer,
            &ops,
            WRITE_RATE,
            |op| match op.kind {
                Kind::RangeCount => QueryRequest::RangeCount {
                    query: queries.row(op.arg).to_vec(),
                    eps,
                },
                Kind::Insert => QueryRequest::Insert {
                    row: inserts.row(op.arg % inserts.len()).to_vec(),
                },
                Kind::Delete => QueryRequest::Delete {
                    dense: op.arg as u64,
                },
                _ => unreachable!("write mix"),
            },
            |op, answer| match (op.kind, answer) {
                (Kind::RangeCount, QueryResponse::Count(c)) => Ok(Some(c)),
                (Kind::Insert | Kind::Delete, QueryResponse::Written { .. }) => Ok(None),
                (kind, other) => Err(format!("{kind:?} answered {other:?}")),
            },
        );
        self.ack_p50s
            .push(median(&load.latencies(|d| d.op.kind != Kind::RangeCount)));
        self.read_p50s
            .push(median(&load.latencies(|d| d.op.kind == Kind::RangeCount)));
        self.late_us.extend(load.late_us);
        self.done.extend(load.done);
    }

    pub fn finish(self, tally: &mut Tally, m: &mut Metrics, trace: Option<&mut Metrics>) {
        let compactions = self.sys.writer.current_epoch() - 1;
        let mut model = Model::new(&self.sys.data, self.queries, self.inserts, self.p.eps);
        for d in &self.done {
            match &d.answer {
                Ok(Ok(Some(count))) => tally.check(
                    *count == model.count(d.op.arg),
                    "mutable read differs from the replayed model",
                ),
                Ok(Ok(None)) => {
                    tally.attempted += 1;
                    match d.op.kind {
                        Kind::Insert => model.insert(d.op.arg % self.inserts.len()),
                        _ => model.delete(d.op.arg),
                    }
                }
                Ok(Err(what)) => tally.check(false, what),
                Err(e) => {
                    tally.attempted += 1;
                    tally.failed += 1;
                    if !matches!(e, ServeError::Overloaded { .. }) {
                        tally.incorrect += 1;
                        eprintln!("perfbench: write-phase submission failed: {e}");
                    }
                }
            }
        }
        let lat = |keep: &dyn Fn(Kind) -> bool| -> Vec<f64> {
            self.done
                .iter()
                .filter(|d| d.answer.is_ok() && keep(d.op.kind))
                .map(|d| d.latency_us)
                .collect()
        };
        let acks = lat(&|k| k != Kind::RangeCount);
        let reads = lat(&|k| k == Kind::RangeCount);
        println!(
            "write {WRITE_RATE} ops/s: reads={} acks={} compactions={compactions} ack p50s {:.0?} read p50s {:.0?} ack p99={:.0}us read p99={:.0}us",
            reads.len(),
            acks.len(),
            self.ack_p50s,
            self.read_p50s,
            quantile(&acks, 0.99),
            quantile(&reads, 0.99),
        );
        m.put("write_ack_p50_us", median(&self.ack_p50s), "us");
        m.put("write_read_p50_us", median(&self.read_p50s), "us");
        if let Some(t) = trace {
            t.put("write_ack_p99_us", quantile(&acks, 0.99), "us");
            t.put("write_read_p99_us", quantile(&reads, 0.99), "us");
            t.put("write.compactions", compactions as f64, "count");
            t.put("write.late_p99_us", quantile(&self.late_us, 0.99), "us");
        }
    }
}

/// The live rows after each acknowledged write, as neighbor counts of the
/// held-out queries: base counts computed once, then adjusted per write.
struct Model<'a> {
    queries: &'a Dataset,
    query_norms: Vec<f32>,
    base: &'a Dataset,
    base_norms: Vec<f32>,
    inserts: &'a Dataset,
    insert_norms: Vec<f32>,
    eps: f32,
    /// Live rows in dense order: `Ok(base row)` or `Err(insert row)`.
    live: Vec<Result<usize, usize>>,
    counts: Vec<usize>,
}

impl<'a> Model<'a> {
    fn new(base: &'a Dataset, queries: &'a Dataset, inserts: &'a Dataset, eps: f32) -> Self {
        let mut model = Self {
            queries,
            query_norms: norms(queries),
            base,
            base_norms: norms(base),
            inserts,
            insert_norms: norms(inserts),
            eps,
            live: (0..base.len()).map(Ok).collect(),
            counts: Vec::new(),
        };
        model.counts = (0..queries.len())
            .map(|q| (0..base.len()).filter(|&r| model.near(q, Ok(r))).count())
            .collect();
        model
    }

    fn near(&self, q: usize, row: Result<usize, usize>) -> bool {
        let (v, n) = match row {
            Ok(r) => (self.base.row(r), self.base_norms[r]),
            Err(r) => (self.inserts.row(r), self.insert_norms[r]),
        };
        cosine(self.queries.row(q), self.query_norms[q], v, n) < self.eps
    }

    fn count(&self, q: usize) -> usize {
        self.counts[q]
    }

    fn insert(&mut self, row: usize) {
        self.live.push(Err(row));
        for q in 0..self.counts.len() {
            if self.near(q, Err(row)) {
                self.counts[q] += 1;
            }
        }
    }

    fn delete(&mut self, dense: usize) {
        let row = self.live.remove(dense);
        for q in 0..self.counts.len() {
            if self.near(q, row) {
                self.counts[q] -= 1;
            }
        }
    }
}
