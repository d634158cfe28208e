//! In-memory span recording around calls into the library's public API.
//!
//! The library is not instrumented: [`TracedEngine`] and [`TracedEstimator`]
//! wrap the trait objects the clustering entry points accept and record one span
//! per call. A span has a name, start and end (ns since the tracer was
//! made), the id of the span that caused it and a run id shared by every
//! span of one clustering run. Spans stay in memory until
//! [`Tracer::write`] dumps them at the end of the run.

use laf::cardest::CardinalityEstimator;
use laf::index::{Neighbor, RangeQueryEngine};
use laf::vector::Metric;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub run: u32,
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end - self.start) as f64 * 1e-9
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
    next_id: AtomicU32,
    /// The open root span: parent and run of every span the wrappers
    /// record while it is open.
    root: AtomicU32,
    run: AtomicU32,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Mutex::new(Vec::with_capacity(1 << 16)),
            next_id: AtomicU32::new(1),
            root: AtomicU32::new(0),
            run: AtomicU32::new(0),
        }
    }

    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn push(&self, span: Span) {
        self.spans
            .lock()
            .expect("a span recorder panicked")
            .push(span);
    }

    /// Record a child of the open root span.
    fn child(&self, name: &'static str, start: u64) {
        self.push(Span {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent: self.root.load(Ordering::Relaxed),
            run: self.run.load(Ordering::Relaxed),
            name,
            start,
            end: self.now(),
        });
    }

    /// Run `f` as a new root span (one clustering run) and return the span
    /// with the result.
    pub fn root<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> (R, Span) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let run = self.run.fetch_add(1, Ordering::Relaxed) + 1;
        self.root.store(id, Ordering::Relaxed);
        self.run.store(run, Ordering::Relaxed);
        let start = self.now();
        let out = f();
        let end = self.now();
        self.root.store(0, Ordering::Relaxed);
        let span = Span {
            id,
            parent: 0,
            run,
            name,
            start,
            end,
        };
        self.push(span);
        (out, span)
    }

    /// Every recorded span whose parent is `root`.
    pub fn children(&self, root: &Span) -> Vec<Span> {
        let spans = self.spans.lock().expect("a span recorder panicked");
        spans
            .iter()
            .filter(|s| s.parent == root.id)
            .copied()
            .collect()
    }

    pub fn len(&self) -> usize {
        self.spans.lock().expect("a span recorder panicked").len()
    }

    /// Write every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.lock().expect("a span recorder panicked").iter() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"run\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.run, s.name, s.start, s.end
            )?;
        }
        out.flush()
    }
}

/// Seconds of `root` covered by the union of `spans` (clipped to `root`).
pub fn covered_secs(root: &Span, spans: &[Span]) -> f64 {
    let mut iv: Vec<(u64, u64)> = spans
        .iter()
        .map(|s| (s.start.max(root.start), s.end.min(root.end)))
        .filter(|(a, b)| a < b)
        .collect();
    iv.sort_unstable();
    let mut total = 0u64;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in iv {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ca, cb)) = cur {
        total += cb - ca;
    }
    total as f64 * 1e-9
}

/// A range-query engine that records a span per call and counts hits.
pub struct TracedEngine<'a> {
    pub inner: &'a dyn RangeQueryEngine,
    pub tracer: &'a Tracer,
    pub calls: AtomicU64,
    pub hits: AtomicU64,
}

impl<'a> TracedEngine<'a> {
    pub fn new(inner: &'a dyn RangeQueryEngine, tracer: &'a Tracer) -> Self {
        Self {
            inner,
            tracer,
            calls: AtomicU64::new(0),
            hits: AtomicU64::new(0),
        }
    }

    pub fn reset(&self) {
        self.calls.store(0, Ordering::Relaxed);
        self.hits.store(0, Ordering::Relaxed);
        self.inner.reset_distance_evaluations();
    }
}

impl RangeQueryEngine for TracedEngine<'_> {
    fn num_points(&self) -> usize {
        self.inner.num_points()
    }

    fn metric(&self) -> Metric {
        self.inner.metric()
    }

    fn range(&self, q: &[f32], eps: f32) -> Vec<u32> {
        let start = self.tracer.now();
        let out = self.inner.range(q, eps);
        self.tracer.child("index.range", start);
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.hits.fetch_add(out.len() as u64, Ordering::Relaxed);
        out
    }

    fn knn(&self, q: &[f32], k: usize) -> Vec<Neighbor> {
        let start = self.tracer.now();
        let out = self.inner.knn(q, k);
        self.tracer.child("index.knn", start);
        out
    }

    fn distance_evaluations(&self) -> u64 {
        self.inner.distance_evaluations()
    }

    fn reset_distance_evaluations(&self) {
        self.inner.reset_distance_evaluations()
    }
}

/// A cardinality estimator that records a span per call and counts rows.
pub struct TracedEstimator<'a> {
    pub inner: &'a dyn CardinalityEstimator,
    pub tracer: &'a Tracer,
    pub rows: AtomicU64,
}

impl<'a> TracedEstimator<'a> {
    pub fn new(inner: &'a dyn CardinalityEstimator, tracer: &'a Tracer) -> Self {
        Self {
            inner,
            tracer,
            rows: AtomicU64::new(0),
        }
    }
}

impl CardinalityEstimator for TracedEstimator<'_> {
    fn estimate(&self, query: &[f32], eps: f32) -> f32 {
        let start = self.tracer.now();
        let out = self.inner.estimate(query, eps);
        self.tracer.child("cardest.estimate", start);
        self.rows.fetch_add(1, Ordering::Relaxed);
        out
    }

    fn estimate_batch(&self, queries: &[&[f32]], eps: f32) -> Vec<f32> {
        let start = self.tracer.now();
        let out = self.inner.estimate_batch(queries, eps);
        self.tracer.child("cardest.estimate_batch", start);
        self.rows.fetch_add(queries.len() as u64, Ordering::Relaxed);
        out
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn predictions(&self) -> Option<u64> {
        self.inner.predictions()
    }
}
