//! The clustering phase: DBSCAN, LAF-DBSCAN and LAF-DBSCAN++ on one engine,
//! checked against the brute-force reference and against themselves.

use crate::system::{Params, System};
use crate::trace::{covered_secs, TracedEngine, TracedEstimator, Tracer};
use crate::util::{median, normalize_labels, timed, Fnv, Metrics};
use laf::clustering::{Dbscan, DbscanConfig};
use laf::core::{LafDbscan, LafDbscanPlusPlus, LafStats};
use laf::index::{build_engine, RangeQueryEngine};
use laf::metrics::{adjusted_mutual_information, adjusted_rand_index};
use laf::prelude::CardinalityEstimator;
use laf::vector::Dataset;

/// Outcome tally shared by every phase.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Divergences, mismatches and typed errors (a refusal is a failure but
    /// not an incorrect answer).
    pub incorrect: u64,
}

impl Tally {
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.incorrect += 1;
            eprintln!("perfbench: correctness failure: {what}");
        }
    }
}

/// What one LAF run must repeat exactly: labels and every counter.
#[derive(PartialEq)]
struct Run {
    labels: Vec<i64>,
    stats: LafStats,
}

/// The first LAF and LAF++ runs of this process; later runs must match.
#[derive(Default)]
pub struct Expected {
    laf: Option<Run>,
    lafpp: Option<Run>,
}

impl Expected {
    fn check(slot: &mut Option<Run>, run: Run, tally: &mut Tally, what: &str) {
        match slot {
            Some(first) => tally.check(*first == run, what),
            None => {
                tally.attempted += 1;
                *slot = Some(run);
            }
        }
    }

    /// Fingerprint of the expected runs, compared across runs of one seed.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        for run in [&self.laf, &self.lafpp].into_iter().flatten() {
            for l in &run.labels {
                h.bytes(&l.to_le_bytes());
            }
            h.bytes(format!("{:?}", run.stats).as_bytes());
        }
        h.finish()
    }
}

pub struct Clusterers<'a> {
    p: &'a Params,
    data: &'a Dataset,
    reference: &'a [i64],
}

impl<'a> Clusterers<'a> {
    pub fn new(p: &'a Params, sys: &'a System, reference: &'a [i64]) -> Self {
        Self {
            p,
            data: &sys.data,
            reference,
        }
    }

    fn dbscan(&self, engine: &dyn RangeQueryEngine, tally: &mut Tally) -> f64 {
        let dbscan = Dbscan::new(DbscanConfig::new(self.p.eps, self.p.min_pts));
        let (out, t) = timed(|| dbscan.cluster_with_engine(self.data, engine));
        tally.check(
            normalize_labels(out.labels()) == self.reference,
            "DBSCAN labels differ from the brute-force reference",
        );
        t.as_secs_f64()
    }

    fn laf(
        &self,
        engine: &dyn RangeQueryEngine,
        est: &dyn CardinalityEstimator,
        expected: &mut Expected,
        tally: &mut Tally,
    ) -> (f64, Vec<i64>, LafStats) {
        let laf = LafDbscan::new(self.p.laf(), est);
        let ((out, stats), t) = timed(|| laf.cluster_with_stats_using(self.data, engine));
        let labels = out.into_labels();
        let run = Run {
            labels: labels.clone(),
            stats,
        };
        Expected::check(&mut expected.laf, run, tally, "LAF-DBSCAN run diverged");
        (t.as_secs_f64(), labels, stats)
    }

    fn lafpp(
        &self,
        est: &dyn CardinalityEstimator,
        expected: &mut Expected,
        tally: &mut Tally,
    ) -> (f64, Vec<i64>, LafStats) {
        let pp = LafDbscanPlusPlus::new(self.p.lafpp(), est);
        let ((out, stats), t) = timed(|| pp.cluster_with_stats(self.data));
        let labels = out.into_labels();
        let run = Run {
            labels: labels.clone(),
            stats,
        };
        Expected::check(&mut expected.lafpp, run, tally, "LAF-DBSCAN++ run diverged");
        (t.as_secs_f64(), labels, stats)
    }
}

/// Untimed quality of one LAF and one LAF++ labeling against exact DBSCAN.
fn quality(reference: &[i64], laf: &[i64], lafpp: &[i64], m: &mut Metrics) {
    m.put("laf_ari", adjusted_rand_index(reference, laf), "ratio");
    m.put(
        "laf_ami",
        adjusted_mutual_information(reference, laf),
        "ratio",
    );
    m.put("lafpp_ari", adjusted_rand_index(reference, lafpp), "ratio");
}

/// Timed rounds of DBSCAN and LAF-DBSCAN on one engine; [`Rounds::finish`]
/// adds one LAF-DBSCAN++ run and reports.
pub struct Rounds<'a> {
    c: &'a Clusterers<'a>,
    est: &'a dyn CardinalityEstimator,
    engine: Box<dyn RangeQueryEngine + 'a>,
    dbscan: Vec<f64>,
    laf: Vec<f64>,
    laf_labels: Option<Vec<i64>>,
}

impl<'a> Rounds<'a> {
    pub fn new(c: &'a Clusterers<'a>, sys: &'a System) -> Self {
        let cfg = c.p.laf();
        Self {
            c,
            est: sys.pipeline.estimator(),
            engine: build_engine(cfg.engine, c.data, cfg.metric, cfg.eps),
            dbscan: Vec::new(),
            laf: Vec::new(),
            laf_labels: None,
        }
    }

    pub fn round(&mut self, expected: &mut Expected, tally: &mut Tally) {
        let engine = self.engine.as_ref();
        self.dbscan.push(self.c.dbscan(engine, tally));
        let (t, labels, _) = self.c.laf(engine, self.est, expected, tally);
        self.laf.push(t);
        self.laf_labels.get_or_insert(labels);
    }

    /// Reports LAF-DBSCAN's cost as its time over DBSCAN's in the same
    /// round: a slow spell of the host stretches both runs of a round alike,
    /// so the ratio repeats where the absolute times (printed here, and in
    /// the trace) do not. LAF-DBSCAN++ runs once, for its quality; its
    /// parallel phase makes its time depend on the host's second core, too
    /// unsteady here for a bounded metric (the trace reports it).
    pub fn finish(self, expected: &mut Expected, tally: &mut Tally, m: &mut Metrics) {
        let ratios: Vec<f64> = self
            .laf
            .iter()
            .zip(&self.dbscan)
            .map(|(l, d)| l / d)
            .collect();
        let (lafpp_s, pp_labels, _) = self.c.lafpp(self.est, expected, tally);
        println!(
            "clustering: laf_s {:.4} dbscan_s {:.4} (medians) lafpp_s {lafpp_s:.4}; rounds: dbscan {:.3?} laf {:.3?}",
            median(&self.laf),
            median(&self.dbscan),
            self.dbscan,
            self.laf
        );
        m.put("laf_over_dbscan", median(&ratios), "ratio");
        let laf_labels = self.laf_labels.expect("at least one round");
        quality(self.c.reference, &laf_labels, &pp_labels, m);
    }
}

/// Traced phase: per-layer split of one DBSCAN, LAF and LAF++ run each,
/// plus the tracing overhead on LAF (traced minus untraced, medians of
/// `pairs` alternating runs).
pub fn trace(
    c: &Clusterers,
    sys: &System,
    pairs: usize,
    tracer: &Tracer,
    expected: &mut Expected,
    tally: &mut Tally,
    m: &mut Metrics,
) {
    let engine = build_engine(c.p.laf().engine, c.data, c.p.laf().metric, c.p.eps);
    let est = sys.pipeline.estimator();
    let traced = TracedEngine::new(engine.as_ref(), tracer);
    let traced_est = TracedEstimator::new(est, tracer);

    // Tracing overhead, and the span split of the last traced LAF run.
    let (mut plain, mut with) = (Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..pairs {
        plain.push(c.laf(engine.as_ref(), est, expected, tally).0);
        traced.reset();
        traced_est
            .rows
            .store(0, std::sync::atomic::Ordering::Relaxed);
        let ((t, _, stats), root) = tracer.root("laf.cluster", || {
            c.laf(&traced, &traced_est, expected, tally)
        });
        with.push(t);
        last = Some((root, stats));
    }
    let (root, stats) = last.expect("at least one traced run");
    let children = tracer.children(&root);
    let by_name = |name: &str| -> Vec<_> {
        children
            .iter()
            .filter(|s| s.name == name)
            .copied()
            .collect()
    };
    let cluster_s = root.secs();
    let range_s = covered_secs(&root, &by_name("index.range"));
    let prescan_s = covered_secs(&root, &by_name("cardest.estimate_batch"));
    let self_s = cluster_s - covered_secs(&root, &children);
    let load = std::sync::atomic::Ordering::Relaxed;
    let calls = traced.calls.load(load);
    let hits = traced.hits.load(load);
    m.put("trace.overhead_s", median(&with) - median(&plain), "s");
    m.put("laf_s", median(&plain), "s");
    m.put("core.cluster_s", cluster_s, "s");
    m.put("index.range_s", range_s, "s");
    m.put("index.range_share", range_s / cluster_s, "ratio");
    m.put("index.range_calls", calls as f64, "count");
    m.put("index.range_hits", hits as f64, "count");
    m.put(
        "index.hits_per_query",
        hits as f64 / calls.max(1) as f64,
        "count",
    );
    m.put(
        "index.dist_evals",
        traced.distance_evaluations() as f64,
        "count",
    );
    m.put("cardest.prescan_s", prescan_s, "s");
    m.put("cardest.rows", traced_est.rows.load(load) as f64, "count");
    m.put("gate.skip_ratio", stats.skip_ratio(), "ratio");
    m.put("gate.skipped", stats.skipped_range_queries as f64, "count");
    m.put("core.self_s", self_s, "s");
    m.put(
        "core.stop_points",
        stats.predicted_stop_points as f64,
        "count",
    );
    m.put(
        "core.false_negatives",
        stats.detected_false_negatives as f64,
        "count",
    );
    m.put(
        "core.merged_clusters",
        stats.merged_clusters as f64,
        "count",
    );
    m.put(
        "trace.span_coverage",
        (prescan_s + range_s + self_s) / cluster_s,
        "ratio",
    );

    // DBSCAN untraced (beside `laf_s`), then traced for its range phase.
    m.put("dbscan_s", c.dbscan(engine.as_ref(), tally), "s");
    traced.reset();
    let (dbscan_s, root) = tracer.root("dbscan.cluster", || c.dbscan(&traced, tally));
    let children = tracer.children(&root);
    m.put("dbscan.cluster_s", dbscan_s, "s");
    m.put("index.dbscan_range_s", covered_secs(&root, &children), "s");
    m.put(
        "index.dbscan_range_calls",
        traced.calls.load(load) as f64,
        "count",
    );

    // LAF-DBSCAN++ builds its own engine, so only its estimator calls are
    // spans; range queries and the phase-3 assignment are its self time.
    traced_est.rows.store(0, load);
    let ((_, _, stats), root) =
        tracer.root("lafpp.cluster", || c.lafpp(&traced_est, expected, tally));
    let prescan_s = covered_secs(&root, &tracer.children(&root));
    let pp = LafDbscanPlusPlus::new(c.p.lafpp(), est);
    m.put("lafpp.cluster_s", root.secs(), "s");
    m.put("lafpp.sample_fraction", pp.sample_fraction(c.data), "ratio");
    m.put(
        "lafpp.executed",
        stats.executed_range_queries as f64,
        "count",
    );
    m.put("lafpp.prescan_s", prescan_s, "s");
    m.put("lafpp.self_s", root.secs() - prescan_s, "s");
}
