//! Metric-specialized distance kernels with threshold pushdown.
//!
//! Every range query in the workspace bottoms out in a `dist(q, x) < eps`
//! comparison. Evaluated generically through [`crate::distance::Metric`],
//! the paper's primary metric (cosine) recomputes **both** vector norms on
//! every call — three full dot products per distance evaluation — even
//! though dataset rows are immutable during serving and the query is reused
//! across the whole scan. This module removes that waste without changing a
//! single result:
//!
//! * [`MetricKernel::prepare`] computes the query's norm **once per query**;
//! * [`crate::Dataset::row_norms`] caches every row's norm **once per
//!   dataset generation**;
//! * the hot predicates then need **one** dot product per row.
//!
//! # Bit-exactness contract
//!
//! Every specialized path returns *exactly* the result the generic
//! [`Metric::dist`] comparison would have produced — same bits, same
//! degenerate-vector semantics (zero-norm rows keep similarity 0), same NaN
//! behavior. The per-metric strategies:
//!
//! * **Cosine / Angular** — the scalar formula is already a function of
//!   `dot(q, x)`, `||q||` and `||x||`; the kernel evaluates the *same
//!   expression* with both norms read from caches (bit-identical by
//!   construction, since the caches store exactly `ops::norm(row)`). The
//!   O(d) work drops from 3 dot products to 1; the residual `div`/`clamp`
//!   (and `acos` for angular) are O(1) per row. A pure algebraic pushdown
//!   (`dot > t·||x||`) would be ~equally fast but cannot reproduce the
//!   scalar path's rounding at the decision boundary, so it is *not* used
//!   for the value-producing cosine family.
//! * **Euclidean / SquaredEuclidean** — in the **batch tile** the predicate
//!   is pushed down into the dot domain: `||q||² + ||x||² − 2·dot(q,x)` is
//!   compared against `eps²` (resp. `eps`) inside a certified error band.
//!   Rows that land clearly inside/outside the band are decided from the
//!   single `dot4` lane; rows within the band (a vanishing fraction) fall
//!   back to the exact subtract-form evaluation, so the decision always
//!   matches the scalar path bit-for-bit. The **scalar** predicate and
//!   distance *values* keep the subtract-form kernel: it is already a
//!   single fused pass over both vectors, so a one-query pushdown has
//!   nothing to amortize (and a dot-form value would differ in final
//!   ulps).
//! * **NegDot** — already a single dot product; the kernel merely skips the
//!   enum dispatch.
//!
//! [`MetricKernel::within4`] is the query-major mini-GEMM entry point: four
//! prepared queries are scored against one row through [`ops::dot4`], which
//! loads the row from memory once for all four lanes.

use crate::distance::Metric;
use crate::ops;

/// Relative half-width of the certified error band used by the Euclidean
/// threshold pushdown, as a multiple of `dim · f32::EPSILON` (see
/// [`MetricKernel::within`]). The factor is deliberately generous: a wider
/// band only sends more rows to the exact fallback, never changes a result.
const EUCLID_BAND_FACTOR: f64 = 8.0;

/// Relative slop covering the `eps → eps²` threshold rounding and the final
/// `sqrt` comparison of the Euclidean pushdown.
const EUCLID_THRESHOLD_SLOP: f64 = 1e-6;

/// Absolute floor of the certified error band. The relative model above
/// assumes every f32 rounding error is proportional to the value, which
/// fails once squared magnitudes reach the subnormal range (gradual
/// underflow rounds with unbounded *relative* error, and products below the
/// smallest subnormal flush to zero outright). Any comparison this close to
/// zero routes to the exact fallback instead. The floor is far above every
/// subnormal-regime error (≤ a few times 1.4e-45 per operation) yet
/// vanishingly small for realistic data, so it never costs a fast path that
/// the relative band would have taken correctly.
const EUCLID_BAND_ABS_FLOOR: f64 = (8.0 * f32::MIN_POSITIVE) as f64;

/// Magnitude ceiling for the Euclidean pushdown's fast paths. Above this the
/// scalar subtract-form evaluation can overflow `f32` to infinity while the
/// `f64` dot-form stays finite — the two would then disagree (`inf < eps` is
/// false even for thresholds the finite dot-form value passes), so such rows
/// always take the exact fallback. `f32::MAX / 8` leaves headroom for the
/// sum of squares and the error band.
const EUCLID_OVERFLOW_GUARD: f64 = (f32::MAX / 8.0) as f64;

/// A distance kernel specialized for one built-in [`Metric`].
///
/// Engines resolve this **once per engine** from their metric and then run
/// every scan through the prepared-query entry points below. The
/// [`crate::distance::DistanceMetric`] trait remains the generic fallback
/// for custom metrics and for engines (like the cover tree) whose internal
/// geometry is not a plain row scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricKernel {
    metric: Metric,
}

/// A query prepared for repeated distance evaluations: the norm work that
/// the generic path redoes per row, done once.
#[derive(Debug, Clone, Copy)]
pub struct PreparedQuery<'q> {
    q: &'q [f32],
    /// `ops::norm(q)` (bit-identical — computed as `dot(q,q).sqrt()`).
    norm: f32,
}

impl<'q> PreparedQuery<'q> {
    /// The query vector this preparation belongs to.
    pub fn query(&self) -> &'q [f32] {
        self.q
    }

    /// The query's L2 norm.
    pub fn norm(&self) -> f32 {
        self.norm
    }
}

/// A query prepared for a fixed-threshold range predicate: on top of
/// [`PreparedQuery`], the threshold constants of the Euclidean pushdown are
/// precomputed so the per-row epilogue is branch-cheap.
#[derive(Debug, Clone, Copy)]
pub struct RangeProbe<'q> {
    q: &'q [f32],
    norm: f32,
    /// `dot(q, q)` — the squared norm used by the Euclidean pushdown.
    sq: f32,
    eps: f32,
    /// Fast-accept threshold in the squared-distance domain (f64; Euclidean
    /// family only).
    accept_below: f64,
    /// Fast-reject threshold in the squared-distance domain (f64; Euclidean
    /// family only).
    reject_above: f64,
}

impl<'q> RangeProbe<'q> {
    /// The query vector this probe belongs to.
    pub fn query(&self) -> &'q [f32] {
        self.q
    }

    /// The range threshold the probe was prepared for.
    pub fn eps(&self) -> f32 {
        self.eps
    }
}

/// The exact expression of [`ops::cosine_similarity`] with the two norms
/// supplied instead of recomputed: bit-identical given `na == norm(a)` and
/// `nb == norm(b)`.
#[inline]
fn cosine_sim_from_dot(dot: f32, na: f32, nb: f32) -> f32 {
    if na <= 1e-12 || nb <= 1e-12 {
        return 0.0;
    }
    (dot / (na * nb)).clamp(-1.0, 1.0)
}

impl MetricKernel {
    /// Specialize for `metric`.
    pub fn new(metric: Metric) -> Self {
        Self { metric }
    }

    /// The metric this kernel is specialized for.
    pub fn metric(&self) -> Metric {
        self.metric
    }

    /// Prepare `q` for repeated [`MetricKernel::dist`] evaluations (one dot
    /// product, amortized over the whole scan).
    pub fn prepare<'q>(&self, q: &'q [f32]) -> PreparedQuery<'q> {
        PreparedQuery {
            q,
            norm: ops::dot(q, q).sqrt(),
        }
    }

    /// [`MetricKernel::prepare`] with the query's norm supplied by the
    /// caller, for queries that are themselves cached dataset rows (k-means
    /// assignment sweeps prepare every row against the current centroids).
    ///
    /// `norm` must be bit-identical to `ops::norm(q)` — e.g. read from
    /// [`crate::Dataset::row_norms`] — or the bit-exactness contract breaks.
    pub fn prepare_with_norm<'q>(&self, q: &'q [f32], norm: f32) -> PreparedQuery<'q> {
        PreparedQuery { q, norm }
    }

    /// Prepare `q` for repeated [`MetricKernel::within`] /
    /// [`MetricKernel::within4`] predicates against threshold `eps`.
    pub fn probe<'q>(&self, q: &'q [f32], eps: f32) -> RangeProbe<'q> {
        let sq = ops::dot(q, q);
        let (accept_below, reject_above) = match self.metric {
            Metric::Euclidean | Metric::SquaredEuclidean => {
                let t = if matches!(self.metric, Metric::Euclidean) {
                    (eps as f64) * (eps as f64)
                } else {
                    eps as f64
                };
                (
                    t * (1.0 - EUCLID_THRESHOLD_SLOP),
                    t * (1.0 + EUCLID_THRESHOLD_SLOP),
                )
            }
            _ => (0.0, 0.0),
        };
        RangeProbe {
            q,
            norm: sq.sqrt(),
            sq,
            eps,
            accept_below,
            reject_above,
        }
    }

    /// Distance from a prepared query to row `x` with cached norm `x_norm`,
    /// bit-identical to `self.metric().dist(prepared.query(), x)`.
    ///
    /// `x_norm` must be the row's L2 norm as produced by
    /// [`crate::Dataset::row_norms`] (i.e. bit-identical to
    /// `ops::norm(x)`); it is ignored by the metrics that do not need it.
    #[inline]
    pub fn dist(&self, prepared: &PreparedQuery<'_>, x: &[f32], x_norm: f32) -> f32 {
        match self.metric {
            Metric::Euclidean => ops::squared_euclidean(prepared.q, x).sqrt(),
            Metric::SquaredEuclidean => ops::squared_euclidean(prepared.q, x),
            _ => self.dist_from_dot(ops::dot(prepared.q, x), prepared.norm, x_norm),
        }
    }

    /// Four [`MetricKernel::dist`] values against one row: the query-major
    /// mini-GEMM counterpart of `dist`, streaming the row once through
    /// [`ops::dot4`] for the dot-product metrics. Every lane is bit-identical
    /// to `dist` (`dot4` lanes equal `dot`); the Euclidean family evaluates
    /// its exact subtract form per lane.
    #[inline]
    pub fn dist4(&self, prepared: &[PreparedQuery<'_>; 4], x: &[f32], x_norm: f32) -> [f32; 4] {
        match self.metric {
            Metric::Euclidean | Metric::SquaredEuclidean => {
                [0, 1, 2, 3].map(|lane| self.dist(&prepared[lane], x, x_norm))
            }
            _ => {
                let [p0, p1, p2, p3] = prepared;
                let dots = ops::dot4(p0.q, p1.q, p2.q, p3.q, x);
                [0, 1, 2, 3].map(|lane| self.dist_from_dot(dots[lane], prepared[lane].norm, x_norm))
            }
        }
    }

    /// The cosine/angular/neg-dot distance as an exact function of
    /// `(dot, ||q||, ||x||)` — the one expression `dist`, `dist4` and the
    /// range predicates all evaluate.
    #[inline]
    fn dist_from_dot(&self, dot: f32, q_norm: f32, x_norm: f32) -> f32 {
        match self.metric {
            Metric::Cosine => 1.0 - cosine_sim_from_dot(dot, q_norm, x_norm),
            Metric::Angular => {
                cosine_sim_from_dot(dot, q_norm, x_norm)
                    .clamp(-1.0, 1.0)
                    .acos()
                    / std::f32::consts::PI
            }
            Metric::NegDot => -dot,
            Metric::Euclidean | Metric::SquaredEuclidean => {
                unreachable!("euclidean distances are not a function of the dot product")
            }
        }
    }

    /// The range predicate `self.metric().dist(probe.query(), x) < probe.eps()`,
    /// decided from a single dot product wherever the metric allows and
    /// guaranteed to agree with the generic evaluation bit-for-bit.
    ///
    /// The Euclidean family evaluates the exact subtract-form expression
    /// here: it is already a single fused pass over both vectors, so the
    /// dot-form pushdown has nothing to amortize in a one-query scan (it
    /// pays off in [`MetricKernel::within4`], where `dot4` shares the row
    /// load across four queries).
    ///
    /// `x_norm`/`x_sq` must come from [`crate::Dataset::row_norms`] (or equal
    /// `ops::norm(x)` / `ops::dot(x, x)` bit-for-bit).
    #[inline]
    pub fn within(&self, probe: &RangeProbe<'_>, x: &[f32], x_norm: f32, _x_sq: f32) -> bool {
        match self.metric {
            Metric::Euclidean => ops::squared_euclidean(probe.q, x).sqrt() < probe.eps,
            Metric::SquaredEuclidean => ops::squared_euclidean(probe.q, x) < probe.eps,
            _ => self.dot_decide(probe, ops::dot(probe.q, x), x_norm),
        }
    }

    /// Four range predicates against one row — the query-major mini-GEMM
    /// path. Each lane is decided exactly as [`MetricKernel::within`] would,
    /// but the row is streamed from memory once for all four probes via
    /// [`ops::dot4`].
    #[inline]
    pub fn within4(
        &self,
        probes: &[RangeProbe<'_>; 4],
        x: &[f32],
        x_norm: f32,
        x_sq: f32,
    ) -> [bool; 4] {
        let dots = ops::dot4(probes[0].q, probes[1].q, probes[2].q, probes[3].q, x);
        let mut out = [false; 4];
        match self.metric {
            Metric::Euclidean | Metric::SquaredEuclidean => {
                for lane in 0..4 {
                    out[lane] = self.euclid_decide(&probes[lane], dots[lane], x, x_sq);
                }
            }
            _ => {
                for lane in 0..4 {
                    out[lane] = self.dot_decide(&probes[lane], dots[lane], x_norm);
                }
            }
        }
        out
    }

    /// Decide a cosine/angular/neg-dot predicate from the precomputed dot.
    /// These metrics are exact functions of `(dot, ||q||, ||x||)`, so the
    /// decision replicates the generic expression bit-for-bit.
    #[inline]
    fn dot_decide(&self, probe: &RangeProbe<'_>, dot: f32, x_norm: f32) -> bool {
        self.dist_from_dot(dot, probe.norm, x_norm) < probe.eps
    }

    /// Decide a Euclidean-family predicate from the precomputed dot, with the
    /// certified error band: clear accepts/rejects come from the dot-form
    /// squared distance, boundary rows re-evaluate the exact subtract-form
    /// expression, so the result always equals the generic comparison.
    #[inline]
    fn euclid_decide(&self, probe: &RangeProbe<'_>, dot: f32, x: &[f32], x_sq: f32) -> bool {
        // Distances are non-negative (or NaN): a non-positive or NaN eps can
        // never admit a row, exactly as the generic `dist < eps` would decide.
        if probe.eps <= 0.0 || probe.eps.is_nan() {
            return false;
        }
        let q_sq = probe.sq as f64;
        let r_sq = x_sq as f64;
        let d = dot as f64;
        let se_dot = q_sq + r_sq - 2.0 * d;
        // Conservative bound on |se_dot - se_subtract|: both forms err from
        // the true value by at most ~dim·ε·magnitude. Magnitudes near f32
        // overflow skip the fast paths entirely (see EUCLID_OVERFLOW_GUARD).
        let magnitude = q_sq + r_sq + 2.0 * d.abs();
        if magnitude < EUCLID_OVERFLOW_GUARD {
            let tol =
                EUCLID_BAND_FACTOR * (x.len() as f64 + 4.0) * (f32::EPSILON as f64) * magnitude
                    + EUCLID_BAND_ABS_FLOOR;
            if se_dot + tol < probe.accept_below {
                return true;
            }
            if se_dot - tol > probe.reject_above {
                return false;
            }
        }
        // Boundary band (or NaN anywhere): decide exactly like the scalar
        // path.
        let se = ops::squared_euclidean(probe.q, x);
        match self.metric {
            Metric::Euclidean => se.sqrt() < probe.eps,
            Metric::SquaredEuclidean => se < probe.eps,
            _ => unreachable!("only the euclidean family reaches the band fallback"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Dataset;

    fn rows(dim: usize, n: usize, scale: f32) -> Vec<Vec<f32>> {
        (0..n)
            .map(|i| {
                (0..dim)
                    .map(|j| ((i * dim + j) as f32 * 0.31).sin() * scale)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn dist_is_bit_identical_to_generic_for_every_metric() {
        for dim in [1usize, 3, 8, 17] {
            let data = Dataset::from_rows(rows(dim, 12, 2.5)).unwrap();
            let norms = data.row_norms();
            let q: Vec<f32> = (0..dim).map(|j| (j as f32 * 0.7).cos()).collect();
            for metric in Metric::ALL {
                let kernel = MetricKernel::new(metric);
                let prep = kernel.prepare(&q);
                for (i, row) in data.rows().enumerate() {
                    assert_eq!(
                        kernel.dist(&prep, row, norms.norm(i)).to_bits(),
                        metric.dist(&q, row).to_bits(),
                        "{metric:?} dim {dim} row {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn dist4_lanes_are_bit_identical_to_dist_for_every_metric() {
        for dim in [1usize, 4, 9, 17] {
            let mut all = rows(dim, 10, 1.7);
            all.push(vec![0.0; dim]); // degenerate row: similarity-0 semantics
            let data = Dataset::from_rows(all).unwrap();
            let norms = data.row_norms();
            let queries = rows(dim, 4, 0.9);
            for metric in Metric::ALL {
                let kernel = MetricKernel::new(metric);
                let prepared = [0, 1, 2, 3].map(|j| kernel.prepare(&queries[j]));
                for (i, row) in data.rows().enumerate() {
                    let lanes = kernel.dist4(&prepared, row, norms.norm(i));
                    for (lane, prep) in prepared.iter().enumerate() {
                        assert_eq!(
                            lanes[lane].to_bits(),
                            kernel.dist(prep, row, norms.norm(i)).to_bits(),
                            "{metric:?} dim {dim} row {i} lane {lane}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn within_agrees_with_generic_predicate_including_degenerate_rows() {
        for dim in [2usize, 5, 16] {
            let mut all = rows(dim, 20, 1.0);
            all.push(vec![0.0; dim]); // zero vector: similarity-0 semantics
            all.push(vec![1e-13; dim]); // just below the degenerate cutoff
            let data = Dataset::from_rows(all).unwrap();
            let norms = data.row_norms();
            let q: Vec<f32> = (0..dim).map(|j| (j as f32 * 1.3).sin() * 3.0).collect();
            for metric in Metric::ALL {
                let kernel = MetricKernel::new(metric);
                for eps in [-0.5f32, 0.0, 1e-6, 0.3, 1.0, 2.0, f32::INFINITY, f32::NAN] {
                    let probe = kernel.probe(&q, eps);
                    for (i, row) in data.rows().enumerate() {
                        assert_eq!(
                            kernel.within(&probe, row, norms.norm(i), norms.sq(i)),
                            metric.dist(&q, row) < eps,
                            "{metric:?} dim {dim} row {i} eps {eps}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn within4_matches_scalar_within() {
        let dim = 9;
        let data = Dataset::from_rows(rows(dim, 15, 1.5)).unwrap();
        let norms = data.row_norms();
        let queries = rows(dim, 4, 0.8);
        for metric in Metric::ALL {
            let kernel = MetricKernel::new(metric);
            let eps = match metric {
                Metric::NegDot => -0.1,
                _ => 0.6,
            };
            let probes = [
                kernel.probe(&queries[0], eps),
                kernel.probe(&queries[1], eps),
                kernel.probe(&queries[2], eps),
                kernel.probe(&queries[3], eps),
            ];
            for (i, row) in data.rows().enumerate() {
                let block = kernel.within4(&probes, row, norms.norm(i), norms.sq(i));
                for (lane, probe) in probes.iter().enumerate() {
                    assert_eq!(
                        block[lane],
                        kernel.within(probe, row, norms.norm(i), norms.sq(i)),
                        "{metric:?} row {i} lane {lane}"
                    );
                }
            }
        }
    }

    #[test]
    fn euclid_boundary_rows_fall_back_to_exact_evaluation() {
        // Construct a query/row pair whose distance sits exactly at eps: the
        // batch tile's pushdown band must route it to the subtract-form
        // fallback and agree with the generic comparison (the scalar
        // predicate evaluates the exact form directly).
        let q = vec![0.0f32, 0.0];
        let row = vec![3.0f32, 4.0];
        let data = Dataset::from_rows(vec![row.clone()]).unwrap();
        let norms = data.row_norms();
        for metric in [Metric::Euclidean, Metric::SquaredEuclidean] {
            let kernel = MetricKernel::new(metric);
            let exact_dist = metric.dist(&q, &row); // 5 resp. 25
            for eps in [exact_dist, exact_dist + 1e-6, exact_dist - 1e-6] {
                let probe = kernel.probe(&q, eps);
                assert_eq!(
                    kernel.within(&probe, &row, norms.norm(0), norms.sq(0)),
                    exact_dist < eps,
                    "{metric:?} scalar eps {eps}"
                );
                let probes = [probe, probe, probe, probe];
                let lanes = kernel.within4(&probes, &row, norms.norm(0), norms.sq(0));
                assert_eq!(lanes, [exact_dist < eps; 4], "{metric:?} tile eps {eps}");
            }
        }
    }

    #[test]
    fn euclid_tile_agrees_when_subtract_form_overflows_f32() {
        // The f32 subtract-form squared distance overflows to inf here while
        // the f64 dot-form stays finite (~1.3e39 < eps² = 1e40): the fast
        // accept must NOT fire — the generic path sees inf < 1e20 == false.
        let q = vec![1.8e19f32, 0.0];
        let row = vec![-1.8e19f32, 0.0];
        let data = Dataset::from_rows(vec![row.clone()]).unwrap();
        let norms = data.row_norms();
        for (metric, eps) in [
            (Metric::Euclidean, 1e20f32),
            (Metric::SquaredEuclidean, f32::MAX),
        ] {
            let kernel = MetricKernel::new(metric);
            let expected = metric.dist(&q, &row) < eps;
            let probe = kernel.probe(&q, eps);
            assert_eq!(
                kernel.within(&probe, &row, norms.norm(0), norms.sq(0)),
                expected,
                "{metric:?} scalar"
            );
            let probes = [probe, probe, probe, probe];
            let lanes = kernel.within4(&probes, &row, norms.norm(0), norms.sq(0));
            assert_eq!(lanes, [expected; 4], "{metric:?} tile");
        }
    }

    #[test]
    fn probe_and_prepared_accessors() {
        let q = [3.0f32, 4.0];
        let kernel = MetricKernel::new(Metric::Cosine);
        assert_eq!(kernel.metric(), Metric::Cosine);
        let prep = kernel.prepare(&q);
        assert_eq!(prep.query(), &q);
        assert_eq!(prep.norm(), 5.0);
        let probe = kernel.probe(&q, 0.25);
        assert_eq!(probe.query(), &q);
        assert_eq!(probe.eps(), 0.25);
    }
}
