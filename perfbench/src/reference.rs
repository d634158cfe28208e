//! Brute-force references the program's answers are checked against.
//!
//! Independent of `laf-clustering` and of every engine: distances come from
//! the plain vector kernels (`dot`, `norm`), evaluated with the same
//! arithmetic as the library's cosine distance so that points exactly at ε
//! fall on the same side.

use laf::vector::ops::{dot, norm};
use laf::vector::Dataset;

/// Row norms, computed once.
pub fn norms(data: &Dataset) -> Vec<f32> {
    (0..data.len()).map(|i| norm(data.row(i))).collect()
}

/// Cosine distance `1 - cos(a, b)` from precomputed norms.
#[inline]
pub fn cosine(a: &[f32], na: f32, b: &[f32], nb: f32) -> f32 {
    let sim = if na <= 1e-12 || nb <= 1e-12 {
        0.0
    } else {
        (dot(a, b) / (na * nb)).clamp(-1.0, 1.0)
    };
    1.0 - sim
}

/// Ascending ids of the rows of `data` within `eps` of row `p`.
fn neighbors(data: &Dataset, norms: &[f32], p: usize, eps: f32) -> Vec<u32> {
    let q = data.row(p);
    (0..data.len())
        .filter(|&x| cosine(q, norms[p], data.row(x), norms[x]) < eps)
        .map(|x| x as u32)
        .collect()
}

/// Every row's neighbor list, computed on two threads (rows interleaved).
fn all_neighbors(data: &Dataset, eps: f32) -> Vec<Vec<u32>> {
    let norms = norms(data);
    let n = data.len();
    let half = |parity: usize| -> Vec<Vec<u32>> {
        (parity..n)
            .step_by(2)
            .map(|p| neighbors(data, &norms, p, eps))
            .collect()
    };
    let (even, odd) = std::thread::scope(|s| {
        let odd = s.spawn(|| half(1));
        (half(0), odd.join().expect("reference thread panicked"))
    });
    let mut lists = Vec::with_capacity(n);
    let (mut even, mut odd) = (even.into_iter(), odd.into_iter());
    for p in 0..n {
        let next = if p % 2 == 0 { even.next() } else { odd.next() };
        lists.push(next.expect("one list per row"));
    }
    lists
}

/// Labels of the original DBSCAN (visit rows in order, expand seeds in
/// neighbor order; noise is -1), with every range query a full scan.
pub fn dbscan(data: &Dataset, eps: f32, min_pts: usize) -> Vec<i64> {
    const UNDEFINED: i64 = -2;
    const NOISE: i64 = -1;
    let lists = all_neighbors(data, eps);
    let n = data.len();
    let mut labels = vec![UNDEFINED; n];
    let mut next = -1i64;
    for p in 0..n {
        if labels[p] != UNDEFINED {
            continue;
        }
        let found = &lists[p];
        if found.len() < min_pts {
            labels[p] = NOISE;
            continue;
        }
        next += 1;
        labels[p] = next;
        let mut seeds: Vec<u32> = found.iter().copied().filter(|&q| q as usize != p).collect();
        let mut cursor = 0;
        while cursor < seeds.len() {
            let q = seeds[cursor] as usize;
            cursor += 1;
            if labels[q] == NOISE {
                labels[q] = next;
            }
            if labels[q] != UNDEFINED {
                continue;
            }
            labels[q] = next;
            if lists[q].len() >= min_pts {
                seeds.extend(&lists[q]);
            }
        }
    }
    labels
}
