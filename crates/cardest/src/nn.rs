//! From-scratch dense neural network used by the learned estimators.
//!
//! The paper's cardinality estimator is an RMI whose member models are
//! fully-connected neural networks with four hidden layers (512, 512, 256,
//! 128), trained for 200 epochs with batch size 512 on a GPU workstation.
//! This module provides an equivalent CPU implementation: dense layers with
//! ReLU activations, mean-squared-error loss and the Adam optimizer, all in
//! plain safe Rust with no external ML framework.
//!
//! [`NetConfig::paper`] exposes the paper's widths; [`NetConfig::small`] is
//! the CPU-friendly default used by the reproduction's experiments: two
//! hidden layers (64, 32) and 60 epochs instead of the paper's GPU-sized
//! network, so an estimator trains in seconds on a laptop CPU.

use bytes::{Buf, BufMut};
use laf_vector::VectorError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, Normal};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Read-guard: error (instead of panicking) when fewer than `needed` bytes
/// remain in a binary payload being decoded.
fn ensure_remaining(bytes: &&[u8], needed: usize, what: &str) -> Result<(), VectorError> {
    if bytes.remaining() < needed {
        return Err(VectorError::MalformedPayload(format!(
            "truncated {what}: need {needed} bytes, found {}",
            bytes.remaining()
        )));
    }
    Ok(())
}

/// Hyper-parameters for building and training an [`Mlp`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetConfig {
    /// Hidden layer widths (the output layer is always a single unit).
    pub hidden: Vec<usize>,
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Parameter-initialization / shuffling seed.
    pub seed: u64,
}

impl NetConfig {
    /// The configuration the paper uses inside its RMI (4 hidden layers of
    /// width 512/512/256/128, 200 epochs, batch 512). Expensive on CPU.
    pub fn paper() -> Self {
        Self {
            hidden: vec![512, 512, 256, 128],
            epochs: 200,
            batch_size: 512,
            learning_rate: 1e-3,
            seed: 0x1AF,
        }
    }

    /// CPU-friendly configuration used by default in this reproduction.
    pub fn small() -> Self {
        Self {
            hidden: vec![64, 32],
            epochs: 60,
            batch_size: 64,
            learning_rate: 2e-3,
            seed: 0x1AF,
        }
    }

    /// Even smaller configuration for unit tests.
    pub fn tiny() -> Self {
        Self {
            hidden: vec![16],
            epochs: 80,
            batch_size: 32,
            learning_rate: 5e-3,
            seed: 0x1AF,
        }
    }
}

impl Default for NetConfig {
    fn default() -> Self {
        Self::small()
    }
}

/// Summary statistics returned by [`Mlp::train`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainReport {
    /// Number of epochs actually run.
    pub epochs: usize,
    /// Mean squared error on the training set before training.
    pub initial_loss: f32,
    /// Mean squared error on the training set after training.
    pub final_loss: f32,
}

/// One dense layer: `y = W x + b`.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Dense {
    in_dim: usize,
    out_dim: usize,
    /// Row-major `out_dim × in_dim` weights.
    w: Vec<f32>,
    b: Vec<f32>,
}

impl Dense {
    fn new(in_dim: usize, out_dim: usize, rng: &mut StdRng) -> Self {
        // He initialization for ReLU networks.
        let std = (2.0 / in_dim as f64).sqrt();
        let normal = Normal::new(0.0, std).expect("positive std");
        let w = (0..in_dim * out_dim)
            .map(|_| normal.sample(rng) as f32)
            .collect();
        Self {
            in_dim,
            out_dim,
            w,
            b: vec![0.0; out_dim],
        }
    }

    fn forward(&self, x: &[f32], out: &mut Vec<f32>) {
        out.clear();
        out.reserve(self.out_dim);
        for o in 0..self.out_dim {
            let row = &self.w[o * self.in_dim..(o + 1) * self.in_dim];
            out.push(laf_vector::ops::dot(row, x) + self.b[o]);
        }
    }

    fn param_count(&self) -> usize {
        self.w.len() + self.b.len()
    }

    /// Append this layer's shape and raw IEEE-754 parameter bits to `buf`
    /// (little-endian; exact — no text round-trip).
    fn encode_binary(&self, buf: &mut impl BufMut) {
        buf.put_u32_le(self.in_dim as u32);
        buf.put_u32_le(self.out_dim as u32);
        for &w in &self.w {
            buf.put_f32_le(w);
        }
        for &b in &self.b {
            buf.put_f32_le(b);
        }
    }

    /// Inverse of [`Dense::encode_binary`], advancing the cursor.
    fn decode_binary(bytes: &mut &[u8]) -> Result<Self, VectorError> {
        ensure_remaining(bytes, 8, "dense layer header")?;
        let in_dim = bytes.get_u32_le() as usize;
        let out_dim = bytes.get_u32_le() as usize;
        if in_dim == 0 || out_dim == 0 {
            return Err(VectorError::MalformedPayload(format!(
                "dense layer with zero dimension ({in_dim} x {out_dim})"
            )));
        }
        let param_bytes = in_dim
            .checked_mul(out_dim)
            .and_then(|n| n.checked_add(out_dim))
            .and_then(|n| n.checked_mul(4))
            .ok_or_else(|| VectorError::MalformedPayload("layer size overflow".to_string()))?;
        ensure_remaining(bytes, param_bytes, "dense layer parameters")?;
        let w = (0..in_dim * out_dim).map(|_| bytes.get_f32_le()).collect();
        let b = (0..out_dim).map(|_| bytes.get_f32_le()).collect();
        Ok(Self {
            in_dim,
            out_dim,
            w,
            b,
        })
    }
}

/// Multi-layer perceptron with ReLU hidden activations and a single linear
/// output unit, trained with Adam on mean squared error.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Mlp {
    input_dim: usize,
    layers: Vec<Dense>,
}

impl Mlp {
    /// Build an untrained network with He-initialized weights.
    ///
    /// # Panics
    /// Panics if `input_dim == 0`.
    pub fn new(input_dim: usize, hidden: &[usize], seed: u64) -> Self {
        assert!(input_dim > 0, "input_dim must be positive");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut layers = Vec::with_capacity(hidden.len() + 1);
        let mut prev = input_dim;
        for &h in hidden {
            let h = h.max(1);
            layers.push(Dense::new(prev, h, &mut rng));
            prev = h;
        }
        layers.push(Dense::new(prev, 1, &mut rng));
        Self { input_dim, layers }
    }

    /// Build a network that predicts `output` for every input: one linear
    /// layer with zero weights and `output` as its bias. Degraded snapshot
    /// loads substitute such a network for a corrupt estimator section so
    /// the gate can never steer a query off the exact path.
    ///
    /// # Panics
    /// Panics if `input_dim == 0`.
    pub fn constant(input_dim: usize, output: f32) -> Self {
        assert!(input_dim > 0, "input_dim must be positive");
        Self {
            input_dim,
            layers: vec![Dense {
                in_dim: input_dim,
                out_dim: 1,
                w: vec![0.0; input_dim],
                b: vec![output],
            }],
        }
    }

    /// Input dimensionality the network expects.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Total number of trainable parameters.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(Dense::param_count).sum()
    }

    /// Forward pass producing the scalar prediction.
    ///
    /// # Panics
    /// Panics if `x.len() != self.input_dim()`.
    pub fn predict(&self, x: &[f32]) -> f32 {
        assert_eq!(x.len(), self.input_dim, "input dimension mismatch");
        let mut cur = x.to_vec();
        let mut next = Vec::new();
        let last = self.layers.len() - 1;
        for (l, layer) in self.layers.iter().enumerate() {
            layer.forward(&cur, &mut next);
            if l != last {
                for v in next.iter_mut() {
                    if *v < 0.0 {
                        *v = 0.0;
                    }
                }
            }
            std::mem::swap(&mut cur, &mut next);
        }
        cur[0]
    }

    /// Forward pass over a whole batch of inputs, bit-exact with calling
    /// [`Mlp::predict`] per row (each output unit computes the same
    /// `dot(row, x) + b` in the same order), but shaped as a matrix-matrix
    /// sweep: every layer's weight row is streamed from memory once per batch
    /// instead of once per sample, which is what makes the LAF gate's batched
    /// prescan profitable.
    ///
    /// The inner loop runs on the shared [`laf_vector::ops::dot4`] mini-GEMM
    /// tile — four batch activations per weight-row load — whose lanes are
    /// bit-identical to the scalar `dot`, so the batch/scalar bit-exactness
    /// contract is preserved.
    ///
    /// # Panics
    /// Panics if any input's length differs from [`Mlp::input_dim`].
    pub fn predict_batch(&self, xs: &[&[f32]]) -> Vec<f32> {
        let batch = xs.len();
        if batch == 0 {
            return Vec::new();
        }
        // Activations as a row-major batch × width matrix.
        let mut cur: Vec<f32> = Vec::with_capacity(batch * self.input_dim);
        for x in xs {
            assert_eq!(x.len(), self.input_dim, "input dimension mismatch");
            cur.extend_from_slice(x);
        }
        let mut width = self.input_dim;
        let last = self.layers.len() - 1;
        let tiles = batch / 4 * 4;
        for (l, layer) in self.layers.iter().enumerate() {
            let mut next = vec![0.0f32; batch * layer.out_dim];
            let relu = l != last;
            for o in 0..layer.out_dim {
                let row = &layer.w[o * layer.in_dim..(o + 1) * layer.in_dim];
                let bias = layer.b[o];
                let mut store = |b: usize, dot: f32| {
                    let mut v = dot + bias;
                    if relu && v < 0.0 {
                        v = 0.0;
                    }
                    next[b * layer.out_dim + o] = v;
                };
                // Four activations per weight-row load (f32 multiplication
                // commutes, so dot4(x.., row) lanes equal dot(row, x)).
                for b in (0..tiles).step_by(4) {
                    let x0 = &cur[b * width..(b + 1) * width];
                    let x1 = &cur[(b + 1) * width..(b + 2) * width];
                    let x2 = &cur[(b + 2) * width..(b + 3) * width];
                    let x3 = &cur[(b + 3) * width..(b + 4) * width];
                    let dots = laf_vector::ops::dot4(x0, x1, x2, x3, row);
                    for (lane, &d) in dots.iter().enumerate() {
                        store(b + lane, d);
                    }
                }
                for b in tiles..batch {
                    let x = &cur[b * width..b * width + width];
                    store(b, laf_vector::ops::dot(row, x));
                }
            }
            cur = next;
            width = layer.out_dim;
        }
        cur
    }

    /// Append the network's architecture and raw IEEE-754 weight bits to
    /// `buf` (little-endian).
    ///
    /// Unlike the serde JSON path — which renders every weight through
    /// decimal text — this encoding copies the exact `f32` bit patterns, so a
    /// decoded network is **bit-exact**: every prediction it makes is
    /// byte-identical to the network that was encoded. The snapshot subsystem
    /// in `laf-core` persists estimators through this entry point.
    pub fn encode_binary(&self, buf: &mut impl BufMut) {
        buf.put_u32_le(self.input_dim as u32);
        buf.put_u32_le(self.layers.len() as u32);
        for layer in &self.layers {
            layer.encode_binary(buf);
        }
    }

    /// Inverse of [`Mlp::encode_binary`], advancing the cursor past the
    /// encoded network.
    ///
    /// # Errors
    /// Returns [`VectorError::MalformedPayload`] on truncation, zero
    /// dimensions, or an inconsistent layer chain (adjacent layer widths must
    /// line up and the output layer must have a single unit).
    pub fn decode_binary(bytes: &mut &[u8]) -> Result<Self, VectorError> {
        ensure_remaining(bytes, 8, "network header")?;
        let input_dim = bytes.get_u32_le() as usize;
        let n_layers = bytes.get_u32_le() as usize;
        if input_dim == 0 {
            return Err(VectorError::MalformedPayload(
                "network input dimension is zero".to_string(),
            ));
        }
        if n_layers == 0 {
            return Err(VectorError::MalformedPayload(
                "network with no layers".to_string(),
            ));
        }
        // Bound the layer count by the bytes actually present (every layer
        // occupies at least its 8-byte header) before reserving: a malformed
        // header must produce an error, not a multi-gigabyte allocation.
        ensure_remaining(bytes, n_layers.saturating_mul(8), "layer list")?;
        let mut layers = Vec::with_capacity(n_layers);
        let mut prev = input_dim;
        for l in 0..n_layers {
            let layer = Dense::decode_binary(bytes)?;
            if layer.in_dim != prev {
                return Err(VectorError::MalformedPayload(format!(
                    "layer {l} expects input width {} but the previous layer produces {prev}",
                    layer.in_dim
                )));
            }
            prev = layer.out_dim;
            layers.push(layer);
        }
        if prev != 1 {
            return Err(VectorError::MalformedPayload(format!(
                "output layer must have a single unit, found {prev}"
            )));
        }
        Ok(Self { input_dim, layers })
    }

    /// Mean squared error over a set of samples.
    pub fn mse(&self, inputs: &[Vec<f32>], targets: &[f32]) -> f32 {
        assert_eq!(inputs.len(), targets.len());
        if inputs.is_empty() {
            return 0.0;
        }
        // `predict_batch` is bit-exact with `predict`, and the squared
        // errors are still summed in sample order.
        let rows: Vec<&[f32]> = inputs.iter().map(Vec::as_slice).collect();
        let sum: f32 = self
            .predict_batch(&rows)
            .into_iter()
            .zip(targets)
            .map(|(p, &y)| {
                let e = p - y;
                e * e
            })
            .sum();
        sum / inputs.len() as f32
    }

    /// Train with Adam on MSE. `inputs` and `targets` must have equal length;
    /// empty training sets return a zeroed report.
    pub fn train(&mut self, inputs: &[Vec<f32>], targets: &[f32], cfg: &NetConfig) -> TrainReport {
        assert_eq!(
            inputs.len(),
            targets.len(),
            "inputs/targets length mismatch"
        );
        if inputs.is_empty() {
            return TrainReport {
                epochs: 0,
                initial_loss: 0.0,
                final_loss: 0.0,
            };
        }
        let initial_loss = self.mse(inputs, targets);
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xDEAD_BEEF);
        let n = inputs.len();
        let batch = cfg.batch_size.max(1).min(n);

        // Adam state, one slot per parameter, laid out layer by layer
        // (weights then biases).
        let total_params = self.param_count();
        let mut m = vec![0.0f32; total_params];
        let mut v = vec![0.0f32; total_params];
        let (beta1, beta2, eps) = (0.9f32, 0.999f32, 1e-8f32);
        let mut step = 0u64;

        let mut order: Vec<usize> = (0..n).collect();
        let mut grads = vec![0.0f32; total_params];
        let mut workspace = Workspace::new(self, batch);

        for _ in 0..cfg.epochs {
            // Shuffle sample order each epoch.
            for i in (1..order.len()).rev() {
                let j = rng.gen_range(0..=i);
                order.swap(i, j);
            }
            for chunk in order.chunks(batch) {
                self.minibatch_gradients(chunk, inputs, targets, &mut workspace, &mut grads);
                // Adam update.
                step += 1;
                let bias1 = 1.0 - beta1.powi(step.min(i32::MAX as u64) as i32);
                let bias2 = 1.0 - beta2.powi(step.min(i32::MAX as u64) as i32);
                let mut offset = 0usize;
                for layer in self.layers.iter_mut() {
                    for (slot, w) in layer.w.iter_mut().enumerate() {
                        let g = grads[offset + slot];
                        let mi = &mut m[offset + slot];
                        let vi = &mut v[offset + slot];
                        *mi = beta1 * *mi + (1.0 - beta1) * g;
                        *vi = beta2 * *vi + (1.0 - beta2) * g * g;
                        let m_hat = *mi / bias1;
                        let v_hat = *vi / bias2;
                        *w -= cfg.learning_rate * m_hat / (v_hat.sqrt() + eps);
                    }
                    offset += layer.w.len();
                    for (slot, b) in layer.b.iter_mut().enumerate() {
                        let g = grads[offset + slot];
                        let mi = &mut m[offset + slot];
                        let vi = &mut v[offset + slot];
                        *mi = beta1 * *mi + (1.0 - beta1) * g;
                        *vi = beta2 * *vi + (1.0 - beta2) * g * g;
                        let m_hat = *mi / bias1;
                        let v_hat = *vi / bias2;
                        *b -= cfg.learning_rate * m_hat / (v_hat.sqrt() + eps);
                    }
                    offset += layer.b.len();
                }
            }
        }

        TrainReport {
            epochs: cfg.epochs,
            initial_loss,
            final_loss: self.mse(inputs, targets),
        }
    }

    /// Overwrite `grads` (layout matches the Adam update in [`Mlp::train`])
    /// with the minibatch's MSE gradient: the sum over `batch` of
    /// `d(pred-y)^2 / dθ / batch.len()`.
    ///
    /// Bit-identical to backpropagating one sample at a time and adding each
    /// sample's gradient in turn, at any thread count: the forward and delta
    /// passes are independent per sample, and each parameter's gradient is
    /// summed over the samples in batch order by the one task that owns its
    /// weight row. Besides the parallel runtime's bookkeeping, the only
    /// allocations are two per-layer tables of row slices, one entry per
    /// sample, which keep the gradient sweep free of index arithmetic.
    fn minibatch_gradients(
        &self,
        batch: &[usize],
        inputs: &[Vec<f32>],
        targets: &[f32],
        ws: &mut Workspace,
        grads: &mut [f32],
    ) {
        for (layer, wt) in self.layers.iter().zip(&mut ws.transposed) {
            for (o, row) in layer.w.chunks_exact(layer.in_dim).enumerate() {
                for (i, &w) in row.iter().enumerate() {
                    wt[i * layer.out_dim + o] = w;
                }
            }
        }
        let (layout, transposed) = (&ws.layout, &ws.transposed);
        let rec = layout.record_len();
        let records = &mut ws.records[..batch.len() * rec];
        records
            .par_chunks_mut(rec)
            .enumerate()
            .for_each(|(b, record)| {
                let idx = batch[b];
                let y = targets[idx];
                self.forward_backward(layout, transposed, &inputs[idx], y, batch.len(), record);
            });

        let records = &*records;
        grads.fill(0.0);
        let mut offset = 0;
        for (l, layer) in self.layers.iter().enumerate() {
            let (w_grads, rest) = grads[offset..].split_at_mut(layer.w.len());
            let xs: Vec<&[f32]> = (0..batch.len())
                .map(|b| match l {
                    0 => &inputs[batch[b]][..],
                    _ => layout.act(&records[b * rec..], l - 1),
                })
                .collect();
            let ds: Vec<&[f32]> = (0..batch.len())
                .map(|b| layout.delta(&records[b * rec..], l))
                .collect();
            w_grads
                .par_chunks_mut(layer.in_dim)
                .enumerate()
                .for_each(|(o, g_row)| {
                    add_scaled_rows(g_row, ds.iter().zip(&xs).map(|(d, &x)| (d[o], x)));
                });
            for d in &ds {
                for (g, &d) in rest[..layer.out_dim].iter_mut().zip(*d) {
                    *g += d;
                }
            }
            offset += layer.param_count();
        }
    }

    /// Forward and delta passes for one sample, written into its `record`
    /// (see [`RecordLayout`]); `transposed[l]` is layer `l`'s weight matrix
    /// transposed to `in_dim × out_dim`.
    fn forward_backward(
        &self,
        layout: &RecordLayout,
        transposed: &[Vec<f32>],
        x: &[f32],
        y: f32,
        batch_len: usize,
        record: &mut [f32],
    ) {
        assert_eq!(x.len(), self.input_dim, "input dimension mismatch");
        let last = self.layers.len() - 1;
        for (l, (layer, wt)) in self.layers.iter().zip(transposed).enumerate() {
            let (before, after) = record.split_at_mut(layout.offsets[l]);
            let input = match l {
                0 => x,
                _ => layout.act(before, l - 1),
            };
            let out = &mut after[..layer.out_dim];
            layer.forward_transposed(wt, input, out);
            if l != last {
                for v in out.iter_mut() {
                    if *v < 0.0 {
                        *v = 0.0;
                    }
                }
            }
        }

        // Output delta: the derivative of this sample's share of the loss.
        let (acts, deltas) = record.split_at_mut(layout.width);
        let pred = layout.act(acts, last)[0];
        deltas[layout.offsets[last]] = 2.0 * (pred - y) / batch_len as f32;

        // Propagate deltas down to the first hidden layer, masked by the
        // ReLU derivative (zero where the activation was zero).
        for l in (1..self.layers.len()).rev() {
            let layer = &self.layers[l];
            let (lower, upper) = deltas.split_at_mut(layout.offsets[l]);
            let prev = &mut lower[layout.offsets[l - 1]..][..layer.in_dim];
            prev.fill(0.0);
            let terms = upper[..layer.out_dim]
                .iter()
                .zip(layer.w.chunks_exact(layer.in_dim));
            add_scaled_rows(prev, terms.map(|(&d, row)| (d, row)));
            for (pd, &a) in prev.iter_mut().zip(layout.act(acts, l - 1)) {
                if a <= 0.0 {
                    *pd = 0.0;
                }
            }
        }
    }
}

/// Output units computed together by [`Dense::forward_transposed`].
const LANES: usize = 8;

impl Dense {
    /// `out[o] = dot(w_o, x) + b[o]` for every output unit, bit-identical to
    /// [`Dense::forward`], from the `in_dim × out_dim` transposed weights
    /// `wt`. Each output keeps `ops::dot`'s exact accumulation (four
    /// partial sums over `j mod 4` in order, then a tail, combined as
    /// `s0 + s1 + s2 + s3 + tail`), but [`LANES`] outputs advance together,
    /// one contiguous load of `wt` per input element. Outputs beyond the
    /// last full group of lanes take the scalar `dot`.
    ///
    /// Training refreshes `wt` once per minibatch and shares it across the
    /// minibatch's samples; inference ([`Mlp::predict_batch`]) keeps its
    /// `dot4` tiles over the weights as stored, which need no copy.
    fn forward_transposed(&self, wt: &[f32], x: &[f32], out: &mut [f32]) {
        /// `acc[lane] += w[lane] * xj` across one group of lanes.
        #[inline(always)]
        fn add_lanes(acc: &mut [f32; LANES], w: &[f32], xj: f32) {
            let w: &[f32; LANES] = w[..LANES].try_into().expect("LANES-wide slice");
            for lane in 0..LANES {
                acc[lane] += w[lane] * xj;
            }
        }
        let (n, m) = (self.in_dim, self.out_dim);
        let chunks = n / 4;
        let blocked = m / LANES * LANES;
        for o0 in (0..blocked).step_by(LANES) {
            let wt = &wt[o0..];
            let mut partial = [[0.0f32; LANES]; 4];
            let [s0, s1, s2, s3] = &mut partial;
            for j in (0..chunks * 4).step_by(4) {
                add_lanes(s0, &wt[j * m..], x[j]);
                add_lanes(s1, &wt[(j + 1) * m..], x[j + 1]);
                add_lanes(s2, &wt[(j + 2) * m..], x[j + 2]);
                add_lanes(s3, &wt[(j + 3) * m..], x[j + 3]);
            }
            let mut tail = [0.0f32; LANES];
            for j in chunks * 4..n {
                add_lanes(&mut tail, &wt[j * m..], x[j]);
            }
            for lane in 0..LANES {
                let [s0, s1, s2, s3] = partial.map(|s| s[lane]);
                out[o0 + lane] = s0 + s1 + s2 + s3 + tail[lane] + self.b[o0 + lane];
            }
        }
        let rows = self.w.chunks_exact(n).zip(&self.b).skip(blocked);
        for (out, (row, &b)) in out[blocked..m].iter_mut().zip(rows) {
            *out = laf_vector::ops::dot(row, x) + b;
        }
    }
}

/// `acc += c · v` for every `(c, v)` term in order, skipping zero
/// coefficients, bit-identical to one `acc[i] += c * v[i]` sweep per term:
/// four terms share each pass over `acc`, but every element still adds them
/// one at a time in term order (f32 addition is left-associative here and
/// never contracted to a fused multiply-add).
fn add_scaled_rows<'a>(acc: &mut [f32], terms: impl Iterator<Item = (f32, &'a [f32])>) {
    let n = acc.len();
    let mut pending: [(f32, &[f32]); 4] = [(0.0, &[]); 4];
    let mut held = 0;
    for (c, v) in terms {
        if c == 0.0 {
            continue;
        }
        pending[held] = (c, &v[..n]);
        held += 1;
        if held == 4 {
            let [(c0, v0), (c1, v1), (c2, v2), (c3, v3)] = pending;
            let (v0, v1, v2, v3) = (&v0[..n], &v1[..n], &v2[..n], &v3[..n]);
            for i in 0..n {
                acc[i] = acc[i] + c0 * v0[i] + c1 * v1[i] + c2 * v2[i] + c3 * v3[i];
            }
            held = 0;
        }
    }
    for &(c, v) in &pending[..held] {
        for (a, &x) in acc.iter_mut().zip(v) {
            *a += c * x;
        }
    }
}

/// Where a sample's intermediate values live in its training record: every
/// layer's post-activation outputs (layer `l` at `offsets[l]`), then every
/// layer's output deltas (layer `l` at `width + offsets[l]`).
struct RecordLayout {
    /// Output width of each layer.
    widths: Vec<usize>,
    /// `offsets[l]` = summed output widths of the layers before `l`.
    offsets: Vec<usize>,
    /// Summed output widths of all layers.
    width: usize,
}

impl RecordLayout {
    fn new(net: &Mlp) -> Self {
        let widths: Vec<usize> = net.layers.iter().map(|layer| layer.out_dim).collect();
        let offsets = widths
            .iter()
            .scan(0, |sum, &w| {
                let start = *sum;
                *sum += w;
                Some(start)
            })
            .collect();
        Self {
            width: widths.iter().sum(),
            widths,
            offsets,
        }
    }

    /// Floats per record: activations plus deltas.
    fn record_len(&self) -> usize {
        2 * self.width
    }

    /// Layer `l`'s output activations in `record` (which may extend past
    /// the record's end).
    fn act<'r>(&self, record: &'r [f32], l: usize) -> &'r [f32] {
        &record[self.offsets[l]..self.offsets[l] + self.widths[l]]
    }

    /// Layer `l`'s output deltas in `record`.
    fn delta<'r>(&self, record: &'r [f32], l: usize) -> &'r [f32] {
        self.act(&record[self.width..], l)
    }
}

/// Training buffers, sized once per [`Mlp::train`] call so the minibatch
/// loop allocates nothing per sample.
struct Workspace {
    layout: RecordLayout,
    /// One record per minibatch sample.
    records: Vec<f32>,
    /// Each layer's weights transposed to `in_dim × out_dim`, refreshed at
    /// the start of every minibatch.
    transposed: Vec<Vec<f32>>,
}

impl Workspace {
    fn new(net: &Mlp, batch: usize) -> Self {
        let layout = RecordLayout::new(net);
        Self {
            records: vec![0.0; batch * layout.record_len()],
            layout,
            transposed: net
                .layers
                .iter()
                .map(|layer| vec![0.0; layer.w.len()])
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predict_has_right_shape_and_is_deterministic() {
        let net = Mlp::new(4, &[8, 4], 7);
        assert_eq!(net.input_dim(), 4);
        let x = [0.1f32, -0.2, 0.3, 0.4];
        assert_eq!(net.predict(&x), net.predict(&x));
        let net2 = Mlp::new(4, &[8, 4], 7);
        assert_eq!(net.predict(&x), net2.predict(&x));
        let net3 = Mlp::new(4, &[8, 4], 8);
        assert_ne!(net.predict(&x), net3.predict(&x));
    }

    #[test]
    #[should_panic(expected = "input dimension mismatch")]
    fn predict_rejects_wrong_dim() {
        let net = Mlp::new(3, &[4], 1);
        let _ = net.predict(&[1.0, 2.0]);
    }

    #[test]
    fn param_count_matches_architecture() {
        let net = Mlp::new(5, &[7, 3], 1);
        // (5*7 + 7) + (7*3 + 3) + (3*1 + 1) = 42 + 24 + 4
        assert_eq!(net.param_count(), 70);
    }

    #[test]
    fn training_reduces_loss_on_linear_function() {
        // y = 2*x0 - x1 + 0.5
        let inputs: Vec<Vec<f32>> = (0..200)
            .map(|i| {
                let a = (i as f32 * 0.017).sin();
                let b = (i as f32 * 0.03).cos();
                vec![a, b]
            })
            .collect();
        let targets: Vec<f32> = inputs.iter().map(|v| 2.0 * v[0] - v[1] + 0.5).collect();
        let mut net = Mlp::new(2, &[16], 3);
        let report = net.train(&inputs, &targets, &NetConfig::tiny());
        assert!(report.final_loss < report.initial_loss);
        assert!(
            report.final_loss < 0.05,
            "final loss too high: {}",
            report.final_loss
        );
    }

    #[test]
    fn training_learns_a_nonlinear_function() {
        // y = |x0| (needs the ReLU nonlinearity).
        let inputs: Vec<Vec<f32>> = (-100..100).map(|i| vec![i as f32 / 50.0]).collect();
        let targets: Vec<f32> = inputs.iter().map(|v| v[0].abs()).collect();
        let mut net = Mlp::new(1, &[16, 8], 11);
        let cfg = NetConfig {
            epochs: 200,
            ..NetConfig::tiny()
        };
        let report = net.train(&inputs, &targets, &cfg);
        assert!(report.final_loss < 0.02, "loss {}", report.final_loss);
        assert!((net.predict(&[1.5]) - 1.5).abs() < 0.3);
        assert!((net.predict(&[-1.5]) - 1.5).abs() < 0.3);
    }

    #[test]
    fn predict_batch_is_bit_exact_with_scalar_forward_across_tile_shapes() {
        // Batch sizes straddling the dot4 tile: empty, sub-tile, exactly one
        // tile, tile + tail, many tiles. Every blocked prediction must be
        // bit-identical to the scalar forward.
        let mut net = Mlp::new(3, &[8, 5], 17);
        let inputs: Vec<Vec<f32>> = (0..60)
            .map(|i| {
                vec![
                    (i as f32 * 0.13).sin(),
                    (i as f32 * 0.29).cos(),
                    i as f32 / 60.0,
                ]
            })
            .collect();
        let targets: Vec<f32> = inputs.iter().map(|v| v[0] - v[1]).collect();
        net.train(&inputs, &targets, &NetConfig::tiny());
        for batch in [0usize, 1, 3, 4, 5, 8, 11, 32] {
            let xs: Vec<&[f32]> = inputs.iter().take(batch).map(|v| v.as_slice()).collect();
            let blocked = net.predict_batch(&xs);
            assert_eq!(blocked.len(), batch);
            for (b, x) in xs.iter().enumerate() {
                assert_eq!(
                    blocked[b].to_bits(),
                    net.predict(x).to_bits(),
                    "batch {batch} slot {b}"
                );
            }
        }
    }

    #[test]
    fn empty_training_set_is_a_noop() {
        let mut net = Mlp::new(2, &[4], 1);
        let report = net.train(&[], &[], &NetConfig::tiny());
        assert_eq!(report.epochs, 0);
        assert_eq!(report.initial_loss, 0.0);
    }

    #[test]
    fn config_presets() {
        assert_eq!(NetConfig::paper().hidden, vec![512, 512, 256, 128]);
        assert_eq!(NetConfig::paper().epochs, 200);
        assert_eq!(NetConfig::paper().batch_size, 512);
        assert!(NetConfig::small().hidden.len() < NetConfig::paper().hidden.len());
        assert_eq!(NetConfig::default(), NetConfig::small());
    }

    #[test]
    fn serde_round_trip_preserves_predictions() {
        let net = Mlp::new(3, &[6], 21);
        let json = serde_json::to_string(&net).unwrap();
        let back: Mlp = serde_json::from_str(&json).unwrap();
        let x = [0.3f32, 0.1, -0.7];
        assert_eq!(net.predict(&x), back.predict(&x));
    }

    #[test]
    fn binary_round_trip_is_bit_exact_and_advances_cursor() {
        let mut net = Mlp::new(4, &[8, 4], 9);
        // Train a little so weights are not just the init distribution.
        let inputs: Vec<Vec<f32>> = (0..50).map(|i| vec![i as f32 / 25.0; 4]).collect();
        let targets: Vec<f32> = inputs.iter().map(|v| v[0] * 2.0).collect();
        net.train(&inputs, &targets, &NetConfig::tiny());

        let mut buf: Vec<u8> = Vec::new();
        net.encode_binary(&mut buf);
        buf.extend_from_slice(&[0xEE; 3]); // trailing bytes belong to the caller
        let mut cursor: &[u8] = &buf;
        let back = Mlp::decode_binary(&mut cursor).unwrap();
        assert_eq!(cursor, &[0xEE; 3], "decode must stop at the network's end");
        assert_eq!(back.input_dim(), net.input_dim());
        assert_eq!(back.param_count(), net.param_count());
        for i in 0..20 {
            let x = [i as f32 * 0.17, -0.3, 0.9, i as f32];
            assert_eq!(
                net.predict(&x).to_bits(),
                back.predict(&x).to_bits(),
                "prediction must be bit-exact"
            );
        }
    }

    #[test]
    fn binary_decode_rejects_malformed_payloads() {
        let net = Mlp::new(3, &[4], 2);
        let mut buf: Vec<u8> = Vec::new();
        net.encode_binary(&mut buf);

        // Truncation anywhere inside the payload.
        for cut in [0, 4, 8, 12, buf.len() - 1] {
            let mut cursor = &buf[..cut];
            assert!(Mlp::decode_binary(&mut cursor).is_err(), "cut at {cut}");
        }
        // Zero layers.
        let mut bad: Vec<u8> = Vec::new();
        bad.put_u32_le(3);
        bad.put_u32_le(0);
        assert!(Mlp::decode_binary(&mut bad.as_slice()).is_err());
        // A header claiming u32::MAX layers must error out before reserving
        // gigabytes for the layer vector.
        let mut bad: Vec<u8> = Vec::new();
        bad.put_u32_le(3);
        bad.put_u32_le(u32::MAX);
        assert!(Mlp::decode_binary(&mut bad.as_slice()).is_err());
        // Inconsistent layer chain: claim input_dim 5 against a net built
        // for 3 inputs.
        let mut bad = buf.clone();
        bad[0] = 5;
        assert!(Mlp::decode_binary(&mut bad.as_slice()).is_err());
    }
}
