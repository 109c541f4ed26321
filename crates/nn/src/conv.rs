//! 2-D convolution via im2col + GEMM.
//!
//! Both passes are batch-parallel: for large enough batches the work
//! fans out over the persistent [`easgd_tensor::par::pool()`]. Jobs are
//! owned closures over `Arc`-shared operand copies that take their
//! recycled buffers by move and hand them back; the caller writes the
//! results back in a fixed order. Persistent workers cannot run borrowed
//! closures in safe Rust; the memory-bound GEMMs borrow instead by
//! starting scoped threads per call, but convolution is compute-bound,
//! so the copies are cheap next to the work and the parked pool spares
//! each call a thread start (DESIGN.md §8.2, and a GEMM inside a job
//! runs serially). The forward runs one job per sample. The backward runs
//! parameter-gradient jobs over bands of the weight's columns and
//! input-gradient jobs over sample chunks (DESIGN.md §17.1). Every
//! result is bit-identical to the serial loop at any worker count.

use crate::layer::{batch_of, Init, Layer, ParamSpec};
use easgd_tensor::par::{pool, WorkerPool};
use easgd_tensor::{col2im, im2col, Conv2dGeometry};
use easgd_tensor::{
    gemm, gemm_naive, gemm_serial, ParamArena, ScratchPolicy, Tensor, TrainScratch, Transpose,
};
use std::sync::Arc;

/// Batches below this many forward flops (`2·b·oc·cols·rows`) run the
/// serial per-sample loop: dispatch plus the owned operand copies would
/// cost more than they parallelize. Mirrors the flop threshold used by
/// `easgd_tensor::gemm` for the same reason. The backward does the same
/// flops and uses the same gate.
const PAR_FLOPS: u64 = 8 << 20;

/// `easgd_tensor::gemm`'s kernel-class threshold: calls below this many
/// flops run the direct row loop, the rest the blocked kernel, and the
/// two round differently. A weight-gradient band must run the class of
/// the *unsplit* call to keep its bits; the test
/// `gemm_class_threshold_matches_tensor` pins this copy to the dispatch.
const GEMM_SMALL_FLOPS: u64 = 1 << 17;

/// Narrowest weight-gradient band worth its own job: one microkernel
/// tile of `easgd_tensor`'s GEMM (32 output columns). A narrower band
/// still computes a whole padded tile, so splitting it saves only part
/// of the operand staging, and measured no faster than one job.
const MIN_BAND_COLS: usize = 32;

/// A GEMM entry point with the BLAS signature of [`gemm`].
type GemmFn = fn(Transpose, Transpose, usize, usize, usize, f32, &[f32], &[f32], f32, &mut [f32]);

/// One sample's forward work: lower `image` into `col` and compute
/// `y = W·col + bias` (`y` laid out `[out_channels, out_h·out_w]`).
fn sample_forward(
    geom: &Conv2dGeometry,
    out_channels: usize,
    w: &[f32],
    bias: &[f32],
    image: &[f32],
    col: &mut Vec<f32>,
    y: &mut [f32],
) {
    let (rows, cols) = (geom.col_rows(), geom.col_cols());
    col.resize(rows * cols, 0.0);
    im2col(geom, image, col);
    gemm(
        Transpose::No,
        Transpose::No,
        out_channels,
        cols,
        rows,
        1.0,
        w,
        col,
        0.0,
        y,
    );
    for (oc, plane) in y.chunks_mut(cols).enumerate() {
        let bc = bias[oc];
        plane.iter_mut().for_each(|v| *v += bc);
    }
}

/// One sample's weight gradient through `mm`: `gw += gy·colᵀ`, where
/// `col` holds the im2col rows whose weight columns `gw` covers (`gw`
/// is `[out_channels, col.len() / cols]`).
fn sample_weight_grad(
    mm: GemmFn,
    out_channels: usize,
    cols: usize,
    gy: &[f32],
    col: &[f32],
    gw: &mut [f32],
) {
    let n = col.len() / cols;
    mm(
        Transpose::No,
        Transpose::Yes,
        out_channels,
        n,
        cols,
        1.0,
        gy,
        col,
        1.0,
        gw,
    );
}

/// One sample's bias gradient, `gb[o] += Σ gy[o,:]`, for the output
/// channels whose planes `gy` holds.
fn sample_bias_grad(cols: usize, gy: &[f32], gb: &mut [f32]) {
    for (g, plane) in gb.iter_mut().zip(gy.chunks(cols)) {
        *g += easgd_tensor::ops::sum(plane);
    }
}

/// One sample's input gradient: `grad_col = Wᵀ·gy`, then `col2im` into
/// `gx` (which col2im zeroes first).
fn sample_input_grad(
    geom: &Conv2dGeometry,
    out_channels: usize,
    w: &[f32],
    gy: &[f32],
    grad_col: &mut [f32],
    gx: &mut [f32],
) {
    gemm(
        Transpose::Yes,
        Transpose::No,
        geom.col_rows(),
        geom.col_cols(),
        out_channels,
        1.0,
        w,
        gy,
        0.0,
        grad_col,
    );
    col2im(geom, grad_col, gx);
}

/// The `i`-th of `parts` contiguous, near-equal pieces of `0..n`.
fn piece(n: usize, parts: usize, i: usize) -> (usize, usize) {
    (i * n / parts, (i + 1) * n / parts)
}

/// Read-only operands every backward job shares: the weights, the
/// batch's output gradient, and the forward's im2col panels.
#[derive(Clone)]
struct BackwardShared {
    geom: Conv2dGeometry,
    out_channels: usize,
    /// The GEMM of a weight-gradient band: the kernel class the unsplit
    /// per-sample call `[oc × cols]·[cols × rows]` would run.
    band_gemm: GemmFn,
    w: Arc<Vec<f32>>,
    gy: Arc<Vec<f32>>,
    cols: Arc<Vec<Vec<f32>>>,
}

/// One job of the pool-parallel backward. It owns its recycled buffers
/// and returns itself with them filled.
enum BackwardJob {
    /// Parameter gradients over the whole batch, summed in sample order:
    /// the weight columns `j0..j1` (im2col rows) of every output channel,
    /// and the biases of output channels `o0..o1`. `tile` holds the
    /// `[out_channels, j1 - j0]` weight block, then the biases, seeded
    /// from the gradient arena so each sum continues exactly where the
    /// serial loop's would.
    Band {
        slot: usize,
        j0: usize,
        j1: usize,
        o0: usize,
        o1: usize,
        tile: Vec<f32>,
    },
    /// `∂L/∂input` of samples `s0..s1` into `gx`, through the job's own
    /// `Wᵀ·gy` panel `grad_col`.
    Samples {
        slot: usize,
        s0: usize,
        s1: usize,
        grad_col: Vec<f32>,
        gx: Vec<f32>,
    },
}

impl BackwardJob {
    fn run(mut self, sh: &BackwardShared) -> Self {
        let geom = &sh.geom;
        let cols = geom.col_cols();
        let out_len = sh.out_channels * cols;
        match &mut self {
            BackwardJob::Band {
                j0,
                j1,
                o0,
                o1,
                tile,
                ..
            } => {
                let (gw, gb) = tile.split_at_mut(sh.out_channels * (*j1 - *j0));
                for (gy, col) in sh.gy.chunks_exact(out_len).zip(sh.cols.iter()) {
                    let col = &col[*j0 * cols..*j1 * cols];
                    sample_weight_grad(sh.band_gemm, sh.out_channels, cols, gy, col, gw);
                    sample_bias_grad(cols, &gy[*o0 * cols..*o1 * cols], gb);
                }
            }
            BackwardJob::Samples {
                s0,
                s1,
                grad_col,
                gx,
                ..
            } => {
                let in_len = geom.input_len();
                for (s, gx) in (*s0..*s1).zip(gx.chunks_exact_mut(in_len)) {
                    let gy = &sh.gy[s * out_len..(s + 1) * out_len];
                    sample_input_grad(geom, sh.out_channels, &sh.w, gy, grad_col, gx);
                }
            }
        }
        self
    }
}

/// Convolutional layer.
///
/// Weights are stored `[out_channels, in_channels·k_h·k_w]` row-major —
/// exactly the left operand of the im2col GEMM — plus one bias per output
/// channel.
#[derive(Clone, Debug)]
pub struct Conv2d {
    /// Layer name used for parameter segments.
    pub name: String,
    /// Spatial geometry (input dims, kernel, stride, padding).
    pub geom: Conv2dGeometry,
    /// Number of output channels (filters).
    pub out_channels: usize,
    w_seg: usize,
    b_seg: usize,
    /// Whether backward computes `∂L/∂input` ([`Layer::set_input_grad`]).
    input_grad: bool,
    /// Cached im2col matrices, one per sample of the last forward batch.
    /// Backward's weight-gradient jobs share them through the `Arc`;
    /// outside a fan-out its count is one, so `Arc::make_mut` hands the
    /// panels back in place.
    col_cache: Arc<Vec<Vec<f32>>>,
    /// Per-sample output buffers recycled through the parallel fan-out
    /// (jobs take them by move and hand them back as results).
    y_cache: Vec<Vec<f32>>,
    /// Per-sample input copies recycled through the parallel fan-out.
    image_cache: Vec<Vec<f32>>,
    /// Shared weight/bias copies for the parallel fan-out. Steady state
    /// refreshes them in place via `Arc::make_mut` — after `pool.run`
    /// returns, every job's clone has been dropped, so the refcount is
    /// back to one and no reallocation happens.
    w_shared: Option<Arc<Vec<f32>>>,
    bias_shared: Option<Arc<Vec<f32>>>,
    /// Backward's shared copy of the output gradient, refreshed the same way.
    gy_shared: Option<Arc<Vec<f32>>>,
    /// `Wᵀ·gy` panels: one per input-gradient job (the serial loop uses
    /// the first), reused across samples and steps.
    grad_cols: Vec<Vec<f32>>,
    /// Per-job `∂L/∂input` chunks of the parallel backward.
    gx_chunks: Vec<Vec<f32>>,
    /// Per-band `gradW`/`gradB` tiles of the parallel backward.
    band_tiles: Vec<Vec<f32>>,
}

/// Sizes a per-sample buffer list to at least `b` slots. Grow-only:
/// shrinking batches (ragged serving dispatches alternate sizes) keep
/// the extra slots and their accumulated capacity, so a later return to
/// the larger batch reuses them instead of re-allocating. Callers
/// iterate only the first `b` slots.
fn ensure_slots(cache: &mut Vec<Vec<f32>>, b: usize) {
    if cache.len() < b {
        cache.resize_with(b, Vec::new);
    }
}

/// Refreshes an `Arc`-shared operand copy from `src`, replacing it
/// outright under the churn policy (the seed path built a fresh
/// `Arc<Vec<f32>>` every step). Returns a handle to the refreshed
/// buffer for fanning out to worker jobs.
fn refresh_shared(
    shared: &mut Option<Arc<Vec<f32>>>,
    src: &[f32],
    scratch: &mut TrainScratch,
) -> Arc<Vec<f32>> {
    match shared {
        Some(arc) if scratch.policy() == ScratchPolicy::Pooled => {
            let buf = Arc::make_mut(arc);
            scratch.ensure_f32(buf, src.len());
            buf.copy_from_slice(src);
            arc.clone()
        }
        _ => {
            let arc = Arc::new(src.to_vec());
            scratch.note_external_alloc();
            *shared = Some(arc.clone());
            arc
        }
    }
}

impl Conv2d {
    /// A convolution over `geom` producing `out_channels` feature maps.
    pub fn new(name: impl Into<String>, geom: Conv2dGeometry, out_channels: usize) -> Self {
        assert!(geom.is_valid(), "invalid conv geometry {geom:?}");
        assert!(out_channels > 0, "out_channels must be > 0");
        Self {
            name: name.into(),
            geom,
            out_channels,
            w_seg: usize::MAX,
            b_seg: usize::MAX,
            input_grad: true,
            col_cache: Arc::default(),
            y_cache: Vec::new(),
            image_cache: Vec::new(),
            w_shared: None,
            bias_shared: None,
            gy_shared: None,
            grad_cols: Vec::new(),
            gx_chunks: Vec::new(),
            band_tiles: Vec::new(),
        }
    }

    /// Elements in the filter bank.
    pub fn weight_len(&self) -> usize {
        self.out_channels * self.geom.col_rows()
    }

    /// Total parameters (weights + biases).
    pub fn num_params(&self) -> usize {
        self.weight_len() + self.out_channels
    }

    /// Per-sample output feature-map size `[out_channels, out_h, out_w]`.
    pub fn output_len(&self) -> usize {
        self.out_channels * self.geom.col_cols()
    }

    /// Whether a batch of `b` takes the pool fan-out on `pool`.
    fn fans_out(&self, pool: &WorkerPool, b: usize) -> bool {
        let flops =
            2 * (b * self.out_channels * self.geom.col_cols() * self.geom.col_rows()) as u64;
        pool.threads() > 1 && b >= 2 && flops >= PAR_FLOPS
    }

    /// [`Layer::forward`] against an explicit pool (the trait method uses
    /// the process-wide one); exposed for tests that need a local pool
    /// with a known worker count.
    pub fn forward_with_pool(
        &mut self,
        pool: &WorkerPool,
        params: &ParamArena,
        input: &Tensor,
    ) -> Tensor {
        let mut out = Tensor::default();
        let mut scratch = TrainScratch::default();
        self.forward_with_pool_into(pool, params, input, &mut out, &mut scratch);
        out
    }

    /// [`Layer::forward_into`] against an explicit pool. All per-sample
    /// panels (im2col columns, output rows, input copies for the fan-out)
    /// and the shared weight/bias `Arc`s are recycled across calls, so a
    /// warmed-up step allocates nothing on either the serial or the
    /// parallel branch.
    pub fn forward_with_pool_into(
        &mut self,
        pool: &WorkerPool,
        params: &ParamArena,
        input: &Tensor,
        out: &mut Tensor,
        scratch: &mut TrainScratch,
    ) {
        let b = batch_of(input);
        let in_len = self.geom.input_len();
        assert_eq!(
            input.len(),
            b * in_len,
            "conv '{}' expected {} elements/sample, input is {:?}",
            self.name,
            in_len,
            input.shape()
        );
        let w = params.segment(self.w_seg);
        let bias = params.segment(self.b_seg);
        let (rows, cols) = (self.geom.col_rows(), self.geom.col_cols());
        let out_len = self.output_len();
        // Every output element is stored by the β = 0 GEMM, so the reused
        // buffer needs no zeroing.
        scratch.shape_tensor(
            out,
            &[b, self.out_channels, self.geom.out_h(), self.geom.out_w()],
        );

        let fan_out = self.fans_out(pool, b);
        let col_cache = Arc::make_mut(&mut self.col_cache);
        ensure_slots(col_cache, b);
        for col in col_cache.iter_mut().take(b) {
            scratch.ensure_f32(col, rows * cols);
        }

        if fan_out {
            // Owned-job fan-out: one job per sample over Arc-shared
            // weights; results return in sample order via `run`. Each job
            // takes its sample's recycled buffers by move and returns them,
            // so steady state allocates only the pool's job list.
            let w_shared = refresh_shared(&mut self.w_shared, w, scratch);
            let bias_shared = refresh_shared(&mut self.bias_shared, bias, scratch);
            ensure_slots(&mut self.y_cache, b);
            ensure_slots(&mut self.image_cache, b);
            let geom = self.geom;
            let out_channels = self.out_channels;
            let mut tasks = Vec::with_capacity(b);
            for (s, col) in col_cache.iter_mut().take(b).enumerate() {
                scratch.ensure_f32(&mut self.y_cache[s], out_len);
                scratch.ensure_f32(&mut self.image_cache[s], in_len);
                self.image_cache[s]
                    .copy_from_slice(&input.as_slice()[s * in_len..(s + 1) * in_len]);
                let image = std::mem::take(&mut self.image_cache[s]);
                let mut col = std::mem::take(col);
                let mut y = std::mem::take(&mut self.y_cache[s]);
                // Arc refcount bumps, not data copies; the weight
                // buffers themselves are reused across steps.
                let w = w_shared.clone(); // xtask: allow(step-alloc)
                let bias = bias_shared.clone(); // xtask: allow(step-alloc)
                tasks.push(move || {
                    sample_forward(&geom, out_channels, &w, &bias, &image, &mut col, &mut y);
                    (image, col, y)
                });
            }
            for (s, (image, col, y)) in pool.run(tasks).into_iter().enumerate() {
                out.as_mut_slice()[s * out_len..(s + 1) * out_len].copy_from_slice(&y);
                self.image_cache[s] = image;
                col_cache[s] = col;
                self.y_cache[s] = y;
            }
        } else {
            for (s, col) in col_cache.iter_mut().take(b).enumerate() {
                let image = &input.as_slice()[s * in_len..(s + 1) * in_len];
                let y = &mut out.as_mut_slice()[s * out_len..(s + 1) * out_len];
                sample_forward(&self.geom, self.out_channels, w, bias, image, col, y);
            }
        }
    }

    /// [`Layer::backward_into`] against an explicit pool; see
    /// [`forward_with_pool_into`](Self::forward_with_pool_into).
    ///
    /// Past the same flops gate as the forward, the batch fans out as
    /// two kinds of jobs (DESIGN.md §17.1): parameter-gradient bands,
    /// each owning some of the weight's columns and some of the biases
    /// and summing the whole batch in sample order with the kernel class
    /// of the unsplit call; and input-gradient jobs over contiguous
    /// sample chunks. Every buffer they use is recycled, so a warm step
    /// allocates nothing counted.
    pub fn backward_with_pool_into(
        &mut self,
        pool: &WorkerPool,
        params: &ParamArena,
        grads: &mut ParamArena,
        grad_out: &Tensor,
        grad_in: &mut Tensor,
        scratch: &mut TrainScratch,
    ) {
        let (rows, cols) = (self.geom.col_rows(), self.geom.col_cols());
        let out_len = self.output_len();
        // The slot list is grow-only, so its length is the *largest*
        // batch seen, not necessarily the last one — take the batch from
        // the gradient itself.
        let b = grad_out.len() / out_len;
        assert!(b > 0, "backward called before forward");
        assert_eq!(grad_out.len(), b * out_len, "grad_out shape mismatch");
        assert!(
            self.col_cache.len() >= b,
            "backward batch exceeds cached forward panels"
        );
        let in_len = self.geom.input_len();
        let w = params.segment(self.w_seg);

        // col2im zeroes each per-sample image slice itself before its
        // `+=` accumulation, and the slices tile grad_in exactly, so the
        // reused buffer needs no zeroing here. The β = 0 GEMM likewise
        // stores every element of grad_col.
        if self.input_grad {
            scratch.shape_tensor(
                grad_in,
                &[b, self.geom.in_channels, self.geom.in_h, self.geom.in_w],
            );
        }
        // Weight-gradient bands split the im2col rows (W's columns) and
        // are at least one GEMM tile wide; input-gradient jobs split the
        // batch. A lone job runs the serial loop instead.
        let threads = pool.threads();
        let bands = threads.min(rows / MIN_BAND_COLS).max(1);
        let chunks = if self.input_grad { threads.min(b) } else { 0 };
        if !self.fans_out(pool, b) || bands + chunks < 2 {
            ensure_slots(&mut self.grad_cols, 1);
            let grad_col = &mut self.grad_cols[0];
            if self.input_grad {
                scratch.ensure_f32(grad_col, rows * cols);
            }
            for s in 0..b {
                let gy = &grad_out.as_slice()[s * out_len..(s + 1) * out_len];
                let gw = grads.segment_mut(self.w_seg);
                sample_weight_grad(gemm, self.out_channels, cols, gy, &self.col_cache[s], gw);
                sample_bias_grad(cols, gy, grads.segment_mut(self.b_seg));
                if self.input_grad {
                    let gx = &mut grad_in.as_mut_slice()[s * in_len..(s + 1) * in_len];
                    sample_input_grad(&self.geom, self.out_channels, w, gy, grad_col, gx);
                }
            }
            return;
        }

        let unsplit_flops = 2 * (self.out_channels * rows * cols) as u64;
        let shared = BackwardShared {
            geom: self.geom,
            out_channels: self.out_channels,
            band_gemm: if unsplit_flops < GEMM_SMALL_FLOPS {
                gemm_naive
            } else {
                gemm_serial
            },
            w: refresh_shared(&mut self.w_shared, w, scratch),
            gy: refresh_shared(&mut self.gy_shared, grad_out.as_slice(), scratch),
            // A refcount bump: the panels stay where the forward put them.
            cols: Arc::clone(&self.col_cache),
        };
        ensure_slots(&mut self.band_tiles, bands);
        ensure_slots(&mut self.grad_cols, chunks);
        ensure_slots(&mut self.gx_chunks, chunks);
        let mut tasks = Vec::with_capacity(bands + chunks);
        let mut push = |job: BackwardJob| {
            // Arc refcount bumps of the shared operands, not data copies.
            let sh = shared.clone(); // xtask: allow(step-alloc)
            tasks.push(move || job.run(&sh));
        };
        {
            let (gw, gb) = (grads.segment(self.w_seg), grads.segment(self.b_seg));
            for (slot, tile) in self.band_tiles.iter_mut().take(bands).enumerate() {
                let (j0, j1) = piece(rows, bands, slot);
                let (o0, o1) = piece(self.out_channels, bands, slot);
                let width = j1 - j0;
                scratch.ensure_f32(tile, self.out_channels * width + (o1 - o0));
                let (tw, tb) = tile.split_at_mut(self.out_channels * width);
                for (t, g) in tw.chunks_exact_mut(width).zip(gw.chunks_exact(rows)) {
                    t.copy_from_slice(&g[j0..j1]);
                }
                tb.copy_from_slice(&gb[o0..o1]);
                let tile = std::mem::take(tile);
                push(BackwardJob::Band {
                    slot,
                    j0,
                    j1,
                    o0,
                    o1,
                    tile,
                });
            }
        }
        for slot in 0..chunks {
            let (s0, s1) = piece(b, chunks, slot);
            scratch.ensure_f32(&mut self.grad_cols[slot], rows * cols);
            scratch.ensure_f32(&mut self.gx_chunks[slot], (s1 - s0) * in_len);
            let grad_col = std::mem::take(&mut self.grad_cols[slot]);
            let gx = std::mem::take(&mut self.gx_chunks[slot]);
            push(BackwardJob::Samples {
                slot,
                s0,
                s1,
                grad_col,
                gx,
            });
        }
        drop(shared);
        for job in pool.run(tasks) {
            match job {
                BackwardJob::Band {
                    slot,
                    j0,
                    j1,
                    o0,
                    o1,
                    tile,
                } => {
                    let width = j1 - j0;
                    let (tw, tb) = tile.split_at(self.out_channels * width);
                    let gw = grads.segment_mut(self.w_seg);
                    for (t, g) in tw.chunks_exact(width).zip(gw.chunks_exact_mut(rows)) {
                        g[j0..j1].copy_from_slice(t);
                    }
                    grads.segment_mut(self.b_seg)[o0..o1].copy_from_slice(tb);
                    self.band_tiles[slot] = tile;
                }
                BackwardJob::Samples {
                    slot,
                    s0,
                    s1,
                    grad_col,
                    gx,
                } => {
                    grad_in.as_mut_slice()[s0 * in_len..s1 * in_len].copy_from_slice(&gx);
                    self.grad_cols[slot] = grad_col;
                    self.gx_chunks[slot] = gx;
                }
            }
        }
    }
}

impl Layer for Conv2d {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn param_specs(&self) -> Vec<ParamSpec> {
        let fan_in = self.geom.col_rows();
        let fan_out = self.out_channels * self.geom.k_h * self.geom.k_w;
        vec![
            ParamSpec {
                name: format!("{}.weight", self.name),
                len: self.weight_len(),
                init: Init::Xavier { fan_in, fan_out },
            },
            ParamSpec {
                name: format!("{}.bias", self.name),
                len: self.out_channels,
                init: Init::Constant(0.0),
            },
        ]
    }

    fn bind(&mut self, segments: &[usize]) {
        assert_eq!(segments.len(), 2, "conv expects weight+bias segments");
        self.w_seg = segments[0];
        self.b_seg = segments[1];
    }

    fn out_shape(&self) -> Vec<usize> {
        vec![self.out_channels, self.geom.out_h(), self.geom.out_w()]
    }

    fn forward_into(
        &mut self,
        params: &ParamArena,
        input: &Tensor,
        _train: bool,
        out: &mut Tensor,
        scratch: &mut TrainScratch,
    ) {
        self.forward_with_pool_into(pool(), params, input, out, scratch);
    }

    fn backward_into(
        &mut self,
        params: &ParamArena,
        grads: &mut ParamArena,
        grad_out: &Tensor,
        grad_in: &mut Tensor,
        scratch: &mut TrainScratch,
    ) {
        self.backward_with_pool_into(pool(), params, grads, grad_out, grad_in, scratch);
    }

    fn set_input_grad(&mut self, needed: bool) {
        self.input_grad = needed;
    }

    fn boxed_clone(&self) -> Box<dyn Layer> {
        // Caches are transient; cloning the configuration is enough.
        let mut c = self.clone();
        c.col_cache = Arc::default();
        c.y_cache = Vec::new();
        c.image_cache = Vec::new();
        c.w_shared = None;
        c.bias_shared = None;
        c.gy_shared = None;
        c.grad_cols = Vec::new();
        c.gx_chunks = Vec::new();
        c.band_tiles = Vec::new();
        Box::new(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::{build_arenas, check_layer};

    fn small_geom() -> Conv2dGeometry {
        Conv2dGeometry {
            in_channels: 2,
            in_h: 5,
            in_w: 5,
            k_h: 3,
            k_w: 3,
            stride: 1,
            pad: 1,
        }
    }

    #[test]
    fn out_shape_follows_geometry() {
        let l = Conv2d::new("c", small_geom(), 4);
        assert_eq!(l.out_shape(), vec![4, 5, 5]);
        assert_eq!(l.num_params(), 4 * 2 * 9 + 4);
    }

    #[test]
    fn identity_kernel_passes_input_through() {
        // 1 input channel, 1 output channel, 1x1 kernel with weight 1 → copy.
        let geom = Conv2dGeometry {
            in_channels: 1,
            in_h: 3,
            in_w: 3,
            k_h: 1,
            k_w: 1,
            stride: 1,
            pad: 0,
        };
        let mut l = Conv2d::new("c", geom, 1);
        let (mut params, _) = build_arenas(&mut l, 1);
        params.segment_mut(0)[0] = 1.0;
        let x = Tensor::from_vec([1, 1, 3, 3], (0..9).map(|i| i as f32).collect());
        let y = l.forward(&params, &x, true);
        assert_eq!(y.as_slice(), x.as_slice());
    }

    #[test]
    fn bias_is_added_per_channel() {
        let geom = Conv2dGeometry {
            in_channels: 1,
            in_h: 2,
            in_w: 2,
            k_h: 1,
            k_w: 1,
            stride: 1,
            pad: 0,
        };
        let mut l = Conv2d::new("c", geom, 2);
        let (mut params, _) = build_arenas(&mut l, 1);
        params.segment_mut(0).copy_from_slice(&[0.0, 0.0]); // zero kernels
        params.segment_mut(1).copy_from_slice(&[1.5, -2.0]);
        let x = Tensor::zeros([1, 1, 2, 2]);
        let y = l.forward(&params, &x, true);
        assert_eq!(&y.as_slice()[0..4], &[1.5; 4]);
        assert_eq!(&y.as_slice()[4..8], &[-2.0; 4]);
    }

    #[test]
    fn gradients_pass_finite_difference_check() {
        let mut l = Conv2d::new("c", small_geom(), 3);
        let (params, grads) = build_arenas(&mut l, 5);
        check_layer(&mut l, params, grads, &[2, 5, 5], 2, 1e-2, 11);
    }

    #[test]
    fn strided_padded_gradients_pass_check() {
        let geom = Conv2dGeometry {
            in_channels: 1,
            in_h: 7,
            in_w: 6,
            k_h: 3,
            k_w: 2,
            stride: 2,
            pad: 1,
        };
        let mut l = Conv2d::new("c", geom, 2);
        let (params, grads) = build_arenas(&mut l, 6);
        check_layer(&mut l, params, grads, &[1, 7, 6], 3, 1e-2, 12);
    }

    #[test]
    fn parallel_forward_is_bit_identical_to_serial() {
        // Large enough batch to clear PAR_FLOPS: rows = 4·9 = 36,
        // cols = 16·16 = 256, so flops = 2·48·16·256·36 ≈ 14.2M ≥ 8M.
        let geom = Conv2dGeometry {
            in_channels: 4,
            in_h: 16,
            in_w: 16,
            k_h: 3,
            k_w: 3,
            stride: 1,
            pad: 1,
        };
        let b = 48;
        let mut l = Conv2d::new("c", geom, 16);
        let (params, _) = build_arenas(&mut l, 3);
        let mut x = Tensor::zeros([b, 4, 16, 16]);
        easgd_tensor::Rng::new(21).fill_normal(x.as_mut_slice(), 0.0, 1.0);

        let serial_pool = WorkerPool::new(0); // threads() == 1 → serial loop
        let y_serial = l.forward_with_pool(&serial_pool, &params, &x);
        for workers in [1, 3] {
            let par_pool = WorkerPool::new(workers);
            let y_par = l.forward_with_pool(&par_pool, &params, &x);
            // Bit-exact, not approximate: the fan-out runs the same
            // per-sample kernel and writes back in sample order.
            assert_eq!(y_serial.as_slice(), y_par.as_slice(), "workers={workers}");
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Two forward/backward rounds of `l` on `pool`, the second over the
    /// recycled buffers with a rescaled output gradient, accumulating
    /// into a copy of `grads`. Returns every output, input gradient and
    /// the final parameter gradients, as bits.
    fn two_rounds(
        l: &mut Conv2d,
        pool: &WorkerPool,
        params: &ParamArena,
        grads: &ParamArena,
        x: &Tensor,
        gy: &Tensor,
    ) -> Vec<Vec<u32>> {
        let mut grads = grads.clone();
        let mut scratch = TrainScratch::default();
        let (mut out, mut gx) = (Tensor::default(), Tensor::default());
        let mut seen = Vec::new();
        for scale in [1.0, -0.5] {
            let dims = gy.shape().dims().to_vec();
            let gy = Tensor::from_vec(dims, gy.as_slice().iter().map(|v| v * scale).collect());
            l.forward_with_pool_into(pool, params, x, &mut out, &mut scratch);
            l.backward_with_pool_into(pool, params, &mut grads, &gy, &mut gx, &mut scratch);
            seen.push(bits(out.as_slice()));
            seen.push(bits(gx.as_slice()));
        }
        seen.push(bits(grads.as_slice()));
        seen
    }

    #[test]
    fn parallel_backward_is_bit_identical_to_serial() {
        let geom = |in_channels, hw, k, stride, pad| Conv2dGeometry {
            in_channels,
            in_h: hw,
            in_w: hw,
            k_h: k,
            k_w: k,
            stride,
            pad,
        };
        // (geometry, out channels, batch). Neither 2 nor 4 divides the
        // weight columns, the output channels (the bias split) or the
        // batch (the input-gradient chunks) of the first two. The first's
        // unsplit weight-gradient GEMM (2·3·81·256 flops) runs the direct
        // row loop over two bands; the strided, padded second's
        // (2·27·147·64) the blocked kernel over two or four; the third
        // (LeNet's conv1) has one band, so without an input gradient it
        // runs the serial loop.
        let cases = [
            (geom(9, 16, 3, 1, 1), 3, 71),
            (geom(3, 15, 7, 2, 3), 27, 37),
            (geom(1, 28, 5, 1, 0), 20, 32),
        ];
        for (geom, oc, b) in cases {
            let mut serial = Conv2d::new("c", geom, oc);
            let (params, mut grads) = build_arenas(&mut serial, 3);
            assert!(serial.fans_out(&WorkerPool::new(1), b), "case must fan out");
            let mut rng = easgd_tensor::Rng::new(oc as u64);
            // Backward accumulates: start from nonzero gradients.
            rng.fill_normal(grads.as_mut_slice(), 0.0, 1.0);
            let mut x = Tensor::zeros([b, geom.in_channels, geom.in_h, geom.in_w]);
            rng.fill_normal(x.as_mut_slice(), 0.0, 1.0);
            let mut gy = Tensor::zeros([b, oc, geom.out_h(), geom.out_w()]);
            rng.fill_normal(gy.as_mut_slice(), 0.0, 1.0);
            let want = two_rounds(&mut serial, &WorkerPool::new(0), &params, &grads, &x, &gy);
            for workers in [0, 1, 3] {
                let pool = WorkerPool::new(workers);
                let mut l = Conv2d::new("c", geom, oc);
                let _ = build_arenas(&mut l, 3);
                let got = two_rounds(&mut l, &pool, &params, &grads, &x, &gy);
                assert!(got == want, "oc={oc} workers={workers}: bits differ");

                // Without an input gradient: same outputs and parameter
                // gradients, and grad_in is never shaped.
                l.set_input_grad(false);
                let got = two_rounds(&mut l, &pool, &params, &grads, &x, &gy);
                assert!(got[1].is_empty() && got[3].is_empty(), "grad_in written");
                assert!(got[0] == want[0] && got[2] == want[2], "outputs differ");
                assert!(
                    got[4] == want[4],
                    "oc={oc} workers={workers}: param grads differ"
                );
            }
        }
    }

    #[test]
    fn gemm_class_threshold_matches_tensor() {
        // A 1×64 output over k: 2·64·k flops, straddling GEMM_SMALL_FLOPS
        // at k = 1024. The two kernel classes round differently, so
        // `gemm`'s bits show which one it dispatched to.
        for (k, blocked) in [(1023usize, false), (1024, true)] {
            assert_eq!(2 * 64 * k as u64 >= GEMM_SMALL_FLOPS, blocked);
            let mut rng = easgd_tensor::Rng::new(k as u64);
            let mut a = vec![0.0; k];
            let mut bt = vec![0.0; 64 * k];
            rng.fill_normal(&mut a, 0.0, 1.0);
            rng.fill_normal(&mut bt, 0.0, 1.0);
            let run = |mm: GemmFn| {
                let mut c = vec![0.0; 64];
                mm(
                    Transpose::No,
                    Transpose::Yes,
                    1,
                    64,
                    k,
                    1.0,
                    &a,
                    &bt,
                    0.0,
                    &mut c,
                );
                bits(&c)
            };
            let (naive, serial) = (run(gemm_naive), run(gemm_serial));
            assert_ne!(naive, serial, "k={k}: classes must differ to be told apart");
            let want = if blocked { serial } else { naive };
            assert_eq!(run(gemm), want, "k={k}");
        }
    }

    #[test]
    #[should_panic(expected = "invalid conv geometry")]
    fn oversized_kernel_is_rejected() {
        // 5×5 kernel cannot fit a 3×3 input with no padding; the old
        // `saturating_sub` geometry silently produced a 1×1 output here.
        let geom = Conv2dGeometry {
            in_channels: 1,
            in_h: 3,
            in_w: 3,
            k_h: 5,
            k_w: 5,
            stride: 1,
            pad: 0,
        };
        let _ = Conv2d::new("c", geom, 1);
    }

    #[test]
    #[should_panic(expected = "invalid conv geometry")]
    fn zero_stride_is_rejected() {
        let geom = Conv2dGeometry {
            in_channels: 1,
            in_h: 3,
            in_w: 3,
            k_h: 1,
            k_w: 1,
            stride: 0,
            pad: 0,
        };
        let _ = Conv2d::new("c", geom, 1);
    }

    #[test]
    fn batch_samples_are_independent() {
        let mut l = Conv2d::new("c", small_geom(), 2);
        let (params, _) = build_arenas(&mut l, 7);
        let mut rng = easgd_tensor::Rng::new(8);
        let mut x1 = Tensor::zeros([1, 2, 5, 5]);
        rng.fill_normal(x1.as_mut_slice(), 0.0, 1.0);
        let mut x2 = Tensor::zeros([1, 2, 5, 5]);
        rng.fill_normal(x2.as_mut_slice(), 0.0, 1.0);
        let y1 = l.forward(&params, &x1, true);
        let y2 = l.forward(&params, &x2, true);
        let mut both = Tensor::zeros([2, 2, 5, 5]);
        both.as_mut_slice()[..50].copy_from_slice(x1.as_slice());
        both.as_mut_slice()[50..].copy_from_slice(x2.as_slice());
        let y = l.forward(&params, &both, true);
        assert_eq!(&y.as_slice()[..y1.len()], y1.as_slice());
        assert_eq!(&y.as_slice()[y1.len()..], y2.as_slice());
    }
}
