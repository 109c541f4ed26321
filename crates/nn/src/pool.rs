//! Spatial pooling layers.

use crate::layer::{batch_of, Layer};
use easgd_tensor::{ParamArena, Tensor, TrainScratch};

/// Shared spatial bookkeeping for pooling windows.
#[derive(Clone, Copy, Debug)]
struct PoolGeom {
    channels: usize,
    in_h: usize,
    in_w: usize,
    size: usize,
    stride: usize,
}

impl PoolGeom {
    fn out_h(&self) -> usize {
        (self.in_h - self.size) / self.stride + 1
    }
    fn out_w(&self) -> usize {
        (self.in_w - self.size) / self.stride + 1
    }
    fn in_plane(&self) -> usize {
        self.in_h * self.in_w
    }
    fn out_plane(&self) -> usize {
        self.out_h() * self.out_w()
    }
}

/// Largest max-pool window side: [`max_pool_rows`] keeps the input rows
/// under an output row in a fixed array of this many slices.
const MAX_WINDOW: usize = 8;

/// Max pooling of one `[in_h, in_w]` plane `x` into `y`, writing each
/// output's routing into `arg` (DESIGN.md §17.4). One kernel serves
/// every window shape. The 2/2 window of LeNet and VGG calls it with
/// constant arguments, which the compiler unrolls: measured 3–4× faster
/// than the same kernel with a run-time shape on LeNet's planes.
fn max_pool_plane(g: &PoolGeom, x: &[f32], base: usize, y: &mut [f32], arg: &mut [usize]) {
    match (g.size, g.stride) {
        (2, 2) => max_pool_rows(g, 2, 2, x, base, y, arg),
        (size, stride) => max_pool_rows(g, size, stride, x, base, y, arg),
    }
}

/// The kernel of [`max_pool_plane`]. Each output takes the first
/// maximum of its window in row-major scan order — strict `>`, so ties
/// keep the earliest element and a NaN neither displaces nor is
/// displaced by a later element — and `arg` receives that element's
/// plane index plus `base`. The input rows under an output row are
/// sliced once, and each window element costs a compare and two
/// selects, not a branch.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn max_pool_rows(
    g: &PoolGeom,
    size: usize,
    stride: usize,
    x: &[f32],
    base: usize,
    y: &mut [f32],
    arg: &mut [usize],
) {
    let (ow, in_w) = (g.out_w(), g.in_w);
    // Input columns an output row's windows cover.
    let span = (ow - 1) * stride + size;
    let rows = y.chunks_exact_mut(ow).zip(arg.chunks_exact_mut(ow));
    for (oy, (y_row, arg_row)) in rows.enumerate() {
        let top = oy * stride * in_w;
        let window_rows: [&[f32]; MAX_WINDOW] = std::array::from_fn(|ky| {
            if ky < size {
                &x[top + ky * in_w..][..span]
            } else {
                &[]
            }
        });
        let window_rows = &window_rows[..size];
        for (ox, (best_out, at_out)) in y_row.iter_mut().zip(arg_row.iter_mut()).enumerate() {
            let x0 = ox * stride;
            let mut best = window_rows[0][x0];
            let mut at = x0;
            for (ky, row) in window_rows.iter().enumerate() {
                for (kx, &v) in row[x0..x0 + size].iter().enumerate() {
                    let gt = v > best;
                    best = if gt { v } else { best };
                    at = if gt { ky * in_w + x0 + kx } else { at };
                }
            }
            *best_out = best;
            *at_out = base + top + at;
        }
    }
}

/// Max pooling over square windows.
#[derive(Clone, Debug)]
pub struct MaxPool2d {
    name: String,
    geom: PoolGeom,
    /// For each output element of the last train-mode batch: the flat
    /// input index of its maximum (the routing for backward). `routed`
    /// is false until a train-mode forward filled it and after any eval
    /// forward, which skips it.
    argmax: Vec<usize>,
    routed: bool,
}

impl MaxPool2d {
    /// Max pooling on `[channels, in_h, in_w]` maps with the given window
    /// `size` and `stride`.
    ///
    /// # Panics
    /// Panics if the window doesn't fit the input or is wider than 8.
    pub fn new(
        name: impl Into<String>,
        channels: usize,
        in_h: usize,
        in_w: usize,
        size: usize,
        stride: usize,
    ) -> Self {
        assert!(size > 0 && stride > 0, "pool size/stride must be > 0");
        assert!(in_h >= size && in_w >= size, "pool window exceeds input");
        assert!(
            size <= MAX_WINDOW,
            "max-pool window {size} exceeds the kernel's {MAX_WINDOW}"
        );
        Self {
            name: name.into(),
            geom: PoolGeom {
                channels,
                in_h,
                in_w,
                size,
                stride,
            },
            argmax: Vec::new(),
            routed: false,
        }
    }
}

impl Layer for MaxPool2d {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn out_shape(&self) -> Vec<usize> {
        vec![self.geom.channels, self.geom.out_h(), self.geom.out_w()]
    }

    fn forward_into(
        &mut self,
        _params: &ParamArena,
        input: &Tensor,
        train: bool,
        out: &mut Tensor,
        scratch: &mut TrainScratch,
    ) {
        let g = self.geom;
        let b = batch_of(input);
        let in_len = g.channels * g.in_plane();
        assert_eq!(input.len(), b * in_len, "maxpool input shape mismatch");
        let (oh, ow) = (g.out_h(), g.out_w());
        let out_len = g.channels * g.out_plane();
        scratch.shape_tensor(out, &[b, g.channels, oh, ow]);
        // Train forwards keep each output's routing for backward; eval
        // forwards run the same kernel with the first plane's slots as
        // throwaway routing.
        self.routed = train;
        let routing_len = if train { b * out_len } else { g.out_plane() };
        scratch.ensure_usize(&mut self.argmax, routing_len);
        let planes = input.as_slice().chunks_exact(g.in_plane());
        let outs = out.as_mut_slice().chunks_exact_mut(g.out_plane());
        for (p, (x, y)) in planes.zip(outs).enumerate() {
            let arg = if train {
                &mut self.argmax[p * g.out_plane()..(p + 1) * g.out_plane()]
            } else {
                &mut self.argmax[..]
            };
            max_pool_plane(&g, x, p * g.in_plane(), y, arg);
        }
    }

    fn backward_into(
        &mut self,
        _params: &ParamArena,
        _grads: &mut ParamArena,
        grad_out: &Tensor,
        grad_in: &mut Tensor,
        scratch: &mut TrainScratch,
    ) {
        let g = &self.geom;
        assert!(
            self.routed,
            "maxpool '{}': backward needs a train-mode forward first \
             (eval forwards keep no argmax routing)",
            self.name
        );
        assert_eq!(
            grad_out.len(),
            self.argmax.len(),
            "backward called with mismatched batch"
        );
        let b = grad_out.len() / (g.channels * g.out_plane());
        // The scatter below accumulates, so the buffer must start zeroed.
        scratch.shape_tensor_zeroed(grad_in, &[b, g.channels, g.in_h, g.in_w]);
        let gx = grad_in.as_mut_slice();
        for (o, &src) in self.argmax.iter().enumerate() {
            gx[src] += grad_out.as_slice()[o];
        }
    }

    fn boxed_clone(&self) -> Box<dyn Layer> {
        let mut c = self.clone();
        c.argmax = Vec::new();
        c.routed = false;
        Box::new(c)
    }
}

/// Average pooling over square windows.
#[derive(Clone, Debug)]
pub struct AvgPool2d {
    name: String,
    geom: PoolGeom,
    last_batch: usize,
}

impl AvgPool2d {
    /// Average pooling on `[channels, in_h, in_w]` maps.
    ///
    /// # Panics
    /// Panics if the window doesn't fit the input.
    pub fn new(
        name: impl Into<String>,
        channels: usize,
        in_h: usize,
        in_w: usize,
        size: usize,
        stride: usize,
    ) -> Self {
        assert!(size > 0 && stride > 0, "pool size/stride must be > 0");
        assert!(in_h >= size && in_w >= size, "pool window exceeds input");
        Self {
            name: name.into(),
            geom: PoolGeom {
                channels,
                in_h,
                in_w,
                size,
                stride,
            },
            last_batch: 0,
        }
    }
}

impl Layer for AvgPool2d {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn out_shape(&self) -> Vec<usize> {
        vec![self.geom.channels, self.geom.out_h(), self.geom.out_w()]
    }

    fn forward_into(
        &mut self,
        _params: &ParamArena,
        input: &Tensor,
        _train: bool,
        out: &mut Tensor,
        scratch: &mut TrainScratch,
    ) {
        let g = self.geom;
        let b = batch_of(input);
        let in_len = g.channels * g.in_plane();
        assert_eq!(input.len(), b * in_len, "avgpool input shape mismatch");
        self.last_batch = b;
        let (oh, ow) = (g.out_h(), g.out_w());
        let norm = 1.0 / (g.size * g.size) as f32;
        scratch.shape_tensor(out, &[b, g.channels, oh, ow]);
        let x = input.as_slice();
        let y = out.as_mut_slice();
        let out_len = g.channels * g.out_plane();
        for s in 0..b {
            for c in 0..g.channels {
                let plane_off = s * in_len + c * g.in_plane();
                let out_off = s * out_len + c * g.out_plane();
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = 0.0;
                        for ky in 0..g.size {
                            for kx in 0..g.size {
                                acc += x[plane_off
                                    + (oy * g.stride + ky) * g.in_w
                                    + (ox * g.stride + kx)];
                            }
                        }
                        y[out_off + oy * ow + ox] = acc * norm;
                    }
                }
            }
        }
    }

    fn backward_into(
        &mut self,
        _params: &ParamArena,
        _grads: &mut ParamArena,
        grad_out: &Tensor,
        grad_in: &mut Tensor,
        scratch: &mut TrainScratch,
    ) {
        let g = &self.geom;
        let b = self.last_batch;
        assert_eq!(
            grad_out.len(),
            b * g.channels * g.out_plane(),
            "backward called with mismatched batch"
        );
        let (oh, ow) = (g.out_h(), g.out_w());
        let norm = 1.0 / (g.size * g.size) as f32;
        // Overlapping windows accumulate, so the buffer must start zeroed.
        scratch.shape_tensor_zeroed(grad_in, &[b, g.channels, g.in_h, g.in_w]);
        let gx = grad_in.as_mut_slice();
        let gy = grad_out.as_slice();
        let in_len = g.channels * g.in_plane();
        let out_len = g.channels * g.out_plane();
        for s in 0..b {
            for c in 0..g.channels {
                let plane_off = s * in_len + c * g.in_plane();
                let out_off = s * out_len + c * g.out_plane();
                for oy in 0..oh {
                    for ox in 0..ow {
                        let gv = gy[out_off + oy * ow + ox] * norm;
                        for ky in 0..g.size {
                            for kx in 0..g.size {
                                gx[plane_off
                                    + (oy * g.stride + ky) * g.in_w
                                    + (ox * g.stride + kx)] += gv;
                            }
                        }
                    }
                }
            }
        }
    }

    fn boxed_clone(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::{build_arenas, check_layer};

    /// The original bounds-checked, branching max-pool loop over a batch
    /// of planes, kept as the oracle for [`max_pool_plane`]: outputs and
    /// flat argmax routing.
    fn reference_max_pool(g: &PoolGeom, x: &[f32]) -> (Vec<f32>, Vec<usize>) {
        let planes = x.len() / g.in_plane();
        let (oh, ow) = (g.out_h(), g.out_w());
        let mut y = vec![0.0; planes * g.out_plane()];
        let mut argmax = vec![0; y.len()];
        for p in 0..planes {
            let plane_off = p * g.in_plane();
            let out_off = p * g.out_plane();
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut best_idx = plane_off + (oy * g.stride) * g.in_w + ox * g.stride;
                    let mut best = x[best_idx];
                    for ky in 0..g.size {
                        for kx in 0..g.size {
                            let idx =
                                plane_off + (oy * g.stride + ky) * g.in_w + (ox * g.stride + kx);
                            if x[idx] > best {
                                best = x[idx];
                                best_idx = idx;
                            }
                        }
                    }
                    y[out_off + oy * ow + ox] = best;
                    argmax[out_off + oy * ow + ox] = best_idx;
                }
            }
        }
        (y, argmax)
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn maxpool_kernel_matches_reference_loop() {
        // (channels, in_h, in_w, size, stride): LeNet's 2/2; odd 7×7
        // extents under a 2/2 window; AlexNet-CIFAR's overlapping 3/2 at
        // both its pool sizes; a 3/1; the 1/1 identity; the widest window.
        let shapes = [
            (3, 8, 8, 2, 2),
            (2, 7, 7, 2, 2),
            (2, 32, 32, 3, 2),
            (2, 15, 15, 3, 2),
            (1, 5, 6, 3, 1),
            (1, 4, 4, 1, 1),
            (1, 11, 10, 8, 2),
        ];
        let mut rng = easgd_tensor::Rng::new(5);
        for (channels, in_h, in_w, size, stride) in shapes {
            let mut l = MaxPool2d::new("p", channels, in_h, in_w, size, stride);
            let g = l.geom;
            let mut x = Tensor::zeros([3, channels, in_h, in_w]);
            rng.fill_normal(x.as_mut_slice(), 0.0, 1.0);
            let normal = x.as_slice().to_vec();
            // Quantized to a few levels: most windows hold ties.
            let ties: Vec<f32> = normal.iter().map(|v| (v * 1.5).round()).collect();
            // NaNs at the first element of some windows and inside others.
            let nans: Vec<f32> = ties
                .iter()
                .enumerate()
                .map(|(i, &v)| if i % 7 == 0 { f32::NAN } else { v })
                .collect();
            let flat = vec![-0.0; normal.len()];
            for data in [normal, ties, nans, flat] {
                x.as_mut_slice().copy_from_slice(&data);
                let (want_y, want_arg) = reference_max_pool(&g, &data);
                for train in [true, false] {
                    let mut scratch = TrainScratch::default();
                    let mut y = Tensor::default();
                    l.forward_into(&ParamArena::flat(0), &x, train, &mut y, &mut scratch);
                    assert_eq!(bits(y.as_slice()), bits(&want_y), "{:?} train={train}", g);
                    if train {
                        assert_eq!(l.argmax, want_arg, "{g:?}: routing differs");
                    }
                }
            }
        }
    }

    #[test]
    fn maxpool_picks_window_maxima() {
        let mut l = MaxPool2d::new("p", 1, 4, 4, 2, 2);
        let x = Tensor::from_vec([1, 1, 4, 4], (0..16).map(|i| i as f32).collect());
        let y = l.forward(&ParamArena::flat(0), &x, true);
        assert_eq!(y.as_slice(), &[5., 7., 13., 15.]);
    }

    #[test]
    fn maxpool_backward_routes_to_argmax() {
        let mut l = MaxPool2d::new("p", 1, 2, 2, 2, 2);
        let x = Tensor::from_vec([1, 1, 2, 2], vec![1., 9., 3., 4.]);
        let _ = l.forward(&ParamArena::flat(0), &x, true);
        let gy = Tensor::from_vec([1, 1, 1, 1], vec![5.0]);
        let mut g = ParamArena::flat(0);
        let gx = l.backward(&ParamArena::flat(0), &mut g, &gy);
        assert_eq!(gx.as_slice(), &[0., 5., 0., 0.]);
    }

    #[test]
    #[should_panic(expected = "train-mode forward")]
    fn maxpool_backward_after_eval_forward_panics() {
        let mut l = MaxPool2d::new("p", 1, 2, 2, 2, 2);
        let x = Tensor::from_vec([1, 1, 2, 2], vec![1., 9., 3., 4.]);
        let _ = l.forward(&ParamArena::flat(0), &x, true);
        // Same batch shape, so only the explicit check stops backward
        // from routing through the train forward's stale argmax.
        let _ = l.forward(&ParamArena::flat(0), &x, false);
        let gy = Tensor::from_vec([1, 1, 1, 1], vec![5.0]);
        let _ = l.backward(&ParamArena::flat(0), &mut ParamArena::flat(0), &gy);
    }

    #[test]
    fn maxpool_gradcheck() {
        let mut l = MaxPool2d::new("p", 2, 6, 6, 2, 2);
        let (params, grads) = build_arenas(&mut l, 1);
        // Max pooling is piecewise linear; random normal inputs avoid ties.
        check_layer(&mut l, params, grads, &[2, 6, 6], 2, 1e-2, 3);
    }

    #[test]
    fn avgpool_averages() {
        let mut l = AvgPool2d::new("p", 1, 2, 2, 2, 2);
        let x = Tensor::from_vec([1, 1, 2, 2], vec![1., 2., 3., 6.]);
        let y = l.forward(&ParamArena::flat(0), &x, true);
        assert_eq!(y.as_slice(), &[3.0]);
    }

    #[test]
    fn avgpool_gradcheck() {
        let mut l = AvgPool2d::new("p", 3, 4, 4, 2, 2);
        let (params, grads) = build_arenas(&mut l, 2);
        check_layer(&mut l, params, grads, &[3, 4, 4], 2, 1e-2, 4);
    }

    #[test]
    fn overlapping_stride_supported() {
        // AlexNet uses overlapping 3x3/stride-2 pooling.
        let mut l = MaxPool2d::new("p", 1, 5, 5, 3, 2);
        let x = Tensor::from_vec([1, 1, 5, 5], (0..25).map(|i| i as f32).collect());
        let y = l.forward(&ParamArena::flat(0), &x, true);
        assert_eq!(l.out_shape(), vec![1, 2, 2]);
        assert_eq!(y.as_slice(), &[12., 14., 22., 24.]);
    }

    #[test]
    #[should_panic(expected = "window exceeds input")]
    fn rejects_oversized_window() {
        let _ = MaxPool2d::new("p", 1, 2, 2, 3, 1);
    }
}
