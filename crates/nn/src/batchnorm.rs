//! Batch normalization (Ioffe & Szegedy 2015) — per-channel for feature
//! maps, per-feature for dense activations.
//!
//! Not used by the paper's 2017 Caffe models, but inseparable from the
//! batch-size discussion (§7.2): BN couples the loss to the batch
//! statistics, which is one reason large-batch regimes need retuning.
//! Included as an extension layer with full analytic backward and
//! running-statistics inference.

use crate::layer::{batch_of, Init, Layer, ParamSpec};
use easgd_tensor::{ParamArena, Tensor, TrainScratch};

/// Batch normalization over `[B, C, …spatial]` inputs: statistics per
/// channel across batch and spatial positions, learnable scale `γ` and
/// shift `β`.
pub struct BatchNorm {
    name: String,
    /// Channels (normalization groups).
    channels: usize,
    /// Spatial elements per channel (1 for dense activations).
    plane: usize,
    /// Numerical-stability epsilon.
    pub eps: f32,
    /// Running-statistics momentum (inference uses the running values).
    pub momentum: f32,
    gamma_seg: usize,
    beta_seg: usize,
    running_mean: Vec<f32>,
    running_var: Vec<f32>,
    // Forward cache for backward.
    x_hat: Vec<f32>,
    batch_mean: Vec<f32>,
    batch_inv_std: Vec<f32>,
    last_batch: usize,
    last_train: bool,
}

impl BatchNorm {
    /// BN over per-sample shape `[channels, …spatial]`; `plane` is the
    /// product of the spatial dims (1 for `[features]`).
    pub fn new(name: impl Into<String>, channels: usize, plane: usize) -> Self {
        assert!(channels > 0 && plane > 0, "batchnorm dims must be positive");
        Self {
            name: name.into(),
            channels,
            plane,
            eps: 1e-5,
            momentum: 0.1,
            gamma_seg: usize::MAX,
            beta_seg: usize::MAX,
            running_mean: vec![0.0; channels],
            running_var: vec![1.0; channels],
            x_hat: Vec::new(),
            batch_mean: vec![0.0; channels],
            batch_inv_std: vec![0.0; channels],
            last_batch: 0,
            last_train: false,
        }
    }

    fn stat_count(&self, batch: usize) -> f32 {
        (batch * self.plane) as f32
    }
}

impl Layer for BatchNorm {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn param_specs(&self) -> Vec<ParamSpec> {
        vec![
            ParamSpec {
                name: format!("{}.gamma", self.name),
                len: self.channels,
                init: Init::Constant(1.0),
            },
            ParamSpec {
                name: format!("{}.beta", self.name),
                len: self.channels,
                init: Init::Constant(0.0),
            },
        ]
    }

    fn bind(&mut self, segments: &[usize]) {
        assert_eq!(segments.len(), 2, "batchnorm expects gamma+beta segments");
        self.gamma_seg = segments[0];
        self.beta_seg = segments[1];
    }

    fn out_shape(&self) -> Vec<usize> {
        vec![self.channels, self.plane]
    }

    fn forward_into(
        &mut self,
        params: &ParamArena,
        input: &Tensor,
        train: bool,
        out: &mut Tensor,
        scratch: &mut TrainScratch,
    ) {
        let b = batch_of(input);
        let per = self.channels * self.plane;
        assert_eq!(input.len(), b * per, "batchnorm input shape mismatch");
        self.last_batch = b;
        self.last_train = train;
        let gamma = params.segment(self.gamma_seg);
        let beta = params.segment(self.beta_seg);
        let x = input.as_slice();
        let n = self.stat_count(b);
        // Every element of out and x_hat is assigned in the channel loop,
        // so neither buffer needs zeroing.
        scratch.shape_tensor(out, input.shape().dims());
        scratch.ensure_f32(&mut self.x_hat, input.len());

        for c in 0..self.channels {
            let (mean, var) = if train {
                let mut sum = 0.0f64;
                let mut sumsq = 0.0f64;
                for s in 0..b {
                    for p in 0..self.plane {
                        let v = x[s * per + c * self.plane + p] as f64;
                        sum += v;
                        sumsq += v * v;
                    }
                }
                let mean = (sum / n as f64) as f32;
                let var = ((sumsq / n as f64) as f32 - mean * mean).max(0.0);
                // Update running statistics (exponential moving average).
                self.running_mean[c] =
                    (1.0 - self.momentum) * self.running_mean[c] + self.momentum * mean;
                self.running_var[c] =
                    (1.0 - self.momentum) * self.running_var[c] + self.momentum * var;
                (mean, var)
            } else {
                (self.running_mean[c], self.running_var[c])
            };
            let inv_std = 1.0 / (var + self.eps).sqrt();
            self.batch_mean[c] = mean;
            self.batch_inv_std[c] = inv_std;
            for s in 0..b {
                for p in 0..self.plane {
                    let idx = s * per + c * self.plane + p;
                    let xh = (x[idx] - mean) * inv_std;
                    self.x_hat[idx] = xh;
                    out.as_mut_slice()[idx] = gamma[c] * xh + beta[c];
                }
            }
        }
    }

    fn backward_into(
        &mut self,
        params: &ParamArena,
        grads: &mut ParamArena,
        grad_out: &Tensor,
        grad_in: &mut Tensor,
        scratch: &mut TrainScratch,
    ) {
        let b = self.last_batch;
        let per = self.channels * self.plane;
        assert_eq!(grad_out.len(), b * per, "backward before forward");
        assert!(
            self.last_train,
            "batchnorm backward requires a training-mode forward"
        );
        let gamma = params.segment(self.gamma_seg);
        let gy = grad_out.as_slice();
        let n = self.stat_count(b);
        // Every element of grad_in is assigned in the channel loop.
        scratch.shape_tensor(grad_in, grad_out.shape().dims());

        for (c, &gamma_c) in gamma.iter().enumerate().take(self.channels) {
            // Accumulate dγ, dβ and the two reduction terms of the BN
            // backward formula.
            let mut dgamma = 0.0f32;
            let mut dbeta = 0.0f32;
            for s in 0..b {
                for p in 0..self.plane {
                    let idx = s * per + c * self.plane + p;
                    dgamma += gy[idx] * self.x_hat[idx];
                    dbeta += gy[idx];
                }
            }
            grads.segment_mut(self.gamma_seg)[c] += dgamma;
            grads.segment_mut(self.beta_seg)[c] += dbeta;
            // dx = γ·inv_std/n · (n·dy − Σdy − x̂·Σ(dy·x̂))
            let scale = gamma_c * self.batch_inv_std[c] / n;
            for s in 0..b {
                for p in 0..self.plane {
                    let idx = s * per + c * self.plane + p;
                    grad_in.as_mut_slice()[idx] =
                        scale * (n * gy[idx] - dbeta - self.x_hat[idx] * dgamma);
                }
            }
        }
    }

    fn boxed_clone(&self) -> Box<dyn Layer> {
        Box::new(BatchNorm {
            name: self.name.clone(),
            channels: self.channels,
            plane: self.plane,
            eps: self.eps,
            momentum: self.momentum,
            gamma_seg: self.gamma_seg,
            beta_seg: self.beta_seg,
            running_mean: self.running_mean.clone(),
            running_var: self.running_var.clone(),
            x_hat: Vec::new(),
            batch_mean: vec![0.0; self.channels],
            batch_inv_std: vec![0.0; self.channels],
            last_batch: 0,
            last_train: false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::build_arenas;
    use easgd_tensor::Rng;

    #[test]
    fn training_output_is_normalized() {
        let mut l = BatchNorm::new("bn", 2, 4);
        let (params, _) = build_arenas(&mut l, 1);
        let mut rng = Rng::new(2);
        let mut x = Tensor::zeros([8, 2, 4]);
        rng.fill_normal(x.as_mut_slice(), 3.0, 2.0);
        let y = l.forward(&params, &x, true);
        // Per channel: mean ≈ 0, var ≈ 1 (γ=1, β=0 at init).
        for c in 0..2 {
            let mut vals = Vec::new();
            for s in 0..8 {
                for p in 0..4 {
                    vals.push(y.as_slice()[s * 8 + c * 4 + p]);
                }
            }
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            let var: f32 =
                vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / vals.len() as f32;
            assert!(mean.abs() < 1e-4, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "var {var}");
        }
    }

    #[test]
    fn gamma_beta_scale_and_shift() {
        let mut l = BatchNorm::new("bn", 1, 2);
        let (mut params, _) = build_arenas(&mut l, 1);
        params.segment_mut(0)[0] = 2.0; // γ
        params.segment_mut(1)[0] = 5.0; // β
        let x = Tensor::from_vec([2, 1, 2], vec![-1.0, -1.0, 1.0, 1.0]);
        let y = l.forward(&params, &x, true);
        // x̂ = ±1, so y = ±2 + 5.
        for v in y.as_slice() {
            assert!((v - 3.0).abs() < 1e-4 || (v - 7.0).abs() < 1e-4, "{v}");
        }
    }

    #[test]
    fn inference_uses_running_stats() {
        let mut l = BatchNorm::new("bn", 1, 1);
        l.momentum = 1.0; // running stats = last batch stats
        let (params, _) = build_arenas(&mut l, 1);
        let x = Tensor::from_vec([4, 1, 1], vec![0.0, 2.0, 4.0, 6.0]);
        let _ = l.forward(&params, &x, true); // mean 3, var 5
        let probe = Tensor::from_vec([1, 1, 1], vec![3.0]);
        let y = l.forward(&params, &probe, false);
        assert!(y.as_slice()[0].abs() < 1e-4, "{}", y.as_slice()[0]);
    }

    #[test]
    fn gradients_pass_finite_difference_check() {
        use crate::gradcheck::check_layer;
        let mut l = BatchNorm::new("bn", 3, 4);
        let (mut params, grads) = build_arenas(&mut l, 3);
        // Non-trivial γ/β so all gradient paths are exercised; train-mode
        // gradcheck because BN's backward is defined against the batch
        // statistics.
        let mut rng = Rng::new(4);
        rng.fill_normal(params.segment_mut(0), 1.0, 0.2);
        rng.fill_normal(params.segment_mut(1), 0.0, 0.2);
        check_layer(&mut l, params, grads, &[3, 4], 4, 3e-2, 5);
    }

    #[test]
    fn clone_carries_running_stats() {
        let mut l = BatchNorm::new("bn", 1, 1);
        l.momentum = 1.0;
        let (params, _) = build_arenas(&mut l, 6);
        let x = Tensor::from_vec([2, 1, 1], vec![10.0, 14.0]);
        let _ = l.forward(&params, &x, true);
        let mut c = l.boxed_clone();
        let probe = Tensor::from_vec([1, 1, 1], vec![12.0]);
        let y = c.forward(&params, &probe, false);
        assert!(y.as_slice()[0].abs() < 1e-3);
    }
}
