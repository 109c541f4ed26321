//! Layer probes for the traced runs: the kernel shapes the workloads
//! run (`tensor`), one forward/backward per `nn` layer, and eval-mode
//! inference at the serving batch sizes. Each probe times repeated calls
//! into the layer's public functions and reports the median.

use crate::stats::{median, Report};
use easgd_nn::{Conv2d, Dense, Flatten, Layer, MaxPool2d, Network, Relu, SoftmaxCrossEntropy};
use easgd_serve::InferSession;
use easgd_tensor::{
    gemm, gemm_rowstable, im2col, Conv2dGeometry, ParamArena, Rng, Tensor, TrainScratch, Transpose,
};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Times `f` until at least `min_reps` calls and `budget` have passed;
/// returns the per-call times in milliseconds.
pub fn time_calls(min_reps: usize, budget: Duration, mut f: impl FnMut()) -> Vec<f64> {
    let start = Instant::now();
    let mut ms = Vec::new();
    while ms.len() < min_reps || start.elapsed() < budget {
        let t = Instant::now();
        f();
        ms.push(t.elapsed().as_secs_f64() * 1e3);
        if ms.len() >= 10 * min_reps.max(1) && start.elapsed() >= budget {
            break;
        }
    }
    ms
}

fn random(rng: &mut Rng, n: usize) -> Vec<f32> {
    (0..n).map(|_| rng.uniform_in(-1.0, 1.0)).collect()
}

/// One GEMM shape a workload runs, as `(metric suffix, ta, tb, m, n, k,
/// row-stable eval kernel)`.
type GemmShape = (
    &'static str,
    Transpose,
    Transpose,
    usize,
    usize,
    usize,
    bool,
);

const GEMMS: [GemmShape; 6] = [
    // LeNet conv2 forward per sample: W[50×500] · col[500×64].
    (
        "lenet_conv2_fwd",
        Transpose::No,
        Transpose::No,
        50,
        64,
        500,
        false,
    ),
    // LeNet fc1 forward at the training batch: X[32×800] · Wᵀ.
    (
        "lenet_fc1_fwd",
        Transpose::No,
        Transpose::Yes,
        32,
        500,
        800,
        false,
    ),
    // MLP fc2 (2048→2048) forward at batch 4: the skinny m = 4 nest.
    (
        "wide_fc2_fwd_m4",
        Transpose::No,
        Transpose::Yes,
        4,
        2048,
        2048,
        false,
    ),
    // MLP fc2 weight gradient: gradYᵀ[2048×4] · X[4×2048], k = 4.
    (
        "wide_fc2_wgrad_k4",
        Transpose::Yes,
        Transpose::No,
        2048,
        2048,
        4,
        false,
    ),
    // Served LeNet fc1 (800→500) at batch 1 and at the cap of 8.
    (
        "serve_fc1_m1",
        Transpose::No,
        Transpose::Yes,
        1,
        500,
        800,
        true,
    ),
    (
        "serve_fc1_m8",
        Transpose::No,
        Transpose::Yes,
        8,
        500,
        800,
        true,
    ),
];

/// `tensor.gemm_gflops.*` and `tensor.im2col_ms`.
pub fn tensor_kernels(report: &mut Report, seed: u64) {
    let mut rng = Rng::new(seed ^ 0x6E44);
    for (name, ta, tb, m, n, k, rowstable) in GEMMS {
        let a = random(&mut rng, m * k);
        let b = random(&mut rng, k * n);
        let mut c = vec![0.0f32; m * n];
        let kernel = if rowstable { gemm_rowstable } else { gemm };
        let ms = time_calls(20, Duration::from_millis(60), || {
            kernel(
                ta,
                tb,
                m,
                n,
                k,
                1.0,
                black_box(&a),
                black_box(&b),
                0.0,
                &mut c,
            );
            black_box(&c);
        });
        let gflops: Vec<f64> = ms
            .iter()
            .map(|t| 2.0 * (m * n * k) as f64 / (t * 1e-3) / 1e9)
            .collect();
        report.median(format!("tensor.gemm_gflops.{name}"), "GFLOP/s", gflops);
    }
    // im2col of LeNet conv2 (20×12×12 → 500×64) over one training batch.
    let geom = Conv2dGeometry {
        in_channels: 20,
        in_h: 12,
        in_w: 12,
        k_h: 5,
        k_w: 5,
        stride: 1,
        pad: 0,
    };
    let images: Vec<Vec<f32>> = (0..32)
        .map(|_| random(&mut rng, geom.input_len()))
        .collect();
    let mut col = vec![0.0f32; geom.col_rows() * geom.col_cols()];
    let ms = time_calls(20, Duration::from_millis(60), || {
        for img in &images {
            im2col(&geom, black_box(img), &mut col);
        }
        black_box(&col);
    });
    report.median("tensor.im2col_ms", "ms", ms);
}

/// The layer stack of a model, built from the public layer types with the
/// same shapes and names `NetworkBuilder` gives it, and the parameters of
/// `proto` copied in.
struct LayerStack {
    layers: Vec<Box<dyn Layer>>,
    params: ParamArena,
    grads: ParamArena,
}

impl LayerStack {
    fn new(mut layers: Vec<Box<dyn Layer>>, proto: &Network) -> Self {
        let mut builder = ParamArena::builder();
        let bindings: Vec<Vec<usize>> = layers
            .iter()
            .map(|l| {
                l.param_specs()
                    .into_iter()
                    .map(|s| builder.push(s.name, s.len))
                    .collect()
            })
            .collect();
        let mut params = builder.build();
        for (layer, segs) in layers.iter_mut().zip(&bindings) {
            layer.bind(segs);
        }
        params
            .as_mut_slice()
            .copy_from_slice(proto.params().as_slice());
        let grads = ParamArena::like(&params);
        Self {
            layers,
            params,
            grads,
        }
    }

    fn lenet(proto: &Network) -> Self {
        let conv = |name: &str, c, hw, out| -> Box<dyn Layer> {
            let geom = Conv2dGeometry {
                in_channels: c,
                in_h: hw,
                in_w: hw,
                k_h: 5,
                k_w: 5,
                stride: 1,
                pad: 0,
            };
            Box::new(Conv2d::new(name, geom, out))
        };
        Self::new(
            vec![
                conv("conv1", 1, 28, 20),
                Box::new(MaxPool2d::new("pool2", 20, 24, 24, 2, 2)),
                conv("conv3", 20, 12, 50),
                Box::new(MaxPool2d::new("pool4", 50, 8, 8, 2, 2)),
                Box::new(Flatten::new("flatten5", vec![50, 4, 4])),
                Box::new(Dense::new("fc6", 800, 500)),
                Box::new(Relu::new("relu7", vec![500])),
                Box::new(Dense::new("fc8", 500, 10)),
            ],
            proto,
        )
    }

    fn wide(proto: &Network) -> Self {
        Self::new(
            vec![
                Box::new(Dense::new("fc1", 784, 2048)),
                Box::new(Relu::new("relu2", vec![2048])),
                Box::new(Dense::new("fc3", 2048, 2048)),
                Box::new(Relu::new("relu4", vec![2048])),
                Box::new(Dense::new("fc5", 2048, 10)),
            ],
            proto,
        )
    }
}

/// The `nn` layer names the probe reports, per model.
const LENET_LAYERS: [&str; 8] = [
    "conv1", "pool2", "conv3", "pool4", "flatten5", "fc6", "relu7", "fc8",
];
const WIDE_LAYERS: [&str; 5] = ["fc1", "relu2", "fc3", "relu4", "fc5"];

/// Which model a workload trains or serves.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Model {
    Lenet,
    Wide,
}

impl Model {
    pub fn tag(self) -> &'static str {
        match self {
            Model::Lenet => "lenet",
            Model::Wide => "wide",
        }
    }

    pub fn build(self, seed: u64) -> Network {
        match self {
            Model::Lenet => easgd_nn::models::lenet(seed),
            Model::Wide => easgd_nn::models::mlp(784, &[2048, 2048], 10, seed),
        }
    }

    pub fn layers(self) -> &'static [&'static str] {
        match self {
            Model::Lenet => &LENET_LAYERS,
            Model::Wide => &WIDE_LAYERS,
        }
    }
}

/// Per-layer medians of one step of `model` on the batch in `pixels`
/// (`nn.layer.<model>.<layer>.{fwd,bwd}_ms`, the loss as
/// `nn.layer.<model>.loss_ms`). A training step (`train`) runs forward,
/// loss and backward and is compared against the whole pooled step,
/// `Network::forward_backward_from_slice`; an eval step runs forward
/// only (backward and loss report 0: serving runs neither) and is
/// compared against `InferSession::infer`. Returns `(Σ layers ms, whole
/// step ms, pooled allocations per warm step)`.
pub fn nn_layers(
    report: &mut Report,
    model: Model,
    proto: &Network,
    pixels: &[f32],
    labels: &[usize],
    train: bool,
) -> (f64, f64, f64) {
    let batch = labels.len();
    let mut stack = match model {
        Model::Lenet => LayerStack::lenet(proto),
        Model::Wide => LayerStack::wide(proto),
    };
    let mut dims = vec![batch];
    dims.extend_from_slice(proto.input_shape());
    let x = Tensor::from_vec(dims, pixels.to_vec());
    let n = stack.layers.len();
    let mut acts: Vec<Tensor> = (0..n).map(|_| Tensor::default()).collect();
    let mut grads_in: Vec<Tensor> = (0..n).map(|_| Tensor::default()).collect();
    let mut probs = Tensor::default();
    let mut dlogits = Tensor::default();
    let mut scratch = TrainScratch::default();
    let loss = SoftmaxCrossEntropy;
    let mut fwd = vec![Vec::new(); n];
    let mut bwd = vec![vec![]; n];
    let mut loss_ms = Vec::new();
    let budget = Instant::now();
    let mut reps = 0;
    while reps < 6 || (reps < 60 && budget.elapsed() < Duration::from_millis(400)) {
        for i in 0..n {
            let (done, rest) = acts.split_at_mut(i);
            let input = if i == 0 { &x } else { &done[i - 1] };
            let t = Instant::now();
            stack.layers[i].forward_into(&stack.params, input, train, &mut rest[0], &mut scratch);
            fwd[i].push(t.elapsed().as_secs_f64() * 1e3);
        }
        reps += 1;
        if !train {
            continue;
        }
        let t = Instant::now();
        let _ = loss.forward_into(&acts[n - 1], labels, &mut probs, &mut scratch);
        loss.backward_into(&probs, labels, &mut dlogits, &mut scratch);
        loss_ms.push(t.elapsed().as_secs_f64() * 1e3);
        stack.grads.zero();
        for i in (0..n).rev() {
            let (lower, upper) = grads_in.split_at_mut(i + 1);
            let grad_out = if i + 1 == n { &dlogits } else { &upper[0] };
            let t = Instant::now();
            stack.layers[i].backward_into(
                &stack.params,
                &mut stack.grads,
                grad_out,
                &mut lower[i],
                &mut scratch,
            );
            bwd[i].push(t.elapsed().as_secs_f64() * 1e3);
        }
    }
    let med0 = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) };
    let mut sum = med0(&loss_ms);
    let tag = model.tag();
    for (i, name) in model.layers().iter().enumerate() {
        sum += med0(&fwd[i]) + med0(&bwd[i]);
        report.median(
            format!("nn.layer.{tag}.{name}.fwd_ms"),
            "ms",
            fwd[i].clone(),
        );
        report.median(
            format!("nn.layer.{tag}.{name}.bwd_ms"),
            "ms",
            bwd[i].clone(),
        );
    }
    report.median(format!("nn.layer.{tag}.loss_ms"), "ms", loss_ms);

    let (steps, allocs) = if train {
        let mut net = proto.clone();
        for _ in 0..2 {
            net.forward_backward_from_slice(batch, pixels, labels);
        }
        let warm = net.scratch_stats();
        let steps = time_calls(6, Duration::from_millis(300), || {
            black_box(net.forward_backward_from_slice(batch, pixels, labels));
        });
        (steps, net.scratch_stats().since(&warm).allocations())
    } else {
        let mut session = InferSession::new(proto.clone());
        let _ = session.infer(batch, pixels);
        let warm = session.stats();
        let steps = time_calls(6, Duration::from_millis(300), || {
            black_box(session.infer(batch, pixels));
        });
        (steps, session.stats().since(&warm).allocations())
    };
    (sum, median(&steps), allocs as f64 / steps.len() as f64)
}

/// Reports zeros for the layer metrics of the model a workload does not
/// train: that workload spends no time in those layers.
pub fn nn_layers_absent(report: &mut Report, model: Model) {
    for name in model.layers() {
        report.value(format!("nn.layer.{}.{name}.fwd_ms", model.tag()), "ms", 0.0);
        report.value(format!("nn.layer.{}.{name}.bwd_ms", model.tag()), "ms", 0.0);
    }
    report.value(format!("nn.layer.{}.loss_ms", model.tag()), "ms", 0.0);
}

/// `nn.infer_ms.b1` / `.b8`: eval-mode LeNet inference on one replica at
/// the serving batch sizes.
pub fn nn_infer(report: &mut Report, proto: &Network, pixels: &[f32]) {
    let mut session = InferSession::new(proto.clone());
    let per = session.sample_len();
    for b in [1usize, 8] {
        let _ = session.infer(b, &pixels[..b * per]);
        let ms = time_calls(20, Duration::from_millis(150), || {
            black_box(session.infer(b, &pixels[..b * per]));
        });
        report.median(format!("nn.infer_ms.b{b}"), "ms", ms);
    }
}
