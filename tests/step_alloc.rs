//! Pooled training-step invariants: the `_into` layer forms are
//! bit-identical to the allocating shims under dirty buffer reuse, and
//! the steady-state step performs zero counted scratch allocations
//! (DESIGN.md §11).

use knl_easgd::nn::gradcheck::build_arenas;
use knl_easgd::nn::inception::{Inception, InceptionConfig};
use knl_easgd::nn::models::{lenet, lenet_tiny};
use knl_easgd::nn::{
    AvgPool2d, BatchNorm, Conv2d, Dense, Dropout, Flatten, Layer, LocalResponseNorm, MaxPool2d,
    Relu, Sigmoid, Tanh,
};
use knl_easgd::prelude::*;
use knl_easgd::tensor::par::WorkerPool;
use knl_easgd::tensor::{Conv2dGeometry, TrainScratch};
use proptest::prelude::*;

/// Boundary batch sizes the pooled path must survive: growth, shrink,
/// and re-growth of every cached buffer.
const BATCHES: [usize; 5] = [1, 2, 3, 5, 8];

/// One instance of every deterministic layer type, with its per-sample
/// input shape. Index range is `LAYER_KINDS`.
fn make_layer(kind: usize) -> (Box<dyn Layer>, Vec<usize>) {
    let geom = Conv2dGeometry {
        in_channels: 2,
        in_h: 6,
        in_w: 6,
        k_h: 3,
        k_w: 3,
        stride: 1,
        pad: 1,
    };
    match kind {
        0 => (Box::new(Relu::new("relu", vec![3, 4, 4])), vec![3, 4, 4]),
        1 => (Box::new(Tanh::new("tanh", vec![3, 4, 4])), vec![3, 4, 4]),
        2 => (Box::new(Sigmoid::new("sig", vec![3, 4, 4])), vec![3, 4, 4]),
        3 => (Box::new(Dense::new("fc", 12, 7)), vec![12]),
        4 => (Box::new(Conv2d::new("conv", geom, 4)), vec![2, 6, 6]),
        5 => (
            Box::new(MaxPool2d::new("max", 2, 6, 6, 2, 2)),
            vec![2, 6, 6],
        ),
        6 => (
            Box::new(AvgPool2d::new("avg", 2, 6, 6, 2, 2)),
            vec![2, 6, 6],
        ),
        7 => (Box::new(BatchNorm::new("bn", 3, 16)), vec![3, 4, 4]),
        8 => (
            Box::new(LocalResponseNorm::new("lrn", 3, 4, 4)),
            vec![3, 4, 4],
        ),
        9 => (Box::new(Flatten::new("flat", vec![3, 4, 4])), vec![3, 4, 4]),
        10 => (
            Box::new(Inception::new(
                "inc",
                4,
                6,
                6,
                InceptionConfig {
                    c1: 2,
                    c3_reduce: 2,
                    c3: 3,
                    c5_reduce: 2,
                    c5: 2,
                    pool_proj: 2,
                },
            )),
            vec![4, 6, 6],
        ),
        _ => unreachable!("unknown layer kind"),
    }
}

const LAYER_KINDS: usize = 11;

fn assert_bits_eq(a: &[f32], b: &[f32], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}[{i}]: {x} vs {y} differ in bits"
        );
    }
}

/// Drives `pooled` through persistent, dirty scratch buffers and `shim`
/// through the allocating default forms, over the same input sequence,
/// asserting bitwise agreement of outputs, input gradients, and
/// accumulated parameter gradients every round.
fn check_rounds(
    pooled: &mut dyn Layer,
    shim: &mut dyn Layer,
    in_shape: &[usize],
    batches: &[usize],
    seed: u64,
) {
    let (params_a, mut grads_a) = build_arenas(pooled, seed);
    let (params_b, mut grads_b) = build_arenas(shim, seed);
    assert_bits_eq(params_a.as_slice(), params_b.as_slice(), "init params");

    let mut rng = Rng::new(seed ^ 0x5eed);
    let mut scratch = TrainScratch::default();
    let mut out = Tensor::default();
    let mut grad_in = Tensor::default();

    for &batch in batches {
        let mut shape = vec![batch];
        shape.extend_from_slice(in_shape);
        let mut x = Tensor::zeros(shape);
        rng.fill_normal(x.as_mut_slice(), 0.0, 1.0);

        pooled.forward_into(&params_a, &x, true, &mut out, &mut scratch);
        let want_out = shim.forward(&params_b, &x, true);
        assert_eq!(out.shape().dims(), want_out.shape().dims(), "out shape");
        assert_bits_eq(out.as_slice(), want_out.as_slice(), "forward");

        let mut gy = Tensor::zeros(out.shape().dims().to_vec());
        rng.fill_normal(gy.as_mut_slice(), 0.0, 1.0);
        pooled.backward_into(&params_a, &mut grads_a, &gy, &mut grad_in, &mut scratch);
        let want_gin = shim.backward(&params_b, &mut grads_b, &gy);
        assert_eq!(
            grad_in.shape().dims(),
            want_gin.shape().dims(),
            "grad_in shape"
        );
        assert_bits_eq(grad_in.as_slice(), want_gin.as_slice(), "backward");
        assert_bits_eq(grads_a.as_slice(), grads_b.as_slice(), "param grads");
    }
}

proptest! {
    /// `forward_into`/`backward_into` under dirty buffer reuse are
    /// bit-identical to the allocating shims, across every layer type
    /// and shrinking/growing batch sizes.
    #[test]
    fn pooled_layers_match_allocating_shims(
        kind in 0usize..LAYER_KINDS,
        picks in proptest::collection::vec(0usize..BATCHES.len(), 2..6),
        seed in 1u64..1000,
    ) {
        let batches: Vec<usize> = picks.iter().map(|&i| BATCHES[i]).collect();
        let (mut pooled, in_shape) = make_layer(kind);
        let (mut shim, _) = make_layer(kind);
        check_rounds(pooled.as_mut(), shim.as_mut(), &in_shape, &batches, seed);
    }

    /// Dropout draws its mask from a layer-owned RNG; two instances with
    /// the same seed and input sequence must agree bitwise between the
    /// pooled and allocating paths.
    #[test]
    fn pooled_dropout_matches_allocating_shim(
        picks in proptest::collection::vec(0usize..BATCHES.len(), 2..6),
        seed in 1u64..1000,
    ) {
        let batches: Vec<usize> = picks.iter().map(|&i| BATCHES[i]).collect();
        let mut pooled = Dropout::new("drop", vec![3, 4, 4], 0.4, 77);
        let mut shim = Dropout::new("drop", vec![3, 4, 4], 0.4, 77);
        check_rounds(&mut pooled, &mut shim, &[3, 4, 4], &batches, seed);
    }
}

/// The tentpole invariant: after the warm-up step, a training step
/// performs zero counted scratch allocations.
#[test]
fn steady_state_step_makes_no_scratch_allocations() {
    let mut net = lenet_tiny(11);
    let mut rng = Rng::new(12);
    let mut shape = vec![4];
    shape.extend_from_slice(net.input_shape());
    let mut x = Tensor::zeros(shape);
    rng.fill_normal(x.as_mut_slice(), 0.0, 1.0);
    let labels = [0usize, 1, 2, 1];

    // Warm-up: the first step is allowed (expected) to allocate.
    let _ = net.forward_backward(&x, &labels);
    let warm = net.scratch_stats();
    assert!(
        warm.allocations() > 0,
        "warm-up step should have populated the scratch"
    );

    for step in 0..3 {
        let _ = net.forward_backward(&x, &labels);
        let now = net.scratch_stats();
        let delta = now.since(&warm);
        assert_eq!(
            delta.allocations(),
            0,
            "steady-state step {step} allocated: {delta:?}"
        );
        assert!(
            delta.reused > 0,
            "steady-state step {step} should reuse pooled buffers"
        );
    }
}

/// Shrinking the batch must not allocate either — buffers only ever grow.
#[test]
fn smaller_batch_reuses_the_warm_scratch() {
    let mut net = lenet_tiny(21);
    let mut rng = Rng::new(22);
    let make = |rng: &mut Rng, b: usize, net: &Network| {
        let mut shape = vec![b];
        shape.extend_from_slice(net.input_shape());
        let mut x = Tensor::zeros(shape);
        rng.fill_normal(x.as_mut_slice(), 0.0, 1.0);
        x
    };
    let big = make(&mut rng, 6, &net);
    let small = make(&mut rng, 2, &net);
    let _ = net.forward_backward(&big, &[0, 1, 2, 0, 1, 2]);
    let warm = net.scratch_stats();
    let _ = net.forward_backward(&small, &[1, 2]);
    let delta = net.scratch_stats().since(&warm);
    assert_eq!(delta.allocations(), 0, "shrunk batch allocated: {delta:?}");
}

/// Full LeNet at batch 32: both convs clear the fan-out gate, so on a
/// host with two or more cores the warm step runs the pool-parallel
/// conv forward and backward, and must still make zero counted scratch
/// allocations.
#[test]
fn lenet_batch32_steady_state_makes_no_scratch_allocations() {
    let mut net = lenet(31);
    let mut x = Tensor::zeros([32, 1, 28, 28]);
    Rng::new(32).fill_normal(x.as_mut_slice(), 0.0, 1.0);
    let labels: Vec<usize> = (0..32).map(|i| i % 10).collect();
    let _ = net.forward_backward(&x, &labels);
    let warm = net.scratch_stats();
    for step in 0..3 {
        let _ = net.forward_backward(&x, &labels);
        let delta = net.scratch_stats().since(&warm);
        assert_eq!(
            delta.allocations(),
            0,
            "warm step {step} allocated: {delta:?}"
        );
    }
}

/// The same invariant for the conv fan-out itself on an explicit
/// 2-thread pool, independent of the host's core count: every panel,
/// tile, chunk and shared operand copy of the parallel backward is
/// recycled.
#[test]
fn parallel_conv_backward_makes_no_scratch_allocations_once_warm() {
    let geom = Conv2dGeometry {
        in_channels: 20,
        in_h: 12,
        in_w: 12,
        k_h: 5,
        k_w: 5,
        stride: 1,
        pad: 0,
    };
    let pool = WorkerPool::new(1);
    for input_grad in [true, false] {
        let mut conv = Conv2d::new("conv3", geom, 50);
        conv.set_input_grad(input_grad);
        let (params, mut grads) = build_arenas(&mut conv, 33);
        let mut x = Tensor::zeros([32, 20, 12, 12]);
        Rng::new(34).fill_normal(x.as_mut_slice(), 0.0, 1.0);
        let mut gy = Tensor::zeros([32, 50, 8, 8]);
        Rng::new(35).fill_normal(gy.as_mut_slice(), 0.0, 1.0);
        let mut scratch = TrainScratch::default();
        let (mut out, mut grad_in) = (Tensor::default(), Tensor::default());
        let mut step = |scratch: &mut TrainScratch| {
            conv.forward_with_pool_into(&pool, &params, &x, &mut out, scratch);
            conv.backward_with_pool_into(&pool, &params, &mut grads, &gy, &mut grad_in, scratch);
        };
        step(&mut scratch);
        let warm = scratch.stats();
        for _ in 0..3 {
            step(&mut scratch);
        }
        let delta = scratch.stats().since(&warm);
        assert_eq!(delta.allocations(), 0, "input_grad={input_grad}: {delta:?}");
        assert!(delta.reused > 0, "the warm steps reused nothing");
    }
}
