//! Bitwise eval-mode batch-size invariance.
//!
//! The batcher dispatches **ragged** batches — whatever coalesced before
//! the cap or deadline hit. That is only sound if eval-mode forward is
//! batch-size invariant *bitwise*: serving a request in a batch of k
//! must produce the exact bits it would get in a batch of B. Every
//! layer is per-sample in eval mode (batchnorm normalizes by *running*
//! statistics, LRN by within-sample neighborhoods, dropout is the
//! identity), and the GEMM kernels reduce each output row in a fixed
//! k-order independent of the row count — so equality must be exact,
//! not approximate. These tests pin that contract for the layer zoo and
//! for LeNet through the real serving session.

use easgd_nn::{models, Network, NetworkBuilder};
use easgd_serve::InferSession;
use easgd_tensor::Tensor;

/// A network exercising every eval-mode-sensitive layer in the zoo:
/// batchnorm (conv and dense placements), LRN, dropout, both pools,
/// all three activations, and a dense layer big enough that serving
/// replicas prepack it (256→320, two column panels at `k = KC`).
fn zoo_net() -> Network {
    NetworkBuilder::new([2, 8, 8])
        .conv2d(4, 3, 1, 1)
        .batchnorm()
        .relu()
        .lrn()
        .maxpool(2, 2)
        .conv2d(4, 3, 1, 1)
        .tanh()
        .avgpool(2, 2)
        .flatten()
        .dense(256)
        .batchnorm()
        .sigmoid()
        .dropout(0.5)
        .dense(320)
        .relu()
        .dense(10)
        .build(0xBEEF)
}

fn pixels(n: usize, phase: f32) -> Vec<f32> {
    (0..n).map(|i| (i as f32 * 0.37 + phase).sin()).collect()
}

/// Runs a few train-mode forwards so batchnorm running statistics move
/// away from their (0, 1) init — eval must then depend on them, not on
/// batch statistics.
fn warm_running_stats(net: &mut Network, sample_len: usize) {
    for step in 0..3 {
        let x = Tensor::from_vec([5, 2, 8, 8], pixels(5 * sample_len, step as f32));
        let _ = net.forward(&x, true);
    }
}

#[test]
fn zoo_eval_rows_are_batch_size_invariant_bitwise() {
    let mut net = zoo_net();
    let sample_len: usize = net.input_shape().iter().product();
    warm_running_stats(&mut net, sample_len);

    let full = 7usize;
    let px = pixels(full * sample_len, 0.5);
    let x_full = Tensor::from_vec([full, 2, 8, 8], px.clone());
    let y_full = net.forward(&x_full, false);
    let classes = net.num_classes();

    // Every ragged window of the batch, served alone, must reproduce
    // the full batch's rows bit-for-bit.
    for (start, k) in [(0usize, 1usize), (1, 3), (3, 4), (2, 5), (6, 1)] {
        let sub = &px[start * sample_len..(start + k) * sample_len];
        let y_sub = net.forward(&Tensor::from_vec([k, 2, 8, 8], sub.to_vec()), false);
        assert_eq!(
            y_sub.as_slice(),
            &y_full.as_slice()[start * classes..(start + k) * classes],
            "rows [{start}, {}) changed bits when served as a batch of {k}",
            start + k
        );
    }
}

#[test]
fn zoo_session_matches_full_batch_rows_bitwise() {
    let mut net = zoo_net();
    let sample_len: usize = net.input_shape().iter().product();
    warm_running_stats(&mut net, sample_len);

    let full = 6usize;
    let px = pixels(full * sample_len, 2.0);
    let y_full = net.forward(&Tensor::from_vec([full, 2, 8, 8], px.clone()), false);
    let classes = net.num_classes();

    // The pooled serving path (gradient-stripped replica, InferScratch,
    // infer_from_slice) must agree with the allocating reference.
    let mut session = InferSession::new(net.clone());
    for (start, k) in [(0usize, 2usize), (2, 3), (5, 1), (0, 6)] {
        let sub = &px[start * sample_len..(start + k) * sample_len];
        let got = session.infer(k, sub);
        assert_eq!(
            got,
            &y_full.as_slice()[start * classes..(start + k) * classes],
            "session batch of {k} at row {start} diverged from the full batch"
        );
    }
}

#[test]
fn zoo_session_ragged_schedule_is_zero_alloc_once_warm() {
    let mut net = zoo_net();
    let sample_len: usize = net.input_shape().iter().product();
    warm_running_stats(&mut net, sample_len);
    let mut session = InferSession::new(net);
    let px = pixels(8 * sample_len, 1.0);

    // Warm the two extreme sizes; every intermediate ragged size then
    // reuses their buffers (grow-only layer caches, pooled slots).
    let _ = session.infer(8, &px);
    let _ = session.infer(1, &px[..sample_len]);
    let warm = session.stats();
    for k in [3usize, 8, 1, 5, 2, 8, 7, 4, 1, 6] {
        let _ = session.infer(k, &px[..k * sample_len]);
    }
    let delta = session.stats().since(&warm);
    assert_eq!(
        delta.allocations(),
        0,
        "ragged zoo inference allocated after warm-up: {delta:?}"
    );
    assert!(delta.reused > 0, "counters saw no pooled traffic");
}

#[test]
fn lenet_session_serves_full_batch_rows_bitwise() {
    let mut net = models::lenet_tiny(42);
    let sample_len: usize = net.input_shape().iter().product();
    let full = 8usize;
    let px = pixels(full * sample_len, 0.0);
    let y_full = net.forward(&Tensor::from_vec([full, 1, 12, 12], px.clone()), false);
    let classes = net.num_classes();

    let mut session = InferSession::new(net.clone());
    for (start, k) in [(0usize, 1usize), (4, 4), (1, 7), (0, 8)] {
        let sub = &px[start * sample_len..(start + k) * sample_len];
        let got = session.infer(k, sub);
        assert_eq!(
            got,
            &y_full.as_slice()[start * classes..(start + k) * classes],
            "LeNet batch of {k} at row {start} diverged"
        );
    }
}

/// Pooled scratch allocations of the second call on a fresh session at
/// batch size `b`: one call must warm it.
fn second_call_allocations(net: &Network, b: usize, px: &[f32]) -> u64 {
    let mut session = InferSession::new(net.clone());
    let sample_len = session.sample_len();
    let _ = session.infer(b, &px[..b * sample_len]);
    let warm = session.stats();
    let _ = session.infer(b, &px[..b * sample_len]);
    session.stats().since(&warm).allocations()
}

#[test]
fn one_call_warms_a_fresh_session() {
    let mut zoo = zoo_net();
    let zoo_len: usize = zoo.input_shape().iter().product();
    warm_running_stats(&mut zoo, zoo_len);
    let lenet = models::lenet(7);
    for (name, net) in [("zoo", &zoo), ("lenet", &lenet)] {
        let sample_len: usize = net.input_shape().iter().product();
        let px = pixels(8 * sample_len, 0.25);
        for b in [1usize, 8] {
            assert_eq!(
                second_call_allocations(net, b, &px),
                0,
                "{name} session allocated on its second call at batch {b}"
            );
        }
    }
}

#[test]
fn prepacked_lenet_matches_unstripped_forward_at_every_batch_size() {
    let mut net = models::lenet(42);
    let sample_len: usize = net.input_shape().iter().product();
    let px = pixels(8 * sample_len, 1.5);
    let mut session = InferSession::new(net.clone());
    for b in 1..=8usize {
        let x = Tensor::from_vec([b, 1, 28, 28], px[..b * sample_len].to_vec());
        let want = net.forward(&x, false);
        let got = session.infer(b, &px[..b * sample_len]);
        assert!(
            got.iter()
                .zip(want.as_slice())
                .all(|(a, w)| a.to_bits() == w.to_bits()),
            "prepacked LeNet diverged from the unstripped forward at batch {b}"
        );
    }
}

#[test]
fn serving_replicas_prepack_the_zoo_and_lenet() {
    // Guards the fixtures above: each must actually serve from a packed
    // operand, or the bitwise tests would not exercise it.
    for mut net in [zoo_net(), models::lenet(1)] {
        net.strip_gradients();
        assert_eq!(net.prepack_for_inference(), 1, "one dense layer packs");
    }
}
