//! # easgd-serve
//!
//! Dynamic micro-batching inference engine on the zero-alloc stack of
//! the `knl-easgd` reproduction of *“Scaling Deep Learning on GPU and
//! Knights Landing clusters”* (SC '17).
//!
//! The paper's co-design argument (§6) is that training throughput comes
//! from matching the batch shape to the hardware model. Serving inverts
//! that into a latency/throughput trade: a single request is
//! overhead-bound (the fixed per-dispatch cost α dominates, exactly the
//! α latency term of the paper's §5.2 communication analysis), so a
//! batcher that coalesces requests amortizes α over B samples — at the
//! price of queueing delay bounded by a deadline. This crate measures
//! that trade deterministically:
//!
//! * [`session`] — [`InferSession`]: a gradient-stripped [`Network`]
//!   replica with its large dense weights prepacked once (bit-identical
//!   logits) plus a forward-only [`InferScratch`], reaching the same
//!   zero-allocations-per-request steady state as the training step;
//!   [`ReplicaSet`] shards replicas over a `par::PartitionedPool`.
//! * [`batcher`] — the dynamic micro-batcher: per-shard FIFO queues with
//!   the coalescing rule “close the batch at B requests or T µs,
//!   whichever first”, and pooled (counted) request/pixel storage.
//! * [`engine`] — [`ServeEngine`]: drives the batcher on logical
//!   microsecond time, dispatches closed batches in `(ready time,
//!   shard)` total order, accounts service time on per-shard
//!   `SimClock`s, and runs a pluggable [`Backend`] (real replicas or
//!   the modeled-only [`NullBackend`]).
//! * [`arrival`] — deterministic open-loop arrival processes (uniform,
//!   Poisson from the repo's seeded RNG, burst).
//! * [`service`] — [`ServiceModel`]: the pinned `step(B) = α + β·B`
//!   service-time model the latency percentiles are computed under.
//! * [`harness`] — percentile and latency-summary helpers for the
//!   `serve` bench bin (`BENCH_serve.json`).
//!
//! Dispatch is **ragged, never padded**: a partial batch runs at its
//! actual size. Padding would spend real forward flops on dead samples
//! to reach a “nicer” shape; on the GEMM-backed stack a ragged batch of
//! k rows already uses the same kernels bit-identically (see the
//! batch-size-invariance tests), so padding buys nothing and costs
//! `(B−k)·β` per dispatch.
//!
//! [`Network`]: easgd_nn::Network
//! [`InferScratch`]: easgd_tensor::InferScratch

pub mod arrival;
pub mod batcher;
pub mod engine;
pub mod harness;
pub mod service;
pub mod session;

pub use arrival::{Arrival, ArrivalGen};
pub use batcher::{Batch, Batcher, BatcherConfig, Request};
pub use engine::{Backend, Completion, DispatchRecord, NullBackend, ServeEngine};
pub use harness::{percentile_us, summarize, LatencySummary};
pub use service::ServiceModel;
pub use session::{InferSession, ReplicaSet};
