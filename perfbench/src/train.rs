//! The training workloads: Sync EASGD2 with the executable tree exchange
//! on the event backend, 4 workers plus the data rank.
//!
//! Untraced, the benchmark calls the trainer itself
//! (`sync_easgd_sim_with`) in jobs of a fixed number of rounds. Traced,
//! it rebuilds the trainer's round inside `VirtualCluster::run` from the
//! same public calls the trainer makes, with a span around each, and
//! checks the rebuilt job lands on the trainer's exact center weights.

use crate::probe::{self, Model};
use crate::stats::{median, peak_rss_mb, Report};
use crate::trace::Tracer;
use easgd::engine::{additive_rng, center_fingerprint, evaluate_center, ElasticRule, LocalStep};
use easgd::sync::tree_exchange_round;
use easgd::{sync_easgd_sim_with, RunResult, SimCosts, SyncExchange, SyncVariant, TrainConfig};
use easgd_cluster::trace::TraceOp;
use easgd_cluster::{
    tags, BatchMsg, ClusterBackend, ClusterConfig, Comm, TimeCategory, VirtualCluster,
};
use easgd_data::{Dataset, SyntheticSpec};
use easgd_nn::Network;
use std::sync::Mutex;
use std::time::Instant;

const WORKERS: usize = 4;
/// Learning rate; the elastic strength follows from it (`ρ = 0.9/(η·P)`).
/// With the Figure 6 default of 0.2 the LeNet center ends some seeds'
/// 12-round jobs at or below chance accuracy.
const ETA: f32 = 0.05;
const N_TRAIN: usize = 4096;
const N_TEST: usize = 512;

pub struct TrainSpec {
    model: Model,
    batch: usize,
    /// Rounds per trainer job. Fixed, so a job's loss, accuracy and
    /// center weights are a function of the seed alone.
    rounds_per_job: usize,
    /// Test accuracy every job must reach after `rounds_per_job` rounds.
    accuracy_floor: f32,
}

pub const LENET: TrainSpec = TrainSpec {
    model: Model::Lenet,
    batch: 32,
    rounds_per_job: 12,
    accuracy_floor: 0.9,
};

pub const WIDE: TrainSpec = TrainSpec {
    model: Model::Wide,
    batch: 4,
    rounds_per_job: 6,
    accuracy_floor: 0.2,
};

struct Setup {
    train: Dataset,
    test: Dataset,
    proto: Network,
    costs: SimCosts,
}

impl TrainSpec {
    fn config(&self, seed: u64, rounds: usize) -> TrainConfig {
        let mut cfg = TrainConfig::figure6(rounds)
            .with_workers(WORKERS)
            .with_eta(ETA)
            .with_seed(seed);
        cfg.batch = self.batch;
        cfg
    }

    /// Dataset generation, model build, and one warm-up trainer round
    /// (which also spawns the kernel pool on first use).
    fn setup(&self, seed: u64) -> (Setup, f64) {
        let t = Instant::now();
        let (train, test) = SyntheticSpec::mnist()
            .task(seed)
            .train_test(N_TRAIN, N_TEST, seed);
        let proto = self.model.build(seed);
        let mut costs = SimCosts::mnist_lenet_4gpu();
        costs.weight_bytes = proto.size_bytes();
        costs.data_bytes = self.batch * train.sample_len() * 4;
        let s = Setup {
            train,
            test,
            proto,
            costs,
        };
        let warm = self.job(&s, seed, 1);
        assert!(warm.final_loss.is_finite(), "warm-up round diverged");
        (s, t.elapsed().as_secs_f64())
    }

    fn job(&self, s: &Setup, seed: u64, rounds: usize) -> RunResult {
        let cfg = self.config(seed, rounds);
        ClusterBackend::Events.with_default(|| {
            sync_easgd_sim_with(
                &s.proto,
                &s.train,
                &s.test,
                &cfg,
                &s.costs,
                SyncVariant::Easgd2,
                0,
                SyncExchange::ExecutableTree,
            )
        })
    }

    /// Samples per second of one job, from the trainer's own wall clock
    /// (which stops before its final evaluation).
    fn samples_per_s(&self, r: &RunResult) -> f64 {
        (r.iterations * WORKERS * self.batch) as f64 / r.wall_seconds
    }

    pub fn run_untraced(&self, seed: u64, seconds: f64) -> Report {
        let mut report = Report::default();
        let mut setups = Vec::new();
        let mut setup = None;
        for _ in 0..3 {
            let (s, secs) = self.setup(seed);
            setups.push(secs);
            setup = Some(s);
        }
        let s = setup.expect("three setups ran");
        let k = self.rounds_per_job;
        let start = Instant::now();
        let (mut per_s, mut round_ms, mut losses, mut accs) = (vec![], vec![], vec![], vec![]);
        let mut hashes = Vec::new();
        // Jobs run until the next one would overrun the run's time.
        let mut job_s: Vec<f64> = Vec::new();
        while hashes.len() < 2 || start.elapsed().as_secs_f64() + median(&job_s) <= seconds {
            let t = Instant::now();
            let r = self.job(&s, seed, k);
            report.attempted += k as u64;
            let finite = r.final_loss.is_finite() && r.loss_trace.iter().all(|l| l.is_finite());
            if !finite || r.accuracy < self.accuracy_floor {
                report.failed += k as u64;
            }
            per_s.push(self.samples_per_s(&r));
            round_ms.push(r.wall_seconds * 1e3 / k as f64);
            losses.push(f64::from(r.final_loss));
            accs.push(f64::from(r.accuracy));
            hashes.push(r.center_hash);
            job_s.push(t.elapsed().as_secs_f64());
        }
        let same = hashes.iter().all(|&h| h == hashes[0]);
        report.check(
            "train.loss_finite",
            losses.iter().all(|l| l.is_finite()),
            format!("final loss {:.4}", losses[0]),
        );
        report.check(
            "train.accuracy_floor",
            accs.iter().all(|&a| a >= f64::from(self.accuracy_floor)),
            format!("{:.4} >= {} after {k} rounds", accs[0], self.accuracy_floor),
        );
        report.check(
            "train.same_seed_center_hash",
            same,
            format!("{} jobs, hash {:016x}", hashes.len(), hashes[0]),
        );
        report.median("setup_s", "s", setups);
        report.value("peak_rss_mb", "MB", peak_rss_mb());
        report.median("throughput_per_s", "1/s", per_s);
        report.median("latency_p50_ms", "ms", round_ms);
        report.extra("final_loss", "loss", losses);
        report.extra("final_accuracy", "frac", accs);
        report
    }

    pub fn run_traced(&self, seed: u64, seconds: f64, out: &std::path::Path) -> Report {
        let mut report = Report::default();
        let (s, setup_s) = self.setup(seed);
        report.note(format!(
            "setup {setup_s:.3} s (one setup in the traced run)"
        ));

        // Size the jobs so the traced rebuild and the untraced trainer
        // jobs on either side of it take about 75% of the run.
        let probe = self.job(&s, seed, 2);
        let round_est = probe.wall_seconds / 2.0;
        let rounds = ((0.25 * seconds / round_est) as usize).clamp(6, 400);
        let reference = self.job(&s, seed, rounds);
        report.attempted += rounds as u64;

        let tracer = Tracer::on(WORKERS + 2, rounds * 64 + 16);
        let cfg = self.config(seed, rounds);
        let rebuilt = rebuilt_job(&s, &cfg, &tracer);
        let after = self.job(&s, seed, rounds);
        let untraced_s = 0.5 * (reference.wall_seconds + after.wall_seconds);
        let center = rebuilt.center.clone();
        let eval_t = Instant::now();
        let acc = tracer.span(WORKERS + 1, "core.eval", u64::MAX, || {
            evaluate_center(&s.proto, &center, &s.test)
        });
        let eval_ms = eval_t.elapsed().as_secs_f64() * 1e3;
        let trace = tracer.finish();
        let attr = trace.attribute();

        report.check(
            "train.rebuild_matches_trainer",
            center_fingerprint(&center) == reference.center_hash,
            format!(
                "rebuilt {:016x} vs trainer {:016x} after {rounds} rounds",
                center_fingerprint(&center),
                reference.center_hash
            ),
        );
        report.check(
            "train.loss_finite",
            rebuilt.losses.iter().all(|l| l.is_finite()),
            format!("{} worker losses", rebuilt.losses.len()),
        );
        report.check(
            "train.accuracy_floor",
            acc >= self.accuracy_floor,
            format!("{acc:.4} >= {} after {rounds} rounds", self.accuracy_floor),
        );
        if !rebuilt.losses.iter().all(|l| l.is_finite()) {
            report.failed += rounds as u64;
        }

        // Per-round buckets from the attributed self times (rounds ≥ 1;
        // round 0 carries the cluster spawn and the data rank's prefetch
        // of every round's batches is attributed to each batch's round).
        let mut rounds_b: Vec<Buckets> = vec![Buckets::default(); rounds];
        let mut steps_ms = Vec::new();
        for (i, span) in trace.spans.iter().enumerate() {
            let Some(b) = rounds_b.get_mut(span.id as usize) else {
                continue;
            };
            let ms = attr.self_ns[i] as f64 / 1e6;
            match span.name {
                "data.sample_batch" => b.data += ms,
                "cluster.encode" | "cluster.decode" => b.codec += ms,
                "cluster.send" | "cluster.recv" => b.batch_msgs += ms,
                "nn.fwd_bwd" => {
                    b.fwd_bwd += ms;
                    steps_ms.push((span.end_ns - span.start_ns) as f64 / 1e6);
                }
                "cluster.tree_exchange" => b.exchange += ms,
                "tensor.elastic_exchange" => b.elastic += ms,
                "core.center_update" => b.update += ms,
                other => panic!("unbucketed span {other}"),
            }
        }
        for (id, ns) in &attr.gap_ns {
            if let Some(b) = rounds_b.get_mut(*id as usize) {
                b.residual += *ns as f64 / 1e6;
            }
        }
        let steady = &rounds_b[1..];
        let col = |f: fn(&Buckets) -> f64| steady.iter().map(f).collect::<Vec<f64>>();
        let round_ms = col(Buckets::total);
        let tiled: u64 = attr.self_ns.iter().sum::<u64>() + attr.gap_ns.values().sum::<u64>();
        report.check(
            "trace.parts_tile_window",
            tiled == attr.window_ns,
            format!(
                "spans + gaps {:.3} ms = traced window {:.3} ms",
                tiled as f64 / 1e6,
                attr.window_ns as f64 / 1e6
            ),
        );

        let med_round = median(&round_ms);
        let med = |v: Vec<f64>| median(&v);
        let exchange_share = med(col(|b| (b.exchange + b.elastic + b.update) / b.total()));
        let fwd_bwd_share = med(col(|b| b.fwd_bwd / b.total()));
        let largest = steady.iter().map(|b| b.largest()).fold(
            std::collections::BTreeMap::<&str, usize>::new(),
            |mut m, n| {
                *m.entry(n).or_default() += 1;
                m
            },
        );
        report.note(format!(
            "round composition (median shares): fwd_bwd {:.3}, exchange {:.3}, largest part per round {:?}",
            fwd_bwd_share, exchange_share, largest
        ));

        report.median("data.sample_batch_ms", "ms", col(|b| b.data));
        report.median("tensor.elastic_exchange_ms", "ms", col(|b| b.elastic));
        report.median("nn.fwd_bwd_ms", "ms", col(|b| b.fwd_bwd));
        report.median("cluster.exchange_ms_per_round", "ms", col(|b| b.exchange));
        report.median(
            "cluster.batch_msg_ms_per_round",
            "ms",
            col(|b| b.batch_msgs),
        );
        report.median("cluster.codec_ms_per_round", "ms", col(|b| b.codec));
        let steady_rounds = (rounds - 1) as f64;
        report.value(
            "cluster.bytes_copied_per_round",
            "bytes",
            rebuilt.bytes_copied as f64 / steady_rounds,
        );
        report.value(
            "cluster.messages_per_round",
            "count",
            rebuilt.messages as f64 / steady_rounds,
        );
        report.value(
            "cluster.pool_allocs_per_round",
            "count",
            rebuilt.pool_allocs as f64 / steady_rounds,
        );
        report.value(
            "cluster.sim_round_ms",
            "ms",
            rebuilt.sim_s * 1e3 / rounds as f64,
        );
        report.value("cluster.sim_comm_share", "frac", rebuilt.sim_comm_share);
        report.median("core.round_ms", "ms", round_ms.clone());
        report.median("core.local_step_ms", "ms", steps_ms);
        report.value("core.exchange_share", "frac", exchange_share);
        report.median("core.round_residual_ms", "ms", col(|b| b.residual));
        report.value("core.center_update_ms", "ms", med(col(|b| b.update)));
        report.value("core.eval_ms", "ms", eval_ms);

        // Tracing overhead: the traced rebuild against the mean of the
        // untraced trainer jobs of the same rounds run before and after it.
        let overhead = rebuilt.wall_s / untraced_s - 1.0;
        report.value("trace.overhead_frac", "frac", overhead);
        report.finding(
            "train.pool_allocs_steady_zero",
            rebuilt.pool_allocs == 0,
            format!("{} pooled allocations after round 0", rebuilt.pool_allocs),
        );

        // Layer probes on one training batch of this workload.
        let mut rng = additive_rng(seed ^ 0xBA7C, 0);
        let batch = s.train.sample_batch(&mut rng, self.batch);
        let (sum_layers, step_ms, allocs) = probe::nn_layers(
            &mut report,
            self.model,
            &s.proto,
            batch.images.as_slice(),
            &batch.labels,
            true,
        );
        probe::nn_layers_absent(
            &mut report,
            match self.model {
                Model::Lenet => Model::Wide,
                Model::Wide => Model::Lenet,
            },
        );
        report.value("nn.layer_residual_ms", "ms", step_ms - sum_layers);
        report.value("nn.scratch_allocs_per_step", "count", allocs);
        report.check(
            "train.scratch_allocs_steady_zero",
            allocs == 0.0,
            format!("{allocs} pooled allocations per warm step"),
        );
        let lenet = Model::Lenet.build(seed);
        let pixels: Vec<f32> = (0..8).flat_map(|i| s.test.image(i).to_vec()).collect();
        probe::nn_infer(&mut report, &lenet, &pixels);
        probe::tensor_kernels(&mut report, seed);
        crate::serve::serve_layers_absent(&mut report);

        let path = out.join(format!("trace_{}_{seed}.json", self.model.tag()));
        match trace.write_chrome(&path) {
            Ok(()) => report.note(format!("trace written to {}", path.display())),
            Err(e) => report.note(format!("trace not written: {e}")),
        }
        report.note(format!(
            "traced {rounds} rounds: round {med_round:.3} ms median; untraced trainer jobs {:.3} ms/round",
            untraced_s * 1e3 / rounds as f64
        ));
        report
    }
}

#[derive(Clone, Copy, Default)]
struct Buckets {
    data: f64,
    codec: f64,
    batch_msgs: f64,
    fwd_bwd: f64,
    exchange: f64,
    elastic: f64,
    update: f64,
    residual: f64,
}

impl Buckets {
    fn total(&self) -> f64 {
        self.data
            + self.codec
            + self.batch_msgs
            + self.fwd_bwd
            + self.exchange
            + self.elastic
            + self.update
            + self.residual
    }

    fn largest(&self) -> &'static str {
        [
            ("data", self.data),
            ("codec", self.codec),
            ("batch_msgs", self.batch_msgs),
            ("fwd_bwd", self.fwd_bwd),
            ("exchange", self.exchange),
            ("elastic", self.elastic),
            ("update", self.update),
            ("residual", self.residual),
        ]
        .into_iter()
        .fold(("", f64::MIN), |a, b| if b.1 > a.1 { b } else { a })
        .0
    }
}

/// What the rebuilt job returns besides its trace.
struct Rebuilt {
    center: Vec<f32>,
    losses: Vec<f32>,
    wall_s: f64,
    sim_s: f64,
    sim_comm_share: f64,
    /// Cluster pool counters from the end of round 0 to the end of the
    /// job, read on the center rank.
    bytes_copied: u64,
    pool_allocs: u64,
    /// Messages posted by all ranks in rounds 1.. (from the comm
    /// layer's op recorder).
    messages: u64,
}

/// The Sync EASGD2 executable-tree round of `sync_easgd_sim_with`,
/// rebuilt call for call with a span around each layer call. Spans carry
/// the round as their id; lanes are ranks.
fn rebuilt_job(s: &Setup, cfg: &TrainConfig, tracer: &Tracer) -> Rebuilt {
    let g = cfg.workers;
    let costs = &s.costs;
    let cluster = ClusterConfig::new(g + 1)
        .with_link(costs.gpu_gpu.clone())
        .with_backend(ClusterBackend::Events);
    let participants: Vec<usize> = (1..=g).collect();
    let rule = ElasticRule::from_config(cfg);
    let center_rank = 1;
    let messages = Mutex::new(0u64);
    let wall = Instant::now();
    let outs = VirtualCluster::run(&cluster, |comm: &mut Comm| {
        let me = comm.rank();
        let mut rng = additive_rng(cfg.seed, me as u64);
        let mut center = s.proto.params().as_slice().to_vec();
        let n = center.len();
        let mut local = (me != 0).then(|| LocalStep::new(&s.proto));
        let mut center_t = vec![0.0f32; n];
        let mut weight_sum = vec![0.0f32; n];
        let mut payload = Vec::new();
        let mut labels: Vec<usize> = Vec::new();
        let mut warm = None;
        for round in 0..cfg.iterations {
            let id = round as u64;
            if round == 1 {
                comm.trace_start();
            }
            match local.as_mut() {
                None => {
                    for j in 1..=g {
                        let batch = tracer.span(me, "data.sample_batch", id, || {
                            s.train.sample_batch(&mut rng, cfg.batch)
                        });
                        let pixels = batch.images.as_slice();
                        let mut buf = comm.take_buffer(3 + batch.labels.len() + pixels.len());
                        tracer.span(me, "cluster.encode", id, || {
                            BatchMsg::encode_into(pixels, &batch.labels, &mut buf)
                        });
                        let cost = if j == 1 { costs.data_time() } else { 0.0 };
                        tracer.span(me, "cluster.send", id, || {
                            comm.send_from_costed(
                                j,
                                tags::SYNC_DATA,
                                buf,
                                cost,
                                TimeCategory::CpuGpuData,
                            )
                        });
                    }
                    comm.charge(TimeCategory::ForwardBackward, costs.fwd_bwd);
                }
                Some(local) => {
                    tracer.span(me, "cluster.recv", id, || {
                        comm.recv_into(0, tags::SYNC_DATA, TimeCategory::Other, &mut payload)
                    });
                    let pixels = tracer
                        .span(me, "cluster.decode", id, || {
                            BatchMsg::decode_into(&payload, cfg.batch, &mut labels)
                        })
                        .unwrap_or_else(|e| panic!("batch codec (rank {me}): {e}"));
                    tracer.span(me, "nn.fwd_bwd", id, || {
                        local.forward_backward_flat(cfg.batch, pixels, &labels)
                    });
                    comm.charge(TimeCategory::ForwardBackward, costs.fwd_bwd);
                }
            }
            if me != 0 {
                let local = &mut local;
                tracer.span(me, "cluster.tree_exchange", id, || {
                    tree_exchange_round(
                        comm,
                        &participants,
                        center_rank,
                        &center,
                        &mut center_t,
                        &mut weight_sum,
                        TimeCategory::GpuGpuParam,
                        |center_t, weight_sum| match local.as_mut() {
                            Some(l) => tracer.span(me, "tensor.elastic_exchange", id, || {
                                l.elastic_exchange_against(&rule, center_t, weight_sum)
                            }),
                            None => weight_sum.fill(0.0),
                        },
                    )
                });
                if me == center_rank {
                    tracer.span(me, "core.center_update", id, || {
                        rule.center_dilution(&mut center, &weight_sum, g)
                    });
                    comm.charge(TimeCategory::GpuUpdate, costs.gpu_update);
                }
                comm.charge(TimeCategory::GpuUpdate, costs.gpu_update);
            }
            if me == center_rank && round == 0 {
                warm = Some(comm.pool_stats());
            }
        }
        let sends = comm
            .trace_take()
            .iter()
            .filter(|op| matches!(op, TraceOp::Send { .. } | TraceOp::Isend { .. }))
            .count() as u64;
        *messages.lock().expect("message count poisoned") += sends;
        let last_loss = local.as_ref().map_or(f32::NAN, LocalStep::last_loss);
        let pool = warm.map(|w| comm.pool_stats().since(&w));
        (me, center, last_loss, comm.report(), pool)
    });
    let wall_s = wall.elapsed().as_secs_f64();
    let mut r = Rebuilt {
        center: Vec::new(),
        losses: Vec::new(),
        wall_s,
        sim_s: 0.0,
        sim_comm_share: 0.0,
        bytes_copied: 0,
        pool_allocs: 0,
        messages: messages.into_inner().expect("message count poisoned"),
    };
    for (me, center, loss, rep, pool) in outs {
        if me != 0 {
            r.losses.push(loss);
        }
        r.sim_s = r.sim_s.max(rep.time);
        if me == center_rank {
            r.center = center;
            r.sim_comm_share = rep.breakdown.comm_ratio();
            let pool = pool.expect("center rank snapshots the pool");
            r.bytes_copied = pool.bytes_copied;
            r.pool_allocs = pool.allocations();
        }
    }
    r
}

/// Zeros for the training-layer metrics on the serving workloads, which
/// spend no time in the data, cluster or trainer layers.
pub fn train_layers_absent(report: &mut Report) {
    for (name, unit) in TRAIN_LAYER_METRICS {
        report.value(name, unit, 0.0);
    }
}

const TRAIN_LAYER_METRICS: [(&str, &str); 17] = [
    ("data.sample_batch_ms", "ms"),
    ("tensor.elastic_exchange_ms", "ms"),
    ("nn.fwd_bwd_ms", "ms"),
    ("cluster.exchange_ms_per_round", "ms"),
    ("cluster.batch_msg_ms_per_round", "ms"),
    ("cluster.codec_ms_per_round", "ms"),
    ("cluster.bytes_copied_per_round", "bytes"),
    ("cluster.messages_per_round", "count"),
    ("cluster.pool_allocs_per_round", "count"),
    ("cluster.sim_round_ms", "ms"),
    ("cluster.sim_comm_share", "frac"),
    ("core.round_ms", "ms"),
    ("core.local_step_ms", "ms"),
    ("core.exchange_share", "frac"),
    ("core.round_residual_ms", "ms"),
    ("core.center_update_ms", "ms"),
    ("core.eval_ms", "ms"),
];
