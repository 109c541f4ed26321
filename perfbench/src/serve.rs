//! The serving workloads: an open loop on the wall clock driving
//! `ServeEngine<ReplicaSet>` (2 LeNet shards, cap 8, 300 µs deadline)
//! from one thread, with Poisson arrivals from the seed.
//!
//! The engine runs on client-supplied microseconds and dispatches a
//! closed batch only on a later `submit`/`advance` with a strictly
//! greater time. The client therefore tracks when each shard's batch
//! closes (cap or deadline) and calls `advance` one microsecond after,
//! spinning on the wall clock in between; it never sleeps, so it never
//! oversleeps a deadline. A request's latency runs from its due time to
//! the wall time the client sees its completion.

use crate::probe::{self, Model};
use crate::stats::{median, peak_rss_mb, quantile, Report};
use crate::trace::Tracer;
use easgd_data::{Dataset, SyntheticSpec};
use easgd_serve::{
    Arrival, Backend, Batch, BatcherConfig, InferSession, ReplicaSet, ServeEngine, ServiceModel,
};
use easgd_tensor::{Rng, ScratchStats};
use std::collections::VecDeque;
use std::time::Instant;

const SHARDS: usize = 2;
const CAP: usize = 8;
const DEADLINE_US: u64 = 300;
/// The latency limit on p99 for the rate ladder. Fixed-rate requests
/// slower than it are counted as misses in the table; they are not failed
/// operations, because host stalls of 5-40 ms produce them whatever the
/// program does.
const SLO_MS: f64 = 20.0;
/// Ladder rates as fractions of the measured saturation throughput.
const LADDER: [f64; 6] = [0.95, 0.85, 0.75, 0.65, 0.55, 0.45];
/// Every this-many-th request has its logits kept for the bitwise check.
const SAMPLE_EVERY: u64 = 61;
const N_IMAGES: usize = 1024;
/// Requests per saturation burst.
const BURST: usize = 400;
const CLASSES: usize = 10;

/// The open loop's fixed rate: deadline-closed, mostly single-request
/// batches at about a third of the saturation throughput.
const RATE: f64 = 500.0;

/// Wraps the replicas so the benchmark can time each batch and keep the
/// logits of sampled requests.
struct Timed<'t> {
    inner: ReplicaSet,
    tracer: &'t Tracer,
    /// `(start ns, end ns, first index into batch_ids, len)` per batch,
    /// kept only when tracing.
    batches: Vec<(u64, u64, usize, usize)>,
    batch_ids: Vec<u64>,
    sampled: Vec<(u64, [f32; CLASSES])>,
}

impl Backend for Timed<'_> {
    fn run_batch(&mut self, shard: usize, batch: &Batch, pixels: &[f32]) {
        let tracer = self.tracer;
        let inner = &mut self.inner;
        let first = batch.reqs()[0].id();
        let start = tracer.now_ns();
        tracer.span(0, "serve.run_batch", first, || {
            inner.run_batch(shard, batch, pixels)
        });
        if tracer.enabled() {
            self.batches
                .push((start, tracer.now_ns(), self.batch_ids.len(), batch.len()));
            self.batch_ids.extend(batch.reqs().iter().map(|r| r.id()));
        }
        let logits = self.inner.session(shard).logits();
        for (row, req) in batch.reqs().iter().enumerate() {
            if req.id() % SAMPLE_EVERY == 0 {
                let mut l = [0.0f32; CLASSES];
                l.copy_from_slice(&logits[row * CLASSES..(row + 1) * CLASSES]);
                self.sampled.push((req.id(), l));
            }
        }
    }

    fn stats(&self) -> ScratchStats {
        self.inner.stats()
    }
}

/// One open-loop phase at a fixed rate.
struct Phase {
    /// Ids `first..end` were submitted in this phase.
    first: usize,
    end: usize,
    latency_ms: Vec<f64>,
    late_ms: Vec<f64>,
}

impl Phase {
    fn p99(&self) -> f64 {
        quantile(&self.latency_ms, 0.99)
    }

    /// The backlog grows when the last quarter of the phase waits more
    /// than 5 ms longer (median) than the first quarter.
    fn backlog_grows(&self) -> bool {
        let q = self.latency_ms.len() / 4;
        q > 0
            && median(&self.latency_ms[self.latency_ms.len() - q..])
                > median(&self.latency_ms[..q]) + 5.0
    }

    fn meets_slo(&self) -> bool {
        self.p99() <= SLO_MS && !self.backlog_grows()
    }
}

struct Client<'t> {
    engine: ServeEngine<Timed<'t>>,
    tracer: &'t Tracer,
    images: Dataset,
    rng: Rng,
    /// Per request id: test image, due time, completion seen, submit span.
    image_of: Vec<u32>,
    due_ns: Vec<u64>,
    seen_ns: Vec<u64>,
    completions_seen: Vec<u8>,
    submit_ns: Vec<(u64, u64)>,
    model_latency_us: Vec<f64>,
    consumed: usize,
    /// Arrival times (engine µs) queued per shard, mirroring the batcher.
    queued: [VecDeque<u64>; SHARDS],
    /// `(ready µs, size)` of batches closed but not yet dispatched.
    staged: Vec<(u64, usize)>,
    calls: u64,
}

impl<'t> Client<'t> {
    fn new(seed: u64, tracer: &'t Tracer, expected: usize) -> Self {
        let replicas = (0..SHARDS).map(|_| Model::Lenet.build(seed)).collect();
        let backend = Timed {
            inner: ReplicaSet::new(replicas),
            tracer,
            batches: Vec::with_capacity(expected),
            batch_ids: Vec::with_capacity(expected),
            sampled: Vec::with_capacity(expected / SAMPLE_EVERY as usize + 8),
        };
        let cfg = BatcherConfig {
            shards: SHARDS,
            batch_cap: CAP,
            deadline_us: DEADLINE_US,
            sample_len: 28 * 28,
        };
        // The α-β service model only feeds the engine's modelled
        // latency, reported as a labelled secondary.
        let mut engine = ServeEngine::new(cfg, ServiceModel::new(80.0, 1.46), backend);
        engine.reserve(expected);
        let images = SyntheticSpec::mnist().generate(N_IMAGES, seed ^ 0x5E7E);
        let mut d = Self {
            engine,
            tracer,
            images,
            rng: Rng::new(seed ^ 0xA11),
            image_of: Vec::with_capacity(expected),
            due_ns: Vec::with_capacity(expected),
            seen_ns: Vec::with_capacity(expected),
            completions_seen: Vec::with_capacity(expected),
            submit_ns: Vec::with_capacity(expected),
            model_latency_us: Vec::with_capacity(expected),
            consumed: 0,
            queued: Default::default(),
            staged: Vec::new(),
            calls: 0,
        };
        // Warm-up: one batch of every ragged size on every shard, so the
        // replicas' scratch and the engine's pools reach steady state.
        for size in 1..=CAP {
            for shard in 0..SHARDS {
                let now = d.now_us();
                for _ in 0..size {
                    d.submit(now, now * 1000, shard);
                }
            }
            d.wait_idle();
        }
        // And one burst, so the request pools reach the high-water mark a
        // stall leaves behind (a closed batch per shard plus a full queue).
        d.burst(4 * CAP * SHARDS);
        d
    }

    fn now_us(&self) -> u64 {
        self.tracer.now_ns() / 1000
    }

    /// Applies to the mirror what a call at `now_us` does in the engine:
    /// deadline closes, then dispatch of everything ready before `now_us`.
    fn mirror_call(&mut self, now_us: u64) {
        for q in &mut self.queued {
            if let Some(&head) = q.front() {
                if head + DEADLINE_US <= now_us {
                    self.staged.push((head + DEADLINE_US, q.len()));
                    q.clear();
                }
            }
        }
        self.staged.retain(|&(ready, _)| ready >= now_us);
    }

    fn submit(&mut self, now_us: u64, due_ns: u64, shard: usize) {
        let id = self.due_ns.len();
        let img = self.rng.below(N_IMAGES);
        self.image_of.push(img as u32);
        self.due_ns.push(due_ns);
        self.seen_ns.push(0);
        self.completions_seen.push(0);
        self.mirror_call(now_us);
        let start = self.tracer.now_ns();
        let Self {
            engine,
            images,
            tracer,
            ..
        } = self;
        let pixels = images.image(img);
        let got = tracer.span(0, "serve.submit", id as u64, || {
            engine.submit(now_us, shard, &mut |px| px.copy_from_slice(pixels))
        });
        self.submit_ns.push((start, self.tracer.now_ns()));
        assert_eq!(got as usize, id, "engine ids follow submission order");
        let q = &mut self.queued[shard];
        q.push_back(now_us);
        if q.len() >= CAP {
            self.staged.push((now_us, q.len()));
            q.clear();
        }
        self.after_call();
    }

    fn advance(&mut self, now_us: u64) {
        self.mirror_call(now_us);
        let Self {
            engine,
            tracer,
            calls,
            ..
        } = self;
        tracer.span(0, "serve.advance", u64::MAX - *calls, || {
            engine.advance(now_us)
        });
        self.calls += 1;
        self.after_call();
    }

    /// Records the completions the last call produced, seen now.
    fn after_call(&mut self) {
        let now = self.tracer.now_ns();
        let done = self.engine.completions();
        for c in &done[self.consumed..] {
            let id = c.id as usize;
            self.seen_ns[id] = now;
            self.completions_seen[id] += 1;
            self.model_latency_us.push(c.latency_us());
        }
        self.consumed = done.len();
        let mirrored: usize = self.queued.iter().map(VecDeque::len).sum::<usize>()
            + self.staged.iter().map(|s| s.1).sum::<usize>();
        assert_eq!(
            self.engine.pending(),
            mirrored,
            "client's view of the batcher diverged from the engine"
        );
    }

    /// The next engine time at which a call has work to do.
    fn next_poll_us(&self) -> Option<u64> {
        let deadlines = self
            .queued
            .iter()
            .filter_map(|q| q.front().map(|h| h + DEADLINE_US));
        let staged = self.staged.iter().map(|s| s.0);
        deadlines.chain(staged).min().map(|t| t + 1)
    }

    fn wait_idle(&mut self) {
        while let Some(at) = self.next_poll_us() {
            let now = self.now_us();
            if now >= at {
                self.advance(now);
            } else {
                std::hint::spin_loop();
            }
        }
    }

    /// Runs Poisson arrivals at `rate` for `seconds`, then waits until
    /// every request of the phase has completed.
    fn phase(&mut self, rate: f64, seconds: f64, seed: u64) -> Phase {
        let arrivals = Arrival::Poisson {
            mean_gap_us: 1e6 / rate,
            seed,
        };
        let horizon_us = (seconds * 1e6) as u64;
        let offsets: Vec<u64> = arrivals
            .timestamps(0)
            .take_while(|&t| t < horizon_us)
            .collect();
        self.schedule(&offsets)
    }

    /// Completed requests per second when `n` requests are all due at
    /// once: the engine saturated, batches closing at the cap.
    fn burst(&mut self, n: usize) -> f64 {
        let p = self.schedule(&vec![0; n]);
        let span_ns =
            (p.first..p.end).map(|i| self.seen_ns[i]).max().unwrap_or(0) - self.due_ns[p.first];
        n as f64 / (span_ns as f64 / 1e9)
    }

    /// Submits requests due at `offsets` (µs from a start 1 ms ahead),
    /// polling the engine in between, until all have completed.
    fn schedule(&mut self, offsets: &[u64]) -> Phase {
        let t0_ns = self.tracer.now_ns() + 1_000_000;
        let first = self.due_ns.len();
        let mut next = 0;
        loop {
            let now_ns = self.tracer.now_ns();
            let now = now_ns / 1000;
            if next < offsets.len() && t0_ns + offsets[next] * 1000 <= now_ns {
                let shard = (first + next) % SHARDS;
                self.submit(now, t0_ns + offsets[next] * 1000, shard);
                next += 1;
            } else if self.next_poll_us().is_some_and(|at| at <= now) {
                self.advance(now);
            } else if next == offsets.len() && self.next_poll_us().is_none() {
                break;
            } else {
                std::hint::spin_loop();
            }
        }
        let end = self.due_ns.len();
        let latency_ms = (first..end)
            .map(|i| (self.seen_ns[i] - self.due_ns[i]) as f64 / 1e6)
            .collect();
        let late_ms = (first..end)
            .map(|i| (self.submit_ns[i].0.saturating_sub(self.due_ns[i])) as f64 / 1e6)
            .collect();
        Phase {
            first,
            end,
            latency_ms,
            late_ms,
        }
    }

    /// Of the requests from id `first` on: how many did not complete
    /// exactly once, how many sampled ones have logits that differ from a
    /// direct single-sample inference bitwise, and how many were sampled.
    fn output_errors(&self, seed: u64, first: usize) -> (usize, usize, usize) {
        let lost = self.completions_seen[first..]
            .iter()
            .filter(|&&c| c != 1)
            .count();
        let mut session = InferSession::new(Model::Lenet.build(seed));
        let sampled: Vec<_> = self
            .engine
            .backend()
            .sampled
            .iter()
            .filter(|(id, _)| *id as usize >= first)
            .collect();
        let mismatched = sampled
            .iter()
            .filter(|(id, logits)| {
                let img = self.images.image(self.image_of[*id as usize] as usize);
                let want = session.infer(1, img);
                !want
                    .iter()
                    .zip(logits)
                    .all(|(a, b)| a.to_bits() == b.to_bits())
            })
            .count();
        (lost, mismatched, sampled.len())
    }
}

fn expected(seconds: f64) -> usize {
    (seconds * 12_000.0) as usize + 4096
}

/// Replica build, pool spawn and warm-up batches.
fn setup<'t>(seed: u64, tracer: &'t Tracer, seconds: f64) -> (Client<'t>, f64) {
    let t = Instant::now();
    let d = Client::new(seed, tracer, expected(seconds));
    (d, t.elapsed().as_secs_f64())
}

pub fn run_untraced(seed: u64, seconds: f64) -> Report {
    let mut report = Report::default();
    let tracer = Tracer::off();
    let mut setups = Vec::new();
    for _ in 0..4 {
        setups.push(setup(seed, &tracer, seconds).1);
    }
    let (mut d, secs) = setup(seed, &tracer, seconds);
    setups.push(secs);
    let first = d.due_ns.len();
    // One-second stretches of the fixed-rate open loop alternate with
    // saturation bursts for 80% of the run, so both metrics sample the
    // same stretch of machine time.
    let start = Instant::now();
    let mut fixed = Phase {
        first: 0,
        end: 0,
        latency_ms: Vec::new(),
        late_ms: Vec::new(),
    };
    let (mut fixed_allocs, mut bursts) = (0, Vec::new());
    let mut chunk = 0u64;
    while bursts.len() < 3 || start.elapsed().as_secs_f64() < 0.8 * seconds {
        let warm = d.engine.pool_stats();
        let p = d.phase(RATE, 1.0, seed.wrapping_add(chunk.wrapping_mul(0x9E37)));
        fixed_allocs += d.engine.pool_stats().since(&warm).allocations();
        fixed.latency_ms.extend(p.latency_ms);
        fixed.late_ms.extend(p.late_ms);
        bursts.push(d.burst(BURST));
        chunk += 1;
    }

    // The rate ladder, walked down from the saturation throughput:
    // the first rate whose p99 meets the limit without a growing
    // backlog. Each step is long enough for a p99 with ten samples
    // beyond it.
    let capacity = median(&bursts);
    let mut best = 0.0;
    let mut steps = Vec::new();
    for (k, frac) in LADDER.into_iter().enumerate() {
        let rate = capacity * frac;
        let step_s = 1100.0 / rate;
        if start.elapsed().as_secs_f64() + step_s > seconds {
            break;
        }
        let p = d.phase(rate, step_s, seed.wrapping_add(k as u64 + 1));
        let ok = p.meets_slo();
        steps.push(format!(
            "{rate:.0}:{:.2}ms{}",
            p.p99(),
            if ok { "" } else { "x" }
        ));
        if ok {
            best = rate;
            break;
        }
    }
    d.engine.drain();
    d.after_call();

    common_checks(&mut report, &d, seed, first, fixed_allocs, &fixed);
    report.note(format!(
        "ladder p99 per rate, down from saturation (x = missed): {}",
        steps.join(" ")
    ));
    report.median("setup_s", "s", setups);
    report.value("peak_rss_mb", "MB", peak_rss_mb());
    report.median("throughput_per_s", "1/s", bursts);
    report.extra(
        "serve_max_qps_slo (ladder; a long stall fails a step)",
        "1/s",
        vec![best],
    );
    report.median("latency_p50_ms", "ms", fixed.latency_ms.clone());
    report.extra(
        format!("serve_p99_ms.r{:.0} (as p99 of N)", RATE),
        "ms",
        vec![fixed.p99()],
    );
    report.extra("serve.generator_late_ms", "ms", fixed.late_ms.clone());
    report.extra(
        "model.latency_ms (alpha-beta model output, not measured)",
        "ms",
        d.model_latency_us.iter().map(|us| us / 1e3).collect(),
    );
    report
}

/// Checks the outputs of every request submitted from id `first` on; a
/// request that did not complete exactly once, or whose sampled logits
/// differ, is a failed operation.
fn common_checks(
    report: &mut Report,
    d: &Client,
    seed: u64,
    first: usize,
    allocs: u64,
    fixed: &Phase,
) {
    let (lost, mismatched, sampled) = d.output_errors(seed, first);
    report.attempted = (d.completions_seen.len() - first) as u64;
    report.failed = (lost + mismatched) as u64;
    report.check(
        "serve.completed_exactly_once",
        lost == 0 && d.engine.pending() == 0,
        format!(
            "{} requests, {lost} not completed exactly once",
            report.attempted
        ),
    );
    report.check(
        "serve.logits_bitwise_direct_infer",
        mismatched == 0 && sampled > 0,
        format!("{sampled} sampled requests, {mismatched} differ"),
    );
    let misses = fixed.latency_ms.iter().filter(|&&l| l > SLO_MS).count();
    report.extra(
        "serve.slo_misses (fixed rate, over 20 ms)",
        "count",
        vec![misses as f64],
    );
    report.finding(
        "serve.pool_allocs_steady_zero",
        allocs == 0,
        format!("{allocs} pooled allocations in the fixed-rate phase"),
    );
    report.note(format!(
        "fixed rate {RATE:.0} req/s: p50 {:.3} ms, p99 {:.3} ms over {} requests",
        median(&fixed.latency_ms),
        fixed.p99(),
        fixed.latency_ms.len()
    ));
}

pub fn run_traced(seed: u64, seconds: f64, out: &std::path::Path) -> Report {
    let mut report = Report::default();
    // Untraced reference pass, for the tracing overhead.
    let off = Tracer::off();
    let (mut d, _) = setup(seed, &off, seconds);
    let reference = d.phase(RATE, 0.3 * seconds, seed);
    drop(d);

    let tracer = Tracer::on(1, expected(seconds) * 3);
    let (mut d, setup_s) = setup(seed, &tracer, seconds);
    report.note(format!(
        "setup {setup_s:.3} s (one setup in the traced run)"
    ));
    let warm = d.engine.pool_stats();
    let calls_before = d.calls;
    let fixed = d.phase(RATE, 0.3 * seconds, seed);
    let allocs = d.engine.pool_stats().since(&warm).allocations();
    common_checks(&mut report, &d, seed, fixed.first, allocs, &fixed);
    let n = (fixed.end - fixed.first) as f64;

    let backend = d.engine.backend();
    let mut batch_of = vec![usize::MAX; d.due_ns.len()];
    for (b, &(_, _, first, len)) in backend.batches.iter().enumerate() {
        for &id in &backend.batch_ids[first..first + len] {
            batch_of[id as usize] = b;
        }
    }
    // Per request: due → submit (generator lateness) → submit returns
    // → its batch starts (queue wait) → batch ends → completion seen.
    // The parts tile the latency when every batch runs after its
    // requests' submits returned and before their completions are seen.
    let (mut queue_ms, mut pickup_ms) = (Vec::new(), Vec::new());
    let (mut run_ms, mut sizes) = (Vec::new(), Vec::new());
    let mut ordered = true;
    let phase_batches = batch_of
        .iter()
        .enumerate()
        .take(fixed.end)
        .skip(fixed.first);
    for (id, &b) in phase_batches {
        let (b_start, b_end, _, _) = backend.batches[b];
        let (_, s_end) = d.submit_ns[id];
        ordered &= s_end <= b_start && b_end <= d.seen_ns[id];
        queue_ms.push(b_start.saturating_sub(s_end) as f64 / 1e6);
        pickup_ms.push(d.seen_ns[id].saturating_sub(b_end) as f64 / 1e6);
    }
    for &(s, e, first, len) in &backend.batches {
        if backend.batch_ids[first] as usize >= fixed.first {
            run_ms.push((e - s) as f64 / 1e6);
            sizes.push(len as f64);
        }
    }
    d.engine.drain();
    d.after_call();
    let pixels: Vec<f32> = (0..32).flat_map(|i| d.images.image(i).to_vec()).collect();
    let labels: Vec<usize> = (0..32).map(|i| d.images.label(i)).collect();
    drop(d);
    let trace = tracer.finish();
    let attr = trace.attribute();
    let mut engine_self_ns = 0u64;
    for (i, s) in trace.spans.iter().enumerate() {
        let in_phase = match s.name {
            "serve.submit" => (s.id as usize) >= fixed.first && (s.id as usize) < fixed.end,
            "serve.advance" => u64::MAX - s.id >= calls_before,
            _ => false,
        };
        if in_phase {
            engine_self_ns += attr.self_ns[i];
        }
    }
    report.check(
        "serve.request_parts_ordered",
        ordered,
        format!(
            "submit <= batch start <= batch end <= seen for {} requests; completion pickup after the batch {:.4} ms median",
            queue_ms.len(),
            median(&pickup_ms)
        ),
    );
    report.median("serve.queue_wait_ms_p50", "ms", queue_ms.clone());
    report.value("serve.queue_wait_ms_p99", "ms", quantile(&queue_ms, 0.99));
    report.median("serve.run_batch_ms_p50", "ms", run_ms);
    report.value(
        "serve.engine_self_us_per_req",
        "us",
        engine_self_ns as f64 / 1e3 / n,
    );
    report.value(
        "serve.batch_fill_ratio",
        "frac",
        sizes.iter().sum::<f64>() / sizes.len() as f64 / CAP as f64,
    );
    report.value("serve.pool_allocs_per_req", "count", allocs as f64 / n);
    report.value(
        "serve.generator_late_ms_p99",
        "ms",
        quantile(&fixed.late_ms, 0.99),
    );
    report.value(
        "trace.overhead_frac",
        "frac",
        median(&fixed.latency_ms) / median(&reference.latency_ms) - 1.0,
    );

    // Layer probes: the served model's layers and kernels.
    let lenet = Model::Lenet.build(seed);
    // The served model's layers in eval mode at the batch cap.
    let (sum_layers, step_ms, allocs_per_call) = probe::nn_layers(
        &mut report,
        Model::Lenet,
        &lenet,
        &pixels[..CAP * 784],
        &labels[..CAP],
        false,
    );
    probe::nn_layers_absent(&mut report, Model::Wide);
    report.value("nn.layer_residual_ms", "ms", step_ms - sum_layers);
    report.value("nn.scratch_allocs_per_step", "count", allocs_per_call);
    report.finding(
        "serve.infer_scratch_allocs_steady_zero",
        allocs_per_call == 0.0,
        format!("{allocs_per_call:.4} pooled scratch allocations per warm infer call"),
    );
    probe::nn_infer(&mut report, &lenet, &pixels[..8 * 784]);
    probe::tensor_kernels(&mut report, seed);
    crate::train::train_layers_absent(&mut report);

    let path = out.join(format!("trace_serve_r{:.0}_{seed}.json", RATE));
    match trace.write_chrome(&path) {
        Ok(()) => report.note(format!("trace written to {}", path.display())),
        Err(e) => report.note(format!("trace not written: {e}")),
    }
    report
}

/// Zeros for the serve-layer metrics on the training workloads, which
/// spend no time in the serve layer.
pub fn serve_layers_absent(report: &mut Report) {
    for (name, unit) in SERVE_LAYER_METRICS {
        report.value(name, unit, 0.0);
    }
}

const SERVE_LAYER_METRICS: [(&str, &str); 7] = [
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.queue_wait_ms_p99", "ms"),
    ("serve.run_batch_ms_p50", "ms"),
    ("serve.engine_self_us_per_req", "us"),
    ("serve.batch_fill_ratio", "frac"),
    ("serve.pool_allocs_per_req", "count"),
    ("serve.generator_late_ms_p99", "ms"),
];
