// xtask: allow(wall-clock) — a benchmark harness measures real time by
// definition; the pragma is confined to this bench timer binary.
//! Micro-batching inference latency/QPS harness — `BENCH_serve.json`.
//!
//! Two halves, split by what can be deterministic:
//!
//! * **Executed** — real LeNet replicas served through
//!   `ServeEngine<ReplicaSet>`: proves the zero-pooled-allocations
//!   steady state on the real forward path (the counters are exact
//!   integers, machine-independent) and the bitwise eval contract (a
//!   ragged dispatch returns the bits of the full-batch forward).
//!   Wall-clock QPS from this half goes to **stdout only**. The one
//!   wall-clock number in the JSON is the labelled `measured_service`
//!   block: `step(B)` of one (prepacked) replica timed for B = 1..=cap
//!   and fitted to `α + β·B` with its R² — the calibration the sweep's
//!   pinned model will be checked against. It is host-dependent and
//!   outside `sim_bit_identical`, and does not yet drive the sweep.
//! * **Simulated** — the open-loop latency sweep and the batching
//!   throughput ratio, computed on logical time under the pinned
//!   [`ServiceModel`] (α = per-dispatch overhead, β = per-sample
//!   forward time from the M40 compute model — the serving twin of the
//!   paper's §5.2 α-β analysis). Every number is a pure function of the
//!   seeds, so the JSON is bit-identical across runs; the harness
//!   *verifies* that by running the whole sweep twice and comparing the
//!   rendered bytes (`sim_bit_identical`).
//!
//! ```text
//! cargo run --release -p easgd-bench --bin serve            # full run, writes JSON
//! cargo run --release -p easgd-bench --bin serve -- --smoke # short run + validate checked-in JSON
//! cargo run --release -p easgd-bench --bin serve -- --out p # write JSON to `p`
//! ```
//!
//! Acceptance (checked in, re-validated by `--smoke` in CI):
//! `qps_batch8_over_batch1 ≥ 3` (batching must amortize dispatch
//! overhead), `steady_state_allocs_per_request = 0`,
//! `p99_within_deadline_bound` (for the non-burst arrival processes,
//! p99 ≤ T + 2·step(cap)), `sim_bit_identical`, and `eval_bitwise_ok`.

use easgd_bench::{arg_value, linear_fit, schema};
use easgd_hardware::ComputeModel;
use easgd_nn::models::lenet;
use easgd_serve::{
    summarize, Arrival, BatcherConfig, LatencySummary, NullBackend, ReplicaSet, ServeEngine,
    ServiceModel,
};
use easgd_tensor::par::{with_pool, PartitionedPool};
use easgd_tensor::{Rng, Tensor};
use std::hint::black_box;
use std::time::Instant;

/// Per-dispatch fixed cost α (µs): per-layer kernel launches on the
/// paper's GPU-era serving stack plus batcher hand-off and response
/// framing. α/β ≈ 55, firmly in the regime where batching pays.
const FIXED_US: f64 = 80.0;

/// LeNet per-sample forward flops (conv1 576 k + conv2 3.2 M + fc1
/// 800 k + fc2 10 k): β comes from running these on the M40 model.
const LENET_FWD_FLOPS: f64 = 4_586_000.0;

/// Shards (= replicas) in every configuration.
const SHARDS: usize = 2;

/// Coalescing deadline T (µs).
const DEADLINE_US: u64 = 300;

/// Batch caps swept.
const CAPS: [usize; 3] = [1, 4, 8];

/// The executed replicas' batch cap (the largest swept cap).
const EXEC_CAP: usize = 8;

/// One sim sweep row.
struct SweepRow {
    arrival: &'static str,
    rate_per_s: f64,
    cap: usize,
    summary: LatencySummary,
}

fn service_model() -> ServiceModel {
    ServiceModel::new(FIXED_US, ComputeModel::m40().time(LENET_FWD_FLOPS) * 1e6)
}

/// The swept arrival processes, all at 4 000 requests/s mean rate. The
/// burst process fires 8 same-instant arrivals (across both shards —
/// the `(ready, shard)` tie-break case) every 2 ms.
fn arrivals() -> [Arrival; 3] {
    [
        Arrival::Uniform { period_us: 250 },
        Arrival::Poisson {
            mean_gap_us: 250.0,
            seed: 0xEA5E,
        },
        Arrival::Burst {
            size: 8,
            gap_us: 2000,
        },
    ]
}

/// One open-loop sim run: `n` arrivals round-robined over the shards,
/// then a drain. Pure logical time — identical numbers every run.
fn run_sim(arrival: Arrival, cap: usize, n: usize) -> LatencySummary {
    let mut engine = ServeEngine::new(
        BatcherConfig {
            shards: SHARDS,
            batch_cap: cap,
            deadline_us: DEADLINE_US,
            sample_len: 0,
        },
        service_model(),
        NullBackend,
    );
    engine.reserve(n);
    for (i, t) in arrival.timestamps(0).take(n).enumerate() {
        let _ = engine.submit(t, i % SHARDS, &mut |_px| {});
    }
    engine.drain();
    summarize(engine.completions())
}

/// The full latency sweep (9 rows: 3 arrival processes × 3 caps).
fn run_sweep(n: usize) -> Vec<SweepRow> {
    let mut rows = Vec::new();
    for arrival in arrivals() {
        for cap in CAPS {
            rows.push(SweepRow {
                arrival: arrival.label(),
                rate_per_s: arrival.rate_per_s(),
                cap,
                summary: run_sim(arrival, cap, n),
            });
        }
    }
    rows
}

/// Measured saturation throughput ratio QPS(cap 8)/QPS(cap 1): offered
/// load (1 M req/s) far above even the cap-8 capacity (~175 k req/s on
/// this model), so sustained QPS converges to the server's `B/step(B)`
/// capacity and the ratio approaches `step(1)/step(8)·8 ≈ 7.1`.
fn saturation_ratio(n: usize) -> f64 {
    let sat = |cap| run_sim(Arrival::Uniform { period_us: 1 }, cap, n).qps;
    sat(8) / sat(1)
}

/// Executed half: real LeNet replicas. Returns (allocs per request at
/// steady state, eval bitwise ok, wall QPS, requests measured, measured
/// service curve).
fn run_executed(smoke: bool) -> (f64, bool, f64, usize, MeasuredService) {
    let sample_len: usize = 28 * 28;
    let mut rng = Rng::new(0x5EED);
    let pool: Vec<f32> = (0..sample_len * 64).map(|_| rng.uniform()).collect();

    // Bitwise eval contract: ragged session batches reproduce the rows
    // of the full-batch allocating forward exactly.
    let mut reference = lenet(101);
    let full = 8usize;
    let x_full = Tensor::from_vec([full, 1, 28, 28], pool[..full * sample_len].to_vec());
    let y_full = reference.forward(&x_full, false);
    let classes = reference.num_classes();
    let mut session = easgd_serve::InferSession::new(lenet(101));
    let mut bitwise_ok = true;
    for (start, k) in [(0usize, 1usize), (2, 3), (4, 4), (0, 8)] {
        let got = session.infer(k, &pool[start * sample_len..(start + k) * sample_len]);
        bitwise_ok &= got == &y_full.as_slice()[start * classes..(start + k) * classes];
    }

    // Steady-state allocation audit + wall throughput on the sharded
    // replica set (equal seeds; shard outputs are interchangeable).
    let mut engine = ServeEngine::new(
        BatcherConfig {
            shards: SHARDS,
            batch_cap: EXEC_CAP,
            deadline_us: DEADLINE_US,
            sample_len,
        },
        service_model(),
        ReplicaSet::new(vec![lenet(101), lenet(101)]),
    );
    // Warm-up must cover the peak concurrent-request population (queue
    // depth grows over the first few deadline/gap cycles), so it stays
    // at 128 even for smoke; only the measured window shrinks.
    let (warm_n, measure_n) = if smoke { (128, 64) } else { (128, 512) };
    engine.reserve(warm_n + measure_n + 8);
    let mut t = 0u64;
    let submit = |engine: &mut ServeEngine<ReplicaSet>, t: &mut u64, i: usize| {
        // A ragged schedule: mostly cap-closes with periodic idle gaps
        // that force deadline-closes of partial batches.
        *t += if i.is_multiple_of(11) { 5_000 } else { 40 };
        let src = &pool[(i % 56) * sample_len..(i % 56 + 1) * sample_len];
        let _ = engine.submit(*t, i % SHARDS, &mut |px| px.copy_from_slice(src));
    };
    for i in 0..warm_n {
        submit(&mut engine, &mut t, i);
    }
    t += DEADLINE_US + 1;
    engine.advance(t);
    let warm_stats = engine.pool_stats();

    let wall = Instant::now();
    for i in 0..measure_n {
        submit(&mut engine, &mut t, i + warm_n);
    }
    t += DEADLINE_US + 1;
    engine.advance(t);
    let wall_s = wall.elapsed().as_secs_f64();
    let delta = engine.pool_stats().since(&warm_stats);
    let allocs_per_request = delta.allocations() as f64 / measure_n as f64;
    (
        allocs_per_request,
        bitwise_ok,
        measure_n as f64 / wall_s.max(1e-12),
        measure_n,
        measure_service(&pool, sample_len, smoke),
    )
}

/// Measured `step(B)` of one executed replica and its `α + β·B` fit.
struct MeasuredService {
    /// Median wall time of one `infer` call, B = 1..=EXEC_CAP (µs).
    step_us: Vec<f64>,
    fixed_us: f64,
    per_sample_us: f64,
    r2: f64,
}

/// Times `step(B)` for B = 1..=EXEC_CAP on one served LeNet replica (a
/// gradient-stripped, prepacked `InferSession`), inside group 0 of a
/// `SHARDS`-way partitioned pool exactly as a `ReplicaSet` shard runs,
/// then least-squares fits `α + β·B`. Every B is warmed once; the timed
/// calls then cycle through B = 1..=EXEC_CAP `reps` times, so a slow
/// stretch of the host hits every B alike, and each B keeps its median.
fn measure_service(pool: &[f32], sample_len: usize, smoke: bool) -> MeasuredService {
    let part = PartitionedPool::new(SHARDS);
    let mut session = easgd_serve::InferSession::new(lenet(101));
    let reps = if smoke { 9 } else { 201 };
    let mut times: Vec<Vec<f64>> = (0..EXEC_CAP).map(|_| Vec::with_capacity(reps)).collect();
    with_pool(part.group(0), || {
        for b in 1..=EXEC_CAP {
            let _ = session.infer(b, &pool[..b * sample_len]);
        }
        for _ in 0..reps {
            for (b, t_b) in (1..=EXEC_CAP).zip(&mut times) {
                let t = Instant::now();
                black_box(session.infer(b, &pool[..b * sample_len]));
                t_b.push(t.elapsed().as_secs_f64() * 1e6);
            }
        }
    });
    let step_us: Vec<f64> = times
        .iter_mut()
        .map(|t| {
            t.sort_by(f64::total_cmp);
            t[reps / 2]
        })
        .collect();
    let batch: Vec<f64> = (1..=EXEC_CAP).map(|b| b as f64).collect();
    let (fixed_us, per_sample_us, r2) = linear_fit(&batch, &step_us);
    MeasuredService {
        step_us,
        fixed_us,
        per_sample_us,
        r2,
    }
}

struct Acceptance {
    qps_ratio: f64,
    allocs_per_request: f64,
    p99_bound_ok: bool,
    sim_bit_identical: bool,
    eval_bitwise_ok: bool,
}

/// p99 ≤ T + 2·step(cap) for the non-burst processes. (A burst of 8
/// into cap 1 intentionally overloads one instant — its backlog is the
/// tie-break stress case, not a deadline-scheduling claim.)
fn p99_bound_holds(rows: &[SweepRow], model: ServiceModel) -> bool {
    rows.iter()
        .filter(|r| r.arrival != "burst")
        .all(|r| r.summary.p99_us <= DEADLINE_US as f64 + 2.0 * model.step_us(r.cap) + 1e-9)
}

fn render_rows(rows: &[SweepRow]) -> String {
    let mut out = String::new();
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"arrival\": \"{}\", \"rate_per_s\": {:.1}, \"batch_cap\": {}, \
             \"p50_us\": {:.3}, \"p99_us\": {:.3}, \"p999_us\": {:.3}, \"max_us\": {:.3}, \
             \"qps\": {:.2}}}{}\n",
            r.arrival,
            r.rate_per_s,
            r.cap,
            r.summary.p50_us,
            r.summary.p99_us,
            r.summary.p999_us,
            r.summary.max_us,
            r.summary.qps,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    out
}

fn render_json(
    rows: &[SweepRow],
    acc: &Acceptance,
    model: ServiceModel,
    measured: &MeasuredService,
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": 1,\n");
    out.push_str("  \"generated_by\": \"cargo run --release -p easgd-bench --bin serve\",\n");
    out.push_str(&format!(
        "  \"threads\": {},\n",
        easgd_tensor::par::max_threads()
    ));
    out.push_str(&format!(
        "  \"service_model\": {{\"fixed_us\": {:.3}, \"per_sample_us\": {:.4}, \
         \"shards\": {SHARDS}, \"deadline_us\": {DEADLINE_US}}},\n",
        model.fixed_us, model.per_sample_us
    ));
    let steps: Vec<String> = measured.step_us.iter().map(|s| format!("{s:.2}")).collect();
    out.push_str(&format!(
        "  \"measured_service\": {{\"label\": \"wall-clock step(B) of one prepacked LeNet \
         replica in one of {SHARDS} pool groups, B = 1..{EXEC_CAP}, least-squares fit alpha + beta*B; \
         host-dependent, not part of sim_bit_identical, not yet driving the sweep\", \
         \"fixed_us\": {:.3}, \"per_sample_us\": {:.4}, \"r2\": {:.4}, \"step_us\": [{}]}},\n",
        measured.fixed_us,
        measured.per_sample_us,
        measured.r2,
        steps.join(", ")
    ));
    out.push_str("  \"acceptance\": {\n");
    out.push_str(&format!(
        "    \"qps_batch8_over_batch1\": {:.2},\n",
        acc.qps_ratio
    ));
    out.push_str(&format!(
        "    \"steady_state_allocs_per_request\": {:.2},\n",
        acc.allocs_per_request
    ));
    out.push_str(&format!(
        "    \"p99_within_deadline_bound\": {},\n",
        acc.p99_bound_ok
    ));
    out.push_str(&format!(
        "    \"sim_bit_identical\": {},\n",
        acc.sim_bit_identical
    ));
    out.push_str(&format!(
        "    \"eval_bitwise_ok\": {}\n",
        acc.eval_bitwise_ok
    ));
    out.push_str("  },\n");
    out.push_str("  \"entries\": [\n");
    out.push_str(&render_rows(rows));
    out.push_str("  ]\n}\n");
    out
}

/// `--smoke` re-validates the checked-in artifact, so CI fails if a
/// regeneration lands below the bar (or never lands at all).
fn validate_checked_in(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let serve_schema = schema::SCHEMAS
        .iter()
        .find(|s| s.file == "BENCH_serve.json")
        .ok_or("BENCH_serve.json missing from the schema registry")?;
    schema::validate_text(serve_schema, &text)?;
    let ratio = schema::json_number(&text, "qps_batch8_over_batch1")
        .ok_or("missing qps_batch8_over_batch1")?;
    let allocs = schema::json_number(&text, "steady_state_allocs_per_request")
        .ok_or("missing steady_state_allocs_per_request")?;
    if ratio < 3.0 {
        return Err(format!("qps_batch8_over_batch1 = {ratio}, want >= 3"));
    }
    if allocs != 0.0 {
        return Err(format!(
            "steady_state_allocs_per_request = {allocs}, want 0"
        ));
    }
    Ok(())
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (sweep_n, sat_n) = if smoke {
        (600, 1_000)
    } else {
        (20_000, 20_000)
    };
    let model = service_model();

    let rows = run_sweep(sweep_n);
    let qps_ratio = saturation_ratio(sat_n);
    // Re-run the whole simulated half and compare rendered bytes: the
    // claim that every JSON number is seed-deterministic, enforced.
    let rows2 = run_sweep(sweep_n);
    let sim_bit_identical =
        render_rows(&rows) == render_rows(&rows2) && qps_ratio == saturation_ratio(sat_n);

    let (allocs_per_request, eval_bitwise_ok, wall_qps, measured, service) = run_executed(smoke);

    let acc = Acceptance {
        qps_ratio,
        allocs_per_request,
        p99_bound_ok: p99_bound_holds(&rows, model),
        sim_bit_identical,
        eval_bitwise_ok,
    };

    println!(
        "{:<9} {:>10} {:>5} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "arrival", "rate/s", "cap", "p50 µs", "p99 µs", "p999 µs", "max µs", "qps"
    );
    for r in &rows {
        println!(
            "{:<9} {:>10.0} {:>5} {:>10.1} {:>10.1} {:>10.1} {:>10.1} {:>10.0}",
            r.arrival,
            r.rate_per_s,
            r.cap,
            r.summary.p50_us,
            r.summary.p99_us,
            r.summary.p999_us,
            r.summary.max_us,
            r.summary.qps
        );
    }
    println!(
        "\nqps(8)/qps(1) {:.2} | allocs/request {:.2} | p99 bound {} | sim bit-identical {} | eval bitwise {}",
        acc.qps_ratio, acc.allocs_per_request, acc.p99_bound_ok, acc.sim_bit_identical, acc.eval_bitwise_ok
    );
    println!(
        "executed LeNet replicas: {measured} requests at {wall_qps:.0} req/s wall (host-dependent; stdout only)"
    );
    println!(
        "measured service: step(B) = {:.1} + {:.2}·B µs (R² {:.3}); per B: {:?}",
        service.fixed_us, service.per_sample_us, service.r2, service.step_us
    );

    let default_out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");
    let out_path = arg_value("--out").unwrap_or_else(|| default_out.to_string());
    if smoke {
        // Structural invariants that hold at any run length.
        for (what, ok) in [
            (
                "pooled request path allocated",
                acc.allocs_per_request == 0.0,
            ),
            ("sim numbers not deterministic", acc.sim_bit_identical),
            ("ragged eval diverged bitwise", acc.eval_bitwise_ok),
            ("batching ratio under 3x", acc.qps_ratio >= 3.0),
            ("p99 deadline bound violated", acc.p99_bound_ok),
        ] {
            if !ok {
                eprintln!("smoke: {what}");
                std::process::exit(1);
            }
        }
        match validate_checked_in(&out_path) {
            Ok(()) => println!("smoke run ok; checked-in {out_path} acceptance holds"),
            Err(e) => {
                eprintln!("checked-in {out_path} fails acceptance: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    let json = render_json(&rows, &acc, model, &service);
    match std::fs::write(&out_path, &json) {
        Ok(()) => println!("\nwrote {out_path}"),
        Err(e) => {
            eprintln!("failed to write {out_path}: {e}");
            std::process::exit(1);
        }
    }
}
