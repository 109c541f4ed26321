//! The repository's benchmark. One command runs one workload:
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--allow-scalar]
//! ```
//!
//! With `--trace 0` it measures the end-to-end metrics with tracing off;
//! with `--trace 1` it records spans around every call the benchmark
//! makes into a layer and reports the per-layer metrics. Either way it
//! checks the outputs, prints a table (name, unit, median, highest valid
//! percentile, N) and, as the last line of standard output, one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. Workloads,
//! metrics and the layer → end-to-end mapping are described in
//! `BENCHMARK.json` and `perfbench/mapping.json`.

mod probe;
mod serve;
mod stats;
mod trace;
mod train;

use std::path::Path;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    allow_scalar: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        allow_scalar: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                }
            }
            "--allow-scalar" => args.allow_scalar = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // DESIGN.md §8.3: a RUSTFLAGS in the environment makes cargo drop the
    // repository's target-cpu=native, and the scalar FMA fallback is
    // ~20x slower — a fake regression. Refuse unless asked.
    let tier = easgd_tensor::active_tier();
    let rustflags_at_build = option_env!("RUSTFLAGS").is_some();
    println!(
        "env    workload={} seed={} seconds={} trace={} nproc={} pool_threads={} cluster_backend=events simd_tier={} rustflags_at_build={} rustflags_now={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        easgd_tensor::par::max_threads(),
        easgd_tensor::par::pool().threads(),
        tier,
        rustflags_at_build,
        std::env::var_os("RUSTFLAGS").is_some(),
    );
    if !tier.contains("avx") && !args.allow_scalar {
        eprintln!(
            "perfbench: SIMD tier '{tier}' has no FMA microkernel (RUSTFLAGS set at build: {rustflags_at_build}); \
             results would not be comparable. Rebuild without RUSTFLAGS or pass --allow-scalar."
        );
        return ExitCode::from(3);
    }
    let out = Path::new(".bench_out");
    let (seed, secs) = (args.seed, args.seconds);
    let report = match (args.workload.as_str(), args.trace) {
        ("train_lenet_sync", false) => train::LENET.run_untraced(seed, secs),
        ("train_lenet_sync", true) => train::LENET.run_traced(seed, secs, out),
        ("train_wide_sync", false) => train::WIDE.run_untraced(seed, secs),
        ("train_wide_sync", true) => train::WIDE.run_traced(seed, secs, out),
        ("serve_lenet_open", false) => serve::run_untraced(seed, secs),
        ("serve_lenet_open", true) => serve::run_traced(seed, secs, out),
        (other, _) => {
            eprintln!("perfbench: unknown workload '{other}'");
            return ExitCode::from(2);
        }
    };
    report.print();
    ExitCode::SUCCESS
}
