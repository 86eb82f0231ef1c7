//! Benchmark command:
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload plan|serve-steady|serve-churn [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Prints the run context, each figure by name and unit, and as its
//! last line one JSON object: `correct`, `attempted`, `failed` and the
//! end-to-end metrics (`--trace 0`) or per-layer metrics (`--trace 1`).
//! Exits 1 when a correctness check fails, 2 on bad arguments.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::report::{END_TO_END, PER_LAYER};
use perfbench::run::{cores, profile, revision, RunOpts, DEFAULT_SEED, HELD_OUT_SEED};
use perfbench::{describe, run_workload, WORKLOADS};

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload {} [--seed N] [--seconds S] [--trace 0|1] [--trace-dir DIR]",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut opts = RunOpts {
        seed: DEFAULT_SEED,
        seconds: 20.0,
        trace: false,
        trace_dir: PathBuf::from("perfbench/traces"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("expected a value after {flag}"));
        };
        let bad = || usage(&format!("bad value `{value}` for {flag}"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => match value.parse() {
                Ok(v) => opts.seed = v,
                Err(_) => return bad(),
            },
            "--seconds" => match value.parse::<f64>() {
                Ok(v) if v.is_finite() && v >= 0.0 => opts.seconds = v,
                _ => return bad(),
            },
            "--trace" => match value.as_str() {
                "0" => opts.trace = false,
                "1" => opts.trace = true,
                _ => return bad(),
            },
            "--trace-dir" => opts.trace_dir = PathBuf::from(value),
            _ => return usage(&format!("unknown argument `{flag}`")),
        }
    }
    let Some(workload) = workload else {
        return usage("--workload is required");
    };
    let Some(config) = describe(&workload) else {
        return usage(&format!("unknown workload `{workload}`"));
    };
    println!(
        "# context {{\"workload\": \"{workload}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"cores\": {}, \"revision\": \"{}\", \"profile\": \"{}\", \"default_seed\": {DEFAULT_SEED}, \
         \"held_out_seed\": {HELD_OUT_SEED}, \"config\": {config}}}",
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        cores(),
        revision(),
        profile(),
    );
    let outcome = run_workload(&workload, &opts).expect("workload name was checked above");
    for (name, value, unit) in &outcome.figures {
        println!("{name} = {value} {unit}");
    }
    let defs = if opts.trace { PER_LAYER } else { END_TO_END };
    for d in defs {
        let v = outcome.metrics.get(d.name).copied().unwrap_or(0.0);
        println!("{} = {v} {}", d.name, d.unit);
    }
    for f in &outcome.failures {
        println!("# FAILED: {f}");
    }
    println!("{}", outcome.json(defs));
    if outcome.correct(defs) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
