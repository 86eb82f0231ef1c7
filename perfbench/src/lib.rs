//! # perfbench — the repository's benchmark
//!
//! One command measures three workloads end to end and, in a separate
//! traced run, layer by layer:
//!
//! * `plan` — size, split and simulate-audit a catalog whose VCR laws
//!   cover five families ([`plan`]);
//! * `serve-steady` — 10^5 concurrent viewers on one batching server
//!   ([`serve::STEADY`]);
//! * `serve-churn` — a four-shard federation under seeded faults
//!   ([`serve::CHURN`]).
//!
//! The program under test is driven only through the workspace crates'
//! public APIs. Inputs come from [`gen`], seeded by the benchmark's
//! `--seed`; the program never sees the seed. See `README.md` beside
//! this crate for the metric catalog.

#![forbid(unsafe_code)]

pub mod checks;
pub mod gen;
pub mod plan;
pub mod report;
pub mod run;
pub mod serve;
pub mod stats;
pub mod trace;

use report::Outcome;
use run::RunOpts;

/// The workloads, by command-line name.
pub const WORKLOADS: [&str; 3] = ["plan", "serve-steady", "serve-churn"];

/// Run workload `name`; `None` for an unknown name.
pub fn run_workload(name: &str, opts: &RunOpts) -> Option<Outcome> {
    match name {
        "plan" => Some(plan::run(opts)),
        "serve-steady" => Some(serve::run(&serve::STEADY, opts)),
        "serve-churn" => Some(serve::run(&serve::CHURN, opts)),
        _ => None,
    }
}

/// Workload `name`'s configuration as a JSON object.
pub fn describe(name: &str) -> Option<String> {
    match name {
        "plan" => Some(plan::PLAN.describe()),
        "serve-steady" => Some(serve::STEADY.describe()),
        "serve-churn" => Some(serve::CHURN.describe()),
        _ => None,
    }
}
