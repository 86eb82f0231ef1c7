//! Federation chaos matrix (schema v1): drive sharded federations
//! through a seed × plan × shard-count grid with per-tick conservation
//! audits, checking that
//!
//! * every displaced session is accounted (re-admitted, re-waiting, or
//!   denied) — the ledger balances in every cell,
//! * identical `(seed, config, plan)` inputs reproduce
//!   bitwise-identical outcomes,
//! * a **one-shard federation with an empty plan is bitwise-identical
//!   to the plain `run_harness`** on the same config/seed (the
//!   federation layer adds zero behavior until shards/faults exist),
//!   reported as `"identity_ok"`, and
//! * Zipf-drifting and flash-crowd workload shapes stay conserved under
//!   whole-shard outage + recovery.
//!
//! Writes `results/FEDERATION_REPORT.json` (3 seeds × \[1,2,4\] shards ×
//! 4 plans + 2 shaped cells × 3 seeds = 42 cells); exits non-zero on
//! any violation.
//!
//! ```sh
//! cargo run --release -p vod-bench --bin federation
//! ```

use std::process::ExitCode;
use std::sync::Arc;

use vod_bench::table::Table;
use vod_dist::kinds::Gamma;
use vod_federation::{run_federation, FederationConfig, FederationOutcome, ShardSpec};
use vod_model::{Rates, SystemParams};
use vod_runtime::{BackendKind, DegradePolicy, FaultEvent, FaultKind, FaultPlan};
use vod_server::{
    run_harness, HarnessConfig, HostedMovie, MovieId, ServerConfig, WorkloadConfig, WorkloadShape,
};
use vod_workload::BehaviorModel;

const MOVIE_LEN: f64 = 120.0;
const STREAMS: u32 = 20;
const WARMUP: u64 = 240;
const MEASURE: u64 = 1200;
const SEEDS: [u64; 3] = [11, 2026, 77_777];
const SHARD_COUNTS: [usize; 3] = [1, 2, 4];

fn behavior() -> BehaviorModel {
    BehaviorModel::uniform_dist((0.2, 0.2, 0.6), 30.0, Arc::new(Gamma::paper_fig7()))
}

/// The same single-movie server the chaos matrix drives (so the
/// identity leg compares against the established harness baseline).
fn shard_server() -> ServerConfig {
    let params = SystemParams::from_wait(MOVIE_LEN, 1.0, STREAMS, Rates::paper())
        .expect("valid configuration");
    let movie =
        HostedMovie::from_allocation(MovieId(0), MOVIE_LEN as u32, STREAMS, params.buffer());
    ServerConfig {
        piggyback: None,
        ..ServerConfig::provisioned(vec![movie], 40)
    }
}

/// A federation of `shards` replicas of the single-movie shard server.
fn federation_config(shards: usize) -> FederationConfig {
    FederationConfig {
        shards: (0..shards)
            .map(|_| ShardSpec {
                backend: BackendKind::BatchingBuffering,
                server: shard_server(),
            })
            .collect(),
        placement: vec![(0..shards).map(|s| (s, MovieId(0))).collect()],
        policy: DegradePolicy::default(),
    }
}

fn workload_config(shape: WorkloadShape) -> WorkloadConfig {
    WorkloadConfig {
        movies: vec![0],
        behavior: behavior(),
        mean_interarrival: 2.0,
        warmup: WARMUP,
        measure: MEASURE,
        shape,
    }
}

/// The named fault plans of the matrix, sized to `shards`. Every event
/// lands inside the measured window.
fn plans(shards: usize) -> Vec<(&'static str, FaultPlan)> {
    let last = (shards - 1) as u32;
    vec![
        ("baseline", FaultPlan::empty()),
        (
            "outage-recovery",
            FaultPlan::new(vec![
                FaultEvent {
                    at: 520,
                    kind: FaultKind::ShardOutage { shard: 0 },
                },
                FaultEvent {
                    at: 640,
                    kind: FaultKind::ShardRecovery { shard: 0 },
                },
            ]),
        ),
        (
            "shard-storm",
            FaultPlan::generate_federation(9, WARMUP + MEASURE, 10, shards as u32),
        ),
        (
            "mixed",
            FaultPlan::new(vec![
                FaultEvent {
                    at: 420,
                    kind: FaultKind::DiskStreamLoss { count: 4 },
                },
                FaultEvent {
                    at: 520,
                    kind: FaultKind::ShardOutage { shard: last },
                },
                FaultEvent {
                    at: 600,
                    kind: FaultKind::DiskSlowdown {
                        period: 3,
                        duration: 120,
                    },
                },
                FaultEvent {
                    at: 700,
                    kind: FaultKind::ShardRecovery { shard: last },
                },
                FaultEvent {
                    at: 800,
                    kind: FaultKind::BufferShrink { segments: 30 },
                },
                FaultEvent {
                    at: 1000,
                    kind: FaultKind::BufferRestore { segments: 30 },
                },
            ]),
        ),
    ]
}

fn shape_name(shape: WorkloadShape) -> &'static str {
    match shape {
        WorkloadShape::RoundRobin => "round-robin",
        WorkloadShape::ZipfDrift { .. } => "zipf-drift",
        WorkloadShape::FlashCrowd { .. } => "flash-crowd",
    }
}

fn json_cell(
    seed: u64,
    shards: usize,
    plan_name: &str,
    shape: WorkloadShape,
    plan: &FaultPlan,
    out: &FederationOutcome,
) -> String {
    format!(
        "    {{\"seed\": {seed}, \"shards\": {shards}, \"plan\": \"{plan_name}\", \
         \"workload\": \"{}\", \"plan_events\": {}, \"violations\": {}, \
         \"sessions_opened\": {}, \"sessions_denied\": {}, \"sessions_done\": {}, \
         \"degraded_at_end\": {}, \"displaced_in_flight\": {}, \"federation\": {}}}",
        shape_name(shape),
        plan.to_json(),
        out.violation_count,
        out.sessions_opened,
        out.sessions_denied_admission,
        out.sessions_done,
        out.degraded_at_end,
        out.displaced_in_flight,
        out.fed.to_json(),
    )
}

/// Run one cell twice (determinism pin) and collect its failures.
fn run_cell(
    seed: u64,
    shards: usize,
    plan_name: &str,
    plan: &FaultPlan,
    shape: WorkloadShape,
    failures: &mut Vec<String>,
) -> FederationOutcome {
    let cfg = workload_config(shape);
    let out = run_federation(federation_config(shards), plan, &cfg, seed);
    let again = run_federation(federation_config(shards), plan, &cfg, seed);
    let tag = format!(
        "seed {seed} shards {shards} plan {plan_name} workload {}",
        shape_name(shape)
    );
    if out != again {
        failures.push(format!("{tag}: outcome not bitwise deterministic"));
    }
    if out.violation_count > 0 {
        failures.push(format!(
            "{tag}: {} invariant violation(s), first: {}",
            out.violation_count,
            out.violations.first().map_or("?", |v| v.as_str()),
        ));
    }
    let resolved = out.fed.readmitted_cohort
        + out.fed.readmitted_dedicated
        + out.fed.denied_transient
        + out.fed.denied_permanent;
    if out.fed.displaced_total != resolved + out.displaced_in_flight {
        failures.push(format!(
            "{tag}: displaced ledger out of balance ({} displaced, {} resolved, {} in flight)",
            out.fed.displaced_total, resolved, out.displaced_in_flight
        ));
    }
    out
}

fn main() -> ExitCode {
    let mut failures: Vec<String> = Vec::new();
    let mut cells = Vec::new();
    let mut identity_ok = true;
    let mut t = Table::new(vec![
        "seed",
        "shards",
        "plan",
        "workload",
        "violat.",
        "opened",
        "denied",
        "displaced",
        "cohort",
        "dedic.",
        "den.trans",
        "den.perm",
    ]);
    let push_row = |t: &mut Table,
                    seed: u64,
                    shards: usize,
                    plan_name: &str,
                    shape: WorkloadShape,
                    out: &FederationOutcome| {
        t.row(vec![
            seed.to_string(),
            shards.to_string(),
            plan_name.to_string(),
            shape_name(shape).to_string(),
            out.violation_count.to_string(),
            out.sessions_opened.to_string(),
            out.sessions_denied_admission.to_string(),
            out.fed.displaced_total.to_string(),
            out.fed.readmitted_cohort.to_string(),
            out.fed.readmitted_dedicated.to_string(),
            out.fed.denied_transient.to_string(),
            out.fed.denied_permanent.to_string(),
        ]);
    };
    for seed in SEEDS {
        // Identity leg: the 1-shard empty-plan federation must be
        // bitwise-identical to the plain harness.
        let plain = HarnessConfig {
            server: shard_server(),
            workload: workload_config(WorkloadShape::RoundRobin),
        };
        let reference = run_harness(&plain, seed);
        for shards in SHARD_COUNTS {
            for (plan_name, plan) in plans(shards) {
                let out = run_cell(
                    seed,
                    shards,
                    plan_name,
                    &plan,
                    WorkloadShape::RoundRobin,
                    &mut failures,
                );
                if shards == 1 && plan.is_empty() {
                    let matches = out.per_shard[0].as_ref() == Some(&reference)
                        && out.sessions_denied_admission == 0;
                    if !matches {
                        identity_ok = false;
                        failures.push(format!(
                            "seed {seed}: 1-shard empty-plan federation diverged from run_harness"
                        ));
                    }
                }
                push_row(
                    &mut t,
                    seed,
                    shards,
                    plan_name,
                    WorkloadShape::RoundRobin,
                    &out,
                );
                cells.push(json_cell(
                    seed,
                    shards,
                    plan_name,
                    WorkloadShape::RoundRobin,
                    &plan,
                    &out,
                ));
            }
        }
        // Shaped-load cells: drifting Zipf popularity and a flash crowd
        // over a 2-shard federation under whole-shard outage+recovery.
        let (plan_name, plan) = ("outage-recovery", &plans(2)[1].1);
        for shape in [
            WorkloadShape::ZipfDrift {
                start_skew: 0.2,
                end_skew: 1.6,
            },
            WorkloadShape::FlashCrowd {
                at: 520,
                duration: 120,
                factor: 4.0,
                movie: 0,
            },
        ] {
            let out = run_cell(seed, 2, plan_name, plan, shape, &mut failures);
            push_row(&mut t, seed, 2, plan_name, shape, &out);
            cells.push(json_cell(seed, 2, plan_name, shape, plan, &out));
        }
    }
    println!(
        "# Federation chaos matrix (l = 120, n = {STREAMS}, seeds {SEEDS:?}, \
         shards {SHARD_COUNTS:?}, warmup {WARMUP}, measure {MEASURE})"
    );
    print!("{}", t.render());
    println!(
        "(displaced/cohort/dedicated/denied are front-tier ledger counters \
         over the measured window)"
    );

    let ok = failures.is_empty();
    let json = format!(
        "{{\n  \"schema\": 1,\n  \"ok\": {ok},\n  \"identity_ok\": {identity_ok},\n  \
         \"failures\": [{}],\n  \"cells\": [\n{}\n  ]\n}}\n",
        failures
            .iter()
            .map(|f| format!("\"{}\"", f.replace('"', "'")))
            .collect::<Vec<_>>()
            .join(", "),
        cells.join(",\n")
    );
    std::fs::create_dir_all("results").expect("results dir");
    std::fs::write("results/FEDERATION_REPORT.json", json).expect("write json");
    println!(
        "\nwrote results/FEDERATION_REPORT.json ({} cells)",
        cells.len()
    );
    if !ok {
        for f in &failures {
            eprintln!("FEDERATION FAILURE: {f}");
        }
        return ExitCode::FAILURE;
    }
    println!("all federation invariants held");
    ExitCode::SUCCESS
}
