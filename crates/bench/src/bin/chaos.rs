//! Chaos matrix (schema v2): drive **all three delivery backends**
//! (the incumbent batching server, pyramid broadcast, dedicated
//! unicast) through a seed × fault-plan grid via
//! [`vod_server::run_chaos_backend`], checking after **every tick**
//! that
//!
//! * no session is lost or double-counted,
//! * streams are conserved (`in_use + free + failed == provisioned`,
//!   plus each backend's own audits: channel-wheel phase and reception
//!   fronts for pyramid, reserve/queue conservation for dedicated),
//! * cumulative metrics never move backwards,
//! * identical `(seed, plan, backend)` inputs reproduce
//!   bitwise-identical outcomes, and
//! * the empty plan reproduces the plain harness exactly **per
//!   backend** (graceful degradation must cost nothing when nothing
//!   fails).
//!
//! Each plan also runs through the continuous-time simulator's fault
//! mirror under the same backend so the hit-ratio impact is visible on
//! both legs. Writes `results/CHAOS_REPORT.json` (3 seeds × 6 plans ×
//! 3 backends = 54 cells); exits non-zero on any violation.
//!
//! ```sh
//! cargo run --release -p vod-bench --bin chaos
//! ```

use std::process::ExitCode;
use std::sync::Arc;

use vod_bench::table::{num, Table};
use vod_dist::kinds::Gamma;
use vod_model::{Rates, SystemParams};
use vod_runtime::{BackendKind, DegradePolicy, FaultEvent, FaultKind, FaultPlan};
use vod_server::{
    run_chaos_backend, run_harness_backend, ChaosOutcome, HarnessConfig, HostedMovie, MovieId,
    ServerConfig, WorkloadConfig, WorkloadShape,
};
use vod_sim::{run_seeded, SimConfig};
use vod_workload::BehaviorModel;

const MOVIE_LEN: f64 = 120.0;
const STREAMS: u32 = 20;
const WARMUP: u64 = 240;
const MEASURE: u64 = 1200;
const SEEDS: [u64; 3] = [11, 2026, 77_777];

fn behavior() -> BehaviorModel {
    BehaviorModel::uniform_dist((0.2, 0.2, 0.6), 30.0, Arc::new(Gamma::paper_fig7()))
}

fn harness_config() -> HarnessConfig {
    let params = SystemParams::from_wait(MOVIE_LEN, 1.0, STREAMS, Rates::paper())
        .expect("valid configuration");
    let movie =
        HostedMovie::from_allocation(MovieId(0), MOVIE_LEN as u32, STREAMS, params.buffer());
    HarnessConfig {
        server: ServerConfig {
            piggyback: None,
            ..ServerConfig::provisioned(vec![movie], 40)
        },
        workload: WorkloadConfig {
            movies: vec![0],
            behavior: behavior(),
            mean_interarrival: 2.0,
            warmup: WARMUP,
            measure: MEASURE,
            shape: WorkloadShape::RoundRobin,
        },
    }
}

/// The named fault plans of the matrix. Every event lands inside the
/// measured window so the degradation shows up in the metrics.
fn plans() -> Vec<(&'static str, FaultPlan)> {
    vec![
        ("baseline", FaultPlan::empty()),
        (
            "disk-loss",
            FaultPlan::new(vec![FaultEvent {
                at: 420,
                kind: FaultKind::DiskStreamLoss { count: 4 },
            }]),
        ),
        (
            "disk-outage",
            FaultPlan::new(vec![FaultEvent {
                at: 520,
                kind: FaultKind::DiskOutage {
                    count: 6,
                    recover_after: 60,
                },
            }]),
        ),
        (
            "slowdown",
            FaultPlan::new(vec![FaultEvent {
                at: 600,
                kind: FaultKind::DiskSlowdown {
                    period: 3,
                    duration: 120,
                },
            }]),
        ),
        (
            "buffer-squeeze",
            FaultPlan::new(vec![
                FaultEvent {
                    at: 450,
                    kind: FaultKind::BufferShrink { segments: 30 },
                },
                FaultEvent {
                    at: 900,
                    kind: FaultKind::BufferRestore { segments: 30 },
                },
            ]),
        ),
        ("storm", FaultPlan::generate(9, WARMUP + MEASURE, 8)),
    ]
}

/// Run the sim leg with the same plan under `backend` and return its
/// overall hit ratio.
fn sim_hit_ratio(plan: &FaultPlan, seed: u64, backend: BackendKind) -> f64 {
    let params = SystemParams::from_wait(MOVIE_LEN, 1.0, STREAMS, Rates::paper())
        .expect("valid configuration");
    let mut cfg = SimConfig::new(params, behavior());
    cfg.horizon = (WARMUP + MEASURE) as f64;
    cfg.warmup = WARMUP as f64;
    cfg.faults = plan.clone();
    cfg.backend = backend;
    run_seeded(&cfg, seed).runtime.hit_ratio()
}

/// One report cell. Non-incumbent backends get a `"backend"` key after
/// the seed (schema v2); the incumbent's cells (`backend: None`) keep the
/// v1 shape so they stay byte-identical across reports.
fn json_case(
    seed: u64,
    backend: Option<BackendKind>,
    name: &str,
    plan: &FaultPlan,
    out: &ChaosOutcome,
    sim_hit: f64,
) -> String {
    let violations: Vec<String> = out
        .violations
        .iter()
        .map(|v| format!("\"{}\"", v.replace('"', "'")))
        .collect();
    let backend = backend.map_or(String::new(), |b| {
        format!(" \"backend\": \"{}\",", b.name())
    });
    format!(
        "    {{\"seed\": {seed},{backend} \"plan\": \"{name}\", \"plan_events\": {}, \
         \"violations\": {}, \"violation_details\": [{}], \
         \"sessions_opened\": {}, \"sessions_done\": {}, \"degraded_at_end\": {}, \
         \"sim_hit_ratio\": {:.6}, \"metrics\": {}}}",
        plan.to_json(),
        out.violation_count,
        violations.join(", "),
        out.sessions_opened,
        out.sessions_done,
        out.degraded_at_end,
        sim_hit,
        out.metrics.to_json(),
    )
}

fn main() -> ExitCode {
    let cfg = harness_config();
    let policy = DegradePolicy::default();
    let mut failures: Vec<String> = Vec::new();
    let mut json_cases = Vec::new();
    let mut t = Table::new(vec![
        "seed",
        "backend",
        "plan",
        "faults",
        "violat.",
        "degr.entries",
        "rejoined",
        "dedicated",
        "den.trans",
        "den.perm",
        "srv hit",
        "sim hit",
    ]);
    for seed in SEEDS {
        // Incumbent first, then the alternative backends: the same grid
        // through the backend-generic harness, each backend with its own
        // invariant audits on.
        for kind in [
            BackendKind::BatchingBuffering,
            BackendKind::PyramidBroadcast,
            BackendKind::DedicatedStream,
        ] {
            let bname = kind.name();
            let fault_free = run_harness_backend(&cfg, kind, seed);
            for (name, plan) in plans() {
                let run = run_chaos_backend(&cfg, kind, seed, &plan, policy);
                let again = run_chaos_backend(&cfg, kind, seed, &plan, policy);
                if run != again {
                    failures.push(format!(
                        "seed {seed} backend {bname} plan {name}: \
                         outcome not bitwise deterministic"
                    ));
                }
                if plan.is_empty() && run != fault_free {
                    failures.push(format!(
                        "seed {seed} backend {bname} plan {name}: \
                         empty plan diverged from the plain harness"
                    ));
                }
                let out = &run.outcome;
                if out.violation_count > 0 {
                    failures.push(format!(
                        "seed {seed} backend {bname} plan {name}: \
                         {} invariant violation(s), first: {}",
                        out.violation_count,
                        out.violations.first().map_or("?", |v| v.as_str()),
                    ));
                }
                let sim_hit = sim_hit_ratio(&plan, seed, kind);
                t.row(vec![
                    seed.to_string(),
                    bname.split('_').next().unwrap_or(bname).to_string(),
                    name.to_string(),
                    out.metrics.faults_injected.to_string(),
                    out.violation_count.to_string(),
                    out.metrics.degraded_entries.to_string(),
                    out.metrics.degraded_rejoined.to_string(),
                    out.metrics.degraded_dedicated.to_string(),
                    out.metrics.denied_transient.to_string(),
                    out.metrics.denied_permanent.to_string(),
                    num(out.metrics.hit_ratio(), 3),
                    num(sim_hit, 3),
                ]);
                // The incumbent's cells keep the v1 shape (no backend key).
                let tagged = (kind != BackendKind::BatchingBuffering).then_some(kind);
                json_cases.push(json_case(seed, tagged, name, &plan, out, sim_hit));
            }
        }
    }
    println!(
        "# Chaos matrix (l = 120, n = {STREAMS}, disk 40, seeds {SEEDS:?}, \
         3 backends, warmup {WARMUP}, measure {MEASURE})"
    );
    print!("{}", t.render());
    println!("(faults counted in the measured window; srv/sim hit = resume hit ratio)");

    let ok = failures.is_empty();
    let json = format!(
        "{{\n  \"schema\": 2,\n  \"ok\": {ok},\n  \"failures\": [{}],\n  \"cases\": [\n{}\n  ]\n}}\n",
        failures
            .iter()
            .map(|f| format!("\"{}\"", f.replace('"', "'")))
            .collect::<Vec<_>>()
            .join(", "),
        json_cases.join(",\n")
    );
    std::fs::create_dir_all("results").expect("results dir");
    std::fs::write("results/CHAOS_REPORT.json", json).expect("write json");
    println!("\nwrote results/CHAOS_REPORT.json");
    if !ok {
        for f in &failures {
            eprintln!("CHAOS FAILURE: {f}");
        }
        return ExitCode::FAILURE;
    }
    println!("all chaos invariants held");
    ExitCode::SUCCESS
}
