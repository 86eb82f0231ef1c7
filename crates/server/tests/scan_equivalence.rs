//! The wheel-scheduler equivalence gate: the timer-wheel + active-list
//! session loop must be **bitwise identical** to the historical full
//! `0..n` scan it replaced — same seeded workload, same metrics, same
//! chaos outcome (violations included) — fault-free and under every
//! fault family. The reference scan survives in the server behind
//! `set_reference_scan` exactly so this suite can hold that line: it
//! builds the reference server itself and runs the public `drive` loop
//! over it.

use std::sync::Arc;

use vod_dist::kinds::Gamma;
use vod_runtime::{DegradePolicy, FaultEvent, FaultKind, FaultPlan};
use vod_server::{
    drive, run_chaos, run_harness, ChaosOutcome, HarnessConfig, HostedMovie, MovieId, ServerConfig,
    VodServer, WorkloadConfig, WorkloadShape,
};
use vod_workload::BehaviorModel;

fn config(piggyback: bool) -> HarnessConfig {
    let movie = HostedMovie::from_allocation(MovieId(0), 120, 20, 100.0);
    let base = ServerConfig::provisioned(vec![movie], 40);
    HarnessConfig {
        server: ServerConfig {
            piggyback: base.piggyback.filter(|_| piggyback),
            ..base
        },
        workload: WorkloadConfig {
            movies: vec![0],
            behavior: BehaviorModel::uniform_dist(
                (0.2, 0.2, 0.6),
                30.0,
                Arc::new(Gamma::paper_fig7()),
            ),
            mean_interarrival: 2.0,
            warmup: 240,
            measure: 1200,
            shape: WorkloadShape::RoundRobin,
        },
    }
}

/// `run_chaos` against a server in reference-scan mode (the historical
/// full-table session loop instead of the timer wheel).
fn reference_chaos(
    cfg: &HarnessConfig,
    seed: u64,
    plan: &FaultPlan,
    policy: DegradePolicy,
) -> ChaosOutcome {
    let mut server = VodServer::new(cfg.server.clone());
    server.set_reference_scan(true);
    server.inject_faults(plan.clone(), policy);
    let log = drive(&mut server, &cfg.workload, seed, true);
    ChaosOutcome::collect(&server, log)
}

#[test]
fn wheel_matches_reference_scan_fault_free() {
    for piggyback in [false, true] {
        let cfg = config(piggyback);
        for seed in [1u64, 7, 23, 1901] {
            let wheel = run_harness(&cfg, seed);
            let reference =
                reference_chaos(&cfg, seed, &FaultPlan::empty(), DegradePolicy::default()).metrics;
            assert_eq!(
                wheel, reference,
                "schedulers diverged (seed {seed}, piggyback {piggyback})"
            );
        }
    }
}

fn plans() -> Vec<(&'static str, FaultPlan)> {
    vec![
        ("baseline", FaultPlan::empty()),
        (
            "loss",
            FaultPlan::new(vec![FaultEvent {
                at: 400,
                kind: FaultKind::DiskStreamLoss { count: 4 },
            }]),
        ),
        (
            "outage",
            FaultPlan::new(vec![FaultEvent {
                at: 500,
                kind: FaultKind::DiskOutage {
                    count: 6,
                    recover_after: 120,
                },
            }]),
        ),
        (
            "slowdown",
            FaultPlan::new(vec![FaultEvent {
                at: 300,
                kind: FaultKind::DiskSlowdown {
                    period: 3,
                    duration: 90,
                },
            }]),
        ),
        (
            "squeeze",
            FaultPlan::new(vec![
                FaultEvent {
                    at: 420,
                    kind: FaultKind::BufferShrink { segments: 30 },
                },
                FaultEvent {
                    at: 700,
                    kind: FaultKind::BufferRestore { segments: 30 },
                },
            ]),
        ),
        ("storm", FaultPlan::generate(9, 1440, 8)),
    ]
}

#[test]
fn wheel_matches_reference_scan_under_faults() {
    let cfg = config(true);
    let policy = DegradePolicy::default();
    for (name, plan) in plans() {
        for seed in [7u64, 23] {
            let wheel = run_chaos(&cfg, seed, &plan, policy);
            let reference = reference_chaos(&cfg, seed, &plan, policy);
            assert_eq!(
                wheel, reference,
                "chaos outcome diverged (plan {name}, seed {seed})"
            );
            assert_eq!(wheel.violation_count, 0, "plan {name} seed {seed}");
        }
    }
}
