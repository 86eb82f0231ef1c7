//! Federation integration suite: the bitwise identity with the plain
//! harness, whole-shard outage failover, displaced-session conservation,
//! the recovery-wins timeline, and the `split_budget` wiring.

#![allow(clippy::unwrap_used, clippy::float_cmp)]

use std::sync::Arc;

use vod_dist::kinds::Gamma;
use vod_federation::{run_federation, shards_from_split, Federation, FederationConfig, ShardSpec};
use vod_runtime::{BackendKind, DegradePolicy, FaultEvent, FaultKind, FaultPlan};
use vod_server::{
    run_harness, HarnessConfig, HostedMovie, MovieId, ServerConfig, WorkloadConfig, WorkloadShape,
};
use vod_workload::BehaviorModel;

fn behavior() -> BehaviorModel {
    BehaviorModel::uniform_dist((0.2, 0.2, 0.6), 30.0, Arc::new(Gamma::paper_fig7()))
}

fn single_movie_server() -> ServerConfig {
    single_movie_server_with_reserve(40)
}

fn single_movie_server_with_reserve(vcr_reserve: u32) -> ServerConfig {
    let movie = HostedMovie::from_allocation(MovieId(0), 120, 20, 100.0);
    ServerConfig {
        piggyback: None,
        ..ServerConfig::provisioned(vec![movie], vcr_reserve)
    }
}

/// A federation whose every shard hosts the same single movie.
fn replicated_config(shards: usize) -> FederationConfig {
    replicated_config_with_reserve(shards, 40)
}

fn replicated_config_with_reserve(shards: usize, vcr_reserve: u32) -> FederationConfig {
    let specs: Vec<ShardSpec> = (0..shards)
        .map(|_| ShardSpec {
            backend: BackendKind::BatchingBuffering,
            server: single_movie_server_with_reserve(vcr_reserve),
        })
        .collect();
    let placement = vec![(0..shards).map(|s| (s, MovieId(0))).collect()];
    FederationConfig {
        shards: specs,
        placement,
        policy: DegradePolicy::default(),
    }
}

fn harness_cfg(warmup: u64, measure: u64) -> WorkloadConfig {
    WorkloadConfig {
        movies: vec![0],
        behavior: behavior(),
        mean_interarrival: 2.0,
        warmup,
        measure,
        shape: WorkloadShape::RoundRobin,
    }
}

#[test]
fn single_shard_empty_plan_is_bitwise_identical_to_harness() {
    let plain = HarnessConfig {
        server: single_movie_server(),
        workload: harness_cfg(240, 1200),
    };
    for seed in [7u64, 11, 2026] {
        let reference = run_harness(&plain, seed);
        let outcome = run_federation(
            replicated_config(1),
            &FaultPlan::empty(),
            &plain.workload,
            seed,
        );
        assert_eq!(outcome.violation_count, 0, "{:?}", outcome.violations);
        let shard0 = outcome.per_shard[0]
            .as_ref()
            .expect("single shard stays up");
        assert_eq!(
            shard0, &reference,
            "seed {seed}: federation layer must add zero behavior"
        );
        assert_eq!(outcome.sessions_denied_admission, 0);
        assert_eq!(
            outcome.fed.admissions_routed,
            outcome_routed_measured(&outcome)
        );
    }
}

/// Routed admissions in the measured window (metrics reset at warm-up,
/// so the counter only covers post-warmup arrivals).
fn outcome_routed_measured(outcome: &vod_federation::FederationOutcome) -> u64 {
    outcome.fed.admissions_routed
}

#[test]
fn run_federation_is_deterministic() {
    let plan = FaultPlan::generate_federation(99, 400, 10, 2);
    let a = run_federation(replicated_config(2), &plan, &harness_cfg(60, 340), 5);
    let b = run_federation(replicated_config(2), &plan, &harness_cfg(60, 340), 5);
    assert_eq!(a, b, "same seed/config/plan must reproduce bitwise");
}

#[test]
fn outage_displaces_and_surviving_replica_readmits() {
    // Two replicas of the movie; shard 0 goes dark mid-run and never
    // comes back. Every displaced session must re-admit on shard 1 or
    // resolve as a denial — and with a live replica up the whole run,
    // no denial may be classified permanent.
    let plan = FaultPlan::new(vec![FaultEvent {
        at: 100,
        kind: FaultKind::ShardOutage { shard: 0 },
    }]);
    let outcome = run_federation(replicated_config(2), &plan, &harness_cfg(0, 400), 13);
    assert_eq!(outcome.violation_count, 0, "{:?}", outcome.violations);
    assert_eq!(outcome.fed.shard_outages, 1);
    assert!(outcome.fed.displaced_total > 0, "outage displaced nobody");
    assert!(
        outcome.fed.readmitted_cohort + outcome.fed.readmitted_dedicated > 0,
        "no displaced session found the surviving replica: {:?}",
        outcome.fed
    );
    assert_eq!(
        outcome.fed.denied_permanent, 0,
        "a live replica makes every timeout transient"
    );
    assert_eq!(
        outcome.fed.displaced_total,
        outcome.fed.readmitted_cohort
            + outcome.fed.readmitted_dedicated
            + outcome.fed.denied_transient
            + outcome.fed.denied_permanent
            + outcome.displaced_in_flight,
        "displaced ledger must balance"
    );
    assert!(outcome.per_shard[0].is_none(), "shard 0 stays dark");
    assert!(outcome.per_shard[1].is_some());
}

#[test]
fn outage_without_replica_or_recovery_denies_permanently() {
    // One shard, one movie, outage with no recovery: every displaced
    // session times out permanent, and post-outage arrivals are denied
    // admission.
    let plan = FaultPlan::new(vec![FaultEvent {
        at: 100,
        kind: FaultKind::ShardOutage { shard: 0 },
    }]);
    let outcome = run_federation(replicated_config(1), &plan, &harness_cfg(0, 300), 13);
    assert_eq!(outcome.violation_count, 0, "{:?}", outcome.violations);
    assert!(outcome.fed.displaced_total > 0);
    assert_eq!(
        outcome.fed.readmitted_cohort + outcome.fed.readmitted_dedicated,
        0
    );
    assert_eq!(outcome.fed.denied_transient, 0, "nothing is recoverable");
    assert_eq!(
        outcome.fed.denied_permanent, outcome.fed.displaced_total,
        "every displaced session must resolve permanent"
    );
    assert!(
        outcome.sessions_denied_admission > 0,
        "arrivals after the outage had nowhere to go"
    );
    assert_eq!(outcome.displaced_in_flight, 0);
}

#[test]
fn recovery_wins_the_same_tick_timeout_race() {
    // Hand-worked timeline (satellite: recovery-vs-timeout order pin).
    // Outage at t=100 displaces sessions with `since = 100`; the ledger
    // timeout (default retry_timeout = 32) expires at t = 132 — the
    // exact tick the shard recovery lands. The front tier arms
    // `recovery_wins`, recoveries are applied before the ledger drains,
    // so the displaced sessions get a last-chance adoption against the
    // just-recovered shard instead of resolving denied.
    let timeout = DegradePolicy::default().retry_timeout;
    let plan = FaultPlan::new(vec![
        FaultEvent {
            at: 100,
            kind: FaultKind::ShardOutage { shard: 0 },
        },
        FaultEvent {
            at: 100 + timeout,
            kind: FaultKind::ShardRecovery { shard: 0 },
        },
    ]);
    // An oversized dedicated reserve so every last-chance adoption can
    // land — the test pins resolution *order*, not capacity pressure.
    let outcome = run_federation(
        replicated_config_with_reserve(1, 400),
        &plan,
        &harness_cfg(0, 300),
        13,
    );
    assert_eq!(outcome.violation_count, 0, "{:?}", outcome.violations);
    assert_eq!(outcome.fed.shard_recoveries, 1);
    assert!(outcome.fed.displaced_total > 0);
    assert_eq!(
        outcome.fed.readmitted_cohort + outcome.fed.readmitted_dedicated,
        outcome.fed.displaced_total,
        "recovery at the timeout tick must win the race for every session: {:?}",
        outcome.fed
    );
    assert_eq!(
        outcome.fed.denied_transient + outcome.fed.denied_permanent,
        0
    );
    // The recovered shard keeps serving: fresh arrivals land on it.
    assert!(outcome.per_shard[0].is_some());
}

#[test]
fn recovery_one_tick_late_loses_the_race() {
    // Same timeline shifted by one tick: the timeout resolves first and
    // the denials are transient (a recovery is still scheduled).
    let timeout = DegradePolicy::default().retry_timeout;
    let plan = FaultPlan::new(vec![
        FaultEvent {
            at: 100,
            kind: FaultKind::ShardOutage { shard: 0 },
        },
        FaultEvent {
            at: 100 + timeout + 1,
            kind: FaultKind::ShardRecovery { shard: 0 },
        },
    ]);
    let outcome = run_federation(replicated_config(1), &plan, &harness_cfg(0, 300), 13);
    assert_eq!(outcome.violation_count, 0, "{:?}", outcome.violations);
    assert!(outcome.fed.denied_transient > 0, "{:?}", outcome.fed);
    assert_eq!(
        outcome.fed.denied_permanent, 0,
        "scheduled recovery keeps the movie recoverable"
    );
}

#[test]
fn federation_chaos_storm_conserves_across_backends() {
    // A generate_federation storm (shard events + capacity faults) over
    // heterogeneous backends: zero invariant violations, balanced
    // ledger.
    for backend in [
        BackendKind::BatchingBuffering,
        BackendKind::PyramidBroadcast,
        BackendKind::DedicatedStream,
    ] {
        let specs: Vec<ShardSpec> = (0..2)
            .map(|_| ShardSpec {
                backend,
                server: single_movie_server(),
            })
            .collect();
        let config = FederationConfig {
            shards: specs,
            placement: vec![vec![(0, MovieId(0)), (1, MovieId(0))]],
            policy: DegradePolicy::default(),
        };
        let plan = FaultPlan::generate_federation(41, 380, 12, 2);
        let outcome = run_federation(config, &plan, &harness_cfg(0, 400), 23);
        assert_eq!(
            outcome.violation_count, 0,
            "{backend:?}: {:?}",
            outcome.violations
        );
        assert_eq!(
            outcome.fed.displaced_total,
            outcome.fed.readmitted_cohort
                + outcome.fed.readmitted_dedicated
                + outcome.fed.denied_transient
                + outcome.fed.denied_permanent
                + outcome.displaced_in_flight,
            "{backend:?}: ledger out of balance: {:?}",
            outcome.fed
        );
    }
}

#[test]
fn zipf_and_flash_crowd_shapes_stay_conserved() {
    let mut cfg = harness_cfg(0, 300);
    cfg.movies = vec![0, 0]; // two slots over the same replicated movie
    let plan = FaultPlan::new(vec![
        FaultEvent {
            at: 80,
            kind: FaultKind::ShardOutage { shard: 1 },
        },
        FaultEvent {
            at: 160,
            kind: FaultKind::ShardRecovery { shard: 1 },
        },
    ]);
    for shape in [
        WorkloadShape::ZipfDrift {
            start_skew: 0.2,
            end_skew: 1.6,
        },
        WorkloadShape::FlashCrowd {
            at: 90,
            duration: 60,
            factor: 4.0,
            movie: 0,
        },
    ] {
        cfg.shape = shape;
        let config = FederationConfig {
            shards: (0..2)
                .map(|_| ShardSpec {
                    backend: BackendKind::BatchingBuffering,
                    server: single_movie_server(),
                })
                .collect(),
            placement: vec![vec![(0, MovieId(0)), (1, MovieId(0))]],
            policy: DegradePolicy::default(),
        };
        let a = run_federation(config.clone(), &plan, &cfg, 31);
        let b = run_federation(config, &plan, &cfg, 31);
        assert_eq!(a, b, "{shape:?}: workload shape must stay deterministic");
        assert_eq!(a.violation_count, 0, "{shape:?}: {:?}", a.violations);
    }
}

/// The driver checks the workload against the placement map before the
/// first tick: an out-of-range flash-crowd movie is named in the panic
/// instead of surfacing as a slice-index error mid-run.
#[test]
#[should_panic(expected = "workload movie 1 is not hosted")]
fn out_of_range_flash_crowd_movie_is_rejected_before_the_first_tick() {
    let cfg = WorkloadConfig {
        shape: WorkloadShape::FlashCrowd {
            at: 50,
            duration: 10,
            factor: 2.0,
            movie: 1,
        },
        ..harness_cfg(0, 100)
    };
    run_federation(replicated_config(2), &FaultPlan::empty(), &cfg, 3);
}

#[test]
fn split_budget_wires_a_multi_movie_federation() {
    use vod_model::{ModelOptions, VcrMix};
    use vod_sizing::{example1_movies, split_budget, Budgets};

    let movies = example1_movies(VcrMix::paper_fig7d());
    let split = split_budget(
        &movies,
        Budgets {
            streams: 1230,
            buffer: None,
        },
        2,
        &ModelOptions::default(),
    )
    .unwrap();
    let lengths: Vec<u32> = movies.iter().map(|m| m.length.round() as u32).collect();
    let (specs, placement) =
        shards_from_split(&split, &lengths, 16, BackendKind::BatchingBuffering);
    assert_eq!(specs.len(), 2);
    assert_eq!(placement.len(), movies.len());
    for (m, replicas) in placement.iter().enumerate() {
        assert_eq!(replicas.len(), 1, "split places each movie once");
        let (s, local) = replicas[0];
        assert_eq!(s, split.shard_of(m));
        assert!(specs[s].server.movies.iter().any(|hm| hm.movie == local));
    }
    // A federation built from the split runs clean and serves the whole
    // catalog round-robin.
    let config = FederationConfig {
        shards: specs,
        placement,
        policy: DegradePolicy::default(),
    };
    let fed = Federation::new(config.clone(), FaultPlan::empty());
    assert_eq!(fed.shard_count(), 2);
    let cfg = WorkloadConfig {
        movies: (0..movies.len()).collect(),
        ..harness_cfg(0, 200)
    };
    let outcome = run_federation(config, &FaultPlan::empty(), &cfg, 3);
    assert_eq!(outcome.violation_count, 0, "{:?}", outcome.violations);
    assert!(outcome.sessions_opened > 0);
    assert_eq!(outcome.sessions_denied_admission, 0);
}
