//! Fault-injection integration tests: each injected fault kind drives
//! the server through its graceful-degradation policy with hand-worked
//! timelines, checking the conservation invariants after every tick and
//! that viewers are delayed — never dropped, never served wrong bytes.

#![allow(clippy::unwrap_used)]

use std::sync::Arc;

use proptest::prelude::*;
use vod_dist::kinds::Gamma;
use vod_runtime::{BackendKind, DegradePolicy, FaultEvent, FaultKind, FaultPlan};
use vod_server::{
    run_chaos, run_chaos_backend, run_harness, HarnessConfig, HostedMovie, MovieId, ServerConfig,
    ServerError, SessionStatus, VodServer, WorkloadConfig, WorkloadShape,
};
use vod_workload::{BehaviorModel, VcrKind};

/// Tick the server once and assert every conservation invariant holds.
fn checked_tick(server: &mut VodServer) {
    server.tick();
    let violations = server.check_invariants();
    assert!(violations.is_empty(), "invariants violated: {violations:?}");
}

fn run_checked(server: &mut VodServer, minutes: u64) {
    for _ in 0..minutes {
        checked_tick(server);
    }
}

/// Satellite regression for the under-provisioned-restart re-wait path:
/// a scheduled restart that fails (buffer exhausted) must push the
/// waiting batch to the *next* restart instant instead of panicking, and
/// the viewer must still complete with byte-exact delivery.
///
/// Geometry: `l = 10, n = 2, B = 4` quantizes to `T = 5, b = 2`. With a
/// buffer budget of exactly one partition (2 segments), the `t = 5`
/// restart finds the pool exhausted by the `t = 0` stream (which retires
/// only at `t = 10`), so the viewer queued for `t = 5` re-waits to 10.
#[test]
fn failed_restart_rewaits_batch_to_next_interval() {
    let movie = HostedMovie::from_allocation(MovieId(0), 10, 2, 4.0);
    assert_eq!(movie.geometry.restart_interval, 5);
    assert_eq!(movie.geometry.partition_capacity, 2);
    let mut server = VodServer::new(ServerConfig {
        disk_streams: 3,
        buffer_budget: 2,
        movies: vec![movie],
        vcr_rate: 3,
        piggyback: None,
    });
    run_checked(&mut server, 3); // t = 0 stream is live, holding the pool
    let viewer = server.open_session(MovieId(0)).unwrap();
    assert_eq!(
        server.session_status(viewer).unwrap(),
        SessionStatus::Waiting(5),
        "arrival at t = 3 missed the t = 0 enrollment window"
    );
    run_checked(&mut server, 3); // through the failed t = 5 restart
    assert_eq!(
        server.session_status(viewer).unwrap(),
        SessionStatus::Waiting(10),
        "failed restart must re-wait the batch, not lose it"
    );
    assert!(
        server.metrics().runtime.restart_failures >= 1,
        "the t = 5 restart failure must be counted"
    );
    run_checked(&mut server, 20); // t = 10 restart succeeds; movie plays out
    assert_eq!(server.session_status(viewer).unwrap(), SessionStatus::Done);
    let stats = server.session_stats(viewer).unwrap();
    assert_eq!(stats.total(), 10, "every segment delivered exactly once");
    assert_eq!(stats.verify_failures, 0);
}

/// A disk outage that revokes in-use leases degrades the enrolled viewer,
/// who retries with backoff and — once the outage recovers — finishes the
/// movie on a dedicated stream. Timeline is exact: degrade at 12, failed
/// retries at 14 and 16, recovery at 17, granted retry at 20.
#[test]
fn outage_revokes_leases_then_dedicated_retry_succeeds() {
    let movie = HostedMovie::from_allocation(MovieId(0), 30, 3, 15.0);
    assert_eq!(movie.geometry.restart_interval, 10);
    assert_eq!(movie.geometry.partition_capacity, 5);
    let mut server = VodServer::new(ServerConfig {
        piggyback: None,
        ..ServerConfig::provisioned(vec![movie], 2)
    });
    server.inject_faults(
        FaultPlan::new(vec![FaultEvent {
            at: 12,
            kind: FaultKind::DiskOutage {
                count: 100, // everything: free streams and both live leases
                recover_after: 5,
            },
        }]),
        DegradePolicy::default(),
    );
    let viewer = server.open_session(MovieId(0)).unwrap();
    run_checked(&mut server, 12);
    assert_eq!(
        server.session_status(viewer).unwrap(),
        SessionStatus::Shared
    );
    checked_tick(&mut server); // t = 12: outage strikes
    assert_eq!(
        server.session_status(viewer).unwrap(),
        SessionStatus::Degraded
    );
    assert_eq!(server.degraded_sessions(), 1);
    assert_eq!(
        server.metrics().leases_revoked,
        2,
        "both live playback leases revoked"
    );
    run_checked(&mut server, 8); // retries fail at 14/16; recovery at 17; grant at 20
    assert_eq!(
        server.session_status(viewer).unwrap(),
        SessionStatus::Dedicated,
        "post-recovery retry must grant a dedicated stream"
    );
    assert_eq!(server.degraded_sessions(), 0);
    let rt = server.runtime_metrics();
    assert_eq!(rt.degraded_entries, 1);
    assert_eq!(rt.degraded_dedicated, 1);
    assert_eq!(
        rt.denied_transient, 2,
        "the two refused retries classify as transient once one succeeds"
    );
    assert_eq!(rt.denied_permanent, 0);
    assert!(
        (rt.rewait_minutes - 9.0).abs() < 1e-9,
        "degraded ticks 12..=20"
    );
    run_checked(&mut server, 30);
    assert_eq!(server.session_status(viewer).unwrap(), SessionStatus::Done);
    let stats = server.session_stats(viewer).unwrap();
    assert_eq!(stats.total(), 30);
    assert_eq!(stats.verify_failures, 0);
}

/// The same-tick recovery-vs-timeout race, resolved for recovery. The
/// timeline is exact: outage degrades the viewer at 12, retries fail at
/// 14 and 16 (backoff 1 → 2 → 4), and with `retry_timeout = 8` the next
/// retry, the timeout expiry, *and* the outage recovery
/// (`recover_after: 8`) all land on tick 20. With `recovery_wins` the
/// session gets one last lease attempt against the just-returned
/// streams before the timeout resolves — and it must succeed, because
/// the streams that came back are exactly what it was retrying for.
#[test]
fn recovery_landing_on_the_timeout_tick_wins_the_race() {
    let movie = HostedMovie::from_allocation(MovieId(0), 30, 3, 15.0);
    let mut server = VodServer::new(ServerConfig {
        piggyback: None,
        ..ServerConfig::provisioned(vec![movie], 2)
    });
    server.inject_faults(
        FaultPlan::new(vec![FaultEvent {
            at: 12,
            kind: FaultKind::DiskOutage {
                count: 100,
                recover_after: 8, // recovery at 20 == since 12 + timeout 8
            },
        }]),
        DegradePolicy {
            retry_timeout: 8,
            recovery_wins: true,
            ..DegradePolicy::default()
        },
    );
    let viewer = server.open_session(MovieId(0)).unwrap();
    run_checked(&mut server, 13); // through the t = 12 outage
    assert_eq!(
        server.session_status(viewer).unwrap(),
        SessionStatus::Degraded
    );
    run_checked(&mut server, 8); // retries refused at 14/16; race tick 20
    assert_eq!(
        server.session_status(viewer).unwrap(),
        SessionStatus::Dedicated,
        "recovery landing on the timeout tick must win the race"
    );
    let rt = server.runtime_metrics();
    assert_eq!(rt.degraded_dedicated, 1);
    assert_eq!(
        rt.denied_transient, 2,
        "the 14/16 refusals classify as transient once the last chance lands"
    );
    assert_eq!(rt.denied_permanent, 0);
    run_checked(&mut server, 40);
    assert_eq!(server.session_status(viewer).unwrap(), SessionStatus::Done);
    let stats = server.session_stats(viewer).unwrap();
    assert_eq!(stats.total(), 30);
    assert_eq!(stats.verify_failures, 0);
}

/// The identical timeline under the default policy
/// (`recovery_wins: false`, the historical order): the timeout resolves
/// *before* the same-tick recovery, so the retry sequence classifies as
/// permanently denied even though capacity came back that very tick.
/// The viewer is delayed, never dropped — it rejoins a later restart's
/// batch window and still completes byte-exact.
#[test]
fn default_policy_resolves_timeout_before_same_tick_recovery() {
    let movie = HostedMovie::from_allocation(MovieId(0), 30, 3, 15.0);
    let mut server = VodServer::new(ServerConfig {
        piggyback: None,
        ..ServerConfig::provisioned(vec![movie], 2)
    });
    server.inject_faults(
        FaultPlan::new(vec![FaultEvent {
            at: 12,
            kind: FaultKind::DiskOutage {
                count: 100,
                recover_after: 8,
            },
        }]),
        DegradePolicy {
            retry_timeout: 8,
            ..DegradePolicy::default()
        },
    );
    let viewer = server.open_session(MovieId(0)).unwrap();
    run_checked(&mut server, 21); // same timeline through the race tick
    assert_eq!(
        server.session_status(viewer).unwrap(),
        SessionStatus::Degraded,
        "timeout-first order must not grant the dedicated stream"
    );
    let rt = server.runtime_metrics();
    assert_eq!(rt.degraded_dedicated, 0);
    assert_eq!(rt.denied_transient, 0);
    assert_eq!(
        rt.denied_permanent, 2,
        "the 14/16 refusals resolve permanent at the timeout"
    );
    run_checked(&mut server, 60); // a later restart's window covers position 12
    assert_eq!(server.session_status(viewer).unwrap(), SessionStatus::Done);
    let rt = server.runtime_metrics();
    assert_eq!(rt.degraded_rejoined, 1, "batch admission remains open");
    let stats = server.session_stats(viewer).unwrap();
    assert_eq!(stats.total(), 30, "delayed, never dropped");
    assert_eq!(stats.verify_failures, 0);
}

/// A disk slowdown stalls enrolled playback on off-period ticks (the
/// stream produces no segment, so the viewer waits with it) but delivery
/// stays byte-exact and complete.
#[test]
fn slowdown_stalls_playback_without_losing_segments() {
    let movie = HostedMovie::from_allocation(MovieId(0), 10, 1, 10.0);
    assert_eq!(movie.geometry.partition_capacity, 10, "full buffering");
    let mut server = VodServer::new(ServerConfig {
        piggyback: None,
        ..ServerConfig::provisioned(vec![movie], 1)
    });
    server.inject_faults(
        FaultPlan::new(vec![FaultEvent {
            at: 3,
            kind: FaultKind::DiskSlowdown {
                period: 2,
                duration: 10,
            },
        }]),
        DegradePolicy::default(),
    );
    let viewer = server.open_session(MovieId(0)).unwrap();
    run_checked(&mut server, 30);
    assert_eq!(server.session_status(viewer).unwrap(), SessionStatus::Done);
    let stats = server.session_stats(viewer).unwrap();
    assert_eq!(stats.total(), 10, "slowdown delays, never drops, segments");
    assert_eq!(stats.verify_failures, 0);
    let stalls = server.runtime_metrics().stall_minutes;
    assert!(
        (stalls - 5.0).abs() < 1e-9,
        "odd ticks 3,5,7,9,11 stall (got {stalls})"
    );
}

/// A buffer shrink that overcommits the pool evicts partitions; the
/// evicted viewer degrades and finishes on a dedicated stream; a later
/// restore lets scheduled restarts succeed again.
#[test]
fn buffer_shrink_evicts_partitions_and_restore_heals() {
    let movie = HostedMovie::from_allocation(MovieId(0), 20, 2, 10.0);
    assert_eq!(movie.geometry.restart_interval, 10);
    assert_eq!(movie.geometry.partition_capacity, 5);
    let config = ServerConfig {
        piggyback: None,
        ..ServerConfig::provisioned(vec![movie], 2)
    };
    let budget = config.buffer_budget as u32;
    let mut server = VodServer::new(config);
    server.inject_faults(
        FaultPlan::new(vec![
            FaultEvent {
                at: 15,
                kind: FaultKind::BufferShrink {
                    segments: budget - 2, // leaves less than one partition
                },
            },
            FaultEvent {
                at: 25,
                kind: FaultKind::BufferRestore {
                    segments: budget - 2,
                },
            },
        ]),
        DegradePolicy::default(),
    );
    let viewer = server.open_session(MovieId(0)).unwrap();
    run_checked(&mut server, 15);
    assert_eq!(
        server.session_status(viewer).unwrap(),
        SessionStatus::Shared
    );
    checked_tick(&mut server); // t = 15: shrink evicts every partition
    assert!(server.metrics().partitions_evicted >= 1);
    assert_eq!(
        server.session_status(viewer).unwrap(),
        SessionStatus::Degraded,
        "evicted partition degrades its enrolled viewer"
    );
    run_checked(&mut server, 40);
    assert_eq!(server.session_status(viewer).unwrap(), SessionStatus::Done);
    let stats = server.session_stats(viewer).unwrap();
    assert_eq!(stats.total(), 20);
    assert_eq!(stats.verify_failures, 0);
    assert!(
        server.metrics().runtime.restart_failures >= 1,
        "restarts failed while the pool was shrunk"
    );
}

/// While streams are failed, new VCR phase-1 grants are refused by the
/// starvation policy (playback is preserved ahead of trick modes).
#[test]
fn starvation_policy_denies_new_vcr_grants() {
    let movie = HostedMovie::from_allocation(MovieId(0), 20, 2, 10.0);
    let mut server = VodServer::new(ServerConfig {
        piggyback: None,
        ..ServerConfig::provisioned(vec![movie], 2)
    });
    server.inject_faults(
        FaultPlan::new(vec![FaultEvent {
            at: 5,
            kind: FaultKind::DiskStreamLoss { count: 1 }, // a free stream fails
        }]),
        DegradePolicy::default(),
    );
    let viewer = server.open_session(MovieId(0)).unwrap();
    run_checked(&mut server, 6);
    assert_eq!(
        server.session_status(viewer).unwrap(),
        SessionStatus::Shared
    );
    assert!(matches!(
        server.request_vcr(viewer, VcrKind::FastForward, 3),
        Err(ServerError::VcrDenied)
    ));
    assert_eq!(server.metrics().vcr_denied_degraded, 1);
    assert_eq!(server.runtime_metrics().denied_permanent, 1);
    // Playback itself is untouched by the policy.
    run_checked(&mut server, 30);
    assert_eq!(server.session_status(viewer).unwrap(), SessionStatus::Done);
    assert_eq!(server.session_stats(viewer).unwrap().verify_failures, 0);
}

fn harness_config() -> HarnessConfig {
    let movie = HostedMovie::from_allocation(MovieId(0), 120, 20, 100.0);
    HarnessConfig {
        server: ServerConfig {
            piggyback: None,
            ..ServerConfig::provisioned(vec![movie], 40)
        },
        workload: WorkloadConfig {
            movies: vec![0],
            behavior: BehaviorModel::uniform_dist(
                (0.2, 0.2, 0.6),
                30.0,
                Arc::new(Gamma::paper_fig7()),
            ),
            mean_interarrival: 2.0,
            warmup: 120,
            measure: 600,
            shape: WorkloadShape::RoundRobin,
        },
    }
}

/// The empty plan must reproduce `run_harness` bitwise — degradation
/// machinery costs nothing when nothing fails.
#[test]
fn empty_plan_is_bitwise_identical_to_harness() {
    let cfg = harness_config();
    let chaos = run_chaos(&cfg, 7, &FaultPlan::empty(), DegradePolicy::default());
    assert_eq!(chaos.metrics, run_harness(&cfg, 7));
    assert_eq!(chaos.violation_count, 0, "{:?}", chaos.violations);
    assert_eq!(chaos.degraded_at_end, 0);
}

/// A generated fault storm under full load: bitwise-deterministic
/// outcomes, zero invariant violations, and the fault machinery visibly
/// exercised.
#[test]
fn generated_storm_is_deterministic_and_conserving() {
    let cfg = harness_config();
    let plan = FaultPlan::generate(3, cfg.workload.warmup + cfg.workload.measure, 6);
    assert_eq!(plan.len(), 6);
    let a = run_chaos(&cfg, 11, &plan, DegradePolicy::default());
    let b = run_chaos(&cfg, 11, &plan, DegradePolicy::default());
    assert_eq!(a, b, "same (seed, plan) must reproduce bitwise");
    assert_eq!(a.violation_count, 0, "{:?}", a.violations);
    assert!(a.metrics.faults_injected > 0, "storm landed in the window");
}

/// A deliberately under-provisioned config so the dedicated backend
/// keeps a deep FIFO queue and every seeded storm hits live holders,
/// queued viewers, and starved retriers alike.
fn tight_config() -> HarnessConfig {
    let movie = HostedMovie::from_allocation(MovieId(0), 30, 2, 10.0);
    HarnessConfig {
        server: ServerConfig {
            piggyback: None,
            ..ServerConfig::provisioned(vec![movie], 2)
        },
        workload: WorkloadConfig {
            movies: vec![0],
            behavior: BehaviorModel::uniform_dist(
                (0.2, 0.2, 0.6),
                30.0,
                Arc::new(Gamma::paper_fig7()),
            ),
            mean_interarrival: 2.0,
            warmup: 30,
            measure: 150,
            shape: WorkloadShape::RoundRobin,
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Queue conservation for the dedicated backend under seeded
    /// fail/recover storms: every tick, each queue entry is a distinct
    /// live `Queued` session without a lease, every `Queued` session is
    /// in the queue exactly once, and the reserve's failure ledger
    /// mirrors the disk's — `check_invariants` audits all of it, so the
    /// whole storm must run violation-free and deterministically.
    #[test]
    fn dedicated_queue_conserved_under_seeded_storms(seed in 0u64..100_000) {
        let cfg = tight_config();
        let plan = FaultPlan::generate(seed, cfg.workload.warmup + cfg.workload.measure, 5);
        let policy = DegradePolicy::default();
        let a = run_chaos_backend(&cfg, BackendKind::DedicatedStream, seed, &plan, policy);
        prop_assert_eq!(
            a.outcome.violation_count, 0,
            "violations: {:?}", a.outcome.violations
        );
        prop_assert!(a.outcome.sessions_done <= a.outcome.sessions_opened);
        let b = run_chaos_backend(&cfg, BackendKind::DedicatedStream, seed, &plan, policy);
        prop_assert_eq!(a, b, "same (seed, plan) must reproduce bitwise");
    }

    /// The pyramid backend under the same seeded storms: channel-wheel
    /// phase consistency, per-session front == bitmap audit, and
    /// stall/metric monotonicity all hold tick by tick.
    #[test]
    fn pyramid_fronts_conserved_under_seeded_storms(seed in 0u64..100_000) {
        let cfg = tight_config();
        let plan = FaultPlan::generate(seed, cfg.workload.warmup + cfg.workload.measure, 5);
        let policy = DegradePolicy::default();
        let a = run_chaos_backend(&cfg, BackendKind::PyramidBroadcast, seed, &plan, policy);
        prop_assert_eq!(
            a.outcome.violation_count, 0,
            "violations: {:?}", a.outcome.violations
        );
        prop_assert!(a.outcome.sessions_done <= a.outcome.sessions_opened);
    }
}
