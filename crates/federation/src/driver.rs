//! Seeded federation workload runs: [`run_federation`] builds a
//! [`Federation`] and hands it to the `vod-server` workload loop
//! ([`drive`]), the same loop behind `run_harness`.

use vod_runtime::{FaultPlan, FederationMetrics, RuntimeMetrics};
use vod_server::{drive, WorkloadConfig};

use crate::front::{Federation, FederationConfig};

/// Result of one [`run_federation`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct FederationOutcome {
    /// Federation-level ledger counters (measured window).
    pub fed: FederationMetrics,
    /// Per-shard runtime metrics (`None` for shards dark at the end).
    pub per_shard: Vec<Option<RuntimeMetrics>>,
    /// Total invariant + monotonicity violations observed.
    pub violation_count: u64,
    /// First few violation descriptions, `"t=<tick>: <what>"`.
    pub violations: Vec<String>,
    /// Sessions admitted over the whole run.
    pub sessions_opened: u64,
    /// Arrivals denied admission (every replica dark).
    pub sessions_denied_admission: u64,
    /// Sessions finished federation-wide by the end.
    pub sessions_done: u64,
    /// Degraded population (in-shard + displaced ledger) at the end.
    pub degraded_at_end: u64,
    /// Displaced sessions still in the ledger at the end.
    pub displaced_in_flight: u64,
    /// Ticks driven (warm-up + measured).
    pub ticks: u64,
}

/// Drive a federation built from `config` with the seeded `workload`
/// (movies are global placement indices), injecting the global `plan`
/// and auditing [`Federation::check_invariants`] plus
/// [`FederationMetrics`] monotonicity after every tick. Same `(config,
/// plan, workload, seed)` ⇒ bitwise-identical outcome.
///
/// # Panics
///
/// Panics if `config` is malformed (see [`Federation::new`]), or if the
/// workload's movie list is empty or names a movie (the flash-crowd one
/// included) outside the placement map (see [`drive`]).
pub fn run_federation(
    config: FederationConfig,
    plan: &FaultPlan,
    workload: &WorkloadConfig,
    seed: u64,
) -> FederationOutcome {
    let mut fed = Federation::new(config, plan.clone());
    let log = drive(&mut fed, workload, seed, true);
    FederationOutcome {
        fed: fed.federation_metrics(),
        per_shard: fed.per_shard_metrics(),
        violation_count: log.violation_count,
        violations: log.violations,
        sessions_opened: log.sessions_opened,
        sessions_denied_admission: log.sessions_denied_admission,
        sessions_done: fed.sessions_finished(),
        degraded_at_end: fed.degraded_sessions(),
        displaced_in_flight: fed.displaced_in_flight(),
        ticks: log.ticks,
    }
}
