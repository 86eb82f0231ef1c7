//! The federation front tier: N independent delivery shards behind one
//! admission door.
//!
//! [`Federation`] owns a vector of [`DeliveryBackend`] shards (any
//! [`BackendKind`] per shard), routes admissions by a model-driven
//! placement map, and drives every shard on the shared integer-minute
//! tick grid. Whole-shard faults ([`FaultKind::ShardOutage`] /
//! [`FaultKind::ShardRecovery`]) are applied *here* — below the front
//! tier they are inert by contract — while every other fault kind is
//! distributed into per-shard local plans at construction (and again,
//! time-shifted, when a shard is cold-restarted after recovery).
//!
//! # Failover
//!
//! Taking a shard down drains its live sessions through a displaced
//! ledger that follows the same [`DegradePolicy`] vocabulary the
//! in-shard degradation machinery uses: each displaced session retries
//! re-admission on the surviving replicas of its movie (in placement
//! order) under exponential backoff — joining an in-window batch cohort
//! where one covers its position ([`Adoption::CohortJoin`]), falling
//! back to borrowing a surviving shard's dedicated-stream reserve
//! ([`Adoption::DedicatedStream`]) — until the retry timeout resolves it
//! to a transient denial (the movie is still recoverable: a replica up,
//! or a shard recovery still scheduled) or a permanent one. The front
//! tier arms [`DegradePolicy::recovery_wins`] for itself and its shards:
//! after a whole-shard recovery the recovery-vs-timeout race is the
//! norm, and recovery wins it.
//!
//! # Conservation
//!
//! Every displaced session ends in exactly one of {re-admitted,
//! re-waiting, denied-transient, denied-permanent};
//! [`Federation::check_invariants`] audits
//! [`FederationMetrics::conserved`] against the in-flight ledger after
//! every tick, alongside each live shard's own conservation laws.

use vod_runtime::{
    BackendKind, DegradePolicy, FaultEvent, FaultKind, FaultPlan, FederationMetrics, RuntimeMetrics,
};
use vod_server::{
    config_from_plan, make_backend, Adoption, DeliveryBackend, MovieId, ServerConfig, ServerError,
    SessionId, SessionStatus, WorkloadTarget,
};
use vod_sizing::ShardPlan;
use vod_workload::VcrKind;

/// One shard's construction recipe: the delivery scheme and the server
/// configuration (catalog slice, stream pool, buffer budget) it runs.
#[derive(Clone)]
pub struct ShardSpec {
    /// Delivery scheme this shard runs.
    pub backend: BackendKind,
    /// The shard's provisioning (its slice of the global budget).
    pub server: ServerConfig,
}

/// Federation construction parameters.
#[derive(Clone)]
pub struct FederationConfig {
    /// The shards, index = shard id.
    pub shards: Vec<ShardSpec>,
    /// Placement map: global movie index → `(shard, local movie id)`
    /// replicas in failover-preference order (first entry is the
    /// primary). Every movie needs at least one replica.
    pub placement: Vec<Vec<(usize, MovieId)>>,
    /// Degradation vocabulary for the displaced ledger and the shards.
    /// [`DegradePolicy::recovery_wins`] is forced on by the front tier.
    pub policy: DegradePolicy,
}

/// Handle to a federated session (stable across displacement and
/// re-admission — the shard-local [`SessionId`] behind it changes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FedSessionId(pub u32);

/// Where a federated session currently lives.
#[derive(Debug, Clone, Copy)]
enum FedState {
    /// Playing (or queued) on an up shard.
    Live { shard: usize, local: SessionId },
    /// Finished before (or observed finished at) its shard's outage; the
    /// shard-local handle is gone but the completion was accounted.
    Finished,
    /// In the displaced ledger, waiting for re-admission.
    Displaced {
        /// Playback position snapshotted when the shard went dark.
        position: u32,
        /// Tick the session entered the ledger.
        since: u64,
        /// Next tick a re-admission attempt is due.
        next_retry: u64,
        /// Current backoff (doubles per refused round, capped).
        backoff: u64,
    },
    /// Timed out while the movie was still recoverable.
    DeniedTransient,
    /// Timed out with every hosting replica dark and no recovery ahead.
    DeniedPermanent,
}

struct FedSession {
    /// Global movie index (into the placement map).
    movie: usize,
    state: FedState,
}

/// The front tier itself. See the module docs for the failover story.
pub struct Federation {
    specs: Vec<ShardSpec>,
    placement: Vec<Vec<(usize, MovieId)>>,
    policy: DegradePolicy,
    shards: Vec<Option<Box<dyn DeliveryBackend>>>,
    /// Global tick each live shard incarnation was constructed at (local
    /// shard time = global − this).
    started_at: Vec<u64>,
    plan: FaultPlan,
    fault_mode: bool,
    sessions: Vec<FedSession>,
    /// Fed ids currently displaced, in ledger (insertion) order.
    displaced: Vec<u32>,
    /// Finished-session counts retired from dead shard incarnations.
    retired_done: u64,
    /// Down shards at the last metrics reset (baseline for the
    /// outage/recovery population invariant).
    baseline_down: u64,
    metrics: FederationMetrics,
    now: u64,
}

impl Federation {
    /// Build the front tier: construct every shard via
    /// [`make_backend`] and arm it with its slice of `plan` (non-shard
    /// events routed by `at % shards`) under the federation's policy.
    ///
    /// # Panics
    ///
    /// Panics when the config is malformed: no shards, an empty or
    /// out-of-range placement entry, or a placement pointing at a movie
    /// its shard does not host.
    pub fn new(config: FederationConfig, plan: FaultPlan) -> Self {
        // vod-lint: allow(no-panic) — construction-time config validation;
        // a malformed federation is a harness bug, not a runtime state.
        assert!(!config.shards.is_empty(), "federation needs shards");
        for (m, replicas) in config.placement.iter().enumerate() {
            assert!(!replicas.is_empty(), "movie {m} has no replica");
            for &(s, local) in replicas {
                let spec = config
                    .shards
                    .get(s)
                    // vod-lint: allow(no-panic) — construction-time validation
                    .unwrap_or_else(|| panic!("movie {m} placed on missing shard {s}"));
                assert!(
                    spec.server.movies.iter().any(|hm| hm.movie == local),
                    "movie {m}: shard {s} does not host local id {}",
                    local.0
                );
            }
        }
        let mut policy = config.policy;
        policy.recovery_wins = true;
        let fault_mode = !plan.is_empty();
        let n = config.shards.len();
        let mut fed = Self {
            shards: Vec::with_capacity(n),
            started_at: vec![0; n],
            specs: config.shards,
            placement: config.placement,
            policy,
            plan,
            fault_mode,
            sessions: Vec::new(),
            displaced: Vec::new(),
            retired_done: 0,
            baseline_down: 0,
            metrics: FederationMetrics::new(),
            now: 0,
        };
        for s in 0..n {
            let mut shard = make_backend(fed.specs[s].backend, &fed.specs[s].server);
            shard.inject_faults(fed.local_plan(s, 0), fed.policy);
            fed.shards.push(Some(shard));
        }
        fed
    }

    /// The shard-local fault plan for shard `s` rebuilt at global tick
    /// `from`: every non-shard event with `at % shards == s` and
    /// `at ≥ from`, shifted onto the incarnation's local clock.
    fn local_plan(&self, s: usize, from: u64) -> FaultPlan {
        let n = self.specs.len() as u64;
        FaultPlan::new(
            self.plan
                .events()
                .iter()
                .filter(|e| {
                    !matches!(
                        e.kind,
                        FaultKind::ShardOutage { .. } | FaultKind::ShardRecovery { .. }
                    ) && e.at % n == s as u64
                        && e.at >= from
                })
                .map(|e| FaultEvent {
                    at: e.at - from,
                    kind: e.kind,
                })
                .collect(),
        )
    }

    /// Number of shards (up or down).
    pub fn shard_count(&self) -> usize {
        self.specs.len()
    }

    /// Whether shard `s` is currently up.
    pub fn shard_up(&self, s: usize) -> bool {
        self.shards[s].is_some()
    }

    /// Current global tick.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Route an admission for global movie `movie` through the placement
    /// map: the first up replica takes it. `None` means every replica is
    /// dark and the admission was denied (counted, no session tracked).
    ///
    /// # Panics
    ///
    /// Panics if `movie` is outside the placement map. The workload
    /// driver (`vod_server::drive`) rejects such a movie before its
    /// first tick.
    pub fn open_session(&mut self, movie: usize) -> Option<FedSessionId> {
        let mut skipped_dead = false;
        for &(s, local) in &self.placement[movie] {
            let Some(shard) = self.shards[s].as_mut() else {
                skipped_dead = true;
                continue;
            };
            // vod-lint: allow(no-panic) — placement was validated against
            // the shard's hosted catalog at construction.
            let id = shard.open_session(local).expect("placement hosts movie");
            self.metrics.admissions_routed += 1;
            if skipped_dead {
                self.metrics.admissions_rerouted += 1;
            }
            let fed = FedSessionId(self.sessions.len() as u32);
            self.sessions.push(FedSession {
                movie,
                state: FedState::Live {
                    shard: s,
                    local: id,
                },
            });
            return Some(fed);
        }
        self.metrics.admissions_denied += 1;
        None
    }

    /// Session status in the shared vocabulary: live sessions report
    /// their shard's status, displaced sessions report
    /// [`SessionStatus::Degraded`], and resolved (finished or denied)
    /// sessions report [`SessionStatus::Done`].
    pub fn session_status(&self, id: FedSessionId) -> SessionStatus {
        match self.sessions[id.0 as usize].state {
            FedState::Live { shard, local } => {
                // vod-lint: allow(no-panic) — a Live state always points at
                // an up shard (audited by check_invariants every tick).
                self.shards[shard]
                    .as_ref()
                    // vod-lint: allow(no-panic) — Live ⇒ shard up, audited
                    .expect("live session on up shard")
                    .session_status(local)
                    // vod-lint: allow(no-panic) — Live ⇒ shard owns the id
                    .expect("shard knows its session")
            }
            FedState::Displaced { .. } => SessionStatus::Degraded,
            FedState::Finished | FedState::DeniedTransient | FedState::DeniedPermanent => {
                SessionStatus::Done
            }
        }
    }

    /// Forward a VCR request to the session's shard. Displaced or
    /// resolved sessions refuse with [`ServerError::VcrDenied`] (the
    /// front tier has no stream to serve it from).
    pub fn request_vcr(
        &mut self,
        id: FedSessionId,
        kind: VcrKind,
        magnitude: u32,
    ) -> Result<(), ServerError> {
        match self.sessions[id.0 as usize].state {
            FedState::Live { shard, local } => {
                // vod-lint: allow(no-panic) — Live ⇒ shard up (see above).
                self.shards[shard]
                    .as_mut()
                    // vod-lint: allow(no-panic) — Live ⇒ shard up, audited
                    .expect("live session on up shard")
                    .request_vcr(local, kind, magnitude)
            }
            _ => Err(ServerError::VcrDenied),
        }
    }

    /// Advance one virtual minute: apply whole-shard fault events due at
    /// the current tick (recoveries restart shards *before* the ledger
    /// runs, so a same-tick timeout loses the race to recovery), process
    /// the displaced ledger, then tick every up shard.
    pub fn tick(&mut self) {
        if self.fault_mode {
            let events: Vec<FaultKind> = self
                .plan
                .events_at(self.now)
                .iter()
                .map(|e| e.kind)
                .collect();
            for kind in events {
                match kind {
                    FaultKind::ShardOutage { shard } => self.shard_outage(shard as usize),
                    FaultKind::ShardRecovery { shard } => self.shard_recovery(shard as usize),
                    // Capacity faults were distributed into per-shard
                    // local plans at construction/rebuild.
                    FaultKind::DiskStreamLoss { .. }
                    | FaultKind::DiskOutage { .. }
                    | FaultKind::DiskSlowdown { .. }
                    | FaultKind::BufferShrink { .. }
                    | FaultKind::BufferRestore { .. } => {}
                }
            }
        }
        self.drain_ledger();
        for shard in self.shards.iter_mut().flatten() {
            shard.tick();
        }
        self.now += 1;
    }

    /// Take shard `s` down: retire its finished-session count, displace
    /// every live session into the ledger, and drop the backend. A
    /// second outage on an already-dark shard is a no-op (uncounted).
    fn shard_outage(&mut self, s: usize) {
        let Some(shard) = self.shards[s].take() else {
            return;
        };
        self.metrics.shard_outages += 1;
        self.retired_done += shard.sessions_finished();
        let now = self.now;
        for i in 0..self.sessions.len() {
            let FedState::Live { shard: home, local } = self.sessions[i].state else {
                continue;
            };
            if home != s {
                continue;
            }
            let finished = matches!(shard.session_status(local), Ok(SessionStatus::Done));
            if finished {
                self.sessions[i].state = FedState::Finished;
                continue;
            }
            // vod-lint: allow(no-panic) — a non-Done live session always
            // has a queryable position on its (still-held) backend.
            let position = shard.session_position(local).expect("live session");
            self.sessions[i].state = FedState::Displaced {
                position,
                since: now,
                next_retry: now,
                backoff: self.policy.retry_backoff.max(1),
            };
            self.displaced.push(i as u32);
            self.metrics.displaced_total += 1;
        }
    }

    /// Cold-restart shard `s` after an outage: a fresh backend armed
    /// with the remaining slice of the global plan, time-shifted onto
    /// the new incarnation's local clock. Recovery of an up shard is a
    /// no-op (uncounted).
    fn shard_recovery(&mut self, s: usize) {
        if self.shards[s].is_some() {
            return;
        }
        let mut shard = make_backend(self.specs[s].backend, &self.specs[s].server);
        shard.inject_faults(self.local_plan(s, self.now), self.policy);
        self.shards[s] = Some(shard);
        self.started_at[s] = self.now;
        self.metrics.shard_recoveries += 1;
    }

    /// One ledger pass: due sessions attempt re-admission on the up
    /// replicas of their movie in placement order; refused rounds back
    /// off exponentially; the retry timeout resolves survivors into
    /// transient or permanent denials (with the recovery-wins last
    /// chance on a same-tick shard recovery).
    fn drain_ledger(&mut self) {
        let now = self.now;
        let mut keep: Vec<u32> = Vec::with_capacity(self.displaced.len());
        for k in 0..self.displaced.len() {
            let i = self.displaced[k] as usize;
            let movie = self.sessions[i].movie;
            let FedState::Displaced {
                position,
                since,
                next_retry,
                backoff,
            } = self.sessions[i].state
            else {
                // vod-lint: allow(no-panic) — the ledger only lists
                // Displaced sessions (audited by check_invariants).
                unreachable!("ledger entry not displaced");
            };
            let timed_out = now.saturating_sub(since) >= self.policy.retry_timeout;
            // Recovery wins a same-tick race: a recovery applied this
            // tick re-opens the attempt even past the timeout.
            let last_chance = timed_out
                && self.policy.recovery_wins
                && self.placement[movie]
                    .iter()
                    .any(|&(s, _)| self.started_at[s] == now && self.shards[s].is_some());
            if now >= next_retry || last_chance {
                let mut adopted = false;
                for r in 0..self.placement[movie].len() {
                    let (s, local) = self.placement[movie][r];
                    let Some(shard) = self.shards[s].as_mut() else {
                        continue;
                    };
                    match shard.adopt_session(local, position) {
                        Ok((sid, how)) => {
                            self.sessions[i].state = FedState::Live {
                                shard: s,
                                local: sid,
                            };
                            match how {
                                Adoption::CohortJoin => self.metrics.readmitted_cohort += 1,
                                Adoption::DedicatedStream => self.metrics.readmitted_dedicated += 1,
                            }
                            adopted = true;
                            break;
                        }
                        Err(_) => self.metrics.readmit_refusals += 1,
                    }
                }
                if adopted {
                    continue;
                }
            }
            if timed_out {
                if self.movie_recoverable(movie) {
                    self.sessions[i].state = FedState::DeniedTransient;
                    self.metrics.denied_transient += 1;
                } else {
                    self.sessions[i].state = FedState::DeniedPermanent;
                    self.metrics.denied_permanent += 1;
                }
                continue;
            }
            self.metrics.rewait_ticks += 1;
            if now >= next_retry {
                self.sessions[i].state = FedState::Displaced {
                    position,
                    since,
                    next_retry: now + backoff,
                    backoff: (backoff * 2).min(self.policy.retry_backoff_cap.max(1)),
                };
            }
            keep.push(i as u32);
        }
        self.displaced = keep;
    }

    /// Whether a timed-out displaced session's movie could still be
    /// served later: some hosting replica is up, or a shard recovery for
    /// one is still ahead in the plan.
    fn movie_recoverable(&self, movie: usize) -> bool {
        let hosted_up = self.placement[movie]
            .iter()
            .any(|&(s, _)| self.shards[s].is_some());
        if hosted_up {
            return true;
        }
        self.plan.events().iter().any(|e| {
            e.at > self.now
                && matches!(
                    e.kind,
                    FaultKind::ShardRecovery { shard }
                        if self.placement[movie].iter().any(|&(s, _)| s == shard as usize)
                )
        })
    }

    /// Reset every up shard's counters and re-baseline the federation
    /// ledger metrics (end of warm-up). In-flight displaced sessions
    /// carry over as the new `displaced_total` baseline so conservation
    /// keeps holding.
    pub fn reset_metrics(&mut self) {
        for shard in self.shards.iter_mut().flatten() {
            shard.reset_metrics();
        }
        self.retired_done = 0;
        self.baseline_down = self.shards.iter().filter(|s| s.is_none()).count() as u64;
        self.metrics = FederationMetrics {
            displaced_total: self.displaced.len() as u64,
            ..FederationMetrics::new()
        };
    }

    /// Snapshot of the federation-level ledger counters.
    pub fn federation_metrics(&self) -> FederationMetrics {
        self.metrics
    }

    /// Per-shard [`RuntimeMetrics`] snapshots (`None` for dark shards).
    pub fn per_shard_metrics(&self) -> Vec<Option<RuntimeMetrics>> {
        self.shards
            .iter()
            .map(|s| s.as_ref().map(|b| b.runtime_metrics()))
            .collect()
    }

    /// Sessions in a degraded state anywhere: in-shard degraded plus the
    /// displaced ledger population.
    pub fn degraded_sessions(&self) -> u64 {
        let in_shard: u64 = self
            .shards
            .iter()
            .flatten()
            .map(|s| u64::from(s.degraded_sessions()))
            .sum();
        in_shard + self.displaced.len() as u64
    }

    /// Sessions finished federation-wide: live shards' counts plus the
    /// totals retired from dead incarnations.
    pub fn sessions_finished(&self) -> u64 {
        let live: u64 = self
            .shards
            .iter()
            .flatten()
            .map(|s| s.sessions_finished())
            .sum();
        live + self.retired_done
    }

    /// Displaced sessions currently in the ledger.
    pub fn displaced_in_flight(&self) -> u64 {
        self.displaced.len() as u64
    }

    /// Conservation audit, run by the driver after every tick:
    ///
    /// 1. every live shard's own invariants (tagged `shard <s>:`),
    /// 2. the displaced-session ledger balances
    ///    ([`FederationMetrics::conserved`] against in-flight),
    /// 3. every `Live` session points at an up shard, and the ledger
    ///    lists exactly the `Displaced` sessions,
    /// 4. the outage/recovery counters explain the dark-shard population.
    pub fn check_invariants(&self) -> Vec<String> {
        let mut v = Vec::new();
        for (s, shard) in self.shards.iter().enumerate() {
            if let Some(shard) = shard {
                for what in shard.check_invariants() {
                    v.push(format!("shard {s}: {what}"));
                }
            }
        }
        if !self.metrics.conserved(self.displaced.len() as u64) {
            v.push(format!(
                "displaced ledger out of balance: {} displaced vs {} resolved + {} in flight",
                self.metrics.displaced_total,
                self.metrics.readmitted_cohort
                    + self.metrics.readmitted_dedicated
                    + self.metrics.denied_transient
                    + self.metrics.denied_permanent,
                self.displaced.len()
            ));
        }
        let mut displaced_states = 0u64;
        for (i, sess) in self.sessions.iter().enumerate() {
            match sess.state {
                FedState::Live { shard, .. } if self.shards[shard].is_none() => {
                    v.push(format!("session {i} live on dark shard {shard}"));
                }
                FedState::Displaced { .. } => {
                    displaced_states += 1;
                    if !self.displaced.contains(&(i as u32)) {
                        v.push(format!("displaced session {i} missing from ledger"));
                    }
                }
                _ => {}
            }
        }
        if displaced_states != self.displaced.len() as u64 {
            v.push(format!(
                "ledger lists {} sessions but {} are displaced",
                self.displaced.len(),
                displaced_states
            ));
        }
        let down = self.shards.iter().filter(|s| s.is_none()).count() as u64;
        if self.metrics.shard_outages + self.baseline_down != self.metrics.shard_recoveries + down {
            v.push(format!(
                "outage accounting: {} outages + {} baseline ≠ {} recoveries + {} down",
                self.metrics.shard_outages, self.baseline_down, self.metrics.shard_recoveries, down
            ));
        }
        v
    }
}

/// The workload driver's view of the front tier: movies are global
/// placement indices, and a refused admission is a `None`.
impl WorkloadTarget for Federation {
    type Session = FedSessionId;
    type Metrics = FederationMetrics;

    fn hosts(&self, movie: usize) -> bool {
        // Construction checked every placement entry has a hosting replica.
        movie < self.placement.len()
    }

    fn open(&mut self, movie: usize) -> Option<FedSessionId> {
        self.open_session(movie)
    }

    fn status(&self, id: FedSessionId) -> SessionStatus {
        self.session_status(id)
    }

    fn vcr(&mut self, id: FedSessionId, kind: VcrKind, magnitude: u32) -> Result<(), ServerError> {
        self.request_vcr(id, kind, magnitude)
    }

    fn tick(&mut self) {
        Federation::tick(self)
    }

    fn reset_metrics(&mut self) {
        Federation::reset_metrics(self)
    }

    fn check_invariants(&self) -> Vec<String> {
        Federation::check_invariants(self)
    }

    fn counters(&self) -> FederationMetrics {
        self.metrics
    }

    fn monotone_violations(
        prev: &FederationMetrics,
        next: &FederationMetrics,
    ) -> Vec<&'static str> {
        prev.monotone_violations(next)
    }
}

/// Build shard specs and a placement map from a [`split_budget`]
/// result: shard `s` hosts the movies [`ShardPlan`] assigned it (local
/// ids in shard-local order, matching [`config_from_plan`]), each with a
/// single replica. `lengths[i]` is global movie `i`'s length in minutes
/// and `vcr_reserve` the per-shard dedicated-stream reserve.
///
/// [`split_budget`]: vod_sizing::split_budget
pub fn shards_from_split(
    split: &ShardPlan,
    lengths: &[u32],
    vcr_reserve: u32,
    backend: BackendKind,
) -> (Vec<ShardSpec>, Vec<Vec<(usize, MovieId)>>) {
    let mut placement: Vec<Vec<(usize, MovieId)>> = vec![Vec::new(); split.plan.allocations.len()];
    let specs = (0..split.shards())
        .map(|s| {
            let local = split.shard_plan(s);
            let local_lengths: Vec<u32> =
                split.shard_movies[s].iter().map(|&i| lengths[i]).collect();
            for (pos, &i) in split.shard_movies[s].iter().enumerate() {
                placement[i].push((s, MovieId(pos as u32)));
            }
            ShardSpec {
                backend,
                server: config_from_plan(&local, &local_lengths, vcr_reserve),
            }
        })
        .collect();
    (specs, placement)
}
