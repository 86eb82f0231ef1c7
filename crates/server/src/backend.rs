//! The [`DeliveryBackend`] trait: the seam between workload drivers and
//! delivery schemes.
//!
//! The harness/chaos driver, the fault plans, and the workload scripts
//! only ever need a small surface from a server: open sessions, issue
//! VCR operations, advance virtual time, and read the shared
//! [`RuntimeMetrics`] vocabulary. This trait is that surface. The
//! incumbent batching+buffering [`VodServer`] implements it by
//! delegation (provably behavior-preserving — the `backend_equivalence`
//! suite pins `run_harness` through the trait against the inherent API
//! bitwise), and the two comparison backends implement it natively:
//! [`PyramidServer`](crate::PyramidServer) (fast broadcasting) and
//! [`DedicatedServer`](crate::DedicatedServer) (pure unicast).
//!
//! What each backend owns behind the trait: admission shaping (batch
//! enrollment vs. boundary join vs. immediate grant), restart/segment
//! scheduling on the `TimerWheel`, per-tick buffer occupancy, and the
//! mapping of its internal states onto the shared [`SessionStatus`] and
//! metrics vocabulary. See DESIGN.md §12 for the full contract.

use vod_runtime::{BackendKind, DegradePolicy, FaultPlan, RuntimeMetrics};
use vod_workload::{VcrKind, Welford};

use crate::content::MovieId;
use crate::dedicated::DedicatedServer;
use crate::pyramid::PyramidServer;
use crate::server::{ServerConfig, ServerError, VodServer};
use crate::session::{SessionId, SessionStatus};

/// How a backend re-admitted a displaced session
/// ([`DeliveryBackend::adopt_session`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Adoption {
    /// Joined an existing batch/broadcast cohort whose window covers the
    /// session's position — free, no dedicated resources consumed.
    CohortJoin,
    /// Granted a dedicated stream from the backend's reserve (cross-shard
    /// borrowing when the front tier drives the adoption).
    DedicatedStream,
}

/// A delivery scheme a workload driver can run sessions against.
///
/// Contract (every implementor, pinned by the equivalence and proptest
/// suites):
///
/// * **Determinism** — same construction + same call sequence ⇒
///   bitwise-identical metrics and statuses. No wall clock, no ambient
///   randomness.
/// * **Liveness** — `open_session` on a hosted movie always succeeds;
///   backends that cannot start playback immediately queue the session
///   (status [`SessionStatus::Waiting`]) rather than erroring.
/// * **Accounting** — `runtime_metrics` uses each counter with the
///   exact meaning documented on [`RuntimeMetrics`]; `startup_waits`
///   gets one sample per opened session (minutes from open to scheduled
///   playback start; samples for still-queued sessions may be recorded
///   at start time).
/// * **Conservation** — `check_invariants` returns human-readable
///   violations of the backend's resource-conservation laws; it must be
///   a pure read, cheap enough to run after every tick.
pub trait DeliveryBackend {
    /// Which scheme this is (names the row in comparison reports).
    fn kind(&self) -> BackendKind;

    /// Current virtual time in minutes.
    fn now(&self) -> u64;

    /// Whether `movie` is in the hosted catalog.
    fn hosts(&self, movie: MovieId) -> bool;

    /// Open a session for `movie`; queues if playback cannot start now.
    fn open_session(&mut self, movie: MovieId) -> Result<SessionId, ServerError>;

    /// Issue a VCR operation on a playing session (`magnitude` = minutes
    /// swept for FF/RW, pause duration for Pause).
    fn request_vcr(
        &mut self,
        id: SessionId,
        kind: VcrKind,
        magnitude: u32,
    ) -> Result<(), ServerError>;

    /// Current session status in the shared vocabulary.
    fn session_status(&self, id: SessionId) -> Result<SessionStatus, ServerError>;

    /// Playback position (whole minutes consumed) of a session. Valid
    /// for any live or finished session; the federation front tier
    /// snapshots it when draining a shard marked for outage.
    fn session_position(&self, id: SessionId) -> Result<u32, ServerError>;

    /// Adopt a session displaced from another shard, resuming `movie` at
    /// `position`. Unlike `open_session` this is a migration, not an
    /// admission: no startup-wait sample is recorded, and the backend
    /// must either place the session immediately (join a cohort whose
    /// window covers `position`, or grant a dedicated stream) or refuse
    /// with [`ServerError::VcrDenied`] so the caller's failover ledger
    /// can back off and retry. `position` past the movie end is an
    /// [`ServerError::InvalidState`]; a backend whose delivery scheme
    /// cannot start mid-movie may refuse every call.
    fn adopt_session(
        &mut self,
        movie: MovieId,
        position: u32,
    ) -> Result<(SessionId, Adoption), ServerError>;

    /// Advance one virtual minute.
    fn tick(&mut self);

    /// Reset counters and re-baseline occupancy statistics (end of
    /// warm-up).
    fn reset_metrics(&mut self);

    /// Snapshot of the shared mechanism counters.
    fn runtime_metrics(&self) -> RuntimeMetrics;

    /// Startup-wait samples since the last reset (one per session whose
    /// playback start has been scheduled).
    fn startup_waits(&self) -> &Welford;

    /// Arm a deterministic fault schedule and degradation policy. An
    /// empty plan must leave behavior bitwise identical to a never-armed
    /// backend.
    fn inject_faults(&mut self, plan: FaultPlan, policy: DegradePolicy);

    /// Conservation-invariant violations (empty when healthy).
    fn check_invariants(&self) -> Vec<String>;

    /// Sessions currently in a degraded/starved re-wait state.
    fn degraded_sessions(&self) -> u32;

    /// Sessions that reached `Done` (finished or closed early).
    fn sessions_finished(&self) -> u64;

    /// Byte-verification failures on the delivery path (must stay 0).
    fn verify_failures(&self) -> u64;

    /// Provisioned I/O streams `Σn` — the stream term of the cost model
    /// `C = C_n(φΣB + Σn)`.
    fn io_streams(&self) -> u32;

    /// Provisioned server-side buffer `ΣB` in segments — the buffer term
    /// of the cost model.
    fn buffer_segments(&self) -> u64;
}

impl DeliveryBackend for VodServer {
    fn kind(&self) -> BackendKind {
        BackendKind::BatchingBuffering
    }

    fn now(&self) -> u64 {
        VodServer::now(self)
    }

    fn hosts(&self, movie: MovieId) -> bool {
        self.config().movies.iter().any(|m| m.movie == movie)
    }

    fn open_session(&mut self, movie: MovieId) -> Result<SessionId, ServerError> {
        VodServer::open_session(self, movie)
    }

    fn request_vcr(
        &mut self,
        id: SessionId,
        kind: VcrKind,
        magnitude: u32,
    ) -> Result<(), ServerError> {
        VodServer::request_vcr(self, id, kind, magnitude)
    }

    fn session_status(&self, id: SessionId) -> Result<SessionStatus, ServerError> {
        VodServer::session_status(self, id)
    }

    fn session_position(&self, id: SessionId) -> Result<u32, ServerError> {
        VodServer::session_position(self, id)
    }

    fn adopt_session(
        &mut self,
        movie: MovieId,
        position: u32,
    ) -> Result<(SessionId, Adoption), ServerError> {
        VodServer::adopt_session(self, movie, position)
    }

    fn tick(&mut self) {
        VodServer::tick(self)
    }

    fn reset_metrics(&mut self) {
        VodServer::reset_metrics(self)
    }

    fn runtime_metrics(&self) -> RuntimeMetrics {
        VodServer::runtime_metrics(self)
    }

    fn startup_waits(&self) -> &Welford {
        VodServer::startup_waits(self)
    }

    fn inject_faults(&mut self, plan: FaultPlan, policy: DegradePolicy) {
        VodServer::inject_faults(self, plan, policy)
    }

    fn check_invariants(&self) -> Vec<String> {
        VodServer::check_invariants(self)
    }

    fn degraded_sessions(&self) -> u32 {
        VodServer::degraded_sessions(self)
    }

    fn sessions_finished(&self) -> u64 {
        self.metrics().sessions_done + self.metrics().sessions_closed_early
    }

    fn verify_failures(&self) -> u64 {
        self.metrics().verify_failures
    }

    fn io_streams(&self) -> u32 {
        self.config().disk_streams
    }

    fn buffer_segments(&self) -> u64 {
        self.config().buffer_budget as u64
    }
}

/// Build the backend of `kind` from one shared [`ServerConfig`]. The
/// config is the batching scheme's vocabulary (movies with quantized
/// `(T, b)` geometry, a disk-stream pool, a buffer budget); the other
/// backends re-derive their own provisioning from it so a comparison
/// holds the hosted catalog and the promised worst-case startup wait
/// fixed while the delivery scheme varies:
///
/// * `BatchingBuffering` — the config verbatim.
/// * `PyramidBroadcast` — per movie, the smallest channel count whose
///   segment-1 period ≤ the movie's batching `max_wait`; buffer shrinks
///   to one staging segment per channel.
/// * `DedicatedStream` — the same disk-stream pool, zero buffer; every
///   session needs its own stream.
pub fn make_backend(kind: BackendKind, config: &ServerConfig) -> Box<dyn DeliveryBackend> {
    match kind {
        BackendKind::BatchingBuffering => Box::new(VodServer::new(config.clone())),
        BackendKind::PyramidBroadcast => Box::new(PyramidServer::new(config.clone())),
        BackendKind::DedicatedStream => Box::new(DedicatedServer::new(config.clone())),
    }
}
