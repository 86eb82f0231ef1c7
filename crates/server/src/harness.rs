//! Deterministic load harness: drives a [`DeliveryBackend`] (the
//! batching [`VodServer`] by default) with the same statistical workload
//! primitives the simulator uses (Poisson arrivals, a [`BehaviorModel`]
//! VCR mix), under a fixed seed, and reports the shared
//! [`RuntimeMetrics`] vocabulary. One public [`drive`] loop, generic over
//! [`WorkloadTarget`], serves every entry point — harness, chaos, the
//! backend comparison, and the `vod-federation` front tier — so the
//! workload's arrival/interaction policy and RNG draw order live here
//! and nowhere else.
//!
//! This is the server-side leg of the three-way cross-validation
//! (analytic model ↔ event simulator ↔ tick server): the same `(l, B, n,
//! VCR mix)` configuration runs through all three and the hit
//! probabilities are compared. Everything here is integer-minute — the
//! continuous samples are floored/rounded onto the tick grid — so
//! agreement with the continuous-time model is approximate by design
//! (tolerances live in the cross-validation test).

use rand::RngCore;
use vod_dist::rng::{exponential, seeded};
use vod_runtime::{BackendKind, DegradePolicy, FaultPlan, RuntimeMetrics};
use vod_workload::{BehaviorModel, VcrKind};

use crate::backend::{make_backend, DeliveryBackend};
use crate::content::MovieId;
use crate::server::{HostedMovie, ServerConfig, ServerError, VodServer};
use crate::session::{SessionId, SessionStatus};

/// The seeded viewer workload every driver in this repo replays:
/// Poisson arrivals picking movies by a [`WorkloadShape`], then each
/// viewer's VCR interactions drawn from one [`BehaviorModel`].
#[derive(Clone)]
pub struct WorkloadConfig {
    /// Catalog indices arrivals request, in round-robin order (slot 0
    /// first). A backend's movie `m` is `MovieId(m)`; a federation's is
    /// its global placement index.
    pub movies: Vec<usize>,
    /// Viewer interaction behavior (same model `vod-sim` consumes).
    pub behavior: BehaviorModel,
    /// Mean minutes between viewer arrivals (Poisson process).
    pub mean_interarrival: f64,
    /// Warm-up ticks excluded from measurement (metrics are reset after).
    pub warmup: u64,
    /// Measured ticks after warm-up.
    pub measure: u64,
    /// Movie-selection / arrival-rate shape.
    pub shape: WorkloadShape,
}

/// How arrivals pick movies (and how the arrival rate moves) over the
/// run. [`RoundRobin`](WorkloadShape::RoundRobin) consumes no extra
/// randomness; the other two draw one extra `u64` per arrival (Zipf) or
/// modulate the arrival mean (flash crowd).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WorkloadShape {
    /// Cycle through the catalog in arrival order.
    RoundRobin,
    /// Zipf-distributed movie popularity whose skew drifts linearly
    /// from `start_skew` to `end_skew` across the horizon: the hot set
    /// migrates, stressing placement maps sized for the initial skew.
    ZipfDrift {
        /// Skew exponent at tick 0.
        start_skew: f64,
        /// Skew exponent at tick `warmup + measure`, one past the last
        /// tick driven (tick `t` uses the skew interpolated at
        /// `t / (warmup + measure)`).
        end_skew: f64,
    },
    /// A flash crowd: inside `[at, at + duration)` every arrival
    /// requests `movie` and the arrival mean divides by `factor`.
    FlashCrowd {
        /// First tick of the crowd window.
        at: u64,
        /// Window length in ticks.
        duration: u64,
        /// Arrival-rate multiplier (mean interarrival ÷ `factor`).
        factor: f64,
        /// Catalog index the crowd requests.
        movie: usize,
    },
}

impl WorkloadShape {
    /// The flash crowd's `(factor, movie)` when `minute` falls inside its
    /// window.
    fn crowd_at(self, minute: u64) -> Option<(f64, usize)> {
        match self {
            WorkloadShape::FlashCrowd {
                at,
                duration,
                factor,
                movie,
            } if minute >= at && minute < at.saturating_add(duration) => Some((factor, movie)),
            _ => None,
        }
    }
}

/// Pick the movie for arrival number `arrivals` at tick `minute`.
fn select_movie(
    cfg: &WorkloadConfig,
    arrivals: u64,
    minute: u64,
    horizon: u64,
    rng: &mut dyn RngCore,
) -> usize {
    let round_robin = cfg.movies[(arrivals % cfg.movies.len() as u64) as usize];
    if let Some((_, movie)) = cfg.shape.crowd_at(minute) {
        return movie;
    }
    let WorkloadShape::ZipfDrift {
        start_skew,
        end_skew,
    } = cfg.shape
    else {
        return round_robin;
    };
    let frac = if horizon == 0 {
        0.0
    } else {
        minute as f64 / horizon as f64
    };
    let skew = start_skew + (end_skew - start_skew) * frac;
    let weights: Vec<f64> = (0..cfg.movies.len())
        .map(|r| 1.0 / ((r + 1) as f64).powf(skew))
        .collect();
    let total: f64 = weights.iter().sum();
    let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * total;
    let mut acc = 0.0;
    weights
        .iter()
        .position(|w| {
            acc += w;
            u < acc
        })
        .map_or(round_robin, |r| cfg.movies[r])
}

/// Configuration for the single-server entry points: the server under
/// test plus the workload that drives it.
#[derive(Clone)]
pub struct HarnessConfig {
    /// Server under test.
    pub server: ServerConfig,
    /// The seeded viewer workload.
    pub workload: WorkloadConfig,
}

/// What [`drive`] needs from a system under test: every
/// [`DeliveryBackend`] and the `vod-federation` front tier implement it.
pub trait WorkloadTarget {
    /// Session handle the target hands out.
    type Session: Copy;
    /// Counter snapshot audited for monotonicity after every tick.
    type Metrics;

    /// Whether catalog index `movie` can be requested.
    fn hosts(&self, movie: usize) -> bool;

    /// Admit an arrival for a hosted `movie`; `None` when admission is
    /// refused.
    fn open(&mut self, movie: usize) -> Option<Self::Session>;

    /// Status of a session [`open`](Self::open) returned.
    fn status(&self, id: Self::Session) -> SessionStatus;

    /// Issue a VCR operation (`magnitude` minutes swept or paused).
    fn vcr(&mut self, id: Self::Session, kind: VcrKind, magnitude: u32) -> Result<(), ServerError>;

    /// Advance one virtual minute.
    fn tick(&mut self);

    /// Reset counters at the end of warm-up.
    fn reset_metrics(&mut self);

    /// Conservation-invariant violations (empty when healthy).
    fn check_invariants(&self) -> Vec<String>;

    /// Snapshot of the monotone counters.
    fn counters(&self) -> Self::Metrics;

    /// Counters that went backwards from `prev` to `next`.
    fn monotone_violations(prev: &Self::Metrics, next: &Self::Metrics) -> Vec<&'static str>;
}

impl<B: DeliveryBackend + ?Sized> WorkloadTarget for B {
    type Session = SessionId;
    type Metrics = RuntimeMetrics;

    fn hosts(&self, movie: usize) -> bool {
        u32::try_from(movie).is_ok_and(|m| DeliveryBackend::hosts(self, MovieId(m)))
    }

    fn open(&mut self, movie: usize) -> Option<SessionId> {
        self.open_session(MovieId(movie as u32)).ok()
    }

    fn status(&self, id: SessionId) -> SessionStatus {
        // vod-lint: allow(no-panic) — ids come from open and stay queryable
        // until the driver sees Done and drops them.
        self.session_status(id).expect("session exists")
    }

    fn vcr(&mut self, id: SessionId, kind: VcrKind, magnitude: u32) -> Result<(), ServerError> {
        self.request_vcr(id, kind, magnitude)
    }

    fn tick(&mut self) {
        DeliveryBackend::tick(self)
    }

    fn reset_metrics(&mut self) {
        DeliveryBackend::reset_metrics(self)
    }

    fn check_invariants(&self) -> Vec<String> {
        DeliveryBackend::check_invariants(self)
    }

    fn counters(&self) -> RuntimeMetrics {
        self.runtime_metrics()
    }

    fn monotone_violations(prev: &RuntimeMetrics, next: &RuntimeMetrics) -> Vec<&'static str> {
        prev.monotone_violations(next)
    }
}

/// Result of one [`run_chaos`] run: the measured metrics plus everything
/// the per-tick invariant checks observed.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosOutcome {
    /// Measured [`RuntimeMetrics`] (same vocabulary as [`run_harness`]).
    pub metrics: RuntimeMetrics,
    /// Total per-tick invariant and monotonicity violations observed.
    pub violation_count: u64,
    /// First few violation descriptions, `"t=<tick>: <what>"` (capped so
    /// a badly broken run cannot exhaust memory).
    pub violations: Vec<String>,
    /// Sessions the workload opened over the whole run.
    pub sessions_opened: u64,
    /// Sessions that reached `Done` (finished or closed) by the end.
    pub sessions_done: u64,
    /// Sessions still degraded when the run ended.
    pub degraded_at_end: u32,
    /// Ticks driven (warm-up + measured).
    pub ticks: u64,
}

/// Cap on stored violation strings in a [`DriveLog`].
const MAX_VIOLATION_REPORTS: usize = 16;

impl ChaosOutcome {
    /// Outcome schema version; bump on any key change in
    /// [`to_json`](Self::to_json).
    pub const SCHEMA_VERSION: u32 = 1;

    /// Collect the outcome of a finished [`drive`] over `server`.
    pub fn collect(server: &dyn DeliveryBackend, log: DriveLog) -> Self {
        Self {
            metrics: server.runtime_metrics(),
            violation_count: log.violation_count,
            violations: log.violations,
            sessions_opened: log.sessions_opened,
            sessions_done: server.sessions_finished(),
            degraded_at_end: server.degraded_sessions(),
            ticks: log.ticks,
        }
    }

    /// Serialize to a single-line JSON object with a pinned key order
    /// (`schema_version`, `violations`, `violation_details`,
    /// `sessions_opened`, `sessions_done`, `degraded_at_end`, `ticks`,
    /// `metrics`). The shape is frozen by the serde-stability suite:
    /// report consumers may parse positionally.
    pub fn to_json(&self) -> String {
        let details: Vec<String> = self
            .violations
            .iter()
            .map(|v| format!("\"{}\"", escape_json(v)))
            .collect();
        format!(
            concat!(
                "{{\"schema_version\":{},",
                "\"violations\":{},",
                "\"violation_details\":[{}],",
                "\"sessions_opened\":{},",
                "\"sessions_done\":{},",
                "\"degraded_at_end\":{},",
                "\"ticks\":{},",
                "\"metrics\":{}}}"
            ),
            Self::SCHEMA_VERSION,
            self.violation_count,
            details.join(","),
            self.sessions_opened,
            self.sessions_done,
            self.degraded_at_end,
            self.ticks,
            self.metrics.to_json(),
        )
    }
}

/// Escape a violation string for embedding in a JSON string literal.
fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Drive the batching server with a seeded workload and return the
/// measured [`RuntimeMetrics`]. Same seed, same config ⇒
/// bitwise-identical metrics (asserted by the cross-validation test).
///
/// # Panics
///
/// Panics if the workload's movie list is empty or names a movie the
/// server does not host (see [`drive`]).
pub fn run_harness(cfg: &HarnessConfig, seed: u64) -> RuntimeMetrics {
    let mut server = VodServer::new(cfg.server.clone());
    drive(&mut server, &cfg.workload, seed, false);
    server.runtime_metrics()
}

/// [`run_harness`] while injecting `plan`, with the per-tick invariant
/// and monotonicity audits on. With an empty plan the metrics are
/// [`run_harness`]'s, bitwise.
///
/// # Panics
///
/// As [`run_harness`].
pub fn run_chaos(
    cfg: &HarnessConfig,
    seed: u64,
    plan: &FaultPlan,
    policy: DegradePolicy,
) -> ChaosOutcome {
    run_chaos_backend(cfg, BackendKind::BatchingBuffering, seed, plan, policy).outcome
}

/// One backend-generic harness run: the [`ChaosOutcome`] plus the
/// provisioning and startup-wait observables the cost comparison needs.
#[derive(Debug, Clone, PartialEq)]
pub struct BackendRun {
    /// Which delivery scheme ran.
    pub kind: BackendKind,
    /// The workload outcome (metrics + invariant checks).
    pub outcome: ChaosOutcome,
    /// Mean startup wait over the measured window, minutes (0 when no
    /// session started in the window).
    pub startup_wait_mean: f64,
    /// Startup-wait samples behind the mean.
    pub startup_wait_samples: u64,
    /// Provisioned I/O streams `Σn` (stream term of `C = C_n(φΣB + Σn)`).
    pub io_streams: u32,
    /// Provisioned server buffer `ΣB` in segments (buffer term).
    pub buffer_segments: u64,
}

/// Run the seeded harness workload against the delivery scheme `kind`,
/// built from `cfg.server` via [`make_backend`](crate::make_backend),
/// with per-tick invariant checks on. For
/// [`BackendKind::BatchingBuffering`] the metrics are bitwise identical
/// to [`run_harness`] on the same config/seed (pinned by the
/// `backend_equivalence` suite).
///
/// # Panics
///
/// As [`run_harness`].
pub fn run_harness_backend(cfg: &HarnessConfig, kind: BackendKind, seed: u64) -> BackendRun {
    run_chaos_backend(
        cfg,
        kind,
        seed,
        &FaultPlan::empty(),
        DegradePolicy::default(),
    )
}

/// [`run_harness_backend`] with a fault plan: the backend-generic
/// [`run_chaos`].
///
/// # Panics
///
/// As [`run_harness`].
pub fn run_chaos_backend(
    cfg: &HarnessConfig,
    kind: BackendKind,
    seed: u64,
    plan: &FaultPlan,
    policy: DegradePolicy,
) -> BackendRun {
    let mut server = make_backend(kind, &cfg.server);
    server.inject_faults(plan.clone(), policy);
    let log = drive(server.as_mut(), &cfg.workload, seed, true);
    let waits = server.startup_waits();
    BackendRun {
        kind,
        startup_wait_mean: if waits.count() == 0 {
            0.0
        } else {
            waits.mean()
        },
        startup_wait_samples: waits.count(),
        io_streams: server.io_streams(),
        buffer_segments: server.buffer_segments(),
        outcome: ChaosOutcome::collect(server.as_ref(), log),
    }
}

/// What one [`drive`] run observed, whatever the target.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DriveLog {
    /// Total per-tick invariant and monotonicity violations observed.
    pub violation_count: u64,
    /// First few violation descriptions, `"t=<tick>: <what>"`.
    pub violations: Vec<String>,
    /// Arrivals the target admitted over the whole run.
    pub sessions_opened: u64,
    /// Arrivals the target refused.
    pub sessions_denied_admission: u64,
    /// Ticks driven (warm-up + measured).
    pub ticks: u64,
}

/// The one workload loop every entry point funnels into, generic over
/// the system under test: Poisson arrivals shaped by
/// [`WorkloadConfig::shape`], then each admitted viewer's VCR
/// interactions, one [`tick`](WorkloadTarget::tick) per virtual minute,
/// and a metrics reset at the end of warm-up. With `check` on, the
/// target's invariants and counter monotonicity are audited after every
/// tick (a pure read: the run is the same either way). The RNG
/// consumption order depends only on `(workload, seed)` and the statuses
/// the target reports, so same target, workload and seed ⇒
/// bitwise-identical run.
///
/// # Panics
///
/// Panics before the first tick if `workload.movies` is empty or if a
/// listed movie (or the flash-crowd movie) is not hosted by `target`.
pub fn drive<T: WorkloadTarget + ?Sized>(
    target: &mut T,
    workload: &WorkloadConfig,
    seed: u64,
    check: bool,
) -> DriveLog {
    // vod-lint: allow(no-panic) — a workload that names no movie, or one
    // the target cannot serve, is a driver-construction bug.
    assert!(!workload.movies.is_empty(), "workload lists no movies");
    let crowd = match workload.shape {
        WorkloadShape::FlashCrowd { movie, .. } => Some(movie),
        WorkloadShape::RoundRobin | WorkloadShape::ZipfDrift { .. } => None,
    };
    for &movie in workload.movies.iter().chain(&crowd) {
        assert!(target.hosts(movie), "workload movie {movie} is not hosted");
    }
    let mut rng = seeded(seed);
    let mut next_arrival = exponential(&mut rng, workload.mean_interarrival);
    // (session, tick at which its next interaction is due)
    let mut pending: Vec<(T::Session, u64)> = Vec::new();
    let horizon = workload.warmup + workload.measure;
    let mut arrivals: u64 = 0;
    let mut log = DriveLog {
        ticks: horizon,
        ..DriveLog::default()
    };
    let mut prev: Option<T::Metrics> = None;
    for minute in 0..horizon {
        if minute == workload.warmup {
            target.reset_metrics();
            // The reset legitimately zeroes counters; restart the
            // monotonicity baseline with it.
            prev = None;
        }
        while next_arrival < (minute + 1) as f64 {
            let movie = select_movie(workload, arrivals, minute, horizon, &mut rng);
            let opened = target.open(movie);
            arrivals += 1;
            // The gap draw happens whether or not admission succeeded, so
            // the RNG stream does not depend on admission outcomes.
            let gap = workload.behavior.next_interaction_gap(&mut rng);
            match opened {
                Some(id) => {
                    log.sessions_opened += 1;
                    pending.push((id, minute + (gap.ceil() as u64).max(1)));
                }
                None => log.sessions_denied_admission += 1,
            }
            let mean = workload
                .shape
                .crowd_at(minute)
                .map_or(workload.mean_interarrival, |(f, _)| {
                    workload.mean_interarrival / f.max(1.0)
                });
            next_arrival += exponential(&mut rng, mean);
        }
        let mut i = 0;
        while i < pending.len() {
            let (id, due) = pending[i];
            if due > minute {
                i += 1;
                continue;
            }
            match target.status(id) {
                SessionStatus::Done => {
                    pending.swap_remove(i);
                    continue;
                }
                SessionStatus::Shared | SessionStatus::Dedicated => {
                    let req = workload.behavior.sample_request(&mut rng);
                    let magnitude = (req.magnitude.round() as u32).max(1);
                    // Denied ops are counted by the target; either way the
                    // viewer's next interaction clock restarts now.
                    let _ = target.vcr(id, req.kind, magnitude);
                    let gap = workload.behavior.next_interaction_gap(&mut rng);
                    pending[i].1 = minute + (gap.ceil() as u64).max(1);
                }
                // Waiting in the batch queue, mid-VCR, or degraded: the
                // interaction clock only runs during playback — defer one
                // tick.
                SessionStatus::Waiting(_) | SessionStatus::InVcr | SessionStatus::Degraded => {
                    pending[i].1 = minute + 1;
                }
            }
            i += 1;
        }
        target.tick();
        if !check {
            continue;
        }
        let mut record = |what: String| {
            log.violation_count += 1;
            if log.violations.len() < MAX_VIOLATION_REPORTS {
                log.violations.push(format!("t={minute}: {what}"));
            }
        };
        for what in target.check_invariants() {
            record(what);
        }
        let now = target.counters();
        if let Some(prev) = &prev {
            for field in T::monotone_violations(prev, &now) {
                record(format!("counter `{field}` went backwards"));
            }
        }
        prev = Some(now);
    }
    log
}

/// Workload shape for [`run_scale`]: a mass-batching population, the
/// million-session north star's stress case. Every session is opened
/// before the first tick, so each movie's cohort enrolls into one
/// restart en masse at tick 0 — the worst case for the restart memo and
/// the timer wheel's bulk drain.
#[derive(Debug, Clone)]
pub struct ScaleConfig {
    /// Concurrent sessions to open before the first tick.
    pub sessions: u64,
    /// Ticks to drive after opening (each live session consumes one
    /// segment per tick).
    pub ticks: u64,
    /// Hosted movies. Sessions are assigned in contiguous blocks —
    /// block `m` is movie `m`'s batching cohort.
    pub movies: u32,
    /// Sessions issued a seeded-random VCR operation each tick
    /// (denials count as issued, like the chaos harness).
    pub vcr_per_tick: u32,
}

/// What one [`run_scale`] run measured. Pure virtual-time observables:
/// wall-clock and memory measurement belong to the bench binary, which
/// is exempt from the determinism lint wall.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleOutcome {
    /// Sessions opened (all before tick 0).
    pub sessions: u64,
    /// Sessions still live (not `Done`) after the last tick.
    pub concurrent_at_end: u64,
    /// Segments delivered (buffer + disk), byte-verified.
    pub segments: u64,
    /// VCR operations accepted by the server.
    pub vcr_accepted: u64,
    /// Scheduler events processed: session opens + delivered segments +
    /// accepted VCR operations. The numerator of the bench's events/sec.
    pub events: u64,
    /// Ticks driven.
    pub ticks: u64,
    /// Byte-verification failures (must be 0).
    pub verify_failures: u64,
    /// The shared mechanism counters.
    pub metrics: RuntimeMetrics,
}

/// Drive a [`VodServer`] with `cfg.sessions` concurrent sessions for
/// `cfg.ticks` virtual minutes and return the event totals. Same seed,
/// same config ⇒ bitwise-identical outcome, like every other driver in
/// this module.
///
/// # Panics
///
/// Panics if `cfg.sessions` or `cfg.movies` is zero.
pub fn run_scale(cfg: &ScaleConfig, seed: u64) -> ScaleOutcome {
    // vod-lint: allow(no-panic) — a zero-session or zero-movie scale run is a
    // caller bug; the driver cannot size a server around it.
    assert!(
        cfg.sessions > 0 && cfg.movies > 0,
        "scale run needs at least one session and one movie"
    );
    // The harness geometry (l = 120, n = 20, B = 100): restarts every 6
    // ticks with 5-tick enrollment windows, so a tick-0 cohort stays in
    // lockstep and the one-entry verify memo covers it.
    let movies: Vec<HostedMovie> = (0..cfg.movies)
        .map(|m| HostedMovie::from_allocation(MovieId(m), 120, 20, 100.0))
        .collect();
    let vcr_reserve = cfg.vcr_per_tick.saturating_mul(4).clamp(8, 4096);
    let mut server = VodServer::new(ServerConfig::provisioned(movies, vcr_reserve));
    let mut rng = seeded(seed);
    // Contiguous block assignment: adjacent session indices share a
    // movie, so the per-tick delivery walk switches movies (and misses
    // the verify memo) only `cfg.movies` times per tick.
    let ids: Vec<SessionId> = (0..cfg.sessions)
        .map(|i| {
            let movie = MovieId((i * u64::from(cfg.movies) / cfg.sessions) as u32);
            // vod-lint: allow(no-panic) — the movie id is derived from the
            // hosted range above; a miss is a driver bug.
            server.open_session(movie).expect("movie hosted")
        })
        .collect();
    let mut vcr_accepted: u64 = 0;
    for _ in 0..cfg.ticks {
        for _ in 0..cfg.vcr_per_tick {
            let target = ids[(rng.next_u64() % cfg.sessions) as usize];
            let kind = match rng.next_u64() % 3 {
                0 => VcrKind::FastForward,
                1 => VcrKind::Rewind,
                _ => VcrKind::Pause,
            };
            let magnitude = (rng.next_u64() % 30 + 1) as u32;
            if server.request_vcr(target, kind, magnitude).is_ok() {
                vcr_accepted += 1;
            }
        }
        server.tick();
    }
    let metrics = server.runtime_metrics();
    let segments = (metrics.buffer_minutes + metrics.disk_minutes) as u64;
    let done = server.metrics().sessions_done + server.metrics().sessions_closed_early;
    ScaleOutcome {
        sessions: cfg.sessions,
        concurrent_at_end: cfg.sessions - done,
        segments,
        vcr_accepted,
        events: cfg.sessions + segments + vcr_accepted,
        ticks: cfg.ticks,
        verify_failures: server.metrics().verify_failures,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use vod_dist::kinds::Gamma;

    use super::*;

    fn config() -> HarnessConfig {
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
                warmup: 240,
                measure: 1200,
                shape: WorkloadShape::RoundRobin,
            },
        }
    }

    #[test]
    #[should_panic(expected = "workload lists no movies")]
    fn empty_movie_list_is_rejected() {
        let mut cfg = config();
        cfg.workload.movies.clear();
        run_harness(&cfg, 7);
    }

    #[test]
    #[should_panic(expected = "workload movie 3 is not hosted")]
    fn unhosted_flash_crowd_movie_is_rejected_before_the_first_tick() {
        let mut cfg = config();
        cfg.workload.shape = WorkloadShape::FlashCrowd {
            at: 10,
            duration: 5,
            factor: 2.0,
            movie: 3,
        };
        run_chaos_backend(
            &cfg,
            BackendKind::DedicatedStream,
            7,
            &FaultPlan::empty(),
            DegradePolicy::default(),
        );
    }

    #[test]
    fn harness_is_deterministic() {
        let cfg = config();
        let a = run_harness(&cfg, 7);
        let b = run_harness(&cfg, 7);
        assert_eq!(a, b, "same seed must reproduce bitwise-identical metrics");
        assert!(a.resumes.trials() > 50, "workload actually exercised VCR");
    }

    #[test]
    fn chaos_outcome_json_shape_is_pinned() {
        let outcome = ChaosOutcome {
            metrics: RuntimeMetrics::new(),
            violation_count: 2,
            violations: vec!["t=3: lease \"drift\"".to_string(), "t=4: x\\y".to_string()],
            sessions_opened: 10,
            sessions_done: 7,
            degraded_at_end: 1,
            ticks: 60,
        };
        let json = outcome.to_json();
        let expected_prefix = concat!(
            "{\"schema_version\":1,",
            "\"violations\":2,",
            "\"violation_details\":[\"t=3: lease \\\"drift\\\"\",\"t=4: x\\\\y\"],",
            "\"sessions_opened\":10,",
            "\"sessions_done\":7,",
            "\"degraded_at_end\":1,",
            "\"ticks\":60,",
            "\"metrics\":{\"schema_version\":2,"
        );
        assert!(
            json.starts_with(expected_prefix),
            "pinned key order/escaping changed:\n{json}"
        );
        assert!(
            json.ends_with("}}"),
            "metrics object must close the outcome"
        );
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = config();
        let a = run_harness(&cfg, 7);
        let b = run_harness(&cfg, 8);
        assert_ne!(a, b);
    }

    #[test]
    fn scale_run_is_deterministic_and_conserves_segments() {
        let cfg = ScaleConfig {
            sessions: 3000,
            ticks: 30,
            movies: 4,
            vcr_per_tick: 20,
        };
        let a = run_scale(&cfg, 42);
        let b = run_scale(&cfg, 42);
        assert_eq!(a, b, "same seed must reproduce the outcome bitwise");
        assert_eq!(a.verify_failures, 0);
        assert_eq!(a.concurrent_at_end, 3000, "no session finishes in 30 ticks");
        // Every session enrolls at tick 0 and then consumes one segment
        // per tick, minus time parked in VCR/pause states.
        assert!(a.segments > 0 && a.segments <= cfg.sessions * cfg.ticks);
        assert!(a.vcr_accepted > 0, "the VCR sprinkle never landed");
        assert_eq!(a.events, a.sessions + a.segments + a.vcr_accepted);
    }
}
