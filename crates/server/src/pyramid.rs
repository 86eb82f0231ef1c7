//! Pyramid fast-broadcasting backend: channel-transition-invariant
//! broadcast delivery (arXiv:1711.08118 lineage).
//!
//! Each hosted movie permanently occupies `k` disk streams — one per
//! geometric segment channel of its [`PyramidGeometry`] — and one
//! staging segment per channel ([`BroadcastSlot`]). Channels loop their
//! segments phase-locked to the global clock; clients join at the next
//! segment-1 boundary (startup wait ≤ one segment-1 period, scheduled on
//! the shared `TimerWheel`), record all channels concurrently, and play
//! from their local prefix. Server cost is therefore **load-invariant**:
//! `Σn = Σk + reserve`, `ΣB = Σk` staging segments, no matter how many
//! viewers arrive — the scheme trades the batching design's server-side
//! partitions for client-side buffer (the bound
//! [`PyramidGeometry::client_buffer_bound`] is reported by the bench).
//!
//! VCR follows the interactive-bandwidth accounting of arXiv:1706.06642:
//! RW and Pause resume inside the received prefix and are always hits
//! (they cost nothing); FF beyond the reception front needs a dedicated
//! stream from the same [`StreamReserve`] the batching server uses, and
//! the session merges back into the broadcast as soon as the front
//! catches up to its position.
//!
//! # Fault semantics (chaos-grade, per channel)
//!
//! Faults degrade **channels**, never whole movies. A channel is *on the
//! air* for a tick iff its lease is live, the disk is serving (slowdowns
//! blank off-period ticks), and its staging slot is funded (a
//! buffer-shrink overcommit defunds slots from the global tail, in
//! deterministic order). A channel whose scheduled **real** minute is
//! not on the air stalls only that delivery — other channels keep
//! broadcasting, and clients keep free playback inside their
//! already-received prefix; a broken channel stalls exactly the sessions
//! whose playout front has crossed into its segment. Because each
//! channel loops phase-locked to the global clock, every stall is
//! boundary-aligned by construction: recovery rejoins the wheel
//! mid-cycle and the missed minutes return on their next loop.
//!
//! Reception bookkeeping is **exact**: each session carries a
//! [`ReceptionFront`] bitmap fed by the minutes actually staged, so the
//! bookkept front can never lead the truly-broadcast front (the
//! conservative per-movie-freeze model of PR 7 could lead by up to
//! `d − 1` after recovery; the regression test
//! `recovered_front_never_leads_schedule` pins the fix). A session that
//! outruns its front (fault stall or revoked catch-up lease) enters
//! `Starved` and follows the [`DegradePolicy`] ledger: bounded re-wait,
//! dedicated-stream retries under exponential backoff whose denials are
//! classified at resolution time (transient when a retry eventually
//! succeeds, permanent when the session rejoins free or times out), and
//! after the retry timeout a plain wait for the looping broadcast front
//! — which reaches every position once the channels are back.

use std::collections::BTreeMap;

use vod_runtime::{
    Arena, BackendKind, DegradePolicy, FaultKind, FaultPlan, PyramidGeometry, ReceptionFront,
    RuntimeMetrics, StreamReserve, TimerWheel,
};
use vod_workload::{TimeWeighted, VcrKind, Welford};

use crate::backend::{Adoption, DeliveryBackend};
use crate::buffer::{BroadcastSlot, BufferPool};
use crate::content::{verify_segment, MovieId};
use crate::disk::{DiskSubsystem, StreamLease};
use crate::metrics::ServerMetrics;
use crate::server::{ServerConfig, ServerError};
use crate::session::{DeliveryStats, SessionId, SessionStatus};

/// One hosted movie's broadcast apparatus.
struct PyramidMovie {
    movie: MovieId,
    geometry: PyramidGeometry,
    /// One lease per channel; `None` while a fault holds the channel
    /// down (only that channel's deliveries stall).
    leases: Vec<Option<StreamLease>>,
    /// One staging segment per channel (the minute being broadcast).
    slots: Vec<BroadcastSlot>,
    /// Per-channel count of ticks the channel's scheduled *real* minute
    /// was not broadcast (dead lease, off-period slowdown tick, or
    /// unfunded staging slot). Phase-locked to the wheel: padding slots
    /// never count.
    channel_stall: Vec<u64>,
}

/// Per-session state machine of the broadcast backend.
enum PState {
    /// Scheduled to start receiving at the next segment-1 boundary.
    Waiting { start_at: u64 },
    /// Receiving all channels; consuming one minute per tick from the
    /// local prefix.
    Receiving,
    /// Mid FF/RW sweep at the configured VCR rate. Holds a dedicated
    /// lease only when the sweep runs beyond the reception front.
    Vcr { kind: VcrKind, remaining: u32 },
    /// Paused; reception continues (the front keeps growing).
    Paused { remaining: u32 },
    /// Playing beyond the front through a dedicated lease; merges back
    /// into the broadcast when the front catches up.
    CatchUp,
    /// Outran the reception front with no dedicated stream. Follows the
    /// [`DegradePolicy`] ledger: bounded re-wait, then backoff retries
    /// with resolution-time denial classification, then (post-timeout) a
    /// plain wait for the looping front. Rejoins free the moment the
    /// front passes its position.
    Starved {
        /// Tick the starvation began (timeout anchor).
        since: u64,
        /// Next tick a dedicated retry is allowed.
        next_retry: u64,
        /// Current backoff interval in ticks.
        backoff: u64,
        /// Refused acquisitions awaiting resolution-time classification.
        pending_denials: u64,
        /// Past `retry_timeout`: no more dedicated retries.
        retries_exhausted: bool,
    },
    /// Finished.
    Done,
}

struct PSession {
    movie_idx: usize,
    position: u32,
    /// Exact reception bookkeeping: every minute this client's recorder
    /// actually saw staged, and the contiguous front derived from it.
    rx: ReceptionFront,
    state: PState,
    lease: Option<StreamLease>,
    stats: DeliveryStats,
}

/// Fresh `Starved` state under `policy`, carrying `pending` denials
/// already awaiting classification (1 when a refused acquisition caused
/// the starvation, 0 when a fault revoked the lease outright).
fn starved_state(now: u64, policy: &DegradePolicy, pending: u64) -> PState {
    PState::Starved {
        since: now,
        next_retry: now + policy.rewait_bound.max(1),
        backoff: policy.retry_backoff.max(1),
        pending_denials: pending,
        retries_exhausted: false,
    }
}

/// The pyramid fast-broadcasting backend. See the module docs.
pub struct PyramidServer {
    now: u64,
    config: ServerConfig,
    disk: DiskSubsystem,
    pool: BufferPool,
    movies: Vec<PyramidMovie>,
    /// Dedicated-stream accountant for FF-beyond-front service; capacity
    /// is whatever the channel pre-allocation leaves over, mirroring the
    /// batching server's reserve derivation.
    reserve: StreamReserve,
    sessions: Arena<PSession>,
    /// Waiting-session wakeups keyed by their boundary tick.
    wakeups: TimerWheel<u32>,
    /// Indices of sessions past Waiting and not yet Done, ascending.
    active: Vec<u32>,
    metrics: ServerMetrics,
    movie_index: BTreeMap<MovieId, usize>,
    startup_waits: Welford,
    plan: FaultPlan,
    fault_mode: bool,
    policy: DegradePolicy,
    slowdown: Option<(u32, u64)>,
    recovery_due: BTreeMap<u64, u32>,
    /// Tick of the most recent recovery that returned streams; a starved
    /// retry timeout expiring on this exact tick attempts one last lease
    /// first — recovery wins the same-tick race.
    recovered_at: Option<u64>,
    starved_count: u32,
}

impl PyramidServer {
    /// Build the broadcast backend from the shared config: per movie,
    /// the smallest channel count whose segment-1 period does not exceed
    /// the movie's batching `max_wait` (same worst-case startup promise,
    /// different delivery mechanism).
    pub fn new(config: ServerConfig) -> Self {
        let mut disk = DiskSubsystem::new(config.disk_streams);
        let mut movie_index = BTreeMap::new();
        let mut movies = Vec::with_capacity(config.movies.len());
        let mut metrics = ServerMetrics::new();
        let mut total_channels: u32 = 0;
        for (i, m) in config.movies.iter().enumerate() {
            let length = m.geometry.length;
            disk.register_movie(m.movie, length);
            movie_index.insert(m.movie, i);
            let geometry = PyramidGeometry::for_target_wait(length, m.geometry.max_wait());
            let mut leases = Vec::with_capacity(geometry.channels() as usize);
            let mut slots = Vec::with_capacity(geometry.channels() as usize);
            for _ in 0..geometry.channels() {
                // A config whose stream pool cannot even cover the
                // channel pre-allocation is a sizing bug; the channel
                // stays down (the movie stalls) rather than panicking.
                leases.push(disk.acquire().ok());
                slots.push(BroadcastSlot::new(m.movie));
            }
            total_channels += geometry.channels();
            let channel_stall = vec![0; geometry.channels() as usize];
            movies.push(PyramidMovie {
                movie: m.movie,
                geometry,
                leases,
                slots,
                channel_stall,
            });
        }
        // Staging budget: exactly one segment per channel. This *is* the
        // backend's `ΣB`.
        let mut pool = BufferPool::new(total_channels as usize);
        let _ = pool.reserve(total_channels as usize);
        metrics.playback = TimeWeighted::new(0.0, f64::from(disk.in_use()));
        let reserve =
            StreamReserve::with_capacity(config.disk_streams.saturating_sub(total_channels));
        Self {
            now: 0,
            config,
            disk,
            pool,
            movies,
            reserve,
            sessions: Arena::new(),
            wakeups: TimerWheel::new(),
            active: Vec::new(),
            metrics,
            movie_index,
            startup_waits: Welford::default(),
            plan: FaultPlan::empty(),
            fault_mode: false,
            policy: DegradePolicy::default(),
            slowdown: None,
            recovery_due: BTreeMap::new(),
            recovered_at: None,
            starved_count: 0,
        }
    }

    /// Acquire a dedicated (beyond-front) lease from the reserve.
    fn try_dedicated_lease(&mut self) -> Option<StreamLease> {
        self.metrics.runtime.acquisition_attempts += 1;
        let now = self.now as f64;
        if !self.reserve.try_acquire(now) {
            return None;
        }
        match self.disk.acquire() {
            Ok(lease) => Some(lease),
            Err(_) => {
                self.reserve.release(now);
                None
            }
        }
    }

    fn release_dedicated_lease(&mut self, lease: StreamLease) {
        self.disk.release(lease);
        self.reserve.release(self.now as f64);
    }

    /// Apply fault events scheduled at the current tick.
    fn apply_faults(&mut self) {
        if !self.fault_mode {
            return;
        }
        if let Some(streams) = self.recovery_due.remove(&self.now) {
            let recovered = self.disk.recover_streams(streams);
            self.reserve.recover_streams(recovered);
            if recovered > 0 {
                self.recovered_at = Some(self.now);
            }
        }
        let events: Vec<FaultKind> = self
            .plan
            .events_at(self.now)
            .iter()
            .map(|e| e.kind)
            .collect();
        for kind in events {
            match kind {
                FaultKind::DiskStreamLoss { count } | FaultKind::DiskOutage { count, .. } => {
                    let before = self.disk.failed();
                    let revoked = self.disk.fail_streams(count);
                    let applied = self.disk.failed().saturating_sub(before);
                    if let FaultKind::DiskOutage { recover_after, .. } = kind {
                        *self
                            .recovery_due
                            .entry(self.now + recover_after)
                            .or_insert(0) += applied;
                    }
                    let mut channels_lost: u32 = 0;
                    for m in &mut self.movies {
                        for lease in m.leases.iter_mut() {
                            if lease.as_ref().is_some_and(|l| revoked.contains(&l.id())) {
                                *lease = None;
                                channels_lost += 1;
                                self.metrics.leases_revoked += 1;
                            }
                        }
                    }
                    self.metrics
                        .playback
                        .add(self.now as f64, -f64::from(channels_lost));
                    let now = self.now;
                    let policy = self.policy;
                    for idx in 0..self.sessions.slot_count() {
                        let Some(sess) = self.sessions.at_mut(idx) else {
                            continue;
                        };
                        let dead = sess
                            .lease
                            .as_ref()
                            .is_some_and(|l| revoked.contains(&l.id()));
                        if dead {
                            sess.lease = None;
                            if matches!(sess.state, PState::Vcr { .. }) {
                                self.metrics.sweeps_aborted += 1;
                            }
                            if !matches!(sess.state, PState::Done) {
                                // Revocation, not a refused acquisition:
                                // nothing pending to classify yet.
                                sess.state = starved_state(now, &policy, 0);
                                self.starved_count += 1;
                                self.metrics.runtime.degraded_entries += 1;
                            }
                            self.metrics.leases_revoked += 1;
                            self.reserve.release(self.now as f64);
                        }
                    }
                    self.reserve
                        .fail_streams(applied.saturating_sub(channels_lost));
                    self.metrics.runtime.faults_injected += 1;
                }
                FaultKind::DiskSlowdown { period, duration } => {
                    self.slowdown = Some((period.max(1), self.now + duration));
                    self.metrics.runtime.faults_injected += 1;
                }
                FaultKind::BufferShrink { segments } => {
                    self.pool.shrink(segments as usize);
                    self.metrics.runtime.faults_injected += 1;
                }
                FaultKind::BufferRestore { segments } => {
                    self.pool.grow(segments as usize);
                    self.metrics.runtime.faults_injected += 1;
                }
                // Whole-shard events belong to the federation front
                // tier; below it they are inert and uncounted.
                FaultKind::ShardOutage { .. } | FaultKind::ShardRecovery { .. } => {}
            }
        }
        if let Some((_, until)) = self.slowdown {
            if self.now >= until {
                self.slowdown = None;
            }
        }
    }

    fn disk_serving(&self) -> bool {
        match self.slowdown {
            Some((period, until)) if self.now < until => self.now.is_multiple_of(u64::from(period)),
            _ => true,
        }
    }

    /// Broadcast phase: re-acquire dead channels, then stage each
    /// channel's scheduled minute independently. A channel is *on the
    /// air* for this tick iff its lease is live, the disk is serving
    /// (slowdowns blank off-period ticks for every channel at once), and
    /// its staging slot is funded — a buffer-shrink overcommit of `o`
    /// segments defunds the last `o` slots in global (movie, channel)
    /// order, so which channels a squeeze silences is deterministic. An
    /// off-air channel whose scheduled minute is *real* counts one
    /// boundary-aligned stall tick against that channel alone; padding
    /// minutes never count.
    fn broadcast(&mut self) {
        let serving = self.disk_serving();
        let total: usize = self.movies.iter().map(|m| m.slots.len()).sum();
        let funded = total.saturating_sub(self.pool.overcommitted());
        let mut slot_index: usize = 0;
        for mi in 0..self.movies.len() {
            let mut restored: u32 = 0;
            for ci in 0..self.movies[mi].leases.len() {
                if self.movies[mi].leases[ci].is_none() {
                    if let Ok(lease) = self.disk.acquire() {
                        self.movies[mi].leases[ci] = Some(lease);
                        restored += 1;
                    }
                }
            }
            if restored > 0 {
                self.metrics
                    .playback
                    .add(self.now as f64, f64::from(restored));
            }
            let m = &mut self.movies[mi];
            for ci in 0..m.leases.len() {
                let slot_funded = slot_index < funded;
                slot_index += 1;
                let Some(minute) = m.geometry.broadcast_minute(ci as u32, self.now) else {
                    // Padding tick: nothing real was scheduled here.
                    m.slots[ci].clear();
                    continue;
                };
                if !serving || !slot_funded || m.leases[ci].is_none() {
                    m.slots[ci].clear();
                    m.channel_stall[ci] += 1;
                    continue;
                }
                // vod-lint: allow(no-panic) — the on-air check above
                // guarantees this channel's lease is live.
                let lease = m.leases[ci].as_ref().expect("channel lease live");
                match self.disk.read(lease, m.movie, minute) {
                    Ok(seg) => {
                        if !verify_segment(&seg) {
                            self.metrics.verify_failures += 1;
                        }
                        m.slots[ci].store(seg);
                    }
                    Err(_) => {
                        m.slots[ci].clear();
                        m.channel_stall[ci] += 1;
                    }
                }
            }
        }
    }

    /// Deliver minute `position` to a receiving session from the
    /// broadcast: byte-verify through the staging slot when that exact
    /// minute is on the air this tick, otherwise from the client's local
    /// prefix (canonical bytes, re-verified).
    fn consume_from_broadcast(&mut self, idx: u32) {
        let (movie_idx, position) = {
            let sess = self.sessions.live_at(idx as usize);
            (sess.movie_idx, sess.position)
        };
        let m = &self.movies[movie_idx];
        let channel = m.geometry.channel_of(position) as usize;
        let verified = match m.slots.get(channel).and_then(|s| s.current()) {
            Some(seg) if seg.index == position => verify_segment(seg),
            _ => {
                // Client-buffered replay: the segment was verified at
                // reception; re-derive and re-verify the canonical bytes.
                verify_segment(&crate::content::generate_segment(m.movie, position))
            }
        };
        let sess = self.sessions.live_at_mut(idx as usize);
        sess.stats.from_buffer += 1;
        if !verified {
            sess.stats.verify_failures += 1;
            self.metrics.verify_failures += 1;
        }
        sess.position += 1;
        self.metrics.runtime.buffer_minutes += 1.0;
    }

    /// Retire a finished session.
    fn finish(&mut self, idx: u32) {
        let lease = {
            let sess = self.sessions.live_at_mut(idx as usize);
            sess.state = PState::Done;
            sess.lease.take()
        };
        if let Some(lease) = lease {
            self.release_dedicated_lease(lease);
        }
        self.metrics.sessions_done += 1;
    }
}

impl DeliveryBackend for PyramidServer {
    fn kind(&self) -> BackendKind {
        BackendKind::PyramidBroadcast
    }

    fn now(&self) -> u64 {
        self.now
    }

    fn hosts(&self, movie: MovieId) -> bool {
        self.movie_index.contains_key(&movie)
    }

    fn open_session(&mut self, movie: MovieId) -> Result<SessionId, ServerError> {
        let movie_idx = *self
            .movie_index
            .get(&movie)
            .ok_or(ServerError::UnknownMovie(movie))?;
        let geometry = self.movies[movie_idx].geometry;
        let wait = geometry.startup_wait(self.now);
        self.startup_waits.push(wait as f64);
        let state = if wait == 0 {
            PState::Receiving
        } else {
            PState::Waiting {
                start_at: self.now + wait,
            }
        };
        let starts_now = wait == 0;
        let id = SessionId(self.sessions.insert(PSession {
            movie_idx,
            position: 0,
            rx: ReceptionFront::new(geometry.length()),
            state,
            lease: None,
            stats: DeliveryStats::default(),
        }));
        let idx = id.0.index() as u32;
        if starts_now {
            self.active.push(idx);
        } else {
            self.wakeups.schedule(self.now + wait, idx);
        }
        Ok(id)
    }

    fn request_vcr(
        &mut self,
        id: SessionId,
        kind: VcrKind,
        magnitude: u32,
    ) -> Result<(), ServerError> {
        let (movie_idx, position, has_lease, state_ok) = {
            let sess = self
                .sessions
                .get(id.0)
                .ok_or(ServerError::UnknownSession(id))?;
            let ok = matches!(sess.state, PState::Receiving | PState::CatchUp);
            (sess.movie_idx, sess.position, sess.lease.is_some(), ok)
        };
        if !state_ok {
            return Err(ServerError::InvalidState { operation: "vcr" });
        }
        let geometry = self.movies[movie_idx].geometry;
        let length = geometry.length();
        // FF beyond the reception front costs a dedicated stream
        // (interactive-bandwidth accounting); everything else plays from
        // the client's prefix for free.
        if matches!(kind, VcrKind::FastForward) && !has_lease {
            let target = position.saturating_add(magnitude).min(length);
            let beyond_front = target < length && !self.sessions.live(id.0).rx.received(target);
            if beyond_front {
                match self.try_dedicated_lease() {
                    Some(lease) => self.sessions.live_mut(id.0).lease = Some(lease),
                    None => {
                        self.metrics.runtime.vcr_denied += 1;
                        // Issue-time Erlang loss: the viewer stays in the
                        // broadcast and never retries this request.
                        self.reserve.record_denials(1, false);
                        return Err(ServerError::VcrDenied);
                    }
                }
            }
        }
        if matches!(kind, VcrKind::FastForward) && position.saturating_add(magnitude) >= length {
            // The sweep will run off the end; the lease (if any) rides
            // along until `finish` releases it.
        }
        if matches!(kind, VcrKind::Rewind) && magnitude >= position {
            self.metrics.runtime.rw_truncated += 1;
        }
        let sess = self.sessions.live_mut(id.0);
        match kind {
            VcrKind::Pause => {
                sess.state = PState::Paused {
                    remaining: magnitude.max(1),
                };
                // A paused viewer keeps receiving but consumes no
                // dedicated bandwidth.
                if let Some(lease) = sess.lease.take() {
                    self.release_dedicated_lease(lease);
                }
            }
            VcrKind::FastForward | VcrKind::Rewind => {
                sess.state = PState::Vcr {
                    kind,
                    remaining: magnitude.max(1),
                };
            }
        }
        Ok(())
    }

    fn session_status(&self, id: SessionId) -> Result<SessionStatus, ServerError> {
        let sess = self
            .sessions
            .get(id.0)
            .ok_or(ServerError::UnknownSession(id))?;
        Ok(match sess.state {
            PState::Waiting { start_at } => SessionStatus::Waiting(start_at),
            PState::Receiving => SessionStatus::Shared,
            PState::Vcr { .. } | PState::Paused { .. } => SessionStatus::InVcr,
            PState::CatchUp => SessionStatus::Dedicated,
            PState::Starved { .. } => SessionStatus::Degraded,
            PState::Done => SessionStatus::Done,
        })
    }

    fn session_position(&self, id: SessionId) -> Result<u32, ServerError> {
        let sess = self
            .sessions
            .get(id.0)
            .ok_or(ServerError::UnknownSession(id))?;
        Ok(sess.position)
    }

    fn adopt_session(
        &mut self,
        movie: MovieId,
        position: u32,
    ) -> Result<(SessionId, Adoption), ServerError> {
        let movie_idx = *self
            .movie_index
            .get(&movie)
            .ok_or(ServerError::UnknownMovie(movie))?;
        let geometry = self.movies[movie_idx].geometry;
        if position >= geometry.length() {
            return Err(ServerError::InvalidState { operation: "adopt" });
        }
        // A broadcast client assembles its prefix from the channels it
        // has been recording since it joined; an adopted session arrives
        // with an empty local prefix, so mid-movie playback can only be
        // served from the dedicated reserve. The session plays catch-up
        // on the lease and merges into the broadcast once its (fresh)
        // reception front sweeps past its position — the looping
        // channels guarantee that eventually happens.
        let lease = match self.try_dedicated_lease() {
            Some(lease) => lease,
            None => {
                self.metrics.runtime.vcr_denied += 1;
                self.reserve.record_denials(1, false);
                return Err(ServerError::VcrDenied);
            }
        };
        let id = SessionId(self.sessions.insert(PSession {
            movie_idx,
            position,
            rx: ReceptionFront::new(geometry.length()),
            state: PState::CatchUp,
            lease: Some(lease),
            stats: DeliveryStats::default(),
        }));
        self.active.push(id.0.index() as u32);
        Ok((id, Adoption::DedicatedStream))
    }

    fn tick(&mut self) {
        self.apply_faults();
        self.broadcast();
        // Boundary joins: sessions whose segment-1 boundary is this tick
        // start receiving now.
        for idx in self.wakeups.drain_tick(self.now) {
            let sess = self.sessions.live_at_mut(idx as usize);
            if matches!(sess.state, PState::Waiting { .. }) {
                sess.state = PState::Receiving;
                self.active.push(idx);
            }
        }
        // Reception: every active session's recorder sees exactly the
        // minutes staged this tick, so a bookkept front can never lead
        // the truly-broadcast one — channels a fault holds off the air
        // leave holes that fill on their next loop.
        let staged: Vec<Vec<u32>> = self
            .movies
            .iter()
            .map(|m| {
                m.slots
                    .iter()
                    .filter_map(|s| s.current().map(|seg| seg.index))
                    .collect()
            })
            .collect();
        for &idx in &self.active {
            let sess = self.sessions.live_at_mut(idx as usize);
            for &minute in &staged[sess.movie_idx] {
                sess.rx.record(minute);
            }
        }
        let now = self.now;
        let policy = self.policy;
        let vcr_rate = self.config.vcr_rate.max(1);
        let mut i = 0;
        while i < self.active.len() {
            let idx = self.active[i];
            let movie_idx = self.sessions.live_at(idx as usize).movie_idx;
            let length = self.movies[movie_idx].geometry.length();
            let state_tag = {
                let sess = self.sessions.live_at(idx as usize);
                match sess.state {
                    PState::Receiving => 0u8,
                    PState::Vcr { .. } => 1,
                    PState::Paused { .. } => 2,
                    PState::CatchUp => 3,
                    PState::Starved { .. } => 4,
                    PState::Waiting { .. } | PState::Done => 5,
                }
            };
            match state_tag {
                0 => {
                    let (position, playable) = {
                        let sess = self.sessions.live_at(idx as usize);
                        (sess.position, sess.rx.received(sess.position))
                    };
                    if position >= length {
                        self.finish(idx);
                        self.active.swap_remove(i);
                        continue;
                    }
                    if playable {
                        self.consume_from_broadcast(idx);
                        if self.sessions.live_at(idx as usize).position >= length {
                            self.finish(idx);
                            self.active.swap_remove(i);
                            continue;
                        }
                    } else {
                        // The playout front crossed into a segment some
                        // off-air channel still owes: only this session
                        // stalls (unreachable fault-free, by
                        // channel-transition invariance).
                        self.metrics.runtime.stall_minutes += 1.0;
                    }
                }
                1 => {
                    let sess = self.sessions.live_at_mut(idx as usize);
                    let PState::Vcr { kind, remaining } = &mut sess.state else {
                        unreachable!("state tag checked above");
                    };
                    let kind = *kind;
                    let step = vcr_rate.min(*remaining);
                    *remaining -= step;
                    let sweep_done = *remaining == 0;
                    match kind {
                        VcrKind::FastForward => {
                            sess.position = sess.position.saturating_add(step).min(length);
                        }
                        VcrKind::Rewind => {
                            sess.position = sess.position.saturating_sub(step);
                        }
                        VcrKind::Pause => unreachable!("pause never enters Vcr"),
                    }
                    let has_lease = sess.lease.is_some();
                    let reached_end = sess.position >= length;
                    if has_lease {
                        // The dedicated stream actively serves the sweep.
                        self.metrics.runtime.disk_minutes += 1.0;
                        self.sessions.live_at_mut(idx as usize).stats.from_disk += 1;
                    }
                    if reached_end {
                        self.metrics.runtime.ff_end += 1;
                        self.metrics.runtime.record_resume(kind, true);
                        self.finish(idx);
                        self.active.swap_remove(i);
                        continue;
                    }
                    if sweep_done {
                        let (hit, has_lease) = {
                            let sess = self.sessions.live_at(idx as usize);
                            (sess.rx.received(sess.position), sess.lease.is_some())
                        };
                        self.metrics.runtime.record_resume(kind, hit);
                        if hit {
                            let lease = self.sessions.live_at_mut(idx as usize).lease.take();
                            if let Some(lease) = lease {
                                self.release_dedicated_lease(lease);
                                self.metrics.piggyback_merges += 1;
                            }
                            self.sessions.live_at_mut(idx as usize).state = PState::Receiving;
                        } else if has_lease {
                            self.sessions.live_at_mut(idx as usize).state = PState::CatchUp;
                        } else {
                            // Only reachable through fault stalls: the
                            // issue-time classification said the target
                            // was received, the exact front now
                            // disagrees.
                            match self.try_dedicated_lease() {
                                Some(lease) => {
                                    let sess = self.sessions.live_at_mut(idx as usize);
                                    sess.lease = Some(lease);
                                    sess.state = PState::CatchUp;
                                }
                                None => {
                                    // The refusal enters the degrade
                                    // ledger as pending; it is classified
                                    // transient/permanent at resolution.
                                    self.metrics.runtime.resume_starved += 1;
                                    self.sessions.live_at_mut(idx as usize).state =
                                        starved_state(now, &policy, 1);
                                    self.starved_count += 1;
                                    self.metrics.runtime.degraded_entries += 1;
                                }
                            }
                        }
                    }
                }
                2 => {
                    let sess = self.sessions.live_at_mut(idx as usize);
                    let PState::Paused { remaining } = &mut sess.state else {
                        unreachable!("state tag checked above");
                    };
                    *remaining = remaining.saturating_sub(1);
                    if *remaining == 0 {
                        // Reception continued throughout the pause, so the
                        // front moved past the resume position: free hit.
                        let hit = {
                            let sess = self.sessions.live_at(idx as usize);
                            sess.position >= length || sess.rx.received(sess.position)
                        };
                        self.metrics.runtime.record_resume(VcrKind::Pause, hit);
                        if hit {
                            self.sessions.live_at_mut(idx as usize).state = PState::Receiving;
                        } else {
                            match self.try_dedicated_lease() {
                                Some(lease) => {
                                    let sess = self.sessions.live_at_mut(idx as usize);
                                    sess.lease = Some(lease);
                                    sess.state = PState::CatchUp;
                                }
                                None => {
                                    self.metrics.runtime.resume_starved += 1;
                                    self.sessions.live_at_mut(idx as usize).state =
                                        starved_state(now, &policy, 1);
                                    self.starved_count += 1;
                                    self.metrics.runtime.degraded_entries += 1;
                                }
                            }
                        }
                    }
                }
                3 => {
                    if !self.disk_serving() {
                        self.metrics.runtime.stall_minutes += 1.0;
                    } else {
                        let (position, caught_up) = {
                            let sess = self.sessions.live_at(idx as usize);
                            (sess.position, sess.rx.received(sess.position))
                        };
                        if position >= length {
                            self.finish(idx);
                            self.active.swap_remove(i);
                            continue;
                        }
                        if caught_up {
                            // The broadcast front caught up: merge back.
                            let lease = self.sessions.live_at_mut(idx as usize).lease.take();
                            if let Some(lease) = lease {
                                self.release_dedicated_lease(lease);
                            }
                            self.metrics.piggyback_merges += 1;
                            self.sessions.live_at_mut(idx as usize).state = PState::Receiving;
                            self.consume_from_broadcast(idx);
                        } else {
                            let movie = self.movies[movie_idx].movie;
                            let verified = {
                                let sess = self.sessions.live_at(idx as usize);
                                let lease = sess
                                    .lease
                                    .as_ref()
                                    // vod-lint: allow(no-panic) — CatchUp holds
                                    // a lease by construction (faults demote to
                                    // Starved when revoking it).
                                    .expect("catch-up session holds lease");
                                self.disk
                                    .read(lease, movie, position)
                                    .map(|seg| verify_segment(&seg))
                                    .unwrap_or(false)
                            };
                            let sess = self.sessions.live_at_mut(idx as usize);
                            sess.stats.from_disk += 1;
                            if !verified {
                                sess.stats.verify_failures += 1;
                                self.metrics.verify_failures += 1;
                            }
                            sess.position += 1;
                            self.metrics.runtime.disk_minutes += 1.0;
                            if self.sessions.live_at(idx as usize).position >= length {
                                self.finish(idx);
                                self.active.swap_remove(i);
                                continue;
                            }
                        }
                    }
                }
                4 => {
                    // Mirrors `VodServer::degraded_tick`: free rejoin
                    // resolves pending denials permanent; a granted retry
                    // resolves them transient; the timeout resolves them
                    // permanent and stops retrying (the looping broadcast
                    // front still rejoins the session eventually).
                    self.metrics.runtime.rewait_minutes += 1.0;
                    let (free, since, next_retry, backoff, pending, exhausted) = {
                        let sess = self.sessions.live_at(idx as usize);
                        let PState::Starved {
                            since,
                            next_retry,
                            backoff,
                            pending_denials,
                            retries_exhausted,
                        } = sess.state
                        else {
                            unreachable!("state tag checked above");
                        };
                        let free = sess.position >= length || sess.rx.received(sess.position);
                        (
                            free,
                            since,
                            next_retry,
                            backoff,
                            pending_denials,
                            retries_exhausted,
                        )
                    };
                    if free {
                        // The front swept past the starved position.
                        self.reserve.record_denials(pending, false);
                        self.sessions.live_at_mut(idx as usize).state = PState::Receiving;
                        debug_assert!(self.starved_count > 0, "starved session outside census");
                        self.starved_count -= 1;
                        self.metrics.runtime.degraded_rejoined += 1;
                    } else if !exhausted && now >= next_retry {
                        let timed_out = now.saturating_sub(since) >= self.policy.retry_timeout;
                        // Recovery landing on the timeout tick wins the
                        // race: one last lease attempt before the ledger
                        // resolves permanent.
                        let last_chance = timed_out
                            && self.policy.recovery_wins
                            && self.recovered_at == Some(now);
                        if timed_out && !last_chance {
                            self.reserve.record_denials(pending, false);
                            let sess = self.sessions.live_at_mut(idx as usize);
                            if let PState::Starved {
                                pending_denials,
                                retries_exhausted,
                                ..
                            } = &mut sess.state
                            {
                                *pending_denials = 0;
                                *retries_exhausted = true;
                            }
                        } else {
                            match self.try_dedicated_lease() {
                                None if timed_out => {
                                    // Recovery was not enough: the refused
                                    // attempt joins the ledger and the
                                    // timeout proceeds.
                                    self.reserve.record_denials(pending + 1, false);
                                    let sess = self.sessions.live_at_mut(idx as usize);
                                    if let PState::Starved {
                                        pending_denials,
                                        retries_exhausted,
                                        ..
                                    } = &mut sess.state
                                    {
                                        *pending_denials = 0;
                                        *retries_exhausted = true;
                                    }
                                }
                                Some(lease) => {
                                    self.reserve.record_denials(pending, true);
                                    let sess = self.sessions.live_at_mut(idx as usize);
                                    sess.lease = Some(lease);
                                    sess.state = PState::CatchUp;
                                    debug_assert!(
                                        self.starved_count > 0,
                                        "starved session outside census"
                                    );
                                    self.starved_count -= 1;
                                    self.metrics.runtime.degraded_dedicated += 1;
                                }
                                None => {
                                    let nb =
                                        (backoff * 2).min(self.policy.retry_backoff_cap.max(1));
                                    let sess = self.sessions.live_at_mut(idx as usize);
                                    if let PState::Starved {
                                        next_retry,
                                        backoff,
                                        pending_denials,
                                        ..
                                    } = &mut sess.state
                                    {
                                        *pending_denials = pending + 1;
                                        *next_retry = now + nb;
                                        *backoff = nb;
                                    }
                                }
                            }
                        }
                    }
                }
                _ => {
                    self.active.swap_remove(i);
                    continue;
                }
            }
            i += 1;
        }
        self.now += 1;
    }

    fn reset_metrics(&mut self) {
        let now = self.now as f64;
        let playing = self.metrics.playback.current();
        self.metrics = ServerMetrics::new();
        self.metrics.playback = TimeWeighted::new(now, playing);
        self.reserve.rebaseline(now);
        self.startup_waits = Welford::default();
    }

    fn runtime_metrics(&self) -> RuntimeMetrics {
        let mut rt = self.metrics.runtime.clone();
        rt.dedicated_avg = self.reserve.average(self.now as f64);
        rt.dedicated_peak = self.reserve.peak();
        rt.denied_transient = self.reserve.denied_transient();
        rt.denied_permanent = self.reserve.denied_permanent();
        rt
    }

    fn startup_waits(&self) -> &Welford {
        &self.startup_waits
    }

    fn inject_faults(&mut self, plan: FaultPlan, policy: DegradePolicy) {
        self.fault_mode = !plan.is_empty();
        self.plan = plan;
        self.policy = policy;
    }

    fn check_invariants(&self) -> Vec<String> {
        let mut v = Vec::new();
        let disk = &self.disk;
        if disk.in_use() + disk.available() + disk.failed() != disk.capacity() {
            v.push(format!(
                "disk conservation broken: in_use {} + free {} + failed {} != provisioned {}",
                disk.in_use(),
                disk.available(),
                disk.failed(),
                disk.capacity()
            ));
        }
        let channel_live: u32 = self
            .movies
            .iter()
            .map(|m| m.leases.iter().filter(|l| l.is_some()).count() as u32)
            .sum();
        // Channel-wheel phase consistency: a staged slot always holds the
        // minute its channel's schedule called at the tick just played
        // (tick() advances `now` after staging).
        if self.now > 0 {
            for (mi, m) in self.movies.iter().enumerate() {
                for (ci, slot) in m.slots.iter().enumerate() {
                    if let Some(seg) = slot.current() {
                        let scheduled = m.geometry.broadcast_minute(ci as u32, self.now - 1);
                        if scheduled != Some(seg.index) {
                            v.push(format!(
                                "movie {mi} channel {ci} staged minute {} off the wheel phase \
                                 (scheduled {scheduled:?})",
                                seg.index
                            ));
                        }
                    }
                }
            }
        }
        if self.reserve.failed() > disk.failed() {
            v.push(format!(
                "reserve failure accounting leads the disk: reserve {} > disk {}",
                self.reserve.failed(),
                disk.failed()
            ));
        }
        let mut held = 0u32;
        let mut starved = 0u32;
        for idx in 0..self.sessions.slot_count() {
            let Some(sess) = self.sessions.at(idx) else {
                continue;
            };
            if sess.lease.is_some() {
                held += 1;
                if !matches!(sess.state, PState::Vcr { .. } | PState::CatchUp) {
                    v.push(format!(
                        "session {idx} holds a dedicated lease in a non-serving state"
                    ));
                }
            } else if matches!(sess.state, PState::CatchUp) {
                v.push(format!("session {idx} is catching up without a lease"));
            }
            if matches!(sess.state, PState::Starved { .. }) {
                starved += 1;
            }
            // Prefix-coverage audit: the incremental front must equal a
            // from-scratch recount of the reception bitmap, and a
            // receiving session can never have consumed past it.
            let front = sess.rx.front();
            if front != sess.rx.audit_front() {
                v.push(format!(
                    "session {idx} reception front {front} drifted from bitmap recount {}",
                    sess.rx.audit_front()
                ));
            }
            if front > sess.rx.length() {
                v.push(format!(
                    "session {idx} reception front {front} beyond movie length {}",
                    sess.rx.length()
                ));
            }
            if matches!(sess.state, PState::Receiving)
                && sess.position < sess.rx.length()
                && sess.position > front
            {
                v.push(format!(
                    "session {idx} consumed to {} past its reception front {front}",
                    sess.position
                ));
            }
        }
        if channel_live + held != disk.in_use() {
            v.push(format!(
                "lease accounting broken: channels {channel_live} + sessions {held} != disk {}",
                disk.in_use()
            ));
        }
        if held != self.reserve.in_use() {
            v.push(format!(
                "reserve accounting broken: sessions hold {held}, reserve says {}",
                self.reserve.in_use()
            ));
        }
        let staging: usize = self.movies.iter().map(|m| m.slots.len()).sum();
        if self.pool.used() != staging {
            v.push(format!(
                "staging accounting broken: pool reserves {}, channels need {staging}",
                self.pool.used()
            ));
        }
        if starved != self.starved_count {
            v.push(format!(
                "starved population drifted: counted {starved}, tracked {}",
                self.starved_count
            ));
        }
        v
    }

    fn degraded_sessions(&self) -> u32 {
        self.starved_count
    }

    fn sessions_finished(&self) -> u64 {
        self.metrics.sessions_done + self.metrics.sessions_closed_early
    }

    fn verify_failures(&self) -> u64 {
        self.metrics.verify_failures
    }

    fn io_streams(&self) -> u32 {
        self.config.disk_streams
    }

    fn buffer_segments(&self) -> u64 {
        self.pool.budget() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::HostedMovie;

    fn config() -> ServerConfig {
        let movie = HostedMovie::from_allocation(MovieId(0), 120, 20, 100.0);
        ServerConfig {
            piggyback: None,
            ..ServerConfig::provisioned(vec![movie], 40)
        }
    }

    #[test]
    fn boundary_join_and_play_through() {
        let mut s = PyramidServer::new(config());
        // Batching max_wait for (120, 20, 100) is T − b = 6 − 5 = 1, so
        // the pyramid provisions d ≤ 1: joins start immediately.
        let id = s.open_session(MovieId(0)).unwrap();
        assert_eq!(s.session_status(id).unwrap(), SessionStatus::Shared);
        for _ in 0..121 {
            s.tick();
            assert!(s.check_invariants().is_empty());
        }
        assert_eq!(s.session_status(id).unwrap(), SessionStatus::Done);
        assert_eq!(s.sessions_finished(), 1);
        assert_eq!(s.verify_failures(), 0);
        let rt = s.runtime_metrics();
        assert_eq!(rt.buffer_minutes, 120.0, "all service from the broadcast");
        assert_eq!(rt.disk_minutes, 0.0);
    }

    #[test]
    fn startup_wait_bounded_by_segment_one_period() {
        // A looser movie: (120, 2, 20) ⇒ T = 60, b = 10, max_wait = 50;
        // pyramid picks k = 2 (d = 40) — wait, ⌈120/3⌉ = 40 ≤ 50. Joins
        // wait for the next multiple of 40.
        let movie = HostedMovie::from_allocation(MovieId(0), 120, 2, 20.0);
        let cfg = ServerConfig {
            piggyback: None,
            ..ServerConfig::provisioned(vec![movie], 8)
        };
        let mut s = PyramidServer::new(cfg);
        let d = s.movies[0].geometry.unit() as u64;
        assert!(d > 1);
        s.tick(); // now = 1: next boundary is d
        let id = s.open_session(MovieId(0)).unwrap();
        match s.session_status(id).unwrap() {
            SessionStatus::Waiting(at) => assert_eq!(at, d),
            other => panic!("expected Waiting, got {other:?}"),
        }
        assert!(s.startup_waits().mean() < d as f64, "wait < one period");
        for _ in 1..d {
            s.tick();
        }
        // Boundary tick: the session starts receiving.
        s.tick();
        assert_eq!(s.session_status(id).unwrap(), SessionStatus::Shared);
        assert!(s.check_invariants().is_empty());
    }

    #[test]
    fn server_resources_are_load_invariant() {
        let mut s = PyramidServer::new(config());
        let channels = s.movies[0].geometry.channels();
        let base_in_use = s.disk.in_use();
        assert_eq!(base_in_use, channels);
        for _ in 0..50 {
            s.open_session(MovieId(0)).unwrap();
        }
        for _ in 0..30 {
            s.tick();
        }
        assert_eq!(
            s.disk.in_use(),
            channels,
            "50 viewers cost zero extra streams"
        );
        assert_eq!(s.buffer_segments(), u64::from(channels));
        assert!(s.check_invariants().is_empty());
    }

    #[test]
    fn rw_and_pause_resumes_always_hit() {
        let mut s = PyramidServer::new(config());
        let id = s.open_session(MovieId(0)).unwrap();
        for _ in 0..20 {
            s.tick();
        }
        s.request_vcr(id, VcrKind::Rewind, 10).unwrap();
        for _ in 0..10 {
            s.tick();
        }
        s.request_vcr(id, VcrKind::Pause, 5).unwrap();
        for _ in 0..10 {
            s.tick();
        }
        let rt = s.runtime_metrics();
        assert_eq!(rt.resumes.trials(), 2);
        assert_eq!(rt.resumes.hits(), 2, "RW/Pause resume inside the prefix");
        assert_eq!(rt.vcr_denied, 0);
        assert!(s.check_invariants().is_empty());
    }

    #[test]
    fn ff_beyond_front_takes_dedicated_stream_then_merges() {
        let mut s = PyramidServer::new(config());
        let id = s.open_session(MovieId(0)).unwrap();
        for _ in 0..5 {
            s.tick();
        }
        let before = s.reserve.in_use();
        // Jump 60 minutes ahead — far beyond anything received by t=5.
        s.request_vcr(id, VcrKind::FastForward, 60).unwrap();
        assert_eq!(s.reserve.in_use(), before + 1, "sweep holds a lease");
        // Drive until the sweep ends and the catch-up merges back.
        let mut merged = false;
        for _ in 0..120 {
            s.tick();
            assert!(s.check_invariants().is_empty());
            if matches!(s.session_status(id).unwrap(), SessionStatus::Shared) {
                merged = true;
                break;
            }
            if matches!(s.session_status(id).unwrap(), SessionStatus::Done) {
                break;
            }
        }
        assert!(
            merged,
            "catch-up session must merge back into the broadcast"
        );
        assert_eq!(s.reserve.in_use(), before, "lease released at merge");
        assert!(s.metrics.piggyback_merges >= 1);
        let rt = s.runtime_metrics();
        assert!(rt.disk_minutes > 0.0, "the sweep/catch-up was disk-served");
    }

    #[test]
    fn recovered_front_never_leads_schedule() {
        use vod_runtime::FaultEvent;
        // Multi-channel geometry (d = 40, k = 2): PR 7's closed-form
        // bookkeeping could lead the real front by up to d − 1 = 39
        // after an outage recovered. The exact bitmap may not lead the
        // truly-staged schedule by even one minute, on any tick.
        let movie = HostedMovie::from_allocation(MovieId(0), 120, 2, 20.0);
        let cfg = ServerConfig {
            piggyback: None,
            ..ServerConfig::provisioned(vec![movie], 8)
        };
        let mut s = PyramidServer::new(cfg);
        // 2 channel streams + 10 reserve: a count-11 outage exhausts the
        // free reserve, then revokes the newest channel lease (channel 1,
        // the one carrying minutes 40..119).
        assert_eq!(s.disk.available(), 10);
        let plan = FaultPlan::new(vec![FaultEvent {
            at: 30,
            kind: FaultKind::DiskOutage {
                count: 11,
                recover_after: 25,
            },
        }]);
        s.inject_faults(plan, DegradePolicy::default());
        // t = 0 is a segment-1 boundary: the session receives from the
        // first tick, exactly like the truth recorder below.
        let id = s.open_session(MovieId(0)).unwrap();
        let mut truth = ReceptionFront::new(120);
        let mut stalled_ticks = 0u64;
        for _ in 0..400 {
            s.tick();
            if matches!(s.session_status(id).unwrap(), SessionStatus::Done) {
                break;
            }
            for slot in &s.movies[0].slots {
                if let Some(seg) = slot.current() {
                    truth.record(seg.index);
                }
            }
            let sess = s.sessions.get(id.0).unwrap();
            assert!(
                sess.rx.front() <= truth.front(),
                "bookkept front {} leads the truly-staged front {}",
                sess.rx.front(),
                truth.front()
            );
            assert_eq!(
                sess.rx.front(),
                truth.front(),
                "recovery resync must re-anchor the bookkept front exactly"
            );
            if sess.position < sess.rx.front() || sess.position >= 120 {
                // playable or finished
            } else {
                stalled_ticks += 1;
            }
            let violations = s.check_invariants();
            assert!(violations.is_empty(), "{violations:?}");
        }
        assert_eq!(s.session_status(id).unwrap(), SessionStatus::Done);
        assert!(
            stalled_ticks > 0,
            "the outage window must actually stall the playout front"
        );
        let rt = s.runtime_metrics();
        assert!(
            rt.stall_minutes > 0.0,
            "per-channel stall accounting must record the outage"
        );
    }

    #[test]
    fn deterministic_under_replay() {
        let run = || {
            let mut s = PyramidServer::new(config());
            let mut ids = Vec::new();
            for t in 0..80u64 {
                if t % 3 == 0 {
                    ids.push(s.open_session(MovieId(0)).unwrap());
                }
                if t == 30 {
                    let _ = s.request_vcr(ids[0], VcrKind::FastForward, 40);
                }
                if t == 40 {
                    let _ = s.request_vcr(ids[1], VcrKind::Pause, 7);
                }
                s.tick();
            }
            s.runtime_metrics()
        };
        assert_eq!(run(), run());
    }
}
