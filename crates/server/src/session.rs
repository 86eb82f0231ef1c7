//! Viewer sessions: state machine types.
//!
//! The server (`crate::server`) drives these states tick by tick. Time is
//! integer minutes; one tick displays one segment at normal playback.
//!
//! ```text
//! Waiting ──restart──▶ Enrolled(stream) ──VCR──▶ VcrActive ──resume hit──▶ Enrolled
//!                         │                        │
//!                         │                        └─resume miss──▶ Dedicated ──piggyback──▶ Enrolled
//!                         └──────────── end of movie ──▶ Done
//!
//! Enrolled/Dedicated/VcrActive ──fault (lost stream or partition)──▶ Degraded
//!     Degraded ──window rejoin──▶ Enrolled      (bounded re-wait, the free path)
//!     Degraded ──retry granted──▶ Dedicated     (backoff, stops at the timeout)
//! ```
//!
//! `Degraded` only arises under an injected [`vod_runtime::FaultPlan`];
//! a fault-free run never constructs it, so pre-fault behavior is
//! bitwise unchanged.

use vod_runtime::{ArenaId, RetryLedger};
use vod_workload::VcrKind;

/// Session identifier: a generational handle into the server's session
/// arena. Ids stay valid (and queryable) after the session finishes —
/// session slots are never reused — but a fabricated or foreign id
/// safely fails to resolve instead of aliasing another session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SessionId(pub ArenaId);

/// Identifier of an active stream within the server: a generational
/// handle into the stream arena. Stream slots *are* reused as streams
/// retire, so a stale `StreamId` held across a retirement resolves to
/// `None` rather than the slot's new occupant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StreamId(pub ArenaId);

/// Where a session currently gets its frames.
#[derive(Debug)]
pub enum SessionState {
    /// Queued for the next restart of the movie (type-1 viewer).
    Waiting {
        /// Tick at which the session will start.
        start_at: u64,
    },
    /// Reading from a stream's buffer partition (type-2 viewer or a
    /// post-resume hit).
    Enrolled {
        /// The stream whose partition serves this session.
        stream: StreamId,
    },
    /// Holding a dedicated disk stream (post-miss playback, possibly
    /// piggybacking its way back into a partition).
    Dedicated,
    /// Mid-VCR operation.
    VcrActive {
        /// Operation kind.
        kind: VcrKind,
        /// Segments still to sweep (FF/RW) or ticks still to wait (PAU).
        remaining: u32,
    },
    /// Lost its stream or partition to an injected fault; re-queued with
    /// bounded re-wait. Each tick the server first tries a free batch
    /// rejoin (a live window covering the position), then steps the
    /// session's [`RetryLedger`]: past the policy's re-wait bound it
    /// retries dedicated-stream acquisition with exponential backoff
    /// until the retry timeout, after which the session falls back to
    /// pure batch admission. Playback position is preserved; the viewer
    /// is never dropped.
    Degraded(RetryLedger),
    /// Finished (reached the end of the movie).
    Done,
}

/// Per-session delivery accounting; the integration tests assert
/// `verify_failures == 0` — the data path must deliver byte-exact
/// segments no matter which source served them.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DeliveryStats {
    /// Segments served from a buffer partition.
    pub from_buffer: u64,
    /// Segments served from a dedicated disk stream.
    pub from_disk: u64,
    /// Segments whose bytes did not match the canonical content.
    pub verify_failures: u64,
}

impl DeliveryStats {
    /// All segments delivered.
    pub fn total(&self) -> u64 {
        self.from_buffer + self.from_disk
    }
}

/// Public status snapshot of a session.
///
/// This is the *shared* vocabulary every
/// [`DeliveryBackend`](crate::DeliveryBackend) maps its internal states
/// onto, so the workload driver stays scheme-agnostic: batching reads
/// `Waiting` as "queued for the next restart", pyramid as "parked until
/// the next segment-1 boundary", dedicated as "queued for a free
/// stream"; `Shared` covers both partition playback and broadcast
/// reception; `Dedicated` covers a private stream, whether primary
/// (unicast baseline) or a catch-up beyond the broadcast front.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionStatus {
    /// Waiting for a scheduled playback start (tick at which it starts).
    Waiting(u64),
    /// Playing from a shared resource (partition or broadcast channel).
    Shared,
    /// Playing from a dedicated stream.
    Dedicated,
    /// Mid-VCR operation.
    InVcr,
    /// Re-queued after a fault took its stream or partition (degraded
    /// re-wait; playback resumes via window rejoin or a granted retry).
    Degraded,
    /// Completed.
    Done,
}
