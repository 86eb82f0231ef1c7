//! # vod-server — virtual-time VOD server data path
//!
//! A functioning (virtual-time, byte-exact) implementation of the system
//! the paper analyzes: batching via periodic stream restarts (the paper's ref. \[5\]), static
//! partitioned buffering (ref. \[12\]), VCR service on dedicated streams, and
//! piggyback merge-back (ref. \[7\]) as the phase-2 fallback. Content is
//! deterministic synthetic video (see `content`), so every delivered
//! segment is verifiable — the data path checks itself.
//!
//! ```
//! use vod_server::{HostedMovie, MovieId, ServerConfig, VodServer};
//!
//! let movie = HostedMovie::from_allocation(MovieId(0), 120, 10, 60.0);
//! let mut server = VodServer::new(ServerConfig::provisioned(vec![movie], 4));
//! let session = server.open_session(MovieId(0)).unwrap();
//! server.run(130);
//! let stats = server.session_stats(session).unwrap();
//! assert_eq!(stats.verify_failures, 0);
//! assert_eq!(stats.total(), 120); // every segment delivered exactly once
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::float_cmp))]

mod admission;
mod backend;
mod buffer;
mod content;
mod dedicated;
mod disk;
mod harness;
mod metrics;
mod pyramid;
mod server;
mod session;

pub use admission::{config_from_plan, vcr_reserve_estimate};
pub use backend::{make_backend, Adoption, DeliveryBackend};
pub use buffer::{BroadcastSlot, BufferError, BufferPool, Partition};
pub use content::{checksum, generate_segment, verify_segment, MovieId, Segment, SEGMENT_BYTES};
pub use dedicated::DedicatedServer;
pub use disk::{DiskError, DiskSubsystem, StreamLease};
pub use harness::{
    drive, run_chaos, run_chaos_backend, run_harness, run_harness_backend, run_scale, BackendRun,
    ChaosOutcome, DriveLog, HarnessConfig, ScaleConfig, ScaleOutcome, WorkloadConfig,
    WorkloadShape, WorkloadTarget,
};
pub use metrics::ServerMetrics;
pub use pyramid::PyramidServer;
pub use server::{HostedMovie, PiggybackConfig, ServerConfig, ServerError, VodServer};
pub use session::{DeliveryStats, SessionId, SessionState, SessionStatus, StreamId};
