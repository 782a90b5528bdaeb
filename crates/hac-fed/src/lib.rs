//! Sharded namespaces: scatter-gather federation and read replicas.
//!
//! The paper's semantic mounts already union query results from several
//! remote name spaces; this crate generalizes that mechanism into
//! horizontal scale. A logical namespace is partitioned across N
//! `HacServer`s by **doc-path hash** ([`ShardMap`]); a coordinator
//! ([`FedRemote`]) implements `RemoteQuerySystem`, so it drops into
//! `smount` unchanged — a federated namespace mounts exactly like a
//! single remote one. Bitmap result sets (the paper's N/8-byte
//! representation) make the cross-shard merge nearly free
//! ([`merge::union_translated`]).
//!
//! Three pieces:
//!
//! * **Placement** ([`map`]): a versioned shard map, carried in a
//!   HACM-style binary manifest (`HACF`), fetched from any shard over
//!   the wire `ShardMap` op so clients and coordinator always agree.
//! * **Scatter-gather** ([`coord`]): queries fan out over a pooled
//!   `hac-net` client to every shard under one deadline budget; per-shard
//!   results union by document id. A shard that misses the deadline or
//!   errors degrades the answer to a *partial* result — explicitly
//!   flagged via `RemoteQuerySystem::last_partial`, never an error, so
//!   semdir resync keeps previously imported links instead of
//!   poisoning state.
//! * **Replication** ([`replica`]): read replicas follow a primary by
//!   shipping sealed `hac-store` segments (and checkpoint snapshots) —
//!   content-addressed objects pulled over the wire
//!   `Manifest`/`Object` ops and applied via `Index::replay_segment`.
//!   A replica serves reads while catching up and converges with no
//!   cold reindex.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coord;
pub mod map;
pub mod merge;
pub mod replica;

pub use coord::{FedConfig, FedRemote, FedStatus, ShardHealth, ShardStatus, DOWN_AFTER_FAILURES};
pub use map::{ShardBackend, ShardEntry, ShardMap};
pub use merge::union_translated;
pub use replica::{Follower, Replica, SyncReport};

use std::fmt;

use hac_core::remote::RemoteError;
use hac_store::StoreError;

/// Federation errors: transport problems wrap [`RemoteError`], durable
/// payload problems wrap [`StoreError`] (a shipped object that fails
/// validation must not be applied).
#[derive(Debug)]
pub enum FedError {
    /// The peer was unreachable or refused the operation.
    Remote(RemoteError),
    /// A shipped manifest/segment/snapshot failed structural validation
    /// or hash verification.
    Store(StoreError),
}

impl fmt::Display for FedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FedError::Remote(e) => write!(f, "federation transport: {e}"),
            FedError::Store(e) => write!(f, "federation payload: {e}"),
        }
    }
}

impl std::error::Error for FedError {}

impl From<RemoteError> for FedError {
    fn from(e: RemoteError) -> Self {
        FedError::Remote(e)
    }
}

impl From<StoreError> for FedError {
    fn from(e: StoreError) -> Self {
        FedError::Store(e)
    }
}
