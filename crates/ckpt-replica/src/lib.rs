//! # ckpt-replica — N-way quorum-replicated stable storage
//!
//! The paper's survivability argument (Section 4.1, DESIGN.md §C6) is
//! binary: a checkpoint either lives where the failed node's death cannot
//! reach it, or it is gone. This crate makes the "remote" column concrete
//! the way production checkpoint stacks do: one logical stable store
//! backed by **N** independent replica nodes, writes committed at a
//! majority write quorum **w > N/2**, reads assembled from the newest
//! intact copy with read-repair, and a typed
//! [`QuorumLost`](ckpt_storage::StorageError::QuorumLost) refusal — never
//! a guess — once more than `N − w` replicas are lost.
//!
//! * retry — jittered exponential retry schedules over virtual time;
//! * replica nodes — the simulated nodes ([`ReplicaNode`], [`ReplicaSet`])
//!   and their versioned, digest-protected frames;
//! * [`QuorumClient`] — the commit protocol itself
//!   (admission → snapshot → fan-out → count → rollback-or-manifest),
//!   written once for every tier that stores bytes on a [`ReplicaSet`]
//!   (`ckpt-ec` builds its coded store on it too);
//! * [`ReplicatedStore`] — the
//!   [`StableStorage`](ckpt_storage::StableStorage) backend: full-copy
//!   payloads over that protocol plus the quorum read with read-repair;
//! * [`Striped`] — K independent quorum sets of any member tier behind one
//!   facade so commits to different key lineages overlap in virtual time
//!   ([`StripedStore`] is the replicated instance).
//!
//! The public API is the re-export list below: the two stores and their
//! configuration, the striping router and its member trait, and the quorum
//! client with the node and frame types `ckpt-ec` builds on.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

mod backoff;
mod node;
mod quorum;
mod store;
mod stripe;

/// No content digest uses FNV-1a since the CRC-64 digest replaced it; kept
/// only for ckptbench's replay (`benchmark/src/replay.rs`), which times it
/// through this path.
pub use ckpt_storage::fnv1a64;
pub use node::{Frame, Probe, ReplicaNode, ReplicaSet};
pub use quorum::{QuorumClient, WireFrame};
pub use store::{ReplicaConfig, ReplicatedStore};
pub use stripe::{stripe_route, StripeMember, Striped, StripedReplicaSet, StripedStore};
