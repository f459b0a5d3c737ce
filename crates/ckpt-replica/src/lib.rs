//! # ckpt-replica — quorum stable storage over remote nodes
//!
//! The paper's survivability argument (Section 4.1, DESIGN.md §C6) is
//! binary: a checkpoint either lives where the failed node's death cannot
//! reach it, or it is gone. This crate makes the "remote" column concrete
//! the way production checkpoint stacks do: one logical stable store
//! backed by N independent nodes, writes committed at a write quorum,
//! reads assembled from the newest intact version with read-repair, and a
//! typed refusal — never a guess — once too much is lost.
//!
//! * retry — jittered exponential retry schedules over virtual time;
//! * replica nodes ([`ReplicaNode`], [`ReplicaSet`]) and their versioned,
//!   digest-protected frames;
//! * [`QuorumStore`] — the [`StableStorage`](ckpt_storage::StableStorage)
//!   backend, written once: admission, commit and rollback, manifests,
//!   and the quorum read with read-repair, generic over a [`Coding`] of
//!   objects onto nodes. [`Replicate`] ([`ReplicatedStore`]) puts the
//!   whole object on every node at a majority write quorum `w > N/2` and
//!   refuses with [`QuorumLost`](ckpt_storage::StorageError::QuorumLost);
//!   `ckpt-ec`'s Reed-Solomon code is the other coding;
//! * [`Striped`] — K independent quorum sets behind one facade so commits
//!   to different key lineages overlap in virtual time
//!   ([`StripedStore`] is the replicated instance).
//!
//! The public API is the re-export list below: the store, the coding
//! trait and the types its answers are made of, the replicated coding and
//! its configuration, the striping router, and the node and frame types.

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
pub use quorum::{QuorumStats, WireFrame};
pub use store::{
    Assembled, Coding, Counters, FrameFor, QuorumStore, Repair, ReplicaConfig, Replicate,
    ReplicatedStore, ShardCoding,
};
pub use stripe::{stripe_route, Striped, StripedReplicaSet, StripedStore};
