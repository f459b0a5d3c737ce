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
//! * [`backoff`] — jittered exponential retry schedules over virtual time;
//! * [`node`] — the simulated replica nodes and their versioned,
//!   digest-protected frames;
//! * [`quorum`] — [`QuorumClient`], the commit protocol itself
//!   (admission → snapshot → fan-out → count → rollback-or-manifest),
//!   written once for every tier that stores bytes on a [`ReplicaSet`]
//!   (`ckpt-ec` builds its coded store on it too);
//! * [`store`] — [`ReplicatedStore`], the
//!   [`StableStorage`](ckpt_storage::StableStorage) backend: full-copy
//!   payloads over that protocol plus the quorum read with read-repair;
//! * [`stripe`] — [`Striped`], K independent quorum sets of any member
//!   tier behind one facade so commits to different key lineages overlap
//!   in virtual time ([`StripedStore`] is the replicated instance).

#![forbid(unsafe_code)]

pub mod backoff;
pub mod node;
pub mod quorum;
pub mod store;
pub mod stripe;

pub use backoff::{Backoff, BackoffPolicy, RetriesExhausted};
// No content digest here uses FNV-1a; ckptbench times it through this path.
pub use ckpt_storage::fnv1a64;
pub use node::{Admission, Frame, Probe, ReplicaNode, ReplicaSet};
pub use quorum::{Admissions, CommitObject, QuorumClient, QuorumStats, WireFrame};
pub use store::{ReplStats, ReplicaConfig, ReplicatedStore};
pub use stripe::{stripe_route, StripeMember, Striped, StripedReplicaSet, StripedStore};
