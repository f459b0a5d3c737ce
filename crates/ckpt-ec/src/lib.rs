//! # ckpt-ec — erasure-coded stable storage
//!
//! The paper's survey covers diskless/parity-based checkpointing as the
//! way to buy survivability without paying for N full copies; this crate
//! is that trade made concrete. A systematic Reed-Solomon code over
//! GF(256) splits every object into `k` data shards plus `m` parity
//! shards, one shard per remote node: any `m` node losses are
//! survivable — the same single-fault (or double-fault) tolerance as
//! 3-way or 5-way mirroring — while a commit moves only `(k + m) / k ×`
//! the object's bytes instead of `N ×`. At RS(4, 2) vs replicated(3, 2)
//! that is 1.5× vs 3× — half the commit bandwidth at equal
//! single-fault survivability, which is the scaling bottleneck the
//! 10k-node sweeps expose.
//!
//! * [`gf`] — GF(256) arithmetic: compile-time log/exp tables and the
//!   word-at-a-time parity hot loop;
//! * [`RsCode`] — systematic Vandermonde-derived encode matrix,
//!   pool-parallel parity rows, Gauss-Jordan reconstruction from any
//!   `k` intact shards — and the [`Coding`](ckpt_replica::Coding) of
//!   `ckpt-replica`'s one [`QuorumStore`](ckpt_replica::QuorumStore):
//!   the `ECS1` shard frames, digest-verified reconstruction, the shard
//!   frames a repair writes and the typed
//!   [`TooManyShardsLost`](ckpt_storage::StorageError::TooManyShardsLost).
//!   [`ErasureStore`] is that store over RS, [`EcStripedStore`] K
//!   independent coded shard groups behind the generic
//!   [`Striped`](ckpt_replica::Striped) router, so the sharded control
//!   plane commits coded batches.
//!
//! The public API is the code ([`RsCode`]), the two store aliases and the
//! [`gf`] arithmetic module.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

// `gf` and `RsCode` are public for ckptbench (`benchmark/src/replay.rs`).
pub mod gf;
mod rs;
mod store;

pub use rs::RsCode;
pub use store::{EcStripedStore, ErasureStore};
