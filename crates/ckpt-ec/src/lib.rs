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
//! * [`rs`] — [`RsCode`], systematic Vandermonde-derived encode matrix,
//!   pool-parallel parity rows, Gauss-Jordan reconstruction from any
//!   `k` intact shards;
//! * [`store`] — [`ErasureStore`], the
//!   [`StableStorage`](ckpt_storage::StableStorage) backend: RS shard
//!   frames committed through `ckpt-replica`'s
//!   [`QuorumClient`](ckpt_replica::QuorumClient) (the same admission,
//!   rollback and manifest protocol as the replicated tier, on the same
//!   versioned, digest-protected [`ReplicaNode`](ckpt_replica::ReplicaNode)
//!   frames), digest-verified reconstruction, in-place shard repair,
//!   typed
//!   [`TooManyShardsLost`](ckpt_storage::StorageError::TooManyShardsLost);
//!   and [`EcStripedStore`], K independent coded shard groups behind
//!   `ckpt-replica`'s generic [`Striped`](ckpt_replica::Striped) router
//!   so the sharded control plane commits coded batches.

pub mod gf;
pub mod rs;
pub mod store;

pub use rs::{NotEnoughShards, RsCode};
pub use store::{EcStats, EcStripedStore, ErasureStore};
