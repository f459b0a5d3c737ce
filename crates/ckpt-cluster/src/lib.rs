//! # ckpt-cluster — the cluster substrate and distributed checkpointing
//!
//! The paper's motivation is capability computing: long-running parallel
//! applications on machines whose aggregate MTBF is shorter than the job.
//! This crate provides everything needed to make that scenario concrete
//! and measurable:
//!
//! * nodes and the cluster ([`Cluster`], [`NodeId`]) — kernels-as-nodes,
//!   a shared remote checkpoint server, lock-step time, and exponential
//!   fail-stop failure injection;
//! * [`mpi`] — a deterministic bulk-synchronous message-passing job layer
//!   (the MPI stand-in; see DESIGN.md on the substitution);
//! * [`ShardedCoordinator`] — the one coordinated-checkpoint protocol, at
//!   quiescent superstep boundaries with migration-aware restart:
//!   shard-local rounds with batched quorum commits under a root two-phase
//!   global cut (LAM/MPI's per-image protocol is one rank per shard), and
//!   the 1k–10k node scale model ([`scale_round`]);
//! * [`migrate()`] — the one migration cutover (freeze bracket, wire
//!   faultpoints, landing the shipped bytes, retiring the source) and
//!   freeze-copy migration over it, with or without pod virtualization;
//!   every migration image is taken by [`ckpt_core::Lineage::capture`];
//! * [`livemig`] — what iterative pre-copy and post-copy live migration
//!   add around that cutover (dirty rounds with a dirty-rate-adaptive
//!   cutover policy before it, the demand/prefetch drain after it), plus
//!   the crash-matrix tier ([`migmatrix`]);
//! * [`GangScheduler`] — gang scheduling via safe-preemption checkpoints
//!   (the introduction's gang-scheduling use);
//! * analytics ([`simulate_job`], [`stochastic_run`], [`interval_sweep`])
//!   — mechanistic job runs under failures, and an event-level Monte-Carlo
//!   model that scales the utilization analysis to BlueGene/L's 65,536
//!   nodes; [`BatchManager`] runs many jobs through one checkpoint policy.
//!
//! The public API is the three modules callers name by path (`livemig`,
//! `migmatrix`, `mpi`) and the re-export list below.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

mod analytics;
mod batch;
mod cluster;
mod gang;
pub mod livemig;
pub mod migmatrix;
mod migrate;
pub mod mpi;
mod node;
mod shard;

pub use analytics::{interval_sweep, simulate_job, stochastic_run, JobRunConfig};
pub use batch::BatchManager;
pub use cluster::{Cluster, FailureConfig};
pub use gang::{Gang, GangScheduler};
pub use livemig::{migrate_postcopy, migrate_precopy, LiveMigConfig};
pub use migmatrix::full_matrix;
pub use migrate::{migrate, MigrationMode};
pub use mpi::{JobInterrupt, MpiJob};
pub use node::NodeId;
pub use shard::{scale_round, ScaleConfig, ScalePoint, ShardedCoordinator};
