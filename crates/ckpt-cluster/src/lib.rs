//! # ckpt-cluster — the cluster substrate and distributed checkpointing
//!
//! The paper's motivation is capability computing: long-running parallel
//! applications on machines whose aggregate MTBF is shorter than the job.
//! This crate provides everything needed to make that scenario concrete
//! and measurable:
//!
//! * [`node`] / [`cluster`] — kernels-as-nodes, a shared remote checkpoint
//!   server, lock-step time, and exponential fail-stop failure injection;
//! * [`mpi`] — a deterministic bulk-synchronous message-passing job layer
//!   (the MPI stand-in; see DESIGN.md on the substitution);
//! * [`shard`] — the one coordinated-checkpoint protocol, at quiescent
//!   superstep boundaries with migration-aware restart: shard-local rounds
//!   with batched quorum commits under a root two-phase global cut
//!   (LAM/MPI's per-image protocol is one rank per shard), and the 1k–10k
//!   node scale model;
//! * [`mod@migrate`] — the one migration cutover (freeze bracket, wire
//!   faultpoints, landing, retiring the source) and freeze-copy migration
//!   over it, with or without pod virtualization;
//! * [`livemig`] — what iterative pre-copy and post-copy live migration
//!   add around that cutover (dirty rounds with a dirty-rate-adaptive
//!   cutover policy before it, the demand/prefetch drain after it), plus
//!   the crash-matrix tier ([`migmatrix`]);
//! * [`gang`] — gang scheduling via safe-preemption checkpoints;
//! * [`analytics`] — mechanistic job runs under failures, and an
//!   event-level Monte-Carlo model that scales the utilization analysis to
//!   BlueGene/L's 65,536 nodes.

pub mod analytics;
pub mod batch;
pub mod cluster;
pub mod gang;
pub mod livemig;
pub mod migmatrix;
pub mod migrate;
pub mod mpi;
pub mod node;
pub mod shard;

pub use analytics::{interval_sweep, simulate_job, stochastic_run, JobRunConfig, JobRunReport};
pub use batch::{BatchManager, BatchRoundReport, ManagedJob};
pub use cluster::{Cluster, FailureConfig, FailureEvent};
pub use gang::{Gang, GangScheduler};
pub use livemig::{
    migrate_postcopy, migrate_precopy, LiveMigConfig, PostCopyReport, PreCopyReport, RoundStat,
};
pub use migmatrix::{full_matrix, MIGRATION_TIER};
pub use migrate::{migrate, MigrationMode, MigrationReport};
pub use mpi::{JobInterrupt, MpiJob, RankRef};
pub use node::{Node, NodeId};
pub use shard::{
    scale_round, scale_round_with_pool, HierOutcome, ScaleConfig, ScalePoint, ShardRound,
    ShardedCoordinator,
};
