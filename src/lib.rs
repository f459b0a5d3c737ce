//! # ckpt-restart — checkpoint/restart for fault tolerance
//!
//! A Rust reproduction of *Current Practice and a Direction Forward in
//! Checkpoint/Restart Implementations for Fault Tolerance* (Sancho, Petrini,
//! Davis, Gioiosa, Jiang — LANL, 2005): the full taxonomy of
//! checkpoint/restart mechanisms implemented and measurable over a
//! deterministic operating-system simulator.
//!
//! This facade crate re-exports the workspace members:
//!
//! * [`simos`] — the OS substrate (processes, VM, signals, scheduler,
//!   kernel threads, syscalls, cost model, and the [`trace`] subsystem);
//! * [`ckpt_image`] — the checkpoint image format;
//! * [`ckpt_par`] — the scoped work-stealing pool with deterministic
//!   ordered merge behind the parallel checkpoint pipeline;
//! * [`ckpt_storage`] — stable-storage backends with availability
//!   semantics and the typed [`ckpt_storage::ObjectKey`] namespace;
//! * [`ckpt_cas`] — content-defined chunking, the content-addressed
//!   dedup store with refcounted GC, and the XOR+RLE delta codec;
//! * [`ckpt_replica`] — N-way quorum-replicated stable storage with
//!   retry/backoff, read-repair, and typed `QuorumLost` degradation;
//! * [`ckpt_ec`] — erasure-coded stable storage: GF(256) Reed-Solomon
//!   shards over replica nodes, any `m` losses survivable at
//!   `(k + m) / k ×` commit bytes instead of `N ×`;
//! * [`ckpt_core`] — trackers, the seven mechanism families, pod
//!   virtualization, policies, restart, and the autonomic daemon;
//! * [`ckpt_cluster`] — the cluster/fault-injection simulator and
//!   coordinated checkpointing;
//! * [`ckpt_survey`] — the twelve surveyed systems; regenerates the
//!   paper's Table 1 and Figure 1.
//!
//! Most applications only need the [`prelude`]:
//!
//! ```
//! use ckpt_restart::prelude::*;
//! ```
//!
//! See `README.md` for a quickstart and `EXPERIMENTS.md` for the
//! reproduction results.

#![forbid(unsafe_code)]

pub use ckpt_cas as cas;
pub use ckpt_cluster as cluster;
pub use ckpt_core as ckpt;
pub use ckpt_ec as ec;
pub use ckpt_image as image;
pub use ckpt_par as par;
pub use ckpt_replica as replica;
pub use ckpt_storage as storage;
pub use ckpt_survey as survey;
pub use simos;

/// The structured event/metrics subsystem (`simos::trace`), re-exported at
/// the workspace facade so instrumentation consumers need only one path.
pub use simos::trace;

/// One-stop imports for the common checkpoint/restart workflow.
///
/// Re-exports the mechanism trait and metadata, the kernel-context engine
/// and its builder, trackers, storage handles, outcome types, the kernel
/// itself, and the trace subsystem's entry points.
pub mod prelude {
    pub use ckpt_cas::{CasStats, CasStatsHandle, ChunkParams, DedupStore};
    pub use ckpt_core::capture::{CaptureOptions, RestoreOptions, RestorePid};
    pub use ckpt_core::mechanism::{
        KernelCkptEngine, KernelCkptEngineBuilder, Mechanism, MechanismInfo,
    };
    pub use ckpt_core::report::{CkptOutcome, RestartOutcome};
    pub use ckpt_core::tracker::{Tracker, TrackerKind};
    pub use ckpt_core::{shared_storage, SharedStorage};
    pub use ckpt_storage::{ImageKey, ObjectKey};
    pub use simos::trace::{Phase, TraceHandle, TraceReport};
    pub use simos::Kernel;
}
