//! # ckpt-core — the checkpoint/restart engine
//!
//! Implements every point of the paper's taxonomy (Figure 1) against the
//! [`simos`] substrate:
//!
//! * **Trackers** ([`tracker`]): full, page-protection incremental at
//!   kernel and user level, probabilistic block-hash, adaptive block,
//!   hardware cache-line.
//! * **Capture/restore** ([`capture`]): kernel-context PCB walking into
//!   [`ckpt_image::CheckpointImage`]s and back.
//! * **User-level agents** ([`agents`]): the modelled checkpoint library
//!   of the Section 3 schemes — the per-fact syscall gather and the
//!   `write()` loop, over the same round every mechanism runs.
//! * **Mechanisms** ([`mechanism`]): the one checkpoint round, its freeze
//!   bracket and commit step, and the seven mechanism families that wrap
//!   it in their own initiation — user library/signal/preload, new system
//!   call, kernel-mode signal handler, kernel thread, fork-concurrent,
//!   hardware-assisted — with the family table that names them.
//! * **Pod virtualization** ([`pod`]): ZAP-style resource translation for
//!   conflict-free migration.
//! * **Policies** ([`policy`]): user-initiated, periodic, and adaptive
//!   (Young's formula) checkpoint intervals.
//! * **The autonomic daemon** ([`autonomic`]): the paper's "direction
//!   forward" — automatic system-level initiation, kernel-level incremental
//!   tracking, remote storage, self-tuned interval.

pub mod agents;
pub mod autonomic;
pub mod capture;
pub mod crashpoint;
pub mod mechanism;
pub mod pod;
pub mod policy;
pub mod report;
pub mod tracker;

pub use capture::{
    capture_image, restore_image, CaptureOptions, PageSelection, RestoreOptions, RestorePid,
};
pub use report::{CkptOutcome, RestartOutcome};
pub use tracker::{Collected, Tracker, TrackerKind};

use ckpt_storage::StableStorage;
use parking_lot::Mutex;
use simos::types::SimResult;
use simos::Relink;
use std::sync::Arc;

/// Storage handle shareable between mechanisms (outside the kernel) and the
/// kernel modules they install (inside it).
pub type SharedStorage = Arc<Mutex<Box<dyn StableStorage>>>;

/// Wrap a backend for sharing.
pub fn shared_storage(s: impl StableStorage + 'static) -> SharedStorage {
    Arc::new(Mutex::new(Box::new(s)))
}

/// The fork's copy of a shared store ([`StableStorage::fork`]): a
/// mechanism and the module it installed hold one handle in the original,
/// and hold one copy of it in the fork.
pub fn fork_storage(storage: &SharedStorage, relink: &mut Relink) -> SimResult<SharedStorage> {
    relink.shared(storage, |s, relink| {
        Ok(Arc::new(Mutex::new(s.lock().fork(relink)?)))
    })
}
