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
use std::sync::Arc;

/// Storage handle shareable between mechanisms (outside the kernel) and the
/// kernel modules / agents they install (inside it).
pub type SharedStorage = Arc<Mutex<Box<dyn StableStorage>>>;

/// Wrap a backend for sharing.
pub fn shared_storage(s: impl StableStorage + 'static) -> SharedStorage {
    Arc::new(Mutex::new(Box::new(s)))
}

/// A [`StableStorage`] view of a [`SharedStorage`] handle: each call takes
/// the lock, forwards, and releases. Lets a decorator that owns a
/// `Box<dyn StableStorage>` (such as [`ckpt_cas::DedupStore`]) wrap
/// storage that is already shared — e.g. a builder layering dedup over
/// whatever backend the engine was constructed with.
pub struct SharedBackend(pub SharedStorage);

impl StableStorage for SharedBackend {
    fn class(&self) -> ckpt_storage::StorageClass {
        self.0.lock().class()
    }
    fn label(&self) -> String {
        self.0.lock().label()
    }
    fn store(
        &mut self,
        key: &str,
        data: &[u8],
        cost: &simos::cost::CostModel,
    ) -> Result<ckpt_storage::StoreReceipt, ckpt_storage::StorageError> {
        self.0.lock().store(key, data, cost)
    }
    fn load(
        &self,
        key: &str,
        cost: &simos::cost::CostModel,
    ) -> Result<(Vec<u8>, u64), ckpt_storage::StorageError> {
        self.0.lock().load(key, cost)
    }
    fn delete(&mut self, key: &str) -> Result<(), ckpt_storage::StorageError> {
        self.0.lock().delete(key)
    }
    fn list(&self) -> Vec<String> {
        self.0.lock().list()
    }
    fn available(&self) -> bool {
        self.0.lock().available()
    }
    fn used_bytes(&self) -> u64 {
        self.0.lock().used_bytes()
    }
    fn on_node_failure(&mut self) {
        self.0.lock().on_node_failure()
    }
    fn on_node_repair(&mut self) {
        self.0.lock().on_node_repair()
    }
    fn on_power_down(&mut self) {
        self.0.lock().on_power_down()
    }
    fn replica_manifest(&self, key: &str) -> Option<ckpt_storage::ReplicaManifest> {
        self.0.lock().replica_manifest(key)
    }
}
