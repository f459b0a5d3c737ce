//! `Timed<S>`: the storage decorator the traced run puts at every stack
//! seam (engine → dedup → replicated / erasure / remote).
//!
//! Each forwarded call is one span named after the tier, so a tier's self
//! time is its span minus the span of the tier below. The decorator also
//! counts operations at its seam, keeps the wrapped store reachable through
//! a typed handle (the stores' own `stats()` are not on the trait), and can
//! keep a copy of the payloads it saw so sealed kernels are replayed on the
//! very bytes the tier handled.

use crate::span::Recorder;
use ckpt_storage::{
    BatchReceipt, ReplicaManifest, StableStorage, StorageClass, StorageError, StoreReceipt,
};
use simos::cost::CostModel;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Which tier a decorator stands in front of; fixes its span names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// A single-copy medium (`RemoteStore`).
    Media,
    Cas,
    Replica,
    Ec,
}

impl Tier {
    /// Span names for store, load, delete, list and store_batch.
    fn names(self) -> [&'static str; 5] {
        match self {
            Tier::Media => [
                "media.store",
                "media.load",
                "media.delete",
                "media.list",
                "media.batch",
            ],
            Tier::Cas => [
                "cas.store",
                "cas.load",
                "cas.delete",
                "cas.list",
                "cas.batch",
            ],
            Tier::Replica => [
                "replica.store",
                "replica.load",
                "replica.delete",
                "replica.list",
                "replica.batch",
            ],
            Tier::Ec => ["ec.store", "ec.load", "ec.delete", "ec.list", "ec.batch"],
        }
    }
}

/// Operations and bytes that crossed one seam, as plain numbers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub store_ops: u64,
    pub store_bytes: u64,
    pub load_ops: u64,
    pub load_bytes: u64,
    pub delete_ops: u64,
    pub list_ops: u64,
}

impl Counts {
    /// Counter delta (`self` taken after `earlier`).
    pub fn since(self, earlier: Counts) -> Counts {
        Counts {
            store_ops: self.store_ops - earlier.store_ops,
            store_bytes: self.store_bytes - earlier.store_bytes,
            load_ops: self.load_ops - earlier.load_ops,
            load_bytes: self.load_bytes - earlier.load_bytes,
            delete_ops: self.delete_ops - earlier.delete_ops,
            list_ops: self.list_ops - earlier.list_ops,
        }
    }
}

/// The live counters behind [`Counts`].
#[derive(Debug, Default)]
pub struct SeamCounts {
    store_ops: AtomicU64,
    store_bytes: AtomicU64,
    load_ops: AtomicU64,
    load_bytes: AtomicU64,
    delete_ops: AtomicU64,
    list_ops: AtomicU64,
}

impl SeamCounts {
    pub fn get(&self) -> Counts {
        let read = |c: &AtomicU64| c.load(Ordering::Relaxed);
        Counts {
            store_ops: read(&self.store_ops),
            store_bytes: read(&self.store_bytes),
            load_ops: read(&self.load_ops),
            load_bytes: read(&self.load_bytes),
            delete_ops: read(&self.delete_ops),
            list_ops: read(&self.list_ops),
        }
    }
}

/// Payload copies for replay. While armed, each store's bytes are copied
/// (inside a `trace.sample` span, so the copy is never charged to a layer)
/// until [`Sampler::BUDGET`] bytes are held.
#[derive(Debug, Default)]
pub struct Sampler {
    armed: AtomicBool,
    pieces: Mutex<Vec<Vec<u8>>>,
}

impl Sampler {
    const BUDGET: usize = 1 << 20;

    /// Drop what is held and start copying again.
    pub fn arm(&self) {
        self.pieces.lock().expect("sampler lock").clear();
        self.armed.store(true, Ordering::Relaxed);
    }

    /// The payloads copied since the last [`Sampler::arm`].
    pub fn take(&self) -> Vec<Vec<u8>> {
        self.armed.store(false, Ordering::Relaxed);
        std::mem::take(&mut *self.pieces.lock().expect("sampler lock"))
    }

    fn offer(&self, data: &[u8]) {
        let mut p = self.pieces.lock().expect("sampler lock");
        p.push(data.to_vec());
        if p.iter().map(Vec::len).sum::<usize>() >= Self::BUDGET {
            self.armed.store(false, Ordering::Relaxed);
        }
    }
}

/// What a decorator shares with the benchmark: the wrapped store (typed,
/// for its inherent `stats()`), the seam's counters and its sampler.
pub struct Seam<S> {
    pub store: Arc<Mutex<S>>,
    pub counts: Arc<SeamCounts>,
    pub sampler: Arc<Sampler>,
}

impl<S> Clone for Seam<S> {
    fn clone(&self) -> Self {
        Seam {
            store: self.store.clone(),
            counts: self.counts.clone(),
            sampler: self.sampler.clone(),
        }
    }
}

/// See the module docs.
pub struct Timed<S> {
    names: [&'static str; 5],
    rec: Arc<Recorder>,
    seam: Seam<S>,
}

impl<S: StableStorage> Timed<S> {
    pub fn new(tier: Tier, inner: S, rec: Arc<Recorder>) -> Self {
        Timed {
            names: tier.names(),
            rec,
            seam: Seam {
                store: Arc::new(Mutex::new(inner)),
                counts: Arc::default(),
                sampler: Arc::default(),
            },
        }
    }

    /// Handles that outlive the decorator's move into the stack.
    pub fn seam(&self) -> Seam<S> {
        self.seam.clone()
    }

    fn inner(&self) -> MutexGuard<'_, S> {
        self.seam.store.lock().expect("a storage tier panicked")
    }
}

impl<S: StableStorage> StableStorage for Timed<S> {
    fn class(&self) -> StorageClass {
        self.inner().class()
    }

    fn label(&self) -> String {
        self.inner().label()
    }

    fn store(
        &mut self,
        key: &str,
        data: &[u8],
        cost: &CostModel,
    ) -> Result<StoreReceipt, StorageError> {
        if self.seam.sampler.armed.load(Ordering::Relaxed) {
            self.rec
                .time("trace.sample", || self.seam.sampler.offer(data));
        }
        self.seam.counts.store_ops.fetch_add(1, Ordering::Relaxed);
        self.seam
            .counts
            .store_bytes
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        self.rec
            .time(self.names[0], || self.inner().store(key, data, cost))
    }

    fn load(&self, key: &str, cost: &CostModel) -> Result<(Vec<u8>, u64), StorageError> {
        self.seam.counts.load_ops.fetch_add(1, Ordering::Relaxed);
        let out = self
            .rec
            .time(self.names[1], || self.inner().load(key, cost));
        if let Ok((bytes, _)) = &out {
            self.seam
                .counts
                .load_bytes
                .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        }
        out
    }

    fn delete(&mut self, key: &str) -> Result<(), StorageError> {
        self.seam.counts.delete_ops.fetch_add(1, Ordering::Relaxed);
        self.rec.time(self.names[2], || self.inner().delete(key))
    }

    fn list(&self) -> Vec<String> {
        self.seam.counts.list_ops.fetch_add(1, Ordering::Relaxed);
        self.rec.time(self.names[3], || self.inner().list())
    }

    fn available(&self) -> bool {
        self.inner().available()
    }

    fn used_bytes(&self) -> u64 {
        self.inner().used_bytes()
    }

    fn on_node_failure(&mut self) {
        self.inner().on_node_failure()
    }

    fn on_node_repair(&mut self) {
        self.inner().on_node_repair()
    }

    fn on_power_down(&mut self) {
        self.inner().on_power_down()
    }

    fn replica_manifest(&self, key: &str) -> Option<ReplicaManifest> {
        self.inner().replica_manifest(key)
    }

    fn store_batch(
        &mut self,
        objects: &[(&str, &[u8])],
        cost: &CostModel,
    ) -> Result<BatchReceipt, StorageError> {
        self.rec
            .time(self.names[4], || self.inner().store_batch(objects, cost))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ckpt_storage::RamStore;

    /// A tier that does nothing itself but forwards to the tier below, the
    /// way `DedupStore` forwards chunks to its backing store.
    struct Forward(Box<dyn StableStorage>);

    impl StableStorage for Forward {
        fn class(&self) -> StorageClass {
            self.0.class()
        }
        fn label(&self) -> String {
            self.0.label()
        }
        fn store(
            &mut self,
            key: &str,
            data: &[u8],
            cost: &CostModel,
        ) -> Result<StoreReceipt, StorageError> {
            std::thread::sleep(std::time::Duration::from_millis(2));
            let (a, b) = data.split_at(data.len() / 2);
            self.0.store(&format!("{key}/a"), a, cost)?;
            self.0.store(&format!("{key}/b"), b, cost)
        }
        fn load(&self, key: &str, cost: &CostModel) -> Result<(Vec<u8>, u64), StorageError> {
            self.0.load(key, cost)
        }
        fn delete(&mut self, key: &str) -> Result<(), StorageError> {
            self.0.delete(key)
        }
        fn list(&self) -> Vec<String> {
            self.0.list()
        }
        fn available(&self) -> bool {
            true
        }
        fn used_bytes(&self) -> u64 {
            self.0.used_bytes()
        }
        fn on_node_failure(&mut self) {}
        fn on_node_repair(&mut self) {}
        fn on_power_down(&mut self) {}
    }

    #[test]
    fn nested_tiers_subtract_to_self_time() {
        let rec = Arc::new(Recorder::new());
        let low = Timed::new(Tier::Replica, RamStore::new(1 << 20), rec.clone());
        let Seam {
            counts: low_counts,
            sampler,
            ..
        } = low.seam();
        sampler.arm();
        let mut top = Timed::new(Tier::Cas, Forward(Box::new(low)), rec.clone());
        let cost = CostModel::circa_2005();
        top.store("k", &[7u8; 64], &cost).unwrap();
        assert_eq!(top.list().len(), 2);

        let spans = rec.spans();
        let cas = spans.iter().position(|s| s.name == "cas.store").unwrap() as u32;
        let below: Vec<_> = spans.iter().filter(|s| s.name == "replica.store").collect();
        assert_eq!(below.len(), 2);
        assert!(below.iter().all(|s| s.parent == Some(cas)));

        let t = crate::span::totals(&rec.spans(), 0);
        let (cas_t, rep_t) = (t["cas.store"], t["replica.store"]);
        let samples = t["trace.sample"].total_s;
        assert!(cas_t.self_s >= 0.002, "the tier's own 2 ms stays with it");
        assert!(
            (cas_t.total_s - cas_t.self_s - rep_t.total_s - samples).abs() < 1e-9,
            "span minus child spans is self time"
        );
        assert_eq!(low_counts.get().store_ops, 2);
        assert_eq!(low_counts.get().store_bytes, 64);
        assert_eq!(top.seam().counts.get().list_ops, 1);
        let pieces = sampler.take();
        assert_eq!(pieces.iter().map(Vec::len).sum::<usize>(), 64);
    }
}
