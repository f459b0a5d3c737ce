//! A fault-injecting decorator over any [`StableStorage`] backend.
//!
//! [`FaultInjectStore`] wraps a real medium and consults a shared
//! [`FaultHandle`] at every `store`/`load`, exposing the byte-level sites
//! the crash matrix arms:
//!
//! * `storage/<label>/store@<n>` — the n-th store on the medium. A
//!   [`Fault::TornWrite`] here persists only the first `keep_bytes` of the
//!   payload and then kills the node (the write was cut short by the
//!   crash); fail-stop kills the node before any byte lands; transient
//!   fails the one operation with [`StorageError::Transient`].
//! * `storage/<label>/load@<n>` — the n-th load. Torn writes make no sense
//!   on the read path, so any armed fault other than transient behaves as
//!   a fail-stop.
//!
//! When the handle is disabled (the default everywhere), each operation
//! adds one relaxed atomic load and then forwards — modelled costs and
//! stored bytes are untouched, so golden outputs cannot move.

use crate::backend::{ReplicaManifest, StableStorage, StorageClass, StorageError, StoreReceipt};
use simos::cost::CostModel;
use simos::faultpoint::{Fault, FaultHandle};
use simos::types::SimResult;
use simos::Relink;

/// Decorator injecting faults into a wrapped backend. See the module docs.
pub struct FaultInjectStore {
    inner: Box<dyn StableStorage>,
    faults: FaultHandle,
}

impl FaultInjectStore {
    pub fn new(inner: Box<dyn StableStorage>, faults: FaultHandle) -> Self {
        FaultInjectStore { inner, faults }
    }
}

impl StableStorage for FaultInjectStore {
    fn class(&self) -> StorageClass {
        self.inner.class()
    }
    fn label(&self) -> String {
        self.inner.label()
    }
    fn store(
        &mut self,
        key: &str,
        data: &[u8],
        cost: &CostModel,
    ) -> Result<StoreReceipt, StorageError> {
        if !self.faults.is_off() {
            if self.faults.node_crashed() {
                return Err(StorageError::Unavailable);
            }
            let base = format!("storage/{}/store", self.inner.label());
            match self.faults.check(&base, data.len() as u64) {
                Some(Fault::Transient) => return Err(StorageError::Transient),
                Some(Fault::FailStop) => return Err(StorageError::Unavailable),
                Some(Fault::TornWrite { keep_bytes }) => {
                    // The crash truncates the write: persist the prefix,
                    // then the node dies. The caller never learns the key —
                    // the torn object is what restart must cope with.
                    let keep = (keep_bytes as usize).min(data.len());
                    let _ = self.inner.store(key, &data[..keep], cost);
                    self.faults.set_crashed();
                    return Err(StorageError::Unavailable);
                }
                None => {}
            }
        }
        self.inner.store(key, data, cost)
    }
    fn load(&self, key: &str, cost: &CostModel) -> Result<(Vec<u8>, u64), StorageError> {
        if !self.faults.is_off() {
            if self.faults.node_crashed() {
                return Err(StorageError::Unavailable);
            }
            let base = format!("storage/{}/load", self.inner.label());
            match self.faults.check(&base, 0) {
                Some(Fault::Transient) => return Err(StorageError::Transient),
                Some(_) => {
                    // Fail-stop (torn has no read-path meaning): node dies.
                    self.faults.set_crashed();
                    return Err(StorageError::Unavailable);
                }
                None => {}
            }
        }
        self.inner.load(key, cost)
    }
    fn delete(&mut self, key: &str) -> Result<(), StorageError> {
        if !self.faults.is_off() && self.faults.node_crashed() {
            return Err(StorageError::Unavailable);
        }
        self.inner.delete(key)
    }
    fn list(&self) -> Vec<String> {
        if !self.faults.is_off() && self.faults.node_crashed() {
            return vec![];
        }
        self.inner.list()
    }
    fn available(&self) -> bool {
        if !self.faults.is_off() && self.faults.node_crashed() {
            return false;
        }
        self.inner.available()
    }
    fn used_bytes(&self) -> u64 {
        self.inner.used_bytes()
    }
    fn on_node_failure(&mut self) {
        self.inner.on_node_failure();
    }
    fn on_node_repair(&mut self) {
        self.inner.on_node_repair();
    }
    fn on_power_down(&mut self) {
        self.inner.on_power_down();
    }
    fn replica_manifest(&self, key: &str) -> Option<ReplicaManifest> {
        self.inner.replica_manifest(key)
    }
    fn fork(&self, relink: &mut Relink) -> SimResult<Box<dyn StableStorage>> {
        Ok(Box::new(FaultInjectStore {
            inner: self.inner.fork(relink)?,
            faults: relink.faults().clone(),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::media::LocalDisk;

    fn cost() -> CostModel {
        CostModel::circa_2005()
    }

    fn disk_with(faults: FaultHandle) -> FaultInjectStore {
        FaultInjectStore::new(Box::new(LocalDisk::new(1 << 30)), faults)
    }

    #[test]
    fn disabled_handle_is_transparent() {
        let mut s = disk_with(FaultHandle::disabled());
        let r = s.store("k", b"abc", &cost()).unwrap();
        assert_eq!(r.bytes, 3);
        assert_eq!(s.load("k", &cost()).unwrap().0, b"abc");
        assert_eq!(s.label(), "local-disk");
        assert_eq!(s.class(), StorageClass::LocalDisk);
    }

    #[test]
    fn recording_enumerates_store_and_load_sites_with_sizes() {
        let h = FaultHandle::recording();
        let mut s = disk_with(h.clone());
        s.store("a", &[0u8; 100], &cost()).unwrap();
        s.store("b", &[0u8; 200], &cost()).unwrap();
        s.load("a", &cost()).unwrap();
        let sites = h.sites();
        let names: Vec<&str> = sites.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "storage/local-disk/store@1",
                "storage/local-disk/store@2",
                "storage/local-disk/load@1"
            ]
        );
        assert_eq!(sites[1].bytes, 200);
    }

    #[test]
    fn torn_write_persists_prefix_and_crashes_the_node() {
        let h = FaultHandle::armed(
            "storage/local-disk/store@1",
            Fault::TornWrite { keep_bytes: 4 },
        );
        let mut s = disk_with(h.clone());
        let err = s.store("k", b"abcdefgh", &cost()).unwrap_err();
        assert_eq!(err, StorageError::Unavailable);
        assert!(h.node_crashed());
        // After "repair", the torn prefix is what the medium holds.
        h.clear_crash();
        assert_eq!(s.load("k", &cost()).unwrap().0, b"abcd");
    }

    #[test]
    fn transient_fault_fails_once_then_recovers() {
        let h = FaultHandle::armed("storage/local-disk/store@1", Fault::Transient);
        let mut s = disk_with(h.clone());
        assert_eq!(
            s.store("k", b"abc", &cost()).unwrap_err(),
            StorageError::Transient
        );
        assert!(!h.node_crashed());
        s.store("k", b"abc", &cost()).unwrap();
        assert_eq!(s.load("k", &cost()).unwrap().0, b"abc");
    }

    #[test]
    fn crashed_node_refuses_all_io() {
        let h = FaultHandle::armed("storage/local-disk/store@1", Fault::FailStop);
        let mut s = disk_with(h.clone());
        assert_eq!(
            s.store("k", b"abc", &cost()).unwrap_err(),
            StorageError::Unavailable
        );
        assert!(h.node_crashed());
        assert_eq!(s.load("k", &cost()).unwrap_err(), StorageError::Unavailable);
        assert!(!s.available());
        assert!(s.list().is_empty());
    }
}
