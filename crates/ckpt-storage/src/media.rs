//! Concrete storage media: one node-local medium parameterised by its
//! [`StorageClass`] (RAM, local disk, swap partition, NVRAM), and a shared
//! remote store. What a medium is called, what a transfer costs and what a
//! failure event does to it all follow from the class.

use crate::backend::{StableStorage, StorageClass, StorageError, StoreReceipt};
use parking_lot::Mutex;
use simos::cost::CostModel;
use simos::types::SimResult;
use simos::Relink;
use std::collections::BTreeMap;
use std::marker::PhantomData;
use std::sync::Arc;

/// Keyed byte objects under a capacity: what every medium holds.
#[derive(Debug, Default, Clone)]
struct Shelf {
    objects: BTreeMap<String, Vec<u8>>,
    capacity: u64,
}

impl Shelf {
    fn new(capacity: u64) -> Self {
        Shelf {
            objects: BTreeMap::new(),
            capacity,
        }
    }

    /// Store `data` as a transfer on a `class` medium; replacing an object
    /// reuses its space.
    fn put(
        &mut self,
        class: StorageClass,
        key: &str,
        data: &[u8],
        cost: &CostModel,
    ) -> Result<StoreReceipt, StorageError> {
        let replaced = self.objects.get(key).map(|v| v.len() as u64).unwrap_or(0);
        let need = data.len() as u64;
        let free = self.capacity.saturating_sub(self.used() - replaced);
        if need > free {
            return Err(StorageError::NoSpace { need, free });
        }
        self.objects.insert(key.to_string(), data.to_vec());
        Ok(StoreReceipt {
            key: key.to_string(),
            bytes: need,
            time_ns: class.transfer_ns(data.len(), cost),
        })
    }

    fn get(
        &self,
        class: StorageClass,
        key: &str,
        cost: &CostModel,
    ) -> Result<(Vec<u8>, u64), StorageError> {
        let data = self
            .objects
            .get(key)
            .ok_or_else(|| StorageError::NotFound(key.into()))?
            .clone();
        let t = class.transfer_ns(data.len(), cost);
        Ok((data, t))
    }

    fn remove(&mut self, key: &str) -> Result<(), StorageError> {
        self.objects
            .remove(key)
            .map(|_| ())
            .ok_or_else(|| StorageError::NotFound(key.into()))
    }

    fn keys(&self) -> Vec<String> {
        self.objects.keys().cloned().collect()
    }

    fn used(&self) -> u64 {
        self.objects.values().map(|v| v.len() as u64).sum()
    }
}

fn reachable(available: bool) -> Result<(), StorageError> {
    if available {
        Ok(())
    } else {
        Err(StorageError::Unavailable)
    }
}

/// Names a node-local [`StorageClass`] at the type level, so each medium
/// keeps a constructor of its own (`LocalDisk::new(capacity)`).
pub trait NodeClass: Send + std::fmt::Debug + 'static {
    const CLASS: StorageClass;
}

/// Marker for [`StorageClass::Ram`].
#[derive(Debug)]
pub struct Ram;
/// Marker for [`StorageClass::LocalDisk`].
#[derive(Debug)]
pub struct Disk;
/// Marker for [`StorageClass::Swap`].
#[derive(Debug)]
pub struct Swap;
/// Marker for [`StorageClass::Nvram`].
#[derive(Debug)]
pub struct Nvram;

impl NodeClass for Ram {
    const CLASS: StorageClass = StorageClass::Ram;
}
impl NodeClass for Disk {
    const CLASS: StorageClass = StorageClass::LocalDisk;
}
impl NodeClass for Swap {
    const CLASS: StorageClass = StorageClass::Swap;
}
impl NodeClass for Nvram {
    const CLASS: StorageClass = StorageClass::Nvram;
}

/// A medium on the node itself. A fail-stop makes it unreachable until the
/// node is repaired and — the power being cut — destroys its contents if
/// the class is volatile; a planned power-down destroys volatile contents
/// and leaves reachability alone (the medium comes back with the machine).
#[derive(Debug)]
pub struct NodeMedium<C: NodeClass> {
    shelf: Shelf,
    available: bool,
    class: PhantomData<C>,
}

/// RAM-backed store on the node itself. Fast, but lost on node failure
/// *and* on power-down — the "standby" flavour of Software Suspend.
pub type RamStore = NodeMedium<Ram>;
/// The node's local disk: seek latency + streaming bandwidth. Survives
/// power-down; unreachable (but intact) while the node is failed.
pub type LocalDisk = NodeMedium<Disk>;
/// The swap partition: contiguous, one seek regardless of size — where
/// Software Suspend puts the RAM image.
pub type SwapStore = NodeMedium<Swap>;
/// Battery-backed NVRAM on the node's memory bus: RAM-class transfer speed
/// (modelled at half DRAM bandwidth for the battery-backed write path, no
/// seek), survives power-down, but — like the local disk — is unreachable
/// while the node is failed, with contents intact after repair.
pub type NvramStore = NodeMedium<Nvram>;

impl<C: NodeClass> NodeMedium<C> {
    pub fn new(capacity: u64) -> Self {
        NodeMedium {
            shelf: Shelf::new(capacity),
            available: true,
            class: PhantomData,
        }
    }
}

impl<C: NodeClass> StableStorage for NodeMedium<C> {
    fn class(&self) -> StorageClass {
        C::CLASS
    }
    fn label(&self) -> String {
        C::CLASS.label().into()
    }
    fn store(
        &mut self,
        key: &str,
        data: &[u8],
        cost: &CostModel,
    ) -> Result<StoreReceipt, StorageError> {
        reachable(self.available)?;
        self.shelf.put(C::CLASS, key, data, cost)
    }
    fn load(&self, key: &str, cost: &CostModel) -> Result<(Vec<u8>, u64), StorageError> {
        reachable(self.available)?;
        self.shelf.get(C::CLASS, key, cost)
    }
    fn delete(&mut self, key: &str) -> Result<(), StorageError> {
        reachable(self.available)?;
        self.shelf.remove(key)
    }
    fn list(&self) -> Vec<String> {
        if !self.available {
            return vec![];
        }
        self.shelf.keys()
    }
    fn available(&self) -> bool {
        self.available
    }
    fn used_bytes(&self) -> u64 {
        self.shelf.used()
    }
    fn on_node_failure(&mut self) {
        self.on_power_down();
        self.available = false;
    }
    fn on_node_repair(&mut self) {
        self.available = true;
    }
    fn on_power_down(&mut self) {
        if C::CLASS.is_volatile() {
            self.shelf.objects.clear();
        }
    }
    fn fork(&self, _relink: &mut Relink) -> SimResult<Box<dyn StableStorage>> {
        Ok(Box::new(NodeMedium::<C> {
            shelf: self.shelf.clone(),
            available: self.available,
            class: PhantomData,
        }))
    }
}

/// The shared server behind any number of [`RemoteStore`] clients — e.g. a
/// checkpoint server or parallel filesystem reachable from every node.
#[derive(Debug, Default)]
pub struct RemoteServer {
    shelf: Mutex<Shelf>,
}

impl RemoteServer {
    pub fn new(capacity: u64) -> Arc<Self> {
        Arc::new(RemoteServer {
            shelf: Mutex::new(Shelf::new(capacity)),
        })
    }

    pub(crate) fn used_bytes(&self) -> u64 {
        self.shelf.lock().used()
    }

    pub fn keys(&self) -> Vec<String> {
        self.shelf.lock().keys()
    }
}

/// A node's client handle to a [`RemoteServer`]. Transfers pay network
/// latency + bandwidth; the data itself survives any single node's loss.
/// Network reachability is per-client (a failed node cannot reach the
/// server, but the server keeps its data).
#[derive(Debug, Clone)]
pub struct RemoteStore {
    server: Arc<RemoteServer>,
    available: bool,
}

impl RemoteStore {
    pub fn new(server: Arc<RemoteServer>) -> Self {
        RemoteStore {
            server,
            available: true,
        }
    }
}

impl StableStorage for RemoteStore {
    fn class(&self) -> StorageClass {
        StorageClass::Remote
    }
    fn label(&self) -> String {
        StorageClass::Remote.label().into()
    }
    fn store(
        &mut self,
        key: &str,
        data: &[u8],
        cost: &CostModel,
    ) -> Result<StoreReceipt, StorageError> {
        reachable(self.available)?;
        self.server
            .shelf
            .lock()
            .put(StorageClass::Remote, key, data, cost)
    }
    fn load(&self, key: &str, cost: &CostModel) -> Result<(Vec<u8>, u64), StorageError> {
        reachable(self.available)?;
        self.server
            .shelf
            .lock()
            .get(StorageClass::Remote, key, cost)
    }
    fn delete(&mut self, key: &str) -> Result<(), StorageError> {
        reachable(self.available)?;
        self.server.shelf.lock().remove(key)
    }
    fn list(&self) -> Vec<String> {
        if !self.available {
            return vec![];
        }
        self.server.keys()
    }
    fn available(&self) -> bool {
        self.available
    }
    fn used_bytes(&self) -> u64 {
        self.server.used_bytes()
    }
    fn on_node_failure(&mut self) {
        // This *client* loses connectivity; the server's data is safe.
        self.available = false;
    }
    fn on_node_repair(&mut self) {
        self.available = true;
    }
    fn on_power_down(&mut self) {}
    /// Every client of one server in the original reaches one copy of it
    /// in the fork.
    fn fork(&self, relink: &mut Relink) -> SimResult<Box<dyn StableStorage>> {
        let server = relink.shared(&self.server, |s, _| {
            Ok(Arc::new(RemoteServer {
                shelf: Mutex::new(s.shelf.lock().clone()),
            }))
        })?;
        Ok(Box::new(RemoteStore {
            server,
            available: self.available,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cost() -> CostModel {
        CostModel::circa_2005()
    }

    fn all_media() -> Vec<Box<dyn StableStorage>> {
        let server = RemoteServer::new(1 << 30);
        vec![
            Box::new(RamStore::new(1 << 30)),
            Box::new(LocalDisk::new(1 << 30)),
            Box::new(SwapStore::new(1 << 30)),
            Box::new(NvramStore::new(1 << 30)),
            Box::new(RemoteStore::new(server)),
        ]
    }

    #[test]
    fn store_load_round_trip_all_media() {
        for mut m in all_media() {
            let r = m.store("k", b"hello", &cost()).unwrap();
            assert_eq!(r.bytes, 5);
            let (data, t) = m.load("k", &cost()).unwrap();
            assert_eq!(data, b"hello");
            assert!(
                t > 0 || matches!(m.class(), StorageClass::Ram | StorageClass::Nvram)
            );
            assert_eq!(m.list(), vec!["k".to_string()]);
            m.delete("k").unwrap();
            assert!(matches!(
                m.load("k", &cost()),
                Err(StorageError::NotFound(_))
            ));
        }
    }

    #[test]
    fn disk_pays_seek_latency_remote_pays_net_latency() {
        let c = cost();
        let mut disk = LocalDisk::new(1 << 30);
        let r = disk.store("k", &[0u8; 1024], &c).unwrap();
        assert!(r.time_ns >= c.disk_latency_ns);
        let mut remote = RemoteStore::new(RemoteServer::new(1 << 30));
        let r = remote.store("k", &[0u8; 1024], &c).unwrap();
        assert!(r.time_ns >= c.net_latency_ns);
        assert!(r.time_ns < c.disk_latency_ns, "2005 network beats a disk seek");
    }

    #[test]
    fn large_transfer_remote_beats_local_disk_in_2005() {
        // The feasibility point of [31]: with a 250 MB/s interconnect and a
        // 50 MB/s disk, remote checkpointing is faster than local.
        let c = cost();
        let data = vec![1u8; 16 << 20];
        let mut disk = LocalDisk::new(1 << 30);
        let mut remote = RemoteStore::new(RemoteServer::new(1 << 30));
        let td = disk.store("k", &data, &c).unwrap().time_ns;
        let tr = remote.store("k", &data, &c).unwrap().time_ns;
        assert!(tr < td);
    }

    #[test]
    fn node_failure_semantics() {
        let server = RemoteServer::new(1 << 30);
        let mut ram = RamStore::new(1 << 30);
        let mut disk = LocalDisk::new(1 << 30);
        let mut remote = RemoteStore::new(server.clone());
        let c = cost();
        ram.store("k", b"x", &c).unwrap();
        disk.store("k", b"x", &c).unwrap();
        remote.store("k", b"x", &c).unwrap();

        ram.on_node_failure();
        disk.on_node_failure();
        remote.on_node_failure();

        // Everything unreachable while the node is down.
        assert!(matches!(ram.load("k", &c), Err(StorageError::Unavailable)));
        assert!(matches!(disk.load("k", &c), Err(StorageError::Unavailable)));
        assert!(matches!(
            remote.load("k", &c),
            Err(StorageError::Unavailable)
        ));
        // But the remote server still has the object — another node's
        // client can fetch it (the whole point of remote checkpointing).
        let other = RemoteStore::new(server);
        assert_eq!(other.load("k", &c).unwrap().0, b"x");

        ram.on_node_repair();
        disk.on_node_repair();
        // RAM contents were lost; disk contents survive the outage.
        assert!(matches!(ram.load("k", &c), Err(StorageError::NotFound(_))));
        assert_eq!(disk.load("k", &c).unwrap().0, b"x");
    }

    #[test]
    fn power_down_semantics() {
        let c = cost();
        let mut ram = RamStore::new(1 << 30);
        let mut swap = SwapStore::new(1 << 30);
        ram.store("k", b"x", &c).unwrap();
        swap.store("k", b"x", &c).unwrap();
        ram.on_power_down();
        swap.on_power_down();
        assert!(matches!(ram.load("k", &c), Err(StorageError::NotFound(_))));
        assert_eq!(swap.load("k", &c).unwrap().0, b"x", "hibernation image survives");
    }

    /// Every media class must honor the failure-event contract implied by
    /// its [`StorageClass`]: node failure makes the medium unreachable and
    /// destroys volatile contents; repair restores reachability with
    /// non-volatile contents intact; power-down destroys volatile contents
    /// only and never changes availability.
    #[test]
    fn failure_event_semantics_per_media_class() {
        let c = cost();
        for mut m in all_media() {
            let class = m.class();
            let label = m.label();

            // --- power-down: availability unchanged, volatile data gone.
            m.store("k", b"x", &c).unwrap();
            m.on_power_down();
            assert!(m.available(), "{label}: power-down must not mark unavailable");
            let after_pd = m.load("k", &c);
            if class.survives_power_down() {
                assert_eq!(after_pd.unwrap().0, b"x", "{label}: lost data on power-down");
            } else {
                assert!(
                    matches!(after_pd, Err(StorageError::NotFound(_))),
                    "{label}: volatile medium kept data across power-down"
                );
            }

            // --- node failure: unreachable while down...
            m.store("k", b"x", &c).unwrap();
            m.on_node_failure();
            assert!(!m.available(), "{label}: node failure must mark unavailable");
            assert!(
                matches!(m.load("k", &c), Err(StorageError::Unavailable)),
                "{label}: load must fail Unavailable while the node is down"
            );
            assert!(m.list().is_empty(), "{label}: list must be empty while down");

            // --- ...and after repair, contents survive iff non-volatile.
            m.on_node_repair();
            assert!(m.available(), "{label}: repair must restore availability");
            let after_repair = m.load("k", &c);
            if class.is_volatile() {
                assert!(
                    matches!(after_repair, Err(StorageError::NotFound(_))),
                    "{label}: volatile medium kept data across node failure"
                );
            } else {
                assert_eq!(
                    after_repair.unwrap().0,
                    b"x",
                    "{label}: non-volatile medium lost data across the outage"
                );
            }
        }
    }

    #[test]
    fn nvram_is_ram_speed_class_not_disk() {
        let c = cost();
        let mut nv = NvramStore::new(1 << 30);
        let mut disk = LocalDisk::new(1 << 30);
        let data = vec![7u8; 1 << 20];
        let tn = nv.store("k", &data, &c).unwrap().time_ns;
        let td = disk.store("k", &data, &c).unwrap().time_ns;
        assert!(tn < td, "NVRAM must beat the disk (no seek, bus bandwidth)");
        // Survives power-down without so much as a blip in availability.
        nv.on_power_down();
        assert_eq!(nv.load("k", &c).unwrap().0, data);
    }

    #[test]
    fn capacity_enforced_and_replacement_accounted() {
        let c = cost();
        let mut disk = LocalDisk::new(10);
        disk.store("a", &[1u8; 6], &c).unwrap();
        assert!(matches!(
            disk.store("b", &[1u8; 6], &c),
            Err(StorageError::NoSpace { .. })
        ));
        // Replacing an object reuses its space.
        disk.store("a", &[2u8; 8], &c).unwrap();
        assert_eq!(disk.used_bytes(), 8);
    }

    #[test]
    fn remote_clients_share_one_server() {
        let server = RemoteServer::new(1 << 30);
        let mut a = RemoteStore::new(server.clone());
        let b = RemoteStore::new(server);
        a.store("k", b"shared", &cost()).unwrap();
        assert_eq!(b.load("k", &cost()).unwrap().0, b"shared");
    }
}
