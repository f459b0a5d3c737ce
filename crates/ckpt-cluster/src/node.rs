//! A cluster node: one simulated kernel plus its storage media.

use ckpt_core::{shared_storage, SharedStorage};
use ckpt_storage::{LocalDisk, RamStore, SwapStore};
use simos::cost::CostModel;
use simos::Kernel;

/// Node identifier within a cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// One machine in the cluster.
pub struct Node {
    pub(crate) id: NodeId,
    /// The node's kernel; `None` while the node is down (fail-stop: the
    /// machine and everything volatile on it is gone).
    kernel: Option<Kernel>,
    pub(crate) local_disk: SharedStorage,
    pub(crate) swap: SharedStorage,
    pub(crate) ram_store: SharedStorage,
    pub remote: SharedStorage,
    /// Fail-stop events experienced.
    pub(crate) failures: u64,
    cost: CostModel,
}

impl Node {
    /// Build a node whose remote stable-storage handle is supplied by the
    /// caller — e.g. a per-node [`ckpt_replica::ReplicatedStore`] client
    /// over a cluster-shared replica set.
    pub(crate) fn with_remote(id: NodeId, cost: CostModel, remote: SharedStorage) -> Self {
        Node {
            id,
            kernel: Some(Kernel::new(cost.clone())),
            local_disk: shared_storage(LocalDisk::new(1 << 34)),
            swap: shared_storage(SwapStore::new(1 << 33)),
            ram_store: shared_storage(RamStore::new(1 << 32)),
            remote,
            failures: 0,
            cost,
        }
    }

    pub(crate) fn alive(&self) -> bool {
        self.kernel.is_some()
    }

    /// Access the kernel; `None` while down.
    pub fn kernel(&mut self) -> Option<&mut Kernel> {
        self.kernel.as_mut()
    }

    /// Public for ckptbench (`benchmark/src/cluster.rs`).
    pub fn kernel_ref(&self) -> Option<&Kernel> {
        self.kernel.as_ref()
    }

    /// Fail-stop: the kernel (and every process on it) is gone; volatile
    /// storage is lost; non-volatile local media become unreachable.
    pub(crate) fn fail(&mut self) {
        if self.kernel.take().is_none() {
            return;
        }
        self.failures += 1;
        self.local_disk.lock().on_node_failure();
        self.swap.lock().on_node_failure();
        self.ram_store.lock().on_node_failure();
        self.remote.lock().on_node_failure();
    }

    /// Bring the node back with a fresh kernel advanced to the cluster's
    /// current virtual time.
    pub(crate) fn repair(&mut self, now_ns: u64) {
        if self.alive() {
            return;
        }
        self.local_disk.lock().on_node_repair();
        self.swap.lock().on_node_repair();
        self.ram_store.lock().on_node_repair();
        self.remote.lock().on_node_repair();
        let mut k = Kernel::new(self.cost.clone());
        let _ = k.run_for(now_ns);
        self.kernel = Some(k);
    }

    /// Current virtual time of this node's kernel (0 when down).
    pub fn now(&self) -> u64 {
        self.kernel_ref().map(|k| k.now()).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ckpt_storage::{RemoteServer, RemoteStore};
    use simos::apps::{AppParams, NativeKind};

    fn node() -> Node {
        let remote = RemoteStore::new(RemoteServer::new(1 << 30));
        Node::with_remote(NodeId(0), CostModel::circa_2005(), shared_storage(remote))
    }

    #[test]
    fn failure_kills_kernel_and_volatile_storage() {
        let mut n = node();
        let pid = n
            .kernel()
            .unwrap()
            .spawn_native(NativeKind::SparseRandom, AppParams::small())
            .unwrap();
        n.ram_store
            .lock()
            .store("k", b"v", &CostModel::circa_2005())
            .unwrap();
        n.local_disk
            .lock()
            .store("k", b"v", &CostModel::circa_2005())
            .unwrap();
        n.fail();
        assert!(n.kernel().is_none());
        assert!(!n.alive());
        assert!(!n.local_disk.lock().available());
        n.repair(1_000_000);
        assert!(n.alive());
        // Processes are gone; disk data survived; RAM data did not.
        assert!(n.kernel().unwrap().process(pid).is_none());
        assert_eq!(
            n.local_disk
                .lock()
                .load("k", &CostModel::circa_2005())
                .unwrap()
                .0,
            b"v"
        );
        assert!(n
            .ram_store
            .lock()
            .load("k", &CostModel::circa_2005())
            .is_err());
        // Kernel clock resynchronized.
        assert!(n.now() >= 1_000_000);
    }

    #[test]
    fn double_fail_is_idempotent() {
        let mut n = node();
        n.fail();
        n.fail();
        assert_eq!(n.failures, 1);
    }
}
