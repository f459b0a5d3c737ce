//! A striped pool: K independent quorum sets behind one
//! [`StableStorage`] facade.
//!
//! A single [`ReplicaSet`] serializes every commit in the cluster behind
//! one set of N nodes — at thousands of ranks per round the storage pool,
//! not the coordinator, becomes the bottleneck. Striping splits the key
//! space across K *independent* quorum sets (each its own nodes, its own
//! write quorum, its own faultpoint namespace), so commits to different
//! stripes proceed in parallel in virtual time: a batched round's commit
//! cost is the *maximum* stripe time, not the sum.
//!
//! The router is written once, over a [`QuorumStore`] of any [`Coding`]:
//! [`StripedStore`] stripes quorum-replicated sets
//! (`stripe<j>/r<i>/<op>` sites), `ckpt_ec::EcStripedStore` stripes
//! erasure-coded shard groups (`ecstripe<j>/s<i>/<op>`).
//!
//! ## Stripe mapping
//!
//! Routing is by [`ObjectKey`] hash and is deliberately lineage-stable:
//!
//! * `Image` keys route by FNV-1a of the `job/pid<pid>/` lineage prefix,
//!   so every sequence number of a rank's chain lives on ONE stripe and a
//!   chain load never fans across stripes;
//! * `Chunk` keys route by their content digest (already a hash);
//! * anything else routes by FNV-1a of the whole key.
//!
//! Damage is therefore contained by construction: losing a stripe's quorum
//! takes out exactly the lineages mapped to it — objects on healthy
//! stripes stay readable, and a read of a damaged lineage gets the
//! member's typed refusal ([`StorageError::QuorumLost`] or
//! [`StorageError::TooManyShardsLost`]), never bytes from a neighbouring
//! stripe.

use std::sync::Arc;

use ckpt_par::Pool;
use ckpt_storage::{
    fnv1a64, BatchReceipt, ObjectKey, ReplicaManifest, StableStorage, StorageClass, StorageError,
    StoreReceipt,
};
use simos::cost::CostModel;
use simos::faultpoint::FaultHandle;
use simos::trace::TraceHandle;
use simos::types::SimResult;
use simos::Relink;

use crate::node::ReplicaSet;
use crate::store::{Coding, QuorumStore, Replicate};

/// Which stripe a key lives on: lineage hash for images, content digest
/// for chunks, whole-key hash otherwise. Pure and total — every client
/// and every restart computes the same mapping.
pub fn stripe_route(key: &str, stripes: usize) -> usize {
    debug_assert!(stripes > 0);
    let h = match ObjectKey::parse(key) {
        ObjectKey::Image(ik) => fnv1a64(ik.lineage().as_bytes()),
        ObjectKey::Chunk { digest } => digest,
        _ => fnv1a64(key.as_bytes()),
    };
    (h % stripes as u64) as usize
}

/// K independent [`ReplicaSet`]s. Shared (`Arc`) across every client
/// handle the same way a single set is.
pub struct StripedReplicaSet {
    stripes: Vec<Arc<ReplicaSet>>,
}

impl StripedReplicaSet {
    /// `k` stripes of `n` nodes each.
    pub fn new(k: usize, n: usize) -> Arc<Self> {
        assert!(k >= 1, "need at least one stripe");
        Arc::new(StripedReplicaSet {
            stripes: (0..k).map(|_| ReplicaSet::new(n)).collect(),
        })
    }

    /// The fork's copy of `set`, each stripe through `relink` so the
    /// member stores' sets are the pool's in the fork too.
    pub(crate) fn fork(
        set: &Arc<StripedReplicaSet>,
        relink: &mut Relink,
    ) -> SimResult<Arc<StripedReplicaSet>> {
        relink.shared(set, |s, relink| {
            let stripes = s
                .stripes
                .iter()
                .map(|stripe| ReplicaSet::fork(stripe, relink))
                .collect::<SimResult<_>>()?;
            Ok(Arc::new(StripedReplicaSet { stripes }))
        })
    }

    pub fn width(&self) -> usize {
        self.stripes.len()
    }

    pub fn stripe(&self, j: usize) -> Arc<ReplicaSet> {
        self.stripes[j].clone()
    }

    pub fn stripes(&self) -> &[Arc<ReplicaSet>] {
        &self.stripes
    }

    /// The stripe `key` routes to.
    pub fn route(&self, key: &str) -> usize {
        stripe_route(key, self.stripes.len())
    }
}

/// One client handle over a striped pool: one member store per stripe.
///
/// Single-object stores go through the member's framed batch path (a batch
/// of one) so the crash matrix exercises the same commit machinery at
/// every object count; reads and deletes route straight to the owning
/// stripe.
pub struct Striped<C> {
    set: Arc<StripedReplicaSet>,
    stores: Vec<QuorumStore<C>>,
}

/// K independent quorum-replicated sets: sites `stripe<j>/r<i>/<op>`,
/// label `striped(KxN,w)`.
pub type StripedStore = Striped<Replicate>;

impl<C: Coding> Striped<C> {
    /// A pool over `set`, with `member` building the client of each
    /// stripe's node set; stripe `j`'s sites render under
    /// `<C::STRIPE_STEM><j>/`.
    pub fn new(
        set: Arc<StripedReplicaSet>,
        mut member: impl FnMut(Arc<ReplicaSet>) -> QuorumStore<C>,
    ) -> Self {
        let stores = set
            .stripes()
            .iter()
            .enumerate()
            .map(|(j, stripe)| {
                let mut store = member(stripe.clone());
                store.site_prefix = format!("{}{j}", C::STRIPE_STEM);
                store
            })
            .collect();
        Striped { set, stores }
    }

    pub fn with_faults(self, faults: FaultHandle) -> Self {
        self.each(|s| s.with_faults(faults.clone()))
    }

    pub fn with_trace(self, trace: TraceHandle) -> Self {
        self.each(|s| s.with_trace(trace.clone()))
    }

    pub fn with_pool(self, pool: Arc<Pool>) -> Self {
        self.each(|s| s.with_pool(pool.clone()))
    }

    /// This pool with `f` applied to every member.
    fn each(mut self, f: impl FnMut(QuorumStore<C>) -> QuorumStore<C>) -> Self {
        self.stores = self.stores.into_iter().map(f).collect();
        self
    }

    pub fn striped_set(&self) -> Arc<StripedReplicaSet> {
        self.set.clone()
    }

    fn home(&self, key: &str) -> usize {
        stripe_route(key, self.stores.len())
    }

    /// A batch of one, under `digest` when the caller holds it: a
    /// single-object store exercises the same framed commit path (and the
    /// same `<stem><j>/.../batch` faultpoint sites) as a full round.
    fn store_one(
        &mut self,
        key: &str,
        data: &[u8],
        digest: Option<&[u64]>,
        cost: &CostModel,
    ) -> Result<StoreReceipt, StorageError> {
        let j = self.home(key);
        let r = self.stores[j].commit_framed(&[(key, data)], digest, cost)?;
        Ok(StoreReceipt {
            key: key.to_string(),
            bytes: r.bytes,
            time_ns: r.time_ns,
        })
    }

    /// Batched commit with per-stripe receipts: objects are grouped by
    /// stripe (original order preserved within a stripe) and each
    /// participating stripe commits its group as ONE framed batch.
    ///
    /// Stripe admission runs sequentially in stripe-index order — the
    /// deterministic schedule — but the stripes are independent quorum
    /// sets, so in *virtual* time they commit concurrently: the aggregate
    /// [`BatchReceipt::time_ns`] is the maximum stripe time, and
    /// `ack_cycles` is one per participating stripe.
    ///
    /// All-or-nothing across stripes: if any stripe refuses quorum, every
    /// object already committed on earlier stripes is retracted at its
    /// exact version and the error is returned.
    pub fn store_batch_detailed(
        &mut self,
        objects: &[(&str, &[u8])],
        cost: &CostModel,
    ) -> Result<Vec<(usize, BatchReceipt)>, StorageError> {
        let mut groups: Vec<Vec<(&str, &[u8])>> = vec![Vec::new(); self.stores.len()];
        for &(key, data) in objects {
            groups[self.home(key)].push((key, data));
        }

        let mut receipts: Vec<(usize, BatchReceipt)> = Vec::new();
        for (j, group) in groups.iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            match self.stores[j].store_batch(group, cost) {
                Ok(r) => receipts.push((j, r)),
                Err(e) => {
                    // Peel the earlier stripes' commits back off.
                    for &(done, _) in receipts.iter().rev() {
                        for &(key, _) in &groups[done] {
                            self.stores[done].retract_commit(key);
                        }
                    }
                    return Err(e);
                }
            }
        }
        Ok(receipts)
    }
}

impl<C: Coding> StableStorage for Striped<C> {
    fn class(&self) -> StorageClass {
        StorageClass::Remote
    }

    fn label(&self) -> String {
        let s = &self.stores[0];
        s.coding.pool_label(self.stores.len(), s.set.len(), s.w)
    }

    fn store(
        &mut self,
        key: &str,
        data: &[u8],
        cost: &CostModel,
    ) -> Result<StoreReceipt, StorageError> {
        self.store_one(key, data, None, cost)
    }

    fn store_digested(
        &mut self,
        key: &str,
        data: &[u8],
        digest: u64,
        cost: &CostModel,
    ) -> Result<StoreReceipt, StorageError> {
        self.store_one(key, data, Some(&[digest]), cost)
    }

    fn load(&self, key: &str, cost: &CostModel) -> Result<(Vec<u8>, u64), StorageError> {
        self.stores[self.home(key)].load(key, cost)
    }

    fn load_verified(
        &self,
        key: &str,
        cost: &CostModel,
    ) -> Result<(Vec<u8>, u64, Option<u64>), StorageError> {
        self.stores[self.home(key)].load_verified(key, cost)
    }

    fn delete(&mut self, key: &str) -> Result<(), StorageError> {
        let j = self.home(key);
        self.stores[j].delete(key)
    }

    fn list(&self) -> Vec<String> {
        // Each stripe's list is already sorted; the union across disjoint
        // key partitions just needs a merge-sort.
        let mut keys: Vec<String> = self.stores.iter().flat_map(|s| s.list()).collect();
        keys.sort();
        keys
    }

    fn available(&self) -> bool {
        // A pool with any quorum-less stripe is degraded: keys mapped
        // there are unwritable, so advertising availability would promise
        // commits the pool cannot keep.
        self.stores.iter().all(|s| s.available())
    }

    fn used_bytes(&self) -> u64 {
        self.stores.iter().map(|s| s.used_bytes()).sum()
    }

    fn on_node_failure(&mut self) {
        for s in &mut self.stores {
            s.on_node_failure();
        }
    }

    fn on_node_repair(&mut self) {
        for s in &mut self.stores {
            s.on_node_repair();
        }
    }

    fn on_power_down(&mut self) {
        // Remote media are unaffected by the client node's power state.
    }

    fn replica_manifest(&self, key: &str) -> Option<ReplicaManifest> {
        self.stores[self.home(key)].replica_manifest(key)
    }

    fn fork(&self, relink: &mut Relink) -> SimResult<Box<dyn StableStorage>> {
        let set = StripedReplicaSet::fork(&self.set, relink)?;
        let stores = self
            .stores
            .iter()
            .map(|s| s.fork_store(relink))
            .collect::<SimResult<_>>()?;
        Ok(Box::new(Striped { set, stores }))
    }

    fn store_batch(
        &mut self,
        objects: &[(&str, &[u8])],
        cost: &CostModel,
    ) -> Result<BatchReceipt, StorageError> {
        let receipts = self.store_batch_detailed(objects, cost)?;
        Ok(BatchReceipt {
            objects: receipts.iter().map(|(_, r)| r.objects).sum(),
            bytes: receipts.iter().map(|(_, r)| r.bytes).sum(),
            // Independent quorum sets commit concurrently in virtual time.
            time_ns: receipts.iter().map(|(_, r)| r.time_ns).max().unwrap_or(0),
            ack_cycles: receipts.iter().map(|(_, r)| r.ack_cycles).sum(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ckpt_storage::ImageKey;

    fn cost() -> CostModel {
        CostModel::circa_2005()
    }

    fn fresh(k: usize, n: usize, w: usize) -> StripedStore {
        Striped::new(StripedReplicaSet::new(k, n), |s| {
            crate::ReplicatedStore::new(s, crate::ReplicaConfig::new(n, w))
        })
    }

    #[test]
    fn lineages_are_stripe_stable() {
        for job in ["a", "swp", "longer-job-name"] {
            for pid in 0..32 {
                let home = stripe_route(&ImageKey::new(job, pid, 1).to_string(), 4);
                for seq in 2..20 {
                    let k = ImageKey::new(job, pid, seq).to_string();
                    assert_eq!(
                        stripe_route(&k, 4),
                        home,
                        "chain {job}/pid{pid} must live on one stripe"
                    );
                }
            }
        }
    }

    #[test]
    fn routing_spreads_lineages_across_stripes() {
        let mut hit = [false; 4];
        for pid in 0..64 {
            hit[stripe_route(&ImageKey::new("j", pid, 1).to_string(), 4)] = true;
        }
        assert!(hit.iter().all(|&h| h), "64 lineages must touch all 4 stripes");
    }

    #[test]
    fn striped_store_round_trips_and_amortizes_per_stripe() {
        let mut s = fresh(4, 3, 2);
        let objects: Vec<(String, Vec<u8>)> = (0..16)
            .map(|pid| (ImageKey::new("j", pid, 1).to_string(), vec![pid as u8; 32]))
            .collect();
        let refs: Vec<(&str, &[u8])> = objects
            .iter()
            .map(|(k, d)| (k.as_str(), d.as_slice()))
            .collect();
        let r = s.store_batch(&refs, &cost()).unwrap();
        assert_eq!(r.objects, 16);
        assert!(
            r.ack_cycles <= 4,
            "one ack cycle per participating stripe, got {}",
            r.ack_cycles
        );
        for (k, d) in &objects {
            assert_eq!(s.load(k, &cost()).unwrap().0, *d);
        }
        assert_eq!(s.list().len(), 16);
    }

    #[test]
    fn batch_time_is_max_over_stripes_not_sum() {
        let mut one = fresh(1, 3, 2);
        let mut four = fresh(4, 3, 2);
        let objects: Vec<(String, Vec<u8>)> = (0..32)
            .map(|pid| (ImageKey::new("j", pid, 1).to_string(), vec![7u8; 4096]))
            .collect();
        let refs: Vec<(&str, &[u8])> = objects
            .iter()
            .map(|(k, d)| (k.as_str(), d.as_slice()))
            .collect();
        let t1 = one.store_batch(&refs, &cost()).unwrap().time_ns;
        let t4 = four.store_batch(&refs, &cost()).unwrap().time_ns;
        assert!(
            t4 * 2 < t1,
            "4 stripes must overlap commits in virtual time: {t4} vs {t1}"
        );
    }

    #[test]
    fn cross_stripe_batch_is_all_or_nothing() {
        let mut s = fresh(2, 3, 2);
        let objects: Vec<String> = (0..8)
            .map(|pid| ImageKey::new("j", pid, 1).to_string())
            .collect();
        // Find which stripe each object routes to and kill stripe 1's quorum.
        let set = s.striped_set();
        set.stripe(1).node(0).fail();
        set.stripe(1).node(1).fail();
        let refs: Vec<(&str, &[u8])> = objects
            .iter()
            .map(|k| (k.as_str(), b"x".as_slice()))
            .collect();
        let err = s.store_batch(&refs, &cost()).unwrap_err();
        assert!(matches!(err, StorageError::QuorumLost { .. }));
        // Heal everything: no object of the failed batch may have survived,
        // including the ones whose stripe committed before the failure.
        set.stripe(1).node(0).repair();
        set.stripe(1).node(1).repair();
        for k in &objects {
            assert!(
                matches!(s.load(k, &cost()), Err(StorageError::NotFound(_))),
                "object {k} leaked out of the aborted cross-stripe batch"
            );
        }
    }

    #[test]
    fn damaged_stripe_never_bleeds_into_healthy_ones() {
        let mut s = fresh(2, 3, 2);
        let keys: Vec<String> = (0..8)
            .map(|pid| ImageKey::new("j", pid, 1).to_string())
            .collect();
        for k in &keys {
            s.store(k, k.as_bytes(), &cost()).unwrap();
        }
        let set = s.striped_set();
        set.stripe(0).node(0).fail();
        set.stripe(0).node(1).fail();
        for k in &keys {
            match set.route(k) {
                0 => assert!(
                    matches!(s.load(k, &cost()), Err(StorageError::QuorumLost { .. })),
                    "damaged stripe must refuse {k} with the typed error"
                ),
                _ => assert_eq!(
                    s.load(k, &cost()).unwrap().0,
                    k.as_bytes(),
                    "healthy stripe must still serve {k}"
                ),
            }
        }
        assert!(!s.available(), "a quorum-less stripe degrades the pool");
    }
}
