//! The commit path touches its bytes the minimum number of times — and the
//! read path verifies exactly what it always did.
//!
//! * a checkpoint issues **zero** loads: pruning what a full image
//!   supersedes trusts the store receipt instead of reading the image back;
//! * a replicated commit digests each payload once, however many replicas
//!   ingest it;
//! * the first read after a commit still verifies every frame it probes
//!   (one digest each), repeated reads add none, and a damaged frame is
//!   still classified torn on the batched verify path;
//! * replicated and coded round-trips — damage, decode and repair included
//!   — are byte-identical at pool widths 1/4/8.

mod common;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ckpt_restart::ec::ErasureStore;
use ckpt_restart::par::Pool;
use ckpt_restart::prelude::*;
use ckpt_restart::replica::{Probe, ReplicaConfig, ReplicaSet, ReplicatedStore};
use ckpt_restart::simos::apps::{AppParams, NativeKind};
use ckpt_restart::simos::cost::CostModel;
use ckpt_restart::simos::types::Pid;
use ckpt_restart::storage::{
    BatchReceipt, LocalDisk, ReplicaManifest, StableStorage, StorageClass, StorageError,
    StoreReceipt,
};
use common::Gen;

fn cost() -> CostModel {
    CostModel::circa_2005()
}

/// Forwards everything, counting the loads.
struct CountingLoads {
    inner: Box<dyn StableStorage>,
    loads: Arc<AtomicU64>,
}

impl StableStorage for CountingLoads {
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
        c: &CostModel,
    ) -> Result<StoreReceipt, StorageError> {
        self.inner.store(key, data, c)
    }
    fn load(&self, key: &str, c: &CostModel) -> Result<(Vec<u8>, u64), StorageError> {
        self.loads.fetch_add(1, Ordering::Relaxed);
        self.inner.load(key, c)
    }
    fn delete(&mut self, key: &str) -> Result<(), StorageError> {
        self.inner.delete(key)
    }
    fn list(&self) -> Vec<String> {
        self.inner.list()
    }
    fn available(&self) -> bool {
        self.inner.available()
    }
    fn used_bytes(&self) -> u64 {
        self.inner.used_bytes()
    }
    fn on_node_failure(&mut self) {
        self.inner.on_node_failure()
    }
    fn on_node_repair(&mut self) {
        self.inner.on_node_repair()
    }
    fn on_power_down(&mut self) {
        self.inner.on_power_down()
    }
    fn replica_manifest(&self, key: &str) -> Option<ReplicaManifest> {
        self.inner.replica_manifest(key)
    }
    fn store_batch(
        &mut self,
        objects: &[(&str, &[u8])],
        c: &CostModel,
    ) -> Result<BatchReceipt, StorageError> {
        self.inner.store_batch(objects, c)
    }
}

fn running_guest() -> (Kernel, Pid) {
    let mut k = Kernel::new(cost());
    let mut params = AppParams::small();
    params.mem_bytes = 256 * 1024;
    params.writes_per_step = 8;
    params.total_steps = u64::MAX;
    let pid = k.spawn_native(NativeKind::SparseRandom, params).unwrap();
    k.run_for(20_000_000).unwrap();
    (k, pid)
}

#[test]
fn checkpoints_issue_no_loads_on_any_stack() {
    let stacks: [(&str, Box<dyn StableStorage>, bool); 3] = [
        ("raw", Box::new(LocalDisk::new(1 << 30)), false),
        (
            "dedup(replicated(3,2))",
            Box::new(ReplicatedStore::fresh(3, 2)),
            true,
        ),
        ("rs(4,2)", Box::new(ErasureStore::fresh(4, 2)), false),
    ];
    for (name, backend, dedup) in stacks {
        // The counter sits below the dedup layer, so a manifest or chunk
        // read-back would show as well as an image one.
        let loads = Arc::new(AtomicU64::new(0));
        let counted = CountingLoads {
            inner: backend,
            loads: loads.clone(),
        };
        let storage = if dedup {
            shared_storage(DedupStore::new(Box::new(counted)))
        } else {
            shared_storage(counted)
        };
        let mut engine =
            KernelCkptEngine::builder("epckpt", "job", storage, TrackerKind::KernelPage)
                .full_every(3)
                .build();
        let (mut k, pid) = running_guest();
        let mut kinds = Vec::new();
        for _ in 0..7 {
            k.freeze_process(pid).unwrap();
            let o = engine.checkpoint_in_kernel(&mut k, pid).unwrap();
            kinds.push(o.incremental);
            k.thaw_process(pid).unwrap();
            k.run_for(2_000_000).unwrap();
        }
        // Full, incr, incr, full (prunes seqs 1-3), incr, incr, full.
        assert_eq!(
            kinds,
            [false, true, true, false, true, true, false],
            "{name}"
        );
        assert_eq!(
            loads.load(Ordering::Relaxed),
            0,
            "{name}: the checkpoint path read back"
        );
        // Pruning did happen, and the survivor restarts.
        let images = engine
            .storage()
            .lock()
            .list()
            .iter()
            .filter(|k| k.contains("/pid"))
            .count();
        assert_eq!(images, 1, "{name}: only the newest full image survives");
        let mut k2 = Kernel::new(cost());
        engine
            .restart_from_storage(&mut k2, RestorePid::Fresh)
            .unwrap();
        assert!(
            loads.load(Ordering::Relaxed) > 0,
            "{name}: restart reads through the counter"
        );
    }
}

#[test]
fn a_replicated_commit_digests_each_payload_once() {
    let mut g = Gen::new(11);
    let mut s = ReplicatedStore::fresh(5, 3);
    s.store("one", &g.bytes(40_000), &cost()).unwrap();
    assert_eq!(
        s.stats().payload_digests,
        1,
        "one object, five replicas, one digest"
    );
    let objects: Vec<(String, Vec<u8>)> = (0..4)
        .map(|i| (format!("b{i}"), g.bytes(1000 + i)))
        .collect();
    let refs: Vec<(&str, &[u8])> = objects
        .iter()
        .map(|(k, d)| (k.as_str(), d.as_slice()))
        .collect();
    s.store_batch(&refs, &cost()).unwrap();
    assert_eq!(
        s.stats().payload_digests,
        5,
        "a batch adds one digest per object"
    );
    // Ingest itself verifies nothing: that is the first read's job.
    let set = s.replica_set();
    assert_eq!(
        set.nodes()
            .iter()
            .map(|n| n.digests_computed())
            .sum::<u64>(),
        0
    );
    // Every replica holds the payload under the manifest's digest.
    let m = s.replica_manifest("one").unwrap();
    for node in set.nodes() {
        match node.probe("one") {
            Probe::Valid(f) => assert_eq!(f.digest, m.digest),
            other => panic!("replica {} holds {other:?}", node.index()),
        }
    }
}

fn node_digests(set: &ReplicaSet) -> Vec<u64> {
    set.nodes().iter().map(|n| n.digests_computed()).collect()
}

#[test]
fn first_read_verifies_every_probed_frame_once_and_damage_is_still_torn() {
    let mut g = Gen::new(23);
    let data = g.bytes(30_000);

    // Replicated: three frames probed, three digests, then none.
    let mut rep = ReplicatedStore::fresh(3, 2);
    rep.store("k", &data, &cost()).unwrap();
    let set = rep.replica_set();
    assert_eq!(node_digests(&set), [0, 0, 0], "the commit verifies nothing");
    assert_eq!(rep.load("k", &cost()).unwrap().0, data);
    assert_eq!(
        node_digests(&set),
        [1, 1, 1],
        "first read: one digest per frame probed"
    );
    for _ in 0..3 {
        rep.load("k", &cost()).unwrap();
    }
    assert_eq!(node_digests(&set), [1, 1, 1], "repeated reads hit the memo");
    // Damage at an unchanged version is re-checked and classified torn by
    // the batched verify, then repaired from the intact copies.
    set.node(1).corrupt_key("k");
    assert_eq!(
        set.probe_batch(&[0, 1, 2], "k")[1],
        Probe::Torn { version: 1 }
    );
    assert_eq!(rep.load("k", &cost()).unwrap().0, data);
    assert_eq!(rep.stats().repairs, 1);
    assert!(matches!(set.node(1).probe("k"), Probe::Valid(_)));

    // A torn write (prefix under the full payload's digest) likewise.
    set.node(2).put_torn("k", 1, &data, 100);
    assert_eq!(set.probe_batch(&[2, 0], "k")[0], Probe::Torn { version: 1 });

    // Coded: a down node is not probed, the other five are — once.
    let mut ec = ErasureStore::fresh(4, 2);
    ec.store("k", &data, &cost()).unwrap();
    let set = ec.replica_set();
    set.node(0).fail();
    assert_eq!(ec.load("k", &cost()).unwrap().0, data);
    assert_eq!(node_digests(&set), [0, 1, 1, 1, 1, 1]);
    ec.load("k", &cost()).unwrap();
    assert_eq!(
        node_digests(&set),
        [0, 1, 1, 1, 1, 1],
        "repeated degraded reads add none"
    );
    // A corrupted shard is torn on the batched path: decoded around and
    // rebuilt in place, while the down node's shard is not.
    set.node(3).corrupt_key("k");
    assert_eq!(ec.load("k", &cost()).unwrap().0, data);
    assert_eq!(
        ec.stats().repairs,
        1,
        "only the reachable damaged shard is repaired"
    );
    assert!(matches!(set.node(3).probe("k"), Probe::Valid(_)));
}

#[test]
fn damaged_round_trips_are_byte_identical_at_every_pool_width() {
    let run = |width: usize| {
        let pool = Arc::new(Pool::new(width));
        let mut g = Gen::new(5);
        let mut out: Vec<(Vec<u8>, u64)> = Vec::new();
        let objects: Vec<(String, Vec<u8>)> = (0..6)
            .map(|i| {
                (
                    format!("o{i}"),
                    g.bytes([0, 1, 5, 4096, 70_001, 300_000][i]),
                )
            })
            .collect();

        let mut rep = ReplicatedStore::new(ReplicaSet::new(3), ReplicaConfig::new(3, 2))
            .with_pool(pool.clone());
        let mut ec = ErasureStore::fresh(4, 2).with_pool(pool.clone());
        for (key, data) in &objects {
            rep.store(key, data, &cost()).unwrap();
            ec.store(key, data, &cost()).unwrap();
        }
        // Damage: a dropped and a torn copy per store, on different nodes
        // per key, so reads decode and repair.
        for (j, (key, _)) in objects.iter().enumerate() {
            rep.replica_set().node(j % 3).corrupt_key(key);
            ec.replica_set().node(j % 6).drop_key(key);
            ec.replica_set().node((j + 2) % 6).corrupt_key(key);
        }
        for (key, data) in &objects {
            for store in [&rep as &dyn StableStorage, &ec] {
                let (bytes, t) = store.load(key, &cost()).unwrap();
                assert_eq!(
                    &bytes,
                    data,
                    "{key} through {} at width {width}",
                    store.label()
                );
                out.push((bytes, t));
            }
        }
        // What the repairs left on every node.
        for set in [rep.replica_set(), ec.replica_set()] {
            for node in set.nodes() {
                for key in node.keys() {
                    match node.probe(&key) {
                        Probe::Valid(f) => out.push((Vec::clone(&f.data), f.digest ^ f.version)),
                        other => panic!("{key} on node {}: {other:?}", node.index()),
                    }
                }
            }
        }
        out
    };
    let serial = run(1);
    for width in [4, 8] {
        assert_eq!(
            run(width),
            serial,
            "width {width} diverged from the serial path"
        );
    }
}
