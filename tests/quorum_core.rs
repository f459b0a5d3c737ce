//! The quorum-commit core, seen through all four stacks that stand on it:
//! `replicated(3,2)`, `rs(4,2)`, `striped(2x3,2)` and
//! `ecstriped(2x rs(4,2))`.
//!
//! * A refused commit is a no-op on every node: the value it failed to
//!   replace, each node's frame version and the traffic counter are where
//!   they were — on the nodes that acknowledged, on the node that tore,
//!   and (across stripes) on the stripes that had already committed.
//! * The fault-site surface is pinned site by site: name, visit ordinal,
//!   order and recorded `bytes` of a fixed script equal a literal captured
//!   before the tiers were folded onto one core, so a moved admission or a
//!   changed frame-size formula names its first differing site here
//!   instead of surfacing as a crash-matrix cell count.

use std::sync::Arc;

use ckpt_restart::ec::ErasureStore;
use ckpt_restart::replica::{
    stripe_route, Probe, ReplicaConfig, ReplicaSet, ReplicatedStore, Striped, StripedReplicaSet,
};
use ckpt_restart::storage::{FaultInjectStore, StableStorage, StorageError};
use simos::cost::CostModel;
use simos::faultpoint::{Fault, FaultHandle};

/// One stack under test: its client, and the node sets behind it (one per
/// stripe).
struct Stack {
    store: Box<dyn StableStorage>,
    sets: Vec<Arc<ReplicaSet>>,
}

const STACKS: [&str; 4] = [
    "replicated(3,2)",
    "rs(4,2)",
    "striped(2x3,2)",
    "ecstriped(2x rs(4,2))",
];

fn build(label: &str, faults: FaultHandle) -> Stack {
    let quorum = ReplicaConfig::new(3, 2);
    let stack = match label {
        "replicated(3,2)" => {
            let set = ReplicaSet::new(3);
            Stack {
                store: Box::new(ReplicatedStore::new(set.clone(), quorum).with_faults(faults)),
                sets: vec![set],
            }
        }
        "rs(4,2)" => {
            let set = ReplicaSet::new(6);
            Stack {
                store: Box::new(ErasureStore::new(set.clone(), 4, 2).with_faults(faults)),
                sets: vec![set],
            }
        }
        "striped(2x3,2)" => {
            let pool = StripedReplicaSet::new(2, 3);
            let store = Striped::new(pool.clone(), |s| ReplicatedStore::new(s, quorum));
            Stack {
                store: Box::new(store.with_faults(faults)),
                sets: pool.stripes().to_vec(),
            }
        }
        "ecstriped(2x rs(4,2))" => {
            let pool = StripedReplicaSet::new(2, 6);
            let store = Striped::new(pool.clone(), |s| ErasureStore::new(s, 4, 2));
            Stack {
                store: Box::new(store.with_faults(faults)),
                sets: pool.stripes().to_vec(),
            }
        }
        other => panic!("unknown stack {other}"),
    };
    assert_eq!(stack.store.label(), label);
    stack
}

/// `pid1` and `pid3` route to stripe 0 of a two-stripe pool, `pid2` and
/// `pid4` to stripe 1 (the site literal below shows it), so a batch of
/// `pid2..=pid4` spans both stripes with stripe 1 committing last.
fn key(pid: u32) -> String {
    format!("job/pid{pid}/seq00000001")
}

fn payload(pid: u32, version: u8) -> Vec<u8> {
    (0..96 + pid as usize)
        .map(|i| (i as u8) ^ version.wrapping_mul(37))
        .collect()
}

/// Commit `version` of every `pid`'s object: one `store` for one object,
/// one `store_batch` otherwise.
fn commit(store: &mut dyn StableStorage, pids: &[u32], version: u8) -> Result<(), StorageError> {
    let cost = CostModel::circa_2005();
    let objects: Vec<(String, Vec<u8>)> = pids
        .iter()
        .map(|&p| (key(p), payload(p, version)))
        .collect();
    if let [(k, d)] = objects.as_slice() {
        return store.store(k, d, &cost).map(|_| ());
    }
    let refs: Vec<(&str, &[u8])> = objects
        .iter()
        .map(|(k, d)| (k.as_str(), d.as_slice()))
        .collect();
    store.store_batch(&refs, &cost).map(|_| ())
}

#[test]
fn a_refused_commit_restores_every_touched_node() {
    let cost = CostModel::circa_2005();
    // (objects of the commit, the armed site's op on the plain tiers).
    // The striped routers send even one object down the batch path.
    for (pids, plain_op) in [(&[2u32][..], "store"), (&[2, 3, 4][..], "batch")] {
        for label in STACKS {
            // The second visit of node 0's commit site on the LAST set to
            // commit — the overwrite — tears; on a striped pool that is
            // stripe 1, after stripe 0 already committed its share.
            let site = match label {
                "replicated(3,2)" => format!("replica/r0/{plain_op}@2"),
                "rs(4,2)" => "ec/s0/batch@2".to_string(),
                "striped(2x3,2)" => "stripe1/r0/batch@2".to_string(),
                _ => "ecstripe1/s0/batch@2".to_string(),
            };
            let what = format!("{label}, {} object(s)", pids.len());
            let faults = FaultHandle::armed(&site, Fault::TornWrite { keep_bytes: 70 });
            let Stack { mut store, sets } = build(label, faults.clone());

            commit(store.as_mut(), pids, 1).unwrap_or_else(|e| panic!("{what}: v1 refused: {e}"));
            let ingested: Vec<u64> = sets.iter().map(|s| s.bytes_ingested()).collect();

            // One more node of the tearing set is down: the torn node and
            // this one leave the overwrite one ack short of its quorum.
            let wounded = sets.last().expect("at least one set");
            wounded.node(1).fail();
            let err = commit(store.as_mut(), pids, 2).expect_err("overwrite must miss quorum");
            assert!(
                matches!(err, StorageError::QuorumLost { .. }),
                "{what}: refusal must be typed, got {err}"
            );
            assert_eq!(
                faults.fired().as_deref(),
                Some(site.as_str()),
                "{what}: tear never fired"
            );

            // Everything comes back: no node may show a trace of v2.
            for set in &sets {
                for node in set.nodes() {
                    node.repair();
                }
            }
            for &pid in pids {
                let k = key(pid);
                let home = stripe_route(&k, sets.len());
                for node in sets[home].nodes() {
                    match node.probe(&k) {
                        Probe::Valid(f) if f.version == 1 => {}
                        other => panic!(
                            "{what}: set {home} node {} probes {other:?} for {k}",
                            node.index()
                        ),
                    }
                }
                let (bytes, _) = store
                    .load(&k, &cost)
                    .unwrap_or_else(|e| panic!("{what}: {k} lost to a refused overwrite: {e}"));
                assert_eq!(bytes, payload(pid, 1), "{what}: wrong bytes for {k}");
            }
            let after: Vec<u64> = sets.iter().map(|s| s.bytes_ingested()).collect();
            assert_eq!(
                after, ingested,
                "{what}: refused bytes still counted as traffic"
            );

            // And the keys are not wedged: the next commit lands and reads.
            commit(store.as_mut(), pids, 3).unwrap_or_else(|e| panic!("{what}: v3 refused: {e}"));
            for &pid in pids {
                assert_eq!(
                    store.load(&key(pid), &cost).unwrap().0,
                    payload(pid, 3),
                    "{what}"
                );
            }
        }
    }
}

/// store, overwrite, 3-object batch, load, delete.
fn site_script(store: &mut dyn StableStorage) {
    let cost = CostModel::circa_2005();
    let v1: Vec<u8> = (0..100u8).collect();
    let v2: Vec<u8> = (0..60u8).rev().collect();
    store.store(&key(1), &v1, &cost).unwrap();
    store.store(&key(1), &v2, &cost).unwrap();
    let batch: Vec<(String, Vec<u8>)> = (2..5u32)
        .map(|p| (key(p), vec![p as u8; 40 + p as usize]))
        .collect();
    let refs: Vec<(&str, &[u8])> = batch
        .iter()
        .map(|(k, d)| (k.as_str(), d.as_slice()))
        .collect();
    store.store_batch(&refs, &cost).unwrap();
    assert_eq!(store.load(&key(1), &cost).unwrap().0, v2);
    store.delete(&key(1)).unwrap();
}

/// `(site stem, visit ordinal, recorded bytes)`, each visited on every
/// node of the set in node order: the literal lists one row per admission
/// pass instead of one per node.
type Pass = (&'static str, u64, u64);

fn expected_passes(label: &str) -> (usize, char, &'static [Pass]) {
    match label {
        "replicated(3,2)" => (
            3,
            'r',
            &[
                ("replica/{}/store", 1, 100),
                ("replica/{}/store", 2, 60),
                ("replica/{}/batch", 1, 265),
                ("replica/{}/load", 1, 0),
            ],
        ),
        "rs(4,2)" => (
            6,
            's',
            &[
                ("ec/{}/batch", 1, 105),
                ("ec/{}/batch", 2, 95),
                ("ec/{}/batch", 3, 241),
                ("ec/{}/load", 1, 0),
            ],
        ),
        "striped(2x3,2)" => (
            3,
            'r',
            &[
                ("stripe0/{}/batch", 1, 156),
                ("stripe0/{}/batch", 2, 116),
                ("stripe0/{}/batch", 3, 99),
                ("stripe1/{}/batch", 1, 182),
                ("stripe0/{}/load", 1, 0),
            ],
        ),
        "ecstriped(2x rs(4,2))" => (
            6,
            's',
            &[
                ("ecstripe0/{}/batch", 1, 105),
                ("ecstripe0/{}/batch", 2, 95),
                ("ecstripe0/{}/batch", 3, 91),
                ("ecstripe1/{}/batch", 1, 166),
                ("ecstripe0/{}/load", 1, 0),
            ],
        ),
        other => panic!("unknown stack {other}"),
    }
}

#[test]
fn fault_sites_are_identical_to_the_pre_refactor_capture() {
    for label in STACKS {
        let faults = FaultHandle::recording();
        let Stack { mut store, .. } = build(label, faults.clone());
        site_script(store.as_mut());

        let (nodes, tag, passes) = expected_passes(label);
        let expected: Vec<(String, u64)> = passes
            .iter()
            .flat_map(|&(stem, visit, bytes)| {
                (0..nodes).map(move |i| {
                    (
                        format!("{}@{visit}", stem.replace("{}", &format!("{tag}{i}"))),
                        bytes,
                    )
                })
            })
            .collect();
        let recorded: Vec<(String, u64)> = faults
            .sites()
            .into_iter()
            .map(|s| (s.name, s.bytes))
            .collect();
        if let Some(at) =
            (0..expected.len().max(recorded.len())).find(|&i| expected.get(i) != recorded.get(i))
        {
            panic!(
                "{label}: site #{at} diverges: expected {:?}, recorded {:?}",
                expected.get(at),
                recorded.get(at)
            );
        }
    }
}

/// The crash matrix reaches every quorum stack through the fault
/// decorator; the engine's per-segment manifest bookkeeping must see
/// through it as it does through the other decorators.
#[test]
fn the_fault_decorator_forwards_replica_manifests() {
    for label in STACKS {
        let mut bare = build(label, FaultHandle::disabled()).store;
        let mut wrapped = FaultInjectStore::new(
            build(label, FaultHandle::disabled()).store,
            FaultHandle::disabled(),
        );
        commit(bare.as_mut(), &[1], 1).unwrap();
        commit(&mut wrapped, &[1], 1).unwrap();
        let manifest = bare.replica_manifest(&key(1));
        assert!(manifest.is_some(), "{label}: committed key has no manifest");
        assert_eq!(wrapped.replica_manifest(&key(1)), manifest, "{label}");
    }
}
