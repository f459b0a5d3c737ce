//! A store forked mid-run is the store it was forked from, and shares
//! nothing with it.
//!
//! For every backend stack the crash matrix sweeps (each label of
//! `crashpoint::TIERS`, built by `crashpoint::injected_store`): a random
//! prefix of stores, loads, deletes, batches, node failures and repairs and
//! power-downs, then a fork through a `Relink`, then one random suffix
//! applied to both. Op by op the two agree on what the op returned (a
//! load's bytes, or its typed error), on `list()`, `used_bytes()`,
//! `available()` and every listed object's replica manifest. Every layer of the fork consults the fork's fault handle:
//! past the fork point the original visits exactly the sites the fork
//! does. Then a write to either side never shows in the other.
//!
//! Holders are kept apart from stores: two `SharedStorage` handles on one
//! store, two clients of one remote server, and two clients of one replica
//! set each still reach one store in the fork.

mod common;

use ckpt_restart::ckpt::crashpoint::{all_configs, injected_store};
use ckpt_restart::ckpt::{fork_storage, shared_storage};
use ckpt_restart::replica::{ReplicaConfig, ReplicaSet, ReplicatedStore};
use ckpt_restart::simos::cost::CostModel;
use ckpt_restart::simos::faultpoint::{FaultHandle, SiteRecord};
use ckpt_restart::simos::Relink;
use ckpt_restart::storage::{
    FaultInjectStore, ImageKey, LocalDisk, RemoteServer, RemoteStore, StableStorage, StorageError,
};
use common::Gen;
use std::sync::Arc;

#[derive(Debug, Clone)]
enum Op {
    Store(String, Vec<u8>),
    Load(String),
    Delete(String),
    Batch(Vec<(String, Vec<u8>)>),
    NodeFailure,
    NodeRepair,
    PowerDown,
}

/// A key: mostly the image keys of three lineages, whose successive
/// versions the dedup layer chunks and deltas, sometimes a plain object.
fn key(g: &mut Gen) -> String {
    if g.range(0, 5) == 0 {
        return format!("plain/k{}", g.range(0, 3));
    }
    ImageKey::new("fork", g.range(1, 4) as u32, g.range(1, 6)).to_string()
}

/// A payload: a prefix of one fixed base with a few bytes flipped, so
/// successive objects share most of their content.
fn payload(g: &mut Gen) -> Vec<u8> {
    let mut data = Gen::new(0xba5e).bytes(g.range(64, 6000) as usize);
    for _ in 0..g.range(0, 6) {
        let at = g.range(0, data.len() as u64) as usize;
        data[at] ^= g.byte() | 1;
    }
    data
}

fn random_op(g: &mut Gen) -> Op {
    match g.range(0, 20) {
        0..=6 => {
            let k = key(g);
            let data = payload(g);
            Op::Store(k, data)
        }
        7..=11 => Op::Load(key(g)),
        12 | 13 => Op::Delete(key(g)),
        14 | 15 => Op::Batch(
            (0..g.range(1, 4))
                .map(|_| {
                    let k = key(g);
                    let data = payload(g);
                    (k, data)
                })
                .collect(),
        ),
        16 => Op::NodeFailure,
        17 | 18 => Op::NodeRepair,
        _ => Op::PowerDown,
    }
}

/// Apply `op`; what it returned and what the store then shows.
fn apply(s: &mut dyn StableStorage, op: &Op) -> String {
    let cost = CostModel::circa_2005();
    let returned = match op {
        Op::Store(k, data) => format!("{:?}", s.store(k, data, &cost)),
        Op::Load(k) => format!("{:?}", s.load(k, &cost)),
        Op::Delete(k) => format!("{:?}", s.delete(k)),
        Op::Batch(objects) => {
            let refs: Vec<(&str, &[u8])> = objects
                .iter()
                .map(|(k, d)| (k.as_str(), d.as_slice()))
                .collect();
            format!("{:?}", s.store_batch(&refs, &cost))
        }
        Op::NodeFailure => {
            s.on_node_failure();
            String::new()
        }
        Op::NodeRepair => {
            s.on_node_repair();
            String::new()
        }
        Op::PowerDown => {
            s.on_power_down();
            String::new()
        }
    };
    let manifests: Vec<_> = s.list().iter().map(|k| s.replica_manifest(k)).collect();
    format!(
        "{returned} | {:?} {} {} {manifests:?}",
        s.list(),
        s.used_bytes(),
        s.available()
    )
}

/// A recording's sites from the `from`-th on, without their ordinals: the
/// two sides count from different starts.
fn bases(sites: &[SiteRecord], from: usize) -> Vec<(String, u64)> {
    sites[from..]
        .iter()
        .map(|s| {
            (
                s.name.rsplit_once('@').expect("site@n").0.to_string(),
                s.bytes,
            )
        })
        .collect()
}

/// The backend labels the matrix sweeps, each once.
fn labels() -> Vec<&'static str> {
    let mut labels: Vec<&str> = all_configs().iter().map(|c| c.backend).collect();
    labels.sort();
    labels.dedup();
    labels
}

#[test]
fn a_forked_stack_answers_as_its_original_does_and_shares_nothing() {
    let cost = CostModel::circa_2005();
    for label in labels() {
        for seed in 0..6 {
            let mut g = Gen::new(seed);
            let prefix: Vec<Op> = (0..g.range(0, 30)).map(|_| random_op(&mut g)).collect();
            let suffix: Vec<Op> = (0..g.range(10, 30)).map(|_| random_op(&mut g)).collect();
            let at = |n: usize| format!("{label} seed {seed}, after {} + {n}", prefix.len());

            let recording = FaultHandle::recording();
            let mut a = injected_store(label, &recording);
            for op in &prefix {
                apply(a.as_mut(), op);
            }
            let forked_at = recording.sites().len();
            let fork_faults = FaultHandle::recording();
            let mut b = a
                .fork(&mut Relink::new(fork_faults.clone()))
                .unwrap_or_else(|e| panic!("{label}: {e}"));
            for (n, op) in suffix.iter().enumerate() {
                let ret_a = apply(a.as_mut(), op);
                let ret_b = apply(b.as_mut(), op);
                assert_eq!(ret_a, ret_b, "{}: {op:?}", at(n + 1));
            }
            assert_eq!(
                bases(&recording.sites(), forked_at),
                bases(&fork_faults.sites(), 0),
                "{}: the fork's layers consult another handle",
                at(suffix.len())
            );

            // Isolation, both ways, once both nodes are up.
            a.on_node_repair();
            b.on_node_repair();
            let probe = ImageKey::new("isolation", 9, 1).to_string();
            b.store(&probe, b"written by the fork", &cost).unwrap();
            assert!(
                matches!(a.load(&probe, &cost), Err(StorageError::NotFound(_))),
                "{label} seed {seed}: the fork's write shows in the original"
            );
            assert!(!a.list().contains(&probe), "{label} seed {seed}");
            a.store(&probe, b"written by the original", &cost).unwrap();
            assert_eq!(
                b.load(&probe, &cost).unwrap().0,
                b"written by the fork",
                "{label} seed {seed}: the original's write shows in the fork"
            );
            a.delete(&probe).unwrap();
            assert!(b.list().contains(&probe), "{label} seed {seed}");
        }
    }
}

#[test]
fn holders_of_one_store_hold_one_store_in_the_fork() {
    let cost = CostModel::circa_2005();
    let disabled = FaultHandle::disabled;

    // Two handles on one shared store: one copy, reached by both.
    let one = shared_storage(LocalDisk::new(1 << 20));
    let (h1, h2) = (one.clone(), one.clone());
    let relink = &mut Relink::new(disabled());
    let (f1, f2) = (
        fork_storage(&h1, relink).unwrap(),
        fork_storage(&h2, relink).unwrap(),
    );
    assert!(Arc::ptr_eq(&f1, &f2) && !Arc::ptr_eq(&f1, &one));
    f1.lock().store("k", b"fork", &cost).unwrap();
    assert_eq!(f2.lock().load("k", &cost).unwrap().0, b"fork");
    assert!(one.lock().load("k", &cost).is_err());

    // Two clients of one remote server, and two clients of one replica
    // set, each behind its own fault decorator: forked through one map,
    // the fork's clients still share their server or set.
    let server = RemoteServer::new(1 << 20);
    let set = ReplicaSet::new(3);
    let pairs: [[Box<dyn StableStorage>; 2]; 2] = [
        [0, 1].map(|_| {
            let client = Box::new(RemoteStore::new(server.clone()));
            Box::new(FaultInjectStore::new(client, disabled())) as Box<dyn StableStorage>
        }),
        [0, 1].map(|_| {
            let client = ReplicatedStore::new(set.clone(), ReplicaConfig::new(3, 2));
            Box::new(FaultInjectStore::new(Box::new(client), disabled())) as Box<dyn StableStorage>
        }),
    ];
    for [mut x, y] in pairs {
        let label = x.label();
        x.store("before", b"both", &cost).unwrap();
        let relink = &mut Relink::new(disabled());
        let (mut fx, fy) = (x.fork(relink).unwrap(), y.fork(relink).unwrap());
        assert_eq!(fy.load("before", &cost).unwrap().0, b"both", "{label}");
        fx.store("after", b"fork", &cost).unwrap();
        assert_eq!(
            fy.load("after", &cost).unwrap().0,
            b"fork",
            "{label}: one store in the fork"
        );
        assert!(
            y.load("after", &cost).is_err(),
            "{label}: the fork reached the original"
        );
        // Clients forked through separate maps do not share.
        let mut lone = x.fork(&mut Relink::new(disabled())).unwrap();
        lone.store("lone", b"x", &cost).unwrap();
        assert!(fy.load("lone", &cost).is_err(), "{label}");
    }
}
