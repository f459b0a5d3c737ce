//! Reference-model differential test for every single-copy medium.
//!
//! `RamStore`, `LocalDisk`, `SwapStore`, `NvramStore` and two `RemoteStore`
//! clients on one `RemoteServer` are driven through seeded random schedules
//! of `store` / overwrite / `load` / `delete` / `list` / `on_node_failure` /
//! `on_node_repair` / `on_power_down` next to a trivial model: one
//! `BTreeMap`, one reachability flag per handle, and the class's
//! `survives_*` flags. Every result, typed error, listing, byte count and
//! receipt time must agree; the expected `time_ns` is written out per class
//! from the [`CostModel`] fields, so a medium that changes its rounding
//! order or picks up another class's rate fails here by one nanosecond.
//! Cases are generated by [`common::Gen`]; a failing seed reproduces
//! directly.
//!
//! The redundant stacks — replicated(3,2), striped(2x3,2), rs(4,2) and
//! `dedup` over each, built as the crash matrix builds them — run the same
//! kind of schedule with replica-node failures, repairs and one-replica
//! corruption ([`ReplicaNode::corrupt_key`]) mixed in, against a model of
//! what each key may hold. Every load returns bytes the model allows or a
//! typed error, a deleted key never comes back, a corrupted replica's
//! bytes are never returned, a committed key is never lost while every
//! node is up, and no node ever holds a damaged frame the schedule did not
//! damage itself.

mod common;

use ckpt_restart::ckpt::crashpoint::build_stack;
use ckpt_restart::replica::ReplicaNode;
use ckpt_restart::simos::cost::CostModel;
use ckpt_restart::simos::faultpoint::FaultHandle;
use ckpt_restart::storage::{
    ImageKey, LocalDisk, NvramStore, RamStore, RemoteServer, RemoteStore, StableStorage,
    StorageClass, StorageError, SwapStore,
};
use common::Gen;
use std::collections::{BTreeMap, BTreeSet};

/// Small enough that a schedule of sub-kilobyte objects runs out of space.
const CAPACITY: u64 = 4096;
const KEYS: [&str; 6] = ["a", "b", "job/pid1/seq1", "job/pid1/seq2", "swsusp/1", "z"];

/// The modelled transfer time, one literal formula per class.
fn expected_ns(class: StorageClass, len: usize, c: &CostModel) -> u64 {
    match class {
        StorageClass::Ram => (len as f64 * c.ram_store_ns_per_byte).round() as u64,
        StorageClass::Nvram => (len as f64 * c.ram_store_ns_per_byte * 2.0).round() as u64,
        StorageClass::LocalDisk => {
            c.disk_latency_ns + (len as f64 * c.disk_ns_per_byte).round() as u64
        }
        StorageClass::Swap => c.disk_latency_ns + (len as f64 * c.swap_ns_per_byte).round() as u64,
        StorageClass::Remote => c.net_latency_ns + (len as f64 * c.net_ns_per_byte).round() as u64,
        other => panic!("no reference formula for {other:?}"),
    }
}

/// What the handles of one medium must behave like: the objects (shared by
/// every handle — one node-local medium has one handle, the remote server
/// has two clients) and each handle's reachability.
struct Model {
    class: StorageClass,
    objects: BTreeMap<String, Vec<u8>>,
    up: Vec<bool>,
}

impl Model {
    fn used(&self) -> u64 {
        self.objects.values().map(|v| v.len() as u64).sum()
    }

    fn store(&mut self, h: usize, key: &str, data: &[u8]) -> Result<(), StorageError> {
        if !self.up[h] {
            return Err(StorageError::Unavailable);
        }
        let replaced = self.objects.get(key).map_or(0, |v| v.len() as u64);
        let need = data.len() as u64;
        let free = CAPACITY.saturating_sub(self.used() - replaced);
        if need > free {
            return Err(StorageError::NoSpace { need, free });
        }
        self.objects.insert(key.to_string(), data.to_vec());
        Ok(())
    }

    fn load(&self, h: usize, key: &str) -> Result<Vec<u8>, StorageError> {
        if !self.up[h] {
            return Err(StorageError::Unavailable);
        }
        self.objects
            .get(key)
            .cloned()
            .ok_or_else(|| StorageError::NotFound(key.to_string()))
    }

    fn delete(&mut self, h: usize, key: &str) -> Result<(), StorageError> {
        if !self.up[h] {
            return Err(StorageError::Unavailable);
        }
        self.objects
            .remove(key)
            .map(|_| ())
            .ok_or_else(|| StorageError::NotFound(key.to_string()))
    }

    /// A fail-stop cuts the node's power: its volatile contents are gone,
    /// and the handle is unreachable until repair.
    fn node_failure(&mut self, h: usize) {
        if !self.class.survives_power_down() {
            self.objects.clear();
        }
        self.up[h] = false;
    }

    /// Power-down destroys volatile contents and never moves reachability.
    fn power_down(&mut self) {
        if !self.class.survives_power_down() {
            self.objects.clear();
        }
    }
}

type Handles = Vec<Box<dyn StableStorage>>;

/// Runs one schedule, adding to `met` how often it met `[NoSpace, NotFound,
/// Unavailable]`, so the caller can show the schedules reach every error.
fn run_schedule(
    label: &str,
    class: StorageClass,
    seed: u64,
    mut handles: Handles,
    met: &mut [u32; 3],
) {
    let mut note = |e: &StorageError| match e {
        StorageError::NoSpace { .. } => met[0] += 1,
        StorageError::NotFound(_) => met[1] += 1,
        StorageError::Unavailable => met[2] += 1,
        other => panic!("{label}: a single-copy medium returned {other}"),
    };
    let mut g = Gen::new(seed);
    let cost = if g.flag() {
        CostModel::circa_2005()
    } else {
        CostModel::modern()
    };
    for handle in &handles {
        assert_eq!(handle.label(), label);
        assert_eq!(handle.class(), class, "{label}");
    }
    let mut model = Model {
        class,
        objects: BTreeMap::new(),
        up: vec![true; handles.len()],
    };
    for step in 0..400 {
        let h = g.range(0, handles.len() as u64) as usize;
        let key = KEYS[g.range(0, KEYS.len() as u64) as usize];
        let at = format!("{label} seed {seed} step {step} handle {h} key {key}");
        match g.range(0, 16) {
            0..=6 => {
                let len = g.range(0, 1500) as usize;
                let data = g.bytes(len);
                let got = handles[h].store(key, &data, &cost);
                match model.store(h, key, &data) {
                    Ok(()) => {
                        let r = got.unwrap_or_else(|e| panic!("{at}: store refused: {e}"));
                        assert_eq!(r.key, key, "{at}");
                        assert_eq!(r.bytes, data.len() as u64, "{at}");
                        assert_eq!(r.time_ns, expected_ns(class, data.len(), &cost), "{at}");
                    }
                    Err(want) => {
                        note(&want);
                        assert_eq!(got.unwrap_err(), want, "{at}: store");
                    }
                }
            }
            7..=9 => {
                let got = handles[h].load(key, &cost);
                match model.load(h, key) {
                    Ok(want) => {
                        let (data, t) = got.unwrap_or_else(|e| panic!("{at}: load refused: {e}"));
                        assert_eq!(t, expected_ns(class, want.len(), &cost), "{at}");
                        assert_eq!(data, want, "{at}");
                    }
                    Err(want) => {
                        note(&want);
                        assert_eq!(got.unwrap_err(), want, "{at}: load");
                    }
                }
            }
            10..=11 => assert_eq!(handles[h].delete(key), model.delete(h, key), "{at}: delete"),
            12 => {
                handles[h].on_node_failure();
                model.node_failure(h);
            }
            13..=14 => {
                handles[h].on_node_repair();
                model.up[h] = true;
            }
            _ => {
                handles[h].on_power_down();
                model.power_down();
            }
        }
        for (i, handle) in handles.iter().enumerate() {
            assert_eq!(handle.available(), model.up[i], "{at}: available({i})");
            let want: Vec<String> = if model.up[i] {
                model.objects.keys().cloned().collect()
            } else {
                Vec::new()
            };
            assert_eq!(handle.list(), want, "{at}: list({i})");
            assert_eq!(handle.used_bytes(), model.used(), "{at}: used_bytes({i})");
        }
    }
}

/// A fresh instance of every single-copy medium: one handle each, and two
/// clients of one remote server.
fn media() -> [(&'static str, StorageClass, Handles); 5] {
    let server = RemoteServer::new(CAPACITY);
    [
        (
            "ram",
            StorageClass::Ram,
            vec![Box::new(RamStore::new(CAPACITY))],
        ),
        (
            "local-disk",
            StorageClass::LocalDisk,
            vec![Box::new(LocalDisk::new(CAPACITY))],
        ),
        (
            "swap",
            StorageClass::Swap,
            vec![Box::new(SwapStore::new(CAPACITY))],
        ),
        (
            "nvram",
            StorageClass::Nvram,
            vec![Box::new(NvramStore::new(CAPACITY))],
        ),
        (
            "remote",
            StorageClass::Remote,
            vec![
                Box::new(RemoteStore::new(server.clone())),
                Box::new(RemoteStore::new(server)),
            ],
        ),
    ]
}

#[test]
fn every_single_copy_medium_matches_the_reference_model() {
    let mut met: BTreeMap<&str, [u32; 3]> = BTreeMap::new();
    for seed in 0..24 {
        for (label, class, handles) in media() {
            run_schedule(label, class, seed, handles, met.entry(label).or_default());
        }
    }
    for (label, m) in met {
        assert!(
            m.iter().all(|&n| n > 0),
            "{label} never met one of [NoSpace, NotFound, Unavailable]: {m:?}"
        );
    }
}

/// The redundant stacks the model drives, every one a crash-matrix label.
const REDUNDANT: [&str; 6] = [
    "replicated(3,2)",
    "striped(2x3,2)",
    "rs(4,2)",
    "dedup(replicated(3,2))",
    "dedup(striped(2x3,2))",
    "dedup(rs(4,2))",
];

/// Runs one schedule on the redundant stack `label`, adding to `met` how
/// often a load returned bytes, and how often it was refused.
fn run_redundant_schedule(label: &str, seed: u64, met: &mut [u32; 2]) {
    let stack = build_stack(label, &FaultHandle::disabled(), true);
    let (mut store, sets) = (stack.store, stack.sets);
    let nodes: Vec<&ReplicaNode> = sets
        .iter()
        .flat_map(|s| s.nodes().iter().map(|n| &**n))
        .collect();
    let keys: Vec<String> = [(1, 1), (1, 2), (1, 3), (2, 1), (3, 1)]
        .iter()
        .map(|&(pid, seq)| ImageKey::new("job", pid, seq).to_string())
        .chain(["scratch".to_string()])
        .collect();
    let cost = CostModel::circa_2005();
    let mut g = Gen::new(seed);
    // What each key may hold: several values once an operation on it was
    // refused part-way, `None` for absent. A key not here is absent.
    let mut may: BTreeMap<String, Vec<Option<Vec<u8>>>> = BTreeMap::new();
    // The frames this schedule damaged and no operation has made whole:
    // (node, key).
    let mut damaged: BTreeSet<(usize, String)> = BTreeSet::new();
    for step in 0..300 {
        let key = keys[g.range(0, keys.len() as u64) as usize].clone();
        let at = format!("{label} seed {seed} step {step} key {key}");
        let held = may.get(&key).cloned().unwrap_or_else(|| vec![None]);
        match g.range(0, 20) {
            0..=6 => {
                // A fresh object, or an edit of one a key may hold (so the
                // dedup stacks find shared chunks and write deltas).
                let mut data = match may.values().flatten().flatten().next() {
                    Some(v) if g.flag() => v.clone(),
                    _ => {
                        let max = if g.range(0, 4) == 0 { 30_000 } else { 3_000 };
                        let len = g.range(0, max) as usize;
                        g.bytes(len)
                    }
                };
                for _ in 0..g.range(0, 4) {
                    if !data.is_empty() {
                        let i = g.range(0, data.len() as u64) as usize;
                        data[i] = g.byte();
                    }
                }
                let next = match store.store(&key, &data, &cost) {
                    Ok(_) => vec![Some(data)],
                    Err(_) => held.into_iter().chain([Some(data)]).collect(),
                };
                may.insert(key, next);
            }
            7..=10 => match store.load(&key, &cost) {
                Ok((bytes, _)) => {
                    met[0] += 1;
                    assert!(
                        held.contains(&Some(bytes.clone())),
                        "{at}: load returned {} bytes the model does not allow",
                        bytes.len()
                    );
                    // The read settled the key on the value it returned —
                    // but a refused delete may still land: its tombstones
                    // stay on the nodes it reached.
                    let absent = held.contains(&None).then_some(None);
                    may.insert(key, [Some(bytes)].into_iter().chain(absent).collect());
                }
                Err(StorageError::NotFound(_)) => {
                    met[1] += 1;
                    assert!(held.contains(&None), "{at}: a stored key reads as absent");
                }
                Err(_) => met[1] += 1,
            },
            11..=12 => {
                let next = match store.delete(&key) {
                    Ok(()) => vec![None],
                    Err(_) => held.into_iter().chain([None]).collect(),
                };
                may.insert(key, next);
            }
            13 => {
                let listed = store.list();
                if nodes.iter().all(|n| !n.is_down()) {
                    for (k, vs) in &may {
                        if vs.iter().all(Option::is_some) {
                            assert!(listed.contains(k), "{at}: committed {k} is not listed");
                        }
                    }
                }
            }
            14 => nodes[g.range(0, nodes.len() as u64) as usize].fail(),
            15..=17 => nodes[g.range(0, nodes.len() as u64) as usize].repair(),
            _ => {
                // Damage one replica's frame: an image key's, or any key
                // the node holds (dedup chunks included).
                let i = g.range(0, nodes.len() as u64) as usize;
                let mut candidates = nodes[i].keys();
                candidates.push(key);
                let k = candidates[g.range(0, candidates.len() as u64) as usize].clone();
                nodes[i].corrupt_key(&k);
                damaged.insert((i, k));
            }
        }
        // No layer leaves a damaged frame of its own making; a damaged
        // frame that was read-repaired or rewritten leaves the set.
        for (i, node) in nodes.iter().enumerate() {
            let held = node.keys().into_iter().chain(keys.iter().cloned());
            let held: BTreeSet<String> = held.collect();
            let Some(frames) = node.visible_frames(held.iter().map(String::as_str)) else {
                continue;
            };
            for (k, frame) in held.into_iter().zip(frames) {
                let whole = frame.is_none_or(|f| f.intact());
                let was_damaged = damaged.contains(&(i, k.clone()));
                assert!(whole || was_damaged, "{at}: node {i} holds a damaged {k}");
                if whole && was_damaged {
                    damaged.remove(&(i, k));
                }
            }
        }
    }
}

#[test]
fn every_redundant_stack_matches_the_reference_model() {
    let mut met: BTreeMap<&str, [u32; 2]> = BTreeMap::new();
    for seed in 0..24 {
        for label in REDUNDANT {
            run_redundant_schedule(label, seed, met.entry(label).or_default());
        }
    }
    for (label, m) in met {
        assert!(
            m.iter().all(|&n| n > 0),
            "{label} never met one of [a load that returned bytes, a refused load]: {m:?}"
        );
    }
}
