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
//! * Its read-side twin pins every read outcome — result, virtual ns,
//!   counters, every node's frame afterwards — under ten damage patterns,
//!   as captured before the two tiers became one `QuorumStore`; only the
//!   coded rows of a key whose every frame is torn moved, from a false
//!   `NotFound` to the typed refusal.
//! * Every quorum stack hands digests up and down through the fault
//!   decorator, a pool hands a caller's digest to its member's commit,
//!   and the coded tier's trace counters reach a recording sink.

use std::sync::Arc;

use ckpt_restart::ckpt::crashpoint::{build_stack, TIERS};
use ckpt_restart::ec::{EcStripedStore, ErasureStore};
use ckpt_restart::replica::{
    stripe_route, Probe, ReplicaConfig, ReplicaSet, ReplicatedStore, Striped, StripedReplicaSet,
    StripedStore,
};
use ckpt_restart::storage::{digest64, FaultInjectStore, ImageKey, StableStorage, StorageError};
use simos::apps::mix64;
use simos::cost::CostModel;
use simos::faultpoint::{Fault, FaultHandle};
use simos::trace::TraceHandle;

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

/// With faults off, the crash matrix's stack is the stack the engine
/// builds: for every redundant and `dedup(…)` label of `crashpoint::TIERS`,
/// and for `ecstriped(2x rs(4,2))`, the fault-decorated and the bare stack
/// return the same receipts, bytes, virtual ns and vouched digests through
/// `store`, `store_digested`, `load` and `load_verified`, and the same
/// batch receipt and manifests through `store_batch`. A vouched digest is
/// the bytes' `digest64`, and every quorum stack — replicated or coded,
/// striped or not — vouches.
#[test]
fn the_fault_decorator_forwards_the_digest_hand_up() {
    let off = FaultHandle::disabled();
    let labels = TIERS
        .iter()
        .flat_map(|t| t.backends.iter().copied())
        .filter(|l| {
            ["dedup(", "replicated(", "striped(", "rs("]
                .iter()
                .any(|p| l.starts_with(p))
        });
    let mut seen = 0;
    for label in labels {
        seen += 1;
        let bare = build_stack(label, &off, false).store;
        let wrapped = build_stack(label, &off, true).store;
        forwards_the_digest_hand_up(label, bare, wrapped);
    }
    assert_eq!(seen, 7, "the redundant and dedup labels of TIERS");
    let label = "ecstriped(2x rs(4,2))";
    let wrapped = FaultInjectStore::new(build(label, off.clone()).store, off.clone());
    forwards_the_digest_hand_up(label, build(label, off).store, Box::new(wrapped));
}

fn forwards_the_digest_hand_up(
    label: &str,
    mut bare: Box<dyn StableStorage>,
    mut wrapped: Box<dyn StableStorage>,
) {
    let cost = CostModel::circa_2005();
    assert_eq!(wrapped.label(), bare.label(), "{label}");
    // Two versions of one lineage, the second a small edit of the first,
    // so the dedup stacks store a raw image and then a delta.
    let v1: Vec<u8> = (0..9000u64).map(|i| mix64(i) as u8).collect();
    let mut v2 = v1.clone();
    v2[4000..4100].fill(7);
    for (seq, data) in [(1, &v1), (2, &v2)] {
        let key = ImageKey::new("fwd", 1, seq).to_string();
        let side = ImageKey::new("fwd", 2, seq).to_string();
        // A load as (whether it returned `data`, virtual ns, vouched
        // digest), so a mismatch prints what differs, not the bytes.
        let got = |r: Result<(Vec<u8>, u64, Option<u64>), StorageError>| {
            r.map(|(bytes, time_ns, vouched)| (bytes == *data, time_ns, vouched))
        };
        let run = |s: &mut Box<dyn StableStorage>| {
            (
                s.store(&key, data, &cost),
                s.store_digested(&side, data, digest64(data), &cost),
                got(s
                    .load(&key, &cost)
                    .map(|(bytes, time_ns)| (bytes, time_ns, None))),
                got(s.load_verified(&key, &cost)),
                got(s.load_verified(&side, &cost)),
            )
        };
        let want = run(&mut bare);
        assert_eq!(run(&mut wrapped), want, "{label} seq {seq}");
        let quorum = !label.starts_with("dedup(");
        for (i, load) in [want.2, want.3, want.4].into_iter().enumerate() {
            let (returned_data, _, vouched) = load.unwrap();
            assert!(returned_data, "{label} seq {seq} load {i}: other bytes");
            if i > 0 {
                assert_eq!(vouched.is_some(), quorum, "{label} seq {seq} load {i}");
            }
            if let Some(d) = vouched {
                assert_eq!(d, digest64(data), "{label} seq {seq} load {i}");
            }
        }
    }
    // A batch reaches the stack as one batch: the same receipt (ack cycles
    // included: a quorum stack group-commits) and manifests.
    let objects: Vec<(String, Vec<u8>)> = (0..3u64)
        .map(|i| {
            let bytes = (0..5000).map(|j| mix64(i * 5000 + j) as u8).collect();
            (ImageKey::new("batch", 1, i + 1).to_string(), bytes)
        })
        .collect();
    let batch: Vec<(&str, &[u8])> =
        objects.iter().map(|(k, d)| (k.as_str(), d.as_slice())).collect();
    let want = bare.store_batch(&batch, &cost);
    assert_eq!(wrapped.store_batch(&batch, &cost), want, "{label} batch");
    for (key, _) in &batch {
        let manifest = bare.replica_manifest(key);
        assert_eq!(wrapped.replica_manifest(key), manifest, "{label} batch {key}");
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

/// A stack of `STACKS` as its concrete type, so a read's stats deltas can
/// be read beside the dyn surface the rest of this file uses.
enum Concrete {
    Replicated(ReplicatedStore),
    Rs(ErasureStore),
    Striped(StripedStore),
    EcStriped(EcStripedStore),
}

impl Concrete {
    fn build(label: &str) -> (Concrete, Vec<Arc<ReplicaSet>>) {
        let quorum = ReplicaConfig::new(3, 2);
        match label {
            "replicated(3,2)" => {
                let s = ReplicatedStore::new(ReplicaSet::new(3), quorum);
                let sets = vec![s.replica_set()];
                (Concrete::Replicated(s), sets)
            }
            "rs(4,2)" => {
                let s = ErasureStore::new(ReplicaSet::new(6), 4, 2);
                let sets = vec![s.replica_set()];
                (Concrete::Rs(s), sets)
            }
            "striped(2x3,2)" => {
                let pool = StripedReplicaSet::new(2, 3);
                let s = Striped::new(pool.clone(), |s| ReplicatedStore::new(s, quorum));
                (Concrete::Striped(s), pool.stripes().to_vec())
            }
            "ecstriped(2x rs(4,2))" => {
                let pool = StripedReplicaSet::new(2, 6);
                let s = Striped::new(pool.clone(), |s| ErasureStore::new(s, 4, 2));
                (Concrete::EcStriped(s), pool.stripes().to_vec())
            }
            other => panic!("unknown stack {other}"),
        }
    }

    fn store(&mut self) -> &mut dyn StableStorage {
        match self {
            Concrete::Replicated(s) => s,
            Concrete::Rs(s) => s,
            Concrete::Striped(s) => s,
            Concrete::EcStriped(s) => s,
        }
    }

    /// The read-side counters of a plain stack (a striped pool exposes
    /// none), by name, so the rendering does not depend on a stats type.
    fn counters(&self) -> Vec<(&'static str, u64)> {
        match self {
            Concrete::Replicated(s) => {
                let st = s.stats();
                vec![
                    ("commits", st.commits),
                    ("retries", st.retries),
                    ("repairs", st.repairs),
                    ("quorum_losses", st.quorum_losses),
                    ("ack_cycles", st.ack_cycles),
                    ("payload_digests", st.payload_digests),
                ]
            }
            Concrete::Rs(s) => {
                let st = s.stats();
                vec![
                    ("commits", st.commits),
                    ("decodes", st.decodes),
                    ("repairs", st.repairs),
                    ("shard_losses", st.shard_losses),
                    ("quorum_losses", st.quorum_losses),
                    ("ack_cycles", st.ack_cycles),
                ]
            }
            Concrete::Striped(_) | Concrete::EcStriped(_) => Vec::new(),
        }
    }
}

/// The damage patterns of the read table, each applied to the set `key(1)`
/// routes to after it committed two versions.
const READ_CASES: [&str; 10] = [
    "clean",
    "down1",
    "down2",
    "down3",
    "missing",
    "torn",
    "stale",
    "tombstone",
    "unadmitted",
    "all-torn",
];

/// Run one read case: commit v1 and v2 of `key(1)` (the damage scenarios
/// that need it interleave with the commits), damage, load once, and
/// render what came back, its virtual ns, the counter deltas and every
/// node of the home set afterwards.
fn read_case(label: &str, case: &str) -> String {
    let cost = CostModel::circa_2005();
    let (mut concrete, sets) = Concrete::build(label);
    let k = key(1);
    let set = sets[stripe_route(&k, sets.len())].clone();
    let store = concrete.store();
    store.store(&k, &payload(1, 1), &cost).unwrap();
    match case {
        // Node 0 misses the overwrite and keeps v1; in "unadmitted" it is
        // then reachable but refuses every load admission retry: the
        // default schedule retries 6 times, so 7 transients outlast it.
        "stale" | "unadmitted" => {
            set.node(0).fail();
            store.store(&k, &payload(1, 2), &cost).unwrap();
            set.node(0).repair();
            if case == "unadmitted" {
                set.node(0).inject_transients(7);
            }
        }
        // Node 2 misses the delete and keeps v1.
        "tombstone" => {
            set.node(2).fail();
            store.delete(&k).unwrap();
            set.node(2).repair();
        }
        _ => {
            store.store(&k, &payload(1, 2), &cost).unwrap();
        }
    }
    match case {
        "down1" | "down2" | "down3" => {
            let down: usize = case["down".len()..].parse().unwrap();
            for i in 0..down {
                set.node(i).fail();
            }
        }
        "missing" => set.node(1).drop_key(&k),
        "torn" => set.node(1).corrupt_key(&k),
        "all-torn" => {
            for node in set.nodes() {
                node.corrupt_key(&k);
            }
        }
        _ => {}
    }
    let before = concrete.counters();
    let ingested = set.bytes_ingested();
    let result = match concrete.store().load(&k, &cost) {
        Ok((bytes, ns)) => format!("ok {:016x}/{} {ns}ns", digest64(&bytes), bytes.len()),
        Err(e) => format!("{e:?}"),
    };
    let deltas: Vec<String> = concrete
        .counters()
        .iter()
        .zip(&before)
        .filter(|((_, now), (_, then))| now != then)
        .map(|((name, now), (_, then))| format!("{name}+{}", now - then))
        .collect();
    let nodes: Vec<String> = set
        .nodes()
        .iter()
        .map(|n| match n.probe(&k) {
            Probe::Missing => "-".to_string(),
            Probe::Torn { version } => format!("t{version}"),
            Probe::Valid(f) if f.tombstone => format!("x{}", f.version),
            Probe::Valid(f) => format!("v{}", f.version),
        })
        .collect();
    format!(
        "{label} {case}: {result} [{}] {{{}}} +{}B",
        nodes.join(" "),
        deltas.join(" "),
        set.bytes_ingested() - ingested
    )
}

/// Every read outcome of the four stacks under each damage pattern, as
/// captured before the two quorum tiers were folded onto one store: the
/// result (the bytes' digest and length, or the typed error with its
/// fields), the virtual ns, the counter deltas of the plain stacks, every
/// home node's frame afterwards (`v<n>` intact, `t<n>` torn, `x<n>`
/// tombstone, `-` missing) and the bytes a repair moved.
#[test]
fn every_read_outcome_is_pinned() {
    let got: Vec<String> = STACKS
        .iter()
        .flat_map(|label| READ_CASES.iter().map(move |case| read_case(label, case)))
        .collect();
    let want: Vec<&str> = READ_TABLE.lines().map(str::trim).filter(|l| !l.is_empty()).collect();
    if got.len() != want.len() {
        panic!("{} rows, expected {}:\n{}", got.len(), want.len(), got.join("\n"));
    }
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(g, w, "read row diverges; the whole table:\n{}", got.join("\n"));
    }
}

/// One row per (stack, case), stack-major; see [`read_case`].
const READ_TABLE: &str = "
replicated(3,2) clean: ok 14308e728f3bd53c/97 20388ns [v2 v2 v2] {} +0B
replicated(3,2) down1: ok 14308e728f3bd53c/97 20388ns [v2 v2 v2] {} +0B
replicated(3,2) down2: QuorumLost { acked: 1, needed: 2 } [v2 v2 v2] {quorum_losses+1} +0B
replicated(3,2) down3: QuorumLost { acked: 0, needed: 2 } [v2 v2 v2] {quorum_losses+1} +0B
replicated(3,2) missing: ok 14308e728f3bd53c/97 20776ns [v2 v2 v2] {repairs+1} +97B
replicated(3,2) torn: ok 14308e728f3bd53c/97 20776ns [v2 v2 v2] {repairs+1} +97B
replicated(3,2) stale: ok 14308e728f3bd53c/97 20776ns [v2 v2 v2] {repairs+1} +97B
replicated(3,2) tombstone: NotFound(\"job/pid1/seq00000001\") [x2 x2 x2] {repairs+1} +0B
replicated(3,2) unadmitted: ok 14308e728f3bd53c/97 2198185ns [v2 v2 v2] {retries+6 repairs+1} +97B
replicated(3,2) all-torn: QuorumLost { acked: 0, needed: 2 } [t2 t2 t2] {quorum_losses+1} +0B
rs(4,2) clean: ok 14308e728f3bd53c/97 20784ns [v2 v2 v2 v2 v2 v2] {} +0B
rs(4,2) down1: ok 14308e728f3bd53c/97 20784ns [v2 v2 v2 v2 v2 v2] {decodes+1} +0B
rs(4,2) down2: ok 14308e728f3bd53c/97 20784ns [v2 v2 v2 v2 v2 v2] {decodes+1} +0B
rs(4,2) down3: TooManyShardsLost { intact: 3, needed: 4 } [v2 v2 v2 v2 v2 v2] {shard_losses+1} +0B
rs(4,2) missing: ok 14308e728f3bd53c/97 20980ns [v2 v2 v2 v2 v2 v2] {decodes+1 repairs+1} +49B
rs(4,2) torn: ok 14308e728f3bd53c/97 20980ns [v2 v2 v2 v2 v2 v2] {decodes+1 repairs+1} +49B
rs(4,2) stale: ok 14308e728f3bd53c/97 20980ns [v2 v2 v2 v2 v2 v2] {decodes+1 repairs+1} +49B
rs(4,2) tombstone: NotFound(\"job/pid1/seq00000001\") [x2 x2 x2 x2 x2 x2] {repairs+1} +0B
rs(4,2) unadmitted: ok 14308e728f3bd53c/97 2198389ns [v2 v2 v2 v2 v2 v2] {decodes+1 repairs+1} +49B
rs(4,2) all-torn: TooManyShardsLost { intact: 0, needed: 4 } [t2 t2 t2 t2 t2 t2] {shard_losses+1} +0B
striped(2x3,2) clean: ok 14308e728f3bd53c/97 20388ns [v2 v2 v2] {} +0B
striped(2x3,2) down1: ok 14308e728f3bd53c/97 20388ns [v2 v2 v2] {} +0B
striped(2x3,2) down2: QuorumLost { acked: 1, needed: 2 } [v2 v2 v2] {} +0B
striped(2x3,2) down3: QuorumLost { acked: 0, needed: 2 } [v2 v2 v2] {} +0B
striped(2x3,2) missing: ok 14308e728f3bd53c/97 20776ns [v2 v2 v2] {} +97B
striped(2x3,2) torn: ok 14308e728f3bd53c/97 20776ns [v2 v2 v2] {} +97B
striped(2x3,2) stale: ok 14308e728f3bd53c/97 20776ns [v2 v2 v2] {} +97B
striped(2x3,2) tombstone: NotFound(\"job/pid1/seq00000001\") [x2 x2 x2] {} +0B
striped(2x3,2) unadmitted: ok 14308e728f3bd53c/97 2198185ns [v2 v2 v2] {} +97B
striped(2x3,2) all-torn: QuorumLost { acked: 0, needed: 2 } [t2 t2 t2] {} +0B
ecstriped(2x rs(4,2)) clean: ok 14308e728f3bd53c/97 20784ns [v2 v2 v2 v2 v2 v2] {} +0B
ecstriped(2x rs(4,2)) down1: ok 14308e728f3bd53c/97 20784ns [v2 v2 v2 v2 v2 v2] {} +0B
ecstriped(2x rs(4,2)) down2: ok 14308e728f3bd53c/97 20784ns [v2 v2 v2 v2 v2 v2] {} +0B
ecstriped(2x rs(4,2)) down3: TooManyShardsLost { intact: 3, needed: 4 } [v2 v2 v2 v2 v2 v2] {} +0B
ecstriped(2x rs(4,2)) missing: ok 14308e728f3bd53c/97 20980ns [v2 v2 v2 v2 v2 v2] {} +49B
ecstriped(2x rs(4,2)) torn: ok 14308e728f3bd53c/97 20980ns [v2 v2 v2 v2 v2 v2] {} +49B
ecstriped(2x rs(4,2)) stale: ok 14308e728f3bd53c/97 20980ns [v2 v2 v2 v2 v2 v2] {} +49B
ecstriped(2x rs(4,2)) tombstone: NotFound(\"job/pid1/seq00000001\") [x2 x2 x2 x2 x2 x2] {} +0B
ecstriped(2x rs(4,2)) unadmitted: ok 14308e728f3bd53c/97 2198389ns [v2 v2 v2 v2 v2 v2] {} +49B
ecstriped(2x rs(4,2)) all-torn: TooManyShardsLost { intact: 0, needed: 4 } [t2 t2 t2 t2 t2 t2] {} +0B
";

/// A committed key whose every frame is torn exists: both codings refuse
/// it with their typed error and count the refusal, and neither reports
/// it as never written (which `NotFound` would claim).
#[test]
fn a_key_whose_every_frame_is_torn_is_refused_not_absent() {
    let cost = CostModel::circa_2005();
    let data = payload(1, 1);
    let mut rs = ErasureStore::fresh(4, 2);
    rs.store("k", &data, &cost).unwrap();
    for node in rs.replica_set().nodes() {
        node.corrupt_key("k");
    }
    assert_eq!(
        rs.load("k", &cost),
        Err(StorageError::TooManyShardsLost { intact: 0, needed: 4 })
    );
    assert_eq!(rs.stats().shard_losses, 1);

    let mut rep = ReplicatedStore::fresh(3, 2);
    rep.store("k", &data, &cost).unwrap();
    for node in rep.replica_set().nodes() {
        node.corrupt_key("k");
    }
    assert_eq!(
        rep.load("k", &cost),
        Err(StorageError::QuorumLost { acked: 0, needed: 2 })
    );
    assert_eq!(rep.stats().quorum_losses, 1);
}

/// A pool takes the digest a caller hands down as its bare member does: a
/// store under a digest that is not the data's leaves frames the next
/// load refuses, with the member's own typed error. A pool that hashed
/// the bytes again instead would return them.
#[test]
fn a_pool_commits_under_the_digest_handed_down() {
    let cost = CostModel::circa_2005();
    let data = payload(1, 1);
    let refusal = |label: &str| {
        let mut s = build(label, FaultHandle::disabled()).store;
        s.store_digested(&key(1), &data, !digest64(&data), &cost)
            .unwrap();
        s.load(&key(1), &cost).map(|(bytes, _)| bytes == data)
    };
    for (pool, member) in [
        ("striped(2x3,2)", "replicated(3,2)"),
        ("ecstriped(2x rs(4,2))", "rs(4,2)"),
    ] {
        let want = refusal(member);
        assert!(want.is_err(), "{member}: {want:?}");
        assert_eq!(refusal(pool), want, "{pool}");
    }
}

/// The coded tier's trace counters reach a recording sink, given to one
/// store or to every stripe of a pool: a commit counts an encode, a read
/// that lost a data shard a decode and a shard repair, a read past `m`
/// losses a shard loss.
#[test]
fn erasure_counters_reach_a_recording_trace() {
    let cost = CostModel::circa_2005();
    let trace = TraceHandle::recording();
    let mut rs = ErasureStore::fresh(4, 2).with_trace(trace.clone());
    rs.store("k", &payload(1, 1), &cost).unwrap();
    rs.replica_set().node(0).corrupt_key("k");
    assert_eq!(rs.load("k", &cost).unwrap().0, payload(1, 1));
    for i in 0..3 {
        rs.replica_set().node(i).fail();
    }
    assert!(matches!(
        rs.load("k", &cost),
        Err(StorageError::TooManyShardsLost { .. })
    ));
    let report = trace.report();
    for (name, n) in [
        ("erasure.encodes", 1),
        ("erasure.decodes", 1),
        ("erasure.shard_repairs", 1),
        ("erasure.shard_losses", 1),
    ] {
        assert_eq!(report.counter(name), n, "{name}");
    }

    let trace = TraceHandle::recording();
    let pool = StripedReplicaSet::new(2, 6);
    let mut striped =
        Striped::new(pool, |s| ErasureStore::new(s, 4, 2)).with_trace(trace.clone());
    commit(&mut striped, &[1, 2, 3, 4], 1).unwrap();
    assert_eq!(trace.report().counter("erasure.encodes"), 4, "both stripes count");
}
