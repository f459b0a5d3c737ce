//! Property tests on the erasure-coded store: random object sets coded
//! over k data + m parity shard nodes, then subjected to adversarial
//! per-object shard damage. The invariants:
//!
//! * objects with at most `m` damaged shards (dropped or corrupted, in
//!   any mix) read back byte-identical — decode masks the damage and
//!   read-repair leaves every touched shard digest-valid again;
//! * objects with more than `m` damaged shards refuse with a typed
//!   [`StorageError::TooManyShardsLost`] — never wrong bytes;
//! * in the striped variant, mauling one stripe's shard group NEVER
//!   bleeds into objects routed to other stripes (the striped checks are
//!   the generic ones of `common/striped.rs`, shared with
//!   `stripe_properties.rs`; this file supplies the coded geometry).
//!
//! Cases are generated deterministically by [`common::Gen`]; a failing
//! seed reproduces directly.

mod common;
#[path = "common/striped.rs"]
mod striped;

use ckpt_restart::ec::ErasureStore;
use ckpt_restart::replica::Probe;
use ckpt_restart::storage::{StableStorage, StorageError};
use striped::{arb_objects, Case, CASES};
use common::Gen;
use simos::cost::CostModel;

fn geometry(case: u64) -> (usize, usize) {
    if case.is_multiple_of(2) {
        (4, 2)
    } else {
        (8, 3)
    }
}

/// A well-formed `TooManyShardsLost` under RS(k, ·).
fn shards_lost(k: usize) -> impl Fn(&StorageError) -> bool {
    move |e| {
        matches!(*e, StorageError::TooManyShardsLost { intact, needed }
            if (intact as usize) < k && needed as usize == k)
    }
}

fn striped_case_of(case: u64) -> Case<ErasureStore> {
    let (k, m) = geometry(case);
    let stripes = [2usize, 3, 4][(case % 3) as usize];
    Case {
        store: striped::coded_pool(stripes, k, m),
        tolerated: m,
        refusal: Box::new(shards_lost(k)),
    }
}

#[test]
fn shard_damage_within_m_is_masked_and_typed_beyond() {
    let cost = CostModel::circa_2005();
    let mut lost_objects = 0u64;
    let mut healthy_objects = 0u64;
    for case in 0..CASES {
        let mut g = Gen::new(93_000 + case);
        let (k, m) = geometry(case);
        let mut store = ErasureStore::fresh(k, m);
        let objects = arb_objects(&mut g);
        // Mix the two commit paths: single stores and one framed batch.
        let (head, tail) = objects.split_at(objects.len() / 2);
        for (key, payload) in head {
            store.store(key, payload, &cost).unwrap();
        }
        if !tail.is_empty() {
            let batch: Vec<(&str, &[u8])> = tail
                .iter()
                .map(|(k, p)| (k.as_str(), p.as_slice()))
                .collect();
            store.store_batch(&batch, &cost).unwrap();
        }

        // Adversary: each object independently draws a damage level —
        // within tolerance (0..=m) or exactly one past it (m + 1 shards
        // gone leaves k − 1 intact, so the decode must *notice* the
        // shortfall rather than run on whatever it can reach).
        let set = store.replica_set();
        let mut damaged: Vec<(usize, Vec<usize>)> = Vec::new();
        for (key, _) in &objects {
            let level = g.range(0, (m + 2) as u64) as usize;
            let victims = if level > 0 {
                striped::damage_frames(&mut g, &set, key, level)
            } else {
                Vec::new()
            };
            damaged.push((level, victims));
        }

        for ((key, payload), (level, victims)) in objects.iter().zip(&damaged) {
            if *level <= m {
                // Tolerated damage: byte-identical read, and read-repair
                // must leave every victim holding a digest-valid shard.
                let (bytes, _) = store.load(key, &cost).unwrap_or_else(|e| {
                    panic!("case {case}: {level} of {m} tolerated losses refused {key}: {e}")
                });
                assert_eq!(
                    &bytes, payload,
                    "case {case}: rs({k},{m}) returned wrong bytes for {key}"
                );
                for &r in victims {
                    assert!(
                        matches!(set.node(r).probe(key), Probe::Valid(_)),
                        "case {case}: shard {r} of {key} not repaired after read"
                    );
                }
                healthy_objects += 1;
            } else {
                // Fewer than k shards intact: typed refusal, never bytes.
                match store.load(key, &cost) {
                    Err(StorageError::TooManyShardsLost { intact, needed }) => {
                        assert!(
                            (intact as usize) < k && needed as usize == k,
                            "case {case}: nonsensical shard arithmetic {intact}/{needed}"
                        );
                        lost_objects += 1;
                    }
                    Ok(_) => panic!(
                        "case {case}: {key} lost {level} > m = {m} shards but a read succeeded"
                    ),
                    Err(other) => panic!(
                        "case {case}: expected TooManyShardsLost for {key}, got {other}"
                    ),
                }
            }
        }
    }
    // The sweep actually exercised both sides of the boundary.
    assert!(lost_objects > 0, "adversary never exceeded the coding tolerance");
    assert!(healthy_objects > 0, "adversary never left a decodable object");
}

#[test]
fn node_failstop_within_m_leaves_every_object_readable() {
    // The coarsest adversary: power off whole shard nodes. Up to m dead
    // nodes cost nothing observable but reconstruction work; the
    // (m + 1)-th makes every object refuse with a typed error.
    let cost = CostModel::circa_2005();
    for case in 0..CASES {
        let mut g = Gen::new(94_000 + case);
        let (k, m) = geometry(case);
        let mut store = ErasureStore::fresh(k, m);
        let objects = arb_objects(&mut g);
        for (key, payload) in &objects {
            store.store(key, payload, &cost).unwrap();
        }
        let set = store.replica_set();
        let mut order: Vec<usize> = (0..k + m).collect();
        for i in (1..order.len()).rev() {
            let j = g.range(0, (i + 1) as u64) as usize;
            order.swap(i, j);
        }
        for &r in order.iter().take(m) {
            set.node(r).fail();
        }
        for (key, payload) in &objects {
            let (bytes, _) = store.load(key, &cost).unwrap_or_else(|e| {
                panic!("case {case}: rs({k},{m}) refused {key} with {m} nodes down: {e}")
            });
            assert_eq!(
                &bytes, payload,
                "case {case}: wrong bytes for {key} with {m} nodes down"
            );
        }
        set.node(order[m]).fail();
        let (probe_key, _) = &objects[g.range(0, objects.len() as u64) as usize];
        match store.load(probe_key, &cost) {
            Err(StorageError::TooManyShardsLost { intact, needed }) => {
                assert!(
                    (intact as usize) < k && needed as usize == k,
                    "case {case}: nonsensical shard arithmetic {intact}/{needed}"
                );
            }
            other => panic!(
                "case {case}: {} nodes down must refuse typed, got {other:?}",
                m + 1
            ),
        }
    }
}

#[test]
fn stripe_group_damage_never_bleeds_across_stripes() {
    // EC-striped variant: kill one stripe's shard group past its coding
    // tolerance. Objects routed there refuse typed; every object on the
    // other stripes stays byte-identical.
    striped::dead_stripe_never_bleeds_into_the_others(95_000, striped_case_of, |c| {
        c.tolerated + 1
    });
}

#[test]
fn per_stripe_shard_damage_is_contained_and_typed() {
    striped::per_stripe_damage_is_contained_and_typed(99_000, striped_case_of);
}

// ---------------------------------------------------------------------
// Durability regressions: a failed overwrite must never destroy the
// previously committed value (promoted from the PR-9 review scratch
// test, extended over the striped and replicated-batch commit paths).
// ---------------------------------------------------------------------

use ckpt_restart::replica::ReplicatedStore;

#[test]
fn failed_overwrite_under_quorum_loss_preserves_committed_value() {
    // The two-phase commit's reason to exist: when an overwrite cannot
    // reach its write quorum, the store must refuse *and leave the old
    // committed frames untouched* — losing v1 while failing to commit v2
    // would turn a transient outage into data loss.
    let cost = CostModel::circa_2005();
    let mut s = ErasureStore::fresh(4, 2);
    let v1 = vec![7u8; 4096];
    s.store("k", &v1, &cost).unwrap();
    // v1 is committed on all 6 nodes and readable.
    assert_eq!(s.load("k", &cost).unwrap().0, v1);

    // Two shard nodes go down; an overwrite attempt misses quorum (needs 5).
    s.replica_set().node(4).fail();
    s.replica_set().node(5).fail();
    let err = s.store("k", &vec![9u8; 4096], &cost).unwrap_err();
    assert!(matches!(err, StorageError::QuorumLost { .. }));

    // Nodes come back; the old committed value must still be readable.
    s.replica_set().node(4).repair();
    s.replica_set().node(5).repair();
    match s.load("k", &cost) {
        Ok((bytes, _)) => assert_eq!(bytes, v1, "wrong bytes back"),
        Err(e) => panic!("previously committed value lost after failed overwrite: {e}"),
    }
}

#[test]
fn striped_failed_overwrite_preserves_committed_values_per_stripe() {
    // Same invariant through the striped front: m + 1 nodes of one stripe
    // down leaves its reads decodable (k intact) but its overwrites short
    // of the full-group write quorum.
    striped::failed_overwrite_preserves_committed_values_per_stripe(96_000, striped_case_of);
}

#[test]
fn replicated_failed_batch_preserves_every_committed_value() {
    // The framed multi-object batch is all-or-nothing: if the batch
    // cannot commit (quorum lost mid-flight), *no* object in it may be
    // torn — every key must still read back its previously committed
    // value after the nodes return.
    let cost = CostModel::circa_2005();
    for case in 0..CASES {
        let mut g = Gen::new(97_000 + case);
        let (n, w) = if case.is_multiple_of(2) { (3usize, 2usize) } else { (5, 3) };
        let mut store = ReplicatedStore::fresh(n, w);
        let objects = arb_objects(&mut g);
        let v1: Vec<(&str, &[u8])> = objects
            .iter()
            .map(|(k, p)| (k.as_str(), p.as_slice()))
            .collect();
        store.store_batch(&v1, &cost).unwrap();

        // Lose enough replicas that the write quorum is unreachable.
        let set = store.replica_set();
        for r in 0..=(n - w) {
            set.node(r).fail();
        }
        let overwrites: Vec<(String, Vec<u8>)> = objects
            .iter()
            .map(|(k, p)| (k.clone(), g.bytes(p.len().max(1))))
            .collect();
        let v2: Vec<(&str, &[u8])> = overwrites
            .iter()
            .map(|(k, p)| (k.as_str(), p.as_slice()))
            .collect();
        let err = store.store_batch(&v2, &cost).unwrap_err();
        assert!(
            matches!(err, StorageError::QuorumLost { .. }),
            "case {case}: batch under quorum loss must refuse typed, got {err}"
        );

        for r in 0..=(n - w) {
            set.node(r).repair();
        }
        for (key, payload) in &objects {
            let (bytes, _) = store.load(key, &cost).unwrap_or_else(|e| {
                panic!("case {case}: {key} lost after failed batch: {e}")
            });
            assert_eq!(
                &bytes, payload,
                "case {case}: failed batch tore the committed value of {key}"
            );
        }
    }
}
