//! Property checks on the striped router, written once over
//! `Striped<S>`: `stripe_properties.rs` instantiates them with
//! quorum-replicated members, `erasure_properties.rs` with coded shard
//! groups. A check takes the per-case pool (built by the caller from the
//! case number, so each tier keeps its own geometry table) together with
//! what the tiers genuinely differ in: how many node losses a stripe
//! tolerates, and what its typed refusal looks like.

// Each of the two targets uses its own subset.
#![allow(dead_code)]

use ckpt_restart::ec::{EcStripedStore, ErasureStore};
use ckpt_restart::replica::{
    ReplicaConfig, ReplicaSet, ReplicatedStore, StripeMember, Striped, StripedReplicaSet,
    StripedStore,
};
use ckpt_restart::storage::{StableStorage, StorageError};
use simos::cost::CostModel;

use crate::common::Gen;

pub const CASES: u64 = 24;

/// A fresh `stripes`-wide pool of `(n, w)` quorum-replicated sets.
pub fn replicated_pool(stripes: usize, n: usize, w: usize) -> StripedStore {
    Striped::new(StripedReplicaSet::new(stripes, n), |set| {
        ReplicatedStore::new(set, ReplicaConfig::new(n, w))
    })
}

/// A fresh `stripes`-wide pool of RS(k, m) shard groups.
pub fn coded_pool(stripes: usize, k: usize, m: usize) -> EcStripedStore {
    Striped::new(StripedReplicaSet::new(stripes, k + m), |set| {
        ErasureStore::new(set, k, m)
    })
}

/// Random object set: distinct keys (plain object keys and image-style
/// lineage keys both appear) with random payloads.
pub fn arb_objects(g: &mut Gen) -> Vec<(String, Vec<u8>)> {
    let count = g.range(6, 17) as usize;
    (0..count)
        .map(|i| {
            let key = if g.flag() {
                format!("job{}/pid{}/seq{:08}", g.range(0, 3), i, g.range(1, 5))
            } else {
                format!("obj/{i}/{}", g.range(0, 1_000_000))
            };
            let len = g.range(1, 2048) as usize;
            (key, g.bytes(len))
        })
        .collect()
}

/// Damage `count` distinct nodes' frames under `key`: each victim either
/// loses its frame outright or keeps a corrupted copy. Returns the
/// victims so the caller can verify post-read repair.
pub fn damage_frames(g: &mut Gen, set: &ReplicaSet, key: &str, count: usize) -> Vec<usize> {
    let n = set.len();
    let mut victims: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = g.range(0, (i + 1) as u64) as usize;
        victims.swap(i, j);
    }
    victims.truncate(count);
    for &r in &victims {
        if g.flag() {
            set.node(r).drop_key(key);
        } else {
            set.node(r).corrupt_key(key);
        }
    }
    victims
}

/// One case of a striped property: the pool, how many damaged or lost
/// nodes per object a stripe masks, and whether an error is this tier's
/// well-formed typed refusal.
pub struct Case<S> {
    pub store: Striped<S>,
    pub tolerated: usize,
    pub refusal: Box<dyn Fn(&StorageError) -> bool>,
}

/// Per-stripe frame damage: objects on stripes damaged within tolerance
/// read back byte-identical, objects on stripes damaged one past it refuse
/// typed — never wrong bytes — and no stripe's damage bleeds into another.
pub fn per_stripe_damage_is_contained_and_typed<S: StripeMember>(
    seed: u64,
    case_of: impl Fn(u64) -> Case<S>,
) {
    let cost = CostModel::circa_2005();
    let mut lost_objects = 0u64;
    let mut healthy_objects = 0u64;
    for case in 0..CASES {
        let mut g = Gen::new(seed + case);
        let Case {
            mut store,
            tolerated,
            refusal,
        } = case_of(case);
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

        // Adversary: each stripe independently draws a damage level —
        // within tolerance or exactly one past it (enough copies stay
        // visible that the read must *notice* the loss rather than see an
        // empty stripe).
        let set = store.striped_set();
        let levels: Vec<usize> = (0..set.width())
            .map(|_| g.range(0, (tolerated + 2) as u64) as usize)
            .collect();
        for (key, _) in &objects {
            let j = set.route(key);
            if levels[j] > 0 {
                damage_frames(&mut g, &set.stripe(j), key, levels[j]);
            }
        }

        for (key, payload) in &objects {
            let j = set.route(key);
            if levels[j] <= tolerated {
                // Healthy or tolerated stripe: byte-identical read, no
                // cross-stripe bleed from the mauled stripes.
                let (bytes, _) = store.load(key, &cost).unwrap_or_else(|e| {
                    panic!("case {case}: tolerated stripe {j} refused {key}: {e}")
                });
                assert_eq!(
                    &bytes, payload,
                    "case {case}: stripe {j} returned wrong bytes for {key}"
                );
                healthy_objects += 1;
            } else {
                match store.load(key, &cost) {
                    Err(e) if refusal(&e) => lost_objects += 1,
                    Ok(_) => panic!(
                        "case {case}: stripe {j} is past tolerance for {key} but a read succeeded"
                    ),
                    Err(other) => {
                        panic!("case {case}: expected the typed refusal for {key}, got {other}")
                    }
                }
            }
        }
    }
    // The sweep actually exercised both sides of the boundary.
    assert!(lost_objects > 0, "adversary never broke a stripe");
    assert!(
        healthy_objects > 0,
        "adversary never left a readable stripe"
    );
}

/// The coarsest adversary: power off `kill(tolerated)` nodes of one
/// stripe — more than it masks. Every object routed elsewhere stays
/// byte-identical; every object on the dead stripe refuses typed.
pub fn dead_stripe_never_bleeds_into_the_others<S: StripeMember>(
    seed: u64,
    case_of: impl Fn(u64) -> Case<S>,
    kill: impl Fn(&Case<S>) -> usize,
) {
    let cost = CostModel::circa_2005();
    for case in 0..CASES {
        let mut g = Gen::new(seed + case);
        let c = case_of(case);
        let kill = kill(&c);
        let Case {
            mut store, refusal, ..
        } = c;
        let objects = arb_objects(&mut g);
        for (key, payload) in &objects {
            store.store(key, payload, &cost).unwrap();
        }
        let set = store.striped_set();
        let dead = g.range(0, set.width() as u64) as usize;
        for r in 0..kill {
            set.stripe(dead).node(r).fail();
        }
        for (key, payload) in &objects {
            if set.route(key) == dead {
                match store.load(key, &cost) {
                    Err(e) if refusal(&e) => {}
                    other => panic!(
                        "case {case}: dead stripe {dead} must refuse {key} typed, got {other:?}"
                    ),
                }
            } else {
                let (bytes, _) = store
                    .load(key, &cost)
                    .unwrap_or_else(|e| panic!("case {case}: healthy stripe refused {key}: {e}"));
                assert_eq!(
                    &bytes, payload,
                    "case {case}: dead stripe {dead} bled into {key}"
                );
            }
        }
    }
}

/// Knock one stripe below its write quorum (`tolerated + 1` nodes down),
/// attempt overwrites everywhere, and require (a) a typed refusal without
/// data loss on the dead stripe and (b) untouched success on every other
/// stripe.
pub fn failed_overwrite_preserves_committed_values_per_stripe<S: StripeMember>(
    seed: u64,
    case_of: impl Fn(u64) -> Case<S>,
) {
    let cost = CostModel::circa_2005();
    for case in 0..CASES {
        let mut g = Gen::new(seed + case);
        let Case {
            mut store,
            tolerated,
            ..
        } = case_of(case);
        let objects = arb_objects(&mut g);
        for (key, payload) in &objects {
            store.store(key, payload, &cost).unwrap();
        }

        // Reads of the wounded stripe may still succeed, but an overwrite
        // cannot reach its write quorum.
        let set = store.striped_set();
        let dead = g.range(0, set.width() as u64) as usize;
        for r in 0..=tolerated {
            set.stripe(dead).node(r).fail();
        }

        for (key, payload) in &objects {
            let overwrite = g.bytes(payload.len().max(1));
            if set.route(key) == dead {
                let err = store.store(key, &overwrite, &cost).unwrap_err();
                assert!(
                    matches!(err, StorageError::QuorumLost { .. }),
                    "case {case}: dead stripe must refuse the overwrite typed, got {err}"
                );
            } else {
                store.store(key, &overwrite, &cost).unwrap_or_else(|e| {
                    panic!("case {case}: healthy stripe refused overwrite of {key}: {e}")
                });
            }
        }

        // The dead stripe's nodes come back: every refused overwrite
        // must have left the original value intact.
        for r in 0..=tolerated {
            set.stripe(dead).node(r).repair();
        }
        for (key, payload) in &objects {
            if set.route(key) == dead {
                let (bytes, _) = store.load(key, &cost).unwrap_or_else(|e| {
                    panic!("case {case}: {key} lost after failed overwrite: {e}")
                });
                assert_eq!(
                    &bytes, payload,
                    "case {case}: failed overwrite destroyed the committed value of {key}"
                );
            }
        }
    }
}
