//! Property tests on the *stored* incremental-chain algebra: random
//! full+incremental chains written through a real backend, with random
//! prunes interleaved, must always materialize to the same image — and a
//! prune that would orphan a later increment must be rejected with a typed
//! error, leaving storage untouched (never silently reordered or repaired).
//!
//! Cases are generated deterministically by [`common::Gen`]; a failing
//! seed reproduces directly.

mod common;

use ckpt_restart::image::{
    CheckpointImage, ImageHeader, ImageKind, PageRecord, PolicyRecord, ProgramRecord, RegsRecord,
    SigRecord,
};
use ckpt_restart::image::ChainError;
use ckpt_restart::storage::{
    load_latest_chain, prune_before, prune_superseded, store_image, ImageStoreError, LocalDisk,
    StableStorage,
};
use common::Gen;
use simos::cost::CostModel;
use std::collections::BTreeMap;

const CASES: u64 = 48;
const PID: u32 = 7;
const JOB: &str = "prop";

fn mk(seq: u64, parent: u64, kind: ImageKind, pages: Vec<(u64, u8)>) -> CheckpointImage {
    CheckpointImage {
        header: ImageHeader {
            pid: PID,
            seq,
            parent_seq: parent,
            kind,
            taken_at_ns: seq,
            mechanism: "prop".into(),
            node: 0,
        },
        regs: RegsRecord::default(),
        brk: 0,
        work_done: seq,
        policy: PolicyRecord { tag: 0, value: 0 },
        vmas: vec![],
        pages: pages
            .into_iter()
            .map(|(no, fill)| PageRecord::capture(no, &vec![fill; 4096]))
            .collect(),
        fds: vec![],
        files: vec![],
        sig: SigRecord::default(),
        timers: vec![],
        program: ProgramRecord::Vm {
            name: "prop".into(),
            text: vec![0],
        },
    }
}

/// Build a random chain: seq 1 is always Full, later seqs are Full with
/// probability 1/3. Returns (images, kinds by seq).
fn arb_chain(g: &mut Gen) -> Vec<CheckpointImage> {
    let len = g.range(2, 9);
    let mut chain = Vec::new();
    for seq in 1..=len {
        let full = seq == 1 || g.range(0, 3) == 0;
        let pages: Vec<(u64, u8)> = if full {
            (0u64..8).map(|i| (i, g.byte())).collect()
        } else {
            (0..g.range(1, 4)).map(|_| (g.range(0, 8), g.byte())).collect()
        };
        let kind = if full {
            ImageKind::Full
        } else {
            ImageKind::Incremental
        };
        chain.push(mk(seq, seq.saturating_sub(1), kind, pages));
    }
    chain
}

/// The materialized latest state as a naive page-overlay model, starting
/// from the last full image.
fn model_of(chain: &[CheckpointImage]) -> BTreeMap<u64, u8> {
    let last_full = chain
        .iter()
        .rposition(|i| i.header.kind == ImageKind::Full)
        .expect("seq 1 is full");
    let mut model = BTreeMap::new();
    for img in &chain[last_full..] {
        for p in &img.pages {
            model.insert(p.page_no, p.expand().unwrap()[0]);
        }
    }
    model
}

fn materialize(storage: &dyn StableStorage) -> BTreeMap<u64, u8> {
    let cost = CostModel::circa_2005();
    let (img, _) = load_latest_chain(storage, JOB, PID, &cost).expect("latest chain loads");
    img.pages
        .iter()
        .map(|p| (p.page_no, p.expand().unwrap()[0]))
        .collect()
}

#[test]
fn random_chains_with_random_prunes_round_trip() {
    let cost = CostModel::circa_2005();
    for case in 0..CASES {
        let mut g = Gen::new(11_000 + case);
        let chain = arb_chain(&mut g);
        let mut disk = LocalDisk::new(1 << 30);
        for img in &chain {
            store_image(&mut disk, JOB, img, &cost).unwrap();
        }
        let expect = model_of(&chain);
        assert_eq!(materialize(&disk), expect, "case {case}: stored chain diverged");

        // A few random prunes; whatever they do, the materialized latest
        // image must never change.
        let max_seq = chain.len() as u64;
        for round in 0..g.range(1, 4) {
            let keep_from = g.range(1, max_seq + 1);
            let keys_before = disk.list();
            let kind_at = |seq: u64| chain[(seq - 1) as usize].header.kind;
            let first_kept = keys_before
                .iter()
                .filter_map(|k| k.rsplit('/').next())
                .filter_map(|s| s.trim_start_matches("seq").parse::<u64>().ok())
                .filter(|s| *s >= keep_from)
                .min();
            let any_victim = keys_before
                .iter()
                .filter_map(|k| k.rsplit('/').next())
                .filter_map(|s| s.trim_start_matches("seq").parse::<u64>().ok())
                .any(|s| s < keep_from);
            let would_orphan = any_victim
                && matches!(first_kept, Some(s) if kind_at(s) == ImageKind::Incremental);
            let result = prune_before(&mut disk, JOB, PID, keep_from, &cost);
            if would_orphan {
                assert!(
                    matches!(result, Err(ImageStoreError::Chain(_))),
                    "case {case} round {round}: orphaning prune (keep {keep_from}) must be \
                     rejected, got {result:?}"
                );
                assert_eq!(
                    disk.list(),
                    keys_before,
                    "case {case} round {round}: rejected prune must leave storage untouched"
                );
            } else {
                let deleted = result.unwrap_or_else(|e| {
                    panic!("case {case} round {round}: legal prune failed: {e}")
                });
                assert_eq!(
                    deleted,
                    keys_before.len() - disk.list().len(),
                    "case {case} round {round}: deletion count"
                );
            }
            assert_eq!(
                materialize(&disk),
                expect,
                "case {case} round {round}: prune changed the materialized image"
            );
        }
    }
}

#[test]
fn unguarded_prune_equals_guarded_prune_at_every_full_cutoff() {
    // The checkpoint path prunes with `prune_superseded`, trusting its own
    // store receipt that the cutoff image is Full. Wherever that premise
    // holds the two must delete the same keys; where it does not, the
    // guard — which every other caller keeps — must still refuse.
    let cost = CostModel::circa_2005();
    for case in 0..CASES {
        let mut g = Gen::new(23_000 + case);
        let chain = arb_chain(&mut g);
        for cutoff in 1..=chain.len() as u64 {
            let stored = || {
                let mut disk = LocalDisk::new(1 << 30);
                // A second lineage that no prune of this one may touch.
                let mut other = mk(1, 0, ImageKind::Full, vec![(0, 9)]);
                other.header.pid = PID + 1;
                store_image(&mut disk, JOB, &other, &cost).unwrap();
                for img in &chain {
                    store_image(&mut disk, JOB, img, &cost).unwrap();
                }
                disk
            };
            let (mut guarded, mut unguarded) = (stored(), stored());
            let before = guarded.list();
            let result = prune_before(&mut guarded, JOB, PID, cutoff, &cost);
            let cutoff_is_full = chain[(cutoff - 1) as usize].header.kind == ImageKind::Full;
            if cutoff_is_full {
                let n = prune_superseded(&mut unguarded, JOB, PID, cutoff).unwrap();
                assert_eq!(result.unwrap(), n, "case {case} cutoff {cutoff}: deletion count");
                assert_eq!(n as u64, cutoff - 1);
                assert_eq!(
                    unguarded.list(),
                    guarded.list(),
                    "case {case} cutoff {cutoff}: surviving key sets differ"
                );
            } else {
                assert!(
                    matches!(
                        result,
                        Err(ImageStoreError::Chain(ChainError::PruneWouldOrphan {
                            keep_from_seq,
                            orphan_seq,
                        })) if keep_from_seq == cutoff && orphan_seq == cutoff
                    ),
                    "case {case} cutoff {cutoff}: incremental cutoff not refused: {result:?}"
                );
                assert_eq!(guarded.list(), before, "case {case} cutoff {cutoff}: refusal deleted");
            }
        }
    }
}

#[test]
fn prune_keeping_an_orphan_names_the_dependency() {
    // Deterministic spot check of the typed error's payload.
    let cost = CostModel::circa_2005();
    let mut disk = LocalDisk::new(1 << 30);
    for img in [
        mk(1, 0, ImageKind::Full, vec![(0, 1)]),
        mk(2, 1, ImageKind::Incremental, vec![(1, 2)]),
        mk(3, 2, ImageKind::Incremental, vec![(2, 3)]),
    ] {
        store_image(&mut disk, JOB, &img, &cost).unwrap();
    }
    let err = prune_before(&mut disk, JOB, PID, 2, &cost).unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains('2'),
        "error should name the orphaned segment: {msg}"
    );
    assert_eq!(disk.list().len(), 3, "nothing deleted on rejection");
}
