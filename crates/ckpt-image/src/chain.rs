//! Incremental-checkpoint chains.
//!
//! Incremental checkpointing (Plank et al. \[27\]) saves only the pages
//! dirtied since the previous checkpoint. A restart therefore needs the
//! last full image plus every subsequent incremental image, overlaid in
//! order. This module validates lineage (sequence numbers must chain) and
//! performs the overlay: it picks each page's winning record newest first
//! and touches no other, so a chain loader that owns its decoded images
//! moves each surviving page once ([`reconstruct_owned`]).

use crate::format::{CheckpointImage, ImageHeader, ImageKind, PageRecord};
use std::cmp::Reverse;

/// Chain-reconstruction errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChainError {
    Empty,
    /// The first image in a chain must be full.
    FirstNotFull,
    /// An incremental image does not name the previous image as parent.
    BrokenLineage {
        expected_parent: u64,
        found_parent: u64,
        at_seq: u64,
    },
    /// Images from different processes mixed into one chain.
    PidMismatch { expected: u32, found: u32 },
    /// A segment observer aborted the overlay (e.g. an injected fault at a
    /// chain-segment boundary during restart).
    Interrupted { at_seq: u64 },
    /// Pruning below this point would delete the parent an incremental
    /// image still depends on, leaving `orphan_seq` unrestorable.
    PruneWouldOrphan { keep_from_seq: u64, orphan_seq: u64 },
}

impl std::fmt::Display for ChainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChainError::Empty => write!(f, "empty checkpoint chain"),
            ChainError::FirstNotFull => write!(f, "chain does not start with a full image"),
            ChainError::BrokenLineage {
                expected_parent,
                found_parent,
                at_seq,
            } => write!(
                f,
                "broken lineage at seq {at_seq}: expected parent {expected_parent}, found {found_parent}"
            ),
            ChainError::PidMismatch { expected, found } => {
                write!(f, "pid mismatch in chain: expected {expected}, found {found}")
            }
            ChainError::Interrupted { at_seq } => {
                write!(f, "chain overlay interrupted at segment seq {at_seq}")
            }
            ChainError::PruneWouldOrphan {
                keep_from_seq,
                orphan_seq,
            } => write!(
                f,
                "pruning below seq {keep_from_seq} would orphan incremental seq {orphan_seq}"
            ),
        }
    }
}

impl std::error::Error for ChainError {}

/// Validate a chain's lineage without reconstructing.
pub fn validate(chain: &[CheckpointImage]) -> Result<(), ChainError> {
    let first = chain.first().ok_or(ChainError::Empty)?;
    if first.header.kind != ImageKind::Full {
        return Err(ChainError::FirstNotFull);
    }
    let pid = first.header.pid;
    let mut prev_seq = first.header.seq;
    for img in &chain[1..] {
        if img.header.pid != pid {
            return Err(ChainError::PidMismatch {
                expected: pid,
                found: img.header.pid,
            });
        }
        if img.header.kind != ImageKind::Incremental || img.header.parent_seq != prev_seq {
            return Err(ChainError::BrokenLineage {
                expected_parent: prev_seq,
                found_parent: img.header.parent_seq,
                at_seq: img.header.seq,
            });
        }
        prev_seq = img.header.seq;
    }
    Ok(())
}

/// Overlay a full image with its incremental successors, producing the
/// equivalent full image of the final instant. Everything except pages is
/// taken from the **last** image (registers, fds, signal state move
/// forward); of a page's records, the newest image's wins — within one
/// image, its later record. Only the winning records are cloned.
pub fn reconstruct(chain: &[CheckpointImage]) -> Result<CheckpointImage, ChainError> {
    let winners = overlay(chain, |_| Ok(()))?;
    let last = chain.last().expect("validated non-empty");
    let pages = winners
        .into_iter()
        .map(|(seg, rec)| chain[seg].pages[rec].clone())
        .collect();
    Ok(CheckpointImage {
        header: full_header(&last.header),
        regs: last.regs.clone(),
        brk: last.brk,
        work_done: last.work_done,
        policy: last.policy,
        vmas: last.vmas.clone(),
        pages,
        fds: last.fds.clone(),
        files: last.files.clone(),
        sig: last.sig.clone(),
        timers: last.timers.clone(),
        program: last.program.clone(),
    })
}

/// [`reconstruct`] of a chain the caller hands over (a chain loader's
/// freshly decoded images): each winning page record moves into the
/// result, and so does the last image's non-page state; nothing is
/// cloned. `on_segment` sees every image's sequence number, oldest first,
/// before any page is overlaid, and may abort the overlay by returning an
/// error (the crashpoint matrix uses this to model a fault landing between
/// chain segments during restart); this crate stays free of any simulator
/// dependency.
pub fn reconstruct_owned(
    mut chain: Vec<CheckpointImage>,
    on_segment: impl FnMut(u64) -> Result<(), ChainError>,
) -> Result<CheckpointImage, ChainError> {
    let winners = overlay(&chain, on_segment)?;
    let mut segments: Vec<Vec<Option<PageRecord>>> = chain
        .iter_mut()
        .map(|img| {
            std::mem::take(&mut img.pages)
                .into_iter()
                .map(Some)
                .collect()
        })
        .collect();
    let mut out = chain.pop().expect("validated non-empty");
    out.header = full_header(&out.header);
    out.pages = winners
        .into_iter()
        .map(|(seg, rec)| segments[seg][rec].take().expect("a record wins once"))
        .collect();
    Ok(out)
}

/// Validate `chain`, show `on_segment` every seq oldest first, and pick
/// each page's winning record newest first — the newest image's, and
/// within it the later record. Returns `(image, record)` indices in page
/// order.
fn overlay(
    chain: &[CheckpointImage],
    mut on_segment: impl FnMut(u64) -> Result<(), ChainError>,
) -> Result<Vec<(usize, usize)>, ChainError> {
    validate(chain)?;
    for img in chain {
        on_segment(img.header.seq)?;
    }
    let mut records: Vec<(u64, Reverse<usize>, Reverse<usize>)> = chain
        .iter()
        .enumerate()
        .flat_map(|(seg, img)| {
            img.pages
                .iter()
                .enumerate()
                .map(move |(rec, p)| (p.page_no, Reverse(seg), Reverse(rec)))
        })
        .collect();
    // Every key is distinct, so the unstable sort is deterministic; it
    // puts each page's newest record first.
    records.sort_unstable();
    records.dedup_by_key(|&mut (page_no, _, _)| page_no);
    Ok(records
        .into_iter()
        .map(|(_, Reverse(seg), Reverse(rec))| (seg, rec))
        .collect())
}

/// The header of the full image a chain ending in `last` reconstructs to.
fn full_header(last: &ImageHeader) -> ImageHeader {
    ImageHeader {
        kind: ImageKind::Full,
        parent_seq: 0,
        ..last.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::*;
    use std::collections::BTreeMap;

    fn img(pid: u32, seq: u64, parent: u64, kind: ImageKind, pages: Vec<(u64, u8)>) -> CheckpointImage {
        CheckpointImage {
            header: ImageHeader {
                pid,
                seq,
                parent_seq: parent,
                kind,
                taken_at_ns: seq * 100,
                mechanism: "test".into(),
                node: 0,
            },
            regs: RegsRecord {
                pc: seq, // marker to check "last wins"
                gpr: [0; 16],
            },
            brk: 0,
            work_done: seq * 10,
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
                name: "t".into(),
                text: vec![0],
            },
        }
    }

    #[test]
    fn valid_chain_reconstructs_with_later_pages_winning() {
        let chain = vec![
            img(1, 1, 0, ImageKind::Full, vec![(10, 1), (11, 1), (12, 1)]),
            img(1, 2, 1, ImageKind::Incremental, vec![(11, 2)]),
            img(1, 3, 2, ImageKind::Incremental, vec![(11, 3), (13, 3)]),
        ];
        let full = reconstruct(&chain).unwrap();
        assert_eq!(full.header.kind, ImageKind::Full);
        assert_eq!(full.regs.pc, 3, "non-page state from the last image");
        let by_no: BTreeMap<u64, u8> = full
            .pages
            .iter()
            .map(|p| (p.page_no, p.expand().unwrap()[0]))
            .collect();
        assert_eq!(by_no[&10], 1);
        assert_eq!(by_no[&11], 3);
        assert_eq!(by_no[&12], 1);
        assert_eq!(by_no[&13], 3);
        assert_eq!(full.pages.len(), 4);
    }

    /// Two records of one page inside one image: the later one wins, in
    /// the newest image that holds the page, on the borrowed entry point
    /// and on the owned one alike.
    #[test]
    fn within_an_image_the_later_record_of_a_page_wins() {
        let chain = vec![
            img(
                1,
                1,
                0,
                ImageKind::Full,
                vec![(10, 1), (11, 1), (10, 2), (12, 1)],
            ),
            img(
                1,
                2,
                1,
                ImageKind::Incremental,
                vec![(11, 3), (13, 3), (11, 4)],
            ),
        ];
        let want: BTreeMap<u64, u8> = [(10, 2), (11, 4), (12, 1), (13, 3)].into();
        let fills = |full: &CheckpointImage| -> Vec<(u64, u8)> {
            full.pages
                .iter()
                .map(|p| (p.page_no, p.expand().unwrap()[0]))
                .collect()
        };
        let borrowed = reconstruct(&chain).unwrap();
        assert_eq!(
            fills(&borrowed),
            want.clone().into_iter().collect::<Vec<_>>()
        );
        let owned = reconstruct_owned(chain.clone(), |_| Ok(())).unwrap();
        assert_eq!(owned, borrowed);
        // A one-image chain resolves its own duplicates the same way.
        let full = reconstruct_owned(chain[..1].to_vec(), |_| Ok(())).unwrap();
        assert_eq!(fills(&full), vec![(10, 2), (11, 1), (12, 1)]);
    }

    #[test]
    fn single_full_image_reconstructs_to_itself() {
        let chain = vec![img(1, 1, 0, ImageKind::Full, vec![(5, 9)])];
        let full = reconstruct(&chain).unwrap();
        assert_eq!(full.pages.len(), 1);
        assert_eq!(full.work_done, 10);
    }

    #[test]
    fn empty_chain_rejected() {
        assert_eq!(reconstruct(&[]), Err(ChainError::Empty));
    }

    #[test]
    fn chain_starting_incremental_rejected() {
        let chain = vec![img(1, 2, 1, ImageKind::Incremental, vec![])];
        assert_eq!(validate(&chain), Err(ChainError::FirstNotFull));
    }

    #[test]
    fn broken_lineage_rejected() {
        let chain = vec![
            img(1, 1, 0, ImageKind::Full, vec![]),
            img(1, 3, 2, ImageKind::Incremental, vec![]), // parent 2 missing
        ];
        assert!(matches!(
            validate(&chain),
            Err(ChainError::BrokenLineage { .. })
        ));
    }

    #[test]
    fn full_image_mid_chain_rejected() {
        let chain = vec![
            img(1, 1, 0, ImageKind::Full, vec![]),
            img(1, 2, 1, ImageKind::Full, vec![]),
        ];
        assert!(matches!(
            validate(&chain),
            Err(ChainError::BrokenLineage { .. })
        ));
    }

    #[test]
    fn segment_observer_sees_every_seq_and_can_abort() {
        let chain = vec![
            img(1, 1, 0, ImageKind::Full, vec![(10, 1)]),
            img(1, 2, 1, ImageKind::Incremental, vec![(11, 2)]),
            img(1, 3, 2, ImageKind::Incremental, vec![(12, 3)]),
        ];
        let mut seen = Vec::new();
        let full = reconstruct_owned(chain.clone(), |seq| {
            seen.push(seq);
            Ok(())
        })
        .unwrap();
        assert_eq!(seen, vec![1, 2, 3]);
        assert_eq!(full.pages.len(), 3);

        let aborted = reconstruct_owned(chain, |seq| {
            if seq == 2 {
                Err(ChainError::Interrupted { at_seq: seq })
            } else {
                Ok(())
            }
        });
        assert_eq!(aborted, Err(ChainError::Interrupted { at_seq: 2 }));
    }

    #[test]
    fn pid_mismatch_rejected() {
        let chain = vec![
            img(1, 1, 0, ImageKind::Full, vec![]),
            img(2, 2, 1, ImageKind::Incremental, vec![]),
        ];
        assert!(matches!(validate(&chain), Err(ChainError::PidMismatch { .. })));
    }
}
