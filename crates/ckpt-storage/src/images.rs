//! Convenience layer for storing and retrieving [`CheckpointImage`]s on any
//! backend, including incremental-chain retrieval.

use crate::backend::{StableStorage, StorageError, StoreReceipt};
use crate::key::ImageKey;
use ckpt_image::{decode, encode, ChainError, CheckpointImage, DecodeError, ImageKind};
use simos::cost::CostModel;

/// Errors from the image layer.
#[derive(Debug)]
pub enum ImageStoreError {
    Storage(StorageError),
    Decode(DecodeError),
    Chain(ckpt_image::ChainError),
}

impl std::fmt::Display for ImageStoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ImageStoreError::Storage(e) => write!(f, "storage: {e}"),
            ImageStoreError::Decode(e) => write!(f, "decode: {e}"),
            ImageStoreError::Chain(e) => write!(f, "chain: {e}"),
        }
    }
}

impl std::error::Error for ImageStoreError {}

impl From<StorageError> for ImageStoreError {
    fn from(e: StorageError) -> Self {
        ImageStoreError::Storage(e)
    }
}
impl From<DecodeError> for ImageStoreError {
    fn from(e: DecodeError) -> Self {
        ImageStoreError::Decode(e)
    }
}
impl From<ckpt_image::ChainError> for ImageStoreError {
    fn from(e: ckpt_image::ChainError) -> Self {
        ImageStoreError::Chain(e)
    }
}

/// Encode and store an image under the canonical key.
pub fn store_image(
    storage: &mut dyn StableStorage,
    job: &str,
    img: &CheckpointImage,
    cost: &CostModel,
) -> Result<StoreReceipt, ImageStoreError> {
    let key = ImageKey::new(job, img.header.pid, img.header.seq).to_string();
    let bytes = encode(img);
    Ok(storage.store(&key, &bytes, cost)?)
}

/// Store an already-encoded image under the canonical key derived from
/// `(pid, seq)` — the overlapped cluster pipeline encodes off the storage
/// lock and hands the bytes in here. The bytes must be what
/// [`ckpt_image::encode`] produces for that `(pid, seq)`.
pub fn store_image_bytes(
    storage: &mut dyn StableStorage,
    job: &str,
    pid: u32,
    seq: u64,
    bytes: &[u8],
    cost: &CostModel,
) -> Result<StoreReceipt, ImageStoreError> {
    let key = ImageKey::new(job, pid, seq).to_string();
    Ok(storage.store(&key, bytes, cost)?)
}

/// Load the newest restartable chain for a pid: the most recent full image
/// and every incremental after it, reconstructed into one full image.
/// Returns (reconstructed image, total modelled load time).
pub fn load_latest_chain(
    storage: &dyn StableStorage,
    job: &str,
    pid: u32,
    cost: &CostModel,
) -> Result<(CheckpointImage, u64), ImageStoreError> {
    load_chain_at(storage, job, pid, u64::MAX, cost)
}

/// Like [`load_latest_chain`], but ignoring any image newer than
/// `max_seq`. A coordinator that failed mid-round may leave newer images
/// for a *subset* of ranks; capping the load at the last seq known to have
/// committed for **every** rank is what keeps a coordinated restart on a
/// consistent cut.
pub fn load_chain_at(
    storage: &dyn StableStorage,
    job: &str,
    pid: u32,
    max_seq: u64,
    cost: &CostModel,
) -> Result<(CheckpointImage, u64), ImageStoreError> {
    let prefix = ImageKey::lineage_prefix(job, pid);
    let mut keys: Vec<String> = storage
        .list()
        .into_iter()
        .filter(|k| {
            k.starts_with(&prefix)
                && k.parse::<ImageKey>().is_ok_and(|ik| ik.seq <= max_seq)
        })
        .collect();
    keys.sort();
    if keys.is_empty() {
        return Err(ImageStoreError::Storage(StorageError::NotFound(prefix)));
    }
    // Load from the newest backwards until a full image is found.
    let mut loaded: Vec<CheckpointImage> = Vec::new();
    let mut total_t = 0u64;
    for key in keys.iter().rev() {
        let (bytes, t) = storage.load(key, cost)?;
        total_t += t;
        let img = decode(&bytes)?;
        let is_full = img.header.kind == ImageKind::Full;
        loaded.push(img);
        if is_full {
            break;
        }
    }
    loaded.reverse();
    let full = ckpt_image::reconstruct(&loaded)?;
    Ok((full, total_t))
}

/// What [`load_latest_valid_chain`] recovered.
#[derive(Debug)]
pub struct ChainLoad {
    /// The reconstructed full image of the newest restartable chain.
    pub image: CheckpointImage,
    /// Total modelled load time (the caller charges it).
    pub load_ns: u64,
    /// Objects actually loaded from the medium.
    pub images_loaded: u64,
    /// Objects that had to be discarded (torn/corrupt encodings, broken
    /// lineage) before a restartable chain was found. Zero on the clean
    /// path.
    pub images_skipped: u64,
}

/// Like [`load_latest_chain`], but resilient: a torn or corrupt object —
/// the debris a mid-checkpoint crash leaves behind — is discarded (along
/// with any newer incrementals that depended on it) and the search falls
/// back to the next older restartable chain. On the clean path this issues
/// exactly the loads [`load_latest_chain`] would, with identical modelled
/// cost.
///
/// `on_segment` is invoked with each segment's sequence number during the
/// overlay (see [`ckpt_image::reconstruct_with`]); returning an error
/// aborts the whole load — it models a fault at a chain-segment boundary,
/// not a bad image, so no fallback is attempted.
///
/// Availability and transient errors from the medium also abort: they say
/// nothing about image validity, and the caller may retry.
pub fn load_latest_valid_chain(
    storage: &dyn StableStorage,
    job: &str,
    pid: u32,
    cost: &CostModel,
    mut on_segment: impl FnMut(u64) -> Result<(), ChainError>,
) -> Result<ChainLoad, ImageStoreError> {
    let prefix = ImageKey::lineage_prefix(job, pid);
    let mut keys: Vec<String> = storage
        .list()
        .into_iter()
        .filter(|k| k.starts_with(&prefix))
        .collect();
    keys.sort();
    if keys.is_empty() {
        return Err(ImageStoreError::Storage(StorageError::NotFound(prefix)));
    }
    let mut total_t = 0u64;
    let mut loaded = 0u64;
    let mut skipped = 0u64;
    // Newest-first walk of the current chain candidate; discarded wholesale
    // when an object in it proves unusable.
    let mut pending: Vec<CheckpointImage> = Vec::new();
    let mut last_err: Option<ImageStoreError> = None;
    for key in keys.iter().rev() {
        let (bytes, t) = match storage.load(key, cost) {
            Ok(v) => v,
            Err(
                e @ (StorageError::Unavailable
                | StorageError::Transient
                | StorageError::QuorumLost { .. }),
            ) => {
                // Quorum loss joins the abort set: falling back to an older
                // chain while a newer committed one may live entirely on the
                // lost replicas would be a silently wrong answer.
                return Err(e.into());
            }
            Err(e) => {
                skipped += 1 + pending.len() as u64;
                pending.clear();
                last_err = Some(e.into());
                continue;
            }
        };
        total_t += t;
        loaded += 1;
        let img = match decode(&bytes) {
            Ok(i) => i,
            Err(e) => {
                skipped += 1 + pending.len() as u64;
                pending.clear();
                last_err = Some(e.into());
                continue;
            }
        };
        let is_full = img.header.kind == ImageKind::Full;
        pending.push(img);
        if !is_full {
            continue;
        }
        let mut chain = std::mem::take(&mut pending);
        chain.reverse();
        match ckpt_image::reconstruct_with(&chain, &mut on_segment) {
            Ok(image) => {
                return Ok(ChainLoad {
                    image,
                    load_ns: total_t,
                    images_loaded: loaded,
                    images_skipped: skipped,
                })
            }
            Err(e @ ChainError::Interrupted { .. }) => return Err(e.into()),
            Err(e) => {
                skipped += chain.len() as u64;
                last_err = Some(e.into());
            }
        }
    }
    Err(last_err.unwrap_or(ImageStoreError::Storage(StorageError::NotFound(prefix))))
}

/// The lineage's stored keys split at `seq`: `(older, kept)`, each sorted.
fn split_lineage(
    storage: &dyn StableStorage,
    job: &str,
    pid: u32,
    seq: u64,
) -> (Vec<String>, Vec<String>) {
    let prefix = ImageKey::lineage_prefix(job, pid);
    let cutoff = ImageKey::new(job, pid, seq).to_string();
    let mut keys: Vec<String> = storage
        .list()
        .into_iter()
        .filter(|k| k.starts_with(&prefix))
        .collect();
    keys.sort();
    let kept = keys.split_off(keys.partition_point(|k| *k < cutoff));
    (keys, kept)
}

fn delete_all(
    storage: &mut dyn StableStorage,
    victims: Vec<String>,
) -> Result<usize, ImageStoreError> {
    let n = victims.len();
    for k in victims {
        storage.delete(&k)?;
    }
    Ok(n)
}

/// Delete every image of a pid older than `full_seq`, with **no** orphan
/// check: the caller vouches that the image at `full_seq` is a committed
/// full image. That is what a checkpointer holds right after the store of
/// a full image returned its receipt — the receipt, not a read-back of the
/// object, is the authority for collecting what the image supersedes.
/// Anyone who cannot vouch for the cutoff uses [`prune_before`].
pub fn prune_superseded(
    storage: &mut dyn StableStorage,
    job: &str,
    pid: u32,
    full_seq: u64,
) -> Result<usize, ImageStoreError> {
    let (victims, _) = split_lineage(storage, job, pid, full_seq);
    delete_all(storage, victims)
}

/// Delete all images of a pid older than `keep_from_seq` — unless doing so
/// would orphan a kept incremental whose lineage reaches below the cutoff,
/// which is rejected with [`ChainError::PruneWouldOrphan`] and deletes
/// nothing. The guard loads and decodes the oldest kept image; then this
/// is [`prune_superseded`].
pub fn prune_before(
    storage: &mut dyn StableStorage,
    job: &str,
    pid: u32,
    keep_from_seq: u64,
    cost: &CostModel,
) -> Result<usize, ImageStoreError> {
    let (victims, kept) = split_lineage(storage, job, pid, keep_from_seq);
    if let (false, Some(first_kept)) = (victims.is_empty(), kept.first()) {
        // The oldest surviving image must stand alone: if it is an
        // incremental, its parent is about to be deleted.
        let (bytes, _t) = storage.load(first_kept, cost)?;
        let img = decode(&bytes)?;
        if img.header.kind == ImageKind::Incremental {
            return Err(ImageStoreError::Chain(ChainError::PruneWouldOrphan {
                keep_from_seq,
                orphan_seq: img.header.seq,
            }));
        }
    }
    delete_all(storage, victims)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::media::LocalDisk;
    use ckpt_image::{
        ImageHeader, PageRecord, PolicyRecord, ProgramRecord, RegsRecord, SigRecord,
    };

    fn img(seq: u64, parent: u64, kind: ImageKind, pages: Vec<(u64, u8)>) -> CheckpointImage {
        CheckpointImage {
            header: ImageHeader {
                pid: 1,
                seq,
                parent_seq: parent,
                kind,
                taken_at_ns: seq,
                mechanism: "t".into(),
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
                name: "t".into(),
                text: vec![0],
            },
        }
    }

    #[test]
    fn store_then_load_one_image() {
        let mut disk = LocalDisk::new(1 << 30);
        let c = CostModel::circa_2005();
        let image = img(1, 0, ImageKind::Full, vec![(1, 7)]);
        store_image(&mut disk, "job", &image, &c).unwrap();
        let (back, t) = load_latest_chain(&disk, "job", 1, &c).unwrap();
        assert_eq!(back, image);
        assert!(t > 0);
    }

    #[test]
    fn latest_chain_reconstructs_across_incrementals() {
        let mut disk = LocalDisk::new(1 << 30);
        let c = CostModel::circa_2005();
        // Old full, new full, then two incrementals on the new full.
        for image in [
            img(1, 0, ImageKind::Full, vec![(1, 1)]),
            img(2, 0, ImageKind::Full, vec![(1, 2), (2, 2)]),
            img(3, 2, ImageKind::Incremental, vec![(2, 3)]),
            img(4, 3, ImageKind::Incremental, vec![(3, 4)]),
        ] {
            store_image(&mut disk, "job", &image, &c).unwrap();
        }
        let (full, _) = load_latest_chain(&disk, "job", 1, &c).unwrap();
        assert_eq!(full.work_done, 4, "state from the newest image");
        let fills: std::collections::BTreeMap<u64, u8> = full
            .pages
            .iter()
            .map(|p| (p.page_no, p.expand().unwrap()[0]))
            .collect();
        assert_eq!(fills[&1], 2, "from full seq 2, not stale seq 1");
        assert_eq!(fills[&2], 3);
        assert_eq!(fills[&3], 4);
    }

    #[test]
    fn missing_pid_is_not_found() {
        let disk = LocalDisk::new(1 << 30);
        let c = CostModel::circa_2005();
        assert!(matches!(
            load_latest_chain(&disk, "job", 9, &c),
            Err(ImageStoreError::Storage(StorageError::NotFound(_)))
        ));
    }

    #[test]
    fn prune_removes_older_sequences_only() {
        let mut disk = LocalDisk::new(1 << 30);
        let c = CostModel::circa_2005();
        for image in [
            img(1, 0, ImageKind::Full, vec![]),
            img(2, 1, ImageKind::Incremental, vec![]),
            img(3, 0, ImageKind::Full, vec![]),
        ] {
            store_image(&mut disk, "job", &image, &c).unwrap();
        }
        let n = prune_before(&mut disk, "job", 1, 3, &c).unwrap();
        assert_eq!(n, 2);
        assert_eq!(disk.list().len(), 1);
        let (full, _) = load_latest_chain(&disk, "job", 1, &c).unwrap();
        assert_eq!(full.header.seq, 3);
    }

    #[test]
    fn prune_that_would_orphan_an_incremental_is_rejected() {
        let mut disk = LocalDisk::new(1 << 30);
        let c = CostModel::circa_2005();
        for image in [
            img(1, 0, ImageKind::Full, vec![(1, 1)]),
            img(2, 1, ImageKind::Incremental, vec![(2, 2)]),
            img(3, 2, ImageKind::Incremental, vec![(3, 3)]),
        ] {
            store_image(&mut disk, "job", &image, &c).unwrap();
        }
        // Cutting at seq 2 would delete the full image seq 2 depends on.
        let err = prune_before(&mut disk, "job", 1, 2, &c).unwrap_err();
        assert!(matches!(
            err,
            ImageStoreError::Chain(ChainError::PruneWouldOrphan {
                keep_from_seq: 2,
                orphan_seq: 2
            })
        ));
        assert_eq!(disk.list().len(), 3, "rejected prune must delete nothing");
        // Cutting at seq 1 (the full) keeps the chain intact and is a no-op.
        assert_eq!(prune_before(&mut disk, "job", 1, 1, &c).unwrap(), 0);
    }

    #[test]
    fn valid_chain_loader_matches_plain_loader_on_clean_storage() {
        let mut disk = LocalDisk::new(1 << 30);
        let c = CostModel::circa_2005();
        for image in [
            img(1, 0, ImageKind::Full, vec![(1, 1)]),
            img(2, 1, ImageKind::Incremental, vec![(2, 2)]),
        ] {
            store_image(&mut disk, "job", &image, &c).unwrap();
        }
        let (plain, t_plain) = load_latest_chain(&disk, "job", 1, &c).unwrap();
        let r = load_latest_valid_chain(&disk, "job", 1, &c, |_| Ok(())).unwrap();
        assert_eq!(r.image, plain);
        assert_eq!(r.load_ns, t_plain, "clean path must charge identically");
        assert_eq!(r.images_loaded, 2);
        assert_eq!(r.images_skipped, 0);
    }

    #[test]
    fn valid_chain_loader_falls_back_past_torn_tip() {
        let mut disk = LocalDisk::new(1 << 30);
        let c = CostModel::circa_2005();
        for image in [
            img(1, 0, ImageKind::Full, vec![(1, 1)]),
            img(2, 1, ImageKind::Incremental, vec![(2, 2)]),
        ] {
            store_image(&mut disk, "job", &image, &c).unwrap();
        }
        // A crash tore the newest incremental (seq 3) mid-write.
        let full3 = encode(&img(3, 2, ImageKind::Incremental, vec![(3, 3)]));
        disk.store(
            &ImageKey::new("job", 1, 3).to_string(),
            &full3[..full3.len() / 2],
            &c,
        )
        .unwrap();
        assert!(
            load_latest_chain(&disk, "job", 1, &c).is_err(),
            "the plain loader chokes on the torn tip"
        );
        let r = load_latest_valid_chain(&disk, "job", 1, &c, |_| Ok(())).unwrap();
        assert_eq!(r.image.header.seq, 2, "fell back to the intact chain");
        assert_eq!(r.images_skipped, 1);
    }

    #[test]
    fn valid_chain_loader_reports_typed_error_when_nothing_survives() {
        let mut disk = LocalDisk::new(1 << 30);
        let c = CostModel::circa_2005();
        let full = encode(&img(1, 0, ImageKind::Full, vec![(1, 1)]));
        disk.store(&ImageKey::new("job", 1, 1).to_string(), &full[..10], &c)
            .unwrap();
        assert!(matches!(
            load_latest_valid_chain(&disk, "job", 1, &c, |_| Ok(())),
            Err(ImageStoreError::Decode(_))
        ));
    }

    #[test]
    fn valid_chain_loader_segment_observer_can_abort() {
        let mut disk = LocalDisk::new(1 << 30);
        let c = CostModel::circa_2005();
        store_image(&mut disk, "job", &img(1, 0, ImageKind::Full, vec![(1, 1)]), &c).unwrap();
        let r = load_latest_valid_chain(&disk, "job", 1, &c, |seq| {
            Err(ChainError::Interrupted { at_seq: seq })
        });
        assert!(matches!(
            r,
            Err(ImageStoreError::Chain(ChainError::Interrupted { at_seq: 1 }))
        ));
    }

    #[test]
    fn corrupted_object_fails_decode() {
        let mut disk = LocalDisk::new(1 << 30);
        let c = CostModel::circa_2005();
        let image = img(1, 0, ImageKind::Full, vec![(1, 7)]);
        store_image(&mut disk, "job", &image, &c).unwrap();
        // Corrupt the stored bytes out-of-band.
        let key = ImageKey::new("job", 1, 1).to_string();
        let (mut bytes, _) = disk.load(&key, &c).unwrap();
        bytes[40] ^= 0xFF;
        disk.store(&key, &bytes, &c).unwrap();
        assert!(matches!(
            load_latest_chain(&disk, "job", 1, &c),
            Err(ImageStoreError::Decode(_))
        ));
    }
}
