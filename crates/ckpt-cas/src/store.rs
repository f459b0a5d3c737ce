//! [`DedupStore`]: a content-addressed deduplicating decorator over any
//! [`StableStorage`].
//!
//! Image objects (keys that parse as [`ckpt_storage::ImageKey`]) are split into
//! content-defined chunks; each chunk is interned in the backing store
//! under its digest key (`cas/<digest:016x>`) with an in-memory refcount,
//! and the image key itself holds a [`manifest`] — the
//! recipe that rebuilds the bytes. Successive images of one `(job, pid)`
//! lineage are first XOR+RLE-delta'd against the last raw-stored version
//! (depth-1 deltas only: a delta's base recipe is embedded in its own
//! manifest, so resolution never chases a chain and pruning the base
//! object cannot orphan it). Non-image keys pass through untouched.
//!
//! Observable semantics:
//! * `load` returns the original bytes exactly, or a **typed** error —
//!   [`StorageError::CorruptManifest`] for a torn/corrupt manifest,
//!   [`StorageError::MissingChunk`] when the backing store lost a chunk.
//!   Never silently wrong bytes: the manifest carries the object digest
//!   and every chunk is verified against its address on resolution.
//! * [`StoreReceipt::bytes`] is the **novel** physical bytes the commit
//!   shipped (new chunks + manifest) — on a replicated backing store,
//!   commit bytes scale with novelty, not image size.
//! * Chunk GC is refcount-exact: a chunk is deleted from the backing
//!   store only when no live manifest references it.
//! * Output is deterministic and byte-identical at any pool width: chunk
//!   boundaries are found serially, only digests fan out (ordered merge),
//!   and all backing-store I/O is sequential.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ckpt_par::Pool;
use ckpt_storage::key::ObjectKey;
use ckpt_storage::{
    fnv1a64, ReplicaManifest, StableStorage, StorageClass, StorageError, StoreReceipt,
};
use simos::cost::CostModel;
use simos::faultpoint::{Fault, FaultHandle};
use simos::types::SimResult;
use simos::Relink;

use crate::chunker::{split_and_digest, ChunkParams};
use crate::delta::{xor_rle_decode, xor_rle_encode_within};
use crate::manifest::{self, BaseRecipe, ChunkRef, Encoding, Manifest};

#[derive(Default)]
struct Counters {
    logical_bytes: AtomicU64,
    physical_bytes: AtomicU64,
    novel_chunks: AtomicU64,
    dup_chunks: AtomicU64,
    dup_bytes: AtomicU64,
    raw_objects: AtomicU64,
    delta_objects: AtomicU64,
    passthrough_objects: AtomicU64,
    gc_chunks: AtomicU64,
    gc_bytes: AtomicU64,
    live_chunks: AtomicU64,
    live_chunk_bytes: AtomicU64,
}

/// A point-in-time snapshot of a [`DedupStore`]'s counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CasStats {
    /// Bytes handed to `store` for image objects (pre-dedup).
    pub logical_bytes: u64,
    /// Novel bytes actually shipped to the backing store (chunks +
    /// manifests).
    pub physical_bytes: u64,
    pub novel_chunks: u64,
    /// Chunk references satisfied by an already-interned chunk.
    pub dup_chunks: u64,
    pub dup_bytes: u64,
    /// Image objects stored without a delta base.
    pub raw_objects: u64,
    /// Image objects stored as a delta against their lineage base.
    pub delta_objects: u64,
    /// Non-image objects forwarded untouched.
    pub passthrough_objects: u64,
    pub gc_chunks: u64,
    pub gc_bytes: u64,
    pub live_chunks: u64,
    pub live_chunk_bytes: u64,
}

impl CasStats {
    /// Logical over physical bytes — the dedup ratio. 1.0 when nothing
    /// was stored.
    pub fn dedup_ratio(&self) -> f64 {
        if self.physical_bytes == 0 {
            1.0
        } else {
            self.logical_bytes as f64 / self.physical_bytes as f64
        }
    }
}

/// A cloneable handle onto a [`DedupStore`]'s counters; stays readable
/// after the store itself moves behind a storage lock.
#[derive(Clone, Default)]
pub struct CasStatsHandle(Arc<Counters>);

impl CasStatsHandle {
    /// The fork's copy of this handle: every holder of one set of counters
    /// in the original reads one copy of them in the fork.
    fn fork(&self, relink: &mut Relink) -> SimResult<CasStatsHandle> {
        let counters = relink.shared(&self.0, |c, _| {
            let at = |a: &AtomicU64| AtomicU64::new(a.load(Ordering::Relaxed));
            Ok(Arc::new(Counters {
                logical_bytes: at(&c.logical_bytes),
                physical_bytes: at(&c.physical_bytes),
                novel_chunks: at(&c.novel_chunks),
                dup_chunks: at(&c.dup_chunks),
                dup_bytes: at(&c.dup_bytes),
                raw_objects: at(&c.raw_objects),
                delta_objects: at(&c.delta_objects),
                passthrough_objects: at(&c.passthrough_objects),
                gc_chunks: at(&c.gc_chunks),
                gc_bytes: at(&c.gc_bytes),
                live_chunks: at(&c.live_chunks),
                live_chunk_bytes: at(&c.live_chunk_bytes),
            }))
        })?;
        Ok(CasStatsHandle(counters))
    }

    pub fn snapshot(&self) -> CasStats {
        let c = &self.0;
        let g = |a: &AtomicU64| a.load(Ordering::Relaxed);
        CasStats {
            logical_bytes: g(&c.logical_bytes),
            physical_bytes: g(&c.physical_bytes),
            novel_chunks: g(&c.novel_chunks),
            dup_chunks: g(&c.dup_chunks),
            dup_bytes: g(&c.dup_bytes),
            raw_objects: g(&c.raw_objects),
            delta_objects: g(&c.delta_objects),
            passthrough_objects: g(&c.passthrough_objects),
            gc_chunks: g(&c.gc_chunks),
            gc_bytes: g(&c.gc_bytes),
            live_chunks: g(&c.live_chunks),
            live_chunk_bytes: g(&c.live_chunk_bytes),
        }
    }
}

impl std::fmt::Debug for CasStatsHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.snapshot().fmt(f)
    }
}

/// Interned-chunk bookkeeping: how large, how many live manifests
/// reference it.
#[derive(Clone)]
struct ChunkEntry {
    len: u32,
    refs: u32,
}

/// The last raw-stored version of one `(job, pid)` lineage: the delta
/// base for subsequent stores. Raw bytes are kept so evicted base chunks
/// can be re-interned if a later delta needs them after the base manifest
/// was pruned.
#[derive(Clone)]
struct LineageBase {
    seq: u64,
    raw: Vec<u8>,
    digest: u64,
    chunks: Vec<ChunkRef>,
}

/// See the module docs.
pub struct DedupStore {
    inner: Box<dyn StableStorage>,
    params: ChunkParams,
    pool: Arc<Pool>,
    faults: FaultHandle,
    index: HashMap<u64, ChunkEntry>,
    lineage: HashMap<String, LineageBase>,
    /// Committed chunk references per stored object key (payload plus
    /// base refs) — the GC root set.
    manifest_refs: HashMap<String, Vec<ChunkRef>>,
    stats: CasStatsHandle,
}

impl DedupStore {
    pub fn new(inner: Box<dyn StableStorage>) -> Self {
        DedupStore {
            inner,
            params: ChunkParams::DEFAULT,
            pool: Arc::new(Pool::new(1)),
            faults: FaultHandle::disabled(),
            index: HashMap::new(),
            lineage: HashMap::new(),
            manifest_refs: HashMap::new(),
            stats: CasStatsHandle::default(),
        }
    }

    pub fn with_params(mut self, params: ChunkParams) -> Self {
        self.params = params;
        self
    }

    /// Fan per-chunk digests out on `pool`. Output is byte-identical at
    /// any width; this only buys wall-clock time.
    pub fn with_pool(mut self, pool: Arc<Pool>) -> Self {
        self.pool = pool;
        self
    }

    /// Attach a fault handle exposing the `cas/commit@<n>` site: the
    /// instant between the chunks landing and the manifest write.
    pub fn with_faults(mut self, faults: FaultHandle) -> Self {
        self.faults = faults;
        self
    }

    pub fn stats_handle(&self) -> CasStatsHandle {
        self.stats.clone()
    }

    pub fn stats(&self) -> CasStats {
        self.stats.snapshot()
    }

    fn counter(&self, f: impl Fn(&Counters) -> &AtomicU64, v: u64) {
        f(&self.stats.0).fetch_add(v, Ordering::Relaxed);
    }

    /// Intern one chunk: bump its refcount, shipping the bytes to the
    /// backing store if it is not already live. Records the action in
    /// `tx` for rollback.
    fn intern_chunk(
        &mut self,
        digest: u64,
        bytes: &[u8],
        cost: &CostModel,
        tx: &mut Tx,
    ) -> Result<(), StorageError> {
        if let Some(e) = self.index.get_mut(&digest) {
            if e.refs > 0 {
                e.refs += 1;
                tx.increfed.push(digest);
                self.counter(|c| &c.dup_chunks, 1);
                self.counter(|c| &c.dup_bytes, bytes.len() as u64);
                return Ok(());
            }
        }
        let key = ObjectKey::chunk(digest).to_string();
        let r = self.inner.store(&key, bytes, cost)?;
        tx.time_ns += r.time_ns;
        tx.novel_bytes += bytes.len() as u64;
        tx.increfed.push(digest);
        tx.stored.push(digest);
        self.index.insert(digest, ChunkEntry { len: bytes.len() as u32, refs: 1 });
        self.counter(|c| &c.novel_chunks, 1);
        self.counter(|c| &c.physical_bytes, bytes.len() as u64);
        self.counter(|c| &c.live_chunks, 1);
        self.counter(|c| &c.live_chunk_bytes, bytes.len() as u64);
        Ok(())
    }

    /// Undo a failed commit: release every refcount the transaction took,
    /// deleting (best-effort — the node may be dead) chunks it newly
    /// shipped.
    fn rollback(&mut self, tx: Tx) {
        for digest in tx.increfed.into_iter().rev() {
            self.release_chunk(digest);
        }
    }

    /// Drop one reference; at zero the chunk is dead — GC it from the
    /// backing store (best-effort: a refused delete leaves debris the
    /// next intern simply overwrites).
    fn release_chunk(&mut self, digest: u64) {
        let Some(e) = self.index.get_mut(&digest) else { return };
        e.refs = e.refs.saturating_sub(1);
        if e.refs > 0 {
            return;
        }
        let len = e.len;
        self.index.remove(&digest);
        let _ = self.inner.delete(&ObjectKey::chunk(digest).to_string());
        self.counter(|c| &c.gc_chunks, 1);
        self.counter(|c| &c.gc_bytes, len as u64);
        self.stats.0.live_chunks.fetch_sub(1, Ordering::Relaxed);
        self.stats.0.live_chunk_bytes.fetch_sub(len as u64, Ordering::Relaxed);
    }

    /// Release every chunk a committed object referenced.
    fn release_object(&mut self, key: &str) {
        if let Some(refs) = self.manifest_refs.remove(key) {
            for r in refs {
                self.release_chunk(r.digest);
            }
        }
    }

    /// Cumulative chunk offsets of `chunks` over a contiguous byte run.
    fn chunk_slices<'a>(data: &'a [u8], chunks: &[ChunkRef]) -> Vec<(u64, &'a [u8])> {
        let mut at = 0usize;
        let mut out = Vec::with_capacity(chunks.len());
        for c in chunks {
            let end = at + c.len as usize;
            out.push((c.digest, &data[at..end]));
            at = end;
        }
        debug_assert_eq!(at, data.len());
        out
    }

    /// Resolve a chunk list back into contiguous bytes, verifying each
    /// chunk against its content address.
    fn resolve_chunks(
        &self,
        chunks: &[ChunkRef],
        cost: &CostModel,
        time_ns: &mut u64,
    ) -> Result<Vec<u8>, StorageError> {
        let total: usize = chunks.iter().map(|c| c.len as usize).sum();
        let mut out = Vec::with_capacity(total);
        for c in chunks {
            let key = ObjectKey::chunk(c.digest).to_string();
            let (bytes, t) = match self.inner.load(&key, cost) {
                Ok(v) => v,
                // Availability says nothing about chunk validity — let
                // the caller retry; everything else means the chunk is
                // gone.
                Err(
                    e @ (StorageError::Unavailable
                    | StorageError::Transient
                    | StorageError::QuorumLost { .. }),
                ) => return Err(e),
                Err(_) => return Err(StorageError::MissingChunk { digest: c.digest }),
            };
            *time_ns += t;
            if bytes.len() != c.len as usize || fnv1a64(&bytes) != c.digest {
                return Err(StorageError::MissingChunk { digest: c.digest });
            }
            out.extend_from_slice(&bytes);
        }
        Ok(out)
    }
}

/// In-flight commit state, unwound by [`DedupStore::rollback`] on any
/// failure after the first chunk ships.
#[derive(Default)]
struct Tx {
    increfed: Vec<u64>,
    stored: Vec<u64>,
    novel_bytes: u64,
    time_ns: u64,
}

impl StableStorage for DedupStore {
    fn class(&self) -> StorageClass {
        self.inner.class()
    }

    fn label(&self) -> String {
        format!("dedup({})", self.inner.label())
    }

    fn store(
        &mut self,
        key: &str,
        data: &[u8],
        cost: &CostModel,
    ) -> Result<StoreReceipt, StorageError> {
        let Some(ik) = ObjectKey::parse(key).as_image().cloned() else {
            self.counter(|c| &c.passthrough_objects, 1);
            return self.inner.store(key, data, cost);
        };
        self.counter(|c| &c.logical_bytes, data.len() as u64);
        let object_digest = fnv1a64(data);

        // Delta against the lineage's last raw-stored version, if that
        // wins; always raw otherwise (and raw resets the base, keeping
        // delta depth at one).
        let lineage = ik.lineage();
        let mut encoding = Encoding::Raw;
        let mut payload: std::borrow::Cow<[u8]> = std::borrow::Cow::Borrowed(data);
        if let Some(base) = self.lineage.get(&lineage) {
            if base.seq < ik.seq {
                // A delta wins at no more than half the object's size; one
                // that cannot is abandoned part-way.
                let limit = data.len().max(1) / 2;
                if let Some(d) = xor_rle_encode_within(&base.raw, data, limit) {
                    encoding = Encoding::Delta(BaseRecipe {
                        len: base.raw.len() as u64,
                        digest: base.digest,
                        chunks: base.chunks.clone(),
                    });
                    payload = std::borrow::Cow::Owned(d);
                }
            }
        }

        let pool = self.pool.clone();
        let chunked = split_and_digest(&payload, &self.params, &pool);
        let chunk_refs: Vec<ChunkRef> = chunked
            .iter()
            .map(|(s, d)| ChunkRef { digest: *d, len: s.len as u32 })
            .collect();

        let mut tx = Tx::default();
        // Ship payload chunks, then take references on the base's chunks
        // (re-interning any the GC already evicted — the lineage cache
        // holds the raw bytes for exactly this).
        for (span, digest) in &chunked {
            let bytes = &payload[span.offset..span.offset + span.len];
            if let Err(e) = self.intern_chunk(*digest, bytes, cost, &mut tx) {
                self.rollback(tx);
                return Err(e);
            }
        }
        if let Encoding::Delta(base) = &encoding {
            let base_raw = &self.lineage[&lineage].raw;
            let slices: Vec<(u64, Vec<u8>)> = Self::chunk_slices(base_raw, &base.chunks)
                .into_iter()
                .map(|(d, s)| (d, s.to_vec()))
                .collect();
            for (digest, bytes) in slices {
                if let Err(e) = self.intern_chunk(digest, &bytes, cost, &mut tx) {
                    self.rollback(tx);
                    return Err(e);
                }
            }
        }

        let m = Manifest {
            object_len: data.len() as u64,
            object_digest,
            encoding: encoding.clone(),
            chunks: chunk_refs.clone(),
        };
        let manifest_bytes = manifest::encode(&m);

        // The commit point: every chunk is durable, the manifest is not.
        // A fault here is the interesting crash — chunks without a recipe
        // are invisible debris, a torn manifest must read as typed
        // corruption.
        if !self.faults.is_off() {
            if self.faults.node_crashed() {
                self.rollback(tx);
                return Err(StorageError::Unavailable);
            }
            match self.faults.check("cas/commit", manifest_bytes.len() as u64) {
                Some(Fault::Transient) => {
                    self.rollback(tx);
                    return Err(StorageError::Transient);
                }
                Some(Fault::FailStop) => {
                    self.faults.set_crashed();
                    self.rollback(tx);
                    return Err(StorageError::Unavailable);
                }
                Some(Fault::TornWrite { keep_bytes }) => {
                    let keep = (keep_bytes as usize).min(manifest_bytes.len());
                    let _ = self.inner.store(key, &manifest_bytes[..keep], cost);
                    self.faults.set_crashed();
                    self.rollback(tx);
                    return Err(StorageError::Unavailable);
                }
                None => {}
            }
        }

        let receipt = match self.inner.store(key, &manifest_bytes, cost) {
            Ok(r) => r,
            Err(e) => {
                self.rollback(tx);
                return Err(e);
            }
        };
        tx.time_ns += receipt.time_ns;
        tx.novel_bytes += manifest_bytes.len() as u64;
        self.counter(|c| &c.physical_bytes, manifest_bytes.len() as u64);
        match &encoding {
            Encoding::Raw => self.counter(|c| &c.raw_objects, 1),
            Encoding::Delta(_) => self.counter(|c| &c.delta_objects, 1),
        }

        // Commit: the new reference set replaces any previous object
        // under this key, and a raw store becomes the lineage's new delta
        // base.
        self.release_object(key);
        self.manifest_refs.insert(key.to_string(), m.referenced_chunks());
        if matches!(encoding, Encoding::Raw) {
            self.lineage.insert(
                lineage,
                LineageBase {
                    seq: ik.seq,
                    raw: data.to_vec(),
                    digest: object_digest,
                    chunks: chunk_refs,
                },
            );
        }
        Ok(StoreReceipt { key: key.to_string(), bytes: tx.novel_bytes, time_ns: tx.time_ns })
    }

    fn load(&self, key: &str, cost: &CostModel) -> Result<(Vec<u8>, u64), StorageError> {
        let (bytes, mut time_ns) = self.inner.load(key, cost)?;
        if !manifest::is_manifest(&bytes) {
            return Ok((bytes, time_ns));
        }
        let m = manifest::decode(&bytes)
            .map_err(|_| StorageError::CorruptManifest { key: key.to_string() })?;
        let payload = self.resolve_chunks(&m.chunks, cost, &mut time_ns)?;
        let object = match &m.encoding {
            Encoding::Raw => payload,
            Encoding::Delta(base) => {
                let base_bytes = self.resolve_chunks(&base.chunks, cost, &mut time_ns)?;
                if base_bytes.len() as u64 != base.len || fnv1a64(&base_bytes) != base.digest {
                    return Err(StorageError::CorruptManifest { key: key.to_string() });
                }
                xor_rle_decode(&base_bytes, &payload)
                    .ok_or(StorageError::CorruptManifest { key: key.to_string() })?
            }
        };
        if object.len() as u64 != m.object_len || fnv1a64(&object) != m.object_digest {
            return Err(StorageError::CorruptManifest { key: key.to_string() });
        }
        Ok((object, time_ns))
    }

    fn delete(&mut self, key: &str) -> Result<(), StorageError> {
        self.inner.delete(key)?;
        self.release_object(key);
        Ok(())
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
        self.inner.on_node_failure();
    }

    fn on_node_repair(&mut self) {
        self.inner.on_node_repair();
    }

    fn on_power_down(&mut self) {
        self.inner.on_power_down();
    }

    fn replica_manifest(&self, key: &str) -> Option<ReplicaManifest> {
        self.inner.replica_manifest(key)
    }

    fn fork(&self, relink: &mut Relink) -> SimResult<Box<dyn StableStorage>> {
        Ok(Box::new(DedupStore {
            inner: self.inner.fork(relink)?,
            params: self.params,
            pool: self.pool.clone(),
            faults: relink.faults().clone(),
            index: self.index.clone(),
            lineage: self.lineage.clone(),
            manifest_refs: self.manifest_refs.clone(),
            stats: self.stats.fork(relink)?,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ckpt_storage::key::ImageKey;
    use ckpt_storage::media::LocalDisk;

    fn cost() -> CostModel {
        CostModel::circa_2005()
    }

    fn store() -> DedupStore {
        DedupStore::new(Box::new(LocalDisk::new(1 << 30)))
    }

    fn key(seq: u64) -> String {
        ImageKey::new("job", 1, seq).to_string()
    }

    fn pseudo(n: usize, seed: u64) -> Vec<u8> {
        let mut v = Vec::with_capacity(n);
        let mut x = seed;
        for _ in 0..n {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(seed | 1);
            v.push((x >> 33) as u8);
        }
        v
    }

    #[test]
    fn image_round_trips_through_chunks() {
        let mut s = store();
        let data = pseudo(50_000, 1);
        let r = s.store(&key(1), &data, &cost()).unwrap();
        assert!(r.bytes > 0);
        let (back, t) = s.load(&key(1), &cost()).unwrap();
        assert_eq!(back, data);
        assert!(t > 0);
        assert!(s.stats().novel_chunks > 1, "a 50 KiB object must chunk");
    }

    #[test]
    fn identical_objects_share_all_chunks() {
        let mut s = store();
        let data = pseudo(40_000, 2);
        let r1 = s.store(&ImageKey::new("a", 1, 1).to_string(), &data, &cost()).unwrap();
        let r2 = s.store(&ImageKey::new("b", 1, 1).to_string(), &data, &cost()).unwrap();
        assert!(
            r2.bytes < r1.bytes / 4,
            "second copy must ship only a manifest: {} vs {}",
            r2.bytes,
            r1.bytes
        );
        assert!(s.stats().dedup_ratio() > 1.8);
    }

    #[test]
    fn near_identical_successor_ships_novelty_only() {
        let mut s = store();
        let mut data = pseudo(64_000, 3);
        let r1 = s.store(&key(1), &data, &cost()).unwrap();
        data[100] ^= 1;
        let r2 = s.store(&key(2), &data, &cost()).unwrap();
        assert!(
            r2.bytes < r1.bytes / 10,
            "one flipped byte must delta to a sliver: {} vs {}",
            r2.bytes,
            r1.bytes
        );
        assert_eq!(s.stats().delta_objects, 1);
        let (back, _) = s.load(&key(2), &cost()).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn non_image_keys_pass_through() {
        let mut s = store();
        s.store("scratch/obj", b"hello", &cost()).unwrap();
        assert_eq!(s.load("scratch/obj", &cost()).unwrap().0, b"hello");
        assert_eq!(s.stats().passthrough_objects, 1);
        assert_eq!(s.stats().novel_chunks, 0);
    }

    #[test]
    fn delete_gcs_unreferenced_chunks_only() {
        let mut s = store();
        let shared = pseudo(30_000, 4);
        s.store(&ImageKey::new("a", 1, 1).to_string(), &shared, &cost()).unwrap();
        s.store(&ImageKey::new("b", 1, 1).to_string(), &shared, &cost()).unwrap();
        let live = s.stats().live_chunks;
        s.delete(&ImageKey::new("a", 1, 1).to_string()).unwrap();
        assert_eq!(s.stats().live_chunks, live, "b still references every chunk");
        assert_eq!(s.load(&ImageKey::new("b", 1, 1).to_string(), &cost()).unwrap().0, shared);
        s.delete(&ImageKey::new("b", 1, 1).to_string()).unwrap();
        assert_eq!(s.stats().live_chunks, 0, "last reference gone, chunks GC'd");
        assert_eq!(s.stats().gc_chunks, s.stats().novel_chunks);
    }

    #[test]
    fn pruned_base_does_not_orphan_deltas() {
        let mut s = store();
        let mut data = pseudo(48_000, 5);
        s.store(&key(1), &data, &cost()).unwrap();
        data[7] ^= 0xff;
        s.store(&key(2), &data, &cost()).unwrap();
        // Prune the base object; the delta's manifest holds its own base
        // references, so seq 2 must still resolve bit-exactly.
        s.delete(&key(1)).unwrap();
        assert_eq!(s.load(&key(2), &cost()).unwrap().0, data);
        // And a later delta (base manifest long gone) still works.
        data[9000] ^= 0x0f;
        s.store(&key(3), &data, &cost()).unwrap();
        assert_eq!(s.load(&key(3), &cost()).unwrap().0, data);
    }

    #[test]
    fn missing_chunk_is_a_typed_error() {
        let mut s = store();
        let data = pseudo(20_000, 6);
        s.store(&key(1), &data, &cost()).unwrap();
        // Destroy one chunk behind the store's back.
        let chunk_key = s
            .list()
            .into_iter()
            .find(|k| k.starts_with("cas/"))
            .expect("a chunk object exists");
        s.inner.delete(&chunk_key).unwrap();
        match s.load(&key(1), &cost()) {
            Err(StorageError::MissingChunk { .. }) => {}
            other => panic!("expected MissingChunk, got {other:?}"),
        }
    }

    #[test]
    fn torn_manifest_is_a_typed_error() {
        let h = FaultHandle::armed("cas/commit@1", Fault::TornWrite { keep_bytes: 9 });
        let mut s = store().with_faults(h.clone());
        let data = pseudo(20_000, 7);
        assert_eq!(s.store(&key(1), &data, &cost()).unwrap_err(), StorageError::Unavailable);
        assert!(h.node_crashed());
        h.clear_crash();
        match s.load(&key(1), &cost()) {
            Err(StorageError::CorruptManifest { .. }) => {}
            other => panic!("expected CorruptManifest, got {other:?}"),
        }
    }

    #[test]
    fn commit_failstop_rolls_back_chunk_refs() {
        let h = FaultHandle::armed("cas/commit@1", Fault::FailStop);
        let mut s = store().with_faults(h.clone());
        let data = pseudo(20_000, 8);
        assert_eq!(s.store(&key(1), &data, &cost()).unwrap_err(), StorageError::Unavailable);
        assert_eq!(s.stats().live_chunks, 0, "failed commit must not leak references");
        // The store recovers: after "repair" the same image commits clean.
        h.clear_crash();
        s.store(&key(1), &data, &cost()).unwrap();
        assert_eq!(s.load(&key(1), &cost()).unwrap().0, data);
    }

    /// The last object, 200,000 bytes, is past `ckpt_par::PAR_MIN_BYTES`:
    /// wide pools digest its chunks in parallel, the three 30 KB objects
    /// stay on the caller.
    #[test]
    fn output_is_pool_width_invariant() {
        let datasets: Vec<Vec<u8>> = (0..4)
            .map(|i| pseudo(if i < 3 { 30_000 + i * 7 } else { 200_000 }, 10 + i as u64))
            .collect();
        let mut receipts: Option<Vec<StoreReceipt>> = None;
        for w in [1usize, 4, 8] {
            let mut s = store().with_pool(Arc::new(Pool::new(w)));
            let rs: Vec<StoreReceipt> = datasets
                .iter()
                .enumerate()
                .map(|(i, d)| s.store(&key(i as u64 + 1), d, &cost()).unwrap())
                .collect();
            for (i, d) in datasets.iter().enumerate() {
                assert_eq!(&s.load(&key(i as u64 + 1), &cost()).unwrap().0, d);
            }
            match &receipts {
                None => receipts = Some(rs),
                Some(prev) => assert_eq!(prev, &rs, "width {w} changed observable output"),
            }
        }
    }
}
