//! The stable-storage abstraction and its failure semantics.
//!
//! Table 1's "stable storage" column distinguishes systems that save
//! checkpoints `local`, `remote`, or not at all — and Section 4.1 makes the
//! fault-tolerance consequence explicit: "most store the checkpoint locally
//! instead of remotely, thus checkpoint data cannot be retrieved in case of
//! a failure of the machine". The backends here carry exactly those
//! semantics, driven by three failure events:
//!
//! * **node failure** (fail-stop): RAM contents are lost; local disk and
//!   swap become *unavailable* (the machine is down) but not erased;
//!   remote storage is unaffected;
//! * **node repair**: local media become reachable again with data intact;
//! * **power-down** (hibernation case): RAM is lost, disk and swap survive
//!   — which is why Software Suspend writes the RAM image to the swap
//!   partition.

use simos::cost::CostModel;
use simos::types::{SimError, SimResult};
use simos::Relink;

/// Which kind of medium a backend is.
///
/// `#[non_exhaustive]`: downstream matches must carry a `_` arm so new
/// media can be added without a breaking release.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum StorageClass {
    /// RAM on the same node (Software Suspend's "standby" mode).
    Ram,
    /// The node's local disk (filesystem).
    LocalDisk,
    /// The node's swap partition (contiguous, no filesystem).
    Swap,
    /// A remote store reached over the interconnect.
    Remote,
    /// Battery-backed (or flash) non-volatile RAM on the node: RAM-class
    /// speed, survives power-down, but — like the local disk — dies with
    /// the node for retrieval purposes until the node is repaired.
    Nvram,
}

impl StorageClass {
    /// Whether checkpoints on this medium can be retrieved after the owning
    /// node fail-stops.
    pub fn survives_node_loss(self) -> bool {
        matches!(self, StorageClass::Remote)
    }

    /// Whether checkpoints survive a planned power-down of the node.
    pub fn survives_power_down(self) -> bool {
        matches!(
            self,
            StorageClass::LocalDisk
                | StorageClass::Swap
                | StorageClass::Remote
                | StorageClass::Nvram
        )
    }

    /// Volatile media lose their *contents* when power is cut (power-down,
    /// or the power loss implied by a fail-stop of the owning node).
    pub(crate) fn is_volatile(self) -> bool {
        !self.survives_power_down()
    }

    /// The name a single-copy medium of this class reports as its
    /// [`StableStorage::label`].
    pub fn label(self) -> &'static str {
        match self {
            StorageClass::Ram => "ram",
            StorageClass::LocalDisk => "local-disk",
            StorageClass::Swap => "swap",
            StorageClass::Remote => "remote",
            StorageClass::Nvram => "nvram",
        }
    }

    /// Modelled time to move `len` bytes onto or off a medium of this
    /// class: RAM and NVRAM stream at memory-bus rates (NVRAM at half DRAM
    /// bandwidth for the battery-backed path), disk and swap pay one seek,
    /// remote pays one network latency.
    pub(crate) fn transfer_ns(self, len: usize, cost: &CostModel) -> u64 {
        let bytes = len as f64;
        match self {
            StorageClass::Ram => (bytes * cost.ram_store_ns_per_byte).round() as u64,
            StorageClass::Nvram => (bytes * cost.ram_store_ns_per_byte * 2.0).round() as u64,
            StorageClass::LocalDisk => {
                cost.disk_latency_ns + (bytes * cost.disk_ns_per_byte).round() as u64
            }
            StorageClass::Swap => {
                cost.disk_latency_ns + (bytes * cost.swap_ns_per_byte).round() as u64
            }
            StorageClass::Remote => cost.wire(len as u64),
        }
    }
}

/// Storage errors.
///
/// `#[non_exhaustive]`: downstream matches must carry a `_` arm so new
/// failure modes (as with [`StorageError::MissingChunk`]) can be added
/// without a breaking release.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum StorageError {
    /// The medium is unreachable (node down, network partition).
    Unavailable,
    /// No object under this key.
    NotFound(String),
    /// Capacity exceeded.
    NoSpace { need: u64, free: u64 },
    /// A one-shot failure (dropped message, controller hiccup); retrying
    /// the same operation may succeed.
    Transient,
    /// A replicated backend could not assemble a quorum: fewer than the
    /// required number of replicas acknowledged (write) or fewer than
    /// `N - w + 1` replicas are intact (read). The operation is refused —
    /// returning stale or partial data here would be silent corruption.
    QuorumLost { acked: u32, needed: u32 },
    /// A chunk manifest referenced a content-addressed chunk that the
    /// backing store no longer holds (or holds with the wrong digest).
    /// The object is unrecoverable *as stored*; the chain loader treats
    /// this like decode failure and falls back to an older intact chain —
    /// never silent corruption.
    MissingChunk { digest: u64 },
    /// An object carried the chunk-manifest magic but failed to decode
    /// (torn manifest write, checksum mismatch). Typed detection, same
    /// fallback policy as [`StorageError::MissingChunk`].
    CorruptManifest { key: String },
    /// An erasure-coded backend found fewer than `k` intact shards at the
    /// winning version: the object cannot be reconstructed. The operation
    /// is refused — decoding from fewer than `k` shards would fabricate
    /// bytes, which is silent corruption.
    TooManyShardsLost { intact: u32, needed: u32 },
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::Unavailable => write!(f, "storage unavailable"),
            StorageError::NotFound(k) => write!(f, "no object {k}"),
            StorageError::NoSpace { need, free } => {
                write!(f, "no space: need {need} bytes, {free} free")
            }
            StorageError::Transient => write!(f, "transient storage failure"),
            StorageError::QuorumLost { acked, needed } => {
                write!(f, "quorum lost: {acked} of {needed} required replicas")
            }
            StorageError::MissingChunk { digest } => {
                write!(f, "missing content chunk cas/{digest:016x}")
            }
            StorageError::CorruptManifest { key } => {
                write!(f, "corrupt chunk manifest under {key}")
            }
            StorageError::TooManyShardsLost { intact, needed } => {
                write!(f, "too many shards lost: {intact} intact of {needed} needed")
            }
        }
    }
}

impl std::error::Error for StorageError {}

/// Receipt for a completed store, carrying the modelled cost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreReceipt {
    pub key: String,
    pub bytes: u64,
    /// Virtual time the operation took (the caller charges it).
    pub time_ns: u64,
}

/// Receipt for a committed multi-object batch ([`StableStorage::store_batch`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchReceipt {
    pub objects: u64,
    pub bytes: u64,
    /// Virtual time the whole commit took (the caller charges it).
    pub time_ns: u64,
    /// Acknowledgement round-trips the commit consumed: a per-object loop
    /// pays one per object, a framed batch commit pays one per batch (per
    /// stripe, on a striped pool). This is the quantity batching exists to
    /// shrink, so receipts carry it for the scale reports to compare.
    pub ack_cycles: u64,
}

/// Erasure-coding geometry of a committed object: `k` data shards plus
/// `m` parity shards. Redundancy overhead is `(k + m) / k` instead of a
/// replicated backend's `n`; any `m` shard losses are survivable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodingGeometry {
    /// Data shards (the object splits into `k` equal pieces).
    pub k: u32,
    /// Parity shards (Reed-Solomon over GF(256)).
    pub m: u32,
}

/// Where a replicated commit landed: which replicas acknowledged, under
/// what quorum configuration, and the digest/version that identify the
/// committed frame. Non-replicated backends never produce one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaManifest {
    pub key: String,
    /// Monotonic per-key commit version (newest wins at read-quorum time).
    pub version: u64,
    /// [`digest64`](crate::digest64) of the committed payload (torn-frame
    /// detection).
    pub digest: u64,
    pub bytes: u64,
    /// Replica indices that acknowledged the write, ascending.
    pub acked: Vec<u32>,
    /// Replication factor N.
    pub n: u32,
    /// Write quorum w (> N/2).
    pub w: u32,
    /// Erasure-coding geometry, if the backend shards instead of
    /// mirroring. `None` means `n` full copies. Coded backends set
    /// `n = k + m` (shard-holding nodes) and `w` to the shard write
    /// quorum, so quorum arithmetic stays meaningful either way.
    pub coding: Option<CodingGeometry>,
}

/// A stable-storage backend.
pub trait StableStorage: Send {
    fn class(&self) -> StorageClass;

    /// Human-readable label for reports.
    fn label(&self) -> String;

    /// Store an object. Returns the modelled time cost.
    fn store(&mut self, key: &str, data: &[u8], cost: &CostModel)
        -> Result<StoreReceipt, StorageError>;

    /// Load an object; returns (data, modelled time).
    fn load(&self, key: &str, cost: &CostModel) -> Result<(Vec<u8>, u64), StorageError>;

    /// [`StableStorage::load`], plus the [`digest64`](crate::digest64) of
    /// the returned bytes when this layer verified them against it on the
    /// way out: a layer above that needs the digest compares it instead of
    /// hashing the bytes again. `None` (the default) vouches for nothing.
    fn load_verified(
        &self,
        key: &str,
        cost: &CostModel,
    ) -> Result<(Vec<u8>, u64, Option<u64>), StorageError> {
        let (data, time_ns) = self.load(key, cost)?;
        Ok((data, time_ns, None))
    }

    /// [`StableStorage::store`] of `data` whose [`digest64`](crate::digest64)
    /// the caller already holds as `digest`: a layer that records the
    /// digest with the object takes it instead of hashing `data` again.
    /// The default ignores it and stores.
    fn store_digested(
        &mut self,
        key: &str,
        data: &[u8],
        digest: u64,
        cost: &CostModel,
    ) -> Result<StoreReceipt, StorageError> {
        let _ = digest;
        self.store(key, data, cost)
    }

    fn delete(&mut self, key: &str) -> Result<(), StorageError>;

    /// Keys currently stored (sorted). Empty if unavailable.
    fn list(&self) -> Vec<String>;

    /// Whether the medium is currently reachable.
    fn available(&self) -> bool;

    /// Total bytes currently stored.
    fn used_bytes(&self) -> u64;

    /// Fail-stop of the owning node.
    fn on_node_failure(&mut self);

    /// The owning node came back.
    fn on_node_repair(&mut self);

    /// Planned power-down of the owning node.
    fn on_power_down(&mut self);

    /// The replica manifest recorded for `key`'s last committed write, if
    /// this backend replicates. Single-copy backends return `None`.
    fn replica_manifest(&self, _key: &str) -> Option<ReplicaManifest> {
        None
    }

    /// A copy of the store as it stands, for a fork of the world holding
    /// it: every layer consults [`Relink::faults`], and state shared with
    /// other holders (a remote server, a replica set, a stats handle) is
    /// copied once through `relink` — two holders of one server still
    /// share one in the fork, and nothing is shared with the original. The
    /// default refuses: a backend that does not say how it forks keeps its
    /// world from forking.
    fn fork(&self, _relink: &mut Relink) -> SimResult<Box<dyn StableStorage>> {
        Err(SimError::WorldNotForkable {
            holder: format!("storage {}", self.label()),
        })
    }

    /// Commit a batch of objects as one transaction: either every object
    /// lands or none does (already-stored objects are rolled back
    /// best-effort on a later failure, and the error is returned).
    ///
    /// The default loops [`StableStorage::store`] — one acknowledgement
    /// cycle per object. Backends with a cheaper group-commit path (the
    /// quorum-replicated store frames the whole batch into one
    /// admission/ack cycle per replica) override this; callers that commit
    /// a round's worth of images at once get the amortization without
    /// knowing which backend is underneath.
    fn store_batch(
        &mut self,
        objects: &[(&str, &[u8])],
        cost: &CostModel,
    ) -> Result<BatchReceipt, StorageError> {
        let mut bytes = 0u64;
        let mut time_ns = 0u64;
        let mut stored: Vec<&str> = Vec::new();
        for (key, data) in objects {
            match self.store(key, data, cost) {
                Ok(r) => {
                    bytes += r.bytes;
                    time_ns += r.time_ns;
                    stored.push(key);
                }
                Err(e) => {
                    for key in stored {
                        let _ = self.delete(key);
                    }
                    return Err(e);
                }
            }
        }
        Ok(BatchReceipt {
            objects: objects.len() as u64,
            bytes,
            time_ns,
            ack_cycles: objects.len() as u64,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn survival_matrix_matches_paper() {
        assert!(!StorageClass::LocalDisk.survives_node_loss());
        assert!(!StorageClass::Ram.survives_node_loss());
        assert!(!StorageClass::Swap.survives_node_loss());
        assert!(StorageClass::Remote.survives_node_loss());
        assert!(!StorageClass::Nvram.survives_node_loss());

        assert!(StorageClass::LocalDisk.survives_power_down());
        assert!(StorageClass::Swap.survives_power_down());
        assert!(!StorageClass::Ram.survives_power_down());
        assert!(StorageClass::Nvram.survives_power_down());

        assert!(StorageClass::Ram.is_volatile());
        assert!(!StorageClass::Nvram.is_volatile());
    }

    #[test]
    fn image_keys_sort_by_sequence() {
        use crate::key::ImageKey;
        let a = ImageKey::new("job", 1, 2).to_string();
        let b = ImageKey::new("job", 1, 10).to_string();
        assert!(a < b, "zero-padded sequence numbers must sort numerically");
        // The rendered keys parse back and the typed order agrees with the
        // string order the media rely on.
        let pa: ImageKey = a.parse().unwrap();
        let pb: ImageKey = b.parse().unwrap();
        assert_eq!((pa.seq, pb.seq), (2, 10));
        assert!(pa < pb, "typed order follows sequence");
    }
}
