//! # ckpt-cas — content-addressed checkpoint storage
//!
//! The paper's "direction forward" is incremental checkpointing; its
//! production endpoint is deduplication. When many co-scheduled guests
//! run the same application, most checkpoint bytes are identical across
//! processes — and across successive links of one incremental chain.
//! This crate detects that redundancy by *content*:
//!
//! * [`chunker`] — content-defined chunking: a gear rolling hash picks
//!   chunk boundaries that re-synchronize after edits, with min/avg/max
//!   size bounds ([`ChunkParams`]);
//! * [`fnv1a64`] — FNV-1a 64-bit content addresses (the one shared
//!   definition in `ckpt-storage`, re-exported);
//! * [`delta`] — XOR + run-length delta between successive versions of
//!   one lineage, applied before chunking;
//! * [`manifest`] — the stored recipe (chunk list, optional base recipe,
//!   object digest, checksum trailer) that rebuilds an object;
//! * [`store`] — [`DedupStore`], the [`StableStorage`] decorator that
//!   puts it together: refcount-exact chunk GC, novel-bytes receipts,
//!   typed [`MissingChunk`]/[`CorruptManifest`] failures, and
//!   deterministic byte-identical output at any [`ckpt_par`] pool width.
//!
//! [`StableStorage`]: ckpt_storage::StableStorage
//! [`MissingChunk`]: ckpt_storage::StorageError::MissingChunk
//! [`CorruptManifest`]: ckpt_storage::StorageError::CorruptManifest

pub mod chunker;
pub mod delta;
pub mod manifest;
pub mod store;

pub use chunker::{split, split_and_digest, ChunkParams, ChunkSpan};
pub use ckpt_storage::fnv1a64;
pub use manifest::{BaseRecipe, ChunkRef, Encoding, Manifest, ManifestError, MANIFEST_MAGIC};
pub use store::{CasStats, CasStatsHandle, DedupStore};
