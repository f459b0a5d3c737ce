//! # ckpt-cas — content-addressed checkpoint storage
//!
//! The paper's "direction forward" is incremental checkpointing; its
//! production endpoint is deduplication. When many co-scheduled guests
//! run the same application, most checkpoint bytes are identical across
//! processes — and across successive links of one incremental chain.
//! This crate detects that redundancy by *content*:
//!
//! * chunking — content-defined chunking: a gear rolling hash picks
//!   chunk boundaries that re-synchronize after edits, with min/avg/max
//!   size bounds ([`ChunkParams`]); each chunk is addressed by its
//!   CRC-64 content digest ([`ckpt_storage::digest64`]);
//! * [`delta`] — XOR + run-length delta between successive versions of
//!   one lineage, applied before chunking;
//! * the manifest — the stored recipe (chunk list, optional base recipe,
//!   object digest, checksum trailer) that rebuilds an object;
//! * [`DedupStore`] — the [`StableStorage`] decorator that
//!   puts it together: refcount-exact chunk GC, novel-bytes receipts,
//!   typed [`MissingChunk`]/[`CorruptManifest`] failures, and
//!   deterministic byte-identical output at any [`ckpt_par`] pool width.
//!
//! The public API is [`DedupStore`] with its [`CasStats`] /
//! [`CasStatsHandle`] counters, [`ChunkParams`] and [`split_and_digest`],
//! and the [`delta`] codec module.
//!
//! [`StableStorage`]: ckpt_storage::StableStorage
//! [`MissingChunk`]: ckpt_storage::StorageError::MissingChunk
//! [`CorruptManifest`]: ckpt_storage::StorageError::CorruptManifest

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

mod chunker;
pub mod delta;
mod manifest;
mod store;

pub use chunker::{split_and_digest, ChunkParams};
pub use store::{CasStats, CasStatsHandle, DedupStore};
