//! # ckpt-image — the checkpoint image format
//!
//! A checkpoint is only as good as the fidelity and integrity of its image.
//! This crate defines a sectioned binary format capturing everything the
//! paper's Section 4.1 lists as process state — registers, memory regions,
//! page contents, file descriptors (including `dup` sharing), signal state,
//! interval timers — plus the program spec needed to re-instantiate the
//! process, with:
//!
//! * **integrity**: a trailing CRC-32 covering the whole encoding; any
//!   corruption fails the restart loudly ([`codec`], [`crc`]);
//! * **compression**: zero-page elision and RLE, the data reductions that
//!   made sense against the paper's 50 MB/s disks ([`compress`]);
//! * **incremental chains**: full + delta images with validated lineage
//!   and deterministic reconstruction ([`chain`]);
//! * **parallel encode**: pages encoded, and image bodies written and
//!   CRC'd, in runs on a `ckpt-par` pool, byte-identical at every width
//!   ([`parallel`], [`encode_with_pool`]).
//!
//! Capturing *from* and restoring *into* a live [`simos::Kernel`] is the
//! job of `ckpt-core`; this crate is the format.

pub mod chain;
pub mod codec;
pub mod compress;
pub mod crc;
pub mod format;
pub mod parallel;

pub use chain::{reconstruct, reconstruct_with, validate, ChainError};
pub use codec::{decode, encode, encode_with_pool, DecodeError};
pub use compress::{decode_page, encode_page, encode_page_with, EncodeScratch, PageEncoding};
pub use crc::{crc32, crc32_combine};
pub use parallel::{encode_page_slices, encode_pages};
pub use format::{
    CheckpointImage, FdRecord, FileContentRecord, ImageHeader, ImageKind, PageRecord,
    PolicyRecord, ProgramRecord, RegsRecord, SigActionRecord, SigRecord, TimerRecord, VmaRecord,
};
