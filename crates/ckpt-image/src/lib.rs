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
//!   corruption fails the restart loudly ([`decode`], [`crc32`]). The CRC
//!   folds by carry-less multiplication where the CPU has PCLMULQDQ and
//!   falls back to slicing-by-8 elsewhere, with the same result; the same
//!   kernel computes the storage tiers' CRC-64 content digest ([`crc64`]);
//! * **compression**: zero-page elision and RLE, the data reductions that
//!   made sense against the paper's 50 MB/s disks ([`encode_page`]);
//! * **incremental chains**: full + delta images with validated lineage
//!   and deterministic reconstruction ([`reconstruct`]);
//! * **parallel encode and decode**: pages encoded, and image bodies
//!   written and CRC'd, in runs on a `ckpt-par` pool, byte-identical at
//!   every width ([`encode_pages`], [`encode_with_pool`]); a checkpoint's
//!   image is encoded straight from the pages where they sit, with no
//!   page record in between ([`encode_borrowed_pages`]); a restart's image
//!   bodies are CRC'd in the same runs ([`decode_with_pool`]).
//!
//! Capturing *from* and restoring *into* a live [`simos::Kernel`] is the
//! job of `ckpt-core`; this crate is the format.
//!
//! The public API is the re-export list below and nothing else: the image
//! and its records ([`CheckpointImage`] and the `*Record` types), the codec
//! ([`encode`], [`decode`] and their `_with_pool` forms, and
//! [`encode_borrowed_pages`]), page encoding ([`encode_page`],
//! [`decode_page`], [`encode_pages`], [`page_records`]), chain
//! reconstruction ([`reconstruct`], [`reconstruct_owned`]) and the two
//! CRCs ([`crc32`], [`crc64`]).

// Every other crate forbids `unsafe`. Here only the CRCs' one dispatch to
// their CPU-feature-gated kernel (`crc::Crc::checksum`) uses it, under its
// own `allow`.
#![deny(unsafe_code)]
#![warn(unreachable_pub)]

mod chain;
mod codec;
mod compress;
mod crc;
mod format;
mod parallel;

pub use chain::{reconstruct, reconstruct_owned, ChainError};
/// The pool the `*_with_pool` entry points run on, re-exported so a crate
/// that stores or loads images can hand one in without depending on
/// `ckpt-par` itself.
pub use ckpt_par::Pool;
pub use codec::{decode, decode_with_pool, encode, encode_with_pool, DecodeError};
pub use compress::{decode_page, encode_page, PageEncoding};
pub use crc::{crc32, crc64};
pub use format::{
    CheckpointImage, FdRecord, FileContentRecord, ImageHeader, ImageKind, PageRecord,
    PolicyRecord, ProgramRecord, RegsRecord, SigActionRecord, SigRecord, TimerRecord, VmaRecord,
};
pub use parallel::{encode_borrowed_pages, encode_pages, page_records};
