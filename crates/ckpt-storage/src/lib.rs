//! # ckpt-storage — stable storage with availability semantics
//!
//! Where a checkpoint lives determines what failures it survives. This
//! crate provides the media of the paper's Table 1 "stable storage"
//! column — node RAM, local disk, swap partition, battery-backed NVRAM,
//! remote store — each with a bandwidth/latency cost model and explicit
//! fail-stop semantics ([`StorageClass::survives_node_loss`]),
//! plus an image layer that stores encoded images under their canonical
//! keys and loads a [`ckpt_image::CheckpointImage`] back by reconstructing
//! the latest incremental chain, and a fault-injecting decorator
//! ([`FaultInjectStore`]) that exposes per-store/load crash sites to the
//! crashpoint matrix.
//!
//! The public API is the re-export list below: the [`StableStorage`] trait
//! and its receipts and errors, the typed key namespace ([`ObjectKey`],
//! [`ImageKey`]), the five media, the fault decorator, the image layer
//! ([`store_image_bytes`], [`load_chain`], [`prune_superseded`]) and the
//! content digest ([`digest64`]).

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

mod backend;
mod digest;
mod images;
mod inject;
mod key;
mod media;

pub use backend::{
    BatchReceipt, CodingGeometry, ReplicaManifest, StableStorage, StorageClass, StorageError,
    StoreReceipt,
};
pub use digest::{digest64, fnv1a64};
pub use images::{
    load_chain, prune_before, prune_superseded, store_image_bytes, ChainLoad, ChainPolicy,
    ImageStoreError,
};
pub use inject::FaultInjectStore;
pub use key::{ImageKey, ObjectKey};
pub use media::{LocalDisk, NvramStore, RamStore, RemoteServer, RemoteStore, SwapStore};
