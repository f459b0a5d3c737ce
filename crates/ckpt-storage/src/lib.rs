//! # ckpt-storage — stable storage with availability semantics
//!
//! Where a checkpoint lives determines what failures it survives. This
//! crate provides the media of the paper's Table 1 "stable storage"
//! column — node RAM, local disk, swap partition, battery-backed NVRAM,
//! remote store — each with a bandwidth/latency cost model and explicit
//! fail-stop semantics ([`backend::StorageClass::survives_node_loss`]),
//! plus an image layer that stores/retrieves
//! [`ckpt_image::CheckpointImage`]s and reconstructs the latest
//! incremental chain, and a fault-injecting decorator ([`inject`]) that
//! exposes per-store/load crash sites to the crashpoint matrix.

#![forbid(unsafe_code)]

pub mod backend;
pub mod digest;
pub mod images;
pub mod inject;
pub mod key;
pub mod media;

pub use backend::{BatchReceipt, CodingGeometry, ReplicaManifest, StableStorage, StorageClass, StorageError, StoreReceipt};
pub use digest::{digest64, fnv1a64};
pub use key::{ImageKey, ObjectKey, ParseKeyError};
pub use images::{
    load_chain, prune_before, prune_superseded, store_image, store_image_bytes, ChainLoad,
    ChainPolicy, ImageStoreError,
};
pub use inject::FaultInjectStore;
pub use media::{LocalDisk, NvramStore, RamStore, RemoteServer, RemoteStore, SwapStore};
