//! Outcome records: what a checkpoint or restart cost, in the currencies
//! the paper argues in (virtual time, application stall, protection-domain
//! crossings, data volume).

use simos::stats::KernelStats;

/// Result of one checkpoint operation.
///
/// ckptbench reads `memory_bytes` (`benchmark/src/single.rs`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CkptOutcome {
    /// Sequence number of the produced image.
    pub seq: u64,
    /// Whether the image was full or incremental.
    pub incremental: bool,
    /// Pages carried by the image.
    pub pages_saved: u64,
    /// Bytes of (uncompressed) memory represented by those pages.
    pub memory_bytes: u64,
    /// Logical dirty bytes at the tracker's granularity — for block/line
    /// trackers this is what a format exploiting that granularity would
    /// ship, and it is the size the paper's finer-granularity argument is
    /// about.
    pub(crate) logical_dirty_bytes: u64,
    /// Encoded image size actually written to stable storage.
    pub encoded_bytes: u64,
    /// Total virtual time from initiation to the image being durable.
    pub total_ns: u64,
    /// Virtual time the application itself was stopped/stalled.
    pub app_stall_ns: u64,
    /// Time spent in the storage backend.
    pub storage_ns: u64,
    /// Kernel event counters over the operation.
    pub events: KernelStats,
}

/// Result of one restart operation.
///
/// ckptbench reads `pages_restored`, `total_ns` and `images_loaded`
/// (`benchmark/src/single.rs`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RestartOutcome {
    /// Pid the process resumed under.
    pub pid: simos::Pid,
    /// Pages repopulated.
    pub pages_restored: u64,
    /// Total virtual time from initiation to the process being runnable.
    pub total_ns: u64,
    /// Keys listed under the lineage's prefix when the restart began: every
    /// stored image of the target, debris and superseded segments included,
    /// not only the chain that was loaded.
    pub images_loaded: u64,
    /// Work counter recorded in the image (progress preserved).
    pub work_done: u64,
}
