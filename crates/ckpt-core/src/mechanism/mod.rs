//! The checkpoint/restart mechanism families of the paper's taxonomy.
//!
//! Figure 1 classifies implementations by *context* (user vs system level),
//! *agent* (who performs the work), and *implementation specifics*. Each
//! submodule here is one leaf of that tree, implemented for real against
//! the simulated kernel:
//!
//! | Module | Taxonomy leaf | Surveyed systems |
//! |--------|---------------|------------------|
//! | [`user_level`] | user-level library call / signal handler / LD_PRELOAD | libckpt, libckp, Esky, Condor, CLIP, … |
//! | [`syscall`] | system-level, new system call | VMADump, BPROC, EPCKPT, Checkpoint |
//! | [`ksignal`] | system-level, kernel-mode signal handler | CHPOX, Software Suspend |
//! | [`kthread`] | system-level, kernel thread | CRAK, ZAP, UCLiK, BLCR, LAM/MPI, PsncR/C |
//! | [`fork_concurrent`] | system-level, concurrent (forked) checkpointing | Checkpoint (Carothers & Szymanski) |
//! | [`hardware`] | hardware-assisted | ReVive, SafetyNet |

pub mod fork_concurrent;
pub mod hardware;
pub mod hibernate;
pub mod ksignal;
pub mod kthread;
pub mod syscall;
pub mod user_level;

use crate::capture::{capture_image, restore_image, CaptureOptions, RestoreOptions, RestorePid};
use crate::report::{CkptOutcome, RestartOutcome};
use crate::tracker::{Tracker, TrackerKind};
use crate::SharedStorage;
use ckpt_image::{ChainError, ImageKind};
use ckpt_storage::{load_latest_valid_chain, prune_superseded, store_image_bytes, ImageKey};
use simos::trace::{Phase, StorageOp};
use simos::types::{Pid, SimError, SimResult};
use simos::Kernel;

/// Where the mechanism's checkpoint code executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Context {
    UserLevel,
    SystemOs,
    Hardware,
}

/// The agent performing the checkpoint (Figure 1's middle dimension).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AgentKind {
    LibraryCall,
    UserSignalHandler,
    Preload,
    SystemCall,
    KernelSignal,
    KernelThread,
    ConcurrentFork,
    DirectoryController,
    CacheBased,
}

/// Who can initiate a checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Initiation {
    /// Only the application itself triggers checkpoints (inserted calls or
    /// timers compiled in) — the "automatic" column of Table 1.
    Automatic,
    /// An external party (user, administrator, resource manager) can
    /// trigger a checkpoint at any time.
    UserInitiated,
}

/// Static description of a mechanism (feeds Table 1). `#[non_exhaustive]`:
/// obtained from [`Mechanism::info`], never constructed downstream.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct MechanismInfo {
    pub family: &'static str,
    pub context: Context,
    pub agent: AgentKind,
    /// Implemented as a loadable kernel module (vs static kernel or pure
    /// user space).
    pub is_kernel_module: bool,
    /// No application source modification / recompile / relink required.
    pub transparent: bool,
    pub supports_incremental: bool,
    pub initiation: Initiation,
}

/// A checkpoint/restart mechanism bound to (at most) one target process.
pub trait Mechanism {
    fn info(&self) -> MechanismInfo;

    /// Install whatever the mechanism needs (kernel modules, agents,
    /// signal handlers, tracing) for `pid`. Must be called before the
    /// process runs if the mechanism interposes from the start.
    fn prepare(&mut self, k: &mut Kernel, pid: Pid) -> SimResult<()>;

    /// Initiate a checkpoint *now* and drive the kernel until the image is
    /// durable. Mechanisms with `Initiation::Automatic` return an error —
    /// the inflexibility the paper criticizes.
    fn checkpoint(&mut self, k: &mut Kernel, pid: Pid) -> SimResult<CkptOutcome>;

    /// Restore the latest checkpoint of the prepared process from this
    /// mechanism's storage onto `k` (possibly a different kernel/node).
    fn restart(&mut self, k: &mut Kernel, pid: RestorePid) -> SimResult<RestartOutcome>;

    /// Outcomes of all checkpoints taken so far (including automatic
    /// ones). Ordered. Read-only: inspecting results must not perturb
    /// the kernel (modules are reached via [`Kernel::with_module`]).
    fn outcomes(&self, k: &Kernel) -> Vec<CkptOutcome>;
}

/// The shared kernel-context checkpoint engine used by every system-level
/// mechanism: decides full vs incremental, walks the PCB, compresses,
/// stores, prunes, re-arms tracking. Callers handle freezing and stall
/// accounting.
pub struct KernelCkptEngine {
    pub(crate) mechanism_name: String,
    pub(crate) job: String,
    pub(crate) storage: SharedStorage,
    pub(crate) tracker: Tracker,
    /// Force a full image every N checkpoints (0 = only the first is
    /// full). Ignored for non-incremental trackers.
    pub(crate) full_every: u64,
    pub(crate) compress: bool,
    pub(crate) save_file_contents: bool,
    /// Delete images older than the latest full after taking a full.
    pub(crate) prune: bool,
    pub(crate) node: u32,
    /// Pool for parallel page encoding during capture (default: the
    /// process-wide [`ckpt_par::global`] pool; width 1 = exact serial path).
    pub(crate) encode_pool: std::sync::Arc<ckpt_par::Pool>,
    /// Replica manifests recorded for the current chain, one per stored
    /// segment, in store order. Empty unless the backend replicates.
    chain_manifests: Vec<ckpt_storage::ReplicaManifest>,
    /// Counter handle of the dedup layer, when built with
    /// [`KernelCkptEngineBuilder::dedup`].
    cas_stats: Option<ckpt_cas::CasStatsHandle>,
    seq: u64,
    last_full_seq: u64,
    target_pid: Option<Pid>,
}

/// Builder for [`KernelCkptEngine`]. The four constructor arguments are
/// the mandatory identity of an engine; everything else defaults to the
/// common configuration (compressing, pruning, full-first-then-incremental)
/// and is overridden fluently:
///
/// ```
/// # use ckpt_core::mechanism::KernelCkptEngine;
/// # use ckpt_core::tracker::TrackerKind;
/// # use ckpt_core::shared_storage;
/// # use ckpt_storage::LocalDisk;
/// let engine = KernelCkptEngine::builder(
///         "epckpt", "job7", shared_storage(LocalDisk::new(1 << 30)),
///         TrackerKind::KernelPage)
///     .full_every(8)
///     .compress(false)
///     .build();
/// ```
#[must_use = "the builder does nothing until .build() is called"]
pub struct KernelCkptEngineBuilder {
    engine: KernelCkptEngine,
    dedup: bool,
}

impl KernelCkptEngineBuilder {
    /// Force a full image every `n` checkpoints (0 = only the first is
    /// full). Ignored for non-incremental trackers.
    pub fn full_every(mut self, n: u64) -> Self {
        self.engine.full_every = n;
        self
    }

    /// Compress pages in the image (default `true`).
    pub fn compress(mut self, on: bool) -> Self {
        self.engine.compress = on;
        self
    }

    /// Snapshot regular-file contents into the image (default `false`;
    /// needed for migration across nodes without a shared filesystem).
    pub fn save_file_contents(mut self, on: bool) -> Self {
        self.engine.save_file_contents = on;
        self
    }

    /// Delete images superseded by a new full checkpoint (default `true`).
    pub fn prune(mut self, on: bool) -> Self {
        self.engine.prune = on;
        self
    }

    /// The node id stamped into image headers (default 0).
    pub fn node(mut self, node: u32) -> Self {
        self.engine.node = node;
        self
    }

    /// Width of the page-encode worker pool (default: the host's available
    /// parallelism via [`ckpt_par::global`]). `1` forces the exact serial
    /// capture path; any width produces byte-identical images.
    pub fn encode_workers(mut self, n: usize) -> Self {
        self.engine.encode_pool = std::sync::Arc::new(ckpt_par::Pool::new(n));
        self
    }

    /// Share an existing encode pool (e.g. one pool across all nodes of a
    /// cluster so its trace counters aggregate).
    pub fn encode_pool(mut self, pool: std::sync::Arc<ckpt_par::Pool>) -> Self {
        self.engine.encode_pool = pool;
        self
    }

    /// Layer content-addressed dedup + delta
    /// ([`ckpt_cas::DedupStore`]) over the engine's storage, with default
    /// chunking parameters, chunking and digesting on the engine's encode
    /// pool. Applied at [`Self::build`] time, so over a replicated or
    /// erasure-coded `storage` each commit ships only the chunks the
    /// quorum has not already acknowledged.
    pub fn dedup(mut self) -> Self {
        self.dedup = true;
        self
    }

    pub fn build(mut self) -> KernelCkptEngine {
        if self.dedup {
            let inner = crate::SharedBackend(self.engine.storage.clone());
            let store = ckpt_cas::DedupStore::new(Box::new(inner))
                .with_pool(self.engine.encode_pool.clone());
            self.engine.cas_stats = Some(store.stats_handle());
            self.engine.storage = crate::shared_storage(store);
        }
        self.engine
    }
}

impl KernelCkptEngine {
    /// Start building an engine; see [`KernelCkptEngineBuilder`].
    pub fn builder(
        mechanism_name: &str,
        job: &str,
        storage: SharedStorage,
        tracker: TrackerKind,
    ) -> KernelCkptEngineBuilder {
        KernelCkptEngineBuilder {
            engine: KernelCkptEngine {
                mechanism_name: mechanism_name.to_string(),
                job: job.to_string(),
                storage,
                tracker: Tracker::new(tracker),
                full_every: 0,
                compress: true,
                save_file_contents: false,
                prune: true,
                node: 0,
                encode_pool: ckpt_par::global().clone(),
                chain_manifests: Vec::new(),
                cas_stats: None,
                seq: 0,
                last_full_seq: 0,
                target_pid: None,
            },
            dedup: false,
        }
    }

    /// An engine with the default configuration — shorthand for
    /// [`KernelCkptEngine::builder`]`(..).build()`.
    pub fn new(
        mechanism_name: &str,
        job: &str,
        storage: SharedStorage,
        tracker: TrackerKind,
    ) -> Self {
        Self::builder(mechanism_name, job, storage, tracker).build()
    }

    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Dedup-layer counters, when this engine was built with
    /// [`KernelCkptEngineBuilder::dedup`]; `None` otherwise.
    pub fn cas_stats(&self) -> Option<ckpt_cas::CasStats> {
        self.cas_stats.as_ref().map(|h| h.snapshot())
    }

    pub fn mechanism_name(&self) -> &str {
        &self.mechanism_name
    }

    pub fn storage(&self) -> &SharedStorage {
        &self.storage
    }

    pub fn tracker(&self) -> &Tracker {
        &self.tracker
    }

    pub fn target(&self) -> Option<Pid> {
        self.target_pid
    }

    /// Replica manifests for the committed chain segments, in store order.
    /// Empty unless the storage backend replicates.
    pub fn chain_manifests(&self) -> &[ckpt_storage::ReplicaManifest] {
        &self.chain_manifests
    }

    pub fn set_target(&mut self, pid: Pid) {
        self.target_pid = Some(pid);
    }

    /// Perform one checkpoint of a quiescent `pid` in kernel context.
    pub fn checkpoint_in_kernel(&mut self, k: &mut Kernel, pid: Pid) -> SimResult<CkptOutcome> {
        self.target_pid = Some(pid);
        let t0 = k.now();
        let stats0 = k.stats.clone();
        let next_seq = self.seq + 1;
        // Decide image kind.
        let incremental_ok = self.tracker.kind().supports_incremental()
            && self.seq > 0
            && self.tracker.is_armed()
            && !(self.full_every > 0 && next_seq - self.last_full_seq >= self.full_every);
        let pool_stats0 = self.encode_pool.stats();
        let (opts, logical_dirty) = if incremental_ok {
            k.faultpoint(&self.mechanism_name, "walk")?;
            let walk0 = k.now();
            let collected = self.tracker.collect(k, pid)?;
            k.trace.phase(
                &self.mechanism_name,
                Phase::Walk,
                pid.0,
                next_seq,
                k.now(),
                k.now() - walk0,
            );
            let mut o = CaptureOptions::incremental(
                &self.mechanism_name,
                next_seq,
                self.seq,
                collected.pages.clone(),
            );
            o.compress = self.compress;
            o.save_file_contents = self.save_file_contents;
            o.node = self.node;
            o.encode_pool = Some(self.encode_pool.clone());
            (o, collected.logical_dirty_bytes)
        } else {
            let mut o = CaptureOptions::full(&self.mechanism_name, next_seq);
            o.compress = self.compress;
            o.save_file_contents = self.save_file_contents;
            o.node = self.node;
            o.encode_pool = Some(self.encode_pool.clone());
            (o, 0)
        };
        let kind = opts.kind;
        k.faultpoint(&self.mechanism_name, "capture")?;
        let cap0 = k.now();
        let img = capture_image(k, pid, &opts)?;
        k.trace.phase(
            &self.mechanism_name,
            Phase::Capture,
            pid.0,
            next_seq,
            k.now(),
            k.now() - cap0,
        );
        let pages_saved = img.page_count() as u64;
        let memory_bytes = img.memory_bytes();
        let logical = if kind == ImageKind::Full {
            memory_bytes
        } else {
            logical_dirty
        };
        // Serialize (charged as a kernel copy) and store.
        k.faultpoint(&self.mechanism_name, "compress")?;
        k.faultpoint(&self.mechanism_name, "store")?;
        let encoded_len;
        let storage_ns;
        {
            // Encode outside the storage lock; the pool parallelizes the
            // trailer CRC while the serial layout keeps bytes identical.
            // The captured image is dropped as soon as it is encoded, so
            // only the encoding and the store's copy are live across the
            // commit.
            let bytes = ckpt_image::encode_with_pool(&img, &self.encode_pool);
            drop(img);
            let mut storage = self.storage.lock();
            let receipt =
                store_image_bytes(storage.as_mut(), &self.job, pid.0, next_seq, &bytes, &k.cost)
                    .map_err(|e| SimError::Usage(format!("store failed: {e}")))?;
            encoded_len = receipt.bytes;
            storage_ns = receipt.time_ns;
            let label = storage.label();
            // Chain metadata: where (and how widely) this segment landed.
            if let Some(m) =
                storage.replica_manifest(&ImageKey::new(&self.job, pid.0, next_seq).to_string())
            {
                self.chain_manifests.push(m);
            }
            drop(storage);
            k.trace
                .storage(StorageOp::Store, &label, encoded_len, storage_ns);
        }
        let pool_delta = self.encode_pool.stats().since(pool_stats0);
        k.trace
            .par_encode(pool_delta.tasks, pool_delta.steals, pool_delta.merge_stalls);
        let compress_ns = k.cost.memcpy(encoded_len);
        k.charge(compress_ns + storage_ns);
        k.trace.phase(
            &self.mechanism_name,
            Phase::Compress,
            pid.0,
            next_seq,
            k.now() - storage_ns,
            compress_ns,
        );
        k.trace.phase(
            &self.mechanism_name,
            Phase::Store,
            pid.0,
            next_seq,
            k.now(),
            storage_ns,
        );
        self.seq = next_seq;
        if kind == ImageKind::Full {
            self.last_full_seq = next_seq;
            if self.prune {
                k.faultpoint(&self.mechanism_name, "prune")?;
                let prune0 = k.now();
                let mut storage = self.storage.lock();
                let label = storage.label();
                // The receipt above is the authority that `next_seq` is a
                // committed full image: collect what it supersedes without
                // reading it back.
                let _ = prune_superseded(storage.as_mut(), &self.job, pid.0, next_seq);
                drop(storage);
                // Keys sort by zero-padded seq, so this drops exactly the
                // manifests of the pruned segments.
                let cut = ImageKey::new(&self.job, pid.0, next_seq).to_string();
                self.chain_manifests.retain(|m| m.key >= cut);
                k.trace.storage(StorageOp::Delete, &label, 0, 0);
                k.trace.phase(
                    &self.mechanism_name,
                    Phase::Prune,
                    pid.0,
                    next_seq,
                    k.now(),
                    k.now() - prune0,
                );
            }
        }
        // Begin the next tracking interval.
        if self.tracker.kind().supports_incremental() {
            k.faultpoint(&self.mechanism_name, "rearm")?;
            let arm0 = k.now();
            self.tracker.arm(k, pid)?;
            k.trace.phase(
                &self.mechanism_name,
                Phase::Rearm,
                pid.0,
                next_seq,
                k.now(),
                k.now() - arm0,
            );
        }
        let total_ns = k.now() - t0;
        Ok(CkptOutcome {
            seq: next_seq,
            incremental: kind == ImageKind::Incremental,
            pages_saved,
            memory_bytes,
            logical_dirty_bytes: logical,
            encoded_bytes: encoded_len,
            total_ns,
            app_stall_ns: total_ns, // callers running concurrently overwrite
            storage_ns,
            events: k.stats.delta_since(&stats0),
        })
    }

    /// Restore the newest checkpoint of the engine's target from storage.
    pub fn restart_from_storage(
        &mut self,
        k: &mut Kernel,
        pid_sel: RestorePid,
    ) -> SimResult<RestartOutcome> {
        let target = self
            .target_pid
            .ok_or_else(|| SimError::Usage("engine has no target; checkpoint first".into()))?;
        restart_from_shared(&self.storage, &self.job, target, k, pid_sel)
    }
}

/// Restore the newest checkpoint of `target` (keyed under `job`) from a
/// shared storage handle onto `k`. This is deliberately independent of any
/// kernel modules or agents: a restart typically happens on a *different*
/// node whose kernel never saw the original mechanism.
pub fn restart_from_shared(
    storage: &SharedStorage,
    job: &str,
    target: Pid,
    k: &mut Kernel,
    pid_sel: RestorePid,
) -> SimResult<RestartOutcome> {
    let t0 = k.now();
    let (full, load_ns, images_loaded, storage_label) = {
        let storage = storage.lock();
        let prefix = ImageKey::lineage_prefix(job, target.0);
        let keys = storage
            .list()
            .iter()
            .filter(|key| key.starts_with(&prefix))
            .count() as u64;
        // Resilient load: torn/corrupt debris from a mid-checkpoint crash
        // is rejected by CRC/format validation and the loader falls back
        // to the newest intact chain. Chain-segment boundaries are
        // themselves injection sites (`chain/seg<seq>`).
        let faults = k.faults.clone();
        let load = load_latest_valid_chain(&**storage, job, target.0, &k.cost, |seq| {
            if faults.is_off() {
                return Ok(());
            }
            match faults.check(&format!("chain/seg{seq}"), 0) {
                None => Ok(()),
                Some(_) => Err(ChainError::Interrupted { at_seq: seq }),
            }
        })
        .map_err(|e| SimError::Usage(format!("restart load failed: {e}")))?;
        (load.image, load.load_ns, keys, storage.label())
    };
    k.charge(load_ns);
    k.faultpoint("restart", "restore")?;
    // Stored encodings are not retained after chain reconstruction; report
    // the decoded image size.
    k.trace
        .storage(StorageOp::Load, &storage_label, full.memory_bytes(), load_ns);
    let pages = full.page_count() as u64;
    let work = full.work_done;
    let seq = full.header.seq;
    let mechanism = full.header.mechanism.clone();
    let pid = restore_image(k, &full, &RestoreOptions::fresh_running(pid_sel))?;
    k.trace
        .phase(&mechanism, Phase::Restore, pid.0, seq, k.now(), k.now() - t0);
    Ok(RestartOutcome {
        pid,
        pages_restored: pages,
        total_ns: k.now() - t0,
        images_loaded,
        work_done: work,
    })
}

/// Attribute the *unattributed remainder* of one checkpoint span to
/// [`Phase::Other`], so a mechanism's per-phase trace totals reconcile
/// exactly with its end-to-end [`CkptOutcome`] numbers. `before` is
/// `k.trace.mechanism_total(name)` sampled when the span began.
pub(crate) fn emit_phase_residual(
    k: &mut Kernel,
    name: &str,
    pid: Pid,
    seq: u64,
    span_ns: u64,
    before: u64,
) {
    if !k.trace.is_enabled() {
        return;
    }
    let attributed = k.trace.mechanism_total(name).saturating_sub(before);
    if span_ns > attributed {
        k.trace
            .phase(name, Phase::Other, pid.0, seq, k.now(), span_ns - attributed);
    }
}

/// Charge one user→kernel→user crossing that is *initiated from user space
/// by a tool* (kill(1), ioctl on a device, writing /proc): the cost every
/// user-initiated mechanism pays to ask the kernel for a checkpoint.
pub fn charge_tool_syscall(k: &mut Kernel) {
    k.stats.syscalls += 1;
    let t = k.cost.syscall_round_trip();
    k.charge(t);
}

/// Drive the kernel until `done(k)` or `limit_ns` of virtual time passes.
pub fn run_until(
    k: &mut Kernel,
    limit_ns: u64,
    what: &str,
    mut done: impl FnMut(&mut Kernel) -> bool,
) -> SimResult<()> {
    let deadline = k.now().saturating_add(limit_ns);
    // A fault already consumed before this wait (e.g. during an earlier
    // checkpoint) must not poison it — bail only on *newly* fired faults.
    let fired_at_entry = k.faults.fired().is_some();
    while !done(k) {
        if !fired_at_entry {
            if let Some(site) = k.faults.fired() {
                return Err(SimError::InjectedFault { site });
            }
        }
        if k.now() >= deadline {
            return Err(SimError::Timeout(what.to_string()));
        }
        let step = k.cost.tick_interval_ns.min(deadline - k.now()).max(1);
        k.run_for(step)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shared_storage;
    use ckpt_storage::LocalDisk;
    use simos::apps::{AppParams, NativeKind};
    use simos::cost::CostModel;

    fn setup() -> (Kernel, Pid, KernelCkptEngine) {
        let mut k = Kernel::new(CostModel::circa_2005());
        let mut params = AppParams::small();
        params.mem_bytes = 1024 * 1024;
        params.total_steps = u64::MAX;
        let pid = k.spawn_native(NativeKind::SparseRandom, params).unwrap();
        k.run_for(10_000_000).unwrap();
        let engine = KernelCkptEngine::new(
            "test",
            "job",
            shared_storage(LocalDisk::new(1 << 30)),
            TrackerKind::KernelPage,
        );
        (k, pid, engine)
    }

    /// Run a handful of app steps (fine-grained chunks so the dirtied set
    /// stays small relative to the working set).
    fn run_steps(k: &mut Kernel, pid: Pid, n: u64) {
        let target = k.process(pid).unwrap().work_done + n;
        while k.process(pid).unwrap().work_done < target {
            k.run_for(1_000).unwrap();
        }
    }

    #[test]
    fn first_checkpoint_is_full_then_incremental() {
        let (mut k, pid, mut e) = setup();
        k.freeze_process(pid).unwrap();
        let o1 = e.checkpoint_in_kernel(&mut k, pid).unwrap();
        assert!(!o1.incremental);
        assert_eq!(o1.seq, 1);
        k.thaw_process(pid).unwrap();
        run_steps(&mut k, pid, 5);
        k.freeze_process(pid).unwrap();
        let o2 = e.checkpoint_in_kernel(&mut k, pid).unwrap();
        assert!(o2.incremental);
        assert!(o2.pages_saved < o1.pages_saved);
        assert!(o2.encoded_bytes < o1.encoded_bytes);
    }

    #[test]
    fn full_every_forces_periodic_fulls() {
        let (mut k, pid, mut e) = setup();
        e.full_every = 2;
        let mut kinds = Vec::new();
        for _ in 0..5 {
            k.freeze_process(pid).unwrap();
            let o = e.checkpoint_in_kernel(&mut k, pid).unwrap();
            kinds.push(o.incremental);
            k.thaw_process(pid).unwrap();
            k.run_for(10_000_000).unwrap();
        }
        assert_eq!(kinds, vec![false, true, false, true, false]);
    }

    #[test]
    fn restart_resumes_from_incremental_chain() {
        let (mut k, pid, mut e) = setup();
        for _ in 0..3 {
            k.freeze_process(pid).unwrap();
            e.checkpoint_in_kernel(&mut k, pid).unwrap();
            k.thaw_process(pid).unwrap();
            k.run_for(20_000_000).unwrap();
        }
        let work_at_last_ckpt = {
            // Take one more checkpoint so we know the exact saved state.
            k.freeze_process(pid).unwrap();
            e.checkpoint_in_kernel(&mut k, pid).unwrap();
            let w = k.process(pid).unwrap().work_done;
            k.thaw_process(pid).unwrap();
            w
        };
        // Simulate a crash: kill the process, restart on a fresh kernel.
        let mut k2 = Kernel::new(CostModel::circa_2005());
        let r = e.restart_from_storage(&mut k2, RestorePid::Fresh).unwrap();
        assert_eq!(r.work_done, work_at_last_ckpt);
        assert!(r.images_loaded >= 1);
        // The restored process keeps making progress.
        k2.run_for(20_000_000).unwrap();
        assert!(k2.process(r.pid).unwrap().work_done > work_at_last_ckpt);
    }

    #[test]
    fn prune_keeps_storage_bounded() {
        let (mut k, pid, mut e) = setup();
        e.full_every = 1; // every checkpoint full → prior ones pruned
        for _ in 0..4 {
            k.freeze_process(pid).unwrap();
            e.checkpoint_in_kernel(&mut k, pid).unwrap();
            k.thaw_process(pid).unwrap();
            k.run_for(5_000_000).unwrap();
        }
        assert_eq!(e.storage.lock().list().len(), 1);
    }

    #[test]
    fn restart_without_checkpoint_errors() {
        let (mut k2, _, e) = setup();
        let mut fresh = KernelCkptEngine::new(
            "t",
            "job",
            e.storage.clone(),
            TrackerKind::FullOnly,
        );
        assert!(fresh
            .restart_from_storage(&mut k2, RestorePid::Fresh)
            .is_err());
        drop(e);
    }

    #[test]
    fn replicated_engine_records_manifests_and_survives_replica_loss() {
        let mut k = Kernel::new(CostModel::circa_2005());
        let mut params = AppParams::small();
        params.mem_bytes = 1024 * 1024;
        params.total_steps = u64::MAX;
        let pid = k.spawn_native(NativeKind::SparseRandom, params).unwrap();
        k.run_for(10_000_000).unwrap();
        let store = ckpt_replica::ReplicatedStore::fresh(3, 2);
        let set = store.replica_set();
        let mut e = KernelCkptEngine::new(
            "test",
            "job",
            shared_storage(store),
            TrackerKind::KernelPage,
        );
        let mut work_at_last = 0;
        for _ in 0..3 {
            k.freeze_process(pid).unwrap();
            e.checkpoint_in_kernel(&mut k, pid).unwrap();
            work_at_last = k.process(pid).unwrap().work_done;
            k.thaw_process(pid).unwrap();
            run_steps(&mut k, pid, 5);
        }
        // One manifest per committed segment, in store order, all at the
        // configured quorum and fully acked.
        let ms = e.chain_manifests();
        assert_eq!(ms.len(), 3);
        assert!(ms.windows(2).all(|w| w[0].key < w[1].key));
        for m in ms {
            assert_eq!((m.n, m.w), (3, 2));
            assert_eq!(m.acked, vec![0, 1, 2]);
            assert!(m.bytes > 0 && m.digest != 0);
        }
        // A replica dies; the committed chain must still restart bit-exact
        // from the surviving quorum.
        set.node(2).fail();
        let mut k2 = Kernel::new(CostModel::circa_2005());
        let r = e.restart_from_storage(&mut k2, RestorePid::Fresh).unwrap();
        assert_eq!(r.work_done, work_at_last);

        // A forced full prunes the old chain and drops its manifests too.
        e.full_every = 1;
        k.freeze_process(pid).unwrap();
        e.checkpoint_in_kernel(&mut k, pid).unwrap();
        k.thaw_process(pid).unwrap();
        assert_eq!(e.chain_manifests().len(), 1);
        assert_eq!(e.chain_manifests()[0].acked, vec![0, 1]);
    }

    #[test]
    fn erasure_engine_records_coded_manifests_and_survives_shard_loss() {
        let mut k = Kernel::new(CostModel::circa_2005());
        let mut params = AppParams::small();
        params.mem_bytes = 1024 * 1024;
        params.total_steps = u64::MAX;
        let pid = k.spawn_native(NativeKind::SparseRandom, params).unwrap();
        k.run_for(10_000_000).unwrap();
        let store = ckpt_ec::ErasureStore::fresh(4, 2);
        let set = store.replica_set();
        let mut e = KernelCkptEngine::new(
            "test",
            "job",
            shared_storage(store),
            TrackerKind::KernelPage,
        );
        let mut work_at_last = 0;
        for _ in 0..3 {
            k.freeze_process(pid).unwrap();
            e.checkpoint_in_kernel(&mut k, pid).unwrap();
            work_at_last = k.process(pid).unwrap().work_done;
            k.thaw_process(pid).unwrap();
            run_steps(&mut k, pid, 5);
        }
        // One manifest per committed segment, carrying the coding
        // geometry: n = k + m shard nodes, shard write quorum w.
        let ms = e.chain_manifests();
        assert_eq!(ms.len(), 3);
        for m in ms {
            assert_eq!((m.n, m.w), (6, 5));
            assert_eq!(
                m.coding,
                Some(ckpt_storage::CodingGeometry { k: 4, m: 2 })
            );
            assert_eq!(m.acked, vec![0, 1, 2, 3, 4, 5]);
            assert!(m.bytes > 0 && m.digest != 0);
        }
        // m = 2 shard nodes die; the committed chain must still restart
        // bit-exact by Reed-Solomon reconstruction from the k survivors.
        set.node(1).fail();
        set.node(4).fail();
        let mut k2 = Kernel::new(CostModel::circa_2005());
        let r = e.restart_from_storage(&mut k2, RestorePid::Fresh).unwrap();
        assert_eq!(r.work_done, work_at_last);
        // A third loss crosses the m-loss boundary: typed refusal, never
        // silent corruption.
        set.node(0).fail();
        let mut k3 = Kernel::new(CostModel::circa_2005());
        assert!(e.restart_from_storage(&mut k3, RestorePid::Fresh).is_err());
    }

    #[test]
    fn run_until_times_out() {
        let mut k = Kernel::new(CostModel::circa_2005());
        let r = run_until(&mut k, 1_000_000, "never", |_| false);
        assert!(matches!(r, Err(SimError::Timeout(_))));
    }
}
