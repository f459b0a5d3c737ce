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
//!
//! What a checkpoint round *is* does not depend on the leaf: this module
//! holds the one implementation ([`KernelCkptEngine::checkpoint_in_kernel`]),
//! the request bracket, freeze bracket and commit step around it, the
//! per-target engine table, the restart/wait shell every wrapper shares,
//! and [`FAMILIES`], the table that names the leaves. Each submodule adds
//! only its family's initiation.

pub mod fork_concurrent;
pub mod hardware;
pub mod hibernate;
pub mod ksignal;
pub mod kthread;
pub mod syscall;
pub mod user_level;

use crate::agents::RoundContext;
use crate::capture::{capture_image, restore_image, CaptureOptions, RestoreOptions, RestorePid};
use crate::report::{CkptOutcome, RestartOutcome};
use crate::tracker::{Tracker, TrackerKind};
use crate::{fork_storage, SharedStorage};
use ckpt_image::{ChainError, ImageKind};
use ckpt_storage::{
    load_latest_valid_chain, prune_superseded, store_image_bytes, ImageKey, ImageStoreError,
    StoreReceipt,
};
use simos::trace::{Phase, StorageOp, TraceHandle};
use simos::types::{Pid, SimError, SimResult};
use simos::{Kernel, Relink};
use std::collections::BTreeMap;

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

    /// Install whatever the mechanism needs (kernel modules, libraries,
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

    /// Outcomes of all checkpoints taken so far of the prepared process
    /// (including automatic ones), never another target's on a shared
    /// module. Ordered. Read-only: inspecting results must not perturb
    /// the kernel (modules are reached via [`Kernel::with_module`]).
    fn outcomes(&self, k: &Kernel) -> Vec<CkptOutcome>;

    /// A copy of the engine the prepared process's checkpoints run on —
    /// its seqs, tracker and chain manifests — wherever the family keeps
    /// it. `None` before the first request, and for a family that runs on
    /// no engine (fork-concurrent).
    fn engine(&self, _k: &Kernel) -> Option<KernelCkptEngine> {
        None
    }

    /// The mechanism in a fork of its world, its storage re-pointed
    /// through `relink` — the map the kernel's [`Kernel::fork_world`]
    /// goes through too, so the forked mechanism and the forked module
    /// it installed share one forked store.
    fn fork(&self, relink: &mut Relink) -> SimResult<Box<dyn Mechanism>>;
}

/// One row of the family table: a Figure 1 leaf in the configuration the
/// experiments, the crash matrix and the tests drive it in.
pub struct Family {
    /// The experiments' name for the row (`report c4`, `report trace`).
    pub label: &'static str,
    /// [`MechanismInfo::family`] of the built mechanism — the crash
    /// matrix's column name.
    pub family: &'static str,
    /// Kernel-module / agent name: what the mechanism's phases, fault
    /// sites (`mech/<module>/…`) and image headers are recorded under.
    pub module: &'static str,
    ctor: fn(&str, &str, SharedStorage, TrackerKind) -> Box<dyn Mechanism>,
}

impl Family {
    /// Build the row's mechanism, keyed under `job`. Fork-concurrent takes
    /// full images only and the hardware rows track cache lines, so those
    /// ignore `tracker`.
    pub fn build(
        &self,
        job: &str,
        storage: SharedStorage,
        tracker: TrackerKind,
    ) -> Box<dyn Mechanism> {
        (self.ctor)(self.module, job, storage, tracker)
    }
}

/// A library whose handler an outside `kill -USR1` reaches.
fn user_signal(
    module: &str,
    job: &str,
    storage: SharedStorage,
    tracker: TrackerKind,
) -> user_level::UserLevelMechanism {
    let trigger = user_level::Trigger::Signal {
        sig: simos::signal::Sig::SIGUSR1,
    };
    user_level::UserLevelMechanism::new(module, job, storage, tracker, trigger)
}

/// The family table, in Figure 1 order. Rows of one family are adjacent,
/// its canonical configuration first.
pub static FAMILIES: [Family; 8] = [
    Family {
        label: "user-signal",
        family: "user-level",
        module: "libckpt",
        ctor: |m, job, s, t| Box::new(user_signal(m, job, s, t)),
    },
    Family {
        label: "preload",
        family: "user-level",
        module: "preload",
        ctor: |m, job, s, t| {
            let mut mech = user_signal(m, job, s, t);
            mech.preload = true;
            Box::new(mech)
        },
    },
    Family {
        label: "syscall-bypid",
        family: "syscall",
        module: "epckpt",
        ctor: |m, job, s, t| {
            let variant = syscall::SyscallVariant::ByPid;
            Box::new(syscall::SyscallMechanism::new(m, variant, job, s, t))
        },
    },
    Family {
        label: "kernel-signal",
        family: "kernel-signal",
        module: "chpox",
        ctor: |m, job, s, t| Box::new(ksignal::KernelSignalMechanism::new(m, job, s, t)),
    },
    Family {
        label: "kthread-ioctl",
        family: "kernel-thread",
        module: "crak",
        ctor: |m, job, s, t| {
            let iface = kthread::KthreadIface::Ioctl;
            let variant = kthread::KthreadVariant::default();
            Box::new(kthread::KernelThreadMechanism::new(m, job, s, t, iface, variant))
        },
    },
    Family {
        label: "fork-concurrent",
        family: "fork-concurrent",
        module: "forkckpt",
        ctor: |m, job, s, _| Box::new(fork_concurrent::ForkConcurrentMechanism::new(m, job, s)),
    },
    // The hardware rows' module names are the flavours' own.
    Family {
        label: "hw-revive",
        family: "hardware",
        module: "revive",
        ctor: |_, job, s, _| {
            Box::new(hardware::HardwareMechanism::new(hardware::HwFlavor::Revive, job, s))
        },
    },
    Family {
        label: "hw-safetynet",
        family: "hardware",
        module: "safetynet",
        ctor: |_, job, s, _| {
            Box::new(hardware::HardwareMechanism::new(hardware::HwFlavor::Safetynet, job, s))
        },
    },
];

/// The row labelled `name`, or the canonical row of the family so named.
/// Panics on an unknown name: the callers name rows in source.
pub fn family(name: &str) -> &'static Family {
    FAMILIES
        .iter()
        .find(|f| f.label == name || f.family == name)
        .unwrap_or_else(|| panic!("unknown mechanism {name}"))
}

/// The checkpoint engine: the one implementation of a checkpoint round
/// (decide full vs incremental → gather and walk → capture → encode →
/// commit → prune → re-arm), used by every system-level mechanism and, in
/// its user context, by the Section 3 library ([`crate::agents`]). Callers
/// handle quiescing the target and stall accounting. One engine is one
/// lineage: an extension serving many targets keeps one per target. A clone
/// shares the storage handle and the encode pool.
#[derive(Clone)]
pub struct KernelCkptEngine {
    pub(crate) mechanism_name: String,
    pub(crate) job: String,
    pub(crate) storage: SharedStorage,
    pub(crate) tracker: Tracker,
    /// Which side of the protection boundary the round runs on; fixed by
    /// the constructor that built the engine.
    ctx: RoundContext,
    /// Force a full image every N checkpoints (0 = only the first is
    /// full). Ignored for non-incremental trackers.
    pub(crate) full_every: u64,
    /// PsncR/C sets this `false`: "does not perform any data optimization".
    pub(crate) compress: bool,
    /// UCLiK sets this: open files' contents travel in the image.
    pub(crate) save_file_contents: bool,
    /// Pool for parallel page encoding during capture (default: the
    /// process-wide [`ckpt_par::global`] pool; width 1 = exact serial path).
    pub(crate) encode_pool: std::sync::Arc<ckpt_par::Pool>,
    /// Replica manifests recorded for the current chain, one per stored
    /// segment, in store order. Empty unless the backend replicates.
    chain_manifests: Vec<ckpt_storage::ReplicaManifest>,
    seq: u64,
    last_full_seq: u64,
    target_pid: Option<Pid>,
}

/// Builder for [`KernelCkptEngine`]. The four constructor arguments are
/// the mandatory identity of an engine; the rest is the common
/// configuration (compressing, full-first-then-incremental, images
/// superseded by a new full one pruned) unless overridden fluently:
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
///     .build();
/// ```
#[must_use = "the builder does nothing until .build() is called"]
pub struct KernelCkptEngineBuilder {
    engine: KernelCkptEngine,
}

impl KernelCkptEngineBuilder {
    /// Force a full image every `n` checkpoints (0 = only the first is
    /// full). Ignored for non-incremental trackers.
    pub fn full_every(mut self, n: u64) -> Self {
        self.engine.full_every = n;
        self
    }

    /// Share an existing encode pool (e.g. one pool across all nodes of a
    /// cluster so its trace counters aggregate).
    pub fn encode_pool(mut self, pool: std::sync::Arc<ckpt_par::Pool>) -> Self {
        self.engine.encode_pool = pool;
        self
    }

    pub fn build(self) -> KernelCkptEngine {
        self.engine
    }
}

impl KernelCkptEngine {
    /// Start building a kernel-context engine; see
    /// [`KernelCkptEngineBuilder`].
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
                ctx: RoundContext::Kernel,
                full_every: 0,
                compress: true,
                save_file_contents: false,
                encode_pool: ckpt_par::global().clone(),
                chain_manifests: Vec::new(),
                seq: 0,
                last_full_seq: 0,
                target_pid: None,
            },
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

    /// The engine a user-level library runs its rounds on: the same round,
    /// in [`RoundContext::User`]. The library executes in its process's own
    /// context — typically a signal handler — so it encodes on the calling
    /// thread alone.
    pub(crate) fn for_user_library(
        agent_name: &str,
        job: &str,
        storage: SharedStorage,
        tracker: TrackerKind,
        use_mirrors: bool,
    ) -> Self {
        let mut engine = Self::new(agent_name, job, storage, tracker);
        engine.ctx = RoundContext::User { use_mirrors };
        engine.encode_pool = std::sync::Arc::new(ckpt_par::Pool::new(1));
        engine
    }

    /// This engine in a fork of its world: the same lineage (seqs,
    /// tracker, chain manifests) over the store `relink` maps its own to.
    /// The encode pool is an executor, not state: the fork shares it.
    pub fn fork(&self, relink: &mut Relink) -> SimResult<Self> {
        Ok(KernelCkptEngine {
            storage: fork_storage(&self.storage, relink)?,
            ..self.clone()
        })
    }

    pub fn seq(&self) -> u64 {
        self.seq
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

    /// Perform one checkpoint round of a quiescent `pid`, in the engine's
    /// context: in the kernel for every system-level mechanism's engine,
    /// with the library's gather and `write()` loop for a user-level one.
    pub fn checkpoint_in_kernel(&mut self, k: &mut Kernel, pid: Pid) -> SimResult<CkptOutcome> {
        self.target_pid = Some(pid);
        let name = &self.mechanism_name;
        let t0 = k.now();
        let stats0 = k.stats.clone();
        let next_seq = self.seq + 1;
        // Decide image kind.
        let incremental_ok = self.tracker.kind().supports_incremental()
            && self.seq > 0
            && self.tracker.is_armed()
            && !(self.full_every > 0 && next_seq - self.last_full_seq >= self.full_every);
        let pool_stats0 = self.encode_pool.stats();
        // The state gather, then the dirty-set walk. A library pays the
        // gather on every round, so its walk phase exists for a full image
        // too; in kernel context there is a walk only when there is a
        // dirty set to collect.
        let gathered = self.ctx.gather_state(k, pid)?;
        let (mut opts, logical_dirty) = if incremental_ok {
            k.faultpoint(name, "walk")?;
            let collected = self.tracker.collect(k, pid)?;
            let opts = CaptureOptions::incremental(name, next_seq, self.seq, collected.pages);
            (opts, collected.logical_dirty_bytes)
        } else {
            (CaptureOptions::full(name, next_seq), 0)
        };
        if gathered || incremental_ok {
            k.trace
                .phase(name, Phase::Walk, pid.0, next_seq, k.now(), k.now() - t0);
        }
        opts.compress = self.compress;
        opts.save_file_contents = self.save_file_contents;
        opts.encode_pool = Some(self.encode_pool.clone());
        let kind = opts.kind;
        k.faultpoint(name, "capture")?;
        let cap0 = k.now();
        let img = capture_image(k, pid, &opts)?;
        k.trace
            .phase(name, Phase::Capture, pid.0, next_seq, k.now(), k.now() - cap0);
        let pages_saved = img.page_count() as u64;
        let memory_bytes = img.memory_bytes();
        let logical = if kind == ImageKind::Full {
            memory_bytes
        } else {
            logical_dirty
        };
        k.faultpoint(name, "compress")?;
        k.faultpoint(name, "store")?;
        // Encode outside the storage lock; the pool parallelizes the
        // trailer CRC while the serial layout keeps bytes identical. The
        // captured image is dropped as soon as it is encoded, so only the
        // encoding and the store's copy are live across the commit.
        let bytes = ckpt_image::encode_with_pool(&img, &self.encode_pool);
        drop(img);
        let receipt = commit_image(k, &self.storage, &self.job, pid.0, next_seq, &bytes)
            .map_err(|e| SimError::Usage(format!("store failed: {e}")))?;
        drop(bytes);
        let (encoded_len, storage_ns) = (receipt.bytes, receipt.time_ns);
        // Chain metadata: where (and how widely) this segment landed.
        let key = ImageKey::new(&self.job, pid.0, next_seq).to_string();
        if let Some(m) = self.storage.lock().replica_manifest(&key) {
            self.chain_manifests.push(m);
        }
        count_pool_activity(&k.trace, &self.encode_pool, pool_stats0);
        // The image's way to the store — one kernel copy, or the library's
        // write() loop — then the medium's own time.
        let io0 = k.now();
        self.ctx.charge_image_io(k, encoded_len);
        let compress_ns = k.now() - io0;
        k.charge(storage_ns);
        k.trace.phase(
            name,
            Phase::Compress,
            pid.0,
            next_seq,
            k.now() - storage_ns,
            compress_ns,
        );
        k.trace
            .phase(name, Phase::Store, pid.0, next_seq, k.now(), storage_ns);
        self.seq = next_seq;
        if kind == ImageKind::Full {
            self.last_full_seq = next_seq;
            k.faultpoint(name, "prune")?;
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
            self.chain_manifests.retain(|m| m.key >= key);
            k.trace.storage(StorageOp::Delete, &label, 0, 0);
            k.trace
                .phase(name, Phase::Prune, pid.0, next_seq, k.now(), k.now() - prune0);
        }
        // Begin the next tracking interval.
        if self.tracker.kind().supports_incremental() {
            k.faultpoint(name, "rearm")?;
            let arm0 = k.now();
            self.tracker.arm(k, pid)?;
            k.trace
                .phase(name, Phase::Rearm, pid.0, next_seq, k.now(), k.now() - arm0);
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

/// The engines of an extension that checkpoints many processes: one per
/// target, each a lineage of its own (seqs, dirty tracker, chain
/// manifests), started from the extension's never-run template on first
/// use. Two targets sharing one engine would interleave one seq counter and
/// chain each one's incrementals onto the other's images.
pub(crate) struct Engines {
    template: KernelCkptEngine,
    by_pid: BTreeMap<u32, KernelCkptEngine>,
}

impl Engines {
    pub(crate) fn new(template: KernelCkptEngine) -> Self {
        Engines {
            template,
            by_pid: BTreeMap::new(),
        }
    }

    /// `pid`'s engine, started from the template if it has none yet.
    pub(crate) fn start(&mut self, pid: Pid) -> &mut KernelCkptEngine {
        let template = &self.template;
        self.by_pid.entry(pid.0).or_insert_with(|| {
            let mut engine = template.clone();
            engine.set_target(pid);
            engine
        })
    }

    /// The table in a fork of its world, every engine forked.
    pub(crate) fn fork(&self, relink: &mut Relink) -> SimResult<Self> {
        let mut by_pid = BTreeMap::new();
        for (&pid, engine) in &self.by_pid {
            by_pid.insert(pid, engine.fork(relink)?);
        }
        Ok(Engines {
            template: self.template.fork(relink)?,
            by_pid,
        })
    }

    pub(crate) fn get(&self, pid: Pid) -> Option<&KernelCkptEngine> {
        self.by_pid.get(&pid.0)
    }

    pub(crate) fn get_mut(&mut self, pid: Pid) -> Option<&mut KernelCkptEngine> {
        self.by_pid.get_mut(&pid.0)
    }

    pub(crate) fn contains(&self, pid: Pid) -> bool {
        self.by_pid.contains_key(&pid.0)
    }

    /// The targets with an engine, in pid order.
    pub(crate) fn pids(&self) -> Vec<u32> {
        self.by_pid.keys().copied().collect()
    }

    pub(crate) fn remove(&mut self, pid: Pid) {
        self.by_pid.remove(&pid.0);
    }
}

/// Commit one encoded image under its canonical key and record the store in
/// `k`'s trace: the lock → store → label → trace step every checkpointer's
/// commit is. Charging the receipt's time, and wording the error, stay with
/// the caller.
pub(crate) fn commit_image(
    k: &Kernel,
    storage: &SharedStorage,
    job: &str,
    pid: u32,
    seq: u64,
    bytes: &[u8],
) -> Result<StoreReceipt, ImageStoreError> {
    let mut storage = storage.lock();
    let receipt = store_image_bytes(storage.as_mut(), job, pid, seq, bytes, &k.cost)?;
    let label = storage.label();
    drop(storage);
    k.trace
        .storage(StorageOp::Store, &label, receipt.bytes, receipt.time_ns);
    Ok(receipt)
}

/// Count what `pool` did since `since` under the trace's `par.*` counters.
pub fn count_pool_activity(trace: &TraceHandle, pool: &ckpt_par::Pool, since: ckpt_par::PoolStats) {
    let delta = pool.stats().since(since);
    trace.count("par.tasks", delta.tasks);
    trace.count("par.steals", delta.steals);
    trace.count("par.merge_stalls", delta.merge_stalls);
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

/// The restart of a mechanism that keeps its images under `job` on
/// `storage`: the newest chain of the process it was prepared for.
pub(crate) fn restart_prepared(
    storage: &SharedStorage,
    job: &str,
    target: Option<Pid>,
    k: &mut Kernel,
    pid_sel: RestorePid,
) -> SimResult<RestartOutcome> {
    let target = target.ok_or_else(|| SimError::Usage("not prepared".into()))?;
    restart_from_shared(storage, job, target, k, pid_sel)
}

/// What becomes of the targets once the work inside a freeze bracket has
/// succeeded. When it fails they always run again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Then {
    /// The checkpoint is durable and the targets carry on.
    Resume,
    /// The machine is about to be switched off (hibernation): the targets
    /// stay stopped.
    PowerDown,
}

/// The freeze bracket: stop `pids`, run `work`, and let them run again on
/// every way out — `work` failing, or one of them refusing to stop after
/// others already had — so that a failed checkpoint never leaves its
/// target stopped. An empty `pids` (the round runs in its target's own
/// context, or over a target someone else stopped and will release) brackets
/// nothing.
pub(crate) fn with_frozen<T>(
    k: &mut Kernel,
    pids: &[Pid],
    then: Then,
    work: impl FnOnce(&mut Kernel) -> SimResult<T>,
) -> SimResult<T> {
    let mut stopped = 0;
    let mut out = Ok(());
    for pid in pids {
        out = k.freeze_process(*pid);
        if out.is_err() {
            break;
        }
        stopped += 1;
    }
    let out = out.and_then(|()| work(k));
    if out.is_err() || then == Then::Resume {
        for pid in &pids[..stopped] {
            let _ = k.thaw_process(*pid);
        }
    }
    out
}

/// The request bracket around one on-demand round, whoever asked for it:
/// the wait since `requested_at` (the [`Phase::Pending`] of a request that
/// was queued or deferred), the `freeze` site, the stop of `stop` (empty
/// for a round in its target's own context) with `quiesce` charged to the
/// freeze window, the round, the `resume` site once the targets run again,
/// and the residual. Freezing and thawing cost nothing, so the outcome's
/// `total_ns` runs from the request (from the stop if nobody waited) and
/// its `app_stall_ns` from the stop. The outer error is a fault at one of
/// the bracket's two sites, the inner one the round's.
pub(crate) fn bracketed_round(
    k: &mut Kernel,
    engine: &mut KernelCkptEngine,
    pid: Pid,
    stop: &[Pid],
    requested_at: Option<u64>,
    quiesce: impl FnOnce(&mut Kernel),
) -> SimResult<SimResult<CkptOutcome>> {
    let name = engine.mechanism_name.clone();
    let trace_before = k.trace.mechanism_total(&name);
    let seq = engine.seq + 1;
    if let Some(t0) = requested_at {
        k.trace
            .phase(&name, Phase::Pending, pid.0, seq, k.now(), k.now() - t0);
    }
    k.faultpoint(&name, "freeze")?;
    let stopped_at = k.now();
    let round = with_frozen(k, stop, Then::Resume, |k| {
        quiesce(k);
        k.trace.phase(
            &name,
            Phase::Freeze,
            pid.0,
            seq,
            k.now(),
            k.now() - stopped_at,
        );
        engine.checkpoint_in_kernel(k, pid)
    });
    k.faultpoint(&name, "resume")?;
    k.trace.phase(&name, Phase::Resume, pid.0, seq, k.now(), 0);
    Ok(round.map(|mut outcome| {
        outcome.total_ns = k.now() - requested_at.unwrap_or(stopped_at);
        outcome.app_stall_ns = k.now() - stopped_at;
        emit_phase_residual(k, &name, pid, seq, outcome.total_ns, trace_before);
        outcome
    }))
}

/// The outcomes `recorded` by an extension that belong to `target`, in
/// order: a mechanism lists its own checkpoints, never another target's
/// on the same module.
pub(crate) fn outcomes_of(
    recorded: &[(Pid, CkptOutcome)],
    target: Option<Pid>,
) -> Vec<CkptOutcome> {
    recorded
        .iter()
        .filter(|(pid, _)| Some(*pid) == target)
        .map(|(_, outcome)| outcome.clone())
        .collect()
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

/// Drive `k` until `mech` has recorded at least `n` outcomes (the ones it
/// took on its own schedule included) or `limit_ns` passes; returns them.
pub(crate) fn wait_for_outcomes(
    mech: &dyn Mechanism,
    k: &mut Kernel,
    n: usize,
    limit_ns: u64,
    what: &str,
) -> SimResult<Vec<CkptOutcome>> {
    run_until(k, limit_ns, what, |k| mech.outcomes(k).len() >= n)?;
    Ok(mech.outcomes(k))
}

/// The outcome of the checkpoint just initiated on `mech`, which held
/// `before` outcomes when the request was made: wait (at most a virtual
/// minute) for one more.
pub(crate) fn next_outcome(
    mech: &dyn Mechanism,
    k: &mut Kernel,
    before: usize,
    what: &str,
) -> SimResult<CkptOutcome> {
    let mut all = wait_for_outcomes(mech, k, before + 1, 60_000_000_000, what)?;
    Ok(all.swap_remove(before))
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
    fn freeze_bracket_lets_every_target_run_again_unless_powering_down() {
        let (mut k, pid, _) = setup();
        let frozen = |k: &Kernel| k.process(pid).unwrap().frozen_for_ckpt;
        // The work sees the target stopped; afterwards it runs again.
        let seen = with_frozen(&mut k, &[pid], Then::Resume, |k| Ok(frozen(k))).unwrap();
        assert!(seen && !frozen(&k));
        // A hibernating machine stays down — unless the save failed.
        with_frozen(&mut k, &[pid], Then::PowerDown, |_| Ok(())).unwrap();
        assert!(frozen(&k));
        let failed: SimResult<()> =
            with_frozen(&mut k, &[pid], Then::PowerDown, |_| Err(SimError::Usage("no".into())));
        assert!(failed.is_err() && !frozen(&k));
        // A later target that cannot be stopped releases the earlier ones,
        // and the work never runs.
        let gone = Pid(9999);
        let out = with_frozen(&mut k, &[pid, gone], Then::Resume, |_| -> SimResult<()> {
            panic!("work ran over a half-frozen set")
        });
        assert!(matches!(out, Err(SimError::NoSuchProcess(p)) if p == gone));
        assert!(!frozen(&k));
    }

    #[test]
    fn run_until_times_out() {
        let mut k = Kernel::new(CostModel::circa_2005());
        let r = run_until(&mut k, 1_000_000, "never", |_| false);
        assert!(matches!(r, Err(SimError::Timeout(_))));
    }
}
