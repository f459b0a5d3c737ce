//! Fork-based concurrent checkpointing (Section 4, "Checkpoint" \[5\],
//! Carothers & Szymanski).
//!
//! Instead of stopping the application for the whole save, the kernel
//! **forks** it: the frozen child is a consistent copy whose pages a kernel
//! thread saves while the parent keeps computing. The application stalls
//! only for the fork itself (page-table copy + COW arming); it then pays
//! COW faults on pages it writes while the save is in flight — both charged
//! by the substrate ([`simos::Kernel::fork_process`]).

use super::{
    commit_image, request_by_ext_syscall, AgentKind, Context, Initiation, MechanismInfo,
    ModuleFamily, Recorder, Recording, Shell,
};
use crate::capture::{capture_state, guest_pages, CaptureOptions, PageSelection};
use crate::lineage::Lineage;
use crate::report::CkptOutcome;
use crate::tracker::TrackerKind;
use crate::{fork_storage, SharedStorage};
use simos::module::{KernelModule, KthreadStatus};
use simos::sched::SchedPolicy;
use simos::trace::Phase;
use simos::types::{Errno, KtId, Pid, SimError, SimResult, SysResult};
use simos::{Kernel, Relink};
use std::collections::{BTreeMap, VecDeque};

/// One queued save request.
#[derive(Debug, Clone)]
struct SaveReq {
    child: Pid,
    parent: Pid,
    initiated_at: u64,
    fork_stall_ns: u64,
    /// Kernel counters at initiation (so the outcome's event delta covers
    /// the whole request, including the parent's COW faults during the
    /// concurrent save).
    stats0: simos::stats::KernelStats,
    /// Trace cost already attributed to this mechanism at initiation, so
    /// the completion-time residual covers exactly this request's span.
    trace0: u64,
}

/// Pages the background saver copies per scheduling burst. Small enough
/// that the parent gets the CPU between bursts (the concurrency the scheme
/// exists for), large enough to amortize the switch.
const SAVE_CHUNK_PAGES: usize = 16;

/// An in-flight background save.
#[derive(Clone)]
struct ActiveSave {
    req: SaveReq,
    pages_left: Vec<u64>,
    /// The pages the bursts copied, in page order (they drain
    /// `pages_left`, the child's resident pages, lowest first).
    copied: Vec<u64>,
    /// Accumulated page-copy cost across bursts (the Capture phase).
    capture_ns: u64,
}

/// The static-kernel extension implementing fork-concurrent checkpoints.
/// A clone shares the store.
#[derive(Clone)]
pub(crate) struct ForkCkptModule {
    name: String,
    job: String,
    storage: SharedStorage,
    /// One lineage per parent, full images only; a failed save burns its seq.
    lineages: BTreeMap<u32, Lineage>,
    queue: VecDeque<SaveReq>,
    active: Option<ActiveSave>,
    kt: Option<KtId>,
    slot: Option<u32>,
    recorder: Recorder,
}

impl KernelModule for ForkCkptModule {
    fn name(&self) -> &str {
        &self.name
    }

    /// Implemented via new syscalls in the static kernel (per the paper).
    fn is_loadable(&self) -> bool {
        false
    }

    fn on_load(&mut self, k: &mut Kernel) {
        let name = self.name.clone();
        self.slot = Some(k.register_ext_syscall(&name));
        // Deliberately *not* SCHED_FIFO: the saver shares the CPU with
        // the application so the save overlaps execution (on a
        // multiprocessor it would run truly in parallel; under the
        // uniprocessor scheduler it interleaves).
        self.kt = Some(k.spawn_kthread(&name, SchedPolicy::Other { nice: 0 }));
    }

    fn ext_syscall(&mut self, k: &mut Kernel, pid: Pid, slot: u32, args: [u64; 5]) -> SysResult {
        if Some(slot) != self.slot {
            return Err(Errno::ENOSYS);
        }
        let target = if args[0] == 0 { pid } else { Pid(args[0] as u32) };
        let initiated_at = k.now();
        let trace0 = k.trace.mechanism_total(&self.name);
        let t0 = k.now();
        // The fork is this scheme's freeze point: the only moment the
        // application is stalled.
        k.faultpoint(&self.name, "fork").map_err(|_| Errno::EINTR)?;
        let child = k.fork_process(target).map_err(|_| Errno::EAGAIN)?;
        // The child is born Stopped (consistent copy); the parent's stall
        // is exactly the fork duration.
        let fork_stall_ns = k.now() - t0;
        self.queue.push_back(SaveReq {
            child,
            parent: target,
            initiated_at,
            fork_stall_ns,
            stats0: k.stats.clone(),
            trace0,
        });
        if let Some(kt) = self.kt {
            let _ = k.wake_kthread(kt);
        }
        Ok(child.0 as u64)
    }

    fn kthread_run(&mut self, k: &mut Kernel, _kt: KtId) -> KthreadStatus {
        // Pick up (or continue) a save.
        if self.active.is_none() {
            let Some(req) = self.queue.pop_front() else {
                return KthreadStatus::Sleep;
            };
            if k.faultpoint(&self.name, "capture").is_err() {
                self.cleanup_child(k, &req);
                return self.next_status();
            }
            let pages_left: Vec<u64> = match k.process(req.child) {
                Some(c) => c.mem.resident_pages().collect(),
                None => return self.next_status(),
            };
            self.active = Some(ActiveSave {
                req,
                pages_left,
                copied: Vec::new(),
                capture_ns: 0,
            });
        }
        let mut save = self.active.take().expect("just ensured");
        // The kernel thread needs the child's page tables.
        let _ = k.kthread_attach_mm(save.req.child);
        // Copy a bounded burst of pages, then yield the CPU back to the
        // application — this interleaving is the scheme's concurrency.
        let burst: Vec<u64> = {
            let n = save.pages_left.len().min(SAVE_CHUNK_PAGES);
            save.pages_left.drain(..n).collect()
        };
        let Some(child) = k.process(save.req.child) else {
            return self.next_status();
        };
        let resident = burst
            .iter()
            .filter(|pn| child.mem.page_data(**pn).is_some());
        save.copied.extend(resident);
        let t = k.cost.memcpy(burst.len() as u64 * simos::cost::PAGE_SIZE);
        k.charge(t);
        save.capture_ns += t;
        if !save.pages_left.is_empty() {
            self.active = Some(save);
            return KthreadStatus::Yield;
        }
        // All pages copied: finish, then discard the child either way.
        let req = save.req.clone();
        if let Some(outcome) = self.finish(k, save) {
            self.recorder.outcomes.push((req.parent, outcome));
        }
        self.cleanup_child(k, &req);
        self.next_status()
    }

    fn fork(&self, relink: &mut Relink) -> SimResult<Box<dyn KernelModule>> {
        Ok(Box::new(ForkCkptModule {
            storage: fork_storage(&self.storage, relink)?,
            ..self.clone()
        }))
    }
}

impl Recording for ForkCkptModule {
    fn recorder(&self) -> &Recorder {
        &self.recorder
    }
}

impl ForkCkptModule {
    /// Assemble a finished save's image — the frozen child's non-page
    /// state, the pages the bursts copied, encoded where they sit in the
    /// stopped child (the bursts charged their copies) — in the parent's
    /// lineage, whose id the header records so the image restores as the
    /// parent; store it and emit its phases. `None` is a failed save; its
    /// seq is burned.
    fn finish(&mut self, k: &mut Kernel, save: ActiveSave) -> Option<CkptOutcome> {
        let (req, name) = (&save.req, &self.name);
        let parent = req.parent.0;
        let new = || Lineage::new(&self.job, Some(parent), TrackerKind::FullOnly);
        let lineage = self.lineages.entry(parent).or_insert_with(new);
        let seq = lineage.burn();
        let mut opts = CaptureOptions::full(name, seq);
        opts.pages = PageSelection::Set(Default::default());
        opts.id = lineage.id;
        let (state, _) = capture_state(k, req.child, &opts).ok()?;
        k.faultpoint(name, "store").ok()?;
        let pages = guest_pages(k, req.child, &save.copied);
        let pool = ckpt_par::Pool::new(1);
        let encoded = ckpt_image::encode_borrowed_pages(&state, &pages, true, &pool);
        let receipt = commit_image(k, &self.storage, &self.job, parent, seq, &encoded).ok()?;
        drop(encoded);
        lineage.commit(seq);
        let (bytes, storage_ns) = (receipt.bytes, receipt.time_ns);
        k.charge(k.cost.memcpy(bytes) + storage_ns);
        let total_ns = k.now() - req.initiated_at;
        // Phases are emitted at completion: Freeze is the parent's fork
        // stall, Capture the accumulated burst copies, and the parent
        // logically resumed right after the fork.
        let stall_end = req.initiated_at + req.fork_stall_ns;
        let (stall, copy) = (req.fork_stall_ns, k.cost.memcpy(bytes));
        k.trace
            .phase(name, Phase::Freeze, parent, seq, stall_end, stall);
        k.trace
            .phase(name, Phase::Capture, parent, seq, k.now(), save.capture_ns);
        k.trace
            .phase(name, Phase::Compress, parent, seq, k.now(), copy);
        k.trace
            .phase(name, Phase::Store, parent, seq, k.now(), storage_ns);
        // On a fault here the image is already durable; only the request's
        // completion is lost.
        k.faultpoint(name, "resume").ok()?;
        k.trace.phase(name, Phase::Resume, parent, seq, k.now(), 0);
        super::emit_phase_residual(k, name, req.parent, seq, total_ns, req.trace0);
        let memory_bytes = save.copied.len() as u64 * simos::cost::PAGE_SIZE;
        Some(CkptOutcome {
            seq,
            incremental: false,
            pages_saved: save.copied.len() as u64,
            memory_bytes,
            logical_dirty_bytes: memory_bytes,
            encoded_bytes: bytes,
            total_ns,
            app_stall_ns: req.fork_stall_ns,
            storage_ns,
            events: k.stats.delta_since(&req.stats0),
        })
    }

    fn cleanup_child(&mut self, k: &mut Kernel, req: &SaveReq) {
        // Discard the copy and stop COW accounting on the parent.
        if let Some(c) = k.process_mut(req.child) {
            c.state = simos::pcb::ProcState::Zombie { code: 0 };
        }
        let _ = k.reap(req.child);
        k.end_cow(req.parent);
    }

    fn next_status(&self) -> KthreadStatus {
        if self.queue.is_empty() {
            KthreadStatus::Sleep
        } else {
            KthreadStatus::Yield
        }
    }
}

/// The mechanism wrapper. A clone shares the store.
#[derive(Clone)]
pub struct ForkConcurrentMechanism {
    shell: Shell,
    /// The surveyed *Checkpoint* system has the application itself invoke
    /// the syscalls (automatic initiation, no transparency); when false,
    /// an external tool drives the syscall instead.
    pub invoked_by_app: bool,
    /// If app-invoked: call the checkpoint syscall every N app steps.
    pub self_every: u64,
}

impl ForkConcurrentMechanism {
    pub fn new(module_name: &str, job: &str, storage: SharedStorage) -> Self {
        ForkConcurrentMechanism {
            shell: Shell::new(module_name, job, storage, TrackerKind::FullOnly),
            invoked_by_app: false,
            self_every: 0,
        }
    }
}

impl ModuleFamily for ForkConcurrentMechanism {
    type Module = ForkCkptModule;

    fn shell(&self) -> &Shell {
        &self.shell
    }

    fn shell_mut(&mut self) -> &mut Shell {
        &mut self.shell
    }

    fn describe(&self) -> MechanismInfo {
        MechanismInfo {
            family: "fork-concurrent",
            context: Context::SystemOs,
            agent: AgentKind::ConcurrentFork,
            is_kernel_module: false, // static kernel syscalls
            transparent: false,      // requires direct syscall invocation
            supports_incremental: false,
            initiation: if self.invoked_by_app {
                Initiation::Automatic
            } else {
                Initiation::UserInitiated
            },
        }
    }

    fn module(&self) -> ForkCkptModule {
        ForkCkptModule {
            name: self.shell.module.clone(),
            job: self.shell.job.clone(),
            storage: self.shell.storage.clone(),
            lineages: BTreeMap::new(),
            queue: VecDeque::new(),
            active: None,
            kt: None,
            slot: None,
            recorder: Recorder::new(None),
        }
    }

    fn attach(&mut self, k: &mut Kernel, pid: Pid) -> SimResult<()> {
        if self.invoked_by_app && self.self_every > 0 {
            let slot = k
                .with_module::<ForkCkptModule, _>(&self.shell.module, |m| m.slot)
                .flatten()
                .ok_or_else(|| SimError::Usage("fork module missing slot".into()))?;
            let p = k.process_mut(pid).ok_or(SimError::NoSuchProcess(pid))?;
            p.user_rt.self_ckpt_ext = Some(slot);
            p.user_rt.self_ckpt_every = Some(self.self_every);
        }
        Ok(())
    }

    fn request(&mut self, k: &mut Kernel, pid: Pid) -> SimResult<()> {
        if self.invoked_by_app {
            return Err(SimError::Usage(
                "the Checkpoint system is invoked by the application itself".into(),
            ));
        }
        let slot = |m: &ForkCkptModule| m.slot;
        request_by_ext_syscall(k, &self.shell.module, pid, slot, "fork checkpoint failed")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mechanism::kthread::{KernelThreadMechanism, KthreadIface, KthreadVariant};
    use crate::mechanism::Mechanism;
    use crate::{shared_storage, RestorePid};
    use ckpt_storage::LocalDisk;
    use simos::apps::{AppParams, NativeKind};
    use simos::cost::CostModel;

    fn setup(mem_bytes: u64) -> (Kernel, Pid, ForkConcurrentMechanism) {
        let mut k = Kernel::new(CostModel::circa_2005());
        let mut params = AppParams::small();
        params.mem_bytes = mem_bytes;
        params.total_steps = u64::MAX;
        let pid = k.spawn_native(NativeKind::DenseSweep, params).unwrap();
        k.run_for(20_000_000).unwrap();
        let mut mech = ForkConcurrentMechanism::new(
            "forkckpt",
            "job",
            shared_storage(LocalDisk::new(1 << 30)),
        );
        mech.prepare(&mut k, pid).unwrap();
        (k, pid, mech)
    }

    #[test]
    fn stall_is_fork_only_and_much_less_than_total() {
        let (mut k, pid, mut mech) = setup(2 * 1024 * 1024);
        let o = mech.checkpoint(&mut k, pid).unwrap();
        assert!(o.app_stall_ns > 0);
        assert!(
            o.app_stall_ns * 4 < o.total_ns,
            "stall {} should be a small fraction of total {}",
            o.app_stall_ns,
            o.total_ns
        );
    }

    #[test]
    fn stall_beats_stop_the_world_kthread() {
        // The scheme's whole point: application stall is far below the
        // stop-the-world mechanisms' for the same image size.
        let (mut k1, p1, mut fork_mech) = setup(2 * 1024 * 1024);
        let fork_stall = fork_mech.checkpoint(&mut k1, p1).unwrap().app_stall_ns;

        let mut k2 = Kernel::new(CostModel::circa_2005());
        let mut params = AppParams::small();
        params.mem_bytes = 2 * 1024 * 1024;
        params.total_steps = u64::MAX;
        let p2 = k2.spawn_native(NativeKind::DenseSweep, params).unwrap();
        k2.run_for(20_000_000).unwrap();
        let mut stw = KernelThreadMechanism::new(
            "crak",
            "job",
            shared_storage(LocalDisk::new(1 << 30)),
            TrackerKind::FullOnly,
            KthreadIface::Ioctl,
            KthreadVariant::default(),
        );
        stw.prepare(&mut k2, p2).unwrap();
        let stw_stall = stw.checkpoint(&mut k2, p2).unwrap().app_stall_ns;
        assert!(
            fork_stall * 5 < stw_stall,
            "fork stall {fork_stall} vs stop-the-world stall {stw_stall}"
        );
    }

    #[test]
    fn parent_pays_cow_faults_while_save_in_flight() {
        let (mut k, pid, mut mech) = setup(1024 * 1024);
        let cow0 = k.stats.cow_faults;
        mech.checkpoint(&mut k, pid).unwrap();
        assert!(
            k.stats.cow_faults > cow0,
            "dense writer must hit COW faults during the concurrent save"
        );
        // COW accounting ends after the save.
        assert!(k.process(pid).unwrap().cow_pending.is_empty());
    }

    #[test]
    fn child_copy_is_reaped() {
        let (mut k, pid, mut mech) = setup(256 * 1024);
        let procs_before = k.pids().len();
        mech.checkpoint(&mut k, pid).unwrap();
        assert_eq!(k.pids().len(), procs_before, "forked copy must be reaped");
    }

    #[test]
    fn image_restores_as_the_parent() {
        let (mut k, pid, mut mech) = setup(256 * 1024);
        let o = mech.checkpoint(&mut k, pid).unwrap();
        assert_eq!(o.seq, 1);
        let mut k2 = Kernel::new(CostModel::circa_2005());
        let r = mech.restart(&mut k2, RestorePid::Fresh).unwrap();
        // Progress resumes from at/after the fork instant.
        assert!(r.work_done > 0);
        k2.run_for(20_000_000).unwrap();
        assert!(k2.process(r.pid).unwrap().work_done > r.work_done);
        let _ = pid;
    }

    #[test]
    fn consistency_snapshot_is_fork_instant() {
        // The saved image reflects the state at fork time even though the
        // parent kept mutating during the save.
        let (mut k, pid, mut mech) = setup(256 * 1024);
        let work_at_fork = k.process(pid).unwrap().work_done;
        let o = mech.checkpoint(&mut k, pid).unwrap();
        let work_after = k.process(pid).unwrap().work_done;
        assert!(work_after > work_at_fork, "parent ran during the save");
        // Restore and check the image's work counter is from fork time
        // (within one step, since the fork lands mid-slice).
        let mut k2 = Kernel::new(CostModel::circa_2005());
        let r = mech.restart(&mut k2, RestorePid::Fresh).unwrap();
        assert!(r.work_done >= work_at_fork);
        assert!(r.work_done <= work_at_fork + 2);
        let _ = o;
    }
}
