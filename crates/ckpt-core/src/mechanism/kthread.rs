//! The kernel-thread mechanism (Section 4.1): CRAK, ZAP, UCLiK, BLCR,
//! LAM/MPI, PsncR/C.
//!
//! A dedicated kernel thread performs the checkpoint. The paper's analysis,
//! all reproduced here:
//!
//! * the thread is reached through a device file (`/dev/<name>` + `ioctl`,
//!   CRAK/BLCR) or a `/proc` entry (PsncR/C) — see [`KthreadIface`];
//! * it runs `SCHED_FIFO`, so it "will be executed as soon as it wakes up
//!   and will run until it has completed its work" — competing `SCHED_OTHER`
//!   load cannot delay it (contrast with the kernel-signal deferral);
//! * it "uses the page tables of the task it interrupted" — if that is not
//!   the checkpoint target, an **address-space switch (and TLB
//!   invalidation)** is charged via [`Kernel::kthread_attach_mm`];
//! * it runs concurrently with the application, so the target must be
//!   **stopped** ("removing the application from its runqueue list") for
//!   data consistency — the app stall window.
//!
//! Variant flags model the surveyed systems' distinguishing features:
//! BLCR's registration phase (not fully transparent), UCLiK's original-pid
//! and file-content restoration, PsncR/C's lack of data optimization.

use super::{
    bracketed_round, charge_tool_syscall, outcomes_of, AgentKind, Context, Engines, Initiation,
    KernelCkptEngine, Mechanism, MechanismInfo,
};
use crate::report::{CkptOutcome, RestartOutcome};
use crate::tracker::TrackerKind;
use crate::{fork_storage, RestorePid, SharedStorage};
use simos::module::{KernelModule, KthreadStatus};
use simos::sched::SchedPolicy;
use simos::signal::{Sig, SigAction, UserHandlerKind};
use simos::syscall::Syscall;
use simos::types::{Errno, KtId, Pid, SimError, SimResult, SysResult};
use simos::{Kernel, Relink};
use std::any::Any;
use std::collections::VecDeque;

/// How user space reaches the kernel thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KthreadIface {
    /// A character device in `/dev`, driven with `ioctl` (CRAK, BLCR).
    Ioctl,
    /// A `/proc` entry driven with `write` (PsncR/C, MOSIX-style).
    ProcWrite,
}

/// ioctl request codes for the checkpoint device.
pub const IOCTL_CHECKPOINT: u64 = 1;

/// Variant knobs distinguishing the surveyed kernel-thread systems.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KthreadVariant {
    /// BLCR: the process must register (signal handler + shared library
    /// load) before it can be checkpointed → not fully transparent.
    pub needs_registration: bool,
    /// UCLiK: restore under the original pid.
    pub restore_original_pid: bool,
    /// UCLiK: snapshot open files' contents into the image.
    pub save_file_contents: bool,
    /// PsncR/C is `false`: "does not perform any data optimization".
    pub compress: bool,
}

impl Default for KthreadVariant {
    fn default() -> Self {
        KthreadVariant {
            needs_registration: false,
            restore_original_pid: false,
            save_file_contents: false,
            compress: true,
        }
    }
}

/// The loadable kernel module owning the checkpoint kernel thread.
pub struct CkptKthreadModule {
    name: String,
    iface: KthreadIface,
    rt_prio: u8,
    engines: Engines,
    queue: VecDeque<(Pid, u64)>, // (pid, initiated_at)
    kt: Option<KtId>,
    pub outcomes: Vec<(Pid, CkptOutcome)>,
    pub requests_failed: u64,
}

impl CkptKthreadModule {
    pub(crate) fn new(
        name: &str,
        job: &str,
        storage: SharedStorage,
        tracker: TrackerKind,
        iface: KthreadIface,
        rt_prio: u8,
        variant: KthreadVariant,
    ) -> Self {
        let mut template = KernelCkptEngine::new(name, job, storage, tracker);
        template.opts.compress = variant.compress;
        template.opts.save_file_contents = variant.save_file_contents;
        CkptKthreadModule {
            name: name.to_string(),
            iface,
            rt_prio,
            engines: Engines::new(template),
            queue: VecDeque::new(),
            kt: None,
            outcomes: Vec::new(),
            requests_failed: 0,
        }
    }

    pub(crate) fn device_path(&self) -> String {
        match self.iface {
            KthreadIface::Ioctl => format!("/dev/{}", self.name),
            KthreadIface::ProcWrite => format!("/proc/{}", self.name),
        }
    }

    fn enqueue(&mut self, k: &mut Kernel, target: Pid) -> SysResult {
        if k.process(target).is_none() {
            return Err(Errno::ESRCH);
        }
        self.engines.start(target);
        self.queue.push_back((target, k.now()));
        if let Some(kt) = self.kt {
            let _ = k.wake_kthread(kt);
        }
        Ok(0)
    }
}

impl KernelModule for CkptKthreadModule {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_load(&mut self, k: &mut Kernel) {
        let name = self.name.clone();
        self.kt = Some(k.spawn_kthread(
            &name,
            SchedPolicy::Fifo {
                rt_prio: self.rt_prio,
            },
        ));
        match self.iface {
            KthreadIface::Ioctl => {
                let _ = k.fs.register_device(&format!("/dev/{name}"), &name, 0);
            }
            KthreadIface::ProcWrite => {
                let _ = k.fs.register_proc(&format!("/proc/{name}"), &name, "ckpt");
            }
        }
    }

    fn on_unload(&mut self, k: &mut Kernel) {
        let _ = k.fs.unlink(&self.device_path());
    }

    fn ioctl(&mut self, k: &mut Kernel, _pid: Pid, _minor: u32, req: u64, arg: u64) -> SysResult {
        match req {
            IOCTL_CHECKPOINT => self.enqueue(k, Pid(arg as u32)),
            _ => Err(Errno::ENOTTY),
        }
    }

    fn proc_write(&mut self, k: &mut Kernel, _pid: Pid, _tag: &str, data: &[u8]) -> SysResult {
        let text = String::from_utf8_lossy(data);
        let pid: u32 = text.trim().parse().map_err(|_| Errno::EINVAL)?;
        self.enqueue(k, Pid(pid))?;
        Ok(data.len() as u64)
    }

    /// One queued request. Its pending wait is the queue plus the wakeup
    /// latency; the target is stopped ("removed from its runqueue list")
    /// for consistency. A fault at `resume` leaves the image durable, but
    /// the request never completed from the tool's point of view: no
    /// outcome is recorded.
    fn kthread_run(&mut self, k: &mut Kernel, _kt: KtId) -> KthreadStatus {
        let Some((target, initiated_at)) = self.queue.pop_front() else {
            return KthreadStatus::Sleep;
        };
        let engine = self.engines.start(target);
        // The kernel thread borrowed the interrupted task's page tables;
        // switching to the target's address space costs an mm switch + TLB
        // flush exactly when they differ (the paper's point). Charged to
        // the freeze window: it is quiescence overhead, not capture work.
        let attach = |k: &mut Kernel| {
            let _ = k.kthread_attach_mm(target);
        };
        match bracketed_round(k, engine, target, &[target], Some(initiated_at), attach) {
            Ok(Ok(outcome)) => self.outcomes.push((target, outcome)),
            _ => self.requests_failed += 1,
        }
        if self.queue.is_empty() {
            KthreadStatus::Sleep
        } else {
            KthreadStatus::Yield
        }
    }

    fn fork(&self, relink: &mut Relink) -> SimResult<Box<dyn KernelModule>> {
        Ok(Box::new(CkptKthreadModule {
            name: self.name.clone(),
            iface: self.iface,
            rt_prio: self.rt_prio,
            engines: self.engines.fork(relink)?,
            queue: self.queue.clone(),
            kt: self.kt,
            outcomes: self.outcomes.clone(),
            requests_failed: self.requests_failed,
        }))
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// The mechanism wrapper.
pub struct KernelThreadMechanism {
    pub(crate) module_name: String,
    pub(crate) iface: KthreadIface,
    pub(crate) rt_prio: u8,
    pub(crate) variant: KthreadVariant,
    storage: SharedStorage,
    job: String,
    tracker: TrackerKind,
    target: Option<Pid>,
}

impl KernelThreadMechanism {
    pub fn new(
        module_name: &str,
        job: &str,
        storage: SharedStorage,
        tracker: TrackerKind,
        iface: KthreadIface,
        variant: KthreadVariant,
    ) -> Self {
        KernelThreadMechanism {
            module_name: module_name.to_string(),
            iface,
            rt_prio: 50,
            variant,
            storage,
            job: job.to_string(),
            tracker,
            target: None,
        }
    }
}

impl Mechanism for KernelThreadMechanism {
    fn info(&self) -> MechanismInfo {
        MechanismInfo {
            family: "kernel-thread",
            context: Context::SystemOs,
            agent: AgentKind::KernelThread,
            is_kernel_module: true,
            transparent: !self.variant.needs_registration,
            supports_incremental: self.tracker.supports_incremental(),
            initiation: Initiation::UserInitiated,
        }
    }

    fn prepare(&mut self, k: &mut Kernel, pid: Pid) -> SimResult<()> {
        self.target = Some(pid);
        if !k.module_loaded(&self.module_name) {
            k.register_module(Box::new(CkptKthreadModule::new(
                &self.module_name,
                &self.job,
                self.storage.clone(),
                self.tracker,
                self.iface,
                self.rt_prio,
                self.variant,
            )))?;
        }
        if self.variant.needs_registration {
            // BLCR's initialization: load the shared library into the
            // process and register a signal handler — the reason Table 1
            // marks BLCR non-transparent.
            let lib_bytes = 512 * 1024;
            let t = k.cost.memcpy(lib_bytes);
            k.charge_user(t);
            k.do_syscall(
                pid,
                Syscall::Sigaction {
                    sig: Sig::SIGUSR2,
                    action: SigAction::Handler {
                        kind: UserHandlerKind::CountOnly,
                        uses_non_reentrant: false,
                    },
                },
            )
            .map_err(|e| SimError::Usage(format!("BLCR registration failed: {e:?}")))?;
        }
        Ok(())
    }

    fn checkpoint(&mut self, k: &mut Kernel, pid: Pid) -> SimResult<CkptOutcome> {
        let name = self.module_name.clone();
        let before = self.outcomes(k).len();
        // The tool: open the device//proc entry, issue the request, close.
        for _ in 0..3 {
            charge_tool_syscall(k);
        }
        match self.iface {
            KthreadIface::Ioctl => {
                k.stats.ioctls += 1;
                k.dispatch_module(&name, |m, k| {
                    m.ioctl(k, pid, 0, IOCTL_CHECKPOINT, pid.0 as u64)
                })
                .ok_or_else(|| SimError::Usage("module missing".into()))?
                .map_err(|e| SimError::Usage(format!("ioctl failed: {e:?}")))?;
            }
            KthreadIface::ProcWrite => {
                let data = pid.0.to_string().into_bytes();
                k.dispatch_module(&name, |m, k| m.proc_write(k, pid, "ckpt", &data))
                    .ok_or_else(|| SimError::Usage("module missing".into()))?
                    .map_err(|e| SimError::Usage(format!("proc write failed: {e:?}")))?;
            }
        }
        super::next_outcome(&*self, k, before, "kthread checkpoint")
    }

    fn restart(&mut self, k: &mut Kernel, pid: RestorePid) -> SimResult<RestartOutcome> {
        let sel = if self.variant.restore_original_pid {
            RestorePid::Original
        } else {
            pid
        };
        super::restart_prepared(&self.storage, &self.job, self.target, k, sel)
    }

    fn outcomes(&self, k: &Kernel) -> Vec<CkptOutcome> {
        k.with_module::<CkptKthreadModule, _>(&self.module_name, |m| {
            outcomes_of(&m.outcomes, self.target)
        })
        .unwrap_or_default()
    }

    fn engine(&self, k: &Kernel) -> Option<KernelCkptEngine> {
        k.with_module::<CkptKthreadModule, _>(&self.module_name, |m| {
            m.engines.get(self.target?).cloned()
        })
        .flatten()
    }

    fn fork(&self, relink: &mut Relink) -> SimResult<Box<dyn Mechanism>> {
        Ok(Box::new(KernelThreadMechanism {
            module_name: self.module_name.clone(),
            iface: self.iface,
            rt_prio: self.rt_prio,
            variant: self.variant,
            storage: fork_storage(&self.storage, relink)?,
            job: self.job.clone(),
            tracker: self.tracker,
            target: self.target,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shared_storage;
    use ckpt_storage::LocalDisk;
    use simos::apps::{AppParams, NativeKind};
    use simos::cost::CostModel;

    fn setup(iface: KthreadIface, variant: KthreadVariant) -> (Kernel, Pid, KernelThreadMechanism) {
        let mut k = Kernel::new(CostModel::circa_2005());
        let mut params = AppParams::small();
        params.total_steps = u64::MAX;
        let pid = k.spawn_native(NativeKind::SparseRandom, params).unwrap();
        let mut mech = KernelThreadMechanism::new(
            "crak",
            "job",
            shared_storage(LocalDisk::new(1 << 30)),
            TrackerKind::KernelPage,
            iface,
            variant,
        );
        mech.prepare(&mut k, pid).unwrap();
        (k, pid, mech)
    }

    #[test]
    fn device_file_created_and_checkpoint_via_ioctl_works() {
        let (mut k, pid, mut mech) = setup(KthreadIface::Ioctl, KthreadVariant::default());
        assert!(k.fs.exists("/dev/crak"));
        k.run_for(20_000_000).unwrap();
        let o = mech.checkpoint(&mut k, pid).unwrap();
        assert!(o.pages_saved > 0);
        assert!(k.stats.ioctls >= 1);
        // The target was frozen only for the stall window and continues.
        let w = k.process(pid).unwrap().work_done;
        k.run_for(20_000_000).unwrap();
        assert!(k.process(pid).unwrap().work_done > w);
    }

    #[test]
    fn proc_interface_works_too() {
        let (mut k, pid, mut mech) = setup(KthreadIface::ProcWrite, KthreadVariant::default());
        assert!(k.fs.exists("/proc/crak"));
        k.run_for(10_000_000).unwrap();
        let o = mech.checkpoint(&mut k, pid).unwrap();
        assert_eq!(o.seq, 1);
    }

    #[test]
    fn kthread_pays_the_address_space_switch() {
        let (mut k, pid, mut mech) = setup(KthreadIface::Ioctl, KthreadVariant::default());
        // Ensure a *different* task's address space is active when the
        // kernel thread runs: freeze the target, let another process run,
        // then request the checkpoint.
        let mut params = AppParams::small();
        params.total_steps = u64::MAX;
        let other = k.spawn_native(NativeKind::SparseRandom, params).unwrap();
        k.freeze_process(pid).unwrap();
        k.run_for(20_000_000).unwrap();
        assert_eq!(k.active_mm(), Some(other));
        k.thaw_process(pid).unwrap();
        let mm0 = k.stats.mm_switches;
        // Stop the other process from running again before the kthread
        // (freeze it), so the active mm is still `other`'s at attach time.
        k.freeze_process(other).unwrap();
        mech.checkpoint(&mut k, pid).unwrap();
        // The checkpoint itself required attaching to the target's space:
        // at least one extra mm switch beyond ordinary scheduling.
        assert!(
            k.stats.mm_switches > mm0,
            "expected an mm switch charged to the kernel thread"
        );
    }

    #[test]
    fn kthread_is_module_and_unloadable() {
        let (mut k, _pid, mech) = setup(KthreadIface::Ioctl, KthreadVariant::default());
        assert!(mech.info().is_kernel_module);
        k.unload_module("crak").unwrap();
        assert!(!k.fs.exists("/dev/crak"));
    }

    #[test]
    fn blcr_registration_costs_transparency() {
        let variant = KthreadVariant {
            needs_registration: true,
            ..Default::default()
        };
        let (k, pid, mech) = setup(KthreadIface::Ioctl, variant);
        assert!(!mech.info().transparent);
        // The registration actually installed a handler.
        let p = k.process(pid).unwrap();
        assert!(matches!(
            p.sig.action(Sig::SIGUSR2),
            SigAction::Handler { .. }
        ));
        drop(k);
    }

    #[test]
    fn uclik_restores_original_pid_and_file_contents() {
        let variant = KthreadVariant {
            restore_original_pid: true,
            save_file_contents: true,
            ..Default::default()
        };
        let (mut k, pid, mut mech) = setup(KthreadIface::Ioctl, variant);
        k.do_syscall(
            pid,
            Syscall::Open {
                path: "/tmp/data".into(),
                flags: simos::fs::OpenFlags::RDWR_CREATE,
            },
        )
        .unwrap();
        k.fs.write_at("/tmp/data", 0, b"precious").unwrap();
        k.run_for(20_000_000).unwrap();
        mech.checkpoint(&mut k, pid).unwrap();
        // Restart on a fresh kernel without the file: both pid and content
        // come back.
        let mut k2 = Kernel::new(CostModel::circa_2005());
        let r = mech.restart(&mut k2, RestorePid::Fresh).unwrap();
        assert_eq!(r.pid, pid, "UCLiK restores the original pid");
        assert_eq!(k2.fs.read_file("/tmp/data").unwrap(), b"precious");
    }

    #[test]
    fn psnc_variant_ships_uncompressed_images() {
        let plain = KthreadVariant {
            compress: false,
            ..Default::default()
        };
        let (mut k, pid, mut mech) = setup(KthreadIface::ProcWrite, plain);
        k.run_for(10_000_000).unwrap();
        let o = mech.checkpoint(&mut k, pid).unwrap();
        // Without zero-elision/RLE the encoded size is at least the raw
        // memory represented.
        assert!(o.encoded_bytes >= o.memory_bytes);
    }

    #[test]
    fn checkpoint_of_dead_process_fails_cleanly() {
        let (mut k, pid, mut mech) = setup(KthreadIface::Ioctl, KthreadVariant::default());
        k.post_signal(pid, Sig::SIGKILL);
        k.run_for(50_000_000).unwrap();
        k.reap(pid).unwrap();
        assert!(mech.checkpoint(&mut k, pid).is_err());
    }
}
