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
    bracketed_round, charge_tool_syscall, AgentKind, Context, Initiation, MechanismInfo,
    ModuleFamily, Recorder, Recording, Shell,
};
use crate::report::RestartOutcome;
use crate::tracker::TrackerKind;
use crate::{RestorePid, SharedStorage};
use simos::module::{KernelModule, KthreadStatus};
use simos::sched::SchedPolicy;
use simos::signal::{Sig, SigAction, UserHandlerKind};
use simos::syscall::Syscall;
use simos::types::{Errno, KtId, Pid, SimError, SimResult, SysResult};
use simos::{Kernel, Relink};
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

/// The checkpoint thread's `SCHED_FIFO` priority.
const KTHREAD_RT_PRIO: u8 = 50;

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
    pub recorder: Recorder,
    queue: VecDeque<(Pid, u64)>, // (pid, initiated_at)
    kt: Option<KtId>,
    pub requests_failed: u64,
}

impl CkptKthreadModule {
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
        self.recorder.start(target);
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
                rt_prio: KTHREAD_RT_PRIO,
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
        let engine = self.recorder.start(target);
        // The kernel thread borrowed the interrupted task's page tables;
        // switching to the target's address space costs an mm switch + TLB
        // flush exactly when they differ (the paper's point). Charged to
        // the freeze window: it is quiescence overhead, not capture work.
        let attach = |k: &mut Kernel| {
            let _ = k.kthread_attach_mm(target);
        };
        match bracketed_round(k, engine, target, &[target], Some(initiated_at), attach) {
            Ok(Ok(outcome)) => self.recorder.outcomes.push((target, outcome)),
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
            recorder: self.recorder.fork(relink)?,
            queue: self.queue.clone(),
            kt: self.kt,
            requests_failed: self.requests_failed,
        }))
    }
}

impl Recording for CkptKthreadModule {
    fn recorder(&self) -> &Recorder {
        &self.recorder
    }
}

/// The mechanism wrapper.
#[derive(Clone)]
pub struct KernelThreadMechanism {
    shell: Shell,
    iface: KthreadIface,
    variant: KthreadVariant,
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
            shell: Shell::new(module_name, job, storage, tracker),
            iface,
            variant,
        }
    }
}

impl ModuleFamily for KernelThreadMechanism {
    type Module = CkptKthreadModule;

    fn shell(&self) -> &Shell {
        &self.shell
    }

    fn shell_mut(&mut self) -> &mut Shell {
        &mut self.shell
    }

    fn describe(&self) -> MechanismInfo {
        MechanismInfo {
            family: "kernel-thread",
            context: Context::SystemOs,
            agent: AgentKind::KernelThread,
            is_kernel_module: true,
            transparent: !self.variant.needs_registration,
            supports_incremental: self.shell.tracker.supports_incremental(),
            initiation: Initiation::UserInitiated,
        }
    }

    fn module(&self) -> CkptKthreadModule {
        let mut template = self.shell.engine();
        template.opts.compress = self.variant.compress;
        template.opts.save_file_contents = self.variant.save_file_contents;
        CkptKthreadModule {
            name: self.shell.module.clone(),
            iface: self.iface,
            recorder: Recorder::new(Some(template)),
            queue: VecDeque::new(),
            kt: None,
            requests_failed: 0,
        }
    }

    fn attach(&mut self, k: &mut Kernel, pid: Pid) -> SimResult<()> {
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

    fn request(&mut self, k: &mut Kernel, pid: Pid) -> SimResult<()> {
        let name = self.shell.module.clone();
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
        Ok(())
    }

    /// UCLiK restores under the original pid.
    fn restore(&mut self, k: &mut Kernel, pid: RestorePid) -> SimResult<RestartOutcome> {
        let sel = if self.variant.restore_original_pid {
            RestorePid::Original
        } else {
            pid
        };
        self.shell.restart(k, sel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mechanism::Mechanism;
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
