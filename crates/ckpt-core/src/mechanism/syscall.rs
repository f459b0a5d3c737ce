//! The "new system call" mechanism family (Section 4.1): VMADump, BPROC,
//! EPCKPT.
//!
//! A checkpoint syscall executes **in the context of a process** — the
//! address space is already the right one (no mm switch, no TLB flush) and
//! the data cannot change underneath (the process *is* the checkpointer).
//! The price is the initiation model:
//!
//! * **VMADump style** ([`SyscallVariant::SelfCkpt`]): the application
//!   itself calls the syscall ("the relevant data of the process can be
//!   directly accessed through the `current` kernel macro"). Requires
//!   source modification — no transparency — and nobody else can trigger a
//!   checkpoint — no flexibility. Its mechanism's
//!   [`checkpoint`](super::Mechanism::checkpoint) therefore returns an
//!   error.
//! * **EPCKPT style** ([`SyscallVariant::ByPid`]): a tool passes the target
//!   pid to the syscall. Transparent to the application, but the target
//!   must be stopped first for consistency. The real tool also has the
//!   application launched through it, for a small run-time tracing
//!   overhead; that overhead is not modelled — `prepare` charges nothing.
//!
//! Every process the syscalls checkpoint is a lineage of its own, whichever
//! mechanism prepared it.

use super::{
    bracketed_round, request_by_ext_syscall, AgentKind, Context, Initiation, MechanismInfo,
    ModuleFamily, Recorder, Recording, Shell,
};
use crate::tracker::TrackerKind;
use crate::SharedStorage;
use simos::module::KernelModule;
use simos::types::{Errno, Pid, SimError, SimResult, SysResult};
use simos::{Kernel, Relink};

/// Which flavour of the syscall mechanism.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyscallVariant {
    /// The application checkpoints itself every `every` completed steps.
    SelfCkpt { every: u64 },
    /// A tool checkpoints an arbitrary pid.
    ByPid,
}

/// The static-kernel extension registering the checkpoint syscalls.
pub(crate) struct CkptSyscallModule {
    name: String,
    recorder: Recorder,
    slot_self: Option<u32>,
    slot_pid: Option<u32>,
}

impl CkptSyscallModule {
    /// In-context (self) checkpoints need no freeze: the process is
    /// executing this very code, so quiescence is free. By-pid checkpoints
    /// must stop the target first. A fault at either bracket site is
    /// `EINTR`; the round's own failure is `ESRCH` or `EINVAL`.
    fn do_checkpoint(&mut self, k: &mut Kernel, target: Pid, in_context: bool) -> SysResult {
        let stop: &[Pid] = if in_context { &[] } else { &[target] };
        let engine = self.recorder.start(target);
        let round =
            bracketed_round(k, engine, target, stop, None, |_| {}).map_err(|_| Errno::EINTR)?;
        match round {
            Ok(outcome) => {
                let seq = outcome.seq;
                self.recorder.outcomes.push((target, outcome));
                Ok(seq)
            }
            Err(SimError::NoSuchProcess(_)) => Err(Errno::ESRCH),
            Err(_) => Err(Errno::EINVAL),
        }
    }
}

impl KernelModule for CkptSyscallModule {
    fn name(&self) -> &str {
        &self.name
    }

    /// VMADump/EPCKPT live in the static part of the kernel.
    fn is_loadable(&self) -> bool {
        false
    }

    fn on_load(&mut self, k: &mut Kernel) {
        let name = self.name.clone();
        self.slot_self = Some(k.register_ext_syscall(&name));
        self.slot_pid = Some(k.register_ext_syscall(&name));
    }

    fn ext_syscall(&mut self, k: &mut Kernel, pid: Pid, slot: u32, args: [u64; 5]) -> SysResult {
        if Some(slot) == self.slot_self {
            self.do_checkpoint(k, pid, true)
        } else if Some(slot) == self.slot_pid {
            let target = Pid(args[0] as u32);
            self.do_checkpoint(k, target, target == pid)
        } else {
            Err(Errno::ENOSYS)
        }
    }

    fn fork(&self, relink: &mut Relink) -> SimResult<Box<dyn KernelModule>> {
        Ok(Box::new(CkptSyscallModule {
            name: self.name.clone(),
            recorder: self.recorder.fork(relink)?,
            slot_self: self.slot_self,
            slot_pid: self.slot_pid,
        }))
    }
}

impl Recording for CkptSyscallModule {
    fn recorder(&self) -> &Recorder {
        &self.recorder
    }
}

/// The mechanism wrapper.
#[derive(Clone)]
pub struct SyscallMechanism {
    shell: Shell,
    variant: SyscallVariant,
}

impl SyscallMechanism {
    pub fn new(
        module_name: &str,
        variant: SyscallVariant,
        job: &str,
        storage: SharedStorage,
        tracker: TrackerKind,
    ) -> Self {
        SyscallMechanism {
            shell: Shell::new(module_name, job, storage, tracker),
            variant,
        }
    }
}

impl ModuleFamily for SyscallMechanism {
    type Module = CkptSyscallModule;

    fn shell(&self) -> &Shell {
        &self.shell
    }

    fn shell_mut(&mut self) -> &mut Shell {
        &mut self.shell
    }

    fn describe(&self) -> MechanismInfo {
        MechanismInfo {
            family: "syscall",
            context: Context::SystemOs,
            agent: AgentKind::SystemCall,
            is_kernel_module: false, // static kernel
            transparent: matches!(self.variant, SyscallVariant::ByPid),
            supports_incremental: self.shell.tracker.supports_incremental(),
            initiation: match self.variant {
                SyscallVariant::SelfCkpt { .. } => Initiation::Automatic,
                SyscallVariant::ByPid => Initiation::UserInitiated,
            },
        }
    }

    fn module(&self) -> CkptSyscallModule {
        CkptSyscallModule {
            name: self.shell.module.clone(),
            recorder: Recorder::new(Some(self.shell.engine())),
            slot_self: None,
            slot_pid: None,
        }
    }

    fn attach(&mut self, k: &mut Kernel, pid: Pid) -> SimResult<()> {
        if let SyscallVariant::SelfCkpt { every } = self.variant {
            let slot = k
                .with_module::<CkptSyscallModule, _>(&self.shell.module, |m| m.slot_self)
                .flatten()
                .ok_or_else(|| SimError::Usage("syscall module missing slot".into()))?;
            // The application source was modified to call the new syscall
            // every `every` steps — the transparency cost.
            let p = k
                .process_mut(pid)
                .ok_or(SimError::NoSuchProcess(pid))?;
            p.user_rt.self_ckpt_ext = Some(slot);
            p.user_rt.self_ckpt_every = Some(every);
        }
        Ok(())
    }

    fn request(&mut self, k: &mut Kernel, pid: Pid) -> SimResult<()> {
        match self.variant {
            SyscallVariant::SelfCkpt { .. } => Err(SimError::Usage(
                "VMADump-style self-checkpointing cannot be externally initiated \
                 (the inflexibility the paper criticizes)"
                    .into(),
            )),
            SyscallVariant::ByPid => {
                // The tool issues the checkpoint syscall.
                let slot = |m: &CkptSyscallModule| m.slot_pid;
                let failed = "checkpoint syscall failed";
                request_by_ext_syscall(k, &self.shell.module, pid, slot, failed)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mechanism::{wait_for_outcomes, Mechanism};
    use crate::{shared_storage, RestorePid};
    use ckpt_storage::LocalDisk;
    use simos::apps::{AppParams, NativeKind};
    use simos::cost::CostModel;

    fn setup(variant: SyscallVariant) -> (Kernel, Pid, SyscallMechanism) {
        let mut k = Kernel::new(CostModel::circa_2005());
        let mut params = AppParams::small();
        params.total_steps = u64::MAX;
        let pid = k.spawn_native(NativeKind::SparseRandom, params).unwrap();
        let mut mech = SyscallMechanism::new(
            "vmadump",
            variant,
            "job",
            shared_storage(LocalDisk::new(1 << 30)),
            TrackerKind::KernelPage,
        );
        mech.prepare(&mut k, pid).unwrap();
        (k, pid, mech)
    }

    #[test]
    fn self_checkpoint_fires_on_schedule_but_cannot_be_initiated() {
        let (mut k, pid, mut mech) = setup(SyscallVariant::SelfCkpt { every: 10 });
        assert_eq!(mech.info().initiation, Initiation::Automatic);
        assert!(!mech.info().transparent);
        // External initiation refused.
        assert!(mech.checkpoint(&mut k, pid).is_err());
        // But the app checkpoints itself as it runs.
        let outcomes =
            wait_for_outcomes(&mech, &mut k, 3, 2_000_000_000, "self-checkpoint outcomes").unwrap();
        assert!(outcomes.len() >= 3);
        assert!(!outcomes[0].incremental);
        assert!(outcomes[1].incremental);
    }

    #[test]
    fn by_pid_checkpoint_is_user_initiated_and_transparent() {
        let (mut k, pid, mut mech) = setup(SyscallVariant::ByPid);
        assert_eq!(mech.info().initiation, Initiation::UserInitiated);
        assert!(mech.info().transparent);
        k.run_for(20_000_000).unwrap();
        let o = mech.checkpoint(&mut k, pid).unwrap();
        assert_eq!(o.seq, 1);
        assert!(o.pages_saved > 0);
        // The target keeps running afterwards.
        let w = k.process(pid).unwrap().work_done;
        k.run_for(20_000_000).unwrap();
        assert!(k.process(pid).unwrap().work_done > w);
    }

    #[test]
    fn restart_after_crash_preserves_progress() {
        let (mut k, pid, mut mech) = setup(SyscallVariant::ByPid);
        k.run_for(30_000_000).unwrap();
        let o = mech.checkpoint(&mut k, pid).unwrap();
        assert!(o.pages_saved > 0);
        let saved_work = k.process(pid).unwrap().work_done;
        // Crash the node; restart on a new kernel. (Local disk would be
        // unavailable on a real node loss — storage semantics are covered
        // in ckpt-storage and the cluster crate.)
        let mut k2 = Kernel::new(CostModel::circa_2005());
        let r = mech.restart(&mut k2, RestorePid::Fresh).unwrap();
        assert_eq!(r.work_done, saved_work);
        k2.run_for(20_000_000).unwrap();
        assert!(k2.process(r.pid).unwrap().work_done > saved_work);
    }

    #[test]
    fn module_is_static_kernel() {
        let (mut k, _pid, mech) = setup(SyscallVariant::ByPid);
        assert!(!mech.info().is_kernel_module);
        assert!(matches!(
            k.unload_module("vmadump"),
            Err(SimError::Usage(_))
        ));
    }

    #[test]
    fn in_context_checkpoint_needs_no_mm_switch() {
        let (mut k, pid, _mech) = setup(SyscallVariant::SelfCkpt { every: 5 });
        // Self-checkpoints happen as the app runs; count mm switches
        // attributable to checkpointing (none beyond normal scheduling).
        // Single process: the only mm switch is the initial one.
        k.run_for(200_000_000).unwrap();
        assert!(k.stats.mm_switches <= 2);
        let _ = pid;
    }
}
