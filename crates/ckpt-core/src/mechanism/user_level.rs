//! The user-level mechanism family (Section 3): checkpoint libraries,
//! signal-handler triggers, and `LD_PRELOAD` interposition.
//!
//! One implementation covers the three user-level agents of Figure 1 via
//! [`Trigger`]:
//!
//! * [`Trigger::SelfCall`] — libckpt/libckp/Condor-style: the application
//!   is modified (or pre-compiled) to call the checkpoint library
//!   periodically. Automatic initiation only — no external party can
//!   trigger a checkpoint (the paper's flexibility complaint).
//! * [`Trigger::Signal`] — a general-purpose signal (`SIGUSR1`/`SIGUSR2`,
//!   Condor) invokes the library's handler. The handler calls
//!   non-reentrant library functions, so signals landing inside `malloc`
//!   are recorded as hazards by the substrate.
//! * [`Trigger::Timer`] — `SIGALRM` via `setitimer` (libckpt, Esky).
//!
//! Setting `UserLevelMechanism::preload` models the `LD_PRELOAD` scheme:
//! no relink (transparent), mirrored fd/mmap tables instead of `/proc`
//! parsing at checkpoint time — paid for with a per-syscall interposition
//! tax for the whole run.

use super::{
    charge_tool_syscall, AgentKind, Context, Initiation, MechanismInfo, ModuleFamily, Shell,
};
use crate::agents::{UserAgentConfig, UserCkptAgent};
use crate::report::RestartOutcome;
use crate::tracker::TrackerKind;
use crate::{RestorePid, SharedStorage};
use simos::mem::VmaKind;
use simos::signal::{Sig, SigAction, UserHandlerKind};
use simos::syscall::Syscall;
use simos::types::{Pid, SimError, SimResult};
use simos::Kernel;

/// What causes the library to take a checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trigger {
    /// Inserted call sites every `every` application steps.
    SelfCall { every: u64 },
    /// A general-purpose signal caught by the library's handler.
    Signal { sig: Sig },
    /// A periodic `SIGALRM` armed with `setitimer`.
    Timer { interval_ns: u64 },
}

/// The user-level mechanism.
#[derive(Clone)]
pub struct UserLevelMechanism {
    shell: Shell,
    trigger: Trigger,
    /// LD_PRELOAD interposition instead of relinking.
    pub(crate) preload: bool,
}

impl UserLevelMechanism {
    pub fn new(
        agent_name: &str,
        job: &str,
        storage: SharedStorage,
        tracker: TrackerKind,
        trigger: Trigger,
    ) -> Self {
        UserLevelMechanism {
            shell: Shell::new(agent_name, job, storage, tracker),
            trigger,
            preload: false,
        }
    }

    fn trigger_signal(&self) -> Option<Sig> {
        match self.trigger {
            Trigger::SelfCall { .. } => None,
            Trigger::Signal { sig } => Some(sig),
            Trigger::Timer { .. } => Some(Sig::SIGALRM),
        }
    }
}

impl ModuleFamily for UserLevelMechanism {
    type Module = UserCkptAgent;

    fn shell(&self) -> &Shell {
        &self.shell
    }

    fn shell_mut(&mut self) -> &mut Shell {
        &mut self.shell
    }

    fn describe(&self) -> MechanismInfo {
        MechanismInfo {
            family: "user-level",
            context: Context::UserLevel,
            agent: if self.preload {
                AgentKind::Preload
            } else {
                match self.trigger {
                    Trigger::SelfCall { .. } => AgentKind::LibraryCall,
                    _ => AgentKind::UserSignalHandler,
                }
            },
            is_kernel_module: false,
            // Relinking against the library breaks transparency unless the
            // whole thing is injected with LD_PRELOAD.
            transparent: self.preload,
            supports_incremental: self.shell.tracker.supports_incremental(),
            initiation: match self.trigger {
                Trigger::SelfCall { .. } => Initiation::Automatic,
                // Timer-armed libraries still accept `kill -ALRM` from
                // outside, and Signal ones are driven by kill.
                _ => Initiation::UserInitiated,
            },
        }
    }

    fn module(&self) -> UserCkptAgent {
        let mut cfg = UserAgentConfig::new(&self.shell.module, &self.shell.job);
        cfg.tracker = self.shell.tracker;
        cfg.use_mirrors = self.preload;
        UserCkptAgent::new(cfg, self.shell.storage.clone())
    }

    fn attach(&mut self, k: &mut Kernel, pid: Pid) -> SimResult<()> {
        {
            let p = k
                .process_mut(pid)
                .ok_or(SimError::NoSuchProcess(pid))?;
            p.user_rt.agent = Some(self.shell.module.clone());
            if self.preload {
                p.user_rt.interpose_active = true;
            }
        }
        match self.trigger {
            Trigger::SelfCall { every } => {
                let p = k.process_mut(pid).expect("checked above");
                p.user_rt.self_ckpt_every = Some(every);
            }
            Trigger::Signal { sig } => {
                // The library installs its handler at init. The handler
                // calls malloc/stdio — non-reentrant (the paper's hazard).
                k.do_syscall(
                    pid,
                    Syscall::Sigaction {
                        sig,
                        action: SigAction::Handler {
                            kind: UserHandlerKind::CkptLibCheckpoint,
                            uses_non_reentrant: true,
                        },
                    },
                )
                .map_err(|e| SimError::Usage(format!("sigaction failed: {e:?}")))?;
            }
            Trigger::Timer { interval_ns } => {
                k.do_syscall(
                    pid,
                    Syscall::Sigaction {
                        sig: Sig::SIGALRM,
                        action: SigAction::Handler {
                            kind: UserHandlerKind::CkptLibCheckpoint,
                            uses_non_reentrant: true,
                        },
                    },
                )
                .map_err(|e| SimError::Usage(format!("sigaction failed: {e:?}")))?;
                k.do_syscall(pid, Syscall::Setitimer { interval_ns })
                    .map_err(|e| SimError::Usage(format!("setitimer failed: {e:?}")))?;
            }
        }
        Ok(())
    }

    fn request(&mut self, k: &mut Kernel, pid: Pid) -> SimResult<()> {
        let Some(sig) = self.trigger_signal() else {
            return Err(SimError::Usage(
                "library-call checkpointing is automatic-initiated only \
                 (the inflexibility the paper criticizes)"
                    .into(),
            ));
        };
        // kill(1) from outside.
        charge_tool_syscall(k);
        k.post_signal(pid, sig);
        Ok(())
    }

    fn restore(&mut self, k: &mut Kernel, pid: RestorePid) -> SimResult<RestartOutcome> {
        let out = self.shell.restart(k, pid)?;
        // The user-level restorer rebuilds kernel state with syscalls:
        // open+lseek per descriptor, mmap per dynamic region, plus the
        // initial brk/sigaction calls — crossings a kernel-level restore
        // does not pay.
        let (nfds, nmmaps) = {
            let p = k
                .process(out.pid)
                .ok_or(SimError::NoSuchProcess(out.pid))?;
            (
                p.fds.len() as u64,
                p.mem
                    .vmas()
                    .iter()
                    .filter(|v| v.kind == VmaKind::Mmap)
                    .count() as u64,
            )
        };
        let calls = 2 * nfds + nmmaps + 2;
        k.stats.syscalls += calls;
        let t = calls * k.cost.syscall_round_trip();
        k.charge(t);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mechanism::{wait_for_outcomes, Mechanism};
    use crate::shared_storage;
    use ckpt_storage::LocalDisk;
    use simos::apps::{AppParams, NativeKind};
    use simos::cost::CostModel;

    fn setup(trigger: Trigger, tracker: TrackerKind) -> (Kernel, Pid, UserLevelMechanism) {
        let mut k = Kernel::new(CostModel::circa_2005());
        let mut params = AppParams::small();
        params.mem_bytes = 1024 * 1024;
        params.total_steps = u64::MAX;
        let pid = k.spawn_native(NativeKind::SparseRandom, params).unwrap();
        let mut mech = UserLevelMechanism::new(
            "libckpt",
            "job",
            shared_storage(LocalDisk::new(1 << 30)),
            tracker,
            trigger,
        );
        mech.prepare(&mut k, pid).unwrap();
        (k, pid, mech)
    }

    #[test]
    fn self_call_variant_checkpoints_automatically_only() {
        let (mut k, pid, mut mech) = setup(
            Trigger::SelfCall { every: 20 },
            TrackerKind::FullOnly,
        );
        assert_eq!(mech.info().initiation, Initiation::Automatic);
        assert!(mech.checkpoint(&mut k, pid).is_err());
        let outcomes =
            wait_for_outcomes(&mech, &mut k, 2, 5_000_000_000, "auto checkpoints").unwrap();
        assert!(outcomes.len() >= 2);
    }

    #[test]
    fn signal_variant_is_kill_driven() {
        let (mut k, pid, mut mech) = setup(
            Trigger::Signal { sig: Sig::SIGUSR1 },
            TrackerKind::UserPage,
        );
        k.run_for(20_000_000).unwrap();
        let o1 = mech.checkpoint(&mut k, pid).unwrap();
        assert!(!o1.incremental);
        // A few sparse steps only, so the delta stays small.
        let target = k.process(pid).unwrap().work_done + 5;
        while k.process(pid).unwrap().work_done < target {
            k.run_for(1_000).unwrap();
        }
        let o2 = mech.checkpoint(&mut k, pid).unwrap();
        assert!(o2.incremental, "user-page tracking enables incrementals");
        assert!(o2.encoded_bytes < o1.encoded_bytes);
    }

    #[test]
    fn timer_variant_checkpoints_periodically() {
        let (mut k, _pid, mech) = setup(
            Trigger::Timer {
                interval_ns: 30_000_000,
            },
            TrackerKind::FullOnly,
        );
        let outcomes =
            wait_for_outcomes(&mech, &mut k, 3, 5_000_000_000, "auto checkpoints").unwrap();
        assert!(outcomes.len() >= 3);
    }

    #[test]
    fn user_level_pays_more_crossings_than_kernel_level() {
        use crate::mechanism::syscall::{SyscallMechanism, SyscallVariant};
        // Same workload, one checkpoint each; count syscalls in the
        // checkpoint window.
        let (mut ku, pu, mut user) = setup(
            Trigger::Signal { sig: Sig::SIGUSR1 },
            TrackerKind::FullOnly,
        );
        ku.run_for(20_000_000).unwrap();
        let u = user.checkpoint(&mut ku, pu).unwrap();

        let mut ks = Kernel::new(CostModel::circa_2005());
        let mut params = AppParams::small();
        params.total_steps = u64::MAX;
        let ps = ks.spawn_native(NativeKind::SparseRandom, params).unwrap();
        let mut sysm = SyscallMechanism::new(
            "epckpt",
            SyscallVariant::ByPid,
            "job",
            shared_storage(LocalDisk::new(1 << 30)),
            TrackerKind::FullOnly,
        );
        sysm.prepare(&mut ks, ps).unwrap();
        ks.run_for(20_000_000).unwrap();
        let s = sysm.checkpoint(&mut ks, ps).unwrap();

        assert!(
            u.events.syscalls > 2 * s.events.syscalls,
            "user-level checkpoint used {} syscalls vs kernel-level {}",
            u.events.syscalls,
            s.events.syscalls
        );
    }

    #[test]
    fn preload_is_transparent_but_taxes_every_interposable_call() {
        let (k, pid, mech) = setup(
            Trigger::Signal { sig: Sig::SIGUSR2 },
            TrackerKind::FullOnly,
        );
        // Re-prepare a fresh setup with preload on.
        let mut k2 = Kernel::new(CostModel::circa_2005());
        let mut params = AppParams::small();
        params.total_steps = u64::MAX;
        let p2 = k2.spawn_native(NativeKind::SparseRandom, params).unwrap();
        let mut pre = UserLevelMechanism::new(
            "zapish",
            "job",
            shared_storage(LocalDisk::new(1 << 30)),
            TrackerKind::FullOnly,
            Trigger::Signal { sig: Sig::SIGUSR2 },
        );
        pre.preload = true;
        pre.prepare(&mut k2, p2).unwrap();
        assert!(pre.info().transparent);
        assert!(!mech.info().transparent);
        // Interposable syscalls get taxed and mirrored.
        k2.do_syscall(
            p2,
            Syscall::Open {
                path: "/tmp/x".into(),
                flags: simos::fs::OpenFlags::WRONLY_CREATE,
            },
        )
        .unwrap();
        assert_eq!(k2.stats.interposed_syscalls, 1);
        assert_eq!(k2.process(p2).unwrap().user_rt.fd_mirror.len(), 1);
        let _ = (k, pid);
    }

    #[test]
    fn signal_inside_malloc_records_hazard() {
        // A VM guest that lives inside malloc, with the checkpoint-signal
        // handler installed: hazards must be recorded.
        let mut k = Kernel::new(CostModel::circa_2005());
        let pid = k
            .spawn_vm(simos::asm::programs::malloc_heavy(), "malloc-heavy")
            .unwrap();
        let mut mech = UserLevelMechanism::new(
            "libckpt",
            "job",
            shared_storage(LocalDisk::new(1 << 30)),
            TrackerKind::FullOnly,
            Trigger::Signal { sig: Sig::SIGUSR1 },
        );
        mech.prepare(&mut k, pid).unwrap();
        k.run_for(2_000_000).unwrap();
        let mut hazards = 0;
        for _ in 0..50 {
            let _ = mech.checkpoint(&mut k, pid);
            hazards = k.process(pid).unwrap().sig.hazards.len();
            if hazards > 0 {
                break;
            }
            k.run_for(1_000_000).unwrap();
        }
        assert!(hazards > 0, "no reentrancy hazard recorded");
    }

    #[test]
    fn restart_pays_user_side_reconstruction_syscalls() {
        let (mut k, pid, mut mech) = setup(
            Trigger::Signal { sig: Sig::SIGUSR1 },
            TrackerKind::FullOnly,
        );
        // Give the process some fds and an mmap to rebuild.
        for i in 0..3 {
            k.do_syscall(
                pid,
                Syscall::Open {
                    path: format!("/tmp/f{i}"),
                    flags: simos::fs::OpenFlags::RDWR_CREATE,
                },
            )
            .unwrap();
        }
        k.do_syscall(
            pid,
            Syscall::Mmap {
                len: 8192,
                prot: simos::mem::Prot::RW,
            },
        )
        .unwrap();
        k.run_for(20_000_000).unwrap();
        mech.checkpoint(&mut k, pid).unwrap();
        let mut k2 = Kernel::new(CostModel::circa_2005());
        let s0 = k2.stats.syscalls;
        let r = mech.restart(&mut k2, RestorePid::Fresh).unwrap();
        // 2×3 fds + 1 mmap + 2 fixed = 9 extra crossings.
        assert!(k2.stats.syscalls - s0 >= 9);
        assert_eq!(k2.process(r.pid).unwrap().fds.len(), 3);
    }
}
