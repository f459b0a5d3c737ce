//! The modelled user-level checkpoint library (Section 3 of the paper).
//!
//! Everything a user-level checkpointer knows about its process it must
//! learn through syscalls — `sbrk(0)` for the heap boundary, `lseek` per
//! descriptor for file offsets, `sigpending` for pending signals, a read of
//! `/proc/self/maps` for the memory layout (or, with an `LD_PRELOAD` shim,
//! mirrored tables built by interposing `open`/`dup`/`mmap` at run time).
//! Every one of those crossings is charged here, which is precisely why
//! the user-level rows lose the efficiency comparisons in the experiments.

use crate::mechanism::{bracketed_round, KernelCkptEngine, Recorder, Recording};
use crate::report::CkptOutcome;
use crate::tracker::TrackerKind;
use crate::SharedStorage;
use simos::kernel::USER_IO_CHUNK;
use simos::module::KernelModule;
use simos::syscall::{Syscall, Whence};
use simos::types::{Pid, SimError, SimResult};
use simos::{Kernel, Relink};

/// Which side of the protection boundary a checkpoint round runs on —
/// Figure 1's *context*. What a round *is* does not depend on it; it
/// decides exactly the two costs the paper's §3-vs-§4.1 argument is about:
/// how process state is gathered before the walk, and how the encoded
/// image travels to the store. Fixed by the constructor that built the
/// engine (a system-level mechanism's, or [`UserCkptAgent::new`]), never
/// set by a caller.
#[derive(Debug, Clone, Copy)]
pub(crate) enum RoundContext {
    /// Kernel residency: every fact is read straight off the PCB, and the
    /// image is one in-kernel copy.
    Kernel,
    /// A user-level library: one syscall per fact, and a `write()` loop.
    /// With `use_mirrors` (LD_PRELOAD) the memory layout comes from tables
    /// mirrored at every interposed call instead of `/proc/self/maps`.
    User { use_mirrors: bool },
}

impl RoundContext {
    /// Gather the process state the image header needs, charging what that
    /// costs in this context. Returns whether there was anything to pay.
    pub(crate) fn gather_state(self, k: &mut Kernel, pid: Pid) -> SimResult<bool> {
        let RoundContext::User { use_mirrors } = self else {
            return Ok(false);
        };
        // Heap boundary.
        let _ = k.do_syscall(pid, Syscall::Sbrk { delta: 0 });
        // Pending signals.
        let _ = k.do_syscall(pid, Syscall::Sigpending);
        // File offsets: lseek(fd, 0, CUR) per open descriptor.
        let fds: Vec<simos::types::Fd> = k
            .process(pid)
            .ok_or(SimError::NoSuchProcess(pid))?
            .fds
            .iter()
            .map(|(fd, _)| fd)
            .collect();
        for fd in fds {
            let _ = k.do_syscall(
                pid,
                Syscall::Lseek {
                    fd,
                    offset: 0,
                    whence: Whence::Cur,
                },
            );
        }
        // Memory layout: mirrors are free at checkpoint time (their cost
        // was paid at every interposed call); otherwise parse
        // /proc/self/maps — open + read + close plus the copy.
        if !use_mirrors {
            let listing_len = k
                .process(pid)
                .map(|p| p.mem.maps_listing().len() as u64)
                .unwrap_or(0);
            k.stats.syscalls += 3;
            let t = 3 * k.cost.syscall_round_trip() + k.cost.memcpy(listing_len);
            k.charge(t);
        }
        Ok(true)
    }

    /// Charge moving `bytes` of encoded image towards the store: a kernel
    /// copy, or the library's `write()` loop in [`USER_IO_CHUNK`] pieces —
    /// the user-level tax the system-level mechanisms do not pay.
    pub(crate) fn charge_image_io(self, k: &mut Kernel, bytes: u64) {
        match self {
            RoundContext::Kernel => k.charge(k.cost.memcpy(bytes)),
            RoundContext::User { .. } => k.charge_user_io(bytes, USER_IO_CHUNK),
        }
    }
}

/// Configuration of a user-level checkpoint agent.
#[derive(Debug, Clone)]
pub struct UserAgentConfig {
    /// Registry name (unique per kernel).
    pub(crate) name: String,
    /// Storage key prefix.
    pub(crate) job: String,
    /// User-level tracker (must not be a kernel/hardware kind).
    pub(crate) tracker: TrackerKind,
    /// Use LD_PRELOAD mirrors instead of parsing `/proc/self/maps`.
    pub(crate) use_mirrors: bool,
}

impl UserAgentConfig {
    pub fn new(name: &str, job: &str) -> Self {
        UserAgentConfig {
            name: name.to_string(),
            job: job.to_string(),
            tracker: TrackerKind::FullOnly,
            use_mirrors: false,
        }
    }
}

/// The agent: user-space checkpoint library code attached to one process,
/// registered with the kernel's plug-in registry like any module and
/// reached through its `user_checkpoint` hook. Its engines are built for
/// the user context and run the round themselves.
pub struct UserCkptAgent {
    name: String,
    recorder: Recorder,
}

impl UserCkptAgent {
    pub fn new(cfg: UserAgentConfig, storage: SharedStorage) -> Self {
        assert!(
            matches!(
                cfg.tracker,
                TrackerKind::FullOnly
                    | TrackerKind::UserPage
                    | TrackerKind::ProbBlock { .. }
                    | TrackerKind::AdaptiveBlock { .. }
            ),
            "user-level agents cannot use kernel/hardware trackers"
        );
        let template = KernelCkptEngine::for_user_library(
            &cfg.name,
            &cfg.job,
            storage,
            cfg.tracker,
            cfg.use_mirrors,
        );
        UserCkptAgent {
            name: cfg.name,
            recorder: Recorder::new(Some(template)),
        }
    }

    /// Perform one user-level checkpoint in the process's own context
    /// (handler or inserted call): the app is quiescent for free, so
    /// nothing is stopped.
    pub fn perform_checkpoint(&mut self, k: &mut Kernel, pid: Pid) -> SimResult<CkptOutcome> {
        let engine = self.recorder.start(pid);
        let outcome = bracketed_round(k, engine, pid, &[], None, |_| {})??;
        self.recorder.outcomes.push((pid, outcome.clone()));
        Ok(outcome)
    }
}

impl KernelModule for UserCkptAgent {
    fn name(&self) -> &str {
        &self.name
    }

    /// A failed round leaves no outcome; the mechanism waiting for one
    /// times out.
    fn user_checkpoint(&mut self, k: &mut Kernel, pid: Pid) {
        let _ = self.perform_checkpoint(k, pid);
    }

    fn fork(&self, relink: &mut Relink) -> SimResult<Box<dyn KernelModule>> {
        Ok(Box::new(UserCkptAgent {
            name: self.name.clone(),
            recorder: self.recorder.fork(relink)?,
        }))
    }
}

impl Recording for UserCkptAgent {
    fn recorder(&self) -> &Recorder {
        &self.recorder
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shared_storage;
    use ckpt_storage::LocalDisk;
    use simos::apps::{AppParams, NativeKind};
    use simos::cost::CostModel;

    fn setup(tracker: TrackerKind) -> (Kernel, Pid) {
        let mut k = Kernel::new(CostModel::circa_2005());
        let mut params = AppParams::small();
        params.mem_bytes = 1024 * 1024;
        params.total_steps = u64::MAX;
        let pid = k.spawn_native(NativeKind::SparseRandom, params).unwrap();
        k.run_for(10_000_000).unwrap();
        let mut cfg = UserAgentConfig::new("libckpt", "job");
        cfg.tracker = tracker;
        let agent = UserCkptAgent::new(cfg, shared_storage(LocalDisk::new(1 << 30)));
        k.register_module(Box::new(agent)).unwrap();
        k.process_mut(pid).unwrap().user_rt.agent = Some("libckpt".into());
        (k, pid)
    }

    #[test]
    fn gather_pays_one_syscall_per_fact() {
        let (mut k, pid) = setup(TrackerKind::FullOnly);
        // Open three files: three extra lseeks at checkpoint time.
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
        let syscalls0 = k.stats.syscalls;
        k.with_module_mut::<UserCkptAgent, _>("libckpt", |a, k| {
            a.perform_checkpoint(k, pid).unwrap();
        })
        .unwrap();
        let spent = k.stats.syscalls - syscalls0;
        // sbrk + sigpending + 3×lseek + 3×maps + image write loop ≥ 9.
        assert!(spent >= 9, "only {spent} syscalls charged");
    }

    #[test]
    fn mirrors_avoid_the_maps_parse() {
        let run = |mirrors: bool| -> u64 {
            let mut k = Kernel::new(CostModel::circa_2005());
            let mut params = AppParams::small();
            params.total_steps = u64::MAX;
            let pid = k.spawn_native(NativeKind::SparseRandom, params).unwrap();
            k.run_for(5_000_000).unwrap();
            let mut cfg = UserAgentConfig::new("a", "job");
            cfg.use_mirrors = mirrors;
            let agent = UserCkptAgent::new(cfg, shared_storage(LocalDisk::new(1 << 30)));
            k.register_module(Box::new(agent)).unwrap();
            let s0 = k.stats.syscalls;
            k.with_module_mut::<UserCkptAgent, _>("a", |a, k| {
                a.perform_checkpoint(k, pid).unwrap();
            });
            k.stats.syscalls - s0
        };
        assert_eq!(run(false) - run(true), 3, "mirrors save the 3 maps syscalls");
    }

    #[test]
    fn incremental_user_checkpoints_shrink() {
        let (mut k, pid) = setup(TrackerKind::UserPage);
        // Widen the working set so a few steps cannot re-dirty everything.
        let first = k
            .with_module_mut::<UserCkptAgent, _>("libckpt", |a, k| {
                a.perform_checkpoint(k, pid).unwrap()
            })
            .unwrap();
        assert!(!first.incremental);
        // Run a handful of app steps only (sparse writes → few dirty pages).
        let target = k.process(pid).unwrap().work_done + 4;
        while k.process(pid).unwrap().work_done < target {
            k.run_for(1_000).unwrap();
        }
        let second = k
            .with_module_mut::<UserCkptAgent, _>("libckpt", |a, k| {
                a.perform_checkpoint(k, pid).unwrap()
            })
            .unwrap();
        assert!(second.incremental);
        assert!(second.pages_saved < first.pages_saved);
        // The SIGSEGV tracking handler actually ran.
        assert!(k.process(pid).unwrap().user_rt.segv_tracked > 0);
    }

    #[test]
    #[should_panic(expected = "user-level agents cannot use kernel/hardware trackers")]
    fn kernel_tracker_rejected_for_user_agent() {
        let mut cfg = UserAgentConfig::new("a", "j");
        cfg.tracker = TrackerKind::KernelPage;
        let _ = UserCkptAgent::new(cfg, shared_storage(LocalDisk::new(1024)));
    }
}
