//! The kernel-mode signal handler mechanism (Section 4.1): CHPOX.
//!
//! A new signal ([`simos::signal::Sig::SIGCKPT`]) is added to the kernel
//! whose *default action* is "checkpoint the application". Initiation is
//! flexible — anyone can `kill -CKPT <pid>` — and the checkpoint executes
//! in the target's own kernel context (no address-space switch). The
//! weakness the paper highlights is **deferral**: "the execution of the
//! signal handler is deferred until the next time the kernel will go from
//! kernel mode to user mode in the process context … there is no way to
//! know when the signal handler will be executed". The mechanism's
//! [`CkptOutcome::total_ns`] measures initiation→durable and therefore
//! includes that deferral, which grows with system load (experiment C4).

use super::{
    bracketed_round, charge_tool_syscall, outcomes_of, AgentKind, Context, Engines, Initiation,
    KernelCkptEngine, Mechanism, MechanismInfo,
};
use crate::report::{CkptOutcome, RestartOutcome};
use crate::tracker::TrackerKind;
use crate::{fork_storage, RestorePid, SharedStorage};
use simos::module::KernelModule;
use simos::signal::Sig;
use simos::types::{Errno, Pid, SimError, SimResult, SysResult};
use simos::{Kernel, Relink};
use std::any::Any;
use std::collections::BTreeMap;

/// The CHPOX-style kernel module: a `/proc` registration entry plus a
/// claimed kernel signal.
pub struct ChpoxModule {
    name: String,
    engines: Engines,
    pub outcomes: Vec<(Pid, CkptOutcome)>,
    /// Virtual time each pending request was posted (to measure deferral).
    pub initiated_at: BTreeMap<u32, u64>,
}

impl ChpoxModule {
    pub fn new(name: &str, job: &str, storage: SharedStorage, tracker: TrackerKind) -> Self {
        ChpoxModule {
            name: name.to_string(),
            engines: Engines::new(KernelCkptEngine::new(name, job, storage, tracker)),
            outcomes: Vec::new(),
            initiated_at: BTreeMap::new(),
        }
    }

    pub fn registered(&self, pid: Pid) -> bool {
        self.engines.contains(pid)
    }
}

impl KernelModule for ChpoxModule {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_load(&mut self, k: &mut Kernel) {
        let name = self.name.clone();
        let _ = k.fs.register_proc(&format!("/proc/{name}"), &name, "register");
        k.claim_signal_default(Sig::SIGCKPT, &name);
    }

    fn on_unload(&mut self, k: &mut Kernel) {
        let _ = k.fs.unlink(&format!("/proc/{}", self.name));
    }

    /// Processes are registered by writing their pid to `/proc/<name>`.
    fn proc_write(&mut self, _k: &mut Kernel, _pid: Pid, _tag: &str, data: &[u8]) -> SysResult {
        let text = String::from_utf8_lossy(data);
        let pid: u32 = text.trim().parse().map_err(|_| Errno::EINVAL)?;
        self.engines.start(Pid(pid));
        Ok(data.len() as u64)
    }

    /// Reading the `/proc` entry lists registered pids.
    fn proc_read(&mut self, _k: &mut Kernel, _pid: Pid, _tag: &str) -> Result<Vec<u8>, Errno> {
        let mut out = String::new();
        for pid in self.engines.pids() {
            out.push_str(&format!("{pid}\n"));
        }
        Ok(out.into_bytes())
    }

    /// The claimed default action of SIGCKPT: checkpoint in the process's
    /// own kernel context at the (deferred) delivery point. The deferral
    /// since kill(2) is the request's pending wait — the paper's headline
    /// weakness; the target is quiescent by construction, so nothing is
    /// stopped. A fault at `resume` leaves the image durable but records
    /// no outcome.
    fn kernel_signal(&mut self, k: &mut Kernel, pid: Pid, sig: Sig) -> bool {
        if sig != Sig::SIGCKPT {
            return false;
        }
        let requested_at = self.initiated_at.remove(&pid.0);
        // An unregistered process: swallow the signal (a real CHPOX would
        // fall back to the built-in default).
        let Some(engine) = self.engines.get_mut(pid) else {
            return true;
        };
        if let Ok(Ok(outcome)) = bracketed_round(k, engine, pid, &[], requested_at, |_| {}) {
            self.outcomes.push((pid, outcome));
        }
        true
    }

    fn fork(&self, relink: &mut Relink) -> SimResult<Box<dyn KernelModule>> {
        Ok(Box::new(ChpoxModule {
            name: self.name.clone(),
            engines: self.engines.fork(relink)?,
            outcomes: self.outcomes.clone(),
            initiated_at: self.initiated_at.clone(),
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
pub struct KernelSignalMechanism {
    pub module_name: String,
    storage: SharedStorage,
    job: String,
    tracker: TrackerKind,
    target: Option<Pid>,
}

impl KernelSignalMechanism {
    pub fn new(module_name: &str, job: &str, storage: SharedStorage, tracker: TrackerKind) -> Self {
        KernelSignalMechanism {
            module_name: module_name.to_string(),
            storage,
            job: job.to_string(),
            tracker,
            target: None,
        }
    }
}

impl Mechanism for KernelSignalMechanism {
    fn info(&self) -> MechanismInfo {
        MechanismInfo {
            family: "kernel-signal",
            context: Context::SystemOs,
            agent: AgentKind::KernelSignal,
            is_kernel_module: true,
            transparent: true,
            supports_incremental: self.tracker.supports_incremental(),
            initiation: Initiation::UserInitiated,
        }
    }

    fn prepare(&mut self, k: &mut Kernel, pid: Pid) -> SimResult<()> {
        self.target = Some(pid);
        if !k.module_loaded(&self.module_name) {
            k.register_module(Box::new(ChpoxModule::new(
                &self.module_name,
                &self.job,
                self.storage.clone(),
                self.tracker,
            )))?;
        }
        // Registration: a tool writes the pid to /proc/<name> (open +
        // write + close).
        for _ in 0..3 {
            charge_tool_syscall(k);
        }
        let name = self.module_name.clone();
        let data = pid.0.to_string().into_bytes();
        k.dispatch_module(&name, |m, k| m.proc_write(k, pid, "register", &data))
            .ok_or_else(|| SimError::Usage("module missing".into()))?
            .map_err(|e| SimError::Usage(format!("registration failed: {e:?}")))?;
        Ok(())
    }

    fn checkpoint(&mut self, k: &mut Kernel, pid: Pid) -> SimResult<CkptOutcome> {
        let name = self.module_name.clone();
        let before = self.outcomes(k).len();
        // kill -CKPT <pid> from a tool, then wait for the deferred
        // delivery to run the kernel checkpoint.
        charge_tool_syscall(k);
        let now = k.now();
        k.with_module_mut::<ChpoxModule, _>(&name, |m, _| {
            m.initiated_at.insert(pid.0, now);
        });
        k.post_signal(pid, Sig::SIGCKPT);
        super::next_outcome(&*self, k, before, "SIGCKPT delivery")
    }

    fn restart(&mut self, k: &mut Kernel, pid: RestorePid) -> SimResult<RestartOutcome> {
        super::restart_prepared(&self.storage, &self.job, self.target, k, pid)
    }

    fn outcomes(&self, k: &Kernel) -> Vec<CkptOutcome> {
        k.with_module::<ChpoxModule, _>(&self.module_name, |m| {
            outcomes_of(&m.outcomes, self.target)
        })
        .unwrap_or_default()
    }

    fn engine(&self, k: &Kernel) -> Option<KernelCkptEngine> {
        k.with_module::<ChpoxModule, _>(&self.module_name, |m| {
            m.engines.get(self.target?).cloned()
        })
        .flatten()
    }

    fn fork(&self, relink: &mut Relink) -> SimResult<Box<dyn Mechanism>> {
        Ok(Box::new(KernelSignalMechanism {
            module_name: self.module_name.clone(),
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
    
    fn setup() -> (Kernel, Pid, KernelSignalMechanism) {
        let mut k = Kernel::new(CostModel::circa_2005());
        let mut params = AppParams::small();
        params.total_steps = u64::MAX;
        let pid = k.spawn_native(NativeKind::SparseRandom, params).unwrap();
        let mut mech = KernelSignalMechanism::new(
            "chpox",
            "job",
            shared_storage(LocalDisk::new(1 << 30)),
            TrackerKind::KernelPage,
        );
        mech.prepare(&mut k, pid).unwrap();
        (k, pid, mech)
    }

    #[test]
    fn proc_entry_created_and_lists_registered_pids() {
        let (mut k, pid, _mech) = setup();
        assert!(k.fs.exists("/proc/chpox"));
        let listing = k
            .dispatch_module("chpox", |m, k| m.proc_read(k, pid, "register"))
            .unwrap()
            .unwrap();
        assert_eq!(String::from_utf8(listing).unwrap().trim(), pid.0.to_string());
    }

    #[test]
    fn kill_sigckpt_checkpoints_transparently() {
        let (mut k, pid, mut mech) = setup();
        k.run_for(20_000_000).unwrap();
        let o = mech.checkpoint(&mut k, pid).unwrap();
        assert!(o.pages_saved > 0);
        assert!(mech.info().transparent);
        // Process unharmed.
        let w = k.process(pid).unwrap().work_done;
        k.run_for(20_000_000).unwrap();
        assert!(k.process(pid).unwrap().work_done > w);
    }

    #[test]
    fn unregistered_process_is_not_checkpointed_but_survives() {
        let (mut k, _pid, _mech) = setup();
        let mut params = AppParams::small();
        params.total_steps = u64::MAX;
        let other = k.spawn_native(NativeKind::SparseRandom, params).unwrap();
        k.post_signal(other, Sig::SIGCKPT);
        k.run_for(50_000_000).unwrap();
        // Swallowed by the module: no checkpoint, no termination.
        assert!(!k.process(other).unwrap().has_exited());
        let n = k
            .with_module_mut::<ChpoxModule, _>("chpox", |m, _| m.outcomes.len())
            .unwrap();
        assert_eq!(n, 0);
    }

    #[test]
    fn deferral_grows_under_competing_load() {
        // The paper: delivery waits for the next kernel→user transition in
        // the target's context — so with N CPU-bound competitors the
        // initiation→completion latency grows.
        let latency_with_competitors = |n: usize| -> u64 {
            let mut k = Kernel::new(CostModel::circa_2005());
            let mut params = AppParams::small();
            params.total_steps = u64::MAX;
            let target = k.spawn_native(NativeKind::SparseRandom, params.clone()).unwrap();
            for _ in 0..n {
                // Equal-priority CPU-bound competitors: the target only
                // reaches user mode when its turn comes around.
                let _ = k.spawn_native(NativeKind::SparseRandom, params.clone()).unwrap();
            }
            let mut mech = KernelSignalMechanism::new(
                "chpox",
                "job",
                shared_storage(LocalDisk::new(1 << 30)),
                TrackerKind::FullOnly,
            );
            mech.prepare(&mut k, target).unwrap();
            k.run_for(30_000_000).unwrap();
            mech.checkpoint(&mut k, target).unwrap().total_ns
        };
        let alone = latency_with_competitors(0);
        let crowded = latency_with_competitors(6);
        assert!(
            crowded > alone,
            "deferral under load ({crowded}) should exceed idle latency ({alone})"
        );
    }

    #[test]
    fn restart_from_kernel_signal_checkpoint() {
        let (mut k, pid, mut mech) = setup();
        k.run_for(30_000_000).unwrap();
        mech.checkpoint(&mut k, pid).unwrap();
        let w = {
            // Work at checkpoint is recorded in the image.
            let all = mech.outcomes(&k);
            assert_eq!(all.len(), 1);
            k.process(pid).unwrap().work_done
        };
        let mut k2 = Kernel::new(CostModel::circa_2005());
        let r = mech.restart(&mut k2, RestorePid::Fresh).unwrap();
        assert!(r.work_done <= w);
        k2.run_for(10_000_000).unwrap();
        assert!(k2.process(r.pid).unwrap().work_done >= r.work_done);
    }
}
