//! Hardware-assisted checkpointing (Section 4.2): ReVive and SafetyNet.
//!
//! Purpose-built hardware logs modifications at **cache-line granularity**
//! with no software cost per write — the finest tracking in the taxonomy —
//! and is fully transparent. Its weakness is categorical, not quantitative:
//! "it relies on custom hardware, counter to the trend of building clusters
//! from commodity components".
//!
//! The two proposals differ in where the logging lives:
//!
//! * **ReVive** modifies the directory controller; establishing a
//!   checkpoint stalls the processors while logs are flushed to memory.
//! * **SafetyNet** adds checkpoint log buffers to the caches; logs drain
//!   **asynchronously**, so the application stalls only for a brief
//!   register/cache synchronization.

use super::{
    bracketed_round, AgentKind, Context, Initiation, KernelCkptEngine, Mechanism, MechanismInfo,
};
use crate::report::{CkptOutcome, RestartOutcome};
use crate::tracker::TrackerKind;
use crate::{RestorePid, SharedStorage};
use simos::types::{Pid, SimResult};
use simos::{Kernel, Relink};

/// Which hardware proposal to model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HwFlavor {
    Revive,
    Safetynet,
}

/// Fixed quiesce time for SafetyNet's synchronous part (register + cache
/// synchronization before the asynchronous drain takes over).
pub const SAFETYNET_QUIESCE_NS: u64 = 10_000;

/// The hardware-assisted mechanism. There is no kernel module — the
/// "agent" is the memory system itself; the OS only coordinates.
pub struct HardwareMechanism {
    pub flavor: HwFlavor,
    engine: KernelCkptEngine,
    outcomes: Vec<CkptOutcome>,
}

impl HardwareMechanism {
    pub fn new(flavor: HwFlavor, job: &str, storage: SharedStorage) -> Self {
        let name = match flavor {
            HwFlavor::Revive => "revive",
            HwFlavor::Safetynet => "safetynet",
        };
        HardwareMechanism {
            flavor,
            engine: KernelCkptEngine::new(name, job, storage, TrackerKind::HardwareLine),
            outcomes: Vec::new(),
        }
    }
}

impl Mechanism for HardwareMechanism {
    fn info(&self) -> MechanismInfo {
        MechanismInfo {
            family: "hardware",
            context: Context::Hardware,
            agent: match self.flavor {
                HwFlavor::Revive => AgentKind::DirectoryController,
                HwFlavor::Safetynet => AgentKind::CacheBased,
            },
            is_kernel_module: false,
            transparent: true,
            supports_incremental: true,
            initiation: Initiation::UserInitiated,
        }
    }

    fn prepare(&mut self, k: &mut Kernel, pid: Pid) -> SimResult<()> {
        self.engine.set_target(pid);
        // The hardware logs from the moment the machine is configured.
        self.engine.lineage.tracker_mut().arm(k, pid)?;
        Ok(())
    }

    /// ReVive's directory-based flush stalls the processor for the whole
    /// log write-back: the bracket's stall. SafetyNet's drain is
    /// asynchronous: the application resumes after the brief quiesce.
    fn checkpoint(&mut self, k: &mut Kernel, pid: Pid) -> SimResult<CkptOutcome> {
        let mut outcome = bracketed_round(k, &mut self.engine, pid, &[pid], None, |_| {})??;
        if self.flavor == HwFlavor::Safetynet {
            outcome.app_stall_ns = outcome.app_stall_ns.min(SAFETYNET_QUIESCE_NS);
        }
        self.outcomes.push(outcome.clone());
        Ok(outcome)
    }

    fn restart(&mut self, k: &mut Kernel, pid: RestorePid) -> SimResult<RestartOutcome> {
        self.engine.restart_from_storage(k, pid)
    }

    fn outcomes(&self, _k: &Kernel) -> Vec<CkptOutcome> {
        self.outcomes.clone()
    }

    fn engine(&self, _k: &Kernel) -> Option<KernelCkptEngine> {
        Some(self.engine.clone())
    }

    fn fork(&self, relink: &mut Relink) -> SimResult<Box<dyn Mechanism>> {
        Ok(Box::new(HardwareMechanism {
            flavor: self.flavor,
            engine: self.engine.fork(relink)?,
            outcomes: self.outcomes.clone(),
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

    fn setup(flavor: HwFlavor) -> (Kernel, Pid, HardwareMechanism) {
        let mut k = Kernel::new(CostModel::circa_2005());
        let mut params = AppParams::small();
        params.mem_bytes = 512 * 1024;
        params.total_steps = u64::MAX;
        let pid = k.spawn_native(NativeKind::SparseRandom, params).unwrap();
        let mut mech = HardwareMechanism::new(flavor, "job", shared_storage(LocalDisk::new(1 << 30)));
        mech.prepare(&mut k, pid).unwrap();
        (k, pid, mech)
    }

    #[test]
    fn line_granularity_shrinks_second_checkpoint() {
        let (mut k, pid, mut mech) = setup(HwFlavor::Revive);
        k.run_for(20_000_000).unwrap();
        let o1 = mech.checkpoint(&mut k, pid).unwrap();
        assert!(!o1.incremental);
        // A handful of sparse writes between checkpoints.
        let target = k.process(pid).unwrap().work_done + 5;
        while k.process(pid).unwrap().work_done < target {
            k.run_for(1_000).unwrap();
        }
        let o2 = mech.checkpoint(&mut k, pid).unwrap();
        assert!(o2.incremental);
        // Cache-line logical bytes are far below page-granularity bytes.
        assert!(o2.logical_dirty_bytes < o2.pages_saved * simos::cost::PAGE_SIZE / 4);
    }

    #[test]
    fn hardware_tracking_is_free_at_run_time() {
        let (mut k, pid, mut mech) = setup(HwFlavor::Revive);
        k.run_for(10_000_000).unwrap();
        mech.checkpoint(&mut k, pid).unwrap();
        let faults0 = k.stats.page_faults;
        k.run_for(20_000_000).unwrap();
        assert_eq!(k.stats.page_faults, faults0, "no faults from hw tracking");
    }

    #[test]
    fn safetynet_stalls_less_than_revive() {
        let stall = |flavor| {
            let (mut k, pid, mut mech) = setup(flavor);
            k.run_for(20_000_000).unwrap();
            mech.checkpoint(&mut k, pid).unwrap();
            k.run_for(20_000_000).unwrap();
            mech.checkpoint(&mut k, pid).unwrap().app_stall_ns
        };
        let revive = stall(HwFlavor::Revive);
        let safetynet = stall(HwFlavor::Safetynet);
        assert!(
            safetynet < revive,
            "SafetyNet's async drain ({safetynet}) should stall less than ReVive ({revive})"
        );
    }

    #[test]
    fn fully_transparent_and_restartable() {
        let (mut k, pid, mut mech) = setup(HwFlavor::Safetynet);
        assert!(mech.info().transparent);
        k.run_for(20_000_000).unwrap();
        mech.checkpoint(&mut k, pid).unwrap();
        let mut k2 = Kernel::new(CostModel::circa_2005());
        let r = mech.restart(&mut k2, RestorePid::Fresh).unwrap();
        k2.run_for(20_000_000).unwrap();
        assert!(k2.process(r.pid).unwrap().work_done > r.work_done);
    }
}
