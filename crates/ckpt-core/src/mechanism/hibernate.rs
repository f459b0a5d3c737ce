//! Software Suspend (swsusp): whole-machine hibernation via the kernel's
//! own freeze-everything signal.
//!
//! Section 4.1: "A new default kernel signal is implemented to initiate the
//! hibernation which is delivered to every process in the system to freeze
//! their execution. When all processes are stopped the image of the RAM is
//! saved on the swap partition in the local disk. After that it powers down
//! the system. At start-up the image is restored from disk and all the
//! processes are restarted." A *standby* mode keeps the image in RAM
//! instead — fast, but it does not survive the power-down.

use super::{commit_image, emit_phase_residual, with_frozen, Then};
use crate::capture::{capture_image, restore_image, CaptureOptions, RestoreOptions, RestorePid};
use crate::{fork_storage, SharedStorage};
use ckpt_storage::ImageKey;
use simos::trace::Phase;
use simos::types::{Pid, SimError, SimResult};
use simos::{Kernel, Relink};

/// Where the hibernation image goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SuspendMode {
    /// To the swap partition — survives power-down (hibernation).
    ToDisk,
    /// To RAM — fast, lost on power-down (standby).
    ToRam,
}

/// Result of a completed hibernation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HibernateReport {
    pub processes_saved: usize,
    pub bytes_written: u64,
    pub total_ns: u64,
    pub mode: SuspendMode,
}

/// The Software Suspend mechanism (static kernel; user-initiated via a
/// script; local storage only).
pub struct SoftwareSuspend {
    storage: SharedStorage,
    job: String,
    saved_pids: Vec<u32>,
    seq: u64,
}

impl SoftwareSuspend {
    pub fn new(storage: SharedStorage) -> Self {
        SoftwareSuspend {
            storage,
            job: "swsusp".into(),
            saved_pids: Vec::new(),
            seq: 0,
        }
    }

    /// The mechanism in a fork of its world, its storage re-pointed through
    /// `relink` (see [`super::Mechanism::fork`]).
    pub fn fork(&self, relink: &mut Relink) -> SimResult<SoftwareSuspend> {
        Ok(SoftwareSuspend {
            storage: fork_storage(&self.storage, relink)?,
            job: self.job.clone(),
            saved_pids: self.saved_pids.clone(),
            seq: self.seq,
        })
    }

    /// Freeze every process, save all their images, and power the node
    /// down (the caller then drops or re-creates the kernel; storage
    /// backends get their `on_power_down` from the cluster layer). If the
    /// save fails the machine is not going down after all: every process
    /// runs again.
    pub fn hibernate(&mut self, k: &mut Kernel, mode: SuspendMode) -> SimResult<HibernateReport> {
        let trace_before = k.trace.mechanism_total(&self.job);
        let t0 = k.now();
        self.seq += 1;
        let pids: Vec<Pid> = k
            .pids()
            .into_iter()
            .filter(|p| k.process(*p).map(|p| !p.has_exited()).unwrap_or(false))
            .collect();
        k.faultpoint(&self.job, "freeze")?;
        // The freeze signal reaches every process (charged per process).
        k.charge(pids.len() as u64 * k.cost.signal_deliver_ns);
        let lead = pids.first().map(|p| p.0).unwrap_or(0);
        let bytes = with_frozen(k, &pids, Then::PowerDown, |k| {
            k.trace
                .phase(&self.job, Phase::Freeze, lead, self.seq, k.now(), k.now() - t0);
            self.save_all(k, &pids, lead)
        })?;
        emit_phase_residual(
            k,
            &self.job,
            Pid(lead),
            self.seq,
            k.now() - t0,
            trace_before,
        );
        // Power down: processes are gone with the kernel; the caller stops
        // using `k`.
        Ok(HibernateReport {
            processes_saved: pids.len(),
            bytes_written: bytes,
            total_ns: k.now() - t0,
            mode,
        })
    }

    /// Save the RAM image of the frozen machine: one image per process,
    /// contiguous swap write. Returns the bytes written.
    fn save_all(&mut self, k: &mut Kernel, pids: &[Pid], lead: u32) -> SimResult<u64> {
        let mut bytes = 0u64;
        let mut capture_ns = 0u64;
        let mut store_ns = 0u64;
        // The image is committed only once *every* process has been saved:
        // a crash mid-loop must not leave a partial pid set that a later
        // boot would silently resume as a truncated machine.
        let mut committed = Vec::new();
        for pid in pids {
            k.faultpoint(&self.job, "capture")?;
            let mut opts = CaptureOptions::full("swsusp", self.seq);
            opts.save_file_contents = true;
            let cap0 = k.now();
            let img = capture_image(k, *pid, &opts)?;
            capture_ns += k.now() - cap0;
            k.faultpoint(&self.job, "store")?;
            let encoded = ckpt_image::encode(&img);
            let receipt = commit_image(k, &self.storage, &self.job, pid.0, self.seq, &encoded)
                .map_err(|e| SimError::Usage(format!("swsusp store failed: {e}")))?;
            bytes += receipt.bytes;
            k.charge(receipt.time_ns);
            store_ns += receipt.time_ns;
            committed.push(pid.0);
        }
        self.saved_pids = committed;
        k.trace
            .phase(&self.job, Phase::Capture, lead, self.seq, k.now(), capture_ns);
        k.trace
            .phase(&self.job, Phase::Store, lead, self.seq, k.now(), store_ns);
        // Execution resumes only at the next boot; the zero-cost marker
        // closes the phase sequence for this round.
        k.faultpoint(&self.job, "resume")?;
        k.trace.phase(&self.job, Phase::Resume, lead, self.seq, k.now(), 0);
        Ok(bytes)
    }

    /// Boot-time resume: restore every saved process onto a fresh kernel,
    /// under original pids.
    pub fn resume(&mut self, k: &mut Kernel) -> SimResult<Vec<Pid>> {
        if self.saved_pids.is_empty() {
            return Err(SimError::Usage(
                "swsusp resume: no committed hibernation image".into(),
            ));
        }
        let mut restored = Vec::new();
        for pid in self.saved_pids.clone() {
            k.faultpoint(&self.job, "restore")?;
            let (img, t) = {
                let storage = self.storage.lock();
                let key = ImageKey::new(&self.job, pid, self.seq).to_string();
                let (bytes, t) = storage
                    .load(&key, &k.cost)
                    .map_err(|e| SimError::Usage(format!("resume load failed: {e}")))?;
                (
                    ckpt_image::decode(&bytes)
                        .map_err(|e| SimError::Usage(format!("resume decode failed: {e}")))?,
                    t,
                )
            };
            k.charge(t);
            let r0 = k.now().saturating_sub(t);
            let new_pid =
                restore_image(k, &img, &RestoreOptions::fresh_running(RestorePid::Original))?;
            k.trace
                .phase(&self.job, Phase::Restore, new_pid.0, self.seq, k.now(), k.now() - r0);
            restored.push(new_pid);
        }
        Ok(restored)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shared_storage;
    use ckpt_storage::{RamStore, SwapStore};
    use simos::apps::{AppParams, NativeKind};
    use simos::cost::CostModel;

    fn populated_kernel() -> (Kernel, Vec<Pid>) {
        let mut k = Kernel::new(CostModel::circa_2005());
        let mut pids = Vec::new();
        for _ in 0..3 {
            let mut params = AppParams::small();
            params.total_steps = u64::MAX;
            pids.push(k.spawn_native(NativeKind::SparseRandom, params).unwrap());
        }
        k.run_for(30_000_000).unwrap();
        (k, pids)
    }

    #[test]
    fn hibernate_to_disk_survives_power_down() {
        let (mut k, pids) = populated_kernel();
        let storage = shared_storage(SwapStore::new(1 << 30));
        let mut susp = SoftwareSuspend::new(storage.clone());
        let report = susp.hibernate(&mut k, SuspendMode::ToDisk).unwrap();
        assert_eq!(report.processes_saved, 3);
        assert!(report.bytes_written > 0);
        let works: Vec<u64> = pids
            .iter()
            .map(|p| k.process(*p).unwrap().work_done)
            .collect();
        // Power down: the node loses RAM; swap survives.
        storage.lock().on_power_down();
        drop(k);
        // Boot: fresh kernel, resume everything under original pids.
        let mut k2 = Kernel::new(CostModel::circa_2005());
        let restored = susp.resume(&mut k2).unwrap();
        assert_eq!(restored, pids);
        for (pid, w) in pids.iter().zip(works) {
            assert_eq!(k2.process(*pid).unwrap().work_done, w);
        }
        // And they keep running.
        k2.run_for(30_000_000).unwrap();
        assert!(k2.process(pids[0]).unwrap().work_done > 0);
    }

    #[test]
    fn standby_to_ram_is_lost_on_power_down() {
        let (mut k, _pids) = populated_kernel();
        let storage = shared_storage(RamStore::new(1 << 30));
        let mut susp = SoftwareSuspend::new(storage.clone());
        susp.hibernate(&mut k, SuspendMode::ToRam).unwrap();
        storage.lock().on_power_down();
        drop(k);
        let mut k2 = Kernel::new(CostModel::circa_2005());
        assert!(
            susp.resume(&mut k2).is_err(),
            "standby image must not survive power-down"
        );
    }

    #[test]
    fn all_processes_frozen_during_hibernate() {
        let (mut k, pids) = populated_kernel();
        let storage = shared_storage(SwapStore::new(1 << 30));
        let mut susp = SoftwareSuspend::new(storage);
        susp.hibernate(&mut k, SuspendMode::ToDisk).unwrap();
        // After hibernate (before "power down") everything is frozen.
        let works: Vec<u64> = pids
            .iter()
            .map(|p| k.process(*p).unwrap().work_done)
            .collect();
        k.run_for(50_000_000).unwrap();
        for (pid, w) in pids.iter().zip(works) {
            assert_eq!(k.process(*pid).unwrap().work_done, w, "{pid} not frozen");
        }
    }
}
