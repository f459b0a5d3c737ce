//! The modelled user-level checkpoint library (Section 3 of the paper).
//!
//! Everything a user-level checkpointer knows about its process it must
//! learn through syscalls — `sbrk(0)` for the heap boundary, `lseek` per
//! descriptor for file offsets, `sigpending` for pending signals, a read of
//! `/proc/self/maps` for the memory layout (or, with an `LD_PRELOAD` shim,
//! mirrored tables built by interposing `open`/`dup`/`mmap` at run time).
//! Every one of those crossings is charged here, which is precisely why
//! the user-level rows lose the efficiency comparisons in the experiments.

use crate::capture::{capture_image, CaptureOptions};
use crate::report::CkptOutcome;
use crate::tracker::{Tracker, TrackerKind};
use crate::SharedStorage;
use ckpt_image::ImageKind;
use ckpt_storage::{prune_superseded, store_image_bytes};
use simos::module::UserAgent;
use simos::syscall::{Syscall, Whence};
use simos::trace::Phase;
use simos::types::{Pid, SimError, SimResult};
use simos::Kernel;
use std::any::Any;

/// Configuration of a user-level checkpoint agent.
#[derive(Debug, Clone)]
pub struct UserAgentConfig {
    /// Registry name (unique per kernel).
    pub name: String,
    /// Storage key prefix.
    pub job: String,
    /// User-level tracker (must not be a kernel/hardware kind).
    pub tracker: TrackerKind,
    /// Force a full image every N checkpoints (0 = first only).
    pub full_every: u64,
    /// Write-syscall chunk size for the image I/O loop.
    pub chunk: u64,
    /// Use LD_PRELOAD mirrors instead of parsing `/proc/self/maps`.
    pub use_mirrors: bool,
    pub node: u32,
}

impl UserAgentConfig {
    pub fn new(name: &str, job: &str) -> Self {
        UserAgentConfig {
            name: name.to_string(),
            job: job.to_string(),
            tracker: TrackerKind::FullOnly,
            full_every: 0,
            chunk: simos::kernel::USER_IO_CHUNK,
            use_mirrors: false,
            node: 0,
        }
    }
}

/// The agent: user-space checkpoint library code attached to one process.
pub struct UserCkptAgent {
    cfg: UserAgentConfig,
    storage: SharedStorage,
    tracker: Tracker,
    seq: u64,
    last_full_seq: u64,
    /// Completed checkpoints, newest last.
    pub outcomes: Vec<CkptOutcome>,
    /// Errors hit during asynchronous checkpoints (surfaced by mechanisms).
    pub errors: Vec<String>,
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
        let tracker = Tracker::new(cfg.tracker);
        UserCkptAgent {
            cfg,
            storage,
            tracker,
            seq: 0,
            last_full_seq: 0,
            outcomes: Vec::new(),
            errors: Vec::new(),
        }
    }

    pub fn seq(&self) -> u64 {
        self.seq
    }

    pub fn checkpoints_taken(&self) -> u64 {
        self.outcomes.len() as u64
    }

    /// The user-level state gather: one syscall per fact, exactly as the
    /// paper describes. Returns the number of crossings spent (already
    /// charged).
    fn gather_state(&self, k: &mut Kernel, pid: Pid) -> SimResult<u64> {
        let mut crossings = 0u64;
        // Heap boundary.
        let _ = k.do_syscall(pid, Syscall::Sbrk { delta: 0 });
        crossings += 1;
        // Pending signals.
        let _ = k.do_syscall(pid, Syscall::Sigpending);
        crossings += 1;
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
            crossings += 1;
        }
        // Memory layout: mirrors are free at checkpoint time (their cost
        // was paid at every interposed call); otherwise parse
        // /proc/self/maps — open + read + close plus the copy.
        if !self.cfg.use_mirrors {
            let listing_len = k
                .process(pid)
                .map(|p| p.mem.maps_listing().len() as u64)
                .unwrap_or(0);
            k.stats.syscalls += 3;
            let t = 3 * k.cost.syscall_round_trip() + k.cost.memcpy(listing_len);
            k.charge(t);
            crossings += 3;
        }
        Ok(crossings)
    }

    /// Perform one user-level checkpoint in the process's own context.
    pub fn perform_checkpoint(&mut self, k: &mut Kernel, pid: Pid) -> SimResult<CkptOutcome> {
        let t0 = k.now();
        let stats0 = k.stats.clone();
        let trace_before = k.trace.mechanism_total(&self.cfg.name);
        let next_seq = self.seq + 1;
        // The library runs in the application's own context (handler or
        // inserted call): the app is quiescent for free.
        k.faultpoint(&self.cfg.name, "freeze")?;
        k.trace
            .phase(&self.cfg.name, Phase::Freeze, pid.0, next_seq, t0, 0);
        self.gather_state(k, pid)?;
        let incremental_ok = self.tracker.kind().supports_incremental()
            && self.seq > 0
            && self.tracker.is_armed()
            && !(self.cfg.full_every > 0 && next_seq - self.last_full_seq >= self.cfg.full_every);
        let (opts, logical) = if incremental_ok {
            k.faultpoint(&self.cfg.name, "walk")?;
            let c = self.tracker.collect(k, pid)?;
            (
                {
                    let mut o = CaptureOptions::incremental(
                        &self.cfg.name,
                        next_seq,
                        self.seq,
                        c.pages.clone(),
                    );
                    o.node = self.cfg.node;
                    o
                },
                c.logical_dirty_bytes,
            )
        } else {
            let mut o = CaptureOptions::full(&self.cfg.name, next_seq);
            o.node = self.cfg.node;
            (o, 0)
        };
        // The syscall gather + tracker walk are the library's state walk.
        k.trace.phase(
            &self.cfg.name,
            Phase::Walk,
            pid.0,
            next_seq,
            k.now(),
            k.now() - t0,
        );
        let kind = opts.kind;
        // The library serializes its own state; the page copies charged by
        // capture_image stand in for the user-space copy loop.
        k.faultpoint(&self.cfg.name, "capture")?;
        let cap0 = k.now();
        let img = capture_image(k, pid, &opts)?;
        k.trace.phase(
            &self.cfg.name,
            Phase::Capture,
            pid.0,
            next_seq,
            k.now(),
            k.now() - cap0,
        );
        let pages_saved = img.page_count() as u64;
        let memory_bytes = img.memory_bytes();
        // Image I/O: write() loop in chunks — the user-level tax the
        // system-level mechanisms do not pay.
        k.faultpoint(&self.cfg.name, "compress")?;
        k.faultpoint(&self.cfg.name, "store")?;
        let encoded_len;
        let storage_ns;
        {
            // Encode off the storage lock and drop the captured image, so
            // only the encoding and the store's copy are live across the
            // commit.
            let bytes = ckpt_image::encode(&img);
            drop(img);
            let mut storage = self.storage.lock();
            let receipt =
                store_image_bytes(storage.as_mut(), &self.cfg.job, pid.0, next_seq, &bytes, &k.cost)
                    .map_err(|e| SimError::Usage(format!("user-level store failed: {e}")))?;
            encoded_len = receipt.bytes;
            storage_ns = receipt.time_ns;
            let label = storage.label();
            drop(storage);
            k.trace
                .storage(simos::trace::StorageOp::Store, &label, encoded_len, storage_ns);
        }
        let io0 = k.now();
        k.charge_user_io(encoded_len, self.cfg.chunk);
        k.trace.phase(
            &self.cfg.name,
            Phase::Compress,
            pid.0,
            next_seq,
            k.now(),
            k.now() - io0,
        );
        k.charge(storage_ns);
        k.trace.phase(
            &self.cfg.name,
            Phase::Store,
            pid.0,
            next_seq,
            k.now(),
            storage_ns,
        );
        self.seq = next_seq;
        if kind == ImageKind::Full {
            self.last_full_seq = next_seq;
            k.faultpoint(&self.cfg.name, "prune")?;
            let prune0 = k.now();
            let mut storage = self.storage.lock();
            // The receipt above vouches for the full image at `next_seq`.
            let _ = prune_superseded(storage.as_mut(), &self.cfg.job, pid.0, next_seq);
            drop(storage);
            k.trace.phase(
                &self.cfg.name,
                Phase::Prune,
                pid.0,
                next_seq,
                k.now(),
                k.now() - prune0,
            );
        }
        if self.tracker.kind().supports_incremental() {
            k.faultpoint(&self.cfg.name, "rearm")?;
            let arm0 = k.now();
            self.tracker.arm(k, pid)?;
            k.trace.phase(
                &self.cfg.name,
                Phase::Rearm,
                pid.0,
                next_seq,
                k.now(),
                k.now() - arm0,
            );
        }
        let total_ns = k.now() - t0;
        k.faultpoint(&self.cfg.name, "resume")?;
        k.trace
            .phase(&self.cfg.name, Phase::Resume, pid.0, next_seq, k.now(), 0);
        crate::mechanism::emit_phase_residual(
            k,
            &self.cfg.name,
            pid,
            next_seq,
            total_ns,
            trace_before,
        );
        let outcome = CkptOutcome {
            seq: next_seq,
            incremental: kind == ImageKind::Incremental,
            pages_saved,
            memory_bytes,
            logical_dirty_bytes: if kind == ImageKind::Full {
                memory_bytes
            } else {
                logical
            },
            encoded_bytes: encoded_len,
            total_ns,
            app_stall_ns: total_ns, // runs in the app's context
            storage_ns,
            events: k.stats.delta_since(&stats0),
        };
        self.outcomes.push(outcome.clone());
        Ok(outcome)
    }
}

impl UserAgent for UserCkptAgent {
    fn name(&self) -> &str {
        &self.cfg.name
    }

    fn user_checkpoint(&mut self, k: &mut Kernel, pid: Pid) {
        if let Err(e) = self.perform_checkpoint(k, pid) {
            self.errors.push(e.to_string());
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
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
        k.register_agent(Box::new(agent)).unwrap();
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
        k.with_agent_mut::<UserCkptAgent, _>("libckpt", |a, k| {
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
            k.register_agent(Box::new(agent)).unwrap();
            let s0 = k.stats.syscalls;
            k.with_agent_mut::<UserCkptAgent, _>("a", |a, k| {
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
            .with_agent_mut::<UserCkptAgent, _>("libckpt", |a, k| {
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
            .with_agent_mut::<UserCkptAgent, _>("libckpt", |a, k| {
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
