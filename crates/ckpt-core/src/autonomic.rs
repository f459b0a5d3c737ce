//! The autonomic checkpoint daemon — the paper's "direction forward"
//! realized: **automatic initiation at system level**, kernel-page
//! incremental tracking, remote stable storage, and a self-managing
//! checkpoint interval adjusted to the observed failure rate and
//! checkpoint cost (Young's formula via [`crate::policy::AdaptivePolicy`]).
//!
//! The daemon is a kernel module owning a `SCHED_FIFO` kernel thread and a
//! kernel timer: no application modification, no user-space manager, no
//! batch system — addressing both of the paper's complaints about
//! LSF-style user-level management (restricted applicability, centralized
//! scalability bottleneck). It also supports the two administrator flows
//! the paper calls out: *safe preemption* (checkpoint, then yield the node
//! to a higher-priority job) and *planned outage* (checkpoint and stop
//! everything before maintenance).

use crate::mechanism::{with_frozen, Engines, KernelCkptEngine, Then};
use crate::policy::AdaptivePolicy;
use crate::report::CkptOutcome;
use crate::tracker::TrackerKind;
use crate::SharedStorage;
use simos::module::{KernelModule, KthreadStatus};
use simos::sched::SchedPolicy;
use simos::timer::{TimerAction, TimerId};
use simos::types::{Errno, KtId, Pid, SimError, SimResult, SysResult};
use simos::Kernel;
use std::any::Any;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct AutonomicConfig {
    pub module_name: String,
    pub job: String,
    pub tracker: TrackerKind,
    /// Force a full image every N checkpoints.
    pub full_every: u64,
    /// Use the adaptive policy; otherwise keep `initial_interval_ns`.
    pub adaptive: bool,
    pub initial_interval_ns: u64,
    pub mtbf_prior_ns: u64,
    pub rt_prio: u8,
}

impl Default for AutonomicConfig {
    fn default() -> Self {
        AutonomicConfig {
            module_name: "autonomicd".into(),
            job: "autonomic".into(),
            tracker: TrackerKind::KernelPage,
            full_every: 8,
            adaptive: true,
            initial_interval_ns: 100_000_000, // 100 ms
            mtbf_prior_ns: 10_000_000_000,    // 10 s prior (sim scale)
            rt_prio: 90,
        }
    }
}

/// The daemon kernel module.
pub struct AutonomicDaemon {
    cfg: AutonomicConfig,
    /// One engine per registered process.
    engines: Engines,
    policy: AdaptivePolicy,
    kt: Option<KtId>,
    timer: Option<TimerId>,
    pub outcomes: Vec<(Pid, CkptOutcome)>,
    /// Interval chosen after each round (for experiments).
    pub intervals_used: Vec<u64>,
    pub rounds: u64,
    pub failures_noted: u64,
}

impl AutonomicDaemon {
    pub fn new(cfg: AutonomicConfig, storage: SharedStorage) -> Self {
        let policy = AdaptivePolicy::new(cfg.mtbf_prior_ns);
        let template = KernelCkptEngine::builder(&cfg.module_name, &cfg.job, storage, cfg.tracker)
            .full_every(cfg.full_every)
            .build();
        AutonomicDaemon {
            cfg,
            engines: Engines::new(template),
            policy,
            kt: None,
            timer: None,
            outcomes: Vec::new(),
            intervals_used: Vec::new(),
            rounds: 0,
            failures_noted: 0,
        }
    }

    /// Register a process for autonomous checkpointing.
    pub fn register(&mut self, pid: Pid) {
        self.engines.start(pid);
    }

    pub fn registered(&self) -> Vec<u32> {
        self.engines.pids()
    }

    /// Feed an observed failure into the policy (called by the cluster
    /// layer's failure detector).
    pub fn note_failure(&mut self, at_ns: u64) {
        self.policy.note_failure(at_ns);
        self.failures_noted += 1;
    }

    fn current_interval(&self, now: u64) -> u64 {
        if self.cfg.adaptive {
            self.policy
                .current_interval(now)
                .clamp(1_000_000, self.cfg.initial_interval_ns.max(1_000_000) * 100)
        } else {
            self.cfg.initial_interval_ns
        }
    }

    fn arm_timer(&mut self, k: &mut Kernel) {
        if let Some(t) = self.timer.take() {
            k.timers.cancel(t);
        }
        let interval = if self.rounds == 0 {
            self.cfg.initial_interval_ns
        } else {
            self.current_interval(k.now())
        };
        self.intervals_used.push(interval);
        self.timer = Some(k.timers.arm(
            k.now() + interval,
            None,
            TimerAction::ModuleEvent {
                module: self.cfg.module_name.clone(),
                tag: 0,
            },
            None,
        ));
    }

    /// Checkpoint one registered process right now (kernel context).
    /// Public entry point for external initiators (batch managers, safe
    /// preemption).
    pub fn checkpoint_now(&mut self, k: &mut Kernel, pid: Pid) -> SimResult<CkptOutcome> {
        self.checkpoint_one(k, pid)
    }

    fn checkpoint_one(&mut self, k: &mut Kernel, pid: Pid) -> SimResult<CkptOutcome> {
        let engine = self
            .engines
            .get_mut(pid)
            .ok_or_else(|| SimError::Usage(format!("{pid} not registered")))?;
        // Respect an existing freeze (safe preemption / planned outage):
        // checkpoint in place and leave the process frozen afterwards.
        let already_frozen = k.process(pid).is_some_and(|p| p.frozen_for_ckpt);
        let to_stop: &[Pid] = if already_frozen { &[] } else { &[pid] };
        let outcome = with_frozen(k, to_stop, Then::Resume, |k| {
            engine.checkpoint_in_kernel(k, pid)
        })?;
        self.policy.note_checkpoint_cost(outcome.total_ns);
        self.outcomes.push((pid, outcome.clone()));
        Ok(outcome)
    }
}

impl KernelModule for AutonomicDaemon {
    fn name(&self) -> &str {
        &self.cfg.module_name
    }

    fn on_load(&mut self, k: &mut Kernel) {
        let name = self.cfg.module_name.clone();
        self.kt = Some(k.spawn_kthread(
            &format!("{name}/kthread"),
            &name,
            SchedPolicy::Fifo {
                rt_prio: self.cfg.rt_prio,
            },
        ));
        let _ = k.fs.register_proc(&format!("/proc/{name}"), &name, "ctl");
        self.arm_timer(k);
    }

    fn on_unload(&mut self, k: &mut Kernel) {
        if let Some(t) = self.timer.take() {
            k.timers.cancel(t);
        }
        let _ = k.fs.unlink(&format!("/proc/{}", self.cfg.module_name));
    }

    fn timer_event(&mut self, k: &mut Kernel, _tag: u64) {
        if let Some(kt) = self.kt {
            let _ = k.wake_kthread(kt);
        }
    }

    fn proc_write(&mut self, _k: &mut Kernel, _pid: Pid, _tag: &str, data: &[u8]) -> SysResult {
        let text = String::from_utf8_lossy(data);
        let pid: u32 = text.trim().parse().map_err(|_| Errno::EINVAL)?;
        self.register(Pid(pid));
        Ok(data.len() as u64)
    }

    fn proc_read(&mut self, k: &mut Kernel, _pid: Pid, _tag: &str) -> Result<Vec<u8>, Errno> {
        let mut out = format!(
            "rounds={} checkpoints={} failures={} interval_ns={}\n",
            self.rounds,
            self.outcomes.len(),
            self.failures_noted,
            self.current_interval(k.now())
        );
        for pid in self.engines.pids() {
            out.push_str(&format!("registered {pid}\n"));
        }
        Ok(out.into_bytes())
    }

    fn kthread_run(&mut self, k: &mut Kernel, _kt: KtId) -> KthreadStatus {
        // One checkpoint round over all live registered processes.
        for pid in self.engines.pids().into_iter().map(Pid) {
            match k.process(pid) {
                Some(p) if !p.has_exited() => {
                    let _ = self.checkpoint_one(k, pid);
                }
                _ => self.engines.remove(pid),
            }
        }
        self.rounds += 1;
        self.arm_timer(k);
        KthreadStatus::Sleep
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Install the daemon on a kernel.
pub fn install(
    k: &mut Kernel,
    cfg: AutonomicConfig,
    storage: SharedStorage,
) -> SimResult<String> {
    let name = cfg.module_name.clone();
    k.register_module(Box::new(AutonomicDaemon::new(cfg, storage)))?;
    Ok(name)
}

/// Register a process with a running daemon (kernel-side registration —
/// the system self-manages; no tool process involved).
pub fn register(k: &mut Kernel, daemon: &str, pid: Pid) -> SimResult<()> {
    k.with_module_mut::<AutonomicDaemon, _>(daemon, |d, _| d.register(pid))
        .ok_or_else(|| SimError::Usage(format!("daemon {daemon} not loaded")))
}

/// *Safe preemption*: checkpoint `pid` immediately and leave it frozen so
/// a higher-priority job can take the node. Undo with [`resume_preempted`].
pub fn safe_preempt(k: &mut Kernel, daemon: &str, pid: Pid) -> SimResult<CkptOutcome> {
    let out = k
        .with_module_mut::<AutonomicDaemon, _>(daemon, |d, k| d.checkpoint_one(k, pid))
        .ok_or_else(|| SimError::Usage(format!("daemon {daemon} not loaded")))??;
    k.freeze_process(pid)?;
    Ok(out)
}

/// Resume a safely-preempted process.
pub fn resume_preempted(k: &mut Kernel, pid: Pid) -> SimResult<()> {
    k.thaw_process(pid)
}

/// *Planned outage*: checkpoint every registered process and leave them
/// all frozen for maintenance.
pub fn planned_outage(k: &mut Kernel, daemon: &str) -> SimResult<Vec<CkptOutcome>> {
    let pids = k
        .with_module_mut::<AutonomicDaemon, _>(daemon, |d, _| d.registered())
        .ok_or_else(|| SimError::Usage(format!("daemon {daemon} not loaded")))?;
    let mut outs = Vec::new();
    for pid_raw in pids {
        outs.push(safe_preempt(k, daemon, Pid(pid_raw))?);
    }
    Ok(outs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shared_storage;
    use ckpt_storage::{RemoteServer, RemoteStore};
    use simos::apps::{AppParams, NativeKind};
    use simos::cost::CostModel;

    fn setup() -> (Kernel, Pid, String) {
        let mut k = Kernel::new(CostModel::circa_2005());
        let mut params = AppParams::small();
        params.total_steps = u64::MAX;
        let pid = k.spawn_native(NativeKind::SparseRandom, params).unwrap();
        let storage = shared_storage(RemoteStore::new(RemoteServer::new(1 << 32)));
        let cfg = AutonomicConfig {
            initial_interval_ns: 20_000_000,
            ..Default::default()
        };
        let name = install(&mut k, cfg, storage).unwrap();
        register(&mut k, &name, pid).unwrap();
        (k, pid, name)
    }

    #[test]
    fn daemon_checkpoints_periodically_without_any_tool() {
        let (mut k, _pid, name) = setup();
        k.run_for(500_000_000).unwrap();
        let n = k
            .with_module_mut::<AutonomicDaemon, _>(&name, |d, _| d.outcomes.len())
            .unwrap();
        assert!(n >= 3, "expected ≥3 autonomous checkpoints, got {n}");
        // Fully transparent: the app never made a checkpoint-related
        // syscall; incremental after the first.
        let incr = k
            .with_module_mut::<AutonomicDaemon, _>(&name, |d, _| {
                d.outcomes.iter().skip(1).all(|(_, o)| o.incremental)
            })
            .unwrap();
        assert!(incr);
    }

    #[test]
    fn interval_adapts_to_failures() {
        let (mut k, _pid, name) = setup();
        k.run_for(200_000_000).unwrap();
        let relaxed = k
            .with_module_mut::<AutonomicDaemon, _>(&name, |d, k| d.current_interval(k.now()))
            .unwrap();
        // Report a burst of failures 50 ms apart.
        let now = k.now();
        k.with_module_mut::<AutonomicDaemon, _>(&name, |d, _| {
            for i in 1..=5u64 {
                d.note_failure(now + i * 50_000_000);
            }
        });
        let tight = k
            .with_module_mut::<AutonomicDaemon, _>(&name, |d, k| d.current_interval(k.now()))
            .unwrap();
        assert!(
            tight < relaxed,
            "interval should tighten under failures: {relaxed} → {tight}"
        );
    }

    #[test]
    fn proc_interface_registers_and_reports() {
        let (mut k, pid, name) = setup();
        k.run_for(100_000_000).unwrap();
        let status = k
            .dispatch_module(&name, |m, k| m.proc_read(k, pid, "ctl"))
            .unwrap()
            .unwrap();
        let text = String::from_utf8(status).unwrap();
        assert!(text.contains("rounds="));
        assert!(text.contains(&format!("registered {}", pid.0)));
    }

    #[test]
    fn safe_preemption_checkpoints_then_freezes() {
        let (mut k, pid, name) = setup();
        k.run_for(50_000_000).unwrap();
        let out = safe_preempt(&mut k, &name, pid).unwrap();
        assert!(out.pages_saved > 0);
        let w = k.process(pid).unwrap().work_done;
        k.run_for(50_000_000).unwrap();
        assert_eq!(k.process(pid).unwrap().work_done, w, "frozen after preempt");
        resume_preempted(&mut k, pid).unwrap();
        k.run_for(50_000_000).unwrap();
        assert!(k.process(pid).unwrap().work_done > w);
    }

    #[test]
    fn planned_outage_freezes_everything_registered() {
        let (mut k, pid, name) = setup();
        let mut params = AppParams::small();
        params.total_steps = u64::MAX;
        let pid2 = k.spawn_native(NativeKind::DenseSweep, params).unwrap();
        register(&mut k, &name, pid2).unwrap();
        k.run_for(50_000_000).unwrap();
        let outs = planned_outage(&mut k, &name).unwrap();
        assert_eq!(outs.len(), 2);
        for p in [pid, pid2] {
            let w = k.process(p).unwrap().work_done;
            k.run_for(30_000_000).unwrap();
            assert_eq!(k.process(p).unwrap().work_done, w);
        }
    }

    #[test]
    fn dead_processes_are_dropped_from_rounds() {
        let (mut k, pid, name) = setup();
        k.run_for(60_000_000).unwrap();
        k.post_signal(pid, simos::signal::Sig::SIGKILL);
        k.run_for(200_000_000).unwrap();
        let regs = k
            .with_module_mut::<AutonomicDaemon, _>(&name, |d, _| d.registered())
            .unwrap();
        assert!(regs.is_empty(), "dead pid should be dropped");
    }
}
