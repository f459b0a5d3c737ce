//! The kernel: clock, processes, scheduler loop, syscall dispatch, signal
//! delivery, kernel threads, modules, timers, and the filesystem.
//!
//! This is where the paper's comparative claims become mechanically true:
//! every user/kernel crossing, context switch, address-space switch, page
//! fault and signal delivery passes through here and is charged from the
//! [`CostModel`].

use crate::apps::{self, AppParams, GuestMemIo, NativeKind};
use crate::cost::{CostModel, PAGE_SIZE};
use crate::fs::{FsError, FsNode, OpenFlags, SimFs};
use crate::kthread::{KtState, KThread};
use crate::mem::{AccessOutcome, AddressSpace, Prot, TrackMode, TEXT_BASE};
#[cfg(test)]
use crate::mem::DATA_BASE;
use crate::module::{KernelModule, KthreadStatus};
use crate::pcb::{FdTable, Pcb, ProcState, ProgramSpec, Regs};
use crate::relink::Relink;
use crate::sched::{RunQueue, SchedPolicy};
use crate::signal::{
    builtin_default_action, DefaultAction, Sig, SigAction, SignalState, UserHandlerKind,
};
use crate::stats::KernelStats;
use crate::syscall::{MaskHow, Syscall, Whence};
use crate::timer::{TimerAction, TimerId, TimerWheel};
use crate::faultpoint::FaultHandle;
use crate::trace::{KernelEvent, TlbFlushSite, TraceHandle};
use crate::types::{
    sysret_encode, Errno, FaultKind, Fd, KtId, OfdId, Pid, SimError, SimResult, SysResult, Task,
};
use crate::vm::{self, Instr, SIG_FRAME_BYTES};
use std::collections::BTreeMap;

/// What an open-file description points at.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum OfdKind {
    Regular,
    Device { module: String, minor: u32 },
    Proc { module: String, tag: String },
}

/// A kernel open-file description (shared between dup'ed descriptors).
#[derive(Debug, Clone)]
pub struct OpenFile {
    pub path: String,
    pub(crate) kind: OfdKind,
    pub offset: u64,
    pub flags: OpenFlags,
    pub(crate) refs: u32,
}

/// Default chunk size for modelled user-level I/O loops (64 KiB, the usual
/// stdio buffer scale of the era).
pub const USER_IO_CHUNK: u64 = 64 * 1024;

/// The simulated kernel.
pub struct Kernel {
    pub cost: CostModel,
    clock: u64,
    procs: BTreeMap<u32, Pcb>,
    next_pid: u32,
    pub runqueue: RunQueue,
    current: Option<Task>,
    last_task: Option<Task>,
    active_mm: Option<Pid>,
    ofds: BTreeMap<u32, OpenFile>,
    next_ofd: u32,
    pub fs: SimFs,
    modules: BTreeMap<String, Option<Box<dyn KernelModule>>>,
    ext_slots: BTreeMap<u32, String>,
    next_ext_slot: u32,
    kthreads: BTreeMap<u32, KThread>,
    next_kt: u32,
    pub timers: TimerWheel,
    /// Signals whose *default action* a module has claimed (e.g. SIGCKPT →
    /// kernel-level checkpoint, the CHPOX scheme).
    signal_claims: BTreeMap<u32, String>,
    pub stats: KernelStats,
    /// Structured event sink ([`crate::trace`]); the default no-op sink
    /// rejects events on one atomic load, so instrumentation stays free
    /// unless a recording handle is installed with [`Kernel::set_trace`].
    pub trace: TraceHandle,
    /// Fault-injection plan ([`crate::faultpoint`]); the default disabled
    /// handle makes every site a single relaxed atomic load, so the hooks
    /// cost nothing and charge no virtual time unless a recording or armed
    /// handle is installed with [`Kernel::set_faults`].
    pub faults: FaultHandle,
    next_tick_at: u64,
}

impl Kernel {
    pub fn new(cost: CostModel) -> Self {
        let tick = cost.tick_interval_ns;
        Kernel {
            cost,
            clock: 0,
            procs: BTreeMap::new(),
            next_pid: 1,
            runqueue: RunQueue::new(),
            current: None,
            last_task: None,
            active_mm: None,
            ofds: BTreeMap::new(),
            next_ofd: 1,
            fs: SimFs::new(),
            modules: BTreeMap::new(),
            ext_slots: BTreeMap::new(),
            next_ext_slot: 0,
            kthreads: BTreeMap::new(),
            next_kt: 1,
            timers: TimerWheel::new(),
            signal_claims: BTreeMap::new(),
            stats: KernelStats::default(),
            trace: TraceHandle::disabled(),
            faults: FaultHandle::disabled(),
            next_tick_at: tick,
        }
    }

    /// A structural copy of the whole machine: clock, every process with its
    /// address space and soft TLB, the run queue, open files, the
    /// filesystem, timers, statistics, and every loaded module with the
    /// extension-syscall slots and claimed signals that lead to it. Run
    /// under the same schedule, the copy is indistinguishable from a kernel
    /// built anew and driven to the same instant, and nothing it
    /// does afterwards reaches the original. It consults
    /// [`Relink::faults`]; the trace handle is the original's (a shared
    /// sink): install another with [`Kernel::set_trace`].
    ///
    /// Each module forks itself ([`KernelModule::fork`]) through `relink`,
    /// so one that shares a store with the mechanism driving it still does
    /// in the fork, once the mechanism is forked through the same map. A
    /// module that does not fork, or one detached for a call in progress,
    /// refuses with [`SimError::WorldNotForkable`].
    pub fn fork_world(&self, relink: &mut Relink) -> SimResult<Kernel> {
        // Exhaustive on purpose: a field added to `Kernel` fails to compile
        // here until someone decides how a fork carries it.
        let Kernel {
            cost,
            clock,
            procs,
            next_pid,
            runqueue,
            current,
            last_task,
            active_mm,
            ofds,
            next_ofd,
            fs,
            modules,
            ext_slots,
            next_ext_slot,
            kthreads,
            next_kt,
            timers,
            signal_claims,
            stats,
            trace,
            faults: _,
            next_tick_at,
        } = self;
        let modules = modules
            .iter()
            .map(|(name, slot)| {
                let module = slot.as_ref().ok_or_else(|| SimError::WorldNotForkable {
                    holder: format!("module {name}, mid-call"),
                })?;
                Ok((name.clone(), Some(module.fork(relink)?)))
            })
            .collect::<SimResult<_>>()?;
        Ok(Kernel {
            cost: cost.clone(),
            clock: *clock,
            procs: procs.clone(),
            next_pid: *next_pid,
            runqueue: runqueue.clone(),
            current: *current,
            last_task: *last_task,
            active_mm: *active_mm,
            ofds: ofds.clone(),
            next_ofd: *next_ofd,
            fs: fs.clone(),
            modules,
            ext_slots: ext_slots.clone(),
            next_ext_slot: *next_ext_slot,
            kthreads: kthreads.clone(),
            next_kt: *next_kt,
            timers: timers.clone(),
            signal_claims: signal_claims.clone(),
            stats: stats.clone(),
            trace: trace.clone(),
            faults: relink.faults().clone(),
            next_tick_at: *next_tick_at,
        })
    }

    /// Install a trace sink (usually [`TraceHandle::recording`]). The same
    /// handle may be shared with storage backends and other kernels to
    /// collect one cluster-wide trace.
    pub fn set_trace(&mut self, trace: TraceHandle) {
        self.trace = trace;
    }

    /// Install a fault-injection handle (usually [`FaultHandle::recording`]
    /// or [`FaultHandle::armed`]). Share the same handle with the storage
    /// backends (via `FaultInjectStore`) and the restart kernel so one plan
    /// covers checkpoint, media events, and restart.
    pub fn set_faults(&mut self, faults: FaultHandle) {
        self.faults = faults;
    }

    /// A mechanism-phase fault-injection site (`mech/<mechanism>/<point>`).
    /// Free when injection is disabled: one relaxed atomic load, no
    /// allocation, no virtual-time charge. Returns
    /// [`SimError::InjectedFault`] when the armed fault fires here; a
    /// fail-stop additionally marks the node crashed so the scheduler loop
    /// refuses to run until the driver models repair.
    pub fn faultpoint(&mut self, mechanism: &str, point: &str) -> SimResult<()> {
        if self.faults.is_off() {
            return Ok(());
        }
        let base = format!("mech/{mechanism}/{point}");
        match self.faults.check(&base, 0) {
            None => Ok(()),
            Some(_) => Err(SimError::InjectedFault {
                site: self.faults.fired().unwrap_or(base),
            }),
        }
    }

    // ------------------------------------------------------------------
    // Time.
    // ------------------------------------------------------------------

    /// Current virtual time (ns).
    pub fn now(&self) -> u64 {
        self.clock
    }

    /// The instant `ns` from now. A delay is guest- or image-chosen, so a
    /// deadline past the end of virtual time saturates: it never fires,
    /// instead of wrapping into the past.
    pub fn deadline_in(&self, ns: u64) -> u64 {
        self.clock.saturating_add(ns)
    }

    /// Charge kernel-mode time.
    pub fn charge(&mut self, ns: u64) {
        self.clock += ns;
        self.stats.kernel_ns += ns;
    }

    /// Charge user-mode time.
    pub fn charge_user(&mut self, ns: u64) {
        self.clock += ns;
        self.stats.user_ns += ns;
    }

    /// Charge the cost of a user-level I/O loop moving `bytes` through
    /// `write`/`read` syscalls in `chunk`-sized pieces (crossings + copy).
    /// Used by modelled user-level checkpoint libraries.
    pub fn charge_user_io(&mut self, bytes: u64, chunk: u64) {
        let calls = bytes.div_ceil(chunk.max(1)).max(1);
        self.stats.syscalls += calls;
        let t = calls * self.cost.syscall_round_trip() + self.cost.memcpy(bytes);
        self.charge(t);
    }

    // ------------------------------------------------------------------
    // Process lifecycle.
    // ------------------------------------------------------------------

    fn alloc_pid(&mut self) -> Pid {
        loop {
            let pid = self.next_pid;
            self.next_pid = self.next_pid.wrapping_add(1).max(1);
            if !self.procs.contains_key(&pid) {
                return Pid(pid);
            }
        }
    }

    /// Spawn a native-app process (see [`crate::apps`]).
    pub fn spawn_native(&mut self, kind: NativeKind, params: AppParams) -> SimResult<Pid> {
        let data_bytes = PAGE_SIZE + params.mem_bytes + PAGE_SIZE;
        let mem = AddressSpace::new(PAGE_SIZE, data_bytes);
        let pid = self.alloc_pid();
        let pcb = Pcb {
            pid,
            ppid: Pid(0),
            state: ProcState::Ready,
            policy: SchedPolicy::Other { nice: 0 },
            regs: Regs::default(),
            mem,
            fds: FdTable::new(),
            sig: SignalState::new(),
            program: ProgramSpec::Native {
                kind,
                params: params.clone(),
            },
            user_rt: crate::userrt::UserRuntime::new(),
            cpu_ns: 0,
            start_ns: self.clock,
            work_done: 0,
            frozen_for_ckpt: false,
            cow_pending: Default::default(),
        };
        self.procs.insert(pid.0, pcb);
        // Initialize app state in guest memory (charged as one bulk copy
        // for the kinds that pre-fill their arrays).
        {
            let mut io = KernelMemIo::new(self, pid);
            apps::init(kind, &params, &mut io);
            io.finish()?;
        }
        if matches!(kind, NativeKind::ReadMostly | NativeKind::Stencil2D) {
            let t = self.cost.memcpy(params.mem_bytes);
            self.charge_user(t);
        }
        self.runqueue
            .enqueue(Task::Process(pid), SchedPolicy::Other { nice: 0 });
        Ok(pid)
    }

    /// Spawn a VM-program process.
    pub fn spawn_vm(&mut self, text: Vec<u32>, name: &str) -> SimResult<Pid> {
        if text.is_empty() {
            return Err(SimError::Usage("empty VM text".into()));
        }
        let mem = AddressSpace::new((text.len() as u64) * 4, 4 * PAGE_SIZE);
        let pid = self.alloc_pid();
        let mut regs = Regs {
            pc: TEXT_BASE,
            ..Regs::default()
        };
        regs.gpr[crate::asm::SP as usize] = crate::mem::STACK_TOP - 64;
        let pcb = Pcb {
            pid,
            ppid: Pid(0),
            state: ProcState::Ready,
            policy: SchedPolicy::Other { nice: 0 },
            regs,
            mem,
            fds: FdTable::new(),
            sig: SignalState::new(),
            program: ProgramSpec::Vm {
                text,
                name: name.to_string(),
            },
            user_rt: crate::userrt::UserRuntime::new(),
            cpu_ns: 0,
            start_ns: self.clock,
            work_done: 0,
            frozen_for_ckpt: false,
            cow_pending: Default::default(),
        };
        self.procs.insert(pid.0, pcb);
        self.runqueue
            .enqueue(Task::Process(pid), SchedPolicy::Other { nice: 0 });
        Ok(pid)
    }

    /// Insert a fully-constructed PCB (used by restart). Fails with
    /// `Usage` if the pid is already taken — the resource-conflict case pod
    /// virtualization exists to solve.
    pub fn adopt_process(&mut self, pcb: Pcb) -> SimResult<Pid> {
        let pid = pcb.pid;
        if self.procs.contains_key(&pid.0) {
            return Err(SimError::Usage(format!(
                "pid {pid} already exists on this kernel"
            )));
        }
        let policy = pcb.policy;
        let runnable = pcb.is_runnable();
        // Bump reference counts for restored descriptors.
        for (_, e) in pcb.fds.iter() {
            if let Some(ofd) = self.ofds.get_mut(&e.ofd.0) {
                ofd.refs += 1;
            }
        }
        self.procs.insert(pid.0, pcb);
        if runnable {
            self.runqueue.enqueue(Task::Process(pid), policy);
        }
        Ok(pid)
    }

    /// A pid guaranteed to be free right now.
    pub fn fresh_pid(&mut self) -> Pid {
        self.alloc_pid()
    }

    pub fn process(&self, pid: Pid) -> Option<&Pcb> {
        self.procs.get(&pid.0)
    }

    pub fn process_mut(&mut self, pid: Pid) -> Option<&mut Pcb> {
        self.procs.get_mut(&pid.0)
    }

    pub fn pids(&self) -> Vec<Pid> {
        self.procs.keys().map(|p| Pid(*p)).collect()
    }

    /// Remove a zombie from the table (mirrors `wait` reaping).
    pub fn reap(&mut self, pid: Pid) -> SimResult<i32> {
        match self.procs.get(&pid.0) {
            Some(p) if p.has_exited() => {
                let code = p.exit_code().unwrap_or(-1);
                self.procs.remove(&pid.0);
                Ok(code)
            }
            Some(_) => Err(SimError::Usage(format!("{pid} has not exited"))),
            None => Err(SimError::NoSuchProcess(pid)),
        }
    }

    fn exit_process(&mut self, pid: Pid, code: i32) {
        let fds: Vec<OfdId> = match self.procs.get(&pid.0) {
            Some(p) => p.fds.iter().map(|(_, e)| e.ofd).collect(),
            None => return,
        };
        for ofd in fds {
            self.ofd_decref(ofd);
        }
        self.timers.cancel_owned(pid);
        self.runqueue.dequeue(Task::Process(pid));
        let ppid = {
            let p = self.procs.get_mut(&pid.0).expect("checked above");
            p.state = ProcState::Zombie { code };
            p.mem.track = TrackMode::Off;
            p.ppid
        };
        if self.procs.contains_key(&ppid.0) {
            self.post_signal(ppid, Sig::SIGCHLD);
        }
    }

    /// Remove a process from the runqueue for checkpointing (the paper's
    /// "mechanism to stop the application … like removing the application
    /// from its runqueue list").
    pub fn freeze_process(&mut self, pid: Pid) -> SimResult<()> {
        let p = self
            .procs
            .get_mut(&pid.0)
            .ok_or(SimError::NoSuchProcess(pid))?;
        if p.has_exited() {
            return Err(SimError::Usage(format!("{pid} already exited")));
        }
        p.frozen_for_ckpt = true;
        self.runqueue.dequeue(Task::Process(pid));
        self.trace.kernel(KernelEvent::Freeze, self.clock, 0);
        Ok(())
    }

    /// Undo [`Kernel::freeze_process`].
    pub fn thaw_process(&mut self, pid: Pid) -> SimResult<()> {
        let (policy, runnable) = {
            let p = self
                .procs
                .get_mut(&pid.0)
                .ok_or(SimError::NoSuchProcess(pid))?;
            p.frozen_for_ckpt = false;
            (p.policy, p.is_runnable())
        };
        if runnable {
            self.runqueue.enqueue(Task::Process(pid), policy);
        }
        self.trace.kernel(KernelEvent::Thaw, self.clock, 0);
        Ok(())
    }

    /// Fork `parent`: the child is an exact copy with a fresh pid. Charges
    /// the fork cost and arms COW accounting on the parent. The child
    /// starts **stopped** (our only callers are checkpoint mechanisms and
    /// VM `fork`, which re-readies it explicitly).
    pub fn fork_process(&mut self, parent: Pid) -> SimResult<Pid> {
        let child_pid = self.alloc_pid();
        let (cost, child) = {
            let p = self
                .procs
                .get(&parent.0)
                .ok_or(SimError::NoSuchProcess(parent))?;
            let resident = p.mem.resident_count() as u64;
            let cost = self.cost.fork_base_ns + resident * self.cost.fork_per_page_ns;
            let mut child = p.clone();
            child.pid = child_pid;
            child.ppid = parent;
            child.state = ProcState::Stopped;
            child.frozen_for_ckpt = false;
            child.cow_pending.clear();
            child.cpu_ns = 0;
            child.start_ns = self.clock;
            (cost, child)
        };
        self.charge(cost);
        self.stats.forks += 1;
        self.trace.kernel(KernelEvent::Fork, self.clock, cost);
        // Arm COW accounting on the parent.
        {
            let p = self.procs.get_mut(&parent.0).expect("parent exists");
            p.cow_pending = p.mem.resident_pages().collect();
        }
        for (_, e) in child.fds.iter() {
            if let Some(ofd) = self.ofds.get_mut(&e.ofd.0) {
                ofd.refs += 1;
            }
        }
        self.procs.insert(child_pid.0, child);
        Ok(child_pid)
    }

    /// Drop COW accounting armed by a fork (called when the forked copy has
    /// been saved and discarded).
    pub fn end_cow(&mut self, parent: Pid) {
        if let Some(p) = self.procs.get_mut(&parent.0) {
            p.cow_pending.clear();
        }
    }

    // ------------------------------------------------------------------
    // Modules, extension syscalls, kernel threads.
    // ------------------------------------------------------------------

    /// Register a kernel module (loadable or static) and run its
    /// `on_load` hook.
    pub fn register_module(&mut self, module: Box<dyn KernelModule>) -> SimResult<()> {
        let name = module.name().to_string();
        if self.modules.contains_key(&name) {
            return Err(SimError::Usage(format!("module {name} already loaded")));
        }
        self.modules.insert(name.clone(), Some(module));
        self.dispatch_module(&name, |m, k| m.on_load(k));
        Ok(())
    }

    /// Unload a loadable module (static-kernel extensions refuse).
    pub fn unload_module(&mut self, name: &str) -> SimResult<()> {
        let loadable = self
            .modules
            .get(name)
            .and_then(|s| s.as_ref().map(|m| m.is_loadable()))
            .ok_or_else(|| SimError::Usage(format!("module {name} not loaded")))?;
        if !loadable {
            return Err(SimError::Usage(format!(
                "{name} is in the static kernel and cannot be unloaded"
            )));
        }
        self.dispatch_module(name, |m, k| m.on_unload(k));
        self.modules.remove(name);
        self.ext_slots.retain(|_, m| m != name);
        self.signal_claims.retain(|_, m| m != name);
        self.kthreads.retain(|_, kt| kt.module != name);
        Ok(())
    }

    pub fn module_loaded(&self, name: &str) -> bool {
        self.modules.contains_key(name)
    }

    /// Dispatch a closure against a module with the module temporarily
    /// detached from the registry (so it can receive `&mut Kernel`).
    pub fn dispatch_module<R>(
        &mut self,
        name: &str,
        f: impl FnOnce(&mut dyn KernelModule, &mut Kernel) -> R,
    ) -> Option<R> {
        let mut m = self.modules.get_mut(name)?.take()?;
        let r = f(m.as_mut(), self);
        if let Some(slot) = self.modules.get_mut(name) {
            *slot = Some(m);
        }
        Some(r)
    }

    /// Downcasting module accessor for embedders.
    pub fn with_module_mut<T: KernelModule, R>(
        &mut self,
        name: &str,
        f: impl FnOnce(&mut T, &mut Kernel) -> R,
    ) -> Option<R> {
        let mut m = self.modules.get_mut(name)?.take()?;
        let r = m.as_any_mut().downcast_mut::<T>().map(|t| f(t, self));
        if let Some(slot) = self.modules.get_mut(name) {
            *slot = Some(m);
        }
        r
    }

    /// Read-only downcasting module accessor. Unlike
    /// [`Kernel::with_module_mut`] the module stays in the registry, so
    /// this works on `&Kernel` — mechanism `outcomes` run through here.
    pub fn with_module<T: KernelModule, R>(
        &self,
        name: &str,
        f: impl FnOnce(&T) -> R,
    ) -> Option<R> {
        let m = self.modules.get(name)?.as_ref()?;
        m.as_any().downcast_ref::<T>().map(f)
    }

    /// Allocate an extension-syscall slot owned by `module`.
    pub fn register_ext_syscall(&mut self, module: &str) -> u32 {
        let slot = self.next_ext_slot;
        self.next_ext_slot += 1;
        self.ext_slots.insert(slot, module.to_string());
        slot
    }

    /// Claim the default action of `sig` for a module: when a process
    /// receives `sig` with `SigAction::Default`, the module's
    /// `kernel_signal` hook runs in the process's kernel context.
    pub fn claim_signal_default(&mut self, sig: Sig, module: &str) {
        self.signal_claims.insert(sig.0, module.to_string());
    }

    /// Create a kernel thread owned by `module`.
    pub fn spawn_kthread(&mut self, module: &str, policy: SchedPolicy) -> KtId {
        let id = KtId(self.next_kt);
        self.next_kt += 1;
        self.kthreads
            .insert(id.0, KThread::new(id, module, policy));
        id
    }

    /// Wake a kernel thread (enqueue it).
    pub fn wake_kthread(&mut self, kt: KtId) -> SimResult<()> {
        let t = self
            .kthreads
            .get_mut(&kt.0)
            .ok_or(SimError::NoSuchKThread(kt))?;
        if t.state == KtState::Dead {
            return Err(SimError::NoSuchKThread(kt));
        }
        t.state = KtState::Ready;
        t.wakeups += 1;
        let policy = t.policy;
        self.runqueue.enqueue(Task::KThread(kt), policy);
        Ok(())
    }

    pub fn kthread(&self, kt: KtId) -> Option<&KThread> {
        self.kthreads.get(&kt.0)
    }

    /// A kernel thread needs `pid`'s address space. Charges the
    /// address-space switch + TLB penalty iff the active space differs —
    /// the paper's kernel-thread cost (Section 4.1).
    pub fn kthread_attach_mm(&mut self, pid: Pid) -> SimResult<()> {
        if !self.procs.contains_key(&pid.0) {
            return Err(SimError::NoSuchProcess(pid));
        }
        if self.active_mm != Some(pid) {
            let t = self.cost.mm_switch();
            self.charge(t);
            self.stats.mm_switches += 1;
            self.trace.kernel(KernelEvent::MmSwitch, self.clock, t);
            self.trace.kernel(KernelEvent::TlbFlush, self.clock, 0);
            // The software TLB mirrors the hardware one it models: the
            // incoming space starts translation-cold after a switch.
            if let Some(p) = self.procs.get_mut(&pid.0) {
                p.mem.tlb_flush();
            }
            self.trace.soft_tlb_flush(TlbFlushSite::MmSwitch);
            self.active_mm = Some(pid);
        }
        Ok(())
    }

    /// The address space currently loaded (for tests/experiments).
    pub fn active_mm(&self) -> Option<Pid> {
        self.active_mm
    }

    // ------------------------------------------------------------------
    // Signals.
    // ------------------------------------------------------------------

    /// Post a signal from kernel context (no syscall cost).
    pub fn post_signal(&mut self, pid: Pid, sig: Sig) {
        let Some(p) = self.procs.get_mut(&pid.0) else {
            return;
        };
        if p.has_exited() {
            return;
        }
        p.sig.post(sig);
        // Interruptible sleep: any signal wakes a sleeper; SIGCONT/SIGKILL
        // wake the stopped.
        let wake = match p.state {
            ProcState::Sleeping { .. } => true,
            ProcState::Stopped => sig == Sig::SIGCONT || sig == Sig::SIGKILL,
            _ => false,
        };
        if wake && !p.frozen_for_ckpt {
            p.state = ProcState::Ready;
            if sig == Sig::SIGCONT {
                p.sig.pending.retain(|s| *s != Sig::SIGCONT && *s != Sig::SIGSTOP);
            }
            let policy = p.policy;
            self.runqueue.enqueue(Task::Process(pid), policy);
        }
    }

    /// Deliver pending unblocked signals at a kernel→user transition.
    /// Returns `false` if the process is no longer runnable afterwards.
    fn deliver_signals(&mut self, pid: Pid) -> SimResult<bool> {
        loop {
            let Some(p) = self.procs.get_mut(&pid.0) else {
                return Ok(false);
            };
            if !p.is_runnable() {
                return Ok(false);
            }
            let Some(sig) = p.sig.take_deliverable() else {
                return Ok(true);
            };
            let action = p.sig.action(sig).clone();
            match action {
                SigAction::Ignore => continue,
                SigAction::Handler {
                    kind,
                    uses_non_reentrant,
                } => {
                    self.stats.signals_delivered += 1;
                    let t = self.cost.signal_deliver_ns;
                    self.charge(t);
                    self.trace
                        .kernel(KernelEvent::SignalDelivered, self.clock, t);
                    let now = self.clock;
                    let p = self.procs.get_mut(&pid.0).expect("exists");
                    if uses_non_reentrant && p.sig.non_reentrant_depth > 0 {
                        p.sig
                            .note_hazard(sig, now, "handler uses non-reentrant libc inside malloc");
                    }
                    p.sig.in_handler += 1;
                    match kind {
                        UserHandlerKind::VmFunction(addr) => {
                            self.push_sig_frame(pid, addr)?;
                            // Guest handler code runs until SRET; stop
                            // delivering more signals for now.
                            return Ok(true);
                        }
                        UserHandlerKind::CkptLibCheckpoint => {
                            let p = self.procs.get_mut(&pid.0).expect("exists");
                            p.user_rt.handler_invocations += 1;
                            if let Some(agent) = p.user_rt.agent.clone() {
                                self.dispatch_module(&agent, |m, k| m.user_checkpoint(k, pid));
                            }
                            if let Some(p) = self.procs.get_mut(&pid.0) {
                                p.sig.in_handler = p.sig.in_handler.saturating_sub(1);
                            }
                        }
                        UserHandlerKind::DirtyTrackSegv | UserHandlerKind::CountOnly => {
                            let p = self.procs.get_mut(&pid.0).expect("exists");
                            p.user_rt.handler_invocations += 1;
                            p.sig.in_handler = p.sig.in_handler.saturating_sub(1);
                        }
                    }
                }
                SigAction::Default => {
                    // Module-claimed default?
                    if let Some(module) = self.signal_claims.get(&sig.0).cloned() {
                        let handled = self
                            .dispatch_module(&module, |m, k| m.kernel_signal(k, pid, sig))
                            .unwrap_or(false);
                        if handled {
                            self.stats.signals_defaulted += 1;
                            continue;
                        }
                    }
                    self.stats.signals_defaulted += 1;
                    match builtin_default_action(sig) {
                        DefaultAction::Ignore => continue,
                        DefaultAction::Stop => {
                            let p = self.procs.get_mut(&pid.0).expect("exists");
                            p.state = ProcState::Stopped;
                            self.runqueue.dequeue(Task::Process(pid));
                            return Ok(false);
                        }
                        DefaultAction::Terminate => {
                            self.exit_process(pid, 128 + sig.0 as i32);
                            return Ok(false);
                        }
                    }
                }
            }
        }
    }

    fn push_sig_frame(&mut self, pid: Pid, handler: u64) -> SimResult<()> {
        let (regs, sp) = {
            let p = self.procs.get(&pid.0).expect("exists");
            let sp = p.regs.gpr[crate::asm::SP as usize] - SIG_FRAME_BYTES;
            (p.regs.clone(), sp)
        };
        let mut frame = Vec::with_capacity(SIG_FRAME_BYTES as usize);
        frame.extend_from_slice(&regs.pc.to_le_bytes());
        for g in regs.gpr {
            frame.extend_from_slice(&g.to_le_bytes());
        }
        self.mem_write(pid, sp, &frame)?;
        let p = self.procs.get_mut(&pid.0).expect("exists");
        p.regs.gpr[crate::asm::SP as usize] = sp;
        p.regs.pc = handler;
        Ok(())
    }

    fn pop_sig_frame(&mut self, pid: Pid) -> SimResult<()> {
        let sp = {
            let p = self.procs.get(&pid.0).expect("exists");
            p.regs.gpr[crate::asm::SP as usize]
        };
        let mut frame = vec![0u8; SIG_FRAME_BYTES as usize];
        self.mem_read(pid, sp, &mut frame)?;
        let p = self.procs.get_mut(&pid.0).expect("exists");
        p.regs.pc = u64::from_le_bytes(frame[0..8].try_into().unwrap());
        for i in 0..16 {
            p.regs.gpr[i] =
                u64::from_le_bytes(frame[8 + i * 8..16 + i * 8].try_into().unwrap());
        }
        p.sig.in_handler = p.sig.in_handler.saturating_sub(1);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Guest memory access (protection + tracking + COW accounting).
    // ------------------------------------------------------------------

    /// Write guest memory on behalf of user-context execution.
    pub fn mem_write(&mut self, pid: Pid, addr: u64, bytes: &[u8]) -> SimResult<()> {
        if bytes.is_empty() {
            return Ok(());
        }
        loop {
            let p = self
                .procs
                .get_mut(&pid.0)
                .ok_or(SimError::NoSuchProcess(pid))?;
            match p.mem.check_write(addr, bytes.len() as u64) {
                AccessOutcome::Ok => {
                    // The check passed, so the range neither wraps nor
                    // leaves the layout: its end is computable.
                    let pages = addr / PAGE_SIZE..=(addr + bytes.len() as u64 - 1) / PAGE_SIZE;
                    // COW accounting after fork.
                    if !p.cow_pending.is_empty() {
                        let mut faults = 0;
                        for pn in pages.clone() {
                            if p.cow_pending.remove(&pn) {
                                faults += 1;
                            }
                        }
                        if faults > 0 {
                            self.stats.cow_faults += faults;
                            let t = faults * self.cost.cow_fault_ns;
                            self.charge(t);
                            for _ in 0..faults {
                                self.trace.kernel(
                                    KernelEvent::CowFault,
                                    self.clock,
                                    self.cost.cow_fault_ns,
                                );
                            }
                        }
                    }
                    let p = self.procs.get_mut(&pid.0).expect("exists");
                    // Fresh-page writes under page tracking are dirty by
                    // construction (they were not resident when tracking
                    // was armed).
                    if matches!(
                        p.mem.track,
                        TrackMode::KernelPage | TrackMode::UserSigsegv
                    ) {
                        for pn in pages {
                            if p.mem.page_data(pn).is_none() {
                                p.mem.note_fresh_dirty(pn);
                                if p.mem.track == TrackMode::UserSigsegv {
                                    p.user_rt.dirty_bitmap.insert(pn);
                                }
                            }
                        }
                    }
                    p.mem.write_unchecked(addr, bytes);
                    return Ok(());
                }
                AccessOutcome::Fault {
                    addr: faddr,
                    kind: FaultKind::WriteProtected,
                } => {
                    self.stats.page_faults += 1;
                    let t = self.cost.page_fault_trap_ns;
                    self.charge(t);
                    self.trace.kernel(KernelEvent::PageFault, self.clock, t);
                    let pn = faddr / PAGE_SIZE;
                    let track = self.procs.get(&pid.0).expect("exists").mem.track;
                    match track {
                        TrackMode::KernelPage => {
                            let resolved = self
                                .procs
                                .get_mut(&pid.0)
                                .expect("exists")
                                .mem
                                .resolve_tracked_fault(pn);
                            if resolved {
                                continue;
                            }
                            return self.fault_to_segv(pid, faddr, FaultKind::WriteProtected);
                        }
                        TrackMode::UserSigsegv => {
                            // SIGSEGV to the user tracking handler: signal
                            // delivery + handler records page + mprotect
                            // syscall + sigreturn.
                            let resolved = {
                                let p = self.procs.get_mut(&pid.0).expect("exists");
                                p.mem.resolve_tracked_fault(pn)
                            };
                            if resolved {
                                self.stats.signals_delivered += 1;
                                self.stats.syscalls += 2; // mprotect + sigreturn
                                let t = self.cost.signal_deliver_ns
                                    + 2 * self.cost.syscall_round_trip()
                                    + self.cost.mprotect_per_page_ns;
                                self.charge(t);
                                let p = self.procs.get_mut(&pid.0).expect("exists");
                                p.user_rt.dirty_bitmap.insert(pn);
                                p.user_rt.segv_tracked += 1;
                                continue;
                            }
                            return self.fault_to_segv(pid, faddr, FaultKind::WriteProtected);
                        }
                        _ => {
                            return self.fault_to_segv(pid, faddr, FaultKind::WriteProtected)
                        }
                    }
                }
                AccessOutcome::Fault { addr: faddr, kind } => {
                    self.stats.page_faults += 1;
                    let t = self.cost.page_fault_trap_ns;
                    self.charge(t);
                    self.trace.kernel(KernelEvent::PageFault, self.clock, t);
                    return self.fault_to_segv(pid, faddr, kind);
                }
            }
        }
    }

    /// Read guest memory on behalf of user-context execution.
    pub fn mem_read(&mut self, pid: Pid, addr: u64, out: &mut [u8]) -> SimResult<()> {
        if out.is_empty() {
            return Ok(());
        }
        let p = self
            .procs
            .get_mut(&pid.0)
            .ok_or(SimError::NoSuchProcess(pid))?;
        match p.mem.check_read(addr, out.len() as u64) {
            AccessOutcome::Ok => {
                p.mem.read_unchecked(addr, out);
                Ok(())
            }
            AccessOutcome::Fault { addr: faddr, kind } => {
                self.stats.page_faults += 1;
                let t = self.cost.page_fault_trap_ns;
                self.charge(t);
                self.trace.kernel(KernelEvent::PageFault, self.clock, t);
                self.fault_to_segv(pid, faddr, kind)
            }
        }
    }

    /// Load one guest word in user context — what a native step's `r64`
    /// and the VM's `Lw` both execute. An aligned word whose page the soft
    /// TLB already translates costs that one translation
    /// ([`AddressSpace::load_word`]); every other access is the checked
    /// [`Kernel::mem_read`], unchanged.
    pub(crate) fn mem_load_word(&mut self, pid: Pid, addr: u64) -> SimResult<u64> {
        if let Some(word) = self
            .procs
            .get_mut(&pid.0)
            .and_then(|p| p.mem.load_word(addr))
        {
            return Ok(word);
        }
        let mut buf = [0u8; 8];
        self.mem_read(pid, addr, &mut buf)?;
        Ok(u64::from_le_bytes(buf))
    }

    /// Store one guest word in user context (`w64`, `Sw`): the single
    /// translation of [`AddressSpace::store_word`] when no page of the
    /// process is still copy-on-write shared — a first write to one owes a
    /// COW fault — and the checked [`Kernel::mem_write`] otherwise.
    pub(crate) fn mem_store_word(&mut self, pid: Pid, addr: u64, val: u64) -> SimResult<()> {
        if let Some(p) = self.procs.get_mut(&pid.0) {
            if p.cow_pending.is_empty() && p.mem.store_word(addr, val) {
                return Ok(());
            }
        }
        self.mem_write(pid, addr, &val.to_le_bytes())
    }

    fn fault_to_segv(&mut self, pid: Pid, addr: u64, kind: FaultKind) -> SimResult<()> {
        self.post_signal(pid, Sig::SIGSEGV);
        Err(SimError::Fault { pid, addr, kind })
    }

    // ------------------------------------------------------------------
    // Syscall dispatch.
    // ------------------------------------------------------------------

    /// Execute a syscall on behalf of `pid`, charging the crossings.
    pub fn do_syscall(&mut self, pid: Pid, call: Syscall) -> SysResult {
        self.stats.syscalls += 1;
        let mut t = self.cost.syscall_round_trip();
        // LD_PRELOAD interposition tax + user-space mirroring.
        let interposes = self
            .procs
            .get(&pid.0)
            .map(|p| p.user_rt.interpose_active && call.is_interposable())
            .unwrap_or(false);
        if interposes {
            t += self.cost.interpose_ns;
            self.stats.interposed_syscalls += 1;
        }
        self.charge(t);
        self.trace.kernel(KernelEvent::SyscallEntry, self.clock, t);
        let ret = self.syscall_body(pid, &call, interposes);
        if matches!(call, Syscall::Ext { .. }) {
            self.stats.ext_syscalls += 1;
        }
        self.trace.kernel(KernelEvent::SyscallExit, self.clock, 0);
        ret
    }

    fn syscall_body(&mut self, pid: Pid, call: &Syscall, interposes: bool) -> SysResult {
        match call.clone() {
            Syscall::Exit { code } => {
                self.exit_process(pid, code);
                Ok(0)
            }
            Syscall::Getpid => Ok(pid.0 as u64),
            Syscall::Sbrk { delta } => {
                let p = self.procs.get_mut(&pid.0).ok_or(Errno::ESRCH)?;
                // POSIX semantics: return the *previous* break (so
                // `sbrk(n)` yields the base of the newly granted region,
                // and `sbrk(0)` reports the current break).
                let old = p.mem.brk();
                p.mem.sbrk(delta).map_err(|_| Errno::ENOMEM)?;
                Ok(old)
            }
            Syscall::Mmap { len, prot } => {
                let p = self.procs.get_mut(&pid.0).ok_or(Errno::ESRCH)?;
                let addr = p.mem.mmap(len, prot, "anon").map_err(|_| Errno::ENOMEM)?;
                if interposes {
                    p.user_rt.mirror_mmap(addr, len, "anon");
                }
                Ok(addr)
            }
            Syscall::Munmap { addr } => {
                let p = self.procs.get_mut(&pid.0).ok_or(Errno::ESRCH)?;
                p.mem.munmap(addr).map_err(|_| Errno::EINVAL)?;
                if interposes {
                    p.user_rt.mirror_munmap(addr);
                }
                Ok(0)
            }
            Syscall::Mprotect { addr, len, prot } => {
                let p = self.procs.get_mut(&pid.0).ok_or(Errno::ESRCH)?;
                let pages = p.mem.mprotect(addr, len, prot).map_err(|_| Errno::EINVAL)?;
                let t = pages * self.cost.mprotect_per_page_ns;
                self.charge(t);
                self.trace.soft_tlb_flush(TlbFlushSite::MprotectRearm);
                Ok(pages)
            }
            Syscall::Open { path, flags } => self.sys_open(pid, &path, flags, interposes),
            Syscall::Close { fd } => self.sys_close(pid, fd, interposes),
            Syscall::Read { fd, buf, len } => self.sys_read(pid, fd, buf, len),
            Syscall::Write { fd, buf, len } => self.sys_write(pid, fd, buf, len),
            Syscall::Lseek { fd, offset, whence } => self.sys_lseek(pid, fd, offset, whence),
            Syscall::Dup { fd } => {
                let entry = {
                    let p = self.procs.get(&pid.0).ok_or(Errno::ESRCH)?;
                    p.fds.get(fd).ok_or(Errno::EBADF)?
                };
                self.ofds
                    .get_mut(&entry.ofd.0)
                    .ok_or(Errno::EBADF)?
                    .refs += 1;
                let p = self.procs.get_mut(&pid.0).ok_or(Errno::ESRCH)?;
                let new = p.fds.alloc(entry.ofd);
                if interposes {
                    p.user_rt.mirror_dup(fd, new);
                }
                Ok(new.0 as u64)
            }
            Syscall::Kill { pid: target, sig } => {
                if !self.procs.contains_key(&target.0) {
                    return Err(Errno::ESRCH);
                }
                self.post_signal(target, sig);
                Ok(0)
            }
            Syscall::Sigaction { sig, action } => {
                let p = self.procs.get_mut(&pid.0).ok_or(Errno::ESRCH)?;
                p.sig.set_action(sig, action).map_err(|_| Errno::EINVAL)?;
                Ok(0)
            }
            Syscall::Sigprocmask { how, mask } => {
                let p = self.procs.get_mut(&pid.0).ok_or(Errno::ESRCH)?;
                let old = p.sig.mask;
                p.sig.mask = match how {
                    MaskHow::Block => old | mask,
                    MaskHow::Unblock => old & !mask,
                    MaskHow::Set => mask,
                };
                Ok(old)
            }
            Syscall::Sigpending => {
                let p = self.procs.get(&pid.0).ok_or(Errno::ESRCH)?;
                Ok(p.sig.pending_mask())
            }
            Syscall::Alarm { ns } => {
                self.rearm_alarm(pid, ns, None);
                Ok(0)
            }
            Syscall::Setitimer { interval_ns } => {
                self.rearm_alarm(pid, interval_ns, Some(interval_ns));
                Ok(0)
            }
            Syscall::Nanosleep { ns } => {
                let until = self.deadline_in(ns);
                let p = self.procs.get_mut(&pid.0).ok_or(Errno::ESRCH)?;
                p.state = ProcState::Sleeping { until };
                self.runqueue.dequeue(Task::Process(pid));
                Ok(0)
            }
            Syscall::SchedYield => {
                // Re-enqueueing is a no-op in our model; the slice ends.
                Ok(0)
            }
            Syscall::Fork => {
                let child = self.fork_process(pid).map_err(|_| Errno::EAGAIN)?;
                // Child resumes in user mode with r0 = 0.
                let c = self.procs.get_mut(&child.0).expect("just forked");
                c.regs.gpr[0] = 0;
                c.state = ProcState::Ready;
                let policy = c.policy;
                self.runqueue.enqueue(Task::Process(child), policy);
                Ok(child.0 as u64)
            }
            Syscall::Ioctl { fd, req, arg } => {
                let entry = {
                    let p = self.procs.get(&pid.0).ok_or(Errno::ESRCH)?;
                    p.fds.get(fd).ok_or(Errno::EBADF)?
                };
                let ofd = self.ofds.get(&entry.ofd.0).ok_or(Errno::EBADF)?;
                match ofd.kind.clone() {
                    OfdKind::Device { module, minor } => {
                        self.stats.ioctls += 1;
                        self.dispatch_module(&module, |m, k| m.ioctl(k, pid, minor, req, arg))
                            .unwrap_or(Err(Errno::ENOTTY))
                    }
                    _ => Err(Errno::ENOTTY),
                }
            }
            Syscall::SchedSetScheduler { pid: target, policy } => {
                let p = self.procs.get_mut(&target.0).ok_or(Errno::ESRCH)?;
                p.policy = policy;
                self.runqueue.set_policy(Task::Process(target), policy);
                Ok(0)
            }
            Syscall::Ext { slot, args } => {
                let module = self.ext_slots.get(&slot).cloned().ok_or(Errno::ENOSYS)?;
                self.dispatch_module(&module, |m, k| m.ext_syscall(k, pid, slot, args))
                    .unwrap_or(Err(Errno::ENOSYS))
            }
        }
    }

    /// `alarm` / `setitimer`: cancel `pid`'s pending SIGALRM timers, then
    /// arm a new one `ns` from now (none for 0), repeating every `period`.
    /// The deadline saturates like every guest-chosen delay.
    fn rearm_alarm(&mut self, pid: Pid, ns: u64, period: Option<u64>) {
        let old: Vec<TimerId> = self
            .timers
            .owned_by(pid)
            .into_iter()
            .filter(
                |t| matches!(t.action, TimerAction::SendSignal { sig, .. } if sig == Sig::SIGALRM),
            )
            .map(|t| t.id)
            .collect();
        for id in old {
            self.timers.cancel(id);
        }
        if ns > 0 {
            let at = self.deadline_in(ns);
            let alarm = TimerAction::SendSignal {
                pid,
                sig: Sig::SIGALRM,
            };
            self.timers.arm(at, period, alarm, Some(pid));
        }
    }

    fn sys_open(&mut self, pid: Pid, path: &str, flags: OpenFlags, interposes: bool) -> SysResult {
        let kind = match self.fs.get(path) {
            Some(FsNode::File { .. }) => {
                if flags.truncate {
                    self.fs.create_file(path).map_err(fs_errno)?;
                }
                OfdKind::Regular
            }
            Some(FsNode::Device { module, minor }) => OfdKind::Device {
                module: module.clone(),
                minor: *minor,
            },
            Some(FsNode::Proc { module, tag }) => OfdKind::Proc {
                module: module.clone(),
                tag: tag.clone(),
            },
            Some(FsNode::Dir) => return Err(Errno::EACCES),
            None => {
                if flags.create {
                    self.fs.create_file(path).map_err(fs_errno)?;
                    OfdKind::Regular
                } else {
                    return Err(Errno::ENOENT);
                }
            }
        };
        let id = OfdId(self.next_ofd);
        self.next_ofd += 1;
        self.ofds.insert(
            id.0,
            OpenFile {
                path: path.to_string(),
                kind,
                offset: 0,
                flags,
                refs: 1,
            },
        );
        let p = self.procs.get_mut(&pid.0).ok_or(Errno::ESRCH)?;
        let fd = p.fds.alloc(id);
        if interposes {
            p.user_rt.mirror_open(fd, path, flags.write);
        }
        Ok(fd.0 as u64)
    }

    fn sys_close(&mut self, pid: Pid, fd: Fd, interposes: bool) -> SysResult {
        let entry = {
            let p = self.procs.get_mut(&pid.0).ok_or(Errno::ESRCH)?;
            let e = p.fds.remove(fd).ok_or(Errno::EBADF)?;
            if interposes {
                p.user_rt.mirror_close(fd);
            }
            e
        };
        self.ofd_decref(entry.ofd);
        Ok(0)
    }

    fn ofd_decref(&mut self, id: OfdId) {
        if let Some(ofd) = self.ofds.get_mut(&id.0) {
            ofd.refs = ofd.refs.saturating_sub(1);
            if ofd.refs == 0 {
                self.ofds.remove(&id.0);
            }
        }
    }

    /// `EFAULT` unless the guest maps all of `[buf, buf + len)` — asked of
    /// a syscall's `(pointer, length)` pair before any host buffer is sized
    /// from `len`. Extent only: a page write-protected for tracking is
    /// mapped, and the copy that follows resolves it.
    fn guest_extent(&self, pid: Pid, buf: u64, len: u64) -> Result<(), Errno> {
        let p = self.procs.get(&pid.0).ok_or(Errno::ESRCH)?;
        if p.mem.maps(buf, len) {
            Ok(())
        } else {
            Err(Errno::EFAULT)
        }
    }

    fn sys_read(&mut self, pid: Pid, fd: Fd, buf: u64, len: u64) -> SysResult {
        let entry = {
            let p = self.procs.get(&pid.0).ok_or(Errno::ESRCH)?;
            p.fds.get(fd).ok_or(Errno::EBADF)?
        };
        let (path, kind, offset) = {
            let ofd = self.ofds.get(&entry.ofd.0).ok_or(Errno::EBADF)?;
            if !ofd.flags.read {
                return Err(Errno::EACCES);
            }
            (ofd.path.clone(), ofd.kind.clone(), ofd.offset)
        };
        self.guest_extent(pid, buf, len)?;
        let data: Vec<u8> = match kind {
            OfdKind::Regular => {
                read_window(self.fs.read_file(&path).map_err(fs_errno)?, offset, len)
            }
            OfdKind::Proc { module, tag } => {
                let full = self
                    .dispatch_module(&module, |m, k| m.proc_read(k, pid, &tag))
                    .unwrap_or(Err(Errno::ENOSYS))?;
                read_window(&full, offset, len)
            }
            OfdKind::Device { .. } => return Err(Errno::EINVAL),
        };
        let t = self.cost.memcpy(data.len() as u64);
        self.charge(t);
        self.mem_write(pid, buf, &data)
            .map_err(|_| Errno::EFAULT)?;
        if let Some(ofd) = self.ofds.get_mut(&entry.ofd.0) {
            ofd.offset += data.len() as u64;
        }
        Ok(data.len() as u64)
    }

    fn sys_write(&mut self, pid: Pid, fd: Fd, buf: u64, len: u64) -> SysResult {
        let entry = {
            let p = self.procs.get(&pid.0).ok_or(Errno::ESRCH)?;
            p.fds.get(fd).ok_or(Errno::EBADF)?
        };
        let (path, kind, offset, append) = {
            let ofd = self.ofds.get(&entry.ofd.0).ok_or(Errno::EBADF)?;
            if !ofd.flags.write {
                return Err(Errno::EACCES);
            }
            (
                ofd.path.clone(),
                ofd.kind.clone(),
                ofd.offset,
                ofd.flags.append,
            )
        };
        self.guest_extent(pid, buf, len)?;
        let mut data = vec![0u8; len as usize];
        self.mem_read(pid, buf, &mut data)
            .map_err(|_| Errno::EFAULT)?;
        let t = self.cost.memcpy(data.len() as u64);
        self.charge(t);
        match kind {
            OfdKind::Regular => {
                let off = if append {
                    self.fs.file_len(&path).map_err(fs_errno)?
                } else {
                    offset
                };
                let n = self.fs.write_at(&path, off, &data).map_err(fs_errno)?;
                if let Some(ofd) = self.ofds.get_mut(&entry.ofd.0) {
                    ofd.offset = off + n as u64;
                }
                Ok(n as u64)
            }
            OfdKind::Proc { module, tag } => self
                .dispatch_module(&module, |m, k| m.proc_write(k, pid, &tag, &data))
                .unwrap_or(Err(Errno::ENOSYS)),
            OfdKind::Device { .. } => Err(Errno::EINVAL),
        }
    }

    fn sys_lseek(&mut self, pid: Pid, fd: Fd, offset: i64, whence: Whence) -> SysResult {
        let entry = {
            let p = self.procs.get(&pid.0).ok_or(Errno::ESRCH)?;
            p.fds.get(fd).ok_or(Errno::EBADF)?
        };
        let (path, kind, cur) = {
            let ofd = self.ofds.get(&entry.ofd.0).ok_or(Errno::EBADF)?;
            (ofd.path.clone(), ofd.kind.clone(), ofd.offset)
        };
        if !matches!(kind, OfdKind::Regular) {
            return Err(Errno::EINVAL);
        }
        let base = match whence {
            Whence::Set => 0,
            Whence::Cur => cur,
            Whence::End => self.fs.file_len(&path).map_err(fs_errno)?,
        };
        // Any offset that is a non-negative `i64` is a position; whether a
        // write may land there is `SimFs::write_at`'s call.
        let new = i64::try_from(base)
            .ok()
            .and_then(|base| base.checked_add(offset))
            .and_then(|new| u64::try_from(new).ok())
            .ok_or(Errno::EINVAL)?;
        if let Some(ofd) = self.ofds.get_mut(&entry.ofd.0) {
            ofd.offset = new;
        }
        Ok(new)
    }

    /// Look up an open-file description (for checkpointers walking the fd
    /// table from kernel context).
    pub fn ofd(&self, id: OfdId) -> Option<&OpenFile> {
        self.ofds.get(&id.0)
    }

    /// Recreate an open-file description during restart; returns its id.
    pub fn restore_ofd(&mut self, path: &str, offset: u64, flags: OpenFlags) -> OfdId {
        let kind = match self.fs.get(path) {
            Some(FsNode::Device { module, minor }) => OfdKind::Device {
                module: module.clone(),
                minor: *minor,
            },
            Some(FsNode::Proc { module, tag }) => OfdKind::Proc {
                module: module.clone(),
                tag: tag.clone(),
            },
            _ => OfdKind::Regular,
        };
        if matches!(kind, OfdKind::Regular) && !self.fs.exists(path) {
            // Restore of a file that does not exist on this node: recreate
            // it empty (UCLiK-style file-content restoration is handled a
            // level up, by the checkpoint engine).
            let _ = self.fs.create_file(path);
        }
        let id = OfdId(self.next_ofd);
        self.next_ofd += 1;
        self.ofds.insert(
            id.0,
            OpenFile {
                path: path.to_string(),
                kind,
                offset,
                flags,
                refs: 0, // adopt_process bumps per descriptor
            },
        );
        id
    }

    // ------------------------------------------------------------------
    // The scheduler loop.
    // ------------------------------------------------------------------

    /// Run the machine for `ns` of virtual time.
    pub fn run_for(&mut self, ns: u64) -> SimResult<()> {
        let deadline = self.clock.saturating_add(ns);
        while self.clock < deadline {
            // An injected fail-stop kills the whole node: nothing runs
            // until the driver models repair (`FaultHandle::clear_crash`).
            if !self.faults.is_off() && self.faults.node_crashed() {
                return Err(SimError::InjectedFault {
                    site: self.faults.fired().unwrap_or_default(),
                });
            }
            self.fire_due_timers();
            self.wake_sleepers();
            let Some(task) = self.runqueue.pick_next() else {
                // Idle: jump to the next event.
                let mut next = deadline;
                if let Some(t) = self.timers.next_at() {
                    next = next.min(t.max(self.clock));
                }
                if let Some(w) = self.earliest_wakeup() {
                    next = next.min(w.max(self.clock));
                }
                next = next.min(self.next_tick_at.max(self.clock));
                if next > self.clock {
                    self.stats.idle_ns += next - self.clock;
                    self.clock = next;
                }
                self.advance_ticks();
                if next == deadline && self.timers.next_at().is_none() && self.earliest_wakeup().is_none() && self.runqueue.is_empty() {
                    // Nothing will ever happen; stop early.
                    self.stats.idle_ns += deadline.saturating_sub(self.clock);
                    self.clock = deadline;
                    return Ok(());
                }
                continue;
            };
            if Some(task) != self.last_task {
                self.stats.context_switches += 1;
                let t = self.cost.context_switch_ns;
                self.charge(t);
                self.trace
                    .kernel(KernelEvent::ContextSwitch, self.clock, t);
            }
            self.current = Some(task);
            let slice_end = deadline
                .min(self.next_tick_at)
                .min(self.clock + self.cost.timeslice_ns);
            match task {
                Task::Process(pid) => {
                    let _ = self.run_process_until(pid, slice_end);
                }
                Task::KThread(kt) => {
                    self.run_kthread_once(kt);
                }
            }
            self.last_task = Some(task);
            self.current = None;
            // Every dispatch counts as a quantum for dynamic priority:
            // the runner's bonus decays and waiters age. (Timer ticks
            // below only account tick overhead; aging per dispatch keeps
            // short kernel-thread bursts from monopolizing the CPU
            // between coarse ticks.)
            self.runqueue.tick(task);
            self.advance_ticks();
        }
        Ok(())
    }

    fn earliest_wakeup(&self) -> Option<u64> {
        self.procs
            .values()
            .filter_map(|p| match p.state {
                ProcState::Sleeping { until } => Some(until),
                _ => None,
            })
            .min()
    }

    fn wake_sleepers(&mut self) {
        let now = self.clock;
        let due: Vec<(Pid, SchedPolicy)> = self
            .procs
            .values()
            .filter(|p| matches!(p.state, ProcState::Sleeping { until } if until <= now))
            .map(|p| (p.pid, p.policy))
            .collect();
        for (pid, policy) in due {
            if let Some(p) = self.procs.get_mut(&pid.0) {
                p.state = ProcState::Ready;
                if !p.frozen_for_ckpt {
                    self.runqueue.enqueue(Task::Process(pid), policy);
                }
            }
        }
    }

    fn advance_ticks(&mut self) {
        while self.clock >= self.next_tick_at {
            self.stats.ticks += 1;
            let t = self.cost.tick_overhead_ns;
            self.charge(t);
            self.next_tick_at += self.cost.tick_interval_ns;
        }
    }

    fn fire_due_timers(&mut self) {
        let due = self.timers.take_due(self.clock);
        for t in due {
            self.stats.timer_fires += 1;
            match t.action {
                TimerAction::SendSignal { pid, sig } => self.post_signal(pid, sig),
                TimerAction::WakeKThread(kt) => {
                    let _ = self.wake_kthread(kt);
                }
                TimerAction::ModuleEvent { module, tag } => {
                    self.dispatch_module(&module, |m, k| m.timer_event(k, tag));
                }
            }
        }
    }

    fn run_process_until(&mut self, pid: Pid, until: u64) -> SimResult<()> {
        // Address-space switch on entry.
        if self.active_mm != Some(pid) {
            let t = self.cost.mm_switch();
            self.charge(t);
            self.stats.mm_switches += 1;
            self.trace.kernel(KernelEvent::MmSwitch, self.clock, t);
            self.trace.kernel(KernelEvent::TlbFlush, self.clock, 0);
            // Incoming space runs translation-cold, like the hardware TLB
            // the switch cost models.
            if let Some(p) = self.procs.get_mut(&pid.0) {
                p.mem.tlb_flush();
            }
            self.trace.soft_tlb_flush(TlbFlushSite::MmSwitch);
            self.active_mm = Some(pid);
        }
        // Kernel→user transition: deliver pending signals.
        if !self.deliver_signals(pid)? {
            return Ok(());
        }
        let start = self.clock;
        // A process's program is fixed when it is spawned or adopted, so a
        // native guest's parameters are fetched once per slice, not per step.
        let native = match self.procs.get(&pid.0).map(|p| &p.program) {
            Some(ProgramSpec::Native { kind, params }) => Some((*kind, params.clone())),
            _ => None,
        };
        loop {
            if self.clock >= until {
                break;
            }
            let Some(p) = self.procs.get(&pid.0) else {
                break;
            };
            if !p.is_runnable() {
                break;
            }
            match &native {
                None => {
                    if let Err(_e) = self.vm_step(pid) {
                        // Fault posted a signal; deliver it (may terminate).
                        let _ = self.deliver_signals(pid)?;
                        break;
                    }
                    // Signals posted by the instruction itself (e.g. kill
                    // to self) are delivered at the next slice entry —
                    // matching real deferred delivery. Exception: if the
                    // process stopped being runnable, end the slice.
                }
                Some((kind, params)) => {
                    let outcome = {
                        let mut io = KernelMemIo::new(self, pid);
                        let out = apps::step(*kind, params, &mut io);
                        io.finish()?;
                        out
                    };
                    let t = self.cost.native_step_ns + self.cost.memcpy(outcome.bytes_touched);
                    self.charge_user(t);
                    let p = self.procs.get_mut(&pid.0).expect("exists");
                    p.work_done += 1;
                    // Self-checkpoint call sites inserted into the app
                    // (libckpt / VMADump pattern).
                    let rt = &p.user_rt;
                    let due = |every: u64| every > 0 && (outcome.step + 1) % every == 0;
                    if rt.self_ckpt_every.is_some_and(due) {
                        if let Some(slot) = rt.self_ckpt_ext {
                            let _ = self.do_syscall(pid, Syscall::Ext { slot, args: [0; 5] });
                        } else if let Some(agent) = rt.agent.clone() {
                            self.dispatch_module(&agent, |m, k| m.user_checkpoint(k, pid));
                        }
                    }
                    if outcome.finished {
                        let _ = self.do_syscall(pid, Syscall::Exit { code: 0 });
                        break;
                    }
                }
            }
        }
        let used = self.clock - start;
        if let Some(p) = self.procs.get_mut(&pid.0) {
            p.cpu_ns += used;
        }
        Ok(())
    }

    fn run_kthread_once(&mut self, kt: KtId) {
        let module = match self.kthreads.get_mut(&kt.0) {
            Some(t) if t.state == KtState::Ready => t.module.clone(),
            _ => {
                self.runqueue.dequeue(Task::KThread(kt));
                return;
            }
        };
        let start = self.clock;
        let status = self
            .dispatch_module(&module, |m, k| m.kthread_run(k, kt))
            .unwrap_or(KthreadStatus::Exit);
        let used = self.clock - start;
        if let Some(t) = self.kthreads.get_mut(&kt.0) {
            t.cpu_ns += used;
            match status {
                KthreadStatus::Sleep => {
                    t.state = KtState::Sleeping;
                    self.runqueue.dequeue(Task::KThread(kt));
                }
                KthreadStatus::Yield => {}
                KthreadStatus::Exit => {
                    t.state = KtState::Dead;
                    self.runqueue.dequeue(Task::KThread(kt));
                }
            }
        }
    }

    /// Run until `pid` exits or `limit_ns` of virtual time passes.
    pub(crate) fn run_until_exit_limit(&mut self, pid: Pid, limit_ns: u64) -> SimResult<i32> {
        let deadline = self.clock.saturating_add(limit_ns);
        while self.clock < deadline {
            match self.procs.get(&pid.0) {
                None => return Err(SimError::NoSuchProcess(pid)),
                Some(p) => {
                    if let Some(code) = p.exit_code() {
                        return Ok(code);
                    }
                }
            }
            let step = self
                .cost
                .tick_interval_ns
                .min(deadline - self.clock)
                .max(1);
            self.run_for(step)?;
        }
        Err(SimError::Timeout(format!("{pid} did not exit")))
    }

    /// Run until `pid` exits (bounded at 1000 virtual seconds).
    pub fn run_until_exit(&mut self, pid: Pid) -> SimResult<i32> {
        self.run_until_exit_limit(pid, 1_000_000_000_000)
    }

    // ------------------------------------------------------------------
    // VM execution.
    // ------------------------------------------------------------------

    fn vm_step(&mut self, pid: Pid) -> SimResult<()> {
        let (pc, instr) = {
            let p = self
                .procs
                .get(&pid.0)
                .ok_or(SimError::NoSuchProcess(pid))?;
            let pc = p.regs.pc;
            let ProgramSpec::Vm { text, .. } = &p.program else {
                return Err(SimError::Usage("vm_step on non-VM process".into()));
            };
            if pc < TEXT_BASE || !(pc - TEXT_BASE).is_multiple_of(4) {
                return Err(SimError::IllegalInstruction {
                    pid,
                    pc,
                    detail: "misaligned pc".into(),
                });
            }
            let idx = ((pc - TEXT_BASE) / 4) as usize;
            if idx >= text.len() {
                return Err(SimError::IllegalInstruction {
                    pid,
                    pc,
                    detail: "pc outside text".into(),
                });
            }
            let word = text[idx];
            let instr = vm::decode(word).map_err(|detail| SimError::IllegalInstruction {
                pid,
                pc,
                detail,
            })?;
            (pc, instr)
        };
        let t = self.cost.instr_ns;
        self.charge_user(t);
        let mut next_pc = pc + 4;
        macro_rules! regs {
            () => {
                self.procs.get_mut(&pid.0).expect("exists").regs
            };
        }
        match instr {
            Instr::Nop => {}
            Instr::Halt => {
                let code = regs!().gpr[0] as i32;
                self.exit_process(pid, code);
                return Ok(());
            }
            Instr::Li { a, imm } => regs!().gpr[a as usize] = imm as u64,
            Instr::Lui { a, imm } => {
                let r = &mut regs!().gpr[a as usize];
                *r = ((imm as u64) << 16) | (*r & 0xFFFF);
            }
            Instr::Mov { a, b } => {
                let v = regs!().gpr[b as usize];
                regs!().gpr[a as usize] = v;
            }
            Instr::Add { a, b, c }
            | Instr::Sub { a, b, c }
            | Instr::Mul { a, b, c }
            | Instr::Divu { a, b, c }
            | Instr::And { a, b, c }
            | Instr::Or { a, b, c }
            | Instr::Xor { a, b, c }
            | Instr::Shl { a, b, c }
            | Instr::Shr { a, b, c } => {
                let r = &mut regs!();
                let (x, y) = (r.gpr[b as usize], r.gpr[c as usize]);
                r.gpr[a as usize] = match instr {
                    Instr::Add { .. } => x.wrapping_add(y),
                    Instr::Sub { .. } => x.wrapping_sub(y),
                    Instr::Mul { .. } => x.wrapping_mul(y),
                    Instr::Divu { .. } => {
                        x.checked_div(y).ok_or_else(|| SimError::IllegalInstruction {
                            pid,
                            pc,
                            detail: "division by zero".into(),
                        })?
                    }
                    Instr::And { .. } => x & y,
                    Instr::Or { .. } => x | y,
                    Instr::Xor { .. } => x ^ y,
                    Instr::Shl { .. } => x.wrapping_shl(y as u32),
                    _ => x.wrapping_shr(y as u32),
                };
            }
            Instr::Addi { a, b, simm } => {
                let x = regs!().gpr[b as usize];
                regs!().gpr[a as usize] = x.wrapping_add(simm as i64 as u64);
            }
            Instr::Lw { a, b, simm } => {
                let addr = regs!().gpr[b as usize].wrapping_add(simm as i64 as u64);
                let word = self.mem_load_word(pid, addr)?;
                regs!().gpr[a as usize] = word;
            }
            Instr::Sw { a, b, simm } => {
                let (val, addr) = {
                    let r = &regs!();
                    (
                        r.gpr[a as usize],
                        r.gpr[b as usize].wrapping_add(simm as i64 as u64),
                    )
                };
                self.mem_store_word(pid, addr, val)?;
            }
            Instr::Lb { a, b, simm } => {
                let addr = regs!().gpr[b as usize].wrapping_add(simm as i64 as u64);
                let mut buf = [0u8; 1];
                self.mem_read(pid, addr, &mut buf)?;
                regs!().gpr[a as usize] = buf[0] as u64;
            }
            Instr::Sb { a, b, simm } => {
                let (val, addr) = {
                    let r = &regs!();
                    (
                        r.gpr[a as usize] as u8,
                        r.gpr[b as usize].wrapping_add(simm as i64 as u64),
                    )
                };
                self.mem_write(pid, addr, &[val])?;
            }
            Instr::Beq { a, b, simm } | Instr::Bne { a, b, simm } | Instr::Bltu { a, b, simm } => {
                let r = &regs!();
                let (x, y) = (r.gpr[a as usize], r.gpr[b as usize]);
                let taken = match instr {
                    Instr::Beq { .. } => x == y,
                    Instr::Bne { .. } => x != y,
                    _ => x < y,
                };
                if taken {
                    next_pc = pc.wrapping_add(4).wrapping_add((simm as i64 * 4) as u64);
                }
            }
            Instr::Jmp { imm } => next_pc = TEXT_BASE + imm as u64 * 4,
            Instr::Jal { imm } => {
                regs!().gpr[15] = next_pc;
                next_pc = TEXT_BASE + imm as u64 * 4;
            }
            Instr::Jr { a } => next_pc = regs!().gpr[a as usize],
            Instr::Sys => {
                // Advance pc first so a checkpoint taken inside the syscall
                // resumes after it.
                regs!().pc = next_pc;
                let (num, args) = {
                    let r = &regs!();
                    (
                        r.gpr[0],
                        [r.gpr[1], r.gpr[2], r.gpr[3], r.gpr[4], r.gpr[5]],
                    )
                };
                let call = self.vm_decode_syscall(pid, num, args)?;
                let ret = self.do_syscall(pid, call);
                if let Some(p) = self.procs.get_mut(&pid.0) {
                    p.regs.gpr[0] = sysret_encode(ret) as u64;
                    p.work_done += 1;
                }
                return Ok(());
            }
            Instr::MallocEnter => {
                let p = self.procs.get_mut(&pid.0).expect("exists");
                p.sig.non_reentrant_depth += 1;
            }
            Instr::MallocExit => {
                let p = self.procs.get_mut(&pid.0).expect("exists");
                p.sig.non_reentrant_depth = p.sig.non_reentrant_depth.saturating_sub(1);
            }
            Instr::Sret => {
                self.pop_sig_frame(pid)?;
                if let Some(p) = self.procs.get_mut(&pid.0) {
                    p.work_done += 1;
                }
                return Ok(());
            }
        }
        if let Some(p) = self.procs.get_mut(&pid.0) {
            p.regs.pc = next_pc;
            p.work_done += 1;
        }
        Ok(())
    }

    fn vm_decode_syscall(&mut self, pid: Pid, num: u64, args: [u64; 5]) -> SimResult<Syscall> {
        use crate::vm::sysno;
        Ok(match num {
            sysno::EXIT => Syscall::Exit {
                code: args[0] as i32,
            },
            sysno::WRITE => Syscall::Write {
                fd: Fd(args[0] as u32),
                buf: args[1],
                len: args[2],
            },
            sysno::READ => Syscall::Read {
                fd: Fd(args[0] as u32),
                buf: args[1],
                len: args[2],
            },
            sysno::OPEN => {
                // The path length is the guest's: an unmapped extent is the
                // fault the copy below would raise, raised before a buffer
                // is sized from it.
                if !self.procs[&pid.0].mem.maps(args[0], args[1]) {
                    self.fault_to_segv(pid, args[0], FaultKind::NotMapped)?;
                }
                let mut name = vec![0u8; args[1] as usize];
                self.mem_read(pid, args[0], &mut name)?;
                let path = String::from_utf8_lossy(&name).to_string();
                let f = args[2];
                Syscall::Open {
                    path,
                    flags: OpenFlags {
                        read: f & 1 != 0,
                        write: f & 2 != 0,
                        create: f & 4 != 0,
                        truncate: f & 8 != 0,
                        append: f & 16 != 0,
                    },
                }
            }
            sysno::CLOSE => Syscall::Close {
                fd: Fd(args[0] as u32),
            },
            sysno::SBRK => Syscall::Sbrk {
                delta: args[0] as i64,
            },
            sysno::GETPID => Syscall::Getpid,
            sysno::KILL => Syscall::Kill {
                pid: Pid(args[0] as u32),
                sig: Sig(args[1] as u32),
            },
            sysno::SIGACTION => Syscall::Sigaction {
                sig: Sig(args[0] as u32),
                action: SigAction::Handler {
                    kind: UserHandlerKind::VmFunction(TEXT_BASE + args[1] * 4),
                    uses_non_reentrant: args[2] != 0,
                },
            },
            sysno::ALARM => Syscall::Alarm { ns: args[0] },
            sysno::NANOSLEEP => Syscall::Nanosleep { ns: args[0] },
            sysno::LSEEK => Syscall::Lseek {
                fd: Fd(args[0] as u32),
                offset: args[1] as i64,
                whence: match args[2] {
                    1 => Whence::Cur,
                    2 => Whence::End,
                    _ => Whence::Set,
                },
            },
            sysno::DUP => Syscall::Dup {
                fd: Fd(args[0] as u32),
            },
            sysno::MMAP => Syscall::Mmap {
                len: args[0],
                prot: Prot::RW,
            },
            sysno::MUNMAP => Syscall::Munmap { addr: args[0] },
            sysno::MPROTECT => Syscall::Mprotect {
                addr: args[0],
                len: args[1],
                prot: Prot(args[2] as u8),
            },
            sysno::SIGPENDING => Syscall::Sigpending,
            sysno::YIELD => Syscall::SchedYield,
            n if n >= sysno::EXT_BASE => Syscall::Ext {
                slot: (n - sysno::EXT_BASE) as u32,
                args,
            },
            _ => {
                return Err(SimError::IllegalInstruction {
                    pid,
                    pc: self.procs[&pid.0].regs.pc,
                    detail: format!("unknown syscall {num}"),
                })
            }
        })
    }
}

/// What a `read` of `len` bytes at `offset` returns from `full`: sized by
/// what the source can supply, never by the guest's `len` alone.
fn read_window(full: &[u8], offset: u64, len: u64) -> Vec<u8> {
    let off = offset.min(full.len() as u64) as usize;
    let n = len.min((full.len() - off) as u64) as usize;
    full[off..off + n].to_vec()
}

fn fs_errno(e: FsError) -> Errno {
    match e {
        FsError::NotFound => Errno::ENOENT,
        FsError::Exists => Errno::EEXIST,
        FsError::NotADirectory => Errno::ENOTDIR,
        FsError::IsADirectory => Errno::EACCES,
        FsError::NotAFile => Errno::EINVAL,
        FsError::NotEmpty => Errno::EBUSY,
        FsError::TooLarge => Errno::EFBIG,
    }
}

/// Guest-memory adapter handed to native app steps: routes every access
/// through the kernel's protection/tracking machinery, stashing the first
/// fatal fault for the caller to surface.
pub(crate) struct KernelMemIo<'a> {
    k: &'a mut Kernel,
    pid: Pid,
    fatal: Option<SimError>,
}

impl<'a> KernelMemIo<'a> {
    pub(crate) fn new(k: &'a mut Kernel, pid: Pid) -> Self {
        KernelMemIo {
            k,
            pid,
            fatal: None,
        }
    }

    /// Surface any fault captured during the step.
    pub(crate) fn finish(self) -> SimResult<()> {
        match self.fatal {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

impl GuestMemIo for KernelMemIo<'_> {
    fn r64(&mut self, addr: u64) -> u64 {
        if self.fatal.is_some() {
            return 0;
        }
        self.k.mem_load_word(self.pid, addr).unwrap_or_else(|e| {
            self.fatal = Some(e);
            0
        })
    }

    fn w64(&mut self, addr: u64, val: u64) {
        if self.fatal.is_some() {
            return;
        }
        if let Err(e) = self.k.mem_store_word(self.pid, addr, val) {
            self.fatal = Some(e);
        }
    }

    // Bulk fast path: one `mem_write`/`mem_read` per page-sized batch
    // instead of one per word. Protection, tracking, COW, and fault
    // charging are identical to the scalar loop — `check_write` walks the
    // batch's pages in the same ascending order the word loop touches them,
    // so fault counts, order, and virtual-time charges do not change.
    fn write_words(&mut self, addr: u64, vals: &[u64]) {
        if self.fatal.is_some() {
            return;
        }
        let mut buf = [0u8; PAGE_SIZE as usize];
        let words_per_buf = (PAGE_SIZE / 8) as usize;
        let mut off = 0usize;
        while off < vals.len() {
            let n = words_per_buf.min(vals.len() - off);
            for (j, v) in vals[off..off + n].iter().enumerate() {
                buf[j * 8..j * 8 + 8].copy_from_slice(&v.to_le_bytes());
            }
            if let Err(e) = self
                .k
                .mem_write(self.pid, addr + off as u64 * 8, &buf[..n * 8])
            {
                self.fatal = Some(e);
                return;
            }
            off += n;
        }
    }

    fn read_words(&mut self, addr: u64, out: &mut [u64]) {
        if self.fatal.is_some() {
            out.fill(0);
            return;
        }
        let mut buf = [0u8; PAGE_SIZE as usize];
        let words_per_buf = (PAGE_SIZE / 8) as usize;
        let mut off = 0usize;
        while off < out.len() {
            let n = words_per_buf.min(out.len() - off);
            if let Err(e) = self
                .k
                .mem_read(self.pid, addr + off as u64 * 8, &mut buf[..n * 8])
            {
                self.fatal = Some(e);
                out[off..].fill(0);
                return;
            }
            for (j, o) in out[off..off + n].iter_mut().enumerate() {
                *o = u64::from_le_bytes(buf[j * 8..j * 8 + 8].try_into().unwrap());
            }
            off += n;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::programs;

    fn kernel() -> Kernel {
        Kernel::new(CostModel::circa_2005())
    }

    #[test]
    fn divu_by_zero_is_a_typed_illegal_instruction() {
        let mut a = crate::asm::Assembler::new();
        a.li(1, 5).li(2, 0).divu(3, 1, 2);
        let mut k = kernel();
        let pid = k.spawn_vm(a.assemble().unwrap(), "div0").unwrap();
        k.vm_step(pid).unwrap();
        k.vm_step(pid).unwrap();
        let err = k.vm_step(pid).unwrap_err();
        let pc = TEXT_BASE + 2 * 4;
        assert!(
            matches!(&err, SimError::IllegalInstruction { pc: at, detail, .. }
                if *at == pc && detail == "division by zero"),
            "{err:?}"
        );
        assert_eq!(k.process(pid).unwrap().regs.pc, pc, "the pc stays on the divu");
    }

    #[test]
    fn native_app_runs_to_completion() {
        let mut k = kernel();
        let pid = k
            .spawn_native(NativeKind::DenseSweep, AppParams::small())
            .unwrap();
        let code = k.run_until_exit(pid).unwrap();
        assert_eq!(code, 0);
        let p = k.process(pid).unwrap();
        assert_eq!(p.work_done, AppParams::small().total_steps);
    }

    #[test]
    fn native_app_state_matches_reference_run() {
        let mut k = kernel();
        let params = AppParams::small();
        let pid = k
            .spawn_native(NativeKind::SparseRandom, params.clone())
            .unwrap();
        k.run_until_exit(pid).unwrap();
        let (ref_step, ref_sum) = apps::reference_run(NativeKind::SparseRandom, &params);
        let p = k.process(pid).unwrap();
        let mut buf = [0u8; 8];
        p.mem.peek(apps::H_STEP, &mut buf);
        assert_eq!(u64::from_le_bytes(buf), ref_step);
        p.mem.peek(apps::H_SUM, &mut buf);
        assert_eq!(u64::from_le_bytes(buf), ref_sum);
    }

    #[test]
    fn vm_counter_program_counts() {
        let mut k = kernel();
        let pid = k.spawn_vm(programs::counter(100), "counter").unwrap();
        let code = k.run_until_exit(pid).unwrap();
        assert_eq!(code, 0);
        let p = k.process(pid).unwrap();
        let mut buf = [0u8; 8];
        p.mem.peek(DATA_BASE, &mut buf);
        assert_eq!(u64::from_le_bytes(buf), 100);
    }

    #[test]
    fn vm_summer_computes_sum() {
        let mut k = kernel();
        let pid = k.spawn_vm(programs::summer(10), "summer").unwrap();
        k.run_until_exit(pid).unwrap();
        let p = k.process(pid).unwrap();
        let mut buf = [0u8; 8];
        p.mem.peek(DATA_BASE, &mut buf);
        assert_eq!(u64::from_le_bytes(buf), 55);
    }

    #[test]
    fn time_advances_and_stats_accumulate() {
        let mut k = kernel();
        let pid = k
            .spawn_native(NativeKind::DenseSweep, AppParams::small())
            .unwrap();
        k.run_until_exit(pid).unwrap();
        assert!(k.now() > 0);
        assert!(k.stats.context_switches >= 1);
        assert!(k.stats.syscalls >= 1); // the exit
        assert!(k.stats.user_ns > 0);
    }

    #[test]
    fn two_processes_share_cpu() {
        let mut k = kernel();
        let a = k
            .spawn_native(NativeKind::SparseRandom, AppParams::small())
            .unwrap();
        let b = k
            .spawn_native(NativeKind::SparseRandom, AppParams::small())
            .unwrap();
        k.run_until_exit(a).unwrap();
        k.run_until_exit(b).unwrap();
        assert!(k.process(a).unwrap().has_exited());
        assert!(k.process(b).unwrap().has_exited());
        // Both ran: mm switches happened between them.
        assert!(k.stats.mm_switches >= 2);
    }

    #[test]
    fn sigkill_terminates() {
        let mut k = kernel();
        let mut params = AppParams::small();
        params.total_steps = u64::MAX; // runs forever
        let pid = k.spawn_native(NativeKind::SparseRandom, params).unwrap();
        k.run_for(30_000_000).unwrap();
        assert!(!k.process(pid).unwrap().has_exited());
        k.post_signal(pid, Sig::SIGKILL);
        k.run_for(30_000_000).unwrap();
        assert_eq!(k.process(pid).unwrap().exit_code(), Some(128 + 9));
    }

    #[test]
    fn sigstop_and_sigcont() {
        let mut k = kernel();
        let mut params = AppParams::small();
        params.total_steps = u64::MAX;
        let pid = k.spawn_native(NativeKind::SparseRandom, params).unwrap();
        k.run_for(10_000_000).unwrap();
        k.post_signal(pid, Sig::SIGSTOP);
        k.run_for(20_000_000).unwrap();
        let frozen_work = k.process(pid).unwrap().work_done;
        assert_eq!(k.process(pid).unwrap().state, ProcState::Stopped);
        k.run_for(50_000_000).unwrap();
        assert_eq!(k.process(pid).unwrap().work_done, frozen_work);
        k.post_signal(pid, Sig::SIGCONT);
        k.run_for(50_000_000).unwrap();
        assert!(k.process(pid).unwrap().work_done > frozen_work);
    }

    #[test]
    fn freeze_thaw_stops_and_resumes_work() {
        let mut k = kernel();
        let mut params = AppParams::small();
        params.total_steps = u64::MAX;
        let pid = k.spawn_native(NativeKind::SparseRandom, params).unwrap();
        k.run_for(10_000_000).unwrap();
        k.freeze_process(pid).unwrap();
        let w = k.process(pid).unwrap().work_done;
        k.run_for(50_000_000).unwrap();
        assert_eq!(k.process(pid).unwrap().work_done, w);
        k.thaw_process(pid).unwrap();
        k.run_for(50_000_000).unwrap();
        assert!(k.process(pid).unwrap().work_done > w);
    }

    #[test]
    fn vm_signal_handler_runs_and_sret_returns() {
        let mut k = kernel();
        let pid = k.spawn_vm(programs::signal_loop(10), "sigloop").unwrap();
        // Let it install the handler and loop a while.
        k.run_for(5_000_000).unwrap();
        k.post_signal(pid, Sig::SIGUSR1);
        k.run_for(20_000_000).unwrap();
        let p = k.process(pid).unwrap();
        let mut buf = [0u8; 8];
        p.mem.peek(DATA_BASE + 8, &mut buf);
        assert_eq!(u64::from_le_bytes(buf), 1, "handler ran once");
        // Main loop still progressing after SRET.
        p.mem.peek(DATA_BASE, &mut buf);
        let c1 = u64::from_le_bytes(buf);
        let _ = p;
        k.run_for(20_000_000).unwrap();
        let p = k.process(pid).unwrap();
        p.mem.peek(DATA_BASE, &mut buf);
        assert!(u64::from_le_bytes(buf) > c1);
        assert_eq!(k.stats.signals_delivered, 1);
    }

    #[test]
    fn alarm_delivers_sigalrm_default_terminate() {
        let mut k = kernel();
        let mut params = AppParams::small();
        params.total_steps = u64::MAX;
        let pid = k.spawn_native(NativeKind::SparseRandom, params).unwrap();
        k.run_for(1_000_000).unwrap();
        k.do_syscall(pid, Syscall::Alarm { ns: 5_000_000 }).unwrap();
        k.run_for(100_000_000).unwrap();
        assert_eq!(k.process(pid).unwrap().exit_code(), Some(128 + 14));
    }

    #[test]
    fn file_syscalls_round_trip_through_guest_memory() {
        let mut k = kernel();
        let pid = k
            .spawn_native(NativeKind::SparseRandom, AppParams::small())
            .unwrap();
        let fd = k
            .do_syscall(
                pid,
                Syscall::Open {
                    path: "/tmp/out".into(),
                    flags: OpenFlags::RDWR_CREATE,
                },
            )
            .unwrap();
        let fd = Fd(fd as u32);
        // Put bytes in guest memory, write them out.
        k.mem_write(pid, DATA_BASE + 64, b"payload!").unwrap();
        let n = k
            .do_syscall(
                pid,
                Syscall::Write {
                    fd,
                    buf: DATA_BASE + 64,
                    len: 8,
                },
            )
            .unwrap();
        assert_eq!(n, 8);
        // Seek back and read into a different guest address.
        let pos = k
            .do_syscall(
                pid,
                Syscall::Lseek {
                    fd,
                    offset: 0,
                    whence: Whence::Set,
                },
            )
            .unwrap();
        assert_eq!(pos, 0);
        let n = k
            .do_syscall(
                pid,
                Syscall::Read {
                    fd,
                    buf: DATA_BASE + 128,
                    len: 8,
                },
            )
            .unwrap();
        assert_eq!(n, 8);
        let mut buf = [0u8; 8];
        k.mem_read(pid, DATA_BASE + 128, &mut buf).unwrap();
        assert_eq!(&buf, b"payload!");
    }

    #[test]
    fn dup_shares_offset() {
        let mut k = kernel();
        let pid = k
            .spawn_native(NativeKind::SparseRandom, AppParams::small())
            .unwrap();
        let fd = Fd(k
            .do_syscall(
                pid,
                Syscall::Open {
                    path: "/tmp/s".into(),
                    flags: OpenFlags::RDWR_CREATE,
                },
            )
            .unwrap() as u32);
        let fd2 = Fd(k.do_syscall(pid, Syscall::Dup { fd }).unwrap() as u32);
        k.mem_write(pid, DATA_BASE + 64, b"abcd").unwrap();
        k.do_syscall(
            pid,
            Syscall::Write {
                fd,
                buf: DATA_BASE + 64,
                len: 4,
            },
        )
        .unwrap();
        let pos = k
            .do_syscall(
                pid,
                Syscall::Lseek {
                    fd: fd2,
                    offset: 0,
                    whence: Whence::Cur,
                },
            )
            .unwrap();
        assert_eq!(pos, 4, "dup'ed descriptor shares the offset");
    }

    #[test]
    fn sbrk_zero_reports_break() {
        let mut k = kernel();
        let pid = k
            .spawn_native(NativeKind::SparseRandom, AppParams::small())
            .unwrap();
        let b0 = k.do_syscall(pid, Syscall::Sbrk { delta: 0 }).unwrap();
        // sbrk(n) returns the OLD break (the base of the new region).
        let base = k.do_syscall(pid, Syscall::Sbrk { delta: 4096 }).unwrap();
        assert_eq!(base, b0);
        let b1 = k.do_syscall(pid, Syscall::Sbrk { delta: 0 }).unwrap();
        assert_eq!(b1, b0 + 4096);
    }

    #[test]
    fn unknown_ext_syscall_is_enosys() {
        let mut k = kernel();
        let pid = k
            .spawn_native(NativeKind::SparseRandom, AppParams::small())
            .unwrap();
        let r = k.do_syscall(
            pid,
            Syscall::Ext {
                slot: 42,
                args: [0; 5],
            },
        );
        assert_eq!(r, Err(Errno::ENOSYS));
    }

    #[test]
    fn fork_copies_and_cow_faults_charge() {
        let mut k = kernel();
        let mut params = AppParams::small();
        params.total_steps = u64::MAX;
        let pid = k.spawn_native(NativeKind::DenseSweep, params).unwrap();
        k.run_for(50_000_000).unwrap();
        let child = k.fork_process(pid).unwrap();
        assert_eq!(k.stats.forks, 1);
        assert!(k.process(child).unwrap().state == ProcState::Stopped);
        assert!(!k.process(pid).unwrap().cow_pending.is_empty());
        // Parent keeps writing → COW faults accumulate.
        k.run_for(50_000_000).unwrap();
        assert!(k.stats.cow_faults > 0);
        // Child memory equals parent memory at fork time (same app state).
        let mut b1 = [0u8; 8];
        k.process(child).unwrap().mem.peek(apps::H_MAGIC, &mut b1);
        assert_eq!(u64::from_le_bytes(b1), apps::APP_MAGIC);
    }

    #[test]
    fn freeze_blocks_sleeper_wakeup_until_thaw() {
        let mut k = kernel();
        let mut params = AppParams::small();
        params.total_steps = u64::MAX;
        let pid = k.spawn_native(NativeKind::SparseRandom, params).unwrap();
        k.run_for(1_000_000).unwrap();
        k.freeze_process(pid).unwrap();
        k.post_signal(pid, Sig::SIGKILL);
        k.run_for(10_000_000).unwrap();
        // Frozen: signal stays pending, process not dead.
        assert!(!k.process(pid).unwrap().has_exited());
        k.thaw_process(pid).unwrap();
        k.run_for(10_000_000).unwrap();
        assert!(k.process(pid).unwrap().has_exited());
    }

    #[test]
    fn adopt_rejects_duplicate_pid() {
        let mut k = kernel();
        let pid = k
            .spawn_native(NativeKind::SparseRandom, AppParams::small())
            .unwrap();
        let clone = k.process(pid).unwrap().clone();
        match k.adopt_process(clone) {
            Err(SimError::Usage(msg)) => assert!(msg.contains("already exists")),
            other => panic!("expected usage error, got {other:?}"),
        }
    }

    #[test]
    fn reap_removes_zombie() {
        let mut k = kernel();
        let pid = k
            .spawn_native(NativeKind::SparseRandom, AppParams::small())
            .unwrap();
        k.run_until_exit(pid).unwrap();
        assert_eq!(k.reap(pid).unwrap(), 0);
        assert!(k.process(pid).is_none());
    }

    #[test]
    fn idle_kernel_advances_time_without_work() {
        let mut k = kernel();
        k.run_for(1_000_000_000).unwrap();
        assert_eq!(k.now(), 1_000_000_000);
        assert!(k.stats.idle_ns > 0);
    }

    #[test]
    fn malloc_heavy_hazard_detection() {
        let mut k = kernel();
        let pid = k.spawn_vm(programs::malloc_heavy(), "malloc").unwrap();
        k.run_for(2_000_000).unwrap();
        // Install a non-reentrant-using handler via syscall, then signal.
        k.do_syscall(
            pid,
            Syscall::Sigaction {
                sig: Sig::SIGUSR1,
                action: SigAction::Handler {
                    kind: UserHandlerKind::CountOnly,
                    uses_non_reentrant: true,
                },
            },
        )
        .unwrap();
        // Post many signals over time; some will land inside malloc.
        let mut hazards = 0;
        for _ in 0..50 {
            k.post_signal(pid, Sig::SIGUSR1);
            k.run_for(1_000_000).unwrap();
            hazards = k.process(pid).unwrap().sig.hazards.len();
            if hazards > 0 {
                break;
            }
        }
        assert!(
            hazards > 0,
            "expected at least one reentrancy hazard in malloc-heavy guest"
        );
    }

    #[test]
    fn tracking_counts_dirty_pages_kernel_mode() {
        let mut k = kernel();
        let mut params = AppParams::small();
        params.total_steps = u64::MAX;
        params.writes_per_step = 4;
        let pid = k.spawn_native(NativeKind::SparseRandom, params).unwrap();
        k.run_for(10_000_000).unwrap();
        let resident_before = k.process(pid).unwrap().mem.resident_count();
        assert!(resident_before > 0);
        k.process_mut(pid).unwrap().mem.arm_tracking(TrackMode::KernelPage);
        let faults_before = k.stats.page_faults;
        k.run_for(10_000_000).unwrap();
        let p = k.process(pid).unwrap();
        assert!(!p.mem.dirty_pages.is_empty());
        assert!(k.stats.page_faults > faults_before);
    }

    #[test]
    fn user_tracking_costs_more_than_kernel_tracking() {
        // The same workload, tracked at user level (SIGSEGV + mprotect +
        // sigreturn per first touch) must burn more virtual time than
        // kernel-level tracking — the paper's efficiency argument.
        let run = |mode: TrackMode| -> u64 {
            let mut k = Kernel::new(CostModel::circa_2005());
            let mut params = AppParams::small();
            params.mem_bytes = 512 * 1024; // 128 pages → measurable fault costs
            params.total_steps = u64::MAX;
            let pid = k.spawn_native(NativeKind::DenseSweep, params).unwrap();
            k.run_for(5_000_000).unwrap();
            k.process_mut(pid).unwrap().mem.arm_tracking(mode);
            let t0 = k.now();
            let w0 = k.process(pid).unwrap().work_done;
            // Run until a fixed amount of work is done, in fine-grained
            // chunks so the measurement is not quantized away.
            while k.process(pid).unwrap().work_done < w0 + 5 {
                k.run_for(10_000).unwrap();
            }
            k.now() - t0
        };
        let kernel_t = run(TrackMode::KernelPage);
        let user_t = run(TrackMode::UserSigsegv);
        assert!(
            user_t > kernel_t,
            "user-level tracking ({user_t} ns) should cost more than kernel-level ({kernel_t} ns)"
        );
    }

    #[test]
    fn kthread_attach_mm_charges_switch_once() {
        let mut k = kernel();
        let pid = k
            .spawn_native(NativeKind::SparseRandom, AppParams::small())
            .unwrap();
        let before = k.stats.mm_switches;
        k.kthread_attach_mm(pid).unwrap();
        assert_eq!(k.stats.mm_switches, before + 1);
        // Second attach to the same space is free.
        k.kthread_attach_mm(pid).unwrap();
        assert_eq!(k.stats.mm_switches, before + 1);
    }

    #[test]
    fn run_until_exit_times_out_on_stuck_process() {
        let mut k = kernel();
        let mut params = AppParams::small();
        params.total_steps = u64::MAX;
        let pid = k.spawn_native(NativeKind::SparseRandom, params).unwrap();
        k.freeze_process(pid).unwrap();
        match k.run_until_exit_limit(pid, 50_000_000) {
            Err(SimError::Timeout(_)) => {}
            other => panic!("expected timeout, got {other:?}"),
        }
    }
}
