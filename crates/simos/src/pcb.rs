//! The process control block: everything the kernel knows about a process.
//!
//! This is the data structure the paper's Section 4.1 refers to when it says
//! that "in kernel space every data structure relevant to a process's state
//! is readily accessible: registers, memory regions, file descriptors,
//! signal state, and more" — system-level checkpointers walk a [`Pcb`]
//! directly, while user-level ones must reconstruct the same information
//! through syscalls.

use crate::apps::{AppParams, NativeKind};
use crate::mem::AddressSpace;
use crate::sched::SchedPolicy;
use crate::signal::SignalState;
use crate::types::{Fd, OfdId, Pid};
use crate::userrt::UserRuntime;
use std::collections::BTreeMap;

/// Guest CPU registers: a program counter and 16 general-purpose registers.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Regs {
    pub pc: u64,
    pub gpr: [u64; 16],
}

/// Life-cycle state of a process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcState {
    /// Runnable (queued or currently on CPU).
    Ready,
    /// Sleeping until the given virtual time (e.g. `nanosleep`).
    Sleeping { until: u64 },
    /// Stopped by `SIGSTOP` or frozen by a checkpointer.
    Stopped,
    /// Exited; exit code retained until reaped.
    Zombie { code: i32 },
}

/// What program the process runs — and, crucially for restart, how to
/// re-instantiate it. A checkpoint image records this spec; restoring the
/// image recreates the process with the same spec and the saved memory,
/// registers, fds, and signal state.
#[derive(Debug, Clone, PartialEq)]
pub enum ProgramSpec {
    /// A guest VM program: machine code for the mini-ISA.
    Vm { text: Vec<u32>, name: String },
    /// A native "scientific kernel" app. Its entire mutable state lives in
    /// guest memory (see `apps`), so saving memory saves the app.
    Native { kind: NativeKind, params: AppParams },
}

impl ProgramSpec {
}

/// One slot in a process's file-descriptor table, pointing at a shared
/// open-file description (so `dup` shares offsets, as in POSIX).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FdEntry {
    pub ofd: OfdId,
    pub close_on_exec: bool,
}

/// The per-process descriptor table.
#[derive(Debug, Clone, Default)]
pub struct FdTable {
    slots: BTreeMap<u32, FdEntry>,
}

impl FdTable {
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocate the lowest free descriptor ≥ 0.
    pub(crate) fn alloc(&mut self, ofd: OfdId) -> Fd {
        let mut n = 0u32;
        while self.slots.contains_key(&n) {
            n += 1;
        }
        self.slots.insert(
            n,
            FdEntry {
                ofd,
                close_on_exec: false,
            },
        );
        Fd(n)
    }

    pub(crate) fn get(&self, fd: Fd) -> Option<FdEntry> {
        self.slots.get(&fd.0).copied()
    }

    /// Insert an entry at an explicit descriptor number — used when
    /// restoring a checkpointed descriptor table, where numbers must match
    /// what the application saw. Replaces any existing entry.
    pub fn insert_at(&mut self, fd: Fd, entry: FdEntry) {
        self.slots.insert(fd.0, entry);
    }

    pub(crate) fn remove(&mut self, fd: Fd) -> Option<FdEntry> {
        self.slots.remove(&fd.0)
    }

    pub fn iter(&self) -> impl Iterator<Item = (Fd, FdEntry)> + '_ {
        self.slots.iter().map(|(n, e)| (Fd(*n), *e))
    }

    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// `len`'s pair (a public `len` wants an `is_empty`).
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

/// The process control block.
#[derive(Debug, Clone)]
pub struct Pcb {
    pub pid: Pid,
    pub ppid: Pid,
    pub state: ProcState,
    pub policy: SchedPolicy,
    pub regs: Regs,
    pub mem: AddressSpace,
    pub fds: FdTable,
    pub sig: SignalState,
    pub program: ProgramSpec,
    /// The modelled user-space runtime attached to this process by
    /// user-level checkpointing schemes (mirrored tables, dirty bitmaps,
    /// pending-checkpoint flags). Empty unless such a scheme is active.
    pub user_rt: UserRuntime,
    /// Accumulated CPU time (ns).
    pub cpu_ns: u64,
    /// Virtual time the process was created.
    pub start_ns: u64,
    /// Completed application-level work units (VM: executed instructions;
    /// native apps: completed steps). Mirrors what the app itself stores in
    /// guest memory; used for progress accounting by experiments.
    pub work_done: u64,
    /// Set while a checkpointer has frozen this process (removed from the
    /// runqueue); distinguishes checkpoint freezes from SIGSTOP.
    pub frozen_for_ckpt: bool,
    /// Pages still copy-on-write-shared with a forked child (the
    /// fork-concurrent checkpoint scheme); the first write to each charges
    /// a COW fault.
    pub cow_pending: std::collections::BTreeSet<u64>,
}

impl Pcb {
    /// A new process `pid` running `program` in `mem`, born at `start_ns`:
    /// no parent (ppid 0), ready under the default policy with zeroed
    /// registers, no descriptors, default signal state, a fresh user
    /// runtime, no CPU time or work done, not frozen, no page
    /// copy-on-write pending. Spawn and restore override what they carry.
    pub fn new(pid: Pid, program: ProgramSpec, mem: AddressSpace, start_ns: u64) -> Pcb {
        Pcb {
            pid,
            ppid: Pid(0),
            state: ProcState::Ready,
            policy: SchedPolicy::Other { nice: 0 },
            regs: Regs::default(),
            mem,
            fds: FdTable::new(),
            sig: SignalState::new(),
            program,
            user_rt: UserRuntime::new(),
            cpu_ns: 0,
            start_ns,
            work_done: 0,
            frozen_for_ckpt: false,
            cow_pending: Default::default(),
        }
    }

    pub fn has_exited(&self) -> bool {
        matches!(self.state, ProcState::Zombie { .. })
    }

    pub fn exit_code(&self) -> Option<i32> {
        match self.state {
            ProcState::Zombie { code } => Some(code),
            _ => None,
        }
    }

    pub(crate) fn is_runnable(&self) -> bool {
        matches!(self.state, ProcState::Ready)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fd_table_allocates_lowest_free() {
        let mut t = FdTable::new();
        let a = t.alloc(OfdId(0));
        let b = t.alloc(OfdId(1));
        assert_eq!((a, b), (Fd(0), Fd(1)));
        t.remove(a);
        let c = t.alloc(OfdId(2));
        assert_eq!(c, Fd(0)); // reuses the hole
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn fd_entries_share_ofd_on_dup_semantics() {
        let mut t = FdTable::new();
        let a = t.alloc(OfdId(7));
        // "dup" is modelled by allocating another slot pointing at the same
        // open-file description.
        let entry = t.get(a).unwrap();
        let b = t.alloc(entry.ofd);
        assert_eq!(t.get(a).unwrap().ofd, t.get(b).unwrap().ofd);
    }

    #[test]
    fn iter_is_ordered() {
        let mut t = FdTable::new();
        t.alloc(OfdId(0));
        t.alloc(OfdId(1));
        t.alloc(OfdId(2));
        let fds: Vec<u32> = t.iter().map(|(fd, _)| fd.0).collect();
        assert_eq!(fds, vec![0, 1, 2]);
    }
}
