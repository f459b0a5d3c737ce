//! The syscall interface: the only way user-context code crosses into the
//! kernel.
//!
//! The paper's Section 3 lists the exact calls a user-level checkpointer
//! must issue to reconstruct state the kernel already has: `sbrk(0)` for the
//! heap boundary, `lseek` for file offsets, `sigpending` for pending
//! signals — each paying a full protection-domain round trip. This module
//! defines the call vocabulary; dispatch (and cost charging) lives in
//! [`crate::kernel::Kernel::do_syscall`].

use crate::mem::Prot;
use crate::sched::SchedPolicy;
use crate::signal::{Sig, SigAction};
use crate::types::{Fd, Pid};

/// `lseek` origins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Whence {
    Set,
    Cur,
    End,
}

/// `sigprocmask` operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MaskHow {
    Block,
    Unblock,
    Set,
}

/// A decoded syscall with its arguments.
#[derive(Debug, Clone, PartialEq)]
pub enum Syscall {
    /// Terminate the calling process.
    Exit { code: i32 },
    /// Write `len` bytes from guest address `buf` to `fd`.
    Write { fd: Fd, buf: u64, len: u64 },
    /// Read up to `len` bytes from `fd` into guest address `buf`.
    Read { fd: Fd, buf: u64, len: u64 },
    /// Open a file by path.
    Open { path: String, flags: crate::fs::OpenFlags },
    Close { fd: Fd },
    /// Adjust the program break; `Sbrk { delta: 0 }` queries it — the
    /// user-level checkpointer's heap-boundary probe.
    Sbrk { delta: i64 },
    Getpid,
    /// Send a signal.
    Kill { pid: Pid, sig: Sig },
    /// Install a signal disposition.
    Sigaction { sig: Sig, action: SigAction },
    Sigprocmask { how: MaskHow, mask: u64 },
    /// Query pending signals (returns the pending bitmask).
    Sigpending,
    /// Arm a one-shot SIGALRM after `ns` (0 cancels). Returns 0.
    Alarm { ns: u64 },
    /// Arm a periodic SIGALRM every `interval_ns` (0 cancels). Returns 0.
    Setitimer { interval_ns: u64 },
    /// Sleep for `ns`.
    Nanosleep { ns: u64 },
    Lseek { fd: Fd, offset: i64, whence: Whence },
    Dup { fd: Fd },
    /// Map anonymous memory.
    Mmap { len: u64, prot: Prot },
    Munmap { addr: u64 },
    Mprotect { addr: u64, len: u64, prot: Prot },
    /// Yield the CPU.
    SchedYield,
    /// Fork the calling process.
    Fork,
    /// Device control.
    Ioctl { fd: Fd, req: u64, arg: u64 },
    /// Change scheduling policy of a process.
    SchedSetScheduler { pid: Pid, policy: SchedPolicy },
    /// A module-registered extension syscall (the "new system call"
    /// checkpoint mechanisms of Section 4.1).
    Ext { slot: u32, args: [u64; 5] },
}

impl Syscall {

    /// Whether an `LD_PRELOAD` shim interposes this call (the calls whose
    /// effects user space must mirror to checkpoint without kernel help).
    pub(crate) fn is_interposable(&self) -> bool {
        matches!(
            self,
            Syscall::Open { .. }
                | Syscall::Close { .. }
                | Syscall::Dup { .. }
                | Syscall::Mmap { .. }
                | Syscall::Munmap { .. }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interposable_set_matches_paper_list() {
        assert!(Syscall::Open {
            path: "/x".into(),
            flags: crate::fs::OpenFlags::RDONLY
        }
        .is_interposable());
        assert!(Syscall::Mmap {
            len: 4096,
            prot: Prot::RW
        }
        .is_interposable());
        assert!(Syscall::Dup { fd: Fd(0) }.is_interposable());
        assert!(!Syscall::Getpid.is_interposable());
        assert!(!Syscall::Write {
            fd: Fd(1),
            buf: 0,
            len: 0
        }
        .is_interposable());
    }
}
