//! Fundamental identifier and error types shared across the simulator.

use std::fmt;

/// Process identifier. PID 0 is reserved for the idle task and never
/// assigned to a guest process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Pid(pub u32);

impl fmt::Display for Pid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pid{}", self.0)
    }
}

/// Kernel-thread identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct KtId(pub u32);

impl fmt::Display for KtId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "kt{}", self.0)
    }
}

/// File descriptor index within a process's fd table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Fd(pub u32);

impl fmt::Display for Fd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fd{}", self.0)
    }
}

/// Index into the kernel's open-file-description table. Two descriptors
/// created by `dup` share one description (and thus one offset), exactly
/// like Linux.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OfdId(pub u32);

/// A schedulable entity: either a guest process or a kernel thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Task {
    Process(Pid),
    KThread(KtId),
}

impl fmt::Display for Task {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Task::Process(p) => write!(f, "{p}"),
            Task::KThread(k) => write!(f, "{k}"),
        }
    }
}

/// Errors surfaced by the simulator to its embedder. Guest-visible errors
/// (e.g. `EBADF`) are reported as [`Errno`] values through syscall returns
/// instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The referenced process does not exist (or has been reaped).
    NoSuchProcess(Pid),
    /// The referenced kernel thread does not exist.
    NoSuchKThread(KtId),
    /// A guest memory access failed and could not be handled.
    Fault {
        pid: Pid,
        addr: u64,
        kind: FaultKind,
    },
    /// The guest program performed an illegal operation (bad opcode,
    /// division by zero, jump outside text, ...).
    IllegalInstruction { pid: Pid, pc: u64, detail: String },
    /// The kernel ran out of a finite resource (pids, memory budget, ...).
    ResourceExhausted(&'static str),
    /// An embedder-level misuse of the API.
    Usage(String),
    /// The process terminated abnormally (killed by a signal).
    KilledBySignal { pid: Pid, sig: u32 },
    /// A deadline passed without the awaited condition becoming true.
    Timeout(String),
    /// An armed [`crate::faultpoint`] site fired: the injected failure
    /// (fail-stop, torn write, transient) interrupted the operation.
    InjectedFault { site: String },
    /// The cluster node with this index is down: its kernel, and everything
    /// volatile on it, is gone until it is repaired.
    NodeDown(u32),
    /// Post-copy live migration lost its source node before the residual
    /// page set drained: the pages still on the source are unrecoverable
    /// and the half-populated target must be discarded.
    SourceLostMidMigration { residual_pages: u64 },
    /// Iterative pre-copy could not converge: the guest dirtied pages
    /// faster than the link drained them for the whole round budget, and
    /// auto-converge throttling was not enabled (or was exhausted).
    CutoverDiverged { rounds: u32, residual_pages: u64 },
    /// A fork of a world ([`crate::Kernel::fork_world`] and the storage
    /// and mechanism forks beside it) met a part that does not say how it
    /// forks (`holder` names it), or a kernel caught inside a module call.
    WorldNotForkable { holder: String },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::NoSuchProcess(p) => write!(f, "no such process: {p}"),
            SimError::NoSuchKThread(k) => write!(f, "no such kernel thread: {k}"),
            SimError::Fault { pid, addr, kind } => {
                write!(f, "{pid}: unhandled fault at {addr:#x}: {kind:?}")
            }
            SimError::IllegalInstruction { pid, pc, detail } => {
                write!(f, "{pid}: illegal instruction at pc={pc:#x}: {detail}")
            }
            SimError::ResourceExhausted(what) => write!(f, "resource exhausted: {what}"),
            SimError::Usage(msg) => write!(f, "API misuse: {msg}"),
            SimError::KilledBySignal { pid, sig } => {
                write!(f, "{pid} killed by signal {sig}")
            }
            SimError::Timeout(what) => write!(f, "timeout waiting for {what}"),
            SimError::InjectedFault { site } => {
                write!(f, "injected fault fired at {site}")
            }
            SimError::NodeDown(node) => write!(f, "node{node} is down"),
            SimError::SourceLostMidMigration { residual_pages } => {
                write!(
                    f,
                    "migration source lost with {residual_pages} residual pages undrained"
                )
            }
            SimError::CutoverDiverged {
                rounds,
                residual_pages,
            } => {
                write!(
                    f,
                    "pre-copy diverged after {rounds} rounds ({residual_pages} pages still dirty)"
                )
            }
            SimError::WorldNotForkable { holder } => {
                write!(f, "world not forkable: {holder} does not fork")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Why a guest memory access faulted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// No mapping covers the address.
    NotMapped,
    /// Write to a page without write permission.
    WriteProtected,
    /// Read from a page without read permission.
    ReadProtected,
    /// Instruction fetch from a page without execute permission.
    ExecProtected,
}

pub type SimResult<T> = Result<T, SimError>;

/// Guest-visible error numbers, modelled on the usual POSIX set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(i64)]
pub enum Errno {
    EPERM = 1,
    ENOENT = 2,
    ESRCH = 3,
    EINTR = 4,
    EBADF = 9,
    ECHILD = 10,
    EAGAIN = 11,
    ENOMEM = 12,
    EACCES = 13,
    EFAULT = 14,
    EBUSY = 16,
    EEXIST = 17,
    ENOTDIR = 20,
    EINVAL = 22,
    ENFILE = 23,
    EMFILE = 24,
    ENOTTY = 25,
    EFBIG = 27,
    ENOSPC = 28,
    ENOSYS = 38,
    EADDRINUSE = 98,
}

impl Errno {
    /// The conventional negative return value for a failing syscall.
    pub fn as_ret(self) -> i64 {
        -(self as i64)
    }
}

/// Result of a guest syscall: a non-negative value or an errno.
pub type SysResult = Result<u64, Errno>;

/// Encode a [`SysResult`] the way the kernel ABI does: negative errno.
pub fn sysret_encode(r: SysResult) -> i64 {
    match r {
        Ok(v) => v as i64,
        Err(e) => e.as_ret(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errno_encoding_is_negative() {
        assert_eq!(Errno::EINVAL.as_ret(), -22);
        assert_eq!(sysret_encode(Err(Errno::ENOSYS)), -38);
        assert_eq!(sysret_encode(Ok(7)), 7);
    }

    #[test]
    fn display_impls() {
        assert_eq!(Pid(3).to_string(), "pid3");
        assert_eq!(KtId(1).to_string(), "kt1");
        assert_eq!(Fd(2).to_string(), "fd2");
        assert_eq!(Task::Process(Pid(9)).to_string(), "pid9");
        assert_eq!(Task::KThread(KtId(4)).to_string(), "kt4");
    }

    #[test]
    fn sim_error_display_is_informative() {
        let e = SimError::Fault {
            pid: Pid(5),
            addr: 0x1000,
            kind: FaultKind::WriteProtected,
        };
        let s = e.to_string();
        assert!(s.contains("pid5"));
        assert!(s.contains("0x1000"));
    }
}
