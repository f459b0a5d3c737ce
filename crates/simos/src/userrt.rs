//! The modelled user-space checkpoint runtime.
//!
//! User-level checkpointing schemes (Section 3 of the paper) attach code to
//! the application: a checkpoint library linked in (libckpt), signal
//! handlers, or an `LD_PRELOAD` shim that interposes on syscalls to mirror
//! kernel state in user space. The simulator models that attached code with
//! this structure, kept inside the [`crate::pcb::Pcb`] but semantically
//! living *in user space* — everything recorded here could only have been
//! learned through syscalls or interposition, and the costs of learning it
//! are charged when it is recorded.

use crate::types::Fd;
use std::collections::{BTreeMap, BTreeSet};

/// A user-space mirror of one file descriptor's metadata, built by
/// interposing `open`/`dup`/`close` (the paper's example of state that is
/// "inaccessible from user level" without interception).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FdMirror {
    pub path: String,
    pub flags_write: bool,
}

/// A user-space mirror of one dynamic memory mapping, built by interposing
/// `mmap`/`munmap`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MmapMirror {
    pub addr: u64,
    pub len: u64,
    pub name: String,
}

/// State of the modelled user-level runtime.
#[derive(Debug, Clone, Default)]
pub struct UserRuntime {
    /// Whether the LD_PRELOAD interposition shim is active (adds a fixed
    /// overhead to every interposed syscall for the process's lifetime).
    pub interpose_active: bool,
    /// Mirrored fd table (only populated when interposing).
    pub fd_mirror: BTreeMap<u32, FdMirror>,
    /// Mirrored dynamic mappings (only populated when interposing).
    pub mmap_mirror: Vec<MmapMirror>,
    /// User-space dirty-page bitmap maintained by the SIGSEGV tracking
    /// handler (page numbers).
    pub dirty_bitmap: BTreeSet<u64>,
    /// Number of SIGSEGV tracking faults the user handler has serviced.
    pub segv_tracked: u64,
    /// Number of syscalls that went through the interposition shim.
    pub interposed_calls: u64,
    /// Counter incremented by `UserHandlerKind::CountOnly` handlers.
    pub handler_invocations: u64,
    /// Registry name of the checkpoint library linked or preloaded into
    /// this process, if any: the module whose
    /// [`crate::module::KernelModule::user_checkpoint`] hook its triggers
    /// reach.
    pub agent: Option<String>,
    /// If set, the application has been modified/relinked to call its
    /// checkpoint library every N completed steps (the libckpt/VMADump
    /// self-checkpointing pattern — the transparency cost in Table 1).
    pub self_ckpt_every: Option<u64>,
    /// If set, the self-checkpoint call site invokes this extension syscall
    /// (the VMADump "checkpoint yourself via a new system call" pattern)
    /// instead of the library.
    pub self_ckpt_ext: Option<u32>,
}

impl UserRuntime {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record an interposed `open`.
    pub fn mirror_open(&mut self, fd: Fd, path: &str, write: bool) {
        self.fd_mirror.insert(
            fd.0,
            FdMirror {
                path: path.to_string(),
                flags_write: write,
            },
        );
        self.interposed_calls += 1;
    }

    /// Record an interposed `close`.
    pub fn mirror_close(&mut self, fd: Fd) {
        self.fd_mirror.remove(&fd.0);
        self.interposed_calls += 1;
    }

    /// Record an interposed `dup`.
    pub fn mirror_dup(&mut self, from: Fd, to: Fd) {
        if let Some(m) = self.fd_mirror.get(&from.0).cloned() {
            self.fd_mirror.insert(to.0, m);
        }
        self.interposed_calls += 1;
    }

    /// Record an interposed `mmap`.
    pub fn mirror_mmap(&mut self, addr: u64, len: u64, name: &str) {
        self.mmap_mirror.push(MmapMirror {
            addr,
            len,
            name: name.to_string(),
        });
        self.interposed_calls += 1;
    }

    /// Record an interposed `munmap`.
    pub fn mirror_munmap(&mut self, addr: u64) {
        self.mmap_mirror.retain(|m| m.addr != addr);
        self.interposed_calls += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fd_mirror_tracks_open_close_dup() {
        let mut rt = UserRuntime::new();
        rt.mirror_open(Fd(3), "/tmp/x", true);
        rt.mirror_dup(Fd(3), Fd(4));
        assert_eq!(rt.fd_mirror.len(), 2);
        assert_eq!(rt.fd_mirror[&4].path, "/tmp/x");
        rt.mirror_close(Fd(3));
        assert_eq!(rt.fd_mirror.len(), 1);
        assert_eq!(rt.interposed_calls, 3);
    }

    #[test]
    fn mmap_mirror_tracks_mappings() {
        let mut rt = UserRuntime::new();
        rt.mirror_mmap(0x4000_0000, 8192, "anon");
        rt.mirror_mmap(0x4001_0000, 4096, "lib");
        rt.mirror_munmap(0x4000_0000);
        assert_eq!(rt.mmap_mirror.len(), 1);
        assert_eq!(rt.mmap_mirror[0].name, "lib");
    }

    #[test]
    fn dup_of_unmirrored_fd_is_harmless() {
        let mut rt = UserRuntime::new();
        rt.mirror_dup(Fd(9), Fd(10));
        assert!(rt.fd_mirror.is_empty());
        assert_eq!(rt.interposed_calls, 1);
    }
}
