//! The kernel's one plug-in registry: loadable kernel modules,
//! static-kernel extensions and user-level checkpoint libraries.
//!
//! Table 1 of the paper has a "kernel module" column: CRAK, UCLiK, CHPOX,
//! ZAP, BLCR, LAM/MPI and PsncR/C are modules, while VMADump, BPROC, EPCKPT,
//! Software Suspend and Checkpoint live in the static part of the kernel.
//! The simulator makes the distinction concrete:
//!
//! * a [`KernelModule`] is loaded/unloaded at run time, may register device
//!   files, `/proc` entries, extension syscalls, kernel threads, and may
//!   claim the default action of new signals;
//! * static-kernel mechanisms use the same trait but are marked
//!   `is_loadable() == false` and are installed at kernel construction —
//!   they cannot be unloaded.
//!
//! The checkpoint library that user-level schemes link (or `LD_PRELOAD`)
//! into the application registers here too, and answers only the
//! [`KernelModule::user_checkpoint`] hook. It runs in process context on
//! the user side of the protection boundary, so everything it learns about
//! the process must be paid for with syscalls. Which side of the boundary a
//! mechanism lives on is its own to declare, not the registry's.
//!
//! [`Kernel::with_module`] and [`Kernel::with_module_mut`] reach a module
//! as its own type: a `KernelModule` is `Any`, so it upcasts to `dyn Any`
//! and downcasts from there, with no glue in the module.

use crate::kernel::Kernel;
use crate::relink::Relink;
use crate::signal::Sig;
use crate::types::{KtId, Pid, SimError, SimResult, SysResult};
use std::any::Any;

/// Status returned by a kernel-thread body after a burst of work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KthreadStatus {
    /// Go back to sleep until woken.
    Sleep,
    /// Stay runnable; call me again.
    Yield,
    /// Terminate the kernel thread.
    Exit,
}

/// A kernel module (or a static-kernel extension).
///
/// All hooks receive `&mut Kernel`; the kernel guarantees the module itself
/// has been temporarily detached from the registry during the call, so
/// re-entrant dispatch to the *same* module is not possible (mirroring
/// non-reentrant module init paths in real kernels).
pub trait KernelModule: Any {
    /// Module name (registry key, also used in `/dev`//`/proc` ownership).
    fn name(&self) -> &str;

    /// Whether this extension can be loaded/unloaded at run time (a
    /// loadable module) or is compiled into the static kernel.
    fn is_loadable(&self) -> bool {
        true
    }

    /// Called when the module is registered.
    fn on_load(&mut self, _k: &mut Kernel) {}

    /// Called when the module is removed.
    fn on_unload(&mut self, _k: &mut Kernel) {}

    /// An extension syscall registered by this module was invoked by `pid`.
    fn ext_syscall(&mut self, _k: &mut Kernel, _pid: Pid, _slot: u32, _args: [u64; 5]) -> SysResult {
        Err(crate::types::Errno::ENOSYS)
    }

    /// `ioctl` on a device file owned by this module.
    fn ioctl(&mut self, _k: &mut Kernel, _pid: Pid, _minor: u32, _req: u64, _arg: u64) -> SysResult {
        Err(crate::types::Errno::ENOTTY)
    }

    /// Read from a `/proc` entry owned by this module.
    fn proc_read(&mut self, _k: &mut Kernel, _pid: Pid, _tag: &str) -> Result<Vec<u8>, crate::types::Errno> {
        Err(crate::types::Errno::ENOSYS)
    }

    /// Write to a `/proc` entry owned by this module.
    fn proc_write(&mut self, _k: &mut Kernel, _pid: Pid, _tag: &str, _data: &[u8]) -> SysResult {
        Err(crate::types::Errno::ENOSYS)
    }

    /// The kernel is about to apply the default action of `sig` to `pid`
    /// and this module has claimed that signal. Return `true` if the module
    /// handled it (e.g. performed a kernel-level checkpoint), `false` to
    /// fall through to the built-in default.
    fn kernel_signal(&mut self, _k: &mut Kernel, _pid: Pid, _sig: Sig) -> bool {
        false
    }

    /// Body of a kernel thread owned by this module. Called when the thread
    /// is scheduled; should perform a bounded burst of work.
    fn kthread_run(&mut self, _k: &mut Kernel, _kt: KtId) -> KthreadStatus {
        KthreadStatus::Sleep
    }

    /// A kernel timer tagged for this module fired.
    fn timer_event(&mut self, _k: &mut Kernel, _tag: u64) {}

    /// A checkpoint trigger reached `pid` in user context, and this is the
    /// library attached to it: either a signal handler the library
    /// installed fired, or the application reached an inserted checkpoint
    /// call site. Runs on the user side — any process state it needs must
    /// be gathered through syscalls, and the library must charge its own
    /// user-mode work.
    fn user_checkpoint(&mut self, _k: &mut Kernel, _pid: Pid) {}

    /// A copy of the module for a fork of its world
    /// ([`Kernel::fork_world`]), its links out of the kernel re-pointed
    /// through `relink`. The default refuses: a module that has not said
    /// how it forks keeps its world from forking.
    fn fork(&self, _relink: &mut Relink) -> SimResult<Box<dyn KernelModule>> {
        Err(SimError::WorldNotForkable {
            holder: format!("module {}", self.name()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Dummy;
    impl KernelModule for Dummy {
        fn name(&self) -> &str {
            "dummy"
        }
    }

    #[test]
    fn default_hooks_refuse_politely() {
        let mut d = Dummy;
        // We cannot build a Kernel in this module without a cycle, so only
        // check the pure defaults here; dispatch is tested in kernel.rs.
        assert!(d.is_loadable());
        assert_eq!(d.name(), "dummy");
        let module: &mut dyn KernelModule = &mut d;
        assert!((module as &mut dyn Any).downcast_mut::<Dummy>().is_some());
        let refused = d.fork(&mut Relink::new(Default::default())).err();
        assert!(
            matches!(&refused, Some(SimError::WorldNotForkable { holder }) if holder == "module dummy"),
            "{:?}",
            refused.map(|e| e.to_string())
        );
    }
}
