//! Kernel-level integration tests: module lifecycle and dispatch through
//! the real syscall paths, signal masking, interval timers, and scheduler
//! class interactions.

use simos::apps::{AppParams, NativeKind};
use simos::cost::CostModel;
use simos::fs::OpenFlags;
use simos::kernel::Kernel;
use simos::module::KernelModule;
use simos::sched::SchedPolicy;
use simos::signal::{Sig, SigAction, UserHandlerKind};
use simos::syscall::{MaskHow, Syscall};
use simos::types::{Errno, Fd, Pid, SysResult};

/// A toy module: a device whose ioctl echoes arg+1, a proc entry that
/// stores writes and serves them back, and one extension syscall that
/// doubles its argument.
struct EchoModule {
    stored: Vec<u8>,
    slot: Option<u32>,
    pub ioctls_seen: u64,
}

impl EchoModule {
    fn new() -> Self {
        EchoModule {
            stored: b"initial".to_vec(),
            slot: None,
            ioctls_seen: 0,
        }
    }
}

impl KernelModule for EchoModule {
    fn name(&self) -> &str {
        "echo"
    }

    fn on_load(&mut self, k: &mut Kernel) {
        k.fs.register_device("/dev/echo", "echo", 7).unwrap();
        k.fs.register_proc("/proc/echo", "echo", "store").unwrap();
        self.slot = Some(k.register_ext_syscall("echo"));
    }

    fn on_unload(&mut self, k: &mut Kernel) {
        let _ = k.fs.unlink("/dev/echo");
        let _ = k.fs.unlink("/proc/echo");
    }

    fn ioctl(&mut self, _k: &mut Kernel, _pid: Pid, minor: u32, req: u64, arg: u64) -> SysResult {
        assert_eq!(minor, 7);
        self.ioctls_seen += 1;
        if req == 1 {
            Ok(arg + 1)
        } else {
            Err(Errno::ENOTTY)
        }
    }

    fn proc_read(&mut self, _k: &mut Kernel, _pid: Pid, tag: &str) -> Result<Vec<u8>, Errno> {
        assert_eq!(tag, "store");
        Ok(self.stored.clone())
    }

    fn proc_write(&mut self, _k: &mut Kernel, _pid: Pid, _tag: &str, data: &[u8]) -> SysResult {
        self.stored = data.to_vec();
        Ok(data.len() as u64)
    }

    fn ext_syscall(&mut self, _k: &mut Kernel, _pid: Pid, slot: u32, args: [u64; 5]) -> SysResult {
        assert_eq!(Some(slot), self.slot);
        Ok(args[0] * 2)
    }
}

fn kernel_with_app() -> (Kernel, Pid) {
    let mut k = Kernel::new(CostModel::circa_2005());
    let mut p = AppParams::small();
    p.total_steps = u64::MAX;
    let pid = k.spawn_native(NativeKind::SparseRandom, p).unwrap();
    (k, pid)
}

#[test]
fn device_ioctl_flows_through_open_fd() {
    let (mut k, pid) = kernel_with_app();
    k.register_module(Box::new(EchoModule::new())).unwrap();
    let fd = Fd(k
        .do_syscall(
            pid,
            Syscall::Open {
                path: "/dev/echo".into(),
                flags: OpenFlags::RDWR,
            },
        )
        .unwrap() as u32);
    let r = k
        .do_syscall(pid, Syscall::Ioctl { fd, req: 1, arg: 41 })
        .unwrap();
    assert_eq!(r, 42);
    // Unknown request propagates the module's errno.
    assert_eq!(
        k.do_syscall(pid, Syscall::Ioctl { fd, req: 99, arg: 0 }),
        Err(Errno::ENOTTY)
    );
    // ioctl on a regular file is ENOTTY.
    let reg = Fd(k
        .do_syscall(
            pid,
            Syscall::Open {
                path: "/tmp/file".into(),
                flags: OpenFlags::RDWR_CREATE,
            },
        )
        .unwrap() as u32);
    assert_eq!(
        k.do_syscall(pid, Syscall::Ioctl { fd: reg, req: 1, arg: 0 }),
        Err(Errno::ENOTTY)
    );
    let n = k
        .with_module_mut::<EchoModule, _>("echo", |m, _| m.ioctls_seen)
        .unwrap();
    assert_eq!(n, 2);
}

#[test]
fn proc_entry_read_write_through_guest_buffers() {
    let (mut k, pid) = kernel_with_app();
    k.register_module(Box::new(EchoModule::new())).unwrap();
    let fd = Fd(k
        .do_syscall(
            pid,
            Syscall::Open {
                path: "/proc/echo".into(),
                flags: OpenFlags::RDWR,
            },
        )
        .unwrap() as u32);
    // Write "hello" from guest memory.
    let buf = simos::apps::ARRAY_BASE;
    k.mem_write(pid, buf, b"hello").unwrap();
    let n = k
        .do_syscall(pid, Syscall::Write { fd, buf, len: 5 })
        .unwrap();
    assert_eq!(n, 5);
    // Read it back (offset starts where the write left it, so reopen).
    let fd2 = Fd(k
        .do_syscall(
            pid,
            Syscall::Open {
                path: "/proc/echo".into(),
                flags: OpenFlags::RDONLY,
            },
        )
        .unwrap() as u32);
    let out = buf + 64;
    let n = k
        .do_syscall(
            pid,
            Syscall::Read {
                fd: fd2,
                buf: out,
                len: 16,
            },
        )
        .unwrap();
    assert_eq!(n, 5);
    let mut got = [0u8; 5];
    k.mem_read(pid, out, &mut got).unwrap();
    assert_eq!(&got, b"hello");
}

#[test]
fn ext_syscall_dispatches_to_module() {
    let (mut k, pid) = kernel_with_app();
    k.register_module(Box::new(EchoModule::new())).unwrap();
    let r = k
        .do_syscall(
            pid,
            Syscall::Ext {
                slot: 0,
                args: [21, 0, 0, 0, 0],
            },
        )
        .unwrap();
    assert_eq!(r, 42);
    assert_eq!(k.stats.ext_syscalls, 1);
}

#[test]
fn unload_removes_device_proc_and_slots() {
    let (mut k, pid) = kernel_with_app();
    k.register_module(Box::new(EchoModule::new())).unwrap();
    k.unload_module("echo").unwrap();
    assert!(!k.fs.exists("/dev/echo"));
    assert!(!k.fs.exists("/proc/echo"));
    assert_eq!(
        k.do_syscall(
            pid,
            Syscall::Ext {
                slot: 0,
                args: [1, 0, 0, 0, 0]
            }
        ),
        Err(Errno::ENOSYS)
    );
}

#[test]
fn sigprocmask_defers_delivery_until_unblocked() {
    let (mut k, pid) = kernel_with_app();
    k.do_syscall(
        pid,
        Syscall::Sigaction {
            sig: Sig::SIGUSR1,
            action: SigAction::Handler {
                kind: UserHandlerKind::CountOnly,
                uses_non_reentrant: false,
            },
        },
    )
    .unwrap();
    k.do_syscall(
        pid,
        Syscall::Sigprocmask {
            how: MaskHow::Block,
            mask: Sig::SIGUSR1.bit(),
        },
    )
    .unwrap();
    k.post_signal(pid, Sig::SIGUSR1);
    k.run_for(30_000_000).unwrap();
    assert_eq!(
        k.process(pid).unwrap().user_rt.handler_invocations,
        0,
        "masked signal must not be delivered"
    );
    // Pending is visible through sigpending.
    let pending = k.do_syscall(pid, Syscall::Sigpending).unwrap();
    assert_ne!(pending & Sig::SIGUSR1.bit(), 0);
    // Unblock → delivered.
    k.do_syscall(
        pid,
        Syscall::Sigprocmask {
            how: MaskHow::Unblock,
            mask: Sig::SIGUSR1.bit(),
        },
    )
    .unwrap();
    k.run_for(30_000_000).unwrap();
    assert_eq!(k.process(pid).unwrap().user_rt.handler_invocations, 1);
}

#[test]
fn setitimer_fires_repeatedly() {
    let (mut k, pid) = kernel_with_app();
    k.do_syscall(
        pid,
        Syscall::Sigaction {
            sig: Sig::SIGALRM,
            action: SigAction::Handler {
                kind: UserHandlerKind::CountOnly,
                uses_non_reentrant: false,
            },
        },
    )
    .unwrap();
    k.do_syscall(
        pid,
        Syscall::Setitimer {
            interval_ns: 20_000_000,
        },
    )
    .unwrap();
    k.run_for(150_000_000).unwrap();
    let n = k.process(pid).unwrap().user_rt.handler_invocations;
    assert!((4..=9).contains(&n), "expected ~7 firings, got {n}");
    // Cancel stops further firings.
    k.do_syscall(pid, Syscall::Setitimer { interval_ns: 0 }).unwrap();
    k.run_for(100_000_000).unwrap();
    assert_eq!(k.process(pid).unwrap().user_rt.handler_invocations, n);
}

#[test]
fn fifo_process_starves_other_until_it_sleeps() {
    let (mut k, other) = kernel_with_app();
    let mut p = AppParams::small();
    p.total_steps = u64::MAX;
    let fifo = k.spawn_native(NativeKind::SparseRandom, p).unwrap();
    k.do_syscall(
        fifo,
        Syscall::SchedSetScheduler {
            pid: fifo,
            policy: SchedPolicy::Fifo { rt_prio: 10 },
        },
    )
    .unwrap();
    let w0 = k.process(other).unwrap().work_done;
    k.run_for(100_000_000).unwrap();
    // The FIFO task never blocks, so the Other task makes no progress.
    assert_eq!(
        k.process(other).unwrap().work_done,
        w0,
        "SCHED_OTHER must starve under a runnable SCHED_FIFO task"
    );
    assert!(k.process(fifo).unwrap().work_done > 0);
}

#[test]
fn nanosleep_blocks_then_resumes() {
    let (mut k, pid) = kernel_with_app();
    k.run_for(1_000_000).unwrap();
    k.do_syscall(pid, Syscall::Nanosleep { ns: 50_000_000 }).unwrap();
    let w = k.process(pid).unwrap().work_done;
    k.run_for(30_000_000).unwrap();
    assert_eq!(k.process(pid).unwrap().work_done, w, "still sleeping");
    k.run_for(40_000_000).unwrap();
    assert!(k.process(pid).unwrap().work_done > w, "woke up on time");
}

#[test]
fn getpid_and_yield_work() {
    let (mut k, pid) = kernel_with_app();
    assert_eq!(k.do_syscall(pid, Syscall::Getpid).unwrap(), pid.0 as u64);
    assert_eq!(k.do_syscall(pid, Syscall::SchedYield).unwrap(), 0);
}

#[test]
fn kill_to_missing_process_is_esrch() {
    let (mut k, pid) = kernel_with_app();
    assert_eq!(
        k.do_syscall(
            pid,
            Syscall::Kill {
                pid: Pid(9999),
                sig: Sig::SIGTERM
            }
        ),
        Err(Errno::ESRCH)
    );
}

#[test]
fn duplicate_module_registration_rejected() {
    let (mut k, _pid) = kernel_with_app();
    k.register_module(Box::new(EchoModule::new())).unwrap();
    assert!(k.register_module(Box::new(EchoModule::new())).is_err());
}
