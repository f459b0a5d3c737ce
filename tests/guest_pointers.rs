//! A wild guest pointer or length must fault or fail the call — never wrap
//! an address computation, materialise a page no VMA covers, or size a host
//! allocation.
//!
//! Each case reproduced a defect at commit 4d0f02d: a range ending past
//! `u64::MAX` panicked `AddressSpace::check` in debug builds and passed it
//! in release builds (the page range wrapped to empty, and the write that
//! followed materialised two stray pages); `read`/`write` sized a `Vec`
//! from the guest's `len` before validating anything, as did the VM's
//! `open` from its path length. One more did at 859148b: `lseek` added its
//! operands unchecked and accepted any non-negative position, and the write
//! that followed resized the file to reach it. And the time syscalls did at
//! 3398c33: `alarm`, `setitimer` and `nanosleep` added the guest's delay to
//! the clock unchecked, as did restart re-arming an image's timers, so
//! `u64::MAX` panicked the simulator in debug builds and wrapped into the
//! past in release builds (an `alarm` that kills at once, a `nanosleep`
//! that returns at once).

use ckpt_restart::ckpt::capture::{capture_image, restore_image, CaptureOptions, RestoreOptions};
use ckpt_restart::image::TimerRecord;
use ckpt_restart::simos::apps::{AppParams, NativeKind};
use ckpt_restart::simos::asm::Assembler;
use ckpt_restart::simos::cost::CostModel;
use ckpt_restart::simos::fs::{OpenFlags, MAX_FILE_BYTES};
use ckpt_restart::simos::mem::{
    AccessOutcome, AddressSpace, Prot, TrackMode, DATA_BASE, PAGE_SIZE, STACK_TOP,
};
use ckpt_restart::simos::pcb::ProcState;
use ckpt_restart::simos::signal::Sig;
use ckpt_restart::simos::syscall::{Syscall, Whence};
use ckpt_restart::simos::types::{Errno, FaultKind};
use ckpt_restart::simos::vm::sysno;
use ckpt_restart::simos::{Fd, Kernel};

const SEGV_EXIT: i32 = 128 + 11;

fn not_mapped(outcome: AccessOutcome) -> bool {
    matches!(
        outcome,
        AccessOutcome::Fault {
            kind: FaultKind::NotMapped,
            ..
        }
    )
}

#[test]
fn a_range_that_wraps_or_leaves_the_layout_faults_and_materialises_nothing() {
    let mut a = AddressSpace::new(PAGE_SIZE, 4 * PAGE_SIZE);
    assert!(not_mapped(a.check_write(u64::MAX - 3, 8)));
    assert!(not_mapped(a.check_read(u64::MAX, 1)));
    assert!(not_mapped(a.check_read(DATA_BASE, u64::MAX)));
    // The last stack word is fine; one byte more reaches past the top.
    assert_eq!(a.check_write(STACK_TOP - 8, 8), AccessOutcome::Ok);
    assert_eq!(
        a.check_write(STACK_TOP - 8, 9),
        AccessOutcome::Fault {
            addr: STACK_TOP - PAGE_SIZE,
            kind: FaultKind::NotMapped
        }
    );
    assert_eq!(a.resident_count(), 0);
    // `mprotect` takes the same guest-supplied pair.
    assert!(a
        .mprotect(u64::MAX - PAGE_SIZE + 1, 2 * PAGE_SIZE, Prot::R)
        .is_err());
    assert!(a.mprotect(DATA_BASE, u64::MAX, Prot::R).is_err());
}

/// Run `program` to its end and return (exit code, resident pages).
fn run_vm(build: impl FnOnce(&mut Assembler)) -> (Option<i32>, usize) {
    let mut a = Assembler::new();
    build(&mut a);
    a.halt();
    let mut k = Kernel::new(CostModel::circa_2005());
    let pid = k
        .spawn_vm(a.assemble().expect("assembles"), "wild")
        .unwrap();
    k.run_for(1_000_000).expect("the simulator survives");
    let p = k.process(pid).expect("guest");
    (p.exit_code(), p.mem.resident_count())
}

#[test]
fn a_vm_store_through_minus_four_is_a_segv_not_two_stray_pages() {
    let (exit, resident) = run_vm(|a| {
        a.li(1, 0).addi(1, 1, -4).li(2, 7).sw(2, 1, 0);
    });
    assert_eq!(exit, Some(SEGV_EXIT));
    assert_eq!(resident, 0);
    let (exit, resident) = run_vm(|a| {
        a.li(1, 0).addi(1, 1, -4).lw(2, 1, 0);
    });
    assert_eq!(exit, Some(SEGV_EXIT));
    assert_eq!(resident, 0);
}

#[test]
fn a_vm_open_with_a_wild_path_length_is_a_segv_not_an_allocation() {
    let (exit, _) = run_vm(|a| {
        a.li(0, sysno::OPEN as u32)
            .li(1, DATA_BASE as u32)
            .li(2, 0)
            .addi(2, 2, -1)
            .li(3, 1)
            .sys();
    });
    assert_eq!(exit, Some(SEGV_EXIT));
}

#[test]
fn read_and_write_refuse_an_extent_the_guest_does_not_map() {
    let mut k = Kernel::new(CostModel::circa_2005());
    let params = AppParams::small();
    let pid = k
        .spawn_native(NativeKind::SparseRandom, params.clone())
        .unwrap();
    let open = Syscall::Open {
        path: "/tmp/f".into(),
        flags: OpenFlags::RDWR_CREATE,
    };
    let fd = Fd(k.do_syscall(pid, open).unwrap() as u32);
    let buf = DATA_BASE + 64;
    k.mem_write(pid, buf, b"payload!").unwrap();
    assert_eq!(k.do_syscall(pid, Syscall::Write { fd, buf, len: 8 }), Ok(8));

    // The data VMA is the header page, the array and one page more; the
    // hole before the heap starts right after it.
    let data_end = DATA_BASE + PAGE_SIZE + params.mem_bytes + PAGE_SIZE;
    let below_hole = (data_end - PAGE_SIZE, 2 * PAGE_SIZE);
    let wild = [(buf, u64::MAX), (buf, 1 << 40), below_hole];
    let syscalls = k.stats.syscalls;
    for (buf, len) in wild {
        let w = k.do_syscall(pid, Syscall::Write { fd, buf, len });
        assert_eq!(w, Err(Errno::EFAULT), "write({buf:#x}, {len:#x})");
        let r = k.do_syscall(pid, Syscall::Read { fd, buf, len });
        assert_eq!(r, Err(Errno::EFAULT), "read({buf:#x}, {len:#x})");
    }
    assert_eq!(k.stats.syscalls, syscalls + 6);
    assert_eq!(k.fs.read_file("/tmp/f").unwrap(), b"payload!");

    // A destination write-protected only for tracking is mapped: the read
    // lands, and the page is dirty.
    k.process_mut(pid)
        .unwrap()
        .mem
        .arm_tracking(TrackMode::KernelPage);
    let rewind = Syscall::Lseek {
        fd,
        offset: 0,
        whence: Whence::Set,
    };
    k.do_syscall(pid, rewind).unwrap();
    let dst = DATA_BASE + 512;
    assert_eq!(
        k.do_syscall(
            pid,
            Syscall::Read {
                fd,
                buf: dst,
                len: 4096
            }
        ),
        Ok(8),
        "a read is sized by what the file supplies"
    );
    let p = k.process(pid).unwrap();
    assert!(p.mem.dirty_pages.contains(&(dst / PAGE_SIZE)));
    let mut got = [0u8; 8];
    p.mem.peek(dst, &mut got);
    assert_eq!(&got, b"payload!");
}

#[test]
fn a_seek_past_the_file_size_cap_then_a_write_is_efbig_not_an_allocation() {
    let mut k = Kernel::new(CostModel::circa_2005());
    let pid = k
        .spawn_native(NativeKind::SparseRandom, AppParams::small())
        .unwrap();
    let open = Syscall::Open {
        path: "/tmp/f".into(),
        flags: OpenFlags::RDWR_CREATE,
    };
    let fd = Fd(k.do_syscall(pid, open).unwrap() as u32);
    let buf = DATA_BASE + 64;
    k.mem_write(pid, buf, b"payload!").unwrap();
    assert_eq!(k.do_syscall(pid, Syscall::Write { fd, buf, len: 8 }), Ok(8));
    let seek = |k: &mut Kernel, offset: i64, whence: Whence| {
        k.do_syscall(pid, Syscall::Lseek { fd, offset, whence })
    };

    // A position whose sum leaves `i64` is no position; the offset stays.
    assert_eq!(seek(&mut k, i64::MAX, Whence::Cur), Err(Errno::EINVAL));
    assert_eq!(seek(&mut k, i64::MAX, Whence::End), Err(Errno::EINVAL));
    assert_eq!(seek(&mut k, -9, Whence::End), Err(Errno::EINVAL));
    assert_eq!(seek(&mut k, 0, Whence::Cur), Ok(8));

    // Any position that fits is accepted; a write that would end past the
    // cap is refused and leaves the file as it was.
    for pos in [1u64 << 62, MAX_FILE_BYTES, MAX_FILE_BYTES - 7] {
        assert_eq!(seek(&mut k, pos as i64, Whence::Set), Ok(pos));
        let w = k.do_syscall(pid, Syscall::Write { fd, buf, len: 8 });
        assert_eq!(w, Err(Errno::EFBIG), "write at {pos:#x}");
    }
    assert_eq!(k.fs.read_file("/tmp/f").unwrap(), b"payload!");

    // The same two calls from a VM guest: `halt` exits with r0, the write's
    // return value.
    let efbig = Errno::EFBIG.as_ret() as i32;
    let (exit, _) = run_vm(|a| {
        let path = b"/tmp/v";
        a.li(5, DATA_BASE as u32);
        for (i, ch) in path.iter().enumerate() {
            a.li(4, *ch as u32).sb(4, 5, i as i8);
        }
        a.li(0, sysno::OPEN as u32)
            .mov(1, 5)
            .li(2, path.len() as u32)
            .li(3, 2 | 4)
            .sys()
            .mov(7, 0);
        a.li(2, 1).li(3, 62).shl(2, 2, 3);
        a.li(0, sysno::LSEEK as u32).mov(1, 7).li(3, 0).sys();
        a.li(0, sysno::WRITE as u32)
            .mov(1, 7)
            .li(2, DATA_BASE as u32)
            .li(3, 1)
            .sys();
    });
    assert_eq!(exit, Some(efbig));
}

/// A guest that never exits, a millisecond into its run.
fn running_native() -> (Kernel, ckpt_restart::simos::Pid) {
    let mut k = Kernel::new(CostModel::circa_2005());
    let params = AppParams {
        total_steps: u64::MAX,
        ..AppParams::small()
    };
    let pid = k.spawn_native(NativeKind::SparseRandom, params).unwrap();
    k.run_for(1_000_000).unwrap();
    (k, pid)
}

/// Thirty virtual ms of the never-exiting guest after `call`: the kernel,
/// the guest, and the steps the guest completed in that window.
fn thirty_ms_after(call: Syscall) -> (Kernel, ckpt_restart::simos::Pid, u64) {
    let (mut k, pid) = running_native();
    assert_eq!(k.do_syscall(pid, call), Ok(0));
    let before = k.process(pid).unwrap().work_done;
    k.run_for(30_000_000).unwrap();
    let steps = k.process(pid).unwrap().work_done - before;
    (k, pid, steps)
}

/// The SIGALRM is armed at the end of time, so the caller (default action:
/// terminate) runs on.
fn assert_armed_and_never_fired(call: Syscall) {
    let (k, pid, steps) = thirty_ms_after(call);
    assert_eq!(k.timers.next_at(), Some(u64::MAX));
    assert_eq!(k.stats.timer_fires, 0);
    assert_eq!(k.process(pid).unwrap().exit_code(), None);
    assert!(steps > 0);
}

#[test]
fn an_alarm_past_the_end_of_virtual_time_never_fires() {
    assert_armed_and_never_fired(Syscall::Alarm { ns: u64::MAX });
}

#[test]
fn an_itimer_past_the_end_of_virtual_time_never_fires() {
    assert_armed_and_never_fired(Syscall::Setitimer {
        interval_ns: u64::MAX,
    });
}

#[test]
fn a_nanosleep_past_the_end_of_virtual_time_never_returns() {
    let (k, pid, steps) = thirty_ms_after(Syscall::Nanosleep { ns: u64::MAX });
    let p = k.process(pid).unwrap();
    assert_eq!(p.state, ProcState::Sleeping { until: u64::MAX });
    assert_eq!(steps, 0);
}

/// `syscall(r1 = u64::MAX)`, then `exit(7)`.
fn vm_delay_call(a: &mut Assembler, sysno: u64) {
    a.li(0, sysno as u32).li(1, 0).addi(1, 1, -1).sys().li(0, 7);
}

#[test]
fn a_vm_alarm_past_the_end_of_virtual_time_is_not_an_immediate_sigalrm() {
    // The guest reaches its own exit code, not 128 + SIGALRM.
    let (exit, _) = run_vm(|a| vm_delay_call(a, sysno::ALARM));
    assert_eq!(exit, Some(7));
}

#[test]
fn a_vm_nanosleep_past_the_end_of_virtual_time_never_returns() {
    let mut a = Assembler::new();
    vm_delay_call(&mut a, sysno::NANOSLEEP);
    a.halt();
    let mut k = Kernel::new(CostModel::circa_2005());
    let pid = k
        .spawn_vm(a.assemble().expect("assembles"), "sleeper")
        .unwrap();
    k.run_for(30_000_000).expect("the simulator survives");
    let p = k.process(pid).unwrap();
    assert_eq!(p.state, ProcState::Sleeping { until: u64::MAX });
}

#[test]
fn a_crafted_image_timer_past_the_end_of_time_restores_and_never_fires() {
    let (mut k1, pid) = running_native();
    k1.freeze_process(pid).unwrap();
    let mut img = capture_image(&mut k1, pid, &CaptureOptions::full("t", 1)).unwrap();
    img.timers.push(TimerRecord {
        in_ns: u64::MAX,
        period_ns: u64::MAX,
        sig: Sig::SIGALRM.0,
    });
    // Restored on a kernel whose clock has moved: `now + in_ns` leaves u64.
    let (mut k2, _) = running_native();
    let restored = restore_image(&mut k2, &img, &RestoreOptions::default()).unwrap();
    assert_eq!(k2.timers.next_at(), Some(u64::MAX));
    k2.run_for(30_000_000).unwrap();
    assert_eq!(k2.process(restored).unwrap().exit_code(), None);
    assert_eq!(k2.stats.timer_fires, 0);
    // A periodic timer that does come due re-arms without leaving u64.
    let mut wheel = k2.timers.clone();
    let due = wheel.take_due(u64::MAX);
    assert_eq!(due.len(), 1);
    assert_eq!(wheel.next_at(), Some(u64::MAX));
}
