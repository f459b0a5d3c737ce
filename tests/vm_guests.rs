//! VM guest programs under checkpoint/restart: register state, stack
//! frames, heap growth (`sbrk`), file descriptors with shared offsets, and
//! in-handler checkpoints — the state categories Section 4.1 enumerates,
//! exercised through real guest code.

use ckpt_restart::ckpt::mechanism::ksignal::KernelSignalMechanism;
use ckpt_restart::ckpt::mechanism::Mechanism;
use ckpt_restart::ckpt::{shared_storage, RestorePid, TrackerKind};
use ckpt_restart::simos::asm::{self, programs, Assembler};
use ckpt_restart::simos::cost::CostModel;
use ckpt_restart::simos::mem::{DATA_BASE, TEXT_BASE};
use ckpt_restart::simos::signal::Sig;
use ckpt_restart::simos::Kernel;
use ckpt_restart::storage::LocalDisk;

fn mech() -> KernelSignalMechanism {
    KernelSignalMechanism::new(
        "chpox",
        "vmtests",
        shared_storage(LocalDisk::new(1 << 30)),
        TrackerKind::FullOnly,
    )
}

fn peek_u64(k: &Kernel, pid: ckpt_restart::simos::Pid, addr: u64) -> u64 {
    let mut b = [0u8; 8];
    k.process(pid).unwrap().mem.peek(addr, &mut b);
    u64::from_le_bytes(b)
}

#[test]
fn file_writer_completes_uninterrupted() {
    let mut k = Kernel::new(CostModel::circa_2005());
    let pid = k.spawn_vm(programs::file_writer(), "fwriter").unwrap();
    let code = k.run_until_exit(pid).unwrap();
    assert_eq!(code, 16, "two 8-byte writes");
    // The file contains the counter twice (offset advanced between writes).
    let data = k.fs.read_file("/tmp/v").unwrap();
    assert_eq!(data.len(), 16);
    assert_eq!(u64::from_le_bytes(data[0..8].try_into().unwrap()), 12345);
    assert_eq!(u64::from_le_bytes(data[8..16].try_into().unwrap()), 12345);
}

#[test]
fn file_writer_survives_checkpoint_between_writes() {
    // Checkpoint after the first write syscall, crash, restore, finish:
    // the fd (and crucially its offset) must be rebuilt so the second
    // write lands at byte 8, not byte 0.
    let mut k = Kernel::new(CostModel::circa_2005());
    let pid = k.spawn_vm(programs::file_writer(), "fwriter").unwrap();
    let mut m = mech();
    m.prepare(&mut k, pid).unwrap();
    // Run until the file has exactly 8 bytes (first write done).
    while k.fs.file_len("/tmp/v").unwrap_or(0) < 8 {
        k.run_for(200).unwrap();
        assert!(!k.process(pid).unwrap().has_exited(), "overshot");
    }
    let mut opts_done = false;
    if k.fs.file_len("/tmp/v").unwrap() == 8 {
        m.checkpoint(&mut k, pid).unwrap();
        opts_done = true;
    }
    assert!(opts_done);
    drop(k);
    let mut k2 = Kernel::new(CostModel::circa_2005());
    let r = m.restart(&mut k2, RestorePid::Fresh).unwrap();
    let code = k2.run_until_exit(r.pid).unwrap();
    assert_eq!(code, 16);
    // NOTE: the image did not carry file contents (save_file_contents is
    // off), so the restored fd points at a recreated empty file with
    // offset 8 — the second write must land at byte 8.
    let data = k2.fs.read_file("/tmp/v").unwrap();
    assert_eq!(data.len(), 16);
    assert_eq!(
        u64::from_le_bytes(data[8..16].try_into().unwrap()),
        12345,
        "offset was not restored"
    );
}

#[test]
fn heap_user_completes_and_checkpoint_preserves_brk() {
    // Reference run.
    let mut kr = Kernel::new(CostModel::circa_2005());
    let rp = kr.spawn_vm(programs::heap_user(), "heap").unwrap();
    assert_eq!(kr.run_until_exit(rp).unwrap(), 0);
    let expected = peek_u64(&kr, rp, DATA_BASE);
    assert_eq!(expected, (0..64).sum::<u64>());

    // Checkpoint mid-fill, restore, finish.
    let mut k = Kernel::new(CostModel::circa_2005());
    let pid = k.spawn_vm(programs::heap_user(), "heap").unwrap();
    let mut m = mech();
    m.prepare(&mut k, pid).unwrap();
    k.run_for(100).unwrap(); // partway through the fill loop
    assert!(!k.process(pid).unwrap().has_exited());
    m.checkpoint(&mut k, pid).unwrap();
    drop(k);
    let mut k2 = Kernel::new(CostModel::circa_2005());
    let r = m.restart(&mut k2, RestorePid::Fresh).unwrap();
    assert_eq!(k2.run_until_exit(r.pid).unwrap(), 0);
    assert_eq!(peek_u64(&k2, r.pid, DATA_BASE), expected);
}

#[test]
fn signal_handler_state_survives_restart() {
    // A guest with an installed handler: checkpoint after the handler has
    // run once; after restore, a new signal must still reach the restored
    // handler (dispositions are part of the image).
    let mut k = Kernel::new(CostModel::circa_2005());
    let pid = k.spawn_vm(programs::signal_loop(10), "sigloop").unwrap();
    let mut m = mech();
    m.prepare(&mut k, pid).unwrap();
    k.run_for(5_000_000).unwrap();
    k.post_signal(pid, Sig(10));
    k.run_for(10_000_000).unwrap();
    assert_eq!(peek_u64(&k, pid, DATA_BASE + 8), 1, "handler ran once");
    m.checkpoint(&mut k, pid).unwrap();
    drop(k);
    let mut k2 = Kernel::new(CostModel::circa_2005());
    let r = m.restart(&mut k2, RestorePid::Fresh).unwrap();
    k2.run_for(5_000_000).unwrap();
    k2.post_signal(r.pid, Sig(10));
    k2.run_for(10_000_000).unwrap();
    assert_eq!(
        peek_u64(&k2, r.pid, DATA_BASE + 8),
        2,
        "restored handler did not run"
    );
    // And the main loop kept counting.
    assert!(peek_u64(&k2, r.pid, DATA_BASE) > 0);
}

#[test]
fn malloc_heavy_guest_checkpoints_inside_nonreentrant_region() {
    // System-level checkpointing does not care that the guest sits inside
    // malloc — no reentrancy hazard is recorded (the kernel is reentrant);
    // the restored guest continues correctly.
    let mut k = Kernel::new(CostModel::circa_2005());
    let pid = k.spawn_vm(programs::malloc_heavy(), "mheavy").unwrap();
    let mut m = mech();
    m.prepare(&mut k, pid).unwrap();
    k.run_for(2_000_000).unwrap();
    let counter_before = peek_u64(&k, pid, DATA_BASE);
    m.checkpoint(&mut k, pid).unwrap();
    assert!(
        k.process(pid).unwrap().sig.hazards.is_empty(),
        "kernel-level checkpoint must not trip user reentrancy hazards"
    );
    drop(k);
    let mut k2 = Kernel::new(CostModel::circa_2005());
    let r = m.restart(&mut k2, RestorePid::Fresh).unwrap();
    // The non-reentrant depth travelled with the image.
    k2.run_for(2_000_000).unwrap();
    assert!(peek_u64(&k2, r.pid, DATA_BASE) > counter_before);
}

/// Every instruction of the mini-ISA with edge operands: wrapping
/// add/sub/mul, shifts by 64 and more, taken and untaken branches of each
/// kind, a `jal` / `jr` call through the link register. `r13` collects one
/// bit per fall-through taken, so the branch outcomes are in the pinned
/// registers too. The program ends in a self-loop, so the process is live
/// when the run stops and its registers can be read.
fn every_instruction() -> Vec<u32> {
    let mut a = Assembler::new();
    a.li(1, 0xFFFF_FFFF);
    a.li(2, 32);
    a.shl(3, 1, 2); // r3 = 0xFFFF_FFFF_0000_0000
    a.or(1, 3, 1); // r1 = u64::MAX
    a.li(2, 2);
    a.add(4, 1, 2); // MAX + 2 wraps to 1
    a.sub(5, 2, 1); // 2 - MAX wraps to 3
    a.mul(6, 1, 1); // MAX * MAX wraps to 1
    a.li(7, 7);
    a.divu(7, 1, 7); // MAX / 7
    a.li(8, 64);
    a.shl(9, 3, 8); // a shift by 64 is a shift by 0
    a.li(8, 65);
    a.shr(10, 3, 8); // a shift by 65 is a shift by 1
    a.xor(11, 1, 3); // 0x0000_0000_FFFF_FFFF
    a.and(12, 3, 11); // disjoint halves: 0
    a.mov(0, 12);
    a.addi(0, 0, -1); // 0 - 1 wraps to MAX
    a.li(13, 0);
    a.beq(4, 6, "beq_taken"); // 1 == 1
    a.addi(13, 13, 1);
    a.label("beq_taken");
    a.beq(4, 5, "beq_skip"); // 1 != 3: falls through
    a.addi(13, 13, 2);
    a.label("beq_skip");
    a.bne(4, 5, "bne_taken"); // 1 != 3
    a.addi(13, 13, 4);
    a.label("bne_taken");
    a.bne(4, 6, "bne_skip"); // 1 == 1: falls through
    a.addi(13, 13, 8);
    a.label("bne_skip");
    a.bltu(4, 1, "bltu_taken"); // 1 < MAX unsigned
    a.addi(13, 13, 16);
    a.label("bltu_taken");
    a.bltu(1, 4, "bltu_skip"); // MAX < 1 is false: falls through
    a.addi(13, 13, 32);
    a.label("bltu_skip");
    a.jal("callee");
    a.addi(13, 13, 64); // runs once the callee returns
    a.jmp("end");
    a.label("callee");
    a.li(2, 99);
    a.jr(asm::LR);
    a.label("end");
    a.jmp("end");
    a.assemble().expect("assembles")
}

#[test]
fn every_instruction_computes_its_pinned_state() {
    let mut k = Kernel::new(CostModel::circa_2005());
    let pid = k.spawn_vm(every_instruction(), "isa").unwrap();
    k.run_for(10_000).unwrap();
    let p = k.process(pid).unwrap();
    const MAX: u64 = u64::MAX;
    const HIGH: u64 = 0xFFFF_FFFF_0000_0000;
    assert_eq!(
        p.regs.gpr,
        [
            MAX,                   // r0: 0 + (-1)
            MAX,                   // r1
            99,                    // r2: set by the callee
            HIGH,                  // r3
            1,                     // r4: MAX + 2
            3,                     // r5: 2 - MAX
            1,                     // r6: MAX * MAX
            MAX / 7,               // r7
            65,                    // r8
            HIGH,                  // r9: HIGH << 64
            HIGH >> 1,             // r10: HIGH >> 65
            0xFFFF_FFFF,           // r11
            0,                     // r12
            2 + 8 + 32 + 64,       // r13: the three untaken branches, the return
            0x7FFF_FFC0,           // r14: the stack pointer spawn set
            0x40_0084,             // r15: jal's return address
        ]
    );
    assert_eq!(p.regs.pc, 0x40_0094, "parked on the final self-loop");
    assert_eq!(p.work_done, 4700);
    assert_eq!(k.now(), 10_000);
}

/// `divu` by zero is an illegal instruction: the process never gets past
/// it, its destination register keeps its value and its work stops.
#[test]
fn divide_by_zero_stops_the_guest_at_the_divu() {
    let mut a = Assembler::new();
    a.li(1, 5);
    a.li(2, 0);
    a.li(3, 77);
    a.divu(3, 1, 2);
    a.halt();
    let mut k = Kernel::new(CostModel::circa_2005());
    let pid = k.spawn_vm(a.assemble().unwrap(), "div0").unwrap();
    k.run_for(10_000).unwrap();
    let p = k.process(pid).unwrap();
    assert!(!p.has_exited());
    assert_eq!(p.regs.pc, TEXT_BASE + 3 * 4, "stuck on the divu");
    assert_eq!(p.regs.gpr[..4], [0, 5, 0, 77]);
    assert_eq!(p.work_done, 3, "only the three li retired");
    assert_eq!(k.now(), 10_000);
}
