//! The aligned-word guest access path is observationally the checked path.
//!
//! `Kernel::mem_load_word` / `mem_store_word` serve a TLB-hitting aligned
//! word through one translation (`AddressSpace::load_word` / `store_word`)
//! and everything else through `check` + the unchecked access. With the
//! soft TLB disabled the word path can never be taken, so a run with it
//! disabled is the reference:
//!
//! * **differential** — every native kernel and one VM program, under every
//!   track mode, with and without copy-on-write pages pending, leave the
//!   same guest bytes, progress, virtual time, kernel counters, dirty sets
//!   and memory counters (the three `tlb_*` ones aside) either way;
//! * **pin** — the enabled run's full counters equal constants captured at
//!   the commit before the word path existed, so they cannot drift either;
//! * **refusal** — a word access the path declines leaves `MemStats` (and
//!   everything else) exactly as it found it.

use ckpt_restart::simos::apps::{AppParams, NativeKind};
use ckpt_restart::simos::asm::Assembler;
use ckpt_restart::simos::cost::CostModel;
use ckpt_restart::simos::mem::{
    AccessOutcome, AddressSpace, MemStats, Prot, TrackMode, VmaKind, DATA_BASE, PAGE_SIZE,
    TEXT_BASE,
};
use ckpt_restart::simos::stats::KernelStats;
use ckpt_restart::simos::{Kernel, Pid};

const MODES: [TrackMode; 4] = [
    TrackMode::Off,
    TrackMode::KernelPage,
    TrackMode::UserSigsegv,
    TrackMode::HardwareLine,
];

/// What a run leaves behind that a guest, an experiment or a report reads.
#[derive(Debug, PartialEq)]
struct Observed {
    data: Vec<u8>,
    work_done: u64,
    now: u64,
    kernel: KernelStats,
    dirty_pages: Vec<u64>,
    dirty_lines: Vec<u64>,
    dirty_bitmap: Vec<u64>,
    mem: MemStats,
}

impl Observed {
    fn without_tlb_counters(mut self) -> Self {
        self.mem.tlb_hits = 0;
        self.mem.tlb_misses = 0;
        self.mem.tlb_flushes = 0;
        self
    }
}

#[derive(Clone, Copy, Debug)]
enum Guest {
    Native(NativeKind),
    Vm,
}

fn native_params() -> AppParams {
    AppParams {
        mem_bytes: 96 * 1024,
        total_steps: u64::MAX,
        writes_per_step: 8,
        write_stride_pages: 4,
        seed: 0x1357_9bdf,
    }
}

/// Aligned `Lw`/`Sw`, unaligned `Lw`/`Sw` (one pair straddling a page
/// boundary) and `Lb`/`Sb` over the data region, in a loop that outlasts
/// the run.
fn mixed_access_program() -> Vec<u32> {
    let mut a = Assembler::new();
    a.li(1, DATA_BASE as u32);
    a.li(7, (DATA_BASE + PAGE_SIZE - 4) as u32);
    a.li(2, 0);
    a.li(3, 200_000);
    a.label("loop");
    a.lw(4, 1, 0);
    a.add(4, 4, 2);
    a.sw(4, 1, 0);
    a.sw(4, 1, 64);
    a.lw(5, 1, 3);
    a.sw(5, 1, 21);
    a.lb(6, 1, 5);
    a.sb(6, 1, 40);
    a.sw(4, 7, 0);
    a.lw(5, 7, 0);
    a.sw(5, 1, 120);
    a.addi(2, 2, 1);
    a.bltu(2, 3, "loop");
    a.halt();
    a.assemble().expect("assembles")
}

fn spawn(k: &mut Kernel, guest: Guest) -> Pid {
    match guest {
        Guest::Native(kind) => k.spawn_native(kind, native_params()).expect("spawn"),
        Guest::Vm => k.spawn_vm(mixed_access_program(), "mixed").expect("spawn"),
    }
}

/// Warm the guest up, arm `mode`, optionally fork (every resident page of
/// the parent becomes copy-on-write pending; the child stays stopped), run
/// on, and observe the parent.
fn run(guest: Guest, mode: TrackMode, forked: bool, tlb: bool) -> Observed {
    let mut k = Kernel::new(CostModel::circa_2005());
    let pid = spawn(&mut k, guest);
    k.process_mut(pid).unwrap().mem.set_tlb_enabled(tlb);
    k.run_for(300_000).expect("warm-up");
    if mode != TrackMode::Off {
        k.process_mut(pid).unwrap().mem.arm_tracking(mode);
    }
    if forked {
        k.fork_process(pid).expect("fork");
        assert!(!k.process(pid).unwrap().cow_pending.is_empty());
    }
    k.run_for(1_200_000).expect("run");
    let p = k.process(pid).expect("guest");
    let span = p
        .mem
        .vmas()
        .iter()
        .find(|v| v.kind == VmaKind::Data)
        .expect("data vma");
    let mut data = vec![0u8; span.len() as usize];
    p.mem.peek(span.start, &mut data);
    Observed {
        data,
        work_done: p.work_done,
        now: k.now(),
        kernel: k.stats.clone(),
        dirty_pages: p.mem.dirty_pages.iter().copied().collect(),
        dirty_lines: p.mem.dirty_lines.iter().copied().collect(),
        dirty_bitmap: p.user_rt.dirty_bitmap.iter().copied().collect(),
        mem: p.mem.stats.clone(),
    }
}

#[test]
fn the_word_path_is_observationally_the_checked_path() {
    let guests = NativeKind::ALL
        .into_iter()
        .map(Guest::Native)
        .chain([Guest::Vm]);
    for guest in guests {
        for mode in MODES {
            for forked in [false, true] {
                let on = run(guest, mode, forked, true);
                let off = run(guest, mode, forked, false);
                let what = format!("{guest:?} under {mode:?}, forked={forked}");
                assert!(on.work_done > 0, "{what}: the guest never ran");
                assert!(on.mem.tlb_hits > 0, "{what}: the TLB never hit");
                assert_eq!(
                    on.without_tlb_counters(),
                    off.without_tlb_counters(),
                    "{what}: the enabled run diverged from the disabled one"
                );
            }
        }
    }
}

/// `(mode, MemStats, KernelStats)` of `run(SparseRandom, mode, forked =
/// true, tlb = true)`, as `{:?}` renders them, captured at commit 4d0f02d —
/// the parent of the change that introduced the word path. The scenario
/// crosses both paths: stores take the checked path while copy-on-write
/// pages are pending and the word path once the last one is resolved.
const PINNED: [(TrackMode, &str, &str); 4] = [
    (
        TrackMode::Off,
        "MemStats { pages_materialized: 25, write_faults_tracked: 0, protection_faults: 0, bytes_written: 834976, bytes_read: 227712, tlb_hits: 265621, tlb_misses: 51, tlb_flushes: 1, dirty_samples: 0, dirty_pages_sampled: 0 }",
        "KernelStats { syscalls: 0, ext_syscalls: 0, context_switches: 1, mm_switches: 1, page_faults: 0, signals_delivered: 0, signals_defaulted: 0, ticks: 0, timer_fires: 0, ioctls: 0, interposed_syscalls: 0, idle_ns: 0, user_ns: 1394736, kernel_ns: 168300, forks: 1, cow_faults: 25 }",
    ),
    (
        TrackMode::KernelPage,
        "MemStats { pages_materialized: 25, write_faults_tracked: 25, protection_faults: 0, bytes_written: 817024, bytes_read: 222816, tlb_hits: 259884, tlb_misses: 101, tlb_flushes: 2, dirty_samples: 0, dirty_pages_sampled: 0 }",
        "KernelStats { syscalls: 0, ext_syscalls: 0, context_switches: 1, mm_switches: 1, page_faults: 25, signals_delivered: 0, signals_defaulted: 0, ticks: 0, timer_fires: 0, ioctls: 0, interposed_syscalls: 0, idle_ns: 0, user_ns: 1364748, kernel_ns: 198300, forks: 1, cow_faults: 25 }",
    ),
    (
        TrackMode::UserSigsegv,
        "MemStats { pages_materialized: 25, write_faults_tracked: 25, protection_faults: 0, bytes_written: 766776, bytes_read: 209112, tlb_hits: 243896, tlb_misses: 101, tlb_flushes: 2, dirty_samples: 0, dirty_pages_sampled: 0 }",
        "KernelStats { syscalls: 50, ext_syscalls: 0, context_switches: 1, mm_switches: 1, page_faults: 25, signals_delivered: 25, signals_defaulted: 0, ticks: 0, timer_fires: 0, ioctls: 0, interposed_syscalls: 0, idle_ns: 0, user_ns: 1280811, kernel_ns: 282300, forks: 1, cow_faults: 25 }",
    ),
    (
        TrackMode::HardwareLine,
        "MemStats { pages_materialized: 25, write_faults_tracked: 0, protection_faults: 0, bytes_written: 834976, bytes_read: 227712, tlb_hits: 265621, tlb_misses: 51, tlb_flushes: 1, dirty_samples: 0, dirty_pages_sampled: 0 }",
        "KernelStats { syscalls: 0, ext_syscalls: 0, context_switches: 1, mm_switches: 1, page_faults: 0, signals_delivered: 0, signals_defaulted: 0, ticks: 0, timer_fires: 0, ioctls: 0, interposed_syscalls: 0, idle_ns: 0, user_ns: 1394736, kernel_ns: 168300, forks: 1, cow_faults: 25 }",
    ),
];

#[test]
fn enabled_tlb_counters_are_the_parent_commits() {
    for (mode, mem, kernel) in PINNED {
        let seen = run(Guest::Native(NativeKind::SparseRandom), mode, true, true);
        assert_eq!(format!("{:?}", seen.mem), mem, "MemStats under {mode:?}");
        assert_eq!(
            format!("{:?}", seen.kernel),
            kernel,
            "KernelStats under {mode:?}"
        );
    }
}

/// A read-only address whose page does not share the data page's slot in
/// the direct-mapped TLB (`TEXT_BASE` itself does).
const RO: u64 = TEXT_BASE + PAGE_SIZE;

/// A space with one resident read-write data page and one resident
/// read-only text page, both translated by the TLB.
fn warm_space() -> AddressSpace {
    let mut a = AddressSpace::new(2 * PAGE_SIZE, 4 * PAGE_SIZE);
    assert_eq!(a.check_write(DATA_BASE, 8), AccessOutcome::Ok);
    a.write_unchecked(DATA_BASE, &0x1122_3344_5566_7788u64.to_le_bytes());
    a.poke(RO, &[0xAB; 8]);
    assert_eq!(a.check_read(RO, 8), AccessOutcome::Ok);
    a
}

/// Whatever a refused access could have disturbed.
fn state(a: &AddressSpace) -> (MemStats, usize, Vec<u64>, Vec<u64>, Vec<u8>) {
    let mut data = vec![0u8; PAGE_SIZE as usize];
    a.peek(DATA_BASE, &mut data);
    (
        a.stats.clone(),
        a.resident_count(),
        a.dirty_pages.iter().copied().collect(),
        a.dirty_lines.iter().copied().collect(),
        data,
    )
}

#[test]
fn a_refused_word_access_touches_nothing() {
    // Cold TLB: nothing is resident, nothing is translated.
    let mut cold = AddressSpace::new(PAGE_SIZE, 4 * PAGE_SIZE);
    let before = state(&cold);
    assert_eq!(cold.load_word(DATA_BASE), None);
    assert!(!cold.store_word(DATA_BASE, 1));
    assert_eq!(state(&cold), before);

    // Warm: the word path is taken, and counts as check-then-access does.
    let mut a = warm_space();
    let s0 = a.stats.clone();
    assert_eq!(a.load_word(DATA_BASE), Some(0x1122_3344_5566_7788));
    assert!(a.store_word(DATA_BASE + 8, 7));
    assert_eq!(a.load_word(DATA_BASE + 8), Some(7));
    assert_eq!(a.stats.tlb_hits, s0.tlb_hits + 6);
    assert_eq!(a.stats.tlb_misses, s0.tlb_misses);
    assert_eq!(a.stats.bytes_read, s0.bytes_read + 16);
    assert_eq!(a.stats.bytes_written, s0.bytes_written + 8);

    // Unaligned: the word might cross a page.
    let before = state(&a);
    assert_eq!(a.load_word(DATA_BASE + 4), None);
    assert!(!a.store_word(DATA_BASE + 4, 1));
    assert_eq!(state(&a), before);

    // A page with no translation yet (resident or not) is the checked
    // path's to resolve.
    assert_eq!(a.load_word(DATA_BASE + PAGE_SIZE), None);
    assert!(!a.store_word(DATA_BASE + PAGE_SIZE, 1));
    assert_eq!(state(&a), before);

    // A read-only page: loads are served, stores refused.
    assert_eq!(a.page_prot(RO / PAGE_SIZE), Some(Prot::RX));
    assert!(a.load_word(RO).is_some());
    let before = state(&a);
    assert!(!a.store_word(RO, 1));
    assert_eq!(state(&a), before);

    // Hardware line logging: only the checked store keeps the log.
    let mut hw = warm_space();
    hw.arm_tracking(TrackMode::HardwareLine);
    let before = state(&hw);
    assert!(!hw.store_word(DATA_BASE, 1));
    assert_eq!(state(&hw), before);
    assert!(hw.load_word(DATA_BASE).is_some());

    // A page write-protected for tracking, its read-only translation
    // cached: the store must reach the fault handler.
    let mut tracked = warm_space();
    tracked.arm_tracking(TrackMode::KernelPage);
    assert_eq!(tracked.check_read(DATA_BASE, 8), AccessOutcome::Ok);
    let before = state(&tracked);
    assert!(!tracked.store_word(DATA_BASE, 1));
    assert_eq!(state(&tracked), before);

    // TLB disabled: never taken.
    let mut off = warm_space();
    off.set_tlb_enabled(false);
    let before = state(&off);
    assert_eq!(off.load_word(DATA_BASE), None);
    assert!(!off.store_word(DATA_BASE, 1));
    assert_eq!(state(&off), before);
}
