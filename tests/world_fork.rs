//! Fork ≡ rebuild, for the whole world: a `Kernel::fork_world` copy taken
//! at any instant is indistinguishable from a kernel rebuilt from scratch
//! and driven to that instant, and stays so under any further schedule.
//!
//! This is what lets a crash-matrix column boot once and start every cell
//! from the copy (`ckpt_core::crashpoint`). Three worlds per seed: A is
//! built and run through a random prefix of operations, B is forked from
//! it, C is rebuilt and run through the same prefix. All three then take
//! the same random suffix, and after every operation everything a kernel
//! exposes must agree: clock, `KernelStats`, run queue, pending timers, the
//! filesystem, kernel threads, and per process the whole PCB (registers,
//! fd table and the open files behind it, signal state, `MemStats` with its
//! TLB counters, the soft TLB itself, dirty sets) and every resident guest
//! byte. The kernel's private bookkeeping (`next_tick_at`, `next_pid`,
//! `last_task`, `active_mm`, …) is not readable, so the suffix makes it
//! observable: a stale tick deadline moves `stats.ticks`, a stale pid
//! counter moves the pid the next spawn returns, a stale `last_task` a
//! context switch.
//! Shown to bite on scratch copies: a `fork_world` that resets any one
//! field fails here, except the three nothing can observe in a world that
//! is allowed to fork — `current` (set only inside a dispatch) and the
//! `ext_slots` / `signal_claims` tables (consulted only to find a loaded
//! module, and a world with one refuses).

mod common;

use ckpt_restart::ckpt::mechanism::family;
use ckpt_restart::ckpt::{shared_storage, TrackerKind};
use ckpt_restart::simos::apps::{AppParams, NativeKind};
use ckpt_restart::simos::asm::programs;
use ckpt_restart::simos::cost::CostModel;
use ckpt_restart::simos::fs::OpenFlags;
use ckpt_restart::simos::mem::{TrackMode, DATA_BASE};
use ckpt_restart::simos::signal::{Sig, SigAction};
use ckpt_restart::simos::syscall::Syscall;
use ckpt_restart::simos::sched::SchedPolicy;
use ckpt_restart::simos::{Fd, Kernel, KtId, Pid, SimError};
use ckpt_restart::storage::LocalDisk;
use common::Gen;

/// What a world starts with.
#[derive(Debug, Clone)]
enum Guest {
    Native(NativeKind, AppParams),
    Vm(&'static str),
}

/// One step of a schedule. `who` indexes the world's pid list modulo its
/// length, so the same op names the same process in every world.
#[derive(Debug, Clone)]
enum Op {
    Run(u64),
    Call(usize, Syscall),
    /// `open` + `write` from the guest's data page; the fd stays open.
    FileWrite(usize, u64),
    Signal(usize, Sig),
    Track(usize, Option<TrackMode>),
    Freeze(usize),
    Thaw(usize),
    Spawn(Guest),
    Fork(usize),
    /// `wait` on a zombie: its pid is free again, below the pid counter.
    Reap(usize),
    /// What a module would own, on behalf of one that is never loaded: an
    /// extension-syscall slot and a woken kernel thread (it dies on its
    /// first dispatch).
    Orphans,
}

fn random_guest(g: &mut Gen) -> Guest {
    match g.range(0, 5) {
        0 => Guest::Vm("signal_loop"),
        1 => Guest::Vm("counter"),
        2 => Guest::Vm("malloc_heavy"),
        _ => {
            let kind = NativeKind::ALL[g.range(0, NativeKind::ALL.len() as u64) as usize];
            let params = AppParams {
                mem_bytes: 4096 * g.range(2, 12),
                total_steps: u64::MAX,
                writes_per_step: g.range(1, 24),
                write_stride_pages: g.range(1, 4),
                seed: g.u64(),
            };
            Guest::Native(kind, params)
        }
    }
}

fn random_op(g: &mut Gen) -> Op {
    let who = g.range(0, 8) as usize;
    match g.range(0, 19) {
        0..=5 => Op::Run(g.range(5_000, 600_000)),
        6 => Op::Call(
            who,
            Syscall::Alarm {
                ns: g.range(0, 900_000),
            },
        ),
        7 => Op::Call(
            who,
            Syscall::Setitimer {
                interval_ns: g.range(50_000, 400_000),
            },
        ),
        8 => Op::Call(
            who,
            Syscall::Nanosleep {
                ns: g.range(1, 300_000),
            },
        ),
        9 => Op::Call(
            who,
            Syscall::Sigaction {
                sig: Sig::SIGALRM,
                action: SigAction::Ignore,
            },
        ),
        10 => Op::FileWrite(who, g.range(1, 600)),
        11 => Op::Signal(who, [Sig::SIGUSR1, Sig::SIGSTOP, Sig::SIGCONT][g.range(0, 3) as usize]),
        12 => Op::Track(
            who,
            [
                None,
                Some(TrackMode::KernelPage),
                Some(TrackMode::HardwareLine),
            ][g.range(0, 3) as usize],
        ),
        13 => {
            if g.flag() {
                Op::Freeze(who)
            } else {
                Op::Thaw(who)
            }
        }
        14 => Op::Spawn(random_guest(g)),
        15 => Op::Fork(who),
        16 => Op::Call(who, Syscall::Exit { code: 3 }),
        17 => Op::Reap(who),
        _ => Op::Orphans,
    }
}

fn spawn(k: &mut Kernel, guest: &Guest) -> Pid {
    match guest {
        Guest::Native(kind, params) => k.spawn_native(*kind, params.clone()),
        Guest::Vm("signal_loop") => k.spawn_vm(programs::signal_loop(Sig::SIGUSR1.0), "sigloop"),
        Guest::Vm("counter") => k.spawn_vm(programs::counter(u32::MAX), "counter"),
        Guest::Vm(_) => k.spawn_vm(programs::malloc_heavy(), "malloc"),
    }
    .expect("spawn")
}

/// Apply `op`; what it returned is part of what the worlds must agree on.
fn apply(k: &mut Kernel, pids: &mut Vec<Pid>, op: &Op) -> String {
    let pid = |who: &usize| pids[who % pids.len()];
    match op {
        Op::Run(ns) => format!("{:?}", k.run_for(*ns)),
        Op::Call(who, call) => format!("{:?}", k.do_syscall(pid(who), call.clone())),
        Op::FileWrite(who, len) => {
            let open = Syscall::Open {
                path: format!("/tmp/w{}", who % 3),
                flags: OpenFlags::RDWR_CREATE,
            };
            let fd = k.do_syscall(pid(who), open);
            let written = fd.map(|fd| {
                let write = Syscall::Write {
                    fd: Fd(fd as u32),
                    buf: DATA_BASE,
                    len: *len,
                };
                k.do_syscall(pid(who), write)
            });
            format!("{written:?}")
        }
        Op::Signal(who, sig) => {
            k.post_signal(pid(who), *sig);
            String::new()
        }
        Op::Track(who, mode) => {
            let pages = k.process_mut(pid(who)).map(|p| match mode {
                Some(mode) => p.mem.arm_tracking(*mode),
                None => p.mem.disarm_tracking(),
            });
            format!("{pages:?}")
        }
        Op::Freeze(who) => format!("{:?}", k.freeze_process(pid(who))),
        Op::Thaw(who) => format!("{:?}", k.thaw_process(pid(who))),
        Op::Spawn(guest) => {
            let new = spawn(k, guest);
            pids.push(new);
            format!("{new}")
        }
        Op::Fork(who) => {
            let child = k.do_syscall(pid(who), Syscall::Fork);
            if let Ok(child) = child {
                pids.push(Pid(child as u32));
            }
            format!("{child:?}")
        }
        Op::Reap(who) => format!("{:?}", k.reap(pid(who))),
        Op::Orphans => {
            let slot = k.register_ext_syscall("ghost");
            let kt = k.spawn_kthread("orphan", "ghost", SchedPolicy::Other { nice: 0 });
            format!("{slot} {kt} {:?}", k.wake_kthread(kt))
        }
    }
}

/// What [`observe`] lists: `(what, rendering)` pairs in a fixed order.
type Observed = Vec<(String, Vec<u8>)>;

/// Everything a kernel exposes. `Pcb`'s `Debug` covers the PCB including
/// the address space's page index, soft TLB, VMAs, dirty sets and
/// `MemStats`, but prints a page as its protection only, so the bytes are
/// listed beside it.
fn observe(k: &Kernel) -> Observed {
    let mut out = vec![
        ("clock".to_string(), k.now().to_string().into_bytes()),
        ("stats".to_string(), format!("{:?}", k.stats).into_bytes()),
        ("runqueue".to_string(), format!("{:?}", k.runqueue).into_bytes()),
        ("timers".to_string(), format!("{:?}", k.timers).into_bytes()),
        ("fs".to_string(), format!("{:?}", k.fs).into_bytes()),
    ];
    for kt in (1..).map_while(|n| k.kthread(KtId(n))) {
        out.push((format!("{}", kt.id), format!("{kt:?}").into_bytes()));
    }
    for pid in k.pids() {
        let p = k.process(pid).expect("listed");
        out.push((format!("{pid} pcb"), format!("{p:?}").into_bytes()));
        for (fd, entry) in p.fds.iter() {
            let ofd = format!("{:?}", k.ofd(entry.ofd));
            out.push((format!("{pid} {fd} open file"), ofd.into_bytes()));
        }
        for pn in p.mem.resident_pages() {
            let data = p.mem.page_data(pn).expect("resident").to_vec();
            out.push((format!("{pid} page {pn:#x}"), data));
        }
    }
    out
}

fn assert_same_world(what: impl Fn() -> String, a: &Observed, b: &Observed) {
    for ((name_a, val_a), (name_b, val_b)) in a.iter().zip(b) {
        assert_eq!(name_a, name_b, "{}: worlds list different components", what());
        assert!(
            val_a == val_b,
            "{}: {name_a} differs\n  left: {}\n right: {}",
            what(),
            String::from_utf8_lossy(val_a),
            String::from_utf8_lossy(val_b)
        );
    }
    assert_eq!(a.len(), b.len(), "{}: one world has more components", what());
}

/// A world built from `guests` and driven through `ops`. Ticks and time
/// slices are fifty times shorter than the 2005 model's, so a schedule of a
/// few virtual milliseconds crosses many of each.
fn build(guests: &[Guest], ops: &[Op]) -> (Kernel, Vec<Pid>) {
    let mut k = Kernel::new(CostModel {
        tick_interval_ns: 200_000,
        timeslice_ns: 1_000_000,
        ..CostModel::circa_2005()
    });
    let mut pids = guests.iter().map(|g| spawn(&mut k, g)).collect();
    for op in ops {
        apply(&mut k, &mut pids, op);
    }
    (k, pids)
}

#[test]
fn a_forked_world_is_indistinguishable_from_a_rebuilt_one() {
    for seed in 0..48 {
        let mut g = Gen::new(seed);
        let guests: Vec<Guest> = (0..g.range(1, 3)).map(|_| random_guest(&mut g)).collect();
        let prefix: Vec<Op> = (0..g.range(0, 12)).map(|_| random_op(&mut g)).collect();
        let suffix: Vec<Op> = (0..g.range(4, 16)).map(|_| random_op(&mut g)).collect();
        let at = |n: usize, world: &str| {
            format!(
                "seed {seed} ({world}), {guests:?}, after {prefix:?} + {:?}",
                &suffix[..n]
            )
        };

        let (mut a, mut pids_a) = build(&guests, &prefix);
        let mut b = a.fork_world().expect("nothing loaded");
        let mut pids_b = pids_a.clone();
        let (mut c, mut pids_c) = build(&guests, &prefix);
        let original = observe(&a);
        assert_same_world(|| at(0, "fork"), &original, &observe(&b));
        assert_same_world(|| at(0, "rebuild"), &original, &observe(&c));

        for (n, op) in suffix.iter().enumerate() {
            let ret_a = apply(&mut a, &mut pids_a, op);
            let ret_b = apply(&mut b, &mut pids_b, op);
            let ret_c = apply(&mut c, &mut pids_c, op);
            assert_eq!(ret_a, ret_b, "{}: {op:?} returned", at(n + 1, "fork"));
            assert_eq!(ret_a, ret_c, "{}: {op:?} returned", at(n + 1, "rebuild"));
            let original = observe(&a);
            assert_same_world(|| at(n + 1, "fork"), &original, &observe(&b));
            assert_same_world(|| at(n + 1, "rebuild"), &original, &observe(&c));
        }
    }
}

#[test]
fn a_fork_shares_nothing_with_its_original() {
    let guests = [
        Guest::Native(NativeKind::SparseRandom, AppParams::small()),
        Guest::Vm("counter"),
    ];
    let (mut a, pids) = build(&guests, &[Op::Run(2_000_000), Op::FileWrite(0, 64)]);
    let before = observe(&a);
    let mut b = a.fork_world().expect("nothing loaded");
    let mut pids_b = pids.clone();
    // Everything the fork does stays in the fork: guest stores, a direct
    // poke, file writes, timers, a new process.
    let addr = DATA_BASE + 128;
    b.process_mut(pids[0]).unwrap().mem.poke(addr, &[0xA5; 16]);
    for op in [
        Op::Run(3_000_000),
        Op::FileWrite(1, 300),
        Op::Call(0, Syscall::Setitimer { interval_ns: 10_000 }),
        Op::Spawn(Guest::Vm("malloc_heavy")),
        Op::Run(1_000_000),
    ] {
        apply(&mut b, &mut pids_b, &op);
    }
    assert!(b.now() > a.now());
    assert!(observe(&a) == before, "the original moved under its fork");
    // ...and the other way round.
    let forked = observe(&b);
    let mut pids_a = pids.clone();
    apply(&mut a, &mut pids_a, &Op::Run(5_000_000));
    assert!(observe(&b) == forked, "the fork moved under its original");
}

#[test]
fn a_world_with_a_module_or_an_agent_loaded_refuses_to_fork() {
    // The user-level library registers as a module like any other plug-in.
    for (mechanism, holder) in [("syscall", "module"), ("user-level", "module")] {
        let (mut k, pids) = build(
            &[Guest::Native(NativeKind::SparseRandom, AppParams::small())],
            &[Op::Run(100_000)],
        );
        assert!(k.fork_world().is_ok());
        let storage = shared_storage(LocalDisk::new(1 << 20));
        let mut mech = family(mechanism).build("forktest", storage, TrackerKind::FullOnly);
        mech.prepare(&mut k, pids[0]).unwrap();
        match k.fork_world() {
            Err(SimError::WorldNotForkable { holder: named }) => {
                assert!(named.starts_with(holder), "{mechanism}: {named}")
            }
            Err(other) => panic!("{mechanism}: wrong refusal {other}"),
            Ok(_) => panic!("{mechanism}: forked with a {holder} loaded"),
        }
    }
}
