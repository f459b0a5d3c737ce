//! Fork ≡ rebuild, for the whole world: a `Kernel::fork_world` copy taken
//! at any instant is indistinguishable from a kernel rebuilt from scratch
//! and driven to that instant, and stays so under any further schedule.
//!
//! This is what lets a crash-matrix column start every cell from a copy of
//! the world at a request boundary (`ckpt_core::crashpoint`). Three worlds
//! per seed: A is built and run through a random prefix of operations, B is
//! forked from it, C is rebuilt and run through the same prefix. All three
//! then take the same random suffix, and after every operation everything
//! the worlds expose must agree.
//!
//! * **Bare kernels**: clock, `KernelStats`, run queue, pending timers, the
//!   filesystem, kernel threads, and per process the whole PCB (registers,
//!   fd table and the open files behind it, signal state, `MemStats` with
//!   its TLB counters, the soft TLB itself, dirty sets) and every resident
//!   guest byte. The kernel's private bookkeeping (`next_tick_at`,
//!   `next_pid`, `last_task`, `active_mm`, …) is not readable, so the
//!   suffix makes it observable: a stale tick deadline moves `stats.ticks`,
//!   a stale pid counter moves the pid the next spawn returns, a stale
//!   `last_task` a context switch.
//! * **Prepared worlds**: every row of the family table, VMADump-style
//!   self-checkpointing guests and hibernation, on one target and — where
//!   targets can share a module or a store — on two targets sharing one
//!   module and one store, over a random storage stack. The fork goes
//!   through one `Relink` for the kernel (its modules fork themselves),
//!   the store and the mechanisms, and the operations include checkpoint
//!   requests, restarts onto a fresh kernel and node loss. On top of the
//!   kernel: each mechanism's `outcomes()` and its engine's seqs, tracker
//!   and chain manifests, and the store's `list()` with every object's
//!   bytes and replica manifest. A user-level library links into one
//!   process only, so its rows run one target.
//!
//! Shown to bite on scratch copies: a `fork_world` that resets any one
//! field fails here, except `current` (set only inside a dispatch, and a
//! world mid-dispatch refuses to fork). The `ext_slots` / `signal_claims`
//! tables are observable now that a loaded module forks: a
//! self-checkpointing guest reaches the syscall module through the first,
//! a `SIGCKPT` the kernel-signal module through the second. So fails a
//! module fork that drops what it keeps between requests (outcomes, the
//! per-target engines, fork-concurrent's seqs, the kernel thread), a store
//! fork that drops a quorum client's manifests or a dedup index, and an
//! engine fork that keeps the original's store or a server or replica node
//! shared with the original. What a request empties before it returns (the
//! kernel thread's queue, CHPOX's pending request times) and the failure
//! counters, zero without faults, are unobservable at a fork point.

mod common;

use ckpt_restart::cas::DedupStore;
use ckpt_restart::ckpt::autonomic::{self, AutonomicConfig};
use ckpt_restart::ckpt::crashpoint::app_params;
use ckpt_restart::ckpt::mechanism::hibernate::{SoftwareSuspend, SuspendMode};
use ckpt_restart::ckpt::mechanism::syscall::{SyscallMechanism, SyscallVariant};
use ckpt_restart::ckpt::mechanism::{family, Mechanism, FAMILIES};
use ckpt_restart::ckpt::{fork_storage, shared_storage, RestorePid, SharedStorage, TrackerKind};
use ckpt_restart::ec::ErasureStore;
use ckpt_restart::replica::ReplicatedStore;
use ckpt_restart::simos::apps::{AppParams, NativeKind};
use ckpt_restart::simos::asm::programs;
use ckpt_restart::simos::cost::CostModel;
use ckpt_restart::simos::fs::OpenFlags;
use ckpt_restart::simos::mem::{TrackMode, DATA_BASE};
use ckpt_restart::simos::signal::{Sig, SigAction};
use ckpt_restart::simos::syscall::Syscall;
use ckpt_restart::simos::sched::SchedPolicy;
use ckpt_restart::simos::{Fd, Kernel, KtId, Pid, Relink, SimError};
use ckpt_restart::storage::{LocalDisk, RemoteServer, RemoteStore};
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
            let kt = k.spawn_kthread("ghost", SchedPolicy::Other { nice: 0 });
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

/// Ticks and time slices fifty times shorter than the 2005 model's, so a
/// schedule of a few virtual milliseconds crosses many of each.
fn fast_kernel() -> Kernel {
    Kernel::new(CostModel {
        tick_interval_ns: 200_000,
        timeslice_ns: 1_000_000,
        ..CostModel::circa_2005()
    })
}

/// A fork of `k` consulting the fault handle it does.
fn fork(k: &Kernel) -> Kernel {
    k.fork_world(&mut Relink::new(k.faults.clone()))
        .expect("a bare kernel forks")
}

/// A world built from `guests` and driven through `ops`.
fn build(guests: &[Guest], ops: &[Op]) -> (Kernel, Vec<Pid>) {
    let mut k = fast_kernel();
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
        let mut b = fork(&a);
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
    let mut b = fork(&a);
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
fn a_world_with_a_module_that_does_not_fork_refuses_to_fork() {
    // The autonomic daemon has not said how it forks: its world refuses,
    // naming it, and the store it was given is never copied.
    let (mut k, pids) = build(
        &[Guest::Native(NativeKind::SparseRandom, AppParams::small())],
        &[Op::Run(100_000)],
    );
    let storage = shared_storage(LocalDisk::new(1 << 20));
    let daemon = autonomic::install(&mut k, AutonomicConfig::default(), storage).unwrap();
    autonomic::register(&mut k, &daemon, pids[0]).unwrap();
    match k.fork_world(&mut Relink::new(k.faults.clone())) {
        Err(SimError::WorldNotForkable { holder }) => {
            assert_eq!(holder, format!("module {daemon}"))
        }
        Err(other) => panic!("wrong refusal {other}"),
        Ok(_) => panic!("forked a world holding a module that does not fork"),
    }
}

// ---------------------------------------------------------------------
// Prepared worlds: a checkpointer loaded, a store linked to it
// ---------------------------------------------------------------------

/// What checkpoints a prepared world: one mechanism per target, or the
/// whole machine's hibernation.
enum Checkpointer {
    Mechanisms(Vec<Box<dyn Mechanism>>),
    Hibernation(Box<SoftwareSuspend>),
}

/// A kernel with its guests, the store every checkpointer in it writes to,
/// and the checkpointers.
struct Prepared {
    k: Kernel,
    pids: Vec<Pid>,
    storage: SharedStorage,
    ckpt: Checkpointer,
}

/// How a prepared world is set up: a family-table row (or `vmadump`, the
/// syscall family's self-checkpointing variant, or `hibernate`), how many
/// targets it serves, and which storage stack it writes to.
#[derive(Debug, Clone, Copy)]
struct Setup {
    row: &'static str,
    targets: usize,
    stack: u64,
}

/// The stacks a prepared world writes to: single copy, a server shared by
/// clients, quorum replication, dedup over a server, erasure coding.
const STACKS: u64 = 5;

fn stack(which: u64) -> SharedStorage {
    match which {
        0 => shared_storage(LocalDisk::new(1 << 30)),
        1 => shared_storage(RemoteStore::new(RemoteServer::new(1 << 30))),
        2 => shared_storage(ReplicatedStore::fresh(3, 2)),
        3 => shared_storage(DedupStore::new(Box::new(RemoteStore::new(
            RemoteServer::new(1 << 30),
        )))),
        _ => shared_storage(ErasureStore::fresh(4, 2)),
    }
}

/// One step of a prepared world's schedule; `who` picks a target modulo
/// the number of checkpointers.
#[derive(Debug, Clone)]
enum Prep {
    Run(u64),
    /// A checkpoint request (hibernation: the machine suspends).
    Checkpoint(usize),
    /// A restart onto a fresh kernel (hibernation: the boot-time resume),
    /// observed whole.
    Restart(usize),
    /// The node's failure and repair (hibernation: the power-down).
    NodeLoss,
}

fn random_prep(g: &mut Gen) -> Prep {
    let who = g.range(0, 2) as usize;
    match g.range(0, 10) {
        0..=3 => Prep::Run(g.range(20_000, 2_000_000)),
        4..=6 => Prep::Checkpoint(who),
        7 | 8 => Prep::Restart(who),
        _ => Prep::NodeLoss,
    }
}

impl Prepared {
    /// `setup`'s world, driven through `ops`.
    fn build(setup: Setup, ops: &[Prep]) -> Prepared {
        let mut k = fast_kernel();
        let guests = setup.targets.max(1);
        let pids: Vec<Pid> = (0..guests)
            .map(|_| k.spawn_native(NativeKind::SparseRandom, app_params()).unwrap())
            .collect();
        k.run_for(1_000_000).unwrap();
        let storage = stack(setup.stack);
        let build = |storage: SharedStorage| -> Box<dyn Mechanism> {
            match setup.row {
                // A self-checkpoint every 1,000 guest steps: a run window
                // of a millisecond crosses one per guest.
                "vmadump" => Box::new(SyscallMechanism::new(
                    family("syscall-bypid").module,
                    SyscallVariant::SelfCkpt { every: 1_000 },
                    "prepared",
                    storage,
                    TrackerKind::KernelPage,
                )),
                row => {
                    let row = family(row);
                    let tracker = match row.family {
                        "user-level" => TrackerKind::UserPage,
                        _ => TrackerKind::KernelPage,
                    };
                    row.build("prepared", storage, tracker)
                }
            }
        };
        let ckpt = if setup.row == "hibernate" {
            Checkpointer::Hibernation(Box::new(SoftwareSuspend::new(storage.clone())))
        } else {
            let mechs = pids
                .iter()
                .map(|pid| {
                    let mut mech = build(storage.clone());
                    mech.prepare(&mut k, *pid).unwrap();
                    mech
                })
                .collect();
            Checkpointer::Mechanisms(mechs)
        };
        let mut world = Prepared {
            k,
            pids,
            storage,
            ckpt,
        };
        for op in ops {
            world.apply(op);
        }
        world
    }

    /// The world's fork: kernel, store and checkpointers through one map.
    fn fork(&self) -> Prepared {
        let relink = &mut Relink::new(self.k.faults.clone());
        Prepared {
            k: self.k.fork_world(relink).expect("a prepared world forks"),
            pids: self.pids.clone(),
            storage: fork_storage(&self.storage, relink).expect("every stack forks"),
            ckpt: match &self.ckpt {
                Checkpointer::Mechanisms(mechs) => Checkpointer::Mechanisms(
                    mechs
                        .iter()
                        .map(|m| m.fork(relink).expect("every family forks"))
                        .collect(),
                ),
                Checkpointer::Hibernation(susp) => Checkpointer::Hibernation(Box::new(
                    susp.fork(relink).expect("hibernation forks"),
                )),
            },
        }
    }

    /// Apply `op`; what it returned (and, for a restart, the whole restored
    /// kernel) is part of what the worlds must agree on.
    fn apply(&mut self, op: &Prep) -> Observed {
        let returned = |r: String| vec![("returned".to_string(), r.into_bytes())];
        let restored = |r: String, k: &Kernel| {
            let mut out = returned(r);
            out.extend(observe(k).into_iter().map(|(n, v)| (format!("restored {n}"), v)));
            out
        };
        match (op, &mut self.ckpt) {
            (Prep::Run(ns), _) => returned(format!("{:?}", self.k.run_for(*ns))),
            (Prep::Checkpoint(who), Checkpointer::Mechanisms(mechs)) => {
                let i = who % mechs.len();
                returned(format!("{:?}", mechs[i].checkpoint(&mut self.k, self.pids[i])))
            }
            (Prep::Checkpoint(_), Checkpointer::Hibernation(susp)) => {
                returned(format!("{:?}", susp.hibernate(&mut self.k, SuspendMode::ToDisk)))
            }
            (Prep::Restart(who), Checkpointer::Mechanisms(mechs)) => {
                let i = who % mechs.len();
                let mut k2 = fast_kernel();
                let r = mechs[i].restart(&mut k2, RestorePid::Fresh);
                restored(format!("{r:?}"), &k2)
            }
            (Prep::Restart(_), Checkpointer::Hibernation(susp)) => {
                let mut k2 = fast_kernel();
                let r = susp.resume(&mut k2);
                restored(format!("{r:?}"), &k2)
            }
            (Prep::NodeLoss, Checkpointer::Mechanisms(_)) => {
                let mut s = self.storage.lock();
                s.on_node_failure();
                s.on_node_repair();
                Vec::new()
            }
            (Prep::NodeLoss, Checkpointer::Hibernation(_)) => {
                self.storage.lock().on_power_down();
                Vec::new()
            }
        }
    }

    /// Everything the world exposes: the kernel, each mechanism's outcomes
    /// and engine, the store's listing and every object in it.
    fn observe(&self) -> Observed {
        let mut out = observe(&self.k);
        if let Checkpointer::Mechanisms(mechs) = &self.ckpt {
            for (i, mech) in mechs.iter().enumerate() {
                let outcomes = format!("{:?}", mech.outcomes(&self.k));
                out.push((format!("mechanism {i} outcomes"), outcomes.into_bytes()));
                if let Some(e) = mech.engine(&self.k) {
                    let lineage = format!("{:?}", e.lineage());
                    out.push((format!("mechanism {i} engine"), lineage.into_bytes()));
                }
            }
        }
        let s = self.storage.lock();
        let cost = &self.k.cost;
        out.push(("storage list".into(), format!("{:?}", s.list()).into_bytes()));
        out.push(("storage used".into(), s.used_bytes().to_string().into_bytes()));
        for key in s.list() {
            let object = match s.load(&key, cost) {
                Ok((bytes, ns)) => [bytes, ns.to_le_bytes().to_vec()].concat(),
                Err(e) => e.to_string().into_bytes(),
            };
            out.push((format!("storage {key}"), object));
            let manifest = format!("{:?}", s.replica_manifest(&key));
            out.push((format!("storage {key} manifest"), manifest.into_bytes()));
        }
        out
    }
}

/// Every family-table row on one target; the rows whose targets can share
/// a module (or, for the hardware rows, a store) on two; self-checkpointing
/// guests and hibernation on one and two.
fn setups() -> Vec<Setup> {
    let mut out = Vec::new();
    for row in FAMILIES.iter().map(|f| f.label).chain(["vmadump", "hibernate"]) {
        let shares = !matches!(row, "user-signal" | "preload");
        for targets in if shares { 1..=2 } else { 1..=1 } {
            out.push(Setup {
                row,
                targets,
                stack: 0,
            });
        }
    }
    out
}

#[test]
fn a_forked_prepared_world_is_indistinguishable_from_a_rebuilt_one() {
    for (n, base) in setups().into_iter().enumerate() {
        // Not vacuous: every setup checkpoints and restarts in its
        // suffixes (a self-checkpointing guest refuses a request from
        // outside, and checkpoints as it runs).
        let (mut checkpointed, mut restarted) = (base.row == "vmadump", false);
        for seed in 0..3u64 {
            let mut g = Gen::new(n as u64 * 100 + seed);
            let setup = Setup {
                stack: g.range(0, STACKS),
                ..base
            };
            let prefix: Vec<Prep> = (0..g.range(1, 6)).map(|_| random_prep(&mut g)).collect();
            // Each suffix ends by running, checkpointing and restarting the
            // last target, whatever came before.
            let mut suffix: Vec<Prep> = (0..g.range(3, 8)).map(|_| random_prep(&mut g)).collect();
            suffix.extend([Prep::Run(1_000_000), Prep::Checkpoint(1), Prep::Restart(1)]);
            let at = |n: usize, world: &str| {
                format!("{setup:?} seed {seed} ({world}), after {prefix:?} + {:?}", &suffix[..n])
            };

            let mut a = Prepared::build(setup, &prefix);
            let mut b = a.fork();
            let mut c = Prepared::build(setup, &prefix);
            let original = a.observe();
            assert_same_world(|| at(0, "fork"), &original, &b.observe());
            assert_same_world(|| at(0, "rebuild"), &original, &c.observe());

            for (n, op) in suffix.iter().enumerate() {
                let ret_a = a.apply(op);
                let ok = ret_a.first().is_some_and(|(_, r)| r.starts_with(b"Ok"));
                checkpointed |= ok && matches!(op, Prep::Checkpoint(_));
                restarted |= ok && matches!(op, Prep::Restart(_));
                assert_same_world(|| at(n + 1, "fork"), &ret_a, &b.apply(op));
                assert_same_world(|| at(n + 1, "rebuild"), &ret_a, &c.apply(op));
                let original = a.observe();
                assert_same_world(|| at(n + 1, "fork"), &original, &b.observe());
                assert_same_world(|| at(n + 1, "rebuild"), &original, &c.observe());
            }
        }
        assert!(checkpointed && restarted, "{base:?}: {checkpointed} {restarted}");
    }
}

#[test]
fn a_prepared_fork_shares_nothing_with_its_original() {
    let checkpointed = [Prep::Run(500_000), Prep::Checkpoint(0), Prep::Run(300_000)];
    let busy = [
        Prep::Checkpoint(0),
        Prep::Checkpoint(1),
        Prep::Run(700_000),
        Prep::NodeLoss,
        Prep::Restart(0),
    ];
    for base in setups() {
        for stack in 0..STACKS {
            let setup = Setup { stack, ..base };
            let mut a = Prepared::build(setup, &checkpointed);
            let before = a.observe();
            let mut b = a.fork();
            for op in &busy {
                b.apply(op);
            }
            assert!(
                a.observe() == before,
                "{setup:?}: the original moved under its fork"
            );
            let forked = b.observe();
            for op in &busy {
                a.apply(op);
            }
            assert!(b.observe() == forked, "{setup:?}: the fork moved under its original");
        }
    }
}
