//! One extension, two targets: each a lineage of its own.
//!
//! A kernel extension serves every process that asks it for a checkpoint,
//! so two guests on one kernel, each with its own mechanism over one shared
//! module and one shared store, must still get two independent image
//! chains: their own seqs, their own dirty tracking, a restart of each that
//! is bit-exact against the deterministic replay. A single engine shared by
//! the targets (the syscall family's, before the per-target table) reported
//! every checkpoint as a success while chaining one target's incrementals
//! onto the other's images: a restart then failed with a broken lineage.
//!
//! And `Mechanism::outcomes` is the mechanism's own: every row of the
//! family table lists exactly the checkpoints it returned, and a mechanism
//! sharing its module with another target never lists the other's.

use ckpt_restart::ckpt::crashpoint::{app_params, ReplayOracle};
use ckpt_restart::ckpt::mechanism::syscall::{SyscallMechanism, SyscallVariant};
use ckpt_restart::ckpt::mechanism::{family, FAMILIES};
use ckpt_restart::prelude::*;
use ckpt_restart::simos::apps::NativeKind;
use ckpt_restart::simos::cost::CostModel;
use ckpt_restart::simos::types::Pid;
use ckpt_restart::storage::LocalDisk;

const JOB: &str = "twotargets";
/// Guest time between two checkpoints. Longer than the 2005 cost model's
/// 50 ms timeslice, so both guests run in every window: with a window of one
/// 10 ms tick the first guest could take it whole.
const WINDOW_NS: u64 = 60_000_000;
/// VMADump-style self-checkpoints, every this many completed steps: a
/// fraction of a timeslice's worth, so the two guests' lineages grow side
/// by side.
const SELF_EVERY: u64 = 100_000;
/// The rows whose mechanisms share one kernel extension between targets.
const SHARED_MODULE_ROWS: [&str; 4] = [
    "syscall-bypid",
    "kernel-signal",
    "kthread-ioctl",
    "fork-concurrent",
];

/// A kernel running two copies of the crash matrix's application, and the
/// store both mechanisms share.
fn two_guests() -> (Kernel, [Pid; 2], SharedStorage) {
    let mut k = Kernel::new(CostModel::circa_2005());
    let pids = [0, 1].map(|_| {
        k.spawn_native(NativeKind::SparseRandom, app_params())
            .unwrap()
    });
    k.run_for(3_000_000).unwrap();
    (k, pids, shared_storage(LocalDisk::new(1 << 30)))
}

/// Restart every mechanism's target on a fresh kernel and compare each
/// restored guest with the replay, byte for byte.
fn assert_restarts_bit_exact(what: &str, mechs: &mut [Box<dyn Mechanism>]) {
    let mut oracle = ReplayOracle::new(app_params());
    for (i, mech) in mechs.iter_mut().enumerate() {
        let mut k2 = Kernel::new(CostModel::circa_2005());
        let r = mech
            .restart(&mut k2, RestorePid::Fresh)
            .unwrap_or_else(|e| panic!("{what}: guest {i} does not restart: {e}"));
        let step = oracle
            .verify_restored(&k2, r.pid)
            .unwrap_or_else(|e| panic!("{what}: guest {i} restored wrong: {e}"));
        assert_eq!(step, r.work_done, "{what}: guest {i}");
    }
}

fn assert_own_lineages(what: &str, k: &Kernel, mechs: &[Box<dyn Mechanism>]) {
    for (i, mech) in mechs.iter().enumerate() {
        let outcomes = mech.outcomes(k);
        let seqs: Vec<u64> = outcomes.iter().take(3).map(|o| o.seq).collect();
        let incremental: Vec<bool> = outcomes.iter().take(3).map(|o| o.incremental).collect();
        assert_eq!(seqs, [1, 2, 3], "{what}: guest {i} seqs");
        assert_eq!(
            incremental,
            [false, true, true],
            "{what}: guest {i} image kinds"
        );
    }
}

/// Three checkpoints of each guest, initiated from outside in turn (A, B,
/// A, B, A, B) with a run window after each.
fn interleaved(row: &str) {
    let (mut k, pids, storage) = two_guests();
    let mut mechs: Vec<Box<dyn Mechanism>> = pids
        .iter()
        .map(|pid| {
            let mut mech = family(row).build(JOB, storage.clone(), TrackerKind::KernelPage);
            mech.prepare(&mut k, *pid).unwrap();
            mech
        })
        .collect();
    for round in 0..3 {
        for (mech, pid) in mechs.iter_mut().zip(pids) {
            let work = k.process(pid).unwrap().work_done;
            mech.checkpoint(&mut k, pid)
                .unwrap_or_else(|e| panic!("{row}: checkpoint {round} of {pid}: {e}"));
            k.run_for(WINDOW_NS).unwrap();
            assert!(
                k.process(pid).unwrap().work_done > work,
                "{row}: {pid} never ran"
            );
        }
    }
    assert_own_lineages(row, &k, &mechs);
    assert_restarts_bit_exact(row, &mut mechs);
}

#[test]
fn the_syscall_module_keeps_one_lineage_per_target() {
    interleaved("syscall-bypid");
}

#[test]
fn kernel_signal_and_kernel_thread_keep_one_lineage_per_target() {
    interleaved("kernel-signal");
    interleaved("kthread-ioctl");
}

#[test]
fn self_checkpointing_guests_on_one_syscall_module_keep_their_own_lineages() {
    let (mut k, pids, storage) = two_guests();
    let mut mechs: Vec<Box<dyn Mechanism>> = pids
        .iter()
        .map(|pid| {
            let variant = SyscallVariant::SelfCkpt { every: SELF_EVERY };
            let row = family("syscall-bypid");
            let mut mech = Box::new(SyscallMechanism::new(
                row.module,
                variant,
                JOB,
                storage.clone(),
                TrackerKind::KernelPage,
            )) as Box<dyn Mechanism>;
            mech.prepare(&mut k, *pid).unwrap();
            mech
        })
        .collect();
    let taken = |k: &Kernel| {
        mechs
            .iter()
            .map(|m| m.outcomes(k).len())
            .collect::<Vec<_>>()
    };
    let deadline = k.now() + 2_000_000_000;
    let mut interleaved = false;
    while taken(&k).iter().any(|&n| n < 3) {
        assert!(
            k.now() < deadline,
            "the guests never checkpointed three times each"
        );
        k.run_for(10_000_000).unwrap();
        interleaved |= taken(&k).iter().all(|n| (1..3).contains(n));
    }
    assert!(
        interleaved,
        "one guest finished its lineage before the other began"
    );
    assert_own_lineages("vmadump", &k, &mechs);
    assert_restarts_bit_exact("vmadump", &mut mechs);
}

#[test]
fn outcomes_are_the_mechanisms_own() {
    let seqs = |outcomes: &[CkptOutcome]| outcomes.iter().map(|o| o.seq).collect::<Vec<_>>();
    let mut wrong = Vec::new();
    for row in &FAMILIES {
        let shared = SHARED_MODULE_ROWS.contains(&row.label);
        let (mut k, pids, storage) = two_guests();
        let targets = if shared { &pids[..] } else { &pids[..1] };
        let tracker = match row.family {
            "user-level" => TrackerKind::UserPage,
            _ => TrackerKind::KernelPage,
        };
        let mut mechs: Vec<Box<dyn Mechanism>> = targets
            .iter()
            .map(|pid| {
                let mut mech = row.build(JOB, storage.clone(), tracker);
                mech.prepare(&mut k, *pid).unwrap();
                mech
            })
            .collect();
        let mut returned = vec![Vec::new(); mechs.len()];
        for _ in 0..2 {
            for ((mech, pid), mine) in mechs.iter_mut().zip(targets).zip(&mut returned) {
                mine.push(mech.checkpoint(&mut k, *pid).unwrap());
                k.run_for(WINDOW_NS).unwrap();
            }
        }
        for (i, (mech, mine)) in mechs.iter().zip(&returned).enumerate() {
            let listed = mech.outcomes(&k);
            if &listed != mine {
                wrong.push(format!(
                    "{} mechanism {i}: lists seqs {:?}, returned {:?}",
                    row.label,
                    seqs(&listed),
                    seqs(mine)
                ));
            }
        }
    }
    assert!(
        wrong.is_empty(),
        "outcomes() is not the mechanism's own:\n{}",
        wrong.join("\n")
    );
}
