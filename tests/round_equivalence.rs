//! The checkpoint round, pinned from the outside.
//!
//! Every row of the mechanism family table takes two checkpoints (a full
//! one, then an incremental one where its tracker supports that) and one
//! restart, over a single-copy disk and over a `replicated(3,2)` quorum,
//! with a recording trace sink and a recording fault handle attached. What
//! the round did is rendered line by line — each `CkptOutcome`, the ordered
//! `(phase, at_ns, cost_ns)` log, the storage trace records, every fault
//! site visited (name, `@n`, bytes) and the FNV-1a 64 of every stored
//! object — and compared with `tests/goldens/round_equivalence.txt`.
//!
//! The two bracket users outside the table (whole-machine hibernation and
//! the autonomic daemon) are rendered the same way.
//!
//! This is the guard a change to the round, its freeze bracket or its
//! commit step is made under: the golden was captured before the
//! user-level library stopped carrying its own copy of the round, and must
//! never move for a refactor. On a mismatch the first divergent line is
//! named and the full actual rendering is left next to the test binary's
//! scratch space for diffing.

mod common;

use std::fmt::Write as _;

use ckpt_restart::ckpt::autonomic::{self, AutonomicConfig, AutonomicDaemon};
use ckpt_restart::ckpt::mechanism::hibernate::{SoftwareSuspend, SuspendMode};
use ckpt_restart::ckpt::mechanism::FAMILIES;
use ckpt_restart::prelude::*;
use ckpt_restart::replica::ReplicatedStore;
use ckpt_restart::simos::apps::{AppParams, NativeKind};
use ckpt_restart::simos::cost::CostModel;
use ckpt_restart::simos::faultpoint::FaultHandle;
use ckpt_restart::simos::types::Pid;
use ckpt_restart::storage::{fnv1a64, FaultInjectStore, LocalDisk, StableStorage, SwapStore};

const GOLDEN: &str = include_str!("goldens/round_equivalence.txt");
const BACKENDS: [&str; 2] = ["local-disk", "replicated(3,2)"];
/// Guest run time between two checkpoints: a handful of steps.
const BETWEEN_NS: u64 = 40_000;

/// A sparse writer over 64 pages: wide enough that the second checkpoint's
/// dirty set is a strict subset of the first's pages.
fn guest() -> AppParams {
    AppParams {
        mem_bytes: 256 * 1024,
        total_steps: u64::MAX,
        writes_per_step: 4,
        write_stride_pages: 4,
        seed: 0x17_c0de,
    }
}

/// One traced, fault-recorded world: the handles, and a kernel running
/// `guests` copies of that application.
struct World {
    trace: TraceHandle,
    faults: FaultHandle,
    k: Kernel,
    pids: Vec<Pid>,
}

impl World {
    fn boot(guests: usize) -> World {
        let trace = TraceHandle::recording();
        let faults = FaultHandle::recording();
        let mut k = kernel(&trace, &faults);
        let pids = (0..guests)
            .map(|_| k.spawn_native(NativeKind::SparseRandom, guest()).unwrap())
            .collect();
        k.run_for(3_000_000).unwrap();
        World { trace, faults, k, pids }
    }

    fn storage(&self, backend: &str) -> SharedStorage {
        let inner: Box<dyn StableStorage> = match backend {
            "local-disk" => Box::new(LocalDisk::new(1 << 30)),
            "swap" => Box::new(SwapStore::new(1 << 30)),
            "replicated(3,2)" => {
                Box::new(ReplicatedStore::fresh(3, 2).with_faults(self.faults.clone()))
            }
            other => panic!("unknown backend {other}"),
        };
        shared_storage(FaultInjectStore::new(inner, self.faults.clone()))
    }

    /// Everything the handles and the store observed, one line per record.
    fn render(&self, out: &mut String, storage: &SharedStorage) {
        let report = self.trace.report();
        for p in &report.phase_log {
            writeln!(
                out,
                "phase {} {} pid={} seq={} at={} cost={}",
                p.mechanism,
                p.phase.label(),
                p.pid,
                p.seq,
                p.at_ns,
                p.cost_ns
            )
            .unwrap();
        }
        for ((op, class), agg) in &report.storage {
            writeln!(
                out,
                "storage {} {class} ops={} bytes={} stall={}",
                op.label(),
                agg.ops,
                agg.bytes,
                agg.stall_ns
            )
            .unwrap();
        }
        for site in self.faults.sites() {
            writeln!(out, "site {} bytes={}", site.name, site.bytes).unwrap();
        }
        let store = storage.lock();
        let mut keys = store.list();
        keys.sort();
        for key in keys {
            let (bytes, _) = store.load(&key, &CostModel::circa_2005()).unwrap();
            writeln!(out, "object {key} len={} fnv={:016x}", bytes.len(), fnv1a64(&bytes))
                .unwrap();
        }
    }
}

fn kernel(trace: &TraceHandle, faults: &FaultHandle) -> Kernel {
    let mut k = Kernel::new(CostModel::circa_2005());
    k.set_trace(trace.clone());
    k.set_faults(faults.clone());
    k
}

fn render_everything() -> String {
    let mut out = String::new();
    for family in &FAMILIES {
        for backend in BACKENDS {
            let mut w = World::boot(1);
            let pid = w.pids[0];
            let storage = w.storage(backend);
            let tracker = match family.family {
                "user-level" => TrackerKind::UserPage,
                _ => TrackerKind::KernelPage,
            };
            let mut mech = family.build("round", storage.clone(), tracker);
            writeln!(out, "== {} ({}) over {backend}", family.label, family.module).unwrap();
            mech.prepare(&mut w.k, pid).unwrap();
            let first = mech.checkpoint(&mut w.k, pid).unwrap();
            writeln!(out, "ckpt#1 {first:?}").unwrap();
            w.k.run_for(BETWEEN_NS).unwrap();
            let second = mech.checkpoint(&mut w.k, pid).unwrap();
            writeln!(out, "ckpt#2 {second:?}").unwrap();
            assert_eq!(
                second.incremental,
                mech.info().supports_incremental,
                "{}: the second round is incremental exactly where the tracker allows",
                family.label
            );
            let mut k2 = kernel(&w.trace, &w.faults);
            let restart = mech.restart(&mut k2, RestorePid::Fresh).unwrap();
            writeln!(out, "restart {restart:?}").unwrap();
            let report = w.trace.report();
            assert!(
                report.phase_log.iter().any(|p| p.mechanism == family.module),
                "{}: no phase recorded under its module name {}",
                family.label,
                family.module
            );
            w.render(&mut out, &storage);
        }
    }

    // Whole-machine hibernation: the machine-wide freeze bracket.
    {
        let mut w = World::boot(2);
        let storage = w.storage("swap");
        let mut susp = SoftwareSuspend::new(storage.clone());
        writeln!(out, "== hibernate (swsusp) over swap").unwrap();
        let report = susp.hibernate(&mut w.k, SuspendMode::ToDisk).unwrap();
        writeln!(out, "hibernate {report:?}").unwrap();
        let mut k2 = kernel(&w.trace, &w.faults);
        let resumed = susp.resume(&mut k2).unwrap();
        writeln!(out, "resume {resumed:?}").unwrap();
        w.render(&mut out, &storage);
    }

    // The autonomic daemon: the bracket that respects an existing freeze.
    {
        let mut w = World::boot(1);
        let pid = w.pids[0];
        let storage = w.storage("local-disk");
        writeln!(out, "== autonomic (autonomicd) over local-disk").unwrap();
        let name =
            autonomic::install(&mut w.k, AutonomicConfig::default(), storage.clone()).unwrap();
        autonomic::register(&mut w.k, &name, pid).unwrap();
        for round in 1..=2 {
            let outcome = w
                .k
                .with_module_mut::<AutonomicDaemon, _>(&name, |d, k| d.checkpoint_now(k, pid))
                .unwrap()
                .unwrap();
            writeln!(out, "ckpt#{round} {outcome:?}").unwrap();
            w.k.run_for(BETWEEN_NS).unwrap();
        }
        let preempted = autonomic::safe_preempt(&mut w.k, &name, pid).unwrap();
        writeln!(out, "preempt {preempted:?}").unwrap();
        w.render(&mut out, &storage);
    }
    out
}

#[test]
fn every_family_round_matches_the_pinned_rendering() {
    common::assert_pinned("round_equivalence", GOLDEN, &render_everything());
}
