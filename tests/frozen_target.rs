//! A failed checkpoint never leaves its target stopped.
//!
//! Every mechanism that stops its target around the round — syscall by
//! pid, kernel thread, hardware, the autonomic daemon, and whole-machine
//! hibernation — is driven into a store that cannot succeed (a 4 KiB
//! medium under a 64 KiB guest). The checkpoint must fail with the
//! medium's `NoSpace` refusal, and the guest must be computing again
//! afterwards: a C/R layer that wedges the job on the fault it exists to
//! mask is worse than none.

use ckpt_restart::ckpt::autonomic::{self, AutonomicConfig, AutonomicDaemon};
use ckpt_restart::ckpt::mechanism::hibernate::{SoftwareSuspend, SuspendMode};
use ckpt_restart::ckpt::mechanism::kthread::{CkptKthreadModule, IOCTL_CHECKPOINT};
use ckpt_restart::ckpt::mechanism::family;
use ckpt_restart::prelude::*;
use ckpt_restart::simos::apps::{AppParams, NativeKind};
use ckpt_restart::simos::cost::CostModel;
use ckpt_restart::simos::types::Pid;
use ckpt_restart::storage::{LocalDisk, SwapStore};

const TINY: u64 = 4096;

fn tiny_disk() -> SharedStorage {
    shared_storage(LocalDisk::new(TINY))
}

fn machine(guests: usize) -> (Kernel, Vec<Pid>) {
    let mut k = Kernel::new(CostModel::circa_2005());
    let mut params = AppParams::small();
    params.total_steps = u64::MAX;
    let pids = (0..guests)
        .map(|_| k.spawn_native(NativeKind::SparseRandom, params.clone()).unwrap())
        .collect();
    k.run_for(30_000_000).unwrap();
    (k, pids)
}

fn assert_no_space(what: &str, err: &dyn std::fmt::Display) {
    let text = err.to_string();
    assert!(
        text.contains("no space"),
        "{what}: expected the medium's NoSpace refusal, got `{text}`"
    );
}

/// Every guest makes progress over the next 50 ms of virtual time.
fn assert_computing(what: &str, k: &mut Kernel, pids: &[Pid]) {
    let before: Vec<u64> = pids.iter().map(|p| k.process(*p).unwrap().work_done).collect();
    k.run_for(50_000_000).unwrap();
    for (pid, w) in pids.iter().zip(before) {
        let p = k.process(*pid).unwrap();
        assert!(
            !p.frozen_for_ckpt,
            "{what}: {pid} left frozen by the failed checkpoint"
        );
        assert!(
            p.work_done > w,
            "{what}: {pid} never ran again (work_done stuck at {w})"
        );
    }
}

fn hardware_thaws_after_a_failed_store(label: &str) {
    let (mut k, pids) = machine(1);
    let mut mech = family(label).build("frozen", tiny_disk(), TrackerKind::FullOnly);
    mech.prepare(&mut k, pids[0]).unwrap();
    let err = mech.checkpoint(&mut k, pids[0]).unwrap_err();
    assert_no_space(label, &err);
    assert_computing(label, &mut k, &pids);
}

#[test]
fn revive_thaws_its_target_when_the_store_fails() {
    hardware_thaws_after_a_failed_store("hw-revive");
}

#[test]
fn safetynet_thaws_its_target_when_the_store_fails() {
    hardware_thaws_after_a_failed_store("hw-safetynet");
}

#[test]
fn a_failed_hibernation_thaws_the_whole_machine() {
    let (mut k, pids) = machine(3);
    let mut susp = SoftwareSuspend::new(shared_storage(SwapStore::new(TINY)));
    let err = susp.hibernate(&mut k, SuspendMode::ToDisk).unwrap_err();
    assert_no_space("hibernate", &err);
    assert_computing("hibernate", &mut k, &pids);
    let mut rebooted = Kernel::new(CostModel::circa_2005());
    assert!(susp.resume(&mut rebooted).is_err(), "nothing was committed");
}

#[test]
fn syscall_kthread_and_autonomic_thaw_their_targets_when_the_store_fails() {
    // Syscall by pid: synchronous, the tool sees the refusal as an errno.
    let (mut k, pids) = machine(1);
    let mut mech = family("syscall-bypid").build("frozen", tiny_disk(), TrackerKind::KernelPage);
    mech.prepare(&mut k, pids[0]).unwrap();
    assert!(mech.checkpoint(&mut k, pids[0]).is_err());
    assert_computing("syscall-bypid", &mut k, &pids);

    // Kernel thread: asynchronous — the request fails inside the thread
    // and is only counted, so drive the device directly instead of
    // waiting out the tool's 60 s timeout.
    let (mut k, pids) = machine(1);
    let row = family("kthread-ioctl");
    let mut mech = row.build("frozen", tiny_disk(), TrackerKind::KernelPage);
    mech.prepare(&mut k, pids[0]).unwrap();
    k.dispatch_module(row.module, |m, k| {
        m.ioctl(k, pids[0], 0, IOCTL_CHECKPOINT, pids[0].0 as u64)
    })
    .unwrap()
    .unwrap();
    k.run_for(50_000_000).unwrap();
    let (failed, recorded) = k
        .with_module::<CkptKthreadModule, _>(row.module, |m| {
            (m.requests_failed, m.recorder.outcomes.len())
        })
        .unwrap();
    assert_eq!((failed, recorded), (1, 0), "the request must have run and failed");
    assert_computing("kthread-ioctl", &mut k, &pids);

    // The autonomic daemon: the engine's typed error comes straight back.
    let (mut k, pids) = machine(1);
    let name = autonomic::install(&mut k, AutonomicConfig::default(), tiny_disk()).unwrap();
    autonomic::register(&mut k, &name, pids[0]).unwrap();
    let err = k
        .with_module_mut::<AutonomicDaemon, _>(&name, |d, k| d.checkpoint_now(k, pids[0]))
        .unwrap()
        .unwrap_err();
    assert_no_space("autonomic", &err);
    assert_computing("autonomic", &mut k, &pids);
}
