//! ckpt-trace integration: every mechanism family emits the mandatory
//! phase events (freeze → capture → store → resume) in order, the traced
//! per-phase costs reconcile with the outcomes' end-to-end totals, and a
//! disabled sink records nothing.

use ckpt_restart::ckpt::mechanism::family;
use ckpt_restart::ckpt::mechanism::hibernate::{SoftwareSuspend, SuspendMode};
use ckpt_restart::prelude::*;
use ckpt_restart::simos::apps::{AppParams, NativeKind};
use ckpt_restart::simos::cost::CostModel;
use ckpt_restart::simos::types::Pid;
use ckpt_restart::storage::{LocalDisk, SwapStore};

const MANDATORY: [Phase; 4] = [Phase::Freeze, Phase::Capture, Phase::Store, Phase::Resume];

fn is_ordered_subsequence(log: &[Phase], want: &[Phase]) -> bool {
    let mut it = want.iter();
    let mut next = it.next();
    for p in log {
        if Some(p) == next {
            next = it.next();
        }
    }
    next.is_none()
}

fn traced_kernel(trace: &TraceHandle) -> (Kernel, Pid) {
    let mut k = Kernel::new(CostModel::circa_2005());
    k.set_trace(trace.clone());
    let mut params = AppParams::small();
    params.mem_bytes = 256 * 1024;
    params.writes_per_step = 8;
    params.total_steps = u64::MAX;
    let pid = k.spawn_native(NativeKind::SparseRandom, params).unwrap();
    k.run_for(20_000_000).unwrap();
    (k, pid)
}

fn disk() -> SharedStorage {
    shared_storage(LocalDisk::new(1 << 30))
}

/// Run one checkpoint of `mech` under a fresh recording sink; return the
/// trace report and the outcome's end-to-end total.
fn checkpoint_traced(mech: &mut dyn Mechanism) -> (TraceReport, u64) {
    let trace = TraceHandle::recording();
    let (mut k, pid) = traced_kernel(&trace);
    mech.prepare(&mut k, pid).unwrap();
    let o = mech.checkpoint(&mut k, pid).unwrap();
    (trace.report(), o.total_ns)
}

/// One full checkpoint of the family-table row `label`, traced: the
/// mandatory phases are there in order, under the row's module name, and
/// reconcile with the outcome.
fn assert_row(label: &str) {
    let row = family(label);
    let mut m = row.build("trace", disk(), TrackerKind::FullOnly);
    let (rep, total) = checkpoint_traced(m.as_mut());
    assert_family(row.module, &rep, total);
}

fn assert_family(name: &str, report: &TraceReport, total_ns: u64) {
    let seq = report.phase_sequence(name);
    assert!(
        is_ordered_subsequence(&seq, &MANDATORY),
        "{name}: mandatory freeze→capture→store→resume missing from {seq:?}"
    );
    let traced = report.mechanism_total(name);
    let diff = traced.abs_diff(total_ns) as f64 / total_ns.max(1) as f64;
    assert!(
        diff < 0.01,
        "{name}: traced {traced} vs outcome total {total_ns} diverges {:.2}%",
        diff * 100.0
    );
}

#[test]
fn user_level_emits_mandatory_phases() {
    assert_row("user-signal");
}

#[test]
fn syscall_emits_mandatory_phases() {
    assert_row("syscall-bypid");
}

#[test]
fn kernel_signal_emits_mandatory_phases() {
    assert_row("kernel-signal");
}

#[test]
fn kernel_thread_emits_mandatory_phases() {
    assert_row("kthread-ioctl");
}

#[test]
fn fork_concurrent_emits_mandatory_phases() {
    assert_row("fork-concurrent");
}

#[test]
fn hardware_emits_mandatory_phases() {
    assert_row("hw-revive");
    assert_row("hw-safetynet");
}

#[test]
fn hibernate_emits_mandatory_phases() {
    let trace = TraceHandle::recording();
    let (mut k, _pid) = traced_kernel(&trace);
    let mut susp = SoftwareSuspend::new(shared_storage(SwapStore::new(1 << 30)));
    let r = susp.hibernate(&mut k, SuspendMode::ToDisk).unwrap();
    assert_family("swsusp", &trace.report(), r.total_ns);
}

#[test]
fn incremental_checkpoint_traces_walk_and_rearm() {
    let trace = TraceHandle::recording();
    let (mut k, pid) = traced_kernel(&trace);
    let mut m = family("syscall-bypid").build("trace", disk(), TrackerKind::KernelPage);
    m.prepare(&mut k, pid).unwrap();
    m.checkpoint(&mut k, pid).unwrap();
    k.run_for(5_000_000).unwrap();
    let o2 = m.checkpoint(&mut k, pid).unwrap();
    assert!(o2.incremental);
    let rep = trace.report();
    let seq = rep.phase_sequence("epckpt");
    assert!(seq.contains(&Phase::Walk), "incremental pass must walk: {seq:?}");
    assert!(seq.contains(&Phase::Rearm), "tracker must re-arm: {seq:?}");
}

#[test]
fn restart_traces_a_restore_phase_and_storage_load() {
    let trace = TraceHandle::recording();
    let (mut k, pid) = traced_kernel(&trace);
    let mut m = family("kernel-signal").build("trace", disk(), TrackerKind::FullOnly);
    m.prepare(&mut k, pid).unwrap();
    m.checkpoint(&mut k, pid).unwrap();
    let mut k2 = Kernel::new(CostModel::circa_2005());
    k2.set_trace(trace.clone());
    m.restart(&mut k2, RestorePid::Fresh).unwrap();
    let rep = trace.report();
    assert!(rep.phase_sequence("chpox").contains(&Phase::Restore));
    use ckpt_restart::trace::StorageOp;
    assert!(
        rep.storage.keys().any(|(op, _)| *op == StorageOp::Load),
        "restart must record a storage load: {:?}",
        rep.storage.keys().collect::<Vec<_>>()
    );
}

#[test]
fn storage_stores_are_recorded_with_bytes() {
    let trace = TraceHandle::recording();
    let (mut k, pid) = traced_kernel(&trace);
    let mut m = family("kernel-signal").build("trace", disk(), TrackerKind::FullOnly);
    m.prepare(&mut k, pid).unwrap();
    let o = m.checkpoint(&mut k, pid).unwrap();
    use ckpt_restart::trace::StorageOp;
    let rep = trace.report();
    let agg = rep
        .storage
        .get(&(StorageOp::Store, "local-disk".to_string()))
        .expect("local-disk store recorded");
    assert_eq!(agg.ops, 1);
    assert_eq!(agg.bytes, o.encoded_bytes);
    assert_eq!(agg.stall_ns, o.storage_ns);
}

#[test]
fn disabled_sink_records_nothing_end_to_end() {
    // Default kernels carry the no-op sink: a full checkpoint round leaves
    // zero trace state behind.
    let mut k = Kernel::new(CostModel::circa_2005());
    let mut params = AppParams::small();
    params.total_steps = u64::MAX;
    let pid = k.spawn_native(NativeKind::SparseRandom, params).unwrap();
    k.run_for(20_000_000).unwrap();
    let mut m = family("kthread-ioctl").build("trace", disk(), TrackerKind::FullOnly);
    m.prepare(&mut k, pid).unwrap();
    m.checkpoint(&mut k, pid).unwrap();
    assert!(!k.trace.is_enabled());
    assert_eq!(k.trace.events_recorded(), 0);
    assert_eq!(k.trace.report(), TraceReport::default());
}

#[test]
fn disabled_sink_does_not_perturb_virtual_time() {
    // Tracing is a pure observer: the same run traced and untraced lands
    // on the identical virtual instant with identical outcomes.
    let run = |traced: bool| {
        let trace = TraceHandle::recording();
        let mut k = Kernel::new(CostModel::circa_2005());
        if traced {
            k.set_trace(trace.clone());
        }
        let mut params = AppParams::small();
        params.mem_bytes = 256 * 1024;
        params.total_steps = u64::MAX;
        let pid = k.spawn_native(NativeKind::SparseRandom, params).unwrap();
        k.run_for(20_000_000).unwrap();
        let mut m = family("kernel-signal").build("trace", disk(), TrackerKind::FullOnly);
        m.prepare(&mut k, pid).unwrap();
        let o = m.checkpoint(&mut k, pid).unwrap();
        (k.now(), o.total_ns, o.encoded_bytes)
    };
    assert_eq!(run(true), run(false));
}
