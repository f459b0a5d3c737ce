//! The paper's "direction forward", running: a self-managing system-level
//! checkpoint daemon — automatic initiation from a kernel timer, a
//! SCHED_FIFO kernel thread, kernel-page incremental tracking, remote
//! storage, and an interval that adapts to the observed failure rate
//! (Young's formula).
//!
//! ```text
//! cargo run --release --example autonomic_daemon
//! ```

use ckpt_restart::ckpt::autonomic::{self, AutonomicConfig, AutonomicDaemon};
use ckpt_restart::ckpt::shared_storage;
use ckpt_restart::simos::apps::{AppParams, NativeKind};
use ckpt_restart::simos::cost::CostModel;
use ckpt_restart::simos::Kernel;
use ckpt_restart::storage::{RemoteServer, RemoteStore};

fn main() {
    let mut kernel = Kernel::new(CostModel::circa_2005());
    let mut params = AppParams::small();
    params.mem_bytes = 512 * 1024;
    params.total_steps = u64::MAX;
    let pid = kernel
        .spawn_native(NativeKind::SparseRandom, params)
        .expect("spawn");

    // Install the daemon with remote storage (survives node loss).
    let server = RemoteServer::new(1 << 34);
    let storage = shared_storage(RemoteStore::new(server));
    let cfg = AutonomicConfig {
        initial_interval_ns: 50_000_000, // start at 50 ms
        ..Default::default()
    };
    let daemon = autonomic::install(&mut kernel, cfg, storage).expect("install");
    autonomic::register(&mut kernel, &daemon, pid).expect("register");
    println!("autonomic daemon installed; {pid} registered — no app changes, no tools");

    // Phase 1: quiet system.
    kernel.run_for(400_000_000).expect("run");
    let (n1, interval1) = kernel
        .with_module_mut::<AutonomicDaemon, _>(&daemon, |d, _| {
            (d.recorder.outcomes.len(), d.intervals_used.last().copied().unwrap_or(0))
        })
        .unwrap();
    println!(
        "after 400 ms quiet: {n1} autonomous checkpoints, current interval {:.1} ms",
        interval1 as f64 / 1e6
    );

    // Phase 2: the failure detector reports a burst of node failures.
    let now = kernel.now();
    kernel.with_module_mut::<AutonomicDaemon, _>(&daemon, |d, _| {
        for i in 1..=6u64 {
            d.note_failure(now + i * 20_000_000); // failures 20 ms apart
        }
    });
    kernel.run_for(400_000_000).expect("run");
    let (n2, interval2) = kernel
        .with_module_mut::<AutonomicDaemon, _>(&daemon, |d, _| {
            (d.recorder.outcomes.len(), d.intervals_used.last().copied().unwrap_or(0))
        })
        .unwrap();
    println!(
        "after failure burst: {} checkpoints total, interval tightened to {:.1} ms",
        n2,
        interval2 as f64 / 1e6
    );
    assert!(interval2 < interval1, "interval should tighten under failures");

    // Administrator flow: planned outage — checkpoint and freeze everything.
    let outs = autonomic::planned_outage(&mut kernel, &daemon).expect("outage");
    println!(
        "planned outage: {} process(es) checkpointed and frozen for maintenance",
        outs.len()
    );
    let w = kernel.process(pid).unwrap().work_done;
    kernel.run_for(100_000_000).expect("run");
    assert_eq!(kernel.process(pid).unwrap().work_done, w);
    autonomic::resume_preempted(&mut kernel, pid).expect("resume");
    kernel.run_for(50_000_000).expect("run");
    assert!(kernel.process(pid).unwrap().work_done > w);
    println!("maintenance over; application resumed where it left off — autonomic OK");
}
