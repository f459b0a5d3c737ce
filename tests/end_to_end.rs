//! Cross-crate end-to-end scenarios: the full lifecycle flows a user of
//! the library would run — hibernation across a power cycle, autonomic
//! checkpointing surviving a node loss via remote storage, gang
//! scheduling, and local-vs-remote storage fault coverage.

use ckpt_restart::cluster::{
    Cluster, FailureConfig, Gang, GangScheduler, MpiJob, NodeId, ShardedCoordinator,
};
use ckpt_restart::ckpt::autonomic::{self, AutonomicConfig, AutonomicDaemon};
use ckpt_restart::ckpt::mechanism::hibernate::{SoftwareSuspend, SuspendMode};
use ckpt_restart::ckpt::mechanism::kthread::{
    KernelThreadMechanism, KthreadIface, KthreadVariant,
};
use ckpt_restart::ckpt::mechanism::Mechanism;
use ckpt_restart::ckpt::{shared_storage, RestorePid, TrackerKind};
use ckpt_restart::simos::apps::{AppParams, NativeKind};
use ckpt_restart::simos::cost::CostModel;
use ckpt_restart::simos::Kernel;
use ckpt_restart::storage::SwapStore;

#[test]
fn hibernation_survives_a_power_cycle() {
    // Software Suspend: freeze everything, save to swap, power down, boot,
    // resume — all processes continue under their original pids.
    let mut k = Kernel::new(CostModel::circa_2005());
    let mut pids = Vec::new();
    for seed in 0..3u64 {
        let mut p = AppParams::small();
        p.seed = seed;
        p.total_steps = u64::MAX;
        pids.push(k.spawn_native(NativeKind::SparseRandom, p).unwrap());
    }
    k.run_for(30_000_000).unwrap();
    let works: Vec<u64> = pids.iter().map(|p| k.process(*p).unwrap().work_done).collect();

    let swap = shared_storage(SwapStore::new(1 << 32));
    let mut susp = SoftwareSuspend::new(swap.clone());
    let report = susp.hibernate(&mut k, SuspendMode::ToDisk).unwrap();
    assert_eq!(report.processes_saved, 3);
    swap.lock().on_power_down();
    drop(k); // the machine is off

    let mut k2 = Kernel::new(CostModel::circa_2005());
    let restored = susp.resume(&mut k2).unwrap();
    assert_eq!(restored, pids, "original pids restored");
    for (pid, w) in pids.iter().zip(&works) {
        assert_eq!(k2.process(*pid).unwrap().work_done, *w);
    }
    k2.run_for(30_000_000).unwrap();
    assert!(k2.process(pids[0]).unwrap().work_done > works[0]);
}

#[test]
fn autonomic_checkpoints_to_remote_storage_survive_node_loss() {
    // The paper's full "direction forward" story on a cluster: the daemon
    // checkpoints autonomously to remote storage; the node dies; the job
    // restarts on another node from the remote images.
    let mut cluster = Cluster::new(2, CostModel::circa_2005(), FailureConfig::none());
    let remote0 = cluster.nodes[0].remote.clone();
    let pid = {
        let k = cluster.node(NodeId(0)).kernel().unwrap();
        let mut p = AppParams::small();
        p.total_steps = u64::MAX;
        let pid = k.spawn_native(NativeKind::SparseRandom, p).unwrap();
        let cfg = AutonomicConfig {
            initial_interval_ns: 10_000_000,
            adaptive: false, // fixed 10 ms so the 100 ms window sees several rounds
            job: "auto".into(),
            ..Default::default()
        };
        let name = autonomic::install(k, cfg, remote0).unwrap();
        autonomic::register(k, &name, pid).unwrap();
        pid
    };
    cluster.advance(100_000_000);
    let (n_ckpts, saved_work) = {
        let k = cluster.node(NodeId(0)).kernel().unwrap();
        let n = k
            .with_module_mut::<AutonomicDaemon, _>("autonomicd", |d, _| d.outcomes.len())
            .unwrap();
        (n, k.process(pid).unwrap().work_done)
    };
    assert!(n_ckpts >= 3, "daemon should have checkpointed: {n_ckpts}");

    // Node 0 fail-stops. Local state is gone; the remote server has the
    // images. Restart on node 1.
    cluster.inject_failure(NodeId(0));
    let remote1 = cluster.nodes[1].remote.clone();
    let k1 = cluster.node(NodeId(1)).kernel().unwrap();
    let r = ckpt_restart::ckpt::mechanism::restart_from_shared(
        &remote1,
        "auto",
        pid,
        k1,
        RestorePid::Fresh,
    )
    .unwrap();
    assert!(r.work_done > 0);
    assert!(r.work_done <= saved_work);
    k1.run_for(30_000_000).unwrap();
    assert!(k1.process(r.pid).unwrap().work_done > r.work_done);
}

#[test]
fn uclik_full_circle_original_pid_and_files() {
    // UCLiK variant end-to-end: open files with content, checkpoint,
    // restart elsewhere under the original pid with file contents intact.
    let mut k = Kernel::new(CostModel::circa_2005());
    let mut p = AppParams::small();
    p.total_steps = u64::MAX;
    let pid = k.spawn_native(NativeKind::AppendLog, p).unwrap();
    k.do_syscall(
        pid,
        ckpt_restart::simos::syscall::Syscall::Open {
            path: "/tmp/journal".into(),
            flags: ckpt_restart::simos::fs::OpenFlags::RDWR_CREATE,
        },
    )
    .unwrap();
    k.fs.write_at("/tmp/journal", 0, b"entries...").unwrap();
    let mut mech = KernelThreadMechanism::new(
        "uclik",
        "uclik-job",
        shared_storage(ckpt_restart::storage::LocalDisk::new(1 << 32)),
        TrackerKind::KernelPage,
        KthreadIface::Ioctl,
        KthreadVariant {
            restore_original_pid: true,
            save_file_contents: true,
            ..Default::default()
        },
    );
    mech.prepare(&mut k, pid).unwrap();
    k.run_for(20_000_000).unwrap();
    mech.checkpoint(&mut k, pid).unwrap();
    drop(k);
    let mut k2 = Kernel::new(CostModel::circa_2005());
    let r = mech.restart(&mut k2, RestorePid::Fresh).unwrap();
    assert_eq!(r.pid, pid);
    assert_eq!(k2.fs.read_file("/tmp/journal").unwrap(), b"entries...");
}

#[test]
fn gang_scheduling_round_robins_two_jobs() {
    let mut cluster = Cluster::new(2, CostModel::circa_2005(), FailureConfig::none());
    let mk = |cluster: &mut Cluster, name: &str, seed: u64| {
        let mut p = AppParams::small();
        p.seed = seed;
        let job = MpiJob::launch(cluster, name, 2, NativeKind::SparseRandom, p, 4, 16 * 1024)
            .unwrap();
        Gang::new(job, TrackerKind::KernelPage)
    };
    let a = mk(&mut cluster, "A", 1);
    let b = mk(&mut cluster, "B", 2);
    let mut sched = GangScheduler::new(2);
    sched.add(a);
    sched.add(b);
    let order = sched.run(&mut cluster, 6).unwrap();
    assert_eq!(order.len(), 2);
    for gang in &sched.gangs {
        assert_eq!(gang.job.completed_supersteps(), 6);
    }
    assert!(sched.switches >= 2);
}

#[test]
fn coordinated_checkpoint_storage_is_remote_by_construction() {
    // The images a coordinator writes land on the shared remote server,
    // reachable from every node — verify by reading them from the *other*
    // node's client.
    let mut cluster = Cluster::new(2, CostModel::circa_2005(), FailureConfig::none());
    let mut p = AppParams::small();
    p.total_steps = u64::MAX;
    let job = MpiJob::launch(
        &mut cluster,
        "j",
        2,
        NativeKind::SparseRandom,
        p,
        4,
        16 * 1024,
    )
    .unwrap();
    let mut coord = ShardedCoordinator::per_image("remote-proof", TrackerKind::FullOnly);
    coord.checkpoint(&mut cluster, &job).unwrap();
    let keys = cluster.nodes[1].remote.lock().list();
    assert!(
        keys.iter().any(|k| k.starts_with("remote-proof/")),
        "coordinated images must be on the shared remote server: {keys:?}"
    );
}

#[test]
fn remote_store_clients_see_failures_locally_only() {
    let mut cluster = Cluster::new(2, CostModel::circa_2005(), FailureConfig::none());
    let c = CostModel::circa_2005();
    cluster.nodes[0]
        .remote
        .lock()
        .store("x", b"1", &c)
        .unwrap();
    cluster.inject_failure(NodeId(0));
    // Node 1 still reads the object.
    assert_eq!(cluster.nodes[1].remote.lock().load("x", &c).unwrap().0, b"1");
    // Node 0's client cannot (it is down).
    assert!(cluster.nodes[0].remote.lock().load("x", &c).is_err());
}
