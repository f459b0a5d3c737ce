//! Process migration with ZAP-style pod virtualization: moving a process
//! onto a node whose pid and file paths collide with it — the resource-
//! conflict problem Section 3 of the paper describes.
//!
//! ```text
//! cargo run --release --example migration_pod
//! ```

use ckpt_restart::cluster::{migrate, Cluster, FailureConfig, MigrationMode, NodeId};
use ckpt_restart::ckpt::pod::Pod;
use ckpt_restart::simos::apps::{AppParams, NativeKind};
use ckpt_restart::simos::cost::CostModel;
use ckpt_restart::simos::fs::OpenFlags;
use ckpt_restart::simos::syscall::Syscall;

fn main() {
    let mut cluster = Cluster::new(2, CostModel::circa_2005(), FailureConfig::none());
    let mut params = AppParams::small();
    params.total_steps = u64::MAX;

    // The migrant on node 0, with an open file.
    let migrant = cluster
        .node(NodeId(0))
        .kernel()
        .unwrap()
        .spawn_native(NativeKind::SparseRandom, params.clone())
        .unwrap();
    cluster
        .node(NodeId(0))
        .kernel()
        .unwrap()
        .do_syscall(
            migrant,
            Syscall::Open {
                path: "/tmp/results".into(),
                flags: OpenFlags::RDWR_CREATE,
            },
        )
        .unwrap();

    // A squatter on node 1 with the SAME pid, plus a colliding file path.
    let squatter = cluster
        .node(NodeId(1))
        .kernel()
        .unwrap()
        .spawn_native(NativeKind::SparseRandom, params)
        .unwrap();
    cluster
        .node(NodeId(1))
        .kernel()
        .unwrap()
        .fs
        .create_file("/tmp/results")
        .unwrap();
    cluster.advance(20_000_000);
    println!("migrant: {migrant} on node0; squatter: {squatter} on node1 (same pid number)");

    // Attempt 1: pre-ZAP migration keeping identity — hits the conflict.
    match migrate(
        &mut cluster,
        NodeId(0),
        migrant,
        NodeId(1),
        MigrationMode::KeepIdentity,
        None,
    ) {
        Err(e) => println!("keep-identity migration fails as expected: {e}"),
        Ok(_) => panic!("conflict should have been detected"),
    }

    // Attempt 2: pod-virtualized migration (ZAP).
    let mut pod = Pod::new("jobA");
    let report = migrate(
        &mut cluster,
        NodeId(0),
        migrant,
        NodeId(1),
        MigrationMode::Podded,
        Some(&mut pod),
    )
    .expect("podded migration");
    println!(
        "podded migration OK: moved {} bytes; physical pid {}, virtual pid {} preserved in pod",
        report.bytes_moved,
        report.new_pid,
        pod.virtual_of(report.new_pid).unwrap()
    );
    println!(
        "files re-rooted: /pods/jobA/tmp/results exists = {}",
        cluster
            .node(NodeId(1))
            .kernel()
            .unwrap()
            .fs
            .exists("/pods/jobA/tmp/results")
    );

    // The migrated process keeps computing, paying ZAP's interposition tax.
    let w0 = cluster
        .node(NodeId(1))
        .kernel()
        .unwrap()
        .process(report.new_pid)
        .unwrap()
        .work_done;
    cluster.advance(30_000_000);
    let k1 = cluster.node(NodeId(1)).kernel().unwrap();
    println!(
        "migrated process progressed {} → {} steps; interposition active = {}",
        w0,
        k1.process(report.new_pid).unwrap().work_done,
        k1.process(report.new_pid).unwrap().user_rt.interpose_active
    );
    println!("squatter untouched: {}", k1.process(squatter).is_some());
}
