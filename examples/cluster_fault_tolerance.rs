//! The capability-computing scenario that motivates the paper: a parallel
//! job on a failing cluster, kept alive by coordinated checkpointing to
//! remote stable storage — with automatic migration off dead nodes.
//!
//! ```text
//! cargo run --release --example cluster_fault_tolerance
//! ```

use ckpt_restart::cluster::{
    Cluster, FailureConfig, JobInterrupt, MpiJob, NodeId, ShardedCoordinator,
};
use ckpt_restart::ckpt::TrackerKind;
use ckpt_restart::simos::apps::{AppParams, NativeKind};
use ckpt_restart::simos::cost::CostModel;

fn main() {
    // Four nodes, aggressive per-node MTBF so we see failures quickly.
    let mut cluster = Cluster::new(
        4,
        CostModel::circa_2005(),
        FailureConfig::with_mtbf(60_000_000, 3_000_000, 2024),
    );
    let mut params = AppParams::small();
    params.mem_bytes = 128 * 1024;
    let mut job = MpiJob::launch(
        &mut cluster,
        "stencil",
        4,
        NativeKind::DenseSweep,
        params,
        20,
        32 * 1024,
    )
    .expect("launch");
    println!(
        "launched 4-rank job on nodes {:?}",
        job.ranks.iter().map(|r| r.node.0).collect::<Vec<_>>()
    );
    let mut coord = ShardedCoordinator::per_image("demo-job", TrackerKind::KernelPage);

    let target = 12u64;
    let mut recoveries = 0;
    while job.completed_supersteps() < target {
        match job.superstep(&mut cluster) {
            Ok(()) => {
                let done = job.completed_supersteps();
                print!("superstep {done:>2} done");
                if done.is_multiple_of(3) {
                    let o = coord.checkpoint(&mut cluster, &job).expect("ckpt");
                    print!(
                        "  [coordinated ckpt #{}: {} bytes, {} ns, incremental={}]",
                        o.seq, o.total_bytes, o.round_ns, o.incremental
                    );
                }
                println!();
            }
            Err(JobInterrupt::NodeLost(node)) => {
                println!("!! node {node} failed at t={} ns", cluster.now());
                // Wait for capacity if needed, then roll back and migrate.
                while cluster.alive_nodes().len() < 2 {
                    cluster.advance(5_000_000);
                }
                coord.restart(&mut cluster, &mut job).expect("recover");
                recoveries += 1;
                println!(
                    "   recovered to superstep {} on nodes {:?}",
                    job.completed_supersteps(),
                    job.ranks.iter().map(|r| r.node.0).collect::<Vec<_>>()
                );
            }
        }
    }
    println!(
        "\njob completed {target} supersteps at t={:.2} ms with {} failures and {} recoveries",
        cluster.now() as f64 / 1e6,
        cluster.failure_log.len(),
        recoveries
    );
    // Show the final rank states agree (the ring exchange is intact).
    let states = job.rank_states(&mut cluster).expect("states");
    for (i, (ss, inbox)) in states.iter().enumerate() {
        println!("rank {i}: superstep={ss} inbox=0x{inbox:016x}");
    }
    let _ = NodeId(0);
}
