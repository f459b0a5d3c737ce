//! Coordinated checkpointing onto the quorum-replicated remote backend.
//!
//! `Cluster::with_remote` gives every node its own `ReplicatedStore`
//! client onto one shared replica set, so these tests exercise the full
//! survivability story the paper argues for: a round keeps committing
//! while replicas die (as long as the write quorum holds), losing the
//! quorum is a *typed* abort that preserves the previous cut, and a
//! cluster-node loss mid-round restarts from the committed round on the
//! survivors — with the images coming back from whichever replicas are
//! still reachable.

use std::sync::Arc;

use ckpt_cluster::{Cluster, FailureConfig, MpiJob, NodeId, ShardedCoordinator};
use ckpt_core::shared_storage;
use ckpt_core::tracker::TrackerKind;
use ckpt_replica::{ReplicaConfig, ReplicaSet, ReplicatedStore};
use simos::apps::{AppParams, NativeKind};
use simos::cost::CostModel;

fn setup_replicated(
    n_nodes: usize,
    n_ranks: u32,
    n_replicas: usize,
    w: usize,
) -> (Cluster, Arc<ReplicaSet>, MpiJob, ShardedCoordinator) {
    let set = ReplicaSet::new(n_replicas);
    let cfg = ReplicaConfig::new(n_replicas, w);
    let mut c = Cluster::with_remote(n_nodes, CostModel::circa_2005(), FailureConfig::none(), |_| {
        shared_storage(ReplicatedStore::new(set.clone(), cfg))
    });
    let job = MpiJob::launch(
        &mut c,
        "app",
        n_ranks,
        NativeKind::SparseRandom,
        AppParams::small(),
        6,
        32 * 1024,
    )
    .unwrap();
    let coord = ShardedCoordinator::per_image("repljob", TrackerKind::KernelPage);
    (c, set, job, coord)
}

/// Every rank's in-guest superstep counter (the durable truth a restart
/// must make consistent).
fn guest_supersteps(c: &mut Cluster, job: &MpiJob) -> Vec<u64> {
    job.ranks
        .iter()
        .map(|r| {
            let k = c.node(r.node).kernel().expect("rank node alive");
            let mut buf = [0u8; 8];
            k.process(r.pid)
                .unwrap()
                .mem
                .peek(ckpt_cluster::mpi::SLOT_SUPERSTEP, &mut buf);
            u64::from_le_bytes(buf)
        })
        .collect()
}

#[test]
fn rounds_commit_through_replica_loss_and_survive_node_loss() {
    let (mut c, set, mut job, mut coord) = setup_replicated(3, 6, 3, 2);
    for _ in 0..2 {
        job.superstep(&mut c).unwrap();
    }
    let o = coord.checkpoint(&mut c, &job).unwrap();
    assert_eq!(o.ranks, 6);
    assert!(o.total_bytes > 0);

    // Every replica holds every rank's image after a healthy round.
    for node in set.nodes() {
        assert_eq!(node.keys().len(), 6, "replica {} incomplete", node.index());
    }

    // A replica dies. w = 2 of N = 3 still holds: the next round commits.
    set.node(1).fail();
    job.superstep(&mut c).unwrap();
    let o2 = coord.checkpoint(&mut c, &job).unwrap();
    assert!(o2.incremental);

    // Now a *cluster* node dies with the replica still down. Restart must
    // assemble round 2 from the two surviving replicas, on the survivors.
    c.inject_failure(NodeId(1));
    assert!(matches!(
        job.superstep(&mut c),
        Err(ckpt_cluster::mpi::JobInterrupt::NodeLost(_))
    ));
    coord.restart(&mut c, &mut job).unwrap();
    assert_eq!(job.completed_supersteps(), 3, "restart lands on round 2's cut");
    let counters = guest_supersteps(&mut c, &job);
    assert!(counters.iter().all(|&s| s == 3), "inconsistent cut: {counters:?}");
    for r in &job.ranks {
        assert_ne!(r.node, NodeId(1), "ranks must migrate off the dead node");
    }

    // Read-repair during the restart loads must not have resurrected the
    // dead replica — it is still down.
    assert!(set.node(1).is_down());

    // The job completes from the restored cut.
    for _ in 0..3 {
        job.superstep(&mut c).unwrap();
    }
    assert_eq!(job.completed_supersteps(), 6);
}

#[test]
fn losing_the_quorum_is_a_typed_abort_and_repair_recovers_the_cut() {
    let (mut c, set, mut job, mut coord) = setup_replicated(2, 4, 3, 2);
    for _ in 0..3 {
        job.superstep(&mut c).unwrap();
    }
    coord.checkpoint(&mut c, &job).unwrap();
    job.superstep(&mut c).unwrap();

    // Two of three replicas gone: writes cannot reach w = 2.
    set.node(0).fail();
    set.node(2).fail();
    let err = coord.checkpoint(&mut c, &job).unwrap_err();
    assert!(
        err.to_string().contains("quorum lost"),
        "quorum loss must surface typed, got: {err}"
    );
    assert!(coord.has_checkpoint(), "the committed round survives the abort");

    // Reads are refused too — a restart now would have to guess, so it
    // must not answer.
    let load_err = coord.restart(&mut c, &mut job).unwrap_err();
    assert!(
        load_err.to_string().contains("quorum lost"),
        "quorum-lost restart must refuse typed, got: {load_err}"
    );

    // Repair the replicas: the committed cut is intact and restartable.
    set.node(0).repair();
    set.node(2).repair();
    coord.restart(&mut c, &mut job).unwrap();
    assert_eq!(job.completed_supersteps(), 3);
    let counters = guest_supersteps(&mut c, &job);
    assert!(counters.iter().all(|&s| s == 3), "inconsistent cut: {counters:?}");

    // And the post-abort round re-baselines full, then commits.
    job.superstep(&mut c).unwrap();
    let o = coord.checkpoint(&mut c, &job).unwrap();
    assert!(!o.incremental, "round after an abort must re-baseline as full");
}

#[test]
fn node_loss_mid_round_on_replicated_remote_keeps_the_cut() {
    let (mut c, _set, mut job, mut coord) = setup_replicated(3, 6, 5, 3);
    for _ in 0..2 {
        job.superstep(&mut c).unwrap();
    }
    coord.checkpoint(&mut c, &job).unwrap();
    job.superstep(&mut c).unwrap();

    // A cluster node dies mid-round: typed abort, no mixed rounds.
    c.inject_failure(NodeId(1));
    let err = coord.checkpoint(&mut c, &job).unwrap_err();
    assert!(
        err == simos::types::SimError::NodeDown(1),
        "node loss mid-round must surface typed: {err}"
    );
    assert!(coord.has_checkpoint());

    coord.restart(&mut c, &mut job).unwrap();
    assert_eq!(job.completed_supersteps(), 2);
    let counters = guest_supersteps(&mut c, &job);
    assert!(counters.iter().all(|&s| s == 2), "inconsistent cut: {counters:?}");
    assert!(job.ranks.iter().all(|r| r.node != NodeId(1)));

    // Forward progress and a committing round on the survivors.
    job.superstep(&mut c).unwrap();
    coord.checkpoint(&mut c, &job).unwrap();
}
