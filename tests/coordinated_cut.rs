//! The coordinated cut, pinned from the outside.
//!
//! The LAM/MPI per-image protocol (one commit per rank) runs 3 nodes × 6
//! ranks through three rounds (full, incremental, incremental), loses a
//! node, restarts and runs two more supersteps — once over the plain
//! remote server (`Cluster::new`) and once over a `replicated(3,2)` quorum
//! (`Cluster::with_remote`). What the protocol did is rendered line by
//! line — each round's `(seq, ranks, total_bytes, round_ns, incremental)`,
//! the storage trace records, every stored image (length, header clock,
//! FNV-1a 64 of its content with that clock zeroed) and every rank's state
//! after recovery — and compared with `tests/goldens/coordinated_cut.txt`.
//!
//! The golden was captured from the flat `Coordinator` before it was
//! folded into [`ShardedCoordinator`] as the one-rank-per-shard case, and
//! must never move for a refactor. The one stated exception was taken in
//! that merge, on the quorum remote only: a batch of one is still a framed
//! batch — 16 + 20 + key bytes of frame per replica, 224 ns on this wire
//! for these 20-byte keys, three replicas in turn: +672 virtual ns per rank
//! commit — visible in `round_ns`, the store records' `stall` and the
//! header clocks of later captures on the same node (CHANGES.md, PR 18).

mod common;

use std::fmt::Write as _;

use ckpt_restart::cluster::{Cluster, FailureConfig, MpiJob, NodeId, ShardedCoordinator};
use ckpt_restart::prelude::*;
use ckpt_restart::replica::{ReplicaConfig, ReplicaSet, ReplicatedStore};
use ckpt_restart::simos::apps::{AppParams, NativeKind};
use ckpt_restart::simos::cost::CostModel;
use ckpt_restart::storage::fnv1a64;

const GOLDEN: &str = include_str!("goldens/coordinated_cut.txt");

fn cluster(backend: &str) -> Cluster {
    let (cost, failures) = (CostModel::circa_2005(), FailureConfig::none());
    match backend {
        "remote" => Cluster::new(3, cost, failures),
        "replicated(3,2)" => {
            let set = ReplicaSet::new(3);
            Cluster::with_remote(3, cost, failures, |_| {
                shared_storage(ReplicatedStore::new(set.clone(), ReplicaConfig::new(3, 2)))
            })
        }
        other => panic!("unknown backend {other}"),
    }
}

fn render_everything() -> String {
    let mut out = String::new();
    for backend in ["remote", "replicated(3,2)"] {
        writeln!(out, "== per-image protocol over {backend}").unwrap();
        let mut c = cluster(backend);
        let trace = TraceHandle::recording();
        c.set_trace(trace.clone());
        let mut job = MpiJob::launch(
            &mut c,
            "app",
            6,
            NativeKind::SparseRandom,
            AppParams::small(),
            6,
            32 * 1024,
        )
        .unwrap();
        let mut coord = ShardedCoordinator::per_image("cut", TrackerKind::KernelPage);
        job.superstep(&mut c).unwrap();
        for _ in 0..3 {
            job.superstep(&mut c).unwrap();
            let o = coord.checkpoint(&mut c, &job).unwrap();
            writeln!(
                out,
                "round seq={} ranks={} total_bytes={} round_ns={} incremental={}",
                o.seq, o.ranks, o.total_bytes, o.round_ns, o.incremental
            )
            .unwrap();
        }
        job.superstep(&mut c).unwrap();
        c.inject_failure(NodeId(1));
        assert!(job.superstep(&mut c).is_err(), "the lost node interrupts the job");
        coord.restart(&mut c, &mut job).unwrap();
        for _ in 0..2 {
            job.superstep(&mut c).unwrap();
        }
        for ((op, class), agg) in &trace.report().storage {
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
        let store = c.nodes[0].remote.lock();
        let mut keys = store.list();
        keys.sort();
        for key in keys {
            let (bytes, _) = store.load(&key, &CostModel::circa_2005()).unwrap();
            let mut img = ckpt_restart::image::decode(&bytes).unwrap();
            let taken_at = std::mem::take(&mut img.header.taken_at_ns);
            writeln!(
                out,
                "object {key} len={} taken_at={taken_at} content={:016x}",
                bytes.len(),
                fnv1a64(&ckpt_restart::image::encode(&img))
            )
            .unwrap();
        }
        drop(store);
        for (rank, (superstep, inbox)) in job.rank_states(&mut c).unwrap().into_iter().enumerate() {
            writeln!(out, "rank {rank} superstep={superstep} inbox={inbox:016x}").unwrap();
        }
    }
    out
}

#[test]
fn the_per_image_protocol_matches_the_pinned_rendering() {
    common::assert_pinned("coordinated_cut", GOLDEN, &render_everything());
}
