//! Structural golden pin for C14, the sharded control plane.
//!
//! C14 runs on the sweep engine and emits a canonical JSON artifact
//! (`goldens/SWEEP_c14.json`); this test diffs the regenerated artifact
//! against the golden *structurally* — a mismatch names the first
//! divergent path and both values
//! (`c14.nodes.jobs[3].metrics.round_ns: 1234 != 1250`) instead of
//! "hash mismatch". Everything in the artifact is deterministic by
//! construction: the cluster section's guests are seeded, the scale
//! model draws payloads from splitmix64, and only pure payload encodes
//! fan out on the pool behind an ordered merge — so the bytes pin at
//! any worker count.
//!
//! If an *intentional* change lands, regenerate:
//! `./target/release/report sweep --out crates/bench/goldens/` (then
//! drop the RUNBOOK/other artifacts) and commit the new golden with the
//! reason in the same commit.

use ckpt_bench::artifact::{canonical_document, first_divergence, fnv1a64, parse_document};
use ckpt_bench::sweep::sweep_artifact;
use std::process::Command;

const GOLDEN: &str = include_str!("../goldens/SWEEP_c14.json");

#[test]
fn c14_artifact_matches_structural_golden() {
    let golden = parse_document(GOLDEN).expect("golden parses");
    assert!(golden.keys_sorted, "golden must be canonical (sorted keys)");
    let actual_doc = canonical_document(&sweep_artifact(&ckpt_bench::swept::c14_sweeps()));
    let actual = parse_document(&actual_doc).expect("artifact parses");
    if let Some(d) = first_divergence("c14", &golden.value, &actual.value) {
        panic!("C14 sweep artifact diverged from golden: {d}");
    }
    assert_eq!(actual_doc, GOLDEN, "artifact bytes moved without a structural diff");
}

#[test]
fn report_c14_is_pool_width_invariant() {
    // The determinism discipline's observable contract: the rendered
    // report's bytes cannot depend on how many workers the pool runs.
    // Each width runs in its own process because the global pool latches
    // its size once. (The sweep-artifact counterpart of this test lives
    // in sweep_properties.rs.)
    let mut outputs = Vec::new();
    for width in ["1", "4", "8"] {
        let out = Command::new(env!("CARGO_BIN_EXE_report"))
            .env("CKPT_PAR_WORKERS", width)
            .arg("c14")
            .output()
            .expect("run report c14");
        assert!(out.status.success(), "report c14 failed at width {width}");
        outputs.push(out.stdout);
    }
    assert_eq!(outputs[0], outputs[1], "width 1 vs 4 outputs differ");
    assert_eq!(outputs[1], outputs[2], "width 4 vs 8 outputs differ");
}

#[test]
fn c14_shard_count_does_not_change_the_committed_images() {
    // Partitioning is an execution detail: the same job checkpointed
    // through 1, 2, or 8 shard coordinators must commit byte-identical
    // image sets (same keys, same guest state) to the striped pool. The
    // one field allowed to move is the header's capture instant —
    // earlier shards charge their commit latency before later shards
    // capture, exactly as the per-image protocol's sequential per-rank
    // commits do — so it is normalized to zero before digesting.
    use ckpt_cluster::{Cluster, FailureConfig, MpiJob, ShardedCoordinator};
    use ckpt_core::TrackerKind;
    use simos::apps::{AppParams, NativeKind};
    use simos::cost::CostModel;

    let run = |shards: usize| -> Vec<(String, u64)> {
        let mut c = Cluster::new_striped(
            4,
            CostModel::circa_2005(),
            FailureConfig::none(),
            4,
            3,
            2,
        );
        let mut job = MpiJob::launch(
            &mut c,
            "app",
            8,
            NativeKind::SparseRandom,
            AppParams::small(),
            6,
            32 * 1024,
        )
        .expect("launch");
        let mut coord = ShardedCoordinator::new("c14g", TrackerKind::KernelPage, shards);
        for _ in 0..2 {
            job.superstep(&mut c).expect("superstep");
        }
        coord.checkpoint(&mut c, &job).expect("checkpoint");
        let cost = CostModel::circa_2005();
        let storage = c.node(ckpt_cluster::NodeId(0)).remote.clone();
        let s = storage.lock();
        s.list()
            .into_iter()
            .map(|k| {
                let (bytes, _) = s.load(&k, &cost).expect("load committed image");
                let mut img = ckpt_image::decode(&bytes).expect("decode committed image");
                img.header.taken_at_ns = 0;
                (k, fnv1a64(&ckpt_image::encode(&img)))
            })
            .collect()
    };

    let one = run(1);
    assert!(!one.is_empty());
    assert_eq!(one, run(2), "2 shards committed a different image set");
    assert_eq!(one, run(8), "8 shards committed a different image set");
}

#[test]
fn c14_batched_acks_stay_an_order_of_magnitude_under_per_image() {
    // Acceptance: the batched quorum commit measurably reduces replica
    // ack cycles per round vs the per-image path at the 10k-node point.
    let out = ckpt_bench::c14_shard();
    let reduction: f64 = out
        .lines()
        .find(|l| l.starts_with("ack cycles per round at"))
        .and_then(|l| l.rsplit('(').next())
        .and_then(|v| v.trim_end_matches(')').trim_end_matches("x fewer").parse().ok())
        .expect("ack summary line present");
    assert!(
        reduction > 10.0,
        "batched commits must cut ack cycles by >10x at 10k nodes, got {reduction}"
    );
}
