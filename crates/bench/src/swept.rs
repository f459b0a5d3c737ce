//! C12, C14 and C16 ported onto the sweep engine.
//!
//! Each experiment is a batch of [`SweepPlan`]s: the parameter grid the
//! old hand-rolled loops walked, now declared as typed axes (with filters
//! for the non-rectangular parts, e.g. `lost <= n`). The job closures
//! measure exactly what the old loop bodies measured and return the
//! numbers as canonical JSON metrics; the text renderers rebuild the
//! human tables from those metrics, byte-identical to the pre-port
//! output, so `report c12/c14/c16` never moved while the goldens became
//! structural.
//!
//! The split matters: the *artifact* (SWEEP_cXX.json) is the canonical,
//! diffable record CI compares structurally; the *text* is a projection
//! of it for humans. Anything the text shows is derived from metrics in
//! the artifact — never measured twice.

use crate::artifact::Json;
use crate::experiments::{fresh_kernel, run_steps};
use crate::fmt::{bytes, ns, table};
use crate::sweep::{run_sweep, AxisValue, JobResult, JobSpec, SweepPlan, SweepRun};
use ckpt_cluster::{
    scale_round, Cluster, FailureConfig, MpiJob, ScaleConfig, ScalePoint, ShardedCoordinator,
};
use ckpt_core::{capture_image, CaptureOptions, TrackerKind};
use ckpt_ec::ErasureStore;
use ckpt_replica::ReplicatedStore;
use ckpt_storage::{ImageKey, StableStorage, StorageError};
use simos::apps::{AppParams, NativeKind};
use simos::cost::CostModel;

// ---------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------

/// The deterministic byte pattern every storage experiment commits (a
/// realistic image payload; 251 is prime so no page-aligned repetition).
fn pattern_payload(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i % 251) as u8).collect()
}

/// One guest's checkpoint lineage: one full + three incremental images,
/// captured uncompressed (same generator C13 uses — deterministic, so
/// identical guests produce byte-identical lineages).
fn lineage(kind: NativeKind) -> Vec<Vec<u8>> {
    let mut k = fresh_kernel();
    let mut p = AppParams::small();
    p.mem_bytes = 128 * 1024;
    p.total_steps = u64::MAX;
    let pid = k.spawn_native(kind, p).expect("spawn");
    (0..4u64)
        .map(|seq| {
            run_steps(&mut k, pid, 8);
            let mut opts = CaptureOptions::full("c16", seq);
            opts.compress = false;
            let img = capture_image(&mut k, pid, &opts).expect("capture");
            ckpt_image::encode(&img)
        })
        .collect()
}

/// Guest-app axis label → kind (the labels are the `Debug` names, which
/// is also what the tables print).
fn app_kind(label: &str) -> NativeKind {
    NativeKind::ALL
        .into_iter()
        .find(|k| format!("{k:?}") == label)
        .unwrap_or_else(|| panic!("unknown guest app label '{label}'"))
}

/// `rs(4,2)` / `repl(3,2)` → the two geometry numbers.
fn parse_geometry(label: &str) -> (usize, usize) {
    let inner = label
        .split('(')
        .nth(1)
        .map(|s| s.trim_end_matches(')'))
        .unwrap_or_else(|| panic!("geometry label '{label}' has no (k,m)"));
    let mut it = inner.split(',');
    let a = it.next().and_then(|v| v.parse().ok());
    let b = it.next().and_then(|v| v.parse().ok());
    match (a, b) {
        (Some(a), Some(b)) => (a, b),
        _ => panic!("geometry label '{label}' did not parse"),
    }
}

fn mu(j: &JobResult, key: &str) -> u64 {
    j.metrics
        .get(key)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("plan '{}': metric '{key}' missing or not u64", j.spec.plan))
}

fn mf(j: &JobResult, key: &str) -> f64 {
    j.metrics
        .get(key)
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("plan '{}': metric '{key}' missing or not f64", j.spec.plan))
}

fn ms<'a>(j: &'a JobResult, key: &str) -> &'a str {
    j.metrics
        .get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("plan '{}': metric '{key}' missing or not str", j.spec.plan))
}

fn mb(j: &JobResult, key: &str) -> bool {
    j.metrics
        .get(key)
        .and_then(Json::as_bool)
        .unwrap_or_else(|| panic!("plan '{}': metric '{key}' missing or not bool", j.spec.plan))
}

fn named<'a>(runs: &'a [SweepRun], name: &str) -> &'a SweepRun {
    runs.iter()
        .find(|r| r.plan_name == name)
        .unwrap_or_else(|| panic!("missing sweep run '{name}'"))
}

/// Every swept experiment in one batch: (experiment, artifact file,
/// runs). The `report sweep` subcommand writes these plus the RunBook;
/// the structural goldens pin each artifact.
pub fn sweep_batch() -> Vec<(&'static str, String, Vec<SweepRun>)> {
    vec![
        ("c12", "SWEEP_c12.json".to_string(), c12_sweeps()),
        ("c14", "SWEEP_c14.json".to_string(), c14_sweeps()),
        ("c16", "SWEEP_c16.json".to_string(), c16_sweeps()),
    ]
}

// ---------------------------------------------------------------------
// C12 — quorum-replicated stable storage, on the engine
// ---------------------------------------------------------------------

fn c12_survivability_plan() -> SweepPlan {
    SweepPlan::new("c12.survivability")
        .seed(0xc12)
        .axis_ints("n", &[3, 5])
        .axis_ints("lost", &[0, 1, 2, 3, 4, 5])
        .filter(|c| {
            matches!(
                (c.get("n"), c.get("lost")),
                (Some(AxisValue::Int(n)), Some(AxisValue::Int(l))) if l <= n
            )
        })
}

fn c12_survivability_job(spec: &JobSpec) -> Json {
    let cost = CostModel::circa_2005();
    let n = spec.int("n") as usize;
    let w = n / 2 + 1;
    let lost = spec.int("lost") as usize;
    let payload = pattern_payload(256 * 1024);
    let mut store = ReplicatedStore::fresh(n, w);
    store.store("c12/img", &payload, &cost).unwrap();
    let set = store.replica_set();
    for i in 0..lost {
        set.node(i).fail();
    }
    let outcome = match store.load("c12/img", &cost) {
        Ok((data, _)) if data == payload => "bit-exact".to_string(),
        Ok(_) => "WRONG BYTES".to_string(),
        Err(e @ StorageError::QuorumLost { .. }) => e.to_string(),
        Err(e) => format!("unexpected: {e}"),
    };
    let correct = if lost <= n - w {
        outcome == "bit-exact"
    } else {
        outcome.starts_with("quorum lost")
    };
    Json::obj(vec![
        ("correct", Json::from(correct)),
        ("outcome", Json::Str(outcome)),
        ("quorum_w", Json::from(w)),
        ("tolerated", Json::from(n - w)),
    ])
}

fn c12_latency_plan() -> SweepPlan {
    SweepPlan::new("c12.latency")
        .seed(0xc12)
        .axis_ints("n", &[1, 3, 5, 7])
}

fn c12_latency_job(spec: &JobSpec) -> Json {
    let cost = CostModel::circa_2005();
    let n = spec.int("n") as usize;
    let w = n / 2 + 1;
    let payload = pattern_payload(256 * 1024);
    let mut store = ReplicatedStore::fresh(n, w);
    let r = store.store("c12/img", &payload, &cost).unwrap();
    Json::obj(vec![
        ("commit_ns", Json::from(r.time_ns)),
        ("payload_bytes", Json::from(r.bytes)),
        ("quorum_w", Json::from(w)),
    ])
}

fn c12_transients_plan() -> SweepPlan {
    SweepPlan::new("c12.transients")
        .seed(0xc12)
        .axis_ints("burst", &[0, 1, 3])
}

fn c12_transients_job(spec: &JobSpec) -> Json {
    let cost = CostModel::circa_2005();
    let burst = spec.int("burst") as u32;
    let payload = pattern_payload(256 * 1024);
    let mut store = ReplicatedStore::fresh(3, 2);
    let set = store.replica_set();
    for node in set.nodes() {
        node.inject_transients(burst);
    }
    let r = store.store("c12/img", &payload, &cost).unwrap();
    let st = store.stats();
    Json::obj(vec![
        ("commit_ns", Json::from(r.time_ns)),
        ("commits", Json::from(st.commits)),
        ("retries", Json::from(st.retries)),
    ])
}

/// C12's three sweeps, run on the engine.
pub fn c12_sweeps() -> Vec<SweepRun> {
    vec![
        run_sweep(&c12_survivability_plan(), c12_survivability_job),
        run_sweep(&c12_latency_plan(), c12_latency_job),
        run_sweep(&c12_transients_plan(), c12_transients_job),
    ]
}

/// C12: survivability and cost of the quorum-replicated remote backend,
/// rendered from the sweep metrics (see the pre-port doc comment in git
/// history for the experiment's rationale; the measurements are
/// unchanged).
///
/// Standalone like C11 (`report replication`); not part of `report all`.
pub fn c12_replication() -> String {
    render_c12(&c12_sweeps())
}

fn render_c12(runs: &[SweepRun]) -> String {
    let srows: Vec<Vec<String>> = named(runs, "c12.survivability")
        .jobs
        .iter()
        .map(|j| {
            let n = j.spec.int("n");
            let w = n / 2 + 1;
            vec![
                format!("({n},{w})"),
                j.spec.int("lost").to_string(),
                (n - w).to_string(),
                ms(j, "outcome").to_string(),
                mb(j, "correct").to_string(),
            ]
        })
        .collect();
    let survivability = table(
        &["quorum (N,w)", "replicas lost", "tolerated", "read outcome", "correct"],
        &srows,
    );

    let lrows: Vec<Vec<String>> = named(runs, "c12.latency")
        .jobs
        .iter()
        .map(|j| {
            vec![
                j.spec.int("n").to_string(),
                mu(j, "quorum_w").to_string(),
                bytes(mu(j, "payload_bytes")),
                ns(mu(j, "commit_ns")),
            ]
        })
        .collect();
    let latency = table(&["N", "w", "payload", "commit latency"], &lrows);

    let trows: Vec<Vec<String>> = named(runs, "c12.transients")
        .jobs
        .iter()
        .map(|j| {
            vec![
                j.spec.int("burst").to_string(),
                mu(j, "retries").to_string(),
                mu(j, "commits").to_string(),
                ns(mu(j, "commit_ns")),
            ]
        })
        .collect();
    let retries = table(
        &["transients per replica", "retries", "commits", "commit latency"],
        &trows,
    );

    format!(
        "C12 — quorum replication: survivability within N−w, typed refusal beyond\n\
         {survivability}\n\
         commit latency vs replica count (majority write quorum)\n\
         {latency}\n\
         transient faults absorbed by the jittered retry schedule (N=3, w=2)\n\
         {retries}"
    )
}

// ---------------------------------------------------------------------
// C14 — the sharded control plane, on the engine
// ---------------------------------------------------------------------

fn c14_cluster_plan() -> SweepPlan {
    SweepPlan::new("c14.cluster")
        .seed(0xc14)
        .axis_ints("ranks", &[16])
}

/// The real protocol: one job runs the whole stateful two-round session
/// (rounds share the cluster and coordinator, so they cannot be separate
/// sweep cells) and reports both rounds as a metrics array.
fn c14_cluster_job(spec: &JobSpec) -> Json {
    let ranks = spec.int("ranks") as u32;
    let mut c = Cluster::new_striped(4, CostModel::circa_2005(), FailureConfig::none(), 4, 3, 2);
    let mut job = MpiJob::launch(
        &mut c,
        "app",
        ranks,
        NativeKind::SparseRandom,
        AppParams::small(),
        6,
        32 * 1024,
    )
    .expect("launch");
    let mut coord = ShardedCoordinator::new("c14", TrackerKind::KernelPage, 2);
    let mut rounds = Vec::new();
    for _ in 0..2 {
        for _ in 0..2 {
            job.superstep(&mut c).expect("superstep");
        }
        let o = coord.checkpoint(&mut c, &job).expect("checkpoint");
        rounds.push(Json::obj(vec![
            ("ack_cycles", Json::from(o.ack_cycles)),
            ("incremental", Json::from(o.incremental)),
            ("ranks", Json::from(o.ranks)),
            ("round_ns", Json::from(o.round_ns)),
            ("seq", Json::from(o.seq)),
            ("shards", Json::from(o.shards)),
            ("total_bytes", Json::from(o.total_bytes)),
        ]));
    }
    Json::obj(vec![("rounds", Json::Arr(rounds))])
}

/// The scale-model base point: 4,000 nodes over 16 shards and a 4-wide
/// stripe pool at the paper's 10 h per-node MTBF.
fn c14_base() -> ScaleConfig {
    ScaleConfig {
        nodes: 4000,
        shards: 16,
        stripes: 4,
        replicas: 3,
        write_quorum: 2,
        mean_image_bytes: 1024,
        mtbf_hours: 10.0,
        seed: 0xc14,
    }
}

fn scale_metrics(p: &ScalePoint) -> Json {
    Json::obj(vec![
        ("batched_ack_cycles", Json::from(p.batched_ack_cycles)),
        ("capture_ns", Json::from(p.capture_ns)),
        ("commit_ns", Json::from(p.commit_ns)),
        ("dirty_bytes", Json::from(p.dirty_bytes)),
        ("expected_redo_mono_ns", Json::from(p.expected_redo_mono_ns)),
        ("expected_redo_ns", Json::from(p.expected_redo_ns)),
        ("nodes", Json::from(p.nodes)),
        ("p_disturb", Json::from(p.p_disturb)),
        ("per_image_ack_cycles", Json::from(p.per_image_ack_cycles)),
        ("round_ns", Json::from(p.round_ns)),
        ("shards", Json::from(p.shards)),
        ("stripes", Json::from(p.stripes)),
    ])
}

fn c14_nodes_plan() -> SweepPlan {
    SweepPlan::new("c14.nodes")
        .seed(0xc14)
        .axis_ints("nodes", &[1000, 2000, 4000, 10000])
}

fn c14_nodes_job(spec: &JobSpec) -> Json {
    let cfg = ScaleConfig { nodes: spec.int("nodes") as usize, ..c14_base() };
    scale_metrics(&scale_round(&cfg, &CostModel::circa_2005()))
}

fn c14_shards_plan() -> SweepPlan {
    SweepPlan::new("c14.shards")
        .seed(0xc14)
        .axis_ints("shards", &[1, 4, 16, 64])
}

fn c14_shards_job(spec: &JobSpec) -> Json {
    let cfg = ScaleConfig { shards: spec.int("shards") as usize, ..c14_base() };
    scale_metrics(&scale_round(&cfg, &CostModel::circa_2005()))
}

fn c14_stripes_plan() -> SweepPlan {
    SweepPlan::new("c14.stripes")
        .seed(0xc14)
        .axis_ints("stripes", &[1, 2, 4, 8])
}

fn c14_stripes_job(spec: &JobSpec) -> Json {
    let cfg = ScaleConfig { stripes: spec.int("stripes") as usize, ..c14_base() };
    scale_metrics(&scale_round(&cfg, &CostModel::circa_2005()))
}

/// C14's four sweeps (one real-cluster protocol run + three scale-model
/// sweeps), run on the engine.
pub fn c14_sweeps() -> Vec<SweepRun> {
    vec![
        run_sweep(&c14_cluster_plan(), c14_cluster_job),
        run_sweep(&c14_nodes_plan(), c14_nodes_job),
        run_sweep(&c14_shards_plan(), c14_shards_job),
        run_sweep(&c14_stripes_plan(), c14_stripes_job),
    ]
}

/// C14: the two-level sharded control plane, rendered from the sweep
/// metrics. (a) grounds the protocol on a real striped cluster; (b)–(d)
/// sweep the deterministic scale model from 1,000 to 10,000 simulated
/// nodes under the paper's per-node MTBF regime.
///
/// Standalone like C12/C13 (`report c14`); not part of `report all`.
pub fn c14_shard() -> String {
    render_c14(&c14_sweeps())
}

fn render_c14(runs: &[SweepRun]) -> String {
    let cluster = named(runs, "c14.cluster");
    let mut arows = Vec::new();
    for j in &cluster.jobs {
        let rounds = j
            .metrics
            .get("rounds")
            .and_then(Json::as_arr)
            .expect("c14.cluster metrics carry a rounds array");
        for r in rounds {
            let g = |k: &str| -> u64 {
                r.get(k)
                    .and_then(Json::as_u64)
                    .unwrap_or_else(|| panic!("c14.cluster round metric '{k}' missing"))
            };
            let incremental = r
                .get("incremental")
                .and_then(Json::as_bool)
                .expect("incremental flag");
            arows.push(vec![
                g("seq").to_string(),
                if incremental { "incremental" } else { "full" }.to_string(),
                g("shards").to_string(),
                g("ranks").to_string(),
                bytes(g("total_bytes")),
                ns(g("round_ns")),
                g("ack_cycles").to_string(),
                g("ranks").to_string(),
            ]);
        }
    }
    let cluster_tbl = table(
        &[
            "seq",
            "kind",
            "shards",
            "ranks",
            "bytes",
            "round",
            "batched acks",
            "per-image acks",
        ],
        &arows,
    );

    let headers = [
        "nodes",
        "shards",
        "stripes",
        "dirty",
        "capture",
        "commit",
        "round",
        "batched acks",
        "per-image acks",
        "p(disturb)",
        "E[redo] sharded",
        "E[redo] monolithic",
    ];
    let row = |j: &JobResult| -> Vec<String> {
        vec![
            mu(j, "nodes").to_string(),
            mu(j, "shards").to_string(),
            mu(j, "stripes").to_string(),
            bytes(mu(j, "dirty_bytes")),
            ns(mu(j, "capture_ns")),
            ns(mu(j, "commit_ns")),
            ns(mu(j, "round_ns")),
            mu(j, "batched_ack_cycles").to_string(),
            mu(j, "per_image_ack_cycles").to_string(),
            format!("{:.6}", mf(j, "p_disturb")),
            ns(mu(j, "expected_redo_ns")),
            ns(mu(j, "expected_redo_mono_ns")),
        ]
    };

    let nodes_run = named(runs, "c14.nodes");
    let node_tbl = table(&headers, &nodes_run.jobs.iter().map(&row).collect::<Vec<_>>());
    let shard_tbl = table(
        &headers,
        &named(runs, "c14.shards").jobs.iter().map(&row).collect::<Vec<_>>(),
    );
    let stripe_tbl = table(
        &headers,
        &named(runs, "c14.stripes").jobs.iter().map(&row).collect::<Vec<_>>(),
    );

    let big = nodes_run.jobs.last().expect("10k point");
    let batched = mu(big, "batched_ack_cycles");
    let per_image = mu(big, "per_image_ack_cycles");
    let redo = mu(big, "expected_redo_ns");
    let mono = mu(big, "expected_redo_mono_ns");
    let ack_reduction = per_image as f64 / batched as f64;
    let redo_reduction = mono as f64 / redo.max(1) as f64;

    format!(
        "C14 — sharded control plane: hierarchical rounds, batched quorum commits, striped pool\n\
         hierarchical rounds on a real striped cluster (2 shards, 4x3 pool, w=2)\n\
         {cluster_tbl}\n\
         scale model: node sweep at 16 shards x 4 stripes (10 h per-node MTBF)\n\
         {node_tbl}\n\
         scale model: shard sweep at 4,000 nodes\n\
         {shard_tbl}\n\
         scale model: stripe sweep at 4,000 nodes\n\
         {stripe_tbl}\n\
         ack cycles per round at {} nodes: batched {} vs per-image {} ({ack_reduction:.1}x fewer)\n\
         expected redo per disturbed round at {} nodes: sharded {} vs monolithic {} ({redo_reduction:.1}x less rework)",
        mu(big, "nodes"),
        batched,
        per_image,
        mu(big, "nodes"),
        ns(redo),
        ns(mono),
    )
}

// ---------------------------------------------------------------------
// C16 — erasure-coded stable storage, on the engine
// ---------------------------------------------------------------------

fn c16_traffic_plan() -> SweepPlan {
    SweepPlan::new("c16.traffic").seed(0xc16).axis_strs(
        "app",
        &["DenseSweep", "SparseRandom", "Stencil2D", "AppendLog", "ReadMostly"],
    )
}

/// Commit traffic for one guest's lineage into both mirrored quorums and
/// both coded shard groups; the replica sets count the bytes their nodes
/// actually ingested (committed, not attempted).
fn c16_traffic_job(spec: &JobSpec) -> Json {
    let cost = CostModel::circa_2005();
    let versions = lineage(app_kind(spec.str("app")));
    let payload: u64 = versions.iter().map(|v| v.len() as u64).sum();
    let mut ingested = Vec::new();
    for ((n, w), (k, m)) in [((3, 2), (4, 2)), ((5, 3), (8, 3))] {
        let mut rep = ReplicatedStore::fresh(n, w);
        let mut ec = ErasureStore::fresh(k, m);
        for (seq, v) in versions.iter().enumerate() {
            let key = ImageKey::new("c16/app", 1, seq as u64).to_string();
            rep.store(&key, v, &cost).unwrap();
            ec.store(&key, v, &cost).unwrap();
        }
        ingested.push((rep.replica_set().bytes_ingested(), ec.replica_set().bytes_ingested()));
    }
    Json::obj(vec![
        ("coded_bytes_42", Json::from(ingested[0].1)),
        ("coded_bytes_83", Json::from(ingested[1].1)),
        ("mirrored_bytes_32", Json::from(ingested[0].0)),
        ("mirrored_bytes_53", Json::from(ingested[1].0)),
        ("payload_bytes", Json::from(payload)),
    ])
}

fn c16_latency_plan() -> SweepPlan {
    SweepPlan::new("c16.latency")
        .seed(0xc16)
        .axis_ints("payload_kib", &[64, 256, 1024])
        .axis_strs("backend", &["repl(3,2)", "repl(5,3)", "rs(4,2)", "rs(8,3)"])
}

fn c16_latency_job(spec: &JobSpec) -> Json {
    let cost = CostModel::circa_2005();
    let payload = pattern_payload(spec.int("payload_kib") as usize * 1024);
    let backend = spec.str("backend");
    let (a, b) = parse_geometry(backend);
    let r = if backend.starts_with("repl") {
        ReplicatedStore::fresh(a, b).store("c16/img", &payload, &cost).unwrap()
    } else {
        ErasureStore::fresh(a, b).store("c16/img", &payload, &cost).unwrap()
    };
    Json::obj(vec![
        ("commit_ns", Json::from(r.time_ns)),
        ("payload_bytes", Json::from(payload.len())),
    ])
}

fn c16_survivability_plan() -> SweepPlan {
    SweepPlan::new("c16.survivability")
        .seed(0xc16)
        .axis_strs("code", &["rs(4,2)", "rs(8,3)"])
        .axis_ints("lost", &[0, 1, 2, 3, 4])
        .filter(|c| {
            let m = match c.get("code") {
                Some(AxisValue::Str(s)) => parse_geometry(s).1 as i64,
                _ => return false,
            };
            matches!(c.get("lost"), Some(AxisValue::Int(l)) if *l <= m + 1)
        })
}

fn c16_survivability_job(spec: &JobSpec) -> Json {
    let cost = CostModel::circa_2005();
    let (k, m) = parse_geometry(spec.str("code"));
    let lost = spec.int("lost") as usize;
    let payload = pattern_payload(256 * 1024);
    let mut store = ErasureStore::fresh(k, m);
    store.store("c16/img", &payload, &cost).unwrap();
    let set = store.replica_set();
    for i in 0..lost {
        set.node(i).fail();
    }
    let outcome = match store.load("c16/img", &cost) {
        Ok((data, _)) if data == payload => "bit-exact".to_string(),
        Ok(_) => "WRONG BYTES".to_string(),
        Err(e @ StorageError::TooManyShardsLost { .. }) => e.to_string(),
        Err(e) => format!("unexpected: {e}"),
    };
    let correct = if lost <= m {
        outcome == "bit-exact"
    } else {
        outcome.starts_with("too many shards lost")
    };
    Json::obj(vec![
        ("correct", Json::from(correct)),
        ("outcome", Json::Str(outcome)),
        ("tolerated", Json::from(m)),
    ])
}

fn c16_reconstruction_plan() -> SweepPlan {
    SweepPlan::new("c16.reconstruction")
        .seed(0xc16)
        .axis_ints("lost", &[0, 1, 2])
}

fn c16_reconstruction_job(spec: &JobSpec) -> Json {
    let cost = CostModel::circa_2005();
    let lost = spec.int("lost") as usize;
    let payload = pattern_payload(256 * 1024);
    let mut store = ErasureStore::fresh(4, 2);
    store.store("c16/img", &payload, &cost).unwrap();
    let set = store.replica_set();
    for i in 0..lost {
        set.node(i).drop_key("c16/img");
    }
    let (data, first_ns) = store.load("c16/img", &cost).unwrap();
    assert_eq!(data, payload, "reconstruction must be bit-exact");
    let st = store.stats();
    let (_, second_ns) = store.load("c16/img", &cost).unwrap();
    Json::obj(vec![
        ("decodes", Json::from(st.decodes)),
        ("first_read_ns", Json::from(first_ns)),
        ("repairs", Json::from(st.repairs)),
        ("second_read_ns", Json::from(second_ns)),
    ])
}

fn c16_availability_plan() -> SweepPlan {
    SweepPlan::new("c16.availability").seed(0xc16).axis_strs(
        "scheme",
        &["replicated(3,2)", "replicated(5,3)", "rs(4,2)", "rs(8,3)"],
    )
}

/// Availability arithmetic at the paper's regime (10 h per-node MTBF,
/// 1 h repair): a node is down with p = repair / (MTBF + repair); an
/// object is unavailable when more nodes than the scheme tolerates are
/// down at once (binomial, nodes independent).
fn c16_availability_job(spec: &JobSpec) -> Json {
    let (n, tolerated, overhead) = match spec.str("scheme") {
        "replicated(3,2)" => (3usize, 1usize, 3.0f64),
        "replicated(5,3)" => (5, 2, 5.0),
        "rs(4,2)" => (6, 2, 1.5),
        "rs(8,3)" => (11, 3, 1.375),
        other => panic!("unknown availability scheme '{other}'"),
    };
    let p_down: f64 = 1.0 / 11.0;
    let choose = |n: usize, j: usize| -> f64 {
        (0..j).fold(1.0, |acc, i| acc * (n - i) as f64 / (i + 1) as f64)
    };
    let p_unavail: f64 = (tolerated + 1..=n)
        .map(|j| choose(n, j) * p_down.powi(j as i32) * (1.0 - p_down).powi((n - j) as i32))
        .sum();
    Json::obj(vec![
        ("nodes", Json::from(n)),
        ("overhead", Json::from(overhead)),
        ("p_unavailable", Json::from(p_unavail)),
        ("tolerated", Json::from(tolerated)),
    ])
}

/// C16's five sweeps, run on the engine.
pub fn c16_sweeps() -> Vec<SweepRun> {
    vec![
        run_sweep(&c16_traffic_plan(), c16_traffic_job),
        run_sweep(&c16_latency_plan(), c16_latency_job),
        run_sweep(&c16_survivability_plan(), c16_survivability_job),
        run_sweep(&c16_reconstruction_plan(), c16_reconstruction_job),
        run_sweep(&c16_availability_plan(), c16_availability_job),
    ]
}

/// C16: what Reed-Solomon coding buys over mirroring, rendered from the
/// sweep metrics. The `gate:` lines at the bottom are what `golden_c16`
/// asserts.
///
/// Standalone like C12–C15 (`report c16` / `report erasure`); not part
/// of `report all`.
pub fn c16_erasure() -> String {
    render_c16(&c16_sweeps())
}

fn render_c16(runs: &[SweepRun]) -> String {
    let traffic_run = named(runs, "c16.traffic");
    let mut arows = Vec::new();
    let mut totals = [(0u64, 0u64), (0u64, 0u64)];
    for j in &traffic_run.jobs {
        let pairs = [
            (mu(j, "mirrored_bytes_32"), mu(j, "coded_bytes_42")),
            (mu(j, "mirrored_bytes_53"), mu(j, "coded_bytes_83")),
        ];
        let mut row = vec![j.spec.str("app").to_string(), bytes(mu(j, "payload_bytes"))];
        for (pi, (mirrored, coded)) in pairs.iter().enumerate() {
            totals[pi].0 += mirrored;
            totals[pi].1 += coded;
            row.push(bytes(*mirrored));
            row.push(bytes(*coded));
            row.push(format!("{:.2}x", *coded as f64 / *mirrored as f64));
        }
        arows.push(row);
    }
    let traffic = table(
        &[
            "app",
            "payload",
            "repl(3,2)",
            "rs(4,2)",
            "ratio",
            "repl(5,3)",
            "rs(8,3)",
            "ratio",
        ],
        &arows,
    );
    let ratio_42 = totals[0].1 as f64 / totals[0].0 as f64;
    let ratio_83 = totals[1].1 as f64 / totals[1].0 as f64;

    // Latency: the grid is payload-major, backend-minor — each chunk of
    // four jobs is one table row in the backend column order.
    let latency_run = named(runs, "c16.latency");
    let lrows: Vec<Vec<String>> = latency_run
        .jobs
        .chunks(4)
        .map(|chunk| {
            let mut row = vec![bytes(mu(&chunk[0], "payload_bytes"))];
            row.extend(chunk.iter().map(|j| ns(mu(j, "commit_ns"))));
            row
        })
        .collect();
    let latency = table(
        &["payload", "repl(3,2)", "repl(5,3)", "rs(4,2)", "rs(8,3)"],
        &lrows,
    );

    let surv_run = named(runs, "c16.survivability");
    let mut survivability_correct = true;
    let srows: Vec<Vec<String>> = surv_run
        .jobs
        .iter()
        .map(|j| {
            survivability_correct &= mb(j, "correct");
            vec![
                j.spec.str("code").to_string(),
                j.spec.int("lost").to_string(),
                mu(j, "tolerated").to_string(),
                ms(j, "outcome").to_string(),
                mb(j, "correct").to_string(),
            ]
        })
        .collect();
    let survivability = table(
        &["code", "shards lost", "tolerated", "read outcome", "correct"],
        &srows,
    );

    let rrows: Vec<Vec<String>> = named(runs, "c16.reconstruction")
        .jobs
        .iter()
        .map(|j| {
            vec![
                j.spec.int("lost").to_string(),
                mu(j, "decodes").to_string(),
                mu(j, "repairs").to_string(),
                ns(mu(j, "first_read_ns")),
                ns(mu(j, "second_read_ns")),
            ]
        })
        .collect();
    let reconstruction = table(
        &["shards dropped", "decodes", "repairs", "first read", "second read"],
        &rrows,
    );

    let vrows: Vec<Vec<String>> = named(runs, "c16.availability")
        .jobs
        .iter()
        .map(|j| {
            vec![
                j.spec.str("scheme").to_string(),
                mu(j, "nodes").to_string(),
                mu(j, "tolerated").to_string(),
                format!("{:.2}x", mf(j, "overhead")),
                format!("{:.2e}", mf(j, "p_unavailable")),
            ]
        })
        .collect();
    let availability = table(
        &[
            "backend",
            "nodes",
            "losses tolerated",
            "storage + traffic overhead",
            "P(object unavailable)",
        ],
        &vrows,
    );

    format!(
        "C16 — erasure-coded stable storage: (k+m)/k x commit bytes instead of N x\n\
         commit traffic per guest-app lineage (1 full + 3 incrementals, uncompressed)\n\
         {traffic}\n\
         commit latency vs payload size (one object, fresh store)\n\
         {latency}\n\
         survivability: bit-exact within m shard losses, typed refusal beyond\n\
         {survivability}\n\
         reconstruction latency on rs(4,2): decode + in-place repair on first read\n\
         {reconstruction}\n\
         availability at 10 h per-node MTBF, 1 h repair (independent nodes)\n\
         {availability}\n\
         gate: rs(4,2) commit bytes vs replicated(3,2): {ratio_42:.2}x\n\
         gate: rs(8,3) commit bytes vs replicated(5,3): {ratio_83:.2}x\n\
         gate: coded reads bit-exact within m losses and typed beyond: {survivability_correct}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_labels_parse() {
        assert_eq!(parse_geometry("rs(4,2)"), (4, 2));
        assert_eq!(parse_geometry("repl(5,3)"), (5, 3));
    }

    #[test]
    fn app_labels_round_trip() {
        for kind in NativeKind::ALL {
            assert_eq!(app_kind(&format!("{kind:?}")), kind);
        }
    }

    #[test]
    fn survivability_grids_are_non_rectangular() {
        // C12: n=3 keeps lost 0..=3, n=5 keeps lost 0..=5.
        assert_eq!(c12_survivability_plan().expand().len(), 10);
        // C16: rs(4,2) keeps lost 0..=3, rs(8,3) keeps lost 0..=4.
        assert_eq!(c16_survivability_plan().expand().len(), 9);
    }
}
