//! The reproduction experiments: T1, F1 and the quantified claims C1..C8.
//!
//! Every experiment runs on the deterministic simulator, so the numbers
//! below are exactly reproducible (`cargo run --bin report -- all`).

use crate::fmt::{bytes, ns, table};
use ckpt_cluster::{
    interval_sweep, migrate, simulate_job, Cluster, FailureConfig, JobRunConfig, MigrationMode,
    NodeId,
};
use ckpt_core::{UserAgentConfig, UserCkptAgent};
use ckpt_core::mechanism::{family, FAMILIES};
use ckpt_core::policy::young_interval;
use ckpt_core::pod::Pod;
use ckpt_core::{
    shared_storage, CaptureOptions, CkptOutcome, Lineage, SharedStorage, Tracker, TrackerKind,
};
use ckpt_storage::{
    LocalDisk, RamStore, RemoteServer, RemoteStore, StableStorage, StorageClass, SwapStore,
};
use simos::apps::{AppParams, NativeKind};
use simos::cost::CostModel;
use simos::fs::OpenFlags;
use simos::syscall::Syscall;
use simos::types::Pid;
use simos::Kernel;

const SEC: u64 = 1_000_000_000;

pub(crate) fn fresh_kernel() -> Kernel {
    Kernel::new(CostModel::circa_2005())
}

fn disk() -> SharedStorage {
    shared_storage(LocalDisk::new(1 << 34))
}

fn spawn(k: &mut Kernel, kind: NativeKind, mem: u64, writes: u64) -> Pid {
    let mut p = AppParams::small();
    p.mem_bytes = mem;
    p.writes_per_step = writes;
    p.total_steps = u64::MAX;
    k.spawn_native(kind, p).expect("spawn")
}

/// Run exactly ~n app steps (fine-grained so tracked sets stay precise).
pub(crate) fn run_steps(k: &mut Kernel, pid: Pid, n: u64) {
    let target = k.process(pid).unwrap().work_done + n;
    while k.process(pid).unwrap().work_done < target {
        k.run_for(2_000).unwrap();
    }
}

/// One guest's lineage of `count` encoded images, recorded under `label`:
/// the guest runs 8 steps before each capture. Captured uncompressed: the
/// chunk store replaces generic page compression, and stable page offsets
/// are what let the XOR delta line up successive versions. Fully
/// deterministic, so two identical guests produce byte-identical lineages.
pub(crate) fn guest_lineage(kind: NativeKind, count: u64, label: &str) -> Vec<Vec<u8>> {
    let mut k = fresh_kernel();
    let mut p = AppParams::small();
    p.mem_bytes = 128 * 1024;
    p.total_steps = u64::MAX;
    let pid = k.spawn_native(kind, p).expect("spawn");
    let mut lineage = Lineage::new(label, Some(pid.0), TrackerKind::FullOnly);
    (0..count)
        .map(|seq| {
            run_steps(&mut k, pid, 8);
            let mut opts = CaptureOptions::full(label, seq);
            opts.compress = false;
            let image = lineage.capture(&mut k, pid, &opts, &[], None, false);
            image.expect("capture").0
        })
        .collect()
}

// ---------------------------------------------------------------------
// T1 / F1
// ---------------------------------------------------------------------

/// Table 1, regenerated from the implementations.
pub(crate) fn t1_table() -> String {
    let mut out = String::from("T1 — Table 1, regenerated from mechanism metadata\n");
    out.push_str(&ckpt_survey::render_table1(&ckpt_survey::table1_generated()));
    let matches = ckpt_survey::table1_generated() == ckpt_survey::table1_paper();
    out.push_str(&format!("matches the paper byte-for-byte: {matches}\n"));
    out
}

/// Figure 1, regenerated as a tree of implemented leaves.
pub(crate) fn f1_figure() -> String {
    let mut out = String::from("F1 — Figure 1 taxonomy (every leaf implemented)\n");
    out.push_str(&ckpt_survey::render_figure1(&ckpt_survey::taxonomy()));
    out
}

// ---------------------------------------------------------------------
// C1 — user- vs kernel-level state extraction
// ---------------------------------------------------------------------

/// One checkpoint of a sparse writer holding `nfds` open files, taken by
/// the user-level library or by the kernel-level syscall: the `(syscall
/// crossings, virtual ns)` of that checkpoint alone. C1 sweeps `nfds`, C10
/// the cost model.
fn gather_cost(cost: &CostModel, nfds: u32, job: &str, user_level: bool) -> (u64, u64) {
    let mut k = Kernel::new(cost.clone());
    let pid = spawn(&mut k, NativeKind::SparseRandom, 256 * 1024, 8);
    for i in 0..nfds {
        k.do_syscall(
            pid,
            Syscall::Open {
                path: format!("/tmp/f{i}"),
                flags: OpenFlags::RDWR_CREATE,
            },
        )
        .unwrap();
    }
    k.run_for(5_000_000).unwrap();
    if user_level {
        let agent = UserCkptAgent::new(UserAgentConfig::new("lib", job), disk());
        k.register_module(Box::new(agent)).unwrap();
        let (s0, t0) = (k.stats.syscalls, k.now());
        k.with_module_mut::<UserCkptAgent, _>("lib", |a, k| {
            a.perform_checkpoint(k, pid).unwrap();
        });
        (k.stats.syscalls - s0, k.now() - t0)
    } else {
        let mut m = family("syscall-bypid").build(job, disk(), TrackerKind::FullOnly);
        m.prepare(&mut k, pid).unwrap();
        let (s0, t0) = (k.stats.syscalls, k.now());
        m.checkpoint(&mut k, pid).unwrap();
        (k.stats.syscalls - s0, k.now() - t0)
    }
}

/// C1: syscall crossings and time to gather process state, user level vs
/// kernel level, as the number of open descriptors grows.
pub(crate) fn c1_gather() -> String {
    // Each nfds config builds its own kernels, so the four run on the
    // pool; ordered merge keeps the table rows in nfds order.
    let rows = ckpt_par::global().par_map_ordered(
        vec![0u32, 4, 16, 64],
        || (),
        |_, _, nfds| {
            let cost = CostModel::circa_2005();
            let (user_calls, user_time) = gather_cost(&cost, nfds, "c1", true);
            let (sys_calls, sys_time) = gather_cost(&cost, nfds, "c1", false);
            vec![
                nfds.to_string(),
                user_calls.to_string(),
                ns(user_time),
                sys_calls.to_string(),
                ns(sys_time),
                format!("{:.1}x", user_calls as f64 / sys_calls.max(1) as f64),
            ]
        },
    );
    format!(
        "C1 — state gather: user-level library vs kernel-level syscall\n{}",
        table(
            &[
                "open fds",
                "user syscalls",
                "user ckpt time",
                "kernel syscalls",
                "kernel ckpt time",
                "crossing ratio",
            ],
            &rows,
        )
    )
}

// ---------------------------------------------------------------------
// C2 — full vs incremental checkpoint size/time
// ---------------------------------------------------------------------

/// C2: second-checkpoint size and time across memory-update patterns and
/// trackers (the \[31\] result the paper builds on).
pub(crate) fn c2_incremental() -> String {
    let apps: [(&str, NativeKind, u64); 4] = [
        ("dense-sweep", NativeKind::DenseSweep, 0),
        ("sparse-8", NativeKind::SparseRandom, 8),
        ("append-log", NativeKind::AppendLog, 0),
        ("read-mostly", NativeKind::ReadMostly, 0),
    ];
    let trackers = [
        TrackerKind::FullOnly,
        TrackerKind::KernelPage,
        TrackerKind::UserPage,
    ];
    // 12 independent (workload, tracker) cells; rows merge in loop order.
    let combos: Vec<((&str, NativeKind, u64), TrackerKind)> = apps
        .iter()
        .flat_map(|a| trackers.iter().map(move |tk| (*a, *tk)))
        .collect();
    let rows = ckpt_par::global().par_map_ordered(
        combos,
        || (),
        |_, _, ((label, kind, writes), tk)| {
            let mut k = fresh_kernel();
            let pid = spawn(&mut k, kind, 1024 * 1024, writes.max(1));
            k.run_for(2_000_000).unwrap();
            let mut engine = ckpt_core::mechanism::KernelCkptEngine::new(
                "c2", "c2", disk(), tk,
            );
            k.freeze_process(pid).unwrap();
            let first = engine.checkpoint_in_kernel(&mut k, pid).unwrap();
            k.thaw_process(pid).unwrap();
            run_steps(&mut k, pid, 10);
            k.freeze_process(pid).unwrap();
            let second = engine.checkpoint_in_kernel(&mut k, pid).unwrap();
            k.thaw_process(pid).unwrap();
            vec![
                label.to_string(),
                tk.label(),
                first.pages_saved.to_string(),
                second.pages_saved.to_string(),
                bytes(second.encoded_bytes),
                ns(second.total_ns),
                second.events.page_faults.to_string(),
            ]
        },
    );
    format!(
        "C2 — full vs incremental checkpoints (1 MiB working set, 10 steps between checkpoints)\n{}",
        table(
            &[
                "workload",
                "tracker",
                "pages ckpt#1",
                "pages ckpt#2",
                "bytes ckpt#2",
                "time ckpt#2",
                "faults",
            ],
            &rows,
        )
    )
}

// ---------------------------------------------------------------------
// C3 — block-size sweep (probabilistic / adaptive / hardware)
// ---------------------------------------------------------------------

/// C3: tracking granularity vs delta size and scan cost.
pub(crate) fn c3_blocksize() -> String {
    let mut rows = Vec::new();
    let configs: Vec<(String, TrackerKind)> = vec![
        ("page-4096".into(), TrackerKind::KernelPage),
        ("prob-64".into(), TrackerKind::ProbBlock { block: 64 }),
        ("prob-256".into(), TrackerKind::ProbBlock { block: 256 }),
        ("prob-1024".into(), TrackerKind::ProbBlock { block: 1024 }),
        ("prob-4096".into(), TrackerKind::ProbBlock { block: 4096 }),
        (
            "adaptive-64-4096".into(),
            TrackerKind::AdaptiveBlock {
                min_block: 64,
                max_block: 4096,
            },
        ),
        ("hw-line-64".into(), TrackerKind::HardwareLine),
    ];
    for (label, tk) in configs {
        let mut k = fresh_kernel();
        let pid = spawn(&mut k, NativeKind::SparseRandom, 1024 * 1024, 8);
        k.run_for(2_000_000).unwrap();
        let mut tr = Tracker::new(tk);
        tr.arm(&mut k, pid).unwrap();
        run_steps(&mut k, pid, 10);
        k.freeze_process(pid).unwrap();
        let t0 = k.now();
        let c = tr.collect(&mut k, pid).unwrap();
        let collect_time = k.now() - t0;
        k.thaw_process(pid).unwrap();
        rows.push(vec![
            label,
            c.pages.len().to_string(),
            bytes(c.logical_dirty_bytes),
            ns(collect_time),
        ]);
    }
    format!(
        "C3 — tracking granularity (sparse writer, 1 MiB, 10 steps, 80 word writes)\n{}",
        table(
            &["tracker", "dirty pages", "logical dirty bytes", "collect time"],
            &rows,
        )
    )
}

// ---------------------------------------------------------------------
// C4 — mechanism comparison
// ---------------------------------------------------------------------

/// C4: one checkpoint per mechanism family, idle and under load.
pub(crate) fn c4_mechanisms() -> String {
    // 16 independent (competitors, family) kernels, run on the pool.
    let combos: Vec<(usize, &str)> = [0usize, 3]
        .iter()
        .flat_map(|c| FAMILIES.iter().map(move |f| (*c, f.label)))
        .collect();
    let rows = ckpt_par::global().par_map_ordered(
        combos,
        || (),
        |_, _, (competitors, which)| {
            let mut k = fresh_kernel();
            let pid = spawn(&mut k, NativeKind::SparseRandom, 512 * 1024, 8);
            for _ in 0..competitors {
                spawn(&mut k, NativeKind::SparseRandom, 64 * 1024, 4);
            }
            let mut mech = family(which).build("c4", disk(), TrackerKind::FullOnly);
            mech.prepare(&mut k, pid).unwrap();
            k.run_for(20_000_000).unwrap();
            let mm0 = k.stats.mm_switches;
            let o = mech.checkpoint(&mut k, pid).unwrap();
            vec![
                which.to_string(),
                competitors.to_string(),
                ns(o.total_ns),
                ns(o.app_stall_ns),
                o.events.syscalls.to_string(),
                (k.stats.mm_switches - mm0).to_string(),
                bytes(o.encoded_bytes),
            ]
        },
    );
    format!(
        "C4 — mechanism families: one full checkpoint of a 512 KiB process\n{}",
        table(
            &[
                "mechanism",
                "competitors",
                "initiate→durable",
                "app stall",
                "syscalls",
                "mm switches",
                "image size",
            ],
            &rows,
        )
    )
}

// ---------------------------------------------------------------------
// C5 — fork-concurrent stall vs stop-the-world
// ---------------------------------------------------------------------

/// One full checkpoint of a dense writer over `mem` bytes by the `which`
/// family, after `warm_ns` of guest run time. C5 sweeps the working set,
/// C10 the cost model.
fn dense_checkpoint(
    cost: &CostModel,
    which: &str,
    job: &str,
    mem: u64,
    warm_ns: u64,
) -> CkptOutcome {
    let mut k = Kernel::new(cost.clone());
    let pid = spawn(&mut k, NativeKind::DenseSweep, mem, 0);
    k.run_for(warm_ns).unwrap();
    let mut m = family(which).build(job, disk(), TrackerKind::FullOnly);
    m.prepare(&mut k, pid).unwrap();
    m.checkpoint(&mut k, pid).unwrap()
}

/// C5: application stall, forked-concurrent vs stop-the-world kthread.
pub(crate) fn c5_fork() -> String {
    let rows = ckpt_par::global().par_map_ordered(
        vec![256 * 1024u64, 1024 * 1024, 4 * 1024 * 1024],
        || (),
        |_, _, mem| {
            let cost = CostModel::circa_2005();
            let fork = dense_checkpoint(&cost, "fork-concurrent", "c5", mem, 20_000_000);
            let stw = dense_checkpoint(&cost, "kthread-ioctl", "c5", mem, 20_000_000).app_stall_ns;
            vec![
                bytes(mem),
                ns(fork.app_stall_ns),
                ns(stw),
                format!("{:.0}x", stw as f64 / fork.app_stall_ns.max(1) as f64),
                ns(fork.total_ns),
                fork.events.cow_faults.to_string(),
            ]
        },
    );
    format!(
        "C5 — fork-concurrent (Checkpoint [5]) vs stop-the-world kthread\n{}",
        table(
            &[
                "working set",
                "fork stall",
                "stop-world stall",
                "stall ratio",
                "fork total",
                "COW faults",
            ],
            &rows,
        )
    )
}

// ---------------------------------------------------------------------
// C6 — stable storage media
// ---------------------------------------------------------------------

/// C6: store/load cost per medium + what survives which failure.
pub(crate) fn c6_storage() -> String {
    let c = CostModel::circa_2005();
    let payload = vec![0xABu8; 16 << 20];
    let mut rows = Vec::new();
    let media: Vec<(&str, Box<dyn StableStorage>)> = vec![
        ("ram", Box::new(RamStore::new(1 << 34))),
        ("local-disk", Box::new(LocalDisk::new(1 << 34))),
        ("swap", Box::new(SwapStore::new(1 << 34))),
        (
            "remote",
            Box::new(RemoteStore::new(RemoteServer::new(1 << 34))),
        ),
    ];
    for (label, mut m) in media {
        let r = m.store("img", &payload, &c).unwrap();
        // Node failure: reachable? data intact after repair?
        m.on_node_failure();
        let reachable_down = m.load("img", &c).is_ok();
        m.on_node_repair();
        let after_failure = m.load("img", &c).is_ok();
        // Remote data additionally survives via *another* node's client —
        // covered by class semantics.
        let survives_loss = m.class().survives_node_loss();
        m.on_power_down();
        let after_power_down = m.load("img", &c).is_ok();
        rows.push(vec![
            label.to_string(),
            ns(r.time_ns),
            reachable_down.to_string(),
            after_failure.to_string(),
            survives_loss.to_string(),
            after_power_down.to_string(),
        ]);
    }
    format!(
        "C6 — stable storage: 16 MiB checkpoint image per medium (2005 cost model)\n{}",
        table(
            &[
                "medium",
                "store time",
                "reachable while node down",
                "data after node repair",
                "retrievable on node loss",
                "data after power-down",
            ],
            &rows,
        )
    )
}

// ---------------------------------------------------------------------
// C7 — cluster utilization
// ---------------------------------------------------------------------

/// C7a: mechanistic runs under failures, with and without checkpointing.
pub(crate) fn c7_cluster_mechanistic() -> String {
    let mut cfg = JobRunConfig::small();
    cfg.n_nodes = 4;
    cfg.n_ranks = 4;
    cfg.kind = NativeKind::DenseSweep;
    cfg.params.mem_bytes = 128 * 1024;
    cfg.steps_per_superstep = 20;
    cfg.target_supersteps = 10;
    cfg.checkpoint_every_supersteps = 2;
    cfg.failure = FailureConfig::with_mtbf(40_000_000, 2_000_000, 9);
    let mut cfg2 = cfg.clone();
    cfg2.checkpoint_every_supersteps = 0;
    // The two strategies are independent cluster simulations; run both at
    // once and read the results back in submission order.
    let mut results = ckpt_par::global().par_map_ordered(
        vec![cfg, cfg2],
        || (),
        |_, _, c| simulate_job(&c).unwrap(),
    );
    let without = results.pop().unwrap();
    let with = results.pop().unwrap();
    let rows = vec![
        vec![
            "coordinated ckpt every 2 supersteps".to_string(),
            ns(with.total_ns),
            with.failures.to_string(),
            with.recoveries.to_string(),
            with.checkpoints.to_string(),
            with.supersteps_reexecuted.to_string(),
        ],
        vec![
            "no checkpointing (restart from scratch)".to_string(),
            ns(without.total_ns),
            without.failures.to_string(),
            without.recoveries.to_string(),
            without.checkpoints.to_string(),
            without.supersteps_reexecuted.to_string(),
        ],
    ];
    format!(
        "C7a — mechanistic cluster runs (4 nodes, 4 ranks, node MTBF 40 ms, kernel-level sim)\n{}",
        table(
            &[
                "strategy",
                "completion",
                "failures",
                "recoveries",
                "checkpoints",
                "supersteps re-run",
            ],
            &rows,
        )
    )
}

/// C7b: large-scale stochastic sweep (the BlueGene/L argument).
pub(crate) fn c7_cluster_scale() -> String {
    let node_mtbf = 36_000 * SEC; // 10 h per node
    let c = SEC / 2;
    let r = 5 * SEC;
    let work = 3_600 * SEC; // one hour of useful work
    // Each cluster size is an independent stochastic sweep (fixed seeds);
    // the sweep itself also fans its trials out on the same pool.
    let row_groups = ckpt_par::global().par_map_ordered(
        vec![1_024u64, 16_384, 65_536],
        || (),
        |_, _, n| {
            let job_mtbf = (node_mtbf as f64 / n as f64) as u64;
            let ty = young_interval(c, job_mtbf).max(1);
            let intervals = [ty / 8, ty / 2, ty, ty * 2, ty * 8, 600 * SEC];
            let sweep = interval_sweep(n, node_mtbf, c, r, work, &intervals, 6);
            sweep
                .into_iter()
                .map(|(t, u)| {
                    let marker = if t == ty { " (Young)" } else { "" };
                    vec![
                        n.to_string(),
                        format!("{:.1} s", job_mtbf as f64 / 1e9),
                        format!("{}{}", ns(t), marker),
                        format!("{:.3}", u),
                    ]
                })
                .collect::<Vec<_>>()
        },
    );
    let rows: Vec<Vec<String>> = row_groups.into_iter().flatten().collect();
    format!(
        "C7b — utilization vs checkpoint interval at scale (node MTBF 10 h, ckpt 0.5 s, restart 5 s, 1 h job)\n{}",
        table(
            &["nodes", "job MTBF", "ckpt interval", "utilization"],
            &rows,
        )
    )
}

// ---------------------------------------------------------------------
// C8 — migration and pods
// ---------------------------------------------------------------------

/// C8: migration under resource conflicts, with and without pods.
pub(crate) fn c8_migration() -> String {
    let mut rows = Vec::new();
    // Build a cluster where the target node already has a colliding pid
    // and a colliding file path.
    let setup = || -> (Cluster, Pid) {
        let mut c = Cluster::new(2, CostModel::circa_2005(), FailureConfig::none());
        let mut params = AppParams::small();
        params.total_steps = u64::MAX;
        let pid = c
            .node(NodeId(0))
            .kernel()
            .unwrap()
            .spawn_native(NativeKind::SparseRandom, params.clone())
            .unwrap();
        c.node(NodeId(0))
            .kernel()
            .unwrap()
            .do_syscall(
                pid,
                Syscall::Open {
                    path: "/tmp/shared".into(),
                    flags: OpenFlags::RDWR_CREATE,
                },
            )
            .unwrap();
        // Squatter on the target with the same pid number and path.
        let sq = c
            .node(NodeId(1))
            .kernel()
            .unwrap()
            .spawn_native(NativeKind::SparseRandom, params)
            .unwrap();
        assert_eq!(sq.0, pid.0);
        c.node(NodeId(1))
            .kernel()
            .unwrap()
            .fs
            .create_file("/tmp/shared")
            .unwrap();
        c.advance(10_000_000);
        (c, pid)
    };
    for (label, mode) in [
        ("keep-identity (pre-ZAP)", MigrationMode::KeepIdentity),
        ("fresh-pid", MigrationMode::FreshPid),
        ("podded (ZAP)", MigrationMode::Podded),
    ] {
        let (mut c, pid) = setup();
        let mut pod = Pod::new("mig");
        let podref = if matches!(mode, MigrationMode::Podded) {
            Some(&mut pod)
        } else {
            None
        };
        let result = migrate(&mut c, NodeId(0), pid, NodeId(1), mode, podref);
        match result {
            Ok(rep) => {
                // Interposition tax after a podded restore.
                let tax = {
                    let k = c.node(NodeId(1)).kernel().unwrap();
                    k.process(rep.new_pid)
                        .map(|p| p.user_rt.interpose_active)
                        .unwrap_or(false)
                };
                rows.push(vec![
                    label.to_string(),
                    "ok".into(),
                    format!("pid{}", rep.new_pid.0),
                    bytes(rep.bytes_moved),
                    tax.to_string(),
                ]);
            }
            Err(e) => {
                rows.push(vec![
                    label.to_string(),
                    format!("FAILS ({})", short(&e.to_string())),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                ]);
            }
        }
    }
    format!(
        "C8 — migration onto a node with colliding pid + file path\n{}",
        table(
            &[
                "mode",
                "outcome",
                "restored pid",
                "bytes moved",
                "interpose tax",
            ],
            &rows,
        )
    )
}

fn short(s: &str) -> String {
    if s.len() > 40 {
        format!("{}…", &s[..40])
    } else {
        s.to_string()
    }
}


// ---------------------------------------------------------------------
// C3b — probabilistic checkpointing omission probability (Nam et al.)
// ---------------------------------------------------------------------

/// C3b: the "probabilistic" part of probabilistic checkpointing — the
/// analytic probability that a changed block escapes detection, by hash
/// width and delta size.
pub(crate) fn c3b_omission() -> String {
    use ckpt_core::Tracker;
    let mut rows = Vec::new();
    for bits in [8u32, 16, 32, 64] {
        for blocks in [16u64, 1_024, 65_536] {
            rows.push(vec![
                bits.to_string(),
                blocks.to_string(),
                format!("{:.3e}", Tracker::omission_probability(blocks, bits)),
            ]);
        }
    }
    format!(
        "C3b — probability a changed block goes undetected (hash collisions)\n{}",
        table(&["hash bits", "changed blocks", "P(omission ≥ 1)"], &rows)
    )
}

// ---------------------------------------------------------------------
// C9 — centralized batch management vs system-level autonomy
// ---------------------------------------------------------------------

/// C9: LSF-style manager-driven checkpoint rounds vs the per-node
/// autonomic daemon — round latency vs cluster size, and the single point
/// of failure.
pub(crate) fn c9_batch_vs_autonomic() -> String {
    use ckpt_cluster::BatchManager;
    use ckpt_core::autonomic::{self, AutonomicConfig, AutonomicDaemon};

    let setup = |n: usize| -> (ckpt_cluster::Cluster, BatchManager) {
        let mut cluster =
            ckpt_cluster::Cluster::new(n, CostModel::circa_2005(), FailureConfig::none());
        let mut mgr = BatchManager::new(NodeId(0), "lsfd");
        for i in 0..n {
            let node = NodeId(i as u32);
            let remote = cluster.nodes[i].remote.clone();
            let k = cluster.node(node).kernel().unwrap();
            let mut p = AppParams::small();
            p.total_steps = u64::MAX;
            let pid = k.spawn_native(NativeKind::SparseRandom, p).unwrap();
            let cfg = AutonomicConfig {
                module_name: "lsfd".into(),
                job: format!("c9-{i}"),
                adaptive: false,
                initial_interval_ns: u64::MAX / 4,
                ..Default::default()
            };
            let name = autonomic::install(k, cfg, remote).unwrap();
            autonomic::register(k, &name, pid).unwrap();
            mgr.manage(node, pid);
        }
        (cluster, mgr)
    };
    // The four cluster sizes are independent simulations; each closure
    // builds both the centralized and autonomic variants locally.
    let rows = ckpt_par::global().par_map_ordered(
        vec![2usize, 4, 8, 16],
        || (),
        |_, _, n| {
            // Centralized: one serialized round from the manager.
            let (mut cluster, mut mgr) = setup(n);
            cluster.advance(10_000_000);
            let central = mgr.checkpoint_round(&mut cluster).unwrap().round_latency_ns;
            // Autonomous: each node checkpoints locally; the "round" is as
            // slow as the slowest node (they run concurrently).
            let (mut cluster2, mgr2) = setup(n);
            cluster2.advance(10_000_000);
            let mut slowest = 0u64;
            for job in &mgr2.jobs {
                let k = cluster2.node(job.node).kernel().unwrap();
                let t0 = k.now();
                k.with_module_mut::<AutonomicDaemon, _>("lsfd", |d, k| {
                    d.checkpoint_now(k, job.pid).unwrap();
                });
                slowest = slowest.max(k.now() - t0);
            }
            vec![
                n.to_string(),
                ns(central),
                ns(slowest),
                format!("{:.1}x", central as f64 / slowest.max(1) as f64),
            ]
        },
    );
    // Single point of failure.
    let (mut cluster, mut mgr) = setup(4);
    cluster.advance(5_000_000);
    cluster.inject_failure(NodeId(0));
    let spof = mgr.checkpoint_round(&mut cluster).is_err();
    format!(
        "C9 — centralized (LSF-style) vs autonomic checkpoint rounds\n{}\nmanager node down ⇒ no checkpoints at all: {}\n",
        table(
            &["nodes", "centralized round", "autonomic round", "slowdown"],
            &rows,
        ),
        spof
    )
}

// ---------------------------------------------------------------------
// C10 — sensitivity: do the orderings survive modern hardware?
// ---------------------------------------------------------------------

/// C10: rerun headline comparisons under `CostModel::modern()` — the
/// paper's relative orderings must not depend on 2005 constants.
pub(crate) fn c10_sensitivity() -> String {
    let rows = ckpt_par::global().par_map_ordered(
        vec![
            ("circa-2005", CostModel::circa_2005()),
            ("modern", CostModel::modern()),
        ],
        || (),
        |_, _, (label, cost)| {
            // User vs kernel crossings (one checkpoint, 8 fds).
            let (user, _) = gather_cost(&cost, 8, "c10", true);
            let (kernel, _) = gather_cost(&cost, 8, "c10", false);
            // Fork stall vs stop-the-world stall (1 MiB dense writer).
            let stall = |which| {
                dense_checkpoint(&cost, which, "c10", 1024 * 1024, 10_000_000).app_stall_ns
            };
            let (fork_stall, stw_stall) = (stall("fork-concurrent"), stall("kthread-ioctl"));
            vec![
                label.to_string(),
                format!("{user} vs {kernel}"),
                (user > kernel).to_string(),
                format!("{} vs {}", ns(fork_stall), ns(stw_stall)),
                (fork_stall < stw_stall).to_string(),
            ]
        },
    );
    format!(
        "C10 — sensitivity: headline orderings under both cost models\n{}",
        table(
            &[
                "cost model",
                "crossings user vs kernel",
                "user > kernel",
                "stall fork vs stop-world",
                "fork < stop-world",
            ],
            &rows,
        )
    )
}

// ---------------------------------------------------------------------
// TRACE — ckpt-trace per-phase cost breakdown
// ---------------------------------------------------------------------

/// `report trace`: one checkpoint per mechanism family under a recording
/// trace sink. Prints the per-phase cost breakdown per family plus the
/// kernel, storage and cluster event sections, and checks that each
/// family's traced cost reconciles with its outcome's end-to-end total.
/// Standalone invocations also show the software-TLB section.
pub(crate) fn trace_breakdown() -> String {
    trace_breakdown_impl(true)
}

/// `show_soft_tlb` gates the host-side sections (software TLB, pool and
/// quorum counters): `report all` passes `false` so its output stays
/// byte-identical to the pre-TLB report, while standalone `report trace`
/// passes `true`.
fn trace_breakdown_impl(show_soft_tlb: bool) -> String {
    use ckpt_core::mechanism::hibernate::{SoftwareSuspend, SuspendMode};
    use ckpt_cluster::ShardedCoordinator;
    use simos::trace::{Phase, TraceHandle};

    let trace = TraceHandle::recording();
    // (family, trace mechanism name, outcome end-to-end total).
    let mut totals: Vec<(&'static str, &'static str, u64)> = Vec::new();
    // Aggregated software-TLB counters from the family kernels (only
    // rendered when `show_soft_tlb`).
    let mut tlb = simos::mem::MemStats::default();
    let mut note_tlb = |st: &simos::mem::MemStats| {
        tlb.tlb_hits += st.tlb_hits;
        tlb.tlb_misses += st.tlb_misses;
        tlb.tlb_flushes += st.tlb_flushes;
    };
    // Each family once, in its canonical (first) row.
    for row in FAMILIES.iter().filter(|f| family(f.family).label == f.label) {
        let mut k = fresh_kernel();
        k.set_trace(trace.clone());
        let pid = spawn(&mut k, NativeKind::SparseRandom, 512 * 1024, 8);
        let mut mech = row.build("c4", disk(), TrackerKind::FullOnly);
        mech.prepare(&mut k, pid).unwrap();
        k.run_for(20_000_000).unwrap();
        let o = mech.checkpoint(&mut k, pid).unwrap();
        totals.push((row.family, row.module, o.total_ns));
        if let Some(p) = k.process(pid) {
            note_tlb(&p.mem.stats);
        }
    }
    // The seventh family: whole-machine hibernation.
    {
        let mut k = fresh_kernel();
        k.set_trace(trace.clone());
        let pid = spawn(&mut k, NativeKind::SparseRandom, 256 * 1024, 4);
        k.run_for(20_000_000).unwrap();
        let mut susp = SoftwareSuspend::new(shared_storage(SwapStore::new(1 << 30)));
        let r = susp.hibernate(&mut k, SuspendMode::ToDisk).unwrap();
        totals.push(("hibernate", "swsusp", r.total_ns));
        if let Some(p) = k.process(pid) {
            note_tlb(&p.mem.stats);
        }
    }
    // A small coordinated round + one migration so the cluster section has
    // something to show.
    {
        let mut c = Cluster::new(2, CostModel::circa_2005(), FailureConfig::none());
        c.set_trace(trace.clone());
        let job = ckpt_cluster::MpiJob::launch(
            &mut c,
            "app",
            2,
            NativeKind::SparseRandom,
            AppParams::small(),
            4,
            32 * 1024,
        )
        .unwrap();
        let mut coord = ShardedCoordinator::per_image("trace-demo", TrackerKind::KernelPage);
        coord.checkpoint(&mut c, &job).unwrap();
        let mut params = AppParams::small();
        params.total_steps = u64::MAX;
        let pid = c
            .node(NodeId(0))
            .kernel()
            .unwrap()
            .spawn_native(NativeKind::SparseRandom, params)
            .unwrap();
        c.advance(10_000_000);
        migrate(&mut c, NodeId(0), pid, NodeId(1), MigrationMode::FreshPid, None).unwrap();
    }
    // Quorum-replication counters (rendered only in the standalone trace):
    // a healthy commit, a commit through a transient, a read-repair of a
    // replica that missed a round, and a refused write past the quorum.
    // The counters ride outside `events_recorded`, so this cannot disturb
    // the pinned `report all` output even if it ran unconditionally.
    if show_soft_tlb {
        let cost = CostModel::circa_2005();
        let mut rs = ckpt_replica::ReplicatedStore::fresh(3, 2).with_trace(trace.clone());
        rs.store("trace/img", &[7u8; 4096], &cost).unwrap();
        rs.replica_set().node(0).inject_transients(1);
        rs.store("trace/img", &[8u8; 4096], &cost).unwrap();
        rs.replica_set().node(1).fail();
        rs.store("trace/img", &[9u8; 4096], &cost).unwrap();
        rs.replica_set().node(1).repair();
        let _ = rs.load("trace/img", &cost).unwrap();
        rs.replica_set().node(0).fail();
        rs.replica_set().node(2).fail();
        assert!(rs.store("trace/img", &[10u8; 4096], &cost).is_err());
    }
    let rep = trace.report();

    const COLS: [Phase; 10] = [
        Phase::Pending,
        Phase::Freeze,
        Phase::Walk,
        Phase::Capture,
        Phase::Compress,
        Phase::Store,
        Phase::Prune,
        Phase::Rearm,
        Phase::Resume,
        Phase::Other,
    ];
    let mut rows = Vec::new();
    let mut worst_pct = 0.0f64;
    for (family, name, total) in &totals {
        let traced = rep.mechanism_total(name);
        let pct = if *total > 0 {
            (traced.abs_diff(*total)) as f64 * 100.0 / *total as f64
        } else {
            0.0
        };
        worst_pct = worst_pct.max(pct);
        let mut row = vec![format!("{family} ({name})")];
        for ph in COLS {
            row.push(ns(rep.phase_cost(name, ph)));
        }
        row.push(ns(traced));
        row.push(ns(*total));
        row.push(format!("{pct:.2}%"));
        rows.push(row);
    }
    let mut out = format!(
        "TRACE — per-mechanism phase costs (one full checkpoint each)\n{}",
        table(
            &[
                "mechanism", "pending", "freeze", "walk", "capture", "compress", "store",
                "prune", "rearm", "resume", "other", "trace total", "outcome total", "diff",
            ],
            &rows,
        )
    );
    out.push_str(&format!(
        "worst trace-vs-outcome divergence: {worst_pct:.2}% (reconciles within 1%: {})\n",
        worst_pct < 1.0
    ));

    out.push_str("\nkernel events (count, attributed cost):\n");
    for (ev, ctr) in &rep.kernel {
        out.push_str(&format!(
            "  {:<16} {:>8}  {}\n",
            ev.label(),
            ctr.count,
            ns(ctr.cost_ns)
        ));
    }
    out.push_str("\nstorage operations (backend, op, count, bytes, stall):\n");
    for ((op, class), agg) in &rep.storage {
        out.push_str(&format!(
            "  {:<12} {:<7} {:>4}  {:>10}  {}\n",
            class,
            op.label(),
            agg.ops,
            bytes(agg.bytes),
            ns(agg.stall_ns)
        ));
    }
    out.push_str("\ncluster events:\n");
    for rec in &rep.cluster {
        out.push_str(&format!("  t={:<14} {:?}\n", rec.at_ns, rec.event));
    }
    out.push_str(&format!("\ntotal events recorded: {}\n", rep.events_recorded));

    if show_soft_tlb {
        out.push_str("\nsoftware TLB (host-side translation cache, family kernels):\n");
        let probes = tlb.tlb_hits + tlb.tlb_misses;
        let rate = if probes > 0 {
            tlb.tlb_hits as f64 * 100.0 / probes as f64
        } else {
            0.0
        };
        out.push_str(&format!(
            "  hits: {}  misses: {}  hit rate: {rate:.2}%  flushes: {}\n",
            tlb.tlb_hits, tlb.tlb_misses, tlb.tlb_flushes
        ));
        out.push_str("  flushes by invalidation site (the paper's flush events):\n");
        for (site, n) in &rep.soft_tlb_flushes {
            out.push_str(&format!("    {:<16} {:>8}\n", site.label(), n));
        }
        // Pool activity for the traced checkpoints. Steals and merge
        // stalls are scheduling artifacts (zero on a width-1 pool), so
        // like the TLB section this only appears in the standalone
        // `report trace`, never in the pinned `report all` output.
        out.push_str(&format!(
            "\nparallel encode pool ({} workers):\n  tasks: {}  steals: {}  merge stalls: {}\n",
            ckpt_par::global().workers(),
            rep.counter("par.tasks"),
            rep.counter("par.steals"),
            rep.counter("par.merge_stalls")
        ));
        out.push_str(&format!(
            "\nquorum replication (replicated(3,2) demo ops):\n  \
             commits: {}  retries: {}  read repairs: {}  quorum losses: {}\n",
            rep.counter("replication.commits"),
            rep.counter("replication.retries"),
            rep.counter("replication.repairs"),
            rep.counter("replication.quorum_losses")
        ));
    }
    out
}

/// The trace entry of `report all` (see [`crate::registry::REGISTRY`]).
pub(crate) fn trace_breakdown_for_all() -> String {
    trace_breakdown_impl(false)
}

// ---------------------------------------------------------------------
// C11 — the crash matrix
// ---------------------------------------------------------------------

/// C11: the exhaustive fault-injection matrix — every mechanism family ×
/// every instrumented crash site × every storage backend × every fault
/// kind, each cell ending in bit-exact restart or typed detection.
///
/// Deliberately **not** part of `report all`: it runs thousands of
/// crash/restart scenarios (`report c11` takes a few seconds in release).
pub fn c11_crash_matrix() -> String {
    use ckpt_core::crashpoint::CellOutcome;

    // The migration tier's cells join the checkpoint tiers' in one report,
    // so the totals line counts every proven cell.
    let report = ckpt_cluster::full_matrix();
    let mut rows = Vec::new();
    for (cfg, [restarted, detected, skipped, violations]) in report.by_config() {
        rows.push(vec![
            cfg.mechanism.to_string(),
            cfg.backend.to_string(),
            (restarted + detected + skipped + violations).to_string(),
            restarted.to_string(),
            detected.to_string(),
            skipped.to_string(),
            violations.to_string(),
        ]);
    }
    let per_config = table(
        &[
            "mechanism",
            "backend",
            "cells",
            "restarted",
            "detected",
            "skipped",
            "violations",
        ],
        &rows,
    );

    // Survivability: the media-class contract vs what the matrix measured.
    // Trait-mechanism columns crash with node failure + repair; the
    // hibernate columns power the node down.
    let mut srows = Vec::new();
    for class in [
        StorageClass::LocalDisk,
        StorageClass::Remote,
        StorageClass::Nvram,
        StorageClass::Swap,
        StorageClass::Ram,
    ] {
        let backend = class.label();
        let cells: Vec<_> = report
            .cells
            .iter()
            .filter(|c| c.backend == backend)
            .collect();
        let concrete = cells
            .iter()
            .filter(|c| !matches!(c.outcome, CellOutcome::Skipped { .. }))
            .count();
        let measured_restart = cells
            .iter()
            .any(|c| matches!(c.outcome, CellOutcome::Restarted { .. }));
        srows.push(vec![
            backend.to_string(),
            class.survives_node_loss().to_string(),
            class.survives_power_down().to_string(),
            concrete.to_string(),
            measured_restart.to_string(),
        ]);
    }
    let survivability = table(
        &[
            "medium",
            "class: survives node loss",
            "class: survives power-down",
            "concrete cells",
            "measured bit-exact restart",
        ],
        &srows,
    );

    format!(
        "C11 — crash matrix: every cell ends in bit-exact restart or typed detection\n\
         {per_config}\n\
         survivability — declared media class vs measured outcome\n\
         {survivability}\n\
         totals: {} cells — {} restarted, {} detected, {} skipped, {} violations",
        report.cells.len(),
        report.restarted(),
        report.detected(),
        report.skipped(),
        report.violations().len()
    )
}

// ---------------------------------------------------------------------
// C12 / C14 / C16 — ported onto the sweep engine (crate::swept)
// ---------------------------------------------------------------------

// ---------------------------------------------------------------------
// C13 — content-addressed dedup + delta storage
// ---------------------------------------------------------------------

/// C13: what the content-addressed store buys. Three sweeps over
/// [`ckpt_cas::DedupStore`]: (a) dedup ratio per guest app as a lineage of
/// one full plus incremental checkpoints lands in one store — the
/// XOR-delta path makes successive versions nearly free; (b) co-scheduled
/// identical guests sharing one chunk store — cross-process dedup makes
/// the n-th copy of an image cost almost nothing; (c) commit bytes pushed
/// to a (3,2) replica quorum as the guest count grows, raw image path vs
/// dedup path — replicated commit traffic scales with novelty, not image
/// size.
///
/// Standalone like C11/C12 (`report c13` / `report dedup`); not part of
/// `report all`.
pub fn c13_dedup() -> String {
    use ckpt_cas::DedupStore;
    use ckpt_replica::{ReplicaConfig, ReplicaSet, ReplicatedStore};
    use ckpt_storage::ImageKey;

    let cost = CostModel::circa_2005();

    let lineage = |kind, count| guest_lineage(kind, count, "c13");

    // (a) Dedup ratio across the guest app zoo: each app's lineage (one
    // full + three incrementals) lands in its own store.
    let mut arows = Vec::new();
    for kind in NativeKind::ALL {
        let versions = lineage(kind, 4);
        let mut store =
            DedupStore::new(Box::new(LocalDisk::new(1 << 30))).with_pool(ckpt_par::global().clone());
        let stats = store.stats_handle();
        for (seq, v) in versions.iter().enumerate() {
            let key = ImageKey::new("c13/app", 1, seq as u64).to_string();
            store.store(&key, v, &cost).unwrap();
        }
        let s = stats.snapshot();
        arows.push(vec![
            format!("{kind:?}"),
            versions.len().to_string(),
            bytes(s.logical_bytes),
            bytes(s.physical_bytes),
            format!("{:.2}x", s.dedup_ratio()),
            s.delta_objects.to_string(),
        ]);
    }
    let zoo = table(
        &["app", "versions", "logical", "physical", "dedup ratio", "delta commits"],
        &arows,
    );

    // (b) Co-scheduled identical guests: n guests, one shared chunk store,
    // each guest checkpointing under its own job key. Determinism makes
    // the images byte-identical, so the chunk store holds one physical
    // copy no matter how many guests commit.
    let mut brows = Vec::new();
    let mut cross_ratio_at_8 = 0.0;
    for n in [1usize, 2, 4, 8] {
        let mut store =
            DedupStore::new(Box::new(LocalDisk::new(1 << 30))).with_pool(ckpt_par::global().clone());
        let stats = store.stats_handle();
        let mut identical = true;
        let mut first: Option<Vec<u8>> = None;
        for g in 0..n {
            // Each guest runs in its own kernel (its own node) — the
            // store is the only shared component.
            let img = lineage(NativeKind::SparseRandom, 1).remove(0);
            match &first {
                None => first = Some(img.clone()),
                Some(f) => identical &= *f == img,
            }
            let key = ImageKey::new(format!("c13/g{g}"), 1, 0).to_string();
            store.store(&key, &img, &cost).unwrap();
        }
        let s = stats.snapshot();
        if n == 8 {
            cross_ratio_at_8 = s.dedup_ratio();
        }
        brows.push(vec![
            n.to_string(),
            identical.to_string(),
            bytes(s.logical_bytes),
            bytes(s.physical_bytes),
            format!("{:.2}x", s.dedup_ratio()),
        ]);
    }
    let coscheduled = table(
        &["guests", "images identical", "logical", "physical", "dedup ratio"],
        &brows,
    );

    // (c) Replicated commit bytes vs guest count: every guest commits a
    // three-version lineage to a (3,2) quorum. The raw path ships every
    // byte of every image to every replica; the dedup path ships only
    // chunks the quorum has not already acked.
    let versions = lineage(NativeKind::SparseRandom, 3);
    let mut crows = Vec::new();
    let mut reduction_at_8 = 0.0;
    for n in [1usize, 2, 4, 8] {
        let raw_set = ReplicaSet::new(3);
        let mut raw = ReplicatedStore::new(raw_set.clone(), ReplicaConfig::new(3, 2));
        let dedup_set = ReplicaSet::new(3);
        let mut dedup = DedupStore::new(Box::new(ReplicatedStore::new(
            dedup_set.clone(),
            ReplicaConfig::new(3, 2),
        )))
        .with_pool(ckpt_par::global().clone());
        for g in 0..n {
            for (seq, v) in versions.iter().enumerate() {
                let key = ImageKey::new(format!("c13/g{g}"), 1, seq as u64).to_string();
                raw.store(&key, v, &cost).unwrap();
                dedup.store(&key, v, &cost).unwrap();
            }
        }
        let raw_bytes = raw_set.bytes_ingested();
        let dedup_bytes = dedup_set.bytes_ingested();
        let reduction = raw_bytes as f64 / dedup_bytes.max(1) as f64;
        if n == 8 {
            reduction_at_8 = reduction;
        }
        crows.push(vec![
            n.to_string(),
            bytes(raw_bytes),
            bytes(dedup_bytes),
            format!("{reduction:.2}x"),
        ]);
    }
    let replication = table(
        &["guests", "raw commit bytes", "dedup commit bytes", "reduction"],
        &crows,
    );

    format!(
        "C13 — content-addressed dedup: commit bytes scale with novelty, not image size\n\
         dedup ratio per guest app (1 full + 3 incremental checkpoints, one store each)\n\
         {zoo}\n\
         co-scheduled identical guests sharing one chunk store\n\
         {coscheduled}\n\
         commit bytes pushed to a (3,2) replica quorum, raw images vs dedup\n\
         {replication}\n\
         cross-process dedup ratio at n=8: {cross_ratio_at_8:.2}x\n\
         replication commit reduction at n=8: {reduction_at_8:.2}x"
    )
}


// ---------------------------------------------------------------------
// C15 — live migration: downtime vs dirty rate
// ---------------------------------------------------------------------

/// C15: freeze-copy vs iterative pre-copy vs post-copy live migration
/// across the guest app zoo at three dirty-rate levels (writes per guest
/// step).
///
/// Freeze-copy stops the guest for the whole capture + transfer +
/// restore; pre-copy ships dirty rounds while the guest runs and freezes
/// only the residual (auto-converge throttling when the dirty rate
/// outruns the wire); post-copy resumes on the target immediately and
/// pulls pages on demand. The table shows downtime shrinking by orders
/// of magnitude for both live strategies on every guest, and the
/// pre-copy round count growing with the dirty rate — the adaptive
/// cutover working for its living. The gate lines at the bottom are what
/// `golden_c15` asserts.
///
/// Standalone like C12/C13/C14 (`report c15`); not part of `report all`.
pub fn c15_livemig() -> String {
    use ckpt_cluster::{migrate_postcopy, migrate_precopy, LiveMigConfig};
    use simos::cost::PAGE_SIZE;

    // A 2-node cluster with one endless guest on node 0, warmed up so the
    // resident set is fully built before migration starts.
    let setup = |kind: NativeKind, writes: u64| -> (Cluster, Pid) {
        let mut c = Cluster::new(2, CostModel::circa_2005(), FailureConfig::none());
        let mut p = AppParams::small();
        p.total_steps = u64::MAX;
        p.writes_per_step = writes;
        let pid = c
            .node(NodeId(0))
            .kernel()
            .unwrap()
            .spawn_native(kind, p)
            .expect("spawn");
        c.advance(5_000_000);
        (c, pid)
    };

    let cfg = LiveMigConfig::default();
    let mut rows = Vec::new();
    let mut pre_beats_freeze = true;
    let mut post_beats_freeze = true;
    let mut rounds_never_shrink = true;
    let mut rounds_grow_somewhere = false;
    let mut max_pre_downtime = 0u64;
    let mut max_post_downtime = 0u64;
    for kind in NativeKind::ALL {
        let mut rounds_by_level = Vec::new();
        for (level, writes) in [("low", 2u64), ("moderate", 8), ("high", 32)] {
            // Freeze-copy baseline: downtime is the whole migration, read
            // off the two kernel clocks (capture + wire on the source,
            // receive + restore on the target).
            let (mut c, pid) = setup(kind, writes);
            let s0 = c.node(NodeId(0)).now();
            let t0 = c.node(NodeId(1)).now();
            migrate(&mut c, NodeId(0), pid, NodeId(1), MigrationMode::FreshPid, None)
                .expect("freeze-copy");
            let freeze_dt = (c.node(NodeId(0)).now() - s0) + (c.node(NodeId(1)).now() - t0);

            let (mut c, pid) = setup(kind, writes);
            let pre = migrate_precopy(&mut c, NodeId(0), pid, NodeId(1), &cfg)
                .expect("pre-copy converges");

            let (mut c, pid) = setup(kind, writes);
            let post = migrate_postcopy(&mut c, NodeId(0), pid, NodeId(1), &cfg)
                .expect("post-copy");
            let post_bytes = post.bytes_minimal + post.residual_moved() * PAGE_SIZE;

            pre_beats_freeze &= pre.downtime_ns < freeze_dt;
            post_beats_freeze &= post.downtime_ns < freeze_dt;
            max_pre_downtime = max_pre_downtime.max(pre.downtime_ns);
            max_post_downtime = max_post_downtime.max(post.downtime_ns);
            rounds_by_level.push(pre.rounds);

            rows.push(vec![
                format!("{kind:?}"),
                format!("{level} ({writes}/step)"),
                ns(freeze_dt),
                ns(pre.downtime_ns),
                pre.rounds.to_string(),
                format!("{}%", pre.final_duty_pct),
                bytes(pre.bytes_total()),
                ns(post.downtime_ns),
                post.demand_pages.to_string(),
                post.prefetch_pages.to_string(),
                bytes(post_bytes),
            ]);
        }
        // Adaptation: the round count must never drop as the dirty rate
        // rises, and must strictly rise for at least one guest overall.
        rounds_never_shrink &= rounds_by_level.windows(2).all(|w| w[0] <= w[1]);
        rounds_grow_somewhere |= rounds_by_level.last() > rounds_by_level.first();
    }
    let tbl = table(
        &[
            "guest",
            "dirty rate",
            "freeze downtime",
            "pre downtime",
            "rounds",
            "duty",
            "pre bytes",
            "post downtime",
            "demand",
            "prefetch",
            "post bytes",
        ],
        &rows,
    );

    let adapts = rounds_never_shrink && rounds_grow_somewhere;
    format!(
        "C15 — live migration: iterative pre-copy / post-copy vs freeze-copy\n\
         {tbl}\n\
         gate: pre-copy beats freeze-copy downtime on every guest at every dirty rate: {pre_beats_freeze}\n\
         gate: post-copy beats freeze-copy downtime on every guest at every dirty rate: {post_beats_freeze}\n\
         gate: pre-copy rounds adapt to the dirty rate (monotone, growing): {adapts}\n\
         worst-case pre-copy downtime: {} (cutover transfer budget {}; downtime adds the capture/restore floor)\n\
         worst-case post-copy downtime: {}",
        ns(max_pre_downtime),
        ns(cfg.downtime_budget_ns),
        ns(max_post_downtime),
    )
}


#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t1_matches_paper() {
        assert!(t1_table().contains("matches the paper byte-for-byte: true"));
    }

    #[test]
    fn f1_has_all_leaves() {
        let f = f1_figure();
        assert!(f.contains("Kernel thread"));
        assert!(f.contains("SafetyNet"));
    }

    #[test]
    fn c1_user_level_needs_more_crossings() {
        let out = c1_gather();
        // The last column is the ratio; just sanity-check the table shape.
        assert!(out.contains("crossing ratio"));
        assert!(out.lines().count() > 6);
    }

    #[test]
    fn c3_has_seven_rows() {
        let out = c3_blocksize();
        assert!(out.contains("prob-64"));
        assert!(out.contains("hw-line-64"));
        assert!(out.contains("adaptive-64-4096"));
    }

    #[test]
    fn c6_storage_semantics_table() {
        let out = c6_storage();
        assert!(out.contains("remote"));
        // Remote must be the only medium retrievable on node loss.
        let remote_line = out.lines().find(|l| l.contains("| remote")).unwrap();
        assert!(remote_line.contains("true"));
    }

}
