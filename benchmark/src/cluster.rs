//! `cluster_run`: a fault-tolerant MPI-style job on a simulated cluster.
//!
//! The benchmark owns the `simulate_job`-style loop, so supersteps,
//! coordinated checkpoint rounds and recoveries are timed separately.
//! Failures are injected by the benchmark at a fixed point of every cycle
//! (the seed picks the victim), not drawn from an MTBF: every cycle then
//! does the same amount of work whatever the seed, which a time-bounded
//! run needs to be steady.
//!
//! Correctness: at every committed round the benchmark keeps a copy of each
//! rank's guest; after every recovery each restored rank must equal that
//! copy bit for bit and the job must resume at the cut's superstep. (A
//! failure-free twin run is no oracle here: how far a rank overshoots a
//! superstep depends on which ranks share a node, and recovery changes the
//! placement.)

use crate::measure::{dump_spans, run_cycles, summarize, timed_setup, Cycle, Opts, MIB};
use crate::metrics::Report;
use crate::span::Recorder;
use crate::stats::median;
use ckpt_cluster::{Cluster, FailureConfig, JobInterrupt, MpiJob, ShardedCoordinator};
use ckpt_core::TrackerKind;
use ckpt_par::Pool;
use simos::apps::{mix64, AppParams, NativeKind};
use simos::cost::{CostModel, PAGE_SIZE};
use simos::stats::KernelStats;
use simos::types::{SimError, SimResult};
use std::sync::Arc;
use std::time::Instant;

/// Shape of the job and of one cycle.
#[derive(Debug, Clone, Copy)]
struct Spec {
    nodes: usize,
    ranks: u32,
    mem_bytes: u64,
    steps_per_superstep: u64,
    /// Coordinated checkpoint after every this many supersteps.
    ckpt_every: u64,
    /// Supersteps (first executions) in one cycle.
    cycle_supersteps: u64,
    /// The cycle's failure is injected after this superstep of the cycle:
    /// half a checkpoint interval past a round, so half an interval is
    /// executed again.
    fail_after: u64,
}

impl Spec {
    fn of(smoke: bool) -> Spec {
        if smoke {
            Spec {
                nodes: 4,
                ranks: 4,
                mem_bytes: 64 << 10,
                steps_per_superstep: 4,
                ckpt_every: 4,
                cycle_supersteps: 12,
                fail_after: 6,
            }
        } else {
            // 64 pages per rank: the working set fits the soft TLB.
            Spec {
                nodes: 8,
                ranks: 8,
                mem_bytes: 256 << 10,
                steps_per_superstep: 20,
                ckpt_every: 8,
                cycle_supersteps: 40,
                fail_after: 28,
            }
        }
    }
}

/// One rank's guest as it was at the last committed round.
struct RankCopy {
    work_done: u64,
    pages: Vec<(u64, Vec<u8>)>,
}

/// Counters harvested from kernels and address spaces before a failure or
/// a recovery destroys them.
#[derive(Debug, Default)]
struct SimosAcc {
    kernel: KernelStats,
    tlb_hits: u64,
    tlb_misses: u64,
    tlb_flushes: u64,
}

#[derive(Debug, Default)]
struct Acc {
    superstep_s: f64,
    ckpt_s: f64,
    restart_s: f64,
    supersteps: u64,
    reexecuted: u64,
    rounds: u64,
    round_bytes: u64,
    ack_cycles: u64,
    failures: u64,
    recoveries: u64,
}

struct World {
    spec: Spec,
    cluster: Cluster,
    job: MpiJob,
    coord: ShardedCoordinator,
    rec: Option<Arc<Recorder>>,
    rng: u64,
    /// The committed cut: the superstep it was taken at and every rank.
    cut: Option<(u64, Vec<RankCopy>)>,
    /// Highest superstep ever completed, to tell re-execution apart.
    high_water: u64,
    acc: Acc,
    simos: SimosAcc,
}

fn add_kernel(into: &mut KernelStats, k: &KernelStats) {
    into.context_switches += k.context_switches;
    into.page_faults += k.page_faults;
}

/// Run `body` (inside a span when tracing) and return its host seconds.
fn timed<R>(rec: &Option<Arc<Recorder>>, name: &'static str, body: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let out = match rec {
        Some(rec) => rec.time(name, body),
        None => body(),
    };
    (out, t.elapsed().as_secs_f64())
}

impl World {
    fn build(spec: Spec, opts: &Opts, rec: Option<Arc<Recorder>>) -> SimResult<World> {
        let pool = Arc::new(Pool::new(opts.workers));
        // No MTBF: the benchmark injects the failures; a failed node is
        // back after 2 ms of virtual time.
        let failures = FailureConfig {
            node_mtbf_ns: None,
            repair_ns: 2_000_000,
            seed: opts.seed,
        };
        let mut cluster =
            Cluster::new_striped(spec.nodes, CostModel::circa_2005(), failures, 2, 3, 2);
        let params = AppParams {
            mem_bytes: spec.mem_bytes,
            total_steps: u64::MAX,
            writes_per_step: 16,
            write_stride_pages: 4,
            seed: opts.seed,
        };
        let job = MpiJob::launch(
            &mut cluster,
            "bench",
            spec.ranks,
            NativeKind::DenseSweep,
            params,
            spec.steps_per_superstep,
            32 * 1024,
        )?;
        let coord = ShardedCoordinator::new("bench", TrackerKind::KernelPage, 2).with_pool(pool);
        let mut w = World {
            spec,
            cluster,
            job,
            coord,
            rec,
            rng: mix64(opts.seed ^ 0x7669_6374_696d),
            cut: None,
            high_water: 0,
            acc: Acc::default(),
            simos: SimosAcc::default(),
        };
        // Warm-up: one checkpoint interval, a round, a failure and its
        // recovery, so the timed cycles all start from a recovered
        // placement (ranks spread over the nodes that were alive).
        let mut scratch = Report::default();
        for _ in 0..spec.ckpt_every {
            w.superstep(&mut scratch)?;
        }
        w.checkpoint(&mut scratch)?;
        w.fail_one_node();
        w.superstep(&mut scratch)?;
        if !scratch.correct() {
            return Err(SimError::Usage(format!(
                "warm-up failed: {:?}",
                scratch.failures
            )));
        }
        w.acc = Acc::default();
        w.simos = SimosAcc::default();
        Ok(w)
    }

    /// Fold every rank's soft-TLB counters in; called before the rank
    /// processes are destroyed (recovery kills and restores all of them).
    fn harvest_ranks(&mut self) {
        for r in &self.job.ranks {
            let Some(k) = self.cluster.nodes[r.node.0 as usize].kernel_ref() else {
                continue;
            };
            if let Some(p) = k.process(r.pid) {
                self.simos.tlb_hits += p.mem.stats.tlb_hits;
                self.simos.tlb_misses += p.mem.stats.tlb_misses;
                self.simos.tlb_flushes += p.mem.stats.tlb_flushes;
            }
        }
    }

    /// Fail-stop the node hosting a seeded rank.
    fn fail_one_node(&mut self) {
        self.rng = mix64(self.rng);
        let victim = self.job.ranks[(self.rng % self.job.ranks.len() as u64) as usize].node;
        self.harvest_ranks();
        if let Some(k) = self.cluster.nodes[victim.0 as usize].kernel_ref() {
            add_kernel(&mut self.simos.kernel, &k.stats);
        }
        self.cluster.inject_failure(victim);
        self.acc.failures += 1;
    }

    /// One superstep; on a node loss, recover from the committed cut,
    /// verify the restored ranks against it, and report the interrupt as
    /// handled.
    fn superstep(&mut self, report: &mut Report) -> SimResult<()> {
        let World {
            job, cluster, rec, ..
        } = self;
        let (step, host_s) = timed(rec, "cluster.superstep", || job.superstep(cluster));
        self.acc.superstep_s += host_s;
        match step {
            Ok(()) => {
                self.acc.supersteps += 1;
                let done = self.job.completed_supersteps();
                if done <= self.high_water {
                    self.acc.reexecuted += 1;
                } else {
                    self.high_water = done;
                }
                Ok(())
            }
            Err(JobInterrupt::NodeLost(_)) => self.recover(report),
        }
    }

    fn recover(&mut self, report: &mut Report) -> SimResult<()> {
        report.attempted += 1;
        while self.cluster.alive_nodes().is_empty() {
            self.cluster.advance(2_000_000);
        }
        let World {
            job,
            cluster,
            coord,
            rec,
            ..
        } = self;
        let (restarted, host_s) = timed(rec, "cluster.restart", || coord.restart(cluster, job));
        self.acc.restart_s += host_s;
        restarted?;
        self.acc.recoveries += 1;
        let Some((superstep, ranks)) = &self.cut else {
            return Err(SimError::Usage("recovered without a committed cut".into()));
        };
        if self.job.completed_supersteps() != *superstep {
            report.fail(format!(
                "job resumed at superstep {} but the cut was taken at {superstep}",
                self.job.completed_supersteps()
            ));
        }
        for (r, copy) in self.job.ranks.iter().zip(ranks) {
            let back = self.cluster.nodes[r.node.0 as usize]
                .kernel_ref()
                .and_then(|k| k.process(r.pid));
            let same = back.is_some_and(|p| {
                p.work_done == copy.work_done
                    && p.mem.resident_count() == copy.pages.len()
                    && copy
                        .pages
                        .iter()
                        .all(|(pn, d)| p.mem.page_data(*pn) == Some(d.as_slice()))
            });
            if !same {
                report.fail(format!(
                    "rank {} is not bit-identical to the committed cut",
                    r.rank
                ));
            }
        }
        Ok(())
    }

    /// One coordinated round. Before it (outside the timed span) every rank
    /// is copied: nothing runs between this copy and the round's captures,
    /// while the round's closing barrier lets thawed ranks run on, so the
    /// copy must not be taken afterwards. Returns the round's host seconds
    /// and bytes. (`HierOutcome::round_ns` is not reported: it is measured
    /// from the cluster clock, which trails the node clocks the round
    /// charges, so it grows with the run instead of costing a round.)
    fn checkpoint(&mut self, report: &mut Report) -> SimResult<(f64, u64)> {
        report.attempted += 1;
        let mut ranks = Vec::with_capacity(self.job.ranks.len());
        for r in &self.job.ranks {
            let p = self.cluster.nodes[r.node.0 as usize]
                .kernel_ref()
                .and_then(|k| k.process(r.pid))
                .ok_or(SimError::NoSuchProcess(r.pid))?;
            ranks.push(RankCopy {
                work_done: p.work_done,
                pages: p
                    .mem
                    .resident_pages()
                    .filter_map(|pn| p.mem.page_data(pn).map(|d| (pn, d.to_vec())))
                    .collect(),
            });
        }
        let World {
            job,
            cluster,
            coord,
            rec,
            ..
        } = self;
        let (round, host_s) = timed(rec, "cluster.ckpt_round", || coord.checkpoint(cluster, job));
        self.acc.ckpt_s += host_s;
        let o = round?;
        self.acc.rounds += 1;
        self.acc.round_bytes += o.total_bytes;
        self.acc.ack_cycles += o.ack_cycles;
        self.cut = Some((self.job.completed_supersteps(), ranks));
        Ok((host_s, o.total_bytes))
    }

    /// One cycle: `cycle_supersteps` supersteps of progress with a round
    /// every `ckpt_every`, and one node failure after `fail_after`.
    fn cycle(&mut self, report: &mut Report) -> Cycle {
        let mut c = Cycle::default();
        let start = self.high_water;
        let before = (
            self.acc.superstep_s,
            self.acc.restart_s,
            self.acc.supersteps,
        );
        let mut failed = false;
        while self.high_water < start + self.spec.cycle_supersteps {
            let reexecuting = self.job.completed_supersteps() < self.high_water;
            let restart0 = self.acc.restart_s;
            if let Err(e) = self.superstep(report) {
                report.attempted += 1;
                report.fail(format!("superstep: {e}"));
                break;
            }
            if self.acc.restart_s > restart0 {
                c.restart_ms.push((self.acc.restart_s - restart0) * 1e3);
                c.restart_bytes += self.guest_bytes();
                continue;
            }
            let done = self.job.completed_supersteps();
            if !reexecuting && done.is_multiple_of(self.spec.ckpt_every) {
                match self.checkpoint(report) {
                    Ok((host_s, bytes)) => {
                        c.op_ms.push(host_s * 1e3);
                        c.ckpt_s += host_s;
                        c.ckpt_bytes += bytes;
                        c.ckpts += 1;
                    }
                    Err(e) => report.fail(format!("checkpoint round: {e}")),
                }
            }
            if !failed && done == start + self.spec.fail_after {
                failed = true;
                self.fail_one_node();
            }
        }
        let supersteps = self.acc.supersteps - before.2;
        c.work = (supersteps * self.spec.ranks as u64 * self.spec.steps_per_superstep) as f64;
        c.timed_s = (self.acc.superstep_s - before.0) + c.ckpt_s + (self.acc.restart_s - before.1);
        c
    }

    fn guest_bytes(&self) -> u64 {
        self.job
            .ranks
            .iter()
            .filter_map(|r| {
                let k = self.cluster.nodes[r.node.0 as usize].kernel_ref()?;
                Some(k.process(r.pid)?.mem.resident_count() as u64 * PAGE_SIZE)
            })
            .sum()
    }

    fn ingested(&self) -> u64 {
        self.cluster.striped_set().map_or(0, |s| {
            s.stripes().iter().map(|set| set.bytes_ingested()).sum()
        })
    }

    fn digests_computed(&self) -> u64 {
        self.cluster.striped_set().map_or(0, |s| {
            s.stripes()
                .iter()
                .flat_map(|set| set.nodes().iter().map(|n| n.digests_computed()))
                .sum()
        })
    }

    fn used_bytes(&self) -> u64 {
        // Every node's remote handle is a client of the one shared pool.
        self.cluster.nodes[0].remote.lock().used_bytes()
    }
}

pub fn run(opts: &Opts) -> Report {
    let spec = Spec::of(opts.smoke);
    let mut report = Report::new("cluster_run", opts.seed, opts.trace, opts.workers);
    let rec = opts.trace.then(|| Arc::new(Recorder::new()));
    let built = timed_setup(&mut report, || World::build(spec, opts, rec.clone()));
    let mut w = match built {
        Ok(w) => w,
        Err(e) => {
            report.attempted += 1;
            report.fail(format!("set-up failed: {e}"));
            return report;
        }
    };
    let (ingested0, digests0, virt0) = (w.ingested(), w.digests_computed(), w.cluster.now());
    let cycles = run_cycles(opts, |_| w.cycle(&mut report));
    let n = cycles.len() as f64;
    let ingested = w.ingested() - ingested0;
    let virt_job_ms = (w.cluster.now() - virt0) as f64 / 1e6 / n;
    let commit_ratio = ingested as f64 / w.acc.round_bytes.max(1) as f64;
    let stored_ratio = w.used_bytes() as f64 / w.guest_bytes().max(1) as f64;
    // Same seed and op list, same victims and same final state: the repeat
    // check reads this.
    let state = match w.job.rank_states(&mut w.cluster) {
        Ok(s) => s.iter().fold(w.rng, |h, (a, b)| mix64(h ^ mix64(*a) ^ *b)),
        Err(e) => {
            report.attempted += 1;
            report.fail(format!("final rank states unreadable: {e}"));
            0
        }
    };
    report.set("count.state_digest32", (state & 0xffff_ffff) as f64);

    if !opts.trace {
        summarize(&mut report, &cycles);
        report.set("commit_bytes_per_guest_byte", commit_ratio);
        report.set("stored_bytes_per_guest_byte", stored_ratio);
        report.set("virt_job_ms", virt_job_ms);
        return report;
    }

    report.cycles = cycles.len() as u64;
    let per_cycle = |v: f64| v / n;
    // simos: what is left on the live kernels plus what was harvested.
    w.harvest_ranks();
    for node in &w.cluster.nodes {
        if let Some(k) = node.kernel_ref() {
            add_kernel(&mut w.simos.kernel, &k.stats);
        }
    }
    let (a, s) = (&w.acc, &w.simos);
    report.set("cluster.superstep_s", per_cycle(a.superstep_s));
    report.set("cluster.ckpt_round_s", per_cycle(a.ckpt_s));
    report.set("cluster.restart_s", per_cycle(a.restart_s));
    report.set("cluster.rounds", per_cycle(a.rounds as f64));
    report.set("cluster.failures", per_cycle(a.failures as f64));
    report.set("cluster.recoveries", per_cycle(a.recoveries as f64));
    report.set(
        "cluster.supersteps_reexecuted",
        per_cycle(a.reexecuted as f64),
    );
    report.set("cluster.round_bytes", per_cycle(a.round_bytes as f64));
    report.set("cluster.ack_cycles", per_cycle(a.ack_cycles as f64));

    let steps = cycles.iter().map(|c| c.work).sum::<f64>();
    report.set("simos.run_s", per_cycle(a.superstep_s));
    report.set("simos.guest_steps_per_s", steps / a.superstep_s.max(1e-12));
    report.set(
        "simos.tlb_hit_share",
        s.tlb_hits as f64 / (s.tlb_hits + s.tlb_misses).max(1) as f64,
    );
    report.set("simos.tlb_flushes", per_cycle(s.tlb_flushes as f64));
    report.set("simos.page_faults", per_cycle(s.kernel.page_faults as f64));
    report.set(
        "simos.context_switches",
        per_cycle(s.kernel.context_switches as f64),
    );

    report.set("storage.commit_bytes_per_guest_byte", commit_ratio);
    report.set("storage.stored_bytes_per_guest_byte", stored_ratio);
    report.set("storage.used_bytes_end", w.used_bytes() as f64);
    report.set("replica.bytes_ingested", per_cycle(ingested as f64));
    report.set(
        "replica.digests_computed",
        per_cycle((w.digests_computed() - digests0) as f64),
    );
    report.set("replica.ack_cycles", per_cycle(a.ack_cycles as f64));
    let objects = a.rounds * spec.ranks as u64;
    report.set(
        "replica.batch_objects_per_ack",
        objects as f64 / a.ack_cycles.max(1) as f64,
    );

    let round_ms: Vec<f64> = cycles.iter().flat_map(|c| c.op_ms.clone()).collect();
    let restart_ms: Vec<f64> = cycles.iter().flat_map(|c| c.restart_ms.clone()).collect();
    report.set("engine.ckpt_ms_p50", median(&round_ms));
    report.set("engine.restart_ms_p50", median(&restart_ms));
    report.set(
        "engine.ckpt_mib_per_s",
        a.round_bytes as f64 / MIB / a.ckpt_s.max(1e-12),
    );
    let restart_bytes: u64 = cycles.iter().map(|c| c.restart_bytes).sum();
    report.set(
        "engine.restart_mib_per_s",
        restart_bytes as f64 / MIB / a.restart_s.max(1e-12),
    );
    report.set("virt.job_ms", virt_job_ms);

    if let Some(rec) = &rec {
        dump_spans(&mut report, rec, opts);
    }
    report
}
