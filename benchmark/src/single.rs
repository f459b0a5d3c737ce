//! The three single-guest workloads: one guest process driven through
//! run → freeze → checkpoint → (restart onto a fresh kernel) → thaw rounds
//! against a raw, a dedup-over-replicated and an erasure-coded stack.
//!
//! The untraced run drives `KernelCkptEngine`. The traced run drives, next
//! to an identical engine world, an *unrolled* world: the same public steps
//! the engine makes, each wrapped in a span, over a stack with a `Timed`
//! decorator at every seam. After every round the two worlds must agree on
//! image kind, page count, encoded bytes, stored bytes and simulated cost,
//! so the trace can never measure a different program than the engine.

use crate::measure::{dump_spans, run_cycles, summarize, timed_setup, Cycle, Opts, MIB};
use crate::metrics::Report;
use crate::replay::Replays;
use crate::span::{NameTotal, Recorder};
use crate::stats::median;
use crate::timed::{Counts, Seam, SeamCounts, Tier, Timed};
use ckpt_cas::{CasStatsHandle, DedupStore};
use ckpt_core::mechanism::KernelCkptEngine;
use ckpt_core::{
    capture_image, restore_image, shared_storage, CaptureOptions, RestoreOptions, RestorePid,
    SharedStorage, Tracker, TrackerKind,
};
use ckpt_ec::ErasureStore;
use ckpt_image::{ImageKind, PageEncoding};
use ckpt_par::Pool;
use ckpt_replica::{ReplicaConfig, ReplicaSet, ReplicatedStore};
use ckpt_storage::{
    prune_before, store_image_bytes, ImageKey, RemoteServer, RemoteStore, StableStorage,
};
use simos::apps::{mix64, AppParams, NativeKind};
use simos::cost::{CostModel, PAGE_SIZE};
use simos::pcb::Pcb;
use simos::types::{Pid, SimError, SimResult};
use simos::Kernel;
use std::sync::Arc;
use std::time::Instant;

const JOB: &str = "bench";
const MECH: &str = "ckptbench";
/// Virtual time the guest runs between two checkpoints.
const RUN_NS: u64 = 2_000_000;
/// The same for the sparse guest: a quarter of the window, so that a round
/// dirties about a fifth of its 2048 pages (page-protection faults set the
/// pace: roughly 900 first writes per virtual millisecond).
const SPARSE_RUN_NS: u64 = 500_000;
const SMOKE_SPARSE_RUN_NS: u64 = 200_000;
/// Erasure geometry of `full_rs_degraded`: RS(4, 2) on six nodes.
const RS_K: usize = 4;
const RS_M: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stack {
    /// `RemoteStore` alone: no storage tier at all.
    Raw,
    /// `DedupStore` over `ReplicatedStore`(3, 2).
    DedupRepl,
    /// `ErasureStore` rs(4, 2); restarts read with two nodes down.
    RsDegraded,
}

/// The shape of one single-guest workload. A cycle is `rounds` checkpoint
/// rounds; every `restart_every`-th round also restarts and verifies.
#[derive(Debug, Clone, Copy)]
struct Spec {
    stack: Stack,
    kind: NativeKind,
    mem_bytes: u64,
    tracker: TrackerKind,
    full_every: u64,
    rounds: u32,
    restart_every: u32,
    run_ns: u64,
    /// Run slices before the first checkpoint. The sparse guest needs
    /// enough of them to have written every page once: until then images
    /// grow from round to round and no two cycles cost the same.
    prerun: u64,
}

fn spec(name: &str, smoke: bool) -> Option<Spec> {
    let mib = |full: u64, tiny: u64| (if smoke { tiny } else { full }) << 20;
    Some(match name {
        // 4096 incompressible pages, far more than the 128-entry soft TLB.
        "full_raw" => Spec {
            stack: Stack::Raw,
            kind: NativeKind::DenseSweep,
            mem_bytes: mib(16, 1),
            tracker: TrackerKind::FullOnly,
            full_every: 0,
            rounds: 4,
            restart_every: 4,
            run_ns: RUN_NS,
            prerun: 1,
        },
        // Restart every 5th round against a full every 8th: coprime, so
        // chains of every length from 1 to 8 are reconstructed.
        "incr_dedup_repl" => Spec {
            stack: Stack::DedupRepl,
            kind: NativeKind::SparseRandom,
            mem_bytes: mib(8, 2),
            tracker: TrackerKind::KernelPage,
            full_every: 8,
            rounds: if smoke { 10 } else { 40 },
            restart_every: 5,
            run_ns: if smoke {
                SMOKE_SPARSE_RUN_NS
            } else {
                SPARSE_RUN_NS
            },
            prerun: 32,
        },
        "full_rs_degraded" => Spec {
            stack: Stack::RsDegraded,
            kind: NativeKind::DenseSweep,
            mem_bytes: mib(8, 1),
            tracker: TrackerKind::FullOnly,
            full_every: 0,
            rounds: 2,
            restart_every: 2,
            run_ns: RUN_NS,
            prerun: 1,
        },
        _ => return None,
    })
}

/// What the benchmark keeps hold of inside a storage stack.
#[derive(Default)]
struct Probes {
    /// Nodes behind the replicated or erasure tier.
    set: Option<Arc<ReplicaSet>>,
    cas: Option<CasStatsHandle>,
    /// Traced stacks only: the seam the engine talks to, and the tiers.
    top: Option<Arc<SeamCounts>>,
    repl: Option<Seam<ReplicatedStore>>,
    ec: Option<Seam<ErasureStore>>,
}

/// Build a workload's storage stack; with a recorder, put a `Timed`
/// decorator at every seam.
fn build_stack(
    stack: Stack,
    pool: &Arc<Pool>,
    rec: Option<&Arc<Recorder>>,
) -> (SharedStorage, Probes) {
    let mut p = Probes::default();
    let storage = match stack {
        Stack::Raw => {
            let store = RemoteStore::new(RemoteServer::new(1 << 40));
            match rec {
                Some(rec) => {
                    let t = Timed::new(Tier::Media, store, rec.clone());
                    p.top = Some(t.seam().counts);
                    shared_storage(t)
                }
                None => shared_storage(store),
            }
        }
        Stack::DedupRepl => {
            let set = ReplicaSet::new(3);
            p.set = Some(set.clone());
            let repl = ReplicatedStore::new(set, ReplicaConfig::new(3, 2)).with_pool(pool.clone());
            let lower: Box<dyn StableStorage> = match rec {
                Some(rec) => {
                    let t = Timed::new(Tier::Replica, repl, rec.clone());
                    p.repl = Some(t.seam());
                    Box::new(t)
                }
                None => Box::new(repl),
            };
            let dedup = DedupStore::new(lower).with_pool(pool.clone());
            p.cas = Some(dedup.stats_handle());
            match rec {
                Some(rec) => {
                    let t = Timed::new(Tier::Cas, dedup, rec.clone());
                    p.top = Some(t.seam().counts);
                    shared_storage(t)
                }
                None => shared_storage(dedup),
            }
        }
        Stack::RsDegraded => {
            let set = ReplicaSet::new(RS_K + RS_M);
            p.set = Some(set.clone());
            let ec = ErasureStore::new(set, RS_K, RS_M).with_pool(pool.clone());
            match rec {
                Some(rec) => {
                    let t = Timed::new(Tier::Ec, ec, rec.clone());
                    p.top = Some(t.seam().counts);
                    p.ec = Some(t.seam());
                    shared_storage(t)
                }
                None => shared_storage(ec),
            }
        }
    };
    (storage, p)
}

/// Who takes the checkpoints of a world.
enum Saver {
    Engine(Box<KernelCkptEngine>),
    /// The engine's steps, made by the benchmark itself.
    Unrolled {
        tracker: Tracker,
        seq: u64,
        last_full_seq: u64,
    },
}

/// What one checkpoint produced. Deterministic: both worlds of a traced
/// run must report the same.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Saved {
    incremental: bool,
    pages: u64,
    memory_bytes: u64,
    encoded_bytes: u64,
    virt_ns: u64,
    used_bytes: u64,
}

/// What one restart produced; deterministic like [`Saved`].
#[derive(Debug, Clone, PartialEq, Eq)]
struct Restored {
    pages: u64,
    virt_ns: u64,
    /// Objects under the lineage when the restart began.
    keys: u64,
    work_done: u64,
}

/// One round as both worlds must agree on it.
#[derive(Debug, Clone, PartialEq, Eq)]
struct RoundFacts {
    saved: Saved,
    restored: Option<Restored>,
    /// Nodes a degraded restart lost.
    lost: Vec<usize>,
}

/// Host times of one round.
#[derive(Debug, Clone, Default)]
struct RoundTimes {
    /// Guest run, freeze and thaw.
    run_s: f64,
    ckpt_s: f64,
    restart_s: Option<f64>,
    ckpt_bytes: u64,
    restart_bytes: u64,
    virt_ckpt_ns: u64,
    virt_restart_ns: u64,
}

/// Sums the unrolled world keeps for the per-layer rates.
#[derive(Debug, Default)]
struct TraceAcc {
    steps: u64,
    collect_pages: u64,
    pages: u64,
    zero_pages: u64,
    memory_bytes: u64,
    encoded_bytes: u64,
    loaded_bytes: u64,
    restored_bytes: u64,
    chain_len: u64,
    restarts: u64,
    ckpts: u64,
}

struct World {
    k: Kernel,
    pid: Pid,
    pool: Arc<Pool>,
    storage: SharedStorage,
    probes: Probes,
    saver: Saver,
    spec: Spec,
    rec: Option<Arc<Recorder>>,
    /// Seeded stream choosing which nodes a degraded restart loses.
    rng: u64,
    acc: TraceAcc,
    /// Encoded bytes of the last two images, and the page numbers of the
    /// last one, for the replays (unrolled world only).
    last_encoded: Option<Vec<u8>>,
    prev_encoded: Option<Vec<u8>>,
    last_pages: Vec<u64>,
}

fn usage(e: impl std::fmt::Display) -> SimError {
    SimError::Usage(e.to_string())
}

impl World {
    /// Spawn the guest, build the stack, and take one warm-up round.
    fn build(
        spec: Spec,
        opts: &Opts,
        rec: Option<Arc<Recorder>>,
        unrolled: bool,
    ) -> SimResult<World> {
        let pool = Arc::new(Pool::new(opts.workers));
        let mut k = Kernel::new(CostModel::circa_2005());
        let params = AppParams {
            mem_bytes: spec.mem_bytes,
            total_steps: u64::MAX,
            writes_per_step: 256,
            write_stride_pages: 4,
            seed: opts.seed,
        };
        let pid = k.spawn_native(spec.kind, params)?;
        // DenseSweep's values depend on the step index, not on a seed: let
        // the seed choose how far the guest is when timing starts.
        for _ in 0..spec.prerun + opts.seed % 7 {
            k.run_for(spec.run_ns)?;
        }
        let (storage, probes) = build_stack(spec.stack, &pool, rec.as_ref());
        let saver = if unrolled {
            Saver::Unrolled {
                tracker: Tracker::new(spec.tracker),
                seq: 0,
                last_full_seq: 0,
            }
        } else {
            let engine = KernelCkptEngine::builder(MECH, JOB, storage.clone(), spec.tracker)
                .full_every(spec.full_every)
                .encode_pool(pool.clone())
                .build();
            Saver::Engine(Box::new(engine))
        };
        let mut w = World {
            k,
            pid,
            pool,
            storage,
            probes,
            saver,
            spec,
            rec,
            rng: mix64(opts.seed ^ 0x6465_6772_6164_6564),
            acc: TraceAcc::default(),
            last_encoded: None,
            prev_encoded: None,
            last_pages: Vec::new(),
        };
        w.k.run_for(spec.run_ns)?;
        w.k.freeze_process(w.pid)?;
        w.checkpoint()?;
        w.restart()?;
        w.k.thaw_process(w.pid)?;
        Ok(w)
    }

    fn used_bytes(&self) -> u64 {
        self.storage.lock().used_bytes()
    }

    /// Bytes the storage nodes have ingested so far (coded and replicated
    /// stacks); `None` on the raw stack.
    fn ingested(&self) -> Option<u64> {
        self.probes.set.as_ref().map(|s| s.bytes_ingested())
    }

    /// One checkpoint and its host seconds.
    fn checkpoint(&mut self) -> SimResult<(Saved, f64)> {
        let t = Instant::now();
        let mut saved = match &mut self.saver {
            Saver::Engine(engine) => {
                let o = engine.checkpoint_in_kernel(&mut self.k, self.pid)?;
                Saved {
                    incremental: o.incremental,
                    pages: o.pages_saved,
                    memory_bytes: o.memory_bytes,
                    encoded_bytes: o.encoded_bytes,
                    virt_ns: o.total_ns,
                    used_bytes: 0,
                }
            }
            Saver::Unrolled { .. } => self.checkpoint_unrolled()?,
        };
        let host_s = t.elapsed().as_secs_f64();
        saved.used_bytes = self.used_bytes();
        Ok((saved, host_s))
    }

    /// `KernelCkptEngine::checkpoint_in_kernel`, step by public step.
    fn checkpoint_unrolled(&mut self) -> SimResult<Saved> {
        let rec = self.rec.clone().expect("the unrolled world records spans");
        let World {
            k,
            pid,
            pool,
            storage,
            saver,
            spec,
            acc,
            last_encoded,
            prev_encoded,
            last_pages,
            ..
        } = self;
        let Saver::Unrolled {
            tracker,
            seq,
            last_full_seq,
        } = saver
        else {
            unreachable!("checked by the caller");
        };
        let pid = *pid;
        rec.time("op.ckpt", || {
            let t0 = k.now();
            let next_seq = *seq + 1;
            let incremental = tracker.kind().supports_incremental()
                && *seq > 0
                && tracker.is_armed()
                && !(spec.full_every > 0 && next_seq - *last_full_seq >= spec.full_every);
            let mut opts = if incremental {
                let collected = rec.time("core.collect", || tracker.collect(k, pid))?;
                acc.collect_pages += collected.pages.len() as u64;
                CaptureOptions::incremental(MECH, next_seq, *seq, collected.pages)
            } else {
                CaptureOptions::full(MECH, next_seq)
            };
            opts.encode_pool = Some(pool.clone());
            let img = rec.time("core.capture", || capture_image(k, pid, &opts))?;
            let bytes = rec.time("image.encode", || ckpt_image::encode_with_pool(&img, pool));
            let receipt = rec
                .time("storage.store", || {
                    store_image_bytes(
                        storage.lock().as_mut(),
                        JOB,
                        pid.0,
                        next_seq,
                        &bytes,
                        &k.cost,
                    )
                })
                .map_err(usage)?;
            let charge = k.cost.memcpy(receipt.bytes) + receipt.time_ns;
            k.charge(charge);
            *seq = next_seq;
            if !incremental {
                *last_full_seq = next_seq;
                // The engine ignores a refused prune, and so does this.
                let _ = rec.time("storage.prune", || {
                    prune_before(storage.lock().as_mut(), JOB, pid.0, next_seq, &k.cost)
                });
            }
            if tracker.kind().supports_incremental() {
                rec.time("core.rearm", || tracker.arm(k, pid))?;
            }
            acc.ckpts += 1;
            acc.pages += img.page_count() as u64;
            acc.zero_pages += img
                .pages
                .iter()
                .filter(|p| p.enc == PageEncoding::Zero)
                .count() as u64;
            acc.memory_bytes += img.memory_bytes();
            acc.encoded_bytes += receipt.bytes;
            *last_pages = img.pages.iter().map(|p| p.page_no).collect();
            *prev_encoded = last_encoded.replace(bytes);
            Ok(Saved {
                incremental: img.header.kind == ImageKind::Incremental,
                pages: img.page_count() as u64,
                memory_bytes: img.memory_bytes(),
                encoded_bytes: receipt.bytes,
                virt_ns: k.now() - t0,
                used_bytes: 0,
            })
        })
    }

    /// Restart the newest checkpoint onto a fresh kernel; returns what the
    /// restart reported, its host seconds, and the kernel and pid the guest
    /// came back on.
    fn restart(&mut self) -> SimResult<(Restored, f64, Kernel, Pid)> {
        let mut k2 = Kernel::new(CostModel::circa_2005());
        let t = Instant::now();
        let (pid2, restored) = match &mut self.saver {
            Saver::Engine(engine) => {
                let r = engine.restart_from_storage(&mut k2, RestorePid::Fresh)?;
                let restored = Restored {
                    pages: r.pages_restored,
                    virt_ns: r.total_ns,
                    keys: r.images_loaded,
                    work_done: r.work_done,
                };
                (r.pid, restored)
            }
            Saver::Unrolled { .. } => self.restart_unrolled(&mut k2)?,
        };
        Ok((restored, t.elapsed().as_secs_f64(), k2, pid2))
    }

    /// `restart_from_shared` unrolled: list, load newest-first down to a
    /// full image, decode each, overlay the chain, restore.
    fn restart_unrolled(&mut self, k2: &mut Kernel) -> SimResult<(Pid, Restored)> {
        let rec = self.rec.clone().expect("the unrolled world records spans");
        let (storage, acc, pid) = (&self.storage, &mut self.acc, self.pid);
        rec.time("op.restart", || {
            let t0 = k2.now();
            let storage = storage.lock();
            let prefix = ImageKey::lineage_prefix(JOB, pid.0);
            let mut keys: Vec<String> = rec
                .time("storage.list", || storage.list())
                .into_iter()
                .filter(|key| key.starts_with(&prefix))
                .collect();
            keys.sort();
            let mut chain = Vec::new();
            let mut load_ns = 0;
            for key in keys.iter().rev() {
                let (bytes, t) = rec
                    .time("storage.load", || storage.load(key, &k2.cost))
                    .map_err(usage)?;
                load_ns += t;
                acc.loaded_bytes += bytes.len() as u64;
                let img = rec
                    .time("image.decode", || ckpt_image::decode(&bytes))
                    .map_err(usage)?;
                let full = img.header.kind == ImageKind::Full;
                chain.push(img);
                if full {
                    break;
                }
            }
            chain.reverse();
            let image = rec
                .time("image.reconstruct", || ckpt_image::reconstruct(&chain))
                .map_err(usage)?;
            drop(storage);
            k2.charge(load_ns);
            let opts = RestoreOptions::fresh_running(RestorePid::Fresh);
            let pid2 = rec.time("core.restore", || restore_image(k2, &image, &opts))?;
            acc.restarts += 1;
            acc.chain_len += chain.len() as u64;
            acc.restored_bytes += image.memory_bytes();
            let restored = Restored {
                pages: image.page_count() as u64,
                virt_ns: k2.now() - t0,
                keys: keys.len() as u64,
                work_done: image.work_done,
            };
            Ok((pid2, restored))
        })
    }

    /// What the seed decided, folded into 32 bits: how far the guest got
    /// and where the degraded-read stream stands. The repeat check wants it
    /// equal for equal seeds and different for different ones.
    fn state_digest(&self) -> f64 {
        let p = self.k.process(self.pid).expect("guest is alive");
        let mut sum = [0u8; 8];
        p.mem.peek(simos::apps::H_SUM, &mut sum);
        let h = mix64(mix64(p.work_done) ^ u64::from_le_bytes(sum) ^ self.rng);
        (h & 0xffff_ffff) as f64
    }

    /// The two nodes a degraded restart loses, drawn from the seeded
    /// stream; empty on the other stacks.
    fn draw_lost(&mut self) -> Vec<usize> {
        if self.spec.stack != Stack::RsDegraded {
            return Vec::new();
        }
        let n = (RS_K + RS_M) as u64;
        self.rng = mix64(self.rng);
        let a = self.rng % n;
        let b = (a + 1 + (self.rng >> 32) % (n - 1)) % n;
        vec![a as usize, b as usize]
    }

    /// One round: run the guest, freeze, checkpoint, on a restart round
    /// restart and bit-compare outside the timed spans, thaw.
    fn round(&mut self, restart: bool, report: &mut Report) -> SimResult<(RoundTimes, RoundFacts)> {
        let mut times = RoundTimes::default();
        let t = Instant::now();
        let before = self.k.process(self.pid).map_or(0, |p| p.work_done);
        let run_ns = self.spec.run_ns;
        match self.rec.clone() {
            Some(rec) => rec.time("simos.run", || self.k.run_for(run_ns))?,
            None => self.k.run_for(run_ns)?,
        }
        self.acc.steps += self.k.process(self.pid).map_or(0, |p| p.work_done) - before;
        self.k.freeze_process(self.pid)?;
        times.run_s = t.elapsed().as_secs_f64();

        report.attempted += 1;
        let (saved, host_s) = self.checkpoint()?;
        times.ckpt_s = host_s;
        times.ckpt_bytes = saved.memory_bytes;
        times.virt_ckpt_ns = saved.virt_ns;
        let mut facts = RoundFacts {
            saved,
            restored: None,
            lost: Vec::new(),
        };

        if restart {
            report.attempted += 1;
            facts.lost = self.draw_lost();
            let set = self.probes.set.clone();
            for &i in &facts.lost {
                set.as_ref()
                    .expect("degraded stack has nodes")
                    .node(i)
                    .fail();
            }
            let restored = self.restart();
            for &i in &facts.lost {
                set.as_ref()
                    .expect("degraded stack has nodes")
                    .node(i)
                    .repair();
            }
            let (r, host_s, k2, pid2) = restored?;
            times.restart_s = Some(host_s);
            times.restart_bytes = r.pages * PAGE_SIZE;
            times.virt_restart_ns = r.virt_ns;
            facts.restored = Some(r);
            let live = self
                .k
                .process(self.pid)
                .ok_or(SimError::NoSuchProcess(self.pid))?;
            let back = k2.process(pid2).ok_or(SimError::NoSuchProcess(pid2))?;
            if let Err(what) = same_guest(live, back) {
                report.fail(format!("restart is not bit-identical: {what}"));
            }
        }

        let t = Instant::now();
        self.k.thaw_process(self.pid)?;
        times.run_s += t.elapsed().as_secs_f64();
        Ok((times, facts))
    }

    /// One cycle of the op list. A failed operation is counted and the
    /// cycle goes on with the next round.
    fn cycle(&mut self, report: &mut Report) -> (Cycle, Vec<RoundFacts>) {
        let mut c = Cycle::default();
        let mut facts = Vec::new();
        for r in 1..=self.spec.rounds {
            if let Some(rec) = &self.rec {
                rec.set_round(self.acc.ckpts as u32 + 1);
            }
            match self.round(r % self.spec.restart_every == 0, report) {
                Ok((t, f)) => {
                    c.timed_s += t.run_s + t.ckpt_s + t.restart_s.unwrap_or(0.0);
                    c.work += 1.0;
                    c.op_ms.push(t.ckpt_s * 1e3);
                    c.ckpt_s += t.ckpt_s;
                    c.ckpt_bytes += t.ckpt_bytes;
                    c.virt_ckpt_ns += t.virt_ckpt_ns;
                    c.ckpts += 1;
                    if let Some(s) = t.restart_s {
                        c.restart_ms.push(s * 1e3);
                        c.restart_bytes += t.restart_bytes;
                        c.virt_restart_ns += t.virt_restart_ns;
                    }
                    facts.push(f);
                }
                Err(e) => {
                    report.fail(format!("round {r}: {e}"));
                    // Leave the guest runnable for the next round.
                    let _ = self.k.thaw_process(self.pid);
                }
            }
        }
        (c, facts)
    }

    /// Replay the sealed kernels on what the last checkpoint of the cycle
    /// handled. The guest has not run since, so its pages are the pages
    /// the capture read.
    fn replay(&mut self, replays: &mut Replays, lost: &[usize]) {
        let Some(encoded) = &self.last_encoded else {
            return;
        };
        let p = self.k.process(self.pid).expect("guest is alive");
        let pages: Vec<(u64, Vec<u8>)> = self
            .last_pages
            .iter()
            .filter_map(|pn| p.mem.page_data(*pn).map(|d| (*pn, d.to_vec())))
            .collect();
        replays.pages(&self.pool, &pages);
        replays.image_bytes(encoded);
        match self.spec.stack {
            Stack::Raw => {}
            Stack::DedupRepl => {
                replays.cas(&self.pool, self.prev_encoded.as_deref(), encoded);
                if let Some(seam) = &self.probes.repl {
                    replays.replica(&seam.sampler.take());
                    seam.sampler.arm();
                }
            }
            Stack::RsDegraded => replays.erasure(&self.pool, RS_K, RS_M, encoded, lost),
        }
    }
}

/// Guest data pages of a process: the working set the benchmark sized.
fn guest_bytes(p: &Pcb) -> u64 {
    p.mem.resident_count() as u64 * PAGE_SIZE
}

/// Bit-compare two guests: same progress, same resident pages, same bytes.
pub fn same_guest(live: &Pcb, back: &Pcb) -> Result<(), String> {
    if live.work_done != back.work_done {
        return Err(format!(
            "work_done {} != {}",
            back.work_done, live.work_done
        ));
    }
    let (a, b): (Vec<u64>, Vec<u64>) = (
        live.mem.resident_pages().collect(),
        back.mem.resident_pages().collect(),
    );
    if a != b {
        return Err(format!(
            "{} resident pages restored, {} live",
            b.len(),
            a.len()
        ));
    }
    for pn in a {
        if live.mem.page_data(pn) != back.mem.page_data(pn) {
            return Err(format!("page {pn} differs"));
        }
    }
    Ok(())
}

pub fn run(name: &str, opts: &Opts) -> Option<Report> {
    let spec = spec(name, opts.smoke)?;
    let mut report = Report::new(name, opts.seed, opts.trace, opts.workers);
    let outcome = if opts.trace {
        run_traced(spec, opts, &mut report)
    } else {
        run_untraced(spec, opts, &mut report)
    };
    if let Err(e) = outcome {
        report.attempted += 1;
        report.fail(format!("set-up failed: {e}"));
    }
    Some(report)
}

fn run_untraced(spec: Spec, opts: &Opts, report: &mut Report) -> SimResult<()> {
    let mut w = timed_setup(report, || World::build(spec, opts, None, false))?;
    let ingested0 = w.ingested();
    let mut raw_commit = 0u64;
    let cycles = run_cycles(opts, |_| {
        let (c, facts) = w.cycle(report);
        raw_commit += facts.iter().map(|f| f.saved.encoded_bytes).sum::<u64>();
        c
    });
    summarize(report, &cycles);
    let guest: u64 = cycles.iter().map(|c| c.ckpt_bytes).sum();
    let committed = match (w.ingested(), ingested0) {
        (Some(now), Some(then)) => now - then,
        _ => raw_commit,
    };
    report.set(
        "commit_bytes_per_guest_byte",
        committed as f64 / guest.max(1) as f64,
    );
    let working_set = guest_bytes(w.k.process(w.pid).ok_or(SimError::NoSuchProcess(w.pid))?);
    report.set(
        "stored_bytes_per_guest_byte",
        w.used_bytes() as f64 / working_set as f64,
    );
    report.set("count.state_digest32", w.state_digest());
    Ok(())
}

fn run_traced(spec: Spec, opts: &Opts, report: &mut Report) -> SimResult<()> {
    let rec = Arc::new(Recorder::new());
    let mut engine = World::build(spec, opts, None, false)?;
    let mut traced = World::build(spec, opts, Some(rec.clone()), true)?;
    if let Some(seam) = &traced.probes.repl {
        seam.sampler.arm();
    }
    // Readings that must cover the timed phase only.
    let warm_spans = rec.spans().len();
    traced.acc = TraceAcc::default();
    let pool0 = traced.pool.stats();
    let kstats0 = traced.k.stats.clone();
    let mem0 = traced.k.process(traced.pid).map(|p| p.mem.stats.clone());
    let ingested0 = traced.ingested();
    let cas0 = traced.probes.cas.as_ref().map(|h| h.snapshot());
    let top0 = traced.probes.top.as_ref().map(|c| c.get());
    let tier0 = |seam: Option<&Arc<SeamCounts>>| seam.map_or(Counts::default(), |c| c.get());
    let repl_counts0 = tier0(traced.probes.repl.as_ref().map(|s| &s.counts));
    let ec_counts0 = tier0(traced.probes.ec.as_ref().map(|s| &s.counts));
    let repl0 = traced
        .probes
        .repl
        .as_ref()
        .map(|s| s.store.lock().expect("store").stats());
    let ec0 = traced
        .probes
        .ec
        .as_ref()
        .map(|s| s.store.lock().expect("store").stats());
    let digests0 = digests_computed(&traced.probes);

    let mut replays = Replays::default();
    let (mut engine_cycles, mut traced_cycles) = (Vec::new(), Vec::new());
    let cycles = run_cycles(opts, |i| {
        let (ec, ef) = engine.cycle(report);
        let (tc, tf) = traced.cycle(report);
        report.attempted += 1;
        if ef != tf {
            report.fail(format!(
                "cycle {i}: the unrolled pipeline and the engine diverged: {:?} vs {:?}",
                tf.iter().zip(&ef).find(|(a, b)| a != b),
                (tf.len(), ef.len())
            ));
        }
        let lost = tf.last().map(|f| f.lost.clone()).unwrap_or_default();
        traced.replay(&mut replays, &lost);
        let both = Cycle {
            timed_s: ec.timed_s + tc.timed_s,
            work: 1.0,
            ..Cycle::default()
        };
        engine_cycles.push(ec);
        traced_cycles.push(tc);
        both
    });
    report.cycles = cycles.len() as u64;
    let n = cycles.len() as f64;

    let spans = rec.spans();
    let totals = crate::span::totals(&spans, warm_spans);
    let t = |name: &str| totals.get(name).copied().unwrap_or_default();
    let per_cycle = |v: f64| v / n;
    let mib_per_s = |bytes: u64, secs: f64| {
        if secs > 0.0 {
            bytes as f64 / MIB / secs
        } else {
            0.0
        }
    };
    let acc = &traced.acc;

    // simos
    let run = t("simos.run");
    report.set("simos.run_s", per_cycle(run.total_s));
    report.set(
        "simos.guest_steps_per_s",
        acc.steps as f64 / run.total_s.max(1e-12),
    );
    let k = traced.k.stats.delta_since(&kstats0);
    report.set("simos.page_faults", per_cycle(k.page_faults as f64));
    report.set(
        "simos.context_switches",
        per_cycle(k.context_switches as f64),
    );
    if let (Some(m0), Some(p)) = (mem0, traced.k.process(traced.pid)) {
        let m = &p.mem.stats;
        let (hits, misses) = (m.tlb_hits - m0.tlb_hits, m.tlb_misses - m0.tlb_misses);
        report.set(
            "simos.tlb_hit_share",
            hits as f64 / (hits + misses).max(1) as f64,
        );
        report.set(
            "simos.tlb_flushes",
            per_cycle((m.tlb_flushes - m0.tlb_flushes) as f64),
        );
    }

    // ckpt-core
    report.set("core.collect_s", per_cycle(t("core.collect").self_s));
    report.set("core.collect_pages", per_cycle(acc.collect_pages as f64));
    report.set("core.capture_s", per_cycle(t("core.capture").self_s));
    report.set(
        "core.capture_mib_per_s",
        mib_per_s(acc.memory_bytes, t("core.capture").total_s),
    );
    report.set("core.rearm_s", per_cycle(t("core.rearm").self_s));
    report.set("core.restore_s", per_cycle(t("core.restore").self_s));
    report.set(
        "core.restore_mib_per_s",
        mib_per_s(acc.restored_bytes, t("core.restore").total_s),
    );

    // ckpt-image
    report.set(
        "image.compress_mib_per_s",
        replays.compress_pool.mib_per_s(),
    );
    report.set("image.encode_s", per_cycle(t("image.encode").self_s));
    report.set(
        "image.encode_mib_per_s",
        mib_per_s(acc.encoded_bytes, t("image.encode").total_s),
    );
    report.set("image.crc_mib_per_s", replays.crc.mib_per_s());
    report.set("image.decode_s", per_cycle(t("image.decode").self_s));
    report.set(
        "image.decode_mib_per_s",
        mib_per_s(acc.loaded_bytes, t("image.decode").total_s),
    );
    report.set(
        "image.reconstruct_s",
        per_cycle(t("image.reconstruct").self_s),
    );
    report.set(
        "image.chain_len_mean",
        acc.chain_len as f64 / acc.restarts.max(1) as f64,
    );
    report.set(
        "image.compress_ratio",
        acc.memory_bytes as f64 / acc.encoded_bytes.max(1) as f64,
    );
    report.set(
        "image.zero_page_share",
        acc.zero_pages as f64 / acc.pages.max(1) as f64,
    );

    // ckpt-par
    let pool = traced.pool.stats().since(pool0);
    report.set("par.tasks", per_cycle(pool.tasks as f64));
    report.set("par.steals", per_cycle(pool.steals as f64));
    report.set("par.merge_stalls", per_cycle(pool.merge_stalls as f64));
    report.set(
        "par.steal_share",
        pool.steals as f64 / pool.tasks.max(1) as f64,
    );
    if replays.compress_pool.secs > 0.0 {
        report.set(
            "par.encode_speedup",
            replays.compress_serial.secs / replays.compress_pool.secs,
        );
    }

    // The engine's storage seam.
    report.set("storage.store_s", per_cycle(t("storage.store").total_s));
    report.set("storage.load_s", per_cycle(t("storage.load").total_s));
    report.set("storage.prune_s", per_cycle(t("storage.prune").total_s));
    if let (Some(c), Some(c0)) = (&traced.probes.top, top0) {
        let c = c.get().since(c0);
        report.set("storage.store_ops", per_cycle(c.store_ops as f64));
        report.set("storage.load_ops", per_cycle(c.load_ops as f64));
        report.set("storage.delete_ops", per_cycle(c.delete_ops as f64));
        report.set("storage.list_ops", per_cycle(c.list_ops as f64));
    }
    report.set("storage.used_bytes_end", traced.used_bytes() as f64);
    let committed = match (traced.ingested(), ingested0) {
        (Some(now), Some(then)) => now - then,
        _ => acc.encoded_bytes,
    };
    report.set(
        "storage.commit_bytes_per_guest_byte",
        committed as f64 / acc.memory_bytes.max(1) as f64,
    );
    if let Some(p) = traced.k.process(traced.pid) {
        report.set(
            "storage.stored_bytes_per_guest_byte",
            traced.used_bytes() as f64 / guest_bytes(p) as f64,
        );
    }

    // ckpt-cas
    if let (Some(h), Some(c0)) = (&traced.probes.cas, cas0) {
        let c = h.snapshot();
        report.set("cas.store_self_s", per_cycle(t("cas.store").self_s));
        report.set("cas.load_self_s", per_cycle(t("cas.load").self_s));
        report.set("cas.chunk_mib_per_s", replays.chunk.mib_per_s());
        report.set("cas.delta_mib_per_s", replays.delta.mib_per_s());
        let (logical, physical) = (
            c.logical_bytes - c0.logical_bytes,
            c.physical_bytes - c0.physical_bytes,
        );
        report.set("cas.dedup_ratio", logical as f64 / physical.max(1) as f64);
        let (novel, dup) = (
            c.novel_chunks - c0.novel_chunks,
            c.dup_chunks - c0.dup_chunks,
        );
        report.set(
            "cas.dup_chunk_share",
            dup as f64 / (novel + dup).max(1) as f64,
        );
        report.set("cas.novel_chunks", per_cycle(novel as f64));
        report.set(
            "cas.delta_objects",
            per_cycle((c.delta_objects - c0.delta_objects) as f64),
        );
        report.set(
            "cas.gc_chunks",
            per_cycle((c.gc_chunks - c0.gc_chunks) as f64),
        );
    }

    // ckpt-replica
    if let (Some(seam), Some(s0)) = (&traced.probes.repl, repl0) {
        let s = seam.store.lock().expect("store").stats();
        let c = seam.counts.get().since(repl_counts0);
        let (store, load) = (t("replica.store"), t("replica.load"));
        report.set("replica.store_self_s", per_cycle(store.self_s));
        report.set(
            "replica.store_mib_per_s",
            mib_per_s(c.store_bytes, store.total_s),
        );
        report.set("replica.load_self_s", per_cycle(load.self_s));
        report.set(
            "replica.load_mib_per_s",
            mib_per_s(c.load_bytes, load.total_s),
        );
        report.set(
            "replica.commits",
            per_cycle((s.commits - s0.commits) as f64),
        );
        report.set(
            "replica.ack_cycles",
            per_cycle((s.ack_cycles - s0.ack_cycles) as f64),
        );
        report.set(
            "replica.retries",
            per_cycle((s.retries - s0.retries) as f64),
        );
        report.set(
            "replica.repairs",
            per_cycle((s.repairs - s0.repairs) as f64),
        );
        report.set(
            "replica.quorum_losses",
            per_cycle((s.quorum_losses - s0.quorum_losses) as f64),
        );
        let objects = c.store_ops;
        report.set(
            "replica.batch_objects_per_ack",
            objects as f64 / (s.ack_cycles - s0.ack_cycles).max(1) as f64,
        );
    }
    if let (Some(now), Some(then)) = (traced.ingested(), ingested0) {
        report.set("replica.bytes_ingested", per_cycle((now - then) as f64));
        report.set(
            "replica.digests_computed",
            per_cycle((digests_computed(&traced.probes) - digests0) as f64),
        );
        report.set("replica.node_put_mib_per_s", replays.node_put.mib_per_s());
    }
    report.set("replica.fnv_mib_per_s", replays.fnv.mib_per_s());

    // ckpt-ec
    if let (Some(seam), Some(s0)) = (&traced.probes.ec, ec0) {
        let s = seam.store.lock().expect("store").stats();
        let c = seam.counts.get().since(ec_counts0);
        let (store, load) = (t("ec.store"), t("ec.load"));
        report.set("ec.store_self_s", per_cycle(store.self_s));
        report.set(
            "ec.store_mib_per_s",
            mib_per_s(c.store_bytes, store.total_s),
        );
        report.set("ec.load_self_s", per_cycle(load.self_s));
        report.set("ec.load_mib_per_s", mib_per_s(c.load_bytes, load.total_s));
        report.set("ec.rs_encode_mib_per_s", replays.rs_encode.mib_per_s());
        report.set(
            "ec.rs_reconstruct_mib_per_s",
            replays.rs_reconstruct.mib_per_s(),
        );
        report.set("ec.gf_mul_acc_mib_per_s", replays.gf_mul_acc.mib_per_s());
        // Of one commit's time inside the tier, the share that is not the
        // Reed-Solomon split + encode the replay times on the same bytes.
        let per_commit = store.self_s / store.count.max(1) as f64;
        let encode = replays.rs_encode.secs / replays.rs_encode_commits.max(1) as f64;
        report.set("ec.plumbing_share", 1.0 - encode / per_commit.max(1e-12));
        report.set("ec.commits", per_cycle((s.commits - s0.commits) as f64));
        report.set("ec.decodes", per_cycle((s.decodes - s0.decodes) as f64));
        report.set("ec.repairs", per_cycle((s.repairs - s0.repairs) as f64));
        report.set(
            "ec.shard_losses",
            per_cycle((s.shard_losses - s0.shard_losses) as f64),
        );
        report.set(
            "ec.quorum_losses",
            per_cycle((s.quorum_losses - s0.quorum_losses) as f64),
        );
        report.set(
            "ec.ack_cycles",
            per_cycle((s.ack_cycles - s0.ack_cycles) as f64),
        );
    }

    // The untraced engine on the same ops, and what tracing cost.
    let sum = |cs: &[Cycle], f: &dyn Fn(&Cycle) -> f64| cs.iter().map(f).sum::<f64>();
    let op_s = |c: &Cycle| c.ckpt_s + c.restart_ms.iter().sum::<f64>() / 1e3;
    let (engine_ops, traced_ops) = (sum(&engine_cycles, &op_s), sum(&traced_cycles, &op_s));
    let ckpt_bytes: u64 = engine_cycles.iter().map(|c| c.ckpt_bytes).sum();
    report.set(
        "engine.ckpt_mib_per_s",
        mib_per_s(ckpt_bytes, sum(&engine_cycles, &|c| c.ckpt_s)),
    );
    let restart_ms: Vec<f64> = engine_cycles
        .iter()
        .flat_map(|c| c.restart_ms.clone())
        .collect();
    let restart_bytes: u64 = engine_cycles.iter().map(|c| c.restart_bytes).sum();
    report.set(
        "engine.restart_mib_per_s",
        mib_per_s(restart_bytes, restart_ms.iter().sum::<f64>() / 1e3),
    );
    let ckpt_ms: Vec<f64> = engine_cycles.iter().flat_map(|c| c.op_ms.clone()).collect();
    report.set("engine.ckpt_ms_p50", median(&ckpt_ms));
    report.set("engine.restart_ms_p50", median(&restart_ms));
    let ckpts: u64 = engine_cycles.iter().map(|c| c.ckpts).sum();
    let virt_ckpt: u64 = engine_cycles.iter().map(|c| c.virt_ckpt_ns).sum();
    let virt_restart: u64 = engine_cycles.iter().map(|c| c.virt_restart_ns).sum();
    report.set("virt.ckpt_ms", virt_ckpt as f64 / ckpts.max(1) as f64 / 1e6);
    report.set(
        "virt.restart_ms",
        virt_restart as f64 / restart_ms.len().max(1) as f64 / 1e6,
    );
    report.set("trace.overhead_share", traced_ops / engine_ops - 1.0);
    let ops: NameTotal = ["op.ckpt", "op.restart"]
        .iter()
        .fold(NameTotal::default(), |a, n| {
            let x = t(n);
            NameTotal {
                count: a.count + x.count,
                total_s: a.total_s + x.total_s,
                self_s: a.self_s + x.self_s,
            }
        });
    report.set(
        "trace.unattributed_share",
        ops.self_s / ops.total_s.max(1e-12),
    );
    // What the engine call costs beyond the spans of the unrolled steps.
    report.set(
        "core.engine_residual_s",
        per_cycle(engine_ops - (ops.total_s - ops.self_s)),
    );

    report.set("count.state_digest32", traced.state_digest());
    dump_spans(report, &rec, opts);
    Ok(())
}

fn digests_computed(p: &Probes) -> u64 {
    p.set
        .as_ref()
        .map_or(0, |s| s.nodes().iter().map(|n| n.digests_computed()).sum())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(trace: bool) -> Opts {
        Opts {
            seed: 3,
            seconds: 0.0,
            cycles: Some(2),
            workers: 2,
            smoke: true,
            trace,
            spans_out: None,
        }
    }

    #[test]
    fn unrolled_pipeline_nests_the_tiers_under_the_storage_seam() {
        let rec = Arc::new(Recorder::new());
        let spec = spec("incr_dedup_repl", true).unwrap();
        let mut w = World::build(spec, &smoke(true), Some(rec.clone()), true).unwrap();
        let mut report = Report::default();
        let (c, facts) = w.cycle(&mut report);
        assert!(report.correct(), "{:?}", report.failures);
        assert_eq!(c.ckpts, 10);
        assert_eq!(facts.iter().filter(|f| f.restored.is_some()).count(), 2);
        assert!(
            facts.iter().any(|f| f.saved.incremental),
            "incremental images were taken"
        );
        let t = crate::span::totals(&rec.spans(), 0);
        for name in [
            "op.ckpt",
            "core.collect",
            "core.capture",
            "image.encode",
            "storage.store",
            "cas.store",
            "replica.store",
            "core.rearm",
            "op.restart",
            "storage.load",
            "cas.load",
            "replica.load",
            "image.decode",
            "image.reconstruct",
            "core.restore",
        ] {
            assert!(t.contains_key(name), "no {name} span");
        }
        let spans = rec.spans();
        let parent_name = |s: &crate::span::Span| s.parent.map(|p| spans[p as usize].name);
        assert!(spans
            .iter()
            .filter(|s| s.name == "replica.store")
            .all(|s| parent_name(s) == Some("cas.store")));
        assert!(spans
            .iter()
            .filter(|s| s.name == "cas.store")
            .all(|s| parent_name(s) == Some("storage.store")));
    }

    #[test]
    fn a_corrupted_restore_is_caught_by_the_bit_compare() {
        let spec = spec("full_raw", true).unwrap();
        let mut w = World::build(spec, &smoke(false), None, false).unwrap();
        w.k.freeze_process(w.pid).unwrap();
        w.checkpoint().unwrap();
        let (_, _, mut k2, pid2) = w.restart().unwrap();
        let live = w.k.process(w.pid).unwrap();
        assert_eq!(same_guest(live, k2.process(pid2).unwrap()), Ok(()));
        k2.mem_write(pid2, simos::apps::ARRAY_BASE + 8, &[0xff])
            .unwrap();
        let err = same_guest(live, k2.process(pid2).unwrap()).unwrap_err();
        assert!(err.contains("differs"), "{err}");
    }
}
