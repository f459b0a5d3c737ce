//! # crashpoint — the exhaustive restart-correctness matrix
//!
//! Drives every mechanism family through a checkpointed run with exactly
//! one fault injected at one named [`simos::faultpoint`] site, then
//! restarts on a fresh kernel and classifies the cell:
//!
//! * **Restarted** — the recovered guest state is *bit-for-bit* identical
//!   to a deterministic standalone replay of the application to the same
//!   step (verified over the whole guest data span, byte by byte).
//! * **Detected** — the restart was rejected up front with a typed error
//!   (no image, CRC/format validation, volatile medium lost the data).
//! * **Skipped** — the fault kind does not apply at this site (a torn
//!   write needs a byte stream); logged, never silently dropped.
//! * **Violation** — anything else: a restart that "succeeded" with wrong
//!   state, or a failure while an intact image demonstrably survives.
//!   A correct implementation produces **zero** of these.
//!
//! The site list itself is not hard-coded: a recording pass runs the same
//! scenario fault-free and enumerates every site the mechanism actually
//! visits (checkpoint phases, per-store byte offsets, chain segments,
//! restart), so new instrumentation is swept in automatically.
//!
//! Three things are identical in every cell of a column, and the column
//! computes each of them once (`Column`):
//!
//! * The world up to the first checkpoint (boot, spawn, the first run
//!   window) visits no fault site, so the recording pass boots it, asserts
//!   that nothing was recorded, and keeps it as the column's template.
//! * A cell's run is the fault-free recording's up to its armed site. So a
//!   process-level column also keeps the world at its latest request
//!   boundary so far — before the second checkpoint request (kernel with
//!   its modules, storage, mechanism) or before the restart (storage,
//!   mechanism, the guest's progress; the restart boots a fresh kernel) —
//!   with the site visit counts it was taken at. The first cell to reach a
//!   boundary with its fault not yet fired leaves its world there for the
//!   cells after it, and a cell starts from a fork of that world if its
//!   site lies after it ([`FaultHandle::start_from`] keeps `@n` counting
//!   the whole run), else from the template. Sites are armed in recording
//!   order, so a column keeps two worlds at most and forks each once per
//!   cell. A world is only ever kept *between* two requests, where nothing
//!   is mid-call: a request's call stack is not state a fork can copy, and
//!   every site a request visits lies after the boundary before it.
//! * The replay a restarted cell is compared with depends only on the step
//!   it restored to, so the column's [`ReplayOracle`] keeps the few
//!   reference spans its cells ask for.
//!
//! None of them shortens a check: each cell still runs its own scenario
//! from its fork point under its own fault handle, and compares every byte.

use crate::mechanism::hibernate::{SoftwareSuspend, SuspendMode};
use crate::mechanism::{family, Mechanism};
use crate::tracker::TrackerKind;
use crate::{fork_storage, RestartOutcome, RestorePid, SharedStorage};
use ckpt_cas::{ChunkParams, DedupStore};
use ckpt_ec::ErasureStore;
use ckpt_replica::{ReplicaConfig, ReplicatedStore, Striped, StripedReplicaSet};
use ckpt_storage::{
    load_latest_valid_chain, FaultInjectStore, LocalDisk, NvramStore, RamStore, RemoteServer,
    RemoteStore, StableStorage, StorageClass, SwapStore,
};
use parking_lot::Mutex;
use simos::apps::{self, AppParams, GuestMemIo, NativeKind, VecMem};
use simos::cost::CostModel;
use simos::faultpoint::{Fault, FaultHandle, VisitCounts};
use simos::types::{Pid, SimResult};
use simos::{Kernel, Relink};
use std::fmt;
use std::sync::Arc;

/// Job name under which every matrix scenario stores its images.
const JOB: &str = "crashmx";

/// Virtual run window before the first checkpoint.
const RUN1_NS: u64 = 3_000_000;
/// Virtual run window between the two checkpoints.
const RUN2_NS: u64 = 1_500_000;
/// Virtual run window after the second checkpoint.
const RUN3_NS: u64 = 500_000;

/// One tier of the matrix: every one of its mechanisms crossed with every
/// one of its backends.
#[derive(Debug, Clone, Copy)]
pub struct Tier {
    pub name: &'static str,
    pub mechanisms: &'static [&'static str],
    /// Backend stack labels, in the grammar [`run_config`] builds stores
    /// from: a raw medium's [`StorageClass::label`], `replicated(N,w)`,
    /// `striped(KxN,w)`, `rs(k,m)`, or `dedup(<any of these>)`.
    pub backends: &'static [&'static str],
}

impl Tier {
    /// The tier's columns, mechanism-major.
    pub fn configs(&self) -> impl Iterator<Item = MatrixConfig> + '_ {
        self.mechanisms.iter().flat_map(|&mechanism| {
            self.backends
                .iter()
                .map(move |&backend| MatrixConfig { mechanism, backend })
        })
    }
}

/// The tiers [`run_config`] drives, in matrix order; a new tier is one row
/// here. The storage tiers are carried by one engine-driven mechanism
/// family: the layers above the `StableStorage` trait are orthogonal to
/// the stack underneath and already swept against every raw medium by the
/// first tier. (The live-migration tier lives in `ckpt-cluster::migmatrix`,
/// which also assembles the full matrix.)
pub const TIERS: [Tier; 6] = [
    // The six process-level mechanism families driven through
    // [`Mechanism`], over every node-failure-relevant medium.
    Tier {
        name: "process",
        mechanisms: &[
            "user-level",
            "syscall",
            "kernel-signal",
            "kernel-thread",
            "fork-concurrent",
            "hardware",
        ],
        backends: &["local-disk", "remote", "nvram"],
    },
    // Whole-machine hibernation: its survivability question is
    // power-down, so the volatile RAM medium is included.
    Tier {
        name: "hibernate",
        mechanisms: &["hibernate"],
        backends: &["swap", "ram"],
    },
    // Quorum replication: every per-replica fault site × every fault kind
    // × both (N, w) configurations.
    Tier {
        name: "replicated",
        mechanisms: &["syscall"],
        backends: &["replicated(3,2)", "replicated(5,3)"],
    },
    // Content-addressed dedup: the chunk store's own fault sites
    // (per-chunk stores/loads, the chunks-durable-but-manifest-not
    // `cas/commit` instant) over both a single-copy and a quorum-replicated
    // backing store. A torn manifest or missing chunk must always end in
    // typed detection or a bit-exact fallback restart.
    Tier {
        name: "dedup",
        mechanisms: &["syscall"],
        backends: &["dedup(local-disk)", "dedup(replicated(3,2))"],
    },
    // Striped quorum pools: every store on a [`ckpt_replica::StripedStore`]
    // routes through the framed multi-object batch-commit path (as a batch
    // of one), so the recording pass enumerates the per-stripe
    // `stripe<j>/r<i>/batch` sites the sharded control plane's deferred
    // shard commits hit. A fault on one stripe must never corrupt keys
    // living on another.
    Tier {
        name: "striped",
        mechanisms: &["syscall"],
        backends: &["striped(2x3,2)"],
    },
    // Erasure-coded shard groups: every store on an
    // [`ckpt_ec::ErasureStore`] travels the framed shard batch-commit path
    // (as a batch of one), so the recording pass enumerates the per-shard
    // `ec/s<i>/{batch,load}` sites — one shard node each. Losing a shard
    // mid-commit must end in a quorum rollback or a reconstructing
    // restart; both geometries keep `m ≥ 1` spare shards over the
    // single-node losses the matrix injects.
    Tier {
        name: "erasure",
        mechanisms: &["syscall"],
        backends: &["rs(4,2)", "rs(8,3)"],
    },
];

/// Total cell count of the full matrix, including the live-migration
/// tier contributed by `ckpt-cluster::migmatrix` (the driver test sweeps
/// both). The matrix is deterministic (the site list comes from a
/// fault-free recording pass per column, no sampling), so the count is a
/// fixed artifact of the instrumentation: any new site, backend, or
/// mechanism changes it, and the driver test asserts and prints this
/// constant so the documented number can never drift from the code again.
pub const MATRIX_CELLS: usize = 2250;

/// One (mechanism × backend) column of the matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatrixConfig {
    pub mechanism: &'static str,
    pub backend: &'static str,
}

/// Every column [`run_config`] drives, tier by tier.
pub fn all_configs() -> Vec<MatrixConfig> {
    TIERS.iter().flat_map(Tier::configs).collect()
}

/// How one cell ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CellOutcome {
    /// Restart succeeded and the guest state matched the deterministic
    /// replay bit-for-bit. `lost_steps` is the rollback distance.
    Restarted { lost_steps: u64 },
    /// Restart (or the interrupted checkpoint) failed with a typed error
    /// and no intact image survived — correct detection.
    Detected { error: String },
    /// Fault kind inapplicable at this site (logged, not hidden).
    Skipped { reason: String },
    /// Silent corruption or a refused restart despite an intact image.
    Violation { what: String },
}

/// One cell of the matrix: a (mechanism, backend, site, fault) tuple and
/// its classified outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatrixCell {
    pub mechanism: &'static str,
    pub backend: &'static str,
    pub site: String,
    pub fault: &'static str,
    pub outcome: CellOutcome,
}

impl fmt::Display for MatrixCell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{} {} [{}]: {:?}",
            self.mechanism, self.backend, self.site, self.fault, self.outcome
        )
    }
}

/// The whole matrix run.
#[derive(Debug, Clone, Default)]
pub struct MatrixReport {
    pub cells: Vec<MatrixCell>,
}

impl MatrixReport {
    pub fn restarted(&self) -> usize {
        self.count(|o| matches!(o, CellOutcome::Restarted { .. }))
    }
    pub fn detected(&self) -> usize {
        self.count(|o| matches!(o, CellOutcome::Detected { .. }))
    }
    pub fn skipped(&self) -> usize {
        self.count(|o| matches!(o, CellOutcome::Skipped { .. }))
    }
    pub fn violations(&self) -> Vec<&MatrixCell> {
        self.cells
            .iter()
            .filter(|c| matches!(c.outcome, CellOutcome::Violation { .. }))
            .collect()
    }
    fn count(&self, f: impl Fn(&CellOutcome) -> bool) -> usize {
        self.cells.iter().filter(|c| f(&c.outcome)).count()
    }

    /// Per-(mechanism × backend) outcome counts, in matrix order.
    pub fn by_config(&self) -> Vec<(MatrixConfig, [usize; 4])> {
        let mut out: Vec<(MatrixConfig, [usize; 4])> = Vec::new();
        for c in &self.cells {
            let key = MatrixConfig {
                mechanism: c.mechanism,
                backend: c.backend,
            };
            let slot = match out.iter_mut().find(|(k, _)| *k == key) {
                Some((_, counts)) => counts,
                None => {
                    out.push((key, [0; 4]));
                    &mut out.last_mut().expect("just pushed").1
                }
            };
            let idx = match c.outcome {
                CellOutcome::Restarted { .. } => 0,
                CellOutcome::Detected { .. } => 1,
                CellOutcome::Skipped { .. } => 2,
                CellOutcome::Violation { .. } => 3,
            };
            slot[idx] += 1;
        }
        out
    }
}

// ---------------------------------------------------------------------
// Bit-exact verification against a deterministic replay
// ---------------------------------------------------------------------

/// The application parameters every matrix scenario uses. Small enough to
/// keep the full sweep fast, sparse enough to exercise incremental chains.
pub fn app_params() -> AppParams {
    AppParams {
        mem_bytes: 96 * 1024,
        total_steps: u64::MAX,
        writes_per_step: 8,
        write_stride_pages: 4,
        seed: 0xc4a5_0517,
    }
}

/// The most reference spans a [`ReplayOracle`] keeps alive.
const ORACLE_SPANS: usize = 4;

/// A column's deterministic reference: the application replayed standalone
/// (no kernel) against a [`VecMem`] holding the guest data span (header
/// page + working array). Every restarted cell is compared with the span at
/// its restored step; the cells of a column restore to a handful of
/// distinct steps, so the oracle keeps the spans it has computed (at most
/// four, ≈100 KiB each, least recently used dropped first) and
/// reaches a new step by running on from the nearest earlier one. Only the
/// recomputation of an identical reference is shared between cells: each
/// still compares every byte. External matrix tiers verify through the same
/// oracle, not a weaker local copy.
pub struct ReplayOracle {
    params: AppParams,
    /// `(step, span at that step)`, least recently used first.
    spans: Vec<(u64, VecMem)>,
}

impl ReplayOracle {
    pub fn new(params: AppParams) -> Self {
        ReplayOracle {
            params,
            spans: Vec::new(),
        }
    }

    /// The reference span after exactly `target` steps.
    fn span_at(&mut self, target: u64) -> Result<&VecMem, String> {
        let nearest = (0..self.spans.len())
            .filter(|&i| self.spans[i].0 <= target)
            .max_by_key(|&i| self.spans[i].0);
        let start = match nearest {
            Some(i) if self.spans[i].0 == target => self.spans.remove(i).1,
            Some(i) => self.spans[i].1.clone(),
            None => {
                let mut mem = VecMem::new(&self.params);
                apps::init(NativeKind::SparseRandom, &self.params, &mut mem);
                mem
            }
        };
        let span = self.replay_on(start, target)?;
        if self.spans.len() == ORACLE_SPANS {
            self.spans.remove(0);
        }
        self.spans.push((target, span));
        Ok(&self.spans.last().expect("just pushed").1)
    }

    /// Step `mem` forward until it has run exactly `target` steps.
    fn replay_on(&self, mut mem: VecMem, target: u64) -> Result<VecMem, String> {
        while mem.r64(apps::H_STEP) < target {
            let out = apps::step(NativeKind::SparseRandom, &self.params, &mut mem);
            if out.finished {
                return Err(format!(
                    "replay finished at step {} before target {target}",
                    mem.r64(apps::H_STEP)
                ));
            }
        }
        if mem.r64(apps::H_STEP) != target {
            return Err(format!(
                "replay overshot target {target}: at {}",
                mem.r64(apps::H_STEP)
            ));
        }
        Ok(mem)
    }

    /// Verify a restored process against the deterministic replay: every
    /// byte of the guest data span must equal the replay's (absent pages
    /// read as zero, exactly like the replay's untouched bytes), and the
    /// step counter in guest memory must agree with `work_done`. Returns
    /// the restored step count on success.
    pub fn verify_restored(&mut self, k: &Kernel, pid: Pid) -> Result<u64, String> {
        let p = k
            .process(pid)
            .ok_or_else(|| "restored process missing".to_string())?;
        let step = p.work_done;
        let want = &self.span_at(step)?.bytes;
        let mut got = vec![0u8; want.len()];
        p.mem.peek(apps::HEADER_BASE, &mut got);
        let at = (apps::H_STEP - apps::HEADER_BASE) as usize;
        let mem_step = u64::from_le_bytes(got[at..at + 8].try_into().expect("8-byte slice"));
        if mem_step != step {
            return Err(format!(
                "restored step counter {mem_step} disagrees with work_done {step}"
            ));
        }
        if let Some(at) = got.iter().zip(want).position(|(g, w)| g != w) {
            return Err(format!(
                "guest byte at {:#x} is {:#04x}, replay has {:#04x} at step {step}",
                apps::HEADER_BASE + at as u64,
                got[at],
                want[at]
            ));
        }
        Ok(step)
    }
}

// ---------------------------------------------------------------------
// Scenario construction
// ---------------------------------------------------------------------

/// The numeric arguments of a `name(a,b)` / `name(AxB,c)` stack label.
fn numeric_args<const N: usize>(label: &str, name: &str) -> Option<[usize; N]> {
    let args = label
        .strip_prefix(name)?
        .strip_prefix('(')?
        .strip_suffix(')')?;
    let parsed: Result<Vec<usize>, _> = args.split([',', 'x']).map(str::parse).collect();
    parsed.ok()?.try_into().ok()
}

/// Build the store a backend label of [`TIERS`] names, with every layer
/// consulting `faults`. Each stack is wrapped in a [`FaultInjectStore`], so
/// the client-side `storage/<label>/{store,load}` sites are swept on top of
/// the sites the stack visits itself. Panics on a label no tier names.
pub fn injected_store(label: &str, faults: &FaultHandle) -> Box<dyn StableStorage> {
    const CAPACITY: u64 = 1 << 30;
    if let Some(inner) = label
        .strip_prefix("dedup(")
        .and_then(|l| l.strip_suffix(')'))
    {
        // The dedup layer sits above a fault-injected backing store, so
        // every per-chunk store/load on it is a site — plus the layer's
        // own `cas/commit` site between the chunks landing and the
        // manifest write. Coarse chunking bounds the per-image chunk
        // count, keeping the added matrix columns small.
        return Box::new(
            DedupStore::new(injected_store(inner, faults))
                .with_params(ChunkParams::COARSE)
                .with_faults(faults.clone()),
        );
    }
    let store: Box<dyn StableStorage> = if let Some([n, w]) = numeric_args(label, "replicated") {
        // Consults the handle itself at `replica/r<i>/{store,load}`.
        Box::new(ReplicatedStore::fresh(n, w).with_faults(faults.clone()))
    } else if let Some([k, n, w]) = numeric_args(label, "striped") {
        let pool = Striped::new(StripedReplicaSet::new(k, n), |set| {
            ReplicatedStore::new(set, ReplicaConfig::new(n, w))
        });
        Box::new(pool.with_faults(faults.clone()))
    } else if let Some([k, m]) = numeric_args(label, "rs") {
        Box::new(ErasureStore::fresh(k, m).with_faults(faults.clone()))
    } else if label == StorageClass::LocalDisk.label() {
        Box::new(LocalDisk::new(CAPACITY))
    } else if label == StorageClass::Remote.label() {
        Box::new(RemoteStore::new(RemoteServer::new(CAPACITY)))
    } else if label == StorageClass::Nvram.label() {
        Box::new(NvramStore::new(CAPACITY))
    } else if label == StorageClass::Swap.label() {
        Box::new(SwapStore::new(CAPACITY))
    } else if label == StorageClass::Ram.label() {
        Box::new(RamStore::new(CAPACITY))
    } else {
        panic!("unknown backend {label}")
    };
    Box::new(FaultInjectStore::new(store, faults.clone()))
}

/// The family's canonical row of the mechanism table, tracking pages at
/// its own level so the second checkpoint is an incremental one.
fn build_mechanism(which: &str, storage: SharedStorage) -> Box<dyn Mechanism> {
    let tracker = match which {
        "user-level" => TrackerKind::UserPage,
        _ => TrackerKind::KernelPage,
    };
    family(which).build(JOB, storage, tracker)
}

/// A kernel whose sites consult `faults`, running `guests` copies of the
/// matrix application for the first run window. Nothing here depends on the
/// cell, so only a column's recording pass boots; see [`Column::boot`].
fn booted_kernel(faults: &FaultHandle, guests: usize) -> (Kernel, Vec<Pid>) {
    let mut k = fresh_kernel(faults);
    let pids = (0..guests)
        .map(|_| {
            k.spawn_native(NativeKind::SparseRandom, app_params())
                .expect("spawn")
        })
        .collect();
    let _ = k.run_for(RUN1_NS);
    (k, pids)
}

fn fresh_kernel(faults: &FaultHandle) -> Kernel {
    let mut k = Kernel::new(CostModel::circa_2005());
    k.set_faults(faults.clone());
    k
}

/// What a column computes once and every one of its cells shares: the
/// world as the first run window leaves it, its latest world at a later
/// request boundary, and the replay oracle. A cell starts from a fork of
/// one of the worlds, which is indistinguishable from running there again
/// from boot.
struct Column {
    template: Kernel,
    pids: Vec<Pid>,
    /// A process-level column's world at its latest request boundary past
    /// the template that a cell has reached with its fault unfired. A
    /// hibernation column keeps none: its only request is its first.
    snapshot: Option<Snapshot>,
    oracle: ReplayOracle,
}

/// A process-level world at a request boundary of the fault-free run: how
/// many of the scenario's requests lie behind it, and the site visit counts
/// at that instant.
struct Snapshot {
    requests: usize,
    counts: VisitCounts,
    world: World,
}

impl Column {
    /// Boot the column's world under its recording handle. The template is
    /// only sound while no site lies before it: a site visited during boot
    /// would be swept from worlds that never visit it, with every later
    /// `@n` of its group off by one.
    fn boot(recording: &FaultHandle, guests: usize) -> Column {
        let (template, pids) = booted_kernel(recording, guests);
        let early = recording.sites();
        assert!(
            early.is_empty(),
            "fault sites visited before the fork point: {early:?}"
        );
        Column {
            template,
            pids,
            snapshot: None,
            oracle: ReplayOracle::new(app_params()),
        }
    }

    /// The booted world, consulting `faults` from here on.
    fn world(&self, faults: &FaultHandle) -> Kernel {
        self.template
            .fork_world(&mut Relink::new(faults.clone()))
            .expect("no module is loaded at boot")
    }

    /// Where a process-level cell under `faults` starts: a fork of the
    /// snapshot if its armed site lies after it, with the number of the
    /// scenario's requests behind it, else the booted world.
    fn start(&self, cfg: MatrixConfig, faults: &FaultHandle) -> (World, usize) {
        match &self.snapshot {
            Some(s) if faults.start_from(&s.counts).is_ok() => (s.world.fork(faults), s.requests),
            _ => (World::boot(cfg, self, faults), 0),
        }
    }
}

/// A process-level scenario between two of its requests: the kernel (gone
/// once the scenario has stopped: the restart boots a fresh one), the
/// mechanism with the store it shares with its module, and how far the
/// guest had got when the scenario stopped.
struct World {
    k: Option<Kernel>,
    mech: Box<dyn Mechanism>,
    storage: SharedStorage,
    work_at_end: u64,
}

impl World {
    /// The booted world, with a fresh stack and an unprepared mechanism,
    /// all consulting `faults`.
    fn boot(cfg: MatrixConfig, column: &Column, faults: &FaultHandle) -> World {
        let storage: SharedStorage = Arc::new(Mutex::new(injected_store(cfg.backend, faults)));
        World {
            k: Some(column.world(faults)),
            mech: build_mechanism(cfg.mechanism, storage.clone()),
            storage,
            work_at_end: 0,
        }
    }

    /// A copy consulting `faults` that shares nothing with this world: one
    /// [`Relink`] for its three parts, so the forked mechanism and the
    /// forked module it installed share one forked store.
    fn fork(&self, faults: &FaultHandle) -> World {
        let relink = &mut Relink::new(faults.clone());
        let world = (|| {
            SimResult::Ok(World {
                k: self.k.as_ref().map(|k| k.fork_world(relink)).transpose()?,
                mech: self.mech.fork(relink)?,
                storage: fork_storage(&self.storage, relink)?,
                work_at_end: self.work_at_end,
            })
        })();
        world.unwrap_or_else(|e| panic!("every process-level world forks: {e}"))
    }

    /// The scenario is over: note the guest's progress, drop the kernel.
    fn stop(&mut self, pid: Pid) {
        if let Some(k) = self.k.take() {
            self.work_at_end = k.process(pid).map(|p| p.work_done).unwrap_or(0);
        }
    }
}

/// The process-level scenario's requests: prepare and checkpoint, then run;
/// checkpoint again, then run. [`run_mech_scenario`] keeps to their order.
const REQUESTS: usize = 2;

/// The `n`-th request of the process-level scenario, and the run window
/// after it.
fn request(n: usize, w: &mut World, pid: Pid) -> SimResult<()> {
    let k = w.k.as_mut().expect("a request runs on a live kernel");
    if n == 0 {
        w.mech.prepare(k, pid)?;
    }
    w.mech.checkpoint(k, pid)?;
    let _ = k.run_for([RUN2_NS, RUN3_NS][n]);
    Ok(())
}

/// Run the scenario on from its `from`-th request, calling `boundary` with
/// the number of requests behind the world before each later request and
/// once the last has run. Any injected fault surfaces as the returned
/// error; the scenario then stops where a real crash would have stopped it.
fn run_mech_scenario(
    w: &mut World,
    pid: Pid,
    from: usize,
    mut boundary: impl FnMut(usize, &World),
) -> Option<String> {
    for n in from..REQUESTS {
        if n > from {
            boundary(n, w);
        }
        if let Err(e) = request(n, w, pid) {
            w.stop(pid);
            return Some(e.to_string());
        }
    }
    w.stop(pid);
    boundary(REQUESTS, w);
    None
}

/// Does a decodable full chain for the scenario's process survive in
/// storage? Used to validate `Detected` cells: refusing to restart while an
/// intact image exists would be a violation, not a detection.
fn intact_chain_exists(storage: &SharedStorage, pid: Pid) -> bool {
    let cost = CostModel::circa_2005();
    let s = storage.lock();
    load_latest_valid_chain(&**s, JOB, pid.0, &cost, |_| Ok(())).is_ok()
}

// ---------------------------------------------------------------------
// Recovery and cell classification
// ---------------------------------------------------------------------

/// What every column does once its scenario has stopped: the machine
/// `event` hits the storage (the crashed node is repaired or replaced),
/// then `attempt` recovers on a fresh kernel. If the armed fault fires
/// *during* that recovery, recovering from it is simply one more attempt.
/// Returns the kernel the last attempt ran on, and its result.
fn recover<R>(
    faults: &FaultHandle,
    storage: &SharedStorage,
    event: impl FnOnce(&mut dyn StableStorage),
    mut attempt: impl FnMut(&mut Kernel) -> SimResult<R>,
) -> (Kernel, SimResult<R>) {
    let fired_before_recovery = faults.fired().is_some();
    faults.clear_crash();
    event(&mut **storage.lock());
    let mut k = fresh_kernel(faults);
    let mut result = attempt(&mut k);
    if result.is_err() && !fired_before_recovery && faults.fired().is_some() {
        faults.clear_crash();
        k = fresh_kernel(faults);
        result = attempt(&mut k);
    }
    (k, result)
}

/// Process-level recovery: the node fails (losing volatile media) and is
/// repaired before the mechanism restarts its target.
fn restart_after_node_loss(
    end: &mut World,
    faults: &FaultHandle,
) -> (Kernel, SimResult<RestartOutcome>) {
    let node_loss = |s: &mut dyn StableStorage| {
        s.on_node_failure();
        s.on_node_repair();
    };
    recover(faults, &end.storage, node_loss, |k| {
        end.mech.restart(k, RestorePid::Fresh)
    })
}

/// One cell of a process-level column: the scenario under `faults` from
/// the column's snapshot for it, node loss, restart, classification.
fn mech_cell(cfg: MatrixConfig, column: &mut Column, faults: &FaultHandle) -> CellOutcome {
    let (world, from) = column.start(cfg, faults);
    run_mech_cell(column, world, from, faults)
}

/// The rest of a process-level cell from `world`, which has the scenario's
/// first `from` requests behind it.
fn run_mech_cell(
    column: &mut Column,
    mut world: World,
    from: usize,
    faults: &FaultHandle,
) -> CellOutcome {
    let pid = column.pids[0];
    let snapshot = &mut column.snapshot;
    let ckpt_error = run_mech_scenario(&mut world, pid, from, |requests, w| {
        // Nothing has fired, so this is the fault-free run's world: keep
        // it for the cells after this one, which arm later sites.
        let newer = snapshot.as_ref().is_none_or(|s| s.requests < requests);
        if newer && !faults.is_off() && faults.fired().is_none() {
            *snapshot = Some(Snapshot {
                requests,
                counts: faults.visit_counts(),
                world: w.fork(&FaultHandle::disabled()),
            });
        }
    });
    let (k, restart) = restart_after_node_loss(&mut world, faults);
    match restart {
        Ok(r) => match column.oracle.verify_restored(&k, r.pid) {
            Ok(step) if step != r.work_done => CellOutcome::Violation {
                what: format!(
                    "restart reported work {} but guest is at step {step}",
                    r.work_done
                ),
            },
            Ok(step) => CellOutcome::Restarted {
                lost_steps: world.work_at_end.saturating_sub(step),
            },
            Err(what) => CellOutcome::Violation { what },
        },
        Err(e) if intact_chain_exists(&world.storage, pid) => CellOutcome::Violation {
            what: format!("restart refused ({e}) but an intact chain survives"),
        },
        Err(e) => CellOutcome::Detected {
            error: ckpt_error.unwrap_or_else(|| e.to_string()),
        },
    }
}

/// A process-level column's recording pass: the scenario fault-free from
/// boot through node loss and restart, so the restart-side sites are swept
/// too.
fn record_mech_column(cfg: MatrixConfig, faults: &FaultHandle) -> Column {
    let column = Column::boot(faults, 1);
    let mut world = World::boot(cfg, &column, faults);
    let _ = run_mech_scenario(&mut world, column.pids[0], 0, |_, _| {});
    let _ = restart_after_node_loss(&mut world, faults);
    column
}

// ---------------------------------------------------------------------
// Hibernation (whole-machine) scenarios
// ---------------------------------------------------------------------

struct HibernateEnd {
    susp: SoftwareSuspend,
    storage: SharedStorage,
    /// Each hibernated process's work counter when the machine stopped.
    works: Vec<u64>,
    hib_error: Option<String>,
}

fn run_hibernate_scenario(backend: &str, column: &Column, faults: &FaultHandle) -> HibernateEnd {
    let mut k = column.world(faults);
    let storage: SharedStorage = Arc::new(Mutex::new(injected_store(backend, faults)));
    let mut susp = SoftwareSuspend::new(storage.clone());
    let mode = if backend == StorageClass::Ram.label() {
        SuspendMode::ToRam
    } else {
        SuspendMode::ToDisk
    };
    let hib_error = susp.hibernate(&mut k, mode).err().map(|e| e.to_string());
    let works = column
        .pids
        .iter()
        .map(|p| k.process(*p).map(|p| p.work_done).unwrap_or(0))
        .collect();
    HibernateEnd {
        susp,
        storage,
        works,
        hib_error,
    }
}

/// How many decodable swsusp images exist in storage right now?
fn decodable_hibernate_images(storage: &SharedStorage) -> usize {
    let cost = CostModel::circa_2005();
    let s = storage.lock();
    s.list()
        .iter()
        .filter(|key| key.starts_with("swsusp/"))
        .filter(|key| {
            s.load(key, &cost)
                .ok()
                .and_then(|(bytes, _)| ckpt_image::decode(&bytes).ok())
                .is_some()
        })
        .count()
}

/// One cell of a hibernation column: suspend under `faults`, the
/// power-down that follows a hibernation (that is its entire purpose),
/// resume, classification.
fn hibernate_cell(cfg: MatrixConfig, column: &mut Column, faults: &FaultHandle) -> CellOutcome {
    let mut end = run_hibernate_scenario(cfg.backend, column, faults);
    let (k, resume) = recover(
        faults,
        &end.storage,
        |s| s.on_power_down(),
        |k| end.susp.resume(k),
    );
    match resume {
        Ok(restored) => {
            let mut lost = 0u64;
            for (i, pid) in restored.iter().enumerate() {
                match column.oracle.verify_restored(&k, *pid) {
                    Ok(step) => {
                        lost += end.works.get(i).copied().unwrap_or(0).saturating_sub(step);
                    }
                    Err(what) => return CellOutcome::Violation { what },
                }
            }
            if restored.len() != end.works.len() {
                return CellOutcome::Violation {
                    what: format!(
                        "resume brought back {} of {} processes",
                        restored.len(),
                        end.works.len()
                    ),
                };
            }
            CellOutcome::Restarted { lost_steps: lost }
        }
        // A refusal is only a valid detection if the committed image set
        // did not in fact survive intact.
        Err(e)
            if end.hib_error.is_none()
                && decodable_hibernate_images(&end.storage) == end.works.len() =>
        {
            CellOutcome::Violation {
                what: format!("resume refused ({e}) but all hibernation images survive"),
            }
        }
        Err(e) => CellOutcome::Detected {
            error: end.hib_error.unwrap_or_else(|| e.to_string()),
        },
    }
}

// ---------------------------------------------------------------------
// The matrix
// ---------------------------------------------------------------------

/// Sweep one column. `record` runs the column's scenario fault-free under
/// a recording handle, enumerating every site it visits, and returns what
/// the column computes once (its booted world, its replay oracle); `cell`
/// then runs once per (site × applicable fault kind) with that state, under
/// a handle armed with exactly that fault, and classifies how the run
/// ended. Cells come in the order the recording visited their sites, so a
/// cell may leave state for the ones after it (a process-level column's
/// world at a request boundary). Every tier of the matrix — including the
/// ones living in other crates — is this loop.
pub fn sweep<C>(
    cfg: MatrixConfig,
    record: impl FnOnce(&FaultHandle) -> C,
    mut cell: impl FnMut(&mut C, &FaultHandle) -> CellOutcome,
) -> Vec<MatrixCell> {
    let recording = FaultHandle::recording();
    let mut column = record(&recording);
    let mut cells = Vec::new();
    for site in recording.sites() {
        let torn = Fault::TornWrite {
            keep_bytes: site.bytes / 2,
        };
        for fault in [Fault::FailStop, Fault::Transient, torn] {
            // A torn write only applies where a byte stream is written.
            let outcome = if fault == torn && site.bytes < 2 {
                CellOutcome::Skipped {
                    reason: format!("{} requires a byte stream at this site", fault.label()),
                }
            } else {
                cell(&mut column, &FaultHandle::armed(&site.name, fault))
            };
            cells.push(MatrixCell {
                mechanism: cfg.mechanism,
                backend: cfg.backend,
                site: site.name.clone(),
                fault: fault.label(),
                outcome,
            });
        }
    }
    cells
}

/// A column's two passes, as [`sweep`] takes them: the fault-free run its
/// sites are recorded from, and the run of one cell.
type Passes = (
    fn(MatrixConfig, &FaultHandle) -> Column,
    fn(MatrixConfig, &mut Column, &FaultHandle) -> CellOutcome,
);

/// A hibernation column sweeps the suspend side only, every cell from
/// boot; a process-level column also sweeps its restart side.
fn column_passes(cfg: MatrixConfig) -> Passes {
    match cfg.mechanism {
        "hibernate" => (
            |cfg, faults| {
                let column = Column::boot(faults, 2);
                run_hibernate_scenario(cfg.backend, &column, faults);
                column
            },
            hibernate_cell,
        ),
        _ => (record_mech_column, mech_cell),
    }
}

/// Run every cell of one column of [`TIERS`].
pub fn run_config(cfg: MatrixConfig) -> Vec<MatrixCell> {
    let (record, cell) = column_passes(cfg);
    sweep(
        cfg,
        |faults| record(cfg, faults),
        |column, faults| cell(cfg, column, faults),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use simos::faultpoint::SiteRecord;

    fn column(mechanism: &'static str, backend: &'static str) -> MatrixConfig {
        MatrixConfig { mechanism, backend }
    }

    /// The column's recording pass: its shared state and recorded sites.
    fn recorded(cfg: MatrixConfig) -> (Column, Vec<SiteRecord>) {
        let faults = FaultHandle::recording();
        let column = column_passes(cfg).0(cfg, &faults);
        (column, faults.sites())
    }

    /// The from-zero replay the oracle replaced, kept as its reference.
    fn replay_to(params: &AppParams, target_step: u64) -> VecMem {
        let mut mem = VecMem::new(params);
        apps::init(NativeKind::SparseRandom, params, &mut mem);
        while mem.r64(apps::H_STEP) < target_step {
            apps::step(NativeKind::SparseRandom, params, &mut mem);
        }
        mem
    }

    #[test]
    fn replay_is_step_exact_and_deterministic() {
        let p = app_params();
        let a = replay_to(&p, 50).bytes;
        let b = replay_to(&p, 50).bytes;
        let c = replay_to(&p, 51).bytes;
        assert_eq!(a, b);
        assert_ne!(a, c, "one extra step must change the guest bytes");
    }

    #[test]
    fn the_oracle_agrees_with_a_from_zero_replay_and_stays_bounded() {
        let p = app_params();
        let sequences: [&[u64]; 5] = [
            &[0, 10, 250, 251, 900],                 // ascending
            &[900, 251, 250, 10, 0],                 // descending
            &[40, 40, 7, 40, 7, 7],                  // repeated
            &[5, 300, 20, 310, 35, 320, 50, 330, 5], // more than capacity
            &[100, 1, 100, 2, 100, 3, 100, 4, 100],  // a hot step survives
        ];
        for steps in sequences {
            let mut oracle = ReplayOracle::new(p.clone());
            for &step in steps {
                let got = oracle.span_at(step).unwrap().bytes.clone();
                assert_eq!(got, replay_to(&p, step).bytes, "{steps:?} at {step}");
                assert!(oracle.spans.len() <= ORACLE_SPANS, "{steps:?} at {step}");
                assert_eq!(oracle.spans.last().unwrap().0, step);
            }
        }
        let mut finite = ReplayOracle::new(AppParams {
            total_steps: 3,
            ..p
        });
        assert!(finite.span_at(2).is_ok());
        let past_the_end = finite.span_at(9).map(|_| ()).unwrap_err();
        assert!(past_the_end.contains("finished at step 3"), "{past_the_end}");
    }

    #[test]
    #[should_panic(expected = "fault sites visited before the fork point")]
    fn a_site_before_the_fork_point_trips_the_template_assert() {
        let faults = FaultHandle::recording();
        faults.check("boot/early", 0);
        Column::boot(&faults, 1);
    }

    #[test]
    fn stack_labels_parse_by_one_grammar() {
        assert_eq!(numeric_args("replicated(5,3)", "replicated"), Some([5, 3]));
        assert_eq!(numeric_args("striped(2x3,2)", "striped"), Some([2, 3, 2]));
        assert_eq!(numeric_args("rs(8,3)", "rs"), Some([8, 3]));
        assert_eq!(numeric_args::<2>("rs(8,3,1)", "rs"), None);
        assert_eq!(numeric_args::<2>("rs(8,x)", "rs"), None);
        assert_eq!(numeric_args::<2>("replicated(3,2)", "rs"), None);
        // Every label the tiers name builds, and reports itself under it.
        for cfg in all_configs() {
            let store = injected_store(cfg.backend, &FaultHandle::disabled());
            assert_eq!(store.label(), cfg.backend);
        }
    }

    #[test]
    fn clean_scenario_restarts_bit_exact_on_every_column() {
        // No fault armed at all: every column's cell ends in a restart,
        // except where the column's own crash event destroys the image.
        let faults = FaultHandle::disabled();
        for cfg in all_configs() {
            let (mut col, _) = recorded(cfg);
            let out = column_passes(cfg).1(cfg, &mut col, &faults);
            // Power-down keeps the swap image and loses the RAM one.
            if cfg == column("hibernate", "swap") {
                assert_eq!(out, CellOutcome::Restarted { lost_steps: 0 });
                continue;
            }
            if cfg == column("hibernate", "ram") {
                assert!(matches!(out, CellOutcome::Detected { .. }), "{out:?}");
                continue;
            }
            assert!(
                matches!(out, CellOutcome::Restarted { .. }),
                "{cfg:?}: {out:?}"
            );
            // From boot, a process-level column checkpoints twice without
            // error, and its restart reports the step the guest is
            // bit-exact at.
            let mut world = World::boot(cfg, &col, &faults);
            let error = run_mech_scenario(&mut world, col.pids[0], 0, |_, _| {});
            assert!(error.is_none(), "{cfg:?}: {error:?}");
            let (k2, restart) = restart_after_node_loss(&mut world, &faults);
            let r = restart.unwrap();
            let step = col.oracle.verify_restored(&k2, r.pid).unwrap();
            assert_eq!(step, r.work_done, "{cfg:?}");
            assert!(world.work_at_end >= step, "{cfg:?}");
        }
    }

    #[test]
    fn a_cell_from_a_snapshot_ends_as_the_same_cell_from_boot() {
        // Every site of the column under every fault kind: started from the
        // column's snapshot for its site, a cell classifies exactly as it
        // does when it replays the whole prefix under its armed handle.
        for cfg in [
            column("syscall", "dedup(local-disk)"),
            column("kernel-thread", "remote"),
        ] {
            let (mut col, sites) = recorded(cfg);
            let mut starts = std::collections::BTreeSet::new();
            for site in &sites {
                let torn = Fault::TornWrite {
                    keep_bytes: site.bytes / 2,
                };
                for fault in [Fault::FailStop, Fault::Transient, torn] {
                    let faults = FaultHandle::armed(&site.name, fault);
                    let (world, from) = col.start(cfg, &faults);
                    starts.insert(from);
                    let forked = run_mech_cell(&mut col, world, from, &faults);
                    let faults = FaultHandle::armed(&site.name, fault);
                    let booted = World::boot(cfg, &col, &faults);
                    let replayed = run_mech_cell(&mut col, booted, 0, &faults);
                    let at = format!("{cfg:?} {} [{}]", site.name, fault.label());
                    assert_eq!(forked, replayed, "{at}");
                }
            }
            assert_eq!(starts.into_iter().collect::<Vec<_>>(), [0, 1, 2], "{cfg:?}");
        }
    }

    #[test]
    fn a_flipped_guest_byte_is_named_by_address() {
        let faults = FaultHandle::disabled();
        let cfg = column("syscall", "local-disk");
        let (mut col, _) = recorded(cfg);
        let (mut world, from) = col.start(cfg, &faults);
        run_mech_scenario(&mut world, col.pids[0], from, |_, _| {});
        let (mut k2, restart) = restart_after_node_loss(&mut world, &faults);
        let pid = restart.unwrap().pid;
        let addr = apps::ARRAY_BASE + 3 * simos::cost::PAGE_SIZE + 17;
        let mem = &mut k2.process_mut(pid).unwrap().mem;
        let mut byte = [0u8];
        mem.peek(addr, &mut byte);
        mem.poke(addr, &[byte[0] ^ 0x40]);
        let err = col.oracle.verify_restored(&k2, pid).unwrap_err();
        assert!(err.contains(&format!("{addr:#x}")), "{err}");
    }

    #[test]
    fn recording_enumerates_each_tiers_sites() {
        // (column, (prefix, infix) of sites that must be recorded, stem of
        // the byte-carrying sites torn writes split)
        type Row = (
            MatrixConfig,
            &'static [(&'static str, &'static str)],
            &'static str,
        );
        let table: [Row; 4] = [
            (
                column("syscall", "local-disk"),
                &[
                    ("", "mech/epckpt/freeze"),
                    ("", "mech/epckpt/capture"),
                    ("", "mech/epckpt/store"),
                    ("", "mech/epckpt/walk"), // incremental second checkpoint
                    ("", "storage/local-disk/store"),
                    ("", "storage/local-disk/load"),
                    ("", "chain/seg"),
                    ("", "mech/restart/restore"),
                ],
                "/store",
            ),
            (
                // The manifest-commit site, and the inner backend's store
                // sites showing through the decorator.
                column("syscall", "dedup(local-disk)"),
                &[("", "cas/commit"), ("", "storage/local-disk/store")],
                "/store",
            ),
            (
                // Stores on the striped pool travel the framed batch path,
                // so the per-stripe admission sites are recorded.
                column("syscall", "striped(2x3,2)"),
                &[("stripe", "/batch")],
                "/batch",
            ),
            (
                // Every shard node's admission site — all k + m.
                column("syscall", "rs(4,2)"),
                &[
                    ("ec/s0/batch", ""),
                    ("ec/s1/batch", ""),
                    ("ec/s2/batch", ""),
                    ("ec/s3/batch", ""),
                    ("ec/s4/batch", ""),
                    ("ec/s5/batch", ""),
                ],
                "/batch",
            ),
        ];
        for (cfg, required, sized) in table {
            let (_, sites) = recorded(cfg);
            let names: Vec<&str> = sites.iter().map(|s| s.name.as_str()).collect();
            for (prefix, infix) in required {
                assert!(
                    names
                        .iter()
                        .any(|n| n.starts_with(prefix) && n.contains(infix)),
                    "{cfg:?}: no {prefix}…{infix} site in {names:?}"
                );
            }
            assert!(
                sites.iter().any(|s| s.name.contains(sized) && s.bytes > 0),
                "{cfg:?}: {sized} sites must carry byte sizes"
            );
        }
    }

    #[test]
    fn fail_stop_mid_store_falls_back_to_previous_checkpoint() {
        let cfg = column("syscall", "local-disk");
        let (mut col, sites) = recorded(cfg);
        let store2 = sites
            .iter()
            .find(|s| s.name.contains("storage/local-disk/store@2"))
            .expect("second store site recorded");
        let torn = Fault::TornWrite {
            keep_bytes: store2.bytes / 2,
        };
        let out = mech_cell(cfg, &mut col, &FaultHandle::armed(&store2.name, torn));
        match out {
            CellOutcome::Restarted { lost_steps } => {
                assert!(lost_steps > 0, "rolled back past the torn checkpoint")
            }
            other => panic!("expected fallback restart, got {other:?}"),
        }
    }

    #[test]
    fn dedup_torn_cas_commit_never_silently_corrupts() {
        // A torn manifest write must surface as typed detection or a
        // bit-exact restart from an older chain — never a Violation.
        let cfg = column("syscall", "dedup(local-disk)");
        let (mut col, sites) = recorded(cfg);
        let commits: Vec<_> = sites
            .iter()
            .filter(|s| s.name.contains("cas/commit"))
            .collect();
        assert!(!commits.is_empty());
        let mut saw_restart = false;
        for site in commits {
            let torn = Fault::TornWrite {
                keep_bytes: (site.bytes / 2).max(1),
            };
            let out = mech_cell(cfg, &mut col, &FaultHandle::armed(&site.name, torn));
            match out {
                CellOutcome::Restarted { .. } => saw_restart = true,
                CellOutcome::Detected { .. } => {}
                other => panic!("{}: silent corruption path: {other:?}", site.name),
            }
        }
        assert!(
            saw_restart,
            "at least one torn commit must fall back to an older chain"
        );
    }

    #[test]
    fn lost_shard_mid_commit_still_restarts_by_reconstruction() {
        // Fail-stop one shard node during the second checkpoint's batch
        // commit: the write quorum (k + ceil(m/2) = 5 of 6) still holds,
        // and the restart must reconstruct bit-exact around the lost
        // shard — the cell the whole coding tier exists for.
        let cfg = column("syscall", "rs(4,2)");
        let (mut col, sites) = recorded(cfg);
        let batch2 = sites
            .iter()
            .find(|s| s.name.starts_with("ec/s0/batch@2"))
            .expect("second-checkpoint shard batch site recorded");
        let out = mech_cell(cfg, &mut col, &FaultHandle::armed(&batch2.name, Fault::FailStop));
        assert!(
            matches!(out, CellOutcome::Restarted { .. }),
            "expected a reconstructing restart, got {out:?}"
        );
    }

    #[test]
    fn fail_stop_before_any_store_is_detected() {
        let cfg = column("syscall", "local-disk");
        let faults = FaultHandle::armed("mech/epckpt/capture@1", Fault::FailStop);
        let out = mech_cell(cfg, &mut recorded(cfg).0, &faults);
        assert!(
            matches!(out, CellOutcome::Detected { .. }),
            "no image was ever written, restart must be refused: {out:?}"
        );
    }
}
