//! Live migration: iterative pre-copy and post-copy with a
//! dirty-rate-adaptive cutover.
//!
//! [`crate::migrate()`] is freeze-copy-resume: the guest is down for the
//! whole image transfer. This module implements the two hypervisor-era
//! alternatives around the same cutover (`crate::migrate::Cutover`: freeze
//! bracket, wire faultpoints, landing, retiring the source):
//!
//! * **Iterative pre-copy** ([`migrate_precopy`]) — ship a full snapshot
//!   while the guest keeps running, then repeatedly ship only the pages
//!   dirtied during the previous transfer round (the
//!   [`ckpt_core::tracker`] dirty bitmap). Freeze only when the projected
//!   residual transfer fits [`LiveMigConfig::downtime_budget_ns`]. Guests
//!   that dirty faster than the link drains would never converge; the
//!   divergence detector then either reports a typed
//!   [`SimError::CutoverDiverged`] or — with
//!   [`LiveMigConfig::autoconverge`] on — throttles the guest's duty
//!   cycle (QEMU's auto-converge) until the dirty rate drops below link
//!   bandwidth. Throttle stalls are guest *slowdown*, not downtime: the
//!   reported `downtime_ns` covers only the final freeze → resume window,
//!   which is how live-migration downtime is conventionally quoted.
//!
//! * **Post-copy** ([`migrate_postcopy`]) — freeze, ship only the header
//!   page, resume on the target immediately, then demand-fault the
//!   missing pages over the network *ordered by fault address* while a
//!   background prefetcher drains the rest lowest-address-first. The
//!   demand stream is predicted exactly by replaying the deterministic
//!   guest app on a mirror copy of the frozen source memory, so a page is
//!   always delivered before the target first touches it (the
//!   fault-ordering invariant; see DESIGN.md §10). If the source dies
//!   before the residual set drains, the half-populated target is
//!   discarded and the typed [`SimError::SourceLostMidMigration`] is
//!   returned.
//!
//! Fault-injection sites (`livemig/round`, `livemig/cutover`,
//! `livemig/demand-fault`) model the wire: fail-stop and torn frames kill
//! the source (the receiver discards a torn frame — never applies it), a
//! transient costs one retransmission.

use crate::cluster::Cluster;
use crate::migrate::{Cutover, Landing};
use crate::node::NodeId;
use ckpt_core::capture::{capture_image, CaptureOptions, PageSelection, RestorePid};
use ckpt_core::tracker::{Tracker, TrackerKind};
use ckpt_image::{CheckpointImage, PageRecord};
use simos::apps::{self, AppParams, GuestMemIo, NativeKind, VecMem, HEADER_BASE};
use simos::cost::PAGE_SIZE;
use simos::pcb::ProgramSpec;
use simos::trace::ClusterEvent;
use simos::types::{Pid, SimError, SimResult};
use simos::Kernel;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Tuning knobs for both live-migration strategies.
#[derive(Debug, Clone)]
pub struct LiveMigConfig {
    /// Pre-copy cutover fires when the projected residual transfer
    /// (latency + dirty bytes at wire rate) fits this budget.
    pub downtime_budget_ns: u64,
    /// Hard cap on pre-copy rounds; exceeding it is divergence.
    pub max_rounds: u32,
    /// QEMU-style auto-converge: on a divergence streak, halve the guest
    /// duty cycle instead of aborting. Off → [`SimError::CutoverDiverged`]
    /// is returned instead, which the crash tier and property tests rely on.
    pub autoconverge: bool,
    /// Worker pool for parallel page encoding (byte-identical at every
    /// width, like every other capture path).
    pub encode_pool: Option<Arc<ckpt_par::Pool>>,
}

impl Default for LiveMigConfig {
    fn default() -> Self {
        LiveMigConfig {
            downtime_budget_ns: 250_000,
            max_rounds: 30,
            autoconverge: true,
            encode_pool: None,
        }
    }
}

/// Consecutive pre-copy rounds without residual shrink before the
/// divergence detector acts (throttle or typed error).
const PATIENCE: u32 = 3;
/// Duty-cycle floor (percent). 0 permits full stop-and-copy rounds in the
/// final mile, which guarantees convergence for any guest.
const MIN_DUTY_PCT: u32 = 0;
/// Pages per background prefetch batch (post-copy).
const PREFETCH_BATCH: usize = 16;
/// Guest steps the target runs between demand-fault service points
/// (post-copy).
const QUANTUM_STEPS: u64 = 32;

/// One pre-copy round as observed by the cutover policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundStat {
    pub round: u32,
    /// Pages shipped this round (round 0 ships the full resident set).
    pub pages: u64,
    /// Encoded bytes shipped this round.
    pub bytes: u64,
    /// Transfer window the round occupied on the wire.
    pub window_ns: u64,
    /// Guest duty cycle during the round (percent).
    pub duty_pct: u32,
    /// Pages found dirty *after* the round's window (what the policy
    /// projected the next round from).
    pub dirty_after: u64,
}

/// Result of a completed iterative pre-copy migration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PreCopyReport {
    pub from: NodeId,
    pub to: NodeId,
    pub new_pid: Pid,
    /// Rounds shipped before cutover (round 0 included).
    pub rounds: u32,
    /// Encoded bytes shipped while the guest ran.
    pub bytes_precopy: u64,
    /// Encoded bytes shipped inside the frozen cutover window.
    pub bytes_cutover: u64,
    /// Residual dirty pages shipped at cutover.
    pub residual_pages: u64,
    /// Freeze → resume: source freeze + residual capture/transfer +
    /// target receive/restore.
    pub downtime_ns: u64,
    /// Final guest duty cycle the throttle settled on (100 = never
    /// throttled).
    pub final_duty_pct: u32,
    pub round_log: Vec<RoundStat>,
}

impl PreCopyReport {
    /// Total encoded bytes that crossed the wire.
    pub fn bytes_total(&self) -> u64 {
        self.bytes_precopy + self.bytes_cutover
    }
}

/// Result of a completed post-copy migration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PostCopyReport {
    pub from: NodeId,
    pub to: NodeId,
    pub new_pid: Pid,
    /// Freeze → first target resume (the minimal-image window).
    pub downtime_ns: u64,
    /// Pages the source still owed when the target first resumed.
    pub residual_pages: u64,
    /// Pages delivered on the demand path (target stalled for these).
    pub demand_pages: u64,
    /// Demand service batches (each ordered by fault address).
    pub demand_batches: u64,
    /// Pages delivered by the background prefetcher (no target stall).
    pub prefetch_pages: u64,
    /// Encoded bytes of the minimal image shipped inside the downtime
    /// window.
    pub bytes_minimal: u64,
}

impl PostCopyReport {
    /// Total pages that crossed the wire after resume.
    pub fn residual_moved(&self) -> u64 {
        self.demand_pages + self.prefetch_pages
    }
}

/// Advance the cluster by `window_ns` with the migrating guest running
/// only `duty_pct`% of it (the auto-converge throttle). At 100 the guest
/// runs the whole window; at 0 the round is stop-and-copy.
fn advance_with_duty(
    m: &mut Cutover<'_>,
    window_ns: u64,
    duty_pct: u32,
    residual_pages: u64,
) -> SimResult<()> {
    let pid = m.pid;
    let run = window_ns.saturating_mul(duty_pct as u64) / 100;
    if run > 0 {
        m.cluster.advance(run);
    }
    if window_ns > run {
        m.source(residual_pages)?.freeze_process(pid)?;
        m.cluster.advance(window_ns - run);
        m.source(residual_pages)?.thaw_process(pid)?;
    }
    m.source(residual_pages).map(|_| ())
}

/// Send the frozen source's cutover frame: the `livemig/cutover`
/// faultpoint, then every crossing's wire time on the source's clock,
/// whose reading is returned.
fn send_cutover(m: &mut Cutover<'_>, bytes: u64, residual_pages: u64) -> SimResult<u64> {
    let crossings = m.ship("livemig/cutover", bytes, residual_pages)?;
    let k = m.source(residual_pages)?;
    k.charge(crossings * k.cost.wire(bytes));
    Ok(k.now())
}

/// Fold a round's incremental capture into the accumulated full image:
/// newer pages replace older ones, and all non-page state (registers,
/// progress, fds, files, signals, timers) is adopted from the update.
fn merge_into(acc: &mut CheckpointImage, upd: CheckpointImage) {
    let mut by_pn: BTreeMap<u64, PageRecord> =
        acc.pages.drain(..).map(|p| (p.page_no, p)).collect();
    for p in upd.pages {
        by_pn.insert(p.page_no, p);
    }
    acc.pages = by_pn.into_values().collect();
    acc.regs = upd.regs;
    acc.brk = upd.brk;
    acc.work_done = upd.work_done;
    acc.policy = upd.policy;
    acc.vmas = upd.vmas;
    acc.fds = upd.fds;
    if !upd.files.is_empty() {
        acc.files = upd.files;
    }
    acc.sig = upd.sig;
    acc.timers = upd.timers;
    acc.header.taken_at_ns = upd.header.taken_at_ns;
    // `acc` stays a Full image (restore refuses anything else).
}

/// Iteratively pre-copy `pid` from `from` to `to`, freezing only when the
/// projected residual fits the downtime budget.
pub fn migrate_precopy(
    cluster: &mut Cluster,
    from: NodeId,
    pid: Pid,
    to: NodeId,
    cfg: &LiveMigConfig,
) -> SimResult<PreCopyReport> {
    let mut m = Cutover::begin(cluster, from, pid, to)?;
    let mut tracker = Tracker::new(TrackerKind::KernelPage);

    // Round 0: arm tracking, then ship the full resident set while the
    // guest keeps running behind it.
    let mut acc = {
        let k = m.source(0)?;
        tracker.arm(k, pid)?;
        let mut opts = CaptureOptions::full("livemig-pre", 1);
        opts.save_file_contents = true;
        opts.node = from.0;
        opts.encode_pool = cfg.encode_pool.clone();
        capture_image(k, pid, &opts)?
    };
    let mut duty: u32 = 100;
    let mut bytes_precopy: u64 = 0;
    let mut round_log: Vec<RoundStat> = Vec::new();
    let mut stall_rounds: u32 = 0;
    let mut prev_dirty = u64::MAX;
    let mut round: u32 = 0;
    let mut pages_this = acc.pages.len() as u64;
    let mut bytes_this = ckpt_image::encode(&acc).len() as u64;

    let dirty = loop {
        // Ship the round's frame: every crossing occupies one transfer
        // window, with the guest running behind it.
        let crossings = m.ship("livemig/round", bytes_this, pages_this)?;
        bytes_precopy += bytes_this;
        let window = m.source(pages_this)?.cost.wire(bytes_this);
        for _ in 0..crossings {
            advance_with_duty(&mut m, window, duty, pages_this)?;
        }

        // Sample what the guest dirtied behind the transfer.
        let dirty = {
            let k = m.source(pages_this)?;
            let p = k
                .process_mut(pid)
                .ok_or(SimError::NoSuchProcess(pid))?;
            p.mem.sample_dirty()
        };
        let guest_ns = (window.saturating_mul(duty as u64) / 100).max(1);
        m.cluster.trace().cluster(
            ClusterEvent::MigrationRound {
                round,
                dirty_pages: dirty,
                bytes: bytes_this,
                dirty_rate_ppms: dirty.saturating_mul(1_000_000) / guest_ns,
            },
            m.cluster.now(),
        );
        round_log.push(RoundStat {
            round,
            pages: pages_this,
            bytes: bytes_this,
            window_ns: window,
            duty_pct: duty,
            dirty_after: dirty,
        });

        // Cutover policy: freeze only when the projected residual fits.
        let projected = m.source(dirty)?.cost.wire(dirty * PAGE_SIZE);
        if projected <= cfg.downtime_budget_ns {
            break dirty;
        }
        // Divergence detector: the residual must shrink.
        if dirty >= prev_dirty {
            stall_rounds += 1;
        } else {
            stall_rounds = 0;
        }
        prev_dirty = dirty;
        if round + 1 >= cfg.max_rounds {
            return Err(SimError::CutoverDiverged {
                rounds: round + 1,
                residual_pages: dirty,
            });
        }
        if stall_rounds >= PATIENCE {
            if cfg.autoconverge && duty > MIN_DUTY_PCT {
                // QEMU auto-converge: throttle the guest instead of
                // aborting; each escalation halves the duty cycle (which
                // cannot undershoot a floor of 0).
                duty /= 2;
                stall_rounds = 0;
                prev_dirty = u64::MAX;
            } else {
                return Err(SimError::CutoverDiverged {
                    rounds: round + 1,
                    residual_pages: dirty,
                });
            }
        }

        // Next round: collect + re-arm, capture exactly the dirty set.
        round += 1;
        let upd = {
            let k = m.source(dirty)?;
            let col = tracker.collect(k, pid)?;
            tracker.arm(k, pid)?;
            let mut opts =
                CaptureOptions::incremental("livemig-pre", round as u64 + 1, round as u64, col.pages);
            opts.node = from.0;
            opts.encode_pool = cfg.encode_pool.clone();
            capture_image(k, pid, &opts)?
        };
        pages_this = upd.pages.len() as u64;
        bytes_this = ckpt_image::encode(&upd).len() as u64;
        merge_into(&mut acc, upd);
    };

    // Cutover: freeze, ship the merged residual, resume on the target.
    let (new_pid, downtime_ns, bytes_cutover, residual_pages) = m.frozen(|m| {
        let k = m.source(dirty)?;
        let t_freeze = k.now();
        let col = tracker.collect(k, pid)?;
        let residual = col.pages.len() as u64;
        let mut opts = CaptureOptions::incremental(
            "livemig-pre",
            round as u64 + 2,
            round as u64 + 1,
            col.pages,
        );
        opts.save_file_contents = true;
        opts.node = from.0;
        opts.encode_pool = cfg.encode_pool.clone();
        let upd = capture_image(k, pid, &opts)?;
        let fb = ckpt_image::encode(&upd).len() as u64;
        let src_down = send_cutover(m, fb, residual)? - t_freeze;
        merge_into(&mut acc, upd);
        let (new_pid, tgt_rx) = m.land(&acc, fb, Landing::Pid(RestorePid::Fresh))?;
        m.complete(bytes_precopy + fb)?;
        Ok((new_pid, src_down + tgt_rx, fb, residual))
    })?;
    Ok(PreCopyReport {
        from,
        to,
        new_pid,
        rounds: round + 1,
        bytes_precopy,
        bytes_cutover,
        residual_pages,
        downtime_ns,
        final_duty_pct: duty,
        round_log,
    })
}

/// Record which guest pages an app step touches, on top of a mirror of
/// the frozen source memory. The apps are deterministic over memory
/// state, so the mirror's first-touch order *is* the target's future
/// demand-fault order.
struct RecordingMem<'a> {
    inner: &'a mut VecMem,
    touched: &'a mut BTreeSet<u64>,
}

impl GuestMemIo for RecordingMem<'_> {
    fn r64(&mut self, addr: u64) -> u64 {
        self.touched.insert(addr / PAGE_SIZE);
        self.inner.r64(addr)
    }
    fn w64(&mut self, addr: u64, val: u64) {
        self.touched.insert(addr / PAGE_SIZE);
        self.inner.w64(addr, val);
    }
}

/// Run the target kernel until the migrated process has completed `steps`
/// more app steps (or stops progressing: exit, stop, node loss). One-ns
/// slices guarantee the target never runs past the probed quantum — the
/// fault-ordering invariant depends on exact step parity with the mirror.
fn run_target_steps(k: &mut Kernel, pid: Pid, steps: u64) {
    let Some(start) = k.process(pid).map(|p| p.work_done) else {
        return;
    };
    let goal = start + steps;
    let mut spins = 0u32;
    loop {
        let Some(w) = k.process(pid).map(|p| p.work_done) else {
            return;
        };
        if w >= goal {
            return;
        }
        let _ = k.run_for(1);
        let after = k.process(pid).map(|p| p.work_done).unwrap_or(w);
        if after == w {
            spins += 1;
            if spins > 16 {
                return; // exited / stopped — no more progress possible
            }
        } else {
            spins = 0;
        }
    }
}

/// Copy `pages` out of the frozen source process (missing pages are
/// zero-filled pages on both sides and are skipped).
fn read_source_pages(
    m: &mut Cutover<'_>,
    pages: &[u64],
    residual: u64,
) -> SimResult<Vec<(u64, Vec<u8>)>> {
    let pid = m.pid;
    let p = m.source(residual)?.process(pid).ok_or(SimError::NoSuchProcess(pid))?;
    Ok(pages
        .iter()
        .filter_map(|pn| p.mem.page_data(*pn).map(|d| (*pn, d.to_vec())))
        .collect())
}

/// Write delivered page frames into the resumed target process.
fn deliver(m: &mut Cutover<'_>, new_pid: Pid, frames: &[(u64, Vec<u8>)]) -> SimResult<()> {
    let p = m
        .cluster
        .kernel(m.to)?
        .process_mut(new_pid)
        .ok_or(SimError::NoSuchProcess(new_pid))?;
    for (pn, data) in frames {
        p.mem.poke(pn * PAGE_SIZE, data);
    }
    Ok(())
}

/// Post-copy migrate `pid` from `from` to `to`: resume on the target
/// immediately, then drain the residual set by address-ordered demand
/// faults plus background prefetch.
pub fn migrate_postcopy(
    cluster: &mut Cluster,
    from: NodeId,
    pid: Pid,
    to: NodeId,
    cfg: &LiveMigConfig,
) -> SimResult<PostCopyReport> {
    let mut m = Cutover::begin(cluster, from, pid, to)?;
    // The source stays frozen until the residual has drained: its pages
    // are what the target still pulls from.
    m.frozen(|m| {
        // Build the minimal image (header page only) plus the replay
        // mirror and the residual ledger: every source-resident page
        // except the header.
        let k = m.source(0)?;
        let t_freeze = k.now();
        let hdr_pn = HEADER_BASE / PAGE_SIZE;
        let (kind, params, mut mirror, mut missing) = {
            let p = k.process(pid).ok_or(SimError::NoSuchProcess(pid))?;
            let (kind, params) = match &p.program {
                ProgramSpec::Native { kind, params } => (*kind, params.clone()),
                ProgramSpec::Vm { .. } => {
                    return Err(SimError::Usage(
                        "post-copy migration supports native apps only".into(),
                    ))
                }
            };
            let mut mirror = VecMem::new(&params);
            p.mem.peek(HEADER_BASE, &mut mirror.bytes);
            let resident: BTreeSet<u64> = p.mem.resident_pages().collect();
            (kind, params, mirror, resident)
        };
        missing.remove(&hdr_pn);
        let mut opts = CaptureOptions::full("livemig-post", 1);
        opts.save_file_contents = true;
        opts.node = from.0;
        opts.pages = PageSelection::Set([hdr_pn].into());
        opts.encode_pool = cfg.encode_pool.clone();
        let minimal = capture_image(k, pid, &opts)?;
        let bytes_minimal = ckpt_image::encode(&minimal).len() as u64;
        let residual_pages = missing.len() as u64;
        let src_down = send_cutover(m, bytes_minimal, residual_pages + 1)? - t_freeze;

        // Target: restore the minimal image and let the guest resume at once.
        let (new_pid, tgt_rx) = m.land(&minimal, bytes_minimal, Landing::Pid(RestorePid::Fresh))?;
        let mut report = PostCopyReport {
            from,
            to,
            new_pid,
            downtime_ns: src_down + tgt_rx,
            residual_pages,
            demand_pages: 0,
            demand_batches: 0,
            prefetch_pages: 0,
            bytes_minimal,
        };
        let drained = drain_residual(m, &mut report, kind, &params, &mut mirror, missing);
        if drained.is_err() {
            // The half-populated target is unusable: discard it.
            m.retire(to, new_pid);
        }
        drained?;
        // Residual drained: the source copy can be discarded.
        m.complete(bytes_minimal + report.residual_moved() * PAGE_SIZE)?;
        Ok(report)
    })
}

/// The post-copy service loop: predict the next quantum's touches on the
/// mirror, deliver them (ordered by address), run the target exactly that
/// far, then prefetch lowest-address residual pages in the background —
/// until `missing` is empty. Counts what it delivered in `report`.
fn drain_residual(
    m: &mut Cutover<'_>,
    report: &mut PostCopyReport,
    kind: NativeKind,
    params: &AppParams,
    mirror: &mut VecMem,
    mut missing: BTreeSet<u64>,
) -> SimResult<()> {
    let new_pid = report.new_pid;
    let mut mirror_done = false;
    while !missing.is_empty() {
        let residual = missing.len() as u64;
        // Probe the mirror for the pages the target is about to touch.
        let mut touched: BTreeSet<u64> = BTreeSet::new();
        let mut probe_steps = 0u64;
        if !mirror_done {
            while probe_steps < QUANTUM_STEPS {
                let out = {
                    let mut rec = RecordingMem {
                        inner: mirror,
                        touched: &mut touched,
                    };
                    apps::step(kind, params, &mut rec)
                };
                probe_steps += 1;
                if out.finished {
                    mirror_done = true;
                    break;
                }
            }
        }
        // Demand set: predicted touches still missing, ascending address
        // (BTreeSet order) — the fault-ordering invariant.
        let needed: Vec<u64> = touched.intersection(&missing).copied().collect();
        if !needed.is_empty() {
            let bytes = needed.len() as u64 * PAGE_SIZE;
            let crossings = m.ship("livemig/demand-fault", bytes, residual)?;
            let frames = read_source_pages(m, &needed, residual)?;
            let k = m.source(residual)?;
            k.charge(k.cost.memcpy(bytes));
            // The target stalls for every crossing (a retransmission is a
            // second window) plus the copy-in.
            let k = m.cluster.kernel(m.to)?;
            k.charge(crossings * k.cost.wire(bytes) + k.cost.memcpy(bytes));
            deliver(m, new_pid, &frames)?;
            report.demand_pages += needed.len() as u64;
            report.demand_batches += 1;
            for pn in &needed {
                missing.remove(pn);
            }
        }
        // Run the target through exactly the probed quantum.
        if probe_steps > 0 {
            run_target_steps(m.cluster.kernel(m.to)?, new_pid, probe_steps);
        }
        // Background prefetch: lowest-address residual pages, overlapped
        // with target execution (charged to the source only).
        let batch: Vec<u64> = missing.iter().take(PREFETCH_BATCH).copied().collect();
        if !batch.is_empty() {
            let residual = missing.len() as u64;
            let bytes = batch.len() as u64 * PAGE_SIZE;
            let frames = read_source_pages(m, &batch, residual)?;
            let k = m.source(residual)?;
            k.charge(k.cost.wire(bytes) + k.cost.memcpy(bytes));
            deliver(m, new_pid, &frames)?;
            report.prefetch_pages += batch.len() as u64;
            for pn in &batch {
                missing.remove(pn);
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::FailureConfig;
    use simos::cost::CostModel;
    use simos::faultpoint::{Fault, FaultHandle};

    fn setup(kind: NativeKind, mut params: AppParams) -> (Cluster, Pid) {
        let mut c = Cluster::new(2, CostModel::circa_2005(), FailureConfig::none());
        params.total_steps = u64::MAX;
        let pid = c
            .node(NodeId(0))
            .kernel()
            .unwrap()
            .spawn_native(kind, params)
            .unwrap();
        c.advance(5_000_000);
        (c, pid)
    }

    /// Peek the full app span (header + array) of a process.
    fn guest_bytes(k: &mut Kernel, pid: Pid, params: &AppParams) -> Vec<u8> {
        let span = (apps::ARRAY_BASE - HEADER_BASE) + params.mem_bytes + PAGE_SIZE;
        let mut buf = vec![0u8; span as usize];
        k.process(pid).unwrap().mem.peek(HEADER_BASE, &mut buf);
        buf
    }

    /// Replay the app on a VecMem to the same step count and compare.
    fn assert_state_matches_reference(
        k: &mut Kernel,
        pid: Pid,
        kind: NativeKind,
        params: &AppParams,
    ) {
        let got = guest_bytes(k, pid, params);
        let steps = {
            let mut io = VecMem::new(params);
            io.bytes.copy_from_slice(&got);
            io.r64(apps::H_STEP)
        };
        let mut reference = VecMem::new(params);
        apps::init(kind, params, &mut reference);
        for _ in 0..steps {
            apps::step(kind, params, &mut reference);
        }
        assert_eq!(
            got, reference.bytes,
            "migrated guest state diverged from the unmigrated replay"
        );
    }

    #[test]
    fn precopy_converges_and_preserves_state() {
        let params = AppParams::small();
        let (mut c, pid) = setup(NativeKind::SparseRandom, params.clone());
        let r = migrate_precopy(&mut c, NodeId(0), pid, NodeId(1), &LiveMigConfig::default())
            .expect("pre-copy must converge with auto-converge on");
        assert!(r.rounds >= 1);
        assert!(r.bytes_precopy > 0);
        assert!(c.node(NodeId(0)).kernel().unwrap().process(pid).is_none());
        let k = c.node(NodeId(1)).kernel().unwrap();
        assert_state_matches_reference(k, r.new_pid, NativeKind::SparseRandom, &params);
        // The guest keeps running on the target.
        let w0 = k.process(r.new_pid).unwrap().work_done;
        c.advance(5_000_000);
        let k = c.node(NodeId(1)).kernel().unwrap();
        assert!(k.process(r.new_pid).unwrap().work_done > w0);
    }

    #[test]
    fn precopy_without_autoconverge_reports_divergence() {
        let (mut c, pid) = setup(NativeKind::SparseRandom, AppParams::small());
        let cfg = LiveMigConfig {
            autoconverge: false,
            downtime_budget_ns: 25_000, // < one page residual: unreachable at full speed
            ..LiveMigConfig::default()
        };
        match migrate_precopy(&mut c, NodeId(0), pid, NodeId(1), &cfg) {
            Err(SimError::CutoverDiverged { rounds, .. }) => assert!(rounds >= 1),
            other => panic!("expected CutoverDiverged, got {other:?}"),
        }
        // The source guest survives a diverged (aborted) migration.
        let k = c.node(NodeId(0)).kernel().unwrap();
        assert!(k.process(pid).is_some());
    }

    #[test]
    fn postcopy_preserves_state_and_beats_freeze_downtime() {
        let params = AppParams::small();
        let (mut c, pid) = setup(NativeKind::SparseRandom, params.clone());
        let r = migrate_postcopy(&mut c, NodeId(0), pid, NodeId(1), &LiveMigConfig::default())
            .expect("post-copy");
        assert_eq!(
            r.demand_pages + r.prefetch_pages,
            r.residual_pages,
            "every residual page must drain exactly once"
        );
        assert!(c.node(NodeId(0)).kernel().unwrap().process(pid).is_none());
        let k = c.node(NodeId(1)).kernel().unwrap();
        assert_state_matches_reference(k, r.new_pid, NativeKind::SparseRandom, &params);
        // Downtime is the minimal-image window only: far below one full
        // image transfer (96 KiB at 4 ns/B is ~400 us on the wire).
        assert!(
            r.downtime_ns < 200_000,
            "post-copy downtime {} should be well under a full-image transfer",
            r.downtime_ns
        );
    }

    #[test]
    fn postcopy_source_loss_is_typed_and_discards_target() {
        let (mut c, pid) = setup(NativeKind::SparseRandom, AppParams::small());
        // Record the demand-fault sites, then arm the first one.
        let faults = FaultHandle::recording();
        c.node(NodeId(0)).kernel().unwrap().set_faults(faults.clone());
        let probe = migrate_postcopy(&mut c, NodeId(0), pid, NodeId(1), &LiveMigConfig::default());
        let site = faults
            .sites()
            .into_iter()
            .find(|s| s.name.starts_with("livemig/demand-fault"))
            .expect("post-copy must visit demand-fault sites")
            .name;
        probe.expect("recording run must succeed");

        // Fresh cluster, armed fault.
        let (mut c, pid) = setup(NativeKind::SparseRandom, AppParams::small());
        let armed = FaultHandle::armed(&site, Fault::FailStop);
        c.node(NodeId(0)).kernel().unwrap().set_faults(armed.clone());
        match migrate_postcopy(&mut c, NodeId(0), pid, NodeId(1), &LiveMigConfig::default()) {
            Err(SimError::SourceLostMidMigration { residual_pages }) => {
                assert!(residual_pages > 0)
            }
            other => panic!("expected SourceLostMidMigration, got {other:?}"),
        }
        // Source node is down; target holds no half-state process.
        assert!(!c.node(NodeId(0)).alive());
        let k = c.node(NodeId(1)).kernel().unwrap();
        assert!(k.pids().is_empty(), "target must hold no half-state process");
    }

    #[test]
    fn precopy_beats_freeze_copy_downtime() {
        // Freeze-copy baseline.
        let params = AppParams::small();
        let (mut c, pid) = setup(NativeKind::SparseRandom, params.clone());
        let s0 = c.node(NodeId(0)).now();
        let t0 = c.node(NodeId(1)).now();
        crate::migrate::migrate(
            &mut c,
            NodeId(0),
            pid,
            NodeId(1),
            crate::migrate::MigrationMode::FreshPid,
            None,
        )
        .unwrap();
        let freeze_downtime =
            (c.node(NodeId(0)).now() - s0) + (c.node(NodeId(1)).now() - t0);

        let (mut c, pid) = setup(NativeKind::SparseRandom, params);
        let r = migrate_precopy(&mut c, NodeId(0), pid, NodeId(1), &LiveMigConfig::default())
            .unwrap();
        assert!(
            r.downtime_ns < freeze_downtime,
            "pre-copy downtime {} must beat freeze-copy {}",
            r.downtime_ns,
            freeze_downtime
        );
    }
}
