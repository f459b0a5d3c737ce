//! # ckpt-trace — structured events and metrics for the whole stack
//!
//! The paper's comparative claims are *cost-attribution* arguments:
//! user/kernel crossings, TLB flushes, signal-delivery deferral, storage
//! bandwidth. This module makes those costs observable as they accrue
//! instead of only as end-to-end totals. Every hot path in the kernel, the
//! checkpoint mechanisms, the storage backends, and the cluster layer
//! emits events into a [`TraceHandle`]; collectors aggregate them into
//! per-phase histograms and counters on the fly.
//!
//! ## Cost model
//!
//! Events carry the **monotonic virtual time** at which they occurred and
//! a **cost delta** in virtual nanoseconds. Emitting an event never
//! charges virtual time itself — tracing is a pure observer, so enabling
//! it cannot perturb an experiment.
//!
//! ## The no-op sink
//!
//! A handle created with [`TraceHandle::disabled`] (the default on every
//! kernel) rejects events on a single relaxed atomic load before any
//! argument is materialized, so instrumented hot paths cost one predicted
//! branch when tracing is off. Handles are cheaply cloneable and shareable
//! across kernels, storage backends, and cluster layers — one recording
//! handle can observe a whole cluster.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// Checkpoint lifecycle phases, in canonical order. Every mechanism family
/// emits the mandatory subsequence freeze → capture → store → resume; the
/// remaining phases appear where the mechanism actually does that work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// Initiation accepted but the mechanism is waiting (signal delivery,
    /// kthread queue, concurrent child still saving).
    Pending,
    /// The target is stopped / quiesced.
    Freeze,
    /// Dirty-state collection (tracker walk or hash scan).
    Walk,
    /// Walking process state into an image.
    Capture,
    /// Image encoding / page compression.
    Compress,
    /// Pushing encoded bytes to stable storage.
    Store,
    /// Garbage-collecting superseded images.
    Prune,
    /// Re-arming dirty tracking for the next interval.
    Rearm,
    /// The target runs again.
    Resume,
    /// Restart: loading + rebuilding a process from an image.
    Restore,
    /// Residual mechanism time not attributable to a specific phase
    /// (e.g. time the parent overlaps a concurrent save).
    Other,
}

impl Phase {
    pub fn label(self) -> &'static str {
        match self {
            Phase::Pending => "pending",
            Phase::Freeze => "freeze",
            Phase::Walk => "walk",
            Phase::Capture => "capture",
            Phase::Compress => "compress",
            Phase::Store => "store",
            Phase::Prune => "prune",
            Phase::Rearm => "rearm",
            Phase::Resume => "resume",
            Phase::Restore => "restore",
            Phase::Other => "other",
        }
    }
}

/// Kernel hot-path events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum KernelEvent {
    SyscallEntry,
    SyscallExit,
    ContextSwitch,
    MmSwitch,
    TlbFlush,
    PageFault,
    CowFault,
    SignalDelivered,
    Freeze,
    Thaw,
    Fork,
}

impl KernelEvent {
    pub fn label(self) -> &'static str {
        match self {
            KernelEvent::SyscallEntry => "syscall-entry",
            KernelEvent::SyscallExit => "syscall-exit",
            KernelEvent::ContextSwitch => "context-switch",
            KernelEvent::MmSwitch => "mm-switch",
            KernelEvent::TlbFlush => "tlb-flush",
            KernelEvent::PageFault => "page-fault",
            KernelEvent::CowFault => "cow-fault",
            KernelEvent::SignalDelivered => "signal-delivered",
            KernelEvent::Freeze => "freeze",
            KernelEvent::Thaw => "thaw",
            KernelEvent::Fork => "fork",
        }
    }
}

/// Where a *software*-TLB flush happened — the host-side translation cache
/// in `simos::mem` invalidates at exactly the paper's TLB-flush events, and
/// this enum names those sites so `report trace` can show the coincidence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TlbFlushSite {
    /// Address-space switch (the kernel-thread attach / scheduler switch
    /// the paper charges `tlb_flush_ns + tlb_refill_ns` for).
    MmSwitch,
    /// `mprotect`-based (re-)arming of write tracking.
    MprotectRearm,
    /// Checkpoint restore rebuilding an address space.
    Restore,
}

impl TlbFlushSite {
    pub fn label(self) -> &'static str {
        match self {
            TlbFlushSite::MmSwitch => "mm-switch",
            TlbFlushSite::MprotectRearm => "mprotect-rearm",
            TlbFlushSite::Restore => "restore",
        }
    }
}

/// Storage backend operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum StorageOp {
    Store,
    Load,
    Delete,
}

impl StorageOp {
    pub fn label(self) -> &'static str {
        match self {
            StorageOp::Store => "store",
            StorageOp::Load => "load",
            StorageOp::Delete => "delete",
        }
    }
}

/// Cluster-level events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterEvent {
    /// A coordinated checkpoint round completed: (ranks, total bytes,
    /// round latency).
    CoordRound { ranks: u32, bytes: u64, round_ns: u64 },
    /// A node fail-stopped.
    FailureInjected { node: u32 },
    /// A failed node rejoined.
    NodeRepaired { node: u32 },
    /// A process moved between nodes: (from, to, bytes moved).
    Migration { from: u32, to: u32, bytes: u64 },
    /// One iterative pre-copy round completed: pages found dirty this
    /// round, bytes shipped, and the sampled dirty rate (pages/ms of guest
    /// run time) the cutover policy saw when deciding to keep iterating.
    MigrationRound {
        round: u32,
        dirty_pages: u64,
        bytes: u64,
        dirty_rate_ppms: u64,
    },
}

/// One recorded phase event (the ordered log the tests assert on).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseRecord {
    pub at_ns: u64,
    pub mechanism: String,
    pub phase: Phase,
    pub pid: u32,
    pub seq: u64,
    pub cost_ns: u64,
}

/// One recorded cluster event.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterRecord {
    pub at_ns: u64,
    pub event: ClusterEvent,
}

/// A power-of-two (log2) latency histogram: bucket `i` counts costs in
/// `[2^i, 2^(i+1))` ns, bucket 0 also holding zero-cost events.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Histogram {
    pub(crate) buckets: [u64; 48],
    pub(crate) min_ns: u64,
    pub(crate) max_ns: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; 48],
            min_ns: u64::MAX,
            max_ns: 0,
        }
    }
}

impl Histogram {
    pub(crate) fn record(&mut self, cost_ns: u64) {
        let b = if cost_ns == 0 {
            0
        } else {
            (63 - cost_ns.leading_zeros() as usize).min(47)
        };
        self.buckets[b] += 1;
        self.min_ns = self.min_ns.min(cost_ns);
        self.max_ns = self.max_ns.max(cost_ns);
    }
}

/// Aggregated counter: how many events, and the summed cost delta.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter {
    pub count: u64,
    pub cost_ns: u64,
}

/// Per-phase aggregate: counter plus latency histogram.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct PhaseAgg {
    pub(crate) count: u64,
    pub(crate) total_ns: u64,
    pub(crate) hist: Histogram,
}

/// Per-backend storage aggregate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StorageAgg {
    pub ops: u64,
    pub bytes: u64,
    /// Modelled transfer/stall time the operations cost.
    pub stall_ns: u64,
}

/// A snapshot of everything a recording sink has aggregated.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceReport {
    pub kernel: BTreeMap<KernelEvent, Counter>,
    pub(crate) phases: BTreeMap<(String, Phase), PhaseAgg>,
    pub phase_log: Vec<PhaseRecord>,
    pub storage: BTreeMap<(StorageOp, String), StorageAgg>,
    pub cluster: Vec<ClusterRecord>,
    pub events_recorded: u64,
    /// Software-TLB flushes by invalidation site. Kept out of `kernel` and
    /// `events_recorded` on purpose: the software TLB is a host-side
    /// accelerator, and adding it must not perturb any pre-existing totals
    /// (the `report all` output is pinned byte-for-byte).
    pub soft_tlb_flushes: BTreeMap<TlbFlushSite, u64>,
    /// Labelled counters for everything else a layer wants counted: the
    /// parallel-encode pool's `par.{tasks,steals,merge_stalls}`, the quorum
    /// tiers' `replication.*` and `erasure.*` protocol activity. Host-side
    /// and storage-tier observability, excluded from `events_recorded` for
    /// the same reason as `soft_tlb_flushes`: a new counter must never
    /// perturb a pinned total.
    pub(crate) counters: BTreeMap<&'static str, u64>,
}

impl TraceReport {
    /// Summed cost of one phase for one mechanism.
    pub fn phase_cost(&self, mechanism: &str, phase: Phase) -> u64 {
        self.phases
            .get(&(mechanism.to_string(), phase))
            .map(|a| a.total_ns)
            .unwrap_or(0)
    }

    /// Summed cost across all phases of one mechanism.
    pub fn mechanism_total(&self, mechanism: &str) -> u64 {
        self.phases
            .iter()
            .filter(|((m, _), _)| m == mechanism)
            .map(|(_, a)| a.total_ns)
            .sum()
    }

    /// A labelled counter's value (0 if nothing was ever counted under it).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The ordered phase sequence one mechanism emitted (for order
    /// assertions).
    pub fn phase_sequence(&self, mechanism: &str) -> Vec<Phase> {
        self.phase_log
            .iter()
            .filter(|r| r.mechanism == mechanism)
            .map(|r| r.phase)
            .collect()
    }
}

#[derive(Default)]
struct Collector {
    report: TraceReport,
}

struct SinkInner {
    enabled: AtomicBool,
    data: Mutex<Collector>,
}

/// A cloneable handle to a trace sink. The default handle is the no-op
/// sink: every emit path bails on one relaxed atomic load.
#[derive(Clone)]
pub struct TraceHandle(Arc<SinkInner>);

impl std::fmt::Debug for TraceHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceHandle")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Default for TraceHandle {
    fn default() -> Self {
        TraceHandle::disabled()
    }
}

impl TraceHandle {
    /// The no-op sink: records nothing, costs one atomic load per event.
    pub fn disabled() -> Self {
        TraceHandle(Arc::new(SinkInner {
            enabled: AtomicBool::new(false),
            data: Mutex::new(Collector::default()),
        }))
    }

    /// A recording sink aggregating into counters, histograms, and the
    /// ordered phase log.
    pub fn recording() -> Self {
        TraceHandle(Arc::new(SinkInner {
            enabled: AtomicBool::new(true),
            data: Mutex::new(Collector::default()),
        }))
    }

    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.0.enabled.load(Ordering::Relaxed)
    }

    /// Emit a kernel hot-path event.
    #[inline]
    pub(crate) fn kernel(&self, ev: KernelEvent, at_ns: u64, cost_ns: u64) {
        if !self.is_enabled() {
            return;
        }
        let mut d = self.0.data.lock().unwrap();
        let c = d.report.kernel.entry(ev).or_default();
        c.count += 1;
        c.cost_ns += cost_ns;
        d.report.events_recorded += 1;
        let _ = at_ns;
    }

    /// Emit a checkpoint-lifecycle phase event for one mechanism.
    #[inline]
    pub fn phase(
        &self,
        mechanism: &str,
        phase: Phase,
        pid: u32,
        seq: u64,
        at_ns: u64,
        cost_ns: u64,
    ) {
        if !self.is_enabled() {
            return;
        }
        let mut d = self.0.data.lock().unwrap();
        let agg = d
            .report
            .phases
            .entry((mechanism.to_string(), phase))
            .or_default();
        agg.count += 1;
        agg.total_ns += cost_ns;
        agg.hist.record(cost_ns);
        d.report.phase_log.push(PhaseRecord {
            at_ns,
            mechanism: mechanism.to_string(),
            phase,
            pid,
            seq,
            cost_ns,
        });
        d.report.events_recorded += 1;
    }

    /// Emit a storage backend operation (bytes moved + modelled stall).
    #[inline]
    pub fn storage(&self, op: StorageOp, class: &str, bytes: u64, stall_ns: u64) {
        if !self.is_enabled() {
            return;
        }
        let mut d = self.0.data.lock().unwrap();
        let agg = d
            .report
            .storage
            .entry((op, class.to_string()))
            .or_default();
        agg.ops += 1;
        agg.bytes += bytes;
        agg.stall_ns += stall_ns;
        d.report.events_recorded += 1;
    }

    /// Note a software-TLB flush at one of the paper's invalidation sites.
    /// Does not bump `events_recorded` — see [`TraceReport::soft_tlb_flushes`].
    #[inline]
    pub fn soft_tlb_flush(&self, site: TlbFlushSite) {
        if !self.is_enabled() {
            return;
        }
        let mut d = self.0.data.lock().unwrap();
        *d.report.soft_tlb_flushes.entry(site).or_default() += 1;
    }

    /// Add `n` to the labelled counter `name`. Does not bump
    /// `events_recorded` — see `TraceReport::counters`.
    #[inline]
    pub fn count(&self, name: &'static str, n: u64) {
        if !self.is_enabled() || n == 0 {
            return;
        }
        let mut d = self.0.data.lock().unwrap();
        *d.report.counters.entry(name).or_default() += n;
    }

    /// Emit a cluster-level event.
    #[inline]
    pub fn cluster(&self, event: ClusterEvent, at_ns: u64) {
        if !self.is_enabled() {
            return;
        }
        let mut d = self.0.data.lock().unwrap();
        d.report.cluster.push(ClusterRecord { at_ns, event });
        d.report.events_recorded += 1;
    }

    /// Total events this sink has recorded (0 for the no-op sink).
    pub fn events_recorded(&self) -> u64 {
        self.0.data.lock().unwrap().report.events_recorded
    }

    /// Summed phase cost for one mechanism so far (0 when disabled).
    /// Mechanisms use this to emit an exact residual ([`Phase::Other`])
    /// that reconciles their trace total with the outcome's end-to-end
    /// numbers.
    pub fn mechanism_total(&self, mechanism: &str) -> u64 {
        if !self.is_enabled() {
            return 0;
        }
        self.0.data.lock().unwrap().report.mechanism_total(mechanism)
    }

    /// Snapshot everything aggregated so far.
    pub fn report(&self) -> TraceReport {
        self.0.data.lock().unwrap().report.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_records_nothing() {
        let t = TraceHandle::disabled();
        t.kernel(KernelEvent::SyscallEntry, 10, 100);
        t.phase("m", Phase::Freeze, 1, 1, 10, 5);
        t.storage(StorageOp::Store, "disk", 4096, 9);
        t.cluster(ClusterEvent::FailureInjected { node: 0 }, 7);
        assert_eq!(t.events_recorded(), 0);
        assert_eq!(t.report(), TraceReport::default());
    }

    #[test]
    fn recording_sink_aggregates_and_logs_order() {
        let t = TraceHandle::recording();
        t.phase("m", Phase::Freeze, 1, 1, 10, 5);
        t.phase("m", Phase::Capture, 1, 1, 15, 20);
        t.phase("m", Phase::Store, 1, 1, 35, 30);
        t.phase("m", Phase::Resume, 1, 1, 65, 1);
        t.phase("other-mech", Phase::Freeze, 2, 1, 70, 2);
        let r = t.report();
        assert_eq!(
            r.phase_sequence("m"),
            vec![Phase::Freeze, Phase::Capture, Phase::Store, Phase::Resume]
        );
        assert_eq!(r.phase_cost("m", Phase::Store), 30);
        assert_eq!(r.mechanism_total("m"), 56);
        assert_eq!(r.mechanism_total("other-mech"), 2);
        assert_eq!(t.mechanism_total("m"), 56);
    }

    #[test]
    fn kernel_and_storage_counters() {
        let t = TraceHandle::recording();
        t.kernel(KernelEvent::PageFault, 1, 250);
        t.kernel(KernelEvent::PageFault, 2, 250);
        t.storage(StorageOp::Store, "remote", 1 << 20, 4_000_000);
        let r = t.report();
        assert_eq!(r.kernel[&KernelEvent::PageFault].count, 2);
        assert_eq!(r.kernel[&KernelEvent::PageFault].cost_ns, 500);
        let s = r.storage[&(StorageOp::Store, "remote".to_string())];
        assert_eq!(s.bytes, 1 << 20);
        assert_eq!(s.stall_ns, 4_000_000);
    }

    #[test]
    fn soft_tlb_flushes_do_not_disturb_event_totals() {
        let t = TraceHandle::recording();
        t.soft_tlb_flush(TlbFlushSite::MmSwitch);
        t.soft_tlb_flush(TlbFlushSite::MmSwitch);
        t.soft_tlb_flush(TlbFlushSite::Restore);
        let r = t.report();
        assert_eq!(r.soft_tlb_flushes[&TlbFlushSite::MmSwitch], 2);
        assert_eq!(r.soft_tlb_flushes[&TlbFlushSite::Restore], 1);
        // Must not perturb kernel counters or the recorded-event total.
        assert_eq!(r.events_recorded, 0);
        assert!(r.kernel.is_empty());
    }

    #[test]
    fn labelled_counters_do_not_disturb_event_totals() {
        let t = TraceHandle::recording();
        t.count("par.tasks", 128);
        t.count("par.tasks", 64);
        t.count("replication.repairs", 3);
        t.count("erasure.decodes", 0);
        let r = t.report();
        assert_eq!(r.counter("par.tasks"), 192);
        assert_eq!(r.counter("replication.repairs"), 3);
        assert_eq!(r.counter("never.counted"), 0);
        assert!(!r.counters.contains_key("erasure.decodes"), "a zero delta leaves no entry");
        // Must not perturb kernel counters or the recorded-event total.
        assert_eq!(r.events_recorded, 0);
        assert!(r.kernel.is_empty());
        // And the no-op sink keeps nothing at all.
        let off = TraceHandle::disabled();
        off.count("par.tasks", 1);
        assert_eq!(off.report(), TraceReport::default());
    }

    #[test]
    fn histogram_buckets_by_log2() {
        let mut h = Histogram::default();
        h.record(0);
        h.record(1);
        h.record(1023);
        h.record(1024);
        assert_eq!(h.buckets.iter().sum::<u64>(), 4);
        assert_eq!(h.buckets[0], 2); // 0 and 1
        assert_eq!(h.buckets[9], 1); // 512..1024
        assert_eq!(h.buckets[10], 1); // 1024..2048
        assert_eq!(h.min_ns, 0);
        assert_eq!(h.max_ns, 1024);
    }
}
