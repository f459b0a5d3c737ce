//! Dirty-state trackers: every incremental-checkpointing technique the
//! paper discusses, behind one interface.
//!
//! * [`TrackerKind::FullOnly`] — no tracking; every checkpoint is full.
//! * [`TrackerKind::KernelPage`] — page-protection tracking resolved in the
//!   kernel's page-fault handler (Section 4.1: the system-level scheme the
//!   paper advocates, "never before implemented for Linux").
//! * [`TrackerKind::UserPage`] — the same page-protection idea at user
//!   level: `mprotect` + `SIGSEGV` handler + user-space bitmap (Section 3,
//!   libckpt \[27\]). Identical dirty sets, strictly higher cost.
//! * [`TrackerKind::ProbBlock`] — block-hash comparison at sub-page
//!   granularity (*Probabilistic Checkpointing*, Nam et al. \[23\]); the
//!   probability of a missed update (hash collision) is exposed
//!   analytically by [`Tracker::omission_probability`].
//! * [`TrackerKind::AdaptiveBlock`] — per-page adaptive block sizing
//!   (Agarwal et al. \[1\]): pages that change densely use coarse blocks
//!   (cheap hashing), sparsely-changing pages use fine blocks (small
//!   deltas).
//! * [`TrackerKind::HardwareLine`] — cache-line-granularity logging by
//!   hardware (ReVive \[29\] / SafetyNet \[34\], Section 4.2): no software cost
//!   per write, finest deltas, but requires custom hardware.

use ckpt_storage::digest64;
use simos::cost::{CACHE_LINE, PAGE_SIZE};
use simos::mem::TrackMode;
use simos::trace::TlbFlushSite;
use simos::types::{Pid, SimError, SimResult};
use simos::Kernel;
use std::collections::{BTreeMap, BTreeSet};

/// Which tracking technique to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrackerKind {
    FullOnly,
    KernelPage,
    UserPage,
    ProbBlock { block: u64 },
    AdaptiveBlock { min_block: u64, max_block: u64 },
    HardwareLine,
}

impl TrackerKind {
    /// Human-readable label for reports.
    pub fn label(self) -> String {
        match self {
            TrackerKind::FullOnly => "full".into(),
            TrackerKind::KernelPage => "incr-kernel-page".into(),
            TrackerKind::UserPage => "incr-user-sigsegv".into(),
            TrackerKind::ProbBlock { block } => format!("prob-block-{block}"),
            TrackerKind::AdaptiveBlock { min_block, max_block } => {
                format!("adaptive-{min_block}-{max_block}")
            }
            TrackerKind::HardwareLine => "hw-cache-line".into(),
        }
    }

    /// Whether this tracker can produce incremental checkpoints.
    ///
    /// Public for ckptbench (`benchmark/src/single.rs`).
    pub fn supports_incremental(self) -> bool {
        !matches!(self, TrackerKind::FullOnly)
    }
}

/// What a collection round found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Collected {
    /// Pages that must go into the image.
    pub pages: BTreeSet<u64>,
    /// Dirty bytes at the tracker's own granularity (what a
    /// granularity-exploiting format would ship).
    pub logical_dirty_bytes: u64,
    /// True when the collection is the entire resident set (full ckpt).
    pub(crate) full: bool,
}

/// A dirty-state tracker bound to one process.
#[derive(Debug, Clone)]
pub struct Tracker {
    kind: TrackerKind,
    /// Block hashes per page (ProbBlock/AdaptiveBlock baselines).
    hashes: BTreeMap<u64, Vec<u64>>,
    /// Per-page current block size (AdaptiveBlock).
    page_block: BTreeMap<u64, u64>,
    /// Last collection's per-page (changed blocks, total blocks) — the
    /// signal the adaptive tracker adapts on.
    last_change_density: BTreeMap<u64, (u64, u64)>,
    armed: bool,
}

impl Tracker {
    pub fn new(kind: TrackerKind) -> Self {
        if let TrackerKind::ProbBlock { block } | TrackerKind::AdaptiveBlock { min_block: block, .. } =
            kind
        {
            assert!(
                block.is_power_of_two() && (8..=PAGE_SIZE).contains(&block),
                "block size must be a power of two in [8, PAGE_SIZE]"
            );
        }
        if let TrackerKind::AdaptiveBlock { max_block, .. } = kind {
            assert!(
                max_block.is_power_of_two() && max_block <= PAGE_SIZE,
                "max block must be a power of two ≤ PAGE_SIZE"
            );
        }
        Tracker {
            kind,
            hashes: BTreeMap::new(),
            page_block: BTreeMap::new(),
            last_change_density: BTreeMap::new(),
            armed: false,
        }
    }

    pub fn kind(&self) -> TrackerKind {
        self.kind
    }

    /// Public for ckptbench (`benchmark/src/single.rs`).
    pub fn is_armed(&self) -> bool {
        self.armed
    }

    /// Analytic probability that at least one changed block goes undetected
    /// among `changed_blocks` comparisons with a `bits`-bit hash — the
    /// "probabilistic" in Probabilistic Checkpointing. With the 64-bit hash
    /// used here this is negligible; the paper-era proposals used 8–32-bit
    /// signatures where it is not.
    pub fn omission_probability(changed_blocks: u64, bits: u32) -> f64 {
        let p_single = 0.5f64.powi(bits as i32);
        1.0 - (1.0 - p_single).powf(changed_blocks as f64)
    }

    /// Begin (or re-begin) a tracking interval. Charges the arming cost.
    pub fn arm(&mut self, k: &mut Kernel, pid: Pid) -> SimResult<()> {
        match self.kind {
            TrackerKind::FullOnly => {}
            TrackerKind::KernelPage => {
                let p = k.process_mut(pid).ok_or(SimError::NoSuchProcess(pid))?;
                let protected = p.mem.arm_tracking(TrackMode::KernelPage);
                let t = protected * k.cost.mprotect_per_page_ns;
                k.charge(t);
                k.trace.soft_tlb_flush(TlbFlushSite::MprotectRearm);
            }
            TrackerKind::UserPage => {
                let p = k.process_mut(pid).ok_or(SimError::NoSuchProcess(pid))?;
                let protected = p.mem.arm_tracking(TrackMode::UserSigsegv);
                p.user_rt.dirty_bitmap.clear();
                // User space pays a full mprotect syscall plus per-page
                // work (one call per contiguous region; we charge one).
                k.stats.syscalls += 1;
                let t = k.cost.syscall_round_trip() + protected * k.cost.mprotect_per_page_ns;
                k.charge(t);
                k.trace.soft_tlb_flush(TlbFlushSite::MprotectRearm);
            }
            TrackerKind::ProbBlock { block } => {
                self.snapshot_hashes(k, pid, |_| block)?;
            }
            TrackerKind::AdaptiveBlock { min_block, .. } => {
                let page_block = self.page_block.clone();
                self.snapshot_hashes(k, pid, |pn| {
                    page_block.get(&pn).copied().unwrap_or(min_block)
                })?;
            }
            TrackerKind::HardwareLine => {
                let p = k.process_mut(pid).ok_or(SimError::NoSuchProcess(pid))?;
                p.mem.arm_tracking(TrackMode::HardwareLine);
                let t = k.cost.hw_log_line_ns;
                k.charge(t);
            }
        }
        self.armed = true;
        Ok(())
    }

    fn snapshot_hashes(
        &mut self,
        k: &mut Kernel,
        pid: Pid,
        block_of: impl Fn(u64) -> u64,
    ) -> SimResult<()> {
        let p = k.process(pid).ok_or(SimError::NoSuchProcess(pid))?;
        let mut scanned = 0u64;
        let mut hashes = BTreeMap::new();
        for pn in p.mem.resident_pages().collect::<Vec<_>>() {
            let data = p.mem.page_data(pn).expect("resident");
            let block = block_of(pn).clamp(8, PAGE_SIZE);
            let hs: Vec<u64> = data.chunks(block as usize).map(digest64).collect();
            scanned += PAGE_SIZE;
            hashes.insert(pn, hs);
        }
        self.hashes = hashes;
        let t = k.cost.hash(scanned);
        k.charge(t);
        Ok(())
    }

    /// End a tracking interval: report what changed (and, for hash
    /// trackers, refresh the baseline). The caller should [`Tracker::arm`]
    /// again after the checkpoint completes.
    pub fn collect(&mut self, k: &mut Kernel, pid: Pid) -> SimResult<Collected> {
        match self.kind {
            TrackerKind::FullOnly => {
                let p = k.process(pid).ok_or(SimError::NoSuchProcess(pid))?;
                let pages: BTreeSet<u64> = p.mem.resident_pages().collect();
                let logical = pages.len() as u64 * PAGE_SIZE;
                Ok(Collected {
                    pages,
                    logical_dirty_bytes: logical,
                    full: true,
                })
            }
            TrackerKind::KernelPage => {
                let p = k.process(pid).ok_or(SimError::NoSuchProcess(pid))?;
                let pages = p.mem.dirty_pages.clone();
                Ok(Collected {
                    logical_dirty_bytes: pages.len() as u64 * PAGE_SIZE,
                    pages,
                    full: false,
                })
            }
            TrackerKind::UserPage => {
                let p = k.process(pid).ok_or(SimError::NoSuchProcess(pid))?;
                let pages = p.user_rt.dirty_bitmap.clone();
                Ok(Collected {
                    logical_dirty_bytes: pages.len() as u64 * PAGE_SIZE,
                    pages,
                    full: false,
                })
            }
            TrackerKind::ProbBlock { block } => self.collect_hashed(k, pid, |_, _| block),
            TrackerKind::AdaptiveBlock {
                min_block,
                max_block,
            } => {
                let page_block = self.page_block.clone();
                let out = self.collect_hashed(k, pid, move |pn, _| {
                    page_block.get(&pn).copied().unwrap_or(min_block)
                })?;
                // Adapt block sizes from this round's change density.
                self.adapt(&out, min_block, max_block);
                Ok(out)
            }
            TrackerKind::HardwareLine => {
                let p = k.process(pid).ok_or(SimError::NoSuchProcess(pid))?;
                let lines = p.mem.dirty_lines.clone();
                let pages: BTreeSet<u64> =
                    lines.iter().map(|l| l * CACHE_LINE / PAGE_SIZE).collect();
                Ok(Collected {
                    pages,
                    logical_dirty_bytes: lines.len() as u64 * CACHE_LINE,
                    full: false,
                })
            }
        }
    }

    fn collect_hashed(
        &mut self,
        k: &mut Kernel,
        pid: Pid,
        block_of: impl Fn(u64, u64) -> u64,
    ) -> SimResult<Collected> {
        let p = k.process(pid).ok_or(SimError::NoSuchProcess(pid))?;
        let mut pages = BTreeSet::new();
        let mut logical = 0u64;
        let mut scanned = 0u64;
        let mut new_hashes = BTreeMap::new();
        let mut changed_per_page: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
        for pn in p.mem.resident_pages().collect::<Vec<_>>() {
            let data = p.mem.page_data(pn).expect("resident");
            let block = block_of(pn, PAGE_SIZE).clamp(8, PAGE_SIZE);
            let hs: Vec<u64> = data.chunks(block as usize).map(digest64).collect();
            scanned += PAGE_SIZE;
            let old = self.hashes.get(&pn);
            let mut changed = 0u64;
            match old {
                None => {
                    // Newly materialized page: everything is new.
                    changed = hs.len() as u64;
                }
                Some(old) if old.len() != hs.len() => {
                    changed = hs.len() as u64;
                }
                Some(old) => {
                    for (a, b) in old.iter().zip(&hs) {
                        if a != b {
                            changed += 1;
                        }
                    }
                }
            }
            if changed > 0 {
                pages.insert(pn);
                logical += changed * block;
            }
            changed_per_page.insert(pn, (changed, hs.len() as u64));
            new_hashes.insert(pn, hs);
        }
        self.hashes = new_hashes;
        self.last_change_density = changed_per_page;
        let t = k.cost.hash(scanned);
        k.charge(t);
        Ok(Collected {
            pages,
            logical_dirty_bytes: logical,
            full: false,
        })
    }

    fn adapt(&mut self, _out: &Collected, min_block: u64, max_block: u64) {
        for (pn, (changed, total)) in self.last_change_density.clone() {
            if total == 0 {
                continue;
            }
            let cur = self.page_block.get(&pn).copied().unwrap_or(min_block);
            let frac = changed as f64 / total as f64;
            let next = if frac > 0.75 {
                (cur * 2).min(max_block)
            } else if frac < 0.25 && changed > 0 {
                (cur / 2).max(min_block)
            } else {
                cur
            };
            self.page_block.insert(pn, next);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simos::apps::{AppParams, NativeKind};
    use simos::cost::CostModel;

    fn kernel_with_app(kind: NativeKind, mem_bytes: u64) -> (Kernel, Pid) {
        let mut k = Kernel::new(CostModel::circa_2005());
        let mut params = AppParams::small();
        params.mem_bytes = mem_bytes;
        params.total_steps = u64::MAX;
        let pid = k.spawn_native(kind, params).unwrap();
        k.run_for(10_000_000).unwrap();
        (k, pid)
    }

    fn run_steps(k: &mut Kernel, pid: Pid, n: u64) {
        let w0 = k.process(pid).unwrap().work_done;
        while k.process(pid).unwrap().work_done < w0 + n {
            k.run_for(1_000).unwrap();
        }
    }

    #[test]
    fn full_tracker_reports_everything() {
        let (mut k, pid) = kernel_with_app(NativeKind::DenseSweep, 64 * 1024);
        let mut t = Tracker::new(TrackerKind::FullOnly);
        t.arm(&mut k, pid).unwrap();
        let c = t.collect(&mut k, pid).unwrap();
        assert!(c.full);
        assert_eq!(
            c.pages.len(),
            k.process(pid).unwrap().mem.resident_count()
        );
    }

    #[test]
    fn kernel_page_tracker_sees_sparse_writes() {
        let (mut k, pid) = kernel_with_app(NativeKind::SparseRandom, 1024 * 1024);
        let mut t = Tracker::new(TrackerKind::KernelPage);
        t.arm(&mut k, pid).unwrap();
        run_steps(&mut k, pid, 3);
        let c = t.collect(&mut k, pid).unwrap();
        assert!(!c.full);
        assert!(!c.pages.is_empty());
        // Far fewer dirty pages than resident ones.
        let resident = k.process(pid).unwrap().mem.resident_count();
        assert!(
            c.pages.len() < resident,
            "sparse writer dirtied {}/{resident} pages",
            c.pages.len()
        );
    }

    #[test]
    fn kernel_and_user_trackers_find_the_same_pages() {
        let dirty_with = |kind: TrackerKind| -> BTreeSet<u64> {
            let mut k = Kernel::new(CostModel::circa_2005());
            let mut params = AppParams::small();
            params.total_steps = u64::MAX;
            let pid = k.spawn_native(NativeKind::SparseRandom, params).unwrap();
            k.run_for(10_000_000).unwrap();
            // Align to a step boundary: freeze at identical work counts.
            let target = k.process(pid).unwrap().work_done + 5;
            let mut t = Tracker::new(kind);
            t.arm(&mut k, pid).unwrap();
            while k.process(pid).unwrap().work_done < target {
                k.run_for(10_000).unwrap();
            }
            // NOTE: both runs stop at the same work_done because the app is
            // deterministic and tracking does not change its behaviour.
            t.collect(&mut k, pid).unwrap().pages
        };
        let a = dirty_with(TrackerKind::KernelPage);
        let b = dirty_with(TrackerKind::UserPage);
        assert_eq!(a, b, "same workload must produce identical dirty sets");
    }

    #[test]
    fn tracker_soundness_captured_pages_cover_all_writes() {
        // Every page written during the interval must appear in the
        // collected set: compare against a ground-truth diff of memory
        // contents.
        let (mut k, pid) = kernel_with_app(NativeKind::SparseRandom, 256 * 1024);
        // Ground truth: snapshot all pages before.
        let before: BTreeMap<u64, Vec<u8>> = {
            let p = k.process(pid).unwrap();
            p.mem
                .resident_pages()
                .map(|pn| (pn, p.mem.page_data(pn).unwrap().to_vec()))
                .collect()
        };
        let mut t = Tracker::new(TrackerKind::KernelPage);
        t.arm(&mut k, pid).unwrap();
        run_steps(&mut k, pid, 5);
        k.freeze_process(pid).unwrap();
        let c = t.collect(&mut k, pid).unwrap();
        let p = k.process(pid).unwrap();
        for pn in p.mem.resident_pages().collect::<Vec<_>>() {
            let now = p.mem.page_data(pn).unwrap();
            let was = before.get(&pn).map(|v| &v[..]);
            let changed = was != Some(now);
            if changed {
                assert!(
                    c.pages.contains(&pn),
                    "page {pn} changed but was not tracked"
                );
            }
        }
    }

    #[test]
    fn prob_block_logical_bytes_below_page_tracker() {
        // A sparse writer touches few bytes per page; block tracking at
        // 64 B must report far fewer logical dirty bytes than the page
        // tracker.
        let (mut k, pid) = kernel_with_app(NativeKind::SparseRandom, 512 * 1024);
        let mut prob = Tracker::new(TrackerKind::ProbBlock { block: 64 });
        prob.arm(&mut k, pid).unwrap();
        run_steps(&mut k, pid, 3);
        let c = prob.collect(&mut k, pid).unwrap();
        assert!(!c.pages.is_empty());
        let page_equiv = c.pages.len() as u64 * PAGE_SIZE;
        assert!(
            c.logical_dirty_bytes < page_equiv / 4,
            "block granularity should shrink the delta: {} vs {}",
            c.logical_dirty_bytes,
            page_equiv
        );
    }

    #[test]
    fn prob_block_detects_single_byte_change() {
        let (mut k, pid) = kernel_with_app(NativeKind::SparseRandom, 64 * 1024);
        k.freeze_process(pid).unwrap();
        let mut t = Tracker::new(TrackerKind::ProbBlock { block: 256 });
        t.arm(&mut k, pid).unwrap();
        // Mutate exactly one byte behind the tracker's back.
        let addr = simos::apps::ARRAY_BASE + 1000;
        let p = k.process_mut(pid).unwrap();
        let mut b = [0u8; 1];
        p.mem.peek(addr, &mut b);
        p.mem.poke(addr, &[b[0] ^ 0xFF]);
        let c = t.collect(&mut k, pid).unwrap();
        assert_eq!(c.pages.len(), 1);
        assert_eq!(c.logical_dirty_bytes, 256);
    }

    #[test]
    fn prob_block_no_false_positives_when_idle() {
        let (mut k, pid) = kernel_with_app(NativeKind::SparseRandom, 64 * 1024);
        k.freeze_process(pid).unwrap();
        let mut t = Tracker::new(TrackerKind::ProbBlock { block: 128 });
        t.arm(&mut k, pid).unwrap();
        let c = t.collect(&mut k, pid).unwrap();
        assert!(c.pages.is_empty());
        assert_eq!(c.logical_dirty_bytes, 0);
    }

    #[test]
    fn hardware_line_tracker_finest_granularity() {
        let (mut k, pid) = kernel_with_app(NativeKind::SparseRandom, 512 * 1024);
        let mut t = Tracker::new(TrackerKind::HardwareLine);
        t.arm(&mut k, pid).unwrap();
        run_steps(&mut k, pid, 3);
        let c = t.collect(&mut k, pid).unwrap();
        assert!(!c.pages.is_empty());
        assert!(c.logical_dirty_bytes.is_multiple_of(CACHE_LINE));
        assert!(c.logical_dirty_bytes <= c.pages.len() as u64 * PAGE_SIZE);
    }

    #[test]
    fn hardware_tracking_adds_no_fault_overhead() {
        let (mut k, pid) = kernel_with_app(NativeKind::DenseSweep, 128 * 1024);
        let mut t = Tracker::new(TrackerKind::HardwareLine);
        t.arm(&mut k, pid).unwrap();
        let faults0 = k.stats.page_faults;
        run_steps(&mut k, pid, 3);
        assert_eq!(
            k.stats.page_faults, faults0,
            "hardware tracking must not take page faults"
        );
    }

    #[test]
    fn adaptive_blocks_grow_on_dense_pages() {
        let (mut k, pid) = kernel_with_app(NativeKind::DenseSweep, 64 * 1024);
        let mut t = Tracker::new(TrackerKind::AdaptiveBlock {
            min_block: 64,
            max_block: 4096,
        });
        t.arm(&mut k, pid).unwrap();
        for _ in 0..4 {
            run_steps(&mut k, pid, 2);
            t.collect(&mut k, pid).unwrap();
            t.arm(&mut k, pid).unwrap();
        }
        // Dense sweeps rewrite whole pages: block sizes should have grown.
        let grown = t
            .page_block
            .values()
            .filter(|b| **b > 64)
            .count();
        assert!(grown > 0, "no page grew its block size under dense writes");
    }

    #[test]
    fn omission_probability_formula() {
        // One block, 1-bit hash: 50%.
        assert!((Tracker::omission_probability(1, 1) - 0.5).abs() < 1e-12);
        // More blocks → higher omission chance.
        assert!(
            Tracker::omission_probability(100, 8) > Tracker::omission_probability(1, 8)
        );
        // 64-bit hash: negligible.
        assert!(Tracker::omission_probability(1_000_000, 64) < 1e-9);
    }

    #[test]
    #[should_panic(expected = "block size must be a power of two")]
    fn bad_block_size_rejected() {
        let _ = Tracker::new(TrackerKind::ProbBlock { block: 100 });
    }

    #[test]
    fn block_digest_distinguishes_blocks() {
        assert_ne!(digest64(b"aaaa"), digest64(b"aaab"));
        assert_ne!(digest64(&[0; 8]), digest64(&[0; 16]));
    }
}
