//! Guest virtual memory: pages, VMAs, protection, and write tracking.
//!
//! Memory is sparse: only touched pages are materialized. Every access goes
//! through protection checks, which is what makes the incremental
//! checkpointing techniques of the paper implementable — write-protecting
//! the address space and catching the first write to each page is exactly
//! the `mprotect`/`SIGSEGV` (user-level) or page-fault-handler
//! (system-level) scheme of Sections 3 and 4.1.
//!
//! The module also supports cache-line-granularity write logging for the
//! hardware-assisted model of Section 4.2 (ReVive/SafetyNet).
//!
//! ## The software TLB
//!
//! Resolving one guest access used to cost a `BTreeMap` walk to find the
//! page, a linear VMA scan when the page was absent, and a second walk to
//! fetch the data. A direct-mapped translation cache (`TlbEntry`,
//! `TLB_SIZE` entries) short-circuits both: it maps a page number to the
//! page's *slot* in a stable page store plus its effective protection, so
//! the hot path is one array probe. The cache is purely a host-side
//! accelerator — it never changes guest-visible behavior or virtual-time
//! accounting, only wall-clock. Its invalidation points are exactly the
//! paper's TLB-flush events: address-space operations (`mmap`/`munmap`/
//! `brk`), `mprotect`-based (re-)arming of write tracking, checkpoint
//! restore, and — driven by the kernel — the address-space switch.
//! Hit/miss/flush counts are reported in [`MemStats`].
//!
//! **The TLB invariant: an entry exists only for a resident page, and it
//! holds that page's slot and current effective protection.** Entries are
//! filled in exactly three places, each reading the protection off the
//! live page: `resolve_prot_slow`'s resident arm, `materialize_slot`, and
//! the miss arm of [`AddressSpace::read_unchecked`]. Every event that
//! frees a page or changes its protection removes what it made stale:
//! `remove_page` (under `munmap` and a `brk` shrink) and
//! [`AddressSpace::resolve_tracked_fault`] evict their one page;
//! [`AddressSpace::mprotect`], [`AddressSpace::arm_tracking`] (page modes),
//! [`AddressSpace::disarm_tracking`], the restore entry points
//! (`push_vma_raw`, `restore_brk`) and the kernel's mm switch flush the
//! whole cache. The checked path uses an entry only to skip map walks; the
//! aligned-word path ([`AddressSpace::load_word`] /
//! [`AddressSpace::store_word`]) relies on the invariant outright, which
//! is why it is written down here.
//!
//! Internal fallible operations use `Result<_, ()>`: the kernel maps every
//! failure to a single guest-visible errno, so a richer error type here
//! would add no information.
#![allow(clippy::result_unit_err)]

pub use crate::cost::PAGE_SIZE;
pub(crate) use crate::cost::CACHE_LINE;
use crate::types::FaultKind;
use std::collections::{BTreeMap, BTreeSet};

/// Page protection bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Prot(pub u8);

impl Prot {
    pub const NONE: Prot = Prot(0);
    pub const R: Prot = Prot(1);
    pub(crate) const W: Prot = Prot(2);
    pub const RW: Prot = Prot(1 | 2);
    pub const RX: Prot = Prot(1 | 4);

    pub(crate) fn readable(self) -> bool {
        self.0 & 1 != 0
    }
    pub(crate) fn writable(self) -> bool {
        self.0 & 2 != 0
    }
    pub(crate) fn executable(self) -> bool {
        self.0 & 4 != 0
    }
    pub(crate) fn union(self, other: Prot) -> Prot {
        Prot(self.0 | other.0)
    }
    pub(crate) fn without_write(self) -> Prot {
        Prot(self.0 & !2)
    }
}

impl std::fmt::Display for Prot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}{}{}",
            if self.readable() { 'r' } else { '-' },
            if self.writable() { 'w' } else { '-' },
            if self.executable() { 'x' } else { '-' }
        )
    }
}

/// What kind of region a VMA is — mirrors `/proc/<pid>/maps` classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VmaKind {
    Text,
    Data,
    Heap,
    Stack,
    Mmap,
    SharedLib,
}

/// A virtual memory area: a contiguous range of pages with common
/// protections, as tracked by the kernel (and dumped by VMADump-style
/// checkpointers).
#[derive(Debug, Clone, PartialEq)]
pub struct Vma {
    pub start: u64,
    pub end: u64, // exclusive, page-aligned
    pub prot: Prot,
    pub kind: VmaKind,
    pub name: String,
}

impl Vma {
    pub fn len(&self) -> u64 {
        self.end - self.start
    }
    /// `len`'s pair (a public `len` wants an `is_empty`).
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }
    pub(crate) fn contains(&self, addr: u64) -> bool {
        addr >= self.start && addr < self.end
    }
    pub(crate) fn pages(&self) -> impl Iterator<Item = u64> {
        (self.start / PAGE_SIZE)..(self.end / PAGE_SIZE)
    }
}

/// A materialized page.
#[derive(Clone)]
pub(crate) struct Page {
    pub(crate) data: Box<[u8]>,
    /// Effective protection (may be stricter than the owning VMA's
    /// protection while write-tracking is armed).
    pub(crate) prot: Prot,
}

impl Page {
    fn zeroed(prot: Prot) -> Self {
        Page {
            data: vec![0u8; PAGE_SIZE as usize].into_boxed_slice(),
            prot,
        }
    }
}

impl std::fmt::Debug for Page {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Page(prot={})", self.prot)
    }
}

/// How writes are being tracked, if at all. Configured by the
/// checkpoint/restart machinery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrackMode {
    /// No tracking.
    Off,
    /// System-level: the kernel page-fault handler records the dirty page
    /// and re-enables write access (Section 4.1).
    KernelPage,
    /// User-level: the fault is turned into a `SIGSEGV` delivered to a user
    /// handler which records the page and calls `mprotect` (Section 3).
    UserSigsegv,
    /// Hardware: every write is logged at cache-line granularity with no
    /// software cost (Section 4.2).
    HardwareLine,
}

/// Outcome of a raw access attempt, before the kernel's fault policy runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    Ok,
    Fault { addr: u64, kind: FaultKind },
}

/// Statistics the memory subsystem keeps for the embedder.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemStats {
    pub(crate) pages_materialized: u64,
    pub(crate) write_faults_tracked: u64,
    pub(crate) protection_faults: u64,
    pub bytes_written: u64,
    pub bytes_read: u64,
    /// Software-TLB probes answered from the cache.
    pub tlb_hits: u64,
    /// Software-TLB probes that fell back to the page-index walk.
    pub tlb_misses: u64,
    /// Full software-TLB flushes (mm switch, mprotect re-arm, unmap,
    /// restore — the paper's invalidation events).
    pub tlb_flushes: u64,
    /// Dirty-rate samples taken by live migration's per-round observer
    /// (see [`AddressSpace::sample_dirty`]).
    pub(crate) dirty_samples: u64,
    /// Total dirty pages seen across those samples (sum, so the mean
    /// per-round dirty set is `dirty_pages_sampled / dirty_samples`).
    pub(crate) dirty_pages_sampled: u64,
}

/// Number of entries in the direct-mapped software TLB.
const TLB_SIZE: usize = 128;

/// One software-TLB entry: page number → slot in the page store plus the
/// page's effective protection at fill time.
#[derive(Debug, Clone, Copy)]
struct TlbEntry {
    pn: u64,
    slot: u32,
    prot: Prot,
}

impl TlbEntry {
    /// `u64::MAX` is never a reachable guest page number (the layout tops
    /// out at [`STACK_TOP`]), so it doubles as the invalid marker.
    const INVALID: TlbEntry = TlbEntry {
        pn: u64::MAX,
        slot: 0,
        prot: Prot::NONE,
    };
}

#[inline]
fn tlb_idx(pn: u64) -> usize {
    (pn as usize) & (TLB_SIZE - 1)
}

/// A guest address space.
#[derive(Debug, Clone)]
pub struct AddressSpace {
    /// Page number → slot in `slots`. The indirection gives every
    /// materialized page a stable index the TLB can cache across unrelated
    /// inserts; only removal or protection change invalidates an entry.
    page_index: BTreeMap<u64, u32>,
    slots: Vec<Option<Page>>,
    free_slots: Vec<u32>,
    tlb: [TlbEntry; TLB_SIZE],
    /// Runtime switch for the translation cache (observational-equivalence
    /// tests run with it off; production paths leave it on).
    tlb_enabled: bool,
    vmas: Vec<Vma>,
    brk: u64,
    heap_base: u64,
    mmap_cursor: u64,
    pub(crate) track: TrackMode,
    /// Pages dirtied since tracking was last armed (kernel- or user-level;
    /// the user-level set models the user-space bitmap the SIGSEGV handler
    /// maintains, kept here for uniform inspection).
    pub dirty_pages: BTreeSet<u64>,
    /// Cache lines dirtied since tracking was armed (hardware mode).
    pub dirty_lines: BTreeSet<u64>,
    pub stats: MemStats,
}

pub const TEXT_BASE: u64 = 0x0000_0000_0040_0000;
pub const DATA_BASE: u64 = 0x0000_0000_0100_0000;
pub const HEAP_BASE: u64 = 0x0000_0000_0800_0000;
pub(crate) const MMAP_BASE: u64 = 0x0000_0000_4000_0000;
pub const STACK_TOP: u64 = 0x0000_0000_8000_0000;
pub(crate) const STACK_PAGES: u64 = 64;

impl AddressSpace {
    /// Create an address space with the canonical text/data/heap/stack
    /// layout.
    pub fn new(text_bytes: u64, data_bytes: u64) -> Self {
        let mut a = AddressSpace {
            page_index: BTreeMap::new(),
            slots: Vec::new(),
            free_slots: Vec::new(),
            tlb: [TlbEntry::INVALID; TLB_SIZE],
            tlb_enabled: true,
            vmas: Vec::new(),
            brk: HEAP_BASE,
            heap_base: HEAP_BASE,
            mmap_cursor: MMAP_BASE,
            track: TrackMode::Off,
            dirty_pages: BTreeSet::new(),
            dirty_lines: BTreeSet::new(),
            stats: MemStats::default(),
        };
        let text_end = TEXT_BASE + round_up(text_bytes.max(1), PAGE_SIZE);
        a.vmas.push(Vma {
            start: TEXT_BASE,
            end: text_end,
            prot: Prot::RX,
            kind: VmaKind::Text,
            name: "[text]".into(),
        });
        let data_end = DATA_BASE + round_up(data_bytes.max(1), PAGE_SIZE);
        a.vmas.push(Vma {
            start: DATA_BASE,
            end: data_end,
            prot: Prot::RW,
            kind: VmaKind::Data,
            name: "[data]".into(),
        });
        a.vmas.push(Vma {
            start: HEAP_BASE,
            end: HEAP_BASE,
            prot: Prot::RW,
            kind: VmaKind::Heap,
            name: "[heap]".into(),
        });
        a.vmas.push(Vma {
            start: STACK_TOP - STACK_PAGES * PAGE_SIZE,
            end: STACK_TOP,
            prot: Prot::RW,
            kind: VmaKind::Stack,
            name: "[stack]".into(),
        });
        a
    }

    // ------------------------------------------------------------------
    // Software TLB.
    // ------------------------------------------------------------------

    /// Enable or disable the translation cache at runtime. Disabling forces
    /// every access down the slow page-index/VMA walk; re-enabling starts
    /// from a cold cache. Guest-visible behavior is identical either way.
    pub fn set_tlb_enabled(&mut self, enabled: bool) {
        if enabled && !self.tlb_enabled {
            self.tlb = [TlbEntry::INVALID; TLB_SIZE];
        }
        self.tlb_enabled = enabled;
    }

    /// Flush the whole translation cache — one of the paper's invalidation
    /// events (the kernel calls this on the address-space switch; internal
    /// callers on `mprotect` re-arm, unmap, and restore).
    pub(crate) fn tlb_flush(&mut self) {
        self.tlb = [TlbEntry::INVALID; TLB_SIZE];
        self.stats.tlb_flushes += 1;
    }

    /// Invalidate the single entry for `pn` (the per-page `mprotect` the
    /// tracking fault handler performs — no full flush needed).
    #[inline]
    fn tlb_evict(&mut self, pn: u64) {
        let e = &mut self.tlb[tlb_idx(pn)];
        if e.pn == pn {
            *e = TlbEntry::INVALID;
        }
    }

    #[inline]
    fn tlb_fill(&mut self, pn: u64, slot: u32, prot: Prot) {
        if self.tlb_enabled {
            self.tlb[tlb_idx(pn)] = TlbEntry { pn, slot, prot };
        }
    }

    /// Slow path behind a TLB miss on the protection walk: consult the page
    /// index (filling the TLB on residency) or fall back to the VMA scan.
    fn resolve_prot_slow(&mut self, pn: u64) -> Option<Prot> {
        if let Some(&slot) = self.page_index.get(&pn) {
            let prot = self.slots[slot as usize].as_ref().expect("live slot").prot;
            self.tlb_fill(pn, slot, prot);
            return Some(prot);
        }
        self.vma_of(pn * PAGE_SIZE).map(|v| v.prot)
    }

    /// Resolve the slot for a write to `pn`, materializing on demand. This
    /// is the single place protection/residency is resolved for the data
    /// half of an access — a TLB hit skips both map walks.
    #[inline]
    fn slot_for_write(&mut self, pn: u64) -> u32 {
        if self.tlb_enabled {
            let e = self.tlb[tlb_idx(pn)];
            if e.pn == pn {
                self.stats.tlb_hits += 1;
                return e.slot;
            }
            self.stats.tlb_misses += 1;
        }
        self.materialize_slot(pn)
    }

    fn materialize_slot(&mut self, pn: u64) -> u32 {
        if let Some(&slot) = self.page_index.get(&pn) {
            let prot = self.slots[slot as usize].as_ref().expect("live slot").prot;
            self.tlb_fill(pn, slot, prot);
            return slot;
        }
        let prot = self
            .vma_of(pn * PAGE_SIZE)
            .map(|v| v.prot)
            .unwrap_or(Prot::NONE);
        let slot = match self.free_slots.pop() {
            Some(s) => {
                self.slots[s as usize] = Some(Page::zeroed(prot));
                s
            }
            None => {
                self.slots.push(Some(Page::zeroed(prot)));
                (self.slots.len() - 1) as u32
            }
        };
        self.page_index.insert(pn, slot);
        self.stats.pages_materialized += 1;
        self.tlb_fill(pn, slot, prot);
        slot
    }

    fn remove_page(&mut self, pn: u64) {
        if let Some(slot) = self.page_index.remove(&pn) {
            self.slots[slot as usize] = None;
            self.free_slots.push(slot);
        }
        self.tlb_evict(pn);
        self.dirty_pages.remove(&pn);
    }

    #[inline]
    fn page_ref(&self, pn: u64) -> Option<&Page> {
        self.page_index
            .get(&pn)
            .map(|&slot| self.slots[slot as usize].as_ref().expect("live slot"))
    }

    // ------------------------------------------------------------------
    // Layout operations.
    // ------------------------------------------------------------------

    /// The VMAs, in address order.
    pub fn vmas(&self) -> &[Vma] {
        &self.vmas
    }

    /// Current program break (heap end).
    pub fn brk(&self) -> u64 {
        self.brk
    }

    /// Grow/shrink the heap; returns the new break. Mirrors `sbrk`.
    pub fn sbrk(&mut self, delta: i64) -> Result<u64, ()> {
        let new = if delta >= 0 {
            self.brk.checked_add(delta as u64).ok_or(())?
        } else {
            self.brk.checked_sub((-delta) as u64).ok_or(())?
        };
        self.set_brk(new)
    }

    /// Set the program break. Mirrors `brk`.
    pub(crate) fn set_brk(&mut self, new: u64) -> Result<u64, ()> {
        if new < self.heap_base || new > MMAP_BASE {
            return Err(());
        }
        let new_end = round_up(new, PAGE_SIZE);
        let heap = self
            .vmas
            .iter_mut()
            .find(|v| v.kind == VmaKind::Heap)
            .expect("heap vma");
        let old_end = heap.end;
        heap.end = new_end.max(heap.start);
        self.brk = new;
        // Release pages beyond a shrunken heap (a TLB invalidation event).
        if new_end < old_end {
            let first_gone = new_end / PAGE_SIZE;
            let last = old_end / PAGE_SIZE;
            for pn in first_gone..last {
                self.remove_page(pn);
            }
            self.stats.tlb_flushes += 1;
        }
        Ok(self.brk)
    }

    /// Map a fresh anonymous region (mirrors `mmap(MAP_ANONYMOUS)`).
    pub fn mmap(&mut self, len: u64, prot: Prot, name: &str) -> Result<u64, ()> {
        if len == 0 {
            return Err(());
        }
        let len = round_up(len, PAGE_SIZE);
        let start = self.mmap_cursor;
        let end = start.checked_add(len).ok_or(())?;
        if end > STACK_TOP - STACK_PAGES * PAGE_SIZE {
            return Err(());
        }
        self.mmap_cursor = end;
        self.vmas.push(Vma {
            start,
            end,
            prot,
            kind: VmaKind::Mmap,
            name: name.to_string(),
        });
        self.vmas.sort_by_key(|v| v.start);
        Ok(start)
    }

    /// Insert a VMA at an explicit address — used only when *restoring* a
    /// checkpoint image, where regions must reappear exactly where they
    /// were. Keeps the mmap cursor beyond the restored region.
    pub fn push_vma_raw(&mut self, vma: Vma) {
        if vma.kind == VmaKind::Mmap {
            self.mmap_cursor = self.mmap_cursor.max(vma.end);
        }
        if vma.kind == VmaKind::Heap {
            self.brk = self.brk.max(vma.end);
        }
        self.vmas.retain(|v| !(v.start == vma.start && v.kind == vma.kind));
        self.vmas.push(vma);
        self.vmas.sort_by_key(|v| v.start);
        self.tlb_flush();
    }

    /// Force the program break to an exact restored value.
    pub fn restore_brk(&mut self, brk: u64) {
        self.brk = brk;
        let new_end = round_up(brk, PAGE_SIZE);
        if let Some(heap) = self.vmas.iter_mut().find(|v| v.kind == VmaKind::Heap) {
            heap.end = new_end.max(heap.start);
        }
        self.tlb_flush();
    }

    /// Unmap a previously mmapped region. Only whole-VMA unmaps are
    /// supported (sufficient for the guests we run).
    pub fn munmap(&mut self, addr: u64) -> Result<(), ()> {
        let idx = self
            .vmas
            .iter()
            .position(|v| v.start == addr && v.kind == VmaKind::Mmap)
            .ok_or(())?;
        let vma = self.vmas.remove(idx);
        for pn in vma.pages() {
            self.remove_page(pn);
        }
        self.stats.tlb_flushes += 1;
        Ok(())
    }

    /// Change protection on `[addr, addr+len)`. Affects both the VMA's
    /// nominal protection and any materialized pages. Returns the number of
    /// pages affected (for cost accounting).
    pub fn mprotect(&mut self, addr: u64, len: u64, prot: Prot) -> Result<u64, ()> {
        if !addr.is_multiple_of(PAGE_SIZE) || len == 0 {
            return Err(());
        }
        // Must lie within mapped VMAs.
        if !self.maps(addr, len) {
            return Err(());
        }
        let end = round_up(addr + len, PAGE_SIZE);
        let mut count = 0;
        for pn in (addr / PAGE_SIZE)..(end / PAGE_SIZE) {
            if let Some(&slot) = self.page_index.get(&pn) {
                self.slots[slot as usize].as_mut().expect("live slot").prot = prot;
            }
            count += 1;
        }
        // Protection changed under cached translations: flush (the paper's
        // mprotect invalidation event).
        self.tlb_flush();
        // Note: we deliberately do not split VMAs; nominal VMA protection is
        // left untouched and effective protection lives on the pages. The
        // checkpointers that arm tracking always operate page-wise.
        Ok(count)
    }

    /// Whether VMAs cover every byte of `[addr, addr + len)` — the extent
    /// test for a guest-supplied `(pointer, length)` pair, asked before
    /// anything is sized from `len`. Protection is not consulted: a page
    /// write-protected for tracking is mapped, and the access resolves it.
    pub(crate) fn maps(&self, addr: u64, len: u64) -> bool {
        let Some(end) = addr.checked_add(len) else {
            return false;
        };
        let mut cursor = addr;
        while cursor < end {
            match self.vma_of(cursor) {
                Some(v) => cursor = v.end,
                None => return false,
            }
        }
        true
    }

    /// The VMA covering `addr`, if any.
    pub(crate) fn vma_of(&self, addr: u64) -> Option<&Vma> {
        self.vmas.iter().find(|v| v.contains(addr))
    }

    /// Check whether a write of `len` bytes at `addr` would succeed, without
    /// performing it.
    pub fn check_write(&mut self, addr: u64, len: u64) -> AccessOutcome {
        self.check(addr, len, true)
    }

    /// Check whether a read of `len` bytes at `addr` would succeed.
    pub fn check_read(&mut self, addr: u64, len: u64) -> AccessOutcome {
        self.check(addr, len, false)
    }

    fn check(&mut self, addr: u64, len: u64, write: bool) -> AccessOutcome {
        if len == 0 {
            return AccessOutcome::Ok;
        }
        let first = addr / PAGE_SIZE;
        // `addr` and `len` are the guest's: a range that wraps `u64` or
        // reaches past the top of the layout maps nowhere.
        let last = match addr.checked_add(len - 1) {
            Some(end) if end < STACK_TOP => end / PAGE_SIZE,
            _ => {
                return AccessOutcome::Fault {
                    addr: first * PAGE_SIZE,
                    kind: FaultKind::NotMapped,
                }
            }
        };
        for pn in first..=last {
            let prot = if self.tlb_enabled {
                let e = self.tlb[tlb_idx(pn)];
                if e.pn == pn {
                    self.stats.tlb_hits += 1;
                    Some(e.prot)
                } else {
                    self.stats.tlb_misses += 1;
                    self.resolve_prot_slow(pn)
                }
            } else {
                self.resolve_prot_slow(pn)
            };
            match prot {
                None => {
                    return AccessOutcome::Fault {
                        addr: pn * PAGE_SIZE,
                        kind: FaultKind::NotMapped,
                    }
                }
                Some(p) => {
                    if write && !p.writable() {
                        return AccessOutcome::Fault {
                            addr: pn * PAGE_SIZE,
                            kind: FaultKind::WriteProtected,
                        };
                    }
                    if !write && !p.readable() {
                        return AccessOutcome::Fault {
                            addr: pn * PAGE_SIZE,
                            kind: FaultKind::ReadProtected,
                        };
                    }
                }
            }
        }
        AccessOutcome::Ok
    }

    /// Write bytes, assuming protection has already been checked/handled by
    /// the kernel. Records dirty info according to the current track mode.
    pub fn write_unchecked(&mut self, addr: u64, bytes: &[u8]) {
        self.stats.bytes_written += bytes.len() as u64;
        if self.track == TrackMode::HardwareLine {
            let first = addr / CACHE_LINE;
            let last = (addr + bytes.len().max(1) as u64 - 1) / CACHE_LINE;
            for line in first..=last {
                self.dirty_lines.insert(line);
            }
        }
        let mut off = 0usize;
        let mut cur = addr;
        while off < bytes.len() {
            let pn = cur / PAGE_SIZE;
            let in_page = (cur % PAGE_SIZE) as usize;
            let n = ((PAGE_SIZE as usize) - in_page).min(bytes.len() - off);
            let slot = self.slot_for_write(pn);
            let page = self.slots[slot as usize].as_mut().expect("live slot");
            page.data[in_page..in_page + n].copy_from_slice(&bytes[off..off + n]);
            off += n;
            cur += n as u64;
        }
    }

    /// Read bytes, assuming protection has been checked.
    pub fn read_unchecked(&mut self, addr: u64, out: &mut [u8]) {
        self.stats.bytes_read += out.len() as u64;
        let mut off = 0usize;
        let mut cur = addr;
        while off < out.len() {
            let pn = cur / PAGE_SIZE;
            let in_page = (cur % PAGE_SIZE) as usize;
            let n = ((PAGE_SIZE as usize) - in_page).min(out.len() - off);
            let slot = if self.tlb_enabled {
                let e = self.tlb[tlb_idx(pn)];
                if e.pn == pn {
                    self.stats.tlb_hits += 1;
                    Some(e.slot)
                } else {
                    self.stats.tlb_misses += 1;
                    self.page_index.get(&pn).copied().inspect(|&slot| {
                        let prot =
                            self.slots[slot as usize].as_ref().expect("live slot").prot;
                        self.tlb[tlb_idx(pn)] = TlbEntry { pn, slot, prot };
                    })
                }
            } else {
                self.page_index.get(&pn).copied()
            };
            match slot {
                Some(slot) => {
                    let p = self.slots[slot as usize].as_ref().expect("live slot");
                    out[off..off + n].copy_from_slice(&p.data[in_page..in_page + n]);
                }
                None => out[off..off + n].fill(0),
            }
            off += n;
            cur += n as u64;
        }
    }

    /// The resident page behind an aligned word at `addr`, through one TLB
    /// probe — or `None`, having touched nothing, when the TLB is off, the
    /// address is not 8-byte aligned (so the word might cross a page) or
    /// no entry for the page `grants` the access. By the TLB invariant
    /// (module docs) a granting entry proves all that `check` followed by
    /// the unchecked access's own probe would establish: the page is
    /// mapped, resident at this slot, and its current effective protection
    /// allows the access — so no fault, fresh-page note or tracked-write
    /// resolution is due.
    #[inline]
    fn word_slot(&self, addr: u64, grants: impl Fn(Prot) -> bool) -> Option<usize> {
        if !self.tlb_enabled || !addr.is_multiple_of(8) {
            return None;
        }
        let pn = addr / PAGE_SIZE;
        let e = self.tlb[tlb_idx(pn)];
        (e.pn == pn && grants(e.prot)).then_some(e.slot as usize)
    }

    /// Load one aligned guest word for a single translation: exactly
    /// `check_read(addr, 8)` then `read_unchecked` when both would hit the
    /// TLB — the same bytes and the same counters (two hits, eight bytes
    /// read). `None` means the access is not of that kind; nothing was
    /// touched, and the caller takes the checked path.
    #[inline]
    pub fn load_word(&mut self, addr: u64) -> Option<u64> {
        let slot = self.word_slot(addr, Prot::readable)?;
        let page = self.slots[slot].as_ref().expect("live slot");
        let at = (addr % PAGE_SIZE) as usize;
        let word = page.data[at..at + 8].try_into().expect("eight bytes");
        self.stats.tlb_hits += 2;
        self.stats.bytes_read += 8;
        Some(u64::from_le_bytes(word))
    }

    /// Store one aligned guest word for a single translation: exactly
    /// `check_write(addr, 8)` then `write_unchecked` when both would hit
    /// the TLB (see [`AddressSpace::load_word`]). Also refuses under
    /// [`TrackMode::HardwareLine`], whose line log only the checked path
    /// keeps. `false` means nothing was touched. The copy-on-write set
    /// lives on the process, not here: the kernel checks it first.
    #[inline]
    pub fn store_word(&mut self, addr: u64, val: u64) -> bool {
        if self.track == TrackMode::HardwareLine {
            return false;
        }
        let Some(slot) = self.word_slot(addr, Prot::writable) else {
            return false;
        };
        let page = self.slots[slot].as_mut().expect("live slot");
        let at = (addr % PAGE_SIZE) as usize;
        page.data[at..at + 8].copy_from_slice(&val.to_le_bytes());
        self.stats.tlb_hits += 2;
        self.stats.bytes_written += 8;
        true
    }

    /// Read without touching stats — used by checkpointers walking memory
    /// from kernel context (they charge copy costs separately).
    pub fn peek(&self, addr: u64, out: &mut [u8]) {
        let mut off = 0usize;
        let mut cur = addr;
        while off < out.len() {
            let pn = cur / PAGE_SIZE;
            let in_page = (cur % PAGE_SIZE) as usize;
            let n = ((PAGE_SIZE as usize) - in_page).min(out.len() - off);
            match self.page_ref(pn) {
                Some(p) => out[off..off + n].copy_from_slice(&p.data[in_page..in_page + n]),
                None => out[off..off + n].fill(0),
            }
            off += n;
            cur += n as u64;
        }
    }

    /// Write without protection interaction — used when *restoring* a
    /// checkpoint image into a fresh address space.
    pub fn poke(&mut self, addr: u64, bytes: &[u8]) {
        let mut off = 0usize;
        let mut cur = addr;
        while off < bytes.len() {
            let pn = cur / PAGE_SIZE;
            let in_page = (cur % PAGE_SIZE) as usize;
            let n = ((PAGE_SIZE as usize) - in_page).min(bytes.len() - off);
            let slot = self.slot_for_write(pn);
            let page = self.slots[slot as usize].as_mut().expect("live slot");
            page.data[in_page..in_page + n].copy_from_slice(&bytes[off..off + n]);
            off += n;
            cur += n as u64;
        }
    }

    /// Page numbers of all materialized (resident) pages, in order.
    pub fn resident_pages(&self) -> impl Iterator<Item = u64> + '_ {
        self.page_index.keys().copied()
    }

    /// Number of resident pages.
    pub fn resident_count(&self) -> usize {
        self.page_index.len()
    }

    /// Raw page contents (for checkpointers). `None` if not materialized.
    pub fn page_data(&self, pn: u64) -> Option<&[u8]> {
        self.page_ref(pn).map(|p| &*p.data)
    }

    /// Effective protection of a materialized page.
    pub fn page_prot(&self, pn: u64) -> Option<Prot> {
        self.page_ref(pn).map(|p| p.prot)
    }

    /// Arm write tracking: write-protect every resident writable page (for
    /// the page-granularity modes) or clear the line log (hardware mode).
    /// Returns the number of pages protected (for mprotect cost accounting).
    pub fn arm_tracking(&mut self, mode: TrackMode) -> u64 {
        self.track = mode;
        self.dirty_pages.clear();
        self.dirty_lines.clear();
        match mode {
            TrackMode::Off | TrackMode::HardwareLine => 0,
            TrackMode::KernelPage | TrackMode::UserSigsegv => {
                let mut n = 0;
                for &slot in self.page_index.values() {
                    let page = self.slots[slot as usize].as_mut().expect("live slot");
                    if page.prot.writable() {
                        page.prot = page.prot.without_write();
                        n += 1;
                    }
                }
                // Cached protections went stale wholesale: the mprotect
                // re-arm is one of the paper's flush events.
                self.tlb_flush();
                n
            }
        }
    }

    /// Observe the current dirty set without disturbing it: live
    /// migration's per-round dirty-rate sampler. Returns the dirty-page
    /// count and folds it into `MemStats::dirty_samples` /
    /// `MemStats::dirty_pages_sampled`.
    pub fn sample_dirty(&mut self) -> u64 {
        let n = self.dirty_pages.len() as u64;
        self.stats.dirty_samples += 1;
        self.stats.dirty_pages_sampled += n;
        n
    }

    /// Handle a tracked write fault on `pn`: record it dirty and restore
    /// write permission. Returns `true` if this was indeed a tracked page.
    pub fn resolve_tracked_fault(&mut self, pn: u64) -> bool {
        let nominal_writable = self
            .vma_of(pn * PAGE_SIZE)
            .map(|v| v.prot.writable())
            .unwrap_or(false);
        if !nominal_writable {
            return false;
        }
        let slot = self.materialize_slot(pn);
        let page = self.slots[slot as usize].as_mut().expect("live slot");
        if page.prot.writable() {
            // Already writable: not a tracking fault.
            return false;
        }
        page.prot = page.prot.union(Prot::W);
        // Single-page invalidation: the handler's per-page mprotect.
        self.tlb_evict(pn);
        self.dirty_pages.insert(pn);
        self.stats.write_faults_tracked += 1;
        true
    }

    /// A fresh-page write to an unmaterialized tracked page also counts as a
    /// dirtying event (zero pages are materialized on demand).
    pub(crate) fn note_fresh_dirty(&mut self, pn: u64) {
        if matches!(self.track, TrackMode::KernelPage | TrackMode::UserSigsegv) {
            self.dirty_pages.insert(pn);
        }
    }

    /// Disarm tracking and restore nominal protections.
    pub fn disarm_tracking(&mut self) -> u64 {
        self.track = TrackMode::Off;
        let vmas = self.vmas.clone();
        let mut n = 0;
        for (&pn, &slot) in self.page_index.iter() {
            let page = self.slots[slot as usize].as_mut().expect("live slot");
            if let Some(v) = vmas.iter().find(|v| v.contains(pn * PAGE_SIZE)) {
                if page.prot != v.prot {
                    page.prot = v.prot;
                    n += 1;
                }
            }
        }
        self.tlb_flush();
        n
    }

    /// Total bytes resident.
    pub fn resident_bytes(&self) -> u64 {
        self.page_index.len() as u64 * PAGE_SIZE
    }

    /// Render a `/proc/<pid>/maps`-style listing.
    pub fn maps_listing(&self) -> String {
        let mut s = String::new();
        for v in &self.vmas {
            s.push_str(&format!(
                "{:012x}-{:012x} {} {:?} {}\n",
                v.start, v.end, v.prot, v.kind, v.name
            ));
        }
        s
    }
}

/// Round `x` up to a multiple of `to` (power of two not required).
pub(crate) fn round_up(x: u64, to: u64) -> u64 {
    x.div_ceil(to) * to
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> AddressSpace {
        AddressSpace::new(8 * PAGE_SIZE, 16 * PAGE_SIZE)
    }

    #[test]
    fn layout_has_four_canonical_vmas() {
        let a = space();
        let kinds: Vec<_> = a.vmas().iter().map(|v| v.kind).collect();
        assert!(kinds.contains(&VmaKind::Text));
        assert!(kinds.contains(&VmaKind::Data));
        assert!(kinds.contains(&VmaKind::Heap));
        assert!(kinds.contains(&VmaKind::Stack));
    }

    #[test]
    fn write_then_read_round_trips() {
        let mut a = space();
        let addr = DATA_BASE + 100;
        a.write_unchecked(addr, b"hello world");
        let mut buf = [0u8; 11];
        a.read_unchecked(addr, &mut buf);
        assert_eq!(&buf, b"hello world");
    }

    #[test]
    fn cross_page_write_round_trips() {
        let mut a = space();
        let addr = DATA_BASE + PAGE_SIZE - 3;
        let payload: Vec<u8> = (0..10u8).collect();
        a.write_unchecked(addr, &payload);
        let mut buf = [0u8; 10];
        a.read_unchecked(addr, &mut buf);
        assert_eq!(buf.to_vec(), payload);
        assert_eq!(a.resident_count(), 2);
    }

    #[test]
    fn unmapped_access_faults() {
        let mut a = space();
        match a.check_write(0xdead_0000_0000, 4) {
            AccessOutcome::Fault { kind, .. } => assert_eq!(kind, FaultKind::NotMapped),
            AccessOutcome::Ok => panic!("expected fault"),
        }
    }

    #[test]
    fn text_is_not_writable() {
        let mut a = space();
        match a.check_write(TEXT_BASE, 4) {
            AccessOutcome::Fault { kind, .. } => assert_eq!(kind, FaultKind::WriteProtected),
            AccessOutcome::Ok => panic!("expected fault"),
        }
        assert_eq!(a.check_read(TEXT_BASE, 4), AccessOutcome::Ok);
    }

    #[test]
    fn sbrk_grows_and_shrinks_heap() {
        let mut a = space();
        let b0 = a.brk();
        let b1 = a.sbrk(3 * PAGE_SIZE as i64).unwrap();
        assert_eq!(b1, b0 + 3 * PAGE_SIZE);
        a.write_unchecked(b0, &[1, 2, 3]);
        assert!(a.resident_count() >= 1);
        let b2 = a.sbrk(-(3 * PAGE_SIZE as i64)).unwrap();
        assert_eq!(b2, b0);
        // Heap page released.
        assert_eq!(a.page_data(b0 / PAGE_SIZE), None);
    }

    #[test]
    fn sbrk_below_base_fails() {
        let mut a = space();
        assert!(a.sbrk(-(PAGE_SIZE as i64)).is_err());
    }

    #[test]
    fn mmap_and_munmap() {
        let mut a = space();
        let addr = a.mmap(5 * PAGE_SIZE, Prot::RW, "anon").unwrap();
        assert!(addr >= MMAP_BASE);
        a.write_unchecked(addr, &[9; 64]);
        assert_eq!(a.check_write(addr, 64), AccessOutcome::Ok);
        a.munmap(addr).unwrap();
        assert!(matches!(
            a.check_write(addr, 1),
            AccessOutcome::Fault {
                kind: FaultKind::NotMapped,
                ..
            }
        ));
    }

    #[test]
    fn munmap_unknown_region_fails() {
        let mut a = space();
        assert!(a.munmap(0x7777_0000).is_err());
    }

    #[test]
    fn arm_tracking_write_protects_resident_pages() {
        let mut a = space();
        a.write_unchecked(DATA_BASE, &[1; 100]);
        let protected = a.arm_tracking(TrackMode::KernelPage);
        assert_eq!(protected, 1);
        match a.check_write(DATA_BASE, 1) {
            AccessOutcome::Fault { kind, .. } => assert_eq!(kind, FaultKind::WriteProtected),
            AccessOutcome::Ok => panic!("tracking did not protect"),
        }
        // Resolving the fault dirties the page and restores write access.
        assert!(a.resolve_tracked_fault(DATA_BASE / PAGE_SIZE));
        assert_eq!(a.check_write(DATA_BASE, 1), AccessOutcome::Ok);
        assert!(a.dirty_pages.contains(&(DATA_BASE / PAGE_SIZE)));
    }

    #[test]
    fn resolve_fault_on_truly_readonly_page_is_rejected() {
        let mut a = space();
        a.arm_tracking(TrackMode::KernelPage);
        // Text pages are not nominally writable: a write there is a real
        // protection violation, not a tracking fault.
        assert!(!a.resolve_tracked_fault(TEXT_BASE / PAGE_SIZE));
    }

    #[test]
    fn disarm_restores_nominal_protection() {
        let mut a = space();
        a.write_unchecked(DATA_BASE, &[1; 8]);
        a.arm_tracking(TrackMode::KernelPage);
        a.disarm_tracking();
        assert_eq!(a.check_write(DATA_BASE, 1), AccessOutcome::Ok);
        assert_eq!(a.track, TrackMode::Off);
    }

    #[test]
    fn hardware_mode_logs_cache_lines() {
        let mut a = space();
        a.arm_tracking(TrackMode::HardwareLine);
        a.write_unchecked(DATA_BASE, &[1; 1]);
        a.write_unchecked(DATA_BASE + 200, &[1; 1]);
        assert_eq!(a.dirty_lines.len(), 2);
        // Same line twice → still one entry.
        a.write_unchecked(DATA_BASE + 1, &[2; 1]);
        assert_eq!(a.dirty_lines.len(), 2);
    }

    #[test]
    fn mprotect_counts_pages_and_applies() {
        let mut a = space();
        a.write_unchecked(DATA_BASE, &[1; (2 * PAGE_SIZE) as usize]);
        let n = a
            .mprotect(DATA_BASE, 2 * PAGE_SIZE, Prot::R)
            .expect("mprotect");
        assert_eq!(n, 2);
        assert!(matches!(
            a.check_write(DATA_BASE, 1),
            AccessOutcome::Fault { .. }
        ));
        a.mprotect(DATA_BASE, 2 * PAGE_SIZE, Prot::RW).unwrap();
        assert_eq!(a.check_write(DATA_BASE, 1), AccessOutcome::Ok);
    }

    #[test]
    fn mprotect_rejects_unmapped_and_unaligned() {
        let mut a = space();
        assert!(a.mprotect(DATA_BASE + 1, 10, Prot::R).is_err());
        assert!(a.mprotect(0xdd00_0000_0000, PAGE_SIZE, Prot::R).is_err());
    }

    #[test]
    fn maps_listing_mentions_all_vmas() {
        let a = space();
        let listing = a.maps_listing();
        assert!(listing.contains("[text]"));
        assert!(listing.contains("[heap]"));
        assert!(listing.contains("[stack]"));
    }

    #[test]
    fn peek_poke_do_not_affect_stats() {
        let mut a = space();
        a.poke(DATA_BASE, &[7; 32]);
        let mut buf = [0u8; 32];
        a.peek(DATA_BASE, &mut buf);
        assert_eq!(buf, [7; 32]);
        assert_eq!(a.stats.bytes_written, 0);
        assert_eq!(a.stats.bytes_read, 0);
    }

    #[test]
    fn round_up_works() {
        assert_eq!(round_up(0, 4096), 0);
        assert_eq!(round_up(1, 4096), 4096);
        assert_eq!(round_up(4096, 4096), 4096);
        assert_eq!(round_up(4097, 4096), 8192);
    }

    // --- software-TLB behavior ---

    #[test]
    fn repeated_access_hits_the_tlb() {
        let mut a = space();
        a.write_unchecked(DATA_BASE, &[1; 8]);
        let miss0 = a.stats.tlb_misses;
        let hit0 = a.stats.tlb_hits;
        for i in 0..100u64 {
            a.write_unchecked(DATA_BASE + i * 8, &[2; 8]);
        }
        assert_eq!(a.stats.tlb_misses, miss0, "same page must not re-miss");
        assert_eq!(a.stats.tlb_hits, hit0 + 100);
    }

    #[test]
    fn checked_write_resolves_protection_once_per_page() {
        let mut a = space();
        a.write_unchecked(DATA_BASE, &[1; 8]); // materialize + fill
        let miss0 = a.stats.tlb_misses;
        // check + data access both hit the cached translation.
        assert_eq!(a.check_write(DATA_BASE + 64, 8), AccessOutcome::Ok);
        a.write_unchecked(DATA_BASE + 64, &[3; 8]);
        assert_eq!(a.stats.tlb_misses, miss0);
    }

    #[test]
    fn mprotect_flushes_tlb() {
        let mut a = space();
        a.write_unchecked(DATA_BASE, &[1; 8]);
        let f0 = a.stats.tlb_flushes;
        a.mprotect(DATA_BASE, PAGE_SIZE, Prot::R).unwrap();
        assert_eq!(a.stats.tlb_flushes, f0 + 1);
        // Stale writable translation must not survive the flush.
        assert!(matches!(
            a.check_write(DATA_BASE, 1),
            AccessOutcome::Fault {
                kind: FaultKind::WriteProtected,
                ..
            }
        ));
    }

    #[test]
    fn arm_and_disarm_flush_tlb() {
        let mut a = space();
        a.write_unchecked(DATA_BASE, &[1; 8]);
        let f0 = a.stats.tlb_flushes;
        a.arm_tracking(TrackMode::KernelPage);
        assert_eq!(a.stats.tlb_flushes, f0 + 1);
        a.disarm_tracking();
        assert_eq!(a.stats.tlb_flushes, f0 + 2);
    }

    #[test]
    fn slot_reuse_does_not_leak_stale_translations() {
        let mut a = space();
        let addr = a.mmap(2 * PAGE_SIZE, Prot::RW, "anon").unwrap();
        a.write_unchecked(addr, &[0xAA; 16]);
        a.munmap(addr).unwrap();
        // The freed slot is reused by a different page; the old page's
        // translation must be gone.
        a.write_unchecked(DATA_BASE, &[0xBB; 16]);
        let mut buf = [0u8; 16];
        a.peek(DATA_BASE, &mut buf);
        assert_eq!(buf, [0xBB; 16]);
        assert!(matches!(
            a.check_write(addr, 1),
            AccessOutcome::Fault {
                kind: FaultKind::NotMapped,
                ..
            }
        ));
    }

    #[test]
    fn disabled_tlb_is_observationally_identical_smoke() {
        let run = |enabled: bool| {
            let mut a = space();
            a.set_tlb_enabled(enabled);
            a.write_unchecked(DATA_BASE, &[5; 300]);
            a.arm_tracking(TrackMode::KernelPage);
            let _ = a.check_write(DATA_BASE, 8);
            a.resolve_tracked_fault(DATA_BASE / PAGE_SIZE);
            a.write_unchecked(DATA_BASE + 8, &[6; 8]);
            let mut buf = [0u8; 16];
            a.read_unchecked(DATA_BASE, &mut buf);
            let mut st = a.stats.clone();
            st.tlb_hits = 0;
            st.tlb_misses = 0;
            st.tlb_flushes = 0;
            (buf, a.dirty_pages.clone(), st)
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn tlb_aliasing_pages_evict_each_other_correctly() {
        let mut a = space();
        // Two pages that collide in the direct-mapped TLB (same index).
        let p1 = DATA_BASE;
        let p2 = DATA_BASE + (TLB_SIZE as u64) * PAGE_SIZE;
        // p2 is outside the small data VMA; use a big mmap region instead.
        let base = a
            .mmap((2 * TLB_SIZE as u64) * PAGE_SIZE, Prot::RW, "anon")
            .unwrap();
        let q1 = base;
        let q2 = base + (TLB_SIZE as u64) * PAGE_SIZE;
        assert_eq!(tlb_idx(q1 / PAGE_SIZE), tlb_idx(q2 / PAGE_SIZE));
        a.write_unchecked(q1, &[1; 8]);
        a.write_unchecked(q2, &[2; 8]);
        a.write_unchecked(q1, &[3; 8]);
        let mut b = [0u8; 8];
        a.peek(q1, &mut b);
        assert_eq!(b, [3; 8]);
        a.peek(q2, &mut b);
        assert_eq!(b, [2; 8]);
        let _ = (p1, p2);
    }
}
