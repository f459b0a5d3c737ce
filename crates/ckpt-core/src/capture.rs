//! Kernel-context capture and restore: walking a PCB into a
//! [`CheckpointImage`] and rebuilding a process from one.
//!
//! This is the code path the paper's Section 4.1 calls "enormously
//! simplified" by kernel residency: every piece of state is read directly
//! from the PCB with no protection-domain crossings — contrast with the
//! user-level gather in `crate::agents`, which must issue a syscall per
//! fact.

use ckpt_image::{
    CheckpointImage, FdRecord, FileContentRecord, ImageHeader, ImageKind, PolicyRecord,
    ProgramRecord, RegsRecord, SigRecord, TimerRecord, VmaRecord,
};
use simos::fs::FsNode;
use simos::mem::{VmaKind, PAGE_SIZE};
use simos::pcb::{FdEntry, Pcb, ProcState, ProgramSpec, Regs};
use simos::trace::TlbFlushSite;
use simos::timer::TimerAction;
use simos::types::{Fd, Pid, SimError, SimResult};
use simos::Kernel;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Which pages to include in the image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PageSelection {
    /// Every resident page (a full checkpoint).
    All,
    /// Exactly these page numbers (an incremental checkpoint).
    Set(BTreeSet<u64>),
}

/// Capture configuration. Construct via [`CaptureOptions::full`] or
/// [`CaptureOptions::incremental`] and override fields afterwards — the
/// struct is `#[non_exhaustive]` so new knobs can be added without
/// breaking downstream crates.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct CaptureOptions {
    pub(crate) mechanism: String,
    pub(crate) seq: u64,
    pub(crate) parent_seq: u64,
    pub(crate) kind: ImageKind,
    pub pages: PageSelection,
    /// Apply zero-elision/RLE to page payloads. PsncR/C famously "does not
    /// perform any data optimization"; set `false` to model that.
    pub compress: bool,
    /// Also snapshot the contents of files the process has open (UCLiK's
    /// file-content restoration).
    pub save_file_contents: bool,
    /// Node id recorded in the header.
    pub node: u32,
    /// Id the header records: its [`crate::Lineage`]'s; `None`, the pid.
    pub(crate) id: Option<u32>,
    /// Worker pool for page encoding; `None` is a width-1 pool, on the
    /// caller. The pages are encoded where they sit in the frozen address
    /// space, in runs of [`ckpt_par::PAR_MIN_BYTES`], spread over the pool
    /// once there is more than one run: into records
    /// ([`ckpt_image::page_records`]) by [`capture_image`], straight into
    /// the image ([`ckpt_image::encode_borrowed_pages`]) by
    /// [`crate::Lineage::capture`]. Output is byte-identical at every
    /// width.
    pub encode_pool: Option<Arc<ckpt_par::Pool>>,
}

impl CaptureOptions {
    pub fn full(mechanism: &str, seq: u64) -> Self {
        CaptureOptions {
            mechanism: mechanism.to_string(),
            seq,
            parent_seq: 0,
            kind: ImageKind::Full,
            pages: PageSelection::All,
            compress: true,
            save_file_contents: false,
            node: 0,
            id: None,
            encode_pool: None,
        }
    }

    pub fn incremental(mechanism: &str, seq: u64, parent: u64, dirty: BTreeSet<u64>) -> Self {
        CaptureOptions {
            parent_seq: parent,
            kind: ImageKind::Incremental,
            pages: PageSelection::Set(dirty),
            ..Self::full(mechanism, seq)
        }
    }

    /// `f` on [`Self::encode_pool`], or on a width-1 pool without one.
    pub(crate) fn with_pool<R>(&self, f: impl FnOnce(&ckpt_par::Pool) -> R) -> R {
        match self.encode_pool.as_deref() {
            Some(pool) => f(pool),
            None => f(&ckpt_par::Pool::new(1)),
        }
    }
}

/// Capture `pid`'s state into an image, charging kernel-side copy costs.
/// The caller is responsible for the process being quiescent (frozen, or
/// running this code in its own context). The state half of a capture,
/// then the pages' records. Its callers are ckptbench's unrolled world and
/// tests: every checkpointer takes its image with
/// [`crate::Lineage::capture`], which encodes from the pages, no records.
pub fn capture_image(k: &mut Kernel, pid: Pid, opts: &CaptureOptions) -> SimResult<CheckpointImage> {
    let (mut img, page_numbers) = capture_state(k, pid, opts)?;
    let pages = guest_pages(k, pid, &page_numbers);
    img.pages = opts.with_pool(|pool| ckpt_image::page_records(pool, &pages, opts.compress));
    Ok(img)
}

/// `pid`'s pages `page_numbers`, where they sit in its address space.
pub(crate) fn guest_pages<'k>(
    k: &'k Kernel,
    pid: Pid,
    page_numbers: &[u64],
) -> Vec<(u64, &'k [u8])> {
    let p = k.process(pid).expect("captured");
    page_numbers
        .iter()
        .map(|pn| (*pn, p.mem.page_data(*pn).expect("resident")))
        .collect()
}

/// The first half of a capture: the image without its page records, and
/// the numbers of the pages it takes (every resident page, or the
/// selected ones that are resident). Charges the kernel copy of those
/// pages, so the whole capture's virtual time is paid here.
pub(crate) fn capture_state(
    k: &mut Kernel,
    pid: Pid,
    opts: &CaptureOptions,
) -> SimResult<(CheckpointImage, Vec<u64>)> {
    let taken_at_ns = k.now();
    let (regs, brk, work_done, policy, vmas, page_numbers, fd_list, sig, program) = {
        let p = k.process(pid).ok_or(SimError::NoSuchProcess(pid))?;
        let page_numbers: Vec<u64> = match &opts.pages {
            PageSelection::All => p.mem.resident_pages().collect(),
            PageSelection::Set(s) => s
                .iter()
                .copied()
                .filter(|pn| p.mem.page_data(*pn).is_some())
                .collect(),
        };
        (
            RegsRecord::from(&p.regs),
            p.mem.brk(),
            p.work_done,
            PolicyRecord::capture(p.policy),
            p.mem.vmas().iter().map(VmaRecord::from).collect::<Vec<_>>(),
            page_numbers,
            p.fds.iter().collect::<Vec<(Fd, FdEntry)>>(),
            SigRecord::capture(&p.sig),
            ProgramRecord::capture(&p.program),
        )
    };
    // Pages: copied out of the address space (charged as kernel memcpy).
    let copy_cost = k.cost.memcpy(page_numbers.len() as u64 * PAGE_SIZE);
    k.charge(copy_cost);
    // File descriptors, with dup groups.
    let mut group_of: BTreeMap<u32, u32> = BTreeMap::new();
    let mut next_group = 0u32;
    let mut fds = Vec::new();
    let mut files = Vec::new();
    let mut seen_paths = BTreeSet::new();
    for (fd, entry) in fd_list {
        let Some(ofd) = k.ofd(entry.ofd) else { continue };
        let group = *group_of.entry(entry.ofd.0).or_insert_with(|| {
            let g = next_group;
            next_group += 1;
            g
        });
        fds.push(FdRecord {
            fd: fd.0,
            path: ofd.path.clone(),
            offset: ofd.offset,
            flags: FdRecord::pack_flags(ofd.flags),
            group,
        });
        if opts.save_file_contents && seen_paths.insert(ofd.path.clone()) {
            if let Some(FsNode::File { data }) = k.fs.get(&ofd.path) {
                files.push(FileContentRecord {
                    path: ofd.path.clone(),
                    data: data.clone(),
                });
            }
        }
    }
    // Interval timers (relative to now).
    let timers: Vec<TimerRecord> = k
        .timers
        .owned_by(pid)
        .into_iter()
        .filter_map(|t| match t.action {
            TimerAction::SendSignal { sig, .. } => Some(TimerRecord {
                in_ns: t.at.saturating_sub(taken_at_ns),
                period_ns: t.period.unwrap_or(0),
                sig: sig.0,
            }),
            _ => None,
        })
        .collect();
    let img = CheckpointImage {
        header: ImageHeader {
            pid: opts.id.unwrap_or(pid.0),
            seq: opts.seq,
            parent_seq: opts.parent_seq,
            kind: opts.kind,
            taken_at_ns,
            mechanism: opts.mechanism.clone(),
            node: opts.node,
        },
        regs,
        brk,
        work_done,
        policy,
        vmas,
        pages: Vec::new(),
        fds,
        files,
        sig,
        timers,
        program,
    };
    Ok((img, page_numbers))
}

/// How to choose the restored process's pid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RestorePid {
    /// Reuse the pid recorded in the image (UCLiK's "restoring the original
    /// process ID"); fails if it is taken on this kernel.
    Original,
    /// Take any free pid.
    Fresh,
    /// A specific pid (used by pod virtualization).
    Specific(Pid),
}

/// Restore configuration. Construct via [`RestoreOptions::default`] or
/// [`RestoreOptions::fresh_running`] — `#[non_exhaustive]`, like
/// [`CaptureOptions`].
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct RestoreOptions {
    pub(crate) pid: RestorePid,
    /// Enqueue the process immediately (otherwise it is left stopped).
    pub(crate) run: bool,
}

impl Default for RestoreOptions {
    fn default() -> Self {
        RestoreOptions {
            pid: RestorePid::Fresh,
            run: true,
        }
    }
}

impl RestoreOptions {
    /// Restore under `pid` and enqueue it immediately.
    pub fn fresh_running(pid: RestorePid) -> Self {
        RestoreOptions { pid, run: true }
    }
}

/// Rebuild a process from a (full) image on `k`. Charges kernel-side copy
/// costs; storage-load costs are the caller's.
pub fn restore_image(
    k: &mut Kernel,
    img: &CheckpointImage,
    opts: &RestoreOptions,
) -> SimResult<Pid> {
    if img.header.kind != ImageKind::Full {
        return Err(SimError::Usage(
            "restore requires a full image; reconstruct incremental chains first".into(),
        ));
    }
    let program: ProgramSpec = img
        .program
        .to_spec()
        .ok_or_else(|| SimError::Usage("unknown program kind in image".into()))?;
    // Rebuild the address space: canonical layout sized from the image's
    // text/data VMAs, then explicit regions, then page contents.
    let text_len = img
        .vmas
        .iter()
        .find(|v| v.kind == 0)
        .map(|v| v.end - v.start)
        .unwrap_or(PAGE_SIZE);
    let data_len = img
        .vmas
        .iter()
        .find(|v| v.kind == 1)
        .map(|v| v.end - v.start)
        .unwrap_or(PAGE_SIZE);
    let mut mem = simos::mem::AddressSpace::new(text_len, data_len);
    for v in &img.vmas {
        let vma = v
            .to_vma()
            .ok_or_else(|| SimError::Usage("bad VMA kind in image".into()))?;
        if matches!(vma.kind, VmaKind::Mmap | VmaKind::SharedLib) {
            mem.push_vma_raw(vma);
        }
    }
    mem.restore_brk(img.brk);
    let mut restored_bytes = 0u64;
    for p in &img.pages {
        let data = p
            .expand()
            .map_err(|e| SimError::Usage(format!("corrupt page {}: {e}", p.page_no)))?;
        mem.poke(p.page_no * PAGE_SIZE, &data);
        restored_bytes += PAGE_SIZE;
    }
    let copy_cost = k.cost.memcpy(restored_bytes);
    k.charge(copy_cost);
    // Rebuilding an address space is a translation-invalidation event (the
    // restored process resumes with a cold TLB).
    k.trace.soft_tlb_flush(TlbFlushSite::Restore);
    // File contents (UCLiK-style) before descriptors reference them.
    for f in &img.files {
        let _ = k.fs.create_file(&f.path);
        let _ = k.fs.write_at(&f.path, 0, &f.data);
    }
    // Descriptor table with dup groups sharing one OFD.
    let mut fd_table = simos::pcb::FdTable::new();
    let mut group_ofd: BTreeMap<u32, simos::types::OfdId> = BTreeMap::new();
    for f in &img.fds {
        let ofd = *group_ofd
            .entry(f.group)
            .or_insert_with(|| k.restore_ofd(&f.path, f.offset, f.flags_decoded()));
        fd_table.insert_at(
            Fd(f.fd),
            FdEntry {
                ofd,
                close_on_exec: false,
            },
        );
    }
    let pid = match opts.pid {
        RestorePid::Original => Pid(img.header.pid),
        RestorePid::Fresh => k.fresh_pid(),
        RestorePid::Specific(p) => p,
    };
    let pcb = Pcb {
        state: if opts.run {
            ProcState::Ready
        } else {
            ProcState::Stopped
        },
        policy: img.policy.to_policy(),
        regs: Regs {
            pc: img.regs.pc,
            gpr: img.regs.gpr,
        },
        fds: fd_table,
        sig: img.sig.restore(),
        work_done: img.work_done,
        ..Pcb::new(pid, program, mem, k.now())
    };
    let pid = k.adopt_process(pcb)?;
    // Re-arm saved interval timers relative to now.
    for t in &img.timers {
        k.timers.arm(
            k.deadline_in(t.in_ns),
            if t.period_ns > 0 {
                Some(t.period_ns)
            } else {
                None
            },
            TimerAction::SendSignal {
                pid,
                sig: simos::signal::Sig(t.sig),
            },
            Some(pid),
        );
    }
    Ok(pid)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simos::apps::{AppParams, NativeKind};
    use simos::cost::CostModel;
    use simos::fs::OpenFlags;
    use simos::syscall::Syscall;

    fn kernel() -> Kernel {
        Kernel::new(CostModel::circa_2005())
    }

    #[test]
    fn full_capture_restore_preserves_native_execution() {
        // The canonical correctness property: run half, capture, restore on
        // a fresh kernel, run to completion; final state must equal an
        // uninterrupted run.
        for kind in NativeKind::ALL {
            let params = AppParams::small();
            let (ref_step, ref_sum) = simos::apps::reference_run(kind, &params);
            let mut k1 = kernel();
            let pid = k1.spawn_native(kind, params.clone()).unwrap();
            // Run part way, in sub-step-sized chunks so we stop before the
            // app completes.
            while k1.process(pid).unwrap().work_done < params.total_steps / 2 {
                k1.run_for(1_000).unwrap();
            }
            assert!(!k1.process(pid).unwrap().has_exited(), "{kind:?} overshot");
            k1.freeze_process(pid).unwrap();
            let img = capture_image(&mut k1, pid, &CaptureOptions::full("test", 1)).unwrap();
            // Restore on a brand-new kernel.
            let mut k2 = kernel();
            let pid2 = restore_image(&mut k2, &img, &RestoreOptions::default()).unwrap();
            k2.run_until_exit(pid2).unwrap();
            let p = k2.process(pid2).unwrap();
            let mut buf = [0u8; 8];
            p.mem.peek(simos::apps::H_STEP, &mut buf);
            assert_eq!(u64::from_le_bytes(buf), ref_step, "{kind:?}: wrong step");
            p.mem.peek(simos::apps::H_SUM, &mut buf);
            assert_eq!(u64::from_le_bytes(buf), ref_sum, "{kind:?}: wrong checksum");
        }
    }

    #[test]
    fn capture_restore_preserves_vm_execution() {
        let text = simos::asm::programs::summer(100);
        // Reference: run to completion uninterrupted.
        let mut kr = kernel();
        let rp = kr.spawn_vm(text.clone(), "summer").unwrap();
        kr.run_until_exit(rp).unwrap();
        let mut expect = [0u8; 8];
        kr.process(rp).unwrap().mem.peek(simos::mem::DATA_BASE, &mut expect);

        let mut k1 = kernel();
        let pid = k1.spawn_vm(text, "summer").unwrap();
        // Execute some instructions but not all.
        k1.run_for(150).unwrap();
        assert!(!k1.process(pid).unwrap().has_exited());
        k1.freeze_process(pid).unwrap();
        let img = capture_image(&mut k1, pid, &CaptureOptions::full("test", 1)).unwrap();
        let mut k2 = kernel();
        let pid2 = restore_image(&mut k2, &img, &RestoreOptions::default()).unwrap();
        k2.run_until_exit(pid2).unwrap();
        let mut got = [0u8; 8];
        k2.process(pid2).unwrap().mem.peek(simos::mem::DATA_BASE, &mut got);
        assert_eq!(got, expect);
    }

    #[test]
    fn fd_offsets_and_dup_groups_survive_restore() {
        let mut k1 = kernel();
        let pid = k1
            .spawn_native(NativeKind::SparseRandom, AppParams::small())
            .unwrap();
        let fd = Fd(k1
            .do_syscall(
                pid,
                Syscall::Open {
                    path: "/tmp/log".into(),
                    flags: OpenFlags::RDWR_CREATE,
                },
            )
            .unwrap() as u32);
        let fd2 = Fd(k1.do_syscall(pid, Syscall::Dup { fd }).unwrap() as u32);
        k1.mem_write(pid, simos::apps::ARRAY_BASE, b"12345678").unwrap();
        k1.do_syscall(
            pid,
            Syscall::Write {
                fd,
                buf: simos::apps::ARRAY_BASE,
                len: 8,
            },
        )
        .unwrap();
        k1.freeze_process(pid).unwrap();
        let mut opts = CaptureOptions::full("test", 1);
        opts.save_file_contents = true;
        let img = capture_image(&mut k1, pid, &opts).unwrap();
        assert_eq!(img.fds.len(), 2);
        assert_eq!(img.fds[0].group, img.fds[1].group, "dup group preserved");
        assert_eq!(img.files.len(), 1);

        let mut k2 = kernel();
        let pid2 = restore_image(&mut k2, &img, &RestoreOptions::default()).unwrap();
        // Both descriptors exist and share an offset of 8.
        let pos = k2
            .do_syscall(
                pid2,
                Syscall::Lseek {
                    fd: fd2,
                    offset: 0,
                    whence: simos::syscall::Whence::Cur,
                },
            )
            .unwrap();
        assert_eq!(pos, 8);
        // File contents travelled with the image.
        assert_eq!(k2.fs.read_file("/tmp/log").unwrap(), b"12345678");
    }

    #[test]
    fn restore_original_pid_conflicts_detected() {
        let mut k1 = kernel();
        let pid = k1
            .spawn_native(NativeKind::SparseRandom, AppParams::small())
            .unwrap();
        k1.freeze_process(pid).unwrap();
        let img = capture_image(&mut k1, pid, &CaptureOptions::full("t", 1)).unwrap();
        // Restoring onto the same kernel with the original pid conflicts —
        // the resource-conflict problem pods exist to solve.
        let r = restore_image(
            &mut k1,
            &img,
            &RestoreOptions {
                pid: RestorePid::Original,
                run: true,
            },
        );
        assert!(r.is_err());
        // Fresh pid works.
        let pid2 = restore_image(&mut k1, &img, &RestoreOptions::default()).unwrap();
        assert_ne!(pid2, pid);
    }

    #[test]
    fn incremental_selection_only_carries_requested_pages() {
        let mut k = kernel();
        let mut params = AppParams::small();
        params.total_steps = u64::MAX;
        let pid = k.spawn_native(NativeKind::DenseSweep, params).unwrap();
        k.run_for(5_000_000).unwrap();
        k.freeze_process(pid).unwrap();
        let mut set = BTreeSet::new();
        set.insert(simos::apps::HEADER_BASE / PAGE_SIZE);
        let img = capture_image(
            &mut k,
            pid,
            &CaptureOptions::incremental("t", 2, 1, set),
        )
        .unwrap();
        assert_eq!(img.pages.len(), 1);
        assert_eq!(img.header.kind, ImageKind::Incremental);
    }

    #[test]
    fn pending_signals_and_timers_survive_restore() {
        let mut k1 = kernel();
        let mut params = AppParams::small();
        params.total_steps = u64::MAX;
        let pid = k1.spawn_native(NativeKind::SparseRandom, params).unwrap();
        k1.run_for(1_000_000).unwrap();
        k1.do_syscall(
            pid,
            Syscall::Setitimer {
                interval_ns: 40_000_000,
            },
        )
        .unwrap();
        k1.freeze_process(pid).unwrap();
        k1.post_signal(pid, simos::signal::Sig::SIGUSR1); // stays pending while frozen
        let img = capture_image(&mut k1, pid, &CaptureOptions::full("t", 1)).unwrap();
        assert!(img.sig.pending.contains(&10));
        assert_eq!(img.timers.len(), 1);
        assert_eq!(img.timers[0].period_ns, 40_000_000);

        let mut k2 = kernel();
        let pid2 = restore_image(&mut k2, &img, &RestoreOptions::default()).unwrap();
        // Pending SIGUSR1 (default action: terminate) fires on first run.
        k2.run_for(20_000_000).unwrap();
        assert_eq!(k2.process(pid2).unwrap().exit_code(), Some(128 + 10));
    }

    #[test]
    fn restore_rejects_incremental_images() {
        let mut k = kernel();
        let pid = k
            .spawn_native(NativeKind::SparseRandom, AppParams::small())
            .unwrap();
        k.freeze_process(pid).unwrap();
        let img = capture_image(
            &mut k,
            pid,
            &CaptureOptions::incremental("t", 2, 1, BTreeSet::new()),
        )
        .unwrap();
        assert!(restore_image(&mut k, &img, &RestoreOptions::default()).is_err());
    }

    #[test]
    fn pooled_capture_is_identical_to_serial() {
        let mut k = kernel();
        let mut params = AppParams::small();
        params.mem_bytes = 1024 * 1024;
        params.total_steps = u64::MAX;
        let pid = k.spawn_native(NativeKind::Stencil2D, params).unwrap();
        k.run_for(5_000_000).unwrap();
        k.freeze_process(pid).unwrap();
        let serial = capture_image(&mut k, pid, &CaptureOptions::full("t", 1)).unwrap();
        for w in [2usize, 4, 8] {
            let mut opts = CaptureOptions::full("t", 1);
            opts.encode_pool = Some(Arc::new(ckpt_par::Pool::new(w)));
            // Capturing twice advances virtual time (the memcpy charge), so
            // compare everything except the header timestamp.
            let mut pooled = capture_image(&mut k, pid, &opts).unwrap();
            pooled.header.taken_at_ns = serial.header.taken_at_ns;
            assert_eq!(pooled, serial, "width {w}");
            assert_eq!(
                ckpt_image::encode(&pooled),
                ckpt_image::encode(&serial),
                "width {w} bytes"
            );
        }
    }

    #[test]
    fn uncompressed_capture_is_larger() {
        let mut k = kernel();
        let mut params = AppParams::small();
        params.total_steps = u64::MAX;
        let pid = k.spawn_native(NativeKind::AppendLog, params).unwrap();
        k.run_for(3_000_000).unwrap();
        k.freeze_process(pid).unwrap();
        let img_c = capture_image(&mut k, pid, &CaptureOptions::full("t", 1)).unwrap();
        let mut opts = CaptureOptions::full("t", 2);
        opts.compress = false;
        let img_u = capture_image(&mut k, pid, &opts).unwrap();
        assert!(img_u.payload_bytes() >= img_c.payload_bytes());
        assert_eq!(img_u.payload_bytes(), img_u.memory_bytes());
    }
}
