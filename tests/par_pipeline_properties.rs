//! Property tests for the parallel checkpoint pipeline: at every pool
//! width the encoded image bytes must be identical to the width-1 (exact
//! serial) path, both for randomized in-memory images and for full and
//! incremental captures of randomized live address spaces, compressed or
//! not; and the bytes the engine's capture step encodes straight from the
//! frozen guest must be those of the captured records.
//!
//! A call under [`PAR_MIN_BYTES`] runs on the caller at every width, and
//! page encoding and the image body go to the pool in runs of
//! [`PAR_MIN_BYTES`], so they spread only from two runs on. Each suite
//! keeps cases past that: random images of up to 200 pages (up to 800
//! KiB; 11 of the 48 cases of
//! `pooled_encode_is_byte_identical_on_random_images` hold two runs or more
//! of page payload, which the test asserts), full captures of 128 KiB to 1.1
//! MiB address spaces (from two runs up) plus 192 KiB of zero, constant,
//! random and mostly-zero pages the guest maps, and one replicated object
//! per case past the gate.
//!
//! Cases are generated deterministically by [`common::Gen`] — every run
//! covers the same corpus, and a failing seed is directly reproducible.

mod common;

use std::sync::Arc;

use ckpt_restart::ckpt::capture::{capture_image, CaptureOptions};
use ckpt_restart::ckpt::tracker::{Tracker, TrackerKind};
use ckpt_restart::ckpt::Lineage;
use ckpt_restart::image::{
    decode, encode, encode_with_pool, CheckpointImage, ImageHeader, ImageKind, PageEncoding,
    PageRecord, PolicyRecord, ProgramRecord, RegsRecord, SigRecord,
};
use ckpt_restart::par::{Pool, PAR_MIN_BYTES};
use ckpt_restart::simos::apps::{AppParams, NativeKind};
use ckpt_restart::simos::cost::CostModel;
use ckpt_restart::simos::mem::{Prot, PAGE_SIZE};
use ckpt_restart::simos::syscall::Syscall;
use ckpt_restart::simos::Kernel;
use ckpt_restart::storage::digest64;
use common::Gen;

const WIDTHS: [usize; 3] = [2, 4, 8];

/// A page drawn from the distributions the codec branches on: all-zero
/// (Zero encoding), constant (extreme RLE), random (incompressible Raw),
/// and mostly-zero with a dense island (mid-bail territory).
fn arb_page(g: &mut Gen) -> Vec<u8> {
    match g.range(0, 4) {
        0 => vec![0u8; 4096],
        1 => vec![g.byte(); 4096],
        2 => g.bytes(4096),
        _ => {
            let mut v = vec![0u8; 4096];
            let n = g.range(0, 4000) as usize;
            v[n..n + 64].fill(g.byte());
            v
        }
    }
}

/// A randomized image whose page payload can hold several runs, so wide
/// pools genuinely split the body write and its CRC.
fn arb_image(g: &mut Gen) -> CheckpointImage {
    let seq = g.range(1, 500);
    let pages: Vec<PageRecord> = (0..g.range(0, 200))
        .map(|_| PageRecord::capture(g.range(0, 1 << 20), &arb_page(g)))
        .collect();
    CheckpointImage {
        header: ImageHeader {
            pid: g.u64() as u32,
            seq,
            parent_seq: seq - 1,
            kind: if seq.is_multiple_of(2) {
                ImageKind::Incremental
            } else {
                ImageKind::Full
            },
            taken_at_ns: seq * 13,
            mechanism: "par-prop".into(),
            node: (seq % 8) as u32,
        },
        regs: RegsRecord {
            pc: seq * 4,
            gpr: [seq; 16],
        },
        brk: seq * 4096,
        work_done: seq,
        policy: PolicyRecord {
            tag: (seq % 2) as u8,
            value: (seq % 23) as i32,
        },
        vmas: Vec::new(),
        pages,
        fds: Vec::new(),
        files: Vec::new(),
        sig: SigRecord::default(),
        timers: Vec::new(),
        program: ProgramRecord::Native {
            kind: (seq % 5) as u8,
            mem_bytes: 65536,
            total_steps: 100,
            writes_per_step: 8,
            write_stride_pages: 4,
            seed: seq,
        },
    }
}

#[test]
fn pooled_encode_is_byte_identical_on_random_images() {
    let mut spread = 0;
    for case in 0..48u64 {
        let mut g = Gen::new(0x7A11 + case);
        let img = arb_image(&mut g);
        if img.payload_bytes() as usize >= 2 * PAR_MIN_BYTES {
            spread += 1;
        }
        let serial = encode(&img);
        let one = encode_with_pool(&img, &Pool::new(1));
        assert_eq!(one, serial, "case {case}: width 1 is not the serial path");
        for w in WIDTHS {
            let par = encode_with_pool(&img, &Pool::new(w));
            assert_eq!(par, serial, "case {case} width {w}: bytes diverged");
        }
    }
    assert_eq!(spread, 11, "cases holding two runs of page payload");
}

/// A running guest of a random kind and size, plus 48 pages it maps and
/// never touches, filled with [`arb_page`]s (its own pages are nearly all
/// incompressible), whose numbers are returned.
fn spawn_random_process(g: &mut Gen) -> (Kernel, ckpt_restart::simos::types::Pid, Vec<u64>) {
    let kind = match g.range(0, 5) {
        0 => NativeKind::SparseRandom,
        1 => NativeKind::DenseSweep,
        2 => NativeKind::AppendLog,
        3 => NativeKind::Stencil2D,
        _ => NativeKind::ReadMostly,
    };
    let mut params = AppParams::small();
    params.mem_bytes = 128 * 1024 + g.range(0, 16) * 64 * 1024;
    params.writes_per_step = 1 + g.range(0, 16);
    params.total_steps = u64::MAX;
    let mut k = Kernel::new(CostModel::circa_2005());
    let pid = k.spawn_native(kind, params).expect("spawn");
    let warmup = 1_000_000 + g.range(0, 8) * 500_000;
    k.run_for(warmup).unwrap();
    let len = 48 * PAGE_SIZE;
    let mmap = Syscall::Mmap {
        len,
        prot: Prot::RW,
    };
    let base = k.do_syscall(pid, mmap).unwrap();
    for at in (base..base + len).step_by(PAGE_SIZE as usize) {
        k.mem_write(pid, at, &arb_page(g)).unwrap();
    }
    let patterned = (base / PAGE_SIZE..(base + len) / PAGE_SIZE).collect();
    (k, pid, patterned)
}

/// Capture with `opts` at width 1 and at every wider pool; all variants
/// must produce the same image struct and the same encoded bytes (the
/// header timestamp is normalized — capturing repeatedly advances the
/// virtual clock via the memcpy charge), and its records must be those
/// `PageRecord::capture` makes of each page alone. At every width, the
/// bytes `Lineage::capture` encodes from the guest without records (a
/// fresh lineage takes `opts` as given) must equal `encode` of those
/// records.
fn assert_capture_width_invariant(
    k: &mut Kernel,
    pid: ckpt_restart::simos::types::Pid,
    opts: &CaptureOptions,
    label: &str,
) {
    let serial = capture_image(k, pid, opts).unwrap();
    let mem = &k.process(pid).unwrap().mem;
    let each_alone: Vec<PageRecord> = serial
        .pages
        .iter()
        .map(|p| {
            let data = mem.page_data(p.page_no).unwrap();
            match opts.compress {
                true => PageRecord::capture(p.page_no, data),
                false => PageRecord {
                    page_no: p.page_no,
                    enc: PageEncoding::Raw,
                    payload: data.to_vec(),
                },
            }
        })
        .collect();
    assert!(serial.pages == each_alone, "{label}: records diverged");
    let serial_bytes = encode(&serial);
    let digest = digest64(&serial_bytes);
    for w in [1].into_iter().chain(WIDTHS) {
        let mut o = opts.clone();
        o.encode_pool = Some(Arc::new(Pool::new(w)));
        let mut pooled = capture_image(k, pid, &o).unwrap();
        pooled.header.taken_at_ns = serial.header.taken_at_ns;
        assert_eq!(pooled, serial, "{label} width {w}: image struct diverged");
        let pooled_bytes = encode(&pooled);
        assert_eq!(
            digest64(&pooled_bytes),
            digest,
            "{label} width {w}: image digest diverged"
        );
        assert_eq!(pooled_bytes, serial_bytes, "{label} width {w}: bytes diverged");

        let mut lineage = Lineage::new("par-prop", Some(pid.0), TrackerKind::FullOnly);
        let (bytes, outcome) = lineage.capture(k, pid, &o, &[], None, false).unwrap();
        let mut want = serial.clone();
        want.header.taken_at_ns = decode(&bytes).unwrap().header.taken_at_ns;
        assert!(
            bytes == encode(&want),
            "{label} width {w}: the engine's bytes are not the records' bytes"
        );
        assert_eq!(outcome.pages_saved, serial.page_count() as u64, "{label}");
        assert_eq!(outcome.memory_bytes, serial.memory_bytes(), "{label}");
    }
}

/// Replicated commits are width-invariant: the quorum protocol resolves
/// admission, faults, and backoff sequentially on the caller, so only
/// pure payload copies ride the pool — at every width the manifests, the
/// receipts, and the bytes on every replica must be identical. The first
/// three objects of a case (1–9 KiB) copy on the caller; the fourth is
/// past [`PAR_MIN_BYTES`] even as one copy, so wide pools spread it.
#[test]
fn replicated_commits_are_width_invariant() {
    use ckpt_restart::replica::{Probe, ReplicaConfig, ReplicaSet, ReplicatedStore};
    use ckpt_restart::storage::{ReplicaManifest, StableStorage};

    let cost = CostModel::circa_2005();
    for case in 0..12u64 {
        let commit_all = |width: usize| -> (Vec<ReplicaManifest>, Vec<u64>, Vec<u64>) {
            let mut g = Gen::new(0x5E7 + case);
            let (n, w) = if case % 2 == 0 { (3, 2) } else { (5, 3) };
            let mut store = ReplicatedStore::new(ReplicaSet::new(n), ReplicaConfig::new(n, w))
                .with_pool(Arc::new(Pool::new(width)));
            // A few commits, some through queued transient rejections, one
            // overwrite of an existing key.
            let mut manifests = Vec::new();
            let mut receipts = Vec::new();
            for i in 0..4u64 {
                let key = format!("w-inv/k{}", i % 3);
                let floor = if i == 3 { PAR_MIN_BYTES } else { 1024 };
                let len = floor + g.range(0, 8192) as usize;
                let data = g.bytes(len);
                if g.flag() {
                    store.replica_set().node(g.range(0, n as u64) as usize)
                        .inject_transients(1 + g.range(0, 2) as u32);
                }
                let r = store.store(&key, &data, &cost).unwrap();
                receipts.push(r.time_ns);
                manifests.push(store.replica_manifest(&key).unwrap());
            }
            // Digest of every frame on every replica, in replica order.
            let frames: Vec<u64> = store
                .replica_set()
                .nodes()
                .iter()
                .flat_map(|node| {
                    node.keys().into_iter().map(|k| match node.probe(&k) {
                        Probe::Valid(f) => digest64(&f.data) ^ f.version,
                        other => panic!("unexpected frame state: {other:?}"),
                    })
                })
                .collect();
            (manifests, receipts, frames)
        };
        let baseline = commit_all(1);
        for w in [4usize, 8] {
            assert_eq!(
                commit_all(w),
                baseline,
                "case {case} width {w}: replicated commit diverged"
            );
        }
    }
}

/// Full and incremental captures, compressed and not (PsncR/C and the
/// kernel-thread variant ship uncompressed images); the incremental one
/// selects a third of the patterned pages too.
#[test]
fn pooled_capture_matches_serial_on_random_address_spaces() {
    for case in 0..12u64 {
        let mut g = Gen::new(0xCAF7 + case);
        let (mut k, pid, patterned) = spawn_random_process(&mut g);

        // Full capture of the randomized address space.
        k.freeze_process(pid).unwrap();
        for compress in [true, false] {
            let mut opts = CaptureOptions::full("par-prop", 1);
            opts.compress = compress;
            let label = format!("case {case} full, compress {compress}");
            assert_capture_width_invariant(&mut k, pid, &opts, &label);
        }

        // Incremental capture of the dirty set accumulated after the full.
        let mut tracker = Tracker::new(TrackerKind::KernelPage);
        tracker.arm(&mut k, pid).unwrap();
        k.thaw_process(pid).unwrap();
        let run = 200_000 + g.range(0, 8) * 200_000;
        k.run_for(run).unwrap();
        k.freeze_process(pid).unwrap();
        let mut dirty = tracker.collect(&mut k, pid).unwrap().pages;
        dirty.extend(patterned.iter().step_by(3));
        for compress in [true, false] {
            let mut opts = CaptureOptions::incremental("par-prop", 2, 1, dirty.clone());
            opts.compress = compress;
            let label = format!("case {case} incremental, compress {compress}");
            assert_capture_width_invariant(&mut k, pid, &opts, &label);
        }
    }
}
