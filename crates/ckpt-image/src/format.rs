//! The checkpoint image: an exhaustive, self-validating record of process
//! state.
//!
//! Section 4.1 of the paper enumerates what a checkpoint must capture:
//! "registers, memory regions, file descriptors, signal state, and more".
//! The image stores exactly that — registers, VMAs, page contents,
//! descriptor table (with dup-sharing groups), full signal state (including
//! pending signals and handler nesting), interval timers, scheduling
//! policy, and the program spec needed to re-instantiate the process.
//!
//! Images are either **full** or **incremental**; incremental images name
//! their parent sequence number and carry only dirtied pages (see
//! [`crate::chain`]).

use crate::compress::{decode_page, encode_page, PageEncoding};
use simos::apps::{AppParams, NativeKind};
use simos::mem::{Prot, Vma, VmaKind, PAGE_SIZE};
use simos::pcb::{ProgramSpec, Regs};
use simos::signal::{Sig, SigAction, SignalState, UserHandlerKind};
use simos::sched::SchedPolicy;

/// Magic number at the start of every image ("CKPTIMG1").
pub(crate) const IMAGE_MAGIC: u64 = 0x434B_5054_494D_4731;
/// Current format version.
pub(crate) const FORMAT_VERSION: u32 = 1;

/// Full or incremental.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ImageKind {
    Full,
    Incremental,
}

/// Image metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct ImageHeader {
    /// Pid of the checkpointed process (on its original node).
    pub pid: u32,
    /// Sequence number within the process's checkpoint series.
    pub seq: u64,
    /// For incremental images, the sequence this delta applies on top of.
    pub parent_seq: u64,
    pub kind: ImageKind,
    /// Virtual time the checkpoint was taken.
    pub taken_at_ns: u64,
    /// Name of the mechanism that produced the image (for provenance).
    pub mechanism: String,
    /// Node id the checkpoint was taken on.
    pub node: u32,
}

/// Saved registers.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RegsRecord {
    pub pc: u64,
    pub gpr: [u64; 16],
}

impl From<&Regs> for RegsRecord {
    fn from(r: &Regs) -> Self {
        RegsRecord {
            pc: r.pc,
            gpr: r.gpr,
        }
    }
}

/// A saved VMA.
#[derive(Debug, Clone, PartialEq)]
pub struct VmaRecord {
    pub start: u64,
    pub end: u64,
    pub prot: u8,
    pub kind: u8,
    pub name: String,
}

fn vma_kind_tag(k: VmaKind) -> u8 {
    match k {
        VmaKind::Text => 0,
        VmaKind::Data => 1,
        VmaKind::Heap => 2,
        VmaKind::Stack => 3,
        VmaKind::Mmap => 4,
        VmaKind::SharedLib => 5,
    }
}

fn vma_kind_from_tag(t: u8) -> Option<VmaKind> {
    Some(match t {
        0 => VmaKind::Text,
        1 => VmaKind::Data,
        2 => VmaKind::Heap,
        3 => VmaKind::Stack,
        4 => VmaKind::Mmap,
        5 => VmaKind::SharedLib,
        _ => return None,
    })
}

impl From<&Vma> for VmaRecord {
    fn from(v: &Vma) -> Self {
        VmaRecord {
            start: v.start,
            end: v.end,
            prot: v.prot.0,
            kind: vma_kind_tag(v.kind),
            name: v.name.clone(),
        }
    }
}

impl VmaRecord {
    pub fn to_vma(&self) -> Option<Vma> {
        Some(Vma {
            start: self.start,
            end: self.end,
            prot: Prot(self.prot),
            kind: vma_kind_from_tag(self.kind)?,
            name: self.name.clone(),
        })
    }
}

/// A saved page.
#[derive(Debug, Clone, PartialEq)]
pub struct PageRecord {
    pub page_no: u64,
    pub enc: PageEncoding,
    pub payload: Vec<u8>,
}

impl PageRecord {
    /// Compress and record a page.
    pub fn capture(page_no: u64, data: &[u8]) -> Self {
        let (enc, payload) = encode_page(data);
        PageRecord {
            page_no,
            enc,
            payload,
        }
    }

    /// Decompress back to a full page.
    pub fn expand(&self) -> Result<Vec<u8>, crate::compress::CompressError> {
        decode_page(self.enc, &self.payload, PAGE_SIZE as usize)
    }
}

/// A saved file descriptor. Descriptors with the same `group` shared one
/// open-file description (dup) and must share one again after restore.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FdRecord {
    pub fd: u32,
    pub path: String,
    pub offset: u64,
    /// Bit-packed OpenFlags: 1=read 2=write 4=create 8=trunc 16=append.
    pub flags: u8,
    pub group: u32,
}

impl FdRecord {
    pub fn flags_decoded(&self) -> simos::fs::OpenFlags {
        simos::fs::OpenFlags {
            read: self.flags & 1 != 0,
            write: self.flags & 2 != 0,
            create: self.flags & 4 != 0,
            truncate: false, // never re-truncate on restore
            append: self.flags & 16 != 0,
        }
    }

    pub fn pack_flags(f: simos::fs::OpenFlags) -> u8 {
        (f.read as u8)
            | (f.write as u8) << 1
            | (f.create as u8) << 2
            | (f.truncate as u8) << 3
            | (f.append as u8) << 4
    }
}

/// Saved contents of a file the process had open (UCLiK-style file-content
/// restoration, so restarts on another node see the same file data).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileContentRecord {
    pub path: String,
    pub data: Vec<u8>,
}

/// One saved signal disposition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SigActionRecord {
    pub sig: u32,
    /// 0=Default 1=Ignore 2=VmFunction 3=CkptLibCheckpoint 4=DirtyTrackSegv
    /// 5=CountOnly.
    pub kind: u8,
    pub param: u64,
    pub non_reentrant: bool,
}

/// Full saved signal state.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SigRecord {
    pub actions: Vec<SigActionRecord>,
    pub pending: Vec<u32>,
    pub mask: u64,
    pub in_handler: u32,
    pub non_reentrant_depth: u32,
}

impl SigRecord {
    /// Capture from live signal state (non-default dispositions only).
    pub fn capture(s: &SignalState) -> Self {
        let mut actions = Vec::new();
        for sig in 1..=Sig::MAX {
            let a = s.action(Sig(sig));
            let rec = match a {
                SigAction::Default => continue,
                SigAction::Ignore => SigActionRecord {
                    sig,
                    kind: 1,
                    param: 0,
                    non_reentrant: false,
                },
                SigAction::Handler {
                    kind,
                    uses_non_reentrant,
                } => {
                    let (k, p) = match kind {
                        UserHandlerKind::VmFunction(addr) => (2u8, *addr),
                        UserHandlerKind::CkptLibCheckpoint => (3, 0),
                        UserHandlerKind::DirtyTrackSegv => (4, 0),
                        UserHandlerKind::CountOnly => (5, 0),
                    };
                    SigActionRecord {
                        sig,
                        kind: k,
                        param: p,
                        non_reentrant: *uses_non_reentrant,
                    }
                }
            };
            actions.push(rec);
        }
        SigRecord {
            actions,
            pending: s.pending.iter().map(|s| s.0).collect(),
            mask: s.mask,
            in_handler: s.in_handler,
            non_reentrant_depth: s.non_reentrant_depth,
        }
    }

    /// Rebuild live signal state.
    pub fn restore(&self) -> SignalState {
        let mut s = SignalState::new();
        for a in &self.actions {
            let action = match a.kind {
                1 => SigAction::Ignore,
                2 => SigAction::Handler {
                    kind: UserHandlerKind::VmFunction(a.param),
                    uses_non_reentrant: a.non_reentrant,
                },
                3 => SigAction::Handler {
                    kind: UserHandlerKind::CkptLibCheckpoint,
                    uses_non_reentrant: a.non_reentrant,
                },
                4 => SigAction::Handler {
                    kind: UserHandlerKind::DirtyTrackSegv,
                    uses_non_reentrant: a.non_reentrant,
                },
                5 => SigAction::Handler {
                    kind: UserHandlerKind::CountOnly,
                    uses_non_reentrant: a.non_reentrant,
                },
                _ => SigAction::Default,
            };
            let _ = s.set_action(Sig(a.sig), action);
        }
        for p in &self.pending {
            s.post(Sig(*p));
        }
        s.mask = self.mask;
        s.in_handler = self.in_handler;
        s.non_reentrant_depth = self.non_reentrant_depth;
        s
    }
}

/// A saved interval timer (relative to checkpoint time).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimerRecord {
    /// ns until next firing, relative to checkpoint instant.
    pub in_ns: u64,
    /// Re-arm period (0 = one-shot).
    pub period_ns: u64,
    pub sig: u32,
}

fn native_kind_tag(k: NativeKind) -> u8 {
    match k {
        NativeKind::DenseSweep => 0,
        NativeKind::SparseRandom => 1,
        NativeKind::Stencil2D => 2,
        NativeKind::AppendLog => 3,
        NativeKind::ReadMostly => 4,
    }
}

fn native_kind_from_tag(t: u8) -> Option<NativeKind> {
    Some(match t {
        0 => NativeKind::DenseSweep,
        1 => NativeKind::SparseRandom,
        2 => NativeKind::Stencil2D,
        3 => NativeKind::AppendLog,
        4 => NativeKind::ReadMostly,
        _ => return None,
    })
}

/// The program the process runs (for re-instantiation at restart).
#[derive(Debug, Clone, PartialEq)]
pub enum ProgramRecord {
    Vm { name: String, text: Vec<u32> },
    Native {
        kind: u8,
        mem_bytes: u64,
        total_steps: u64,
        writes_per_step: u64,
        write_stride_pages: u64,
        seed: u64,
    },
}

impl ProgramRecord {
    pub fn capture(spec: &ProgramSpec) -> Self {
        match spec {
            ProgramSpec::Vm { text, name } => ProgramRecord::Vm {
                name: name.clone(),
                text: text.clone(),
            },
            ProgramSpec::Native { kind, params } => ProgramRecord::Native {
                kind: native_kind_tag(*kind),
                mem_bytes: params.mem_bytes,
                total_steps: params.total_steps,
                writes_per_step: params.writes_per_step,
                write_stride_pages: params.write_stride_pages,
                seed: params.seed,
            },
        }
    }

    pub fn to_spec(&self) -> Option<ProgramSpec> {
        Some(match self {
            ProgramRecord::Vm { name, text } => ProgramSpec::Vm {
                text: text.clone(),
                name: name.clone(),
            },
            ProgramRecord::Native {
                kind,
                mem_bytes,
                total_steps,
                writes_per_step,
                write_stride_pages,
                seed,
            } => ProgramSpec::Native {
                kind: native_kind_from_tag(*kind)?,
                params: AppParams {
                    mem_bytes: *mem_bytes,
                    total_steps: *total_steps,
                    writes_per_step: *writes_per_step,
                    write_stride_pages: *write_stride_pages,
                    seed: *seed,
                },
            },
        })
    }
}

/// Scheduling policy record: (tag, value).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PolicyRecord {
    pub tag: u8, // 0 = Other(nice), 1 = Fifo(rt_prio)
    pub value: i32,
}

impl PolicyRecord {
    pub fn capture(p: SchedPolicy) -> Self {
        match p {
            SchedPolicy::Other { nice } => PolicyRecord {
                tag: 0,
                value: nice,
            },
            SchedPolicy::Fifo { rt_prio } => PolicyRecord {
                tag: 1,
                value: rt_prio as i32,
            },
        }
    }

    pub fn to_policy(self) -> SchedPolicy {
        match self.tag {
            1 => SchedPolicy::Fifo {
                rt_prio: self.value.clamp(0, 99) as u8,
            },
            _ => SchedPolicy::Other {
                nice: self.value.clamp(-20, 19),
            },
        }
    }
}

/// A complete checkpoint image.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointImage {
    pub header: ImageHeader,
    pub regs: RegsRecord,
    pub brk: u64,
    pub work_done: u64,
    pub policy: PolicyRecord,
    pub vmas: Vec<VmaRecord>,
    pub pages: Vec<PageRecord>,
    pub fds: Vec<FdRecord>,
    pub files: Vec<FileContentRecord>,
    pub sig: SigRecord,
    pub timers: Vec<TimerRecord>,
    pub program: ProgramRecord,
}

impl CheckpointImage {
    /// Number of pages carried.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Uncompressed bytes of page data represented.
    pub fn memory_bytes(&self) -> u64 {
        self.pages.len() as u64 * PAGE_SIZE
    }

    /// Bytes of page payload actually stored (post-compression).
    pub fn payload_bytes(&self) -> u64 {
        self.pages.iter().map(|p| p.payload.len() as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regs_round_trip() {
        let mut r = Regs {
            pc: 0x400004,
            ..Regs::default()
        };
        r.gpr[3] = 77;
        let rec = RegsRecord::from(&r);
        assert_eq!((rec.pc, rec.gpr), (r.pc, r.gpr));
    }

    #[test]
    fn vma_round_trip() {
        let v = Vma {
            start: 0x1000,
            end: 0x3000,
            prot: Prot::RW,
            kind: VmaKind::Heap,
            name: "[heap]".into(),
        };
        let rec = VmaRecord::from(&v);
        assert_eq!(rec.to_vma().unwrap(), v);
    }

    #[test]
    fn bad_vma_kind_tag_rejected() {
        let rec = VmaRecord {
            start: 0,
            end: 0,
            prot: 0,
            kind: 99,
            name: String::new(),
        };
        assert!(rec.to_vma().is_none());
    }

    #[test]
    fn page_record_compresses_zero_pages() {
        let rec = PageRecord::capture(5, &vec![0u8; PAGE_SIZE as usize]);
        assert_eq!(rec.enc, PageEncoding::Zero);
        assert!(rec.payload.is_empty());
        assert_eq!(rec.expand().unwrap(), vec![0u8; PAGE_SIZE as usize]);
    }

    #[test]
    fn sig_record_round_trips_dispositions() {
        let mut s = SignalState::new();
        s.set_action(Sig::SIGUSR1, SigAction::Ignore).unwrap();
        s.set_action(
            Sig::SIGALRM,
            SigAction::Handler {
                kind: UserHandlerKind::VmFunction(0x400040),
                uses_non_reentrant: true,
            },
        )
        .unwrap();
        s.post(Sig::SIGUSR2);
        s.mask = Sig::SIGTERM.bit();
        s.non_reentrant_depth = 2;
        let rec = SigRecord::capture(&s);
        let restored = rec.restore();
        assert_eq!(restored.action(Sig::SIGUSR1), &SigAction::Ignore);
        assert_eq!(
            restored.action(Sig::SIGALRM),
            &SigAction::Handler {
                kind: UserHandlerKind::VmFunction(0x400040),
                uses_non_reentrant: true
            }
        );
        assert_eq!(restored.pending_mask(), s.pending_mask());
        assert_eq!(restored.mask, s.mask);
        assert_eq!(restored.non_reentrant_depth, 2);
    }

    #[test]
    fn program_record_round_trips_both_kinds() {
        let vm = ProgramSpec::Vm {
            text: vec![1, 2, 3],
            name: "p".into(),
        };
        assert_eq!(ProgramRecord::capture(&vm).to_spec().unwrap(), vm);
        let native = ProgramSpec::Native {
            kind: NativeKind::Stencil2D,
            params: AppParams::medium(),
        };
        assert_eq!(ProgramRecord::capture(&native).to_spec().unwrap(), native);
    }

    #[test]
    fn policy_record_round_trips() {
        for p in [
            SchedPolicy::Other { nice: -5 },
            SchedPolicy::Fifo { rt_prio: 42 },
        ] {
            assert_eq!(PolicyRecord::capture(p).to_policy(), p);
        }
    }

    #[test]
    fn fd_flags_pack_unpack() {
        let f = simos::fs::OpenFlags::RDWR_CREATE;
        let packed = FdRecord::pack_flags(f);
        let rec = FdRecord {
            fd: 0,
            path: "/x".into(),
            offset: 0,
            flags: packed,
            group: 0,
        };
        let got = rec.flags_decoded();
        assert!(got.read && got.write && got.create);
        assert!(!got.truncate, "restore must never re-truncate");
    }
}
