//! Binary serialization of [`CheckpointImage`] with trailing CRC-32.
//!
//! Layout (little-endian throughout):
//!
//! ```text
//! magic:u64  version:u32  header  regs  brk:u64  work:u64  policy
//! vmas  pages  fds  files  sig  timers  program  crc:u32
//! ```
//!
//! Every variable-length field is length-prefixed. The CRC covers every
//! byte before it; [`decode`] refuses images whose CRC or structure is
//! invalid, so a corrupted checkpoint fails loudly at restart time instead
//! of resurrecting a corrupted process.

use crate::compress::PageEncoding;
use crate::crc::{crc32, crc32_combine};
use crate::format::*;
use ckpt_par::Pool;
use simos::mem::PAGE_SIZE;

/// Decoding errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    Truncated,
    BadMagic(u64),
    BadVersion(u32),
    BadCrc { stored: u32, computed: u32 },
    Malformed(&'static str),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "image truncated"),
            DecodeError::BadMagic(m) => write!(f, "bad magic {m:#x}"),
            DecodeError::BadVersion(v) => write!(f, "unsupported format version {v}"),
            DecodeError::BadCrc { stored, computed } => {
                write!(f, "CRC mismatch: stored {stored:#x}, computed {computed:#x}")
            }
            DecodeError::Malformed(what) => write!(f, "malformed image: {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

// ---------------------------------------------------------------------
// Writer helpers.
// ---------------------------------------------------------------------

fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}
fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_i32(out: &mut Vec<u8>, v: i32) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}
fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_u64(out, b.len() as u64);
    out.extend_from_slice(b);
}

// ---------------------------------------------------------------------
// Reader helpers.
// ---------------------------------------------------------------------

struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.pos + n > self.buf.len() {
            return Err(DecodeError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn i32(&mut self) -> Result<i32, DecodeError> {
        Ok(i32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn string(&mut self) -> Result<String, DecodeError> {
        let n = self.u32()? as usize;
        if n > 1 << 24 {
            return Err(DecodeError::Malformed("string too long"));
        }
        let b = self.take(n)?;
        String::from_utf8(b.to_vec()).map_err(|_| DecodeError::Malformed("bad utf-8"))
    }
    fn bytes(&mut self) -> Result<Vec<u8>, DecodeError> {
        let n = self.u64()? as usize;
        if n > 1 << 32 {
            return Err(DecodeError::Malformed("byte field too long"));
        }
        Ok(self.take(n)?.to_vec())
    }
}

// ---------------------------------------------------------------------
// Encode.
// ---------------------------------------------------------------------

/// Serialize an image to bytes (with trailing CRC-32): [`encode_with_pool`]
/// at width 1.
pub fn encode(img: &CheckpointImage) -> Vec<u8> {
    encode_with_pool(img, &Pool::new(1))
}

/// [`encode`] on `pool`, byte-identical at every width. The page records
/// are written in runs of [`ckpt_par::PAR_MIN_BYTES`] (see
/// `encode_records`).
pub fn encode_with_pool(img: &CheckpointImage, pool: &Pool) -> Vec<u8> {
    let sizes: Vec<usize> = img.pages.iter().map(|p| p.view().len()).collect();
    let runs: Vec<&[PageRecord]> = crate::parallel::runs(&sizes)
        .into_iter()
        .map(|run| &img.pages[run])
        .collect();
    encode_records(
        img,
        img.pages.len(),
        &runs,
        |run| run.iter().map(PageRecord::view),
        pool,
    )
}

/// One page record as the codec writes it: page number, encoding tag,
/// payload length and payload, the payload borrowed from wherever it sits
/// (a [`PageRecord`], a run's RLE arena, a frozen guest page).
#[derive(Debug, Clone, Copy)]
pub(crate) struct RecordView<'a> {
    pub(crate) page_no: u64,
    pub(crate) enc: PageEncoding,
    pub(crate) payload: &'a [u8],
}

impl PageRecord {
    pub(crate) fn view(&self) -> RecordView<'_> {
        RecordView {
            page_no: self.page_no,
            enc: self.enc,
            payload: &self.payload,
        }
    }
}

impl RecordView<'_> {
    /// Bytes the record takes in the image.
    pub(crate) fn len(&self) -> usize {
        8 + 1 + 8 + self.payload.len()
    }

    /// Write the record into `out`, which is exactly [`Self::len`] long:
    /// the one writer of the record layout.
    fn write(&self, out: &mut [u8]) {
        out[..8].copy_from_slice(&self.page_no.to_le_bytes());
        out[8] = self.enc.tag();
        out[9..17].copy_from_slice(&(self.payload.len() as u64).to_le_bytes());
        out[17..].copy_from_slice(self.payload);
    }
}

/// The image bytes of `state` (whose own page records are ignored) with
/// `npages` page records given as `runs`, each run's records yielded by
/// `records`. The head and the tail (everything after the page records)
/// are written on the caller and the output buffer is sized exactly; each
/// run is written into its own slice of it on `pool` and CRC'd by its
/// worker right after, while it is hot. The run CRCs fold in order with
/// `crc32_combine`. Below [`ckpt_par::PAR_MIN_BYTES`] of records, and at
/// width 1, the runs are written in order on the caller.
pub(crate) fn encode_records<'r, R, I>(
    state: &CheckpointImage,
    npages: usize,
    runs: &'r [R],
    records: impl Fn(&'r R) -> I + Sync,
    pool: &Pool,
) -> Vec<u8>
where
    R: Sync,
    I: Iterator<Item = RecordView<'r>>,
{
    let lens: Vec<usize> = runs
        .iter()
        .map(|run| records(run).map(|r| r.len()).sum())
        .collect();
    let body: usize = lens.iter().sum();
    let (mut head, mut tail) = (Vec::new(), Vec::new());
    encode_head(state, npages, &mut head);
    encode_tail(state, &mut tail);
    let mut out = Vec::with_capacity(head.len() + body + tail.len() + 4);
    out.extend_from_slice(&head);
    out.resize(head.len() + body, 0);
    let mut rest = &mut out[head.len()..];
    let slices: Vec<(&R, &mut [u8])> = runs
        .iter()
        .zip(&lens)
        .map(|(run, len)| {
            let (slice, after) = std::mem::take(&mut rest).split_at_mut(*len);
            rest = after;
            (run, slice)
        })
        .collect();
    let run_crcs = pool.for_bytes(body).par_map_ordered(
        slices,
        || (),
        |_, _, (run, out)| {
            let mut at = 0;
            for record in records(run) {
                record.write(&mut out[at..at + record.len()]);
                at += record.len();
            }
            (crc32(out), out.len())
        },
    );
    let mut crc = crc32(&head);
    for (run_crc, len) in run_crcs {
        crc = crc32_combine(crc, run_crc, len as u64);
    }
    crc = crc32_combine(crc, crc32(&tail), tail.len() as u64);
    out.extend_from_slice(&tail);
    put_u32(&mut out, crc);
    out
}

/// Everything before the first page record: `npages` is the page count.
fn encode_head(img: &CheckpointImage, npages: usize, out: &mut Vec<u8>) {
    put_u64(out, IMAGE_MAGIC);
    put_u32(out, FORMAT_VERSION);
    // Header.
    put_u32(out, img.header.pid);
    put_u64(out, img.header.seq);
    put_u64(out, img.header.parent_seq);
    put_u8(
        out,
        match img.header.kind {
            ImageKind::Full => 0,
            ImageKind::Incremental => 1,
        },
    );
    put_u64(out, img.header.taken_at_ns);
    put_str(out, &img.header.mechanism);
    put_u32(out, img.header.node);
    // Registers.
    put_u64(out, img.regs.pc);
    for g in img.regs.gpr {
        put_u64(out, g);
    }
    put_u64(out, img.brk);
    put_u64(out, img.work_done);
    put_u8(out, img.policy.tag);
    put_i32(out, img.policy.value);
    // VMAs.
    put_u32(out, img.vmas.len() as u32);
    for v in &img.vmas {
        put_u64(out, v.start);
        put_u64(out, v.end);
        put_u8(out, v.prot);
        put_u8(out, v.kind);
        put_str(out, &v.name);
    }
    put_u64(out, npages as u64);
}

/// Everything after the last page record, up to the trailing CRC.
fn encode_tail(img: &CheckpointImage, out: &mut Vec<u8>) {
    // Fds.
    put_u32(out, img.fds.len() as u32);
    for f in &img.fds {
        put_u32(out, f.fd);
        put_str(out, &f.path);
        put_u64(out, f.offset);
        put_u8(out, f.flags);
        put_u32(out, f.group);
    }
    // File contents.
    put_u32(out, img.files.len() as u32);
    for f in &img.files {
        put_str(out, &f.path);
        put_bytes(out, &f.data);
    }
    // Signal state.
    put_u32(out, img.sig.actions.len() as u32);
    for a in &img.sig.actions {
        put_u32(out, a.sig);
        put_u8(out, a.kind);
        put_u64(out, a.param);
        put_u8(out, a.non_reentrant as u8);
    }
    put_u32(out, img.sig.pending.len() as u32);
    for p in &img.sig.pending {
        put_u32(out, *p);
    }
    put_u64(out, img.sig.mask);
    put_u32(out, img.sig.in_handler);
    put_u32(out, img.sig.non_reentrant_depth);
    // Timers.
    put_u32(out, img.timers.len() as u32);
    for t in &img.timers {
        put_u64(out, t.in_ns);
        put_u64(out, t.period_ns);
        put_u32(out, t.sig);
    }
    // Program.
    match &img.program {
        ProgramRecord::Vm { name, text } => {
            put_u8(out, 0);
            put_str(out, name);
            put_u32(out, text.len() as u32);
            for w in text {
                put_u32(out, *w);
            }
        }
        ProgramRecord::Native {
            kind,
            mem_bytes,
            total_steps,
            writes_per_step,
            write_stride_pages,
            seed,
        } => {
            put_u8(out, 1);
            put_u8(out, *kind);
            put_u64(out, *mem_bytes);
            put_u64(out, *total_steps);
            put_u64(out, *writes_per_step);
            put_u64(out, *write_stride_pages);
            put_u64(out, *seed);
        }
    }
}

// ---------------------------------------------------------------------
// Decode.
// ---------------------------------------------------------------------

/// Parse and validate an image from bytes: [`decode_with_pool`] at width
/// 1.
pub fn decode(buf: &[u8]) -> Result<CheckpointImage, DecodeError> {
    decode_with_pool(buf, &ckpt_par::Pool::new(1))
}

/// Parse and validate an image from bytes, CRC'ing its body on `pool`;
/// the result is the same at every width. The body is CRC'd in runs of
/// [`ckpt_par::PAR_MIN_BYTES`], each on a worker, and the run CRCs fold in
/// order with `crc32_combine` (from 0, the CRC of no bytes), at width 1
/// on the caller alone. Parsing runs on the caller once the CRC has
/// matched.
pub fn decode_with_pool(buf: &[u8], pool: &ckpt_par::Pool) -> Result<CheckpointImage, DecodeError> {
    if buf.len() < 16 {
        return Err(DecodeError::Truncated);
    }
    let (body, crc_bytes) = buf.split_at(buf.len() - 4);
    let stored = u32::from_le_bytes(crc_bytes.try_into().unwrap());
    let runs: Vec<&[u8]> = body.chunks(ckpt_par::PAR_MIN_BYTES).collect();
    let run_crcs = pool.for_bytes(body.len()).par_map_ordered(
        runs,
        || (),
        |_, _, run| (crc32(run), run.len()),
    );
    let computed = run_crcs.into_iter().fold(0, |crc, (run_crc, len)| {
        crc32_combine(crc, run_crc, len as u64)
    });
    if stored != computed {
        return Err(DecodeError::BadCrc { stored, computed });
    }
    let mut d = Dec { buf: body, pos: 0 };
    let magic = d.u64()?;
    if magic != IMAGE_MAGIC {
        return Err(DecodeError::BadMagic(magic));
    }
    let version = d.u32()?;
    if version != FORMAT_VERSION {
        return Err(DecodeError::BadVersion(version));
    }
    let header = ImageHeader {
        pid: d.u32()?,
        seq: d.u64()?,
        parent_seq: d.u64()?,
        kind: match d.u8()? {
            0 => ImageKind::Full,
            1 => ImageKind::Incremental,
            _ => return Err(DecodeError::Malformed("bad image kind")),
        },
        taken_at_ns: d.u64()?,
        mechanism: d.string()?,
        node: d.u32()?,
    };
    let mut regs = RegsRecord {
        pc: d.u64()?,
        gpr: [0; 16],
    };
    for g in regs.gpr.iter_mut() {
        *g = d.u64()?;
    }
    let brk = d.u64()?;
    let work_done = d.u64()?;
    let policy = PolicyRecord {
        tag: d.u8()?,
        value: d.i32()?,
    };
    let nvmas = d.u32()? as usize;
    if nvmas > 1 << 20 {
        return Err(DecodeError::Malformed("too many VMAs"));
    }
    let mut vmas = Vec::with_capacity(nvmas);
    for _ in 0..nvmas {
        vmas.push(VmaRecord {
            start: d.u64()?,
            end: d.u64()?,
            prot: d.u8()?,
            kind: d.u8()?,
            name: d.string()?,
        });
    }
    let npages = d.u64()? as usize;
    if npages > 1 << 28 {
        return Err(DecodeError::Malformed("too many pages"));
    }
    let mut pages = Vec::with_capacity(npages);
    for _ in 0..npages {
        let page_no = d.u64()?;
        let enc = PageEncoding::from_tag(d.u8()?)
            .ok_or(DecodeError::Malformed("bad page encoding"))?;
        let payload = d.bytes()?;
        let consistent = match enc {
            PageEncoding::Zero => payload.is_empty(),
            PageEncoding::Raw => payload.len() == PAGE_SIZE as usize,
            PageEncoding::Rle => payload.len().is_multiple_of(2),
        };
        if !consistent {
            return Err(DecodeError::Malformed(
                "page payload contradicts its encoding",
            ));
        }
        pages.push(PageRecord {
            page_no,
            enc,
            payload,
        });
    }
    let nfds = d.u32()? as usize;
    if nfds > 1 << 20 {
        return Err(DecodeError::Malformed("too many fds"));
    }
    let mut fds = Vec::with_capacity(nfds);
    for _ in 0..nfds {
        fds.push(FdRecord {
            fd: d.u32()?,
            path: d.string()?,
            offset: d.u64()?,
            flags: d.u8()?,
            group: d.u32()?,
        });
    }
    let nfiles = d.u32()? as usize;
    if nfiles > 1 << 20 {
        return Err(DecodeError::Malformed("too many files"));
    }
    let mut files = Vec::with_capacity(nfiles);
    for _ in 0..nfiles {
        files.push(FileContentRecord {
            path: d.string()?,
            data: d.bytes()?,
        });
    }
    let nacts = d.u32()? as usize;
    if nacts > 4096 {
        return Err(DecodeError::Malformed("too many sigactions"));
    }
    let mut actions = Vec::with_capacity(nacts);
    for _ in 0..nacts {
        actions.push(SigActionRecord {
            sig: d.u32()?,
            kind: d.u8()?,
            param: d.u64()?,
            non_reentrant: d.u8()? != 0,
        });
    }
    let npend = d.u32()? as usize;
    if npend > 4096 {
        return Err(DecodeError::Malformed("too many pending signals"));
    }
    let mut pending = Vec::with_capacity(npend);
    for _ in 0..npend {
        pending.push(d.u32()?);
    }
    let sig = SigRecord {
        actions,
        pending,
        mask: d.u64()?,
        in_handler: d.u32()?,
        non_reentrant_depth: d.u32()?,
    };
    let ntimers = d.u32()? as usize;
    if ntimers > 4096 {
        return Err(DecodeError::Malformed("too many timers"));
    }
    let mut timers = Vec::with_capacity(ntimers);
    for _ in 0..ntimers {
        timers.push(TimerRecord {
            in_ns: d.u64()?,
            period_ns: d.u64()?,
            sig: d.u32()?,
        });
    }
    let program = match d.u8()? {
        0 => {
            let name = d.string()?;
            let n = d.u32()? as usize;
            if n > 1 << 24 {
                return Err(DecodeError::Malformed("text too long"));
            }
            let mut text = Vec::with_capacity(n);
            for _ in 0..n {
                text.push(d.u32()?);
            }
            ProgramRecord::Vm { name, text }
        }
        1 => ProgramRecord::Native {
            kind: d.u8()?,
            mem_bytes: d.u64()?,
            total_steps: d.u64()?,
            writes_per_step: d.u64()?,
            write_stride_pages: d.u64()?,
            seed: d.u64()?,
        },
        _ => return Err(DecodeError::Malformed("bad program tag")),
    };
    if d.pos != body.len() {
        return Err(DecodeError::Malformed("trailing bytes"));
    }
    Ok(CheckpointImage {
        header,
        regs,
        brk,
        work_done,
        policy,
        vmas,
        pages,
        fds,
        files,
        sig,
        timers,
        program,
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    pub(crate) fn sample_image() -> CheckpointImage {
        CheckpointImage {
            header: ImageHeader {
                pid: 42,
                seq: 3,
                parent_seq: 2,
                kind: ImageKind::Incremental,
                taken_at_ns: 123_456_789,
                mechanism: "crak".into(),
                node: 7,
            },
            regs: RegsRecord {
                pc: 0x400010,
                gpr: [9; 16],
            },
            brk: 0x0800_2000,
            work_done: 99,
            policy: PolicyRecord { tag: 0, value: -3 },
            vmas: vec![VmaRecord {
                start: 0x40_0000,
                end: 0x40_1000,
                prot: 5,
                kind: 0,
                name: "[text]".into(),
            }],
            pages: vec![
                PageRecord::capture(0x100, &vec![0u8; 4096]),
                PageRecord::capture(0x101, &vec![7u8; 4096]),
                PageRecord::capture(
                    0x102,
                    &(0..4096).map(|i| (i % 251) as u8).collect::<Vec<_>>(),
                ),
            ],
            fds: vec![FdRecord {
                fd: 3,
                path: "/tmp/out".into(),
                offset: 128,
                flags: 3,
                group: 1,
            }],
            files: vec![FileContentRecord {
                path: "/tmp/out".into(),
                data: b"contents".to_vec(),
            }],
            sig: SigRecord {
                actions: vec![SigActionRecord {
                    sig: 14,
                    kind: 3,
                    param: 0,
                    non_reentrant: true,
                }],
                pending: vec![10],
                mask: 0x400,
                in_handler: 0,
                non_reentrant_depth: 0,
            },
            timers: vec![TimerRecord {
                in_ns: 5_000,
                period_ns: 10_000,
                sig: 14,
            }],
            program: ProgramRecord::Native {
                kind: 1,
                mem_bytes: 65536,
                total_steps: 100,
                writes_per_step: 8,
                write_stride_pages: 4,
                seed: 0x5eed,
            },
        }
    }

    #[test]
    fn encode_decode_round_trips() {
        let img = sample_image();
        let bytes = encode(&img);
        let back = decode(&bytes).unwrap();
        assert_eq!(back, img);
    }

    /// Page `i` of a mixed image: zero, constant (RLE), random (raw) and
    /// half-constant (long RLE) pages, so records of 17 bytes to 4 KiB
    /// fall on both sides of every run boundary.
    fn mixed_page(i: u64) -> PageRecord {
        let data: Vec<u8> = match i % 4 {
            0 => vec![0; 4096],
            1 => vec![i as u8 | 1; 4096],
            2 => (0..4096u64)
                .map(|b| (b.wrapping_mul(i | 1) >> 3) as u8)
                .collect(),
            _ => (0..4096u64)
                .map(|b| if b < 2048 { 5 } else { (b * 7) as u8 })
                .collect(),
        };
        PageRecord::capture(i, &data)
    }

    #[test]
    fn encode_with_pool_is_byte_identical() {
        let mut images = Vec::new();
        for n in [0u64, 1, 3, 40, 97] {
            let mut img = sample_image();
            img.pages = (0..n).map(mixed_page).collect();
            images.push(img);
        }
        let encodings: Vec<PageEncoding> = images[4].pages.iter().map(|p| p.enc).collect();
        for enc in [PageEncoding::Zero, PageEncoding::Rle, PageEncoding::Raw] {
            assert!(
                encodings.contains(&enc),
                "{enc:?} missing from the mixed image"
            );
        }
        assert!(images[4].payload_bytes() as usize > 2 * ckpt_par::PAR_MIN_BYTES);
        let mut bare = images[4].clone();
        (bare.fds, bare.files, bare.timers) = (Vec::new(), Vec::new(), Vec::new());
        images.push(bare);
        for (i, img) in images.iter().enumerate() {
            let want = encode(img);
            for w in [1usize, 2, 4, 8] {
                let pool = ckpt_par::Pool::new(w);
                assert_eq!(encode_with_pool(img, &pool), want, "image {i}, width {w}");
            }
        }
    }

    /// Each case is a CRC-valid image whose one page record contradicts
    /// its encoding tag.
    #[test]
    fn page_records_that_contradict_their_encoding_are_malformed() {
        let cases = [
            (PageEncoding::Zero, vec![0u8; 37]),
            (PageEncoding::Raw, vec![1u8; 4095]),
            (PageEncoding::Raw, vec![1u8; 4097]),
            (PageEncoding::Rle, vec![255, 1, 3]),
        ];
        for (enc, payload) in cases {
            let len = payload.len();
            let mut img = sample_image();
            img.pages = vec![PageRecord {
                page_no: 9,
                enc,
                payload,
            }];
            assert_eq!(
                decode(&encode(&img)),
                Err(DecodeError::Malformed(
                    "page payload contradicts its encoding"
                )),
                "{enc:?} with {len} payload bytes"
            );
        }
    }

    #[test]
    fn vm_program_round_trips() {
        let mut img = sample_image();
        img.program = ProgramRecord::Vm {
            name: "counter".into(),
            text: vec![0xDEAD_BEEF, 1, 2, 3],
        };
        let back = decode(&encode(&img)).unwrap();
        assert_eq!(back.program, img.program);
    }

    #[test]
    fn any_single_bit_flip_is_detected() {
        let bytes = encode(&sample_image());
        // Sample bit positions across the buffer, including inside the CRC.
        let positions = [0usize, 64, bytes.len() / 2, bytes.len() * 8 - 1];
        for bit in positions {
            let mut corrupted = bytes.clone();
            corrupted[bit / 8] ^= 1 << (bit % 8);
            assert!(
                decode(&corrupted).is_err(),
                "bit flip at {bit} went undetected"
            );
        }
    }

    #[test]
    fn truncation_is_detected() {
        let bytes = encode(&sample_image());
        for cut in [0, 10, bytes.len() - 5, bytes.len() - 1] {
            assert!(decode(&bytes[..cut]).is_err(), "truncation at {cut} passed");
        }
    }

    #[test]
    fn trailing_garbage_is_detected() {
        let mut bytes = encode(&sample_image());
        bytes.extend_from_slice(&[0, 1, 2, 3]);
        assert!(decode(&bytes).is_err());
    }

    #[test]
    fn bad_magic_reported() {
        let img = sample_image();
        let mut bytes = encode(&img);
        // Rewrite magic and fix up CRC.
        bytes[0] = 0;
        let body_len = bytes.len() - 4;
        let crc = crate::crc::crc32(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&crc.to_le_bytes());
        match decode(&bytes) {
            Err(DecodeError::BadMagic(_)) => {}
            other => panic!("expected BadMagic, got {other:?}"),
        }
    }

    #[test]
    fn empty_sections_round_trip() {
        let mut img = sample_image();
        img.pages.clear();
        img.fds.clear();
        img.files.clear();
        img.timers.clear();
        img.sig = SigRecord::default();
        let back = decode(&encode(&img)).unwrap();
        assert_eq!(back, img);
    }
}
