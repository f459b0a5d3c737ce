//! Native guest applications: deterministic "scientific kernels" whose
//! entire mutable state lives in guest memory.
//!
//! The incremental-checkpointing evaluation of Sancho et al. \[31\] showed
//! that the benefit of incremental checkpointing "depends strongly on the
//! application" — specifically on its memory-update pattern. These kernels
//! span that space:
//!
//! * [`NativeKind::DenseSweep`] — rewrites its whole working set every step
//!   (worst case for incremental checkpointing);
//! * [`NativeKind::SparseRandom`] — a configurable number of random-word
//!   writes per step (best case);
//! * [`NativeKind::Stencil2D`] — a 2-D relaxation kernel (dense but with
//!   read traffic, representative of the ASC-style codes the paper cites);
//! * [`NativeKind::AppendLog`] — append-only growth (tiny deltas);
//! * [`NativeKind::ReadMostly`] — full-set reads with one written word per
//!   page stride (dirty fraction tunable by stride).
//!
//! All state — step counter, RNG state, running checksum, and the working
//! array — is stored in guest memory, starting at [`HEADER_BASE`]. Restoring
//! a checkpoint image therefore restores the application exactly; the
//! running checksum makes divergence detectable.

use crate::mem::{DATA_BASE, PAGE_SIZE};

/// Base address of the app header in guest memory.
pub const HEADER_BASE: u64 = DATA_BASE;
/// Header layout (u64 slots): magic, step, rng, checksum.
pub(crate) const H_MAGIC: u64 = HEADER_BASE;
pub const H_STEP: u64 = HEADER_BASE + 8;
pub(crate) const H_RNG: u64 = HEADER_BASE + 16;
pub const H_SUM: u64 = HEADER_BASE + 24;
/// Start of the working array.
pub const ARRAY_BASE: u64 = HEADER_BASE + PAGE_SIZE;

pub(crate) const APP_MAGIC: u64 = 0x434b_5054_4150_5031; // "CKPTAPP1"

/// Which native kernel to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NativeKind {
    DenseSweep,
    SparseRandom,
    Stencil2D,
    AppendLog,
    ReadMostly,
}

impl NativeKind {
    pub const ALL: [NativeKind; 5] = [
        NativeKind::DenseSweep,
        NativeKind::SparseRandom,
        NativeKind::Stencil2D,
        NativeKind::AppendLog,
        NativeKind::ReadMostly,
    ];
}

/// Immutable parameters of a native app (recorded in the
/// [`crate::pcb::ProgramSpec`], and thus in every checkpoint image).
#[derive(Debug, Clone, PartialEq)]
pub struct AppParams {
    /// Working-set size in bytes (rounded down to whole u64 words).
    pub mem_bytes: u64,
    /// Steps until the app exits.
    pub total_steps: u64,
    /// Random writes per step (SparseRandom only).
    pub writes_per_step: u64,
    /// Page stride between written words (ReadMostly only; 1 = every page).
    pub write_stride_pages: u64,
    /// RNG seed (initial value of the in-memory RNG state).
    pub seed: u64,
}

impl AppParams {
    /// A small configuration suitable for unit tests (64 KiB, 32 steps).
    pub fn small() -> Self {
        AppParams {
            mem_bytes: 64 * 1024,
            total_steps: 32,
            writes_per_step: 16,
            write_stride_pages: 4,
            seed: 0x5eed,
        }
    }

    /// A medium configuration for integration tests (1 MiB, 64 steps).
    pub fn medium() -> Self {
        AppParams {
            mem_bytes: 1024 * 1024,
            total_steps: 64,
            writes_per_step: 64,
            write_stride_pages: 8,
            seed: 0xfeed,
        }
    }

    /// Number of u64 words in the working array.
    pub(crate) fn words(&self) -> u64 {
        (self.mem_bytes / 8).max(1)
    }
}

/// Memory access interface the kernel hands to an app step. All accesses go
/// through the kernel's protection/tracking machinery.
pub trait GuestMemIo {
    fn r64(&mut self, addr: u64) -> u64;
    fn w64(&mut self, addr: u64, val: u64);

    /// Store `vals` at consecutive word addresses starting at `addr`.
    /// Semantically identical to a `w64` loop (the default *is* that loop);
    /// kernel-backed implementations override it to move whole page-sized
    /// batches through one protection check.
    fn write_words(&mut self, addr: u64, vals: &[u64]) {
        for (i, v) in vals.iter().enumerate() {
            self.w64(addr + i as u64 * 8, *v);
        }
    }

    /// Load consecutive words starting at `addr` into `out`. Semantically
    /// identical to an `r64` loop.
    fn read_words(&mut self, addr: u64, out: &mut [u64]) {
        for (i, o) in out.iter_mut().enumerate() {
            *o = self.r64(addr + i as u64 * 8);
        }
    }
}

/// Words per bulk batch: one guest page, so a batch never needs more than
/// one protection resolution per page on the kernel fast path.
const BATCH_WORDS: usize = (PAGE_SIZE / 8) as usize;

/// Result of one app step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepOutcome {
    /// The step index just completed.
    pub(crate) step: u64,
    /// True if the app has completed all its steps and wants to exit.
    pub finished: bool,
    /// Bytes of application memory traffic this step (for cost charging).
    pub(crate) bytes_touched: u64,
}

/// Deterministic 64-bit mix (one SplitMix64 step from state `z`), the
/// workspace's one definition: the apps' in-memory RNG and value
/// generation, the chunker's gear table (hence `const`), the scale model's
/// synthetic payloads and the backoff jitter stream all draw from it.
#[inline]
pub const fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Initialize the app's guest-memory state. Called once at spawn; never at
/// restart (restart restores memory instead).
pub fn init(kind: NativeKind, params: &AppParams, io: &mut dyn GuestMemIo) {
    io.w64(H_MAGIC, APP_MAGIC);
    io.w64(H_STEP, 0);
    io.w64(H_RNG, params.seed | 1);
    io.w64(H_SUM, 0);
    match kind {
        NativeKind::ReadMostly | NativeKind::Stencil2D => {
            // These kernels read before writing: initialize the array,
            // page-sized batch at a time.
            let words = params.words();
            let mut buf = [0u64; BATCH_WORDS];
            let mut i = 0u64;
            while i < words {
                let n = BATCH_WORDS.min((words - i) as usize);
                for (j, b) in buf[..n].iter_mut().enumerate() {
                    *b = mix64(params.seed ^ (i + j as u64));
                }
                io.write_words(ARRAY_BASE + i * 8, &buf[..n]);
                i += n as u64;
            }
        }
        _ => {}
    }
}

/// Execute one step of the app against guest memory. Deterministic: the
/// same (kind, params, memory state) always produces the same new state.
pub fn step(kind: NativeKind, params: &AppParams, io: &mut dyn GuestMemIo) -> StepOutcome {
    let step = io.r64(H_STEP);
    let words = params.words();
    let mut touched: u64 = 32; // header traffic
    let mut sum = io.r64(H_SUM);
    match kind {
        NativeKind::DenseSweep => {
            // Page-granular batches; values and the checksum accumulate in
            // the exact order the scalar loop produced.
            let mut buf = [0u64; BATCH_WORDS];
            let mut i = 0u64;
            while i < words {
                let n = BATCH_WORDS.min((words - i) as usize);
                for (j, b) in buf[..n].iter_mut().enumerate() {
                    let v = mix64(step.wrapping_mul(0x1000_0001).wrapping_add(i + j as u64));
                    *b = v;
                    sum = sum.wrapping_add(v);
                }
                io.write_words(ARRAY_BASE + i * 8, &buf[..n]);
                i += n as u64;
            }
            touched += words * 8;
        }
        NativeKind::SparseRandom => {
            let mut rng = io.r64(H_RNG);
            for _ in 0..params.writes_per_step {
                rng = mix64(rng);
                let idx = rng % words;
                let v = mix64(rng ^ step);
                io.w64(ARRAY_BASE + idx * 8, v);
                sum = sum.wrapping_add(v);
            }
            io.w64(H_RNG, rng);
            touched += params.writes_per_step * 16;
        }
        NativeKind::Stencil2D => {
            // Square-ish grid of u64 cells; Jacobi-style in-place update
            // (deterministic even though not a true Jacobi sweep).
            let side = (words as f64).sqrt() as u64;
            let side = side.max(2);
            for r in 1..side - 1 {
                for c in 1..side - 1 {
                    let at = |rr: u64, cc: u64| ARRAY_BASE + (rr * side + cc) * 8;
                    let v = io
                        .r64(at(r - 1, c))
                        .wrapping_add(io.r64(at(r + 1, c)))
                        .wrapping_add(io.r64(at(r, c - 1)))
                        .wrapping_add(io.r64(at(r, c + 1)))
                        / 4
                        + 1;
                    io.w64(at(r, c), v);
                    sum = sum.wrapping_add(v);
                }
            }
            let inner = (side - 2) * (side - 2);
            touched += inner * 8 * 5;
        }
        NativeKind::AppendLog => {
            // Append 8 words (64 bytes) per step.
            let base = ARRAY_BASE + (step * 64) % (words * 8 / 64 * 64).max(64);
            for i in 0..8u64 {
                let v = mix64(step ^ i);
                io.w64(base + i * 8, v);
                sum = sum.wrapping_add(v);
            }
            touched += 64;
        }
        NativeKind::ReadMostly => {
            // Read the whole set; write one word per `write_stride_pages`
            // pages.
            let mut acc = 0u64;
            let mut buf = [0u64; BATCH_WORDS];
            let mut i = 0u64;
            while i < words {
                let n = BATCH_WORDS.min((words - i) as usize);
                io.read_words(ARRAY_BASE + i * 8, &mut buf[..n]);
                for v in &buf[..n] {
                    acc = acc.wrapping_add(*v);
                }
                i += n as u64;
            }
            let stride_words = params.write_stride_pages.max(1) * (PAGE_SIZE / 8);
            let mut i = (step * 7) % stride_words.min(words);
            while i < words {
                let v = mix64(acc ^ i ^ step);
                io.w64(ARRAY_BASE + i * 8, v);
                sum = sum.wrapping_add(v);
                i += stride_words;
            }
            touched += words * 8 + (words / stride_words.max(1) + 1) * 8;
        }
    }
    let next = step + 1;
    io.w64(H_STEP, next);
    io.w64(H_SUM, sum);
    StepOutcome {
        step,
        finished: next >= params.total_steps,
        bytes_touched: touched,
    }
}

/// Pure-Rust reference executor: runs the app against a plain byte vector
/// (no kernel, no tracking). Used by tests to compute the expected final
/// (step, checksum) for correctness comparisons after restarts.
#[derive(Clone)]
pub struct VecMem {
    base: u64,
    pub bytes: Vec<u8>,
}

impl VecMem {
    pub fn new(params: &AppParams) -> Self {
        let span = (ARRAY_BASE - HEADER_BASE) + params.mem_bytes + PAGE_SIZE;
        VecMem {
            base: HEADER_BASE,
            bytes: vec![0; span as usize],
        }
    }
}

impl GuestMemIo for VecMem {
    fn r64(&mut self, addr: u64) -> u64 {
        let off = (addr - self.base) as usize;
        u64::from_le_bytes(self.bytes[off..off + 8].try_into().unwrap())
    }
    fn w64(&mut self, addr: u64, val: u64) {
        let off = (addr - self.base) as usize;
        self.bytes[off..off + 8].copy_from_slice(&val.to_le_bytes());
    }
}

/// Run an app to completion on a [`VecMem`] and return (final step, final
/// checksum).
pub fn reference_run(kind: NativeKind, params: &AppParams) -> (u64, u64) {
    let mut mem = VecMem::new(params);
    init(kind, params, &mut mem);
    loop {
        let out = step(kind, params, &mut mem);
        if out.finished {
            break;
        }
    }
    (mem.r64(H_STEP), mem.r64(H_SUM))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_runs_are_deterministic() {
        for kind in NativeKind::ALL {
            let p = AppParams::small();
            let a = reference_run(kind, &p);
            let b = reference_run(kind, &p);
            assert_eq!(a, b, "{kind:?} not deterministic");
            assert_eq!(a.0, p.total_steps, "{kind:?} wrong step count");
        }
    }

    #[test]
    fn different_seeds_give_different_checksums_for_sparse() {
        let mut p1 = AppParams::small();
        let mut p2 = AppParams::small();
        p1.seed = 1;
        p2.seed = 2;
        let a = reference_run(NativeKind::SparseRandom, &p1);
        let b = reference_run(NativeKind::SparseRandom, &p2);
        assert_ne!(a.1, b.1);
    }

    #[test]
    fn state_is_entirely_in_memory() {
        // Running k steps, snapshotting the bytes, then continuing must
        // equal running the same k steps on the snapshot.
        let p = AppParams::small();
        let kind = NativeKind::SparseRandom;
        let mut m1 = VecMem::new(&p);
        init(kind, &p, &mut m1);
        for _ in 0..10 {
            step(kind, &p, &mut m1);
        }
        let snapshot = m1.bytes.clone();
        // Continue original.
        for _ in 0..10 {
            step(kind, &p, &mut m1);
        }
        // Restore snapshot into a fresh VecMem and continue.
        let mut m2 = VecMem::new(&p);
        m2.bytes = snapshot;
        for _ in 0..10 {
            step(kind, &p, &mut m2);
        }
        assert_eq!(m1.r64(H_SUM), m2.r64(H_SUM));
        assert_eq!(m1.r64(H_STEP), m2.r64(H_STEP));
    }

    #[test]
    fn dense_touches_more_than_sparse() {
        let p = AppParams::small();
        let mut m = VecMem::new(&p);
        init(NativeKind::DenseSweep, &p, &mut m);
        let dense = step(NativeKind::DenseSweep, &p, &mut m).bytes_touched;
        let mut m2 = VecMem::new(&p);
        init(NativeKind::SparseRandom, &p, &mut m2);
        let sparse = step(NativeKind::SparseRandom, &p, &mut m2).bytes_touched;
        assert!(dense > 10 * sparse);
    }

    #[test]
    fn mix64_is_a_bijection_sample() {
        // Distinct inputs map to distinct outputs on a sample.
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000u64 {
            assert!(seen.insert(mix64(i)));
        }
    }

    #[test]
    fn header_constants_do_not_overlap_array() {
        // Evaluated through locals so the layout invariant is checked even
        // though the operands are compile-time constants.
        let (sum_end, array_base) = (H_SUM + 8, ARRAY_BASE);
        assert!(sum_end <= array_base);
        assert_eq!(array_base % PAGE_SIZE, 0);
    }
}
