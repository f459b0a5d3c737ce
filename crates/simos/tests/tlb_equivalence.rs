//! Property test: the software TLB is a pure accelerator.
//!
//! Two address spaces — one with the translation cache enabled, one with it
//! disabled — are driven through the same pseudo-random sequence of memory
//! operations (map/unmap/mprotect/brk, checked reads and writes, aligned-word
//! loads and stores that try the single-probe word path first, peek/poke,
//! track-mode toggles, tracked-fault resolution). Every observable — access
//! outcomes, returned addresses, bytes read, dirty sets, resident sets, and
//! `MemStats` (with the TLB counters themselves masked) — must be identical
//! at every step. Any stale-translation bug (missed flush, wrong slot after
//! reuse, stale protection) shows up as a divergence.

use simos::apps::mix64;
use simos::mem::{AccessOutcome, AddressSpace, MemStats, Prot, TrackMode, DATA_BASE, PAGE_SIZE};

/// Checked write: check, resolve tracked faults like the kernel does, then
/// write on success.
fn checked_write(a: &mut AddressSpace, addr: u64, bytes: &[u8]) -> String {
    let mut log = String::new();
    for _ in 0..3 {
        match a.check_write(addr, bytes.len() as u64) {
            AccessOutcome::Ok => {
                a.write_unchecked(addr, bytes);
                log.push_str("w-ok ");
                break;
            }
            AccessOutcome::Fault { addr: faddr, kind } => {
                log.push_str(&format!("w-fault {faddr:#x} {kind:?} "));
                if !a.resolve_tracked_fault(faddr / PAGE_SIZE) {
                    break;
                }
                log.push_str("resolved ");
            }
        }
    }
    log
}

fn checked_read(a: &mut AddressSpace, addr: u64, len: usize) -> String {
    match a.check_read(addr, len as u64) {
        AccessOutcome::Ok => {
            let mut buf = vec![0u8; len];
            a.read_unchecked(addr, &mut buf);
            read_ok(&buf)
        }
        AccessOutcome::Fault { addr: faddr, kind } => {
            format!("r-fault {faddr:#x} {kind:?}")
        }
    }
}

fn read_ok(bytes: &[u8]) -> String {
    let hash = bytes.iter().fold(0u64, |h, &b| mix64(h ^ b as u64));
    format!("r-ok {hash:x} ")
}

/// One pseudo-random operation applied to both spaces; returns the
/// observation string the two runs are compared on.
fn apply(op: u64, rng: &mut u64, a: &mut AddressSpace, regions: &mut Vec<(u64, u64)>) -> String {
    let mut next = || {
        *rng = mix64(*rng);
        *rng
    };
    // Pick a target address biased toward mapped regions (data VMA, heap,
    // live mmaps) with occasional wild addresses to exercise fault paths.
    let pick_addr = |regions: &[(u64, u64)], r1: u64, r2: u64| -> u64 {
        match r1 % 8 {
            0..=2 => DATA_BASE + r2 % (16 * PAGE_SIZE),
            3 | 4 => {
                if let Some(&(start, len)) = regions.get((r1 / 8) as usize % regions.len().max(1)) {
                    start + r2 % len
                } else {
                    DATA_BASE + r2 % PAGE_SIZE
                }
            }
            5 => simos::mem::HEAP_BASE + r2 % (4 * PAGE_SIZE),
            6 => simos::mem::TEXT_BASE + r2 % PAGE_SIZE,
            _ => 0xdead_0000 + r2 % PAGE_SIZE, // usually unmapped
        }
    };
    match op % 14 {
        0 => {
            // mmap a small region.
            let len = (next() % 8 + 1) * PAGE_SIZE;
            let prot = if next() % 4 == 0 { Prot::R } else { Prot::RW };
            match a.mmap(len, prot, "prop") {
                Ok(addr) => {
                    regions.push((addr, len));
                    format!("mmap ok {addr:#x}")
                }
                Err(()) => "mmap err".into(),
            }
        }
        1 => {
            // munmap one of our regions (if any).
            if regions.is_empty() {
                return "munmap none".into();
            }
            let i = (next() as usize) % regions.len();
            let (start, _) = regions.remove(i);
            format!("munmap {start:#x} {:?}", a.munmap(start))
        }
        2 => {
            // mprotect a page range (ours or the data VMA).
            let (start, len) = if !regions.is_empty() && next() % 2 == 0 {
                regions[(next() as usize) % regions.len()]
            } else {
                (DATA_BASE, 16 * PAGE_SIZE)
            };
            let pages = (next() % 4 + 1) * PAGE_SIZE;
            let prot = match next() % 3 {
                0 => Prot::R,
                1 => Prot::RW,
                _ => Prot::NONE,
            };
            let r = a.mprotect(start, pages.min(len), prot);
            format!("mprotect {start:#x} {r:?}")
        }
        3 => {
            // brk dance.
            let delta = (next() % (4 * PAGE_SIZE)) as i64 - 2 * PAGE_SIZE as i64;
            format!("sbrk {:?}", a.sbrk(delta))
        }
        4..=6 => {
            let (r1, r2) = (next(), next());
            let addr = pick_addr(regions, r1, r2);
            let len = (next() % 64 + 1) as usize;
            let val = (next() & 0xFF) as u8;
            checked_write(a, addr, &vec![val; len])
        }
        7 | 8 => {
            // Checked read.
            let (r1, r2) = (next(), next());
            let addr = pick_addr(regions, r1, r2);
            let len = (next() % 64 + 1) as usize;
            checked_read(a, addr, len)
        }
        9 => {
            // peek/poke (checkpointer paths, no protection interaction).
            let (r1, r2) = (next(), next());
            let addr = pick_addr(regions, r1, r2);
            let val = (next() & 0xFF) as u8;
            a.poke(addr, &[val; 16]);
            let mut buf = [0u8; 16];
            a.peek(addr, &mut buf);
            format!("pokepeek {:x}", buf.iter().fold(0u64, |h, &b| mix64(h ^ b as u64)))
        }
        10 => {
            // Toggle track mode.
            let mode = match next() % 4 {
                0 => TrackMode::KernelPage,
                1 => TrackMode::UserSigsegv,
                2 => TrackMode::HardwareLine,
                _ => TrackMode::Off,
            };
            if mode == TrackMode::Off {
                format!("disarm {}", a.disarm_tracking())
            } else {
                format!("arm {mode:?} {}", a.arm_tracking(mode))
            }
        }
        11 => {
            // Aligned word stores the way the kernel issues them: the
            // single-probe path first, the checked path behind a refusal.
            // Which one served a store must not be observable. The second
            // store lands on the page the first just translated, so in the
            // enabled space it usually takes the word path.
            let (r1, r2) = (next(), next());
            let addr = pick_addr(regions, r1, r2) & !7;
            let val = next();
            let mut log = String::new();
            for addr in [addr, addr ^ 8] {
                if a.store_word(addr, val) {
                    log.push_str("w-ok ");
                } else {
                    log.push_str(&checked_write(a, addr, &val.to_le_bytes()));
                }
            }
            log
        }
        12 => {
            // Aligned word loads, likewise.
            let (r1, r2) = (next(), next());
            let addr = pick_addr(regions, r1, r2) & !7;
            let mut log = String::new();
            for addr in [addr, addr ^ 8] {
                log.push_str(&match a.load_word(addr) {
                    Some(word) => read_ok(&word.to_le_bytes()),
                    None => checked_read(a, addr, 8),
                });
            }
            log
        }
        _ => {
            // Restore-style raw ops occasionally.
            a.restore_brk(a.brk());
            "restore-brk".into()
        }
    }
}

/// Full observable state of a space, TLB counters masked: resident pages
/// with content hashes, dirty pages, dirty lines, stats.
type Observation = (Vec<(u64, u64)>, Vec<u64>, Vec<u64>, MemStats);

fn observe(a: &AddressSpace) -> Observation {
    let pages: Vec<(u64, u64)> = a
        .resident_pages()
        .map(|pn| {
            let h = a
                .page_data(pn)
                .unwrap()
                .iter()
                .fold(0u64, |h, &b| mix64(h ^ b as u64));
            (pn, h)
        })
        .collect();
    let mut stats = a.stats.clone();
    stats.tlb_hits = 0;
    stats.tlb_misses = 0;
    stats.tlb_flushes = 0;
    (
        pages,
        a.dirty_pages.iter().copied().collect(),
        a.dirty_lines.iter().copied().collect(),
        stats,
    )
}

#[test]
fn tlb_enabled_is_observationally_identical_to_disabled() {
    for seed in 0..8u64 {
        let mut on = AddressSpace::new(4 * PAGE_SIZE, 16 * PAGE_SIZE);
        let mut off = AddressSpace::new(4 * PAGE_SIZE, 16 * PAGE_SIZE);
        off.set_tlb_enabled(false);
        let mut rng_on = mix64(seed ^ 0x7157);
        let mut rng_off = rng_on;
        let mut regions_on = Vec::new();
        let mut regions_off = Vec::new();
        for step in 0..2000u64 {
            let op = mix64(seed.wrapping_mul(0x9E37).wrapping_add(step));
            let obs_on = apply(op, &mut rng_on, &mut on, &mut regions_on);
            let obs_off = apply(op, &mut rng_off, &mut off, &mut regions_off);
            assert_eq!(
                obs_on, obs_off,
                "seed {seed} step {step}: per-op observation diverged"
            );
            assert_eq!(rng_on, rng_off, "rng streams must stay in lockstep");
        }
        let (pages_on, dp_on, dl_on, stats_on) = observe(&on);
        let (pages_off, dp_off, dl_off, stats_off) = observe(&off);
        assert_eq!(pages_on, pages_off, "seed {seed}: resident pages/bytes");
        assert_eq!(dp_on, dp_off, "seed {seed}: dirty pages");
        assert_eq!(dl_on, dl_off, "seed {seed}: dirty lines");
        assert_eq!(stats_on, stats_off, "seed {seed}: MemStats");
        // The enabled run must actually have exercised the cache.
        assert!(on.stats.tlb_hits > 0, "seed {seed}: TLB never hit");
        assert_eq!(off.stats.tlb_hits, 0);
    }
}
