//! Shared deterministic case generator for the property-style integration
//! tests. The workspace builds offline, so instead of proptest the tests
//! drive their invariants with this SplitMix64-based generator: same
//! property checks, explicit seeds, exhaustively reproducible failures.

// Each test target compiles its own copy of this module and uses a
// different subset of the generator's methods.
#![allow(dead_code)]

/// A tiny deterministic generator (SplitMix64).
pub struct Gen {
    state: u64,
}

impl Gen {
    pub fn new(seed: u64) -> Self {
        Gen {
            state: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xD1B5_4A32_D192_ED03,
        }
    }

    pub fn u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw from the half-open range `lo..hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi);
        lo + ((self.u64() as u128 * (hi - lo) as u128) >> 64) as u64
    }

    pub fn byte(&mut self) -> u8 {
        (self.u64() >> 56) as u8
    }

    pub fn flag(&mut self) -> bool {
        self.u64() & 1 == 1
    }

    /// A printable ASCII string of length 0..max_len.
    pub fn ascii(&mut self, max_len: u64) -> String {
        let n = self.range(0, max_len + 1);
        (0..n)
            .map(|_| (self.range(0x20, 0x7F) as u8) as char)
            .collect()
    }

    pub fn bytes(&mut self, n: usize) -> Vec<u8> {
        (0..n).map(|_| self.byte()).collect()
    }
}

/// Compare a line-by-line rendering with its pinned `goldens/<name>.txt`
/// (under `tests/` for the root package, under `crates/bench/` for the
/// report outputs, which include this file by `#[path]`). On a mismatch
/// the full actual rendering is left in the test target's scratch
/// directory for diffing, and the first divergent line is named with the
/// section it belongs to: the last `== ` line or `TAG — title` report
/// header before it.
pub fn assert_pinned(name: &str, golden: &str, actual: &str) {
    if actual == golden {
        return;
    }
    let path =
        std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{name}.actual.txt"));
    std::fs::write(&path, actual).unwrap();
    let mut section = String::new();
    for (i, (want, got)) in golden.lines().zip(actual.lines()).enumerate() {
        let report_header = got.split_once(" — ").is_some_and(|(tag, _)| !tag.contains(' '));
        if got.starts_with("== ") || report_header {
            section = format!(" (in `{got}`)");
        }
        assert!(
            want == got,
            "{name} moved: line {}{section} diverges from goldens/{name}.txt; \
             full rendering in {}\n  want: {want}\n   got: {got}",
            i + 1,
            path.display()
        );
    }
    panic!(
        "{name} moved: {} lines rendered, {} pinned; full rendering in {}",
        actual.lines().count(),
        golden.lines().count(),
        path.display()
    );
}
