//! Golden regression test for the whole `report all` output.
//!
//! The software-TLB fast path promises *virtual-time neutrality*: wall-clock
//! drops, but every byte of the report — every table, every trace total —
//! stays what it was before the cache existed. Each experiment already
//! asserts its own determinism; this test pins the concatenated output of
//! the full report against the pre-fast-path baseline hash, so any change
//! to simulated behavior (not just formatting) fails loudly.
//!
//! If an *intentional* output change lands (new experiment, new column),
//! regenerate the constant: hash `./target/release/report all`'s stdout
//! with the FNV-1a 64 below and update `GOLDEN_FNV1A64` + `GOLDEN_BYTES` in
//! the same commit that changes the output.

/// FNV-1a 64 of the full `report all` stdout (including the trailing
/// newline `println!` appends). Captured before the TLB fast path landed
/// (`0x10b5_9ccb_4d6b_76f7`) and repinned once since, for two TRACE tokens:
/// the user-level library's prune now emits its storage `Delete` event like
/// every other checkpointer's (`local-disk delete 4 → 5`, `total events
/// recorded 290 → 291`).
const GOLDEN_FNV1A64: u64 = 0x4b7d_1f08_e895_fcf9;
const GOLDEN_BYTES: usize = 18554;

use ckpt_bench::artifact::fnv1a64;

#[test]
fn report_all_output_matches_pre_fast_path_baseline() {
    // Exactly what the report binary prints: run_all() + "\n".
    let out = format!("{}\n", ckpt_bench::run_all());
    assert_eq!(
        out.len(),
        GOLDEN_BYTES,
        "report all output length changed — virtual-time neutrality broken?"
    );
    assert_eq!(
        fnv1a64(out.as_bytes()),
        GOLDEN_FNV1A64,
        "report all output bytes changed — virtual-time neutrality broken?"
    );
}
