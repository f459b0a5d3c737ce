//! Golden regression test for the whole `report all` output.
//!
//! The software-TLB fast path promises *virtual-time neutrality*: wall-clock
//! drops, but every byte of the report — every table, every trace total —
//! stays what it was before the cache existed. Each experiment already
//! asserts its own determinism; this test pins the concatenated output of
//! the full report line by line, so any change to simulated behavior (not
//! just formatting) fails naming the first line that moved and the
//! experiment it belongs to.
//!
//! If an *intentional* output change lands (new experiment, new column),
//! repin in the same commit that changes the output:
//! `./target/release/report all > crates/bench/goldens/report_all.txt`.

#[path = "../../../tests/common/mod.rs"]
mod common;

#[test]
fn report_all_output_matches_pre_fast_path_baseline() {
    // Exactly what the report binary prints: run_all() + "\n".
    let out = format!("{}\n", ckpt_bench::run_all());
    common::assert_pinned("report_all", include_str!("../goldens/report_all.txt"), &out);
}
