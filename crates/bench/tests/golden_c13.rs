//! Golden regression pin for `report c13`, the content-addressed dedup
//! experiment.
//!
//! Everything in the report is deterministic by construction: the guest
//! apps are seeded, capture is byte-stable, chunk boundaries come from a
//! const gear table, and the pool's ordered merge keeps digests and
//! receipts byte-identical at any worker count — so the full output pins
//! line by line. A moved line means the chunker, delta codec, manifest
//! format, or commit accounting changed observable behavior and must be
//! reviewed, not waved through.
//!
//! If an *intentional* change lands, repin in the same commit:
//! `./target/release/report c13 > crates/bench/goldens/report_c13.txt`.
//!
//! The two floors below are the whole of the dedup tier's acceptance: a
//! chunker or digest regression that silently degrades sharing without
//! corrupting bytes moves no property test, only these ratios.

#[path = "../../../tests/common/mod.rs"]
mod common;

#[test]
fn report_c13_output_matches_pinned_baseline() {
    // Exactly what the report binary prints: c13_dedup() + "\n".
    let out = format!("{}\n", ckpt_bench::c13_dedup());
    common::assert_pinned("report_c13", include_str!("../goldens/report_c13.txt"), &out);
}

#[test]
fn c13_cross_process_dedup_clears_the_floor() {
    let out = ckpt_bench::c13_dedup();
    let ratio: f64 = out
        .lines()
        .find(|l| l.starts_with("cross-process dedup ratio at n=8:"))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.trim_end_matches('x').parse().ok())
        .expect("summary ratio line present");
    assert!(
        ratio > 2.0,
        "co-scheduled identical guests must dedup beyond 2x, got {ratio}"
    );
}

#[test]
fn c13_replicated_commit_bytes_shrink_vs_raw() {
    // Acceptance: replicated commit traffic on the incremental workloads
    // is reduced vs the raw image path, and keeps shrinking relatively as
    // identical guests are added.
    let out = ckpt_bench::c13_dedup();
    let reduction: f64 = out
        .lines()
        .find(|l| l.starts_with("replication commit reduction at n=8:"))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.trim_end_matches('x').parse().ok())
        .expect("summary reduction line present");
    assert!(
        reduction > 2.0,
        "dedup must cut replicated commit bytes by >2x at n=8, got {reduction}"
    );
}
