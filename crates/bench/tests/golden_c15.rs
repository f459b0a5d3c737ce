//! Golden regression pin for `report c15`, the live-migration report.
//!
//! Every number in the report comes off the deterministic simulator:
//! guests are seeded, wire/memcpy costs are the fixed circa-2005 model,
//! pre-copy rounds and the auto-converge throttle ladder are pure
//! functions of the dirty sets, and post-copy demand faults are served
//! in ascending page order — so the full output is pinned, line by line,
//! at any pool width. A moved line means round accounting, the
//! cutover policy, the throttle ladder, or the demand/prefetch split
//! changed observable behavior and must be reviewed, not waved through.
//!
//! If an *intentional* change lands, repin in the same commit:
//! `./target/release/report c15 > crates/bench/goldens/report_c15.txt`.

#[path = "../../../tests/common/mod.rs"]
mod common;

use std::process::Command;

const GOLDEN: &str = include_str!("../goldens/report_c15.txt");

/// Worst tolerated post-copy downtime across the zoo: the minimal-image
/// window must stay an order of magnitude under the ~423 us freeze-copy
/// baseline (it measures 27.9 us today).
const POSTCOPY_DOWNTIME_CEILING_US: f64 = 100.0;

#[test]
fn report_c15_output_matches_pinned_baseline() {
    // Exactly what the report binary prints: c15_livemig() + "\n".
    let out = format!("{}\n", ckpt_bench::c15_livemig());
    common::assert_pinned("report_c15", GOLDEN, &out);
}

#[test]
fn report_c15_is_pool_width_invariant() {
    // The determinism discipline's observable contract: the report's
    // bytes cannot depend on how many workers the pool runs. Each width
    // runs in its own process because the global pool latches its size
    // once.
    let mut outputs = Vec::new();
    for width in ["1", "4", "8"] {
        let out = Command::new(env!("CARGO_BIN_EXE_report"))
            .env("CKPT_PAR_WORKERS", width)
            .arg("c15")
            .output()
            .expect("run report c15");
        assert!(out.status.success(), "report c15 failed at width {width}");
        outputs.push(out.stdout);
    }
    assert_eq!(outputs[0], outputs[1], "width 1 vs 4 outputs differ");
    assert_eq!(outputs[1], outputs[2], "width 4 vs 8 outputs differ");
    let binary = String::from_utf8(outputs.swap_remove(0)).expect("report c15 prints UTF-8");
    common::assert_pinned("report_c15", GOLDEN, &binary);
}

#[test]
fn c15_gates_hold_and_downtime_stays_under_ceiling() {
    // Acceptance: both live strategies beat freeze-copy on every guest at
    // every dirty rate, pre-copy's round count adapts to the dirty rate,
    // and the slowest guest's post-copy downtime stays under the ceiling.
    let out = ckpt_bench::c15_livemig();
    for gate in [
        "gate: pre-copy beats freeze-copy downtime on every guest at every dirty rate: true",
        "gate: post-copy beats freeze-copy downtime on every guest at every dirty rate: true",
        "gate: pre-copy rounds adapt to the dirty rate (monotone, growing): true",
    ] {
        assert!(out.contains(gate), "missing or failed gate: {gate}\n{out}");
    }
    let worst_us: f64 = out
        .lines()
        .find(|l| l.starts_with("worst-case post-copy downtime:"))
        .and_then(|l| l.strip_prefix("worst-case post-copy downtime:"))
        .map(|v| v.trim().trim_end_matches(" us"))
        .and_then(|v| v.parse().ok())
        .expect("post-copy downtime summary line present in us");
    assert!(
        worst_us < POSTCOPY_DOWNTIME_CEILING_US,
        "slowest-guest post-copy downtime {worst_us} us exceeds {POSTCOPY_DOWNTIME_CEILING_US} us"
    );
}
