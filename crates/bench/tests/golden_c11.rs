//! Golden regression pin for `report c11`, the crash-matrix experiment.
//!
//! The matrix is fully deterministic — the site list comes from a
//! recording pass, every scenario replays the same virtual schedule, and
//! the report renders in fixed matrix order — so its entire output is
//! pinned line by line. Any change to fault classification, site
//! enumeration, or restart behavior fails naming the first row that moved
//! (`tests/crash_matrix.rs` names the cell).
//!
//! If an *intentional* change lands (a new site, a new mechanism column),
//! repin in the same commit:
//! `./target/release/report c11 > crates/bench/goldens/report_c11.txt`.

#[path = "../../../tests/common/mod.rs"]
mod common;

#[test]
fn report_c11_output_matches_pinned_baseline() {
    // Exactly what the report binary prints: c11_crash_matrix() + "\n".
    let out = format!("{}\n", ckpt_bench::c11_crash_matrix());
    common::assert_pinned("report_c11", include_str!("../goldens/report_c11.txt"), &out);
}
