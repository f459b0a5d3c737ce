//! What the crash matrix costs the host, column by column: every column of
//! `crashpoint::all_configs()` swept once through `run_config`, exactly as
//! `tests/crash_matrix.rs` and ckptbench's `crash_cells` drive it.
//!
//! ```text
//! cargo run --release --example matrix_profile
//! ```
//!
//! Host time only: it prints and gates nothing. The cell counts are
//! deterministic; the milliseconds are this host's. It uses only API that
//! has not changed since the matrix got its driver, so the same file copied
//! into a scratch clone of an older commit prints the before rows.

use ckpt_restart::ckpt::crashpoint::{all_configs, run_config};
use std::time::Instant;

fn main() {
    println!("crash matrix profile, one sweep per column (host time)");
    println!(
        "{:<40} {:>6} {:>10} {:>9}",
        "column", "cells", "wall ms", "ms/cell"
    );
    let row = |label: &str, cells: usize, ms: f64| {
        println!(
            "{label:<40} {cells:>6} {ms:>10.1} {:>9.3}",
            ms / cells.max(1) as f64
        );
    };
    let (mut total_cells, mut total_ms) = (0, 0.0);
    for cfg in all_configs() {
        let t0 = Instant::now();
        let cells = run_config(cfg).len();
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        row(&format!("{}/{}", cfg.mechanism, cfg.backend), cells, ms);
        total_cells += cells;
        total_ms += ms;
    }
    row("total", total_cells, total_ms);
}
