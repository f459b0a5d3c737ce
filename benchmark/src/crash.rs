//! `crash_cells`: eight fixed columns of the crash matrix, driven through
//! `ckpt_core::crashpoint::run_config` exactly as tier-1 drives all of
//! them. Each cell rebuilds a world, injects one fault at one site, and
//! restarts; bulk data paths do almost nothing. Seedless: the matrix is
//! exhaustive and deterministic, `--seed` changes nothing.
//!
//! A cycle is one pass over the columns, so a run measures at least one
//! whole pass whatever `--seconds` says. Every pass must produce the pinned
//! number of cells and not one violation.

use crate::measure::{dump_spans, run_cycles, summarize, timed_setup, Cycle, Opts};
use crate::metrics::Report;
use crate::span::Recorder;
use crate::stats::median;
use ckpt_core::crashpoint::{run_config, CellOutcome, MatrixCell, MatrixConfig};
use std::collections::BTreeSet;
use std::time::Instant;

/// One column per mechanism family and per storage tier.
const COLUMNS: [(&str, &str); 8] = [
    ("kernel-thread", "remote"),
    ("user-level", "nvram"),
    ("fork-concurrent", "local-disk"),
    ("hibernate", "swap"),
    ("syscall", "replicated(5,3)"),
    ("syscall", "dedup(replicated(3,2))"),
    ("syscall", "striped(2x3,2)"),
    ("syscall", "rs(8,3)"),
];

/// Cells the eight columns hold at this commit; a pass that yields another
/// number is a failed pass.
const CELLS: usize = 903;

/// The smoke run and the warm-up: the cheapest column alone.
const SMOKE_COLUMNS: [(&str, &str); 1] = [("hibernate", "swap")];
const SMOKE_CELLS: usize = 24;

fn run_column(mechanism: &'static str, backend: &'static str) -> Vec<MatrixCell> {
    run_config(MatrixConfig { mechanism, backend })
}

pub fn run(opts: &Opts) -> Report {
    let mut report = Report::new("crash_cells", opts.seed, opts.trace, opts.workers);
    let (columns, want_cells): (&[(&str, &str)], usize) = if opts.smoke {
        (&SMOKE_COLUMNS, SMOKE_CELLS)
    } else {
        (&COLUMNS, CELLS)
    };
    // There is no world to build; set-up is the warm-up column.
    timed_setup(&mut report, || {
        let (m, b) = SMOKE_COLUMNS[0];
        run_column(m, b).len()
    });
    let rec = opts.trace.then(Recorder::new);
    let mut sites = BTreeSet::new();
    let cycles = run_cycles(opts, |pass| {
        let mut c = Cycle::default();
        let mut cells = 0;
        for &(m, b) in columns {
            let t = Instant::now();
            let column = match &rec {
                Some(rec) => rec.time("core.crash_column", || run_column(m, b)),
                None => run_column(m, b),
            };
            let s = t.elapsed().as_secs_f64();
            c.timed_s += s;
            // One latency sample per cell: its column's mean cell time
            // (a column is the finest grain the public driver exposes).
            let per_cell = s * 1e3 / column.len().max(1) as f64;
            c.op_ms.extend(std::iter::repeat_n(per_cell, column.len()));
            cells += column.len();
            report.attempted += column.len() as u64;
            for cell in &column {
                if let CellOutcome::Violation { what } = &cell.outcome {
                    report.fail(format!("{cell}: {what}"));
                }
                sites.insert((m, b, cell.site.clone()));
            }
        }
        if cells != want_cells {
            report.attempted += 1;
            report.fail(format!("pass {pass}: {cells} cells, expected {want_cells}"));
        }
        c.work = cells as f64;
        c
    });

    // Seedless by construction: the repeat check expects this to stay put
    // under any seed.
    report.set("count.state_digest32", sites.len() as f64);
    if !opts.trace {
        summarize(&mut report, &cycles);
        return report;
    }
    report.cycles = cycles.len() as u64;
    let per_cell: Vec<f64> = cycles.iter().flat_map(|c| c.op_ms.clone()).collect();
    report.set("core.crash_cell_ms_p50", median(&per_cell));
    report.set("core.crash_sites_recorded", sites.len() as f64);
    report.set("core.crash_cells", want_cells as f64);
    if let Some(rec) = &rec {
        dump_spans(&mut report, rec, opts);
    }
    report
}
