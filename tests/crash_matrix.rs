//! The exhaustive crash matrix: every mechanism family × every trace-phase
//! fault site × every storage backend × every fault kind, each cell ending
//! in exactly one of {bit-exact restart, typed detection} — never a silent
//! wrong restart, never a panic.
//!
//! The matrix is deterministic (no sampling): the site list comes from a
//! fault-free recording pass per column, so every instrumented site is
//! swept, and every cell — mechanism, backend, site with its `@n`, fault
//! kind, outcome — is pinned in `tests/goldens/crash_matrix.txt`. Skipped
//! cells (inapplicable fault kinds) are listed there with their reason,
//! not hidden. A change that claims "cell-for-cell identical" shows this
//! test green; one that moves cells repins the file from the rendering the
//! failure leaves in the target tmpdir, and the diff names the cells.
//!
//! This is the one test with a wall-clock budget: `ci.sh` runs it under
//! `timeout 30`, so the matrix stays cheap enough to never be sampled or
//! skipped in CI. On the 2-core host: 5.0-5.1 s since a cell starts from
//! the world at the last request boundary before its fault site (10.4-
//! 10.7 s when every cell started from the booted world; three alternating
//! pairs of runs of this binary). The ceiling stays at 30 s: the headroom
//! is what a wider matrix spends.

mod common;

use ckpt_cluster::migmatrix::{full_matrix, MIGRATION_TIER};
use ckpt_core::crashpoint::{CellOutcome, MatrixCell, Tier, MATRIX_CELLS, TIERS};

const FAULT_KINDS: [&str; 3] = ["fail-stop", "transient", "torn-write"];

/// What every column of a tier must show, beyond having run with zero
/// violations (asserted globally: no fault ever ended in a silently wrong
/// restart, whatever the tier).
struct Expect {
    tier: &'static str,
    /// `(prefix, infix)` of sites armed concretely — at least one cell
    /// that is not `Skipped`.
    armed: &'static [(&'static str, &'static str)],
    /// Site prefixes swept; `<label>` stands for the column's backend.
    swept: &'static [&'static str],
    /// Every fault kind appears.
    every_fault_kind: bool,
    /// A `Restarted` cell at a site with this prefix.
    restarted_at: Option<&'static str>,
}

const EXPECT: [Expect; 7] = [
    // Every mechanism family with every one of its backends.
    Expect {
        tier: "process",
        armed: &[],
        swept: &["storage/<label>"],
        every_fault_kind: false,
        restarted_at: None,
    },
    Expect {
        tier: "hibernate",
        armed: &[],
        swept: &["storage/<label>"],
        every_fault_kind: false,
        restarted_at: None,
    },
    // Both quorum geometries ran against every fault kind, and the
    // per-replica fault sites were swept — not just the client-side
    // storage decorator's.
    Expect {
        tier: "replicated",
        armed: &[],
        swept: &["replica/r", "storage/<label>"],
        every_fault_kind: true,
        restarted_at: None,
    },
    // The content-addressed store ran over both backings, the
    // manifest-commit site (the one new crash window dedup introduces) was
    // armed, and the inner backend's sites still show through the
    // decorator.
    Expect {
        tier: "dedup",
        armed: &[("", "cas/commit")],
        swept: &["storage/"],
        every_fault_kind: false,
        restarted_at: None,
    },
    // Single-object stores on the striped pool travel the framed
    // batch-commit path, so the per-stripe `stripe<j>/r<i>/batch`
    // admissions were recorded and armed. The scenario checkpoints one
    // lineage, which routes to exactly one stripe by design (whole chains
    // live together); cross-stripe isolation under damage is exercised by
    // the stripe property tests, which spread many lineages.
    Expect {
        tier: "striped",
        armed: &[("stripe", "/batch")],
        swept: &["storage/<label>"],
        every_fault_kind: false,
        restarted_at: None,
    },
    // Both RS geometries ran and every per-shard batch-commit admission
    // was armed. A single lost shard is inside every geometry's m-loss
    // budget, so the tier must contain reconstructing restarts, not only
    // typed detections.
    Expect {
        tier: "erasure",
        armed: &[("ec/s", "/batch")],
        swept: &["storage/<label>"],
        every_fault_kind: false,
        restarted_at: Some("ec/s"),
    },
    // Both live strategies swept their cutover with every fault kind; the
    // strategy-specific sites and terminal classes are checked below.
    Expect {
        tier: "migration",
        armed: &[],
        swept: &["livemig/cutover"],
        every_fault_kind: true,
        restarted_at: None,
    },
];

fn concrete(c: &MatrixCell) -> bool {
    !matches!(c.outcome, CellOutcome::Skipped { .. })
}

#[test]
fn full_crash_matrix_has_no_violations_and_no_panics() {
    let report = full_matrix();

    let violations = report.violations();
    assert!(
        violations.is_empty(),
        "matrix violations:\n{}",
        violations
            .iter()
            .map(|c| format!("  {c}"))
            .collect::<Vec<_>>()
            .join("\n")
    );

    // Coverage floor: the cross product actually ran. Every tier has an
    // expectation row, every column of every tier has cells (its recording
    // pass enumerated fault sites), and each column shows what its row
    // requires.
    let tiers: Vec<&Tier> = TIERS.iter().chain([&MIGRATION_TIER]).collect();
    assert_eq!(
        tiers.iter().map(|t| t.name).collect::<Vec<_>>(),
        EXPECT.iter().map(|e| e.tier).collect::<Vec<_>>(),
        "every tier needs its expectation row"
    );
    for (tier, expect) in tiers.iter().zip(&EXPECT) {
        for cfg in tier.configs() {
            let at = format!("{}/{}", cfg.mechanism, cfg.backend);
            let column: Vec<&MatrixCell> = report
                .cells
                .iter()
                .filter(|c| c.mechanism == cfg.mechanism && c.backend == cfg.backend)
                .collect();
            assert!(!column.is_empty(), "no cells for {at}");
            for (prefix, infix) in expect.armed {
                assert!(
                    column.iter().any(|c| c.site.starts_with(prefix)
                        && c.site.contains(infix)
                        && concrete(c)),
                    "{at}: {prefix}…{infix} sites never armed concretely"
                );
            }
            for prefix in expect.swept {
                let prefix = prefix.replace("<label>", cfg.backend);
                assert!(
                    column.iter().any(|c| c.site.starts_with(&prefix)),
                    "{at}: {prefix} sites never armed"
                );
            }
            if expect.every_fault_kind {
                for fault in FAULT_KINDS {
                    assert!(
                        column.iter().any(|c| c.fault == fault),
                        "{at}: fault kind {fault} missing"
                    );
                }
            }
            if let Some(prefix) = expect.restarted_at {
                assert!(
                    column.iter().any(|c| c.site.starts_with(prefix)
                        && matches!(c.outcome, CellOutcome::Restarted { .. })),
                    "{at}: no {prefix} fault ever ended in a reconstructing restart"
                );
            }
        }
    }
    assert!(
        report
            .cells
            .iter()
            .any(|c| c.backend == "dedup(replicated(3,2))" && c.site.starts_with("replica/r")),
        "per-replica sites never armed under the dedup decorator"
    );
    // Migration tier: each strategy swept its strategy-specific sites
    // (pre-copy transfer rounds, post-copy demand faults), and the tier
    // shows both terminal classes — zero-loss survival (clean/transient)
    // and fallback restart from the durable baseline (source lost
    // mid-migration).
    for cfg in MIGRATION_TIER.configs() {
        let mech = cfg.mechanism;
        let tier: Vec<_> = report
            .cells
            .iter()
            .filter(|c| c.mechanism == mech && c.backend == cfg.backend)
            .collect();
        let body_site = if mech == "livemig-precopy" {
            "livemig/round"
        } else {
            "livemig/demand-fault"
        };
        assert!(
            tier.iter().any(|c| c.site.starts_with(body_site)),
            "{mech}: {body_site} sites never armed"
        );
        assert!(
            tier.iter()
                .any(|c| matches!(c.outcome, CellOutcome::Restarted { lost_steps: 0 })),
            "{mech}: no cell ever survived with zero loss"
        );
        assert!(
            tier.iter().any(
                |c| matches!(c.outcome, CellOutcome::Restarted { lost_steps } if lost_steps > 0)
            ),
            "{mech}: no cell ever exercised the baseline fallback"
        );
    }
    for fault in FAULT_KINDS {
        assert!(
            report.cells.iter().any(|c| c.fault == fault && concrete(c)),
            "fault kind {fault} never ran concretely"
        );
    }

    // Both terminal classifications occur: faults after a durable
    // checkpoint roll back bit-exactly; faults before any durable image
    // (or on volatile media) are detected with a typed error.
    assert!(report.restarted() > 0, "no cell ever restarted bit-exactly");
    assert!(report.detected() > 0, "no cell was ever typed-detected");

    // Phase coverage across the matrix: each instrumented phase fired as
    // an armed site in at least one cell.
    for phase in [
        "freeze", "walk", "capture", "compress", "store", "prune", "rearm", "resume",
    ] {
        assert!(
            report
                .cells
                .iter()
                .any(|c| c.site.contains(&format!("/{phase}@"))),
            "phase {phase} never appeared as an armed site"
        );
    }
    // Storage-offset, chain-segment, and restart-side sites all swept too.
    assert!(report
        .cells
        .iter()
        .any(|c| c.site.contains("/store@") && c.site.starts_with("storage/")));
    assert!(report.cells.iter().any(|c| c.site.starts_with("chain/seg")));
    assert!(report
        .cells
        .iter()
        .any(|c| c.site.contains("restart/restore")));

    // The matrix is deterministic, so its size is a fixed artifact of the
    // instrumentation. `MATRIX_CELLS` is the single source of truth the
    // docs cite; a new site, backend, or mechanism must repin it here
    // rather than letting the documented number drift. The per-column
    // counts name the column that moved.
    assert_eq!(
        report.cells.len(),
        MATRIX_CELLS,
        "matrix size changed: repin crashpoint::MATRIX_CELLS and the \
         numbers quoted in EXPERIMENTS.md; cells per column:\n{}",
        report
            .by_config()
            .iter()
            .map(|(cfg, n)| format!(
                "  {}/{}: {}",
                cfg.mechanism,
                cfg.backend,
                n.iter().sum::<usize>()
            ))
            .collect::<Vec<_>>()
            .join("\n")
    );

    // Cell by cell, after the structural asserts so a moved matrix reads as
    // "column X lost its armed site" before "line N differs".
    let rendered: String = report.cells.iter().map(|cell| format!("{cell}\n")).collect();
    common::assert_pinned(
        "crash_matrix",
        include_str!("goldens/crash_matrix.txt"),
        &rendered,
    );

    println!(
        "crash matrix: MATRIX_CELLS = {} — {} restarted, {} detected, {} skipped, {} violations",
        MATRIX_CELLS,
        report.restarted(),
        report.detected(),
        report.skipped(),
        report.violations().len()
    );
}

#[test]
fn survivability_is_a_measured_artifact() {
    // Fail-stop after a completed checkpoint: whether the restart succeeds
    // is decided by the medium's survivability class, and the matrix
    // measures it rather than assuming it.
    use ckpt_core::crashpoint::{run_config, MatrixConfig};

    // `resume@1` fires after checkpoint #1's image is durable on every
    // process-level mechanism's engine path.
    let restartable = |backend: &'static str| -> bool {
        let cells = run_config(MatrixConfig {
            mechanism: "syscall",
            backend,
        });
        cells
            .iter()
            .filter(|c| c.site.contains("/resume@1") && c.fault == "fail-stop")
            .all(|c| matches!(c.outcome, CellOutcome::Restarted { .. }))
    };
    assert!(restartable("local-disk"), "local disk survives node repair");
    assert!(restartable("remote"), "remote storage survives node loss");
    assert!(restartable("nvram"), "NVRAM survives node repair");

    // Hibernation to RAM (standby) must lose the image across power-down:
    // every fault cell on the volatile medium ends in typed detection.
    let ram_cells = run_config(MatrixConfig {
        mechanism: "hibernate",
        backend: "ram",
    });
    assert!(
        ram_cells
            .iter()
            .filter(|c| !matches!(c.outcome, CellOutcome::Skipped { .. }))
            .all(|c| matches!(c.outcome, CellOutcome::Detected { .. })),
        "volatile RAM standby must never restart after power-down"
    );
    // ...while hibernation to swap survives it bit-exactly when the fault
    // hits after the commit point.
    let swap_cells = run_config(MatrixConfig {
        mechanism: "hibernate",
        backend: "swap",
    });
    assert!(
        swap_cells
            .iter()
            .any(|c| matches!(c.outcome, CellOutcome::Restarted { .. })),
        "swap-backed hibernation must survive power-down"
    );
}
