//! A crash-matrix slice with the parallel encode pool forced wide: the
//! fault sites enumerated by the recording pass must fire at exactly the
//! same points under a multi-worker pool, every cell must classify the
//! same way across repeated runs, and a crash landing mid-parallel-encode
//! (the capture/compress/store faultpoints) must never leave a partially
//! committed image behind — which would surface as a `Violation` via the
//! matrix's intact-chain cross-check.
//!
//! This lives in its own test binary so it can pin the process-wide pool
//! width before anything initializes it: the engines inside the matrix
//! mechanisms default to [`ckpt_par::global`].
//!
//! A pool call under [`ckpt_par::PAR_MIN_BYTES`] (64 KiB) runs on the
//! caller at any width, and capture encodes pages in runs of that many
//! bytes. The matrix guest is 96 KiB, so its full images (24 array pages
//! and a header page once the sparse writer has touched them, 100 KiB) are
//! past the gate in two runs, which the wide pool encodes on two threads;
//! its incremental images stay on the caller.

use ckpt_restart::ckpt::crashpoint::{run_config, CellOutcome, MatrixConfig};

#[test]
fn pooled_matrix_slice_is_deterministic_with_no_partial_commits() {
    // Own process, first touch of the pool: the width sticks.
    std::env::set_var("CKPT_PAR_WORKERS", "4");
    assert_eq!(
        ckpt_restart::par::global().workers(),
        4,
        "pool was initialized before the test could pin its width"
    );

    // One engine-driven mechanism per storage backend keeps the slice
    // under a few seconds while still crossing every fault kind.
    let slice = [
        MatrixConfig {
            mechanism: "syscall",
            backend: "local-disk",
        },
        MatrixConfig {
            mechanism: "kernel-thread",
            backend: "remote",
        },
        MatrixConfig {
            mechanism: "fork-concurrent",
            backend: "nvram",
        },
    ];

    let mut all = Vec::new();
    for cfg in slice {
        let first = run_config(cfg);
        assert!(
            !first.is_empty(),
            "{}/{}: recording pass enumerated no fault sites",
            cfg.mechanism,
            cfg.backend
        );
        // Count-based fault triggers + a work-stealing pool: the arming
        // must still be deterministic, so a second sweep classifies every
        // cell identically.
        let second = run_config(cfg);
        assert_eq!(
            first, second,
            "{}/{}: cell outcomes changed between runs under the pool",
            cfg.mechanism, cfg.backend
        );
        for cell in &first {
            assert!(
                !matches!(cell.outcome, CellOutcome::Violation { .. }),
                "pooled violation: {cell}"
            );
        }
        all.extend(first);
    }

    // The parallel-encode window is actually swept: faults landed on the
    // capture, compress, and store points, and both terminal
    // classifications occurred.
    for phase in ["capture", "compress", "store"] {
        assert!(
            all.iter().any(|c| c.site.contains(&format!("/{phase}@"))),
            "phase {phase} never appeared as an armed site in the slice"
        );
    }
    assert!(all.iter().any(|c| matches!(c.outcome, CellOutcome::Restarted { .. })));
    assert!(all.iter().any(|c| matches!(c.outcome, CellOutcome::Detected { .. })));
}
