//! Property tests for live migration (`ckpt-cluster::livemig`).
//!
//! Four properties, each over randomized or exhaustive inputs:
//!
//! 1. **Converge-or-diverge** — across randomized dirty-rate schedules
//!    (guest geometry, write intensity, downtime budget), pre-copy either
//!    converges within the round cap or reports a typed
//!    [`SimError::CutoverDiverged`] leaving the source guest intact and
//!    runnable. It never panics and never produces a wrong target.
//! 2. **Bit-identical state** — for every app-zoo guest and both live
//!    strategies, the migrated guest's full memory span equals a
//!    deterministic standalone replay of the unmigrated application to
//!    the same step, word for word.
//! 3. **Pool-width invariance** — the whole migration (bytes on the wire,
//!    round structure, final guest bytes) is byte-identical whether pages
//!    are encoded by a 1-, 4-, or 8-worker `ckpt-par` pool.
//! 4. **A failed migration leaves its source running** — with the target
//!    down, or refusing the restore, freeze-copy, pre-copy and post-copy
//!    all return the typed error with the source guest thawed, bit-identical
//!    to its replay and making progress.

use ckpt_cluster::livemig::{migrate_postcopy, migrate_precopy, LiveMigConfig};
use ckpt_cluster::{migrate, Cluster, FailureConfig, MigrationMode, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use simos::apps::{self, AppParams, GuestMemIo, NativeKind, VecMem, HEADER_BASE};
use simos::cost::{CostModel, PAGE_SIZE};
use simos::types::{Pid, SimError};
use simos::Kernel;
use std::sync::Arc;

const FROM: NodeId = NodeId(0);
const TO: NodeId = NodeId(1);

fn setup(kind: NativeKind, params: AppParams) -> (Cluster, Pid) {
    setup_with(kind, params, FailureConfig::none())
}

fn setup_with(kind: NativeKind, mut params: AppParams, failures: FailureConfig) -> (Cluster, Pid) {
    let mut c = Cluster::new(2, CostModel::circa_2005(), failures);
    params.total_steps = u64::MAX;
    let pid = c
        .node(FROM)
        .kernel()
        .unwrap()
        .spawn_native(kind, params)
        .unwrap();
    c.advance(5_000_000);
    (c, pid)
}

/// The guest's full data span (header page + working array), absent pages
/// read as zero.
fn guest_bytes(k: &Kernel, pid: Pid, params: &AppParams) -> Vec<u8> {
    let span = (apps::ARRAY_BASE - HEADER_BASE) + params.mem_bytes + PAGE_SIZE;
    let mut buf = vec![0u8; span as usize];
    k.process(pid).unwrap().mem.peek(HEADER_BASE, &mut buf);
    buf
}

/// Replay the app standalone to the same step the guest reached and
/// demand bit-for-bit equality over the whole span.
fn assert_bit_identical(k: &Kernel, pid: Pid, kind: NativeKind, params: &AppParams, label: &str) {
    let got = guest_bytes(k, pid, params);
    let steps = {
        let mut snap = VecMem::new(params);
        snap.bytes.copy_from_slice(&got);
        snap.r64(apps::H_STEP)
    };
    let mut reference = VecMem::new(params);
    apps::init(kind, params, &mut reference);
    for _ in 0..steps {
        apps::step(kind, params, &mut reference);
    }
    assert_eq!(
        got, reference.bytes,
        "{label}: migrated guest state diverged from the unmigrated replay at step {steps}"
    );
}

#[test]
fn precopy_converges_or_diverges_typed_over_random_dirty_schedules() {
    let mut rng = StdRng::seed_from_u64(0x11ea_51fe);
    for case in 0..24u64 {
        // A random dirty-rate schedule: geometry controls how fast the
        // guest re-dirties pages relative to the link draining them.
        let params = AppParams {
            mem_bytes: (rng.gen_range(16u64..96) * 4096).max(16 * 4096),
            total_steps: u64::MAX,
            writes_per_step: rng.gen_range(1u64..32),
            write_stride_pages: rng.gen_range(1u64..8),
            seed: rng.next_u64(),
        };
        let kind = NativeKind::ALL[rng.gen_range(0usize..NativeKind::ALL.len())];
        let autoconverge: bool = rng.gen();
        let cfg = LiveMigConfig {
            downtime_budget_ns: rng.gen_range(30_000u64..500_000),
            max_rounds: rng.gen_range(6u32..30),
            autoconverge,
            ..LiveMigConfig::default()
        };
        let (mut c, pid) = setup(kind, params.clone());
        match migrate_precopy(&mut c, FROM, pid, TO, &cfg) {
            Ok(r) => {
                assert!(
                    r.rounds <= cfg.max_rounds,
                    "case {case}: converged past the round cap"
                );
                let k = c.node(TO).kernel().unwrap();
                assert_bit_identical(k, r.new_pid, kind, &params, &format!("case {case}"));
            }
            Err(SimError::CutoverDiverged {
                rounds,
                residual_pages,
            }) => {
                assert!(rounds <= cfg.max_rounds, "case {case}: diverged past the cap");
                assert!(residual_pages > 0, "case {case}: diverged with nothing dirty");
                // The abandoned migration must leave the source intact
                // and runnable.
                let k = c.node(FROM).kernel().unwrap();
                assert_bit_identical(k, pid, kind, &params, &format!("case {case} source"));
                let w0 = k.process(pid).unwrap().work_done;
                c.advance(2_000_000);
                assert!(
                    c.node(FROM).kernel().unwrap().process(pid).unwrap().work_done > w0,
                    "case {case}: source guest stuck after a diverged migration"
                );
            }
            Err(other) => panic!("case {case}: unexpected error {other}"),
        }
    }
}

#[test]
fn migrated_guests_are_bit_identical_across_the_zoo() {
    for kind in NativeKind::ALL {
        let params = AppParams::small();
        let (mut c, pid) = setup(kind, params.clone());
        let r = migrate_precopy(&mut c, FROM, pid, TO, &LiveMigConfig::default())
            .unwrap_or_else(|e| panic!("{kind:?} pre-copy: {e}"));
        let k = c.node(TO).kernel().unwrap();
        assert_bit_identical(k, r.new_pid, kind, &params, &format!("{kind:?} pre-copy"));

        let (mut c, pid) = setup(kind, params.clone());
        let r = migrate_postcopy(&mut c, FROM, pid, TO, &LiveMigConfig::default())
            .unwrap_or_else(|e| panic!("{kind:?} post-copy: {e}"));
        assert_eq!(
            r.demand_pages + r.prefetch_pages,
            r.residual_pages,
            "{kind:?}: residual ledger must drain exactly once"
        );
        let k = c.node(TO).kernel().unwrap();
        assert_bit_identical(k, r.new_pid, kind, &params, &format!("{kind:?} post-copy"));
    }
}

#[test]
fn migration_is_byte_identical_at_pool_widths_1_4_8() {
    let params = AppParams::medium();
    let mut baseline: Option<(u64, u64, u32, Vec<u8>)> = None;
    for width in [1usize, 4, 8] {
        let cfg = LiveMigConfig {
            encode_pool: Some(Arc::new(ckpt_par::Pool::new(width))),
            ..LiveMigConfig::default()
        };
        let (mut c, pid) = setup(NativeKind::Stencil2D, params.clone());
        let r = migrate_precopy(&mut c, FROM, pid, TO, &cfg).unwrap();
        let k = c.node(TO).kernel().unwrap();
        let bytes = guest_bytes(k, r.new_pid, &params);
        let sig = (r.bytes_precopy, r.bytes_cutover, r.rounds, bytes);
        match &baseline {
            None => baseline = Some(sig),
            Some(b) => assert_eq!(
                *b, sig,
                "pool width {width} changed the migration (bytes, rounds, or guest state)"
            ),
        }
    }
}

#[test]
fn a_failed_migration_leaves_its_source_running() {
    let kind = NativeKind::SparseRandom;
    let params = AppParams::small();
    let source_runs_on = |c: &mut Cluster, pid: Pid, label: &str| {
        let k = c.node(FROM).kernel().unwrap();
        assert_bit_identical(k, pid, kind, &params, label);
        let w0 = k.process(pid).unwrap().work_done;
        c.advance(30_000_000);
        assert!(
            c.node(FROM).kernel().unwrap().process(pid).unwrap().work_done > w0,
            "{label}: source left frozen by the failed migration"
        );
    };

    // The target is down and stays down (a repair far beyond the test).
    type Attempt = fn(&mut Cluster, Pid) -> SimError;
    let strategies: [(&str, Attempt); 3] = [
        ("freeze-copy", |c, pid| {
            migrate(c, FROM, pid, TO, MigrationMode::FreshPid, None).unwrap_err()
        }),
        ("pre-copy", |c, pid| {
            migrate_precopy(c, FROM, pid, TO, &LiveMigConfig::default()).unwrap_err()
        }),
        ("post-copy", |c, pid| {
            migrate_postcopy(c, FROM, pid, TO, &LiveMigConfig::default()).unwrap_err()
        }),
    ];
    for (label, attempt) in strategies {
        let failures = FailureConfig {
            repair_ns: 60_000_000_000,
            ..FailureConfig::none()
        };
        let (mut c, pid) = setup_with(kind, params.clone(), failures);
        c.inject_failure(TO);
        assert_eq!(attempt(&mut c, pid), SimError::NodeDown(TO.0), "{label}");
        source_runs_on(&mut c, pid, label);
    }

    // The target is up but refuses the restore: the pid is taken.
    let (mut c, pid) = setup(kind, params.clone());
    let squatter = c
        .node(TO)
        .kernel()
        .unwrap()
        .spawn_native(kind, params.clone())
        .unwrap();
    assert_eq!(squatter, pid, "test setup: pids must collide");
    migrate(&mut c, FROM, pid, TO, MigrationMode::KeepIdentity, None)
        .expect_err("identity migration must hit the conflict");
    source_runs_on(&mut c, pid, "keep-identity");
}
