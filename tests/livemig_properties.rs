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
//!
//! And one pin: every strategy's outcome over the app zoo — report
//! fields, both nodes' clocks, the landed guest's memory and files — and
//! one fork-concurrent checkpoint's stored object, as literal rows
//! (`OUTCOME_TABLE`).

use ckpt_cluster::livemig::{migrate_postcopy, migrate_precopy, LiveMigConfig};
use ckpt_cluster::{migrate, Cluster, FailureConfig, MigrationMode, NodeId};
use ckpt_core::mechanism::family;
use ckpt_core::pod::Pod;
use ckpt_core::shared_storage;
use ckpt_core::tracker::TrackerKind;
use ckpt_storage::{digest64, ImageKey, LocalDisk};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use simos::apps::{self, AppParams, GuestMemIo, NativeKind, VecMem, HEADER_BASE};
use simos::cost::{CostModel, PAGE_SIZE};
use simos::fs::OpenFlags;
use simos::syscall::Syscall;
use simos::types::{Fd, Pid, SimError};
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

/// Every strategy on every app-zoo guest, one row each, with a file the
/// guest has open and has written: the report's public fields, both
/// nodes' clocks, a digest of the landed guest's memory span and the
/// target's view of the guest's files (fd, path, offset, length, digest).
/// Then one fork-concurrent checkpoint per guest: the stored object's
/// digest and length, and the outcome's `total_ns`.
#[test]
fn every_migration_and_fork_concurrent_outcome_is_pinned() {
    let mut got = Vec::new();
    for kind in NativeKind::ALL {
        let params = AppParams::small();
        for strategy in ["freeze-fresh", "freeze-podded", "pre-copy", "post-copy"] {
            let (mut c, pid) = setup(kind, params.clone());
            let k = c.node(FROM).kernel().unwrap();
            let open = Syscall::Open {
                path: "/tmp/pin.log".into(),
                flags: OpenFlags::RDWR_CREATE,
            };
            let fd = Fd(k.do_syscall(pid, open).unwrap() as u32);
            let buf = apps::ARRAY_BASE;
            k.do_syscall(pid, Syscall::Write { fd, buf, len: 24 })
                .unwrap();
            c.advance(1_000_000);
            let mut pod = Pod::new("pin");
            let cfg = LiveMigConfig::default();
            let (new_pid, fields) = match strategy {
                "freeze-fresh" | "freeze-podded" => {
                    let (mode, pod) = match strategy {
                        "freeze-fresh" => (MigrationMode::FreshPid, None),
                        _ => (MigrationMode::Podded, Some(&mut pod)),
                    };
                    let r = migrate(&mut c, FROM, pid, TO, mode, pod).unwrap();
                    (r.new_pid, format!("moved={}", r.bytes_moved))
                }
                "pre-copy" => {
                    let r = migrate_precopy(&mut c, FROM, pid, TO, &cfg).unwrap();
                    let f = format!(
                        "rounds={} pre={} cut={} total={} down={} duty={}",
                        r.rounds,
                        r.bytes_precopy,
                        r.bytes_cutover,
                        r.bytes_total(),
                        r.downtime_ns,
                        r.final_duty_pct
                    );
                    (r.new_pid, f)
                }
                _ => {
                    let r = migrate_postcopy(&mut c, FROM, pid, TO, &cfg).unwrap();
                    let f = format!(
                        "down={} residual={} demand={} prefetch={} moved={} minimal={}",
                        r.downtime_ns,
                        r.residual_pages,
                        r.demand_pages,
                        r.prefetch_pages,
                        r.residual_moved(),
                        r.bytes_minimal
                    );
                    (r.new_pid, f)
                }
            };
            let clocks = (c.node(FROM).now(), c.node(TO).now());
            let k = c.node(TO).kernel().unwrap();
            let memory = digest64(&guest_bytes(k, new_pid, &params));
            let files: Vec<String> = k
                .process(new_pid)
                .unwrap()
                .fds
                .iter()
                .map(|(fd, e)| {
                    let ofd = k.ofd(e.ofd).unwrap();
                    let data = k.fs.read_file(&ofd.path).unwrap();
                    let (path, at, len) = (&ofd.path, ofd.offset, data.len());
                    format!("{}:{path}@{at}/{len}:{:016x}", fd.0, digest64(data))
                })
                .collect();
            got.push(format!(
                "{kind:?} {strategy}: pid={} {fields} clocks={}/{} mem={memory:016x} files=[{}]",
                new_pid.0,
                clocks.0,
                clocks.1,
                files.join(" ")
            ));
        }
        let mut k = Kernel::new(CostModel::circa_2005());
        let mut p = params.clone();
        p.total_steps = u64::MAX;
        let pid = k.spawn_native(kind, p).unwrap();
        k.run_for(5_000_000).unwrap();
        let store = shared_storage(LocalDisk::new(1 << 30));
        let row = family("fork-concurrent");
        let mut mech = row.build("pin", store.clone(), TrackerKind::FullOnly);
        mech.prepare(&mut k, pid).unwrap();
        let o = mech.checkpoint(&mut k, pid).unwrap();
        let key = ImageKey::new("pin", pid.0, o.seq).to_string();
        let (object, _) = store.lock().load(&key, &k.cost).unwrap();
        got.push(format!(
            "{kind:?} fork-concurrent: object={:016x}/{} total={}",
            digest64(&object),
            object.len(),
            o.total_ns
        ));
    }
    let want: Vec<&str> = OUTCOME_TABLE.lines().filter(|l| !l.is_empty()).collect();
    if got.len() != want.len() {
        panic!("{} rows, expected {}:\n{}", got.len(), want.len(), got.join("\n"));
    }
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(g, w, "outcome row diverges; the whole table:\n{}", got.join("\n"));
    }
}

/// One row per (guest, strategy), guest-major; see
/// [`every_migration_and_fork_concurrent_outcome_is_pinned`].
const OUTCOME_TABLE: &str = "
DenseSweep freeze-fresh: pid=1 moved=66398 clocks=6362388/6091140 mem=d94cb62ad7d334fd files=[0:/tmp/pin.log@24/24:272db24f5be08196]
DenseSweep freeze-podded: pid=1 moved=66398 clocks=6362388/6091140 mem=d94cb62ad7d334fd files=[0:/pods/pin/tmp/pin.log@24/24:272db24f5be08196]
DenseSweep pre-copy: pid=1 rounds=29 pre=1924312 cut=505 total=1924817 down=69011 duty=0 clocks=16848012/14324239 mem=b71192ba2058711f files=[0:/tmp/pin.log@24/24:272db24f5be08196]
DenseSweep post-copy: pid=1 down=28267 residual=16 demand=16 prefetch=0 moved=16 minimal=595 clocks=6099176/7741568 mem=b2612dd1bc43ad15 files=[0:/tmp/pin.log@24/24:272db24f5be08196]
DenseSweep fork-concurrent: object=f86e6c87357c294a/66316 total=14400955
SparseRandom freeze-fresh: pid=1 moved=66410 clocks=6333266/6091148 mem=7d2f315406a86505 files=[0:/tmp/pin.log@24/24:de664fee2c9d7f24]
SparseRandom freeze-podded: pid=1 moved=66410 clocks=6333266/6091148 mem=7d2f315406a86505 files=[0:/pods/pin/tmp/pin.log@24/24:de664fee2c9d7f24]
SparseRandom pre-copy: pid=1 rounds=19 pre=1248661 cut=54075 total=1302736 down=357603 duty=6 clocks=12557422/11457527 mem=2feee98e207cbe27 files=[0:/tmp/pin.log@24/24:de664fee2c9d7f24]
SparseRandom post-copy: pid=1 down=28323 residual=16 demand=16 prefetch=0 moved=16 minimal=607 clocks=6070054/6341960 mem=e2db2b001282245e files=[0:/tmp/pin.log@24/24:de664fee2c9d7f24]
SparseRandom fork-concurrent: object=94f2fd51056a3651/66330 total=14379379
Stencil2D freeze-fresh: pid=1 moved=66398 clocks=6610300/6091140 mem=d3ef47669a4817da files=[0:/tmp/pin.log@24/24:126fe85f9bb61697]
Stencil2D freeze-podded: pid=1 moved=66398 clocks=6610300/6091140 mem=d3ef47669a4817da files=[0:/pods/pin/tmp/pin.log@24/24:126fe85f9bb61697]
Stencil2D pre-copy: pid=1 rounds=29 pre=1924312 cut=505 total=1924817 down=69011 duty=0 clocks=20925812/14324239 mem=316529157041bd7e files=[0:/tmp/pin.log@24/24:126fe85f9bb61697]
Stencil2D post-copy: pid=1 down=28267 residual=16 demand=16 prefetch=0 moved=16 minimal=595 clocks=6347088/12978528 mem=316529157041bd7e files=[0:/tmp/pin.log@24/24:126fe85f9bb61697]
Stencil2D fork-concurrent: object=be3a283d286ed26a/66318 total=14339009
AppendLog freeze-fresh: pid=1 moved=66400 clocks=6333137/6091141 mem=e26c2ade3db9194a files=[0:/tmp/pin.log@24/24:e69a57aebdd0dabe]
AppendLog freeze-podded: pid=1 moved=66400 clocks=6333137/6091141 mem=e26c2ade3db9194a files=[0:/pods/pin/tmp/pin.log@24/24:e69a57aebdd0dabe]
AppendLog pre-copy: pid=1 rounds=9 pre=597260 cut=41728 total=638988 down=291711 duty=25 clocks=9216843/8643651 mem=c52e15b93a3d4a09 files=[0:/tmp/pin.log@24/24:e69a57aebdd0dabe]
AppendLog post-copy: pid=1 down=28276 residual=16 demand=2 prefetch=14 moved=16 minimal=597 clocks=6319301/6070029 mem=e5ed45c3607ac211 files=[0:/tmp/pin.log@24/24:e69a57aebdd0dabe]
AppendLog fork-concurrent: object=c5edc4f79200dea6/66320 total=14379323
ReadMostly freeze-fresh: pid=1 moved=66398 clocks=6409859/6091140 mem=defb80eb414b18f2 files=[0:/tmp/pin.log@24/24:7abdfdb0dc40e9c2]
ReadMostly freeze-podded: pid=1 moved=66398 clocks=6409859/6091140 mem=defb80eb414b18f2 files=[0:/pods/pin/tmp/pin.log@24/24:7abdfdb0dc40e9c2]
ReadMostly pre-copy: pid=1 rounds=1 pre=66402 cut=17046 total=83448 down=159980 duty=100 clocks=6541172/6343682 mem=95c5306bf3515ff7 files=[0:/tmp/pin.log@24/24:7abdfdb0dc40e9c2]
ReadMostly post-copy: pid=1 down=28267 residual=16 demand=16 prefetch=0 moved=16 minimal=595 clocks=6146647/7742400 mem=099295d6330f724a files=[0:/tmp/pin.log@24/24:7abdfdb0dc40e9c2]
ReadMostly fork-concurrent: object=9a8e98446e45c906/66318 total=14343859
";
