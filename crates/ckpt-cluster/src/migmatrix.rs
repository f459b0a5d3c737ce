//! # migmatrix — the live-migration tier of the crash matrix, and the
//! full matrix
//!
//! [`ckpt_core::crashpoint`] proves restart correctness for the
//! checkpoint mechanisms; this module extends the same discipline to the
//! migration path itself, which Skjellum et al. argue must be as fault
//! tolerant as the checkpoints it moves. Every `livemig/*` faultpoint the
//! two live strategies visit (`livemig/round@n`, `livemig/cutover@1`,
//! `livemig/demand-fault@n`) is armed with every applicable fault kind,
//! and each cell must end exactly like a crashpoint cell:
//!
//! * **Restarted** — the guest survives on the target, bit-for-bit equal
//!   to the deterministic replay (a transient is absorbed by one
//!   retransmission, `lost_steps == 0`), or the source died mid-migration
//!   and a fallback restore from the last durable baseline checkpoint
//!   recovered bit-exactly with `lost_steps > 0`.
//! * **Detected** — a typed error ([`SimError::CutoverDiverged`]) with
//!   the source guest still intact and runnable.
//! * **Violation** — anything else. Zero of these is the acceptance bar.
//!
//! Cells are verified **twice**: immediately after recovery (pinning the
//! rollback distance) and again after a further run window (catching
//! latent corruption that only surfaces once the guest runs on).
//!
//! This is the lowest crate that sees both halves of the matrix, so
//! [`full_matrix`] — every [`ckpt_core::crashpoint::TIERS`] column, then
//! the [`MIGRATION_TIER`] columns — lives here.

use crate::cluster::{Cluster, FailureConfig};
use crate::livemig::{migrate_postcopy, migrate_precopy, LiveMigConfig};
use crate::node::NodeId;
use ckpt_core::capture::{
    capture_image, restore_image, CaptureOptions, RestoreOptions, RestorePid,
};
use ckpt_core::crashpoint::{
    all_configs, app_params, run_config, sweep, CellOutcome, MatrixCell, MatrixConfig,
    MatrixReport, ReplayOracle, Tier,
};
use ckpt_image::CheckpointImage;
use simos::apps::NativeKind;
use simos::cost::CostModel;
use simos::faultpoint::FaultHandle;
use simos::types::{Pid, SimError};

/// The two live strategies. The tier's "backend" is a label only:
/// migration runs between cluster nodes, not against a storage medium.
pub const MIGRATION_TIER: Tier = Tier {
    name: "migration",
    mechanisms: &["livemig-precopy", "livemig-postcopy"],
    backends: &["cluster(2)"],
};

const FROM: NodeId = NodeId(0);
const TO: NodeId = NodeId(1);

/// Run window before the durable baseline checkpoint.
const RUN1_NS: u64 = 3_000_000;
/// Run window between the baseline and the migration attempt.
const RUN2_NS: u64 = 1_500_000;
/// Run window after recovery, before the second verification.
const RUN3_NS: u64 = 500_000;

/// Spawn the crashpoint app on node 0, run, take the durable baseline the
/// fallback path restores from, run some more, then install `faults` on
/// the source kernel so only the migration itself is under injection.
fn setup(faults: &FaultHandle) -> (Cluster, Pid, CheckpointImage) {
    let mut c = Cluster::new(2, CostModel::circa_2005(), FailureConfig::none());
    let pid = c
        .node(FROM)
        .kernel()
        .expect("fresh node")
        .spawn_native(NativeKind::SparseRandom, app_params())
        .expect("spawn");
    c.advance(RUN1_NS);
    let baseline = {
        let k = c.node(FROM).kernel().expect("source alive");
        k.freeze_process(pid).expect("freeze for baseline");
        let mut opts = CaptureOptions::full("migbase", 1);
        opts.save_file_contents = true;
        let img = capture_image(k, pid, &opts).expect("baseline capture");
        k.thaw_process(pid).expect("thaw after baseline");
        img
    };
    c.advance(RUN2_NS);
    c.node(FROM).kernel().expect("source alive").set_faults(faults.clone());
    (c, pid, baseline)
}

/// Bit-exact verification now, then again after the guest runs on.
fn verify_twice(
    c: &mut Cluster,
    oracle: &mut ReplayOracle,
    node: NodeId,
    pid: Pid,
    floor: u64,
) -> Result<u64, String> {
    let step = {
        let k = c
            .node(node)
            .kernel()
            .ok_or_else(|| format!("{node} down at verification"))?;
        oracle.verify_restored(k, pid)?
    };
    if step < floor {
        return Err(format!(
            "recovered guest is at step {step}, below the floor {floor} it had already reached"
        ));
    }
    c.advance(RUN3_NS);
    let k = c
        .node(node)
        .kernel()
        .ok_or_else(|| format!("{node} down after the post-recovery window"))?;
    let later = oracle.verify_restored(k, pid)?;
    if later <= step {
        return Err(format!(
            "recovered guest made no progress after recovery ({step} -> {later})"
        ));
    }
    Ok(step)
}

fn run_migration(
    mech: &str,
    c: &mut Cluster,
    pid: Pid,
    cfg: &LiveMigConfig,
) -> Result<Pid, SimError> {
    match mech {
        "livemig-precopy" => migrate_precopy(c, FROM, pid, TO, cfg).map(|r| r.new_pid),
        "livemig-postcopy" => migrate_postcopy(c, FROM, pid, TO, cfg).map(|r| r.new_pid),
        other => panic!("unknown migration mechanism {other}"),
    }
}

/// One cell: migrate under `faults`, then classify against the column's
/// replay oracle.
fn run_cell(mech: &str, oracle: &mut ReplayOracle, faults: &FaultHandle) -> CellOutcome {
    let (mut c, pid, baseline) = setup(faults);
    let work_at_mig = c
        .node(FROM)
        .kernel()
        .expect("source alive")
        .process(pid)
        .expect("guest alive")
        .work_done;
    let cfg = LiveMigConfig::default();
    match run_migration(mech, &mut c, pid, &cfg) {
        Ok(new_pid) => {
            // The migration absorbed the fault (clean cell or transient
            // retransmission): the target copy must be bit-exact and must
            // have lost nothing.
            match verify_twice(&mut c, oracle, TO, new_pid, work_at_mig) {
                Ok(_) => CellOutcome::Restarted { lost_steps: 0 },
                Err(what) => CellOutcome::Violation { what },
            }
        }
        Err(e @ SimError::CutoverDiverged { .. }) => {
            // Typed divergence: the migration was abandoned, so the
            // *source* guest must still be intact and runnable.
            faults.clear_crash();
            match verify_twice(&mut c, oracle, FROM, pid, work_at_mig) {
                Ok(_) => CellOutcome::Detected {
                    error: e.to_string(),
                },
                Err(what) => CellOutcome::Violation {
                    what: format!("after {e}: {what}"),
                },
            }
        }
        Err(e @ SimError::SourceLostMidMigration { .. }) => {
            // The source died with pages undrained. The typed error is the
            // cue to fall back to the last durable baseline — the exact
            // recovery a coordinator would run — and that restart must be
            // bit-exact with a positive rollback distance.
            faults.clear_crash();
            let restored = {
                let Some(k) = c.node(TO).kernel() else {
                    return CellOutcome::Violation {
                        what: format!("after {e}: target down, nowhere to fall back to"),
                    };
                };
                restore_image(k, &baseline, &RestoreOptions::fresh_running(RestorePid::Fresh))
            };
            match restored {
                Ok(np) => match verify_twice(&mut c, oracle, TO, np, 0) {
                    Ok(step) => {
                        if step >= work_at_mig {
                            return CellOutcome::Violation {
                                what: format!(
                                    "fallback restore claims step {step} >= pre-migration \
                                     work {work_at_mig}: baseline cannot be that fresh"
                                ),
                            };
                        }
                        CellOutcome::Restarted {
                            lost_steps: work_at_mig - step,
                        }
                    }
                    Err(what) => CellOutcome::Violation {
                        what: format!("after {e}: {what}"),
                    },
                },
                Err(re) => CellOutcome::Violation {
                    what: format!("after {e}: fallback restore failed: {re}"),
                },
            }
        }
        Err(other) => CellOutcome::Violation {
            what: format!("untyped migration failure: {other}"),
        },
    }
}

/// All cells of one live-migration column: the recording pass is a
/// fault-free migration, and what the column shares is its replay oracle.
fn migration_column(cfg: MatrixConfig) -> Vec<MatrixCell> {
    let record = |faults: &FaultHandle| {
        let (mut c, pid, _baseline) = setup(faults);
        run_migration(cfg.mechanism, &mut c, pid, &LiveMigConfig::default())
            .expect("fault-free recording pass must succeed");
        ReplayOracle::new(app_params())
    };
    sweep(cfg, record, |oracle, faults| {
        run_cell(cfg.mechanism, oracle, faults)
    })
}

/// The full crash matrix: every mechanism family × every backend stack ×
/// every recorded site × every fault kind, then the migration tier.
pub fn full_matrix() -> MatrixReport {
    let mut cells = Vec::new();
    for cfg in all_configs() {
        cells.extend(run_config(cfg));
    }
    for cfg in MIGRATION_TIER.configs() {
        cells.extend(migration_column(cfg));
    }
    MatrixReport { cells }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simos::faultpoint::Fault;

    #[test]
    fn recording_pass_enumerates_both_strategies_sites() {
        for &mech in MIGRATION_TIER.mechanisms {
            let faults = FaultHandle::recording();
            let (mut c, pid, _) = setup(&faults);
            run_migration(mech, &mut c, pid, &LiveMigConfig::default()).expect("clean run");
            let sites = faults.sites();
            assert!(
                sites.iter().any(|s| s.name.starts_with("livemig/cutover")),
                "{mech}: cutover site missing from {sites:?}"
            );
            let body_site = if mech == "livemig-precopy" {
                "livemig/round"
            } else {
                "livemig/demand-fault"
            };
            assert!(
                sites.iter().any(|s| s.name.starts_with(body_site)),
                "{mech}: no {body_site} sites recorded"
            );
        }
    }

    #[test]
    fn clean_cells_restart_with_zero_loss() {
        for mech in MIGRATION_TIER.mechanisms {
            // An unarmed site never fires: equivalent to a clean run.
            let mut oracle = ReplayOracle::new(app_params());
            let faults = FaultHandle::armed("never/armed", Fault::FailStop);
            let cell = run_cell(mech, &mut oracle, &faults);
            assert_eq!(
                cell,
                CellOutcome::Restarted { lost_steps: 0 },
                "{mech} clean cell"
            );
        }
    }

    #[test]
    fn cutover_failstop_falls_back_to_baseline() {
        for mech in MIGRATION_TIER.mechanisms {
            let faults = FaultHandle::armed("livemig/cutover@1", Fault::FailStop);
            let cell = run_cell(mech, &mut ReplayOracle::new(app_params()), &faults);
            match cell {
                CellOutcome::Restarted { lost_steps } => {
                    assert!(lost_steps > 0, "{mech}: fallback must roll back");
                }
                other => panic!("{mech}: expected fallback Restarted, got {other:?}"),
            }
        }
    }
}
