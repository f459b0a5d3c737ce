//! Process migration between nodes — the original use case of the early
//! checkpoint/restart systems (VMADump/BProc, CRAK, ZAP) before fault
//! tolerance.
//!
//! Migration = checkpoint on the source node + transfer + restore on the
//! target. Without virtualization the restore can collide with the
//! target's resources (same pid, same file paths) — the problem ZAP's pods
//! solve, at the price of a per-syscall interposition tax
//! ([`ckpt_core::pod`]).
//!
//! Every strategy is the same **cutover** (`Cutover`): freeze the source,
//! put an image on the wire, land it on the target, retire the source's
//! copy. [`migrate()`] is exactly that with a full image; the live
//! strategies of [`crate::livemig`] differ only in what crosses the wire
//! before the cutover (pre-copy's dirty rounds), after it (post-copy's
//! demand/prefetch drain), and in what image the cutover ships.

use crate::cluster::Cluster;
use crate::node::NodeId;
use ckpt_core::capture::{capture_image, restore_image, CaptureOptions, RestoreOptions, RestorePid};
use ckpt_core::pod::Pod;
use ckpt_image::CheckpointImage;
use simos::faultpoint::{Fault, FaultHandle};
use simos::pcb::ProcState;
use simos::trace::ClusterEvent;
use simos::types::{Pid, SimError, SimResult};
use simos::Kernel;

/// How the restored process acquires resources on the target node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationMode {
    /// Keep the original pid and raw paths — fails on conflicts (the
    /// pre-ZAP systems).
    KeepIdentity,
    /// Take a fresh pid, raw paths — survives pid conflicts only.
    FreshPid,
    /// Full pod virtualization — survives both pid and path conflicts.
    Podded,
}

/// Result of a completed migration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MigrationReport {
    pub(crate) from: NodeId,
    pub(crate) to: NodeId,
    pub new_pid: Pid,
    pub bytes_moved: u64,
    pub(crate) total_ns: u64,
}

/// How a landed image is restored — the only thing the
/// [`MigrationMode`]s differ in.
pub(crate) enum Landing<'p> {
    Pid(RestorePid),
    Pod(&'p mut Pod),
}

/// One migration in flight: the steps every strategy's cutover is made of,
/// each written once. The wire's faultpoints are checked on the *source's*
/// fault plan: fail-stop and torn frames kill the sender.
pub(crate) struct Cutover<'c> {
    pub(crate) cluster: &'c mut Cluster,
    pub(crate) from: NodeId,
    pub(crate) pid: Pid,
    pub(crate) to: NodeId,
    faults: FaultHandle,
}

impl<'c> Cutover<'c> {
    /// The prologue: two distinct nodes and a live source.
    pub(crate) fn begin(cluster: &'c mut Cluster, from: NodeId, pid: Pid, to: NodeId) -> SimResult<Self> {
        if from == to {
            return Err(SimError::Usage("source and target are the same node".into()));
        }
        let faults = cluster.kernel(from)?.faults.clone();
        Ok(Cutover { cluster, from, pid, to, faults })
    }

    /// The source kernel, or the typed loss if the node died under us.
    pub(crate) fn source(&mut self, residual_pages: u64) -> SimResult<&mut Kernel> {
        self.cluster
            .node(self.from)
            .kernel()
            .ok_or(SimError::SourceLostMidMigration { residual_pages })
    }

    /// Put a `bytes`-long frame on the wire at faultpoint `site`; returns
    /// how many times it crossed — once, or twice after a transient (one
    /// retransmission), each crossing charged by the caller to the kernel
    /// that waits for it. A fail-stop or torn frame means the source is
    /// gone with `residual_pages` undrained; the receiver discards a torn
    /// frame (never applies it — no silent corruption).
    pub(crate) fn ship(&mut self, site: &str, bytes: u64, residual_pages: u64) -> SimResult<u64> {
        match self.faults.check(site, bytes) {
            None => return Ok(1),
            Some(Fault::Transient) => return Ok(2),
            Some(Fault::FailStop) => {}
            // Torn frames kill the sender mid-write; flag the crash
            // (FailStop does this inside `check`).
            Some(Fault::TornWrite { .. }) => self.faults.set_crashed(),
        }
        self.cluster.inject_failure(self.from);
        Err(SimError::SourceLostMidMigration { residual_pages })
    }

    /// Receive `bytes` on the target and restore `image` there, running.
    /// Returns the new pid and the target time the landing took.
    pub(crate) fn land(
        &mut self,
        image: &CheckpointImage,
        bytes: u64,
        landing: Landing<'_>,
    ) -> SimResult<(Pid, u64)> {
        let k = self.cluster.kernel(self.to)?;
        let t_rx = k.now();
        k.charge(k.cost.memcpy(bytes));
        let new_pid = match landing {
            Landing::Pid(pid) => restore_image(k, image, &RestoreOptions::fresh_running(pid))?,
            Landing::Pod(pod) => pod.restore(k, image)?,
        };
        Ok((new_pid, k.now() - t_rx))
    }

    /// Zombie + reap `pid` on `node` (nothing to do if the node is gone):
    /// the source's copy once the target owns the process, and the
    /// half-populated post-copy target when its source is lost.
    pub(crate) fn retire(&mut self, node: NodeId, pid: Pid) {
        if let Some(k) = self.cluster.node(node).kernel() {
            if let Some(p) = k.process_mut(pid) {
                p.state = ProcState::Zombie { code: 0 };
            }
            let _ = k.reap(pid);
        }
    }

    /// The freeze bracket: stop the source guest and run `body`. On success
    /// `body` has retired the source's copy ([`Cutover::complete`]); on
    /// every error exit on which the source node is still alive the guest
    /// is thawed before returning, so a failed migration never leaves its
    /// source stopped. On a lost source there is nothing to thaw.
    pub(crate) fn frozen<T>(&mut self, body: impl FnOnce(&mut Self) -> SimResult<T>) -> SimResult<T> {
        let pid = self.pid;
        self.source(0)?.freeze_process(pid)?;
        let out = body(self);
        if out.is_err() {
            if let Ok(k) = self.source(0) {
                let _ = k.thaw_process(pid);
            }
        }
        out
    }

    /// The target owns the process: the source's copy has left the
    /// building, and the migration (`bytes` on the wire in total) is
    /// recorded.
    pub(crate) fn complete(&mut self, bytes: u64) -> SimResult<()> {
        self.source(0)?;
        self.retire(self.from, self.pid);
        let migration = ClusterEvent::Migration {
            from: self.from.0,
            to: self.to.0,
            bytes,
        };
        self.cluster.trace().cluster(migration, self.cluster.now());
        Ok(())
    }
}

/// Migrate `pid` from `from` to `to` over the interconnect, frozen for the
/// whole image transfer.
pub fn migrate(
    cluster: &mut Cluster,
    from: NodeId,
    pid: Pid,
    to: NodeId,
    mode: MigrationMode,
    pod: Option<&mut Pod>,
) -> SimResult<MigrationReport> {
    let landing = match (mode, pod) {
        (MigrationMode::KeepIdentity, _) => Landing::Pid(RestorePid::Original),
        (MigrationMode::FreshPid, _) => Landing::Pid(RestorePid::Fresh),
        (MigrationMode::Podded, Some(pod)) => Landing::Pod(pod),
        (MigrationMode::Podded, None) => {
            return Err(SimError::Usage("Podded migration requires a pod".into()))
        }
    };
    let t0 = cluster.now();
    let mut m = Cutover::begin(cluster, from, pid, to)?;
    let (new_pid, bytes_moved) = m.frozen(|m| {
        // Source: capture + send.
        let k = m.source(0)?;
        let mut opts = CaptureOptions::full("migrate", 1);
        opts.save_file_contents = true;
        let img = capture_image(k, pid, &opts)?;
        let bytes = ckpt_image::encode(&img).len() as u64;
        k.charge(k.cost.wire(bytes));
        // Target: receive + restore.
        let (new_pid, _) = m.land(&img, bytes, landing)?;
        // Teardown handshake: the target's ACK and the source's exit cross
        // the wire; an armed `migrate/transfer` fault models the source
        // dying in this window, after the target already owns the process.
        // The image's own crossing was charged above; a transient costs one
        // retransmission of the ACK frame.
        let resent = m.ship("migrate/transfer", bytes, 0)? - 1;
        let k = m.source(0)?;
        k.charge(resent * k.cost.wire(bytes));
        m.complete(bytes)?;
        Ok((new_pid, bytes))
    })?;
    Ok(MigrationReport {
        from,
        to,
        new_pid,
        bytes_moved,
        total_ns: cluster.now().max(t0) - t0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::FailureConfig;
    use simos::apps::{AppParams, NativeKind};
    use simos::cost::CostModel;

    fn setup() -> (Cluster, Pid) {
        let mut c = Cluster::new(2, CostModel::circa_2005(), FailureConfig::none());
        let mut params = AppParams::small();
        params.total_steps = u64::MAX;
        let pid = c
            .node(NodeId(0))
            .kernel()
            .unwrap()
            .spawn_native(NativeKind::SparseRandom, params)
            .unwrap();
        c.advance(20_000_000);
        (c, pid)
    }

    #[test]
    fn migration_moves_execution_to_the_target() {
        let (mut c, pid) = setup();
        let w0 = c
            .node(NodeId(0))
            .kernel()
            .unwrap()
            .process(pid)
            .unwrap()
            .work_done;
        let r = migrate(&mut c, NodeId(0), pid, NodeId(1), MigrationMode::FreshPid, None).unwrap();
        assert!(r.bytes_moved > 0);
        // Gone from source, running on target with progress preserved.
        assert!(c.node(NodeId(0)).kernel().unwrap().process(pid).is_none());
        let w1 = c
            .node(NodeId(1))
            .kernel()
            .unwrap()
            .process(r.new_pid)
            .unwrap()
            .work_done;
        assert_eq!(w1, w0);
        c.advance(30_000_000);
        assert!(
            c.node(NodeId(1))
                .kernel()
                .unwrap()
                .process(r.new_pid)
                .unwrap()
                .work_done
                > w0
        );
    }

    #[test]
    fn keep_identity_fails_on_pid_conflict_pod_succeeds() {
        let (mut c, pid) = setup();
        // Occupy the same pid number on the target.
        let squatter_params = AppParams::small();
        let squatter = c
            .node(NodeId(1))
            .kernel()
            .unwrap()
            .spawn_native(NativeKind::SparseRandom, {
                let mut p = squatter_params;
                p.total_steps = u64::MAX;
                p
            })
            .unwrap();
        assert_eq!(squatter.0, pid.0, "test setup: pids must collide");
        let err = migrate(
            &mut c,
            NodeId(0),
            pid,
            NodeId(1),
            MigrationMode::KeepIdentity,
            None,
        );
        assert!(err.is_err(), "identity migration must hit the conflict");
        let mut pod = Pod::new("migrated");
        let r = migrate(
            &mut c,
            NodeId(0),
            pid,
            NodeId(1),
            MigrationMode::Podded,
            Some(&mut pod),
        )
        .unwrap();
        assert_ne!(r.new_pid.0, pid.0);
        assert_eq!(pod.physical(pid.0), Some(r.new_pid));
    }

    #[test]
    fn migration_to_dead_node_fails() {
        let (mut c, pid) = setup();
        c.inject_failure(NodeId(1));
        assert!(migrate(&mut c, NodeId(0), pid, NodeId(1), MigrationMode::FreshPid, None).is_err());
    }

    #[test]
    fn source_loss_mid_migration_is_reported() {
        // The source dies in the teardown window, after the target has
        // restored: migrate() must surface the typed mid-migration loss
        // (nothing left undrained) rather than pretend the teardown happened.
        let (mut c, pid) = setup();
        let faults =
            simos::faultpoint::FaultHandle::armed("migrate/transfer@1", simos::faultpoint::Fault::FailStop);
        c.node(NodeId(0)).kernel().unwrap().set_faults(faults);
        let err = migrate(&mut c, NodeId(0), pid, NodeId(1), MigrationMode::FreshPid, None)
            .expect_err("armed teardown fault must surface");
        assert_eq!(err, SimError::SourceLostMidMigration { residual_pages: 0 });
        assert!(!c.node(NodeId(0)).alive());
        // The target still owns a runnable copy: migration completed from
        // its point of view before the source died.
        let k = c.node(NodeId(1)).kernel().unwrap();
        assert_eq!(k.pids().len(), 1);
    }

    #[test]
    fn self_migration_rejected() {
        let (mut c, pid) = setup();
        assert!(migrate(&mut c, NodeId(0), pid, NodeId(0), MigrationMode::FreshPid, None).is_err());
    }
}
