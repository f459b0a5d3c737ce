//! A minimal deterministic message-passing (MPI-like) job layer.
//!
//! The `repro_why` note for this reproduction observes that Rust MPI
//! bindings are thin; coordinated checkpointing only needs a
//! bulk-synchronous send/recv/barrier substrate, so we build exactly that:
//! ranks are native guest apps, each **superstep** runs every rank for a
//! fixed number of app steps and then performs a deterministic neighbour
//! exchange (each rank sends a digest of its state to the next rank, ring
//! topology), charged with network latency/bandwidth on both kernels.
//!
//! Everything a rank knows — including its superstep counter and inbox —
//! lives in its guest memory, so a coordinated checkpoint taken at a
//! superstep boundary (where no messages are in flight) captures the whole
//! job state, and restart correctness is checkable end to end.

use crate::cluster::Cluster;
use crate::node::NodeId;
use simos::apps::{AppParams, NativeKind, HEADER_BASE};
use simos::types::{Pid, SimError, SimResult};

/// Guest-memory slots the job driver maintains per rank (within the app
/// header page, after the app's own fields).
pub const SLOT_SUPERSTEP: u64 = HEADER_BASE + 32;
pub const SLOT_INBOX: u64 = HEADER_BASE + 40;

/// Where one rank currently lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RankRef {
    pub rank: u32,
    pub node: NodeId,
    pub pid: Pid,
}

/// Why a superstep could not complete.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobInterrupt {
    /// A node hosting a rank failed; the job must be recovered.
    NodeLost(NodeId),
}

/// A bulk-synchronous parallel job.
pub struct MpiJob {
    pub name: String,
    pub ranks: Vec<RankRef>,
    pub steps_per_superstep: u64,
    /// Payload size of each neighbour message.
    pub msg_bytes: u64,
    pub kind: NativeKind,
    pub params: AppParams,
    completed_supersteps: u64,
}

impl MpiJob {
    /// Launch `n_ranks` ranks round-robin across the alive nodes.
    pub fn launch(
        cluster: &mut Cluster,
        name: &str,
        n_ranks: u32,
        kind: NativeKind,
        mut params: AppParams,
        steps_per_superstep: u64,
        msg_bytes: u64,
    ) -> SimResult<Self> {
        params.total_steps = u64::MAX; // the job driver decides completion
        let alive = cluster.alive_nodes();
        if alive.is_empty() {
            return Err(SimError::Usage("no alive nodes".into()));
        }
        let mut ranks = Vec::new();
        for r in 0..n_ranks {
            let node = alive[r as usize % alive.len()];
            let mut p = params.clone();
            p.seed = params.seed.wrapping_add(r as u64);
            let pid = cluster.kernel(node)?.spawn_native(kind, p)?;
            ranks.push(RankRef { rank: r, node, pid });
        }
        Ok(MpiJob {
            name: name.to_string(),
            ranks,
            steps_per_superstep,
            msg_bytes,
            kind,
            params,
            completed_supersteps: 0,
        })
    }

    pub fn completed_supersteps(&self) -> u64 {
        self.completed_supersteps
    }

    /// After a restart, resynchronize the driver's superstep counter from
    /// rank 0's guest memory (the durable truth).
    pub fn resync_supersteps(&mut self, cluster: &mut Cluster) -> SimResult<()> {
        let r = self.ranks[0];
        let mut buf = [0u8; 8];
        cluster
            .kernel(r.node)?
            .process(r.pid)
            .ok_or(SimError::NoSuchProcess(r.pid))?
            .mem
            .peek(SLOT_SUPERSTEP, &mut buf);
        self.completed_supersteps = u64::from_le_bytes(buf);
        Ok(())
    }

    fn rank_work_target(&self) -> u64 {
        (self.completed_supersteps + 1) * self.steps_per_superstep
    }

    /// Execute one superstep: compute phase on all ranks, then the ring
    /// exchange, then the barrier (counter bump). On a node loss the
    /// caller must recover from the last coordinated checkpoint.
    pub fn superstep(&mut self, cluster: &mut Cluster) -> Result<(), JobInterrupt> {
        // --- compute phase ---
        let target = self.rank_work_target();
        loop {
            let mut all_done = true;
            for r in &self.ranks {
                let Some(k) = cluster.node(r.node).kernel() else {
                    return Err(JobInterrupt::NodeLost(r.node));
                };
                let Some(p) = k.process(r.pid) else {
                    return Err(JobInterrupt::NodeLost(r.node));
                };
                if p.work_done < target {
                    all_done = false;
                }
            }
            if all_done {
                break;
            }
            let events = cluster.advance(2_000_000);
            for ev in &events {
                if self.ranks.iter().any(|r| r.node == ev.node) {
                    return Err(JobInterrupt::NodeLost(ev.node));
                }
            }
        }
        // --- exchange phase (ring): rank r → rank (r+1) % R ---
        let n = self.ranks.len();
        let mut digests = Vec::with_capacity(n);
        for r in &self.ranks {
            let k = cluster
                .node(r.node)
                .kernel()
                .ok_or(JobInterrupt::NodeLost(r.node))?;
            let mut buf = [0u8; 8];
            k.process(r.pid)
                .ok_or(JobInterrupt::NodeLost(r.node))?
                .mem
                .peek(simos::apps::H_SUM, &mut buf);
            digests.push(u64::from_le_bytes(buf));
        }
        #[allow(clippy::needless_range_loop)] // ring topology needs both indices
        for i in 0..n {
            let to = (i + 1) % n;
            let payload = digests[i]
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(self.completed_supersteps);
            // Sender pays a send syscall + wire time.
            {
                let sender = self.ranks[i];
                let k = cluster
                    .node(sender.node)
                    .kernel()
                    .ok_or(JobInterrupt::NodeLost(sender.node))?;
                k.stats.syscalls += 1;
                let t = k.cost.syscall_round_trip() + k.cost.wire(self.msg_bytes);
                k.charge(t);
            }
            // Receiver pays a recv syscall + copy into its inbox slot.
            {
                let recv = self.ranks[to];
                let k = cluster
                    .node(recv.node)
                    .kernel()
                    .ok_or(JobInterrupt::NodeLost(recv.node))?;
                k.stats.syscalls += 1;
                let t = k.cost.syscall_round_trip() + k.cost.memcpy(self.msg_bytes);
                k.charge(t);
                k.mem_write(recv.pid, SLOT_INBOX, &payload.to_le_bytes())
                    .map_err(|_| JobInterrupt::NodeLost(recv.node))?;
            }
        }
        // --- barrier: bump every rank's superstep counter ---
        self.completed_supersteps += 1;
        for r in &self.ranks {
            let done = self.completed_supersteps;
            let k = cluster
                .node(r.node)
                .kernel()
                .ok_or(JobInterrupt::NodeLost(r.node))?;
            k.mem_write(r.pid, SLOT_SUPERSTEP, &done.to_le_bytes())
                .map_err(|_| JobInterrupt::NodeLost(r.node))?;
        }
        Ok(())
    }

    /// Read every rank's (superstep, inbox) — for correctness checks.
    pub fn rank_states(&self, cluster: &mut Cluster) -> SimResult<Vec<(u64, u64)>> {
        let mut out = Vec::new();
        for r in &self.ranks {
            let k = cluster.kernel(r.node)?;
            let p = k.process(r.pid).ok_or(SimError::NoSuchProcess(r.pid))?;
            let mut a = [0u8; 8];
            let mut b = [0u8; 8];
            p.mem.peek(SLOT_SUPERSTEP, &mut a);
            p.mem.peek(SLOT_INBOX, &mut b);
            out.push((u64::from_le_bytes(a), u64::from_le_bytes(b)));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::FailureConfig;
    use simos::cost::CostModel;

    fn job_on(n_nodes: usize, n_ranks: u32) -> (Cluster, MpiJob) {
        let mut c = Cluster::new(n_nodes, CostModel::circa_2005(), FailureConfig::none());
        let job = MpiJob::launch(
            &mut c,
            "stencil",
            n_ranks,
            NativeKind::SparseRandom,
            AppParams::small(),
            8,
            64 * 1024,
        )
        .unwrap();
        (c, job)
    }

    #[test]
    fn ranks_placed_round_robin() {
        let (_c, job) = job_on(2, 4);
        assert_eq!(job.ranks[0].node, NodeId(0));
        assert_eq!(job.ranks[1].node, NodeId(1));
        assert_eq!(job.ranks[2].node, NodeId(0));
        assert_eq!(job.ranks[3].node, NodeId(1));
    }

    #[test]
    fn supersteps_advance_all_ranks_in_lockstep() {
        let (mut c, mut job) = job_on(2, 4);
        for _ in 0..3 {
            job.superstep(&mut c).unwrap();
        }
        assert_eq!(job.completed_supersteps(), 3);
        let states = job.rank_states(&mut c).unwrap();
        for (ss, inbox) in &states {
            assert_eq!(*ss, 3);
            assert_ne!(*inbox, 0, "every rank received a message");
        }
    }

    #[test]
    fn exchange_is_deterministic() {
        let run = || {
            let (mut c, mut job) = job_on(2, 3);
            for _ in 0..4 {
                job.superstep(&mut c).unwrap();
            }
            job.rank_states(&mut c).unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn node_loss_interrupts_the_superstep() {
        let (mut c, mut job) = job_on(2, 2);
        job.superstep(&mut c).unwrap();
        c.inject_failure(NodeId(1));
        match job.superstep(&mut c) {
            Err(JobInterrupt::NodeLost(n)) => assert_eq!(n, NodeId(1)),
            other => panic!("expected NodeLost, got {other:?}"),
        }
    }

    #[test]
    fn messaging_charges_network_time() {
        let (mut c, mut job) = job_on(2, 2);
        let t0 = c.node(NodeId(0)).now();
        job.superstep(&mut c).unwrap();
        // Node time advanced beyond pure compute (net latency charged).
        assert!(c.node(NodeId(0)).now() > t0);
        let k = c.node(NodeId(0)).kernel().unwrap();
        assert!(k.stats.syscalls >= 2, "send+recv syscalls charged");
    }
}
