//! The scheduler: `SCHED_OTHER` with decaying dynamic priorities and
//! `SCHED_FIFO` real-time tasks.
//!
//! The paper's Section 4.1 argues that checkpoint code running as an
//! ordinary process can be starved ("the process could be suspended by the
//! kernel because there is another process with a higher priority waiting
//! for the CPU; the priority is dynamic so it decreases with time"), while a
//! kernel thread given `SCHED_FIFO` priority "will be executed as soon as it
//! wakes up and it will run until it has completed its work". This module
//! implements exactly those semantics so the claim is measurable.

use crate::types::Task;

/// Scheduling policy of a task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedPolicy {
    /// Time-sharing with dynamic priority (decays while running, ages while
    /// waiting). `nice` shifts the base priority: lower nice = higher
    /// priority, range [-20, 19] as in Linux.
    Other { nice: i32 },
    /// Real-time FIFO: always beats every `Other` task; among FIFO tasks the
    /// highest `rt_prio` wins, ties broken in enqueue order; never preempted
    /// by equal or lower priority.
    Fifo { rt_prio: u8 },
}

const BASE_PRIO: i32 = 120;
const MAX_DYN_BONUS: i32 = 10;

#[derive(Debug, Clone)]
struct Entry {
    task: Task,
    policy: SchedPolicy,
    /// Dynamic bonus for `Other` tasks, in [-MAX_DYN_BONUS, MAX_DYN_BONUS];
    /// higher is better. Decays while running, ages while waiting.
    dyn_bonus: i32,
    enq_seq: u64,
}

impl Entry {
    /// Effective priority: smaller is better (like kernel prio values).
    fn eff_prio(&self) -> i32 {
        match self.policy {
            SchedPolicy::Fifo { rt_prio } => -(rt_prio as i32) - 1000,
            SchedPolicy::Other { nice } => BASE_PRIO + nice - self.dyn_bonus,
        }
    }
}

/// The ready queue. Removing a task from here is the "stop the application"
/// operation kernel-thread checkpointers perform to guarantee consistency.
#[derive(Debug, Clone, Default)]
pub struct RunQueue {
    entries: Vec<Entry>,
    seq: u64,
}

impl RunQueue {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Add a task to the ready queue. Idempotent (re-enqueueing refreshes
    /// nothing and keeps the original order position).
    pub(crate) fn enqueue(&mut self, task: Task, policy: SchedPolicy) {
        if self.entries.iter().any(|e| e.task == task) {
            return;
        }
        self.seq += 1;
        self.entries.push(Entry {
            task,
            policy,
            dyn_bonus: 0,
            enq_seq: self.seq,
        });
    }

    /// Remove a task (blocking, exiting, or being frozen by a
    /// checkpointer). Returns true if it was queued.
    pub(crate) fn dequeue(&mut self, task: Task) -> bool {
        let before = self.entries.len();
        self.entries.retain(|e| e.task != task);
        self.entries.len() != before
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Update a queued task's policy (mirrors `sched_setscheduler`).
    pub(crate) fn set_policy(&mut self, task: Task, policy: SchedPolicy) {
        if let Some(e) = self.entries.iter_mut().find(|e| e.task == task) {
            e.policy = policy;
        }
    }

    /// Choose the next task to run without removing it.
    pub(crate) fn pick_next(&self) -> Option<Task> {
        self.entries
            .iter()
            .min_by_key(|e| (e.eff_prio(), e.enq_seq))
            .map(|e| e.task)
    }

    /// Account a tick of CPU used by `ran`: its dynamic bonus decays while
    /// every other waiting `Other` task ages upward, and the runner rotates
    /// to the back of its priority class (round-robin among equals —
    /// without this, once several waiters saturate at `MAX_DYN_BONUS` the
    /// two oldest entries ping-pong on the enqueue-order tie-break and
    /// everything behind them starves). FIFO entries are unaffected: a
    /// FIFO task runs until it yields the queue position itself.
    pub(crate) fn tick(&mut self, ran: Task) {
        let mut rotate = false;
        for e in self.entries.iter_mut() {
            if let SchedPolicy::Other { .. } = e.policy {
                if e.task == ran {
                    e.dyn_bonus = (e.dyn_bonus - 1).max(-MAX_DYN_BONUS);
                    rotate = true;
                } else {
                    e.dyn_bonus = (e.dyn_bonus + 1).min(MAX_DYN_BONUS);
                }
            }
        }
        if rotate {
            self.seq += 1;
            let seq = self.seq;
            if let Some(e) = self.entries.iter_mut().find(|e| e.task == ran) {
                e.enq_seq = seq;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{KtId, Pid};

    fn p(n: u32) -> Task {
        Task::Process(Pid(n))
    }

    #[test]
    fn fifo_always_beats_other() {
        let mut rq = RunQueue::new();
        rq.enqueue(p(1), SchedPolicy::Other { nice: -20 });
        rq.enqueue(Task::KThread(KtId(1)), SchedPolicy::Fifo { rt_prio: 1 });
        assert_eq!(rq.pick_next(), Some(Task::KThread(KtId(1))));
    }

    #[test]
    fn higher_rt_prio_wins_among_fifo() {
        let mut rq = RunQueue::new();
        rq.enqueue(p(1), SchedPolicy::Fifo { rt_prio: 10 });
        rq.enqueue(p(2), SchedPolicy::Fifo { rt_prio: 50 });
        assert_eq!(rq.pick_next(), Some(p(2)));
    }

    #[test]
    fn fifo_ties_break_in_enqueue_order() {
        let mut rq = RunQueue::new();
        rq.enqueue(p(3), SchedPolicy::Fifo { rt_prio: 5 });
        rq.enqueue(p(4), SchedPolicy::Fifo { rt_prio: 5 });
        assert_eq!(rq.pick_next(), Some(p(3)));
    }

    #[test]
    fn nice_orders_other_tasks() {
        let mut rq = RunQueue::new();
        rq.enqueue(p(1), SchedPolicy::Other { nice: 10 });
        rq.enqueue(p(2), SchedPolicy::Other { nice: -10 });
        assert_eq!(rq.pick_next(), Some(p(2)));
    }

    #[test]
    fn dynamic_priority_decays_for_runner_and_ages_waiters() {
        let mut rq = RunQueue::new();
        rq.enqueue(p(1), SchedPolicy::Other { nice: 0 });
        rq.enqueue(p(2), SchedPolicy::Other { nice: 0 });
        assert_eq!(rq.pick_next(), Some(p(1))); // enqueue order tie-break
        // p1 runs for two ticks: its bonus decays, p2 ages.
        rq.tick(p(1));
        rq.tick(p(1));
        assert_eq!(rq.pick_next(), Some(p(2)));
    }

    #[test]
    fn bonus_saturates() {
        let mut rq = RunQueue::new();
        rq.enqueue(p(1), SchedPolicy::Other { nice: 0 });
        for _ in 0..100 {
            rq.tick(p(1));
        }
        assert_eq!(rq.entries[0].eff_prio(), BASE_PRIO + MAX_DYN_BONUS); // fully decayed
    }

    #[test]
    fn saturated_queue_does_not_starve_late_arrivals() {
        // Three equal-nice tasks driven to bonus saturation: every task must
        // keep getting quanta (the runner rotates behind its equals), not
        // just the two oldest entries.
        let mut rq = RunQueue::new();
        rq.enqueue(p(1), SchedPolicy::Other { nice: 0 });
        rq.enqueue(p(2), SchedPolicy::Other { nice: 0 });
        rq.enqueue(Task::KThread(KtId(7)), SchedPolicy::Other { nice: 0 });
        let mut ran = std::collections::BTreeSet::new();
        for _ in 0..100 {
            let t = rq.pick_next().unwrap();
            ran.insert(format!("{t:?}"));
            rq.tick(t);
        }
        assert_eq!(ran.len(), 3, "all three tasks must run: {ran:?}");
    }

    #[test]
    fn dequeue_freezes_task() {
        let mut rq = RunQueue::new();
        rq.enqueue(p(1), SchedPolicy::Other { nice: 0 });
        assert!(rq.dequeue(p(1)));
        assert!(rq.entries.is_empty());
        assert!(!rq.dequeue(p(1)));
        assert_eq!(rq.pick_next(), None);
    }

    #[test]
    fn enqueue_is_idempotent() {
        let mut rq = RunQueue::new();
        rq.enqueue(p(1), SchedPolicy::Other { nice: 0 });
        rq.enqueue(p(1), SchedPolicy::Other { nice: 0 });
        assert_eq!(rq.entries.len(), 1);
    }

    #[test]
    fn would_preempt_fifo_semantics() {
        let mut rq = RunQueue::new();
        // A running FIFO task is not preempted by an equal-priority peer,
        // however many ticks it uses.
        rq.enqueue(p(1), SchedPolicy::Fifo { rt_prio: 50 });
        rq.enqueue(p(2), SchedPolicy::Fifo { rt_prio: 50 });
        for _ in 0..10 {
            assert_eq!(rq.pick_next(), Some(p(1)));
            rq.tick(p(1));
        }
        // A strictly higher FIFO priority does preempt it.
        rq.enqueue(p(3), SchedPolicy::Fifo { rt_prio: 60 });
        assert_eq!(rq.pick_next(), Some(p(3)));
        // Any FIFO task preempts the best-placed `Other` task.
        let mut rq = RunQueue::new();
        rq.enqueue(p(4), SchedPolicy::Other { nice: -20 });
        for _ in 0..10 {
            rq.tick(p(5));
        }
        rq.enqueue(p(5), SchedPolicy::Fifo { rt_prio: 1 });
        assert_eq!(rq.pick_next(), Some(p(5)));
    }

    #[test]
    fn set_policy_changes_ordering() {
        let mut rq = RunQueue::new();
        rq.enqueue(p(1), SchedPolicy::Other { nice: 0 });
        rq.enqueue(p(2), SchedPolicy::Other { nice: 0 });
        rq.set_policy(p(2), SchedPolicy::Fifo { rt_prio: 1 });
        assert_eq!(rq.pick_next(), Some(p(2)));
    }
}
