//! Kernel timers: one-shot and periodic, with data-only actions (no
//! closures, so kernel state stays cloneable and deterministic).

use crate::signal::Sig;
use crate::types::{KtId, Pid};

/// What a timer does when it fires.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TimerAction {
    /// Post a signal to a process (this is how `alarm`/`setitimer` deliver
    /// `SIGALRM`, and how automatic-initiation policies trigger checkpoint
    /// signals).
    SendSignal { pid: Pid, sig: Sig },
    /// Wake a kernel thread.
    WakeKThread(KtId),
    /// Dispatch to the owning module's `timer_event` hook with a tag.
    ModuleEvent { module: String, tag: u64 },
}

/// Handle for cancelling a timer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TimerId(pub(crate) u64);

/// A registered timer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Timer {
    pub(crate) id: TimerId,
    /// Absolute virtual time of the next firing.
    pub at: u64,
    /// Re-arm period; `None` for one-shot.
    pub period: Option<u64>,
    pub action: TimerAction,
    /// Owning process, if any — timers owned by a process are cancelled
    /// when it exits and are part of its checkpointable state.
    pub(crate) owner: Option<Pid>,
}

/// The timer list. Deterministic: ties fire in registration order.
#[derive(Debug, Clone, Default)]
pub struct TimerWheel {
    timers: Vec<Timer>,
    next_id: u64,
}

impl TimerWheel {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    pub fn arm(
        &mut self,
        at: u64,
        period: Option<u64>,
        action: TimerAction,
        owner: Option<Pid>,
    ) -> TimerId {
        self.next_id += 1;
        let id = TimerId(self.next_id);
        self.timers.push(Timer {
            id,
            at,
            period,
            action,
            owner,
        });
        id
    }

    pub fn cancel(&mut self, id: TimerId) -> bool {
        let before = self.timers.len();
        self.timers.retain(|t| t.id != id);
        self.timers.len() != before
    }

    /// Cancel all timers owned by a process (on exit).
    pub(crate) fn cancel_owned(&mut self, pid: Pid) -> usize {
        let before = self.timers.len();
        self.timers.retain(|t| t.owner != Some(pid));
        before - self.timers.len()
    }

    /// Earliest pending fire time.
    pub fn next_at(&self) -> Option<u64> {
        self.timers.iter().map(|t| t.at).min()
    }

    /// Pop every timer due at or before `now`, re-arming periodic ones.
    /// Returned in (fire-time, registration) order.
    pub fn take_due(&mut self, now: u64) -> Vec<Timer> {
        let mut due: Vec<Timer> = Vec::new();
        for t in self.timers.iter_mut() {
            if t.at <= now {
                due.push(t.clone());
                if let Some(p) = t.period {
                    // Skip forward past `now` to avoid a firing storm after
                    // long idle gaps. A period reaching past the end of
                    // virtual time parks the timer there.
                    let mut next = t.at.saturating_add(p);
                    while next <= now && next < u64::MAX {
                        next = next.saturating_add(p);
                    }
                    t.at = next;
                }
            }
        }
        self.timers.retain(|t| t.period.is_some() || t.at > now);
        due.sort_by_key(|t| (t.at, t.id.0));
        due
    }

    /// All timers owned by `pid` (for checkpointing itimer state).
    pub fn owned_by(&self, pid: Pid) -> Vec<Timer> {
        self.timers
            .iter()
            .filter(|t| t.owner == Some(pid))
            .cloned()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sig_action(pid: u32) -> TimerAction {
        TimerAction::SendSignal {
            pid: Pid(pid),
            sig: Sig::SIGALRM,
        }
    }

    #[test]
    fn one_shot_fires_once() {
        let mut w = TimerWheel::new();
        w.arm(100, None, sig_action(1), Some(Pid(1)));
        assert!(w.take_due(50).is_empty());
        let due = w.take_due(100);
        assert_eq!(due.len(), 1);
        assert_eq!(w.next_at(), None);
    }

    #[test]
    fn periodic_rearms_past_now() {
        let mut w = TimerWheel::new();
        w.arm(100, Some(100), sig_action(1), None);
        assert_eq!(w.take_due(100).len(), 1);
        // After a long idle gap, only one firing is reported and the timer
        // re-arms beyond `now`.
        let due = w.take_due(1050);
        assert_eq!(due.len(), 1);
        assert_eq!(w.next_at(), Some(1100));
    }

    #[test]
    fn cancel_and_cancel_owned() {
        let mut w = TimerWheel::new();
        let a = w.arm(10, None, sig_action(1), Some(Pid(1)));
        w.arm(20, None, sig_action(2), Some(Pid(2)));
        w.arm(30, None, sig_action(2), Some(Pid(2)));
        assert!(w.cancel(a));
        assert!(!w.cancel(a));
        assert_eq!(w.cancel_owned(Pid(2)), 2);
        assert_eq!(w.next_at(), None);
    }

    #[test]
    fn due_order_is_time_then_registration() {
        let mut w = TimerWheel::new();
        w.arm(20, None, sig_action(1), None);
        w.arm(10, None, sig_action(2), None);
        w.arm(10, None, sig_action(3), None);
        let due = w.take_due(25);
        let pids: Vec<u32> = due
            .iter()
            .map(|t| match &t.action {
                TimerAction::SendSignal { pid, .. } => pid.0,
                _ => 0,
            })
            .collect();
        assert_eq!(pids, vec![2, 3, 1]);
    }

    #[test]
    fn owned_by_lists_process_timers() {
        let mut w = TimerWheel::new();
        w.arm(10, Some(5), sig_action(7), Some(Pid(7)));
        w.arm(10, None, sig_action(8), Some(Pid(8)));
        let mine = w.owned_by(Pid(7));
        assert_eq!(mine.len(), 1);
        assert_eq!(mine[0].period, Some(5));
    }
}
