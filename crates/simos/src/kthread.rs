//! Kernel threads.
//!
//! A kernel thread "does not have a proper process address space … and it
//! uses the page tables of the task it interrupted, that may not be the
//! process that has to be checkpointed. If so happened a process address
//! space switch is required and this may invalidate the TLB cache"
//! (Section 4.1). The simulator models this: a kernel thread runs on
//! whatever address space is active; touching another process's memory
//! requires [`crate::kernel::Kernel::kthread_attach_mm`], which charges the
//! switch + TLB penalty exactly when the active space differs.
//!
//! Kernel threads are owned by kernel modules: scheduling one dispatches to
//! [`crate::module::KernelModule::kthread_run`].

use crate::sched::SchedPolicy;
use crate::types::KtId;

/// Life-cycle state of a kernel thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum KtState {
    /// Waiting to be woken (not on the runqueue).
    Sleeping,
    /// On the runqueue or running.
    Ready,
    /// Exited; slot retained until reaped.
    Dead,
}

/// Kernel-thread control block.
#[derive(Debug, Clone)]
pub struct KThread {
    pub id: KtId,
    /// Owning kernel module (dispatch target).
    pub(crate) module: String,
    pub(crate) state: KtState,
    pub(crate) policy: SchedPolicy,
    /// Accumulated CPU time.
    pub(crate) cpu_ns: u64,
    /// Number of times the thread has been woken.
    pub(crate) wakeups: u64,
}

impl KThread {
    pub(crate) fn new(id: KtId, module: &str, policy: SchedPolicy) -> Self {
        KThread {
            id,
            module: module.to_string(),
            state: KtState::Sleeping,
            policy,
            cpu_ns: 0,
            wakeups: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_thread_starts_asleep() {
        let kt = KThread::new(KtId(1), "crak", SchedPolicy::Fifo { rt_prio: 50 });
        assert_eq!(kt.state, KtState::Sleeping);
        assert_eq!(kt.policy, SchedPolicy::Fifo { rt_prio: 50 });
        assert_eq!(kt.wakeups, 0);
    }
}
