//! Kernel-wide event counters.
//!
//! The experiments quantify the paper's claims by *counting the events the
//! paper argues about*: protection-domain crossings, context switches,
//! address-space switches with TLB flushes, page faults, and signal
//! deliveries.

/// Monotonic counters maintained by the kernel.
///
/// ckptbench reads `context_switches` (`benchmark/src/metrics.rs`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Syscalls dispatched (all kinds), i.e. user→kernel→user round trips.
    pub syscalls: u64,
    /// Extension syscalls (module-registered) among the above.
    pub ext_syscalls: u64,
    /// Task-to-task context switches.
    pub context_switches: u64,
    /// Address-space (mm) switches, each implying a TLB flush.
    pub mm_switches: u64,
    /// Page-fault traps taken.
    pub page_faults: u64,
    /// Signals delivered to user handlers.
    pub(crate) signals_delivered: u64,
    /// Signals resolved by kernel default actions.
    pub(crate) signals_defaulted: u64,
    /// Timer ticks processed.
    pub(crate) ticks: u64,
    /// Kernel-timer firings.
    pub timer_fires: u64,
    /// ioctl dispatches to modules.
    pub ioctls: u64,
    /// Syscalls that went through an LD_PRELOAD interposition shim.
    pub interposed_syscalls: u64,
    /// Virtual ns the CPU sat idle (nothing runnable).
    pub(crate) idle_ns: u64,
    /// Virtual ns spent executing guest work (user mode).
    pub(crate) user_ns: u64,
    /// Virtual ns spent in kernel mode (syscalls, faults, modules,
    /// kthreads).
    pub(crate) kernel_ns: u64,
    /// Process forks performed.
    pub(crate) forks: u64,
    /// Copy-on-write faults serviced after forks.
    pub cow_faults: u64,
}

impl KernelStats {
    /// Difference `self - earlier` (for measuring an interval).
    pub fn delta_since(&self, earlier: &KernelStats) -> KernelStats {
        KernelStats {
            syscalls: self.syscalls - earlier.syscalls,
            ext_syscalls: self.ext_syscalls - earlier.ext_syscalls,
            context_switches: self.context_switches - earlier.context_switches,
            mm_switches: self.mm_switches - earlier.mm_switches,
            page_faults: self.page_faults - earlier.page_faults,
            signals_delivered: self.signals_delivered - earlier.signals_delivered,
            signals_defaulted: self.signals_defaulted - earlier.signals_defaulted,
            ticks: self.ticks - earlier.ticks,
            timer_fires: self.timer_fires - earlier.timer_fires,
            ioctls: self.ioctls - earlier.ioctls,
            interposed_syscalls: self.interposed_syscalls - earlier.interposed_syscalls,
            idle_ns: self.idle_ns - earlier.idle_ns,
            user_ns: self.user_ns - earlier.user_ns,
            kernel_ns: self.kernel_ns - earlier.kernel_ns,
            forks: self.forks - earlier.forks,
            cow_faults: self.cow_faults - earlier.cow_faults,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_subtracts_fieldwise() {
        let a = KernelStats {
            syscalls: 10,
            idle_ns: 100,
            ..KernelStats::default()
        };
        let mut b = a.clone();
        b.syscalls = 25;
        b.idle_ns = 150;
        b.page_faults = 3;
        let d = b.delta_since(&a);
        assert_eq!(d.syscalls, 15);
        assert_eq!(d.idle_ns, 50);
        assert_eq!(d.page_faults, 3);
        assert_eq!(d.context_switches, 0);
    }
}
