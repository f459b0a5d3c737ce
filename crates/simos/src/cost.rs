//! The calibrated hardware/OS cost model.
//!
//! Every nanosecond of virtual time in the simulator is charged from this
//! table. The defaults ([`CostModel::circa_2005`]) are calibrated to the
//! hardware the paper's era used: user/kernel crossing costs in the range
//! measured by Lai & Baker \[20\], ~50 MB/s commodity disks, ~200–300 MB/s
//! cluster interconnects (Quadrics-class), and ~1.5 GB/s memory copies.
//!
//! The absolute values matter less than the *ratios*: the paper's arguments
//! are comparative (a syscall round-trip costs more than a direct kernel
//! structure access; an address-space switch invalidates the TLB; remote
//! storage pays network latency but survives node loss). All experiments can
//! be re-run under a different model — `CostModel::modern()` is provided as
//! a sensitivity check.

/// Page size used throughout the simulator (bytes).
pub const PAGE_SIZE: u64 = 4096;

/// Cache-line size used by the hardware-assisted tracking model (bytes).
pub const CACHE_LINE: u64 = 64;

/// All virtual-time charges, in nanoseconds (rates in ns/byte as `f64`).
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// Crossing from user to kernel mode (trap, register save).
    pub syscall_entry_ns: u64,
    /// Crossing from kernel back to user mode (register restore).
    pub syscall_exit_ns: u64,
    /// Fixed in-kernel dispatch cost of any syscall beyond the crossings.
    pub syscall_dispatch_ns: u64,
    /// Full context switch between two tasks (scheduler bookkeeping).
    pub context_switch_ns: u64,
    /// Switching the active address space (page-table base reload).
    pub addr_space_switch_ns: u64,
    /// Immediate cost of flushing the TLB on an address-space switch.
    pub tlb_flush_ns: u64,
    /// Amortized cost of refilling the TLB after a flush (charged once per
    /// flush; models the burst of misses that follows).
    pub tlb_refill_ns: u64,
    /// Taking a page-fault exception into the kernel.
    pub page_fault_trap_ns: u64,
    /// Delivering a signal to a user handler (frame setup + sigreturn).
    pub signal_deliver_ns: u64,
    /// Per-page cost of changing protections (`mprotect`), beyond crossings.
    pub mprotect_per_page_ns: u64,
    /// Timer-interrupt (tick) handling overhead.
    pub tick_overhead_ns: u64,
    /// Interval between timer ticks.
    pub tick_interval_ns: u64,
    /// Default scheduler timeslice for `SCHED_OTHER` tasks.
    pub timeslice_ns: u64,
    /// One guest VM instruction.
    pub instr_ns: u64,
    /// One iteration-step "unit of work" of a native guest app, excluding
    /// its memory traffic (which is charged via `memcpy_ns_per_byte`).
    pub native_step_ns: u64,
    /// Memory copy rate (ns per byte). 1.5 GB/s ≈ 0.67 ns/B.
    pub memcpy_ns_per_byte: f64,
    /// Hashing rate for block-hash (probabilistic) checkpointing (ns/B).
    pub hash_ns_per_byte: f64,
    /// `fork()` fixed cost (task struct, fd table duplication).
    pub fork_base_ns: u64,
    /// `fork()` per-present-page cost (page-table entry copy + COW marking).
    pub fork_per_page_ns: u64,
    /// Copy-on-write fault servicing one page (trap + copy).
    pub cow_fault_ns: u64,
    /// Run-time overhead added to each interposed syscall by an
    /// `LD_PRELOAD` wrapper (the ZAP/preload virtualization tax).
    pub interpose_ns: u64,
    /// Local disk: seek + rotational latency per operation.
    pub disk_latency_ns: u64,
    /// Local disk: sustained bandwidth (ns per byte). 50 MB/s ≈ 20 ns/B.
    pub disk_ns_per_byte: f64,
    /// Network: one-way message latency.
    pub net_latency_ns: u64,
    /// Network: sustained bandwidth (ns per byte). 250 MB/s ≈ 4 ns/B.
    pub net_ns_per_byte: f64,
    /// RAM-backed store bandwidth (ns per byte).
    pub ram_store_ns_per_byte: f64,
    /// Swap partition write bandwidth (ns per byte) — contiguous, slightly
    /// better than filesystem traffic.
    pub swap_ns_per_byte: f64,
    /// Hardware checkpoint support: per-line logging cost absorbed by the
    /// memory system (ReVive/SafetyNet); effectively free to software.
    pub hw_log_line_ns: u64,
}

impl CostModel {
    /// Parameters representative of the paper's era (2004–2005 commodity
    /// cluster node: ~2 GHz CPU, IDE/early-SATA disk, Quadrics/Myrinet-class
    /// interconnect).
    pub fn circa_2005() -> Self {
        CostModel {
            syscall_entry_ns: 150,
            syscall_exit_ns: 150,
            syscall_dispatch_ns: 100,
            context_switch_ns: 1_500,
            addr_space_switch_ns: 800,
            tlb_flush_ns: 500,
            tlb_refill_ns: 2_500,
            page_fault_trap_ns: 1_200,
            signal_deliver_ns: 2_500,
            mprotect_per_page_ns: 60,
            tick_overhead_ns: 800,
            tick_interval_ns: 10_000_000, // 100 Hz
            timeslice_ns: 50_000_000,     // 50 ms
            instr_ns: 1,
            native_step_ns: 40,
            memcpy_ns_per_byte: 0.67, // ~1.5 GB/s
            hash_ns_per_byte: 1.0,    // ~1 GB/s
            fork_base_ns: 60_000,
            fork_per_page_ns: 120,
            cow_fault_ns: 4_000,
            interpose_ns: 250,
            disk_latency_ns: 8_000_000, // 8 ms
            disk_ns_per_byte: 20.0,     // 50 MB/s
            net_latency_ns: 20_000,     // 20 us
            net_ns_per_byte: 4.0,       // 250 MB/s
            ram_store_ns_per_byte: 0.67,
            swap_ns_per_byte: 18.0,
            hw_log_line_ns: 0,
        }
    }

    /// A modern-hardware variant used as a sensitivity check: the paper's
    /// relative orderings should survive two decades of hardware scaling.
    pub fn modern() -> Self {
        CostModel {
            syscall_entry_ns: 60,
            syscall_exit_ns: 60,
            syscall_dispatch_ns: 40,
            context_switch_ns: 1_000,
            addr_space_switch_ns: 300,
            tlb_flush_ns: 200,
            tlb_refill_ns: 1_000,
            page_fault_trap_ns: 500,
            signal_deliver_ns: 1_000,
            mprotect_per_page_ns: 30,
            tick_overhead_ns: 300,
            tick_interval_ns: 4_000_000, // 250 Hz
            timeslice_ns: 20_000_000,
            instr_ns: 1,
            native_step_ns: 10,
            memcpy_ns_per_byte: 0.05, // ~20 GB/s
            hash_ns_per_byte: 0.1,
            fork_base_ns: 20_000,
            fork_per_page_ns: 40,
            cow_fault_ns: 1_500,
            interpose_ns: 80,
            disk_latency_ns: 100_000, // NVMe
            disk_ns_per_byte: 0.5,    // 2 GB/s
            net_latency_ns: 2_000,
            net_ns_per_byte: 0.08, // ~12 GB/s
            ram_store_ns_per_byte: 0.05,
            swap_ns_per_byte: 0.5,
            hw_log_line_ns: 0,
        }
    }

    /// Cost of copying `bytes` bytes of memory.
    pub fn memcpy(&self, bytes: u64) -> u64 {
        (bytes as f64 * self.memcpy_ns_per_byte).round() as u64
    }

    /// Cost of hashing `bytes` bytes.
    pub fn hash(&self, bytes: u64) -> u64 {
        (bytes as f64 * self.hash_ns_per_byte).round() as u64
    }

    /// One-way cost of a `bytes`-long frame on the interconnect: one
    /// network latency plus the bytes at wire rate.
    pub fn wire(&self, bytes: u64) -> u64 {
        self.net_latency_ns + (bytes as f64 * self.net_ns_per_byte).round() as u64
    }

    /// Full syscall round-trip cost excluding per-call work.
    pub fn syscall_round_trip(&self) -> u64 {
        self.syscall_entry_ns + self.syscall_dispatch_ns + self.syscall_exit_ns
    }

    /// Cost of an address-space switch including TLB effects.
    pub fn mm_switch(&self) -> u64 {
        self.addr_space_switch_ns + self.tlb_flush_ns + self.tlb_refill_ns
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::circa_2005()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn era_model_ratios_match_paper_arguments() {
        let c = CostModel::circa_2005();
        // A syscall round-trip must cost strictly more than zero and less
        // than a context switch (Lai & Baker ordering).
        assert!(c.syscall_round_trip() > 0);
        assert!(c.syscall_round_trip() < c.context_switch_ns + c.mm_switch());
        // Address-space switch with TLB effects dwarfs a bare context switch
        // increment — the paper's kernel-thread penalty.
        assert!(c.mm_switch() > c.addr_space_switch_ns);
        // Disk is slower than network per byte in this era (the remote
        // checkpointing feasibility point of [31]).
        assert!(c.disk_ns_per_byte > c.net_ns_per_byte);
    }

    #[test]
    fn rates_round_sanely() {
        let c = CostModel::circa_2005();
        assert_eq!(c.memcpy(0), 0);
        assert!(c.memcpy(PAGE_SIZE) > 2_000); // ~2.7 us
        assert!(c.hash(PAGE_SIZE) >= c.memcpy(PAGE_SIZE)); // hashing >= copy cost here
    }

    #[test]
    fn modern_model_is_uniformly_faster() {
        let old = CostModel::circa_2005();
        let new = CostModel::modern();
        assert!(new.syscall_round_trip() < old.syscall_round_trip());
        assert!(new.disk_ns_per_byte < old.disk_ns_per_byte);
        assert!(new.memcpy(1 << 20) < old.memcpy(1 << 20));
    }
}
