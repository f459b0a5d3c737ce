//! # simos — a deterministic user-space operating-system simulator
//!
//! `simos` is the substrate on which the checkpoint/restart mechanisms of
//! Sancho et al. (2005) are implemented and compared. It models the parts of
//! a 2005-era Linux kernel that the paper's taxonomy actually discriminates
//! on:
//!
//! * **Virtual memory** with 4 KiB pages, per-page protection, page-fault
//!   semantics, and write tracking at page or cache-line granularity
//!   ([`mem`]).
//! * **Processes** with registers, address space, file-descriptor tables and
//!   signal state ([`pcb`]).
//! * **Signals** with user handlers, kernel default actions, masking,
//!   pending queues, and delivery deferred to the next kernel→user
//!   transition ([`signal`]).
//! * **A scheduler** with `SCHED_OTHER` dynamic priorities and `SCHED_FIFO`
//!   real-time tasks, timeslices, and timer-tick preemption ([`sched`]).
//! * **Kernel threads** that borrow the page tables of the task they
//!   interrupt — so checkpointing from a kernel thread pays an address-space
//!   switch and a TLB flush exactly when the paper says it does
//!   ([`kthread`]).
//! * **A syscall layer** charging user/kernel protection-domain crossings
//!   from a calibrated cost model ([`syscall`], [`cost`]).
//! * **An in-memory filesystem** with regular files, `/dev` device nodes and
//!   `/proc` entries whose reads/writes/ioctls are dispatched to loadable
//!   kernel modules ([`fs`], [`module`]).
//! * **Guest programs**: a small register VM with an assembler ([`vm`],
//!   [`asm`]) and native "scientific kernel" applications whose entire state
//!   lives in guest memory ([`apps`]), so that restart correctness is
//!   checkable by comparing continued execution against an uninterrupted
//!   run.
//!
//! Everything is deterministic: virtual time is advanced only by charges
//! from the [`cost::CostModel`], and all collections iterate in a stable
//! order.
//!
//! ## Example
//!
//! ```
//! use simos::{Kernel, cost::CostModel};
//! use simos::apps::{AppParams, NativeKind};
//!
//! let mut k = Kernel::new(CostModel::circa_2005());
//! let pid = k
//!     .spawn_native(NativeKind::DenseSweep, AppParams::small())
//!     .expect("spawn");
//! k.run_until_exit(pid).expect("run");
//! assert!(k.process(pid).is_none() || k.process(pid).unwrap().has_exited());
//! ```

pub mod apps;
pub mod asm;
pub mod cost;
pub mod faultpoint;
pub mod fs;
pub mod kernel;
pub mod kthread;
pub mod mem;
pub mod module;
pub mod pcb;
pub mod relink;
pub mod sched;
pub mod signal;
pub mod stats;
pub mod syscall;
pub mod timer;
pub mod trace;
pub mod types;
pub mod userrt;
pub mod vm;

pub use kernel::Kernel;
pub use relink::Relink;
pub use types::{Fd, KtId, Pid, SimError, SimResult};
