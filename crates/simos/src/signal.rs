//! Signals: numbers, actions, pending sets, masks, and the reentrancy
//! hazard model.
//!
//! Two aspects matter for the paper's arguments:
//!
//! 1. **Delivery is deferred** to the next kernel→user transition in the
//!    context of the target process — so both the user-level signal scheme
//!    (Section 3) and the kernel-mode signal handler scheme (Section 4.1,
//!    CHPOX/Software Suspend) inherit unbounded delivery latency under load.
//! 2. **User handlers are not reentrancy-safe**: if a signal interrupts the
//!    process inside a non-reentrant C-library region (`malloc`/`free`) and
//!    the handler itself calls such functions, the real system may deadlock.
//!    We record these hazards ([`SignalState::hazards`]) instead of
//!    deadlocking, so experiments can count them.

use std::collections::VecDeque;

/// Signal numbers (the subset the simulator models).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Sig(pub u32);

impl Sig {
    pub(crate) const SIGILL: Sig = Sig(4);
    pub(crate) const SIGFPE: Sig = Sig(8);
    pub const SIGKILL: Sig = Sig(9);
    pub(crate) const SIGSEGV: Sig = Sig(11);
    pub const SIGALRM: Sig = Sig(14);
    pub const SIGTERM: Sig = Sig(15);
    pub(crate) const SIGCHLD: Sig = Sig(17);
    pub const SIGSTOP: Sig = Sig(19);
    pub const SIGCONT: Sig = Sig(18);
    pub const SIGUSR1: Sig = Sig(10);
    pub const SIGUSR2: Sig = Sig(12);
    pub(crate) const SIGSYS: Sig = Sig(31);
    /// The "new default kernel signal" several surveyed systems add
    /// (EPCKPT, CHPOX, Software Suspend). Its default action is a
    /// kernel-level checkpoint/freeze, installed by a kernel module.
    pub const SIGCKPT: Sig = Sig(33);
    /// Highest signal number we track in masks.
    pub const MAX: u32 = 64;

    pub fn bit(self) -> u64 {
        1u64 << (self.0 % 64)
    }
}

impl std::fmt::Display for Sig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match *self {
            Sig::SIGILL => "SIGILL",
            Sig::SIGFPE => "SIGFPE",
            Sig::SIGKILL => "SIGKILL",
            Sig::SIGSEGV => "SIGSEGV",
            Sig::SIGALRM => "SIGALRM",
            Sig::SIGTERM => "SIGTERM",
            Sig::SIGCHLD => "SIGCHLD",
            Sig::SIGSTOP => "SIGSTOP",
            Sig::SIGCONT => "SIGCONT",
            Sig::SIGUSR1 => "SIGUSR1",
            Sig::SIGUSR2 => "SIGUSR2",
            Sig::SIGSYS => "SIGSYS",
            Sig::SIGCKPT => "SIGCKPT",
            _ => return write!(f, "SIG{}", self.0),
        };
        f.write_str(name)
    }
}

/// What a user-level handler does when invoked. Guest VM programs install
/// `VmFunction` handlers (a code address); native guests install *runtime*
/// handlers — behaviours executed by the modelled user-level checkpoint
/// library (see `userrt`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UserHandlerKind {
    /// Jump to guest code at this address (VM programs).
    VmFunction(u64),
    /// The user-level checkpoint library's periodic-checkpoint handler
    /// (libckpt/Esky/Condor style).
    CkptLibCheckpoint,
    /// The user-level incremental-tracking SIGSEGV handler: record dirty
    /// page in a user-space bitmap, `mprotect` the page writable, return.
    DirtyTrackSegv,
    /// Handler that just counts invocations (test instrumentation).
    CountOnly,
}

/// Disposition of a signal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SigAction {
    /// The kernel's default action for this signal.
    Default,
    /// Ignore.
    Ignore,
    /// A user-level handler. `uses_non_reentrant` marks handlers that call
    /// async-signal-unsafe functions (e.g. `malloc`) — the hazard the paper
    /// warns about.
    Handler {
        kind: UserHandlerKind,
        uses_non_reentrant: bool,
    },
}

/// Default actions the kernel applies for `SigAction::Default`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DefaultAction {
    Terminate,
    Ignore,
    Stop,
}

/// The kernel's built-in default action table; modules may override
/// per-kernel (not per-process) defaults for new signals.
pub(crate) fn builtin_default_action(sig: Sig) -> DefaultAction {
    match sig {
        Sig::SIGCHLD | Sig::SIGCONT => DefaultAction::Ignore,
        Sig::SIGSTOP => DefaultAction::Stop,
        _ => DefaultAction::Terminate,
    }
}

/// A recorded reentrancy hazard: a handler that uses non-reentrant library
/// functions ran while the main program was itself inside a non-reentrant
/// region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReentrancyHazard {
    pub(crate) sig: Sig,
    pub(crate) at_ns: u64,
    pub(crate) detail: &'static str,
}

/// Per-process signal state.
#[derive(Debug, Clone)]
pub struct SignalState {
    actions: Vec<SigAction>, // indexed by signal number
    /// Signals queued for delivery, in arrival order.
    pub pending: VecDeque<Sig>,
    /// Blocked-signal mask (bit per signal).
    pub mask: u64,
    /// Depth of nested user-handler execution.
    pub in_handler: u32,
    /// Non-zero while the guest is (modelled as) inside a non-reentrant
    /// C-library region such as `malloc`.
    pub non_reentrant_depth: u32,
    /// Recorded hazards (see module docs).
    pub hazards: Vec<ReentrancyHazard>,
}

impl Default for SignalState {
    fn default() -> Self {
        Self::new()
    }
}

impl SignalState {
    pub fn new() -> Self {
        SignalState {
            actions: vec![SigAction::Default; Sig::MAX as usize + 1],
            pending: VecDeque::new(),
            mask: 0,
            in_handler: 0,
            non_reentrant_depth: 0,
            hazards: Vec::new(),
        }
    }

    /// Install a disposition (mirrors `sigaction`). SIGKILL/SIGSTOP cannot
    /// be caught or ignored.
    #[allow(clippy::result_unit_err)] // maps to a single errno at the syscall layer
    pub fn set_action(&mut self, sig: Sig, act: SigAction) -> Result<(), ()> {
        if sig == Sig::SIGKILL || sig == Sig::SIGSTOP {
            return Err(());
        }
        if sig.0 as usize >= self.actions.len() {
            return Err(());
        }
        self.actions[sig.0 as usize] = act;
        Ok(())
    }

    pub fn action(&self, sig: Sig) -> &SigAction {
        self.actions
            .get(sig.0 as usize)
            .unwrap_or(&SigAction::Default)
    }

    /// Queue a signal (mirrors the kernel marking a signal pending in the
    /// target's task structure). Duplicate standard signals coalesce.
    pub fn post(&mut self, sig: Sig) {
        if !self.pending.contains(&sig) {
            self.pending.push_back(sig);
        }
    }

    /// True if `sig` is blocked by the current mask.
    pub(crate) fn blocked(&self, sig: Sig) -> bool {
        if sig == Sig::SIGKILL || sig == Sig::SIGSTOP {
            return false; // unblockable
        }
        self.mask & sig.bit() != 0
    }

    /// Take the next deliverable (pending, unblocked) signal.
    pub(crate) fn take_deliverable(&mut self) -> Option<Sig> {
        let idx = self
            .pending
            .iter()
            .position(|s| !self.blocked(*s))?;
        self.pending.remove(idx)
    }

    /// The pending set as a bitmask (mirrors `sigpending`).
    pub fn pending_mask(&self) -> u64 {
        self.pending.iter().fold(0, |m, s| m | s.bit())
    }

    /// Record a hazard.
    pub(crate) fn note_hazard(&mut self, sig: Sig, at_ns: u64, detail: &'static str) {
        self.hazards.push(ReentrancyHazard { sig, at_ns, detail });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kill_and_stop_cannot_be_caught() {
        let mut s = SignalState::new();
        assert!(s.set_action(Sig::SIGKILL, SigAction::Ignore).is_err());
        assert!(s
            .set_action(
                Sig::SIGSTOP,
                SigAction::Handler {
                    kind: UserHandlerKind::CountOnly,
                    uses_non_reentrant: false
                }
            )
            .is_err());
        assert!(s.set_action(Sig::SIGUSR1, SigAction::Ignore).is_ok());
    }

    #[test]
    fn pending_signals_coalesce() {
        let mut s = SignalState::new();
        s.post(Sig::SIGUSR1);
        s.post(Sig::SIGUSR1);
        s.post(Sig::SIGUSR2);
        assert_eq!(s.pending.len(), 2);
    }

    #[test]
    fn mask_blocks_delivery_but_not_sigkill() {
        let mut s = SignalState::new();
        s.mask = Sig::SIGUSR1.bit() | Sig::SIGKILL.bit();
        s.post(Sig::SIGUSR1);
        assert_eq!(s.take_deliverable(), None);
        s.post(Sig::SIGKILL);
        assert_eq!(s.take_deliverable(), Some(Sig::SIGKILL));
        // SIGUSR1 still pending.
        assert_eq!(s.pending_mask() & Sig::SIGUSR1.bit(), Sig::SIGUSR1.bit());
        s.mask = 0;
        assert_eq!(s.take_deliverable(), Some(Sig::SIGUSR1));
    }

    #[test]
    fn delivery_is_fifo_among_unblocked() {
        let mut s = SignalState::new();
        s.post(Sig::SIGUSR2);
        s.post(Sig::SIGUSR1);
        assert_eq!(s.take_deliverable(), Some(Sig::SIGUSR2));
        assert_eq!(s.take_deliverable(), Some(Sig::SIGUSR1));
        assert_eq!(s.take_deliverable(), None);
    }

    #[test]
    fn default_actions() {
        assert_eq!(
            builtin_default_action(Sig::SIGTERM),
            DefaultAction::Terminate
        );
        assert_eq!(builtin_default_action(Sig::SIGCHLD), DefaultAction::Ignore);
        assert_eq!(builtin_default_action(Sig::SIGSTOP), DefaultAction::Stop);
    }

    #[test]
    fn pending_mask_reflects_queue() {
        let mut s = SignalState::new();
        s.post(Sig::SIGALRM);
        s.post(Sig::SIGCKPT);
        let m = s.pending_mask();
        assert_ne!(m & Sig::SIGALRM.bit(), 0);
        assert_ne!(m & Sig::SIGCKPT.bit(), 0);
        assert_eq!(m & Sig::SIGUSR1.bit(), 0);
    }

    #[test]
    fn hazards_are_recorded() {
        let mut s = SignalState::new();
        s.note_hazard(Sig::SIGALRM, 42, "malloc reentered");
        assert_eq!(s.hazards.len(), 1);
        assert_eq!(s.hazards[0].at_ns, 42);
    }

    #[test]
    fn sig_display() {
        assert_eq!(Sig::SIGCKPT.to_string(), "SIGCKPT");
        assert_eq!(Sig(40).to_string(), "SIG40");
    }
}
