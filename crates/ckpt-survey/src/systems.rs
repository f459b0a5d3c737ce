//! The twelve surveyed systems as executable configurations of the
//! mechanism framework.
//!
//! [`SYSTEMS`] is the one table of them: each [`System`] row knows how to
//! *build a live instance* of itself against a kernel; the Table 1
//! feature row is then derived from the built mechanism's
//! [`MechanismInfo`](ckpt_core::mechanism::MechanismInfo) (Software Suspend's from
//! [`SoftwareSuspend::info`]) plus the system's storage column — i.e. the
//! table is regenerated from code, not transcribed.

use ckpt_core::mechanism::fork_concurrent::ForkConcurrentMechanism;
use ckpt_core::mechanism::hibernate::SoftwareSuspend;
use ckpt_core::mechanism::ksignal::KernelSignalMechanism;
use ckpt_core::mechanism::kthread::{KernelThreadMechanism, KthreadIface, KthreadVariant};
use ckpt_core::mechanism::syscall::{SyscallMechanism, SyscallVariant};
use ckpt_core::mechanism::{Initiation, Mechanism};
use ckpt_core::tracker::TrackerKind;
use ckpt_core::SharedStorage;

/// Builds a system's mechanism from (module name, job, storage).
type Ctor = fn(&str, &str, SharedStorage) -> Box<dyn Mechanism>;

/// One system of Table 1.
pub struct System {
    /// Table 1's display name.
    pub name: &'static str,
    /// The kernel-module / static-extension name the built mechanism uses.
    pub(crate) module: &'static str,
    /// Table 1's stable-storage column, as printed.
    pub(crate) storage: &'static str,
    /// One-line provenance note (paper section the config encodes).
    pub notes: &'static str,
    /// `None` for Software Suspend, which is whole-machine (see
    /// `ckpt_core::mechanism::hibernate`) and not a per-process mechanism.
    ctor: Option<Ctor>,
}

/// A kernel thread driven by ioctl, in the given variant.
fn kthread(
    module: &str,
    job: &str,
    storage: SharedStorage,
    variant: KthreadVariant,
) -> Box<dyn Mechanism> {
    let (tracker, iface) = (TrackerKind::FullOnly, KthreadIface::Ioctl);
    Box::new(KernelThreadMechanism::new(
        module, job, storage, tracker, iface, variant,
    ))
}

fn syscall(
    module: &str,
    job: &str,
    storage: SharedStorage,
    variant: SyscallVariant,
) -> Box<dyn Mechanism> {
    Box::new(SyscallMechanism::new(
        module,
        variant,
        job,
        storage,
        TrackerKind::FullOnly,
    ))
}

/// VMADump and BPROC: the process checkpoints itself through a new syscall.
fn self_syscall(module: &str, job: &str, storage: SharedStorage) -> Box<dyn Mechanism> {
    syscall(module, job, storage, SyscallVariant::SelfCkpt { every: 50 })
}

/// CRAK and ZAP: the default kernel thread.
fn crak(module: &str, job: &str, storage: SharedStorage) -> Box<dyn Mechanism> {
    kthread(module, job, storage, KthreadVariant::default())
}

/// BLCR, and LAM/MPI on top of it: a kernel thread the process registers
/// with first.
fn blcr(module: &str, job: &str, storage: SharedStorage) -> Box<dyn Mechanism> {
    let variant = KthreadVariant {
        needs_registration: true,
        ..Default::default()
    };
    kthread(module, job, storage, variant)
}

/// The twelve systems, in Table 1's order.
pub static SYSTEMS: [System; 12] = [
    System {
        name: "VMADump",
        module: "vmadump",
        storage: "local,remote",
        notes: "self-checkpoint via new syscall; `current` macro; BProc's dumper",
        ctor: Some(self_syscall),
    },
    System {
        name: "BPROC",
        module: "bproc",
        storage: "none",
        notes: "single-system-image process migration; VMADump underneath",
        ctor: Some(self_syscall),
    },
    System {
        name: "EPCKPT",
        module: "epckpt",
        storage: "local,remote",
        notes: "checkpoint-by-pid syscall + launch tool; new kernel signal",
        ctor: Some(|m, job, s| syscall(m, job, s, SyscallVariant::ByPid)),
    },
    System {
        name: "CRAK",
        module: "crak",
        storage: "local,remote",
        notes: "kernel thread, /dev device + ioctl, loadable module",
        ctor: Some(crak),
    },
    System {
        name: "UCLik",
        module: "uclik",
        storage: "local",
        notes: "CRAK lineage; restores original pid and file contents",
        ctor: Some(|m, job, s| {
            let variant = KthreadVariant {
                restore_original_pid: true,
                save_file_contents: true,
                ..Default::default()
            };
            kthread(m, job, s, variant)
        }),
    },
    System {
        name: "CHPOX",
        module: "chpox",
        storage: "local",
        notes: "new kernel signal (SIGSYS-style) + /proc registration; MOSIX-tested",
        ctor: Some(|m, job, s| {
            Box::new(KernelSignalMechanism::new(m, job, s, TrackerKind::FullOnly))
        }),
    },
    System {
        name: "ZAP",
        module: "zap",
        storage: "none",
        notes: "CRAK successor; pod virtualization for migration",
        ctor: Some(crak),
    },
    System {
        name: "BLCR",
        module: "blcr",
        storage: "local,remote",
        notes: "kernel thread + ioctl; registration phase (handler + shared lib)",
        ctor: Some(blcr),
    },
    System {
        name: "LAM/MPI",
        module: "lam_mpi",
        storage: "local,remote",
        notes: "BLCR under an MPI library with modified functions (coordinated)",
        ctor: Some(blcr),
    },
    System {
        name: "PsncR/C",
        module: "psnc_rc",
        storage: "local",
        notes: "SUN platform kernel thread via /proc+ioctl; no data optimization",
        ctor: Some(|m, job, s| {
            let variant = KthreadVariant {
                compress: false,
                ..Default::default()
            };
            let (tracker, iface) = (TrackerKind::FullOnly, KthreadIface::ProcWrite);
            Box::new(KernelThreadMechanism::new(
                m, job, s, tracker, iface, variant,
            ))
        }),
    },
    System {
        name: "Software Suspend",
        module: "swsusp",
        storage: "local",
        notes: "hibernate all processes to the swap partition; in mainline",
        ctor: None,
    },
    System {
        name: "Checkpoint",
        module: "checkpoint5",
        storage: "local",
        notes: "fork-based concurrent checkpointing via static syscalls",
        ctor: Some(|m, job, s| {
            let mut mech = ForkConcurrentMechanism::new(m, job, s);
            mech.invoked_by_app = true;
            mech.self_every = 50;
            Box::new(mech)
        }),
    },
];

/// Derived Table 1 row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableRow {
    pub name: &'static str,
    pub(crate) incremental: &'static str,
    pub(crate) transparency: &'static str,
    pub(crate) stable_storage: &'static str,
    pub(crate) initiation: &'static str,
    pub(crate) kernel_module: &'static str,
}

impl System {
    /// Build a live mechanism configured like this system; `None` for
    /// Software Suspend.
    pub(crate) fn build(&self, job: &str, storage: SharedStorage) -> Option<Box<dyn Mechanism>> {
        self.ctor.map(|ctor| ctor(self.module, job, storage))
    }

    /// Derive the Table 1 row from the *built* mechanism's metadata.
    pub(crate) fn table_row(&self) -> TableRow {
        let yn = |b: bool| if b { "yes" } else { "no" };
        let storage = ckpt_core::shared_storage(ckpt_storage::RamStore::new(1));
        let info = self
            .build("probe", storage)
            .map_or_else(SoftwareSuspend::info, |m| m.info());
        TableRow {
            name: self.name,
            incremental: yn(info.supports_incremental),
            transparency: yn(info.transparent),
            stable_storage: self.storage,
            initiation: match info.initiation {
                Initiation::Automatic => "automatic",
                Initiation::UserInitiated => "user",
            },
            kernel_module: yn(info.is_kernel_module),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ckpt_core::shared_storage;
    use ckpt_storage::LocalDisk;
    use simos::apps::{AppParams, NativeKind};
    use simos::cost::CostModel;
    use simos::Kernel;

    #[test]
    fn all_twelve_systems_have_descriptors() {
        for s in &SYSTEMS {
            assert!(!s.notes.is_empty(), "{}", s.name);
        }
    }

    #[test]
    fn every_buildable_system_checkpoints_or_is_automatic() {
        for s in &SYSTEMS {
            let name = s.name;
            let storage = shared_storage(LocalDisk::new(1 << 30));
            let Some(mut mech) = s.build("job", storage) else {
                continue;
            };
            let mut k = Kernel::new(CostModel::circa_2005());
            let mut params = AppParams::small();
            params.total_steps = u64::MAX;
            let pid = k.spawn_native(NativeKind::SparseRandom, params).unwrap();
            mech.prepare(&mut k, pid)
                .unwrap_or_else(|e| panic!("{name} prepare failed: {e}"));
            assert!(k.module_loaded(s.module), "{name} module not loaded");
            k.run_for(20_000_000).unwrap();
            match mech.info().initiation {
                Initiation::UserInitiated => {
                    let o = mech
                        .checkpoint(&mut k, pid)
                        .unwrap_or_else(|e| panic!("{name} checkpoint failed: {e}"));
                    assert!(o.pages_saved > 0, "{name} saved nothing");
                }
                Initiation::Automatic => {
                    // Must refuse external initiation...
                    assert!(mech.checkpoint(&mut k, pid).is_err(), "{name}");
                    // ...but produce checkpoints on its own.
                    k.run_for(1_000_000_000).unwrap();
                    assert!(
                        !mech.outcomes(&k).is_empty(),
                        "{name} never self-checkpointed"
                    );
                }
            }
        }
    }
}
