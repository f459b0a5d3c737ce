//! The twelve surveyed systems as executable configurations of the
//! mechanism framework.
//!
//! Each [`SurveyedSystem`] knows how to *build a live instance* of itself
//! against a kernel; the Table 1 feature row is then derived from the
//! built mechanism's [`ckpt_core::mechanism::MechanismInfo`] plus the system's storage options —
//! i.e. the table is regenerated from code, not transcribed.

use ckpt_core::mechanism::fork_concurrent::ForkConcurrentMechanism;
use ckpt_core::mechanism::ksignal::KernelSignalMechanism;
use ckpt_core::mechanism::kthread::{KernelThreadMechanism, KthreadIface, KthreadVariant};
use ckpt_core::mechanism::syscall::{SyscallMechanism, SyscallVariant};
use ckpt_core::mechanism::{Initiation, Mechanism};
use ckpt_core::tracker::TrackerKind;
use ckpt_core::SharedStorage;

/// Storage options a system supports (the "stable storage" column).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StorageSupport {
    None,
    Local,
    LocalRemote,
}

impl StorageSupport {
    pub(crate) fn label(self) -> &'static str {
        match self {
            StorageSupport::None => "none",
            StorageSupport::Local => "local",
            StorageSupport::LocalRemote => "local,remote",
        }
    }
}

/// One system of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SystemId {
    VmaDump,
    Bproc,
    Epckpt,
    Crak,
    Uclik,
    Chpox,
    Zap,
    Blcr,
    LamMpi,
    PsncRc,
    SoftwareSuspend,
    Checkpoint,
}

impl SystemId {
    pub const ALL: [SystemId; 12] = [
        SystemId::VmaDump,
        SystemId::Bproc,
        SystemId::Epckpt,
        SystemId::Crak,
        SystemId::Uclik,
        SystemId::Chpox,
        SystemId::Zap,
        SystemId::Blcr,
        SystemId::LamMpi,
        SystemId::PsncRc,
        SystemId::SoftwareSuspend,
        SystemId::Checkpoint,
    ];

    /// Table 1's display name.
    pub fn display_name(self) -> &'static str {
        match self {
            SystemId::VmaDump => "VMADump",
            SystemId::Bproc => "BPROC",
            SystemId::Epckpt => "EPCKPT",
            SystemId::Crak => "CRAK",
            SystemId::Uclik => "UCLik",
            SystemId::Chpox => "CHPOX",
            SystemId::Zap => "ZAP",
            SystemId::Blcr => "BLCR",
            SystemId::LamMpi => "LAM/MPI",
            SystemId::PsncRc => "PsncR/C",
            SystemId::SoftwareSuspend => "Software Suspend",
            SystemId::Checkpoint => "Checkpoint",
        }
    }
}

/// A surveyed system: identity + storage support + mechanism factory.
pub struct SurveyedSystem {
    pub(crate) id: SystemId,
    pub(crate) storage_support: StorageSupport,
    /// One-line provenance note (paper section the config encodes).
    pub notes: &'static str,
}

impl SurveyedSystem {
    pub fn get(id: SystemId) -> Self {
        use SystemId::*;
        let (storage_support, notes) = match id {
            VmaDump => (
                StorageSupport::LocalRemote,
                "self-checkpoint via new syscall; `current` macro; BProc's dumper",
            ),
            Bproc => (
                StorageSupport::None,
                "single-system-image process migration; VMADump underneath",
            ),
            Epckpt => (
                StorageSupport::LocalRemote,
                "checkpoint-by-pid syscall + launch tool; new kernel signal",
            ),
            Crak => (
                StorageSupport::LocalRemote,
                "kernel thread, /dev device + ioctl, loadable module",
            ),
            Uclik => (
                StorageSupport::Local,
                "CRAK lineage; restores original pid and file contents",
            ),
            Chpox => (
                StorageSupport::Local,
                "new kernel signal (SIGSYS-style) + /proc registration; MOSIX-tested",
            ),
            Zap => (
                StorageSupport::None,
                "CRAK successor; pod virtualization for migration",
            ),
            Blcr => (
                StorageSupport::LocalRemote,
                "kernel thread + ioctl; registration phase (handler + shared lib)",
            ),
            LamMpi => (
                StorageSupport::LocalRemote,
                "BLCR under an MPI library with modified functions (coordinated)",
            ),
            PsncRc => (
                StorageSupport::Local,
                "SUN platform kernel thread via /proc+ioctl; no data optimization",
            ),
            SoftwareSuspend => (
                StorageSupport::Local,
                "hibernate all processes to the swap partition; in mainline",
            ),
            Checkpoint => (
                StorageSupport::Local,
                "fork-based concurrent checkpointing via static syscalls",
            ),
        };
        SurveyedSystem {
            id,
            storage_support,
            notes,
        }
    }

    /// Build a live mechanism configured like this system. Software
    /// Suspend is whole-machine (see `ckpt_core::mechanism::hibernate`)
    /// and returns `None` here.
    pub(crate) fn build(&self, job: &str, storage: SharedStorage) -> Option<Box<dyn Mechanism>> {
        use SystemId::*;
        let name = self.module_name();
        Some(match self.id {
            VmaDump => Box::new(SyscallMechanism::new(
                name,
                SyscallVariant::SelfCkpt { every: 50 },
                job,
                storage,
                TrackerKind::FullOnly,
            )),
            Bproc => Box::new(SyscallMechanism::new(
                name,
                SyscallVariant::SelfCkpt { every: 50 },
                job,
                storage,
                TrackerKind::FullOnly,
            )),
            Epckpt => Box::new(SyscallMechanism::new(
                name,
                SyscallVariant::ByPid,
                job,
                storage,
                TrackerKind::FullOnly,
            )),
            Crak => Box::new(KernelThreadMechanism::new(
                name,
                job,
                storage,
                TrackerKind::FullOnly,
                KthreadIface::Ioctl,
                KthreadVariant::default(),
            )),
            Uclik => Box::new(KernelThreadMechanism::new(
                name,
                job,
                storage,
                TrackerKind::FullOnly,
                KthreadIface::Ioctl,
                KthreadVariant {
                    restore_original_pid: true,
                    save_file_contents: true,
                    ..Default::default()
                },
            )),
            Chpox => Box::new(KernelSignalMechanism::new(
                name,
                job,
                storage,
                TrackerKind::FullOnly,
            )),
            Zap => Box::new(KernelThreadMechanism::new(
                name,
                job,
                storage,
                TrackerKind::FullOnly,
                KthreadIface::Ioctl,
                KthreadVariant::default(),
            )),
            Blcr => Box::new(KernelThreadMechanism::new(
                name,
                job,
                storage,
                TrackerKind::FullOnly,
                KthreadIface::Ioctl,
                KthreadVariant {
                    needs_registration: true,
                    ..Default::default()
                },
            )),
            LamMpi => Box::new(KernelThreadMechanism::new(
                name,
                job,
                storage,
                TrackerKind::FullOnly,
                KthreadIface::Ioctl,
                KthreadVariant {
                    needs_registration: true, // BLCR underneath
                    ..Default::default()
                },
            )),
            PsncRc => Box::new(KernelThreadMechanism::new(
                name,
                job,
                storage,
                TrackerKind::FullOnly,
                KthreadIface::ProcWrite,
                KthreadVariant {
                    compress: false,
                    ..Default::default()
                },
            )),
            SoftwareSuspend => return None,
            Checkpoint => {
                let mut m = ForkConcurrentMechanism::new(name, job, storage);
                m.invoked_by_app = true;
                m.self_every = 50;
                Box::new(m)
            }
        })
    }

    /// The kernel-module / static-extension name the built mechanism uses.
    pub(crate) fn module_name(&self) -> &'static str {
        use SystemId::*;
        match self.id {
            VmaDump => "vmadump",
            Bproc => "bproc",
            Epckpt => "epckpt",
            Crak => "crak",
            Uclik => "uclik",
            Chpox => "chpox",
            Zap => "zap",
            Blcr => "blcr",
            LamMpi => "lam_mpi",
            PsncRc => "psnc_rc",
            SoftwareSuspend => "swsusp",
            Checkpoint => "checkpoint5",
        }
    }
}

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

impl SurveyedSystem {
    /// Derive the Table 1 row from the *built* mechanism's metadata.
    pub(crate) fn table_row(&self) -> TableRow {
        let yn = |b: bool| if b { "yes" } else { "no" };
        // Software Suspend has no Mechanism impl (whole-machine); its
        // properties come from the hibernate module's nature: static
        // kernel, user-initiated script, full images, transparent.
        let (incremental, transparent, initiation, module) = match self.id {
            SystemId::SoftwareSuspend => (false, true, Initiation::UserInitiated, false),
            _ => {
                let storage = ckpt_core::shared_storage(ckpt_storage::RamStore::new(1));
                let m = self
                    .build("probe", storage)
                    .expect("non-swsusp systems build");
                let info = m.info();
                (
                    info.supports_incremental,
                    info.transparent,
                    info.initiation,
                    info.is_kernel_module,
                )
            }
        };
        TableRow {
            name: self.id.display_name(),
            incremental: yn(incremental),
            transparency: yn(transparent),
            stable_storage: self.storage_support.label(),
            initiation: match initiation {
                Initiation::Automatic => "automatic",
                Initiation::UserInitiated => "user",
            },
            kernel_module: yn(module),
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
        for id in SystemId::ALL {
            let s = SurveyedSystem::get(id);
            assert_eq!(s.id, id);
            assert!(!s.notes.is_empty());
        }
    }

    #[test]
    fn every_buildable_system_checkpoints_or_is_automatic() {
        for id in SystemId::ALL {
            if id == SystemId::SoftwareSuspend {
                continue;
            }
            let s = SurveyedSystem::get(id);
            let storage = shared_storage(LocalDisk::new(1 << 30));
            let mut mech = s.build("job", storage).unwrap();
            let mut k = Kernel::new(CostModel::circa_2005());
            let mut params = AppParams::small();
            params.total_steps = u64::MAX;
            let pid = k.spawn_native(NativeKind::SparseRandom, params).unwrap();
            mech.prepare(&mut k, pid)
                .unwrap_or_else(|e| panic!("{id:?} prepare failed: {e}"));
            k.run_for(20_000_000).unwrap();
            match mech.info().initiation {
                Initiation::UserInitiated => {
                    let o = mech
                        .checkpoint(&mut k, pid)
                        .unwrap_or_else(|e| panic!("{id:?} checkpoint failed: {e}"));
                    assert!(o.pages_saved > 0, "{id:?} saved nothing");
                }
                Initiation::Automatic => {
                    // Must refuse external initiation...
                    assert!(mech.checkpoint(&mut k, pid).is_err(), "{id:?}");
                    // ...but produce checkpoints on its own.
                    k.run_for(1_000_000_000).unwrap();
                    assert!(
                        !mech.outcomes(&k).is_empty(),
                        "{id:?} never self-checkpointed"
                    );
                }
            }
        }
    }

    #[test]
    fn storage_support_labels() {
        assert_eq!(StorageSupport::None.label(), "none");
        assert_eq!(StorageSupport::Local.label(), "local");
        assert_eq!(StorageSupport::LocalRemote.label(), "local,remote");
    }
}
