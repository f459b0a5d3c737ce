//! ZAP-style pod virtualization.
//!
//! Migrating a checkpoint to another machine trips over "resource
//! consistency, resource conflicts, and resource dependencies" (Section 3):
//! the original pid may be taken, file paths may collide with another
//! job's, and the process may believe facts about the old node. ZAP \[24\]
//! solves this with a *pod* — a private virtual namespace whose resources
//! are translated to physical ones by intercepting system calls, at a
//! run-time cost.
//!
//! A [`Pod`] here does exactly that for the resources the simulator models:
//!
//! * **pids** — the restored process gets any free physical pid; the pod
//!   records the virtual→physical mapping so the process's original pid
//!   remains meaningful inside the pod;
//! * **file paths** — every path in the image is re-rooted under
//!   `/pods/<name>/...`, so two restored jobs with the same `/tmp/out`
//!   cannot clobber each other;
//! * **the interposition tax** — the restored process runs with the
//!   `LD_PRELOAD`-style interposition flag set, paying ZAP's per-syscall
//!   overhead for the rest of its life (the cost the paper points out).

use crate::capture::{restore_image, RestoreOptions, RestorePid};
use ckpt_image::CheckpointImage;
use simos::types::{Pid, SimResult};
use simos::Kernel;
use std::collections::BTreeMap;

/// A virtual-namespace container for restored processes.
#[derive(Debug, Clone)]
pub struct Pod {
    name: String,
    /// virtual (original) pid → physical pid on this kernel.
    pid_map: BTreeMap<u32, u32>,
}

impl Pod {
    pub fn new(name: &str) -> Self {
        Pod {
            name: name.to_string(),
            pid_map: BTreeMap::new(),
        }
    }

    /// Re-root a path into the pod's namespace.
    pub(crate) fn translate_path(&self, path: &str) -> String {
        format!("/pods/{}{}", self.name, path)
    }

    /// Physical pid for a virtual (original) pid.
    pub fn physical(&self, virt: u32) -> Option<Pid> {
        self.pid_map.get(&virt).map(|p| Pid(*p))
    }

    /// Virtual pid for a physical pid.
    pub fn virtual_of(&self, phys: Pid) -> Option<u32> {
        self.pid_map
            .iter()
            .find(|(_, p)| **p == phys.0)
            .map(|(v, _)| *v)
    }

    fn mkdir_all(k: &mut Kernel, path: &str) {
        let mut cur = String::new();
        for comp in path.split('/').filter(|c| !c.is_empty()) {
            cur.push('/');
            cur.push_str(comp);
            let _ = k.fs.mkdir(&cur);
        }
    }

    /// Restore an image *into* this pod on `k`: paths re-rooted, pid
    /// virtualized, interposition enabled. Succeeds even when the original
    /// pid is taken and the original paths exist — the conflicts a bare
    /// restore fails on.
    pub fn restore(&mut self, k: &mut Kernel, img: &CheckpointImage) -> SimResult<Pid> {
        let mut podded = img.clone();
        for fd in &mut podded.fds {
            fd.path = self.translate_path(&fd.path);
        }
        for f in &mut podded.files {
            f.path = self.translate_path(&f.path);
        }
        // Create the namespace directories (pod root + parents of every
        // translated path).
        Pod::mkdir_all(k, &format!("/pods/{}", self.name));
        let parents: Vec<String> = podded
            .fds
            .iter()
            .map(|f| f.path.clone())
            .chain(podded.files.iter().map(|f| f.path.clone()))
            .filter_map(|p| p.rfind('/').map(|i| p[..i].to_string()))
            .collect();
        for parent in parents {
            Pod::mkdir_all(k, &parent);
        }
        let phys = restore_image(
            k,
            &podded,
            &RestoreOptions {
                pid: RestorePid::Fresh,
                run: true,
            },
        )?;
        // ZAP's virtualization layer: every subsequent interposable
        // syscall pays the interception tax.
        if let Some(p) = k.process_mut(phys) {
            p.user_rt.interpose_active = true;
        }
        self.pid_map.insert(img.header.pid, phys.0);
        Ok(phys)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capture::{capture_image, CaptureOptions};
    use simos::apps::{AppParams, NativeKind};
    use simos::cost::CostModel;
    use simos::fs::OpenFlags;
    use simos::syscall::Syscall;

    fn checkpoint_with_file() -> (Kernel, CheckpointImage) {
        let mut k = Kernel::new(CostModel::circa_2005());
        let mut params = AppParams::small();
        params.total_steps = u64::MAX;
        let pid = k.spawn_native(NativeKind::SparseRandom, params).unwrap();
        k.run_for(5_000_000).unwrap();
        k.do_syscall(
            pid,
            Syscall::Open {
                path: "/tmp/out".into(),
                flags: OpenFlags::RDWR_CREATE,
            },
        )
        .unwrap();
        k.freeze_process(pid).unwrap();
        let mut opts = CaptureOptions::full("zap", 1);
        opts.save_file_contents = true;
        let img = capture_image(&mut k, pid, &opts).unwrap();
        (k, img)
    }

    #[test]
    fn pod_restore_survives_pid_and_path_conflicts() {
        let (mut k, img) = checkpoint_with_file();
        // The original pid still exists on this kernel AND /tmp/out exists:
        // a bare same-pid restore fails, a pod restore succeeds.
        let bare = restore_image(
            &mut k,
            &img,
            &RestoreOptions {
                pid: RestorePid::Original,
                run: true,
            },
        );
        assert!(bare.is_err(), "bare restore should hit the pid conflict");
        let mut pod = Pod::new("j2");
        let phys = pod.restore(&mut k, &img).unwrap();
        assert_ne!(phys.0, img.header.pid);
        assert_eq!(pod.physical(img.header.pid), Some(phys));
        assert_eq!(pod.virtual_of(phys), Some(img.header.pid));
        // The pod process writes to its own namespace, not the original's.
        assert!(k.fs.exists("/pods/j2/tmp/out"));
        // The restored process runs.
        let w0 = k.process(phys).unwrap().work_done;
        k.run_for(20_000_000).unwrap();
        assert!(k.process(phys).unwrap().work_done > w0);
    }

    #[test]
    fn pod_processes_pay_the_interposition_tax() {
        let (mut k, img) = checkpoint_with_file();
        let mut pod = Pod::new("p");
        let phys = pod.restore(&mut k, &img).unwrap();
        assert!(k.process(phys).unwrap().user_rt.interpose_active);
        let before = k.stats.interposed_syscalls;
        k.do_syscall(
            phys,
            Syscall::Open {
                path: "/tmp/x".into(),
                flags: OpenFlags::WRONLY_CREATE,
            },
        )
        .unwrap();
        assert_eq!(k.stats.interposed_syscalls, before + 1);
    }

    #[test]
    fn two_pods_do_not_clobber_each_other() {
        let (mut k, img) = checkpoint_with_file();
        let mut pod_a = Pod::new("a");
        let mut pod_b = Pod::new("b");
        let pa = pod_a.restore(&mut k, &img).unwrap();
        let pb = pod_b.restore(&mut k, &img).unwrap();
        assert_ne!(pa, pb);
        assert!(k.fs.exists("/pods/a/tmp/out"));
        assert!(k.fs.exists("/pods/b/tmp/out"));
        // Writing through pod A's fd does not touch pod B's file.
        k.mem_write(pa, simos::apps::ARRAY_BASE, b"AAAA").unwrap();
        k.do_syscall(
            pa,
            Syscall::Write {
                fd: simos::types::Fd(img.fds[0].fd),
                buf: simos::apps::ARRAY_BASE,
                len: 4,
            },
        )
        .unwrap();
        assert_eq!(k.fs.read_file("/pods/a/tmp/out").unwrap(), b"AAAA");
        assert_ne!(k.fs.read_file("/pods/b/tmp/out").unwrap(), b"AAAA");
    }

    #[test]
    fn path_translation_is_prefixing() {
        let pod = Pod::new("x");
        assert_eq!(pod.translate_path("/tmp/f"), "/pods/x/tmp/f");
    }
}
