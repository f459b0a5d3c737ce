//! A small in-memory filesystem with regular files, `/dev` device nodes and
//! `/proc` pseudo-entries.
//!
//! Device nodes and proc entries carry the name of the kernel module that
//! services them; the kernel dispatches `read`/`write`/`ioctl` on such files
//! to the module (see [`crate::module`]). This is how the surveyed
//! kernel-thread checkpointers expose their interfaces: CRAK/BLCR use a
//! device file in `/dev` with `ioctl`, CHPOX/PsncR/C use `/proc` entries
//! (Section 4.1).

use std::collections::BTreeMap;

/// Largest regular file the filesystem holds. File contents are host
/// memory and a write's end offset is the guest's to choose (`lseek` takes
/// any position), so [`SimFs::write_at`] checks the end against this before
/// it sizes anything.
pub const MAX_FILE_BYTES: u64 = 1 << 30;

/// A node in the filesystem tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsNode {
    Dir,
    File { data: Vec<u8> },
    /// A character device serviced by a kernel module.
    Device { module: String, minor: u32 },
    /// A `/proc` pseudo-file serviced by a kernel module.
    Proc { module: String, tag: String },
}

/// Open flags (subset).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpenFlags {
    pub read: bool,
    pub write: bool,
    pub create: bool,
    pub truncate: bool,
    pub append: bool,
}

impl OpenFlags {
    pub const RDONLY: OpenFlags = OpenFlags {
        read: true,
        write: false,
        create: false,
        truncate: false,
        append: false,
    };
    pub const WRONLY_CREATE: OpenFlags = OpenFlags {
        read: false,
        write: true,
        create: true,
        truncate: true,
        append: false,
    };
    pub const RDWR: OpenFlags = OpenFlags {
        read: true,
        write: true,
        create: false,
        truncate: false,
        append: false,
    };
    pub const RDWR_CREATE: OpenFlags = OpenFlags {
        read: true,
        write: true,
        create: true,
        truncate: false,
        append: false,
    };
}

/// The in-memory filesystem.
#[derive(Debug, Clone, Default)]
pub struct SimFs {
    nodes: BTreeMap<String, FsNode>,
}

fn normalize(path: &str) -> String {
    let mut out = String::from("/");
    for comp in path.split('/').filter(|c| !c.is_empty() && *c != ".") {
        if !out.ends_with('/') {
            out.push('/');
        }
        out.push_str(comp);
    }
    out
}

fn parent_of(path: &str) -> Option<String> {
    let p = path.rfind('/')?;
    if p == 0 {
        Some("/".to_string())
    } else {
        Some(path[..p].to_string())
    }
}

impl SimFs {
    /// A filesystem pre-populated with `/`, `/dev`, `/proc`, `/tmp`,
    /// `/ckpt`.
    pub(crate) fn new() -> Self {
        let mut fs = SimFs {
            nodes: BTreeMap::new(),
        };
        for d in ["/", "/dev", "/proc", "/tmp", "/ckpt"] {
            fs.nodes.insert(d.to_string(), FsNode::Dir);
        }
        fs
    }

    /// Look up a node.
    pub fn get(&self, path: &str) -> Option<&FsNode> {
        self.nodes.get(&normalize(path))
    }

    pub(crate) fn get_mut(&mut self, path: &str) -> Option<&mut FsNode> {
        self.nodes.get_mut(&normalize(path))
    }

    pub fn exists(&self, path: &str) -> bool {
        self.get(path).is_some()
    }

    /// Create a directory (parents must exist).
    pub fn mkdir(&mut self, path: &str) -> Result<(), FsError> {
        self.create_new(path, FsNode::Dir)
    }

    /// Insert `node` at `path`, whose parent must be a directory and
    /// which must not exist yet.
    fn create_new(&mut self, path: &str, node: FsNode) -> Result<(), FsError> {
        let path = normalize(path);
        self.check_parent(&path)?;
        if self.nodes.contains_key(&path) {
            return Err(FsError::Exists);
        }
        self.nodes.insert(path, node);
        Ok(())
    }

    fn check_parent(&self, path: &str) -> Result<(), FsError> {
        match parent_of(path) {
            Some(p) => match self.nodes.get(&p) {
                Some(FsNode::Dir) => Ok(()),
                Some(_) => Err(FsError::NotADirectory),
                None => Err(FsError::NotFound),
            },
            None => Err(FsError::NotFound),
        }
    }

    /// Create (or truncate) a regular file.
    pub fn create_file(&mut self, path: &str) -> Result<(), FsError> {
        let path = normalize(path);
        self.check_parent(&path)?;
        match self.nodes.get(&path) {
            Some(FsNode::Dir) => return Err(FsError::IsADirectory),
            Some(FsNode::Device { .. }) | Some(FsNode::Proc { .. }) => {
                return Err(FsError::Exists)
            }
            _ => {}
        }
        self.nodes.insert(path, FsNode::File { data: Vec::new() });
        Ok(())
    }

    /// Register a device node (done by kernel modules at load time).
    pub fn register_device(&mut self, path: &str, module: &str, minor: u32) -> Result<(), FsError> {
        let module = module.to_string();
        self.create_new(path, FsNode::Device { module, minor })
    }

    /// Register a `/proc` entry.
    pub fn register_proc(&mut self, path: &str, module: &str, tag: &str) -> Result<(), FsError> {
        let (module, tag) = (module.to_string(), tag.to_string());
        self.create_new(path, FsNode::Proc { module, tag })
    }

    /// Remove a node (files, devices, proc entries — not non-empty dirs).
    pub fn unlink(&mut self, path: &str) -> Result<(), FsError> {
        let path = normalize(path);
        match self.nodes.get(&path) {
            None => Err(FsError::NotFound),
            Some(FsNode::Dir) => {
                let prefix = if path == "/" {
                    path.clone()
                } else {
                    format!("{path}/")
                };
                if self.nodes.keys().any(|k| k.starts_with(&prefix)) {
                    Err(FsError::NotEmpty)
                } else {
                    self.nodes.remove(&path);
                    Ok(())
                }
            }
            Some(_) => {
                self.nodes.remove(&path);
                Ok(())
            }
        }
    }

    /// Write to a regular file at an offset (extending as needed). Returns
    /// bytes written. A write that would end past [`MAX_FILE_BYTES`] is
    /// refused with the file untouched.
    pub fn write_at(&mut self, path: &str, offset: u64, data: &[u8]) -> Result<usize, FsError> {
        match self.get_mut(path) {
            Some(FsNode::File { data: content }) => {
                let end = offset
                    .checked_add(data.len() as u64)
                    .filter(|&end| end <= MAX_FILE_BYTES)
                    .ok_or(FsError::TooLarge)? as usize;
                if content.len() < end {
                    content.resize(end, 0);
                }
                content[offset as usize..end].copy_from_slice(data);
                Ok(data.len())
            }
            Some(_) => Err(FsError::NotAFile),
            None => Err(FsError::NotFound),
        }
    }

    /// Size of a regular file.
    pub fn file_len(&self, path: &str) -> Result<u64, FsError> {
        match self.get(path) {
            Some(FsNode::File { data }) => Ok(data.len() as u64),
            Some(_) => Err(FsError::NotAFile),
            None => Err(FsError::NotFound),
        }
    }

    /// Entire contents of a regular file.
    pub fn read_file(&self, path: &str) -> Result<&[u8], FsError> {
        match self.get(path) {
            Some(FsNode::File { data }) => Ok(data),
            Some(_) => Err(FsError::NotAFile),
            None => Err(FsError::NotFound),
        }
    }
}

/// Filesystem-level errors (mapped to errnos by the syscall layer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsError {
    NotFound,
    Exists,
    NotADirectory,
    IsADirectory,
    NotAFile,
    NotEmpty,
    /// A write would end past [`MAX_FILE_BYTES`].
    TooLarge,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_paths() {
        assert_eq!(normalize("/a//b/./c"), "/a/b/c");
        assert_eq!(normalize("a/b"), "/a/b");
        assert_eq!(normalize("/"), "/");
    }

    #[test]
    fn create_write_read_round_trip() {
        let mut fs = SimFs::new();
        fs.create_file("/tmp/x").unwrap();
        fs.write_at("/tmp/x", 0, b"abcdef").unwrap();
        assert_eq!(fs.read_file("/tmp/x").unwrap(), b"abcdef");
        // Overwrite in the middle.
        fs.write_at("/tmp/x", 3, b"DE").unwrap();
        assert_eq!(fs.read_file("/tmp/x").unwrap(), b"abcDEf");
    }

    #[test]
    fn write_extends_with_zero_fill() {
        let mut fs = SimFs::new();
        fs.create_file("/tmp/x").unwrap();
        fs.write_at("/tmp/x", 4, b"zz").unwrap();
        assert_eq!(fs.file_len("/tmp/x").unwrap(), 6);
        assert_eq!(fs.read_file("/tmp/x").unwrap(), &[0, 0, 0, 0, b'z', b'z']);
    }

    #[test]
    fn missing_parent_rejected() {
        let mut fs = SimFs::new();
        assert_eq!(fs.create_file("/nodir/x"), Err(FsError::NotFound));
        fs.mkdir("/nodir").unwrap();
        assert!(fs.create_file("/nodir/x").is_ok());
    }

    #[test]
    fn device_and_proc_registration() {
        let mut fs = SimFs::new();
        fs.register_device("/dev/crak", "crak", 0).unwrap();
        fs.register_proc("/proc/chpox", "chpox", "register").unwrap();
        assert!(matches!(fs.get("/dev/crak"), Some(FsNode::Device { .. })));
        assert!(matches!(fs.get("/proc/chpox"), Some(FsNode::Proc { .. })));
        // Double registration fails.
        assert_eq!(
            fs.register_device("/dev/crak", "crak", 0),
            Err(FsError::Exists)
        );
        // Reading a device through the regular path is an error here; the
        // kernel must dispatch to the module instead.
        assert_eq!(fs.read_file("/dev/crak"), Err(FsError::NotAFile));
    }

    #[test]
    fn unlink_semantics() {
        let mut fs = SimFs::new();
        fs.create_file("/tmp/x").unwrap();
        fs.unlink("/tmp/x").unwrap();
        assert!(!fs.exists("/tmp/x"));
        assert_eq!(fs.unlink("/tmp/x"), Err(FsError::NotFound));
        // Non-empty dir refuses.
        fs.create_file("/tmp/y").unwrap();
        assert_eq!(fs.unlink("/tmp"), Err(FsError::NotEmpty));
        fs.unlink("/tmp/y").unwrap();
        assert!(fs.unlink("/tmp").is_ok());
    }

    #[test]
    fn truncating_create_resets_content() {
        let mut fs = SimFs::new();
        fs.create_file("/tmp/x").unwrap();
        fs.write_at("/tmp/x", 0, b"data").unwrap();
        fs.create_file("/tmp/x").unwrap();
        assert_eq!(fs.file_len("/tmp/x").unwrap(), 0);
    }
}
