//! Typed object keys for the stable-storage namespace.
//!
//! Three kinds of object share one key space: checkpoint images
//! (`job/pid<pid>/seq<seq:08>`), content-addressed chunks
//! (`cas/<digest:016x>`), and free-form auxiliary objects. Earlier
//! revisions passed all of them around as ad-hoc strings built by
//! a (since removed) `image_key()` helper and parsed by hand at every
//! consumer; [`ImageKey`] and
//! [`ObjectKey`] replace that with one typed namespace that round-trips
//! through `Display`/`FromStr` and orders images by `(job, pid, seq)` —
//! so lexicographic order of the rendered key equals numeric order of
//! the sequence, which the chain loader and pruner rely on.

use std::fmt;
use std::str::FromStr;

/// A checkpoint image's identity: which job, which process, which link
/// of the incremental chain.
///
/// Renders as `{job}/pid{pid}/seq{seq:08}`; the zero-padded sequence
/// keeps string sort equal to numeric sort for all `seq < 10^8`. The
/// derived `Ord` compares `(job, pid, seq)`, so images of one lineage
/// order by sequence.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ImageKey {
    pub job: String,
    pub pid: u32,
    pub seq: u64,
}

impl ImageKey {
    pub fn new(job: impl Into<String>, pid: u32, seq: u64) -> Self {
        ImageKey { job: job.into(), pid, seq }
    }

    /// The key prefix shared by every image of this `(job, pid)` lineage;
    /// `key.starts_with(&lineage_prefix(..))` selects one chain.
    pub fn lineage_prefix(job: &str, pid: u32) -> String {
        format!("{job}/pid{pid}/")
    }

    /// This image's lineage prefix.
    pub fn lineage(&self) -> String {
        Self::lineage_prefix(&self.job, self.pid)
    }
}

impl fmt::Display for ImageKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/pid{}/seq{:08}", self.job, self.pid, self.seq)
    }
}

/// Why a string failed to parse as an [`ImageKey`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseKeyError {
    pub key: String,
    pub what: &'static str,
}

impl fmt::Display for ParseKeyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad image key {:?}: {}", self.key, self.what)
    }
}

impl std::error::Error for ParseKeyError {}

impl FromStr for ImageKey {
    type Err = ParseKeyError;

    /// Parses from the right so job names may themselves contain `/`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = |what| ParseKeyError { key: s.to_string(), what };
        let (rest, seq_part) = s.rsplit_once('/').ok_or_else(|| err("missing seq segment"))?;
        let seq_digits = seq_part.strip_prefix("seq").ok_or_else(|| err("missing seq segment"))?;
        if seq_digits.is_empty() || !seq_digits.bytes().all(|b| b.is_ascii_digit()) {
            return Err(err("non-numeric seq"));
        }
        let seq: u64 = seq_digits.parse().map_err(|_| err("seq out of range"))?;
        let (job, pid_part) = rest.rsplit_once('/').ok_or_else(|| err("missing pid segment"))?;
        let pid_digits = pid_part.strip_prefix("pid").ok_or_else(|| err("missing pid segment"))?;
        if pid_digits.is_empty() || !pid_digits.bytes().all(|b| b.is_ascii_digit()) {
            return Err(err("non-numeric pid"));
        }
        let pid: u32 = pid_digits.parse().map_err(|_| err("pid out of range"))?;
        if job.is_empty() {
            return Err(err("empty job"));
        }
        Ok(ImageKey { job: job.to_string(), pid, seq })
    }
}

/// Any object the stable-storage layer can hold.
///
/// `ObjectKey::parse` is total: a string that is neither a well-formed
/// image key nor a chunk key is an [`ObjectKey::Other`], so existing
/// free-form keys (`"c12/img"`, scratch objects) keep working.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ObjectKey {
    /// A checkpoint image (raw bytes or a chunk manifest).
    Image(ImageKey),
    /// A content-addressed chunk, keyed by its content digest
    /// ([`digest64`](crate::digest64)):
    /// `cas/{digest:016x}`.
    Chunk { digest: u64 },
    /// Anything else.
    Other(String),
}

impl ObjectKey {
    pub fn image(job: impl Into<String>, pid: u32, seq: u64) -> Self {
        ObjectKey::Image(ImageKey::new(job, pid, seq))
    }

    pub fn chunk(digest: u64) -> Self {
        ObjectKey::Chunk { digest }
    }

    /// Total parse (never fails): chunk keys and image keys are
    /// recognized, everything else is `Other`.
    pub fn parse(s: &str) -> Self {
        if let Some(hex) = s.strip_prefix("cas/") {
            if hex.len() == 16 && hex.bytes().all(|b| b.is_ascii_hexdigit()) {
                if let Ok(digest) = u64::from_str_radix(hex, 16) {
                    return ObjectKey::Chunk { digest };
                }
            }
        }
        match s.parse::<ImageKey>() {
            Ok(ik) => ObjectKey::Image(ik),
            Err(_) => ObjectKey::Other(s.to_string()),
        }
    }

    pub fn as_image(&self) -> Option<&ImageKey> {
        match self {
            ObjectKey::Image(ik) => Some(ik),
            _ => None,
        }
    }
}

impl fmt::Display for ObjectKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObjectKey::Image(ik) => ik.fmt(f),
            ObjectKey::Chunk { digest } => write!(f, "cas/{digest:016x}"),
            ObjectKey::Other(s) => f.write_str(s),
        }
    }
}

impl FromStr for ObjectKey {
    type Err = std::convert::Infallible;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Ok(ObjectKey::parse(s))
    }
}

impl From<ImageKey> for ObjectKey {
    fn from(ik: ImageKey) -> Self {
        ObjectKey::Image(ik)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn image_key_round_trips() {
        let k = ImageKey::new("bench/app", 7, 42);
        let s = k.to_string();
        assert_eq!(s, "bench/app/pid7/seq00000042");
        assert_eq!(s.parse::<ImageKey>().unwrap(), k);
    }

    #[test]
    fn stringly_image_key_shim_is_removed() {
        // PR 6 left a deprecated `backend::image_key(job, pid, seq) ->
        // String` shim for stragglers; every caller now builds typed keys,
        // so the shim is gone. This test documents the removal: the typed
        // constructor renders the exact string the shim used to return, so
        // any out-of-tree caller migrates by swapping the call site —
        // `image_key(j, p, s)` becomes `ImageKey::new(j, p, s).to_string()`
        // — with zero change to what lands on the storage medium.
        assert_eq!(
            ImageKey::new("job", 3, 1).to_string(),
            "job/pid3/seq00000001",
            "the shim's rendering is preserved by the typed path"
        );
    }

    #[test]
    fn image_key_rejects_garbage() {
        assert!("".parse::<ImageKey>().is_err());
        assert!("job/pid3".parse::<ImageKey>().is_err());
        assert!("job/pid3/seq".parse::<ImageKey>().is_err());
        assert!("job/pidX/seq00000001".parse::<ImageKey>().is_err());
        assert!("job/pid3/seqabc".parse::<ImageKey>().is_err());
        assert!("/pid3/seq00000001".parse::<ImageKey>().is_err());
    }

    #[test]
    fn object_key_classifies() {
        assert_eq!(
            ObjectKey::parse("cas/00000000deadbeef"),
            ObjectKey::Chunk { digest: 0xdead_beef }
        );
        assert!(matches!(ObjectKey::parse("job/pid1/seq00000003"), ObjectKey::Image(_)));
        assert!(matches!(ObjectKey::parse("c12/img"), ObjectKey::Other(_)));
        // A malformed chunk key falls through to Other, not a panic.
        assert!(matches!(ObjectKey::parse("cas/nothex"), ObjectKey::Other(_)));
    }

    #[test]
    fn chunk_key_round_trips() {
        let k = ObjectKey::chunk(0x0123_4567_89ab_cdef);
        assert_eq!(k.to_string(), "cas/0123456789abcdef");
        assert_eq!(ObjectKey::parse(&k.to_string()), k);
    }
}
