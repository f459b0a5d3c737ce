//! The chunk-manifest object format.
//!
//! A deduplicated image is stored under its image key as a *manifest*:
//! the recipe that rebuilds the object's bytes from content-addressed
//! chunks (optionally via an XOR+RLE delta against a base recipe). A
//! manifest is distinguishable from a raw image by its leading magic, and
//! carries its own checksum ([`digest64`]) so a torn manifest write decodes to a
//! typed failure, never to wrong bytes.

use ckpt_storage::digest64;

/// Leading magic of every manifest object: `"CKPTCAS1"`. Distinct from
/// `ckpt_image::IMAGE_MAGIC`, so the two object kinds can share a
/// namespace.
pub(crate) const MANIFEST_MAGIC: u64 = 0x434B_5054_4341_5331;

/// One chunk of a recipe: which content digest, how many bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ChunkRef {
    pub(crate) digest: u64,
    pub(crate) len: u32,
}

/// The chunked form of the delta base. Kept inline in the child manifest
/// so resolving a delta image never needs the base *manifest* object —
/// pruning may have deleted it; the base's chunks are protected by this
/// manifest's own references.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct BaseRecipe {
    pub(crate) len: u64,
    pub(crate) digest: u64,
    pub(crate) chunks: Vec<ChunkRef>,
}

/// How the payload chunks relate to the object bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Encoding {
    /// Chunks concatenate directly into the object.
    Raw,
    /// Chunks concatenate into an XOR+RLE delta stream; apply it to the
    /// base recipe's bytes to get the object.
    Delta(BaseRecipe),
}

/// A stored chunk manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Manifest {
    /// Final object length in bytes.
    pub(crate) object_len: u64,
    /// [`digest64`] of the final object bytes — verified after resolution.
    pub(crate) object_digest: u64,
    pub(crate) encoding: Encoding,
    /// Chunks of the payload (object bytes for `Raw`, delta stream for
    /// `Delta`), in order.
    pub(crate) chunks: Vec<ChunkRef>,
}

impl Manifest {
    /// Every chunk this manifest keeps alive: payload chunks plus, for a
    /// delta, the base's chunks.
    pub(crate) fn referenced_chunks(&self) -> Vec<ChunkRef> {
        let mut refs = self.chunks.clone();
        if let Encoding::Delta(base) = &self.encoding {
            refs.extend(base.chunks.iter().copied());
        }
        refs
    }
}

/// Why a manifest failed to decode. Torn writes land in `Truncated` or
/// `Checksum`; both are detection, not corruption.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ManifestError {
    Truncated,
    BadVersion(u32),
    Checksum,
}

/// Whether `bytes` carries the manifest magic (cheap dispatch before a
/// full decode).
pub(crate) fn is_manifest(bytes: &[u8]) -> bool {
    bytes.len() >= 8 && bytes[..8] == MANIFEST_MAGIC.to_be_bytes()
}

const VERSION: u32 = 1;

struct Writer(Vec<u8>);

impl Writer {
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn chunks(&mut self, refs: &[ChunkRef]) {
        self.u32(refs.len() as u32);
        for r in refs {
            self.u64(r.digest);
            self.u32(r.len);
        }
    }
}

struct Reader<'a> {
    data: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn u32(&mut self) -> Result<u32, ManifestError> {
        let end = self.at.checked_add(4).ok_or(ManifestError::Truncated)?;
        let b = self.data.get(self.at..end).ok_or(ManifestError::Truncated)?;
        self.at = end;
        Ok(u32::from_le_bytes(b.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, ManifestError> {
        let end = self.at.checked_add(8).ok_or(ManifestError::Truncated)?;
        let b = self.data.get(self.at..end).ok_or(ManifestError::Truncated)?;
        self.at = end;
        Ok(u64::from_le_bytes(b.try_into().unwrap()))
    }
    fn chunks(&mut self) -> Result<Vec<ChunkRef>, ManifestError> {
        let n = self.u32()? as usize;
        // A chunk ref is 12 encoded bytes; reject counts the input cannot
        // possibly hold before allocating.
        if n > self.data.len() / 12 + 1 {
            return Err(ManifestError::Truncated);
        }
        let mut refs = Vec::with_capacity(n);
        for _ in 0..n {
            let digest = self.u64()?;
            let len = self.u32()?;
            refs.push(ChunkRef { digest, len });
        }
        Ok(refs)
    }
}

/// Serialize a manifest (magic + version + body + checksum trailer).
pub(crate) fn encode(m: &Manifest) -> Vec<u8> {
    let mut w = Writer(Vec::with_capacity(64 + 12 * m.chunks.len()));
    w.0.extend_from_slice(&MANIFEST_MAGIC.to_be_bytes());
    w.u32(VERSION);
    w.u64(m.object_len);
    w.u64(m.object_digest);
    match &m.encoding {
        Encoding::Raw => w.u32(0),
        Encoding::Delta(base) => {
            w.u32(1);
            w.u64(base.len);
            w.u64(base.digest);
            w.chunks(&base.chunks);
        }
    }
    w.chunks(&m.chunks);
    let sum = digest64(&w.0);
    w.u64(sum);
    w.0
}

/// Decode a manifest. The caller should gate on [`is_manifest`] first;
/// bytes without the magic are `Truncated`.
pub(crate) fn decode(bytes: &[u8]) -> Result<Manifest, ManifestError> {
    if !is_manifest(bytes) || bytes.len() < 16 {
        return Err(ManifestError::Truncated);
    }
    let (body, trailer) = bytes.split_at(bytes.len() - 8);
    let sum = u64::from_le_bytes(trailer.try_into().unwrap());
    if digest64(body) != sum {
        return Err(ManifestError::Checksum);
    }
    let mut r = Reader { data: body, at: 8 };
    let version = r.u32()?;
    if version != VERSION {
        return Err(ManifestError::BadVersion(version));
    }
    let object_len = r.u64()?;
    let object_digest = r.u64()?;
    let encoding = match r.u32()? {
        0 => Encoding::Raw,
        1 => {
            let len = r.u64()?;
            let digest = r.u64()?;
            let chunks = r.chunks()?;
            Encoding::Delta(BaseRecipe { len, digest, chunks })
        }
        _ => return Err(ManifestError::Truncated),
    };
    let chunks = r.chunks()?;
    if r.at != body.len() {
        return Err(ManifestError::Truncated);
    }
    Ok(Manifest { object_len, object_digest, encoding, chunks })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(delta: bool) -> Manifest {
        Manifest {
            object_len: 12345,
            object_digest: 0xfeed_beef,
            encoding: if delta {
                Encoding::Delta(BaseRecipe {
                    len: 999,
                    digest: 0x1234,
                    chunks: vec![ChunkRef { digest: 7, len: 500 }, ChunkRef { digest: 8, len: 499 }],
                })
            } else {
                Encoding::Raw
            },
            chunks: vec![ChunkRef { digest: 1, len: 6000 }, ChunkRef { digest: 2, len: 6345 }],
        }
    }

    #[test]
    fn round_trips_raw_and_delta() {
        for delta in [false, true] {
            let m = sample(delta);
            let bytes = encode(&m);
            assert!(is_manifest(&bytes));
            assert_eq!(decode(&bytes).unwrap(), m);
        }
    }

    #[test]
    fn every_truncation_is_detected() {
        let bytes = encode(&sample(true));
        for cut in 0..bytes.len() {
            assert!(decode(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn bit_flips_fail_the_checksum() {
        let mut bytes = encode(&sample(false));
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        assert!(decode(&bytes).is_err());
    }

    #[test]
    fn raw_image_bytes_are_not_a_manifest() {
        assert!(!is_manifest(&ckpt_storage::StorageError::Unavailable.to_string().into_bytes()));
        assert!(!is_manifest(b"short"));
    }

    #[test]
    fn delta_manifest_references_base_chunks() {
        let m = sample(true);
        assert_eq!(m.referenced_chunks().len(), 4);
        assert_eq!(sample(false).referenced_chunks().len(), 2);
    }
}
