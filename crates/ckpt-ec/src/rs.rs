//! Systematic Reed-Solomon codes over GF(256).
//!
//! The encode matrix is derived from a Vandermonde matrix `V` with
//! distinct evaluation points `x_i = i`: `E = V · inv(V_top)` where
//! `V_top` is the first `k` rows. Multiplying on the right by an
//! invertible matrix preserves the Vandermonde property that *every*
//! set of `k` rows is linearly independent (MDS), while turning the top
//! `k` rows into the identity — so data shards are stored verbatim and
//! the all-shards-intact read path is a plain concatenation.
//!
//! Decoding picks any `k` surviving rows of `E`, inverts that `k × k`
//! submatrix by Gauss-Jordan over the field, and multiplies it against
//! the surviving shards to recover the data shards exactly.
//!
//! Determinism: parity rows are computed independently (pure function of
//! the data shards) and fanned out on the `ckpt-par` pool behind its
//! ordered merge — on the caller alone when the rows read less than
//! [`ckpt_par::PAR_MIN_BYTES`] — so encoded bytes are identical at any
//! pool width.

use crate::gf;
use ckpt_par::Pool;
use std::sync::Arc;

/// Maximum total shards: evaluation points must be distinct in GF(256).
pub(crate) const MAX_SHARDS: usize = 255;

/// A `(k, m)` systematic Reed-Solomon code: `k` data shards, `m` parity
/// shards, any `m` losses survivable.
///
/// Public for ckptbench, which times `encode` and `reconstruct`
/// (`benchmark/src/replay.rs`).
#[derive(Debug, Clone)]
pub struct RsCode {
    k: usize,
    m: usize,
    /// `(k + m) × k` encode matrix; rows `0..k` are the identity.
    rows: Vec<Vec<u8>>,
}

/// Reconstruction was impossible: fewer than `k` shards survived.
///
/// Public because [`RsCode::reconstruct`] returns it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NotEnoughShards {
    pub(crate) intact: usize,
    pub(crate) needed: usize,
}

impl std::fmt::Display for NotEnoughShards {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cannot reconstruct: {} intact shards of {} needed",
            self.intact, self.needed
        )
    }
}

impl std::error::Error for NotEnoughShards {}

/// Invert a `n × n` matrix over GF(256) by Gauss-Jordan elimination.
/// Returns `None` if singular (never happens for submatrices of an MDS
/// code's encode matrix — kept as a typed guard anyway).
fn invert(mat: &[Vec<u8>]) -> Option<Vec<Vec<u8>>> {
    let n = mat.len();
    // Augment [mat | I] and reduce the left half to the identity.
    let mut a: Vec<Vec<u8>> = mat
        .iter()
        .enumerate()
        .map(|(i, row)| {
            assert_eq!(row.len(), n);
            let mut r = row.clone();
            r.extend((0..n).map(|j| u8::from(i == j)));
            r
        })
        .collect();
    for col in 0..n {
        // Pivot: first row at/below `col` with a nonzero entry.
        let pivot = (col..n).find(|&r| a[r][col] != 0)?;
        a.swap(col, pivot);
        let pinv = gf::inv(a[col][col]);
        for x in a[col].iter_mut() {
            *x = gf::mul(*x, pinv);
        }
        for r in 0..n {
            if r != col && a[r][col] != 0 {
                let c = a[r][col];
                let (src, dst) = if r < col {
                    let (lo, hi) = a.split_at_mut(col);
                    (&hi[0], &mut lo[r])
                } else {
                    let (lo, hi) = a.split_at_mut(r);
                    (&lo[col], &mut hi[0])
                };
                for (d, &s) in dst.iter_mut().zip(src.iter()) {
                    *d ^= gf::mul(c, s);
                }
            }
        }
    }
    Some(a.into_iter().map(|row| row[n..].to_vec()).collect())
}

/// `out ^= Σ_j row[j] · shards[j]` — one row of a matrix × shard-vector
/// product. A shard shorter than `out` stands for its zero-padded self
/// (zero bytes contribute nothing), so the unpadded slices of an object
/// feed the parity rows directly.
fn row_apply(row: &[u8], shards: &[&[u8]], out: &mut [u8]) {
    for (&c, &s) in row.iter().zip(shards) {
        gf::mul_acc_slice(c, s, &mut out[..s.len()]);
    }
}

impl RsCode {
    /// Build the `(k, m)` code. Panics on degenerate geometry.
    pub fn new(k: usize, m: usize) -> Self {
        assert!(k >= 1, "need at least one data shard");
        assert!(m >= 1, "a code with no parity protects nothing");
        assert!(k + m <= MAX_SHARDS, "at most {MAX_SHARDS} total shards");
        // Vandermonde rows: V[i][j] = i^j, evaluation points 0..k+m.
        let v: Vec<Vec<u8>> = (0..k + m)
            .map(|i| (0..k).map(|j| gf::pow(i as u8, j)).collect())
            .collect();
        let top_inv = invert(&v[..k]).expect("Vandermonde top block is invertible");
        // E = V · inv(V_top); rows 0..k become the identity.
        let rows: Vec<Vec<u8>> = v
            .iter()
            .map(|row| {
                (0..k)
                    .map(|j| {
                        let mut acc = 0u8;
                        for (x, tj) in row.iter().zip(top_inv.iter()) {
                            acc ^= gf::mul(*x, tj[j]);
                        }
                        acc
                    })
                    .collect()
            })
            .collect();
        for (i, row) in rows.iter().take(k).enumerate() {
            debug_assert!(
                row.iter().enumerate().all(|(j, &c)| c == u8::from(i == j)),
                "systematic form: row {i} must be a unit vector"
            );
        }
        RsCode { k, m, rows }
    }

    pub(crate) fn k(&self) -> usize {
        self.k
    }

    pub(crate) fn m(&self) -> usize {
        self.m
    }

    /// Shard length for an object of `len` bytes: `ceil(len / k)`, with a
    /// one-byte floor so zero-length objects still commit frames.
    pub(crate) fn shard_len(&self, len: usize) -> usize {
        (len.div_ceil(self.k)).max(1)
    }

    /// The `k` data shards of `object` as borrowed, *unpadded* slices:
    /// shard `i` is `object[i·sl .. (i+1)·sl]` clipped to the object, so
    /// the tail shards of a short object are short or empty. Their
    /// zero-padded forms are what [`RsCode::split`] returns.
    pub(crate) fn data_slices<'a>(&self, object: &'a [u8]) -> Vec<&'a [u8]> {
        let sl = self.shard_len(object.len());
        (0..self.k)
            .map(|i| &object[(i * sl).min(object.len())..((i + 1) * sl).min(object.len())])
            .collect()
    }

    /// Split an object into `k` equal data shards (last one zero-padded).
    pub fn split(&self, object: &[u8]) -> Vec<Vec<u8>> {
        let sl = self.shard_len(object.len());
        self.data_slices(object)
            .into_iter()
            .map(|s| {
                let mut s = s.to_vec();
                s.resize(sl, 0);
                s
            })
            .collect()
    }

    /// Accumulate shard `i` of the code word (`i >= k`: a parity shard)
    /// into the zeroed `out`, from the `k` data shards — each at most
    /// `out.len()` long, shorter ones standing for their zero-padded
    /// selves.
    pub(crate) fn shard_into(&self, i: usize, data: &[&[u8]], out: &mut [u8]) {
        assert_eq!(data.len(), self.k);
        row_apply(&self.rows[i], data, out);
    }

    /// Compute the `m` parity shards from the `k` data shards, fanning
    /// the parity rows out on `pool` with ordered merge (byte-identical
    /// at any pool width — each row is a pure function of the inputs).
    pub fn encode(&self, data: &[Vec<u8>], pool: &Arc<Pool>) -> Vec<Vec<u8>> {
        assert_eq!(data.len(), self.k);
        let sl = data[0].len();
        assert!(data.iter().all(|s| s.len() == sl), "unequal shard lengths");
        let data: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
        // Every parity row reads all k data shards.
        let moved = self.m * self.k * sl;
        pool.for_bytes(moved).par_map_ordered((0..self.m).collect(), || (), |_, _, p| {
            let mut out = vec![0u8; sl];
            self.shard_into(self.k + p, &data, &mut out);
            out
        })
    }

    /// Rebuild lost shards from any `k` survivors, borrowing the
    /// survivors: every missing *data* shard (the object needs them, and
    /// parity derives from them), and those missing *parity* shards
    /// `want_parity` asks for — a degraded read has no use for the parity
    /// of a node it cannot reach. Returns `(index, shard)` in index order;
    /// the rows are independent and fan out on `pool`.
    ///
    /// `shards` has `k + m` slots; `None` marks a lost/torn shard.
    pub(crate) fn rebuild_missing(
        &self,
        shards: &[Option<&[u8]>],
        want_parity: impl Fn(usize) -> bool,
        pool: &Pool,
    ) -> Result<Vec<(usize, Vec<u8>)>, NotEnoughShards> {
        let (k, n) = (self.k, self.k + self.m);
        assert_eq!(shards.len(), n);
        let intact: Vec<usize> = (0..n).filter(|&i| shards[i].is_some()).collect();
        if intact.len() < k {
            return Err(NotEnoughShards {
                intact: intact.len(),
                needed: k,
            });
        }
        let sl = shards[intact[0]].expect("intact").len();
        let apply = |row: &[u8], from: &[&[u8]]| {
            let mut out = vec![0u8; sl];
            row_apply(row, from, &mut out);
            out
        };
        // Every rebuilt row reads k shards.
        let moved = |rows: usize| rows * k * sl;
        // Missing data shards: invert the k×k submatrix of the first k
        // surviving rows; row i of the inverse yields data shard i. With
        // all data shards intact there is nothing to invert.
        let lost_data: Vec<usize> = (0..k).filter(|&i| shards[i].is_none()).collect();
        let mut rebuilt = if lost_data.is_empty() {
            Vec::new()
        } else {
            let chosen = &intact[..k];
            let sub: Vec<Vec<u8>> = chosen.iter().map(|&i| self.rows[i].clone()).collect();
            let dec = invert(&sub).expect("any k rows of an MDS matrix are independent");
            let survivors: Vec<&[u8]> =
                chosen.iter().map(|&i| shards[i].expect("intact")).collect();
            pool.for_bytes(moved(lost_data.len()))
                .par_map_ordered(lost_data, || (), |_, _, i| (i, apply(&dec[i], &survivors)))
        };
        // Wanted parity shards re-derive from the (now complete) data.
        let lost_parity: Vec<usize> = (k..n)
            .filter(|&i| shards[i].is_none() && want_parity(i))
            .collect();
        if !lost_parity.is_empty() {
            let mut decoded = rebuilt.iter().map(|(_, shard)| shard.as_slice());
            let data: Vec<&[u8]> = (0..k)
                .map(|i| shards[i].unwrap_or_else(|| decoded.next().expect("decoded above")))
                .collect();
            let call = pool.for_bytes(moved(lost_parity.len()));
            let parity = call.par_map_ordered(lost_parity, || (), |_, _, i| {
                (i, apply(&self.rows[i], &data))
            });
            rebuilt.extend(parity);
        }
        Ok(rebuilt)
    }

    /// Rebuild the full shard set from any `k` survivors.
    ///
    /// `shards` has `k + m` slots; `None` marks a lost/torn shard. On
    /// success every slot is filled (survivors pass through untouched, so
    /// reconstruction can never silently rewrite an intact shard).
    pub fn reconstruct(
        &self,
        shards: &[Option<Vec<u8>>],
    ) -> Result<Vec<Vec<u8>>, NotEnoughShards> {
        let borrowed: Vec<Option<&[u8]>> = shards.iter().map(|s| s.as_deref()).collect();
        let mut rebuilt = self
            .rebuild_missing(&borrowed, |_| true, &Pool::new(1))?
            .into_iter();
        Ok(shards
            .iter()
            .map(|s| match s {
                Some(s) => s.clone(),
                None => rebuilt.next().expect("one rebuilt shard per empty slot").1,
            })
            .collect())
    }

    /// Reassemble the object from the `k` data shards.
    pub fn join(&self, shards: &[Vec<u8>], object_len: usize) -> Vec<u8> {
        let data: Vec<&[u8]> = shards.iter().take(self.k).map(Vec::as_slice).collect();
        self.join_slices(&data, object_len)
    }

    /// [`RsCode::join`] over borrowed data shards: the one copy a read
    /// makes of the object's bytes.
    pub(crate) fn join_slices(&self, data: &[&[u8]], object_len: usize) -> Vec<u8> {
        let total: usize = data.iter().map(|s| s.len()).sum();
        let mut out = Vec::with_capacity(object_len.min(total));
        for s in data {
            out.extend_from_slice(&s[..s.len().min(object_len - out.len())]);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pattern(len: usize, salt: u64) -> Vec<u8> {
        (0..len)
            .map(|i| ((i as u64).wrapping_mul(31).wrapping_add(salt * 17) % 251) as u8)
            .collect()
    }

    #[test]
    fn roundtrip_with_every_single_loss_pattern() {
        let code = RsCode::new(4, 2);
        let object = pattern(1000, 1);
        let data = code.split(&object);
        let parity = code.encode(&data, ckpt_par::global());
        for lost in 0..6 {
            let mut shards: Vec<Option<Vec<u8>>> =
                data.iter().chain(parity.iter()).cloned().map(Some).collect();
            shards[lost] = None;
            let full = code.reconstruct(&shards).unwrap();
            assert_eq!(code.join(&full, object.len()), object, "lost shard {lost}");
            // Reconstruction restored the lost shard exactly.
            let expect = if lost < 4 { &data[lost] } else { &parity[lost - 4] };
            assert_eq!(&full[lost], expect, "shard {lost} not rebuilt bit-exact");
        }
    }

    #[test]
    fn losing_more_than_m_is_a_typed_refusal() {
        let code = RsCode::new(4, 2);
        let data = code.split(&pattern(256, 2));
        let parity = code.encode(&data, ckpt_par::global());
        let mut shards: Vec<Option<Vec<u8>>> =
            data.iter().chain(parity.iter()).cloned().map(Some).collect();
        shards[0] = None;
        shards[2] = None;
        shards[5] = None;
        assert_eq!(
            code.reconstruct(&shards),
            Err(NotEnoughShards { intact: 3, needed: 4 })
        );
    }

    #[test]
    fn zero_length_and_sub_k_objects_still_shard() {
        let code = RsCode::new(4, 2);
        for len in [0usize, 1, 3, 4, 5] {
            let object = pattern(len, 3);
            let data = code.split(&object);
            assert!(data.iter().all(|s| !s.is_empty()));
            let parity = code.encode(&data, ckpt_par::global());
            let mut shards: Vec<Option<Vec<u8>>> =
                data.iter().chain(parity.iter()).cloned().map(Some).collect();
            shards[0] = None;
            shards[3] = None;
            let full = code.reconstruct(&shards).unwrap();
            assert_eq!(code.join(&full, len), object, "len = {len}");
        }
    }

    /// Parity and rebuilt rows are the same at every pool width, for a
    /// 1000-byte object (every fan-out under `ckpt_par::PAR_MIN_BYTES`,
    /// on the caller) and a 256 KiB one (64 KiB shards: each fan-out reads
    /// 256 KiB or more, so wide pools spread the rows).
    #[test]
    fn encode_and_rebuild_are_width_invariant() {
        let code = RsCode::new(4, 2);
        for len in [1000usize, 256 * 1024] {
            let data = code.split(&pattern(len, 4));
            let serial = Arc::new(Pool::new(1));
            let parity = code.encode(&data, &serial);
            let mut shards: Vec<Option<&[u8]>> =
                data.iter().chain(&parity).map(|s| Some(s.as_slice())).collect();
            shards[1] = None;
            shards[5] = None;
            let rebuilt = code.rebuild_missing(&shards, |_| true, &serial).unwrap();
            assert_eq!(rebuilt, vec![(1, data[1].clone()), (5, parity[1].clone())]);
            for w in [2usize, 4, 8] {
                let pool = Arc::new(Pool::new(w));
                assert_eq!(code.encode(&data, &pool), parity, "len {len}, width {w}");
                let wide = code.rebuild_missing(&shards, |_| true, &pool).unwrap();
                assert_eq!(wide, rebuilt, "len {len}, width {w}");
            }
        }
    }
}
