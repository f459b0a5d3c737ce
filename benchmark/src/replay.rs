//! Replays of kernels that are sealed inside a layer.
//!
//! A store does not expose how long its Reed-Solomon encode or its chunker
//! took, so the traced run calls the same public kernels itself, once per
//! cycle, on the bytes the layer just handled, and reports their rate. A
//! rate is bytes in over seconds spent, summed over all replays of a run.

use ckpt_cas::ChunkParams;
use ckpt_ec::RsCode;
use ckpt_par::Pool;
use ckpt_replica::ReplicaSet;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Bytes processed and seconds spent, accumulated.
#[derive(Debug, Clone, Copy, Default)]
pub struct Rate {
    pub bytes: f64,
    pub secs: f64,
}

impl Rate {
    fn time<R>(&mut self, bytes: usize, body: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let out = black_box(body());
        self.secs += t.elapsed().as_secs_f64();
        self.bytes += bytes as f64;
        out
    }

    /// MiB per second; 0 when the kernel was never replayed.
    pub fn mib_per_s(&self) -> f64 {
        if self.secs > 0.0 {
            self.bytes / crate::measure::MIB / self.secs
        } else {
            0.0
        }
    }
}

/// All replay accumulators of one traced run.
#[derive(Debug, Default)]
pub struct Replays {
    /// `encode_pages` on the captured pages at pool width 1 and width W.
    pub compress_serial: Rate,
    pub compress_pool: Rate,
    pub crc: Rate,
    pub chunk: Rate,
    pub delta: Rate,
    pub node_put: Rate,
    pub fnv: Rate,
    pub rs_encode: Rate,
    pub rs_reconstruct: Rate,
    pub gf_mul_acc: Rate,
    /// How many commits' worth of `rs_encode` time is held (for
    /// `ec.plumbing_share`).
    pub rs_encode_commits: u64,
}

impl Replays {
    /// Page compression, serial and on the pool, over the same pages the
    /// capture just encoded.
    pub fn pages(&mut self, pool: &Pool, pages: &[(u64, Vec<u8>)]) {
        let bytes: usize = pages.iter().map(|(_, d)| d.len()).sum();
        let serial = Pool::new(1);
        let input = pages.to_vec();
        self.compress_serial
            .time(bytes, || ckpt_image::encode_pages(&serial, input));
        let input = pages.to_vec();
        self.compress_pool
            .time(bytes, || ckpt_image::encode_pages(pool, input));
    }

    /// The image trailer's CRC over the encoded bytes the store received.
    pub fn image_bytes(&mut self, encoded: &[u8]) {
        self.crc.time(encoded.len(), || ckpt_image::crc32(encoded));
    }

    /// The dedup tier's chunk + digest pass, and its delta against the
    /// previous object of the lineage.
    pub fn cas(&mut self, pool: &Pool, prev: Option<&[u8]>, cur: &[u8]) {
        self.chunk.time(cur.len(), || {
            ckpt_cas::split_and_digest(cur, &ChunkParams::DEFAULT, pool)
        });
        if let Some(prev) = prev {
            self.delta
                .time(cur.len(), || ckpt_cas::delta::xor_rle_encode(prev, cur));
        }
    }

    /// One replica node ingesting the payloads the replica tier saw, and
    /// the frame digest over the same bytes.
    pub fn replica(&mut self, pieces: &[Vec<u8>]) {
        let scratch = ReplicaSet::new(1);
        let node = scratch.node(0);
        for (i, p) in pieces.iter().enumerate() {
            let key = format!("replay/{i}");
            self.node_put.time(p.len(), || node.put(&key, 1, p));
            self.fnv.time(p.len(), || ckpt_replica::fnv1a64(p));
        }
    }

    /// What `ErasureStore` does to one object besides moving frames: split
    /// and encode on commit, reconstruct with `lost` shards missing on a
    /// degraded read; plus the GF(256) row kernel alone.
    pub fn erasure(&mut self, pool: &Arc<Pool>, k: usize, m: usize, object: &[u8], lost: &[usize]) {
        let code = RsCode::new(k, m);
        let (data, parity) = self.rs_encode.time(object.len(), || {
            let data = code.split(object);
            let parity = code.encode(&data, pool);
            (data, parity)
        });
        self.rs_encode_commits += 1;
        let mut acc = vec![0u8; data[0].len()];
        self.gf_mul_acc.time(acc.len(), || {
            ckpt_ec::gf::mul_acc_slice(0x53, &data[0], &mut acc)
        });
        let scratch = ReplicaSet::new(1);
        for (i, shard) in data.iter().chain(&parity).enumerate() {
            let key = format!("replay/s{i}");
            self.node_put
                .time(shard.len(), || scratch.node(0).put(&key, 1, shard));
        }
        let shards: Vec<Option<Vec<u8>>> = data
            .into_iter()
            .chain(parity)
            .enumerate()
            .map(|(i, s)| (!lost.contains(&i)).then_some(s))
            .collect();
        let full = self.rs_reconstruct.time(object.len(), || {
            code.reconstruct(&shards).expect("at most m shards lost")
        });
        assert_eq!(
            code.join(&full, object.len()),
            object,
            "replayed reconstruction must return the object"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replays_accumulate_bytes_and_time() {
        let pool = Arc::new(Pool::new(2));
        let mut r = Replays::default();
        let object: Vec<u8> = (0..200_000u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 13) as u8)
            .collect();
        r.erasure(&pool, 4, 2, &object, &[1, 4]);
        r.cas(&pool, Some(&object), &object);
        r.image_bytes(&object);
        r.replica(&[object[..4096].to_vec(), object[4096..9000].to_vec()]);
        r.pages(&pool, &[(1, vec![0u8; 4096]), (2, object[..4096].to_vec())]);
        for rate in [
            r.rs_encode,
            r.rs_reconstruct,
            r.gf_mul_acc,
            r.chunk,
            r.delta,
            r.crc,
            r.fnv,
            r.compress_serial,
            r.compress_pool,
        ] {
            assert!(rate.bytes > 0.0 && rate.mib_per_s() > 0.0);
        }
        assert_eq!(r.node_put.bytes, (6 * 50_000 + 9000) as f64);
        assert_eq!(Rate::default().mib_per_s(), 0.0);
    }
}
