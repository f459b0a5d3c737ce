//! What one `ckpt-par` call costs the host at pool widths 1 and 2, for the
//! shapes the storage and image layers make: N node copies of one chunk
//! (a quorum commit's fan-out), page encoding over a gathered list
//! (`encode_pages`), and the two calls a full checkpoint makes,
//! `capture_image` of a frozen guest and `encode_with_pool` of its image,
//! from 16 to 4096 pages.
//!
//! ```text
//! cargo run --release --example pool_overhead
//! ```
//!
//! Node copies and `encode_pages` are timed twice per width: `pool` maps
//! the same items, one per task, through `Pool::par_map_ordered` directly,
//! which is what the threads cost before any gate; `layer` is the layer's
//! own call (`ReplicatedStore::store` of a chunk with 3 replicas,
//! `encode_pages`), which is what a checkpoint pays. Where the `pool w2`
//! column starts to beat `pool w1` is the crossover the size gate
//! (`ckpt_par::PAR_MIN_BYTES`) is set from. The `capture_image` and
//! `encode_with_pool` rows are layer calls only, on a guest with that many
//! resident incompressible pages.
//!
//! Host time only, best of nine samples of at least 30 ms each: it prints
//! and gates nothing. It uses only API that predates the gate, so the same
//! file copied into a scratch clone of an older commit prints the before
//! rows.

use ckpt_restart::ckpt::capture::{capture_image, CaptureOptions};
use ckpt_restart::image::{encode_pages, encode_with_pool, PageRecord};
use ckpt_restart::par::Pool;
use ckpt_restart::replica::{ReplicaConfig, ReplicaSet, ReplicatedStore};
use ckpt_restart::simos::apps::{mix64, AppParams, NativeKind};
use ckpt_restart::simos::cost::CostModel;
use ckpt_restart::simos::Kernel;
use ckpt_restart::storage::StableStorage;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

const PAGE: usize = 4096;

fn pseudo_bytes(n: usize, seed: u64) -> Vec<u8> {
    let mut v = Vec::with_capacity(n + 8);
    let mut x = seed;
    while v.len() < n {
        x = mix64(x);
        v.extend_from_slice(&x.to_le_bytes());
    }
    v.truncate(n);
    v
}

/// Best of nine samples of host µs per call; `call` returns the time of
/// the call proper, so input set-up outside it is not counted.
fn best_us(mut call: impl FnMut() -> Duration) -> f64 {
    (0..9)
        .map(|_| {
            let (mut spent, mut calls) = (Duration::ZERO, 0u32);
            while calls < 3 || spent < Duration::from_millis(30) {
                spent += call();
                calls += 1;
            }
            spent.as_secs_f64() * 1e6 / f64::from(calls)
        })
        .fold(f64::INFINITY, f64::min)
}

/// One table row; a shape with no `pool` columns prints `-` there.
fn row(shape: &str, bytes: usize, us: [Option<f64>; 4]) {
    let kib = bytes as f64 / 1024.0;
    let cols: Vec<String> = us
        .iter()
        .map(|u| u.map_or("-".into(), |u| format!("{u:.1}")))
        .collect();
    println!(
        "{shape:<30} {kib:>9.1} {:>10} {:>10} {:>10} {:>10}",
        cols[0], cols[1], cols[2], cols[3]
    );
}

fn main() {
    let pools = [Pool::new(1), Pool::new(2)];
    let cost = CostModel::circa_2005();
    println!("ckpt-par host cost per call (µs), widths 1 and 2");
    println!(
        "{:<30} {:>9} {:>10} {:>10} {:>10} {:>10}",
        "shape", "KiB moved", "pool w1", "pool w2", "layer w1", "layer w2"
    );

    // A quorum commit fans one chunk's node copies out, one item a node.
    for total in [20 * 1024 - 512, 64 * 1024, 256 * 1024, 1024 * 1024] {
        let chunk = pseudo_bytes(total / 3, total as u64);
        let mut us = [None; 4];
        for (w, pool) in pools.iter().enumerate() {
            us[w] = Some(best_us(|| {
                let t = Instant::now();
                let copies = pool.par_map_ordered(vec![&chunk[..]; 3], || (), |_, _, c| c.to_vec());
                let spent = t.elapsed();
                black_box(copies);
                spent
            }));
            let mut store = ReplicatedStore::new(ReplicaSet::new(3), ReplicaConfig::new(3, 2))
                .with_pool(Arc::new(Pool::new(pool.workers())));
            us[2 + w] = Some(best_us(|| {
                let t = Instant::now();
                store
                    .store("overhead/chunk", &chunk, &cost)
                    .expect("no faults injected");
                t.elapsed()
            }));
        }
        row(
            &format!("3 node copies of {} B", chunk.len()),
            3 * chunk.len(),
            us,
        );
    }

    let all_pages: Vec<(u64, Vec<u8>)> = (0..4096u64)
        .map(|p| (p, pseudo_bytes(PAGE, p + 1)))
        .collect();
    for n in [16usize, 32, 64, 128, 256, 400, 1024, 4096] {
        let pages = &all_pages[..n];
        // A guest whose `n` resident pages (a header page and the array)
        // hold incompressible words from spawn on.
        let mut k = Kernel::new(cost.clone());
        let mut params = AppParams::small();
        params.mem_bytes = ((n - 1) * PAGE) as u64;
        let pid = k
            .spawn_native(NativeKind::ReadMostly, params)
            .expect("spawn");
        k.freeze_process(pid).expect("freeze");
        let img =
            capture_image(&mut k, pid, &CaptureOptions::full("overhead", 1)).expect("frozen guest");
        let mut encode = [None; 4];
        let mut capture = [None; 4];
        let mut image = [None; 4];
        for (w, pool) in pools.iter().enumerate() {
            encode[w] = Some(best_us(|| {
                let input = pages.to_vec();
                let t = Instant::now();
                let recs =
                    pool.par_map_ordered(input, || (), |_, _, (p, d)| PageRecord::capture(p, &d));
                let spent = t.elapsed();
                black_box(recs);
                spent
            }));
            encode[2 + w] = Some(best_us(|| {
                let input = pages.to_vec();
                let t = Instant::now();
                let recs = encode_pages(pool, input);
                let spent = t.elapsed();
                black_box(recs);
                spent
            }));
            let mut opts = CaptureOptions::full("overhead", 1);
            opts.encode_pool = Some(Arc::new(Pool::new(pool.workers())));
            capture[2 + w] = Some(best_us(|| {
                let t = Instant::now();
                let img = capture_image(&mut k, pid, &opts).expect("frozen guest");
                let spent = t.elapsed();
                black_box(img);
                spent
            }));
            image[2 + w] = Some(best_us(|| {
                let t = Instant::now();
                let bytes = encode_with_pool(&img, pool);
                let spent = t.elapsed();
                black_box(bytes);
                spent
            }));
        }
        row(&format!("encode_pages, {n} pages"), n * PAGE, encode);
        row(&format!("capture_image, {n} pages"), n * PAGE, capture);
        row(&format!("encode_with_pool, {n} pages"), n * PAGE, image);
    }
}
