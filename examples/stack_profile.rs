//! What each storage stack costs the host per byte: store, then load, one
//! fresh object through every stack `crashpoint::injected_store` builds
//! (every backend label of `crashpoint::TIERS`, fault injection off),
//! plus `dedup(replicated(3,2))` the way ckptbench and the engine's own
//! callers build it, with no fault-injecting layer between the tiers.
//!
//! ```text
//! cargo run --release --example stack_profile              # 8 MiB and 1.6 MiB
//! cargo run --release --example stack_profile -- 65536     # any sizes, in bytes
//! ```
//!
//! Each object is incompressible and stored under an image key of a
//! lineage of its own, so the dedup stacks chunk it and find nothing to
//! share; it is deleted again before the next one. Host MiB/s, best of
//! five stores and five loads: it prints and gates nothing. It uses only
//! API older than the stacks' read-side digests, so the same file copied
//! into a scratch clone of an older commit prints the before rows.

use ckpt_restart::cas::DedupStore;
use ckpt_restart::ckpt::crashpoint::{injected_store, TIERS};
use ckpt_restart::replica::ReplicatedStore;
use ckpt_restart::simos::apps::mix64;
use ckpt_restart::simos::cost::CostModel;
use ckpt_restart::simos::faultpoint::FaultHandle;
use ckpt_restart::storage::{ImageKey, StableStorage};
use std::time::Instant;

const REPS: u32 = 5;

/// `len` incompressible bytes, different for every `seed`.
fn object(len: usize, seed: u64) -> Vec<u8> {
    (0..len.div_ceil(8) as u64)
        .flat_map(|i| mix64(seed << 32 ^ i).to_le_bytes())
        .take(len)
        .collect()
}

/// Best-of-`REPS` host MiB/s of store and of load of `len`-byte objects.
fn profile(store: &mut dyn StableStorage, len: usize) -> (f64, f64) {
    let cost = CostModel::circa_2005();
    let (mut best_store, mut best_load) = (f64::MAX, f64::MAX);
    for rep in 0..REPS {
        let key = ImageKey::new("profile", rep + 1, 1).to_string();
        let data = object(len, u64::from(rep) ^ len as u64);
        let t0 = Instant::now();
        store.store(&key, &data, &cost).expect("store");
        best_store = best_store.min(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        let (back, _) = store.load(&key, &cost).expect("load");
        best_load = best_load.min(t0.elapsed().as_secs_f64());
        assert!(back == data, "{} returned other bytes", store.label());
        store.delete(&key).expect("delete");
    }
    let mib = len as f64 / f64::from(1 << 20);
    (mib / best_store, mib / best_load)
}

fn main() {
    let sizes: Vec<usize> = std::env::args()
        .skip(1)
        .map(|a| a.parse().expect("sizes are byte counts"))
        .collect();
    let sizes = if sizes.is_empty() {
        vec![8 << 20, (8 << 20) / 5]
    } else {
        sizes
    };
    let mut labels: Vec<&str> = Vec::new();
    for label in TIERS.iter().flat_map(|t| t.backends.iter().copied()) {
        if !labels.contains(&label) {
            labels.push(label);
        }
    }
    print!("{:<34}", "stack (host MiB/s, store / load)");
    for len in &sizes {
        print!(
            " {:>22}",
            format!("{:.2} MiB", *len as f64 / f64::from(1 << 20))
        );
    }
    println!();
    let row = |label: &str, build: &dyn Fn() -> Box<dyn StableStorage>| {
        print!("{label:<34}");
        for &len in &sizes {
            let (store, load) = profile(build().as_mut(), len);
            print!(" {:>22}", format!("{store:.0} / {load:.0}"));
        }
        println!();
    };
    for label in labels {
        row(label, &|| injected_store(label, &FaultHandle::disabled()));
    }
    row("dedup(replicated(3,2)), bare", &|| {
        Box::new(DedupStore::new(Box::new(ReplicatedStore::fresh(3, 2))))
    });
}
